"""Exact dyadic and rational arithmetic.

Every quantity the library manipulates — codeword masses, halting-probability
partial sums, interval endpoints — is either a dyadic rational ``m * 2**-e``
or a general rational, and every comparison is exact.  No floating point is
used anywhere; approximate decimal output exists only as an explicitly marked
convenience in the command-line layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Union

from .errors import NonPositiveInput

RationalLike = Union[Fraction, int, "Dyadic"]


def _normalized(mantissa: int, exponent: int) -> tuple[int, int]:
    if mantissa < 0:
        raise ValueError("dyadic values are non-negative")
    if mantissa & 1:
        return mantissa, exponent
    if mantissa == 0:
        return 0, 0
    shift = (mantissa & -mantissa).bit_length() - 1
    return mantissa >> shift, exponent - shift


@total_ordering
class Dyadic:
    """Non-negative dyadic rational ``mantissa * 2**-exponent``.

    Instances are canonical: the mantissa is odd, or the value is zero and
    both fields are zero.  The exponent may go negative so that even integers
    stay representable (6 is stored as mantissa 3, exponent -1).  Instances
    are immutable and compare exactly against other dyadics, ints and
    fractions.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        m, e = _normalized(mantissa, exponent)
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", e)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic instances are immutable")

    # -- construction / conversion ------------------------------------

    @classmethod
    def from_fraction(cls, value: RationalLike) -> "Dyadic":
        """Build from a rational whose denominator is a power of two."""
        q = as_fraction(value)
        d = q.denominator
        if d & (d - 1):
            raise ValueError(f"{q} is not dyadic: denominator is not a power of two")
        return cls(q.numerator, d.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa, 1 << self.exponent)
        return Fraction(self.mantissa << -self.exponent)

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "Dyadic") -> tuple[int, int, int]:
        e = max(self.exponent, other.exponent)
        return (self.mantissa << (e - self.exponent),
                other.mantissa << (e - other.exponent), e)

    def __add__(self, other):
        if not isinstance(other, Dyadic):
            return NotImplemented
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    def __sub__(self, other):
        if not isinstance(other, Dyadic):
            return NotImplemented
        a, b, e = self._aligned(other)
        if a < b:
            raise ValueError("dyadic difference is negative")
        return Dyadic(a - b, e)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Dyadic):
            return (self.mantissa, self.exponent) == (other.mantissa, other.exponent)
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Dyadic):
            a, b, _ = self._aligned(other)
            return a < b
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() < other
        return NotImplemented

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.mantissa != 0

    def __str__(self):
        return f"{self.mantissa}/2^{self.exponent}"

    def __repr__(self):
        return f"Dyadic({self.mantissa}, {self.exponent})"


DYADIC_ZERO = Dyadic(0)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or Dyadic to an exact Fraction; TypeError else.

    An exact Fraction is returned as it is, without a copy.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, Dyadic):
        return value.as_fraction()
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"not an int, Fraction or Dyadic: {value!r}")


def pow2_neg(n: int) -> Dyadic:
    """The dyadic ``2**-n`` for a natural number ``n``."""
    if n < 0:
        raise ValueError("exponent must be a natural number")
    return Dyadic(1, n)


def ceil_neg_log2(q: RationalLike) -> int:
    """Least natural ``n`` with ``2**-n <= q``; 0 exactly when ``q >= 1``.

    Raises NonPositiveInput for ``q <= 0``.
    """
    frac = as_fraction(q)
    if frac <= 0:
        raise NonPositiveInput(f"need a positive rational, got {frac}")
    return _ceil_neg_log2(frac.numerator, frac.denominator)


def _ceil_neg_log2(num: int, den: int) -> int:
    """``ceil_neg_log2(num / den)`` for positive ints, in lowest terms or not."""
    # num << n has den's bit length, so it is below den at most once more.
    n = max(den.bit_length() - num.bit_length(), 0)
    return n + 1 if num << n < den else n


def measure_of_lengths(lengths: Iterable[int]) -> Dyadic:
    """Exact total ``sum(2**-n)`` over a multiset of codeword lengths."""
    lengths = list(lengths)
    if not lengths:
        return DYADIC_ZERO
    if min(lengths) < 0:
        raise ValueError("lengths must be natural numbers")
    scale = max(lengths)
    return Dyadic(sum(1 << (scale - n) for n in lengths), scale)


@dataclass(frozen=True)
class Interval:
    """Half-open rational interval ``[lo, hi)``; empty exactly when lo == hi.

    Both endpoints go through ``as_fraction``, so text and floats raise
    TypeError.  Two exact ``Fraction`` endpoints (what ``build_test`` always
    passes) are kept as they are.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction or type(hi) is not Fraction:
            lo, hi = as_fraction(lo), as_fraction(hi)
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        # lo > hi, cross-multiplied over the positive denominators
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi

    @property
    def measure(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: RationalLike) -> bool:
        q = as_fraction(q)
        return self.lo <= q < self.hi

    def disjoint_from(self, other: "Interval") -> bool:
        if self.is_empty or other.is_empty:
            return True
        return self.hi <= other.lo or other.hi <= self.lo


def format_rational(q: RationalLike) -> str:
    """Serialize a rational as ``p/q`` (always with an explicit denominator).

    A ``Dyadic`` is written from its mantissa and exponent without a
    ``Fraction``: being canonical, ``m/2**e`` is already in lowest terms.
    """
    if isinstance(q, Dyadic):
        if q.exponent >= 0:
            return f"{q.mantissa}/{1 << q.exponent}"
        return f"{q.mantissa << -q.exponent}/1"
    frac = as_fraction(q)
    return f"{frac.numerator}/{frac.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse an optionally signed integer ``p``, or ``p/q`` with ``q > 0``.

    Digits are ASCII ``0-9`` only and only ``p`` may carry a sign.  Anything
    else (decimals, exponents, a zero denominator) raises ValueError.
    """
    text = text.strip()
    p, slash, q = text.partition("/")
    unsigned = p[1:] if p.startswith(("+", "-")) else p
    # On ASCII text, isdigit() accepts exactly a non-empty run of 0-9.
    if not (text.isascii() and unsigned.isdigit() and (q.isdigit() or not slash)):
        raise ValueError(f"not a rational 'p/q' or integer: {text!r}")
    den = int(q) if slash else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(p), den)
