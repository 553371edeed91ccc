"""Dyadic staircases under increasing rational sequences.

A strictly increasing rational sequence in (0, 1) — the typical approximation
of a computably enumerable real from below — is converted into a staircase of
dyadic partial sums ``r_i = r_{i-1} + 2**-n_i``.  Each step length is the
tightest power of two fitting under the current term, which traps ``r_i``
between the midpoint ``(a_i + r_{i-1}) / 2`` and ``a_i`` itself, so the
staircase converges to the same limit as the sequence.  The step lengths
always satisfy the unit mass bound, so they can be fed straight into the
codeword allocator; the resulting machine's domain carries measure exactly
``r_k``.

The loops compute on exact integers: each term as its numerator/denominator
pair and each partial sum as a raw ``(mantissa, exponent)`` pair, compared
by cross-multiplication.  The values returned are still ``Fraction`` terms
and canonical ``Dyadic`` partial sums.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .codespace import allocate_all
from .errors import InvalidSequence, SequenceExhausted
from .exact import Dyadic, _ceil_neg_log2, as_fraction
from .machines import MachineTable


class RationalSeq:
    """Strictly increasing rationals in the open unit interval.

    Wraps any iterable of rationals; terms are pulled and cached on demand,
    so generator-backed sequences extend their materialized prefix lazily.
    Monotonicity and range are checked as terms arrive: a bad source fails at
    its first offending term with InvalidSequence.
    """

    def __init__(self, source: Iterable[Fraction | int | Dyadic]):
        self._iter: Iterator = iter(source)
        self._cache: list[Fraction] = []

    def prefix(self, k: int) -> tuple[Fraction, ...]:
        """The first ``k`` terms; SequenceExhausted if fewer are available."""
        if k < 0:
            raise ValueError("prefix length must be a natural number")
        cache = self._cache
        if len(cache) < k:
            # The last accepted term as an integer pair; 0/1 before the first,
            # which every term inside (0, 1) clears.
            lp, lq = (cache[-1].numerator, cache[-1].denominator) if cache else (0, 1)
            # islice refuses a stop past sys.maxsize, which no cache reaches.
            for raw in islice(self._iter, min(k - len(cache), sys.maxsize)):
                term = as_fraction(raw)
                p, q = term.numerator, term.denominator
                if not 0 < p < q:
                    raise InvalidSequence(f"term {term} is outside (0, 1)")
                if p * lq <= lp * q:
                    raise InvalidSequence(
                        f"term {term} does not increase past {cache[-1]}")
                cache.append(term)
                lp, lq = p, q
            if len(cache) < k:
                raise SequenceExhausted(f"sequence ended after {len(cache)} "
                                        f"terms, {k} were requested")
        return tuple(cache[:k])


@dataclass(frozen=True)
class DyadicDecomposition:
    """Step lengths and dyadic partial sums of a staircase."""

    lengths: tuple[int, ...]
    partials: tuple[Dyadic, ...]

    def verify(self, terms: Sequence[Fraction]) -> None:
        """Re-check every defining identity exactly; ValueError on any break.

        Checks, for each step i: the recurrence ``r_i = r_{i-1} + 2**-n_i``,
        the strict gap ``r_{i-1} < a_i``, and the sandwich
        ``(a_i + r_{i-1}) / 2 <= r_i <= a_i``.  Each step compares integers
        scaled to the common denominator ``2**s``, ``s`` the largest exponent
        in play; a term ``p/q`` enters as ``p << s`` against ``r * q``.
        """
        if not len(self.lengths) == len(self.partials) == len(terms):
            raise ValueError("decomposition and term prefix lengths differ")
        pm, pe = 0, 0                        # r_{i-1} = pm / 2**pe
        for i, (n, r, a) in enumerate(zip(self.lengths, self.partials, terms), 1):
            a = as_fraction(a)
            if n < 0:
                raise ValueError("exponent must be a natural number")
            rm, re = r.mantissa, r.exponent
            s = max(pe, n, re, 0)
            prev, cur = pm << (s - pe), rm << (s - re)
            if prev + (1 << (s - n)) != cur:
                raise ValueError(f"step {i}: recurrence broken")
            p, q = a.numerator, a.denominator
            top = p << s                     # a_i * q at scale 2**s
            if not prev * q < top:
                raise ValueError(f"step {i}: partial sum is not below the term")
            if not top + prev * q <= cur * q << 1 <= top << 1:
                raise ValueError(f"step {i}: sandwich bound broken")
            pm, pe = rm, re


def dyadic_decompose(seq: RationalSeq, k: int) -> DyadicDecomposition:
    """Decompose the first ``k`` terms into a verified dyadic staircase.

    Each step takes ``n_i`` as the least natural with ``2**-n_i`` at most the
    gap ``a_i - r_{i-1}``, then advances ``r_i = r_{i-1} + 2**-n_i``.  The
    running sum is the raw pair ``rm / 2**e``, ``e`` the longest step so far;
    a ``Dyadic`` is built only for each returned partial.
    """
    terms = seq.prefix(k)
    lengths: list[int] = []
    partials: list[Dyadic] = []
    rm = e = 0
    for a in terms:
        p, q = a.numerator, a.denominator
        gap = (p << e) - rm * q              # a - r, times q << e
        if gap <= 0:
            raise InvalidSequence(
                f"term {a} does not clear the partial sum {Dyadic(rm, e)}")
        n = _ceil_neg_log2(gap, q << e)
        if n > e:
            rm = (rm << (n - e)) + 1
            e = n
        else:
            rm += 1 << (e - n)
        lengths.append(n)
        partials.append(Dyadic(rm, e))
    decomposition = DyadicDecomposition(tuple(lengths), tuple(partials))
    decomposition.verify(terms)
    return decomposition


def to_machine(seq: RationalSeq, k: int) -> MachineTable:
    """Allocate one codeword per staircase step; outputs are placeholders.

    The returned table's domain measure equals the k-th partial sum ``r_k``.
    """
    decomposition = dyadic_decompose(seq, k)
    return MachineTable(allocate_all((n, "") for n in decomposition.lengths))
