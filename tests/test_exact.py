"""Dyadic/rational arithmetic, intervals, and the exact-log helper."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omegalib.errors import OmegalibError
from omegalib.exact import (Dyadic, Interval, as_fraction, ceil_neg_log2,
                            format_rational, measure_of_lengths,
                            parse_rational, pow2_neg)

dyadics = st.builds(Dyadic,
                    st.integers(min_value=0, max_value=1 << 40),
                    st.integers(min_value=-10, max_value=40))
positive_fractions = st.fractions(min_value=Fraction(1, 10**6),
                                  max_value=Fraction(10**6))


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(4, 4)
        assert (d.mantissa, d.exponent) == (1, 2)
        assert Dyadic(0, 7) == Dyadic(0, 0)
        assert Dyadic(6, 0).as_fraction() == 6  # stored with negative exponent
        assert Dyadic(6, 0).exponent == -1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Dyadic(-1, 0)

    def test_normalisation_matches_trailing_zero_strip(self):
        # The normalisation before the odd-mantissa fast path, kept literally.
        def reference(mantissa, exponent):
            if mantissa == 0:
                return 0, 0
            shift = (mantissa & -mantissa).bit_length() - 1
            return mantissa >> shift, exponent - shift

        for m in range(2049):
            for e in range(-3, 13):
                d = Dyadic(m, e)
                assert (d.mantissa, d.exponent) == reference(m, e), (m, e)

    def test_immutable(self):
        d = Dyadic(3, 2)
        with pytest.raises(AttributeError):
            d.mantissa = 5

    def test_arithmetic(self):
        half, quarter = Dyadic(1, 1), Dyadic(1, 2)
        assert half + quarter == Fraction(3, 4)
        assert half - quarter == quarter
        with pytest.raises(ValueError):
            quarter - half

    def test_comparisons_mix_types(self):
        assert Dyadic(1, 1) < Fraction(2, 3)
        assert Fraction(1, 3) < Dyadic(1, 1)
        assert Dyadic(1, 0) == 1
        assert Dyadic(3, 2) <= Dyadic(3, 2)

    def test_string_round_trip(self):
        d = Dyadic(7, 4)
        assert str(d) == "7/2^4"

    def test_from_fraction(self):
        assert Dyadic.from_fraction(Fraction(3, 8)) == Dyadic(3, 3)
        with pytest.raises(ValueError):
            Dyadic.from_fraction(Fraction(1, 3))

    @given(dyadics)
    def test_fraction_round_trip(self, d):
        assert Dyadic.from_fraction(d.as_fraction()) == d

    @given(dyadics, dyadics)
    def test_add_agrees_with_fractions(self, a, b):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()

    @given(dyadics, dyadics)
    def test_order_agrees_with_fractions(self, a, b):
        assert (a < b) == (a.as_fraction() < b.as_fraction())
        assert (a == b) == (a.as_fraction() == b.as_fraction())


class TestPow2AndLog:
    def test_pow2_neg(self):
        assert pow2_neg(0) == 1
        assert pow2_neg(2) == Fraction(1, 4)
        assert pow2_neg(4) == Fraction(1, 16)
        with pytest.raises(ValueError):
            pow2_neg(-1)

    def test_ceil_neg_log2_values(self):
        assert ceil_neg_log2(Fraction(1)) == 0
        assert ceil_neg_log2(Fraction(1, 4)) == 2
        assert ceil_neg_log2(Fraction(3, 10)) == 2
        assert ceil_neg_log2(Fraction(5, 2)) == 0
        assert ceil_neg_log2(Dyadic(1, 5)) == 5

    def test_ceil_neg_log2_rejects_nonpositive(self):
        with pytest.raises(OmegalibError, match="^need a positive rational, got 0$"):
            ceil_neg_log2(Fraction(0))
        with pytest.raises(OmegalibError, match=(
                "^need a positive rational, got -1/2$")):
            ceil_neg_log2(Fraction(-1, 2))

    @given(positive_fractions)
    def test_ceil_neg_log2_characterization(self, q):
        n = ceil_neg_log2(q)
        assert Fraction(1, 2**n) <= q
        if n >= 1:
            assert q < Fraction(1, 2 ** (n - 1))
        else:
            assert q >= 1

    def test_ceil_neg_log2_at_and_around_powers_of_two(self):
        for n in range(10_001):
            assert ceil_neg_log2(Fraction(1, 1 << n)) == n
            # 1/(2^n + 1) lies in [2^-(n+1), 2^-n); 2/(2^(n+1) - 1) in (2^-n, 2^-(n-1)]
            assert ceil_neg_log2(Fraction(1, (1 << n) + 1)) == n + 1
            assert ceil_neg_log2(Fraction(2, (2 << n) - 1)) == n

    @pytest.mark.parametrize("q", [Fraction(1), Fraction(7, 3), Fraction(3, 2),
                                   Fraction(10**100 + 1, 10**100), 1, 2**4000])
    def test_ceil_neg_log2_at_least_one_is_zero(self, q):
        assert ceil_neg_log2(q) == 0

    def test_ceil_neg_log2_wide_gap_needs_the_correction(self):
        # 3 * 2^40000 has two more bits than 1, but 2^-40001 > 1/(3 * 2^40000).
        assert ceil_neg_log2(Fraction(1, 3 << 40000)) == 40002
        assert ceil_neg_log2(Fraction(1, 2 << 40000)) == 40001

    @given(st.integers(1, 4000).flatmap(lambda k: st.integers(1 << (k - 1), (1 << k) - 1)),
           st.integers(1, 4000).flatmap(lambda k: st.integers(1 << (k - 1), (1 << k) - 1)))
    def test_ceil_neg_log2_wide_operands(self, num, den):
        n = ceil_neg_log2(Fraction(num, den))
        assert n >= 0 and num << n >= den
        assert n == 0 or num << (n - 1) < den


class TestMeasure:
    def test_fixed_values(self):
        assert measure_of_lengths([]) == 0
        assert measure_of_lengths([4, 3, 2]) == Fraction(7, 16)
        assert measure_of_lengths([1, 1]) == 1
        assert measure_of_lengths([1, 1, 1]) == Fraction(3, 2)
        assert measure_of_lengths([0, 0]) == 2

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            measure_of_lengths([2, -1])

    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=12))
    def test_matches_fraction_sum(self, lengths):
        expected = sum((Fraction(1, 2**n) for n in lengths), Fraction(0))
        assert measure_of_lengths(lengths) == expected

    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=12),
           st.randoms())
    def test_permutation_invariant(self, lengths, rng):
        shuffled = lengths[:]
        rng.shuffle(shuffled)
        assert measure_of_lengths(lengths) == measure_of_lengths(shuffled)


class TestInterval:
    def test_half_open_membership(self):
        iv = Interval(Fraction(1, 4), Fraction(5, 16))
        assert iv.contains(Fraction(1, 4))
        assert not iv.contains(Fraction(5, 16))
        assert iv.measure == Fraction(1, 16)

    def test_empty_behaviour(self):
        empty = Interval(Fraction(1, 3), Fraction(1, 3))
        full = Interval(Fraction(0), Fraction(1))
        assert empty.is_empty
        assert not empty.contains(Fraction(1, 3))

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1, 2), Fraction(1, 4))

    @pytest.mark.parametrize("lo, hi", [
        ("0.5", 1), (0, "1/2"), (0.25, 0.5), (Fraction(1, 4), 0.5),
        (0.5, Fraction(3, 4)), ("1/4", Fraction(1, 2)), (Fraction(1, 4), "1/2"),
    ])
    def test_refuses_text_and_floats(self, lo, hi):
        with pytest.raises(TypeError):
            Interval(lo, hi)

    def test_endpoint_coercion(self):
        exact = Fraction(1, 3)
        iv = Interval(exact, Dyadic(1, 1))
        assert iv.lo is exact
        assert iv.hi == Fraction(1, 2) and type(iv.hi) is Fraction
        assert Interval(0, 1).measure == 1

    class Third(Fraction):
        pass

    @pytest.mark.parametrize("lo, hi", [
        (0, 1), (True, 3), (Dyadic(1, 2), Dyadic(3, 2)), (Third(1, 3), Third(1, 2)),
        (Fraction(1, 5), Third(1, 2)), (Third(1, 5), Fraction(1, 2)),
        (0, Fraction(1, 2)), (Fraction(1, 5), Dyadic(1, 1)),
    ])
    def test_inexact_endpoint_types_become_exact_fractions(self, lo, hi):
        iv = Interval(lo, hi)
        assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
        assert (iv.lo, iv.hi) == (lo, hi)

    def test_exact_fraction_endpoints_are_kept(self):
        lo, hi = Fraction(1, 3), Fraction(1, 2)
        iv = Interval(lo, hi)
        assert iv.lo is lo and iv.hi is hi

    @pytest.mark.parametrize("lo, hi, message", [
        (Fraction(1, 2), Fraction(1, 4), "interval endpoints out of order: 1/2 > 1/4"),
        (1, 0, "interval endpoints out of order: 1 > 0"),
        (Dyadic(3, 2), Fraction(1, 2), "interval endpoints out of order: 3/4 > 1/2"),
    ])
    def test_out_of_order_message(self, lo, hi, message):
        with pytest.raises(ValueError) as info:
            Interval(lo, hi)
        assert str(info.value) == message


class TestSerialization:
    def test_rational_forms(self):
        assert format_rational(Fraction(7, 16)) == "7/16"
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Dyadic(3, 2)) == "3/4"
        assert parse_rational("3/10") == Fraction(3, 10)
        assert parse_rational("4") == 4

    @pytest.mark.parametrize("d", [
        Dyadic(0), Dyadic(1), Dyadic(5, 3), Dyadic(3, -1), Dyadic(7, -40),
        Dyadic(1, 10_000), Dyadic(12345, 10_001), Dyadic(3, 30_000),
        Dyadic(1, -20_000)])
    def test_dyadic_text_matches_fraction_text(self, d, no_int_digit_limit):
        assert format_rational(d) == format_rational(d.as_fraction())

    @given(dyadics)
    def test_dyadic_text_matches_fraction_text_property(self, d):
        assert format_rational(d) == format_rational(d.as_fraction())

    def test_parse_rational_grammar(self):
        assert parse_rational(" -6/4 ") == Fraction(-3, 2)
        assert parse_rational("+7") == 7
        for text in ("1/0", "1e-9", "0.5", "1/-2", "", "/3", "1/", "1 / 3"):
            with pytest.raises(ValueError):
                parse_rational(text)

    def test_as_fraction_coercions(self):
        assert as_fraction(3) == 3
        assert as_fraction(Dyadic(5, 3)) == Fraction(5, 8)
        assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
        exact = Fraction(2, 7)
        assert as_fraction(exact) is exact

        class Half(Fraction):
            pass
        for value in (True, 3, Half(1, 2)):
            assert type(as_fraction(value)) is Fraction
            assert as_fraction(value) == value

    @pytest.mark.parametrize("value", ["1/2", "0.5", 0.5])
    def test_as_fraction_refuses_text_and_floats(self, value):
        with pytest.raises(TypeError):
            as_fraction(value)


# --- The regex parser and the Fraction-ordered endpoint check that the
# string-method and cross-multiplied versions replaced, kept literally as
# differential references.

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational_regex(text: str) -> Fraction:
    """``exact.parse_rational`` as it was."""
    text = text.strip()
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational 'p/q' or integer: {text!r}")
    p, q = match.groups()
    if q is not None and int(q) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(p), int(q or 1))


def interval_post_init_ordered(self):
    """``Interval.__post_init__`` as it was."""
    object.__setattr__(self, "lo", as_fraction(self.lo))
    object.__setattr__(self, "hi", as_fraction(self.hi))
    if self.lo > self.hi:
        raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")


class OrderedInterval(Interval):
    __post_init__ = interval_post_init_ordered


def outcome(call, *args):
    """A call's result with its exact type, or the exception's type and
    message."""
    try:
        value = call(*args)
    except Exception as exc:          # compared, never swallowed
        return type(exc), str(exc)
    return type(value), value


RATIONAL_LINES = [
    "0", "7", "+7", "-7", "-0", "+0", "007", "-007/0010", "3/10", " -6/4 ",
    "\t12/8\n", "1/1", "0/5", "-0/5", "+3/4", "1/0", "0/0", "-1/00", "1/-2",
    "1/+2", "-1/-2", "1/2/3", "1//2", "/", "/3", "1/", "+", "-", "+-1", "--1",
    "++1", "1 / 3", "1 /3", "1/ 3", "1 2", "1\t2", "1_0", "1_0/3", "1/1_0",
    "1.5", "0.5", "1e-9", "1e3", "0x10", "0b1", "inf", "nan", "\u0661",
    "\u0661/2", "1/\u0662", "\u00b2", "2\u00b2", "\uff11", "1/\uff12",
    "\u0966", "\u00bd", "", " ", "\u3000", "\u30001/2\u3000", "\u00a0-3\u00a0",
    "-\u0661", "1\u0301", "1/2\x00", "\x001/2",
    "1/" + "7" * 19_998, " 1/" + "7" * 19_998 + " ", "7" * 20_000,
    "-" + "9" * 19_999, "1/" + "0" * 19_998, "1/" + "7" * 19_997 + "x",
]


class TestParseRationalDifferential:
    """The regex-free parser accepts the same lines with the same value, and
    refuses the rest with the same exception and message."""

    @pytest.mark.parametrize("text", RATIONAL_LINES)
    def test_fixed_lines(self, text):
        assert outcome(parse_rational, text) == outcome(parse_rational_regex, text)

    @pytest.mark.parametrize("text", [t for t in RATIONAL_LINES if len(t) > 4_000])
    def test_long_lines_without_digit_limit(self, text, no_int_digit_limit):
        assert outcome(parse_rational, text) == outcome(parse_rational_regex, text)

    @settings(max_examples=600)
    @given(st.text(alphabet=st.one_of(
        st.sampled_from("0123456789+-/ _.e\t\n\u0661\u00b2\uff11\u3000"),
        st.characters()), max_size=12))
    def test_arbitrary_text(self, text):
        assert outcome(parse_rational, text) == outcome(parse_rational_regex, text)

    @given(st.sampled_from(["", "+", "-"]), st.sampled_from(["", "0", "00"]),
           st.integers(0, 10**30), st.integers(0, 10**30),
           st.sampled_from(["", " ", "\t"]))
    def test_well_formed_text(self, sign, zeros, p, q, pad):
        for text in (f"{pad}{sign}{zeros}{p}/{zeros}{q}{pad}", f"{sign}{zeros}{p}"):
            assert outcome(parse_rational, text) == outcome(parse_rational_regex, text)


class TestIntervalDifferential:
    """The cross-multiplied endpoint check accepts and refuses exactly the
    endpoints the Fraction comparison did, with the same message."""

    ENDPOINTS = [0, 1, -1, 3, True, Fraction(1, 3), Fraction(-2, 7),
                 Fraction(2, 6), Fraction(10**40 + 1, 10**40), Dyadic(1, 1),
                 Dyadic(0), Dyadic(3, -1), Dyadic(1, 200), "1/2", 0.5, None]

    @pytest.mark.parametrize("lo", ENDPOINTS)
    @pytest.mark.parametrize("hi", ENDPOINTS)
    def test_fixed_endpoints(self, lo, hi):
        def fields(cls):
            iv = cls(lo, hi)
            return type(iv.lo), iv.lo, type(iv.hi), iv.hi
        assert outcome(fields, Interval) == outcome(fields, OrderedInterval)

    @given(st.fractions(), st.fractions())
    def test_random_fractions(self, lo, hi):
        new, old = outcome(Interval, lo, hi), outcome(OrderedInterval, lo, hi)
        if new[0] is Interval:
            assert (new[1].lo, new[1].hi) == (old[1].lo, old[1].hi)
        else:
            assert new == old
