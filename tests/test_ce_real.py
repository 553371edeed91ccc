"""Dyadic staircases: decomposition identities and machine conversion."""

from fractions import Fraction

import pytest

from omegalib.bits import prefix_free
from omegalib.ce_real import (DyadicDecomposition, RationalSeq,
                              dyadic_decompose, to_machine)
from omegalib.errors import InvalidSequence, SequenceExhausted
from omegalib.exact import Dyadic, parse_rational


class TestRationalSeq:
    def test_prefix_caches_and_extends(self):
        seq = RationalSeq(Fraction(1, n) for n in (10, 5, 2))
        assert seq.prefix(1) == (Fraction(1, 10),)
        assert seq.prefix(3) == (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2))

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidSequence):
            RationalSeq([Fraction(1, 2), Fraction(1, 2)]).prefix(2)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidSequence):
            RationalSeq([Fraction(0)]).prefix(1)
        with pytest.raises(InvalidSequence):
            RationalSeq([Fraction(1, 2), Fraction(1)]).prefix(2)

    def test_exhaustion(self):
        seq = RationalSeq([Fraction(1, 2)])
        with pytest.raises(SequenceExhausted):
            seq.prefix(2)

    def test_parse_lines(self):
        seq = RationalSeq(parse_rational(line) for line in ["1/3", " 1/2 "])
        assert seq.prefix(2) == (Fraction(1, 3), Fraction(1, 2))

    def test_text_terms_refused(self):
        with pytest.raises(TypeError):
            RationalSeq(["1e-9", "1/2"]).prefix(1)


class TestDecompose:
    def test_single_step(self):
        d = dyadic_decompose(RationalSeq([Fraction(1, 2)]), 1)
        assert d.lengths == (1,)
        assert d.partials == (Dyadic(1, 1),)

    def test_dyadic_terms_are_hit_exactly(self):
        d = dyadic_decompose(
            RationalSeq([Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]), 3)
        assert d.lengths == (1, 2, 3)
        assert [p.as_fraction() for p in d.partials] == [
            Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]

    def test_non_dyadic_terms_sandwiched(self):
        d = dyadic_decompose(RationalSeq([Fraction(3, 10), Fraction(1, 2)]), 2)
        assert d.lengths == (2, 2)
        assert [p.as_fraction() for p in d.partials] == [
            Fraction(1, 4), Fraction(1, 2)]

    def test_zero_prefix(self):
        d = dyadic_decompose(RationalSeq([Fraction(1, 2)]), 0)
        assert d.lengths == () and d.partials == ()

    def test_sandwich_holds_on_awkward_sequence(self):
        terms = [Fraction(1, 7), Fraction(22, 70), Fraction(23, 70),
                 Fraction(333, 1000), Fraction(9, 10)]
        d = dyadic_decompose(RationalSeq(terms), 5)
        d.verify(terms)  # raises on any broken identity
        prev = Fraction(0)
        for a, r in zip(terms, d.partials):
            assert (a + prev) / 2 <= r.as_fraction() <= a
            prev = r.as_fraction()

    def test_verify_catches_corruption(self):
        d = dyadic_decompose(RationalSeq([Fraction(1, 2), Fraction(2, 3)]), 2)
        broken = DyadicDecomposition(d.lengths, (d.partials[0], Dyadic(1, 1)))
        with pytest.raises(ValueError):
            broken.verify([Fraction(1, 2), Fraction(2, 3)])


class TestToMachine:
    def test_measure_equals_final_partial(self):
        table = to_machine(RationalSeq([Fraction(1, 2), Fraction(3, 4)]), 2)
        assert table.domain == ("0", "10")
        assert [y for _, y in table.entries] == ["", ""]
        assert table.domain_measure() == Fraction(3, 4)

    def test_equal_step_lengths(self):
        table = to_machine(RationalSeq([Fraction(3, 10), Fraction(1, 2)]), 2)
        assert table.domain == ("00", "01")
        assert table.domain_measure() == Fraction(1, 2)

    def test_empty_prefix(self):
        table = to_machine(RationalSeq([Fraction(1, 2)]), 0)
        assert table.entries == ()

    def test_domain_always_prefix_free(self):
        terms = [Fraction(i, 101) for i in (3, 10, 31, 41, 59, 97)]
        table = to_machine(RationalSeq(terms), len(terms))
        assert prefix_free(table.domain)
