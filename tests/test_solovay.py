"""Interval tests, domination witnesses, and the measure-identity stream."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from omegalib import solovay
from omegalib.codespace import allocate_all
from omegalib.ce_real import RationalSeq
from omegalib.errors import InsufficientMass, OmegalibError
from omegalib.exact import Interval, parse_rational, pow2_neg
from omegalib.machines import MachineTable, compose, omega_approx
from omegalib.solovay import (DominationWitness, build_test,
                              check_domination, extract_witness,
                              interleave_requests, omega_rep_compose)
from omegalib.verify import (check_test_family, random_gamma_lengths,
                             random_table)

A_TERMS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
B_TERMS = (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8))


def seq(terms):
    return RationalSeq(terms)


def _iv(lo, hi):
    return Interval(parse_rational(lo), parse_rational(hi))


@st.composite
def increasing_terms(draw, max_len=10):
    increments = draw(st.lists(st.integers(1, 20), min_size=1,
                               max_size=max_len))
    slack = draw(st.integers(1, 20))
    den = sum(increments) + slack
    total = 0
    terms = []
    for step in increments:
        total += step
        terms.append(Fraction(total, den))
    return tuple(terms)


class TestBuildTest:
    def test_reference_level_one(self):
        stage = build_test(seq(A_TERMS), seq(B_TERMS), level=1, depth=3)
        assert stage.intervals == (
            _iv("1/4", "5/16"), _iv("1/2", "9/16"), _iv("3/4", "13/16"))
        assert stage.total_measure() == Fraction(3, 16)

    def test_stage_skipped_when_point_already_covered(self):
        a = seq((Fraction(1, 4), Fraction(9, 32), Fraction(1, 2)))
        stage = build_test(a, seq(B_TERMS), level=1, depth=3)
        assert stage.intervals[0] == _iv("1/4", "5/16")
        assert stage.intervals[1] is None
        # width now spans b_3 - b_1 because stage 2 never opened
        assert stage.intervals[2] == _iv("1/2", "5/8")
        assert stage.total_measure() == Fraction(3, 16)

    def test_depth_zero(self):
        stage = build_test(seq(A_TERMS), seq(B_TERMS), level=2, depth=0)
        assert stage.intervals == ()
        assert stage.total_measure() == 0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            build_test(seq(A_TERMS), seq(B_TERMS), -1, 2)
        with pytest.raises(ValueError):
            build_test(seq(A_TERMS), seq(B_TERMS), 1, -2)

    @given(a=increasing_terms(), b=increasing_terms(), level=st.integers(0, 5))
    def test_opened_intervals_are_disjoint_and_within_budget(self, a, b, level):
        depth = min(len(a), len(b))
        stage = build_test(seq(a), seq(b), level, depth)
        # Sorted by left end, the opened intervals are pairwise disjoint
        # exactly when each ends at or before the next one starts.
        opened = sorted((iv for _, iv in stage.non_empty()), key=lambda iv: iv.lo)
        for left, right in zip(opened, opened[1:]):
            assert left.hi <= right.lo
        assert stage.total_measure() <= pow2_neg(level).as_fraction()

    @given(a=increasing_terms(), b=increasing_terms(), level=st.integers(0, 5))
    def test_total_measure_telescopes(self, a, b, level):
        depth = min(len(a), len(b))
        stage = build_test(seq(a), seq(b), level, depth)
        indices = [i for i, _ in stage.non_empty()]
        expected = Fraction(0)
        if indices:
            expected = pow2_neg(level).as_fraction() * b[indices[-1] - 1]
        assert stage.total_measure() == expected


class TestWitness:
    def test_reference_witness(self):
        witness = extract_witness(seq(A_TERMS), seq(B_TERMS),
                                  exponent=1, depth=3)
        assert witness.stage_indices == (1, 2, 3)
        a_sub, b_sub = witness.subsequences(A_TERMS, B_TERMS)
        assert a_sub == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        assert b_sub == [Fraction(0), Fraction(1, 8), Fraction(1, 4)]
        assert check_domination(a_sub, b_sub, 2)

    def test_witness_skips_covered_stage(self):
        a = (Fraction(1, 4), Fraction(9, 32), Fraction(1, 2))
        witness = extract_witness(seq(a), seq(B_TERMS), exponent=1, depth=3)
        assert witness.stage_indices == (1, 3)
        a_sub, b_sub = witness.subsequences(a, B_TERMS)
        assert a_sub == [Fraction(1, 4), Fraction(1, 2)]
        assert b_sub == [Fraction(0), Fraction(1, 8)]

    def test_empty_witness_has_empty_subsequences(self):
        assert DominationWitness((), 2).subsequences([], []) == ([], [])
        assert DominationWitness((), 0).subsequences(A_TERMS, B_TERMS) == ([], [])

    def test_empty_test_family_passes(self):
        assert check_test_family([], [], [1]) == []

    @given(a=increasing_terms(), b=increasing_terms(),
           exponent=st.integers(0, 4))
    def test_witness_always_dominates(self, a, b, exponent):
        depth = min(len(a), len(b))
        witness = extract_witness(seq(a), seq(b), exponent, depth)
        a_sub, b_sub = witness.subsequences(a, b)
        assert check_domination(a_sub, b_sub, 2 ** exponent)


class TestCheckDomination:
    def test_accepts_and_rejects(self):
        a = [Fraction(1, 4), Fraction(1, 2)]
        b = [Fraction(0), Fraction(1, 8)]
        assert check_domination(a, b, 2)
        assert check_domination(a, b, 1)
        assert not check_domination(a, b, 0)

    def test_single_term_prefix_is_vacuous(self):
        assert check_domination([Fraction(1, 2)], [Fraction(1, 3)], 0)

    def test_length_mismatch(self):
        with pytest.raises(OmegalibError, match="^prefix lengths differ: 1 vs 0$"):
            check_domination([Fraction(1, 2)], [], 1)

    def test_rejects_negative_constant(self):
        with pytest.raises(ValueError):
            check_domination([], [], -1)


class TestRepresentationStream:
    V = MachineTable((("0", "1"), ("10", "0")))

    def test_reference_interleaving(self):
        requests = interleave_requests(self.V, c=1, gamma_lengths=[2], k=2)
        assert requests == [(2, "0"), (2, "0"), (3, "10")]

    def test_rounds_stop_consuming_each_stream_independently(self):
        requests = interleave_requests(self.V, c=0, gamma_lengths=[2, 3, 4],
                                       k=4)
        assert requests == [(1, "0"), (2, "0"), (2, "10"), (3, "0"), (4, "0")]

    def test_zero_rounds(self):
        assert interleave_requests(self.V, 1, [2], 0) == []

    def test_needs_nonempty_machine(self):
        with pytest.raises(ValueError):
            interleave_requests(MachineTable(()), 1, [2], 1)

    def test_reference_composition(self):
        composed, mass = omega_rep_compose(self.V, c=1, gamma_lengths=[2], k=2)
        assert composed.entries == (("00", "1"), ("01", "1"), ("100", "0"))
        assert mass == Fraction(5, 8)

    def test_measure_identity(self):
        _, mass = omega_rep_compose(self.V, c=1, gamma_lengths=[2], k=2)
        halting = omega_approx(self.V, 2).as_fraction()
        assert mass == Fraction(1, 2) * halting + Fraction(1, 4)


def build_test_any_scan(a, b, level, depth):
    """``build_test`` as first written: scan every opened interval for ``a_i``."""
    a_terms = (Fraction(0),) + a.prefix(depth)
    b_terms = (Fraction(0),) + b.prefix(depth)
    shrink = pow2_neg(level).as_fraction()
    intervals = []
    opened = []
    last = 0
    for i in range(1, depth + 1):
        if any(iv.contains(a_terms[i]) for iv in opened):
            intervals.append(None)
            continue
        iv = Interval(a_terms[i], a_terms[i] + shrink * (b_terms[i] - b_terms[last]))
        intervals.append(iv)
        opened.append(iv)
        last = i
    return tuple(intervals)


def build_test_fraction(a, b, level, depth):
    """``build_test`` as it was before integer pairs: a Fraction ``reach``."""
    if level < 0 or depth < 0:
        raise ValueError("level and depth are natural numbers")
    a_terms = (Fraction(0),) + a.prefix(depth)
    b_terms = (Fraction(0),) + b.prefix(depth)
    shrink = pow2_neg(level).as_fraction()
    intervals = []
    # Every opened interval starts at an earlier, smaller term of ``a``, so
    # ``a_i`` lies in one exactly when it is below the largest right end.
    reach = Fraction(0)
    last = 0
    for i in range(1, depth + 1):
        if a_terms[i] < reach:
            intervals.append(None)
            continue
        iv = Interval(a_terms[i], a_terms[i] + shrink * (b_terms[i] - b_terms[last]))
        intervals.append(iv)
        reach = iv.hi  # iv.hi > a_i >= reach: the newest end is the largest
        last = i
    return solovay.TestStage(level=level, intervals=tuple(intervals))


class TestBuildTestDifferential:
    @pytest.mark.parametrize("step_ceiling", [3, 1000])
    def test_matches_any_scan(self, increasing_rationals, step_ceiling):
        rng = random.Random(step_ceiling)
        for _ in range(400):
            depth = rng.randint(1, 60)
            a = increasing_rationals(rng, depth, step_ceiling)
            b = increasing_rationals(rng, depth, step_ceiling)
            for level in range(6):
                stage = build_test(seq(a), seq(b), level, depth)
                assert stage == build_test_fraction(seq(a), seq(b), level, depth)
                assert stage.intervals == build_test_any_scan(
                    seq(a), seq(b), level, depth), (a, b, level)

    def test_matches_fraction_on_wide_denominators(self, wide_increasing_rationals):
        rng = random.Random(200)
        for _ in range(60):
            depth = rng.randint(1, 30)
            a = wide_increasing_rationals(rng, depth)
            b = wide_increasing_rationals(rng, depth)
            for level in (0, 1, 7, 300):
                stage = build_test(seq(a), seq(b), level, depth)
                assert stage == build_test_fraction(seq(a), seq(b), level, depth)

    @pytest.mark.parametrize("a, b", [
        ([Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 8), Fraction(1, 4)]),
        ([Fraction(1, 4), Fraction(1, 2)], [Fraction(1, 8), Fraction(1, 8)]),
        ([Fraction(1, 4), Fraction(1)], [Fraction(1, 8), Fraction(1, 4)]),
        ([Fraction(1, 4), Fraction(1, 2)], [Fraction(0), Fraction(1, 4)]),
        ([Fraction(1, 4)], [Fraction(1, 8), Fraction(1, 4)]),
    ])
    def test_invalid_sequences_fail_alike(self, a, b, outcome):
        for level, depth in ((1, 2), (-1, 2), (1, -1)):
            new = outcome(build_test, seq(a), seq(b), level, depth)
            assert new == outcome(build_test_fraction, seq(a), seq(b), level, depth)
            assert isinstance(new, tuple), new


def omega_rep_compose_via_inner(machine, c, gamma_lengths, k):
    """``omega_rep_compose`` as it was, through a validated inner table."""
    requests = interleave_requests(machine, c, gamma_lengths, k)
    inner = MachineTable(tuple(allocate_all(requests)))
    composed = compose(machine, inner)
    return composed, composed.domain_measure()


class TestRepComposeDifferential:
    def test_matches_inner_table(self, outcome):
        rng = random.Random(15)
        kinds = set()
        for _ in range(300):
            machine = random_table(rng, 25, 12, max_out=6, nonempty=True)
            c = rng.randint(0, 4)
            budget = 1 - Fraction(1, 1 << c) * machine.domain_measure().as_fraction()
            gamma = random_gamma_lengths(rng, budget, 10)
            if rng.random() < 0.2:            # overfull: refused alike
                gamma = gamma + [1, 1]
            for k in (0, 1, len(machine), max(len(machine), len(gamma)) + 1):
                args = (machine, c, gamma, k)
                new = outcome(omega_rep_compose, *args)
                assert new == outcome(omega_rep_compose_via_inner, *args), args
                kinds.add(new[0] if isinstance(new[0], type) else MachineTable)
        assert kinds == {MachineTable, InsufficientMass}

    @pytest.mark.parametrize("args", [(MachineTable(()), 1, [2], 1),
                                      (TestRepresentationStream.V, -1, [2], 1),
                                      (TestRepresentationStream.V, 1, [2], -1)])
    def test_refusals_match(self, args, outcome):
        new = outcome(omega_rep_compose, *args)
        assert new == outcome(omega_rep_compose_via_inner, *args)
        assert new[0] is ValueError
