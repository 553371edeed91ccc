"""Imperative allocator: splitting, batch allocation, invariant reports."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given, strategies as st

from omegalib import codespace
from omegalib.bits import iter_length_lex, prefix_free, validate_bits
from omegalib.codespace import (AllocatorState, allocate, allocate_all,
                                check_invariants, extend_prefix,
                                new_allocator, parse_request_lines)
from omegalib.errors import InsufficientMass, TargetTooShort
from omegalib.exact import Dyadic, measure_of_lengths, pow2_neg
from omegalib.verify import enumerate_kraft_multisets, random_kraft_lengths


class TestExtendPrefix:
    def test_reference_split(self):
        assert extend_prefix("001", 5) == ["00100", "00101", "0011"]

    def test_zero_depth(self):
        assert extend_prefix("001", 3) == ["001"]

    def test_from_empty_word(self):
        assert extend_prefix("", 2) == ["00", "01", "1"]

    def test_target_too_short(self):
        with pytest.raises(TargetTooShort):
            extend_prefix("001", 2)

    def test_non_str_stem_refused(self):
        # Refused by the word check, before the split touches the stem.
        for stem in (("0", "1"), ["0"], b"01"):
            with pytest.raises(TypeError, match="a binary word is a str"):
                extend_prefix(stem, 4)

    @given(st.integers(min_value=0, max_value=10))
    def test_split_is_a_partition(self, depth):
        words = extend_prefix("01", 2 + depth)
        assert prefix_free(words)
        assert measure_of_lengths(map(len, words)) == measure_of_lengths([2])


class TestAllocate:
    def test_first_allocation(self):
        state = new_allocator()
        assert state.free == [""]
        assert allocate(state, 2) == "00"
        assert state.free == ["1", "01"]
        assert state.mass_allocated == Fraction(1, 4)

    def test_second_allocation(self):
        state = new_allocator()
        allocate(state, 2)
        assert allocate(state, 3) == "010"
        assert state.free == ["1", "011"]

    def test_zero_length_takes_everything(self):
        state = new_allocator()
        assert allocate(state, 0) == ""
        assert state.free == []
        assert state.mass_allocated == 1
        with pytest.raises(InsufficientMass):
            allocate(state, 5)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            allocate(new_allocator(), -1)

    @pytest.mark.parametrize("n, error", [
        (-1, ValueError), (1, InsufficientMass), (2.5, TypeError),
    ])
    def test_raising_call_leaves_state_untouched(self, n, error):
        state = new_allocator()
        allocate(state, 1)
        allocate(state, 3)
        before = (list(state.free), list(state.allocated), state.mass_allocated)
        assert before == (["11", "101"], ["0", "100"], Dyadic(5, 3))
        with pytest.raises(error):
            allocate(state, n)
        assert (state.free, state.allocated, state.mass_allocated) == before

    def test_fresh_states_share_no_lists(self):
        first, second = AllocatorState(), AllocatorState()
        assert first.free is not second.free
        assert first.allocated is not second.allocated
        allocate(first, 1)
        assert (second.free, second.allocated) == ([""], [])
        assert new_allocator().free == [""]


class TestLedger:
    @pytest.mark.parametrize("lengths, canonical", [
        # Each run ends with a request exactly as long as the longest one
        # before it, the write that leaves the raw ledger even.
        ([1, 1], (1, 0)), ([3, 3], (1, 2)), ([2, 5, 5], (5, 4)),
    ])
    def test_read_back_is_canonical(self, lengths, canonical):
        state = new_allocator()
        for n in lengths:
            allocate(state, n)
        mass = state.mass_allocated
        assert (mass.mantissa, mass.exponent) == canonical
        assert mass == measure_of_lengths(lengths)

    def test_hand_built_ledger_round_trips(self):
        state = AllocatorState(free=[""], allocated=[], mass_allocated=Dyadic(3, -1))
        mass = state.mass_allocated
        assert (mass.mantissa, mass.exponent) == (3, -1)
        report = check_invariants(state)
        assert report.mass_matches_ledger is False
        assert report.failures() == ["mass_matches_ledger"]
        state.mass_allocated = Dyadic(0)
        assert check_invariants(state).ok


class TestAllocateAll:
    def test_reference_run(self):
        table = allocate_all([(2, "0"), (3, "1"), (4, "")])
        assert [w for w, _ in table] == ["00", "010", "0110"]
        assert [y for _, y in table] == ["0", "1", ""]

    def test_empty_batch(self):
        assert allocate_all([]) == []

    def test_mass_exhaustion_reports_index(self):
        with pytest.raises(InsufficientMass) as info:
            allocate_all([(1, ""), (1, ""), (1, "")])
        assert info.value.index == 2
        assert info.value.length == 1

    @pytest.mark.parametrize("index", [None, 0, 2])
    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda e: pickle.loads(pickle.dumps(e))])
    def test_refusal_survives_copy_and_pickle(self, clone, index):
        original = InsufficientMass(5, index=index)
        where = f" (request index {index})" if index is not None else ""
        message = f"no free prefix can honour a length-5 request{where}"
        twin = clone(original)
        assert type(twin) is InsufficientMass
        assert (twin.length, twin.index) == (5, index)
        assert str(twin) == str(original) == message
        assert twin.args == original.args == (5, index)

    def test_boundary_full_mass_succeeds(self):
        table = allocate_all([(1, ""), (2, ""), (2, "")])
        assert measure_of_lengths(len(w) for w, _ in table) == 1

    def test_prefix_stability_under_extension(self):
        first = allocate_all([(3, ""), (1, ""), (4, "")])
        extended = allocate_all([(3, ""), (1, ""), (4, ""), (4, ""), (5, "")])
        assert extended[:3] == first


class TestCheckInvariants:
    def test_fresh_state_passes(self):
        report = check_invariants(new_allocator())
        assert report.ok
        assert report.remaining_requests_fit is None

    def test_remaining_requests_checked_when_supplied(self):
        state = new_allocator()
        allocate(state, 2)
        fits = check_invariants(state, remaining_lengths=[1, 2])
        assert fits.ok and fits.remaining_requests_fit is True
        too_much = check_invariants(state, remaining_lengths=[1, 1])
        assert too_much.remaining_requests_fit is False
        assert not too_much.ok
        assert too_much.failures() == ["remaining_requests_fit"]

    def test_hand_built_overlapping_pool_fails(self):
        state = AllocatorState(free=["0", "01"], allocated=[],
                               mass_allocated=Dyadic(0))
        report = check_invariants(state)
        assert not report.union_prefix_free
        assert not report.ok

    def test_hand_built_unsorted_pool_fails(self):
        # Prefix-free with measure one, but not strictly increasing in length:
        # not a valid allocate input, and the report says so.
        state = AllocatorState(free=["1", "01", "00"], allocated=[],
                               mass_allocated=Dyadic(0))
        report = check_invariants(state)
        assert report.failures() == ["free_lengths_distinct"]

    def test_hand_built_longest_first_pool_fails(self):
        # The state two allocations leave, with the pool in the longest-first
        # order the allocator used to keep.
        state = AllocatorState(free=["011", "1"], allocated=["00", "010"],
                               mass_allocated=Dyadic(3, 3))
        report = check_invariants(state)
        assert report.failures() == ["free_lengths_distinct"]
        state.free.reverse()
        assert check_invariants(state).ok

    def test_wrong_ledger_detected(self):
        state = new_allocator()
        allocate(state, 3)
        state.mass_allocated = Dyadic(1, 2)
        assert not check_invariants(state).mass_matches_ledger

    def test_invariants_hold_along_a_run(self):
        lengths = [3, 1, 4, 4, 5, 6, 6, 3]
        state = new_allocator()
        for i, n in enumerate(lengths):
            allocate(state, n)
            report = check_invariants(state, remaining_lengths=lengths[i + 1:])
            assert report.ok, report.failures()


class TestRequestParsing:
    def test_round_trip(self):
        lines = ["2\t01", "3\t-", "", "0\t1"]
        assert parse_request_lines(lines) == [(2, "01"), (3, ""), (0, "1")]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_request_lines(["2 01"])
        with pytest.raises(ValueError):
            parse_request_lines(["-1\t0"])
        with pytest.raises(ValueError):
            parse_request_lines(["2\t012"])

    @pytest.mark.parametrize("length", ["1_2", "+3", "\u0661\u0662", "\u00b2", "-0"])
    def test_length_must_be_ascii_digits(self, length):
        with pytest.raises(ValueError, match="^line 2: length "):
            parse_request_lines(["2\t-", f"{length}\t-"])

    def test_padded_length_parses(self):
        assert parse_request_lines([" 12 \t-", "007\t1"]) == [(12, ""), (7, "1")]


# ---------------------------------------------------------------------------
# Differential check against the linear-scan allocator that the binary-search
# version replaced.  The two functions below are kept literally as they were.
# ---------------------------------------------------------------------------

def reference_extend_prefix(stem: str, target: int) -> list[str]:
    validate_bits(stem)
    depth = target - len(stem)
    if depth < 0:
        raise TargetTooShort(
            f"target length {target} is below the stem length {len(stem)}")
    return [stem + "0" * depth] + [stem + "0" * j + "1"
                                   for j in range(depth - 1, -1, -1)]


def reference_allocate(state: AllocatorState, n: int) -> str:
    if n < 0:
        raise ValueError("codeword lengths are natural numbers")
    pick = next((i for i, w in enumerate(state.free) if len(w) <= n), None)
    if pick is None:
        raise InsufficientMass(n)
    stem = state.free.pop(pick)
    words = reference_extend_prefix(stem, n)
    state.free[pick:pick] = words[1:]
    state.allocated.append(words[0])
    state.mass_allocated = state.mass_allocated + pow2_neg(n)
    return words[0]


def _serve(alloc, state, n):
    try:
        return alloc(state, n)
    except InsufficientMass:
        return None


def assert_same_run(lengths) -> int:
    """Serve ``lengths`` through both allocators, comparing after every step.

    Returns the number of refusals, so callers can tell the stream reached
    Kraft exhaustion.
    """
    old, new = new_allocator(), new_allocator()
    refused = 0
    for i, n in enumerate(lengths):
        expected = _serve(reference_allocate, old, n)
        assert _serve(allocate, new, n) == expected, (i, n)
        # The reference keeps the pool longest first, ``allocate`` shortest first.
        assert new.free == old.free[::-1], (i, n)
        # ``allocated`` only grows, so its length and last word pin it down.
        assert len(new.allocated) == len(old.allocated), (i, n)
        assert new.allocated[-1:] == old.allocated[-1:], (i, n)
        assert new.mass_allocated == old.mass_allocated, (i, n)
        refused += expected is None
    assert new.allocated == old.allocated
    return refused


def _orderings(multiset, rng):
    shuffled = list(multiset)
    rng.shuffle(shuffled)
    return [list(multiset), list(multiset[::-1]), shuffled]


class TestDifferentialAgainstLinearScan:
    def test_exhaustive_multisets_in_three_orders(self):
        rng = random.Random(2)
        for multiset in enumerate_kraft_multisets(6):
            for order in _orderings(multiset, rng):
                # A trailing 0 and 6 probe the refusal path and the last gap.
                assert_same_run(order + [0, 6])

    def test_seeded_random_kraft_sequences(self):
        rng = random.Random(3)
        for _ in range(2_000):
            assert_same_run(random_kraft_lengths(rng, 50, 16))

    def test_mixed_stream_past_exhaustion(self):
        rng = random.Random(5)
        lengths = [rng.randint(200, 400) if i % 50 == 49 else rng.randint(12, 28)
                   for i in range(40_000)]
        assert assert_same_run(lengths) > 0

    @pytest.mark.parametrize("stem, target", [
        ("", 0), ("", 1), ("", 7), ("1", 1), ("0110", 4), ("0110", 9),
        ("1" * 40, 41), ("01", 300),
    ])
    def test_extend_prefix_matches_reference(self, stem, target):
        assert extend_prefix(stem, target) == reference_extend_prefix(stem, target)

    def test_extend_prefix_matches_reference_on_short_stems(self):
        stems = list(takewhile(lambda w: len(w) <= 6, iter_length_lex()))
        assert len(stems) == 127
        for stem in stems:
            for target in range(len(stem), len(stem) + 7):
                assert extend_prefix(stem, target) == \
                    reference_extend_prefix(stem, target), (stem, target)

    def test_refusals_come_before_any_state(self, monkeypatch):
        def no_state(*args, **kwargs):
            raise AssertionError("extend_prefix built a state")

        monkeypatch.setattr(codespace, "AllocatorState", no_state)
        with pytest.raises(TargetTooShort):
            extend_prefix("001", 2)
        with pytest.raises(TypeError, match="a binary word is a str"):
            extend_prefix(("0", "1"), 4)
        with pytest.raises(AssertionError, match="built a state"):
            extend_prefix("001", 5)

    @pytest.mark.parametrize("stem, target", [("", -1), ("01", 1), ("0110", 0)])
    def test_target_too_short_on_both(self, stem, target):
        with pytest.raises(TargetTooShort):
            reference_extend_prefix(stem, target)
        with pytest.raises(TargetTooShort):
            extend_prefix(stem, target)

    @pytest.mark.parametrize("stem", ["2", "01a", " 0", "0 1"])
    def test_non_binary_stem_rejected_by_both(self, stem):
        with pytest.raises(ValueError):
            reference_extend_prefix(stem, 6)
        with pytest.raises(ValueError):
            extend_prefix(stem, 6)
