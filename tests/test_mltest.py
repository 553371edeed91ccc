"""Levelled prefix sets: compressibility stages and compression requests."""

import random

import pytest
from hypothesis import assume, given, strategies as st

from omegalib.codespace import allocate_all
from omegalib.errors import (MeasureViolation, StageOutOfRange,
                             UnderlongString)
from omegalib.exact import Dyadic, measure_of_lengths, pow2_neg
from omegalib.machines import MachineTable, complexity
from omegalib.mltest import (PrefixSetStage, antichain_measure,
                             complexity_test_stage, compression_requests,
                             stage_membership)
from omegalib.verify import random_table

words = st.text(alphabet="01", max_size=6)


class TestPrefixSetStage:
    def test_canonical_order_and_dedup(self):
        stage = PrefixSetStage(2, ("111", "0", "10", "0"))
        assert stage.words == ("0", "10", "111")

    def test_measure(self):
        stage = PrefixSetStage(1, ("00", "01"))
        assert stage.measure() == Dyadic(1, 1)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            PrefixSetStage(-1, ())

    def test_validate_accepts_tight_budget(self):
        PrefixSetStage(1, ("00", "01")).validate()

    def test_validate_rejects_overlap(self):
        with pytest.raises(ValueError):
            PrefixSetStage(3, ("0", "01")).validate()

    def test_validate_rejects_excess_measure(self):
        with pytest.raises(MeasureViolation):
            PrefixSetStage(2, ("00", "01")).validate()


class TestAntichainMeasure:
    def test_nested_words_collapse(self):
        assert antichain_measure(["0", "01", "011"]) == Dyadic(1, 1)

    def test_disjoint_words_add(self):
        assert antichain_measure(["00", "01", "1"]) == 1

    def test_empty(self):
        assert antichain_measure([]) == 0

    @given(st.lists(words))
    def test_never_exceeds_plain_sum(self, ws):
        total = measure_of_lengths(len(w) for w in ws)
        assert antichain_measure(ws) <= min(total.as_fraction(), 1)


class TestComplexityTestStage:
    def test_reference_single_entry(self):
        u = MachineTable((("0", "1111"),))
        assert complexity_test_stage(u, margin=1, k=1) == {"1111"}
        assert complexity_test_stage(u, margin=3, k=1) == set()

    def test_stage_zero_is_empty(self):
        u = MachineTable((("0", "1111"),))
        assert complexity_test_stage(u, margin=0, k=0) == set()

    def test_shorter_program_later_changes_stage(self):
        u = MachineTable((("000", "1111"), ("0", "1111")))
        assert complexity_test_stage(u, margin=2, k=1) == set()
        assert complexity_test_stage(u, margin=2, k=2) == {"1111"}

    def test_stage_out_of_range(self):
        u = MachineTable((("0", "1111"),))
        with pytest.raises(StageOutOfRange):
            complexity_test_stage(u, margin=1, k=2)

    @given(lengths=st.lists(st.integers(1, 8), max_size=8),
           margin=st.integers(0, 5), data=st.data())
    def test_pruned_measure_within_budget(self, lengths, margin, data):
        assume(measure_of_lengths(lengths) <= 1)
        programs = [w for w, _ in allocate_all((n, "") for n in lengths)]
        outputs = data.draw(st.lists(words, min_size=len(programs),
                                     max_size=len(programs)))
        table = MachineTable(tuple(zip(programs, outputs)))
        k = data.draw(st.integers(0, len(table)))
        hit = complexity_test_stage(table, margin, k)
        assert antichain_measure(hit) <= pow2_neg(margin)


class TestCompressionRequests:
    def test_reference_stage(self):
        stage = PrefixSetStage(4, ("11111",))
        assert compression_requests([stage]) == [(3, "11111")]

    def test_two_stages_keep_order(self):
        first = PrefixSetStage(4, ("10111", "00111"))
        second = PrefixSetStage(9, ("0001110001", "1110001110"))
        assert compression_requests([first, second]) == [
            (3, "00111"), (3, "10111"), (7, "0001110001"),
            (7, "1110001110")]

    def test_requests_allocate_cleanly(self):
        stages = [PrefixSetStage(4, ("0011",)),
                  PrefixSetStage(9, ("000111000",))]
        table = allocate_all(compression_requests(stages))
        assert [y for _, y in table] == ["0011", "000111000"]
        assert all(len(x) == len(y) - r for (x, y), r in
                   zip(table, (2, 3)))

    def test_rejects_non_square_level(self):
        with pytest.raises(ValueError):
            compression_requests([PrefixSetStage(5, ("11111",))])

    def test_rejects_root_below_two(self):
        with pytest.raises(ValueError):
            compression_requests([PrefixSetStage(1, ("11111",))])

    def test_rejects_non_increasing_roots(self):
        stages = [PrefixSetStage(4, ("0000",)), PrefixSetStage(4, ("1111",))]
        with pytest.raises(ValueError):
            compression_requests(stages)

    def test_underlong_word_is_caught_before_measure(self):
        # measure of {"1"} is 1/2, far over the 1/16 budget, but the word is
        # too short to shorten and that complaint comes first
        stage = PrefixSetStage(4, ("1",))
        with pytest.raises(UnderlongString):
            compression_requests([stage])

    def test_overfull_stage_rejected(self):
        stage = PrefixSetStage(4, ("00", "01", "10", "11"))
        with pytest.raises(MeasureViolation):
            compression_requests([stage])

    def test_empty_family(self):
        assert compression_requests([]) == []


class TestStageMembership:
    def test_prefix_hit(self):
        stage = PrefixSetStage(2, ("01",))
        assert stage_membership("0110", stage)
        assert stage_membership("01", stage)
        assert not stage_membership("0", stage)
        assert not stage_membership("0010", stage)

    def test_empty_word_covers_everything(self):
        stage = PrefixSetStage(0, ("",))
        assert stage_membership("", stage)
        assert stage_membership("1010", stage)

    @given(alpha=words, extension=words)
    def test_membership_monotone_under_extension(self, alpha, extension):
        stage = PrefixSetStage(2, ("01", "001", "111"))
        if stage_membership(alpha, stage):
            assert stage_membership(alpha + extension, stage)


def complexity_test_stage_per_output(table, margin, k):
    """``complexity_test_stage`` as first written: one ``complexity`` per output."""
    if not 0 <= k <= len(table):
        raise StageOutOfRange(f"stage {k} outside 0..{len(table)}")
    outputs = {y for _, y in table.entries[:k]}
    qualifying = set()
    for y in outputs:
        h = complexity(table, y, k)
        if h is not None and h < len(y) - margin:
            qualifying.add(y)
    return qualifying


class TestComplexityTestStageDifferential:
    @pytest.mark.parametrize("max_out", [2, 6, 12])
    def test_matches_per_output(self, max_out):
        rng = random.Random(max_out)
        for _ in range(600):
            table = random_table(rng, 30, 10, max_out=max_out)
            for margin in range(6):
                for k in range(len(table) + 1):
                    assert complexity_test_stage(table, margin, k) == \
                        complexity_test_stage_per_output(table, margin, k)
