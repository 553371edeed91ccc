"""Recursive reference allocator and its predicates."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from omegalib.bits import prefix_free
from omegalib.codespace import allocate_all
from omegalib.exact import measure_of_lengths
from omegalib.kc_oracle import (extend_ref, extends_ref, incomparable_ref,
                                kc_ref, kcloop_ref, kcstep_ref,
                                lengths_match_ref, prefixes_ref,
                                prefixfree_ref, strictlysorted_ref)
from omegalib.verify import random_kraft_lengths

length_lists = st.lists(st.integers(min_value=0, max_value=8), max_size=10)


class TestGoldenValues:
    def test_extend_depths(self):
        assert extend_ref("001", 0) == ["001"]
        assert extend_ref("001", 2) == ["00100", "00101", "0011"]

    def test_kcstep_fresh_pool(self):
        assert kcstep_ref([], [""], 2) == (["00"], ["01", "1"])

    def test_kcstep_empty_pool_is_identity(self):
        assert kcstep_ref(["00"], [], 5) == (["00"], [])

    def test_kcstep_mid_run(self):
        assert kcstep_ref(["00"], ["01", "1"], 3) == (["010", "00"], ["011", "1"])

    def test_kcstep_skips_words_too_long(self):
        allocated, free = kcstep_ref([], ["111", "0"], 1)
        assert (allocated, free) == (["0"], ["111"])

    def test_kcloop(self):
        assert kcloop_ref([3, 2], ([], [""])) == (["010", "00"], ["011", "1"])

    def test_kc(self):
        assert kc_ref([4, 3, 2]) == ["0110", "010", "00"]
        assert kc_ref([]) == []

    def test_kc_skips_unservable_requests(self):
        # Mass runs out for the very last (front) request; it vanishes quietly.
        assert kc_ref([1, 1, 1]) == kc_ref([1, 1])


class TestPredicates:
    def test_prefixes(self):
        assert prefixes_ref("001", "00")
        assert prefixes_ref("00", "001")
        assert prefixes_ref("", "10")
        assert not prefixes_ref("01", "00")

    def test_incomparable(self):
        assert incomparable_ref("00", ["10", "111"])
        assert not incomparable_ref("00", ["10", "001"])
        assert incomparable_ref("00", [])

    def test_prefixfree(self):
        assert prefixfree_ref(["00", "10", "111"])
        assert not prefixfree_ref(["0", "01"])
        assert not prefixfree_ref(["01", "01"])
        assert prefixfree_ref([])

    def test_strictlysorted(self):
        assert strictlysorted_ref(["111", "01", "0"])
        assert not strictlysorted_ref(["01", "11"])
        assert strictlysorted_ref([])

    def test_lengths_match(self):
        assert lengths_match_ref(["00", "10", "111"], [2, 2, 3])
        assert not lengths_match_ref(["00"], [2, 3])
        assert not lengths_match_ref(["00"], [1])
        assert lengths_match_ref([], [])

    def test_extends(self):
        assert extends_ref(["01", "0"], ["01"])
        assert extends_ref(["01"], [])
        assert not extends_ref([], ["01"])
        assert not extends_ref(["01", "0"], ["0"])

    @given(st.text(alphabet="01", max_size=8), st.text(alphabet="01", max_size=8))
    def test_prefixes_is_comparability(self, x, y):
        assert prefixes_ref(x, y) == (x.startswith(y) or y.startswith(x))
        assert prefixes_ref(x, y) == prefixes_ref(y, x)


class TestAgainstImperative:
    @pytest.mark.parametrize("lengths", [
        [], [0], [2, 3, 4], [1, 2, 3, 4], [5, 1, 5, 2], [3, 3, 3, 3],
    ])
    def test_reversal_bridge(self, lengths):
        words = [w for w, _ in allocate_all((n, "") for n in lengths)]
        assert list(reversed(kc_ref(list(reversed(lengths))))) == words

    @given(length_lists)
    def test_output_always_prefix_free(self, lengths):
        # Holds even when the lengths break the unit mass bound.
        assert prefixfree_ref(kc_ref(lengths))

    @given(length_lists)
    def test_lengths_match_when_mass_fits(self, lengths):
        out = kc_ref(lengths)
        if measure_of_lengths(lengths) <= 1:
            assert lengths_match_ref(out, lengths)

    @given(length_lists, length_lists)
    def test_later_requests_extend_earlier_runs(self, first, second):
        # Unconditional: no mass assumption needed for the extension fact.
        older = kc_ref(first)
        newer = kc_ref(second + first)
        assert extends_ref(list(reversed(newer)), list(reversed(older)))

    @given(length_lists)
    def test_free_pool_stays_strictly_sorted(self, lengths):
        _, free = kcloop_ref(lengths, ([], [""]))
        assert strictlysorted_ref(free)


class TestPrefixFreeAgreesWithReference:
    """``check_differential`` tests the oracle's output with the sorted
    neighbour test ``bits.prefix_free``; it must answer as ``prefixfree_ref``
    does, repeats and the empty word included."""

    WORDS = ["".join(bits) for n in range(4) for bits in product("01", repeat=n)]

    def test_every_short_list(self):
        assert len(self.WORDS) == 15
        checked = 0
        for count in range(5):
            for words in product(self.WORDS, repeat=count):
                assert prefix_free(words) == prefixfree_ref(words), words
                checked += 1
        assert checked == 54_241

    def test_oracle_outputs_of_the_sweep_family(self, kraft_orderings):
        # Criterion 2's family, then the same runs with more requests on
        # top: past the unit mass bound kc_ref skips requests silently.
        rng = random.Random(23)
        family = [seq for seq in kraft_orderings(rng) if rng.random() < 0.05]
        family += [random_kraft_lengths(rng, 50, 16) for _ in range(300)]
        overfull = [seq + [rng.randint(0, 6) for _ in range(rng.randint(1, 8))]
                    for seq in family[::3]]
        skipped = 0
        for lengths in family + overfull:
            out = kc_ref(lengths)
            skipped += len(out) < len(lengths)
            assert prefixfree_ref(out) and prefix_free(out), lengths
        assert skipped > 100
