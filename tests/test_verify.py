"""Seeded generators of ``omegalib.verify``: differential tests against the
list-filtering draws and the recursive multiset walk they replaced, and
digests that pin the families the acceptance sweeps and the benchmark use.
Also the failure messages of ``check_invariants_along``."""

import hashlib
import random
from fractions import Fraction
from itertools import islice, zip_longest
from typing import Iterator

import pytest

from omegalib import codespace
from omegalib.exact import Dyadic
from omegalib.verify import (check_invariants_along, enumerate_kraft_multisets,
                             random_gamma_lengths, random_kraft_lengths)


# ---------------------------------------------------------------------------
# reference bodies, kept literally from before the constant-work rewrite
# ---------------------------------------------------------------------------

def ref_random_kraft_lengths(rng: random.Random, max_requests: int,
                             max_len: int) -> list[int]:
    """A random length sequence with ``sum(2**-n) <= 1``, lengths in 1..max_len."""
    budget = 1 << max_len
    lengths: list[int] = []
    for _ in range(rng.randint(0, max_requests)):
        fitting = [n for n in range(1, max_len + 1) if (1 << (max_len - n)) <= budget]
        if not fitting:
            break
        n = rng.choice(fitting)
        lengths.append(n)
        budget -= 1 << (max_len - n)
    return lengths


def ref_random_gamma_lengths(rng: random.Random, budget: Fraction, max_count: int,
                             max_len: int = 16) -> list[int]:
    """Random lengths whose mass fits inside ``budget`` exactly."""
    scaled = int(budget * (1 << max_len))
    lengths: list[int] = []
    for _ in range(rng.randint(0, max_count)):
        fitting = [n for n in range(1, max_len + 1) if (1 << (max_len - n)) <= scaled]
        if not fitting:
            break
        n = rng.choice(fitting)
        lengths.append(n)
        scaled -= 1 << (max_len - n)
    return lengths


def ref_enumerate_kraft_multisets(max_len: int) -> Iterator[tuple[int, ...]]:
    """Every multiset of lengths in 0..max_len with ``sum(2**-n) <= 1``.

    Yielded as non-decreasing tuples, including the empty multiset.
    """
    unit = 1 << max_len

    def walk(smallest: int, budget: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        yield acc
        for n in range(smallest, max_len + 1):
            cost = 1 << (max_len - n)
            if cost <= budget:
                yield from walk(n, budget - cost, acc + (n,))

    yield from walk(0, unit, ())


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

KRAFT_PARAMS = [(50, 16), (30, 12), (10, 4), (5, 1), (3, 0), (0, 8)]

GAMMA_BUDGETS = [Fraction(-1, 3), Fraction(0), Fraction(1, 2**20),
                 Fraction(1, 3), Fraction(1), Fraction(5, 4)]


def test_random_kraft_lengths_matches_reference():
    for seed in range(500):
        ours, theirs = random.Random(seed), random.Random(seed)
        for max_requests, max_len in KRAFT_PARAMS:
            got = random_kraft_lengths(ours, max_requests, max_len)
            want = ref_random_kraft_lengths(theirs, max_requests, max_len)
            assert got == want, (seed, max_requests, max_len)
            assert ours.getstate() == theirs.getstate(), (seed, max_requests, max_len)


@pytest.mark.parametrize("max_len", [16, 3, 1, 0])
def test_random_gamma_lengths_matches_reference(max_len):
    for seed in range(100):
        ours, theirs = random.Random(seed), random.Random(seed)
        for budget in GAMMA_BUDGETS:
            got = random_gamma_lengths(ours, budget, 8, max_len)
            want = ref_random_gamma_lengths(theirs, budget, 8, max_len)
            assert got == want, (seed, budget)
            assert ours.getstate() == theirs.getstate(), (seed, budget)


@pytest.mark.parametrize("draw", [
    random_kraft_lengths, ref_random_kraft_lengths,
    lambda rng, count, max_len: random_gamma_lengths(rng, Fraction(1), count, max_len),
    lambda rng, count, max_len: ref_random_gamma_lengths(rng, Fraction(1), count, max_len),
])
def test_negative_max_len_raises(draw):
    with pytest.raises(ValueError):
        draw(random.Random(0), 5, -1)


@pytest.mark.parametrize("max_len", range(8))
def test_enumerate_kraft_multisets_matches_reference(max_len):
    count = 0
    for got, want in zip_longest(enumerate_kraft_multisets(max_len),
                                 ref_enumerate_kraft_multisets(max_len)):
        assert got == want, count
        count += 1
    assert count > max_len


def test_enumerate_negative_max_len_raises_on_first_next():
    ours, theirs = enumerate_kraft_multisets(-1), ref_enumerate_kraft_multisets(-1)
    with pytest.raises(ValueError) as theirs_info:
        next(theirs)
    with pytest.raises(ValueError) as ours_info:
        next(ours)
    assert type(ours_info.value) is type(theirs_info.value)


def test_enumerate_is_lazy_on_a_huge_family():
    got = list(islice(enumerate_kraft_multisets(40), 1000))
    assert got == list(islice(ref_enumerate_kraft_multisets(40), 1000))
    assert got[:3] == [(), (0,), (1,)]


# ---------------------------------------------------------------------------
# digests of the seeded families (computed with the reference bodies)
# ---------------------------------------------------------------------------

def sha256_of(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_multiset_family_digest():
    family = list(enumerate_kraft_multisets(6))
    assert len(family) == 27_338
    assert sha256_of(family) == (
        "0f855de5d35fe04185e90846e156c61d180feb10400a17f333cfdc484c505ef3")


def test_criterion_stream_digest():
    rng = random.Random(1729)
    draws = [random_kraft_lengths(rng, 50, 16) for _ in range(10_000)]
    assert sha256_of(draws) == (
        "2681cd6e16f6c25419dd8564361a82ca47983ef7ba248a4b372beed3ceab3181")


def test_gamma_stream_digest():
    rng = random.Random(1729)
    draws = [random_gamma_lengths(rng, GAMMA_BUDGETS[i % len(GAMMA_BUDGETS)], 8)
             for i in range(1000)]
    assert sha256_of(draws) == (
        "fdad05e2b9f3280274ba3fcbae66ef79d2fdf1c692b245bb4c3e40f0f9bf8505")


class TestCheckInvariantsAlong:
    """A broken allocator, patched in, shows what a failure message says."""

    @staticmethod
    def patch(monkeypatch, damage):
        real = codespace.allocate

        def damaged(state, n):
            word = real(state, n)
            damage(state, word)
            return word
        monkeypatch.setattr(codespace, "allocate", damaged)

    def test_passing_run_reports_nothing(self):
        assert check_invariants_along([2, 1, 3, 3]) == []

    def test_overlap_witness(self, monkeypatch):
        self.patch(monkeypatch, lambda state, word: state.free.append(word))
        failed = "['union_prefix_free', 'union_measure_is_one', 'free_lengths_distinct']"
        assert check_invariants_along([1, 2]) == [
            f"{failed} after request 0 of [1, 2], witness ('0', '0')",
            f"{failed} after request 1 of [1, 2], witness ('0', '00')"]

    def test_gap_witness(self, monkeypatch):
        self.patch(monkeypatch, lambda state, word: state.free.pop())
        assert check_invariants_along([1]) == [
            "['union_measure_is_one'] after request 0 of [1], "
            "witness (Dyadic(1, 1), Dyadic(1, 0))"]

    def test_no_witness_without_a_union_failure(self, monkeypatch):
        self.patch(monkeypatch,
                   lambda state, word: setattr(state, "mass_allocated", Dyadic(0)))
        assert check_invariants_along([1]) == [
            "['mass_matches_ledger'] after request 0 of [1]"]
