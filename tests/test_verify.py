"""Seeded generators of ``omegalib.verify``: differential tests against the
list-filtering draws and the recursive multiset walk they replaced, and
digests that pin the families the acceptance sweeps and the benchmark use.
Also the failure messages of ``check_invariants_along``, its split audit
against the full check after every request, the checks the suite runner
makes, and every failure message of the two oracle checks."""

import hashlib
import random
from fractions import Fraction
from itertools import islice, zip_longest
from typing import Iterator

import pytest

from omegalib import ce_real, codespace, machines, solovay, verify
from omegalib.exact import Dyadic, measure_of_lengths, pow2_neg
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


def test_increasing_rationals_copy(increasing_rationals):
    """The tests' copy with a step ceiling makes the library's draws at 1000."""
    ours, library = random.Random(5), random.Random(5)
    for count in range(40):
        assert increasing_rationals(ours, count, 1000) == \
            verify.random_increasing_rationals(library, count)


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


def test_sweep_family_digest(kraft_orderings):
    family = list(kraft_orderings(random.Random(1729)))
    assert len(family) == 81_579
    assert sum(map(len, family)) == 1_818_785
    text = "\n".join(",".join(map(str, s)) for s in family)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "81c66307c878f8955963668f7fbf1565ccc845a224f7e55114301bb6bf778ce0")


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


def ref_check_invariants_along(lengths):
    """All five allocator invariants after every single allocation."""
    failures = []
    state = codespace.new_allocator()
    allocate, check_invariants = codespace.allocate, codespace.check_invariants
    for i, n in enumerate(lengths, 1):
        allocate(state, n)
        report = check_invariants(state, lengths[i:])
        if not report.ok:
            witness = "" if report.witness is None else f", witness {report.witness}"
            failures.append(f"{report.failures()} after request {i - 1} of {lengths}"
                            f"{witness}")
    return failures


def flip(bit: str) -> str:
    return "1" if bit == "0" else "0"


def newest_sibling(state, word) -> int:
    """Where the free word ``word[:-1] + "1"`` is: the sibling that entered
    the pool with ``word``, when the split was at least one bit deep."""
    return state.free.index(word[:-1] + "1")


def swap_siblings(state, word):
    free, at = state.free, newest_sibling(state, word)
    free[at - 1], free[at] = free[at], free[at - 1]


def replace_sibling_outside(state, word):
    """First bit flipped: outside the split word, when that is not empty."""
    free, at = state.free, newest_sibling(state, word)
    free[at] = flip(free[at][0]) + free[at][1:]


def free_the_codeword(state, word):
    state.free[newest_sibling(state, word)] = word


def issue_extra(state, word):
    """A valid state allocate would not make: the longest free word's
    0-child is issued too, with its mass, and its 1-child stays free."""
    stem = state.free[-1]
    state.free[-1] = stem + "1"
    state.allocated.append(stem + "0")
    state.mass_allocated = state.mass_allocated + pow2_neg(len(stem) + 1)


# With the swapped lengths of ``test_codeword_lengths_swapped``, these give
# each condition of the split audit a state that it alone rejects, at the
# middle step of ``TestCheckInvariantsAlongDifferential.LENGTHS``.
DAMAGES = {
    "drop a free word": lambda state, word: state.free.pop(newest_sibling(state, word)),
    "append a duplicate free word": lambda state, word: state.free.append(state.free[-1]),
    "rewrite an older codeword": lambda state, word: state.allocated.__setitem__(
        0, state.allocated[0][:-1] + flip(state.allocated[0][-1])),
    "swap two free words": swap_siblings,
    "shorten a free word": lambda state, word: state.free.__setitem__(
        0, state.free[0][:-1]),
    "rewrite the longest free word": lambda state, word: state.free.__setitem__(
        -1, state.free[-1][:-1] + flip(state.free[-1][-1])),
    "add to the ledger": lambda state, word: setattr(
        state, "mass_allocated", state.mass_allocated + pow2_neg(len(word))),
    "add to the ledger at a finer scale": lambda state, word: setattr(
        state, "mass_allocated", state.mass_allocated + pow2_neg(len(word) + 4)),
    "replace a sibling with a word outside the split word": replace_sibling_outside,
    "free the codeword too": free_the_codeword,
    "issue an extra word": issue_extra,
}


class TestCheckInvariantsAlongDifferential:
    """Each step proved from its split gives the failure list, or raises the
    exception, of the full check after every request (kept literally above)."""

    # Request 0 splits the empty word six deep.  Request 4 (length 5) splits
    # the free word 001 two deep, between the free words 1 and 000001.
    LENGTHS = [6, 2, 4, 5, 5, 3, 7]

    @staticmethod
    def both(lengths):
        ours = outcome(check_invariants_along, lengths)
        assert ours == outcome(ref_check_invariants_along, lengths), lengths
        return ours

    def test_sweep_sample(self, kraft_orderings):
        rng = random.Random(19)
        family = list(kraft_orderings(random.Random(1729)))
        sample = rng.sample(family, 3000)
        sample += [random_kraft_lengths(rng, 50, 16) for _ in range(1000)]
        for lengths in sample:
            assert self.both(lengths) == [], lengths

    EDGE_SEQUENCES = [
        [], [0], [1, 1], [0, 0], [1, 1, 1], [2, 1, 2, 3, 3],
        [2, -1, 3], [-1], [3, 2, -2],
        [2, 1.5], [1.5], [2.0, 1], [2, "3"], ["1"],
    ]

    @pytest.mark.parametrize("lengths", EDGE_SEQUENCES)
    def test_edge_sequences(self, lengths):
        self.both(lengths)

    @pytest.mark.parametrize("steps", [{0}, {4}, "every"], ids=["first", "middle", "every"])
    @pytest.mark.parametrize("damage", list(DAMAGES))
    def test_damaged_allocator(self, monkeypatch, damage, steps):
        real, calls = codespace.allocate, []

        def damaged(state, n):
            word = real(state, n)
            if steps == "every" or len(calls) in steps:
                DAMAGES[damage](state, word)
            calls.append(n)
            return word
        monkeypatch.setattr(codespace, "allocate", damaged)
        ours = outcome(check_invariants_along, self.LENGTHS)
        calls.clear()
        theirs = outcome(ref_check_invariants_along, self.LENGTHS)
        assert ours == theirs
        if damage != "issue an extra word":
            assert theirs != []

    def test_codeword_lengths_swapped(self, monkeypatch):
        # Requests 1 and 2 are served at each other's lengths: every step is
        # a valid split with a matching ledger, but after request 1 the rest
        # no longer fits.
        real = codespace.allocate

        def run(check):
            served = iter([2, 2, 3, 2, 3])
            monkeypatch.setattr(codespace, "allocate",
                                lambda state, n: real(state, next(served)))
            return outcome(check, [2, 3, 2, 2, 3])
        assert run(check_invariants_along) == run(ref_check_invariants_along) == [
            "['remaining_requests_fit'] after request 1 of [2, 3, 2, 2, 3]"]

    @staticmethod
    def count_full_checks(monkeypatch) -> list[int]:
        """Per full check, the number of requests still to come."""
        real, left = codespace.check_invariants, []
        monkeypatch.setattr(codespace, "check_invariants",
                            lambda state, rest: left.append(len(rest)) or real(state, rest))
        return left

    def test_passing_run_makes_no_full_check(self, monkeypatch):
        left = self.count_full_checks(monkeypatch)
        lengths = [5, 3, 7, 4, 6, 8, 5, 7, 6, 8, 9, 4, 7, 8, 6, 9, 5, 8, 7, 9]
        assert check_invariants_along(lengths) == []
        assert left == []

    @pytest.mark.parametrize("step", [0, 4], ids=["first", "middle"])
    @pytest.mark.parametrize("damage", list(DAMAGES))
    def test_full_check_from_the_first_refused_step(self, monkeypatch, damage, step):
        real, calls = codespace.allocate, []

        def damaged(state, n):
            word = real(state, n)
            if len(calls) == step:
                DAMAGES[damage](state, word)
            calls.append(n)
            return word
        monkeypatch.setattr(codespace, "allocate", damaged)
        left = self.count_full_checks(monkeypatch)
        ours = outcome(check_invariants_along, self.LENGTHS)
        # One full check at the damaged step and at each later one.
        assert left == list(reversed(range(len(self.LENGTHS) - step)))
        calls.clear()
        assert ours == outcome(ref_check_invariants_along, self.LENGTHS)

    # Fresh states that new_allocator does not make.  The audit assumes the
    # pool [""] with nothing issued; it accepts a step only if the state
    # after it is that pool split once, so the outcome stays the full check's.
    BROKEN_FRESH = {
        "empty pool": lambda: codespace.AllocatorState(free=[]),
        "pool 0": lambda: codespace.AllocatorState(free=["0"]),
        "complete code 0, 1": lambda: codespace.AllocatorState(free=["0", "1"]),
        "one word issued": lambda: codespace.AllocatorState(
            free=["1"], allocated=["0"], mass_allocated=pow2_neg(1)),
        "nonzero ledger": lambda: codespace.AllocatorState(mass_allocated=pow2_neg(2)),
    }

    # [3, 2] fits in half of code space: each pool but the empty one serves it.
    @pytest.mark.parametrize("lengths", [LENGTHS, [3, 2], *EDGE_SEQUENCES])
    @pytest.mark.parametrize("fresh", list(BROKEN_FRESH))
    def test_the_fresh_state_is_not_trusted(self, monkeypatch, fresh, lengths):
        monkeypatch.setattr(codespace, "new_allocator", self.BROKEN_FRESH[fresh])
        self.both(lengths)

    def test_a_split_complete_code_is_proved(self, monkeypatch):
        # The request of length 6 splits 1 of the complete code {0, 1}: the
        # audit sees the pool [""] split once, a complete code, and proves
        # every step without a full check.
        monkeypatch.setattr(codespace, "new_allocator",
                            self.BROKEN_FRESH["complete code 0, 1"])
        left = self.count_full_checks(monkeypatch)
        assert check_invariants_along(self.LENGTHS) == []
        assert left == []


class TestCheckDecomposition:
    """``dyadic_decompose`` verifies its staircase, and ``to_machine``
    decomposes again; the check adds no third verification of its own."""

    TERMS = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)]

    def test_verifies_once_per_decomposition(self, monkeypatch):
        real, calls = ce_real.DyadicDecomposition.verify, []
        monkeypatch.setattr(ce_real.DyadicDecomposition, "verify",
                            lambda self, terms: calls.append(terms) or real(self, terms))
        assert verify.check_decomposition(self.TERMS) == []
        assert len(calls) == 2

    def test_a_broken_staircase_is_reported(self, monkeypatch):
        def broken(self, terms):
            raise ValueError("step 1: recurrence broken")
        monkeypatch.setattr(ce_real.DyadicDecomposition, "verify", broken)
        assert verify.check_decomposition(self.TERMS) == [
            f"decomposition failed on {self.TERMS}...: step 1: recurrence broken"]


class TestRunner:
    """Passing suites print only counts, so the calls they make are pinned:
    per suite at seed 1729, the number of checks and the sha256 of the
    ``(check name, repr(args))`` log.  A ``random.Random`` argument is logged
    by its state, because its repr is its address."""

    CALL_LOGS = {
        "kc": (403, "b25bf83769ce3d957e05efa08d2a6351bd2dd95849a1e84d182d187220a26f17"),
        "oracle": (902, "9111d7e019ffccbecf310941b9e49bd7c6485b9f9e7d92f08540a0c6221224d5"),
        "repce": (50, "711225a956d0083201e0e7e54119f32f861a52eb4baf1fe34d53d04d3583ea1b"),
        "omega": (65, "a9f8b44409deea48f9c9f90d8df1602dab50929d52f94d708d3dc68c548a1248"),
        "dominate": (40, "2ac17bfb3c31b2efd6d8b8ac1efe324e159f856cbd1f0dbda36004cc75e91bdb"),
        "mltest": (43, "ed8a667f5161fffd4957bd30df225462fb62f1f61b01d2fc459ceb496400b5cb"),
    }

    @staticmethod
    def record(monkeypatch) -> list[tuple[str, str]]:
        """Wrap every ``check_*`` of ``verify`` so that each call is logged."""
        log = []
        for name, check in list(vars(verify).items()):
            if name.startswith("check_") and callable(check):
                def recorder(*args, _name=name, _check=check):
                    log.append((_name, repr(tuple(
                        a.getstate() if isinstance(a, random.Random) else a
                        for a in args))))
                    return _check(*args)
                monkeypatch.setattr(verify, name, recorder)
        return log

    def test_every_suite_is_pinned(self):
        assert tuple(self.CALL_LOGS) == verify.SUITE_NAMES

    @pytest.mark.parametrize("suite", list(CALL_LOGS))
    def test_call_log(self, monkeypatch, suite):
        log = self.record(monkeypatch)
        [result] = verify.run_suites([suite], seed=1729)
        assert (len(log), sha256_of(log)) == self.CALL_LOGS[suite]
        assert (result.name, result.passed, result.failed) == (suite, len(log), 0)

    def test_all_makes_the_single_suites_calls(self, monkeypatch):
        log = self.record(monkeypatch)
        for suite in verify.SUITE_NAMES:
            verify.run_suites([suite], seed=3)
        singles = log[:]
        log.clear()
        verify.run_suites(["all"], seed=3)
        assert log == singles

    @pytest.mark.parametrize("names, message", [
        (["nope"], "unknown suite(s): nope"),
        (["kc", "nope", "bad"], "unknown suite(s): nope, bad"),
        (["nope", "all"], "unknown suite(s): nope"),
        (["all", "kc", "bad"], "unknown suite(s): bad"),
    ])
    def test_unknown_suite_runs_nothing(self, monkeypatch, names, message):
        log = self.record(monkeypatch)
        with pytest.raises(ValueError) as info:
            verify.run_suites(names)
        assert str(info.value) == message
        assert log == []

    def test_all_among_names_runs_each_suite_once(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "_SUITES", {
            name: (lambda rng, _name=name: ran.append(_name) or iter(()))
            for name in verify.SUITE_NAMES})
        results = verify.run_suites(["kc", "all"])
        assert [r.name for r in results] == ran == list(verify.SUITE_NAMES)


# ---------------------------------------------------------------------------
# stage checks, kept literally from before they read ``omega_sums``; the tail
# check as the 2**-n band it was before it became Chaitin's lemma
# ---------------------------------------------------------------------------

def ref_check_omega_composition(machine, c, gamma_lengths):
    """The measure identity of the interleaved composition, at every round."""
    failures = []
    rounds = max(len(machine), len(gamma_lengths))
    for k in range(rounds + 1):
        composed, mass = solovay.omega_rep_compose(machine, c, gamma_lengths, k)
        v_stage = min(k, len(machine))
        g_stage = min(k, len(gamma_lengths))
        expected = (pow2_neg(c).as_fraction()
                    * machines.omega_approx(machine, v_stage).as_fraction()
                    + measure_of_lengths(gamma_lengths[:g_stage]).as_fraction())
        if mass.as_fraction() != expected:
            failures.append(f"round {k}: measure {mass} != {expected}")

    requests = solovay.interleave_requests(machine, c, gamma_lengths, rounds)
    issued = codespace.allocate_all(requests)
    programs = machine.domain
    cursor = 0
    for i in range(rounds):
        if i < len(machine):
            word, _ = issued[cursor]
            wanted = len(programs[i]) + c
            if len(word) != wanted:
                failures.append(f"round {i + 1}: codeword length {len(word)} != {wanted}")
            cursor += 1
        if i < len(gamma_lengths):
            cursor += 1
    return failures


def ref_check_tail_bound(table):
    """Once the halting mass is within ``2**-n`` of its limit, all later
    programs have length at least ``n``, for ``n`` from 0 to 8."""
    failures = []
    total = table.domain_measure()
    for t in range(len(table) + 1):
        partial = machines.omega_approx(table, t)
        for n in range(8 + 1):
            if partial.as_fraction() >= total.as_fraction() - pow2_neg(n).as_fraction():
                short = [p for p, _ in table.entries[t:] if len(p) < n]
                if short:
                    failures.append(f"stage {t}, level {n}: short tail {short}")
    return failures


def outcome(call, *args):
    """A call's result, or its exception's type and message."""
    try:
        return call(*args)
    except Exception as exc:          # compared, never swallowed
        return type(exc), str(exc)


def suite_arguments(monkeypatch, suite, check, seed):
    """The arguments ``verify`` passes to ``check`` in one suite run."""
    calls = []
    real = getattr(verify, check)
    monkeypatch.setattr(verify, check, lambda *args: calls.append(args) or real(*args))
    verify.run_suites([suite], seed=seed)
    monkeypatch.undo()
    return calls


def criterion_5_arguments():
    """The machines, shifts and chosen lengths of acceptance criterion 5."""
    rng = random.Random(1729)
    for _ in range(100):
        machine = verify.random_table(rng, 20, 10, nonempty=True)
        c = rng.randint(0, 4)
        budget = 1 - pow2_neg(c).as_fraction() * machine.domain_measure().as_fraction()
        yield machine, c, random_gamma_lengths(rng, budget, 10)


def table(*programs):
    return machines.MachineTable(tuple((p, "") for p in programs))


def failing_levels(failures):
    return {int(line.split("level ")[1].split(":")[0]) for line in failures}


class TestStageChecksDifferential:
    """``check_tail_bound`` and ``check_omega_composition`` read one
    ``omega_sums`` pass.  The composition check gives the failure lists its
    per-stage ``omega_approx`` body gave; the tail check passes wherever the
    band form passes, and fails wherever it fails under a wrong reading."""

    @pytest.mark.parametrize("seed", [1729, 3])
    def test_suite_tables(self, monkeypatch, seed):
        tails = suite_arguments(monkeypatch, "omega", "check_tail_bound", seed)
        compositions = suite_arguments(monkeypatch, "dominate",
                                       "check_omega_composition", seed)
        assert (len(tails), len(compositions)) == (25, 20)
        for args in tails:
            assert verify.check_tail_bound(*args) == ref_check_tail_bound(*args) == []
        for args in compositions:
            assert verify.check_omega_composition(*args) == \
                ref_check_omega_composition(*args) == []

    def test_criterion_5_tables(self):
        for machine, c, gamma in criterion_5_arguments():
            assert verify.check_omega_composition(machine, c, gamma) == \
                ref_check_omega_composition(machine, c, gamma) == []
            assert verify.check_tail_bound(machine) == ref_check_tail_bound(machine) == []

    NOT_PREFIX_FREE = table("0", "", "01", "1")

    def test_table_that_is_not_prefix_free(self):
        t = self.NOT_PREFIX_FREE
        assert t.domain_measure() > 1
        assert verify.check_tail_bound(t) == ref_check_tail_bound(t) == []
        for c in range(4):
            # The shifted programs overflow code space while c < 2.
            assert outcome(verify.check_omega_composition, t, c, [3]) == \
                outcome(ref_check_omega_composition, t, c, [3])

    def test_wrong_composed_mass(self, monkeypatch):
        real = solovay.omega_rep_compose

        def off_on_odd_rounds(machine, c, gamma_lengths, k):
            composed, mass = real(machine, c, gamma_lengths, k)
            return composed, mass + Dyadic(k % 2, 30)

        monkeypatch.setattr(solovay, "omega_rep_compose", off_on_odd_rounds)
        found = 0
        for machine, c, gamma in criterion_5_arguments():
            ours = verify.check_omega_composition(machine, c, gamma)
            assert ours == ref_check_omega_composition(machine, c, gamma)
            found += len(ours)
        assert found > 100

    def test_mass_read_too_small(self, monkeypatch):
        # Neither form can fail on a table with the right mass reading.  One
        # 2**-8 too small fails the band form at levels 1 to 8 (no program is
        # shorter than 0 bits), and the strict form on the same tables at
        # every level from 0 up to 14 of the reading's 16-bit scale.
        real_sums = machines.omega_sums

        def shifted(t):
            return machines.MachineTable(tuple(("0" * 8 + p, y) for p, y in t.entries))

        monkeypatch.setattr(machines, "omega_sums", lambda t: real_sums(shifted(t)))
        monkeypatch.setattr(machines, "omega_approx", lambda t, k: measure_of_lengths(
            len(p) + 8 for p, _ in t.prefix(k)))
        monkeypatch.setattr(machines.MachineTable, "domain_measure",
                            lambda t: measure_of_lengths(len(p) + 8 for p in t.domain))
        levels, band_levels = set(), set()
        tables = [table("0", "10", "110", "1110", "11110", "111110", "1111110"),
                  table("11", "10", "0"), self.NOT_PREFIX_FREE, table("1", "")]
        rng = random.Random(43)
        tables += [verify.random_table(rng, 12, 8) for _ in range(25)]
        for t in tables:
            ours, band = verify.check_tail_bound(t), ref_check_tail_bound(t)
            assert bool(ours) == bool(band), t
            levels.update(failing_levels(ours))
            band_levels.update(failing_levels(band))
        assert (levels, band_levels) == (set(range(15)), set(range(1, 9)))

    @pytest.mark.parametrize("t, failures", [
        (table(), []),
        (table(""), ["stage 0, level 0: short tail ['']"]),
        (table("0", "10", "11"), ["stage 2, level 2: short tail ['11']"]),
        (table("", "0", "1"), ["stage 2, level 1: short tail ['1']"]),
        # Programs of 1 to 10 bits: a level past the band form's last, 8.
        (table(*("1" * k + "0" for k in range(10))),
         ["stage 9, level 10: short tail ['1111111110']"]),
    ], ids=["empty", "empty_word", "complete_code", "not_prefix_free",
            "longer_than_eight"])
    def test_edges(self, monkeypatch, t, failures):
        # With the right reading the top level's stage is the last, so its
        # tail is empty.  With the total read one unit low, the failures pin
        # the stage and level each case reaches; the empty table has only
        # level 0, from stage 0.
        assert verify.check_tail_bound(t) == []
        real_sums = machines.omega_sums

        def total_one_unit_low(t):
            sums, scale = real_sums(t)
            return sums[:-1] + [sums[-1] - 1], scale

        monkeypatch.setattr(machines, "omega_sums", total_one_unit_low)
        assert verify.check_tail_bound(t) == failures


class TestOracleCheckFailures:
    """Every failure message of ``check_differential`` and
    ``check_extension_split``, made to appear by a patched allocator or a
    patched oracle, each with the whole failure list it comes in."""

    @staticmethod
    def issue(monkeypatch, words):
        """``allocate`` serves the real request, so the ledger stays honest,
        but hands out the next of ``words``."""
        real, handed = codespace.allocate, iter(words)

        def allocate(state, n):
            real(state, n)
            return next(handed)
        monkeypatch.setattr(verify.codespace, "allocate", allocate)

    @staticmethod
    def oracle(monkeypatch, *outputs):
        """``kc_ref`` returns ``outputs`` in turn, newest word first."""
        handed = iter(outputs)
        monkeypatch.setattr(verify.kc_oracle, "kc_ref", lambda lengths: next(handed))

    def test_allocation_order_differs(self, monkeypatch):
        self.oracle(monkeypatch, ["0", "1"])
        assert verify.check_differential([1, 1]) == [
            "allocation order differs for [1, 1]"]

    @pytest.mark.parametrize("lengths, words", [
        ([1, 1], ["0", "0"]),           # a repeated word
        ([1, 2], ["0", "01"]),          # a proper prefix, issued first
        ([2, 1], ["01", "0"]),          # a proper prefix, issued last
    ])
    def test_oracle_output_not_prefix_free(self, monkeypatch, lengths, words):
        self.issue(monkeypatch, words)
        self.oracle(monkeypatch, words[::-1])
        assert verify.check_differential(lengths) == [
            f"oracle output not prefix-free for {lengths}"]

    def test_empty_word_beside_another(self, monkeypatch):
        # Lengths 0 and 1 together overflow code space, so the empty word
        # comes with a length that differs from its request.
        self.issue(monkeypatch, ["", "1"])
        self.oracle(monkeypatch, ["1", ""])
        assert verify.check_differential([1, 1]) == [
            "oracle output not prefix-free for [1, 1]",
            "oracle lengths differ for [1, 1]",
            "codeword mass off for [1, 1]"]

    def test_oracle_lengths_differ(self, monkeypatch):
        # The same mass in another order: only the positions disagree.
        self.issue(monkeypatch, ["00", "1", "01"])
        self.oracle(monkeypatch, ["01", "1", "00"])
        assert verify.check_differential([1, 2, 2]) == [
            "oracle lengths differ for [1, 2, 2]"]

    def test_mass_ledger_off(self, monkeypatch):
        # The words come from a second allocator; the checked one stays empty.
        real, other = codespace.allocate, codespace.new_allocator()
        monkeypatch.setattr(verify.codespace, "allocate",
                            lambda state, n: real(other, n))
        assert verify.check_differential([1, 2]) == ["mass ledger off for [1, 2]"]

    def test_codeword_mass_off(self, monkeypatch):
        # Word lengths that match their requests position by position carry
        # the requested mass, so a mass that is off comes with another failure.
        self.issue(monkeypatch, ["00"])
        assert verify.check_differential([1]) == [
            "allocation order differs for [1]",
            "codeword mass off for [1]"]

    def test_prefix_of_run_changed(self, monkeypatch):
        # Only the shorter run's first codeword is lengthened.
        real, calls = codespace.allocate, []

        def allocate(state, n):
            calls.append(n)
            word = real(state, n)
            return word + "1" if len(calls) == 1 else word
        monkeypatch.setattr(verify.codespace, "allocate", allocate)
        assert verify.check_extension_split([1], [1]) == [
            "prefix of run changed: [1] ++ [1]"]

    def test_oracle_runs_do_not_extend(self, monkeypatch):
        # kc_ref([1]) is ['0']; kc_ref([1, 1]) is ['1', '0'], here reversed.
        self.oracle(monkeypatch, ["0"], ["0", "1"])
        assert verify.check_extension_split([1], [1]) == [
            "oracle runs do not extend: [1] / [1]"]

    def test_unpatched_runs_pass(self):
        assert verify.kc_oracle.kc_ref([1, 1]) == ["1", "0"]
        assert verify.check_differential([1, 1]) == []
        assert verify.check_differential([1, 2, 2]) == []
        assert verify.check_extension_split([1], [1]) == []
