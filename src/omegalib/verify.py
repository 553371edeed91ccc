"""Deterministic property sweeps behind the ``verify`` subcommand.

Each check function re-derives one of the library's guarantees on concrete
inputs and returns a list of failure descriptions (empty means pass).  Each
suite is a generator that draws its inputs from the ``random.Random`` it is
given and yields one failure list per check.  ``run_suites`` is the one
runner: it runs each chosen suite on a fresh ``random.Random(seed)`` and
counts what it yields into a ``SuiteResult``, so a given seed always
reproduces the same verdicts.  The acceptance tests reuse the same check
functions at their own sweep sizes.

The random length generators keep one random-number contract: one
``randint`` for the count, then one ``choice`` over the range of lengths that
still fit per length drawn.  Each draw is constant work, and a seed gives the
same family, and leaves the generator in the same state, as the earlier
list-filtering draws did.  ``enumerate_kraft_multisets`` is one iterative
walk with constant work per multiset.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from math import isqrt
from operator import lt
from typing import Callable, Iterator, Sequence

from . import ce_real, codespace, kc_oracle, machines, mltest, solovay
from .bits import prefix_free
from .errors import OmegalibError
from .exact import measure_of_lengths, pow2_neg

DEFAULT_SEED = 1729
TEST_MAX_MARGIN = 4


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def _draw_fitting(rng: random.Random, scaled: int, max_count: int,
                  max_len: int) -> list[int]:
    """Up to ``randint(0, max_count)`` lengths in 1..max_len whose costs
    ``2**(max_len - n)`` fit in ``scaled >= 0``, stopping when none fits.

    The lengths that fit are the range ``max(1, max_len + 1 -
    scaled.bit_length())..max_len``; ``choice`` over a ``range`` makes the
    same single ``_randbelow`` call, and picks the same length, as over a list.
    """
    lengths: list[int] = []
    for _ in range(rng.randint(0, max_count)):
        shortest = max_len + 1 - scaled.bit_length()
        if shortest < 1:
            shortest = 1
        if shortest > max_len:
            break
        n = rng.choice(range(shortest, max_len + 1))
        lengths.append(n)
        scaled -= 1 << (max_len - n)
    return lengths


def random_kraft_lengths(rng: random.Random, max_requests: int,
                         max_len: int) -> list[int]:
    """A random length sequence with ``sum(2**-n) <= 1``, lengths in 1..max_len.

    Draws one ``randint(0, max_requests)`` for the count, then one ``choice``
    over the range of lengths that still fit per length drawn, each in
    constant work.
    """
    return _draw_fitting(rng, 1 << max_len, max_requests, max_len)


def random_word(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))


def random_table(rng: random.Random, max_entries: int, max_len: int,
                 max_out: int = 4, nonempty: bool = False) -> machines.MachineTable:
    """A random prefix-free machine, built through the allocator itself."""
    lengths = random_kraft_lengths(rng, max_entries, max_len)
    if nonempty and not lengths:
        lengths = [rng.randint(1, max_len)]
    pairs = codespace.allocate_all((n, random_word(rng, max_out)) for n in lengths)
    return machines.MachineTable(tuple(pairs))


def random_increasing_rationals(rng: random.Random, count: int) -> list[Fraction]:
    """Strictly increasing rationals in (0, 1), exact by construction."""
    steps = [rng.randint(1, 1000) for _ in range(count)]
    denominator = sum(steps) + rng.randint(1, 1000)
    running = 0
    terms = []
    for s in steps:
        running += s
        terms.append(Fraction(running, denominator))
    return terms


def random_gamma_lengths(rng: random.Random, budget: Fraction,
                         max_count: int) -> list[int]:
    """Random lengths in 1..16 whose mass fits inside ``budget`` exactly.

    The same random-number contract as :func:`random_kraft_lengths`: one
    ``randint(0, max_count)``, then one ``choice`` per length drawn, in
    constant work each.  A budget below ``2**-16``, negative ones included,
    draws nothing after the ``randint``.
    """
    scaled = int(budget * (1 << 16))
    return _draw_fitting(rng, max(scaled, 0), max_count, 16)


def enumerate_kraft_multisets(max_len: int) -> Iterator[tuple[int, ...]]:
    """Every multiset of lengths in 0..max_len with ``sum(2**-n) <= 1``.

    Yielded as non-decreasing tuples in preorder, the empty multiset first.
    One iterative depth-first walk: ``stack`` holds, per depth, the next
    length to try and the budget left (in units of ``2**-max_len``), so each
    multiset costs a constant number of steps plus building its tuple.
    """
    prefix: list[int] = []
    stack = [(0, 1 << max_len)]
    yield ()
    while stack:
        n, budget = stack.pop()
        shortest = max_len + 1 - budget.bit_length()  # first length that fits
        if n < shortest:
            n = shortest
        if n > max_len:
            if prefix:
                prefix.pop()
            continue
        stack.append((n + 1, budget))
        stack.append((n, budget - (1 << (max_len - n))))
        prefix.append(n)
        yield tuple(prefix)


# ---------------------------------------------------------------------------
# individual checks (empty list == pass)
# ---------------------------------------------------------------------------

def check_golden_cases() -> list[str]:
    """Fixed reference values for the splitter, the recursive allocator and
    the predicates."""
    failures = []

    def expect(label: str, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    expect("extend_prefix('001', 5)", codespace.extend_prefix("001", 5),
           ["00100", "00101", "0011"])
    expect("kcstep_ref fresh n=2", kc_oracle.kcstep_ref([], [""], 2),
           (["00"], ["01", "1"]))
    expect("kcloop_ref [3,2]", kc_oracle.kcloop_ref([3, 2], ([], [""])),
           (["010", "00"], ["011", "1"]))
    expect("kc_ref [4,3,2]", kc_oracle.kc_ref([4, 3, 2]), ["0110", "010", "00"])
    expect("mass of [4,3,2]", measure_of_lengths([4, 3, 2]).as_fraction(),
           Fraction(7, 16))
    expect("prefixes_ref('001','00')", kc_oracle.prefixes_ref("001", "00"), True)
    expect("incomparable_ref", kc_oracle.incomparable_ref("00", ["10", "111"]), True)
    expect("lengths_match_ref",
           kc_oracle.lengths_match_ref(["00", "10", "111"], [2, 2, 3]), True)
    # check_differential tests the oracle's output with prefix_free; the two
    # predicates must agree on repeats, the empty word and either order.
    for words in ([], ["01", "01"], ["", "1"], ["0", "01"], ["01", "0"],
                  ["00", "01", "1"]):
        expect(f"prefix_free({words}) against prefixfree_ref",
               prefix_free(words), kc_oracle.prefixfree_ref(words))
    return failures


def check_differential(lengths: Sequence[int]) -> list[str]:
    """Imperative allocator vs recursive reference on one length sequence.

    ``kc_ref`` alone produces the oracle's codewords.  Their prefix-freeness
    is tested with ``prefix_free``, which sorts once and compares neighbours,
    instead of the oracle's pairwise ``prefixfree_ref``.  The answer is the
    same on every list: a word that is a prefix of another sorts before it,
    and every word sorted between the two extends it too, so the pair shows
    up as neighbours; a repeated word sorts next to its duplicate.
    """
    failures = []
    state = codespace.new_allocator()
    words = [codespace.allocate(state, n) for n in lengths]

    oracle_out = kc_oracle.kc_ref(list(reversed(lengths)))
    if list(reversed(oracle_out)) != words:
        failures.append(f"allocation order differs for {lengths}")
    if not prefix_free(oracle_out):
        failures.append(f"oracle output not prefix-free for {lengths}")
    if not kc_oracle.lengths_match_ref(oracle_out, list(reversed(lengths))):
        failures.append(f"oracle lengths differ for {lengths}")
    mass = measure_of_lengths(lengths)
    if state.mass_allocated != mass:
        failures.append(f"mass ledger off for {lengths}")
    if measure_of_lengths(map(len, words)) != mass:
        failures.append(f"codeword mass off for {lengths}")
    return failures


def check_invariants_along(lengths: Sequence[int]) -> list[str]:
    """All five allocator invariants after every single allocation.

    One request changes only the free word it splits, so a step after a
    verified state is proved from what it changed.  Let the union of free
    and issued words be a complete prefix-free code before the step.  The
    step passes when the issued list grew by exactly one codeword ``w``,
    exactly one free word ``s`` left the pool, ``w`` and the words that
    entered it extend ``s``, are pairwise prefix-free and carry mass
    ``2**-len(s)``, ``w`` is not free, the free lengths rise strictly, the
    ledger is one minus the free mass and the pending lengths fit in it.
    Then the new words tile the cylinder of ``s``, which no other word of
    the union meets, so the union is again a complete prefix-free code and
    ``check_invariants`` would pass: no verdict changes.  Masses are exact
    integers at the longest requested length.

    The audit is seeded with what a fresh state holds (the pool ``[""]``,
    nothing issued, free mass one) and compares the whole state after each
    step with it, so step 1 is proved like the rest, whatever
    ``new_allocator`` returned.  From the first step it cannot prove (a
    length that is not a natural number, a word longer than every request,
    a finer-scale ledger), the full ``check_invariants`` runs at every step
    and gives every failure message.
    """
    failures = []
    state = codespace.new_allocator()
    allocate, check_invariants = codespace.allocate, codespace.check_invariants
    prev = None                 # free words of the last proved step; None: full check
    try:
        scale = max(lengths, default=0)
        unit = 1 << scale
        # pending[j]: the mass of the last j lengths, in units of 2**-scale.
        pending = [*accumulate(map(unit.__rshift__, reversed(lengths)), initial=0)]
        prev, issued, free_mass = [""], [], unit
    except (TypeError, ValueError):
        pass
    for i, n in enumerate(lengths, 1):
        allocate(state, n)
        if prev is not None:
            mass = _split(state, prev, issued, free_mass, scale)
            if mass is not None and pending[-1 - i] <= mass:
                prev, free_mass = state.free[:], mass
                issued.append(state.allocated[-1])
                continue
            prev = None
        report = check_invariants(state, lengths[i:])
        if not report.ok:
            witness = "" if report.witness is None else f", witness {report.witness}"
            failures.append(f"{report.failures()} after request {i - 1} of {lengths}"
                            f"{witness}")
    return failures


def _split(state: codespace.AllocatorState, prev: list[str], issued: list[str],
           free_mass: int, scale: int) -> int | None:
    """The free mass after one request, if it split one word of the verified
    free list ``prev`` and issued one codeword after ``issued``, else ``None``.

    The new free list must be ``prev`` with the one word ``stem`` replaced by
    the words that entered it, and those words with the codeword must tile
    the cylinder of ``stem``: they extend it, are pairwise prefix-free and
    carry its mass.  The codeword then differs from every free word, because
    ``prev`` less ``stem`` is incomparable with ``stem``.  Masses are integers
    in units of ``2**-scale``; a ledger at a finer scale returns ``None``.
    """
    allocated, free = state.allocated, state.free
    count = len(issued)
    if len(allocated) != count + 1 or allocated[:count] != issued:
        return None
    word = allocated[-1]
    sizes = [*map(len, free)]
    # Where allocate split; the slice tests below are what prove it.  They
    # also fail when made < 0, since prev repeats no word.
    at = bisect_right(prev, len(word), key=len) - 1
    made = len(free) - len(prev) + 1
    if (at < 0 or free[:at] != prev[:at] or free[at + made:] != prev[at + 1:]
            or state._scale > scale
            # Strictly rising lengths also mean that no free word repeats.
            or not all(map(lt, sizes, sizes[1:]))):
        return None
    stem = prev[at]
    tiles = free[at:at + made]
    tiles.append(word)
    tiles.sort()
    unit = 1 << scale
    free_mass -= unit >> len(word)
    # A tile longer than scale weighs 0 here and fails the mass test, since
    # prefix-free extensions of stem weigh at most its mass.
    if (all(map(str.startswith, tiles, repeat(stem)))
            and not any(map(str.startswith, tiles[1:], tiles))
            and sum(map(unit.__rshift__, map(len, tiles))) == unit >> len(stem)
            and state._issued << (scale - state._scale) == unit - free_mass):
        return free_mass
    return None


def check_extension_split(first: Sequence[int], second: Sequence[int]) -> list[str]:
    """Serving more requests never disturbs already-issued codewords."""
    failures = []
    prefix_run = codespace.allocate_all((n, "") for n in first)
    full_run = codespace.allocate_all((n, "") for n in list(first) + list(second))
    if full_run[:len(prefix_run)] != prefix_run:
        failures.append(f"prefix of run changed: {first} ++ {second}")

    older = kc_oracle.kc_ref(list(first))
    newer = kc_oracle.kc_ref(list(second) + list(first))
    if not kc_oracle.extends_ref(list(reversed(newer)), list(reversed(older))):
        failures.append(f"oracle runs do not extend: {first} / {second}")
    return failures


def check_decomposition(terms: Sequence[Fraction]) -> list[str]:
    """Staircase identities and the machine-measure equation for one sequence."""
    failures = []
    k = len(terms)
    seq = ce_real.RationalSeq(terms)
    try:
        decomposition = ce_real.dyadic_decompose(seq, k)
    except (OmegalibError, ValueError) as exc:
        return [f"decomposition failed on {terms[:3]}...: {exc}"]

    r_prev = Fraction(0)
    for i, (a, r) in enumerate(zip(terms, decomposition.partials), start=1):
        r_now = r.as_fraction()
        if r_now > a:
            failures.append(f"partial sum overshoots term {i}")
        if a - r_now > (a - r_prev) / 2:
            failures.append(f"gap did not at least halve at term {i}")
        r_prev = r_now

    table = ce_real.to_machine(ce_real.RationalSeq(terms), k)
    if table.domain_measure() != decomposition.partials[-1]:
        failures.append("machine domain measure differs from the final partial sum")
    if not prefix_free(table.domain):
        failures.append("machine domain is not prefix-free")
    return failures


def check_omega_composition(machine: machines.MachineTable, c: int,
                            gamma_lengths: Sequence[int]) -> list[str]:
    """The measure identity of the interleaved composition, at every round."""
    failures = []
    sums, scale = machines.omega_sums(machine)
    rounds = max(len(machine), len(gamma_lengths))
    for k in range(rounds + 1):
        composed, mass = solovay.omega_rep_compose(machine, c, gamma_lengths, k)
        expected = (Fraction(sums[min(k, len(machine))], 1 << (scale + c))
                    + measure_of_lengths(gamma_lengths[:k]).as_fraction())
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


def check_test_family(a_terms: Sequence[Fraction], b_terms: Sequence[Fraction],
                      levels: Sequence[int]) -> list[str]:
    """Disjointness, measure budget and witness domination per level."""
    failures = []
    depth = len(a_terms)
    for level in levels:
        stage = solovay.build_test(ce_real.RationalSeq(a_terms),
                                   ce_real.RationalSeq(b_terms), level, depth)
        opened = stage.non_empty()
        # Sorted by left end, non-empty half-open intervals are pairwise
        # disjoint exactly when each ends at or before the next one starts.
        ordered = sorted(((i, iv) for i, iv in opened if not iv.is_empty),
                         key=lambda pair: pair[1].lo)
        for (i, left), (j, right) in zip(ordered, ordered[1:]):
            if left.hi > right.lo:
                failures.append(f"level {level}: stages {i} and {j} overlap")
        budget = pow2_neg(level).as_fraction()
        measure = stage.total_measure()
        if measure > budget:
            failures.append(f"level {level}: measure over budget")
        if opened and measure != budget * b_terms[opened[-1][0] - 1]:
            failures.append(f"level {level}: telescoped measure off")

        witness = solovay.extract_witness(ce_real.RationalSeq(a_terms),
                                          ce_real.RationalSeq(b_terms), level, depth)
        a_sub, b_sub = witness.subsequences(a_terms, b_terms)
        if not solovay.check_domination(a_sub, b_sub, 1 << level):
            failures.append(f"level {level}: witness fails domination")
    return failures


def check_transform(table: machines.MachineTable) -> list[str]:
    """Domain (renamed exactly when ``0.y`` is at most the total mass Omega),
    collapse and no-worse-compression facts of the canonical renaming, and
    agreement of the one-pass graph with the per-program definition."""
    failures = []
    sums, scale = machines.omega_sums(table)
    renamed = {}
    defined = []
    for program, _ in table.entries:
        output = table.lookup(program)
        image = machines.chaitin_transform(table, program)
        inside = int(output or "0", 2) << scale <= sums[-1] << len(output)
        if (image is not None) != inside:
            failures.append(f"program {program!r} with output {output!r}: image "
                            f"{image!r}, but 0.y {'<=' if inside else '>'} Omega")
        if image is None:
            continue
        defined.append((program, image))
        if output in renamed and renamed[output] != image:
            failures.append(f"programs with output {output!r} map apart")
        renamed.setdefault(output, image)

    graph = machines.chaitin_transform_table(table)
    for ours, reference in zip_longest(graph.entries, defined):
        if ours != reference:
            program = (ours or reference)[0]
            failures.append(f"graph entry for program {program!r} is {ours!r}, "
                            f"the definition gives {reference!r}")
            break
    for program, image in graph.entries:
        output = table.lookup(program)
        original = machines.complexity(table, output)
        ours = machines.complexity(graph, image)
        if ours > original:
            failures.append(f"renamed output {image!r} harder to describe "
                            f"({ours} > {original})")
    return failures


def check_tail_bound(table: machines.MachineTable) -> list[str]:
    """Chaitin's lemma at every ``n`` up to the longest program: from the
    first stage ``t`` whose mass reaches the total cut to ``n`` bits, no later
    program has ``n`` bits or fewer (it would push the mass above the total)."""
    failures = []
    sums, scale = machines.omega_sums(table)
    for n in range(scale + 1):
        cut = scale - n
        t = bisect_left(sums, sums[-1] >> cut << cut)
        short = [p for p, _ in table.entries[t:] if len(p) <= n]
        if short:
            failures.append(f"stage {t}, level {n}: short tail {short}")
    return failures


def check_combined_overhead(machine_list: Sequence[machines.MachineTable]) -> list[str]:
    """Header overhead of the merged machine is exactly ``i + 1`` bits."""
    failures = []
    combined = machines.combine_universal(machine_list)
    if not prefix_free(combined.domain):
        failures.append("combined table is not prefix-free")
    for i, machine in enumerate(machine_list, start=1):
        for _, y in machine.entries:
            own = machines.complexity(machine, y)
            merged = machines.complexity(combined, y)
            if merged is None or merged > own + i + 1:
                failures.append(f"machine {i}, output {y!r}: {merged} > {own}+{i}+1")
            witness = next(p for p, out in machine.entries
                           if out == y and len(p) == own)
            if ("0" * i + "1" + witness, y) not in combined.entries:
                failures.append(f"machine {i}: headered witness missing for {y!r}")
    return failures


def check_complexity_test(table: machines.MachineTable) -> list[str]:
    """Pruned compressible-output sets stay within their level's measure."""
    failures = []
    for margin in range(TEST_MAX_MARGIN + 1):
        for k in range(len(table) + 1):
            stage_words = mltest.complexity_test_stage(table, margin, k)
            if mltest.antichain_measure(stage_words) > pow2_neg(margin):
                failures.append(f"margin {margin}, stage {k}: measure over budget")
    return failures


def check_compression_family(stages: Sequence[mltest.PrefixSetStage]) -> list[str]:
    """Compression requests carry exactly their stage words' mass, ``n`` bits
    cheaper at level ``n*n``, and deliver their savings."""
    failures = []
    try:
        requests = mltest.compression_requests(stages)
    except OmegalibError as exc:
        return [f"request construction failed: {exc}"]
    total = measure_of_lengths(n for n, _ in requests).as_fraction()
    expected = sum((Fraction(2) ** (isqrt(stage.level) - len(word))
                    for stage in stages for word in stage.words), Fraction(0))
    if total != expected:
        failures.append(f"total mass {total} != {expected}")
    pairs = codespace.allocate_all(requests)
    table = machines.MachineTable(tuple(pairs))
    for stage in stages:
        root = isqrt(stage.level)
        for word in stage.words:
            h = machines.complexity(table, word)
            if h is None or h > len(word) - root:
                failures.append(f"word {word!r} not compressed by {root}")
    return failures


def check_membership_monotone(rng: random.Random,
                              stage: mltest.PrefixSetStage) -> list[str]:
    failures = []
    for w in stage.words:
        tail = random_word(rng, 4)
        if not mltest.stage_membership(w + tail, stage):
            failures.append(f"extension of {w!r} escaped its own stage")
    return failures


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def absorb(self, failure_list: list[str]) -> None:
        if failure_list:
            self.failed += 1
            self.failures.extend(failure_list[:3])
        else:
            self.passed += 1


def _suite_kc(rng: random.Random) -> Iterator[list[str]]:
    yield check_golden_cases()
    for lengths in enumerate_kraft_multisets(4):
        yield check_invariants_along(list(lengths))
    for _ in range(200):
        yield check_invariants_along(random_kraft_lengths(rng, 30, 12))


def _suite_oracle(rng: random.Random) -> Iterator[list[str]]:
    for lengths in enumerate_kraft_multisets(4):
        yield check_differential(list(lengths))
    for _ in range(500):
        yield check_differential(random_kraft_lengths(rng, 30, 12))
    for _ in range(200):
        combined = random_kraft_lengths(rng, 30, 12)
        cut = rng.randint(0, len(combined))
        yield check_extension_split(combined[:cut], combined[cut:])


def _suite_repce(rng: random.Random) -> Iterator[list[str]]:
    for _ in range(50):
        yield check_decomposition(random_increasing_rationals(rng, rng.randint(1, 30)))


def _suite_omega(rng: random.Random) -> Iterator[list[str]]:
    for _ in range(25):
        table = random_table(rng, 12, 8)
        yield check_transform(table)
        yield check_tail_bound(table)
    for _ in range(15):
        yield check_combined_overhead(
            [random_table(rng, 6, 6) for _ in range(rng.randint(1, 4))])


def _suite_dominate(rng: random.Random) -> Iterator[list[str]]:
    for _ in range(20):
        count = rng.randint(2, 20)
        a_terms = random_increasing_rationals(rng, count)
        b_terms = random_increasing_rationals(rng, count)
        yield check_test_family(a_terms, b_terms, range(1, 5))
    for _ in range(20):
        machine = random_table(rng, 10, 8, nonempty=True)
        c = rng.randint(0, 4)
        budget = 1 - pow2_neg(c).as_fraction() * machine.domain_measure().as_fraction()
        yield check_omega_composition(machine, c, random_gamma_lengths(rng, budget, 8))


def _suite_mltest(rng: random.Random) -> Iterator[list[str]]:
    for _ in range(20):
        yield check_complexity_test(random_table(rng, 10, 8, max_out=6))
    for n_top in (2, 3, 4):
        yield check_compression_family([mltest.PrefixSetStage(n * n, ("1" * (n * n),))
                                        for n in range(2, n_top + 1)])
    for _ in range(20):
        stage = mltest.PrefixSetStage(4, tuple(
            w for w, _ in random_table(rng, 6, 8).entries if len(w) >= 4))
        yield check_membership_monotone(rng, stage)


_SUITES: dict[str, Callable[[random.Random], Iterator[list[str]]]] = {
    "kc": _suite_kc,
    "oracle": _suite_oracle,
    "repce": _suite_repce,
    "omega": _suite_omega,
    "dominate": _suite_dominate,
    "mltest": _suite_mltest,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(names: Sequence[str], seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run the named suites (or all of them for ``all``), each on a fresh
    ``random.Random(seed)``."""
    unknown = [n for n in names if n != "all" and n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    chosen = SUITE_NAMES if "all" in names else names
    results = []
    for name in chosen:
        result = SuiteResult(name)
        for failure_list in _SUITES[name](random.Random(seed)):
            result.absorb(failure_list)
        results.append(result)
    return results
