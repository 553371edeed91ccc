"""Acceptance criteria: one test per criterion, each printing a verdict line.

Every numeric comparison is exact (rational arithmetic, zero tolerance); each
criterion also carries a wall-clock budget.  Each criterion runs seeded or
fixed inputs through checks of ``omegalib.verify`` and states no property of
its own, so the ``verify`` subcommand checks what this module checks.
"""

import random
import time

from omegalib import verify
from omegalib.machines import MachineTable
from omegalib.mltest import PrefixSetStage

SEED = 1729


def _report(capsys, number, label, failures, elapsed, bound):
    verdict = "PASS" if not failures and elapsed < bound else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({label}): {verdict} "
              f"({elapsed:.2f}s of {bound:.0f}s allowed)")
    assert not failures, failures[:5]
    assert elapsed < bound, f"criterion {number} took {elapsed:.2f}s"


def _sweep_sequences(rng, kraft_orderings):
    """Criterion 2/3 input family: exhaustive short multisets in several
    orders, then long seeded random sequences."""
    yield from kraft_orderings(rng)
    for _ in range(10_000):
        yield verify.random_kraft_lengths(rng, 50, 16)


def test_criterion_1_golden_reference_values(capsys):
    start = time.perf_counter()
    failures = verify.check_golden_cases()
    elapsed = time.perf_counter() - start
    _report(capsys, 1, "golden reference values", failures, elapsed, 1.0)


def test_criterion_2_differential_allocator_sweep(capsys, kraft_orderings):
    rng = random.Random(SEED)
    start = time.perf_counter()
    failures = []
    for lengths in _sweep_sequences(rng, kraft_orderings):
        failures.extend(verify.check_differential(lengths))
    elapsed = time.perf_counter() - start
    _report(capsys, 2, "differential allocator sweep", failures, elapsed, 60.0)


def test_criterion_3_invariant_preservation(capsys, kraft_orderings):
    rng = random.Random(SEED)
    start = time.perf_counter()
    failures = []
    for lengths in _sweep_sequences(rng, kraft_orderings):
        failures.extend(verify.check_invariants_along(lengths))
    for _ in range(1_000):
        combined = verify.random_kraft_lengths(rng, 30, 12)
        cut = rng.randint(0, len(combined))
        failures.extend(
            verify.check_extension_split(combined[:cut], combined[cut:]))
    elapsed = time.perf_counter() - start
    _report(capsys, 3, "invariant preservation", failures, elapsed, 60.0)


def test_criterion_4_staircase_sandwich(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    failures = []
    for _ in range(200):
        terms = verify.random_increasing_rationals(rng, 50)
        failures.extend(verify.check_decomposition(terms))
    elapsed = time.perf_counter() - start
    _report(capsys, 4, "staircase sandwich", failures, elapsed, 30.0)


def test_criterion_5_composition_measure_identity(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    failures = []
    for _ in range(100):
        machine = verify.random_table(rng, 20, 10, nonempty=True)
        c = rng.randint(0, 4)
        budget = (1 - verify.pow2_neg(c).as_fraction()
                  * machine.domain_measure().as_fraction())
        gamma = verify.random_gamma_lengths(rng, budget, 10)
        failures.extend(verify.check_omega_composition(machine, c, gamma))
    elapsed = time.perf_counter() - start
    _report(capsys, 5, "composition measure identity", failures, elapsed, 30.0)


def test_criterion_6_interval_test_properties(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    failures = []
    for _ in range(100):
        count = rng.randint(2, 25)
        a_terms = verify.random_increasing_rationals(rng, count)
        b_terms = verify.random_increasing_rationals(rng, count)
        failures.extend(
            verify.check_test_family(a_terms, b_terms, range(1, 7)))
    elapsed = time.perf_counter() - start
    _report(capsys, 6, "interval test properties", failures, elapsed, 30.0)


def test_criterion_7_canonical_renaming(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    failures = []
    for _ in range(50):
        table = verify.random_table(rng, 12, 8, nonempty=True)
        # an empty output has 0.y = 0, so check_transform requires it renamed
        entries = list(table.entries)
        entries[0] = (entries[0][0], "")
        table = MachineTable(tuple(entries))
        failures.extend(verify.check_transform(table))
    elapsed = time.perf_counter() - start
    _report(capsys, 7, "canonical renaming", failures, elapsed, 30.0)


def test_criterion_8_compression_request_mass(capsys):
    start = time.perf_counter()
    failures = []
    single = [PrefixSetStage(n * n, ("1" * (n * n),)) for n in range(2, 7)]
    paired = [PrefixSetStage(n * n, ("0" + "1" * (n * n), "1" + "0" * (n * n)))
              for n in range(2, 7)]
    for stages in (single, paired):
        failures.extend(verify.check_compression_family(stages))
    elapsed = time.perf_counter() - start
    _report(capsys, 8, "compression request mass", failures, elapsed, 10.0)


def test_criterion_9_combined_machine_overhead(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    failures = []
    for _ in range(30):
        group = [verify.random_table(rng, 6, 6) for _ in
                 range(rng.randint(1, 4))]
        failures.extend(verify.check_combined_overhead(group))
    elapsed = time.perf_counter() - start
    _report(capsys, 9, "combined machine overhead", failures, elapsed, 10.0)
