"""Workload ``audit_sweep``: the self-verification sweep of the allocator.

A seeded sample of the input family that acceptance criteria 2 and 3
sweep: every Kraft multiset of lengths up to 6 in ascending, descending and
shuffled order, plus ``random_kraft_lengths(rng, 50, 16)`` sequences, mixed
in the family's own proportion.  Each sequence goes through
``check_differential``, ``check_invariants_along`` and
``check_extension_split``.  Many fresh allocators with small pools (at most
17 words) bypass pool-search optimisations; ``check_invariants`` re-derives
the whole state after every write and the recursive oracle is on the path.

One op is one sequence fully checked.  One pass checks the whole sample.
The sample is stratified by sequence length (one pick from each of equal
slices of the length-sorted family), so that the cost mix barely moves
from seed to seed.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from omegalib import verify

from common import allocate_layer, scan_per_call
from tracing import Layer

TAIL_PERCENTILE = 99

SAMPLE_SIZE = {"full": 3000, "small": 60}
RANDOM_FAMILY = 10_000        # random sequences in the acceptance family
MULTISET_MAX_LEN = 6
# kc_ref recurses once per length, so its input stays short.
KC_REF_MAX_LENGTHS = 50


class Inputs(NamedTuple):
    sequences: list[list[int]]
    cuts: list[int]


def guard_kc_ref(sequences: list[list[int]]) -> None:
    """Refuse sequences whose oracle recursion would grow past the cap."""
    longest = max(map(len, sequences), default=0)
    if longest > KC_REF_MAX_LENGTHS:
        raise ValueError(f"a sequence of {longest} lengths exceeds the kc_ref "
                         f"cap of {KC_REF_MAX_LENGTHS}")


def orderings(multiset: tuple[int, ...], rng: random.Random) -> list[list[int]]:
    """The distinct ascending, descending and shuffled orders of a multiset."""
    ascending = list(multiset)
    shuffled = ascending[:]
    rng.shuffle(shuffled)
    kept: list[list[int]] = []
    for candidate in (ascending, ascending[::-1], shuffled):
        if candidate not in kept:
            kept.append(candidate)
    return kept


def stratified(items: list, k: int, rng: random.Random) -> list:
    """One random pick from each of ``k`` equal slices of ``items``."""
    step = len(items) / k
    return [items[int((i + rng.random()) * step)] for i in range(k)]


def load(seed: int, workdir: str, size: str) -> Inputs:
    rng = random.Random(f"audit_sweep:{seed}")
    multisets = sorted((m for m in verify.enumerate_kraft_multisets(MULTISET_MAX_LEN)
                        if len(m) <= KC_REF_MAX_LENGTHS), key=len)
    # The family lists each multiset in about three orders, next to
    # RANDOM_FAMILY random sequences; the sample keeps that proportion.
    total = SAMPLE_SIZE[size]
    n_random = round(total * RANDOM_FAMILY / (RANDOM_FAMILY + 3 * len(multisets)))
    picked = [rng.choice(orderings(m, rng))
              for m in stratified(multisets, total - n_random, rng)]
    randoms = sorted((verify.random_kraft_lengths(rng, 50, 16)
                      for _ in range(8 * n_random)), key=len)
    picked += stratified(randoms, n_random, rng)
    rng.shuffle(picked)
    guard_kc_ref(picked)
    cuts = [rng.randint(0, len(seq)) for seq in picked]
    return Inputs(picked, cuts)


def ops_per_pass(inputs: Inputs) -> int:
    return len(inputs.sequences)


def run_pass(inputs: Inputs, record) -> list:
    outcomes: list = []
    keep, clock = outcomes.append, time.perf_counter
    for lengths, cut in zip(inputs.sequences, inputs.cuts):
        t = clock()
        try:
            failures = (verify.check_differential(lengths)
                        + verify.check_invariants_along(lengths)
                        + verify.check_extension_split(lengths[:cut], lengths[cut:]))
        except Exception as exc:   # counted as a failed op by check()
            failures = [f"raised {exc!r}"]
        record(clock() - t)
        keep(failures)
    return outcomes


def check(inputs: Inputs, outcomes: list) -> tuple[set[int], list[str]]:
    """Every check must return an empty failure list."""
    bad = {i for i, failures in enumerate(outcomes) if failures}
    keys = [f"{seq}|{cut}|{failures}"
            for seq, cut, failures in zip(inputs.sequences, inputs.cuts, outcomes)]
    return bad, keys


RUN_LAYERS = ("codespace.allocate", "codespace.check_invariants",
              "bits.prefix_free", "exact.measure_of_lengths",
              "kc_oracle.kc_ref", "kc_oracle.prefixfree_ref",
              "kc_oracle.extends_ref", "verify.check_differential",
              "verify.check_invariants_along", "verify.check_extension_split")
SETUP_LAYERS = ()


def layers(tracer) -> list[Layer]:
    def pairs_before(args):
        n = len(args[0])
        tracer.add("kc_oracle.prefixfree_ref.pairs", n * (n - 1) // 2)

    plain = [Layer(name) for name in RUN_LAYERS
             if name not in ("codespace.allocate", "kc_oracle.prefixfree_ref")]
    return plain + [allocate_layer(tracer),
                    Layer("kc_oracle.prefixfree_ref", pairs_before)]


def counter_metrics(counters: dict, run: dict, passes: int) -> dict:
    return {
        "codespace.allocate.scan_per_call": scan_per_call(counters, run),
        "kc_oracle.prefixfree_ref.pairs":
            (counters.get("kc_oracle.prefixfree_ref.pairs", 0) / passes, "count"),
    }
