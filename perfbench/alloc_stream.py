"""Workload ``alloc_stream``: long online request streams.

Request lengths are mostly shallow (12 to 28 bits); one request in each
block of a hundred, at a random place, is deep (500 to 1000 bits).  The
deep spines keep the free pool near a thousand words, so the pool search,
the spine strings built by ``extend_prefix`` and the wide mass ledger
dominate.  Each stream runs past Kraft exhaustion; refused requests are
caught and counted, and are correct outcomes, not failures.

One op is one request served or refused.  One pass serves two seeded
streams, each from a fresh allocator, request by request.  Two streams
rather than one average out how a stream's strings happen to lie in
memory, which moved the scan cost by up to 8% from seed to seed.  Shallow
lengths come in shuffled blocks that hold each of 12..28 once, and the deep
lengths are evenly spaced over 500..1000 in shuffled order, so the mass a
stream consumes, its exhaustion point and the pool's size barely move from
seed to seed.
"""

from __future__ import annotations

import os
import random
import time
from typing import NamedTuple

from omegalib import codespace
from omegalib.bits import prefix_free
from omegalib.errors import InsufficientMass

from common import allocate_layer, scan_per_call
from tracing import Layer

TAIL_PERCENTILE = 99

STREAM_LENGTH = {"full": 45_000, "small": 3_000}
STREAMS = 2
SHALLOW = (12, 28)
DEEP = (500, 1000)
DEEP_EVERY = 100
# One length-n request builds about n*n/2 characters of spine; n = 4000
# already peaks at 8.3 MB.  Deep requests stay far below that region.
LENGTH_CAP = 1000


class Inputs(NamedTuple):
    streams: list[list[int]]
    scale: int


class StreamResult(NamedTuple):
    state: codespace.AllocatorState
    outcomes: list   # codeword, None for a refusal, or the exception raised


def guard_lengths(lengths: list[int]) -> None:
    """Refuse a stream whose requests reach the quadratic-memory region."""
    too_long = [n for n in lengths if n > LENGTH_CAP]
    if too_long:
        raise ValueError(f"request length {max(too_long)} exceeds the "
                         f"benchmark cap of {LENGTH_CAP} bits")


def request_lines(seed: int, stream: int, size: str) -> list[str]:
    rng = random.Random(f"alloc_stream:{seed}:{stream}")
    lengths: list[int] = []
    while len(lengths) < STREAM_LENGTH[size]:
        block = list(range(SHALLOW[0], SHALLOW[1] + 1))
        rng.shuffle(block)
        lengths += block
    del lengths[STREAM_LENGTH[size]:]
    places = range(0, len(lengths), DEEP_EVERY)
    span = DEEP[1] - DEEP[0]
    deep = [DEEP[0] + (2 * j + 1) * span // (2 * len(places)) for j in range(len(places))]
    rng.shuffle(deep)
    for start, n in zip(places, deep):
        lengths[start + rng.randrange(min(DEEP_EVERY, len(lengths) - start))] = n
    lines = []
    for n in lengths:
        output = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        lines.append(f"{n}\t{output or '-'}\n")
    return lines


def load(seed: int, workdir: str, size: str) -> Inputs:
    """Write the seeded request files, then read them back through the parser."""
    streams = []
    for stream in range(STREAMS):
        path = os.path.join(workdir, f"requests-{stream}.tsv")
        with open(path, "w", encoding="ascii") as out:
            out.writelines(request_lines(seed, stream, size))
        with open(path, encoding="ascii") as handle:
            requests = codespace.parse_request_lines(handle.read().splitlines())
        streams.append([n for n, _ in requests])
        guard_lengths(streams[-1])
    return Inputs(streams, max(map(max, streams)))


def ops_per_pass(inputs: Inputs) -> int:
    return sum(map(len, inputs.streams))


def run_pass(inputs: Inputs, record) -> list[StreamResult]:
    allocate = codespace.allocate
    clock = time.perf_counter
    results = []
    for lengths in inputs.streams:
        state = codespace.new_allocator()
        outcomes: list = []
        keep = outcomes.append
        for n in lengths:
            t = clock()
            try:
                word = allocate(state, n)
            except InsufficientMass:
                word = None
            except Exception as exc:   # counted as a failed op by check()
                word = exc
            record(clock() - t)
            keep(word)
        results.append(StreamResult(state, outcomes))
    return results


def check(inputs: Inputs, results: list[StreamResult]) -> tuple[set[int], list[str]]:
    """Failed op indices and one output key per op.

    An independent integer ledger of free mass (at scale ``2**-scale``)
    decides each request: it must be refused exactly when ``2**-n`` exceeds
    the free mass.  Issued words must have the requested length, pass the
    prefix-free check together, and leave the allocator's invariants intact.
    """
    bad: set[int] = set()
    keys: list[str] = []
    for lengths, result in zip(inputs.streams, results):
        first = len(keys)
        free = 1 << inputs.scale
        issued = []
        for i, (n, outcome) in enumerate(zip(lengths, result.outcomes), first):
            cost = 1 << (inputs.scale - n)
            if isinstance(outcome, str):
                if cost > free or len(outcome) != n:
                    bad.add(i)
                free -= cost
                issued.append(outcome)
                keys.append(outcome)
            elif outcome is None:
                if cost <= free:
                    bad.add(i)
                keys.append("x")
            else:
                bad.add(i)
                keys.append(f"raised {outcome!r}")
        if not prefix_free(issued) or not codespace.check_invariants(result.state).ok:
            bad.update(range(first, len(keys)))
    return bad, keys


def layers(tracer) -> list[Layer]:
    def extend_after(_, args, result, exc):
        if result is not None:
            tracer.add("codespace.extend_prefix.chars_built", sum(map(len, result)))

    return [allocate_layer(tracer, pool_gauge=True),
            Layer("codespace.extend_prefix", None, extend_after),
            Layer("codespace.parse_request_lines")]


RUN_LAYERS = ("codespace.allocate", "codespace.extend_prefix")
SETUP_LAYERS = ("codespace.parse_request_lines",)


def counter_metrics(counters: dict, run: dict, passes: int) -> dict:
    return {
        "codespace.allocate.refused":
            (counters.get("codespace.allocate.refused", 0) / passes, "count"),
        "codespace.allocate.scan_per_call": scan_per_call(counters, run),
        "codespace.extend_prefix.chars_built":
            (counters.get("codespace.extend_prefix.chars_built", 0) / passes,
             "chars"),
        "codespace.pool_words_max":
            (counters.get("codespace.pool_words_max", 0), "words"),
    }
