"""Helpers shared by the workload modules and the worker."""

from __future__ import annotations

import math
import time
from array import array
from fractions import Fraction

from tracing import Layer


def allocate_layer(tracer, pool_gauge: bool = False) -> Layer:
    """``codespace.allocate`` with its refusal and pool-scan counters.

    The scan count is the index of the first free word that fits, the
    position the allocator's linear pool search stops at (the whole pool
    for a refusal).
    """
    from omegalib.errors import InsufficientMass

    def before(args):
        state, n = args
        free = state.free
        return next((i for i, w in enumerate(free) if len(w) <= n), len(free))

    def after(scan, args, result, exc):
        tracer.add("codespace.allocate.scan", scan)
        if pool_gauge:
            tracer.gauge_max("codespace.pool_words_max", len(args[0].free))
        if isinstance(exc, InsufficientMass):
            tracer.add("codespace.allocate.refused")

    return Layer("codespace.allocate", before, after)


def scan_per_call(counters: dict, run: dict) -> tuple[float, str]:
    calls = run.get("codespace.allocate", {}).get("calls", 0)
    return counters.get("codespace.allocate.scan", 0) / max(calls, 1), "words"


def nearest_rank(ordered, q: float) -> tuple[float, int]:
    """The ``q``-th percentile of sorted samples and how many lie beyond it."""
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(ordered, preferred: float, ladder=(99, 90, 75, 50)) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the op tail.

    Each workload fixes the percentile it reports, so that runs and commits
    compare like with like; when a run has fewer than ten samples beyond it,
    the highest ladder percentile that has ten is used instead.
    """
    for q in (preferred, *ladder):
        value, beyond = nearest_rank(ordered, q)
        if beyond >= 10 or q == ladder[-1]:
            return q, value, beyond
    raise AssertionError("unreachable")


# A shared host can run the same code up to 2x slower for 0.1 s to over a
# minute at a time (measured on a 2-CPU Xeon VM; not steal time, as thread
# CPU time tracks wall time).  OpClock times a fixed reference kernel at the
# start of each pass and between two ops every KERNEL_EVERY_S of op time,
# and scales each op's time to a host on which the kernel takes
# KERNEL_REFERENCE_MS.
KERNEL_EVERY_S = 0.1
KERNEL_REFERENCE_MS = 1.2


class OpClock:
    """Per-op best times over passes, raw and scaled for host speed.

    An op's scaled time is its raw time times ``KERNEL_REFERENCE_MS`` over
    the faster of the two kernel samples around it, taken at most
    ``KERNEL_EVERY_S`` of op time apart.  The kernel never calls omegalib,
    so a faster library moves scaled and raw times alike.
    """

    def __init__(self, ops_per_pass: int) -> None:
        self.best = array("d", [math.inf]) * ops_per_pass
        self.raw_best = array("d", [math.inf]) * ops_per_pass
        self.kernel_log: list[float] = []
        self._times = array("d")
        self._kernel: list[float] = []
        self._kernel_at: list[int] = []   # ops recorded before each sample
        self._since = 0.0

    def _sample_kernel(self) -> None:
        # Best of two, so that the caches the ops left behind do not count.
        self._kernel_at.append(len(self._times))
        self._kernel.append(reference_best(2))

    def start_pass(self) -> None:
        del self._times[:]
        self._kernel.clear()
        self._kernel_at.clear()
        self._since = 0.0
        self._sample_kernel()

    def record(self, op_s: float) -> None:
        """Log one op's raw time; the workloads call this between ops."""
        self._times.append(op_s)
        self._since += op_s
        if self._since >= KERNEL_EVERY_S:
            self._since = 0.0
            self._sample_kernel()

    def end_pass(self) -> None:
        self._sample_kernel()
        kernel, at = self._kernel, self._kernel_at
        scaled = array("d")
        k = 0
        for i, op_s in enumerate(self._times):
            while at[k + 1] <= i:
                k += 1
            scaled.append(op_s * KERNEL_REFERENCE_MS * 1e-3 / min(kernel[k], kernel[k + 1]))
        self.best = array("d", map(min, self.best, scaled))
        self.raw_best = array("d", map(min, self.raw_best, self._times))
        self.kernel_log += kernel


def reference_kernel() -> int:
    """Fixed interpreter work in the mix the workloads use: short strings,
    list and dict inserts, a sort, and small-denominator fractions."""
    words: list[str] = []
    index: dict[str, int] = {}
    total = Fraction(0)
    for i in range(1, 1200):
        word = format(i, "b")
        words.append(word + "1")
        index[word] = len(words)
        if i % 4 == 0:
            total += Fraction(i, 1 << (i % 24))
    words.sort()
    return len(index) + (total > 1)


def reference_best(repeats: int) -> float:
    """Fastest of ``repeats`` timed runs of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best
