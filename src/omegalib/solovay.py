"""Interval tests and witnesses for domination between increasing sequences.

Given two strictly increasing rational sequences ``a`` and ``b`` (both with
an implicit zeroth term 0), each level ``n`` builds a family of half-open
intervals: stage ``i`` opens ``[a_i, a_i + 2**-n * (b_i - b_s))`` — ``s`` the
most recent opened stage — unless ``a_i`` already landed inside an earlier
interval, in which case the stage stays empty.  Opened intervals are pairwise
disjoint and their total measure telescopes to ``2**-n * b_last``, below the
``2**-n`` budget.  If the limit of ``a`` escapes every level's intervals,
reading off the opened stages yields subsequences witnessing that ``b``'s
increments are dominated by ``2**n`` times ``a``'s.  The construction
computes on integer numerator/denominator pairs and builds each interval's
right end as one ``Fraction`` over the common denominator; the stages hold
``Fraction`` intervals.

The module also carries the request-stream composition that realizes a
halting-probability identity: interleaving one stream that re-requests a
machine's own programs ``c`` bits longer with a second stream of chosen
lengths produces, after composing with that machine, a domain of measure
exactly ``2**-c * (halting mass) + (mass of the chosen lengths)``, which is
the representation's value at that stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ce_real import RationalSeq
from .codespace import allocate_all
from .errors import OmegalibError
from .exact import Dyadic, Interval, as_fraction
from .machines import MachineTable, compose


@dataclass(frozen=True)
class TestStage:
    """One level of the interval test; ``intervals[i-1]`` belongs to stage i.

    Empty stages are recorded as None.  Non-empty intervals are pairwise
    disjoint and their total measure stays within ``2**-level``.
    """

    level: int
    intervals: tuple[Interval | None, ...]

    def non_empty(self) -> list[tuple[int, Interval]]:
        """(stage index, interval) pairs for the opened stages, 1-based."""
        return [(i, iv) for i, iv in enumerate(self.intervals, start=1)
                if iv is not None]

    def total_measure(self) -> Fraction:
        return sum((iv.measure for _, iv in self.non_empty()), Fraction(0))


def build_test(a: RationalSeq, b: RationalSeq, level: int, depth: int) -> TestStage:
    """Construct one level of the interval test through ``depth`` stages."""
    if level < 0 or depth < 0:
        raise ValueError("level and depth are natural numbers")
    a_terms = a.prefix(depth)
    b_terms = b.prefix(depth)
    intervals: list[Interval | None] = []
    # Every opened interval starts at an earlier, smaller term of ``a``, so
    # ``a_i`` lies in one exactly when it is below the largest right end.
    reach_p, reach_q = 0, 1
    sp, sq = 0, 1                        # b at the most recent opened stage
    for a_i, b_i in zip(a_terms, b_terms):
        ap, aq = a_i.numerator, a_i.denominator
        if ap * reach_q < reach_p * aq:
            intervals.append(None)
            continue
        bp, bq = b_i.numerator, b_i.denominator
        # a_i + 2**-level * (b_i - b_s) over the denominator aq*bq*sq << level
        bq_sq = bq * sq
        hi = Fraction((ap * bq_sq << level) + aq * (bp * sq - sp * bq),
                      aq * bq_sq << level)
        intervals.append(Interval(a_i, hi))
        # hi > a_i >= reach: the newest end is the largest
        reach_p, reach_q = hi.numerator, hi.denominator
        sp, sq = bp, bq
    return TestStage(level=level, intervals=tuple(intervals))


@dataclass(frozen=True)
class DominationWitness:
    """Opened-stage indices of one level, packaged as a domination witness.

    ``stage_indices`` lists the opened stages in order (1-based; the implicit
    stage 0 with value 0 is not stored).  Reading ``a`` at each opened stage
    and ``b`` at the previous opened stage yields subsequences on which
    ``b``'s increments are at most ``2**exponent`` times ``a``'s.
    """

    stage_indices: tuple[int, ...]
    exponent: int

    def subsequences(self, a_terms: Sequence[Fraction],
                     b_terms: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
        """The witness pair: ``a`` at opened stages, ``b`` one opened stage back."""
        indices = self.stage_indices
        a_sub = [as_fraction(a_terms[j - 1]) for j in indices]
        shifted = ((0,) + indices)[:len(indices)]
        b_sub = [Fraction(0) if j == 0 else as_fraction(b_terms[j - 1])
                 for j in shifted]
        return a_sub, b_sub


def extract_witness(a: RationalSeq, b: RationalSeq, exponent: int,
                    depth: int) -> DominationWitness:
    """Build level ``exponent`` of the test and read off its opened stages."""
    stage = build_test(a, b, exponent, depth)
    indices = tuple(i for i, _ in stage.non_empty())
    return DominationWitness(stage_indices=indices, exponent=exponent)


def check_domination(a_prefix: Sequence[Fraction], b_prefix: Sequence[Fraction],
                     c: int) -> bool:
    """True when every ``b`` increment is at most ``c`` times the ``a`` increment.

    The prefixes must have equal length; compares consecutive differences
    exactly.
    """
    if c < 0:
        raise ValueError("domination constants are natural numbers")
    if len(a_prefix) != len(b_prefix):
        raise OmegalibError(
            f"prefix lengths differ: {len(a_prefix)} vs {len(b_prefix)}")
    a_vals = [as_fraction(x) for x in a_prefix]
    b_vals = [as_fraction(x) for x in b_prefix]
    return all(b_vals[j + 1] - b_vals[j] <= c * (a_vals[j + 1] - a_vals[j])
               for j in range(len(a_vals) - 1))


def interleave_requests(machine: MachineTable, c: int,
                        gamma_lengths: Sequence[int], k: int) -> list[tuple[int, str]]:
    """First ``k`` rounds of the identity-realizing request stream.

    Round ``i`` (1-based) contributes, in order: a request for the machine's
    i-th program at length ``len(program) + c`` (while programs remain), then
    a request of length ``gamma_lengths[i-1]`` for the machine's first program
    (while chosen lengths remain).
    """
    if not machine.entries:
        raise ValueError("the request stream needs a non-empty machine")
    if c < 0 or k < 0:
        raise ValueError("c and k are natural numbers")
    anchor = machine.entries[0][0]
    programs = machine.domain
    requests: list[tuple[int, str]] = []
    for i in range(k):
        if i < len(programs):
            requests.append((len(programs[i]) + c, programs[i]))
        if i < len(gamma_lengths):
            requests.append((gamma_lengths[i], anchor))
    return requests


def omega_rep_compose(machine: MachineTable, c: int, gamma_lengths: Sequence[int],
                      k: int) -> tuple[MachineTable, Dyadic]:
    """Allocate the interleaved stream and compose with ``machine``.

    Returns the composed table and its exact domain measure, which equals
    ``2**-c * (halting mass through round k) + sum(2**-m)`` over the chosen
    lengths through round k.
    """
    requests = interleave_requests(machine, c, gamma_lengths, k)
    composed = compose(machine, allocate_all(requests))
    return composed, composed.domain_measure()
