#!/usr/bin/env python3
"""
Interval tests, domination witnesses, and the measure identity
==============================================================

Two strictly increasing rational sequences a and b can be compared by how
fast they climb.  For each level n, a family of half-open intervals is built
around a's terms, scaled by 2**-n times b's progress; the intervals are
pairwise disjoint and their total measure stays within 2**-n.  Whenever a's
limit escapes the intervals of some level, the opened stages of that level
read off subsequences witnessing that b's increments are bounded by 2**n
times a's.  The last section realizes a halting-mass identity by composing
an interleaved request stream with a machine.

Run me top to bottom:  python3 demos/04_domination_and_interval_tests.py
"""

from fractions import Fraction

from omegalib.ce_real import RationalSeq
from omegalib.machines import MachineTable, omega_approx
from omegalib.solovay import (build_test, check_domination, extract_witness,
                              omega_rep_compose)

A = [Fraction(1, 4), Fraction(9, 32), Fraction(1, 2), Fraction(3, 4)]
B = [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(7, 16)]

# ---------------------------------------------------------------------------
# 1. One level of the interval test.  Stage 2 never opens: 9/32 already sits
#    inside stage 1's interval, so its mass is deferred to stage 3.
# ---------------------------------------------------------------------------

stage = build_test(RationalSeq(A), RationalSeq(B), level=1, depth=4)
for i, iv in enumerate(stage.intervals, start=1):
    print(f"{i}  -" if iv is None else f"{i}  {iv.lo}  {iv.hi}")
print("total measure:", stage.total_measure(), "(within 1/2)")
print()

# ---------------------------------------------------------------------------
# 2. Reading a witness off the opened stages.  b sampled one opened stage
#    behind a gives increment pairs with b's bounded by 2**1 times a's.
# ---------------------------------------------------------------------------

witness = extract_witness(RationalSeq(A), RationalSeq(B), exponent=1, depth=4)
a_sub, b_sub = witness.subsequences(A, B)
print("opened stages:", witness.stage_indices)
print("a sampled there:    ", [str(x) for x in a_sub])
print("b one stage behind: ", [str(x) for x in b_sub])
print("increments dominated with constant 2:",
      check_domination(a_sub, b_sub, 2))
print()

# ---------------------------------------------------------------------------
# 3. The measure identity.  Re-requesting a machine's own programs c bits
#    longer, interleaved with extra lengths m_i, then composing with the
#    machine, yields a domain of mass exactly 2**-c * (halting mass) + the
#    extra lengths' mass.
# ---------------------------------------------------------------------------

v = MachineTable((("0", "1"), ("10", "0")))
composed, mass = omega_rep_compose(v, c=1, gamma_lengths=[2, 3], k=2)
print("composed table:", composed.entries)
print("domain mass:   ", mass)
b = RationalSeq([Fraction(1, 4), Fraction(3, 8)])  # running mass of [2, 3]
identity = Fraction(1, 2) * omega_approx(v, 2).as_fraction() + b.prefix(2)[-1]
print("identity value:", identity,
      "(computed as 2**-1 * 3/4 + 3/8; both roads agree)")

# The command-line equivalents of steps 1 and 2:
#
#   omegalib test a.txt b.txt --n 1 --depth 4
#   omegalib dominate a.txt b.txt --m 1
