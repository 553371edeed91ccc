#!/usr/bin/env python3
"""
Serving prefix-free codeword requests
=====================================

A request stream asks, one request at a time, for a binary codeword of a
given length.  The allocator hands codewords out so that no codeword is a
prefix of another, and it never refuses as long as the requested lengths
keep their total mass sum(2**-n) within one unit.

Run me top to bottom:  python3 demos/01_codeword_allocation.py
"""

from omegalib.codespace import (allocate, allocate_all, check_invariants,
                                extend_prefix, new_allocator)
from omegalib.errors import InsufficientMass
from omegalib.exact import measure_of_lengths

# ---------------------------------------------------------------------------
# 1. The splitting primitive.  One free prefix of length 3 is split into a
#    length-5 codeword plus shorter leftovers that jointly cover exactly the
#    rest of the original cylinder.
# ---------------------------------------------------------------------------

pieces = extend_prefix("001", 5)
print("extend_prefix('001', 5) ->", pieces)
print("mass of the pieces:", measure_of_lengths(len(p) for p in pieces),
      "(equals the mass 1/2^3 of the stem)")
print()

# ---------------------------------------------------------------------------
# 2. A small run, one request at a time.  Watch the free pool: it is kept
#    shortest first, its word lengths strictly increasing, which is the shape
#    that lets the allocator find the longest fitting word by binary search.
# ---------------------------------------------------------------------------

state = new_allocator()
for n in (2, 2, 3):
    word = allocate(state, n)
    print(f"requested length {n}: got {word!r}; free pool now {state.free}")

report = check_invariants(state)
print("all structural invariants hold:", report.ok)
print()

# ---------------------------------------------------------------------------
# 3. The same thing in one call, with outputs attached.  The pairs form a
#    machine table: programs on the left, outputs on the right.
# ---------------------------------------------------------------------------

table = allocate_all([(2, "1"), (2, "0"), (3, "11")])
for program, output in table:
    print(f"  {program} -> {output}")
print("domain mass:", measure_of_lengths(len(p) for p, _ in table))
print()

# ---------------------------------------------------------------------------
# 4. Refusal is exact, not heuristic.  Three length-1 requests carry mass
#    3/2 > 1, so the third one must fail -- and nothing else does.
# ---------------------------------------------------------------------------

try:
    allocate_all([(1, "0"), (1, "1"), (1, "0")])
except InsufficientMass as exc:
    print("third request refused:", exc)

# The command-line equivalent of step 3:
#
#   printf '2\t1\n2\t0\n3\t11\n' | omegalib allocate -
