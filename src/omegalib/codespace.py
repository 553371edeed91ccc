"""Incremental allocation of prefix-free codewords with exact mass accounting.

The allocator owns a pool of *free prefixes*: binary words whose cylinders
partition the part of code space not yet spoken for.  The pool is kept
shortest first, strictly sorted by increasing length, which forces
pairwise-distinct lengths and makes "the longest free word of length <= n" the
last word of length <= n in pool order.  Serving a length-``n`` request splits
that word's subtree: the all-zeros extension of length ``n`` becomes the new
codeword and the siblings along the spine return to the pool, in its place and
shortest first.  The split lives only in ``allocate``; ``extend_prefix`` is
``allocate`` on a one-word pool.  The mass ledger is a raw integer at the
scale of the longest issued length, canonical on read.  Five checkable
invariants tie it together: the free pool plus the issued codewords stay
prefix-free, together they carry measure exactly one, the issued mass matches
the ledger, pending request lengths fit inside the free measure, and the pool
lengths stay strictly increasing.  The pick's binary search relies on the last
one: a hand-built pool that breaks it is not a valid ``allocate`` input.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bits import MAX_TEXT_LENGTH, parse_word, prefix_free, validate_bits
from .errors import InsufficientMass, TargetTooShort
from .exact import DYADIC_ZERO, Dyadic


def extend_prefix(stem: str, target: int) -> list[str]:
    """Split ``stem`` so its subtree yields one word of length ``target``.

    Returns ``[stem + 0^k, stem + 0^(k-1)1, ..., stem + 01, stem + 1]`` where
    ``k = target - len(stem)``: the head is the allocatable all-zeros word and
    the tail holds the replacement prefixes, lengths running ``target`` down
    to ``len(stem) + 1``.  For ``target == len(stem)`` the word itself is the
    whole split.  This is ``allocate`` on the one-word pool ``[stem]``.
    """
    validate_bits(stem)
    if target < len(stem):
        raise TargetTooShort(
            f"target length {target} is below the stem length {len(stem)}")
    state = AllocatorState(free=[stem])
    return [allocate(state, target), *reversed(state.free)]


class AllocatorState:
    """Mutable allocator state: free pool, issued codewords, raw mass ledger.

    The ledger is ``_issued`` units of ``2**-_scale``, ``_scale`` being the
    longest issued length.  ``mass_allocated`` reads it as a canonical
    ``Dyadic``; assigning a ``Dyadic`` to it replaces the ledger."""

    def __init__(self, free: list[str] | None = None, allocated: list[str] | None = None,
                 mass_allocated: Dyadic = DYADIC_ZERO):
        self.free = [""] if free is None else free
        self.allocated = [] if allocated is None else allocated
        self.mass_allocated = mass_allocated

    @property
    def mass_allocated(self) -> Dyadic:
        return Dyadic(self._issued, self._scale)

    @mass_allocated.setter
    def mass_allocated(self, mass: Dyadic) -> None:
        self._issued, self._scale = mass.mantissa, mass.exponent


def new_allocator() -> AllocatorState:
    """A fresh state owning all of code space: free pool {empty word}."""
    return AllocatorState()


def allocate(state: AllocatorState, n: int) -> str:
    """Issue a codeword of length ``n``, consuming ``2**-n`` of free measure.

    Picks the longest free word of length <= n by binary search over the
    strictly sorted pool (such a word exists exactly when the free measure is
    at least ``2**-n``), builds its all-zeros extension of length ``n``,
    splices the siblings along that spine into its place, shortest first, and
    appends the codeword to ``state.allocated``.  Raises InsufficientMass when
    no word fits.  The word is built before the pool changes, so a call that
    raises leaves the state as it was.  Pool words are the allocator's own and
    are not re-validated; the raw ledger grows by one shift-and-add.
    """
    if n < 0:
        raise ValueError("codeword lengths are natural numbers")
    free = state.free
    pick = bisect_right(free, n, key=len) - 1
    if pick < 0:
        raise InsufficientMass(n)
    stem = free[pick]
    word = stem + "0" * (n - len(stem))
    free[pick:pick + 1] = [word[:j] + "1" for j in range(len(stem), n)]
    state.allocated.append(word)
    scale = state._scale
    if n > scale:
        state._issued = (state._issued << (n - scale)) + 1
        state._scale = n
    else:
        state._issued += 1 << (scale - n)
    return word


def allocate_all(requests: Iterable[tuple[int, str]]) -> list[tuple[str, str]]:
    """Serve ``(length, output)`` requests in order from a fresh state.

    Returns the ``(codeword, output)`` pairs.  On the first request that
    cannot be served, raises InsufficientMass carrying that request's
    zero-based index.
    """
    state = new_allocator()
    table: list[tuple[str, str]] = []
    for i, (n, y) in enumerate(requests):
        try:
            word = allocate(state, n)
        except InsufficientMass:
            raise InsufficientMass(n, index=i) from None
        table.append((word, validate_bits(y)))
    return table


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of the five allocator invariants; ``None`` means not checked."""

    union_prefix_free: bool
    union_measure_is_one: bool
    mass_matches_ledger: bool
    remaining_requests_fit: bool | None
    free_lengths_distinct: bool

    @property
    def ok(self) -> bool:
        return False not in (self.union_prefix_free, self.union_measure_is_one,
                             self.mass_matches_ledger, self.remaining_requests_fit,
                             self.free_lengths_distinct)

    def failures(self) -> list[str]:
        return [name for name in ("union_prefix_free", "union_measure_is_one",
                                  "mass_matches_ledger", "remaining_requests_fit",
                                  "free_lengths_distinct")
                if getattr(self, name) is False]


def check_invariants(state: AllocatorState,
                     remaining_lengths: Sequence[int] | None = None) -> InvariantReport:
    """Recompute the five allocator invariants exactly from the raw state.

    The measures are recomputed from the pools themselves (integer arithmetic
    at a common power-of-two scale), so the report is meaningful even for
    hand-built states.  ``remaining_lengths`` — the lengths of requests still
    to come — enables the pending-requests-fit check; omitted, that field of
    the report is ``None``.
    """
    free, allocated = state.free, state.allocated
    union = free + allocated
    scale = max(max(map(len, union), default=0), state._scale)
    if remaining_lengths:
        scale = max(scale, max(remaining_lengths))

    free_mass = sum(1 << (scale - len(w)) for w in free)
    alloc_mass = sum(1 << (scale - len(w)) for w in allocated)
    ledger = state._issued << (scale - state._scale)

    if remaining_lengths is None:
        fit = None
    else:
        fit = sum(1 << (scale - n) for n in remaining_lengths) <= free_mass

    return InvariantReport(
        union_prefix_free=prefix_free(union),
        union_measure_is_one=free_mass + alloc_mass == 1 << scale,
        mass_matches_ledger=alloc_mass == ledger,
        remaining_requests_fit=fit,
        free_lengths_distinct=all(len(free[i]) < len(free[i + 1])
                                  for i in range(len(free) - 1)),
    )


# Digits a request-length field may have, leading zeros included; the field
# is converted with int() only below this.
MAX_LENGTH_DIGITS = 100


def parse_request_lines(lines: Iterable[str]) -> list[tuple[int, str]]:
    """Parse ``n<TAB>y`` request lines; ``y`` is ``-`` for the empty output.

    A length field of more than ``MAX_LENGTH_DIGITS`` digits, or a length
    above ``bits.MAX_TEXT_LENGTH``, raises ValueError naming the line.
    """
    requests: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'n<TAB>y', got {line!r}")
        length = fields[0].strip()
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"line {lineno}: length {fields[0]!r} is not a natural number")
        if len(length) > MAX_LENGTH_DIGITS:
            raise ValueError(f"line {lineno}: length has {len(length)} digits, "
                             f"above the cap of {MAX_LENGTH_DIGITS}")
        n = int(length)
        if n > MAX_TEXT_LENGTH:
            raise ValueError(f"line {lineno}: length {n} is above the cap "
                             f"of {MAX_TEXT_LENGTH}")
        requests.append((n, parse_word(fields[1])))
    return requests
