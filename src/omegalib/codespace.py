"""Incremental allocation of prefix-free codewords with exact mass accounting.

The allocator owns a pool of *free prefixes*: binary words whose cylinders
partition the part of code space not yet spoken for.  The pool is kept
shortest first, strictly sorted by increasing length, which forces
pairwise-distinct lengths and makes "the longest free word of length <= n" the
last word of length <= n in pool order.  The lengths start at 0 or more and
rise by at least one per index, so that word sits at an index <= n and the
search is bounded by ``n + 1``.  Serving a length-``n`` request splits that
word's subtree: the all-zeros extension of length ``n`` becomes the new
codeword and the siblings along the spine return to the pool, in its place and
shortest first.  The split has three shapes: an exact fit issues the word
itself and removes it, a one-step split overwrites it with its one sibling,
and a deeper split walks the spine once, one concatenation per sibling with
the codeword grown along the way, and splices in the siblings.  So a request
costs one bounded search plus work proportional to its split depth.  The split
lives only in ``allocate``; ``extend_prefix`` is ``allocate`` on a one-word
pool.
The mass ledger is a raw integer at the scale of the longest issued length,
canonical on read.  Five checkable invariants tie it together: the free pool
plus the issued codewords stay prefix-free, together they carry measure
exactly one, the issued mass matches the ledger, pending request lengths fit
inside the free measure, and the pool lengths stay strictly increasing.  The
pick's bounded binary search relies on the last one: a hand-built pool that
breaks it is not a valid ``allocate`` input.
``check_invariants`` re-derives all five from the raw state in one sweep: one
sort of the union with a test of adjacent words for prefixes, and masses summed
as integers at one common scale.  When the union fails, the report names a
witness: the first overlapping pair, or else the first gap in code space.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from operator import lt
from typing import Iterable, Sequence

from .bits import (MAX_LENGTH_DIGITS, MAX_TEXT_LENGTH, bit_value, parse_word,
                   validate_bits)
from .errors import InsufficientMass, OmegalibError
from .exact import DYADIC_ZERO, Dyadic, pow2_neg


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
        raise OmegalibError(
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
    strictly sorted pool (such a word exists exactly when the free measure
    is at least ``2**-n``) and appends its all-zeros extension of length
    ``n`` to ``state.allocated``.  Pool lengths are natural numbers in
    strictly increasing order, so the word at index ``i`` is at least ``i``
    long and every fit lies below index ``n + 1``: the search stops there.
    The split has three shapes.  An exact fit issues the stem itself and
    drops it from the pool; a one-step split issues ``stem + "0"`` and
    writes ``stem + "1"`` into the stem's slot; a deeper split walks the
    spine once, one concatenation per sibling, growing the codeword along
    the way, and splices the siblings into the stem's slot, shortest first.
    So a request costs one bounded search plus work proportional to its
    split depth.  Raises ValueError for a negative ``n`` and
    InsufficientMass when no word fits.  The ledger grows by one
    shift-and-add before the pool changes, so a length that is not an int
    fails before the pool does and a call that raises leaves the state as
    it was.  Pool words are the allocator's own and are not re-validated.
    """
    free = state.free
    # hi = min(n + 1, len(free)), without the cost of a builtin call.
    hi = len(free)
    if n < hi:
        hi = n + 1
    pick = bisect_right(free, n, 0, hi, key=len) - 1
    if pick < 0:
        # A negative n fits nowhere, so it is told apart only here.
        if n < 0:
            raise ValueError("codeword lengths are natural numbers")
        raise InsufficientMass(n)
    scale = state._scale
    if n > scale:
        state._issued = (state._issued << (n - scale)) + 1
        state._scale = n
    else:
        state._issued += 1 << (scale - n)
    stem = free[pick]
    depth = n - len(stem)
    if depth == 0:
        del free[pick]
        word = stem
    elif depth == 1:
        word = stem + "0"
        free[pick] = stem + "1"
    else:
        siblings = []
        word = stem
        for _ in range(depth):
            siblings.append(word + "1")
            word += "0"
        free[pick:pick + 1] = siblings
    state.allocated.append(word)
    return word


def allocate_all(requests: Iterable[tuple[int, str]]) -> list[tuple[str, str]]:
    """Serve ``(length, output)`` requests in order from a fresh state.

    Returns the ``(codeword, output)`` pairs.  Each output is checked by
    ``validate_bits`` once its request is served, so the first bad request
    raises its own error.  On the first request that cannot be served,
    raises InsufficientMass carrying that request's zero-based index.
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
    """Outcome of the five allocator invariants; ``None`` means not checked.

    ``witness`` names why the union failed, when it did: the first
    overlapping pair ``(u, v)`` of adjacent sorted words (``v`` starts with
    ``u``), or else the first stretch ``(start, end)`` of [0, 1), as
    ``Dyadic`` endpoints, that no word covers.  It is ``None`` otherwise."""

    union_prefix_free: bool
    union_measure_is_one: bool
    mass_matches_ledger: bool
    remaining_requests_fit: bool | None
    free_lengths_distinct: bool
    witness: tuple[str, str] | tuple[Dyadic, Dyadic] | None = None

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        return [f.name for f in fields(self) if getattr(self, f.name) is False]


# Reports are immutable and a passing one names no witness, so the two
# passing reports (pending lengths checked or not) are built once.
_PASSING = {fit: InvariantReport(True, True, True, fit, True) for fit in (True, None)}


def check_invariants(state: AllocatorState,
                     remaining_lengths: Sequence[int] | None = None) -> InvariantReport:
    """Recompute the five allocator invariants exactly from the raw state.

    One sweep over the union of free and issued words: their lengths are
    taken once, every mass is an integer count of units of ``2**-scale`` at
    one common scale (the longest word, ledger or pending length), and the
    issued mass is the union's minus the pool's.  The union is sorted once;
    a sorted list of words is prefix-free exactly when no word starts with
    its predecessor.  Nothing is read from the allocator's own bookkeeping
    but the ledger, so the report is meaningful even for hand-built states.
    ``remaining_lengths`` (the lengths of requests still to come) enables
    the pending-requests-fit check; omitted, that field of the report is
    ``None``.  The witness is looked for only after the union check has
    failed, so a passing state pays nothing for it.
    """
    free = state.free
    union = free + state.allocated
    lengths = [*map(len, union)]
    scale = max(lengths) if lengths else 0
    if state._scale > scale:
        scale = state._scale
    if remaining_lengths:
        longest = max(remaining_lengths)
        if longest > scale:
            scale = longest
    unit = 1 << scale
    weight = unit.__rshift__
    free_lengths = lengths[:len(free)]
    free_mass = sum(map(weight, free_lengths))
    union_mass = sum(map(weight, lengths))

    if remaining_lengths is None:
        fit = None
    else:
        try:
            pending = sum(map(weight, remaining_lengths))
        except ValueError:      # a negative pending length: unit >> n refuses it
            pending = sum(1 << (scale - n) for n in remaining_lengths)
        fit = pending <= free_mass

    union.sort()
    prefix_free = not any(map(str.startswith, union[1:], union))
    measure_is_one = union_mass == unit
    ledger_ok = union_mass - free_mass == state._issued << (scale - state._scale)
    distinct = all(map(lt, free_lengths, free_lengths[1:]))
    if not prefix_free:
        witness = next(pair for pair in zip(union, union[1:])
                       if pair[1].startswith(pair[0]))
    elif not measure_is_one:
        witness = _first_gap(union)
    elif ledger_ok and distinct and fit is not False:
        return _PASSING[fit]
    else:
        witness = None
    return InvariantReport(prefix_free, measure_is_one, ledger_ok, fit, distinct, witness)


def _first_gap(ordered: list[str]) -> tuple[Dyadic, Dyadic] | None:
    """The first stretch of [0, 1) that no word of ``ordered`` covers.

    ``ordered`` is sorted, prefix-free and of measure below one, so its
    cylinders are disjoint intervals in increasing order and one of them
    ends short of the next, or of 1.  ``None`` if a hand-built word is not
    binary.
    """
    try:
        starts = [bit_value(w) for w in ordered]
    except ValueError:
        return None
    covered = DYADIC_ZERO
    for w, start in zip(ordered, starts):
        if start > covered:
            return covered, start
        covered = start + pow2_neg(len(w))
    return covered, Dyadic(1)


# The most distinct lines one ``parse_request_lines`` call shares.  On an
# all-distinct 45,000-line file a dict of every line made the call 25-30%
# slower than parsing each line afresh, and this cap 11-16% slower; the 2,599
# distinct lines of an ``alloc_stream``-shaped file all fit, and sharing them
# parses it 7 times faster (best of 25, 2-CPU VM, Python 3.11.7).
_SHARED_LINES = 1 << 13


def parse_request_lines(lines: Iterable[str]) -> list[tuple[int, str]]:
    """Parse ``n<TAB>y`` request lines; ``y`` is ``-`` for the empty output.

    One loop checks each line as it reads it, and every error names its
    line, counted from 1 with blank lines included.  A length field of more
    than ``bits.MAX_LENGTH_DIGITS`` digits, or a length above
    ``bits.MAX_TEXT_LENGTH``, raises ValueError; a line that is not a
    ``str`` raises its own error.  Each distinct line is parsed once, by
    ``_request_line``: a dict keyed on the raw line keeps its ``(n, y)``
    tuple, and every repeat of the line shares that tuple.  The dict stops
    growing at ``_SHARED_LINES`` lines; a line first seen after that is
    parsed at each occurrence.
    """
    requests = []
    append = requests.append
    seen: dict = {}
    get = seen.get
    blanks = 0
    for raw in lines:
        try:
            request = get(raw)
        except TypeError:       # an unhashable line: its strip() raises below
            request = None
        if request is None:
            line = raw.strip()
            if not line:
                blanks += 1
                continue
            try:
                request = _request_line(line)
            except ValueError as exc:
                lineno = len(requests) + blanks + 1
                raise ValueError(f"line {lineno}: {exc}") from None
            if len(seen) < _SHARED_LINES:
                seen[raw] = request
        append(request)
    return requests


def _request_line(line: str) -> tuple[int, str]:
    fields = line.split("\t")
    if len(fields) != 2:
        raise ValueError(f"expected 'n<TAB>y', got {line!r}")
    length = fields[0].strip()
    if not (length.isascii() and length.isdigit()):
        raise ValueError(f"length {fields[0]!r} is not a natural number")
    if len(length) > MAX_LENGTH_DIGITS:
        raise ValueError(f"length has {len(length)} digits, "
                         f"above the cap of {MAX_LENGTH_DIGITS}")
    n = int(length)
    if n > MAX_TEXT_LENGTH:
        raise ValueError(f"length {n} is above the cap of {MAX_TEXT_LENGTH}")
    return n, parse_word(fields[1])
