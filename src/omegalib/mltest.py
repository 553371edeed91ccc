"""Levelled prefix sets: compressibility stages and effective null covers.

A stage is a finite prefix-free set of words promising cylinder measure at
most ``2**-level``.  Two constructions live here.  The compressibility test
collects, at stage ``k`` of a machine's enumeration, every output whose
shortest listed program undercuts its own length by more than ``m`` bits;
pruned to an antichain, level ``m`` of that family keeps measure within
``2**-m``.  The compression scheme goes the other way: stages at levels
``n*n`` are turned into codeword requests ``n`` bits shorter than each member
word, and the stage measure bounds make all those requests together fit in
one unit of code space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence
from math import isqrt

from .bits import length_lex_key, prefix_free, prune_to_minimal
from .errors import MeasureViolation, UnderlongString
from .exact import Dyadic, measure_of_lengths, pow2_neg
from .machines import MachineTable


@dataclass(frozen=True)
class PrefixSetStage:
    """A level together with a finite word set, stored in canonical order.

    The intended invariants — prefix-freeness and cylinder measure at most
    ``2**-level`` — are checked by ``validate``, not at construction, so that
    defective stages can be represented and then rejected.
    """

    level: int
    words: tuple[str, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.words), key=length_lex_key))
        object.__setattr__(self, "words", ordered)
        if self.level < 0:
            raise ValueError("stage levels are natural numbers")

    def measure(self) -> Dyadic:
        return measure_of_lengths(len(w) for w in self.words)

    def validate(self) -> None:
        """ValueError if not prefix-free; MeasureViolation over the budget."""
        if not prefix_free(self.words):
            raise ValueError("stage words are not prefix-free")
        if self.measure() > pow2_neg(self.level):
            raise MeasureViolation(
                f"stage at level {self.level} carries measure "
                f"{self.measure()} > 1/2^{self.level}")


def antichain_measure(words: Iterable[str]) -> Dyadic:
    """Exact cylinder measure of the words' union, after prefix pruning."""
    return measure_of_lengths(len(w) for w in prune_to_minimal(words))


def complexity_test_stage(table: MachineTable, margin: int, k: int) -> set[str]:
    """Outputs among the first ``k`` entries compressing by more than ``margin``.

    An output ``y`` qualifies when its shortest program among the first ``k``
    entries is shorter than ``len(y) - margin``.
    """
    shortest: dict[str, int] = {}
    for p, y in table.prefix(k):
        if y not in shortest or len(p) < shortest[y]:
            shortest[y] = len(p)
    return {y for y, h in shortest.items() if h < len(y) - margin}


def _stage_root(level: int) -> int:
    root = isqrt(level)
    if root * root != level or root < 2:
        raise ValueError(f"stage level {level} is not a square of some n >= 2")
    return root


def compression_requests(stages: Sequence[PrefixSetStage]) -> list[tuple[int, str]]:
    """Turn ``n*n``-levelled stages into allocator requests ``n`` bits shorter.

    Stage words at level ``n*n`` become requests ``(len(word) - n, word)``, in
    stage order and canonical word order.  Words shorter than their ``n``
    raise UnderlongString; stages over their measure budget raise
    MeasureViolation; roots must strictly increase from at least 2.  The
    total requested mass is re-verified to fit one unit of code space.
    """
    requests: list[tuple[int, str]] = []
    previous_root = 1
    for stage in stages:
        root = _stage_root(stage.level)
        if root <= previous_root:
            raise ValueError("stage roots must strictly increase")
        previous_root = root
        for word in stage.words:
            if len(word) < root:
                raise UnderlongString(
                    f"word {word!r} is shorter than the margin {root}")
        stage.validate()
        requests.extend((len(word) - root, word) for word in stage.words)
    total = measure_of_lengths(n for n, _ in requests)
    if total > 1:
        raise MeasureViolation(f"requests carry mass {total} > 1")
    return requests


def stage_membership(alpha_bits: str, stage: PrefixSetStage) -> bool:
    """True when some stage word is a prefix of ``alpha_bits``.

    This is cylinder membership for the finite approximation ``alpha_bits``:
    the empty word, if present, covers everything.  Membership is monotone
    under extending ``alpha_bits``.
    """
    return any(alpha_bits.startswith(w) for w in stage.words)
