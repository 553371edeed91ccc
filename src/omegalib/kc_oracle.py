"""Structurally recursive reference allocator, used as a differential oracle.

These functions mirror a set of rewrite rules for the codeword allocator and
keep that formulation's quirks on purpose: length lists are consumed from the
back, results come out newest first, and a request no free word can satisfy
silently leaves everything unchanged instead of failing.  Pools are plain
lists of binary words with no enforced invariants.  The bridge to the
imperative allocator is::

    list(reversed(kc_ref(list(reversed(lengths))))) ==
        [word for word, _ in allocate_all((n, "") for n in lengths)]

whenever the lengths satisfy ``sum(2**-n) <= 1``.  Nothing here imports the
imperative side, so the two paths stay independent.
"""

from __future__ import annotations

from typing import Sequence


def extend_ref(stem: str, depth: int) -> list[str]:
    """Unfold ``stem`` for ``depth`` extra levels of zero-spine splitting."""
    if depth == 0:
        return [stem]
    prev = extend_ref(stem, depth - 1)
    return [prev[0] + "0", prev[0] + "1", *prev[1:]]


def kcstep_ref(allocated: Sequence[str], free: Sequence[str],
               n: int) -> tuple[list[str], list[str]]:
    """Serve one length-``n`` request against the first fitting free word.

    Scans the pool front to back for the first word of length <= n, splits
    it, and conses the new codeword onto ``allocated``.  An exhausted pool —
    or one with no fitting word — returns the inputs unchanged.
    """
    if not free:
        return list(allocated), []
    head, rest = free[0], free[1:]
    if len(head) <= n:
        grown = extend_ref(head, n - len(head))
        return [grown[0], *allocated], [*grown[1:], *rest]
    inner_alloc, inner_free = kcstep_ref(allocated, rest, n)
    return inner_alloc, [head, *inner_free]


def kcloop_ref(lengths: Sequence[int], state: tuple[Sequence[str], Sequence[str]],
               ) -> tuple[list[str], list[str]]:
    """Fold ``kcstep_ref`` over the length list, back to front."""
    if not lengths:
        return list(state[0]), list(state[1])
    allocated, free = kcloop_ref(lengths[1:], state)
    return kcstep_ref(allocated, free, lengths[0])


def kc_ref(lengths: Sequence[int]) -> list[str]:
    """Codewords for the requested lengths, newest first.

    Starts from the pool holding only the empty word; requests are served
    from the end of ``lengths`` towards the front, and unservable requests
    are skipped silently.
    """
    return kcloop_ref(list(lengths), ([], [""]))[0]


# -- predicates over words and pools, same rewrite-rule semantics ---------

def prefixes_ref(x: str, y: str) -> bool:
    """True when either word is a prefix of the other (an empty word always is)."""
    k = min(len(x), len(y))
    return x[:k] == y[:k]


def incomparable_ref(x: str, pool: Sequence[str]) -> bool:
    """True when ``x`` is prefix-incomparable with every word in the pool."""
    return all(not prefixes_ref(x, y) for y in pool)


def prefixfree_ref(pool: Sequence[str]) -> bool:
    """True when the pool's words are pairwise prefix-incomparable.

    A repeated word is comparable with its duplicate, so listings with
    repeats are rejected.
    """
    return all(incomparable_ref(pool[i], pool[i + 1:]) for i in range(len(pool)))


def strictlysorted_ref(pool: Sequence[str]) -> bool:
    """True when pool word lengths strictly decrease front to back."""
    return all(len(pool[i]) > len(pool[i + 1]) for i in range(len(pool) - 1))


def lengths_match_ref(words: Sequence[str], lengths: Sequence[int]) -> bool:
    """True when the two lists align position by position, same length lists."""
    return len(words) == len(lengths) and all(
        len(w) == n for w, n in zip(words, lengths))


def extends_ref(longer: Sequence[str], shorter: Sequence[str]) -> bool:
    """True when ``longer`` continues ``shorter`` element for element.

    Every element of ``shorter`` must be present at the same position in
    ``longer``; ``longer`` may then carry on with anything.
    """
    if len(longer) < len(shorter):
        return False
    return all(a == b for a, b in zip(longer, shorter))
