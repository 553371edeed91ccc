"""Binary-word helpers: validation, canonical order, prefix machinery.

Words are plain ``str`` over the alphabet {'0', '1'}; the empty word is
legal.  The canonical order used everywhere is length-then-lexicographic,
with the empty word least.  In text formats an empty word is written ``-``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .exact import Dyadic

_BITS = frozenset("01")

# Longest request or program length the text formats accept.  Serving one
# length-n request builds about n**2 / 2 characters of spine words: at this
# cap, ``omegalib allocate`` on the one line ``16384<TAB>-`` peaks at 153 MB
# of process RSS (17 MB on empty input) and takes 0.21-0.26 s of wall time,
# 0.10-0.14 s of it interpreter start-up (child ru_maxrss and wall clock,
# 5 runs, 2-CPU VM, Python 3.11.7).
MAX_TEXT_LENGTH = 1 << 14


def validate_bits(word: str) -> str:
    """Return ``word`` if it is a ``str`` over {'0', '1'}.

    Raises TypeError for anything but a ``str`` (a tuple of bits is not a
    word) and ValueError for a string with another character.
    """
    if not isinstance(word, str):
        raise TypeError(f"a binary word is a str, got {word!r}")
    if not _BITS.issuperset(word):
        raise ValueError(f"not a binary word: {word!r}")
    return word


def prefix_free(words: Iterable[str]) -> bool:
    """True when no listed word is a prefix of another listed word.

    Repeated words count as violations: the check is about the listing,
    and a word is trivially a prefix of its duplicate.
    """
    ordered = sorted(words)
    return not any(map(str.startswith, ordered[1:], ordered))


def prune_to_minimal(words: Iterable[str]) -> list[str]:
    """Keep only words with no proper prefix in the collection.

    The survivors form an antichain denoting the same cylinder set; when a
    word and an extension of it both occur, the shorter one is kept.
    Returned lexicographically sorted.
    """
    kept: list[str] = []
    for w in sorted(set(words)):
        if not (kept and w.startswith(kept[-1])):
            kept.append(w)
    return kept


def length_lex_key(word: str) -> tuple[int, str]:
    """Sort key realizing the canonical length-then-lexicographic order."""
    return (len(word), word)


def iter_length_lex() -> Iterator[str]:
    """Yield every binary word in canonical order: '', '0', '1', '00', ..."""
    length = 0
    while True:
        if length == 0:
            yield ""
        else:
            for i in range(1 << length):
                yield format(i, f"0{length}b")
        length += 1


def bit_value(word: str) -> Dyadic:
    """The dyadic ``0.word`` — the left endpoint of the word's cylinder."""
    validate_bits(word)
    return Dyadic(int(word, 2) if word else 0, len(word))


def format_word(word: str) -> str:
    return word if word else "-"


def parse_word(token: str) -> str:
    if token == "-":
        return ""
    return validate_bits(token)
