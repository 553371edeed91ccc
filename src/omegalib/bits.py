"""Binary-word helpers and the rules shared by every text input.

Words are plain ``str`` over the alphabet {'0', '1'}; the empty word is
legal.  The canonical order used everywhere is length-then-lexicographic,
with the empty word least.  In text formats an empty word is written ``-``;
the caps on one input are the ``MAX_*`` constants below.  ``read_lines``
is the line loop of the rational reader and of the table reader's error
path; requests have their own one-pass loop, ``parse_request_lines``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

from .exact import Dyadic

_BITS = frozenset("01")

_T = TypeVar("_T")

# Caps on what one input may ask for, each checked before any output.
# Serving one length-n request builds about n**2 / 2 characters of spine
# words: at the length cap, ``omegalib allocate`` on the one line
# ``16384<TAB>-`` peaks at 153 MB of process RSS (17 MB on empty input) and
# takes 0.21-0.26 s of wall time, 0.10-0.14 s of it interpreter start-up
# (child ru_maxrss and wall clock, 5 runs, 2-CPU VM, Python 3.11.7).  Exact
# output is converted to decimal text in quadratic time: ``str(1 << e)``
# takes about 0.015 s at e = 10**5, and ``int()`` about 0.065 s on 10**5
# digits, which sizes the rest.
MAX_TEXT_LENGTH = 1 << 14       # request length, program length
MAX_LENGTH_DIGITS = 100         # a request-length field, before int()
MAX_RATIONAL_CHARS = 20_000     # one p/q line, after stripping
MAX_LEVEL = 100_000             # --n of test, --m of dominate


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
    word = ""
    while True:
        yield word
        word = successor(word)


def successor(word: str) -> str:
    """The word after ``word`` in length-then-lexicographic order."""
    if "0" not in word:
        return "0" * (len(word) + 1)
    return format(int(word, 2) + 1, f"0{len(word)}b")


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


def read_lines(lines: Iterable[str], parse_line: Callable[[str], _T]) -> list[_T]:
    """``parse_line`` of each stripped non-blank line, in order.

    Blank lines still count: a ValueError from ``parse_line`` is raised
    again as ``line N: <message>`` with ``N`` counted from 1.  A line that
    is not a ``str`` raises its own error, with no line number.
    """
    values = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            try:
                values.append(parse_line(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return values
