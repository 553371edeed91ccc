"""Command-line front end.

Subcommands: allocate, decompose, omega, compose, dominate, test, verify.
All numeric output is exact ``p/q``; ``--approx`` appends a ``~``-marked
decimal reading.  Exit codes: 0 success, 2 usage or parse error, 3
domain-level failure (mass exhaustion, measure violation, broken invariant,
a machine table that repeats a program or is not prefix-free).
Identical inputs always produce identical bytes.  Every subcommand raises
all its errors before it writes any output, and writes its output with one
``write`` call, so a command that stops with an ``error:`` message leaves
stdout empty.  Subcommands only raise; ``main`` alone writes every
``error:`` line and maps the exception to the exit code, 3 for an
``OmegalibError`` and 2 for a ``ValueError`` or ``OSError``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from math import gcd
from typing import Sequence

from . import ce_real, codespace, machines, solovay, verify
from .bits import MAX_LEVEL, MAX_RATIONAL_CHARS, format_word, read_lines
from .errors import InsufficientMass, OmegalibError
from .exact import as_fraction, format_rational, parse_rational

USAGE_ERROR = 2
DOMAIN_ERROR = 3


def _read_lines(path: str) -> list[str]:
    """The lines of a file, or of stdin for ``-``, as ASCII.

    A line ends at ``\\n``, ``\\r`` or ``\\r\\n`` and nowhere else, so another
    control byte stays inside its line.  The first byte that is not ASCII
    raises ValueError naming its line, counted by the same rule."""
    if path == "-":
        # An in-process text stdin (io.StringIO) is encoded back to its bytes.
        data = (sys.stdin.buffer.read() if hasattr(sys.stdin, "buffer")
                else sys.stdin.read().encode("utf-8", "surrogateescape"))
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # bytes.splitlines() breaks at the same three separators.
        line = len((data[:exc.start] + b".").splitlines())
        raise ValueError(f"line {line}: byte 0x{data[exc.start]:02x} "
                         "is not ASCII") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _read_table(path: str, label: str = "") -> machines.MachineTable:
    """Parse a machine table, refusing repeated or non-prefix-free programs."""
    table = machines.parse_table_lines(_read_lines(path))
    try:
        table.validate()
    except ValueError as exc:
        raise OmegalibError(f"{label}{exc}") from None
    return table


def _read_rationals(path: str) -> list[Fraction]:
    """The ``p/q`` lines of a file as fractions, skipping blank lines."""
    return read_lines(_read_lines(path), _rational_line)


def _rational_line(text: str) -> Fraction:
    if len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(f"{len(text)} characters, above the cap "
                         f"of {MAX_RATIONAL_CHARS} per rational")
    return parse_rational(text)


def _check_level(flag: str, level: int | None, cap: int | None = MAX_LEVEL) -> None:
    """Refuse a negative value of a numeric flag, or one above ``cap``."""
    if level is None:
        return
    if level < 0:
        raise ValueError(f"{flag} {level} is not a natural number")
    if cap is not None and level > cap:
        raise ValueError(f"{flag} {level} is above the cap of {cap}")


def _write(lines) -> None:
    """Write the output lines with one call to the current ``sys.stdout``.

    One join of the lines and an empty last one ends every line with a
    newline and holds each line once; no lines write ``""``."""
    sys.stdout.write("\n".join([*lines, ""]))


def _exact(value, approx: bool) -> str:
    text = format_rational(value)
    if approx:
        text += f"\t~{float(as_fraction(value)):.6f}"
    return text


def _cmd_allocate(args) -> int:
    requests = codespace.parse_request_lines(_read_lines(args.requests))
    # Outputs were checked when parsed; a refusal leaves the ledger as served.
    state = codespace.AllocatorState()
    lines = []
    for i, (n, y) in enumerate(requests, start=1):
        try:
            word = codespace.allocate(state, n)
        except InsufficientMass:
            free = format_rational(1 - as_fraction(state.mass_allocated))
            raise OmegalibError(f"kraft violation at request {i} (length {n}): "
                                f"free mass {free} < 2^-{n}") from None
        lines.append(f"{format_word(word)}\t{format_word(y)}")
    lines.append(f"mu\t{_exact(state.mass_allocated, args.approx)}")
    _write(lines)
    return 0


def _cmd_decompose(args) -> int:
    _check_level("--k", args.k, None)
    seq = ce_real.RationalSeq(_read_rationals(args.sequence))
    decomposition = ce_real.dyadic_decompose(seq, args.k)
    _write(f"{n}\t{_exact(r, args.approx)}"
           for n, r in zip(decomposition.lengths, decomposition.partials))
    return 0


def _cmd_omega(args) -> int:
    table = _read_table(args.table)
    stages = range(1, len(table) + 1)
    if args.k is not None:
        table.prefix(args.k)
        stages = (args.k,)
    # Each partial sum is written in lowest terms from its two integers.  Going
    # through _exact(Dyadic(sums[k], scale), ...) writes the same bytes, but
    # measured 1.4-2x slower per 200-entry table.
    sums, scale = machines.omega_sums(table)
    unit = 1 << scale
    lines = []
    for k in stages:
        g = gcd(sums[k], unit)
        line = f"{k}\t{sums[k] // g}/{unit // g}"
        lines.append(f"{line}\t~{sums[k] / unit:.6f}" if args.approx else line)
    _write(lines)
    return 0


def _cmd_compose(args) -> int:
    outer = _read_table(args.outer, "outer table: ")
    inner = _read_table(args.inner, "inner table: ")
    _write(machines.format_table_lines(machines.compose(outer, inner)))
    return 0


def _cmd_dominate(args) -> int:
    # Each flag the chosen mode reads is checked before any file is.
    if args.m is not None:
        _check_level("--m", args.m)
        _check_level("--depth", args.depth, None)
    else:
        _check_level("--c", args.c, None)
    a_terms = _read_rationals(args.a)
    b_terms = _read_rationals(args.b)
    if args.m is not None:
        depth = args.depth if args.depth is not None else min(len(a_terms),
                                                              len(b_terms))
        witness = solovay.extract_witness(ce_real.RationalSeq(a_terms),
                                          ce_real.RationalSeq(b_terms),
                                          args.m, depth)
        _write([f"{witness.exponent}\t"
                + ",".join(map(str, witness.stage_indices))])
        return 0
    if args.c is None:
        raise ValueError("dominate needs --c (check) or --m (witness)")
    verdict = solovay.check_domination(a_terms, b_terms, args.c)
    _write(["true" if verdict else "false"])
    return 0


def _cmd_test(args) -> int:
    _check_level("--n", args.n)
    _check_level("--depth", args.depth, None)
    a = ce_real.RationalSeq(_read_rationals(args.a))
    b = ce_real.RationalSeq(_read_rationals(args.b))
    stage = solovay.build_test(a, b, args.n, args.depth)
    _write(f"{i}\t-" if iv is None else
           f"{i}\t{format_rational(iv.lo)}\t{format_rational(iv.hi)}"
           for i, iv in enumerate(stage.intervals, start=1))
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suites([args.suite], seed=args.seed)
    lines = []
    total_passed = total_failed = 0
    for result in results:
        lines.append(f"{result.name}: {result.passed} passed, "
                     f"{result.failed} failed")
        lines.extend(f"  {message}" for message in result.failures)
        total_passed += result.passed
        total_failed += result.failed
    lines.append(f"total: {total_passed} passed, {total_failed} failed")
    _write(lines)
    return 0 if total_failed == 0 else DOMAIN_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared for the process."""
    parser = argparse.ArgumentParser(
        prog="omegalib",
        description="Exact prefix-free codeword allocation and halting-mass "
                    "arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate",
                       help="serve 'n<TAB>y' codeword requests from a file")
    p.add_argument("requests", help="request file, or - for stdin")
    p.add_argument("--approx", action="store_true",
                   help="append ~decimal readings")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("decompose",
                       help="dyadic staircase of an increasing rational sequence")
    p.add_argument("sequence", help="file of p/q lines, or - for stdin")
    p.add_argument("--k", type=int, required=True, help="prefix length")
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("omega", help="halting-mass partial sums of a table")
    p.add_argument("table", help="machine table file, or - for stdin")
    p.add_argument("--k", type=int, default=None,
                   help="single stage (default: all stages)")
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("compose", help="run one table on another's outputs")
    p.add_argument("outer", help="outer machine table file")
    p.add_argument("inner", help="inner machine table file")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("dominate",
                       help="check increment domination, or extract a witness")
    p.add_argument("a", help="file of p/q lines for the dominated sequence")
    p.add_argument("b", help="file of p/q lines for the dominating sequence")
    p.add_argument("--c", type=int, default=None, help="domination constant")
    p.add_argument("--m", type=int, default=None,
                   help="witness level (uses c = 2^m)")
    p.add_argument("--depth", type=int, default=None,
                   help="stages to scan for the witness")
    p.set_defaults(func=_cmd_dominate)

    p = sub.add_parser("test", help="build one level of the interval test")
    p.add_argument("a", help="file of p/q lines")
    p.add_argument("b", help="file of p/q lines")
    p.add_argument("--n", type=int, required=True, help="level")
    p.add_argument("--depth", type=int, required=True, help="stages to build")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("verify", help="run a deterministic property suite")
    p.add_argument("suite", choices=list(verify.SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact values outgrow CPython's int<->str digit limit; the caps bound
    # sizes instead.  The limit is lifted for this run only, because main
    # also runs in-process.  Options are parsed under the limit.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is not None:
        previous = get_limit()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except OmegalibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if get_limit is not None:
            sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
