"""Command-line interface: output bytes, exit codes, stdin handling."""

import contextlib
import hashlib
import io
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omegalib import ce_real, cli, codespace, machines, verify
from omegalib.bits import format_word, parse_word
from omegalib.cli import MAX_RATIONAL_CHARS, build_parser, main
from omegalib.errors import InsufficientMass, OmegalibError
from omegalib.exact import (Dyadic, as_fraction, format_rational, measure_of_lengths,
                            parse_rational)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAllocate:
    def test_basic_allocation(self, tmp_path, capsys):
        requests = write(tmp_path, "req.tsv", "2\t1\n2\t0\n")
        code, out, err = run(capsys, ["allocate", requests])
        assert code == 0
        assert out == "00\t1\n01\t0\nmu\t1/2\n"
        assert err == ""

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\t-\n"))
        code, out, _ = run(capsys, ["allocate", "-"])
        assert code == 0
        assert out == "0\t-\nmu\t1/2\n"

    def test_approx_marks_decimal(self, tmp_path, capsys):
        requests = write(tmp_path, "req.tsv", "2\t1\n")
        code, out, _ = run(capsys, ["allocate", requests, "--approx"])
        assert code == 0
        assert out.endswith("mu\t1/4\t~0.250000\n")

    def test_kraft_violation_exits_3(self, tmp_path, capsys):
        requests = write(tmp_path, "req.tsv", "1\t-\n1\t-\n1\t-\n")
        code, out, err = run(capsys, ["allocate", requests])
        assert code == 3
        assert "kraft violation at request 3 (length 1)" in err

    def test_kraft_violation_states_free_and_requested_mass(self, tmp_path, capsys):
        requests = write(tmp_path, "req.tsv", "1\t-\n2\t-\n1\t-\n")
        code, out, err = run(capsys, ["allocate", requests])
        assert code == 3
        assert out == ""
        assert err == ("error: kraft violation at request 3 (length 1): "
                       "free mass 1/4 < 2^-1\n")

    def test_malformed_line_exits_2(self, tmp_path, capsys):
        requests = write(tmp_path, "req.tsv", "two\t1\n")
        code, _, err = run(capsys, ["allocate", requests])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("length", ["1_2", "+3", "\u0661\u0662", "\u00b2"])
    def test_non_ascii_digit_length_exits_2(self, capsys, monkeypatch, length):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"1\t-\n{length}\t-\n"))
        code, out, err = run(capsys, ["allocate", "-"])
        assert code == 2
        assert out == ""
        if length.isascii():
            assert err.startswith("error: line 2: length ")
        else:
            # Stdin is read as ASCII bytes: the first UTF-8 byte is refused.
            assert err == (f"error: line 2: byte 0x{length.encode()[0]:02x} "
                           "is not ASCII\n")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, ["allocate", str(tmp_path / "nope.tsv")])
        assert code == 2
        assert err.startswith("error:")

    def test_identical_input_identical_bytes(self, tmp_path, capsys):
        requests = write(tmp_path, "req.tsv", "3\t1\n2\t0\n3\t1\n")
        _, first, _ = run(capsys, ["allocate", requests])
        _, second, _ = run(capsys, ["allocate", requests])
        assert first == second

    def test_empty_codeword_is_written_as_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0\t1\n"))
        assert run(capsys, ["allocate", "-"]) == (0, "-\t1\nmu\t1/1\n", "")


class TestAllocateOutputReadsBack:
    """``allocate`` output without its ``mu`` line is a machine table, the
    one ``allocate_all`` builds from the same requests."""

    def check(self, tmp_path, text):
        code, out, err = _run_quietly(["allocate", write(tmp_path, "req.tsv", text)])
        assert (code, err) == (0, "")
        *lines, mu = out.splitlines()
        assert mu.startswith("mu\t")
        requests = codespace.parse_request_lines(text.splitlines())
        assert machines.parse_table_lines(lines) == \
            machines.MachineTable(tuple(codespace.allocate_all(requests)))

    def test_seeded_request_files(self, tmp_path):
        rng = random.Random(15)
        for _ in range(150):
            self.check(tmp_path, "".join(
                f"{n}\t{format_word(verify.random_word(rng, 4))}\n"
                for n in verify.random_kraft_lengths(rng, 12, 10)))

    # A length-0 request takes all of code space, so it is served only as
    # the first line, and its codeword is the empty word.
    @pytest.mark.parametrize("text", ["0\t-\n", "0\t01\n"])
    def test_length_zero_request(self, tmp_path, text):
        self.check(tmp_path, text)


class TestDecompose:
    def test_reference_staircase(self, tmp_path, capsys):
        sequence = write(tmp_path, "seq.txt", "3/10\n1/2\n")
        code, out, _ = run(capsys, ["decompose", sequence, "--k", "2"])
        assert code == 0
        assert out == "2\t1/4\n2\t1/2\n"

    def test_k_is_required(self, tmp_path, capsys):
        sequence = write(tmp_path, "seq.txt", "1/2\n")
        with pytest.raises(SystemExit) as exc:
            main(["decompose", sequence])
        assert exc.value.code == 2

    def test_non_increasing_sequence_exits_3(self, tmp_path, capsys):
        sequence = write(tmp_path, "seq.txt", "1/2\n1/2\n")
        code, _, err = run(capsys, ["decompose", sequence, "--k", "2"])
        assert code == 3
        assert err.startswith("error:")


class TestOmega:
    def test_all_stages(self, tmp_path, capsys):
        table = write(tmp_path, "u.tsv", "0\t1\n10\t0\n")
        code, out, _ = run(capsys, ["omega", table])
        assert code == 0
        assert out == "1\t1/2\n2\t3/4\n"

    def test_single_stage(self, tmp_path, capsys):
        table = write(tmp_path, "u.tsv", "0\t1\n10\t0\n")
        code, out, _ = run(capsys, ["omega", table, "--k", "1"])
        assert code == 0
        assert out == "1\t1/2\n"

    def test_stage_out_of_range_exits_3(self, tmp_path, capsys):
        table = write(tmp_path, "u.tsv", "0\t1\n")
        code, _, err = run(capsys, ["omega", table, "--k", "5"])
        assert code == 3
        assert err.startswith("error:")

    def test_all_stages_match_single_stages(self, tmp_path, capsys):
        table = write(tmp_path, "u.tsv", "110\t1\n0\t-\n1110\t0\n10\t1\n")
        code, out, _ = run(capsys, ["omega", table, "--approx"])
        assert code == 0
        singles = []
        for k in range(1, 5):
            _, line, _ = run(capsys, ["omega", table, "--k", str(k), "--approx"])
            singles.append(line)
        assert out == "".join(singles)
        assert out.splitlines()[-1] == "4\t15/16\t~0.937500"

    def test_empty_table_prints_nothing(self, tmp_path, capsys):
        table = write(tmp_path, "u.tsv", "")
        assert run(capsys, ["omega", table]) == (0, "", "")

    @pytest.mark.parametrize("k", [None, "1"])
    def test_repeated_program_exits_3(self, capsys, monkeypatch, k):
        monkeypatch.setattr("sys.stdin", io.StringIO("0\t1\n0\t0\n1\t1\n"))
        argv = ["omega", "-"] + (["--k", k] if k else [])
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "error: machine table repeats a program\n"

    def test_non_prefix_free_exits_3(self, tmp_path, capsys):
        table = write(tmp_path, "u.tsv", "0\t1\n01\t0\n")
        code, out, err = run(capsys, ["omega", table])
        assert (code, out) == (3, "")
        assert err == "error: machine programs are not prefix-free\n"


class TestCompose:
    def test_runs_outer_on_inner_outputs(self, tmp_path, capsys):
        outer = write(tmp_path, "outer.tsv", "0\t1\n10\t0\n")
        inner = write(tmp_path, "inner.tsv", "00\t0\n01\t0\n100\t10\n")
        code, out, _ = run(capsys, ["compose", outer, inner])
        assert code == 0
        assert out == "00\t1\n01\t1\n100\t0\n"

    def test_repeated_outer_program_exits_3(self, tmp_path, capsys):
        outer = write(tmp_path, "outer.tsv", "0\t1\n0\t0\n")
        inner = write(tmp_path, "inner.tsv", "00\t0\n")
        code, out, err = run(capsys, ["compose", outer, inner])
        assert (code, out) == (3, "")
        assert err == "error: outer table: machine table repeats a program\n"

    def test_non_prefix_free_inner_exits_3(self, tmp_path, capsys):
        outer = write(tmp_path, "outer.tsv", "0\t1\n")
        inner = write(tmp_path, "inner.tsv", "0\t0\n00\t0\n")
        code, out, err = run(capsys, ["compose", outer, inner])
        assert (code, out) == (3, "")
        assert err == ("error: inner table: machine programs are not "
                       "prefix-free\n")


class TestDominate:
    def test_check_true_and_false(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1/4\n1/2\n")
        b = write(tmp_path, "b.txt", "0/1\n1/8\n")
        code, out, _ = run(capsys, ["dominate", a, b, "--c", "2"])
        assert (code, out) == (0, "true\n")
        code, out, _ = run(capsys, ["dominate", a, b, "--c", "0"])
        assert (code, out) == (0, "false\n")

    def test_witness_mode(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1/4\n1/2\n3/4\n")
        b = write(tmp_path, "b.txt", "1/8\n1/4\n3/8\n")
        code, out, _ = run(capsys, ["dominate", a, b, "--m", "1"])
        assert code == 0
        assert out == "1\t1,2,3\n"

    def test_needs_c_or_m(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1/4\n")
        b = write(tmp_path, "b.txt", "1/8\n")
        assert run(capsys, ["dominate", a, b]) == (
            2, "", "error: dominate needs --c (check) or --m (witness)\n")

    def test_length_mismatch_exits_3(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1/4\n1/2\n")
        b = write(tmp_path, "b.txt", "1/8\n")
        code, _, err = run(capsys, ["dominate", a, b, "--c", "1"])
        assert code == 3
        assert err.startswith("error:")


class TestDomainFailures:
    """A bad or short sequence file, and prefixes of unequal length, exit 3
    with an empty stdout and the message on stderr, byte for byte.  (The
    stage bound is pinned the same way in ``test_machines``.)"""

    FILES = {"a.txt": "1/4\n1/2\n3/4\n", "b.txt": "1/8\n1/4\n",
             "down.txt": "1/2\n1/4\n3/4\n", "out.txt": "1/4\n3/2\n"}

    @pytest.mark.parametrize("argv, message", [
        (["decompose", "a.txt", "--k", "5"],
         "sequence ended after 3 terms, 5 were requested"),
        (["decompose", "down.txt", "--k", "3"],
         "term 1/4 does not increase past 1/2"),
        (["decompose", "out.txt", "--k", "2"], "term 3/2 is outside (0, 1)"),
        (["dominate", "a.txt", "b.txt", "--c", "1"],
         "prefix lengths differ: 3 vs 2"),
    ], ids=["exhausted", "non-increasing", "outside", "length mismatch"])
    def test_exit_3_and_exact_message(self, tmp_path, capsys, argv, message):
        for name, text in self.FILES.items():
            write(tmp_path, name, text)
        argv = [str(tmp_path / x) if x in self.FILES else x for x in argv]
        assert run(capsys, argv) == (3, "", f"error: {message}\n")


class TestIntervalTest:
    def test_stage_dump(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1/4\n9/32\n1/2\n")
        b = write(tmp_path, "b.txt", "1/8\n1/4\n3/8\n")
        code, out, _ = run(capsys, ["test", a, b, "--n", "1",
                                    "--depth", "3"])
        assert code == 0
        assert out == "1\t1/4\t5/16\n2\t-\n3\t1/2\t5/8\n"


class TestRationalGrammar:
    MESSAGES = {"1/0": "line 2: zero denominator in '1/0'",
                "1e-9": "line 2: not a rational 'p/q' or integer: '1e-9'",
                "0.5": "line 2: not a rational 'p/q' or integer: '0.5'"}

    @pytest.mark.parametrize("line", ["1/0", "1e-9", "0.5"])
    @pytest.mark.parametrize("command", ["decompose", "test", "dominate"])
    def test_rejected_with_exit_2(self, tmp_path, capsys, command, line):
        bad = write(tmp_path, "bad.txt", f"1/4\n{line}\n")
        good = write(tmp_path, "good.txt", "1/8\n1/4\n")
        argv = {"decompose": ["decompose", bad, "--k", "2"],
                "test": ["test", bad, good, "--n", "1", "--depth", "2"],
                "dominate": ["dominate", bad, good, "--c", "2"]}[command]
        assert run(capsys, argv) == (2, "", f"error: {self.MESSAGES[line]}\n")

    @pytest.mark.parametrize("command", ["decompose", "test", "dominate"])
    def test_blank_lines_are_skipped(self, tmp_path, capsys, command):
        plain = write(tmp_path, "plain.txt", "1/4\n9/32\n1/2\n")
        blank = write(tmp_path, "blank.txt", "\n1/4\n\n  \n9/32\n1/2\n\n")
        b = write(tmp_path, "b.txt", "1/8\n1/4\n3/8\n")
        argv = {"decompose": lambda a: ["decompose", a, "--k", "3"],
                "test": lambda a: ["test", a, b, "--n", "1", "--depth", "3"],
                "dominate": lambda a: ["dominate", a, b, "--m", "1"]}[command]
        expected = run(capsys, argv(plain))
        assert expected[0] == 0 and expected[1]
        assert run(capsys, argv(blank)) == expected


class TestWordErrorsNameTheLine:
    """A word that is not binary: exit 2, no output, the line named."""

    @pytest.mark.parametrize("text, message", [
        ("0\t-\n12\t1\n", "line 2: not a binary word: '12'"),
        ("0\t-\n\n10\t2\n", "line 3: not a binary word: '2'"),
    ], ids=["program", "output"])
    def test_omega_table(self, tmp_path, capsys, text, message):
        table = write(tmp_path, "u.tsv", text)
        assert run(capsys, ["omega", table]) == (2, "", f"error: {message}\n")

    def test_compose_inner_table(self, tmp_path, capsys):
        outer = write(tmp_path, "outer.tsv", "0\t1\n")
        inner = write(tmp_path, "inner.tsv", "00\t0\n0a\t0\n")
        assert run(capsys, ["compose", outer, inner]) == (
            2, "", "error: line 2: not a binary word: '0a'\n")

    def test_allocate_request(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\t-\n2\tx1\n"))
        assert run(capsys, ["allocate", "-"]) == (
            2, "", "error: line 2: not a binary word: 'x1'\n")

    def test_parse_word_message_unchanged(self):
        with pytest.raises(ValueError, match=r"^not a binary word: '12'$"):
            parse_word("12")


# 2**14000 has 4,215 decimal digits and 2**14400 has 4,335: just under and
# just over CPython's default 4,300-digit int<->str limit.
UNDER, OVER = 14_000, 14_400


class TestPastDigitLimit:
    """Exact output and input beyond CPython's default int<->str limit, run
    under that limit; only the expected text is built without it."""

    @pytest.mark.parametrize("n", [UNDER, OVER])
    def test_allocate(self, capsys, monkeypatch, int_text, n):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{n}\t-\n"))
        expected = "0" * n + f"\t-\nmu\t1/{int_text(1 << n)}\n"
        assert run(capsys, ["allocate", "-"]) == (0, expected, "")

    @pytest.mark.parametrize("n", [UNDER, OVER])
    def test_omega(self, tmp_path, capsys, int_text, n):
        table = write(tmp_path, "u.tsv", f"1\t-\n{'0' * n}\t1\n")
        expected = f"1\t1/2\n2\t{int_text((1 << (n - 1)) + 1)}/{int_text(1 << n)}\n"
        assert run(capsys, ["omega", table]) == (0, expected, "")

    @pytest.mark.parametrize("n", [UNDER, OVER])
    def test_interval_test(self, tmp_path, capsys, int_text, n):
        a = write(tmp_path, "a.txt", "1/4\n")
        b = write(tmp_path, "b.txt", "1/8\n")
        hi = Fraction(1, 4) + Fraction(1, 8 << n)
        expected = f"1\t1/4\t{int_text(hi.numerator)}/{int_text(hi.denominator)}\n"
        assert run(capsys, ["test", a, b, "--n", str(n), "--depth", "1"]) == (
            0, expected, "")

    @pytest.mark.parametrize("power", [9_000, 9_020])
    def test_decompose(self, tmp_path, capsys, int_text, power):
        # 3**9000 has 4,295 digits and 3**9020 has 4,304.
        den = 3 ** power
        sequence = write(tmp_path, "seq.txt", f"1/{int_text(den)}\n")
        n = den.bit_length()            # least n with 2**n >= 3**power
        assert run(capsys, ["decompose", sequence, "--k", "1"]) == (
            0, f"{n}\t1/{int_text(1 << n)}\n", "")


class TestInputCaps:
    """Past a cap: exit 2, no output, and a message naming the cap."""

    @pytest.mark.parametrize("field, message", [
        ("16385", "line 2: length 16385 is above the cap of 16384"),
        ("9" * 100, f"line 2: length {'9' * 100} is above the cap of 16384"),
        ("0" * 101, "line 2: length has 101 digits, above the cap of 100"),
        ("7" * 5000, "line 2: length has 5000 digits, above the cap of 100"),
    ], ids=["value", "100 digits", "101 digits", "5000 digits"])
    def test_request_length(self, capsys, monkeypatch, field, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"1\t-\n{field}\t-\n"))
        assert run(capsys, ["allocate", "-"]) == (2, "", f"error: {message}\n")

    def test_request_length_digits_at_cap(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0" * 98 + "10\t-\n"))
        assert run(capsys, ["allocate", "-"]) == (0, "0000000000\t-\nmu\t1/1024\n", "")

    def test_program_length(self, tmp_path, capsys, int_text):
        at_cap = write(tmp_path, "at.tsv", "0" * 16384 + "\t-\n")
        assert run(capsys, ["omega", at_cap]) == (0, f"1\t1/{int_text(1 << 16384)}\n", "")
        over = write(tmp_path, "over.tsv", "1\t-\n" + "0" * 16385 + "\t-\n")
        expected = "error: line 2: program length 16385 is above the cap of 16384\n"
        assert run(capsys, ["omega", over]) == (2, "", expected)
        assert run(capsys, ["compose", over, at_cap]) == (2, "", expected)

    @pytest.mark.parametrize("command", ["decompose", "test", "dominate"])
    def test_rational_line(self, tmp_path, capsys, command):
        long = write(tmp_path, "long.txt", "1/3\n 1/" + "7" * 19_998 + " \n")
        over = write(tmp_path, "over.txt", "1/3\n1/" + "7" * 19_998 + "3\n")
        b = write(tmp_path, "b.txt", "1/8\n1/4\n")
        argv = {"decompose": lambda a: ["decompose", a, "--k", "2"],
                "test": lambda a: ["test", a, b, "--n", "1", "--depth", "2"],
                "dominate": lambda a: ["dominate", a, b, "--m", "1"]}[command]
        code, out, err = run(capsys, argv(long))
        assert (code, out) == (3, "")   # 20,000 characters: read, then not increasing
        assert err.startswith("error: term 1/777")
        assert run(capsys, argv(over)) == (
            2, "", "error: line 2: 20001 characters, above the cap of 20000 "
                   "per rational\n")

    @pytest.mark.parametrize("argv", [["test", "--n", "100001", "--depth", "1"],
                                      ["dominate", "--m", "100001"]])
    def test_level(self, tmp_path, capsys, argv):
        a = write(tmp_path, "a.txt", "1/4\n")
        b = write(tmp_path, "b.txt", "1/8\n")
        flag = argv[1]
        assert run(capsys, [argv[0], a, b] + argv[1:]) == (
            2, "", f"error: {flag} 100001 is above the cap of 100000\n")

    def test_level_at_cap(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1/4\n1/2\n")
        b = write(tmp_path, "b.txt", "1/8\n1/4\n")
        assert run(capsys, ["dominate", a, b, "--m", "100000"]) == (0, "100000\t1,2\n", "")


class TestDigitLimitRestored:
    """main lifts the int<->str limit for its own run only."""

    @pytest.fixture
    def limit(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            yield 5000
        finally:
            sys.set_int_max_str_digits(previous)

    def test_restored_after_return(self, tmp_path, capsys, limit):
        sequence = write(tmp_path, "seq.txt", "1/2\n")
        assert run(capsys, ["decompose", sequence, "--k", "1"])[0] == 0
        assert sys.get_int_max_str_digits() == limit
        assert run(capsys, ["decompose", sequence, "--k", "2"])[0] == 3
        assert sys.get_int_max_str_digits() == limit

    def test_restored_after_raise(self, tmp_path, capsys, monkeypatch, limit):
        seen = []

        def fail(seq, k):
            seen.append(sys.get_int_max_str_digits())
            raise RuntimeError("boom")
        monkeypatch.setattr(ce_real, "dyadic_decompose", fail)
        sequence = write(tmp_path, "seq.txt", "1/2\n")
        with pytest.raises(RuntimeError):
            main(["decompose", sequence, "--k", "1"])
        assert seen == [0]
        assert sys.get_int_max_str_digits() == limit


# Short digit runs stay at three digits or fewer, so no request length or
# stage count reaches the allocator's quadratic-memory spine.  Long runs
# straddle the 4,300-digit int<->str limit, as numbers and as programs whose
# mass needs that many digits.  Besides arbitrary lines, well-formed
# rational and two-column lines make valid inputs common.
_small = st.integers(0, 999).map(str)
_word = st.one_of(st.text(alphabet="01", min_size=1, max_size=3), st.just("-"))
_arbitrary = st.builds(
    lambda head, runs: head + "".join(d + sep for d, sep in runs),
    st.text(alphabet="/-.e\t ", max_size=2),
    st.lists(st.tuples(_small, st.text(alphabet="/-.e\t ", min_size=1,
                                       max_size=2)), max_size=3))
_rational = st.builds("{}/{}".format, _small, _small)
_two_column = st.builds("{}\t{}".format, st.one_of(_small, _word), _word)
_long = st.builds(lambda lead, n, fill: lead + fill * n, st.sampled_from("19"),
                  st.integers(4_280, 4_420), st.sampled_from("037"))
_long_line = st.one_of(
    st.builds("{}/{}".format, st.one_of(_small, _long), _long),
    st.builds("{}\t{}".format, st.one_of(
        _long, st.integers(14_200, 14_400).map("0".__mul__)), _word))
_file = st.one_of(*(st.lists(line, max_size=5).map("\n".join) for line in
                    (st.one_of(_arbitrary, _rational, _two_column, _long_line),
                     _rational, _two_column)))
_number = st.integers(-9, 999).map(str)


def _argv(command, draw, first, second):
    if command == "allocate":
        return ["allocate", first] + draw(st.sampled_from([[], ["--approx"]]))
    if command == "decompose":
        return ["decompose", first, f"--k={draw(_number)}"]
    if command == "omega":
        return ["omega", first] + draw(st.sampled_from(
            [[], [f"--k={draw(_number)}"]]))
    if command == "compose":
        return ["compose", first, second]
    if command == "dominate":
        flag = draw(st.sampled_from(["--c", "--m"]))
        depth = draw(st.sampled_from([[], [f"--depth={draw(_number)}"]]))
        return ["dominate", first, second, f"{flag}={draw(_number)}"] + depth
    return ["test", first, second, f"--n={draw(_number)}",
            f"--depth={draw(_number)}"]


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestNoTraceback:
    @pytest.mark.parametrize("command", ["allocate", "decompose", "omega",
                                         "compose", "dominate", "test"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_clean_exit_and_stable_bytes(self, tmp_path_factory, command, data):
        workdir = tmp_path_factory.mktemp(command, numbered=True)
        first = workdir / "first.txt"
        second = workdir / "second.txt"
        first.write_text(data.draw(_file), encoding="ascii")
        second.write_text(data.draw(_file), encoding="ascii")
        argv = _argv(command, data.draw, str(first), str(second))
        result = _run_quietly(argv)
        code, _, err = result
        assert code in (0, 2, 3), (argv, result)
        assert "Traceback" not in err
        assert "Exceeds the limit" not in err
        assert _run_quietly(argv) == result


class TestParserReuse:
    """One parser serves every call in a process: no call may see another's
    options, and a usage error leaves it as it was."""

    def test_interleaved_calls_repeat_their_bytes(self, tmp_path):
        table = write(tmp_path, "u.tsv", "0\t1\n10\t0\n110\t-\n")
        seq = write(tmp_path, "a.txt", "1/4\n9/32\n1/2\n")
        b = write(tmp_path, "b.txt", "1/8\n1/4\n3/8\n")
        requests = write(tmp_path, "r.txt", "1\t0\n2\t1\n")
        calls = [
            ["omega", table, "--k", "2"],
            ["omega", table],
            ["decompose", seq],                      # --k missing: usage error
            ["omega", table, "--approx"],
            ["omega", table],
            ["allocate", requests, "--approx"],
            ["allocate", requests],
            ["dominate", seq, b, "--m", "1"],
            ["dominate", seq, b],                    # neither --c nor --m
            ["dominate", seq, b, "--c", "2"],
            ["decompose", seq, "--k", "3", "--approx"],
            ["decompose", seq, "--k", "3"],
            ["omega", table, "--k", "nope"],         # usage error
            ["test", seq, b, "--n", "1", "--depth", "3"],
            ["omega", table],
        ]
        first = {}
        for round_ in range(3):
            order = calls if round_ != 1 else calls[::-1]
            for argv in order:
                result = _run_quietly(argv)
                assert first.setdefault(tuple(argv), result) == result, argv
        assert build_parser() is build_parser()

        def result(*argv):
            return first[argv]
        assert result("omega", table, "--k", "2") == (0, "2\t3/4\n", "")
        assert result("omega", table) == (0, "1\t1/2\n2\t3/4\n3\t7/8\n", "")
        assert "~" not in result("omega", table)[1]
        assert result("omega", table, "--approx")[1].endswith("3\t7/8\t~0.875000\n")
        assert "~" not in result("allocate", requests)[1]
        assert "~" in result("allocate", requests, "--approx")[1]
        assert "~" not in result("decompose", seq, "--k", "3")[1]
        assert result("dominate", seq, b, "--m", "1") == (0, "1\t1,3\n", "")
        assert result("dominate", seq, b, "--c", "2")[0] == 0
        code, out, err = result("dominate", seq, b)
        assert (code, out) == (2, "") and "needs --c" in err
        for bad in (("decompose", seq), ("omega", table, "--k", "nope")):
            code, out, err = result(*bad)
            assert (code, out) == (2, "") and err.startswith("usage: omegalib")


def _analysis_files(directory):
    """Seeded inputs shaped like the benchmark's analysis pipeline: two
    30-term increasing sequences, a 60-entry table of 8-14 bit programs with
    shared outputs, its request file, and an inner table whose outputs are
    mostly programs of the first."""
    rng = random.Random(2026)
    files = {}

    def put(name, lines):
        files[name] = write(directory, name, "".join(f"{x}\n" for x in lines))

    put("a.txt", map(format_rational, verify.random_increasing_rationals(rng, 30)))
    put("b.txt", map(format_rational, verify.random_increasing_rationals(rng, 30)))
    outputs = ["0" * rng.randint(2, 8) + verify.random_word(rng, 20)
               for _ in range(20)]
    requests = [(rng.randint(8, 14), rng.choice(outputs)) for _ in range(60)]
    put("req.tsv", (f"{n}\t{y or '-'}" for n, y in requests))
    outer = codespace.allocate_all(requests)
    put("outer.tsv", machines.format_table_lines(machines.MachineTable(outer)))
    inner = codespace.allocate_all(
        (rng.randint(7, 12), rng.choice(outer)[0] if rng.random() < 0.8
         else verify.random_word(rng, 6)) for _ in range(50))
    put("inner.tsv", machines.format_table_lines(machines.MachineTable(inner)))
    put("empty.tsv", [])
    put("flat.txt", ["1/4", "1/4"])
    put("over.tsv", ["1\t-", "1\t-", "1\t-"])
    return files


class TestExactBytes:
    """sha256 of the exit code, stdout and stderr of each command on seeded
    analysis-shaped inputs, pinned from the per-line ``print`` front end so
    that the one-write output matches it byte for byte."""

    CASES = {
        "decompose": ["decompose", "a.txt", "--k", "30"],
        "decompose --approx": ["decompose", "a.txt", "--k", "30", "--approx"],
        "decompose short": ["decompose", "b.txt", "--k", "12"],
        "decompose flat": ["decompose", "flat.txt", "--k", "2"],
        "omega": ["omega", "outer.tsv"],
        "omega --approx": ["omega", "outer.tsv", "--approx"],
        "omega --k": ["omega", "outer.tsv", "--k", "37"],
        "omega --k --approx": ["omega", "outer.tsv", "--k", "37", "--approx"],
        "omega --k 0": ["omega", "outer.tsv", "--k", "0"],
        "omega --k past": ["omega", "outer.tsv", "--k", "61"],
        "omega empty": ["omega", "empty.tsv"],
        "omega inner": ["omega", "inner.tsv", "--approx"],
        "test 0": ["test", "a.txt", "b.txt", "--n", "0", "--depth", "30"],
        "test 1": ["test", "a.txt", "b.txt", "--n", "1", "--depth", "30"],
        "test 2": ["test", "a.txt", "b.txt", "--n", "2", "--depth", "30"],
        "test 3": ["test", "a.txt", "b.txt", "--n", "3", "--depth", "30"],
        "test past": ["test", "a.txt", "b.txt", "--n", "1", "--depth", "31"],
        "dominate --m": ["dominate", "a.txt", "b.txt", "--m", "2"],
        "dominate --m --depth": ["dominate", "b.txt", "a.txt", "--m", "1",
                                 "--depth", "12"],
        "dominate --c": ["dominate", "a.txt", "b.txt", "--c", "3"],
        "dominate --c large": ["dominate", "a.txt", "b.txt", "--c", "1000"],
        "allocate": ["allocate", "req.tsv"],
        "allocate --approx": ["allocate", "req.tsv", "--approx"],
        "allocate over": ["allocate", "over.tsv"],
        "compose": ["compose", "outer.tsv", "inner.tsv"],
        "compose empty": ["compose", "inner.tsv", "outer.tsv"],
    }
    DIGESTS = {
        "decompose": "435d8f2887628e96115b89ff38d90a12bd99562ccfb19a4f40242c3cd38dfc74",
        "decompose --approx": "92e2cb2c15e33c6d300ba3588ae9e03946f34696b5aa991a3030e4dab5d75aa1",
        "decompose short": "9a1e78bbb84b71d37203aff6dc9b00ec1207cd631cce06e925ec4840301fe348",
        "decompose flat": "0c14246f9b7c1698439915e32056263ace1ba1622681779f0cc63e436d131767",
        "omega": "ee4911c7f4babb80f8106158f423bd532689ba1dede8a2bbf3a5171278eab487",
        "omega --approx": "e84cedb83ed233036f24148619d7c5c929b229c988e4280ea06704a94725e689",
        "omega --k": "fb19e0d4b1f1f865179bcac68841d6a500a1aa852395b7fcab67f1f8ac8c7aa7",
        "omega --k --approx": "e78720f47f6f60776e3af98706942d9bcbeb0a813a4196387f5f494f9e166232",
        "omega --k 0": "93c95e45f5753b3d705dd3ae7c7861c287092a3b890b6a79fec0d19aef47f3f4",
        "omega --k past": "a951c1536a825905514817105af3bf3bce4f51bce102498cd3b537005ec5a663",
        "omega empty": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "omega inner": "7e010d5e0e503ddd2c786a92783683ef71fba05ffd99fa4dd4be995995554c21",
        "test 0": "cce4a064128b49fca4fe13a4cf04cf4334a2ea7cee05624107800358b504463f",
        "test 1": "a248b6eeb21f0e42fc002e83f1cac9e71653160568f3f03a5d44f6f2d20da5ea",
        "test 2": "97b800e7df37cec8e980de35b1fd366b58eaf0e764385b42049d2291fd7e452a",
        "test 3": "f0e514d08efea90d915d36eb9d8cd910520c120122151246a9e9e85f0a1933d3",
        "test past": "6b264a2c3ddd8efc48b2790ae5af4c9a592035c8e057239596870fc8bd165a7a",
        "dominate --m": "be56af2dacd301c06785820de293eb32af75b97fa2bec81cc998ae277fdcff96",
        "dominate --m --depth": "bdfacbdb0b50b2e65b3cab04577fad345bfec24b8d1643a8ddb9be92c1066077",
        "dominate --c": "a9c8ba4ff0dc56ac5191eb78c7b3ded913d78bdec36c9528085643a4463fb90d",
        "dominate --c large": "d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c",
        "allocate": "763edffeb52fe445141bb6cc26669d91e13ffc42aafaa668572e65d81b5d3dcd",
        "allocate --approx": "9bd73036a502096065d11f9287ecbf3e90e9a07a878c7f2ce2e1c193c27efc6e",
        "allocate over": "da1ea496c199289c3470d65ef0e78dfb1743241d02b8788ca3d0592fe748d972",
        "compose": "23f5f0c6d730079abf495e457fc5db3b750835ffa1db81a934d0b4baba07b674",
        "compose empty": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    }

    @staticmethod
    def digest(files, argv):
        code, out, err = _run_quietly([files.get(x, x) for x in argv])
        return hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest()

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        return _analysis_files(tmp_path_factory.mktemp("analysis"))

    @pytest.mark.parametrize("case", list(CASES))
    def test_pinned_bytes(self, files, case):
        assert self.digest(files, self.CASES[case]) == self.DIGESTS[case]

    @pytest.mark.parametrize("case", [
        "decompose flat", "omega --k past", "test past", "allocate over"])
    def test_errors_leave_stdout_empty(self, files, case):
        code, out, err = _run_quietly([files.get(x, x) for x in self.CASES[case]])
        assert (code, out) == (3, "") and err.startswith("error: ")


# --- The per-line readers and the Dyadic-built omega lines that the
# rewritten ones replaced, kept literally as differential references.

def read_rationals_per_line(path):
    """``cli._read_rationals`` as it was."""
    values = []
    for lineno, line in enumerate(cli._read_lines(path), start=1):
        text = line.strip()
        if len(text) > MAX_RATIONAL_CHARS:
            raise ValueError(f"line {lineno}: {len(text)} characters, above "
                             f"the cap of {MAX_RATIONAL_CHARS} per rational")
        if text:
            try:
                values.append(parse_rational(text))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return values


def omega_lines_dyadic(table, approx):
    """The all-stages ``omega`` output as it was, one Dyadic per stage."""
    scale = max((len(p) for p in table.domain), default=0)
    total = 0
    out = ""
    for k, program in enumerate(table.domain, start=1):
        total += 1 << (scale - len(program))
        out += f"{k}\t{cli._exact(Dyadic(total, scale), approx)}\n"
    return out


class TestReaderDifferential:
    LINES = ["1/4", "", "  ", " 3/8 ", "1/0", "0.5", "x", "\u0661/2", "-1/3",
             "1/" + "7" * (MAX_RATIONAL_CHARS - 2), "1/" + "7" * MAX_RATIONAL_CHARS,
             " " * (MAX_RATIONAL_CHARS + 5) + "1/2"]

    def test_rational_files(self, tmp_path, no_int_digit_limit, outcome):
        rng = random.Random(16)
        path = tmp_path / "r.txt"
        kinds = set()
        for _ in range(400):
            lines = [rng.choice(self.LINES) for _ in range(rng.randint(0, 6))]
            path.write_text("\n".join(lines), encoding="utf-8")
            new = outcome(cli._read_rationals, str(path))
            assert new == outcome(read_rationals_per_line, str(path)), lines
            if isinstance(new, tuple) and new[1].endswith("is not ASCII"):
                new = ("not ASCII",)
            kinds.add(new[0] if new and isinstance(new[0], (type, str)) else list)
        assert kinds == {list, ValueError, "not ASCII"}

    def test_file_that_is_not_ascii(self, tmp_path, outcome):
        path = tmp_path / "r.txt"
        path.write_bytes("1/4\n\u00bd\n".encode())
        new = outcome(cli._read_rationals, str(path))
        assert new == outcome(read_rationals_per_line, str(path))
        assert new == (ValueError, "line 2: byte 0xc2 is not ASCII")


class TestLineReaderContract:
    """The request, table and rational readers follow one line rule: a blank
    line still counts, a padded line is stripped, the first bad line wins,
    and an error that is not a ValueError carries no line number."""

    # A good line, its value, and two bad lines with their messages.
    LINES = {
        "requests": ("2\t01", (2, "01"),
                     ("2\t2", "not a binary word: '2'"),
                     ("x\t1", "length 'x' is not a natural number")),
        "tables": ("01\t1", ("01", "1"),
                   ("0\t2", "not a binary word: '2'"),
                   ("0 1", "expected 'program<TAB>output', got '0 1'")),
        "rationals": ("1/4", Fraction(1, 4),
                      ("1/0", "zero denominator in '1/0'"),
                      ("0.5", "not a rational 'p/q' or integer: '0.5'")),
    }

    @pytest.fixture(params=list(LINES))
    def reader(self, request, monkeypatch):
        if request.param == "requests":
            read = codespace.parse_request_lines
        elif request.param == "tables":
            def read(lines):
                return list(machines.parse_table_lines(lines).entries)
        else:
            def read(lines):
                monkeypatch.setattr(cli, "_read_lines", lambda path: lines)
                return cli._read_rationals("-")
        return (read,) + self.LINES[request.param]

    def test_blank_lines_count(self, reader, outcome):
        read, good, value, (bad, message), _ = reader
        assert read(["", good, "  ", good]) == [value, value]
        assert outcome(read, [good, "", "   ", bad]) == (ValueError, f"line 4: {message}")

    def test_padded_line_is_stripped(self, reader, outcome):
        read, good, value, (bad, message), _ = reader
        assert read([f" \t{good} \r", f"  {good}"]) == [value, value]
        assert outcome(read, [f"  {bad}\r"]) == (ValueError, f"line 1: {message}")

    def test_first_bad_line_wins(self, reader, outcome):
        read, good, _, (bad, message), (other, other_message) = reader
        assert outcome(read, [good, bad, other]) == (ValueError, f"line 2: {message}")
        assert outcome(read, [good, other, bad]) == \
            (ValueError, f"line 2: {other_message}")

    def test_other_errors_carry_no_line_number(self, reader, outcome):
        read, good, _, (bad, _), _ = reader
        for odd in (None, 5, good.encode()):
            for lines in ([good, odd, bad], [odd]):
                kind, message = outcome(read, lines)
                assert kind in (AttributeError, TypeError)
                assert not message.startswith("line ")


class TestOmegaLinesDifferential:
    """All-stages ``omega`` lines, written from the integer total and scale,
    match the lines formatted through one Dyadic per stage."""

    def tables(self):
        rng = random.Random(17)
        for _ in range(300):
            yield verify.random_table(rng, 40, rng.choice((3, 12, 40)))
        yield machines.MachineTable((("", "1"),))
        yield machines.MachineTable((("0", ""), ("1", "")))
        yield machines.MachineTable((("0", ""), ("10", ""), ("11", "")))
        yield machines.MachineTable((("1", ""), ("0" * 3000, ""), ("01", "")))

    @pytest.mark.parametrize("approx", [False, True])
    def test_matches_dyadic_lines(self, tmp_path, approx):
        path = tmp_path / "u.tsv"
        for table in self.tables():
            path.write_text("".join(line + "\n" for line in
                                    machines.format_table_lines(table)))
            argv = ["omega", str(path)] + (["--approx"] if approx else [])
            assert _run_quietly(argv) == (0, omega_lines_dyadic(table, approx), "")


def omega_stage_own_branch(table, k, approx):
    """The ``omega --k`` branch as it was: ``omega_approx`` with its own
    stage bound, written through ``_exact``."""
    if not 0 <= k <= len(table):
        return 3, "", f"error: stage {k} outside 0..{len(table)}\n"
    mass = measure_of_lengths(len(p) for p, _ in table.entries[:k])
    return 0, f"{k}\t{cli._exact(mass, approx)}\n", ""


class TestOmegaStageDifferential:
    """``omega --k`` at every stage from -1 to ``len + 1`` matches the
    one-stage branch it replaced, bytes and exit code."""

    @pytest.mark.parametrize("approx", [False, True])
    def test_matches_one_stage_branch(self, tmp_path, approx):
        path = tmp_path / "u.tsv"
        for table in TestOmegaLinesDifferential().tables():
            path.write_text("".join(line + "\n" for line in
                                    machines.format_table_lines(table)))
            for k in range(-1, len(table) + 2):
                argv = ["omega", str(path), "--k", str(k)]
                assert _run_quietly(argv + (["--approx"] if approx else [])) \
                    == omega_stage_own_branch(table, k, approx), (table, k)


class TestNonAsciiInput:
    """The first byte that is not ASCII gives one error naming its line,
    whether it comes from a file, from a byte stdin or from a text stdin."""

    CASES = [
        (["allocate"], b"\xff\t1\n", "line 1: byte 0xff"),
        (["allocate"], b"1\t-\n\xff\t1\n", "line 2: byte 0xff"),
        (["allocate"], b"\n\n  \n1\t-\n1\t\xc3\xa9\n", "line 5: byte 0xc3"),
        (["allocate"], b"1\t-\r\n\r\n2\t\xd9\xa1\xff\n", "line 3: byte 0xd9"),
        (["allocate", "--approx"], b"1\t-\r\x0c\xe2\x80\xa8", "line 2: byte 0xe2"),
        (["omega"], b"0\t1\n10\t\xd9\xa1\n", "line 2: byte 0xd9"),
        (["omega", "--k", "1"], b"\n\n0\t\x80\n", "line 3: byte 0x80"),
        (["compose", "EMPTY"], b"0\t1\n\n\n\n1\t0\xc2\xa0\n", "line 5: byte 0xc2"),
        (["decompose", "--k", "1"], b"\xc2\xbd\n", "line 1: byte 0xc2"),
        (["decompose", "--k", "1"], b"1/4\n\n1/\xc2\xbd\n", "line 3: byte 0xc2"),
        (["dominate", "EMPTY", "--c", "1"], b"1/4\n\xa0", "line 2: byte 0xa0"),
    ]

    def run_each_way(self, tmp_path, monkeypatch, command, data):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        argv = [command[0], "SOURCE"] + [str(empty) if x == "EMPTY" else x
                                         for x in command[1:]]
        runs = [_run_quietly([str(path) if x == "SOURCE" else x for x in argv])]
        for stdin in (io.TextIOWrapper(io.BytesIO(data)),
                      io.StringIO(data.decode("utf-8", "surrogateescape"))):
            monkeypatch.setattr("sys.stdin", stdin)
            runs.append(_run_quietly(["-" if x == "SOURCE" else x for x in argv]))
        return runs

    @pytest.mark.parametrize("command, data, where", CASES)
    def test_same_error_from_every_source(self, tmp_path, monkeypatch,
                                          command, data, where):
        expected = (2, "", f"error: {where} is not ASCII\n")
        assert self.run_each_way(tmp_path, monkeypatch, command, data) == [expected] * 3

    def test_ascii_reads_the_same_from_every_source(self, tmp_path, monkeypatch):
        data = b"\r\n0\t1\r10\t0\x0c\n110\t-"
        runs = self.run_each_way(tmp_path, monkeypatch, ["omega"], data)
        assert runs == [(0, "1\t1/2\n2\t3/4\n3\t7/8\n", "")] * 3

    def test_console_stdin(self, tmp_path):
        # A real stdin pipe, read by a fresh interpreter.
        path = tmp_path / "bad.tsv"
        data = b"1\t-\n\xff\t1\n"
        path.write_bytes(data)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1])]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        for argv, stdin in (([str(path)], None), (["-"], data)):
            result = subprocess.run(
                [sys.executable, "-m", "omegalib.cli", "allocate", *argv],
                input=stdin, capture_output=True, env=env, timeout=60)
            assert (result.returncode, result.stdout, result.stderr) == (
                2, b"", b"error: line 2: byte 0xff is not ASCII\n")


class TestNegativeFlags:
    """A negative numeric flag is refused before any file is read: exit 2,
    empty stdout, and a message naming the flag."""

    @pytest.mark.parametrize("argv, flag", [
        (["test", "A", "B", "--n", "-1", "--depth", "3"], "--n -1"),
        (["test", "A", "B", "--n", "1", "--depth", "-2"], "--depth -2"),
        (["test", "A", "B", "--n", "-1", "--depth", "-2"], "--n -1"),
        (["dominate", "A", "B", "--m", "-1"], "--m -1"),
        (["dominate", "A", "B", "--m", "1", "--depth", "-3"], "--depth -3"),
        (["dominate", "A", "B", "--c", "-1"], "--c -1"),
        (["decompose", "A", "--k", "-1"], "--k -1"),
    ])
    @pytest.mark.parametrize("files", ["present", "missing"])
    def test_refused_naming_the_flag(self, tmp_path, argv, flag, files):
        paths = {"A": str(tmp_path / "a.txt"), "B": str(tmp_path / "b.txt")}
        if files == "present":
            write(tmp_path, "a.txt", "1/4\n1/2\n")
            write(tmp_path, "b.txt", "1/8\n1/4\n")
        argv = [paths.get(x, x) for x in argv]
        assert _run_quietly(argv) == (
            2, "", f"error: {flag} is not a natural number\n")

    def test_flags_a_mode_ignores_stay_unchecked(self, tmp_path):
        a = write(tmp_path, "a.txt", "1/4\n1/2\n")
        b = write(tmp_path, "b.txt", "1/8\n1/4\n")
        assert _run_quietly(["dominate", a, b, "--m", "1", "--c", "-1"]) == (
            0, "1\t1,2\n", "")
        assert _run_quietly(["dominate", a, b, "--c", "2", "--depth", "-1"]) == (
            0, "true\n", "")

    def test_omega_stage_keeps_its_domain_error(self, tmp_path):
        table = write(tmp_path, "u.tsv", "0\t1\n10\t0\n")
        assert _run_quietly(["omega", table, "--k", "-1"]) == (
            3, "", "error: stage -1 outside 0..2\n")


class TestFlagsPastTheTerms:
    """A stage count past the file's terms exits 3 with the number of terms,
    also past ``sys.maxsize``: the same condition gets one answer."""

    @pytest.mark.parametrize("argv", [
        ["decompose", "A", "--k"],
        ["test", "A", "B", "--n", "1", "--depth"],
        ["dominate", "A", "B", "--m", "1", "--depth"],
    ])
    @pytest.mark.parametrize("count", [3, sys.maxsize + 1, 10 ** 20])
    def test_one_term_too_many_and_far_too_many(self, tmp_path, argv, count):
        paths = {"A": write(tmp_path, "a.txt", "1/4\n1/2\n"),
                 "B": write(tmp_path, "b.txt", "1/8\n1/4\n")}
        argv = [paths.get(x, x) for x in argv] + [str(count)]
        assert _run_quietly(argv) == (
            3, "", f"error: sequence ended after 2 terms, {count} were requested\n")


class TestRecordSeparators:
    """A record ends at \\n, \\r or \\r\\n only.  Any other control byte
    inside a line stays there and makes that line's parse error; at either
    end of a line it is stripped as whitespace.  Error lines are counted by
    the same rule."""

    @pytest.mark.parametrize("argv, data, message", [
        (["allocate", "-"], b"2\t1\x1c3\t0\n",
         "line 1: expected 'n<TAB>y', got '2\\t1\\x1c3\\t0'"),
        (["omega", "-"], b"0\t1\x0b10\t0\n",
         "line 1: expected 'program<TAB>output', got '0\\t1\\x0b10\\t0'"),
        (["decompose", "-", "--k", "2"], b"1/4\x0c1/2\n",
         "line 1: not a rational 'p/q' or integer: '1/4\\x0c1/2'"),
        (["allocate", "-"], b"1\t-\x0b\n5\tx\n", "line 2: not a binary word: 'x'"),
        (["allocate", "-"], b"1\t-\x1e\x1d\xff\n", "line 1: byte 0xff is not ASCII"),
    ])
    def test_one_record_per_line(self, monkeypatch, argv, data, message):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert _run_quietly(argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("byte", [b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                                      b"\x1f"])
    def test_control_byte_inside_and_at_the_ends(self, monkeypatch, byte):
        expected = (0, "00\t1\n01\t0\n100\t11\nmu\t5/8\n", "")
        for data in (b"2\t1\n2\t0\r3\t11\r\n",
                     byte + b"2\t1" + byte + b"\n2\t0" + byte + b"\r3\t11\r\n" + byte):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            assert _run_quietly(["allocate", "-"]) == expected
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(
            b"2\t1\n\n2\t0" + byte + b"3\t11\n")))
        code, out, err = _run_quietly(["allocate", "-"])
        assert (code, out) == (2, "") and err.startswith("error: line 3: ")


class TestWriteOnce:
    """Each command writes its whole output with one call, to the stdout in
    place when it runs."""

    class Recorder(io.StringIO):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def write(self, text):
            self.calls += 1
            return super().write(text)

    @pytest.mark.parametrize("case", [
        "decompose", "omega", "omega --approx", "omega --k", "test 2",
        "dominate --m", "dominate --c", "allocate", "compose"])
    def test_one_write(self, tmp_path, case):
        files = _analysis_files(tmp_path)
        out = self.Recorder()
        with contextlib.redirect_stdout(out):
            assert main([files.get(x, x) for x in TestExactBytes.CASES[case]]) == 0
        assert out.calls == 1 and out.getvalue().count("\n") >= 1


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "kc"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("kc: ")
        assert lines[0].endswith("0 failed")
        assert lines[-1].startswith("total: ")

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    def test_seed_changes_nothing_for_golden_suite(self, capsys):
        _, first, _ = run(capsys, ["verify", "kc", "--seed", "1"])
        _, second, _ = run(capsys, ["verify", "kc", "--seed", "99"])
        assert first == second

    @pytest.mark.parametrize("seed", ["1729", "3"])
    def test_all_is_the_single_suites_in_order(self, capsys, seed):
        singles = [run(capsys, ["verify", suite, "--seed", seed])
                   for suite in verify.SUITE_NAMES]
        assert all((code, err) == (0, "") for code, _, err in singles)
        body = "".join(out.splitlines(keepends=True)[0] for _, out, _ in singles)
        assert run(capsys, ["verify", "all", "--seed", seed]) == (
            0, body + "total: 1503 passed, 0 failed\n", "")

    REPCE_FAILING = ("repce: 47 passed, 3 failed\n"
                     "  call 2 message 1\n  call 2 message 2\n  call 2 message 3\n"
                     "  call 7 message 1\n  call 7 message 2\n  call 7 message 3\n"
                     "  call 11 only message\n")

    @pytest.mark.parametrize("argv, expected", [
        (["verify", "repce"], REPCE_FAILING + "total: 47 passed, 3 failed\n"),
        (["verify", "all", "--seed", "3"],
         "kc: 403 passed, 0 failed\noracle: 902 passed, 0 failed\n"
         + REPCE_FAILING
         + "omega: 65 passed, 0 failed\ndominate: 40 passed, 0 failed\n"
           "mltest: 43 passed, 0 failed\ntotal: 1500 passed, 3 failed\n"),
    ])
    def test_failures_exit_3_with_three_messages_each(self, capsys, monkeypatch,
                                                      argv, expected):
        real = verify.check_decomposition
        calls = []

        def failing(terms):
            calls.append(terms)
            n = len(calls)
            if n in (2, 7):
                return [f"call {n} message {i}" for i in range(1, 5)]
            if n == 11:
                return ["call 11 only message"]
            return real(terms)
        monkeypatch.setattr(verify, "check_decomposition", failing)
        assert run(capsys, argv) == (3, expected, "")
        assert len(calls) == 50


# --- ``cli._cmd_allocate`` as it was, before it ran one allocator state:
# kept literally as the differential reference.

def allocate_through_table(args):
    """``allocate`` through ``allocate_all``, each mass summed again."""
    requests = codespace.parse_request_lines(cli._read_lines(args.requests))
    try:
        table = codespace.allocate_all(requests)
    except InsufficientMass as exc:
        served = measure_of_lengths(n for n, _ in requests[:exc.index])
        free = format_rational(1 - as_fraction(served))
        raise OmegalibError(f"kraft violation at request {exc.index + 1} "
                            f"(length {exc.length}): free mass {free} "
                            f"< 2^-{exc.length}") from None
    lines = [f"{format_word(word)}\t{format_word(output)}" for word, output in table]
    mass = measure_of_lengths(len(word) for word, _ in table)
    lines.append(f"mu\t{cli._exact(mass, args.approx)}")
    cli._write(lines)
    return 0


def run_mapped(command, argv):
    """``command`` on ``argv``'s options, its exceptions mapped to exit codes
    and ``error:`` lines as ``main`` maps them.  The parser binds
    ``cli._cmd_allocate`` when it is built, so the reference cannot be
    patched in; both bodies run here instead."""
    args = build_parser().parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = command(args)
        except OmegalibError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = cli.DOMAIN_ERROR
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = cli.USAGE_ERROR
    return code, out.getvalue(), err.getvalue()


def _request_text(rng, lengths):
    """Request lines for ``lengths`` with seeded outputs and a few blank lines."""
    lines = [f"{n}\t{format_word(verify.random_word(rng, 4))}" for n in lengths]
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), "")
    return "".join(line + "\n" for line in lines)


def _refused_lengths(rng, position):
    """Seeded lengths whose first refusal falls at the second request (the
    first one a fresh state can refuse), in the middle, or last."""
    if position == "second":
        lengths = [0]
    else:
        lengths = verify.random_kraft_lengths(rng, 12, 10) or [1]
    free = 1 - sum(Fraction(1, 1 << n) for n in lengths)
    if free and rng.random() < 0.5:
        # The binary digits of the free mass use it up exactly.
        scale = free.denominator.bit_length() - 1
        bits = free.numerator
        lengths += [scale - j for j in range(bits.bit_length()) if bits >> j & 1]
        free = Fraction(0)
    # Any length m with 2^-m above the free mass is refused.
    longest = 12
    if free:
        longest = 0
        while Fraction(1, 2 << longest) > free:
            longest += 1
    lengths.append(rng.randint(0, longest))
    if position != "last":
        lengths += [rng.randint(0, 12) for _ in range(rng.randint(1, 4))]
    return lengths


class TestAllocateLedgerDifferential:
    """``allocate`` over one allocator state, with ``mu`` and the refusal's
    free mass read from its ledger, matches the body it replaced: exit code,
    stdout and stderr, with and without ``--approx``."""

    @staticmethod
    def request_files():
        rng = random.Random(22)
        for _ in range(40):
            yield _request_text(rng, verify.random_kraft_lengths(rng, 12, 10))
            for position in ("second", "middle", "last"):
                yield _request_text(rng, _refused_lengths(rng, position))
        for n in (600, 2_000, 16_384):
            yield f"{n}\t01\n1\t1\n"              # served: mu past the digit limit
            yield f"{n}\t01\n1\t1\n1\t0\n2\t-\n"  # refused: free mass 1/2 - 2^-n
        for n in (600, 2_000):
            # A deep request, then its spine's siblings exactly, then one more.
            yield "".join(f"{k}\t-\n" for k in (n, *range(1, n + 1), 3))
        yield from ["", "\n \n\t\n", "0\t1\n", "0\t-\n1\t1\n", "1\t-\n0\t1\n2\t-\n",
                    "3\t01\n" * 9, "2\t-\n" * 4, "2\t-\n" * 4 + "\n0\t-\n"]

    @pytest.mark.parametrize("approx", [False, True])
    def test_matches_the_table_body(self, tmp_path, no_int_digit_limit, approx):
        path = tmp_path / "req.tsv"
        codes = set()
        for text in self.request_files():
            path.write_text(text, encoding="ascii")
            argv = ["allocate", str(path)] + (["--approx"] if approx else [])
            result = run_mapped(cli._cmd_allocate, argv)
            assert result == run_mapped(allocate_through_table, argv), text[:200]
            assert _run_quietly(argv) == result
            codes.add(result[0])
        assert codes == {0, 3}

    def test_refusal_positions(self):
        rng = random.Random(22)
        for position in ("second", "middle", "last") * 20:
            lengths = _refused_lengths(rng, position)
            with pytest.raises(InsufficientMass) as exc:
                codespace.allocate_all((n, "") for n in lengths)
            at = exc.value.index + 1
            assert (at == 2 if position == "second" else
                    at == len(lengths) if position == "last" else at < len(lengths))

    def test_outputs_are_checked_once(self, tmp_path, monkeypatch):
        # parse_request_lines checks each output through bits.parse_word; the
        # allocation loop checks none again.
        calls = []
        real = codespace.validate_bits

        def counting(word):
            calls.append(word)
            return real(word)
        monkeypatch.setattr(codespace, "validate_bits", counting)
        requests = write(tmp_path, "req.tsv", "3\t01\n3\t-\n2\t1\n4\t0\n4\t0\n")
        assert _run_quietly(["allocate", requests])[0] == 0
        assert calls == []


# --- The CLI contract as one seeded sweep over every subcommand: valid
# seeded files, some mutated byte by byte, and flags at and past the edges.

_SWEEP_BYTES = [b"\n", b"\r", b"\r\n", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e",
                b"\x1f", b"\t", b"-", b"/", b"+", b"\xe9", b"\x00"]
_SWEEP_FLAGS = [0, 1, 1, 2, 3, 5, -1, -4, sys.maxsize + 1, 10 ** 20]
_LINE_NUMBER = re.compile(r"\bline (\d+): ")
_REFUSAL = re.compile(r"error: kraft violation at request (\d+) \(length (\d+)\): "
                      r"free mass (\d+)/(\d+) < 2\^-(\d+)\n")


def _sweep_bytes(rng, lines):
    """``lines`` joined by one of the three record separators, then mutated
    at up to three places by inserting, replacing or deleting a byte."""
    sep = rng.choice(("\n", "\r\n", "\r"))
    data = (sep.join(lines) + rng.choice(("", sep))).encode("ascii")
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        i = rng.randint(0, len(data))
        kind = rng.randrange(3)         # 0 inserts, 1 replaces, 2 deletes
        if kind == 2:
            data = data[:i] + data[i + 1:]
        else:
            data = data[:i] + rng.choice(_SWEEP_BYTES) + data[i + kind:]
    return data


def _sweep_files(rng, command):
    """The bytes of the one or two files ``command`` reads, from valid
    seeded files: requests with an overflowing tail now and then, tables
    built by the allocator, and increasing rationals."""
    if command == "allocate":
        lengths = verify.random_kraft_lengths(rng, 10, 8)
        lengths += [rng.randint(0, 8) for _ in range(rng.choice((0, 0, 1, 3)))]
        return [_sweep_bytes(rng, [f"{n}\t{format_word(verify.random_word(rng, 3))}"
                                   for n in lengths])]
    if command in ("omega", "compose"):
        return [_sweep_bytes(rng, machines.format_table_lines(
                    verify.random_table(rng, 8, 6, nonempty=rng.random() < 0.7)))
                for _ in range(1 if command == "omega" else 2)]
    count = rng.randint(1, 6)
    return [_sweep_bytes(rng, [format_rational(x) for x in
                               verify.random_increasing_rationals(
                                   rng, count if rng.random() < 0.8 else count + 1)])
            for _ in range(1 if command == "decompose" else 2)]


def _sweep_argv(rng, command, paths):
    def flag():
        return rng.choice(_SWEEP_FLAGS)
    approx = ["--approx"] if rng.random() < 0.3 else []
    if command == "allocate":
        return ["allocate", *paths, *approx]
    if command == "decompose":
        return ["decompose", *paths, f"--k={flag()}", *approx]
    if command == "omega":
        return ["omega", *paths, *([f"--k={flag()}"] if rng.random() < 0.4 else []),
                *approx]
    if command == "compose":
        return ["compose", *paths]
    if command == "dominate":
        if rng.random() < 0.5:
            return ["dominate", *paths, f"--c={flag()}"]
        return ["dominate", *paths, f"--m={flag()}",
                *([f"--depth={flag()}"] if rng.random() < 0.5 else [])]
    return ["test", *paths, f"--n={flag()}", f"--depth={flag()}"]


class TestCliSweep:
    """Every subcommand on seeded inputs: the exit code is 0, 2 or 3 and
    nothing else leaves ``main``; a failing command writes nothing to
    stdout; an error's line number is within the input's records (by the
    ``\\n``, ``\\r``, ``\\r\\n`` rule) plus one; ``allocate`` serves at most
    one request per record, its table read back by ``omega`` ends at ``mu``,
    and a refusal's free mass is one less the mass served before it and
    below ``2^-n``; ``compose`` writes a valid table."""

    COMMANDS = ["allocate", "decompose", "omega", "compose", "dominate", "test"]

    def check(self, directory, argv, files):
        code, out, err = result = _run_quietly(argv)
        assert code in (0, 2, 3), (argv, files, result)
        records = max(len(data.splitlines()) for data in files)
        if code != 0:
            assert out == "", (argv, files, result)
        for number in _LINE_NUMBER.findall(err):
            assert int(number) <= records + 1, (argv, files, result)
        if argv[0] == "allocate" and code == 0:
            *rows, mu = out.splitlines()
            assert len(rows) <= records and mu.startswith("mu\t")
            table = directory / "served.tsv"
            table.write_text("".join(row + "\n" for row in rows), encoding="ascii")
            code, sums, _ = _run_quietly(["omega", str(table), *argv[2:]])
            last = (sums.splitlines()[-1].split("\t", 1)[1] if rows
                    else cli._exact(Fraction(0), "--approx" in argv))
            assert (code, last) == (0, mu.split("\t", 1)[1]), (argv, files, out)
        if argv[0] == "allocate" and code == 3:
            i, n, p, q, shown = map(int, _REFUSAL.fullmatch(err).groups())
            requests = codespace.parse_request_lines(cli._read_lines(argv[1]))
            assert i <= records and n == shown == requests[i - 1][0]
            served = sum(Fraction(1, 1 << m) for m, _ in requests[:i - 1])
            assert Fraction(p, q) == 1 - served < Fraction(1, 1 << n)
        if argv[0] == "compose" and code == 0:
            machines.parse_table_lines(out.splitlines()).validate()
        return code

    def test_seeded_sweep(self, tmp_path):
        rng = random.Random(9)
        reached = {command: set() for command in self.COMMANDS}
        for _ in range(1000):
            for command in self.COMMANDS:
                files = _sweep_files(rng, command)
                paths = []
                for k, data in enumerate(files):
                    path = tmp_path / f"in{k}.txt"
                    path.write_bytes(data)
                    paths.append(str(path))
                argv = _sweep_argv(rng, command, paths)
                reached[command].add(self.check(tmp_path, argv, files))
        assert reached == {command: {0, 2, 3} for command in self.COMMANDS}
