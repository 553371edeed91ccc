"""Command-line interface: output bytes, exit codes, stdin handling."""

import contextlib
import io
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omegalib import ce_real
from omegalib.bits import parse_word
from omegalib.cli import build_parser, main


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
        assert err.startswith("error: line 2: length ")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, ["allocate", str(tmp_path / "nope.tsv")])
        assert code == 2
        assert err.startswith("error:")

    def test_identical_input_identical_bytes(self, tmp_path, capsys):
        requests = write(tmp_path, "req.tsv", "3\t1\n2\t0\n3\t1\n")
        _, first, _ = run(capsys, ["allocate", requests])
        _, second, _ = run(capsys, ["allocate", requests])
        assert first == second


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
        code, _, err = run(capsys, ["dominate", a, b])
        assert code == 2
        assert "needs --c" in err

    def test_length_mismatch_exits_3(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1/4\n1/2\n")
        b = write(tmp_path, "b.txt", "1/8\n")
        code, _, err = run(capsys, ["dominate", a, b, "--c", "1"])
        assert code == 3
        assert err.startswith("error:")


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
