"""Command-line interface: output bytes, exit codes, stdin handling."""

import io

import pytest

from omegalib.cli import main


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
