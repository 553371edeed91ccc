"""Workload ``analysis_chain``: the halting-mass and interval-test pipeline.

Each instance runs one fixed pipeline on its own seeded inputs:

1. ``decompose``, ``omega``, ``test`` at three levels and ``dominate --m``
   through ``omegalib.cli.main`` on files the harness wrote;
2. ``to_machine`` on the same increasing sequence;
3. ``chaitin_transform_table`` and ``complexity_test_stage`` on a table of
   a few hundred entries whose outputs are long enough that some compress;
4. ``omega_rep_compose`` of that table with a chosen-length stream.

Sequences have 50 terms and tables 200 entries, so that one pass over 40
instances takes about two seconds and every op is timed in many passes.
The work is Fraction-heavy with little allocation.  It carries the known
quadratic layers (``build_test``, the canonical renaming, ``omega`` over
every stage) and the text formats the CLI parses and prints.

One op is one instance.  One pass runs every instance once.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
from fractions import Fraction
from typing import NamedTuple

from omegalib import ce_real, cli, codespace, machines, mltest, solovay, verify
from omegalib.exact import Dyadic, format_rational, measure_of_lengths, parse_rational

from tracing import Layer

TAIL_PERCENTILE = 75

INSTANCES = {"full": 40, "small": 2}
DEPTH = {"full": 50, "small": 12}           # terms per increasing sequence
TABLE_ENTRIES = {"full": 200, "small": 24}
PROGRAM_LENGTHS = (8, 14)   # 200 entries of length >= 8 always fit one unit
OUTPUT_LENGTHS = (14, 28)
LEADING_ZEROS = (2, 8)
TEST_LEVELS = (1, 2, 3)
WITNESS_LEVEL = 2
MARGIN = 2
SHIFT = 2


class Instance(NamedTuple):
    a_path: str
    b_path: str
    table_path: str
    a_terms: list[Fraction]
    b_terms: list[Fraction]
    table: machines.MachineTable
    gamma: list[int]
    depth: int

    def argvs(self) -> list[list[str]]:
        depth = str(self.depth)
        return ([["decompose", self.a_path, "--k", depth],
                 ["omega", self.table_path]]
                + [["test", self.a_path, self.b_path, "--n", str(level),
                    "--depth", depth] for level in TEST_LEVELS]
                + [["dominate", self.a_path, self.b_path,
                    "--m", str(WITNESS_LEVEL)]])


class Outcome(NamedTuple):
    stdouts: list[str]
    return_codes: list[int]
    machine: machines.MachineTable
    renamed: machines.MachineTable
    compressible: set[str]
    composed_mass: Dyadic


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="ascii") as out:
        out.writelines(line + "\n" for line in lines)


def _read(path: str) -> list[str]:
    with open(path, encoding="ascii") as handle:
        return handle.read().splitlines()


def _random_output(rng: random.Random) -> str:
    zeros = rng.randint(*LEADING_ZEROS)
    tail = rng.randint(*OUTPUT_LENGTHS) - zeros
    return "0" * zeros + "".join(rng.choice("01") for _ in range(tail))


def make_instance(rng: random.Random, workdir: str, index: int, size: str) -> Instance:
    depth = DEPTH[size]
    a_terms = verify.random_increasing_rationals(rng, depth)
    b_terms = verify.random_increasing_rationals(rng, depth)
    entries = TABLE_ENTRIES[size]
    # Leading zeros give outputs small values, so the renaming is defined
    # for many programs; shared outputs give complexity something to pick.
    outputs = [_random_output(rng) for _ in range(entries // 3)]
    requests = [(rng.randint(*PROGRAM_LENGTHS), rng.choice(outputs))
                for _ in range(entries)]
    paths = [os.path.join(workdir, f"{index}.{name}") for name in ("a", "b", "tsv")]
    _write(paths[0], [format_rational(q) for q in a_terms])
    _write(paths[1], [format_rational(q) for q in b_terms])
    _write(paths[2], machines.format_table_lines(
        machines.MachineTable(tuple(codespace.allocate_all(requests)))))
    table = machines.parse_table_lines(_read(paths[2]))
    budget = 1 - Fraction(1, 1 << SHIFT) * table.domain_measure().as_fraction()
    gamma = verify.random_gamma_lengths(rng, budget, 10)
    return Instance(*paths, a_terms, b_terms, table, gamma, depth)


def load(seed: int, workdir: str, size: str) -> list[Instance]:
    rng = random.Random(f"analysis_chain:{seed}")
    return [make_instance(rng, workdir, i, size) for i in range(INSTANCES[size])]


def ops_per_pass(instances: list[Instance]) -> int:
    return len(instances)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def run_instance(inst: Instance) -> Outcome:
    codes, stdouts = zip(*(run_cli(argv) for argv in inst.argvs()))
    machine = ce_real.to_machine(ce_real.RationalSeq(inst.a_terms), inst.depth)
    renamed = machines.chaitin_transform_table(inst.table)
    compressible = mltest.complexity_test_stage(inst.table, MARGIN, len(inst.table))
    rounds = max(len(inst.table), len(inst.gamma))
    _, mass = solovay.omega_rep_compose(inst.table, SHIFT, inst.gamma, rounds)
    return Outcome(list(stdouts), list(codes), machine, renamed, compressible, mass)


def run_pass(instances: list[Instance], record) -> list:
    outcomes: list = []
    keep, clock = outcomes.append, time.perf_counter
    for inst in instances:
        t = clock()
        try:
            outcome = run_instance(inst)
        except Exception as exc:   # counted as a failed op by check()
            outcome = exc
        record(clock() - t)
        keep(outcome)
    return outcomes


def _fields(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()]


def problems(inst: Instance, out: Outcome) -> list[str]:
    """Re-derive each pipeline result's defining property from its output."""
    found = [f"{argv[0]} exited {code}"
             for argv, code in zip(inst.argvs(), out.return_codes) if code != 0]
    if found:
        return found
    decompose, omega, *tests, dominate = out.stdouts

    rows = _fields(decompose)
    partials = [parse_rational(r) for _, r in rows]
    decomposition = ce_real.DyadicDecomposition(
        tuple(int(n) for n, _ in rows),
        tuple(Dyadic.from_fraction(r) for r in partials))
    try:
        decomposition.verify(inst.a_terms)
    except ValueError as exc:
        found.append(f"decompose: {exc}")
    if len(out.machine) != inst.depth or out.machine.domain_measure() != partials[-1]:
        found.append("to_machine: domain measure differs from the last partial sum")

    sums = [parse_rational(r) for _, r in _fields(omega)]
    if len(sums) != len(inst.table) or sums[-1] != inst.table.domain_measure():
        found.append("omega: last partial sum differs from the table's mass")

    opened_at = {}
    for level, text in zip(TEST_LEVELS, tests):
        opened = [(parse_rational(row[1]), parse_rational(row[2]), int(row[0]))
                  for row in _fields(text) if row[1] != "-"]
        opened_at[level] = [i for _, _, i in opened]
        ordered = sorted(opened)
        if any(hi > lo for (_, hi, _), (lo, _, _) in zip(ordered, ordered[1:])):
            found.append(f"test level {level}: opened intervals overlap")
        budget = Fraction(1, 1 << level)
        total = sum((hi - lo for lo, hi, _ in opened), Fraction(0))
        if opened and total != budget * inst.b_terms[opened[-1][2] - 1]:
            found.append(f"test level {level}: measure does not telescope")
        if total > budget:
            found.append(f"test level {level}: measure over budget")

    level, indices = _fields(dominate)[0]
    witness = solovay.DominationWitness(
        tuple(int(j) for j in indices.split(",") if j), int(level))
    a_sub, b_sub = witness.subsequences(inst.a_terms, inst.b_terms)
    if not solovay.check_domination(a_sub, b_sub, 1 << witness.exponent):
        found.append("dominate: witness fails check_domination")
    if list(witness.stage_indices) != opened_at[WITNESS_LEVEL]:
        found.append("dominate: witness differs from the opened test stages")

    expected = (Fraction(1, 1 << SHIFT) * inst.table.domain_measure().as_fraction()
                + measure_of_lengths(inst.gamma).as_fraction())
    if out.composed_mass.as_fraction() != expected:
        found.append("omega_rep_compose: mass identity broken")
    if mltest.antichain_measure(out.compressible) > Fraction(1, 1 << MARGIN):
        found.append("complexity_test_stage: measure over budget")
    return found


def check(instances: list[Instance], outcomes: list) -> tuple[set[int], list[str]]:
    """Failed op indices, and a digest of CLI stdout plus renamed table per op."""
    bad: set[int] = set()
    keys: list[str] = []
    for i, (inst, out) in enumerate(zip(instances, outcomes)):
        if not isinstance(out, Outcome):
            bad.add(i)
            keys.append(f"raised {out!r}")
            continue
        digest = hashlib.sha256()
        for text in out.stdouts + machines.format_table_lines(out.renamed):
            digest.update(text.encode() + b"\n")
        found = problems(inst, out)
        if found:
            bad.add(i)
        keys.append(" ".join([digest.hexdigest(), *found]))
    return bad, keys


RUN_LAYERS = ("ce_real.dyadic_decompose", "exact.ceil_neg_log2",
              "machines.omega_approx", "machines.chaitin_transform_table",
              "machines.complexity", "machines.compose", "solovay.build_test",
              "solovay.extract_witness", "solovay.omega_rep_compose",
              "mltest.complexity_test_stage", "cli.main.decompose",
              "cli.main.omega", "cli.main.test", "cli.main.dominate")
SETUP_LAYERS = ()


def layers(tracer) -> list[Layer]:
    def count_containment(_, args, stage, exc):
        """Interval containment tests ``build_test`` makes (``any`` stops early)."""
        if stage is None:
            return
        a, depth = args[0], args[3]
        opened, checks = [], 0
        for term, interval in zip(a.prefix(depth), stage.intervals):
            if interval is None:
                checks += next(k for k, iv in enumerate(opened, 1) if iv.contains(term))
            else:
                checks += len(opened)
                opened.append(interval)
        tracer.add("solovay.build_test.containment_checks", checks)

    plain = [Layer(name) for name in RUN_LAYERS
             if name != "solovay.build_test" and not name.startswith("cli.")]
    return plain + [Layer("solovay.build_test", None, count_containment),
                    Layer("cli.main", label=lambda args: f"cli.main.{args[0][0]}")]


def counter_metrics(counters: dict, run: dict, passes: int) -> dict:
    return {"solovay.build_test.containment_checks":
            (counters.get("solovay.build_test.containment_checks", 0) / passes,
             "count")}
