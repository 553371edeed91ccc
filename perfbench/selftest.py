"""Self-test of the benchmark harness at small input sizes.

    python3 perfbench/run.py --self-test

Checks the input-size guards, the tracer's self-time arithmetic and its
install/uninstall, the tail percentile rule, and then runs every workload
at its small size: traced and untraced, twice with one seed, checking that
outputs pass, digests repeat, and the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types

import common
from tracing import Layer, Tracer


def check_guards(root: str) -> list[str]:
    sys.path.insert(0, os.path.join(root, "src"))
    import alloc_stream
    import audit_sweep

    problems = []
    cases = [(alloc_stream.guard_lengths, [alloc_stream.LENGTH_CAP], [4000]),
             (audit_sweep.guard_kc_ref, [[1] * audit_sweep.KC_REF_MAX_LENGTHS],
              [[1] * (audit_sweep.KC_REF_MAX_LENGTHS + 1)])]
    for guard, allowed, refused in cases:
        guard(allowed)
        try:
            guard(refused)
            problems.append(f"{guard.__name__} accepted an oversize input")
        except ValueError:
            pass
    return problems


def check_tracer() -> list[str]:
    """Nested sleeps in a throw-away package give known self times."""
    package = types.ModuleType("fakepkg")
    inner_mod = types.ModuleType("fakepkg.inner")
    outer_mod = types.ModuleType("fakepkg.outer")

    def leaf():
        time.sleep(0.02)

    def root_call():
        time.sleep(0.01)
        outer_mod.leaf()
        outer_mod.leaf()

    inner_mod.leaf = leaf
    outer_mod.leaf = leaf            # a second binding of the same function
    outer_mod.root_call = root_call
    modules = {"fakepkg": package, "fakepkg.inner": inner_mod,
               "fakepkg.outer": outer_mod}
    sys.modules.update(modules)
    try:
        tracer = Tracer()
        tracer.prepare([Layer("inner.leaf", before=lambda args: time.sleep(0.05)),
                        Layer("outer.root_call")], package="fakepkg")
        tracer.install()
        wrapped = outer_mod.leaf is not leaf and inner_mod.leaf is not leaf
        outer_mod.root_call()
        tracer.uninstall()
        restored = outer_mod.leaf is leaf and inner_mod.leaf is leaf
    finally:
        for name in modules:
            sys.modules.pop(name)
    stats = tracer.summarize()
    problems = []
    if not (wrapped and restored):
        problems.append("tracer did not patch and restore every binding")
    if stats["inner.leaf"]["calls"] != 2 or stats["outer.root_call"]["calls"] != 1:
        problems.append(f"tracer call counts wrong: {stats}")
    if not 0.04 <= stats["inner.leaf"]["self_s"] < 0.07:
        problems.append(f"leaf self time {stats['inner.leaf']['self_s']:.4f} s, want 0.04")
    # root_call's 10 ms of its own; the 2 x 50 ms hooks are the tracer's.
    if not 0.01 <= stats["outer.root_call"]["self_s"] < 0.05:
        problems.append(f"root self time {stats['outer.root_call']['self_s']:.4f} s, "
                        f"want 0.01")
    return problems


def check_tail() -> list[str]:
    ordered = list(range(1, 1001))
    problems = []
    if common.tail(ordered, 99) != (99, 990, 10):
        problems.append(f"p99 of 1..1000: {common.tail(ordered, 99)}")
    if common.tail(ordered[:500], 99)[0] != 90:
        problems.append("p99 with 5 samples beyond did not fall back to p90")
    return problems


def run(root: str, end_to_end, per_layer, workloads: tuple[str, ...]) -> int:
    problems = check_guards(root) + check_tracer() + check_tail()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in workloads:
        first = end_to_end(workload, 7, 0, size="small")
        again = end_to_end(workload, 7, 0, size="small")
        if first["failed"] or again["failed"]:
            problems.append(f"{workload}: failed ops at the small size")
        if first["output_sha256"] != again["output_sha256"]:
            problems.append(f"{workload}: output digest differs between runs")
        names = {m["name"] for m in spec["end_to_end"]}
        if set(first["metrics"]) != names:
            problems.append(f"{workload}: end-to-end metrics {sorted(first['metrics'])}")
        if any(value <= 0 for value, _ in first["metrics"].values()):
            problems.append(f"{workload}: a metric is not positive")
    traced = per_layer(7, 0, workloads, size="small")
    if traced["failed"]:
        problems.append("traced runs had failed ops")
    missing = {m["name"] for m in spec["per_layer"]} ^ set(traced["metrics"])
    if missing:
        problems.append(f"per-layer names differ from BENCHMARK.json: {sorted(missing)}")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print(f"self-test: {'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0
