"""omegalib benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload alloc_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1                 # every workload in turn
    python3 perfbench/run.py --self-test              # small sizes, quick

Every workload runs in fresh single-threaded worker interpreters
(``worker.py``), one at a time.  With ``--trace 0`` the benchmark reports the
end-to-end metrics of the named workload; ``setup_s`` is the median over
several fresh interpreters.  With ``--trace 1`` it runs each workload once
traced and once untraced and reports the per-layer metrics of all three
(the per-layer list names layers of every workload), plus the tracing
overhead.  Workers check every output; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything runs in one thread with no queue or lock, so no op ever waits
for another and there is no wait time to report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from common import KERNEL_REFERENCE_MS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("alloc_stream", "audit_sweep", "analysis_chain")
SETUP_SAMPLES = 4       # fresh interpreters before and again after the run
MIN_PASSES = 5          # per-op best times need several repeats
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git": git_sha()}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(workload: str, seed: int, seconds: float, mode: str, min_passes: int = 1,
           trace: bool = False, size: str = "full") -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--min-passes", str(min_passes),
           "--mode", mode,
           "--trace", "1" if trace else "0", "--size", size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "omegalib", "__init__.py")):
        raise BenchError(f"no omegalib source under {os.path.join(ROOT, 'src')}")


def speed(kernel_ms: float) -> float:
    """How much slower than the reference host this run's host was."""
    return kernel_ms / KERNEL_REFERENCE_MS


def end_to_end(workload: str, seed: int, seconds: float, size: str = "full") -> dict:
    worker(workload, seed, 0, "setup", size=size)   # warm the bytecode cache

    def setup_samples() -> list[dict]:
        return [worker(workload, seed, 0, "setup", size=size)
                for _ in range(SETUP_SAMPLES)]

    samples = setup_samples()
    run = worker(workload, seed, seconds, "run", MIN_PASSES, size=size)
    samples += setup_samples() + [run]
    setups = [s["setup_s"] / speed(s["setup_kernel_ms"]) for s in samples]
    run["metrics"] = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (run["ops_per_s"], "1/s"),
        "op_p50_ms": (run["op_p50_ms"], "ms"),
        "op_tail_ms": (run["op_tail_ms"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    note = {
        "setup_s": f"median of {len(setups)} fresh interpreters; raw median "
                   f"{statistics.median(s['setup_s'] for s in samples):.6f}",
        "ops_per_s": f"raw {run['raw_ops_per_s']:.6f}; {run['attempted']} ops in "
                     f"{run['passes']} passes, {sum(run['pass_s']):.2f} s",
        "op_p50_ms": f"raw {run['raw_op_p50_ms']:.6f}",
        "op_tail_ms": f"raw {run['raw_op_tail_ms']:.6f}; p{run['tail_percentile']:g}, "
                      f"{run['tail_beyond']} of {run['samples']} op bests beyond",
    }
    print(f"{workload:15s} {'host_kernel_ms':22s} {run['kernel_ms']:14.6f} {'ms':5s} "
          f"timings below are scaled to {KERNEL_REFERENCE_MS} ms")
    for name, (value, unit) in run["metrics"].items():
        print(f"{workload:15s} {name:22s} {value:14.6f} {unit:5s} {note.get(name, '')}")
    ratio = run["failed"] / run["attempted"]
    print(f"{workload:15s} {'failed_ops_ratio':22s} {ratio:14.6f} {'':5s} "
          f"{run['failed']} of {run['attempted']}")
    print(f"{workload:15s} {'output_sha256':22s} {run['output_sha256']}")
    print(f"{workload:15s} {'wait_time':22s} none: one thread, no queue or lock")
    for error in run["errors"]:
        print(f"{workload:15s} FAILED {error}")
    return run


def per_layer(seed: int, seconds: float, order: tuple[str, ...],
              size: str = "full") -> dict:
    """Traced and untraced runs of every workload; per-layer metrics."""
    slice_s = max(1.0, seconds / (2 * len(order)))
    totals = {"attempted": 0, "failed": 0, "metrics": {}}
    for workload in order:
        plain = worker(workload, seed, slice_s, "run", size=size)
        traced = worker(workload, seed, slice_s, "run", trace=True, size=size)
        factor = speed(traced["kernel_ms"])
        metrics = {f"{workload}.{name}": (value / factor if unit == "s" else value, unit)
                   for name, (value, unit) in traced["layers"].items()}
        plain_rate, traced_rate = plain["ops_per_s"], traced["ops_per_s"]
        metrics.update({
            f"{workload}.untraced_ops_per_s": (plain_rate, "1/s"),
            f"{workload}.traced_ops_per_s": (traced_rate, "1/s"),
            f"{workload}.trace_overhead_pct": ((plain_rate / traced_rate - 1) * 100, "%"),
        })
        for name, (value, unit) in metrics.items():
            print(f"{name:58s} {value:16.6f} {unit}")
        for run in (plain, traced):
            totals["attempted"] += run["attempted"]
            totals["failed"] += run["failed"]
            for error in run["errors"]:
                print(f"{workload:15s} FAILED {error}")
        totals["metrics"].update(metrics)
    return totals


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a small size and check "
                             "the harness itself")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        env = environment()
        print(f"perfbench seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} python={env['python']} nproc={env['nproc']} "
              f"git={env['git']}")
        if args.self_test:
            import selftest
            return selftest.run(ROOT, end_to_end, per_layer, WORKLOADS)
        chosen = (args.workload,) if args.workload else WORKLOADS
        if args.trace:
            order = chosen + tuple(w for w in WORKLOADS if w not in chosen)
            totals = per_layer(args.seed, args.seconds, order)
            print(result_line(totals["attempted"], totals["failed"], totals["metrics"]))
            return 0
        attempted = failed = 0
        metrics = {}
        for workload in chosen:
            run = end_to_end(workload, args.seed, args.seconds)
            attempted += run["attempted"]
            failed += run["failed"]
            prefix = "" if args.workload else f"{workload}."
            metrics.update({prefix + k: v for k, v in run["metrics"].items()})
        print(result_line(attempted, failed, metrics))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
