"""One benchmark worker: a fresh, single-threaded interpreter per workload.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --seconds S --min-passes P --mode setup|run --trace 0|1
        --size full|small

Set-up (importing omegalib and the workload module, then building the
seeded inputs through the library's parsers and generators) is timed from
before the first omegalib import.  In ``setup`` mode the worker stops
there.  In ``run`` mode it then serves whole passes over the inputs, at
least ``P`` of them and until ``S`` seconds of pass time have accrued, and
checks each pass's outputs between passes, outside the timed region.

Every pass repeats the same ops in the same order.  Between ops the worker
also times a reference kernel, and scales each op's time by the kernel
times around it (see ``common.OpClock``).  Each op keeps its fastest scaled
time over the passes; the op figures (rate, median, tail) come from these
per-op best times.  The raw, unscaled figures are reported beside them.

The worker prints one JSON object on its last stdout line.  It reads
``PYTHONPATH`` only for the checkout's ``src`` directory, which the parent
sets, and refuses to run against an omegalib imported from elsewhere.
"""

import sys
import time

OPTIONS = ("--root", "--workload", "--seed", "--seconds", "--min-passes",
           "--mode", "--trace", "--size")


def parse(argv):
    if len(argv) != 2 * len(OPTIONS) or set(argv[::2]) != set(OPTIONS):
        raise SystemExit(f"usage: worker.py {' '.join(o + ' X' for o in OPTIONS)}")
    return dict(zip(argv[::2], argv[1::2]))


def main(argv):
    opts = parse(argv)
    import importlib
    import os

    root = opts["--root"]
    name, size, mode = opts["--workload"], opts["--size"], opts["--mode"]
    traced = opts["--trace"] == "1"
    workdir = os.path.join(root, ".bench_build", "perfbench", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        start = time.perf_counter()
        import omegalib
        workload = importlib.import_module(name)
        tracer = None
        if traced:
            import tracing
            tracer = tracing.Tracer()
            tracer.prepare(workload.layers(tracer))
            tracer.install()
        inputs = workload.load(int(opts["--seed"]), workdir, size)
        setup_s = time.perf_counter() - start
        import common
        setup_kernel_ms = common.reference_best(5) * 1e3

        expected = os.path.realpath(os.path.join(root, "src", "omegalib"))
        found = os.path.realpath(os.path.dirname(omegalib.__file__))
        if found != expected:
            raise SystemExit(f"omegalib imported from {found}, not {expected}")
        result = {"setup_s": setup_s, "setup_kernel_ms": setup_kernel_ms}
        if mode == "run":
            result.update(measure(workload, inputs, float(opts["--seconds"]),
                                  int(opts["--min-passes"]), tracer))
            if tracer is not None:
                tracer.write(os.path.join(root, ".bench_build", "perfbench",
                                          f"spans-{name}.tsv"))
    finally:
        import shutil
        shutil.rmtree(workdir, ignore_errors=True)

    import json
    print(json.dumps(result))
    return 0


def measure(workload, inputs, seconds, min_passes, tracer):
    import hashlib
    import math
    import resource
    import statistics

    import common

    per_pass = workload.ops_per_pass(inputs)
    clock = common.OpClock(per_pass)
    run_start = tracer.mark() if tracer is not None else 0
    if tracer is not None:
        tracer.counters.clear()
    pass_s: list[float] = []
    failed = 0
    first_keys = rss_kb = None
    errors: list[str] = []
    while len(pass_s) < min_passes or sum(pass_s) < seconds:
        clock.start_pass()
        begin = time.perf_counter()
        outcome = workload.run_pass(inputs, clock.record)
        pass_s.append(time.perf_counter() - begin)
        clock.end_pass()
        if rss_kb is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
        bad, keys = workload.check(inputs, outcome)
        if first_keys is None:
            first_keys = keys
        else:
            bad |= {i for i, (k, f) in enumerate(zip(keys, first_keys)) if k != f}
        failed += len(bad)
        errors += [f"pass {len(pass_s)} op {i}: {keys[i][:200]}" for i in sorted(bad)[:3]]
        if tracer is not None:
            tracer.install()
        del outcome

    passes = len(pass_s)
    result = {
        "passes": passes,
        "attempted": passes * per_pass,
        "failed": failed,
        "errors": errors[:5],
        "pass_s": pass_s,
        "kernel_ms": statistics.median(clock.kernel_log) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "output_sha256": hashlib.sha256("\n".join(first_keys).encode()).hexdigest(),
    }
    for prefix, best in (("", clock.best), ("raw_", clock.raw_best)):
        ordered = sorted(best)
        percentile, tail_value, beyond = common.tail(ordered, workload.TAIL_PERCENTILE)
        result.update({
            f"{prefix}ops_per_s": per_pass / math.fsum(ordered),
            f"{prefix}op_p50_ms": statistics.median(ordered) * 1e3,
            f"{prefix}op_tail_ms": tail_value * 1e3,
            "tail_percentile": percentile,
            "tail_beyond": beyond,
            "samples": len(ordered),
        })
    if tracer is not None:
        tracer.uninstall()
        setup = tracer.summarize(0, run_start)
        run = tracer.summarize(run_start)
        layers = {}
        for phase, names, scale in ((run, workload.RUN_LAYERS, passes),
                                    (setup, workload.SETUP_LAYERS, 1)):
            for layer in names:
                stats = phase.get(layer, {"calls": 0, "self_s": 0.0})
                layers[f"{layer}.calls"] = (stats["calls"] / scale, "count")
                layers[f"{layer}.self_s"] = (stats["self_s"] / scale, "s")
        layers.update(workload.counter_metrics(tracer.counters, run, passes))
        result["layers"] = layers
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
