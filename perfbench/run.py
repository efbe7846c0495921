"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train_protocol --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` there and nowhere else. BLAS is pinned to BLAS_THREADS before
numpy loads, and the process to one CPU. With `--trace 0` the result
carries the end-to-end metrics of untraced rounds. With `--trace 1` it
runs a warm-up and a reference untraced round, then installs the span
tracer and runs traced rounds; the result carries the per-layer metrics,
and the spans are written to the work directory.

The last line of stdout is the result; lines before it name every
metric the workload measures, with its unit, and the environment.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke runs every workload at its smallest shapes")
    ap.add_argument("--work-dir", default=".perfbench_out",
                    help="scratch space for inputs, outputs and the span dump")
    return ap.parse_args(argv)


_TIME_IMPORT = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, 'src'); "
                "import adwm.cli; print(time.perf_counter() - t0)")


def import_package(root):
    """Import adwm from root/src; returns the median import time of fresh processes."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "adwm", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {src}/adwm; "
                         "run from the root of a source checkout")
    sys.path.insert(0, src)
    import adwm.cli
    if not os.path.abspath(adwm.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"perfbench: imported adwm from {adwm.__file__}, not {src}")
    # a user pays the import once per process, which this process already did
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", _TIME_IMPORT], cwd=root, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, tracer, seconds, min_rounds):
    """Closed loop: rounds back to back for about `seconds` of round time.

    A round's time is the wall time of its operations, without the
    benchmark's correctness checks. Another round starts unless it would
    end more than half a round past `seconds`. Garbage from the previous
    round is collected before each round, outside its time, so every
    round starts from the same heap.
    """
    times = []
    while True:
        times.append(one_round(workload, tracer))
        if len(times) >= min_rounds and sum(times) + statistics.median(times) / 2 > seconds:
            return times


def one_round(workload, tracer):
    gc.collect()
    workload.round_time = 0.0
    workload.run_round(tracer)
    return workload.round_time


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # The two vCPUs of a shared host can differ in speed by 10-20% for
    # minutes at a time. A single-threaded run left to the scheduler lands
    # on either one, which makes run-to-run results bimodal.
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    root = os.getcwd()
    import_s = import_package(root)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import envinfo
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    sizes = workloads.SMOKE if args.size == "smoke" else workloads.FULL
    work = os.path.join(root, args.work_dir, f"{args.workload}-{args.seed}")
    workloads.fresh_dir(work)
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, work)
    env = envinfo.stamp(root, allowed, BLAS_THREADS, BLAS_ENV)
    print("env " + json.dumps(env, sort_keys=True))

    # set-up runs SETUP_REPEATS times into fresh directories; the last
    # one's inputs are the ones the rounds use
    setup_s = []
    for i in range(SETUP_REPEATS):
        where = workloads.fresh_dir(os.path.join(work, f"setup{i}"))
        t0 = time.perf_counter()
        wl.setup(where)
        setup_s.append(time.perf_counter() - t0)

    tracer = Tracer()
    tracer.active = False
    if args.trace:
        result = traced(wl, tracer, args.seconds, work, env)
    else:
        # the first round also grows the heap; the medians over three or
        # more rounds leave it out
        round_s = run_rounds(wl, tracer, args.seconds, min_rounds=3)
        samples_per_s, named = wl.metrics()
        result = {
            "setup_s": (import_s + statistics.median(setup_s), "s"),
            "samples_per_s": (samples_per_s, "1/s"),
            "round_s": (statistics.median(round_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        named.update({k: result[k] for k in ("setup_s", "peak_rss_mb")})
        named["setup_import_s"] = (import_s, "s")
        named["setup_inputs_s"] = (statistics.median(setup_s), "s")
        named["rounds"] = (len(round_s), "count")
        for k, (v, unit) in named.items():
            print(f"{wl.name} {k} = {v:.6g} {unit}")

    ratio = wl.failed / wl.attempted if wl.attempted else float("nan")
    print(f"{wl.name} failed_ops_ratio = {ratio:.6g} "
          f"({wl.failed} failed of {wl.attempted} operations)")
    for p in wl.problems:
        print(f"{wl.name} FAILED: {p}")
    bad = [k for k, (v, _) in result.items() if not math.isfinite(v)]
    print(json.dumps({
        "correct": wl.failed == 0 and not bad,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    # inputs and outputs run to about 100 MB a run; only small files stay
    for name in os.listdir(work):
        if os.path.isdir(os.path.join(work, name)):
            shutil.rmtree(os.path.join(work, name))
    return 0


def traced(wl, tracer, seconds, work, env):
    """Per-layer metrics from traced rounds, after two untraced rounds.

    The first round grows the heap; the second is the untraced reference
    for the tracing overhead.
    """
    one_round(wl, tracer)
    t0 = time.perf_counter()
    untraced_s = one_round(wl, tracer)

    tracer.install()
    try:
        tracer.active = True
        where = os.path.join(work, "setup_traced")
        os.makedirs(where)
        wl.setup(where)
        build = tracer.build_summary()
        setup_layers = tracer.span_layers()
        tracer.clear()
        remaining = max(0.0, seconds - (time.perf_counter() - t0))
        round_s = run_rounds(wl, tracer, remaining, min_rounds=1)
    finally:
        tracer.active = False
        tracer.uninstall()

    layer = tracer.summary(rounds=len(round_s))
    layer.update(build)
    layer["trace.overhead_pct"] = 100.0 * (statistics.median(round_s) / untraced_s - 1.0)
    layer["trace.rounds"] = len(round_s)
    layers = sorted(set(setup_layers) | set(tracer.span_layers()))
    with open(os.path.join(work, "spans.json"), "w") as f:
        json.dump({"workload": wl.name, "env": env, "layers": layers,
                   "expected_layers": list(wl.layers), "rounds": len(round_s),
                   "untraced_round_s": untraced_s, "traced_round_s": round_s,
                   "spans": tracer.dump()}, f)
    print(f"{wl.name} spans: {len(tracer.spans)} over {len(round_s)} traced rounds, "
          f"layers {','.join(layers)}")
    print(f"{wl.name} tracing overhead = {layer['trace.overhead_pct']:.3g} %")
    return {k: (float(v), _unit(k)) for k, v in layer.items()}


def _unit(name):
    if name.endswith((".n", ".calls", "_calls", "steps", "errors", "rounds", "nodes")):
        return "count"
    if name.endswith("_pct"):
        return "%"
    if "_ms" in name:
        return "ms"
    if name.endswith("_mb") or name.endswith("mb_moved"):
        return "MB"
    if name.endswith("gmac"):
        return "GMAC"
    if "bytes" in name:
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
