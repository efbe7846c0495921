"""The ablation protocol behind acceptance criterion 8, trained and cached.

`PROTOCOL` and `train_runs`, the route that trains it, live in
`adwm.trainer`. Training is byte-deterministic within one numerics
environment, so the numbers are a pure function of PROTOCOL there. The
first execution caches them as JSON, and the acceptance test asserts on
the cached numbers. Delete tests/_ablation/ to recompute from scratch.

Run standalone:  python3 tests/ablation_protocol.py
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_PATH = os.path.join(HERE, "_ablation", "result.json")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, "..", "src"))

from adwm.data import build_dataset  # noqa: E402
from adwm.trainer import PROTOCOL, RUN_SETTINGS, train_runs  # noqa: E402


def run_protocol(cache_path=CACHE_PATH, log=print):
    """Return the cached protocol result, computing it on first use."""
    p = PROTOCOL
    if os.path.isfile(cache_path):
        with open(cache_path) as f:
            cached = json.load(f)
        if cached.get("protocol") == p:
            return cached
        log("protocol changed; recomputing ablation")
    t0 = time.time()
    scratch = os.path.join(os.path.dirname(cache_path), "scratch")
    data_dir = os.path.join(scratch, "data")
    if not os.path.isfile(os.path.join(data_dir, "manifest.txt")):
        build_dataset(p["data_seed"], p["count"], p["H"], p["W"], p["bands"],
                      data_dir)
    order = [(variant, seed) for variant in p["variants"] for seed in p["seeds"]]
    runs = {os.path.join(scratch, f"{variant}_s{seed}"): ({"variant": variant}, seed)
            for variant, seed in order}
    psnr = {v: [] for v in p["variants"]}
    runtimes = {}
    run_start = time.time()  # the first run's seconds also span the dataset read
    trained = train_runs(data_dir, p["test_count"], runs,
                         {name: p[name] for name in RUN_SETTINGS})
    for (variant, seed), (_, result) in zip(order, trained):
        dt = time.time() - run_start
        runtimes[f"{variant}_s{seed}"] = dt
        psnr[variant].append(result.best_val_psnr)
        log(f"  {variant} seed {seed}: psnr {result.best_val_psnr:.4f} "
            f"({dt:.0f} s)")
        run_start = time.time()  # the first run's seconds also span the dataset read
    result = {
        "protocol": p,
        "psnr": psnr,
        "per_run_seconds": runtimes,
        "total_seconds": time.time() - t0,
        "cpu_count": os.cpu_count(),
    }
    os.makedirs(os.path.dirname(cache_path), exist_ok=True)
    tmp = cache_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    os.replace(tmp, cache_path)
    return result


if __name__ == "__main__":
    out = run_protocol()
    print(json.dumps({k: out[k] for k in ("psnr", "total_seconds")}, indent=1))
