"""The ablation protocol behind acceptance criterion 8, trained and cached.

`PROTOCOL` and `train_runs`, the route that trains it, live in
`adwm.trainer`. Training is byte-deterministic within one numerics
environment, so the numbers are a pure function of PROTOCOL, the code
and the environment. The cache, tests/_ablation/result.json, records
all three: the protocol, `numerics_env()` and the digest of
`numerics.fingerprint()`, the bytes this code writes on a fixed
workload. A cache is current only when all three match this host and
code (`read_cache`). Criterion 8 asserts only on a current cache, and
`run_protocol` recomputes any other, which takes hours on one core.

Each run is keyed by its id, `<variant>_s<seed>` (`run_id`): its best
validation PSNR, its per-epoch history and its seconds. `paired` holds,
for each (a, b) in PAIRS, the per-seed differences a - b of best PSNR.

Run standalone:  python3 tests/ablation_protocol.py
"""

import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_PATH = os.path.join(HERE, "_ablation", "result.json")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, "..", "src"))

from adwm.data import build_dataset  # noqa: E402
from adwm.numerics import fingerprint, fingerprint_digest, numerics_env  # noqa: E402
from adwm.trainer import PROTOCOL, RUN_SETTINGS, train_runs  # noqa: E402

# the per-seed differences the cache keeps: the dual mechanism against
# each other variant, and each single level against the baseline
PAIRS = (("adwm", "baseline"), ("adwm", "ifw"), ("adwm", "cfw"),
         ("ifw", "baseline"), ("cfw", "baseline"))


def run_id(variant, seed):
    return f"{variant}_s{seed}"


def cache_key(hashes):
    """What a current cache must record besides the protocol: this host's
    numerics environment and the digest of `hashes`, a fingerprint that
    this code wrote here."""
    return {"numerics_env": numerics_env(), "fingerprint": fingerprint_digest(hashes)}


def current_key():
    """`cache_key` of a fingerprint run now, in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="adwm-ablation-key-") as work:
        return cache_key(fingerprint(os.path.join(work, "run")))


def read_cache(key, cache_path=CACHE_PATH):
    """The cached result when it was computed for PROTOCOL by the code and
    in the numerics environment that `key` names; otherwise None, also
    for a missing or unreadable file."""
    try:
        with open(cache_path) as f:
            cached = json.load(f)
    except (OSError, ValueError):
        return None
    if not isinstance(cached, dict) or cached.get("protocol") != PROTOCOL:
        return None
    if any(cached.get(name) != value for name, value in key.items()):
        return None
    return cached


def assemble(key, runs, total_seconds):
    """The cached result of PROTOCOL's runs, from `runs`, which maps each
    run id to its {"psnr", "history", "seconds"}."""
    p = PROTOCOL
    ids = [run_id(v, s) for v in p["variants"] for s in p["seeds"]]
    if sorted(runs) != sorted(ids):
        raise ValueError(f"runs {sorted(runs)} are not the protocol's {sorted(ids)}")
    psnr = {i: runs[i]["psnr"] for i in ids}
    paired = {f"{a}-{b}": {f"s{s}": psnr[run_id(a, s)] - psnr[run_id(b, s)]
                           for s in p["seeds"]}
              for a, b in PAIRS if a in p["variants"] and b in p["variants"]}
    return {
        "protocol": p,
        **key,
        "psnr": psnr,
        "paired": paired,
        "history": {i: runs[i]["history"] for i in ids},
        "per_run_seconds": {i: runs[i]["seconds"] for i in ids},
        "total_seconds": total_seconds,
        "cpu_count": os.cpu_count(),
    }


def medians(result):
    """{variant: median best PSNR over the protocol's seeds}."""
    p = result["protocol"]
    return {v: statistics.median(result["psnr"][run_id(v, s)] for s in p["seeds"])
            for v in p["variants"]}


def write_cache(result, cache_path=CACHE_PATH):
    os.makedirs(os.path.dirname(cache_path), exist_ok=True)
    tmp = cache_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    os.replace(tmp, cache_path)


def run_protocol(cache_path=CACHE_PATH, log=print, key=None):
    """Return the cached protocol result if it is current for `key`
    (default: `current_key()`), else train every run and cache the result."""
    key = current_key() if key is None else key
    cached = read_cache(key, cache_path)
    if cached is not None:
        return cached
    log("no ablation cache for this protocol, code and numerics environment; "
        "recomputing ablation")
    p = PROTOCOL
    t0 = time.time()
    scratch = os.path.join(os.path.dirname(cache_path), "scratch")
    data_dir = os.path.join(scratch, "data")
    if not os.path.isfile(os.path.join(data_dir, "manifest.txt")):
        build_dataset(p["data_seed"], p["count"], p["H"], p["W"], p["bands"],
                      data_dir)
    order = [(variant, seed) for variant in p["variants"] for seed in p["seeds"]]
    runs = {os.path.join(scratch, run_id(v, s)): ({"variant": v}, s) for v, s in order}
    done = {}
    run_start = time.time()  # the first run's seconds also span the dataset read
    trained = train_runs(data_dir, p["test_count"], runs,
                         {name: p[name] for name in RUN_SETTINGS})
    for (variant, seed), (_, result) in zip(order, trained):
        i = run_id(variant, seed)
        dt = time.time() - run_start
        done[i] = {"psnr": result.best_val_psnr, "history": result.history, "seconds": dt}
        log(f"  {i}: psnr {result.best_val_psnr:.4f} ({dt:.0f} s)")
        run_start = time.time()
    result = assemble(key, done, time.time() - t0)
    write_cache(result, cache_path)
    return result


if __name__ == "__main__":
    out = run_protocol()
    print(json.dumps({"medians": medians(out), "paired": out["paired"],
                      "total_seconds": out["total_seconds"]}, indent=1))
