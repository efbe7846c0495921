"""Which numerics environment this is, and which bytes it computes.

Training bytes are a pure function of (seed, config, data) only within
one numerics environment: the numpy build, the BLAS library and the
BLAS kernel it dispatched to (OpenBLAS picks one per CPU at load time)
all move the last bits of a GEMM or a ufunc loop. So "byte-identical"
in this project means "byte-identical within one `numerics_env()`".

`fingerprint()` runs a small fixed workload through the public routes
and returns the SHA-256 of every file it writes: each training arm's
final checkpoint and log, an `eval --full-res` report and the
`diagnose` output of the adwm arm. The tier-1 byte guard compares it
with the entry that `tests/golden_bytes.json` holds for this
environment; `tests/golden_bytes.py` writes that entry.
"""

import contextlib
import ctypes
import hashlib
import io
import os
import platform

import numpy as np

from .cli import main as cli_main
from .data import build_dataset
from .trainer import PROTOCOL, RUN_SETTINGS, train_runs

# OpenBLAS's name for the kernel it chose, by build flavour
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename")

# (variant, weight generator): the four ablation arms, then the other
# generators on the dual-level arm
ARMS = (("baseline", "cacw"), ("ifw", "cacw"), ("cfw", "cacw"), ("adwm", "cacw"),
        ("adwm", "pool"), ("adwm", "attention"), ("adwm", "pca"))

# the ablation protocol at its shape (B=16, 64x64, 4 bands, C=16, N=4),
# on 40 samples with 8 held out, for one epoch: two steps per arm; eval
# and diagnose read 2 more samples
WORKLOAD = {**PROTOCOL, "count": 40, "test_count": 8, "epochs": 1}
EVAL_SAMPLES = 2


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _blas_kernel():
    """The kernel OpenBLAS dispatched to, read from the loaded library, or
    "unknown" where there is no such library or no way to find it."""
    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "blas" in ln.lower() and ".so" in ln}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _CORENAME_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                return fn().decode()
    return "unknown"


def numerics_env():
    """The settings that decide float64 bytes on this host, as strings:
    numpy's version, the BLAS name and version, the BLAS kernel and the
    machine architecture."""
    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_kernel": _blas_kernel(),
        "machine": platform.machine(),
    }


def env_key(env):
    """The one-line key of a `numerics_env()` result."""
    return " | ".join(env[k] for k in ("numpy", "blas", "blas_kernel", "machine"))


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(list(argv))
    if code != 0:
        raise RuntimeError(f"adwm {' '.join(argv)} exited {code}")


@contextlib.contextmanager
def _cwd(path):
    prev = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(prev)


def fingerprint(work_dir, arms=ARMS):
    """{path: SHA-256 hex} of every file a fixed workload writes under
    `work_dir`, which must be empty or absent.

    Each (variant, generator) in `arms` trains through
    `trainer.train_runs`, with WORKLOAD's settings and seed 0, into
    `<variant>_<generator>/`.
    When the adwm/cacw arm is among them, `eval --full-res` and
    `diagnose` then read its final checkpoint. The commands run with
    relative paths from `work_dir`, so the report's metadata and every
    hash are the same wherever `work_dir` is.
    """
    w = WORKLOAD
    os.makedirs(work_dir, exist_ok=True)
    written = []
    with _cwd(work_dir):
        build_dataset(w["data_seed"], w["count"], w["H"], w["W"], w["bands"], "data")
        runs = {f"{variant}_{generator}": ({"variant": variant, "generator": generator}, 0)
                for variant, generator in arms}
        for _, result in train_runs("data", w["test_count"], runs,
                                    {name: w[name] for name in RUN_SETTINGS}):
            written += [result.final_path, result.log_path]
        if ("adwm", "cacw") in arms:
            build_dataset(w["data_seed"] + 1, EVAL_SAMPLES, w["H"], w["W"], w["bands"],
                          "eval_data")
            ckpt = os.path.join("adwm_cacw", "checkpoint_final.ckpt")
            _cli("eval", "--model", ckpt, "--data", "eval_data",
                 "--report", "report.csv", "--full-res")
            _cli("diagnose", "--model", ckpt, "--data", "eval_data", "--out", "diagnose")
            written.append("report.csv")
            written += [os.path.join("diagnose", n) for n in sorted(os.listdir("diagnose"))]
        hashes = {}
        for path in written:
            with open(path, "rb") as f:
                hashes[path.replace(os.sep, "/")] = hashlib.sha256(f.read()).hexdigest()
    return hashes
