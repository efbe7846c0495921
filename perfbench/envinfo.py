"""Environment stamp printed with every result.

Numbers from hosts with other core counts, BLAS builds or thread
settings are not comparable; the stamp says which ones produced a result.
"""

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads", "MKL_Get_Max_Threads")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _blas_threads_in_use():
    """Threads the loaded BLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "blas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_QUERIES:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _source_digest(root):
    """SHA-256 over the package sources, which identifies them without git."""
    src = os.path.join(root, "src", "adwm")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def stamp(root, allowed_cpus, blas_threads, blas_env):
    return {
        "nproc": len(allowed_cpus),
        "cpu_count": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "blas_threads_pinned": blas_threads,
        "blas_threads_reported": _blas_threads_in_use(),
        "blas_env": {v: os.environ.get(v) for v in blas_env},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
