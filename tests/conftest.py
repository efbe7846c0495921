import shutil
import sys
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from adwm import numerics, tensor

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis caches the constants it reads from local modules under its
    # storage directory even with database=None; keep that cache out of the
    # tree and drop it when the session ends
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="adwm-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture
def poisoned_empty(monkeypatch):
    """A call that makes `_empty`, in `tensor` and in every adwm module that
    imports it, fill each buffer with NaN, until the test ends. An op that
    reads any element of its buffer before writing it then shows NaN in
    its result."""
    empty = tensor._empty

    def nan_empty(shape, dtype):
        out = empty(shape, dtype)
        out.fill(np.nan)
        return out

    def poison():
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "adwm" and getattr(module, "_empty", None) is empty:
                monkeypatch.setattr(module, "_empty", nan_empty)

    return poison


@pytest.fixture(scope="session")
def fingerprint_hashes(tmp_path_factory):
    """`numerics.fingerprint()` of this code on this host, run once per
    session: the byte guard compares it with its golden entry, and the
    ablation cache must record its digest."""
    return numerics.fingerprint(tmp_path_factory.mktemp("fingerprint") / "run")
