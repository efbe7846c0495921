import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

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
