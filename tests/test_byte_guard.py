"""Byte guard: the bytes a fixed workload writes, against the golden entry
for this numerics environment (tests/golden_bytes.json).

An environment with no entry gets its hashes printed and the comparison
skipped, with the command that writes the entry; its bytes are not
guarded there. `tests/golden_bytes.py` documents when to regenerate.
"""

import json

import numpy as np
import pytest

from adwm import numerics, trainer
from golden_bytes import load_golden


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return numerics.fingerprint(tmp_path_factory.mktemp("fingerprint") / "run")


def test_numerics_env_names_every_setting():
    env = numerics.numerics_env()
    assert set(env) == {"numpy", "blas", "blas_kernel", "machine"}
    assert all(isinstance(v, str) and v for v in env.values())
    assert env["numpy"] == np.__version__


def test_fingerprint_covers_every_arm_and_command(hashes):
    for variant, generator in numerics.ARMS:
        assert f"{variant}_{generator}/checkpoint_final.ckpt" in hashes
        assert f"{variant}_{generator}/train_log.csv" in hashes
    assert "report.csv" in hashes
    assert {"diagnose/scree.csv", "diagnose/weight_trace.csv"} <= set(hashes)


def test_bytes_match_the_golden_entry(hashes):
    key = numerics.env_key(numerics.numerics_env())
    entry = load_golden().get(key)
    if entry is None:
        print(json.dumps({key: {"env": numerics.numerics_env(), "hashes": hashes}},
                         indent=1, sort_keys=True))
        pytest.skip(f"no golden bytes for numerics environment {key!r}; "
                    "`python3 tests/golden_bytes.py` writes its entry")
    moved = sorted(p for p in set(entry["hashes"]) | set(hashes)
                   if entry["hashes"].get(p) != hashes.get(p))
    assert not moved, f"output bytes moved in {moved}"


def test_one_ulp_in_one_conv_tap_moves_the_fingerprint(hashes, tmp_path, monkeypatch):
    arm = ("baseline", "cacw")
    ckpt = "baseline_cacw/checkpoint_final.ckpt"
    assert numerics.fingerprint(tmp_path / "rerun", arms=(arm,))[ckpt] == hashes[ckpt]

    class Nudged(trainer.PansharpenModel):
        def __init__(self, config, seed=0):
            super().__init__(config, seed)
            tap = self.blocks[0]["w1"].data
            tap[0, 0, 1, 1] = np.nextafter(tap[0, 0, 1, 1], np.inf)

    # train_runs builds every run's model
    monkeypatch.setattr(trainer, "PansharpenModel", Nudged)
    assert numerics.fingerprint(tmp_path / "nudged", arms=(arm,))[ckpt] != hashes[ckpt]
