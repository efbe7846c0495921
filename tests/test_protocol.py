"""The one training route, `trainer.train_runs`, and the ablation protocol
that runs through it."""

import filecmp
import json

import pytest

import ablation_protocol
from adwm import numerics, trainer
from adwm.cli import main

TOY = {**trainer.PROTOCOL, "count": 6, "H": 16, "W": 16, "bands": 2, "test_count": 2,
       "channels": 4, "blocks": 2, "epochs": 2, "batch_size": 2,
       "seeds": [0, 1], "variants": ["ifw", "adwm"]}


def refuse_to_train(*args, **kwargs):
    raise AssertionError("the cached protocol result was not used")


def test_protocol_is_defined_once():
    assert ablation_protocol.PROTOCOL is trainer.PROTOCOL
    assert numerics.WORKLOAD == {**trainer.PROTOCOL, "count": 40, "test_count": 8, "epochs": 1}


def test_run_protocol_returns_the_committed_cache_without_training(monkeypatch):
    # a drifted PROTOCOL would start an hours-long recompute inside tier 1
    monkeypatch.setattr(ablation_protocol, "train_runs", refuse_to_train)
    result = ablation_protocol.run_protocol(log=refuse_to_train)
    assert result["protocol"] == trainer.PROTOCOL
    with open(ablation_protocol.CACHE_PATH) as f:
        assert json.load(f) == result


def test_toy_protocol_runs_match_adwm_train_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(ablation_protocol, "PROTOCOL", TOY)
    cache = tmp_path / "ablation" / "result.json"
    result = ablation_protocol.run_protocol(cache_path=str(cache), log=lambda msg: None)
    assert result["protocol"] == TOY
    assert sorted(result["per_run_seconds"]) == ["adwm_s0", "adwm_s1", "ifw_s0", "ifw_s1"]

    runs = tmp_path / "ablation" / "scratch"
    for variant in TOY["variants"]:
        for k, seed in enumerate(TOY["seeds"]):
            out = tmp_path / "cli" / f"{variant}_s{seed}"
            assert main(["train", "--data", str(runs / "data"), "--variant", variant,
                         "--seed", str(seed), "--epochs", str(TOY["epochs"]),
                         "--channels", str(TOY["channels"]),
                         "--blocks", str(TOY["blocks"]),
                         "--batch-size", str(TOY["batch_size"]),
                         "--lr0", str(TOY["lr0"]),
                         "--halve-every", str(TOY["halve_every"]),
                         "--test-count", str(TOY["test_count"]),
                         "--out", str(out)]) == 0
            names = ["checkpoint_best.ckpt", "checkpoint_final.ckpt", "train_log.csv"]
            match, mismatch, errors = filecmp.cmpfiles(
                runs / f"{variant}_s{seed}", out, names, shallow=False)
            assert (match, mismatch, errors) == (names, [], [])
            # the log keeps 10 significant digits
            log = (out / "train_log.csv").read_text().splitlines()[1:]
            best = max(float(row.split(",")[3]) for row in log)
            assert result["psnr"][variant][k] == pytest.approx(best, rel=1e-9)

