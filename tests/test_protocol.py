"""The one training route, `trainer.train_runs`, and the ablation protocol
that runs through it."""

import filecmp
import json

import pytest

import ablation_protocol
import test_acceptance
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


def test_run_protocol_returns_the_committed_cache_without_training(monkeypatch,
                                                                  fingerprint_hashes):
    # a stale cache would start an hours-long recompute inside tier 1
    key = ablation_protocol.cache_key(fingerprint_hashes)
    if ablation_protocol.read_cache(key) is None:
        pytest.skip("the committed ablation cache is not current for this numerics "
                    f"environment, {numerics.env_key(key['numerics_env'])!r}")
    monkeypatch.setattr(ablation_protocol, "train_runs", refuse_to_train)
    result = ablation_protocol.run_protocol(log=refuse_to_train, key=key)
    assert result["protocol"] == trainer.PROTOCOL
    with open(ablation_protocol.CACHE_PATH) as f:
        assert json.load(f) == result


def test_committed_cache_keeps_one_entry_per_protocol_run():
    with open(ablation_protocol.CACHE_PATH) as f:
        cached = json.load(f)
    p = trainer.PROTOCOL
    assert cached["protocol"] == p
    ids = {f"{v}_s{s}" for v in p["variants"] for s in p["seeds"]}
    for name in ("psnr", "history", "per_run_seconds"):
        assert set(cached[name]) == ids, name
    for i in ids:
        assert [row["epoch"] for row in cached["history"][i]] == list(range(1, p["epochs"] + 1))
        assert cached["psnr"][i] == max(row["val_psnr"] for row in cached["history"][i])
    assert set(cached["paired"]) == {f"{a}-{b}" for a, b in ablation_protocol.PAIRS}
    for pair, diffs in cached["paired"].items():
        a, b = pair.split("-")
        assert diffs == {f"s{s}": cached["psnr"][f"{a}_s{s}"] - cached["psnr"][f"{b}_s{s}"]
                         for s in p["seeds"]}
    assert set(cached["numerics_env"]) == set(numerics.numerics_env())
    assert len(cached["fingerprint"]) == 64


def stale_copies(cache, tmp_path):
    """Copies of a cache that differ from it in one recorded key each."""
    text = cache.read_text()
    cached = json.loads(text)
    env = dict(cached["numerics_env"], blas_kernel="Haswell")
    other = {"env": {**cached, "numerics_env": env},
             "fingerprint": {**cached, "fingerprint": "0" * 64},
             "protocol": {**cached, "protocol": {**cached["protocol"], "seeds": [0, 1]}}}
    paths = {}
    for name, stale in other.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(stale))
    paths["truncated"] = tmp_path / "truncated.json"
    paths["truncated"].write_text(text[:100])
    return paths


@pytest.mark.parametrize("stale", ["env", "fingerprint", "protocol", "truncated"])
def test_a_stale_cache_never_passes_criterion_8(stale, tmp_path, monkeypatch,
                                                fingerprint_hashes):
    # a current cache for this host, then the same cache with one key moved
    key = ablation_protocol.cache_key(fingerprint_hashes)
    current = tmp_path / "current.json"
    with open(ablation_protocol.CACHE_PATH) as f:
        cached = json.load(f)
    current.write_text(json.dumps({**cached, **key}))
    assert ablation_protocol.read_cache(key, current) is not None
    path = stale_copies(current, tmp_path)[stale]
    assert ablation_protocol.read_cache(key, path) is None
    monkeypatch.setattr(ablation_protocol, "CACHE_PATH", str(path))
    with pytest.raises(pytest.skip.Exception, match="ablation_protocol.py"):
        test_acceptance.test_criterion_08_ablation_direction(fingerprint_hashes)


def test_toy_protocol_runs_match_adwm_train_byte_for_byte(tmp_path, monkeypatch,
                                                          fingerprint_hashes):
    monkeypatch.setattr(ablation_protocol, "PROTOCOL", TOY)
    cache = tmp_path / "ablation" / "result.json"
    key = ablation_protocol.cache_key(fingerprint_hashes)
    result = ablation_protocol.run_protocol(cache_path=str(cache), log=lambda msg: None,
                                            key=key)
    assert result["protocol"] == TOY
    ids = ["adwm_s0", "adwm_s1", "ifw_s0", "ifw_s1"]
    for name in ("psnr", "history", "per_run_seconds"):
        assert sorted(result[name]) == ids
    assert result["paired"] == {"adwm-ifw": {
        f"s{s}": result["psnr"][f"adwm_s{s}"] - result["psnr"][f"ifw_s{s}"] for s in (0, 1)}}
    # a current cache is read, not trained again
    monkeypatch.setattr(ablation_protocol, "train_runs", refuse_to_train)
    again = ablation_protocol.run_protocol(cache_path=str(cache), log=refuse_to_train,
                                           key=key)
    assert again == json.loads(cache.read_text())

    runs = tmp_path / "ablation" / "scratch"
    for variant in TOY["variants"]:
        for seed in TOY["seeds"]:
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
            assert result["psnr"][f"{variant}_s{seed}"] == pytest.approx(best, rel=1e-9)

