"""End-to-end command-line tests, all through main(argv)."""

import os

import numpy as np
import pytest

from adwm.cli import main
from adwm.data import read_manifest
from adwm.diagnostics import count_flops
from adwm.weighting import AdwmConfig, adwm_param_count

# small enough to train in seconds, big enough for window-32 metrics
TRAIN_FLAGS = [
    "--epochs", "1", "--channels", "6", "--blocks", "2",
    "--batch-size", "4", "--test-count", "1", "--seed", "1",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("data"))
    rc = main(["gen-data", "--out", d, "--count", "3",
               "--size", "32", "32", "--bands", "2", "--seed", "5"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = str(tmp_path_factory.mktemp("run"))
    rc = main(["train", "--data", data_dir, "--variant", "adwm",
               "--out", out, *TRAIN_FLAGS])
    assert rc == 0
    return out


def test_gen_data_layout(data_dir):
    rows = read_manifest(data_dir)
    assert len(rows) == 3
    assert rows[0]["c"] == 2 and rows[0]["H"] == 32
    for r in rows:
        for name in ("gt", "pan", "lrms"):
            assert os.path.isfile(os.path.join(data_dir, r["id"], f"{name}.tnsr"))


def test_gen_data_rejects_bad_size(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "x"), "--count", "1",
               "--size", "30", "32"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_train_writes_run_artifacts(run_dir):
    for name in ("checkpoint_best.ckpt", "checkpoint_final.ckpt",
                 "train_log.csv"):
        assert os.path.isfile(os.path.join(run_dir, name))


def test_train_log_copy(tmp_path, data_dir):
    out = tmp_path / "run"
    log = tmp_path / "copied.csv"
    rc = main(["train", "--data", data_dir, "--variant", "baseline",
               "--out", str(out), "--log", str(log), *TRAIN_FLAGS])
    assert rc == 0
    assert log.read_bytes() == (out / "train_log.csv").read_bytes()


def test_train_all_variants(tmp_path, data_dir):
    out = tmp_path / "all"
    rc = main(["train", "--data", data_dir, "--variant", "all",
               "--out", str(out), *TRAIN_FLAGS])
    assert rc == 0
    for variant in ("baseline", "ifw", "cfw", "adwm"):
        assert (out / variant / "checkpoint_final.ckpt").is_file()


def test_eval_report(tmp_path, run_dir, data_dir, capsys):
    report = tmp_path / "report.csv"
    ckpt = os.path.join(run_dir, "checkpoint_final.ckpt")
    rc = main(["eval", "--model", ckpt, "--data", data_dir,
               "--report", str(report)])
    assert rc == 0
    lines = report.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header.startswith("id,")
    for key in ("psnr", "sam", "ergas", "q2n"):
        assert key in header.split(",")
    assert lines[-1].startswith("mean,")
    # 3 samples + header + mean, plus leading comments
    assert len([l for l in lines if not l.startswith("#")]) == 5
    assert "psnr=" in capsys.readouterr().out


def test_eval_full_res_adds_consistency_metrics(tmp_path, run_dir, data_dir):
    report = tmp_path / "full.csv"
    ckpt = os.path.join(run_dir, "checkpoint_final.ckpt")
    rc = main(["eval", "--model", ckpt, "--data", data_dir,
               "--report", str(report), "--full-res"])
    assert rc == 0
    header = next(l for l in report.read_text().splitlines()
                  if not l.startswith("#"))
    cols = header.split(",")
    for key in ("d_lambda", "d_s", "hqnr"):
        assert key in cols


def test_eval_band_mismatch_is_usage_error(tmp_path, run_dir, capsys):
    other = tmp_path / "data3"
    assert main(["gen-data", "--out", str(other), "--count", "1",
                 "--size", "16", "16", "--bands", "3"]) == 0
    ckpt = os.path.join(run_dir, "checkpoint_final.ckpt")
    rc = main(["eval", "--model", ckpt, "--data", str(other),
               "--report", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "bands" in capsys.readouterr().err


def test_eval_truncated_checkpoint_exits_2(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(b"ADWM\x01\x00")
    rc = main(["eval", "--model", str(ckpt), "--data", data_dir,
               "--report", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


def test_diagnose_outputs_and_determinism(tmp_path, run_dir, data_dir):
    ckpt = os.path.join(run_dir, "checkpoint_final.ckpt")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["diagnose", "--model", ckpt, "--data", data_dir,
                   "--out", str(out)])
        assert rc == 0
        outs.append(out)
    expected = {
        "covariance_layer0.svg", "covariance_layer1.svg",
        "scree.csv", "scree.svg", "entropy.csv", "flops.csv",
        "weight_trace.csv",
    }
    assert {p.name for p in outs[0].iterdir()} == expected
    for name in expected:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_diagnose_skips_weight_trace_for_baseline(tmp_path, data_dir):
    out = tmp_path / "run"
    assert main(["train", "--data", data_dir, "--variant", "baseline",
                 "--out", str(out), *TRAIN_FLAGS]) == 0
    diag = tmp_path / "diag"
    rc = main(["diagnose", "--model", str(out / "checkpoint_final.ckpt"),
               "--data", data_dir, "--out", str(diag)])
    assert rc == 0
    assert not (diag / "weight_trace.csv").exists()
    assert (diag / "scree.csv").is_file()


def test_compare_csv_columns(tmp_path, data_dir):
    out = tmp_path / "cmp"
    rc = main(["compare", "--data", data_dir, "--out", str(out),
               "--methods", "cacw,pool", "--d-frac", "0.5,1.0",
               *TRAIN_FLAGS])
    assert rc == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 4
    for method, frac, params, flops, psnr in rows:
        frac = float(frac)
        cfg = AdwmConfig(n_layers=2, channels=6, ifw_d_fraction=frac,
                         cfw_d_fraction=frac, generator=method)
        assert int(params) == adwm_param_count(cfg)
        assert int(flops) == count_flops(32, 32, 6, 2, d_fraction=frac).total
        assert np.isfinite(float(psnr))


def test_compare_rejects_unknown_method(tmp_path, data_dir, capsys):
    rc = main(["compare-weighting", "--data", data_dir,
               "--out", str(tmp_path / "x"), "--methods", "magic"])
    assert rc == 2
    assert "magic" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    for op in ("matmul:", "conv2d:", "softmax:", "dual_level_weighting:",
               "model_end_to_end:"):
        assert op in out
    assert "all gradients verified" in out


def test_gradcheck_corrupt_fails_loudly(capsys):
    rc = main(["gradcheck", "--seed", "3", "--corrupt"])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(
        "# dataset recipe\n"
        "out = {}\n"
        "count = 2\n"
        "size = 16 16\n"
        "bands = 3\n".format(tmp_path / "d")
    )
    rc = main(["gen-data", "--config", str(cfg)])
    assert rc == 0
    rows = read_manifest(str(tmp_path / "d"))
    assert len(rows) == 2 and rows[0]["c"] == 3 and rows[0]["H"] == 16


def test_explicit_flag_beats_config(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"out = {tmp_path / 'd'}\ncount = 2\nsize = 16 16\nbands = 3\n")
    rc = main(["gen-data", "--config", str(cfg), "--bands", "2"])
    assert rc == 0
    assert read_manifest(str(tmp_path / "d"))[0]["c"] == 2


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    rc = main(["gradcheck", "--config", str(cfg)])
    assert rc == 2
    assert "wibble" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    rc = main(["gen-data", "--count", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--out" in err and "--size" in err


def test_missing_dataset_is_config_error(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o"), *TRAIN_FLAGS])
    assert rc == 2
