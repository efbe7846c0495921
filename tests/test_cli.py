"""End-to-end command-line tests, all through main(argv)."""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from adwm import cli, data
from adwm.backbone import PansharpenModel
from adwm.cli import main
from adwm.data import read_manifest
from adwm.diagnostics import count_flops
from adwm.tensor import Tensor, bias_act
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


@pytest.mark.parametrize("flags", [
    ["--size", "0", "0"],
    ["--size", "2", "2"],
    ["--size", "16", "16", "--bands", "0"],
    ["--size", "16", "16", "--count", "-1"],
    ["--size", "16", "16", "--count", "0"],
])
def test_gen_data_rejects_bad_count_bands_or_size(tmp_path, capsys, flags):
    out = tmp_path / "x"
    rc = main(["gen-data", "--out", str(out), "--count", "1", *flags])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_smallest_size_runs_every_command(tmp_path):
    d, run = str(tmp_path / "d"), tmp_path / "run"
    assert main(["gen-data", "--out", d, "--count", "2", "--size", "4", "4",
                 "--bands", "2"]) == 0
    assert main(["train", "--data", d, "--out", str(run), *TRAIN_FLAGS]) == 0
    ckpt = str(run / "checkpoint_final.ckpt")
    assert main(["eval", "--model", ckpt, "--data", d, "--full-res",
                 "--report", str(tmp_path / "r.csv")]) == 0
    assert main(["diagnose", "--model", ckpt, "--data", d,
                 "--out", str(tmp_path / "diag")]) == 0


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


def counted_reads(monkeypatch):
    """Record every TNSR file the commands read from here on."""
    reads = []
    read_tensor = data.read_tensor

    def counted(path):
        reads.append(path)
        return read_tensor(path)

    monkeypatch.setattr(data, "read_tensor", counted)
    return reads


def test_train_all_reads_the_dataset_once(tmp_path, data_dir, monkeypatch):
    reads = counted_reads(monkeypatch)
    rc = main(["train", "--data", data_dir, "--variant", "all",
               "--out", str(tmp_path / "all"), *TRAIN_FLAGS])
    assert rc == 0
    assert len(reads) == 3 * 3  # three samples, three files each


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


def test_eval_band_mismatch_is_usage_error(tmp_path, run_dir, capsys, monkeypatch):
    other = tmp_path / "data3"
    assert main(["gen-data", "--out", str(other), "--count", "1",
                 "--size", "16", "16", "--bands", "3"]) == 0
    reads = counted_reads(monkeypatch)
    ckpt = os.path.join(run_dir, "checkpoint_final.ckpt")
    rc = main(["eval", "--model", ckpt, "--data", str(other),
               "--report", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "bands" in capsys.readouterr().err
    # the manifest's band count is checked before any sample is read
    assert reads == []


def counted_forwards(monkeypatch):
    """Record every model forward the commands run from here on."""
    calls = []
    forward = PansharpenModel.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(PansharpenModel, "forward", counted)
    return calls


def test_eval_unwritable_report_exits_2_before_any_forward(tmp_path, run_dir,
                                                           data_dir, capsys,
                                                           monkeypatch):
    calls = counted_forwards(monkeypatch)
    report = tmp_path / "missing" / "r.csv"
    rc = main(["eval", "--model", os.path.join(run_dir, "checkpoint_final.ckpt"),
               "--data", data_dir, "--report", str(report), "--full-res"])
    assert rc == 2
    assert str(report) in capsys.readouterr().err
    assert calls == []
    assert not report.parent.exists()


def test_train_unwritable_log_exits_2_before_any_step(tmp_path, data_dir, capsys,
                                                      monkeypatch):
    calls = counted_forwards(monkeypatch)
    log = tmp_path / "missing" / "log.csv"
    out = tmp_path / "run"
    rc = main(["train", "--data", data_dir, "--variant", "adwm",
               "--out", str(out), "--log", str(log), *TRAIN_FLAGS])
    assert rc == 2
    assert str(log) in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_train_all_with_log_exits_2_before_reading_data(tmp_path, data_dir, capsys,
                                                        monkeypatch):
    reads = counted_reads(monkeypatch)
    log = tmp_path / "log.csv"
    out = tmp_path / "all"
    rc = main(["train", "--data", data_dir, "--variant", "all",
               "--out", str(out), "--log", str(log), *TRAIN_FLAGS])
    assert rc == 2
    assert "train_log.csv" in capsys.readouterr().err
    assert reads == []
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("lr0", ["nan", "inf"])
def test_non_finite_lr0_exits_2_before_reading_data(tmp_path, data_dir, capsys,
                                                    monkeypatch, command, lr0):
    reads = counted_reads(monkeypatch)
    rc = main([command, "--data", data_dir, "--out", str(tmp_path / "run"),
               *TRAIN_FLAGS, "--lr0", lr0])
    assert rc == 2
    assert "lr0" in capsys.readouterr().err
    assert reads == []
    assert list(tmp_path.rglob("train_log.csv")) == []


def test_log_or_report_naming_a_directory_exits_2(tmp_path, run_dir, data_dir,
                                                  capsys):
    rc = main(["eval", "--model", os.path.join(run_dir, "checkpoint_final.ckpt"),
               "--data", data_dir, "--report", str(tmp_path)])
    assert rc == 2
    assert str(tmp_path) in capsys.readouterr().err
    rc = main(["train", "--data", data_dir, "--out", str(tmp_path / "run"),
               "--log", str(tmp_path), *TRAIN_FLAGS])
    assert rc == 2
    assert str(tmp_path) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_truncated_checkpoint_exits_2(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(b"ADWM\x01\x00")
    rc = main(["eval", "--model", str(ckpt), "--data", data_dir,
               "--report", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


def test_eval_format_1_checkpoint_exits_2(tmp_path, run_dir, data_dir, capsys):
    with open(os.path.join(run_dir, "checkpoint_final.ckpt"), "rb") as f:
        raw = bytearray(f.read())
    struct.pack_into("<I", raw, 4, 1)
    ckpt = tmp_path / "v1.ckpt"
    ckpt.write_bytes(bytes(raw))
    rc = main(["eval", "--model", str(ckpt), "--data", data_dir,
               "--report", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "version 1" in capsys.readouterr().err


def test_eval_format_2_checkpoint_exits_2(tmp_path, run_dir, data_dir, capsys):
    with open(os.path.join(run_dir, "checkpoint_final.ckpt"), "rb") as f:
        raw = bytearray(f.read())
    struct.pack_into("<I", raw, 4, 2)
    ckpt = tmp_path / "v2.ckpt"
    ckpt.write_bytes(bytes(raw))
    report = tmp_path / "r.csv"
    rc = main(["eval", "--model", str(ckpt), "--data", data_dir,
               "--report", str(report)])
    assert rc == 2
    assert "version 2" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("field, value", [
    ("channels", 4.0), ("channels", True),
    ("d_fraction", True), ("d_fraction", "0.8"),
    ("seed", "x"), ("seed", -1), ("seed", None), ("seed", 1.5),
])
def test_eval_config_block_of_wrong_json_type_exits_2(tmp_path, run_dir, data_dir,
                                                      capsys, field, value):
    with open(os.path.join(run_dir, "checkpoint_final.ckpt"), "rb") as f:
        raw = f.read()
    n = struct.unpack_from("<I", raw, 8)[0]
    cfg = json.loads(raw[12:12 + n])
    cfg[field] = value
    blob = json.dumps(cfg, sort_keys=True).encode()
    ckpt = tmp_path / "typed.ckpt"
    ckpt.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])
    report = tmp_path / "r.csv"
    rc = main(["eval", "--model", str(ckpt), "--data", data_dir,
               "--report", str(report)])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "gradcheck"])
def test_negative_seed_exits_2(tmp_path, data_dir, capsys, command):
    out = tmp_path / "o"
    flags = {
        "gen-data": ["--out", str(out), "--count", "1", "--size", "16", "16"],
        "train": ["--data", data_dir, "--out", str(out), *TRAIN_FLAGS],
        "gradcheck": [],
    }[command]
    with pytest.raises(SystemExit) as e:
        main([command, *flags, "--seed", "-1"])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, frac", [
    ("compare", "abc"),
    ("compare", "0.5,"),
    ("compare", "0.5,0.50"),        # two runs into one cacw_d0.5 directory
    ("compare", "0.5,0.5000001"),   # so is any pair with one %g label
    ("train", "abc"),
    ("train", "0.5,1.0"),
])
def test_bad_d_frac_exits_2(tmp_path, data_dir, capsys, command, frac):
    out = tmp_path / "o"
    rc = main([command, "--data", data_dir, "--out", str(out),
               "--d-frac", frac, *TRAIN_FLAGS])
    assert rc == 2
    assert "--d-frac" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("train", ["--channels", "0"]),
    ("train", ["--blocks", "0"]),
    ("train", ["--d-frac", "3"]),
    ("compare", ["--d-frac", "3"]),
    ("compare", ["--d-frac", "0.5,3"]),  # the first run is fine
    # the layer weighting needs two channels as samples
    ("train", ["--channels", "1"]),
    ("train", ["--variant", "cfw", "--channels", "1"]),
    ("compare", ["--channels", "1"]),
])
def test_bad_model_setting_exits_2_before_reading_data(tmp_path, data_dir, capsys,
                                                       monkeypatch, command, flags):
    # only the band count needs the dataset, and it comes from the manifest
    reads = counted_reads(monkeypatch)
    out = tmp_path / "o"
    rc = main([command, "--data", data_dir, "--out", str(out), *TRAIN_FLAGS, *flags])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert reads == []
    assert not out.exists()


def test_ifw_trains_with_one_channel(tmp_path, data_dir):
    out = tmp_path / "ifw"
    rc = main(["train", "--data", data_dir, "--variant", "ifw", "--out", str(out),
               *TRAIN_FLAGS, "--channels", "1"])
    assert rc == 0
    assert (out / "checkpoint_final.ckpt").is_file()


def test_train_mixed_sample_shapes_exits_2(tmp_path, capsys):
    d, big = tmp_path / "d", tmp_path / "big"
    for out, size in ((d, "16"), (big, "32")):
        assert main(["gen-data", "--out", str(out), "--count", "2",
                     "--size", size, size, "--bands", "2", "--seed", "5"]) == 0
    shutil.copytree(big / "sample_00000", d / "big_00000")
    seed = read_manifest(str(big))[0]["seed"]
    with open(d / "manifest.txt", "a") as f:
        f.write(f"big_00000\t{seed}\t32\t32\t2\n")
    # every sample trains, so the one batch of three mixes two shapes
    rc = main(["train", "--data", str(d), "--out", str(tmp_path / "o"),
               *TRAIN_FLAGS, "--test-count", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "big_00000" in err and "(32, 32, 2)" in err and "(16, 16, 2)" in err


def test_train_empty_manifest_exits_2(tmp_path, capsys):
    d = tmp_path / "d"
    d.mkdir()
    (d / "manifest.txt").write_text("")
    rc = main(["train", "--data", str(d), "--out", str(tmp_path / "o"), *TRAIN_FLAGS])
    assert rc == 2
    assert "lists no samples" in capsys.readouterr().err


def test_train_missing_sample_file_exits_2(tmp_path, capsys):
    d = str(tmp_path / "d")
    assert main(["gen-data", "--out", d, "--count", "2",
                 "--size", "16", "16", "--bands", "2", "--seed", "5"]) == 0
    os.remove(os.path.join(d, read_manifest(d)[1]["id"], "pan.tnsr"))
    rc = main(["train", "--data", d, "--out", str(tmp_path / "o"), *TRAIN_FLAGS])
    assert rc == 2
    err = capsys.readouterr().err
    assert "is missing" in err and "pan.tnsr" in err


@pytest.mark.parametrize("line, needle", [
    (b"sample_00000\tx\t16\t16\t2\n", "must be integers"),
    (b"sample_\xff\t5\t16\t16\t2\n", "not UTF-8"),
    (b"../d/sample_00000\t5\t16\t16\t2\n", "not a plain file name"),
    (b"sample_00000\t5\t16\t16\t2\n", "repeats line 1"),
])
def test_train_bad_manifest_exits_2(tmp_path, capsys, line, needle):
    d = str(tmp_path / "d")
    assert main(["gen-data", "--out", d, "--count", "2",
                 "--size", "16", "16", "--bands", "2", "--seed", "5"]) == 0
    with open(os.path.join(d, "manifest.txt"), "ab") as f:
        f.write(line)
    rc = main(["train", "--data", d, "--out", str(tmp_path / "o"), *TRAIN_FLAGS])
    assert rc == 2
    assert needle in capsys.readouterr().err


def test_train_overflowing_tnsr_dims_exits_2(tmp_path, capsys):
    d = str(tmp_path / "d")
    assert main(["gen-data", "--out", d, "--count", "2",
                 "--size", "16", "16", "--bands", "2", "--seed", "5"]) == 0
    dims = (2**21, 2**21, 2**22)  # 2**65 elements, 0 after an int64 wrap
    with open(os.path.join(d, read_manifest(d)[0]["id"], "pan.tnsr"), "wb") as f:
        f.write(b"TNSR" + struct.pack("<II3IB", 1, 3, *dims, 2))
    rc = main(["train", "--data", d, "--out", str(tmp_path / "o"), *TRAIN_FLAGS])
    assert rc == 2
    assert "truncated payload" in capsys.readouterr().err


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


def test_diagnose_forwards_the_probe_once(tmp_path, run_dir, data_dir,
                                         monkeypatch):
    calls = []
    forward = PansharpenModel.forward

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("return_weights", False))
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(PansharpenModel, "forward", counted)
    rc = main(["diagnose", "--model",
               os.path.join(run_dir, "checkpoint_final.ckpt"),
               "--data", data_dir, "--out", str(tmp_path / "d")])
    assert rc == 0
    assert calls == [True]
    assert (tmp_path / "d" / "weight_trace.csv").is_file()


def test_diagnose_reads_only_the_probe(tmp_path, run_dir, data_dir, monkeypatch):
    reads = counted_reads(monkeypatch)
    rc = main(["diagnose", "--model",
               os.path.join(run_dir, "checkpoint_final.ckpt"),
               "--data", data_dir, "--out", str(tmp_path / "d")])
    assert rc == 0
    assert len(reads) == 3


@pytest.mark.parametrize("absolute", [False, True])
def test_diagnose_sample_outside_the_dataset_exits_2(tmp_path, run_dir, capsys,
                                                     monkeypatch, absolute):
    d = tmp_path / "d"
    assert main(["gen-data", "--out", str(d), "--count", "1",
                 "--size", "16", "16", "--bands", "2"]) == 0
    shutil.copytree(d / "sample_00000", tmp_path / "outside")
    sample = str(tmp_path / "outside") if absolute else "../outside"
    reads = counted_reads(monkeypatch)
    rc = main(["diagnose", "--model",
               os.path.join(run_dir, "checkpoint_final.ckpt"),
               "--data", str(d), "--out", str(tmp_path / "diag"),
               "--sample", sample])
    assert rc == 2
    assert "not a plain file name" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "diag").exists()


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
        cfg = AdwmConfig(n_layers=2, channels=6, d_fraction=frac,
                         generator=method)
        assert int(params) == adwm_param_count(cfg)
        assert int(flops) == count_flops(32, 32, 6, 2, d_fraction=frac).total
        assert np.isfinite(float(psnr))


def test_compare_reads_the_dataset_once(tmp_path, data_dir, monkeypatch):
    reads = counted_reads(monkeypatch)
    rc = main(["compare", "--data", data_dir, "--out", str(tmp_path / "cmp"),
               "--methods", "cacw,pool", "--d-frac", "0.5,1.0", *TRAIN_FLAGS])
    assert rc == 0
    assert len(reads) == 3 * 3  # four runs share one read of three samples


@pytest.mark.parametrize("methods", ["", " , ", "cacw,cacw", "pool, cacw,pool"])
def test_compare_run_list_without_methods_or_with_a_repeat_exits_2(
        tmp_path, data_dir, capsys, monkeypatch, methods):
    reads = counted_reads(monkeypatch)
    out = tmp_path / "o"
    rc = main(["compare", "--data", data_dir, "--out", str(out),
               "--methods", methods, *TRAIN_FLAGS])
    assert rc == 2
    assert "--methods" in capsys.readouterr().err
    assert reads == [] and not out.exists()


def test_compare_rejects_unknown_method(tmp_path, data_dir, capsys):
    rc = main(["compare-weighting", "--data", data_dir,
               "--out", str(tmp_path / "x"), "--methods", "magic"])
    assert rc == 2
    assert "magic" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    for op in ("matmul:", "conv2d:", "bias_act:", "bias_act_linear:",
               "bias_act_residual:", "channel_scale:", "softmax:", "centered_gram:",
               "attention_weights:", "dual_level_weighting:", "model_end_to_end:"):
        assert op in out
    assert "all gradients verified" in out


def test_gradcheck_corrupt_fails_loudly(capsys):
    rc = main(["gradcheck", "--seed", "3", "--corrupt"])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_bias_act_on_a_grad_leaf_exits_2(monkeypatch, capsys):
    # bias_act writes over its input; a leaf that requires grad is refused
    # with a UsageError, which the CLI maps to exit 2
    def suite(seed, corrupt=False):
        leaf = Tensor(np.ones((2, 2, 2)), requires_grad=True)
        return [("bias_act", bias_act(leaf, np.zeros(2)).data.sum())]

    monkeypatch.setattr(cli, "_gradcheck_suite", suite)
    assert main(["gradcheck", "--seed", "0"]) == 2
    assert "leaf that requires grad" in capsys.readouterr().err


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


def test_abbreviated_explicit_flag_beats_config(tmp_path, data_dir):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 3\nvariant = baseline\n")
    out = tmp_path / "run"
    assert TRAIN_FLAGS[:2] == ["--epochs", "1"]
    rc = main(["train", "--config", str(cfg), "--data", data_dir,
               "--out", str(out), "--epoch", "1", *TRAIN_FLAGS[2:]])
    assert rc == 0
    log = (out / "train_log.csv").read_text().splitlines()
    assert len(log) == 1 + 1  # header and one epoch


def test_config_values_obey_choices(tmp_path, data_dir):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("generator = nosuch\nvariant = baseline\n")
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as e:
        main(["train", "--config", str(cfg), "--data", data_dir,
              "--out", str(out), *TRAIN_FLAGS])
    assert e.value.code == 2
    assert not out.exists()


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


# ----------------------------------------------------------------------
# OS errors on paths the user names exit 2 with the path in the message

def _os_error_cases(tmp, run_dir, data_dir):
    afile = tmp / "afile"
    afile.write_text("x")
    adir = tmp / "adir"
    adir.mkdir()
    ckpt = os.path.join(run_dir, "checkpoint_final.ckpt")
    report = str(tmp / "r.csv")
    return {
        "eval_missing_model": (
            ["eval", "--model", str(tmp / "nosuch.ckpt"), "--data", data_dir,
             "--report", report], "nosuch.ckpt"),
        "eval_model_is_a_directory": (
            ["eval", "--model", str(adir), "--data", data_dir, "--report", report],
            str(adir)),
        "eval_report_in_missing_directory": (
            ["eval", "--model", ckpt, "--data", data_dir,
             "--report", str(tmp / "nodir" / "r.csv")], str(tmp / "nodir")),
        "train_out_is_a_file": (
            ["train", "--data", data_dir, "--out", str(afile), *TRAIN_FLAGS],
            str(afile)),
        "diagnose_out_is_a_file": (
            ["diagnose", "--model", ckpt, "--data", data_dir, "--out", str(afile)],
            str(afile)),
        "gen_data_out_is_a_file": (
            ["gen-data", "--out", str(afile), "--count", "1", "--size", "16", "16"],
            str(afile)),
    }


@pytest.mark.parametrize("case", [
    "eval_missing_model", "eval_model_is_a_directory",
    "eval_report_in_missing_directory", "train_out_is_a_file",
    "diagnose_out_is_a_file", "gen_data_out_is_a_file",
])
def test_os_error_on_named_path_exits_2(tmp_path, run_dir, data_dir, capsys, case):
    argv, path = _os_error_cases(tmp_path, run_dir, data_dir)[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
    assert "Traceback" not in err


def test_os_error_without_a_path_is_not_a_usage_error(monkeypatch):
    # only errors on a named path map to exit 2; anything else stays loud
    def broken(args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("adwm.cli.cmd_gradcheck", broken)
    with pytest.raises(OSError):
        main(["gradcheck"])
