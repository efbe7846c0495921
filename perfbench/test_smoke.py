"""Smoke test of the benchmark itself, at the smallest shapes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced from a copy of the
checkout, then checks that every end-to-end metric in BENCHMARK.json is
present, finite and carries its unit, that the traced run emits every
per-layer metric, and that the traced runs together produce spans for
every layer. It also checks that the benchmark refuses to run without
the package source.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("tensor", "backbone", "weighting", "cacw", "trainer", "data",
          "metrics", "diagnostics", "cli")
TIMEOUT_S = 170


def _checkout(dest, with_source=True):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), dest)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(REPO, path), os.path.join(dest, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        shutil.copytree(os.path.join(REPO, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--size", "smoke"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _checkout(str(tmp_path_factory.mktemp("checkout")))


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert math.isfinite(got["value"]), m["name"]
        assert got["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(checkout, workload):
    proc = _run(checkout, workload, 0)
    _check_metrics(_result(proc), SPEC["end_to_end"])
    for name in ("setup_s", "peak_rss_mb", "failed_ops_ratio"):
        assert f"{workload} {name} = " in proc.stdout


def test_traced_runs_cover_every_layer(checkout):
    seen = set()
    for workload in WORKLOADS:
        proc = _run(checkout, workload, 1)
        _check_metrics(_result(proc), SPEC["per_layer"])
        with open(os.path.join(checkout, ".perfbench_out", f"{workload}-3",
                               "spans.json")) as f:
            dump = json.load(f)
        assert set(dump["expected_layers"]) <= set(dump["layers"]), dump["layers"]
        seen |= set(dump["layers"])
    assert set(LAYERS) <= seen


def test_refuses_to_run_without_source(tmp_path):
    bare = _checkout(str(tmp_path), with_source=False)
    proc = _run(bare, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
