"""Package-level acceptance gate.

One test per numbered guarantee, each printing a single pass/fail line
(visible with -s, or in the captured output on failure). Tolerances are
stated inline; none of them may be loosened without a decision record.

Criterion 8 trains the four-variant ablation at full protocol scale. The
run is byte-deterministic (criterion 11), so its numbers are cached in
tests/_ablation/result.json after the first execution; delete that
directory to recompute from scratch (hours on a laptop core).
"""

import contextlib
import statistics
import time

import numpy as np
import pytest

from adwm.backbone import ModelConfig, PansharpenModel, load_checkpoint
from adwm.cacw import (
    CacwModule,
    cacw_forward,
    compute_covariance,
    normalize_covariance,
    pca_eigendecompose,
)
from adwm.cli import _gradcheck_suite, main
from adwm.diagnostics import count_flops
from adwm.metrics import d_lambda, d_s, ergas, hqnr, psnr, q2n, q_index, sam
from adwm.tensor import Tensor
from adwm.weighting import (
    AdwmConfig,
    aggregate,
    cfw_apply,
    make_adwm_modules,
)

from ablation_protocol import run_protocol
from test_diagnostics import instrumented_weighting


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    print(f"criterion {num:2d}: PASS - {desc}")


def test_criterion_01_covariance_oracle():
    with criterion(1, "covariance matches a double-loop oracle on 100 draws"):
        rng = np.random.default_rng(101)
        t0 = time.monotonic()
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(2, 65))
            n = int(rng.integers(1, 17))
            X = rng.standard_normal((m, n))
            got = compute_covariance(Tensor(X)).data
            mean = X.mean(axis=0)
            ref = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    ref[i, j] = np.sum(
                        (X[:, i] - mean[i]) * (X[:, j] - mean[j])
                    ) / (m - 1)
            worst = max(worst, float(np.max(np.abs(got - ref))))
        elapsed = time.monotonic() - t0
        assert worst < 1e-10
        assert elapsed < 5.0


def test_criterion_02_correlation_contract():
    with criterion(2, "correlation is unit-diagonal in [-1,1]; weights are "
                      "invariant to positive per-channel rescaling"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            m = int(rng.integers(4, 65))
            n = int(rng.integers(2, 17))
            X = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0, n)
            R = normalize_covariance(compute_covariance(Tensor(X))).data
            assert np.max(np.abs(R.diagonal() - 1.0)) < 1e-6
            assert np.max(np.abs(R)) <= 1.0 + 1e-9

        for trial in range(20):
            n = int(rng.integers(2, 13))
            module = CacwModule(n, seed=trial)
            for p in module.params():
                p.data[...] = 0.4 * rng.standard_normal(p.data.shape)
            X = rng.standard_normal((40, n))
            scale = rng.uniform(0.2, 5.0, n)
            shift = rng.standard_normal(n)
            gamma_a = cacw_forward(module, Tensor(X)).data
            gamma_b = cacw_forward(module, Tensor(X * scale + shift)).data
            assert np.max(np.abs(gamma_a - gamma_b)) < 1e-6


def test_criterion_03_pca_residuals():
    with criterion(3, "eigenpairs solve their covariance and preserve "
                      "total variance on 100 draws"):
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            A = rng.standard_normal((n + 4, n))
            C = np.cov(A, rowvar=False)
            res = pca_eigendecompose(C)
            lam, V = res.eigenvalues, res.eigenvectors
            top = max(1.0, lam[0])
            for i in range(n):
                res = np.linalg.norm(C @ V[:, i] - lam[i] * V[:, i])
                assert res < 1e-6 * top
            assert abs(lam.sum() - np.trace(C)) < 1e-8


def test_criterion_04_cfw_dual_route():
    with criterion(4, "the layer-combine op agrees with an explicit loop "
                      "over layers; layer weights are a unit simplex"):
        rng = np.random.default_rng(404)
        for trial in range(100):
            n = int(rng.integers(1, 9))
            c = int(rng.integers(2, 17))
            cfg = AdwmConfig(n_layers=n, channels=c)
            modules = make_adwm_modules(cfg, seed=trial)
            gen = modules["cfw"]
            for p in gen.params():
                p.data[...] = 0.3 * rng.standard_normal(p.data.shape)
            F = [Tensor(rng.standard_normal((5, 4, c))) for _ in range(n)]
            combined, beta = cfw_apply(gen, F, F)
            w = np.exp(beta.data - beta.data.max())
            w = w / w.sum()
            loop = np.zeros((5, 4, c))
            for k in range(n):
                loop += w[k] * F[k].data
            assert np.max(np.abs(combined.data - loop)) < 1e-9
            assert abs(w.sum() - 1.0) < 1e-12


def test_criterion_05_gradient_suite():
    with criterion(5, "all ops and the full dual-weighted model pass "
                      "finite-difference checks over 10 seeds"):
        t0 = time.monotonic()
        worst = ("", 0.0)
        for seed in range(10):
            for name, err in _gradcheck_suite(seed):
                if err > worst[1]:
                    worst = (name, err)
        elapsed = time.monotonic() - t0
        assert worst[1] < 1e-4, f"worst op {worst[0]}: {worst[1]:.3e}"
        assert elapsed < 120.0


def identity_heads(ifw, cfw):
    """Gate heads that emit exactly 1.0 (sigmoid(40) rounds to 1) and a
    zero layer-score head, so both levels run with identity weights."""
    for gen in ifw:
        gen.W2.data[...] = 0.0
        gen.b2.data[...] = 40.0
    cfw.W2.data[...] = 0.0
    cfw.b2.data[...] = 0.0


def test_criterion_06_identity_reduction():
    with criterion(6, "identity weights through the real gating and "
                      "combine code reproduce mean aggregation bit for bit"):
        rng = np.random.default_rng(606)
        cfg = AdwmConfig(n_layers=3, channels=4)
        modules = make_adwm_modules(cfg, seed=6)
        identity_heads(modules["ifw"], modules["cfw"])
        feats = [Tensor(rng.standard_normal((6, 6, 4))) for _ in range(3)]
        forced, _, _ = aggregate(feats, modules["ifw"], modules["cfw"])
        plain, _, _ = aggregate(feats)
        assert np.array_equal(forced.data, plain.data)

        model = PansharpenModel(
            ModelConfig(bands=2, channels=6, blocks=2, variant="adwm"), seed=6
        )
        mrng = np.random.default_rng(66)
        for p in model.params():
            p.data[...] = 0.1 * mrng.standard_normal(p.data.shape)
        identity_heads(model.ifw, model.cfw)
        # a zero-head cfw model with the same backbone aggregates by the mean
        mean_model = PansharpenModel(
            ModelConfig(bands=2, channels=6, blocks=2, variant="cfw"), seed=6
        )
        backbone = mean_model.params()[:-len(mean_model.cfw.params())]
        for dst, src in zip(backbone, model.params()):
            dst.data[...] = src.data
        pan = mrng.random((16, 16))
        lrms = mrng.random((4, 4, 2))
        a = model.forward(pan, lrms).data
        b = mean_model.forward(pan, lrms).data
        assert np.array_equal(a, b)


def test_criterion_07_metric_fixed_points():
    with criterion(7, "perfect prediction hits every metric's fixed point"):
        rng = np.random.default_rng(707)
        x = rng.random((33, 35, 4))
        assert psnr(x, x) == 100.0
        assert abs(sam(x, x)) <= 1e-9
        assert abs(ergas(x, x)) <= 1e-9
        assert abs(q_index(x[:, :, 0], x[:, :, 0]) - 1.0) <= 1e-9
        assert abs(q2n(x, x) - 1.0) <= 1e-9
        assert hqnr(0.0, 0.0) == 1.0
        assert hqnr(1.0, 0.0) == 0.0
        assert hqnr(1.0, 0.7) == 0.0


def test_criterion_08_ablation_direction():
    res = run_protocol()
    med = {v: statistics.median(res["psnr"][v]) for v in res["psnr"]}
    minutes = res["total_seconds"] / 60.0
    cores = res["cpu_count"]
    print("  medians: " + "  ".join(f"{v}={med[v]:.3f}" for v in
                                    ("baseline", "ifw", "cfw", "adwm")))
    print(f"  protocol wall time: {minutes:.0f} min on {cores} core(s)")
    with criterion(8, "dual weighting matches or beats every other variant "
                      "(median PSNR over 3 seeds, 0.05 dB slack)"):
        assert med["adwm"] >= med["baseline"] - 0.05
        assert med["adwm"] >= max(med["ifw"], med["cfw"]) - 0.05
        if cores >= 4:
            assert res["total_seconds"] < 900.0
        else:
            print("  15-minute bound not evaluated: host is below the "
                  "multi-core desktop it is scoped to")


def test_criterion_09_reduction_sweep(tmp_path):
    with criterion(9, "reduction-fraction sweep emits a cost-vs-quality "
                      "table whose cost column is exact"):
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--count", "3",
                     "--size", "32", "32", "--bands", "2", "--seed", "9"]) == 0
        out = tmp_path / "sweep"
        rc = main(["compare", "--data", str(data), "--out", str(out),
                   "--methods", "cacw",
                   "--d-frac", "0.2,0.4,0.6,0.8,1.0",
                   "--epochs", "1", "--channels", "6", "--blocks", "2",
                   "--batch-size", "4", "--test-count", "1", "--seed", "9"])
        assert rc == 0
        lines = [l for l in (out / "comparison.csv").read_text().splitlines()
                 if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 5
        by_frac = {}
        for _, frac, _, flops, psnr_val in rows:
            frac = float(frac)
            expected = count_flops(32, 32, 6, 2, d_fraction=frac).total
            assert int(flops) == expected
            by_frac[frac] = float(psnr_val)
        peak = max(by_frac, key=by_frac.get)
        print(f"  best fraction on this toy run: {peak:g} (reported only)")


def test_criterion_10_complexity_accounting():
    with criterion(10, "closed-form multiply counts match an instrumented "
                       "run and scale quadratically per level"):
        rng = np.random.default_rng(1010)
        H = W = 8
        C, N = 4, 3
        cfg = AdwmConfig(n_layers=N, channels=C)
        modules = make_adwm_modules(cfg, seed=10)
        for gens in (modules["ifw"], [modules["cfw"]]):
            for g in gens:
                for p in g.params():
                    p.data[...] = 0.3 * rng.standard_normal(p.data.shape)
        feats = [rng.standard_normal((C, H, W)) for _ in range(N)]
        # the loop oracle reads (C, H, W); aggregate takes (H, W, C)
        fused_ref, _, _ = aggregate(
            [Tensor(np.moveaxis(f, 0, -1)) for f in feats],
            modules["ifw"], modules["cfw"]
        )
        fused_ref = np.moveaxis(fused_ref.data, -1, 0)
        fused_loop, counts = instrumented_weighting(
            feats, modules, cfg.ifw_d, cfg.cfw_d
        )
        np.testing.assert_allclose(fused_loop, fused_ref, atol=1e-9)
        f = count_flops(H, W, C, N)
        assert counts == {k: v for k, v in f.as_dict().items() if k != "total"}

        doubled_c = count_flops(H, W, 2 * C, N)
        doubled_n = count_flops(H, W, C, 2 * N)
        assert doubled_c.ifw_cov == 4 * f.ifw_cov
        assert doubled_n.cfw_cov == 4 * f.cfw_cov


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "identical training invocations produce "
                       "byte-identical checkpoints and logs"):
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--count", "3",
                     "--size", "16", "16", "--bands", "2", "--seed", "11"]) == 0
        flags = ["train", "--data", str(data), "--variant", "adwm",
                 "--epochs", "2", "--channels", "6", "--blocks", "2",
                 "--batch-size", "2", "--test-count", "1", "--seed", "11"]
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(flags + ["--out", str(run_a)]) == 0
        assert main(flags + ["--out", str(run_b)]) == 0
        for name in ("checkpoint_best.ckpt", "checkpoint_final.ckpt",
                     "train_log.csv"):
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes()
        ckpt = load_checkpoint(str(run_a / "checkpoint_final.ckpt"))
        assert ckpt.config.variant == "adwm"
