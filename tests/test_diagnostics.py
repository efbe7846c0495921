import math

import numpy as np
import pytest

from adwm.backbone import ModelConfig, PansharpenModel
from adwm.cacw import compute_covariance
from adwm.data import SamplePair, generate_scene, wald_degrade
from adwm.diagnostics import (
    alpha_spread,
    count_flops,
    feature_covariance,
    layer_spectra,
    scree_curve,
    spectrum_entropy,
    svg_heatmap,
    svg_line_plot,
    weight_trace,
    write_rows_csv,
)
from adwm.errors import ConfigurationError, DegenerateSampleError, DimensionError
from adwm.tensor import Tensor
from adwm.weighting import AdwmConfig, _channel_observations, aggregate, make_adwm_modules


def make_pair(seed=0, H=16, W=16, c=2):
    gt = generate_scene(seed, H, W, c)
    pan, lrms = wald_degrade(gt)
    return SamplePair(id=f"sample_{seed:05d}", pan=pan, lrms=lrms, gt=gt)


def trained_like_model(variant="adwm", C=4, N=2, seed=0):
    model = PansharpenModel(ModelConfig(bands=2, channels=C, blocks=N,
                                        variant=variant), seed=seed)
    rng = np.random.default_rng(seed + 50)
    for p in model.params():
        p.data[...] = 0.1 * rng.standard_normal(p.data.shape)
    return model


# ----------------------------------------------------------------------
# spectra


def test_scree_identity_isotropic():
    np.testing.assert_allclose(scree_curve(np.eye(4)), [0.25] * 4, atol=1e-12)


def test_scree_rank_one():
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(scree_curve(np.outer(v, v)), [1.0, 0.0, 0.0],
                               atol=1e-12)


def test_scree_matches_library_eigensolver():
    rng = np.random.default_rng(0)
    for _ in range(10):
        X = rng.standard_normal((30, 5))
        C = np.cov(X, rowvar=False)
        want = np.sort(np.linalg.eigvalsh(C))[::-1]
        want = np.maximum(want, 0)
        want /= want.sum()
        np.testing.assert_allclose(scree_curve(C), want, atol=1e-9)


def test_scree_properties():
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.standard_normal((20, 6))
        s = scree_curve(np.cov(X, rowvar=False))
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)
        assert abs(s.sum() - 1.0) < 1e-9


def test_scree_zero_matrix_rejected():
    with pytest.raises(DegenerateSampleError):
        scree_curve(np.zeros((3, 3)))


def test_entropy_fixed_points():
    assert abs(spectrum_entropy([0.25] * 4) - math.log(4)) < 1e-12
    assert spectrum_entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_merging_decreases():
    spread = spectrum_entropy([0.4, 0.3, 0.3])
    merged = spectrum_entropy([0.4, 0.6, 0.0])
    assert merged < spread


def test_entropy_bounds():
    rng = np.random.default_rng(2)
    for n in (2, 5, 9):
        for _ in range(10):
            p = rng.random(n)
            p /= p.sum()
            h = spectrum_entropy(p)
            assert -1e-12 <= h <= math.log(n) + 1e-12


def test_entropy_validation():
    with pytest.raises(ConfigurationError):
        spectrum_entropy([0.5, 0.6])
    with pytest.raises(ConfigurationError):
        spectrum_entropy([1.5, -0.5])
    with pytest.raises(DimensionError):
        spectrum_entropy(np.ones((2, 2)) / 4)


def test_feature_covariance_loop_oracle():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((3, 4, 5))
    obs = F.reshape(3, 20).T
    mean = obs.mean(axis=0)
    want = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            want[i, j] = np.sum((obs[:, i] - mean[i]) * (obs[:, j] - mean[j])) / 19
    np.testing.assert_allclose(feature_covariance(np.moveaxis(F, 0, -1)), want,
                               atol=1e-12)


def test_feature_covariance_of_a_float32_map_is_computed_in_float64():
    # a forward that records no tape returns float32 feature maps; their
    # covariance is the float64 covariance of the same values
    rng = np.random.default_rng(4)
    F = rng.standard_normal((6, 5, 3)).astype(np.float32)
    cov = feature_covariance(Tensor(F))
    assert cov.dtype == np.float64
    assert np.array_equal(cov, feature_covariance(F.astype(np.float64)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_feature_covariance_has_the_bytes_of_compute_covariance(dtype):
    # centring in place in a private float64 copy keeps compute_covariance's
    # steps, and leaves the caller's map as it was
    rng = np.random.default_rng(5)
    F = (3.0 * rng.standard_normal((33, 17, 9)) + 1.0).astype(dtype)
    before = F.copy()
    want = compute_covariance(_channel_observations(F.astype(np.float64))).data
    got = feature_covariance(F)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert F.tobytes() == before.tobytes()


def probe_weights(model, pair):
    return model.forward(pair.pan, pair.lrms, return_weights=True)[1]


def test_layer_spectra_structure():
    model = trained_like_model()
    entries = layer_spectra(probe_weights(model, make_pair()))
    assert len(entries) == 2
    for i, e in enumerate(entries):
        assert e["layer"] == i
        assert abs(e["scree"].sum() - 1.0) < 1e-9
        assert -1e-12 <= e["entropy"] <= math.log(4) + 1e-12
        assert e["covariance"].shape == (4, 4)


def test_layer_spectra_does_not_disturb_forward():
    model = trained_like_model(seed=1)
    pair = make_pair(1)
    plain = model.forward(pair.pan, pair.lrms).data
    layer_spectra(probe_weights(model, pair))
    again = model.forward(pair.pan, pair.lrms).data
    np.testing.assert_array_equal(plain, again)


# ----------------------------------------------------------------------
# weight traces


def test_weight_trace_row_count_contract():
    model = trained_like_model("adwm", C=4, N=2)
    rows = weight_trace(probe_weights(model, make_pair()), epoch=7)
    alpha_rows = [r for r in rows if r[2] >= 0]
    beta_rows = [r for r in rows if r[2] == -1]
    assert len(alpha_rows) == 2 * 4
    assert len(beta_rows) == 2
    assert all(r[0] == 7 for r in rows)
    assert abs(sum(r[3] for r in beta_rows) - 1.0) < 1e-12


def test_weight_trace_single_level_variants():
    ifw_rows = weight_trace(probe_weights(trained_like_model("ifw"), make_pair()))
    assert all(r[2] >= 0 for r in ifw_rows)
    cfw_rows = weight_trace(probe_weights(trained_like_model("cfw"), make_pair()))
    assert all(r[2] == -1 for r in cfw_rows)
    assert abs(sum(r[3] for r in cfw_rows) - 1.0) < 1e-12


def test_weight_trace_baseline_rejected():
    with pytest.raises(ConfigurationError):
        weight_trace(probe_weights(trained_like_model("baseline"), make_pair()))


def test_alpha_spread():
    rows = [(0, 0, 0, 0.2), (0, 0, 1, 0.5), (0, 1, 0, 0.4), (0, 1, 1, 0.9),
            (0, 0, -1, 0.5), (0, 1, -1, 0.5)]
    spread = alpha_spread(rows)
    assert abs(spread[0] - 0.3) < 1e-12
    assert abs(spread[1] - 0.5) < 1e-12


def test_write_rows_csv(tmp_path):
    p = tmp_path / "trace.csv"
    write_rows_csv(p, ["epoch", "layer", "index", "weight"],
                   [(1, 0, 0, 0.25), (1, 0, -1, 1.0)])
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "epoch,layer,index,weight"
    assert lines[1] == "1,0,0,0.25"
    assert lines[2] == "1,0,-1,1"


# ----------------------------------------------------------------------
# multiply accounting


def test_count_flops_hand_values():
    f = count_flops(8, 8, 4, 3)
    assert f.ifw_cov == 3 * 64 * 16
    assert f.ifw_mlp == 3 * 4 * (4 * 4 + 4)     # d_ifw = ceil(3.2) = 4
    assert f.ifw_gate == 3 * 4 * 64
    assert f.cfw_cov == 4 * 9
    assert f.cfw_mlp == 3 * (3 * 3 + 3)          # d_cfw = ceil(2.4) = 3
    assert f.cfw_combine == 3 * 4 * 64
    assert f.total == sum(
        [f.ifw_cov, f.ifw_mlp, f.ifw_gate, f.cfw_cov, f.cfw_mlp, f.cfw_combine]
    )


def test_count_flops_quadratic_scaling():
    base = count_flops(8, 8, 4, 3)
    assert count_flops(8, 8, 8, 3).ifw_cov == 4 * base.ifw_cov
    assert count_flops(8, 8, 4, 6).cfw_cov == 4 * base.cfw_cov


def test_count_flops_validation():
    with pytest.raises(ConfigurationError):
        count_flops(0, 8, 4, 3)


def instrumented_weighting(features, modules, d_ifw, d_cfw):
    """Reimplementation with explicit loops and a multiply counter.

    Counts exactly the scoped operations of count_flops: covariance
    products, MLP matvecs, gating, combination. Divides, square roots,
    activations, and softmax are performed but not counted.
    """
    counts = {"ifw_cov": 0, "ifw_mlp": 0, "ifw_gate": 0,
              "cfw_cov": 0, "cfw_mlp": 0, "cfw_combine": 0}

    def mlp_rows(rows, W1, b1, W2, b2, key):
        outs = []
        d = W1.shape[0]
        n = W1.shape[1]
        for row in rows:
            h = np.zeros(d)
            for k in range(d):
                acc = 0.0
                for i in range(n):
                    acc += W1[k, i] * row[i]
                    counts[key] += 1
                h[k] = acc + b1[k]
            h = np.where(h > 0, h, 0.01 * h)
            o = np.zeros(W2.shape[0])
            for r in range(W2.shape[0]):
                acc = 0.0
                for k in range(d):
                    acc += W2[r, k] * h[k]
                    counts[key] += 1
                o[r] = acc + b2[r]
            outs.append(o)
        return np.array(outs)

    def corr_from_obs(obs, key):
        m, n = obs.shape
        mean = obs.mean(axis=0)
        cov = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for t in range(m):
                    acc += (obs[t, i] - mean[i]) * (obs[t, j] - mean[j])
                    counts[key] += 1
                cov[i, j] = acc / (m - 1)
        denom = np.sqrt(np.maximum(cov.diagonal(), 0) + 1e-8)
        return cov / np.outer(denom, denom)

    N = len(features)
    C, H, W = features[0].shape
    gated = []
    for layer, F in enumerate(features):
        obs = F.reshape(C, H * W).T
        corr = corr_from_obs(obs, "ifw_cov")
        gen = modules["ifw"][layer]
        raw = mlp_rows(corr, gen.W1.data, gen.b1.data, gen.W2.data,
                       gen.b2.data, "ifw_mlp")[:, 0]
        alpha = 1.0 / (1.0 + np.exp(-raw))
        g = np.zeros_like(F)
        for ch in range(C):
            for y in range(H):
                for x in range(W):
                    g[ch, y, x] = F[ch, y, x] * alpha[ch]
                    counts["ifw_gate"] += 1
        gated.append(g)

    profiles = np.stack([F.mean(axis=(1, 2)) for F in features], axis=1)  # C x N
    corr = corr_from_obs(profiles, "cfw_cov")
    gen = modules["cfw"]
    beta = mlp_rows(corr, gen.W1.data, gen.b1.data, gen.W2.data,
                    gen.b2.data, "cfw_mlp")[:, 0]
    e = np.exp(beta - beta.max())
    w = e / e.sum()
    fused = np.zeros_like(features[0])
    for k in range(N):
        for ch in range(C):
            for y in range(H):
                for x in range(W):
                    fused[ch, y, x] += w[k] * gated[k][ch, y, x]
                    counts["cfw_combine"] += 1
    return fused, counts


def test_count_flops_matches_instrumented_run():
    # 8x8 spatial, C=4 channels, N=3 layers: loop reimplementation both
    # certifies the closed-form counts and cross-checks the fused values
    rng = np.random.default_rng(4)
    H = W = 8
    C, N = 4, 3
    cfg = AdwmConfig(n_layers=N, channels=C)
    modules = make_adwm_modules(cfg, seed=3)
    for gens in (modules["ifw"], [modules["cfw"]]):
        for g in gens:
            for p in g.params():
                p.data[...] = 0.3 * rng.standard_normal(p.data.shape)
    features = [rng.standard_normal((C, H, W)) for _ in range(N)]

    # the loop oracle reads (C, H, W); aggregate takes (H, W, C)
    fused_ref, _, _ = aggregate([Tensor(np.moveaxis(f, 0, -1)) for f in features],
                                modules["ifw"], modules["cfw"])
    fused_ref = np.moveaxis(fused_ref.data, -1, 0)
    fused_loop, counts = instrumented_weighting(
        features, modules, cfg.ifw_d, cfg.cfw_d
    )
    np.testing.assert_allclose(fused_loop, fused_ref, atol=1e-9)

    f = count_flops(H, W, C, N)
    expected = {k: v for k, v in f.as_dict().items() if k != "total"}
    assert counts == expected


# ----------------------------------------------------------------------
# svg


def test_svg_line_plot_deterministic(tmp_path):
    series = [("train", [0, 1, 2], [0.5, 0.4, 0.3]),
              ("val", [0, 1, 2], [0.6, 0.5, 0.45])]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    svg_line_plot(a, series, title="loss")
    svg_line_plot(b, series, title="loss")
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text and "loss" in text


def test_svg_line_plot_empty_series(tmp_path):
    p = tmp_path / "empty.svg"
    svg_line_plot(p, [])
    text = p.read_text()
    assert "<svg" in text and "</svg>" in text
    assert "polyline" not in text


def test_svg_heatmap_color_endpoints(tmp_path):
    p = tmp_path / "h.svg"
    svg_heatmap(p, np.array([[0.0, 1.0], [0.5, 0.25]]))
    text = p.read_text()
    assert "#f7fbff" in text   # minimum renders light
    assert "#08306b" in text   # maximum renders dark
    assert text.count("<rect") == 5  # 4 cells + background


def test_svg_heatmap_deterministic(tmp_path):
    m = np.random.default_rng(5).random((4, 4))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    svg_heatmap(a, m)
    svg_heatmap(b, m)
    assert a.read_bytes() == b.read_bytes()


def test_svg_heatmap_validation(tmp_path):
    with pytest.raises(DimensionError):
        svg_heatmap(tmp_path / "x.svg", np.zeros(3))
