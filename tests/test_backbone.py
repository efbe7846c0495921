import math

import numpy as np
import pytest

from adwm.backbone import (
    ModelConfig,
    PansharpenModel,
    build_model,
    load_checkpoint,
    save_checkpoint,
    upsample_bilinear,
)
from adwm.errors import ConfigurationError, DimensionError, FormatError
from adwm.tensor import Tensor, gradcheck


def tiny_config(variant="baseline", **kw):
    base = dict(bands=2, channels=4, blocks=2, scale=4, variant=variant)
    base.update(kw)
    return ModelConfig(**base)


def randomized(model, seed=0, scale=0.1):
    """Give every parameter a nonzero value so aggregation paths differ."""
    rng = np.random.default_rng(seed)
    for p in model.params():
        p.data[...] = rng.standard_normal(p.data.shape) * scale
    return model


# ----------------------------------------------------------------------
# bilinear resize


def test_upsample_factor_one_is_identity():
    x = np.random.default_rng(0).standard_normal((3, 5, 7))
    out = upsample_bilinear(Tensor(x), 1)
    np.testing.assert_array_equal(out.data, x)


def test_upsample_constant_stays_constant():
    out = upsample_bilinear(Tensor(np.full((2, 4, 4), 3.25)), 4)
    np.testing.assert_array_equal(out.data, np.full((2, 16, 16), 3.25))


def test_upsample_ramp_hand_values():
    # half-pixel sampling of [[0,1],[2,3]] at factor 2, worked by hand
    x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]))
    expected = np.array([
        [0.0, 0.25, 0.75, 1.0],
        [0.5, 0.75, 1.25, 1.5],
        [1.5, 1.75, 2.25, 2.5],
        [2.0, 2.25, 2.75, 3.0],
    ])
    np.testing.assert_allclose(upsample_bilinear(x, 2).data, expected, atol=1e-15)


def test_upsample_batched_matches_single():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2, 4, 5))
    full = upsample_bilinear(Tensor(x), 4).data
    for b in range(3):
        np.testing.assert_array_equal(full[b], upsample_bilinear(Tensor(x[b]), 4).data)


def test_upsample_gradcheck():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    proj = Tensor(rng.standard_normal((2, 12, 16)))
    err = gradcheck(lambda t: (upsample_bilinear(t, 4) * proj).sum(), x)
    assert err < 1e-7


def test_upsample_bad_factor():
    with pytest.raises(ConfigurationError):
        upsample_bilinear(Tensor(np.zeros((2, 2))), 0)
    with pytest.raises(ConfigurationError):
        upsample_bilinear(Tensor(np.zeros((2, 2))), 2.5)


# ----------------------------------------------------------------------
# construction and parameter arithmetic


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(bands=4, variant="nope")
    with pytest.raises(ConfigurationError):
        ModelConfig(bands=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(bands=4, blocks=0)


def test_same_seed_same_init_across_variants():
    a = PansharpenModel(tiny_config("baseline"), seed=3)
    b = PansharpenModel(tiny_config("adwm"), seed=3)
    np.testing.assert_array_equal(a.enc_w.data, b.enc_w.data)
    for ba, bb in zip(a.blocks, b.blocks):
        np.testing.assert_array_equal(ba["w1"].data, bb["w1"].data)


def test_param_count_delta_closed_form():
    for C, N, frac in [(16, 4, 0.8), (8, 3, 0.5), (4, 2, 1.0)]:
        base = PansharpenModel(ModelConfig(bands=4, channels=C, blocks=N))
        full = PansharpenModel(
            ModelConfig(bands=4, channels=C, blocks=N, variant="adwm",
                        ifw_d_fraction=frac, cfw_d_fraction=frac))
        d_ifw = max(1, math.ceil(frac * C))
        d_cfw = max(1, math.ceil(frac * N))
        expected = N * (d_ifw * C + 2 * d_ifw + 1) + (d_cfw * N + 2 * d_cfw + 1)
        assert full.param_count() - base.param_count() == expected


def test_param_count_single_level_variants():
    C, N = 8, 3
    base = PansharpenModel(ModelConfig(bands=4, channels=C, blocks=N))
    ifw = PansharpenModel(ModelConfig(bands=4, channels=C, blocks=N, variant="ifw"))
    cfw = PansharpenModel(ModelConfig(bands=4, channels=C, blocks=N, variant="cfw"))
    d_ifw = max(1, math.ceil(0.8 * C))
    d_cfw = max(1, math.ceil(0.8 * N))
    assert ifw.param_count() - base.param_count() == N * (d_ifw * C + 2 * d_ifw + 1)
    assert cfw.param_count() - base.param_count() == d_cfw * N + 2 * d_cfw + 1


def test_shared_gates_reduce_params():
    shared = PansharpenModel(tiny_config("adwm", share_ifw=True))
    separate = PansharpenModel(tiny_config("adwm"))
    per_gen = shared.ifw[0].param_count()
    assert separate.param_count() - shared.param_count() == per_gen  # N=2: one saved


# ----------------------------------------------------------------------
# forward


def test_fresh_model_is_bilinear_upsampling():
    # zero decoder: the network contributes nothing until trained
    rng = np.random.default_rng(5)
    lrms = rng.random((4, 4, 2))
    pan = rng.random((16, 16))
    expected = upsample_bilinear(Tensor(lrms.transpose(2, 0, 1)), 4).data.transpose(1, 2, 0)
    for variant in ("baseline", "ifw", "cfw", "adwm"):
        model = PansharpenModel(tiny_config(variant), seed=1)
        out = model.forward(pan, lrms)
        np.testing.assert_array_equal(out.data, expected)


def test_output_shapes():
    rng = np.random.default_rng(6)
    model = randomized(PansharpenModel(tiny_config("adwm")))
    out = model.forward(rng.random((16, 16)), rng.random((4, 4, 2)))
    assert out.data.shape == (16, 16, 2)
    out_b = model.forward(rng.random((3, 16, 16)), rng.random((3, 4, 4, 2)))
    assert out_b.data.shape == (3, 16, 16, 2)


def test_batched_matches_per_sample():
    rng = np.random.default_rng(7)
    model = randomized(PansharpenModel(tiny_config("adwm")))
    pan = rng.random((3, 16, 16))
    lrms = rng.random((3, 4, 4, 2))
    full = model.forward(pan, lrms).data
    for b in range(3):
        single = model.forward(pan[b], lrms[b]).data
        np.testing.assert_allclose(full[b], single, atol=1e-12)


def test_shape_mismatches_raise():
    model = PansharpenModel(tiny_config())
    rng = np.random.default_rng(8)
    with pytest.raises(DimensionError):
        model.forward(rng.random((15, 16)), rng.random((4, 4, 2)))
    with pytest.raises(DimensionError):
        model.forward(rng.random((16, 16)), rng.random((4, 4, 3)))
    with pytest.raises(DimensionError):
        model.forward(rng.random((2, 16, 16)), rng.random((3, 4, 4, 2)))
    with pytest.raises(DimensionError):
        model.forward(rng.random((2, 16, 16)), rng.random((4, 4, 2)))


def sharing_weights(source, variant):
    """A `variant` model holding copies of `source`'s backbone and of
    whichever of its weight generators the variant uses."""
    model = PansharpenModel(tiny_config(variant), seed=source.seed)
    n_backbone = 4 + 4 * len(source.blocks)
    pairs = list(zip(model.params()[:n_backbone], source.params()[:n_backbone]))
    if model.ifw is not None:
        for dst, src in zip(model.ifw, source.ifw):
            pairs += zip(dst.params(), src.params())
    if model.cfw is not None:
        pairs += zip(model.cfw.params(), source.cfw.params())
    for dst, src in pairs:
        dst.data[...] = src.data
    return model


def identity_heads(model):
    """Set every gate head to emit exactly 1.0 (sigmoid(40) rounds to 1)
    and the layer-score head to zero, which is mean aggregation."""
    for gen in model.ifw or []:
        gen.W2.data[...] = 0.0
        gen.b2.data[...] = 40.0
    if model.cfw is not None:
        model.cfw.W2.data[...] = 0.0
        model.cfw.b2.data[...] = 0.0
    return model


def test_variants_differ_once_trained_weights_exist():
    rng = np.random.default_rng(9)
    pan, lrms = rng.random((16, 16)), rng.random((4, 4, 2))
    source = randomized(PansharpenModel(tiny_config("adwm")), seed=2)
    outs = {
        variant: sharing_weights(source, variant).forward(pan, lrms).data
        for variant in ("baseline", "ifw", "cfw", "adwm")
    }
    outs["mean"] = identity_heads(sharing_weights(source, "cfw")).forward(pan, lrms).data
    assert not np.array_equal(outs["adwm"], outs["baseline"])
    assert not np.array_equal(outs["adwm"], outs["mean"])
    assert not np.array_equal(outs["ifw"], outs["cfw"])


def test_forced_identity_equals_mean_aggregation_bitwise():
    rng = np.random.default_rng(10)
    pan, lrms = rng.random((16, 16)), rng.random((4, 4, 2))
    source = randomized(PansharpenModel(tiny_config("adwm")), seed=3)
    forced = identity_heads(sharing_weights(source, "adwm")).forward(pan, lrms).data
    for variant in ("ifw", "cfw"):
        mean = identity_heads(sharing_weights(source, variant)).forward(pan, lrms).data
        assert np.array_equal(forced, mean)


def test_return_weights_structure():
    rng = np.random.default_rng(11)
    pan, lrms = rng.random((16, 16)), rng.random((4, 4, 2))
    model = randomized(PansharpenModel(tiny_config("adwm")), seed=4)
    out, weights = model.forward(pan, lrms, return_weights=True)
    assert len(weights["alpha"]) == 2
    assert weights["alpha"][0].shape == (4,)
    assert weights["beta"].shape == (2,)
    assert np.all(weights["alpha"][0].data > 0) and np.all(weights["alpha"][0].data < 1)
    assert len(weights["features"]) == 2
    assert weights["features"][0].shape == (4, 16, 16)
    assert not weights["features"][0].requires_grad
    _, weights = PansharpenModel(tiny_config()).forward(pan, lrms, return_weights=True)
    assert weights["alpha"] is None and weights["beta"] is None
    assert len(weights["features"]) == 2


@pytest.mark.parametrize("variant", ["baseline", "ifw", "cfw", "adwm"])
def test_end_to_end_gradcheck(variant):
    rng = np.random.default_rng(12)
    model = randomized(PansharpenModel(tiny_config(variant)), seed=5)
    pan = rng.random((8, 8))
    lrms_t = Tensor(rng.random((2, 2, 2)))
    proj = Tensor(rng.standard_normal((8, 8, 2)))
    probe = [lrms_t, model.enc_w, model.blocks[0]["w2"], model.dec_w, model.dec_b]
    if variant in ("ifw", "adwm"):
        probe.append(model.ifw[0].W2)
    if variant in ("cfw", "adwm"):
        probe.append(model.cfw.W1)

    def fn(lt, *_):
        return (model.forward(pan, lt) * proj).sum()

    assert gradcheck(fn, probe) < 1e-6


# ----------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    model = randomized(PansharpenModel(tiny_config("adwm"), seed=6), seed=7)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    back = load_checkpoint(p)
    assert back.config == model.config
    for a, b in zip(model.params(), back.params()):
        np.testing.assert_array_equal(a.data, b.data)
    pan, lrms = rng.random((16, 16)), rng.random((4, 4, 2))
    np.testing.assert_array_equal(
        model.forward(pan, lrms).data, back.forward(pan, lrms).data
    )


def test_checkpoint_bytes_deterministic(tmp_path):
    model = randomized(PansharpenModel(tiny_config("cfw"), seed=8), seed=9)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, model)
    save_checkpoint(b, model)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    model = PansharpenModel(tiny_config())
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    raw = bytearray(p.read_bytes())
    raw[0] = ord("X")
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as e:
        load_checkpoint(p)
    assert e.value.offset == 0


def test_checkpoint_truncated(tmp_path):
    model = PansharpenModel(tiny_config("adwm", bands=1, channels=2, blocks=1))
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    raw = p.read_bytes()
    # a cut anywhere, header fields and tensor count included, is a
    # FormatError and never a raw struct or index error
    for end in range(len(raw)):
        p.write_bytes(raw[:end])
        with pytest.raises(FormatError):
            load_checkpoint(p)


def test_checkpoint_trailing_bytes(tmp_path):
    model = PansharpenModel(tiny_config())
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    p.write_bytes(p.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_build_model_helper():
    m = build_model(tiny_config("ifw"), seed=2)
    assert isinstance(m, PansharpenModel)
    assert m.cfw is None and m.ifw is not None
