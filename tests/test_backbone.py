import contextlib
import gc
import json
import math
import struct
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwm import backbone
from adwm.backbone import (
    CKPT_VERSION,
    VARIANTS,
    ModelConfig,
    PansharpenModel,
    load_checkpoint,
    save_checkpoint,
    upsample_bilinear,
)
from adwm.errors import (
    AdwmError,
    ConfigurationError,
    DimensionError,
    FormatError,
)
from adwm.cacw import WEIGHT_GENERATORS
from adwm.data import SCALE, tensor_to_bytes
from adwm.tensor import Tensor, concat, conv2d, gradcheck
from adwm.weighting import _channel_observations, cfw_apply, weighted_sum
from test_tensor import assert_bitwise, channel_scale_oracle, where_leaky


def tiny_config(variant="baseline", **kw):
    base = dict(bands=2, channels=4, blocks=2, variant=variant)
    base.update(kw)
    return ModelConfig(**base)


def randomized(model, seed=0, scale=0.1):
    """Give every parameter a nonzero value so aggregation paths differ."""
    rng = np.random.default_rng(seed)
    for p in model.params():
        p.data[...] = rng.standard_normal(p.data.shape) * scale
    return model


def recording(model, records=True):
    """Switch gradients on for every parameter, or off, so that forward
    records a tape or not; either way it computes in float32."""
    for p in model.params():
        p.requires_grad = records
    return model


def float64_forward(model, pan, lrms):
    """The model's float64 forward: lrms requires grad, as in a
    finite-difference check through the inputs."""
    return model.forward(pan, Tensor(lrms, requires_grad=True))


# ----------------------------------------------------------------------
# bilinear resize


def test_upsample_factor_one_is_identity():
    x = np.random.default_rng(0).standard_normal((3, 5, 7))
    out = upsample_bilinear(Tensor(x), 1)
    np.testing.assert_array_equal(out.data, x)


def test_upsample_constant_stays_constant():
    out = upsample_bilinear(Tensor(np.full((4, 4, 2), 3.25)), 4)
    np.testing.assert_array_equal(out.data, np.full((16, 16, 2), 3.25))


def test_upsample_ramp_hand_values():
    # half-pixel sampling of [[0,1],[2,3]] at factor 2, worked by hand
    x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]])[..., None])
    expected = np.array([
        [0.0, 0.25, 0.75, 1.0],
        [0.5, 0.75, 1.25, 1.5],
        [1.5, 1.75, 2.25, 2.5],
        [2.0, 2.25, 2.75, 3.0],
    ])
    np.testing.assert_allclose(upsample_bilinear(x, 2).data[..., 0], expected, atol=1e-15)


def test_upsample_batched_matches_single():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2, 4, 5))
    full = upsample_bilinear(Tensor(x), 4).data
    for b in range(3):
        np.testing.assert_array_equal(full[b], upsample_bilinear(Tensor(x[b]), 4).data)


def test_upsample_gradcheck():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 4, 2)))
    proj = Tensor(rng.standard_normal((12, 16, 2)))
    err = gradcheck(lambda t: (upsample_bilinear(t, 4) * proj).sum(), x)
    assert err < 1e-7


def test_upsample_bad_factor():
    with pytest.raises(ConfigurationError):
        upsample_bilinear(Tensor(np.zeros((2, 2, 1))), 0)
    with pytest.raises(ConfigurationError):
        upsample_bilinear(Tensor(np.zeros((2, 2, 1))), 2.5)


# ----------------------------------------------------------------------
# construction and parameter arithmetic


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(bands=4, variant="nope")
    with pytest.raises(ConfigurationError):
        ModelConfig(bands=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(bands=4, blocks=0)


@pytest.mark.parametrize("variant", ["baseline", "ifw", "cfw", "adwm"])
def test_config_rejects_unknown_generator_for_every_variant(variant):
    with pytest.raises(ConfigurationError):
        ModelConfig(bands=4, variant=variant, generator="nosuch")


@pytest.mark.parametrize("variant", ["baseline", "ifw", "cfw", "adwm"])
@pytest.mark.parametrize("frac", [-1.0, 0.0, 2.5])
def test_config_rejects_bad_d_fraction_for_every_variant(variant, frac):
    with pytest.raises(ConfigurationError):
        ModelConfig(bands=4, variant=variant, d_fraction=frac)


@pytest.mark.parametrize("frac", [True, False, "0.8", None])
def test_config_rejects_d_fraction_that_is_not_a_real_number(frac):
    with pytest.raises(ConfigurationError, match="d_fraction"):
        ModelConfig(bands=4, variant="adwm", d_fraction=frac)


def test_config_stores_integer_d_fraction_as_float(tmp_path):
    cfg = ModelConfig(bands=2, channels=4, blocks=2, variant="adwm", d_fraction=1)
    assert type(cfg.d_fraction) is float and cfg.d_fraction == 1.0
    paths = []
    for frac in (1, 1.0):
        p = tmp_path / f"{frac!r}.ckpt"
        save_checkpoint(p, PansharpenModel(tiny_config("adwm", d_fraction=frac)))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_fields_and_constant_scale():
    names = [f.name for f in fields(ModelConfig)]
    assert names == ["bands", "channels", "blocks", "variant", "d_fraction",
                     "generator"]
    cfg = ModelConfig(bands=4)
    assert cfg.scale == ModelConfig.scale == SCALE
    assert "scale" not in asdict(cfg)


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
                        d_fraction=frac))
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


# ----------------------------------------------------------------------
# forward


def test_fresh_model_is_bilinear_upsampling():
    # zero decoder: the network contributes nothing until trained, bit for
    # bit in either compute dtype: float32 with a tape or without one, and
    # float64 when an input requires grad
    rng = np.random.default_rng(5)
    lrms = rng.random((4, 4, 2))
    pan = rng.random((16, 16))
    expected = upsample_bilinear(Tensor(lrms), 4).data
    expected32 = upsample_bilinear(Tensor(lrms.astype(np.float32)), 4).data
    for variant in ("baseline", "ifw", "cfw", "adwm"):
        model = PansharpenModel(tiny_config(variant), seed=1)
        out = model.forward(pan, lrms)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, expected32)
        out = recording(model).forward(pan, lrms)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, expected32)
        out = float64_forward(model, pan, lrms)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.data, expected)


@pytest.mark.parametrize("raises", [False, True])
def test_no_grad_forward_leaves_the_float64_parameters_as_they_were(raises, monkeypatch):
    # the float32 forward reads float32 copies of the parameters; the
    # float64 masters come back as they were, also from a forward that
    # raises partway
    model = randomized(PansharpenModel(tiny_config("adwm")), seed=3)
    params = model.params()
    before = [(p.data, p.data.tobytes(), p.requires_grad) for p in params]
    seen = []
    if raises:
        def failing_aggregate(features, ifw, cfw):
            seen.append(model.enc_w.dtype)
            raise RuntimeError("aggregation failed")
        # the model reaches weighting.aggregate through this name
        monkeypatch.setattr(backbone, "aggregate", failing_aggregate)
    rng = np.random.default_rng(31)
    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        model.forward(rng.random((16, 16)), rng.random((4, 4, 2)))
    assert seen == ([np.float32] if raises else [])
    for p, (data, raw, flag) in zip(params, before):
        assert p.data is data and p.data.dtype == np.float64
        assert p.data.tobytes() == raw and p.requires_grad is flag


@pytest.mark.parametrize("variant", VARIANTS)
def test_float32_forward_agrees_with_the_float64_recording_forward(variant):
    # 256x256, 8-band tiles through a model near a fresh one, as eval
    # reads them: the float32 forward stays within 1e-5 of the float64
    # one for every weight generator
    rng = np.random.default_rng(32)
    pan, lrms = rng.random((256, 256)), rng.random((64, 64, 8))
    for generator in sorted(WEIGHT_GENERATORS):
        model = PansharpenModel(ModelConfig(bands=8, channels=8, blocks=2,
                                            variant=variant, generator=generator))
        for p in model.params():
            p.data += 0.002 * rng.standard_normal(p.shape)
        out32 = model.forward(pan, lrms).data
        out64 = float64_forward(model, pan, lrms).data
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        assert np.abs(out32 - out64).max() <= 1e-5, generator


def test_output_shapes():
    rng = np.random.default_rng(6)
    model = randomized(PansharpenModel(tiny_config("adwm")))
    out = model.forward(rng.random((16, 16)), rng.random((4, 4, 2)))
    assert out.data.shape == (16, 16, 2)
    out_b = model.forward(rng.random((3, 16, 16)), rng.random((3, 4, 4, 2)))
    assert out_b.data.shape == (3, 16, 16, 2)


@pytest.mark.parametrize("records", [False, True])
def test_batched_matches_per_sample(records):
    rng = np.random.default_rng(7)
    model = recording(randomized(PansharpenModel(tiny_config("adwm"))), records)
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


@pytest.mark.parametrize("records", [False, True])
def test_forced_identity_equals_mean_aggregation_bitwise(records):
    rng = np.random.default_rng(10)
    pan, lrms = rng.random((16, 16)), rng.random((4, 4, 2))
    source = randomized(PansharpenModel(tiny_config("adwm")), seed=3)

    def identity_model(variant):
        return recording(identity_heads(sharing_weights(source, variant)), records)

    forced = identity_model("adwm").forward(pan, lrms).data
    for variant in ("ifw", "cfw"):
        mean = identity_model(variant).forward(pan, lrms).data
        assert forced.dtype == mean.dtype == np.float32
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
    assert weights["features"][0].shape == (16, 16, 4)
    assert not weights["features"][0].requires_grad
    _, weights = PansharpenModel(tiny_config()).forward(pan, lrms, return_weights=True)
    assert weights["alpha"] is None and weights["beta"] is None
    assert len(weights["features"]) == 2


@pytest.mark.parametrize("batched", [False, True])
def test_features_stay_channels_last(batched):
    # conv2d returns C-contiguous (..., H, W, C) maps and each block's
    # epilogue writes its bias, leaky ReLU and residual add over them, so
    # IFW's observation matrix is a view rather than a copy
    rng = np.random.default_rng(13)
    lead = (3,) if batched else ()
    pan, lrms = rng.random(lead + (16, 16)), rng.random(lead + (4, 4, 2))
    model = randomized(PansharpenModel(tiny_config("adwm")), seed=5)
    _, weights = model.forward(pan, lrms, return_weights=True)
    for f in weights["features"]:
        assert f.data.flags.c_contiguous
        obs = _channel_observations(f).data
        assert np.shares_memory(obs, f.data) and obs.strides[-1] == f.data.itemsize


def _tape(loss):
    """Every tensor reachable from `loss` through parent links."""
    seen, todo = {}, [loss]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t._parents)
    return list(seen.values())


@pytest.mark.parametrize("variant", ["baseline", "adwm"])
@pytest.mark.parametrize("batched", [False, True])
def test_each_conv_shares_its_buffer_with_its_epilogue(variant, batched, monkeypatch):
    # each conv's epilogue writes over the conv's result, so the tape keeps
    # one map for both; the decoder's epilogue writes over `up + conv`
    convs = []

    def recording_conv2d(x, k, padding=1):
        convs.append(conv2d(x, k, padding))
        return convs[-1]

    monkeypatch.setattr(backbone, "conv2d", recording_conv2d)
    model = randomized(PansharpenModel(tiny_config(variant)), seed=5)
    for p in model.params():
        p.requires_grad = True
    rng = np.random.default_rng(14)
    lead = (3,) if batched else ()
    out = model.forward(rng.random(lead + (8, 8)), rng.random(lead + (2, 2, 2)))
    tape = _tape(out.abs().mean())

    def consumer(t):
        [c] = [n for n in tape if any(p is t for p in n._parents)]
        return c

    assert len(convs) == 2 * model.config.blocks + 2
    for c in convs[:-1]:
        assert c.data.flags.owndata and consumer(c).data is c.data
    decoder_sum = consumer(convs[-1])
    assert consumer(decoder_sum) is out and out.data is decoder_sum.data


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


def unfused_forward(model, pan, lrms):
    """`PansharpenModel.forward` written out with generic tape ops: the
    bias adds, leaky ReLUs, residual adds and channel gates that
    `bias_act` and `channel_scale` fuse, and the `np.where` leaky kernel."""
    up = upsample_bilinear(lrms, SCALE)
    x = concat([pan.reshape(pan.shape + (1,)), up], axis=-1)
    f = where_leaky(conv2d(x, model.enc_w) + model.enc_b.reshape((1, 1, -1)))
    features = []
    for blk in model.blocks:
        y = conv2d(f, blk["w1"]) + blk["b1"].reshape((1, 1, -1))
        y = conv2d(where_leaky(y), blk["w2"]) + blk["b2"].reshape((1, 1, -1))
        f = f + y
        features.append(f)
    if model.config.variant == "baseline":
        fused = features[-1]
    else:
        gated = features
        if model.ifw is not None:
            gated = [channel_scale_oracle(f, gen.forward(_channel_observations(f)))
                     for gen, f in zip(model.ifw, features)]
        fused = (weighted_sum(gated) if model.cfw is None
                 else cfw_apply(model.cfw, features, gated)[0])
    return up + conv2d(fused, model.dec_w) + model.dec_b.reshape((1, 1, -1))


@pytest.mark.parametrize("variant", ["baseline", "ifw", "cfw", "adwm"])
@pytest.mark.parametrize("batched", [False, True])
def test_forward_and_gradients_match_unfused_model_bitwise(variant, batched):
    model = randomized(PansharpenModel(tiny_config(variant), seed=4), seed=5)
    rng = np.random.default_rng(6)
    lead = (3,) if batched else ()
    pan = rng.random(lead + (8, 8))
    lrms = rng.random(lead + (2, 2, 2))
    target = Tensor(rng.random(lead + (8, 8, 2)))
    runs = []
    for forward in (model.forward, lambda p, l: unfused_forward(model, p, l)):
        for p in model.params():
            p.requires_grad = True
            p.zero_grad()
        lt = Tensor(lrms, requires_grad=True)
        out = forward(Tensor(pan), lt)
        loss = (out - target).abs().mean()
        loss.backward()
        runs.append([loss.data, out.data, lt.grad] + [p.grad for p in model.params()])
    for i, (got, want) in enumerate(zip(*runs)):
        assert_bitwise(got, want, (variant, i))


def _forward_memory(variant, grad):
    """(bytes held, peak bytes) of one batched forward, by tracemalloc,
    over what was allocated before it."""
    model = PansharpenModel(ModelConfig(bands=2, channels=8, blocks=4, variant=variant),
                            seed=1)
    for p in model.params():
        p.requires_grad = grad
    rng = np.random.default_rng(0)
    pan, lrms = Tensor(rng.random((2, 64, 64))), Tensor(rng.random((2, 16, 16, 2)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = model.forward(pan, lrms)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad == grad
    return held - base, peak - base


@pytest.mark.parametrize("grad", [True, False])
def test_gated_maps_are_never_stored_whole(grad):
    # adwm differs from cfw by its N channel gates; a gated map is kept as
    # the feature map and its tiled gate, so neither the tape after a
    # forward nor a no-grad forward's peak holds N more feature maps
    feature_map = 2 * 64 * 64 * 8 * 8
    adwm, cfw = _forward_memory("adwm", grad), _forward_memory("cfw", grad)
    if grad:
        assert adwm[0] - cfw[0] < feature_map, (adwm, cfw)
    else:
        assert adwm[1] - cfw[1] < feature_map, (adwm, cfw)


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


def test_loaded_model_records_no_tape(tmp_path):
    # evaluation must not build a gradient graph it never uses
    model = randomized(PansharpenModel(tiny_config("adwm"), seed=6), seed=7)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    back = load_checkpoint(p)
    assert not any(q.requires_grad for q in back.params())
    rng = np.random.default_rng(14)
    out = back.forward(rng.random((2, 16, 16)), rng.random((2, 4, 4, 2)))
    assert not out.requires_grad


def test_checkpoint_bytes_deterministic(tmp_path):
    model = randomized(PansharpenModel(tiny_config("cfw"), seed=8), seed=9)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, model)
    save_checkpoint(b, model)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_write_cut_off_part_way_keeps_the_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "checkpoint_best.ckpt"
    save_checkpoint(p, randomized(PansharpenModel(tiny_config("adwm"), seed=6), seed=7))
    previous = p.read_bytes()

    class CutOff:
        """A file whose one write lands half its bytes, then fails."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            raise OSError("no space left on device")

    real_open = open
    monkeypatch.setattr(backbone, "open", lambda *a, **k: CutOff(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(p, randomized(PansharpenModel(tiny_config("adwm"), seed=8), seed=9))
    monkeypatch.undo()
    assert p.read_bytes() == previous
    assert sorted(f.name for f in tmp_path.iterdir()) == [p.name]
    load_checkpoint(p)


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


def test_format_1_checkpoint_is_format_error(tmp_path):
    # format 1 wrote the same layout with a share_ifw config key
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, PansharpenModel(tiny_config("adwm")))
    raw = p.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    cfg = json.loads(raw[12:12 + n])
    cfg["share_ifw"] = False
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    p.write_bytes(raw[:4] + struct.pack("<II", 1, len(blob)) + blob + raw[12 + n:])
    with pytest.raises(FormatError) as e:
        load_checkpoint(p)
    assert e.value.offset == 4


def test_checkpoint_config_block_holds_d_fraction(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, PansharpenModel(tiny_config("adwm", d_fraction=0.5), seed=2))
    raw = p.read_bytes()
    assert struct.unpack_from("<I", raw, 4)[0] == CKPT_VERSION == 3
    (n,) = struct.unpack_from("<I", raw, 8)
    assert json.loads(raw[12:12 + n]) == {
        "bands": 2, "blocks": 2, "channels": 4, "d_fraction": 0.5,
        "generator": "cacw", "seed": 2, "variant": "adwm",
    }
    assert load_checkpoint(p).config == tiny_config("adwm", d_fraction=0.5)


def test_format_2_checkpoint_is_format_error(tmp_path):
    # format 2 wrote the same layout with two fractions and a scale
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, PansharpenModel(tiny_config("adwm")))
    raw = p.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    cfg = json.loads(raw[12:12 + n])
    frac = cfg.pop("d_fraction")
    cfg.update(ifw_d_fraction=frac, cfw_d_fraction=frac, scale=4)
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    p.write_bytes(raw[:4] + struct.pack("<II", 2, len(blob)) + blob + raw[12 + n:])
    with pytest.raises(FormatError) as e:
        load_checkpoint(p)
    assert e.value.offset == 4
    assert "version 2" in str(e.value)


@pytest.mark.parametrize("blob", [b"[]", b'"x"', b"3"])
def test_checkpoint_config_block_not_an_object(tmp_path, blob):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, PansharpenModel(tiny_config("adwm")))
    raw = p.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    p.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])
    with pytest.raises(FormatError) as e:
        load_checkpoint(p)
    assert e.value.offset == 12
    assert "JSON object" in str(e.value)


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


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    model = PansharpenModel(tiny_config("adwm", bands=1, channels=2, blocks=1))
    p = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(p, model)
    return p, p.read_bytes()


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_checkpoint_mutation_loads_or_adwm_error(small_checkpoint, data):
    p, raw = small_checkpoint
    pos = data.draw(st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        mutated = raw[:pos]
    else:
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
        mutated = raw[:pos] + bytes([byte]) + raw[pos + 1:]
    out = p.with_name("mutated.ckpt")
    out.write_bytes(mutated)
    try:
        load_checkpoint(out)
    except AdwmError:
        pass


@pytest.mark.parametrize("count, records, message", [
    (400_004, 0, "remaining bytes hold at most 0"),  # the count the config needs
    (4, 4, "needs at least 400004"),                 # a count the bytes hold
])
def test_checkpoint_larger_than_its_bytes_fails_before_the_model_is_built(
        tmp_path, count, records, message):
    # a config of 10^5 blocks in a file of well under a kilobyte: building
    # and initialising that model before the count is checked peaks at
    # about 165 MiB, so the loader must reject it from the header alone
    blob = json.dumps({"bands": 1, "blocks": 100_000, "channels": 2}).encode()
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"ADWM" + struct.pack("<II", CKPT_VERSION, len(blob)) + blob
                  + struct.pack("<I", count) + b"\0" * (17 * records))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as e:
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert message in str(e.value)
    assert e.value.offset == 12 + len(blob)  # the tensor count field


def test_checkpoint_wider_than_its_bytes_fails_before_the_model_is_built(tmp_path):
    # 600 channels in one block, 8 declared records of 17 zero bytes each:
    # a 194-byte file that, with the model built first, peaked at 50 MiB,
    # and with channels squared beyond that
    blob = json.dumps({"bands": 1, "blocks": 1, "channels": 600}).encode()
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"ADWM" + struct.pack("<II", CKPT_VERSION, len(blob)) + blob
                  + struct.pack("<I", 8) + b"\0" * (17 * 8))
    assert p.stat().st_size == 194
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as e:
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "6496200 kernel weights" in str(e.value)
    assert e.value.offset == 12  # the config block


def test_checkpoint_of_float32_records_loads(tmp_path):
    # the kernel bound counts 4 bytes an element, so a checkpoint whose
    # records hold float32 still loads, at a shape where kernels make up
    # most of the file and 8 bytes an element would reject it
    model = PansharpenModel(tiny_config(bands=1, channels=8), seed=3)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    raw = p.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    records = []
    for prm in model.params():
        prm.data = prm.data.astype(np.float32).astype(np.float64)
        rec = bytearray(tensor_to_bytes(prm.data))
        head = len(rec) - prm.data.nbytes
        rec[head - 1] = 1  # the dtype code: float32
        records.append(bytes(rec[:head]) + prm.data.astype("<f4").tobytes())
    p.write_bytes(raw[:16 + n] + b"".join(records))
    loaded = load_checkpoint(p)
    for got, want in zip(loaded.params(), model.params()):
        assert_bitwise(got.data, want.data)


def test_checkpoint_trailing_bytes(tmp_path):
    model = PansharpenModel(tiny_config())
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    p.write_bytes(p.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError):
        load_checkpoint(p)
