import numpy as np
import pytest

from adwm.backbone import ModelConfig, PansharpenModel, load_checkpoint
from adwm.data import SamplePair, generate_scene, wald_degrade
from adwm.errors import ConfigurationError, DimensionError, NumericError
from adwm.tensor import Tensor, gradcheck
from adwm import trainer
from adwm.trainer import (
    TrainConfig,
    adam_step,
    evaluate_psnr,
    init_adam,
    l1_loss,
    lr_at,
    train,
)


def make_pairs(n, seed0=0, H=16, W=16, c=2):
    out = []
    for i in range(n):
        gt = generate_scene(seed0 + i, H, W, c)
        pan, lrms = wald_degrade(gt)
        out.append(SamplePair(id=f"sample_{i:05d}", pan=pan, lrms=lrms, gt=gt))
    return out


def tiny_model(variant="adwm", seed=0):
    cfg = ModelConfig(bands=2, channels=6, blocks=2, variant=variant)
    model = PansharpenModel(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    model.dec_w.data[...] = 0.05 * rng.standard_normal(model.dec_w.data.shape)
    return model


# ----------------------------------------------------------------------
# config and schedule


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0)
    for lr0 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=1, lr0=lr0)
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=1, batch_size=0)


def test_lr_schedule_closed_form():
    cfg = TrainConfig(epochs=1)
    assert lr_at(1, cfg) == 2e-3
    assert lr_at(149, cfg) == 2e-3
    assert lr_at(150, cfg) == 1e-3
    assert lr_at(299, cfg) == 1e-3
    assert lr_at(300, cfg) == 5e-4
    assert lr_at(450, cfg) == 2.5e-4


# ----------------------------------------------------------------------
# loss


def test_l1_fixed_points():
    x = np.random.default_rng(0).random((4, 4, 2))
    assert float(l1_loss(Tensor(x), Tensor(x)).data) == 0.0
    assert abs(float(l1_loss(Tensor(x + 0.3), Tensor(x)).data) - 0.3) < 1e-12


def test_l1_gradcheck_off_ties():
    rng = np.random.default_rng(1)
    pred = Tensor(rng.standard_normal((3, 5)))
    gt = Tensor(rng.standard_normal((3, 5)))  # ties have measure zero
    assert gradcheck(lambda p: l1_loss(p, gt), pred) < 1e-6


# ----------------------------------------------------------------------
# Adam


def test_adam_zero_grad_is_identity():
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    before = p.data.copy()
    state = init_adam([p])
    adam_step([p], [np.zeros(3)], state, lr=0.1)
    np.testing.assert_array_equal(p.data, before)
    assert state["t"] == 1


def test_adam_first_step_is_signed_lr():
    g = np.array([0.5, -0.25, 1.7])
    p = Tensor(np.zeros(3))
    adam_step([p], [g], init_adam([p]), lr=1e-3)
    np.testing.assert_allclose(p.data, -1e-3 * np.sign(g), atol=1e-9)


def test_adam_tensors_update_independently():
    a = Tensor(np.ones(2))
    b = Tensor(np.ones(2))
    state = init_adam([a, b])
    adam_step([a, b], [np.array([1.0, 1.0]), np.zeros(2)], state, lr=0.01)
    assert not np.array_equal(a.data, np.ones(2))
    np.testing.assert_array_equal(b.data, np.ones(2))


def test_adam_length_mismatch():
    p = Tensor(np.zeros(2))
    with pytest.raises(ConfigurationError):
        adam_step([p], [], init_adam([p]), lr=0.1)


def test_adam_converges_on_quadratic():
    # sanity: 300 steps on f(x) = |x - 3| lands near 3
    p = Tensor(np.array([0.0]))
    state = init_adam([p])
    for _ in range(300):
        g = np.sign(p.data - 3.0)
        adam_step([p], [g], state, lr=0.05)
    assert abs(p.data[0] - 3.0) < 0.1


# ----------------------------------------------------------------------
# training loop


def test_one_step_decreases_l1():
    pairs = make_pairs(4)
    model = tiny_model()
    params = model.params()
    for p in params:
        p.requires_grad = True
    pan = Tensor(np.stack([s.pan for s in pairs]))
    lrms = Tensor(np.stack([s.lrms for s in pairs]))
    gt = Tensor(np.stack([s.gt for s in pairs]))
    loss0 = l1_loss(model.forward(pan, lrms), gt)
    loss0.backward()
    grads = [p.grad for p in params]
    adam_step(params, grads, init_adam(params), lr=2e-3)
    for p in params:
        p.requires_grad = False
    loss1 = l1_loss(model.forward(pan, lrms), gt)
    assert float(loss1.data) < float(loss0.data)


def test_single_batch_overfit(tmp_path):
    # one repeated batch, 200 steps: the loop must be able to memorize.
    # lr decay matters here: the l1 subgradient has constant magnitude,
    # so without halving the steps circle the optimum instead of landing
    pairs = make_pairs(1)
    cfg_m = ModelConfig(bands=2, channels=12, blocks=2, variant="adwm")
    model = PansharpenModel(cfg_m, seed=0)
    rng = np.random.default_rng(100)
    model.dec_w.data[...] = 0.05 * rng.standard_normal(model.dec_w.data.shape)
    cfg = TrainConfig(epochs=200, batch_size=4, seed=0, lr0=1e-2, halve_every=60)
    res = train(model, pairs, [], cfg, out_dir=tmp_path)
    first = res.history[0]["train_l1"]
    last = res.history[-1]["train_l1"]
    assert last < 0.1 * first, f"l1 went {first} -> {last}"


def test_train_is_byte_deterministic(tmp_path):
    cfg = TrainConfig(epochs=3, batch_size=4, seed=5)
    outs = []
    for run in ("a", "b"):
        model = tiny_model(seed=1)
        pairs = make_pairs(6)
        res = train(model, pairs[:4], pairs[4:], cfg, out_dir=tmp_path / run)
        outs.append(res)
    for attr in ("log_path", "best_path", "final_path"):
        with open(getattr(outs[0], attr), "rb") as f:
            fa = f.read()
        with open(getattr(outs[1], attr), "rb") as f:
            fb = f.read()
        assert fa == fb, f"{attr} differs between identical runs"


def test_log_schema_and_schedule(tmp_path):
    model = tiny_model(seed=2)
    pairs = make_pairs(6)
    cfg = TrainConfig(epochs=4, batch_size=4, seed=1, halve_every=2)
    res = train(model, pairs[:4], pairs[4:], cfg, out_dir=tmp_path)
    with open(res.log_path) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "epoch,lr,train_l1,val_psnr"
    assert len(lines) == 5
    rows = [l.split(",") for l in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
    assert [float(r[1]) for r in rows] == [2e-3, 1e-3, 1e-3, 5e-4]
    for r in rows:
        assert np.isfinite(float(r[2]))
        assert np.isfinite(float(r[3]))


def test_checkpoints_exist_and_load(tmp_path):
    model = tiny_model(seed=3)
    pairs = make_pairs(5)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=2)
    res = train(model, pairs[:4], pairs[4:], cfg, out_dir=tmp_path)
    best = load_checkpoint(res.best_path)
    final = load_checkpoint(res.final_path)
    assert best.config == model.config
    # the final checkpoint matches the live model's parameters
    for a, b in zip(final.params(), model.params()):
        np.testing.assert_array_equal(a.data, b.data)
    assert np.isfinite(res.best_val_psnr)


def test_nan_loss_aborts_with_batch_id(tmp_path):
    pairs = make_pairs(4)
    pairs[2].gt[0, 0, 0] = np.nan
    model = tiny_model(seed=4)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
    with pytest.raises(NumericError) as e:
        train(model, pairs, [], cfg, out_dir=tmp_path)
    assert "sample_00002" in str(e.value)
    assert "epoch 1" in str(e.value)
    # the abort hands the parameters back outside the tape
    assert not any(p.requires_grad for p in model.params())
    assert not model.forward(pairs[0].pan, pairs[0].lrms).requires_grad


def test_nan_validation_keeps_no_stale_best(tmp_path):
    # a best checkpoint from an earlier run sits in the output directory,
    # and no epoch gives a finite validation PSNR
    stale = tmp_path / "checkpoint_best.ckpt"
    stale.write_bytes(b"from an earlier run")
    pairs = make_pairs(5)
    pairs[4].lrms[1, 2, 0] = np.nan
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0)
    res = train(tiny_model(seed=8), pairs[:4], pairs[4:], cfg, out_dir=tmp_path)
    assert len(res.history) == 2
    assert all(np.isnan(h["val_psnr"]) for h in res.history)
    assert np.isnan(res.best_val_psnr)
    with open(res.best_path, "rb") as f, open(res.final_path, "rb") as g:
        assert f.read() == g.read()


def test_log_streams_one_row_per_finished_epoch(tmp_path, monkeypatch):
    pairs = make_pairs(5)
    log_path = tmp_path / "train_log.csv"
    seen = []

    def failing_on_epoch_2(model, val_pairs):
        seen.append(log_path.read_text().splitlines())
        if len(seen) == 2:
            raise RuntimeError("stop at epoch 2")
        return 20.0

    monkeypatch.setattr(trainer, "evaluate_psnr", failing_on_epoch_2)
    cfg = TrainConfig(epochs=3, batch_size=4, seed=0)
    with pytest.raises(RuntimeError):
        train(tiny_model(seed=7), pairs[:4], pairs[4:], cfg, out_dir=tmp_path)
    # epoch 1's row was on disk while epoch 2 was still running
    assert seen[1][0] == "epoch,lr,train_l1,val_psnr"
    assert [row.split(",")[0] for row in seen[1][1:]] == ["1"]
    assert log_path.read_text().splitlines() == seen[1]


def test_mixed_shape_batch_is_dimension_error(tmp_path):
    big = make_pairs(1, seed0=9, H=32, W=32)[0]
    big.id = "big"
    model = tiny_model(seed=5)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
    with pytest.raises(DimensionError) as e:
        train(model, make_pairs(2) + [big], [], cfg, out_dir=tmp_path)
    msg = str(e.value)
    assert "sample_00000" in msg and "sample_00001" in msg and "big" in msg
    assert "(16, 16, 2)" in msg and "(32, 32, 2)" in msg


def test_empty_training_set(tmp_path):
    with pytest.raises(ConfigurationError):
        train(tiny_model(), [], [], TrainConfig(epochs=1), out_dir=tmp_path)


def test_evaluate_psnr_restores_grad_flags():
    pairs = make_pairs(2)
    model = tiny_model(seed=6)
    model.enc_w.requires_grad = True  # mixed flags, as mid-training
    before = [p.requires_grad for p in model.params()]
    v = evaluate_psnr(model, pairs)
    assert np.isfinite(v)
    assert [p.requires_grad for p in model.params()] == before


# ----------------------------------------------------------------------
# steps with NaN-poisoned buffers


def seeded_steps(variant, generator, steps=3):
    """Each step's loss and gradients, then the parameters, as bytes."""
    pan, lrms, gt = trainer._assemble(make_pairs(2, H=32, W=32, c=4))
    cfg = ModelConfig(bands=4, channels=16, blocks=2, variant=variant,
                      generator=generator)
    model = PansharpenModel(cfg, seed=3)
    # a zero decoder would keep every gradient behind it zero on step 1
    rng = np.random.default_rng(3)
    model.dec_w.data[...] = 0.05 * rng.standard_normal(model.dec_w.data.shape)
    params = model.params()
    state = init_adam(params)
    out = []
    with trainer._grad_flags(params, True):
        for _ in range(steps):
            model.zero_grad()
            loss = l1_loss(model.forward(pan, lrms), gt)
            loss.backward()
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                     for p in params]
            out += [loss.data.tobytes()] + [g.tobytes() for g in grads]
            adam_step(params, grads, state, lr=2e-3)
    return out + [p.data.tobytes() for p in params]


ARMS = [("baseline", "cacw"), ("ifw", "cacw"), ("cfw", "cacw"), ("adwm", "cacw"),
        ("adwm", "pool"), ("adwm", "attention"), ("adwm", "pca")]


@pytest.mark.parametrize("variant,generator", ARMS)
def test_steps_in_a_poisoned_workspace_are_bitwise_those_outside(
        variant, generator, poisoned_empty):
    want = seeded_steps(variant, generator)
    poisoned_empty()
    assert seeded_steps(variant, generator) == want


# ----------------------------------------------------------------------
# mixed precision


@pytest.mark.parametrize("variant,generator", ARMS)
def test_a_training_step_records_a_float32_tape_end_to_end(variant, generator, monkeypatch):
    # every tape node and every gradient is float32; the master parameters
    # and Adam's moments stay float64, also after the update
    from test_tensor import recorded_node_dtypes

    pan, lrms, gt = trainer._assemble(make_pairs(2, c=2))
    assert {pan.dtype, lrms.dtype, gt.dtype} == {np.dtype(np.float32)}
    model = PansharpenModel(ModelConfig(bands=2, channels=4, blocks=2, variant=variant,
                                        generator=generator), seed=5)
    rng = np.random.default_rng(5)
    for p in model.params():
        p.data[...] = 0.1 * rng.standard_normal(p.shape)
    params = model.params()
    state = init_adam(params)
    dtypes = recorded_node_dtypes(monkeypatch)
    with trainer._grad_flags(params, True):
        loss = l1_loss(model.forward(pan, lrms), gt)
        loss.backward()
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    assert loss.dtype == np.float32
    grads = [p.grad for p in params]
    assert all(g is not None and g.dtype == np.float32 for g in grads)
    assert all(p.dtype == np.float64 for p in params)
    adam_step(params, grads, state, lr=2e-3)
    assert all(p.dtype == np.float64 for p in params)
    assert all(a.dtype == np.float64 for a in state["m"] + state["v"])


def test_adam_reads_a_float32_gradient_as_its_float64_value():
    rng = np.random.default_rng(6)
    start = rng.standard_normal((3, 4))
    g32 = rng.standard_normal((3, 4)).astype(np.float32)
    results = []
    for g in (g32, g32.astype(np.float64)):
        p = Tensor(start.copy())
        state = init_adam([p])
        for _ in range(3):
            adam_step([p], [g], state, lr=2e-3)
        results.append([p.data.tobytes(), state["m"][0].tobytes(), state["v"][0].tobytes()])
    assert results[0] == results[1]
