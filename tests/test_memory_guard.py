"""Memory guards: the backwards that run over whole feature maps, a
whole training step, the no-grad forward, and the full-resolution
metrics and spectra, measured with tracemalloc (numpy reports its
buffers to it).

A map-sized op's backward may allocate the gradient it produces, and
otherwise only per-item or per-block scratch. Each test states its bound
in units of X, the op's map-sized input, at a batched shape where one
item is a small part of X. The evaluate and diagnose guards run at
`adwm eval --full-res`'s tile size: 256x256, 8 bands, C=16, N=4.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from adwm import diagnostics
from adwm.backbone import ModelConfig, PansharpenModel, save_checkpoint
from adwm.cacw import centered_gram
from adwm.cli import main
from adwm.data import build_dataset
from adwm.metrics import evaluate_noreference, evaluate_reference
from adwm.tensor import Tensor, channel_scale, conv2d
from adwm.trainer import adam_step, init_adam, l1_loss
from adwm.weighting import weighted_sum

MIB = 2**20


def _traced(fn):
    """(before, peak, after): traced bytes when fn starts, at its peak and
    when it returns, counting only what fn allocates."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return before, peak, after


def _run_backward(node, g):
    """Push g through node's own backward, and through nothing else."""
    node.grad = g
    return _traced(node._backward_fn)


def test_centered_gram_backward_holds_one_item_beside_its_gradient():
    rng = np.random.default_rng(70)
    X = Tensor(rng.standard_normal((8, 512, 4)), requires_grad=True)
    node = centered_gram(X)
    before, peak, after = _run_backward(node, rng.standard_normal((8, 4, 4)))
    # what stays is X's gradient; beside it only an item's centered copy,
    # never a whole one
    assert after - before >= X.data.nbytes
    assert peak - after < X.data.nbytes


def test_channel_scale_backward_allocates_under_one_map():
    rng = np.random.default_rng(71)
    f = Tensor(rng.standard_normal((8, 32, 32, 4)), requires_grad=True)
    alpha = Tensor(rng.standard_normal((8, 4)), requires_grad=True)
    node = channel_scale(f, alpha)
    g = rng.standard_normal(f.shape)
    before, peak, _ = _run_backward(node, g)
    # f's gradient is the released g, gated in place, and alpha's is
    # summed one item at a time
    assert peak - before < f.data.nbytes
    assert f.grad is g


def test_weighted_sum_backward_holds_one_item_beside_its_gradients():
    rng = np.random.default_rng(72)
    maps = [Tensor(rng.standard_normal((8, 32, 32, 4)), requires_grad=True)
            for _ in range(3)]
    w = Tensor(rng.dirichlet(np.ones(3), size=8), requires_grad=True)
    node = weighted_sum(maps, w)
    before, peak, after = _run_backward(node, rng.standard_normal(maps[0].shape))
    # what stays is each map's gradient and w's; the products that w's
    # gradient sums take one item's scratch
    assert after - before >= 3 * maps[0].data.nbytes
    assert peak - after < maps[0].data.nbytes


def test_conv2d_adds_into_a_held_gradient_without_a_whole_dx():
    rng = np.random.default_rng(73)
    x = Tensor(rng.standard_normal((4, 64, 64, 4)), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 4, 3, 3)), requires_grad=True)
    held = rng.standard_normal(x.shape)
    x.grad = held
    node = conv2d(x, k, padding=1)
    before, peak, _ = _run_backward(node, rng.standard_normal(x.shape))
    # x's gradient takes each block's dX where it lies
    assert peak - before < x.data.nbytes
    assert x.grad is held


@pytest.mark.parametrize("variant", ["ifw", "cfw", "adwm"])
def test_training_step_of_a_weighted_arm_peaks_under_17_5_maps(variant):
    # one whole step, forward, L1 loss, backward and Adam, as `train` runs
    # it, after a warm step. The weighted sum hands each map its own
    # product of the released gradient and its layer factor, so the
    # sweep may hold N of them at once. Measured peaks, in maps:
    #
    #                      ifw    cfw    adwm   (baseline 13.73)
    #   factors deferred   15.03  14.80  15.74
    #   products at once   16.85  16.54  16.83
    #
    # where "factors deferred" is the tape that kept each map's gradient
    # and factor apart until the sweep reached the map
    b, size, bands, c, n = 4, 64, 4, 8, 4
    rng = np.random.default_rng(78)
    model = PansharpenModel(ModelConfig(bands=bands, channels=c, blocks=n,
                                        variant=variant), seed=0)
    params = model.params()
    for p in params:
        p.requires_grad = True
    state = init_adam(params)
    pan, lrms, gt = (Tensor(rng.random(shape).astype(np.float32)) for shape in (
        (b, size, size), (b, size // 4, size // 4, bands), (b, size, size, bands)))

    def step():
        model.zero_grad()
        l1_loss(model.forward(pan, lrms), gt).backward()
        adam_step(params, [p.grad for p in params], state, 1e-3)

    step()
    before, peak, _ = _traced(step)
    fmap = b * size * size * c * np.dtype(np.float32).itemsize
    assert peak - before < 17.5 * fmap


def test_no_grad_forward_holds_the_stack_and_one_map_more():
    # aggregate reads all N block outputs, so a forward must hold them,
    # the map it is making, the upsampled bands and the conv's block
    # buffers. The input grid, each block's inner map and the stack are
    # dropped once read: before they were, this shape peaked at 8.27 maps
    b, size, bands, c, n = 4, 64, 4, 8, 4
    rng = np.random.default_rng(74)
    model = PansharpenModel(ModelConfig(bands=bands, channels=c, blocks=n,
                                        variant="adwm"), seed=0)
    pan = rng.random((b, size, size))
    lrms = rng.random((b, size // 4, size // 4, bands))
    out = []
    before, peak, _ = _traced(lambda: out.append(model.forward(pan, lrms)))
    assert out[0].shape == (b, size, size, bands)
    # in units of the maps the forward makes, whatever its compute dtype
    fmap = b * size * size * c * out[0].data.itemsize
    assert peak - before < (n + 2) * fmap + fmap * bands // c


def test_no_grad_forward_at_tile_size_peaks_in_float32():
    # one adwm forward over a 256x256, 8-band tile at C=16, N=4, as
    # `adwm eval --full-res` runs it: float32 maps of 4 MiB each. The
    # float64 forward peaked at 44.8 MiB above its start, and the float32
    # one at 22.9 MiB
    rng = np.random.default_rng(75)
    model = PansharpenModel(ModelConfig(bands=8, channels=16, blocks=4,
                                        variant="adwm"), seed=0)
    pan = rng.random((256, 256))
    lrms = rng.random((64, 64, 8))
    before, peak, _ = _traced(lambda: model.forward(pan, lrms))
    assert peak - before <= 26 * 2**20


def _tile_model():
    return PansharpenModel(ModelConfig(bands=8, channels=16, blocks=4,
                                       variant="adwm"), seed=0)


def test_layer_spectra_at_tile_size_holds_one_float64_map():
    # each block's float32 map is copied to float64 once and centred in
    # place; the copy that centring used to make peaked at 16.1 MB
    rng = np.random.default_rng(76)
    weights = _tile_model().forward(rng.random((256, 256)), rng.random((64, 64, 8)),
                                    return_weights=True)[1]
    fmap64 = 256 * 256 * 16 * 8
    before, peak, _ = _traced(lambda: diagnostics.layer_spectra(weights))
    assert peak - before <= fmap64 + MIB


def test_evaluators_at_tile_size_hold_two_float64_images():
    # the float64 copy of a float32 prediction, made once per call, and one
    # metric's image-sized scratch beside it; each metric used to convert
    # pred again, and sam, q2n and d_s peaked at 18.6, 16.6 and 13.5 MB
    rng = np.random.default_rng(77)
    gt = rng.random((256, 256, 8))
    pred = (gt + 0.05 * rng.standard_normal(gt.shape)).astype(np.float32)
    lrms, pan = rng.random((64, 64, 8)), rng.random((256, 256))
    pan_low = rng.random((64, 64))
    image64 = gt.nbytes
    for call in (lambda: evaluate_reference(gt, pred),
                 lambda: evaluate_noreference(pred, lrms, pan, pan_low)):
        before, peak, _ = _traced(call)
        assert peak - before <= 2 * image64 + MIB


def test_diagnose_frees_the_fused_image_before_the_spectra(tmp_path, monkeypatch):
    data_dir, ckpt = tmp_path / "data", tmp_path / "model.ckpt"
    build_dataset(0, 1, 256, 256, 8, str(data_dir))
    save_checkpoint(ckpt, _tile_model())
    fused = []
    forward = PansharpenModel.forward

    def recorded(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        fused.append(weakref.ref(out[0].data))
        return out

    spectra = diagnostics.layer_spectra
    freed = []

    def checked(weights):
        freed.append(fused[0]() is None)
        return spectra(weights)

    monkeypatch.setattr(PansharpenModel, "forward", recorded)
    monkeypatch.setattr(diagnostics, "layer_spectra", checked)
    assert main(["diagnose", "--model", str(ckpt), "--data", str(data_dir),
                 "--out", str(tmp_path / "diag")]) == 0
    assert freed == [True]
