import gc
import sys
import weakref

import numpy as np
import pytest

from adwm import (
    DimensionError, Tensor, UsageError, concat, conv2d, gradcheck,
    softmax, spatial_mean, stack,
)
from adwm import tensor, weighting
from adwm.backbone import ModelConfig, PansharpenModel, upsample_bilinear
from adwm.cacw import centered_gram
from adwm.tensor import LEAKY_SLOPE, _leaky_grad, _node, bias_act, channel_scale
from adwm.weighting import weighted_sum


# ----------------------------------------------------------------------
# oracles

def conv2d_loops(x, k):
    """Direct nested-loop cross-correlation with zero padding, (C,H,W) input."""
    cout, cin, kh, kw = k.shape
    _, h, w = x.shape
    p = kh // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    y = np.zeros((cout, h, w))
    for o in range(cout):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(cin):
                    for a in range(kh):
                        for b in range(kw):
                            acc += xp[c, i + a, j + b] * k[o, c, a, b]
                y[o, i, j] = acc
    return y


def conv2d_loops_adjoint(x, k, gy):
    """Loop adjoint of `conv2d_loops`: (dL/dx, dL/dk) for output gradient gy."""
    cout, cin, kh, kw = k.shape
    _, h, w = x.shape
    p = kh // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for o in range(cout):
        for i in range(h):
            for j in range(w):
                g = gy[o, i, j]
                for c in range(cin):
                    for a in range(kh):
                        for b in range(kw):
                            gxp[c, i + a, j + b] += g * k[o, c, a, b]
                            gk[o, c, a, b] += g * xp[c, i + a, j + b]
    return gxp[:, p:p + h, p:p + w], gk


# batch (None = unbatched), C_in, C_out, H, W, kernel size: batches of 1 and
# 3, kernels 1x1, 3x3 and 5x5, single-row and single-column images, and
# C_in != C_out; a shift error in the flat layout shows at batch boundaries.
# The 27x29 case spans more than one row block of the shifted GEMMs, and
# the 2100-wide one has padded rows longer than a whole block.
CONV_CASES = [
    (None, 2, 3, 5, 4, 3),
    (1, 3, 2, 4, 6, 3),
    (3, 2, 3, 5, 4, 3),
    (3, 1, 2, 1, 6, 3),
    (3, 3, 1, 5, 1, 5),
    (1, 2, 4, 1, 1, 5),
    (3, 4, 2, 3, 5, 1),
    (3, 2, 3, 6, 5, 5),
    (1, 1, 1, 2, 7, 1),
    (3, 2, 1, 27, 29, 3),
    (None, 1, 2, 2, 2100, 3),
]


def _conv_case(rng, bsz, cin, cout, h, w, ks):
    shape = (cin, h, w) if bsz is None else (bsz, cin, h, w)
    return rng.standard_normal(shape), rng.standard_normal((cout, cin, ks, ks))


def _per_sample(x):
    return [x] if x.ndim == 3 else list(x)


def _hwc(a):
    """The (.., C, H, W) values of an oracle array as a C-contiguous
    (.., H, W, C) array, the layout `conv2d` takes and returns."""
    return np.ascontiguousarray(np.moveaxis(a, -3, -1))


def _channels_first_memory(a):
    """The same values as an (.., H, W, C) view of (.., C, H, W) memory,
    so the channel stride is H*W instead of 1."""
    return np.moveaxis(a, -3, -1)


def _sliced_view(a):
    """The same values as an (.., H, W, C) slice of a larger NaN-filled
    buffer, the way a conv2d output sits in its flat grid."""
    h, w, c = a.shape[-2], a.shape[-1], a.shape[-3]
    buf = np.full(a.shape[:-3] + (h + 2, w + 3, c), np.nan)
    buf[..., :h, :w, :] = np.moveaxis(a, -3, -1)
    return buf[..., :h, :w, :]


def _tap_major_kernel(k):
    return np.ascontiguousarray(k.transpose(2, 3, 1, 0)).transpose(3, 2, 0, 1)


def _reversed_kernel(k):
    return np.ascontiguousarray(k[::-1, :, ::-1])[::-1, :, ::-1]


def _sliced_kernel(k):
    cout, cin, kh, kw = k.shape
    big = np.full((cout, cin + 1, kh + 1, kw + 2), np.nan)
    big[:, :cin, :kh, :kw] = k
    return big[:, :cin, :kh, :kw]


def _same(a):
    return a


# (input layout, kernel layout); an input layout maps the oracles'
# (.., C, H, W) array to the (.., H, W, C) input of `conv2d`, and also
# holds the output gradient in the adjoint test
CONV_LAYOUTS = [
    (_hwc, _same),
    (_channels_first_memory, _tap_major_kernel),
    (_sliced_view, _reversed_kernel),
    (_channels_first_memory, _sliced_kernel),
]


# ----------------------------------------------------------------------
# matmul

def test_matmul_identity():
    a = Tensor(np.eye(2)) @ Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(a.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_expansion():
    out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    assert out.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as e:
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))
    assert "(2, 3)" in str(e.value)


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3, 4))
    b = rng.standard_normal((5, 4, 2))
    out = Tensor(a) @ Tensor(b)
    for i in range(5):
        assert np.allclose(out.data[i], a[i] @ b[i])


# ----------------------------------------------------------------------
# conv2d

def test_conv2d_dirac_identity():
    rng = np.random.default_rng(1)
    x = _hwc(rng.standard_normal((3, 6, 5)))
    k = np.zeros((3, 3, 3, 3))
    for c in range(3):
        k[c, c, 1, 1] = 1.0
    out = conv2d(Tensor(x), Tensor(k))
    assert np.array_equal(out.data, x)


def test_conv2d_ones_center():
    out = conv2d(Tensor(np.ones((3, 3, 1))), Tensor(np.ones((1, 1, 3, 3))))
    assert out.data[1, 1, 0] == 9.0


def test_conv2d_zero_kernel():
    rng = np.random.default_rng(2)
    out = conv2d(Tensor(rng.standard_normal((4, 4, 2))), Tensor(np.zeros((5, 2, 3, 3))))
    assert np.all(out.data == 0.0)


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        cin, cout = rng.integers(1, 4, size=2)
        h, w = rng.integers(3, 8, size=2)
        x = rng.standard_normal((cin, h, w))
        k = rng.standard_normal((cout, cin, 3, 3))
        out = conv2d(Tensor(_hwc(x)), Tensor(k))
        assert np.allclose(out.data, _hwc(conv2d_loops(x, k)), atol=1e-12)
    for case in CONV_CASES:
        x, k = _conv_case(rng, *case)
        want = _hwc(np.stack([conv2d_loops(xi, k) for xi in _per_sample(x)]))
        for x_layout, k_layout in CONV_LAYOUTS:
            xv, kv = x_layout(x), k_layout(k)
            assert np.array_equal(xv, _hwc(x)) and np.array_equal(kv, k)
            out = conv2d(Tensor(xv), Tensor(kv), padding=k.shape[-1] // 2)
            assert out.shape == x.shape[:-3] + x.shape[-2:] + (k.shape[0],)
            msg = (case, x_layout.__name__, k_layout.__name__)
            assert np.allclose(out.data.reshape(want.shape), want, rtol=0, atol=1e-12), msg


def test_conv2d_gradients_match_loop_adjoint():
    check_conv2d_gradients()


def test_conv2d_gradients_match_loop_adjoint_in_poisoned_workspace(poisoned_empty):
    poisoned_empty()
    check_conv2d_gradients()


def check_conv2d_gradients():
    rng = np.random.default_rng(11)
    for case in CONV_CASES:
        x, k = _conv_case(rng, *case)
        gy = rng.standard_normal(x.shape[:-3] + (k.shape[0],) + x.shape[-2:])
        gx_want = np.zeros_like(x).reshape((-1,) + x.shape[-3:])
        gk_want = np.zeros_like(k)
        for n, (xi, gyi) in enumerate(zip(_per_sample(x), _per_sample(gy))):
            gx_want[n], gk_i = conv2d_loops_adjoint(xi, k, gyi)
            gk_want += gk_i
        for layout, k_layout in CONV_LAYOUTS:
            xt = Tensor(layout(x), requires_grad=True)
            kt = Tensor(k_layout(k), requires_grad=True)
            out = conv2d(xt, kt, padding=k.shape[-1] // 2)
            (out * Tensor(layout(gy))).sum().backward()
            msg = (case, layout.__name__, k_layout.__name__)
            assert np.allclose(xt.grad, _hwc(gx_want.reshape(x.shape)), rtol=0, atol=1e-12), msg
            assert np.allclose(kt.grad, gk_want, rtol=0, atol=1e-12), msg


def test_conv2d_chain_matches_loop_oracle():
    check_conv2d_chain()


def test_conv2d_chain_matches_loop_oracle_in_poisoned_workspace(poisoned_empty):
    poisoned_empty()
    check_conv2d_chain()


def check_conv2d_chain():
    # the backbone's pattern: conv, bias, leaky ReLU, conv, so the second
    # conv reads the first one's strided output and the first one's
    # backward reads a gradient in the second one's layout
    rng = np.random.default_rng(12)
    slope = 0.01
    for case in CONV_CASES:
        x, k1 = _conv_case(rng, *case)
        cin, cout, ks = k1.shape[1], k1.shape[0], k1.shape[-1]
        k2 = rng.standard_normal((cin, cout, ks, ks))
        b1 = rng.standard_normal((cout, 1, 1))
        gy = rng.standard_normal(x.shape)
        xt, k1t, k2t, b1t = (Tensor(a, requires_grad=True)
                             for a in (_hwc(x), k1, k2, b1.reshape(1, 1, cout)))
        z = (conv2d(xt, k1t, padding=ks // 2) + b1t).leaky_relu()
        y = conv2d(z, k2t, padding=ks // 2)
        (y * _hwc(gy)).sum().backward()

        y_want = np.zeros((len(_per_sample(x)),) + x.shape[-3:])
        gx_want = np.zeros_like(y_want)
        gk1_want, gk2_want = np.zeros_like(k1), np.zeros_like(k2)
        gb1_want = np.zeros_like(b1)
        for n, (xi, gyi) in enumerate(zip(_per_sample(x), _per_sample(gy))):
            pre = conv2d_loops(xi, k1) + b1
            zi = np.where(pre > 0, pre, slope * pre)
            y_want[n] = conv2d_loops(zi, k2)
            gz, gk2_i = conv2d_loops_adjoint(zi, k2, gyi)
            gpre = gz * np.where(pre > 0, 1.0, slope)
            gx_want[n], gk1_i = conv2d_loops_adjoint(xi, k1, gpre)
            gk1_want += gk1_i
            gk2_want += gk2_i
            gb1_want += gpre.sum(axis=(1, 2), keepdims=True)
        for got, want in ((y.data, _hwc(y_want)), (xt.grad, _hwc(gx_want)), (k1t.grad, gk1_want),
                          (k2t.grad, gk2_want), (b1t.grad, gb1_want)):
            assert np.allclose(got, want.reshape(got.shape), rtol=0, atol=1e-12), case


@pytest.mark.parametrize("lead,p", [(0, 1), (0, 0), (9, 0), (0, 2), (5, 1)])
def test_grid_rows_match_the_whole_padded_grid(lead, p):
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 4, 7, 2))[:, :, 1:6]  # a strided source
    hp, wp = 4 + 2 * p + 1, 5 + 2 * p + 2  # cells wider than the padding needs
    cells = np.zeros((3, hp, wp, 2))
    cells[:, p:p + 4, p:p + 5] = a
    grid = np.concatenate([np.zeros((lead, 2)), cells.reshape(-1, 2)])
    rows = tensor._grid_rows(a, lead, p, hp, wp)
    for _ in range(200):
        s0, s1 = sorted(rng.integers(0, len(grid) + 1, size=2))
        assert rows(s0, s1).tobytes() == grid[s0:s1].tobytes(), (s0, s1)


def test_conv2d_batched_matches_per_sample():
    rng = np.random.default_rng(4)
    x = _hwc(rng.standard_normal((6, 3, 5, 7)))
    k = rng.standard_normal((4, 3, 3, 3))
    out = conv2d(Tensor(x), Tensor(k))
    assert out.shape == (6, 5, 7, 4)
    for i in range(6):
        single = conv2d(Tensor(x[i]), Tensor(k))
        assert np.allclose(out.data[i], single.data, atol=1e-12)


def test_conv2d_channel_mismatch():
    with pytest.raises(DimensionError):
        conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((1, 3, 3, 3))))


def test_conv2d_bad_padding():
    with pytest.raises(DimensionError):
        conv2d(Tensor(np.zeros((4, 4, 1))), Tensor(np.zeros((1, 1, 3, 3))), padding=2)


# ----------------------------------------------------------------------
# softmax

def test_softmax_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_closed_form():
    out = softmax(Tensor(np.log([1.0, 2.0, 3.0])))
    assert np.allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


def test_softmax_overflow_stability():
    out = softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] > 1.0 - 1e-12


def test_softmax_properties():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.standard_normal(rng.integers(1, 9)) * rng.uniform(0.1, 50)
        y = softmax(Tensor(v)).data
        assert abs(y.sum() - 1.0) <= 1e-12
        assert np.all(y > 0) and np.all(y < 1 + 1e-15)
        assert np.argmax(y) == np.argmax(v)


def test_softmax_empty():
    with pytest.raises(DimensionError):
        softmax(Tensor(np.zeros(0)))


# ----------------------------------------------------------------------
# spatial_mean and elementwise

def test_spatial_mean_constant():
    assert np.allclose(spatial_mean(Tensor(np.full((3, 4, 4), 7.0))).data, 7.0)


def test_spatial_mean_direct():
    f = Tensor(np.array([[[1.0], [2.0]], [[3.0], [4.0]]]))
    assert spatial_mean(f).data[0] == 2.5


def test_spatial_mean_1x1():
    x = np.array([[[3.0, 5.0]]])
    assert np.array_equal(spatial_mean(Tensor(x)).data, [3.0, 5.0])


def test_elementwise_identity_weighting():
    rng = np.random.default_rng(6)
    f = rng.standard_normal((3, 4, 5))
    out = Tensor(f) * Tensor(np.ones((3, 1, 1)))
    assert np.array_equal(out.data, f)


def test_channel_broadcast_equals_tiling():
    rng = np.random.default_rng(7)
    f = rng.standard_normal((4, 5, 6))
    w = rng.standard_normal(4)
    out = Tensor(f) * Tensor(w.reshape(4, 1, 1))
    tiled = f * np.tile(w.reshape(4, 1, 1), (1, 5, 6))
    assert np.array_equal(out.data, tiled)


# ----------------------------------------------------------------------
# fused per-channel ops against the compositions they replace

def where_leaky(t, slope=0.01):
    """`Tensor.leaky_relu` before it shared `bias_act`'s kernel, verbatim."""
    def backward(g):
        t._accumulate(g * np.where(t.data > 0, 1.0, slope))

    return _node(np.where(t.data > 0, t.data, slope * t.data), (t,), backward)


def bias_act_oracle(x, b, slope=None):
    pre = x + b.reshape((1, 1, -1))
    return pre if slope is None else where_leaky(pre, slope)


def channel_scale_oracle(f, alpha):
    return f * alpha.reshape(alpha.shape[:-1] + (1, 1, alpha.shape[-1]))


def assert_bitwise(got, want, msg=None):
    # np.array_equal takes -0.0 for 0.0; the bytes tell them apart
    assert np.array_equal(got, want), msg
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), msg


def _signed_zeros(rng, shape):
    """Normal draws, negatives among them, with some exact 0.0 and -0.0."""
    a = rng.standard_normal(shape)
    a.flat[::5] = 0.0
    a.flat[2::7] = -0.0
    return a


def _run_both(op, oracle, arrays, g):
    """Forward, then backward under upstream gradient g, through both."""
    results = []
    for fn in (op, oracle):
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*ts)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, [t.grad for t in ts]))
    return results


FUSED_SHAPES = [(5, 4, 3), (2, 5, 4, 3), (2, 5, 1, 3), (5, 1, 3), (2, 5, 4, 1), (3, 1, 1)]


@pytest.mark.parametrize("shape", FUSED_SHAPES)
@pytest.mark.parametrize("slope", [None, 0.01])
def test_bias_act_matches_composition_bitwise(shape, slope):
    rng = np.random.default_rng(31)
    x = _signed_zeros(rng, shape)
    b = _signed_zeros(rng, shape[-1:])
    # some pre-activations land exactly on zero: x = -b gives +0.0
    x[..., 1::2, :, :] = -b
    g = _signed_zeros(rng, shape)
    # bias_act writes over its input, so it gets x * 1.0, an exact fresh copy
    (got, got_grads), (want, want_grads) = _run_both(
        lambda x, b: bias_act(x * 1.0, b, leaky=slope is not None),
        lambda x, b: bias_act_oracle(x, b, slope), [x, b], g)
    assert_bitwise(got, want, (shape, slope))
    for gg, wg in zip(got_grads, want_grads):
        assert_bitwise(gg, wg, (shape, slope))


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("shape", FUSED_SHAPES)
def test_bias_act_residual_matches_composition_bitwise(shape, poisoned, poisoned_empty):
    # a block's epilogue: f + bias_act(conv, b), written over the conv
    if poisoned:
        poisoned_empty()
    rng = np.random.default_rng(35)
    x = _signed_zeros(rng, shape)
    b = _signed_zeros(rng, shape[-1:])
    f = _signed_zeros(rng, shape)
    x[..., 1::2, :, :] = -b
    # some sums land exactly on zero too
    f[..., ::3, :] = -(x + b)[..., ::3, :]
    g = _signed_zeros(rng, shape)
    (got, got_grads), (want, want_grads) = _run_both(
        lambda x, b, f: bias_act(x * 1.0, b, residual=f),
        lambda x, b, f: f + bias_act_oracle(x, b), [x, b, f], g)
    assert_bitwise(got, want, shape)
    for gg, wg in zip(got_grads, want_grads):
        assert_bitwise(gg, wg, shape)


@pytest.mark.parametrize("slope, with_residual", [(None, False), (0.01, False),
                                                  (None, True)])
def test_bias_act_writes_over_its_input(slope, with_residual):
    rng = np.random.default_rng(36)
    x = Tensor(rng.standard_normal((2, 3, 4, 2)), requires_grad=True) * 1.0
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    f = Tensor(rng.standard_normal(x.shape)) if with_residual else None
    want = bias_act_oracle(Tensor(x.data.copy()), b, slope).data
    if with_residual:
        want = f.data + want
    buffer = x.data
    out = bias_act(x, b, leaky=slope is not None, residual=f)
    assert out.data is buffer and x.data is buffer
    assert_bitwise(out.data, want)


def test_bias_act_rejects_a_grad_leaf():
    x = Tensor(np.ones((2, 2, 2)), requires_grad=True)
    with pytest.raises(UsageError, match="leaf"):
        bias_act(x, np.zeros(2))
    assert np.all(x.data == 1.0)


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make", [
    lambda a: a[:, ::2],                    # a strided view
    lambda a: a.reshape(4, 2, 2),           # contiguous, but a view
    lambda a: np.asfortranarray(a),         # owns its memory, not C order
    _read_only,                             # owns its memory, C order, read-only
])
def test_bias_act_rejects_data_it_cannot_write_over(make):
    a = make(np.arange(16.0).reshape(2, 4, 2) - 7.0)
    before = a.copy()
    with pytest.raises(UsageError, match="writ"):
        bias_act(Tensor(a), np.zeros(2))
    assert_bitwise(a, before)


@pytest.mark.parametrize("kwargs, error", [
    (lambda x: dict(b=np.zeros(3)), DimensionError),              # bias length is not C
    (lambda x: dict(b=np.zeros(2), residual=np.zeros((2, 3, 2))), DimensionError),
    (lambda x: dict(b=np.zeros(2), residual=x), UsageError),      # residual is x
    (lambda x: dict(b=np.zeros(2), residual=x.data[::-1]), UsageError),  # or shares it
    (lambda x: dict(b=np.zeros(2), leaky=True, residual=np.zeros(x.shape)), UsageError),
])
def test_bias_act_checks_before_it_writes(kwargs, error):
    rng = np.random.default_rng(37)
    x = Tensor(rng.standard_normal((2, 3, 4, 2)), requires_grad=True) * 1.0
    before = x.data.copy()
    with pytest.raises(error):
        bias_act(x, **kwargs(x))
    assert_bitwise(x.data, before)


@pytest.mark.parametrize("shape", FUSED_SHAPES)
def test_channel_scale_matches_composition_bitwise(shape):
    rng = np.random.default_rng(32)
    f = _signed_zeros(rng, shape)
    alpha = _signed_zeros(rng, shape[:-3] + shape[-1:])
    g = _signed_zeros(rng, shape)
    (got, got_grads), (want, want_grads) = _run_both(
        channel_scale, channel_scale_oracle, [f, alpha], g)
    assert_bitwise(got, want, shape)
    for gg, wg in zip(got_grads, want_grads):
        assert_bitwise(gg, wg, shape)


def stored_weighted_sum(maps, w=None):
    """`weighted_sum` as it was when every map was stored whole and its
    backward built all N map gradients at once, verbatim but for `np.empty`."""
    n = len(maps)
    shape = maps[0].shape
    if w is None:
        factors = [1.0 / n] * n
        parents = tuple(maps)
    else:
        lead = w.shape[:-1] + (1, 1, 1)
        factors = [w.data[..., k].reshape(lead) for k in range(n)]
        parents = (maps[0], w) + tuple(maps[1:])

    data = maps[0].data * factors[0]
    term = np.empty(shape)
    for m, f in zip(maps[1:], factors[1:]):
        data += np.multiply(m.data, f, out=term)

    def backward(g):
        for m, f in zip(maps, factors):
            if m.requires_grad:
                m._accumulate(g * f, owned=True)
        if w is not None and w.requires_grad:
            prod = np.empty(shape)
            w._accumulate(np.stack(
                [np.multiply(g, m.data, out=prod).sum(axis=(-3, -2, -1))
                 for m in maps], axis=-1
            ), owned=True)

    return _node(data, parents, backward)


# which gated maps the sum reads, and whether one of them has a second
# consumer that the sweep reaches before or after the sum
HANDOVER_CASES = ["plain", "second_consumer_first", "second_consumer_after",
                  "repeated_map"]


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("case", HANDOVER_CASES)
@pytest.mark.parametrize("shape", [(5, 4, 3), (2, 5, 4, 3)])
def test_weighted_sum_of_gated_maps_matches_stored_maps_bitwise(
        shape, case, with_w, poisoned, poisoned_empty):
    # weighted_sum forms the gated maps in row blocks and hands each one
    # its own product of the released gradient and its layer factor; the
    # oracle stores every gated map whole and builds every product at once
    if poisoned:
        poisoned_empty()
    rng = np.random.default_rng(38)
    n = 3
    fs = [_signed_zeros(rng, shape) for _ in range(n)]
    alphas = [_signed_zeros(rng, shape[:-3] + shape[-1:]) for _ in range(n)]
    w0 = rng.random(shape[:-3] + (n,))
    g = _signed_zeros(rng, shape)
    v = _signed_zeros(rng, shape)
    results = []
    for scale, wsum in ((channel_scale, weighted_sum),
                        (channel_scale_oracle, stored_weighted_sum)):
        leaves = ([Tensor(a.copy(), requires_grad=True) for a in fs + alphas]
                  + [Tensor(w0.copy(), requires_grad=True)])
        ts, als, w = leaves[:n], leaves[n:2 * n], leaves[-1]
        gated = [scale(t, a) for t, a in zip(ts, als)]
        stack_ = [gated[0], gated[1], gated[0]] if case == "repeated_map" else gated
        out = wsum(stack_, w if with_w else None)
        loss = (out * Tensor(g)).sum()
        if case == "second_consumer_first":
            # the sweep reaches gated[1] * v before the sum
            loss = loss + (gated[1] * Tensor(v)).sum()
        elif case == "second_consumer_after":
            loss = (gated[1] * Tensor(v)).sum() + loss
        loss.backward()
        results.append([out.data] + [t.grad for t in leaves])
    # the repeated stack leaves the third map unread, and a sum without
    # w gives it no gradient
    unread = {n - 1, 2 * n - 1} if case == "repeated_map" else set()
    for i, (got, want) in enumerate(zip(*results)):
        if i - 1 in unread or (i == len(results[0]) - 1 and not with_w):
            assert got is None and want is None, i
        else:
            assert_bitwise(got, want, (shape, case, with_w, i))


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("needs", ["f", "alpha", "both"])
@pytest.mark.parametrize("shape", FUSED_SHAPES + [(3, 17, 16, 5)])
def test_channel_scale_gradients_match_composition_bitwise(shape, needs, poisoned,
                                                           poisoned_empty):
    # alpha's gradient is summed one map at a time, and f's is the
    # released gradient gated in place
    if poisoned:
        poisoned_empty()
    rng = np.random.default_rng(40)
    f = _signed_zeros(rng, shape)
    alpha = _signed_zeros(rng, shape[:-3] + shape[-1:])
    g = _signed_zeros(rng, shape)
    results = []
    for scale in (channel_scale, channel_scale_oracle):
        ft = Tensor(f.copy(), requires_grad=needs != "alpha")
        at = Tensor(alpha.copy(), requires_grad=needs != "f")
        out = scale(ft, at)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, ft.grad, at.grad))
    for got, want in zip(*results):
        if want is None:
            assert got is None
        else:
            assert_bitwise(got, want, (shape, needs))


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_channel_scale_gates_its_released_gradient_in_place(layout):
    # in whatever layout the gradient arrives
    rng = np.random.default_rng(41)
    f = Tensor(rng.standard_normal((2, 5, 4, 3)), requires_grad=True)
    alpha = Tensor(rng.standard_normal((2, 3)))
    g = layout(rng.standard_normal(f.shape))
    want = channel_scale_oracle(Tensor(g.copy()), alpha).data
    node = channel_scale(f, alpha)
    node.grad = g
    node._backward_fn()
    assert f.grad is g
    assert_bitwise(f.grad, want)


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("held", ["array", "weighted_sum"])
@pytest.mark.parametrize("shape", [(6, 5, 3), (2, 6, 5, 3)])
def test_conv2d_adds_dx_into_a_held_gradient_bitwise(shape, held, poisoned,
                                                     poisoned_empty):
    # conv2d adds each block of dX into the gradient array that x already
    # holds, handed by an elementwise op or by a weighted sum. The oracle
    # runs the conv over x * 1.0, whose own gradient is the whole dX, and
    # the product node adds dX * 1.0 (dX exactly) into x, as `_accumulate`
    # did with the whole dX that conv2d built before
    if poisoned:
        poisoned_empty()
    rng = np.random.default_rng(42)
    x0 = _signed_zeros(rng, shape)
    k0 = rng.standard_normal((4, shape[-1], 3, 3))
    g = _signed_zeros(rng, shape[:-1] + (4,))
    u, v = _signed_zeros(rng, shape), _signed_zeros(rng, shape)
    results = []
    for conv_input in (lambda x: x, lambda x: x * 1.0):
        t = Tensor(x0.copy(), requires_grad=True)
        k = Tensor(k0.copy(), requires_grad=True)
        x = t if held == "array" else t * 1.0
        conv = conv2d(conv_input(x), k, padding=1)
        loss = (conv * Tensor(g)).sum()
        if held == "array":
            # the sweep reaches x * v before the conv
            loss = loss + (x * Tensor(v)).sum()
        else:
            # and the weighted sum, which hands x its gradient first
            loss = loss + (weighted_sum([x, Tensor(u)]) * Tensor(v)).sum()
        seen = []
        push = conv._backward_fn

        def spied():
            before = x.grad
            push()
            seen.append((before, x.grad))

        conv._backward_fn = spied
        loss.backward()
        results.append((t.grad, k.grad, seen))
    # the conv found x's gradient held, and added into that array itself
    (before, after), = results[0][2]
    assert before is not None and after is before
    for got, want in zip(results[0][:2], results[1][:2]):
        assert_bitwise(got, want, (shape, held))


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("shape", [(7, 4, 3), (2, 7, 4, 3)])
def test_weighted_sum_in_row_blocks_matches_stored_maps_bitwise(
        shape, with_w, poisoned, poisoned_empty, monkeypatch):
    # 8 pixels a block: two of the 7 image rows, and one in the last block
    monkeypatch.setattr(weighting, "_BLOCK", 8)
    if poisoned:
        poisoned_empty()
    rng = np.random.default_rng(43)
    n = 3
    fs = [_signed_zeros(rng, shape) for _ in range(n)]
    alphas = [_signed_zeros(rng, shape[:-3] + shape[-1:]) for _ in range(n)]
    w0 = rng.random(shape[:-3] + (n,))
    g = _signed_zeros(rng, shape)
    results = []
    for scale, wsum in ((channel_scale, weighted_sum),
                        (channel_scale_oracle, stored_weighted_sum)):
        leaves = ([Tensor(a.copy(), requires_grad=True) for a in fs + alphas]
                  + [Tensor(w0.copy(), requires_grad=True)])
        ts, als, w = leaves[:n], leaves[n:2 * n], leaves[-1]
        # gated maps, which each block forms, and a plain one it reads
        maps = [scale(ts[0], als[0]), ts[1] * 1.0, scale(ts[2], als[2])]
        out = wsum(maps, w if with_w else None)
        (out * Tensor(g)).sum().backward()
        results.append([out.data] + [t.grad for t in leaves])
    for i, (got, want) in enumerate(zip(*results)):
        if want is None:
            assert got is None, i
        else:
            assert_bitwise(got, want, (shape, with_w, i))


def test_gated_map_keeps_its_factors():
    rng = np.random.default_rng(39)
    f = Tensor(rng.standard_normal((2, 5, 4, 3)))
    alpha = Tensor(rng.standard_normal((2, 3)))
    gated = channel_scale(f, alpha)
    want = channel_scale_oracle(f, alpha).data
    assert gated.shape == f.shape and gated.ndim == 4 and gated.size == f.size
    # each read forms the map afresh, so a write to one read is lost
    first = gated.data
    assert_bitwise(first, want)
    first[...] = 0.0
    assert_bitwise(gated.data, want)
    assert gated.data is not gated.data
    # the node holds f's data, not a copy of it, and no product
    assert not any(np.shares_memory(a, want) for a in (gated._src, gated._gate))
    assert gated._src is f.data and gated._gate.size == 2 * 4 * 3


def test_fused_ops_hand_their_input_a_fresh_gradient():
    # an op hands its inputs either fresh arrays or its own released
    # gradient, which nothing else holds: a later accumulation into one
    # input must land there alone. The tape reaches t * w and r * w after
    # `out`, so the fused op writes the gradients of t and the residual r
    # first, and those products then add into them; x's gradient must
    # still be the composition's. t = x * 1.0 is a fresh result, since
    # bias_act writes over its input (so nothing else may read t's data),
    # and g * 1.0 is exact.
    rng = np.random.default_rng(33)
    x0 = rng.standard_normal((2, 3, 4, 2))
    b0 = rng.standard_normal(2)
    w = Tensor(rng.standard_normal(x0.shape))
    cases = [
        (lambda t, b, r: bias_act(t, b), lambda t, b, r: bias_act_oracle(t, b)),
        (lambda t, b, r: bias_act(t, b, leaky=True),
         lambda t, b, r: bias_act_oracle(t, b, 0.01)),
        (lambda t, b, r: bias_act(t, b, residual=r),
         lambda t, b, r: r + bias_act_oracle(t, b)),
        (lambda t, b, r: channel_scale(t, b.reshape(1, 2) * np.ones((2, 1))),
         lambda t, b, r: channel_scale_oracle(t, b.reshape(1, 2) * np.ones((2, 1)))),
    ]
    for op, oracle in cases:
        grads = []
        for fn in (op, oracle):
            x = Tensor(x0.copy(), requires_grad=True)
            b = Tensor(b0.copy(), requires_grad=True)
            t, r = x * 1.0, x * 2.0
            out = fn(t, b, r)
            (t * w + r * w + out * out).sum().backward()
            grads.append((x.grad, b.grad))
        for got, want in zip(*grads):
            assert_bitwise(got, want)


def test_leaky_relu_matches_where_kernel_bitwise():
    rng = np.random.default_rng(34)
    x = _signed_zeros(rng, (6, 7))
    g = _signed_zeros(rng, (6, 7))
    (got, [gg]), (want, [wg]) = _run_both(lambda t: t.leaky_relu(), where_leaky, [x], g)
    assert_bitwise(got, want)
    assert_bitwise(gg, wg)


def putmask_leaky_grad(out, g):
    """`_leaky_grad` before its factor lost the branch, verbatim."""
    grad = g * LEAKY_SLOPE
    np.putmask(grad, out > 0, g)
    return grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_grad_factor_is_exactly_slope_or_one(dtype):
    # (out > 0) * (1 - slope) + slope, as `_leaky_grad` forms it: its two
    # values must come out as slope and 1.0, not a rounding away
    out = np.array([-1.0, 0.0, 1.0], dtype=dtype)
    factor = _leaky_grad(out, np.ones(3, dtype=dtype))
    assert factor.dtype == dtype
    assert_bitwise(factor, np.array([LEAKY_SLOPE, LEAKY_SLOPE, 1.0], dtype=dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_grad_matches_the_putmask_kernel_bitwise(dtype):
    # every pairing of NaN (both signs), signed zeros, signed infinities,
    # a subnormal and plain values in the output and in the gradient
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-45,
                        -2.5, 3.0], dtype=dtype)
    out = np.repeat(special, len(special))
    g = np.tile(special, len(special))
    got, want = _leaky_grad(out, g), putmask_leaky_grad(out, g)
    # the bytes, NaN payloads and signs included (array_equal fails on NaN)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    rng = np.random.default_rng(35)
    out = _signed_zeros(rng, (2, 8, 8, 3)).astype(dtype)
    g = _signed_zeros(rng, out.shape).astype(dtype)
    assert_bitwise(_leaky_grad(out, g), putmask_leaky_grad(out, g))


@pytest.mark.parametrize("x_shape, b_shape", [
    ((2, 4, 4, 3), (4,)),       # bias length is not C
    ((4, 4, 3), (1, 1, 3)),     # bias is not a vector
    ((4, 3), (3,)),             # no spatial axes
])
def test_bias_act_shape_errors(x_shape, b_shape):
    with pytest.raises(DimensionError):
        bias_act(np.ones(x_shape), np.ones(b_shape), leaky=True)


@pytest.mark.parametrize("f_shape, alpha_shape", [
    ((2, 4, 4, 3), (2, 4)),     # gate length is not C
    ((2, 4, 4, 3), (3,)),       # gate misses the batch axis
    ((4, 4, 3), (2, 3)),        # gate has a batch axis the map lacks
    ((4, 3), (3,)),             # no spatial axes
])
def test_channel_scale_shape_errors(f_shape, alpha_shape):
    with pytest.raises(DimensionError):
        channel_scale(np.ones(f_shape), np.ones(alpha_shape))


def test_sigmoid_relu_points():
    assert Tensor(0.0).sigmoid().data == 0.5
    assert Tensor(-1.0).leaky_relu().data == -0.01
    # the bytes of the expression that evaluates exp three times
    x = np.concatenate([[800.0, -800.0, 0.0, -0.0],
                        np.random.default_rng(42).standard_normal(64)])
    want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert Tensor(x).sigmoid().data.tobytes() == want.tobytes()


def test_non_broadcastable_shapes():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((3, 4))) + Tensor(np.zeros((2, 4)))


# ----------------------------------------------------------------------
# backward

def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(8).standard_normal((3, 4)), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic_calculus_oracle():
    x = Tensor(np.random.default_rng(9).standard_normal(6), requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, 2 * x.data, atol=1e-12)


def test_backward_detached_gets_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    d = x.detach()
    (d * d).sum().backward()
    assert x.grad is None and d.grad is None


def test_backward_requires_scalar():
    with pytest.raises(UsageError):
        Tensor(np.ones(3), requires_grad=True).backward()


def test_grad_accumulates_through_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    (x * x + x).sum().backward()
    assert np.allclose(x.grad, [5.0])


def test_backward_releases_tape_without_gc():
    # with the cyclic collector off, the graph must free by refcount alone
    # once the caller drops the loss
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((2, 5, 5, 3)), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        hidden = conv2d(x, k).leaky_relu()
        ref = weakref.ref(hidden)
        loss = (hidden * hidden).mean()
        loss.backward()
        del hidden, loss
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert x.grad is not None and k.grad is not None


# ops that write over their first input, which must be a fresh result
IN_PLACE = ("bias_act", "bias_act_linear", "bias_act_residual")


def _case_inputs(name, arrays, requires):
    """(leaves, inputs): leaf Tensors over `arrays`, requiring grad where
    `requires` says, and the op's inputs. Those are the leaves, except
    that an op that writes over its first input gets it as the fresh
    result t * 1.0 (exact), so the case's arrays stay as they are. The
    sweep releases an intermediate's gradient, so read the leaves'."""
    leaves = [Tensor(x, requires_grad=r) for x, r in zip(arrays, requires)]
    inputs = list(leaves)
    if name in IN_PLACE:
        inputs[0] = inputs[0] * 1.0
    return leaves, inputs


def _node_cases():
    """(name, op, input arrays, tape parent order) for every op that builds
    its result through the tape's node constructor."""
    rng = np.random.default_rng(14)

    def a(*shape):
        return rng.random(shape) + 0.5  # positive, for sqrt and division

    return [
        ("add", lambda x, y: x + y, [a(2, 3), a(2, 3)], None),
        ("mul", lambda x, y: x * y, [a(2, 3), a(1, 3)], None),
        ("div", lambda x, y: x / y, [a(2, 3), a(2, 1)], None),
        ("leaky_relu", lambda x: x.leaky_relu(), [a(2, 3) - 1.0], None),
        ("sigmoid", lambda x: x.sigmoid(), [a(2, 3)], None),
        ("sqrt", lambda x: x.sqrt(), [a(2, 3)], None),
        ("abs", lambda x: x.abs(), [a(2, 3) - 1.0], None),
        ("sum", lambda x: x.sum(axis=0), [a(2, 3)], None),
        ("reshape", lambda x: x.reshape(3, 2), [a(2, 3)], None),
        ("transpose", lambda x: x.transpose(), [a(2, 3)], None),
        ("diagonal", lambda x: x.diagonal(), [a(3, 3)], None),
        ("matmul", lambda x, y: x @ y, [a(2, 3), a(3, 2)], None),
        ("centered_gram", lambda x: centered_gram(x), [a(2, 4, 3)], None),
        ("softmax", lambda x: softmax(x), [a(4)], None),
        ("concat", lambda x, y: concat([x, y], axis=0), [a(2, 3), a(1, 3)], None),
        ("stack", lambda x, y: stack([x, y], axis=0), [a(2, 3), a(2, 3)], None),
        ("conv2d", lambda x, k: conv2d(x, k), [a(4, 4, 2), a(3, 2, 3, 3)], None),
        ("bias_act", lambda x, b: bias_act(x, b, leaky=True), [a(2, 2, 3) - 1.0, a(3)], None),
        ("bias_act_linear", lambda x, b: bias_act(x, b), [a(2, 2, 3), a(3)], None),
        ("bias_act_residual", lambda x, b, f: bias_act(x, b, residual=f),
         [a(2, 2, 3), a(3), a(2, 2, 3)], None),
        ("channel_scale", lambda f, w: channel_scale(f, w), [a(2, 2, 2, 3), a(2, 3)],
         None),
        ("upsample_bilinear", lambda x: upsample_bilinear(x, 2), [a(2, 2, 3)], None),
        ("weighted_sum", lambda x, y: weighted_sum([x, y]), [a(2, 2, 3), a(2, 2, 3)],
         None),
        # the tape reaches w right after the first map
        ("weighted_sum_w", lambda x, y, w: weighted_sum([x, y], w),
         [a(2, 2, 3), a(2, 2, 3), a(2)], (0, 2, 1)),
    ]


def test_results_outside_the_tape_keep_no_parents():
    for name, op, arrays, order in _node_cases():
        # constant inputs: the result is off the tape
        out = op(*_case_inputs(name, arrays, [False] * len(arrays))[1])
        assert not out.requires_grad, name
        assert out._parents == () and out._backward_fn is None, name
        # one grad-requiring input puts it on the tape over all its inputs
        for i in range(len(arrays)):
            leaves, inputs = _case_inputs(name, arrays, [j == i for j in range(len(arrays))])
            out = op(*inputs)
            expected = tuple(inputs[j] for j in order or range(len(inputs)))
            assert out.requires_grad, (name, i)
            assert len(out._parents) == len(expected), (name, i)
            assert all(p is q for p, q in zip(out._parents, expected)), (name, i)
            assert callable(out._backward_fn), (name, i)
            out.sum().backward()
            for j, t in enumerate(leaves):
                assert (t.grad is not None) == (j == i), (name, i, j)

    # with no gradient to carry, an intermediate must free as soon as its
    # consumer is built rather than live as long as the consumer does
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((2, 5, 5, 3)))
    k = Tensor(rng.standard_normal((4, 3, 3, 3)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        hidden = conv2d(x, k).leaky_relu()
        ref = weakref.ref(hidden)
        out = (hidden * hidden).mean()
        del hidden
        assert ref() is None
        assert out._parents == ()
    finally:
        if enabled:
            gc.enable()


def recorded_accumulates(monkeypatch):
    """Record (tensor shape, gradient shape) for every `_accumulate` call
    from here on. A first write keeps the gradient as it is given, so
    every op must sum it down to its parent's shape beforehand."""
    calls = []
    accumulate = Tensor._accumulate

    def recorded(self, g, owned=False):
        calls.append((self.shape, np.shape(g)))
        accumulate(self, g, owned)

    monkeypatch.setattr(Tensor, "_accumulate", recorded)
    return calls


def test_every_accumulate_gets_its_tensors_shape(monkeypatch):
    calls = recorded_accumulates(monkeypatch)
    for name, op, arrays, _ in _node_cases():
        leaves, inputs = _case_inputs(name, arrays, [True] * len(arrays))
        out = op(*inputs)
        (out * Tensor(np.ones(out.shape))).sum().backward()
        assert calls and all(t == g for t, g in calls), (name, calls)
        calls.clear()

    rng = np.random.default_rng(16)
    for generator in ("cacw", "pool", "attention", "pca"):
        model = PansharpenModel(ModelConfig(bands=2, channels=4, blocks=2,
                                            variant="adwm", generator=generator))
        for p in model.params():
            p.data[...] = 0.1 * rng.standard_normal(p.shape)
            p.requires_grad = True
        lrms = Tensor(rng.random((3, 2, 2, 2)), requires_grad=True)
        model.forward(rng.random((3, 8, 8)), lrms).abs().mean().backward()
        assert all(t == g for t, g in calls), (generator, calls)
        assert len(calls) > len(model.params()), generator
        calls.clear()


# ----------------------------------------------------------------------
# gradcheck over every op

def test_gradcheck_sum_tight():
    x = Tensor(np.random.default_rng(10).standard_normal((3, 3)))
    assert gradcheck(lambda t: t.sum(), x) < 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_all_ops(seed):
    rng = np.random.default_rng(seed)
    fixed_k = Tensor(rng.standard_normal((2, 2, 3, 3)))

    cases = [
        (lambda a, b: (a + b).sum(), [(3, 4), (3, 4)]),
        (lambda a, b: (a * b).sum(), [(3, 4), (4,)]),
        (lambda a, b: (a - b * 2.0).sum(), [(2, 3), (2, 3)]),
        (lambda a, b: (a / (b * b + 1.0)).sum(), [(3,), (3,)]),
        (lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)]),
        (lambda a: a.leaky_relu().sum(), [(4, 4)]),
        (lambda a: a.sigmoid().sum(), [(3, 3)]),
        (lambda a: (a * a + 0.5).sqrt().sum(), [(3, 3)]),
        (lambda a: a.abs().sum(), [(3, 3)]),
        (lambda a: a.mean(axis=1).sum(), [(3, 5)]),
        (lambda a: a.reshape(6).sum(), [(2, 3)]),
        (lambda a: (a.transpose(1, 0) @ a).sum(), [(3, 2)]),
        (lambda a: a.diagonal().sum(), [(4, 4)]),
        (lambda a: (softmax(a) * softmax(a)).sum(), [(5,)]),
        (lambda a: spatial_mean(a).sum(), [(2, 3, 3)]),
        (lambda a: conv2d(a, fixed_k).sum(), [(4, 4, 2)]),
        (lambda a, b: conv2d(b, a).sum(), [(2, 3, 3, 3), (4, 4, 3)]),
        (lambda a, b: concat([a, b], axis=0).sum(), [(2, 3), (1, 3)]),
        (lambda a, b: (bias_act(a * 1.0, b, leaky=True) * a).sum(), [(2, 3, 3, 2), (2,)]),
        (lambda a, b: (bias_act(a * 1.0, b) * a).sum(), [(3, 3, 2), (2,)]),
        (lambda a, b: (channel_scale(a, b) * a).sum(), [(2, 3, 3, 2), (2, 2)]),
        (lambda a, b: (stack([a, b], axis=0) * stack([b, a], axis=0)).sum(), [(2, 3), (2, 3)]),
        (lambda a, b, c: (bias_act(a * 1.0, b, residual=c) * c).sum(),
         [(2, 3, 3, 2), (2,), (2, 3, 3, 2)]),
    ]
    for fn, shapes in cases:
        # keep values away from leaky_relu/abs kinks and off softmax ties
        xs = [Tensor(rng.standard_normal(s) + 0.1 * np.sign(rng.standard_normal(s)))
              for s in shapes]
        err = gradcheck(fn, xs if len(xs) > 1 else xs[0])
        assert err < 1e-4, f"gradcheck failed for case {fn}: {err}"


def test_gradcheck_rejects_nonscalar():
    with pytest.raises(UsageError):
        gradcheck(lambda t: t * 2.0, Tensor(np.ones(3)))


# ----------------------------------------------------------------------
# determinism

def test_seeded_graph_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((8, 8, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((4, 4, 3, 3)), requires_grad=True)
        out = (conv2d(x, k).sigmoid() * 3.0).sum()
        out.backward()
        return out.data.copy(), x.grad.copy(), k.grad.copy()

    a, b = run(), run()
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


# ----------------------------------------------------------------------
# compute dtype

@pytest.mark.parametrize("case", [c[0] for c in _node_cases()])
def test_every_op_keeps_its_inputs_dtype(case):
    # float32 inputs give a float32 result and float32 gradients, within
    # float32 rounding of the float64 ones
    name, op, arrays, _ = next(c for c in _node_cases() if c[0] == case)

    def run(dtype):
        leaves, inputs = _case_inputs(name, [x.astype(dtype) for x in arrays],
                                      [True] * len(arrays))
        out = op(*inputs)
        weight = np.random.default_rng(41).standard_normal(out.shape).astype(dtype)
        (out * Tensor(weight)).sum().backward()
        return out, leaves

    out64, leaves64 = run(np.float64)
    out32, leaves32 = run(np.float32)
    assert out64.dtype == np.float64 and out32.dtype == np.float32, name
    np.testing.assert_allclose(out32.data, out64.data, rtol=1e-5, atol=1e-6)
    for t64, t32 in zip(leaves64, leaves32):
        assert t64.grad.dtype == np.float64 and t32.grad.dtype == np.float32, name
        np.testing.assert_allclose(t32.grad, t64.grad, rtol=1e-5, atol=1e-6)


def recorded_node_dtypes(monkeypatch):
    """Record the dtype of every result built through `tensor._node`, in
    `tensor` and in every adwm module that imports it, from here on."""
    dtypes = []
    node = tensor._node

    def recorded(data, parents, backward):
        out = node(data, parents, backward)
        dtypes.append(out.dtype)
        return out

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "adwm" and getattr(module, "_node", None) is node:
            monkeypatch.setattr(module, "_node", recorded)
    return dtypes


@pytest.mark.parametrize("variant", ["baseline", "ifw", "cfw", "adwm"])
@pytest.mark.parametrize("generator", ["cacw", "pool", "attention", "pca"])
def test_a_forward_computes_in_float32_unless_an_input_requires_grad(variant, generator,
                                                                      monkeypatch):
    # no scalar or constant array may upcast a float32 op, under NEP 50's
    # promotion (numpy 2) and under value-based casting (numpy 1.24) alike;
    # a forward that records a tape for the parameters is float32 too
    dtypes = recorded_node_dtypes(monkeypatch)
    rng = np.random.default_rng(18)
    model = PansharpenModel(ModelConfig(bands=2, channels=4, blocks=2,
                                        variant=variant, generator=generator))
    for p in model.params():
        p.data[...] = 0.1 * rng.standard_normal(p.shape)
    pan, lrms = rng.random((3, 8, 8)), rng.random((3, 2, 2, 2))
    model.forward(pan, lrms, return_weights=True)
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    dtypes.clear()
    for p in model.params():
        p.requires_grad = True
    model.forward(pan, lrms).abs().mean().backward()
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    dtypes.clear()
    model.forward(pan, Tensor(lrms, requires_grad=True)).abs().mean().backward()
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


# ----------------------------------------------------------------------
# NaN-poisoned buffers

@pytest.mark.parametrize("case", [c[0] for c in _node_cases()])
def test_every_op_gives_the_same_bytes_in_a_poisoned_workspace(case, poisoned_empty):
    name, op, arrays, _ = next(c for c in _node_cases() if c[0] == case)

    def run():
        leaves, inputs = _case_inputs(name, [x.copy() for x in arrays],
                                      [True] * len(arrays))
        out = op(*inputs)
        weight = np.random.default_rng(41).standard_normal(out.shape)
        (out * Tensor(weight)).sum().backward()
        return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]

    want = run()
    poisoned_empty()
    assert run() == want, name
