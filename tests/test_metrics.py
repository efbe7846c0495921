import numpy as np
import pytest

from adwm.errors import ConfigurationError, DimensionError, UsageError
from adwm.metrics import (
    _EPS,
    SAM_BLOCK,
    _band_pair_q,
    _band_pan_q,
    _cd_conj,
    _cd_mul,
    _cd_table,
    _check_same_shape,
    _clamped_window,
    _next_pow2,
    _q_map,
    _row_norms,
    d_lambda,
    d_s,
    ergas,
    evaluate_noreference,
    evaluate_reference,
    hqnr,
    psnr,
    q2n,
    q_index,
    sam,
    write_report_csv,
)


# ----------------------------------------------------------------------
# psnr


def test_psnr_perfect_is_cap():
    x = np.random.default_rng(0).random((8, 8, 3))
    assert psnr(x, x) == 100.0


def test_psnr_uniform_error_closed_form():
    gt = np.full((10, 10), 0.5)
    assert abs(psnr(gt, gt + 0.1) - 20.0) < 1e-9


def test_psnr_monotone_in_noise():
    rng = np.random.default_rng(1)
    gt = rng.random((16, 16))
    noise = rng.standard_normal((16, 16))
    vals = [psnr(gt, gt + s * noise) for s in (0.01, 0.05, 0.2)]
    assert vals[0] > vals[1] > vals[2]


def test_psnr_tiny_error_still_capped():
    gt = np.zeros((4, 4))
    assert psnr(gt, gt + 1e-30) == 100.0


def test_psnr_shape_mismatch():
    with pytest.raises(DimensionError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


# ----------------------------------------------------------------------
# sam


def test_sam_perfect_is_zero():
    x = np.random.default_rng(2).random((8, 8, 4)) + 0.1
    assert abs(sam(x, x)) < 1e-12


def test_sam_scale_invariant():
    x = np.random.default_rng(3).random((8, 8, 4)) + 0.1
    assert abs(sam(x, 2.0 * x)) < 1e-12
    assert abs(sam(x, 0.37 * x)) < 1e-9


def test_sam_orthogonal_is_90():
    gt = np.zeros((4, 4, 2))
    pred = np.zeros((4, 4, 2))
    gt[:, :, 0] = 1.0
    pred[:, :, 1] = 1.0
    assert abs(sam(gt, pred) - 90.0) < 1e-9


def test_sam_skips_zero_norm_pixels():
    gt = np.ones((2, 2, 2))
    pred = np.ones((2, 2, 2))
    gt[0, 0] = 0.0         # undefined angle at this pixel
    pred[1, 1, 0] = 0.0
    pred[1, 1, 1] = 1.0    # 45 degrees at this pixel
    expected = np.degrees(np.arccos(1 / np.sqrt(2)))
    # three defined pixels: 0, 0, 45
    assert abs(sam(gt, pred) - expected / 3) < 1e-9


def test_sam_needs_multiband():
    with pytest.raises(DimensionError):
        sam(np.zeros((4, 4, 1)), np.zeros((4, 4, 1)))


# ----------------------------------------------------------------------
# ergas


def test_ergas_perfect_is_zero():
    x = np.random.default_rng(4).random((8, 8, 4)) + 0.1
    assert ergas(x, x) == 0.0


def test_ergas_one_band_shift_closed_form():
    rng = np.random.default_rng(5)
    for c in (2, 4):
        gt = rng.random((16, 16, c)) + 0.2
        pred = gt.copy()
        pred[:, :, 1] += gt[:, :, 1].mean()
        assert abs(ergas(gt, pred) - 100.0 / 4 * np.sqrt(1.0 / c)) < 1e-9


def test_ergas_homogeneous_in_error():
    rng = np.random.default_rng(6)
    gt = rng.random((8, 8, 3)) + 0.2
    delta = rng.standard_normal((8, 8, 3)) * 0.01
    assert abs(ergas(gt, gt + 2 * delta) - 2 * ergas(gt, gt + delta)) < 1e-9


# ----------------------------------------------------------------------
# q_index


def test_q_identical_is_one():
    a = np.random.default_rng(8).random((16, 16))
    assert q_index(a, a, window=8) == 1.0


def test_q_anticorrelated_zero_mean_is_minus_one():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((16, 16))
    a -= a.mean()
    # zero-mean per window too: subtract each window's mean
    for i in range(0, 16, 8):
        for j in range(0, 16, 8):
            a[i:i + 8, j:j + 8] -= a[i:i + 8, j:j + 8].mean()
    assert q_index(a, -a, window=8) == -1.0


def test_q_symmetric():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = rng.random((16, 16))
        b = rng.random((16, 16))
        assert abs(q_index(a, b, window=8) - q_index(b, a, window=8)) < 1e-12


def test_q_range():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        assert -1 - 1e-12 <= q_index(a, b, window=8) <= 1 + 1e-12


def test_q_constant_window_flagged():
    a = np.full((8, 8), 0.4)
    b = np.full((8, 8), 0.6)
    q, flags = q_index(a, b, window=8, with_flags=True)
    assert flags["degenerate_windows"] == 1
    # variance factor falls back to 1; the mean factor still penalizes
    expected = 2 * 0.4 * 0.6 / (0.4**2 + 0.6**2)
    assert abs(q - expected) < 1e-12


def test_q_window_larger_than_image():
    with pytest.raises(DimensionError):
        q_index(np.zeros((8, 8)), np.zeros((8, 8)), window=16)


def test_q_requires_single_band():
    with pytest.raises(DimensionError):
        q_index(np.zeros((8, 8, 2)), np.zeros((8, 8, 2)))


# ----------------------------------------------------------------------
# hypercomplex arithmetic


def test_cd_mul_matches_complex():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        zx = complex(x[0], x[1])
        zy = complex(y[0], y[1])
        got = _cd_mul(x, y)
        want = zx * zy
        assert abs(got[0] - want.real) < 1e-12
        assert abs(got[1] - want.imag) < 1e-12


def test_cd_quaternion_table():
    def unit(i):
        v = np.zeros(4)
        v[i] = 1.0
        return v

    i, j, k = unit(1), unit(2), unit(3)
    np.testing.assert_allclose(_cd_mul(i, j), k, atol=1e-15)
    np.testing.assert_allclose(_cd_mul(j, i), -k, atol=1e-15)
    np.testing.assert_allclose(_cd_mul(j, k), i, atol=1e-15)
    np.testing.assert_allclose(_cd_mul(i, i), -unit(0), atol=1e-15)


def test_cd_norm_multiplicative():
    # composition algebra property, holds through the octonions
    rng = np.random.default_rng(13)
    for c in (2, 4, 8):
        for _ in range(10):
            x = rng.standard_normal(c)
            y = rng.standard_normal(c)
            lhs = np.linalg.norm(_cd_mul(x, y))
            rhs = np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(lhs - rhs) < 1e-10


def test_cd_conj():
    z = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(_cd_conj(z), [1.0, -2.0, -3.0, -4.0])
    # z * conj(z) is the squared norm, purely real
    prod = _cd_mul(z, _cd_conj(z))
    assert abs(prod[0] - 30.0) < 1e-12
    np.testing.assert_allclose(prod[1:], 0.0, atol=1e-15)


# ----------------------------------------------------------------------
# q2n


@pytest.mark.parametrize("c", [2, 4, 8])
def test_q2n_perfect_is_one(c):
    x = np.random.default_rng(14).random((16, 16, c))
    assert abs(q2n(x, x, window=8) - 1.0) < 1e-9


def test_q2n_automorphism_permutations_invariant():
    # cycling the imaginary components is an algebra automorphism, so the
    # index cannot move; arbitrary band orderings are NOT symmetries of
    # the hypercomplex structure and shift the value at the 1e-4 level
    rng = np.random.default_rng(15)
    gt = rng.random((16, 16, 4))
    pred = gt + 0.05 * rng.standard_normal((16, 16, 4))
    base = q2n(gt, pred, window=8)
    for perm in [(0, 2, 3, 1), (0, 3, 1, 2)]:
        v = q2n(gt[:, :, perm], pred[:, :, perm], window=8)
        assert abs(v - base) < 1e-9


def test_q2n_zeroed_band_strictly_below_one():
    rng = np.random.default_rng(16)
    gt = rng.random((16, 16, 4)) + 0.1
    pred = gt.copy()
    pred[:, :, 2] = 0.0
    assert q2n(gt, pred, window=8) < 1.0 - 1e-6


def test_q2n_pad_flag_and_equivalence():
    rng = np.random.default_rng(17)
    gt3 = rng.random((16, 16, 3))
    pred3 = gt3 + 0.02 * rng.standard_normal((16, 16, 3))
    v3, flags = q2n(gt3, pred3, window=8, with_flags=True)
    assert flags["padded"] is True
    pad = [(0, 0), (0, 0), (0, 1)]
    v4, flags4 = q2n(np.pad(gt3, pad), np.pad(pred3, pad), window=8, with_flags=True)
    assert flags4["padded"] is False
    assert abs(v3 - v4) < 1e-15


def test_q2n_single_band_directs_to_q_index():
    with pytest.raises(UsageError, match="q_index"):
        q2n(np.zeros((8, 8, 1)), np.zeros((8, 8, 1)), window=8)


def test_q2n_sensitive_to_noise():
    rng = np.random.default_rng(18)
    gt = rng.random((16, 16, 4))
    noisy = gt + 0.3 * rng.standard_normal((16, 16, 4))
    assert q2n(gt, noisy, window=8) < q2n(gt, gt + 0.01, window=8)


# ----------------------------------------------------------------------
# no-reference metrics


def test_d_lambda_self_consistent_is_zero():
    x = np.random.default_rng(19).random((16, 16, 4))
    assert d_lambda(x, x, window=8) == 0.0


def test_d_lambda_positive_under_spectral_distortion():
    rng = np.random.default_rng(20)
    lrms = rng.random((16, 16, 4))
    fused = lrms.copy()
    fused[:, :, 0] = rng.random((16, 16))  # decorrelate one band
    assert d_lambda(fused, lrms, window=8) > 1e-3


def test_d_lambda_band_checks():
    with pytest.raises(DimensionError):
        d_lambda(np.zeros((8, 8, 2)), np.zeros((8, 8, 3)))
    with pytest.raises(DimensionError):
        d_lambda(np.zeros((8, 8, 1)), np.zeros((8, 8, 1)))


def test_d_s_self_consistent_is_zero():
    rng = np.random.default_rng(21)
    stack = rng.random((16, 16, 4))
    pan = rng.random((16, 16))
    assert d_s(stack, stack, pan, pan, window=8) == 0.0


def test_d_s_shape_checks():
    rng = np.random.default_rng(22)
    fused = rng.random((16, 16, 4))
    lrms = rng.random((4, 4, 4))
    with pytest.raises(DimensionError):
        d_s(fused, lrms, rng.random((16, 15)), rng.random((4, 4)))
    with pytest.raises(DimensionError):
        d_s(fused, lrms, rng.random((16, 16)), rng.random((4, 5)))


def test_d_s_resolution_mismatch_supported():
    # fused at full resolution, lrms at quarter: windows clamp per image
    rng = np.random.default_rng(23)
    fused = rng.random((32, 32, 4))
    lrms = rng.random((8, 8, 4))
    pan = rng.random((32, 32))
    pan_deg = rng.random((8, 8))
    v = d_s(fused, lrms, pan, pan_deg, window=32)
    assert 0.0 <= v <= 2.0


def test_hqnr_fixed_points():
    assert hqnr(0.0, 0.0) == 1.0
    assert hqnr(1.0, 0.3) == 0.0
    assert hqnr(0.7, 1.0) == 0.0
    assert abs(hqnr(0.2, 0.5) - 0.4) < 1e-12
    assert hqnr(1.5, 0.2) == 0.0  # clamped, never negative
    # the clamp keeps a NaN term, as the min and max builtins would not
    assert np.isnan(hqnr(np.nan, 0.0)) and np.isnan(hqnr(1.5, np.nan))


# ----------------------------------------------------------------------
# loop oracles: the per-window implementations the batched Q family
# replaced, and the gathering SAM, kept verbatim as references


def _tile_windows(img, window):
    """Non-overlapping window views, trailing partial tiles dropped."""
    H, W = img.shape[0], img.shape[1]
    if H < window or W < window:
        raise DimensionError(
            f"image {H}x{W} is smaller than the {window}-pixel window"
        )
    out = []
    for i in range(0, H - window + 1, window):
        for j in range(0, W - window + 1, window):
            out.append(img[i:i + window, j:j + window])
    return out


def loop_q_index(a, b, window=32, with_flags=False):
    """Single-band universal quality index, mean over non-overlapping
    windows.

    Each window contributes corr * luminance, where either factor falls
    back to 1 when its denominator vanishes (identical constants differ
    in nothing). The ideal value 1 and the anticorrelated value -1 are
    reached exactly, not just within an epsilon.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_same_shape(a, b, "q_index")
    if a.ndim != 2:
        raise DimensionError(f"q_index works on single bands, got {a.shape}")
    vals = []
    degenerate = 0
    for wa, wb in zip(_tile_windows(a, window), _tile_windows(b, window)):
        ma, mb = wa.mean(), wb.mean()
        da, db = wa - ma, wb - mb
        va, vb = np.mean(da * da), np.mean(db * db)
        cov = np.mean(da * db)
        d1 = va + vb
        d2 = ma * ma + mb * mb
        if d1 <= _EPS or d2 <= _EPS:
            degenerate += 1
        corr = 1.0 if d1 <= _EPS else 2.0 * cov / d1
        lum = 1.0 if d2 <= _EPS else 2.0 * ma * mb / d2
        vals.append(corr * lum)
    q = float(np.mean(vals))
    if with_flags:
        return q, {"degenerate_windows": degenerate}
    return q


def loop_q2n(gt, pred, window=32, with_flags=False):
    """Hypercomplex quality index: bands become components of one
    2^n-ary number per pixel, correlated per window in magnitude form.

    Band counts that are not a power of two are zero-padded up (flagged);
    a single band has no hypercomplex structure, use q_index for that.
    """
    gt = np.asarray(gt, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    _check_same_shape(gt, pred, "q2n")
    if gt.ndim != 3:
        raise DimensionError(f"q2n needs (H, W, c), got {gt.shape}")
    c = gt.shape[2]
    if c == 1:
        raise UsageError("q2n is undefined for a single band; use q_index")
    cp = _next_pow2(c)
    padded = cp != c
    if padded:
        pad = [(0, 0), (0, 0), (0, cp - c)]
        gt = np.pad(gt, pad)
        pred = np.pad(pred, pad)

    vals = []
    degenerate = 0
    for wg, wp in zip(_tile_windows(gt, window), _tile_windows(pred, window)):
        z1 = wg.reshape(-1, cp)
        z2 = wp.reshape(-1, cp)
        mu1 = z1.mean(axis=0)
        mu2 = z2.mean(axis=0)
        cov12 = _cd_mul(z1, _cd_conj(z2)).mean(axis=0) - _cd_mul(mu1, _cd_conj(mu2))
        var1 = _cd_mul(z1, _cd_conj(z1)).mean(axis=0)[0] - _cd_mul(mu1, _cd_conj(mu1))[0]
        var2 = _cd_mul(z2, _cd_conj(z2)).mean(axis=0)[0] - _cd_mul(mu2, _cd_conj(mu2))[0]
        m1 = np.linalg.norm(mu1)
        m2 = np.linalg.norm(mu2)
        d1 = var1 + var2
        d2 = m1 * m1 + m2 * m2
        if d1 <= _EPS or d2 <= _EPS:
            degenerate += 1
        corr = 1.0 if d1 <= _EPS else 2.0 * np.linalg.norm(cov12) / d1
        lum = 1.0 if d2 <= _EPS else 2.0 * m1 * m2 / d2
        vals.append(corr * lum)
    q = float(np.mean(vals))
    if with_flags:
        return q, {"padded": padded, "degenerate_windows": degenerate}
    return q


def loop_d_lambda(fused, lrms, window=32):
    """Spectral distortion: how much the inter-band Q structure of the
    fused image deviates from the low-resolution original."""
    fused = np.asarray(fused, dtype=np.float64)
    lrms = np.asarray(lrms, dtype=np.float64)
    if fused.ndim != 3 or lrms.ndim != 3:
        raise DimensionError("d_lambda needs (H, W, c) inputs")
    c = fused.shape[2]
    if c != lrms.shape[2]:
        raise DimensionError(
            f"band mismatch: fused has {c}, low-res has {lrms.shape[2]}"
        )
    if c < 2:
        raise DimensionError("d_lambda needs at least 2 bands")
    wf = _clamped_window(fused, window)
    wl = _clamped_window(lrms, window)
    diffs = []
    for i in range(c):
        for j in range(i + 1, c):
            qf = loop_q_index(fused[:, :, i], fused[:, :, j], window=wf)
            ql = loop_q_index(lrms[:, :, i], lrms[:, :, j], window=wl)
            diffs.append(abs(qf - ql))
    return float(np.mean(diffs))


def loop_d_s(fused, lrms, pan, pan_degraded, window=32):
    """Spatial distortion: per-band Q against the panchromatic image at
    both resolutions (pan_degraded must live on the low-res grid)."""
    fused = np.asarray(fused, dtype=np.float64)
    lrms = np.asarray(lrms, dtype=np.float64)
    pan = np.asarray(pan, dtype=np.float64)
    pan_degraded = np.asarray(pan_degraded, dtype=np.float64)
    if fused.ndim != 3 or lrms.ndim != 3:
        raise DimensionError("d_s needs (H, W, c) image stacks")
    if pan.shape != fused.shape[:2]:
        raise DimensionError(
            f"pan {pan.shape} does not match fused grid {fused.shape[:2]}"
        )
    if pan_degraded.shape != lrms.shape[:2]:
        raise DimensionError(
            f"degraded pan {pan_degraded.shape} does not match low-res "
            f"grid {lrms.shape[:2]}"
        )
    if fused.shape[2] != lrms.shape[2]:
        raise DimensionError("fused and low-res band counts differ")
    wf = _clamped_window(fused, window)
    wl = _clamped_window(lrms, window)
    diffs = []
    for i in range(fused.shape[2]):
        qf = loop_q_index(fused[:, :, i], pan, window=wf)
        ql = loop_q_index(lrms[:, :, i], pan_degraded, window=wl)
        diffs.append(abs(qf - ql))
    return float(np.mean(diffs))


def gather_sam(gt, pred):
    """Mean spectral angle in degrees; pixels with a zero-norm spectrum
    in either image are skipped.

    The angle is evaluated as 2*atan2(|u-v|, |u+v|) on unit vectors,
    which equals arccos of the normalized inner product but stays exact
    at 0 and 180 degrees where arccos loses half the significand.
    """
    gt = np.asarray(gt, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    _check_same_shape(gt, pred, "sam")
    if gt.ndim != 3 or gt.shape[2] < 2:
        raise DimensionError(f"sam needs (H, W, c) with c >= 2, got {gt.shape}")
    g = gt.reshape(-1, gt.shape[2])
    p = pred.reshape(-1, gt.shape[2])
    gn = np.linalg.norm(g, axis=1)
    pn = np.linalg.norm(p, axis=1)
    keep = (gn > 0) & (pn > 0)
    if not np.any(keep):
        return 0.0
    u = g[keep] / gn[keep, None]
    v = p[keep] / pn[keep, None]
    ang = 2.0 * np.arctan2(
        np.linalg.norm(u - v, axis=1), np.linalg.norm(u + v, axis=1)
    )
    return float(np.degrees(ang).mean())


def _assert_matches_oracle(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _random_pair(rng, shape, noise=0.1):
    gt = rng.random(shape) + 0.05
    return gt, gt + noise * rng.standard_normal(shape)


def _with_flat_windows(img, window):
    """Make the first window constant and the second one all zero, so both
    fallback factors of Q fire."""
    img = img.copy()
    img[:window, :window] = 0.37
    img[:window, window:2 * window] = 0.0
    return img


@pytest.mark.parametrize("shape,window", [((45, 70), 16), ((100, 67), 32),
                                          ((33, 40), 8), ((16, 40), 16)])
def test_q_index_matches_loop_oracle(shape, window):
    rng = np.random.default_rng(40)
    a, b = _random_pair(rng, shape)
    for pair in ((a, b), (_with_flat_windows(a, window),
                          _with_flat_windows(b, window))):
        got, got_flags = q_index(*pair, window=window, with_flags=True)
        want, want_flags = loop_q_index(*pair, window=window, with_flags=True)
        _assert_matches_oracle(got, want)
        assert got_flags == want_flags
        assert q_index(*pair, window=window) == got
    assert want_flags["degenerate_windows"] == 2


@pytest.mark.parametrize("c", [2, 3, 5, 6, 8])
@pytest.mark.parametrize("shape,window", [((45, 70), 16), ((40, 72), 32)])
def test_q2n_matches_loop_oracle(c, shape, window):
    rng = np.random.default_rng([41, c])
    gt, pred = _random_pair(rng, shape + (c,))
    for pair in ((gt, pred), (_with_flat_windows(gt, window),
                              _with_flat_windows(pred, window))):
        got, got_flags = q2n(*pair, window=window, with_flags=True)
        want, want_flags = loop_q2n(*pair, window=window, with_flags=True)
        _assert_matches_oracle(got, want)
        assert got_flags == want_flags
    assert want_flags == {"padded": c not in (2, 8), "degenerate_windows": 2}


@pytest.mark.parametrize("c", [2, 3, 5, 6, 8])
@pytest.mark.parametrize("full,low,window", [(70, 18, 16), (96, 24, 32),
                                             (64, 16, 32), (45, 11, 8)])
def test_noreference_matches_loop_oracle(c, full, low, window):
    # low-res grids smaller than the window clamp it; odd sizes drop tiles
    rng = np.random.default_rng([42, c, full])
    fused = rng.random((full, full + 3, c))
    lrms = rng.random((low, low + 1, c))
    pan = fused.mean(axis=2) + 0.1 * rng.standard_normal(fused.shape[:2])
    pan_low = lrms.mean(axis=2) + 0.1 * rng.standard_normal(lrms.shape[:2])
    _assert_matches_oracle(d_lambda(fused, lrms, window=window),
                           loop_d_lambda(fused, lrms, window=window))
    _assert_matches_oracle(d_s(fused, lrms, pan, pan_low, window=window),
                           loop_d_s(fused, lrms, pan, pan_low, window=window))
    flat = _with_flat_windows(fused, _clamped_window(fused, window))
    _assert_matches_oracle(d_lambda(flat, lrms, window=window),
                           loop_d_lambda(flat, lrms, window=window))
    _assert_matches_oracle(d_s(flat, lrms, pan, pan_low, window=window),
                           loop_d_s(flat, lrms, pan, pan_low, window=window))


@pytest.mark.parametrize("c", [2, 3, 8])
@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (64, 48)])
def test_sam_matches_gather_oracle(c, shape):
    rng = np.random.default_rng([44, c, shape[0]])
    gt, pred = _random_pair(rng, shape + (c,), noise=0.3)
    _assert_matches_oracle(sam(gt, pred), gather_sam(gt, pred))
    # zero-norm spectra in either or both images, orthogonal and opposite
    # pixels, and sign-mixed spectra
    gt = rng.standard_normal(shape + (c,))
    pred = rng.standard_normal(shape + (c,))
    gt.reshape(-1, c)[::3] = 0.0
    pred.reshape(-1, c)[1::4] = 0.0
    ortho = pred.reshape(-1, c)[2::5]
    ortho[:] = 0.0
    ortho[:, 0] = gt.reshape(-1, c)[2::5, 1]
    ortho[:, 1] = -gt.reshape(-1, c)[2::5, 0]
    gt.reshape(-1, c)[2::5, 2:] = 0.0
    opposite = pred.reshape(-1, c)[4::7]
    opposite[:] = -2.0 * gt.reshape(-1, c)[4::7]
    _assert_matches_oracle(sam(gt, pred), gather_sam(gt, pred))
    assert sam(np.zeros_like(gt), pred) == gather_sam(np.zeros_like(gt), pred) == 0.0


@pytest.mark.parametrize("c", [3, 8])
def test_evaluate_reference_matches_loop_oracle_on_small_tiles(c):
    # a tile smaller than the default window clamps q2n's window
    rng = np.random.default_rng([43, c])
    gt, pred = _random_pair(rng, (24, 20, c))
    _assert_matches_oracle(evaluate_reference(gt, pred)["q2n"],
                           loop_q2n(gt, pred, window=20))


# ----------------------------------------------------------------------
# whole-image oracles: the window-stack and whole-array expressions that
# the strips and blocks replaced, kept verbatim. Per-window and per-pixel
# values do not depend on the blocking, so the results match byte for byte


def _window_stack(img, window):
    """(H, W, ...) -> (n_windows, window*window, ...): non-overlapping
    windows in row-major tile order, trailing partial tiles dropped."""
    H, W = img.shape[0], img.shape[1]
    nh, nw = H // window, W // window
    rest = img.shape[2:]
    tiles = img[:nh * window, :nw * window].reshape(nh, window, nw, window, *rest)
    return tiles.swapaxes(1, 2).reshape(nh * nw, window * window, *rest)


def whole_q_index(a, b, window):
    wa = _window_stack(a, window)
    wb = _window_stack(b, window)
    ma = wa.mean(axis=1)
    mb = wb.mean(axis=1)
    da = wa - ma[:, None]
    db = wb - mb[:, None]
    vals, flat = _q_map(ma, mb, np.mean(da * da, axis=1),
                        np.mean(db * db, axis=1), np.mean(da * db, axis=1))
    return float(np.mean(vals)), int(np.count_nonzero(flat))


def whole_q2n(gt, pred, window):
    c = gt.shape[2]
    cp = _next_pow2(c)
    if cp != c:
        pad = [(0, 0), (0, 0), (0, cp - c)]
        gt = np.pad(gt, pad)
        pred = np.pad(pred, pad)
    z1 = _window_stack(gt, window)
    z2 = _window_stack(pred, window)
    n_pix = z1.shape[1]
    mu1 = z1.mean(axis=1)
    mu2 = z2.mean(axis=1)
    second = np.matmul(z1.swapaxes(1, 2), _cd_conj(z2)) / n_pix
    e12 = second.reshape(len(second), cp * cp) @ _cd_table(cp).reshape(cp * cp, cp)
    cov12 = e12 - _cd_mul(mu1, _cd_conj(mu2))
    m1sq = np.sum(mu1 * mu1, axis=1)
    m2sq = np.sum(mu2 * mu2, axis=1)
    var1 = np.mean(np.sum(z1 * z1, axis=2), axis=1) - m1sq
    var2 = np.mean(np.sum(z2 * z2, axis=2), axis=1) - m2sq
    vals, flat = _q_map(np.sqrt(m1sq), np.sqrt(m2sq), var1, var2,
                        np.linalg.norm(cov12, axis=1))
    return float(np.mean(vals)), int(np.count_nonzero(flat))


def whole_band_pair_q(img, window):
    x = _window_stack(img, window)
    m = x.mean(axis=1)
    d = x - m[:, None, :]
    cov = np.matmul(d.swapaxes(1, 2), d) / x.shape[1]
    v = np.diagonal(cov, axis1=1, axis2=2)
    vals, _ = _q_map(m[:, :, None], m[:, None, :], v[:, :, None],
                     v[:, None, :], cov)
    return vals.mean(axis=0)


def whole_band_pan_q(img, pan, window):
    x = _window_stack(img, window)
    y = _window_stack(pan, window)
    n_pix = x.shape[1]
    m = x.mean(axis=1)
    mp = y.mean(axis=1)
    d = x - m[:, None, :]
    dp = y - mp[:, None]
    vals, _ = _q_map(m, mp[:, None], np.einsum("npc,npc->nc", d, d) / n_pix,
                     np.mean(dp * dp, axis=1)[:, None],
                     np.einsum("npc,np->nc", d, dp) / n_pix)
    return vals.mean(axis=0)


def whole_sam(gt, pred):
    g = gt.reshape(-1, gt.shape[2])
    p = pred.reshape(-1, gt.shape[2])
    gn = _row_norms(g)
    pn = _row_norms(p)
    keep = (gn != 0) & (pn != 0)
    if not keep.all():
        if not keep.any():
            return 0.0
        g, p, gn, pn = g[keep], p[keep], gn[keep], pn[keep]
    u = g / gn[:, None]
    v = p / pn[:, None]
    ang = 2.0 * np.arctan2(_row_norms(u - v), _row_norms(u + v))
    return float(np.degrees(ang).mean())


def _assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (got, want)


def _oracle_cases(rng, shape, window):
    """A random pair; the pair with a flat and an all-zero window; and the
    pair with a NaN in the prediction's last window."""
    gt, pred = _random_pair(rng, shape)
    yield gt, pred
    yield _with_flat_windows(gt, window), _with_flat_windows(pred, window)
    pred = pred.copy()
    pred[shape[0] // window * window - 1, shape[1] // window * window - 1] = np.nan
    yield gt, pred


# (45, 70): 2 window-rows of 4; (96, 40): 3 rows of 1; (40, 96): 1 row of 3;
# (33, 40) at 8: 4 rows of 5
_STRIP_SHAPES = [((45, 70), 16), ((96, 40), 32), ((40, 96), 32), ((33, 40), 8)]


@pytest.mark.parametrize("shape,window", _STRIP_SHAPES)
def test_q_index_strips_match_the_whole_stack_bitwise(shape, window):
    rng = np.random.default_rng([45, shape[0]])
    for a, b in _oracle_cases(rng, shape, window):
        got, flags = q_index(a, b, window=window, with_flags=True)
        want, degenerate = whole_q_index(a, b, window)
        _assert_same_bytes(got, want)
        assert flags == {"degenerate_windows": degenerate}


# 3, 5 and 6 bands are zero-padded to 4 and 8
@pytest.mark.parametrize("c", [2, 3, 5, 6, 8])
@pytest.mark.parametrize("shape,window", _STRIP_SHAPES)
def test_q2n_strips_match_the_whole_stack_bitwise(c, shape, window):
    rng = np.random.default_rng([46, c, shape[0]])
    for gt, pred in _oracle_cases(rng, shape + (c,), window):
        got, flags = q2n(gt, pred, window=window, with_flags=True)
        want, degenerate = whole_q2n(gt, pred, window)
        _assert_same_bytes(got, want)
        assert flags == {"padded": c not in (2, 8), "degenerate_windows": degenerate}


@pytest.mark.parametrize("c", [2, 3, 8])
@pytest.mark.parametrize("shape,window", _STRIP_SHAPES)
def test_band_q_strips_match_the_whole_stack_bitwise(c, shape, window):
    rng = np.random.default_rng([47, c, shape[0]])
    for img, pan in _oracle_cases(rng, shape + (c,), window):
        pan = pan.mean(axis=2)
        _assert_same_bytes(_band_pair_q(img, window), whole_band_pair_q(img, window))
        _assert_same_bytes(_band_pan_q(img, pan, window),
                           whole_band_pan_q(img, pan, window))


# one block, exactly two blocks, two blocks and a part, under one block
@pytest.mark.parametrize("shape", [(64, 64), (128, 64), (90, 100), (7, 5)])
def test_sam_blocks_match_the_whole_array_bitwise(shape):
    assert shape[0] * shape[1] in (SAM_BLOCK, 2 * SAM_BLOCK, 9000, 35)
    rng = np.random.default_rng([48, shape[0]])
    gt, pred = _random_pair(rng, shape + (4,), noise=0.3)
    _assert_same_bytes(sam(gt, pred), whole_sam(gt, pred))
    # zero-norm spectra in either image, among them the whole first
    # block of gt, and a NaN pixel in the last block
    gt, pred = gt.copy(), pred.copy()
    gt.reshape(-1, 4)[:min(SAM_BLOCK, gt.size // 8)] = 0.0
    gt.reshape(-1, 4)[::3] = 0.0
    pred.reshape(-1, 4)[1::4] = 0.0
    _assert_same_bytes(sam(gt, pred), whole_sam(gt, pred))
    gt[-1, -1] = 0.5
    pred[-1, -1] = (0.5, np.nan, 0.5, 0.5)
    _assert_same_bytes(sam(gt, pred), whole_sam(gt, pred))
    assert np.isnan(sam(gt, pred))
    assert sam(np.zeros_like(gt), pred) == whole_sam(np.zeros_like(gt), pred) == 0.0


def test_psnr_and_ergas_square_in_place_bitwise():
    rng = np.random.default_rng(49)
    gt, pred = _random_pair(rng, (40, 36, 5))
    pred[3, 4, 2] = np.nan
    for p in (pred, np.where(np.isnan(pred), 0.5, pred)):
        mse = float(np.mean((gt - p) ** 2))
        _assert_same_bytes(psnr(gt, p),
                           float(np.minimum(100.0, 10.0 * np.log10(1.0 / mse))))
        rmse2 = np.mean((gt - p) ** 2, axis=(0, 1))
        denom = np.maximum(gt.mean(axis=(0, 1)) ** 2, _EPS)
        _assert_same_bytes(ergas(gt, p), float(100.0 / 4 * np.sqrt(np.mean(rmse2 / denom))))


def test_evaluators_read_float32_images_as_their_float64_values():
    # one conversion per evaluate call gives each metric the bytes it
    # would get from converting on its own
    rng = np.random.default_rng(50)
    gt, pred = _random_pair(rng, (64, 64, 5))
    pred32 = pred.astype(np.float32)
    pred64 = pred32.astype(np.float64)
    want = {"psnr": psnr(gt, pred64), "sam": sam(gt, pred64),
            "ergas": ergas(gt, pred64), "q2n": q2n(gt, pred64)}
    assert evaluate_reference(gt, pred32) == want
    lrms = rng.random((16, 16, 5)).astype(np.float32)
    pan, pan_low = rng.random((64, 64)), rng.random((16, 16))
    dl = d_lambda(pred64, lrms.astype(np.float64))
    ds = d_s(pred64, lrms.astype(np.float64), pan, pan_low)
    assert evaluate_noreference(pred32, lrms, pan, pan_low) == {
        "d_lambda": dl, "d_s": ds, "hqnr": hqnr(dl, ds)}


# ----------------------------------------------------------------------
# evaluation helpers and report


def test_evaluate_reference_perfect():
    x = np.random.default_rng(24).random((32, 32, 4)) + 0.1
    m = evaluate_reference(x, x)
    assert m["psnr"] == 100.0
    assert abs(m["sam"]) < 1e-12
    assert m["ergas"] == 0.0
    assert abs(m["q2n"] - 1.0) < 1e-9


def test_evaluate_noreference_keys():
    rng = np.random.default_rng(25)
    fused = rng.random((32, 32, 4))
    lrms = rng.random((8, 8, 4))
    m = evaluate_noreference(fused, lrms, rng.random((32, 32)), rng.random((8, 8)))
    assert set(m) == {"d_lambda", "d_s", "hqnr"}
    assert abs(m["hqnr"] - hqnr(m["d_lambda"], m["d_s"])) < 1e-15


@pytest.mark.parametrize("where", ["all", "one_pixel"])
def test_nan_prediction_scores_nan(where):
    # a NaN prediction is never perfect: min(cap, nan) is the cap, and a
    # NaN spectrum is not a zero-norm one
    rng = np.random.default_rng(26)
    gt = rng.random((32, 32, 4)) + 0.1
    pred = gt.copy()
    if where == "all":
        pred[...] = np.nan
    else:
        pred[5, 7, 2] = np.nan
    m = evaluate_reference(gt, pred)
    m.update(evaluate_noreference(pred, rng.random((8, 8, 4)),
                                  rng.random((32, 32)), rng.random((8, 8))))
    assert set(m) == {"psnr", "sam", "ergas", "q2n", "d_lambda", "d_s", "hqnr"}
    for k, v in m.items():
        assert np.isnan(v), f"{k}={v}"


def test_report_csv_layout(tmp_path):
    rows = [
        {"id": "sample_00000", "psnr": 30.0, "sam": 2.0},
        {"id": "sample_00001", "psnr": 32.0, "sam": 4.0},
    ]
    p = tmp_path / "report.csv"
    write_report_csv(p, rows, metadata={"variant": "adwm"})
    lines = p.read_text().strip().split("\n")
    data = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# variant=adwm") for l in lines)
    assert data[0] == "id,psnr,sam"
    assert data[1].startswith("sample_00000,30,")
    assert data[-1].split(",")[0] == "mean"
    assert abs(float(data[-1].split(",")[1]) - 31.0) < 1e-12
    assert abs(float(data[-1].split(",")[2]) - 3.0) < 1e-12


def test_report_csv_deterministic(tmp_path):
    rows = [{"id": "a", "psnr": 1.2345678901234, "sam": 0.1}]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(a, rows)
    write_report_csv(b, rows)
    assert a.read_bytes() == b.read_bytes()


def test_report_csv_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        write_report_csv(tmp_path / "x.csv", [])
    with pytest.raises(ConfigurationError):
        write_report_csv(
            tmp_path / "y.csv",
            [{"id": "a", "psnr": 1.0}, {"id": "b"}],
        )
