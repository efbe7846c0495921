"""Fusion quality metrics: reference (PSNR, SAM, ERGAS, Q, Q2n) and
no-reference (spectral / spatial distortion and their product).

Array layout is channel-last throughout: multiband images are (H, W, c),
single-band images (H, W). All functions are pure and deterministic.

Each metric holds at most one image-sized scratch array beside its
float64 inputs. PSNR and ERGAS square their difference in place, and
SAM walks blocks of SAM_BLOCK pixels. The Q family walks strips: one
window-row of the image at a time becomes a stack of (n_cols,
window*window, ...) non-overlapping windows (trailing partial tiles
dropped), whose means, variances and covariances come out of axis
reductions, einsum or one batched matmul, with no loop over windows or
band pairs. Only these per-window moments are kept for the whole image,
in row-major tile order, and the Q values and their means are formed
from them at once. A per-pixel or per-window value does not depend on
the blocking, so neither does any result. Q2n uses that the
Cayley-Dickson product is bilinear: E[z1 conj(z2)] per window is the
second-moment matrix E[z1_i conj(z2)_j] contracted with the
structure-constant table T[i, j, :] = e_i e_j, and the variance is
E|z|^2 - |E z|^2.

The no-reference spectral distortion uses plain Q-index differences
between band pairs rather than an MTF-matched filter bank; the report
writer records this choice in its header comments.
"""

import numpy as np

from .data import SCALE
from .errors import ConfigurationError, DimensionError, UsageError

_EPS = 1e-12
PSNR_CAP = 100.0  # dB, the value of a perfect prediction
WINDOW = 32  # Q-family window side, clamped to smaller images by the evaluators
SAM_BLOCK = 4096  # pixels per block of the spectral angle


def _check_same_shape(a, b, what):
    if a.shape != b.shape:
        raise DimensionError(f"{what}: shapes {a.shape} and {b.shape} differ")


# ----------------------------------------------------------------------
# reference metrics

def psnr(gt, pred):
    """PSNR in dB of images on [0, 1] (peak 1), capped at PSNR_CAP; a NaN
    in either image gives NaN."""
    gt = np.asarray(gt, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    _check_same_shape(gt, pred, "psnr")
    mse = float(np.mean(_squared_error(gt, pred)))
    if mse == 0.0:
        return PSNR_CAP
    # np.minimum, unlike min, keeps a NaN
    return float(np.minimum(PSNR_CAP, 10.0 * np.log10(1.0 / mse)))


def sam(gt, pred):
    """Mean spectral angle in degrees; pixels with a zero-norm spectrum
    in either image are skipped, and a NaN pixel makes the mean NaN.

    The angle is evaluated as 2*atan2(|u-v|, |u+v|) on unit vectors,
    which equals arccos of the normalized inner product but stays exact
    at 0 and 180 degrees where arccos loses half the significand.
    """
    gt = np.asarray(gt, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    _check_same_shape(gt, pred, "sam")
    if gt.ndim != 3 or gt.shape[2] < 2:
        raise DimensionError(f"sam needs (H, W, c) with c >= 2, got {gt.shape}")
    gt_px = gt.reshape(-1, gt.shape[2])
    pred_px = pred.reshape(-1, gt.shape[2])
    ang = np.empty(len(gt_px))
    n = 0  # angles so far, of the pixels kept
    for start in range(0, len(gt_px), SAM_BLOCK):
        g = gt_px[start:start + SAM_BLOCK]
        p = pred_px[start:start + SAM_BLOCK]
        gn = _row_norms(g)
        pn = _row_norms(p)
        # a NaN norm is kept: only an exact zero has no direction
        keep = (gn != 0) & (pn != 0)
        if not keep.all():
            g, p, gn, pn = g[keep], p[keep], gn[keep], pn[keep]
        u = g / gn[:, None]
        v = p / pn[:, None]
        ang[n:n + len(u)] = 2.0 * np.arctan2(_row_norms(u - v), _row_norms(u + v))
        n += len(u)
    if n == 0:
        return 0.0
    return float(np.degrees(ang[:n]).mean())


def _row_norms(a):
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _squared_error(gt, pred):
    """(gt - pred) ** 2 in one new array, squared in place."""
    d = gt - pred
    return np.square(d, out=d)


def ergas(gt, pred):
    """ERGAS at resolution ratio SCALE; zero band means are guarded."""
    gt = np.asarray(gt, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    _check_same_shape(gt, pred, "ergas")
    if gt.ndim != 3:
        raise DimensionError(f"ergas needs (H, W, c), got {gt.shape}")
    mu = gt.mean(axis=(0, 1))
    rmse2 = np.mean(_squared_error(gt, pred), axis=(0, 1))
    denom = np.maximum(mu * mu, _EPS)
    return float(100.0 / SCALE * np.sqrt(np.mean(rmse2 / denom)))


# ----------------------------------------------------------------------
# Q-index family

def _window_rows(img, window):
    """(H, W, ...) -> each window-row in turn, top to bottom, as an
    (n_cols, window*window, ...) stack of non-overlapping windows;
    trailing partial tiles dropped. Together the stacks hold the
    image's windows in row-major tile order."""
    H, W = img.shape[0], img.shape[1]
    if H < window or W < window:
        raise DimensionError(
            f"image {H}x{W} is smaller than the {window}-pixel window"
        )
    nw = W // window
    rest = img.shape[2:]
    for top in range(0, H // window * window, window):
        strip = img[top:top + window, :nw * window].reshape(window, nw, window, *rest)
        yield strip.swapaxes(0, 1).reshape(nw, window * window, *rest)


def _window_moments(moments, window, *imgs):
    """Per-window moments of same-size images, one window-row at a time.

    `moments` maps the window stacks of one row, one stack per image, to
    a tuple of per-window arrays; each is joined over the rows, so only
    one row's windows are held at once.
    """
    rows = [moments(*stacks) for stacks in
            zip(*(_window_rows(img, window) for img in imgs))]
    return [np.concatenate(parts) for parts in zip(*rows)]


def _q_map(ma, mb, va, vb, cov):
    """Per-window Q = corr * luminance from window moments (broadcasting),
    and the mask of windows where a factor fell back to 1 because its
    denominator vanished."""
    d1 = va + vb
    d2 = ma * ma + mb * mb
    flat1 = d1 <= _EPS
    flat2 = d2 <= _EPS
    corr = np.where(flat1, 1.0, 2.0 * cov / np.where(flat1, 1.0, d1))
    lum = np.where(flat2, 1.0, 2.0 * ma * mb / np.where(flat2, 1.0, d2))
    return corr * lum, flat1 | flat2


def q_index(a, b, window=WINDOW, with_flags=False):
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

    def moments(wa, wb):
        ma = wa.mean(axis=1)
        mb = wb.mean(axis=1)
        da = wa - ma[:, None]
        db = wb - mb[:, None]
        return (ma, mb, np.mean(da * da, axis=1), np.mean(db * db, axis=1),
                np.mean(da * db, axis=1))

    vals, flat = _q_map(*_window_moments(moments, window, a, b))
    q = float(np.mean(vals))
    if with_flags:
        return q, {"degenerate_windows": int(np.count_nonzero(flat))}
    return q


def _cd_conj(z):
    out = -z
    out[..., 0] = z[..., 0]
    return out


def _cd_mul(x, y):
    """Cayley-Dickson product over the trailing axis (length a power of 2).

    (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)); reals at the base.
    """
    n = x.shape[-1]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[..., :h], x[..., h:]
    c, d = y[..., :h], y[..., h:]
    return np.concatenate(
        [_cd_mul(a, c) - _cd_mul(_cd_conj(d), b),
         _cd_mul(d, a) + _cd_mul(b, _cd_conj(c))],
        axis=-1,
    )


def _cd_table(n):
    """Structure constants of the 2^k-ons: T[i, j, :] = e_i * e_j."""
    basis = np.eye(n)
    return _cd_mul(basis[:, None, :], basis[None, :, :])


def _next_pow2(c):
    p = 1
    while p < c:
        p *= 2
    return p


def q2n(gt, pred, window=WINDOW, with_flags=False):
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
    pad = [(0, 0), (0, 0), (0, cp - c)]

    def moments(z1, z2):
        if padded:
            z1 = np.pad(z1, pad)
            z2 = np.pad(z2, pad)
        n_pix = z1.shape[1]
        # the product is bilinear, so E[z1 conj(z2)] is the per-window
        # second moment matrix E[z1_i conj(z2)_j] contracted with the
        # structure table; the real part of z conj(z) is |z|^2
        return (z1.mean(axis=1), z2.mean(axis=1),
                np.matmul(z1.swapaxes(1, 2), _cd_conj(z2)) / n_pix,
                np.mean(np.sum(z1 * z1, axis=2), axis=1),
                np.mean(np.sum(z2 * z2, axis=2), axis=1))

    mu1, mu2, second, sq1, sq2 = _window_moments(moments, window, gt, pred)
    e12 = second.reshape(len(second), cp * cp) @ _cd_table(cp).reshape(cp * cp, cp)
    cov12 = e12 - _cd_mul(mu1, _cd_conj(mu2))
    m1sq = np.sum(mu1 * mu1, axis=1)
    m2sq = np.sum(mu2 * mu2, axis=1)
    var1 = sq1 - m1sq
    var2 = sq2 - m2sq
    vals, flat = _q_map(np.sqrt(m1sq), np.sqrt(m2sq), var1, var2,
                        np.linalg.norm(cov12, axis=1))
    q = float(np.mean(vals))
    if with_flags:
        return q, {"padded": padded,
                   "degenerate_windows": int(np.count_nonzero(flat))}
    return q


# ----------------------------------------------------------------------
# no-reference metrics

def _clamped_window(img, window):
    return min(window, img.shape[0], img.shape[1])


def _band_pair_q(img, window):
    """(c, c) matrix of window-mean Q between every pair of bands, from
    one per-window band covariance."""

    def moments(x):
        m = x.mean(axis=1)
        d = x - m[:, None, :]
        return m, np.matmul(d.swapaxes(1, 2), d) / x.shape[1]

    m, cov = _window_moments(moments, window, img)
    v = np.diagonal(cov, axis1=1, axis2=2)
    vals, _ = _q_map(m[:, :, None], m[:, None, :], v[:, :, None],
                     v[:, None, :], cov)
    return vals.mean(axis=0)


def _band_pan_q(img, pan, window):
    """(c,) window-mean Q of every band against the panchromatic image."""

    def moments(x, y):
        n_pix = x.shape[1]
        m = x.mean(axis=1)
        mp = y.mean(axis=1)
        d = x - m[:, None, :]
        dp = y - mp[:, None]
        return (m, mp, np.einsum("npc,npc->nc", d, d) / n_pix,
                np.mean(dp * dp, axis=1), np.einsum("npc,np->nc", d, dp) / n_pix)

    m, mp, v, vp, cov = _window_moments(moments, window, img, pan)
    vals, _ = _q_map(m, mp[:, None], v, vp[:, None], cov)
    return vals.mean(axis=0)


def d_lambda(fused, lrms, window=WINDOW):
    """Spectral distortion: the mean absolute deviation of the fused image's
    inter-band Q values from the low-resolution original's."""
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
    qf = _band_pair_q(fused, _clamped_window(fused, window))
    ql = _band_pair_q(lrms, _clamped_window(lrms, window))
    pairs = np.triu_indices(c, 1)
    return float(np.mean(np.abs(qf[pairs] - ql[pairs])))


def d_s(fused, lrms, pan, pan_degraded, window=WINDOW):
    """Spatial distortion: mean absolute change of per-band Q against the
    pan image between resolutions (pan_degraded on the low-res grid)."""
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
    qf = _band_pan_q(fused, pan, _clamped_window(fused, window))
    ql = _band_pan_q(lrms, pan_degraded, _clamped_window(lrms, window))
    return float(np.mean(np.abs(qf - ql)))


def hqnr(dl, ds):
    """Product form: 1 at no distortion, 0 once either term saturates,
    NaN when either term is NaN."""
    return float(np.maximum(0.0, 1.0 - dl) * np.maximum(0.0, 1.0 - ds))


# ----------------------------------------------------------------------
# batch evaluation and reporting

def evaluate_reference(gt, pred):
    """PSNR, SAM, ERGAS and Q2n, each reading one float64 copy of each
    image."""
    gt = np.asarray(gt, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return {
        "psnr": psnr(gt, pred),
        "sam": sam(gt, pred),
        "ergas": ergas(gt, pred),
        "q2n": q2n(gt, pred, window=_clamped_window(gt, WINDOW)),
    }


def evaluate_noreference(fused, lrms, pan, pan_degraded):
    """D_lambda, D_s and HQNR, each reading one float64 copy of each
    image."""
    fused, lrms, pan, pan_degraded = (
        np.asarray(a, dtype=np.float64) for a in (fused, lrms, pan, pan_degraded)
    )
    dl = d_lambda(fused, lrms)
    ds = d_s(fused, lrms, pan, pan_degraded)
    return {"d_lambda": dl, "d_s": ds, "hqnr": hqnr(dl, ds)}


METRIC_ORDER = ("psnr", "sam", "ergas", "q2n", "d_lambda", "d_s", "hqnr")


def write_report_csv(path, rows, metadata=None):
    """CSV report: '#' metadata comments, header, one row per sample,
    and a final mean row.

    Every row must carry an "id" plus the same metric keys.
    """
    if not rows:
        raise ConfigurationError("cannot write an empty report")
    cols = [m for m in METRIC_ORDER if m in rows[0]]
    for r in rows:
        missing = [m for m in cols if m not in r]
        if missing:
            raise ConfigurationError(f"row {r.get('id')!r} lacks {missing}")
    lines = []
    meta = dict(metadata or {})
    meta.setdefault("spectral_distortion", "plain q-index band-pair differences")
    for k in sorted(meta):
        lines.append(f"# {k}={meta[k]}")
    lines.append("id," + ",".join(cols))
    for r in rows:
        lines.append(r["id"] + "," + ",".join(f"{float(r[m]):.10g}" for m in cols))
    lines.append(
        "mean," + ",".join(
            f"{float(np.mean([r[m] for r in rows])):.10g}" for m in cols
        )
    )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path
