"""Post-hoc analysis artifacts: eigen-spectrum redundancy, weight traces,
multiply-accumulate accounting, and self-rendered SVG plots.

Entropy here is defined on the normalized eigenvalue spectrum of a
channel covariance (not on activation histograms): a flat spectrum means
channels carry independent information, a spiky one means redundancy.

FLOP accounting counts multiplies in the weighting path only: the
covariance products, generator MLPs, channel gating, and the weighted
combination. Normalization divides, activations, and softmax
exponentials are excluded on both sides of the instrumentation check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cacw import compute_covariance, pca_eigendecompose
from .errors import ConfigurationError, DegenerateSampleError, DimensionError
from .tensor import Tensor, softmax

# ----------------------------------------------------------------------
# spectra


def scree_curve(C):
    """Eigenvalues of a covariance matrix, sorted descending and
    normalized to sum 1; tiny negative values from roundoff are clamped."""
    res = pca_eigendecompose(C)
    vals = np.maximum(res.eigenvalues, 0.0)
    total = vals.sum()
    if total <= 0:
        raise DegenerateSampleError("zero covariance has no spectrum to normalize")
    return vals / total


def spectrum_entropy(scree):
    """-sum p ln p over a normalized spectrum, in nats; 0 ln 0 = 0."""
    p = np.asarray(scree, dtype=np.float64)
    if p.ndim != 1:
        raise DimensionError(f"spectrum must be a vector, got shape {p.shape}")
    if np.any(p < -1e-12):
        raise ConfigurationError("spectrum entries must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ConfigurationError(f"spectrum must sum to 1, got {p.sum()}")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def feature_covariance(F):
    """Channel covariance of one (C, H, W) feature map as plain numpy."""
    F = F.data if isinstance(F, Tensor) else np.asarray(F)
    if F.ndim != 3:
        raise DimensionError(f"need a (C, H, W) feature map, got {F.shape}")
    c, h, w = F.shape
    obs = F.reshape(c, h * w).T
    return compute_covariance(Tensor(obs)).data


def layer_spectra(model, pan, lrms):
    """Scree curve and entropy per residual block for one input pair.

    Returns a list of {layer, scree, entropy} in depth order.
    """
    _, weights = model.forward(pan, lrms, return_weights=True)
    features = weights["features"]
    out = []
    for i, f in enumerate(features):
        cov = feature_covariance(f)
        scree = scree_curve(Tensor(cov))
        out.append({
            "layer": i,
            "scree": scree,
            "entropy": spectrum_entropy(scree),
            "covariance": cov,
        })
    return out


# ----------------------------------------------------------------------
# weight traces


def weight_trace(model, pair, epoch=0):
    """Rows (epoch, layer, index, weight): one row per channel gate and,
    with index -1, one per softmax layer weight."""
    if model.ifw is None and model.cfw is None:
        raise ConfigurationError(
            f"variant {model.config.variant!r} has no weights to trace"
        )
    _, weights = model.forward(pair.pan, pair.lrms, return_weights=True)
    rows = []
    alphas = weights["alpha"]
    if alphas is not None:
        for layer, a in enumerate(alphas):
            for idx, w in enumerate(np.asarray(a.data).reshape(-1)):
                rows.append((epoch, layer, idx, float(w)))
    beta = weights["beta"]
    if beta is not None:
        probs = softmax(beta.detach()).data
        for layer, w in enumerate(probs):
            rows.append((epoch, layer, -1, float(w)))
    return rows


def alpha_spread(rows):
    """Per-layer max-min of the channel gates, a report-only statistic."""
    by_layer = {}
    for epoch, layer, idx, w in rows:
        if idx >= 0:
            by_layer.setdefault(layer, []).append(w)
    return {layer: max(v) - min(v) for layer, v in sorted(by_layer.items())}


def write_rows_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for r in rows:
            f.write(",".join(_fmt(v) for v in r) + "\n")
    return path


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


# ----------------------------------------------------------------------
# multiply accounting


@dataclass
class FlopCount:
    ifw_cov: int
    ifw_mlp: int
    ifw_gate: int
    cfw_cov: int
    cfw_mlp: int
    cfw_combine: int

    @property
    def total(self):
        return (self.ifw_cov + self.ifw_mlp + self.ifw_gate
                + self.cfw_cov + self.cfw_mlp + self.cfw_combine)

    def as_dict(self):
        return {
            "ifw_cov": self.ifw_cov, "ifw_mlp": self.ifw_mlp,
            "ifw_gate": self.ifw_gate, "cfw_cov": self.cfw_cov,
            "cfw_mlp": self.cfw_mlp, "cfw_combine": self.cfw_combine,
            "total": self.total,
        }


def count_flops(H, W, C, N, d_ifw=None, d_cfw=None, d_fraction=0.8):
    """Closed-form multiply counts for one dual-level weighting pass.

    Covariance of C channels over H*W positions costs H*W*C^2 multiplies
    per layer; the layer-weight covariance costs C*N^2; the shared-row
    MLPs cost rows*(d*n + d). Gating and combination are the elementwise
    C*H*W products. Counts are exact integers.
    """
    if min(H, W, C, N) < 1:
        raise ConfigurationError("all dimensions must be >= 1")
    if d_ifw is None:
        d_ifw = max(1, math.ceil(d_fraction * C))
    if d_cfw is None:
        d_cfw = max(1, math.ceil(d_fraction * N))
    hw = H * W
    return FlopCount(
        ifw_cov=N * hw * C * C,
        ifw_mlp=N * C * (d_ifw * C + d_ifw),
        ifw_gate=N * C * hw,
        cfw_cov=C * N * N,
        cfw_mlp=N * (d_cfw * N + d_cfw),
        cfw_combine=N * C * hw,
    )


# ----------------------------------------------------------------------
# SVG rendering

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 30, 45  # plot margins


def _svg_head(title):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'width="{_W}" height="{_H}" version="1.1">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.6g}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    return parts


def _axes(parts, x0, x1, y0, y1):
    px0, px1 = _ML, _W - _MR
    py0, py1 = _H - _MB, _MT
    parts.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        px = px0 + frac * (px1 - px0)
        py = py0 - frac * (py0 - py1)
        parts.append(
            f'<text x="{px:.6g}" y="{py0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.6g}</text>'
        )
        parts.append(
            f'<text x="{px0 - 8}" y="{py + 4:.6g}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>'
        )


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def svg_line_plot(path, series, title=""):
    """series: ordered (label, xs, ys) triples; empty input renders axes only."""
    parts = _svg_head(title)
    allx = [x for _, xs, _ in series for x in xs]
    ally = [y for _, _, ys in series for y in ys]
    if allx:
        x0, x1 = min(allx), max(allx)
        y0, y1 = min(ally), max(ally)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
    else:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    _axes(parts, x0, x1, y0, y1)
    px0, px1 = _ML, _W - _MR
    py0, py1 = _H - _MB, _MT
    for si, (label, xs, ys) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        pts = " ".join(
            f"{px0 + (x - x0) / (x1 - x0) * (px1 - px0):.6g},"
            f"{py0 - (y - y0) / (y1 - y0) * (py0 - py1):.6g}"
            for x, y in zip(xs, ys)
        )
        if pts:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{px1 - 6}" y="{py1 + 14 + 14 * si}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    data = "\n".join(parts) + "\n"
    with open(path, "w") as f:
        f.write(data)
    return path


_LIGHT = (247, 251, 255)
_DARK = (8, 48, 107)


def _heat_color(t):
    r = round(_LIGHT[0] + t * (_DARK[0] - _LIGHT[0]))
    g = round(_LIGHT[1] + t * (_DARK[1] - _LIGHT[1]))
    b = round(_LIGHT[2] + t * (_DARK[2] - _LIGHT[2]))
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(path, matrix, title=""):
    """Matrix cells shaded light (minimum) to dark (maximum)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"heatmap needs a nonempty 2-D matrix, got {m.shape}")
    lo, hi = m.min(), m.max()
    span = hi - lo if hi > lo else 1.0
    parts = _svg_head(title)
    px0, px1 = _ML, _W - _MR
    py0, py1 = _H - _MB, _MT
    rows, cols = m.shape
    cw = (px1 - px0) / cols
    ch = (py0 - py1) / rows
    for i in range(rows):
        for j in range(cols):
            t = (m[i, j] - lo) / span
            parts.append(
                f'<rect x="{px0 + j * cw:.6g}" y="{py1 + i * ch:.6g}" '
                f'width="{cw:.6g}" height="{ch:.6g}" '
                f'fill="{_heat_color(t)}"/>'
            )
    parts.append(
        f'<text x="{px0}" y="{_H - 12}" font-family="sans-serif" '
        f'font-size="11">min={lo:.6g} (light), max={hi:.6g} (dark)</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
    return path
