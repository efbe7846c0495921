"""Dual-level feature weighting: per-layer channel gates plus softmax
aggregation across layers.

Intra-feature weighting (IFW) treats the H*W spatial positions of one
feature map as samples of C channel features, generates per-channel
gates from the channel correlation structure, and rescales the map.
Cross-feature weighting (CFW) pools every layer's map to a channel
profile, treats the C channels as samples of N layer features, and
aggregates the gated maps with softmax layer weights.

All entry points accept (C, H, W) features or (B, C, H, W) batches.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cacw import WEIGHT_GENERATORS
from .errors import ConfigurationError, DegenerateSampleError, DimensionError
from .tensor import Tensor, softmax, spatial_mean, stack


@dataclass
class AdwmConfig:
    n_layers: int
    channels: int
    ifw_d_fraction: float = 0.8
    cfw_d_fraction: float = 0.8
    share_ifw: bool = False
    generator: str = "cacw"

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {self.channels}")
        for name, frac in (("ifw_d_fraction", self.ifw_d_fraction),
                           ("cfw_d_fraction", self.cfw_d_fraction)):
            if not 0.0 < frac <= 2.0:
                raise ConfigurationError(f"{name} must be in (0, 2], got {frac}")
        if self.generator not in WEIGHT_GENERATORS:
            raise ConfigurationError(
                f"unknown weight generator {self.generator!r}; "
                f"choose from {sorted(WEIGHT_GENERATORS)}"
            )

    @property
    def ifw_d(self):
        return max(1, math.ceil(self.ifw_d_fraction * self.channels))

    @property
    def cfw_d(self):
        return max(1, math.ceil(self.cfw_d_fraction * self.n_layers))


def make_adwm_modules(config, seed=0):
    """Instantiate the weight generators for one ADWM instance.

    Returns {"ifw": [generator, ...], "cfw": generator}. IFW generators
    gate channels through a sigmoid; the CFW generator emits raw scores
    for the downstream softmax. With share_ifw one generator instance is
    reused across all layers.
    """
    cls = WEIGHT_GENERATORS[config.generator]
    n_ifw = 1 if config.share_ifw else config.n_layers
    ifw = [
        cls(config.channels, d=config.ifw_d, output_activation="sigmoid",
            seed=seed * 1000 + i)
        for i in range(n_ifw)
    ]
    if config.share_ifw:
        ifw = ifw * config.n_layers
    cfw = cls(config.n_layers, d=config.cfw_d, output_activation="identity",
              seed=seed * 1000 + 997)
    return {"ifw": ifw, "cfw": cfw}


def adwm_param_count(config):
    modules = make_adwm_modules(config)
    unique = {id(m): m for m in modules["ifw"]}.values()
    return sum(m.param_count() for m in unique) + modules["cfw"].param_count()


def _channel_observations(F):
    """Reshape (.., C, H, W) so spatial positions are rows: (.., H*W, C)."""
    if F.ndim == 3:
        c, h, w = F.shape
        return F.reshape(c, h * w).transpose(1, 0)
    b, c, h, w = F.shape
    return F.reshape(b, c, h * w).transpose(0, 2, 1)


def ifw_apply(generator, F_i):
    """Gate one feature map by its channel weights.

    F_i: (C, H, W) or (B, C, H, W) with H*W >= 2. Returns (gated map,
    alpha) where alpha has shape (C,) or (B, C).
    """
    F_i = F_i if isinstance(F_i, Tensor) else Tensor(F_i)
    if F_i.ndim not in (3, 4):
        raise DimensionError(f"feature map must be (C,H,W) or (B,C,H,W), got {F_i.shape}")
    h, w = F_i.shape[-2], F_i.shape[-1]
    if h * w < 2:
        raise DegenerateSampleError(
            f"channel weighting needs at least 2 spatial positions, got {h}x{w}"
        )
    X = _channel_observations(F_i)
    alpha = generator.forward(X)
    if F_i.ndim == 3:
        gate = alpha.reshape(alpha.shape[-1], 1, 1)
    else:
        gate = alpha.reshape(alpha.shape[0], alpha.shape[-1], 1, 1)
    return F_i * gate, alpha


def weighted_sum(maps, w=None):
    """Sum_k w[..., k] * maps[k] in fixed layer order, as one tape op.

    maps: N tensors of one shape, (C, H, W) or (B, C, H, W). w: layer
    weights of shape (N,) or (B, N), or None for the uniform 1/N, which
    makes this the plain mean of the stack.
    """
    maps = [m if isinstance(m, Tensor) else Tensor(m) for m in maps]
    n = len(maps)
    if n == 0:
        raise DimensionError("weighted sum of an empty stack")
    shape = maps[0].shape
    for m in maps:
        if m.shape != shape:
            raise DimensionError(f"stack features disagree in shape: {m.shape} vs {shape}")
    if w is None:
        factors = [1.0 / n] * n
        parents = tuple(maps)
    else:
        if len(shape) < 3 or w.shape != shape[:-3] + (n,):
            raise DimensionError(
                f"weights {w.shape} do not match {n} maps of shape {shape}"
            )
        lead = w.shape[:-1] + (1, 1, 1)
        factors = [w.data[..., k].reshape(lead) for k in range(n)]
        # the tape reaches w right after the first map, which fixes the
        # order gradients accumulate into the maps during backward
        parents = (maps[0], w) + tuple(maps[1:])

    data = maps[0].data * factors[0]
    for m, f in zip(maps[1:], factors[1:]):
        data += m.data * f
    out = Tensor(data, any(p.requires_grad for p in parents), parents)

    def _backward():
        g = out.grad
        for m, f in zip(maps, factors):
            if m.requires_grad:
                m._accumulate(g * f)
        if w is not None and w.requires_grad:
            w._accumulate(np.stack(
                [(g * m.data).sum(axis=(-3, -2, -1)) for m in maps], axis=-1
            ))

    out._backward = _backward
    return out


def cfw_apply(generator, F, F_tilde):
    """Aggregate gated maps with softmax layer weights.

    Weights come from the unweighted stack F: each layer is pooled to a
    channel profile, the (C, N) profile matrix is scored per layer, and
    softmax turns the scores into a convex combination of F_tilde.

    Returns (aggregated map, beta) with beta the raw pre-softmax scores,
    shape (N,) or (B, N).
    """
    if len(F) == 0:
        raise DimensionError("cross-feature weighting needs a nonempty stack")
    if len(F) != len(F_tilde):
        raise DimensionError(
            f"stacks disagree in length: {len(F)} vs {len(F_tilde)}"
        )
    F = [f if isinstance(f, Tensor) else Tensor(f) for f in F]
    F_tilde = [f if isinstance(f, Tensor) else Tensor(f) for f in F_tilde]
    shape = F[0].shape
    for f in F + F_tilde:
        if f.shape != shape:
            raise DimensionError(f"stack features disagree in shape: {f.shape} vs {shape}")
    c = shape[-3]
    if c < 2:
        raise DegenerateSampleError(
            f"layer weighting needs at least 2 channels as samples, got C={c}"
        )

    profiles = stack([spatial_mean(f) for f in F], axis=-1)  # (C, N) or (B, C, N)
    beta = generator.forward(profiles)                        # (N,) or (B, N)
    return weighted_sum(F_tilde, softmax(beta, axis=-1)), beta


def aggregate(features, ifw=None, cfw=None):
    """Fuse a feature stack with the weighting levels that are switched on.

    `ifw` is one channel-gate generator per layer and `cfw` the layer
    score generator; passing one switches its level on. With both off
    the result is the uniform mean of the stack, and identity weights
    (gates of exactly 1, equal layer scores) reduce either level to it
    bit for bit. Returns (fused, alphas, beta), None for a level that is
    off.
    """
    features = [f if isinstance(f, Tensor) else Tensor(f) for f in features]
    if len(features) == 0:
        raise DimensionError("aggregation needs a nonempty feature stack")
    gated, alphas = features, None
    if ifw is not None:
        if len(ifw) != len(features):
            raise DimensionError(
                f"{len(ifw)} gate generators for {len(features)} layers"
            )
        pairs = [ifw_apply(gen, f) for gen, f in zip(ifw, features)]
        gated = [g for g, _ in pairs]
        alphas = [a for _, a in pairs]
    if cfw is None:
        return weighted_sum(gated), alphas, None
    fused, beta = cfw_apply(cfw, features, gated)
    return fused, alphas, beta


def adwm_forward(config, modules, features):
    """Full dual-level weighting over a recorded feature stack.

    Gates every layer, then softmax-aggregates the gated stack with
    weights generated from the ungated one.
    """
    if len(features) != config.n_layers:
        raise DimensionError(
            f"stack has {len(features)} layers, config says {config.n_layers}"
        )
    fused, _, _ = aggregate(features, modules["ifw"], modules["cfw"])
    return fused
