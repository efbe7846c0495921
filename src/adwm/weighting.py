"""Dual-level feature weighting: per-layer channel gates plus softmax
aggregation across layers.

Intra-feature weighting (IFW) treats the H*W spatial positions of one
feature map as samples of C channel features, generates per-channel
gates from the channel correlation structure, and rescales the map.
Cross-feature weighting (CFW) pools every layer's map to a channel
profile, treats the C channels as samples of N layer features, and
aggregates the gated maps with softmax layer weights.

`aggregate` is the one entry point over a feature stack; `ifw_apply`
and `cfw_apply` are its two levels. Everything accepts channels-last
(H, W, C) features or (B, H, W, C) batches.

No gated map is stored whole. `tensor.channel_scale` keeps each as its
feature map and tiled gate, and its ``data`` forms the map afresh on
each read, so a write to that array is lost. `weighted_sum` sums in
blocks of image rows, about `tensor._BLOCK` pixels each, and forms each
gated map's block into one block-sized buffer as it sums, so no
map-sized scratch exists beside the result. Its backward first forms
the maps again, one batch item of one map at a time, for the layer
weights' gradient, then hands each map the sum's released gradient
times that map's layer factor, a fresh product of its own, so
gradients add up in the order and with the bytes of stored maps.
"""

from dataclasses import dataclass

import numpy as np

from .cacw import D_FRACTION, WEIGHT_GENERATORS, reduced_width
from .errors import ConfigurationError, DegenerateSampleError, DimensionError
from .tensor import _BLOCK, _empty, _node, as_tensor, channel_scale, softmax, spatial_mean, stack


@dataclass
class AdwmConfig:
    n_layers: int
    channels: int
    d_fraction: float = D_FRACTION
    generator: str = "cacw"

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {self.channels}")
        if not 0.0 < self.d_fraction <= 2.0:
            raise ConfigurationError(
                f"d_fraction must be in (0, 2], got {self.d_fraction}"
            )
        if self.generator not in WEIGHT_GENERATORS:
            raise ConfigurationError(
                f"unknown weight generator {self.generator!r}; "
                f"choose from {sorted(WEIGHT_GENERATORS)}"
            )

    @property
    def ifw_d(self):
        return reduced_width(self.d_fraction, self.channels)

    @property
    def cfw_d(self):
        return reduced_width(self.d_fraction, self.n_layers)


def make_adwm_modules(config, seed=0):
    """Instantiate the weight generators for one ADWM instance.

    Returns {"ifw": [generator, ...], "cfw": generator}. IFW generators
    gate channels through a sigmoid; the CFW generator emits raw scores
    for the downstream softmax.
    """
    cls = WEIGHT_GENERATORS[config.generator]
    ifw = [
        cls(config.channels, d=config.ifw_d, output_activation="sigmoid",
            seed=seed * 1000 + i)
        for i in range(config.n_layers)
    ]
    cfw = cls(config.n_layers, d=config.cfw_d, output_activation="identity",
              seed=seed * 1000 + 997)
    return {"ifw": ifw, "cfw": cfw}


def adwm_param_count(config):
    modules = make_adwm_modules(config)
    return sum(m.param_count() for m in modules["ifw"] + [modules["cfw"]])


def _channel_observations(F):
    """Read (.., H, W, C) flat so spatial positions are rows: (.., H*W, C).

    A view of F whenever F is C-contiguous, as the backbone's features are.
    """
    return F.reshape(F.shape[:-3] + (F.shape[-3] * F.shape[-2], F.shape[-1]))


def ifw_apply(generator, F_i):
    """Gate one feature map by its channel weights.

    F_i: (H, W, C) or (B, H, W, C) with H*W >= 2. Returns (gated map,
    alpha) where alpha has shape (C,) or (B, C).
    """
    F_i = as_tensor(F_i)
    if F_i.ndim not in (3, 4):
        raise DimensionError(f"feature map must be (H,W,C) or (B,H,W,C), got {F_i.shape}")
    h, w = F_i.shape[-3], F_i.shape[-2]
    if h * w < 2:
        raise DegenerateSampleError(
            f"channel weighting needs at least 2 spatial positions, got {h}x{w}"
        )
    alpha = generator.forward(_channel_observations(F_i))
    return channel_scale(F_i, alpha), alpha


def weighted_sum(maps, w=None):
    """Sum_k w[..., k] * maps[k] in fixed layer order, as one tape op.

    maps: N tensors of one shape, (H, W, C) or (B, H, W, C). w: layer
    weights of shape (N,) or (B, N), or None for the uniform 1/N, which
    makes this the plain mean of the stack. A gated map is formed into a
    scratch buffer each time it is read, never stored (module docstring).
    """
    maps = [as_tensor(m) for m in maps]
    n = len(maps)
    if n == 0:
        raise DimensionError("weighted sum of an empty stack")
    shape = maps[0].shape
    for m in maps:
        if m.shape != shape:
            raise DimensionError(f"stack features disagree in shape: {m.shape} vs {shape}")
    if len(shape) < 3:
        raise DimensionError(f"weighted sum needs maps of shape (..., H, W, C), got {shape}")
    lead, h = shape[:-3], shape[-3]
    dtype = np.result_type(*(m.dtype for m in maps))
    if w is None:
        factors = [np.full(lead + (1, 1, 1), 1.0 / n, dtype)] * n
        parents = tuple(maps)
    else:
        if w.shape != shape[:-3] + (n,):
            raise DimensionError(
                f"weights {w.shape} do not match {n} maps of shape {shape}"
            )
        factors = [w.data[..., k].reshape(lead + (1, 1, 1)) for k in range(n)]
        # the tape reaches w right after the first map, which fixes the
        # order gradients accumulate into the maps during backward
        parents = (maps[0], w) + tuple(maps[1:])

    # image rows per block: about _BLOCK pixels, so a block stays in cache
    step = max(1, _BLOCK // shape[-2])
    data = _empty(shape, dtype)
    scratch = _empty((min(step, h),) + shape[-2:], dtype)
    for i in np.ndindex(lead):
        for h0 in range(0, h, step):
            rows = slice(h0, h0 + step)
            out = data[i][rows]
            buf = scratch[:len(out)]
            np.multiply(maps[0]._formed(buf, i, rows), factors[0][i], out=out)
            for m, f in zip(maps[1:], factors[1:]):
                out += np.multiply(m._formed(buf, i, rows), f[i], out=buf)

    # the maps as the forward read them, for the layer weights' gradient
    read = [m.detach() for m in maps]

    def backward(g):
        if w is not None and w.requires_grad:
            # one map's (H, W, C) product at a time, summed whole as the
            # batched sum sums each map
            gw = _empty(w.shape, w.dtype)
            prod = _empty(shape[-3:], dtype)
            for i in np.ndindex(lead):
                for k, m in enumerate(read):
                    gw[i + (k,)] = np.multiply(g[i], m._formed(prod, i), out=prod).sum()
            w._accumulate(gw, owned=True)
        for m, f in zip(maps, factors):
            if m.requires_grad:
                m._accumulate(g * f, owned=True)

    return _node(data, parents, backward)


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
    F = [as_tensor(f) for f in F]
    F_tilde = [as_tensor(f) for f in F_tilde]
    shape = F[0].shape
    for f in F + F_tilde:
        if f.shape != shape:
            raise DimensionError(f"stack features disagree in shape: {f.shape} vs {shape}")
    c = shape[-1]
    if c < 2:
        raise DegenerateSampleError(
            f"layer weighting needs at least 2 channels as samples, got C={c}"
        )

    profiles = stack([spatial_mean(f) for f in F], axis=-1)  # (C, N) or (B, C, N)
    beta = generator.forward(profiles)                        # (N,) or (B, N)
    return weighted_sum(F_tilde, softmax(beta)), beta


def aggregate(features, ifw=None, cfw=None):
    """Fuse a feature stack with the weighting levels that are switched on.

    The one entry point of dual-level weighting. `ifw` is one
    channel-gate generator per layer, each built for n = C, and `cfw`
    the layer score generator, built for n = N layers; passing one
    switches its level on. With both off the result is the uniform mean
    of the stack, and identity weights (gates of exactly 1, equal layer
    scores) reduce either level to it bit for bit. Returns (fused,
    alphas, beta), None for a level that is off.
    """
    features = [as_tensor(f) for f in features]
    if len(features) == 0:
        raise DimensionError("aggregation needs a nonempty feature stack")
    if cfw is not None and cfw.n != len(features):
        raise DimensionError(
            f"layer score generator built for {cfw.n} layers, stack has {len(features)}"
        )
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
