"""Trainable fusion backbone: encoder, residual stack, weighted aggregation.

The network predicts the residual between an upsampled low-resolution
input and the target: H_hat = upsample(L) + decode(aggregate(F_1..F_N)).
The decoder starts at zero, so a freshly constructed model reproduces
plain bilinear upsampling bit for bit in its compute dtype, and training
only has to learn the injected detail.

Aggregation is the variant knob:
  baseline  last feature map, no extra parameters
  ifw       per-layer channel gating, uniform layer average
  cfw       ungated maps, learned softmax over layers
  adwm      both levels (channel gates + softmax layer weights)
Every weighted variant runs through `weighting.aggregate`, the one entry
point of the weighting stack: one channel-gate generator per block,
built for n = channels, and one layer-score generator built for
n = blocks.

`forward` is the one place that picks the compute dtype, after
Micikevicius et al. 2018, "Mixed precision training": the parameters
stay float64 masters, and every forward, a training step's included,
computes in float32 on float32 copies of them; only a finite-difference
check through pan or lrms computes in float64 (see
`PansharpenModel.forward`).

`forward` drops each map as soon as its last reader has run: the input
grid after the encoder conv, each block's inner map after the block's
second conv, and the feature stack after aggregation (detached first
when the weights are returned). With a tape this frees nothing, since
the tape holds what the backward reads; without one, a forward holds
the N maps that aggregation reads and the map it is making.

Checkpoint file, format 3: magic "ADWM", u32 format version, u32 config
length, config JSON (the ModelConfig fields, d_fraction among them and
no scale, plus seed; sorted keys), u32 tensor count, then one TNSR
record per parameter in declaration order. Other versions, formats 1
and 2 among them, are rejected.
"""

import contextlib
import json
import os
import struct
from dataclasses import asdict, dataclass
from numbers import Real
from typing import ClassVar

import numpy as np

from .cacw import D_FRACTION
from .data import (SCALE, TNSR_MAGIC, TNSR_MIN_BYTES, _read_u32, tensor_from_bytes,
                   tensor_to_bytes)
from .errors import ConfigurationError, DimensionError, FormatError
from .tensor import Tensor, _node, as_tensor, bias_act, concat, conv2d
# ifw_apply and cfw_apply stay importable from here because the
# perfbench span tracer patches them on this module as well; the model
# reaches them through aggregate
from .weighting import (  # noqa: F401
    AdwmConfig,
    aggregate,
    cfw_apply,
    ifw_apply,
    make_adwm_modules,
)

VARIANTS = ("baseline", "ifw", "cfw", "adwm")

CKPT_MAGIC = b"ADWM"
CKPT_VERSION = 3


@dataclass
class ModelConfig:
    bands: int
    channels: int = 48
    blocks: int = 6
    variant: str = "baseline"
    d_fraction: float = D_FRACTION
    generator: str = "cacw"
    scale: ClassVar[int] = SCALE  # a constant, not a field: never checkpointed

    def __post_init__(self):
        for name in ("bands", "channels", "blocks"):
            # an exact type test, so a JSON true/false (a bool) fails too
            if type(getattr(self, name)) is not int:
                raise ConfigurationError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        # a JSON true/false is a Python bool, which is also an int
        if isinstance(self.d_fraction, bool) or not isinstance(self.d_fraction, Real):
            raise ConfigurationError(
                f"d_fraction must be a real number, got {self.d_fraction!r}")
        # stored as a float, so 1 and 1.0 make the same checkpoint bytes
        self.d_fraction = float(self.d_fraction)
        if self.bands < 1:
            raise ConfigurationError(f"bands must be >= 1, got {self.bands}")
        if self.blocks < 1:
            raise ConfigurationError(f"blocks must be >= 1, got {self.blocks}")
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}"
            )
        self.weighting_config()  # checks channels, d_fraction and generator
        if self.variant in ("cfw", "adwm") and self.channels < 2:
            raise ConfigurationError(f"variant {self.variant} weighs layers with the channels "
                                     f"as samples: channels must be >= 2, got {self.channels}")

    def weighting_config(self):
        return AdwmConfig(
            n_layers=self.blocks,
            channels=self.channels,
            d_fraction=self.d_fraction,
            generator=self.generator,
        )


# ----------------------------------------------------------------------
# bilinear resize

def _interp_axis(length, factor):
    out = np.arange(length * factor, dtype=np.float64)
    src = np.clip((out + 0.5) / factor - 0.5, 0.0, length - 1)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, length - 1)
    return i0, i1, src - i0


def _gather(arr, axis, i0, i1, frac):
    """Linear interpolation along `axis`, counted from the end, in arr's dtype."""
    frac = frac.astype(arr.dtype, copy=False).reshape((-1,) + (1,) * (-axis - 1))
    return arr.take(i0, axis) * (1.0 - frac) + arr.take(i1, axis) * frac


def _scatter(grad, axis, length, i0, i1, frac):
    """Adjoint of `_gather`: spread `grad` back onto `length` positions."""
    shape = list(grad.shape)
    shape[axis] = length
    out = np.zeros(shape, grad.dtype)
    frac = frac.astype(grad.dtype, copy=False).reshape((-1,) + (1,) * (-axis - 1))
    trail = (slice(None),) * (-axis - 1)
    np.add.at(out, (Ellipsis, i0) + trail, grad * (1.0 - frac))
    np.add.at(out, (Ellipsis, i1) + trail, grad * frac)
    return out


def upsample_bilinear(x, factor):
    """Separable bilinear resize of the (h, w) axes of (..., h, w, c).

    Rows are resized first, then columns. Half-pixel (align-corners-false)
    sampling with edge clamping, so a constant image stays constant and
    factor 1 is the exact identity.
    """
    x = as_tensor(x)
    if x.ndim < 3:
        raise DimensionError(f"need (..., h, w, c), got shape {x.shape}")
    if factor < 1 or int(factor) != factor:
        raise ConfigurationError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    h, w = x.shape[-3], x.shape[-2]
    ri0, ri1, rf = _interp_axis(h, factor)
    ci0, ci1, cf = _interp_axis(w, factor)
    rows = _gather(x.data, -3, ri0, ri1, rf)

    def backward(g):
        g = _scatter(g, -2, w, ci0, ci1, cf)
        x._accumulate(_scatter(g, -3, h, ri0, ri1, rf))

    return _node(_gather(rows, -2, ci0, ci1, cf), (x,), backward)


# ----------------------------------------------------------------------
# model

def _float32(x):
    """A constant float32 Tensor over x's values."""
    return Tensor(np.asarray(as_tensor(x).data, dtype=np.float32))


def _he_kernel(rng, c_out, c_in, k=3):
    std = np.sqrt(2.0 / (c_in * k * k))
    return Tensor(rng.standard_normal((c_out, c_in, k, k)) * std)


class PansharpenModel:
    """Residual fusion network over a pan / low-res-bands pair.

    All parameters are float64 Tensors exposed by params() in a fixed
    declaration order; checkpoints rely on that order. `forward` reads
    them in float32 unless pan or lrms requires grad.
    """

    def __init__(self, config, seed=0):
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)
        c, C = config.bands, config.channels

        self.enc_w = _he_kernel(rng, C, c + 1)
        self.enc_b = Tensor(np.zeros(C))
        self.blocks = []
        for _ in range(config.blocks):
            self.blocks.append({
                "w1": _he_kernel(rng, C, C), "b1": Tensor(np.zeros(C)),
                "w2": _he_kernel(rng, C, C), "b2": Tensor(np.zeros(C)),
            })
        # zero decoder: the initial prediction is exactly the upsampled input
        self.dec_w = Tensor(np.zeros((c, C, 3, 3)))
        self.dec_b = Tensor(np.zeros(c))

        self.ifw = None
        self.cfw = None
        if config.variant != "baseline":
            modules = make_adwm_modules(config.weighting_config(), seed=seed)
            if config.variant in ("ifw", "adwm"):
                self.ifw = modules["ifw"]
            if config.variant in ("cfw", "adwm"):
                self.cfw = modules["cfw"]

    def params(self):
        out = [self.enc_w, self.enc_b]
        for blk in self.blocks:
            out += [blk["w1"], blk["b1"], blk["w2"], blk["b2"]]
        out += [self.dec_w, self.dec_b]
        if self.ifw is not None:
            for gen in self.ifw:
                out += gen.params()
        if self.cfw is not None:
            out += self.cfw.params()
        return out

    def param_count(self):
        return sum(p.data.size for p in self.params())

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def forward(self, pan, lrms, return_weights=False):
        """pan (H,W) or (B,H,W); lrms (h,w,c) or (B,h,w,c), channels last.

        Returns the fused (H, W, c) or (B, H, W, c) image; with
        return_weights also a dict of the raw weighting outputs, "alpha"
        (per-block channel gates) and "beta" (pre-softmax layer scores),
        None where the variant has none, plus "features", the detached
        per-block (H, W, C) or (B, H, W, C) feature maps.

        The one place that picks the compute dtype. When pan or lrms
        requires grad, as in a finite-difference check through the
        inputs, the forward computes in float64 on the float64
        parameters. Every other forward computes in float32, on float32
        copies of pan, lrms and the parameters, and every result is
        float32. A parameter that requires grad still records a tape: a
        training step's forward, whose backward reads the float32 copies
        that each op captured, and gives float32 gradients. The float64
        parameters are put back before this returns, and never written,
        also when the forward raises.
        """
        if any(isinstance(t, Tensor) and t.requires_grad for t in (pan, lrms)):
            return self._forward(as_tensor(pan), as_tensor(lrms), return_weights)
        params = self.params()
        masters = [p.data for p in params]
        try:
            for p in params:
                p.data = p.data.astype(np.float32)
            return self._forward(_float32(pan), _float32(lrms), return_weights)
        finally:
            for p, data in zip(params, masters):
                p.data = data

    def _forward(self, pan, lrms, return_weights):
        if pan.ndim not in (2, 3):
            raise DimensionError(f"pan must be (H,W) or (B,H,W), got {pan.shape}")
        batched = pan.ndim == 3
        if lrms.ndim != pan.ndim + 1:
            raise DimensionError(
                f"pan {pan.shape} and lrms {lrms.shape} disagree on batching"
            )
        H, W = pan.shape[-2], pan.shape[-1]
        h, w, c = lrms.shape[-3], lrms.shape[-2], lrms.shape[-1]
        if c != self.config.bands:
            raise DimensionError(
                f"lrms has {c} bands, model expects {self.config.bands}"
            )
        if H != h * SCALE or W != w * SCALE:
            raise DimensionError(
                f"pan {H}x{W} is not {SCALE}x the lrms grid {h}x{w}"
            )
        if batched and pan.shape[0] != lrms.shape[0]:
            raise DimensionError(
                f"batch mismatch: pan {pan.shape[0]} vs lrms {lrms.shape[0]}"
            )

        up = upsample_bilinear(lrms, SCALE)
        x = concat([pan.reshape(pan.shape + (1,)), up], axis=-1)

        # each local goes as soon as its last reader has run: without a
        # tape nothing else holds a map, so it frees there
        f = bias_act(conv2d(x, self.enc_w), self.enc_b, leaky=True)
        del x
        features = []
        for blk in self.blocks:
            y = bias_act(conv2d(f, blk["w1"]), blk["b1"], leaky=True)
            f = bias_act(conv2d(y, blk["w2"]), blk["b2"], residual=f)
            del y
            features.append(f)
        del f

        if self.config.variant == "baseline":
            fused, alphas, beta = features[-1], None, None
        else:
            fused, alphas, beta = aggregate(features, self.ifw, self.cfw)
        weights = None
        if return_weights:
            weights = {"alpha": alphas, "beta": beta,
                       "features": [f.detach() for f in features]}
        del features
        hhat = bias_act(up + conv2d(fused, self.dec_w), self.dec_b)
        if return_weights:
            return hhat, weights
        return hhat


# ----------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, model):
    """Serialize config + parameters; byte-identical for identical state.

    The bytes go to a temporary file beside `path` that then replaces it,
    so a write that fails or is cut off part-way leaves any previous
    checkpoint at `path` whole. A failed write removes its temporary file.
    """
    cfg = asdict(model.config)
    cfg["seed"] = model.seed
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    params = model.params()
    buf = bytearray()
    buf += CKPT_MAGIC
    buf += struct.pack("<I", CKPT_VERSION)
    buf += struct.pack("<I", len(blob))
    buf += blob
    buf += struct.pack("<I", len(params))
    for p in params:
        buf += tensor_to_bytes(p.data)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(bytes(buf))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != CKPT_MAGIC:
        raise FormatError("bad checkpoint magic", offset=0)
    version = _read_u32(buf, 4, "version field")
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    blob_len = _read_u32(buf, 8, "config length field")
    off = 12
    if len(buf) < off + blob_len:
        raise FormatError("truncated config block", offset=off)
    try:
        cfg = json.loads(buf[off:off + blob_len].decode())
    except ValueError as e:
        raise FormatError(f"config block is not valid JSON: {e}", offset=off)
    if not isinstance(cfg, dict):
        raise FormatError("config block is not a JSON object", offset=off)
    off += blob_len
    seed = cfg.pop("seed", 0)
    if type(seed) is not int or seed < 0:
        raise FormatError(f"seed must be a non-negative integer, got {seed!r}", offset=12)
    try:
        config = ModelConfig(**cfg)
    except TypeError as e:
        raise FormatError(f"config block does not match the schema: {e}", offset=12)
    count = _read_u32(buf, off, "tensor count field")
    off += 4
    # a count or a config that the bytes cannot hold fails before the
    # model, whose size the config alone sets, is built: a model has at
    # least 4 parameters per block and 4 more, each in its own record
    if count > (len(buf) - off) // TNSR_MIN_BYTES:
        raise FormatError(
            f"checkpoint declares {count} tensors, but its {len(buf) - off} "
            f"remaining bytes hold at most {(len(buf) - off) // TNSR_MIN_BYTES}",
            offset=off - 4,
        )
    if 4 * config.blocks + 4 > count:
        raise FormatError(
            f"checkpoint holds {count} tensors, a model of {config.blocks} "
            f"blocks needs at least {4 * config.blocks + 4}",
            offset=off - 4,
        )
    # and so does a config whose 3x3 kernels, the encoder's, two per block
    # and the decoder's, need more bytes than are left, at 4 bytes an
    # element, since float32 records load too
    bands, c = config.bands, config.channels
    weights = 9 * c * (2 * bands + 1 + 2 * config.blocks * c)
    if 4 * weights > len(buf) - off:
        raise FormatError(
            f"a model of {config.blocks} blocks of {c} channels has {weights} "
            f"kernel weights, more than its {len(buf) - off} remaining bytes hold",
            offset=12,
        )
    model = PansharpenModel(config, seed=seed)
    params = model.params()
    if count != len(params):
        raise FormatError(
            f"checkpoint holds {count} tensors, model needs {len(params)}",
            offset=off - 4,
        )
    for p in params:
        rec_off = off
        if buf[off:off + 4] != TNSR_MAGIC:
            raise FormatError("expected a tensor record", offset=off)
        arr, off = tensor_from_bytes(buf, off)
        if arr.shape != p.data.shape:
            raise FormatError(
                f"tensor shape {arr.shape} does not match parameter "
                f"shape {p.data.shape}", offset=rec_off,
            )
        p.data[...] = arr
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes", offset=off)
    return model
