"""Trainable fusion backbone: encoder, residual stack, weighted aggregation.

The network predicts the residual between an upsampled low-resolution
input and the target: H_hat = upsample(L) + decode(aggregate(F_1..F_N)).
The decoder starts at zero, so a freshly constructed model reproduces
plain bilinear upsampling bit for bit and training only has to learn the
injected detail.

Aggregation is the variant knob:
  baseline  last feature map, no extra parameters
  ifw       per-layer channel gating, uniform layer average
  cfw       ungated maps, learned softmax over layers
  adwm      both levels (channel gates + softmax layer weights)

Checkpoint file: magic "ADWM", u32 format version, u32 config length,
config JSON (sorted keys), u32 tensor count, then one TNSR record per
parameter in declaration order.
"""

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import TNSR_MAGIC, tensor_from_bytes, tensor_to_bytes
from .errors import ConfigurationError, DimensionError, FormatError
from .tensor import Tensor, concat, conv2d
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
CKPT_VERSION = 1


@dataclass
class ModelConfig:
    bands: int
    channels: int = 48
    blocks: int = 6
    scale: int = 4
    variant: str = "baseline"
    ifw_d_fraction: float = 0.8
    cfw_d_fraction: float = 0.8
    generator: str = "cacw"
    share_ifw: bool = False

    def __post_init__(self):
        if self.bands < 1:
            raise ConfigurationError(f"bands must be >= 1, got {self.bands}")
        if self.channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {self.channels}")
        if self.blocks < 1:
            raise ConfigurationError(f"blocks must be >= 1, got {self.blocks}")
        if self.scale < 1:
            raise ConfigurationError(f"scale must be >= 1, got {self.scale}")
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}"
            )

    def weighting_config(self):
        return AdwmConfig(
            n_layers=self.blocks,
            channels=self.channels,
            ifw_d_fraction=self.ifw_d_fraction,
            cfw_d_fraction=self.cfw_d_fraction,
            share_ifw=self.share_ifw,
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


def _gather_last(arr, i0, i1, frac):
    return arr[..., i0] * (1.0 - frac) + arr[..., i1] * frac


def _scatter_last(grad, length, i0, i1, frac):
    out = np.zeros(grad.shape[:-1] + (length,))
    np.add.at(out, (Ellipsis, i0), grad * (1.0 - frac))
    np.add.at(out, (Ellipsis, i1), grad * frac)
    return out


def upsample_bilinear(x, factor):
    """Separable bilinear resize of the trailing two axes by `factor`.

    Half-pixel (align-corners-false) sampling with edge clamping, so a
    constant image stays constant and factor 1 is the exact identity.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim < 2:
        raise DimensionError(f"need at least 2 spatial axes, got shape {x.shape}")
    if factor < 1 or int(factor) != factor:
        raise ConfigurationError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    h, w = x.shape[-2], x.shape[-1]
    ri0, ri1, rf = _interp_axis(h, factor)
    ci0, ci1, cf = _interp_axis(w, factor)
    rows = _gather_last(x.data.swapaxes(-1, -2), ri0, ri1, rf).swapaxes(-1, -2)
    data = _gather_last(rows, ci0, ci1, cf)
    out = Tensor(data, _parents=(x,))
    if x.requires_grad:
        out.requires_grad = True

        def _backward():
            g = _scatter_last(out.grad, w, ci0, ci1, cf)
            g = _scatter_last(g.swapaxes(-1, -2), h, ri0, ri1, rf).swapaxes(-1, -2)
            x._accumulate(g)

        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# model

def _he_kernel(rng, c_out, c_in, k=3):
    std = np.sqrt(2.0 / (c_in * k * k))
    return Tensor(rng.standard_normal((c_out, c_in, k, k)) * std)


class PansharpenModel:
    """Residual fusion network over a pan / low-res-bands pair.

    All parameters are float64 Tensors exposed by params() in a fixed
    declaration order; checkpoints rely on that order.
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
            seen = set()
            for gen in self.ifw:
                if id(gen) not in seen:
                    seen.add(id(gen))
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
        """pan (H,W) or (B,H,W); lrms (h,w,c) or (B,h,w,c), channel-last.

        Returns the fused image in the same channel-last layout; with
        return_weights also a dict of the raw weighting outputs, "alpha"
        (per-block channel gates) and "beta" (pre-softmax layer scores),
        None where the variant has none, plus "features", the detached
        per-block feature maps.
        """
        pan = pan if isinstance(pan, Tensor) else Tensor(pan)
        lrms = lrms if isinstance(lrms, Tensor) else Tensor(lrms)
        if pan.ndim not in (2, 3):
            raise DimensionError(f"pan must be (H,W) or (B,H,W), got {pan.shape}")
        batched = pan.ndim == 3
        if lrms.ndim != pan.ndim + 1:
            raise DimensionError(
                f"pan {pan.shape} and lrms {lrms.shape} disagree on batching"
            )
        s = self.config.scale
        H, W = pan.shape[-2], pan.shape[-1]
        h, w, c = lrms.shape[-3], lrms.shape[-2], lrms.shape[-1]
        if c != self.config.bands:
            raise DimensionError(
                f"lrms has {c} bands, model expects {self.config.bands}"
            )
        if H != h * s or W != w * s:
            raise DimensionError(
                f"pan {H}x{W} is not {s}x the lrms grid {h}x{w}"
            )
        if batched and pan.shape[0] != lrms.shape[0]:
            raise DimensionError(
                f"batch mismatch: pan {pan.shape[0]} vs lrms {lrms.shape[0]}"
            )

        cf = lrms.transpose(0, 3, 1, 2) if batched else lrms.transpose(2, 0, 1)
        up = upsample_bilinear(cf, s)
        p = pan.reshape((pan.shape[0], 1, H, W) if batched else (1, H, W))
        x = concat([p, up], axis=-3)

        f = (conv2d(x, self.enc_w) + self.enc_b.reshape((-1, 1, 1))).leaky_relu()
        features = []
        for blk in self.blocks:
            y = conv2d(f, blk["w1"]) + blk["b1"].reshape((-1, 1, 1))
            y = conv2d(y.leaky_relu(), blk["w2"]) + blk["b2"].reshape((-1, 1, 1))
            f = f + y
            features.append(f)

        if self.config.variant == "baseline":
            fused, alphas, beta = features[-1], None, None
        else:
            fused, alphas, beta = aggregate(features, self.ifw, self.cfw)
        out = up + conv2d(fused, self.dec_w) + self.dec_b.reshape((-1, 1, 1))
        hhat = out.transpose(0, 2, 3, 1) if batched else out.transpose(1, 2, 0)
        if return_weights:
            return hhat, {"alpha": alphas, "beta": beta,
                          "features": [f.detach() for f in features]}
        return hhat


def build_model(config, seed=0):
    return PansharpenModel(config, seed=seed)


# ----------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, model):
    """Serialize config + parameters; byte-identical for identical state."""
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
        buf += tensor_to_bytes(p)
    with open(path, "wb") as f:
        f.write(bytes(buf))


def _read_u32(buf, off, field):
    if len(buf) < off + 4:
        raise FormatError(f"truncated {field}", offset=off)
    return struct.unpack_from("<I", buf, off)[0]


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
    off += blob_len
    seed = cfg.pop("seed", 0)
    try:
        config = ModelConfig(**cfg)
    except TypeError as e:
        raise FormatError(f"config block does not match the schema: {e}", offset=12)
    model = PansharpenModel(config, seed=seed)
    params = model.params()
    count = _read_u32(buf, off, "tensor count field")
    off += 4
    if count != len(params):
        raise FormatError(
            f"checkpoint holds {count} tensors, model needs {len(params)}",
            offset=off - 4,
        )
    for p in params:
        rec_off = off
        if buf[off:off + 4] != TNSR_MAGIC:
            raise FormatError("expected a tensor record", offset=off)
        t, off = tensor_from_bytes(buf, off)
        if t.data.shape != p.data.shape:
            raise FormatError(
                f"tensor shape {t.data.shape} does not match parameter "
                f"shape {p.data.shape}", offset=rec_off,
            )
        p.data[...] = t.data
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes", offset=off)
    return model
