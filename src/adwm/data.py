"""Synthetic dataset generation and bit-exact tensor file I/O.

The data layer works on plain pixels: every function here takes and
returns float64 numpy arrays. `adwm.tensor.Tensor` is the autodiff
tape's type only; the model's forward and the trainer's batches put
these arrays on the tape.

Scenes are procedural stand-ins for satellite ground truth: random blobs,
gratings, and rectangles, each with a spectral signature drawn from an
AR(1) chain so adjacent bands are strongly correlated (the redundancy
structure the weighting mechanism exploits). Degradation follows the
reduced-resolution protocol: the scene is both the ground truth and the
source of the simulated inputs (the sensor model `degrade_bands`,
per-band Gaussian blur then SCALE-fold decimation, for the low-res
bands; a fixed spectral average for the panchromatic band).

File formats:
  TNSR  magic "TNSR", u32 version=1, u32 rank, u32 dims[rank], u8 dtype
        (1 = float32, 2 = float64), payload little-endian row-major. The
        writer writes float64 only; the reader accepts both codes, since a
        record may come from outside the program.
  manifest.txt  one line per sample, tab-separated: id seed H W c.
"""

import hashlib
import io
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, FormatError

TNSR_MAGIC = b"TNSR"
TNSR_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_F8_CODE = 2

SCALE = 4  # resolution ratio: pan pixels per low-res pixel along each axis


# ----------------------------------------------------------------------
# TNSR records

def _read_u32(buf, off, field):
    """The little-endian u32 at `off`, or a FormatError naming `field`."""
    if len(buf) < off + 4:
        raise FormatError(f"truncated {field}", offset=off)
    return struct.unpack_from("<I", buf, off)[0]


def tensor_to_bytes(arr):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 0:
        raise FormatError("rank-0 tensors are not representable", offset=8)
    head = bytearray()
    head += TNSR_MAGIC
    head += struct.pack("<I", TNSR_VERSION)
    head += struct.pack("<I", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    head += struct.pack("<B", _F8_CODE)
    payload = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[_F8_CODE]).tobytes()
    return bytes(head) + payload


def tensor_from_bytes(buf, offset=0):
    """Decode one TNSR record starting at `offset`.

    Returns (float64 array, next_offset). Raises FormatError carrying
    the byte offset of whichever field is malformed or truncated.
    """
    start = offset
    if len(buf) < offset + 4 or buf[offset:offset + 4] != TNSR_MAGIC:
        raise FormatError("bad magic, expected TNSR", offset=start)
    offset += 4
    version = _read_u32(buf, offset, "version field")
    if version != TNSR_VERSION:
        raise FormatError(f"unsupported version {version}", offset=offset)
    offset += 4
    rank = _read_u32(buf, offset, "rank field")
    if rank == 0:
        raise FormatError("rank-0 tensors are forbidden", offset=offset)
    if rank > 32:
        raise FormatError(f"implausible rank {rank}", offset=offset)
    offset += 4
    if len(buf) < offset + 4 * rank:
        raise FormatError("truncated dims", offset=offset)
    dims = struct.unpack_from(f"<{rank}I", buf, offset)
    offset += 4 * rank
    if len(buf) < offset + 1:
        raise FormatError("truncated dtype byte", offset=offset)
    code = buf[offset]
    if code not in _DTYPE_CODES:
        raise FormatError(f"unknown dtype code {code}", offset=offset)
    offset += 1
    dt = _DTYPE_CODES[code]
    # Python integers: np.prod wraps around in int64 for large u32 dims
    count = math.prod(dims)
    need = count * dt.itemsize
    if len(buf) < offset + need:
        raise FormatError(
            f"truncated payload: need {need} bytes, have {len(buf) - offset}",
            offset=offset,
        )
    arr = np.frombuffer(buf, dtype=dt, count=count, offset=offset)
    try:
        arr = arr.reshape(dims).astype(np.float64)
    except ValueError as e:
        # an empty tensor whose other dims overflow numpy's index type
        raise FormatError(f"dims {dims} are not addressable",
                          offset=start + 12) from e
    return arr, offset + need


def write_tensor(path, arr):
    with open(path, "wb") as f:
        f.write(tensor_to_bytes(arr))


def read_tensor(path):
    with open(path, "rb") as f:
        buf = f.read()
    arr, end = tensor_from_bytes(buf)
    if end != len(buf):
        raise FormatError(f"{len(buf) - end} trailing bytes after payload", offset=end)
    return arr


# ----------------------------------------------------------------------
# scene synthesis

_BLOBS = 8
_GRATINGS = 8
_RECTS = 8
_SPECTRAL_RHO = 0.93


def _spectral_signature(rng, c):
    """AR(1) chain across bands: adjacent bands get correlated loadings."""
    a = np.empty(c)
    a[0] = rng.standard_normal()
    for j in range(1, c):
        a[j] = _SPECTRAL_RHO * a[j - 1] + np.sqrt(1 - _SPECTRAL_RHO**2) * rng.standard_normal()
    return a


def generate_scene(seed, H, W, c):
    """Deterministic procedural ground truth, (H, W, c) in [0, 1]."""
    if min(H, W) < SCALE or H % SCALE or W % SCALE:
        raise ConfigurationError(
            f"H and W must be positive multiples of {SCALE}, got {H}x{W}"
        )
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:H, 0:W].astype(np.float64)

    patterns = []
    for _ in range(_BLOBS):
        cy, cx = rng.uniform(0, H), rng.uniform(0, W)
        sig = rng.uniform(min(H, W) / 16, min(H, W) / 4)
        patterns.append(np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sig**2)))
    for _ in range(_GRATINGS):
        theta = rng.uniform(0, np.pi)
        freq = rng.uniform(2.0, 8.0)
        phase = rng.uniform(0, 2 * np.pi)
        axis = (xx * np.cos(theta) + yy * np.sin(theta)) / max(H, W)
        patterns.append(0.5 * (1 + np.sin(2 * np.pi * freq * axis + phase)))
    for _ in range(_RECTS):
        y0, x0 = rng.integers(0, H), rng.integers(0, W)
        hh = int(rng.integers(H // 8, H // 2 + 1))
        ww = int(rng.integers(W // 8, W // 2 + 1))
        box = np.zeros((H, W))
        box[y0:y0 + hh, x0:x0 + ww] = 1.0
        patterns.append(box)

    amplitudes = rng.uniform(0.3, 1.0, size=len(patterns))
    signatures = np.stack([_spectral_signature(rng, c) for _ in patterns])
    raw = np.einsum("k,kc,khw->hwc", amplitudes, signatures, np.stack(patterns))
    raw += 0.01 * rng.standard_normal((H, W, c))

    # per-band affine rescale into [0.05, 0.95]: positive affine maps keep
    # the inter-band correlation structure intact
    lo = raw.min(axis=(0, 1), keepdims=True)
    hi = raw.max(axis=(0, 1), keepdims=True)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    scene = 0.05 + 0.9 * (raw - lo) / span
    return np.clip(scene, 0.0, 1.0)


# ----------------------------------------------------------------------
# reduced-resolution degradation

_MTF_SIGMA = 1.6
_MTF_SIZE = 7


def _gaussian_kernel1d(sigma, size):
    r = np.arange(size) - size // 2
    k = np.exp(-(r**2) / (2 * sigma**2))
    return k / k.sum()


def _blur_reflect(band, k1d):
    """Separable blur with reflect padding on a single 2-D band."""
    p = len(k1d) // 2
    padded = np.pad(band, p, mode="reflect")
    tmp = np.zeros((band.shape[0], padded.shape[1]))
    for i, w in enumerate(k1d):
        tmp += w * padded[i:i + band.shape[0], :]
    out = np.zeros(band.shape)
    for j, w in enumerate(k1d):
        out += w * tmp[:, j:j + band.shape[1]]
    return out


def blur_bands(img):
    """Per-band Gaussian blur standing in for the sensor transfer function."""
    arr = np.asarray(img, dtype=np.float64)
    k1d = _gaussian_kernel1d(_MTF_SIGMA, _MTF_SIZE)
    return np.stack([_blur_reflect(arr[:, :, b], k1d) for b in range(arr.shape[2])], axis=2)


def degrade_bands(img):
    """The sensor model: (H, W, c) -> (H/SCALE, W/SCALE, c), each band
    blurred, then decimated SCALE-fold."""
    return blur_bands(img)[::SCALE, ::SCALE, :]


def wald_degrade(gt):
    """Ground truth -> (pan, lrms) simulated acquisition pair.

    lrms is the sensor model applied to the scene; pan is the uniform
    spectral average of the unblurred scene.
    """
    arr = np.asarray(gt, dtype=np.float64)
    if arr.ndim != 3:
        raise DimensionError(f"ground truth must be (H, W, c), got {arr.shape}")
    c = arr.shape[2]
    lrms = degrade_bands(arr)
    pan = arr @ np.full(c, 1.0 / c)
    return pan, lrms


# ----------------------------------------------------------------------
# datasets

@dataclass
class SamplePair:
    id: str
    pan: np.ndarray    # (H, W)
    lrms: np.ndarray   # (H/SCALE, W/SCALE, c)
    gt: np.ndarray     # (H, W, c)


def build_dataset(seed, count, H, W, c, out_dir):
    """Write `count` samples plus manifest.txt; returns the manifest path."""
    if count < 1 or c < 1:
        raise ConfigurationError(f"need count >= 1 and c >= 1, got {count} and {c}")
    sample_seeds = np.random.SeedSequence(seed).generate_state(count)

    def emit(i):
        sid = f"sample_{i:05d}"
        sdir = os.path.join(out_dir, sid)
        # the scene checks H and W, so a bad size writes nothing
        gt = generate_scene(int(sample_seeds[i]), H, W, c)
        os.makedirs(sdir, exist_ok=True)
        pan, lrms = wald_degrade(gt)
        write_tensor(os.path.join(sdir, "gt.tnsr"), gt)
        write_tensor(os.path.join(sdir, "pan.tnsr"), pan)
        write_tensor(os.path.join(sdir, "lrms.tnsr"), lrms)
        return sid

    ids = [emit(i) for i in range(count)]

    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w") as f:
        for i, sid in enumerate(ids):
            f.write(f"{sid}\t{int(sample_seeds[i])}\t{H}\t{W}\t{c}\n")
    return manifest


def _plain_component(sid):
    """True when `sid` names one entry inside a directory and nothing else."""
    return sid not in ("", ".", "..") and not any(ch in sid for ch in "/\\\0")


def read_manifest(data_dir):
    """Rows of manifest.txt as dicts: id (str), seed, H, W and c (int).

    Each id must be one plain path component, so a sample never resolves
    outside `data_dir`. Bytes that are not UTF-8, a line without exactly
    five fields, a non-integer number field, an id that is not a plain
    component or an id that an earlier line lists raise FormatError.
    """
    manifest = os.path.join(data_dir, "manifest.txt")
    if not os.path.isfile(manifest):
        raise ConfigurationError(f"no manifest.txt under {data_dir}")
    with open(manifest, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"manifest.txt is not UTF-8: {e.reason}",
                          offset=e.start) from None
    rows = []
    line_of = {}  # sample id -> the line that lists it
    # newline=None splits lines as reading the file in text mode does
    for no, line in enumerate(io.StringIO(text, newline=None), 1):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 5:
            raise FormatError(f"malformed manifest line {no}: {line!r}")
        if not _plain_component(parts[0]):
            raise FormatError(
                f"manifest line {no}: sample id {parts[0]!r} is not a plain file name"
            )
        try:
            seed, H, W, c = (int(v) for v in parts[1:])
        except ValueError:
            raise FormatError(
                f"manifest line {no}: seed, H, W and c must be integers, got {parts[1:]!r}"
            ) from None
        if parts[0] in line_of:
            raise FormatError(f"manifest line {no}: sample id {parts[0]!r} "
                              f"repeats line {line_of[parts[0]]}")
        line_of[parts[0]] = no
        rows.append({"id": parts[0], "seed": seed, "H": H, "W": W, "c": c})
    if not rows:
        raise ConfigurationError(f"manifest.txt under {data_dir} lists no samples")
    return rows


def load_sample(data_dir, sample_id):
    if not _plain_component(sample_id):
        raise FormatError(f"sample id {sample_id!r} is not a plain file name")
    sdir = os.path.join(data_dir, sample_id)
    try:
        return SamplePair(
            id=sample_id,
            pan=read_tensor(os.path.join(sdir, "pan.tnsr")),
            lrms=read_tensor(os.path.join(sdir, "lrms.tnsr")),
            gt=read_tensor(os.path.join(sdir, "gt.tnsr")),
        )
    except FileNotFoundError as e:
        raise ConfigurationError(f"sample {sample_id} is missing {e.filename}") from None


def load_dataset(data_dir):
    return [load_sample(data_dir, row["id"]) for row in read_manifest(data_dir)]


def split_ids(ids, test_count):
    """Deterministic hash split: disjoint, exhaustive, order-independent.

    Samples are ranked by the SHA-256 of their id; the first `test_count`
    become the held-out set.
    """
    if not 0 <= test_count <= len(ids):
        raise ConfigurationError(
            f"test_count {test_count} out of range for {len(ids)} samples"
        )
    ranked = sorted(ids, key=lambda s: (hashlib.sha256(s.encode()).hexdigest(), s))
    test = set(ranked[:test_count])
    return [s for s in ids if s not in test], [s for s in ids if s in test]
