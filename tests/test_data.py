import ast
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwm.data import (
    SCALE,
    SamplePair,
    blur_bands,
    build_dataset,
    degrade_bands,
    generate_scene,
    load_dataset,
    load_sample,
    read_manifest,
    read_tensor,
    split_ids,
    tensor_from_bytes,
    tensor_to_bytes,
    wald_degrade,
    write_tensor,
)
from adwm import data
from adwm.errors import AdwmError, ConfigurationError, FormatError
from adwm.tensor import Tensor


# ----------------------------------------------------------------------
# TNSR records


def test_roundtrip_bytes_identity():
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 5), (4, 3, 2), (1, 1, 1, 1)]:
        arr = rng.standard_normal(shape)
        t, end = tensor_from_bytes(tensor_to_bytes(arr))
        assert t.shape == shape
        np.testing.assert_array_equal(t, arr)


def test_roundtrip_file_bit_exact(tmp_path):
    arr = np.random.default_rng(1).standard_normal((5, 7))
    p = tmp_path / "a.tnsr"
    write_tensor(p, arr)
    back = read_tensor(p)
    assert back.tobytes() == arr.tobytes()
    # writing the same tensor twice gives identical files
    p2 = tmp_path / "b.tnsr"
    write_tensor(p2, arr)
    assert p.read_bytes() == p2.read_bytes()


def test_float32_payload_upcast():
    # the writer writes float64 only; a float32 record comes from outside
    arr = np.array([[1.5, -2.25]])
    buf = tnsr_header(arr.shape, code=1) + arr.astype("<f4").tobytes()
    t, _ = tensor_from_bytes(buf)
    assert t.dtype == np.float64
    np.testing.assert_array_equal(t, arr)  # values exactly representable


def test_header_layout():
    buf = tensor_to_bytes(np.zeros((2, 3)))
    assert buf[:4] == b"TNSR"
    assert struct.unpack_from("<I", buf, 4)[0] == 1        # version
    assert struct.unpack_from("<I", buf, 8)[0] == 2        # rank
    assert struct.unpack_from("<II", buf, 12) == (2, 3)    # dims
    assert buf[20] == 2                                    # f8 code
    assert len(buf) == 21 + 6 * 8


def test_rank0_rejected():
    with pytest.raises(FormatError):
        tensor_to_bytes(np.float64(3.0))


def test_bad_magic_offset():
    buf = b"XXXX" + tensor_to_bytes(np.zeros(3))[4:]
    with pytest.raises(FormatError) as e:
        tensor_from_bytes(buf)
    assert e.value.offset == 0
    assert "byte offset 0" in str(e.value)


def test_bad_version_offset():
    buf = bytearray(tensor_to_bytes(np.zeros(3)))
    struct.pack_into("<I", buf, 4, 99)
    with pytest.raises(FormatError) as e:
        tensor_from_bytes(bytes(buf))
    assert e.value.offset == 4


def test_truncated_payload_offset():
    buf = tensor_to_bytes(np.zeros((2, 2)))
    with pytest.raises(FormatError) as e:
        tensor_from_bytes(buf[:-5])
    # payload starts right after 4+4+4+8+1 = 21 header bytes
    assert e.value.offset == 21


def tnsr_header(dims, code=2):
    return (b"TNSR" + struct.pack("<II", 1, len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + bytes([code]))


def test_dims_overflow_is_format_error():
    # the element count wraps to 0 in int64; (0, ...) overflows numpy's
    # index type even though the tensor is empty
    for dims in [(2**21, 2**21, 2**22), (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)]:
        with pytest.raises(FormatError) as e:
            tensor_from_bytes(tnsr_header(dims))
        assert e.value.offset in (12, 12 + 4 * len(dims) + 1)
    t, end = tensor_from_bytes(tnsr_header((0, 3)))
    assert t.shape == (0, 3) and end == 21


PROPERTY = settings(database=None, derandomize=True, deadline=None)


def _parses_or_format_error(buf):
    try:
        tensor_from_bytes(buf)
    except FormatError:
        pass


@PROPERTY
@given(st.binary(max_size=64))
def test_any_bytes_parse_or_format_error(buf):
    _parses_or_format_error(buf)
    _parses_or_format_error(b"TNSR" + buf)
    _parses_or_format_error(b"TNSR\x01\x00\x00\x00" + buf)


@settings(PROPERTY, max_examples=400)
@given(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=32),
       st.sampled_from([1, 2]), st.binary(max_size=48))
def test_any_u32_dims_parse_or_format_error(dims, code, payload):
    _parses_or_format_error(tnsr_header(dims, code) + payload)


def test_data_layer_is_off_the_tape():
    # the data layer takes and returns arrays; the model builds its tape
    with open(data.__file__) as f:
        tree = ast.parse(f.read())
    modules = [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    modules += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names]
    assert [m for m in modules if m.split(".")[-1] == "tensor"] == []
    # a stray Tensor is not read as a 0-d object array
    arr = np.zeros((4, 4, 2))
    for fn in (tensor_to_bytes, blur_bands, wald_degrade):
        fn(arr)
        with pytest.raises(TypeError):
            fn(Tensor(arr))


def test_trailing_garbage_rejected(tmp_path):
    p = tmp_path / "x.tnsr"
    p.write_bytes(tensor_to_bytes(np.zeros(2)) + b"\x00")
    with pytest.raises(FormatError):
        read_tensor(p)


# ----------------------------------------------------------------------
# scenes


def test_scene_shape_range_determinism():
    a = generate_scene(7, 32, 48, 4)
    b = generate_scene(7, 32, 48, 4)
    assert a.shape == (32, 48, 4)
    assert a.min() >= 0.0 and a.max() <= 1.0
    np.testing.assert_array_equal(a, b)
    c = generate_scene(8, 32, 48, 4)
    assert not np.array_equal(a, c)


def test_scene_dims_must_divide_by_four():
    for H, W in [(30, 32), (32, 30), (33, 33)]:
        with pytest.raises(ConfigurationError):
            generate_scene(0, H, W, 4)


def test_adjacent_band_correlation_over_100_seeds():
    # empirical floor measured at 0.70 across seeds 0..99; the contract is 0.5
    for seed in range(100):
        flat = generate_scene(seed, 32, 32, 4).reshape(-1, 4)
        cc = np.corrcoef(flat.T)
        for i in range(3):
            assert cc[i, i + 1] > 0.5, f"seed {seed}, bands {i},{i+1}: {cc[i, i+1]}"


# ----------------------------------------------------------------------
# degradation


def test_blur_preserves_constant():
    const = np.full((16, 16, 3), 0.37)
    out = blur_bands(const)
    np.testing.assert_allclose(out, const, atol=1e-12)


def test_blur_matches_direct_convolution():
    # oracle: dense 7x7 convolution over an explicitly reflect-padded band
    rng = np.random.default_rng(3)
    band = rng.standard_normal((12, 10))
    r = np.arange(7) - 3
    k1 = np.exp(-(r**2) / (2 * 1.6**2))
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    padded = np.pad(band, 3, mode="reflect")
    expected = np.zeros_like(band)
    for i in range(12):
        for j in range(10):
            expected[i, j] = (padded[i:i + 7, j:j + 7] * k2).sum()
    got = blur_bands(band[:, :, None])[:, :, 0]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_degrade_bands_is_blur_then_decimation():
    rng = np.random.default_rng(4)
    img = rng.random((16, 12, 3))
    low = degrade_bands(img)
    assert low.shape == (16 // SCALE, 12 // SCALE, 3)
    np.testing.assert_array_equal(low, blur_bands(img)[::SCALE, ::SCALE])
    np.testing.assert_array_equal(wald_degrade(img)[1], low)


def test_degrade_shapes_and_pan_average():
    gt = generate_scene(11, 32, 64, 4)
    pan, lrms = wald_degrade(gt)
    assert pan.shape == (32, 64)
    assert lrms.shape == (8, 16, 4)
    np.testing.assert_allclose(pan, gt.mean(axis=2), atol=1e-12)


def test_degrade_is_pure():
    gt = generate_scene(5, 16, 16, 4)
    p1, l1 = wald_degrade(gt)
    p2, l2 = wald_degrade(gt)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(l1, l2)


def test_lrms_band_means_close_to_gt():
    # blur + decimation should not shift radiometry by more than 2%
    for seed in range(10):
        gt = generate_scene(seed, 64, 64, 4)
        _, lrms = wald_degrade(gt)
        gm = gt.mean(axis=(0, 1))
        lm = lrms.mean(axis=(0, 1))
        assert np.all(np.abs(lm - gm) <= 0.02 * np.abs(gm))


# ----------------------------------------------------------------------
# dataset build / split


def test_build_dataset_layout_and_roundtrip(tmp_path):
    manifest = build_dataset(42, 3, 16, 16, 4, tmp_path)
    rows = read_manifest(tmp_path)
    assert [r["id"] for r in rows] == ["sample_00000", "sample_00001", "sample_00002"]
    assert all(r["H"] == 16 and r["W"] == 16 and r["c"] == 4 for r in rows)
    with open(manifest) as f:
        first = f.readline().rstrip("\n").split("\t")
    assert len(first) == 5

    for row in rows:
        s = load_sample(tmp_path, row["id"])
        gt = generate_scene(row["seed"], 16, 16, 4)
        pan, lrms = wald_degrade(gt)
        np.testing.assert_array_equal(s.gt, gt)
        np.testing.assert_array_equal(s.pan, pan)
        np.testing.assert_array_equal(s.lrms, lrms)


def test_build_dataset_deterministic(tmp_path):
    build_dataset(7, 2, 16, 16, 3, tmp_path / "a")
    build_dataset(7, 2, 16, 16, 3, tmp_path / "b")
    for sid in ["sample_00000", "sample_00001"]:
        for name in ["pan", "lrms", "gt"]:
            fa = (tmp_path / "a" / sid / f"{name}.tnsr").read_bytes()
            fb = (tmp_path / "b" / sid / f"{name}.tnsr").read_bytes()
            assert fa == fb


@pytest.mark.parametrize("count, H, W, c", [
    (0, 16, 16, 4), (-1, 16, 16, 4), (1, 16, 16, 0),
    (1, 0, 0, 4), (1, 16, -16, 4), (1, SCALE // 2, SCALE // 2, 4), (1, 18, 16, 4),
])
def test_build_dataset_rejects_bad_inputs(tmp_path, count, H, W, c):
    with pytest.raises(ConfigurationError):
        build_dataset(0, count, H, W, c, tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_build_dataset_smallest_size(tmp_path):
    build_dataset(0, 1, SCALE, SCALE, 1, tmp_path)
    s = load_sample(tmp_path, "sample_00000")
    assert s.gt.shape == (SCALE, SCALE, 1) and s.lrms.shape == (1, 1, 1)


@pytest.mark.parametrize("sid", ["..", ".", "", "../outside", "a/b", "a\\b"])
def test_load_sample_rejects_path_like_ids(tmp_path, sid):
    build_dataset(0, 1, 16, 16, 2, tmp_path / "d")
    os.rename(tmp_path / "d" / "sample_00000", tmp_path / "outside")
    with pytest.raises(FormatError):
        load_sample(tmp_path / "d", sid)


def test_load_sample_rejects_absolute_path(tmp_path):
    build_dataset(0, 1, 16, 16, 2, tmp_path / "d")
    with pytest.raises(FormatError):
        load_sample(tmp_path / "d", str(tmp_path / "d" / "sample_00000"))


def test_load_dataset(tmp_path):
    build_dataset(1, 2, 16, 16, 2, tmp_path)
    pairs = load_dataset(tmp_path)
    assert len(pairs) == 2
    assert isinstance(pairs[0], SamplePair)
    assert pairs[0].gt.shape == (16, 16, 2)


def test_split_disjoint_exhaustive_deterministic():
    ids = [f"sample_{i:05d}" for i in range(50)]
    train, test = split_ids(ids, 8)
    assert len(test) == 8
    assert sorted(train + test) == sorted(ids)
    assert not set(train) & set(test)
    train2, test2 = split_ids(list(reversed(ids)), 8)
    assert set(test2) == set(test)  # order-independent membership


def test_split_bad_count():
    with pytest.raises(ConfigurationError):
        split_ids(["a", "b"], 3)


def test_missing_manifest(tmp_path):
    with pytest.raises(ConfigurationError):
        read_manifest(tmp_path)


@pytest.mark.parametrize("line, needle", [
    ("sample_00000\tx\t16\t16\t4\n", "must be integers"),
    ("sample_00000\t1\t16\t16.0\t4\n", "must be integers"),
    ("sample_00000\t1\t16\t16\n", "malformed"),
    ("../d/sample_00000\t1\t16\t16\t4\n", "plain file name"),
    ("/abs\t1\t16\t16\t4\n", "plain file name"),
    ("..\t1\t16\t16\t4\n", "plain file name"),
    ("\t1\t16\t16\t4\n", "plain file name"),
    ("a\\b\t1\t16\t16\t4\n", "plain file name"),
])
def test_manifest_bad_rows_are_format_errors(tmp_path, line, needle):
    (tmp_path / "manifest.txt").write_text("sample_00001\t2\t16\t16\t4\n" + line)
    with pytest.raises(FormatError, match=needle) as e:
        read_manifest(tmp_path)
    assert "line 2" in str(e.value)


def test_manifest_non_utf8_is_format_error(tmp_path):
    (tmp_path / "manifest.txt").write_bytes(
        b"sample_00000\t1\t16\t16\t4\nsam\xffple\t1\t1\t1\t1\n")
    with pytest.raises(FormatError, match="not UTF-8") as e:
        read_manifest(tmp_path)
    assert e.value.offset == 26


def test_manifest_keeps_text_mode_line_endings(tmp_path):
    (tmp_path / "manifest.txt").write_bytes(
        b"a\t1\t16\t16\t4\r\nb\t2\t8\t8\t3\rc\t3\t4\t4\t2")
    rows = read_manifest(tmp_path)
    assert [r["id"] for r in rows] == ["a", "b", "c"]
    assert rows[1] == {"id": "b", "seed": 2, "H": 8, "W": 8, "c": 3}


@settings(PROPERTY, max_examples=400)
@given(st.one_of(
    st.binary(max_size=96),
    st.lists(st.lists(st.one_of(st.text(max_size=8), st.integers(-3, 99).map(str)),
                      min_size=4, max_size=6).map("\t".join),
             max_size=4).map(lambda ls: "\n".join(ls).encode()),
))
def test_any_manifest_bytes_give_rows_or_adwm_error(tmp_path_factory, raw):
    d = tmp_path_factory.mktemp("m")
    (d / "manifest.txt").write_bytes(raw)
    try:
        rows = read_manifest(d)
    except AdwmError:
        return
    for r in rows:
        assert os.path.dirname(os.path.join(d, r["id"])) == str(d)
        assert r["id"] not in (".", "..")
        assert all(type(r[k]) is int for k in ("seed", "H", "W", "c"))
