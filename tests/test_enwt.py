"""Weight container tests: exact roundtrips, size accounting, and rejection
of malformed bytes with useful offsets."""

import struct

import numpy as np
import pytest

from enetcpu.analyzer import count_params, model_size_fp16
from enetcpu.enwt import MAGIC, VERSION, load_weights, read_index, save_weights
from enetcpu.errors import FormatError
from enetcpu.graph import build_enet, init_weights
from enetcpu.tensor import DType


def _store(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "a.weight": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
        "a.bias": rng.standard_normal(4).astype(np.float32),
        "b.gamma": rng.standard_normal((2, 5)).astype(np.float32),
        "deep.nested.name.mean": rng.standard_normal(1).astype(np.float32),
    }


def test_roundtrip_f32_bitwise(tmp_path):
    path = tmp_path / "w.enwt"
    store = _store()
    nbytes = save_weights(store, path)
    assert nbytes == path.stat().st_size
    loaded = load_weights(path)
    assert list(loaded) == list(store)  # record order preserved
    for name in store:
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == store[name].shape
        assert np.array_equal(loaded[name].view(np.uint32),
                              store[name].view(np.uint32))


def test_roundtrip_f16_widened(tmp_path):
    path = tmp_path / "w.enwt"
    store = _store(1)
    save_weights(store, path, dtype=DType.F16)
    loaded = load_weights(path)
    for name in store:
        assert loaded[name].dtype == np.float32
        want = store[name].astype(np.float16).astype(np.float32)
        assert np.array_equal(loaded[name], want)


def test_f16_halves_the_payload(tmp_path):
    store = _store(2)
    n32 = save_weights(store, tmp_path / "a.enwt", dtype=DType.F32)
    n16 = save_weights(store, tmp_path / "b.enwt", dtype=DType.F16)
    payload = sum(v.size for v in store.values())
    assert n32 - n16 == 2 * payload


def test_header_layout_is_fixed(tmp_path):
    path = tmp_path / "w.enwt"
    save_weights({"x": np.float32([1.5, -2.0])}, path)
    buf = path.read_bytes()
    # magic, version, count, then one record: name len, name, dtype, rank, dim
    want = (MAGIC + struct.pack("<II", VERSION, 1)
            + struct.pack("<H", 1) + b"x" + bytes([0, 1])
            + struct.pack("<I", 2)
            + np.float32([1.5, -2.0]).tobytes())
    assert buf == want


def test_read_index(tmp_path):
    path = tmp_path / "w.enwt"
    store = _store(3)
    save_weights(store, path, dtype=DType.F16)
    idx = read_index(path)
    assert idx.version == VERSION
    assert idx.names == tuple(store)
    assert [r.shape for r in idx.records] == [v.shape for v in store.values()]
    assert all(r.dtype == DType.F16 for r in idx.records)
    offsets = [r.offset for r in idx.records]
    assert offsets == sorted(offsets) and offsets[0] == 12


def test_container_size_matches_static_analysis(tmp_path):
    g = build_enet(19, 512, 512)
    store = init_weights(g, seed=0)
    size = model_size_fp16(g)
    n16 = save_weights(store, tmp_path / "m16.enwt", dtype=DType.F16)
    assert n16 == size.container_bytes
    n32 = save_weights(store, tmp_path / "m32.enwt", dtype=DType.F32)
    assert n32 == size.container_bytes + 2 * count_params(g)


def test_empty_store_roundtrip(tmp_path):
    path = tmp_path / "w.enwt"
    assert save_weights({}, path) == 12
    assert load_weights(path) == {}


@pytest.mark.parametrize("shape", [(), (3,), (2, 3, 1, 1)], ids=str)
@pytest.mark.parametrize("dtype", [DType.F32, DType.F16])
def test_roundtrip_keeps_the_declared_shape_read_index_reports(tmp_path, shape,
                                                               dtype):
    path = tmp_path / "w.enwt"
    arr = (np.arange(1, 1 + np.prod(shape, dtype=int), dtype=np.float32)
           / 4).reshape(shape)
    save_weights({"x": arr}, path, dtype=dtype)
    loaded = load_weights(path)["x"]
    assert loaded.shape == shape == read_index(path).records[0].shape
    assert loaded.dtype == np.float32 and loaded.flags.writeable
    np.testing.assert_array_equal(loaded, arr)


@pytest.mark.parametrize("value,why", [
    (np.zeros((2, 0, 3), np.float32), r"'b' has a zero-sized dim in \(2, 0, 3\)"),
    ([1.0, 2.0], "'b' is a list, not a numpy array"),
    (np.float32(1.0), "'b' is a float32, not a numpy array"),
], ids=["zero-dim", "list", "numpy-scalar"])
def test_save_refuses_what_load_could_not_read_back(tmp_path, value, why):
    path = tmp_path / "w.enwt"
    with pytest.raises(FormatError, match=why):
        save_weights({"a": np.float32([1.0]), "b": value}, path)
    assert not path.exists()


def test_save_rejects_bad_records(tmp_path):
    path = tmp_path / "w.enwt"
    with pytest.raises(FormatError, match="name length"):
        save_weights({"": np.float32([1.0])}, path)
    with pytest.raises(FormatError, match="rank"):
        save_weights({"x": np.zeros((1,) * 9, np.float32)}, path)


@pytest.mark.parametrize("dtype,store", [
    (DType.F16, {"a.weight": np.float32([1.0, 65504.0]),
                 "b.weight": np.float32([[0.5, -7e4], [np.inf, 1e5]])}),
    (DType.F32, {"a.weight": np.float32([1.0]),
                 "b.weight": np.array([-np.inf, 1e39, 1e300])}),
], ids=["f16", "f32"])
def test_save_refuses_a_finite_value_the_dtype_cannot_hold(tmp_path, dtype,
                                                          store):
    # a cast to inf would load back as inf and fail every execute far from
    # the cause; an infinity already in the store is not counted
    path = tmp_path / "w.enwt"
    with pytest.raises(FormatError, match=r"'b\.weight': 2 finite value\(s\) "
                                          rf"beyond the {dtype.name} range"):
        save_weights(store, path, dtype=dtype)
    assert not path.exists()


def _valid_bytes(store=None):
    import tempfile
    import os
    fd, path = tempfile.mkstemp(suffix=".enwt")
    os.close(fd)
    try:
        save_weights(store if store is not None else _store(), path)
        with open(path, "rb") as f:
            return f.read()
    finally:
        os.unlink(path)


def _expect_error(tmp_path, buf, fragment):
    path = tmp_path / "bad.enwt"
    path.write_bytes(buf)
    with pytest.raises(FormatError, match=fragment):
        load_weights(path)


def test_bad_magic(tmp_path):
    buf = _valid_bytes()
    _expect_error(tmp_path, b"XXXX" + buf[4:], "bad magic b'XXXX' at offset 0")


def test_unsupported_version(tmp_path):
    buf = bytearray(_valid_bytes())
    struct.pack_into("<I", buf, 4, 99)
    _expect_error(tmp_path, bytes(buf), "unsupported version 99 at offset 4")


def test_truncated_header(tmp_path):
    buf = _valid_bytes()
    _expect_error(tmp_path, buf[:2],
                  r"truncated at offset 0 while reading magic \(4 bytes needed, 2 left\)")
    _expect_error(tmp_path, buf[:9], "truncated at offset 8 while reading record count")


def test_truncated_payload(tmp_path):
    buf = _valid_bytes()
    _expect_error(tmp_path, buf[:-1], r"truncated .* payload")


def test_trailing_bytes(tmp_path):
    buf = _valid_bytes()
    _expect_error(tmp_path, buf + b"\x00\x00\x00",
                  "3 trailing bytes after the last record")


def test_unknown_dtype_code(tmp_path):
    buf = bytearray(_valid_bytes({"x": np.float32([1.0])}))
    # record starts at 12: u16 len, name, dtype byte
    assert buf[12:14] == struct.pack("<H", 1) and buf[14:15] == b"x"
    buf[15] = 7
    _expect_error(tmp_path, bytes(buf), "unknown dtype code 7 at offset 15")


def test_zero_dim_rejected(tmp_path):
    buf = bytearray(_valid_bytes({"x": np.float32([1.0])}))
    struct.pack_into("<I", buf, 17, 0)  # the single dim follows dtype+rank
    _expect_error(tmp_path, bytes(buf)[:21], "zero-sized dim")


def test_duplicate_names_rejected(tmp_path):
    one = _valid_bytes({"x": np.float32([1.0])})
    record = one[12:]
    buf = bytearray(one + record)
    struct.pack_into("<I", buf, 8, 2)  # two copies of the same record
    _expect_error(tmp_path, bytes(buf), r"record 1 \('x'\): duplicate record name")


def test_missing_file(tmp_path):
    with pytest.raises(FormatError, match="cannot read weights"):
        load_weights(tmp_path / "nope.enwt")


def test_error_names_the_record(tmp_path):
    buf = _valid_bytes()
    # chop mid-way through the second record's payload
    idx = read_index_bytes(tmp_path, buf)
    cut = idx.records[1].offset + 8
    _expect_error(tmp_path, buf[:cut], r"record 1 \('a.bias'\)")


def read_index_bytes(tmp_path, buf):
    path = tmp_path / "probe.enwt"
    path.write_bytes(buf)
    return read_index(path)
