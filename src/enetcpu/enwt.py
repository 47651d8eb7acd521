"""ENWT weight container: a flat little-endian record stream.

Layout: magic "ENWT", u32 version (=1), u32 record count, then per record a
u16 name length + UTF-8 name, a dtype byte (0=F32, 1=F16), a rank byte,
rank u32 dims, and the raw tensor payload.  Parse errors carry the byte
offset where reading failed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .tensor import MAX_ELEMENTS, DType

MAGIC = b"ENWT"
VERSION = 1
_MAX_RANK = 8


@dataclass(frozen=True)
class EnwtRecord:
    """Location and declared layout of one tensor in a container."""

    name: str
    dtype: DType
    shape: tuple[int, ...]
    offset: int  # where the record starts in the file


@dataclass(frozen=True)
class EnwtFile:
    """Parsed container index (metadata only, no payloads)."""

    version: int
    records: tuple[EnwtRecord, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.records)


def save_weights(weights: dict[str, np.ndarray], path,
                 dtype: DType = DType.F32) -> int:
    """Serialize a weight store; returns bytes written.  F16 halves the
    payload at the cost of one rounding per element.  A value that is not a
    numpy array, a zero-sized dim (which load_weights refuses) or a finite
    value the dtype cannot hold raises FormatError naming the record,
    before any file is written."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(weights))]
    for name, arr in weights.items():
        name_b = name.encode("utf-8")
        if not name_b or len(name_b) > 0xFFFF:
            raise FormatError(f"record name length {len(name_b)} out of range")
        if not isinstance(arr, np.ndarray):
            raise FormatError(f"record {name!r} is a {type(arr).__name__}, "
                              f"not a numpy array")
        if arr.ndim > _MAX_RANK:
            raise FormatError(f"record {name!r} has rank {arr.ndim} > {_MAX_RANK}")
        if 0 in arr.shape:
            raise FormatError(f"record {name!r} has a zero-sized dim in {arr.shape}")
        with np.errstate(over="ignore"):  # an overflow is refused below
            payload = np.ascontiguousarray(arr, dtype=dtype.np_dtype)
        grown = int(np.isinf(payload).sum() - np.isinf(arr).sum())
        if grown:
            raise FormatError(f"record {name!r}: {grown} finite value(s) "
                              f"beyond the {dtype.name} range")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<BB", dtype.value, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(payload.tobytes())
    blob = b"".join(chunks)
    with open(path, "wb") as f:
        f.write(blob)
    return len(blob)


def container_size(shapes: dict[str, tuple[int, ...]], dtype: DType) -> int:
    """Bytes save_weights writes for tensors of these names and shapes."""
    size = len(MAGIC) + 8  # then version and record count
    for name, shape in shapes.items():
        size += 2 + len(name.encode("utf-8")) + 1 + 1 + 4 * len(shape)
        size += dtype.itemsize * math.prod(shape)
    return size


class _Reader:
    """Bounds-checked cursor over the container bytes."""

    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated at offset {self.pos} while reading "
                f"{what} ({n} bytes needed, {len(self.buf) - self.pos} left)")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]


def _parse(path) -> tuple[EnwtFile, dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise FormatError(f"cannot read weights {path}: {e}") from e
    r = _Reader(buf, path)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(
            f"{path}: bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    count = r.u32("record count")
    records: list[EnwtRecord] = []
    store: dict[str, np.ndarray] = {}
    for i in range(count):
        rec_offset = r.pos
        ctx = f"record {i}"
        name_len = r.u16(f"{ctx} name length")
        name = r.take(name_len, f"{ctx} name").decode("utf-8", errors="replace")
        ctx = f"record {i} ({name!r})"
        dcode = r.u8(f"{ctx} dtype")
        try:
            dt = DType(dcode)
        except ValueError:
            raise FormatError(
                f"{path}: {ctx}: unknown dtype code {dcode} at offset {r.pos - 1}"
            ) from None
        rank = r.u8(f"{ctx} rank")
        if rank > _MAX_RANK:
            raise FormatError(
                f"{path}: {ctx}: rank {rank} exceeds {_MAX_RANK} at offset {r.pos - 1}")
        dims = tuple(r.u32(f"{ctx} dim {d}") for d in range(rank))
        elems = 1
        for d in dims:
            if d == 0:
                raise FormatError(f"{path}: {ctx}: zero-sized dim in {dims}")
            elems *= d
        if elems > MAX_ELEMENTS:
            raise FormatError(
                f"{path}: {ctx}: {elems} elements exceeds the {MAX_ELEMENTS} cap")
        payload = r.take(elems * dt.itemsize, f"{ctx} payload")
        if name in store:
            raise FormatError(f"{path}: {ctx}: duplicate record name")
        arr = np.frombuffer(payload, dtype=dt.np_dtype).reshape(dims)
        # a fresh, writable, contiguous copy that keeps rank 0, which
        # np.ascontiguousarray would turn into shape (1,)
        store[name] = arr.astype(np.float32)
        records.append(EnwtRecord(name=name, dtype=dt, shape=dims,
                                  offset=rec_offset))
    if r.pos != len(buf):
        raise FormatError(
            f"{path}: {len(buf) - r.pos} trailing bytes after the last record "
            f"at offset {r.pos}")
    return EnwtFile(version=version, records=tuple(records)), store


def load_weights(path) -> dict[str, np.ndarray]:
    """Read a container back into a float32 weight store (F16 is widened)."""
    return _parse(path)[1]


def read_index(path) -> EnwtFile:
    """Parse a container's record table without keeping the tensors."""
    return _parse(path)[0]
