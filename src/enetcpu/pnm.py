"""Binary PNM image I/O (PPM P6 for color, PGM P5 for label maps) and class
color palettes.

The reader accepts any standard header (comments, flexible whitespace); the
writer emits one canonical form, so reading a canonical file and writing it
again is byte-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, PaletteError

_MAXVAL = 255


def _read_header(buf: bytes, path, magic: bytes, fields: int) -> tuple[list[int], int]:
    """Parse 'P6 w h maxval' style headers; returns field values and the
    offset where pixel data starts."""
    if buf[:2] != magic:
        raise FormatError(
            f"{path}: bad magic {buf[:2]!r} at offset 0, expected {magic!r}")
    pos = 2
    values: list[int] = []
    while len(values) < fields:
        # skip whitespace and '#' comments between tokens
        while pos < len(buf) and (buf[pos:pos + 1].isspace() or buf[pos] == ord("#")):
            if buf[pos] == ord("#"):
                nl = buf.find(b"\n", pos)
                pos = len(buf) if nl < 0 else nl + 1
            else:
                pos += 1
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        token = buf[start:pos]
        if not token:
            raise FormatError(f"{path}: truncated header at offset {start}")
        try:
            values.append(int(token))
        except ValueError:
            raise FormatError(
                f"{path}: non-numeric header token {token!r} at offset {start}"
            ) from None
    if pos >= len(buf) or not buf[pos:pos + 1].isspace():
        raise FormatError(f"{path}: missing separator after header at offset {pos}")
    return values, pos + 1  # exactly one whitespace byte before the raster


def _read_raster(path, magic: bytes, channels: int) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise FormatError(f"cannot read image {path}: {e}") from e
    (w, h, maxval), start = _read_header(buf, path, magic, 3)
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad dimensions {w}x{h}")
    if maxval != _MAXVAL:
        raise FormatError(f"{path}: unsupported maxval {maxval}, need {_MAXVAL}")
    need = w * h * channels
    raster = buf[start:]
    if len(raster) < need:
        raise FormatError(
            f"{path}: raster truncated: {len(raster)} bytes, need {need}")
    if len(raster) > need:
        raise FormatError(
            f"{path}: {len(raster) - need} trailing bytes after the raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, channels)


def load_ppm(path) -> np.ndarray:
    """Read a binary PPM into a float32 (3, H, W) tensor scaled to [0, 1]."""
    hwc = _read_raster(path, b"P6", 3)
    return np.ascontiguousarray(hwc.transpose(2, 0, 1).astype(np.float32) / _MAXVAL)


def save_ppm(img: np.ndarray, path) -> None:
    """Write a float32 (3, H, W) tensor in [0, 1] as a binary PPM."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise FormatError(f"PPM output needs a (3, H, W) tensor, got {img.shape}")
    u8 = np.rint(np.clip(img, 0.0, 1.0) * _MAXVAL).astype(np.uint8)
    _write_pnm(u8.transpose(1, 2, 0), path, b"P6")


def load_labelmap(path) -> np.ndarray:
    """Read a binary PGM of class indices into an int64 (H, W) array."""
    return _read_raster(path, b"P5", 1)[:, :, 0].astype(np.int64)


def save_labelmap(labels: np.ndarray, path) -> None:
    """Write an (H, W) class-index array as a binary PGM."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise FormatError(f"label map must be (H, W), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() > _MAXVAL):
        raise FormatError(
            f"label values [{labels.min()}, {labels.max()}] do not fit a "
            f"single byte")
    _write_pnm(labels.astype(np.uint8)[:, :, None], path, b"P5")


def _write_pnm(hwc: np.ndarray, path, magic: bytes) -> None:
    h, w, _ = hwc.shape
    header = magic + b"\n" + f"{w} {h}\n{_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(hwc).tobytes())


# ---------------------------------------------------------------------------
# palettes

def load_palette(path) -> dict[int, tuple[int, int, int]]:
    """Parse `<class_index> <r> <g> <b>` lines; '#' comments allowed."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise PaletteError(f"cannot read palette {path}: {e}") from e
    palette: dict[int, tuple[int, int, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise PaletteError(
                f"{path}:{lineno}: expected '<class> <r> <g> <b>', got {raw.strip()!r}")
        try:
            idx, r, g, b = (int(p) for p in parts)
        except ValueError:
            raise PaletteError(f"{path}:{lineno}: non-integer field") from None
        if idx < 0:
            raise PaletteError(f"{path}:{lineno}: negative class index {idx}")
        if not all(0 <= v <= _MAXVAL for v in (r, g, b)):
            raise PaletteError(f"{path}:{lineno}: color out of [0, {_MAXVAL}]")
        if idx in palette:
            raise PaletteError(f"{path}:{lineno}: duplicate class {idx}")
        palette[idx] = (r, g, b)
    if not palette:
        raise PaletteError(f"{path}: no palette entries")
    return palette


def save_colormap(labels: np.ndarray, palette: dict[int, tuple[int, int, int]],
                  path) -> None:
    """Color a label map through a palette and write it as a binary PPM."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise FormatError(f"label map must be (H, W), got {labels.shape}")
    present = np.unique(labels)
    missing = [int(c) for c in present if int(c) not in palette]
    if missing:
        raise PaletteError(
            f"palette has no color for class {missing[0]}"
            + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""))
    lut = np.zeros((int(present.max()) + 1, 3), dtype=np.uint8)
    for cls in present:
        lut[int(cls)] = palette[int(cls)]
    _write_pnm(lut[labels], path, b"P6")
