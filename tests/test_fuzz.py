"""Parser fuzzing: valid files with bytes flipped, cut off or inserted must
either load or fail with the parser's own error, never with a stray
exception such as UnicodeDecodeError, struct.error or a numpy reshape
failure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enetcpu.analyzer import load_histogram
from enetcpu.enwt import load_weights, save_weights
from enetcpu.errors import FormatError, PaletteError
from enetcpu.pnm import (
    load_labelmap,
    load_palette,
    load_ppm,
    save_labelmap,
    save_ppm,
)
from enetcpu.tensor import DType


def _weights_seed(path):
    store = {"conv.weight": np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2),
             "conv.bias": np.float32([0.5, -1.0])}
    save_weights(store, path, dtype=DType.F16)


def _ppm_seed(path):
    save_ppm(np.random.default_rng(0).random((3, 3, 4), dtype=np.float32), path)


def _pgm_seed(path):
    save_labelmap(np.arange(12).reshape(3, 4), path)


def _palette_seed(path):
    path.write_text("# class r g b\n0 128 64 128\n1 244 35 232  # walk\n\n2 70 70 70\n")


def _histogram_seed(path):
    path.write_text("# label count\nroad 2036416\nsky 11530\n\npole 96  # thin\n")


PARSERS = {
    "enwt": (_weights_seed, load_weights, FormatError),
    "ppm": (_ppm_seed, load_ppm, FormatError),
    "pgm": (_pgm_seed, load_labelmap, FormatError),
    "palette": (_palette_seed, load_palette, PaletteError),
    "histogram": (_histogram_seed, load_histogram, FormatError),
}


def _mutate(data, seed: bytes) -> bytes:
    """One to four random edits of seed: a bit flipped, the tail cut off, or
    up to eight random bytes inserted."""
    buf = bytearray(seed)
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        op = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
        if op == "flip" and buf:
            i = data.draw(st.integers(0, len(buf) - 1), label="flip at")
            buf[i] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        elif op == "truncate":
            del buf[data.draw(st.integers(0, len(buf)), label="cut at"):]
        else:
            i = data.draw(st.integers(0, len(buf)), label="insert at")
            buf[i:i] = data.draw(st.binary(min_size=1, max_size=8), label="bytes")
    return bytes(buf)


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_mutated_file_loads_or_raises_the_parsers_error(kind, tmp_path_factory):
    make_seed, load, error = PARSERS[kind]
    path = tmp_path_factory.mktemp(kind) / "fuzzed"
    make_seed(path)
    seed = path.read_bytes()
    load(path)  # the unmutated seed is valid

    @settings(max_examples=200)
    @given(data=st.data())
    def check(data):
        path.write_bytes(_mutate(data, seed))
        try:
            load(path)
        except error:
            pass

    check()
