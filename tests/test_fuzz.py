"""Parser and graph fuzzing: valid files with bytes flipped, cut off or
inserted must either load or fail with the parser's own error, never with a
stray exception such as UnicodeDecodeError, struct.error or a numpy reshape
failure; a small graph with one node corrupted must either build into a
graph that its initial weights validate against, or be refused with
ValidationError."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enetcpu.analyzer import load_histogram
from enetcpu.enwt import load_weights, save_weights
from enetcpu.errors import FormatError, PaletteError, ValidationError
from enetcpu.graph import Graph, GraphBuilder, NodeKind, NodeSpec, init_weights
from enetcpu.kernels import ConvParams
from enetcpu.passes import validate
from enetcpu.pnm import (
    load_labelmap,
    load_palette,
    load_ppm,
    save_labelmap,
    save_ppm,
)
from enetcpu.tensor import DType, Shape


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


def _small_graph() -> Graph:
    """One node of most kinds: conv, pool, PReLU, unpool, add, concat, pad."""
    b = GraphBuilder(Shape(4, 8, 8))
    c = b.conv("conv", b.input_id, ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    pool = b.maxpool("pool", c)
    up = b.max_unpool("up", b.prelu("act", pool), pool)
    cat = b.concat("cat", b.add("sum", up, c), b.input_id)
    return b.build(b.pad_channels("pad", cat, 12))


def _corrupt(data, n: NodeSpec, ids: list[int]) -> NodeSpec:
    """n with one edit: an input dropped or duplicated, a parameter cleared,
    or its unpool link pointed at any id, stored or not."""
    op = data.draw(st.sampled_from(["drop", "dup", "conv", "target", "link", "repoint"]))
    if op in ("drop", "dup") and n.inputs:
        i = data.draw(st.integers(0, len(n.inputs) - 1), label="input")
        inputs = (n.inputs[:i] + n.inputs[i + 1:] if op == "drop"
                  else n.inputs + (n.inputs[i],))
        return replace(n, inputs=inputs)
    if op == "conv":
        return replace(n, conv=None)
    if op == "target":
        return replace(n, target_channels=None)
    if op == "link":
        return replace(n, index_link=None)
    return replace(n, index_link=data.draw(st.integers(-1, max(ids) + 1), label="to"))


def test_corrupted_graph_builds_valid_or_raises_validation_error():
    good = _small_graph()
    ids = [n.id for n in good.nodes]
    assert validate(good, init_weights(good)) == []

    @settings(max_examples=200)
    @given(data=st.data())
    def check(data):
        nodes = list(good.nodes)
        try:
            if data.draw(st.booleans(), label="append a dangling node"):
                nodes.append(NodeSpec(id=max(ids) + 1, kind=NodeKind.PRELU,
                                      name="dangling",
                                      inputs=(data.draw(st.sampled_from(ids)),)))
            else:
                i = data.draw(st.integers(0, len(nodes) - 1), label="node")
                nodes[i] = _corrupt(data, nodes[i], ids)
            g = Graph(nodes=tuple(nodes), input_shape=good.input_shape)
        except ValidationError:
            return
        assert validate(g, init_weights(g)) == []

    check()
