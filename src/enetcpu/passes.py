"""The inference optimizer, and weight-store validation.

`optimize` rewrites a graph and its store for inference in one walk: each
batch norm that directly follows a convolution read by nothing else is
folded into that convolution's weights, and each spatial dropout, the
identity at inference, is removed.  Both rewrites preserve outputs, and
surviving nodes keep their ids.  A graph is checked once, when it is made
(see graph.Graph); `validate` is the one gate on a weight store against its
graph, and the only value check on batch-norm statistics: `optimize` runs it
before any fold reads a weight, and `execute` before any kernel does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import FoldError, ValidationError
from .graph import (
    CONV_KINDS,
    Graph,
    NodeKind,
    NodeSpec,
    bn_affine,
    expected_weight_shapes,
    out_axis,
)


@dataclass(frozen=True)
class PassReport:
    """What `optimize` did: removed node names, rewritten node names, notes."""

    removed: tuple[str, ...]
    changed: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        return (f"removed {len(self.removed)} nodes, "
                f"rewrote {len(self.changed)} convolutions")


def optimize(g: Graph, weights: dict[str, np.ndarray]) -> tuple[
        Graph, dict[str, np.ndarray], PassReport]:
    """Fold batch norms into convolutions and drop dropouts, in one walk
    over the nodes in storage order that builds one Graph.

    The store is first validated against the graph as `execute` validates
    it, and a failure raises ValidationError with the same diagnostics, so
    the fused path refuses every store the unfused one refuses.

    A BatchNorm whose input in the given graph is a convolution read by
    nothing else is folded.  Its scale and shift come from graph.bn_affine,
    the pair the unfused kernel applies: the kernel applied last is
    multiplied by the scale along its output-channel axis, and the bias
    becomes bias*scale + shift, with a bias of 0 for a conv that had none,
    so the conv gains a bias.  Any other BatchNorm (the entry block's, which
    follows a concat, or one behind a dropout, whose input others may read)
    is kept, with a note in the report.  A folded weight or bias that is not
    finite in float32 raises FoldError naming the BN, with no numpy warning.

    Every node's inputs are rewired through one map from each removed node
    to the kept node that stands in for it: a folded BN to its conv, a
    dropout to its own rewired input.
    """
    diags = validate(g, weights)
    if diags:
        raise ValidationError("graph failed validation: " + "; ".join(diags[:5]))
    readers = Counter(src for n in g.nodes for src in n.inputs)
    store = dict(weights)
    redirect: dict[int, int] = {}  # removed node id -> id of its stand-in
    kept: dict[int, NodeSpec] = {}  # kept node id -> rewired node, in order
    removed, changed, notes = [], [], []

    for n in g.nodes:
        inputs = tuple(redirect.get(src, src) for src in n.inputs)
        if n.kind is NodeKind.DROPOUT:
            redirect[n.id] = inputs[0]
            removed.append(n.name)
            continue
        if n.kind is NodeKind.BATCHNORM:
            src = g.node(n.inputs[0])
            if src.kind not in CONV_KINDS:
                notes.append(f"kept {n.name}: input {src.name} is a "
                             f"{src.kind.value}, not a conv")
            elif readers[src.id] != 1:
                notes.append(f"kept {n.name}: conv {src.name} feeds "
                             f"{readers[src.id]} readers, folding would "
                             f"corrupt the others")
            else:
                kept[src.id] = _fold(n, kept[src.id], store)
                redirect[n.id] = src.id
                removed.append(n.name)
                changed.append(src.name)
                continue
        kept[n.id] = replace(n, inputs=inputs) if inputs != n.inputs else n

    out = Graph(nodes=tuple(kept.values()), input_shape=g.input_shape)
    return out, store, PassReport(removed=tuple(removed), changed=tuple(changed),
                                  notes=tuple(notes))


def _fold(bn: NodeSpec, conv: NodeSpec, store: dict[str, np.ndarray]) -> NodeSpec:
    """Write batch norm `bn` into `conv`'s kernel applied last and its bias
    in `store`, deleting the BN's keys; returns the conv, now biased."""
    # the scale goes on the kernel applied last; roles list them in order
    wkey = [key for role, key in conv.weight_refs if role != "bias"][-1]
    biased = replace(conv, conv=replace(conv.conv, has_bias=True))
    bias_key = biased.ref("bias")
    # a float32 overflow is refused just below, with the BN's name
    with np.errstate(over="ignore"):
        scale, shift = bn_affine(bn, store)
        shape_bcast = [1, 1, 1, 1]
        shape_bcast[out_axis(conv.kind)] = len(scale)
        store[wkey] = (store[wkey].astype(np.float64)
                       * scale.reshape(shape_bcast)).astype(np.float32)
        b_old = (store[bias_key].astype(np.float64) if conv.conv.has_bias
                 else np.zeros(len(scale)))
        store[bias_key] = (b_old * scale + shift).astype(np.float32)
    for key in (wkey, bias_key):
        if not np.isfinite(store[key]).all():
            raise FoldError(f"cannot fold {bn.name}: folded {key!r} is not finite")
    for _, key in bn.weight_refs:
        del store[key]
    return biased


def validate(g: Graph, weights: dict[str, np.ndarray]) -> list[str]:
    """Check the weight store against the graph, which was checked when it
    was made; returns human-readable diagnostics, empty when the graph is
    executable with this store."""
    diags: list[str] = []
    want = expected_weight_shapes(g)
    sound = set()  # keys whose weight passed every check below
    for key, shp in want.items():
        w = weights.get(key)
        if key not in weights:
            diags.append(f"missing weight {key!r} (expected shape {shp})")
        elif not isinstance(w, np.ndarray):
            diags.append(f"weight {key!r} is a {type(w).__name__}, not a numpy array")
        elif tuple(w.shape) != tuple(shp):
            diags.append(f"weight {key!r} has shape {tuple(w.shape)}, expected {shp}")
        elif w.dtype != np.float32:
            diags.append(f"weight {key!r} has dtype {w.dtype}, expected float32")
        elif not np.isfinite(w).all():
            diags.append(f"weight {key!r} is not finite")
        else:
            sound.add(key)
    # the one value check on BN statistics, before any kernel runs on the
    # unfused path and before any fold on the fused one: finite (above) and
    # a variance of at least 0, so var + BN_EPS > 0
    for n in g.nodes:
        key = n.ref("var") if n.kind is NodeKind.BATCHNORM else None
        if key in sound and (weights[key] < 0).any():
            diags.append(f"weight {key!r} holds a negative batchnorm variance")
    for key in weights:
        if key not in want:
            diags.append(f"weight {key!r} is not referenced by any node")
    return diags
