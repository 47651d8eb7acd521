"""Graph optimization passes and weight-store validation.

Both passes are semantics-preserving at inference time: batch-norm folding
rewrites conv weights so the normalization vanishes, and dropout elision
removes identity nodes.  Node ids of surviving nodes never change.  A graph
is checked once, when it is made (see graph.Graph); `validate` is the one
gate on a weight store against its graph, and the only value check on
batch-norm statistics: `optimize` runs it before any fold reads a weight,
and `execute` before any kernel does.
"""

from __future__ import annotations

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
    """What a pass did: removed node names, rewritten node names, notes."""

    pass_name: str
    removed: tuple[str, ...]
    changed: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        return (f"{self.pass_name}: removed {len(self.removed)} nodes, "
                f"rewrote {len(self.changed)}")


def _drop_nodes(g: Graph, dead: set[int], redirect: dict[int, int],
                patched: dict[int, NodeSpec]) -> Graph:
    """Rebuild the node tuple without `dead`, rewiring inputs through
    `redirect` and substituting `patched` specs.  Ids are preserved."""
    kept = []
    for n in g.nodes:
        if n.id in dead:
            continue
        n = patched.get(n.id, n)
        new_inputs = tuple(redirect.get(i, i) for i in n.inputs)
        if new_inputs != n.inputs:
            n = replace(n, inputs=new_inputs)
        kept.append(n)
    return Graph(nodes=tuple(kept), input_shape=g.input_shape)


def fold_batchnorm(g: Graph, weights: dict[str, np.ndarray]) -> tuple[
        Graph, dict[str, np.ndarray], PassReport]:
    """Fold every BatchNorm that directly follows a single-consumer conv into
    that conv's weights; the conv gains a bias if it had none.

    The fold takes the BN's scale and shift from graph.bn_affine, the pair
    the unfused kernel applies: the kernel applied last is multiplied by the
    scale along its output-channel axis, and the bias becomes
    bias*scale + shift, with a bias of 0 for a conv that had none.
    BatchNorms that do not sit on such a conv (the entry block's, which
    follows a concat) are left in place, with a note in the report.

    `validate`, which `optimize` runs first, is the one gate on weight
    values.  The fold checks its own result: a folded weight or bias that
    is not finite in float32, or a non-finite statistic of the BN it came
    from, raises FoldError naming the BN, with no numpy warning.  So a NaN,
    a negative variance or any infinite statistic given straight to this
    pass is refused; an infinite variance would otherwise fold into a zero
    kernel channel.
    """
    consumers = g.consumers()
    new_store = dict(weights)
    dead: set[int] = set()
    redirect: dict[int, int] = {}
    patched: dict[int, NodeSpec] = {}
    removed, changed, notes = [], [], []

    for n in g.nodes:
        if n.kind is not NodeKind.BATCHNORM:
            continue
        src = g.node(n.inputs[0])
        if src.kind not in CONV_KINDS:
            notes.append(f"kept {n.name}: input {src.name} is a "
                         f"{src.kind.value}, not a conv")
            continue
        if len(consumers[src.id]) != 1:
            notes.append(f"kept {n.name}: conv {src.name} feeds "
                         f"{len(consumers[src.id])} consumers, folding would "
                         f"corrupt the others")
            continue

        # the scale goes on the kernel applied last; roles list them in order
        wkey = [key for role, key in src.weight_refs if role != "bias"][-1]
        new_src = replace(src, conv=replace(src.conv, has_bias=True))
        bias_key = new_src.ref("bias")
        # a non-finite result is refused just below, with the BN's name
        with np.errstate(all="ignore"):
            scale, shift = bn_affine(n, weights)
            shape_bcast = [1, 1, 1, 1]
            shape_bcast[out_axis(src.kind)] = len(scale)
            new_store[wkey] = (new_store[wkey].astype(np.float64)
                               * scale.reshape(shape_bcast)).astype(np.float32)
            b_old = (new_store[bias_key].astype(np.float64) if src.conv.has_bias
                     else np.zeros(len(scale)))
            new_store[bias_key] = (b_old * scale + shift).astype(np.float32)
        for key in (wkey, bias_key):
            if not np.isfinite(new_store[key]).all():
                raise FoldError(f"cannot fold {n.name}: folded {key!r} is not finite")
        for _, key in n.weight_refs:
            if not np.isfinite(weights[key]).all():
                raise FoldError(f"cannot fold {n.name}: {key!r} is not finite")

        for _, key in n.weight_refs:
            del new_store[key]
        patched[src.id] = new_src
        dead.add(n.id)
        redirect[n.id] = src.id
        removed.append(n.name)
        changed.append(src.name)

    out = _drop_nodes(g, dead, redirect, patched)
    report = PassReport(pass_name="fold_batchnorm", removed=tuple(removed),
                        changed=tuple(changed), notes=tuple(notes))
    return out, new_store, report


def elide_dropout(g: Graph) -> tuple[Graph, PassReport]:
    """Remove every Dropout node; inference-mode spatial dropout is identity."""
    dead = {n.id for n in g.nodes if n.kind is NodeKind.DROPOUT}
    redirect = {n.id: n.inputs[0] for n in g.nodes if n.id in dead}
    # a dropout may feed another dropout; chase redirects to a live node
    for k in list(redirect):
        tgt = redirect[k]
        while tgt in redirect:
            tgt = redirect[tgt]
        redirect[k] = tgt
    removed = tuple(n.name for n in g.nodes if n.id in dead)
    out = _drop_nodes(g, dead, redirect, {})
    return out, PassReport(pass_name="elide_dropout", removed=removed)


def optimize(g: Graph, weights: dict[str, np.ndarray]) -> tuple[
        Graph, dict[str, np.ndarray], tuple[PassReport, ...]]:
    """Standard inference pipeline: fold batch norms, then drop dropout.

    The store is first validated against the graph as `execute` validates
    it, and a failure raises ValidationError with the same diagnostics, so
    the fused path refuses every store the unfused one refuses."""
    diags = validate(g, weights)
    if diags:
        raise ValidationError("graph failed validation: " + "; ".join(diags[:5]))
    g1, w1, rep1 = fold_batchnorm(g, weights)
    g2, rep2 = elide_dropout(g1)
    return g2, w1, (rep1, rep2)


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
