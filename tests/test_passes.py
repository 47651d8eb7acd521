"""Optimization passes: batch-norm folding math, dropout elision, pass
composition, and structural validation diagnostics."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from enetcpu.analyzer import count_flops, count_params
from enetcpu.errors import EnetError, ExecutionError, FoldError
from enetcpu.graph import (
    BN_EPS,
    Graph,
    GraphBuilder,
    NodeKind,
    bn_affine,
    build_enet,
    init_weights,
)
from enetcpu.kernels import ConvParams
from enetcpu.passes import elide_dropout, fold_batchnorm, optimize, validate
from enetcpu.runtime import execute, plan_buffers
from enetcpu.tensor import Shape

F32 = np.float32


def _perturb_bn_stats(store, seed):
    """Give BN layers non-trivial statistics so folding has real work to do."""
    rng = np.random.default_rng(seed)
    out = dict(store)
    for key, arr in store.items():
        role = key.rsplit(".", 1)[1]
        if role == "gamma":
            out[key] = (0.7 + 0.6 * rng.random(arr.shape)).astype(F32)
        elif role == "var":
            out[key] = (0.5 + rng.random(arr.shape)).astype(F32)
        elif role in ("beta", "mean"):
            out[key] = (rng.random(arr.shape) - 0.5).astype(F32)
    return out


# ---------------------------------------------------------------------------
# fold_batchnorm

def test_fold_scalar_math():
    # gamma=2, beta=0.5, mean=1, var=1 over weight 3: with s = 2/sqrt(1 + eps),
    # W' = 3s and b' = 0.5 - s, each rounded to float32 once
    b = GraphBuilder(Shape(1, 4, 4))
    c = b.conv("c", b.input_id, ConvParams(out_channels=1, kernel_h=1, kernel_w=1))
    bn = b.batchnorm("n", c)
    g = b.build(bn)
    w = {
        "c.weight": np.full((1, 1, 1, 1), 3.0, dtype=F32),
        "n.gamma": np.array([2.0], dtype=F32),
        "n.beta": np.array([0.5], dtype=F32),
        "n.mean": np.array([1.0], dtype=F32),
        "n.var": np.array([1.0], dtype=F32),
    }
    g2, w2, report = fold_batchnorm(g, w)
    assert report.removed == ("n",)
    s = 2.0 / math.sqrt(1.0 + BN_EPS)
    assert w2["c.weight"][0, 0, 0, 0] == F32(3.0 * s)
    assert w2["c.bias"][0] == F32(0.5 - s)
    assert not any(k.startswith("n.") for k in w2)
    conv = g2.find("c")
    assert conv.conv.has_bias
    assert validate(g2, w2) == []


def _conv_graph(kind, with_bn):
    """input -> one conv of `kind` (-> batch norm "n") -> output."""
    b = GraphBuilder(Shape(4, 6, 6))
    if kind == "conv":
        c = b.conv("c", b.input_id, ConvParams(out_channels=5, kernel_h=3,
                                               kernel_w=3, pad_h=1, pad_w=1))
    elif kind == "conv_transpose":
        c = b.conv_transpose("c", b.input_id, ConvParams(out_channels=5, kernel_h=2,
                                                         kernel_w=2, stride=2))
    else:
        c = b.asym_conv5("c", b.input_id, 4)
    return b.build(b.batchnorm("n", c) if with_bn else c)


@pytest.mark.parametrize("kind", ["conv", "conv_transpose", "asym_conv5"])
def test_unfused_bn_and_its_fold_both_apply_the_one_affine_pair(kind):
    # bn_affine's float64 (scale, shift) is the whole of a batch norm: the
    # unfused node's output is x*scale + shift of its input, and the fold
    # multiplies the kernel applied last by scale along its output-channel
    # axis and sets the bias to 0*scale + shift, each rounded once
    g = _conv_graph(kind, with_bn=True)
    w = _perturb_bn_stats(init_weights(g, seed=12), seed=13)
    scale, shift = bn_affine(g.find("n"), w)
    x = np.random.default_rng(14).random((4, 6, 6), dtype=F32) - 0.5

    pre_bn = execute(_conv_graph(kind, with_bn=False),
                     {k: v for k, v in w.items() if k.startswith("c.")}, x)
    want = (pre_bn.astype(np.float64) * scale[:, None, None]
            + shift[:, None, None]).astype(F32)
    np.testing.assert_array_equal(execute(g, w, x).view(np.int32),
                                  want.view(np.int32))

    _, w2, _ = fold_batchnorm(g, w)
    wkey = "c.weight_1x5" if kind == "asym_conv5" else "c.weight"
    axis = 1 if kind == "conv_transpose" else 0
    bcast = [1, 1, 1, 1]
    bcast[axis] = len(scale)
    np.testing.assert_array_equal(
        w2[wkey].view(np.int32),
        (w[wkey].astype(np.float64) * scale.reshape(bcast)).astype(F32).view(np.int32))
    np.testing.assert_array_equal(
        w2["c.bias"].view(np.int32),
        (0.0 * scale + shift).astype(F32).view(np.int32))


def test_fold_preserves_outputs_on_mixed_conv_kinds():
    # conv + transposed conv + asymmetric conv, each followed by BN with
    # non-trivial statistics; folded graph must reproduce the original
    b = GraphBuilder(Shape(4, 8, 8))
    x = b.conv("c1", b.input_id, ConvParams(out_channels=8, kernel_h=3,
                                            kernel_w=3, pad_h=1, pad_w=1))
    x = b.batchnorm("c1_bn", x)
    x = b.prelu("c1_act", x)
    x = b.conv_transpose("up", x, ConvParams(out_channels=4, kernel_h=2,
                                             kernel_w=2, stride=2))
    x = b.batchnorm("up_bn", x)
    x = b.asym_conv5("asym", x, 4)
    x = b.batchnorm("asym_bn", x)
    g = b.build(x)
    w = _perturb_bn_stats(init_weights(g, seed=1), seed=2)

    g2, w2, report = fold_batchnorm(g, w)
    assert set(report.removed) == {"c1_bn", "up_bn", "asym_bn"}
    assert len(g2.nodes) == len(g.nodes) - 3
    assert validate(g2, w2) == []

    rng = np.random.default_rng(3)
    xin = rng.random((4, 8, 8), dtype=F32)
    base = execute(g, w, xin)
    fused = execute(g2, w2, xin)
    np.testing.assert_allclose(fused, base, rtol=1e-5, atol=1e-5, equal_nan=False)


def test_fold_skips_bn_after_non_conv_by_default():
    b = GraphBuilder(Shape(2, 4, 4))
    p = b.prelu("act", b.input_id)
    bn = b.batchnorm("bn", p)
    g = b.build(bn)
    w = init_weights(g, seed=0)
    g2, w2, report = fold_batchnorm(g, w)
    assert report.removed == ()
    assert any("bn" in note for note in report.notes)
    assert [n.name for n in g2.nodes] == [n.name for n in g.nodes]


def test_fold_refuses_shared_conv_output():
    # the conv feeds both a BN and a second consumer: folding would change
    # what the second consumer sees
    b = GraphBuilder(Shape(2, 4, 4))
    c = b.conv("c", b.input_id, ConvParams(out_channels=2, kernel_h=1, kernel_w=1))
    bn = b.batchnorm("bn", c)
    s = b.add("shortcut", c, bn)
    g = b.build(s)
    w = init_weights(g, seed=0)
    g2, _, report = fold_batchnorm(g, w)
    assert report.removed == ()
    assert any("shortcut" in note or "2 consumers" in note for note in report.notes)


def test_fold_enet_removes_all_but_the_post_concat_bn():
    g = build_enet(19, 64, 64)
    w = init_weights(g, seed=0)
    g2, w2, report = fold_batchnorm(g, w)
    assert len(report.removed) == 83
    remaining = [n.name for n in g2.nodes if n.kind is NodeKind.BATCHNORM]
    assert remaining == ["initial.bn"]
    assert len(g2.nodes) == 315 - 83
    assert validate(g2, w2) == []
    # folding something twice is a no-op
    g3, w3, report2 = fold_batchnorm(g2, w2)
    assert report2.removed == ()
    assert [n.name for n in g3.nodes] == [n.name for n in g2.nodes]


@pytest.mark.parametrize("role,value", [("var", -1.0), ("var", np.nan),
                                        ("gamma", np.inf), ("mean", np.nan)])
def test_fold_rejects_bad_bn_statistics_naming_the_node(role, value):
    g = build_enet(19, 32, 32)
    w = init_weights(g, seed=0)
    w["bottleneck1.1.ext.conv_bn." + role][3] = value
    with pytest.raises(FoldError, match="bottleneck1.1.ext.conv_bn"):
        fold_batchnorm(g, w)


def test_fold_refuses_a_folded_weight_that_overflows_float32():
    # a huge but finite gamma folds into a kernel float32 cannot hold; the
    # fold must say so rather than leave an inf for `execute` to blame on a
    # conv weight the caller never set, and without a numpy overflow
    # warning on the way.  On this store the unfused path, which scales
    # activations instead, still returns finite logits
    g = build_enet(5, 32, 32)
    w = init_weights(g, seed=0)
    w["bottleneck5.1.ext.expand_bn.gamma"][:] = 3e38
    with warnings.catch_warnings(), pytest.raises(
            FoldError, match="cannot fold bottleneck5.1.ext.expand_bn: folded "
                             "'bottleneck5.1.ext.expand.weight' is not finite"):
        warnings.simplefilter("error")
        optimize(g, w)
    x = np.random.default_rng(0).random((3, 32, 32), dtype=F32)
    assert np.isfinite(execute(g, w, x)).all()


@pytest.mark.parametrize("role,value", [("var", -0.5), ("gamma", np.nan),
                                        ("mean", np.inf), ("beta", np.nan),
                                        ("var", -1e-6)])  # var + eps > 0
def test_negative_bn_variance_fails_loudly_fused_and_unfused(role, value):
    # neither path may turn a bad statistic into NaN weights and a NaN map,
    # and both name the layer
    g = build_enet(19, 32, 32)
    w = init_weights(g, seed=0)
    w["bottleneck2.3.ext.conv_bn." + role] = np.full(32, value, dtype=F32)
    x = np.random.default_rng(0).random((3, 32, 32), dtype=F32)
    with pytest.raises(EnetError, match="bottleneck2.3.ext.conv_bn"):
        execute(g, w, x)
    with pytest.raises(EnetError, match="bottleneck2.3.ext.conv_bn"):
        fg, fw, _ = optimize(g, w)
        execute(fg, fw, x)


# one key per weight role: conv, transposed-conv and asymmetric kernels, a
# conv bias, the statistics of a folded BN and of the kept entry BN, a slope
_ROLE_KEYS = ("initial.conv.weight", "bottleneck4.0.ext.deconv.weight",
              "fullconv.bias", "bottleneck2.3.ext.asym.weight_5x1",
              "bottleneck2.3.ext.asym.weight_1x5",
              "bottleneck1.0.ext.proj_bn.gamma", "bottleneck1.0.ext.proj_bn.beta",
              "bottleneck1.0.ext.proj_bn.mean", "bottleneck1.0.ext.proj_bn.var",
              "initial.bn.var", "bottleneck1.0.ext.proj_prelu.slopes")


# every key with every corruption of its storage, and each variance negated
_CORRUPTIONS = [(key, corruption) for key in _ROLE_KEYS for corruption in
                ("deleted", "float16", "float64", "int32")]
_CORRUPTIONS += [(key, "negative variance") for key in _ROLE_KEYS
                 if key.endswith(".var")]


@pytest.mark.parametrize("key,corruption", _CORRUPTIONS)
def test_fused_and_unfused_refuse_a_bad_weight_alike(key, corruption):
    # both paths refuse at the one gate, before any kernel runs or any BN
    # folds, and name the key
    g = build_enet(5, 32, 32)
    w = init_weights(g, seed=0)
    if corruption == "deleted":
        del w[key]
    elif corruption == "negative variance":
        w[key] = -w[key]
    else:
        w[key] = w[key].astype(corruption)
    x = np.random.default_rng(0).random((3, 32, 32), dtype=F32)
    with pytest.raises(EnetError, match=re.escape(repr(key))):
        execute(g, w, x)
    with pytest.raises(EnetError, match=re.escape(repr(key))):
        fg, fw, _ = optimize(g, w)
        execute(fg, fw, x, plan_buffers(fg))


# ---------------------------------------------------------------------------
# elide_dropout

def test_elide_dropout_on_enet_removes_one_per_bottleneck():
    g = build_enet(19, 64, 64)
    g2, report = elide_dropout(g)
    assert len(report.removed) == 27
    assert all(name.endswith(".ext.dropout") for name in report.removed)
    assert not any(n.kind is NodeKind.DROPOUT for n in g2.nodes)
    assert len(g2.nodes) == 315 - 27
    g3, report2 = elide_dropout(g2)
    assert report2.removed == ()


def test_elide_dropout_preserves_execution_bitwise():
    b = GraphBuilder(Shape(4, 8, 8))
    x = b.conv("c", b.input_id, ConvParams(out_channels=4, kernel_h=3,
                                           kernel_w=3, pad_h=1, pad_w=1))
    x = b.dropout("d1", x)
    x = b.dropout("d2", x)  # chained dropouts must redirect through
    x = b.prelu("act", x)
    g = b.build(x)
    w = init_weights(g, seed=4)
    g2, report = elide_dropout(g)
    assert report.removed == ("d1", "d2")
    rng = np.random.default_rng(5)
    xin = rng.random((4, 8, 8), dtype=F32)
    np.testing.assert_array_equal(execute(g, w, xin), execute(g2, w, xin))


# ---------------------------------------------------------------------------
# pass composition

def test_pass_order_does_not_matter():
    g = build_enet(7, 64, 64)
    w = _perturb_bn_stats(init_weights(g, seed=6), seed=7)
    a_g, a_w, _ = fold_batchnorm(g, w)
    a_g, _ = elide_dropout(a_g)
    b_g, _ = elide_dropout(g)
    b_g, b_w, _ = fold_batchnorm(b_g, w)
    assert a_g.nodes == b_g.nodes
    assert set(a_w) == set(b_w)
    assert all(np.array_equal(a_w[k], b_w[k]) for k in a_w)


def test_optimize_runs_both_passes():
    g = build_enet(5, 64, 64)
    w = init_weights(g, seed=8)
    g2, w2, reports = optimize(g, w)
    assert [r.pass_name for r in reports] == ["fold_batchnorm", "elide_dropout"]
    assert len(g2.nodes) == 315 - 83 - 27
    assert validate(g2, w2) == []


def test_full_network_equivalence_after_optimize():
    g = build_enet(19, 64, 64)
    w = _perturb_bn_stats(init_weights(g, seed=9), seed=10)
    g2, w2, _ = optimize(g, w)
    rng = np.random.default_rng(11)
    x = rng.random((3, 64, 64), dtype=F32)
    base = execute(g, w, x)
    fused = execute(g2, w2, x)
    assert base.shape == fused.shape == (19, 64, 64)
    np.testing.assert_allclose(fused, base, rtol=1e-4, atol=1e-4, equal_nan=False)
    assert len(g2.nodes) < len(g.nodes)


# ---------------------------------------------------------------------------
# validate

def test_validate_clean_network():
    g = build_enet(19, 64, 64)
    assert validate(g, init_weights(g, seed=0)) == []


def test_validate_reports_weight_problems():
    g = build_enet(5, 64, 64)
    w = init_weights(g, seed=0)

    missing = dict(w)
    del missing["initial.conv.weight"]
    assert any("initial.conv.weight" in d for d in validate(g, missing))

    wrong = dict(w)
    wrong["initial.conv.weight"] = np.zeros((13, 3, 5, 5), dtype=F32)
    assert any("shape" in d and "initial.conv.weight" in d for d in validate(g, wrong))

    cast = dict(w)
    cast["initial.bn.gamma"] = w["initial.bn.gamma"].astype(np.float64)
    assert any("dtype" in d for d in validate(g, cast))

    extra = dict(w)
    extra["leftover.weight"] = np.zeros(3, dtype=F32)
    assert any("not referenced" in d for d in validate(g, extra))


def test_conv_whose_params_gain_a_bias_binds_one():
    g = build_enet(5, 64, 64)
    w = init_weights(g, seed=0)
    biased = Graph(nodes=tuple(
        replace(n, conv=replace(n.conv, has_bias=True))
        if n.name == "initial.conv" else n for n in g.nodes),
        input_shape=g.input_shape)
    diags = validate(biased, w)
    assert len(diags) == 1 and diags[0].startswith(
        "missing weight 'initial.conv.bias'"), diags
    with pytest.raises(ExecutionError, match="initial.conv.bias"):
        execute(biased, w, np.zeros((3, 64, 64), dtype=F32))
    assert count_params(biased) == count_params(g) + 13
    assert count_flops(biased).total_macs == count_flops(g).total_macs


def test_validate_reports_detached_nodes():
    b = GraphBuilder(Shape(2, 4, 4))
    main = b.prelu("act", b.input_id)
    b.conv("orphan", b.input_id, ConvParams(out_channels=2, kernel_h=1, kernel_w=1))
    g = b.build(main)
    w = init_weights(g, seed=0)
    diags = validate(g, w)
    assert any("orphan" in d and "output" in d for d in diags)


def test_validate_reports_bad_unpool_link():
    b = GraphBuilder(Shape(2, 8, 8))
    pool = b.maxpool("pool", b.input_id)
    up = b.max_unpool("up", pool, pool)
    g = b.build(up)
    # corrupt the link: a non-pool node, a missing node, no node at all
    for link, why in ((0, "not a maxpool"), (99, "no resolvable index source"),
                      (None, "no resolvable index source")):
        bad_nodes = tuple(
            replace(n, index_link=link) if n.name == "up" else n for n in g.nodes
        )
        bad = Graph(nodes=bad_nodes, input_shape=g.input_shape)
        diags = validate(bad, {})
        assert len(diags) == 1 and "up" in diags[0] and why in diags[0], diags


def test_validate_reports_shape_inference_failure():
    b = GraphBuilder(Shape(2, 5, 5))
    pool = b.maxpool("pool", b.input_id)  # odd dims cannot pool
    g = b.build(pool)
    diags = validate(g, {})
    assert any("shape inference failed" in d for d in diags)
