"""Numeric models: encodings, initialization, layers, decoders, gradients."""

import contextlib
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hcnet import autodiff as ad
from hcnet.errors import ConfigError, DimensionTooSmall, QueryArityMismatch, ShapeMismatch
from hcnet.hypergraph import HyperEdge, Query, Relation, apply_permutation, build_graph
from hcnet.nn import (
    INIT_VARIANTS,
    ForwardTrace,
    ModelConfig,
    backward,
    bind_params,
    decode_kary,
    decode_kary_batch,
    decode_unary,
    decode_unary_batch,
    edges_by_relation,
    feature_partition,
    forward_exact,
    grad_check,
    hcnet_forward,
    hcnet_forward_batch,
    hrnet_forward,
    hrnet_forward_batch,
    init_params,
    pe_table,
    positional_encoding,
)
from hcnet.randgen import random_hypergraph, random_query
from hcnet.refine import conditional_init, equivalent
from hcnet.synth import hypercycle, run_expressiveness_experiment
from hcnet.train import TrainConfig, adversarial_loss_from_logits, fit


class TestPositionalEncoding:
    def test_sinusoidal_i0_d4(self):
        np.testing.assert_allclose(positional_encoding("sinusoidal", 0, 4), [0, 1, 0, 1])

    def test_sinusoidal_i1_d2(self):
        np.testing.assert_allclose(
            positional_encoding("sinusoidal", 1, 2), [np.sin(1.0), np.cos(1.0)]
        )
        np.testing.assert_allclose(
            positional_encoding("sinusoidal", 1, 2), [0.841470, 0.540302], atol=1e-6
        )

    def test_sinusoidal_needs_even_d(self):
        with pytest.raises(DimensionTooSmall):
            positional_encoding("sinusoidal", 1, 3)

    def test_one_hot(self):
        np.testing.assert_allclose(positional_encoding("one-hot", 2, 4), [0, 1, 0, 0])

    def test_one_hot_too_small(self):
        with pytest.raises(DimensionTooSmall):
            positional_encoding("one-hot", 5, 4)

    def test_constant(self):
        np.testing.assert_allclose(positional_encoding("constant", 7, 3), [1, 1, 1])

    def test_learnable_needs_table(self):
        # A learnable encoding is a drawn table (`pe_table`), not a formula.
        with pytest.raises(ShapeMismatch, match="unknown"):
            positional_encoding("learnable", 1, 4)

    def test_table_rows_match_closed_form(self):
        table = pe_table("sinusoidal", 4, 8)
        for i in range(5):
            np.testing.assert_allclose(table[i], positional_encoding("sinusoidal", i, 8))

    def test_sinusoidal_rows_pairwise_distinct(self):
        table = pe_table("sinusoidal", 6, 16)
        for i in range(7):
            for j in range(i + 1, 7):
                assert np.abs(table[i] - table[j]).max() > 1e-6


def _params(graph, kind="hcnet", d=8, layers=2, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return init_params(graph, ModelConfig(kind=kind, d=d, layers=layers, **kw), rng)


def _pe(graph, params):
    """The encoding table a forward on `graph` reads."""
    return bind_params(ad.Tape(record=False), params, graph)["pe"].value


class TestInit:
    def test_non_source_nodes_zero(self):
        g = hypercycle(8, 3)
        params = _params(g)
        h0 = forward_exact(g, params, Query(0, (3,), 2), 0)[0]
        assert np.all(h0[[v for v in range(8) if v != 3]] == 0.0)
        assert np.any(h0[3] != 0.0)

    def test_source_is_pe_plus_zq(self):
        g = hypercycle(8, 3)
        params = _params(g)
        h0 = forward_exact(g, params, Query(0, (3,), 2), 0)[0]
        np.testing.assert_allclose(h0[3], _pe(g, params)[1] + params.tensors["z_q"][0])

    def test_repeated_given_node_sums(self):
        g = build_graph([Relation(0, "r", 3)], [], 4)
        params = _params(g)
        h0 = forward_exact(g, params, Query(0, (1, 1), 3), 0)[0]
        zq = params.tensors["z_q"][0]
        pe = _pe(g, params)
        np.testing.assert_allclose(h0[1], pe[1] + pe[2] + 2 * zq)

    def test_variants(self):
        g = hypercycle(8, 3)
        q = Query(0, (3,), 2)
        for variant, want in (("pos", "pe"), ("rel", "zq"), ("ones", "ones")):
            params = _params(g, variant=variant)
            row = {"pe": _pe(g, params)[1], "zq": params.tensors["z_q"][0], "ones": np.ones(8)}
            np.testing.assert_allclose(forward_exact(g, params, q, 0)[0][3], row[want])

    def test_arity_mismatch(self):
        g = hypercycle(8, 3)
        with pytest.raises(QueryArityMismatch):
            forward_exact(g, _params(g), Query(0, (1, 2), 2), 0)

    @pytest.mark.parametrize("target", [0, 3])
    def test_target_out_of_range_in_both_paths(self, target):
        g = hypercycle(8, 3)  # r0 is binary
        params = _params(g)
        with pytest.raises(QueryArityMismatch):
            forward_exact(g, params, Query(0, (1,), target), 0)
        with pytest.raises(QueryArityMismatch):
            hcnet_forward_batch(g, [Query(0, (1,), 2), Query(0, (1,), target)], params)

    def test_closed_form_table_is_built_for_the_graph(self):
        # Parameters hold only trained tensors; each forward binds the
        # table for the positions of the graph it runs on.
        small, wide = hypercycle(8, 3), build_graph([Relation(0, "r", 5)], [], 4)
        params = _params(small)
        assert "pe" not in params.tensors
        np.testing.assert_array_equal(_pe(small, params), pe_table("sinusoidal", 3, 8))
        np.testing.assert_array_equal(_pe(wide, params), pe_table("sinusoidal", 5, 8))
        learnable = _params(small, pe_kind="learnable")
        assert _pe(wide, learnable) is learnable.tensors["pe"]

    @pytest.mark.parametrize("cfg", [{"d": 3}, {"d": 2, "pe_kind": "one-hot"}],
                             ids=["sinusoidal-odd-d", "one-hot-below-arity"])
    def test_encoding_that_cannot_fit_raises_at_the_forward(self, cfg):
        g = hypercycle(8, 3)  # arity 3
        params = _params(g, **cfg)
        q = Query(0, (1,), 2)
        with pytest.raises(DimensionTooSmall):
            hcnet_forward_batch(g, [q], params)
        with pytest.raises(DimensionTooSmall):
            forward_exact(g, params, q, 1)

    def test_unknown_variant_in_both_paths(self):
        # Both paths read the variant from a ModelConfig, which rejects it.
        with pytest.raises(ConfigError, match="unknown init variant"):
            _params(hypercycle(8, 3), variant="pos-rel")

    @pytest.mark.parametrize("pe_kind", ["sinusoidal", "one-hot", "constant", "learnable"])
    def test_is_the_batched_path_at_layer_zero(self, pe_kind):
        rng = np.random.default_rng(6)
        for _ in range(5):
            g = random_hypergraph(rng, max_nodes=12)
            q = random_query(rng, g)
            for variant in INIT_VARIANTS:
                cfg = ModelConfig(kind="hcnet", d=8, layers=0, pe_kind=pe_kind, variant=variant)
                params = init_params(g, cfg, rng)
                trace = hcnet_forward_batch(g, [q], params)
                assert np.array_equal(forward_exact(g, params, q, 0)[0], trace.features.value[0])

    @pytest.mark.parametrize("typo", [{"kind": "hcnett"}, {"mode": "query-dependant"}])
    def test_params_reject_unknown_kind_or_mode(self, typo):
        with pytest.raises(ConfigError):
            init_params(hypercycle(8, 3), ModelConfig(d=8, layers=1, **typo),
                        np.random.default_rng(0))

    @pytest.mark.parametrize("bad, message", [
        ({"kind": "hcnett"}, "unknown model kind"),
        ({"mode": "query-dependant"}, "unknown message mode"),
        ({"variant": "pos-rel"}, "unknown init variant"),
        ({"pe_kind": "learned"}, "unknown encoding kind"),
        ({"d": 0}, "config 'd' must be an integer >= 1"),
        ({"layers": -1}, "config 'layers' must be an integer >= 0"),
        ({"layers": "x"}, "config 'layers' must be an integer >= 0"),
        ({"dropout": 1.0}, "config 'dropout' must be a number in"),
        ({"dropout": True}, "config 'dropout' must be a number in"),
    ], ids=["kind", "mode", "variant", "pe_kind", "d-0", "layers-negative", "layers-x",
            "dropout-1", "dropout-bool"])
    def test_config_rejects_a_bad_field(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            ModelConfig(**bad)

    def test_hrnet_rejects_query_dependent_messages(self):
        with pytest.raises(ConfigError, match="query-independent"):
            ModelConfig(kind="hrnet", mode="query-dependent")
        with pytest.raises(ConfigError):
            _params(hypercycle(8, 3), kind="hrnet")

    def test_distinguishability(self):
        # Distinct given nodes receive pairwise-distinct nonzero features,
        # each distinct from the zero background.
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_hypergraph(rng, max_nodes=12)
            q = random_query(rng, g)
            params = init_params(g, ModelConfig(kind="hcnet", d=16, layers=1), rng)
            h0 = forward_exact(g, params, q, 0)[0]
            rows = {u: h0[u] for u in set(q.given)}
            for u, row in rows.items():
                assert np.abs(row).max() > 1e-9
            keys = [tuple(np.round(r, 9)) for r in rows.values()]
            assert len(set(keys)) == len(keys)


class TestExactForward:
    def test_single_edge_hand_oracle(self):
        # d=1, one binary edge r(a,b), alpha=1, constant encodings p=1,
        # W=[1 1], b=0, query-independent w_r: message into b is h_a * w_r,
        # so the layer computes ReLU(h_b + h_a * w_r) (and symmetrically
        # for a). The query r(a, ?) with z_q = 1 starts a at p_1 + z_q = 2
        # and b at 0.
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 2)
        cfg = ModelConfig(
            kind="hcnet", d=1, layers=1, mode="query-independent",
            pe_kind="constant",
        )
        params = init_params(g, cfg, np.random.default_rng(0))
        params.tensors["W_l0"][:] = 1.0
        params.tensors["b_l0"][:] = 0.0
        params.tensors["alpha_l0"][()] = 1.0
        params.tensors["w_rel0"][:] = 0.5
        params.tensors["z_q"][0] = 1.0
        out = forward_exact(g, params, Query(0, (0,), 2), 1)
        np.testing.assert_array_equal(out[0], [[2.0], [0.0]])
        np.testing.assert_allclose(out[1][1], [0.0 + 2.0 * 0.5])
        np.testing.assert_allclose(out[1][0], [2.0 + 0.0 * 0.5])

    def test_matches_per_edge_loop_reference(self):
        # The layer rule written out edge by edge and position by position;
        # the kernel multiplies and sums in another order, hence rtol.
        rng = np.random.default_rng(13)
        g = random_hypergraph(rng, max_nodes=12, max_relations=3, max_arity=4)
        q = random_query(rng, g)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=3), rng)
        h = forward_exact(g, params, q, 0)[0]
        t, pe = params.tensors, _pe(g, params)
        for ell, got in enumerate(forward_exact(g, params, q, 3)[1:]):
            alpha = float(t[f"alpha_l{ell}"])
            acc = np.zeros_like(h)
            for ed in g.edges:
                k = len(ed.nodes)
                gate = t[f"W_rel{ed.relation}"] @ t["z_q"][q.relation]
                factors = [alpha * h[u] + (1 - alpha) * pe[j + 1]
                           for j, u in enumerate(ed.nodes)]
                for i in range(k):
                    m = gate.copy()
                    for j in range(k):
                        if j != i:
                            m = m * factors[j]
                    acc[ed.nodes[i]] += m
            z = np.concatenate([h, acc], axis=1) @ t[f"W_l{ell}"].T + t[f"b_l{ell}"]
            h = np.maximum(z, 0.0)
            np.testing.assert_allclose(got, h, rtol=1e-12, atol=1e-12)

    def test_query_dependent_mode_needs_a_query(self):
        g = hypercycle(8, 3)
        with pytest.raises(ShapeMismatch, match="needs a query"):
            forward_exact(g, _params(g), None, 1)

    def test_layer_zero_is_init(self):
        g = hypercycle(8, 3)
        params = _params(g, kind="hrnet", mode="query-independent")
        out = forward_exact(g, params, None, 0)
        np.testing.assert_allclose(out[0], np.ones((8, params.config.d)))

    def test_equal_message_multisets_bitwise_equal(self):
        # x2 and x4 are related by the rotation automorphism; sorted
        # accumulation makes their features bitwise identical.
        g = hypercycle(8, 3)
        params = _params(g, kind="hrnet", d=16, layers=4, mode="query-independent")
        feats = forward_exact(g, params, None, 4)
        for layer in feats:
            assert (layer[2] == layer[4]).all()

    def test_no_nan(self):
        rng = np.random.default_rng(6)
        g = random_hypergraph(rng)
        params = init_params(g, ModelConfig(kind="hrnet", d=8, layers=3,
                                            mode="query-independent"), rng)
        for layer in forward_exact(g, params, None, 3):
            assert np.isfinite(layer).all()

    def test_feature_partition_refined_by_wl_init(self):
        g = hypercycle(8, 3)
        q = Query(0, (0,), 2)
        params = _params(g, d=16)
        h0 = forward_exact(g, params, q, 0)[0]
        assert equivalent(conditional_init(g, q).colors, feature_partition(h0))


class TestBatchedForward:
    def test_matches_per_edge_loop_with_norm_and_skip(self):
        # The layer rule edge by edge and position by position, then layer
        # norm, ReLU and the skip connection, with trained-looking norm
        # parameters; the batched path sums in another order, hence rtol.
        rng = np.random.default_rng(7)
        g = random_hypergraph(rng, max_nodes=12, max_relations=3, max_arity=4)
        q = random_query(rng, g)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=2), rng)
        t = params.tensors
        for ell in range(2):
            t[f"ln_g_l{ell}"] += rng.uniform(-0.5, 0.5, 8)
            t[f"ln_b_l{ell}"] += rng.uniform(-0.5, 0.5, 8)
        h = forward_exact(g, params, q, 0)[0]
        pe = _pe(g, params)
        for ell in range(2):
            alpha = float(t[f"alpha_l{ell}"])
            acc = np.zeros_like(h)
            for ed in g.edges:
                gate = t[f"W_rel{ed.relation}"] @ t["z_q"][q.relation]
                factors = [alpha * h[u] + (1 - alpha) * pe[j + 1]
                           for j, u in enumerate(ed.nodes)]
                for i, v in enumerate(ed.nodes):
                    acc[v] += gate * np.prod([f for j, f in enumerate(factors) if j != i], axis=0)
            z = np.concatenate([h, acc], axis=1) @ t[f"W_l{ell}"].T + t[f"b_l{ell}"]
            mu, var = z.mean(axis=1, keepdims=True), z.var(axis=1, keepdims=True)
            z = t[f"ln_g_l{ell}"] * (z - mu) / np.sqrt(var + 1e-5) + t[f"ln_b_l{ell}"]
            h = np.maximum(z, 0.0) + h
        batched, _ = hcnet_forward(g, q, params)
        np.testing.assert_allclose(batched, h, rtol=1e-9, atol=1e-12)

    def test_dropout_only_with_an_rng(self):
        g = hypercycle(8, 3)
        queries = [Query(0, (1,), 2)]
        params = _params(g, dropout=0.5)
        plain = replace(params, config=replace(params.config, dropout=0.0))
        without = hcnet_forward_batch(g, queries, params).features.value
        assert np.array_equal(without, hcnet_forward_batch(g, queries, plain).features.value)
        dropped = hcnet_forward_batch(g, queries, params, rng=np.random.default_rng(0))
        assert not np.array_equal(without, dropped.features.value)

    def test_batch_rows_match_single_queries(self):
        rng = np.random.default_rng(8)
        g = hypercycle(8, 3)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=2), rng)
        queries = [Query(0, (i,), 2) for i in range(4)]
        batch = hcnet_forward_batch(g, queries, params).features.value
        for b, q in enumerate(queries):
            single, _ = hcnet_forward(g, q, params)
            np.testing.assert_allclose(batch[b], single, atol=1e-12)

    def test_tape_grows_per_relation_not_per_position(self):
        # A layer's messages are one tape var whatever the relations and
        # arities; each relation adds only its gate's vars.
        def tape_vars(arities):
            rels = [Relation(r, f"r{r}", k) for r, k in enumerate(arities)]
            edges = [HyperEdge(r, tuple(range(k))) for r, k in enumerate(arities)]
            g = build_graph(rels, edges, 6)
            q = Query(0, tuple(range(arities[0] - 1)), arities[0])
            return len(hcnet_forward_batch(g, [q], _params(g, layers=3)).tape.vars)

        assert tape_vars((2,)) == tape_vars((6,))
        one, two, three = tape_vars((2,)), tape_vars((2, 6)), tape_vars((2, 6, 4))
        assert three - two == two - one

    def test_non_recording_pass_is_bitwise_equal(self):
        rng = np.random.default_rng(10)
        g = random_hypergraph(rng, max_nodes=15, max_arity=4)
        queries = [random_query(rng, g) for _ in range(3)]
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=3), rng)
        hr_params = init_params(
            g, ModelConfig(kind="hrnet", d=8, layers=3, mode="query-independent"), rng
        )
        k = hr_params.decoder_arities[0]
        tuples = rng.integers(0, g.node_count, (5, k)).astype(np.intp)
        qrel = np.full(5, next(r.id for r in g.relations if r.arity == k), dtype=np.intp)
        out = {}
        for record in (True, False):
            hc = hcnet_forward_batch(g, queries, params, record=record)
            hr = hrnet_forward_batch(g, hr_params, record=record)
            out[record] = (hc.features.value, decode_unary_batch(hc).value,
                           hr.features.value, decode_kary_batch(hr, tuples, qrel).value)
            assert (len(hc.tape.vars) > 0, len(hr.tape.vars) > 0) == (record, record)
        for a, b in zip(out[True], out[False]):
            np.testing.assert_array_equal(a, b)

    def test_masked_edges_change_features(self):
        g = hypercycle(8, 3)
        params = _params(g)
        q = Query(0, (0,), 2)
        full = hcnet_forward_batch(g, [q], params).features.value
        masked = hcnet_forward_batch(g, [q], params, masked_edges={0}).features.value
        assert np.abs(full - masked).max() > 0.0

    def test_equivariance(self):
        rng = np.random.default_rng(9)
        g = random_hypergraph(rng, max_nodes=15)
        q = random_query(rng, g)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=3), rng)
        feats, _ = hcnet_forward(g, q, params)
        perm = [int(x) for x in rng.permutation(g.node_count)]
        pg = apply_permutation(g, perm)
        pq = Query(q.relation, tuple(perm[u] for u in q.given), q.target)
        pfeats, _ = hcnet_forward(pg, pq, params)
        np.testing.assert_allclose(pfeats[perm], feats, atol=1e-9)


def _edges_by_relation_loop(graph, masked_edges=None):
    """The loop `edges_by_relation` ran on every forward before the graph
    kept its edge table: the reference for keys, their order and values."""
    groups = {}
    for e, ed in enumerate(graph.edges):
        if masked_edges and e in masked_edges:
            continue
        groups.setdefault(ed.relation, []).append(ed.nodes)
    return {r: np.asarray(rows, dtype=np.intp) for r, rows in groups.items()}


def _assert_same_groups(got, want):
    assert list(got) == list(want)  # the order fixes the scatter's sums
    for r in want:
        assert got[r].dtype == np.intp and got[r].shape == want[r].shape
        assert np.array_equal(got[r], want[r])


class TestEdgesByRelation:
    def test_equals_the_loop_on_random_graphs_and_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_hypergraph(rng, max_nodes=12, max_relations=5, max_arity=5)
            E = len(g.edges)
            masks = [None, set(), frozenset(range(E)), {0}, {E - 1}, {E + 3}]
            masks += [{int(e) for e in np.flatnonzero(rng.random(E) < p)}
                      for p in (0.1, 0.5, 0.9)]
            for masked in masks:
                _assert_same_groups(edges_by_relation(g, masked),
                                    _edges_by_relation_loop(g, masked))

    def test_masked_first_edge_reorders_relations(self):
        edges = [HyperEdge(0, (0, 1)), HyperEdge(1, (1, 2, 0)), HyperEdge(0, (2, 1))]
        g = build_graph([Relation(0, "r0", 2), Relation(1, "r1", 3)], edges, 3)
        assert list(edges_by_relation(g)) == [0, 1]
        got = edges_by_relation(g, {0})
        assert list(got) == [1, 0]
        _assert_same_groups(got, _edges_by_relation_loop(g, {0}))

    def test_a_relation_masked_entirely_is_dropped(self):
        edges = [HyperEdge(0, (0, 1)), HyperEdge(1, (1,)), HyperEdge(0, (2, 1)),
                 HyperEdge(1, (2,))]
        g = build_graph([Relation(0, "r0", 2), Relation(1, "r1", 1)], edges, 3)
        got = edges_by_relation(g, {1, 3})
        assert list(got) == [0]
        _assert_same_groups(got, _edges_by_relation_loop(g, {1, 3}))
        assert edges_by_relation(g, {0, 1, 2, 3}) == {}

    def test_unmasked_arrays_are_the_graphs_read_only_table(self):
        g = hypercycle(8, 3)
        groups = edges_by_relation(g)
        for r, nodes in groups.items():
            assert nodes is g.relation_edges[r][1]
            with pytest.raises(ValueError, match="read-only"):
                nodes[0, 0] = 5
        assert edges_by_relation(g)[1] is groups[1]
        _assert_same_groups(groups, _edges_by_relation_loop(g))


class TestDecoders:
    def test_zero_weights_give_half(self):
        g = hypercycle(8, 3)
        params = _params(g)
        for name in ("dec_W1", "dec_b1", "dec_W2", "dec_b2"):
            params.tensors[name][:] = 0.0
        p = decode_unary(np.ones(8), np.ones(8), params)
        assert p == pytest.approx(0.5)

    def test_bias_monotonicity(self):
        g = hypercycle(8, 3)
        params = _params(g)
        h, z = np.ones(8), np.ones(8)
        low = decode_unary(h, z, params)
        params.tensors["dec_b2"][:] += 1.0
        assert decode_unary(h, z, params) > low

    def test_probability_in_open_interval(self):
        rng = np.random.default_rng(10)
        g = hypercycle(8, 3)
        params = _params(g)
        for _ in range(20):
            p = decode_unary(rng.standard_normal(8), rng.standard_normal(8), params)
            assert 0.0 < p < 1.0

    def test_kary_shape_check(self):
        g = hypercycle(8, 3)
        params = _params(g, kind="hrnet", mode="query-independent")
        with pytest.raises(ShapeMismatch):
            decode_kary([np.ones(8)] * 4, np.ones(8), params)  # no arity-4 decoder

    def test_unary_batch_matches_single(self):
        g = hypercycle(8, 3)
        params = _params(g)
        q = Query(0, (0,), 2)
        trace = hcnet_forward_batch(g, [q], params)
        logits = decode_unary_batch(trace).value[0]
        feats = trace.features.value[0]
        zq = params.tensors["z_q"][0]
        for v in range(8):
            expected = decode_unary(feats[v], zq, params)
            assert 1.0 / (1.0 + np.exp(-logits[v])) == pytest.approx(expected)


class TestGradients:
    def test_zero_loss_grad_gives_zero_param_grads(self):
        g = hypercycle(8, 3)
        params = _params(g)
        trace = hcnet_forward_batch(g, [Query(0, (0,), 2)], params)
        logits = decode_unary_batch(trace)
        grads = backward(trace, logits, np.zeros_like(logits.value))
        assert all(np.all(v == 0.0) for v in grads.values())

    def test_grad_check_small_instance(self):
        rng = np.random.default_rng(11)
        g = random_hypergraph(rng, max_nodes=8, max_relations=2, max_arity=3)
        q = random_query(rng, g)
        params = init_params(g, ModelConfig(kind="hcnet", d=6, layers=2), rng)
        assert grad_check(g, q, params, seed=11) < 1e-4

    def test_grad_check_learnable_pe(self):
        rng = np.random.default_rng(12)
        g = random_hypergraph(rng, max_nodes=8, max_relations=2, max_arity=3)
        q = random_query(rng, g)
        params = init_params(
            g, ModelConfig(kind="hcnet", d=6, layers=2, pe_kind="learnable"), rng
        )
        assert grad_check(g, q, params, seed=12) < 1e-4


# --- the fused message op against the per-op chain it replaced -------------


def _exclusive_prod(tape, f):
    """exclusive_products as a tape op; one factor gives a constant."""
    x = f.value
    if x.shape[-3] == 1:
        return tape.constant(ad.exclusive_products(x))
    return tape.var(ad.exclusive_products(x), ((f, lambda g: ad.exclusive_products_vjp(x, g)),))


def _chained_messages(tape, h, alpha, one_minus, pe, gates, plan, given=None):
    """The layer's messages as separate tape ops: per relation a gather,
    two muls, an add, the exclusive products, the gate mul, an index_add,
    plus the encoding lookup. The chain sums every row, so it ignores the
    given pairs of a first layer."""
    msgs = tape.constant(np.zeros_like(h.value))
    for rel, nodes in plan.groups.items():
        k = nodes.shape[1]
        hn = ad.gather_nodes(tape, h, nodes.T)
        pk = ad.take_rows(tape, pe, np.arange(1, k + 1)[:, None])
        f = ad.add(tape, ad.mul(tape, alpha, hn), ad.mul(tape, one_minus, pk))
        m = ad.mul(tape, _exclusive_prod(tape, f), gates[rel])
        msgs = ad.index_add(tape, msgs, nodes.T, m)
    return msgs


def _bitwise_equal(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _graph(arities, nodes=7, per_relation=6, seed=0):
    rng = np.random.default_rng(seed)
    rels = [Relation(r, f"r{r}", k) for r, k in enumerate(arities)]
    edges = [HyperEdge(r, tuple(int(v) for v in rng.integers(0, nodes, k)))
             for r, k in enumerate(arities) for _ in range(per_relation)]
    return build_graph(rels, edges, nodes)


def _assert_op_equals_the_chain(groups, Q, gate_shape, masked=frozenset(), constants=()):
    """relation_messages and the chain agree bit for bit in value and in
    every leaf gradient on the relations of groups not in masked; the
    inputs named in constants ("h", "pe") are Constants and get none."""
    rng = np.random.default_rng(1)
    inputs = {"h": rng.standard_normal((Q, 7, 6)) * 10.0 ** rng.integers(-3, 3, 6),
              "alpha": np.asarray(0.3), "pe": rng.standard_normal((6, 6)),
              **{f"g{r}": rng.standard_normal(gate_shape) for r in groups}}
    seed = rng.standard_normal((Q, 7, 6))
    kept = {r: nodes for r, nodes in groups.items() if r not in masked}
    plan = ad.MessagePlan(kept, inputs["h"].shape)
    results = []
    for op in (ad.relation_messages, _chained_messages):
        tape = ad.Tape()
        leaves = {name: (tape.constant if name in constants else tape.leaf)(value.copy())
                  for name, value in inputs.items()}
        one_minus = ad.sub(tape, tape.constant(np.asarray(1.0)), leaves["alpha"])
        gates = {r: leaves[f"g{r}"] for r in groups}
        out = op(tape, leaves["h"], leaves["alpha"], one_minus, leaves["pe"], gates, plan)
        ad.backward(tape, out, seed)
        results.append((out.value, {n: v.grad for n, v in leaves.items()}))
    (fused, fused_grads), (chain, chain_grads) = results
    assert _bitwise_equal(fused, chain)
    for name in inputs:
        if name in {f"g{r}" for r in masked} | set(constants):
            assert fused_grads[name] is None and chain_grads[name] is None
        else:
            assert _bitwise_equal(fused_grads[name], chain_grads[name]), name


def _off_thread_calls(mp, name="exclusive_products"):
    """Spy on `ad.<name>` through mp: return a list that gains one entry
    per call made off the calling thread. A message pass's forward calls
    `exclusive_products` once per relation of each block, and a layer
    tail's `_normalize` once per block."""
    caller, calls, real = threading.current_thread(), [], getattr(ad, name)

    def spy(*args, **kwargs):
        if threading.current_thread() is not caller:
            calls.append(threading.current_thread())
        return real(*args, **kwargs)

    mp.setattr(ad, name, spy)
    return calls


def _off_thread_rows(mp):
    """Spy on the input rows `ad.mlp_decoder` builds through mp: return a
    list that gains one entry per block of rows built off the calling
    thread."""
    caller, calls, decoder = threading.current_thread(), [], ad.mlp_decoder

    def spy(tape, inputs, shape, rows, *rest):
        def spied_rows(lo, hi):
            if threading.current_thread() is not caller:
                calls.append(threading.current_thread())
            return rows(lo, hi)

        return decoder(tape, inputs, shape, spied_rows, *rest)

    mp.setattr(ad, "mlp_decoder", spy)
    return calls


def _paths(monkeypatch):
    """Set up the message kernel's serial path (one CPU), then its threaded
    path (two CPUs, also on a one-CPU host), each in its own monkeypatch
    context, and yield whether the path may thread and its
    `_off_thread_calls` list."""
    for cpus in ({0}, {0, 1}):
        with monkeypatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            yield len(cpus) > 1, _off_thread_calls(mp)


def _jittered(graph, seed=0, **kw):
    params = _params(graph, d=6, layers=3, seed=seed, **kw)
    rng = np.random.default_rng(seed + 1)
    for t in params.tensors.values():
        t += rng.uniform(-0.1, 0.1, t.shape)
    return params


# Model cases in both message modes, with and without dropout, and hrnet,
# whose first layer takes its all-ones start as a Constant h.
_MODEL_CASES = [
    dict(kind="hcnet", arities=(1, 2, 3, 5), mode="query-dependent", dropout=0.3),
    dict(kind="hcnet", arities=(2, 1, 4), mode="query-independent", pe_kind="learnable"),
    dict(kind="hcnet", arities=(3, 2, 2), mode="query-dependent", masked_relation=1),
    dict(kind="hcnet", arities=(1, 1, 2), mode="query-independent", pe_kind="one-hot"),
    dict(kind="hrnet", arities=(1, 3, 2), mode="query-independent"),
    dict(kind="hcnet", arities=(2, 3, 1), mode="query-independent", dropout=0.3),
]


def _assert_models_equal_the_chains(case, monkeypatch, decoders=False, **chains):
    """Features, logits and every gradient of a model case, recorded and
    not, are bitwise equal with the `autodiff` ops named in chains replaced
    by their test-local chains, and with decoders, `ad.mlp_decoder` by the
    chain of the case's decoder."""
    case = dict(case)
    kind, arities = case.pop("kind"), case.pop("arities")
    masked_relation = case.pop("masked_relation", None)
    g = _graph(arities)
    params = _jittered(g, kind=kind, **case)
    masked = {e for e, ed in enumerate(g.edges) if ed.relation == masked_relation}
    queries = [Query(r, tuple(range(k - 1)), k) for r, k in enumerate(arities)]
    k = max(arities)
    tuples = np.random.default_rng(2).integers(0, g.node_count, (5, k)).astype(np.intp)
    qrel = np.full(5, arities.index(k), dtype=np.intp)

    def chained_decoder(tape, inputs, shape, rows, spread, *weights):
        if kind == "hcnet":
            return _chained_decoder(tape, *inputs, *weights)
        return _chained_kary_decoder(tape, inputs[0], inputs[-1], tuples, qrel, *weights)

    if decoders:
        chains["mlp_decoder"] = chained_decoder

    def run(record):
        rng = np.random.default_rng(3)
        if kind == "hcnet":
            trace = hcnet_forward_batch(g, queries, params, rng=rng, masked_edges=masked,
                                        record=record)
            logits = decode_unary_batch(trace)
        else:
            trace = hrnet_forward_batch(g, params, record=record)
            logits = decode_kary_batch(trace, tuples, qrel)
        out = [trace.features.value, logits.value]
        if record:
            seed = np.random.default_rng(4).standard_normal(logits.value.shape)
            out += list(backward(trace, logits, seed).values())
        return out

    fused = run(True) + run(False)
    for name, op in chains.items():
        monkeypatch.setattr(ad, name, op)
    chain = run(True) + run(False)
    assert len(fused) == len(chain) > 4
    for a, b in zip(fused, chain):
        assert _bitwise_equal(a, b)


class TestRelationMessages:
    @pytest.mark.parametrize("gate_shape", [(6,), (2, 1, 1, 6)])
    def test_op_equals_the_chain_bitwise(self, gate_shape):
        # Arities 1 to 5, repeated nodes inside an edge, values of very
        # different magnitudes: only the chain's order of every sum gives
        # the same bits.
        groups = {0: np.array([[1, 1, 4], [0, 2, 4]]), 1: np.array([[3], [3], [0]]),
                  2: np.array([[4, 0, 1, 2, 3]]), 3: np.array([[2, 2], [1, 0], [4, 4]])}
        _assert_op_equals_the_chain(groups, 2, gate_shape)

    # Arities 1 to 5 with 60 incidences each at Q=5, d=6, and a small
    # arity-2 relation of 6: a query's messages are 306*6 floats, a large
    # relation's 60*6 and the small one's 6*6. The budgets give (forward,
    # VJP) blocks of (1, 1), (1, 2), (1, 3), (2, all) and (all, all)
    # queries: 5, 3 or 2 blocks, or one; from blocks of 2 queries on, the
    # small relation fits one block.
    @pytest.mark.parametrize("budget, sizes", [
        (8, (1, 1)), (2 * 60 * 6 * 8, (1, 2)), (3 * 60 * 6 * 8, (1, 3)),
        (2 * 306 * 6 * 8, (2, 10)), (1 << 21, (5, 5)),
    ], ids=["blocks-1-1", "blocks-1-2", "blocks-1-3", "blocks-2-all", "one-block"])
    @pytest.mark.parametrize("gate_shape", [(6,), (5, 1, 1, 6)], ids=["shared", "per-query"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked-relation"])
    def test_query_blocks_equal_the_chain_bitwise(self, budget, sizes, gate_shape, masked,
                                                  monkeypatch):
        # Each case runs on the serial and on the threaded path.
        groups = self._block_groups()
        monkeypatch.setattr(ad, "BLOCK_BYTES", budget)
        assert [len(ad._blocks(5, n * 6)) for n in (306, 60)] == [-(-5 // b) for b in sizes]
        threaded = len(ad._blocks(5, 306 * 6)) > 1  # the forward's blocks are the fewest
        for two_cpus, off_thread in _paths(monkeypatch):
            before = threading.active_count()
            # A masked relation has no edges left, so its gate gets no gradient.
            _assert_op_equals_the_chain(groups, 5, gate_shape, masked={2} if masked else set())
            assert bool(off_thread) == (two_cpus and threaded)
            assert threading.active_count() == before

    @staticmethod
    def _block_groups():
        rng = np.random.default_rng(7)
        groups = {r: rng.integers(0, 7, (60 // k, k)) for r, k in enumerate((3, 1, 5, 2, 4))}
        groups[5] = rng.integers(0, 7, (3, 2))
        return groups

    @pytest.mark.parametrize("budget", [8, 2 * 60 * 6 * 8])
    @pytest.mark.parametrize("gate_shape", [(6,), (5, 1, 1, 6)], ids=["shared", "per-query"])
    def test_constant_h_and_pe_blocks_equal_the_chain_bitwise(self, budget, gate_shape,
                                                              monkeypatch):
        # hrnet's all-ones start and a closed-form encoding table are
        # Constants: the VJP skips h's term, on either path.
        monkeypatch.setattr(ad, "BLOCK_BYTES", budget)
        for _ in _paths(monkeypatch):
            _assert_op_equals_the_chain(self._block_groups(), 5, gate_shape,
                                        constants=("h", "pe"))

    @pytest.mark.parametrize("case", _MODEL_CASES)
    def test_models_equal_the_chain_bitwise(self, case, monkeypatch):
        # In one block, and in blocks of one query on both paths.
        _assert_models_equal_the_chains(case, monkeypatch, relation_messages=_chained_messages)
        for _ in _paths(monkeypatch):
            with monkeypatch.context() as mp:
                mp.setattr(ad, "BLOCK_BYTES", 8)
                _assert_models_equal_the_chains(case, mp, relation_messages=_chained_messages)

    @pytest.mark.parametrize("off_caller", [False, True], ids=["calling-thread", "worker"])
    def test_a_failed_block_is_raised(self, off_caller, monkeypatch):
        # The first call on one thread raises; the other thread waits in
        # turn for the failed block's Q-sum, so it must be woken and stop.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        vjp, failed = ad.exclusive_products_vjp, []
        caller = None

        def failing_vjp(f, g):
            if (threading.current_thread() is not caller) == off_caller and not failed:
                failed.append(threading.current_thread())
                raise FloatingPointError("block failed")
            return vjp(f, g)

        monkeypatch.setattr(ad, "exclusive_products_vjp", failing_vjp)
        groups = self._block_groups()
        errors = []

        def pass_():
            nonlocal caller
            caller = threading.current_thread()
            try:
                _assert_op_equals_the_chain(groups, 5, (5, 1, 1, 6))
            except FloatingPointError as e:
                errors.append(e)

        before = threading.active_count()
        t = threading.Thread(target=pass_, daemon=True)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert len(errors) == 1 and len(failed) == 1
        assert (failed[0] is not caller) == off_caller
        assert threading.active_count() == before
        monkeypatch.setattr(ad, "exclusive_products_vjp", vjp)
        off_thread = _off_thread_calls(monkeypatch)
        _assert_op_equals_the_chain(groups, 5, (5, 1, 1, 6))
        assert off_thread and threading.active_count() == before

    def test_one_cpu_or_one_block_starts_no_thread(self, monkeypatch):
        before = threading.active_count()
        off_thread = _off_thread_calls(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        _assert_op_equals_the_chain(self._block_groups(), 5, (6,))  # one block
        assert not off_thread and threading.active_count() == before
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _assert_op_equals_the_chain(self._block_groups(), 5, (6,))
        assert not off_thread and threading.active_count() == before

    @pytest.mark.parametrize("fail", [False, True], ids=["done", "failed"])
    def test_no_thread_outlives_a_pass(self, fail, monkeypatch):
        # The other thread's blocks are slow, so the calling thread is done
        # with its own (or has failed on its first) while that thread is
        # still busy: the pass must wait for it to end.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        caller, products = threading.current_thread(), ad.exclusive_products

        def slow_off_caller(f, out=None):
            if threading.current_thread() is not caller:
                time.sleep(0.01)
            elif fail:
                raise FloatingPointError("block failed")
            return products(f, out)

        monkeypatch.setattr(ad, "exclusive_products", slow_off_caller)
        groups = self._block_groups()
        tape = ad.Tape(record=False)
        pe, alpha = tape.constant(np.ones((6, 6))), tape.constant(np.asarray(0.3))
        gates = {r: tape.constant(np.ones(6)) for r in groups}
        before = threading.active_count()
        with pytest.raises(FloatingPointError) if fail else contextlib.nullcontext():
            ad.relation_messages(tape, tape.constant(np.ones((5, 7, 6))), alpha, alpha, pe,
                                 gates, ad.MessagePlan(groups, (5, 7, 6)))
        assert threading.active_count() == before

    def test_concurrent_passes_stay_bitwise(self, monkeypatch):
        # Three callers each start a thread per pass at once, with the
        # interpreter switching threads as often as it can: every pass
        # still adds its Q-sum in block order, and no thread outlives it.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        errors = []

        def passes():
            try:
                for _ in range(3):
                    _assert_op_equals_the_chain(self._block_groups(), 5, (6,))
            except BaseException as e:  # reported below
                errors.append(e)

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=passes, daemon=True) for _ in range(3)]
            for t in callers:
                t.start()
            deadline = time.monotonic() + 60
            for t in callers:
                t.join(timeout=max(deadline - time.monotonic(), 0))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert errors == []
        assert threading.active_count() == before

    def test_constants_get_no_gradient(self):
        # A closed-form encoding table and hrnet's all-ones start are
        # Constants: no parents of the message op, and no gradients of
        # nn.backward, which returns the trained tensors' only.
        groups = {0: np.array([[1, 1, 4], [0, 2, 4]]), 1: np.array([[3], [0]])}
        tape = ad.Tape()
        h, pe = tape.constant(np.ones((1, 5, 6))), tape.constant(pe_table("sinusoidal", 3, 6))
        alpha = tape.leaf(np.asarray(0.3))
        one_minus = ad.sub(tape, tape.constant(np.asarray(1.0)), alpha)
        gates = {r: tape.leaf(np.full(6, 0.5)) for r in groups}
        out = ad.relation_messages(tape, h, alpha, one_minus, pe, gates,
                                   ad.MessagePlan(groups, (1, 5, 6)))
        assert [p for p, _ in out.parents] == [gates[1], gates[0], one_minus, alpha]
        ad.backward(tape, out, np.ones((1, 5, 6)))
        assert h.grad is None and pe.grad is None and alpha.grad is not None
        g = hypercycle(8, 3)
        for kind, mode in (("hcnet", "query-dependent"), ("hrnet", "query-independent")):
            params = _params(g, kind=kind, mode=mode)
            trace = (hcnet_forward_batch(g, [Query(0, (0,), 2)], params) if kind == "hcnet"
                     else hrnet_forward_batch(g, params))
            assert backward(trace, trace.features).keys() == params.tensors.keys()

    def test_recorded_pass_memory(self):
        # The train workload's layer: Q=16, V=1000, 4000 edges of arities
        # 2/2/3/3, d=32, per-query gates. Unblocked, a forward plus
        # backward peaked at 94 MB of arrays; query blocks leave about
        # 48 MB, most of it the (Q, V, d) gradients and alpha's buffer.
        rng = np.random.default_rng(0)
        Q, V, d = 16, 1000, 32
        groups = {r: rng.integers(0, V, (1000, k)) for r, k in enumerate((2, 2, 3, 3))}
        tape = ad.Tape()
        h = tape.leaf(rng.standard_normal((Q, V, d)))
        alpha = tape.leaf(np.asarray(0.5))
        one_minus = ad.sub(tape, tape.constant(np.asarray(1.0)), alpha)
        pe = tape.constant(pe_table("sinusoidal", 3, d))
        gates = {r: tape.leaf(rng.standard_normal((Q, 1, 1, d))) for r in groups}
        seed = rng.standard_normal((Q, V, d))
        tracemalloc.start()
        try:
            plan = ad.MessagePlan(groups, (Q, V, d))
            out = ad.relation_messages(tape, h, alpha, one_minus, pe, gates, plan)
            ad.backward(tape, out, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"

    def test_tape_keeps_no_per_incidence_array(self):
        # 40 edges of arity 3 on 6 nodes: a per-incidence array (Q, 3, 40, d)
        # is twenty times the widest per-node one, a layer's (Q, V, d)
        # output; the fused tail and decoder keep no (Q, V, 2d) concat.
        g = _graph((3, 2), nodes=6, per_relation=40)
        params = _params(g, d=4, layers=2)
        queries = [Query(0, (0, 1), 3), Query(1, (2,), 1)]
        trace = hcnet_forward_batch(g, queries, params)
        decode_unary_batch(trace)
        widest = len(queries) * g.node_count * 4
        assert max(v.value.size for v in trace.tape.vars) == widest


# --- a first layer summed from the given nodes' neighbourhoods ----------------


def _given_graph():
    """Nine nodes; node 8 is in no edge, node 2 sits twice in an edge of
    relation 1, which also holds an edge twice, as relation 0 (arity 1)
    does; relation 3 is the one a case masks."""
    edges = {0: [(0,), (3,), (3,)],
             1: [(0, 1), (1, 2), (2, 2), (4, 5), (4, 5), (6, 1)],
             2: [(1, 2, 3), (3, 4, 1), (5, 5, 6), (2, 7, 1)],
             3: [(6, 7), (7, 0)]}
    rels = [Relation(r, f"r{r}", len(es[0])) for r, es in edges.items()]
    return build_graph(rels, [HyperEdge(r, e) for r, es in edges.items() for e in es], 9)


# Given nodes in no edge (8), two in one edge, a node twice in an edge, an
# arity-1 query with none, a query of the masked relation. "shared": three
# queries of one relation, so of one gate; "distinct": each relation once;
# "untouched": no given node in an edge, so no row is summed again.
_GIVEN_BATCHES = {
    "mixed": [Query(1, (8,), 2), Query(2, (1, 2), 3), Query(2, (5, 6), 1), Query(1, (2,), 1),
              Query(0, (), 1), Query(3, (7,), 1)],
    "shared": [Query(1, (8,), 2), Query(1, (2,), 1), Query(1, (4,), 2)],
    "distinct": [Query(0, (), 1), Query(1, (6,), 1), Query(2, (3, 4), 2), Query(3, (0,), 2)],
    "one": [Query(2, (1, 2), 3)],
    "untouched": [Query(1, (8,), 2), Query(0, (), 1)],
}


def _given_spy(mp):
    """Spy on `ad._given_messages` through mp: a list that gains the shape
    of each call's input."""
    calls, real = [], ad._given_messages

    def spy(out, hv, *rest):
        calls.append(hv.shape)
        return real(out, hv, *rest)

    mp.setattr(ad, "_given_messages", spy)
    return calls


class TestGivenMessages:
    @staticmethod
    def _run(params, queries, masked, record):
        g = _given_graph()
        trace = hcnet_forward_batch(g, queries, params, rng=np.random.default_rng(3),
                                    masked_edges=masked, record=record)
        logits = decode_unary_batch(trace)
        out = [trace.features.value, logits.value]
        if record:
            seed = np.random.default_rng(4).standard_normal(logits.value.shape)
            out += list(backward(trace, logits, seed).values())
        return out

    @pytest.mark.parametrize("batch", sorted(_GIVEN_BATCHES))
    @pytest.mark.parametrize("variant", INIT_VARIANTS)
    @pytest.mark.parametrize("mode", ["query-dependent", "query-independent"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked-relation"])
    def test_models_equal_the_full_pass_bitwise(self, batch, variant, mode, masked,
                                                monkeypatch):
        # The graph is far below a block, so the default budget sums every
        # row; a budget of 8 bytes takes the path in the first layer only.
        # alpha_l0 < 0 makes a zero row's factor start from -0.0.
        g = _given_graph()
        params = _jittered(g, mode=mode, variant=variant, dropout=0.3)
        params.tensors["alpha_l0"][...] = -0.7
        cut = {e for e, ed in enumerate(g.edges) if ed.relation == 3} if masked else set()
        queries = _GIVEN_BATCHES[batch]
        calls = _given_spy(monkeypatch)
        full = self._run(params, queries, cut, True) + self._run(params, queries, cut, False)
        assert calls == []
        for _ in _paths(monkeypatch):
            with monkeypatch.context() as mp:
                mp.setattr(ad, "BLOCK_BYTES", 8)
                given = self._run(params, queries, cut, True) + self._run(params, queries, cut, False)
            assert calls == [(len(queries), 9, 6)] * 2
            calls.clear()
            assert len(given) == len(full) > 4
            for a, b in zip(full, given):
                assert _bitwise_equal(a, b)

    def test_only_a_first_layer_that_fills_a_block_takes_the_path(self, monkeypatch):
        # One call per hcnet forward of three layers, at a budget of up to
        # one query's per-incidence messages (T*d*8 bytes), none above it;
        # hrnet, which has no given nodes, never.
        g = _given_graph()
        width = sum(len(ed.nodes) for ed in g.edges) * 6
        params = _jittered(g)
        calls = _given_spy(monkeypatch)
        for budget, runs in ((8, 1), (8 * width, 1), (8 * width + 1, 0), (1 << 21, 0)):
            monkeypatch.setattr(ad, "BLOCK_BYTES", budget)
            hcnet_forward_batch(g, _GIVEN_BATCHES["mixed"], params)
            assert len(calls) == runs, budget
            calls.clear()
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        hrnet_forward_batch(g, _jittered(g, kind="hrnet", mode="query-independent"))
        forward_exact(g, params, _GIVEN_BATCHES["one"][0], 3)
        assert calls == []

    @staticmethod
    def _op_cases(Q):
        """(groups, V, given pairs, rng) for the hand-made case, then for ten
        random graphs with two more nodes, in no edge, and given pairs
        drawn at random, two of them twice, one on a node in no edge."""
        yield ({0: np.array([[1, 1, 4], [0, 2, 4], [5, 6, 2]]), 1: np.array([[3], [3], [0]]),
                2: np.array([[2, 2], [1, 0], [4, 4], [1, 0]])}, 8,
               (np.array([0, 0, 1, 2, 3, 3]), np.array([1, 7, 4, 2, 2, 6])),
               np.random.default_rng(5))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = random_hypergraph(rng, max_nodes=12)
            V = g.node_count + 2
            drawn = rng.integers(0, (Q, V), (8, 2))
            pairs = np.concatenate([drawn, drawn[:2], [[1, V - 1]]])
            yield edges_by_relation(g), V, (pairs[:, 0], pairs[:, 1]), rng

    @pytest.mark.parametrize("gate_shape", [(6,), (4, 1, 1, 6)], ids=["shared", "per-query"])
    def test_op_equals_the_full_pass_bitwise(self, gate_shape, monkeypatch):
        # Per-query gates where queries 0 and 1 agree on the first
        # relation's gate only and queries 2 and 3 agree on all: the rows
        # copied from a query's base must be those of its own gates. h is
        # zero (+0.0) off the given rows, whose values span six orders of
        # magnitude, some -0.0; alpha < 0.
        Q, d = 4, 6
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        calls = _given_spy(monkeypatch)
        for groups, V, given, rng in self._op_cases(Q):
            n = len(given[0])
            h = np.zeros((Q, V, d))
            rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 3, (n, d))
            rows[0, :2] = -0.0
            rows[rng.random((n, d)) < 0.1] = -0.0
            h[given] = rows
            gates = {r: rng.standard_normal(gate_shape) for r in groups}
            if len(gate_shape) == 4:
                first = next(iter(gates.values()))
                first[1] = first[0]
                for g in gates.values():
                    g[3] = g[2]
            k = max(nodes.shape[1] for nodes in groups.values())
            pe, seed = rng.standard_normal((k + 1, d)), rng.standard_normal((Q, V, d))
            results = []
            for pairs in (None, given):
                for _ in _paths(monkeypatch):
                    tape = ad.Tape()
                    leaves = {"h": tape.leaf(h.copy()), "alpha": tape.leaf(np.asarray(-0.4)),
                              "pe": tape.leaf(pe.copy()),
                              **{f"g{r}": tape.leaf(v.copy()) for r, v in gates.items()}}
                    one_minus = ad.sub(tape, tape.constant(np.asarray(1.0)), leaves["alpha"])
                    out = ad.relation_messages(
                        tape, leaves["h"], leaves["alpha"], one_minus, leaves["pe"],
                        {r: leaves[f"g{r}"] for r in groups}, ad.MessagePlan(groups, (Q, V, d)),
                        pairs)
                    ad.backward(tape, out, seed)
                    results.append([out.value] + [v.grad for v in leaves.values()])
            assert len(calls) == 2
            calls.clear()
            for other in results[1:]:
                for a, b in zip(results[0], other):  # arity 1 alone: no h, alpha, pe grads
                    assert (a is None and b is None) or _bitwise_equal(a, b)

    @staticmethod
    def _masks(groups, V, given, Q, rng):
        """(name, (V, Q) mask of output rows): none, one row, the rows an
        edge holding a given node reaches, a random third, every row."""
        one = np.zeros((V, Q), dtype=bool)
        one[rng.integers(V), rng.integers(Q)] = True
        hop = np.zeros((V, Q), dtype=bool)
        for nodes in groups.values():
            for q, v in zip(*given):
                held = nodes[(nodes == v).any(axis=1)]
                hop[held.ravel(), q] = True
        return [("empty", np.zeros((V, Q), dtype=bool)), ("one", one), ("one-hop", hop),
                ("random", rng.random((V, Q)) < 0.3), ("all", np.ones((V, Q), dtype=bool))]

    @pytest.mark.parametrize("gate_shape", [(6,), (4, 1, 1, 6)], ids=["shared", "per-query"])
    def test_row_sums_equal_the_full_pass_bitwise(self, gate_shape):
        # Any mask of output rows, not only a one-hop set: the sums at its
        # rows have the full pass's bytes, sign bits included. h is dense
        # here, with rows of -0.0 and +0.0, and alpha < 0.
        Q, d = 4, 6
        for groups, V, given, rng in self._op_cases(Q):
            h = rng.standard_normal((Q, V, d)) * 10.0 ** rng.integers(-3, 3, (Q, V, 1))
            h[rng.random((Q, V)) < 0.2] = -0.0
            h[rng.random((Q, V)) < 0.1] = 0.0
            alpha = np.asarray(-0.4)
            k = max(nodes.shape[1] for nodes in groups.values())
            pe = rng.standard_normal((k + 1, d))
            tape = ad.Tape(record=False)
            gates = {r: tape.constant(rng.standard_normal(gate_shape)) for r in groups}
            plan = ad.MessagePlan(groups, (Q, V, d))
            full = ad.relation_messages(tape, tape.constant(h), tape.constant(alpha),
                                        tape.constant(1.0 - alpha), tape.constant(pe), gates,
                                        plan).value.reshape(Q * V, d)
            for name, marked in self._masks(groups, V, given, Q, rng):
                rows, sums = ad._row_sums(h, alpha, 1.0 - alpha, pe, gates, plan, marked)
                assert rows.tolist() == np.flatnonzero(marked.T).tolist(), name
                assert _same_bits(sums, full[rows]), name


# --- the message VJP on the (query, edge) pairs that hold a live row of G -----


def _same_bits(a, b):
    """Equal shapes and bytes: the same values, sign bits and NaN payloads."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _terms_spy(mp):
    """Spy on the message VJP's terms through mp: a list that gains
    ("pairs", rel) per `ad._pair_terms` call, ("zero-input", rel) per
    `ad._dense_terms` call given touched pairs and ("dense", rel) per
    other `ad._dense_terms` call, and the layer input each was given."""
    calls = []
    for kind, name in (("pairs", "_pair_terms"), ("dense", "_dense_terms")):
        def spy(G, h, *rest, kind=kind, real=getattr(ad, name)):
            # rest[5]: the relation; rest[6], if any, _dense_terms' touched pairs
            zero = kind == "dense" and len(rest) > 6 and rest[6] is not None
            calls.append(("zero-input" if zero else kind, rest[5], h))
            return real(G, h, *rest)

        mp.setattr(ad, name, spy)
    return calls


def _message_vjp(groups, inputs, G, constants=()):
    """relation_messages on the relations of groups and its VJP for G: the
    output and the gradient of every input (None for a Constant's or a
    masked relation's gate)."""
    tape = ad.Tape()
    leaves = {name: (tape.constant if name in constants else tape.leaf)(value.copy())
              for name, value in inputs.items()}
    one_minus = ad.sub(tape, tape.constant(np.asarray(1.0)), leaves["alpha"])
    gates = {r: leaves[f"g{r}"] for r in groups}
    out = ad.relation_messages(tape, leaves["h"], leaves["alpha"], one_minus, leaves["pe"],
                               gates, ad.MessagePlan(groups, G.shape))
    ad.backward(tape, out, G)
    return [out.value] + [leaf.grad for leaf in leaves.values()]


def _branch_inputs(Q, gate_shape, seed=1, live=0.5):
    """Inputs of the `_block_groups` relations on 7 nodes, values of six
    orders of magnitude, and a G with -0.0 entries whose rows are dead at
    random, +0.0 or -0.0 throughout, but for three live rows per query."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 3, 6)
    inputs = {"h": rng.standard_normal((Q, 7, 6)) * scale, "alpha": np.asarray(0.3),
              "pe": rng.standard_normal((6, 6)),
              **{f"g{r}": rng.standard_normal(gate_shape) for r in range(6)}}
    G = rng.standard_normal((Q, 7, 6)) * scale
    G[rng.random((Q, 7, 6)) < 0.1] = -0.0
    dead = rng.random((Q, 7)) > live
    for q in range(Q):
        dead[q, rng.choice(7, 3, replace=False)] = False
    G[dead] = np.where(rng.random(dead.sum()) < 0.5, 0.0, -0.0)[:, None]
    return inputs, G


def _assert_branch_equals_dense(groups, inputs, G, monkeypatch, constants=()):
    """The VJP with the pair branch open to every relation (a budget of 8
    bytes, PAIR_SHARE 1) equals the dense VJP bit for bit, sign bits
    included, on the serial and the threaded path; returns each path's
    `_terms_spy` calls."""
    dense = _message_vjp(groups, inputs, G, constants)
    paths = []
    for _ in _paths(monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(ad, "BLOCK_BYTES", 8)
            mp.setattr(ad, "PAIR_SHARE", 1.0)
            calls = _terms_spy(mp)
            got = _message_vjp(groups, inputs, G, constants)
        assert len(got) == len(dense)
        for a, b in zip(dense, got):
            assert (a is None and b is None) or _same_bits(a, b)
        paths.append([(kind, rel) for kind, rel, _ in calls])
    return paths


class TestPairGradients:
    @pytest.mark.parametrize("gate_shape", [(6,), (5, 1, 1, 6)], ids=["shared", "per-query"])
    @pytest.mark.parametrize("constants", [(), ("h", "pe")], ids=["leaves", "constant-h-pe"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked-relation"])
    @pytest.mark.parametrize("live", [0.3, 0.7])
    def test_branch_equals_the_dense_vjp_bitwise(self, gate_shape, constants, masked, live,
                                                 monkeypatch):
        # Arities 1 to 5: the arity-1 relation (1) stays dense; every other
        # relation runs on its pairs, the small one (5) too when each query
        # has one there, else it falls back.
        groups = TestRelationMessages._block_groups()
        if masked:
            del groups[2]
        inputs, G = _branch_inputs(5, gate_shape, live=live)
        for calls in _assert_branch_equals_dense(groups, inputs, G, monkeypatch, constants):
            assert {rel for kind, rel in calls if kind == "pairs"} == set(groups) - {1}
            assert {rel for kind, rel in calls if kind == "dense"} <= {1, 5}
            assert ("dense", 1) in calls

    @pytest.mark.parametrize("case", ["dead-query", "zero-column"])
    @pytest.mark.parametrize("gate_shape", [(6,), (5, 1, 1, 6)], ids=["shared", "per-query"])
    def test_a_zero_sum_falls_back(self, case, gate_shape, monkeypatch):
        # A query with no live row gets a per-query gate's sum of exactly
        # 0.0; a zero column of G zeroes a column of every sum. Either way
        # the relation falls back to the dense pass; a shared gate and the
        # other sums still hold a live term from the other queries, so a
        # dead query alone does not.
        groups = TestRelationMessages._block_groups()
        inputs, G = _branch_inputs(5, gate_shape)
        if case == "dead-query":
            G[2] = -0.0
        else:
            G[..., 0] = 0.0
        falls_back = case == "zero-column" or len(gate_shape) == 4
        for calls in _assert_branch_equals_dense(groups, inputs, G, monkeypatch):
            for rel in (0, 2, 3, 4):
                assert ("pairs", rel) in calls
                assert (("dense", rel) in calls) == falls_back

    @pytest.mark.parametrize("case", ["nan", "inf", "overflow"])
    def test_a_non_finite_layer_takes_the_dense_pass(self, case, monkeypatch):
        # Query 0's only live row is node 0, and h is NaN, infinite, or so
        # large that a product of two factors overflows at its node 3,
        # whose edges (2, 3), (3,) and (3, 3, 2) hold no live row of query
        # 0: their terms are NaN, not +-0.0, and reach query 0's gate and
        # alpha, so no relation runs on its pairs.
        groups = {0: np.array([[0, 1], [2, 3], [1, 4]]), 1: np.array([[3], [5]]),
                  2: np.array([[4, 5, 6], [0, 5, 6], [3, 3, 2]])}
        rng = np.random.default_rng(0)
        inputs = {"h": rng.standard_normal((2, 7, 6)), "alpha": np.asarray(0.3),
                  "pe": rng.standard_normal((4, 6)),
                  **{f"g{r}": rng.standard_normal((2, 1, 1, 6)) for r in groups}}
        inputs["h"][0, 3] = {"nan": np.nan, "inf": -np.inf, "overflow": 1e200}[case]
        G = np.zeros((2, 7, 6))
        G[0, 0] = rng.standard_normal(6)
        G[1, [1, 5]] = rng.standard_normal((2, 6))
        with np.errstate(invalid="ignore", over="ignore"):
            paths = _assert_branch_equals_dense(groups, inputs, G, monkeypatch)
        for calls in paths:
            assert calls == [("dense", 2), ("dense", 1), ("dense", 0)]

    @pytest.mark.parametrize("case", _MODEL_CASES)
    def test_models_on_a_training_loss_equal_the_dense_vjp_bitwise(self, case, monkeypatch):
        # hcnet's logits scored as in training, a positive and three
        # negatives per query; hrnet's on five tuples. Features, logits
        # and every gradient, on both paths.
        case = dict(case)
        kind, arities = case.pop("kind"), case.pop("arities")
        masked_relation = case.pop("masked_relation", None)
        g = _graph(arities, nodes=12, per_relation=10)
        params = _jittered(g, kind=kind, **case)
        masked = {e for e, ed in enumerate(g.edges) if ed.relation == masked_relation}
        queries = [Query(r, tuple(range(k - 1)), k) for r, k in enumerate(arities)]
        k = max(arities)
        tuples = np.random.default_rng(2).integers(0, g.node_count, (5, k)).astype(np.intp)
        qrel = np.full(5, arities.index(k), dtype=np.intp)

        def run():
            if kind == "hrnet":
                trace = hrnet_forward_batch(g, params)
                logits = decode_kary_batch(trace, tuples, qrel)
                return [trace.features.value, logits.value,
                        *backward(trace, logits, np.ones(5)).values()]
            trace = hcnet_forward_batch(g, queries, params, rng=np.random.default_rng(3),
                                        masked_edges=masked)
            logits = decode_unary_batch(trace)
            rows = np.arange(len(queries))
            picked = np.random.default_rng(4).permuted(
                np.tile(np.arange(g.node_count), (len(queries), 1)), axis=1)[:, :4]
            pos = ad.gather_2d(trace.tape, logits, rows, picked[:, 0])
            neg = ad.gather_2d(trace.tape, logits, rows[:, None], picked[:, 1:])
            loss = adversarial_loss_from_logits(trace.tape, pos, neg, 0.5)
            return [trace.features.value, logits.value, *backward(trace, loss).values()]

        dense = run()
        for _ in _paths(monkeypatch):
            with monkeypatch.context() as mp:
                mp.setattr(ad, "BLOCK_BYTES", 8)
                mp.setattr(ad, "PAIR_SHARE", 1.0)
                calls = _terms_spy(mp)
                got = run()
            assert any(kind == "pairs" for kind, _, _ in calls)
            assert len(got) == len(dense) > 4
            for a, b in zip(dense, got):
                assert _same_bits(a, b)

    @staticmethod
    def _train_step(monkeypatch, layers):
        """One `fit` step at the train benchmark's sizes (V=1000, 4000
        edges of arities 2/2/3/3, 16 queries, d=32, ten negatives) with
        the given number of layers: each layer's input h, the VJP's
        `_holding_pairs` looks (the first layer's forward finds pairs too,
        and those are not counted) and the `_terms_spy` calls."""
        rng = np.random.default_rng(0)
        rels = [Relation(r, f"r{r}", k) for r, k in enumerate((2, 2, 3, 3))]
        facts = [HyperEdge(r, tuple(int(v) for v in rng.integers(0, 1000, k)))
                 for r, k in enumerate((2, 2, 3, 3)) for _ in range(1000)]
        g = build_graph(rels, facts, 1000)
        inputs, looked, in_backward = [], [], []
        messages, pairs, backward_ = ad.relation_messages, ad._holding_pairs, ad.backward

        def spy_messages(tape, h, *rest):
            inputs.append(h)
            return messages(tape, h, *rest)

        def spy_pairs(*args):
            if in_backward:
                looked.append(args)
            return pairs(*args)

        def spy_backward(*args):
            in_backward.append(True)
            try:
                return backward_(*args)
            finally:
                in_backward.clear()

        monkeypatch.setattr(ad, "relation_messages", spy_messages)
        monkeypatch.setattr(ad, "_holding_pairs", spy_pairs)
        monkeypatch.setattr(ad, "backward", spy_backward)
        calls = _terms_spy(monkeypatch)
        fit(g, {"train": facts}, TrainConfig(d=32, layers=layers, batch_size=16, negatives=10,
                                             epochs=1, steps_per_epoch=1, seed=0))
        return inputs, looked, calls

    def test_only_a_train_steps_last_layer_takes_the_branch(self, monkeypatch):
        # The loss reaches about 1% of the last layer's rows, so about 3%
        # of its pairs, and about 30-40% of the middle layer's pairs, above
        # PAIR_SHARE. Every layer looks for G's pairs. The first layer,
        # whose input is +0.0 off the given nodes, finds about all of its
        # pairs live and runs on the all-zero input's factors off the
        # touched pairs; the middle layer stays dense. A hypercycle graph
        # fills no block, so its VJP does not even look for pairs.
        layers, looked, calls = self._train_step(monkeypatch, 3)
        assert len(layers) == 3 and len(looked) == 12
        for kind, layer in (("zero-input", 0), ("dense", 1), ("pairs", 2)):
            assert [rel for k, rel, h in calls if k == kind] == [3, 2, 1, 0]
            assert all(h is layers[layer] for k, _, h in calls if k == kind)
        assert len(calls) == 12
        layers.clear(), looked.clear(), calls.clear()
        run_expressiveness_experiment("hcnet", TrainConfig(d=8, layers=2, epochs=1),
                                      ns=(8,), ks=(3,), ratio=1.0)
        assert layers and looked == [] and calls and all(kind == "dense" for kind, _, _ in calls)

    def test_a_one_layer_steps_first_layer_takes_the_branch(self, monkeypatch):
        # With one layer the first layer is also the last: its forward keeps
        # the given nodes' pairs, but the loss reaches only the scored rows,
        # so its VJP runs on G's few live pairs (2-3% of them), not in
        # zero-input mode. An arity-2 relation then finds alpha's gradient
        # exactly 0.0 (no scored row is a given node's neighbour), whose
        # sign its pairs cannot settle, and reruns on the dense pass.
        layers, looked, calls = self._train_step(monkeypatch, 1)
        assert len(layers) == 1 and len(looked) == 4
        assert [(k, rel) for k, rel, _ in calls] == [
            ("pairs", 3), ("pairs", 2), ("pairs", 1), ("dense", 1), ("pairs", 0), ("dense", 0)]
        assert all(h is layers[0] for _, _, h in calls)


# --- the first layer's VJP on the all-zero input's factors -------------------


def _first_layer_inputs(gate_shape, seed=0, Q=5, V=30, d=6):
    """Relations of arities 3, 1, 5, 2 and 4 (12 edges each) on V nodes, a
    first-layer input h that is +0.0 but for its given (query, node)
    pairs, one of them twice, whose rows span six orders of magnitude
    with -0.0 entries, alpha < 0 (so a zero row's factor starts from
    -0.0), and a G with -0.0 entries: (groups, given, inputs, G)."""
    rng = np.random.default_rng(seed)
    groups = {r: rng.integers(0, V, (12, k)) for r, k in enumerate((3, 1, 5, 2, 4))}
    drawn = rng.integers(0, (Q, V), (2 * Q, 2))
    pairs = np.concatenate([drawn, drawn[:1]])
    given = (pairs[:, 0], pairs[:, 1])
    rows = rng.standard_normal((len(pairs), d)) * 10.0 ** rng.integers(-3, 3, d)
    rows[0, :2] = -0.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[-1] = rows[0]  # the pair given twice
    h = np.zeros((Q, V, d))
    h[given] = rows
    inputs = {"h": h, "alpha": np.asarray(-0.4), "pe": rng.standard_normal((6, d)),
              **{f"g{r}": rng.standard_normal(gate_shape) for r in groups}}
    G = rng.standard_normal((Q, V, d)) * 10.0 ** rng.integers(-3, 3, d)
    G[rng.random((Q, V, d)) < 0.1] = -0.0
    return groups, given, inputs, G


def _first_layer_vjp(groups, given, inputs, G, constants=()):
    """relation_messages told the given pairs, and its VJP for G, as
    `_message_vjp` returns them."""
    tape = ad.Tape()
    leaves = {name: (tape.constant if name in constants else tape.leaf)(value.copy())
              for name, value in inputs.items()}
    one_minus = ad.sub(tape, tape.constant(np.asarray(1.0)), leaves["alpha"])
    out = ad.relation_messages(tape, leaves["h"], leaves["alpha"], one_minus, leaves["pe"],
                               {r: leaves[f"g{r}"] for r in groups},
                               ad.MessagePlan(groups, G.shape), given)
    ad.backward(tape, out, G)
    return [out.value] + [leaf.grad for leaf in leaves.values()]


def _assert_first_layer_equals_dense(groups, given, inputs, G, monkeypatch, constants=()):
    """The VJP of a first layer that fills a block (a budget of 8 bytes)
    equals the dense VJP of the full pass bit for bit, sign bits and NaN
    payloads included, on the serial and the threaded path; returns each
    path's `_terms_spy` calls."""
    dense = _message_vjp(groups, inputs, G, constants)
    paths = []
    for _ in _paths(monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(ad, "BLOCK_BYTES", 8)
            calls = _terms_spy(mp)
            got = _first_layer_vjp(groups, given, inputs, G, constants)
        assert len(got) == len(dense)
        for a, b in zip(dense, got):
            assert (a is None and b is None) or _same_bits(a, b)
        paths.append([(kind, rel) for kind, rel, _ in calls])
    return paths


class TestFirstLayerGradients:
    @pytest.mark.parametrize("gate_shape", [(6,), (5, 1, 1, 6)], ids=["shared", "per-query"])
    @pytest.mark.parametrize("constants", [(), ("pe",), ("h", "pe")],
                             ids=["leaves", "constant-pe", "constant-h-pe"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked-relation"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_input_mode_equals_the_dense_vjp_bitwise(self, gate_shape, constants,
                                                          masked, seed, monkeypatch):
        # Arities 1 to 5: the arity-1 relation (1) stays dense; every other
        # relation runs on the all-zero input's factors off its touched
        # pairs, with no fallback.
        groups, given, inputs, G = _first_layer_inputs(gate_shape, seed)
        if masked:
            del groups[2]
        for calls in _assert_first_layer_equals_dense(groups, given, inputs, G, monkeypatch,
                                                      constants):
            assert sorted(calls) == [("dense", 1)] + [("zero-input", r) for r in groups if r != 1]

    def test_no_given_pair_in_an_edge(self, monkeypatch):
        # Given nodes in no edge: no pair is touched, and every pair takes
        # the zero input's factors; alpha's terms are all left out, so its
        # sum is 0.0 and each relation falls back.
        groups, _, inputs, G = _first_layer_inputs((6,))
        inputs["h"][:] = 0.0
        inputs["h"][0, 29] = 1.0
        groups = {r: np.minimum(nodes, 28) for r, nodes in groups.items()}
        for calls in _assert_first_layer_equals_dense(
                groups, (np.array([0]), np.array([29])), inputs, G, monkeypatch):
            for rel in (0, 2, 3, 4):
                assert ("zero-input", rel) in calls and ("dense", rel) in calls

    @pytest.mark.parametrize("gate_shape", [(6,), (5, 1, 1, 6)], ids=["shared", "per-query"])
    def test_a_zero_alpha_sum_falls_back(self, gate_shape, monkeypatch):
        # Given rows of +0.0 and -0.0 only: every term of alpha's sum is
        # +-0.0, so the sum is exactly 0.0, whose sign a left-out term may
        # set, and each relation takes the dense pass.
        groups, given, inputs, G = _first_layer_inputs(gate_shape)
        inputs["h"][given] = np.where(np.random.default_rng(3).random(
            (len(given[0]), 6)) < 0.5, 0.0, -0.0)
        for calls in _assert_first_layer_equals_dense(groups, given, inputs, G, monkeypatch):
            for rel in (0, 2, 3, 4):
                assert ("zero-input", rel) in calls and ("dense", rel) in calls

    @pytest.mark.parametrize("case", ["nan-G", "inf-G", "inf-G-arity-2", "nan-h", "inf-h"])
    def test_a_non_finite_gradient_or_input_falls_back(self, case, monkeypatch):
        # One non-finite entry of G at a node no query is given, in an edge
        # of every relation of arity 2 or more: alpha's dense terms at the
        # untouched pairs of that edge are gf * (+0.0) = NaN, not +-0.0. Or
        # a NaN or infinite given row of h at a node in an edge of every
        # relation of arity 3 or more. Either way the factors' gradients of
        # those relations are not finite, nor is their Q-sum, so they take
        # the dense pass (at arity 2 a factor's gradient is the other
        # position's gm, which no factor enters). With one relation of
        # arity 2, alpha's gradient without the fallback would be -inf or
        # +inf (its left-out NaN terms are what the dense sum reads), not
        # the dense NaN.
        groups, given, inputs, G = _first_layer_inputs((5, 1, 1, 6))
        bad = np.nan if case.startswith("nan") else np.inf
        if case.endswith("arity-2"):
            groups = {1: groups[1], 3: groups[3]}
        if "-G" in case:
            held = set.intersection(*(set(nodes.ravel()) for nodes in groups.values()
                                      if nodes.shape[1] > 1))
            G[1, min(held - set(given[1].tolist())), 2] = bad
            expected = set(groups) - {1}
        else:
            v = min(set.intersection(*(set(groups[r].ravel()) for r in (0, 2, 4))))
            inputs["h"][1, v] = -bad
            given = (np.append(given[0], 1), np.append(given[1], v))
            expected = {0, 2, 4}
        with np.errstate(invalid="ignore", over="ignore"):
            paths = _assert_first_layer_equals_dense(groups, given, inputs, G, monkeypatch)
        for calls in paths:
            assert {rel for kind, rel in calls if kind == "dense"} >= expected | {1}
            assert {rel for kind, rel in calls if kind == "zero-input"} == set(groups) - {1}


# --- the fused layer tail and unary decoder against the chains they replaced -


def _chained_tail(tape, h, msgs, W, b, gamma, beta, rate=0.0, rng=None):
    """A layer's tail as separate tape ops: concat, linear, bias, layer norm,
    dropout's keep mask as a constant factor, ReLU and the skip add."""
    z = ad.concat_last(tape, [h, msgs])
    z = ad.layer_norm(tape, ad.add(tape, ad.matmul_last(tape, z, W), b), gamma, beta)
    if rate > 0.0:
        keep = (rng.random(z.value.shape) >= rate) / (1.0 - rate)
        z = ad.mul(tape, z, tape.constant(keep))
    return ad.add(tape, ad.relu(tape, z), h)


def _chained_mlp(tape, x, W1, b1, W2, b2):
    """A two-layer ReLU MLP over the rows x as separate tape ops."""
    hdn = ad.relu(tape, ad.add(tape, ad.matmul_last(tape, x, W1), b1))
    out = ad.add(tape, ad.matmul_last(tape, hdn, W2), b2)
    return ad.reshape(tape, out, out.value.shape[:-1])


def _chained_decoder(tape, h, zq, W1, b1, W2, b2):
    """The unary decoder as separate tape ops: z_q broadcast over the
    nodes, concatenated to h, and a two-layer ReLU MLP."""
    Q, V, d = h.value.shape
    zb = ad.broadcast_middle(tape, ad.reshape(tape, zq, (Q, 1, zq.value.shape[1])), V)
    return _chained_mlp(tape, ad.concat_last(tape, [h, zb]), W1, b1, W2, b2)


def _chained_kary_decoder(tape, h, z_q, tuples, qrel, W1, b1, W2, b2):
    """The k-ary decoder as separate tape ops: one gather of h (1, V, d)
    per tuple position, the rows of z_q for qrel, a concat and a two-layer
    ReLU MLP."""
    M, k = tuples.shape
    parts = [ad.reshape(tape, ad.gather_nodes(tape, h, tuples[:, t]), (M, h.value.shape[2]))
             for t in range(k)]
    parts.append(ad.take_rows(tape, z_q, qrel))
    return _chained_mlp(tape, ad.concat_last(tape, parts), W1, b1, W2, b2)


def _decode_unary(tape, h, zq, *weights):
    """`decode_unary_batch` on the given vars."""
    bound = dict(zip(("dec_W1", "dec_b1", "dec_W2", "dec_b2"), weights))
    return decode_unary_batch(ForwardTrace(tape, bound, h, zq))


def _decode_kary(tape, h, z_q, tuples, qrel, *weights):
    """`decode_kary_batch` on the given vars."""
    k = tuples.shape[1]
    bound = {"z_q": z_q, **{f"dec{k}_{n}": w for n, w in zip(("W1", "b1", "W2", "b2"), weights)}}
    return decode_kary_batch(ForwardTrace(tape, bound, h), tuples, qrel)


def _fused_against_chain(fused, chain, inputs, upstream, constants=(), record=True):
    """Run fused and chain, op(tape, rng, *args), on leaves of `inputs`
    (Constants for the names in constants), each behind the same upstream
    ops and on the same rng, and backward with one seed; return both runs'
    (value, gradients, next draw of the rng)."""
    runs = []
    for op in (fused, chain):
        tape = ad.Tape(record=record)
        vars_ = {n: (tape.constant if n in constants else tape.leaf)(v.copy())
                 for n, v in inputs.items()}
        rng = np.random.default_rng(5)
        args = upstream(tape, vars_)
        out = op(tape, rng, *args)
        grads = {}
        if record:
            seed = np.random.default_rng(6).standard_normal(out.value.shape)
            ad.backward(tape, out, seed)
            grads = {n: v.grad for n, v in vars_.items()}
        runs.append((out.value, grads, rng.random()))
    return runs


def _assert_runs_equal(runs):
    (value, grads, draw), (chain_value, chain_grads, chain_draw) = runs
    assert _bitwise_equal(value, chain_value) and draw == chain_draw
    assert grads.keys() == chain_grads.keys()
    for name, g in grads.items():
        if g is None or chain_grads[name] is None:
            assert g is None and chain_grads[name] is None, name
        else:
            assert _bitwise_equal(g, chain_grads[name]), name


def _tail_inputs(Q=3, V=7, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return {"h": rng.standard_normal((Q, V, d)) * 10.0 ** rng.integers(-3, 3, d),
            "m": rng.standard_normal((Q, V, d)), "W": rng.standard_normal((d, 2 * d)),
            "b": rng.standard_normal(d), "gamma": rng.standard_normal(d),
            "beta": rng.standard_normal(d)}


def _tail_upstream(tape, v):
    # msgs reads h, so h's gradient sums three terms: the tail's skip term
    # and concat slice, then the messages' term.
    msgs = ad.mul(tape, v["h"], v["m"])
    return v["h"], msgs, v["W"], v["b"], v["gamma"], v["beta"]


class TestLayerTail:
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("constants", [(), ("h",)], ids=["leaf-h", "constant-h"])
    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "not-recorded"])
    def test_op_equals_the_chain_bitwise(self, rate, constants, record, monkeypatch):
        # In one block, then in blocks of one query on the serial and the
        # threaded path: W's, b's, gamma's and beta's gradients still sum
        # over all queries at once, and dropout's mask is drawn whole.
        def fused(tape, rng, *args):
            return ad.layer_tail(tape, *args, rate, rng)

        def chain(tape, rng, *args):
            return _chained_tail(tape, *args, rate, rng)

        _assert_runs_equal(_fused_against_chain(
            fused, chain, _tail_inputs(), _tail_upstream, constants, record))
        for two_cpus, _ in _paths(monkeypatch):
            with monkeypatch.context() as mp:
                mp.setattr(ad, "BLOCK_BYTES", 8)
                off_thread = _off_thread_calls(mp, "_normalize")
                _assert_runs_equal(_fused_against_chain(
                    fused, chain, _tail_inputs(), _tail_upstream, constants, record))
                assert bool(off_thread) == two_cpus

    def test_constant_h_is_no_parent(self):
        tape = ad.Tape()
        v = _tail_inputs()
        h = tape.constant(v["h"])
        rest = [tape.leaf(v[n]) for n in ("m", "W", "b", "gamma", "beta")]
        out = ad.layer_tail(tape, h, *rest)
        assert [p for p, _ in out.parents] == rest

    @pytest.mark.parametrize("case", _MODEL_CASES)
    def test_models_equal_the_chains_bitwise(self, case, monkeypatch):
        # In one block, and in blocks of one query on both paths (the tail,
        # the unary decoder and the message kernel alike; hrnet's one
        # query and 2-D decoder input are one block).
        _assert_models_equal_the_chains(case, monkeypatch, decoders=True,
                                        layer_tail=_chained_tail)
        for _ in _paths(monkeypatch):
            with monkeypatch.context() as mp:
                mp.setattr(ad, "BLOCK_BYTES", 8)
                _assert_models_equal_the_chains(case, mp, decoders=True,
                                                layer_tail=_chained_tail)

    def test_dropout_zero_rate_is_identity(self):
        # A zero rate draws nothing and equals the pass without an rng.
        tape = ad.Tape()
        args = [tape.leaf(v) for v in _tail_inputs().values()]
        rng = np.random.default_rng(0)
        out = ad.layer_tail(tape, *args, 0.0, rng)
        assert _bitwise_equal(out.value, ad.layer_tail(tape, *args).value)
        assert rng.random() == np.random.default_rng(0).random()

    def test_dropout_scales_kept_entries(self):
        # With W = 0 and gamma = 0, the norm puts out beta = 1 everywhere,
        # so the tail puts out dropout's keep factors (h = 0).
        tape = ad.Tape()
        d, n = 4, 2500
        h = tape.constant(np.zeros((1, n, d)))
        args = [tape.leaf(np.zeros(s)) for s in ((1, n, d), (d, 2 * d), (d,), (d,))]
        out = ad.layer_tail(tape, h, *args, tape.leaf(np.ones(d)), 0.5,
                            np.random.default_rng(0)).value
        kept = out[out > 0]
        np.testing.assert_array_equal(kept, 2.0)
        assert 0.4 < kept.size / out.size < 0.6


class TestUnaryDecoder:
    # d=1 and V above NumPy's 8192-element buffer cover the sum over nodes
    # that z_q's gradient takes, strided here, contiguous in the chain.
    @pytest.mark.parametrize("Q, V, d", [(3, 7, 5), (2, 9000, 1), (16, 50, 32)])
    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "not-recorded"])
    def test_op_equals_the_chain_bitwise(self, Q, V, d, record, monkeypatch):
        # In one block, then in blocks of one query on the serial and the
        # threaded path: W1's, b1's, W2's and b2's gradients and z_q's sum
        # over the nodes still run over all queries at once.
        rng = np.random.default_rng(Q + V + d)
        inputs = {"h": rng.standard_normal((Q, V, d)), "m": rng.standard_normal((Q, V, d)),
                  "zq": rng.standard_normal((Q, d)), "W1": rng.standard_normal((d, 2 * d)),
                  "b1": rng.standard_normal(d), "W2": rng.standard_normal((1, d)),
                  "b2": rng.standard_normal(1)}

        def upstream(tape, v):
            # h feeds the decoder and another op, so its gradient sums two terms.
            h = ad.mul(tape, v["h"], v["m"])
            return h, ad.relu(tape, v["zq"]), v["W1"], v["b1"], v["W2"], v["b2"]

        def runs():
            return _fused_against_chain(
                lambda tape, rng, *args: _decode_unary(tape, *args),
                lambda tape, rng, *args: _chained_decoder(tape, *args), inputs, upstream,
                record=record)

        _assert_runs_equal(runs())
        for two_cpus, _ in _paths(monkeypatch):
            with monkeypatch.context() as mp:
                mp.setattr(ad, "BLOCK_BYTES", 8)
                off_thread = _off_thread_rows(mp)
                _assert_runs_equal(runs())
                assert bool(off_thread) == two_cpus


def _tail_and_decoder():
    """A recorded layer tail (dropout 0.3) and unary decoder at Q=4, V=7,
    d=5, and their backward: the logits and every leaf's gradient."""
    tape = ad.Tape()
    v = _tail_inputs(Q=4)
    rng = np.random.default_rng(1)
    leaves = [tape.leaf(v[n]) for n in ("h", "m", "W", "b", "gamma", "beta")]
    leaves += [tape.leaf(rng.standard_normal(s)) for s in ((4, 5), (5, 10), (5,), (1, 5), (1,))]
    out = ad.layer_tail(tape, *leaves[:6], 0.3, np.random.default_rng(0))
    logits = _decode_unary(tape, out, *leaves[6:])
    ad.backward(tape, logits, rng.standard_normal(logits.value.shape))
    return [logits.value] + [leaf.grad for leaf in leaves]


def _counted_passes(mp):
    """Count through mp the `_Pass` states `run_blocks` makes: one per pass
    that runs on two threads."""
    made = []

    class Counted(ad._Pass):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    mp.setattr(ad, "_Pass", Counted)
    return made


class TestTailAndDecoderThreads:
    def test_no_thread_outlives_a_pass(self, monkeypatch):
        # The other thread's tail blocks are slow, so the calling thread is
        # done with its own first: each pass must wait for that thread.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        caller, normalize = threading.current_thread(), ad._normalize
        off_rows = _off_thread_rows(monkeypatch)
        slow = []

        def slow_off_caller(*args, **kwargs):
            if threading.current_thread() is not caller:
                time.sleep(0.01)
                slow.append(threading.current_thread())
            return normalize(*args, **kwargs)

        monkeypatch.setattr(ad, "_normalize", slow_off_caller)
        before = threading.active_count()
        _tail_and_decoder()
        assert slow and off_rows and threading.active_count() == before

    def test_one_block_or_one_cpu_starts_no_thread(self, monkeypatch):
        # A pass of one block, or on one CPU, runs on the calling thread
        # with no thread and no shared state; two CPUs and four blocks do
        # start one thread per pass. An op that ran more than one block
        # runs its VJP's sums over all queries as one more pass of two jobs.
        before = threading.active_count()
        for cpus, budget, threaded in (({0, 1}, 1 << 21, False), ({0}, 8, False),
                                       ({0, 1}, 8, True)):
            with monkeypatch.context() as mp:
                mp.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                mp.setattr(ad, "BLOCK_BYTES", budget)
                passes = _counted_passes(mp)
                off_tail = _off_thread_calls(mp, "_normalize")
                off_rows = _off_thread_rows(mp)
                _tail_and_decoder()
                # Tail and decoder: forward, VJP blocks and VJP sums.
                assert len(passes) == (6 if threaded else 0)
                assert bool(off_tail) == bool(off_rows) == threaded
                assert threading.active_count() == before

    def test_concurrent_passes_stay_bitwise(self, monkeypatch):
        # Three callers each start a thread per pass at once, with the
        # interpreter switching threads as often as it can: every block
        # writes only its own rows, so each pass keeps the serial bits.
        expected = _tail_and_decoder()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        errors = []

        def passes():
            try:
                for _ in range(3):
                    got = _tail_and_decoder()
                    assert all(_bitwise_equal(a, b) for a, b in zip(got, expected))
            except BaseException as e:  # reported below
                errors.append(e)

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=passes, daemon=True) for _ in range(3)]
            for t in callers:
                t.start()
            deadline = time.monotonic() + 60
            for t in callers:
                t.join(timeout=max(deadline - time.monotonic(), 0))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert errors == []
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["tail", "tail-vjp", "decoder"])
    def test_a_failed_odd_block_is_raised_once(self, where, monkeypatch):
        # The first odd block, on the other thread, raises: the calling
        # thread raises that error once, and the next pass runs as usual.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        caller, failed = threading.current_thread(), []

        def failing(real):
            def call(*args, **kwargs):
                if threading.current_thread() is not caller and not failed:
                    failed.append(threading.current_thread())
                    raise FloatingPointError("block failed")
                return real(*args, **kwargs)
            return call

        if where == "decoder":
            decoder = ad.mlp_decoder
            monkeypatch.setattr(ad, "mlp_decoder", lambda tape, inputs, shape, rows, *rest:
                                decoder(tape, inputs, shape, failing(rows), *rest))
        else:
            name = "_normalize" if where == "tail" else "_normalize_vjp"
            monkeypatch.setattr(ad, name, failing(getattr(ad, name)))
        before = threading.active_count()
        with pytest.raises(FloatingPointError) as raised:
            _tail_and_decoder()
        assert len(failed) == 1 and failed[0] is not caller
        assert str(raised.value) == "block failed"
        assert threading.active_count() == before
        _tail_and_decoder()
        assert threading.active_count() == before


def _kary_inputs(k, M=40, V=9, d=5):
    """Leaves for a k-ary decode, and tuples (M, k) and qrel (M,) that
    repeat nodes and relations, so the scatters accumulate."""
    rng = np.random.default_rng(k)
    inputs = {"h": rng.standard_normal((1, V, d)), "zq": rng.standard_normal((4, d)),
              "W1": rng.standard_normal((d, (k + 1) * d)), "b1": rng.standard_normal(d),
              "W2": rng.standard_normal((1, d)), "b2": rng.standard_normal(1)}
    return inputs, rng.integers(0, V, (M, k)).astype(np.intp), rng.integers(0, 4, M).astype(np.intp)


class TestKaryDecoder:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("twice", [False, True], ids=["once", "decoded-twice"])
    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "not-recorded"])
    def test_op_equals_the_chain_bitwise(self, k, twice, record):
        # h also feeds a product, whose two terms reach h's gradient before
        # the decoder's scatters; decoded twice, as the hypercycle
        # experiment does, the second decode's scatters come first.
        inputs, tuples, qrel = _kary_inputs(k)

        def with_decoder(decode):
            def op(tape, rng, h, zq, *weights):
                out = decode(tape, h, zq, tuples, qrel, *weights)
                if twice:
                    out = ad.add(tape, out, decode(tape, h, zq, tuples[::-1], qrel[::-1], *weights))
                return ad.add(tape, out, ad.sum_all(tape, ad.mul(tape, h, h)))
            return op

        def upstream(tape, v):
            return ad.scale(tape, v["h"], 0.5), *(v[n] for n in ("zq", "W1", "b1", "W2", "b2"))

        _assert_runs_equal(_fused_against_chain(
            with_decoder(_decode_kary), with_decoder(_chained_kary_decoder), inputs, upstream,
            record=record))

    def test_a_2d_input_is_one_block(self, monkeypatch):
        # Cut by rows, a 2-D product may change its bits: the k-ary
        # decoder's rows are built whole, once for the forward and once for
        # W1's gradient, however small the budget, with no thread.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        passes, ranges, decoder = _counted_passes(monkeypatch), [], ad.mlp_decoder

        def spy(tape, inputs, shape, rows, *rest):
            def spied_rows(lo, hi):
                ranges.append((lo, hi))
                return rows(lo, hi)

            return decoder(tape, inputs, shape, spied_rows, *rest)

        monkeypatch.setattr(ad, "mlp_decoder", spy)
        inputs, tuples, qrel = _kary_inputs(3)
        tape = ad.Tape()
        leaves = {n: tape.leaf(v) for n, v in inputs.items()}
        out = _decode_kary(tape, leaves["h"], leaves["zq"], tuples, qrel,
                           *(leaves[n] for n in ("W1", "b1", "W2", "b2")))
        ad.backward(tape, out, np.ones(out.value.shape))
        assert ranges == [(0, len(tuples))] * 2 and not passes

    def test_constant_h_is_no_parent(self):
        inputs, tuples, qrel = _kary_inputs(2)
        tape = ad.Tape()
        h = tape.constant(inputs.pop("h"))
        rest = [tape.leaf(v) for v in inputs.values()]
        out = _decode_kary(tape, h, rest[0], tuples, qrel, *rest[1:])
        assert [p for p, _ in out.parents] == rest

    def test_a_decode_adds_one_tape_var(self):
        # The chain of gathers, reshapes, take_rows, concat and MLP ops it
        # replaced added 2k + 8.
        g = _graph((1, 3, 2))
        params = _params(g, kind="hrnet", mode="query-independent")
        trace = hrnet_forward_batch(g, params)
        for k in params.decoder_arities:
            before = len(trace.tape.vars)
            decode_kary_batch(trace, np.zeros((5, k), dtype=np.intp), np.zeros(5, dtype=np.intp))
            assert len(trace.tape.vars) == before + 1


def _tape_mb(tape):
    """MB of the tape's values, each underlying buffer counted once."""
    seen = {}
    for v in tape.vars:
        base = v.value
        while isinstance(base.base, np.ndarray):
            base = base.base
        seen[id(base)] = base.nbytes
    return sum(seen.values()) / 1e6


class TestTapeMemory:
    def test_recorded_forward_and_decoder_tape_values(self):
        # The train workload's step: Q=16, V=1000, 4000 edges of arities
        # 2/2/3/3, d=32, L=3. With one tape var per op, the tape held
        # 127.5 MB of values; now each layer keeps its messages and its
        # output, (Q, V, d) each, about 29 MB in all.
        rng = np.random.default_rng(0)
        arities = (2, 2, 3, 3)
        rels = [Relation(r, f"r{r}", k) for r, k in enumerate(arities)]
        edges = [HyperEdge(r, tuple(int(v) for v in rng.integers(0, 1000, k)))
                 for r, k in enumerate(arities) for _ in range(1000)]
        g = build_graph(rels, edges, 1000)
        params = _params(g, d=32, layers=3, dropout=0.2)
        queries = [Query(r % 4, tuple(int(v) for v in rng.integers(0, 1000, arities[r % 4] - 1)),
                         1) for r in range(16)]
        trace = hcnet_forward_batch(g, queries, params, rng=rng)
        decode_unary_batch(trace)
        assert _tape_mb(trace.tape) <= 40.0

    @pytest.mark.parametrize("kind, dropout", [("hcnet", 0.0), ("hcnet", 0.3), ("hrnet", 0.0)])
    def test_a_layer_adds_at_most_four_tape_vars(self, kind, dropout):
        # Besides its 5 parameter leaves: 1.0, one_minus, the messages and
        # the tail. With one tape var per op it was 9, with dropout 11.
        g = hypercycle(8, 3)
        mode = "query-independent" if kind == "hrnet" else "query-dependent"

        def tape_vars(layers):
            params = _params(g, kind=kind, mode=mode, layers=layers, dropout=dropout)
            if kind == "hrnet":
                trace = hrnet_forward_batch(g, params)
            else:
                trace = hcnet_forward_batch(g, [Query(0, (1,), 2)], params,
                                            rng=np.random.default_rng(0))
            return len(trace.tape.vars) - len(trace.bound)

        for layers in (1, 2, 3):
            assert tape_vars(layers) - tape_vars(layers - 1) <= 4
