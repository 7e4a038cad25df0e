"""Numeric models: encodings, initialization, layers, decoders, gradients."""

import numpy as np
import pytest

from hcnet import autodiff as ad
from hcnet.errors import ConfigError, DimensionTooSmall, QueryArityMismatch, ShapeMismatch
from hcnet.hypergraph import HyperEdge, Query, Relation, apply_permutation, build_graph
from hcnet.nn import (
    INIT_VARIANTS,
    ModelConfig,
    backward,
    decode_kary,
    decode_kary_batch,
    decode_unary,
    decode_unary_batch,
    feature_partition,
    forward_exact,
    grad_check,
    hcnet_forward,
    hcnet_forward_batch,
    hcnet_init,
    hrnet_features_exact,
    hrnet_forward,
    hrnet_forward_batch,
    init_params,
    pe_table,
    positional_encoding,
)
from hcnet.randgen import random_hypergraph, random_query
from hcnet.refine import conditional_init, equivalent
from hcnet.synth import hypercycle


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


class TestInit:
    def test_non_source_nodes_zero(self):
        g = hypercycle(8, 3)
        params = _params(g)
        h0 = hcnet_init(g, Query(0, (3,), 2), params)
        assert np.all(h0[[v for v in range(8) if v != 3]] == 0.0)
        assert np.any(h0[3] != 0.0)

    def test_source_is_pe_plus_zq(self):
        g = hypercycle(8, 3)
        params = _params(g)
        h0 = hcnet_init(g, Query(0, (3,), 2), params)
        np.testing.assert_allclose(h0[3], params.pe_row(1) + params.tensors["z_q"][0])

    def test_repeated_given_node_sums(self):
        g = build_graph([Relation(0, "r", 3)], [], 4)
        params = _params(g)
        h0 = hcnet_init(g, Query(0, (1, 1), 3), params)
        zq = params.tensors["z_q"][0]
        np.testing.assert_allclose(h0[1], params.pe_row(1) + params.pe_row(2) + 2 * zq)

    def test_variants(self):
        g = hypercycle(8, 3)
        q = Query(0, (3,), 2)
        for variant, want in (("pos", "pe"), ("rel", "zq"), ("ones", "ones")):
            params = _params(g, variant=variant)
            row = {"pe": params.pe_row(1), "zq": params.tensors["z_q"][0], "ones": np.ones(8)}
            np.testing.assert_allclose(hcnet_init(g, q, params)[3], row[want])

    def test_arity_mismatch(self):
        g = hypercycle(8, 3)
        with pytest.raises(QueryArityMismatch):
            hcnet_init(g, Query(0, (1, 2), 2), _params(g))

    @pytest.mark.parametrize("target", [0, 3])
    def test_target_out_of_range_in_both_paths(self, target):
        g = hypercycle(8, 3)  # r0 is binary
        params = _params(g)
        with pytest.raises(QueryArityMismatch):
            hcnet_init(g, Query(0, (1,), target), params)
        with pytest.raises(QueryArityMismatch):
            hcnet_forward_batch(g, [Query(0, (1,), 2), Query(0, (1,), target)], params)

    def test_unknown_variant_in_both_paths(self):
        g = hypercycle(8, 3)
        params = _params(g, variant="pos-rel")
        with pytest.raises(ShapeMismatch):
            hcnet_init(g, Query(0, (1,), 2), params)
        with pytest.raises(ShapeMismatch):
            hcnet_forward_batch(g, [Query(0, (1,), 2)], params)

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
                assert np.array_equal(hcnet_init(g, q, params), trace.features.value[0])

    @pytest.mark.parametrize("typo", [{"kind": "hcnett"}, {"mode": "query-dependant"}])
    def test_params_reject_unknown_kind_or_mode(self, typo):
        with pytest.raises(ConfigError):
            init_params(hypercycle(8, 3), ModelConfig(d=8, layers=1, **typo),
                        np.random.default_rng(0))

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
            h0 = hcnet_init(g, q, params)
            rows = {u: h0[u] for u in set(q.given)}
            for u, row in rows.items():
                assert np.abs(row).max() > 1e-9
            keys = [tuple(np.round(r, 9)) for r in rows.values()]
            assert len(set(keys)) == len(keys)


class TestExactForward:
    def test_single_edge_hand_oracle(self):
        # d=1, one binary edge r(a,b), alpha=1, zero encodings, W=[1 1],
        # b=0, query-independent w_r: message into b is h_a * w_r, so the
        # layer computes ReLU(h_b + h_a * w_r) (and symmetrically for a).
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 2)
        cfg = ModelConfig(
            kind="hrnet", d=1, layers=1, mode="query-independent",
            pe_kind="constant",
        )
        params = init_params(g, cfg, np.random.default_rng(0))
        params.tensors["W_l0"][:] = 1.0
        params.tensors["b_l0"][:] = 0.0
        params.tensors["alpha_l0"][()] = 1.0
        params.tensors["w_rel0"][:] = 0.5
        h0 = np.array([[2.0], [3.0]])
        out = forward_exact(g, h0, params, layers=1)
        np.testing.assert_allclose(out[1][1], [3.0 + 2.0 * 0.5])
        np.testing.assert_allclose(out[1][0], [2.0 + 3.0 * 0.5])

    def test_matches_per_edge_loop_reference(self):
        # The layer rule written out edge by edge and position by position;
        # the kernel multiplies and sums in another order, hence rtol.
        rng = np.random.default_rng(13)
        g = random_hypergraph(rng, max_nodes=12, max_relations=3, max_arity=4)
        q = random_query(rng, g)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=3), rng)
        h = hcnet_init(g, q, params)
        t = params.tensors
        for ell, got in enumerate(forward_exact(g, h, params, query_rel=q.relation)[1:]):
            alpha = float(t[f"alpha_l{ell}"])
            acc = np.zeros_like(h)
            for ed in g.edges:
                k = len(ed.nodes)
                gate = t[f"W_rel{ed.relation}"] @ t["z_q"][q.relation]
                factors = [alpha * h[u] + (1 - alpha) * params.pe_row(j + 1)
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

    def test_layer_zero_is_init(self):
        g = hypercycle(8, 3)
        params = _params(g, kind="hrnet", mode="query-independent")
        out = hrnet_features_exact(g, params, layers=0)
        np.testing.assert_allclose(out[0], np.ones((8, params.config.d)))

    def test_equal_message_multisets_bitwise_equal(self):
        # x2 and x4 are related by the rotation automorphism; sorted
        # accumulation makes their features bitwise identical.
        g = hypercycle(8, 3)
        params = _params(g, kind="hrnet", d=16, layers=4, mode="query-independent")
        feats = hrnet_features_exact(g, params)
        for layer in feats:
            assert (layer[2] == layer[4]).all()

    def test_no_nan(self):
        rng = np.random.default_rng(6)
        g = random_hypergraph(rng)
        params = init_params(g, ModelConfig(kind="hrnet", d=8, layers=3,
                                            mode="query-independent"), rng)
        for layer in hrnet_features_exact(g, params):
            assert np.isfinite(layer).all()

    def test_feature_partition_refined_by_wl_init(self):
        g = hypercycle(8, 3)
        q = Query(0, (0,), 2)
        params = _params(g, d=16)
        h0 = hcnet_init(g, q, params)
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
        h = hcnet_init(g, q, params)
        for ell in range(2):
            alpha = float(t[f"alpha_l{ell}"])
            acc = np.zeros_like(h)
            for ed in g.edges:
                gate = t[f"W_rel{ed.relation}"] @ t["z_q"][q.relation]
                factors = [alpha * h[u] + (1 - alpha) * params.pe_row(j + 1)
                           for j, u in enumerate(ed.nodes)]
                for i, v in enumerate(ed.nodes):
                    acc[v] += gate * np.prod([f for j, f in enumerate(factors) if j != i], axis=0)
            z = np.concatenate([h, acc], axis=1) @ t[f"W_l{ell}"].T + t[f"b_l{ell}"]
            mu, var = z.mean(axis=1, keepdims=True), z.var(axis=1, keepdims=True)
            z = t[f"ln_g_l{ell}"] * (z - mu) / np.sqrt(var + 1e-5) + t[f"ln_b_l{ell}"]
            h = np.maximum(z, 0.0) + h
        batched, _ = hcnet_forward(g, q, params)
        np.testing.assert_allclose(batched, h, rtol=1e-9, atol=1e-12)

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


def _chained_messages(tape, h, alpha, one_minus, pe, gates, groups):
    """The layer's messages as separate tape ops: per relation a gather,
    two muls, an add, the exclusive products, the gate mul, an index_add,
    plus the encoding lookup."""
    msgs = tape.constant(np.zeros_like(h.value))
    for rel, nodes in groups.items():
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


def _jittered(graph, seed=0, **kw):
    params = _params(graph, d=6, layers=3, seed=seed, **kw)
    rng = np.random.default_rng(seed + 1)
    for t in params.tensors.values():
        t += rng.uniform(-0.1, 0.1, t.shape)
    return params


class TestRelationMessages:
    @pytest.mark.parametrize("gate_shape", [(6,), (2, 1, 1, 6)])
    def test_op_equals_the_chain_bitwise(self, gate_shape):
        # Arities 1 to 5, repeated nodes inside an edge, values of very
        # different magnitudes: only the chain's order of every sum gives
        # the same bits.
        groups = {0: np.array([[1, 1, 4], [0, 2, 4]]), 1: np.array([[3], [3], [0]]),
                  2: np.array([[4, 0, 1, 2, 3]]), 3: np.array([[2, 2], [1, 0], [4, 4]])}
        rng = np.random.default_rng(1)
        inputs = {"h": rng.standard_normal((2, 5, 6)) * 10.0 ** rng.integers(-3, 3, 6),
                  "alpha": np.asarray(0.3), "pe": rng.standard_normal((6, 6)),
                  **{f"g{r}": rng.standard_normal(gate_shape) for r in groups}}
        seed = rng.standard_normal((2, 5, 6))
        results = []
        for op in (ad.relation_messages, _chained_messages):
            tape = ad.Tape()
            leaves = {name: tape.leaf(value.copy()) for name, value in inputs.items()}
            one_minus = ad.sub(tape, tape.constant(np.asarray(1.0)), leaves["alpha"])
            gates = {r: leaves[f"g{r}"] for r in groups}
            out = op(tape, leaves["h"], leaves["alpha"], one_minus, leaves["pe"], gates, groups)
            ad.backward(tape, out, seed)
            results.append((out.value, {n: v.grad for n, v in leaves.items()}))
        (fused, fused_grads), (chain, chain_grads) = results
        assert _bitwise_equal(fused, chain)
        for name in inputs:
            assert _bitwise_equal(fused_grads[name], chain_grads[name]), name

    @pytest.mark.parametrize("case", [
        dict(kind="hcnet", arities=(1, 2, 3, 5), mode="query-dependent", dropout=0.3),
        dict(kind="hcnet", arities=(2, 1, 4), mode="query-independent", pe_kind="learnable"),
        dict(kind="hcnet", arities=(3, 2, 2), mode="query-dependent", masked_relation=1),
        dict(kind="hcnet", arities=(1, 1, 2), mode="query-independent", pe_kind="one-hot"),
        dict(kind="hrnet", arities=(1, 3, 2), mode="query-independent"),
    ])
    def test_models_equal_the_chain_bitwise(self, case, monkeypatch):
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

        def run(record):
            rng = np.random.default_rng(3)
            if kind == "hcnet":
                trace = hcnet_forward_batch(g, queries, params, train=True, rng=rng,
                                            masked_edges=masked, record=record)
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
        monkeypatch.setattr(ad, "relation_messages", _chained_messages)
        chain = run(True) + run(False)
        assert len(fused) == len(chain) > 4
        for a, b in zip(fused, chain):
            assert _bitwise_equal(a, b)

    def test_tape_keeps_no_per_incidence_array(self):
        # 40 edges of arity 3 on 6 nodes: a per-incidence array (Q, 3, 40, d)
        # is ten times the widest per-node one, the (Q, V, 2d) concat.
        g = _graph((3, 2), nodes=6, per_relation=40)
        params = _params(g, d=4, layers=2)
        queries = [Query(0, (0, 1), 3), Query(1, (2,), 1)]
        trace = hcnet_forward_batch(g, queries, params)
        decode_unary_batch(trace)
        widest = len(queries) * g.node_count * 2 * 4
        assert max(v.value.size for v in trace.tape.vars) == widest
