"""Training loop: negatives, masking, loss, Adam, fit, checkpoints."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcnet
from hcnet import autodiff as ad
from hcnet.errors import (
    CheckpointError,
    ConfigError,
    FactNotFound,
    NoCandidate,
    NonFiniteValue,
    ShapeMismatch,
)
from hcnet.evalrank import evaluate_model
from hcnet.hypergraph import HyperEdge, Query, Relation, build_graph
from hcnet.nn import ModelConfig, decode_unary_batch, hcnet_forward_batch, init_params
from hcnet.randgen import random_hypergraph
from hcnet.synth import hypercycle, opposite_queries
from hcnet.train import (
    AdamState,
    TrainConfig,
    adam_step,
    adversarial_loss_from_logits,
    corrupt,
    fit,
    load_checkpoint,
    mask_positives,
    save_checkpoint,
    train_step,
)


def self_adversarial_loss(p_pos: float, p_negs: list[float], alpha_adv: float) -> float:
    """Reference for `adversarial_loss_from_logits`, in probability space:
    -log p  -  sum_i w_i log(1 - p'_i), w = Softmax(log(1-p')/alpha)."""
    logs = np.log1p(-np.asarray(p_negs))
    w = np.exp(logs / alpha_adv - np.logaddexp.reduce(logs / alpha_adv))
    return float(-np.log(p_pos) - np.sum(w * logs))


class TestTrainConfig:
    @pytest.mark.parametrize("bad, message", [
        ({"mode": "query-dependant"}, "unknown message mode"),
        ({"variant": "pos-rel"}, "unknown init variant"),
        ({"pe_kind": "learned"}, "unknown encoding kind"),
        ({"d": 0}, "config 'd' must be an integer >= 1"),
        ({"layers": "x"}, "config 'layers' must be an integer >= 0"),
        ({"dropout": 1.0}, "config 'dropout' must be a number in"),
    ], ids=["mode", "variant", "pe_kind", "d", "layers", "dropout"])
    def test_rejects_a_bad_model_field(self, bad, message):
        # The model's fields are checked by the ModelConfig they build.
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**bad)


class TestCorrupt:
    def test_forced_choice(self):
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 2)
        rng = np.random.default_rng(0)
        out = corrupt(g.edges[0], 2, g, 1, rng)
        assert out == [0]

    def test_true_entity_never_sampled(self):
        g = hypercycle(8, 3)
        rng = np.random.default_rng(1)
        fact = g.edges[0]
        for _ in range(20):
            for v in corrupt(fact, 2, g, 5, rng):
                assert v != fact.nodes[1]

    def test_known_facts_filtered(self):
        # r(0,3) is a known fact, so node 3 is filtered; 0 and 2 are legal.
        edges = [HyperEdge(0, (0, v)) for v in (1, 3)]
        g = build_graph([Relation(0, "r", 2)], edges, 4)
        rng = np.random.default_rng(2)
        samples = set(corrupt(edges[0], 2, g, 32, rng))
        assert 3 not in samples and 1 not in samples
        assert samples <= {0, 2}

    def test_no_candidate(self):
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 0))], 1)
        with pytest.raises(NoCandidate):
            corrupt(g.edges[0], 2, g, 1, np.random.default_rng(0))

    def test_seeded_determinism(self):
        g = hypercycle(8, 3)
        a = corrupt(g.edges[0], 1, g, 5, np.random.default_rng(7))
        b = corrupt(g.edges[0], 1, g, 5, np.random.default_rng(7))
        assert a == b

    def test_draws_from_filtered_candidates_without_truth(self):
        # Corruptions index the candidate list of the filter as first
        # written (a walk over all V nodes against the graph's fact set),
        # with the true entity removed, in its order: the edge-table mask
        # leaves every RNG draw as it was.
        def set_walk(fact, t, node_count, all_facts):
            head, tail = fact.nodes[: t - 1], fact.nodes[t:]
            return [v for v in range(node_count)
                    if (fact.relation, head + (v,) + tail) not in all_facts]

        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_hypergraph(rng, max_nodes=12, max_relations=3, max_arity=3)
            fact = g.edges[0]
            for t in range(1, len(fact.nodes) + 1):
                legal = [v for v in set_walk(fact, t, g.node_count, g.fact_set())
                         if v != fact.nodes[t - 1]]
                if not legal:
                    continue
                seed = int(rng.integers(1 << 30))
                got = corrupt(fact, t, g, 6, np.random.default_rng(seed))
                draws = np.random.default_rng(seed).integers(0, len(legal), size=6)
                assert got == [legal[i] for i in draws]


class TestSelfAdversarialLoss:
    def test_symmetric_half_case(self):
        # p = 0.5 for the positive and a single negative: -log(1/2) twice.
        assert self_adversarial_loss(0.5, [0.5], 0.5) == pytest.approx(
            2 * np.log(2), abs=1e-9
        )
        assert self_adversarial_loss(0.5, [0.5], 0.5) == pytest.approx(1.386294, abs=1e-6)

    def test_single_negative_weight_is_one(self):
        # With one negative the softmax weight is 1 regardless of temperature.
        for alpha in (0.1, 0.5, 2.0):
            expected = -np.log(0.7) - np.log(1 - 0.4)
            assert self_adversarial_loss(0.7, [0.4], alpha) == pytest.approx(expected)

    @settings(max_examples=50, deadline=None)
    @given(
        probs=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8),
        alpha=st.floats(0.1, 3.0),
    )
    def test_weights_sum_to_one_and_permutation_invariant(self, probs, alpha):
        base = self_adversarial_loss(0.5, probs, alpha)
        assert np.isfinite(base)
        shuffled = list(reversed(probs))
        assert self_adversarial_loss(0.5, shuffled, alpha) == pytest.approx(base)
        # Equal negatives make the weighted term equal the plain mean term,
        # which is only possible when the weights sum to one.
        equal = [probs[0]] * 4
        expected = -np.log(0.5) - np.log(1 - probs[0])
        assert self_adversarial_loss(0.5, equal, alpha) == pytest.approx(expected)


    @pytest.mark.parametrize("alpha", [0.1, 0.5, 2.0])
    def test_tape_loss_matches_scalar_oracle(self, alpha):
        # The training loss works on raw scores; summed over queries it must
        # equal the probability-space definition at p = sigmoid(score).
        rng = np.random.default_rng(int(alpha * 10))
        pos = rng.uniform(-4, 4, 5)
        neg = rng.uniform(-4, 4, (5, 7))
        tape = ad.Tape()
        loss = adversarial_loss_from_logits(tape, tape.leaf(pos), tape.leaf(neg), alpha)
        p_pos, p_neg = ad.stable_sigmoid(pos), ad.stable_sigmoid(neg)
        expected = sum(
            self_adversarial_loss(p_pos[q], list(p_neg[q]), alpha) for q in range(5)
        )
        assert float(loss.value) == pytest.approx(expected, rel=1e-12)


class TestTrainStep:
    def test_single_negative_is_plain_softplus_loss(self):
        # One negative gets adversarial weight exactly 1, so the shared step
        # optimizes mean(softplus(-s+) + softplus(s-)), bit for bit.
        g = hypercycle(8, 3)
        rng = np.random.default_rng(0)
        pos, neg = rng.uniform(-3, 3, 8), rng.uniform(-3, 3, (8, 1))
        params = init_params(g, ModelConfig(kind="hcnet", d=4, layers=1), rng)
        trace = hcnet_forward_batch(g, [Query(0, (0,), 2)], params)
        tape = trace.tape
        loss = train_step(params, AdamState(), trace, tape.leaf(pos), tape.leaf(neg),
                          TrainConfig(adv_temperature=0.3))
        expected = (np.logaddexp(0.0, -pos).sum() + np.logaddexp(0.0, neg).sum()) / 8
        assert loss == expected

    def test_updates_params_through_the_tape(self):
        g = hypercycle(8, 3)
        params = init_params(g, ModelConfig(kind="hcnet", d=4, layers=1),
                             np.random.default_rng(0))
        before = {k: v.copy() for k, v in params.tensors.items()}
        trace = hcnet_forward_batch(g, [Query(0, (0,), 2), Query(0, (1,), 2)], params)
        logits = decode_unary_batch(trace)
        rows = np.arange(2, dtype=np.intp)
        pos = ad.gather_2d(trace.tape, logits, rows, np.asarray([4, 5]))
        neg = ad.gather_2d(trace.tape, logits, np.repeat(rows, 3).reshape(2, 3),
                           np.asarray([[1, 2, 3], [2, 3, 6]]))
        state = AdamState()
        train_step(params, state, trace, pos, neg, TrainConfig(lr=0.1))
        assert state.step == 1
        assert not np.array_equal(params.tensors["dec_W2"], before["dec_W2"])


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_before_update(self, bad):
        g = hypercycle(8, 3)
        params = init_params(g, ModelConfig(kind="hcnet", d=4, layers=1),
                             np.random.default_rng(0))
        params.tensors["W_l0"][0, 1] = bad
        before = {k: v.copy() for k, v in params.tensors.items()}
        trace = hcnet_forward_batch(g, [Query(0, (0,), 2), Query(0, (1,), 2)], params)
        logits = decode_unary_batch(trace)
        rows = np.arange(2, dtype=np.intp)
        pos = ad.gather_2d(trace.tape, logits, rows, np.asarray([4, 5]))
        neg = ad.gather_2d(trace.tape, logits, rows[:, None], np.asarray([[1], [2]]))
        state = AdamState()
        with pytest.raises(NonFiniteValue):
            train_step(params, state, trace, pos, neg, TrainConfig(lr=0.1))
        assert state.step == 0 and state.m == {}
        for name, tensor in params.tensors.items():
            np.testing.assert_array_equal(tensor, before[name])


class TestMasking:
    def test_mask_everything(self):
        g = hypercycle(8, 3)
        masked = mask_positives(g, list(g.edges))
        assert masked == set(range(8))

    def test_duplicates_mask_distinct_edges(self):
        edges = [HyperEdge(0, (0, 1)), HyperEdge(0, (0, 1))]
        g = build_graph([Relation(0, "r", 2)], edges, 2)
        assert mask_positives(g, [edges[0], edges[0]]) == {0, 1}

    def test_missing_fact(self):
        g = hypercycle(8, 3)
        with pytest.raises(FactNotFound):
            mask_positives(g, [HyperEdge(0, (0, 1, 2))])

    def test_over_masking(self):
        edges = [HyperEdge(0, (0, 1))]
        g = build_graph([Relation(0, "r", 2)], edges, 2)
        with pytest.raises(FactNotFound):
            mask_positives(g, [edges[0], edges[0]])

    @pytest.mark.parametrize("nodes", [(0, 1), (0, 1, 2, 3)], ids=["shorter", "longer"])
    def test_wrong_arity_is_not_found(self, nodes):
        # Relation 1 of the hypercycle is 3-ary and has edges: a fact of
        # another length names none of them, and is no broadcast error.
        with pytest.raises(FactNotFound, match="not in graph"):
            mask_positives(hypercycle(8, 3), [HyperEdge(1, nodes)])

    def test_unknown_relation_is_not_found(self):
        with pytest.raises(FactNotFound, match="not in graph"):
            mask_positives(hypercycle(8, 3), [HyperEdge(5, (0, 1, 2))])

    def test_masks_the_first_free_occurrence_in_edge_order(self):
        edges = [HyperEdge(0, (1, 0)), HyperEdge(0, (0, 1)), HyperEdge(1, (0, 1)),
                 HyperEdge(0, (0, 1))]
        g = build_graph([Relation(0, "r", 2), Relation(1, "s", 2)], edges, 2)
        assert mask_positives(g, [edges[1]]) == {1}
        assert mask_positives(g, [edges[3], edges[1], edges[2]]) == {1, 2, 3}


class TestAdam:
    def _params(self):
        g = hypercycle(8, 3)
        return init_params(g, ModelConfig(kind="hcnet", d=4, layers=1),
                           np.random.default_rng(0))

    def test_zero_gradient_keeps_params(self):
        params = self._params()
        before = {k: v.copy() for k, v in params.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        state = AdamState()
        adam_step(params, grads, state, lr=0.1)
        for k in before:
            np.testing.assert_allclose(params.tensors[k], before[k])
        assert state.step == 1

    def test_constant_gradient_step_size_approaches_lr(self):
        params = self._params()
        grads = {k: np.full_like(v, 0.3) for k, v in params.tensors.items()}
        state = AdamState()
        name = "W_l0"
        for _ in range(500):
            prev = params.tensors[name].copy()
            adam_step(params, grads, state, lr=1e-2)
        step = np.abs(params.tensors[name] - prev)
        np.testing.assert_allclose(step, 1e-2, rtol=1e-3)

    def test_shape_mismatch(self):
        params = self._params()
        grads = {"W_l0": np.zeros(3)}
        with pytest.raises(ShapeMismatch):
            adam_step(params, grads, AdamState(), 0.1)

    def test_determinism(self):
        def run():
            params = self._params()
            rng = np.random.default_rng(3)
            state = AdamState()
            for _ in range(5):
                grads = {k: rng.standard_normal(v.shape) for k, v in params.tensors.items()}
                adam_step(params, grads, state, 1e-3)
            return params.tensors["W_l0"].copy()

        assert (run() == run()).all()


def _toy_splits():
    g = hypercycle(8, 3)
    pos, _ = opposite_queries(8)
    extra = [HyperEdge(0, p) for p in pos]
    graph = build_graph(g.relations, g.edges + extra[:6], 8)
    return graph, {"train": graph.edges[:10], "valid": extra[6:]}


class TestFit:
    def test_zero_epochs_returns_init(self):
        graph, splits = _toy_splits()
        cfg = TrainConfig(d=4, layers=1, epochs=0, batch_size=4, negatives=2, seed=0)
        params, log = fit(graph, splits, cfg)
        assert log == []
        ref = init_params(graph, cfg.model_config("hcnet"), np.random.default_rng(0))
        for name in ref.tensors:
            np.testing.assert_allclose(params.tensors[name], ref.tensors[name])

    def test_short_run_logs_and_learns(self, tmp_path):
        graph, splits = _toy_splits()
        cfg = TrainConfig(d=8, layers=2, epochs=3, batch_size=4, negatives=2, seed=0)
        log_path = tmp_path / "run.log"
        params, log = fit(graph, splits, cfg, log_path=str(log_path))
        assert len(log) == 3
        assert all("loss" in e and "val_mrr" in e for e in log)
        assert log_path.read_text().count("\n") == 3
        assert all(np.isfinite(e["loss"]) for e in log)

    def test_rerun_truncates_log(self, tmp_path):
        graph, splits = _toy_splits()
        cfg = TrainConfig(d=4, layers=1, epochs=2, batch_size=4, negatives=2, seed=0)
        log_path = tmp_path / "run.log"
        fit(graph, splits, cfg, log_path=str(log_path))
        _, log = fit(graph, splits, cfg, log_path=str(log_path))
        lines = log_path.read_text().splitlines()
        assert len(lines) == cfg.epochs
        assert [json.loads(line) for line in lines] == log

    def test_seeded_runs_identical(self):
        graph, splits = _toy_splits()
        cfg = TrainConfig(d=4, layers=1, epochs=2, batch_size=4, negatives=2, seed=5)
        a, log_a = fit(graph, splits, cfg)
        b, log_b = fit(graph, splits, cfg)
        assert log_a == log_b
        for name in a.tensors:
            assert (a.tensors[name] == b.tensors[name]).all()

    def test_unary_facts_train(self):
        # A batch of unary facts gives no node to initialize a query from:
        # the initial features scatter nothing, and must stay float.
        rels = [Relation(0, "r0", 1), Relation(1, "r1", 2)]
        edges = [HyperEdge(0, (v,)) for v in range(4)]
        edges += [HyperEdge(1, (v, (v + 1) % 6)) for v in range(6)]
        graph = build_graph(rels, edges, 6)
        cfg = TrainConfig(d=4, layers=2, epochs=2, batch_size=4, negatives=2, seed=0)
        _, log = fit(graph, {"train": edges[:4]}, cfg)
        assert len(log) == 2 and all(np.isfinite(e["loss"]) for e in log)

    def test_steps_per_epoch_cap(self):
        graph, splits = _toy_splits()
        cfg = TrainConfig(
            d=4, layers=1, epochs=1, batch_size=2, negatives=2, seed=0, steps_per_epoch=1
        )
        _, log = fit(graph, splits, cfg)
        assert len(log) == 1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        g = hypercycle(8, 3)
        rng = np.random.default_rng(0)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=2), rng)
        cfg = TrainConfig(d=8, layers=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, cfg)
        loaded, header = load_checkpoint(str(path))
        assert loaded.config == params.config
        assert loaded.num_relations == params.num_relations
        assert set(loaded.tensors) == set(params.tensors)
        for name, tensor in params.tensors.items():
            np.testing.assert_allclose(
                loaded.tensors[name], tensor.astype("<f4").astype(np.float64)
            )
        assert header["train_config"]["d"] == 8

    def test_header_is_json_with_offsets(self, tmp_path):
        import json

        g = hypercycle(8, 3)
        params = init_params(g, ModelConfig(kind="hcnet", d=4, layers=1),
                             np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        names = [t["name"] for t in header["tensors"]]
        assert names == sorted(names)
        total = sum(t["nbytes"] for t in header["tensors"])
        assert len(raw) == 8 + hlen + total

    def _saved(self, tmp_path):
        g = hypercycle(8, 3)
        params = init_params(g, ModelConfig(kind="hcnet", d=4, layers=1),
                             np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params)
        return path, path.read_bytes()

    def test_empty_file(self, tmp_path):
        path, _ = self._saved(tmp_path)
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_truncated_header(self, tmp_path):
        path, raw = self._saved(tmp_path)
        hlen = int.from_bytes(raw[:8], "little")
        path.write_bytes(raw[: 8 + hlen - 1])
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(str(path))

    def test_malformed_header(self, tmp_path):
        path, raw = self._saved(tmp_path)
        hlen = int.from_bytes(raw[:8], "little")
        path.write_bytes(raw[:8] + b"x" * hlen + raw[8 + hlen :])
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(str(path))

    def test_truncated_body(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    @staticmethod
    def _with_header(raw, model=(), **top):
        hlen = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        header["model"].update(model)
        header.update(top)
        blob = json.dumps(header).encode("utf-8")
        return len(blob).to_bytes(8, "little") + blob + raw[8 + hlen :]

    def test_header_with_both_layer_switches_on_loads(self, tmp_path):
        # While ModelConfig had `use_layernorm` and `use_skip`, every header
        # carried them, as true for every model `fit` trained.
        path, raw = self._saved(tmp_path)
        want, _ = load_checkpoint(str(path))
        path.write_bytes(self._with_header(raw, {"use_layernorm": True, "use_skip": True}))
        got, header = load_checkpoint(str(path))
        assert header["model"]["use_layernorm"] is True
        assert got.config == want.config
        assert (got.num_relations, got.max_arity, got.decoder_arities) == (
            want.num_relations, want.max_arity, want.decoder_arities)
        assert set(got.tensors) == set(want.tensors)
        assert all(got.tensors[n].tobytes() == want.tensors[n].tobytes() for n in got.tensors)

    @pytest.mark.parametrize("model, top, match", [
        ({"mode": "bogus"}, {}, "malformed header .*unknown message mode"),
        ({"dropout": 2.0}, {}, "malformed header .*'dropout'"),
        ({}, {"max_arity": "x"}, "malformed header .*'max_arity'"),
        ({"layers": 2}, {}, "tensors do not match"),
        ({"d": 8}, {}, "tensors do not match"),
        ({"kind": "hrnet", "mode": "query-independent"}, {}, "tensors do not match"),
        ({}, {"num_relations": 9}, "tensors do not match"),
        ({}, {"decoder_arities": [3]}, "malformed header .*decoder arities \\[3\\]"),
    ], ids=["mode", "dropout", "max-arity", "layers", "d", "kind", "relations",
            "decoder-arities"])
    def test_header_of_no_model_or_another_model(self, tmp_path, model, top, match):
        # The body holds a 1-layer, d=4 hcnet of 3 relations.
        path, raw = self._saved(tmp_path)
        path.write_bytes(self._with_header(raw, model, **top))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("arities", [[2, 3, 3], [3, 2]])
    def test_hrnet_header_of_other_decoder_arities(self, tmp_path, arities):
        # init_params gives hrnet the distinct arities of its graph, ascending.
        g = hypercycle(8, 3)
        params = init_params(g, ModelConfig(kind="hrnet", d=4, layers=1,
                                            mode="query-independent"), np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params)
        assert load_checkpoint(str(path))[0].decoder_arities == (2, 3)
        path.write_bytes(self._with_header(path.read_bytes(), decoder_arities=arities))
        with pytest.raises(CheckpointError, match="decoder arities"):
            load_checkpoint(str(path))

    def test_trailing_bytes(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw + bytes(4))
        with pytest.raises(CheckpointError, match="too long"):
            load_checkpoint(str(path))

    def test_header_max_arity_builds_no_table(self, tmp_path, monkeypatch):
        # A closed-form encoding is no tensor of the body, so nothing sized
        # by the header's max_arity is built; a forward builds the table
        # for the graph it runs on.
        path, raw = self._saved(tmp_path)  # sinusoidal, d=4
        path.write_bytes(self._with_header(raw, max_arity=200_000))

        def no_table(*args):
            raise AssertionError("load_checkpoint built an encoding table")

        with monkeypatch.context() as m:
            m.setattr(hcnet.nn, "pe_table", no_table)
            m.setattr(hcnet.train, "pe_table", no_table, raising=False)
            edited, _ = load_checkpoint(str(path))
        assert edited.max_arity == 200_000
        path.write_bytes(raw)
        unedited, _ = load_checkpoint(str(path))
        g = hypercycle(8, 3)
        facts = g.edges[:3]
        assert (evaluate_model(g, facts, edited, "hcnet").as_dict()
                == evaluate_model(g, facts, unedited, "hcnet").as_dict())

    def test_save_replaces_and_leaves_no_temp_file(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(b"stale")
        self._saved(tmp_path)
        assert path.read_bytes() == raw
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


# One training step at the benchmark's `train` size: V=1000, E=4000 facts of
# arities 2/2/3/3, Q=16 queries, L=3, d=32, 10 negatives. Prints the peak
# RSS of the process in MB.
_STEP_SCRIPT = """
import resource
import numpy as np
from hcnet.hypergraph import HyperEdge, Relation, build_graph
from hcnet.train import TrainConfig, fit

rng = np.random.default_rng(0)
arities = (2, 2, 3, 3)
relations = [Relation(r, f"r{r}", k) for r, k in enumerate(arities)]
edges = []
for r, k in enumerate(arities):
    rows = np.unique(rng.integers(0, 1000, size=(1100, k)), axis=0)[:1000]
    edges += [HyperEdge(r, tuple(int(v) for v in row)) for row in rows]
graph = build_graph(relations, edges, 1000)
cfg = TrainConfig(d=32, layers=3, batch_size=16, negatives=10, epochs=1, steps_per_epoch=1)
_, log = fit(graph, {"train": edges}, cfg)
assert len(log) == 1 and np.isfinite(log[0]["loss"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


class TestMemoryBound:
    def test_train_step_peak_rss(self):
        """The step's tape frees each gradient once it has been propagated,
        keeps no per-incidence message array and keeps of each layer's tail
        and of the decoder only what their VJPs read; keeping the gradients
        peaked at about 1.6 GB, keeping the arrays at about 0.9 GB, and
        keeping every tail op's output at about 0.22 GB."""
        src = Path(hcnet.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", _STEP_SCRIPT], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        peak_mb = float(proc.stdout.split()[-1])
        assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"
