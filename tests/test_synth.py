"""Cyclic hypergraph family: construction, splits, symmetry, experiment."""

import dataclasses

import numpy as np
import pytest

import hcnet.synth as synth
from hcnet.errors import InvalidSpec
from hcnet.hypergraph import apply_permutation, load_dataset
from hcnet.nn import ModelConfig, decode_kary_batch, hrnet_forward_batch, init_params
from hcnet.synth import (
    hypercycle,
    hypercycle_suite,
    opposite_queries,
    run_expressiveness_experiment,
    write_hypercycle_dataset,
)
from hcnet.train import TrainConfig


class TestHypercycle:
    def test_smallest_instance(self):
        g = hypercycle(8, 3)
        assert g.node_count == 8
        assert len(g.edges) == 8
        assert all(len(e.nodes) == 3 for e in g.edges)
        assert [r.name for r in g.relations] == ["r0", "r1", "r2"]
        assert g.relations[0].arity == 2

    def test_edge_structure(self):
        g = hypercycle(8, 3)
        assert g.edges[0].relation == 1 and g.edges[0].nodes == (0, 1, 2)
        assert g.edges[1].relation == 2 and g.edges[1].nodes == (1, 2, 3)
        assert g.edges[7].nodes == (7, 0, 1)  # wraps around

    def test_wider_edges(self):
        g = hypercycle(12, 4)
        assert len(g.edges) == 12
        for i, e in enumerate(g.edges):
            assert e.nodes == tuple((i + j) % 12 for j in range(4))
            assert e.relation == (1 if i % 2 == 0 else 2)

    def test_r0_never_instantiated(self):
        g = hypercycle(16, 5)
        assert all(e.relation != 0 for e in g.edges)

    @pytest.mark.parametrize("n,k", [(7, 3), (10, 3), (8, 2), (8, 8), (4, 3)])
    def test_invalid_specs(self, n, k):
        with pytest.raises(InvalidSpec):
            hypercycle(n, k)

    def test_node_names(self):
        g = hypercycle(8, 3)
        assert g.node_names == [f"x{i}" for i in range(8)]

    def test_rotation_by_two_is_automorphism(self):
        g = hypercycle(12, 5)
        perm = [(v + 2) % 12 for v in range(12)]
        h = apply_permutation(g, perm)
        assert h.fact_set() == g.fact_set()

    def test_rotation_by_one_swaps_relations(self):
        g = hypercycle(8, 3)
        perm = [(v + 1) % 8 for v in range(8)]
        h = apply_permutation(g, perm)
        assert h.fact_set() != g.fact_set()
        swapped = {(3 - r, nodes) for r, nodes in h.fact_set()}
        assert swapped == g.fact_set()


class TestOppositeQueries:
    def test_n8(self):
        pos, neg = opposite_queries(8)
        assert (0, 4) in pos and (3, 7) in pos
        assert (0, 2) in neg and (6, 0) in neg
        assert len(pos) == len(neg) == 8

    def test_n12(self):
        pos, neg = opposite_queries(12)
        assert (3, 9) in pos and (3, 5) in neg

    def test_disjoint(self):
        for n in (8, 12, 16, 20):
            pos, neg = opposite_queries(n)
            assert not set(pos) & set(neg)


class TestSuite:
    def test_split_sizes(self):
        train, test = hypercycle_suite()
        assert len(train) == 14 and len(test) == 6
        assert not set(train) & set(test)
        assert set(train) | set(test) == {
            (n, k) for n in (8, 12, 16, 20) for k in (3, 4, 5, 6, 7)
        }

    def test_ratio_one_puts_everything_in_train(self):
        train, test = hypercycle_suite(ratio=1.0)
        assert len(train) == 20 and test == []

    def test_seeded_determinism(self):
        assert hypercycle_suite(seed=3) == hypercycle_suite(seed=3)
        assert hypercycle_suite(seed=3) != hypercycle_suite(seed=4)

    def test_bad_ratio(self):
        with pytest.raises(InvalidSpec):
            hypercycle_suite(ratio=0.0)


class TestDatasetWriter:
    def test_written_graphs_load(self, tmp_path):
        write_hypercycle_dataset(str(tmp_path), ns=(8,), ks=(3, 4), ratio=0.5)
        found = sorted(p for p in tmp_path.rglob("hypercycle_*"))
        assert len(found) == 2
        for directory in found:
            g, _train, _valid, test = load_dataset(str(directory))
            assert g.node_count == 8
            assert (directory / "negatives.txt").exists()
            lines = (directory / "negatives.txt").read_text().strip().split("\n")
            assert len(lines) == 8
            assert all(line.startswith("r0\t") for line in lines)
            if directory.parent.name == "test":
                assert len(test) == 8
                r0 = next(r.id for r in g.relations if r.name == "r0")
                assert all(e.relation == r0 for e in test)


class TestQueryAgnosticLimit:
    def test_hrnet_scores_positive_equals_negative(self):
        # Rotation by 2 maps each positive pair to a negative pair of another
        # source, so a query-agnostic encoder assigns the positive and
        # negative sets identical score multisets. Stronger: node embeddings
        # are rotation-invariant, so each (i, i+n/2) scores exactly like
        # (i+n/2, i+2+n/2) ... in fact every pair at even offset shares the
        # score of its rotate-by-2 image.
        g = hypercycle(8, 3)
        rng = np.random.default_rng(0)
        params = init_params(
            g, ModelConfig(kind="hrnet", d=16, layers=3, mode="query-independent"), rng
        )
        trace = hrnet_forward_batch(g, params)
        pos, neg = opposite_queries(8)
        pairs = np.asarray(pos + neg, dtype=np.intp)
        qrel = np.zeros(len(pairs), dtype=np.intp)
        logits = decode_kary_batch(trace, pairs, qrel).value
        pos_scores, neg_scores = logits[:8], logits[8:]
        # Each positive (i, i+4) equals its rotation image (i+2, i+6):
        for i in range(8):
            assert pos_scores[i] == pytest.approx(pos_scores[(i + 2) % 8], abs=1e-9)
            assert neg_scores[i] == pytest.approx(neg_scores[(i + 2) % 8], abs=1e-9)
        # A positive pair and the negative pair starting at the antipode
        # are both fixed-offset pairs of an isomorphic rooted graph only for
        # the conditional model to separate; here we just confirm the two
        # orbits each collapse to at most two values (even/odd sources).
        assert len({round(float(s), 9) for s in pos_scores}) <= 2
        assert len({round(float(s), 9) for s in neg_scores}) <= 2


class TestExperiment:
    def test_smoke_run_is_deterministic(self):
        cfg = TrainConfig(d=4, layers=2, epochs=2, lr=1e-3)
        a = run_expressiveness_experiment("hcnet", cfg, seed=0, ns=(8,), ks=(3,))
        b = run_expressiveness_experiment("hcnet", cfg, seed=0, ns=(8,), ks=(3,))
        assert a.losses == b.losses
        assert a.model == "hcnet" and a.seed == 0
        assert len(a.losses) == 2
        assert 0.0 <= a.train_accuracy <= 1.0
        # ratio 0.7 of a single spec puts everything in train; held-out
        # accuracy is NaN by convention.
        assert np.isnan(a.accuracy)

    def test_hrnet_smoke(self):
        cfg = TrainConfig(d=4, layers=1, epochs=1, lr=1e-3)
        res = run_expressiveness_experiment(
            "hrnet", cfg, seed=1, ns=(8, 12), ks=(3,), ratio=0.5
        )
        assert len(res.losses) == 1
        assert 0.0 <= res.accuracy <= 1.0

    @pytest.mark.parametrize("model", ["hcnet", "hrnet"])
    def test_scoring_equals_recording_pass(self, model, monkeypatch):
        # Training records its passes and scoring records nothing; forcing
        # scoring to record must not change a single bit of the result.
        cfg = TrainConfig(d=4, layers=2, epochs=2, lr=1e-3)
        kw = dict(seed=2, ns=(8, 12), ks=(3,), ratio=0.5)
        real = synth._pair_logits
        tapes = []

        def spy(*args, record):
            trace, pos, neg = real(*args, record=record)
            tapes.append((record, len(trace.tape.vars)))
            return trace, pos, neg

        monkeypatch.setattr(synth, "_pair_logits", spy)
        lean = run_expressiveness_experiment(model, cfg, **kw)
        assert {record for record, _ in tapes} == {True, False}
        assert all((size > 0) == record for record, size in tapes)
        monkeypatch.setattr(synth, "_pair_logits", lambda *a, record: real(*a, record=True))
        forced = run_expressiveness_experiment(model, cfg, **kw)
        assert dataclasses.asdict(forced) == dataclasses.asdict(lean)
        assert not np.isnan(lean.accuracy)
