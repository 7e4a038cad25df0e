"""Filtered ranking: candidates, tie-aware ranks, metric arithmetic."""

import numpy as np
import pytest

import hcnet.evalrank as evalrank
from hcnet.errors import ConfigError, EmptyOutcomes, NaNScore
from hcnet.evalrank import (
    MetricsReport,
    RankingOutcome,
    aggregate,
    evaluate_model,
    filtered_candidates,
    rank_of,
)
from hcnet.hypergraph import HyperEdge, Query, Relation, build_graph
from hcnet.nn import ModelConfig, init_params
from hcnet.synth import hypercycle


class TestFilteredCandidates:
    def test_no_conflicts(self):
        fact = HyperEdge(0, (0, 1))
        assert filtered_candidates(fact, 2, 3, {(0, (0, 1))}) == [0, 1, 2]

    def test_competing_fact_excluded(self):
        fact = HyperEdge(0, (0, 1))
        known = {(0, (0, 1)), (0, (0, 2))}
        assert filtered_candidates(fact, 2, 3, known) == [0, 1]

    def test_true_entity_always_included(self):
        fact = HyperEdge(0, (0, 1))
        known = {(0, (0, v)) for v in range(3)}
        assert 1 in filtered_candidates(fact, 2, 3, known)


class TestRankOf:
    def test_strict_winner(self):
        assert rank_of(np.array([0.9, 0.1, 0.2]), 0) == 1.0

    def test_all_ties_five_candidates(self):
        assert rank_of(np.full(5, 0.3), 2) == 3.0

    def test_strictly_smallest_of_four(self):
        assert rank_of(np.array([4.0, 3.0, 2.0, 1.0]), 3) == 4.0

    def test_reversal_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(10)
        scores[3] = scores[7]  # inject a tie
        for idx in range(10):
            rev = scores[::-1].copy()
            assert rank_of(scores, idx) == rank_of(rev, 9 - idx)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(8)
        for idx in range(8):
            assert rank_of(scores, idx) == rank_of(np.tanh(scores) * 5 + 2, idx)

    def test_nan_rejected(self):
        with pytest.raises(NaNScore):
            rank_of(np.array([0.1, np.nan]), 0)


def _outcomes(ranks, arity=2):
    q = Query(0, tuple(range(arity - 1)), arity)
    return [RankingOutcome(q, 0, float(r), 10) for r in ranks]


class TestAggregate:
    def test_single_perfect(self):
        rep = aggregate(_outcomes([1]))
        assert rep.mrr == 1.0 and rep.hits1 == 1.0

    def test_spec_arithmetic(self):
        rep = aggregate(_outcomes([1, 2, 4]))
        assert rep.mrr == pytest.approx(0.583333, abs=1e-6)
        assert rep.mrr == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-12)
        assert rep.hits3 == pytest.approx(2 / 3)

    def test_rank_two(self):
        assert aggregate(_outcomes([2])).mrr == 0.5

    def test_hits_monotone(self):
        rep = aggregate(_outcomes([1, 2, 5, 11, 3]))
        assert rep.hits1 <= rep.hits3 <= rep.hits10 <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyOutcomes):
            aggregate([])

    def test_per_arity_breakdown(self):
        g = build_graph(
            [Relation(0, "r", 2), Relation(1, "s", 3)], [], 4
        )
        outs = [
            RankingOutcome(Query(0, (0,), 2), 0, 1.0, 4),
            RankingOutcome(Query(1, (0, 1), 3), 0, 2.0, 4),
        ]
        rep = aggregate(outs, g)
        assert set(rep.per_arity) == {2, 3}
        assert rep.per_arity[2].mrr == 1.0
        assert rep.per_arity[3].mrr == 0.5
        assert isinstance(rep.per_arity[2], MetricsReport)


class TestEvaluateModel:
    def _setup(self):
        g = hypercycle(8, 3)
        rng = np.random.default_rng(0)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=2), rng)
        test = [HyperEdge(0, (0, 4)), HyperEdge(0, (1, 5))]
        return g, params, test

    def test_report_shape(self):
        g, params, test = self._setup()
        rep = evaluate_model(g, test, params, "hcnet")
        assert rep.count == 4  # two facts x two positions
        assert 0.0 < rep.mrr <= 1.0
        assert 2 in rep.per_arity

    def test_constant_scorer_mrr_closed_form(self):
        # Zero decoder weights make every candidate score identical; with c
        # candidates every rank is (c+1)/2.
        g, params, test = self._setup()
        for name in ("dec_W1", "dec_b1", "dec_W2", "dec_b2"):
            params.tensors[name][:] = 0.0
        rep = evaluate_model(g, [test[0]], params, "hcnet")
        c = 8  # no competing facts: all nodes survive the filter
        assert rep.mrr == pytest.approx(1.0 / ((c + 1) / 2))

    def test_hrnet_path_runs(self):
        g = hypercycle(8, 3)
        rng = np.random.default_rng(1)
        params = init_params(
            g, ModelConfig(kind="hrnet", d=8, layers=2, mode="query-independent"), rng
        )
        rep = evaluate_model(g, [HyperEdge(0, (0, 4))], params, "hrnet")
        assert rep.count == 2

    def test_max_negatives_cap(self):
        g, params, test = self._setup()
        rep = evaluate_model(g, test, params, "hcnet", max_negatives=3)
        assert rep.count == 4
        # With the truth plus at most 3 sampled negatives, rank <= 4 always,
        # so hits@10 is exactly 1.
        assert rep.hits10 == 1.0

    @pytest.mark.parametrize("kind", ["hcnet", "hrnet"])
    def test_report_equals_recording_pass(self, kind, monkeypatch):
        # Evaluation runs its forwards on a non-recording tape; recording
        # them must not change a single bit of the report.
        g = hypercycle(12, 3)
        mode = "query-dependent" if kind == "hcnet" else "query-independent"
        params = init_params(g, ModelConfig(kind=kind, d=8, layers=2, mode=mode),
                             np.random.default_rng(3))
        test = [HyperEdge(0, (0, 6)), HyperEdge(0, (2, 9)), HyperEdge(0, (5, 7))]
        lean = evaluate_model(g, test, params, kind, batch_queries=4).as_dict()
        for name in ("hcnet_forward_batch", "hrnet_forward_batch"):
            forward = getattr(evalrank, name)
            monkeypatch.setattr(evalrank, name,
                                lambda *a, _f=forward, **k: _f(*a, **{**k, "record": True}))
        assert evaluate_model(g, test, params, kind, batch_queries=4).as_dict() == lean

    def test_unknown_kind(self):
        g, params, test = self._setup()
        with pytest.raises(ConfigError):
            evaluate_model(g, test, params, "other")

    def test_filter_uses_split_union(self):
        g = hypercycle(8, 3)
        rng = np.random.default_rng(2)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=2), rng)
        fact = HyperEdge(0, (0, 4))
        other = HyperEdge(0, (0, 5))
        full = evaluate_model(g, [fact], params, "hcnet")
        filtered = evaluate_model(g, [fact], params, "hcnet", splits={"valid": [other]})
        assert full.count == filtered.count == 2
        # The competing valid fact shrinks the tail candidate set by one.
        union = g.fact_set() | {(other.relation, other.nodes), (fact.relation, fact.nodes)}
        assert len(filtered_candidates(fact, 2, 8, union)) == 7
