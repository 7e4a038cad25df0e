"""Filtered ranking: candidates, tie-aware ranks, metric arithmetic."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcnet.autodiff as ad
import hcnet.evalrank as evalrank
from hcnet.errors import ConfigError, EmptyOutcomes, NaNScore
from hcnet.evalrank import (
    MetricsReport,
    RankingOutcome,
    aggregate,
    evaluate_model,
    filtered_candidates,
    known_facts,
    rank_of,
)
from hcnet.hypergraph import HyperEdge, Query, Relation, build_graph
from hcnet.nn import (
    ModelConfig,
    decode_kary_batch,
    decode_unary_batch,
    hcnet_forward_batch,
    hrnet_forward_batch,
    init_params,
)
from hcnet.synth import hypercycle


def _set_walk(fact, t, node_count, all_facts):
    """The filter as first written, the reference for the mask: walk all V
    nodes and keep those whose substitution at t is not in the set of
    (relation, nodes) facts, and the true entity."""
    true = fact.nodes[t - 1]
    head, tail = fact.nodes[: t - 1], fact.nodes[t:]
    return [
        v for v in range(node_count)
        if v == true or (fact.relation, head + (v,) + tail) not in all_facts
    ]


class TestFilteredCandidates:
    GRAPH = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 3)

    def test_no_conflicts(self):
        fact = HyperEdge(0, (0, 1))
        out = filtered_candidates(fact, 2, 3, known_facts(self.GRAPH))
        assert out.tolist() == [0, 1, 2] == _set_walk(fact, 2, 3, {(0, (0, 1))})

    def test_competing_fact_excluded(self):
        fact = HyperEdge(0, (0, 1))
        known = {(0, (0, 1)), (0, (0, 2))}
        out = filtered_candidates(fact, 2, 3, known_facts(self.GRAPH, [HyperEdge(0, (0, 2))]))
        assert out.tolist() == [0, 1] == _set_walk(fact, 2, 3, known)

    def test_true_entity_always_included(self):
        fact = HyperEdge(0, (0, 1))
        known = known_facts(self.GRAPH, [HyperEdge(0, (0, v)) for v in range(3)])
        assert filtered_candidates(fact, 2, 3, known).tolist() == [1]


def _filter_instance(rng):
    """A graph of 2-6 nodes with relations of arity 1, 2, 3 and a random
    one; the last has no edge in the graph, only split facts. Some edges
    are repeated, and one split fact has the wrong arity for its relation
    (a set never matches it to a job; a table must not mix it in). Returns
    the graph, test facts (one per relation, two graph edges and two split
    facts) and split facts not in the graph."""
    n = int(rng.integers(2, 7))
    arities = (1, 2, 3, int(rng.integers(1, 5)))
    relations = [Relation(r, f"r{r}", k) for r, k in enumerate(arities)]

    def fact(rel):
        return HyperEdge(rel.id, tuple(int(v) for v in rng.integers(0, n, rel.arity)))

    edges = [fact(relations[int(rng.integers(0, 3))]) for _ in range(int(rng.integers(0, 4 * n)))]
    edges += edges[: int(rng.integers(0, len(edges) + 1))]
    g = build_graph(relations, edges, n)
    splits = [fact(relations[int(rng.integers(0, 4))]) for _ in range(int(rng.integers(0, 3 * n)))]
    splits += [fact(relations[3]), HyperEdge(0, tuple(int(v) for v in rng.integers(0, n, 2)))]
    test = [fact(rel) for rel in relations] + edges[:2] + splits[:2]
    return g, test, splits


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_filtered_candidates_equal_the_set_walk(seed):
    # The mask keeps exactly the nodes the walk kept, ascending, at every
    # position: unary relations (no other position), repeated edges, split
    # facts outside the graph, a relation known only from a split, a split
    # fact of the wrong arity, and a true entity whose own fact is known.
    g, test, splits = _filter_instance(np.random.default_rng(seed))
    known = known_facts(g, test + splits)
    all_facts = g.fact_set() | {(f.relation, f.nodes) for f in test + splits}
    for fact in test:
        for t in range(1, len(fact.nodes) + 1):
            got = filtered_candidates(fact, t, g.node_count, known)
            assert got.dtype == np.intp
            assert got.tolist() == _set_walk(fact, t, g.node_count, all_facts)


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

    @pytest.mark.parametrize("kind", ["hcnet", "hrnet"])
    def test_report_equals_recording_pass(self, kind, monkeypatch):
        # Evaluation runs its forwards on a non-recording tape; recording
        # them must not change a single bit of the report.
        g = hypercycle(12, 3)
        mode = "query-dependent" if kind == "hcnet" else "query-independent"
        params = init_params(g, ModelConfig(kind=kind, d=8, layers=2, mode=mode),
                             np.random.default_rng(3))
        test = [HyperEdge(0, (0, 6)), HyperEdge(0, (2, 9)), HyperEdge(0, (5, 7))]
        monkeypatch.setattr(evalrank, "BATCH_QUERIES", 4)
        lean = evaluate_model(g, test, params, kind).as_dict()
        for name in ("hcnet_forward_batch", "hrnet_forward_batch"):
            forward = getattr(evalrank, name)
            monkeypatch.setattr(evalrank, name,
                                lambda *a, _f=forward, **k: _f(*a, **{**k, "record": True}))
        assert evaluate_model(g, test, params, kind).as_dict() == lean

    def test_unknown_kind(self):
        g, params, test = self._setup()
        with pytest.raises(ConfigError):
            evaluate_model(g, test, params, "other")

    @pytest.mark.parametrize("kind", ["hcnet", "hrnet"])
    def test_kind_must_match_parameters(self, kind):
        g = hypercycle(8, 3)
        mode = "query-dependent" if kind == "hcnet" else "query-independent"
        params = init_params(g, ModelConfig(kind=kind, d=8, layers=2, mode=mode),
                             np.random.default_rng(0))
        other = "hrnet" if kind == "hcnet" else "hcnet"
        with pytest.raises(ConfigError):
            evaluate_model(g, [HyperEdge(0, (0, 4))], params, other)

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
        got = filtered_candidates(fact, 2, 8, known_facts(g, [fact, other]))
        assert got.tolist() == _set_walk(fact, 2, 8, union)
        assert len(got) == 7


def _reference_outcomes(graph, test_facts, params, kind, splits):
    """The two ranking paths that evaluate_model replaced, as a reference:
    hcnet reads a (Q, V) logit row per query in batches of 16; hrnet groups
    the queries by arity and decodes one tuple per filtered candidate.
    Outcomes come back in job order."""
    all_facts = graph.fact_set() | {(f.relation, f.nodes) for f in test_facts}
    for facts in splits.values():
        all_facts |= {(f.relation, f.nodes) for f in facts}
    jobs = []
    for fact in test_facts:
        for t in range(1, len(fact.nodes) + 1):
            cands = _set_walk(fact, t, graph.node_count, all_facts)
            given = fact.nodes[: t - 1] + fact.nodes[t:]
            jobs.append((Query(fact.relation, given, t), fact.nodes[t - 1], cands))

    scores = [None] * len(jobs)
    if kind == "hcnet":
        for start in range(0, len(jobs), 16):
            chunk = jobs[start : start + 16]
            trace = hcnet_forward_batch(graph, [q for q, _, _ in chunk], params, record=False)
            logits = decode_unary_batch(trace).value
            for row, (_, _, cands) in enumerate(chunk):
                scores[start + row] = logits[row, cands]
    else:
        trace = hrnet_forward_batch(graph, params, record=False)
        by_arity = {}
        for j, (query, _, _) in enumerate(jobs):
            by_arity.setdefault(len(query.given) + 1, []).append(j)
        for job_ids in by_arity.values():
            tuples, qrels, spans = [], [], []
            for j in job_ids:
                query, _, cands = jobs[j]
                lo = len(tuples)
                for v in cands:
                    full = list(query.given)
                    full.insert(query.target - 1, v)
                    tuples.append(full)
                    qrels.append(query.relation)
                spans.append((j, lo, len(tuples)))
            logits = decode_kary_batch(
                trace, np.asarray(tuples, dtype=np.intp), np.asarray(qrels, dtype=np.intp)
            ).value
            for j, lo, hi in spans:
                scores[j] = logits[lo:hi]
    return [
        RankingOutcome(query, true, rank_of(s, cands.index(true)), len(cands))
        for (query, true, cands), s in zip(jobs, scores)
    ]


def _mixed_arity_instance(seed):
    """A random graph with relations of arity 1, 2, 3, 2 and 4, its test
    facts (one per relation, four drawn at random, two train facts) and a
    valid split."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 14))
    relations = [Relation(r, f"r{r}", k) for r, k in enumerate((1, 2, 3, 2, 4))]

    def fact(rel):
        return HyperEdge(rel.id, tuple(int(v) for v in rng.integers(0, n, rel.arity)))

    def facts(count):
        return [fact(relations[int(rng.integers(0, len(relations)))]) for _ in range(count)]

    g = build_graph(relations, facts(3 * n), n)
    test = [fact(rel) for rel in relations] + facts(4) + g.edges[:2]
    return g, test, {"valid": facts(4)}


class TestAgainstPerKindPaths:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["hcnet", "hrnet"])
    def test_outcomes_equal_reference(self, kind, seed, monkeypatch):
        g, test, splits = _mixed_arity_instance(seed)
        mode = "query-dependent" if kind == "hcnet" else "query-independent"
        params = init_params(g, ModelConfig(kind=kind, d=8, layers=2, mode=mode),
                             np.random.default_rng(seed))
        captured = []
        real = evalrank.aggregate
        monkeypatch.setattr(evalrank, "aggregate",
                            lambda outs, graph=None: captured.extend(outs) or real(outs, graph))
        report = evaluate_model(g, test, params, kind, splits)
        expected = _reference_outcomes(g, test, params, kind, splits)
        assert len(expected) > 16 and {len(o.query.given) for o in expected} == {0, 1, 2, 3}
        assert captured == expected
        assert report.as_dict() == real(expected, g).as_dict()


def _two_arity_chunk():
    """hrnet on a graph of an arity-2 and an arity-3 relation, and a chunk
    of eight queries that alternate between them: on two threads, the
    calling thread decodes the arity-2 queries while the other decodes the
    arity-3 ones."""
    rng = np.random.default_rng(4)
    relations = [Relation(0, "r0", 2), Relation(1, "r1", 3)]
    edges = [HyperEdge(r.id, tuple(int(v) for v in rng.integers(0, 30, r.arity)))
             for r in relations for _ in range(40)]
    g = build_graph(relations, edges, 30)
    params = init_params(g, ModelConfig(kind="hrnet", d=8, layers=2, mode="query-independent"),
                         np.random.default_rng(5))
    queries = []
    for j in range(8):
        arity = 2 + j % 2
        given = tuple(int(v) for v in rng.integers(0, 30, arity - 1))
        queries.append(Query(j % 2, given, 1 + (j // 2) % arity))
    return g, params, queries


# evaluate_model's reports on `_mixed_arity_instance(0)` (d=8, L=2, seed 0),
# recorded while every decode ran on the calling thread.
_SERIAL_REPORTS = {
    "hcnet": ({"mrr": 0.343783498247784, "hits@1": 0.14285714285714285,
               "hits@3": 0.4642857142857143, "hits@10": 0.7142857142857143, "queries": 28},
              {1: 0.3333333333333333, 2: 0.26227272727272727, 3: 0.4856261022927689,
               4: 0.287405303030303}),
    "hrnet": ({"mrr": 0.2957921047206761, "hits@1": 0.14285714285714285, "hits@3": 0.25,
               "hits@10": 0.8571428571428571, "queries": 28},
              {1: 0.2, 2: 0.25615440115440113, 3: 0.2985890652557319, 4: 0.35416666666666663}),
}


def _cpus(mp, cpus):
    mp.setattr(os, "sched_getaffinity", lambda pid: cpus)


class TestScorerThreads:
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_hrnet_logits_equal_serial_decodes_bitwise(self, cpus, monkeypatch):
        g, params, queries = _two_arity_chunk()
        assert {len(q.given) + 1 for q in queries} == {2, 3}
        trace = hrnet_forward_batch(g, params, record=False)
        serial = []
        for q in queries:
            tuples = [list(q.given[: q.target - 1]) + [v] + list(q.given[q.target - 1 :])
                      for v in range(g.node_count)]
            serial.append(decode_kary_batch(trace, np.asarray(tuples, dtype=np.intp),
                                            np.full(g.node_count, q.relation, dtype=np.intp)).value)
        expected = np.stack(serial)
        _cpus(monkeypatch, cpus)
        before = threading.active_count()
        got = evalrank._scorer(g, params)(queries)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert threading.active_count() == before

    @pytest.mark.parametrize("kind", ["hcnet", "hrnet"])
    def test_reports_equal_the_serial_ones(self, kind, monkeypatch):
        # On one CPU and on two, in one block and in blocks of one query.
        g, test, splits = _mixed_arity_instance(0)
        mode = "query-dependent" if kind == "hcnet" else "query-independent"
        params = init_params(g, ModelConfig(kind=kind, d=8, layers=2, mode=mode),
                             np.random.default_rng(0))
        report, per_arity = _SERIAL_REPORTS[kind]
        for cpus in ({0}, {0, 1}):
            for budget in (ad.BLOCK_BYTES, 8):
                with monkeypatch.context() as mp:
                    _cpus(mp, cpus)
                    mp.setattr(ad, "BLOCK_BYTES", budget)
                    got = evaluate_model(g, test, params, kind, splits).as_dict()
                assert {k: got[k] for k in report} == report
                assert {k: v["mrr"] for k, v in got["per_arity"].items()} == per_arity

    def test_one_cpu_or_one_query_starts_no_thread(self, monkeypatch):
        g, params, queries = _two_arity_chunk()
        made = []
        real = ad._Pass
        monkeypatch.setattr(ad, "_Pass", lambda *a, **k: made.append(1) or real(*a, **k))
        score = evalrank._scorer(g, params)
        _cpus(monkeypatch, {0, 1})
        score(queries[:1])
        assert not made
        _cpus(monkeypatch, {0})
        score(queries)
        assert not made
        _cpus(monkeypatch, {0, 1})
        score(queries)
        assert len(made) == 1

    def test_a_failed_odd_query_is_raised_once(self, monkeypatch):
        # The other thread's first decode raises: the calling thread raises
        # that error once, with no thread left, and the next chunk scores.
        g, params, queries = _two_arity_chunk()
        _cpus(monkeypatch, {0, 1})
        caller, failed, decode = threading.current_thread(), [], evalrank.decode_kary_batch

        def failing(*args):
            if threading.current_thread() is not caller and not failed:
                failed.append(threading.current_thread())
                raise FloatingPointError("decode failed")
            return decode(*args)

        monkeypatch.setattr(evalrank, "decode_kary_batch", failing)
        score = evalrank._scorer(g, params)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="decode failed"):
            score(queries)
        assert len(failed) == 1 and threading.active_count() == before
        assert score(queries).shape == (8, g.node_count)
