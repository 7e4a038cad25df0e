"""Filtered-ranking evaluation: MRR and Hits@k over all arity positions.

For each test fact and each position t, the candidate set is every node
whose substitution at t does not form a known fact (train + valid + test),
plus the true entity. One conditional forward pass scores all candidates
of a query simultaneously. Ties are broken by the mean of the optimistic
and pessimistic rank, so a constant scorer cannot inflate the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyOutcomes, NaNScore
from .hypergraph import HyperEdge, Query, RelationalHypergraph
from .nn import (
    MODEL_KINDS,
    ModelParams,
    decode_kary_batch,
    decode_unary_batch,
    hcnet_forward_batch,
    hrnet_forward_batch,
)


@dataclass
class RankingOutcome:
    query: Query
    true_node: int
    rank: float
    candidates: int


@dataclass
class MetricsReport:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    count: int
    per_arity: dict[int, "MetricsReport"] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "mrr": self.mrr,
            "hits@1": self.hits1,
            "hits@3": self.hits3,
            "hits@10": self.hits10,
            "queries": self.count,
        }
        if self.per_arity:
            out["per_arity"] = {k: v.as_dict() for k, v in sorted(self.per_arity.items())}
        return out


def filtered_candidates(
    fact: HyperEdge,
    t: int,
    node_count: int,
    all_facts: set[tuple[int, tuple[int, ...]]],
) -> list[int]:
    """Nodes whose substitution at t is unknown, plus the true entity."""
    true = fact.nodes[t - 1]
    head, tail = fact.nodes[: t - 1], fact.nodes[t:]
    return [
        v for v in range(node_count)
        if v == true or (fact.relation, head + (v,) + tail) not in all_facts
    ]


def rank_of(scores: np.ndarray, true_idx: int) -> float:
    """1 + #{strictly better} + #{other ties}/2 (mean tie policy)."""
    scores = np.asarray(scores, dtype=float)
    if np.isnan(scores).any():
        raise NaNScore("NaN in candidate scores")
    s = scores[true_idx]
    better = int(np.sum(scores > s))
    ties = int(np.sum(scores == s)) - 1
    return 1.0 + better + ties / 2.0


def aggregate(outcomes: list[RankingOutcome], graph: RelationalHypergraph | None = None) -> MetricsReport:
    if not outcomes:
        raise EmptyOutcomes("no ranking outcomes")

    def summarize(subset: list[RankingOutcome]) -> MetricsReport:
        ranks = np.asarray([o.rank for o in subset])
        return MetricsReport(
            mrr=float(np.mean(1.0 / ranks)),
            hits1=float(np.mean(ranks <= 1)),
            hits3=float(np.mean(ranks <= 3)),
            hits10=float(np.mean(ranks <= 10)),
            count=len(subset),
        )

    report = summarize(outcomes)
    if graph is not None:
        by_arity: dict[int, list[RankingOutcome]] = {}
        for o in outcomes:
            k = graph.relations[o.query.relation].arity
            by_arity.setdefault(k, []).append(o)
        report.per_arity = {k: summarize(v) for k, v in sorted(by_arity.items())}
    return report


def evaluate_model(
    graph: RelationalHypergraph,
    test_facts: list[HyperEdge],
    params: ModelParams,
    model_kind: str = "hcnet",
    splits: dict[str, list[HyperEdge]] | None = None,
    max_negatives: int | None = None,
    seed: int = 0,
    batch_queries: int = 16,
) -> MetricsReport:
    """Rank the true entity of every (fact, position) query.

    `max_negatives` caps the candidate pool (sampled without the truth) for
    parity with negative-sample-limited protocols; default ranks against
    every filtered candidate.
    """
    if model_kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {model_kind!r}")
    all_facts: set[tuple[int, tuple[int, ...]]] = graph.fact_set()
    for facts in (splits or {}).values():
        all_facts |= {(f.relation, f.nodes) for f in facts}
    for f in test_facts:
        all_facts.add((f.relation, f.nodes))
    rng = np.random.default_rng(seed)

    jobs: list[tuple[Query, int, list[int]]] = []
    for fact in test_facts:
        arity = len(fact.nodes)
        for t in range(1, arity + 1):
            cands = filtered_candidates(fact, t, graph.node_count, all_facts)
            true = fact.nodes[t - 1]
            if max_negatives is not None and len(cands) - 1 > max_negatives:
                others = [v for v in cands if v != true]
                pick = rng.choice(len(others), size=max_negatives, replace=False)
                cands = [true] + [others[i] for i in pick]
            given = fact.nodes[: t - 1] + fact.nodes[t:]
            jobs.append((Query(fact.relation, given, t), true, cands))

    outcomes: list[RankingOutcome] = []
    if model_kind == "hcnet":
        for start in range(0, len(jobs), batch_queries):
            chunk = jobs[start : start + batch_queries]
            trace = hcnet_forward_batch(graph, [q for q, _, _ in chunk], params, record=False)
            logits = decode_unary_batch(trace).value
            for row, (query, true, cands) in enumerate(chunk):
                scores = logits[row, cands]
                outcomes.append(
                    RankingOutcome(query, true, rank_of(scores, cands.index(true)), len(cands))
                )
    else:
        trace = hrnet_forward_batch(graph, params, record=False)
        by_arity: dict[int, list[int]] = {}
        for j, (query, _, cands) in enumerate(jobs):
            by_arity.setdefault(len(query.given) + 1, []).append(j)
        for arity, job_ids in by_arity.items():
            tuples, qrels, spans = [], [], []
            for j in job_ids:
                query, true, cands = jobs[j]
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
                query, true, cands = jobs[j]
                scores = logits[lo:hi]
                outcomes.append(
                    RankingOutcome(query, true, rank_of(scores, cands.index(true)), len(cands))
                )
    return aggregate(outcomes, graph)
