"""Filtered-ranking evaluation: MRR and Hits@k over all arity positions.

For each test fact and each position t, the candidate set is every node
whose substitution at t does not form a known fact (train + valid + test),
plus the true entity. It is one boolean mask over the V nodes: the known
facts are one node table per relation (`known_facts`), the graph's edge
table (`relation_edges`) plus the split facts, and each known fact that
agrees with the test fact off t clears its node at t. Both model kinds
score every node at a query's target in one ranking loop: hcnet by a
conditional forward per batch of queries, hrnet by decoding V tuples per
query from one query-agnostic forward. hrnet's decodes of a batch run
alternately on the calling thread and one more (`autodiff.run_blocks`):
each query's decode is its own (V, n) product on a tape that records
nothing, so its logits are the serial decode's bits. Ties take the mean
of the optimistic and pessimistic rank, so a constant scorer cannot
inflate the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .autodiff import run_blocks
from .errors import ConfigError, EmptyOutcomes, NaNScore
from .hypergraph import HyperEdge, Query, RelationalHypergraph, matching_rows
from .nn import Array, ModelParams, decode_kary_batch, decode_unary_batch
from .nn import hcnet_forward_batch, hrnet_forward_batch

BATCH_QUERIES = 16  # queries scored per call of a model's scoring function


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


def known_facts(
    graph: RelationalHypergraph, facts: Iterable[HyperEdge] = ()
) -> dict[tuple[int, int], np.ndarray]:
    """The graph's edges plus `facts` as one (N, k) np.intp node table per
    (relation, arity k): the graph's `relation_edges` rows, then the other
    facts' rows. Duplicates are kept; a mask does not count them."""
    extra: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for f in facts:
        extra.setdefault((f.relation, len(f.nodes)), []).append(f.nodes)
    tables = {(r, nodes.shape[1]): nodes for r, (_, nodes) in graph.relation_edges.items()}
    for key, rows in extra.items():
        more = np.asarray(rows, dtype=np.intp)
        tables[key] = np.concatenate([tables[key], more]) if key in tables else more
    return tables


def filtered_candidates(
    fact: HyperEdge,
    t: int,
    node_count: int,
    known: dict[tuple[int, int], np.ndarray],
) -> np.ndarray:
    """Nodes, ascending, whose substitution at t forms no fact of `known`
    (`known_facts`), plus the true entity: a mask over the V nodes from which
    every known fact agreeing with `fact` off t clears its node at t."""
    mask = np.ones(node_count, dtype=bool)
    rows = known.get((fact.relation, len(fact.nodes)))
    if rows is not None:
        others = [i for i in range(len(fact.nodes)) if i != t - 1]
        agree = matching_rows(rows, [fact.nodes[i] for i in others], others)
        mask[rows[agree, t - 1]] = False
    mask[fact.nodes[t - 1]] = True
    return np.flatnonzero(mask)


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


def _scorer(graph: RelationalHypergraph, params: ModelParams) -> Callable[[list[Query]], Array]:
    """Logits (Q, V) for a list of queries: one per node at each query's
    target. hrnet decodes the queries alternately on two threads, each
    into its row."""
    if params.config.kind == "hcnet":
        return lambda queries: decode_unary_batch(
            hcnet_forward_batch(graph, queries, params, record=False)
        ).value
    trace = hrnet_forward_batch(graph, params, record=False)  # serves every query
    V = graph.node_count

    def score(queries: list[Query]) -> Array:
        out = np.empty((len(queries), V))

        def decode(j: int, _) -> None:
            q = queries[j]
            given = np.broadcast_to(np.asarray(q.given, dtype=np.intp), (V, len(q.given)))
            tuples = np.insert(given, q.target - 1, np.arange(V), axis=1)
            out[j] = decode_kary_batch(trace, tuples, np.full(V, q.relation, dtype=np.intp)).value

        run_blocks(decode, len(queries))
        return out

    return score


def evaluate_model(
    graph: RelationalHypergraph,
    test_facts: list[HyperEdge],
    params: ModelParams,
    model_kind: str = "hcnet",
    splits: dict[str, list[HyperEdge]] | None = None,
) -> MetricsReport:
    """Rank the true entity of every (fact, position) query. ConfigError if
    the parameters are not of `model_kind` or lack a relation, arity or decoder."""
    if model_kind != params.config.kind:
        raise ConfigError(f"model kind {model_kind!r}, parameters of kind {params.config.kind!r}")
    if len(graph.relations) > params.num_relations or graph.max_arity > params.max_arity:
        raise ConfigError(f"model of {params.num_relations} relations, arity <= {params.max_arity}")
    if model_kind == "hrnet" and {len(f.nodes) for f in test_facts} - set(params.decoder_arities):
        raise ConfigError(f"a test fact's arity has no decoder in {params.decoder_arities}")
    known = known_facts(graph, chain(test_facts, *(splits or {}).values()))

    jobs: list[tuple[Query, int, np.ndarray]] = []
    for fact in test_facts:
        for t in range(1, len(fact.nodes) + 1):
            given = fact.nodes[: t - 1] + fact.nodes[t:]
            cands = filtered_candidates(fact, t, graph.node_count, known)
            jobs.append((Query(fact.relation, given, t), fact.nodes[t - 1], cands))

    score = _scorer(graph, params)
    outcomes: list[RankingOutcome] = []
    for start in range(0, len(jobs), BATCH_QUERIES):
        chunk = jobs[start : start + BATCH_QUERIES]
        logits = score([q for q, _, _ in chunk])
        for row, (query, true, cands) in enumerate(chunk):
            rank = rank_of(logits[row, cands], int(np.searchsorted(cands, true)))
            outcomes.append(RankingOutcome(query, true, rank, len(cands)))
    return aggregate(outcomes, graph)
