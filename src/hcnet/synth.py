"""HyperCycle generator and the expressiveness experiment harness.

A HyperCycle(n, k) has nodes x_0..x_{n-1} and one arity-k edge per start
index i covering x_{(i+j) mod n}, j = 0..k-1, with relation r1 for even i
and r2 for odd i. The binary relation r0 never appears as an edge; the
task is to classify r0(x_i, x_{(i+n/2) mod n}) as true and
r0(x_i, x_{(i+2) mod n}) as false. Rotation by 2 is an automorphism, so
any query-agnostic encoder gives both pairs of a source identical scores;
a conditional encoder separates them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidSpec
from .hypergraph import (
    HyperEdge,
    Query,
    Relation,
    RelationalHypergraph,
    build_graph,
    save_dataset,
)
from .nn import (
    ModelParams,
    decode_kary_batch,
    decode_unary_batch,
    hcnet_forward_batch,
    hrnet_forward_batch,
    init_params,
)
from .train import AdamState, TrainConfig, train_step


def hypercycle(n: int, k: int) -> RelationalHypergraph:
    if n < 8 or n % 4 != 0 or not (3 <= k < n):
        raise InvalidSpec(f"need n >= 8, n % 4 == 0, 3 <= k < n; got n={n}, k={k}")
    relations = [Relation(0, "r0", 2), Relation(1, "r1", k), Relation(2, "r2", k)]
    edges = [
        HyperEdge(1 if i % 2 == 0 else 2, tuple((i + j) % n for j in range(k)))
        for i in range(n)
    ]
    g = build_graph(relations, edges, n)
    g.node_names = [f"x{v}" for v in range(n)]
    return g


def opposite_queries(n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(positive, negative) node pairs under r0 for a HyperCycle of size n."""
    positives = [(i, (i + n // 2) % n) for i in range(n)]
    negatives = [(i, (i + 2) % n) for i in range(n)]
    return positives, negatives


def hypercycle_suite(
    ns: tuple[int, ...] = (8, 12, 16, 20),
    ks: tuple[int, ...] = (3, 4, 5, 6, 7),
    ratio: float = 0.7,
    seed: int = 0,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Seeded split of the (n, k) grid into train/test graph specs."""
    if not (0.0 < ratio <= 1.0):
        raise InvalidSpec(f"ratio {ratio}")
    specs = [(n, k) for n in ns for k in ks if k < n]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(specs))
    cut = int(round(ratio * len(specs)))
    train = [specs[i] for i in order[:cut]]
    test = [specs[i] for i in order[cut:]]
    return train, test


def write_hypercycle_dataset(
    out_dir: str,
    ns: tuple[int, ...] = (8, 12, 16, 20),
    ks: tuple[int, ...] = (3, 4, 5, 6, 7),
    ratio: float = 0.7,
    seed: int = 0,
) -> None:
    """One directory per graph under out/<split>/: structural edges in
    train.txt, positive r0 queries in the split's file, negatives in
    negatives.txt."""
    train_specs, test_specs = hypercycle_suite(ns, ks, ratio, seed)
    for split, specs in (("train", train_specs), ("test", test_specs)):
        for n, k in specs:
            g = hypercycle(n, k)
            pos, neg = opposite_queries(n)
            pos_edges = [HyperEdge(0, p) for p in pos]
            directory = os.path.join(out_dir, split, f"hypercycle_n{n}_k{k}")
            if split == "train":
                splits = {"train": g.edges + pos_edges}
            else:
                splits = {"train": list(g.edges), "test": pos_edges}
            splits["negatives"] = [HyperEdge(0, p) for p in neg]
            save_dataset(directory, g, splits)


# --- experiment harness ----------------------------------------------------


@dataclass
class ExperimentResult:
    model: str
    seed: int
    accuracy: float
    train_accuracy: float
    losses: list[float]


def _graph_batch(n: int) -> tuple[list[Query], np.ndarray, np.ndarray]:
    pos, neg = opposite_queries(n)
    queries = [Query(0, (i,), 2) for i in range(n)]
    pos_tails = np.asarray([p[1] for p in pos], dtype=np.intp)
    neg_tails = np.asarray([p[1] for p in neg], dtype=np.intp)
    return queries, pos_tails, neg_tails


def _pair_logits(
    graph: RelationalHypergraph,
    params: ModelParams,
    pos_tails: np.ndarray,
    neg_tails: np.ndarray,
    queries: list[Query],
    record: bool,
):
    """(trace, positive logits (n,), negative logits (n, 1)) for one
    graph's queries: one negative per query. With record=False the pass
    records nothing, so it cannot be differentiated."""
    n = graph.node_count
    rows = np.arange(n, dtype=np.intp)
    if params.config.kind == "hcnet":
        trace = hcnet_forward_batch(graph, queries, params, record=record)
        logits = decode_unary_batch(trace)
        tape = trace.tape
        pos = ad.gather_2d(tape, logits, rows, pos_tails)
        neg = ad.gather_2d(tape, logits, rows[:, None], neg_tails[:, None])
    else:
        trace = hrnet_forward_batch(graph, params, record=record)
        tape = trace.tape
        qrel = np.zeros(n, dtype=np.intp)
        pos = decode_kary_batch(trace, np.stack([rows, pos_tails], axis=1), qrel)
        neg = decode_kary_batch(trace, np.stack([rows, neg_tails], axis=1), qrel)
        neg = ad.reshape(tape, neg, (n, 1))
    return trace, pos, neg


def _accuracy(pos_logits: np.ndarray, neg_logits: np.ndarray) -> float:
    """Threshold classification: positives need p > 0.5, negatives p <= 0.5."""
    correct = int(np.sum(pos_logits > 0.0)) + int(np.sum(neg_logits <= 0.0))
    return correct / (pos_logits.size + neg_logits.size)


def run_expressiveness_experiment(
    model: str = "hcnet",
    config: TrainConfig | None = None,
    seed: int = 0,
    ns: tuple[int, ...] = (8, 12, 16, 20),
    ks: tuple[int, ...] = (3, 4, 5, 6, 7),
    ratio: float = 0.7,
    split_seed: int = 0,
) -> ExperimentResult:
    """Train on 70% of the (n, k) grid, report held-out accuracy."""
    config = config or TrainConfig()
    train_specs, test_specs = hypercycle_suite(ns, ks, ratio, split_seed)
    rng = np.random.default_rng(seed)

    max_k = max(ks)
    ref = hypercycle(max(ns), max_k)
    params = init_params(ref, config.model_config(model), rng)
    state = AdamState()

    graphs = {spec: hypercycle(*spec) for spec in train_specs + test_specs}
    batches = {spec: _graph_batch(spec[0]) for spec in graphs}

    losses = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        order = rng.permutation(len(train_specs))
        for gi in order:
            spec = train_specs[gi]
            queries, pos_tails, neg_tails = batches[spec]
            trace, pos, neg = _pair_logits(
                graphs[spec], params, pos_tails, neg_tails, queries, record=True
            )
            epoch_loss += train_step(params, state, trace, pos, neg, config)
        losses.append(epoch_loss / max(len(train_specs), 1))

    def score(specs: list[tuple[int, int]]) -> float:
        hits, total = 0.0, 0
        for spec in specs:
            queries, pos_tails, neg_tails = batches[spec]
            _, pos, neg = _pair_logits(
                graphs[spec], params, pos_tails, neg_tails, queries, record=False
            )
            hits += _accuracy(pos.value, neg.value) * 2 * spec[0]
            total += 2 * spec[0]
        return hits / total if total else float("nan")

    return ExperimentResult(model, seed, score(test_specs), score(train_specs), losses)
