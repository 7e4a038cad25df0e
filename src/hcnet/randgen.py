"""Seeded random instances: hypergraphs, knowledge graphs, queries, formulas.

Used by the property suites and tests; everything is a pure function of the
supplied generator.
"""

from __future__ import annotations

import numpy as np

from .hypergraph import HyperEdge, Query, Relation, RelationalHypergraph, build_graph
from .logic import (
    And,
    ColorAtom,
    ExistsGeq,
    Formula,
    LogicSignature,
    Not,
    guards_from_map,
)


def random_hypergraph(
    rng: np.random.Generator,
    max_nodes: int = 30,
    max_relations: int = 4,
    max_arity: int = 4,
    num_colors: int = 1,
) -> RelationalHypergraph:
    n = int(rng.integers(2, max_nodes + 1))
    num_rel = int(rng.integers(1, max_relations + 1))
    relations = [
        Relation(r, f"r{r}", int(rng.integers(1, max_arity + 1))) for r in range(num_rel)
    ]
    num_edges = int(rng.integers(1, 2 * n))
    edges = []
    for _ in range(num_edges):
        rel = relations[int(rng.integers(0, num_rel))]
        edges.append(HyperEdge(rel.id, tuple(int(x) for x in rng.integers(0, n, rel.arity))))
    colors = [int(c) for c in rng.integers(0, num_colors, n)]
    return build_graph(relations, edges, n, colors)


def random_knowledge_graph(
    rng: np.random.Generator,
    max_nodes: int = 15,
    max_relations: int = 3,
) -> RelationalHypergraph:
    """Random loop-free binary-relation graph: the pairwise-test equivalence
    relies on every incoming edge having an inverse, and inverses are only
    created for non-loop facts."""
    n = int(rng.integers(2, max_nodes + 1))
    num_rel = int(rng.integers(1, max_relations + 1))
    relations = [Relation(r, f"r{r}", 2) for r in range(num_rel)]
    num_edges = int(rng.integers(1, 3 * n))
    edges = []
    for a, b in rng.integers(0, n, (num_edges, 2)):
        if a == b:
            b = (b + 1) % n
        edges.append(HyperEdge(int(rng.integers(0, num_rel)), (int(a), int(b))))
    return build_graph(relations, edges, n)


def random_query(rng: np.random.Generator, graph: RelationalHypergraph) -> Query:
    rel = graph.relations[int(rng.integers(0, len(graph.relations)))]
    target = int(rng.integers(1, rel.arity + 1))
    given = tuple(int(x) for x in rng.integers(0, graph.node_count, rel.arity - 1))
    return Query(rel.id, given, target)


def random_hgml_r(
    rng: np.random.Generator,
    sig: LogicSignature,
    depth: int = 4,
    guard_prob: float = 0.7,
) -> Formula:
    """Random restricted formula of the given maximum modal/Boolean depth."""
    if depth <= 0 or rng.random() < 0.25:
        return ColorAtom(sig.colors[int(rng.integers(0, len(sig.colors)))])
    kind = rng.random()
    if kind < 0.3:
        return Not(random_hgml_r(rng, sig, depth - 1, guard_prob))
    if kind < 0.55:
        return And(
            random_hgml_r(rng, sig, depth - 1, guard_prob),
            random_hgml_r(rng, sig, depth - 1, guard_prob),
        )
    name, arity = sig.relations[int(rng.integers(0, len(sig.relations)))]
    own = int(rng.integers(1, arity + 1))
    guards = {
        j: random_hgml_r(rng, sig, depth - 1, guard_prob)
        for j in range(1, arity + 1)
        if j != own and rng.random() < guard_prob
    }
    count = int(rng.integers(1, 4))
    return ExistsGeq(count, name, own, guards_from_map(guards))
