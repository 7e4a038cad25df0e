"""Relational hypergraphs: ordered typed hyperedges, incidence indexing, I/O.

A relational hypergraph is a set of nodes plus a list of facts r(u1,...,uk)
where r is a relation of fixed arity k. Node ids are dense 0-based ints;
positions inside an edge are 1-based, matching the e(i) notation used
throughout. Duplicate facts are kept as distinct edges (multigraph
semantics): the incidence structure E(v) aggregates multisets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import (
    ArityMismatch,
    InconsistentArity,
    NodeOutOfRange,
    NotABijection,
    ParseError,
    PositionOutOfRange,
    QueryArityMismatch,
)


@dataclass(frozen=True)
class Relation:
    id: int
    name: str
    arity: int


@dataclass(frozen=True)
class HyperEdge:
    relation: int
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class Query:
    """One open slot of a k-ary fact: relation q, given nodes u~, target t.

    `given` lists the k-1 known nodes in position order, skipping the target
    position: given[j] sits at the j-th element of [1..k] minus {t}.
    """

    relation: int
    given: tuple[int, ...]
    target: int

    def given_positions(self, arity: int) -> tuple[int, ...]:
        """Positions 1..arity without the target; QueryArityMismatch unless
        the query gives arity - 1 nodes and its target lies in 1..arity."""
        if len(self.given) != arity - 1:
            raise QueryArityMismatch(f"query gives {len(self.given)} nodes for arity {arity}")
        if not (1 <= self.target <= arity):
            raise QueryArityMismatch(f"target position {self.target} outside 1..{arity}")
        return tuple(i for i in range(1, arity + 1) if i != self.target)


@dataclass
class RelationalHypergraph:
    node_count: int
    relations: list[Relation]
    edges: list[HyperEdge]
    node_color: list[int]
    incidence_index: list[list[tuple[int, int]]]
    node_names: list[str] | None = None
    color_names: list[str] | None = field(default=None)

    @property
    def max_arity(self) -> int:
        return max((r.arity for r in self.relations), default=1)

    def fact_set(self) -> set[tuple[int, tuple[int, ...]]]:
        return {(ed.relation, ed.nodes) for ed in self.edges}


def build_graph(
    relations: list[Relation],
    edges: list[HyperEdge],
    node_count: int,
    colors: list[int] | None = None,
) -> RelationalHypergraph:
    """Construct a graph and its incidence index E(v).

    incidence[v] holds every (edge id, 1-based position) pair with e(i)=v,
    ordered by (edge id, position).
    """
    by_id = {r.id: r for r in relations}
    if sorted(by_id) != list(range(len(relations))):
        raise ArityMismatch("relation ids must be contiguous 0..|R|-1")
    for e, ed in enumerate(edges):
        rel = by_id.get(ed.relation)
        if rel is None:
            raise ArityMismatch(f"edge {e}: unknown relation id {ed.relation}")
        if len(ed.nodes) != rel.arity:
            raise ArityMismatch(
                f"edge {e}: {len(ed.nodes)} nodes under {rel.arity}-ary relation {rel.name}"
            )
        for pos, v in enumerate(ed.nodes, start=1):
            if not (0 <= v < node_count):
                raise NodeOutOfRange(f"edge {e}, position {pos}: node {v}")
    if colors is None:
        colors = [0] * node_count
    if len(colors) != node_count:
        raise NodeOutOfRange("color list length != node count")

    inc: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
    for e, ed in enumerate(edges):
        for pos, v in enumerate(ed.nodes, start=1):
            inc[v].append((e, pos))
    return RelationalHypergraph(node_count, list(relations), list(edges), list(colors), inc)


def incidence(graph: RelationalHypergraph, v: int) -> list[tuple[int, int]]:
    """E(v): all (edge id, position) pairs where v occurs."""
    if not (0 <= v < graph.node_count):
        raise NodeOutOfRange(f"node {v}")
    return graph.incidence_index[v]


def positional_neighborhood(graph: RelationalHypergraph, e: int, i: int) -> list[tuple[int, int]]:
    """N_i(e) = {(e(j), j) : j != i}, sorted by j."""
    ed = graph.edges[e]
    if not (1 <= i <= len(ed.nodes)):
        raise PositionOutOfRange(f"position {i} in arity-{len(ed.nodes)} edge {e}")
    return [(w, j) for j, w in enumerate(ed.nodes, start=1) if j != i]


def apply_permutation(graph: RelationalHypergraph, perm: list[int]) -> RelationalHypergraph:
    """Image of the graph under a node permutation (edge order preserved)."""
    if sorted(perm) != list(range(graph.node_count)):
        raise NotABijection("perm is not a bijection on node ids")
    edges = [HyperEdge(ed.relation, tuple(perm[v] for v in ed.nodes)) for ed in graph.edges]
    colors = [0] * graph.node_count
    for v in range(graph.node_count):
        colors[perm[v]] = graph.node_color[v]
    g = build_graph(graph.relations, edges, graph.node_count, colors)
    g.color_names = graph.color_names
    return g


# ---------------------------------------------------------------------------
# Text format I/O.
#
# Each split file holds lines `relation_name<TAB>node_name(<TAB>node_name)*`,
# UTF-8, LF; `#`-prefixed lines are comments. Optional entities.dict /
# relations.dict (`id<TAB>name`) pin id assignment; otherwise ids follow
# first-appearance order over train -> valid -> test.
# ---------------------------------------------------------------------------

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


def _parse_fact_file(path: str) -> list[tuple[str, tuple[str, ...]]]:
    facts = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ParseError(f"{path}:{lineno}: expected relation and at least one node")
            facts.append((parts[0], tuple(parts[1:])))
    return facts


def _read_dict(path: str) -> dict[str, int]:
    """Name -> id from `id<TAB>name` lines; ParseError unless each name is
    listed once and the ids are exactly 0..n-1, before anything is sized."""
    mapping: dict[str, int] = {}
    taken: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected `id<TAB>name`")
            if not parts[0].isdecimal():
                raise ParseError(f"{path}:{lineno}: id {parts[0]!r} is not a non-negative integer")
            ident = int(parts[0])
            if ident in taken:
                raise ParseError(f"{path}:{lineno}: id {ident} is already taken")
            if parts[1] in mapping:
                raise ParseError(f"{path}:{lineno}: name {parts[1]!r} is already listed")
            taken.add(ident)
            mapping[parts[1]] = ident
    if taken and max(taken) >= len(taken):
        missing = min(set(range(len(taken))) - taken)
        raise ParseError(f"{path}: ids must be 0..{len(taken) - 1}, but {missing} is missing")
    return mapping


def load_dataset(
    directory: str,
) -> tuple[RelationalHypergraph, list[HyperEdge], list[HyperEdge], list[HyperEdge]]:
    """Load train/valid/test splits; the graph is built from train facts.

    The node and relation vocabularies are the unions over all splits, so
    query-only relations and unseen-split entities still receive ids.
    """
    split_facts = []
    for name in SPLIT_FILES:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            split_facts.append(_parse_fact_file(path))
        elif name == "train.txt":
            raise ParseError(f"missing {path}")
        else:
            split_facts.append([])

    ent_path = os.path.join(directory, "entities.dict")
    rel_path = os.path.join(directory, "relations.dict")
    ent_ids = _read_dict(ent_path) if os.path.exists(ent_path) else {}
    rel_ids = _read_dict(rel_path) if os.path.exists(rel_path) else {}
    pinned_entities, pinned_relations = bool(ent_ids), bool(rel_ids)

    rel_arity: dict[str, int] = {}
    for facts in split_facts:
        for rel_name, node_names in facts:
            k = len(node_names)
            if rel_name in rel_arity and rel_arity[rel_name] != k:
                raise InconsistentArity(
                    f"relation {rel_name}: arity {rel_arity[rel_name]} vs {k}"
                )
            rel_arity[rel_name] = k
            if not pinned_relations and rel_name not in rel_ids:
                rel_ids[rel_name] = len(rel_ids)
            for nm in node_names:
                if not pinned_entities and nm not in ent_ids:
                    ent_ids[nm] = len(ent_ids)

    for rel_name in rel_arity:
        if rel_name not in rel_ids:
            raise ParseError(f"relation {rel_name} missing from relations.dict")
    for facts in split_facts:
        for _, node_names in facts:
            for nm in node_names:
                if nm not in ent_ids:
                    raise ParseError(f"entity {nm} missing from entities.dict")

    relations = [
        Relation(rid, name, rel_arity.get(name, 2))
        for name, rid in sorted(rel_ids.items(), key=lambda kv: kv[1])
    ]
    node_count = max(ent_ids.values()) + 1 if ent_ids else 0
    node_names = [""] * node_count
    for nm, nid in ent_ids.items():
        node_names[nid] = nm

    def to_edges(facts: list[tuple[str, tuple[str, ...]]]) -> list[HyperEdge]:
        return [
            HyperEdge(rel_ids[rn], tuple(ent_ids[nm] for nm in nn)) for rn, nn in facts
        ]

    train, valid, test = (to_edges(f) for f in split_facts)
    graph = build_graph(relations, train, node_count)
    graph.node_names = node_names
    return graph, train, valid, test


def save_dataset(
    directory: str,
    graph: RelationalHypergraph,
    splits: dict[str, list[HyperEdge]],
) -> None:
    """Write splits plus pinning dictionaries in the text format."""
    os.makedirs(directory, exist_ok=True)
    names = graph.node_names or [str(v) for v in range(graph.node_count)]
    with open(os.path.join(directory, "entities.dict"), "w", encoding="utf-8") as fh:
        for v, nm in enumerate(names):
            fh.write(f"{v}\t{nm}\n")
    with open(os.path.join(directory, "relations.dict"), "w", encoding="utf-8") as fh:
        for r in graph.relations:
            fh.write(f"{r.id}\t{r.name}\n")
    for split, edges in splits.items():
        with open(os.path.join(directory, f"{split}.txt"), "w", encoding="utf-8") as fh:
            for ed in edges:
                rel = graph.relations[ed.relation]
                fh.write("\t".join([rel.name, *(names[v] for v in ed.nodes)]) + "\n")
