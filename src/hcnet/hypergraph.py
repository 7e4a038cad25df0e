"""Relational hypergraphs: ordered typed hyperedges, their indexes, I/O.

A relational hypergraph is a set of nodes plus a list of facts r(u1,...,uk)
where r is a relation of fixed arity k. Node ids are dense 0-based ints;
positions inside an edge are 1-based, matching the e(i) notation used
throughout. Duplicate facts are kept as distinct edges (multigraph
semantics): the incidence structure E(v) aggregates multisets. A graph
holds only its facts, fixed once built; its one index, each relation's
edge table (`relation_edges`), is built on first use and kept on the graph.
`matching_rows` asks a node table which of its facts agree with a given
one on a set of positions. `build_graph` is the one place that decides
what a graph is: relation i of its list has id i, a name no other relation
has and an arity of at least 1, and every edge fits its relation and the
node count. Every reader relies on this and checks none of it again.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

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
    node_names: list[str] | None = None
    # The index, built on first read into a plain field: a cached_property
    # writes into __dict__, after which every attribute read on the graph
    # took 1.8x as long (CPython 3.11).
    _relation_edges: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def max_arity(self) -> int:
        return max((r.arity for r in self.relations), default=1)

    @property
    def relation_edges(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Each relation's edge ids (E_r,) and node ids (E_r, k) as read-only
        np.intp arrays, in edge order; relations in order of first appearance."""
        if self._relation_edges is None:
            by_relation: dict[int, list[int]] = {}
            for e, ed in enumerate(self.edges):
                by_relation.setdefault(ed.relation, []).append(e)
            table = {r: (np.asarray(ids, dtype=np.intp),
                         np.asarray([self.edges[e].nodes for e in ids], dtype=np.intp))
                     for r, ids in by_relation.items()}
            for arrays in table.values():
                for a in arrays:
                    a.flags.writeable = False
            self._relation_edges = table
        return self._relation_edges

    def fact_set(self) -> set[tuple[int, tuple[int, ...]]]:
        return {(ed.relation, ed.nodes) for ed in self.edges}


def matching_rows(table: np.ndarray, values, columns=slice(None)) -> np.ndarray:
    """(N,) bool: the rows of an (N, k) node table that hold `values` at
    `columns` (any NumPy index of the k columns; all of them by default)."""
    return (table[:, columns] == values).all(axis=1)


def build_graph(
    relations: list[Relation],
    edges: list[HyperEdge],
    node_count: int,
    colors: list[int] | None = None,
) -> RelationalHypergraph:
    """Check the facts and store them as a graph (its edge table is built when read).

    ArityMismatch unless relation i of the list has id i, a name no other
    relation has, and an arity of at least 1, and unless each edge names a
    listed relation and has its arity; NodeOutOfRange unless every node and
    the color list fit `node_count`."""
    names: set[str] = set()
    for i, r in enumerate(relations):
        if r.id != i:
            raise ArityMismatch(f"relation {r.name!r} has id {r.id} at index {i}: "
                                "relation ids must be 0..|R|-1 in list order")
        if r.name in names:
            raise ArityMismatch(f"relation {r.name!r} is listed twice")
        if r.arity < 1:
            raise ArityMismatch(f"relation {r.name!r} has arity {r.arity}; it must be at least 1")
        names.add(r.name)
    for e, ed in enumerate(edges):
        if not 0 <= ed.relation < len(relations):
            raise ArityMismatch(f"edge {e}: unknown relation id {ed.relation}")
        rel = relations[ed.relation]
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
    return RelationalHypergraph(node_count, list(relations), list(edges), list(colors))


def incidence(graph: RelationalHypergraph, v: int) -> list[tuple[int, int]]:
    """E(v): all (edge id, position) pairs where v occurs, in that order."""
    if not (0 <= v < graph.node_count):
        raise NodeOutOfRange(f"node {v}")
    return [(e, i) for e, ed in enumerate(graph.edges) for i, w in enumerate(ed.nodes, 1) if w == v]


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
    return build_graph(graph.relations, edges, graph.node_count, colors)


# ---------------------------------------------------------------------------
# Text format I/O.
#
# Each split file holds lines `relation_name<TAB>node_name(<TAB>node_name)*`,
# UTF-8, LF; `#`-prefixed lines are comments; names are non-empty. Optional
# entities.dict / relations.dict (`id<TAB>name`) pin id assignment; otherwise
# ids follow first-appearance order over train -> valid -> test.
# ---------------------------------------------------------------------------

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


def _records(path: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, TAB-separated fields) of each line that is neither
    blank nor a `#` comment."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line and not line.startswith("#"):
                yield lineno, line.split("\t")


def _read_dict(path: str) -> dict[str, int]:
    """Name -> id from `id<TAB>name` lines, in id order; ParseError unless
    each name is non-empty and listed once and the ids are exactly 0..n-1,
    before anything is sized."""
    mapping: dict[str, int] = {}
    taken: set[int] = set()
    for lineno, parts in _records(path):
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected `id<TAB>name`")
        if not parts[0].isdecimal():
            raise ParseError(f"{path}:{lineno}: id {parts[0]!r} is not a non-negative integer")
        ident = int(parts[0])
        if ident in taken:
            raise ParseError(f"{path}:{lineno}: id {ident} is already taken")
        if not parts[1]:
            raise ParseError(f"{path}:{lineno}: empty name")
        if parts[1] in mapping:
            raise ParseError(f"{path}:{lineno}: name {parts[1]!r} is already listed")
        taken.add(ident)
        mapping[parts[1]] = ident
    if taken and max(taken) >= len(taken):
        missing = min(set(range(len(taken))) - taken)
        raise ParseError(f"{path}: ids must be 0..{len(taken) - 1}, but {missing} is missing")
    return dict(sorted(mapping.items(), key=lambda kv: kv[1]))


def load_dataset(
    directory: str,
) -> tuple[RelationalHypergraph, list[HyperEdge], list[HyperEdge], list[HyperEdge]]:
    """Load train/valid/test splits; the graph is built from train facts.

    The node and relation vocabularies are the unions over all splits, so
    query-only relations and unseen-split entities still receive ids. The
    facts are read in one pass, which reports the first fault in file order.
    """
    ent_path = os.path.join(directory, "entities.dict")
    rel_path = os.path.join(directory, "relations.dict")
    ent_ids = _read_dict(ent_path) if os.path.exists(ent_path) else {}
    rel_ids = _read_dict(rel_path) if os.path.exists(rel_path) else {}
    pinned_entities, pinned_relations = bool(ent_ids), bool(rel_ids)

    rel_arity: dict[str, int] = {}
    splits: list[list[HyperEdge]] = []
    for name in SPLIT_FILES:
        path = os.path.join(directory, name)
        edges: list[HyperEdge] = []
        splits.append(edges)
        if not os.path.exists(path):
            if name == "train.txt":
                raise ParseError(f"missing {path}")
            continue
        for lineno, (rel_name, *names) in _records(path):
            if not names:
                raise ParseError(f"{path}:{lineno}: expected relation and at least one node")
            if not rel_name or "" in names:
                what = "entity" if rel_name else "relation"
                raise ParseError(f"{path}:{lineno}: empty {what} name")
            k = rel_arity.setdefault(rel_name, len(names))
            if k != len(names):
                raise InconsistentArity(f"relation {rel_name}: arity {k} vs {len(names)}")
            if rel_name not in rel_ids:
                if pinned_relations:
                    raise ParseError(f"relation {rel_name} missing from relations.dict")
                rel_ids[rel_name] = len(rel_ids)
            for nm in names:
                if pinned_entities and nm not in ent_ids:
                    raise ParseError(f"entity {nm} missing from entities.dict")
            nodes = tuple([ent_ids.setdefault(nm, len(ent_ids)) for nm in names])
            edges.append(HyperEdge(rel_ids[rel_name], nodes))

    relations = [Relation(i, name, rel_arity.get(name, 2)) for i, name in enumerate(rel_ids)]
    graph = build_graph(relations, splits[0], len(ent_ids))
    graph.node_names = list(ent_ids)
    return graph, *splits


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
