"""Exact Weisfeiler-Leman refinement engines and partition algebra.

Implements the single-node test on relational hypergraphs (hrwl1), its
query-conditioned variant, and the pairwise tests on knowledge graphs
(hcwl2 and the inverse-augmented rawl2+ oracle). Injectivity of the update
map tau is realized by interning canonical serialized keys — inner lists
sorted by position, outer multisets sorted lexicographically — with fresh
ids assigned in sorted-key order each round, so partitions are exact and
deterministic across runs. The engines read the graph's edge list only:
each round gathers every node's multiset over E(v) in one pass over it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatch, NotAKnowledgeGraph
from .hypergraph import Query, RelationalHypergraph


@dataclass
class NodeColoring:
    colors: list[int]
    round: int


@dataclass
class PairColoring:
    """Coloring of all ordered pairs (u, v), stored row-major u*|V|+v."""

    colors: list[int]
    round: int
    node_count: int

    def color(self, u: int, v: int) -> int:
        return self.colors[u * self.node_count + v]


def _canonical_ordinals(keys: list) -> list[int]:
    """Assign dense ids in sorted-key order (deterministic interning)."""
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def refines(a: list[int], b: list[int]) -> bool:
    """True iff a(x)=a(y) implies b(x)=b(y): each a-class sits in one b-class."""
    if len(a) != len(b):
        raise DomainMismatch("colorings cover different domains")
    image: dict[int, int] = {}
    for ca, cb in zip(a, b):
        if image.setdefault(ca, cb) != cb:
            return False
    return True


def equivalent(a: list[int], b: list[int]) -> bool:
    return refines(a, b) and refines(b, a)


# ---------------------------------------------------------------------------
# hrwl1
# ---------------------------------------------------------------------------

def _hrwl1_keys(graph: RelationalHypergraph, colors: list[int]) -> list:
    sigs: list[list] = [[] for _ in range(graph.node_count)]
    for ed in graph.edges:
        pairs = [(colors[w], j) for j, w in enumerate(ed.nodes, start=1)]
        for i, v in enumerate(ed.nodes):
            sigs[v].append((tuple(pairs[:i] + pairs[i + 1 :]), ed.relation))
    return [(colors[v], tuple(sorted(sig))) for v, sig in enumerate(sigs)]


def hrwl1_step(graph: RelationalHypergraph, coloring: NodeColoring) -> NodeColoring:
    """One refinement round: intern (own color, multiset over E(v) of
    (position-sorted neighbor colors, relation))."""
    keys = _hrwl1_keys(graph, coloring.colors)
    return NodeColoring(_canonical_ordinals(keys), coloring.round + 1)


def hrwl1_run(
    graph: RelationalHypergraph,
    init: NodeColoring | list[int],
    rounds: int | None = None,
) -> list[NodeColoring]:
    """Colorings for rounds 0..L; rounds=None runs until the partition
    stabilizes (guaranteed within |V| rounds)."""
    if isinstance(init, NodeColoring):
        current = NodeColoring(list(init.colors), 0)
    else:
        current = NodeColoring(list(init), 0)
    out = [current]
    limit = rounds if rounds is not None else graph.node_count + 1
    for _ in range(limit):
        nxt = hrwl1_step(graph, current)
        if rounds is None and equivalent(nxt.colors, current.colors):
            break
        out.append(nxt)
        current = nxt
    return out


def uniform_coloring(graph: RelationalHypergraph) -> NodeColoring:
    return NodeColoring(list(graph.node_color), 0)


def conditional_init(graph: RelationalHypergraph, query: Query) -> NodeColoring:
    """Conditioned initial coloring: each given node is colored by the set of
    positions it occupies in the query; everything else shares one
    background color. Distinct given nodes get pairwise-distinct colors, so
    generalized target node distinguishability holds by construction.
    """
    arity = graph.relations[query.relation].arity
    positions = query.given_positions(arity)
    pos_sets: dict[int, list[int]] = {}
    for u, i in zip(query.given, positions):
        pos_sets.setdefault(u, []).append(i)
    keys = [
        (1, tuple(pos_sets[v]), query.relation) if v in pos_sets else (0,)
        for v in range(graph.node_count)
    ]
    return NodeColoring(_canonical_ordinals(keys), 0)


def conditional_run(
    graph: RelationalHypergraph, query: Query, rounds: int
) -> list[NodeColoring]:
    """hrwl1 started from the query-conditioned initial coloring."""
    return hrwl1_run(graph, conditional_init(graph, query), rounds)


# ---------------------------------------------------------------------------
# Pairwise tests on knowledge graphs (all relations binary).
# ---------------------------------------------------------------------------

def _require_kg(graph: RelationalHypergraph) -> None:
    for r in graph.relations:
        if r.arity != 2:
            raise NotAKnowledgeGraph(f"relation {r.name} has arity {r.arity}")


def default_pair_init(graph: RelationalHypergraph) -> PairColoring:
    """Diagonal pairs get one color, off-diagonal pairs another (target node
    distinguishability: eta(u,u) != eta(u,v) for v != u)."""
    n = graph.node_count
    colors = [1 if u == v else 0 for u in range(n) for v in range(n)]
    return PairColoring(colors, 0, n)


def hcwl2_run(
    graph: RelationalHypergraph, init: PairColoring, rounds: int
) -> list[PairColoring]:
    """Conditioned local 2-WL: for each pair (u,v), aggregate over E(v) the
    colors (u, w) of positional neighbors w together with their position
    and the edge's relation. Row u refines like hrwl1 does, on the colors
    (u, .)."""
    _require_kg(graph)
    n = graph.node_count
    out = [PairColoring(list(init.colors), 0, n)]
    current = out[0].colors
    for ell in range(rounds):
        keys = []
        for u in range(n):
            keys += _hrwl1_keys(graph, current[u * n : (u + 1) * n])
        current = _canonical_ordinals(keys)
        out.append(PairColoring(current, ell + 1, n))
    return out


def augment_with_inverses(graph: RelationalHypergraph) -> list[tuple[int, int, int]]:
    """Edge list of G+: original facts plus r-(v,u) for every non-loop
    r(u,v); inverse relation ids are offset by |R|."""
    _require_kg(graph)
    num_rel = len(graph.relations)
    plus: list[tuple[int, int, int]] = []
    for ed in graph.edges:
        u, v = ed.nodes
        plus.append((ed.relation, u, v))
        if u != v:
            plus.append((ed.relation + num_rel, v, u))
    return plus


def rawl2plus_run(
    graph: RelationalHypergraph, init: PairColoring, rounds: int
) -> list[PairColoring]:
    """Independent oracle: relation-aware pairwise 2-WL over the
    inverse-augmented graph, aggregating colors of outgoing neighbors."""
    _require_kg(graph)
    n = graph.node_count
    outgoing: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for rel, a, b in augment_with_inverses(graph):
        outgoing[a].append((rel, b))
    out = [PairColoring(list(init.colors), 0, n)]
    current = out[0].colors
    for ell in range(rounds):
        keys = []
        for u in range(n):
            row = u * n
            for v in range(n):
                sig = tuple(sorted((current[row + w], rel) for rel, w in outgoing[v]))
                keys.append((current[row + v], sig))
        current = _canonical_ordinals(keys)
        out.append(PairColoring(current, ell + 1, n))
    return out
