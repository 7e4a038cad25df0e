"""Color-refinement engines: partition algebra, node tests, pairwise tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from hcnet import refine
from hcnet.errors import DomainMismatch, NotAKnowledgeGraph, QueryArityMismatch
from hcnet.hypergraph import (
    HyperEdge,
    Query,
    Relation,
    apply_permutation,
    build_graph,
)
from hcnet.randgen import random_hypergraph, random_knowledge_graph, random_query
from hcnet.refine import (
    NodeColoring,
    augment_with_inverses,
    conditional_init,
    conditional_run,
    default_pair_init,
    equivalent,
    hcwl2_run,
    hrwl1_run,
    hrwl1_step,
    rawl2plus_run,
    refines,
    uniform_coloring,
)
from hcnet.synth import hypercycle


class TestPartitionAlgebra:
    def test_all_distinct_refines_anything(self):
        assert refines([0, 1, 2], [0, 0, 1])

    def test_constant_does_not_refine_split(self):
        assert not refines([0, 0, 0], [0, 0, 1])

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            refines([0, 1], [0, 1, 2])

    def test_equivalent_reflexive(self):
        assert equivalent([0, 1, 1, 2], [0, 1, 1, 2])

    def test_equivalent_label_invariant(self):
        assert equivalent([0, 1, 1, 2], [5, 9, 9, 7])

    def test_strict_refinement_not_equivalent(self):
        assert refines([0, 1, 2], [0, 1, 1])
        assert not equivalent([0, 1, 2], [0, 1, 1])


class TestHrwl1:
    def test_hypercycle_two_classes_after_one_step(self):
        g = hypercycle(8, 3)
        step1 = hrwl1_step(g, uniform_coloring(g))
        # Alternating relations split nodes by index parity and nothing more.
        parity = [v % 2 for v in range(8)]
        assert equivalent(step1.colors, parity)

    def test_hypercycle_stable_at_two_classes(self):
        g = hypercycle(8, 3)
        runs = hrwl1_run(g, uniform_coloring(g), rounds=None)
        assert len(set(runs[-1].colors)) == 2
        assert equivalent(runs[-1].colors, [v % 2 for v in range(8)])

    def test_edgeless_graph_partition_unchanged(self):
        g = build_graph([Relation(0, "r", 2)], [], 4)
        init = NodeColoring([0, 1, 0, 1], 0)
        assert hrwl1_step(g, init).colors == [0, 1, 0, 1]

    def test_round_zero_only(self):
        g = hypercycle(8, 3)
        out = hrwl1_run(g, uniform_coloring(g), 0)
        assert len(out) == 1 and out[0].round == 0

    def test_symmetric_pair_never_separates(self):
        # Rotation by 2 maps x2 to x4, so a query-agnostic test keeps them equal.
        g = hypercycle(8, 3)
        for coloring in hrwl1_run(g, uniform_coloring(g), 6):
            assert coloring.colors[2] == coloring.colors[4]

    def test_isomorphism_invariance(self):
        rng = np.random.default_rng(11)
        g = random_hypergraph(rng, num_colors=2)
        perm = [int(x) for x in rng.permutation(g.node_count)]
        pg = apply_permutation(g, perm)
        a = hrwl1_run(g, uniform_coloring(g), 4)[-1].colors
        b = hrwl1_run(pg, uniform_coloring(pg), 4)[-1].colors
        assert equivalent([b[perm[v]] for v in range(g.node_count)], a)


class TestConditional:
    def test_init_class_count(self):
        g = hypercycle(8, 3)
        init = conditional_init(g, Query(0, (0,), 2))
        assert len(set(init.colors)) == 2  # the one given node + background

    def test_init_distinct_positions_distinct_colors(self):
        g = build_graph([Relation(0, "r", 3)], [], 5)
        init = conditional_init(g, Query(0, (1, 3), 2))
        assert init.colors[1] != init.colors[3]
        assert init.colors[0] == init.colors[2] == init.colors[4]
        assert len(set(init.colors)) == 3

    def test_conditioning_separates_symmetric_nodes(self):
        # Conditioned on x0, distances differ: x2 and x4 must split.
        g = hypercycle(8, 3)
        final = conditional_run(g, Query(0, (0,), 2), 4)[-1]
        assert final.colors[2] != final.colors[4]

    @pytest.mark.parametrize("query", [
        Query(0, (0,), 3), Query(0, (0,), 0), Query(0, (), 2), Query(0, (0, 1), 2),
    ])
    def test_malformed_query_rejected(self, query):
        # r0 is binary: one given node, target 1 or 2.
        with pytest.raises(QueryArityMismatch):
            conditional_init(hypercycle(8, 3), query)

    def test_edgeless_graph_stays_at_init(self):
        g = build_graph([Relation(0, "r", 2)], [], 4)
        runs = conditional_run(g, Query(0, (1,), 2), 3)
        for coloring in runs:
            assert equivalent(coloring.colors, runs[0].colors)


class TestPairwise:
    def test_round_zero_is_init(self):
        kg = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 2)
        init = default_pair_init(kg)
        assert hcwl2_run(kg, init, 0)[0].colors == init.colors

    def test_single_fact_unrolled_by_hand(self):
        kg = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 2)
        out = hcwl2_run(kg, default_pair_init(kg), 1)
        r0, r1 = out[0], out[1]
        # Round 0: diagonal vs off-diagonal.
        assert r0.color(0, 0) == r0.color(1, 1) != r0.color(0, 1) == r0.color(1, 0)
        # Round 1: (a,b) separates from (b,a) — only b has an incoming edge.
        assert r1.color(0, 1) != r1.color(1, 0)

    def test_requires_knowledge_graph(self):
        g = build_graph([Relation(0, "r", 3)], [], 2)
        with pytest.raises(NotAKnowledgeGraph):
            hcwl2_run(g, default_pair_init(g), 1)
        with pytest.raises(NotAKnowledgeGraph):
            rawl2plus_run(g, default_pair_init(g), 1)

    def test_inverse_augmentation(self):
        kg = build_graph(
            [Relation(0, "r", 2)], [HyperEdge(0, (0, 1)), HyperEdge(0, (2, 2))], 3
        )
        plus = augment_with_inverses(kg)
        # r(a,b) gains an inverse; the self-loop does not.
        assert (0, 0, 1) in plus and (1, 1, 0) in plus
        assert (0, 2, 2) in plus and (1, 2, 2) not in plus
        assert len(plus) == 3

    def test_engines_agree_on_loop_free_graphs(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            kg = random_knowledge_graph(rng)
            init = default_pair_init(kg)
            a = hcwl2_run(kg, init, 4)
            b = rawl2plus_run(kg, init, 4)
            for x, y in zip(a, b):
                assert equivalent(x.colors, y.colors)

    def test_engines_diverge_on_self_loops(self):
        # A lone self-loop r(v1,v1) is aggregated twice by the conditioned
        # test (positions 1 and 2 of the same edge) but only once by the
        # inverse-augmented oracle, which creates no inverse for loops. The
        # equivalence therefore holds on loop-free graphs only, which is
        # what the differential suite draws.
        kg = build_graph(
            [Relation(0, "r", 2)],
            [HyperEdge(0, (0, 0)), HyperEdge(0, (1, 2)), HyperEdge(0, (2, 1))],
            4,
        )
        init = default_pair_init(kg)
        a = hcwl2_run(kg, init, 2)[-1]
        b = rawl2plus_run(kg, init, 2)[-1]
        # From the distant node 3: the conditioned test merges (3,0) and
        # (3,1); the oracle separates them (node 1 sees an inverse edge).
        assert a.color(3, 0) == a.color(3, 1)
        assert b.color(3, 0) != b.color(3, 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_hrwl1_monotone_refinement(seed):
    rng = np.random.default_rng(seed)
    g = random_hypergraph(rng, max_nodes=15)
    runs = hrwl1_run(g, uniform_coloring(g), 5)
    for later, earlier in zip(runs[1:], runs):
        assert refines(later.colors, earlier.colors)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_conditional_monotone_refinement(seed):
    rng = np.random.default_rng(seed)
    g = random_hypergraph(rng, max_nodes=15)
    q = random_query(rng, g)
    runs = conditional_run(g, q, 5)
    for later, earlier in zip(runs[1:], runs):
        assert refines(later.colors, earlier.colors)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pairwise_monotone_refinement(seed):
    rng = np.random.default_rng(seed)
    kg = random_knowledge_graph(rng, max_nodes=8)
    runs = hcwl2_run(kg, default_pair_init(kg), 4)
    for later, earlier in zip(runs[1:], runs):
        assert refines(later.colors, earlier.colors)


def test_stability_within_node_count_rounds():
    rng = np.random.default_rng(13)
    for _ in range(5):
        g = random_hypergraph(rng, max_nodes=12)
        runs = hrwl1_run(g, uniform_coloring(g), g.node_count + 1)
        assert equivalent(runs[-1].colors, runs[-2].colors)


def _incidence_list_keys(graph, colors):
    """The key builder as it read E(v) from per-node incidence lists."""
    inc = [[] for _ in range(graph.node_count)]
    for e, ed in enumerate(graph.edges):
        for pos, v in enumerate(ed.nodes, start=1):
            inc[v].append((e, pos))
    keys = []
    for v in range(graph.node_count):
        sig = []
        for e, i in inc[v]:
            ed = graph.edges[e]
            inner = tuple((colors[w], j) for j, w in enumerate(ed.nodes, start=1) if j != i)
            sig.append((inner, ed.relation))
        keys.append((colors[v], tuple(sorted(sig))))
    return keys


def test_colorings_equal_the_incidence_list_engines(monkeypatch):
    # The one-pass key builder over the edge list gives the colorings of the
    # per-node incidence walk, bit for bit, on hypergraphs with repeated
    # facts and on knowledge graphs with self-loops.
    rng = np.random.default_rng(29)
    cases = []
    for t in range(40):
        g = random_hypergraph(rng, max_nodes=12, max_arity=4, num_colors=1 + t % 3)
        g = build_graph(g.relations, g.edges + g.edges[: t % 3], g.node_count, g.node_color)
        kg = random_knowledge_graph(rng, max_nodes=8)
        loops = [HyperEdge(0, (v, v)) for v in range(t % 2)]
        kg = build_graph(kg.relations, kg.edges + loops, kg.node_count)
        cases.append((g, random_query(rng, g), kg))

    def runs():
        out = []
        for g, q, kg in cases:
            out.append([c.colors for c in hrwl1_run(g, uniform_coloring(g), 3)])
            out.append([c.colors for c in hrwl1_run(g, uniform_coloring(g))])
            out.append([c.colors for c in conditional_run(g, q, 3)])
            out.append([c.colors for c in hcwl2_run(kg, default_pair_init(kg), 3)])
        return out

    got = runs()
    monkeypatch.setattr(refine, "_hrwl1_keys", _incidence_list_keys)
    assert got == runs()
