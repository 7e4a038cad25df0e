"""Graded modal logic: evaluator, restricted fragment, compiler, parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from hcnet.errors import (
    ArityMismatch,
    EngineError,
    FormulaParseError,
    InvalidConstants,
    NotRestricted,
    PositionOutOfRange,
    UnknownColor,
    UnknownConstant,
)
from hcnet.hypergraph import HyperEdge, Relation, apply_permutation, build_graph
from hcnet.logic import (
    And,
    ColorAtom,
    CompiledNetwork,
    ConstAtom,
    ExistsGeq,
    GuardAt,
    GuardOr,
    LogicSignature,
    Not,
    Or,
    compile_hgml_r,
    eval_formula,
    guards_from_map,
    is_hgml_r,
    parse_formula,
    run_compiled,
)
from hcnet.randgen import random_hgml_r, random_hypergraph

DEGREE_SIG = LogicSignature(
    colors=["Thing", "Person"],
    relations=[("StudyDegree", 4), ("Awarded", 3)],
)

# "x is a Person with a StudyDegree fact at a university (position 2) that
# received fewer than two awards (position 3 of Awarded)."
PHI = And(
    ColorAtom("Person"),
    ExistsGeq(1, "StudyDegree", 1, GuardAt(2, Not(ExistsGeq(2, "Awarded", 3, None)))),
)


class TestEvaluator:
    def test_color_atom(self, degree_graph):
        assert eval_formula(degree_graph, DEGREE_SIG, ColorAtom("Person"), 0)
        assert not eval_formula(degree_graph, DEGREE_SIG, ColorAtom("Person"), 1)

    def test_unknown_color(self, degree_graph):
        with pytest.raises(UnknownColor):
            eval_formula(degree_graph, DEGREE_SIG, ColorAtom("Ghost"), 0)

    def test_phi_at_hawking(self, degree_graph):
        # One Awarded fact at Oxford, so "fewer than two" holds.
        assert eval_formula(degree_graph, DEGREE_SIG, PHI, 0)

    def test_phi_elsewhere(self, degree_graph):
        for v in range(1, 5):
            assert not eval_formula(degree_graph, DEGREE_SIG, PHI, v)

    def test_psi_with_constants(self, degree_graph):
        # Constants pin the subject and degree slots and the award subject.
        sig = LogicSignature(
            colors=DEGREE_SIG.colors,
            relations=DEGREE_SIG.relations,
            constants={"Physics": 2, "BA": 3},
        )
        psi = And(
            ColorAtom("Person"),
            ExistsGeq(
                1,
                "StudyDegree",
                1,
                guards_from_map(
                    {
                        2: Not(ExistsGeq(2, "Awarded", 3, GuardAt(1, ConstAtom("Physics")))),
                        3: ConstAtom("Physics"),
                        4: ConstAtom("BA"),
                    }
                ),
            ),
        )
        assert eval_formula(degree_graph, sig, psi, 0)
        assert not eval_formula(degree_graph, sig, psi, 1)

    def test_const_atom_basic(self, degree_graph):
        sig = LogicSignature(
            colors=DEGREE_SIG.colors, relations=DEGREE_SIG.relations, constants={"b": 3}
        )
        assert eval_formula(degree_graph, sig, ConstAtom("b"), 3)
        assert not eval_formula(degree_graph, sig, ConstAtom("b"), 2)

    def test_colliding_constants(self, degree_graph):
        sig = LogicSignature(
            colors=DEGREE_SIG.colors,
            relations=DEGREE_SIG.relations,
            constants={"a": 1, "b": 1},
        )
        with pytest.raises(InvalidConstants):
            eval_formula(degree_graph, sig, ConstAtom("a"), 1)

    def test_constant_needs_interpretation(self, degree_graph):
        with pytest.raises(UnknownConstant):
            eval_formula(degree_graph, DEGREE_SIG, ConstAtom("b"), 0)

    def test_exists_counts_edge_position_pairs(self):
        # Duplicate facts count separately: E(v) is a multiset over edges.
        rel = [Relation(0, "r", 2)]
        edges = [HyperEdge(0, (0, 1)), HyperEdge(0, (0, 1))]
        g = build_graph(rel, edges, 2)
        sig = LogicSignature(colors=["c0"], relations=[("r", 2)])
        f2 = ExistsGeq(2, "r", 1, None)
        assert eval_formula(g, sig, f2, 0)
        assert not eval_formula(g, sig, f2, 1)

    def test_relation_absent_from_graph(self, degree_graph):
        sig = LogicSignature(
            colors=DEGREE_SIG.colors,
            relations=DEGREE_SIG.relations + [("Missing", 2)],
        )
        assert not eval_formula(degree_graph, sig, ExistsGeq(1, "Missing", 1, None), 0)

    def test_guard_position_checks(self, degree_graph):
        bad = ExistsGeq(1, "Awarded", 1, GuardAt(1, ColorAtom("Person")))
        with pytest.raises(PositionOutOfRange):
            eval_formula(degree_graph, DEGREE_SIG, bad, 0)

    def test_isomorphism_invariance(self):
        rng = np.random.default_rng(21)
        g = random_hypergraph(rng, num_colors=2)
        sig = LogicSignature(
            colors=[f"c{c}" for c in range(2)],
            relations=[(r.name, r.arity) for r in g.relations],
        )
        formula = random_hgml_r(rng, sig, depth=3)
        perm = [int(x) for x in rng.permutation(g.node_count)]
        pg = apply_permutation(g, perm)
        for v in range(g.node_count):
            assert eval_formula(g, sig, formula, v) == eval_formula(pg, sig, formula, perm[v])


class TestRestrictedFragment:
    def test_atoms_are_restricted(self):
        assert is_hgml_r(ColorAtom("a"))
        assert is_hgml_r(ConstAtom("b"))

    def test_conjunction_guard_is_restricted(self):
        f = ExistsGeq(1, "r", 1, guards_from_map({2: ColorAtom("a"), 3: ColorAtom("a")}))
        assert is_hgml_r(f)

    def test_cross_position_disjunction_is_not(self):
        f = ExistsGeq(
            1, "r", 1, GuardOr(GuardAt(2, ColorAtom("a")), GuardAt(3, ColorAtom("a")))
        )
        assert not is_hgml_r(f)


class TestCompiler:
    SIG = LogicSignature(colors=["a", "b"], relations=[("r", 2), ("s", 3)])

    def test_single_color_atom(self):
        net = compile_hgml_r(ColorAtom("a"), self.SIG)
        assert net.size == 1
        assert net.W0[0, 0] == 1 and net.bias[0] == 0

    def test_exists_bias_is_minus_n_plus_1(self):
        formula = ExistsGeq(2, "r", 1, GuardAt(2, ColorAtom("a")))
        net = compile_hgml_r(formula, self.SIG)
        row = net.size - 1  # root occurrence is enumerated last
        assert isinstance(net.subformulas[row], ExistsGeq)
        assert net.bias[row] == -1  # -N + 1 with N = 2
        assert net.ar[0, row] == 1

    def test_positional_vector_entries(self):
        formula = ExistsGeq(1, "r", 1, GuardAt(2, ColorAtom("a")))
        net = compile_hgml_r(formula, self.SIG)
        assert set(np.unique(net.p)) <= {1, 3}
        # The guard row for position 2 is marked 1; everything else stays 3.
        guard_row = net.subformulas.index(ColorAtom("a"))
        assert net.p[2, guard_row] == 1

    def test_rejects_unrestricted(self):
        bad = ExistsGeq(
            1, "s", 1, GuardOr(GuardAt(2, ColorAtom("a")), GuardAt(3, ColorAtom("a")))
        )
        with pytest.raises(NotRestricted):
            compile_hgml_r(bad, self.SIG)

    def test_rejects_constants(self):
        with pytest.raises(NotRestricted):
            compile_hgml_r(ConstAtom("b"), self.SIG)

    @pytest.mark.parametrize("arity", [-1, 0])
    def test_rejects_arity_below_one(self, arity):
        # An arity of 0 or -1 compiled into weights for no edge position.
        with pytest.raises(EngineError, match="arity"):
            compile_hgml_r(ColorAtom("a"), LogicSignature(
                colors=["a"], relations=[("r", 2), ("s", arity)]))

    @pytest.mark.parametrize("colors, relations, repeated", [
        (["a"], [("r", 2), ("r", 3)], "relation 'r'"),
        (["a", "b", "a"], [("r", 2)], "color 'a'"),
    ], ids=["relation", "color"])
    def test_rejects_a_repeated_name(self, colors, relations, repeated):
        # A repeated relation compiled into one entry; with a repeated
        # color, eval_formula and run_compiled disagreed on its nodes.
        with pytest.raises(ArityMismatch, match=f"{repeated} is listed twice"):
            LogicSignature(colors=colors, relations=relations)

    def test_edgeless_graph_color_atom(self):
        g = build_graph([Relation(0, "r", 2)], [], 3, [0, 1, 0])
        net = compile_hgml_r(ColorAtom("a"), self.SIG)
        out = run_compiled(net, g)
        assert out[:, 0].tolist() == [1, 0, 1]

    def test_compiled_matches_evaluator_on_phi(self, degree_graph):
        net = compile_hgml_r(PHI, DEGREE_SIG)
        out = run_compiled(net, degree_graph)
        root = net.size - 1
        for v in range(degree_graph.node_count):
            assert bool(out[v, root]) == eval_formula(degree_graph, DEGREE_SIG, PHI, v)
        assert out[0, root] == 1

    def test_compiled_every_component_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_hypergraph(rng, max_nodes=10, max_relations=2, num_colors=2)
            sig = LogicSignature(
                colors=["c0", "c1"],
                relations=[(r.name, r.arity) for r in g.relations],
            )
            formula = random_hgml_r(rng, sig, depth=3)
            net = compile_hgml_r(formula, sig)
            out = run_compiled(net, g)
            for p, sub in enumerate(net.subformulas):
                for v in range(g.node_count):
                    assert bool(out[v, p]) == eval_formula(g, sig, sub, v)

    def test_compiled_equivariance(self):
        rng = np.random.default_rng(4)
        g = random_hypergraph(rng, max_nodes=10, num_colors=2)
        sig = LogicSignature(
            colors=["c0", "c1"], relations=[(r.name, r.arity) for r in g.relations]
        )
        net = compile_hgml_r(random_hgml_r(rng, sig, depth=3), sig)
        perm = [int(x) for x in rng.permutation(g.node_count)]
        out = run_compiled(net, g)
        pout = run_compiled(net, apply_permutation(g, perm))
        assert (pout[perm] == out).all()

    def test_matches_per_edge_loop_reference(self):
        # The compiled layer written out edge by edge and position by
        # position, as the paper states it.
        def reference(net, g, rel_ids):
            h = run_compiled(net, g, rounds=0)
            for _ in range(net.size):
                msg = np.zeros_like(h)
                for ed in g.edges:
                    r = rel_ids[ed.relation]
                    for i, u in enumerate(ed.nodes, start=1):
                        z = np.ones(net.size, dtype=np.int64)
                        for j, w in enumerate(ed.nodes, start=1):
                            if j != i:
                                z *= net.p[j] - h[w]
                        msg[u] += net.ar[r] - np.clip(net.Wr[r] @ z, 0, 1)
                h = np.clip(h @ net.W0.T + msg + net.bias, 0, 1)
            return h

        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_hypergraph(rng, max_nodes=10, max_relations=3, num_colors=2)
            sig = LogicSignature(
                colors=["c0", "c1"], relations=[(r.name, r.arity) for r in g.relations]
            )
            net = compile_hgml_r(random_hgml_r(rng, sig, depth=3), sig)
            expected = reference(net, g, {r.id: r.id for r in g.relations})
            assert np.array_equal(run_compiled(net, g), expected)

    def test_relations_outside_signature_are_skipped(self):
        sig = LogicSignature(colors=["a"], relations=[("r", 2)])
        relations = [Relation(0, "s", 3), Relation(1, "r", 2)]
        edges = [HyperEdge(1, (0, 1)), HyperEdge(0, (1, 2, 0)), HyperEdge(1, (2, 1))]
        g = build_graph(relations, edges, 3)
        only_r = build_graph(relations, [edges[0], edges[2]], 3)
        net = compile_hgml_r(parse_formula("exists>=2 r@2 []"), sig)
        assert np.array_equal(run_compiled(net, g), run_compiled(net, only_r))
        assert run_compiled(net, g)[:, -1].tolist() == [0, 1, 0]

    def test_integer_dtype_everywhere(self):
        net = compile_hgml_r(PHI, DEGREE_SIG)
        for arr in (net.W0, net.bias, net.Wr, net.ar, net.p):
            assert arr.dtype == np.int64
        assert isinstance(net, CompiledNetwork)


class TestParser:
    def test_round_trip_structures(self):
        assert parse_formula("color(a)") == ColorAtom("a")
        assert parse_formula("is(b)") == ConstAtom("b")
        assert parse_formula("not color(a)") == Not(ColorAtom("a"))
        assert parse_formula("(color(a) and color(b))") == And(ColorAtom("a"), ColorAtom("b"))
        assert parse_formula("(color(a) or color(b))") == Or(ColorAtom("a"), ColorAtom("b"))

    def test_exists_with_guards(self):
        f = parse_formula("exists>=2 r@1 [j2: color(a), 3: not color(b)]")
        assert f == ExistsGeq(
            2, "r", 1, guards_from_map({2: ColorAtom("a"), 3: Not(ColorAtom("b"))})
        )

    def test_exists_without_guards(self):
        assert parse_formula("exists>=1 r@2 []") == ExistsGeq(1, "r", 2, None)

    def test_trailing_input_rejected(self):
        with pytest.raises(FormulaParseError):
            parse_formula("color(a) color(b)")

    def test_bad_character(self):
        with pytest.raises(FormulaParseError):
            parse_formula("color(a) & color(b)")

    def test_keyword_cannot_name_relation(self):
        with pytest.raises(FormulaParseError):
            parse_formula("exists>=1 and@1 []")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_de_morgan(seed):
    rng = np.random.default_rng(seed)
    g = random_hypergraph(rng, max_nodes=10, num_colors=2)
    sig = LogicSignature(
        colors=["c0", "c1"], relations=[(r.name, r.arity) for r in g.relations]
    )
    a = random_hgml_r(rng, sig, depth=2)
    b = random_hgml_r(rng, sig, depth=2)
    for v in range(g.node_count):
        lhs = eval_formula(g, sig, Not(And(a, b)), v)
        rhs = eval_formula(g, sig, Or(Not(a), Not(b)), v)
        assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 3))
def test_exists_monotone_in_count(seed, n):
    rng = np.random.default_rng(seed)
    g = random_hypergraph(rng, max_nodes=10, num_colors=2)
    sig = LogicSignature(
        colors=["c0", "c1"], relations=[(r.name, r.arity) for r in g.relations]
    )
    name, arity = sig.relations[0]
    own = int(rng.integers(1, arity + 1))
    stronger = ExistsGeq(n + 1, name, own, None)
    weaker = ExistsGeq(n, name, own, None)
    for v in range(g.node_count):
        if eval_formula(g, sig, stronger, v):
            assert eval_formula(g, sig, weaker, v)
