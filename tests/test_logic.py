"""Graded modal logic: evaluator, restricted fragment, compiler, parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from hcnet.errors import (
    ArityMismatch,
    ColorOutOfSignature,
    EngineError,
    FormulaParseError,
    InvalidConstants,
    NodeOutOfRange,
    NotRestricted,
    PositionOutOfRange,
    UnknownColor,
    UnknownConstant,
    UnknownRelation,
)
from hcnet.hypergraph import (
    HyperEdge,
    Relation,
    apply_permutation,
    build_graph,
    incidence,
)
from hcnet.logic import (
    And,
    ColorAtom,
    CompiledNetwork,
    ConstAtom,
    ExistsGeq,
    GuardAnd,
    GuardAt,
    GuardNot,
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


# r(a, b), r(b, c), s(a, b, c); every node has color c0.
CHAIN = build_graph(
    [Relation(0, "r", 2), Relation(1, "s", 3)],
    [HyperEdge(0, (0, 1)), HyperEdge(0, (1, 2)), HyperEdge(1, (0, 1, 2))],
    3,
)
CHAIN_SIG = LogicSignature(colors=["c0", "c1"], relations=[("r", 2), ("s", 3)])

# Each fault sits where a check made during evaluation does not always reach it:
# behind a false conjunct, or in a guard of a modality with no row at c.
UNREACHED_FAULTS = [
    ("exists>=1 r@1 [2: color(zz)]", UnknownColor, "zz"),
    ("(color(c1) and color(zz))", UnknownColor, "zz"),
    ("(color(c1) and exists>=1 nosuch@1 [])", UnknownRelation, "nosuch"),
    ("(color(c1) and exists>=1 s@1 [1: color(c0)])", PositionOutOfRange, "guard position 1"),
    ("(color(c1) and exists>=1 s@4 [])", PositionOutOfRange, "own position 4"),
]


class TestUpFrontChecks:
    @pytest.mark.parametrize("text, error, message", UNREACHED_FAULTS,
                             ids=[t for t, _, _ in UNREACHED_FAULTS])
    def test_evaluator_and_compiler_refuse_a_fault_at_every_node(self, text, error, message):
        formula = parse_formula(text)
        for v in range(CHAIN.node_count):
            with pytest.raises(error, match=message):
                eval_formula(CHAIN, CHAIN_SIG, formula, v)
        with pytest.raises(error, match=message):
            compile_hgml_r(formula, CHAIN_SIG)

    def test_unknown_constant_behind_a_false_conjunct(self):
        for v in range(CHAIN.node_count):
            with pytest.raises(UnknownConstant, match="zz"):
                eval_formula(CHAIN, CHAIN_SIG, parse_formula("(color(c1) and is(zz))"), v)

    def test_an_interpreted_constant_is_still_not_compilable(self):
        sig = LogicSignature(colors=["c0"], relations=[("r", 2)], constants={"b": 1})
        with pytest.raises(NotRestricted):
            compile_hgml_r(ConstAtom("b"), sig)

    @pytest.mark.parametrize("arity, text", [
        (3, "exists>=1 r@1 [3: color(c0)]"),
        (1, "exists>=1 r@1 []"),
    ])
    def test_a_relation_of_another_arity_in_the_graph(self, arity, text):
        # r:3 indexed past the graph's rows (IndexError); with r:1 the
        # evaluator said node 1 is false and the compiled network said 1.
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 2)
        sig = LogicSignature(colors=["c0"], relations=[("r", arity)])
        formula = parse_formula(text)
        message = f"relation 'r' has arity 2 in the graph and {arity} in the signature"
        for v in range(g.node_count):
            with pytest.raises(ArityMismatch, match=message):
                eval_formula(g, sig, formula, v)
        with pytest.raises(ArityMismatch, match=message):
            run_compiled(compile_hgml_r(formula, sig), g)

    @pytest.mark.parametrize("colors, node, color", [
        ([0, 1, 5, -1], 2, 5),
        ([0, -1, 5, 1], 1, -1),
        ([2, 0, 0, 0], 0, 2),
    ])
    def test_the_color_check_names_the_first_node_at_fault(self, colors, node, color):
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 4, colors)
        sig = LogicSignature(colors=["a", "b"], relations=[("r", 2)])
        message = f"node {node} has color id {color}"
        with pytest.raises(ColorOutOfSignature, match=message):
            eval_formula(g, sig, ColorAtom("a"), 3)
        with pytest.raises(ColorOutOfSignature, match=message):
            run_compiled(compile_hgml_r(ColorAtom("a"), sig), g)

    @pytest.mark.parametrize("node", [-1, 3])
    def test_a_node_outside_the_graph(self, node):
        # Node -1 read the last node's color.
        with pytest.raises(NodeOutOfRange, match=f"node {node}"):
            eval_formula(CHAIN, CHAIN_SIG, ColorAtom("c0"), node)


def _random_formula(rng, sig, depth):
    """Any formula of the logic: Boolean guards across positions, counts
    from 0, and constants when the signature interprets any."""
    x = rng.random()
    if depth <= 0 or x < 0.25:
        if sig.constants and rng.random() < 0.25:
            return ConstAtom(sorted(sig.constants)[int(rng.integers(0, len(sig.constants)))])
        return ColorAtom(sig.colors[int(rng.integers(0, len(sig.colors)))])
    if x < 0.4:
        return Not(_random_formula(rng, sig, depth - 1))
    if x < 0.55:
        return And(_random_formula(rng, sig, depth - 1), _random_formula(rng, sig, depth - 1))
    name, arity = sig.relations[int(rng.integers(0, len(sig.relations)))]
    own = int(rng.integers(1, arity + 1))
    guard = None
    for j in range(1, arity + 1):
        if j != own and rng.random() < 0.7:
            g = GuardAt(j, _random_formula(rng, sig, depth - 1))
            if rng.random() < 0.3:
                g = GuardNot(g)
            if guard is not None:
                g = GuardOr(guard, g) if rng.random() < 0.3 else GuardAnd(guard, g)
            guard = g
    return ExistsGeq(int(rng.integers(0, 4)), name, own, guard)


def _walk_eval(g, sig, f, v):
    """The semantics read off E(v): count v's (edge, position) pairs."""
    if isinstance(f, ColorAtom):
        return sig.colors[g.node_color[v]] == f.color
    if isinstance(f, ConstAtom):
        return sig.constants[f.const] == v
    if isinstance(f, Not):
        return not _walk_eval(g, sig, f.sub, v)
    if isinstance(f, And):
        return _walk_eval(g, sig, f.left, v) and _walk_eval(g, sig, f.right, v)
    hits = 0
    for e, i in incidence(g, v):
        ed = g.edges[e]
        if g.relations[ed.relation].name == f.relation and i == f.position:
            hits += f.guard is None or _walk_guard(g, sig, f.guard, ed.nodes)
    return hits >= f.count


def _walk_guard(g, sig, guard, nodes):
    if isinstance(guard, GuardAt):
        return _walk_eval(g, sig, guard.formula, nodes[guard.position - 1])
    if isinstance(guard, GuardNot):
        return not _walk_guard(g, sig, guard.sub, nodes)
    return _walk_guard(g, sig, guard.left, nodes) and _walk_guard(g, sig, guard.right, nodes)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_evaluator_equals_the_incidence_walk(seed):
    rng = np.random.default_rng(seed)
    g = random_hypergraph(rng, max_nodes=8, max_relations=3, num_colors=2)
    g = build_graph(g.relations, g.edges + g.edges[:2], g.node_count, g.node_color)
    sig = LogicSignature(
        colors=["c0", "c1"],
        relations=[(r.name, r.arity) for r in g.relations] + [("absent", 2)],
        constants={"b": int(rng.integers(0, g.node_count))},
    )
    for _ in range(3):
        formula = _random_formula(rng, sig, 3)
        for v in range(g.node_count):
            assert eval_formula(g, sig, formula, v) == _walk_eval(g, sig, formula, v)


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

    @pytest.mark.parametrize("formula", [
        ColorAtom("zz"),
        ExistsGeq(1, "r", 1, GuardAt(2, ColorAtom("zz"))),
    ], ids=["top-level", "guard"])
    def test_rejects_a_color_outside_the_signature(self, formula):
        # Such a color compiled to "false at every node", while
        # eval_formula raised UnknownColor.
        with pytest.raises(UnknownColor, match="zz"):
            compile_hgml_r(formula, self.SIG)

    def test_node_color_outside_the_signature(self):
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 3, [0, 2, 1])
        net = compile_hgml_r(ColorAtom("a"), self.SIG)
        with pytest.raises(ColorOutOfSignature, match="node 1 has color id 2"):
            run_compiled(net, g)

    @pytest.mark.parametrize("formula", [
        ColorAtom("a"),
        Not(ColorAtom("a")),
        ExistsGeq(1, "r", 1, None),
    ], ids=["color", "not-color", "colorless"])
    def test_evaluator_refuses_what_the_compiled_network_refuses(self, formula):
        # The differential pair agrees on a node color outside the
        # signature: eval_formula read `not color(a)` as [False, True, True].
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 3, [0, 2, 1])
        net = compile_hgml_r(formula, self.SIG)
        with pytest.raises(ColorOutOfSignature, match="node 1 has color id 2"):
            run_compiled(net, g)
        for v in range(g.node_count):
            with pytest.raises(ColorOutOfSignature, match="node 1 has color id 2"):
                eval_formula(g, self.SIG, formula, v)

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
