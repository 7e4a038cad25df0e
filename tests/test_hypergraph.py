"""Data model: incidence structure, edge tables, permutations, dataset round-trips."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from hcnet.errors import (
    ArityMismatch,
    InconsistentArity,
    NodeOutOfRange,
    NotABijection,
    ParseError,
    PositionOutOfRange,
)
from hcnet.hypergraph import (
    HyperEdge,
    Query,
    Relation,
    apply_permutation,
    build_graph,
    incidence,
    load_dataset,
    matching_rows,
    positional_neighborhood,
    save_dataset,
)
from hcnet.randgen import random_hypergraph
from hcnet.synth import hypercycle


class TestBuildGraph:
    def test_degree_graph_shape(self, degree_graph):
        assert degree_graph.node_count == 5
        assert len(degree_graph.edges) == 2
        assert degree_graph.max_arity == 4

    def test_empty_edge_list_has_empty_incidence(self):
        g = build_graph([Relation(0, "r", 2)], [], 3)
        assert all(incidence(g, v) == [] for v in range(3))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            build_graph([Relation(0, "r", 4)], [HyperEdge(0, (0, 1, 2))], 3)

    def test_node_out_of_range(self):
        with pytest.raises(NodeOutOfRange):
            build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 5))], 3)

    def test_noncontiguous_relation_ids(self):
        with pytest.raises(ArityMismatch):
            build_graph([Relation(1, "r", 2)], [], 3)

    @pytest.mark.parametrize("relations, edges, message", [
        # The logic evaluator read [False, False, False] for `exists>=2 r@1 []`,
        # the compiled network [1, 0, 0].
        ([Relation(0, "r", 2), Relation(1, "r", 2)], [HyperEdge(0, (0, 1)), HyperEdge(1, (0, 2))],
         "relation 'r' is listed twice"),
        # Readers index relations[id]: a valid query about r was checked against s.
        ([Relation(1, "s", 3), Relation(0, "r", 2)], [HyperEdge(0, (0, 1))],
         "relation 's' has id 1 at index 0"),
        # The model's forward raised a raw IndexError.
        ([Relation(0, "r", 2), Relation(1, "z", 0)], [HyperEdge(0, (0, 1)), HyperEdge(1, ())],
         "relation 'z' has arity 0; it must be at least 1"),
    ], ids=["repeated-name", "out-of-id-order", "arity-0"])
    def test_relation_list_faults(self, relations, edges, message):
        with pytest.raises(ArityMismatch, match=message):
            build_graph(relations, edges, 3)

    @pytest.mark.parametrize("rid", [-1, 1])
    def test_edge_of_an_unknown_relation(self, rid):
        with pytest.raises(ArityMismatch, match=f"edge 0: unknown relation id {rid}"):
            build_graph([Relation(0, "r", 2)], [HyperEdge(rid, (0, 1))], 3)


class TestIncidence:
    def test_oxford(self, degree_graph):
        # Oxford sits at position 2 of the 4-ary fact and 3 of the 3-ary one.
        assert incidence(degree_graph, 1) == [(0, 2), (1, 3)]

    def test_physics(self, degree_graph):
        assert incidence(degree_graph, 2) == [(0, 3), (1, 1)]

    def test_isolated_node(self):
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 3)
        assert incidence(g, 2) == []

    def test_out_of_range(self, degree_graph):
        with pytest.raises(NodeOutOfRange):
            incidence(degree_graph, 9)

    def test_incidence_characterization(self):
        # (e,i) in E(v) iff edges[e].nodes[i-1] == v, by exhaustive scan.
        rng = np.random.default_rng(5)
        g = random_hypergraph(rng)
        expected = [set() for _ in range(g.node_count)]
        for e, ed in enumerate(g.edges):
            for i, v in enumerate(ed.nodes, start=1):
                expected[v].add((e, i))
        for v in range(g.node_count):
            pairs = incidence(g, v)
            assert set(pairs) == expected[v]
            assert len(pairs) == len(expected[v])  # no duplicates

    def test_total_incidence_equals_total_arity(self):
        rng = np.random.default_rng(6)
        g = random_hypergraph(rng)
        total = sum(len(incidence(g, v)) for v in range(g.node_count))
        assert total == sum(len(ed.nodes) for ed in g.edges)


class TestEdgeTables:
    def test_indexes_are_built_on_first_use_and_kept(self):
        # The edge table is the graph's one index; E(v) is read off the edges.
        g = hypercycle(8, 3)
        assert [f.name for f in dataclasses.fields(g) if not f.init] == ["_relation_edges"]
        assert g._relation_edges is None
        assert incidence(g, 0) == [(e, i) for e, ed in enumerate(g.edges)
                                   for i, w in enumerate(ed.nodes, start=1) if w == 0]
        assert g._relation_edges is None
        assert g.relation_edges is g.relation_edges
        assert g._relation_edges is not None

    def test_relation_edges_hold_ids_and_nodes_in_edge_order(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_hypergraph(rng, max_nodes=10, max_relations=4, max_arity=5)
            first_seen = list(dict.fromkeys(ed.relation for ed in g.edges))
            assert list(g.relation_edges) == first_seen
            for r, (ids, nodes) in g.relation_edges.items():
                want = [e for e, ed in enumerate(g.edges) if ed.relation == r]
                assert ids.dtype == nodes.dtype == np.intp
                assert ids.tolist() == want
                assert nodes.shape == (len(want), g.relations[r].arity)
                assert [tuple(row) for row in nodes.tolist()] == [g.edges[e].nodes for e in want]

    def test_relation_edges_are_read_only(self):
        ids, nodes = hypercycle(8, 3).relation_edges[1]
        for a in (ids, nodes):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_edgeless_graph_has_an_empty_table(self):
        assert build_graph([Relation(0, "r", 2)], [], 3).relation_edges == {}

    def test_matching_rows_on_all_or_some_columns(self):
        table = np.asarray([[0, 1, 2], [0, 1, 3], [4, 1, 2], [0, 1, 2]], dtype=np.intp)
        assert matching_rows(table, (0, 1, 2)).tolist() == [True, False, False, True]
        assert matching_rows(table, [1, 2], [1, 2]).tolist() == [True, False, True, True]
        # No column to agree on: every row agrees (a unary relation's others).
        assert matching_rows(table, [], []).tolist() == [True] * 4


class TestPositionalNeighborhood:
    def test_study_degree_position_1(self, degree_graph):
        # Everyone but Hawking, tagged with their positions.
        assert positional_neighborhood(degree_graph, 0, 1) == [(1, 2), (2, 3), (3, 4)]

    def test_binary_edge(self):
        g = build_graph([Relation(0, "r", 2)], [HyperEdge(0, (0, 1))], 2)
        assert positional_neighborhood(g, 0, 2) == [(0, 1)]

    def test_repeated_node(self):
        g = build_graph([Relation(0, "r", 3)], [HyperEdge(0, (0, 0, 1))], 2)
        assert positional_neighborhood(g, 0, 3) == [(0, 1), (0, 2)]

    def test_size_and_distinct_positions(self):
        rng = np.random.default_rng(7)
        g = random_hypergraph(rng)
        for e, ed in enumerate(g.edges):
            for i in range(1, len(ed.nodes) + 1):
                nb = positional_neighborhood(g, e, i)
                assert len(nb) == len(ed.nodes) - 1
                positions = [j for _, j in nb]
                assert len(set(positions)) == len(positions)

    def test_position_out_of_range(self, degree_graph):
        with pytest.raises(PositionOutOfRange):
            positional_neighborhood(degree_graph, 0, 5)


class TestApplyPermutation:
    def test_identity(self, degree_graph):
        g = apply_permutation(degree_graph, list(range(5)))
        assert g.edges == degree_graph.edges

    def test_rotation_is_hypercycle_automorphism(self):
        g = hypercycle(8, 3)
        perm = [(v + 2) % 8 for v in range(8)]
        rotated = apply_permutation(g, perm)
        assert sorted((e.relation, e.nodes) for e in rotated.edges) == sorted(
            (e.relation, e.nodes) for e in g.edges
        )

    def test_generic_swap_changes_edges(self, degree_graph):
        perm = [4, 1, 2, 3, 0]  # swap Hawking and Nobel
        assert apply_permutation(degree_graph, perm).fact_set() != degree_graph.fact_set()

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        g = random_hypergraph(rng)
        perm = [int(x) for x in rng.permutation(g.node_count)]
        inv = [0] * g.node_count
        for v, p in enumerate(perm):
            inv[p] = v
        back = apply_permutation(apply_permutation(g, perm), inv)
        assert back.edges == g.edges
        assert back.node_color == g.node_color

    def test_not_a_bijection(self, degree_graph):
        with pytest.raises(NotABijection):
            apply_permutation(degree_graph, [0, 0, 1, 2, 3])


class TestQuery:
    def test_given_positions_skip_target(self):
        assert Query(0, (7, 8), 2).given_positions(3) == (1, 3)

    def test_given_positions_tail(self):
        assert Query(0, (7, 8, 9), 4).given_positions(4) == (1, 2, 3)


class TestDatasetIO:
    def _write(self, tmp_path, name, lines):
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_basic_parse(self, tmp_path):
        self._write(
            tmp_path,
            "train.txt",
            [
                "# comment",
                "studied\ta\tb\tc\td",
                "knows\ta\tb",
                "knows\tb\tc",
            ],
        )
        g, train, valid, test = load_dataset(str(tmp_path))
        assert len(g.relations) == 2
        assert len(train) == 3
        assert valid == [] and test == []

    def test_first_appearance_ids(self, tmp_path):
        self._write(tmp_path, "train.txt", ["r\tzebra\tapple"])
        g, *_ = load_dataset(str(tmp_path))
        assert g.node_names == ["zebra", "apple"]

    def test_inconsistent_arity(self, tmp_path):
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, "test.txt", ["r\ta\tb\tc"])
        with pytest.raises(InconsistentArity):
            load_dataset(str(tmp_path))

    def test_missing_train_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(str(tmp_path))

    def test_short_line(self, tmp_path):
        self._write(tmp_path, "train.txt", ["lonely_relation"])
        with pytest.raises(ParseError):
            load_dataset(str(tmp_path))

    def test_query_only_relation_gets_id(self, tmp_path):
        # A relation that only appears in test still enters the vocabulary.
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, "test.txt", ["s\ta\tb"])
        g, _, _, test = load_dataset(str(tmp_path))
        assert {r.name for r in g.relations} == {"r", "s"}
        assert len(g.edges) == 1  # graph built from train facts only
        assert len(test) == 1

    def test_round_trip_fixpoint(self, tmp_path):
        self._write(
            tmp_path,
            "train.txt",
            ["studied\ta\tb\tc\td", "knows\ta\tb"],
        )
        self._write(tmp_path, "valid.txt", ["knows\tb\tc"])
        self._write(tmp_path, "test.txt", ["knows\tc\td"])
        g, train, valid, test = load_dataset(str(tmp_path))
        out = tmp_path / "copy"
        save_dataset(str(out), g, {"train": train, "valid": valid, "test": test})
        g2, train2, valid2, test2 = load_dataset(str(out))
        assert g2.node_names == g.node_names
        assert [r.name for r in g2.relations] == [r.name for r in g.relations]
        assert (train2, valid2, test2) == (train, valid, test)

    def test_pinned_dictionaries(self, tmp_path):
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, "entities.dict", ["0\tb", "1\ta"])
        self._write(tmp_path, "relations.dict", ["0\tr"])
        g, *_ = load_dataset(str(tmp_path))
        assert g.node_names == ["b", "a"]
        assert g.edges[0].nodes == (1, 0)

    def test_pinned_dictionaries_out_of_id_order(self, tmp_path):
        # Names and relations are listed in id order, whatever the file order.
        self._write(tmp_path, "train.txt", ["s\ta\tb\tc", "r\tc\ta"])
        self._write(tmp_path, "entities.dict", ["2\ta", "0\tc", "1\tb"])
        self._write(tmp_path, "relations.dict", ["1\ts", "2\tq", "0\tr"])
        g, train, *_ = load_dataset(str(tmp_path))
        assert g.node_names == ["c", "b", "a"]
        assert g.relations == [Relation(0, "r", 2), Relation(1, "s", 3), Relation(2, "q", 2)]
        assert train == [HyperEdge(1, (2, 1, 0)), HyperEdge(0, (0, 2))]

    def test_unpinned_entity_missing_from_dict(self, tmp_path):
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, "entities.dict", ["0\ta"])
        with pytest.raises(ParseError):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("bad_id", ["x", "-1", "1.0", "\u00b2", ""])
    @pytest.mark.parametrize("name", ["entities.dict", "relations.dict"])
    def test_dict_id_not_a_non_negative_integer(self, tmp_path, name, bad_id):
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, name, ["# ids", f"{bad_id}\ta"])
        with pytest.raises(ParseError, match=f"{name}:2: id "):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name, lines, fault", [
        ("train.txt", ["r\ta\tb", "r\tb\t"], "train.txt:2: empty entity name"),
        ("train.txt", ["r\ta\tb", "r\t\tb"], "train.txt:2: empty entity name"),
        ("train.txt", ["r\ta\tb", "\ta\tb"], "train.txt:2: empty relation name"),
        ("entities.dict", ["0\ta", "1\tb", "2\t"], "entities.dict:3: empty name"),
        ("relations.dict", ["0\tr", "1\t"], "relations.dict:2: empty name"),
    ], ids=["trailing-tab", "inner-tab", "leading-tab", "entities.dict", "relations.dict"])
    def test_empty_name(self, tmp_path, name, lines, fault):
        # A trailing TAB read as an entity named '', a leading one as a relation named ''.
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, name, lines)
        with pytest.raises(ParseError, match=fault):
            load_dataset(str(tmp_path))

    def test_relation_missing_from_dict(self, tmp_path):
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, "test.txt", ["r\tb\ta", "s\ta\tb"])
        self._write(tmp_path, "relations.dict", ["0\tr"])
        with pytest.raises(ParseError, match="relation s missing from relations.dict"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("train, test, error, message", [
        (["r\ta\tb", "r\ta\tzz"], ["r\ta\tb\ta"], ParseError, "entity zz missing"),
        (["r\ta\tb", "s\ta\tb"], ["r\ta"], ParseError, "relation s missing"),
        (["r\ta\tb", "r\ta"], ["lonely"], InconsistentArity, "relation r: arity 2 vs 1"),
    ], ids=["entity-before-arity", "relation-before-arity", "arity-before-short-line"])
    def test_first_fault_in_file_order(self, tmp_path, train, test, error, message):
        # Each split holds a fault; the one in train.txt is reported.
        self._write(tmp_path, "train.txt", train)
        self._write(tmp_path, "test.txt", test)
        self._write(tmp_path, "entities.dict", ["0\ta", "1\tb"])
        self._write(tmp_path, "relations.dict", ["0\tr"])
        with pytest.raises(error, match=message):
            load_dataset(str(tmp_path))

    def test_dict_id_repeated(self, tmp_path):
        # Two names on one id would make r(a, b) the self-loop r(0, 0).
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, "entities.dict", ["0\ta", "0\tb"])
        with pytest.raises(ParseError, match="entities.dict:2: id 0 "):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name, lines", [
        ("entities.dict", ["0\ta", "7\tb"]),
        ("relations.dict", ["0\tr", "2\ts"]),
    ])
    def test_dict_ids_with_a_gap(self, tmp_path, name, lines):
        # A gap made nameless nodes, or an ArityMismatch for relations.
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, name, lines)
        with pytest.raises(ParseError, match=f"{name}: ids must be 0..1, but 1 is missing"):
            load_dataset(str(tmp_path))

    def test_dict_name_repeated(self, tmp_path):
        # The last id won, and id 0 was left a nameless node.
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, "entities.dict", ["0\ta", "1\ta", "2\tb"])
        with pytest.raises(ParseError, match="entities.dict:2: name 'a' "):
            load_dataset(str(tmp_path))

    def test_dict_huge_id_sizes_nothing(self, tmp_path):
        # A billion-entry name list was allocated before anything was checked.
        self._write(tmp_path, "train.txt", ["r\ta\tb"])
        self._write(tmp_path, "entities.dict", ["0\ta", "1000000000\tb"])
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="1 is missing"):
                load_dataset(str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_duplicate_facts_kept_as_distinct_edges(seed):
    rng = np.random.default_rng(seed)
    g = random_hypergraph(rng)
    doubled = build_graph(g.relations, g.edges + g.edges, g.node_count, g.node_color)
    assert len(doubled.edges) == 2 * len(g.edges)
    for v in range(g.node_count):
        assert len(incidence(doubled, v)) == 2 * len(incidence(g, v))
