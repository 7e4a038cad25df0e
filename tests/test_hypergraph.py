"""Data model: incidence structure, permutations, dataset round-trips."""

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
