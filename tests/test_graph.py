"""Graph construction, file formats, attribute tables, contraction."""

import pytest

from commbench import (
    MISSING,
    DataError,
    Graph,
    build_meta_graph,
    induced_subgraph,
    load_attributes,
    load_edge_list,
    without_self_loops,
    write_edge_list,
)
from conftest import make_micro, random_graph


class TestGraphConstruction:
    def test_degrees_and_total_weight(self, barbell6):
        assert barbell6.n == 6
        assert barbell6.m == 7.0
        assert barbell6.degrees == [2.0, 2.0, 3.0, 3.0, 2.0, 2.0]
        assert sum(barbell6.degrees) == 2.0 * barbell6.m

    def test_self_loop_counts_once_in_m_twice_in_degree(self):
        g = Graph(["a", "b"], [(0, 1, 1.0), (0, 0, 2.0)], allow_self_loops=True)
        assert g.m == 3.0
        assert g.degrees == [5.0, 1.0]
        assert g.loops == [2.0, 0.0]
        assert g.adj[0] == [(1, 1.0)]

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(DataError, match="self-loop"):
            Graph(["a"], [(0, 0, 1.0)])

    def test_duplicate_edge_rejected_either_direction(self):
        with pytest.raises(DataError, match="duplicate edge"):
            Graph(["a", "b"], [(0, 1, 1.0), (1, 0, 2.0)])

    def test_duplicate_self_loop_rejected(self):
        with pytest.raises(DataError, match="duplicate self-loop"):
            Graph(["a"], [(0, 0, 1.0), (0, 0, 1.0)], allow_self_loops=True)

    def test_bad_weight_and_range(self):
        with pytest.raises(DataError, match="non-positive weight"):
            Graph(["a", "b"], [(0, 1, 0.0)])
        with pytest.raises(DataError, match="outside node range"):
            Graph(["a", "b"], [(0, 2, 1.0)])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight(self, weight):
        with pytest.raises(DataError, match="non-finite weight"):
            Graph(["a", "b"], [(0, 1, weight)])

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_in_file_reports_line(self, tmp_path, weight):
        # the total weight would be nan, and Louvain would return singletons
        path = tmp_path / "g.edges"
        path.write_text(f"a b\na c {weight}\n")
        with pytest.raises(DataError, match=r"g\.edges:2: weight must be positive and finite"):
            load_edge_list(path)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DataError, match="not unique"):
            Graph(["a", "a"], [])

    def test_neighbors_sorted(self):
        g = Graph(["a", "b", "c"], [(0, 2, 1.0), (0, 1, 2.0)])
        assert g.adj[0] == [(1, 2.0), (2, 1.0)]

    def test_edges_iteration_order(self):
        g = Graph(["a", "b", "c"], [(1, 2, 1.0), (0, 1, 2.0), (0, 0, 3.0)],
                  allow_self_loops=True)
        assert list(g.edges()) == [(0, 1, 2.0), (1, 2, 1.0), (0, 0, 3.0)]
        assert g.edge_count() == 3

    def test_index_of_unknown_label(self, barbell6):
        assert barbell6.index_of("3") == 3
        with pytest.raises(DataError, match="unknown node label"):
            barbell6.index_of("nope")


class TestEdgeListIO:
    def test_round_trip(self, tmp_path, barbell6):
        path = tmp_path / "g.edges"
        write_edge_list(barbell6, path)
        again = load_edge_list(path)
        assert again == barbell6

    def test_weighted_round_trip(self, tmp_path):
        g = make_micro("wpath3")
        path = tmp_path / "w.edges"
        write_edge_list(g, path)
        text = path.read_text()
        assert "2.0" in text and "0.5" in text
        assert load_edge_list(path) == g

    def test_comments_blanks_and_first_seen_order(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\nx y\nz x 2.5\n")
        g = load_edge_list(path)
        assert g.labels == ["x", "y", "z"]
        assert g.m == 3.5

    def test_label_starting_with_hash_reports_line(self, tmp_path):
        # cover and attribute files skip '#' lines, so such a node would be
        # lost from every community and attribute row written for it
        path = tmp_path / "g.edges"
        path.write_text("a c\nc d\na #b\n#b c\n")
        with pytest.raises(DataError, match=r"g\.edges:3: node label '#b' starts with '#'"):
            load_edge_list(path)
        path.write_text("a c\nc d#\n")
        assert load_edge_list(path).labels == ["a", "c", "d#"]

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b c d\n")
        with pytest.raises(DataError, match=r"g\.edges:1"):
            load_edge_list(path)

    def test_bad_weight_reports_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b\na c ouch\n")
        with pytest.raises(DataError, match=r":2: bad weight"):
            load_edge_list(path)

    def test_nonpositive_weight(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b -1\n")
        with pytest.raises(DataError, match="positive"):
            load_edge_list(path)

    def test_duplicate_edge_reports_both_lines(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b\nb c\nb a 2\n")
        with pytest.raises(DataError, match=r":3: duplicate edge \(first seen at line 1\)"):
            load_edge_list(path)

    def test_self_loop_rejected_unless_enabled(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a a\n")
        with pytest.raises(DataError, match="self-loop"):
            load_edge_list(path)
        g = load_edge_list(path, allow_self_loops=True)
        assert g.loops == [1.0]


class TestAttributeTable:
    def write(self, tmp_path, text):
        path = tmp_path / "attrs.tsv"
        path.write_text(text)
        return path

    def test_basic_load_and_missing_padding(self, tmp_path, barbell6):
        path = self.write(tmp_path, "id\tdorm\tyear\n0\tA\t1930\n1\tB\n3\t\t1931\n")
        attrs = load_attributes(path, barbell6)
        assert attrs.names == ["dorm", "year"]
        assert attrs.column("dorm") == ["A", "B", MISSING, MISSING, MISSING, MISSING]
        assert attrs.column("year") == ["1930", MISSING, MISSING, "1931", MISSING, MISSING]
        assert attrs.has("dorm") and not attrs.has("house")

    def test_unknown_label_errors_with_line(self, tmp_path, barbell6):
        path = self.write(tmp_path, "id\tdorm\n9\tA\n")
        with pytest.raises(DataError, match=r":2: unknown node label '9'"):
            load_attributes(path, barbell6)

    def test_duplicate_row_rejected(self, tmp_path, barbell6):
        path = self.write(tmp_path, "id\tdorm\n0\tA\n0\tB\n")
        with pytest.raises(DataError, match="duplicate row"):
            load_attributes(path, barbell6)

    def test_duplicate_attribute_name_rejected(self, tmp_path, barbell6):
        # a repeated column would otherwise overwrite the earlier one
        path = self.write(tmp_path, "# comment\nnode\tx\tx\n0\tA\tB\n")
        with pytest.raises(DataError, match=r"attrs\.tsv:2: attribute names must be unique"):
            load_attributes(path, barbell6)

    def test_too_many_fields_rejected(self, tmp_path, barbell6):
        path = self.write(tmp_path, "id\tdorm\n0\tA\textra\n")
        with pytest.raises(DataError, match="more fields than header"):
            load_attributes(path, barbell6)

    def test_headerless_file_rejected(self, tmp_path, barbell6):
        path = self.write(tmp_path, "# only a comment\n")
        with pytest.raises(DataError, match="no header"):
            load_attributes(path, barbell6)

    def test_unknown_attribute_lookup(self, tmp_path, barbell6):
        path = self.write(tmp_path, "id\tdorm\n0\tA\n")
        attrs = load_attributes(path, barbell6)
        with pytest.raises(DataError, match="unknown attribute"):
            attrs.column("year")


class TestInducedSubgraph:
    def test_triangle_extraction(self, barbell6):
        sub, mapping = induced_subgraph(barbell6, [2, 0, 1])
        assert mapping == [0, 1, 2]
        assert sub.labels == ["0", "1", "2"]
        assert sub.m == 3.0

    def test_cross_edges_dropped(self, barbell6):
        sub, mapping = induced_subgraph(barbell6, [2, 3])
        assert mapping == [2, 3]
        assert list(sub.edges()) == [(0, 1, 1.0)]

    def test_loops_carry_over(self):
        g = Graph(["a", "b"], [(0, 1, 1.0), (1, 1, 2.0)], allow_self_loops=True)
        sub, mapping = induced_subgraph(g, [1])
        assert mapping == [1]
        assert sub.loops == [2.0]

    def test_out_of_range_node(self, barbell6):
        with pytest.raises(DataError, match="outside graph"):
            induced_subgraph(barbell6, [0, 6])


class TestMetaGraph:
    def test_barbell_contraction(self, barbell6):
        meta = build_meta_graph(barbell6, [[0, 1, 2], [3, 4, 5]], labels=["L", "R"])
        assert meta.labels == ["L", "R"]
        assert meta.loops == [3.0, 3.0]
        assert meta.adj[0] == [(1, 1.0)]
        assert meta.m == barbell6.m
        assert sum(meta.degrees) == 2.0 * meta.m

    def test_member_loops_fold_into_block_loop(self):
        g = Graph(["a", "b", "c"], [(0, 1, 1.0), (0, 0, 2.0), (1, 2, 1.0)],
                  allow_self_loops=True)
        meta = build_meta_graph(g, [[0, 1], [2]])
        assert meta.loops == [3.0, 0.0]
        assert meta.m == g.m

    def test_uncovered_nodes_dropped(self, barbell6):
        meta = build_meta_graph(barbell6, [[0, 1, 2]])
        assert meta.n == 1
        assert meta.m == 3.0

    def test_overlapping_blocks_rejected(self, barbell6):
        with pytest.raises(DataError, match="overlapping blocks"):
            build_meta_graph(barbell6, [[0, 1], [1, 2]])

    def test_label_count_mismatch(self, barbell6):
        with pytest.raises(DataError, match="labels do not match"):
            build_meta_graph(barbell6, [[0], [1]], labels=["only"])

    def test_weight_preserved_on_random_graphs(self, rng):
        for _ in range(20):
            g, _ = random_graph(rng, max_n=9, allow_self_loops=True, weighted=True)
            half = list(range(0, g.n, 2)), list(range(1, g.n, 2))
            meta = build_meta_graph(g, [half[0], half[1]])
            assert meta.m == pytest.approx(g.m, abs=1e-12)
            assert sum(meta.degrees) == pytest.approx(2.0 * meta.m, abs=1e-9)


def test_without_self_loops():
    g = Graph(["a", "b"], [(0, 1, 1.0), (0, 0, 2.0)], allow_self_loops=True)
    plain = without_self_loops(g)
    assert plain.loops == [0.0, 0.0]
    assert plain.m == 1.0
    assert plain.labels == g.labels
