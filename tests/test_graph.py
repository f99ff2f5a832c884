"""Graph construction, file formats, attribute tables, contraction."""

import random
from itertools import combinations

import numpy as np
import pytest

import commbench.graph
from commbench import (
    MISSING,
    AttributeTable,
    DataError,
    Graph,
    PlantedPartitionSpec,
    build_meta_graph,
    detect_cover,
    generate_planted,
    induced_subgraph,
    load_attributes,
    load_edge_list,
    without_self_loops,
    write_edge_list,
)
from commbench.detectors import DETECTORS, edge_similarity
from commbench.graph import _SPACE
from conftest import make_micro, random_graph
from oracles import GraphOracle, build_meta_graph_oracle, load_edge_list_oracle


def exact(graph):
    """Everything a graph derives, as text that differs whenever a bit does."""
    return repr((graph.labels, graph.adj, graph.loops, graph.degrees, graph.m))


def outcome(build, *args, **kwargs):
    try:
        return "graph", exact(build(*args, **kwargs))
    except DataError as exc:
        return "error", str(exc)


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

    @pytest.mark.parametrize(
        "i, j, weights",
        [([0, 1, 2], [3], [1.0] * 3), ([0, 1, 2], [3, 3, 3], [1.0])],
        ids=["one-endpoint", "one-weight"],
    )
    def test_from_arrays_refuses_arrays_of_other_lengths(self, i, j, weights):
        # numpy would broadcast the one-endpoint case into a star on node 3
        with pytest.raises(DataError, match=r"equally long, got shapes .*\(1,\)"):
            Graph.from_arrays(list("abcd"), i, j, weights)

    @pytest.mark.parametrize(
        "edges, bad",
        [
            ([(0, 1, 2.0, 7), (1, 2, 1.0)], r"edge 0 .*: \(0, 1, 2\.0, 7\)"),
            ([(0, 1, 2.0), (1, 2)], r"edge 1 .*: \(1, 2\)"),
        ],
        ids=["four-field", "two-field"],
    )
    def test_edge_that_is_not_a_triple_is_refused(self, edges, bad):
        # zip(*edges) would silently cut the four-field edge down to a triple
        with pytest.raises(DataError, match=f"{bad}$"):
            Graph(list("abc"), edges)

    def test_total_weight_is_a_left_to_right_sum(self, compensated_sum):
        # ten disjoint edges of weight 0.1; a compensated sum gives m = 1.0
        labels = [str(v) for v in range(20)]
        g = Graph.from_arrays(labels, range(0, 20, 2), range(1, 20, 2), [0.1] * 10)
        assert g.m == 1.0000000000000002

    def test_neighbors_sorted(self):
        g = Graph(["a", "b", "c"], [(0, 2, 1.0), (0, 1, 2.0)])
        assert g.adj[0] == [(1, 2.0), (2, 1.0)]

    def test_edges_iteration_order(self):
        g = Graph(["a", "b", "c"], [(1, 2, 1.0), (0, 1, 2.0), (0, 0, 3.0)],
                  allow_self_loops=True)
        assert list(g.edges()) == [(0, 1, 2.0), (1, 2, 1.0), (0, 0, 3.0)]
        assert g.edge_count() == 3

    def test_adjacency_shares_ids_and_weights(self):
        # one int object per node and one float per edge, as in a per-edge build
        n = 300
        g = Graph([f"v{k}" for k in range(n)], [(k, (7 * k + 1) % n, k + 0.25) for k in range(n)])
        ids, weights = g.neighbour_lists()
        first = {}
        for i in range(n):
            assert ids[i] == sorted(ids[i])
            for j, w in zip(ids[i], weights[i]):
                assert first.setdefault(j, j) is j
                assert weights[j][ids[j].index(i)] is w
        assert g.neighbour_lists() is g.neighbour_lists()
        # the library view pairs up the same objects
        assert all(
            a is j and b is w
            for i in range(n)
            for (a, b), j, w in zip(g.adj[i], ids[i], weights[i])
        )

    def test_adjacency_built_on_first_use(self):
        g = Graph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 2.0)])
        assert g._lists is None and g._adj is None
        assert g.edge_count() == 2 and g.degrees == [1.0, 3.0, 2.0]
        assert list(g.edges()) == [(0, 1, 1.0), (1, 2, 2.0)]
        assert g._lists is None and g._adj is None
        assert g.neighbour_lists() == ([[1], [0, 2], [1]], [[1.0], [1.0, 2.0], [2.0]])
        assert g._adj is None
        assert g.adj == [[(1, 1.0)], [(0, 1.0), (2, 2.0)], [(1, 2.0)]]

    def test_arrays_hold_sorted_proper_edges(self):
        g = Graph(["a", "b", "c"], [(2, 1, 1.0), (1, 0, 2.0), (0, 0, 3.0)],
                  allow_self_loops=True)
        assert g.lo.tolist() == [0, 1] and g.hi.tolist() == [1, 2]
        assert g.weights.tolist() == [2.0, 1.0]
        start, neighbour, edge = g.neighbours()
        assert start.tolist() == [0, 1, 3, 4]
        assert neighbour.tolist() == [1, 0, 2, 1]
        assert edge.tolist() == [0, 0, 1, 1]

    def test_matches_per_edge_oracle(self, rng):
        # random triples with the constructor's faults mixed in
        for _ in range(300):
            n = rng.randint(1, 8)
            allow = rng.random() < 0.5
            edges = []
            for _ in range(rng.randint(0, 14)):
                i, j = rng.randrange(n), rng.randrange(n)
                w = rng.choice([1.0, 2.0, rng.uniform(0.1, 3.0)])
                if rng.random() < 0.05:
                    i = rng.choice([-1, n])
                if rng.random() < 0.05:
                    w = rng.choice([0.0, -1.0, float("inf"), float("nan")])
                edges.append((i, j, w))
            labels = [f"v{k}" for k in range(n)]
            want = outcome(GraphOracle, labels, edges, allow_self_loops=allow)
            assert outcome(Graph, labels, edges, allow_self_loops=allow) == want, edges

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

    def test_empty_node_id_header_rejected(self, tmp_path, barbell6):
        path = self.write(tmp_path, "# comment\n\tdorm\n0\tA\n")
        with pytest.raises(DataError, match=r"attrs\.tsv:2: node-id column missing"):
            load_attributes(path, barbell6)

    def test_column_of_wrong_length_rejected(self):
        with pytest.raises(DataError, match="attribute 'dorm' has 2 rows, expected 3"):
            AttributeTable(["dorm"], {"dorm": ["A", "B"]}, 3)

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

    def test_matches_filtered_edges(self, rng):
        for _ in range(50):
            g, edges = random_graph(rng, max_n=12, allow_self_loops=True, weighted=True)
            sub, mapping = induced_subgraph(g, [v for v in range(g.n) if rng.random() < 0.6])
            pos = {v: k for k, v in enumerate(mapping)}
            kept = [(pos[i], pos[j], w) for i, j, w in edges if i in pos and j in pos]
            want = GraphOracle([g.labels[v] for v in mapping], kept, allow_self_loops=True)
            assert exact(sub) == exact(want)


def test_program_paths_leave_adj_unbuilt():
    # the package walks neighbour_lists(); graph.adj is a library view only
    spec = PlantedPartitionSpec(n=120, groups=4, p_in=0.3, p_out=0.02, seed=5)
    graph = generate_planted(spec)[0]
    for name, kind in DETECTORS.items():
        detect_cover(graph, name, kind.default, **dict.fromkeys(kind.flags, True))
        if kind.sweep is not None:
            kind.sweep(graph, kind.grid)
    sub, _ = induced_subgraph(graph, range(0, graph.n, 2))
    (a, b), (c, d) = zip(graph.lo[:2].tolist(), graph.hi[:2].tolist())
    assert edge_similarity(graph, (a, b), (c, d)) is not None
    assert graph._lists is not None
    assert graph._adj is None and sub._lists is None and sub._adj is None


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

    @pytest.mark.parametrize("member", [6, -1])
    def test_member_outside_graph_rejected(self, barbell6, member):
        with pytest.raises(DataError, match=f"node {member} outside graph with 6 nodes"):
            build_meta_graph(barbell6, [[0, 1], [2, member]])

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


LABEL_POOL = [str(k) for k in range(10)] + ["n7", "x_y", "a#b", "Ω", "node-3", "0.5", "300"]
SEPARATORS = [" ", "\t", "  ", " \t ", "\x0b", "\x1f", "\xa0", " "]
# every fault load_edge_list reports, as a line-maker over (rng, labels, edges)
FAULTS = {
    "fields": lambda rng, labels, edges: rng.choice(
        [[labels[0]], [labels[0], labels[1], "1", "x"]]
    ),
    "bad weight": lambda rng, labels, edges: [
        labels[0], labels[1], rng.choice(["x1", "1..2", "--1", "0x10", "1,5"])
    ],
    "non-positive": lambda rng, labels, edges: [
        labels[0], labels[1], rng.choice(["0", "-1", "-0.0", "0e5", "-2.5e-1"])
    ],
    "non-finite": lambda rng, labels, edges: [
        labels[0], labels[1], rng.choice(["inf", "nan", "-inf", "1e400", "Infinity"])
    ],
    "hash label": lambda rng, labels, edges: [rng.choice(labels), "#" + rng.choice(labels)],
    "self-loop": lambda rng, labels, edges: [labels[0], labels[0]],
    "duplicate": lambda rng, labels, edges: list(rng.choice(edges))[:: rng.choice([1, -1])],
    "several": lambda rng, labels, edges: [labels[1], "#" + labels[0], "-1"],
}


def weight_text(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return str(rng.randint(1, 5))
    if kind == 1:
        return repr(rng.uniform(0.1, 4.0))
    if kind == 2:
        return f"{rng.uniform(1, 9):.4f}e{rng.randint(-3, 3)}"
    if kind == 3:
        return f"{rng.randint(1, 9)}E+{rng.randint(0, 2)}"
    return f".{rng.randint(1, 99)}"


def fuzz_edge_file(rng):
    """A random edge list's text and whether it may hold self-loops.

    Lines mix spaces, tabs and other whitespace, 2- and 3-field edges,
    comments, blank lines and CRLF or CR endings; a faulty file gets one
    line of each of some fault kinds, each at a random place.
    """
    allow = rng.random() < 0.3
    labels = rng.sample(LABEL_POOL, rng.randint(2, len(LABEL_POOL)))
    pairs = list(combinations(labels, 2))
    rng.shuffle(pairs)
    edges = pairs[: rng.randint(1, 30)]
    if allow:
        edges += [(u, u) for u in labels if rng.random() < 0.2]
    rng.shuffle(edges)
    rows = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        rows.append([u, v] + ([weight_text(rng)] if rng.random() < 0.5 else []))
        if rng.random() < 0.15:
            rows.append(rng.choice([[], ["#", "comment"], ["#x", "y", "z"]]))
    if rng.random() < 0.5:
        for kind in rng.sample(sorted(FAULTS), rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), FAULTS[kind](rng, labels, edges))
    endings = rng.choice([["\n"], ["\r\n"], ["\n", "\r\n", "\r"]])
    parts = []
    for fields in rows:
        sep = rng.choice(SEPARATORS[:2] if rng.random() < 0.7 else SEPARATORS)
        lead = rng.choice(["", "", " ", "\t"])
        trail = rng.choice(["", "", " ", "\t "])
        parts.append(lead + sep.join(fields) + trail + rng.choice(endings))
    if parts and rng.random() < 0.2:
        parts[-1] = parts[-1].rstrip("\r\n")
    return "".join(parts), allow


class TestLoaderOracle:
    def test_fuzzed_files_match_per_line_loader(self, tmp_path, monkeypatch):
        rng = random.Random(20261018)
        kinds = {"graph": 0, "error": 0}
        for k in range(400):
            # small chunks put chunk boundaries between faults and their twins
            monkeypatch.setattr(
                commbench.graph, "READ_CHUNK", rng.choice([1 << 18, rng.randint(1, 64)])
            )
            text, allow = fuzz_edge_file(rng)
            path = tmp_path / f"f{k}.edges"
            path.write_bytes(text.encode("utf-8"))
            want = outcome(load_edge_list_oracle, path, allow_self_loops=allow)
            assert outcome(load_edge_list, path, allow_self_loops=allow) == want, path.read_bytes()
            kinds[want[0]] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_space_table_is_str_split(self):
        # code points above the table's end must not be spaces
        spaces = [c for c in range(0x110000) if chr(c).isspace()]
        assert max(spaces) < len(_SPACE) - 1
        assert np.flatnonzero(_SPACE).tolist() == spaces


class TestMetaGraphOracle:
    def test_float_weights_bit_identical(self, rng):
        for _ in range(100):
            n = rng.randint(2, 14)
            edges = [
                (i, j, rng.uniform(0.1, 3.0))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            edges += [(i, i, rng.uniform(0.1, 3.0)) for i in range(n) if rng.random() < 0.3]
            rng.shuffle(edges)
            labels = [str(i) for i in range(n)]
            graph = Graph(labels, edges, allow_self_loops=True)
            reference = GraphOracle(labels, edges, allow_self_loops=True)
            assert exact(graph) == exact(reference)
            nodes = [v for v in range(n) if rng.random() < 0.85]
            rng.shuffle(nodes)
            cuts = sorted(rng.sample(range(1, len(nodes) + 1), min(len(nodes), rng.randint(1, 4))))
            blocks = [nodes[a:b] for a, b in zip([0] + cuts, cuts)]
            got = build_meta_graph(graph, blocks)
            assert exact(got) == exact(build_meta_graph_oracle(reference, blocks)), blocks
