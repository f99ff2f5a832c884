"""Block-wise adjacency ordering: permutations, nested ranges, file output."""

import pytest

from commbench import (
    AttributeTable,
    DataError,
    Graph,
    order_adjacency,
    write_ordering,
)
from commbench.graph import MISSING
from conftest import random_graph


def table(n, values, name="dorm"):
    return AttributeTable([name], {name: list(values)}, n)


def four_block_graph(small_cd=True):
    """Blocks A,B,C,D; A-B and C-D are tightly coupled block pairs."""
    sizes = {"A": 2, "B": 2, "C": 2, "D": 2}
    if not small_cd:
        sizes["C"] = sizes["D"] = 3
    labels = []
    values = []
    starts = {}
    for name in "ABCD":
        starts[name] = len(labels)
        for k in range(sizes[name]):
            labels.append(f"{name}{k}")
            values.append(name)
    edges = []
    for name in "ABCD":
        base = starts[name]
        for k in range(sizes[name] - 1):
            edges.append((base + k, base + k + 1, 1.0))
    for left, right in (("A", "B"), ("C", "D")):
        for k in range(min(sizes[left], sizes[right])):
            edges.append((starts[left] + k, starts[right] + k, 1.0))
    graph = Graph(labels, edges)
    return graph, table(graph.n, values)


class TestWorkedExamples:
    def test_barbell_blocks_merge_into_one_meta_group(self, barbell6):
        attrs = table(6, ["A", "A", "A", "B", "B", "B"])
        ordering = order_adjacency(barbell6, attrs, "dorm")
        assert ordering.order == [0, 1, 2, 3, 4, 5]
        assert ordering.block_ranges == [(0, 3, "A"), (3, 6, "B")]
        # the bridge is the only between-block signal, so the meta level
        # groups both triangles together
        assert ordering.meta_ranges == [(0, 6, "A+B")]

    def test_communities_inside_one_block_stay_contiguous(self, barbell6):
        attrs = table(6, ["X"] * 6)
        ordering = order_adjacency(barbell6, attrs, "dorm")
        assert ordering.order == [0, 1, 2, 3, 4, 5]
        assert ordering.block_ranges == [(0, 6, "X")]
        assert ordering.meta_ranges == [(0, 6, "X")]

    def test_coupled_block_pairs_form_meta_groups(self):
        graph, attrs = four_block_graph()
        ordering = order_adjacency(graph, attrs, "dorm")
        assert ordering.meta_ranges == [(0, 4, "A+B"), (4, 8, "C+D")]
        assert ordering.block_ranges == [
            (0, 2, "A"),
            (2, 4, "B"),
            (4, 6, "C"),
            (6, 8, "D"),
        ]

    def test_meta_groups_ordered_by_node_count_then_label(self):
        graph, attrs = four_block_graph(small_cd=False)
        ordering = order_adjacency(graph, attrs, "dorm")
        # C+D now spans 6 nodes and moves ahead of the 4-node A+B
        assert [r[2] for r in ordering.meta_ranges] == ["C+D", "A+B"]
        assert ordering.meta_ranges[0] == (0, 6, "C+D")

    def test_unlabeled_nodes_trail_in_index_order(self, barbell6):
        attrs = table(6, ["A", MISSING, "A", "B", "B", MISSING])
        ordering = order_adjacency(barbell6, attrs, "dorm")
        assert ordering.order[-2:] == [1, 5]
        assert ordering.block_ranges == [(0, 2, "A"), (2, 4, "B")]
        assert all(end <= 4 for _, end, _ in ordering.meta_ranges)


class TestValidation:
    def test_unknown_attribute(self, barbell6):
        with pytest.raises(DataError, match="unknown attribute"):
            order_adjacency(barbell6, table(6, ["A"] * 6), "house")

    def test_all_missing_attribute(self, barbell6):
        with pytest.raises(DataError, match="no non-missing"):
            order_adjacency(barbell6, table(6, [MISSING] * 6), "dorm")


class TestStructuralInvariants:
    def check(self, graph, attrs, attribute="dorm"):
        ordering = order_adjacency(graph, attrs, attribute)
        column = attrs.column(attribute)
        assert sorted(ordering.order) == list(range(graph.n))
        unlabeled = [v for v in range(graph.n) if column[v] is MISSING]
        labeled_count = graph.n - len(unlabeled)
        assert ordering.order[labeled_count:] == unlabeled
        # block ranges tile the labeled prefix in order
        cursor = 0
        for start, end, label in ordering.block_ranges:
            assert start == cursor and end > start
            assert all(column[v] == label for v in ordering.order[start:end])
            cursor = end
        assert cursor == labeled_count
        # every block range nests in exactly one meta range
        cursor = 0
        for start, end, label in ordering.meta_ranges:
            assert start == cursor and end > start
            inside = [b for b in ordering.block_ranges if start <= b[0] and b[1] <= end]
            assert sum(b[1] - b[0] for b in inside) == end - start
            assert label == "+".join(sorted(b[2] for b in inside))
            cursor = end
        assert cursor == labeled_count
        return ordering

    def test_random_graphs_and_attributes(self, rng):
        for _ in range(50):
            graph, _ = random_graph(rng, max_n=12)
            pool = ["A", "B", "C", MISSING]
            values = [rng.choice(pool) for _ in range(graph.n)]
            if all(v is MISSING for v in values):
                values[0] = "A"
            self.check(graph, table(graph.n, values))

    def test_deterministic(self, rng):
        for _ in range(10):
            graph, _ = random_graph(rng, max_n=10)
            values = [rng.choice(["A", "B"]) for _ in range(graph.n)]
            attrs = table(graph.n, values)
            a = order_adjacency(graph, attrs, "dorm")
            b = order_adjacency(graph, attrs, "dorm")
            assert a.order == b.order
            assert a.block_ranges == b.block_ranges
            assert a.meta_ranges == b.meta_ranges

    def test_custom_resolution_accepted(self, barbell6):
        attrs = table(6, ["A", "A", "A", "B", "B", "B"])
        ordering = order_adjacency(barbell6, attrs, "dorm", t=0.3)
        assert sorted(ordering.order) == list(range(6))


class TestWriteOrdering:
    def test_file_contents(self, tmp_path, barbell6):
        attrs = table(6, ["A", "A", "A", "B", "B", "B"])
        ordering = order_adjacency(barbell6, attrs, "dorm")
        order_path = tmp_path / "plot.order"
        ranges_path = tmp_path / "plot.ranges"
        write_ordering(ordering, barbell6, order_path, ranges_path)
        assert order_path.read_text() == "".join(f"{i} {i}\n" for i in range(6))
        assert ranges_path.read_text() == (
            "meta 0 6 A+B\nblock 0 3 A\nblock 3 6 B\n"
        )
