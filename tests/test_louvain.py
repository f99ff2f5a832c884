"""Louvain behavior: optimality on micro graphs, determinism, level structure."""

import random

import pytest

from commbench import (
    DataError,
    Graph,
    Partition,
    PlantedPartitionSpec,
    build_meta_graph,
    detect_cover,
    generate_planted,
    parameterized_modularity,
)
from commbench.detectors.louvain import _one_level, louvain
from conftest import (
    MICRO_GRAPHS,
    CountingList,
    float_planted_graph,
    heavy_tailed_graph,
    make_micro,
    tie_prone_graphs,
)
from oracles import enumerate_partitions, louvain_level_oracle


class TestMicroOptimality:
    @pytest.mark.parametrize("name", sorted(MICRO_GRAPHS))
    def test_exhaustive_maximum(self, name):
        g = make_micro(name)
        for t in (0.2, 0.5, 1.0):
            best = max(
                parameterized_modularity(g, Partition(a), t)
                for a in enumerate_partitions(g.n)
            )
            got = parameterized_modularity(g, louvain(g, t)[-1], t)
            assert got == pytest.approx(best, abs=1e-12), (name, t)

    def test_barbell_argmax_structures(self, barbell6):
        final = louvain(barbell6, 1.0)[-1]
        assert set(map(frozenset, final.communities())) == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }
        fine = louvain(barbell6, 0.2)[-1]
        assert fine.n_communities == 6


class TestDeterminismAndStructure:
    def test_repeat_runs_identical(self, barbell6):
        a = louvain(barbell6, 1.0)
        b = louvain(barbell6, 1.0)
        assert [p.assignment for p in a] == [p.assignment for p in b]
        assert [parameterized_modularity(barbell6, p, 1.0) for p in a] == [
            parameterized_modularity(barbell6, p, 1.0) for p in b
        ]

    def test_levels_project_to_original_nodes(self):
        g = make_micro("kite7")
        for level in louvain(g, 1.0):
            assert len(level.assignment) == g.n

    def test_objectives_non_decreasing(self):
        for name in ("kite7", "cycle6", "barbell6"):
            g = make_micro(name)
            for t in (0.2, 0.5, 1.0):
                obj = [
                    parameterized_modularity(g, level, t)
                    for level in louvain(g, t)
                ]
                assert all(b >= a - 1e-12 for a, b in zip(obj, obj[1:]))

    def test_coarser_levels_nest(self):
        # every later-level community is a union of earlier-level communities
        g = make_micro("kite7")
        levels = louvain(g, 1.0)
        for fine, coarse in zip(levels, levels[1:]):
            fine_of = {}
            for v in range(g.n):
                fine_of.setdefault(coarse.assignment[v], set()).add(fine.assignment[v])
            blocks = [frozenset(m) for m in fine_of.values()]
            assert sum(len(b) for b in blocks) == len(set().union(*blocks))

    def test_edgeless_graph_single_singleton_level(self):
        g = Graph(["a", "b", "c"], [])
        levels = louvain(g, 0.5)
        assert len(levels) == 1
        assert levels[-1].n_communities == 3
        assert [parameterized_modularity(g, p, 0.5) for p in levels] == [0.5]

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError, match="empty graph"):
            louvain(Graph([], []), 1.0)

    def test_disjoint_components_never_merge_at_full_time(self):
        g = make_micro("twotri")
        final = louvain(g, 1.0)[-1]
        assert set(map(frozenset, final.communities())) == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }

    def test_markov_time_domain(self, barbell6):
        for t in (0.0, 1.5):
            with pytest.raises(ValueError):
                louvain(barbell6, t)


class TestMultiLevelCover:
    def test_flat_cover_is_final_level(self):
        g = make_micro("kite7")
        final = [frozenset(c) for c in louvain(g, 1.0)[-1].communities()]
        assert detect_cover(g, "louvain", 1.0).communities == final

    def test_cover_is_union_of_levels(self):
        spec = PlantedPartitionSpec(n=60, groups=4, p_in=0.3, p_out=0.05, seed=1)
        g, _, _ = generate_planted(spec)
        levels = louvain(g, 1.0)
        assert len(levels) > 1
        expected = []
        for level in levels:
            expected.extend(frozenset(c) for c in level.communities())
        cover = detect_cover(g, "louvain", 1.0, multi_level=True)
        assert cover.communities == list(dict.fromkeys(expected))
        assert len(cover) > levels[-1].n_communities

    def test_cover_exact_duplicates_removed(self, barbell6):
        comms = detect_cover(barbell6, "louvain", 1.0, multi_level=True).communities
        assert len(comms) == len(set(comms))


class TestMovePhaseMatchesOracle:
    CASES = tie_prone_graphs(random.Random(61))
    # large enough that the skip test fires: from the fourth sweep on, most
    # nodes of the float-weighted graph keep their community unscanned
    LARGE = [
        ("float-planted300", float_planted_graph(3)),
        ("heavy-tailed2000", heavy_tailed_graph(2000, 11)),
    ]

    @pytest.mark.parametrize("name, graph", CASES, ids=[name for name, _ in CASES])
    def test_same_moves_as_sorted_scan(self, name, graph):
        for t in (0.1, 0.5, 1.0):
            assert _one_level(graph, t) == louvain_level_oracle(graph, t), t

    @pytest.mark.parametrize("name, graph", LARGE, ids=[name for name, _ in LARGE])
    def test_large_graph_every_level(self, name, graph):
        for t in (0.1, 0.5, 1.0):
            current = graph
            while True:
                assignment, moved = _one_level(current, t)
                assert (assignment, moved) == louvain_level_oracle(current, t), (t, current)
                if not moved:
                    break
                current = build_meta_graph(current, Partition(assignment).communities())

    def test_skipped_nodes_are_not_scanned(self):
        # the oracle reads every node's neighbours in every sweep; the skip
        # test must spare some of those reads and still give its answer
        graph = float_planted_graph(3)
        ids, weights = graph.neighbour_lists()
        graph._lists = CountingList(ids), weights
        got = _one_level(graph, 0.1)
        fast = graph._lists[0].reads
        graph._adj = CountingList(graph.adj)
        want = louvain_level_oracle(graph, 0.1)
        slow = graph._adj.reads
        assert got == want
        assert 0 < fast < 0.9 * slow

    def test_doubled_weights_give_the_unit_graph_levels(self):
        # doubling every weight scales each gain by 2 exactly, so the
        # weighted sums must move the nodes the unit-weight counts move
        unit = heavy_tailed_graph(2000, 11)
        assert (unit.weights == 1.0).all()
        doubled = Graph.from_arrays(unit.labels, unit.lo, unit.hi, 2.0 * unit.weights)
        for t in (0.1, 0.5, 1.0):
            assert louvain(doubled, t) == louvain(unit, t), t

    def test_every_aggregation_level(self):
        # meta-graphs add self-loops and summed weights to the ties
        for name, graph in self.CASES:
            current = graph
            while True:
                assignment, moved = _one_level(current, 1.0)
                assert (assignment, moved) == louvain_level_oracle(current, 1.0), name
                if not moved:
                    break
                current = build_meta_graph(current, Partition(assignment).communities())
