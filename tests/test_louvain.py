"""Louvain behavior: optimality on micro graphs, determinism, level structure."""

import random

import pytest

from commbench import (
    Cover,
    DataError,
    Graph,
    Partition,
    ResolutionParams,
    build_meta_graph,
    parameterized_modularity,
)
from commbench.detectors.louvain import _one_level, louvain
from conftest import MICRO_GRAPHS, make_micro, tie_prone_graphs
from oracles import enumerate_partitions, louvain_level_oracle


def params(t):
    return ResolutionParams(markov_time=t)


class TestMicroOptimality:
    @pytest.mark.parametrize("name", sorted(MICRO_GRAPHS))
    def test_exhaustive_maximum(self, name):
        g = make_micro(name)
        for t in (0.2, 0.5, 1.0):
            best = max(
                parameterized_modularity(g, Partition(a), t)
                for a in enumerate_partitions(g.n)
            )
            got = parameterized_modularity(g, louvain(g, params(t)).levels[-1], t)
            assert got == pytest.approx(best, abs=1e-12), (name, t)

    def test_barbell_argmax_structures(self, barbell6):
        final = louvain(barbell6, params(1.0)).levels[-1]
        assert set(map(frozenset, final.communities())) == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }
        fine = louvain(barbell6, params(0.2)).levels[-1]
        assert fine.n_communities == 6


class TestDeterminismAndStructure:
    def test_repeat_runs_identical(self, barbell6):
        a = louvain(barbell6, params(1.0))
        b = louvain(barbell6, params(1.0))
        assert [p.assignment for p in a.levels] == [p.assignment for p in b.levels]
        assert [parameterized_modularity(barbell6, p, 1.0) for p in a.levels] == [
            parameterized_modularity(barbell6, p, 1.0) for p in b.levels
        ]

    def test_levels_project_to_original_nodes(self):
        g = make_micro("kite7")
        res = louvain(g, params(1.0))
        for level in res.levels:
            assert len(level.assignment) == g.n

    def test_objectives_non_decreasing(self):
        for name in ("kite7", "cycle6", "barbell6"):
            g = make_micro(name)
            for t in (0.2, 0.5, 1.0):
                obj = [
                    parameterized_modularity(g, level, t)
                    for level in louvain(g, params(t)).levels
                ]
                assert all(b >= a - 1e-12 for a, b in zip(obj, obj[1:]))

    def test_coarser_levels_nest(self):
        # every later-level community is a union of earlier-level communities
        g = make_micro("kite7")
        res = louvain(g, params(1.0))
        for fine, coarse in zip(res.levels, res.levels[1:]):
            fine_of = {}
            for v in range(g.n):
                fine_of.setdefault(coarse.assignment[v], set()).add(fine.assignment[v])
            blocks = [frozenset(m) for m in fine_of.values()]
            assert sum(len(b) for b in blocks) == len(set().union(*blocks))

    def test_edgeless_graph_single_singleton_level(self):
        g = Graph(["a", "b", "c"], [])
        res = louvain(g, params(0.5))
        assert len(res.levels) == 1
        assert res.levels[-1].n_communities == 3
        assert [parameterized_modularity(g, p, 0.5) for p in res.levels] == [0.5]

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError, match="empty graph"):
            louvain(Graph([], []), params(1.0))

    def test_disjoint_components_never_merge_at_full_time(self):
        g = make_micro("twotri")
        final = louvain(g, params(1.0)).levels[-1]
        assert set(map(frozenset, final.communities())) == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }

    def test_markov_time_domain(self, barbell6):
        for t in (0.0, 1.5):
            with pytest.raises(ValueError):
                louvain(barbell6, params(t))


class TestMultiLevelCover:
    def test_flat_run_has_no_cover(self, barbell6):
        assert louvain(barbell6, params(1.0)).cover is None

    def test_cover_is_union_of_levels(self):
        g = make_micro("kite7")
        res = louvain(g, params(1.0), multi_level=True)
        assert isinstance(res.cover, Cover)
        expected = set()
        for level in res.levels:
            expected.update(frozenset(c) for c in level.communities())
        assert set(res.cover.communities) == expected
        assert res.cover.provenance.startswith("louvain(t=1")
        assert "multilevel" in res.cover.provenance

    def test_cover_exact_duplicates_removed(self, barbell6):
        res = louvain(barbell6, params(1.0), multi_level=True)
        comms = res.cover.communities
        assert len(comms) == len(set(comms))


class TestMovePhaseMatchesOracle:
    CASES = tie_prone_graphs(random.Random(61))

    @pytest.mark.parametrize("name, graph", CASES, ids=[name for name, _ in CASES])
    def test_same_moves_as_sorted_scan(self, name, graph):
        for t in (0.1, 0.5, 1.0):
            assert _one_level(graph, t) == louvain_level_oracle(graph, t), t

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
