"""Louvain behavior: optimality on micro graphs, determinism, level structure."""

import os
import random
import time

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
from commbench.bench import LOUVAIN_GRID
from commbench.detectors import louvain as louvain_module
from commbench.detectors.louvain import (
    _forked_map,
    _one_level,
    _usable_cpus,
    louvain,
    louvain_sweep,
)
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


def serial_communities(graph, t, multi_level):
    """A cover's communities at t, from one in-process louvain run."""
    levels = louvain(graph, t)
    chosen = levels if multi_level else levels[-1:]
    return list(dict.fromkeys(frozenset(c) for p in chosen for c in p.communities()))


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to this process during the test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


class TestSweep:
    GRAPH = generate_planted(
        PlantedPartitionSpec(n=200, groups=8, p_in=0.3, p_out=0.02, seed=2)
    )[0]

    @pytest.mark.parametrize("multi_level", [False, True])
    def test_covers_are_the_serial_runs(self, multi_level):
        covers = louvain_sweep(self.GRAPH, LOUVAIN_GRID, multi_level=multi_level)
        want = [serial_communities(self.GRAPH, t, multi_level) for t in LOUVAIN_GRID]
        assert [cover.communities for cover in covers] == want
        if multi_level:
            assert any(len(louvain(self.GRAPH, t)) > 1 for t in LOUVAIN_GRID)

    def test_workers_fork_when_two_cpus_are_usable(self, forks):
        cpus = _usable_cpus()
        if cpus < 2:
            pytest.skip("the sweep forks only with two or more usable CPUs")
        covers = louvain_sweep(self.GRAPH, LOUVAIN_GRID)
        assert len(forks) == min(cpus, len(LOUVAIN_GRID))
        want = [serial_communities(self.GRAPH, t, False) for t in LOUVAIN_GRID]
        assert [cover.communities for cover in covers] == want

    def test_one_cpu_starts_no_process(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        covers = louvain_sweep(self.GRAPH, LOUVAIN_GRID)
        assert forks == []
        want = [serial_communities(self.GRAPH, t, False) for t in LOUVAIN_GRID]
        assert [cover.communities for cover in covers] == want

    def test_one_value_starts_no_process(self, forks):
        cover = detect_cover(self.GRAPH, "louvain", 0.5, multi_level=True)
        assert forks == []
        assert cover.communities == serial_communities(self.GRAPH, 0.5, True)

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        def failing(graph, t):
            if t == LOUVAIN_GRID[2]:
                raise DataError(f"no levels at t={t}")
            return louvain(graph, t)

        monkeypatch.setattr(louvain_module, "louvain", failing)
        with pytest.raises(DataError) as info:
            louvain_sweep(self.GRAPH, LOUVAIN_GRID)
        assert info.type is DataError
        assert str(info.value) == f"no levels at t={LOUVAIN_GRID[2]}"

    def test_values_go_to_whichever_worker_is_free(self):
        # while one worker sleeps on the first value, the other takes the rest
        def pid_after(seconds):
            time.sleep(seconds)
            return os.getpid()

        pids = _forked_map(pid_after, [0.5, 0, 0, 0, 0], 2)
        assert len(set(pids[1:])) == 1
        assert os.getpid() != pids[0] != pids[1] != os.getpid()

    def test_a_worker_that_dies_is_an_error(self):
        with pytest.raises(ChildProcessError, match="ended without an answer"):
            _forked_map(lambda v: os._exit(3) if v == 2 else v, [1, 2, 3], 2)
