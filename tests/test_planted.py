"""Planted-partition generator: spec validation, determinism, edge structure."""

import logging
import tracemalloc

import numpy as np
import pytest

from commbench import DataError, PlantedPartitionSpec, generate_planted
from commbench.covers import Partition
from commbench.gbdt import seed_entropy
from commbench.planted import _sample_pairs


def listed_pair_edges(spec):
    """Sorted (m, 2) edges of ``spec``, with every within-group pair listed by
    ``np.triu_indices`` and indexed by the sampled pair numbers."""
    size = spec.n // spec.groups
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy(spec.seed)))
    iu, ju = np.triu_indices(size, k=1)
    parts = []
    for a in range(spec.groups):
        idx = _sample_pairs(rng, len(iu), spec.p_in)
        parts.append(np.column_stack((a * size + iu[idx], a * size + ju[idx])))
    for a in range(spec.groups):
        for b in range(a + 1, spec.groups):
            p = spec.p_mid if spec.hierarchy and a // 2 == b // 2 else spec.p_out
            idx = _sample_pairs(rng, size * size, p)
            parts.append(np.column_stack((a * size + idx // size, b * size + idx % size)))
    edges = np.concatenate(parts)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n=0, groups=1, p_in=0.5, p_out=0.1), "divide"),
            (dict(n=10, groups=3, p_in=0.5, p_out=0.1), "divide"),
            (dict(n=10, groups=0, p_in=0.5, p_out=0.1), "divide"),
            (dict(n=10, groups=2, p_in=0.5, p_out=0.5), "p_out < p_in"),
            (dict(n=10, groups=2, p_in=1.2, p_out=0.1), "p_out < p_in"),
            (dict(n=10, groups=2, p_in=0.5, p_out=-0.1), "p_out < p_in"),
            (dict(n=12, groups=3, p_in=0.9, p_out=0.1, hierarchy=True, p_mid=0.5), "even"),
            (dict(n=12, groups=2, p_in=0.9, p_out=0.1, hierarchy=True), "p_mid"),
            (
                dict(n=12, groups=2, p_in=0.9, p_out=0.1, hierarchy=True, p_mid=0.95),
                "p_mid",
            ),
            # a flat graph would silently ignore p_mid
            (
                dict(n=12, groups=2, p_in=0.9, p_out=0.1, p_mid=0.4),
                "p_mid applies only with hierarchy",
            ),
        ],
    )
    def test_rejections(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PlantedPartitionSpec(**kwargs).validate()

    def test_valid_specs_pass(self):
        PlantedPartitionSpec(n=12, groups=4, p_in=0.9, p_out=0.1).validate()
        PlantedPartitionSpec(
            n=16, groups=4, p_in=0.9, p_out=0.05, hierarchy=True, p_mid=0.4
        ).validate()

    def test_group_helpers(self):
        spec = PlantedPartitionSpec(n=12, groups=4, p_in=0.9, p_out=0.1)
        assert spec.group_sets() == [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}]

    def test_super_groups_pair_consecutive_groups(self):
        spec = PlantedPartitionSpec(
            n=16, groups=4, p_in=0.9, p_out=0.05, hierarchy=True, p_mid=0.4
        )
        assert spec.super_group_sets() == [set(range(0, 8)), set(range(8, 16))]

    def test_super_groups_require_hierarchy(self):
        with pytest.raises(DataError, match="two-level"):
            PlantedPartitionSpec(n=8, groups=2, p_in=0.9, p_out=0.1).super_group_sets()


class TestGeneration:
    def test_labels_truth_and_attributes(self):
        spec = PlantedPartitionSpec(n=12, groups=3, p_in=1.0, p_out=0.0)
        graph, truth, attrs = generate_planted(spec)
        assert graph.labels == [str(i) for i in range(12)]
        assert truth == Partition([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
        assert attrs.names == ["block"]
        assert attrs.column("block") == ["0"] * 4 + ["1"] * 4 + ["2"] * 4

    def test_extreme_probabilities_give_disjoint_cliques(self):
        spec = PlantedPartitionSpec(n=12, groups=3, p_in=1.0, p_out=0.0)
        graph, _, _ = generate_planted(spec)
        # every within-group pair present, no cross edges at all
        assert graph.m == 3 * 6
        for v in range(12):
            neighbors = {u for u, _ in graph.adj[v]}
            assert neighbors == {u for u in range(12) if u // 4 == v // 4 and u != v}

    def test_edges_respect_block_probabilities_zero_and_one(self):
        spec = PlantedPartitionSpec(
            n=16, groups=4, p_in=1.0, p_out=0.0, hierarchy=True, p_mid=0.0
        )
        graph, _, _ = generate_planted(spec)
        assert graph.m == 4 * 6

    def test_hierarchy_mid_edges_stay_inside_super_groups(self):
        spec = PlantedPartitionSpec(
            n=24, groups=4, p_in=1.0, p_out=0.0, hierarchy=True, p_mid=0.5, seed=3
        )
        graph, truth, _ = generate_planted(spec)
        group = truth.assignment
        crossing = 0
        for v in range(graph.n):
            for u, _ in graph.adj[v]:
                if v < u and group[v] != group[u]:
                    crossing += 1
                    assert v // 12 == u // 12  # same super-group
        assert crossing > 0

    def test_same_seed_same_graph(self):
        spec = PlantedPartitionSpec(n=40, groups=4, p_in=0.6, p_out=0.05, seed=11)
        a, _, _ = generate_planted(spec)
        b, _, _ = generate_planted(spec)
        assert a.m == b.m
        for v in range(a.n):
            assert sorted(a.adj[v]) == sorted(b.adj[v])

    def test_different_seed_differs(self):
        base = dict(n=40, groups=4, p_in=0.6, p_out=0.05)
        a, _, _ = generate_planted(PlantedPartitionSpec(seed=1, **base))
        b, _, _ = generate_planted(PlantedPartitionSpec(seed=2, **base))
        edges = lambda g: {(v, u) for v in range(g.n) for u, _ in g.adj[v] if v < u}
        assert edges(a) != edges(b)

    def test_invalid_spec_rejected_at_generation(self):
        with pytest.raises(ValueError):
            generate_planted(PlantedPartitionSpec(n=10, groups=3, p_in=0.9, p_out=0.1))

    def test_disconnected_draw_logged(self, caplog):
        spec = PlantedPartitionSpec(n=8, groups=2, p_in=1.0, p_out=0.0)
        with caplog.at_level(logging.WARNING, logger="commbench.planted"):
            generate_planted(spec)
        assert "disconnected" in caplog.text

    def test_edge_probabilities_land_near_expectation(self):
        # statistical sanity at a fixed seed, generous margins
        spec = PlantedPartitionSpec(n=200, groups=4, p_in=0.4, p_out=0.02, seed=5)
        graph, truth, _ = generate_planted(spec)
        group = truth.assignment
        within = 0
        cross = 0
        for v in range(graph.n):
            for u, _ in graph.adj[v]:
                if v < u:
                    if group[v] == group[u]:
                        within += 1
                    else:
                        cross += 1
        expected_within = 4 * (50 * 49 / 2) * 0.4
        expected_cross = 6 * 50 * 50 * 0.02
        assert abs(within - expected_within) < 0.2 * expected_within
        assert abs(cross - expected_cross) < 0.35 * expected_cross

    @pytest.mark.parametrize(
        "spec",
        [
            PlantedPartitionSpec(n=1, groups=1, p_in=1.0, p_out=0.0),
            PlantedPartitionSpec(n=2, groups=1, p_in=1.0, p_out=0.0),
            PlantedPartitionSpec(n=12, groups=3, p_in=1.0, p_out=0.0),
            PlantedPartitionSpec(n=40, groups=4, p_in=0.6, p_out=0.05, seed=11),
            PlantedPartitionSpec(n=90, groups=3, p_in=0.1, p_out=0.01, seed=2),
            PlantedPartitionSpec(
                n=64, groups=4, p_in=0.7, p_out=0.01, seed=5, hierarchy=True, p_mid=0.2
            ),
        ],
    )
    def test_pairs_decode_as_listed(self, spec):
        graph, _, _ = generate_planted(spec)
        assert np.array_equal(np.column_stack((graph.lo, graph.hi)), listed_pair_edges(spec))

    def test_sparse_group_does_not_list_its_pairs(self):
        # listing a 3,000-node group's 4.5M pairs as two int64 arrays peaked
        # near 80 MB, whatever p_in
        spec = PlantedPartitionSpec(n=3000, groups=1, p_in=1e-6, p_out=0.0)
        tracemalloc.start()
        try:
            generate_planted(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000
