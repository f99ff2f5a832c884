"""Edge-similarity values, dendrogram structure, cuts, and the size filter."""

import random
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from commbench import (
    Cover,
    DataError,
    Dendrogram,
    Graph,
    MethodSpec,
    PlantedPartitionSpec,
    build_meta_graph,
    combine_runs,
    cut_link_dendrogram,
    detect_cover,
    edge_similarity,
    generate_planted,
    link_clustering,
    method_cover,
)
from commbench.detectors import linkclust
from commbench.detectors.linkclust import sweep_link_dendrogram
from conftest import four_group_spec, heavy_tailed_graph, random_graph
from oracles import edge_components_oracle, link_clustering_oracle, pair_heights_oracle


def path3_plus_k5():
    """Disjoint path (3 nodes, 2 edges) next to a complete K5."""
    edges = [(0, 1, 1.0), (1, 2, 1.0)]
    edges += [(i, j, 1.0) for i, j in combinations(range(3, 8), 2)]
    return Graph([str(i) for i in range(8)], edges)


class TestEdgeSimilarity:
    def test_barbell_hand_values(self, barbell6):
        assert edge_similarity(barbell6, (0, 1), (0, 2)) == pytest.approx(0.75, abs=1e-15)
        assert edge_similarity(barbell6, (2, 3), (0, 2)) == pytest.approx(1 / 6, abs=1e-15)

    def test_non_adjacent_edges_score_none(self, barbell6):
        assert edge_similarity(barbell6, (0, 1), (3, 4)) is None

    def test_identical_edge_scores_none(self, barbell6):
        assert edge_similarity(barbell6, (0, 1), (1, 0)) is None

    def test_symmetry(self, barbell6):
        for ea, eb in (((0, 1), (0, 2)), ((2, 3), (3, 4))):
            assert edge_similarity(barbell6, ea, eb) == edge_similarity(barbell6, eb, ea)

    def test_weights_ignored(self):
        g1 = Graph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)])
        g9 = Graph(["a", "b", "c"], [(0, 1, 9.0), (1, 2, 0.5)])
        assert edge_similarity(g1, (0, 1), (1, 2)) == edge_similarity(g9, (0, 1), (1, 2))


def star_glued_to_clique(leaves, clique):
    """Hub 0 with `leaves` pendant nodes, also a member of a `clique`-node clique."""
    members = [0] + list(range(leaves + 1, leaves + clique))
    edges = [(0, i, 1.0) for i in range(1, leaves + 1)]
    edges += [(i, j, 1.0) for i, j in combinations(members, 2)]
    return Graph([str(i) for i in range(leaves + clique)], edges)


def disjoint_union(graphs, isolated=0):
    """The graphs side by side, then `isolated` nodes with no edge."""
    labels, edges = [], []
    for g in graphs:
        base = len(labels)
        edges += [(base + i, base + j, w) for i, j, w in g.edges()]
        labels += [str(base + i) for i in range(g.n)]
    labels += [str(len(labels) + k) for k in range(isolated)]
    return Graph(labels, edges, allow_self_loops=True)


def two_hub_graph(leaves):
    """Two non-adjacent hubs 0 and 1, both joined to every one of `leaves` nodes.

    The hubs' node pair turns up once per leaf, so the (intersection, union)
    code table spans about one entry per edge pair, its widest.
    """
    edges = [(hub, leaf, 1.0) for hub in (0, 1) for leaf in range(2, leaves + 2)]
    return Graph([str(i) for i in range(leaves + 2)], edges)


def pair_count(graph):
    deg = np.bincount(np.concatenate((graph.lo, graph.hi)), minlength=graph.n)
    return int((deg * (deg - 1) // 2).sum())


def pair_heights(graph):
    """``_pair_heights`` over the graph's edges, as ``link_clustering`` calls it."""
    deg = np.bincount(np.concatenate((graph.lo, graph.hi)), minlength=graph.n)
    return linkclust._pair_heights(graph, deg)


def pair_build_cases():
    """(name, graph) pairs, each with at least one non-loop edge."""
    rng = random.Random(41)
    cases = []
    for k in range(14):
        g, _ = random_graph(rng, max_n=(6, 12, 25)[k % 3], allow_self_loops=k % 2 == 1)
        cases.append((f"random{k}", g))
    for leaves, clique in ((5, 4), (12, 5), (30, 6), (9, 9)):
        cases.append((f"star{leaves}+k{clique}", star_glued_to_clique(leaves, clique)))
    for k in range(5):
        parts = [random_graph(rng, max_n=10)[0] for _ in range(2 + k % 2)]
        cases.append((f"disjoint{k}", disjoint_union(parts, isolated=k)))
    cases.append(("hub-pair", disjoint_union([star_glued_to_clique(20, 3)] * 2, 3)))
    for k in range(5):
        g, _ = random_graph(rng, max_n=30)
        nodes = list(range(g.n))
        rng.shuffle(nodes)
        size = 2 + k % 3
        blocks = [nodes[b:b + size] for b in range(0, g.n, size)]
        meta = build_meta_graph(g, blocks)
        if any(i != j for i, j, _ in meta.edges()):
            cases.append((f"meta{k}", meta))
    for seed in (3, 4):
        cases.append((f"planted{seed}", generate_planted(four_group_spec(seed))[0]))
    return cases


class TestPairBuild:
    CASES = pair_build_cases()
    HEAVY = [
        ("heavy-tailed2000", heavy_tailed_graph(2000, 11)),
        ("two-hub300", two_hub_graph(300)),
    ]

    @pytest.mark.parametrize("name, graph", CASES + HEAVY, ids=[n for n, _ in CASES + HEAVY])
    def test_height_ranks_match_float_reference(self, name, graph):
        # random13 has no edge pair: its code table holds no code at all
        pair, rank, heights = pair_heights(graph)
        assert len(np.unique(pair)) == len(pair) == pair_count(graph)
        want_rank, want_heights = pair_heights_oracle(graph, pair)
        assert np.array_equal(heights, want_heights)  # exact floats
        assert np.array_equal(rank, want_rank)

    @pytest.mark.parametrize("name, graph", CASES, ids=[name for name, _ in CASES])
    def test_matches_per_pair_oracle(self, name, graph):
        got = link_clustering(graph)
        want = link_clustering_oracle(graph)
        assert got.leaves == want.leaves
        assert got.merges == want.merges  # exact floats, same order

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_walk_slices_match_oracle(self, chunk, monkeypatch):
        # the default slice outgrows every case above; small ones carry
        # cluster roots from slice to slice
        monkeypatch.setattr(linkclust, "WALK_CHUNK", chunk)
        for name, graph in self.CASES[::3]:
            assert link_clustering(graph).merges == link_clustering_oracle(graph).merges, name

    @pytest.mark.parametrize("chunk", [3, linkclust.WALK_CHUNK])
    def test_unpacked_order_matches_oracle(self, chunk, monkeypatch):
        # keys wider than the bit budget are ordered without packing: the
        # node pairs (with their indices) and the walk each by a lexsort
        sorts = []
        numpy_lexsort, numpy_argsort = np.lexsort, np.argsort

        def lexsort(keys):
            sorts.append(("lexsort", len(keys[0])))
            return numpy_lexsort(keys)

        def argsort(a, **kwargs):
            sorts.append(("argsort", len(a)))
            return numpy_argsort(a, **kwargs)

        monkeypatch.setattr(linkclust, "KEY_BITS", 0)
        monkeypatch.setattr(linkclust, "WALK_CHUNK", chunk)
        monkeypatch.setattr(linkclust.np, "lexsort", lexsort)
        monkeypatch.setattr(linkclust.np, "argsort", argsort)
        for name, graph in self.CASES[1::3]:
            sorts.clear()
            assert link_clustering(graph).merges == link_clustering_oracle(graph).merges, name
            npairs = pair_count(graph)
            # the first argsort orders the half-edges by keystone
            assert sorts[1:] == [("lexsort", npairs), ("lexsort", npairs)], name
            pair, rank, heights = pair_heights(graph)
            want_rank, want_heights = pair_heights_oracle(graph, pair)
            assert np.array_equal(heights, want_heights), name
            assert np.array_equal(rank, want_rank), name

    def test_long_path_matches_oracle(self):
        # all but the end pairs share one height, so edge ids order the walk
        # and one slice hooks the edges into chains tens of thousands of links
        # long; resolving them a link per pass would take minutes
        n = 60_000
        g = Graph.from_arrays(
            [str(i) for i in range(n)], np.arange(n - 1), np.arange(1, n), np.ones(n - 1)
        )
        start = time.perf_counter()
        got = link_clustering(g)
        elapsed = time.perf_counter() - start
        assert got.merges == link_clustering_oracle(g).merges
        assert elapsed < 5.0

    def test_pair_count_bound_names_hub(self):
        leaves = 1
        while leaves * (leaves - 1) // 2 <= linkclust.MAX_EDGE_PAIRS:
            leaves += 1
        g = Graph(
            ["hub"] + [f"leaf{i}" for i in range(leaves)],
            [(0, i, 1.0) for i in range(1, leaves + 1)],
        )
        count = leaves * (leaves - 1) // 2
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(
                DataError,
                match=rf"{count} edge pairs.*bound of {linkclust.MAX_EDGE_PAIRS}"
                rf".*'hub' has the highest degree \({leaves}\)",
            ):
                link_clustering(g)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 16 * 2**20  # one int32 per pair would already be 114 MB

    def test_pair_count_bound_is_inclusive(self, barbell6, monkeypatch):
        count = sum(len(a) * (len(a) - 1) // 2 for a in barbell6.adj)
        monkeypatch.setattr(linkclust, "MAX_EDGE_PAIRS", count)
        assert len(link_clustering(barbell6).merges) == 6
        monkeypatch.setattr(linkclust, "MAX_EDGE_PAIRS", count - 1)
        with pytest.raises(DataError, match=f"{count} edge pairs"):
            link_clustering(barbell6)

    def test_matching_has_no_pairs(self):
        g = Graph([str(i) for i in range(6)], [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
        for top in (1.0, 0.5):
            dend = link_clustering(g, top)
            assert dend.leaves == [(0, 1), (2, 3), (4, 5)]
            assert dend.merges == []
        pair, rank, heights = pair_heights(g)
        assert len(pair) == len(rank) == len(heights) == 0

    @pytest.mark.parametrize(
        "name, graph",
        [HEAVY[0], ("two-hub1000", two_hub_graph(1000))],
        ids=["heavy-tailed2000", "two-hub1000"],
    )
    def test_build_peak_per_pair(self, name, graph):
        # MAX_EDGE_PAIRS is sized from this figure; the walk's slice
        # workspace is fixed, so the graphs are large enough that the pair
        # arrays set the peak
        link_clustering(graph)
        tracemalloc.start()
        try:
            link_clustering(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / pair_count(graph) <= 53


class TestDendrogram:
    def test_barbell_merge_heights(self, barbell6):
        dend = link_clustering(barbell6)
        assert [round(h, 6) for _, _, h in dend.merges] == [
            0.0, 0.0, 0.25, 0.25, round(5 / 6, 6), round(5 / 6, 6),
        ]

    def test_heights_non_decreasing(self, barbell6):
        heights = [h for _, _, h in link_clustering(barbell6).merges]
        assert heights == sorted(heights)

    def test_no_edges_rejected(self):
        with pytest.raises(DataError, match="at least one edge"):
            link_clustering(Graph(["a", "b"], []))

    def test_loops_excluded_from_leaves(self):
        g = Graph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0), (1, 1, 4.0)],
                  allow_self_loops=True)
        dend = link_clustering(g)
        assert dend.leaves == [(0, 1), (1, 2)]

    def test_merges_span_the_forest_in_height_order(self):
        rng = random.Random(29)
        for _ in range(30):
            g, _ = random_graph(rng, max_n=12)
            dend = link_clustering(g)
            assert isinstance(dend, Dendrogram)
            heights = [h for _, _, h in dend.merges]
            assert heights == sorted(heights)
            assert len(dend.merges) == len(dend.leaves) - len(dend.cut(1.0))

    @pytest.mark.parametrize("top", [1.0, 0.5])
    @pytest.mark.parametrize(
        "name, graph", TestPairBuild.HEAVY, ids=[name for name, _ in TestPairBuild.HEAVY]
    )
    def test_heavy_merges_span_the_forest(self, name, graph, top):
        # the sweep never checks whether a merge joins a cluster to itself:
        # every merge of a Kruskal forest lowers the cluster count by one
        dend = link_clustering(graph, top)
        assert np.all(np.diff(dend.heights) >= 0)
        assert len(dend.merges) == len(dend.leaves) - len(dend.cut(top))

    def test_cut_matches_component_oracle(self):
        rng = random.Random(13)
        for _ in range(20):
            g, _ = random_graph(rng, max_n=8)
            edges = [(i, j) for i, j, _ in g.edges()]
            sims = {}
            for ea, eb in combinations(edges, 2):
                s = edge_similarity(g, ea, eb)
                if s is not None:
                    sims[(ea, eb)] = s
            dend = link_clustering(g)
            for pct in (10, 40, 75, 100):
                cut = pct / 100.0
                got = {
                    frozenset(dend.leaves[i] for i in cluster)
                    for cluster in dend.cut(cut)
                }
                want = edge_components_oracle(edges, sims, cut)
                assert got == want, (pct, edges)


class TestCutCover:
    def test_filter_drops_three_node_two_edge_cluster(self):
        g = path3_plus_k5()
        dend = link_clustering(g)
        # before filtering, the cut really does contain the 2-edge path cluster
        raw = {frozenset(dend.leaves[i] for i in c) for c in dend.cut(0.7)}
        assert frozenset({(0, 1), (1, 2)}) in raw
        cover = cut_link_dendrogram(dend, 70, g)
        assert cover.communities == [frozenset({3, 4, 5, 6, 7})]

    def test_barbell_cuts(self, barbell6):
        dend = link_clustering(barbell6)
        # triangles span only 3 nodes, so mid cuts keep nothing
        assert cut_link_dendrogram(dend, 50, barbell6).communities == []
        full = cut_link_dendrogram(dend, 90, barbell6)
        assert full.communities == [frozenset(range(6))]

    def test_threshold_validation(self, barbell6):
        dend = link_clustering(barbell6)
        for bad in (0, 101, -5):
            with pytest.raises(ValueError, match="between 1 and 100"):
                cut_link_dendrogram(dend, bad, barbell6)
        for bad in (0.5, "50", True, np.float64(50), np.bool_(True)):
            with pytest.raises(ValueError, match="integer"):
                cut_link_dendrogram(dend, bad, barbell6)
        for t in (50, 90):
            want = cut_link_dendrogram(dend, t, barbell6).communities
            for numpy_int in (np.int64(t), np.int32(t), np.uint8(t)):
                assert cut_link_dendrogram(dend, numpy_int, barbell6).communities == want
                assert detect_cover(barbell6, "linkcluster", numpy_int).communities == want
        grid = np.arange(10, 101, 10)
        want = sweep_link_dendrogram(dend, grid.tolist(), barbell6)
        got = sweep_link_dendrogram(dend, grid, barbell6)
        assert [c.communities for c in got] == [c.communities for c in want]

    def test_duplicate_node_sets_collapse(self):
        # two 4-cliques sharing no similarity structure with each other,
        # plus a pendant turning one clique's spanned set into a duplicate
        edges = [(i, j, 1.0) for i, j in combinations(range(4), 2)]
        edges += [(i, j, 1.0) for i, j in combinations(range(4, 8), 2)]
        g = Graph([str(i) for i in range(8)], edges)
        cover = detect_cover(g, "linkcluster", 100)
        assert sorted(sorted(c) for c in cover.communities) == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
        ]

    def test_detect_cover_dispatch(self, barbell6):
        cover = detect_cover(barbell6, "linkcluster", 90)
        assert cover.communities == [frozenset(range(6))]


def cut_cover(dendrogram, threshold_percent, graph):
    """One threshold's cover, spanned from the leaf lists of ``Dendrogram.cut``.

    Clusters come in the order of their smallest leaf; those with fewer than
    3 edges or 4 nodes are dropped, then exact duplicates.
    """
    communities = []
    for leaf_ids in dendrogram.cut(threshold_percent / 100.0):
        nodes = {v for eid in leaf_ids for v in dendrogram.leaves[eid]}
        if len(leaf_ids) >= 3 and len(nodes) >= 4:
            communities.append(frozenset(nodes))
    return Cover(graph.n, dict.fromkeys(communities))


class TestSweep:
    # a planted graph large enough that many clusters pass at once and keep
    # growing across the grid
    CASES = TestPairBuild.CASES + [
        (
            "planted300",
            generate_planted(
                PlantedPartitionSpec(n=300, groups=6, p_in=0.3, p_out=0.02, seed=5)
            )[0],
        )
    ]

    @pytest.mark.parametrize("name, graph", CASES, ids=[name for name, _ in CASES])
    def test_matches_per_threshold_cuts(self, name, graph):
        dend = link_clustering(graph)
        grid = list(range(1, 101))
        for t, got in zip(grid, sweep_link_dendrogram(dend, grid, graph)):
            want = cut_cover(dend, t, graph)
            assert got.communities == want.communities, t  # same order too

    def test_unsorted_repeated_grid(self):
        graph = self.CASES[-1][1]
        dend = link_clustering(graph)
        covers = sweep_link_dendrogram(dend, [80, 70, 80], graph)
        want = [cut_cover(dend, t, graph).communities for t in (80, 70, 80)]
        assert want[0] != want[1]
        assert [c.communities for c in covers] == want
        pooled = method_cover(
            graph,
            MethodSpec("m", "linkcluster-sweep", {"thresholds": (80, 70, 80), "dedup": False}),
        )
        want = combine_runs([cut_cover(dend, t, graph) for t in (80, 70, 80)])
        assert pooled.communities == want.communities

    def test_one_threshold_is_the_cut(self):
        # a lone threshold starts the walk from scratch, with no lower heights
        for name, graph in self.CASES[::4]:
            dend = link_clustering(graph)
            for t in (1, 35, 70, 100):
                want = cut_cover(dend, t, graph)
                for got in (
                    sweep_link_dendrogram(dend, [t], graph)[0],
                    cut_link_dendrogram(dend, t, graph),
                ):
                    assert got.communities == want.communities, (name, t)

    def test_bad_threshold_in_grid_rejected(self, barbell6):
        dend = link_clustering(barbell6)
        with pytest.raises(ValueError, match="between 1 and 100"):
            sweep_link_dendrogram(dend, [50, 0], barbell6)

    @pytest.mark.parametrize("name, graph", CASES, ids=[name for name, _ in CASES])
    def test_build_to_top_matches_full(self, name, graph):
        full = link_clustering(graph)
        covers = sweep_link_dendrogram(full, range(1, 101), graph)
        for t, want in zip(range(1, 101), covers):
            part = link_clustering(graph, t / 100)
            assert part.merges == [m for m in full.merges if m[2] <= t / 100], t
            got = sweep_link_dendrogram(part, [t], graph)[0]
            assert got.communities == want.communities, t

    def test_cut_above_top_refused(self, barbell6):
        dend = link_clustering(barbell6, 0.5)
        assert [h for _, _, h in dend.merges] == [0.0, 0.0, 0.25, 0.25]
        assert cut_link_dendrogram(dend, 50, barbell6).communities == []
        above = "above the height 0.5 the dendrogram was built to"
        with pytest.raises(ValueError, match=above):
            dend.cut(0.51)
        with pytest.raises(ValueError, match=above):
            cut_link_dendrogram(dend, 51, barbell6)
        with pytest.raises(ValueError, match=above):
            sweep_link_dendrogram(dend, [10, 90], barbell6)

    @pytest.mark.parametrize("top", [-0.1, 1.01, float("nan")])
    def test_top_outside_unit_interval_rejected(self, top, barbell6):
        with pytest.raises(ValueError, match=r"top must be a height in \[0, 1\]"):
            link_clustering(barbell6, top)
