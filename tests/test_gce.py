"""Clique seeding and greedy fitness expansion."""

import logging
import math
import random
import sys
from itertools import combinations

import pytest

from commbench import DataError, Graph, detect_cover, generate_planted, maximal_cliques
from commbench.coverops import drop_near_duplicates
from commbench.detectors.gce import (
    DUPLICATE_DISTANCE,
    MAX_CLIQUE_SEARCH,
    MIN_CLIQUE,
    _degeneracy_order,
    _expand,
    _integer_degrees,
    _fitness,
    _near_duplicate,
    gce_sweep,
)
from conftest import (
    MICRO_GRAPHS,
    four_group_spec,
    heavy_tailed_graph,
    make_micro,
    near_equal_graph,
    random_graph,
    tie_prone_graphs,
)
from oracles import (
    bron_kerbosch_oracle,
    core_numbers_oracle,
    gce_expand_oracle,
    maximal_cliques_oracle,
    min_overlap_scan_oracle,
)


def clique_cases():
    """(name, graph) cases from sparse to dense, micro and planted graphs."""
    rng = random.Random(9)
    cases = tie_prone_graphs(rng)
    for k in range(12):
        n = rng.randint(8, 24)
        p = (0.3, 0.6, 0.8)[k % 3]
        edges = [(i, j, 1.0) for i, j in combinations(range(n), 2) if rng.random() < p]
        cases.append((f"dense{k}", Graph([str(i) for i in range(n)], edges)))
    cases += [(name, make_micro(name)) for name in sorted(MICRO_GRAPHS)]
    cases.append(("planted", generate_planted(four_group_spec(seed=0))[0]))
    return cases


def moon_moser(k):
    """The complement of k disjoint triangles: 3^k maximal cliques of size k."""
    n = 3 * k
    edges = [(i, j, 1.0) for i, j in combinations(range(n), 2) if i // 3 != j // 3]
    return Graph([str(i) for i in range(n)], edges)


class TestMaximalCliques:
    def test_barbell_cliques(self, barbell6):
        got = {frozenset(c) for c in maximal_cliques(barbell6)}
        assert got == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
            frozenset({2, 3}),
        }

    def test_k4_single_clique(self):
        assert maximal_cliques(make_micro("k4")) == [[0, 1, 2, 3]]

    def test_isolated_node_is_singleton_clique(self):
        g = Graph(["a", "b", "c"], [(0, 1, 1.0)])
        assert maximal_cliques(g) == [[2], [0, 1]]

    def test_large_clique_needs_no_recursion(self):
        n = 300
        g = Graph([str(i) for i in range(n)], [(i, j, 1.0) for i, j in combinations(range(n), 2)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            cliques = maximal_cliques(g)
        finally:
            sys.setrecursionlimit(limit)
        assert cliques == [list(range(n))]

    def test_matches_subset_enumeration_oracle(self):
        rng = random.Random(5)
        graphs = [random_graph(rng, max_n=9)[0] for _ in range(25)]
        graphs += [moon_moser(3)] + [make_micro(name) for name in sorted(MICRO_GRAPHS)]
        for g in graphs:
            adj = [set(j for j, _ in g.adj[i]) for i in range(g.n)]
            want = maximal_cliques_oracle(g.n, adj)
            for k in range(1, 6):
                got = {frozenset(c) for c in maximal_cliques(g, k)}
                assert got == {c for c in want if len(c) >= k}, k

    CASES = clique_cases()

    @pytest.mark.parametrize("name, graph", CASES, ids=[name for name, _ in CASES])
    def test_min_size_matches_bron_kerbosch_oracle(self, name, graph):
        want = bron_kerbosch_oracle(graph)
        for k in range(1, 6):
            assert maximal_cliques(graph, k) == [c for c in want if len(c) >= k], k

    def test_degeneracy_order_and_core_numbers(self):
        for name, graph in self.CASES:
            adj = [set(j for j, _ in graph.adj[i]) for i in range(graph.n)]
            order, core = _degeneracy_order(adj)
            assert sorted(order) == list(range(graph.n)), name
            assert core == core_numbers_oracle(graph.n, adj), name
            pos = {v: i for i, v in enumerate(order)}
            for v in order:
                later = sum(pos[u] > pos[v] for u in adj[v])
                assert later <= core[v], (name, v)

    def test_clique_takes_one_search_node_per_member(self, monkeypatch):
        # the first root walks the clique down one member at a time; every
        # later root is skipped, as an earlier node covers its candidates
        n = 300
        g = Graph([str(i) for i in range(n)], [(i, j, 1.0) for i, j in combinations(range(n), 2)])
        module = sys.modules["commbench.detectors.gce"]
        monkeypatch.setattr(module, "MAX_CLIQUE_SEARCH", n)
        assert maximal_cliques(g) == [list(range(n))]
        monkeypatch.setattr(module, "MAX_CLIQUE_SEARCH", n - 1)
        with pytest.raises(DataError, match=f"passed {n - 1} search nodes"):
            maximal_cliques(g)

    def test_moon_moser_graph_exceeds_search_bound(self):
        # every maximal clique is a leaf of the search, so 3^k of them must
        # pass the bound; all 36 nodes have degree 33
        assert 3**12 > MAX_CLIQUE_SEARCH
        g = moon_moser(12)
        with pytest.raises(
            DataError,
            match=rf"passed {MAX_CLIQUE_SEARCH} search nodes; the graph has "
            r"degeneracy 33 and node '0' has the highest degree \(33\)",
        ):
            maximal_cliques(g, MIN_CLIQUE)


class TestFitnessExpansion:
    def test_barbell_seed_fitness_value(self, barbell6):
        # triangle: k_in = 6, k_out = 1
        assert _fitness(6.0, 1.0, 1.5) == pytest.approx(6.0 / 7.0**1.5, abs=1e-15)
        # absorbing a bridge endpoint is never worth it here
        assert _fitness(8.0, 2.0, 1.5) < _fitness(6.0, 1.0, 1.5)

    def test_expansion_halts_at_triangle(self, barbell6):
        assert _expand(barbell6, [0, 1, 2], 1.5) == frozenset({0, 1, 2})

    def test_expansion_fills_a_clique(self):
        g = make_micro("k4")
        assert _expand(g, [0, 1, 2], 1.5) == frozenset({0, 1, 2, 3})

    def test_empty_boundary_fitness(self):
        assert _fitness(0.0, 0.0, 1.5) == 0.0


class TestExpansionMatchesOracle:
    CASES = tie_prone_graphs(random.Random(67))

    @pytest.mark.parametrize("name, graph", CASES, ids=[name for name, _ in CASES])
    def test_same_growth_as_sorted_scan(self, name, graph):
        rng = random.Random(name)
        seeds = [c for c in maximal_cliques(graph) if len(c) >= 2]
        seeds += [rng.sample(range(graph.n), k) for k in (1, 2, 3)]
        by_degree = _integer_degrees(graph)
        for alpha in (0.8, 1.0, 1.5, 2.2):
            for seed in seeds:
                want = gce_expand_oracle(graph, seed, alpha)
                assert _expand(graph, seed, alpha) == want, (alpha, seed)
                assert _expand(graph, seed, alpha, by_degree) == want, (alpha, seed)

    def test_integer_degrees_below_the_bound(self):
        assert _integer_degrees(make_micro("k4"))
        assert not _integer_degrees(make_micro("wpath3"))  # weight 0.5
        big = 2.0**50
        assert _integer_degrees(Graph(["a", "b"], [(0, 1, big - 1.0)]))
        assert not _integer_degrees(Graph(["a", "b"], [(0, 1, big)]))

    def test_lighter_node_can_score_higher_off_integers(self):
        # with non-integer sums the rounding of k_in + k_out + d can rank a
        # node one unit in the last place lighter above the heavier one of
        # the same degree; that is why such expansions scan the whole frontier
        rng = random.Random(3)
        for _ in range(1000):
            kin, kout = rng.uniform(1, 50), rng.uniform(1, 50)
            d = rng.uniform(2, 10)
            light = rng.uniform(0.5, d / 2)
            heavy = math.nextafter(light, math.inf)
            f_light, f_heavy = (
                _fitness(kin + 2.0 * w, kout - w + (d - w), 1.5) for w in (light, heavy)
            )
            if f_light > f_heavy:
                return
        pytest.fail("no rounding inversion found")

    def test_near_equal_weights_match_the_scan(self):
        # all degrees equal, weights a few units in the last place apart: the
        # integer check must send these expansions to the whole-frontier scan
        for k in range(60):
            rng = random.Random(k)
            graph = near_equal_graph(rng)
            assert _integer_degrees(graph)
            # the weight-2 clique starts on integers, the rest does not
            seeds = [[0, 1, 2, 3]] + [c for c in maximal_cliques(graph) if len(c) >= 2]
            for alpha in (0.8, 1.0, 1.5, 2.2):
                for seed in seeds:
                    want = gce_expand_oracle(graph, seed, alpha)
                    assert _expand(graph, seed, alpha, True) == want, (k, alpha, seed)

    def test_heavy_tailed_graph(self):
        # communities of a few hundred nodes; the largest seeds come first
        graph = heavy_tailed_graph(2000, 11)
        assert _integer_degrees(graph)
        seeds = maximal_cliques(graph, MIN_CLIQUE)
        seeds.sort(key=lambda c: (-len(c), c))
        for alpha in (0.8, 1.5):
            for seed in seeds[:40]:
                want = gce_expand_oracle(graph, seed, alpha)
                assert _expand(graph, seed, alpha, True) == want, (alpha, seed)


class TestDuplicateRule:
    def test_distance_of_a_quarter_is_kept(self):
        # 3 of the smaller community's 4 members shared: distance 1 - 3/4
        kept = drop_near_duplicates(
            [frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4, 5})], _near_duplicate
        )
        assert kept == [frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4, 5})]

    def test_distance_below_a_quarter_is_dropped(self):
        # 4 of the smaller community's 5 members shared: distance 1 - 4/5,
        # whether the later community is the larger or the smaller
        for first, later in (
            ({0, 1, 2, 3, 4}, {0, 1, 2, 3, 9, 10}),
            ({0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 9}),
        ):
            kept = drop_near_duplicates([frozenset(first), frozenset(later)], _near_duplicate)
            assert kept == [frozenset(first)]

    def test_filter_matches_scan_of_every_kept_community(self, rng):
        for _ in range(300):
            n = rng.randint(4, 16)
            candidates = [
                frozenset(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 14))
            ]
            want = min_overlap_scan_oracle(candidates, DUPLICATE_DISTANCE)
            assert drop_near_duplicates(candidates, _near_duplicate) == want

    # graphs on which some expansions are dropped or kept ones overlap
    SWEEP_CASES = [
        case
        for case in clique_cases()
        if case[0] in ("dense0", "dense3", "dense9", "unit33", "kite7", "planted")
    ] + [("heavy", heavy_tailed_graph(300, 1))]

    @pytest.mark.parametrize("name, graph", SWEEP_CASES, ids=[name for name, _ in SWEEP_CASES])
    def test_sweep_keeps_what_the_scan_keeps(self, name, graph):
        seeds = maximal_cliques(graph, MIN_CLIQUE) or maximal_cliques(graph, 3)
        seeds.sort(key=lambda c: (-len(c), c))
        alphas = (0.8, 1.0, 1.5)
        by_degree = _integer_degrees(graph)
        for alpha, cover in zip(alphas, gce_sweep(graph, alphas)):
            expansions = [_expand(graph, seed, alpha, by_degree) for seed in seeds]
            want = min_overlap_scan_oracle(expansions, DUPLICATE_DISTANCE)
            assert cover.communities == want, alpha


class TestGce:
    def test_barbell_cover_with_relaxed_seeds(self, barbell6, caplog):
        with caplog.at_level(logging.INFO, logger="commbench.detectors.gce"):
            cover = detect_cover(barbell6, "gce", 1.5)
        assert set(cover.communities) == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }
        assert any("relaxing clique seed size" in r.message for r in caplog.records)

    def test_duplicate_candidates_collapse(self):
        # K5: every 4-clique seed expands to the same community
        edges = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
        g = Graph([str(i) for i in range(5)], edges)
        cover = detect_cover(g, "gce", 1.5)
        assert cover.communities == [frozenset(range(5))]

    def test_alpha_validation(self, barbell6):
        with pytest.raises(ValueError, match="alpha"):
            detect_cover(barbell6, "gce", 0.0)

    def test_infinite_alpha_rejected(self, barbell6):
        # every candidate would score 0, so each seed stays unexpanded
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            detect_cover(barbell6, "gce", math.inf)

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            detect_cover(Graph([], []), "gce", 1.5)

    def test_determinism(self, barbell6):
        a = detect_cover(barbell6, "gce", 1.5)
        b = detect_cover(barbell6, "gce", 1.5)
        assert a.communities == b.communities

    def test_recovers_planted_groups(self):
        g, truth, _ = generate_planted(four_group_spec(seed=0))
        cover = detect_cover(g, "gce", 1.0)
        planted = {frozenset(c) for c in truth.communities()}
        assert set(cover.communities) == planted
