"""Acceptance gate: nine release criteria, one printed pass/fail line each.

Each test prints one line into the terminal summary (see conftest) with its
status and wall time, then fails loudly if any sub-check missed. Budgets are
asserted with time.perf_counter around the operation under test only.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from commbench import (
    GBDTParams,
    Graph,
    LabeledDataset,
    combine_runs,
    cross_validate,
    cut_link_dendrogram,
    dedup,
    detect_cover,
    edge_similarity,
    generate_planted,
    jaccard,
    link_clustering,
    louvain,
    parameterized_modularity,
    parse_config,
    run_benchmark,
    sanity_check,
    write_edge_list,
)
from commbench.bench import LOUVAIN_GRID
from commbench.covers import Cover, Partition
from conftest import (
    ACCEPTANCE_LINES,
    HIERARCHY,
    MICRO_GRAPHS,
    SCALE,
    four_group_spec,
    make_micro,
    random_graph,
    random_partition,
)
from conftest import random_cover_communities
from oracles import (
    dedup_postcondition_holds,
    modularity_oracle,
    enumerate_partitions,
    standard_modularity_oracle,
)


@contextmanager
def criterion(label):
    """Collect sub-check failures; always leave one summary line behind."""
    problems = []
    start = time.perf_counter()
    try:
        yield problems
    except BaseException as exc:
        ACCEPTANCE_LINES.append(f"{label}: FAIL ({type(exc).__name__}: {exc})")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if not problems else "FAIL"
    ACCEPTANCE_LINES.append(f"{label}: {status} ({elapsed:.1f}s)")
    assert not problems, f"{label}: " + "; ".join(problems)


def test_criterion_1_objective_matches_brute_force():
    """Objective value vs a raw pairwise recomputation on random inputs."""
    with criterion("1 objective-vs-brute-force") as problems:
        start = time.perf_counter()
        rng = random.Random(101)
        for g_index in range(20):
            graph, edges = random_graph(
                rng,
                max_n=10,
                allow_self_loops=g_index % 3 == 0,
                weighted=g_index % 2 == 1,
            )
            for _ in range(50):
                assignment = random_partition(rng, graph.n)
                partition = Partition(assignment)
                for t in (0.2, 0.5, 1.0):
                    got = parameterized_modularity(graph, partition, t)
                    want = modularity_oracle(graph.n, edges, partition.assignment, t)
                    if abs(got - want) > 1e-12:
                        problems.append(
                            f"graph {g_index} t={t}: {got!r} != oracle {want!r}"
                        )
                plain = standard_modularity_oracle(graph.n, edges, partition.assignment)
                base = parameterized_modularity(graph, partition, 1.0)
                if abs(base - plain) > 1e-12:
                    problems.append(f"graph {g_index}: r(1.0) {base!r} != Q {plain!r}")
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            problems.append(f"runtime {elapsed:.1f}s exceeds 10s budget")


def test_criterion_2_louvain_micro_optimality():
    """Greedy optimum equals the exhaustive optimum on every small fixture."""
    with criterion("2 louvain-exhaustive-optimality") as problems:
        start = time.perf_counter()
        for name, (n, edges, _) in MICRO_GRAPHS.items():
            graph = make_micro(name)
            for t in (0.2, 0.5, 1.0):
                best = max(
                    modularity_oracle(n, edges, assignment, t)
                    for assignment in enumerate_partitions(n)
                )
                result = louvain(graph, t)
                achieved = parameterized_modularity(graph, result.levels[-1], t)
                if abs(achieved - best) > 1e-12:
                    problems.append(
                        f"{name} t={t}: achieved {achieved!r}, exhaustive {best!r}"
                    )
        barbell = make_micro("barbell6")
        high = louvain(barbell, 1.0).levels[-1]
        if abs(parameterized_modularity(barbell, high, 1.0) - 0.357142857) > 1e-9:
            problems.append("barbell6 r(1.0) off its two-triangle optimum")
        if {frozenset(c) for c in high.communities()} != {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }:
            problems.append("barbell6 t=1.0 argmax is not the two triangles")
        low = louvain(barbell, 0.2).levels[-1]
        if abs(parameterized_modularity(barbell, low, 0.2) - 0.626530612) > 1e-9:
            problems.append("barbell6 r(0.2) off its all-singleton optimum")
        if low.n_communities != 6:
            problems.append("barbell6 t=0.2 argmax is not all singletons")
        elapsed = time.perf_counter() - start
        if elapsed >= 30.0:
            problems.append(f"runtime {elapsed:.1f}s exceeds 30s budget")


def test_criterion_3_resolution_sweep_reveals_both_scales():
    """Small Markov times split finer; the sweep covers groups and super-groups."""
    with criterion("3 multi-scale-sweep") as problems:
        start = time.perf_counter()
        graph, _, _ = generate_planted(HIERARCHY)
        by_t = {
            t: detect_cover(graph, "louvain", t)
            for t in LOUVAIN_GRID
        }
        if len(by_t[0.2]) < len(by_t[1.0]):
            problems.append(
                f"count at t=0.2 ({len(by_t[0.2])}) < count at t=1.0 ({len(by_t[1.0])})"
            )
        combined = combine_runs([by_t[t] for t in LOUVAIN_GRID])
        targets = [("group", s) for s in HIERARCHY.group_sets()]
        targets += [("super-group", s) for s in HIERARCHY.super_group_sets()]
        for kind, target in targets:
            best = max(jaccard(c, target) for c in combined.communities)
            if best < 0.9:
                problems.append(
                    f"no community matches a planted {kind} "
                    f"(best J={best:.3f} for {sorted(target)[:4]}...)"
                )
        elapsed = time.perf_counter() - start
        if elapsed >= 60.0:
            problems.append(f"runtime {elapsed:.1f}s exceeds 60s budget")


def test_criterion_4_planted_group_recovery():
    """Both detector families recover the four planted groups across seeds."""
    with criterion("4 planted-group-recovery") as problems:
        start = time.perf_counter()
        # the clique-expansion run uses alpha=1.0 here: the steeper default
        # exponent stalls inside dense 4-node neighborhoods at this density
        runs = [
            ("louvain", 1.0),
            ("gce", 1.0),
        ]
        for method, value in runs:
            for seed in range(5):
                result = sanity_check(method, value, four_group_spec(seed))
                if result.nmi < 0.95:
                    problems.append(f"{method} seed {seed}: nmi {result.nmi:.3f} < 0.95")
                if result.ratio > 2.0:
                    problems.append(
                        f"{method} seed {seed}: {result.detected_communities} detected"
                        f" vs {result.planted_communities} planted"
                    )
        elapsed = time.perf_counter() - start
        if elapsed >= 120.0:
            problems.append(f"runtime {elapsed:.1f}s exceeds 2min budget")


def test_criterion_5_dedup_contract():
    """Worked example, exact idempotence, and the retained-pair post-condition."""
    with criterion("5 dedup-contract") as problems:
        worked = dedup(Cover(10, [{1, 2, 3, 4, 5}, {1, 2, 3, 4}, {7, 8, 9}]))
        if set(worked.communities) != {frozenset({1, 2, 3, 4}), frozenset({7, 8, 9})}:
            problems.append(f"worked example gave {worked.communities}")
        rng = random.Random(505)
        for i in range(100):
            n = rng.randint(3, 14)
            cover = Cover(n, random_cover_communities(rng, n))
            once = dedup(cover)
            if dedup(once).communities != once.communities:
                problems.append(f"not idempotent on random cover {i}")
            if not dedup_postcondition_holds(once.communities, 0.5):
                problems.append(f"retained near-duplicate pair on random cover {i}")


def _labeled(X, raw_labels):
    classes = sorted(set(raw_labels))
    index = {c: k for k, c in enumerate(classes)}
    return LabeledDataset(
        features=np.asarray(X, dtype=np.float64),
        labels=np.array([index[c] for c in raw_labels], dtype=np.int64),
        classes=classes,
        rows=list(range(len(raw_labels))),
    )


def test_criterion_6_classifier_contract():
    """Learns a planted feature, ignores noise, and reproduces byte-identically."""
    with criterion("6 classifier-contract") as problems:
        start = time.perf_counter()
        rng = np.random.default_rng(606)
        X = rng.integers(0, 2, size=(500, 5)).astype(np.float64)
        labels = ["yes" if v else "no" for v in X[:, 0]]
        params = GBDTParams()  # the full-size default: 1000 trees
        base = cross_validate(_labeled(X, labels), params, k=3, folds_evaluated=3)
        base_mean = sum(base) / len(base)
        if base_mean < 0.95:
            problems.append(f"labeled-feature accuracy {base_mean:.3f} < 0.95")

        shuffled = list(labels)
        random.Random(42).shuffle(shuffled)
        majority = max(Counter(shuffled).values()) / len(shuffled)
        chance = cross_validate(_labeled(X, shuffled), params, k=3, folds_evaluated=3)
        chance_mean = sum(chance) / len(chance)
        if abs(chance_mean - majority) > 0.10:
            problems.append(
                f"shuffled-label accuracy {chance_mean:.3f} strays from "
                f"majority rate {majority:.3f}"
            )

        noisy = np.hstack([X, rng.integers(0, 2, size=(500, 500)).astype(np.float64)])
        widened = cross_validate(_labeled(noisy, labels), params, k=3, folds_evaluated=3)
        widened_mean = sum(widened) / len(widened)
        if widened_mean < base_mean - 0.05:
            problems.append(
                f"500 noise columns dropped accuracy {base_mean:.3f} -> "
                f"{widened_mean:.3f}"
            )

        again = cross_validate(_labeled(X, labels), params, k=3, folds_evaluated=3)
        if repr(base).encode() != repr(again).encode():
            problems.append("same-seed reruns differ byte for byte")
        elapsed = time.perf_counter() - start
        if elapsed >= 300.0:
            problems.append(f"runtime {elapsed:.1f}s exceeds 5min budget")


def test_criterion_7_end_to_end_benchmark(tmp_path):
    """Full pipeline: detected communities predict the planted attribute."""
    with criterion("7 end-to-end-benchmark") as problems:
        start = time.perf_counter()
        graph, _, attrs = generate_planted(four_group_spec(0))
        edge_path = tmp_path / "fourgroup.edges"
        write_edge_list(graph, edge_path)
        attr_path = tmp_path / "fourgroup.tsv"
        column = attrs.column("block")
        attr_path.write_text(
            "node\tblock\n"
            + "".join(f"{graph.labels[v]}\t{column[v]}\n" for v in range(graph.n))
        )
        empty_path = tmp_path / "external-empty.txt"
        empty_path.write_text("# no communities supplied\n")
        config_path = tmp_path / "bench.cfg"
        config_path.write_text(
            "version 1\n"
            f"output {tmp_path / 'out'}\n"
            f"dataset fourgroup {edge_path} {attr_path}\n"
            "attribute block\n"
            "method louvain flat t=1.0\n"
            f"method import empty path={empty_path}\n"
        )
        report = run_benchmark(parse_config(config_path))
        if report.failures:
            problems.append(f"unexpected failures: {report.failures}")
        louvain_mean = report.summary[("flat", "block")][0]
        if louvain_mean < 0.90:
            problems.append(f"detected-community accuracy {louvain_mean:.3f} < 0.90")
        majority = max(Counter(column).values()) / graph.n
        empty_mean = report.summary[("empty", "block")][0]
        if abs(empty_mean - majority) > 0.08:
            problems.append(
                f"empty-cover accuracy {empty_mean:.3f} is not the majority "
                f"rate {majority:.3f}"
            )
        cells = 2  # one network x two methods x one attribute
        expected = 3 * (cells - len(report.failures))
        if len(report.records) != expected:
            problems.append(
                f"record count {len(report.records)} breaks the counting contract "
                f"({expected} expected)"
            )
        elapsed = time.perf_counter() - start
        if elapsed >= 300.0:
            problems.append(f"runtime {elapsed:.1f}s exceeds 5min budget")


def test_criterion_8_link_similarity_and_size_filter():
    """Hand-checked edge similarities plus the small-cluster output filter."""
    with criterion("8 link-similarity-and-filter") as problems:
        barbell = make_micro("barbell6")
        pairs = [(((0, 1), (0, 2)), 0.75), (((2, 3), (0, 2)), 1 / 6)]
        for (ea, eb), want in pairs:
            got = edge_similarity(barbell, ea, eb)
            if abs(got - want) > 1e-12:
                problems.append(f"S({ea},{eb}) = {got!r}, want {want!r}")
        # a 3-node/2-edge path survives the dendrogram cut but not the filter
        edges = [(0, 1, 1.0), (1, 2, 1.0)]
        edges += [(i, j, 1.0) for i, j in combinations(range(3, 8), 2)]
        g = Graph([str(i) for i in range(8)], edges)
        dendrogram = link_clustering(g)
        raw = {frozenset(dendrogram.leaves[i] for i in c) for c in dendrogram.cut(0.7)}
        if frozenset({(0, 1), (1, 2)}) not in raw:
            problems.append("unfiltered cut lost the 2-edge path cluster")
        cover = cut_link_dendrogram(dendrogram, 70, g)
        if cover.communities != [frozenset({3, 4, 5, 6, 7})]:
            problems.append(f"filter kept {cover.communities}")


def test_criterion_9_scale_smoke():
    """Ten-thousand-node planted graph: single run and full sweep budgets."""
    with criterion("9 scale-smoke") as problems:
        graph, _, _ = generate_planted(SCALE)
        if not 90_000 <= graph.m <= 110_000:
            problems.append(f"fixture has {graph.m} edges, expected about 100k")
        start = time.perf_counter()
        single = detect_cover(graph, "louvain", 1.0)
        single_elapsed = time.perf_counter() - start
        if single_elapsed >= 30.0:
            problems.append(f"single run took {single_elapsed:.1f}s (budget 30s)")
        if not single.communities:
            problems.append("single run produced an empty cover")
        start = time.perf_counter()
        covers = [
            detect_cover(graph, "louvain", t)
            for t in LOUVAIN_GRID
        ]
        combined = combine_runs(covers)
        sweep_elapsed = time.perf_counter() - start
        if sweep_elapsed >= 300.0:
            problems.append(f"sweep took {sweep_elapsed:.1f}s (budget 5min)")
        if not combined.communities:
            problems.append("sweep produced an empty cover")
