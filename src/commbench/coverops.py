"""Cover algebra: dedup, cross-run combination, features, statistics, NMI.

These operations treat covers as data and never touch the detectors, so
externally imported covers flow through identically. Dedup and combine are
deterministic set-level operations: candidates are processed ascending by
(size, sorted member list), which also makes combine independent of input
order. Exact duplicates are left to Cover, which keeps one of each.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .covers import Cover
from .errors import DataError

DEDUP_EPSILON = 0.5


def jaccard(a, b):
    """Jaccard similarity of two node sets."""
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


def _canonical_order(communities):
    return sorted(communities, key=lambda fs: (len(fs), sorted(fs)))


def dedup(cover, epsilon=DEDUP_EPSILON):
    """Drop communities that near-duplicate a retained one of <= their size.

    Candidates are processed ascending by (size, sorted members); a candidate
    is dropped iff its Jaccard similarity with some already retained
    community strictly exceeds epsilon. Because processing is size-ascending,
    every retained community is of equal or lesser size than the candidate,
    so smaller and earlier communities win ties. The operation is idempotent.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    retained = []
    containing = defaultdict(list)  # node -> retained community positions
    for community in _canonical_order(cover.communities):
        counts = Counter()
        for v in community:
            for rid in containing[v]:
                counts[rid] += 1
        duplicate = False
        for rid, inter in counts.items():
            other = retained[rid]
            if inter / (len(community) + len(other) - inter) > epsilon:
                duplicate = True
                break
        if duplicate:
            continue
        rid = len(retained)
        retained.append(community)
        for v in community:
            containing[v].append(rid)
    return Cover(cover.n, retained)


def combine_runs(covers):
    """Pool covers over one universe: exact dedupe, then dedup(0.5).

    The output is independent of the input cover order.
    """
    if not covers:
        raise DataError("no covers to combine")
    n = covers[0].n
    for c in covers:
        if c.n != n:
            raise DataError("covers span different node universes")
    pooled = Cover(n, (fs for c in covers for fs in c.communities))
    return dedup(pooled, DEDUP_EPSILON)


@dataclass
class AssignmentMatrix:
    """Binary node-by-community membership matrix."""

    matrix: np.ndarray  # (n, c) uint8


def assignment_matrix(cover):
    """Expand a cover into its n x c binary membership matrix."""
    mat = np.zeros((cover.n, len(cover.communities)), dtype=np.uint8)
    for col, community in enumerate(cover.communities):
        for v in community:
            mat[v, col] = 1
    return AssignmentMatrix(mat)


@dataclass
class CoverStats:
    """Size summary of a cover over a node universe.

    median_smallest is the median over covered nodes of the size of the
    smallest community containing each node (mean of the two middle values
    for even counts); None when nothing is covered. Nodes in no community are
    excluded from the median and reported separately.
    """

    community_count: int
    median_smallest: float | None
    size_histogram: dict
    uncovered_nodes: int


def cover_stats(cover):
    smallest = {}
    for community in cover.communities:
        size = len(community)
        for v in community:
            current = smallest.get(v)
            if current is None or size < current:
                smallest[v] = size
    values = sorted(smallest.values())
    if values:
        mid = len(values) // 2
        if len(values) % 2:
            median = float(values[mid])
        else:
            median = (values[mid - 1] + values[mid]) / 2.0
    else:
        median = None
    histogram = Counter(len(c) for c in cover.communities)
    return CoverStats(
        community_count=len(cover.communities),
        median_smallest=median,
        size_histogram=dict(sorted(histogram.items())),
        uncovered_nodes=cover.n - len(smallest),
    )


COVER_STATS_COLUMNS = ("communities", "median_smallest", "uncovered", "sizes")


def format_cover_stats(stats):
    """One TSV line in ``COVER_STATS_COLUMNS`` order; the median is NA when undefined."""
    median = "NA" if stats.median_smallest is None else repr(stats.median_smallest)
    hist = ",".join(f"{s}:{c}" for s, c in sorted(stats.size_histogram.items()))
    return f"{stats.community_count}\t{median}\t{stats.uncovered_nodes}\t{hist}"


def nmi(p, q):
    """Normalized mutual information 2*I/(Hp+Hq) between two partitions.

    Natural-log entropies; identical groupings score 1.0 (including the
    single-community case, where both entropies vanish), and if either
    partition has zero entropy while the groupings differ the score is 0.0.
    """
    if p.n != q.n:
        raise DataError("partitions span different node universes")
    n = p.n
    if n == 0:
        raise DataError("cannot compare empty partitions")
    if p.assignment == q.assignment:
        return 1.0
    sizes_p = p.sizes()
    sizes_q = q.sizes()
    hp = -sum(s / n * math.log(s / n) for s in sizes_p)
    hq = -sum(s / n * math.log(s / n) for s in sizes_q)
    if hp == 0.0 or hq == 0.0:
        return 0.0
    confusion = Counter(zip(p.assignment, q.assignment))
    info = 0.0
    for (a, b), count in confusion.items():
        info += count / n * math.log(count * n / (sizes_p[a] * sizes_q[b]))
    value = 2.0 * info / (hp + hq)
    return min(1.0, max(0.0, value))
