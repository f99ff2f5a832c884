"""Hierarchical clustering of edges by endpoint-neighborhood similarity.

Two edges sharing a keystone node k, say (i, k) and (j, k), are scored with
the Jaccard similarity of the *other* endpoints' inclusive neighborhoods
N+(x) = N(x) + {x}; non-adjacent edges are never compared. Single-linkage
agglomeration over the heights 1 - S builds a merge forest whose leaves are
the graph's edges, kept as the height-sorted arrays of the edge pairs that
joined two clusters. Cutting it at a height and mapping every edge cluster
to the nodes it spans yields an overlapping node cover; clusters spanning
fewer than four nodes are dropped. That filter is by nodes alone, and it
also drops every cluster of fewer than three edges: a cluster's edges connect
the nodes it spans, so k nodes take at least k - 1 edges. Similarities ignore
edge weights. Everything is deterministic: candidate pairs are processed in
(height, edge-id, edge-id) order.

``sweep_link_dendrogram`` makes every cover: it walks the merges once for a
whole grid of cut heights, keeping each cluster's node set as it grows, so
a sweep costs one build plus one walk, not one replay per threshold.
``cut_link_dendrogram`` is its one-threshold case.

``link_clustering(graph, top)`` is the only code that builds a ``Dendrogram``,
and it builds only the merges at or below the height ``top``. Single linkage
is Kruskal's algorithm, so dropping the pairs above ``top`` before the walk
leaves exactly the full forest's merges at or below it, none of which joins
a cluster to itself; the detector passes its largest threshold, and a cut or
sweep above a dendrogram's ``top`` is refused rather than answered from a
partial forest.

The heights come from numpy arrays, without sets. A height depends only on
the node pair (i, j) of the two edges' other endpoints: |N+(i) & N+(j)| is
the number of keystones i and j share plus 2 when they are adjacent,
|N+(i) | N+(j)| is deg(i) + deg(j) + 2 minus that, and the integer quotient
is rounded exactly as Python's would be. The build reads the rows of
``Graph.neighbours()`` a chunk of whole rows i at a time, about ``WALK_CHUNK``
triples (i, k, j) with j > i each; it groups a chunk's triples by node pair
and keeps only the edge pairs of the node pairs at or below ``top``, each with
the (intersection, union) code that fixes its height. So only kept pairs need
ranks: a dense table over the kept codes, whose size is O(max degree^2) and so
O(pairs), gets each code's height once, and every kept pair takes its rank
from the table in one gather.

Both orders the build needs, a chunk's triples grouped by node pair (with
each triple's index as the minor key) and the kept pairs in (height rank,
pair) order, come from ``_sort_packed``: one in-place sort of packed (major,
minor) int64 keys, or a ``lexsort`` when a key would not fit.
The merges come from a walk over slices of the pairs in height order: each
slice's merges are the spanning forest of its pairs over the clusters live
at its start, found by Boruvka's algorithm in numpy, so no pair reaches a
Python loop. The order of the keys is strict, so that forest is unique and
holds exactly the merges a pair-by-pair union-find would make.

The build holds arrays over the half-edges, one chunk, and about 20 bytes
per kept pair (traced with tracemalloc on the benchmark's 10,000-node graph:
12.1 MB at ``top`` 0.8, which keeps 205 of its 1,974,823 pairs, and 51.9 MB
at 1.0, which keeps them all; the tests hold the peak at 1.0 to 53 bytes per
pair). Every pair is still enumerated whatever ``top`` is, so
``MAX_EDGE_PAIRS`` bounds the build's work: a graph with more pairs is
refused with a ``DataError`` before any per-pair array is allocated. A star
just under the bound (29,996,385 pairs, all at one height) builds in 1.2 s at
``top`` 0.5, which keeps none of them, and in 3.2 s and 0.9 GiB more RSS at
1.0 (two-core Xeon, numpy 2.4.6).
"""

from __future__ import annotations

import numbers
from itertools import islice

import numpy as np

from ..covers import Cover
from ..errors import DataError

MIN_NODES = 4
MAX_EDGE_PAIRS = 30_000_000  # bounds the work; keeps codes and triple counts in int32
WALK_CHUNK = 1 << 16
KEY_BITS = 63  # a packed (major, minor) sort key must fit an int64


def _find(parent, x):
    """Root of x's set, compressing the path walked."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


class Dendrogram:
    """Single-linkage merge forest over leaves 0..L-1, built up to ``top``.

    Only ``link_clustering`` builds one, and the constructor stores its
    arrays as they are. ``ends`` holds each leaf's two end nodes. Merge k
    joined the clusters of leaves ``edge_a[k]`` and ``edge_b[k]`` at
    ``heights[k]``; the heights are non-decreasing and in [0, top], and no
    merge joins a cluster to itself. The forest holds every merge at or below
    ``top``, so a cut at a height h is the components of the merges at or
    below h, and a cut above ``top`` is refused. ``leaves`` and ``merges``
    are list views, built on first use: ``(lo, hi)`` tuples and ``(edge_a,
    edge_b, height)`` triples.
    """

    __slots__ = ("ends", "edge_a", "edge_b", "heights", "top", "_leaves", "_merges")

    def __init__(self, ends, edge_a, edge_b, heights, top):
        self.ends = ends
        self.edge_a = edge_a
        self.edge_b = edge_b
        self.heights = heights
        self.top = top
        self._leaves = self._merges = None  # the list views, built on first use

    @property
    def leaves(self):
        if self._leaves is None:
            self._leaves = list(map(tuple, self.ends.tolist()))
        return self._leaves

    @property
    def merges(self):
        if self._merges is None:
            self._merges = list(
                zip(self.edge_a.tolist(), self.edge_b.tolist(), self.heights.tolist())
            )
        return self._merges

    def _merges_through(self, height):
        """How many merges lie at or below height; refuses a height above top."""
        if not height <= self.top:
            raise ValueError(
                f"cut height {height} is above the height {self.top} "
                "the dendrogram was built to"
            )
        return int(np.searchsorted(self.heights, height, side="right"))

    def cut(self, height):
        """Leaf clusters after applying every merge at or below the cut.

        Returns ascending lists of leaf indices, ordered by each cluster's
        smallest leaf. Unmerged leaves come back as singleton clusters.
        """
        stop = self._merges_through(height)
        parent = list(range(len(self.ends)))
        for a, b in zip(self.edge_a[:stop].tolist(), self.edge_b[:stop].tolist()):
            ra, rb = _find(parent, a), _find(parent, b)
            parent[max(ra, rb)] = min(ra, rb)
        clusters = {}
        for leaf in range(len(parent)):
            # every root is its set's smallest leaf, so parent[leaf] <= leaf
            # and this pass has already resolved parent[leaf] to its root
            root = parent[leaf] = parent[parent[leaf]]
            clusters.setdefault(root, []).append(leaf)
        return list(clusters.values())


def edge_similarity(graph, edge_a, edge_b):
    """Inclusive-neighborhood Jaccard of two adjacent edges, or None.

    None also for two edges that share both nodes, and for a self-loop: link
    clustering never compares loops. An edge the graph lacks is refused with
    a ``DataError``.
    """
    if edge_a[0] == edge_a[1] or edge_b[0] == edge_b[1]:
        return None
    ids = graph.neighbour_lists()[0]
    for u, v in (edge_a, edge_b):
        if not (0 <= u < graph.n and v in ids[u]):
            raise DataError(f"the graph has no edge ({u}, {v})")
    a = frozenset(edge_a)
    b = frozenset(edge_b)
    shared = a & b
    if len(shared) != 1:
        return None
    (i,) = a - shared
    (j,) = b - shared
    ni = set(ids[i]) | {i}
    nj = set(ids[j]) | {j}
    return len(ni & nj) / len(ni | nj)


def link_clustering(graph, top=1.0):
    """Build the single-linkage merge forest over the graph's edges, up to ``top``.

    Only the pairs at or below the height ``top`` are kept, so the forest
    holds exactly the full forest's merges at or below it.
    """
    if (
        isinstance(top, bool)
        or not isinstance(top, numbers.Real)
        or not 0.0 <= top <= 1.0
    ):
        raise ValueError(f"top must be a height in [0, 1], got {top!r}")
    if not len(graph.lo):
        raise DataError("link clustering requires at least one edge")
    neighbours = graph.neighbours()
    deg = np.diff(neighbours[0])
    npairs = int((deg * (deg - 1) // 2).sum())
    if npairs > MAX_EDGE_PAIRS:
        hub = graph.labels[int(np.argmax(deg))]
        raise DataError(
            f"link clustering would compare {npairs} edge pairs, above the "
            f"bound of {MAX_EDGE_PAIRS}; node {hub!r} has the highest degree "
            f"({int(deg.max())})"
        )
    pair, rank, heights = _pair_heights(graph, neighbours, top)
    lo, hi, rank = _spanning_merges(len(graph.lo), pair, rank, len(heights))
    del pair
    # the graph's edges are already sorted by (lo, hi)
    edges = np.column_stack((graph.lo, graph.hi)).astype(np.int32)
    return Dendrogram(edges, lo, hi, heights[rank], top)


def _sort_packed(major, nmajor, minor, nminor):
    """The pairs (major[k], minor[k]) in ascending order, as two int64 arrays.

    ``0 <= major < nmajor`` and ``0 <= minor < nminor``, and ``minor`` is an
    int64 array the call consumes: the packed keys ``major << b | minor``, b
    the bits of nminor - 1, are written into its buffer and sorted in place.
    When a key would need more than ``KEY_BITS`` bits, a ``lexsort`` gives
    the same order instead.
    """
    bits = (nminor - 1).bit_length()
    if bits + (nmajor - 1).bit_length() > KEY_BITS:
        order = np.lexsort((minor, major))
        return major[order].astype(np.int64), minor[order]
    for start in range(0, len(minor), WALK_CHUNK):
        block = slice(start, start + WALK_CHUNK)
        minor[block] |= major[block].astype(np.int64) << bits
    minor.sort()
    major = minor >> bits
    minor &= (1 << bits) - 1
    return major, minor


def _spanning_merges(nedge, pair, rank, nrank):
    """Merges of a single-linkage walk over the pairs in (height, lo, hi) order.

    ``pair`` holds ``lo * L + hi`` and is consumed; ``rank`` holds values
    below ``nrank``. The walk goes a slice of ``WALK_CHUNK`` pairs at a time:
    a pair whose edges already share a cluster at the slice's start cannot
    merge, and ``_boruvka`` finds which of the others do. The order is
    strict, so the spanning forest is unique and Boruvka picks exactly the
    pairs a greedy walk would. Returns the merges as arrays ``(lo, hi, rank)``
    in walk order.
    """
    rank, pair = _sort_packed(rank, nrank, pair, nedge * nedge)
    roots = np.arange(nedge)  # each leaf's cluster as of the slice start
    remap = np.arange(nedge)
    merges = []
    for start in range(0, len(pair), WALK_CHUNK):
        ids, ranks = pair[start:start + WALK_CHUNK], rank[start:start + WALK_CHUNK]
        lo, hi = np.divmod(ids, nedge)
        a, b = roots[lo], roots[hi]
        live = np.flatnonzero(a != b)
        if not live.size:
            continue
        clusters, ends = np.unique(np.concatenate((a[live], b[live])), return_inverse=True)
        picked, label = _boruvka(len(clusters), ends[:live.size], ends[live.size:])
        picked = live[picked]
        merges.append((lo[picked], hi[picked], ranks[picked]))
        remap[clusters] = clusters[label]
        roots = remap[roots]
        remap[clusters] = clusters
    if not merges:
        return np.empty((3, 0), dtype=np.int64)
    return [np.concatenate(parts) for parts in zip(*merges)]


def _boruvka(ncluster, a, b):
    """Spanning forest of clusters 0..ncluster-1 joined by the pairs (a[k], b[k]).

    Pair k weighs k, and a[k] != b[k]. Returns the ascending indices of the
    forest's pairs and each cluster's final root. Every round, each cluster
    hooks onto the cluster at the other end of its lightest pair; two
    clusters picking each other picked the same pair, and the smaller stays
    the root. Pointer jumping then finds the roots, in O(log) steps even
    along a chain of hooks.
    """
    ids = np.arange(ncluster)
    label = ids
    pos = np.arange(len(a))
    picked = []
    while pos.size:
        k = np.arange(pos.size)
        lightest = np.full(ncluster, pos.size)
        np.minimum.at(lightest, a, k)
        np.minimum.at(lightest, b, k)
        hooked = np.flatnonzero(lightest < pos.size)
        k = lightest[hooked]
        picked.append(pos[k])
        hook = ids.copy()
        hook[hooked] = a[k] + b[k] - hooked  # the pair's other end
        stays = (hook[hook] == ids) & (ids < hook)
        hook[stays] = ids[stays]
        while True:
            jumped = hook[hook]
            if np.array_equal(jumped, hook):
                break
            hook = jumped
        label = hook[label]
        a, b = hook[a], hook[b]
        live = a != b
        pos, a, b = pos[live], a[live], b[live]
    return np.unique(np.concatenate(picked)), label


def _pair_heights(graph, neighbours, top):
    """The edge pairs lo < hi sharing a node whose height 1 - S is at most top.

    Returns ``(pair, rank, heights)``: ``pair`` is ``lo * L + hi``,
    ``heights`` the ascending distinct heights of the kept pairs, ``rank``
    each pair's index into it. ``neighbours`` is ``graph.neighbours()``. The
    two edges of a pair meet at a keystone k and end in other endpoints
    i < j; the node pair (i, j) comes up once per common neighbour k, so
    |N+(i) & N+(j)| is that multiplicity plus 2 when i and j are adjacent, and
    |N+(i) | N+(j)| is deg_i + deg_j + 2 minus it.

    The triples (i, k, j) are enumerated a chunk of whole rows i at a time:
    for the half-edge i -> k, the j's are the half-edges after its twin
    k -> i in k's row, where other endpoints and edge ids both ascend, so
    j > i and eid(i, k) < eid(k, j). A chunk groups its node pairs with one
    packed sort and emits only the pairs of the groups at or below ``top``,
    each with the int32 code of its (intersection, union).
    """
    start, other, eid = neighbours
    n, nedge = graph.n, len(graph.lo)
    deg = np.diff(start).astype(np.int32)
    other = other.astype(np.int32)
    row = np.repeat(np.arange(n, dtype=np.int32), deg)
    # an edge's half-edges take slots 2e (in its hi row) and 2e + 1 (in its
    # lo row); each half-edge's j's start just after its twin
    side = eid * 2 + (other > row)
    slot = np.empty(2 * nedge, dtype=np.int32)
    slot[side] = np.arange(2 * nedge, dtype=np.int32)
    after = slot[side ^ 1]
    after += 1
    del side, slot
    count = start[1:].astype(np.int32)[other]
    count -= after
    # the triples before each half-edge, and before each row; the pair bound
    # keeps them within int32
    before = np.zeros(2 * nedge + 1, dtype=np.int32)
    np.cumsum(count, out=before[1:])
    row_before = before[start]
    # a node pair (i, j) is keyed i << bits | j, and it is adjacent when its
    # key is one of row i's edge keys
    bits = (n - 1).bit_length()
    edge_key = graph.lo << bits | graph.hi
    edge_start = np.searchsorted(graph.lo, np.arange(n + 1))
    # above every union; the pair bound keeps every degree at most 7,746, so
    # the codes inter * width + union fit int32
    width = 2 * int(deg.max()) + 2
    pairs, codes = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int32)]
    r0 = 0
    while r0 < n:
        # whole rows of about WALK_CHUNK triples, and at least one row
        r1 = int(np.searchsorted(row_before, row_before[r0] + WALK_CHUNK, side="right")) - 1
        r1 = max(r1, r0 + 1)
        h0, h1 = start[r0], start[r1]
        total = int(before[h1] - before[h0])
        if total:
            cnt = count[h0:h1]
            # each triple's edge (i, k) as the pair's major part, and the
            # position of its half-edge k -> j
            lead = np.repeat(eid[h0:h1] * nedge, cnt)
            twin = np.arange(total, dtype=np.int32)
            twin += np.repeat(after[h0:h1] - (before[h0:h1] - before[h0]), cnt)
            # node pair keys local to the chunk: (i - r0) << bits | j
            key = np.repeat((row[h0:h1] - r0).astype(np.int64) << bits, cnt)
            key |= other[twin]
            key, order = _sort_packed(key, (r1 - r0) << bits, np.arange(total, dtype=np.int64), total)
            first = np.ones(total, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            key = key[starts]
            shared = np.diff(starts, append=total).astype(np.int32)
            row_keys = edge_key[edge_start[r0]:edge_start[r1]] - (r0 << bits)
            at = np.minimum(np.searchsorted(key, row_keys), len(key) - 1)
            inter = shared.copy()
            inter[at[key[at] == row_keys]] += 2
            union = deg[(key >> bits) + r0]
            union += deg[key & (1 << bits) - 1]
            union += 2
            union -= inter
            keep = 1.0 - inter / union <= top
            picked = order[np.repeat(keep, shared)]
            pairs.append(lead[picked] + eid[twin[picked]])
            code = inter * width
            code += union
            codes.append(np.repeat(code[keep], shared[keep]))
        r0 = r1
    del row, after, count, before, other
    pair = np.concatenate(pairs)
    del pairs
    code = np.concatenate(codes)
    del codes
    # a height depends only on the small integers (inter, union): rank the
    # kept codes in a dense table, then every pair by one gather
    table = np.zeros(int(code.max(initial=0)) + 1, dtype=np.int32)
    table[code] = 1
    kinds = np.flatnonzero(table)
    heights, table[kinds] = np.unique(1.0 - (kinds // width) / (kinds % width), return_inverse=True)
    return pair, table[code], heights


def _check_threshold(threshold_percent):
    if not isinstance(threshold_percent, numbers.Integral) or isinstance(
        threshold_percent, bool
    ):
        raise ValueError("threshold must be an integer percentage")
    if not 1 <= threshold_percent <= 100:
        raise ValueError(
            f"threshold must be between 1 and 100, got {threshold_percent}"
        )


def cut_link_dendrogram(dendrogram, threshold_percent, graph):
    """Cut the forest at threshold_percent/100 and span clusters onto nodes."""
    return sweep_link_dendrogram(dendrogram, [threshold_percent], graph)[0]


def sweep_link_dendrogram(dendrogram, thresholds, graph):
    """One cover per threshold percentage, from one walk over the merges.

    The distinct thresholds are visited in ascending order while a union-find
    (root = smallest leaf) applies the merges at or below each height; every
    root of two or more edges keeps its cluster's node set. A cover holds the
    clusters spanning at least ``MIN_NODES`` nodes, ordered by root. Covers
    come back in the order of ``thresholds``, repeats included. A threshold
    above the dendrogram's ``top`` is refused.
    """
    thresholds = list(thresholds)
    for threshold_percent in thresholds:
        _check_threshold(threshold_percent)
    grid = sorted(set(thresholds))
    stops = [dendrogram._merges_through(t / 100.0) for t in grid]
    ends = dendrogram.ends
    used = stops[-1] if stops else 0
    edge_a, edge_b = dendrogram.edge_a[:used], dendrogram.edge_b[:used]
    # each merge's two leaves and their end nodes, as flat int lists
    walk = zip(*(x.tolist() for x in (edge_a, edge_b, *ends[edge_a].T, *ends[edge_b].T)))
    parent = list(range(len(ends)))
    nodes = {}  # root -> node set, for clusters of two or more edges
    covers = {}
    k = 0
    for threshold_percent, stop in zip(grid, stops):
        for a, b, lo_a, hi_a, lo_b, hi_b in islice(walk, stop - k):
            ra, rb = _find(parent, a), _find(parent, b)
            # a root without a node set is a one-edge cluster: leaf a or b
            big = nodes.pop(ra, None) or {lo_a, hi_a}
            small = nodes.pop(rb, None) or {lo_b, hi_b}
            root = parent[max(ra, rb)] = min(ra, rb)
            if len(big) < len(small):
                big, small = small, big
            big |= small
            nodes[root] = big
        k = stop
        # a cluster's edges connect its nodes, so four nodes take three edges
        roots = sorted(root for root, spanned in nodes.items() if len(spanned) >= MIN_NODES)
        covers[threshold_percent] = Cover(graph.n, [nodes[root] for root in roots])
    return [covers[threshold_percent] for threshold_percent in thresholds]
