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

The heights come from numpy arrays over all sum_k deg(k)(deg(k) - 1)/2 edge
pairs, without sets. The build reads the half-edges grouped by keystone from
``Graph.neighbours()`` and pairs each with every later half-edge of its
keystone. |N+(i) & N+(j)| is the number of keystones i and j share (how
often the node pair turns up among the pairs) plus 2 when i and j are
adjacent, |N+(i) | N+(j)| is deg(i) + deg(j) + 2 minus that, and the
integer quotient is rounded exactly as Python's would be. A height is fixed
by those two small integers, so the build ranks heights by integer code: a
dense table over the (intersection, union) codes that occur, whose size is
O(max degree^2) and so O(pairs), gets each code's height once, and every
node pair takes its rank from the table in one gather.

Both orders the build needs, the pairs grouped by node pair and the pairs in
(height rank, pair) order, come from ``_sort_packed``: one in-place sort of
packed (major, minor) int64 keys, or a ``lexsort`` when a key would not fit.
The merges come from a walk over slices of the pairs in height order: each
slice's merges are the spanning forest of its pairs over the clusters live
at its start, found by Boruvka's algorithm in numpy, so no pair reaches a
Python loop. The order of the keys is strict, so that forest is unique and
holds exactly the merges a pair-by-pair union-find would make.

The build peaks while it groups the pairs, at about 43 bytes per pair
(traced with tracemalloc: 84.0 MB for the 1,974,823 pairs of the benchmark's
10,000-node graph); on graphs of a few hundred thousand pairs the walk's
fixed slice workspace lifts that to 48, and the tests hold it to 53. So a
graph with more than ``MAX_EDGE_PAIRS`` pairs (about 1.5 GiB at 53 bytes
each) is refused with a ``DataError`` before any per-pair array is
allocated.
"""

from __future__ import annotations

import numbers
from itertools import islice

import numpy as np

from ..covers import Cover
from ..errors import DataError

MIN_NODES = 4
MAX_EDGE_PAIRS = 30_000_000  # at most 53 bytes each at the build's peak
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


def _union(parent, a, b):
    """Join the sets of a and b under the smaller root."""
    ra, rb = _find(parent, a), _find(parent, b)
    parent[max(ra, rb)] = min(ra, rb)


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
            _union(parent, a, b)
        clusters = {}
        for leaf in range(len(parent)):
            # every root is its set's smallest leaf, so parent[leaf] <= leaf
            # and this pass has already resolved parent[leaf] to its root
            root = parent[leaf] = parent[parent[leaf]]
            clusters.setdefault(root, []).append(leaf)
        return list(clusters.values())


def edge_similarity(graph, edge_a, edge_b):
    """Inclusive-neighborhood Jaccard of two adjacent edges, or None."""
    a = frozenset(edge_a)
    b = frozenset(edge_b)
    shared = a & b
    if len(shared) != 1:
        return None
    i = next(iter(a - shared))
    j = next(iter(b - shared))
    ids = graph.neighbour_lists()[0]
    ni = set(ids[i]) | {i}
    nj = set(ids[j]) | {j}
    return len(ni & nj) / len(ni | nj)


def link_clustering(graph, top=1.0):
    """Build the single-linkage merge forest over the graph's edges, up to ``top``.

    Only the pairs at or below the height ``top`` are walked, so the forest
    holds exactly the full forest's merges at or below it.
    """
    if not 0.0 <= top <= 1.0:
        raise ValueError(f"top must be a height in [0, 1], got {top}")
    if not len(graph.lo):
        raise DataError("link clustering requires at least one edge")
    deg = np.bincount(np.concatenate((graph.lo, graph.hi)), minlength=graph.n)
    npairs = int((deg * (deg - 1) // 2).sum())
    if npairs > MAX_EDGE_PAIRS:
        hub = graph.labels[int(np.argmax(deg))]
        raise DataError(
            f"link clustering would compare {npairs} edge pairs, above the "
            f"bound of {MAX_EDGE_PAIRS}; node {hub!r} has the highest degree "
            f"({int(deg.max())})"
        )
    # the graph's edges are already sorted by (lo, hi)
    edges = np.column_stack((graph.lo, graph.hi)).astype(np.int32)
    pair, rank, heights = _pair_heights(graph, edges, deg)
    nrank = int(np.searchsorted(heights, top, side="right"))
    if nrank < len(heights):
        keep = rank < nrank
        pair, rank = pair[keep], rank[keep]
        del keep
    lo, hi, rank = _spanning_merges(len(edges), pair, rank, nrank)
    del pair
    return Dendrogram(edges, lo, hi, heights[rank], top)


def _sort_packed(major, nmajor, minor=None, nminor=None):
    """The pairs (major[k], minor[k]) in ascending order, as two int64 arrays.

    ``0 <= major < nmajor`` and ``0 <= minor < nminor``, and ``minor`` is an
    int64 array the call consumes: the packed keys ``major << b | minor``, b
    the bits of nminor - 1, are written into its buffer and sorted in place.
    Without ``minor`` the pairs are (major[k], k), so the second array is the
    stable sort order of ``major``. When a key would need more than
    ``KEY_BITS`` bits, a ``lexsort`` gives the same order instead, or for the
    index pairs a stable ``argsort`` of ``major`` alone.
    """
    by_index = minor is None
    if by_index:
        nminor = len(major)
    bits = (nminor - 1).bit_length()
    if bits + (nmajor - 1).bit_length() > KEY_BITS:
        if by_index:
            order = np.argsort(major, kind="stable")
            return major[order].astype(np.int64, copy=False), order
        order = np.lexsort((minor, major))
        return major[order].astype(np.int64), minor[order]
    if by_index:
        minor = np.arange(nminor, dtype=np.int64)
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


def _pair_heights(graph, edges, deg):
    """Every two edges lo < hi sharing a node, with the height 1 - S of each.

    Returns ``(pair, rank, heights)``: ``pair`` is ``lo * L + hi``,
    ``heights`` the ascending distinct heights, ``rank`` each pair's index
    into it. ``edges`` is the graph's sorted (L, 2) int32 endpoint array,
    ``deg`` each node's count of distinct neighbours. The two edges end in
    other endpoints i < j, and the node pair (i, j) comes up once per common
    neighbour: |N+(i) & N+(j)| is that multiplicity plus 2 when i and j are
    adjacent, and |N+(i) | N+(j)| is deg_i + deg_j + 2 minus it.
    """
    n, nedge = graph.n, len(edges)
    # half-edges grouped by keystone, where other endpoints and edge ids both
    # ascend: half-edge a pairs with every later half-edge b of its keystone,
    # so i < j and lo < hi
    start, other, eid = graph.neighbours()
    partners = np.repeat(start[1:].astype(np.int32), deg)
    partners -= 1 + np.arange(2 * nedge, dtype=np.int32)
    first = np.repeat(np.arange(2 * nedge, dtype=np.int32), partners)
    # second = first + 1 + its position within first's run of partners
    second = np.arange(len(first), dtype=np.int32)
    second -= np.repeat(np.cumsum(partners, dtype=np.int32) - partners, partners)
    del partners
    second += first
    second += 1
    node_pair = other[first].astype(np.int64, copy=False) * n + other[second]
    pair = eid[first].astype(np.int64, copy=False) * nedge + eid[second]
    del first, second, eid, other
    # group the pairs by node pair; the group sizes are the shared keystones
    npair = len(pair)
    node_pair, order = _sort_packed(node_pair, n * n)
    group_start = np.ones(npair, dtype=bool)
    np.not_equal(node_pair[1:], node_pair[:-1], out=group_start[1:])
    starts = np.flatnonzero(group_start)
    del group_start
    keys = node_pair[starts]
    del node_pair
    shared = np.diff(starts, append=npair).astype(np.int32)
    del starts
    edge_keys = edges[:, 0].astype(np.int64) * n + edges[:, 1]
    at = np.minimum(np.searchsorted(edge_keys, keys), nedge - 1)
    adjacent = edge_keys[at] == keys
    del at, edge_keys
    i, j = np.divmod(keys, n)
    del keys
    # the group arrays set the build's peak, so union is summed in place
    union = deg[i]
    del i
    union += deg[j]
    del j
    inter = shared + 2 * adjacent
    del adjacent
    union += 2
    union -= inter
    # a height depends only on the small integers (inter, union): rank the
    # codes that occur in a dense table, then every group by one gather
    width = int(union.max(initial=0)) + 1
    code = inter * width + union
    del inter, union
    table = np.zeros(int(code.max(initial=0)) + 1, dtype=np.int32)
    table[code] = 1
    codes = np.flatnonzero(table)
    code_heights = 1.0 - (codes // width) / (codes % width)
    heights, table[codes] = np.unique(code_heights, return_inverse=True)
    group_rank = table[code]
    del code, table
    rank = np.empty(npair, dtype=np.int32)
    rank[order] = np.repeat(group_rank, shared)
    return pair, rank, heights


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
