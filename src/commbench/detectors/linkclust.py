"""Hierarchical clustering of edges by endpoint-neighborhood similarity.

Two edges sharing a keystone node k, say (i, k) and (j, k), are scored with
the Jaccard similarity of the *other* endpoints' inclusive neighborhoods
N+(x) = N(x) + {x}; non-adjacent edges are never compared. Single-linkage
agglomeration over the heights 1 - S builds a merge forest whose leaves are
the graph's edges, kept as the height-sorted list of the edge pairs that
joined two clusters. Cutting it at a height and mapping every edge cluster
to the nodes it spans yields an overlapping node cover; clusters
spanning fewer than four nodes or holding fewer than three edges are
dropped. Similarities ignore edge weights. Everything is deterministic:
candidate pairs are processed in (height, edge-id, edge-id) order.

``sweep_link_dendrogram`` makes every cover: it walks the merges once for a
whole grid of cut heights, keeping each cluster's node set and edge count as
it grows, so a sweep costs one build plus one walk, not one replay per
threshold. ``cut_link_dendrogram`` is its one-threshold case.

The heights come from numpy arrays over all sum_k deg(k)(deg(k) - 1)/2 edge
pairs, without sets: |N+(i) & N+(j)| is the number of keystones i and j
share (how often the node pair turns up among the pairs) plus 2 when i and
j are adjacent, |N+(i) | N+(j)| is deg(i) + deg(j) + 2 minus that, and the
integer quotient is rounded exactly as Python's would be.

The merges come from one in-place sort of packed (height rank, pair) keys,
then a walk over slices of the sorted pairs: each slice's merges are the
spanning forest of its pairs over the clusters live at its start, found by
Boruvka's algorithm in numpy, so no pair reaches a Python loop. The order of
the keys is strict, so that forest is unique and holds exactly the merges a
pair-by-pair union-find would make.

The build peaks while it computes the heights, at about 53 bytes per pair
(traced with tracemalloc: 104.6 MB for the 1,974,823 pairs of the benchmark's
10,000-node graph), so a graph with more than ``MAX_EDGE_PAIRS`` pairs
(about 1.5 GiB) is refused with a ``DataError`` before any per-pair array is
allocated.
"""

from __future__ import annotations

import numpy as np

from ..covers import Cover
from ..errors import DataError

MIN_NODES = 4
MIN_EDGES = 3
MAX_EDGE_PAIRS = 30_000_000  # ~53 bytes each at the build's peak
WALK_CHUNK = 1 << 16
KEY_BITS = 63  # a packed (rank, pair) sort key must fit an int64


def _find(parent, x):
    """Root of x's set, compressing the path walked."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent, a, b):
    """Join the sets of a and b under the smaller root; False if already one."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[max(ra, rb)] = min(ra, rb)
    return True


class Dendrogram:
    """Single-linkage merge forest over leaves 0..L-1, as a height-sorted list.

    Each merge is ``(edge_a, edge_b, height)``: the leaf ids of the pair that
    joined two clusters, with heights in [0, 1] and non-decreasing along the
    list. A cut at height h is the components of the merges at or below h.
    """

    __slots__ = ("leaves", "merges")

    def __init__(self, leaves, merges):
        self.leaves = list(leaves)
        self.merges = list(merges)
        nleaf = len(self.leaves)
        previous = 0.0
        for k, (a, b, h) in enumerate(self.merges):
            if not 0.0 <= h <= 1.0:
                raise DataError(f"merge height {h} outside [0, 1]")
            if h < previous:
                raise DataError(f"merge {k} height {h} is below the previous {previous}")
            previous = h
            for leaf in (a, b):
                if not 0 <= leaf < nleaf:
                    raise DataError(f"merge {k} references unknown leaf {leaf}")

    def cut(self, height):
        """Leaf clusters after applying every merge at or below the cut.

        Returns ascending lists of leaf indices, ordered by each cluster's
        smallest leaf. Unmerged leaves come back as singleton clusters.
        """
        parent = list(range(len(self.leaves)))
        for a, b, h in self.merges:
            if h > height:
                break
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


def link_clustering(graph):
    """Build the single-linkage merge forest over the graph's edges."""
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
    pair, rank, heights = _pair_heights(graph.n, edges, deg)
    lo, hi, rank = _spanning_merges(len(edges), pair, rank, len(heights))
    # the Python lists outlive the build: made once the pair array is freed,
    # they fill the heap's holes instead of pinning its top above them
    del pair
    leaves = list(zip(graph.lo.tolist(), graph.hi.tolist()))
    return Dendrogram(leaves, zip(lo.tolist(), hi.tolist(), heights[rank].tolist()))


def _spanning_merges(nedge, pair, rank, nrank):
    """Merges of a single-linkage walk over the pairs in (height, lo, hi) order.

    ``rank`` holds values below ``nrank``. The pairs are ordered by one
    in-place sort of the packed keys ``rank << b | pair``, with b the bits of
    L*L - 1, written into ``pair``'s own buffer (so ``pair`` is consumed);
    when a key would need more than ``KEY_BITS`` bits, a ``lexsort`` gives
    the same order instead. The walk goes a slice of ``WALK_CHUNK`` pairs at a
    time: a pair whose edges already share a cluster at the slice's start
    cannot merge, and ``_boruvka`` finds which of the others do. The order is
    strict, so the spanning forest is unique and Boruvka picks exactly the
    pairs a greedy walk would. Returns the merges as arrays ``(lo, hi, rank)``
    in walk order.
    """
    bits = (nedge * nedge - 1).bit_length()
    if bits + (nrank - 1).bit_length() <= KEY_BITS:
        for start in range(0, len(pair), WALK_CHUNK):
            block = slice(start, start + WALK_CHUNK)
            pair[block] |= rank[block].astype(np.int64) << bits
        pair.sort()
        mask = (1 << bits) - 1

        def ordered(start):
            key = pair[start:start + WALK_CHUNK]
            return key & mask, key >> bits
    else:
        order = np.lexsort((pair, rank))

        def ordered(start):
            chunk = order[start:start + WALK_CHUNK]
            return pair[chunk], rank[chunk]

    roots = np.arange(nedge)  # each leaf's cluster as of the slice start
    remap = np.arange(nedge)
    merges = []
    for start in range(0, len(pair), WALK_CHUNK):
        ids, ranks = ordered(start)
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


def _pair_heights(n, edges, deg):
    """Every two edges lo < hi sharing a node, with the height 1 - S of each.

    Returns ``(pair, rank, heights)``: ``pair`` is ``lo * L + hi``,
    ``heights`` the ascending distinct heights, ``rank`` each pair's index
    into it. ``edges`` is the sorted (L, 2) int32 endpoint array, ``deg``
    each node's count of distinct neighbours. The two edges end in other
    endpoints i < j, and the node pair (i, j) comes up once per common
    neighbour: |N+(i) & N+(j)| is that multiplicity plus 2 when i and j are
    adjacent, and |N+(i) | N+(j)| is deg_i + deg_j + 2 minus it.
    """
    nedge = len(edges)
    # half-edges (keystone, other endpoint, edge id), keystones ascending and
    # edge ids ascending within each keystone: with the edges sorted, the
    # (i, v) edges of a keystone v precede its (v, j) ones, so the half-edges
    # keyed on the larger endpoint go first into the stable sort
    keystone = np.concatenate((edges[:, 1], edges[:, 0]))
    by_keystone = np.argsort(keystone, kind="stable")
    del keystone
    other = np.concatenate((edges[:, 0], edges[:, 1]))[by_keystone]
    eid = np.tile(np.arange(nedge, dtype=np.int32), 2)[by_keystone]
    del by_keystone
    # half-edge a pairs with every later half-edge b of its keystone; within a
    # keystone other endpoints and edge ids both ascend, so i < j and lo < hi
    seg_end = np.repeat(np.cumsum(deg).astype(np.int32), deg)
    partners = seg_end - 1 - np.arange(2 * nedge, dtype=np.int32)
    del seg_end
    first = np.repeat(np.arange(2 * nedge, dtype=np.int32), partners)
    # second = first + 1 + position within the run, as a running sum of
    # steps that are 1 inside a run and jump to the next half-edge's successor
    step = np.ones(len(first), dtype=np.int32)
    runs = np.flatnonzero(partners)
    run_start = np.cumsum(partners[runs]) - partners[runs]
    last = runs + partners[runs]
    step[run_start] = runs + 1 - np.concatenate(([0], last[:-1]))
    del partners, runs, run_start, last
    second = np.cumsum(step, dtype=np.int32)
    del step
    node_pair = other[first].astype(np.int64) * n + other[second]
    pair = eid[first].astype(np.int64) * nedge + eid[second]
    del first, second, eid, other
    # group the pairs by node pair; the group sizes are the shared keystones
    by_node_pair = np.argsort(node_pair)
    node_pair = node_pair[by_node_pair]
    group_start = np.ones(len(pair), dtype=bool)
    np.not_equal(node_pair[1:], node_pair[:-1], out=group_start[1:])
    starts = np.flatnonzero(group_start)
    del group_start
    keys = node_pair[starts]
    del node_pair
    shared = np.diff(starts, append=len(pair)).astype(np.int32)
    del starts
    edge_keys = edges[:, 0].astype(np.int64) * n + edges[:, 1]
    at = np.minimum(np.searchsorted(edge_keys, keys), nedge - 1)
    adjacent = edge_keys[at] == keys
    del at, edge_keys
    i, j = np.divmod(keys, n)
    del keys
    inter = shared + 2 * adjacent
    del adjacent
    h = 1.0 - inter / (deg[i] + deg[j] + 2 - inter)
    del i, j, inter
    heights = np.unique(h)
    group_rank = np.searchsorted(heights, h).astype(np.int32)
    del h
    rank = np.empty(len(pair), dtype=np.int32)
    rank[by_node_pair] = np.repeat(group_rank, shared)
    return pair, rank, heights


def _check_threshold(threshold_percent):
    if not isinstance(threshold_percent, int) or isinstance(threshold_percent, bool):
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
    root keeps its cluster's node set and edge count. A cover holds the
    clusters passing the size filter, ordered by root, with the frozenset of
    each cached until its cluster next merges. Covers come back in the order
    of ``thresholds``, repeats included.
    """
    thresholds = list(thresholds)
    for threshold_percent in thresholds:
        _check_threshold(threshold_percent)
    leaves = dendrogram.leaves
    merges = dendrogram.merges
    parent = list(range(len(leaves)))
    nodes = {}  # root -> node set, for clusters of two or more edges
    edge_count = {}  # root -> edges, likewise
    passing = {}  # root -> its frozenset once emitted, else None
    covers = {}
    k = 0
    for threshold_percent in sorted(set(thresholds)):
        height = threshold_percent / 100.0
        while k < len(merges) and merges[k][2] <= height:
            a, b, _ = merges[k]
            k += 1
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                continue
            root, other = min(ra, rb), max(ra, rb)
            parent[other] = root
            big = nodes.pop(root, None) or set(leaves[root])
            small = nodes.pop(other, None) or set(leaves[other])
            if len(big) < len(small):
                big, small = small, big
            big |= small
            nodes[root] = big
            count = edge_count[root] = edge_count.get(root, 1) + edge_count.pop(other, 1)
            passing.pop(other, None)
            if count >= MIN_EDGES and len(big) >= MIN_NODES:
                passing[root] = None  # new, or grown past its cached set
        communities = []
        for root in sorted(passing):
            community = passing[root]
            if community is None:
                community = passing[root] = frozenset(nodes[root])
            communities.append(community)
        covers[threshold_percent] = Cover(graph.n, communities)
    return [covers[threshold_percent] for threshold_percent in thresholds]
