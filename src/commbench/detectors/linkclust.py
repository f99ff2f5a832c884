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
"""

from __future__ import annotations

from ..covers import Cover, dedupe_exact
from ..errors import DataError

MIN_NODES = 4
MIN_EDGES = 3


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
    ni = {u for u, _ in graph.adj[i]} | {i}
    nj = {u for u, _ in graph.adj[j]} | {j}
    return len(ni & nj) / len(ni | nj)


def link_clustering(graph):
    """Build the single-linkage merge forest over the graph's edges."""
    edges = [(i, j) for i, j, _ in graph.edges() if i != j]
    if not edges:
        raise DataError("link clustering requires at least one edge")
    edges.sort()
    incident = [[] for _ in range(graph.n)]  # node -> [(other endpoint, edge id)]
    for eid, (i, j) in enumerate(edges):
        incident[i].append((j, eid))
        incident[j].append((i, eid))
    inclusive = [
        frozenset(u for u, _ in graph.adj[v]) | {v} for v in range(graph.n)
    ]
    pairs = []
    for keystone in range(graph.n):
        inc = incident[keystone]
        for a in range(len(inc)):
            i, ea = inc[a]
            for b in range(a + 1, len(inc)):
                j, eb = inc[b]
                ni, nj = inclusive[i], inclusive[j]
                s = len(ni & nj) / len(ni | nj)
                lo, hi = (ea, eb) if ea < eb else (eb, ea)
                pairs.append((1.0 - s, lo, hi))
    pairs.sort()
    parent = list(range(len(edges)))
    merges = []
    for h, ea, eb in pairs:
        if _union(parent, ea, eb):
            merges.append((ea, eb, h))
    return Dendrogram(edges, merges)


def _check_threshold(threshold_percent):
    if not isinstance(threshold_percent, int) or isinstance(threshold_percent, bool):
        raise ValueError("threshold must be an integer percentage")
    if not 1 <= threshold_percent <= 100:
        raise ValueError(
            f"threshold must be between 1 and 100, got {threshold_percent}"
        )


def cut_link_dendrogram(dendrogram, threshold_percent, graph):
    """Cut the forest at threshold_percent/100 and span clusters onto nodes."""
    _check_threshold(threshold_percent)
    height = threshold_percent / 100.0
    communities = []
    for leaf_ids in dendrogram.cut(height):
        if len(leaf_ids) < MIN_EDGES:
            continue
        nodes = set()
        for eid in leaf_ids:
            i, j = dendrogram.leaves[eid]
            nodes.add(i)
            nodes.add(j)
        if len(nodes) < MIN_NODES:
            continue
        communities.append(frozenset(nodes))
    return Cover(
        graph.n,
        dedupe_exact(communities),
        provenance=f"linkcluster(threshold={threshold_percent})",
    )
