"""Independent reference implementations used to cross-check the package.

Everything here is written against the raw definitions over dense structures
and brute-force enumeration, deliberately sharing no code or algorithmic
shape with the package: quadratic pairwise sums instead of per-community
accumulators, base-2 logarithms for NMI, restricted-growth-string partition
enumeration, subset enumeration for cliques, a per-pair set-Jaccard walk
for the link dendrogram and a float search for its height ranks, a
recursive per-row tree grower that re-reads the rows of every node (a queue
walk renumbers a tree into level order, and a row-by-row descent scores
it), and a row-by-row subsample draw. The Louvain
move phase and the GCE expansion step are kept in their earlier form, which
scans candidates in sorted order, and so is the all-sizes Bron-Kerbosch
enumerator GCE used before its clique search took a minimum size. The graph
constructor, the edge-list loader and the block contraction are kept as the
per-edge and per-line loops they were before graphs kept their edges as
arrays.
"""

import math
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from commbench.errors import DataError


def adjacency_from_edges(n, edges):
    """Dense symmetric adjacency; a self-loop (i, i, w) contributes A_ii = 2w."""
    a = [[0.0] * n for _ in range(n)]
    for i, j, w in edges:
        if i == j:
            a[i][i] += 2.0 * w
        else:
            a[i][j] += w
            a[j][i] += w
    return a


def modularity_oracle(n, edges, assignment, t):
    """Pairwise-sum form of the resolution-parameterized objective."""
    a = adjacency_from_edges(n, edges)
    two_m = sum(sum(row) for row in a)
    if two_m == 0:
        return 1.0 - t
    k = [sum(row) for row in a]
    score = 1.0 - t
    for i in range(n):
        for j in range(n):
            if assignment[i] == assignment[j]:
                score += (t * a[i][j] - k[i] * k[j] / two_m) / two_m
    return score


def standard_modularity_oracle(n, edges, assignment):
    """Plain Newman-Girvan modularity, no resolution term."""
    a = adjacency_from_edges(n, edges)
    two_m = sum(sum(row) for row in a)
    if two_m == 0:
        return 0.0
    k = [sum(row) for row in a]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if assignment[i] == assignment[j]:
                q += (a[i][j] - k[i] * k[j] / two_m) / two_m
    return q


def enumerate_partitions(n):
    """All set partitions of range(n) as assignment lists (restricted growth)."""
    def rec(prefix, mx):
        if len(prefix) == n:
            yield list(prefix)
            return
        for v in range(mx + 2):
            yield from rec(prefix + [v], max(mx, v))
    yield from rec([], -1)


def nmi_oracle(p, q):
    """NMI from the joint distribution, in base-2 logs (base cancels)."""
    n = len(p)
    assert n == len(q) and n > 0
    def canon(xs):
        seen = {}
        out = []
        for x in xs:
            out.append(seen.setdefault(x, len(seen)))
        return tuple(out)
    if canon(p) == canon(q):
        return 1.0
    joint = {}
    for a, b in zip(p, q):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    pa = {}
    pb = {}
    for (a, b), c in joint.items():
        pa[a] = pa.get(a, 0) + c
        pb[b] = pb.get(b, 0) + c
    hp = -sum(c / n * math.log2(c / n) for c in pa.values())
    hq = -sum(c / n * math.log2(c / n) for c in pb.values())
    if hp == 0.0 or hq == 0.0:
        return 0.0
    info = 0.0
    for (a, b), c in joint.items():
        info += c / n * math.log2((c * n) / (pa[a] * pb[b]))
    value = 2.0 * info / (hp + hq)
    return min(1.0, max(0.0, value))


def jaccard_oracle(a, b):
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def dedup_postcondition_holds(communities, epsilon):
    """No retained pair where the smaller-or-equal set has J > epsilon."""
    for x, y in combinations(communities, 2):
        small, large = (x, y) if len(x) <= len(y) else (y, x)
        if len(small) <= len(large) and jaccard_oracle(small, large) > epsilon:
            return False
    return True


def best_match_oracle(n, communities):
    """Per node, the index of its largest community, the earliest on ties.

    The k-th node in no community gets len(communities) + k.
    """
    labels = []
    fresh = len(communities)
    for v in range(n):
        holding = [(-len(c), i) for i, c in enumerate(communities) if v in c]
        if holding:
            labels.append(min(holding)[1])
        else:
            labels.append(fresh)
            fresh += 1
    return labels


def smallest_median_oracle(n, communities):
    """(median smallest containing size over covered nodes or None, uncovered)."""
    smallest = [min((len(c) for c in communities if v in c), default=None) for v in range(n)]
    covered = sorted(s for s in smallest if s is not None)
    k = len(covered)
    if k == 0:
        return None, n
    if k % 2:
        return float(covered[k // 2]), n - k
    return (covered[k // 2 - 1] + covered[k // 2]) / 2, n - k


def min_overlap_scan_oracle(candidates, distance):
    """GCE's acceptance, scanning every kept community with exact fractions.

    A candidate is kept, in input order, unless its minimum-overlap distance
    1 - |C & A| / min(|C|, |A|) to some kept community A is below distance.
    """
    kept = []
    for c in map(set, candidates):
        if all(1 - Fraction(len(c & a), min(len(c), len(a))) >= distance for a in kept):
            kept.append(c)
    return kept


def maximal_cliques_oracle(n, neighbor_sets):
    """All maximal cliques by subset enumeration; only viable for small n."""
    cliques = []
    nodes = list(range(n))
    for r in range(1, n + 1):
        for sub in combinations(nodes, r):
            s = set(sub)
            if all(v in neighbor_sets[u] for u, v in combinations(sub, 2)):
                cliques.append(s)
    maximal = []
    for c in cliques:
        if not any(c < other for other in cliques):
            maximal.append(frozenset(c))
    return set(maximal)


def core_numbers_oracle(n, neighbor_sets):
    """Each node's core number: the largest k whose k-core holds it.

    The k-core is found afresh for every k by deleting nodes of degree below
    k until none is left.
    """
    core = [0] * n
    for k in range(1, n):
        alive = set(range(n))
        while True:
            weak = {v for v in alive if len(neighbor_sets[v] & alive) < k}
            if not weak:
                break
            alive -= weak
        for v in alive:
            core[v] = k
    return core


def bron_kerbosch_oracle(graph):
    """Enumerate all maximal cliques (Bron-Kerbosch with pivoting).

    Returns sorted member lists; the enumeration order is deterministic but
    unspecified. Isolated nodes come back as singleton cliques.
    """
    adj = [set(j for j, _ in graph.adj[i]) for i in range(graph.n)]
    out = []

    # an explicit stack of search nodes [r, p, x, branches left], not
    # recursion: a k-clique nests k search nodes deep
    stack = []

    def push(r, p, x):
        if not p and not x:
            out.append(sorted(r))
            return
        pivot = -1
        best = -1
        for u in sorted(p | x):
            score = len(adj[u] & p)
            if score > best:
                best = score
                pivot = u
        stack.append([r, p, x, iter(sorted(p - adj[pivot]))])

    push(set(), set(range(graph.n)), set())
    while stack:
        top = stack[-1]
        r, p, x, branches = top
        v = next(branches, None)
        if v is None:
            stack.pop()
            continue
        top[1] = p - {v}
        top[2] = x | {v}
        push(r | {v}, p & adj[v], x & adj[v])
    return sorted(out, key=lambda c: (len(c), c))


def edge_components_oracle(edges, similarities, cut):
    """Single-linkage clusters as components over pairs with S >= 1 - cut.

    edges: list of edge keys; similarities: {(edge_a, edge_b): S}. Matches a
    dendrogram cut that applies merges with height <= cut, heights = 1 - S.
    """
    parent = {e: e for e in edges}
    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for (a, b), s in similarities.items():
        if 1.0 - s <= cut:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    comps = {}
    for e in edges:
        comps.setdefault(find(e), set()).add(e)
    return {frozenset(c) for c in comps.values()}


def link_clustering_oracle(graph):
    """Link dendrogram from a per-pair Python walk with set Jaccard scores.

    Every two edges sharing a keystone are scored by building both other
    endpoints' inclusive neighbourhoods as sets; the (height, lo, hi) tuples
    are sorted and joined greedily with a union-find. Returns the leaves and
    the ``(edge_a, edge_b, height)`` merges, as on ``Dendrogram``.
    """
    edges = sorted((i, j) for i, j, _ in graph.edges() if i != j)
    incident = [[] for _ in range(graph.n)]  # node -> [(other endpoint, edge id)]
    for eid, (i, j) in enumerate(edges):
        incident[i].append((j, eid))
        incident[j].append((i, eid))
    inclusive = [
        frozenset(u for u, _ in graph.adj[v]) | {v} for v in range(graph.n)
    ]
    pairs = []
    for inc in incident:
        for a in range(len(inc)):
            i, ea = inc[a]
            for b in range(a + 1, len(inc)):
                j, eb = inc[b]
                ni, nj = inclusive[i], inclusive[j]
                s = len(ni & nj) / len(ni | nj)
                pairs.append((1.0 - s, min(ea, eb), max(ea, eb)))
    pairs.sort()
    parent = list(range(len(edges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = []
    for h, ea, eb in pairs:
        ra, rb = find(ea), find(eb)
        if ra != rb:
            parent[ra] = rb
            merges.append((ea, eb, h))
    return SimpleNamespace(leaves=edges, merges=merges)


def pair_heights_oracle(graph, pair):
    """Each edge pair's height rank and the ascending distinct heights.

    ``pair`` holds edge pairs ``lo * L + hi`` over the graph's sorted non-loop
    edges. Each pair's height 1 - S is a set Jaccard of the two other
    endpoints' inclusive neighbourhoods; the ranks are a float search of
    those heights in their ``np.unique``.
    """
    edges = sorted((i, j) for i, j, _ in graph.edges() if i != j)
    inclusive = [
        frozenset(u for u, _ in graph.adj[v]) | {v} for v in range(graph.n)
    ]
    h = []
    for lo, hi in zip(*(x.tolist() for x in np.divmod(pair, len(edges)))):
        (i,) = set(edges[lo]) - set(edges[hi])
        (j,) = set(edges[hi]) - set(edges[lo])
        ni, nj = inclusive[i], inclusive[j]
        h.append(1.0 - len(ni & nj) / len(ni | nj))
    heights = np.unique(np.array(h))
    return np.searchsorted(heights, h), heights


def _best_split_oracle(X, g, rows):
    """Best (feature, threshold) by squared-error reduction over the rows, or None.

    Every column is 0/1 (lowest column on ties, threshold 0.5); a gain must
    exceed 1e-12.
    """
    gr = g[rows]
    n_tot = rows.size
    s_tot = gr.sum()
    parent = s_tot * s_tot / n_tot
    if X.shape[1]:
        B = X[rows]
        c1 = B.sum(axis=0)
        c0 = n_tot - c1
        s1 = gr @ B
        s0 = s_tot - s1
        valid = (c1 > 0) & (c0 > 0)
        score = np.full(c1.shape, -np.inf)
        np.divide(s1 * s1, c1, out=score, where=valid)
        score0 = np.zeros(c1.shape)
        np.divide(s0 * s0, c0, out=score0, where=valid)
        gains = np.where(valid, score + score0 - parent, -np.inf)
        k = int(np.argmax(gains))
        if gains[k] > 1e-12:
            return k, 0.5
    return None


def regression_tree_oracle(X, g, h, rows, max_depth, min_samples_split):
    """Greedy tree grown recursively, node by node, from the rows themselves.

    Returns preorder node lists (feature, threshold, left, right, value):
    leaves have feature -1, children -1 and the Newton value
    sum(g) / (sum(h) + 1e-12) clipped to [-4, 4]; splits have value 0.0 and
    send rows with X[:, feature] <= threshold left.
    """
    feature, threshold, left, right, value = [], [], [], [], []

    def add(f, t, v):
        for column, item in zip(
            (feature, threshold, left, right, value), (f, t, -1, -1, v)
        ):
            column.append(item)
        return len(feature) - 1

    def grow(idx, depth):
        split = None
        if depth < max_depth and idx.size >= min_samples_split:
            split = _best_split_oracle(X, g, idx)
        if split is None:
            v = g[idx].sum() / (h[idx].sum() + 1e-12)
            return add(-1, 0.0, max(-4.0, min(4.0, v)))
        f, t = split
        node = add(f, t, 0.0)
        mask = X[idx, f] <= t
        left[node] = grow(idx[mask], depth + 1)
        right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.asarray(rows), 0)
    return feature, threshold, left, right, value


def renumber_tree(feature, threshold, left, right, value):
    """Feature and value lists of a tree walked from node 0 breadth-first, left first.

    Node k of the result is the k-th node visited.
    """
    order, todo = [], [0] if len(feature) else []
    while todo:
        k = todo.pop(0)
        order.append(k)
        if feature[k] >= 0:
            todo += [left[k], right[k]]
    return [int(feature[k]) for k in order], [float(value[k]) for k in order]


def tree_descent_oracle(tree, X):
    """Leaf value of each row of X, walked down one row at a time.

    tree holds regression_tree_oracle's node lists; a row goes left at a
    split when X[row, feature] <= threshold.
    """
    feature, threshold, left, right, value = tree
    out = []
    for row in np.asarray(X):
        k = 0
        while feature[k] >= 0:
            k = left[k] if row[feature[k]] <= threshold[k] else right[k]
        out.append(float(value[k]))
    return out


def subsample_counts_oracle(patterns, labels, classes, sub_size, rng):
    """Row counts of one row subsample per class, drawn row by row.

    Class k's subsample is sub_size distinct rows chosen uniformly. Returns
    (classes x patterns) arrays: the rows of each pattern in class k's
    subsample, and how many of those rows are labelled k.
    """
    width = max(patterns) + 1
    cnt = np.zeros((classes, width))
    pos = np.zeros((classes, width))
    for k in range(classes):
        for row in rng.choice(len(patterns), size=sub_size, replace=False):
            cnt[k, patterns[row]] += 1
            pos[k, patterns[row]] += labels[row] == k
    return cnt, pos


def log_loss_oracle(scores, y):
    """Mean cross-entropy of each score row's softmax against its label."""
    total = 0.0
    for row, label in zip(np.asarray(scores, dtype=np.float64), y):
        shift = float(row.max())
        log_norm = shift + math.log(sum(math.exp(s - shift) for s in row))
        total += log_norm - float(row[label])
    return total / len(y)


def louvain_level_oracle(graph, t):
    """Louvain's local move phase, scanning neighbour communities sorted.

    Returns (assignment, moved_any) as ``louvain._one_level`` does; a move
    needs a strictly larger gain, so ties keep the lowest community index.
    """
    n = graph.n
    if graph.m == 0:
        return list(range(n)), False
    inv2m = 1.0 / (2.0 * graph.m)
    comm = list(range(n))
    tot = list(graph.degrees)
    moved_any = False
    while True:
        moved = False
        for i in range(n):
            ki = graph.degrees[i]
            old = comm[i]
            w2c = {}
            for j, w in graph.adj[i]:
                cj = comm[j]
                w2c[cj] = w2c.get(cj, 0.0) + w
            tot[old] -= ki
            best_comm = old
            best_gain = t * w2c.get(old, 0.0) - tot[old] * ki * inv2m
            for c in sorted(w2c):
                if c == old:
                    continue
                gain = t * w2c[c] - tot[c] * ki * inv2m
                if gain > best_gain:
                    best_gain = gain
                    best_comm = c
            tot[best_comm] += ki
            if best_comm != old:
                comm[i] = best_comm
                moved = True
                moved_any = True
        if not moved:
            break
    return comm, moved_any


def gce_expand_oracle(graph, seed, alpha):
    """GCE's greedy seed expansion, scanning the frontier sorted.

    Fitness is k_in / (k_in + k_out)^alpha (0 for an empty total); a node
    joins only on a strict improvement, so ties keep the lowest node index.
    """
    def fitness(kin, kout):
        total = kin + kout
        return 0.0 if total <= 0.0 else kin / total**alpha

    members = set(seed)
    kin = 0.0
    kout = 0.0
    w_in = {}
    for v in members:
        for u, w in graph.adj[v]:
            if u in members:
                kin += w
            else:
                kout += w
                w_in[u] = w_in.get(u, 0.0) + w
    best_f = fitness(kin, kout)
    while w_in:
        best_v = None
        best_vf = best_f
        for v in sorted(w_in):
            wv = w_in[v]
            f = fitness(kin + 2.0 * wv, kout - wv + (graph.degrees[v] - wv))
            if f > best_vf:
                best_vf = f
                best_v = v
        if best_v is None:
            break
        wv = w_in.pop(best_v)
        kin += 2.0 * wv
        kout += graph.degrees[best_v] - 2.0 * wv
        members.add(best_v)
        for u, w in graph.adj[best_v]:
            if u not in members:
                w_in[u] = w_in.get(u, 0.0) + w
        best_f = best_vf
    return frozenset(members)


class GraphOracle:
    """The per-edge graph constructor the package used before its edge arrays.

    Takes dense-index triples ``(i, j, weight)`` and checks them one by one;
    holds ``labels``, ``adj`` (sorted ``(neighbour, weight)`` lists),
    ``loops``, ``degrees`` and ``m``. Each node's weights are summed left to
    right, as ``sum()`` of floats did before Python 3.12.
    """

    def __init__(self, labels, edges, allow_self_loops=False):
        self.labels = list(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise DataError("node labels are not unique")
        nbrs = [[] for _ in range(n)]
        loops = [0.0] * n
        seen = set()
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DataError(f"edge ({i}, {j}) outside node range 0..{n - 1}")
            w = float(w)
            if not 0.0 < w < math.inf:
                kind = "non-positive" if w <= 0.0 else "non-finite"
                raise DataError(f"edge ({i}, {j}) has {kind} weight {w}")
            if i == j:
                if not allow_self_loops:
                    raise DataError(f"self-loop on node {self.labels[i]!r}")
                if loops[i] != 0.0:
                    raise DataError(f"duplicate self-loop on node {self.labels[i]!r}")
                loops[i] = w
                continue
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise DataError(
                    f"duplicate edge {self.labels[key[0]]!r} -- {self.labels[key[1]]!r}"
                )
            seen.add(key)
            nbrs[i].append((j, w))
            nbrs[j].append((i, w))
        self.adj = [sorted(lst) for lst in nbrs]
        self.loops = loops
        sums = []
        for lst in self.adj:
            total = 0.0
            for _, w in lst:
                total += w
            sums.append(total)
        self.degrees = [sums[i] + 2.0 * loops[i] for i in range(n)]
        self.m = 0.5 * sum(sums) + sum(loops)

    def edges(self):
        for i, lst in enumerate(self.adj):
            for j, w in lst:
                if i < j:
                    yield i, j, w
        for i, w in enumerate(self.loops):
            if w != 0.0:
                yield i, i, w


def load_edge_list_oracle(path, allow_self_loops=False):
    """The per-line edge-list loader the package used before its chunked one."""
    labels = []
    index = {}
    edges = []
    seen = {}  # (i, j) with i <= j -> line it was first seen on
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise DataError(
                    f"{path}:{lineno}: expected 'u v' or 'u v w', got {line!r}"
                )
            u, v = parts[0], parts[1]
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad weight {parts[2]!r}") from None
            else:
                w = 1.0
            if not 0.0 < w < math.inf:
                raise DataError(
                    f"{path}:{lineno}: weight must be positive and finite, got {w:g}"
                )
            for lab in (u, v):
                if lab not in index:
                    if lab.startswith("#"):
                        raise DataError(f"{path}:{lineno}: node label {lab!r} starts with '#'")
                    index[lab] = len(labels)
                    labels.append(lab)
            i, j = index[u], index[v]
            if i == j and not allow_self_loops:
                raise DataError(f"{path}:{lineno}: self-loop on {u!r}")
            key = (i, j) if i <= j else (j, i)
            if key in seen:
                raise DataError(
                    f"{path}:{lineno}: duplicate edge (first seen at line {seen[key]})"
                )
            seen[key] = lineno
            edges.append((i, j, w))
    return GraphOracle(labels, edges, allow_self_loops=allow_self_loops)


def build_meta_graph_oracle(graph, blocks):
    """Block contraction summing each block pair's weight in a dict."""
    block_of = {v: b for b, members in enumerate(blocks) for v in members}
    acc = {}
    for i, j, w in graph.edges():
        bi = block_of.get(i)
        bj = block_of.get(j)
        if bi is None or bj is None:
            continue
        key = (bi, bj) if bi <= bj else (bj, bi)
        acc[key] = acc.get(key, 0.0) + w
    edges = [(a, b, w) for (a, b), w in sorted(acc.items())]
    return GraphOracle([f"b{b}" for b in range(len(blocks))], edges, allow_self_loops=True)
