"""Greedy clique expansion for overlapping communities.

The method is Lee, Reid, McDaid and Hurley's (arXiv:1002.1827), without
their seed pruning. Maximal cliques of at least four nodes seed candidate
communities (the minimum relaxes to three when the graph has no 4-clique at
all). Each seed grows by the single frontier node that most improves the
fitness

    F(S) = k_in / (k_in + k_out)^alpha

where k_in is twice the internal edge weight of S and k_out the weight
crossing its boundary; growth stops as soon as no addition strictly improves
F. A finished candidate is discarded when its minimum-overlap distance
1 - |C & A| / min(|C|, |A|) to an already accepted community is below 0.25.
Seeds are processed largest first (ties by member list), frontier ties go to
the lowest node index, so the whole run is deterministic. ``gce_sweep``
lists the seed cliques once and grows the same seeds for every alpha of a
grid.

An expansion step scores one frontier node per degree, not the whole
frontier, while every value the fitness is computed from is an integer.
Adding node v, of degree d_v and weight w_v into S, gives (k_in + 2 w_v) /
(k_in + k_out + d_v)^alpha. When k_in, k_out, w_v and d_v are integers and
4m < 2^52, every sum in it is exact, so all nodes of one degree share one
denominator, and numerators at least 2 apart stay ordered after rounding:
the heaviest node of a degree, the lowest index on ties, is the only one of
its degree that can win. Each degree keeps a lazy heap of (-w_v, v); w_v
only grows, so every update pushes a new entry and stale tops are dropped.
Once a non-integer value turns up, the expansion scans the whole frontier
from then on: the rounding of the denominator can then rank a node a few
units in the last place lighter above the heaviest. Unweighted graphs never
leave the heaps.

``maximal_cliques`` lists only the cliques of a minimum size. It visits the
nodes in degeneracy order (Eppstein, Loffler and Strash, ISAAC 2010): each
node v roots one Bron-Kerbosch search over its later neighbours, with its
earlier ones excluded, so the candidate set never exceeds the degeneracy.
Before the search, the candidates shrink to their (min_size - 2)-core, and
excluded nodes with fewer than min_size - 1 candidate neighbours are
dropped; a branch that cannot reach min_size members is cut, and a root is
skipped when one earlier neighbour is adjacent to all its later ones. The
pivot is Tomita's (the node with the most candidate neighbours), and its scan
stops at a node adjacent to every candidate. A search that passes
``MAX_CLIQUE_SEARCH`` search nodes is refused with a ``DataError`` naming the
degeneracy and the highest-degree node.
"""

from __future__ import annotations

import logging
import math
from heapq import heapify, heappop, heappush
from itertools import chain

from ..covers import Cover
from ..errors import DataError

log = logging.getLogger(__name__)

MIN_CLIQUE = 4
DUPLICATE_DISTANCE = 0.25
# the 4-cliques of the benchmark's 10,000-node graph (detect-10k) take about
# 2,000 search nodes; a graph with 3^12 maximal cliques reaches this bound in
# about a second on two cores
MAX_CLIQUE_SEARCH = 250_000


def _degeneracy_order(adj):
    """Smallest-last node order and core numbers (Batagelj and Zaversnik).

    Each node has at most its core number of neighbours later in the order.
    """
    n = len(adj)
    deg = [len(a) for a in adj]
    # bucket sort by degree: start[d] is where degree d's block begins
    start = [0] * (max(deg, default=0) + 2)
    for d in deg:
        start[d + 1] += 1
    for d in range(1, len(start)):
        start[d] += start[d - 1]
    order = [0] * n
    pos = [0] * n
    fill = start[:]
    for v in range(n):
        pos[v] = fill[deg[v]]
        order[pos[v]] = v
        fill[deg[v]] += 1
    for i in range(n):
        v = order[i]
        for u in adj[v]:
            du = deg[u]
            if du > deg[v]:
                # swap u to the front of its bucket, then move the boundary
                # past it: u now sits in bucket du - 1
                first = start[du]
                w = order[first]
                if w != u:
                    pu = pos[u]
                    order[first], order[pu] = u, w
                    pos[u], pos[w] = first, pu
                start[du] += 1
                deg[u] = du - 1
    return order, deg


def _core(adj, nodes, k):
    """The largest subset of nodes in which each has at least k neighbours."""
    while True:
        weak = {u for u in nodes if len(adj[u] & nodes) < k}
        if not weak:
            return nodes
        nodes = nodes - weak


def _neighbour_sets(graph):
    """Each node's neighbours as a set, filled in ascending order."""
    start, neighbour, _ = graph.neighbours()
    flat = neighbour.tolist()
    bounds = start.tolist()
    return list(map(set, map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:]))))


def maximal_cliques(graph, min_size=1):
    """Enumerate the maximal cliques with at least ``min_size`` members.

    Returns sorted member lists ordered by (size, members). Isolated nodes
    are singleton cliques. Raises ``DataError`` once the search passes
    ``MAX_CLIQUE_SEARCH`` search nodes.
    """
    adj = _neighbour_sets(graph)
    return _cliques(graph, adj, *_degeneracy_order(adj), min_size)


def _cliques(graph, adj, order, core, min_size):
    """maximal_cliques over the neighbour sets and degeneracy order given."""
    out = []
    # an explicit stack of search nodes [r, p, x, branches left], not
    # recursion: a k-clique nests k search nodes deep
    stack = []
    searched = 0

    def push(r, p, x):
        nonlocal searched
        searched += 1
        if searched > MAX_CLIQUE_SEARCH:
            hub = max(range(graph.n), key=lambda u: len(adj[u]))
            raise DataError(
                f"maximal clique search passed {MAX_CLIQUE_SEARCH} search "
                f"nodes; the graph has degeneracy {max(core)} and node "
                f"{graph.labels[hub]!r} has the highest degree ({len(adj[hub])})"
            )
        if not p:
            if not x:
                out.append(sorted(r))
            return
        # Tomita's pivot, the node with the most neighbours in p. x goes
        # first: a node of x adjacent to all of p ends the branch at once.
        # No node can beat one that covers the rest of p, so stop there.
        best = -1
        for u in chain(x, p):
            score = len(adj[u] & p)
            if score > best:
                best, pivot = score, u
                if score + (u in p) == len(p):
                    break
        stack.append([r, p, x, iter(p - adj[pivot])])

    done = set()
    for v in order:
        later = adj[v] - done
        earlier = adj[v] & done
        done.add(v)
        # an earlier neighbour of every later one extends every clique v
        # roots; the check keeps a large clique's later roots cheap
        if any(later <= adj[u] for u in earlier):
            continue
        # a node of a large enough clique has min_size - 2 neighbours in it
        # besides v; one that extends such a clique has min_size - 1
        p = _core(adj, later, min_size - 2)
        if len(p) + 1 < min_size:
            continue
        push((v,), p, {u for u in earlier if len(adj[u] & p) >= min_size - 1})
        while stack:
            top = stack[-1]
            r, p, x, branches = top
            w = next(branches, None)
            if w is None:
                stack.pop()
                continue
            pw = p & adj[w]
            if len(r) + 1 + len(pw) >= min_size:
                push(r + (w,), pw, x & adj[w])
            p.discard(w)
            x.add(w)
    return sorted(out, key=lambda c: (len(c), c))


def _fitness(kin, kout, alpha):
    total = kin + kout
    if total <= 0.0:
        return 0.0
    return kin / total**alpha


def _integer_degrees(graph):
    """True when every degree is an integer and 4m < 2^52.

    The graph's half of the condition under which _expand scores one
    frontier node per degree (see the module docstring).
    """
    return 4.0 * graph.m < 2.0**52 and all(map(float.is_integer, graph.degrees))


def _tops(buckets, w_in):
    """The heaviest frontier node of each degree, the lowest index on ties.

    Drops the stale entries on top of each heap and the heaps left empty.
    """
    tops = []
    for d in list(buckets):
        heap = buckets[d]
        while heap and w_in.get(heap[0][1]) != -heap[0][0]:
            heappop(heap)
        if heap:
            tops.append(heap[0][1])
        else:
            del buckets[d]
    return tops


def _expand(graph, seed, alpha, integer_degrees=False):
    """Grow a seed greedily while fitness strictly improves.

    With ``integer_degrees`` (see _integer_degrees), a step scores one
    frontier node per degree for as long as k_in, k_out and every weight
    into the community are integers; otherwise it scans the whole frontier.
    """
    degrees = graph.degrees
    members = set(seed)
    kin = 0.0
    kout = 0.0
    w_in = {}  # frontier node -> weight into the community
    for v in members:
        for u, w in graph.adj[v]:
            if u in members:
                kin += w  # counted from both endpoints: k_in = 2 * internal
            else:
                kout += w
                w_in[u] = w_in.get(u, 0.0) + w
    buckets = None
    if (
        integer_degrees
        and kin.is_integer()
        and kout.is_integer()
        and all(map(float.is_integer, w_in.values()))
    ):
        # per degree, a lazy max-heap of (-weight in, node): an entry is
        # current while w_in still holds its weight, which only grows
        buckets = {}
        for u, w in w_in.items():
            buckets.setdefault(degrees[u], []).append((-w, u))
        for heap in buckets.values():
            heapify(heap)
    best_f = _fitness(kin, kout, alpha)
    while w_in:
        best_v = None
        best_vf = best_f
        for v in w_in if buckets is None else _tops(buckets, w_in):
            wv = w_in[v]
            f = _fitness(kin + 2.0 * wv, kout - wv + (degrees[v] - wv), alpha)
            # ties between candidates go to the lowest index; merely matching
            # the current fitness is no improvement
            if f > best_vf or (f == best_vf and best_v is not None and v < best_v):
                best_vf = f
                best_v = v
        if best_v is None:
            break
        wv = w_in.pop(best_v)
        kin += 2.0 * wv
        kout += degrees[best_v] - 2.0 * wv
        members.add(best_v)
        for u, w in graph.adj[best_v]:
            if u not in members:
                wu = w_in[u] = w_in.get(u, 0.0) + w
                if buckets is None:
                    continue
                if wu.is_integer():
                    heappush(buckets.setdefault(degrees[u], []), (-wu, u))
                else:
                    buckets = None  # w_in stays complete: scan from now on
        assert best_vf > best_f, "accepted expansion step must improve fitness"
        best_f = best_vf
    return frozenset(members)


def _is_duplicate(community, accepted):
    for other in accepted:
        inter = len(community & other)
        if inter == 0:
            continue
        if 1.0 - inter / min(len(community), len(other)) < DUPLICATE_DISTANCE:
            return True
    return False


def _check_alpha(alpha):
    # an infinite alpha scores every candidate 0, so no seed would grow
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def gce_sweep(graph, alphas):
    """One cover per alpha, all grown from one clique enumeration."""
    for alpha in alphas:
        _check_alpha(alpha)
    if graph.n == 0:
        raise DataError("cannot detect communities in an empty graph")
    adj = _neighbour_sets(graph)
    order, core = _degeneracy_order(adj)
    seeds = _cliques(graph, adj, order, core, MIN_CLIQUE)
    if not seeds:
        log.info("no 4-clique present; relaxing clique seed size to 3")
        seeds = _cliques(graph, adj, order, core, 3)
    seeds.sort(key=lambda c: (-len(c), c))
    integer_degrees = _integer_degrees(graph)
    covers = []
    for alpha in alphas:
        accepted = []
        for seed in seeds:
            community = _expand(graph, seed, alpha, integer_degrees)
            if not _is_duplicate(community, accepted):
                accepted.append(community)
        covers.append(Cover(graph.n, accepted))
    return covers
