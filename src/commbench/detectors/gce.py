"""Greedy clique expansion for overlapping communities.

Maximal cliques of at least four nodes seed candidate communities (the
minimum relaxes to three when the graph has no 4-clique at all). Each seed
grows by the single frontier node that most improves the fitness

    F(S) = k_in / (k_in + k_out)^alpha

where k_in is twice the internal edge weight of S and k_out the weight
crossing its boundary; growth stops as soon as no addition strictly improves
F. A finished candidate is discarded when its minimum-overlap distance
1 - |C & A| / min(|C|, |A|) to an already accepted community is below 0.25.
Seeds are processed largest first (ties by member list), frontier ties go to
the lowest node index, so the whole run is deterministic. ``gce_sweep``
enumerates the cliques once and grows the same seeds for every alpha of a
grid; ``gce`` is its one-alpha case.
"""

from __future__ import annotations

import logging

from ..covers import Cover
from ..errors import DataError

log = logging.getLogger(__name__)

MIN_CLIQUE = 4
DUPLICATE_DISTANCE = 0.25


def maximal_cliques(graph):
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


def _fitness(kin, kout, alpha):
    total = kin + kout
    if total <= 0.0:
        return 0.0
    return kin / total**alpha


def _expand(graph, seed, alpha):
    """Grow a seed greedily while fitness strictly improves."""
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
    best_f = _fitness(kin, kout, alpha)
    while w_in:
        best_v = None
        best_vf = best_f
        for v, wv in w_in.items():
            f = _fitness(
                kin + 2.0 * wv, kout - wv + (graph.degrees[v] - wv), alpha
            )
            # ties between candidates go to the lowest index; merely matching
            # the current fitness is no improvement
            if f > best_vf or (f == best_vf and best_v is not None and v < best_v):
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
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")


def gce(graph, params):
    """Detect overlapping communities by expanding maximal-clique seeds."""
    return gce_sweep(graph, [params])[0]


def gce_sweep(graph, params_list):
    """One cover per alpha, all grown from one clique enumeration."""
    for params in params_list:
        _check_alpha(params.alpha)
    if graph.n == 0:
        raise DataError("cannot detect communities in an empty graph")
    cliques = maximal_cliques(graph)
    min_size = MIN_CLIQUE
    if not any(len(c) >= MIN_CLIQUE for c in cliques):
        min_size = 3
        log.info("no 4-clique present; relaxing clique seed size to 3")
    seeds = [c for c in cliques if len(c) >= min_size]
    seeds.sort(key=lambda c: (-len(c), c))
    covers = []
    for params in params_list:
        accepted = []
        for seed in seeds:
            community = _expand(graph, seed, params.alpha)
            if not _is_duplicate(community, accepted):
                accepted.append(community)
        covers.append(
            Cover(graph.n, accepted, provenance=f"gce(alpha={params.alpha:g})")
        )
    return covers
