"""Multi-level modularity maximization with a Markov-time resolution knob.

The objective is the linearized stability form

    r(t) = (1 - t) + sum_c (t * e_c - a_c^2)

where e_c is the fraction of total edge weight internal to community c and
a_c its fraction of total degree; t = 1 recovers standard modularity and
small t favors finer partitions (at the all-singletons extreme r = (1 - t)
minus the degree term). Node sweeps scan ascending indices, only strictly
improving moves are taken, and gain ties go to the lowest community index,
so detection is fully deterministic and takes no seed. Each aggregation
level contracts communities with build_meta_graph, which preserves r(t), so
the level sequence is non-decreasing in the objective.

A sweep skips the nodes whose choice is already fixed. Moving node i into
community c gains t * w_ic - tot_c * k_i / 2m, where w_ic is i's edge weight
into c and tot_c the total degree of c without i. A node that stays keeps
t * w_i,own, the best gain of any other community and the degree moved so
far. While none of its neighbours moves, every w_ic stays the same; tot_own
is read afresh, so the gain of staying is computed exactly as a full scan
computes it; and no other community's gain can rise by more than (degree
that has left any community since) * k_i / 2m. The node is skipped while
its gain of staying beats the kept best by more than that rise plus a
rounding slack of n * s^2 * 2^-46 * k_i in the s-th sweep of a level with
n nodes. The slack covers every rounding that can separate the kept values
from a rescan's: each gain is within a few units in the last place of k_i,
and the community totals and the moved-degree counter round by at most half
a unit of 2m * s at each of the at most n * s updates since. A skipped node
still removes k_i from its community and adds it back, so the totals keep
the same bits as a full scan leaves them, and each level's assignment is
the one a scan of every node gives.

A scan sums i's edge weight per neighbouring community over the graph's
``neighbour_lists()``, in ascending neighbour order. When every edge weight
is 1.0 it counts the neighbours' communities instead, in C with the helper
``collections.Counter`` uses; integer counts are the same values as those
sums of ones, so both paths move the same nodes.
"""

from __future__ import annotations

from collections import _count_elements

from ..covers import Partition
from ..errors import DataError
from ..graph import build_meta_graph

INF = float("inf")
# rounding slack of the skip test per unit of n * sweep^2 * k_i (see above)
SKIP_ULPS = 2.0**-46


def _check_markov_time(t):
    if not 0.0 < t <= 1.0:
        raise ValueError(f"markov time must be in (0, 1], got {t}")


def parameterized_modularity(graph, partition, t):
    """Evaluate r(t) for a partition; t = 1 is standard modularity."""
    _check_markov_time(t)
    assignment = partition.assignment
    if len(assignment) != graph.n:
        raise DataError("partition does not match graph node count")
    if graph.m == 0:
        # no edges: every community has e_c = a_c = 0 by convention
        return 1.0 - t
    c = partition.n_communities
    internal = [0.0] * c
    degree = [0.0] * c
    for i, j, w in graph.edges():
        if i == j or assignment[i] == assignment[j]:
            internal[assignment[i]] += w
    for i in range(graph.n):
        degree[assignment[i]] += graph.degrees[i]
    m = graph.m
    score = 1.0 - t
    for k in range(c):
        score += t * internal[k] / m - (degree[k] / (2.0 * m)) ** 2
    return score


def _one_level(graph, t):
    """Local move phase: sweep nodes in index order until no move improves r.

    A node that stays is scanned again only once a neighbour moves or the
    skip test of the module docstring fails.
    """
    n = graph.n
    if graph.m == 0:
        return list(range(n)), False
    inv2m = 1.0 / (2.0 * graph.m)
    degrees = graph.degrees
    ids, weights = graph.neighbour_lists()
    unit = bool((graph.weights == 1.0).all())
    comm = list(range(n))
    tot = list(degrees)  # total degree per community, loops included
    own = [0.0] * n  # t * weight to its own community, from its last scan
    rival = [INF] * n  # best other gain at its last scan; INF: must rescan
    moved_at = [0.0] * n  # `moved` (below) at its last scan
    moved = 0.0  # degree that has left a community in this level
    moved_any = False
    sweep = 0
    while True:
        sweep += 1
        slack = n * sweep * sweep * SKIP_ULPS
        changed = False
        for i in range(n):
            ki = degrees[i]
            old = comm[i]
            tot[old] -= ki
            base = own[i] - tot[old] * ki * inv2m
            if base - rival[i] > ki * ((moved - moved_at[i]) * inv2m + slack):
                tot[old] += ki
                continue
            nbrs = ids[i]
            w2c = {}
            if unit:
                _count_elements(w2c, map(comm.__getitem__, nbrs))
            else:
                for j, w in zip(nbrs, weights[i]):
                    cj = comm[j]
                    w2c[cj] = w2c.get(cj, 0.0) + w
            # gain of re-inserting into the old community is the baseline;
            # the node's own loop contributes equally to every choice
            own[i] = t * w2c.get(old, 0.0)
            base = own[i] - tot[old] * ki * inv2m
            top = -INF
            top_comm = old
            for c, wc in w2c.items():
                if c != old:
                    gain = t * wc - tot[c] * ki * inv2m
                    # ties go to the lowest community index
                    if gain > top or (gain == top and c < top_comm):
                        top = gain
                        top_comm = c
            if top > base:
                tot[top_comm] += ki
                comm[i] = top_comm
                moved += ki
                rival[i] = INF
                for j in nbrs:
                    rival[j] = INF
                changed = True
                moved_any = True
            else:
                tot[old] += ki
                rival[i] = top
                moved_at[i] = moved
        if not changed:
            break
    return comm, moved_any


def louvain(graph, t):
    """Run the multi-level heuristic at Markov time t; deterministic.

    Returns every aggregation level as a partition of the original nodes,
    coarsest last. A graph with no edges yields the all-singletons level.
    """
    _check_markov_time(t)
    if graph.n == 0:
        raise DataError("cannot detect communities in an empty graph")
    levels = []
    current = graph
    node_map = list(range(graph.n))
    while True:
        assignment, moved = _one_level(current, t)
        level = Partition(assignment)
        node_map = [level.assignment[u] for u in node_map]
        if moved or not levels:
            levels.append(Partition(node_map))
        if not moved:
            break
        current = build_meta_graph(current, level.communities())
    return levels
