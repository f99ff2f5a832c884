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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..covers import Cover, Partition, dedupe_exact
from ..errors import DataError
from ..graph import build_meta_graph


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
    """Local move phase: sweep nodes in index order until no move improves r."""
    n = graph.n
    if graph.m == 0:
        return list(range(n)), False
    inv2m = 1.0 / (2.0 * graph.m)
    comm = list(range(n))
    tot = list(graph.degrees)  # total degree per community, loops included
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
            # gain of re-inserting into the old community is the baseline;
            # the node's own loop contributes equally to every choice
            best_comm = old
            best_gain = t * w2c.get(old, 0.0) - tot[old] * ki * inv2m
            for c, wc in w2c.items():
                if c == old:
                    continue
                gain = t * wc - tot[c] * ki * inv2m
                # ties go to the lowest community index, but never displace old
                if gain > best_gain or (
                    gain == best_gain and best_comm != old and c < best_comm
                ):
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


@dataclass
class LouvainResult:
    levels: list  # Partition per aggregation level over original nodes, coarsest last
    cover: Cover | None  # union of all levels' communities when multi_level


def louvain(graph, params, multi_level=False):
    """Run the multi-level heuristic; deterministic for a given graph and t.

    Returns every aggregation level as a partition of the original nodes
    (coarsest last). With ``multi_level`` the result also carries a cover
    holding the union of communities across all levels, exact duplicates
    removed. A graph with no edges yields the all-singletons level.
    """
    t = params.markov_time
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
    cover = None
    if multi_level:
        comms = []
        for p in levels:
            comms.extend(frozenset(c) for c in p.communities())
        cover = Cover(
            graph.n,
            dedupe_exact(comms),
            provenance=f"louvain(t={t:g},multilevel)",
        )
    return LouvainResult(levels, cover)
