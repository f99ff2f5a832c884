"""Seeded planted-partition graphs for detector sanity checks.

Nodes split into equal consecutive groups; within-group pairs draw an edge
with p_in and cross-group pairs with p_out. The optional two-level hierarchy
pairs consecutive groups into super-groups and uses p_mid for cross-group
pairs inside a super-group. Sampling draws a binomial count per block pair
and then picks that many distinct pairs, so generation is fast at scale and
fully determined by the seed.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .covers import Partition
from .errors import DataError
from .gbdt import seed_entropy
from .graph import AttributeTable, Graph

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlantedPartitionSpec:
    n: int
    groups: int
    p_in: float
    p_out: float
    seed: int = 0
    hierarchy: bool = False
    p_mid: float | None = None

    def validate(self):
        if self.n <= 0 or self.groups <= 0 or self.n % self.groups != 0:
            raise ValueError(
                f"groups must divide n, got n={self.n} groups={self.groups}"
            )
        if not 0.0 <= self.p_out < self.p_in <= 1.0:
            raise ValueError(
                f"need 0 <= p_out < p_in <= 1, got p_in={self.p_in} p_out={self.p_out}"
            )
        if self.hierarchy:
            if self.groups % 2 != 0:
                raise ValueError("hierarchy pairs consecutive groups; need an even count")
            if self.p_mid is None or not self.p_out <= self.p_mid <= self.p_in:
                raise ValueError("hierarchy needs p_out <= p_mid <= p_in")

    def group_of(self, v):
        return v // (self.n // self.groups)

    def group_sets(self):
        size = self.n // self.groups
        return [set(range(g * size, (g + 1) * size)) for g in range(self.groups)]

    def super_group_sets(self):
        if not self.hierarchy:
            raise DataError("not a two-level spec")
        size = 2 * (self.n // self.groups)
        return [set(range(s * size, (s + 1) * size)) for s in range(self.groups // 2)]


def _sample_pairs(rng, count_universe, p):
    """Distinct pair indices: binomial count, then a uniform draw."""
    if count_universe == 0:
        return np.empty(0, dtype=np.int64)
    hits = int(rng.binomial(count_universe, p))
    if hits == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(count_universe, size=hits, replace=False))


def generate_planted(spec):
    """Sample a planted graph; returns (graph, truth partition, attributes).

    Node labels are the decimal indices; the attribute table carries one
    column 'block' holding each node's planted group. A disconnected draw is
    allowed and logged.
    """
    spec.validate()
    size = spec.n // spec.groups
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy(spec.seed)))
    ends = []
    # within-group pair k is the k-th (i, j), i < j, in row-major order; row
    # i starts at first[i], so k decodes exactly without listing every pair
    rows = np.arange(size, dtype=np.int64)
    first = rows * (2 * size - rows - 1) // 2
    for a in range(spec.groups):
        idx = _sample_pairs(rng, size * (size - 1) // 2, spec.p_in)
        i = np.searchsorted(first, idx, side="right") - 1
        ends.append((a * size + i, a * size + i + 1 + idx - first[i]))
    for a in range(spec.groups):
        for b in range(a + 1, spec.groups):
            if spec.hierarchy and a // 2 == b // 2:
                p = spec.p_mid
            else:
                p = spec.p_out
            idx = _sample_pairs(rng, size * size, p)
            ends.append((a * size + idx // size, b * size + idx % size))
    lo, hi = (np.concatenate(column) for column in zip(*ends))
    labels = [str(i) for i in range(spec.n)]
    graph = Graph.from_arrays(labels, lo, hi, np.ones(len(lo)))
    truth = Partition([v // size for v in range(spec.n)])
    attrs = AttributeTable(
        ["block"], {"block": [str(v // size) for v in range(spec.n)]}, spec.n
    )
    if not _connected(graph):
        log.warning("planted graph is disconnected (n=%d, seed=%d)", spec.n, spec.seed)
    return graph, truth, attrs


def _connected(graph):
    if graph.n == 0:
        return True
    ids = graph.neighbour_lists()[0]
    seen = [False] * graph.n
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        v = queue.popleft()
        for u in ids[v]:
            if not seen[u]:
                seen[u] = True
                reached += 1
                queue.append(u)
    return reached == graph.n
