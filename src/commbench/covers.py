"""Community covers and partitions, plus the cover file form.

A cover is an ordered list of node communities that may overlap. A partition
assigns every node to exactly one community (indices are normalized to a
dense 0..c-1 range, so two partitions with the same grouping compare equal).
The writers emit a canonical ordering - communities sorted by size then by
their sorted member-label list - so detector output is byte-stable run to
run.
"""

from __future__ import annotations

from .errors import DataError


class Partition:
    """Node-to-community assignment with dense community indices."""

    __slots__ = ("assignment", "n_communities")

    def __init__(self, assignment):
        remap = {}
        dense = []
        for a in assignment:
            if a not in remap:
                remap[a] = len(remap)
            dense.append(remap[a])
        self.assignment = tuple(dense)
        self.n_communities = len(remap)

    @property
    def n(self):
        return len(self.assignment)

    def communities(self):
        """Member lists per community, in community-index order."""
        out = [[] for _ in range(self.n_communities)]
        for v, a in enumerate(self.assignment):
            out[a].append(v)
        return out

    def sizes(self):
        counts = [0] * self.n_communities
        for a in self.assignment:
            counts[a] += 1
        return counts

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.assignment == other.assignment

    def __repr__(self):
        return f"Partition(n={self.n}, communities={self.n_communities})"


class Cover:
    """Overlapping community list over a fixed node universe 0..n-1.

    Communities are non-empty frozensets; exact duplicates are rejected at
    construction (producers de-duplicate first). The provenance tag records
    which detector/parameters produced the cover.
    """

    __slots__ = ("n", "communities", "provenance")

    def __init__(self, n, communities, provenance=""):
        self.n = int(n)
        if self.n <= 0:
            raise DataError("cover universe must contain at least one node")
        comms = []
        seen = set()
        for c in communities:
            fs = frozenset(c)
            if not fs:
                raise DataError("cover contains an empty community")
            for v in fs:
                if not (0 <= v < self.n):
                    raise DataError(
                        f"community member {v} outside universe 0..{self.n - 1}"
                    )
            if fs in seen:
                raise DataError("cover contains exact-duplicate communities")
            seen.add(fs)
            comms.append(fs)
        self.communities = comms
        self.provenance = provenance

    def __len__(self):
        return len(self.communities)

    def __iter__(self):
        return iter(self.communities)

    def __repr__(self):
        return f"Cover(n={self.n}, communities={len(self.communities)}, provenance={self.provenance!r})"


def dedupe_exact(communities):
    """Drop exact-duplicate node sets, keeping first occurrences in order."""
    seen = set()
    out = []
    for c in communities:
        fs = frozenset(c)
        if fs not in seen:
            seen.add(fs)
            out.append(fs)
    return out


def _cover_lines(cover, graph):
    keyed = []
    for fs in cover.communities:
        members = sorted(graph.labels[v] for v in fs)
        keyed.append((len(fs), members))
    keyed.sort(key=lambda kv: (kv[0], kv[1]))
    return [" ".join(members) for _, members in keyed]


def serialize_cover(cover, graph):
    """Canonical text form: one community per line, labels space-separated."""
    lines = _cover_lines(cover, graph)
    return "\n".join(lines) + ("\n" if lines else "")


def write_cover(cover, graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_cover(cover, graph))
