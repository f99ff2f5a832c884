"""Community covers and partitions, plus the cover text format.

A cover is an ordered list of node communities that may overlap. A partition
assigns every node to exactly one community (indices are normalized to a
dense 0..c-1 range, so two partitions with the same grouping compare equal).

A Cover holds only its communities: it keeps the first occurrence of each
distinct node set, so every producer can hand it duplicates.

This module owns the cover text format, writer and reader both. The writer
emits a canonical ordering - communities sorted by size then by their sorted
member-label list - so detector output is byte-stable run to run, and
import_cover reads a file back in its line order.
"""

from __future__ import annotations

import logging

from .errors import DataError

log = logging.getLogger(__name__)


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

    Communities are non-empty frozensets in the order given; of exact
    duplicates only the first occurrence is kept.
    """

    __slots__ = ("n", "communities")

    def __init__(self, n, communities):
        self.n = int(n)
        if self.n <= 0:
            raise DataError("cover universe must contain at least one node")
        comms = []
        seen = set()
        for c in communities:
            fs = frozenset(c)
            if fs in seen:
                continue
            if not fs:
                raise DataError("cover contains an empty community")
            for v in fs:
                if not (0 <= v < self.n):
                    raise DataError(
                        f"community member {v} outside universe 0..{self.n - 1}"
                    )
            seen.add(fs)
            comms.append(fs)
        self.communities = comms

    def __len__(self):
        return len(self.communities)

    def __iter__(self):
        return iter(self.communities)

    def __repr__(self):
        return f"Cover(n={self.n}, communities={len(self.communities)})"


def serialize_cover(cover, graph):
    """Canonical text form: one community per line, labels space-separated."""
    keyed = sorted((len(fs), sorted(graph.labels[v] for v in fs)) for fs in cover)
    return "".join(" ".join(members) + "\n" for _, members in keyed)


def write_cover(cover, graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_cover(cover, graph))


def import_cover(path, graph):
    """Read a cover file, in its line order.

    One community per line, node labels space-separated; '#' lines are
    comments. Unknown labels are errors, exact-duplicate lines are dropped
    with a warning. A file without any content line at all is an error; a
    file holding only comments imports as an empty cover (the explicit way
    to feed downstream stages a cover with zero communities).
    """
    communities = []
    any_line = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            any_line = True
            if line.startswith("#"):
                continue
            members = set()
            for lab in line.split():
                try:
                    members.add(graph.index_of(lab))
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
            communities.append(members)
    if not any_line:
        raise DataError(f"{path}: empty cover file")
    cover = Cover(graph.n, communities)
    if len(communities) > len(cover):
        log.warning(
            "%s: dropped %d exact-duplicate communities",
            path,
            len(communities) - len(cover),
        )
    if not cover.communities:
        log.warning("%s: imported cover has zero communities", path)
    return cover
