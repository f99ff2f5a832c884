"""Undirected weighted graphs with external string labels and dense ids.

Nodes are indexed 0..n-1 internally in first-seen order; the original labels
are kept for file I/O. Plain graphs are simple (no self-loops, no parallel
edges). Meta-graphs built by contracting node blocks are the one place
self-loops are allowed: a loop of weight w counts once in the total weight m
and twice in its node's degree, so sum(degrees) == 2*m holds for every graph
in the package and modularity is preserved under aggregation.

A graph keeps its edges as numpy arrays. ``lo`` and ``hi`` (int64) hold the
endpoints of each proper edge with lo < hi, sorted by (lo, hi); ``weights``
(float64) holds its weight; ``loops`` holds each node's self-loop weight, 0.0
for none. Every constructor checks its edges with one vectorised pass
(``_canonical``): node range, weight in (0, inf), self-loops, and duplicates
in either direction, reporting the earliest offending edge. ``adj``, the
per-node lists of ``(neighbour, weight)`` tuples, is built from the arrays on
first access, so work that never walks neighbours never pays for it.

The values are bit-identical to sums taken over ``adj`` in Python:

- a node's degree is an ``np.bincount`` over its half-edges in ascending
  neighbour order, the same left-to-right sum as over ``adj[i]``, plus twice
  its loop weight;
- ``m`` is half the Python ``sum`` of those per-node sums, plus the Python
  ``sum`` of the loops;
- in ``adj`` one int object stands for each node, and both directions of an
  edge share one weight float;
- a meta-edge's weight adds up its member edges in ``edges()`` order.

Graphs and attribute tables are treated as immutable after construction.
"""

from __future__ import annotations

import logging
from itertools import chain, compress, filterfalse
from operator import itemgetter

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

# Attribute value marker for absent metadata.
MISSING = None
# characters of an edge list read and parsed at a time (then to the line's end)
READ_CHUNK = 1 << 18
# which code points str.split splits at; every one above U+3000 is no space
_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])


class _EdgeFault(Exception):
    """The earliest edge that breaks a rule of ``_canonical``.

    ``at`` is its position in the input arrays, ``rule`` one of "range",
    "weight", "loop" and "duplicate", and ``first`` the position of the edge
    a duplicate repeats.
    """

    def __init__(self, at, rule, first=None):
        super().__init__(at, rule, first)
        self.at = at
        self.rule = rule
        self.first = first


def _first(mask):
    """Index of the first True in a boolean array, or its length if none."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def _canonical(n, i, j, weights, allow_self_loops):
    """Check edges given as endpoint and weight arrays; return the stored layout.

    Returns ``(lo, hi, weights, loops)`` as laid out in the module docstring.
    Raises ``_EdgeFault`` for the earliest edge with an endpoint outside
    0..n-1 ("range"), a weight outside (0, inf) ("weight"), a self-loop where
    none are allowed ("loop"), or the endpoints of an earlier edge in either
    order ("duplicate"); an edge breaking several rules reports the first in
    that order, as a scan of the edges one by one would.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    bad_range = (i < 0) | (i >= n) | (j < 0) | (j >= n)
    bad_weight = ~((weights > 0.0) & (weights < np.inf))
    bad_loop = (i == j) & (not allow_self_loops)
    stop = _first(bad_range | bad_weight | bad_loop)
    # only the edges before the first bad one can be repeated before it
    lo = np.minimum(i[:stop], j[:stop])
    hi = np.maximum(i[:stop], j[:stop])
    # stable: a repeat sorts after the edge it repeats
    order = np.argsort(lo * n + hi, kind="stable")
    lo, hi = lo[order], hi[order]
    repeats = np.zeros(stop, dtype=bool)
    repeats[1:] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if repeats.any():
        slots = np.flatnonzero(repeats)
        slot = slots[np.argmin(order[slots])]
        first = _first((lo == lo[slot]) & (hi == hi[slot]))
        raise _EdgeFault(int(order[slot]), "duplicate", int(order[first]))
    if stop < len(i):
        rule = "range" if bad_range[stop] else "weight" if bad_weight[stop] else "loop"
        raise _EdgeFault(stop, rule)
    weights = weights[order]
    loops = np.zeros(n)
    looped = lo == hi
    if looped.any():
        loops[lo[looped]] = weights[looped]
        proper = ~looped
        lo, hi, weights = lo[proper], hi[proper], weights[proper]
    return lo, hi, weights, loops


def _graph_fault(fault, labels, i, j, weights):
    """The message of Graph's constructors for an ``_EdgeFault``."""
    a, b = int(i[fault.at]), int(j[fault.at])
    if fault.rule == "range":
        return f"edge ({a}, {b}) outside node range 0..{len(labels) - 1}"
    if fault.rule == "weight":
        w = float(weights[fault.at])
        kind = "non-positive" if w <= 0.0 else "non-finite"
        return f"edge ({a}, {b}) has {kind} weight {w}"
    if fault.rule == "loop":
        return f"self-loop on node {labels[a]!r}"
    if a == b:
        return f"duplicate self-loop on node {labels[a]!r}"
    return f"duplicate edge {labels[min(a, b)]!r} -- {labels[max(a, b)]!r}"


class Graph:
    """Undirected graph with positive edge weights, kept as edge arrays.

    ``lo``, ``hi``, ``weights`` and ``loops`` are laid out as the module
    docstring says. ``adj[i]`` holds node i's ``(neighbor, weight)`` pairs
    sorted by neighbor and is built on first access. Self-loop weight is
    stored apart from the neighbor lists, so iteration over ``adj[i]`` only
    ever yields proper neighbors.
    """

    __slots__ = (
        "labels", "lo", "hi", "weights", "loops", "degrees", "m",
        "allow_self_loops", "_index", "_adj",
    )

    def __init__(self, labels, edges, allow_self_loops=False):
        """Build a graph from dense-index edge triples ``(i, j, weight)``."""
        i, j, weights = tuple(zip(*edges)) or ((), (), ())
        self._check_and_store(labels, i, j, weights, allow_self_loops)

    @classmethod
    def from_arrays(cls, labels, i, j, weights, allow_self_loops=False):
        """Build a graph from parallel arrays of edge endpoints and weights."""
        graph = cls.__new__(cls)
        graph._check_and_store(labels, i, j, weights, allow_self_loops)
        return graph

    def _check_and_store(self, labels, i, j, weights, allow_self_loops):
        labels = list(labels)
        index = dict(zip(labels, range(len(labels))))
        if len(index) != len(labels):
            raise DataError("node labels are not unique")
        try:
            edges = _canonical(len(labels), i, j, weights, allow_self_loops)
        except _EdgeFault as fault:
            raise DataError(_graph_fault(fault, labels, i, j, weights)) from None
        self._store(labels, index, *edges, allow_self_loops)

    def _store(self, labels, index, lo, hi, weights, loops, allow_self_loops):
        """Keep checked arrays from ``_canonical`` and derive degrees and m."""
        n = len(labels)
        self.labels = labels
        self._index = index
        self.allow_self_loops = bool(allow_self_loops)
        self.lo, self.hi, self.weights = lo, hi, weights
        self._adj = None
        # in (lo, hi) order, node v's edges to lower neighbours come ascending
        # as its hi-side half-edges, then those to higher ones as its lo side
        sums = np.bincount(
            np.concatenate((hi, lo)), np.concatenate((weights, weights)), minlength=n
        )
        self.loops = loops.tolist()
        self.degrees = (sums + 2.0 * loops).tolist()
        self.m = 0.5 * sum(sums.tolist()) + sum(self.loops)
        total = sum(self.degrees)
        if abs(total - 2.0 * self.m) > 1e-9 * max(1.0, 2.0 * self.m):
            raise DataError("degree sum does not match twice the total edge weight")

    @property
    def n(self):
        return len(self.labels)

    @property
    def adj(self):
        """Per-node ``(neighbor, weight)`` lists sorted by neighbor, built on first use."""
        if self._adj is None:
            start, neighbour, edge = self.neighbours()
            ids = list(range(self.n))
            weights = self.weights.tolist()
            pairs = list(
                zip(
                    map(ids.__getitem__, neighbour.tolist()),
                    map(weights.__getitem__, edge.tolist()),
                )
            )
            bounds = start.tolist()
            self._adj = list(map(pairs.__getitem__, map(slice, bounds[:-1], bounds[1:])))
        return self._adj

    @adj.setter
    def adj(self, lists):
        self._adj = lists

    def neighbours(self):
        """Half-edges grouped by node, as arrays ``(start, neighbour, edge)``.

        Node v's neighbours are ``neighbour[start[v]:start[v + 1]]`` in
        ascending order, reached along the edges ``edge[start[v]:start[v + 1]]``
        (positions in ``lo``, ``hi`` and ``weights``).
        """
        nedge = len(self.lo)
        # a stable sort keeps the (lo, hi) order, which puts each node's
        # lower neighbours (hi side) ascending before its higher ones (lo side)
        order = np.argsort(np.concatenate((self.hi, self.lo)), kind="stable")
        neighbour = np.concatenate((self.lo, self.hi))[order]
        edge = np.where(order < nedge, order, order - nedge)
        start = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(np.concatenate((self.lo, self.hi)), minlength=self.n), out=start[1:])
        return start, neighbour, edge

    def index_of(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise DataError(f"unknown node label {label!r}") from None

    def edges(self):
        """Iterate ``(i, j, w)`` once per edge with i < j, then loops as (i, i, w)."""
        looped = list(compress(range(self.n), self.loops))
        return chain(
            zip(self.lo.tolist(), self.hi.tolist(), self.weights.tolist()),
            zip(looped, looped, map(self.loops.__getitem__, looped)),
        )

    def edge_count(self):
        """Number of edges, counting each self-loop once."""
        return len(self.lo) + len(self.loops) - self.loops.count(0.0)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
            and np.array_equal(self.weights, other.weights)
            and self.loops == other.loops
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m:g})"


def _parse_floats(texts):
    """The floats of a list of strings, up to the first that is not one.

    Returns the array of values and the index of the first bad string, or
    ``len(texts)`` when every string parses.
    """
    try:
        return np.fromiter(map(float, texts), dtype=np.float64, count=len(texts)), len(texts)
    except ValueError:
        values = list(map(_float_or_none, texts))
        bad = values.index(None)
        return np.array(values[:bad], dtype=np.float64), bad


def _float_or_none(text):
    try:
        return float(text)
    except ValueError:
        return None


def _parse_chunk(text, index):
    """The edges of a chunk of edge-list lines, up to its first faulty line.

    Returns ``rows, ids, weights, fault, lines``: each edge's line in the
    chunk (from 0), its two endpoint ids (interleaved; new labels enter
    ``index`` in first-seen order) and its weight; ``fault`` is ``(row,
    message)`` for the first line with the wrong field count, a bad weight
    or a new label starting with '#', else None; ``lines`` counts the
    chunk's lines. Self-loops and duplicates are left to ``_canonical``. The
    checks run in that order, so of a line with several faults the first is
    reported.
    """
    # tokens and lines are found over the code points at once: a token
    # starts at a non-space after a space, and lines end at '\n' (the file
    # is read with universal newlines)
    points = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    space = _SPACE[np.minimum(points, len(_SPACE) - 1)]
    begins = ~space
    begins[1:] &= space[:-1]
    starts = np.flatnonzero(begins)
    tokens = text.split()  # the same tokens, as str.split uses str.isspace
    newlines = np.flatnonzero(points == 10)
    lines = len(newlines) + (not text.endswith("\n"))
    counts = np.bincount(np.searchsorted(newlines, starts), minlength=lines)
    offset = np.cumsum(counts) - counts
    rows = np.flatnonzero(counts)
    rows = rows[points[starts[offset[rows]]] != ord("#")]
    fault = None
    bad = _first((counts[rows] < 2) | (counts[rows] > 3))
    if bad < len(rows):
        row = int(rows[bad])
        line = text[newlines[row - 1] + 1 if row else 0 :].partition("\n")[0]
        fault = row, f"expected 'u v' or 'u v w', got {line.strip()!r}"
        rows = rows[:bad]
    weighted = np.flatnonzero(counts[rows] == 3)
    texts = list(map(tokens.__getitem__, (offset[rows[weighted]] + 2).tolist()))
    values, bad = _parse_floats(texts)
    if bad < len(texts):
        fault = int(rows[weighted[bad]]), f"bad weight {texts[bad]!r}"
        rows = rows[: weighted[bad]]
        weighted = weighted[:bad]
    weights = np.ones(len(rows))
    weights[weighted] = values
    bad = _first(~((weights > 0.0) & (weights < np.inf)))
    if bad < len(rows):
        fault = int(rows[bad]), f"weight must be positive and finite, got {weights[bad]:g}"
        rows, weights = rows[:bad], weights[:bad]
    if 2 * len(rows) == len(tokens):
        ends = tokens  # every line holds an edge of two fields
    else:
        ends = list(map(tokens.__getitem__, (offset[rows, None] + (0, 1)).ravel().tolist()))
    fresh = list(filterfalse(index.__contains__, dict.fromkeys(ends)))
    hashed = {label for label in fresh if label.startswith("#")}
    if hashed:
        # cover and attribute files would read such a label as a comment
        at = _first(np.fromiter(map(hashed.__contains__, ends), dtype=bool, count=len(ends)))
        fault = int(rows[at // 2]), f"node label {ends[at]!r} starts with '#'"
        rows, weights, ends = rows[: at // 2], weights[: at // 2], ends[: at - at % 2]
        fresh = list(filterfalse(index.__contains__, dict.fromkeys(ends)))
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    ids = np.fromiter(map(index.__getitem__, ends), dtype=np.int64, count=len(ends))
    return rows, ids, weights, fault, lines


def load_edge_list(path, allow_self_loops=False):
    """Parse a whitespace-separated edge list with optional weights.

    Lines starting with '#' and blank lines are skipped. Each data line is
    "u v" or "u v w" with finite w > 0; labels map to dense indices in first-seen
    order. A label starting with '#', duplicate edges and (for plain graphs)
    self-loops are rejected; the error names the earliest offending line.
    The file is read a chunk of whole lines at a time, and every check runs
    as an array operation.
    """
    index = {}  # label -> id, in first-seen order
    chunks = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    fault = None
    lineno = 1  # of the chunk's first line
    with open(path, encoding="utf-8") as fh:
        while fault is None:
            text = fh.read(READ_CHUNK) + fh.readline()
            if not text:
                break
            rows, ids, weights, fault, lines = _parse_chunk(text, index)
            chunks.append((rows + lineno, ids, weights))
            if fault is not None:
                fault = fault[0] + lineno, fault[1]
            lineno += lines
    labels = list(index)
    # each chunk's line numbers, endpoint ids and weights, joined
    linenos, ids, weights = (np.concatenate(column) for column in zip(*chunks))
    try:
        edges = _canonical(len(labels), ids[0::2], ids[1::2], weights, allow_self_loops)
    except _EdgeFault as edge_fault:
        # labels are known and weights checked: a self-loop or a repeat
        line = linenos[edge_fault.at]
        if edge_fault.rule == "loop":
            raise DataError(
                f"{path}:{line}: self-loop on {labels[ids[2 * edge_fault.at]]!r}"
            ) from None
        raise DataError(
            f"{path}:{line}: duplicate edge (first seen at line {linenos[edge_fault.first]})"
        ) from None
    if fault is not None:
        raise DataError(f"{path}:{fault[0]}: {fault[1]}")
    graph = Graph.__new__(Graph)
    graph._store(labels, index, *edges, allow_self_loops)
    return graph


def write_edge_list(graph, path):
    """Write the graph back out; weights of exactly 1 are omitted."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in graph.edges():
            if w == 1.0:
                fh.write(f"{graph.labels[i]} {graph.labels[j]}\n")
            else:
                fh.write(f"{graph.labels[i]} {graph.labels[j]} {w!r}\n")


class AttributeTable:
    """Per-node categorical attributes with an explicit missing marker."""

    __slots__ = ("names", "n", "_columns")

    def __init__(self, names, columns, n):
        self.names = list(names)
        self.n = int(n)
        self._columns = {}
        for name in self.names:
            col = list(columns[name])
            if len(col) != self.n:
                raise DataError(
                    f"attribute {name!r} has {len(col)} rows, expected {self.n}"
                )
            self._columns[name] = col

    def column(self, name):
        try:
            return self._columns[name]
        except KeyError:
            raise DataError(f"unknown attribute {name!r}") from None


def load_attributes(path, graph):
    """Load a TSV attribute table keyed by node label.

    The header's first column is the node id; remaining columns name the
    attributes. Empty cells (and rows shorter than the header) are missing
    values. Nodes absent from the file get all-missing rows; rows for labels
    not in the graph, duplicate rows and repeated attribute names are errors.
    """
    names = None
    columns = None
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if names is None:
                if not fields[0].strip():
                    raise DataError(f"{path}:{lineno}: node-id column missing from header")
                names = fields[1:]
                columns = {name: [MISSING] * graph.n for name in names}
                if len(columns) != len(names):
                    raise DataError(f"{path}:{lineno}: attribute names must be unique")
                continue
            if len(fields) > len(names) + 1:
                raise DataError(f"{path}:{lineno}: more fields than header columns")
            label = fields[0]
            try:
                i = graph.index_of(label)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if i in seen:
                raise DataError(f"{path}:{lineno}: duplicate row for node {label!r}")
            seen.add(i)
            for pos, name in enumerate(names, start=1):
                cell = fields[pos] if pos < len(fields) else ""
                if cell != "":
                    columns[name][i] = cell
    if names is None:
        raise DataError(f"{path}: empty attribute file (no header row)")
    return AttributeTable(names, columns, graph.n)


def induced_subgraph(graph, nodes):
    """Restrict to a node subset; returns the subgraph and its parent-index map.

    Subgraph node k corresponds to parent node ``mapping[k]``; labels carry
    over, and sub-nodes are ordered by ascending parent index.
    """
    node_list = sorted(set(nodes))
    keep = np.array(node_list, dtype=np.int64)
    bad = _first((keep < 0) | (keep >= graph.n))
    if bad < len(keep):
        raise DataError(f"node {node_list[bad]} outside graph with {graph.n} nodes")
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[keep] = np.arange(len(keep))
    # reads only the subset's lists, but graph.adj builds every node's list
    # on first use, so even a small subset pays for the whole graph's once
    lists = list(map(graph.adj.__getitem__, node_list))
    pairs = list(chain.from_iterable(lists))
    neighbour = np.fromiter(map(itemgetter(0), pairs), dtype=np.int64, count=len(pairs))
    weights = np.fromiter(map(itemgetter(1), pairs), dtype=np.float64, count=len(pairs))
    source = np.repeat(keep, list(map(len, lists)))
    inside = (pos[neighbour] >= 0) & (source < neighbour)
    loops = np.array(list(map(graph.loops.__getitem__, node_list)), dtype=np.float64)
    looped = np.flatnonzero(loops)
    sub = Graph.from_arrays(
        list(map(graph.labels.__getitem__, node_list)),
        np.concatenate((pos[source[inside]], looped)),
        np.concatenate((pos[neighbour[inside]], looped)),
        np.concatenate((weights[inside], loops[looped])),
        allow_self_loops=graph.allow_self_loops,
    )
    return sub, node_list


def build_meta_graph(graph, blocks, labels=None):
    """Contract disjoint node blocks into weighted meta-nodes.

    Cross-block edge weight is summed onto a single meta-edge; each block's
    internal weight (including member self-loops) becomes its meta-node
    self-loop, so total weight and degree fractions are preserved. Nodes not
    covered by any block are dropped along with their edges.
    """
    blocks = list(map(list, blocks))
    sizes = list(map(len, blocks))
    members = np.fromiter(chain.from_iterable(blocks), dtype=np.int64, count=sum(sizes))
    outside = (members < 0) | (members >= graph.n)
    repeated = np.ones(len(members), dtype=bool)
    repeated[np.unique(members, return_index=True)[1]] = False
    bad = _first(outside | repeated)
    if bad < len(members):
        v = int(members[bad])
        if outside[bad]:
            raise DataError(f"node {v} outside graph with {graph.n} nodes")
        raise DataError(f"overlapping blocks: node {graph.labels[v]!r} appears twice")
    k = len(blocks)
    if labels is None:
        labels = [f"b{b}" for b in range(k)]
    elif len(labels) != k:
        raise DataError("meta-graph labels do not match block count")
    block_of = np.full(graph.n, -1, dtype=np.int64)
    block_of[members] = np.repeat(np.arange(k), sizes)
    # every edge in edges() order: proper edges, then loops by node
    loops = np.array(graph.loops)
    looped = np.flatnonzero(loops)
    a = block_of[np.concatenate((graph.lo, looped))]
    b = block_of[np.concatenate((graph.hi, looped))]
    weights = np.concatenate((graph.weights, loops[looped]))
    covered = (a >= 0) & (b >= 0)
    a, b, weights = a[covered], b[covered], weights[covered]
    pairs, slot = np.unique(np.minimum(a, b) * k + np.maximum(a, b), return_inverse=True)
    # bincount adds each block pair's weights in the order given
    sums = np.bincount(slot, weights, minlength=len(pairs))
    first, second = np.divmod(pairs, max(k, 1))
    return Graph.from_arrays(labels, first, second, sums, allow_self_loops=True)


def without_self_loops(graph):
    """Copy of the graph with all self-loop weight dropped."""
    return Graph.from_arrays(graph.labels, graph.lo, graph.hi, graph.weights)
