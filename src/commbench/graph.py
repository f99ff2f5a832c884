"""Undirected weighted graphs with external string labels and dense ids.

Nodes are indexed 0..n-1 internally in first-seen order; the original labels
are kept for file I/O. Plain graphs are simple (no self-loops, no parallel
edges). Meta-graphs built by contracting node blocks are the one place
self-loops are allowed: a loop of weight w counts once in the total weight m
and twice in its node's degree, so sum(degrees) == 2*m holds for every graph
in the package and modularity is preserved under aggregation.

Graphs and attribute tables are treated as immutable after construction.
"""

from __future__ import annotations

import logging

from .errors import DataError

log = logging.getLogger(__name__)

# Attribute value marker for absent metadata.
MISSING = None


class Graph:
    """Adjacency-list graph with positive edge weights.

    ``adj[i]`` holds node i's ``(neighbor, weight)`` pairs sorted by
    neighbor. Self-loop weight is stored separately from the neighbor lists,
    so iteration over ``adj[i]`` only ever yields proper neighbors.
    """

    __slots__ = ("labels", "adj", "loops", "degrees", "m", "allow_self_loops", "_index")

    def __init__(self, labels, edges, allow_self_loops=False):
        """Build a graph from dense-index edge triples ``(i, j, weight)``."""
        self.labels = list(labels)
        self.allow_self_loops = bool(allow_self_loops)
        n = len(self.labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != n:
            raise DataError("node labels are not unique")
        nbrs = [[] for _ in range(n)]
        loops = [0.0] * n
        seen = set()
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DataError(f"edge ({i}, {j}) outside node range 0..{n - 1}")
            w = float(w)
            if w <= 0.0:
                raise DataError(f"edge ({i}, {j}) has non-positive weight {w}")
            if i == j:
                if not self.allow_self_loops:
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
        self.degrees = [
            sum(w for _, w in self.adj[i]) + 2.0 * loops[i] for i in range(n)
        ]
        self.m = 0.5 * sum(sum(w for _, w in lst) for lst in self.adj) + sum(loops)
        total = sum(self.degrees)
        if abs(total - 2.0 * self.m) > 1e-9 * max(1.0, 2.0 * self.m):
            raise DataError("degree sum does not match twice the total edge weight")

    @property
    def n(self):
        return len(self.labels)

    def index_of(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise DataError(f"unknown node label {label!r}") from None

    def edges(self):
        """Yield ``(i, j, w)`` once per edge with i < j, then loops as (i, i, w)."""
        for i, lst in enumerate(self.adj):
            for j, w in lst:
                if i < j:
                    yield i, j, w
        for i, w in enumerate(self.loops):
            if w != 0.0:
                yield i, i, w

    def edge_count(self):
        """Number of edges, counting each self-loop once."""
        return sum(len(lst) for lst in self.adj) // 2 + sum(
            1 for w in self.loops if w != 0.0
        )

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.adj == other.adj
            and self.loops == other.loops
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m:g})"


def load_edge_list(path, allow_self_loops=False):
    """Parse a whitespace-separated edge list with optional weights.

    Lines starting with '#' and blank lines are skipped. Each data line is
    "u v" or "u v w" with w > 0; labels map to dense indices in first-seen
    order. A label starting with '#', duplicate edges and (for plain graphs)
    self-loops are rejected with the offending line number.
    """
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
            if w <= 0.0:
                raise DataError(f"{path}:{lineno}: weight must be positive, got {w:g}")
            for lab in (u, v):
                if lab not in index:
                    if lab.startswith("#"):
                        # cover and attribute files would read it as a comment
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
    return Graph(labels, edges, allow_self_loops=allow_self_loops)


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

    def has(self, name):
        return name in self._columns

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
    for v in node_list:
        if not (0 <= v < graph.n):
            raise DataError(f"node {v} outside graph with {graph.n} nodes")
    pos = {v: k for k, v in enumerate(node_list)}
    edges = []
    for v in node_list:
        for u, w in graph.adj[v]:
            if v < u and u in pos:
                edges.append((pos[v], pos[u], w))
        if graph.loops[v] != 0.0:
            edges.append((pos[v], pos[v], graph.loops[v]))
    sub = Graph(
        [graph.labels[v] for v in node_list],
        edges,
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
    block_of = {}
    for b, members in enumerate(blocks):
        for v in members:
            if not (0 <= v < graph.n):
                raise DataError(f"node {v} outside graph with {graph.n} nodes")
            if v in block_of:
                raise DataError(
                    f"overlapping blocks: node {graph.labels[v]!r} appears twice"
                )
            block_of[v] = b
    k = len(blocks)
    if labels is None:
        labels = [f"b{b}" for b in range(k)]
    elif len(labels) != k:
        raise DataError("meta-graph labels do not match block count")
    acc = {}
    for i, j, w in graph.edges():
        bi = block_of.get(i)
        bj = block_of.get(j)
        if bi is None or bj is None:
            continue
        key = (bi, bj) if bi <= bj else (bj, bi)
        acc[key] = acc.get(key, 0.0) + w
    edges = [(a, b, w) for (a, b), w in sorted(acc.items())]
    return Graph(labels, edges, allow_self_loops=True)


def without_self_loops(graph):
    """Copy of the graph with all self-loop weight dropped."""
    edges = [(i, j, w) for i, j, w in graph.edges() if i != j]
    return Graph(list(graph.labels), edges, allow_self_loops=False)
