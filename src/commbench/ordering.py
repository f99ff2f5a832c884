"""Block-wise adjacency ordering for matrix plots.

Orders nodes so that attribute blocks (say, dorms) are contiguous, nodes
inside each block are grouped by the communities of that block's induced
subgraph, and blocks themselves are grouped by communities of the
block-level meta-graph. The output is plot-ready data: a node permutation
plus nested index ranges, not an image.

Self-loops of the meta-graph (one block's internal weight) are stripped
before detecting meta-communities: only between-block structure should
decide which blocks sit together.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detectors.louvain import louvain
from .errors import DataError
from .graph import MISSING, build_meta_graph, induced_subgraph, without_self_loops


@dataclass
class BlockOrdering:
    """A display permutation with nested half-open ranges.

    order: node indices in display order (labeled blocks first, then nodes
    missing the blocking attribute in ascending index order).
    block_ranges / meta_ranges: (start, end, label) with end exclusive;
    each level tiles the labeled prefix and every block range lies inside
    exactly one meta range.
    """

    order: list
    block_ranges: list
    meta_ranges: list


def _within_block_order(graph, members, t):
    # members arrive in ascending index order
    sub, mapping = induced_subgraph(graph, members)
    partition = louvain(sub, t)[-1]
    groups = {}
    for local, comm in enumerate(partition.assignment):
        groups.setdefault(comm, []).append(mapping[local])
    ordered = sorted(
        groups.values(),
        key=lambda g: (-len(g), min(graph.labels[v] for v in g)),
    )
    seq = []
    for group in ordered:
        seq.extend(sorted(group, key=lambda v: graph.labels[v]))
    return seq


def order_adjacency(graph, attrs, attribute, t=1.0):
    """Order nodes block-wise by one attribute; see the module docstring.

    The same Markov time t drives both the within-block and the block-level
    Louvain detections.
    """
    column = attrs.column(attribute)
    blocks = {}
    unlabeled = []
    for v in range(graph.n):
        value = column[v]
        if value is MISSING:
            unlabeled.append(v)
        else:
            blocks.setdefault(value, []).append(v)
    if not blocks:
        raise DataError(f"attribute {attribute!r} has no non-missing values")

    block_labels = sorted(blocks)
    within = {label: _within_block_order(graph, blocks[label], t) for label in block_labels}

    meta = build_meta_graph(graph, [blocks[label] for label in block_labels], labels=block_labels)
    meta_partition = louvain(without_self_loops(meta), t)[-1]
    meta_groups = {}
    for b, comm in enumerate(meta_partition.assignment):
        meta_groups.setdefault(comm, []).append(b)
    ordered_meta = sorted(
        meta_groups.values(),
        key=lambda g: (
            -sum(len(blocks[block_labels[b]]) for b in g),
            min(block_labels[b] for b in g),
        ),
    )

    order = []
    block_ranges = []
    meta_ranges = []
    for group in ordered_meta:
        meta_start = len(order)
        for label in sorted(block_labels[b] for b in group):
            start = len(order)
            order.extend(within[label])
            block_ranges.append((start, len(order), label))
        meta_ranges.append((meta_start, len(order), "+".join(sorted(block_labels[b] for b in group))))
    order.extend(unlabeled)

    if len(order) != graph.n or len(set(order)) != graph.n:
        raise DataError("ordering is not a permutation; blocks must not overlap")
    return BlockOrdering(order=order, block_ranges=block_ranges, meta_ranges=meta_ranges)


def write_ordering(ordering, graph, order_path, boundary_path):
    """Write "position node-label" lines and "level start end label" lines."""
    with open(order_path, "w", encoding="utf-8") as fh:
        for pos, v in enumerate(ordering.order):
            fh.write(f"{pos} {graph.labels[v]}\n")
    with open(boundary_path, "w", encoding="utf-8") as fh:
        for start, end, label in ordering.meta_ranges:
            fh.write(f"meta {start} {end} {label}\n")
        for start, end, label in ordering.block_ranges:
            fh.write(f"block {start} {end} {label}\n")
