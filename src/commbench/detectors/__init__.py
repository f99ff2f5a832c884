"""Community detectors sharing one cover contract.

Every detector consumes a Graph and one value of its own resolution option
(Louvain's Markov time, GCE's alpha, the link-dendrogram cut threshold) and
produces a Cover over the same node universe; identical inputs give
byte-identical serialized covers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..covers import Cover
from ..errors import ConfigError
from .gce import _check_alpha, gce_sweep
from .linkclust import (
    _check_threshold,
    cut_link_dendrogram,
    edge_similarity,
    link_clustering,
    sweep_link_dendrogram,
)
from .louvain import _check_markov_time, louvain

__all__ = [
    "DETECTORS",
    "detect_cover",
    "link_clustering",
    "cut_link_dendrogram",
    "sweep_link_dendrogram",
    "edge_similarity",
]


@dataclass(frozen=True)
class DetectorKind:
    """Everything the config, the CLI and the benchmark know of a detector.

    The detector's resolution option has config key and CLI flag `key`, is
    parsed with `type`, checked by `check` (which raises ValueError outside
    the valid range), and is `default` when not given; the `<name>-sweep`
    method kind runs a grid of values (config key `sweep_key`, default
    `grid`). `sweep(graph, values)` shares work across the grid and returns
    one cover per value, in grid order: GCE enumerates the cliques once, link
    clustering builds one dendrogram up to the largest threshold and walks its
    merges once; `detect_cover` runs one value as a sweep of that value. A
    sweep takes no flags. A kind without a sweep (Louvain) has
    `run(graph, value, **flags)` instead, one cover for one value, and its
    sweep is one `detect_cover` per value. `flags` maps each boolean option
    to its help text. Detection is deterministic by construction (fixed scan
    orders and tie-breaks), so no detector takes a seed.
    """

    key: str
    type: type
    check: Callable
    help: str
    default: object
    sweep_key: str
    grid: tuple
    flags: dict = field(default_factory=dict)
    sweep: Callable | None = None
    run: Callable | None = None


def _louvain_cover(graph, t, multi_level=False):
    """The final level's communities, or with multi_level every level's."""
    levels = louvain(graph, t)
    chosen = levels if multi_level else levels[-1:]
    return Cover(graph.n, (c for p in chosen for c in p.communities()))


def _link_covers(graph, thresholds):
    """One link dendrogram, built up to the largest threshold and swept once."""
    thresholds = list(thresholds)
    for threshold in thresholds:
        _check_threshold(threshold)
    top = max(thresholds, default=100) / 100
    return sweep_link_dendrogram(link_clustering(graph, top), thresholds, graph)


DETECTORS = {
    "louvain": DetectorKind(
        key="t",
        type=float,
        check=_check_markov_time,
        help="Markov time, in (0, 1]",
        default=1.0,
        sweep_key="ts",
        grid=tuple(i / 10 for i in range(1, 11)),
        flags={"multi_level": "keep every aggregation level as a community"},
        run=_louvain_cover,
    ),
    "gce": DetectorKind(
        key="alpha",
        type=float,
        check=_check_alpha,
        help="clique-expansion fitness exponent, finite and > 0",
        default=1.5,
        sweep_key="alphas",
        grid=(0.8, 1.0, 1.3, 1.5, 1.7, 2.2),
        sweep=gce_sweep,
    ),
    "linkcluster": DetectorKind(
        key="threshold",
        type=int,
        check=_check_threshold,
        help="link-dendrogram cut percentage, 1 to 100",
        default=50,
        sweep_key="thresholds",
        grid=tuple(range(1, 101)),
        sweep=_link_covers,
    ),
}


def detect_cover(graph, method, value, **flags):
    """Run the named detector at one resolution value.

    flags are the detector's boolean options (DetectorKind.flags); a flag it
    does not take is a ConfigError naming the flag and the detector.
    """
    try:
        kind = DETECTORS[method]
    except KeyError:
        raise ConfigError(f"unknown detector {method!r}") from None
    for flag in flags:
        if flag not in kind.flags:
            raise ConfigError(f"detector {method!r} takes no flag {flag!r}")
    if kind.run is None:
        return kind.sweep(graph, [value])[0]
    return kind.run(graph, value, **flags)
