"""Community detectors sharing one cover contract.

Every detector consumes a Graph and one value of its own resolution option
(Louvain's Markov time, GCE's alpha, the link-dendrogram cut threshold) and
produces a Cover over the same node universe; identical inputs give
byte-identical serialized covers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import ConfigError
from .gce import _check_alpha, gce_sweep
from .linkclust import (
    _check_threshold,
    cut_link_dendrogram,
    edge_similarity,
    link_clustering,
    sweep_link_dendrogram,
)
from .louvain import _check_markov_time, louvain_sweep

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
    `grid`). `sweep(graph, values, **flags)` returns one cover per value, in
    grid order, and `detect_cover` runs one value as a sweep of that value.
    GCE enumerates the cliques once and link clustering builds one dendrogram
    up to the largest threshold and walks its merges once; Louvain's runs
    share no work, so with two or more values it runs them in forked workers,
    one per usable CPU, with the covers a serial run gives. `flags` maps each
    boolean option to its help text. Detection is deterministic by
    construction (fixed scan orders and tie-breaks), so no detector takes a
    seed.
    """

    key: str
    type: type
    check: Callable
    help: str
    default: object
    sweep_key: str
    grid: tuple
    sweep: Callable
    flags: dict = field(default_factory=dict)


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
        sweep=louvain_sweep,
        flags={"multi_level": "keep every aggregation level as a community"},
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
    return kind.sweep(graph, [value], **flags)[0]
