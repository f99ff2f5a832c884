"""Community detectors sharing one parameter bundle and one cover contract.

Every detector consumes a Graph and a ResolutionParams and produces a Cover
over the same node universe; identical inputs give byte-identical serialized
covers. Externally computed covers enter through import_cover and flow
through the same downstream operations.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field

from ..covers import Cover
from ..errors import ConfigError, DataError
from .gce import _check_alpha, gce, gce_sweep, maximal_cliques
from .linkclust import (
    _check_threshold,
    cut_link_dendrogram,
    edge_similarity,
    link_clustering,
    sweep_link_dendrogram,
)
from .louvain import LouvainResult, _check_markov_time, louvain, parameterized_modularity

log = logging.getLogger(__name__)

__all__ = [
    "DETECTORS",
    "ResolutionParams",
    "detect_cover",
    "import_cover",
    "louvain",
    "parameterized_modularity",
    "LouvainResult",
    "gce",
    "maximal_cliques",
    "link_clustering",
    "cut_link_dendrogram",
    "sweep_link_dendrogram",
    "edge_similarity",
]


@dataclass(frozen=True)
class ResolutionParams:
    """Knobs shared by the detectors; each reads only its own field.

    markov_time drives Louvain's resolution, alpha the clique-expansion
    fitness, threshold_percent the link-dendrogram cut. Detection is
    deterministic by construction (fixed scan orders and tie-breaks), so
    there is no seed.
    """

    markov_time: float = 1.0
    alpha: float = 1.5
    threshold_percent: int = 50


@dataclass(frozen=True)
class ResolutionOption:
    """A detector's one resolution knob, as config key and CLI flag."""

    key: str  # config key and CLI flag name
    field: str  # the ResolutionParams field it sets
    type: type
    check: Callable  # raises ValueError for a value outside the valid range
    help: str

    @property
    def default(self):
        return getattr(ResolutionParams(), self.field)

    def params(self, value):
        return ResolutionParams(**{self.field: value})


@dataclass(frozen=True)
class DetectorKind:
    """Everything the config, the CLI and the benchmark know of a detector.

    `run(graph, params, **flags)` returns one cover. The `<name>-sweep`
    method kind runs it over a grid of the resolution option (config key
    `sweep_key`, default `grid`); `sweep(graph, params_list)`, when set,
    replaces the per-point runs with one that shares work across the grid
    and returns one cover per point, in grid order: GCE enumerates the
    cliques once, link clustering builds one dendrogram and walks its merges
    once. A sweep takes no flags and does not pass through `detect_cover`.
    `flags` maps each boolean option to its help text.
    """

    run: Callable
    option: ResolutionOption
    sweep_key: str
    grid: tuple
    flags: dict = field(default_factory=dict)
    sweep: Callable | None = None


def _louvain_cover(graph, params, multi_level=False):
    result = louvain(graph, params, multi_level=multi_level)
    if multi_level:
        return result.cover
    final = result.levels[-1]
    return Cover(
        graph.n,
        [frozenset(c) for c in final.communities()],
        provenance=f"louvain(t={params.markov_time:g})",
    )


def _link_covers(graph, params_list):
    """One link dendrogram, swept once over every threshold."""
    thresholds = [params.threshold_percent for params in params_list]
    return sweep_link_dendrogram(link_clustering(graph), thresholds, graph)


def _link_cover(graph, params):
    return _link_covers(graph, [params])[0]


DETECTORS = {
    "louvain": DetectorKind(
        run=_louvain_cover,
        option=ResolutionOption(
            "t", "markov_time", float, _check_markov_time, "Markov time, in (0, 1]"
        ),
        sweep_key="ts",
        grid=tuple(i / 10 for i in range(1, 11)),
        flags={"multi_level": "keep every aggregation level as a community"},
    ),
    "gce": DetectorKind(
        run=gce,
        option=ResolutionOption(
            "alpha", "alpha", float, _check_alpha, "clique-expansion fitness exponent, > 0"
        ),
        sweep_key="alphas",
        grid=(0.8, 1.0, 1.3, 1.5, 1.7, 2.2),
        sweep=gce_sweep,
    ),
    "linkcluster": DetectorKind(
        run=_link_cover,
        option=ResolutionOption(
            "threshold",
            "threshold_percent",
            int,
            _check_threshold,
            "link-dendrogram cut percentage, 1 to 100",
        ),
        sweep_key="thresholds",
        grid=tuple(range(1, 101)),
        sweep=_link_covers,
    ),
}


def detect_cover(graph, method, params, **flags):
    """Run one detector by name; flags it does not take are ignored."""
    try:
        kind = DETECTORS[method]
    except KeyError:
        raise ConfigError(f"unknown detector {method!r}") from None
    return kind.run(graph, params, **{f: flags[f] for f in kind.flags if f in flags})


def import_cover(path, graph):
    """Read an externally produced cover file.

    One community per line, node labels space-separated; '#' lines are
    comments. Unknown labels are errors, exact-duplicate lines are dropped
    with a warning. A file without any content line at all is an error; a
    file holding only comments imports as an empty cover (the explicit way
    to feed downstream stages a cover with zero communities).
    """
    communities = []
    seen = set()
    dropped = 0
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
            fs = frozenset(members)
            if fs in seen:
                dropped += 1
                continue
            seen.add(fs)
            communities.append(fs)
    if not any_line:
        raise DataError(f"{path}: empty cover file")
    if dropped:
        log.warning("%s: dropped %d exact-duplicate communities", path, dropped)
    if not communities:
        log.warning("%s: imported cover has zero communities", path)
    return Cover(graph.n, communities, provenance=f"import({path})")
