"""In-memory spans around the calls that cross commbench's layer boundaries.

`instrument` swaps wrappers into the module namespaces the callers look the
functions up in (`commbench.bench`, `commbench.detectors`, `commbench.dataset`
and `TreeEnsemble.predict` for `cross_validate`), and restores the originals on
exit. The program's source is untouched. A wrapper records one span (name,
start, end, parent, trace) per call; counts that cost more than a length are
deferred until `Tracer.finish`, so they never land inside a parent's span.

Layer times are self times: a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# metric -> span; `_s` metrics are the spans' busy (self) seconds in one phase
LAYER_TIMES = {
    "graph.load_edge_list_s": "graph.load_edge_list",
    "graph.load_attributes_s": "graph.load_attributes",
    "detectors.louvain.detect_s": "detectors.louvain.detect",
    "detectors.gce.detect_s": "detectors.gce.detect",
    "detectors.linkclust.build_s": "detectors.linkclust.build",
    "detectors.linkclust.cut_s": "detectors.linkclust.cut",
    "coverops.combine_s": "coverops.combine",
    "coverops.matrix_s": "coverops.matrix",
    "coverops.stats_s": "coverops.stats",
    "covers.serialize_s": "covers.serialize",
    "covers.import_s": "covers.import",
    "dataset.build_s": "dataset.build",
    "dataset.cv_s": "dataset.cv",
    "gbdt.fit_s": "gbdt.fit",
    "gbdt.predict_s": "gbdt.predict",
    "bench.self_s": "bench.run",
}
LAYER_COUNTS = (
    "graph.edges",
    "detectors.louvain.runs",
    "detectors.gce.runs",
    "detectors.linkclust.edge_pairs",
    "detectors.linkclust.merges",
    "detectors.linkclust.cuts",
    "coverops.dedup_in",
    "coverops.dedup_kept",
    "coverops.columns",
    "coverops.rows",
    "coverops.distinct_rows",
    "dataset.folds",
    "gbdt.fits",
    "gbdt.trees",
    "gbdt.rows_predicted",
    "bench.cells",
    "bench.cells_cached",
)
DETECTOR_SPANS = (
    "detectors.louvain.detect",
    "detectors.gce.detect",
    "detectors.linkclust.detect",
    "detectors.linkclust.build",
    "detectors.linkclust.cut",
)


def phase_metric_units():
    """name -> unit of the metrics `layer_metrics` returns for one phase."""
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["detectors.linkclust.cut_p50_s"] = "s"
    units["detectors.linkclust.cut_p90_s"] = "s"
    units["coverops.dedup_keep_ratio"] = "fraction"
    units["detectors.share"] = "fraction"
    return units


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Span:
    id: int
    trace: str
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace = ""
        self._stack = []
        self._counts = defaultdict(int)
        self._deferred = []

    def count(self, name, value):
        self._counts[name] += value

    def defer(self, fn, *args):
        """Run fn(tracer, *args) at finish, outside every span."""
        self._deferred.append((fn, args))

    def wrap(self, fn, name, after=None):
        """fn recording a span per call; name may be a function of the args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), self.trace, span_name, 0.0, 0.0, parent)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return traced

    def finish(self):
        """Run the deferred counts; returns the phase's counts."""
        for fn, args in self._deferred:
            fn(self, *args)
        self._deferred.clear()
        counts = dict(self._counts)
        self._counts.clear()
        return counts

    def layer_metrics(self, trace, counts, cells_total):
        """Per-layer metrics of the spans recorded under one trace id."""
        spans = [s for s in self.spans if s.trace == trace]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        self_time = defaultdict(float)
        for s in spans:
            self_time[s.name] += (s.end - s.start) - child_time[s.id]
        metrics = {metric: self_time[span] for metric, span in LAYER_TIMES.items()}
        for name in LAYER_COUNTS:
            metrics[name] = counts.get(name, 0)
        metrics["bench.cells_cached"] = cells_total - metrics["bench.cells"]
        cuts = [s.end - s.start for s in spans if s.name == "detectors.linkclust.cut"]
        metrics["detectors.linkclust.cut_p50_s"] = percentile(cuts, 0.5)
        metrics["detectors.linkclust.cut_p90_s"] = percentile(cuts, 0.9)
        dedup_in = metrics["coverops.dedup_in"]
        metrics["coverops.dedup_keep_ratio"] = (
            metrics["coverops.dedup_kept"] / dedup_in if dedup_in else 0.0
        )
        run = sum(s.end - s.start for s in spans if s.name == "bench.run")
        detect = sum(self_time[n] for n in DETECTOR_SPANS)
        metrics["detectors.share"] = detect / run if run else 0.0
        return metrics

    def write(self, path):
        """Write every span as TSV: id, trace, name, start, end, parent."""
        lines = ["id\ttrace\tname\tstart\tend\tparent"]
        for s in self.spans:
            parent = "" if s.parent is None else s.parent
            lines.append(f"{s.id}\t{s.trace}\t{s.name}\t{s.start!r}\t{s.end!r}\t{parent}")
        path.write_text("\n".join(lines) + "\n")


# --- counts recorded at the boundaries ---------------------------------


def _edges(tracer, graph):
    tracer.count("graph.edges", graph.edge_count())


def _after_load_edge_list(tracer, graph, *args, **kwargs):
    tracer.defer(_edges, graph)


def _detector_name(graph, method, *args, **kwargs):
    return {"louvain": "detectors.louvain.detect", "gce": "detectors.gce.detect"}.get(
        method, "detectors.linkclust.detect"
    )


def _after_detect(tracer, cover, graph, method, *args, **kwargs):
    if method in ("louvain", "gce"):
        tracer.count(f"detectors.{method}.runs", 1)


def _edge_pairs(tracer, graph):
    tracer.count(
        "detectors.linkclust.edge_pairs",
        sum(len(a) * (len(a) - 1) // 2 for a in graph.adj),
    )


def _after_link_clustering(tracer, dendrogram, graph, *args, **kwargs):
    tracer.count("detectors.linkclust.merges", len(dendrogram.merges))
    tracer.defer(_edge_pairs, graph)


def _after_cut(tracer, cover, *args, **kwargs):
    tracer.count("detectors.linkclust.cuts", 1)


def _dedup_in(tracer, covers):
    tracer.count("coverops.dedup_in", sum(len(c.communities) for c in covers))


def _after_combine(tracer, cover, covers, *args, **kwargs):
    tracer.count("coverops.dedup_kept", len(cover.communities))
    tracer.defer(_dedup_in, covers)


def _distinct_rows(tracer, matrix):
    tracer.count("coverops.distinct_rows", len(np.unique(matrix, axis=0)))


def _after_matrix(tracer, am, *args, **kwargs):
    rows, columns = am.matrix.shape
    tracer.count("coverops.rows", rows)
    tracer.count("coverops.columns", columns)
    tracer.defer(_distinct_rows, am.matrix)


def _after_build_dataset(tracer, data, *args, **kwargs):
    tracer.count("bench.cells", 1)


def _after_cross_validate(tracer, accuracies, *args, **kwargs):
    tracer.count("dataset.folds", len(accuracies))


def _after_fit(tracer, model, *args, **kwargs):
    tracer.count("gbdt.fits", 1)
    tracer.count("gbdt.trees", sum(len(seq) for seq in model.trees))


def _after_predict(tracer, predicted, *args, **kwargs):
    tracer.count("gbdt.rows_predicted", len(predicted))


@contextmanager
def instrument(tracer):
    """Install the span wrappers for the duration of the block."""
    import commbench.bench as bench
    import commbench.dataset as dataset
    import commbench.detectors as detectors
    import commbench.gbdt as gbdt

    link = tracer.wrap(
        detectors.link_clustering, "detectors.linkclust.build", _after_link_clustering
    )
    cut = tracer.wrap(detectors.cut_link_dendrogram, "detectors.linkclust.cut", _after_cut)
    patches = [
        (bench, "load_edge_list", "graph.load_edge_list", _after_load_edge_list),
        (bench, "load_attributes", "graph.load_attributes", None),
        (bench, "detect_cover", _detector_name, _after_detect),
        (bench, "combine_runs", "coverops.combine", _after_combine),
        (bench, "assignment_matrix", "coverops.matrix", _after_matrix),
        (bench, "cover_stats", "coverops.stats", None),
        (bench, "format_cover_stats", "coverops.stats", None),
        (bench, "parse_cover_stats", "coverops.stats", None),
        (bench, "serialize_cover", "covers.serialize", None),
        (bench, "import_cover", "covers.import", None),
        (bench, "build_dataset", "dataset.build", _after_build_dataset),
        (bench, "cross_validate", "dataset.cv", _after_cross_validate),
        (dataset, "train_gbdt", "gbdt.fit", _after_fit),
        (gbdt.TreeEnsemble, "predict", "gbdt.predict", _after_predict),
    ]
    saved = []
    try:
        for owner, attr, name, after in patches:
            if not hasattr(owner, attr):
                # the program no longer calls it by this name: its layer reads 0
                print(f"# not traced: {owner.__name__}.{attr}", file=sys.stderr)
                continue
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, after))
        for owner in (bench, detectors):
            saved.append((owner, "link_clustering", owner.link_clustering))
            saved.append((owner, "cut_link_dendrogram", owner.cut_link_dendrogram))
            owner.link_clustering = link
            owner.cut_link_dendrogram = cut
        yield tracer.wrap(bench.run_benchmark, "bench.run")
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
