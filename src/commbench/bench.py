"""End-to-end benchmark: detect communities, infer held-out attributes, report.

A run is a grid of cells (network x method x attribute). Each cell turns a
method's cover into binary membership features and scores a boosted-tree
classifier with stratified cross-validation on one attribute. Each cell yields
exactly one outcome, its fold rows or a failure; failures are logged, never
fatal - unless every cell fails. Each cell's fold rows are written atomically
to a file of their own, and covers are persisted per (network, method) the
same way, so an interrupted run resumes by skipping completed cells (unless
forced). A cell file is reused only when its rows are exactly the folds the
config evaluates, in order; otherwise the cell is recomputed. A failed cell or
cover leaves no file, so a resume computes it again; a cell file that cannot
be written is a `classify:` failure of its cell. Every run reads each cover
file back and computes its statistics and every missing cell from it, so a
dataset or cover that cannot be read fails all its cells, cached ones too.
The final report is a deterministic fold over the cell rows, so a finished
output directory is byte-for-byte reproducible from the same config.

Cells are evaluated one after another in configuration order. The `jobs`
directive is still accepted so older configs parse, but it is ignored:
threads made the interpreter-bound training slower, not faster.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import os
import zlib
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from operator import add
from pathlib import Path

from .coverops import (
    COVER_STATS_COLUMNS,
    assignment_matrix,
    cover_stats,
    dedup,
    combine_runs,
    format_cover_stats,
    memberships,
    nmi,
)
from .covers import Partition, import_cover, serialize_cover
from .dataset import build_dataset, cross_validate
# unused link_clustering and cut_link_dendrogram: perfbench/tracing.py wraps them here
from .detectors import (  # noqa: F401
    DETECTORS,
    cut_link_dendrogram,
    detect_cover,
    link_clustering,
)
from .errors import AllCellsFailedError, CommbenchError, ConfigError, DataError
from .gbdt import GBDTParams, seed_entropy
from .graph import load_attributes, load_edge_list
from .planted import generate_planted

import numpy as np

log = logging.getLogger(__name__)

CONFIG_VERSION = "version 1"

# Louvain's default sweep grid, under the name the acceptance tests import
LOUVAIN_GRID = DETECTORS["louvain"].grid


@dataclass
class MethodSpec:
    name: str
    kind: str
    opts: dict = field(default_factory=dict)


@dataclass
class BenchmarkConfig:
    datasets: list  # (name, edge_path, attribute_path)
    methods: list  # MethodSpec
    attributes: list
    classifier: GBDTParams = GBDTParams()
    k: int = 10
    folds_evaluated: int = 3
    output_dir: str = "bench-out"
    seed: int = 0


def _parse_bool(raw, where):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(f"{where}: expected true/false, got {raw!r}")


def _parse_grid(raw, spec, where):
    """Comma list of option values; integer grids also take a "lo-hi" range."""
    if spec.type is int and "-" in raw and "," not in raw:
        lo, _, hi = raw.partition("-")
        try:
            values = range(int(lo), int(hi) + 1)
        except ValueError:
            raise ConfigError(f"{where}: bad range {raw!r}") from None
        # the valid values are an interval: check the ends before expanding
        if values:
            spec.check(values[0])
            spec.check(values[-1])
        values = tuple(values)
    else:
        try:
            values = tuple(spec.type(x) for x in raw.split(",")) if raw else ()
        except ValueError:
            noun = "integer" if spec.type is int else "float"
            raise ConfigError(f"{where}: bad {noun} list {raw!r}") from None
    if not values:
        raise ConfigError(f"{where}: empty grid")
    for value in values:
        spec.check(value)
    return values


def _detector_kind(kind):
    """(detector name, DetectorKind, is_sweep) of a method kind, or None."""
    name = kind.removesuffix("-sweep")
    if name not in DETECTORS:
        return None
    return name, DETECTORS[name], name != kind


def _parse_method(kind, name, pairs, where):
    detector = _detector_kind(kind)
    if detector is None and kind != "import":
        raise ConfigError(f"{where}: unknown method kind {kind!r}")
    raw = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"{where}: expected key=value, got {pair!r}")
        if key in raw:
            raise ConfigError(f"{where}: method option {key!r} given twice")
        raw[key] = value
    opts = {"dedup": _parse_bool(raw.pop("dedup", "false"), where)}
    try:
        if detector is None:
            opts["path"] = raw.pop("path")
        else:
            _, spec, is_sweep = detector
            if is_sweep:
                grid = raw.pop(spec.sweep_key, None)
                opts[spec.sweep_key] = (
                    spec.grid if grid is None else _parse_grid(grid, spec, where)
                )
            else:
                opts[spec.key] = spec.type(raw.pop(spec.key, spec.default))
                spec.check(opts[spec.key])
            for flag in spec.flags:
                opts[flag] = _parse_bool(raw.pop(flag, "false"), where)
    except KeyError as exc:
        raise ConfigError(f"{where}: method {name!r} is missing {exc.args[0]}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if raw:
        extras = ", ".join(sorted(raw))
        raise ConfigError(f"{where}: unknown method options: {extras}")
    return MethodSpec(name=name, kind=kind, opts=opts)


# scalar directive -> (cast, GBDTParams or BenchmarkConfig field); absent
# directives keep the dataclass defaults, seed sets both seeds, and jobs is
# only checked
_SCALARS = {
    "seed": (int, "seed"),
    "output": (str, "output_dir"),
    "k": (int, "k"),
    "folds-evaluated": (int, "folds_evaluated"),
    "jobs": (int, "jobs"),
    "trees": (int, "n_trees"),
    "learning-rate": (float, "learning_rate"),
    "min-samples-split": (int, "min_samples_split"),
    "subsample": (float, "subsample"),
    "max-depth": (int, "max_depth"),
}


def _fields_of(cls, values):
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in values.items() if key in names}


def parse_config(path):
    """Parse the versioned key-value benchmark configuration file."""
    datasets = []
    methods = []
    attributes = []
    values = {}
    version_seen = False
    with open(path, encoding="utf-8") as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            if not version_seen:
                if parts != CONFIG_VERSION.split():
                    raise ConfigError(f"{where}: first directive must be '{CONFIG_VERSION}'")
                version_seen = True
                continue
            key = parts[0]
            if key == "dataset":
                if len(parts) != 4:
                    raise ConfigError(f"{where}: dataset needs name, edges, attributes")
                datasets.append((parts[1], parts[2], parts[3]))
            elif key == "attribute":
                if len(parts) != 2:
                    raise ConfigError(f"{where}: attribute needs exactly one name")
                attributes.append(parts[1])
            elif key == "method":
                if len(parts) < 3:
                    raise ConfigError(f"{where}: method needs a kind and a name")
                methods.append(_parse_method(parts[1], parts[2], parts[3:], where))
            elif key in _SCALARS:
                if len(parts) != 2:
                    raise ConfigError(f"{where}: {key} takes exactly one value")
                cast, name = _SCALARS[key]
                if name in values:
                    raise ConfigError(f"{where}: directive {key!r} given twice")
                try:
                    values[name] = cast(parts[1])
                except ValueError:
                    raise ConfigError(f"{where}: bad value for {key}: {parts[1]!r}") from None
            else:
                raise ConfigError(f"{where}: unknown directive {key!r}")
    if not version_seen:
        raise ConfigError(f"{path}: empty configuration (missing '{CONFIG_VERSION}')")
    if not datasets:
        raise ConfigError(f"{path}: at least one dataset is required")
    if not methods:
        raise ConfigError(f"{path}: at least one method is required")
    if not attributes:
        raise ConfigError(f"{path}: at least one attribute is required")
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: method names must be unique")
    if len({d[0] for d in datasets}) != len(datasets):
        raise ConfigError(f"{path}: dataset names must be unique")
    if len(set(attributes)) != len(attributes):
        raise ConfigError(f"{path}: attribute names must be unique")
    jobs = values.pop("jobs", 1)
    config = BenchmarkConfig(
        datasets=datasets,
        methods=methods,
        attributes=attributes,
        classifier=GBDTParams(**_fields_of(GBDTParams, values)),
        **_fields_of(BenchmarkConfig, values),
    )
    if config.k < 2:
        raise ConfigError(f"{path}: k must be at least 2")
    if not 1 <= config.folds_evaluated <= config.k:
        raise ConfigError(f"{path}: folds-evaluated must be between 1 and k")
    if jobs < 1:
        raise ConfigError(f"{path}: jobs must be at least 1")
    if jobs > 1:
        log.warning("%s: jobs %d is ignored; cells run serially", path, jobs)
    try:
        config.classifier.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


def method_cover(graph, method):
    """Resolve one method entry to a cover (single run, import, or sweep)."""
    opts = method.opts
    if method.kind == "import":
        cover = import_cover(opts["path"], graph)
    else:
        detector = _detector_kind(method.kind)
        if detector is None:
            raise ConfigError(f"unknown method kind {method.kind!r}")
        name, spec, is_sweep = detector
        flags = {flag: opts[flag] for flag in spec.flags}
        if not is_sweep:
            cover = detect_cover(graph, name, opts[spec.key], **flags)
        else:
            grid = opts[spec.sweep_key]
            if spec.sweep is not None:
                covers = spec.sweep(graph, grid)
            else:
                covers = [detect_cover(graph, name, value, **flags) for value in grid]
            cover = combine_runs(covers)
    if opts.get("dedup"):
        cover = dedup(cover)
    return cover


def cell_seed(seed, network, method, attribute):
    """Stable per-cell classifier seed."""
    entropy = seed_entropy(
        seed,
        zlib.crc32(network.encode("utf-8")),
        zlib.crc32(method.encode("utf-8")),
        zlib.crc32(attribute.encode("utf-8")),
    )
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


_UNENCODED = frozenset(b"abcdefghijklmnopqrstuvwxyz0123456789-.~")


def _safe(name):
    # every other UTF-8 byte is percent-encoded: "_", so "__" in a file name
    # only ever separates names, and capitals, so names differing only in
    # case keep distinct files on case-insensitive file systems
    return "".join(
        chr(byte) if byte in _UNENCODED else f"%{byte:02X}" for byte in name.encode("utf-8")
    )


def _cell_path(out, network, method, attribute):
    return out / "cells" / f"{_safe(network)}__{_safe(method)}__{_safe(attribute)}.csv"


def _cover_path(out, network, method):
    return out / "covers" / f"{_safe(network)}__{_safe(method)}.txt"


def _atomic_write(path, text):
    """Write text to path through a temporary file, removed if any step fails."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _unlink(path):
    """Remove a file if present; a directory squatting on the name stays."""
    with contextlib.suppress(FileNotFoundError, IsADirectoryError):
        path.unlink()


def _write_csv(path, rows):
    """Write rows in the CSV dialect ``_read_cell`` reads back."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _atomic_write(path, text.getvalue())


def _write_lines(path, lines):
    _atomic_write(path, "".join(f"{line}\n" for line in lines))


def _accuracy(text):
    """A cached accuracy: a float in [0, 1], so not NaN or infinite."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(text)
    return value


def _read_cell(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return [
                (network, method, attribute, int(fold), _accuracy(accuracy))
                for network, method, attribute, fold, accuracy in filter(None, reader)
            ]
        except ValueError:
            raise DataError(f"{path}:{reader.line_num}: bad cell row") from None


@dataclass
class BenchmarkReport:
    records: list  # (network, method, attribute, fold, accuracy), sorted
    stats: dict  # (network, method) -> CoverStats
    summary: dict  # (method, attribute) -> (mean accuracy, record count)
    histograms: dict  # (method, attribute) -> {percent bin: count}
    failures: list  # (network, method, attribute, message)


def accuracy_histogram(accuracies):
    """Counts per integer percent bin, round-half-up into 0..100."""
    bins = {}
    for a in accuracies:
        b = int(math.floor(a * 100.0 + 0.5))
        b = min(100, max(0, b))
        bins[b] = bins.get(b, 0) + 1
    return dict(sorted(bins.items()))


def _outcomes(config, out, force, stats):
    """Yield (cell, fold rows or failure message) per cell in config order; fill stats."""
    for net_name, edge_path, attr_path in config.datasets:
        try:
            graph = load_edge_list(edge_path)
            table = load_attributes(attr_path, graph)
        except (CommbenchError, OSError, ValueError) as exc:
            log.error("dataset %s failed: %s", net_name, exc)
            for method in config.methods:
                for attribute in config.attributes:
                    yield (net_name, method.name, attribute), f"dataset: {exc}"
            continue
        for method in config.methods:
            yield from _method_outcomes(config, out, force, stats, net_name, graph, table, method)


def _method_outcomes(config, out, force, stats, net_name, graph, table, method):
    """One method's outcomes on one network; its cover and matrix are freed on return."""
    cover_path = _cover_path(out, net_name, method.name)
    try:
        # fresh or resumed, every cell is built from the cover file
        if force or not cover_path.exists():
            _atomic_write(
                cover_path,
                f"# cover {method.name} on {net_name}\n"
                + serialize_cover(method_cover(graph, method), graph),
            )
        cover = import_cover(cover_path, graph)
    except (CommbenchError, OSError, ValueError) as exc:
        log.error("method %s on %s failed: %s", method.name, net_name, exc)
        _unlink(cover_path)
        for attribute in config.attributes:
            yield (net_name, method.name, attribute), f"detect: {exc}"
        return
    stats[(net_name, method.name)] = cover_stats(cover)
    matrix = None
    for attribute in config.attributes:
        cell = (net_name, method.name, attribute)
        path = _cell_path(out, *cell)
        if path.is_file() and not force:
            rows = _read_cell(path)
            folds = [(*cell, fold) for fold in range(config.folds_evaluated)]
            if [row[:4] for row in rows] == folds:
                yield cell, rows
                continue
            log.warning(
                "%s: recomputing, its rows are not folds 0..%d of this cell",
                path,
                config.folds_evaluated - 1,
            )
        if matrix is None:
            matrix = assignment_matrix(cover)
        params = replace(config.classifier, seed=cell_seed(config.seed, *cell))
        try:
            accuracies = cross_validate(
                build_dataset(matrix, table, attribute),
                params,
                k=config.k,
                folds_evaluated=config.folds_evaluated,
            )
            rows = [(*cell, fold, acc) for fold, acc in enumerate(accuracies)]
            _write_csv(path, rows)
        except (CommbenchError, OSError, ValueError) as exc:
            log.error("cell (%s, %s, %s) failed: %s", *cell, exc)
            yield cell, f"classify: {exc}"
            continue
        yield cell, rows


def run_benchmark(config, force=False):
    """Evaluate the full cell grid; returns the report after writing it out."""
    out = Path(config.output_dir)
    for sub in ("cells", "covers", "hist"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    records = []
    failures = []
    stats = {}
    for cell, outcome in _outcomes(config, out, force, stats):
        if isinstance(outcome, str):
            # a resume must not serve a file its cell failed to reproduce
            _unlink(_cell_path(out, *cell))
            failures.append((*cell, outcome))
        else:
            records.extend(outcome)
    if failures and not records:
        raise AllCellsFailedError(f"all {len(failures)} benchmark cells failed")
    records.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    summary = {}
    histograms = {}
    by_pair = {}
    for network, method, attribute, fold, accuracy in records:
        by_pair.setdefault((method, attribute), []).append(accuracy)
    for pair, accs in sorted(by_pair.items()):
        # left to right: the built-in sum of floats is compensated from 3.12 on
        summary[pair] = (reduce(add, accs, 0.0) / len(accs), len(accs))
        histograms[pair] = accuracy_histogram(accs)
    _write_report(out, records, stats, summary, histograms, failures)
    return BenchmarkReport(records, stats, summary, histograms, failures)


def _write_report(out, records, stats, summary, histograms, failures):
    header = ("network", "method", "attribute", "fold", "accuracy")
    _write_csv(out / "report.csv", [header, *records])
    lines = ["method\tattribute\tmean_accuracy\trecords"]
    for (method, attribute), (mean, count) in sorted(summary.items()):
        lines.append(f"{method}\t{attribute}\t{mean!r}\t{count}")
    _write_lines(out / "summary.tsv", lines)
    lines = ["\t".join(("network", "method", *COVER_STATS_COLUMNS))]
    for (network, method), st in sorted(stats.items()):
        lines.append(f"{network}\t{method}\t{format_cover_stats(st)}")
    _write_lines(out / "stats.tsv", lines)
    written = set()
    for (method, attribute), bins in sorted(histograms.items()):
        path = out / "hist" / f"{_safe(method)}__{_safe(attribute)}.txt"
        _write_lines(path, (f"{b} {c}" for b, c in bins.items()))
        written.add(path)
    for path in (out / "hist").glob("*.txt"):
        if path not in written:
            _unlink(path)
    lines = []
    for network, method, attribute, message in failures:
        clean = " ".join(str(message).split())
        lines.append(f"{network}\t{method}\t{attribute}\t{clean}")
    _write_lines(out / "failures.tsv", lines)


def flatten_cover(cover):
    """Best-match flattening of a cover into a partition.

    Every node joins the largest community containing it (earliest in cover
    order on ties); nodes in no community become fresh singletons.
    """
    nodes, communities, sizes = memberships(cover)
    # largest first, earliest first on ties: each node's first row is its best
    order = np.lexsort((communities, -sizes[communities]))
    covered, first = np.unique(nodes[order], return_index=True)
    assign = np.full(cover.n, -1)
    assign[covered] = communities[order[first]]
    uncovered = assign < 0
    assign[uncovered] = len(sizes) + np.arange(np.count_nonzero(uncovered))
    return Partition(assign.tolist())


@dataclass
class SanityResult:
    nmi: float
    detected_communities: int
    planted_communities: int
    ratio: float


def sanity_check(method, value, spec, **flags):
    """Detect on a planted graph and compare against the planted partition.

    The cover is flattened by best match before NMI; the count ratio
    detected/planted catches covers that shred the graph even when NMI looks
    acceptable. An empty cover is an error.
    """
    graph, truth, _ = generate_planted(spec)
    cover = detect_cover(graph, method, value, **flags)
    if not cover.communities:
        raise DataError("detector produced an empty cover")
    flattened = flatten_cover(cover)
    detected = len(cover.communities)
    return SanityResult(
        nmi=nmi(flattened, truth),
        detected_communities=detected,
        planted_communities=truth.n_communities,
        ratio=detected / truth.n_communities,
    )
