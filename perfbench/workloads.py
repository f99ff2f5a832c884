"""Benchmark workloads and their seeded input files.

Every workload is a planted-partition graph written as an edge list, an
attribute TSV keyed by node label, and a `version 1` config naming both. The
sampler repeats the one in `commbench.planted` draw for draw (a binomial count
per block pair, then that many distinct pairs), so the default seeds give the
2k graph and the `SCALE` fixture the ROADMAP measures. It lives here, not in
the program, so a change to the program never changes the inputs.

The `tiny` variants shrink every workload to a 200-node graph with 5 trees;
the self-check runs them to prove every metric is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

_SEED_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    groups: int
    p_in: float
    p_out: float
    default_seed: int
    attributes: tuple  # attribute names, see _attribute_value
    methods: tuple  # "kind name [key=value ...]" config lines
    trees: int
    folds_evaluated: int
    # (method, attribute, floor): the fresh run's mean accuracy must reach it
    accuracy_floor: tuple | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # GBDT fit dominates; narrow, highly repeated membership matrices.
        Workload(
            name="classify-2k",
            n=2000,
            groups=20,
            p_in=0.1,
            p_out=0.002,
            default_seed=1,
            attributes=("block", "pair"),
            methods=("louvain-sweep lsweep", "gce-sweep gsweep"),
            trees=20,
            folds_evaluated=3,
            accuracy_floor=("lsweep", "block", 0.90),
        ),
        # GBDT still dominates, but the link-sweep matrix is wide and its rows
        # are nearly all distinct; 100 dendrogram cuts replay the merge list.
        Workload(
            name="links-2k",
            n=2000,
            groups=20,
            p_in=0.1,
            p_out=0.002,
            default_seed=1,
            attributes=("block",),
            methods=("linkcluster-sweep links",),
            trees=10,
            folds_evaluated=3,
        ),
        # Detectors dominate; link clustering's pair list sets peak memory.
        # The 100-threshold link sweep is left out: its cuts alone take 95 s.
        Workload(
            name="detect-10k",
            n=10000,
            groups=50,
            p_in=0.07,
            p_out=0.0006,
            default_seed=7,
            attributes=("half",),
            methods=(
                "louvain-sweep lsweep ts=0.5,1.0",
                "gce gce alpha=1.5",
                "linkcluster links threshold=80",
            ),
            trees=20,
            folds_evaluated=1,
        ),
    )
}


def tiny(workload):
    """The same workload shrunk to seconds: 200 nodes, 10 groups, 5 trees."""
    return replace(workload, n=200, groups=10, p_in=0.4, p_out=0.01, trees=5)


def _attribute_value(name, block, groups):
    if name == "block":
        return block
    if name == "pair":
        return block // 2
    if name == "half":
        return int(block < groups // 2)
    raise ValueError(f"unknown attribute {name!r}")


def _sample_pairs(rng, universe, p):
    hits = int(rng.binomial(universe, p)) if universe else 0
    if hits == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(universe, size=hits, replace=False))


def planted_edges(workload, seed):
    """(m, 2) int array of edges i < j, sorted, drawn from the seed."""
    size = workload.n // workload.groups
    rng = np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK]))
    iu, ju = np.triu_indices(size, k=1)
    parts = []
    for a in range(workload.groups):
        idx = _sample_pairs(rng, len(iu), workload.p_in)
        parts.append(np.column_stack((a * size + iu[idx], a * size + ju[idx])))
    for a in range(workload.groups):
        for b in range(a + 1, workload.groups):
            idx = _sample_pairs(rng, size * size, workload.p_out)
            parts.append(np.column_stack((a * size + idx // size, b * size + idx % size)))
    edges = np.concatenate(parts).astype(np.int64)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def write_inputs(workload, seed, directory):
    """Write edges, attributes and config under directory; returns the config path.

    The config sends the program's output to `directory/out`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    edges = planted_edges(workload, seed)
    edge_path = directory / "graph.edges"
    edge_path.write_text("".join(f"{i} {j}\n" for i, j in edges.tolist()))
    size = workload.n // workload.groups
    # only nodes the edge list mentions exist in the loaded graph
    present = np.unique(edges)
    rows = ["node\t" + "\t".join(workload.attributes) + "\n"]
    for v in present.tolist():
        values = (
            str(_attribute_value(a, v // size, workload.groups))
            for a in workload.attributes
        )
        rows.append(f"{v}\t" + "\t".join(values) + "\n")
    attr_path = directory / "graph.tsv"
    attr_path.write_text("".join(rows))
    lines = [
        "version 1",
        f"output {directory / 'out'}",
        f"dataset planted {edge_path} {attr_path}",
        *(f"attribute {a}" for a in workload.attributes),
        *(f"method {m}" for m in workload.methods),
        f"trees {workload.trees}",
        "k 10",
        f"folds-evaluated {workload.folds_evaluated}",
        f"seed {seed}",
        "jobs 1",
    ]
    config_path = directory / "bench.cfg"
    config_path.write_text("\n".join(lines) + "\n")
    return config_path
