"""Golden outputs: the benchmark workloads' answers, pinned byte for byte.

Each case writes one of the three `perfbench` workloads' inputs at its
default size and seed, runs `run_benchmark`, and hashes every byte-contract
output: each file under `covers/`, `cells/` and `hist/` (relative path and
bytes), plus `report.csv`, `summary.tsv`, `stats.tsv` and `failures.tsv`.
A second run on the same directory, without `force`, resumes from the cached
covers and cells and must leave the same digest.

The sampler and input writer below are a frozen copy of the ones in
`perfbench/workloads.py`, so a change to the program or to perfbench never
changes these inputs. The digests are the same under numpy's AVX-512 and
baseline x86-64 kernels. A change that moves an answer on purpose replaces
the digest it moves and says why in CHANGES.md.
"""

import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from commbench import parse_config, run_benchmark

_SEED_MASK = (1 << 63) - 1
TOP_LEVEL = ("report.csv", "summary.tsv", "stats.tsv", "failures.tsv")
CACHE_DIRS = ("covers", "cells", "hist")


class Workload(NamedTuple):
    n: int
    groups: int
    p_in: float
    p_out: float
    seed: int
    attributes: tuple
    methods: tuple
    trees: int
    folds_evaluated: int


WORKLOADS = {
    "classify-2k": Workload(
        2000, 20, 0.1, 0.002, 1, ("block", "pair"),
        ("louvain-sweep lsweep", "gce-sweep gsweep"), 20, 3,
    ),
    "links-2k": Workload(
        2000, 20, 0.1, 0.002, 1, ("block",), ("linkcluster-sweep links",), 10, 3,
    ),
    "detect-10k": Workload(
        10000, 50, 0.07, 0.0006, 7, ("half",),
        (
            "louvain-sweep lsweep ts=0.5,1.0",
            "gce gce alpha=1.5",
            "linkcluster links threshold=80",
        ),
        20, 1,
    ),
}

DIGESTS = {
    "classify-2k": "d2b274a11ef152ed56be51509a27a147fa603c5653b6cdedcca21a52d25cb521",
    "links-2k": "b8c35bdb40a14813b0e48e35a2732154f6bca46a35dee299fb925873c87ecdd8",
    "detect-10k": "9f6d2f8645ede23aac285c354fe0591576e81f0c0a0743d515fb4abc9ec5f654",
}


def _attribute_value(name, block, groups):
    return {"block": block, "pair": block // 2, "half": int(block < groups // 2)}[name]


def _sample_pairs(rng, universe, p):
    hits = int(rng.binomial(universe, p)) if universe else 0
    if hits == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(universe, size=hits, replace=False))


def planted_edges(w):
    """(m, 2) int array of edges i < j, sorted: a binomial count per block pair,
    then that many distinct pairs."""
    size = w.n // w.groups
    rng = np.random.default_rng(np.random.SeedSequence([w.seed & _SEED_MASK]))
    iu, ju = np.triu_indices(size, k=1)
    parts = []
    for a in range(w.groups):
        idx = _sample_pairs(rng, len(iu), w.p_in)
        parts.append(np.column_stack((a * size + iu[idx], a * size + ju[idx])))
    for a in range(w.groups):
        for b in range(a + 1, w.groups):
            idx = _sample_pairs(rng, size * size, w.p_out)
            parts.append(np.column_stack((a * size + idx // size, b * size + idx % size)))
    edges = np.concatenate(parts).astype(np.int64)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def write_inputs(w, directory):
    """Edges, attributes and a config sending output to directory/out; the config path."""
    edges = planted_edges(w)
    edge_path = directory / "graph.edges"
    edge_path.write_text("".join(f"{i} {j}\n" for i, j in edges.tolist()))
    size = w.n // w.groups
    rows = ["node\t" + "\t".join(w.attributes) + "\n"]
    for v in np.unique(edges).tolist():
        values = (str(_attribute_value(a, v // size, w.groups)) for a in w.attributes)
        rows.append(f"{v}\t" + "\t".join(values) + "\n")
    attr_path = directory / "graph.tsv"
    attr_path.write_text("".join(rows))
    lines = [
        "version 1",
        f"output {directory / 'out'}",
        f"dataset planted {edge_path} {attr_path}",
        *(f"attribute {a}" for a in w.attributes),
        *(f"method {m}" for m in w.methods),
        f"trees {w.trees}",
        "k 10",
        f"folds-evaluated {w.folds_evaluated}",
        f"seed {w.seed}",
        "jobs 1",
    ]
    config_path = directory / "bench.cfg"
    config_path.write_text("\n".join(lines) + "\n")
    return config_path


def output_digest(out):
    """sha256 over the relative path, size and bytes of every byte-contract output."""
    files = [out / name for name in TOP_LEVEL]
    for sub in CACHE_DIRS:
        files += sorted((out / sub).rglob("*"))
    digest = hashlib.sha256()
    for path in files:
        if path.is_file():
            data = path.read_bytes()
            name = path.relative_to(out).as_posix().encode()
            digest.update(b"%s\0%d\0" % (name, len(data)) + data)
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_outputs_are_pinned(tmp_path, name):
    config = parse_config(write_inputs(WORKLOADS[name], tmp_path))
    report = run_benchmark(config)
    assert report.failures == []
    out = tmp_path / "out"
    assert all((out / top).is_file() for top in TOP_LEVEL)
    fresh = output_digest(out)
    run_benchmark(config)
    assert output_digest(out) == fresh, "a resumed run changed the outputs"
    assert fresh == DIGESTS[name]
