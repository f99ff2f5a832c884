"""Benchmark orchestration: config parsing, cell grid, resume, reporting."""

import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import commbench
from commbench import (
    AllCellsFailedError,
    ConfigError,
    Cover,
    DataError,
    Graph,
    MethodSpec,
    Partition,
    PlantedPartitionSpec,
    accuracy_histogram,
    combine_runs,
    detect_cover,
    flatten_cover,
    generate_planted,
    method_cover,
    parse_config,
    run_benchmark,
    sanity_check,
    write_edge_list,
)
from commbench.bench import LOUVAIN_GRID, _cell_path, _cover_path, cell_seed
from commbench.cli import build_parser
from commbench.detectors import DETECTORS
from conftest import random_cover_communities
from oracles import best_match_oracle

MINIMAL = """\
version 1
dataset net edges.txt attrs.tsv
attribute block
method louvain base
"""


def write_config(tmp_path, text, name="bench.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_one_outcome_per_cell(config, report):
    """Every grid cell has folds_evaluated records or one failure, never both."""
    records = Counter(r[:3] for r in report.records)
    failures = Counter(f[:3] for f in report.failures)
    grid = [
        (network, method.name, attribute)
        for network, _, _ in config.datasets
        for method in config.methods
        for attribute in config.attributes
    ]
    assert set(records) | set(failures) == set(grid)
    for cell in grid:
        assert (records[cell], failures[cell]) in {(config.folds_evaluated, 0), (0, 1)}, cell


def two_clique_dataset(tmp_path):
    """Two 12-cliques joined by one bridge; 'block' names the clique.

    'parity' is uncorrelated with the cliques and 'dead' is entirely missing,
    so the same dataset also exercises weak cells and failing cells.
    """
    edges = [(i, j, 1.0) for i, j in combinations(range(12), 2)]
    edges += [(i, j, 1.0) for i, j in combinations(range(12, 24), 2)]
    edges.append((11, 12, 1.0))
    graph = Graph([str(i) for i in range(24)], edges)
    edge_path = tmp_path / "twoclique.edges"
    write_edge_list(graph, edge_path)
    attr_path = tmp_path / "twoclique.tsv"
    rows = ["node\tblock\tparity\tdead"]
    rows += [f"{i}\t{i // 12}\t{i % 2}\t" for i in range(24)]
    attr_path.write_text("\n".join(rows) + "\n")
    return graph, edge_path, attr_path


def bench_config_text(edge_path, attr_path, out, extra=""):
    return (
        "version 1\n"
        "seed 3\n"
        f"output {out}\n"
        "k 4\n"
        "folds-evaluated 2\n"
        "trees 20\n"
        "learning-rate 0.5\n"
        "min-samples-split 2\n"
        "subsample 1.0\n"
        "max-depth 2\n"
        f"dataset twoclique {edge_path} {attr_path}\n"
        "attribute block\n"
        "method louvain flat t=1.0\n"
        f"{extra}"
    )


class TestParseConfig:
    def test_minimal_config_with_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL))
        assert config.datasets == [("net", "edges.txt", "attrs.tsv")]
        assert config.attributes == ["block"]
        assert [m.name for m in config.methods] == ["base"]
        assert config.methods[0].kind == "louvain"
        assert config.methods[0].opts == {"dedup": False, "t": 1.0, "multi_level": False}
        assert (config.k, config.folds_evaluated) == (10, 3)
        assert config.seed == 0
        assert config.output_dir == "bench-out"
        assert config.classifier.n_trees == 1000
        assert config.classifier.learning_rate == 0.005

    def test_scalars_and_classifier_override(self, tmp_path, caplog):
        text = (
            "version 1\nseed 9\noutput results\nk 5\nfolds-evaluated 5\njobs 2\n"
            "trees 50\nlearning-rate 0.1\nmin-samples-split 3\nsubsample 0.9\n"
            "max-depth 2\n" + MINIMAL.split("\n", 1)[1]
        )
        config = parse_config(write_config(tmp_path, text))
        assert (config.seed, config.output_dir, config.k) == (9, "results", 5)
        assert config.folds_evaluated == 5
        assert "jobs 2 is ignored" in caplog.text
        assert config.classifier.n_trees == 50
        assert config.classifier.learning_rate == 0.1
        assert config.classifier.min_samples_split == 3
        assert config.classifier.subsample == 0.9
        assert config.classifier.max_depth == 2
        assert config.classifier.seed == 9

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        text = "# header\n\nversion 1\n# body\n" + MINIMAL.split("\n", 1)[1]
        parse_config(write_config(tmp_path, text))

    def test_method_option_parsing(self, tmp_path):
        text = (
            "version 1\n"
            "dataset net e a\n"
            "attribute block\n"
            "method louvain ml t=0.5 multi_level=true dedup=true\n"
            "method gce cliq alpha=1.3\n"
            "method linkcluster links threshold=25\n"
            "method import outside path=/tmp/cover.txt\n"
            "method louvain-sweep lsweep ts=0.5,1.0\n"
            "method gce-sweep gsweep\n"
            "method linkcluster-sweep ksweep thresholds=10-12\n"
        )
        config = parse_config(write_config(tmp_path, text))
        by_name = {m.name: m for m in config.methods}
        assert by_name["ml"].opts == {"dedup": True, "t": 0.5, "multi_level": True}
        assert by_name["cliq"].opts == {"dedup": False, "alpha": 1.3}
        assert by_name["links"].opts == {"dedup": False, "threshold": 25}
        assert by_name["outside"].opts == {"dedup": False, "path": "/tmp/cover.txt"}
        assert by_name["lsweep"].opts["ts"] == (0.5, 1.0)
        assert by_name["gsweep"].opts["alphas"] == DETECTORS["gce"].grid
        assert by_name["ksweep"].opts["thresholds"] == (10, 11, 12)

    def test_default_sweep_grids(self, tmp_path):
        text = (
            "version 1\ndataset net e a\nattribute block\n"
            "method louvain-sweep ls\nmethod linkcluster-sweep ks\n"
        )
        config = parse_config(write_config(tmp_path, text))
        assert config.methods[0].opts["ts"] == LOUVAIN_GRID
        assert config.methods[1].opts["thresholds"] == DETECTORS["linkcluster"].grid
        assert LOUVAIN_GRID[-1] == 1.0 and len(LOUVAIN_GRID) == 10
        assert DETECTORS["linkcluster"].grid == tuple(range(1, 101))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dataset net e a\n", "first directive"),
            ("", "empty configuration"),
            ("version 1\n", "at least one dataset"),
            ("version 1\ndataset net e a\n", "at least one method"),
            ("version 1\ndataset net e a\nmethod louvain x\n", "at least one attribute"),
            ("version 1\ndataset net e\n", "dataset needs"),
            ("version 1\nattribute a b\n", "attribute needs"),
            ("version 1\nmethod louvain\n", "method needs"),
            ("version 1\nwhatever 3\n", "unknown directive"),
            ("version 1\nmethod nosuch x\n", "unknown method kind"),
            ("version 1\nmethod louvain x t\n", "key=value"),
            ("version 1\nmethod louvain x color=red\n", "unknown method options"),
            ("version 1\nmethod import x\n", "missing path"),
            ("version 1\nmethod louvain x t=fast\n", "could not convert"),
            ("version 1\nmethod louvain x dedup=maybe\n", "true/false"),
            ("version 1\nmethod louvain-sweep x ts=a,b\n", "bad float list"),
            ("version 1\nmethod linkcluster-sweep x thresholds=a-b\n", "bad range"),
            ("version 1\nmethod linkcluster-sweep x thresholds=a,b\n", "bad integer list"),
            ("version 1\nmethod louvain-sweep x ts=\n", "empty grid"),
            ("version 1\nmethod gce-sweep x alphas=\n", "empty grid"),
            ("version 1\nmethod linkcluster-sweep x thresholds=\n", "empty grid"),
            ("version 1\nmethod linkcluster-sweep x thresholds=5-3\n", "empty grid"),
            ("version 1\nmethod louvain x t=2\n", r"cfg:2: markov time must be in \(0, 1\]"),
            ("version 1\nmethod gce x alpha=-1\n", r"cfg:2: alpha must be positive"),
            ("version 1\nmethod gce x alpha=inf\n", r"cfg:2: alpha must be positive and finite"),
            ("version 1\nmethod linkcluster x threshold=0\n", r"cfg:2: threshold must be between"),
            ("version 1\nmethod linkcluster x threshold=2.5\n", "invalid literal for int"),
            ("version 1\nmethod louvain-sweep x ts=0.5,0\n", "markov time must be"),
            ("version 1\nmethod gce-sweep x alphas=1.0,0\n", "alpha must be positive"),
            ("version 1\nmethod linkcluster-sweep x thresholds=0-3\n", "threshold must be between"),
            ("version 1\nmethod linkcluster-sweep x thresholds=50,101\n", "threshold must be between"),
            # a range is checked at its ends, before it is expanded
            ("version 1\nmethod linkcluster-sweep x thresholds=1-3000000\n", "got 3000000"),
            ("version 1\nk two\n", "bad value for k"),
            ("version 1\nk 2 3\n", "takes exactly one value"),
            # a repeated option or directive would silently replace the first
            (
                "version 1\nmethod linkcluster-sweep l thresholds=10-20 thresholds=30\n",
                r"cfg:2: method option 'thresholds' given twice",
            ),
            ("version 1\nmethod louvain m t=1.0 t=0.05\n", r"cfg:2: method option 't' given twice"),
            ("version 1\nseed 1\nseed 2\n", r"cfg:3: directive 'seed' given twice"),
            ("version 1\noutput a\noutput b\n", r"cfg:3: directive 'output' given twice"),
        ],
    )
    def test_rejections(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "tail, message",
        [
            ("method louvain dup\nmethod gce dup\n", "method names must be unique"),
            ("dataset net x y\n", "dataset names must be unique"),
            ("attribute block\n", "attribute names must be unique"),
            ("k 1\n", "k must be at least 2"),
            ("folds-evaluated 20\n", "folds-evaluated must be"),
            ("jobs 0\n", "jobs must be at least 1"),
            ("learning-rate 0\n", "learning_rate must be positive"),
            ("subsample 1.5\n", "subsample must be"),
            ("learning-rate nan\n", "learning_rate must be positive and finite"),
            ("learning-rate inf\n", "learning_rate must be positive and finite"),
        ],
    )
    def test_cross_field_rejections(self, tmp_path, tail, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, MINIMAL + tail))


class TestMethodCover:
    def test_louvain_kind(self, barbell6):
        spec = MethodSpec("base", "louvain", {"t": 1.0, "multi_level": False, "dedup": False})
        cover = method_cover(barbell6, spec)
        assert set(cover.communities) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_import_kind(self, tmp_path, barbell6):
        path = tmp_path / "cover.txt"
        path.write_text("0 1 2\n3 4 5\n")
        spec = MethodSpec("ext", "import", {"path": str(path), "dedup": False})
        cover = method_cover(barbell6, spec)
        assert set(cover.communities) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    @pytest.mark.parametrize(
        "kind, opts, singles",
        [
            (
                "louvain-sweep",
                {"ts": (0.5, 1.0), "multi_level": False},
                [("louvain", t) for t in (0.5, 1.0)],
            ),
            (
                "gce-sweep",
                {"alphas": (1.0, 1.5)},
                [("gce", a) for a in (1.0, 1.5)],
            ),
            (
                "linkcluster-sweep",
                {"thresholds": (40, 90)},
                [("linkcluster", p) for p in (40, 90)],
            ),
        ],
    )
    def test_sweeps_match_combined_single_runs(self, barbell6, kind, opts, singles):
        spec = MethodSpec("sweep", kind, dict(opts, dedup=False))
        got = method_cover(barbell6, spec)
        expected = combine_runs(
            [detect_cover(barbell6, method, value) for method, value in singles]
        )
        assert got.communities == expected.communities

    def test_dedup_flag_applies(self, tmp_path, barbell6):
        path = tmp_path / "cover.txt"
        path.write_text("0 1 2\n0 1 2 3\n")
        raw = MethodSpec("p", "import", {"path": str(path), "dedup": False})
        deduped = MethodSpec("q", "import", {"path": str(path), "dedup": True})
        assert len(method_cover(barbell6, raw)) == 2
        assert method_cover(barbell6, deduped).communities == [
            frozenset({0, 1, 2})
        ]

    def test_unknown_kind_rejected(self, barbell6):
        with pytest.raises(ConfigError, match="unknown method kind"):
            method_cover(barbell6, MethodSpec("x", "mystery", {}))


@pytest.mark.parametrize("name", sorted(DETECTORS))
class TestDetectorTable:
    """Each DETECTORS entry is the one definition of its detector's option."""

    def test_default_passes_check(self, name):
        kind = DETECTORS[name]
        assert type(kind.default) is kind.type
        kind.check(kind.default)

    def test_config_stores_default(self, tmp_path, name):
        text = f"version 1\ndataset net e a\nattribute block\nmethod {name} m\n"
        kind = DETECTORS[name]
        opts = parse_config(write_config(tmp_path, text)).methods[0].opts
        assert opts[kind.key] == kind.default
        assert type(opts[kind.key]) is kind.type

    @pytest.mark.parametrize("command", [["detect", "g.edges"], ["sanity"]])
    def test_cli_default(self, name, command):
        args = build_parser().parse_args([*command, "--method", name])
        assert getattr(args, DETECTORS[name].key) == DETECTORS[name].default

    def test_detect_cover_runs_named_detector_at_value(self, name):
        # a graph on which every detector's cover at grid[0] differs from
        # its cover at the default, so an ignored value shows
        spec = PlantedPartitionSpec(n=60, groups=3, p_in=0.5, p_out=0.05, seed=1)
        graph, _, _ = generate_planted(spec)
        kind = DETECTORS[name]
        run = kind.run or (lambda graph, value: kind.sweep(graph, [value])[0])
        at_value = run(graph, kind.grid[0]).communities
        assert at_value != run(graph, kind.default).communities
        assert detect_cover(graph, name, kind.grid[0]).communities == at_value

    def test_detect_cover_refuses_flags_it_does_not_take(self, barbell6, name):
        kind = DETECTORS[name]
        others = {flag for k in DETECTORS.values() for flag in k.flags} - set(kind.flags)
        for flag in sorted(others) + ["multilevel"]:
            message = f"detector '{name}' takes no flag '{flag}'"
            with pytest.raises(ConfigError, match=message):
                detect_cover(barbell6, name, kind.default, **{flag: True})


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(1, "net", "m", "a") == cell_seed(1, "net", "m", "a")

    def test_sensitive_to_every_coordinate(self):
        base = cell_seed(1, "net", "m", "a")
        assert cell_seed(2, "net", "m", "a") != base
        assert cell_seed(1, "other", "m", "a") != base
        assert cell_seed(1, "net", "m2", "a") != base
        assert cell_seed(1, "net", "m", "b") != base

    def test_fits_uint64(self):
        assert 0 <= cell_seed(12345, "n", "m", "a") < 2**64


class TestAccuracyHistogram:
    def test_round_half_up_and_clip(self):
        bins = accuracy_histogram([0.0, 1.0, 0.125, 0.12, 0.5, 0.5, 1.2, -0.1])
        assert bins == {0: 2, 12: 1, 13: 1, 50: 2, 100: 2}

    def test_empty(self):
        assert accuracy_histogram([]) == {}


class TestFlattenCover:
    def test_largest_community_wins(self):
        p = flatten_cover(Cover(5, [{0, 1}, {1, 2, 3, 4}]))
        assert p.communities() == [[0], [1, 2, 3, 4]]

    def test_tie_keeps_earliest(self):
        p = flatten_cover(Cover(3, [{0, 1}, {1, 2}]))
        assert p.communities() == [[0, 1], [2]]

    def test_uncovered_nodes_become_singletons(self):
        p = flatten_cover(Cover(4, [{0, 1}]))
        assert p.communities() == [[0, 1], [2], [3]]
        assert p.n_communities == 3

    def test_matches_oracle_on_random_covers(self, rng):
        for _ in range(200):
            n = rng.randint(1, 14)
            comms = random_cover_communities(rng, n) if rng.random() < 0.9 else []
            want = Partition(best_match_oracle(n, comms))
            assert flatten_cover(Cover(n, comms)) == want


class TestRunBenchmark:
    def run(self, tmp_path, out_name, extra="", force=False, jobs=None, folds=2):
        _, edge_path, attr_path = two_clique_dataset(tmp_path)
        text = bench_config_text(edge_path, attr_path, tmp_path / out_name, extra)
        text = text.replace("folds-evaluated 2", f"folds-evaluated {folds}")
        if jobs is not None:
            text += f"jobs {jobs}\n"
        config = parse_config(write_config(tmp_path, text, name=f"{out_name}.cfg"))
        return config, run_benchmark(config, force=force)

    def test_full_grid_and_written_files(self, tmp_path):
        config, report = self.run(tmp_path, "out")
        assert len(report.records) == 2  # 1 cell x 2 folds
        assert report.failures == []
        mean, count = report.summary[("flat", "block")]
        assert mean == 1.0 and count == 2
        assert report.stats[("twoclique", "flat")].community_count == 2
        assert report.histograms[("flat", "block")] == {100: 2}
        out = tmp_path / "out"
        assert (out / "report.csv").read_text().splitlines()[0] == (
            "network,method,attribute,fold,accuracy"
        )
        for name in ("summary.tsv", "stats.tsv", "failures.tsv"):
            assert (out / name).exists()
        assert (out / "cells" / "twoclique__flat__block.csv").exists()
        assert (out / "covers" / "twoclique__flat.txt").exists()
        assert (out / "hist" / "flat__block.txt").read_text() == "100 2\n"

    def test_resume_is_byte_identical(self, tmp_path):
        self.run(tmp_path, "outA")
        first = (tmp_path / "outA" / "report.csv").read_bytes()
        summary_first = (tmp_path / "outA" / "summary.tsv").read_bytes()
        # resumed run recomputes nothing but must rewrite identical reports
        self.run(tmp_path, "outA")
        assert (tmp_path / "outA" / "report.csv").read_bytes() == first
        assert (tmp_path / "outA" / "summary.tsv").read_bytes() == summary_first
        # a fresh directory reproduces the same bytes
        self.run(tmp_path, "outB")
        assert (tmp_path / "outB" / "report.csv").read_bytes() == first

    @pytest.mark.parametrize(
        "name, text, message",
        [
            (
                "cells/twoclique__flat__block.csv",
                "twoclique,flat,block,0,1.0\ntwoclique,flat,block,x,0.5\n",
                r"twoclique__flat__block\.csv:2: bad cell row",
            ),
            *(
                (
                    "cells/twoclique__flat__block.csv",
                    f"twoclique,flat,block,0,{accuracy}\ntwoclique,flat,block,1,1.0\n",
                    r"twoclique__flat__block\.csv:1: bad cell row",
                )
                # an accuracy must be a finite fraction
                for accuracy in ("nan", "inf", "1.5", "-0.2")
            ),
        ],
    )
    def test_malformed_cache_file_is_a_data_error(self, tmp_path, name, text, message):
        self.run(tmp_path, "out")
        (tmp_path / "out" / name).write_text(text)
        with pytest.raises(DataError, match=message):
            self.run(tmp_path, "out")

    def test_summary_mean_is_a_left_to_right_sum(self, tmp_path, compensated_sum):
        # ten cached folds of 0.1; a compensated sum would make the mean 0.1
        _, edge_path, attr_path = two_clique_dataset(tmp_path)
        text = bench_config_text(edge_path, attr_path, tmp_path / "out")
        text = text.replace("k 4\n", "k 10\n").replace("folds-evaluated 2", "folds-evaluated 10")
        config = parse_config(write_config(tmp_path, text))
        run_benchmark(config)
        rows = "".join(f"twoclique,flat,block,{fold},0.1\n" for fold in range(10))
        (tmp_path / "out" / "cells" / "twoclique__flat__block.csv").write_text(rows)
        run_benchmark(config)
        summary = (tmp_path / "out" / "summary.tsv").read_text().splitlines()
        assert summary[1] == "flat\tblock\t0.09999999999999999\t10"

    @pytest.mark.parametrize("folds", [1, 3])
    def test_resume_recomputes_cells_of_other_folds(self, tmp_path, caplog, folds):
        # cells cached for 2 folds neither serve nor break a run of another count
        self.run(tmp_path, "out")
        self.run(tmp_path, "fresh", folds=folds)
        with caplog.at_level("WARNING", logger="commbench.bench"):
            _, report = self.run(tmp_path, "out", folds=folds)
        assert [r[3] for r in report.records] == list(range(folds))
        assert "twoclique__flat__block.csv: recomputing" in caplog.text
        for name in ("report.csv", "cells/twoclique__flat__block.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "fresh" / name
            ).read_bytes()

    def test_resume_never_builds_adjacency(self, tmp_path, monkeypatch):
        # cells are built from cover files, which need labels but no neighbours
        extra = "method gce-sweep gs\nmethod linkcluster-sweep ls\nattribute parity\n"
        self.run(tmp_path, "out", extra=extra)
        names = ("report.csv", "summary.tsv", "stats.tsv")
        fresh = [(tmp_path / "out" / name).read_bytes() for name in names]

        def refuse(graph):
            raise AssertionError("a resumed run built the neighbour lists")

        monkeypatch.setattr(Graph, "neighbour_lists", refuse)
        for path in (tmp_path / "out" / "cells").glob("*__parity.csv"):
            path.unlink()
        for _ in ("missing cells", "full cache"):
            _, report = self.run(tmp_path, "out", extra=extra)
            assert report.failures == []
            assert [(tmp_path / "out" / name).read_bytes() for name in names] == fresh

    def test_outputs_do_not_depend_on_hash_seed(self, tmp_path):
        # labels get ids in first-seen order through dicts, never through sets
        graph, _, _ = two_clique_dataset(tmp_path)
        labels = [f"{'xyzw'[i % 4]}{i * 7919 % 1000}" for i in range(graph.n)]
        edge_path = tmp_path / "named.edges"
        write_edge_list(Graph(labels, graph.edges()), edge_path)
        attr_path = tmp_path / "named.tsv"
        rows = [f"{labels[i]}\t{i // 12}\t{i % 2}\n" for i in range(graph.n)]
        attr_path.write_text("node\tblock\tparity\n" + "".join(rows))
        extra = "method gce-sweep gs\nmethod linkcluster-sweep ls\nattribute parity\n"
        package_root = str(Path(commbench.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            config = write_config(
                tmp_path, bench_config_text(edge_path, attr_path, out, extra), f"{seed}.cfg"
            )
            subprocess.run(
                [sys.executable, "-m", "commbench.cli", "bench", str(config)],
                check=True,
                capture_output=True,
                env={**os.environ, "PYTHONPATH": package_root, "PYTHONHASHSEED": seed},
            )
            outputs.append(
                {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
            )
        assert len(outputs[0]) > 10
        assert outputs[0] == outputs[1]

    def test_persisted_cover_is_reused_until_forced(self, tmp_path):
        self.run(tmp_path, "out")
        cover_path = tmp_path / "out" / "covers" / "twoclique__flat.txt"
        original = cover_path.read_text()
        # replace the persisted cover with one useless blob community; the
        # cached cell still serves, but the statistics follow the new cover
        cover_path.write_text(" ".join(str(i) for i in range(24)) + "\n")
        _, cached = self.run(tmp_path, "out")
        assert cached.summary[("flat", "block")][0] == 1.0
        assert cached.stats[("twoclique", "flat")].community_count == 1
        rows = (tmp_path / "out" / "stats.tsv").read_text().splitlines()
        assert rows[1].split("\t")[:3] == ["twoclique", "flat", "1"]
        # dropping the finished cell reruns the classifier on the new cover
        (tmp_path / "out" / "cells" / "twoclique__flat__block.csv").unlink()
        _, degraded = self.run(tmp_path, "out")
        assert degraded.summary[("flat", "block")][0] < 0.8
        assert degraded.stats[("twoclique", "flat")].community_count == 1
        _, restored = self.run(tmp_path, "out", force=True)
        assert restored.summary[("flat", "block")][0] == 1.0
        assert cover_path.read_text() == original

    def test_resume_reads_cached_cover_without_rewriting_it(self, tmp_path):
        self.run(tmp_path, "fresh")
        self.run(tmp_path, "out")
        cover_path = tmp_path / "out" / "covers" / "twoclique__flat.txt"
        before = cover_path.stat()
        (tmp_path / "out" / "cells" / "twoclique__flat__block.csv").unlink()
        _, report = self.run(tmp_path, "out")
        assert len(report.records) == 2
        after = cover_path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert (tmp_path / "out" / "report.csv").read_bytes() == (
            tmp_path / "fresh" / "report.csv"
        ).read_bytes()

    @pytest.mark.parametrize("force", [True, False], ids=["forced", "resumed"])
    @pytest.mark.parametrize(
        "squatted, stage",
        [
            ("covers/twoclique__blocked.txt", "detect:"),
            ("cells/twoclique__blocked__block.csv", "classify:"),
        ],
        ids=["cover", "cell"],
    )
    def test_unwritable_file_fails_its_cells(self, tmp_path, squatted, stage, force):
        # a directory squats on the file name, so writing it fails
        (tmp_path / "out" / squatted).mkdir(parents=True)
        extra = "method louvain blocked t=1.0\n"
        _, report = self.run(tmp_path, "out", extra=extra, force=force)
        assert [f[:3] for f in report.failures] == [("twoclique", "blocked", "block")]
        assert report.failures[0][3].startswith(stage)
        assert report.summary[("flat", "block")][0] == 1.0
        assert not list((tmp_path / "out").rglob("*.tmp"))

    def fail_after_first_run(self, tmp_path):
        """Run once cleanly, then break parity and the imported cover.

        Returns the config, now failing the cells of (flat, parity) with
        "no labeled rows" and both cells of the import method with detect.
        """
        _, edge_path, attr_path = two_clique_dataset(tmp_path)
        source = tmp_path / "ext.txt"
        source.write_text("0 1 2 3\n12 13 14 15\n")
        extra = f"attribute parity\nmethod import ext path={source}\n"
        text = bench_config_text(edge_path, attr_path, tmp_path / "out", extra)
        config = parse_config(write_config(tmp_path, text))
        assert run_benchmark(config).failures == []
        rows = [f"{i}\t{i // 12}\t\n" for i in range(24)]
        attr_path.write_text("node\tblock\tparity\n" + "".join(rows))
        source.unlink()
        return config

    def test_resume_serves_no_file_of_a_failed_cell_or_cover(self, tmp_path):
        config = self.fail_after_first_run(tmp_path)
        failed = [
            ("twoclique", "ext", "block"),
            ("twoclique", "ext", "parity"),
            ("twoclique", "flat", "parity"),
        ]
        for force in (True, False):
            report = run_benchmark(config, force=force)
            assert_one_outcome_per_cell(config, report)
            assert sorted(f[:3] for f in report.failures) == failed
            assert list(report.summary) == [("flat", "block")]
        out = tmp_path / "out"
        assert [p.name for p in (out / "covers").iterdir()] == ["twoclique__flat.txt"]
        assert [p.name for p in (out / "cells").iterdir()] == ["twoclique__flat__block.csv"]

    def test_hist_holds_only_this_runs_pairs(self, tmp_path):
        config = self.fail_after_first_run(tmp_path)
        out = tmp_path / "out"
        assert len(list((out / "hist").iterdir())) == 4
        run_benchmark(config, force=True)
        assert [p.name for p in (out / "hist").iterdir()] == ["flat__block.txt"]

    def test_parallel_run_matches_serial_bytes(self, tmp_path):
        # jobs is accepted and ignored: the same cells give the same bytes
        extra = "attribute parity\n"
        self.run(tmp_path, "one", extra=extra)
        self.run(tmp_path, "two", extra=extra, jobs=3)
        for name in ("report.csv", "summary.tsv"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_names_differing_only_in_case_keep_their_own_files(self, tmp_path):
        # a case-insensitive file system compares names as if lowercased
        for a, b in (("A", "a"), ("Net", "net"), ("A", "%41")):
            assert _cell_path(tmp_path, a, a, a).name.lower() != (
                _cell_path(tmp_path, b, b, b).name.lower()
            )
            assert _cover_path(tmp_path, a, a).name.lower() != (
                _cover_path(tmp_path, b, b).name.lower()
            )
        # every workload's all-lowercase names keep their file names
        assert _cell_path(tmp_path, "net", "m-1.~", "x").name == "net__m-1.~__x.csv"

    def test_comma_and_quote_names_are_quoted_and_resumed(self, tmp_path, caplog):
        _, edge_path, attr_path = two_clique_dataset(tmp_path)
        text = bench_config_text(edge_path, attr_path, tmp_path / "out")
        text = text.replace("dataset twoclique ", 'dataset two,"clique" ')
        text = text.replace("method louvain flat ", 'method louvain "fl,at" ')
        config = parse_config(write_config(tmp_path, text))
        first = run_benchmark(config)
        out = tmp_path / "out"
        quoted = '"two,""clique""","""fl,at""",block'
        assert (out / "report.csv").read_text().splitlines()[1:] == [
            f"{quoted},{fold},1.0" for fold in (0, 1)
        ]
        cell = _cell_path(out, 'two,"clique"', '"fl,at"', "block")
        assert cell.read_text() == (out / "report.csv").read_text().split("\n", 1)[1]
        report_bytes = (out / "report.csv").read_bytes()
        with caplog.at_level("WARNING", logger="commbench"):
            resumed = run_benchmark(config)
        assert "recomputing" not in caplog.text
        assert resumed.records == first.records
        assert resumed.records[0][:3] == ('two,"clique"', '"fl,at"', "block")
        assert (out / "report.csv").read_bytes() == report_bytes

    def test_double_underscore_names_keep_their_own_cells(self, tmp_path):
        # (m, x__block) and (m__x, block) once shared one cache file name
        _, edge_path, _ = two_clique_dataset(tmp_path)
        attr_path = tmp_path / "blocks.tsv"
        rows = [f"{i}\t{i // 12}\t{i // 12}\n" for i in range(24)]
        attr_path.write_text("node\tblock\tx__block\n" + "".join(rows))
        extra = "attribute x__block\nmethod louvain m t=1.0\nmethod louvain m__x t=1.0\n"
        text = bench_config_text(edge_path, attr_path, tmp_path / "out", extra)
        report = run_benchmark(parse_config(write_config(tmp_path, text)))
        assert Counter(r[1:3] for r in report.records) == {
            (method, attribute): 2
            for method in ("flat", "m", "m__x")
            for attribute in ("block", "x__block")
        }

    def test_cell_failures_are_isolated(self, tmp_path):
        config, report = self.run(tmp_path, "out", extra="attribute dead\n")
        # 'dead' has no labeled rows: its cell fails, 'block' still scores
        assert len(report.failures) == 1
        net, method, attribute, message = report.failures[0]
        assert (net, method, attribute) == ("twoclique", "flat", "dead")
        assert message.startswith("classify:")
        assert report.summary[("flat", "block")][0] == 1.0
        assert len(report.records) == 2
        failures_text = (tmp_path / "out" / "failures.tsv").read_text()
        assert "dead" in failures_text

    def test_detect_failure_marks_method_cells(self, tmp_path):
        extra = "method import ghost path=/nonexistent/cover.txt\n"
        config, report = self.run(tmp_path, "out", extra=extra)
        assert len(report.failures) == 1
        assert report.failures[0][1] == "ghost"
        assert report.failures[0][3].startswith("detect:")
        assert report.summary[("flat", "block")][0] == 1.0

    def test_unloadable_dataset_fails_its_cached_cells(self, tmp_path):
        # a cached cell is served only while the inputs it came from still load
        _, edge_path, attr_path = two_clique_dataset(tmp_path)
        other = tmp_path / "other.edges"
        other.write_bytes(edge_path.read_bytes())
        out = tmp_path / "out"
        extra = f"attribute parity\ndataset other {other} {attr_path}\n"
        text = bench_config_text(edge_path, attr_path, out, extra)
        config = parse_config(write_config(tmp_path, text))
        run_benchmark(config)
        other.unlink()
        report = run_benchmark(config)
        assert_one_outcome_per_cell(config, report)
        lost = [("other", "flat", "block"), ("other", "flat", "parity")]
        assert [f[:3] for f in report.failures] == lost
        failures = [line.split("\t") for line in (out / "failures.tsv").read_text().splitlines()]
        assert [tuple(f[:3]) for f in failures] == lost
        assert all(f[3].startswith("dataset:") for f in failures)
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and {row.split(",")[0] for row in rows} == {"twoclique"}
        rows = (out / "stats.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == ["twoclique"]
        # with its only dataset gone, a run has nothing left to serve
        solo = tmp_path / "solo.edges"
        solo.write_bytes(edge_path.read_bytes())
        text = bench_config_text(solo, attr_path, tmp_path / "solo")
        config = parse_config(write_config(tmp_path, text, name="solo.cfg"))
        run_benchmark(config)
        solo.unlink()
        with pytest.raises(AllCellsFailedError, match="all 1 benchmark cells failed"):
            run_benchmark(config)

    def test_all_cells_failing_raises(self, tmp_path):
        out = tmp_path / "boom"
        text = (
            "version 1\n"
            f"output {out}\n"
            "dataset ghost /nonexistent.edges /nonexistent.tsv\n"
            "attribute block\n"
            "method louvain base\n"
        )
        config = parse_config(write_config(tmp_path, text))
        with pytest.raises(AllCellsFailedError, match="all 1 benchmark cells failed"):
            run_benchmark(config)


class TestSanityCheck:
    def test_perfect_recovery_on_easy_planted_graph(self):
        spec = PlantedPartitionSpec(n=32, groups=4, p_in=1.0, p_out=0.0, seed=1)
        result = sanity_check("louvain", 1.0, spec)
        assert result.nmi == 1.0
        assert result.detected_communities == 4
        assert result.planted_communities == 4
        assert result.ratio == 1.0

    def test_flags_reach_the_detector_or_are_refused(self):
        spec = PlantedPartitionSpec(n=40, groups=4, p_in=0.5, p_out=0.02, seed=1)
        single = sanity_check("louvain", 1.0, spec)
        multi = sanity_check("louvain", 1.0, spec, multi_level=True)
        assert (single.detected_communities, multi.detected_communities) == (4, 10)
        with pytest.raises(ConfigError, match="'louvain' takes no flag 'multilevel'"):
            sanity_check("louvain", 1.0, spec, multilevel=True)
        with pytest.raises(ConfigError, match="'gce' takes no flag 'multi_level'"):
            sanity_check("gce", 1.5, spec, multi_level=True)

    def test_empty_cover_is_an_error(self):
        # at height 0.01 no cluster of this graph spans four nodes
        spec = PlantedPartitionSpec(128, 4, 14 / 31, 2 / 96)
        with pytest.raises(DataError, match="detector produced an empty cover"):
            sanity_check("linkcluster", 1, spec)

    def test_unknown_detector_is_refused(self, barbell6):
        with pytest.raises(ConfigError, match="unknown detector 'nope'"):
            detect_cover(barbell6, "nope", 1.0)
