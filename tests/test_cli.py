"""CLI subcommands, output shapes, and the exit-code contract."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import commbench
from commbench import Graph, write_edge_list
from commbench.cli import main
from commbench.detectors import DETECTORS
from conftest import BARBELL6_EDGES, make_micro
from test_bench import bench_config_text, two_clique_dataset


@pytest.fixture
def barbell_file(tmp_path):
    path = tmp_path / "barbell.edges"
    write_edge_list(make_micro("barbell6"), path)
    return path


class TestDetect:
    def test_louvain_to_stdout(self, barbell_file, capsys):
        assert main(["detect", str(barbell_file), "--method", "louvain"]) == 0
        assert capsys.readouterr().out == "0 1 2\n3 4 5\n"

    def test_gce_finds_the_triangles(self, barbell_file, capsys):
        assert main(["detect", str(barbell_file), "--method", "gce"]) == 0
        assert capsys.readouterr().out == "0 1 2\n3 4 5\n"

    def test_linkcluster_threshold(self, barbell_file, capsys):
        assert main(
            ["detect", str(barbell_file), "--method", "linkcluster", "--threshold", "90"]
        ) == 0
        assert capsys.readouterr().out == "0 1 2 3 4 5\n"

    def test_out_writes_file(self, barbell_file, tmp_path, capsys):
        out = tmp_path / "cover.txt"
        assert main(
            ["detect", str(barbell_file), "--method", "louvain", "--out", str(out)]
        ) == 0
        assert out.read_text() == "0 1 2\n3 4 5\n"
        assert capsys.readouterr().out == ""

    def test_multi_level_runs(self, barbell_file, capsys):
        code = main(["detect", str(barbell_file), "--method", "louvain", "--multi-level"])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_self_loops_require_flag(self, tmp_path, capsys):
        path = tmp_path / "loop.edges"
        path.write_text("a b\nb b 2.0\n")
        assert main(["detect", str(path), "--method", "louvain"]) == 2
        assert "self-loop" in capsys.readouterr().err
        assert main(
            ["detect", str(path), "--method", "louvain", "--allow-self-loops"]
        ) == 0

    def test_missing_file_exits_2(self, capsys):
        assert main(["detect", "/nonexistent.edges", "--method", "louvain"]) == 2
        assert "commbench:" in capsys.readouterr().err

    def test_bad_markov_time_exits_1(self, barbell_file, capsys):
        assert main(
            ["detect", str(barbell_file), "--method", "louvain", "--t", "0"]
        ) == 1

    def test_unknown_method_is_usage_error(self, barbell_file):
        with pytest.raises(SystemExit) as err:
            main(["detect", str(barbell_file), "--method", "mystery"])
        assert err.value.code == 1


# (method, another detector's option as given on the command line)
FOREIGN_OPTIONS = [
    (method, option)
    for method in DETECTORS
    for other, kind in DETECTORS.items()
    if other != method
    for option in [[f"--{kind.key}", str(kind.grid[0])]]
    + [["--" + flag.replace("_", "-")] for flag in kind.flags]
]


@pytest.mark.parametrize("command", [["detect", "g.edges"], ["sanity"]])
@pytest.mark.parametrize("method, option", FOREIGN_OPTIONS)
def test_other_detectors_options_refused(command, method, option, capsys):
    # --method gce --t 0.3 used to run gce and drop --t without a word
    with pytest.raises(SystemExit) as err:
        main([*command, "--method", method, *option])
    assert err.value.code == 1
    message = capsys.readouterr().err.splitlines()[-1]
    assert f"{option[0]} is a" in message and f"--method {method}" in message


class TestCombine:
    def test_pools_and_drops_near_duplicates(self, barbell_file, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1 2\n")
        b.write_text("0 1 2 3\n3 4 5\n")
        assert main(["combine", str(barbell_file), str(a), str(b)]) == 0
        assert capsys.readouterr().out == "0 1 2\n3 4 5\n"

    def test_out_file(self, barbell_file, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("0 1\n")
        out = tmp_path / "merged.txt"
        assert main(
            ["combine", str(barbell_file), str(a), "--out", str(out)]
        ) == 0
        assert out.read_text() == "0 1\n"

    def test_bad_cover_label_exits_2(self, barbell_file, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("0 zz\n")
        assert main(["combine", str(barbell_file), str(a)]) == 2


class TestBench:
    def test_success_prints_summary(self, tmp_path, capsys):
        _, edge_path, attr_path = two_clique_dataset(tmp_path)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(bench_config_text(edge_path, attr_path, tmp_path / "out"))
        assert main(["bench", str(cfg)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "method\tattribute\tmean_accuracy\trecords"
        assert lines[1].startswith("flat\tblock\t")
        assert (tmp_path / "out" / "report.csv").exists()
        assert "report written" in captured.err

    def test_config_error_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("version 2\n")
        assert main(["bench", str(cfg)]) == 1
        assert "commbench:" in capsys.readouterr().err

    def test_out_of_range_method_option_exits_1(self, tmp_path, capsys):
        _, edge_path, attr_path = two_clique_dataset(tmp_path)
        cfg = tmp_path / "bench.cfg"
        extra = "method linkcluster cut threshold=0\n"
        cfg.write_text(bench_config_text(edge_path, attr_path, tmp_path / "out", extra))
        assert main(["bench", str(cfg)]) == 1
        assert "bench.cfg:14: threshold must be between" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_cell_is_reported_and_exits_0(self, tmp_path, capsys):
        # 'dead' has no labeled rows, so its cell fails while 'block' scores
        _, edge_path, attr_path = two_clique_dataset(tmp_path)
        cfg = tmp_path / "bench.cfg"
        extra = "attribute dead\n"
        cfg.write_text(bench_config_text(edge_path, attr_path, tmp_path / "out", extra))
        assert main(["bench", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("flat\tblock\t")
        assert "1 cell(s) failed; see failures.tsv" in captured.err
        assert "dead" in (tmp_path / "out" / "failures.tsv").read_text()

    def test_all_cells_failed_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "boom.cfg"
        cfg.write_text(
            "version 1\n"
            f"output {tmp_path / 'boom-out'}\n"
            "dataset ghost /nonexistent.edges /nonexistent.tsv\n"
            "attribute block\n"
            "method louvain base\n"
        )
        assert main(["bench", str(cfg)]) == 3
        assert "failed" in capsys.readouterr().err


class TestSanity:
    def test_perfect_planted_recovery(self, capsys):
        code = main(
            [
                "sanity",
                "--method",
                "louvain",
                "--nodes",
                "32",
                "--groups",
                "4",
                "--p-in",
                "1.0",
                "--p-out",
                "0.0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nmi 1.0"
        assert lines[1] == "detected 4"
        assert lines[2] == "planted 4"
        assert lines[3] == "ratio 1.0"

    def test_invalid_spec_exits_1(self, capsys):
        assert main(
            ["sanity", "--method", "louvain", "--nodes", "10", "--groups", "3"]
        ) == 1
        assert "divide" in capsys.readouterr().err

    def test_p_mid_without_hierarchy_exits_1(self, capsys):
        assert main(["sanity", "--method", "louvain", "--p-mid", "0.4"]) == 1
        assert "p_mid applies only with hierarchy" in capsys.readouterr().err


class TestStats:
    def test_cover_summary_line(self, barbell_file, tmp_path, capsys):
        cover = tmp_path / "cover.txt"
        cover.write_text("0 1 2\n3 4 5\n")
        assert main(["stats", str(barbell_file), str(cover)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "communities\tmedian_smallest\tuncovered\tsizes"
        assert lines[1] == "2\t3.0\t0\t3:2"


class TestOrder:
    def test_writes_order_and_ranges(self, barbell_file, tmp_path, capsys):
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text(
            "node\tdorm\n0\tA\n1\tA\n2\tA\n3\tB\n4\tB\n5\tB\n"
        )
        prefix = tmp_path / "plot"
        code = main(
            [
                "order",
                str(barbell_file),
                str(attrs),
                "--attribute",
                "dorm",
                "--out",
                str(prefix),
            ]
        )
        assert code == 0
        assert (tmp_path / "plot.order").read_text().splitlines()[0] == "0 0"
        ranges = (tmp_path / "plot.ranges").read_text()
        assert "meta 0 6 A+B" in ranges
        assert "block 0 3 A" in ranges

    def test_unknown_attribute_exits_2(self, barbell_file, tmp_path, capsys):
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text("node\tdorm\n0\tA\n")
        assert main(
            ["order", str(barbell_file), str(attrs), "--attribute", "house"]
        ) == 2


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "commbench" in capsys.readouterr().out

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_installed_entry_point(self):
        # the child imports the same commbench as this process, installed or not
        package_root = str(Path(commbench.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        path = os.pathsep.join(filter(None, [package_root, inherited]))
        proc = subprocess.run(
            [sys.executable, "-m", "commbench.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "commbench" in proc.stdout
