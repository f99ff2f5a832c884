"""README's "Library use" example runs as written; its command lines and its
example configuration parse."""

import re
import shlex
from pathlib import Path

from commbench import PlantedPartitionSpec, generate_planted, write_edge_list
from commbench.bench import parse_config
from commbench.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    spec = PlantedPartitionSpec(n=200, groups=10, p_in=0.4, p_out=0.01, seed=1)
    graph, truth, _ = generate_planted(spec)
    write_edge_list(graph, tmp_path / "graph.edges")
    rows = [f"{label}\t{group}\n" for label, group in zip(graph.labels, truth.assignment)]
    (tmp_path / "attrs.tsv").write_text("node\tdepartment\n" + "".join(rows))
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def command_lines():
    """Every ``commbench ...`` line of the README's ``sh`` blocks, comment stripped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    lines = (line.split("#", 1)[0].strip() for block in blocks for line in block.splitlines())
    return [line for line in lines if line.startswith("commbench ")]


def test_command_lines_parse():
    lines = command_lines()
    assert len(lines) >= 12
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1], line


def test_example_config_parses(tmp_path):
    text = README.read_text(encoding="utf-8").split("## Benchmark configuration format", 1)[1]
    example = re.search(r"```\n(version 1\n.*?)```", text, re.DOTALL).group(1)
    path = tmp_path / "experiment.cfg"
    path.write_text(example, encoding="utf-8")
    config = parse_config(path)
    assert [m.name for m in config.methods] == [
        "flat", "fine", "sweep", "cliques", "links", "external"
    ]
    assert config.attributes == ["department", "tenure"]
