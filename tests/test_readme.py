"""README's "Library use" example runs as written."""

import re
from pathlib import Path

from commbench import PlantedPartitionSpec, generate_planted, write_edge_list

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
