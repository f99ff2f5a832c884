"""Self-check of the benchmark at tiny size.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json shrunk (`--tiny`: 200 nodes, 5 trees),
untraced and traced, and checks that the last line is the result object, that
every operation passed, and that it reports exactly the `end_to_end` (untraced)
or `per_layer` (traced) metrics of BENCHMARK.json with their units. Then it
copies only BENCHMARK.json and the benchmark's directories into a scratch
directory and checks that the benchmark refuses to run there: non-zero exit
and no result line. Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command, cwd):
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_result(spec, workload, trace):
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    proc = run(command, ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{workload} trace={trace}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{workload} trace={trace}: {result}\n{proc.stderr}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise SystemExit(
            f"{workload} trace={trace}: metrics differ: missing {missing}, "
            f"extra {extra}, units {[n for n in want if got.get(n, want[n]) != want[n]]}"
        )
    print(f"ok {workload} trace={trace}: {len(got)} metrics, {result['attempted']} operations")


def check_bare(spec):
    """Only BENCHMARK.json and the benchmark's files: must refuse to run."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(
                ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__")
            )
        workload = spec["workloads"][0]["name"]
        proc = run(list(spec["command"]) + ["--workload", workload, "--seed", "1",
                                            "--seconds", "1", "--trace", "0"], bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            raise SystemExit(f"bare directory: exit {proc.returncode}, output {last}")
        print(f"ok bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for workload in names:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
