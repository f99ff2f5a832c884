"""commbench's benchmark: whole `run_benchmark` cells on seeded planted graphs.

    python3 perfbench/run.py --workload classify-2k [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It imports the program from `src/` of
that checkout, never from an installed copy, and exits with code 2 when there
is none. It works in the checkout's root and writes only under `.perfbench/`.

Set-up runs in fresh processes, three times before the measurement and three
times after it: each imports commbench, writes the workload's edge list,
attribute TSV and config from the seed, and parses the config. `setup_s` is
the median wall time of those processes. In between, this process repeats an
iteration until `--seconds` have passed, finishing the iteration under way:

1. `run`: `run_benchmark` into an empty output directory;
2. `resume`: delete the cell files of the config's last attribute and run
   again, which reloads the graph, imports every cached cover and classifies
   only the missing cells; repeated while the resumes took less than a third
   of the `run`;
3. `rerun`: run once more on the full cache.

Every phase is one operation; it fails when `run_benchmark` raises or a check
fails. The checks: no failed cell; `folds-evaluated x cells` records;
`report.csv`, `summary.tsv` and `stats.tsv` of `resume` and `rerun` equal the
`run`'s byte for byte; the workload's accuracy floor; the work counts equal
those of every earlier iteration and of earlier runs of the same code and
seed, kept in `.perfbench/counts.json`.

With `--trace 0` the last line of output reports the end-to-end metrics as
medians over the iterations. With `--trace 1` the first half of the time runs
untraced, the second half traced; the last line reports the per-layer
metrics of the `run` and `resume` phases (medians over traced iterations),
the traced `run_s` and the tracing overhead (traced `run_s` minus the
untraced median). The spans go to `.perfbench/traces/`.

`--tiny` shrinks every workload to a 200-node graph with 5 trees, for the
self-check in `perfbench/selfcheck.py`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy
from tracing import LAYER_TIMES, Tracer, instrument, phase_metric_units
from workloads import WORKLOADS, tiny, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = Path(".perfbench")  # relative to ROOT, the working directory
# set-ups timed before and again after the measurement, so that the median
# spans the run rather than one moment of a machine whose speed drifts
SETUP_REPEATS = 3
COMPARED_OUTPUTS = ("report.csv", "summary.tsv", "stats.tsv")
# work counts that must repeat exactly for a given code and seed
COMPARED_COUNTS = (
    "graph.edges",
    "detectors.linkclust.edge_pairs",
    "coverops.columns",
    "coverops.distinct_rows",
    "gbdt.trees",
)

END_TO_END_UNITS = {
    "run_s": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "accuracy_mean": "fraction",
    "cell_success_ratio": "fraction",
}


class CheckFailed(Exception):
    pass


def import_program():
    """Import commbench from this checkout's src/, or exit with code 2."""
    if not (SRC / "commbench" / "__init__.py").is_file():
        print(f"error: no commbench sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import commbench

    if Path(commbench.__file__).resolve().parent != SRC / "commbench":
        print(f"error: imported commbench from {commbench.__file__}", file=sys.stderr)
        sys.exit(2)
    return commbench


def choose_workload(args):
    workload = WORKLOADS[args.workload]
    return tiny(workload) if args.tiny else workload


def setup_only(args):
    """One set-up, timed by the parent: import, write the inputs, parse."""
    commbench = import_program()
    config_path = write_inputs(choose_workload(args), args.seed, args.setup_only)
    commbench.parse_config(config_path)


def time_setups(args, work):
    """Wall times of SETUP_REPEATS fresh set-up processes; the last dir is used."""
    samples = []
    for _ in range(SETUP_REPEATS):
        target = Path(tempfile.mkdtemp(prefix="inputs-", dir=work))
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-only", str(target),
        ] + (["--tiny"] if args.tiny else [])
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(command, check=True)
        samples.append(time.perf_counter() - start)
    return samples, target / "bench.cfg"


def read_outputs(out):
    return {name: (out / name).read_bytes() for name in COMPARED_OUTPUTS}


def code_digest():
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "code": code_digest(),
        "loadavg": list(os.getloadavg()),
    }


class Session:
    """One benchmark process: its config, operations and collected samples."""

    def __init__(self, commbench, workload, config):
        self.commbench = commbench
        self.workload = workload
        self.config = config
        self.out = Path(config.output_dir)
        self.cells = len(config.datasets) * len(config.methods) * len(config.attributes)
        self.attempted = 0
        self.failed = 0
        self.cells_attempted = 0
        self.cells_failed = 0
        self.samples = {"run_s": [], "resume_s": [], "accuracy_mean": []}
        self.counts = None
        self.tracer = None
        self.layers = {"run": [], "resume": []}
        self.traced_run_s = []

    # --- one iteration --------------------------------------------------

    def operation(self, label, fn):
        """Run one phase as an operation; False when it failed."""
        self.attempted += 1
        try:
            fn()
            return True
        except Exception:  # a benchmark boundary: count and report the failure
            self.failed += 1
            print(f"# FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            return False

    def timed_run(self, run_benchmark, cells):
        gc.collect()  # start every timed phase without the last one's garbage
        start = time.perf_counter()
        report = run_benchmark(self.config)
        elapsed = time.perf_counter() - start
        self.cells_attempted += cells
        self.cells_failed += len(report.failures)
        self.check_report(report)
        return report, elapsed

    def check_report(self, report):
        if report.failures:
            raise CheckFailed(f"failed cells: {report.failures}")
        expected = self.config.folds_evaluated * self.cells
        if len(report.records) != expected:
            raise CheckFailed(f"{len(report.records)} records, expected {expected}")
        floor = self.workload.accuracy_floor
        if floor is not None:
            method, attribute, bar = floor
            mean = report.summary[(method, attribute)][0]
            if mean < bar:
                raise CheckFailed(f"{method} on {attribute}: accuracy {mean!r} < {bar}")

    def check_same(self, phase, fresh):
        for name, data in read_outputs(self.out).items():
            if data != fresh[name]:
                raise CheckFailed(f"{phase}: {name} differs from the fresh run's")

    def iteration(self, traced):
        """run, resume(s) and rerun; returns True when every phase passed.

        Untraced, resume repeats while the resumes took less than a third of
        the fresh run, so a short resume phase still gets several samples.
        A traced iteration resumes once, so each phase has one trace.
        """
        tracer = self.tracer if traced else None
        run_benchmark = self.commbench.run_benchmark
        shutil.rmtree(self.out, ignore_errors=True)
        state = {"resume_s": []}
        # the workloads' attribute names need no quoting in cell file names
        suffix = f"__{self.config.attributes[-1]}.csv"
        resumed = len(self.config.datasets) * len(self.config.methods)

        def run():
            if tracer:
                tracer.trace = f"run{len(self.layers['run'])}"
            report, state["run_s"] = self.timed_run(run_benchmark, self.cells)
            state["fresh"] = read_outputs(self.out)
            accuracies = [r[4] for r in report.records]
            state["accuracy"] = sum(accuracies) / len(accuracies)
            if tracer:
                state["run_counts"] = tracer.finish()

        def resume():
            stale = [p for p in (self.out / "cells").iterdir() if p.name.endswith(suffix)]
            if len(stale) != resumed:
                raise CheckFailed(f"{len(stale)} cell files end in {suffix}, expected {resumed}")
            for path in stale:
                path.unlink()
            if tracer:
                tracer.trace = f"resume{len(self.layers['resume'])}"
            _, elapsed = self.timed_run(run_benchmark, resumed)
            self.check_same("resume", state["fresh"])
            state["resume_s"].append(elapsed)
            if tracer:
                state["resume_counts"] = tracer.finish()

        def rerun():
            self.timed_run(self.commbench.run_benchmark, 0)
            self.check_same("rerun", state["fresh"])

        def counts():
            found = {
                "report_sha256": hashlib.sha256(state["fresh"]["report.csv"]).hexdigest(),
                "accuracy_mean": state["accuracy"],
            }
            if tracer:
                for name in COMPARED_COUNTS:
                    found[name] = state["run_counts"].get(name, 0)
            if self.counts is None:
                self.counts = found
            if any(self.counts.get(k, v) != v for k, v in found.items()):
                raise CheckFailed(f"work counts {found} differ from {self.counts}")
            self.counts.update(found)

        if tracer:
            with instrument(tracer) as traced_run:
                run_benchmark = traced_run
                ok = self.operation("run", run) and self.operation("resume", resume)
        else:
            ok = self.operation("run", run) and self.operation("resume", resume)
            while ok and sum(state["resume_s"]) < state["run_s"] / 3:
                ok = self.operation("resume", resume)
        ok = ok and self.operation("rerun", rerun) and self.operation("counts", counts)
        if not ok:
            return False
        if tracer:
            self.traced_run_s.append(state["run_s"])
            for phase in ("run", "resume"):
                trace = f"{phase}{len(self.layers[phase])}"
                self.layers[phase].append(
                    tracer.layer_metrics(trace, state[f"{phase}_counts"], self.cells)
                )
        else:
            self.samples["run_s"].append(state["run_s"])
            self.samples["resume_s"].extend(state["resume_s"])
            self.samples["accuracy_mean"].append(state["accuracy"])
        return True

    def repeat(self, seconds, traced):
        """Iterate until seconds have passed, finishing the iteration under way."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            if not self.iteration(traced):
                return False
        return True


def compare_with_earlier(key, counts):
    """Store the counts of this code and seed; raise when an earlier run differs."""
    path = STATE / "counts.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    earlier = known.get(key, {})
    diff = {k: (earlier[k], v) for k, v in counts.items() if k in earlier and earlier[k] != v}
    known[key] = {**earlier, **counts}
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    if diff:
        raise CheckFailed(f"work counts differ from an earlier run of this code: {diff}")


def print_shape(metrics):
    """The facts each workload was chosen for, as the traced run saw them."""
    value = {name: m["value"] for name, m in metrics.items()}
    busy = sorted(((value[f"run.{n}"], n) for n in LAYER_TIMES), reverse=True)
    print("# largest run layers: " + ", ".join(f"{n} {v:.3f}" for v, n in busy[:3]))
    rows = value["run.coverops.rows"]
    distinct = value["run.coverops.distinct_rows"]
    print(
        f"# distinct rows {distinct:g}/{rows:g} ({distinct / max(1, rows):.1%}); "
        f"detectors {value['run.detectors.share']:.1%} of the traced run"
    )


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # configs name their files relative to the checkout
    workload = choose_workload(args)
    if args.seed is None:
        args.seed = workload.default_seed
    if args.setup_only:
        setup_only(args)
        return 0

    commbench = import_program()
    env = stamp()
    print("# stamp " + json.dumps(env, sort_keys=True), flush=True)
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=STATE / "work"))
    try:
        setup_samples, config_path = time_setups(args, work)
        session = Session(commbench, workload, commbench.parse_config(config_path))
        if args.trace:
            session.tracer = Tracer()
            ok = session.repeat(args.seconds / 2, traced=False)
            ok = ok and session.repeat(args.seconds / 2, traced=True)
        else:
            ok = session.repeat(args.seconds, traced=False)
        setup_samples += time_setups(args, work)[0]
        if ok:
            key = f"{workload.name}{'-tiny' if args.tiny else ''}/seed{args.seed}/{env['code']}"
            session.operation("counts", lambda: compare_with_earlier(key, session.counts))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        session.tracer.write(traces / f"{workload.name}-seed{args.seed}.tsv")
        metrics = {}
        for phase in ("run", "resume"):
            for name, unit in phase_metric_units().items():
                values = [m[name] for m in session.layers[phase]]
                metrics[f"{phase}.{name}"] = {"value": median(values), "unit": unit}
        print_shape(metrics)
        traced = median(session.traced_run_s)
        metrics["trace.run_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced - median(session.samples["run_s"]),
            "unit": "s",
        }
    else:
        values = {
            "run_s": median(session.samples["run_s"]),
            "resume_s": median(session.samples["resume_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": median(setup_samples),
            "accuracy_mean": median(session.samples["accuracy_mean"]),
            "cell_success_ratio": 1.0
            - session.cells_failed / max(1, session.cells_attempted),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    iterations = len(session.samples["run_s"]) + len(session.traced_run_s)
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']!r:>24} {metric['unit']}")
    print(f"# iterations {iterations}, counts {json.dumps(session.counts)}")
    samples = {"setup_s": setup_samples, "traced run_s": session.traced_run_s}
    samples.update(session.samples)
    for name, values in samples.items():
        if values:
            print(f"# samples {name}: " + " ".join(f"{v:.4f}" for v in values))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
