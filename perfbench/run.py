"""nclab benchmark: one workload, fixed seed, timed passes, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload lq_tree --seed 1 --seconds 55 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``lq_tree`` and
``diagnostics``.  A run imports nclab from ``src/``, sets the
workload up three times (construction plus a miniature warm-up pass) and then
times whole passes, closed loop, one after another, until ``--seconds`` is
spent (at least three).  Each pass is checked against references; each pass
must also reproduce the first pass's numeric outputs exactly.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``:

* ``setup_s``: import time plus the median of the three set-ups.
* ``wall_s``: median pass wall time, tracing off.
* ``passed_frac``: checks passed over checks attempted (a raised check is
  missed); ``failed`` and ``attempted`` in the same line give the failures.
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the run makes one untraced pass and at least two traced
passes (``tracer.py``) and reports the per-layer metrics: medians over the
traced passes, whose work counts must agree exactly.

A line before the last one holds the run's detail: environment, pass times
and count, and the path of a results file under ``.perfbench/results`` that
stores every check and numeric output; ``compare.py`` diffs two of those.
BLAS and OpenMP pools are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import gc
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

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Units whose per-layer values are exact work counts: they must be equal in
# every traced pass of a run.
EXACT_UNITS = ("count", "computed-bytes", "fraction")
# Work counts each traced pass of a workload must reach exactly.
EXPECTED_COUNTS = {"diagnostics": {"laplacian.gue_laplacian.calls": 50.0}}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad BENCHMARK.json)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_nclab(root):
    """Import nclab from ``<root>/src`` only; returns the workloads module."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nclab", "__init__.py")):
        raise BenchmarkError(f"no nclab sources under {src}")
    sys.path.insert(0, src)
    import nclab
    if os.path.dirname(os.path.abspath(nclab.__file__)) != os.path.join(src, "nclab"):
        raise BenchmarkError(f"nclab was imported from {nclab.__file__}, not {src}")
    import workloads
    return workloads


def metric_specs(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment(root, seed):
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}"
                for k in ("blas", "lapack") if k in deps}
    except TypeError:  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
            "git_commit": git_commit(root), "seed": seed}


def git_commit(root):
    """HEAD of the repository rooted exactly at ``root``, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(root):
        return out[1]
    return None


def _plain(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


def canonical(outputs):
    return json.dumps(outputs, sort_keys=True, default=_plain)


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Run:
    """Passes of one workload with their checks and outputs."""

    def __init__(self, run_pass, state, work_dir):
        self.run_pass = run_pass
        self.state = state
        self.work_dir = work_dir
        self.checks = []
        self.first_outputs = None
        self.first_canonical = None
        self.passes = 0

    def one(self, traced=False):
        """Run one pass; returns its wall time and, if traced, its layer metrics."""
        from tracer import Tracer, pass_metrics

        self.passes += 1
        pass_dir = os.path.join(self.work_dir, f"pass{self.passes:03d}")
        os.makedirs(pass_dir)
        gc.collect()
        cpu0 = cpu_seconds()
        layers = None
        if not traced:
            start = time.perf_counter()
            checks, outputs = self.run_pass(self.state, pass_dir)
            wall = time.perf_counter() - start
        else:
            tracer = Tracer(pass_dir)
            tracer.install()
            try:
                start = time.perf_counter()
                with tracer.span("pass"):
                    checks, outputs = self.run_pass(self.state, pass_dir)
                wall = time.perf_counter() - start
            finally:
                tracer.remove()
            layers = pass_metrics(tracer)
            layers["process.cpu_s"] = cpu_seconds() - cpu0
        shutil.rmtree(pass_dir)
        self.checks.extend(checks)
        text = canonical(outputs)
        if self.first_canonical is None:
            self.first_outputs, self.first_canonical = outputs, text
        else:
            self.checks.append((f"pass{self.passes}.outputs_repeat_first",
                                len(text), text == self.first_canonical))
        return wall, layers


def layer_summary(traced, untraced_walls, per_layer_units, workload):
    """Median per-layer metrics over traced passes, plus consistency checks."""
    from tracer import LAYERS

    checks = []
    summary = {}
    for name, unit in per_layer_units.items():
        if name == "trace.overhead_frac":
            continue
        values = [t[name] for t in traced]
        summary[name] = statistics.median(values)
        if unit in EXACT_UNITS:
            checks.append((f"trace.{name}.equal_across_passes", values,
                           all(v == values[0] for v in values)))
    for name, expected in EXPECTED_COUNTS.get(workload, {}).items():
        checks.append((f"trace.{name}.expected", summary[name],
                       summary[name] == expected))
    for t in traced:
        parts = sum(t[f"layer.{layer}.self_s"] for layer in LAYERS)
        total = parts + t["trace.unattributed_s"]
        checks.append(("trace.self_times_sum_to_wall", total - t["trace.wall_s"],
                       abs(total - t["trace.wall_s"]) <= 1e-6 * t["trace.wall_s"]))
    traced_wall = statistics.median(t["trace.wall_s"] for t in traced)
    summary["trace.overhead_frac"] = traced_wall / statistics.median(untraced_walls) - 1.0
    return summary, checks


def tail(walls):
    """Highest nearest-rank percentile with at least ten passes above it."""
    if len(walls) < 11:
        return None
    ordered = sorted(walls)
    rank = len(ordered) - 11
    return {"percentile": 100.0 * rank / (len(ordered) - 1), "seconds": ordered[rank]}


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, here)

    start = time.perf_counter()
    workloads = import_nclab(root)
    import_s = time.perf_counter() - start
    end_to_end_units, per_layer_units = metric_specs(root)
    if args.workload not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; choose from "
                             f"{sorted(workloads.WORKLOADS)}")
    setup, run_pass = workloads.WORKLOADS[args.workload]

    work_base = os.path.join(root, ".perfbench", "work")
    os.makedirs(work_base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_base)
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            setup_dir = os.path.join(work_dir, f"setup{k}")
            os.makedirs(setup_dir)
            t0 = time.perf_counter()
            state = setup(args.seed, setup_dir)
            setup_times.append(time.perf_counter() - t0)
        run = Run(run_pass, state, work_dir)

        walls, traced = [], []
        begin = time.perf_counter()

        def time_left():
            return time.perf_counter() - begin + statistics.median(walls) <= args.seconds

        if args.trace:
            def record(traced_pass):
                wall, layers = run.one(traced_pass)
                if traced_pass:
                    traced.append(layers)
                else:
                    walls.append(wall)

            # one untraced pass for the overhead, two traced ones to compare
            # work counts, then alternate while time is left
            for traced_pass in [False] + [True] * MIN_TRACED_PASSES:
                record(traced_pass)
            while time_left():
                record(len(traced) <= len(walls))
            metrics, trace_checks = layer_summary(traced, walls, per_layer_units,
                                                  args.workload)
            run.checks.extend(trace_checks)
            units = per_layer_units
        else:
            while len(walls) < MIN_PASSES or time_left():
                walls.append(run.one()[0])
            units = end_to_end_units

        failed = sum(1 for c in run.checks if not c[2])
        attempted = len(run.checks)
        if not args.trace:
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "passed_frac": (attempted - failed) / attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        if set(metrics) != set(units):
            raise BenchmarkError(
                f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                "BENCHMARK.json")

        results_dir = os.path.join(root, ".perfbench", "results")
        os.makedirs(results_dir, exist_ok=True)
        results_path = os.path.join(
            results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        detail = {
            "workload": args.workload, "environment": environment(root, args.seed),
            "import_s": import_s, "setup_runs_s": setup_times,
            "pass_walls_s": walls, "passes": len(walls), "wall_tail": tail(walls),
            "traced_passes": len(traced), "checks_failed": failed,
            "checks_attempted": attempted, "failed_frac": failed / attempted,
            "failed_checks": [c[0] for c in run.checks if not c[2]],
            "results_file": os.path.relpath(results_path, root),
        }
        with open(results_path, "w", encoding="utf-8") as fh:
            json.dump({**detail, "metrics": metrics, "checks": run.checks,
                       "outputs": run.first_outputs}, fh, indent=1, default=_plain)
        print(json.dumps(detail, default=_plain))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(value), "unit": units[name]}
                        for name, value in sorted(metrics.items())}}))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
