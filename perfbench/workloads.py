"""The benchmark workloads and their reference checks.

Each workload is built once per run by ``setup(seed, work_dir)`` (problem
construction plus a miniature warm-up pass over the same code paths) and then
timed pass by pass with ``run_pass(state, pass_dir)``.  A pass returns its
checks, as ``(id, measured, passed)`` triples, and every numeric output it
produced, so results of two code versions can be diffed to a tolerance.

Why these two:

* ``lq_tree``: acceptance criterion 6's LQ solves.  beta_C > 0, so the
  engine walks all 6^4 = 1296 bin prefixes per sample on (S, B, d, n, n)
  arrays; n in {4, 8, 16} grows the last step's state array per 16-sample
  chunk from about 5 MB to 85 MB.  Every engine stage, ``ncpoly`` cost
  evaluation and the clip run here.
* ``diagnostics``: never enters the bin-tree engine, so an engine change
  predicts no change here; it is the only workload for the Laplacians,
  ``nclaw``, large-n LAPACK, the ``parallel_map`` pool and the CSV and
  manifest writes.

A third workload, acceptance criteria 7-9 with beta_C = 0, was left out: on
a shared two-core host its identical passes ranged over a factor of two,
too wide for a regression bound.
"""

from __future__ import annotations

import csv
import json
import math
import os

from nclab import acceptance, harness
from nclab import control as ctl
from nclab.randmat import RngStream

# -- lq_tree ------------------------------------------------------------------

LQ_SIZES = (4, 8, 16)
LQ_K, LQ_N, LQ_R, LQ_BETA_C, LQ_BETA_F, LQ_T, LQ_D = 4, 2, 8.0, 0.5, 1.0, 1.0, 1
# One descent step keeps the descent loop (policy step, trial evaluation and
# its gradients) in every pass; the fixed part of a solve dominates anyway.
LQ_MAX_ITERS = 1
# The zero-policy Monte Carlo value must sit within this many reported
# standard errors of the closed form (about 6e-5 two-sided per solve).
LQ_STDERR_MULTIPLE = 4.0


def _normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def lq_zero_policy_value(K, N, T, beta_c, beta_f, d):
    """E[g] under the zero policy, beta_C^2 K E[omega^2] + beta_F^2 T d.

    The common noise is the sum of K binned increments, each replaced by its
    conditional mean omega over the bins (-inf, -1], (j/N, (j+1)/N] for
    j = -N..N-1, and (1, inf) of an N(0, T/K) increment; the GUE part has
    E tr_n W_T^2 = T per component.  Computed here from the normal law, not
    from nclab's own tables.
    """
    sd = math.sqrt(T / K)
    edges = [-math.inf] + [j / N for j in range(-N, N + 1)] + [math.inf]
    second = 0.0
    for a, b in zip(edges, edges[1:]):
        za, zb = a / sd, b / sd
        prob = _normal_cdf(zb) - _normal_cdf(za)
        first = sd * ((_normal_pdf(za) if a > -math.inf else 0.0)
                      - (_normal_pdf(zb) if b < math.inf else 0.0))
        second += first * first / prob
    return beta_c ** 2 * K * second + beta_f ** 2 * T * d


LQ_ZERO_VALUE = lq_zero_policy_value(LQ_K, LQ_N, LQ_T, LQ_BETA_C, LQ_BETA_F, LQ_D)


def lq_setup(seed, work_dir):
    """Seed the criterion streams and warm the engine up on a toy solve."""
    del work_dir
    acceptance.MASTER_SEED = seed
    problem = harness.lq_problem(4)
    cfg = ctl.OptimizerConfig(train_samples=4, val_samples=4, max_iters=1)
    ctl.optimize_discrete_value(problem, LQ_K, LQ_N, LQ_R, cfg,
                                RngStream(seed).child("lq_tree", "warm-up"))
    return {}


def lq_pass(state, pass_dir):
    """Criterion 6's solves, checked against the closed form.

    The criterion's own verdicts judge a converged 250-iteration optimizer
    (and its band check is a known failure), so the pass stores them as
    outputs and checks each solve instead.
    """
    del state, pass_dir
    try:
        rows, (headers, csv_rows) = acceptance.criterion_6(1, max_iters=LQ_MAX_ITERS)
    except Exception as exc:  # a raised criterion misses every check
        return [(f"lq_n{n}.{check}", repr(exc), False) for n in LQ_SIZES
                for check in ("zero_vs_closed_form", "value_below_zero")], {}
    checks = []
    for row in csv_rows:
        res = dict(zip(headers, row))
        n = res["n"]
        z = abs(res["zero_value"] - LQ_ZERO_VALUE) / res["stderr"]
        gap = res["value"] - res["zero_value"]
        checks.append((f"lq_n{n}.zero_vs_closed_form", z,
                       z <= LQ_STDERR_MULTIPLE))
        checks.append((f"lq_n{n}.value_below_zero", gap,
                       math.isfinite(res["value"]) and gap <= 1e-9))
    sizes = [dict(zip(headers, r))["n"] for r in csv_rows]
    checks.append(("lq.sizes", sizes, sizes == list(LQ_SIZES)))
    outputs = {"criterion_6": {"rows": rows, "csv": [headers, csv_rows]},
               "closed_form_zero_value": LQ_ZERO_VALUE}
    return checks, outputs


# -- diagnostics --------------------------------------------------------------

# Acceptance sizes of criteria 1-5, 10 and 11 as one run_config document.
DIAGNOSTICS_EXPERIMENTS = [
    {"kind": "spectrum", "n_list": [256], "samples": 20, "max_moment": 4},
    {"kind": "spectrum", "n_list": [512], "samples": 10},
    {"kind": "freeness", "n_list": [8, 32, 128], "samples": 50},
    {"kind": "laplacian-check", "cases": 50, "n_list": [3, 4, 6], "d": 2},
    {"kind": "truncation-check", "instances": 100, "R": 4.0},
    {"kind": "gaussdisc-check"},
]
DIAGNOSTICS_WARM_UP = [
    {"kind": "spectrum", "n_list": [8], "samples": 2},
    {"kind": "freeness", "n_list": [4, 8], "samples": 2},
    {"kind": "laplacian-check", "cases": 2, "n_list": [3], "d": 2},
    {"kind": "truncation-check", "instances": 2},
    {"kind": "gaussdisc-check", "N_list": [1], "delta_list": [1.0]},
]
DIAGNOSTICS_THREADS = min(2, len(os.sched_getaffinity(0)))


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[_number(cell) for cell in row] for row in rows]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _pass_flags(node, prefix=""):
    """(id, measured, pass) for every check in a summary with a pass flag."""
    for key, value in node.items():
        if isinstance(value, dict):
            if "pass" in value:
                yield f"{prefix}{key}", value.get("measured"), bool(value["pass"])
            yield from _pass_flags(value, f"{prefix}{key}.")


def diagnostics_setup(seed, work_dir):
    warm_dir = os.path.join(work_dir, "diagnostics-warm-up")
    harness.run_config({"seed": seed, "experiments": DIAGNOSTICS_WARM_UP},
                       warm_dir, threads=DIAGNOSTICS_THREADS)
    return {"config": {"seed": seed, "experiments": DIAGNOSTICS_EXPERIMENTS}}


def diagnostics_pass(state, pass_dir):
    """One run_config pass into a fresh directory, so no experiment resumes."""
    out_dir = os.path.join(pass_dir, "diagnostics")
    if os.path.exists(out_dir):
        raise RuntimeError(f"{out_dir} exists; a pass must start fresh")
    try:
        harness.run_config(state["config"], out_dir, threads=DIAGNOSTICS_THREADS)
    except Exception as exc:
        return [("run_config.raised", repr(exc), False)], {}
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    checks = list(_pass_flags(summary))
    done = [e for e in manifest["experiments"].values() if e["status"] == "done"]
    checks.append(("manifest.all_experiments_ran", len(done),
                   len(done) == len(DIAGNOSTICS_EXPERIMENTS)))
    outputs = {"summary": summary,
               "csv": {name: _read_csv(os.path.join(out_dir, name))
                       for name in sorted(os.listdir(out_dir))
                       if name.endswith(".csv")}}
    return checks, outputs


WORKLOADS = {
    "lq_tree": (lq_setup, lq_pass),
    "diagnostics": (diagnostics_setup, diagnostics_pass),
}
