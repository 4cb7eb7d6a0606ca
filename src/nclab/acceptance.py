"""The acceptance suite: twelve fixed-seed criteria with stated tolerances.

Each criterion returns rows (check id, measured, target, tolerance, pass);
a row that reads an experiment's check takes its tolerance and verdict from
the check's ``target`` and ``pass``.  ``run_acceptance`` prints the table,
writes ``acceptance.json`` and the backing CSVs, and returns exit code 4
when any check fails.

Known red check: LQ-6's band around 0.625 ln 3 at K=4, N=2 is not attainable
by a converged optimizer over the discrete policy class: the exact dynamic
programming optimum of the discretized problem sits ~15% below the
continuous Riccati value at that coarse discretization (the discrete DP
value is printed alongside).  The check runs exactly as stated and reports
honestly; the optimizer itself is validated against the DP oracle in the
unit tests and by the companion diagnostic row.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
import time

import numpy as np

from . import control as ctl
from . import gaussdisc, harness
from .randmat import RngStream, sample_gue

MASTER_SEED = 20260810


def _row(check_id, measured, target, tolerance, passed):
    return {"id": check_id, "measured": measured, "target": target,
            "tolerance": tolerance, "pass": bool(passed)}


def _check_row(check_id, check):
    """The row of an experiment's check whose target is its tolerance."""
    return _row(check_id, check["measured"], 0.0, check["target"],
                check["pass"])


def _stream(i):
    return RngStream(MASTER_SEED).child("acceptance", i)


# -- criteria ----------------------------------------------------------------


def criterion_1():
    """Semicircle moments at n=256, 20 samples, 5% relative."""
    headers, rows, checks = harness.experiment_csv(
        "spectrum", {"n_list": [256], "samples": 20, "max_moment": 4},
        _stream(1))
    check = checks["semicircle_rel_err_n256"]
    out = [_row(f"1.semicircle_m{2 * k}", r, 0.0, check["target"],
                r <= check["target"])
           for k, r in enumerate(check["measured"], start=1)]
    return out, (headers, rows)


def criterion_2():
    """Median GUE operator norm at n=512 within ``harness.OPNORM_BAND``,
    the band of the ``spectrum`` experiment's ``opnorm_median`` check, over
    draws of its own."""
    stream = _stream(2)
    norms = [np.max(np.abs(np.linalg.eigvalsh(
        sample_gue(512, stream.child("op", s))))) for s in range(10)]
    med = float(np.median(norms))
    low, high = harness.OPNORM_BAND
    return [_row("2.opnorm_median", med, 2.0, f"within [{low:.2f}, {high:.2f}]",
                 low <= med <= high)], None


def criterion_3():
    """Centered-squares freeness statistic decreasing over n in {8,32,128}."""
    headers, rows, checks = harness.experiment_csv(
        "freeness", {"n_list": [8, 32, 128], "samples": 50}, _stream(3))
    seq = checks["strictly_decreasing"]["measured"]
    out = [_row("3.decreasing", seq, "strictly decreasing", "-",
                checks["strictly_decreasing"]["pass"]),
           _check_row("3.final_below", checks["final_below_0.05"])]
    return out, (headers, rows)


@functools.lru_cache(maxsize=1)
def _laplacian_rows(seed):
    """The laplacian-check run that criteria 4 and 5 share, per master seed."""
    return harness.experiment_csv(
        "laplacian-check", {"cases": 50, "n_list": [3, 4, 6], "d": 2},
        RngStream(seed).child("acceptance", 4))


def criterion_4():
    headers, rows, checks = _laplacian_rows(MASTER_SEED)
    return [_check_row("4.laplacian_identity_max_gap",
                       checks["identity_max_gap"])], (headers, rows)


def criterion_5():
    _, _, checks = _laplacian_rows(MASTER_SEED)
    return [_check_row("5.laplacian_vs_fd_max_gap", checks["fd_max_gap"])], None


def criterion_6(threads=1, max_iters=250):
    """LQ at K=4, N=2, R=8: band vs 0.625 ln 3, and n-independence."""
    del threads  # perfbench/workloads.py passes it positionally
    headers, rows, _ = harness.experiment_csv(
        "value", {"template": "lq", "K": 4, "N": 2, "R": 8.0,
                  "n_list": [4, 8, 16], "opt": {"max_iters": max_iters}},
        _stream(6))
    v4, v8, v16 = (dict(zip(headers, row)) for row in rows)
    target = ctl.lq_reference(harness.lq_problem(8))    # 0.625 ln 3
    band = abs(v8["value"] - target) / target
    dp = ctl.lq_discrete_oracle(4, 2, 1.0, 0.5, 1.0)
    gap = abs(v4["value"] - v16["value"])
    mid = 0.5 * (v4["value"] + v16["value"])
    slack = 0.02 * mid + 3.0 * math.hypot(v4["stderr"], v16["stderr"])
    out = [
        _row("6.lq_band_vs_continuous", v8["value"], target, "5% relative",
             band <= 0.05),
        _row("6.lq_vs_discrete_dp_oracle", v8["value"], dp,
             "2% relative (diagnostic)", abs(v8["value"] - dp) / dp <= 0.02),
        _row("6.lq_n_independence", gap, 0.0, slack, gap <= slack),
    ]
    return out, (headers, rows)


def criterion_7():
    """Boue-Dupuis consistency at psi = 0.5 tr_n x^2, n = 8."""
    headers, rows, checks = harness.experiment_csv(
        "ldp", {"n": 8, "coef": 0.5, "lhs_samples": 10_000, "time_steps": 16,
                "opt": {"max_iters": 250}},
        _stream(7))
    lhs = checks["lhs_vs_oracle"]
    oracle = dict(zip(headers, rows[0]))["oracle"]      # 0.5 ln 2
    out = [
        _row("7.bd_lhs_vs_oracle", lhs["measured"], oracle, lhs["target"],
             lhs["pass"]),
        _check_row("7.bd_rhs_vs_oracle", checks["rhs_vs_oracle_rel"]),
        _row("7.bd_rhs_above_lhs", checks["rhs_above_lhs"]["measured"],
             ">= -3 stderr", checks["rhs_above_lhs"]["target"],
             checks["rhs_above_lhs"]["pass"]),
    ]
    return out, (headers, rows)


def criterion_8():
    """Quartic-cost discretization sweep: decreasing value differences."""
    headers, rows, checks = harness.experiment_csv(
        "sweep", {"template": "quartic", "beta_c": 0.0, "beta_f": 1.0,
                  "pairs": [[2, 4], [4, 8], [8, 16]], "R": 8.0, "n": 8,
                  "opt": {"max_iters": 200}},
        _stream(8))
    diffs = checks["successive_diffs"]["measured"]
    return [_row("8.sweep_decreasing_diffs", diffs, "decreasing magnitude",
                 "-", checks["successive_diffs"]["monotone_decay"])], \
        (headers, rows)


def criterion_9():
    """Convergence in n for the quartic cost at (K, N) = (4, 8)."""
    headers, rows, _ = harness.experiment_csv(
        "value", {"template": "quartic", "beta_c": 0.0, "K": 4, "N": 8,
                  "R": 8.0, "n_list": [4, 8, 16], "opt": {"max_iters": 200}},
        _stream(9))
    v4, v8, v16 = (dict(zip(headers, row)) for row in rows)
    d1 = abs(v8["value"] - v4["value"])
    d2 = abs(v16["value"] - v8["value"])
    slack = 3.0 * math.sqrt(v4["stderr"] ** 2 + 2 * v8["stderr"] ** 2
                            + v16["stderr"] ** 2)
    return [_row("9.n_convergence", d2, d1, f"+3 combined se = {slack:.4f}",
                 d2 <= d1 + slack)], (headers, rows)


def criterion_10():
    """Operator-norm truncation inequality on 100 random instances."""
    headers, rows, checks = harness.experiment_csv(
        "truncation-check", {"instances": 100, "R": 4.0}, _stream(10))
    n_pass = checks["all_pass"]["measured"]
    return [_row("10.truncation_instances", n_pass, 100, "all pass",
                 checks["all_pass"]["pass"])], (headers, rows)


def criterion_11():
    """Appendix-B analytics: truncated-Gaussian bounds and the bridge bound."""
    var_ok = all(gaussdisc.truncated_gaussian_variance(z) <= 1.0 + 1e-12
                 for z in np.arange(0.0, 5.0 + 1e-9, 0.1))
    mean_ok = all(gaussdisc.truncated_gaussian_mean(float(k)) <= 2.0 * k + 1e-12
                  for k in np.arange(1.0, 5.0 + 1e-9, 0.5))
    bridge_ok = gaussdisc.bridge_bound_check(0.0, 0.5, 1.0, 10_000,
                                             _stream(11).child("bridge"))
    return [_row("11.cond_variance_grid", var_ok, True, "Var <= 1", var_ok),
            _row("11.cond_mean_grid", mean_ok, True, "E <= 2K", mean_ok),
            _row("11.bridge_bound", bridge_ok, True, ">= 99% cells",
                 bridge_ok)], None


def criterion_12(out_dir):
    """Byte-identical CSVs across 1 vs 8 workers for criteria 1, 4, 6 configs,
    each run into an emptied ``determinism_t<workers>`` directory."""
    config = {
        "seed": MASTER_SEED,
        "experiments": [
            {"kind": "spectrum", "n_list": [256], "samples": 20},
            {"kind": "laplacian-check", "cases": 12, "n_list": [3, 4, 6], "d": 2},
            {"kind": "value", "template": "lq", "K": 4, "N": 2, "R": 8.0,
             "n_list": [8], "opt": {"max_iters": 50}},
        ],
    }
    outputs = {}
    for threads in (1, 8):
        sub = os.path.join(out_dir, f"determinism_t{threads}")
        if os.path.exists(sub):
            shutil.rmtree(sub)
        harness.run_config(config, sub, threads=threads)
        outputs[threads] = {}
        for name in sorted(os.listdir(sub)):
            if name.endswith(".csv"):
                with open(os.path.join(sub, name), "rb") as fh:
                    outputs[threads][name] = fh.read()
    same_names = sorted(outputs[1]) == sorted(outputs[8])
    identical = same_names and all(outputs[1][k] == outputs[8][k]
                                   for k in outputs[1])
    return [_row("12.determinism_1_vs_8_workers", identical, True,
                 "byte-identical", identical)], None


# -- runner -------------------------------------------------------------------

# Each entry takes the output directory; only criterion 12 uses it.
CRITERIA = {
    1: lambda out_dir: criterion_1(),
    2: lambda out_dir: criterion_2(),
    3: lambda out_dir: criterion_3(),
    4: lambda out_dir: criterion_4(),
    5: lambda out_dir: criterion_5(),
    6: lambda out_dir: criterion_6(),
    7: lambda out_dir: criterion_7(),
    8: lambda out_dir: criterion_8(),
    9: lambda out_dir: criterion_9(),
    10: lambda out_dir: criterion_10(),
    11: lambda out_dir: criterion_11(),
    12: criterion_12,
}


def run_acceptance(out_dir, only=None):
    """Run the acceptance criteria (``only``'s, each once, or all); print
    the table; exit 4 on a failed check."""
    selected = set(only or CRITERIA)
    unknown = sorted(selected - set(CRITERIA))
    if unknown:
        raise harness.ExperimentError(f"unknown criteria {unknown}")
    os.makedirs(out_dir, exist_ok=True)
    all_rows = []
    for cid in sorted(selected):
        started = time.perf_counter()
        rows, csv_payload = CRITERIA[cid](out_dir)
        elapsed = time.perf_counter() - started
        for r in rows:
            r["seconds"] = round(elapsed, 2)
        all_rows.extend(rows)
        if csv_payload is not None:
            headers, data = csv_payload
            harness.write_csv(os.path.join(out_dir, f"criterion_{cid:02d}.csv"),
                              headers, data)

    width = max(len(r["id"]) for r in all_rows) + 2
    print(f"{'check':<{width}} {'measured':<28} {'target':<24} "
          f"{'tolerance':<22} pass")
    for r in all_rows:
        print(f"{r['id']:<{width}} {_short(r['measured']):<28} "
              f"{_short(r['target']):<24} {_short(r['tolerance']):<22} "
              f"{'PASS' if r['pass'] else 'FAIL'}")
    n_fail = sum(1 for r in all_rows if not r["pass"])
    print(f"\n{len(all_rows) - n_fail}/{len(all_rows)} checks passed")
    harness._write_json(os.path.join(out_dir, "acceptance.json"), all_rows,
                        default=str)  # numpy values in "measured" become text
    return harness.EXIT_OK if n_fail == 0 else harness.EXIT_CHECK_FAILED


def _short(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(f"{v:.4g}" if isinstance(v, float) else str(v)
                               for v in value) + "]"
    return str(value)
