"""Experiment orchestration: JSON configs, CSV outputs, resumable manifests.

A config document lists experiments by kind; each experiment derives its own
random stream from the master seed and its index, writes one CSV with a
fixed header, and contributes a block to ``summary.json``.  Each kind
accepts the parameter keys of its table in ``EXPERIMENT_PARAMS``, each with
its default's type; every float, in ``opt`` and in an inline problem too,
must be finite, lists non-empty, integers at least 1 and the floats of
``_FLOAT_ABOVE`` above their bounds.  The whole config is checked before any
experiment runs.  A manifest keyed by the hash of the config,
the package version and the package sources makes reruns skip completed
experiments whose files are all present.

``run_config`` runs the experiments left to run side by side, one per
worker of a ``threads``-wide pool (``parallel_map``), and writes their
outputs in config order from the calling thread.  Inside an experiment the
work is serial: LAPACK releases the GIL, so ``spectrum``'s eigensolves
overlap the Python-bound kinds, which gain nothing from threads of their
own.  On a 2-core host the benchmark's ``diagnostics`` config (spectrum at
n=256 and n=512, freeness, laplacian-check, truncation-check and
gaussdisc-check) took 0.98 s at two threads against 1.47 s at one (medians
of 5 in-process runs).  Peak memory is up to ``threads`` experiments at
once.  Every experiment has its own stream and the map is ordered, so
outputs are byte-identical for any thread count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__, gaussdisc, nclaw
from . import control as ctl
from .laplacian import (check_gue_laplacian_guard, random_cylindrical,
                        trace_power)
from .matrixcore import NumericalError, basis_element
from .ncpoly import NCPolynomial
from .randmat import RngStream, sample_gue, sample_gue_tuple

__all__ = ["run", "run_config", "ExperimentError", "EXPERIMENT_KINDS",
           "EXPERIMENT_PARAMS", "experiment_csv", "experiment_params",
           "lq_problem", "quartic_problem"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3
EXIT_CHECK_FAILED = 4  # nclab acceptance: a check is red


class ExperimentError(ValueError):
    """Configuration-level failure (unknown kind, missing parameters)."""


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_atomic(path, write):
    """Write ``path`` through ``write(fh)`` into ``path.tmp``, then rename it
    over ``path``: a failed write leaves ``path`` as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _load_json(path):
    """The JSON document at ``path``, or None when the file is missing or
    does not parse (not JSON, or not UTF-8)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, ValueError):
        return None


def write_csv(path, headers, rows):
    text = "".join(",".join(map(_fmt, row)) + "\n" for row in [headers, *rows])
    _write_atomic(path, lambda fh: fh.write(text))


def _write_json(path, doc, default=None):
    _write_atomic(path, lambda fh: json.dump(doc, fh, indent=1, default=default))


def parallel_map(fn, items, threads):
    """Order-preserving map; thread count never changes the result."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def config_hash(config):
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@functools.cache
def _source_digest():
    """SHA-256 of the package's ``.py`` sources, names and bytes in name
    order, read once per process."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# problem templates
# ---------------------------------------------------------------------------


def lq_problem(n, d=1, beta_c=0.5, beta_f=1.0, t0=0.0, T=1.0, x0=None):
    """L = 0.5 ||alpha||^2, g = sum_j tr_n x_j^2."""
    cost = ctl.CostSpec(l0=None, quad_coef=0.5,
                        terminal=trace_power(d, 2),
                        lip_const=0.0, convexity_declared=True, c1=2.0)
    x0 = x0 if x0 is not None else np.zeros((d, n, n))
    return ctl.ControlProblem(n=n, d=d, x0=x0, beta_c=beta_c, beta_f=beta_f,
                              t0=t0, T=T, cost=cost)


def quartic_problem(n, **kwargs):
    """``lq_problem``'s problem, keyword for keyword, with g = sum_j tr_n
    x_j^4 (convex, non-quadratic) and beta_c = 0 unless given."""
    problem = lq_problem(n, **{"beta_c": 0.0, **kwargs})
    cost = replace(problem.cost, terminal=trace_power(problem.d, 4), c1=4.0)
    return replace(problem, cost=cost)


def problem_from_params(params, sizes):
    """The control problems of a ``value`` or ``sweep`` experiment's
    parameters (see ``experiment_params``), one per size n of ``sizes``.
    The cost does not depend on n, so the problems share one; an inline
    problem (``json``) keeps its n; ``experiment_params`` refuses others."""
    template = params["template"]
    kwargs = {key: params[key] for key in ("d", "beta_c", "beta_f", "t0", "T")}
    if params["x0"] not in ("identity", None):
        raise ExperimentError(
            f"x0 must be 'identity' or absent, got {params['x0']!r}")

    def x0(n):
        if params["x0"] is None:
            return np.zeros((kwargs["d"], n, n))
        return np.broadcast_to(np.eye(n), (kwargs["d"], n, n))

    if template in ("lq", "quartic"):
        make = lq_problem if template == "lq" else quartic_problem
        first = make(sizes[0], x0=x0(sizes[0]), **kwargs)
        return [first] + [replace(first, n=n, x0=x0(n)) for n in sizes[1:]]
    if template == "json":
        if not isinstance(params["problem"], dict):
            raise ExperimentError("template 'json' needs a 'problem' object")
        try:
            problem = ctl.ControlProblem.from_json(json.dumps(params["problem"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ExperimentError(f"invalid inline problem: {exc!r}") from exc
        return [problem] * len(sizes)
    raise ExperimentError(f"unknown problem template {template!r}")


# The least value of each counting ``OptimizerConfig`` field.  A sample set
# needs two samples for its standard error to mean something; 0 descent
# iterations return the zero policy's value, and degree 0 leaves a node the
# identity word alone (a scalar control per bin path).
_OPT_MINIMUM = {"train_samples": 2, "val_samples": 2, "max_iters": 0,
                "degree": 0}


# Each ``OptimizerConfig`` field's annotated types (a union's members),
# resolved once: the annotations are strings until ``get_type_hints``.
_OPT_TYPES = {key: typing.get_args(hint) or (hint,) for key, hint
              in typing.get_type_hints(ctl.OptimizerConfig).items()}


def optimizer_config(params, **overrides):
    """``OptimizerConfig`` from the ``opt`` object, whose keys must be its
    fields with values of their annotated types, counts at least their
    ``_OPT_MINIMUM``, and ``overrides``."""
    opt = params["opt"]
    bad = sorted(set(opt) - set(_OPT_TYPES))
    if bad:
        raise ExperimentError(f"unknown optimizer options {bad}")
    for key, value in opt.items():
        if not any(value is None if t is type(None) else _conforms(value, t())
                   for t in _OPT_TYPES[key]):
            raise ExperimentError(f"optimizer option {key!r} has the wrong "
                                  f"type: {value!r}")
        if key in _OPT_MINIMUM and value is not None and value < _OPT_MINIMUM[key]:
            raise ExperimentError(f"opt.{key} must be at least "
                                  f"{_OPT_MINIMUM[key]}, got {value!r}")
    return ctl.OptimizerConfig(**{**opt, **overrides})


def _solve_log(params, tag):
    """The iteration log of one of an experiment's solves: ``opt.log_path``
    with ``_{tag}`` before its extension (``iters.csv`` -> ``iters_n8.csv``),
    or None when there is no log.  Each solve opens its log for writing, so
    solves that shared one file would leave only the last one's rows."""
    path = params["opt"].get("log_path")
    if not path:
        return None
    root, ext = os.path.splitext(path)
    return f"{root}_{tag}{ext}"


def scaled_samples(n, base_train, base_val):
    """Scale GUE batches with n from their sizes at n = 8: tr_n fluctuations
    shrink like 1/n, so larger matrices need fewer samples for the same
    Monte Carlo error (capped both ways to keep runtimes flat)."""
    factor = (8 / n) ** 2
    return (min(2 * base_train, max(12, int(round(base_train * factor)))),
            min(2 * base_val, max(48, int(round(base_val * factor)))))


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------


# The band the median GUE operator norm of a spectrum size must fall in:
# the semicircle's edge is 2, approached from either side at finite n.
OPNORM_BAND = (1.90, 2.15)


def _exp_spectrum(params, stream):
    n_list, samples = params["n_list"], params["samples"]
    max_moment = params["max_moment"]
    headers = ["n", "sample"] + [f"m{2 * k}" for k in range(1, max_moment + 1)] \
        + ["opnorm"]
    rows = []
    checks = {}
    for n in n_list:
        # one eigensolve per sample, then each moment over all samples in
        # one call: a native call that drops the GIL waits to take it back
        # from the experiments running beside this one
        w = np.array([np.linalg.eigvalsh(sample_gue(n, stream.child("gue", n, s)))
                      for s in range(samples)])
        moments = np.stack([np.mean(w ** (2 * k), axis=1)
                            for k in range(1, max_moment + 1)], axis=1)
        opnorms = np.max(np.abs(w), axis=1)
        for s in range(samples):
            rows.append([n, s] + moments[s].tolist() + [float(opnorms[s])])
        means = np.mean(moments, axis=0)
        rel = [abs(means[k - 1] - nclaw.semicircle_moment(2 * k))
               / nclaw.semicircle_moment(2 * k) for k in range(1, max_moment + 1)]
        checks[f"semicircle_rel_err_n{n}"] = {
            "measured": [float(r) for r in rel], "target": 0.05,
            "pass": bool(max(rel) <= 0.05)}
        med = float(np.median(opnorms))
        low, high = OPNORM_BAND
        checks[f"opnorm_median_n{n}"] = {
            "measured": med, "target": [low, high],
            "pass": bool(low <= med <= high)}
    return headers, rows, checks


def _exp_freeness(params, stream):
    n_list, samples = params["n_list"], params["samples"]
    poly = NCPolynomial(1, {(1, 1): 1.0})
    headers = ["n", "sample", "statistic"]
    rows, means = [], {}
    for n in n_list:
        def one(s, n=n):
            child = stream.child("free", n, s)
            s1 = sample_gue_tuple(n, 1, child.child(0))
            s2 = sample_gue_tuple(n, 1, child.child(1))
            return nclaw.freeness_statistic([s1, s2], [1, 2], [poly, poly])
        stats = [one(s) for s in range(samples)]
        for s, v in enumerate(stats):
            rows.append([n, s, v])
        means[n] = float(np.mean(np.abs(stats)))
    seq = [means[n] for n in n_list]
    checks = {"mean_abs_statistic": {n: means[n] for n in n_list},
              "strictly_decreasing": {"measured": seq,
                                      "pass": all(a > b for a, b in zip(seq, seq[1:]))},
              "final_below_0.05": {"measured": seq[-1], "target": 0.05,
                                   "pass": seq[-1] < 0.05}}
    return headers, rows, checks


def _exp_laplacian_check(params, stream):
    cases, n_list, d = params["cases"], params["n_list"], params["d"]
    fd_step = params["fd_step"]
    headers = ["case", "n", "d", "gue_laplacian", "free_laplacian",
               "correction", "identity_gap", "fd_gap"]

    def one(c):
        gen = stream.child("lap", c).generator()
        n = n_list[c % len(n_list)]
        u = random_cylindrical(gen, d)
        x = sample_gue_tuple(n, d, gen, scale=0.8)
        cache = {}  # one word-product cache for the four at X
        gue = u.gue_laplacian(x, cache)
        free = u.free_laplacian(x, cache)
        corr = u.correction_term(x, cache)
        gap = abs(gue - free - corr)
        fd = _fd_laplacian(u, x, fd_step, cache)
        fd_gap = abs(gue - fd) / (1.0 + abs(gue))
        return [c, n, d, gue, free, corr, gap, fd_gap]

    rows = [one(c) for c in range(cases)]
    gaps = [r[6] for r in rows]
    fd_gaps = [r[7] for r in rows]
    checks = {
        "identity_max_gap": {"measured": float(max(gaps)), "target": 1e-10,
                             "pass": max(gaps) < 1e-10},
        "fd_max_gap": {"measured": float(max(fd_gaps)), "target": 1e-5,
                       "pass": max(fd_gaps) < 1e-5},
    }
    return headers, rows, checks


def _fd_laplacian(u, x, h, cache):
    """Central second differences over the full Hermitian basis, times 1/n^2.

    The d n^2 shifts h E (E the basis element ``basis_element(n, i, j)`` in
    component l) are stacked into one (d n^2, d, n, n) batch, so U is
    evaluated once at X + shifts and once at X - shifts; the differences are
    summed in (l, i, j) order.  ``cache`` is a word-product cache for X, read
    by the evaluation at X.
    """
    d, n = x.shape[-3], x.shape[-1]
    base = u.eval(x, cache)
    shifts = np.zeros((d * n * n, d, n, n), dtype=complex)
    for k, (l, i, j) in enumerate(np.ndindex(d, n, n)):
        shifts[k, l] = h * basis_element(n, i + 1, j + 1)
    up = u.eval(x + shifts)
    dn = u.eval(x - shifts)
    total = 0.0
    for second in (up - 2.0 * base + dn) / (h * h):
        total += float(second)
    return total / (n * n)


def _exp_value(params, stream):
    K, N, R, n_list = params["K"], params["N"], params["R"], params["n_list"]
    headers = ["K", "N", "R", "n", "value", "stderr", "zero_value", "iterations"]
    rows, checks = [], {}
    for n, problem in zip(n_list, problem_from_params(params, n_list)):
        train, val = scaled_samples(n, params["train_samples"],
                                    params["val_samples"])
        cfg = optimizer_config(params, train_samples=train, val_samples=val,
                               log_path=_solve_log(params, f"n{n}"))
        res = ctl.optimize_discrete_value(problem, K, N, R, cfg,
                                          stream.child(n))
        rows.append([K, N, R, n, res.value, res.stderr, res.zero_value,
                     res.iterations])
        checks[f"below_zero_policy_n{n}"] = {
            "measured": res.value, "target": res.zero_value,
            "pass": res.value <= res.zero_value + 1e-9}
    return headers, rows, checks


def _exp_sweep(params, stream):
    pairs = [tuple(p) for p in params["pairs"]]
    R, n = params["R"], params["n"]
    headers = ["K", "N", "R", "n", "value", "stderr"]
    rows = []
    problem, = problem_from_params(params, [n])
    for K, N in pairs:
        cfg = optimizer_config(params, log_path=_solve_log(params, f"K{K}_N{N}"))
        res = ctl.optimize_discrete_value(problem, K, N, R, cfg,
                                          stream.child("sweep", K, N))
        rows.append([K, N, R, n, res.value, res.stderr])
    values = [r[4] for r in rows]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    monotone = all(d1 >= d2 for d1, d2 in zip(diffs, diffs[1:]))
    checks = {"successive_diffs": {"measured": diffs,
                                   "monotone_decay": bool(monotone)}}
    return headers, rows, checks


def _exp_ldp(params, stream):
    n, coef, d = params["n"], params["coef"], params["d"]
    lhs_samples, time_steps = params["lhs_samples"], params["time_steps"]
    psi = trace_power(d, 2, coef)
    lhs = ctl.boue_dupuis_lhs(psi, n, lhs_samples, stream.child("lhs"))
    cfg = optimizer_config(params)
    res = ctl.boue_dupuis_rhs(psi, n, time_steps, cfg, stream.child("rhs"))
    oracle = 0.5 * math.log(1.0 + 2.0 * coef) * d
    headers = ["psi", "coef", "n", "lhs", "rhs", "rhs_stderr", "oracle"]
    rows = [["quadratic", coef, n, lhs, res.value, res.stderr, oracle]]
    checks = {
        "lhs_vs_oracle": {"measured": abs(lhs - oracle), "target": 0.02,
                          "pass": abs(lhs - oracle) <= 0.02},
        "rhs_vs_oracle_rel": {"measured": abs(res.value - oracle) / oracle,
                              "target": 0.05,
                              "pass": abs(res.value - oracle) / oracle <= 0.05},
        "rhs_above_lhs": {"measured": res.value - lhs,
                          "target": -3.0 * res.stderr,
                          "pass": res.value >= lhs - 3.0 * res.stderr},
    }
    return headers, rows, checks


def _exp_gaussdisc_check(params, stream):
    del stream
    n_list, delta_list = params["N_list"], params["delta_list"]
    headers = ["N", "delta", "j", "prob", "omega", "absdev"]
    rows = []
    ok_norm, ok_omega, ok_mean0 = True, True, True
    for N in n_list:
        for delta in delta_list:
            table = gaussdisc.noise_table(N, delta)
            ok_norm &= abs(float(table.probs.sum()) - 1.0) <= 1e-12
            ok_mean0 &= abs(float(table.probs @ table.omegas)) <= 1e-12
            if delta <= 1.0:
                ok_omega &= table.omega_in_range
            for j in table.indices:
                absd = gaussdisc.bin_conditional_absdev(j, delta, N) \
                    if table.prob(j) > 1e-12 else float("nan")
                rows.append([N, delta, j, table.prob(j), table.omega(j), absd])
    checks = {"probs_sum_to_one": {"pass": ok_norm},
              "omega_bound_2": {"pass": ok_omega},
              "centered": {"pass": ok_mean0}}
    return headers, rows, checks


def _exp_truncation_check(params, stream):
    instances, R = params["instances"], params["R"]
    headers = ["instance", "lhs_holds", "kappa", "n", "d"]

    def one(i):
        gen = stream.child("trunc", i).generator()
        n = int(gen.integers(2, 7))
        d = int(gen.integers(1, 3))
        kappa = float(gen.uniform(0.5, 2.0))
        smooth_abs = lambda x: np.sqrt(x * x + 1.0)
        cost = ctl.CostSpec(
            l0=ctl.ScalarTraceCost(lambda x, k=kappa: k * smooth_abs(x)),
            quad_coef=float(gen.uniform(0.0, 1.0)),
            terminal=trace_power(d, 2),
            lip_const=kappa, convexity_declared=False)
        steps = int(gen.integers(2, 6))
        times = np.linspace(0.0, float(gen.uniform(0.5, 2.0)), steps + 1)
        y = sample_gue(n, gen, (steps + 1, d))
        # per step: the scale, then the step's GUE draws
        alphas = np.array([float(gen.uniform(0.5, 4.0)) * sample_gue(n, gen, (d,))
                           for _ in range(steps)])
        ok = ctl.truncation_inequality_check(cost, times, y, alphas, R)
        return [i, ok, kappa, n, d]

    rows = [one(i) for i in range(instances)]
    n_pass = sum(1 for r in rows if r[1])
    checks = {"all_pass": {"measured": n_pass, "target": instances,
                           "pass": n_pass == instances}}
    return headers, rows, checks


EXPERIMENT_KINDS = {
    "spectrum": _exp_spectrum,
    "freeness": _exp_freeness,
    "laplacian-check": _exp_laplacian_check,
    "value": _exp_value,
    "sweep": _exp_sweep,
    "ldp": _exp_ldp,
    "gaussdisc-check": _exp_gaussdisc_check,
    "truncation-check": _exp_truncation_check,
}


_PROBLEM_PARAMS = {"template": "lq", "d": 1, "beta_c": 0.5, "beta_f": 1.0,
                   "t0": 0.0, "T": 1.0, "x0": None, "problem": None}

# The parameter keys each kind accepts, with their defaults.  A None default
# accepts any value, which the experiment checks; ``opt`` holds
# ``OptimizerConfig`` fields.
EXPERIMENT_PARAMS = {
    "spectrum": {"n_list": [256], "samples": 20, "max_moment": 4},
    "freeness": {"n_list": [8, 32, 128], "samples": 50},
    "laplacian-check": {"cases": 50, "n_list": [3, 4, 6], "d": 2,
                        "fd_step": 1e-3},
    "value": {"K": 4, "N": 2, "R": 8.0, "n_list": [8], "train_samples": 48,
              "val_samples": 192, "opt": {}, **_PROBLEM_PARAMS},
    "sweep": {"pairs": [[2, 4], [4, 8], [8, 16]], "R": 8.0, "n": 8, "opt": {},
              **_PROBLEM_PARAMS},
    "ldp": {"n": 8, "coef": 0.5, "lhs_samples": 10_000, "time_steps": 16,
            "d": 1, "opt": {}},
    "gaussdisc-check": {"N_list": [1, 2, 8], "delta_list": [1.0, 0.25, 0.01]},
    "truncation-check": {"instances": 100, "R": 4.0},
}


def _conforms(value, default):
    """True when ``value`` has the JSON type of ``default``: an int also
    where a float is, a bool only where a bool is, and a list whose elements
    conform to the default's first element."""
    if default is None:
        return True
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_conforms(v, default[0])
                                               for v in value)
    return isinstance(value, type(default))


# The exclusive lower bound of each float parameter that has one, by name:
# a clip level R, a bin-table step length and a finite-difference step are
# positive, and E exp(-n^2 coef tr_n x^2) diverges for coef <= -1/2, where
# the ldp oracle 1/2 ln(1 + 2 coef) d is undefined.
_FLOAT_ABOVE = {"R": 0.0, "delta_list": 0.0, "fd_step": 0.0, "coef": -0.5}


def _non_finite(value, path):
    """The path (``key``, ``key.field``, ``key[i]``) of the first float in a
    JSON value that is NaN or infinite, or None: ``json`` reads ``NaN``,
    ``Infinity`` and an overflowing literal such as ``1e999``."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}", item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        items = ()
    for where, item in items:
        found = _non_finite(item, where)
        if found is not None:
            return found
    return None


def _in_range(value, default):
    """False for an empty list where ``default`` is a list and for an
    integer below 1 where it is an integer (list elements alike): every
    integer parameter counts something.  ``value`` conforms to ``default``."""
    if isinstance(default, list):
        return bool(value) and all(_in_range(v, default[0]) for v in value)
    if isinstance(default, int) and not isinstance(default, bool):
        return value >= 1
    return True


def experiment_params(kind, params):
    """``params`` of an experiment (its ``kind`` key aside) completed with
    the defaults of ``EXPERIMENT_PARAMS[kind]``.  An unknown kind or key, a
    float anywhere in a value that is not finite, a value of the wrong
    type, an empty list, a count below 1, a bad ``opt``
    (``optimizer_config``; in ``value`` it may not set the sample counts),
    a float at or below its ``_FLOAT_ABOVE`` bound, a bad problem template
    or a size other than an inline problem's n is an ``ExperimentError``; a
    size beyond a resource guard
    (``control.PATH_GUARD`` on a ``value`` or ``sweep`` bin tree,
    ``laplacian.GUE_LAPLACIAN_GUARD`` on a ``laplacian-check``) is the
    guard's ``ValueError``."""
    if not isinstance(kind, str) or kind not in EXPERIMENT_KINDS:
        raise ExperimentError(f"unknown experiment kind {kind!r}")
    table = EXPERIMENT_PARAMS[kind]
    given = {key: value for key, value in params.items() if key != "kind"}
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ExperimentError(f"unknown {kind} parameters {unknown}")
    for key, value in given.items():
        bad = _non_finite(value, key)
        if bad is not None:
            raise ExperimentError(f"{kind} parameter {bad!r} is not a finite "
                                  f"number")
        if not _conforms(value, table[key]):
            raise ExperimentError(f"{kind} parameter {key!r} has the wrong "
                                  f"type: {value!r}")
        if not _in_range(value, table[key]):
            raise ExperimentError(f"{kind} parameter {key!r} is out of range "
                                  f"(empty list or count below 1): {value!r}")
        if key in _FLOAT_ABOVE and not all(
                v > _FLOAT_ABOVE[key] for v in np.ravel(value)):
            raise ExperimentError(f"{kind} parameter {key!r} must be above "
                                  f"{_FLOAT_ABOVE[key]}, got {value!r}")
    params = {**table, **given}
    if "opt" in params:
        optimizer_config(params)
    if kind == "value":  # its top-level sample counts, scaled with n, win
        overridden = sorted({"train_samples", "val_samples"}
                            & set(params["opt"]))
        if overridden:
            raise ExperimentError(
                f"value parameter 'opt' sets {overridden}: give the top-level "
                f"'train_samples' and 'val_samples', which value scales with n")
    if "template" in params:  # value and sweep; n = 1, so nothing grows
        problem, = problem_from_params(params, [1])
        wrong = set(params["n_list"] if kind == "value"
                    else [params["n"]]) - {problem.n}
        if params["template"] == "json" and wrong:
            raise ExperimentError(f"{kind} asks for n = {sorted(wrong)}, but "
                                  f"its inline problem has n = {problem.n}")
        pairs = (params["pairs"] if kind == "sweep"
                 else [[params["K"], params["N"]]])
        collapse = problem.beta_c == 0.0
        for pair in pairs:
            if len(pair) != 2:
                raise ExperimentError(f"sweep parameter 'pairs' needs [K, N] "
                                      f"pairs, got {pair!r}")
            K, N = pair
            ctl.check_path_guard(ctl.tree_branching(N, collapse), K)
    if kind == "laplacian-check":
        check_gue_laplacian_guard(params["d"], max(params["n_list"]))
    return params


def experiment_csv(kind, params, stream):
    """Run one experiment in-process; returns (headers, rows, checks)."""
    return EXPERIMENT_KINDS[kind](experiment_params(kind, params), stream)


# ---------------------------------------------------------------------------
# config runner with manifest
# ---------------------------------------------------------------------------


def run_config(config, out_dir, seed=None, threads=1):
    """Execute all experiments in a config; resumable via the manifest.

    Every experiment's kind and parameters are checked before any runs.  The
    experiments the manifest does not skip run side by side on ``threads``
    workers (``parallel_map``), each on its stream
    ``RngStream(seed).child("experiment", index)``.  The calling thread then
    writes their outputs in config order, then the manifest once: on an ext4
    root a rename over an existing file stalled for up to 72 ms, and a
    manifest write per experiment cost a benchmark ``diagnostics`` pass up
    to 0.32 s.  At the first experiment that raised it writes the manifest
    with the entries before it, if this run wrote an output, and re-raises,
    so outputs, manifest and exit code are those of a serial run.  A run
    killed during the writes leaves the previous manifest, and a resume
    reruns those experiments.  An experiment after a failed one is not
    started.  A resume that runs nothing rewrites neither the manifest nor
    a ``summary.json`` that already holds its summary.

    The manifest is keyed by the config, the seed, the package version and
    a digest of the package sources, so a resume after a code change reruns.
    A manifest that does not parse to a JSON object with an ``experiments``
    object counts as none: the run starts fresh and overwrites it.  Only an
    entry object marked done, with checks, whose artifacts all exist is
    skipped.  Outputs are replaced atomically, never left half-written.
    """
    if not (isinstance(config, dict)
            and isinstance(config.get("experiments", None), list)
            and all(isinstance(exp, dict) for exp in config["experiments"])):
        raise ExperimentError("config must be an object with an 'experiments' "
                              "list of objects")
    if not _conforms(threads, 0) or threads < 1:
        raise ExperimentError(f"threads must be an integer of at least 1, "
                              f"got {threads!r}")
    seed = config.get("seed", 0) if seed is None else seed
    if not _conforms(seed, 0):
        raise ExperimentError(f"seed must be an integer, got {seed!r}")
    experiments = config["experiments"]
    params = [experiment_params(exp.get("kind"), exp) for exp in experiments]
    os.makedirs(out_dir, exist_ok=True)
    digest = config_hash({"experiments": experiments, "seed": seed,
                          "version": __version__, "sources": _source_digest()})
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = {"config_hash": digest, "seed": seed, "experiments": {}}
    old = _load_json(manifest_path)
    if (isinstance(old, dict) and old.get("config_hash") == digest
            and isinstance(old.get("experiments"), dict)):
        manifest = old

    keys = [f"{idx:02d}_{exp['kind']}" for idx, exp in enumerate(experiments)]
    pending = []
    for idx, key in enumerate(keys):
        entry = manifest["experiments"].get(key)
        if not (isinstance(entry, dict) and entry.get("status") == "done"
                and "checks" in entry and isinstance(entry.get("artifacts"), list)
                and all(os.path.isfile(os.path.join(out_dir, str(name)))
                        for name in entry["artifacts"])):
            pending.append(idx)

    master = RngStream(int(seed))
    failed = []  # indices of the experiments that raised

    def job(idx):
        if failed and min(failed) < idx:
            return None  # never read: the earlier failure is raised first
        started = time.time()
        try:
            outcome = EXPERIMENT_KINDS[experiments[idx]["kind"]](
                params[idx], master.child("experiment", idx))
        except Exception as exc:  # raised below, in config order
            failed.append(idx)
            outcome = exc
        return started, time.time(), outcome

    results = dict(zip(pending, parallel_map(job, pending, threads)))
    summary = {}
    for idx, key in enumerate(keys):
        if idx in results:
            started, finished, outcome = results[idx]
            if isinstance(outcome, Exception):
                if idx > pending[0]:  # this run wrote outputs before it
                    _write_json(manifest_path, manifest)
                raise outcome
            headers, rows, checks = outcome
            csv_path = os.path.join(out_dir, f"{key}.csv")
            write_csv(csv_path, headers, rows)
            manifest["experiments"][key] = {
                "kind": experiments[idx]["kind"], "status": "done",
                "artifacts": [os.path.basename(csv_path)], "started": started,
                "finished": finished, "checks": checks,
            }
        summary[key] = manifest["experiments"][key]["checks"]

    summary_path = os.path.join(out_dir, "summary.json")
    if results or manifest is not old:
        _write_json(manifest_path, manifest)
    if results or _load_json(summary_path) != summary:
        _write_json(summary_path, summary)
    return summary


def run(config_path, out_dir=None, seed=None, threads=1):
    """CLI entry: exit 0 ok, 1 config error, 2 numerical failure, 3 I/O."""
    def go():
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ExperimentError("config must be a JSON object")
        out = out_dir or os.environ.get("NCLAB_OUT_DIR") or config.get("out_dir")
        if not out:
            raise ExperimentError("no output directory")
        if not isinstance(out, str):
            raise ExperimentError(f"out_dir must be a string, got {out!r}")
        run_config(config, out, seed=seed, threads=threads)
        return EXIT_OK

    return exit_code(go)


def exit_code(call, config_errors=(ExperimentError, ValueError)):
    """``call()``'s exit code, or for the failure it raises 2 numerical, 1 one
    of ``config_errors``, 3 I/O, with a one-line message; others propagate."""
    try:
        return call()
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError: caught first, it is not a config error
        print(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except config_errors as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O failure: {exc}")
        return EXIT_IO
