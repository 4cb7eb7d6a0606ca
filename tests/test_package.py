import ast
import collections
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest

import nclab
from nclab import control, harness, matrixcore
from nclab.randmat import RngStream


def test_every_name_in_all_resolves():
    missing, checked = {}, set()
    for info in pkgutil.iter_modules(nclab.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"nclab.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        checked.add(info.name)
        absent = [name for name in module.__all__ if not hasattr(module, name)]
        if absent:
            missing[info.name] = absent
    assert {"control", "harness", "laplacian", "ncpoly"} <= checked
    assert missing == {}


# The public names that no code in ``src`` calls, each with the paper claim
# its tests check.  The three ``nclaw`` helpers beside
# ``semicircle_arctan_law`` are called from ``src``; they are listed because
# they exist for the same claim.
TEST_ONLY_CLAIMS = {
    "control.DiscretePolicy.prefix_index":
        "the bin tree: the node of a bin prefix (j_1..j_i) at step i",
    "control.discrete_cost":
        "the discretized cost, exact over bin paths and Monte Carlo over "
        "the GUE, bounded below by the dynamic-programming optimum",
    "control.policy_control_budget":
        "the a-priori energy bound, sum_i sum_J P(O_{i,J}) "
        "E ||alpha_{i,J}||^2 delta",
    "control.lq_reference_ode":
        "the LQ Riccati value re-derived from the Riccati ODE",
    "control.euler_maruyama":
        "the discretization step: fine paths of the continuous dynamics",
    "control.rate_function_candidate":
        "the Laplace principle, the rate function as a supremum over tests",
    "gaussdisc.bin_of":
        "the discretization step: the bin of a coarse increment, which "
        "the tests' conditional-mean coarsening onto the bin tree reads",
    "laplacian.CylindricalFunction.hessian_bilinear":
        "the generator with common noise, "
        "1/2 beta_C^2 Hess U[1, 1] + 1/2 beta_F^2 Delta_GUE U",
    "matrixcore.l1_norm":
        "the truncation lemma, ||phi_R(A) - A||_1 <= ||A||_2^2 / R",
    "matrixcore.scalar_function_derivative":
        "the Daleckii-Krein reference for the clip and arctan pullbacks",
    "nclaw.NCLaw": "the target law of the Laplace principle",
    "nclaw.semicircle_arctan_law": "the target law of the Laplace principle",
    "nclaw.semicircle_arctan_moment": "the target law of the Laplace principle",
    "nclaw.adaptive_simpson": "the target law of the Laplace principle",
    "ncpoly.NCPolynomial.star":
        "self-adjoint inners: the reference for symmetrize and is_selfadjoint",
}

SRC = Path(nclab.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _identifiers(node, attributes_only=False):
    return collections.Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        or (isinstance(n, ast.Name) and not attributes_only))


def test_every_public_name_has_a_caller_or_a_claim():
    """Every public function and class is named (as a variable or an
    attribute) somewhere in ``src`` outside its own body, and every public
    method is an attribute there, or the name is listed with its paper
    claim in ``TEST_ONLY_CLAIMS``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    uses = {flag: sum((_identifiers(tree, flag) for tree in trees.values()),
                      collections.Counter()) for flag in (False, True)}
    public, uncalled = set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node, False)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{sub.name}", sub, True)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
            for name, defn, method in members:
                if any(part.startswith("_") for part in name.split(".")):
                    continue
                public.add(f"{module}.{name}")
                leaf = defn.name
                if uses[method][leaf] - _identifiers(defn, method)[leaf] == 0:
                    uncalled.add(f"{module}.{name}")
    assert set(TEST_ONLY_CLAIMS) <= public
    assert uncalled - set(TEST_ONLY_CLAIMS) == set()


# Defaulted parameters that program calls all set or all leave out, kept
# on purpose, each with its reason.
KEPT_DEFAULTS = {
    "acceptance.run_acceptance(only)": "entry point of nclab acceptance",
    "cli.main(argv)": "entry point: the console script reads sys.argv",
    "harness.run_config(threads)": "entry point of a config run",
    "control.lq_discrete_oracle(x0_norm_sq)":
        "the reference the Boue-Dupuis and DP oracle tests compare against",
    "control.lq_discrete_oracle(terminal_coef)":
        "the reference the Boue-Dupuis and DP oracle tests compare against",
    "control.lq_discrete_oracle(peek_bin)":
        "the reference the Boue-Dupuis and DP oracle tests compare against",
    "control.lq_discrete_oracle(peek_gue)":
        "the reference the Boue-Dupuis and DP oracle tests compare against",
    "gaussdisc.bridge_bound_check(n)":
        "the matrix case of the bridge bound, which its tests check",
    "laplacian.MultiPoly.__init__(terms)":
        "constructor: no terms is the zero polynomial",
    "ncpoly.TensorPolynomial.__init__(terms)":
        "constructor: no terms is the zero tensor",
}


def _defaulted(tree, module):
    """(name, call name, positional parameters, defaulted parameters) of
    each function and method of a module with a default.  A method's
    positional parameters start after ``self`` or ``cls``; ``__init__`` is
    called by its class's name.  A nested function's defaults that bind a
    name of the enclosing scope (``n=n``) are left out."""
    found = []

    def visit(body, prefix, in_class, nested):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True, nested)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if in_class:
                    positional = positional[1:]  # self or cls
                pairs = list(zip(positional[len(positional) - len(args.defaults):],
                                 args.defaults))
                pairs += [(a.arg, d) for a, d in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                          if d is not None]
                defaulted = {name for name, value in pairs
                             if not (nested and isinstance(value, ast.Name))}
                call = (prefix[:-1].rsplit(".", 1)[-1]
                        if node.name == "__init__" else node.name)
                if defaulted:
                    found.append((f"{module}.{prefix}{node.name}", call,
                                  positional, defaulted))
                visit(node.body, f"{prefix}{node.name}.", False, True)

    visit(tree.body, "", False, False)
    return found


def test_every_default_is_set_and_relied_on_by_a_program():
    """Every defaulted parameter of a function that ``src`` or
    ``perfbench`` calls is set by one of those calls and left out by
    another: a default every call overrides is a required parameter, and
    one that no call overrides is a constant.  Calls are matched by name (a
    class call counts for its ``__init__``; ``*args`` and ``**kwargs`` set
    every parameter), so a name two functions share can only hide a
    finding.  ``KEPT_DEFAULTS`` lists the exceptions, and each must still
    be one."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in (SRC, PERFBENCH) for path in sorted(root.glob("*.py"))}
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", None)
                      or getattr(func, "attr", None)].append(node)
    flagged = set()
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for name, call, positional, defaulted in _defaulted(tree, path.stem):
            set_by, left_by = set(), set()
            for node in calls[call]:
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    given = defaulted
                else:
                    given = (set(positional[:len(node.args)])
                             | {k.arg for k in node.keywords})
                set_by |= defaulted & given
                left_by |= defaulted - given
            if calls[call]:
                flagged |= {f"{name}({p})"
                            for p in defaulted - (set_by & left_by)}
    assert sorted(flagged - set(KEPT_DEFAULTS)) == []
    assert sorted(set(KEPT_DEFAULTS) - flagged) == []


def test_runtime_import_loads_no_scipy():
    """scipy is a test dependency only; a fresh interpreter that imports
    the CLI and the acceptance suite must not load it."""
    src = str(Path(nclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys, nclab.cli, nclab.acceptance; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def import_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)


def test_benchmark_tracer_installs_and_removes(tmp_path, monkeypatch):
    """The benchmark's tracer wraps nclab names from outside; installing it
    fails as soon as one of those names is gone."""
    tracer_module = import_tracer(monkeypatch)
    before = (np.linalg.eigh, control._clip_batch, control.apply_scalar_function)
    tracer = tracer_module.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert control._clip_batch is not before[1]
    finally:
        tracer.remove()
    assert (np.linalg.eigh, control._clip_batch, control.apply_scalar_function) == before
    assert control.apply_scalar_function is matrixcore.apply_scalar_function
    assert not hasattr(harness, "open")


@pytest.mark.parametrize("template", ["lq", "quartic"])
def test_benchmark_tracer_reads_both_engine_paths(tmp_path, monkeypatch, template):
    """The tracer's counters accept what ``_forward`` returns on the
    coefficient path (LQ: no states) and on the state path (quartic)."""
    tracer_module = import_tracer(monkeypatch)
    make = harness.lq_problem if template == "lq" else harness.quartic_problem
    problem = make(3, beta_c=0.5)
    policy = control.zero_policy(problem, 2, 1, 8.0, 1, True)
    batch = control._prepare_batch(problem, policy, RngStream(3), "t", range(6))
    originals = (control._forward, control._chunk_cost, control._chunk_gradients)
    monkeypatch.setattr(control, "CHUNK", 4)  # the state path sweeps 2 slices
    tracer = tracer_module.Tracer(str(tmp_path))
    tracer.install()
    try:
        with tracer.span("root"):
            control._evaluate_prepared(problem, policy, batch, want_grads=True)
    finally:
        tracer.remove()
    assert (control._forward, control._chunk_cost, control._chunk_gradients) == originals
    m = tracer_module.pass_metrics(tracer)
    assert m["control.evaluate.calls"] == 1.0
    if template == "lq":
        assert m["control.tree_nodes"] == 0.0
        assert m["ncpoly.evaluate_trace.calls"] == m["laplacian.eval.calls"] == 0.0
    else:
        assert m["control.tree_nodes"] == 6 * 4 ** 2
        assert m["ncpoly.evaluate_trace.calls"] > 0.0


def test_benchmark_tracer_attributes_the_experiment_pool(tmp_path, monkeypatch):
    """The experiments of a run_config run inside one traced pool region,
    and the work done in its worker threads still reaches the counters."""
    tracer_module = import_tracer(monkeypatch)
    cases = 3
    config = {"seed": 2, "experiments": [
        {"kind": "spectrum", "n_list": [16], "samples": 3},
        {"kind": "laplacian-check", "cases": cases, "n_list": [3], "d": 2}]}
    tracer = tracer_module.Tracer(str(tmp_path))
    tracer.install()
    try:
        with tracer.span("pass"):
            harness.run_config(config, str(tmp_path / "out"), threads=2)
    finally:
        tracer.remove()
    m = tracer_module.pass_metrics(tracer)
    assert m["harness.parallel_map.wall_s"] > 0.0
    assert m["harness.parallel_map.busy_ratio"] > 0.0
    assert m["trace.unattributed_s"] >= 0.0
    assert m["laplacian.gue_laplacian.calls"] == cases
