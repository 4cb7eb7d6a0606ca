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


# The public names outside ``control`` that no code in ``src`` calls, each
# with the paper claim its tests check.  The three ``nclaw`` helpers beside
# ``semicircle_arctan_law`` are called from ``src``; they are listed because
# they exist for the same claim.
TEST_ONLY_CLAIMS = {
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


def _identifiers(node):
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_caller_or_a_claim():
    """Every public function, class and method outside ``control`` is
    named (as a variable or an attribute) somewhere in ``src`` outside its
    own body, or is listed with its paper claim in ``TEST_ONLY_CLAIMS``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(nclab.__file__).parent.glob("*.py")}
    uses = sum((_identifiers(tree) for tree in trees.values()),
               collections.Counter())
    public, uncalled = set(), set()
    for module, tree in trees.items():
        if module == "control":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
            for name, defn in members:
                if any(part.startswith("_") for part in name.split(".")):
                    continue
                public.add(f"{module}.{name}")
                leaf = defn.name
                if uses[leaf] - _identifiers(defn)[leaf] == 0:
                    uncalled.add(f"{module}.{name}")
    assert set(TEST_ONLY_CLAIMS) <= public
    assert uncalled - set(TEST_ONLY_CLAIMS) == set()


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
    policy = control.zero_policy(problem, K=2, N=1, R=8.0)
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
