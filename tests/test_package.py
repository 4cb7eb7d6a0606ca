import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np

import nclab
from nclab import control, harness, matrixcore


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


def test_benchmark_tracer_installs_and_removes(tmp_path, monkeypatch):
    """The benchmark's tracer wraps nclab names from outside; installing it
    fails as soon as one of those names is gone."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        tracer_module = importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)
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
