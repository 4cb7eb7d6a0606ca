import importlib
import pkgutil

import nclab


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
