import contextlib
import csv
import dataclasses
import importlib
import io
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from nclab import harness
from nclab.cli import main
from nclab.control import OptimizerConfig
from nclab.laplacian import CylindricalFunction, random_cylindrical
from nclab.matrixcore import NumericalError, basis_element
from nclab.randmat import RngStream, sample_gue_tuple


def tiny_config(seed=7):
    return {
        "seed": seed,
        "experiments": [
            {"kind": "spectrum", "n_list": [32], "samples": 6},
            {"kind": "gaussdisc-check", "N_list": [1, 2],
             "delta_list": [1.0, 0.25]},
        ],
    }


def test_run_config_writes_csv_and_summary(tmp_path):
    out = tmp_path / "res"
    summary = harness.run_config(tiny_config(), str(out))
    files = sorted(os.listdir(out))
    assert "00_spectrum.csv" in files
    assert "01_gaussdisc-check.csv" in files
    assert "manifest.json" in files and "summary.json" in files
    header = (out / "00_spectrum.csv").read_text().splitlines()[0]
    assert header == "n,sample,m2,m4,m6,m8,opnorm"
    assert "00_spectrum" in summary
    assert summary["01_gaussdisc-check"]["probs_sum_to_one"]["pass"]


def test_resume_skips_completed(tmp_path):
    out = tmp_path / "res"
    harness.run_config(tiny_config(), str(out))
    stamp = (out / "00_spectrum.csv").stat().st_mtime_ns
    harness.run_config(tiny_config(), str(out))
    assert (out / "00_spectrum.csv").stat().st_mtime_ns == stamp  # untouched


def test_resume_rewrites_missing_artifact(tmp_path):
    out = tmp_path / "res"
    harness.run_config(tiny_config(), str(out))
    before = (out / "00_spectrum.csv").read_bytes()
    (out / "00_spectrum.csv").unlink()
    harness.run_config(tiny_config(), str(out))
    assert (out / "00_spectrum.csv").read_bytes() == before


def test_resume_reruns_non_object_entry(tmp_path):
    out = tmp_path / "res"
    harness.run_config(tiny_config(), str(out))
    fresh = csv_outputs(out)
    doc = json.loads((out / "manifest.json").read_text())
    doc["experiments"]["01_gaussdisc-check"] = 5
    (out / "manifest.json").write_text(json.dumps(doc))
    os.utime(out / "01_gaussdisc-check.csv", ns=(0, 0))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert harness.run(str(cfg_path), out_dir=str(out)) == harness.EXIT_OK
    assert (out / "01_gaussdisc-check.csv").stat().st_mtime_ns != 0
    assert csv_outputs(out) == fresh
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["experiments"]["01_gaussdisc-check"]["status"] == "done"


def test_resume_after_a_killed_run_matches_an_uninterrupted_one(tmp_path):
    """What a SIGKILL during the second experiment's CSV write leaves: the
    manifest lists only the first as done, the CSV's ``.tmp`` is stale, a
    truncated CSV sits under its final name and no summary was written."""
    config = {"seed": 5, "experiments": [
        {"kind": "gaussdisc-check", "N_list": [1, 2], "delta_list": [0.25]},
        {"kind": "laplacian-check", "cases": 2, "n_list": [3], "d": 1}]}
    whole, out = tmp_path / "whole", tmp_path / "out"
    harness.run_config(config, str(whole))
    harness.run_config(config, str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["experiments"]["01_laplacian-check"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    full = (out / "01_laplacian-check.csv").read_bytes()
    (out / "01_laplacian-check.csv").write_bytes(full[:len(full) // 2])
    (out / "01_laplacian-check.csv.tmp").write_bytes(full[:7])
    (out / "summary.json").unlink()
    harness.run_config(config, str(out))
    assert csv_outputs(out) == csv_outputs(whole)
    assert (out / "summary.json").read_bytes() == (whole / "summary.json").read_bytes()
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_manifest_write_rejects_non_json_values(tmp_path):
    # a numpy bool stored as the string "False" would read as truthy on resume
    path = tmp_path / "manifest.json"
    with pytest.raises(TypeError):
        harness._write_json(str(path), {"checks": {"pass": np.bool_(False)}})
    assert not path.exists()


def test_changed_config_invalidates_manifest(tmp_path):
    out = tmp_path / "res"
    harness.run_config(tiny_config(seed=7), str(out))
    stamp = (out / "00_spectrum.csv").stat().st_mtime_ns
    harness.run_config(tiny_config(seed=8), str(out))
    assert (out / "00_spectrum.csv").stat().st_mtime_ns != stamp


def test_thread_count_does_not_change_output(tmp_path):
    outs = {}
    config = {
        "seed": 3,
        "experiments": [
            {"kind": "spectrum", "n_list": [16], "samples": 8},
            {"kind": "freeness", "n_list": [8, 16], "samples": 10},
            {"kind": "truncation-check", "instances": 10, "R": 3.0},
            {"kind": "laplacian-check", "cases": 4, "n_list": [3, 4], "d": 2},
        ],
    }
    for threads in (1, 2, 4):
        sub = tmp_path / f"t{threads}"
        harness.run_config(config, str(sub), threads=threads)
        manifest = json.loads((sub / "manifest.json").read_text())
        for entry in manifest["experiments"].values():
            del entry["started"], entry["finished"]
        outs[threads] = (csv_outputs(sub), (sub / "summary.json").read_bytes(),
                         manifest)
    assert outs[1] == outs[2] == outs[4]


def test_experiments_run_side_by_side(tmp_path, monkeypatch):
    # serially the first experiment waits alone at the barrier and breaks it
    barrier = threading.Barrier(2, timeout=10)

    def meet(params, stream):
        barrier.wait()
        return ["met"], [[1]], {"met": {"pass": True}}

    for kind in ("meet-a", "meet-b"):
        monkeypatch.setitem(harness.EXPERIMENT_KINDS, kind, meet)
        monkeypatch.setitem(harness.EXPERIMENT_PARAMS, kind, {})
    config = {"experiments": [{"kind": "meet-a"}, {"kind": "meet-b"}]}
    summary = harness.run_config(config, str(tmp_path / "o"), threads=2)
    assert sorted(summary) == ["00_meet-a", "01_meet-b"]


def test_failed_experiment_keeps_earlier_entries_and_resumes(tmp_path,
                                                             monkeypatch):
    config = tiny_config()
    config["experiments"].insert(
        1, {"kind": "truncation-check", "instances": 3, "R": 3.0})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    whole, out = tmp_path / "whole", tmp_path / "out"
    assert harness.run(str(path), out_dir=str(whole), threads=2) == harness.EXIT_OK

    def diverge(params, stream):
        raise NumericalError("diverged")

    with monkeypatch.context() as patch:
        patch.setitem(harness.EXPERIMENT_KINDS, "truncation-check", diverge)
        assert harness.run(str(path), out_dir=str(out),
                           threads=2) == harness.EXIT_NUMERICAL
    assert sorted(os.listdir(out)) == ["00_spectrum.csv", "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["experiments"]) == ["00_spectrum"]
    stamp = (out / "00_spectrum.csv").stat().st_mtime_ns
    assert harness.run(str(path), out_dir=str(out), threads=2) == harness.EXIT_OK
    assert (out / "00_spectrum.csv").stat().st_mtime_ns == stamp
    assert csv_outputs(out) == csv_outputs(whole)
    assert (out / "summary.json").read_bytes() == (whole / "summary.json").read_bytes()


@pytest.fixture
def renames(monkeypatch):
    """(name, existed) of each path ``harness`` renames a file onto."""
    done = []
    replace = os.replace

    def record(src, dst):
        done.append((os.path.basename(dst), os.path.exists(dst)))
        replace(src, dst)

    monkeypatch.setattr(harness.os, "replace", record)
    return done


@pytest.mark.parametrize("threads", [1, 2])
def test_fresh_run_renames_each_output_once_onto_a_new_path(tmp_path, renames,
                                                             threads):
    out = tmp_path / "o"
    harness.run_config(tiny_config(), str(out), threads=threads)
    assert sorted(name for name, _ in renames) == sorted(os.listdir(out))
    assert not any(existed for _, existed in renames)


def test_resume_renames_manifest_and_summary_once(tmp_path, renames):
    out = tmp_path / "o"
    harness.run_config(tiny_config(), str(out))
    (out / "00_spectrum.csv").unlink()
    renames.clear()
    harness.run_config(tiny_config(), str(out))
    assert sorted(renames) == [("00_spectrum.csv", False),
                               ("manifest.json", True), ("summary.json", True)]


def test_rerun_of_a_finished_config_renames_nothing(tmp_path, renames):
    out = tmp_path / "o"
    harness.run_config(tiny_config(), str(out))
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    renames.clear()
    harness.run_config(tiny_config(), str(out))
    assert renames == []
    (out / "summary.json").unlink()
    harness.run_config(tiny_config(), str(out))
    assert renames == [("summary.json", False)]
    assert {name: (out / name).read_bytes()
            for name in os.listdir(out)} == before


@pytest.mark.parametrize("failing,written", [
    ("spectrum", []),
    ("gaussdisc-check", [("00_spectrum.csv", False), ("manifest.json", False)]),
])
def test_failed_run_writes_the_manifest_only_after_an_output(
        tmp_path, monkeypatch, renames, failing, written):
    def diverge(params, stream):
        raise NumericalError("diverged")

    monkeypatch.setitem(harness.EXPERIMENT_KINDS, failing, diverge)
    out = tmp_path / "o"
    with pytest.raises(NumericalError):
        harness.run_config(tiny_config(), str(out), threads=2)
    assert renames == written
    assert sorted(os.listdir(out)) == [name for name, _ in written]


def test_first_failure_in_config_order_is_raised(tmp_path, monkeypatch):
    # with more workers than cores and a short switch interval, the lowest
    # failed index wins however the failures interleave, and nothing after
    # it is written
    failing = {11, 17, 23}
    ran = []

    def stub(params, stream):
        idx = stream.stream_path[-1]
        ran.append(idx)
        time.sleep(0.001 * (idx % 4))
        if idx in failing:
            raise NumericalError(f"experiment {idx}")
        return ["idx"], [[idx]], {}

    monkeypatch.setitem(harness.EXPERIMENT_KINDS, "stub", stub)
    monkeypatch.setitem(harness.EXPERIMENT_PARAMS, "stub", {})
    config = {"experiments": [{"kind": "stub"}] * 30}
    with pytest.raises(NumericalError, match="experiment 11"):
        harness.run_config(config, str(tmp_path / "serial"))
    assert ran == list(range(12))  # a serial run stops at the failure
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rep in range(5):
            out = tmp_path / f"o{rep}"
            with pytest.raises(NumericalError, match="experiment 11"):
                harness.run_config(config, str(out), threads=8)
            manifest = json.loads((out / "manifest.json").read_text())
            assert list(manifest["experiments"]) == [f"{i:02d}_stub"
                                                     for i in range(11)]
            assert len(list(out.glob("*.csv"))) == 11
    finally:
        sys.setswitchinterval(interval)


def test_unknown_kind_rejected(tmp_path):
    # a missing or unhashable kind is a config error too, not a TypeError
    for exp in ({"kind": "nope"}, {}, {"kind": ["spectrum"]}):
        config = {"seed": 1, "experiments": [exp]}
        with pytest.raises(harness.ExperimentError):
            harness.run_config(config, str(tmp_path / "x"))


def inline_problem(**fields):
    """``lq_problem(2)`` (d = 1, n = 2) as an inline problem, with
    ``fields`` replaced."""
    return {**json.loads(harness.lq_problem(2).to_json()), **fields}


def inline_problem_without_outer():
    problem = inline_problem()
    problem["cost"]["terminal"]["outer"] = None
    return problem


def inline_problem_with(part, **keys):
    """``inline_problem()`` with ``keys`` added to its ``cost`` or to the
    cost's ``terminal``."""
    problem = inline_problem()
    cost = problem["cost"]
    (cost if part == "cost" else cost["terminal"]).update(keys)
    return problem


def test_inline_problem_runs_at_its_own_n():
    """An inline problem's experiments may ask for its own n, once or more."""
    problem = inline_problem()
    harness.experiment_params("value", {"template": "json", "problem": problem,
                                        "n_list": [2, 2]})
    harness.experiment_params("sweep", {"template": "json", "problem": problem,
                                        "n": 2, "pairs": [[2, 4]]})


# each breaks the last experiment only: a typo, an opt count below its
# least on each template, an unknown problem template, an unknown
# optimizer option, an inline problem whose terminal has no outer, sizes
# beyond the bin-path and GUE-Laplacian guards, an inline problem whose x0
# is not Hermitian, 2-D, of the wrong d or not numbers, or whose n is not
# an integer, sweep pairs that are not [K, N], a ragged inline x0, a float
# at or below its bound, value sample counts in opt, sizes other than an
# inline problem's n, and a misspelled key of an inline problem, its cost
# or its terminal
@pytest.mark.parametrize("last,message", [
    ({"kind": "spectrum", "sampels": 2}, "unknown spectrum parameters"),
    ({"kind": "value", "template": "quartic", "opt": {"degree": -1}},
     "opt.degree must be at least 0"),
    ({"kind": "value", "template": "lq", "opt": {"val_samples": 1}},
     "opt.val_samples must be at least 2"),
    ({"kind": "sweep", "template": "quadratic"}, "unknown problem template"),
    ({"kind": "value", "template": "lq", "opt": {"node_kind": "const"}},
     "unknown optimizer options ['node_kind']"),
    ({"kind": "sweep", "opt": {"train_samples": 1, "val_samples": 1}},
     "opt.train_samples must be at least 2"),
    ({"kind": "ldp", "opt": {"time_steps": 4}},
     "unknown optimizer options ['time_steps']"),
    ({"kind": "value", "template": "json",
      "problem": inline_problem_without_outer()},
     "invalid inline problem: AttributeError"),
    ({"kind": "value", "K": 8, "N": 8, "n_list": [2], "train_samples": 2,
      "val_samples": 2, "opt": {"max_iters": 0}},
     "bin-path count 18^8 exceeds the 1000000 guard"),
    ({"kind": "sweep", "pairs": [[2, 4], [6, 16]]},
     "bin-path count 34^6 exceeds the 1000000 guard"),
    ({"kind": "laplacian-check", "cases": 1, "n_list": [3, 64], "d": 2},
     "d*n^2 = 8192 exceeds guard 4096"),
    ({"kind": "value", "template": "json",
      "problem": inline_problem(x0_re=[[[0.0, 1.0], [0.0, 0.0]]])},
     "x0: matrix is not Hermitian: asymmetry 1.000e+00"),
    ({"kind": "value", "template": "json",
      "problem": inline_problem(x0_re=[[0.0, 0.0], [0.0, 0.0]],
                                x0_im=[[0.0, 0.0], [0.0, 0.0]])},
     "x0 has shape (2, 2), expected (d, n, n) = (1, 2, 2)"),
    ({"kind": "sweep", "template": "json", "problem": inline_problem(d=2)},
     "x0 has shape (1, 2, 2), expected (d, n, n) = (2, 2, 2)"),
    ({"kind": "value", "template": "json",
      "problem": inline_problem(x0_im=[[["0", 0.0], [0.0, 0.0]]])},
     "x0_re and x0_im must be number arrays of one shape"),
    ({"kind": "value", "template": "json", "problem": inline_problem(n=2.0)},
     "n must be an integer >= 1, got 2.0"),
    ({"kind": "sweep", "pairs": [[2, 4, 1]]},
     "sweep parameter 'pairs' needs [K, N] pairs, got [2, 4, 1]"),
    ({"kind": "sweep", "pairs": [[2, 4], [2]]},
     "sweep parameter 'pairs' needs [K, N] pairs, got [2]"),
    ({"kind": "value", "template": "json",
      "problem": inline_problem(x0_re=[[[0.0, 0.0], [0.0]]])},
     "x0_re and x0_im must be number arrays of one shape"),
    ({"kind": "truncation-check", "instances": 2, "R": -1.0},
     "truncation-check parameter 'R' must be above 0.0, got -1.0"),
    ({"kind": "value", "R": 0}, "value parameter 'R' must be above 0.0"),
    ({"kind": "sweep", "R": 0.0}, "sweep parameter 'R' must be above 0.0"),
    ({"kind": "gaussdisc-check", "delta_list": [0.25, 0.0]},
     "gaussdisc-check parameter 'delta_list' must be above 0.0, got [0.25, 0.0]"),
    ({"kind": "laplacian-check", "fd_step": 0.0},
     "laplacian-check parameter 'fd_step' must be above 0.0"),
    ({"kind": "ldp", "coef": -1.0}, "ldp parameter 'coef' must be above -0.5"),
    ({"kind": "ldp", "coef": -0.5}, "ldp parameter 'coef' must be above -0.5"),
    ({"kind": "value", "n_list": [4], "opt": {"train_samples": 500,
                                              "val_samples": 900}},
     "value parameter 'opt' sets ['train_samples', 'val_samples']: give the "
     "top-level 'train_samples' and 'val_samples'"),
    ({"kind": "value", "template": "json", "problem": inline_problem(),
      "n_list": [2, 4]},
     "value asks for n = [4], but its inline problem has n = 2"),
    ({"kind": "sweep", "template": "json", "problem": inline_problem()},
     "sweep asks for n = [8], but its inline problem has n = 2"),
    ({"kind": "value", "template": "json", "n_list": [2],
      "problem": inline_problem(beta_cc=0.5)},
     "unknown problem keys ['beta_cc']"),
    ({"kind": "sweep", "template": "json", "n": 2,
      "problem": inline_problem_with("cost", lip_constant=2.0)},
     "unknown cost keys ['lip_constant']"),
    ({"kind": "value", "template": "json", "n_list": [2],
      "problem": inline_problem_with("terminal", inner=["x1"])},
     "unknown cylindrical function keys ['inner']"),
])
def test_config_error_anywhere_writes_nothing(tmp_path, capsys, last, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiments": tiny_config()["experiments"]
                                + [last]}))
    out = tmp_path / "o"
    assert harness.run(str(path), out_dir=str(out), threads=2) == harness.EXIT_CONFIG
    printed = capsys.readouterr().out
    assert printed.startswith(f"config error: {message}")
    assert printed.count("\n") == 1
    assert not out.exists()


def test_guards_read_the_sizes_a_run_makes():
    """Without common noise the bin tree collapses to one path per step, so
    the path guard passes any K, N; the Laplacian guard is at its limit."""
    for template in ("lq", "quartic"):
        harness.experiment_params("value", {"K": 8, "N": 8, "beta_c": 0.0,
                                            "template": template})
    harness.experiment_params("sweep", {"pairs": [[8, 8]], "beta_c": 0.0})
    harness.experiment_params("laplacian-check", {"n_list": [32], "d": 4})
    with pytest.raises(ValueError, match="18.8 exceeds"):
        harness.experiment_params("value", {"K": 8, "N": 8})


@pytest.mark.parametrize("key,least", [("train_samples", 2),
                                       ("val_samples", 2), ("max_iters", 0),
                                       ("degree", 0)])
def test_optimizer_counts_range_checked(key, least):
    params = harness.experiment_params("ldp", {"opt": {key: least}})
    assert params["opt"] == {key: least}
    with pytest.raises(harness.ExperimentError, match=f"opt.{key} must be at "
                                                      f"least {least}"):
        harness.experiment_params("ldp", {"opt": {key: least - 1}})


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exit_config(tmp_path, capsys, threads):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_config()))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out-dir", str(out),
                 "--threads", threads]) == harness.EXIT_CONFIG
    assert capsys.readouterr().out.count("config error: threads must be") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--config", "c.json", "--threads", "two"],
    ["run", "--config", "c.json", "--bogus"],
    ["acceptance", "--out-dir", "a", "--threads", "2"],
    ["acceptance", "--out-dir", "a", "--only"],
], ids=["no_config", "threads_not_an_int", "unknown_flag",
        "acceptance_threads", "acceptance_only_without_numbers"])
def test_usage_errors_exit_config(tmp_path, monkeypatch, capsys, argv):
    """A usage error prints one line and exits 1, not argparse's 2, which
    is the code of a numerical failure; nothing is written."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == harness.EXIT_CONFIG
    out = capsys.readouterr()
    assert out.out.startswith("usage error: nclab") and out.out.count("\n") == 1
    assert out.err == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "acceptance"])
def test_help_exits_ok(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == harness.EXIT_OK
    assert ("--threads" in capsys.readouterr().out) == (command == "run")


def test_run_exit_codes(tmp_path):
    assert harness.run(str(tmp_path / "missing.json")) == harness.EXIT_IO
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert harness.run(str(bad)) == harness.EXIT_CONFIG
    no_out = tmp_path / "noout.json"
    no_out.write_text(json.dumps({"experiments": []}))
    assert harness.run(str(no_out)) == harness.EXIT_CONFIG
    no_out.write_text(json.dumps({"experiments": [], "out_dir": 5}))
    assert harness.run(str(no_out)) == harness.EXIT_CONFIG
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"experiments": [],
                                "out_dir": str(tmp_path / "o")}))
    assert harness.run(str(good)) == harness.EXIT_OK
    badkind = tmp_path / "badkind.json"
    badkind.write_text(json.dumps(
        {"experiments": [{"kind": "nope"}], "out_dir": str(tmp_path / "o2")}))
    assert harness.run(str(badkind)) == harness.EXIT_CONFIG


def test_lapack_failure_exits_numerical(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    config = tmp_path / "spectrum.json"
    config.write_text(json.dumps(
        {"experiments": [{"kind": "spectrum", "n_list": [8], "samples": 2}],
         "out_dir": str(tmp_path / "o")}))
    assert harness.run(str(config)) == harness.EXIT_NUMERICAL


def test_empty_experiment_list_gives_empty_manifest(tmp_path):
    out = tmp_path / "empty"
    summary = harness.run_config({"experiments": []}, str(out))
    assert summary == {}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiments"] == {}


def test_env_var_out_dir(tmp_path, monkeypatch):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    monkeypatch.setenv("NCLAB_OUT_DIR", str(tmp_path / "envout"))
    assert harness.run(str(cfg_path)) == harness.EXIT_OK
    assert (tmp_path / "envout" / "00_spectrum.csv").exists()


# Every experiment kind at a tiny size, for the JSON round trip.
ALL_KINDS_CONFIG = {"seed": 3, "experiments": [
    {"kind": "spectrum", "n_list": [8], "samples": 2},
    {"kind": "freeness", "n_list": [4, 8], "samples": 2},
    {"kind": "laplacian-check", "cases": 2, "n_list": [3], "d": 2},
    {"kind": "value", "K": 2, "N": 1, "n_list": [4], "train_samples": 4,
     "val_samples": 4, "opt": {"max_iters": 2}},
    {"kind": "sweep", "pairs": [[1, 1]], "n": 4,
     "opt": {"max_iters": 2, "train_samples": 4, "val_samples": 4}},
    {"kind": "ldp", "n": 4, "lhs_samples": 20, "time_steps": 2,
     "opt": {"max_iters": 2, "train_samples": 4, "val_samples": 4}},
    {"kind": "gaussdisc-check", "N_list": [1], "delta_list": [1.0]},
    {"kind": "truncation-check", "instances": 2},
]}


def test_cli_runs_every_kind(tmp_path):
    """``nclab run`` runs a config with every kind and writes one CSV of
    rows per experiment, its only artifact."""
    assert ({e["kind"] for e in ALL_KINDS_CONFIG["experiments"]}
            == set(harness.EXPERIMENT_KINDS))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(ALL_KINDS_CONFIG))
    out = tmp_path / "cli"
    code = main(["run", "--config", str(cfg_path), "--out-dir", str(out),
                 "--threads", "2"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for idx, exp in enumerate(ALL_KINDS_CONFIG["experiments"]):
        key = f"{idx:02d}_{exp['kind']}"
        assert manifest["experiments"][key]["artifacts"] == [f"{key}.csv"]
        with open(out / f"{key}.csv", encoding="utf-8", newline="") as fh:
            headers, *rows = list(csv.reader(fh))
        assert headers and rows
        assert all(len(row) == len(headers) for row in rows)


def test_value_experiment_smoke(tmp_path):
    params = {"kind": "value", "template": "lq", "K": 2, "N": 1, "R": 4.0,
              "n_list": [4], "train_samples": 8, "val_samples": 16,
              "opt": {"max_iters": 25}}
    headers, rows, checks = harness.experiment_csv(
        "value", params, RngStream(5))
    assert headers[0] == "K" and len(rows) == 1
    assert checks["below_zero_policy_n4"]["pass"]


def test_sweep_experiment_smoke():
    params = {"kind": "sweep", "template": "quartic", "beta_c": 0.0,
              "pairs": [[1, 1], [2, 2]], "R": 4.0, "n": 4,
              "opt": {"max_iters": 20, "train_samples": 8, "val_samples": 16}}
    headers, rows, checks = harness.experiment_csv(
        "sweep", params, RngStream(6))
    assert len(rows) == 2
    assert "successive_diffs" in checks


@pytest.mark.parametrize("kind,params,tags", [
    ("value", {"K": 2, "N": 1, "n_list": [4, 8], "opt": {}}, ["n4", "n8"]),
    ("sweep", {"pairs": [[1, 1], [2, 1]], "n": 4,
               "opt": {"train_samples": 2, "val_samples": 2}},
     ["K1_N1", "K2_N1"]),
])
def test_each_solve_keeps_its_own_iteration_log(tmp_path, kind, params, tags):
    """A two-solve experiment keeps both solves' iteration logs: each solve
    writes ``log_path`` with its size or (K, N) pair before the extension,
    one row per iteration it reports."""
    log = tmp_path / "iters.csv"
    params = {**params, "template": "lq", "R": 4.0}
    params["opt"] = {**params["opt"], "max_iters": 2, "log_path": str(log)}
    headers, rows, _ = harness.experiment_csv(kind, params, RngStream(8))
    assert sorted(os.listdir(tmp_path)) == sorted(f"iters_{t}.csv" for t in tags)
    iterations = ([dict(zip(headers, r))["iterations"] for r in rows]
                  if kind == "value" else [2, 2])
    for tag, count in zip(tags, iterations):
        lines = (tmp_path / f"iters_{tag}.csv").read_text().splitlines()
        assert lines[0] == "iter,batch_cost,step_size,max_grad_norm"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(
            range(1, count + 1))


def test_ldp_experiment_smoke():
    params = {"kind": "ldp", "n": 4, "coef": 0.5, "lhs_samples": 400,
              "time_steps": 4,
              "opt": {"max_iters": 60, "train_samples": 16, "val_samples": 64}}
    headers, rows, checks = harness.experiment_csv("ldp", params,
                                                   RngStream(7))
    assert rows[0][0] == "quadratic"
    assert checks["rhs_above_lhs"]["pass"]


def test_bad_optimizer_option_rejected():
    with pytest.raises(harness.ExperimentError):
        harness.experiment_csv(
            "value", {"template": "lq", "opt": {"bogus": 1}}, RngStream(8))


# The optimizer's descent constants, chunk, gate level, node kind and
# adaptedness are fixed by the engine; an ``ldp`` solve is strictly adapted
# whatever its config says, so a key asking otherwise must not pass silently.
@pytest.mark.parametrize("kind", ["value", "ldp"])
@pytest.mark.parametrize("key,value", [
    ("init_step", 0.5), ("min_step", 1e-7), ("momentum", 0.9),
    ("step_grow", 1.1), ("node_kind", "poly"), ("chunk", 16),
    ("gate_level", 3.0), ("include_current_increment", True)])
def test_fixed_optimizer_settings_exit_config(tmp_path, capsys, kind, key,
                                              value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiments": [{"kind": kind,
                                                 "opt": {key: value}}]}))
    out = tmp_path / "o"
    assert harness.run(str(path), out_dir=str(out)) == harness.EXIT_CONFIG
    assert capsys.readouterr().out.startswith(
        f"config error: unknown optimizer options ['{key}']")
    assert not out.exists()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_fd_laplacian_matches_per_shift_loop(d, n):
    gen = RngStream(4242, (d, n)).generator()
    h = 1e-3
    for _ in range(3):
        u = random_cylindrical(gen, d)
        x = sample_gue_tuple(n, d, gen, scale=0.8)
        base = u.eval(x)
        total = 0.0
        for l in range(d):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    shift = np.zeros((d, n, n), dtype=complex)
                    shift[l] = h * basis_element(n, i, j)
                    up = u.eval(x + shift)
                    dn = u.eval(x - shift)
                    total += (up - 2.0 * base + dn) / (h * h)
        assert harness._fd_laplacian(u, x, h, {}) == total / (n * n)


def test_laplacian_check_one_gue_laplacian_per_case(monkeypatch):
    calls = []
    original = CylindricalFunction.gue_laplacian

    def counted(self, x, cache=None):
        calls.append(x.shape[-1])
        return original(self, x, cache)

    monkeypatch.setattr(CylindricalFunction, "gue_laplacian", counted)
    params = {"cases": 5, "n_list": [2, 3], "d": 2}
    _, rows, checks = harness.experiment_csv("laplacian-check", params,
                                             RngStream(5))
    assert calls == [2, 3, 2, 3, 2]
    assert [r[0] for r in rows] == list(range(5))
    assert checks["identity_max_gap"]["pass"] and checks["fd_max_gap"]["pass"]


def test_gaussdisc_bound_violation_exits_numerical(tmp_path, monkeypatch):
    from nclab import gaussdisc

    # a Mills hazard of 10 puts every tail bin's conditional mean above 2
    monkeypatch.setattr(gaussdisc, "_hazard", lambda z: 10.0)
    gaussdisc.noise_table.cache_clear()
    config = tmp_path / "gd.json"
    config.write_text(json.dumps(
        {"experiments": [{"kind": "gaussdisc-check", "N_list": [1],
                          "delta_list": [1.0]}],
         "out_dir": str(tmp_path / "o")}))
    try:
        assert harness.run(str(config)) == harness.EXIT_NUMERICAL
    finally:
        gaussdisc.noise_table.cache_clear()


def csv_outputs(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))
            if name.endswith(".csv")}


@pytest.mark.parametrize("manifest", ["truncated", "garbage", "list",
                                      "experiments-list"])
def test_unreadable_manifest_counts_as_none(tmp_path, manifest):
    fresh = tmp_path / "fresh"
    harness.run_config(tiny_config(), str(fresh))
    digest = harness.config_hash({"experiments": tiny_config()["experiments"],
                                  "seed": 7})
    text = {"truncated": "{\"config_hash\": \"ab",
            "garbage": "\x00\xff garbage",
            "list": "[1, 2, 3]",
            "experiments-list": json.dumps({"config_hash": digest,
                                            "experiments": []})}[manifest]
    out = tmp_path / "res"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert harness.run(str(cfg_path), out_dir=str(out)) == harness.EXIT_OK
    assert csv_outputs(out) == csv_outputs(fresh)
    doc = json.loads((out / "manifest.json").read_text())
    assert sorted(doc["experiments"]) == ["00_spectrum", "01_gaussdisc-check"]


def test_failed_manifest_write_keeps_previous(tmp_path, monkeypatch):
    out = tmp_path / "res"
    harness.run_config(tiny_config(), str(out))
    before = (out / "manifest.json").read_bytes()

    def broken_dump(obj, fh, **kwargs):
        fh.write("{\"config_hash\": \"trunc")
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config(seed=8)))
    assert harness.run(str(cfg_path), out_dir=str(out)) == harness.EXIT_IO
    assert (out / "manifest.json").read_bytes() == before
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


@pytest.mark.parametrize("document", [[1, 2], "x", 3, {"experiments": [5]}])
def test_run_rejects_config_that_is_not_an_object(tmp_path, capsys, document):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(document))
    assert harness.run(str(path), out_dir=str(tmp_path / "o")) == harness.EXIT_CONFIG
    assert capsys.readouterr().out.startswith("config error: ")


# one misspelled key, one value of the wrong type and one out of range per
# kind: an empty list or a count below 1
BAD_PARAMS = {
    "spectrum": ({"sample": 5}, {"samples": "x"},
                 {"n_list": [8], "samples": 0}),
    "freeness": ({"n_lists": [8]}, {"samples": 2.5},
                 {"n_list": [], "samples": 2}),
    "laplacian-check": ({"case": 2}, {"d": "2"}, {"cases": 2, "n_list": [3, 0]}),
    "value": ({"n_lst": [4]}, {"K": 4.0}, {"K": 0}),
    "sweep": ({"pair": [[2, 4]]}, {"pairs": [[2, "4"]]}, {"pairs": [[2, 4], []]}),
    "ldp": ({"coeff": 0.5}, {"lhs_samples": True}, {"lhs_samples": -3}),
    "gaussdisc-check": ({"N_lst": [1]}, {"delta_list": ["x"]}, {"delta_list": []}),
    "truncation-check": ({"instance": 2}, {"R": "4"}, {"instances": 0}),
}
BAD_KINDS = ("misspelled", "wrong_type", "out_of_range")


@pytest.mark.parametrize("kind", sorted(harness.EXPERIMENT_KINDS))
@pytest.mark.parametrize("which", BAD_KINDS)
def test_bad_experiment_params_exit_config(tmp_path, capsys, kind, which):
    assert sorted(BAD_PARAMS) == sorted(harness.EXPERIMENT_KINDS)
    params = BAD_PARAMS[kind][BAD_KINDS.index(which)]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiments": [{"kind": kind, **params}]}))
    assert harness.run(str(path), out_dir=str(tmp_path / "o")) == harness.EXIT_CONFIG
    assert capsys.readouterr().out.startswith("config error: ")


@pytest.mark.parametrize("opt", [{"max_iters": "x"}, {"degree": "x"},
                                 {"log_path": 1}])
def test_bad_optimizer_value_rejected(opt):
    with pytest.raises(harness.ExperimentError, match="has the wrong type"):
        harness.experiment_csv("value", {"opt": opt}, RngStream(8))


def test_int_accepted_where_default_is_float(tmp_path):
    config = {"experiments": [{"kind": "truncation-check", "instances": 2,
                               "R": 4}]}
    summary = harness.run_config(config, str(tmp_path / "o"))
    assert summary["00_truncation-check"]["all_pass"]["pass"]


def test_documented_and_benchmark_params_accepted(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("### Config format")[1].split("```json")[1].split("```")[0]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.modules.pop("workloads", None)
    experiments = (json.loads(block)["experiments"]
                   + workloads.DIAGNOSTICS_EXPERIMENTS
                   + workloads.DIAGNOSTICS_WARM_UP)
    for exp in experiments:
        params = harness.experiment_params(exp["kind"], exp)
        assert set(params) == set(harness.EXPERIMENT_PARAMS[exp["kind"]])


def test_source_change_invalidates_manifest(tmp_path, monkeypatch):
    out = tmp_path / "res"
    harness.run_config(tiny_config(), str(out))
    runs = []
    spectrum = harness.EXPERIMENT_KINDS["spectrum"]

    def counted(*args):
        runs.append(1)
        return spectrum(*args)

    monkeypatch.setitem(harness.EXPERIMENT_KINDS, "spectrum", counted)
    harness.run_config(tiny_config(), str(out))
    assert runs == []
    monkeypatch.setattr(harness, "_source_digest", lambda: "0" * 64)
    harness.run_config(tiny_config(), str(out))
    assert runs == [1]


# Config documents for the fuzz below.  Every integer but the seed is at
# most 16: the whole config is validated before any experiment runs, and
# validation builds x0 (d n^2 complex entries) for the problem templates.
OPT_FIELDS = [f.name for f in dataclasses.fields(OptimizerConfig)]
CONFIG_KEYS = sorted({"kind", "seed", "experiments", *OPT_FIELDS,
                      *(key for table in harness.EXPERIMENT_PARAMS.values()
                        for key in table)})
JSON_KEYS = hst.sampled_from(CONFIG_KEYS) | hst.text(max_size=4)
JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.integers(-2, 16) | hst.floats()
    | hst.text(max_size=4)
    | hst.sampled_from([*harness.EXPERIMENT_KINDS, "lq", "quartic", "json",
                        "identity"]),
    lambda inner: hst.lists(inner, max_size=3)
    | hst.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=10)


def mostly(usual, other):
    """``usual`` unless a drawn digit is 0, then ``other``: most documents
    pass the first checks and reach the later ones."""
    return hst.integers(0, 9).flatmap(lambda k: usual if k else other)


# Matrix sizes are drawn far beyond memory: validation allocates nothing
# that grows with n.
SIZE_KEYS, SIZE_TOP = ("n", "n_list"), 2 ** 40


def shaped_like(default, top=16):
    """Values of the JSON type of a parameter's default, integers up to
    ``top``, and any value."""
    if default is None:
        return JSON_VALUES
    if isinstance(default, dict):  # ``opt``
        return mostly(hst.dictionaries(
            mostly(hst.sampled_from(OPT_FIELDS), JSON_KEYS),
            mostly(hst.integers(-2, 16), JSON_VALUES), max_size=3), JSON_VALUES)
    if isinstance(default, list):
        like = hst.lists(shaped_like(default[0], top), max_size=3)
    elif isinstance(default, bool):
        like = hst.booleans()
    elif isinstance(default, int):
        like = hst.integers(-2, top)
    elif isinstance(default, float):
        like = hst.floats() | hst.integers(-2, 16)
    else:
        like = hst.sampled_from(["lq", "quartic", "json", "identity"])
    return mostly(like, JSON_VALUES)


@hst.composite
def inline_problems(draw):
    """``lq_problem(2)`` as an inline problem with some of ``x0_re``,
    ``x0_im``, ``n`` and ``d`` swapped for drawn JSON values."""
    keys = draw(hst.lists(hst.sampled_from(["x0_re", "x0_im", "n", "d"]),
                          max_size=2, unique=True))
    return inline_problem(**{key: draw(JSON_VALUES) for key in keys})


@hst.composite
def experiments(draw):
    kind = draw(mostly(hst.sampled_from(sorted(harness.EXPERIMENT_KINDS)),
                       JSON_VALUES))
    table = harness.EXPERIMENT_PARAMS.get(kind, {}) if isinstance(kind, str) else {}
    keys = draw(hst.lists(hst.sampled_from(sorted(table)), max_size=4,
                          unique=True)) if table else []
    exp = {key: draw(shaped_like(table[key],
                                 SIZE_TOP if key in SIZE_KEYS else 16))
           for key in keys}
    exp.update(draw(mostly(hst.just({}), hst.dictionaries(JSON_KEYS, JSON_VALUES,
                                                           max_size=2))))
    return {**exp, "kind": kind}


# The one string ``out_dir`` drawn is relative: the fuzz runs in a fresh
# directory and writes nowhere else.  No drawn key is ``out_dir`` elsewhere.
CONFIGS = mostly(hst.fixed_dictionaries(
    {"experiments": hst.lists(mostly(experiments(), JSON_VALUES), max_size=3),
     "out_dir": mostly(hst.just("o"), JSON_VALUES.filter(
         lambda value: not isinstance(value, str)))},
    optional={"seed": mostly(hst.integers(-2, 2 ** 70), JSON_VALUES)}),
    JSON_VALUES)

# Inline problems reach ``ControlProblem``'s checks only in a config that
# passes the others, so half the documents are configs of them alone, each
# experiment at the n = 2 of ``inline_problem()``.
INLINE_CONFIGS = hst.fixed_dictionaries({
    "experiments": hst.lists(hst.tuples(
        hst.sampled_from([{"kind": "value", "n_list": [2]},
                          {"kind": "sweep", "n": 2}]), inline_problems()).map(
        lambda pair: {**pair[0], "template": "json", "problem": pair[1]}),
        min_size=1, max_size=2),
    "out_dir": hst.just("o")})


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=CONFIGS | INLINE_CONFIGS, threads=mostly(hst.integers(1, 4), hst.integers(-2, 0)
                                      | hst.sampled_from([1.0, 2.5, "2", None,
                                                          True])))
def test_any_config_document_exits_with_a_code(tmp_path, monkeypatch, config,
                                               threads):
    """``run`` maps every config document to an exit code in {0, 1, 2, 3}
    and prints no traceback; the experiments are stubbed, so only the
    validation, the manifest and the writes run."""
    def stub(params, stream):
        return ["x"], [[1]], {"ok": {"pass": True}}

    for kind in harness.EXPERIMENT_KINDS:
        monkeypatch.setitem(harness.EXPERIMENT_KINDS, kind, stub)
    monkeypatch.delenv("NCLAB_OUT_DIR", raising=False)
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    with open("c.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = harness.run("c.json", threads=threads)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in printed.getvalue()
