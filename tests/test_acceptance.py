"""The acceptance gate: every criterion at its stated tolerance.

Each criterion runs once per session (results cached at module scope) and
prints one pass/fail line.  6.lq_band_vs_continuous is an expected failure:
the 5% band around the continuous Riccati value 0.625 ln 3 cannot be met at
K=4, N=2, where the exact dynamic-programming optimum of the discretized
problem sits ~15% below (and the strictly adapted variant ~15% above) the
continuous value, nor at any other discretization the bin tree can
enumerate (``test_criterion_6_band_is_out_of_reach_of_the_bin_tree``); the
companion check verifies the optimizer against that exact discrete optimum
instead.
"""

import json
import math

import numpy as np
import pytest

from nclab import acceptance, harness
from nclab import control as ctl
from nclab.cli import main
from nclab.gaussdisc import noise_table
from nclab.matrixcore import NumericalError

_CACHE = {}


def rows_for(cid, out_dir=None):
    if cid not in _CACHE:
        rows, _ = acceptance.CRITERIA[cid](str(out_dir) if out_dir else None)
        _CACHE[cid] = rows
        for r in rows:
            print(f"{r['id']}: measured={r['measured']} "
                  f"target={r['target']} tol={r['tolerance']} "
                  f"{'PASS' if r['pass'] else 'FAIL'}")
    return _CACHE[cid]


def row(cid, check_id, out_dir=None):
    matches = [r for r in rows_for(cid, out_dir) if r["id"] == check_id]
    assert matches, f"no acceptance row {check_id}"
    return matches[0]


def test_criterion_1_semicircle_moments():
    assert all(r["pass"] for r in rows_for(1))


def test_criterion_2_operator_norm():
    r = row(2, "2.opnorm_median")
    assert 1.90 <= r["measured"] <= 2.15


def test_criterion_3_freeness_decay():
    assert all(r["pass"] for r in rows_for(3))


def test_criterion_4_laplacian_identity():
    assert row(4, "4.laplacian_identity_max_gap")["measured"] < 1e-10


def test_criterion_5_laplacian_vs_fd():
    assert row(5, "5.laplacian_vs_fd_max_gap")["measured"] < 1e-5


def test_laplacian_criteria_follow_the_master_seed(monkeypatch):
    # criteria 4 and 5 share one laplacian-check run, but never a stale one
    from nclab import harness as hn
    from nclab.randmat import RngStream

    acceptance.criterion_4()
    monkeypatch.setattr(acceptance, "MASTER_SEED", 7)
    _, _, checks = hn.experiment_csv(
        "laplacian-check", {"cases": 50, "n_list": [3, 4, 6], "d": 2},
        RngStream(7).child("acceptance", 4))
    rows, _ = acceptance.criterion_4()
    assert rows[0]["measured"] == checks["identity_max_gap"]["measured"]
    rows, _ = acceptance.criterion_5()
    assert rows[0]["measured"] == checks["fd_max_gap"]["measured"]


def test_check_rows_take_tolerance_and_verdict_from_their_check(monkeypatch):
    """Criteria 1, 3, 4, 5 and 7 state no tolerance of their own: with
    planted checks whose verdicts disagree with the old literals, each row
    carries its check's target as tolerance and its check's pass, and
    criterion 1 judges each moment against its check's target."""
    moments = {"measured": [0.01, 0.2, 0.02, 0.3], "target": 0.1, "pass": False}
    final = {"measured": 0.04, "target": 0.03, "pass": False}
    identity = {"measured": 1e-3, "target": 1e-2, "pass": True}
    fd = {"measured": 2e-6, "target": 1e-6, "pass": False}
    lhs = {"measured": 0.03, "target": 0.04, "pass": True}
    rhs = {"measured": 0.06, "target": 0.07, "pass": True}
    planted = {
        "spectrum": {"semicircle_rel_err_n256": moments},
        "freeness": {"strictly_decreasing": {"measured": [0.2, 0.1, 0.04],
                                             "pass": True},
                     "final_below_0.05": final},
        "laplacian-check": {"identity_max_gap": identity, "fd_max_gap": fd},
        "ldp": {"lhs_vs_oracle": lhs, "rhs_vs_oracle_rel": rhs,
                "rhs_above_lhs": {"measured": 0.0, "target": -0.01,
                                  "pass": True}},
    }
    # criterion 7's target is the oracle column of its experiment's row
    monkeypatch.setattr(harness, "experiment_csv",
                        lambda kind, params, stream: (["h", "oracle"],
                                                      [[0, 0.25]],
                                                      planted[kind]))
    acceptance._laplacian_rows.cache_clear()
    try:
        rows = {r["id"]: r for cid in (1, 3, 4, 5, 7)
                for r in acceptance.CRITERIA[cid](None)[0]}
    finally:
        acceptance._laplacian_rows.cache_clear()
    for k, m in enumerate(moments["measured"], start=1):
        r = rows[f"1.semicircle_m{2 * k}"]
        assert (r["measured"], r["tolerance"], r["pass"]) == (m, 0.1, m <= 0.1)
    for check_id, check in [("3.final_below", final),
                            ("4.laplacian_identity_max_gap", identity),
                            ("5.laplacian_vs_fd_max_gap", fd),
                            ("7.bd_lhs_vs_oracle", lhs),
                            ("7.bd_rhs_vs_oracle", rhs)]:
        r = rows[check_id]
        assert (r["measured"], r["tolerance"], r["pass"]) == (
            check["measured"], check["target"], check["pass"])
    assert rows["7.bd_lhs_vs_oracle"]["target"] == 0.25


@pytest.mark.xfail(
    strict=True,
    reason="the 5% band around 0.625 ln 3 is unattainable at K=4, N=2: the "
           "exact discrete DP optimum is 0.58433 (-14.9%) under the discrete "
           "information structure, 0.78935 (+15.0%) strictly adapted, and no "
           "bin tree under PATH_GUARD reaches the band; see "
           "test_criterion_6_band_is_out_of_reach_of_the_bin_tree and the "
           "diagnostic check below")
def test_criterion_6_lq_band_vs_continuous():
    assert row(6, "6.lq_band_vs_continuous")["pass"]


def lq_oracle(K, N, beta_c=0.5, adapted=False):
    """``lq_discrete_oracle`` on criterion 6's problem (horizon 1, beta_F
    = 1), with both peeks (criterion 6's policies see their step's noise)
    or, ``adapted``, strictly adapted."""
    return ctl.lq_discrete_oracle(K, N, 1.0, beta_c, 1.0, peek_bin=not adapted,
                                  peek_gue=not adapted)


def captured_variance(K, N):
    """v_bin / delta: the share of a step's common-noise variance that the
    bins' conditional means keep."""
    table = noise_table(N, 1.0 / K)
    return float(table.probs @ table.omegas ** 2) * K


def test_criterion_6_band_is_out_of_reach_of_the_bin_tree():
    """6.lq_band_vs_continuous in numbers, from the exact DP optimum.  At
    K=4, N=2 most of the 15% gap is the information structure: with the
    step's full common-noise variance the peeking optimum is still 0.59375,
    and the bins keep 92% of it.  Over every (K, N) whose (2N+2)^K bin
    paths fit ``PATH_GUARD``, no peeking optimum and no strictly adapted one
    with N >= 2 is within 5% of 0.625 ln 3.  (At N = 1 and K >= 6 the
    coarse bins' variance loss cancels the adaptedness gap, so strictly
    adapted values land in the band by coincidence: 0.684 at K = 9.)"""
    target = 0.625 * math.log(3.0)
    assert lq_oracle(4, 2) == pytest.approx(0.584327, abs=1e-6)
    assert lq_oracle(4, 2, adapted=True) == pytest.approx(0.789354, abs=1e-6)
    full = 0.5 / math.sqrt(captured_variance(4, 2))
    assert lq_oracle(4, 2, beta_c=full) == pytest.approx(0.59375, abs=1e-6)
    assert captured_variance(4, 2) == pytest.approx(0.92065, abs=1e-6)

    # K = 1 admits N up to 499999: bound it instead.  The bins keep at most
    # the step's variance, and both optima grow with the variance kept.
    assert lq_oracle(1, 1, beta_c=0.5 / math.sqrt(captured_variance(1, 1))) \
        < 0.95 * target
    assert lq_oracle(1, 1, beta_c=0.0, adapted=True) > 1.05 * target
    peek, adapted = {}, {}
    K = 2
    while 4 ** K <= ctl.PATH_GUARD:
        N = 1
        while (2 * N + 2) ** K <= ctl.PATH_GUARD:
            peek[K, N] = lq_oracle(K, N)
            adapted[K, N] = lq_oracle(K, N, adapted=True)
            N += 1
        K += 1
    assert K == 10
    best = max(peek, key=peek.get)
    assert best == (6, 4) and peek[best] == pytest.approx(0.618386, abs=1e-6)
    assert all(v < 0.95 * target for v in peek.values())
    coarse = {key: v for key, v in adapted.items() if key[1] >= 2}
    best = min(coarse, key=coarse.get)
    assert best == (7, 2) and coarse[best] == pytest.approx(0.730807, abs=1e-6)
    assert all(v > 1.05 * target for v in coarse.values())


def test_criterion_6_optimizer_matches_discrete_dp():
    assert row(6, "6.lq_vs_discrete_dp_oracle")["pass"]


def test_criterion_6_n_independence():
    assert row(6, "6.lq_n_independence")["pass"]


def test_criterion_7_boue_dupuis():
    assert all(r["pass"] for r in rows_for(7))


def test_criterion_8_discretization_shape():
    assert row(8, "8.sweep_decreasing_diffs")["pass"]


def test_criterion_9_convergence_in_n():
    assert row(9, "9.n_convergence")["pass"]


# The engine criteria's measured values at commit d435059.  A change that
# moves them on purpose (new estimators, new draws) updates them and lists
# the moves; an exact rewrite keeps them within 1e-12 relative.
PINNED = {
    "6.lq_band_vs_continuous": 0.593810671700991,
    "6.lq_vs_discrete_dp_oracle": 0.593810671700991,
    "6.lq_n_independence": 0.004443360631834481,
    "7.bd_lhs_vs_oracle": 0.006642979077197408,
    "7.bd_rhs_vs_oracle": 0.0027587679876381354,
    "7.bd_rhs_above_lhs": -0.005686862950972205,
    "8.sweep_decreasing_diffs": [0.055108306674448104, 0.028908976631303096],
    "9.n_convergence": 0.005932280892746111,
}


@pytest.mark.parametrize("cid", [6, 7, 8, 9])
def test_engine_criteria_values_are_pinned(cid):
    rows = rows_for(cid)
    assert [r["id"] for r in rows] == [k for k in PINNED
                                       if k.startswith(f"{cid}.")]
    for r in rows:
        np.testing.assert_allclose(r["measured"], PINNED[r["id"]], rtol=1e-12,
                                   atol=0, err_msg=r["id"])


def test_criterion_10_truncation_inequality():
    assert row(10, "10.truncation_instances")["measured"] == 100


def test_criterion_11_appendix_analytics():
    assert all(r["pass"] for r in rows_for(11))


def test_criterion_12_determinism(tmp_path_factory):
    out = tmp_path_factory.mktemp("determinism")
    rows, _ = acceptance.CRITERIA[12](str(out))
    assert rows[0]["pass"]


def test_criterion_12_reruns_into_emptied_directories(tmp_path, monkeypatch):
    # a second call on one out_dir recomputes every experiment, and a stale
    # file left beside the outputs does not reach the comparison
    ran = []

    def stub(params, stream):
        ran.append(stream.stream_path[-1])
        return ["idx"], [[stream.stream_path[-1]]], {}

    for kind in ("spectrum", "laplacian-check", "value"):
        monkeypatch.setitem(harness.EXPERIMENT_KINDS, kind, stub)
    rows, _ = acceptance.criterion_12(str(tmp_path))
    assert rows[0]["pass"] and sorted(ran) == [0, 0, 1, 1, 2, 2]
    (tmp_path / "determinism_t8" / "03_stale.csv").write_text("stale\n")
    rows, _ = acceptance.criterion_12(str(tmp_path))
    assert rows[0]["pass"] and len(ran) == 12


def test_runner_table_and_exit_code(tmp_path):
    # fast subset through the public runner: table printed, json written
    code = acceptance.run_acceptance(str(tmp_path), only=[2, 11])
    assert code == 0
    assert (tmp_path / "acceptance.json").exists()


def test_acceptance_unknown_criterion_exits_config(tmp_path, capsys):
    code = main(["acceptance", "--out-dir", str(tmp_path), "--only", "13"])
    assert code == 1
    assert "unknown criteria [13]" in capsys.readouterr().out


def test_acceptance_repeated_criterion_runs_once(tmp_path, monkeypatch):
    calls = []

    def once(out_dir):
        calls.append(out_dir)
        return [acceptance._row("11.once", 1.0, 1.0, 0.0, True)], None

    monkeypatch.setitem(acceptance.CRITERIA, 11, once)
    assert main(["acceptance", "--out-dir", str(tmp_path),
                 "--only", "11", "11"]) == 0
    assert len(calls) == 1
    rows = json.loads((tmp_path / "acceptance.json").read_text())
    assert [r["id"] for r in rows] == ["11.once"]


def test_acceptance_red_check_exits_4(tmp_path, monkeypatch, capsys):
    # a failed check has its own code, apart from a config error's 1
    def red(out_dir):
        return [acceptance._row("11.red", 1.0, 0.0, 0.5, False)], None

    monkeypatch.setitem(acceptance.CRITERIA, 11, red)
    assert main(["acceptance", "--out-dir", str(tmp_path), "--only", "11"]) == 4
    assert "0/1 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("error", [NumericalError("solve diverged"),
                                   np.linalg.LinAlgError("no convergence")])
def test_acceptance_numerical_failure_exits_2(tmp_path, monkeypatch, capsys,
                                              error):
    def fail(out_dir):
        raise error

    monkeypatch.setitem(acceptance.CRITERIA, 11, fail)
    assert main(["acceptance", "--out-dir", str(tmp_path), "--only", "11"]) == 2
    assert "numerical failure" in capsys.readouterr().out


def test_acceptance_value_error_in_criterion_propagates(tmp_path, monkeypatch):
    # only an unknown criterion is a usage error; a bug keeps its traceback
    def broken(out_dir):
        raise ValueError("operands could not be broadcast")

    monkeypatch.setitem(acceptance.CRITERIA, 11, broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["acceptance", "--out-dir", str(tmp_path), "--only", "11"])


def test_acceptance_io_failure_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["acceptance", "--out-dir", str(blocker / "out"),
                 "--only", "11"]) == 3
    assert "I/O failure" in capsys.readouterr().out


def test_sabotaged_gue_normalization_is_caught(monkeypatch, stream):
    # doubling the sampler breaks the semicircle moment check (tr_n S^2 -> 4)
    from nclab import harness as hn
    from nclab import randmat as rm

    original = rm.sample_gue

    def doubled(n, rng):
        return 2.0 * original(n, rng)

    monkeypatch.setattr(hn, "sample_gue", doubled)
    _, _, checks = hn.experiment_csv(
        "spectrum", {"n_list": [64], "samples": 5}, stream.child("sab"))
    assert not checks["semicircle_rel_err_n64"]["pass"]


def test_omitted_laplacian_correction_is_caught(stream):
    # without the correction term the exact identity fails at 1e-10
    from conftest import random_hermitian
    from nclab.laplacian import CylindricalFunction, MultiPoly
    from nclab.ncpoly import NCPolynomial

    u = CylindricalFunction(outer=MultiPoly(1, {(2,): 1.0}),
                            inners=[NCPolynomial(1, {(1, 1): 1.0})])
    gen = stream.child("sab2").generator()
    x = random_hermitian(4, gen, scale=0.8)[None]
    assert abs(u.gue_laplacian(x, {}) - u.free_laplacian(x, {})
               - u.correction_term(x, {})) < 1e-10
    gap_without_correction = abs(u.gue_laplacian(x, {})
                                 - u.free_laplacian(x, {}))
    assert gap_without_correction > 1e-10
