"""Tests of the benchmark itself, at reduced sizes:

    python3 -m pytest benchmark/test_benchmark.py

A reduced-size round of each workload must pass every output check, and
deliberately corrupted outputs must be rejected by the check that guards them.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

SEED = 7


def _round(tmp_path_factory, workload: str, traced: bool = False) -> Path:
    rundir = tmp_path_factory.mktemp(workload) / "round"
    result = run.run_child(workload, SEED, rundir, size="quick", traced=traced, timeout=600)
    assert result, (rundir / "stderr.txt").read_text()
    return rundir


@pytest.fixture(scope="module")
def rounds(tmp_path_factory) -> dict[str, Path]:
    return {name: _round(tmp_path_factory, name) for name in workloads.WORKLOADS}


def _score(workload: str, rundir: Path):
    configs = workloads.commands(workload, SEED, "quick")
    result = json.loads((rundir / "result.json").read_text())
    return run.score_round(workload, result, rundir, configs)


def _failed(workload: str, rundir: Path) -> set[str]:
    return {name for name, _ok, _detail in _score(workload, rundir)[3]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reduced_round_passes_every_check(rounds, workload):
    attempted, failed, correct, bad = _score(workload, rounds[workload])
    assert attempted > 0
    assert (failed, correct, bad) == (0, True, [])


def _copy(rundir: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "round"
    shutil.copytree(rundir, dst)
    return dst


def _rewrite(path: Path, edit, skip: int = 0) -> None:
    """Apply edit(header, rows) to a CSV file, keeping `skip` leading lines."""
    lines = path.read_text().splitlines(keepends=True)
    rows = list(csv.reader(lines[skip:]))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="") as fh:
        fh.writelines(lines[:skip])
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _shift_column(name: str, fn):
    def edit(header, rows):
        i = header.index(name)
        for row in rows:
            row[i] = "%.17g" % fn(float(row[i]))
    return edit


def test_shifted_posterior_mean_is_rejected(rounds, tmp_path):
    rundir = _copy(rounds["large_cloud"], tmp_path)
    _rewrite(rundir / "filter" / "filter.csv", _shift_column("pi:x", lambda v: v + 0.1))
    assert "kalman_bucy:mean" in _failed("large_cloud", rundir)


def test_widened_posterior_is_rejected(rounds, tmp_path):
    rundir = _copy(rounds["large_cloud"], tmp_path)
    _rewrite(rundir / "filter" / "filter.csv", _shift_column("pi:x^2", lambda v: v + 0.1))
    assert _failed("large_cloud", rundir) == {"kalman_bucy:variance"}


def test_constant_estimate_off_by_one_ulp_is_rejected(rounds, tmp_path):
    rundir = _copy(rounds["large_cloud"], tmp_path)

    def edit(header, rows):
        rows[len(rows) // 2][header.index("pi:1")] = "%.17g" % math.nextafter(1.0, 2.0)

    _rewrite(rundir / "filter" / "filter.csv", edit)
    assert _failed("large_cloud", rundir) == {"filter:pi_one_exact"}


def test_missing_output_fails_its_checks_only(rounds, tmp_path):
    rundir = _copy(rounds["large_cloud"], tmp_path)
    (rundir / "simulate" / "paths.csv").unlink()
    assert _failed("large_cloud", rundir) == {"kalman_bucy:mean", "kalman_bucy:variance"}


def _edit_verdict(check: str, field: str, fn):
    def edit(header, rows):
        for row in rows:
            if row[0] == check:
                row[header.index(field)] = repr(fn(float(row[header.index(field)])))
    return edit


def test_altered_reference_is_rejected(rounds, tmp_path):
    rundir = _copy(rounds["martingale_mc"], tmp_path)
    _rewrite(rundir / "verify" / "verdicts.csv", _edit_verdict("revuz_yor_energy", "reference", lambda v: v * (1 + 1e-9)))
    assert "reference:revuz_yor_energy" in _failed("martingale_mc", rundir)


def test_altered_hitting_reference_is_rejected(rounds, tmp_path):
    rundir = _copy(rounds["martingale_mc"], tmp_path)
    _rewrite(rundir / "verify" / "verdicts.csv", _edit_verdict("hitting_probability", "reference", lambda v: 0.5))
    assert "reference:hitting" in _failed("martingale_mc", rundir)


def test_estimate_outside_tolerance_is_rejected(rounds, tmp_path):
    rundir = _copy(rounds["martingale_mc"], tmp_path)
    _rewrite(rundir / "verify" / "verdicts.csv", _edit_verdict("hitting_probability", "estimate", lambda v: v + 0.5))
    assert "verdict:hitting_probability[barrier=3]" in _failed("martingale_mc", rundir)


def _edit_row(check: str, scenario: str, fn):
    """Apply fn(row as a dict) to one verdict row and write the changed fields back."""
    def edit(header, rows):
        for row in rows:
            if row[:2] == [check, scenario]:
                rec = dict(zip(header, row))
                fn(rec)
                row[:] = [rec[name] for name in header]
    return edit


def _move_estimate(widths: float):
    """Put the estimate `widths` tolerances above the reference."""
    def fn(rec):
        rec["estimate"] = repr(float(rec["reference"]) + widths * float(rec["tolerance"]))
    return fn


def test_residual_outside_its_widened_band_is_rejected(rounds, tmp_path):
    rundir = _copy(rounds["small_cloud_residuals"], tmp_path)
    _rewrite(rundir / "verify" / "verdicts.csv",
             _edit_row("zakai_residual", "jump_ou,phi=x^2", _move_estimate(1.01 * checks.RESIDUAL_BAND)))
    assert "verdict:zakai_residual[jump_ou,phi=x^2]" in _failed("small_cloud_residuals", rundir)


def test_martingale_estimates_outside_their_widened_band_are_rejected(rounds, tmp_path):
    rundir = _copy(rounds["martingale_mc"], tmp_path)
    rows = [("dufresne", "horizon=20"), ("independent_h", "t=1"), ("martingale_mean", "revuz_yor,t=0.5"),
            ("revuz_yor_energy", "alpha=1,t=1,transformed")]
    for check, scenario in rows:
        _rewrite(rundir / "verify" / "verdicts.csv", _edit_row(check, scenario, _move_estimate(-1.01 * checks.MC_BAND)))
    assert {f"verdict:{c}[{s}]" for c, s in rows} <= _failed("martingale_mc", rundir)


def test_widened_band_ignores_the_programs_3se_verdict(rounds, tmp_path):
    """Inside the widened band, a failed 3-SE verdict of a correct program is not a failure."""
    rundir = _copy(rounds["martingale_mc"], tmp_path)

    def fn(rec):
        _move_estimate(1.5)(rec)
        rec["passed"] = "0"

    _rewrite(rundir / "verify" / "verdicts.csv", _edit_row("independent_h", "t=1", fn))
    assert _failed("martingale_mc", rundir) == set()


def test_residual_estimate_apart_from_its_trajectory_is_rejected(rounds, tmp_path):
    rundir = _copy(rounds["small_cloud_residuals"], tmp_path)
    _rewrite(rundir / "verify" / "verdicts.csv", _edit_verdict("zakai_residual", "estimate", lambda v: v + 1e-6))
    assert _failed("small_cloud_residuals", rundir) == {"residuals:verdicts_match_trajectories"}


def test_nonzero_constant_ks_residual_is_rejected(rounds, tmp_path):
    rundir = _copy(rounds["small_cloud_residuals"], tmp_path)
    path = rundir / "verify" / "trajectory_ks_residual_jump_ou_phi_1.csv"

    def edit(header, rows):
        rows[-1][header.index("mean_residual")] = "%.17g" % 5e-324

    _rewrite(path, edit)
    assert _failed("small_cloud_residuals", rundir) == {"ks_residual:phi_1_exactly_zero"}


def test_failed_command_counts_as_failed(rounds, tmp_path):
    rundir = _copy(rounds["small_cloud_residuals"], tmp_path)
    result = json.loads((rundir / "result.json").read_text())
    result["exits"] = [4]
    configs = workloads.commands("small_cloud_residuals", SEED, "quick")
    attempted, failed, correct, bad = run.score_round("small_cloud_residuals", result, rundir, configs)
    assert (failed, correct, [name for name, _ok, _detail in bad]) == (1, True, ["command:verify"])


def test_own_riccati_matches_filterlab_oracle():
    """The closed-form Riccati variance against filterlab's RK4 oracle."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from filterlab.simulate import TimeGrid
    from filterlab.verify import kalman_bucy_oracle

    p = workloads.CORRELATED_LINEAR
    grid = TimeGrid(1.0, 1e-3)
    y = [0.01 * k for k in range(grid.n_steps + 1)]
    oracle = kalman_bucy_oracle(p["a"], p["sigma_v"], p["sigma_bar"], p["h"], p["m0"], p["p0"],
                                [[v] for v in y], grid)
    means, var = checks.kalman_bucy(y, grid.dt, **p)
    assert abs(var - oracle.cov[-1, 0, 0]) < 1e-10
    assert max(abs(m - o) for m, o in zip(means, oracle.mean[:, 0])) < 1e-9


def test_traced_round_reports_every_layer_with_repeatable_counts(tmp_path_factory):
    first = json.loads((_round(tmp_path_factory, "small_cloud_residuals", traced=True) / "result.json").read_text())
    second = json.loads((_round(tmp_path_factory, "small_cloud_residuals", traced=True) / "result.json").read_text())
    names = [name for name, _unit in tracer.layer_metric_names(workloads.ALL_CHECKS)]
    assert sorted(first["layers"]) == sorted(names)
    counts = [name for name, unit in tracer.layer_metric_names(workloads.ALL_CHECKS) if unit != "s"]
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}
    n_runs = workloads.commands("small_cloud_residuals", SEED, "quick")[0][1]["diagnostics"]["params"]["ks_residual"]["n_runs"]
    assert first["layers"]["verify.residual_run.calls"] == 2 * n_runs
    assert first["layers"]["rng.substream.calls"] > 0 and first["layers"]["models.generator_apply.calls"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "large_cloud", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
