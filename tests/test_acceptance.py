"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one `[criterion NN] name: PASS/FAIL` line (run pytest with
-s or read the captured output). Statistical criteria use the universal
3-standard-error band (5 SE where first-passage discretisation widens it)
and a fixed master seed; every quantity is reproducible bit for bit.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import filterlab
from filterlab.cli import check_gronwall, check_zstar_bound, residual_runs
from filterlab.filters import FilterConfig
from filterlab.girsanov import (
    MAXIMAL_CONST,
    MAXIMAL_SLOPE,
    ensemble_from_model,
    ensemble_revuz_yor,
    mean_se,
    revuz_yor_closed_form,
    revuz_yor_transformed_estimates,
)
from filterlab.models import Battery, make_model
from filterlab.parallel import run_plans
from filterlab.rng import substream
from filterlab.simulate import TimeGrid
from filterlab.verify import (
    CheckVerdict,
    change_detection_agreement_run,
    dufresne_check,
    equation_residuals,
    kalman_agreement_run,
    kazamaki_gap_check,
    residual_run,
)

SEED = 2026
WORKERS = 2
CLOSED_ENERGY = revuz_yor_closed_form(1.0, 1.0)   # (e^2 - 3) / 4 ~ 1.0973


def gather(tasks):
    """A plan that asks for tasks (fn, *args) and returns their results."""
    return (yield tasks)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- criteria 1 & 2: transformed energy and the Z log Z identity -------------


@pytest.fixture(scope="module")
def revuz_yor_tilted():
    grid = TimeGrid(1.0, 1e-3)
    start = time.monotonic()
    energy, zlogz, gap = revuz_yor_transformed_estimates(1.0, grid, 10_000, SEED)
    return energy, zlogz, gap, time.monotonic() - start


def test_criterion_01_revuz_yor_energy(revuz_yor_tilted):
    energy, _, _, elapsed = revuz_yor_tilted
    ok = abs(energy.value - CLOSED_ENERGY) <= 3 * energy.se and energy.se < 0.05 and elapsed < 60
    report(
        1,
        "Revuz-Yor transformed energy",
        ok,
        f"estimate {energy} vs {CLOSED_ENERGY:.5f}, "
        f"|d|/se={abs(energy.value - CLOSED_ENERGY) / energy.se:.2f}, {elapsed:.1f}s",
    )


def test_criterion_02_zlogz_identity(revuz_yor_tilted):
    energy, zlogz, gap, _ = revuz_yor_tilted
    # same runs: the paired per-path gap Z log Z - energy/2 carries the joint SE
    ok = abs(gap.value) <= 3 * gap.se
    report(
        2,
        "Z log Z identity",
        ok,
        f"E[Z log Z] {zlogz} vs half-energy {energy.value / 2:.5f}, "
        f"paired gap {gap.value:+.5f}±{gap.se:.5f}",
    )


# -- criteria 3 & 4: martingale mean and the maximal bound -------------------


MEAN_TIMES = (0.25, 0.5, 1.0)
MEAN_GRID = TimeGrid(1.0, 1e-3)   # both ensembles' grid


def mean_checks(ens):
    """E[Z_t] at MEAN_TIMES, each with its SE."""
    return {t: ens.z.at(MEAN_GRID.index_of(t)) for t in MEAN_TIMES}


@pytest.fixture(scope="module")
def revuz_yor_base():
    start = time.monotonic()
    ens = ensemble_revuz_yor(1.0, MEAN_GRID, 200_000, SEED)
    return mean_checks(ens), mean_se(ens.z_star), time.monotonic() - start


@pytest.fixture(scope="module")
def jump_ou_ensemble():
    return ensemble_from_model(make_model("jump_ou"), MEAN_GRID, 10_000, SEED)


def test_criterion_03_martingale_mean(revuz_yor_base, jump_ou_ensemble):
    checks_ry, _, elapsed = revuz_yor_base
    checks_jou = mean_checks(jump_ou_ensemble)
    details = []
    ok = True
    for label, checks in (("revuz_yor", checks_ry), ("jump_ou", checks_jou)):
        for t, est in sorted(checks.items()):
            good = abs(est.value - 1.0) <= 3 * est.se
            ok &= good
            details.append(f"{label} t={t:g}: {est.value:.4f}±{est.se:.4f}")
    report(3, "martingale mean E[Z_t]=1", ok, "; ".join(details) + f"; 200k-path ensemble {elapsed:.1f}s")


def test_criterion_04_maximal_bound(revuz_yor_tilted, revuz_yor_base):
    energy, _, _, _ = revuz_yor_tilted
    _, zstar_ry, _ = revuz_yor_base
    rhs_ry = MAXIMAL_CONST + MAXIMAL_SLOPE * energy.value
    se_ry = math.hypot(zstar_ry.se, MAXIMAL_SLOPE * energy.se)
    row_ry = CheckVerdict.upper_band("zstar_bound", "revuz_yor", zstar_ry.value, rhs_ry, se_ry)

    # the jump_ou_ensemble fixture's paths, built again by the check
    [[row_jou]] = run_plans([check_zstar_bound(SEED, scenario="jump_ou", t=1.0, n_paths=10_000, dt=1e-3)])
    report(
        4,
        "maximal bound E[Z*] <= (e+1)/(e-1) + e/(2(e-1)) energy",
        row_ry.passed and row_jou.passed,
        f"revuz_yor {zstar_ry.value:.4f} <= {rhs_ry:.4f}; jump_ou {row_jou.estimate:.4f} <= {row_jou.reference:.4f}",
    )


# -- criterion 5: Dufresne identity ------------------------------------------


def test_criterion_05_dufresne():
    start = time.monotonic()
    [(est, target, correction)] = run_plans([dufresne_check(10_000, TimeGrid(20.0, 1e-3), SEED)], WORKERS)
    elapsed = time.monotonic() - start
    ok = abs(est.value - target) <= 3 * est.se and elapsed < 120
    report(
        5,
        "Dufresne identity P(X_1 < 1) = e^{-2}",
        ok,
        f"estimate {est} vs {target:.5f}, truncation correction {correction:.2e}, {elapsed:.1f}s",
    )


# -- criterion 6: hitting probabilities --------------------------------------


def test_criterion_06_hitting_probabilities():
    [(rows, sums, growth)] = run_plans([kazamaki_gap_check([1, 3, 9], 10_000, 1e-4, SEED)], WORKERS)
    ok = all(v.passed for v in rows)
    detail = "; ".join(
        f"n={v.scenario.split('=')[1]}: {v.estimate:.4f} vs {v.reference:.4f}" for v in rows
    )
    report(6, "hitting probabilities n/(n+1)", ok, detail + f"; partial-sum growth {growth:.4f}/lnN")


# -- criteria 7 & 8: Kalman agreement ----------------------------------------


def _kalman_sweep(model_name: str, ablate: bool):
    config = FilterConfig(n_particles=10_000, resample_threshold=0.5, seed=SEED, ignore_correlation=ablate)
    tasks = [(kalman_agreement_run, model_name, TimeGrid(1.0, 1e-3), config, i) for i in range(20)]
    [results] = run_plans([gather(tasks)], WORKERS)
    return float(np.mean([r[0] for r in results])), float(np.mean([r[1] for r in results]))


def test_criterion_07_kalman_uncorrelated():
    start = time.monotonic()
    dmean, dvar = _kalman_sweep("linear_gaussian", ablate=False)
    elapsed = time.monotonic() - start
    anchor = math.sqrt(2.0) - 1.0
    ok = dmean < 0.05 and dvar < 0.05 and elapsed < 120
    report(
        7,
        "Kalman agreement (uncorrelated)",
        ok,
        f"|dmean| {dmean:.4f}, |dvar| {dvar:.4f} (oracle anchor {anchor:.5f}), {elapsed:.1f}s",
    )


def test_criterion_08_kalman_correlated_with_ablation():
    dmean, dvar = _kalman_sweep("correlated_linear", ablate=False)
    ok_pos = dmean < 0.05 and dvar < 0.05
    dmean_a, dvar_a = _kalman_sweep("correlated_linear", ablate=True)
    ok_neg = not (dmean_a < 0.05 and dvar_a < 0.05)
    report(
        8,
        "Kalman agreement (correlated) + ablation",
        ok_pos and ok_neg,
        f"correlated |dmean| {dmean:.4f}, |dvar| {dvar:.4f}; "
        f"ablated |dmean| {dmean_a:.4f}, |dvar| {dvar_a:.4f} (must violate)",
    )


# -- criterion 9: Zakai / Kushner-Stratonovich residuals ----------------------

RESID_LABELS = ("1", "x", "x^2", "tanh(x)")
RESID_RUNS = 200
RESID_PARTICLES = 400
RESID_DT = 2.5e-3


def _residual_sweep(model_name: str):
    params = (model_name, RESID_LABELS, TimeGrid(1.0, RESID_DT),
              FilterConfig(n_particles=RESID_PARTICLES, resample_threshold=0.5, seed=SEED))
    [runs] = run_plans([residual_runs(params, RESID_RUNS)], WORKERS)
    return equation_residuals(RESID_LABELS, *runs)


def test_criterion_09_equation_residuals():
    details = []
    ok = True
    for name in ("linear_gaussian", "jump_ou"):
        zak, ks = _residual_sweep(name)
        for lab in ("x", "x^2", "tanh(x)"):
            for kind, stats in (("zakai", zak), ("ks", ks)):
                st = stats[lab]
                good = abs(st.mean_residual.value) <= 3 * st.mean_residual.se
                ok &= good
                details.append(f"{name}/{kind}/{lab}: {abs(st.mean_residual.value) / st.mean_residual.se:.2f}se")
        # phi == 1 reductions: KS residual vanishes identically; the Zakai
        # residual reduces to the mass equation rho(1) - 1 - int rho(h) dY
        ks_one = ks["1"]
        ok &= ks_one.mean_residual.value == 0.0 and np.all(ks_one.trajectory == 0.0)
        details.append(f"{name}/ks/1: exact-zero={np.all(ks_one.trajectory == 0.0)}")
    # ablation: correlation-blind filter violates the full KS identity
    abl_params = ("correlated_linear", ("x^2",), TimeGrid(1.0, 5e-3),
                  FilterConfig(n_particles=250, resample_threshold=0.5, seed=SEED, ignore_correlation=True))
    [abl_runs] = run_plans([residual_runs(abl_params, 1600)], WORKERS)
    _, abl_ks = equation_residuals(["x^2"], *abl_runs)
    abl_est = abl_ks["x^2"].mean_residual
    abl_ratio = abs(abl_est.value) / abl_est.se
    ok &= abl_ratio > 3.0
    details.append(f"ablation ks/x^2: {abl_ratio:.2f}se (must exceed 3)")
    report(9, "Zakai/KS residuals", ok, "; ".join(details))


def test_criterion_09b_zakai_mass_equation_reduction():
    # one run per model: the machinery's phi == 1 Zakai residual must equal
    # the directly rebuilt mass-equation residual to 1e-12 relative
    from filterlab.filters import init_cloud, step
    from filterlab.rng import TAG_INIT, TAG_PATH, TAG_PROPAGATE, TAG_RESAMPLE
    from filterlab.simulate import simulate_pair

    ok = True
    details = []
    for name in ("linear_gaussian", "jump_ou"):
        model = make_model(name)
        grid = TimeGrid(1.0, RESID_DT)
        cfg = FilterConfig(n_particles=RESID_PARTICLES, seed=SEED)
        zak = residual_run(model, Battery(("1",), 1), grid, cfg, (0,))[0][0]
        # run 0's generators, one per role, drawn from in order
        bundle = simulate_pair(model, grid, substream(SEED, TAG_PATH, 0))
        cloud = init_cloud(model.initial_law, RESID_PARTICLES, [substream(SEED, TAG_INIT, 0)])
        rngs = [substream(SEED, TAG_PROPAGATE, 0)], [substream(SEED, TAG_RESAMPLE, 0)]
        rho_one, rho_h = [], []
        for k in range(grid.n_steps + 1):
            shift = cloud.log_weights[0].max()
            w = np.exp(cloud.log_weights[0] - shift)
            mass = math.exp(cloud.log_mass[0] + shift)
            rho_one.append(mass * w.mean())
            h = model.h(cloud.states, bundle.y[k], k * grid.dt)[:, 0]
            rho_h.append(mass * np.mean(w * h))
            if k < grid.n_steps:
                h = model.h(cloud.states, bundle.y[k], k * grid.dt)
                cloud, _ = step(cloud, model, h, bundle.y[k + 1] - bundle.y[k], grid.dt, *rngs, cfg)
        direct, acc = np.zeros(grid.n_steps + 1), 0.0
        for k in range(grid.n_steps + 1):
            direct[k] = rho_one[k] - rho_one[0] - acc
            if k < grid.n_steps:
                acc += rho_h[k] * (bundle.y[k + 1, 0] - bundle.y[k, 0])
        gap = np.max(np.abs(zak[0] - direct))
        scale = max(1.0, np.max(np.abs(direct)))
        ok &= gap <= 1e-12 * scale
        details.append(f"{name}: max gap {gap:.2e}")
    report(9, "Zakai phi=1 mass-equation reduction", ok, "; ".join(details))


# -- criterion 10: change detection vs grid-Bayes oracle ----------------------


def test_criterion_10_change_detection():
    config = FilterConfig(n_particles=10_000, resample_threshold=0.5, seed=SEED)
    tasks = [(change_detection_agreement_run, TimeGrid(1.0, 1e-3), config, i) for i in range(20)]
    [gaps] = run_plans([gather(tasks)], WORKERS)
    mean_gap = float(np.mean(gaps))
    ok = mean_gap < 0.05
    report(
        10,
        "change-detection posterior vs 21x21 grid oracle",
        ok,
        f"mean sup-gap {mean_gap:.4f} over 20 seeds (max {max(gaps):.4f})",
    )


# -- criterion 11: Gronwall envelope ------------------------------------------


def test_criterion_11_gronwall_envelope():
    sizes = {"n_paths": 4000, "dt": 2e-3, "horizon": 1.0}
    [[row_jou]] = run_plans([check_gronwall(SEED, scenario="jump_ou", **sizes)])
    b0, b = -0.5, 1.0
    [[row_cd]] = run_plans([check_gronwall(SEED, scenario="change_detection", b0=b0, b=b, **sizes)])
    report(
        11,
        "Gronwall envelope E[Z_t(1+|X_t|^2)]",
        row_jou.passed and row_cd.passed,
        f"jump_ou c=2 {row_jou.detail}; change_detection c(b)={4.0 + (b0 + b) ** 2:g} {row_cd.detail}",
    )


# -- criterion 12: byte-identical reproducibility -----------------------------


def _child_env():
    """Environment whose PYTHONPATH leads the child to this process's filterlab.

    The package's own directory goes first as an absolute path, so the child
    imports it whatever its cwd and whether or not filterlab is installed.
    """
    src = str(Path(filterlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "filterlab.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_12_reproducibility(tmp_path):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps(
        {"model": {"name": "jump_ou"}, "grid": {"horizon": 0.3, "dt": 0.005}, "seed": SEED}
    ))
    flt_cfg = tmp_path / "flt.json"
    flt_cfg.write_text(json.dumps(
        {"model": {"name": "change_detection"}, "grid": {"horizon": 0.3, "dt": 0.005},
         "filter": {"n_particles": 400}, "seed": SEED}
    ))
    ver_cfg = tmp_path / "ver.json"
    ver_cfg.write_text(json.dumps(
        {"diagnostics": {"checks": ["revuz_yor_energy", "zakai_residual"],
                         "params": {"revuz_yor_energy": {"n_paths": 2000},
                                    "zakai_residual": {"n_runs": 12, "n_particles": 64,
                                                        "dt": 0.01, "phis": ["1", "x"]}}},
         "seed": SEED}
    ))
    outputs = {"simulate": ["paths.csv", "jumps.csv", "manifest.json"],
               "filter": ["filter.csv", "manifest.json"],
               "verify": ["verdicts.csv", "manifest.json"]}
    configs = {"simulate": sim_cfg, "filter": flt_cfg, "verify": ver_cfg}
    ok = True
    details = []
    for cmd, files in outputs.items():
        runs = {}
        for tag, workers in (("r1", 1), ("r2", 1), ("w4", 4)):
            out = tmp_path / cmd / tag
            _run_cli([cmd, "--config", str(configs[cmd]), "--out", str(out),
                      "--workers", str(workers)], cwd=tmp_path)
            runs[tag] = {f: (out / f).read_bytes() for f in files}
        same_rerun = runs["r1"] == runs["r2"]
        same_workers = runs["r1"] == runs["w4"]
        ok &= same_rerun and same_workers
        details.append(f"{cmd}: rerun={same_rerun}, workers1v4={same_workers}")
    report(12, "byte-identical reproducibility", ok, "; ".join(details))
