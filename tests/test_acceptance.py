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
from filterlab import verify
from filterlab.cli import _kalman_task, _residual_task
from filterlab.filters import FilterConfig
from filterlab.girsanov import (
    MAXIMAL_CONST,
    MAXIMAL_SLOPE,
    ensemble_from_model,
    gronwall_bound_check,
    martingale_mean_check,
    revuz_yor_base_stats,
    revuz_yor_closed_form,
    revuz_yor_transformed_estimates,
    zstar_bound_check,
)
from filterlab.models import make_model, phi_const
from filterlab.parallel import map_ordered
from filterlab.rng import substream
from filterlab.simulate import TimeGrid
from filterlab.verify import dufresne_check, equation_residuals, kazamaki_gap_check, residual_run

SEED = 2026
WORKERS = 2
CLOSED_ENERGY = revuz_yor_closed_form(1.0, 1.0)   # (e^2 - 3) / 4 ~ 1.0973


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


@pytest.fixture(scope="module")
def revuz_yor_base():
    grid = TimeGrid(1.0, 1e-3)
    checks, zstar = revuz_yor_base_stats(1.0, grid, 200_000, SEED, [0.25, 0.5, 1.0])
    return checks, zstar


@pytest.fixture(scope="module")
def jump_ou_ensemble():
    grid = TimeGrid(1.0, 1e-3)
    return ensemble_from_model(make_model("jump_ou"), grid, 10_000, SEED)


def test_criterion_03_martingale_mean(revuz_yor_base, jump_ou_ensemble):
    checks_ry, _ = revuz_yor_base
    checks_jou, _ = martingale_mean_check(jump_ou_ensemble, [0.25, 0.5, 1.0])
    details = []
    ok = True
    for label, checks in (("revuz_yor", checks_ry), ("jump_ou", checks_jou)):
        for t, est in sorted(checks.items()):
            good = abs(est.value - 1.0) <= 3 * est.se
            ok &= good
            details.append(f"{label} t={t:g}: {est.value:.4f}±{est.se:.4f}")
    report(3, "martingale mean E[Z_t]=1", ok, "; ".join(details))


def test_criterion_04_maximal_bound(revuz_yor_tilted, revuz_yor_base, jump_ou_ensemble):
    energy, _, _, _ = revuz_yor_tilted
    _, zstar_ry = revuz_yor_base
    rhs_ry = MAXIMAL_CONST + MAXIMAL_SLOPE * energy.value
    se_ry = math.hypot(zstar_ry.se, MAXIMAL_SLOPE * energy.se)
    ok_ry = zstar_ry.value <= rhs_ry + 3 * se_ry

    lhs_jou, rhs_jou, ok_jou = zstar_bound_check(jump_ou_ensemble)
    report(
        4,
        "maximal bound E[Z*] <= (e+1)/(e-1) + e/(2(e-1)) energy",
        ok_ry and ok_jou,
        f"revuz_yor {zstar_ry.value:.4f} <= {rhs_ry:.4f}; jump_ou {lhs_jou.value:.4f} <= {rhs_jou:.4f}",
    )


# -- criterion 5: Dufresne identity ------------------------------------------


def test_criterion_05_dufresne():
    start = time.monotonic()
    est, target, allowance = dufresne_check(10_000, TimeGrid(20.0, 1e-3), SEED)
    elapsed = time.monotonic() - start
    ok = abs(est.value - target) <= 3 * est.se + allowance and elapsed < 120
    report(
        5,
        "Dufresne identity P(X_1 < 1) = e^{-2}",
        ok,
        f"estimate {est} vs {target:.5f}, allowance {allowance:.2e}, {elapsed:.1f}s",
    )


# -- criterion 6: hitting probabilities --------------------------------------


def test_criterion_06_hitting_probabilities():
    rows, sums, growth = kazamaki_gap_check([1, 3, 9], 10_000, 1e-4, SEED)
    ok = all(v.passed for v in rows)
    detail = "; ".join(
        f"n={v.scenario.split('=')[1]}: {v.estimate:.4f} vs {v.reference:.4f}" for v in rows
    )
    report(6, "hitting probabilities n/(n+1)", ok, detail + f"; partial-sum growth {growth:.4f}/lnN")


# -- criteria 7 & 8: Kalman agreement ----------------------------------------


def _kalman_sweep(model_name: str, ablate: bool):
    payloads = [
        (model_name, {}, 1.0, 1e-3, 10_000, 0.5, ablate, SEED, i) for i in range(20)
    ]
    results = map_ordered(_kalman_task, payloads, WORKERS)
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

RESID_LABELS = ["1", "x", "x^2", "tanh(x)"]
RESID_RUNS = 200
RESID_PARTICLES = 400
RESID_DT = 2.5e-3


def _residual_sweep(model_name: str):
    payloads = [
        (model_name, {}, RESID_LABELS, 1.0, RESID_DT, RESID_PARTICLES, 0.5, False, SEED, i, False)
        for i in range(RESID_RUNS)
    ]
    return equation_residuals(map_ordered(_residual_task, payloads, WORKERS))


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
                details.append(f"{name}/{kind}/{lab}: {st.ratio():.2f}se")
        # phi == 1 reductions: KS residual vanishes identically; the Zakai
        # residual reduces to the mass equation rho(1) - 1 - int rho(h) dY
        ks_one = ks["1"]
        ok &= ks_one.mean_residual.value == 0.0 and np.all(ks_one.trajectory == 0.0)
        details.append(f"{name}/ks/1: exact-zero={np.all(ks_one.trajectory == 0.0)}")
    # ablation: correlation-blind filter violates the full KS identity
    abl_payloads = [
        ("correlated_linear", {}, ["x^2"], 1.0, 5e-3, 250, 0.5, True, SEED, i, False)
        for i in range(1600)
    ]
    _, abl_ks = equation_residuals(map_ordered(_residual_task, abl_payloads, WORKERS))
    abl_ratio = abl_ks["x^2"].ratio()
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
        zak, _ = residual_run(model, [phi_const(1.0, 1)], grid, cfg, SEED, 0)
        bundle = simulate_pair(model, grid, substream(SEED, TAG_PATH, 0))
        cloud = init_cloud(model.initial_law, RESID_PARTICLES, substream(SEED, TAG_INIT, 0))
        rho_one, rho_h = [], []
        for k in range(grid.n_steps + 1):
            shift = cloud.log_weights.max()
            w = np.exp(cloud.log_weights - shift)
            mass = math.exp(cloud.log_mass + shift)
            rho_one.append(mass * w.mean())
            h = model.h_now(cloud.states, bundle.y[k], k * grid.dt)[:, 0]
            rho_h.append(mass * np.mean(w * h))
            if k < grid.n_steps:
                cloud, _ = step(
                    cloud, model, bundle.y[k], bundle.y[k + 1] - bundle.y[k], grid.dt,
                    substream(SEED, TAG_PROPAGATE, 0, k), substream(SEED, TAG_RESAMPLE, 0, k), cfg,
                )
        direct, acc = np.zeros(grid.n_steps + 1), 0.0
        for k in range(grid.n_steps + 1):
            direct[k] = rho_one[k] - rho_one[0] - acc
            if k < grid.n_steps:
                acc += rho_h[k] * (bundle.y[k + 1, 0] - bundle.y[k, 0])
        gap = np.max(np.abs(zak["1"] - direct))
        scale = max(1.0, np.max(np.abs(direct)))
        ok &= gap <= 1e-12 * scale
        details.append(f"{name}: max gap {gap:.2e}")
    report(9, "Zakai phi=1 mass-equation reduction", ok, "; ".join(details))


# -- criterion 10: change detection vs grid-Bayes oracle ----------------------


def test_criterion_10_change_detection():
    from filterlab.cli import _change_detection_task

    payloads = [(1.0, 1e-3, 10_000, 0.5, SEED, i) for i in range(20)]
    gaps = map_ordered(_change_detection_task, payloads, WORKERS)
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
    grid = TimeGrid(1.0, 2e-3)
    model = make_model("jump_ou")
    ens = ensemble_from_model(model, grid, 4000, SEED)
    traj, ses, bound, ok_jou = gronwall_bound_check(ens, model.gronwall_rate, rate_factor=2.0)
    m_jou = float(np.max(traj / bound))

    b0, b = -0.5, 1.0
    ens_cd = verify.change_detection_gronwall_ensemble(
        b0, b, lambda rng: float(rng.uniform(0.25, 0.75)), grid, 4000, SEED
    )
    rate = 4.0 + (b0 + b) ** 2
    traj_cd, ses_cd, bound_cd, ok_cd = gronwall_bound_check(ens_cd, rate, rate_factor=1.0)
    m_cd = float(np.max(traj_cd / bound_cd))
    report(
        11,
        "Gronwall envelope E[Z_t(1+|X_t|^2)]",
        ok_jou and ok_cd,
        f"jump_ou c=2 max ratio {m_jou:.3f}; change_detection c(b)={rate:g} max ratio {m_cd:.3f}",
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
