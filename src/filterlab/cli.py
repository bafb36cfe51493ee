"""Scenario runner: binds models, the particle filter, the martingale
diagnostics and the verification checks to JSON configs and CSV outputs.

Subcommands: simulate | filter | verify | counterexample. Every run requires
an explicit seed (reproducibility is opt-out-impossible) and writes a
manifest carrying the config hash, seed and grid next to its outputs, so a
byte-identical rerun is always just `filterlab <cmd> --config <same file>`.

Exit codes: 0 ok, 2 config error, 3 simulation blow-up, 4 filter collapse,
5 verification-check failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import girsanov, verify
from .filters import FilterCollapse, FilterConfig, run_filter
from .models import SignalModel, change_detection_rate, make_model, phi_battery, phi_by_label
from .parallel import map_ordered
from .rng import TAG_PATH, substream
from .simulate import FLOAT_FMT, SimulationBlowUp, TimeGrid, jumps_to_csv, path_to_csv, simulate_pair
from .verify import CheckVerdict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_COLLAPSE = 4
EXIT_CHECK_FAILED = 5


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def require_seed(cfg: dict) -> int:
    if "seed" not in cfg:
        raise ConfigError("field 'seed' is required (no wall-clock default)")
    seed = cfg["seed"]
    if not isinstance(seed, int):
        raise ConfigError("field 'seed' must be an integer")
    return seed


def parse_grid(cfg: dict) -> TimeGrid:
    block = cfg.get("grid")
    if not isinstance(block, dict):
        raise ConfigError("field 'grid' (object with horizon, dt) is required")
    try:
        horizon = float(block["horizon"])
        dt = float(block["dt"])
    except KeyError as exc:
        raise ConfigError(f"grid field {exc.args[0]!r} is required")
    if dt <= 0:
        raise ConfigError("grid field 'dt' must be > 0")
    if horizon <= 0:
        raise ConfigError("grid field 'horizon' must be > 0")
    try:
        return TimeGrid(horizon=horizon, dt=dt)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}")


def parse_model(cfg: dict) -> tuple[SignalModel, str, dict]:
    block = cfg.get("model", {})
    if isinstance(block, str):
        block = {"name": block}
    if not isinstance(block, dict) or "name" not in block:
        raise ConfigError("field 'model.name' is required")
    name = block["name"]
    params = {k: v for k, v in block.items() if k != "name"}
    try:
        model = make_model(name, **params)
    except Exception as exc:
        raise ConfigError(f"model: {exc}")
    return model, name, params


def parse_filter(cfg: dict, seed: int) -> FilterConfig:
    block = cfg.get("filter", {})
    try:
        return FilterConfig(
            n_particles=int(block.get("n_particles", 1000)),
            resample_threshold=float(block.get("resample_threshold", 0.5)),
            resampler=block.get("resampler", "systematic"),
            seed=seed,
            ignore_correlation=bool(block.get("ignore_correlation", False)),
        )
    except ValueError as exc:
        raise ConfigError(f"filter: {exc}")


def write_manifest(out: Path, cfg: dict, command: str, seed: int) -> None:
    grid = cfg.get("grid", {})
    manifest = {
        "command": command,
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "seed": seed,
        "grid": {"horizon": grid.get("horizon"), "dt": grid.get("dt")},
        "scenario": cfg.get("model", {}).get("name") if isinstance(cfg.get("model"), dict) else cfg.get("model"),
        "package": "filterlab 0.1.0",
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Parallel worker tasks (top level: payloads must be picklable)
# ---------------------------------------------------------------------------


def _residual_task(payload: tuple):
    name, params, labels, horizon, dt, n_particles, threshold, ignore_corr, seed, idx, drop = payload
    model = make_model(name, **params)
    phis = [phi_by_label(lab, model.dim_x) for lab in labels]
    grid = TimeGrid(horizon=horizon, dt=dt)
    config = FilterConfig(
        n_particles=n_particles, resample_threshold=threshold, seed=seed, ignore_correlation=ignore_corr
    )
    return verify.residual_run(model, phis, grid, config, seed, idx, drop)


def _kalman_task(payload: tuple):
    name, params, horizon, dt, n_particles, threshold, ignore_corr, seed, idx = payload
    model = make_model(name, **params)
    grid = TimeGrid(horizon=horizon, dt=dt)
    config = FilterConfig(
        n_particles=n_particles, resample_threshold=threshold, seed=seed, ignore_correlation=ignore_corr
    )
    return verify.kalman_agreement_run(model, grid, config, seed, idx)


def _change_detection_task(payload: tuple):
    horizon, dt, n_particles, threshold, seed, idx = payload
    model = make_model("change_detection")
    grid = TimeGrid(horizon=horizon, dt=dt)
    config = FilterConfig(n_particles=n_particles, resample_threshold=threshold, seed=seed)
    return verify.change_detection_agreement_run(model, grid, config, seed, idx)


# ---------------------------------------------------------------------------
# Verification checks
# ---------------------------------------------------------------------------


def check_revuz_yor_energy(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    alpha = float(params.get("alpha", 1.0))
    t = float(params.get("t", 1.0))
    n_paths = int(params.get("n_paths", 10_000))
    dt = float(params.get("dt", 1e-3))
    representation = params.get("representation", "transformed")
    est, closed = verify.revuz_yor_energy(alpha, t, n_paths, dt, seed, representation)
    return [
        CheckVerdict(
            check="revuz_yor_energy",
            scenario=f"alpha={alpha:g},t={t:g},{representation}",
            estimate=est.value,
            reference=closed,
            tolerance=3.0 * est.se,
            passed=est.within(closed),
        )
    ]


def check_zlogz_identity(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    alpha = float(params.get("alpha", 1.0))
    t = float(params.get("t", 1.0))
    n_paths = int(params.get("n_paths", 10_000))
    dt = float(params.get("dt", 1e-3))
    grid = TimeGrid(horizon=t, dt=dt)
    energy, zlogz, gap = girsanov.revuz_yor_transformed_estimates(alpha, grid, n_paths, seed)
    return [
        CheckVerdict(
            check="zlogz_identity",
            scenario=f"alpha={alpha:g},t={t:g}",
            estimate=zlogz.value,
            reference=0.5 * energy.value,
            tolerance=3.0 * gap.se,
            passed=abs(gap.value) <= 3.0 * gap.se,
            detail=f"paired_gap={gap.value!r}",
        )
    ]


def _scenario_ensemble(scenario: str, grid: TimeGrid, n_paths: int, seed: int) -> girsanov.GirsanovEnsemble:
    if scenario == "revuz_yor":
        return girsanov.ensemble_revuz_yor(1.0, grid, n_paths, seed)
    if scenario == "independent_h":
        return girsanov.ensemble_independent_h(grid, n_paths, seed)
    return girsanov.ensemble_from_model(make_model(scenario), grid, n_paths, seed)


def check_martingale_mean(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    scenario = params.get("scenario", "revuz_yor")
    times = [float(t) for t in params.get("times", [0.25, 0.5, 1.0])]
    n_paths = int(params.get("n_paths", 10_000))
    dt = float(params.get("dt", 1e-3))
    grid = TimeGrid(horizon=max(times), dt=dt)
    ens = _scenario_ensemble(scenario, grid, n_paths, seed)
    checks, trajectory = girsanov.martingale_mean_check(ens, times)
    out = []
    for i, (t, est) in enumerate(checks.items()):
        out.append(
            CheckVerdict(
                check="martingale_mean",
                scenario=f"{scenario},t={t:g}",
                estimate=est.value,
                reference=1.0,
                tolerance=3.0 * est.se,
                passed=est.within(1.0),
                trajectory={"t": grid.times(), "mean_z": trajectory} if i == 0 else None,
            )
        )
    return out


def check_zstar_bound(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    scenario = params.get("scenario", "revuz_yor")
    t = float(params.get("t", 1.0))
    n_paths = int(params.get("n_paths", 10_000))
    dt = float(params.get("dt", 1e-3))
    grid = TimeGrid(horizon=t, dt=dt)
    ens = _scenario_ensemble(scenario, grid, n_paths, seed)
    lhs, rhs, ok = girsanov.zstar_bound_check(ens)
    return [
        CheckVerdict(
            check="zstar_bound",
            scenario=f"{scenario},t={t:g}",
            estimate=lhs.value,
            reference=rhs,
            tolerance=3.0 * lhs.se,
            passed=ok,
        )
    ]


def check_energy_identity(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    scenario = params.get("scenario", "revuz_yor")
    t = float(params.get("t", 1.0))
    n_paths = int(params.get("n_paths", 10_000))
    dt = float(params.get("dt", 1e-3))
    grid = TimeGrid(horizon=t, dt=dt)
    ens = _scenario_ensemble(scenario, grid, n_paths, seed)
    lhs, rhs, ok = girsanov.energy_identity_check(ens)
    return [
        CheckVerdict(
            check="energy_identity",
            scenario=f"{scenario},t={t:g}",
            estimate=lhs.value,
            reference=rhs.value,
            tolerance=3.0 * math.hypot(lhs.se, rhs.se),
            passed=ok,
        )
    ]


def check_independent_h(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    t = float(params.get("t", 1.0))
    n_paths = int(params.get("n_paths", 10_000))
    dt = float(params.get("dt", 1e-3))
    grid = TimeGrid(horizon=t, dt=dt)
    lhs, rhs, ok = verify.independence_identity_check(grid, n_paths, seed)
    return [
        CheckVerdict(
            check="independent_h",
            scenario=f"t={t:g}",
            estimate=lhs.value,
            reference=rhs.value,
            tolerance=3.0 * math.hypot(lhs.se, rhs.se),
            passed=ok,
        )
    ]


def check_local_boundedness(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    scenario = params.get("scenario", "jump_ou")
    n_paths = int(params.get("n_paths", 4000))
    dt = float(params.get("dt", 2e-3))
    horizon = float(params.get("horizon", 1.0))
    grid = TimeGrid(horizon=horizon, dt=dt)
    if scenario == "change_detection":
        b0 = float(params.get("b0", -0.5))
        b_max = float(params.get("b_max", 2.0))
        ens = verify.change_detection_gronwall_ensemble(
            b0, b_max, lambda rng: float(rng.uniform(0.25, 0.75)), grid, n_paths, seed
        )
        rate = change_detection_rate(b0, b_max)
        zh, plain, env, ok = verify.local_boundedness_sweep(
            None, grid, n_paths, seed, rate=rate, rate_factor=1.0, ensemble=ens
        )
    else:
        model = make_model(scenario)
        rate = model.gronwall_rate
        zh, plain, env, ok = verify.local_boundedness_sweep(model, grid, n_paths, seed)
    worst = int(np.argmax(zh - env))
    return [
        CheckVerdict(
            check="local_boundedness",
            scenario=f"{scenario},c={rate:g}",
            estimate=float(zh[worst]),
            reference=float(env[worst]),
            tolerance=0.0,
            passed=ok,
            trajectory={"t": grid.times()[:-1], "mean_z_hsq": zh, "mean_hsq": plain, "envelope": env},
        )
    ]


def check_dufresne(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    n_paths = int(params.get("n_paths", 10_000))
    horizon = float(params.get("horizon", 20.0))
    dt = float(params.get("dt", 1e-3))
    grid = TimeGrid(horizon=horizon, dt=dt)
    est, target, allowance = verify.dufresne_check(n_paths, grid, seed)
    truncation_valid = allowance < 0.01
    detail = f"truncation_allowance={allowance!r}"
    if not truncation_valid:
        detail += " truncation-invalid"
    return [
        CheckVerdict(
            check="dufresne",
            scenario=f"horizon={horizon:g}",
            estimate=est.value,
            reference=target,
            tolerance=3.0 * est.se + allowance,
            passed=truncation_valid and est.within(target, extra=allowance),
            detail=detail,
        )
    ]


def check_hitting(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    n_list = [int(n) for n in params.get("barriers", [1, 3, 9])]
    n_paths = int(params.get("n_paths", 12_000))
    dt = float(params.get("dt", 1e-4))
    rows, sums, growth = verify.kazamaki_gap_check(n_list, n_paths, dt, seed)
    levels = sorted(sums)
    rows.append(
        CheckVerdict(
            check="divergence_partial_sums",
            scenario=f"N={levels[0]}..{levels[-1]}",
            estimate=growth,
            reference=1.0,
            tolerance=0.05,
            passed=abs(growth - 1.0) < 0.05,
            detail=" ".join(f"S({n})={sums[n]:.4f}" for n in levels),
        )
    )
    return rows


def _kalman_check(params: dict, seed: int, workers: int, ablate: bool) -> list[CheckVerdict]:
    name = params.get("model", "correlated_linear" if (ablate or params.get("correlated")) else "linear_gaussian")
    n_seeds = int(params.get("n_seeds", 20))
    n_particles = int(params.get("n_particles", 10_000))
    dt = float(params.get("dt", 1e-3))
    horizon = float(params.get("horizon", 1.0))
    threshold = float(params.get("resample_threshold", 0.5))
    tol = float(params.get("tolerance", 0.05))
    payloads = [
        (name, {}, horizon, dt, n_particles, threshold, ablate, seed, i) for i in range(n_seeds)
    ]
    results = map_ordered(_kalman_task, payloads, workers)
    dmean = float(np.mean([r[0] for r in results]))
    dvar = float(np.mean([r[1] for r in results]))
    label = "kalman_ablation" if ablate else "kalman_agreement"
    return [
        CheckVerdict(
            check=label,
            scenario=f"{name},mean",
            estimate=dmean,
            reference=0.0,
            tolerance=tol,
            passed=dmean < tol,
            expect_fail=False,
        ),
        CheckVerdict(
            check=label,
            scenario=f"{name},var",
            estimate=dvar,
            reference=0.0,
            tolerance=tol,
            passed=dvar < tol,
            expect_fail=ablate,
        ),
    ]


def check_kalman_agreement(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    return _kalman_check(params, seed, workers, ablate=False)


def check_kalman_ablation(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    # negative control: correlation-blind filter on correlated data must
    # leave the oracle tolerance band
    verdicts = _kalman_check(params, seed, workers, ablate=True)
    for v in verdicts:
        v.expect_fail = True
    return verdicts


# residual_run results of the current `verify` call, keyed by everything they
# depend on (not the worker count), so residual checks with equal params share
# their runs; cmd_verify empties it when it returns
_RESIDUAL_RUNS: dict[tuple, list] = {}


def _residual_check(params: dict, seed: int, workers: int, which: str,
                    ablate_filter: bool = False) -> list[CheckVerdict]:
    name = params.get("model", "linear_gaussian")
    labels = params.get("phis", ["1", "x", "x^2", "tanh(x)"])
    n_runs = int(params.get("n_runs", 200))
    n_particles = int(params.get("n_particles", 400))
    dt = float(params.get("dt", 2.5e-3))
    horizon = float(params.get("horizon", 1.0))
    threshold = float(params.get("resample_threshold", 0.5))
    if n_runs < 2:
        raise ConfigError(f"{which}_residual: 'n_runs' must be >= 2")
    key = (name, tuple(labels), horizon, dt, n_particles, threshold, ablate_filter, seed, n_runs)
    if key not in _RESIDUAL_RUNS:
        payloads = [
            (name, {}, labels, horizon, dt, n_particles, threshold, ablate_filter, seed, i, False)
            for i in range(n_runs)
        ]
        _RESIDUAL_RUNS[key] = map_ordered(_residual_task, payloads, workers)
    zak_stats, ks_stats = verify.equation_residuals(_RESIDUAL_RUNS[key])
    stats = zak_stats if which == "zakai" else ks_stats
    grid = TimeGrid(horizon=horizon, dt=dt)
    out = []
    for lab in labels:
        st = stats[lab]
        est = st.mean_residual
        out.append(
            CheckVerdict(
                check=f"{which}_residual",
                scenario=f"{name},phi={lab}",
                estimate=est.value,
                reference=0.0,
                tolerance=3.0 * est.se,
                passed=abs(est.value) <= 3.0 * est.se,
                trajectory={"t": grid.times(), "mean_residual": st.trajectory},
            )
        )
    return out


def check_zakai_residual(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    return _residual_check(params, seed, workers, "zakai")


def check_ks_residual(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    return _residual_check(params, seed, workers, "ks")


def check_ks_residual_ablation(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    """Negative control: the correlation-blind filter violates the full
    Kushner-Stratonovich identity on the correlated model (the dropped
    B-correction leaves a drift the residual test detects)."""
    params = dict(params)
    params.setdefault("model", "correlated_linear")
    params.setdefault("phis", ["x^2"])
    params.setdefault("n_runs", 1200)
    verdicts = _residual_check(params, seed, workers, "ks", ablate_filter=True)
    for v in verdicts:
        v.expect_fail = True
    return verdicts


def check_change_detection(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    n_seeds = int(params.get("n_seeds", 20))
    n_particles = int(params.get("n_particles", 10_000))
    dt = float(params.get("dt", 1e-3))
    horizon = float(params.get("horizon", 1.0))
    threshold = float(params.get("resample_threshold", 0.5))
    tol = float(params.get("tolerance", 0.05))
    payloads = [(horizon, dt, n_particles, threshold, seed, i) for i in range(n_seeds)]
    gaps = map_ordered(_change_detection_task, payloads, workers)
    mean_gap = float(np.mean(gaps))
    return [
        CheckVerdict(
            check="change_detection_oracle_gap",
            scenario=f"n_seeds={n_seeds}",
            estimate=mean_gap,
            reference=0.0,
            tolerance=tol,
            passed=mean_gap < tol,
            detail=f"max_gap={max(gaps)!r}",
        )
    ]


def check_gronwall(params: dict, seed: int, workers: int) -> list[CheckVerdict]:
    scenario = params.get("scenario", "jump_ou")
    n_paths = int(params.get("n_paths", 4000))
    dt = float(params.get("dt", 2e-3))
    horizon = float(params.get("horizon", 1.0))
    grid = TimeGrid(horizon=horizon, dt=dt)
    if scenario == "change_detection":
        b0 = float(params.get("b0", -0.5))
        b = float(params.get("b", 1.0))
        ens = verify.change_detection_gronwall_ensemble(
            b0, b, lambda rng: float(rng.uniform(0.25, 0.75)), grid, n_paths, seed
        )
        rate = change_detection_rate(b0, b)
        factor = 1.0   # the change-detection estimate is sharp in c(b)
    else:
        model = make_model(scenario)
        ens = girsanov.ensemble_from_model(model, grid, n_paths, seed)
        rate = model.gronwall_rate
        factor = 2.0
    traj, ses, bound, ok = girsanov.gronwall_bound_check(ens, rate, factor)
    worst = int(np.argmax(traj - bound))
    return [
        CheckVerdict(
            check="gronwall_envelope",
            scenario=f"{scenario},c={rate:g}",
            estimate=float(traj[worst]),
            reference=float(bound[worst]),
            tolerance=3.0 * float(ses[worst]),
            passed=ok,
            detail=f"worst_t={grid.times()[worst]:.4g}",
            trajectory={"t": grid.times(), "mean_zu": traj, "se": ses, "bound": bound},
        )
    ]


CHECKS: dict[str, Callable[[dict, int, int], list[CheckVerdict]]] = {
    "revuz_yor_energy": check_revuz_yor_energy,
    "zlogz_identity": check_zlogz_identity,
    "martingale_mean": check_martingale_mean,
    "zstar_bound": check_zstar_bound,
    "energy_identity": check_energy_identity,
    "independent_h": check_independent_h,
    "local_boundedness": check_local_boundedness,
    "dufresne": check_dufresne,
    "hitting": check_hitting,
    "kalman_agreement": check_kalman_agreement,
    "kalman_ablation": check_kalman_ablation,
    "zakai_residual": check_zakai_residual,
    "ks_residual": check_ks_residual,
    "ks_residual_ablation": check_ks_residual_ablation,
    "change_detection": check_change_detection,
    "gronwall": check_gronwall,
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: dict, out: Path, workers: int = 1) -> int:
    seed = require_seed(cfg)
    grid = parse_grid(cfg)
    model, _, _ = parse_model(cfg)
    bundle = simulate_pair(model, grid, substream(seed, TAG_PATH, 0))
    bundle.seed = seed
    out.mkdir(parents=True, exist_ok=True)
    (out / "paths.csv").write_text(path_to_csv(bundle), encoding="utf-8")
    if model.levy is not None:
        (out / "jumps.csv").write_text(jumps_to_csv(bundle), encoding="utf-8")
    write_manifest(out, cfg, "simulate", seed)
    return EXIT_OK


def cmd_filter(cfg: dict, out: Path, workers: int = 1) -> int:
    seed = require_seed(cfg)
    grid = parse_grid(cfg)
    model, name, _ = parse_model(cfg)
    config = parse_filter(cfg, seed)
    bundle = simulate_pair(model, grid, substream(seed, TAG_PATH, 0))
    phis = phi_battery(model.dim_x)
    functionals = {}
    if name == "change_detection":
        functionals["prob_change"] = lambda states, t: (states[:, 1] <= t).astype(float)
    run = run_filter(model, bundle.y, grid, config, phis=phis, time_functionals=functionals)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    labels = list(run.pi.keys())
    writer.writerow(["t"] + [f"pi:{lab}" for lab in labels] + ["rho1", "ess", "resampled"])
    for k in range(grid.n_steps + 1):
        row = [FLOAT_FMT % run.times[k]]
        row += [FLOAT_FMT % run.pi[lab][k] for lab in labels]
        row += [FLOAT_FMT % run.rho_one[k], FLOAT_FMT % run.ess[k]]
        row += [str(int(run.resampled[k - 1])) if k > 0 else "0"]
        writer.writerow(row)
    out.mkdir(parents=True, exist_ok=True)
    (out / "filter.csv").write_text(buf.getvalue(), encoding="utf-8")
    write_manifest(out, cfg, "filter", seed)
    return EXIT_OK


def cmd_verify(cfg: dict, out: Path, workers: int = 1) -> int:
    seed = require_seed(cfg)
    diag = cfg.get("diagnostics", {})
    names = diag.get("checks")
    if not names:
        raise ConfigError("field 'diagnostics.checks' must name at least one check")
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}; available: {', '.join(sorted(CHECKS))}")
    params_all = diag.get("params", {})
    verdicts: list[CheckVerdict] = []
    try:
        for name in names:
            verdicts.extend(CHECKS[name](params_all.get(name, {}), seed, workers))
    finally:
        _RESIDUAL_RUNS.clear()
    out.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "scenario", "estimate", "reference", "tolerance", "passed", "expect_fail", "detail"])
    for v in verdicts:
        writer.writerow(v.row())
        traj = v.trajectory_csv()
        if traj is not None:
            slug = "".join(c if c.isalnum() else "_" for c in f"{v.check}_{v.scenario}")
            (out / f"trajectory_{slug}.csv").write_text(traj, encoding="utf-8")
    (out / "verdicts.csv").write_text(buf.getvalue(), encoding="utf-8")
    write_manifest(out, cfg, "verify", seed)
    n_pass = sum(1 for v in verdicts if v.passed)
    for v in verdicts:
        status = "pass" if v.passed else ("expected-fail" if v.expect_fail else "FAIL")
        print(f"{v.check} [{v.scenario}]: {status} (estimate {v.estimate:.6g}, reference {v.reference:.6g})")
    print(f"passed {n_pass}/{len(verdicts)}")
    return EXIT_OK if n_pass == len(verdicts) else EXIT_CHECK_FAILED


def cmd_counterexample(cfg: dict, out: Path, workers: int = 1) -> int:
    seed = require_seed(cfg)
    block = cfg.get("counterexample")
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("field 'counterexample.kind' is required")
    kind = block["kind"]
    out.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if kind == "revuz_yor":
        alpha = float(block.get("alpha", 1.0))
        t = float(block.get("t", 1.0))
        n_paths = int(block.get("n_paths", 10_000))
        dt = float(block.get("dt", 1e-3))
        grid = TimeGrid(horizon=t, dt=dt)
        ens = girsanov.ensemble_revuz_yor(alpha, grid, n_paths, seed)
        report = girsanov.diagnostics_report(ens)
        buf.write(girsanov.diagnostics_to_csv([report], seed))
        energy, zlogz, gap = girsanov.revuz_yor_transformed_estimates(alpha, grid, n_paths, seed)
        writer.writerow([report.label, "transformed_energy_tilted", repr(energy.value), repr(energy.se),
                         str(n_paths), str(seed)])
        writer.writerow([report.label, "closed_form", repr(girsanov.revuz_yor_closed_form(alpha, t)), repr(0.0),
                         str(n_paths), str(seed)])
    elif kind == "dufresne":
        n_paths = int(block.get("n_paths", 10_000))
        horizon = float(block.get("horizon", 20.0))
        dt = float(block.get("dt", 1e-3))
        grid = TimeGrid(horizon=horizon, dt=dt)
        est, target, allowance = verify.dufresne_check(n_paths, grid, seed)
        writer.writerow(["scenario", "quantity", "estimate", "se", "n_paths", "seed"])
        writer.writerow(["dufresne", "p_below_one", repr(est.value), repr(est.se), str(n_paths), str(seed)])
        writer.writerow(["dufresne", "target", repr(target), repr(allowance), str(n_paths), str(seed)])
    elif kind == "hitting":
        n_list = [int(n) for n in block.get("barriers", [1, 3, 9])]
        n_paths = int(block.get("n_paths", 12_000))
        dt = float(block.get("dt", 1e-4))
        rows, sums, growth = verify.kazamaki_gap_check(n_list, n_paths, dt, seed)
        writer.writerow(["scenario", "quantity", "estimate", "reference", "tolerance", "detail"])
        for v in rows:
            writer.writerow([v.scenario, v.check, repr(v.estimate), repr(v.reference), repr(v.tolerance), v.detail])
        for level, s in sorted(sums.items()):
            writer.writerow([f"N={level}", "partial_sum", repr(s), "", "", ""])
        writer.writerow(["growth_per_logN", "divergence_fit", repr(growth), "1.0", "", ""])
    else:
        raise ConfigError(f"unknown counterexample kind {kind!r}")
    (out / "counterexample.csv").write_text(buf.getvalue(), encoding="utf-8")
    write_manifest(out, cfg, "counterexample", seed)
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "filter": cmd_filter,
    "verify": cmd_verify,
    "counterexample": cmd_counterexample,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="filterlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON scenario config")
        p.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=1, help="worker processes for parallel checks")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = Path(args.out or cfg.get("out") or ".")
        return COMMANDS[args.command](cfg, out, max(1, args.workers))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationBlowUp as exc:
        print(f"simulation blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except FilterCollapse as exc:
        print(f"filter collapse: {exc}", file=sys.stderr)
        return EXIT_COLLAPSE


if __name__ == "__main__":
    sys.exit(main())
