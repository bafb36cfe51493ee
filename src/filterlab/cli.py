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
import inspect
import io
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__, girsanov, verify
from .filters import FilterCollapse, FilterConfig, run_filter
from .models import Battery, ModelError, SignalModel, change_detection_rate, make_model
from .parallel import Plan, run_plans
from .rng import TAG_PATH, substream
from .simulate import HITTING_MAX_TIME, SimulationBlowUp, TimeGrid, simulate_pair
from .verify import DUFRESNE_MIN_HORIZON, CheckVerdict

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


# top-level keys; each subcommand reads the blocks it needs and ignores the rest
CONFIG_KEYS = ("seed", "out", "grid", "model", "filter", "diagnostics", "counterexample")


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
    _reject_unknown(cfg, CONFIG_KEYS, "")
    return cfg


def _reject_unknown(block, allowed, where: str) -> None:
    """Raise ConfigError naming `where.key` for the first key of block not in allowed."""
    if not isinstance(block, dict):
        raise ConfigError(f"field {where!r} must be an object")
    for key in block:
        if key not in allowed:
            dotted = f"{where}.{key}" if where else key
            raise ConfigError(f"unknown key {dotted!r}; allowed: {', '.join(sorted(allowed)) or 'none'}")


# the fewest paths, runs and seeds a check can turn into an estimate with a
# standard error, and the lowest hitting barrier n (below 1 the interval (-1, n) is empty)
MINIMUMS = {"n_paths": 2, "n_runs": 2, "n_seeds": 1, "barriers": 1}


def keyword_params(fn: Callable, block, where: str) -> dict:
    """Bind a config block to the keyword-only parameters of fn: their names
    are the block's keys, and a value is coerced to the type of its default
    (a non-empty list to a tuple of the default's element type; a bool takes only
    JSON true or false, a number only a finite one and an int only an
    integral one). An unknown key, a
    value that does not coerce, a value that fn could not use (an unknown
    model, scenario, test-function label (or one named twice),
    representation or resampler, a dt <= 0 or a time that dt does not divide or splits into more steps than
    TimeGrid indexes (for the hitting kinds, which take barriers, HITTING_MAX_TIME), a
    time span t or horizon, or the largest of times, <= 0, a
    filter setting FilterConfig refuses, an alpha <= 0 or one whose e^{2 alpha t}
    overflows a float, a count or barrier below MINIMUMS), a
    change-detection key given to another scenario, a model without
    kalman_inputs given to a Kalman check, or a dufresne check horizon of
    at most DUFRESNE_MIN_HORIZON raises ConfigError naming `where.key`."""
    defaults = {p.name: p.default for p in inspect.signature(fn).parameters.values() if p.kind is p.KEYWORD_ONLY}
    kwargs = read_block(block, defaults, where)
    params = dict(defaults, **kwargs)
    ensembles = ENSEMBLES if inspect.unwrap(fn) in ENSEMBLE_CHECKS else ()

    def grid(span: float) -> TimeGrid:
        _positive(span)
        return TimeGrid(horizon=span, dt=params["dt"])

    # build what the params name, as fn would, so that a bad value fails before any check runs
    builds = {
        "model": lambda: make_model(params["model"]),
        "phis": lambda: Battery(params["phis"], make_model(params["model"]).dim_x),
        "scenario": lambda: params["scenario"] in ensembles or make_model(params["scenario"]),
        "representation": lambda: _one_of(params["representation"], REPRESENTATIONS),
        "alpha": lambda: _revuz_yor_alpha(params["alpha"], params["t"]),
        # a hitting walk runs to HITTING_MAX_TIME, where it censors what it has not resolved
        "dt": lambda: TimeGrid(horizon=HITTING_MAX_TIME if "barriers" in params else 0.0, dt=params["dt"]),
        "t": lambda: grid(params["t"]),
        "horizon": lambda: grid(params["horizon"]),
        "times": lambda: list(map(grid(max(params["times"])).index_of, params["times"])),
        "n_particles": lambda: FilterConfig(n_particles=params["n_particles"]),
        "resample_threshold": lambda: FilterConfig(resample_threshold=params["resample_threshold"]),
        "resampler": lambda: _one_of(params["resampler"], ("systematic",)),
    }
    for key, build in builds.items():
        if key in params:
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"'{where}.{key}': {exc}") from None
    for key, low in MINIMUMS.items():
        if np.min(params.get(key, low), initial=low) < low:   # every element of a tuple
            raise ConfigError(f"'{where}.{key}' must be >= {low}")
    if params.get("scenario") != "change_detection":
        for key in kwargs:
            if key in CHANGE_DETECTION_KEYS:
                raise ConfigError(f"'{where}.{key}' is read only with scenario 'change_detection'")
    # matched by name, which a functools.wraps wrapper of check_dufresne keeps
    if fn.__name__ == "check_dufresne" and params["horizon"] <= DUFRESNE_MIN_HORIZON:
        raise ConfigError(f"'{where}.horizon' must exceed 2 ln 100 ~ 9.21 (below it the closed-form tail, "
                          "not the simulated paths, carries much of the estimate)")
    if inspect.unwrap(fn) in KALMAN_CHECKS and make_model(params["model"]).kalman_inputs is None:
        raise ConfigError(f"'{where}.model': model {params['model']!r} has no Kalman-Bucy oracle (the filter is "
                          "exact only for a linear model without jumps)")
    return kwargs


def read_block(block, defaults: dict, where: str) -> dict:
    """The keys of block, each of which defaults must have, with each value
    read as the type of its default (a list as a tuple of the type of the
    default's elements, and at least one); a key or value that does not
    read raises ConfigError naming `where.key`."""
    _reject_unknown(block, defaults, where)
    kwargs = {}
    for key, value in block.items():
        default = defaults[key]
        if isinstance(default, tuple) and value == []:
            raise ConfigError(f"'{where}.{key}' must list at least one value")
        try:
            if not isinstance(default, tuple):
                kwargs[key] = _coerce(type(default), value)
            elif isinstance(value, list):
                kwargs[key] = tuple(_coerce(type(default[0]), v) for v in value)
            else:
                raise TypeError
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"cannot read '{where}.{key}' = {value!r} as {type(default).__name__}") from None
    return kwargs


def _coerce(kind: type, value):
    """value as kind; a bool takes only JSON true or false, a str only a JSON
    string, a float only a finite number (json reads NaN and Infinity) and an
    int only an integral one."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    if isinstance(value, bool) != (kind is bool) or (kind in (int, float) and not number) or (
            kind is int and not float(value).is_integer()) or (kind is str and not isinstance(value, str)):
        raise TypeError
    return kind(value)


def _one_of(value: str, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{value!r} is not one of {', '.join(map(repr, choices))}")


def _positive(value: float) -> None:
    if not value > 0:
        raise ValueError(f"must be > 0, not {value!r}")


# the largest x with a finite exp(x): the Revuz-Yor closed form needs e^{2 alpha t}
MAX_EXPONENT = math.log(sys.float_info.max)


def _revuz_yor_alpha(alpha: float, t: float) -> None:
    _positive(alpha)
    if 2.0 * alpha * t > MAX_EXPONENT:
        raise ValueError(f"2 alpha t = {2.0 * alpha * t:g} overflows e^(2 alpha t) (at most {MAX_EXPONENT:.6g})")


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def require_seed(cfg: dict) -> int:
    if "seed" not in cfg:
        raise ConfigError("field 'seed' is required (no wall-clock default)")
    seed = cfg["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("field 'seed' must be a non-negative integer")
    return seed


def parse_grid(cfg: dict) -> TimeGrid:
    block = cfg.get("grid")
    if not isinstance(block, dict):
        raise ConfigError("field 'grid' (object with horizon, dt) is required")
    params = read_block(block, {"horizon": 0.0, "dt": 0.0}, "grid")
    for key in ("horizon", "dt"):
        if key not in params:
            raise ConfigError(f"grid field {key!r} is required")
    horizon, dt = params["horizon"], params["dt"]
    if dt <= 0:
        raise ConfigError("grid field 'dt' must be > 0")
    if horizon <= 0:
        raise ConfigError("grid field 'horizon' must be > 0")
    try:
        return TimeGrid(horizon=horizon, dt=dt)
    except ValueError as exc:
        raise ConfigError(f"'grid.horizon' / 'grid.dt': {exc}")


# the keys of each model block besides `name`: make_model's overrides, each
# with a value of the type it is read as (a tuple: a list of floats)
LINEAR_KEYS = dict.fromkeys(("a_x", "sigma_v", "sigma_bar", "h_scale", "x0_mean", "x0_var"), 0.0)
MODEL_KEYS = {
    "linear": LINEAR_KEYS,
    "linear_gaussian": LINEAR_KEYS,
    "correlated_linear": LINEAR_KEYS,
    "change_detection": dict(b0=0.0, **dict.fromkeys(("b_values", "b_probs", "tau_values", "tau_probs"), (0.0,))),
    "jump_ou": {},
}


def parse_model(cfg: dict) -> SignalModel:
    block = cfg.get("model", {})
    if isinstance(block, str):
        block = {"name": block}
    if not isinstance(block, dict) or "name" not in block:
        raise ConfigError("field 'model.name' is required")
    name = block["name"]
    if not isinstance(name, str) or name not in MODEL_KEYS:
        raise ConfigError(f"unknown 'model.name' {name!r}; available: {', '.join(MODEL_KEYS)}")
    params = read_block({k: v for k, v in block.items() if k != "name"}, MODEL_KEYS[name], "model")
    try:
        model = make_model(name, **params)
    except ModelError as exc:
        raise ConfigError(f"'model.{exc.key}': {exc}" if exc.key else f"model: {exc}") from None
    return model


def filter_config(seed: int, *, n_particles=1000, resample_threshold=0.5, resampler="systematic",
                  ignore_correlation=False) -> FilterConfig:
    """The FilterConfig of the `filter` block, whose keys and defaults are the keyword parameters."""
    return FilterConfig(n_particles=n_particles, resample_threshold=resample_threshold, seed=seed,
                        ignore_correlation=ignore_correlation)


def write_manifest(out: Path, cfg: dict, command: str, seed: int) -> None:
    grid = cfg.get("grid") if isinstance(cfg.get("grid"), dict) else {}
    manifest = {
        "command": command,
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "seed": seed,
        "grid": {"horizon": grid.get("horizon"), "dt": grid.get("dt")},
        "scenario": cfg.get("model", {}).get("name") if isinstance(cfg.get("model"), dict) else cfg.get("model"),
        "package": f"filterlab {__version__}",
        "bit_generator": type(substream(seed).bit_generator).__name__,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Verification checks. A check is a plan (parallel.run_plans): check(seed,
# **params) yields the tasks it reads and returns its verdicts. Its keyword
# parameters are the keys of its diagnostics.params block (keyword_params).
# ---------------------------------------------------------------------------


# runs per residual task: fixed, and a run's bytes do not depend on its block anyway
RESIDUAL_BLOCK = 16


def _residual_block(name: str, labels: tuple, grid: TimeGrid, config: FilterConfig, indices: tuple):
    """residual_run of model `name` and test functions `labels` over the runs `indices`."""
    model = make_model(name)
    return verify.residual_run(model, Battery(labels, model.dim_x), grid, config, indices)


def residual_runs(params: tuple, n_runs: int) -> Plan:
    """A plan of runs 0 .. n_runs - 1 of _residual_block's arguments `params`
    (all but the run indices), in blocks of RESIDUAL_BLOCK: the Zakai and KS
    residuals of residual_run, (n_runs, K, K_steps + 1) in run order."""
    blocks = yield [(_residual_block, *params, tuple(range(i, min(i + RESIDUAL_BLOCK, n_runs))))
                    for i in range(0, n_runs, RESIDUAL_BLOCK)]
    zakai, ks = zip(*blocks)
    return np.concatenate(zakai), np.concatenate(ks)


REPRESENTATIONS = ("transformed", "base")


def check_revuz_yor_energy(seed: int, *, alpha=1.0, t=1.0, n_paths=10_000, dt=1e-3,
                           representation="transformed") -> Plan:
    """Transformed average energy of H = alpha W against the closed form
    (e^{2 alpha t} - 2 alpha t - 1)/4. "transformed" simulates under the
    measure where W solves dW = alpha W dt + dB (light-tailed estimator);
    "base" averages int Z |H|^2 ds under the base measure."""
    grid = TimeGrid(horizon=t, dt=dt)
    if representation == "transformed":
        [(est, _, _)] = yield [(girsanov.revuz_yor_transformed_estimates, alpha, grid, n_paths, seed)]
    elif representation == "base":
        [ens] = yield [(girsanov.ensemble_revuz_yor, alpha, grid, n_paths, seed)]
        est = girsanov.mean_se(ens.energy)
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return [CheckVerdict.band("revuz_yor_energy", f"alpha={alpha:g},t={t:g},{representation}", est.value,
                              girsanov.revuz_yor_closed_form(alpha, t), est.se)]


def check_zlogz_identity(seed: int, *, alpha=1.0, t=1.0, n_paths=10_000, dt=1e-3) -> Plan:
    grid = TimeGrid(horizon=t, dt=dt)
    [(energy, zlogz, gap)] = yield [(girsanov.revuz_yor_transformed_estimates, alpha, grid, n_paths, seed)]
    return [CheckVerdict.band("zlogz_identity", f"alpha={alpha:g},t={t:g}", zlogz.value, 0.5 * energy.value, gap.se,
                              detail=f"paired_gap={gap.value!r}")]


# scenarios of the martingale checks that are not signal models
ENSEMBLES = ("revuz_yor", "independent_h")


def _model_ensemble(name: str, grid: TimeGrid, n_paths: int, seed: int) -> girsanov.GirsanovEnsemble:
    return girsanov.ensemble_from_model(make_model(name), grid, n_paths, seed)


def _scenario_task(scenario: str, grid: TimeGrid, n_paths: int, seed: int) -> tuple:
    """The task whose result is the ensemble of a martingale check's scenario."""
    if scenario == "revuz_yor":
        return girsanov.ensemble_revuz_yor, 1.0, grid, n_paths, seed
    if scenario == "independent_h":
        return girsanov.ensemble_independent_h, grid, n_paths, seed
    return _model_ensemble, scenario, grid, n_paths, seed


def check_martingale_mean(seed: int, *, scenario="revuz_yor", times=(0.25, 0.5, 1.0), n_paths=10_000,
                          dt=1e-3) -> Plan:
    grid = TimeGrid(horizon=max(times), dt=dt)
    [ens] = yield [_scenario_task(scenario, grid, n_paths, seed)]
    out = []
    for i, t in enumerate(dict.fromkeys(times)):   # a time named twice gets one row
        est = ens.z.at(grid.index_of(t))
        out.append(CheckVerdict.band("martingale_mean", f"{scenario},t={t:g}", est.value, 1.0, est.se,
                                     trajectory={"t": grid.times(), "mean_z": ens.z.mean} if i == 0 else None))
    return out


def check_zstar_bound(seed: int, *, scenario="revuz_yor", t=1.0, n_paths=10_000, dt=1e-3) -> Plan:
    """Maximal bound E[Z*_t] <= (e+1)/(e-1) + e/(2(e-1)) E[int Z |H|^2 ds]. The
    SE of lhs - rhs combines the lhs SE with the slope times the energy SE."""
    [ens] = yield [_scenario_task(scenario, TimeGrid(horizon=t, dt=dt), n_paths, seed)]
    lhs, energy = girsanov.mean_se(ens.z_star), girsanov.mean_se(ens.energy)
    return [CheckVerdict.upper_band("zstar_bound", f"{scenario},t={t:g}", lhs.value,
                                    girsanov.MAXIMAL_CONST + girsanov.MAXIMAL_SLOPE * energy.value,
                                    math.hypot(lhs.se, girsanov.MAXIMAL_SLOPE * energy.se))]


def check_energy_identity(seed: int, *, scenario="revuz_yor", t=1.0, n_paths=10_000, dt=1e-3) -> Plan:
    """The two sides of the energy identity on the same paths:
    E[int Z_s |H_s|^2 ds] = E[Z_t int |H_s|^2 ds]."""
    [ens] = yield [_scenario_task(scenario, TimeGrid(horizon=t, dt=dt), n_paths, seed)]
    lhs, rhs = girsanov.mean_se(ens.energy), girsanov.mean_se(np.exp(ens.log_z_t) * ens.plain_energy)
    return [CheckVerdict.band("energy_identity", f"{scenario},t={t:g}", lhs.value, rhs.value,
                              math.hypot(lhs.se, rhs.se))]


# the checks whose scenario may also name one of ENSEMBLES
ENSEMBLE_CHECKS = (check_martingale_mean, check_zstar_bound, check_energy_identity)


def check_independent_h(seed: int, *, t=1.0, n_paths=10_000, dt=1e-3) -> Plan:
    [ens] = yield [_scenario_task("independent_h", TimeGrid(horizon=t, dt=dt), n_paths, seed)]
    lhs, rhs = girsanov.mean_se(ens.energy), girsanov.mean_se(ens.plain_energy)
    return [CheckVerdict.band("independent_h", f"t={t:g}", lhs.value, rhs.value, math.hypot(lhs.se, rhs.se))]


# the keys of the Gronwall-type checks that only the change-detection scenario reads
CHANGE_DETECTION_KEYS = ("b0", "b_max", "b")


def _gronwall_scenario(scenario: str, grid: TimeGrid, n_paths: int, seed: int, b0: float,
                       b: float) -> tuple[tuple, float, float]:
    """(ensemble task, Gronwall rate, rate factor) of a Gronwall-type check. A
    signal model dominates through U = 1 + |X|^2 with the generic factor 2;
    the change-detection problem at change size b dominates through
    U = 1 + Y^2, where its estimate is sharp in c(b), so the factor is 1."""
    if scenario == "change_detection":
        task = (girsanov.change_detection_gronwall_ensemble, b0, b, grid, n_paths, seed)
        return task, change_detection_rate(b0, b), 1.0
    return (_model_ensemble, scenario, grid, n_paths, seed), make_model(scenario).gronwall_rate, 2.0


def check_local_boundedness(seed: int, *, scenario="jump_ou", n_paths=4000, dt=2e-3, horizon=1.0, b0=-0.5,
                            b_max=2.0) -> Plan:
    """E[Z_t |H_t|^2] and E[|H_t|^2] at every left point under the Gronwall
    envelope c exp(rate_factor c t) E[U_0] of _gronwall_scenario."""
    grid = TimeGrid(horizon=horizon, dt=dt)
    task, rate, factor = _gronwall_scenario(scenario, grid, n_paths, seed, b0, b_max)
    [ens] = yield [task]
    times = grid.times()[:-1]
    means = np.array([ens.z_h_sq.mean, ens.h_sq.mean])
    env = rate * np.exp(factor * rate * times) * ens.u0_mean
    return [CheckVerdict.upper_band(
        "local_boundedness", f"{scenario},c={rate:g}", means, env, [ens.z_h_sq.se, ens.h_sq.se], times,
        trajectory={"t": times, "mean_z_hsq": means[0], "mean_hsq": means[1], "envelope": env},
    )]


def check_dufresne(seed: int, *, n_paths=10_000, horizon=20.0, dt=1e-3) -> Plan:
    est, target, correction = yield from verify.dufresne_check(n_paths, TimeGrid(horizon=horizon, dt=dt), seed)
    return [CheckVerdict.band("dufresne", f"horizon={horizon:g}", est.value, target, est.se,
                              detail=f"truncation_correction={correction!r}")]


def check_hitting(seed: int, *, barriers=(1, 3, 9), n_paths=12_000, dt=1e-4) -> Plan:
    rows, sums, growth = yield from verify.kazamaki_gap_check(barriers, n_paths, dt, seed)
    levels = sorted(sums)
    rows.append(CheckVerdict(check="divergence_partial_sums", scenario=f"N={levels[0]}..{levels[-1]}", estimate=growth,
                             reference=1.0, tolerance=0.05, detail=" ".join(f"S({n})={sums[n]:.4f}" for n in levels)))
    return rows


def _kalman_check(seed: int, model: str, n_seeds: int, n_particles: int, dt: float, horizon: float,
                  resample_threshold: float, tolerance: float, ablate: bool = False) -> Plan:
    grid = TimeGrid(horizon=horizon, dt=dt)
    config = FilterConfig(n_particles=n_particles, resample_threshold=resample_threshold, seed=seed,
                          ignore_correlation=ablate)
    results = yield [(verify.kalman_agreement_run, model, grid, config, i) for i in range(n_seeds)]
    dmean = float(np.mean([r[0] for r in results]))
    dvar = float(np.mean([r[1] for r in results]))
    return [
        CheckVerdict(
            check="kalman_ablation" if ablate else "kalman_agreement",
            scenario=f"{model},{stat}",
            estimate=value,
            reference=0.0,
            tolerance=tolerance,
            expect_fail=ablate,
            one_sided=True,
        )
        for stat, value in (("mean", dmean), ("var", dvar))
    ]


def check_kalman_agreement(seed: int, *, model="linear_gaussian", n_seeds=20, n_particles=10_000, dt=1e-3,
                           horizon=1.0, resample_threshold=0.5, tolerance=0.05) -> Plan:
    return _kalman_check(seed, model, n_seeds, n_particles, dt, horizon, resample_threshold, tolerance)


def check_kalman_ablation(seed: int, *, model="correlated_linear", n_seeds=20, n_particles=10_000, dt=1e-3,
                          horizon=1.0, resample_threshold=0.5, tolerance=0.05) -> Plan:
    """Negative control: the correlation-blind filter on correlated data must leave the oracle band."""
    return _kalman_check(seed, model, n_seeds, n_particles, dt, horizon, resample_threshold, tolerance, True)


# the checks whose model must declare the inputs of the Kalman-Bucy oracle
KALMAN_CHECKS = (check_kalman_agreement, check_kalman_ablation)


RESIDUAL_PHIS = Battery.default(1).labels


def _residual_check(seed: int, model: str, phis: tuple, n_runs: int, n_particles: int, dt: float, horizon: float,
                    resample_threshold: float, which: str, ablate: bool = False) -> Plan:
    grid = TimeGrid(horizon=horizon, dt=dt)
    config = FilterConfig(n_particles=n_particles, resample_threshold=resample_threshold, seed=seed,
                          ignore_correlation=ablate)
    runs = yield from residual_runs((model, phis, grid, config), n_runs)
    zak_stats, ks_stats = verify.equation_residuals(phis, *runs)
    stats = zak_stats if which == "zakai" else ks_stats
    out = []
    for lab in phis:
        est = stats[lab].mean_residual
        out.append(CheckVerdict.band(f"{which}_residual", f"{model},phi={lab}", est.value, 0.0, est.se,
                                     trajectory={"t": grid.times(), "mean_residual": stats[lab].trajectory},
                                     expect_fail=ablate))
    return out


def check_zakai_residual(seed: int, *, model="linear_gaussian", phis=RESIDUAL_PHIS, n_runs=200, n_particles=400,
                         dt=2.5e-3, horizon=1.0, resample_threshold=0.5) -> Plan:
    return _residual_check(seed, model, phis, n_runs, n_particles, dt, horizon, resample_threshold, "zakai")


def check_ks_residual(seed: int, *, model="linear_gaussian", phis=RESIDUAL_PHIS, n_runs=200, n_particles=400,
                      dt=2.5e-3, horizon=1.0, resample_threshold=0.5) -> Plan:
    return _residual_check(seed, model, phis, n_runs, n_particles, dt, horizon, resample_threshold, "ks")


def check_ks_residual_ablation(seed: int, *, model="correlated_linear", phis=("x^2",), n_runs=2200,
                               n_particles=400, dt=2.5e-3, horizon=1.0, resample_threshold=0.5) -> Plan:
    """Negative control: the correlation-blind filter violates the full
    Kushner-Stratonovich identity on the correlated model (the dropped
    B-correction leaves a drift the residual test detects)."""
    return _residual_check(seed, model, phis, n_runs, n_particles, dt, horizon, resample_threshold, "ks", True)


def check_change_detection(seed: int, *, n_seeds=20, n_particles=10_000, dt=1e-3, horizon=1.0,
                           resample_threshold=0.5, tolerance=0.05) -> Plan:
    config = FilterConfig(n_particles=n_particles, resample_threshold=resample_threshold, seed=seed)
    grid = TimeGrid(horizon=horizon, dt=dt)
    gaps = yield [(verify.change_detection_agreement_run, grid, config, i) for i in range(n_seeds)]
    return [CheckVerdict(check="change_detection_oracle_gap", scenario=f"n_seeds={n_seeds}",
                         estimate=float(np.mean(gaps)), reference=0.0, tolerance=tolerance,
                         detail=f"max_gap={max(gaps)!r}", one_sided=True)]


def check_gronwall(seed: int, *, scenario="jump_ou", n_paths=4000, dt=2e-3, horizon=1.0, b0=-0.5, b=1.0) -> Plan:
    """sup_t E[Z_t U_t] <= exp(rate_factor c t) E[U_0] at every grid time, with
    the Gronwall rate c and factor of _gronwall_scenario."""
    grid = TimeGrid(horizon=horizon, dt=dt)
    task, rate, factor = _gronwall_scenario(scenario, grid, n_paths, seed, b0, b)
    [ens] = yield [task]
    bound = np.exp(factor * rate * grid.times()) * ens.u0_mean
    return [CheckVerdict.upper_band(
        "gronwall_envelope", f"{scenario},c={rate:g}", ens.zu.mean, bound, ens.zu.se, grid.times(),
        trajectory={"t": grid.times(), "mean_zu": ens.zu.mean, "se": ens.zu.se, "bound": bound},
    )]


CHECKS: dict[str, Callable[..., Plan]] = {
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


# counterexample kinds, each a plan: kind(seed, **params) returns CSV rows, with
# the keys and defaults of the counterexample block as keyword parameters
def counterexample_revuz_yor(seed: int, *, alpha=1.0, t=1.0, n_paths=10_000, dt=1e-3) -> Plan:
    """The P-side martingale diagnostics of H = alpha W at the horizon, the
    transformed energy estimated under the tilted measure, and its closed form."""
    grid = TimeGrid(horizon=t, dt=dt)
    ens, (tilted, _, _) = yield [(girsanov.ensemble_revuz_yor, alpha, grid, n_paths, seed),
                                 (girsanov.revuz_yor_transformed_estimates, alpha, grid, n_paths, seed)]
    quantities = {
        "e_z": ens.z.at(grid.n_steps),
        "transformed_energy": girsanov.mean_se(ens.energy),
        "z_log_z": girsanov.mean_se(np.exp(ens.log_z_t) * ens.log_z_t),
        "z_star": girsanov.mean_se(ens.z_star),
        "plain_energy": girsanov.mean_se(ens.plain_energy),
        "transformed_energy_tilted": tilted,
        "closed_form": girsanov.Estimate(girsanov.revuz_yor_closed_form(alpha, t), 0.0),
    }
    return [["scenario", "quantity", "estimate", "se", "n_paths", "seed"]] + [
        [ens.label, key, repr(est.value), repr(est.se), str(n_paths), str(seed)] for key, est in quantities.items()]


def counterexample_dufresne(seed: int, *, n_paths=10_000, horizon=20.0, dt=1e-3) -> Plan:
    est, target, correction = yield from verify.dufresne_check(n_paths, TimeGrid(horizon=horizon, dt=dt), seed)
    return [
        ["scenario", "quantity", "estimate", "se", "n_paths", "seed"],
        ["dufresne", "p_below_one", repr(est.value), repr(est.se), str(n_paths), str(seed)],
        ["dufresne", "target", repr(target), repr(correction), str(n_paths), str(seed)],
    ]


def counterexample_hitting(seed: int, *, barriers=(1, 3, 9), n_paths=12_000, dt=1e-4) -> Plan:
    rows, sums, growth = yield from verify.kazamaki_gap_check(barriers, n_paths, dt, seed)
    out = [["scenario", "quantity", "estimate", "reference", "tolerance", "detail"]]
    out += [[v.scenario, v.check, repr(v.estimate), repr(v.reference), repr(v.tolerance), v.detail] for v in rows]
    out += [[f"N={level}", "partial_sum", repr(s), "", "", ""] for level, s in sorted(sums.items())]
    out.append(["growth_per_logN", "divergence_fit", repr(growth), "1.0", "", ""])
    return out


COUNTEREXAMPLES: dict[str, Callable[..., Plan]] = {
    "revuz_yor": counterexample_revuz_yor,
    "dufresne": counterexample_dufresne,
    "hitting": counterexample_hitting,
}


# ---------------------------------------------------------------------------
# Commands: cmd(cfg, seed, worker count) -> (files as name -> text, exit code);
# main writes the files, every table through csv_table. verify and
# counterexample run all their plans through one run_plans: one task pool per command
# ---------------------------------------------------------------------------


FLOAT_FMT = "%.17g"   # 17 significant digits: every float64 reads back exactly


def csv_table(rows) -> str:
    """An iterable of rows of strings as CSV text, a field quoted only where it must be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def float_table(header: list[str], columns) -> str:
    """The header and one row per index of columns (1-D arrays, or 2-D blocks
    of several columns, of equal length), each entry as FLOAT_FMT; an
    integral entry below 2^53 reads as its int. Rows are formatted as the
    writer takes them, so no table of strings is held at once."""
    rows = ([FLOAT_FMT % v for v in row.tolist()] for row in np.column_stack(columns))
    return csv_table(itertools.chain([header], rows))


def cmd_simulate(cfg: dict, seed: int, workers: int = 1) -> tuple[dict[str, str], int]:
    grid = parse_grid(cfg)
    model = parse_model(cfg)
    bundle = simulate_pair(model, grid, substream(seed, TAG_PATH, 0))
    header = ["step", "t"] + [f"x_{i + 1}" for i in range(model.dim_x)] + [f"y_{j + 1}" for j in range(model.dim_y)]
    files = {"paths.csv": csv_table([[f"# horizon={grid.horizon!r} dt={grid.dt!r} seed={seed!r}"]])
             + float_table(header, [np.arange(grid.n_steps + 1), grid.times(), bundle.x, bundle.y])}
    if model.levy is not None:
        files["jumps.csv"] = float_table(["step"] + [f"mark_{i + 1}" for i in range(model.levy.dim)],
                                         [bundle.jump_steps, bundle.jump_marks])
    return files, EXIT_OK


def cmd_filter(cfg: dict, seed: int, workers: int = 1) -> tuple[dict[str, str], int]:
    grid = parse_grid(cfg)
    model = parse_model(cfg)
    config = filter_config(seed, **keyword_params(filter_config, cfg.get("filter", {}), "filter"))
    bundle = simulate_pair(model, grid, substream(seed, TAG_PATH, 0))
    run = run_filter(model, bundle.y, grid, config, battery=Battery.default(model.dim_x))
    header = ["t"] + [f"pi:{lab}" for lab in run.pi] + ["rho1", "ess", "resampled"]
    columns = [run.times, *run.pi.values(), run.rho_one, run.ess, np.concatenate([[False], run.resampled])]
    return {"filter.csv": float_table(header, columns)}, EXIT_OK


def cmd_verify(cfg: dict, seed: int, workers: int = 1) -> tuple[dict[str, str], int]:
    diag = cfg.get("diagnostics", {})
    _reject_unknown(diag, ("checks", "params"), "diagnostics")
    names = diag.get("checks")
    if not isinstance(names, list) or not names or not all(isinstance(name, str) for name in names):
        raise ConfigError("field 'diagnostics.checks' must be a list naming at least one check")
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}; available: {', '.join(sorted(CHECKS))}")
    params_all = diag.get("params", {})
    _reject_unknown(params_all, CHECKS, "diagnostics.params")
    bound = {}
    for name, block in params_all.items():
        if name not in names:
            raise ConfigError(f"'diagnostics.params.{name}' is given, but 'diagnostics.checks' does not name {name!r}")
        bound[name] = keyword_params(CHECKS[name], block, f"diagnostics.params.{name}")
    plans = [CHECKS[name](seed, **bound.get(name, {})) for name in names]
    verdicts = [v for rows in run_plans(plans, workers) for v in rows]
    files = {}
    for v in verdicts:
        if v.trajectory:
            slug = "".join(c if c.isalnum() else "_" for c in f"{v.check}_{v.scenario}")
            files[f"trajectory_{slug}.csv"] = float_table(list(v.trajectory), list(v.trajectory.values()))
    files["verdicts.csv"] = csv_table([CheckVerdict.HEADER] + [v.row() for v in verdicts])
    n_ok = sum(1 for v in verdicts if v.ok())
    for v in verdicts:
        status = "FAIL" if not v.ok() else ("expected-fail" if v.expect_fail else "pass")
        print(f"{v.check} [{v.scenario}]: {status} (estimate {v.estimate:.6g}, reference {v.reference:.6g})")
    # a negative control is ok when it fails, so the count and the exit code follow ok(), not passed
    print(f"passed {n_ok}/{len(verdicts)}")
    return files, EXIT_OK if n_ok == len(verdicts) else EXIT_CHECK_FAILED


def cmd_counterexample(cfg: dict, seed: int, workers: int = 1) -> tuple[dict[str, str], int]:
    block = cfg.get("counterexample")
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("field 'counterexample.kind' is required")
    if not isinstance(block["kind"], str) or block["kind"] not in COUNTEREXAMPLES:
        raise ConfigError(f"unknown 'counterexample.kind' {block['kind']!r}; available: {', '.join(COUNTEREXAMPLES)}")
    fn = COUNTEREXAMPLES[block["kind"]]
    kwargs = keyword_params(fn, {k: v for k, v in block.items() if k != "kind"}, "counterexample")
    [rows] = run_plans([fn(seed, **kwargs)], workers)
    return {"counterexample.csv": csv_table(rows)}, EXIT_OK


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
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes of the command's one task pool (verify, counterexample)")
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"'--workers' must be >= 1, not {args.workers}")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        seed = require_seed(cfg)
        out = cfg.get("out", "")
        if not isinstance(out, str):
            raise ConfigError(f"field 'out' must be a string naming the output directory, not {out!r}")
        out_dir = Path(args.out or out or ".")
        # refused before the command runs; the directory itself is made only once the command succeeds
        if any((p.exists() or p.is_symlink()) and not p.is_dir() for p in (out_dir, *out_dir.parents)):
            raise ConfigError(f"'out' (or --out) {str(out_dir)!r} is a file or lies under one, not a directory")
        files, code = COMMANDS[args.command](cfg, seed, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationBlowUp as exc:
        print(f"simulation blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except FilterCollapse as exc:
        print(f"filter collapse: {exc}", file=sys.stderr)
        return EXIT_COLLAPSE
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    write_manifest(out_dir, cfg, args.command, seed)
    return code


if __name__ == "__main__":
    sys.exit(main())
