"""Output checks of one round, made apart from filterlab.

Each check is computed by the benchmark itself: a scalar Kalman-Bucy
recursion for the correlated linear model, the closed-form references of the
martingale criteria, and exact identities the method must satisfy. None
compares against a stored copy of earlier output. Every workload runs the
same fixed list of checks in every round, so a run's count of attempted
operations depends only on its number of rounds.

filterlab decides many verdicts with a 3-standard-error band, which fails on
a few seeds in a hundred even when the program is right. Whether such a
verdict passes is therefore not an operation here. The benchmark judges the
estimate itself, in a band widened to a multiple of the written tolerance:
wide enough that a correct program stays inside it on every seed tried,
narrow enough that gross faults in the generator, the Dufresne kernel or
the Revuz-Yor ensembles leave it (see README.md for the seed sweeps and the
faults it was tried on). Rows whose
estimator has infinite variance are not judged; their references are.

A check returns (name, ok, detail). Missing or malformed files make the
checks that need them fail; they never stop the others.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import workloads

KALMAN_TOLERANCE = 0.05   # criteria 7-8's tolerance on the posterior mean and variance
REL = 1e-12               # a recomputed reference must match the verdict's to this
# filterlab writes a 3-SE tolerance; these widen it (README.md, "Output checks")
RESIDUAL_BAND = 10.0 / 3.0  # Zakai/KS residuals over 8 runs: |mean| <= 10 SE
MC_BAND = 2.0               # finite-variance martingale estimates over 10^4 paths: 6 SE


def read_table(path: Path, skip: int = 0) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[skip:]
    return rows[0], rows[1:]


def column(path: Path, name: str, skip: int = 0) -> list[float]:
    header, rows = read_table(path, skip)
    i = header.index(name)
    return [float(row[i]) for row in rows]


def read_verdicts(path: Path) -> dict[tuple[str, str], dict]:
    header, rows = read_table(path)
    out = {}
    for row in rows:
        rec = dict(zip(header, row))
        for key in ("estimate", "reference", "tolerance"):
            rec[key] = float(rec[key])
        rec["passed"] = rec["passed"] == "1"
        rec["expect_fail"] = rec["expect_fail"] == "1"
        out[(rec["check"], rec["scenario"])] = rec
    return out


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def riccati_closed_form(t: float, a: float, sigma_v: float, sigma_bar: float, h: float, p0: float) -> float:
    """Solution of dP/dt = 2 a P + sigma_v^2 + sigma_bar^2 - (h P + sigma_bar)^2.

    The right side is -h^2 (P - p1)(P - p2) with roots p1 > 0 > p2, so
    g = (P - p1)/(P - p2) decays like exp(-h^2 (p1 - p2) t)."""
    c = a - h * sigma_bar
    r = math.sqrt(c * c + h * h * sigma_v * sigma_v)
    p1, p2 = (c + r) / (h * h), (c - r) / (h * h)
    g = (p0 - p1) / (p0 - p2) * math.exp(-2.0 * r * t)
    return (p1 - g * p2) / (1.0 - g)


def kalman_bucy(y: list[float], dt: float, a: float, sigma_v: float, sigma_bar: float, h: float,
                m0: float, p0: float) -> tuple[list[float], float]:
    """Posterior mean at every grid time and variance at the last one for the
    scalar model dX = a X dt + sigma_v dV + sigma_bar dW, dY = h X dt + dW:
    the Riccati variance in closed form and the mean by Euler steps with the
    correlated gain K = P h + sigma_bar on the observed increments."""
    means = [m0]
    for k in range(len(y) - 1):
        m = means[-1]
        gain = riccati_closed_form(k * dt, a, sigma_v, sigma_bar, h, p0) * h + sigma_bar
        means.append(m + a * m * dt + gain * (y[k + 1] - y[k] - h * m * dt))
    return means, riccati_closed_form((len(y) - 1) * dt, a, sigma_v, sigma_bar, h, p0)


def _guard(name: str, fn) -> tuple[str, bool, str]:
    """Run one check; a missing file or column is that check failing."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return name, False, f"{type(exc).__name__}: {exc}"
    return name, bool(ok), detail


def _verdict_checks(verdicts_path: Path, expected: list[tuple[tuple[str, str], str, float]]) -> list:
    """One check per expected verdict row (key, side, widen): present, not a
    negative control, and its estimate within widen x its tolerance of its
    reference (`two` sided, or `upper`: estimate <= reference + widen x
    tolerance). At widen 1 the program's own verdict must pass as well."""
    out = []
    for key, side, widen in expected:
        def one(key=key, side=side, widen=widen):
            v = read_verdicts(verdicts_path)[key]
            gap, band = v["estimate"] - v["reference"], widen * v["tolerance"]
            inside = abs(gap) <= band if side == "two" else gap <= band
            verdict = v["passed"] or widen > 1.0
            return (verdict and not v["expect_fail"] and inside,
                    f"estimate {v['estimate']!r} reference {v['reference']!r} band {band!r}")
        out.append(_guard(f"verdict:{key[0]}[{key[1]}]", one))
    return out


def check_large_cloud(rundir: Path, configs: list[tuple[str, dict]]) -> list[tuple[str, bool, str]]:
    filt_cfg = dict(configs)["filter"]
    dt = filt_cfg["grid"]["dt"]
    n = filt_cfg["filter"]["n_particles"]
    paths_csv = rundir / "simulate" / "paths.csv"
    filter_csv = rundir / "filter" / "filter.csv"

    def kalman(which):
        def fn():
            y = column(paths_csv, "y_1", skip=1)
            mean = column(filter_csv, "pi:x")
            if len(y) != len(mean):
                return False, f"{len(y)} observations, {len(mean)} filter rows"
            means, var = kalman_bucy(y, dt, **workloads.CORRELATED_LINEAR)
            if which == "variance":
                got = column(filter_csv, "pi:x^2")[-1] - mean[-1] ** 2
                return abs(got - var) <= KALMAN_TOLERANCE, f"variance {got!r} vs {var!r}"
            # judged along the whole path: with resampling at every step the
            # horizon gap alone scatters by about 0.02 from seed to seed and
            # leaves the 0.05 band on about one seed in a hundred (see README)
            gap = sum(abs(a - b) for a, b in zip(mean, means)) / len(means)
            return gap <= KALMAN_TOLERANCE, f"mean |gap| {gap!r}, at the horizon {mean[-1] - means[-1]!r}"
        return fn

    def pi_one():
        bad = [v for v in column(filter_csv, "pi:1") if v != 1.0]
        return not bad, f"{len(bad)} rows differ from 1"

    def ess_range():
        bad = [v for v in column(filter_csv, "ess") if not 1.0 <= v <= n]
        return not bad, f"{len(bad)} rows outside [1, {n}]"

    def rho_positive():
        bad = [v for v in column(filter_csv, "rho1") if not (math.isfinite(v) and v > 0.0)]
        return not bad, f"{len(bad)} rows not finite and positive"

    def resamples_every_step():
        flags = column(filter_csv, "resampled")[1:]
        return flags and all(f == 1.0 for f in flags), f"{int(sum(flags))} of {len(flags)} steps resampled"

    out = [
        _guard("kalman_bucy:mean", kalman("mean")),
        _guard("kalman_bucy:variance", kalman("variance")),
        _guard("filter:pi_one_exact", pi_one),
        _guard("filter:ess_in_range", ess_range),
        _guard("filter:rho1_positive", rho_positive),
        _guard("filter:resamples_every_step", resamples_every_step),
    ]
    n_seeds = dict(configs)["verify"]["diagnostics"]["params"]["change_detection"]["n_seeds"]
    out += _verdict_checks(rundir / "verify" / "verdicts.csv", [
        (("kalman_agreement", "correlated_linear,mean"), "upper", 1.0),
        (("kalman_agreement", "correlated_linear,var"), "upper", 1.0),
        (("change_detection_oracle_gap", f"n_seeds={n_seeds}"), "upper", 1.0),
    ])
    return out


def check_small_cloud_residuals(rundir: Path, configs: list[tuple[str, dict]]) -> list[tuple[str, bool, str]]:
    params = dict(configs)["verify"]["diagnostics"]["params"]["ks_residual"]
    model, phis = params["model"], params["phis"]
    verify_dir = rundir / "verify"

    def trajectory(check, phi):
        slug = "".join(c if c.isalnum() else "_" for c in f"{check}_{model},phi={phi}")
        return column(verify_dir / f"trajectory_{slug}.csv", "mean_residual")

    def ks_constant_exact():
        bad = [v for v in trajectory("ks_residual", "1") if v != 0.0]
        v = read_verdicts(verify_dir / "verdicts.csv")[("ks_residual", f"{model},phi=1")]
        return not bad and v["estimate"] == 0.0 and v["passed"], f"{len(bad)} nonzero times, estimate {v['estimate']!r}"

    def start_at_zero():
        bad = [f"{c}:{phi}" for c in ("zakai_residual", "ks_residual") for phi in phis if trajectory(c, phi)[0] != 0.0]
        return not bad, f"nonzero at t=0: {bad}"

    def verdicts_match_trajectories():
        v = read_verdicts(verify_dir / "verdicts.csv")
        bad = [f"{c}:{phi}" for c in ("zakai_residual", "ks_residual") for phi in phis
               if not close(v[(c, f"{model},phi={phi}")]["estimate"], trajectory(c, phi)[-1])]
        return not bad, f"estimate differs from the trajectory's last value: {bad}"

    return [_guard("ks_residual:phi_1_exactly_zero", ks_constant_exact),
            _guard("residuals:zero_at_t0", start_at_zero),
            _guard("residuals:verdicts_match_trajectories", verdicts_match_trajectories),
            *_verdict_checks(verify_dir / "verdicts.csv", [
                ((c, f"{model},phi={phi}"), "two", RESIDUAL_BAND)
                for c in ("zakai_residual", "ks_residual") for phi in phis])]


def partial_sum_growth(levels=(1000, 10000)) -> float:
    """Log-growth per ln N of sum_{n <= N} n/(n+1)^2 between the two levels."""
    total, sums = 0.0, {}
    for n in range(1, max(levels) + 1):
        total += n / (n + 1.0) ** 2
        if n in levels:
            sums[n] = total
    return (sums[levels[1]] - sums[levels[0]]) / math.log(levels[1] / levels[0])


def check_martingale_mc(rundir: Path, configs: list[tuple[str, dict]]) -> list[tuple[str, bool, str]]:
    params = dict(configs)["verify"]["diagnostics"]["params"]
    path = rundir / "verify" / "verdicts.csv"
    e = math.e
    ry = params["revuz_yor_energy"]
    alpha, t = ry["alpha"], ry["t"]
    ry_scenario = f"alpha={alpha:g},t={t:g},transformed"
    zs_scenario = f"revuz_yor,t={params['zstar_bound']['t']:g}"
    times = params["martingale_mean"]["times"]
    barriers = params["hitting"]["barriers"]
    horizon = params["dufresne"]["horizon"]

    def refs(pairs):
        def fn():
            v = read_verdicts(path)
            bad = [f"{k}: {v[k]['reference']!r} vs {want!r}" for k, want in pairs(v) if not close(v[k]["reference"], want)]
            return not bad, "; ".join(bad)
        return fn

    out = [
        _guard("reference:revuz_yor_energy", refs(lambda v: [
            (("revuz_yor_energy", ry_scenario), (math.exp(2 * alpha * t) - 2 * alpha * t - 1) / 4)])),
        _guard("reference:zlogz_identity", refs(lambda v: [
            (("zlogz_identity", f"alpha={alpha:g},t={t:g}"), 0.5 * v[("revuz_yor_energy", ry_scenario)]["estimate"])])),
        _guard("reference:martingale_mean", refs(lambda v: [
            (("martingale_mean", f"revuz_yor,t={s:g}"), 1.0) for s in times])),
        _guard("reference:zstar_bound", refs(lambda v: [
            (("zstar_bound", zs_scenario),
             (e + 1) / (e - 1) + e / (2 * (e - 1)) * v[("energy_identity", zs_scenario)]["estimate"])])),
        _guard("reference:dufresne", refs(lambda v: [(("dufresne", f"horizon={horizon:g}"), math.exp(-2.0))])),
        _guard("reference:hitting", refs(lambda v: [
            (("hitting_probability", f"barrier={b}"), b / (b + 1.0)) for b in barriers])),
        _guard("estimate:divergence_partial_sums", lambda: (
            close(read_verdicts(path)[("divergence_partial_sums", "N=1000..10000")]["estimate"], partial_sum_growth()),
            f"recomputed {partial_sum_growth()!r}")),
    ]
    env = params["gronwall"]
    # jump_ou's Gronwall rate: max(2 |a|, sigma_v^2 + jump second moment, h^2) = max(2, 0.75, 1)
    env_scenario = f"{env['scenario']},c=2"
    # Z_1 of Revuz-Yor at alpha = 1 has infinite variance, so the t = 1 rows
    # of martingale_mean and energy_identity have no valid band; the earlier
    # times, the transformed representation and independent_h do
    out += _verdict_checks(path, [
        (("zstar_bound", zs_scenario), "upper", 1.0),
        (("local_boundedness", env_scenario), "upper", 1.0),
        (("gronwall_envelope", env_scenario), "upper", 1.0),
        *[(("hitting_probability", f"barrier={b}"), "two", 1.0) for b in barriers],
        (("divergence_partial_sums", "N=1000..10000"), "two", 1.0),
        (("revuz_yor_energy", ry_scenario), "two", MC_BAND),
        (("zlogz_identity", f"alpha={alpha:g},t={t:g}"), "two", MC_BAND),
        *[(("martingale_mean", f"revuz_yor,t={s:g}"), "two", MC_BAND) for s in times if s < 1.0],
        (("independent_h", f"t={params['independent_h']['t']:g}"), "two", MC_BAND),
        (("dufresne", f"horizon={horizon:g}"), "two", MC_BAND),
    ])
    return out


CHECKS = {
    "large_cloud": check_large_cloud,
    "small_cloud_residuals": check_small_cloud_residuals,
    "martingale_mc": check_martingale_mc,
}
