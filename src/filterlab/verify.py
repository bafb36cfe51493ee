"""Exact oracles and equation-residual checks.

Two designated brute-force references anchor every filter comparison: the
correlated-gain Kalman-Bucy recursion for linear models, and a grid-Bayes
posterior for the change-detection problem. The Zakai and
Kushner-Stratonovich checks accumulate the discrete residual of each
equation along many independent runs and test the terminal mean against its
standard error; time integrals use left-point sums on the simulation grid,
so discretisation error folds into the statistical band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import girsanov
from .filters import FilterConfig, init_cloud, step
from .girsanov import Estimate, mean_se
from .models import PhiAtStep, SignalModel, StepCoefficients, TestFunction
from .rng import (TAG_CHANGE_FILTER, TAG_DUFRESNE, TAG_HITTING, TAG_INIT, TAG_KALMAN_FILTER, TAG_PATH,
                  TAG_PROPAGATE, TAG_RESAMPLE, derive_seed, substream)
from .simulate import TimeGrid, simulate_counterexample_paths, simulate_pair

Array = np.ndarray


@dataclass
class CheckVerdict:
    """Machine-readable outcome of one verification check."""

    check: str
    scenario: str
    estimate: float
    reference: float
    tolerance: float
    passed: bool
    expect_fail: bool = False
    detail: str = ""
    trajectory: Optional[dict[str, Array]] = None   # column name -> series, incl. "t"

    def ok(self) -> bool:
        return self.passed != self.expect_fail

    def row(self) -> list[str]:
        return [
            self.check,
            self.scenario,
            repr(self.estimate),
            repr(self.reference),
            repr(self.tolerance),
            str(int(self.passed)),
            str(int(self.expect_fail)),
            self.detail,
        ]

    def trajectory_csv(self) -> Optional[str]:
        if not self.trajectory:
            return None
        names = list(self.trajectory)
        cols = [np.asarray(self.trajectory[name], dtype=float) for name in names]
        lines = [",".join(names)]
        for k in range(cols[0].shape[0]):
            lines.append(",".join("%.17g" % col[k] for col in cols))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Kalman-Bucy oracle (correlated observation noise)
# ---------------------------------------------------------------------------


@dataclass
class KalmanTrajectory:
    times: Array
    mean: Array   # (K+1, d)
    cov: Array    # (K+1, d, d)

    def variance(self, k: int, i: int = 0) -> float:
        return float(self.cov[k, i, i])


def kalman_bucy_oracle(
    a_x: Array,
    sigma_v: Array,
    sigma_bar: Array,
    h_mat: Array,
    m0: Array,
    p0: Array,
    y_path: Array,
    grid: TimeGrid,
) -> KalmanTrajectory:
    """Exact filter for the linear model dX = A x dt + S_v dV + S_bar dW,
    dY = H x dt + dW with unit observation noise.

    The correlated gain is K = P H^T + S_bar; the covariance follows the
    Riccati equation dP = A P + P A^T + S_v S_v^T + S_bar S_bar^T - K K^T
    (classical RK4, P symmetrised each step) and the mean follows
    dm = A m dt + K (dy - H m dt) (Euler on the observation increments).
    """
    a_x = np.atleast_2d(np.asarray(a_x, dtype=float))
    d = a_x.shape[0]
    sigma_v = np.atleast_2d(np.asarray(sigma_v, dtype=float))
    sigma_bar = np.atleast_2d(np.asarray(sigma_bar, dtype=float))
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    y_path = np.atleast_2d(np.asarray(y_path, dtype=float))
    k_steps = grid.n_steps
    if y_path.shape[0] != k_steps + 1:
        raise ValueError("observation path does not match the grid")
    q = sigma_v @ sigma_v.T + sigma_bar @ sigma_bar.T

    def riccati(p: Array) -> Array:
        gain = p @ h_mat.T + sigma_bar
        return a_x @ p + p @ a_x.T + q - gain @ gain.T

    mean = np.zeros((k_steps + 1, d))
    cov = np.zeros((k_steps + 1, d, d))
    mean[0] = np.asarray(m0, dtype=float).reshape(d)
    cov[0] = np.atleast_2d(np.asarray(p0, dtype=float))
    dt = grid.dt
    for k in range(k_steps):
        p = cov[k]
        gain = p @ h_mat.T + sigma_bar
        dy = y_path[k + 1] - y_path[k]
        mean[k + 1] = mean[k] + a_x @ mean[k] * dt + gain @ (dy - h_mat @ mean[k] * dt)
        k1 = riccati(p)
        k2 = riccati(p + 0.5 * dt * k1)
        k3 = riccati(p + 0.5 * dt * k2)
        k4 = riccati(p + dt * k3)
        nxt = p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        nxt = 0.5 * (nxt + nxt.T)
        if np.min(np.linalg.eigvalsh(nxt)) < -1e-10:
            raise ValueError(f"Riccati covariance lost positive semidefiniteness at step {k + 1}")
        cov[k + 1] = nxt
    return KalmanTrajectory(times=grid.times(), mean=mean, cov=cov)


def kalman_oracle_for_model(model: SignalModel, y_path: Array, grid: TimeGrid) -> KalmanTrajectory:
    """Kalman oracle wired to the scalar linear/affine built-ins."""
    probe = np.array([[1.0]])
    a_x = model.f(probe)[0]
    sigma_v = model.sigma(probe)[0]
    sigma_bar = model.sigma_bar(probe)[0]
    h_mat = model.h_now(probe, np.zeros(model.dim_y), 0.0)
    if model.initial_mean is None or model.initial_cov is None:
        raise ValueError("model declares no analytic prior moments for the oracle")
    return kalman_bucy_oracle(
        a_x, sigma_v, sigma_bar, h_mat, model.initial_mean, model.initial_cov, y_path, grid
    )


# ---------------------------------------------------------------------------
# Change-detection grid-Bayes oracle
# ---------------------------------------------------------------------------


@dataclass
class GridPosterior:
    """Exact discrete posterior over (b, tau) cells for one observation path."""

    b_values: Array
    tau_values: Array
    log_likelihood: Array       # (nb, nt) at the terminal time
    posterior: Array            # normalised joint mass at the terminal time
    prob_change: Array          # trajectory of P(T <= t | Y) on the grid
    posterior_b: Array          # marginal over b at the terminal time

    def mass_total(self) -> float:
        return float(self.posterior.sum())


def change_detection_oracle(
    b_values: Array,
    tau_values: Array,
    b_prior: Array,
    tau_prior: Array,
    b0: float,
    y_path: Array,
    grid: TimeGrid,
) -> GridPosterior:
    """Grid-Bayes posterior for the change-detection sensor
    h_{b,tau}(t, y) = (b0 + b 1_{t >= tau}) y.

    Each cell accumulates the exact discrete log-likelihood
    sum_k [h dy_k - h^2 dt / 2] with left-point y_k; the prior is applied
    once and the joint is renormalised at every grid time, so the
    P(T <= t | Y) trajectory comes out alongside the terminal posterior.
    """
    b_values = np.asarray(b_values, dtype=float)
    tau_values = np.asarray(tau_values, dtype=float)
    b_prior = np.asarray(b_prior, dtype=float)
    tau_prior = np.asarray(tau_prior, dtype=float)
    if b_values.size == 0 or tau_values.size == 0:
        raise ValueError("priors must be supported on non-empty grids")
    y = np.asarray(y_path, dtype=float).reshape(-1)
    if y.shape[0] != grid.n_steps + 1:
        raise ValueError("observation path does not match the grid")
    log_prior = np.log(np.outer(b_prior, tau_prior))
    loglik = np.zeros((b_values.size, tau_values.size))
    prob_change = np.zeros(grid.n_steps + 1)
    dt = grid.dt
    tau_col = tau_values[None, :]
    b_col = b_values[:, None]

    def change_marginal(t: float) -> float:
        joint = log_prior + loglik
        joint -= joint.max()
        mass = np.exp(joint)
        mass /= mass.sum()
        return float(mass[:, tau_values <= t].sum())

    prob_change[0] = change_marginal(0.0)
    for k in range(grid.n_steps):
        t = k * dt
        h = (b0 + b_col * (t >= tau_col)) * y[k]
        dy = y[k + 1] - y[k]
        loglik += h * dy - 0.5 * h * h * dt
        prob_change[k + 1] = change_marginal(t + dt)
    joint = log_prior + loglik
    joint -= joint.max()
    mass = np.exp(joint)
    mass /= mass.sum()
    if abs(mass.sum() - 1.0) > 1e-12:
        raise ValueError("posterior mass failed to normalise")
    return GridPosterior(
        b_values=b_values,
        tau_values=tau_values,
        log_likelihood=loglik,
        posterior=mass,
        prob_change=prob_change,
        posterior_b=mass.sum(axis=1),
    )


def change_detection_loglik_direct(b: float, tau: float, b0: float, y_path: Array, grid: TimeGrid) -> float:
    """Single-(b, tau) log-likelihood, for oracle self-consistency checks."""
    y = np.asarray(y_path, dtype=float).reshape(-1)
    out = 0.0
    for k in range(grid.n_steps):
        t = k * grid.dt
        h = (b0 + b * (t >= tau)) * y[k]
        out += h * (y[k + 1] - y[k]) - 0.5 * h * h * grid.dt
    return out


# ---------------------------------------------------------------------------
# Zakai / Kushner-Stratonovich residuals
# ---------------------------------------------------------------------------


@dataclass
class ResidualStats:
    phi_label: str
    n_runs: int
    mean_residual: Estimate
    trajectory: Array           # per-time mean residual

    def ratio(self) -> float:
        if self.mean_residual.se == 0.0:
            return 0.0 if self.mean_residual.value == 0.0 else math.inf
        return abs(self.mean_residual.value) / self.mean_residual.se


def residual_run(
    model: SignalModel,
    phis: Sequence[TestFunction],
    grid: TimeGrid,
    config: FilterConfig,
    seed: int,
    run_index: int,
    drop_correlation_term: bool = False,
) -> tuple[dict[str, Array], dict[str, Array]]:
    """One (data, filter) pair; returns per-phi Zakai and KS residual
    trajectories. All randomness derives from (seed, run_index)."""
    data_rng = substream(seed, TAG_PATH, run_index)
    bundle = simulate_pair(model, grid, data_rng)
    filter_seed_rng = substream(seed, TAG_INIT, run_index)
    cloud = init_cloud(model.initial_law, config.n_particles, filter_seed_rng)
    dt = grid.dt
    k_steps = grid.n_steps
    zak = {phi.label: np.zeros(k_steps + 1) for phi in phis}
    ks = {phi.label: np.zeros(k_steps + 1) for phi in phis}
    rho0: dict[str, float] = {}
    pi0: dict[str, float] = {}
    zak_int = {phi.label: 0.0 for phi in phis}
    ks_int = {phi.label: 0.0 for phi in phis}
    for k in range(k_steps + 1):
        y_k = bundle.y[k]
        t = k * dt
        shift = cloud.log_weights.max()
        w = np.exp(cloud.log_weights - shift)
        mass = math.exp(cloud.log_mass + shift)
        sw = np.sum(w)
        coeffs = StepCoefficients(model, cloud.states, y_k, t)
        pi_h = (w[:, None] * coeffs.h).sum(axis=0) / sw
        for phi in phis:
            at = PhiAtStep(phi, coeffs)
            vals = at.value
            w_vals = float(np.sum(w * vals))
            rho_phi = mass * w_vals / w.shape[0]
            pi_phi = w_vals / sw
            if k == 0:
                rho0[phi.label] = rho_phi
                pi0[phi.label] = pi_phi
            zak[phi.label][k] = rho_phi - rho0[phi.label] - zak_int[phi.label]
            ks[phi.label][k] = pi_phi - pi0[phi.label] - ks_int[phi.label]
            if k == k_steps:
                continue
            dy = bundle.y[k + 1] - y_k
            a_vals = at.generator()
            w_a = float(np.sum(w * a_vals))
            rho_d = mass * (w @ at.dphi()) / w.shape[0]
            zak_int[phi.label] += mass * w_a / w.shape[0] * dt + float(rho_d @ dy)
            # vals == 1 makes pi_phih the same reduction as pi_h, so the
            # KS integrand cancels to exactly zero for the constant function
            pi_phih = (w[:, None] * (vals[:, None] * coeffs.h)).sum(axis=0) / sw
            integrand = pi_phih - pi_h * pi_phi
            if not drop_correlation_term:
                integrand = integrand + (w @ at.correlation) / sw
            ks_int[phi.label] += w_a / sw * dt + float(integrand @ (dy - pi_h * dt))
        if k < k_steps:
            rng_prop = substream(seed, TAG_PROPAGATE, run_index, k)
            rng_res = substream(seed, TAG_RESAMPLE, run_index, k)
            cloud, _ = step(cloud, model, y_k, bundle.y[k + 1] - y_k, dt, rng_prop, rng_res, config)
    return zak, ks


def equation_residuals(
    runs: Sequence[tuple[dict[str, Array], dict[str, Array]]],
) -> tuple[dict[str, ResidualStats], dict[str, ResidualStats]]:
    """Zakai and Kushner-Stratonovich residual statistics per test function
    over the results of residual_run for independent (observation, filter)
    pairs.

    Residuals:
      Zakai: R_t = rho_t(phi) - rho_0(phi) - int rho_s(A phi) ds
                   - sum_j int rho_s(D_j phi) dY^j
      KS:    R_t = pi_t(phi) - pi_0(phi) - int pi_s(A phi) ds
                   - sum_j int [pi(phi h^j) - pi(h^j) pi(phi) + pi(B^j phi)]
                                (dY^j - pi(h^j) ds)
    with left-point integrands; residual_run's `drop_correlation_term`
    removes pi(B phi) from the KS integrand (ablation studies).
    """
    n_runs = len(runs)
    if n_runs < 2:
        raise ValueError("need at least 2 runs")
    stats: tuple[dict[str, ResidualStats], dict[str, ResidualStats]] = ({}, {})
    for which, out in enumerate(stats):
        for label in runs[0][which]:
            r = np.array([run[which][label] for run in runs])
            out[label] = ResidualStats(
                phi_label=label, n_runs=n_runs, mean_residual=mean_se(r[:, -1]), trajectory=r.mean(axis=0)
            )
    return stats


# ---------------------------------------------------------------------------
# Filter-vs-oracle agreement runs
# ---------------------------------------------------------------------------


def kalman_agreement_run(
    model: SignalModel,
    grid: TimeGrid,
    config: FilterConfig,
    seed: int,
    run_index: int,
) -> tuple[float, float]:
    """|posterior mean - oracle mean| and |posterior var - oracle var| at the
    horizon, for one data path; the oracle runs on the same observations."""
    from .filters import run_filter
    from .models import phi_coord, phi_quad

    bundle = simulate_pair(model, grid, substream(seed, TAG_PATH, run_index))
    oracle = kalman_oracle_for_model(model, bundle.y, grid)
    cfg = FilterConfig(
        n_particles=config.n_particles,
        resample_threshold=config.resample_threshold,
        seed=derive_seed(seed, TAG_KALMAN_FILTER, run_index),
        ignore_correlation=config.ignore_correlation,
    )
    run = run_filter(model, bundle.y, grid, cfg, phis=[phi_coord(0, 1), phi_quad(0, 0, 1)])
    m_pf = run.pi["x"][-1]
    v_pf = run.pi["x^2"][-1] - m_pf * m_pf
    return abs(m_pf - oracle.mean[-1, 0]), abs(v_pf - oracle.cov[-1, 0, 0])


def change_detection_agreement_run(
    model: SignalModel,
    grid: TimeGrid,
    config: FilterConfig,
    seed: int,
    run_index: int,
) -> float:
    """sup_t |particle P(T <= t | Y) - grid-Bayes P(T <= t | Y)| for one path."""
    from .filters import run_filter

    prior = model.change_prior
    bundle = simulate_pair(model, grid, substream(seed, TAG_PATH, run_index))
    oracle = change_detection_oracle(
        prior.b_values, prior.tau_values, prior.b_probs, prior.tau_probs, prior.b0, bundle.y, grid
    )
    cfg = FilterConfig(
        n_particles=config.n_particles,
        resample_threshold=config.resample_threshold,
        seed=derive_seed(seed, TAG_CHANGE_FILTER, run_index),
    )
    run = run_filter(
        model, bundle.y, grid, cfg,
        time_functionals={"prob_change": lambda states, t: (states[:, 1] <= t).astype(float)},
    )
    return float(np.max(np.abs(run.pi["prob_change"] - oracle.prob_change)))


# ---------------------------------------------------------------------------
# Closed-form scenario checks
# ---------------------------------------------------------------------------

DUFRESNE_TARGET = math.exp(-2.0)


def dufresne_check(n_paths: int, grid: TimeGrid, seed: int) -> tuple[Estimate, float, float]:
    """P(X_1 < 1) for X_1 = int_0^inf exp(B_s - s/2) ds, truncated at the
    grid horizon; the target is exp(-2).

    Returns (estimate, target, truncation allowance). The integrand's
    conditional mean decays like exp(-s/2), so the allowance is
    exp(-horizon / 2); a zero-or-tiny horizon is flagged by a huge allowance
    rather than silently accepted.
    """
    rng = substream(seed, TAG_DUFRESNE)
    paths = simulate_counterexample_paths("dufresne", {"n_paths": n_paths}, grid, rng)
    below = paths.x_trunc < 1.0
    est = mean_se(below.astype(float))
    allowance = math.exp(-grid.horizon / 2.0)
    return est, DUFRESNE_TARGET, allowance


def revuz_yor_energy(
    alpha: float, t: float, n_paths: int, dt: float, seed: int, representation: str = "transformed"
) -> tuple[Estimate, float]:
    """Monte Carlo transformed average energy of H = alpha W against the
    closed form (e^{2 alpha t} - 2 alpha t - 1)/4.

    representation="transformed" simulates under the measure where W solves
    dW = alpha W dt + dB (light-tailed estimator); "base" accumulates
    pathwise Z |H|^2 under the base measure.
    """
    grid = TimeGrid(horizon=t, dt=dt)
    closed = girsanov.revuz_yor_closed_form(alpha, t)
    if representation == "transformed":
        energy, _, _ = girsanov.revuz_yor_transformed_estimates(alpha, grid, n_paths, seed)
        return energy, closed
    if representation == "base":
        ens = girsanov.ensemble_revuz_yor(alpha, grid, n_paths, seed)
        return girsanov.transformed_energy_estimate(ens), closed
    raise ValueError(f"unknown representation {representation!r}")


def kazamaki_gap_check(
    n_list: Sequence[int], n_paths: int, dt: float, seed: int, partial_sum_levels: Sequence[int] = (1000, 10000)
):
    """Hitting probabilities of the Kazamaki-side counterexample plus the
    divergence diagnostic of its transformed energy.

    For each barrier n, the exit probability P(W hits -1 before n) is
    compared with n / (n + 1) (5 SE band: first passage on a grid is
    biased). The partial sums sum_{n <= N} n/(n+1)^2 are reported for
    growing N together with their log-growth rate, which approaches 1
    per ln N for the divergent series.
    """
    grid = TimeGrid(horizon=dt * 8, dt=dt)   # hitting paths run to absorption, not to a horizon
    rows = []
    for i, barrier in enumerate(n_list):
        rng = substream(seed, TAG_HITTING, i)
        paths = simulate_counterexample_paths(
            "hitting", {"barrier": barrier, "n_paths": n_paths}, grid, rng
        )
        resolved = paths.resolved
        est = mean_se(paths.hit_low[resolved].astype(float))
        ref = barrier / (barrier + 1.0)
        rows.append(
            CheckVerdict(
                check="hitting_probability",
                scenario=f"barrier={barrier}",
                estimate=est.value,
                reference=ref,
                tolerance=5.0 * est.se,
                passed=est.within(ref, n_se=5.0),
                detail=f"censored={int((~resolved).sum())}",
            )
        )
    sums = {}
    n_terms = np.arange(1, max(partial_sum_levels) + 1, dtype=float)
    series = n_terms / (n_terms + 1.0) ** 2
    csum = np.cumsum(series)
    for level in partial_sum_levels:
        sums[level] = float(csum[level - 1])
    levels = sorted(partial_sum_levels)
    growth = (sums[levels[-1]] - sums[levels[0]]) / math.log(levels[-1] / levels[0])
    return rows, sums, growth


def independence_identity_check(grid: TimeGrid, n_paths: int, seed: int):
    """Transformed vs plain energy for H independent of W."""
    ens = girsanov.ensemble_independent_h(grid, n_paths, seed)
    return girsanov.independent_h_identity_check(ens)


def local_boundedness_sweep(
    model: Optional[SignalModel],
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    rate: Optional[float] = None,
    rate_factor: float = 2.0,
    ensemble: Optional[girsanov.GirsanovEnsemble] = None,
):
    """Sweep of E[Z_t |H_t|^2] and E[|H_t|^2] under the Gronwall envelope
    c * exp(rate_factor * c * t) * E[U_0].

    Pass a prebuilt ensemble when the dominating process U is not 1 + |X|^2
    (the change-detection problem controls through U = 1 + Y^2)."""
    ens = ensemble if ensemble is not None else girsanov.ensemble_from_model(model, grid, n_paths, seed)
    c = rate if rate is not None else (model.gronwall_rate if model is not None else None)
    if c is None:
        raise ValueError("no Gronwall rate available")
    z = np.exp(ens.log_z[:, :-1])
    zh = z * ens.h_sq
    plain = ens.h_sq
    envelope = c * np.exp(rate_factor * c * grid.times()[:-1]) * ens.u[:, 0].mean()
    zh_mean = zh.mean(axis=0)
    plain_mean = plain.mean(axis=0)
    n = ens.n_paths
    ok = bool(np.all(zh_mean <= envelope + 3 * zh.std(axis=0, ddof=1) / np.sqrt(n)))
    ok = ok and bool(np.all(plain_mean <= envelope + 3 * plain.std(axis=0, ddof=1) / np.sqrt(n)))
    return zh_mean, plain_mean, envelope, ok


# ---------------------------------------------------------------------------
# Change-detection ensemble for the Gronwall check
# ---------------------------------------------------------------------------


def change_detection_gronwall_ensemble(
    b0: float, b: float, tau_sampler: Callable[[np.random.Generator], float],
    grid: TimeGrid, n_paths: int, seed: int,
) -> girsanov.GirsanovEnsemble:
    """Paths of (Y^b, Z^b) under the physical measure for a fixed change size
    b, with U = 1 + Y^2; the Gronwall rate is c(b) = 4 + (b0 + b)^2 and the
    sharpened envelope uses rate_factor 1."""
    k, dt = grid.n_steps, grid.dt
    sq = math.sqrt(dt)
    rng = substream(seed, TAG_PATH)
    taus = np.array([tau_sampler(rng) for _ in range(n_paths)])
    y = np.zeros(n_paths)
    log_z = np.zeros((n_paths, k + 1))
    h_sq = np.zeros((n_paths, k))
    u = np.zeros((n_paths, k + 1))
    u[:, 0] = 1.0
    for i in range(k):
        t = i * dt
        h = (b0 + b * (t >= taus)) * y
        h_sq[:, i] = h * h
        dw = rng.standard_normal(n_paths) * sq
        log_z[:, i + 1] = log_z[:, i] - h * dw - 0.5 * h_sq[:, i] * dt
        y += h * dt + dw
        u[:, i + 1] = 1.0 + y * y
    return girsanov.GirsanovEnsemble(grid=grid, log_z=log_z, h_sq=h_sq, u=u, label=f"change_detection(b={b:g})")
