"""Exact oracles and equation-residual checks.

Two designated brute-force references anchor every filter comparison: the
scalar correlated-gain Kalman-Bucy recursion for linear models, and a
grid-Bayes posterior for the change-detection problem. The Zakai and
Kushner-Stratonovich checks accumulate the discrete residual of each
equation along many independent runs and test the terminal mean against its
standard error; time integrals use left-point sums on the simulation grid,
so discretisation error folds into the statistical band. Both read the same
pi_t estimates, the Zakai one as rho_t(phi) = rho_t(1) pi_t(phi) (the
Kallianpur-Striebel formula), and the dY integrand D_j phi = h^j phi + B^j phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Optional, Sequence

import numpy as np

from .filters import FilterConfig, _walk, pi_estimate, run_filter
from .girsanov import Estimate, mean_se
from .models import Battery, ChangePrior, SignalModel, make_model
from .parallel import Plan
from .rng import TAG_CHANGE_FILTER, TAG_KALMAN_FILTER, TAG_PATH, derive_seed, substream
from .simulate import PATH_CHUNK, TimeGrid, dufresne_paths, hitting_paths, simulate_pair, simulate_pairs

Array = np.ndarray


# the width of a statistical row's band in standard errors of its estimate
SIGMAS = 3.0
# hitting probabilities get a wider band: a path on a grid is seen to cross a
# barrier only at grid times, after it has overshot, which biases first passage
HITTING_SIGMAS = 5.0


@dataclass
class CheckVerdict:
    """Machine-readable outcome of one verification check. It passes when
    |estimate - reference| <= tolerance, or, for a one-sided row (an upper
    bound), when estimate - reference <= tolerance. A statistical row is made
    by `band` or `upper_band`, whose tolerance is SIGMAS standard errors; a row
    against a fixed tolerance uses the plain constructor."""

    check: str
    scenario: str
    estimate: float
    reference: float
    tolerance: float
    expect_fail: bool = False
    detail: str = ""
    trajectory: Optional[dict[str, Array]] = None   # column name -> series, incl. "t"
    one_sided: bool = False

    @classmethod
    def band(cls, check: str, scenario: str, estimate: float, reference: float, se: float,
             sigmas: Optional[float] = None, **fields) -> "CheckVerdict":
        """The two-sided row |estimate - reference| <= sigmas * se, with
        sigmas = SIGMAS unless given."""
        tolerance = (SIGMAS if sigmas is None else sigmas) * se
        return cls(check, scenario, float(estimate), float(reference), float(tolerance), **fields)

    @classmethod
    def upper_band(cls, check: str, scenario: str, estimate, reference, se, times=None,
                   trajectory=None) -> "CheckVerdict":
        """The one-sided verdict of estimate <= reference + SIGMAS * se at
        every point, written at the point with the largest margin over its
        band, so that the row passes exactly when every point does. `times`,
        if given, names that point and the largest estimate/reference over t > 0."""
        est, ref, se, at = (np.ravel(a) for a in np.broadcast_arrays(estimate, reference, se,
                                                                     0.0 if times is None else times))
        tol = SIGMAS * se
        worst = int(np.argmax(est - (ref + tol)))
        detail = "" if times is None else f"worst_t={at[worst]:.4g}"
        later = at > 0   # none without times
        if later.any():
            detail += f" max_ratio={np.max(est[later] / ref[later]):.4g}"
        return cls(check, scenario, float(est[worst]), float(ref[worst]), float(tol[worst]), detail=detail,
                   trajectory=trajectory, one_sided=True)

    @property
    def passed(self) -> bool:
        gap = self.estimate - self.reference
        return bool((gap if self.one_sided else abs(gap)) <= self.tolerance)

    def ok(self) -> bool:
        return self.passed != self.expect_fail

    HEADER: ClassVar[tuple[str, ...]] = ("check", "scenario", "estimate", "reference", "tolerance", "passed",
                                         "expect_fail", "detail")   # the columns of row()

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


# ---------------------------------------------------------------------------
# Kalman-Bucy oracle (correlated observation noise)
# ---------------------------------------------------------------------------


@dataclass
class KalmanTrajectory:
    """Posterior mean and variance of a scalar state (d = 1) at each grid time."""

    mean: Array   # (K+1, 1)
    cov: Array    # (K+1, 1, 1)


def kalman_bucy_oracle(
    a_x: float,
    sigma_v: float,
    sigma_bar: float,
    h: float,
    m0: float,
    p0: float,
    y_path: Array,
    grid: TimeGrid,
) -> KalmanTrajectory:
    """Exact filter for the scalar linear model dX = a x dt + s_v dV + s_bar dW,
    dY = h x dt + dW with unit observation noise (d = 1), given the six
    floats of SignalModel.kalman_inputs and a (K+1,) or (K+1, 1)
    observation path.

    The correlated gain is K = P h + s_bar; the variance follows the
    Riccati equation dP = a P + P a + s_v^2 + s_bar^2 - K^2 (classical RK4)
    and the mean follows dm = a m dt + K (dy - h m dt) (Euler on the
    observation increments), both in Python floats.
    """
    a, s_v, s_bar, h = float(a_x), float(sigma_v), float(sigma_bar), float(h)
    q = s_v * s_v + s_bar * s_bar
    y = np.asarray(y_path, dtype=float).reshape(-1)
    if y.shape[0] != grid.n_steps + 1:
        raise ValueError("observation path does not match the grid")
    y = y.tolist()

    def riccati(p: float) -> float:
        gain = p * h + s_bar
        return a * p + p * a + q - gain * gain

    dt = grid.dt
    m, p = float(m0), float(p0)
    mean, cov = [m], [p]
    for k in range(grid.n_steps):
        gain = p * h + s_bar
        m = m + a * m * dt + gain * (y[k + 1] - y[k] - h * m * dt)
        k1 = riccati(p)
        k2 = riccati(p + 0.5 * dt * k1)
        k3 = riccati(p + 0.5 * dt * k2)
        k4 = riccati(p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if p < -1e-10:
            raise ValueError(f"Riccati variance went negative at step {k + 1}")
        mean.append(m)
        cov.append(p)
    return KalmanTrajectory(mean=np.array(mean)[:, None], cov=np.array(cov)[:, None, None])


# ---------------------------------------------------------------------------
# Change-detection grid-Bayes oracle
# ---------------------------------------------------------------------------


@dataclass
class GridPosterior:
    """Exact discrete posterior over (b, tau) cells for one observation path."""

    posterior: Array            # normalised joint mass at the terminal time
    prob_change: Array          # trajectory of P(T <= t | Y) on the grid


def change_detection_oracle(prior: ChangePrior, y_path: Array, grid: TimeGrid) -> GridPosterior:
    """Grid-Bayes posterior for the change-detection sensor
    h_{b,tau}(t, y) = (b0 + b 1_{t >= tau}) y under the model's prior.

    Each cell accumulates the exact discrete log-likelihood
    sum_k [h dy_k - h^2 dt / 2] with left-point y_k; the prior is applied
    once and the joint is renormalised at every grid time, so the
    P(T <= t | Y) trajectory comes out alongside the terminal posterior.
    """
    y = np.asarray(y_path, dtype=float).reshape(-1)
    if y.shape[0] != grid.n_steps + 1:
        raise ValueError("observation path does not match the grid")
    log_prior = np.log(np.outer(prior.b_probs, prior.tau_probs))
    loglik = np.zeros(log_prior.shape)
    prob_change = np.zeros(grid.n_steps + 1)
    dt = grid.dt
    tau_col = prior.tau_values[None, :]
    b_col = prior.b_values[:, None]
    for k in range(grid.n_steps + 1):
        joint = log_prior + loglik
        joint -= joint.max()
        mass = np.exp(joint)
        mass /= mass.sum()
        prob_change[k] = mass[:, prior.tau_values <= k * dt].sum()
        if k < grid.n_steps:
            h = (prior.b0 + b_col * (k * dt >= tau_col)) * y[k]
            loglik += h * (y[k + 1] - y[k]) - 0.5 * h * h * dt
    if not np.isfinite(mass).all():   # NaN compares False, so no test of the sum would catch it
        raise ValueError("posterior mass is not finite")
    return GridPosterior(posterior=mass, prob_change=prob_change)


# ---------------------------------------------------------------------------
# Zakai / Kushner-Stratonovich residuals
# ---------------------------------------------------------------------------


@dataclass
class ResidualStats:
    mean_residual: Estimate
    trajectory: Array           # per-time mean residual


def residual_run(
    model: SignalModel,
    battery: Battery,
    grid: TimeGrid,
    config: FilterConfig,
    run_indices: Sequence[int],
) -> tuple[Array, Array]:
    """A block of (data, filter) pairs stepped as one cloud; returns the Zakai
    and KS residual trajectories of every run and test function, each
    (R, K, K_steps + 1) with runs in the order of run_indices. Run i draws
    its data path from (config.seed, TAG_PATH, i) and its filter from the
    walk's generators keyed (config.seed, TAG_role, i), so its result does
    not depend on the block. Every per-particle array is laid out
    (K, R, N, ...), so each reduction over particles runs along a contiguous
    axis per (test function, run), as it would for one alone.

    Both equations are read off the cloud's rho_t(1) and one normalised
    reduction per step of each q = phi, A phi, h, D phi, pi(q) = sum(w q) / sum(w):
    rho_t(phi) = rho_t(1) pi_t(phi) (Kallianpur-Striebel) with the increment
    rho_t(1) [pi(A phi) dt + pi(D phi) . dY], and the KS increment
    pi(A phi) dt + [pi(D phi) - pi(h) pi(phi)] . (dY - pi(h) dt)."""
    seed, n = config.seed, config.n_particles
    runs = tuple(run_indices)
    r = len(runs)
    bundles = simulate_pairs(model, grid, [substream(seed, TAG_PATH, i) for i in runs])
    y_path = np.stack([bundle.y for bundle in bundles])   # (R, K+1, m)
    dt = grid.dt
    k_steps = grid.n_steps
    zak = np.zeros((r, len(battery.labels), k_steps + 1))
    ks = np.zeros_like(zak)
    zak_int = np.zeros((len(battery.labels), r))
    ks_int = np.zeros_like(zak_int)

    def rows(values: Array) -> Array:
        """Per-particle (K, R*N, ...) values of the K test functions as (K, R, N, ...)."""
        return values.reshape(values.shape[:1] + (r, n) + values.shape[2:])

    for cloud, h, _ in _walk(model, y_path, grid, config, [(i,) for i in runs]):
        k = cloud.step
        weights = cloud.weights
        w, sw = weights.w, weights.total
        rho_one = cloud.rho_one
        values = battery.values(cloud.states)
        pi_phi = np.sum(w * rows(values), axis=-1) / sw
        rho_phi = rho_one * pi_phi
        if k == 0:
            rho0, pi0 = rho_phi, pi_phi
        zak[..., k] = (rho_phi - rho0 - zak_int).T
        ks[..., k] = (pi_phi - pi0 - ks_int).T
        if k == k_steps:
            break
        gen, dphi = (rows(v) for v in battery.operators(model, cloud.states, h, values))
        dy = y_path[:, k + 1] - y_path[:, k]
        pi_a = np.sum(w * gen, axis=-1) / sw
        # pi(D 1) = pi(h) is the same reduction as pi_h, so the KS integrand cancels to exactly zero for phi = 1
        pi_h = np.einsum("rn,rnm->rm", w, h.reshape((r, n) + h.shape[1:])) / sw[:, None]
        pi_d = np.einsum("rn,krnm->krm", w, dphi) / sw[:, None]
        zak_int += rho_one * (pi_a * dt + np.einsum("krm,rm->kr", pi_d, dy))
        ks_int += pi_a * dt + np.einsum("krm,rm->kr", pi_d - pi_h * pi_phi[..., None], dy - pi_h * dt)
    return zak, ks


def equation_residuals(
    labels: Sequence[str], zakai: Array, ks: Array,
) -> tuple[dict[str, ResidualStats], dict[str, ResidualStats]]:
    """Zakai and Kushner-Stratonovich residual statistics per test function,
    reduced over the runs of residual_run's (R, K, K_steps + 1) arrays for
    independent (observation, filter) pairs, keyed by the K labels.

    Residuals:
      Zakai: R_t = rho_t(phi) - rho_0(phi) - int rho_s(A phi) ds
                   - sum_j int rho_s(D_j phi) dY^j
      KS:    R_t = pi_t(phi) - pi_0(phi) - int pi_s(A phi) ds
                   - sum_j int [pi(D_j phi) - pi(h^j) pi(phi)] (dY^j - pi(h^j) ds)
    with D_j phi = h^j phi + B^j phi and left-point integrands.
    """
    if zakai.shape[0] < 2:
        raise ValueError("need at least 2 runs")
    return tuple({label: ResidualStats(mean_residual=mean_se(res[:, i, -1]), trajectory=res[:, i].mean(axis=0))
                  for i, label in enumerate(labels)} for res in (zakai, ks))


# ---------------------------------------------------------------------------
# Filter-vs-oracle agreement runs
# ---------------------------------------------------------------------------


def kalman_agreement_run(name: str, grid: TimeGrid, config: FilterConfig, run_index: int) -> tuple[float, float]:
    """|posterior mean - oracle mean| and |posterior var - oracle var| at the
    horizon, for one data path of model `name`, which must declare
    kalman_inputs; the oracle runs on the same observations."""
    model = make_model(name)
    bundle = simulate_pair(model, grid, substream(config.seed, TAG_PATH, run_index))
    oracle = kalman_bucy_oracle(*model.kalman_inputs, bundle.y, grid)
    cfg = replace(config, seed=derive_seed(config.seed, TAG_KALMAN_FILTER, run_index))
    for cloud, _, _ in _walk(model, bundle.y[None], grid, cfg, [()]):
        pass   # only the horizon cloud is read
    m_pf, x2_pf = pi_estimate(Battery(("x", "x^2"), 1).values(cloud.states), cloud.weights)
    v_pf = x2_pf - m_pf * m_pf
    return abs(m_pf - oracle.mean[-1, 0]), abs(v_pf - oracle.cov[-1, 0, 0])


def change_detection_agreement_run(grid: TimeGrid, config: FilterConfig, run_index: int) -> float:
    """sup_t |particle P(T <= t | Y) - grid-Bayes P(T <= t | Y)| for one path of the change-detection model."""
    model = make_model("change_detection")
    bundle = simulate_pair(model, grid, substream(config.seed, TAG_PATH, run_index))
    oracle = change_detection_oracle(model.change_prior, bundle.y, grid)
    cfg = replace(config, seed=derive_seed(config.seed, TAG_CHANGE_FILTER, run_index))
    run = run_filter(model, bundle.y, grid, cfg)
    return float(np.max(np.abs(run.pi["prob_change"] - oracle.prob_change)))


# ---------------------------------------------------------------------------
# Closed-form scenario checks
# ---------------------------------------------------------------------------

DUFRESNE_TARGET = math.exp(-2.0)
# at a shorter horizon the closed-form tail, not the simulated integral,
# carries more of the dufresne estimate (its truncation correction is about
# 0.009 here, 0.0008 at the default horizon 20), so the check would test
# Dufresne's law against itself
DUFRESNE_MIN_HORIZON = 2.0 * math.log(100.0)


def dufresne_check(n_paths: int, grid: TimeGrid, seed: int) -> Plan:
    """P(X < 1) for X = int_0^inf exp(B_s - s/2) ds; by Dufresne's identity
    X = 2 / G with G ~ Exp(1), so the target is exp(-2). A plan
    (parallel.run_plans) whose tasks are the chunks of dufresne_paths.

    The paths run to the grid horizon T, each stopping once its integral
    reaches 1. After T, X - X_T = exp(B_T - T/2) X' with X' an independent
    copy of X (strong Markov property), so
    P(X < 1 | F_T) = 1{X_T < 1} exp(-2 exp(B_T - T/2) / (1 - X_T)). The
    estimate averages this exact conditional tail, evaluated only where
    X_T < 1, and needs no truncation allowance.

    Returns (estimate, target, truncation correction), the correction being
    the mean of 1{X_T < 1} minus the estimate: what truncating at T would
    have added.
    """
    chunks = yield [(dufresne_paths, n_paths, grid, seed, i) for i in range(math.ceil(n_paths / PATH_CHUNK))]
    x, b = (np.concatenate(parts) for parts in zip(*chunks))
    below = x < 1.0
    tail = np.zeros(n_paths)
    tail[below] = np.exp(-2.0 * np.exp(b[below] - 0.5 * grid.horizon) / (1.0 - x[below]))
    est = mean_se(tail)
    return est, DUFRESNE_TARGET, float(below.mean()) - est.value


# the N at which the divergent series sum_{n <= N} n/(n+1)^2 is reported
PARTIAL_SUM_LEVELS = (1000, 10000)


def kazamaki_gap_check(n_list: Sequence[int], n_paths: int, dt: float, seed: int) -> Plan:
    """Hitting probabilities of the Kazamaki-side counterexample plus the
    divergence diagnostic of its transformed energy. A plan
    (parallel.run_plans) whose tasks are the chunks of hitting_paths.

    For each barrier n, the exit probability P(W hits -1 before n) over the
    m resolved paths is compared with p0 = n / (n + 1) in a band of
    HITTING_SIGMAS SEs of a Bernoulli mean under that reference,
    sqrt(p0 (1 - p0) / m), which is not 0 where every path exits on one side;
    with no resolved path the row is nan, which fails. Every barrier is read
    off one set of paths, so each row depends on the whole barrier list.
    The partial sums sum_{n <= N} n/(n+1)^2 are reported for growing N
    together with their log-growth rate, which approaches 1 per ln N for
    the divergent series.
    """
    chunks = yield [(hitting_paths, tuple(n_list), n_paths, dt, seed, i)
                    for i in range(math.ceil(n_paths / PATH_CHUNK))]
    hit_low, resolved = (np.hstack(parts) for parts in zip(*chunks))
    rows = []
    for barrier, hit, res in zip(n_list, hit_low, resolved):
        p0, m = barrier / (barrier + 1.0), int(res.sum())
        est, se = (hit[res].mean(), math.sqrt(p0 * (1.0 - p0) / m)) if m else (math.nan, math.nan)
        rows.append(CheckVerdict.band("hitting_probability", f"barrier={barrier}", est, p0, se, HITTING_SIGMAS,
                                      detail=f"censored={res.size - m}"))
    low, high = PARTIAL_SUM_LEVELS
    n_terms = np.arange(1, high + 1, dtype=float)
    csum = np.cumsum(n_terms / (n_terms + 1.0) ** 2)
    sums = {level: float(csum[level - 1]) for level in PARTIAL_SUM_LEVELS}
    growth = (sums[high] - sums[low]) / math.log(high / low)
    return rows, sums, growth
