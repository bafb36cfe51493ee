"""Exponential-martingale weights and the martingale diagnostics.

Everything here works on log-weights: for an integrand H against a Brownian
motion W, log Z accumulates increments H^T dW - |H|^2 dt / 2, so products of
weights become sums and the many-orders-of-magnitude range of Z stays
representable.

One loop, `_weighted_paths`, fills every ensemble's log Z, |H|^2 and U; the
four builders (`ensemble_from_model`, `ensemble_revuz_yor`,
`ensemble_independent_h`, `change_detection_gronwall_ensemble`) only give H
and the step of their state.

Estimators reduce over independent paths in path order, which keeps every
diagnostic bit-reproducible for a fixed (seed, grid, model, n_paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .models import SignalModel
from .rng import TAG_PATH, substream
from .simulate import TimeGrid, batch_levy_increments, euler_step

Array = np.ndarray

E = math.e
MAXIMAL_CONST = (E + 1.0) / (E - 1.0)           # additive constant of the maximal bound
MAXIMAL_SLOPE = E / (2.0 * (E - 1.0))           # multiplies the transformed energy


class Estimate(NamedTuple):
    """Monte Carlo estimate with its standard error."""

    value: float
    se: float

    def __str__(self) -> str:
        return f"{self.value:.6g} ± {self.se:.3g}"


def mean_se(values: Array) -> Estimate:
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples for a standard error")
    return Estimate(float(values.mean()), float(values.std(ddof=1) / np.sqrt(n)))


@dataclass
class GirsanovEnsemble:
    """Per-path log Z and |H|^2 samples for a family of scenarios.

    log_z has shape (n_paths, n_steps+1) with log Z at grid times; h_sq has
    shape (n_paths, n_steps) with |H|^2 evaluated at left points. `u` holds
    1 + |X|^2 when a signal path is attached (Gronwall diagnostics).
    """

    grid: TimeGrid
    log_z: Array
    h_sq: Array
    label: str
    u: Optional[Array] = None

    @property
    def n_paths(self) -> int:
        return self.log_z.shape[0]

    def z(self, k: int) -> Array:
        return np.exp(self.log_z[:, k])

    def pathwise_transformed_energy(self) -> Array:
        """Per-path int_0^t Z_s |H_s|^2 ds as a left-point sum."""
        return (np.exp(self.log_z[:, :-1]) * self.h_sq).sum(axis=1) * self.grid.dt

    def pathwise_plain_energy(self) -> Array:
        return self.h_sq.sum(axis=1) * self.grid.dt


def _one_plus_sq(x: Array) -> Array:
    return 1.0 + np.einsum("ni,ni->n", x, x)


def _weighted_paths(grid: TimeGrid, n_paths: int, rng: np.random.Generator, label: str, state,
                    h_of, advance, u_of=None) -> GirsanovEnsemble:
    """The one loop that accumulates log Z. At each left point t_i it takes
    H = h_of(state, t_i) of shape (n_paths, m), draws dW, adds
    H^T dW - |H|^2 dt / 2 to log Z and moves on with
    state = advance(state, H, dW, i), which draws any further noise after dW.
    u_of(state), when given, records U on the grid."""
    k, dt = grid.n_steps, grid.dt
    sq = np.sqrt(dt)
    log_z = np.zeros((n_paths, k + 1))
    h_sq = np.zeros((n_paths, k))
    u = None if u_of is None else np.zeros((n_paths, k + 1))
    if u is not None:
        u[:, 0] = u_of(state)
    for i in range(k):
        h = h_of(state, i * dt)
        h_sq[:, i] = np.einsum("nm,nm->n", h, h)
        dw = rng.standard_normal(h.shape) * sq
        log_z[:, i + 1] = log_z[:, i] + np.einsum("nm,nm->n", h, dw) - 0.5 * h_sq[:, i] * dt
        state = advance(state, h, dw, i)
        if u is not None:
            u[:, i + 1] = u_of(state)
    return GirsanovEnsemble(grid=grid, log_z=log_z, h_sq=h_sq, label=label, u=u)


def ensemble_from_model(model: SignalModel, grid: TimeGrid, n_paths: int, seed: int) -> GirsanovEnsemble:
    """Simulate (X, Y) under the physical measure with U = 1 + |X|^2 and the
    P -> reference weight Z = exp(-int h^T dW - 1/2 int |h|^2 ds), that is
    H = -h(X, Y), the weight under which Y becomes a Brownian motion."""
    dt = grid.dt
    sq = np.sqrt(dt)
    rng = substream(seed, TAG_PATH)

    def advance(state, h, dw, i):
        x, y = state
        dv = rng.standard_normal((n_paths, model.dim_v)) * sq
        dl = batch_levy_increments(model.levy, dt, n_paths, rng) if model.has_jumps else None
        # per-path observations feed y-dependent sensors
        return euler_step(model, x, model.f(x), dt, dv, dw, dl, i + 1), y - h * dt + dw

    state = (model.initial_law(rng, n_paths), np.zeros((n_paths, model.dim_y)))
    return _weighted_paths(grid, n_paths, rng, model.name, state, lambda s, t: -model.h_now(s[0], s[1], t),
                           advance, u_of=lambda s: _one_plus_sq(s[0]))


def ensemble_revuz_yor(alpha: float, grid: TimeGrid, n_paths: int, seed: int) -> GirsanovEnsemble:
    """H_t = alpha W_t driven by the same W that Z exponentiates."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _weighted_paths(grid, n_paths, substream(seed, TAG_PATH), f"revuz_yor(alpha={alpha:g})",
                           np.zeros((n_paths, 1)), lambda w, t: alpha * w, lambda w, h, dw, i: w + dw)


def ensemble_independent_h(grid: TimeGrid, n_paths: int, seed: int) -> GirsanovEnsemble:
    """H_t = |B'_t| for a Brownian motion B' independent of the driving W."""
    sq = np.sqrt(grid.dt)
    rng = substream(seed, TAG_PATH)
    return _weighted_paths(grid, n_paths, rng, "independent_h", np.zeros((n_paths, 1)), lambda b, t: np.abs(b),
                           lambda b, h, dw, i: b + rng.standard_normal(b.shape) * sq)


def change_detection_gronwall_ensemble(b0: float, b: float, grid: TimeGrid, n_paths: int,
                                       seed: int) -> GirsanovEnsemble:
    """Paths of (Y^b, Z^b) under the physical measure for a fixed change size
    b and change times uniform on [0.25, 0.75], with U = 1 + Y^2 and the
    P -> reference weight, H = -h = -(b0 + b 1_{t >= tau}) Y. The Gronwall
    rate is c(b) = 4 + (b0 + b)^2 and the sharpened envelope uses rate_factor 1."""
    dt = grid.dt
    rng = substream(seed, TAG_PATH)
    taus = rng.uniform(0.25, 0.75, (n_paths, 1))
    # Y moves by (h dt + dW) in one sum; regrouping it would change the bytes
    return _weighted_paths(grid, n_paths, rng, f"change_detection(b={b:g})", np.zeros((n_paths, 1)),
                           lambda y, t: -((b0 + b * (t >= taus)) * y), lambda y, h, dw, i: y + (-h * dt + dw),
                           u_of=_one_plus_sq)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsReport:
    label: str
    n_paths: int
    e_z: Estimate
    transformed_energy: Estimate
    z_log_z: Estimate
    z_star: Estimate
    plain_energy: Estimate

    def to_csv_rows(self, seed: int) -> list[list[str]]:
        rows = []
        for key in ("e_z", "transformed_energy", "z_log_z", "z_star", "plain_energy"):
            est: Estimate = getattr(self, key)
            rows.append([self.label, key, repr(est.value), repr(est.se), str(self.n_paths), str(seed)])
        return rows


def diagnostics_report(ens: GirsanovEnsemble) -> DiagnosticsReport:
    """All P-side martingale diagnostics of one ensemble at its horizon."""
    z_t = ens.z(ens.grid.n_steps)
    return DiagnosticsReport(
        label=ens.label,
        n_paths=ens.n_paths,
        e_z=mean_se(z_t),
        transformed_energy=mean_se(ens.pathwise_transformed_energy()),
        z_log_z=mean_se(z_t * ens.log_z[:, -1]),
        z_star=mean_se(np.exp(ens.log_z).max(axis=1)),
        plain_energy=mean_se(ens.pathwise_plain_energy()),
    )


def transformed_energy_estimate(ens: GirsanovEnsemble) -> Estimate:
    """E[int_0^t Z_s |H_s|^2 ds] over the ensemble's paths."""
    return mean_se(ens.pathwise_transformed_energy())


def zstar_bound(ens: GirsanovEnsemble) -> tuple[Estimate, float, float]:
    """Maximal bound E[Z*_t] <= (e+1)/(e-1) + e/(2(e-1)) E[int Z |H|^2 ds].

    Returns (lhs estimate, rhs value, band), where the band is 3 SEs of
    lhs - rhs: the lhs SE combined with the slope times the energy SE.
    """
    lhs = mean_se(np.exp(ens.log_z).max(axis=1))
    energy = transformed_energy_estimate(ens)
    rhs = MAXIMAL_CONST + MAXIMAL_SLOPE * energy.value
    return lhs, rhs, 3.0 * math.hypot(lhs.se, MAXIMAL_SLOPE * energy.se)


def martingale_mean_check(ens: GirsanovEnsemble, times: Sequence[float]):
    """E[Z_s] over the grid; returns (per-time Estimates at `times`, full mean
    trajectory). A true martingale keeps the trajectory flat at 1."""
    z = np.exp(ens.log_z)
    trajectory = z.mean(axis=0)
    checks = {t: mean_se(z[:, ens.grid.index_of(t)]) for t in times}
    return checks, trajectory


def energy_identity_check(ens: GirsanovEnsemble) -> tuple[Estimate, Estimate]:
    """(E[int Z_s |H_s|^2 ds], E[Z_t int |H_s|^2 ds]) on the same paths: the
    two sides of the energy identity."""
    lhs = transformed_energy_estimate(ens)
    z_t = ens.z(ens.grid.n_steps)
    return lhs, mean_se(z_t * ens.pathwise_plain_energy())


def independent_h_identity_check(ens: GirsanovEnsemble) -> tuple[Estimate, Estimate]:
    """(transformed, plain) energy: when W is independent of H they agree."""
    return transformed_energy_estimate(ens), mean_se(ens.pathwise_plain_energy())


def gronwall_bound_check(ens: GirsanovEnsemble, rate: float, rate_factor: float = 2.0) -> tuple[Array, Array, Array]:
    """The two sides of sup_s E[Z_s U_s] <= exp(rate_factor * rate * t) E[U_0].

    Returns (E[Z_t U_t] trajectory, per-time SEs, bound trajectory).
    rate_factor=2 is the generic Gronwall constant; the change-detection
    estimate is sharp with factor 1.
    """
    if ens.u is None:
        raise ValueError("ensemble carries no U = 1 + |X|^2 trajectory")
    zu = np.exp(ens.log_z) * ens.u
    traj = zu.mean(axis=0)
    ses = zu.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)
    times = ens.grid.times()
    bound = np.exp(rate_factor * rate * times) * ens.u[:, 0].mean()
    return traj, ses, bound


# ---------------------------------------------------------------------------
# Transformed-measure Revuz-Yor estimators
# ---------------------------------------------------------------------------


def revuz_yor_transformed_estimates(
    alpha: float, grid: TimeGrid, n_paths: int, seed: int
) -> tuple[Estimate, Estimate, Estimate]:
    """(energy, z log z, paired identity gap) for H = alpha W, computed under
    the transformed measure where W solves dW = alpha W dt + dB.

    There the transformed energy is alpha^2 int W^2 ds and
    log Z = alpha^2/2 int W^2 ds + alpha int W dB, so both estimators have
    light tails; the identity gap reduces to the Ito integral alpha int W dB.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k, dt = grid.n_steps, grid.dt
    sq = np.sqrt(dt)
    rng = substream(seed, TAG_PATH)
    w = np.zeros(n_paths)
    quad = np.zeros(n_paths)
    ito = np.zeros(n_paths)
    for _ in range(k):
        quad += w * w * dt
        db = rng.standard_normal(n_paths) * sq
        ito += w * db
        w += alpha * w * dt + db
    energy = alpha * alpha * quad
    zlogz = 0.5 * energy + alpha * ito
    return mean_se(energy), mean_se(zlogz), mean_se(alpha * ito)


def revuz_yor_closed_form(alpha: float, t: float) -> float:
    """Transformed average energy of H = alpha W: (e^{2 alpha t} - 2 alpha t - 1)/4."""
    return 0.25 * (math.exp(2.0 * alpha * t) - 2.0 * alpha * t - 1.0)


def revuz_yor_base_stats(
    alpha: float, grid: TimeGrid, n_paths: int, seed: int, times: Sequence[float]
) -> tuple[dict[float, Estimate], Estimate]:
    """Streaming base-measure E[Z_t] at the requested times plus E[Z*_T].

    Keeps only per-path running state, so large path counts fit in memory;
    the estimators are the plain heavy-tailed ones (Z_1 has infinite
    variance at alpha = t = 1), which is why callers want many paths.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k, dt = grid.n_steps, grid.dt
    sq = np.sqrt(dt)
    rng = substream(seed, TAG_PATH)
    w = np.zeros(n_paths)
    log_z = np.zeros(n_paths)
    zmax = np.ones(n_paths)
    snap_idx = {grid.index_of(t): float(t) for t in times}
    out: dict[float, Estimate] = {}
    if 0 in snap_idx:
        out[snap_idx[0]] = Estimate(1.0, 0.0)
    for i in range(k):
        h = alpha * w
        dw = rng.standard_normal(n_paths) * sq
        log_z += h * dw - 0.5 * h * h * dt
        w += dw
        z = np.exp(log_z)
        np.maximum(zmax, z, out=zmax)
        if i + 1 in snap_idx:
            out[snap_idx[i + 1]] = mean_se(z)
    return out, mean_se(zmax)

