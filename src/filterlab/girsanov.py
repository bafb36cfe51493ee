"""Exponential-martingale weights and the martingale diagnostics.

Everything here works on log-weights: for an integrand H against a Brownian
motion W, log Z accumulates increments H^T dW - |H|^2 dt / 2, so products of
weights become sums and the many-orders-of-magnitude range of Z stays
representable.

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

    def within(self, target: float, n_se: float = 3.0, extra: float = 0.0) -> bool:
        return abs(self.value - target) <= n_se * self.se + extra

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


def ensemble_from_model(model: SignalModel, grid: TimeGrid, n_paths: int, seed: int) -> GirsanovEnsemble:
    """Simulate (X, W) under the physical measure and accumulate the
    change-of-measure weight Z = exp(-int h^T dW - 1/2 int |h|^2 ds).

    H_s = h(X_s) enters the diagnostics only through |H|^2, so the sign
    convention of Z (the P -> reference direction) is immaterial to them.
    """
    k, dt = grid.n_steps, grid.dt
    sq = np.sqrt(dt)
    p, m = model.dim_v, model.dim_y
    log_z = np.zeros((n_paths, k + 1))
    h_sq = np.zeros((n_paths, k))
    u = np.zeros((n_paths, k + 1))
    rng = substream(seed, TAG_PATH)
    x = model.initial_law(rng, n_paths)
    u[:, 0] = 1.0 + np.einsum("ni,ni->n", x, x)
    y = np.zeros((n_paths, m))   # per-path observations feed y-dependent sensors
    for i in range(k):
        t = i * dt
        hval = model.h_now(x, y, t)
        h_sq[:, i] = np.einsum("nm,nm->n", hval, hval)
        dw = rng.standard_normal((n_paths, m)) * sq
        dv = rng.standard_normal((n_paths, p)) * sq
        log_z[:, i + 1] = log_z[:, i] - np.einsum("nm,nm->n", hval, dw) - 0.5 * h_sq[:, i] * dt
        y = y + hval * dt + dw
        dl = batch_levy_increments(model.levy, dt, n_paths, rng) if model.has_jumps else None
        x = euler_step(model, x, model.f(x), dt, dv, dw, dl, i + 1)
        u[:, i + 1] = 1.0 + np.einsum("ni,ni->n", x, x)
    return GirsanovEnsemble(grid=grid, log_z=log_z, h_sq=h_sq, u=u, label=model.name)


def ensemble_revuz_yor(alpha: float, grid: TimeGrid, n_paths: int, seed: int) -> GirsanovEnsemble:
    """H_t = alpha W_t driven by the same W that Z exponentiates."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k, dt = grid.n_steps, grid.dt
    sq = np.sqrt(dt)
    rng = substream(seed, TAG_PATH)
    w = np.zeros(n_paths)
    log_z = np.zeros((n_paths, k + 1))
    h_sq = np.zeros((n_paths, k))
    for i in range(k):
        h = alpha * w
        h_sq[:, i] = h * h
        dw = rng.standard_normal(n_paths) * sq
        log_z[:, i + 1] = log_z[:, i] + h * dw - 0.5 * h_sq[:, i] * dt
        w += dw
    return GirsanovEnsemble(grid=grid, log_z=log_z, h_sq=h_sq, label=f"revuz_yor(alpha={alpha:g})")


def ensemble_independent_h(grid: TimeGrid, n_paths: int, seed: int) -> GirsanovEnsemble:
    """H_t = |B'_t| for a Brownian motion B' independent of the driving W."""
    k, dt = grid.n_steps, grid.dt
    sq = np.sqrt(dt)
    rng = substream(seed, TAG_PATH)
    b = np.zeros(n_paths)
    log_z = np.zeros((n_paths, k + 1))
    h_sq = np.zeros((n_paths, k))
    for i in range(k):
        h = np.abs(b)
        h_sq[:, i] = h * h
        dw = rng.standard_normal(n_paths) * sq
        db = rng.standard_normal(n_paths) * sq
        log_z[:, i + 1] = log_z[:, i] + h * dw - 0.5 * h_sq[:, i] * dt
        b += db
    return GirsanovEnsemble(grid=grid, log_z=log_z, h_sq=h_sq, label="independent_h")


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


def zstar_bound_check(ens: GirsanovEnsemble) -> tuple[Estimate, float, bool]:
    """Maximal bound E[Z*_t] <= (e+1)/(e-1) + e/(2(e-1)) E[int Z |H|^2 ds].

    Returns (lhs estimate, rhs value, pass); pass allows 3 combined SEs.
    """
    lhs = mean_se(np.exp(ens.log_z).max(axis=1))
    energy = transformed_energy_estimate(ens)
    rhs = MAXIMAL_CONST + MAXIMAL_SLOPE * energy.value
    combined = math.hypot(lhs.se, MAXIMAL_SLOPE * energy.se)
    return lhs, rhs, lhs.value <= rhs + 3.0 * combined


def martingale_mean_check(ens: GirsanovEnsemble, times: Sequence[float]):
    """E[Z_s] over the grid; returns (per-time Estimates at `times`, full mean
    trajectory). A true martingale keeps the trajectory flat at 1."""
    z = np.exp(ens.log_z)
    trajectory = z.mean(axis=0)
    checks = {t: mean_se(z[:, ens.grid.index_of(t)]) for t in times}
    return checks, trajectory


def energy_identity_check(ens: GirsanovEnsemble) -> tuple[Estimate, Estimate, bool]:
    """E[int Z_s |H_s|^2 ds] vs E[Z_t int |H_s|^2 ds] on the same paths."""
    lhs = transformed_energy_estimate(ens)
    z_t = ens.z(ens.grid.n_steps)
    rhs = mean_se(z_t * ens.pathwise_plain_energy())
    gap = abs(lhs.value - rhs.value)
    return lhs, rhs, gap <= 3.0 * math.hypot(lhs.se, rhs.se)


def independent_h_identity_check(ens: GirsanovEnsemble) -> tuple[Estimate, Estimate, bool]:
    """When W is independent of H the transformed and plain energies agree."""
    lhs = transformed_energy_estimate(ens)
    rhs = mean_se(ens.pathwise_plain_energy())
    return lhs, rhs, abs(lhs.value - rhs.value) <= 3.0 * math.hypot(lhs.se, rhs.se)


def gronwall_bound_check(
    ens: GirsanovEnsemble, rate: float, rate_factor: float = 2.0
) -> tuple[Array, Array, Array, bool]:
    """Check sup_s E[Z_s U_s] <= exp(rate_factor * rate * t) E[U_0].

    Returns (E[Z_t U_t] trajectory, per-time SEs, bound trajectory, pass);
    pass allows 3 SEs pointwise. rate_factor=2 is the generic Gronwall
    constant; the change-detection estimate is sharp with factor 1.
    """
    if ens.u is None:
        raise ValueError("ensemble carries no U = 1 + |X|^2 trajectory")
    zu = np.exp(ens.log_z) * ens.u
    traj = zu.mean(axis=0)
    ses = zu.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)
    times = ens.grid.times()
    bound = np.exp(rate_factor * rate * times) * ens.u[:, 0].mean()
    ok = bool(np.all(traj <= bound + 3.0 * ses))
    return traj, ses, bound, ok


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

