"""Exponential-martingale weights and the ensembles the martingale checks read.

Everything here works on log-weights: for an integrand H against a Brownian
motion W, log Z accumulates increments H^T dW - |H|^2 dt / 2, so products of
weights become sums and the many-orders-of-magnitude range of Z stays
representable.

One loop, `_weighted_paths`, steps every ensemble's log Z and reduces over
paths as it goes, so no array has both a path axis and a time axis; the four
builders (`ensemble_from_model`, `ensemble_revuz_yor`, `ensemble_independent_h`,
`change_detection_gronwall_ensemble`) only give H and the step of their state.

Estimators reduce over independent paths in path order, which keeps every
diagnostic bit-reproducible for a fixed (seed, grid, model, n_paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .models import SignalModel
from .rng import TAG_PATH, substream
from .simulate import TimeGrid, euler_step, fresh_increments

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


class Curve(NamedTuple):
    """Mean and standard error over paths at each point of a time grid."""

    mean: Array
    se: Array

    def at(self, k: int) -> Estimate:
        return Estimate(float(self.mean[k]), float(self.se[k]))


@dataclass
class GirsanovEnsemble:
    """Reductions over the paths of one weight Z = exp(int H^T dW - 1/2 int |H|^2 ds).

    Per grid time (n_steps + 1 points): `z`, and `zu` when a dominating
    process U is recorded, the mean and SE over paths of Z and Z U. Per left
    point (n_steps points): `z_h_sq` and `h_sq`, those of Z |H|^2 and |H|^2.
    Per path: `log_z_t` = log Z_T, `z_star` = sup_s Z_s with Z_0 = 1
    included, and the left-point sums `energy` = int Z |H|^2 ds and
    `plain_energy` = int |H|^2 ds. U is 1 + |X|^2 for a signal model and
    1 + Y^2 for change detection; `u0_mean` is E[U_0]. No field has both a
    path axis and a time axis.
    """

    label: str
    z: Curve
    z_h_sq: Curve
    h_sq: Curve
    log_z_t: Array
    z_star: Array
    energy: Array
    plain_energy: Array
    zu: Optional[Curve] = None
    u0_mean: Optional[float] = None


def _one_plus_sq(x: Array) -> Array:
    return 1.0 + np.einsum("ni,ni->n", x, x)


def _reduce(rows: Array, means: Array, ses: Array, k: int) -> None:
    """Write the mean and SE over paths of each row of `rows` (rows x paths) at column k."""
    n = rows.shape[1]
    m = rows.sum(axis=1) / n
    d = rows - m[:, None]
    means[:, k] = m
    ses[:, k] = np.sqrt(np.einsum("qn,qn->q", d, d) / (n - 1)) / np.sqrt(n)


def _weighted_paths(grid: TimeGrid, n_paths: int, rng: np.random.Generator, label: str, state,
                    h_of, advance, u_of=None) -> GirsanovEnsemble:
    """The one loop that accumulates log Z and reduces as it steps. At each
    left point t_i it takes H = h_of(state, t_i) of shape (n_paths, m), draws
    dW, adds H^T dW - |H|^2 dt / 2 to log Z and moves on with
    state = advance(state, H, dW, i), which draws any further noise after dW.
    u_of(state), when given, is U on the grid."""
    k, dt = grid.n_steps, grid.dt
    sq = np.sqrt(dt)
    log_z = np.zeros(n_paths)
    z_star = np.ones(n_paths)
    energy = np.zeros(n_paths)
    plain = np.zeros(n_paths)
    # the rows reduced after step i: Z |H|^2 and |H|^2 at the left point t_i,
    # then Z and, when U is recorded, Z U at t_{i+1}; all written at column i + 1
    rows = np.empty((3 if u_of is None else 4, n_paths))
    mean, se = np.zeros((len(rows), k + 1)), np.zeros((len(rows), k + 1))
    z = rows[2]
    z[:] = 1.0
    if u_of is not None:
        rows[3] = u0 = u_of(state)
    _reduce(rows[2:], mean[2:], se[2:], 0)
    for i in range(k):
        h = h_of(state, i * dt)
        h_sq = np.einsum("nm,nm->n", h, h, out=rows[1])
        np.multiply(z, h_sq, out=rows[0])
        energy += rows[0]
        plain += h_sq
        dw = rng.standard_normal(h.shape) * sq
        log_z = log_z + np.einsum("nm,nm->n", h, dw) - 0.5 * h_sq * dt
        state = advance(state, h, dw, i)
        np.exp(log_z, out=z)
        np.maximum(z_star, z, out=z_star)
        if u_of is not None:
            np.multiply(z, u_of(state), out=rows[3])
        _reduce(rows, mean, se, i + 1)
    return GirsanovEnsemble(
        label=label, z=Curve(mean[2], se[2]), z_h_sq=Curve(mean[0, 1:], se[0, 1:]),
        h_sq=Curve(mean[1, 1:], se[1, 1:]), log_z_t=log_z, z_star=z_star, energy=energy * dt,
        plain_energy=plain * dt, zu=None if u_of is None else Curve(mean[3], se[3]),
        u0_mean=None if u_of is None else float(u0.mean()))


def ensemble_from_model(model: SignalModel, grid: TimeGrid, n_paths: int, seed: int) -> GirsanovEnsemble:
    """Simulate (X, Y) under the physical measure with U = 1 + |X|^2 and the
    P -> reference weight Z = exp(-int h^T dW - 1/2 int |h|^2 ds), that is
    H = -h(X, Y), the weight under which Y becomes a Brownian motion."""
    dt = grid.dt
    rng = substream(seed, TAG_PATH)

    def advance(state, h, dw, i):
        x, y = state
        dv, _, dl = fresh_increments(model, dt, n_paths, [rng])
        # per-path observations feed y-dependent sensors
        return euler_step(model, x, model.f(x), dt, dv, dw, dl, i + 1), y - h * dt + dw

    state = (model.initial_law(rng, n_paths), np.zeros((n_paths, model.dim_y)))
    return _weighted_paths(grid, n_paths, rng, model.name, state, lambda s, t: -model.h(s[0], s[1], t),
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
