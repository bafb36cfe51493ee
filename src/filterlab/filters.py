"""Change-of-measure particle filter.

Particles move under the reference measure, where the observation path is a
Brownian motion driving the signal; the observed increments are consumed
both by the propagation (through sigma_bar) and by the importance weights
exp(h^T dy - |h|^2 dt / 2). The running unnormalised mass rho_t(1) survives
resampling through log_mass, which absorbs the pre-resampling mean weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .models import SignalModel, TestFunction
from .rng import TAG_INIT, TAG_PROPAGATE, TAG_RESAMPLE, substream
from .simulate import TimeGrid, batch_levy_increments, euler_step, propagate_under_reference

Array = np.ndarray


class FilterCollapse(RuntimeError):
    def __init__(self, step: int, ess: float):
        super().__init__(f"filter collapse at step {step}: ESS {ess:.3g}")
        self.step = step
        self.ess = ess


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int = 1000
    resample_threshold: float = 0.5   # resample when ESS < threshold * n
    resampler: str = "systematic"
    seed: int = 0
    ignore_correlation: bool = False  # drop the sigma_bar feed-through (negative control)

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if not 0.0 <= self.resample_threshold <= 1.0:
            raise ValueError("resample_threshold must lie in [0, 1]")
        if self.resampler != "systematic":
            raise ValueError(f"unknown resampler {self.resampler!r}")


@dataclass
class ParticleCloud:
    states: Array        # (n, d)
    log_weights: Array   # (n,)
    log_mass: float      # log of the mass folded out at resampling times
    t: float
    step: int = 0        # grid index of t, reported on collapse

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @cached_property
    def weights(self) -> Weights:   # once per cloud: no code changes a cloud's arrays in place
        return Weights(self.log_weights, self.step)


class Weights:
    """w = exp(log_w - shift) with shift = max(log_w), and their sum: what the
    estimates, the ESS and resampling read. A cloud with no weight left
    raises FilterCollapse at `step`, its grid index."""

    def __init__(self, log_weights: Array, step: int):
        self.shift = log_weights.max()
        if not np.isfinite(self.shift):
            raise FilterCollapse(step=step, ess=0.0)
        self.w = np.exp(log_weights - self.shift)
        self.total = self.w.sum()

    @cached_property
    def normalized(self) -> Array:
        return self.w / self.total


def ess(cloud: ParticleCloud) -> float:
    w = cloud.weights.normalized
    return float(1.0 / np.sum(w * w))


def init_cloud(initial_law, n: int, rng: np.random.Generator) -> ParticleCloud:
    if n < 2:
        raise ValueError("need at least 2 particles")
    states = np.atleast_2d(np.asarray(initial_law(rng, n), dtype=float))
    if states.shape[0] != n or not np.all(np.isfinite(states)):
        raise ValueError("initial sampler returned an invalid draw")
    return ParticleCloud(states=states, log_weights=np.zeros(n), log_mass=0.0, t=0.0)


def systematic_resample(weights: Weights, rng: np.random.Generator) -> Array:
    """Systematic resampling indices from one uniform draw."""
    n = weights.w.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights.normalized), positions).clip(max=n - 1)


def step(
    cloud: ParticleCloud,
    model: SignalModel,
    y: Array,
    dy: Array,
    dt: float,
    rng_prop: np.random.Generator,
    rng_res: np.random.Generator,
    config: FilterConfig,
) -> tuple[ParticleCloud, bool]:
    """Advance the cloud through one observed increment dy over (t, t + dt].

    Weights are updated with the pre-step states (left-point integrand of the
    log-weight), then particles move under the reference dynamics using the
    same observed dy; resampling folds the mean weight into log_mass. The ESS
    and resampling share the new cloud's weights. Returns (new cloud, resampled flag).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    y = np.asarray(y, dtype=float)
    dy = np.asarray(dy, dtype=float)
    k = cloud.step + 1
    hvals = model.h_now(cloud.states, y, cloud.t)
    log_w = cloud.log_weights + np.dot(hvals, dy) - 0.5 * np.einsum("nm,nm->n", hvals, hvals) * dt
    if not np.all(np.isfinite(log_w)):
        # exp underflow to -inf is a degenerate weight, not an arithmetic error
        log_w = np.where(np.isnan(log_w), -np.inf, log_w)
        if not np.isfinite(log_w.max()):
            raise FilterCollapse(step=k, ess=0.0)
    if config.ignore_correlation:
        # correlation-blind ablation: fresh W noise in place of the observation feed
        sq = np.sqrt(dt)
        dv = rng_prop.standard_normal((cloud.n, model.dim_v)) * sq
        dw = rng_prop.standard_normal((cloud.n, model.dim_y)) * sq
        dl = batch_levy_increments(model.levy, dt, cloud.n, rng_prop) if model.has_jumps else None
        states = euler_step(model, cloud.states, model.f(cloud.states), dt, dv, dw, dl, k)
    else:
        states = propagate_under_reference(model, cloud.states, y, dy, dt, cloud.t, rng_prop, k)
    new = ParticleCloud(states=states, log_weights=log_w, log_mass=cloud.log_mass, t=cloud.t + dt, step=k)
    current_ess = ess(new)
    if current_ess < 1.0 + 1e-9:
        raise FilterCollapse(step=k, ess=current_ess)
    resampled = False
    if current_ess < config.resample_threshold * new.n:
        new = resample(new, rng_res)
        resampled = True
    return new, resampled


def resample(cloud: ParticleCloud, rng: np.random.Generator) -> ParticleCloud:
    """Systematic resampling; the mean weight moves into log_mass so that
    rho_t(1) is preserved by construction."""
    weights = cloud.weights
    idx = systematic_resample(weights, rng)
    return ParticleCloud(
        states=cloud.states[idx],
        log_weights=np.zeros(cloud.n),
        log_mass=cloud.log_mass + weights.shift + np.log(weights.total / cloud.n),
        t=cloud.t,
        step=cloud.step,
    )


def rho_estimate(cloud: ParticleCloud, phi: TestFunction | Array, y: Optional[Array] = None) -> float:
    """Unnormalised estimate rho_t(phi) = exp(log_mass) * mean(w_i phi(x_i))."""
    vals = phi if isinstance(phi, np.ndarray) else phi.value(cloud.states, y)
    if not np.all(np.isfinite(vals)):
        raise ValueError("test function is non-finite on the cloud")
    return float(np.exp(cloud.log_mass + cloud.weights.shift) * np.mean(cloud.weights.w * vals))


def pi_estimate(cloud: ParticleCloud, phi: TestFunction | Array, y: Optional[Array] = None) -> float:
    """Normalised estimate pi_t(phi) = rho_t(phi) / rho_t(1); invariant under
    any common shift of the log-weights, and exactly 1 for phi == 1 because
    numerator and denominator are then the same reduction."""
    vals = phi if isinstance(phi, np.ndarray) else phi.value(cloud.states, y)
    if not np.all(np.isfinite(vals)):
        raise ValueError("test function is non-finite on the cloud")
    return float(np.sum(cloud.weights.w * vals) / cloud.weights.total)


@dataclass
class FilterRun:
    times: Array
    pi: dict[str, Array]          # label -> trajectory of pi_t(phi)
    rho_one: Array                # trajectory of rho_t(1)
    ess: Array
    resampled: Array              # bool, per step


def run_filter(
    model: SignalModel,
    y_path: Array,
    grid: TimeGrid,
    config: FilterConfig,
    phis: Sequence[TestFunction] = (),
    time_functionals: Optional[Mapping[str, Callable[[Array, float], Array]]] = None,
) -> FilterRun:
    """Run the filter along one observation path and summarise it.

    `phis` are evaluated as pi_t(phi) at every grid time; `time_functionals`
    map (states, t) to per-particle values for summaries that need the clock,
    e.g. the change-detection posterior P(T <= t | Y).
    """
    y_path = np.atleast_2d(np.asarray(y_path, dtype=float))
    if y_path.shape[0] != grid.n_steps + 1:
        raise ValueError("observation path does not match the grid")
    rng_init = substream(config.seed, TAG_INIT)
    cloud = init_cloud(model.initial_law, config.n_particles, rng_init)
    n_steps = grid.n_steps
    labels = [phi.label for phi in phis]
    time_functionals = dict(time_functionals or {})
    pi_traj: dict[str, Array] = {lab: np.zeros(n_steps + 1) for lab in labels}
    for lab in time_functionals:
        pi_traj[lab] = np.zeros(n_steps + 1)
    rho_one = np.zeros(n_steps + 1)
    ess_traj = np.zeros(n_steps + 1)
    resampled = np.zeros(n_steps, dtype=bool)

    def record(k: int):
        t = k * grid.dt
        for phi in phis:
            pi_traj[phi.label][k] = pi_estimate(cloud, phi, y_path[k])
        for lab, fn in time_functionals.items():
            pi_traj[lab][k] = pi_estimate(cloud, np.asarray(fn(cloud.states, t), dtype=float))
        rho_one[k] = rho_estimate(cloud, np.ones(cloud.n))
        ess_traj[k] = ess(cloud)

    record(0)
    for k in range(n_steps):
        dy = y_path[k + 1] - y_path[k]
        rng_prop = substream(config.seed, TAG_PROPAGATE, k)
        rng_res = substream(config.seed, TAG_RESAMPLE, k)
        cloud, resampled[k] = step(cloud, model, y_path[k], dy, grid.dt, rng_prop, rng_res, config)
        record(k + 1)
    return FilterRun(
        times=grid.times(),
        pi=pi_traj,
        rho_one=rho_one,
        ess=ess_traj,
        resampled=resampled,
    )
