"""Change-of-measure particle filter over blocks of independent runs.

Particles move under the reference measure, where the observation path is a
Brownian motion driving the signal; the observed increments are consumed
both by the propagation (through sigma_bar) and by the importance weights
exp(h^T dy - |h|^2 dt / 2). The running unnormalised mass rho_t(1) survives
resampling through log_mass, which absorbs the pre-resampling mean weight.
The cloud reports it (ParticleCloud.rho_one); rho_t(phi) = rho_t(1) pi_t(phi)
(Kallianpur-Striebel), with pi_t(phi) = sum(w phi) / sum(w) the one reduction.

A cloud holds R runs of N particles each: states flat as (R*N, d), so the
model coefficients stay per-particle calls, and log-weights as (R, N). Every
reduction over particles (the weight total, the ESS's sum of squares and each
estimate) is a product and then np.sum along the contiguous last axis, so each
row is reduced on its own and in one order; the collapse checks read each row
too, and each row draws from its own generators, so a run's bytes do not
depend on the block it is stepped in. A single run is the block R = 1.

One walk (_walk) steps a block along its observation paths and yields each
grid time's cloud with h on its states, which the weight update and the
propagation of the step from it read, so h is evaluated once per grid time.
Its three reductions are run_filter, which records pi_t(phi), rho_t(1) and
the ESS of one run; verify.kalman_agreement_run, which reads pi_T(x) and
pi_T(x^2) of one run's horizon cloud through the same pi_estimate; and
verify.residual_run, which reads both the Zakai and the Kushner-Stratonovich
residuals of many off the same pi_t reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .models import Battery, SignalModel, change_indicator
from .rng import TAG_INIT, TAG_PROPAGATE, TAG_RESAMPLE, substream
from .simulate import TimeGrid, euler_step, fresh_increments, propagate_under_reference

Array = np.ndarray
Generators = Sequence[np.random.Generator]


class FilterCollapse(RuntimeError):
    def __init__(self, step: int, ess: float):
        super().__init__(f"filter collapse at step {step}: ESS {ess:.3g}")
        self.step = step
        self.ess = ess

    def __reduce__(self):   # rebuilt from its fields when a worker process raises it
        return type(self), (self.step, self.ess)


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int = 1000
    resample_threshold: float = 0.5   # resample when ESS < threshold * n
    seed: int = 0
    ignore_correlation: bool = False  # drop the sigma_bar feed-through (negative control)

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if not 0.0 <= self.resample_threshold <= 1.0:
            raise ValueError("resample_threshold must lie in [0, 1]")


@dataclass
class ParticleCloud:
    states: Array        # (R*N, d): run r holds rows r*N .. (r+1)*N - 1
    log_weights: Array   # (R, N)
    log_mass: Array      # (R,): log of the mass folded out at resampling times
    step: int = 0        # grid index k of the cloud's time k dt, reported on collapse

    @property
    def n(self) -> int:
        """Particles per run."""
        return self.log_weights.shape[-1]

    @cached_property
    def weights(self) -> Weights:   # once per cloud, unless set; no code writes a cloud it has handed out
        return Weights(self.log_weights, self.step)

    @property
    def rho_one(self) -> Array:
        """rho_t(1) of each run, (R,): exp(log_mass + shift) times the mean weight total / N."""
        return np.exp(self.log_mass + self.weights.shift) * (self.weights.total / self.n)


class Weights:
    """Per row of the log-weights: w = exp(log_w - shift) with shift = max(log_w),
    their sum total and the ESS = total^2 / sum(w^2) (Kong, Liu and Wong), each
    sum along the row; the estimates and resampling read them. Where a maximum
    is not finite, NaN log-weights become -inf in place (an exp underflow is a zero
    weight, not an arithmetic error); a row with no weight left raises FilterCollapse at `step`."""

    def __init__(self, log_weights: Array, step: int):
        shift = log_weights.max(axis=-1, keepdims=True)
        if not np.all(np.isfinite(shift)):
            log_weights[np.isnan(log_weights)] = -np.inf
            shift = log_weights.max(axis=-1, keepdims=True)
            if not np.all(np.isfinite(shift)):
                raise FilterCollapse(step=step, ess=0.0)
        self.w = np.subtract(log_weights, shift)
        np.exp(self.w, out=self.w)
        self.shift = shift[..., 0]
        self.total = self.w.sum(axis=-1)
        self.ess = self.total * self.total / np.sum(self.w * self.w, axis=-1)


def init_cloud(initial_law, n: int, rngs: Generators) -> ParticleCloud:
    """A block of len(rngs) runs of n particles; run r is drawn from rngs[r]."""
    if n < 2:
        raise ValueError("need at least 2 particles")
    states = np.concatenate([np.atleast_2d(np.asarray(initial_law(rng, n), dtype=float)) for rng in rngs])
    if states.shape[0] != n * len(rngs) or not np.all(np.isfinite(states)):
        raise ValueError("initial sampler returned an invalid draw")
    return ParticleCloud(states=states, log_weights=np.zeros((len(rngs), n)), log_mass=np.zeros(len(rngs)))


def systematic_counts(c: Array, rng: np.random.Generator) -> Array:
    """How often systematic resampling picks each particle, from one run's
    cumulative normalised weights c (nondecreasing) and one uniform draw u.
    K_i = floor(c_i n - u) + 1 of the positions (u + j) / n, j < n, lie at or
    below c_i; particle i takes the K_i - K_(i-1) above c_(i-1), the last one
    every position above c_(n-2). Where some c_i n - u lies within a few eps n,
    the rounding error of c_i n - u and of (u + j) / n, of an integer, the
    counts come from the binary search of the positions instead, so they equal
    its indices bit for bit either way."""
    n, u = c.shape[0], rng.random()
    k = np.empty(n + 1)   # 0, K_0 .. K_(n-2), n
    k[0], k[n] = 0.0, n
    frac = np.multiply(c[:-1], n)
    frac += 1.0 - u       # c_i n - u + 1 > 0 (1 - u is exact), so its integer part is K_i
    frac -= np.floor(frac, out=k[1:n])
    frac -= 0.5
    if np.abs(frac, out=frac).max() > 0.5 - 4.0 * n * np.finfo(float).eps:
        return np.bincount(np.searchsorted(c, (u + np.arange(n)) / n).clip(max=n - 1), minlength=n)
    np.minimum(k, n, out=k)   # a c_i rounded above 1 holds every position
    return np.subtract(k[1:], k[:-1], out=np.empty(n, dtype=np.intp), casting="unsafe")


def step(
    cloud: ParticleCloud,
    model: SignalModel,
    h: Array,
    dy: Array,
    dt: float,
    rngs_prop: Generators,
    rngs_res: Generators,
    config: FilterConfig,
) -> tuple[ParticleCloud, Array]:
    """Advance every run of the block through its observed increment over (t, t + dt].

    h is the model's sensor on the cloud's states at their observation and
    time, (R*N, m); dy holds one row per run, (R, m), and rngs_prop and
    rngs_res one generator per run. Weights are updated with the pre-step
    states (left-point integrand of the log-weight), then particles move
    under the reference dynamics using the same observed dy and the same h;
    a run whose ESS falls below the threshold resamples, folding its mean
    weight into log_mass. Returns (new cloud, per-run resampled flags).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    r, n = cloud.log_weights.shape
    dy = np.reshape(np.asarray(dy, dtype=float), (r, model.dim_y))
    k = cloud.step + 1
    h_rows = h.reshape(r, n, -1)
    # log_weights + (h.dy - |h|^2 dt / 2), in place into the new cloud's log-weights
    log_w = np.einsum("rnm,rnm->rn", h_rows, h_rows)
    log_w *= 0.5
    log_w *= dt
    np.subtract(np.einsum("rnm,rm->rn", h_rows, dy), log_w, out=log_w)
    log_w += cloud.log_weights
    weights = Weights(log_w, k)   # a row with no finite maximum collapses here, before the propagation
    if config.ignore_correlation:
        # correlation-blind ablation: fresh W noise in place of the observation feed
        dv, dw, dl = fresh_increments(model, dt, n, rngs_prop, dw=True)
        states = euler_step(model, cloud.states, model.f(cloud.states), dt, dv, dw, dl, k)
    else:
        states = propagate_under_reference(model, cloud.states, h, _per_particle(dy, n), dt, rngs_prop, k)
    if np.any(weights.ess < 1.0 + 1e-9):
        raise FilterCollapse(step=k, ess=float(weights.ess.min()))
    new = ParticleCloud(states=states, log_weights=log_w, log_mass=cloud.log_mass, step=k)
    new.weights = weights
    resampled = weights.ess < config.resample_threshold * n
    if resampled.any():
        resample(new, rngs_res, np.flatnonzero(resampled))   # the step's own arrays, in place
    return new, resampled


def resample(cloud: ParticleCloud, rngs: Generators, rows: Sequence[int]) -> None:
    """Systematic resampling, in place, of the given runs (rows of the block)
    of a cloud whose states, log-weights and weights its caller owns, each
    with one uniform from its own generator rngs[row], which systematic_counts
    turns into how often each particle is copied; the mean weight moves
    into log_mass, which is replaced, not written, so that rho_t(1) is
    preserved by construction. A resampled run's weights are set, not
    recomputed, to those of all-zero log-weights: w = 1, shift = 0, total = N
    and ESS = N."""
    weights, n = cloud.weights, cloud.n
    for row in rows:
        c = weights.w[row] / weights.total[row]   # the row's normalised weights, summed in place
        particles = cloud.states[row * n:(row + 1) * n]
        particles[...] = np.repeat(particles, systematic_counts(np.cumsum(c, out=c), rngs[row]), axis=0)
    cloud.log_mass = cloud.log_mass.copy()
    cloud.log_mass[rows] = cloud.log_mass[rows] + weights.shift[rows] + np.log(weights.total[rows] / n)
    cloud.log_weights[rows] = 0.0
    weights.w[rows] = 1.0
    weights.shift[rows] = 0.0
    weights.total[rows] = float(n)
    weights.ess[rows] = float(n)


def _per_particle(rows: Array, n: int) -> Array:
    """Each run's row (R, m) for its n particles, (R*N, m), or one run's row (m,) that its particles share."""
    return rows[0] if len(rows) == 1 else np.repeat(rows, n, axis=0)


def _walk(model: SignalModel, y_paths: Array, grid: TimeGrid, config: FilterConfig,
          keys: Sequence[tuple[int, ...]]):
    """Step a block of len(keys) runs along their observation paths y_paths,
    (R, K + 1, m) on the grid. Run r draws its initial cloud, propagation and
    resampling from substream(config.seed, TAG_role, *keys[r]), one generator
    per role built once and drawn from in order.

    For k = 0 .. K it yields (cloud, h, resampled): the block's cloud at
    grid index k, h(x, y_k, k dt) on its states, (R*N, m), and the per-run
    flags of the resampling in the step into it (all False at k = 0). The
    step from k reads the same h, so h is evaluated once per grid time. The
    clock is the grid time k dt, not a running sum of dt, so h and the change
    posterior read the clock that the data paths and the oracles read.
    """
    if y_paths.shape[1] != grid.n_steps + 1:
        raise ValueError("observation path does not match the grid")
    rngs_init, rngs_prop, rngs_res = ([substream(config.seed, tag, *key) for key in keys]
                                      for tag in (TAG_INIT, TAG_PROPAGATE, TAG_RESAMPLE))
    cloud = init_cloud(model.initial_law, config.n_particles, rngs_init)
    resampled = np.zeros(len(keys), dtype=bool)
    for k in range(grid.n_steps + 1):
        h = model.h(cloud.states, _per_particle(y_paths[:, k], config.n_particles), k * grid.dt)
        yield cloud, h, resampled
        if k < grid.n_steps:
            cloud, resampled = step(cloud, model, h, y_paths[:, k + 1] - y_paths[:, k], grid.dt, rngs_prop, rngs_res,
                                    config)


@dataclass
class FilterRun:
    times: Array
    pi: dict[str, Array]          # label -> trajectory of pi_t(phi)
    rho_one: Array                # trajectory of rho_t(1)
    ess: Array
    resampled: Array              # bool, per step


def pi_estimate(values: Array, weights: Weights) -> Array:
    """pi_t(phi) = sum(w phi) / sum(w) of a one-run cloud for each row of
    phi's values on its particles, (K, N), which it overwrites with w phi."""
    sums = np.multiply(values, weights.w, out=values).sum(axis=-1)
    # w lies in [0, 1], so a product is finite when phi is
    if not (np.isfinite(sums).all() or np.isfinite(values).all()):
        raise ValueError("test function is non-finite on the cloud")
    return sums / weights.total


def run_filter(
    model: SignalModel,
    y_path: Array,
    grid: TimeGrid,
    config: FilterConfig,
    battery: Optional[Battery] = None,
) -> FilterRun:
    """Run the filter along one observation path and summarise it: the walk
    of the block of one run, keyed (config.seed, TAG_role).

    The battery's test functions are evaluated as pi_t(phi) at every grid
    time, as one matrix. A model with a change_prior adds the last label
    "prob_change", the posterior P(T <= t | Y), the mean of change_indicator
    at the grid time k dt.
    """
    battery = battery or Battery((), model.dim_x)
    change = model.change_prior is not None
    labels = battery.labels + (("prob_change",) if change else ())
    values = np.empty((len(labels), config.n_particles))   # phi on the particles, refilled at every step
    pi_traj = np.zeros((len(labels), grid.n_steps + 1))
    rho_one = np.zeros(grid.n_steps + 1)
    ess_traj = np.zeros(grid.n_steps + 1)
    resampled = np.zeros(grid.n_steps + 1, dtype=bool)
    y_path = np.atleast_2d(np.asarray(y_path, dtype=float))
    for cloud, _, flags in _walk(model, y_path[None], grid, config, [()]):
        k = cloud.step
        battery.values(cloud.states, out=values[:len(battery.labels)])
        if change:
            values[-1] = change_indicator(cloud.states, k * grid.dt)
        pi_traj[:, k] = pi_estimate(values, cloud.weights)
        rho_one[k] = cloud.rho_one[0]
        ess_traj[k] = cloud.weights.ess[0]
        resampled[k] = flags[0]
    return FilterRun(
        times=grid.times(),
        pi=dict(zip(labels, pi_traj)),
        rho_one=rho_one,
        ess=ess_traj,
        resampled=resampled[1:],
    )
