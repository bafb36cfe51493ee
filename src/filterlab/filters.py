"""Change-of-measure particle filter over blocks of independent runs.

Particles move under the reference measure, where the observation path is a
Brownian motion driving the signal; the observed increments are consumed
both by the propagation (through sigma_bar) and by the importance weights
exp(h^T dy - |h|^2 dt / 2). The running unnormalised mass rho_t(1) survives
resampling through log_mass, which absorbs the pre-resampling mean weight.

A cloud holds R runs of N particles each: states flat as (R*N, d), so the
model coefficients stay per-particle calls, and log-weights as (R, N). Every
weight, estimate, ESS and collapse check reduces each row on its own along
the last axis, and each row draws from its own generators, so a run's bytes
do not depend on the block it is stepped in. A single run is the block R = 1.

One walk (_walk) steps a block along its observation paths and yields each
grid time's cloud with the step's StepCoefficients, whose h both the weight
update and the propagation read, so h is evaluated once per step. Its two
reductions are run_filter, which records pi_t(phi), rho_t(1) and the ESS of
one run, and verify.residual_run, which accumulates the Zakai and
Kushner-Stratonovich residuals of many.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .models import Battery, SignalModel, StepCoefficients
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
    states: Array        # (R*N, d): run r holds rows r*N .. (r+1)*N - 1
    log_weights: Array   # (R, N)
    log_mass: Array      # (R,): log of the mass folded out at resampling times
    t: float
    step: int = 0        # grid index of t, reported on collapse

    @property
    def n(self) -> int:
        """Particles per run."""
        return self.log_weights.shape[-1]

    @cached_property
    def weights(self) -> Weights:   # once per cloud: no code changes a cloud's arrays in place
        return Weights(self.log_weights, self.step)

    @cached_property
    def mass(self) -> Array:
        """exp(log_mass + shift) of each run, (R,): rho_t(phi) = mass * mean(w phi)."""
        return np.exp(self.log_mass + self.weights.shift)


class Weights:
    """Per row of the log-weights: w = exp(log_w - shift) with shift = max(log_w),
    their sum and the ESS, each computed once; the estimates and resampling read
    them. A row with no weight left raises FilterCollapse at `step`, its grid index."""

    def __init__(self, log_weights: Array, step: int):
        shift = log_weights.max(axis=-1, keepdims=True)
        if not np.all(np.isfinite(shift)):
            raise FilterCollapse(step=step, ess=0.0)
        self.w = np.exp(log_weights - shift)
        self.shift = shift[..., 0]
        self.total = self.w.sum(axis=-1)

    @cached_property
    def normalized(self) -> Array:
        return self.w / self.total[..., None]

    @cached_property
    def ess(self) -> Array:
        return 1.0 / np.sum(self.normalized * self.normalized, axis=-1)


def _reset_rows(weights: Weights, rows: Array) -> Weights:
    """`weights` with the given rows set to what all-zero log-weights give:
    w = 1, shift = 0 and total = N, the same bytes as Weights(zeros)."""
    out = Weights.__new__(Weights)
    out.w, out.shift, out.total = weights.w.copy(), weights.shift.copy(), weights.total.copy()
    out.w[rows] = 1.0
    out.shift[rows] = 0.0
    out.total[rows] = float(out.w.shape[-1])
    return out


def init_cloud(initial_law, n: int, rngs: Generators) -> ParticleCloud:
    """A block of len(rngs) runs of n particles; run r is drawn from rngs[r]."""
    if n < 2:
        raise ValueError("need at least 2 particles")
    states = np.concatenate([np.atleast_2d(np.asarray(initial_law(rng, n), dtype=float)) for rng in rngs])
    if states.shape[0] != n * len(rngs) or not np.all(np.isfinite(states)):
        raise ValueError("initial sampler returned an invalid draw")
    return ParticleCloud(states=states, log_weights=np.zeros((len(rngs), n)), log_mass=np.zeros(len(rngs)), t=0.0)


def systematic_resample(probs: Array, rng: np.random.Generator) -> Array:
    """Systematic resampling indices for one run's normalised weights, from one uniform draw."""
    n = probs.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(probs), positions).clip(max=n - 1)


def step(
    cloud: ParticleCloud,
    coeffs: StepCoefficients,
    dy: Array,
    dt: float,
    rngs_prop: Generators,
    rngs_res: Generators,
    config: FilterConfig,
) -> tuple[ParticleCloud, Array]:
    """Advance every run of the block through its observed increment over (t, t + dt].

    coeffs are the model's coefficients on the cloud's states at its
    observation and time; dy holds one row per run, (R, m), and rngs_prop and
    rngs_res one generator per run. Weights are updated with the pre-step
    states (left-point integrand of the log-weight), then particles move
    under the reference dynamics using the same observed dy and the same h;
    a run whose ESS falls below the threshold resamples, folding its mean
    weight into log_mass. The new cloud's t is its grid time k dt, not a
    running sum of dt, so h and the time functionals read the clock that the
    data paths and the oracles read. Returns (new cloud, per-run resampled flags).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    model = coeffs.model
    r, n = cloud.log_weights.shape
    # each run's increment, repeated for its particles: (R*N, m)
    dy_rows = np.repeat(np.reshape(np.asarray(dy, dtype=float), (r, model.dim_y)), n, axis=0)
    k = cloud.step + 1
    hvals = coeffs.h
    inc = np.einsum("nm,nm->n", hvals, dy_rows) - 0.5 * np.einsum("nm,nm->n", hvals, hvals) * dt
    log_w = cloud.log_weights + inc.reshape(r, n)
    if not np.all(np.isfinite(log_w)):
        # exp underflow to -inf is a degenerate weight, not an arithmetic error
        log_w = np.where(np.isnan(log_w), -np.inf, log_w)
        if not np.all(np.isfinite(log_w.max(axis=-1))):
            raise FilterCollapse(step=k, ess=0.0)
    if config.ignore_correlation:
        # correlation-blind ablation: fresh W noise in place of the observation feed
        dv, dw, dl = fresh_increments(model, dt, n, rngs_prop, dw=True)
        states = euler_step(model, cloud.states, model.f(cloud.states), dt, dv, dw, dl, k)
    else:
        states = propagate_under_reference(coeffs, dy_rows, dt, rngs_prop, k)
    new = ParticleCloud(states=states, log_weights=log_w, log_mass=cloud.log_mass, t=k * dt, step=k)
    current_ess = new.weights.ess
    if np.any(current_ess < 1.0 + 1e-9):
        raise FilterCollapse(step=k, ess=float(current_ess.min()))
    resampled = current_ess < config.resample_threshold * n
    if resampled.any():
        new = resample(new, rngs_res, np.flatnonzero(resampled))
    return new, resampled


def resample(cloud: ParticleCloud, rngs: Generators, rows: Sequence[int]) -> ParticleCloud:
    """Systematic resampling of the given runs (rows of the block), each with
    one uniform from its own generator rngs[row]; the mean weight moves into
    log_mass so that rho_t(1) is preserved by construction. The new cloud's
    weights are set, not recomputed: a resampled run has w = 1 and total N."""
    weights = cloud.weights
    n = cloud.n
    states = cloud.states.copy()
    for row in rows:
        idx = systematic_resample(weights.normalized[row], rngs[row])
        states[row * n:(row + 1) * n] = cloud.states[row * n + idx]
    log_weights = cloud.log_weights.copy()
    log_weights[rows] = 0.0
    log_mass = cloud.log_mass.copy()
    log_mass[rows] = log_mass[rows] + weights.shift[rows] + np.log(weights.total[rows] / n)
    new = ParticleCloud(states=states, log_weights=log_weights, log_mass=log_mass, t=cloud.t, step=cloud.step)
    new.weights = _reset_rows(weights, rows)
    return new


def pi_estimate(cloud: ParticleCloud, values: Array) -> Array:
    """Normalised estimate pi_t(phi) = rho_t(phi) / rho_t(1) of each run, from
    phi's values on the cloud's particles; invariant under any common shift of
    a run's log-weights, and exactly 1 for phi == 1 because numerator and
    denominator are then the same reduction."""
    weights = cloud.weights
    if not np.all(np.isfinite(values)):
        raise ValueError("test function is non-finite on the cloud")
    return np.sum(weights.w * np.reshape(values, cloud.log_weights.shape), axis=-1) / weights.total


def _walk(model: SignalModel, y_paths: Array, grid: TimeGrid, config: FilterConfig,
          keys: Sequence[tuple[int, ...]]):
    """Step a block of len(keys) runs along their observation paths y_paths,
    (R, K + 1, m) on the grid. Run r draws its initial cloud, propagation and
    resampling from substream(config.seed, TAG_role, *keys[r]), one generator
    per role built once and drawn from in order.

    For k = 0 .. K it yields (cloud, coeffs, resampled): the block's cloud
    at grid index k, the StepCoefficients on its states at y_k and its time,
    and the per-run flags of the resampling in the step into it (all False at
    k = 0). The step from k reads the same coeffs, so whatever a reduction
    evaluates on them, h included, is evaluated once.
    """
    if y_paths.shape[1] != grid.n_steps + 1:
        raise ValueError("observation path does not match the grid")
    rngs_init, rngs_prop, rngs_res = ([substream(config.seed, tag, *key) for key in keys]
                                      for tag in (TAG_INIT, TAG_PROPAGATE, TAG_RESAMPLE))
    cloud = init_cloud(model.initial_law, config.n_particles, rngs_init)
    resampled = np.zeros(len(keys), dtype=bool)
    for k in range(grid.n_steps + 1):
        # each run's observation row, repeated for its particles: (R*N, m)
        coeffs = StepCoefficients(model, cloud.states, np.repeat(y_paths[:, k], config.n_particles, axis=0), cloud.t)
        yield cloud, coeffs, resampled
        if k < grid.n_steps:
            cloud, resampled = step(cloud, coeffs, y_paths[:, k + 1] - y_paths[:, k], grid.dt, rngs_prop, rngs_res,
                                    config)


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
    battery: Optional[Battery] = None,
    time_functionals: Optional[Mapping[str, Callable[[Array, float], Array]]] = None,
) -> FilterRun:
    """Run the filter along one observation path and summarise it: the walk
    of the block of one run, keyed (config.seed, TAG_role).

    The battery's test functions are evaluated as pi_t(phi) at every grid
    time, as one matrix; `time_functionals` map (states, t) to per-particle
    values for summaries that need the clock, e.g. the change-detection
    posterior P(T <= t | Y).
    """
    battery = battery or Battery((), model.dim_x)
    time_functionals = dict(time_functionals or {})
    labels = battery.labels + tuple(time_functionals)
    pi_traj = np.zeros((len(labels), grid.n_steps + 1))
    rho_one = np.zeros(grid.n_steps + 1)
    ess_traj = np.zeros(grid.n_steps + 1)
    resampled = np.zeros(grid.n_steps + 1, dtype=bool)
    y_path = np.atleast_2d(np.asarray(y_path, dtype=float))
    for cloud, _, flags in _walk(model, y_path[None], grid, config, [()]):
        k = cloud.step
        rows = list(battery.values(cloud.states)) + [fn(cloud.states, cloud.t) for fn in time_functionals.values()]
        # row by row: at 10^4 particles a stacked (K, N) product costs more in
        # allocation than one reduction call per row saves
        pi_traj[:, k] = [pi_estimate(cloud, row)[0] for row in rows]
        rho_one[k] = cloud.mass[0] * np.mean(cloud.weights.w[0])   # rho_t(1)
        ess_traj[k] = cloud.weights.ess[0]
        resampled[k] = flags[0]
    return FilterRun(
        times=grid.times(),
        pi=dict(zip(labels, pi_traj)),
        rho_one=rho_one,
        ess=ess_traj,
        resampled=resampled[1:],
    )
