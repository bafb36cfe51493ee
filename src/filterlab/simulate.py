"""Euler-Maruyama simulation of the coupled signal/observation pair and the
scenario path generators used by the martingale diagnostics.

Coefficients are evaluated at the left endpoint of each step (the cadlag
X_{s-} convention); jumps are applied within the step after the diffusion
part. Blow-ups abort the path with the offending step index rather than
clamping, since clamped states would silently corrupt weight statistics.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .models import LevySpec, SignalModel

Array = np.ndarray


class SimulationBlowUp(RuntimeError):
    def __init__(self, step: int, what: str = "state"):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with n_steps panels of width dt.

    horizon == 0 (a zero-length grid, initial time only) is allowed so that
    degenerate runs can still emit their initial summaries.
    """

    horizon: float
    dt: float

    def __post_init__(self):
        if self.horizon < 0 or self.dt <= 0:
            raise ValueError("horizon must be >= 0 and dt > 0")
        n = round(self.horizon / self.dt)
        if abs(n * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"horizon {self.horizon} is not an integer multiple of dt {self.dt}")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    def times(self) -> Array:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def index_of(self, t: float) -> int:
        k = round(t / self.dt)
        if not 0 <= k <= self.n_steps or abs(k * self.dt - t) > 1e-9:
            raise ValueError(f"time {t} is not on the grid")
        return k


@dataclass
class PathBundle:
    """One realisation of (X, Y) plus the driving increments on a TimeGrid."""

    grid: TimeGrid
    x: Array                    # (n_steps+1, d)
    y: Array                    # (n_steps+1, m), y[0] = 0
    w_increments: Array         # (n_steps, m)
    v_increments: Array         # (n_steps, p)
    jump_log: list[tuple[int, Array]] = field(default_factory=list)
    seed: Optional[int] = None

    def observation_increments(self) -> Array:
        return np.diff(self.y, axis=0)


def sample_levy_increment(
    levy: LevySpec, dt: float, rng: np.random.Generator
) -> tuple[Array, Array]:
    """One increment of L over dt plus the raw marks that fired.

    L_t = b t + compensated jumps, so the increment is
    b dt + (sum of marks) - jump_rate * mean_mark * dt and has mean b dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    b = levy.drift_b
    if levy.jump_rate == 0:
        return b * dt, np.zeros((0, levy.dim))
    k = rng.poisson(levy.jump_rate * dt)
    marks = levy.sample_marks(rng, int(k))
    inc = b * dt + marks.sum(axis=0) - levy.jump_rate * levy.mean_mark() * dt
    return inc, marks


def batch_levy_increments(levy: LevySpec, dt: float, n: int, rng: np.random.Generator) -> Array:
    """n independent Levy increments over dt, shape (n, r); the marks of all
    paths are drawn in one call and scattered back by path index."""
    base = levy.drift_b * dt
    if levy.jump_rate > 0:
        base = base - levy.jump_rate * levy.mean_mark() * dt
    out = np.broadcast_to(base, (n, levy.dim)).copy()
    if levy.jump_rate > 0:
        counts = rng.poisson(levy.jump_rate * dt, n)
        total = int(counts.sum())
        if total:
            marks = levy.sample_marks(rng, total)
            np.add.at(out, np.repeat(np.arange(n), counts), marks)
    return out


def euler_step(
    model: SignalModel, x: Array, drift: Array, dt: float, dv: Array, dw: Array,
    dl: Optional[Array] = None, step: int = -1, sigma_bar: Optional[Array] = None,
) -> Array:
    """One Euler-Maruyama step x + drift dt + sigma(x) dv + sigma_bar(x) dw
    (+ sigma_tilde(x) dl) for a batch of states x (n, d), every coefficient at
    the left point. The callers choose what drives dw: fresh W noise under the
    physical measure, or the observed dY under the reference measure (with
    sigma_bar h folded into the drift), passed as one (1, m) row that every
    state shares. `step` is the grid index of the result, reported on blow-up;
    `sigma_bar` is sigma_bar(x), when the caller has already evaluated it.
    """
    sbar = model.sigma_bar(x) if sigma_bar is None else sigma_bar
    out = (
        x
        + drift * dt
        + np.einsum("nip,np->ni", model.sigma(x), dv)
        + np.einsum("nim,nm->ni", sbar, dw)
    )
    if dl is not None:
        out = out + np.einsum("nir,nr->ni", model.sigma_tilde(x), dl)
    if not np.all(np.isfinite(out)):
        raise SimulationBlowUp(step)
    return out


def simulate_pair(model: SignalModel, grid: TimeGrid, rng: np.random.Generator) -> PathBundle:
    """Euler-Maruyama path of (X, Y) under the physical measure."""
    d, p, m = model.dim_x, model.dim_v, model.dim_y
    n = grid.n_steps
    sq = np.sqrt(grid.dt)
    x = np.empty((n + 1, d))
    y = np.zeros((n + 1, m))
    dw = np.empty((n, m))
    dv = np.empty((n, p))
    jump_log: list[tuple[int, Array]] = []
    x[0] = model.initial_law(rng, 1)[0]
    for k in range(n):
        xk = x[k][None, :]
        t = k * grid.dt
        dv[k] = rng.standard_normal(p) * sq
        dw[k] = rng.standard_normal(m) * sq
        dl = None
        if model.has_jumps:
            # the scalar sampler, not the batched one: it yields the marks
            inc, marks = sample_levy_increment(model.levy, grid.dt, rng)
            dl = inc[None, :]
            jump_log.extend((k, mark) for mark in marks)
        x[k + 1] = euler_step(model, xk, model.f(xk), grid.dt, dv[k][None, :], dw[k][None, :], dl, k + 1)[0]
        # Observation identity: y[k+1] - y[k] = h(x[k]) dt + dw[k], exactly.
        hk = model.h_now(xk, y[k], t)[0]
        y[k + 1] = y[k] + hk * grid.dt + dw[k]
        if not np.all(np.isfinite(y[k + 1])):
            raise SimulationBlowUp(k + 1)
    return PathBundle(grid=grid, x=x, y=y, w_increments=dw, v_increments=dv, jump_log=jump_log)


def propagate_under_reference(
    model: SignalModel,
    states: Array,
    y: Array,
    dy: Array,
    dt: float,
    t: float,
    rng: np.random.Generator,
    step: int = -1,
) -> Array:
    """One Euler step of the reference-measure dynamics for a batch of states.

    Under the reference measure the observation path drives the signal:
    dX = (f~ - sigma_bar h) dt + sigma dV + sigma_bar dY + sigma_tilde dL,
    with the observed increment dy substituted for dY and fresh V/L noise.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.atleast_2d(np.asarray(states, dtype=float))
    n = x.shape[0]
    dy = np.asarray(dy, dtype=float).reshape(model.dim_y)
    sbar = model.sigma_bar(x)
    drift = model.f(x) - np.einsum("nim,nm->ni", sbar, model.h_now(x, y, t))
    dv = rng.standard_normal((n, model.dim_v)) * np.sqrt(dt)
    dl = batch_levy_increments(model.levy, dt, n, rng) if model.has_jumps else None
    return euler_step(model, x, drift, dt, dv, dy[None, :], dl, step, sbar)


# ---------------------------------------------------------------------------
# Counterexample scenario paths
# ---------------------------------------------------------------------------


@dataclass
class DufresnePaths:
    """Truncated exponential-functional values X = int_0^T exp(B_s - s/2) ds."""

    horizon: float
    dt: float
    x_trunc: Array
    b_terminal: Array


@dataclass
class HittingPaths:
    """First exit of Brownian motion from (-1, n) on a dt-grid."""

    barrier: int
    dt: float
    hit_low: Array      # bool, among resolved paths
    exit_step: Array
    resolved: Array     # bool; False = censored at max_time


def simulate_counterexample_paths(kind: str, params: dict, grid: TimeGrid, rng: np.random.Generator):
    if kind == "dufresne":
        return _dufresne_paths(int(params["n_paths"]), grid, rng)
    if kind == "hitting":
        return _hitting_paths(int(params["barrier"]), int(params["n_paths"]), grid, rng,
                              float(params.get("max_time", 400.0)))
    raise ValueError(f"unknown counterexample kind {kind!r}")


def _dufresne_paths(n_paths: int, grid: TimeGrid, rng: np.random.Generator) -> DufresnePaths:
    k, dt = grid.n_steps, grid.dt
    sq = np.sqrt(dt)
    b = np.zeros(n_paths)
    x = np.zeros(n_paths)
    t = 0.0
    for i in range(k):
        # left-point integrand exp(B_s - s/2)
        x += np.exp(b - 0.5 * t) * dt
        b += rng.standard_normal(n_paths) * sq
        t += dt
    return DufresnePaths(horizon=grid.horizon, dt=dt, x_trunc=x, b_terminal=b)


def _hitting_paths(
    barrier: int, n_paths: int, grid: TimeGrid, rng: np.random.Generator,
    max_time: float, block: int = 4000,
) -> HittingPaths:
    """Exit of W from (-1, barrier), simulated in blocks over the active set.

    The grid supplies dt; paths run until absorption or max_time (censoring
    flagged, never silently dropped). First passage on a grid carries the
    usual O(sqrt(dt)) overshoot bias, which the callers widen tolerances for.
    """
    dt = grid.dt
    sq = np.sqrt(dt)
    x = np.zeros(n_paths)
    alive = np.arange(n_paths)
    hit_low = np.zeros(n_paths, dtype=bool)
    resolved = np.zeros(n_paths, dtype=bool)
    exit_step = np.zeros(n_paths, dtype=np.int64)
    steps_done = 0
    max_steps = int(round(max_time / dt))
    while alive.size and steps_done < max_steps:
        nb = min(block, max_steps - steps_done)
        seg = rng.standard_normal((alive.size, nb))
        np.multiply(seg, sq, out=seg)
        np.cumsum(seg, axis=1, out=seg)
        seg += x[alive][:, None]
        lo = seg <= -1.0
        hi = seg >= float(barrier)
        any_lo = lo.any(axis=1)
        any_hi = hi.any(axis=1)
        first_lo = np.where(any_lo, np.argmax(lo, axis=1), nb)
        first_hi = np.where(any_hi, np.argmax(hi, axis=1), nb)
        done = any_lo | any_hi
        idx = alive[done]
        hit_low[idx] = first_lo[done] < first_hi[done]
        exit_step[idx] = steps_done + np.minimum(first_lo[done], first_hi[done]) + 1
        resolved[idx] = True
        x[alive] = seg[:, -1]
        alive = alive[~done]
        steps_done += nb
    return HittingPaths(barrier=barrier, dt=dt, hit_low=hit_low, exit_step=exit_step, resolved=resolved)


# ---------------------------------------------------------------------------
# Path export / import
# ---------------------------------------------------------------------------

FLOAT_FMT = "%.17g"


def path_to_csv(bundle: PathBundle) -> str:
    """CSV dump (step, t, x_1..x_d, y_1..y_m); grid and seed go in the header row."""
    d = bundle.x.shape[1]
    m = bundle.y.shape[1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"# horizon={bundle.grid.horizon!r} dt={bundle.grid.dt!r} seed={bundle.seed!r}"])
    writer.writerow(["step", "t"] + [f"x_{i+1}" for i in range(d)] + [f"y_{j+1}" for j in range(m)])
    times = bundle.grid.times()
    for k in range(bundle.grid.n_steps + 1):
        row = [str(k), FLOAT_FMT % times[k]]
        row += [FLOAT_FMT % v for v in bundle.x[k]]
        row += [FLOAT_FMT % v for v in bundle.y[k]]
        writer.writerow(row)
    return buf.getvalue()


def jumps_to_csv(bundle: PathBundle) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    r = bundle.jump_log[0][1].size if bundle.jump_log else 1
    writer.writerow(["step"] + [f"mark_{i+1}" for i in range(r)])
    for k, mark in bundle.jump_log:
        writer.writerow([str(k)] + [FLOAT_FMT % v for v in np.atleast_1d(mark)])
    return buf.getvalue()


def path_to_json(bundle: PathBundle) -> str:
    """Self-describing lossless dump: grid and seed in the header, states,
    observations, driving increments and the jump log in full precision."""
    import json

    payload = {
        "grid": {"horizon": bundle.grid.horizon, "dt": bundle.grid.dt},
        "seed": bundle.seed,
        "x": bundle.x.tolist(),
        "y": bundle.y.tolist(),
        "w_increments": bundle.w_increments.tolist(),
        "v_increments": bundle.v_increments.tolist(),
        "jump_log": [[k, list(map(float, np.atleast_1d(mark)))] for k, mark in bundle.jump_log],
    }
    return json.dumps(payload, sort_keys=True)


def path_from_json(text: str) -> PathBundle:
    import json

    payload = json.loads(text)
    grid = TimeGrid(**payload["grid"])
    return PathBundle(
        grid=grid,
        x=np.asarray(payload["x"], dtype=float),
        y=np.asarray(payload["y"], dtype=float),
        w_increments=np.asarray(payload["w_increments"], dtype=float),
        v_increments=np.asarray(payload["v_increments"], dtype=float),
        jump_log=[(int(k), np.asarray(mark, dtype=float)) for k, mark in payload["jump_log"]],
        seed=payload["seed"],
    )
