"""Euler-Maruyama simulation of the coupled signal/observation pair and the
scenario path generators used by the martingale diagnostics.

Coefficients are evaluated at the left endpoint of each step (the cadlag
X_{s-} convention); jumps are applied within the step after the diffusion
part. Blow-ups abort the path with the offending step index rather than
clamping, since clamped states would silently corrupt weight statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .models import ConstCoeff, LevySpec, SignalModel, StepCoefficients
from .rng import TAG_DUFRESNE, TAG_HITTING, substream

Array = np.ndarray


class SimulationBlowUp(RuntimeError):
    def __init__(self, step: int, what: str = "state"):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step
        self.what = what

    def __reduce__(self):   # rebuilt from its fields when a worker process raises it
        return type(self), (self.step, self.what)


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
    """One realisation of (X, Y) on a TimeGrid, with the jump marks that fired."""

    grid: TimeGrid
    x: Array                    # (n_steps+1, d)
    y: Array                    # (n_steps+1, m), y[0] = 0
    jump_log: list[tuple[int, Array]] = field(default_factory=list)


def batch_levy_increments(levy: LevySpec, dt: float, n: int, rng: np.random.Generator) -> tuple[Array, Array]:
    """n independent increments of L over dt, shape (n, r), and the marks that
    fired, in path order. L_t = b t + compensated jumps, so a path's increment
    is b dt - jump_rate * mean_mark * dt plus its marks, added one at a time,
    and has mean b dt. The Poisson counts of all paths are one draw and their
    marks the next; a zero jump rate draws nothing."""
    out = np.empty((n, levy.dim))
    out[...] = levy.drift_b * dt - levy.jump_rate * levy.mean_mark * dt
    if levy.jump_rate == 0:
        return out, np.zeros((0, levy.dim))
    counts = rng.poisson(levy.jump_rate * dt, n)
    marks = levy.sample_marks(rng, int(counts.sum()))
    if marks.size:   # most steps fire nothing, and the scatter would cost more than the rest
        np.add.at(out, np.repeat(np.arange(n), counts), marks)
    return out, marks


def _is_zero(coeff) -> bool:
    """Whether a coefficient is a constant matrix of zeros (a term that moves nothing)."""
    return isinstance(coeff, ConstCoeff) and coeff.zero


def _times(coeff, x: Array, inc: Array) -> Array:
    """coeff(x) inc per state, shape (n, d): one product inc @ M.T with the
    matrix of a constant coefficient (np.dot, which skips matmul's per-call
    cost on these skinny shapes), a batched contraction otherwise."""
    if isinstance(coeff, ConstCoeff):
        return np.dot(inc, coeff.matrix.T)
    return np.einsum("nij,nj->ni", coeff(x), inc)


def euler_step(
    model: SignalModel, x: Array, drift: Array, dt: float, dv: Optional[Array], dw: Array,
    dl: Optional[Array] = None, step: int = -1,
) -> Array:
    """One Euler-Maruyama step x + drift dt + sigma(x) dv + sigma_bar(x) dw
    (+ sigma_tilde(x) dl) for a batch of states x (n, d), every coefficient at
    the left point. The callers choose what drives dw: fresh W noise under the
    physical measure, or the observed dY under the reference measure (with
    sigma_bar h folded into the drift). Each increment holds one row per
    state, (n, .); dw may instead be one (1, m) row that every state shares.
    `step` is the grid index of the result, reported on blow-up.

    A constant coefficient enters as one product with its matrix, and a term
    whose matrix is zero, or whose increment is None, is left out; the terms
    are added in the order above either way, in place into one new array.
    """
    out = drift * dt
    out += x
    for coeff, inc in ((model.sigma, dv), (model.sigma_bar, dw), (model.sigma_tilde, dl)):
        if inc is not None and not _is_zero(coeff):
            out += _times(coeff, x, inc)
    with np.errstate(over="ignore"):   # one sum, which only a non-finite entry or an overflow leaves non-finite
        finite = np.isfinite(out.sum()) or np.isfinite(out).all()
    if not finite:
        raise SimulationBlowUp(step)
    return out


def simulate_pairs(model: SignalModel, grid: TimeGrid, rngs: Sequence[np.random.Generator]) -> list[PathBundle]:
    """Euler-Maruyama paths of (X, Y) under the physical measure, one per
    generator. Each run first draws all its noise from rngs[r]: X_0, then per
    step dV and dW (one draw of p + m normals) and, for a model with jumps,
    batch_levy_increments of one path, whose marks fill the jump log. Without
    jumps the normals of all steps are one (n_steps, p + m) draw: the same
    normals in the same order. Then all runs step as one (R, d) array; every
    operation is per path, so a run's bytes do not depend on the others."""
    d, p, m = model.dim_x, model.dim_v, model.dim_y
    n, r = grid.n_steps, len(rngs)
    sq = np.sqrt(grid.dt)
    x = np.empty((r, n + 1, d))
    y = np.zeros((r, n + 1, m))
    dw = np.empty((r, n, m))
    # step-major, so that the rows of one step are contiguous
    dv = np.empty((n, r, p))
    dl = np.empty((n, r, model.levy.dim)) if model.has_jumps else None
    jump_logs: list[list[tuple[int, Array]]] = [[] for _ in rngs]
    for i, rng in enumerate(rngs):
        x[i, 0] = model.initial_law(rng, 1)[0]
        if dl is None:
            z = rng.standard_normal((n, p + m))
        else:
            z = np.empty((n, p + m))
            for k in range(n):
                z[k] = rng.standard_normal(p + m)
                dl[k, i], marks = batch_levy_increments(model.levy, grid.dt, 1, rng)
                jump_logs[i].extend((k, mark) for mark in marks)
        z *= sq
        dv[:, i], dw[i] = z[:, :p], z[:, p:]
    for k in range(n):
        xk = x[:, k]
        t = k * grid.dt
        x[:, k + 1] = euler_step(model, xk, model.f(xk), grid.dt, dv[k], dw[:, k], None if dl is None else dl[k], k + 1)
        # Observation identity: y[k+1] - y[k] = h(x[k]) dt + dw[k], exactly.
        y[:, k + 1] = y[:, k] + model.h_now(xk, y[:, k], t) * grid.dt + dw[:, k]
        if not np.all(np.isfinite(y[:, k + 1])):
            raise SimulationBlowUp(k + 1)
    return [PathBundle(grid=grid, x=x[i], y=y[i], jump_log=jump_logs[i]) for i in range(r)]


def simulate_pair(model: SignalModel, grid: TimeGrid, rng: np.random.Generator) -> PathBundle:
    """Euler-Maruyama path of (X, Y) under the physical measure: simulate_pairs of one path."""
    return simulate_pairs(model, grid, [rng])[0]


def fresh_increments(
    model: SignalModel, dt: float, n: int, rngs: Sequence[np.random.Generator], dw: bool = False,
    dv: bool = True,
) -> tuple[Optional[Array], Optional[Array], Optional[Array]]:
    """Fresh (dV, dW, dL) increments over dt for len(rngs) runs of n states,
    run r drawing from rngs[r] in the order dV, dW, dL (batch_levy_increments,
    whose marks are dropped); a term that is not asked for (or a model
    without jumps) gives None and draws nothing. Each run draws into its rows
    of one (len(rngs) * n, .) array per term."""
    normals = [np.empty((len(rngs) * n, dim)) if on else None for dim, on in ((model.dim_v, dv), (model.dim_y, dw))]
    dls = np.empty((len(rngs) * n, model.levy.dim)) if model.has_jumps else None
    for i, rng in enumerate(rngs):
        rows = slice(i * n, (i + 1) * n)
        for out in (a[rows] for a in normals if a is not None):
            rng.standard_normal(out=out)
            out *= np.sqrt(dt)
        if dls is not None:
            dls[rows] = batch_levy_increments(model.levy, dt, n, rng)[0]
    return normals[0], normals[1], dls


def propagate_under_reference(
    coeffs: StepCoefficients,
    dy: Array,
    dt: float,
    rngs: Sequence[np.random.Generator],
    step: int = -1,
) -> Array:
    """One Euler step of the reference-measure dynamics for len(rngs) runs of
    equally many states, stacked as (R*N, d) in coeffs (the coefficients on
    them at their observation and time); run r draws from rngs[r].

    Under the reference measure the observation path drives the signal:
    dX = (f~ - sigma_bar h) dt + sigma dV + sigma_bar dY + sigma_tilde dL,
    with the observed increment dy substituted for dY and fresh V/L noise.
    dy is one shared row (m,) or one row per state (R*N, m).
    Constant coefficients enter as matrices (see euler_step). A zero sigma_bar
    drops both of its terms and h is not read. A zero sigma draws no dV
    only without jumps, where no later draw from a run's generator would move.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    model, x = coeffs.model, coeffs.x
    dy = np.atleast_2d(np.asarray(dy, dtype=float))
    drift = model.f(x)
    if not _is_zero(model.sigma_bar):
        sbar_h = _times(model.sigma_bar, x, coeffs.h)
        drift = np.subtract(drift, sbar_h, out=sbar_h)
    dv, _, dl = fresh_increments(model, dt, x.shape[0] // len(rngs), rngs,
                                 dv=model.has_jumps or not _is_zero(model.sigma))
    return euler_step(model, x, drift, dt, dv, dy, dl, step)


# ---------------------------------------------------------------------------
# Counterexample scenario paths
# ---------------------------------------------------------------------------


PATH_CHUNK = 1000   # paths per substream (seed, TAG, chunk) of dufresne_paths and hitting_paths

# paths per draw in _walk_tiles: a tile is drawn, walked and reduced in cache;
# a generator draws in order, so the tiles are the bytes of one (undecided
# paths x block) draw, which is never built.
# A Dufresne tile of 16 x 1000 doubles (125 KiB) is below glibc's 128 KiB mmap threshold
TILE_ROWS = 16


def _walk_tiles(rng: np.random.Generator, n: int, n_steps: int, dt: float, block: int,
                undecided: Callable[[Array], Array]):
    """Brownian walks of n paths from 0, `block` steps of dt at a time up to
    step n_steps, for the paths still undecided.

    A block draws one (undecided, block) array from rng, TILE_ROWS paths at
    a time, and walks its first nb columns (nb < block only in the last
    block), so a path's draws depend neither on n_steps nor on when it is
    decided. Per tile it yields (done, rows, start, seg): the steps before
    the block, the tile's paths, and their walk at step done and at the steps
    done + 1 .. done + nb (the caller may overwrite seg but its last column).
    After each block only the paths for which undecided(rows) holds draw on.
    """
    sq = np.sqrt(dt)
    w = np.zeros(n)
    alive = np.arange(n)
    done = 0
    while alive.size and done < n_steps:
        nb = min(block, n_steps - done)
        for rows in np.split(alive, range(TILE_ROWS, alive.size, TILE_ROWS)):
            seg = rng.standard_normal((rows.size, block))[:, :nb]
            np.multiply(seg, sq, out=seg)
            np.cumsum(seg, axis=1, out=seg)
            start = w[rows]
            seg += start[:, None]
            w[rows] = seg[:, -1]
            yield done, rows, start, seg
        alive = alive[undecided(alive)]
        done += nb


DUFRESNE_BLOCK = 1000   # grid steps drawn at once for every undecided path of a chunk


def dufresne_paths(n_paths: int, grid: TimeGrid, seed: int, chunk: int) -> tuple[Array, Array]:
    """Per-path (X_T, B_T) for X_T = int_0^T exp(B_s - s/2) ds, a left-point
    sum on the grid up to its horizon T, for chunk `chunk` of n_paths paths:
    the paths from chunk * PATH_CHUNK to the next chunk or n_paths, drawn
    from substream(seed, TAG_DUFRESNE, chunk).

    X only grows, so once a path's integral reaches 1 its event {X_T < 1} is
    decided and the path stops drawing: the chunk's walk (_walk_tiles) steps
    DUFRESNE_BLOCK steps at a time and, at each block's end, drops every path
    with X >= 1. A decided path keeps the X (>= 1) and B of that block's end,
    so B_T is exact only where X_T < 1.
    """
    n = min(PATH_CHUNK, n_paths - chunk * PATH_CHUNK)
    dt = grid.dt
    half_t = 0.5 * dt * np.arange(grid.n_steps + 1)
    x = np.zeros(n)
    b = np.zeros(n)
    for done, rows, b0, seg in _walk_tiles(substream(seed, TAG_DUFRESNE, chunk), n, grid.n_steps, dt,
                                           DUFRESNE_BLOCK, lambda rows: x[rows] < 1.0):
        b[rows] = seg[:, -1]
        # left-point integrand exp(B_s - s/2): B at step done, then seg but its last column
        inner = seg[:, :-1]
        inner -= half_t[done + 1:done + seg.shape[1]]
        np.exp(inner, out=inner)
        x[rows] += (np.exp(b0 - 0.5 * done * dt) + inner.sum(axis=1)) * dt
    return x, b


HITTING_MAX_TIME = 400.0   # hitting paths unresolved by this time are censored
HITTING_BLOCK = 4000       # grid steps drawn at once for every undecided path of a chunk


def hitting_paths(barriers: Sequence[int], n_paths: int, dt: float, seed: int, chunk: int) -> tuple[Array, Array]:
    """Chunk `chunk` of n_paths Brownian walks on a dt-grid and their exits
    from (-1, n) for every barrier n: the paths from chunk * PATH_CHUNK to
    the next chunk or n_paths, drawn from substream(seed, TAG_HITTING, chunk).
    Returns (hit_low, resolved), bool, one row per barrier of the list and one
    column per path: -1 reached before n (read among resolved paths), and
    False where the path was censored at HITTING_MAX_TIME.

    A path runs until it leaves (-1, max barrier) or reaches HITTING_MAX_TIME
    (censored, flagged and never silently dropped), and the kernel keeps its
    first step at or below -1 and at or above each barrier; for barrier n it
    hit -1 first when the first comes before the second. How long a path
    draws, and with it every row, depends on the whole barrier list. The
    chunk's walk (_walk_tiles) steps HITTING_BLOCK steps at a time; each
    tile reduces to its rows' min and max, and only a row that crossed a new
    level is searched for the step. First passage on a grid carries the
    usual O(sqrt(dt)) overshoot bias, which the callers widen tolerances for.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    levels = np.asarray(barriers, dtype=float)
    top = int(np.argmax(levels))
    n = min(PATH_CHUNK, n_paths - chunk * PATH_CHUNK)
    max_steps = int(round(HITTING_MAX_TIME / dt))
    never = max_steps + 1
    t_lo = np.full(n, never)                   # first step at or below -1
    t_hi = np.full((n, levels.size), never)    # first step at or above each barrier
    for done, rows, _, seg in _walk_tiles(substream(seed, TAG_HITTING, chunk), n, max_steps, dt, HITTING_BLOCK,
                                          lambda rows: (t_lo[rows] == never) & (t_hi[rows, top] == never)):
        low = seg.min(axis=1) <= -1.0
        high = (seg.max(axis=1)[:, None] >= levels) & (t_hi[rows] == never)
        for i in np.flatnonzero(low | high.any(axis=1)):
            if low[i]:
                t_lo[rows[i]] = done + 1 + np.argmax(seg[i] <= -1.0)
            for j in np.flatnonzero(high[i]):
                t_hi[rows[i], j] = done + 1 + np.argmax(seg[i] >= levels[j])
    return t_lo < t_hi.T, np.minimum(t_lo, t_hi.T) < never
