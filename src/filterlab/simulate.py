"""Euler-Maruyama simulation of the coupled signal/observation pair and the
scenario path generators used by the martingale diagnostics.

Coefficients are evaluated at the left endpoint of each step (the cadlag
X_{s-} convention); jumps are applied within the step after the diffusion
part. Blow-ups abort the path with the offending step index rather than
clamping, since clamped states would silently corrupt weight statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .models import LevySpec, SignalModel
from .rng import TAG_DUFRESNE, TAG_HITTING, substream

Array = np.ndarray


class SimulationBlowUp(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step

    def __reduce__(self):   # rebuilt from its step when a worker process raises it
        return type(self), (self.step,)


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
        if not self.horizon / self.dt < np.iinfo(np.int64).max - 1:   # hitting_paths' never, one past the last step, too
            raise ValueError(f"horizon / dt = {self.horizon / self.dt:g} steps do not fit a 64-bit step index")
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
    """One realisation of (X, Y) on a TimeGrid, with the jumps that fired:
    mark jump_marks[j] is in the increment of step jump_steps[j], in step order."""

    x: Array                    # (n_steps+1, d)
    y: Array                    # (n_steps+1, m), y[0] = 0
    jump_steps: Array           # (n_jumps,) int
    jump_marks: Array           # (n_jumps, r)


def batch_levy_increments(levy: LevySpec, dt: float, rngs: Sequence[np.random.Generator], out: Array) -> tuple[Array, Array]:
    """Add the increments of L over dt for len(rngs) runs of equally many
    paths to their rows (R * n, r) of `out`, which the caller owns and has set
    to levy.compensated_drift(dt); return the row of each mark that fired and
    the marks, in path order. Run i draws from rngs[i] its paths' Poisson
    counts (none at a zero rate), then their marks, which one scatter adds to
    their rows, so L_t = b t + compensated jumps has mean b dt."""
    if not levy.jump_rate:
        return np.arange(0), levy.locs[:0]
    n = len(out) // len(rngs)
    counts, marks = [], []
    for rng in rngs:
        counts.append(rng.poisson(levy.jump_rate * dt, n))
        marks.append(levy.sample_marks(rng, int(counts[-1].sum())))
    rows = np.repeat(np.arange(len(out)), np.concatenate(counts))
    marks = np.concatenate(marks)
    np.add.at(out, rows, marks)
    return rows, marks


def euler_step(
    model: SignalModel, x: Array, drift: Array, dt: float, dv: Optional[Array], dw: Array,
    dl: Optional[Array] = None, step: int = -1,
) -> Array:
    """One Euler-Maruyama step x + drift dt + sigma dv + sigma_bar dw
    (+ sigma_tilde dl) for a batch of states x (n, d), the drift at the left
    point. The callers choose what drives dw: fresh W noise under the
    physical measure, or the observed dY under the reference measure (with
    sigma_bar h folded into the drift). Each increment holds one row per
    state, (n, .); dw may instead be one (1, m) row that every state shares.
    `step` is the grid index of the result, reported on blow-up.

    Each noise term is one product with its matrix (SignalModel.noise_factors);
    a term whose matrix is zero, or whose increment is None, is left out. The
    terms are added in the order above, in place into one new array.
    """
    out = drift * dt
    out += x
    for inc, factor in zip((dv, dw, dl), model.noise_factors):
        if inc is not None and factor is not None:
            out += np.dot(inc, factor)
    with np.errstate(over="ignore"):   # one sum, which only a non-finite entry or an overflow leaves non-finite
        finite = np.isfinite(out.sum()) or np.isfinite(out).all()
    if not finite:
        raise SimulationBlowUp(step)
    return out


def simulate_pairs(model: SignalModel, grid: TimeGrid, rngs: Sequence[np.random.Generator]) -> list[PathBundle]:
    """Euler-Maruyama paths of (X, Y) under the physical measure, one per
    generator. Each run first draws all its noise from rngs[r], one draw per
    law: X_0, the normals dV and dW of all steps as one (n_steps, p + m)
    draw, and, for a model with jumps, the Poisson counts and marks of all
    steps as one batch_levy_increments call over the path's n_steps rows.
    Then all runs step as one (R, d) array; every operation is per path, so a
    run's bytes do not depend on the others."""
    d, p, m = model.dim_x, model.dim_v, model.dim_y
    n, r = grid.n_steps, len(rngs)
    sq = np.sqrt(grid.dt)
    x = np.empty((r, n + 1, d))
    y = np.zeros((r, n + 1, m))
    dw = np.empty((r, n, m))
    # step-major, so that the rows of one step are contiguous
    dv = np.empty((n, r, p))
    dl = np.full((n, r, model.levy.dim), model.levy.compensated_drift(grid.dt)) if model.has_jumps else None
    no_jumps = (np.arange(0), np.empty((0, model.levy.dim if model.levy is not None else 0)))
    jumps = [no_jumps] * r
    for i, rng in enumerate(rngs):
        x[i, 0] = model.initial_law(rng, 1)[0]
        z = rng.standard_normal((n, p + m))
        z *= sq
        dv[:, i], dw[i] = z[:, :p], z[:, p:]
        if dl is not None:
            jumps[i] = batch_levy_increments(model.levy, grid.dt, [rng], dl[:, i])
    for k in range(n):
        xk = x[:, k]
        t = k * grid.dt
        x[:, k + 1] = euler_step(model, xk, model.f(xk), grid.dt, dv[k], dw[:, k], None if dl is None else dl[k], k + 1)
        # Observation identity: y[k+1] - y[k] = h(x[k]) dt + dw[k], exactly.
        y[:, k + 1] = y[:, k] + model.h(xk, y[:, k], t) * grid.dt + dw[:, k]
        if not np.all(np.isfinite(y[:, k + 1])):
            raise SimulationBlowUp(k + 1)
    return [PathBundle(x[i], y[i], *jumps[i]) for i in range(r)]


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
    of one (len(rngs) * n, .) array per term, and dL of all runs is one
    batch_levy_increments call: its generators are apart, so each still draws
    dV, dW, then dL."""
    normals = [np.empty((len(rngs) * n, dim)) if on else None for dim, on in ((model.dim_v, dv), (model.dim_y, dw))]
    dls = np.full((len(rngs) * n, model.levy.dim), model.levy.compensated_drift(dt)) if model.has_jumps else None
    sq = np.sqrt(dt)
    for i, rng in enumerate(rngs):
        rows = slice(i * n, (i + 1) * n)
        for out in (a[rows] for a in normals if a is not None):
            rng.standard_normal(out=out)
            out *= sq
    if dls is not None:
        batch_levy_increments(model.levy, dt, rngs, dls)
    return normals[0], normals[1], dls


def propagate_under_reference(
    model: SignalModel,
    x: Array,
    h: Array,
    dy: Array,
    dt: float,
    rngs: Sequence[np.random.Generator],
    step: int = -1,
) -> Array:
    """One Euler step of the reference-measure dynamics for len(rngs) runs of
    equally many states x, stacked as (R*N, d), with h (R*N, m) the model's
    sensor on them at their observation and time; run r draws from rngs[r].

    Under the reference measure the observation path drives the signal:
    dX = (f~ - sigma_bar h) dt + sigma dV + sigma_bar dY + sigma_tilde dL,
    with the observed increment dy substituted for dY and fresh V/L noise.
    dy is one shared row (m,) or one row per state (R*N, m).
    Each term is one product with its matrix (see euler_step). A zero
    sigma_bar drops both of its terms and h is not read. A zero sigma draws no
    dV only without jumps, where no later draw from a run's generator would move.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    sigma_t, sigma_bar_t, _ = model.noise_factors
    dy = np.atleast_2d(np.asarray(dy, dtype=float))
    drift = model.f(x)
    if sigma_bar_t is not None:
        sbar_h = np.dot(h, sigma_bar_t)
        drift = np.subtract(drift, sbar_h, out=sbar_h)
    dv, _, dl = fresh_increments(model, dt, x.shape[0] // len(rngs), rngs, dv=model.has_jumps or sigma_t is not None)
    return euler_step(model, x, drift, dt, dv, dy, dl, step)


# ---------------------------------------------------------------------------
# Counterexample scenario paths
# ---------------------------------------------------------------------------


PATH_CHUNK = 1000   # paths per substream (seed, TAG, chunk) of dufresne_paths and hitting_paths

# values per tile of _walk_tiles, drawn, walked and reduced in cache: 16 paths of a Dufresne block
TILE_CELLS = 16_000


def _walk_tiles(rng: np.random.Generator, tile: Array, w: Array, rows: Array, nb: int, sq: float):
    """Walk the Brownian paths w[rows] on by nb steps of sd sq, len(tile) at
    a time, each tile one draw of full rows of the caller's one buffer `tile`
    (no tile maps fresh pages) whose first nb columns the paths walk: the
    tiles are the bytes of one (rows, width) draw, which is never built, and
    do not depend on nb. Per tile it yields its paths, their start and their
    walk at the nb steps, a view the next tile overwrites whose last column
    is the new w[rows]."""
    for sub in (rows[lo:lo + len(tile)] for lo in range(0, rows.size, len(tile))):
        seg = rng.standard_normal(out=tile[:sub.size])[:, :nb]
        np.multiply(seg, sq, out=seg)
        np.cumsum(seg, axis=1, out=seg)
        start = w[sub]
        seg += start[:, None]
        w[sub] = seg[:, -1]
        yield sub, start, seg


DUFRESNE_BLOCK = 1000   # grid steps drawn at once for every undecided path of a chunk


def dufresne_paths(n_paths: int, grid: TimeGrid, seed: int, chunk: int) -> tuple[Array, Array]:
    """Per-path (X_T, B_T) for X_T = int_0^T exp(B_s - s/2) ds, a left-point
    sum on the grid up to its horizon T, for chunk `chunk` of n_paths paths:
    the paths from chunk * PATH_CHUNK to the next chunk or n_paths, drawn
    from substream(seed, TAG_DUFRESNE, chunk).

    X only grows, so once a path's integral reaches 1 its event {X_T < 1} is
    decided and the path stops drawing: the chunk walks its undecided paths
    (_walk_tiles) DUFRESNE_BLOCK steps at a time and drops at each block's end
    every path with X >= 1, which keeps that X and B, so B_T is exact only
    where X_T < 1.
    """
    n = min(PATH_CHUNK, n_paths - chunk * PATH_CHUNK)
    rng = substream(seed, TAG_DUFRESNE, chunk)
    dt = grid.dt
    half_t = 0.5 * dt * np.arange(grid.n_steps + 1)
    x, b = np.zeros(n), np.zeros(n)
    tile = np.empty((TILE_CELLS // DUFRESNE_BLOCK, DUFRESNE_BLOCK))
    alive, done = np.arange(n), 0
    while alive.size and done < grid.n_steps:
        nb = min(DUFRESNE_BLOCK, grid.n_steps - done)
        for rows, b0, seg in _walk_tiles(rng, tile, b, alive, nb, np.sqrt(dt)):
            # left-point integrand exp(B_s - s/2): B at step done, then seg but its last column
            inner = seg[:, :-1]
            inner -= half_t[done + 1:done + nb]
            np.exp(inner, out=inner)
            x[rows] += (np.exp(b0 - 0.5 * done * dt) + inner.sum(axis=1)) * dt
        alive = alive[x[alive] < 1.0]
        done += nb
    return x, b


HITTING_MAX_TIME = 400.0   # hitting paths unresolved by this time are censored
HITTING_SEGMENT = 32       # grid steps of a walk segment, the move of a path near a level it can still hit
HITTING_LEAP_SIGMAS = 9.0  # a path leaps L steps only where every level it can still hit is this many sqrt(L dt) away


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
    draws, and with it every row, depends on the whole barrier list.

    In each round a path whose live levels (-1 and the barriers it has not
    reached) are all at least D away leaps L = S 2^j steps (S =
    HITTING_SEGMENT) on one normal of variance L dt, the largest such L up to
    the steps left with D^2 >= m^2 L dt (m = HITTING_LEAP_SIGMAS), read off
    tables of m^2 L dt and sqrt(L dt), so that no function of numpy's
    dispatch picks it. By Lévy's maximal inequality, P(max_{i <= L} S_i >= D)
    <= 2 P(S_L >= D), so a leap steps over a crossing with probability at
    most 2 * 2 Phi(-m), 4.5e-19 at m = 9, below the walk's own rounding: the
    kernel samples the grid-monitored law. Every other path walks S steps
    (_walk_tiles), searched for a step only where its min or max crossed a
    live level. A round draws its leaps, in path order, then its walks. The
    grid's O(sqrt(dt)) overshoot is the callers' to allow for."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    levels = np.asarray(barriers, dtype=float)
    n = min(PATH_CHUNK, n_paths - chunk * PATH_CHUNK)
    rng = substream(seed, TAG_HITTING, chunk)
    max_steps = int(round(HITTING_MAX_TIME / dt))
    never = max_steps + 1
    lengths = HITTING_SEGMENT << np.arange(max(max_steps // HITTING_SEGMENT, 1).bit_length())
    reach2 = HITTING_LEAP_SIGMAS ** 2 * dt * lengths   # the D^2 from which a path may leap lengths[j]
    leap_sd = np.sqrt(dt * lengths)
    t_lo = np.full(n, never)                      # first step at or below -1
    t_hi = np.full((n, levels.size), never)       # first step at or above each barrier
    tile = np.empty((TILE_CELLS // HITTING_SEGMENT, HITTING_SEGMENT))
    # the paths in path order, with their walk, steps taken and lowest unreached barrier; the decided ones
    # leave once they are half, so that the arrays take few sizes (numpy caches freed small buffers by size)
    alive, w, done, up = np.arange(n), np.zeros(n), np.zeros(n, dtype=int), np.full(n, levels.min())
    live = np.ones(n, dtype=bool)
    while alive.size:
        gap = np.minimum(w + 1.0, up - w)
        j = np.minimum(np.searchsorted(reach2, gap * gap, side="right"),
                       np.searchsorted(lengths, max_steps - done, side="right")) - 1
        leap = live & (j >= 0)
        w[leap] += leap_sd[j[leap]] * rng.standard_normal(np.count_nonzero(leap))
        done[leap] += lengths[j[leap]]
        for rows, _, seg in _walk_tiles(rng, tile, w, np.flatnonzero(live & ~leap), HITTING_SEGMENT, np.sqrt(dt)):
            for i in np.flatnonzero((seg.min(axis=1) <= -1.0) | (seg.max(axis=1) >= up[rows])):
                # a crossing after the censoring step, in a segment that runs past it, is none
                p, first = alive[rows[i]], done[rows[i]] + 1
                if seg[i].min() <= -1.0:
                    t_lo[p] = min(first + np.argmax(seg[i] <= -1.0), never)
                for k in np.flatnonzero((levels <= seg[i].max()) & (t_hi[p] == never)):
                    t_hi[p, k] = min(first + np.argmax(seg[i] >= levels[k]), never)
                up[rows[i]] = levels[t_hi[p] == never].min(initial=np.inf)
            done[rows] += HITTING_SEGMENT
        live &= (done < max_steps) & (up < np.inf) & (t_lo[alive] == never)
        if 2 * np.count_nonzero(live) <= alive.size:
            alive, w, done, up, live = alive[live], w[live], done[live], up[live], live[live]
    return t_lo < t_hi.T, np.minimum(t_lo, t_hi.T) < never
