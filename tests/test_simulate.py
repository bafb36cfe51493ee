"""Simulation contracts: scheme correctness, reproducibility, refinement."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab.girsanov import ensemble_revuz_yor
from filterlab.models import change_detection_model, levy_atoms, linear_model, make_model
from filterlab import simulate
from filterlab.parallel import run_plans
from filterlab.rng import TAG_DUFRESNE, TAG_HITTING, TAG_PATH, substream
from filterlab.simulate import (
    SimulationBlowUp,
    TimeGrid,
    batch_levy_increments,
    dufresne_paths,
    euler_step,
    fresh_increments,
    hitting_paths,
    propagate_under_reference,
    simulate_pair,
    simulate_pairs,
)
from filterlab.verify import dufresne_check, kazamaki_gap_check


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(horizon=1.0, dt=0.01)
        assert g.n_steps == 100
        assert g.times()[0] == 0.0 and g.times()[-1] == 1.0
        assert g.index_of(0.25) == 25

    def test_zero_length_grid_allowed(self):
        g = TimeGrid(horizon=0.0, dt=0.01)
        assert g.n_steps == 0
        np.testing.assert_array_equal(g.times(), [0.0])

    def test_misaligned_horizon_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, dt=0.3)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, dt=-0.1)


class TestLevyIncrement:
    def test_no_jumps_gives_pure_drift(self):
        spec = levy_atoms([[2.0]], [0.0], drift_a=[0.7])   # rate 0: drift only
        inc = np.full((1, 1), spec.compensated_drift(0.1))
        rows, marks = batch_levy_increments(spec, 0.1, [substream(0)], inc)
        assert rows.shape == (0,) and marks.shape == (0, 1)
        assert inc[0, 0] == pytest.approx(0.07)

    def test_mean_of_increment_is_b_dt(self):
        # single atom at 1 with rate lam: b = -lam, compensated jumps mean 0
        lam, dt = 2.0, 0.05
        spec = levy_atoms([[1.0]], [lam])
        incs = np.full((100_000, 1), spec.compensated_drift(dt))
        batch_levy_increments(spec, dt, [substream(1)], incs)
        incs = incs[:, 0]
        se = incs.std(ddof=1) / np.sqrt(incs.size)
        assert abs(incs.mean() - spec.drift_b[0] * dt) < 3 * se

    def test_raw_jump_sum_moments(self):
        # law of large numbers: E[sum of marks] = lam dt rho, and the
        # compound-Poisson second moment is lam dt E[rho^2]
        lam, dt, rho = 2.0, 0.05, 1.0
        spec = levy_atoms([[rho]], [lam])
        incs = np.full((100_000, 1), spec.compensated_drift(dt))
        batch_levy_increments(spec, dt, [substream(2)], incs)
        # each path's mark sum is its increment less (b - lam mean_mark) dt
        sums = incs[:, 0] - (spec.drift_b[0] - lam * spec.mean_mark[0]) * dt
        se = sums.std(ddof=1) / np.sqrt(sums.size)
        assert abs(sums.mean() - lam * dt * rho) < 3 * se
        sq = sums**2
        se2 = sq.std(ddof=1) / np.sqrt(sq.size)
        second = lam * dt * rho**2 + (lam * dt * rho) ** 2
        assert abs(sq.mean() - second) < 3 * se2

    def test_marks_come_in_path_order(self):
        # path i's marks follow those of paths 0..i-1, each returned with its row and added to that row one at a time
        spec = levy_atoms([[-0.5], [0.5], [2.0]], [1.0, 1.0, 2.0])
        n, dt = 400, 0.5
        incs = np.full((n, 1), spec.compensated_drift(dt))
        rows, marks = batch_levy_increments(spec, dt, [substream(3)], incs)
        rng = substream(3)
        counts = rng.poisson(spec.jump_rate * dt, n)
        np.testing.assert_array_equal(marks, spec.sample_marks(rng, int(counts.sum())))
        np.testing.assert_array_equal(rows, np.repeat(np.arange(n), counts))
        assert counts.max() > 1
        expected = np.empty((n, 1))
        expected[...] = spec.drift_b * dt - spec.jump_rate * spec.mean_mark * dt
        for i, path_marks in enumerate(np.split(marks, np.cumsum(counts)[:-1])):
            for mark in path_marks:
                expected[i] += mark
        np.testing.assert_array_equal(incs, expected)

    @pytest.mark.parametrize("n, dt, fired", [(400, 0.5, True), (1, 0.01, False)])
    def test_writes_only_its_rows_and_draws_only_counts_and_marks(self, n, dt, fired):
        spec = levy_atoms([[-0.5], [0.5], [2.0]], [1.0, 1.0, 2.0])
        buffer = np.full((n + 2, 1), np.nan)
        buffer[1:-1] = spec.compensated_drift(dt)
        rng, replay = substream(3), substream(3)
        rows, marks = batch_levy_increments(spec, dt, [rng], buffer[1:-1])
        counts = replay.poisson(spec.jump_rate * dt, n)
        np.testing.assert_array_equal(marks, spec.sample_marks(replay, int(counts.sum())))
        np.testing.assert_array_equal(rows, np.repeat(np.arange(n), counts))
        assert (marks.shape[0] > 0) == fired
        expected = np.full((n, 1), spec.compensated_drift(dt))
        np.add.at(expected, rows, marks)
        np.testing.assert_array_equal(buffer[1:-1], expected)
        assert np.isnan(buffer[[0, -1]]).all()
        np.testing.assert_array_equal(rng.random(8), replay.random(8))   # and the generators stand at one state


    @given(st.sampled_from(["jump_ou", "jumping_plane"]), st.integers(1, 8), st.integers(1, 400), st.booleans(),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_a_block_gives_the_bytes_of_one_sampler_per_run(self, name, runs, n, dw, seed):
        # fresh_increments draws a block with one batch_levy_increments call and one scatter; each run's rows, and
        # the state its generator is left in, are those of the run drawn alone: dV, then dW (the correlation-blind
        # ablation), then its Poisson counts and its marks, added to their rows one at a time
        model = make_model(name) if name == "jump_ou" else jumping_plane()
        dt, levy = 0.05, model.levy
        rngs = [substream(seed, i) for i in range(runs)]
        got = fresh_increments(model, dt, n, rngs, dw=dw)
        assert (got[1] is not None) == dw
        for i, rng in enumerate(rngs):
            replay = substream(seed, i)
            expected = [replay.standard_normal((n, dim)) * np.sqrt(dt) for dim in (model.dim_v, model.dim_y)[:1 + dw]]
            dl = np.full((n, levy.dim), levy.compensated_drift(dt))
            counts = replay.poisson(levy.jump_rate * dt, n)
            for row, mark in zip(np.repeat(np.arange(n), counts), levy.sample_marks(replay, int(counts.sum()))):
                dl[row] += mark
            for block, alone in zip(got, expected + [None] * (1 - dw) + [dl]):
                if alone is not None:
                    assert block[i * n:(i + 1) * n].tobytes() == alone.tobytes()
            np.testing.assert_array_equal(rng.random(8), replay.random(8))   # the generators stand at one state


def reference_pair(model, grid, rng):
    """One data path drawn one noise law at a time and stepped one step at a
    time: X_0, then the normals of all steps, dV and dW side by side in one
    draw, then (for a model with jumps) the Poisson count of every step and
    the marks, each mark added to its step's Levy increment
    b dt - jump_rate * mean_mark * dt in turn. Returns x, y, dW and the step
    of each mark with the marks."""
    n, dt, sq, p = grid.n_steps, grid.dt, np.sqrt(grid.dt), model.dim_v
    x = np.empty((n + 1, model.dim_x))
    y = np.zeros((n + 1, model.dim_y))
    x[0] = model.initial_law(rng, 1)[0]
    z = rng.standard_normal((n, p + model.dim_y)) * sq
    dv, dw = z[:, :p], z[:, p:]
    steps, marks, dl = np.arange(0), np.empty((0, 0 if model.levy is None else model.levy.dim)), [None] * n
    if model.has_jumps:
        levy = model.levy
        steps = np.repeat(np.arange(n), rng.poisson(levy.jump_rate * dt, n))
        marks = levy.sample_marks(rng, steps.size)
        dl = np.full((n, 1, levy.dim), levy.compensated_drift(dt))
        for k, mark in zip(steps, marks):
            dl[k, 0] += mark
    for k in range(n):
        xk = x[k:k + 1]
        x[k + 1] = euler_step(model, xk, model.f(xk), dt, dv[k:k + 1], dw[k:k + 1], dl[k], k + 1)[0]
        y[k + 1] = y[k] + model.h(xk, y[k:k + 1], k * dt)[0] * dt + dw[k]
    return x, y, dw, (steps, marks)


class TestSimulatePair:
    def test_constant_path_when_coefficients_vanish(self):
        m = linear_model("const", a_x=0.0, sigma_v=0.0, sigma_bar=0.0, h_scale=0.0,
                         x0_mean=3.0, x0_var=0.0)
        b = simulate_pair(m, TimeGrid(1.0, 0.01), substream(0))
        np.testing.assert_array_equal(b.x, np.full((101, 1), 3.0))

    def test_observation_identity_holds_exactly(self):
        # y[k+1] must be bit-reproducible from y[k], h(x[k]) dt and dw[k]
        m = make_model("jump_ou")
        grid = TimeGrid(1.0, 0.01)
        b = simulate_pair(m, grid, substream(5))
        dw = reference_pair(m, grid, substream(5))[2]   # the observation noise the path drew
        for k in range(grid.n_steps):
            h_k = m.h(b.x[k][None, :], b.y[k], k * grid.dt)[0]
            rebuilt = b.y[k] + h_k * grid.dt + dw[k]
            np.testing.assert_array_equal(rebuilt, b.y[k + 1])

    def test_pure_noise_observation_variance(self):
        # h == 0: y is a discretised Brownian motion, Var(y_1) -> 1
        m = linear_model("noise", h_scale=0.0)
        grid = TimeGrid(1.0, 0.01)
        bundles = simulate_pairs(m, grid, [substream(10, i) for i in range(10_000)])
        terminal = np.array([b.y[-1, 0] for b in bundles])
        v = terminal.var(ddof=1)
        se = v * np.sqrt(2.0 / (terminal.size - 1))   # SE of a Gaussian variance estimate
        assert abs(v - 1.0) < 3 * se

    def test_ou_terminal_variance(self):
        # dX = -X dt + dV from X_0 = 0 on the Euler scheme X' = (1 - dt) X + sqrt(dt) xi:
        # Var(X_1) = dt sum_{j<100} (1 - dt)^{2j} = 0.435186 (continuous time: 0.432332)
        m = linear_model("ou", a_x=-1.0, sigma_v=1.0, sigma_bar=0.0, x0_mean=0.0, x0_var=0.0)
        grid = TimeGrid(1.0, 1e-2)
        bundles = simulate_pairs(m, grid, [substream(11, i) for i in range(10_000)])
        terminal = np.array([b.x[-1, 0] for b in bundles])
        v = terminal.var(ddof=1)
        target = grid.dt * np.sum((1.0 - grid.dt) ** (2 * np.arange(grid.n_steps)))
        se = v * np.sqrt(2.0 / (terminal.size - 1))
        assert abs(v - target) < 3 * se

    def test_bit_exact_reproducibility(self):
        m = make_model("jump_ou")
        grid = TimeGrid(0.5, 0.005)
        b1 = simulate_pair(m, grid, substream(42, 7))
        b2 = simulate_pair(m, grid, substream(42, 7))
        np.testing.assert_array_equal(b1.x, b2.x)
        np.testing.assert_array_equal(b1.y, b2.y)
        np.testing.assert_array_equal(b1.jump_steps, b2.jump_steps)
        np.testing.assert_array_equal(b1.jump_marks, b2.jump_marks)

    @pytest.mark.parametrize("name", ["correlated_linear", "change_detection", "jump_ou"])
    def test_runs_equal_the_per_step_reference_loop(self, name):
        m = make_model(name)
        grid = TimeGrid(1.0, 0.01)
        bundles = simulate_pairs(m, grid, [substream(17, TAG_PATH, i) for i in range(6)])
        for i, bundle in enumerate(bundles):
            x, y, _, (steps, marks) = reference_pair(m, grid, substream(17, TAG_PATH, i))
            np.testing.assert_array_equal(bundle.x, x)
            np.testing.assert_array_equal(bundle.y, y)
            np.testing.assert_array_equal(bundle.jump_steps, steps)
            np.testing.assert_array_equal(bundle.jump_marks, marks)
        assert any(b.jump_steps.size for b in bundles) == m.has_jumps

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blow_up_reports_step(self):
        m = linear_model("explode", a_x=400.0, sigma_v=0.0, sigma_bar=0.0, x0_mean=1.0, x0_var=0.0)
        grid = TimeGrid(5.0, 0.01)
        x, expected = 1.0, 0   # the noise-free recursion x <- f(x) dt + x, to the step where it leaves the floats
        while math.isfinite(x):
            x, expected = m.f(x) * grid.dt + x, expected + 1
        assert 0 < expected < grid.n_steps
        with pytest.raises(SimulationBlowUp) as err:
            simulate_pair(m, grid, substream(0))
        assert err.value.step == expected

    @pytest.mark.filterwarnings("error")
    def test_a_finite_state_whose_sum_overflows_is_no_blow_up(self):
        # euler_step checks one sum of the states, and each state only when that sum is not finite, without a warning
        m = linear_model("still", a_x=0.0, sigma_v=0.0)
        x = np.full((4, 1), 1e308)
        np.testing.assert_array_equal(euler_step(m, x, np.zeros_like(x), 0.01, None, np.zeros((1, 1)), step=3), x)
        x[2] = np.inf
        with pytest.raises(SimulationBlowUp) as err:
            euler_step(m, x, np.zeros_like(x), 0.01, None, np.zeros((1, 1)), step=3)
        assert err.value.step == 3

    def test_a_zero_term_is_left_out_not_added(self):
        # -0.0 + 0.0 would be 0.0: a term whose matrix is zero, sigma_tilde under a Levy driver too, adds nothing
        m = linear_model("zeros", a_x=0.0, sigma_v=0.0, sigma_bar=0.0, levy=levy_atoms([1.0], [1.0]), sigma_tilde=0.0)
        x = np.full((2, 1), -0.0)
        out = euler_step(m, x, x, 0.01, np.ones((2, 1)), np.ones((1, 1)), np.ones((2, 1)))
        assert np.signbit(out).all()


class TestReferencePropagation:
    def test_uncorrelated_matches_p_dynamics_in_law(self):
        # sigma_bar == 0: reference and physical steps share drift and noise law
        m = make_model("linear_gaussian")
        x = np.full((50_000, 1), 0.5)
        dt = 0.01
        out = propagate_under_reference(m, x, m.h(x, np.zeros(1), 0.0), np.array([0.123]), dt, [substream(3)])
        mean = out.mean()
        se = out.std(ddof=1) / np.sqrt(out.shape[0])
        assert abs(mean - (0.5 - 0.5 * dt)) < 3 * se

    def test_observation_feed_is_deterministic_shift(self):
        m = linear_model("det", a_x=0.0, sigma_v=0.0, sigma_bar=1.0, h_scale=0.0)
        x = np.array([[1.0]])
        out = propagate_under_reference(m, x, m.h(x, np.zeros(1), 0.0), np.array([0.3]), 0.01, [substream(0)])
        assert out[0, 0] == pytest.approx(1.3)

    def test_correlated_ensemble_mean(self):
        # E[dX] = (f - sigma_bar h) dt + sigma_bar dy for the correlated model
        m = make_model("correlated_linear")
        x0, dy, dt = 0.8, 0.2, 0.01
        x = np.full((100_000, 1), x0)
        out = propagate_under_reference(m, x, m.h(x, np.zeros(1), 0.0), np.array([dy]), dt, [substream(8)])
        target = x0 + (-x0 - 0.5 * x0) * dt + 0.5 * dy
        se = out.std(ddof=1) / np.sqrt(out.shape[0])
        assert abs(out.mean() - target) < 3 * se


def jumping_plane():
    """A 2-d jump model with constant coefficients none of whose matrices is
    square and symmetric, so that a transposed matrix changes its steps and
    operators. It borrows the change-detection model's h and initial law, not
    its prior, so a filter on it records no change posterior."""
    return dataclasses.replace(
        change_detection_model(), name="jumping_plane", change_prior=None, f=lambda x: -x,
        sigma=np.array([[1.0], [0.5]]),
        sigma_bar=np.array([[0.3], [-0.2]]), sigma_tilde=np.array([[1.0, 0.5], [-0.3, 2.0]]),
        levy=levy_atoms([[0.5, -1.0], [0.2, 0.3]], [1.0, 2.0], drift_a=[0.1, -0.4]))


def noise(matrix, inc):
    """matrix @ inc[n] for every row n of the increments, written out index by index."""
    return np.einsum("ij,nj->ni", matrix, inc)


def reference_euler(model, x, drift, dt, dv, dw, dl):
    """euler_step with every matrix product written out: x + drift dt +
    sigma dv + sigma_bar dw (+ sigma_tilde dl), dw one row per state or one shared row."""
    out = x + drift * dt + noise(model.sigma, dv) + noise(model.sigma_bar, np.broadcast_to(dw, (len(x), model.dim_y)))
    return out if dl is None else out + noise(model.sigma_tilde, dl)


def reference_propagation(model, x, y, t, dy, dt, rng):
    """propagate_under_reference of one run with every matrix product
    written out: dV, then the jumps, drawn from rng, and dy in place of dY."""
    n = len(x)
    dv = rng.standard_normal((n, model.dim_v)) * np.sqrt(dt)
    dl = np.full((n, model.levy.dim), model.levy.compensated_drift(dt)) if model.has_jumps else None
    if dl is not None:
        batch_levy_increments(model.levy, dt, [rng], dl)
    drift = model.f(x) - noise(model.sigma_bar, model.h(x, y, t))
    return reference_euler(model, x, drift, dt, dv, dy, dl)


@pytest.mark.parametrize("model", [make_model("correlated_linear"), make_model("jump_ou"),
                                   make_model("change_detection"), jumping_plane()], ids=lambda m: m.name)
def test_steps_match_a_per_state_reference(model):
    # 50 physical (euler_step) and 50 reference (propagate_under_reference) steps of 1000 particles, one generator
    # per step as the filter uses them, each from the states that the step before reached
    dt, sq = 1e-3, np.sqrt(1e-3)
    y = simulate_pair(model, TimeGrid(0.05, dt), substream(3)).y
    x_phys = x_ref = model.initial_law(substream(0), 1000)
    for k in range(50):
        rng = substream(1, k)
        dv = rng.standard_normal((1000, model.dim_v)) * sq
        dw = rng.standard_normal((1000, model.dim_y)) * sq
        dl = np.full((1000, model.levy.dim), model.levy.compensated_drift(dt)) if model.has_jumps else None
        if dl is not None:
            batch_levy_increments(model.levy, dt, [rng], dl)
        phys = euler_step(model, x_phys, model.f(x_phys), dt, dv, dw, dl, k + 1)
        np.testing.assert_allclose(phys, reference_euler(model, x_phys, model.f(x_phys), dt, dv, dw, dl),
                                   rtol=1e-13, atol=1e-13)
        ref = propagate_under_reference(model, x_ref, model.h(x_ref, y[k], k * dt), y[k + 1] - y[k], dt,
                                        [substream(2, k)], k + 1)
        np.testing.assert_allclose(ref, reference_propagation(model, x_ref, y[k], k * dt, y[k + 1] - y[k], dt,
                                                              substream(2, k)), rtol=1e-13, atol=1e-13)
        x_phys, x_ref = phys, ref


class TestRefinement:
    @staticmethod
    def _strong_errors(sigma_fn_name, dts, seed):
        """Strong error vs a fine-grid reference driven by the same Brownian
        increments; multiplicative noise exposes the Euler 1/2 rate."""
        fine_dt = min(dts) / 8
        horizon = 1.0
        n_fine = int(round(horizon / fine_dt))
        n_paths = 400
        rng = substream(seed)
        dW = rng.standard_normal((n_paths, n_fine)) * np.sqrt(fine_dt)

        def sigma(x):
            if sigma_fn_name == "additive":
                return np.ones_like(x)
            return 1.0 + 0.5 * np.sin(x)

        def run(dt):
            stride = int(round(dt / fine_dt))
            n = int(round(horizon / dt))
            x = np.zeros(n_paths)
            for k in range(n):
                dw = dW[:, k * stride : (k + 1) * stride].sum(axis=1)
                x = x + (-x) * dt + sigma(x) * dw
            return x

        ref = run(fine_dt)
        return [np.sqrt(np.mean((run(dt) - ref) ** 2)) for dt in dts]

    def test_multiplicative_noise_strong_rate_half(self):
        dts = [0.04, 0.02, 0.01, 0.005]
        errs = self._strong_errors("multiplicative", dts, seed=21)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.3 < slope < 0.75, f"strong rate {slope:.3f} not ~1/2"

    def test_additive_noise_strong_rate_at_least_half(self):
        # additive noise is better than the generic guarantee (order 1)
        dts = [0.04, 0.02, 0.01, 0.005]
        errs = self._strong_errors("additive", dts, seed=22)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope > 0.5, f"additive-noise rate {slope:.3f} unexpectedly poor"


class TestCounterexamplePaths:
    def test_revuz_yor_weight_starts_at_one(self):
        ens = ensemble_revuz_yor(1.0, TimeGrid(0.5, 0.01), 100, seed=1)
        # Z_0 = 1 on every path: mean 1 with no spread
        assert ens.z.mean[0] == 1.0 and ens.z.se[0] == 0.0
        assert ens.z.mean.shape == (51,) and ens.log_z_t.shape == (100,)

    def test_hitting_exit_probability_coarse(self):
        hit_low, resolved = (np.hstack(parts)[0] for parts in zip(*[hitting_paths((1,), 4000, 0.001, 2, c)
                                                                    for c in range(4)]))
        p = hit_low[resolved].mean()
        se = np.sqrt(p * (1 - p) / resolved.sum())
        assert abs(p - 0.5) < 5 * se

    def test_dufresne_monotone_in_horizon(self):
        # a path's draws do not depend on the horizon and its integral only grows,
        # so a path below 1 at the long horizon was below it, and lower, at the short one
        short, extended = (np.concatenate([dufresne_paths(2000, TimeGrid(horizon, 0.01), 3, c)[0] for c in range(2)])
                           for horizon in (2.0, 15.0))
        below = extended < 1.0
        assert below.any() and (short < 1.0).sum() > below.sum()
        assert np.all(short[below] <= extended[below])


class RecordedStream:
    """A generator that keeps a copy of every block of normals drawn from it."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, []

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        self.blocks.append(out.copy())
        return out


def record_streams(monkeypatch) -> dict:
    """Make simulate.substream hand out RecordedStreams; returns them by key."""
    streams = {}

    def recorded(seed, *key):
        streams[key] = RecordedStream(substream(seed, *key))
        return streams[key]

    monkeypatch.setattr(simulate, "substream", recorded)
    return streams


def dufresne_per_step(draws, n_paths, grid):
    """(X_T, B_T, decided) of one chunk, stepped one grid step at a time over
    its recorded normals, read as one (undecided, DUFRESNE_BLOCK) array per
    block: a path drops once its integral reaches 1 at a block's end."""
    normals = np.concatenate([draw.ravel() for draw in draws])
    x, b = np.zeros(n_paths), np.zeros(n_paths)
    alive = np.arange(n_paths)
    step, t, used = 0, 0.0, 0
    while alive.size and step < grid.n_steps:
        block = normals[used:used + alive.size * simulate.DUFRESNE_BLOCK].reshape(alive.size, -1)
        used += block.size
        for j in range(min(simulate.DUFRESNE_BLOCK, grid.n_steps - step)):
            x[alive] += np.exp(b[alive] - 0.5 * t) * grid.dt
            b[alive] += block[:, j] * np.sqrt(grid.dt)
            t += grid.dt
            step += 1
        alive = alive[x[alive] < 1.0]
    assert used == normals.size
    return x, b, x >= 1.0


class TestDufresneKernel:
    def test_matches_a_per_step_loop_over_the_same_blocks(self, monkeypatch):
        # 2500 paths: two full chunks and a partial one; 2500 steps: two full blocks and a partial one
        streams = record_streams(monkeypatch)
        grid = TimeGrid(5.0, 0.002)
        x, b = (np.concatenate(parts) for parts in zip(*[dufresne_paths(2500, grid, 7, c) for c in range(3)]))
        assert list(streams) == [(TAG_DUFRESNE, c) for c in range(3)]
        sizes = [min(simulate.PATH_CHUNK, 2500 - start) for start in range(0, 2500, simulate.PATH_CHUNK)]
        ref = [dufresne_per_step(stream.blocks, n, grid) for n, stream in zip(sizes, streams.values())]
        ref_x, ref_b, decided = (np.concatenate(parts) for parts in zip(*ref))
        assert np.array_equal(x >= 1.0, decided) and 0 < decided.sum() < 2500
        np.testing.assert_allclose(x[~decided], ref_x[~decided], rtol=1e-12)
        np.testing.assert_allclose(b[~decided], ref_b[~decided], rtol=1e-12)

    def test_decided_paths_stop_drawing(self, monkeypatch):
        streams = record_streams(monkeypatch)
        grid = TimeGrid(20.0, 1e-3)
        for chunk in range(2):
            dufresne_paths(2000, grid, 1, chunk)
        draws = sum(block.size for stream in streams.values() for block in stream.blocks)
        assert 0 < draws < 2000 * grid.n_steps / 3


def hitting_per_step(draws, levels, n_paths, dt):
    """(hit_low, resolved) of one chunk, one row per barrier: the walks are
    rebuilt one grid step at a time from the recorded normals, read as one
    (undecided, HITTING_BLOCK) array per block whose first columns, up to the
    censoring time, the walks take, a walk stopping at the end of the block
    in which it leaves (-1, max barrier); each barrier's exit is then the
    first step of its walk outside (-1, n)."""
    normals = np.concatenate([draw.ravel() for draw in draws])
    max_steps = round(simulate.HITTING_MAX_TIME / dt)
    walks = np.full((n_paths, max_steps), np.nan)
    x = np.zeros(n_paths)
    alive = np.arange(n_paths)
    step, used = 0, 0
    while alive.size and step < max_steps:
        nb = min(simulate.HITTING_BLOCK, max_steps - step)
        block = normals[used:used + alive.size * simulate.HITTING_BLOCK].reshape(alive.size, -1)
        used += block.size
        block = block[:, :nb]
        s = np.zeros(alive.size)
        for j in range(nb):
            s = s + block[:, j] * np.sqrt(dt)
            walks[alive, step + j] = x[alive] + s
        x[alive] = walks[alive, step + nb - 1]
        seen = walks[alive, step:step + nb]
        alive = alive[~((seen <= -1.0) | (seen >= max(levels))).any(axis=1)]
        step += nb
    assert used == normals.size
    hit_low = np.zeros((len(levels), n_paths), dtype=bool)
    resolved = np.zeros_like(hit_low)
    for i, level in enumerate(levels):
        for p, walk in enumerate(walks):
            out = np.flatnonzero((walk <= -1.0) | (walk >= level))
            resolved[i, p] = out.size > 0
            hit_low[i, p] = out.size > 0 and walk[out[0]] <= -1.0
    return hit_low, resolved


class TestHittingKernel:
    def test_matches_a_per_step_loop_for_every_barrier(self, monkeypatch):
        # 2500 paths: two full chunks and a partial one; blocks of 64 steps up
        # to a censoring time of 600 steps, so that walks cross block ends and
        # some outlast the largest barrier of the unsorted list
        monkeypatch.setattr(simulate, "HITTING_BLOCK", 64)
        monkeypatch.setattr(simulate, "HITTING_MAX_TIME", 6.0)
        streams = record_streams(monkeypatch)
        levels, dt = (2, 3, 1), 0.01
        chunks = [hitting_paths(levels, 2500, dt, 4, c) for c in range(3)]
        assert list(streams) == [(TAG_HITTING, c) for c in range(3)]
        sizes = [min(simulate.PATH_CHUNK, 2500 - start) for start in range(0, 2500, simulate.PATH_CHUNK)]
        for (hit_low, resolved), n, stream in zip(chunks, sizes, streams.values()):
            ref_low, ref_resolved = hitting_per_step(stream.blocks, levels, n, dt)
            assert hit_low.shape == (3, n)
            assert np.array_equal(resolved, ref_resolved) and np.array_equal(hit_low, ref_low)
        resolved = np.hstack([resolved for _, resolved in chunks])
        # censored at barrier 1, more at 2 and most at the largest barrier, 3
        assert 0 < (~resolved[2]).sum() < (~resolved[0]).sum() < (~resolved[1]).sum()

    def test_rows_do_not_depend_on_the_worker_count(self):
        rows = [run_plans([kazamaki_gap_check([2, 1], 2500, 0.01, 5)], workers)[0][0] for workers in (1, 2)]
        assert [v.row() for v in rows[0]] == [v.row() for v in rows[1]]
        # 1050 steps: a full Dufresne block and a partial one, for three chunks of paths
        serial, parallel = (run_plans([dufresne_check(2500, TimeGrid(10.5, 0.01), 5)], workers) for workers in (1, 2))
        assert serial == parallel
