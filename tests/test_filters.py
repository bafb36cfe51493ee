"""Particle-filter contracts: normalisation, resampling, oracle accuracy."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab.filters import (
    FilterCollapse,
    FilterConfig,
    ParticleCloud,
    Weights,
    _walk,
    init_cloud,
    pi_estimate,
    resample,
    run_filter,
    step,
    systematic_resample,
)
from filterlab.models import Battery, StepCoefficients, change_indicator, gaussian_initial, linear_model, make_model
from filterlab.rng import TAG_INIT, TAG_PROPAGATE, TAG_RESAMPLE, derive_seed, substream
from filterlab.simulate import SimulationBlowUp, TimeGrid, simulate_pair
from filterlab.verify import kalman_oracle_for_model, residual_run

Y0 = np.zeros(1)


def point_mass(value):
    """The initial law of a point mass at value: a Gaussian with zero covariance."""
    return gaussian_initial([value], [[0.0]])


def rho_one(cloud):
    """rho_t(1) of each run of the cloud."""
    return cloud.mass * np.mean(cloud.weights.w, axis=-1)


def step_at(cloud, model, y, dy, dt, rngs_prop, rngs_res, config):
    """filters.step with the coefficients on the cloud's states at observation y (one shared row) and its time."""
    return step(cloud, StepCoefficients(model, cloud.states, y, cloud.t), dy, dt, rngs_prop, rngs_res, config)


# log-weights of a random cloud: finite ones spread over many orders of
# magnitude, and -inf for zero weights, with at least one weight nonzero
LOG_WEIGHTS = st.lists(st.one_of(st.floats(-30, 5), st.just(-np.inf)), min_size=2, max_size=64).filter(
    lambda lws: max(lws) > -np.inf
)


def make_cloud(states, log_weights, log_mass=0.0, t=0.0):
    return ParticleCloud(
        states=np.atleast_2d(np.asarray(states, dtype=float)).T
        if np.ndim(states) == 1
        else np.asarray(states, dtype=float),
        log_weights=np.asarray(log_weights, dtype=float)[None, :],   # a block of one run
        log_mass=np.array([log_mass]),
        t=t,
    )


class TestInitCloud:
    def test_point_mass_prior(self):
        cloud = init_cloud(point_mass(2.5), 100, [substream(0)])
        assert np.all(cloud.states == 2.5)
        assert np.all(cloud.log_weights == 0.0)
        assert cloud.log_mass == 0.0 and cloud.t == 0.0

    def test_standard_normal_prior_clt_band(self):
        m = make_model("linear_gaussian")   # N(0, 0.5) prior
        n = 100_000
        cloud = init_cloud(m.initial_law, n, [substream(1)])
        assert abs(cloud.states.mean()) < 3 * np.sqrt(0.5 / n)

    def test_two_particles_is_valid(self):
        cloud = init_cloud(point_mass(0.0), 2, [substream(2)])
        assert cloud.weights.ess == pytest.approx(2.0)

    def test_rejects_single_particle(self):
        with pytest.raises(ValueError):
            init_cloud(point_mass(0.0), 1, [substream(3)])


class TestEstimates:
    def test_rho_one_at_time_zero(self):
        cloud = init_cloud(point_mass(1.0), 50, [substream(0)])
        assert rho_one(cloud) == pytest.approx(1.0)

    @given(LOG_WEIGHTS, st.floats(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_pi_of_one_is_exactly_one(self, lws, log_mass):
        cloud = make_cloud(np.linspace(-1.0, 1.0, len(lws)), lws, log_mass=log_mass)
        assert pi_estimate(cloud, np.ones(cloud.n)) == 1.0

    def test_pi_invariant_under_exact_weight_shift(self):
        # dyadic weights + power-of-two shift keep float addition exact, so
        # the estimates must agree bit for bit
        lw = np.array([[-0.5, -0.25, 0.125, 0.0]])
        states = np.array([[0.3], [1.2], [-0.7], [2.0]])
        base = ParticleCloud(states=states, log_weights=lw, log_mass=np.zeros(1), t=0.0)
        for shift in (1.0, -2.0, 16.0):
            moved = ParticleCloud(states=states, log_weights=lw + shift, log_mass=np.array([-shift]), t=0.0)
            for values in Battery.default(1).values(states):
                assert pi_estimate(moved, values) == pi_estimate(base, values)

    def test_pi_point_mass_static_model(self):
        # point-mass prior, zero dynamics, h = 0: pi_t(x) stays at the point
        m = linear_model("static", a_x=0.0, sigma_v=0.0, sigma_bar=0.0, h_scale=0.0, x0_mean=1.7, x0_var=0.0)
        grid = TimeGrid(0.2, 0.01)
        y_path = np.zeros((grid.n_steps + 1, 1))
        run = run_filter(m, y_path, grid, FilterConfig(n_particles=64, seed=0), battery=Battery(("x",), 1))
        np.testing.assert_allclose(run.pi["x"], 1.7)

    def test_pi_rejects_nonfinite_phi(self):
        cloud = make_cloud([0.0, 1.0], [0.0, 0.0])
        bad = np.where(cloud.states[:, 0] > 0.5, np.inf, 1.0)
        with pytest.raises(ValueError):
            pi_estimate(cloud, bad)


class TestResampling:
    def test_systematic_indices_cover_high_weight(self):
        lw = np.log(np.array([0.7, 0.1, 0.1, 0.1]))
        idx = systematic_resample(Weights(lw, step=0).normalized, substream(1))
        assert (idx == 0).sum() >= 2

    def test_ess_is_n_after_resample(self):
        rng = substream(5)
        cloud = make_cloud(rng.standard_normal(256), rng.standard_normal(256))
        out = resample(cloud, [substream(6)], [0])
        assert out.weights.ess == pytest.approx(256.0)
        assert np.all(out.log_weights == 0.0)

    def test_resampled_weights_are_preset_to_the_bytes_of_zero_log_weights(self):
        rng = substream(7)
        cloud = make_cloud(rng.standard_normal(300), rng.standard_normal(300))
        out = resample(cloud, [substream(8)], [0])
        assert "weights" in vars(out)   # set by resample, not computed from the log-weights
        fresh = Weights(np.zeros((1, 300)), step=0)
        for name in ("w", "shift", "total"):
            got, want = getattr(out.weights, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        assert np.all(out.weights.w == 1.0) and out.weights.shift[0] == 0.0 and out.weights.total[0] == 300.0

    def test_block_resamples_only_the_given_rows(self):
        rng = substream(9)
        lw = rng.standard_normal((3, 50))
        cloud = ParticleCloud(states=rng.standard_normal((150, 1)), log_weights=lw, log_mass=np.zeros(3), t=0.0)
        out = resample(cloud, [substream(10), None, substream(11)], rows=[0, 2])
        np.testing.assert_array_equal(out.states[50:100], cloud.states[50:100])
        np.testing.assert_array_equal(out.log_weights[1], lw[1])
        assert out.log_mass[1] == 0.0 and np.all(out.log_weights[[0, 2]] == 0.0)
        for name in ("w", "shift", "total"):   # the preset rows and the kept row equal a fresh computation
            assert getattr(out.weights, name).tobytes() == getattr(Weights(out.log_weights, step=0), name).tobytes()
        np.testing.assert_allclose(rho_one(out), rho_one(cloud), rtol=1e-12)

    @given(LOG_WEIGHTS, st.floats(-20, 20), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_resample_preserves_rho_one(self, lws, log_mass, seed):
        cloud = make_cloud(np.linspace(-1.0, 1.0, len(lws)), lws, log_mass=log_mass)
        before = rho_one(cloud)
        after = rho_one(resample(cloud, [substream(seed)], [0]))
        assert after == pytest.approx(before, rel=1e-12)

    @given(st.lists(st.floats(-30, 5), min_size=2, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_ess_bounds(self, lws):
        cloud = make_cloud(np.zeros(len(lws)), np.array(lws))
        val = cloud.weights.ess
        assert 1.0 - 1e-9 <= val <= len(lws) + 1e-9


def test_collapse_reports_the_step_it_is_given():
    lw = np.full(5, -np.inf)
    with pytest.raises(FilterCollapse) as exc:
        Weights(lw, step=7)
    assert exc.value.step == 7
    with pytest.raises(FilterCollapse) as exc:
        pi_estimate(ParticleCloud(np.zeros((5, 1)), lw[None, :], np.zeros(1), 0.07, step=7), np.ones(5))
    assert exc.value.step == 7


@pytest.mark.parametrize("name", ["correlated_linear", "change_detection"])
def test_run_filter_matches_the_public_estimates_replayed_step_by_step(name):
    """run_filter's trajectories, read off one set of weights per step, equal
    pi_estimate, rho_t(1) and the ESS read off the cloud of each step."""
    m = make_model(name)
    grid = TimeGrid(1.0, 0.02)
    y = simulate_pair(m, grid, substream(12)).y
    cfg = FilterConfig(n_particles=300, resample_threshold=0.999, seed=13)   # resamples at some steps only
    battery = Battery.default(m.dim_x)
    clock = {"prob_change": change_indicator} if m.dim_x == 2 else {}
    run = run_filter(m, y, grid, cfg, battery=battery, time_functionals=clock)
    # one generator per role, each drawn from in order across the steps
    cloud = init_cloud(m.initial_law, cfg.n_particles, [substream(cfg.seed, TAG_INIT)])
    rngs = [substream(cfg.seed, TAG_PROPAGATE)], [substream(cfg.seed, TAG_RESAMPLE)]
    for k in range(grid.n_steps + 1):
        if k:
            cloud, _ = step_at(cloud, m, y[k - 1], y[k] - y[k - 1], grid.dt, *rngs, cfg)
        for label in battery.labels:   # each alone, as a single (N,) row of values
            assert run.pi[label][k] == pi_estimate(cloud, Battery((label,), m.dim_x).values(cloud.states)[0])[0]
        for lab, fn in clock.items():
            assert run.pi[lab][k] == pi_estimate(cloud, fn(cloud.states, k * grid.dt))[0]
        assert run.rho_one[k] == rho_one(cloud)[0]
        assert run.ess[k] == cloud.weights.ess[0]
    assert 0 < run.resampled.sum() < grid.n_steps


def counting_h(model):
    """The model with h wrapped to record the number of states of every call."""
    rows = []

    def h(x, y, t):
        rows.append(x.shape[0])
        return model.h(x, y, t)

    return dataclasses.replace(model, h=h), rows


class TestOneEvaluationOfHPerStep:
    """The weight update, the propagation and the residual integrands of a
    step all read one evaluation of h."""

    def test_run_filter(self):
        m, rows = counting_h(make_model("correlated_linear"))   # sigma_bar != 0: propagation reads h too
        grid = TimeGrid(0.1, 0.01)
        run_filter(m, np.zeros((grid.n_steps + 1, 1)), grid, FilterConfig(n_particles=16, seed=0),
                   battery=Battery.default(1))
        assert len(rows) == grid.n_steps

    @pytest.mark.parametrize("name", ["correlated_linear", "jump_ou"])
    def test_residual_run(self, name):
        m, rows = counting_h(make_model(name))
        grid = TimeGrid(0.1, 0.01)
        residual_run(m, Battery.default(1), grid, FilterConfig(n_particles=16, seed=0), (0, 1))
        # the data paths step both runs as one (2, d) batch; the filter steps 2 x 16 particles
        assert rows.count(2) == grid.n_steps
        assert rows.count(32) == grid.n_steps + 1


class TestStep:
    def test_h_zero_leaves_weights_unchanged(self):
        m = linear_model("quiet", h_scale=0.0)
        cloud = init_cloud(m.initial_law, 128, [substream(0)])
        cfg = FilterConfig(n_particles=128, resample_threshold=0.0, seed=0)
        out, resampled = step_at(cloud, m, Y0, np.array([0.3]), 0.01, [substream(1)], [substream(2)], cfg)
        assert not resampled
        np.testing.assert_array_equal(out.log_weights, cloud.log_weights)
        assert out.t == pytest.approx(0.01)

    def test_duplicated_particles_stay_symmetric(self):
        m = make_model("linear_gaussian")
        cloud = init_cloud(point_mass(0.4), 64, [substream(0)])
        cfg = FilterConfig(n_particles=64, resample_threshold=0.5, seed=0)
        out, _ = step_at(cloud, m, Y0, np.array([0.1]), 0.01, [substream(1)], [substream(2)], cfg)
        assert np.allclose(out.log_weights, out.log_weights[0])
        assert out.weights.ess == pytest.approx(64.0)

    def test_weight_increment_uses_pre_step_state(self):
        # freeze propagation (zero noise, zero drift): the increment must be
        # h(x_pre) dy - h(x_pre)^2 dt/2
        m = linear_model("frozen", a_x=0.0, sigma_v=0.0, sigma_bar=0.0, h_scale=2.0)
        cloud = make_cloud([1.5, 1.5], [0.0, 0.0])
        cfg = FilterConfig(n_particles=2, resample_threshold=0.0, seed=0)
        dy, dt = np.array([0.2]), 0.05
        out, _ = step_at(cloud, m, Y0, dy, dt, [substream(1)], [substream(2)], cfg)
        expected = 3.0 * 0.2 - 0.5 * 9.0 * 0.05
        np.testing.assert_allclose(out.log_weights, expected)

    def test_collapse_raises(self):
        m = linear_model("collapse", a_x=0.0, sigma_v=0.0, sigma_bar=0.0, h_scale=1.0)
        cloud = make_cloud([0.0, 1e6], [0.0, 0.0])
        cfg = FilterConfig(n_particles=2, resample_threshold=0.0, seed=0)
        with pytest.raises(FilterCollapse):
            step_at(cloud, m, Y0, np.array([1.0]), 0.01, [substream(1)], [substream(2)], cfg)


class TestRunFilter:
    def test_zero_length_grid_emits_initial_summary_only(self):
        m = make_model("linear_gaussian")
        grid = TimeGrid(0.0, 0.01)
        run = run_filter(m, np.zeros((1, 1)), grid, FilterConfig(n_particles=32, seed=1),
                        battery=Battery(("1", "x"), 1))
        assert run.times.shape == (1,)
        assert run.pi["1"][0] == 1.0
        assert run.rho_one[0] == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        m = make_model("correlated_linear")
        grid = TimeGrid(0.2, 0.01)
        y = simulate_pair(m, grid, substream(9)).y
        cfg = FilterConfig(n_particles=200, seed=4)
        a = run_filter(m, y, grid, cfg, battery=Battery(("x",), 1))
        b = run_filter(m, y, grid, cfg, battery=Battery(("x",), 1))
        np.testing.assert_array_equal(a.pi["x"], b.pi["x"])
        np.testing.assert_array_equal(a.rho_one, b.rho_one)

    def test_pi_one_column_exactly_one(self):
        m = make_model("linear_gaussian")
        grid = TimeGrid(0.2, 0.01)
        y = simulate_pair(m, grid, substream(10)).y
        run = run_filter(m, y, grid, FilterConfig(n_particles=256, seed=3), battery=Battery(("1",), 1))
        assert np.all(run.pi["1"] == 1.0)

    def test_every_cloud_and_time_functional_is_at_its_grid_time(self):
        # the clock used to be a running sum of dt, which leaves k * dt in the last bits
        m = make_model("linear_gaussian")
        grid = TimeGrid(1.0, 1e-3)
        y = np.zeros((grid.n_steps + 1, 1))
        config = FilterConfig(n_particles=16, seed=1)
        on_grid = [k * grid.dt for k in range(grid.n_steps + 1)]
        walked = [(cloud.step, cloud.t, coeffs.t) for cloud, coeffs, _ in _walk(m, y[None], grid, config, [()])]
        assert walked == [(k, t, t) for k, t in enumerate(on_grid)]
        seen = []
        clock = {"t": lambda states, t: seen.append(t) or np.zeros(len(states))}
        run_filter(m, y, grid, config, time_functionals=clock)
        assert seen == on_grid

    def test_path_grid_mismatch_rejected(self):
        m = make_model("linear_gaussian")
        with pytest.raises(ValueError):
            run_filter(m, np.zeros((5, 1)), TimeGrid(0.2, 0.01), FilterConfig(n_particles=16, seed=0))

    @pytest.mark.parametrize("ignore_correlation", [False, True])
    def test_blow_up_reports_true_step(self, ignore_correlation):
        # noise-free x' = 400 x from x_0 = 1 overflows after a few hundred steps
        m = linear_model("explode", a_x=400.0, sigma_v=0.0, h_scale=0.0, x0_mean=1.0, x0_var=0.0)
        grid = TimeGrid(6.0, 0.01)
        x, expected = 1.0, 0
        while np.isfinite(x):
            x, expected = x + 400.0 * x * grid.dt, expected + 1
        assert 0 < expected < grid.n_steps
        cfg = FilterConfig(n_particles=8, seed=0, ignore_correlation=ignore_correlation)
        with pytest.raises(SimulationBlowUp) as exc, np.errstate(over="ignore"):
            run_filter(m, np.zeros((grid.n_steps + 1, 1)), grid, cfg)
        assert exc.value.step == expected


class TestStatisticalProperties:
    def test_resampling_unbiasedness(self):
        # always-resample vs never-resample agree in mean on the linear model
        m = make_model("linear_gaussian")
        grid = TimeGrid(0.5, 0.01)
        battery = Battery(("x",), 1)
        always, never = [], []
        for i in range(40):
            y = simulate_pair(m, grid, substream(600, i)).y
            for threshold, sink in ((1.0, always), (0.0, never)):
                cfg = FilterConfig(n_particles=400, resample_threshold=threshold,
                                   seed=derive_seed(601, i, int(threshold)))
                sink.append(run_filter(m, y, grid, cfg, battery=battery).pi["x"][-1])
        always, never = np.array(always), np.array(never)
        diff = always - never
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert abs(diff.mean()) < 3 * se, f"resampling bias {diff.mean():.4f} vs SE {se:.4f}"

    def test_rmse_shrinks_with_particle_count(self):
        # slope of log RMSE vs log N should be near -1/2
        m = make_model("linear_gaussian")
        grid = TimeGrid(0.5, 0.005)
        counts = [100, 1000, 10000]
        n_seeds = 24
        rmse = []
        for n in counts:
            sq = []
            for i in range(n_seeds):
                bundle = simulate_pair(m, grid, substream(700, i))
                oracle = kalman_oracle_for_model(m, bundle.y, grid)
                cfg = FilterConfig(n_particles=n, seed=derive_seed(701, n, i))
                run = run_filter(m, bundle.y, grid, cfg, battery=Battery(("x",), 1))
                sq.append((run.pi["x"][-1] - oracle.mean[-1, 0]) ** 2)
            rmse.append(np.sqrt(np.mean(sq)))
        slope = np.polyfit(np.log(counts), np.log(rmse), 1)[0]
        assert -0.8 < slope < -0.25, f"accuracy slope {slope:.3f} not ~ -1/2 (rmse {rmse})"
