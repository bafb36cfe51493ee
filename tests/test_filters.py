"""Particle-filter contracts: normalisation, resampling, oracle accuracy."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab import filters
from filterlab.filters import (
    FilterCollapse,
    FilterConfig,
    ParticleCloud,
    Weights,
    _walk,
    init_cloud,
    resample,
    run_filter,
    step,
    systematic_indices,
)
from filterlab.models import Battery, gaussian_initial, linear_model, make_model
from filterlab.rng import TAG_INIT, TAG_PROPAGATE, TAG_RESAMPLE, derive_seed, substream
from filterlab.simulate import SimulationBlowUp, TimeGrid, simulate_pair
from filterlab.verify import kalman_bucy_oracle, residual_run

Y0 = np.zeros(1)


def point_mass(value):
    """The initial law of a point mass at value: a Gaussian with zero covariance."""
    return gaussian_initial([value], [[0.0]])


def rho_one(cloud):
    """rho_t(1) of each run of the cloud, rebuilt from its log-mass and weights."""
    return np.exp(cloud.log_mass + cloud.weights.shift) * np.mean(cloud.weights.w, axis=-1)


def pi_of(cloud, values):
    """pi_t(phi) = sum(w phi) / sum(w) of a one-run cloud, from phi's (N,) values on its particles."""
    weights = cloud.weights
    return np.sum(weights.w[0] * values) / weights.total[0]


def step_at(cloud, model, y, dy, dt, rngs_prop, rngs_res, config):
    """filters.step with h on the cloud's states at observation y (one shared row) and its grid time step * dt."""
    return step(cloud, model, model.h(cloud.states, y, cloud.step * dt), dy, dt, rngs_prop, rngs_res, config)


# log-weights of a random cloud: finite ones spread over many orders of
# magnitude, and -inf for zero weights, with at least one weight nonzero
LOG_WEIGHTS = st.lists(st.one_of(st.floats(-30, 5), st.just(-np.inf)), min_size=2, max_size=64).filter(
    lambda lws: max(lws) > -np.inf
)


def resampled(cloud, rngs, rows):
    """A copy of the cloud, resampled in place by filters.resample; the cloud keeps its arrays."""
    out = dataclasses.replace(cloud, states=cloud.states.copy(), log_weights=cloud.log_weights.copy())
    resample(out, rngs, rows)
    return out


def make_cloud(states, log_weights, log_mass=0.0):
    return ParticleCloud(
        states=np.atleast_2d(np.asarray(states, dtype=float)).T
        if np.ndim(states) == 1
        else np.asarray(states, dtype=float),
        log_weights=np.asarray(log_weights, dtype=float)[None, :],   # a block of one run
        log_mass=np.array([log_mass]),
    )


class TestInitCloud:
    def test_point_mass_prior(self):
        cloud = init_cloud(point_mass(2.5), 100, [substream(0)])
        assert np.all(cloud.states == 2.5)
        assert np.all(cloud.log_weights == 0.0)
        assert cloud.log_mass == 0.0 and cloud.step == 0

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
        assert cloud.rho_one == pytest.approx(1.0)

    @given(st.integers(0, 2**16), st.sampled_from([0.0, 1.0, 5.0]), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_pi_of_one_is_exactly_one(self, seed, h_scale, threshold):
        # numerator and denominator of pi_t(1) are the same row sum of the weights
        m = make_model("linear_gaussian", h_scale=h_scale)
        grid = TimeGrid(0.2, 0.01)
        y = simulate_pair(m, grid, substream(seed)).y
        config = FilterConfig(n_particles=64, resample_threshold=threshold, seed=seed)
        run = run_filter(m, y, grid, config, battery=Battery(("1", "x"), 1))
        assert np.all(run.pi["1"] == 1.0)

    def test_pi_invariant_under_exact_weight_shift(self):
        # dyadic weights + power-of-two shift keep float addition exact, so the
        # weights, the mass and every estimate must agree bit for bit
        lw = np.array([[-0.5, -0.25, 0.125, 0.0]])
        states = np.array([[0.3], [1.2], [-0.7], [2.0]])
        base = ParticleCloud(states=states, log_weights=lw, log_mass=np.zeros(1))
        for shift in (1.0, -2.0, 16.0):
            moved = ParticleCloud(states=states, log_weights=lw + shift, log_mass=np.array([-shift]))
            assert moved.weights.shift == base.weights.shift + shift and moved.rho_one == base.rho_one
            for name in ("w", "total", "ess"):
                assert getattr(moved.weights, name).tobytes() == getattr(base.weights, name).tobytes(), name

    def test_pi_point_mass_static_model(self):
        # point-mass prior, zero dynamics, h = 0: pi_t(x) stays at the point
        m = linear_model("static", a_x=0.0, sigma_v=0.0, sigma_bar=0.0, h_scale=0.0, x0_mean=1.7, x0_var=0.0)
        grid = TimeGrid(0.2, 0.01)
        y_path = np.zeros((grid.n_steps + 1, 1))
        run = run_filter(m, y_path, grid, FilterConfig(n_particles=64, seed=0), battery=Battery(("x",), 1))
        np.testing.assert_allclose(run.pi["x"], 1.7)


class TestResampling:
    def test_systematic_indices_cover_high_weight(self):
        lw = np.log(np.array([0.7, 0.1, 0.1, 0.1]))
        weights = Weights(lw, step=0)
        idx = systematic_indices(np.cumsum(weights.w / weights.total), substream(1))
        assert (idx == 0).sum() >= 2

    def test_ess_is_n_after_resample(self):
        rng = substream(5)
        cloud = make_cloud(rng.standard_normal(256), rng.standard_normal(256))
        out = resampled(cloud, [substream(6)], [0])
        assert out.weights.ess == pytest.approx(256.0)
        assert np.all(out.log_weights == 0.0)

    def test_resampled_weights_are_preset_to_the_bytes_of_zero_log_weights(self):
        rng = substream(7)
        cloud = make_cloud(rng.standard_normal(300), rng.standard_normal(300))
        out = dataclasses.replace(cloud, states=cloud.states.copy(), log_weights=cloud.log_weights.copy())
        weights = out.weights
        resample(out, [substream(8)], [0])
        assert out.weights is weights   # set by resample, not computed from the log-weights
        fresh = Weights(np.zeros((1, 300)), step=0)
        for name in ("w", "shift", "total", "ess"):
            got, want = getattr(out.weights, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        assert np.all(out.weights.w == 1.0) and out.weights.shift[0] == 0.0 and out.weights.total[0] == 300.0

    def test_block_resamples_only_the_given_rows(self):
        rng = substream(9)
        lw = rng.standard_normal((3, 50))
        cloud = ParticleCloud(states=rng.standard_normal((150, 1)), log_weights=lw, log_mass=np.zeros(3))
        out = resampled(cloud, [substream(10), None, substream(11)], rows=[0, 2])
        np.testing.assert_array_equal(out.states[50:100], cloud.states[50:100])
        np.testing.assert_array_equal(out.log_weights[1], lw[1])
        assert out.log_mass[1] == 0.0 and np.all(out.log_weights[[0, 2]] == 0.0)
        for name in ("w", "shift", "total", "ess"):   # the preset rows and the kept row equal a fresh computation
            assert getattr(out.weights, name).tobytes() == getattr(Weights(out.log_weights, step=0), name).tobytes()
        np.testing.assert_allclose(out.rho_one, cloud.rho_one, rtol=1e-12)

    @given(LOG_WEIGHTS, st.floats(-20, 20), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_resample_preserves_rho_one(self, lws, log_mass, seed):
        cloud = make_cloud(np.linspace(-1.0, 1.0, len(lws)), lws, log_mass=log_mass)
        before = cloud.rho_one
        after = resampled(cloud, [substream(seed)], [0]).rho_one
        assert after == pytest.approx(before, rel=1e-12)

    @given(st.lists(st.floats(-30, 5), min_size=2, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_ess_bounds(self, lws):
        cloud = make_cloud(np.zeros(len(lws)), np.array(lws))
        val = cloud.weights.ess
        assert 1.0 - 1e-9 <= val <= len(lws) + 1e-9


def snapshot(cloud):
    """The bytes of a cloud's arrays, its cached weights included."""
    w = cloud.weights
    return [a.tobytes() for a in (cloud.states, cloud.log_weights, cloud.log_mass, w.w, w.shift, w.total, w.ess)]


@pytest.mark.parametrize("threshold", [1.0, 0.5])
@pytest.mark.parametrize("n_runs", [1, 3])
@pytest.mark.parametrize("name", ["correlated_linear", "jump_ou", "change_detection"])
def test_step_never_writes_into_the_cloud_it_is_given(name, n_runs, threshold):
    """step resamples the cloud it makes in place, so every cloud it is given,
    and every cloud it made before, must keep its bytes, cached weights included."""
    m = make_model(name)
    grid = TimeGrid(0.1, 0.01)
    runs = range(n_runs)
    y = np.stack([simulate_pair(m, grid, substream(20, i)).y for i in runs])
    n = 64
    cfg = FilterConfig(n_particles=n, resample_threshold=threshold, seed=21)
    cloud = init_cloud(m.initial_law, n, [substream(21, TAG_INIT, i) for i in runs])
    rngs = [substream(21, TAG_PROPAGATE, i) for i in runs], [substream(21, TAG_RESAMPLE, i) for i in runs]
    seen = []
    for k in range(grid.n_steps):
        before = snapshot(cloud)
        seen.append((cloud, before))
        h = m.h(cloud.states, np.repeat(y[:, k], n, axis=0), k * grid.dt)
        cloud, _ = step(cloud, m, h, y[:, k + 1] - y[:, k], grid.dt, *rngs, cfg)
        assert snapshot(seen[-1][0]) == before
    for old, before in seen:
        assert snapshot(old) == before


@pytest.mark.parametrize("name, threshold", [("correlated_linear", 0.9), ("change_detection", 0.99)])
def test_walk_of_a_block_equals_each_run_walked_alone(name, threshold):
    """correlated_linear's propagation reads each run's dy and change_detection's
    h its y: a block shares them by rows, a single run as one row, and every
    cloud of the walk is the same bytes either way, at every step."""
    m = make_model(name)
    grid = TimeGrid(0.6, 0.01)   # the change times lie in [0.25, 0.75]
    runs = (4, 5, 6)
    n = 32
    y = np.stack([simulate_pair(m, grid, substream(30, i)).y for i in runs])
    cfg = FilterConfig(n_particles=n, resample_threshold=threshold, seed=31)   # rows resample at steps of their own
    alone = [_walk(m, y[row:row + 1], grid, cfg, [(i,)]) for row, i in enumerate(runs)]
    flags = []
    for (cloud, h, resampled), *singles in zip(_walk(m, y, grid, cfg, [(i,) for i in runs]), *alone):
        for row, (one, one_h, one_resampled) in enumerate(singles):
            particles = slice(row * n, (row + 1) * n)
            assert cloud.states[particles].tobytes() == one.states.tobytes(), (cloud.step, row)
            assert h[particles].tobytes() == one_h.tobytes(), (cloud.step, row)
            for name in ("log_weights", "log_mass"):
                assert getattr(cloud, name)[row].tobytes() == getattr(one, name)[0].tobytes(), (cloud.step, row, name)
            for name in ("w", "shift", "total", "ess"):
                assert getattr(cloud.weights, name)[row].tobytes() == getattr(one.weights, name)[0].tobytes()
            assert resampled[row] == one_resampled[0]
        flags.append(resampled)
    flags = np.array(flags)
    assert np.any(flags.any(axis=1) & ~flags.all(axis=1)), "no step where only some rows resample"


def entrywise_check(log_w):
    """The check that the max-first one replaced: NaN becomes a zero weight,
    and None stands for a collapse."""
    if not np.all(np.isfinite(log_w)):
        log_w = np.where(np.isnan(log_w), -np.inf, log_w)
        if not np.all(np.isfinite(log_w.max(axis=-1))):
            return None
    return log_w


class TestNonFiniteLogWeights:
    """step checks the row maxima where it once checked every log-weight; the
    outcome must be the same: the log-weights and weights it keeps, or a
    FilterCollapse at its step, raised before the propagation."""

    def step_with(self, model, log_weights, states):
        cloud = ParticleCloud(states=states, log_weights=log_weights, log_mass=np.zeros(3), step=5)
        cfg = FilterConfig(n_particles=16, resample_threshold=0.0, seed=0)   # never resamples: the log-weights stay
        dy = np.array([[0.1], [-0.2], [0.05]])
        return step_at(cloud, model, Y0, dy, 0.01, [substream(41, i) for i in range(3)],
                       [substream(42, i) for i in range(3)], cfg)[0]

    @pytest.mark.parametrize("bad", ["nan", "-inf", "row of -inf", "+inf"])
    def test_outcome_equals_the_entrywise_check(self, bad):
        m = make_model("correlated_linear")
        rng = substream(40)
        states, log_weights = rng.standard_normal((48, 1)), rng.standard_normal((3, 16))
        mask = np.zeros((3, 16), dtype=bool)
        mask[{"nan": (1, 3), "-inf": (0, 2), "row of -inf": 1, "+inf": (2, 7)}[bad]] = True
        if bad == "nan":
            mask[2, [0, 5]] = True
        value = {"nan": np.nan, "+inf": np.inf}.get(bad, -np.inf)
        # a non-finite log-weight stays as it is through the increment; the others are those of the finite cloud
        finite = self.step_with(m, log_weights, states)
        expected = entrywise_check(np.where(mask, value, finite.log_weights))
        if expected is None:
            with pytest.raises(FilterCollapse) as exc:
                self.step_with(m, np.where(mask, value, log_weights), states)
            assert (exc.value.step, exc.value.ess) == (6, 0.0)
            return
        out = self.step_with(m, np.where(mask, value, log_weights), states)
        assert out.log_weights.tobytes() == expected.tobytes()
        assert np.all(out.weights.w[mask] == 0.0) and np.all(out.weights.w[~mask] > 0.0)
        for name in ("w", "shift", "total", "ess"):
            assert getattr(out.weights, name).tobytes() == getattr(Weights(expected, step=6), name).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")   # the drift's own, which makes the blow-up
    @pytest.mark.parametrize("value", [-np.inf, np.inf])
    def test_collapse_comes_before_a_blow_up_in_the_same_step(self, value):
        m = linear_model("explode", a_x=400.0, sigma_v=0.0, h_scale=0.0)
        states = np.full((48, 1), 1e307)   # the propagation overflows in this step
        with pytest.raises(SimulationBlowUp) as exc:
            self.step_with(m, np.zeros((3, 16)), states)
        assert exc.value.step == 6
        log_weights = np.zeros((3, 16))
        log_weights[1] = value if value < 0 else 0.0
        log_weights[1, 4] = value
        with pytest.raises(FilterCollapse) as exc:
            self.step_with(m, log_weights, states)
        assert (exc.value.step, exc.value.ess) == (6, 0.0)


def test_collapse_reports_the_step_it_is_given():
    lw = np.full(5, -np.inf)
    with pytest.raises(FilterCollapse) as exc:
        Weights(lw, step=7)
    assert exc.value.step == 7
    with pytest.raises(FilterCollapse) as exc:
        ParticleCloud(np.zeros((5, 1)), lw[None, :], np.zeros(1), step=7).weights
    assert exc.value.step == 7


@pytest.mark.parametrize("name", ["correlated_linear", "change_detection"])
def test_run_filter_matches_the_public_estimates_replayed_step_by_step(name):
    """run_filter's trajectories, read off one set of weights per step, equal
    pi_t(phi) = sum(w phi) / sum(w), rho_t(1) and the ESS read off the cloud of each step."""
    m = make_model(name)
    grid = TimeGrid(1.0, 0.02)
    y = simulate_pair(m, grid, substream(12)).y
    cfg = FilterConfig(n_particles=300, resample_threshold=0.999, seed=13)   # resamples at some steps only
    battery = Battery.default(m.dim_x)
    assert callable(filters.change_indicator)   # the seam through which run_filter reads the change posterior
    clock = {"prob_change": filters.change_indicator} if m.change_prior is not None else {}
    run = run_filter(m, y, grid, cfg, battery=battery)
    assert list(run.pi) == list(battery.labels) + list(clock)   # the change posterior is the last column
    # one generator per role, each drawn from in order across the steps
    cloud = init_cloud(m.initial_law, cfg.n_particles, [substream(cfg.seed, TAG_INIT)])
    rngs = [substream(cfg.seed, TAG_PROPAGATE)], [substream(cfg.seed, TAG_RESAMPLE)]
    for k in range(grid.n_steps + 1):
        if k:
            cloud, _ = step_at(cloud, m, y[k - 1], y[k] - y[k - 1], grid.dt, *rngs, cfg)
        for label in battery.labels:   # each alone, as a single (N,) row of values
            assert run.pi[label][k] == pi_of(cloud, Battery((label,), m.dim_x).values(cloud.states)[0])
        for lab, fn in clock.items():
            assert run.pi[lab][k] == pi_of(cloud, fn(cloud.states, k * grid.dt))
        assert run.rho_one[k] == rho_one(cloud)[0]
        assert run.ess[k] == cloud.weights.ess[0]
    assert 0 < run.resampled.sum() < grid.n_steps


def counting_h(model):
    """The model with h wrapped to record the number of states and the time of every call."""
    rows, times = [], []

    def h(x, y, t):
        rows.append(x.shape[0])
        times.append(t)
        return model.h(x, y, t)

    return dataclasses.replace(model, h=h), rows, times


class TestOneEvaluationOfHPerStep:
    """The weight update, the propagation and the residual integrands of a
    step all read one evaluation of h."""

    def test_run_filter(self):
        m, rows, _ = counting_h(make_model("correlated_linear"))   # sigma_bar != 0: propagation reads h too
        grid = TimeGrid(0.1, 0.01)
        run_filter(m, np.zeros((grid.n_steps + 1, 1)), grid, FilterConfig(n_particles=16, seed=0),
                   battery=Battery.default(1))
        assert len(rows) == grid.n_steps + 1   # the walk evaluates h at every grid time, the last one included

    @pytest.mark.parametrize("name", ["correlated_linear", "jump_ou"])
    def test_residual_run(self, name):
        m, rows, _ = counting_h(make_model(name))
        grid = TimeGrid(0.1, 0.01)
        residual_run(m, Battery.default(1), grid, FilterConfig(n_particles=16, seed=0), (0, 1))
        # the data paths step both runs as one (2, d) batch; the filter steps 2 x 16 particles
        assert rows.count(2) == grid.n_steps
        assert rows.count(32) == grid.n_steps + 1

    def test_residual_run_block_reads_h_at_each_grid_time(self):
        m, rows, times = counting_h(make_model("correlated_linear"))
        grid = TimeGrid(0.1, 0.01)
        residual_run(m, Battery.default(1), grid, FilterConfig(n_particles=16, seed=0), (0, 1, 2))
        # the data paths call h on the (3, d) batch at steps 0 .. K - 1, the walk on the 3 x 16 particles at 0 .. K
        assert rows.count(3) == grid.n_steps and len(rows) == 2 * grid.n_steps + 1
        assert [t for n, t in zip(rows, times) if n == 48] == [k * grid.dt for k in range(grid.n_steps + 1)]


class TestStep:
    def test_h_zero_leaves_weights_unchanged(self):
        m = linear_model("quiet", h_scale=0.0)
        cloud = init_cloud(m.initial_law, 128, [substream(0)])
        cfg = FilterConfig(n_particles=128, resample_threshold=0.0, seed=0)
        out, resampled = step_at(cloud, m, Y0, np.array([0.3]), 0.01, [substream(1)], [substream(2)], cfg)
        assert not resampled
        np.testing.assert_array_equal(out.log_weights, cloud.log_weights)
        assert out.step == 1

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

    def test_every_cloud_and_time_functional_is_at_its_grid_time(self, monkeypatch):
        # the clock used to be a running sum of dt, which leaves k * dt in the last bits
        assert callable(filters.change_indicator)   # the seam through which run_filter reads the change posterior
        m, rows, times = counting_h(make_model("change_detection"))
        grid = TimeGrid(1.0, 1e-3)
        y = np.zeros((grid.n_steps + 1, 1))
        config = FilterConfig(n_particles=16, seed=1)
        on_grid = [k * grid.dt for k in range(grid.n_steps + 1)]
        assert [cloud.step for cloud, _, _ in _walk(m, y[None], grid, config, [()])] == list(range(grid.n_steps + 1))
        assert times == on_grid
        rows.clear()
        times.clear()
        seen = []
        monkeypatch.setattr(filters, "change_indicator", lambda states, t: seen.append(t) or np.zeros(len(states)))
        run_filter(m, y, grid, config)
        assert times == on_grid and rows == [16] * len(on_grid)   # h once per grid time, at k dt
        assert seen == on_grid

    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce")   # the estimate's own: pi is inf
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")   # x^2 of the huge states
    def test_non_finite_time_functional_rejected(self):
        # run_filter checks the row sums of its one product first, and every product only when one is not finite;
        # the states stay at 1e308: no noise, no drift, no sensor
        m = linear_model("huge", a_x=0.0, sigma_v=0.0, h_scale=0.0, x0_mean=1e308, x0_var=0.0)
        grid = TimeGrid(0.1, 0.01)
        y = np.zeros((grid.n_steps + 1, 1))
        config = FilterConfig(n_particles=16, seed=1)
        huge = run_filter(m, y, grid, config, battery=Battery(("x",), 1))
        assert np.all(np.isinf(huge.pi["x"]))   # finite values whose sum overflows are no error
        with pytest.raises(ValueError, match="non-finite"):
            run_filter(m, y, grid, config, battery=Battery(("x^2",), 1))   # (1e308)^2 is inf

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
                oracle = kalman_bucy_oracle(*m.kalman_inputs, bundle.y, grid)
                cfg = FilterConfig(n_particles=n, seed=derive_seed(701, n, i))
                run = run_filter(m, bundle.y, grid, cfg, battery=Battery(("x",), 1))
                sq.append((run.pi["x"][-1] - oracle.mean[-1, 0]) ** 2)
            rmse.append(np.sqrt(np.mean(sq)))
        slope = np.polyfit(np.log(counts), np.log(rmse), 1)[0]
        assert -0.8 < slope < -0.25, f"accuracy slope {slope:.3f} not ~ -1/2 (rmse {rmse})"
