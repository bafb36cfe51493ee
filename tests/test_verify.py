"""Oracle correctness and the equation-residual machinery."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab import cli
from filterlab.filters import FilterConfig, Weights, pi_estimate, run_filter
from filterlab.models import Battery, ModelError, change_detection_model, make_model
from filterlab.parallel import run_plans
from filterlab.rng import TAG_KALMAN_FILTER, TAG_PATH, derive_seed, substream
from filterlab.simulate import TimeGrid, simulate_pair
from filterlab.verify import (
    SIGMAS,
    CheckVerdict,
    change_detection_agreement_run,
    change_detection_oracle,
    dufresne_check,
    equation_residuals,
    kalman_agreement_run,
    kalman_bucy_oracle,
    kazamaki_gap_check,
    residual_run,
)
from filterlab import girsanov
from filterlab.girsanov import revuz_yor_closed_form
from test_simulate import jumping_plane


def change_detection_loglik_direct(b, tau, b0, y_path, grid):
    """Log-likelihood of one (b, tau) cell, summed step by step as a reference for the grid oracle."""
    y = np.asarray(y_path, dtype=float).reshape(-1)
    out = 0.0
    for k in range(grid.n_steps):
        t = k * grid.dt
        h = (b0 + b * (t >= tau)) * y[k]
        out += h * (y[k + 1] - y[k]) - 0.5 * h * h * grid.dt
    return out


def riccati_closed_form(t, a, sigma_v, sigma_bar, h, p0):
    """The scalar Riccati variance at times t: dP/dt = -(h^2 P^2 - 2 (a - h sigma_bar) P - sigma_v^2)
    = -h^2 (P - p1)(P - p2), so g = (P - p1) / (P - p2) decays like exp(-h^2 (p1 - p2) t)."""
    c = a - h * sigma_bar
    r = math.sqrt(c * c + h * h * sigma_v * sigma_v)
    p1, p2 = (c + r) / (h * h), (c - r) / (h * h)
    g = (p0 - p1) / (p0 - p2) * np.exp(-2.0 * r * np.asarray(t))
    return (p1 - g * p2) / (1.0 - g)


class TestKalmanOracle:
    def test_no_observation_follows_lyapunov(self):
        # H = 0: dP = 2 a P + q, closed form for scalar a = -1, q = 1
        grid = TimeGrid(1.0, 1e-3)
        y = np.zeros((grid.n_steps + 1, 1))
        out = kalman_bucy_oracle(-1.0, 1.0, 0.0, 0.0, 0.0, 0.2, y, grid)
        t = grid.times()
        closed = 0.5 + (0.2 - 0.5) * np.exp(-2 * t)
        np.testing.assert_allclose(out.cov[:, 0, 0], closed, atol=1e-6)
        np.testing.assert_allclose(out.mean[:, 0], 0.0)

    def test_stationary_riccati_root(self):
        # a=-1, q=1, H=1, no correlation: P* solves -2P + 1 - P^2 = 0
        grid = TimeGrid(8.0, 1e-3)
        y = np.zeros((grid.n_steps + 1, 1))
        out = kalman_bucy_oracle(-1.0, 1.0, 0.0, 1.0, 0.0, 0.5, y, grid)
        assert out.cov[-1, 0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)

    def test_fully_correlated_static_covariance(self):
        # A=0, S_v=0, S_bar=1, H=0: gain = S_bar, dP = 1 - 1 = 0
        grid = TimeGrid(1.0, 1e-2)
        y = np.zeros((grid.n_steps + 1, 1))
        out = kalman_bucy_oracle(0.0, 0.0, 1.0, 0.0, 0.0, 0.3, y, grid)
        np.testing.assert_allclose(out.cov[:, 0, 0], 0.3, atol=1e-12)

    def test_variance_stays_nonnegative(self):
        grid = TimeGrid(1.0, 1e-2)
        m = make_model("correlated_linear")
        bundle = simulate_pair(m, grid, substream(13))
        out = kalman_bucy_oracle(*m.kalman_inputs, bundle.y, grid)
        assert out.mean.shape == (grid.n_steps + 1, 1) and out.cov.shape == (grid.n_steps + 1, 1, 1)
        assert np.min(out.cov) >= -1e-10

    def test_negative_variance_is_refused(self):
        grid = TimeGrid(1.0, 1e-2)
        with pytest.raises(ValueError, match="step 1"):
            kalman_bucy_oracle(0.0, 0.0, 0.0, 0.0, 0.0, -1.0, np.zeros(grid.n_steps + 1), grid)

    def test_correlated_stationary_value(self):
        # dP = -2P + 1.25 - (P + 0.5)^2 has root (-3 + sqrt(13)) / 2
        grid = TimeGrid(8.0, 1e-3)
        y = np.zeros((grid.n_steps + 1, 1))
        out = kalman_bucy_oracle(-1.0, 1.0, 0.5, 1.0, 0.0, 0.5, y, grid)
        assert out.cov[-1, 0, 0] == pytest.approx((-3 + math.sqrt(13)) / 2, abs=1e-6)

    @pytest.mark.parametrize("name", ["correlated_linear", "linear_gaussian"])
    def test_variance_follows_the_closed_form_at_every_grid_time(self, name):
        # the variance does not read the observations, so a flat (K+1,) path serves
        a_x, sigma_v, sigma_bar, h, m0, p0 = make_model(name).kalman_inputs
        grid = TimeGrid(1.0, 1e-3)
        out = kalman_bucy_oracle(a_x, sigma_v, sigma_bar, h, m0, p0, np.zeros(grid.n_steps + 1), grid)
        closed = riccati_closed_form(grid.times(), a_x, sigma_v, sigma_bar, h, p0)
        np.testing.assert_allclose(out.cov[:, 0, 0], closed, rtol=0.0, atol=1e-10)


class TestChangeDetectionOracle:
    def test_point_mass_prior_stays_point_mass(self):
        grid = TimeGrid(0.5, 1e-2)
        m = make_model("change_detection")
        bundle = simulate_pair(m, grid, substream(3))
        post = change_detection_oracle(change_detection_model(b_values=[1.3], tau_values=[0.4]).change_prior,
                                       bundle.y, grid)
        assert post.posterior.shape == (1, 1)
        assert post.posterior[0, 0] == pytest.approx(1.0)
        assert post.posterior.sum() == pytest.approx(1.0, abs=1e-12)

    def test_posterior_odds_match_direct_likelihoods(self):
        # under a uniform prior the log posterior odds of two cells are their log-likelihood gap
        grid = TimeGrid(0.5, 1e-2)
        m = make_model("change_detection")
        bundle = simulate_pair(m, grid, substream(4))
        post = change_detection_oracle(change_detection_model(b_values=[1.1, 1.6], tau_values=[0.3]).change_prior,
                                       bundle.y, grid)
        direct = [change_detection_loglik_direct(b, 0.3, -0.5, bundle.y, grid) for b in (1.1, 1.6)]
        assert np.log(post.posterior[1, 0] / post.posterior[0, 0]) == pytest.approx(direct[1] - direct[0], rel=1e-9)

    def test_prob_change_cuts_the_prior_at_grid_times(self):
        # with y == 0 every cell has likelihood 1, so P(T <= t_k | Y) is the prior
        # mass of tau <= k dt; at dt 2.5e-3 the running time k dt + dt used to put
        # four (step, tau) pairs on the wrong side
        grid = TimeGrid(1.0, 2.5e-3)
        prior = make_model("change_detection").change_prior
        post = change_detection_oracle(prior, np.zeros(grid.n_steps + 1), grid)
        expected = [prior.tau_probs[prior.tau_values <= k * grid.dt].sum() for k in range(grid.n_steps + 1)]
        np.testing.assert_allclose(post.prob_change, expected, rtol=0.0, atol=1e-12)

    def test_mass_normalises_to_one(self):
        grid = TimeGrid(1.0, 1e-2)
        m = make_model("change_detection")
        bundle = simulate_pair(m, grid, substream(5))
        post = change_detection_oracle(m.change_prior, bundle.y, grid)
        assert abs(post.posterior.sum() - 1.0) < 1e-12
        assert np.all(post.posterior >= 0.0)
        assert np.all((post.prob_change >= 0.0) & (post.prob_change <= 1.0 + 1e-12))

    def test_non_finite_posterior_is_refused(self):
        # abs(mass.sum() - 1) > tol is False for NaN, so only a finiteness check refuses it
        grid = TimeGrid(0.1, 1e-2)
        y = np.zeros(grid.n_steps + 1)
        y[5] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            change_detection_oracle(make_model("change_detection").change_prior, y, grid)

    def test_particle_filter_tracks_oracle(self):
        grid = TimeGrid(1.0, 2e-3)
        gap = change_detection_agreement_run(grid, FilterConfig(n_particles=4000, seed=19), 0)
        assert gap < 0.08, f"particle/grid posterior gap {gap:.3f}"

    def test_empty_grid_rejected(self):
        # the oracle takes its prior from the model, which refuses an empty grid of values
        with pytest.raises(ModelError) as refused:
            change_detection_model(b_values=[])
        assert refused.value.key == "b_values"


ONE = Battery(("1",), 1)


class TestResiduals:
    def test_phi_one_ks_residual_identically_zero(self):
        m = make_model("correlated_linear")
        grid = TimeGrid(0.3, 5e-3)
        cfg = FilterConfig(n_particles=128, seed=23)
        zak, ks = residual_run(m, ONE, grid, cfg, (0,))
        assert np.all(ks[0, 0] == 0.0)

    def test_phi_one_zakai_reduces_to_mass_equation(self):
        # R_t(1) must equal rho_t(1) - 1 - sum rho_s(h) dy, rebuilt from an
        # independent pass over the same filter trajectory
        m = make_model("linear_gaussian")
        grid = TimeGrid(0.3, 5e-3)
        cfg = FilterConfig(n_particles=128, resample_threshold=0.0, seed=29)
        zak, ks = residual_run(m, ONE, grid, cfg, (0,))

        from filterlab.filters import init_cloud, step
        from filterlab.rng import TAG_INIT, TAG_PATH, TAG_PROPAGATE, TAG_RESAMPLE

        # run 0's generators, one per role, drawn from in order
        bundle = simulate_pair(m, grid, substream(29, TAG_PATH, 0))
        cloud = init_cloud(m.initial_law, 128, [substream(29, TAG_INIT, 0)])
        rngs = [substream(29, TAG_PROPAGATE, 0)], [substream(29, TAG_RESAMPLE, 0)]
        rho_one, rho_h = [], []
        for k in range(grid.n_steps + 1):
            lw = cloud.log_weights[0]
            w = np.exp(lw - lw.max())
            mass = math.exp(cloud.log_mass[0] + lw.max())
            rho_one.append(mass * w.mean())
            h = m.h(cloud.states, bundle.y[k], k * grid.dt)[:, 0]
            rho_h.append(mass * np.mean(w * h))
            if k < grid.n_steps:
                h = m.h(cloud.states, bundle.y[k], k * grid.dt)
                cloud, _ = step(cloud, m, h, bundle.y[k + 1] - bundle.y[k], grid.dt, *rngs, cfg)
        direct = np.zeros(grid.n_steps + 1)
        acc = 0.0
        for k in range(grid.n_steps + 1):
            direct[k] = rho_one[k] - rho_one[0] - acc
            if k < grid.n_steps:
                acc += rho_h[k] * (bundle.y[k + 1, 0] - bundle.y[k, 0])
        np.testing.assert_allclose(zak[0, 0], direct, rtol=1e-12, atol=1e-14)

    def test_h_zero_constant_phi_residual_exactly_zero(self):
        from filterlab.models import linear_model

        m = linear_model("mute", h_scale=0.0)
        grid = TimeGrid(0.2, 1e-2)
        cfg = FilterConfig(n_particles=64, seed=31)
        zak, ks = residual_run(m, ONE, grid, cfg, (0,))
        assert np.all(zak == 0.0)
        assert np.all(ks == 0.0)

    def test_residuals_mean_zero_small_battery(self):
        m = make_model("linear_gaussian")
        grid = TimeGrid(0.5, 5e-3)
        cfg = FilterConfig(n_particles=256, seed=37)
        labels = ("x", "x^2")
        zak, ks = equation_residuals(labels, *residual_run(m, Battery(labels, 1), grid, cfg, range(48)))
        for lab in ("x", "x^2"):
            for kind, est in (("zakai", zak[lab].mean_residual), ("ks", ks[lab].mean_residual)):
                assert abs(est.value) / est.se < 3.0, f"{kind} {lab}: {est}"

    @pytest.mark.parametrize("name", ["jump_ou", "correlated_linear"])
    def test_matches_replay_through_public_operators(self, name):
        # residual_run's one contraction over all test functions must give
        # exactly what the (A, D) operators of each label's own battery give,
        # read off pi and rho_t(1) as rho(phi) = rho_t(1) pi(phi); the replay
        # reduces every q, h and D phi too, as a product and a sum along the
        # run's contiguous (1, N) row, as the block does
        from filterlab.filters import init_cloud, step
        from filterlab.rng import TAG_INIT, TAG_PATH, TAG_PROPAGATE, TAG_RESAMPLE

        m = make_model(name)
        grid = TimeGrid(0.2, 1e-2)
        cfg = FilterConfig(n_particles=64, seed=41)
        labels = Battery.default(1).labels
        zak, ks = residual_run(m, Battery(labels, 1), grid, cfg, (0,))
        bundle = simulate_pair(m, grid, substream(41, TAG_PATH, 0))
        cloud = init_cloud(m.initial_law, 64, [substream(41, TAG_INIT, 0)])
        rngs = [substream(41, TAG_PROPAGATE, 0)], [substream(41, TAG_RESAMPLE, 0)]
        n, dt = grid.n_steps, grid.dt
        zak_rep = {label: np.zeros(n + 1) for label in labels}
        ks_rep = {label: np.zeros(n + 1) for label in labels}
        zak_int = dict.fromkeys(labels, 0.0)
        ks_int = dict.fromkeys(labels, 0.0)
        start = {}
        for k in range(n + 1):
            y_k, t = bundle.y[k], k * dt
            shift = cloud.log_weights.max(axis=1, keepdims=True)
            w = np.exp(cloud.log_weights - shift)                  # (1, N)
            sw = w.sum(axis=1)
            rho_one = np.exp(cloud.log_mass + shift[:, 0]) * (sw / w.shape[1])
            h_x = m.h(cloud.states, y_k, t)                    # (N, m)
            pi_h = np.sum(w * h_x.T[:, None], axis=-1) / sw        # (m, 1)
            for label in labels:
                one = Battery((label,), 1)                         # its single column is the run's (1, N) row
                vals = one.values(cloud.states)
                pi_phi = np.sum(w * vals, axis=1) / sw
                rho_phi = rho_one * pi_phi
                rho0, pi0 = start.setdefault(label, (rho_phi, pi_phi))
                zak_rep[label][k] = (rho_phi - rho0 - zak_int[label])[0]
                ks_rep[label][k] = (pi_phi - pi0 - ks_int[label])[0]
                if k == n:
                    continue
                dy = (bundle.y[k + 1] - y_k)[None]
                gen, dphi = one.operators(m, cloud.states, h_x, vals)
                pi_a = np.sum(w * gen, axis=1) / sw
                pi_d = np.sum(w * dphi[0][:, None], axis=-1) / sw   # dphi (1, m, N): (m, 1)
                zak_int[label] += rho_one * (pi_a * dt + np.einsum("mr,rm->r", pi_d, dy))
                ks_int[label] += pi_a * dt + np.einsum("mr,rm->r", pi_d - pi_h * pi_phi, dy - pi_h.T * dt)
            if k < n:
                cloud, _ = step(cloud, m, h_x, bundle.y[k + 1] - y_k, dt, *rngs, cfg)
        for col, label in enumerate(labels):
            np.testing.assert_array_equal(zak[0, col], zak_rep[label])
            np.testing.assert_array_equal(ks[0, col], ks_rep[label])

    @given(st.sampled_from(["jump_ou", "correlated_linear", "change_detection"]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_each_column_equals_its_label_run_alone(self, name, data):
        m = make_model(name)
        default = Battery.default(m.dim_x).labels
        order = data.draw(st.permutations(default))
        labels = tuple(order[:data.draw(st.integers(1, len(default)))])
        grid = TimeGrid(0.1, 2e-2)
        cfg = FilterConfig(n_particles=16, resample_threshold=0.9, seed=47)
        zak, ks = residual_run(m, Battery(labels, m.dim_x), grid, cfg, (2, 3))
        for col, label in enumerate(labels):
            zak_1, ks_1 = residual_run(m, Battery((label,), m.dim_x), grid, cfg, (2, 3))
            assert zak[:, col].tobytes() == zak_1[:, 0].tobytes(), label
            assert ks[:, col].tobytes() == ks_1[:, 0].tobytes(), label
        if "1" in labels:
            assert np.all(ks[:, labels.index("1")] == 0.0)

    @pytest.mark.parametrize("name", ["jump_ou", "jumping_plane"])
    def test_ks_row_of_one_is_exactly_zero(self, name):
        # D 1 = h exactly, so pi(D 1) - pi(h) pi(1) cancels, and A 1 = 0
        m = make_model(name) if name == "jump_ou" else jumping_plane()
        battery = Battery.default(m.dim_x)
        zak, ks = residual_run(m, battery, TimeGrid(0.2, 1e-2), FilterConfig(n_particles=64, seed=43), (0, 1, 2))
        assert ks[:, 0].tobytes() == np.zeros(ks[:, 0].shape).tobytes()

    @pytest.mark.parametrize("n_runs, n, horizon", [
        pytest.param(1, 24, 0.4, id="1"), pytest.param(3, 24, 0.4, id="3"), pytest.param(8, 24, 0.4, id="8"),
        # above 8192 particles a contraction over particles can take another order in a block than alone
        pytest.param(3, 10_000, 0.1, id="3-10000"),
    ])
    def test_block_of_runs_equals_blocks_of_one_run(self, n_runs, n, horizon):
        from filterlab.filters import init_cloud, step
        from filterlab.rng import TAG_INIT, TAG_PATH, TAG_PROPAGATE, TAG_RESAMPLE

        m = make_model("jump_ou")
        grid = TimeGrid(horizon, 2e-2)
        cfg = FilterConfig(n_particles=n, resample_threshold=0.99, seed=43)   # every row resamples, at its own steps
        battery = Battery.default(1)
        runs = range(5, 5 + n_runs)
        zak, ks = residual_run(m, battery, grid, cfg, runs)
        assert zak.shape == ks.shape == (n_runs, len(battery.labels), grid.n_steps + 1)
        for row, i in enumerate(runs):
            zak_1, ks_1 = residual_run(m, battery, grid, cfg, (i,))
            assert zak[row].tobytes() == zak_1[0].tobytes(), i
            assert ks[row].tobytes() == ks_1[0].tobytes(), i
        # the block's rows resample at different steps: replay its filter with the same generators
        y = np.stack([simulate_pair(m, grid, substream(43, TAG_PATH, i)).y for i in runs])
        cloud = init_cloud(m.initial_law, n, [substream(43, TAG_INIT, i) for i in runs])
        rngs = [substream(43, TAG_PROPAGATE, i) for i in runs], [substream(43, TAG_RESAMPLE, i) for i in runs]
        flags = []
        for k in range(grid.n_steps):
            h = m.h(cloud.states, np.repeat(y[:, k], n, axis=0), k * grid.dt)
            cloud, resampled = step(cloud, m, h, y[:, k + 1] - y[:, k], grid.dt, *rngs, cfg)
            flags.append(resampled)
        flags = np.array(flags)
        assert 0 < flags.sum() < flags.size
        if n_runs > 1:
            assert np.any(flags.any(axis=1) & ~flags.all(axis=1)), "no step where only some rows resample"

    def test_needs_two_runs(self):
        m = make_model("linear_gaussian")
        runs = residual_run(m, ONE, TimeGrid(0.1, 1e-2), FilterConfig(n_particles=16, seed=0), (0,))
        with pytest.raises(ValueError):
            equation_residuals(ONE.labels, *runs)


class TestScenarioChecks:
    def test_dufresne_exact_tail_carries_a_short_horizon(self):
        # at a near-zero horizon nearly every path is still below 1: the indicator
        # alone reads near 1, and the exact tail after the horizon brings it to e^-2
        [(est, target, correction)] = run_plans([dufresne_check(400, TimeGrid(0.2, 1e-2), seed=3)])
        assert abs(est.value - target) <= 3 * est.se
        assert correction > 0.5

    def test_dufresne_estimate_converges_towards_target(self):
        [(est, target, correction)] = run_plans([dufresne_check(3000, TimeGrid(12.0, 5e-3), seed=5)])
        assert target == pytest.approx(math.exp(-2.0))
        assert abs(est.value - target) < 3 * est.se + 0.01

    def test_revuz_yor_energy_both_representations(self):
        # each row's tolerance is 3 SE of its estimate
        for representation in ("transformed", "base"):
            [[row]] = run_plans([cli.check_revuz_yor_energy(7, alpha=1.0, t=0.5, n_paths=4000, dt=1e-3,
                                                            representation=representation)])
            assert row.reference == revuz_yor_closed_form(1.0, 0.5)
            assert abs(row.estimate - row.reference) < row.tolerance, representation

    def test_revuz_yor_rejects_unknown_representation(self):
        with pytest.raises(ValueError):
            run_plans([cli.check_revuz_yor_energy(0, alpha=1.0, t=0.5, n_paths=100, dt=1e-2, representation="weird")])

    def test_kazamaki_partial_sums_grow_like_log(self):
        [(rows, sums, growth)] = run_plans([kazamaki_gap_check([1], 800, 1e-3, seed=9)])
        assert rows[0].passed
        # sum_{n<=N} n/(n+1)^2 grows by ~ln 10 per decade
        assert sums[10000] - sums[1000] == pytest.approx(math.log(10.0), abs=0.01)
        assert growth == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("ignore_correlation", [False, True])
    @pytest.mark.parametrize("name", ["correlated_linear", "linear_gaussian"])
    def test_kalman_agreement_reads_the_horizon_of_the_recorded_run(self, name, ignore_correlation):
        # the horizon cloud's reduction gives the bytes of the last column run_filter records, with the same seeds
        grid = TimeGrid(0.5, 0.01)
        config = FilterConfig(n_particles=200, seed=43, ignore_correlation=ignore_correlation)
        model = make_model(name)
        y = simulate_pair(model, grid, substream(config.seed, TAG_PATH, 2)).y
        oracle = kalman_bucy_oracle(*model.kalman_inputs, y, grid)
        cfg = replace(config, seed=derive_seed(config.seed, TAG_KALMAN_FILTER, 2))
        run = run_filter(model, y, grid, cfg, battery=Battery(("x", "x^2"), 1))
        m_pf = run.pi["x"][-1]
        v_pf = run.pi["x^2"][-1] - m_pf * m_pf
        want = np.array([abs(m_pf - oracle.mean[-1, 0]), abs(v_pf - oracle.cov[-1, 0, 0])])
        assert np.array(kalman_agreement_run(name, grid, config, 2)).tobytes() == want.tobytes()

    def test_pi_estimate_rejects_a_non_finite_test_function(self):
        weights = Weights(np.log(np.array([[0.5, 1.0, 0.25, 1.0]])), step=0)
        with np.errstate(over="ignore"):   # a sum that overflows is no error
            assert np.all(np.isinf(pi_estimate(np.full((1, 4), 1e308), weights)))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                pi_estimate(np.array([[1.0, 2.0], [0.0, bad]]).repeat(2, axis=1), weights)

    def test_kalman_agreement_single_seed(self):
        grid = TimeGrid(0.5, 2e-3)
        dmean, dvar = kalman_agreement_run("linear_gaussian", grid, FilterConfig(n_particles=4000, seed=41), 0)
        assert dmean < 0.05 and dvar < 0.05

    def test_local_boundedness_silent_sensor_is_flat_zero(self, monkeypatch):
        from filterlab.models import linear_model

        monkeypatch.setattr(cli, "make_model", lambda name: linear_model("mute", h_scale=0.0))
        [[row]] = run_plans([cli.check_local_boundedness(3, scenario="mute", n_paths=200, dt=1e-2, horizon=0.3)])
        assert row.passed
        np.testing.assert_array_equal(row.trajectory["mean_z_hsq"], 0.0)
        np.testing.assert_array_equal(row.trajectory["mean_hsq"], 0.0)

    def test_local_boundedness_jump_ou(self):
        [[row]] = run_plans([cli.check_local_boundedness(5, scenario="jump_ou", n_paths=2000, dt=2e-3, horizon=1.0)])
        assert row.passed
        # curves stay far inside the envelope
        assert row.trajectory["mean_z_hsq"].max() < 1.0 < row.trajectory["envelope"][-1]

    def test_local_boundedness_change_detection_envelope(self):
        # bounded change sizes: curves under c(b_max) e^{c(b_max) t}
        [[row]] = run_plans([cli.check_local_boundedness(7, scenario="change_detection", n_paths=2000, dt=2e-3,
                                                         horizon=1.0, b0=-0.5, b_max=2.0)])
        assert row.scenario == f"change_detection,c={4.0 + 1.5 ** 2:g}"
        assert row.passed

    def test_gronwall_change_detection_tracks_one_plus_t(self):
        # under the reference measure E[Z_t U_t] = 1 + t exactly
        [[row]] = run_plans([cli.check_gronwall(11, scenario="change_detection", n_paths=3000, dt=2e-3, horizon=1.0,
                                                b0=-0.5, b=1.0)])
        assert row.scenario == "change_detection,c=4.25"
        assert row.passed
        traj, ses, t = row.trajectory["mean_zu"], row.trajectory["se"], row.trajectory["t"]
        inside = np.abs(traj - (1.0 + t)) <= 4 * ses + 1e-9
        assert inside.mean() > 0.9, "E[Z U] should track 1 + t"


class TestVerdictRule:
    """A row passes when |estimate - reference| <= tolerance, or, one-sided,
    when estimate - reference <= tolerance."""

    def test_two_sided_band(self):
        # an estimate 1.0 ± 0.1 under a 3-SE band: inside, outside, and inside only with a 0.3 allowance
        assert CheckVerdict("c", "s", 1.0, 1.25, 0.3).passed
        assert not CheckVerdict("c", "s", 1.0, 1.5, 0.3).passed
        assert CheckVerdict("c", "s", 1.0, 1.5, 0.3 + 0.3).passed

    @pytest.mark.parametrize("estimate, one_sided, two_sided", [(0.0, True, False), (1.5, True, True),
                                                                (1.6, False, False)])
    def test_one_sided_band_has_no_floor(self, estimate, one_sided, two_sided):
        assert CheckVerdict("c", "s", estimate, 1.0, 0.5, one_sided=True).passed == one_sided
        assert CheckVerdict("c", "s", estimate, 1.0, 0.5).passed == two_sided

    def test_written_passed_is_the_rule(self):
        rows = [CheckVerdict("c", "s", 2.0, 0.0, 1.0, expect_fail=True), CheckVerdict("c", "s", 0.5, 0.0, 1.0)]
        assert [(r.row()[5], r.ok()) for r in rows] == [("0", True), ("1", True)]


class TestBandRows:
    """An upper-band row (estimate <= reference + tolerance at every point) is
    the point with the largest margin over its band, and it is one-sided."""

    def test_zstar_bound_tolerance_is_the_combined_band(self):
        [[row]] = run_plans([cli.check_zstar_bound(3, t=0.5, n_paths=500, dt=0.01)])
        ens = girsanov.ensemble_revuz_yor(1.0, TimeGrid(0.5, 0.01), 500, 3)
        lhs = girsanov.mean_se(ens.z_star)
        energy = girsanov.mean_se(ens.energy)
        assert row.tolerance == SIGMAS * math.hypot(lhs.se, girsanov.MAXIMAL_SLOPE * energy.se) > SIGMAS * lhs.se
        assert row.one_sided and row.detail == ""

    def test_local_boundedness_tolerance_is_its_3se_band(self):
        [[row]] = run_plans([cli.check_local_boundedness(4, n_paths=300, dt=0.01, horizon=0.5)])
        model = make_model("jump_ou")
        grid = TimeGrid(0.5, 0.01)
        ens = girsanov.ensemble_from_model(model, grid, 300, 4)
        means = np.array([ens.z_h_sq.mean, ens.h_sq.mean])
        bands = SIGMAS * np.array([ens.z_h_sq.se, ens.h_sq.se])
        times = grid.times()[:-1]
        env = model.gronwall_rate * np.exp(2.0 * model.gronwall_rate * times) * ens.u0_mean
        curve, k = np.unravel_index(np.argmax(means - (env + bands)), means.shape)
        assert (row.estimate, row.reference, row.tolerance) == (means[curve, k], env[k], bands[curve, k])
        assert row.tolerance > 0.0 and row.one_sided
        assert row.detail == f"worst_t={times[k]:.4g} max_ratio={np.max(means[:, 1:] / env[1:]):.4g}"

    def test_gronwall_row_is_the_largest_margin(self):
        [[row]] = run_plans([cli.check_gronwall(4, n_paths=300, dt=0.01, horizon=0.5)])
        model = make_model("jump_ou")
        grid = TimeGrid(0.5, 0.01)
        ens = girsanov.ensemble_from_model(model, grid, 300, 4)
        times = grid.times()
        traj, ses, bound = ens.zu.mean, ens.zu.se, np.exp(2.0 * model.gronwall_rate * times) * ens.u0_mean
        k = int(np.argmax(traj - (bound + SIGMAS * ses)))
        assert (row.estimate, row.reference, row.tolerance) == (traj[k], bound[k], SIGMAS * ses[k])
        assert row.passed == bool(np.all(traj - bound <= SIGMAS * ses))
        assert row.detail == f"worst_t={times[k]:.4g} max_ratio={np.max(traj[1:] / bound[1:]):.4g}"

    # points at t = 0, 0.5, 1 against reference 1; two-sided checks over several points
    # (martingale_mean, hitting) write one row per point, an upper band one row for all
    @pytest.mark.parametrize("one_sided, estimate, tolerance, worst, passed", [
        (True, [2.0, 6.0, 3.0], [2.0, 1.0, 3.0], 1, False),
        (True, [2.0, 6.0, 3.0], [2.0, 6.0, 3.0], 0, True),
        (True, [2.0, -8.0, 3.0], [2.0, 1.0, 3.0], 0, True),   # far below the reference: inside an upper band
        (False, [2.0, -8.0, 3.0], [2.0, 1.0, 3.0], None, False),   # but outside a two-sided one
        (False, [2.0, -4.0, 3.0], [2.0, 6.0, 3.0], None, True),
    ])
    def test_row_passes_exactly_when_every_point_does(self, one_sided, estimate, tolerance, worst, passed):
        points = [CheckVerdict("c", "s", e, 1.0, tol, one_sided=one_sided) for e, tol in zip(estimate, tolerance)]
        assert all(p.passed for p in points) == passed
        if one_sided:
            se = np.array(tolerance) / SIGMAS   # so that each point's band is its tolerance
            row = CheckVerdict.upper_band("c", "s", np.array(estimate), 1.0, se, [0.0, 0.5, 1.0])
            assert (row.estimate, row.tolerance, row.passed) == (estimate[worst], tolerance[worst], passed)
            assert row.detail == f"worst_t={[0.0, 0.5, 1.0][worst]:.4g} max_ratio={max(estimate[1:]):.4g}"
