"""Oracle correctness and the equation-residual machinery."""

import math

import numpy as np
import pytest

from filterlab.filters import FilterConfig
from filterlab.models import make_model, phi_by_label, phi_const
from filterlab.rng import substream
from filterlab.simulate import TimeGrid, simulate_pair
from filterlab.verify import (
    change_detection_agreement_run,
    change_detection_gronwall_ensemble,
    change_detection_loglik_direct,
    change_detection_oracle,
    dufresne_check,
    equation_residuals,
    kalman_agreement_run,
    kalman_bucy_oracle,
    kalman_oracle_for_model,
    kazamaki_gap_check,
    residual_run,
    revuz_yor_energy,
)
from filterlab import girsanov


class TestKalmanOracle:
    def test_no_observation_follows_lyapunov(self):
        # H = 0: dP = 2 a P + q, closed form for scalar a = -1, q = 1
        grid = TimeGrid(1.0, 1e-3)
        y = np.zeros((grid.n_steps + 1, 1))
        out = kalman_bucy_oracle([[-1.0]], [[1.0]], [[0.0]], [[0.0]], [0.0], [[0.2]], y, grid)
        t = grid.times()
        closed = 0.5 + (0.2 - 0.5) * np.exp(-2 * t)
        np.testing.assert_allclose(out.cov[:, 0, 0], closed, atol=1e-6)
        np.testing.assert_allclose(out.mean[:, 0], 0.0)

    def test_stationary_riccati_root(self):
        # a=-1, q=1, H=1, no correlation: P* solves -2P + 1 - P^2 = 0
        grid = TimeGrid(8.0, 1e-3)
        y = np.zeros((grid.n_steps + 1, 1))
        out = kalman_bucy_oracle([[-1.0]], [[1.0]], [[0.0]], [[1.0]], [0.0], [[0.5]], y, grid)
        assert out.cov[-1, 0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)

    def test_fully_correlated_static_covariance(self):
        # A=0, S_v=0, S_bar=1, H=0: gain = S_bar, dP = 1 - 1 = 0
        grid = TimeGrid(1.0, 1e-2)
        y = np.zeros((grid.n_steps + 1, 1))
        out = kalman_bucy_oracle([[0.0]], [[0.0]], [[1.0]], [[0.0]], [0.0], [[0.3]], y, grid)
        np.testing.assert_allclose(out.cov[:, 0, 0], 0.3, atol=1e-12)

    def test_covariance_stays_symmetric_psd(self):
        grid = TimeGrid(1.0, 1e-2)
        m = make_model("correlated_linear")
        bundle = simulate_pair(m, grid, substream(13))
        out = kalman_oracle_for_model(m, bundle.y, grid)
        for k in range(0, grid.n_steps + 1, 10):
            p = out.cov[k]
            np.testing.assert_allclose(p, p.T)
            assert np.min(np.linalg.eigvalsh(p)) >= -1e-10

    def test_correlated_stationary_value(self):
        # dP = -2P + 1.25 - (P + 0.5)^2 has root (-3 + sqrt(13)) / 2
        grid = TimeGrid(8.0, 1e-3)
        y = np.zeros((grid.n_steps + 1, 1))
        out = kalman_bucy_oracle([[-1.0]], [[1.0]], [[0.5]], [[1.0]], [0.0], [[0.5]], y, grid)
        assert out.cov[-1, 0, 0] == pytest.approx((-3 + math.sqrt(13)) / 2, abs=1e-6)


class TestChangeDetectionOracle:
    def test_point_mass_prior_stays_point_mass(self):
        grid = TimeGrid(0.5, 1e-2)
        m = make_model("change_detection")
        bundle = simulate_pair(m, grid, substream(3))
        post = change_detection_oracle(
            np.array([1.3]), np.array([0.4]), np.array([1.0]), np.array([1.0]),
            -0.5, bundle.y, grid,
        )
        assert post.posterior.shape == (1, 1)
        assert post.posterior[0, 0] == pytest.approx(1.0)
        assert post.mass_total() == pytest.approx(1.0, abs=1e-12)

    def test_single_cell_matches_direct_likelihood(self):
        grid = TimeGrid(0.5, 1e-2)
        m = make_model("change_detection")
        bundle = simulate_pair(m, grid, substream(4))
        post = change_detection_oracle(
            np.array([1.1]), np.array([0.3]), np.array([1.0]), np.array([1.0]),
            -0.5, bundle.y, grid,
        )
        direct = change_detection_loglik_direct(1.1, 0.3, -0.5, bundle.y, grid)
        assert post.log_likelihood[0, 0] == pytest.approx(direct, rel=1e-12)

    def test_mass_normalises_to_one(self):
        grid = TimeGrid(1.0, 1e-2)
        m = make_model("change_detection")
        bundle = simulate_pair(m, grid, substream(5))
        prior = m.change_prior
        post = change_detection_oracle(
            prior.b_values, prior.tau_values, prior.b_probs, prior.tau_probs, prior.b0, bundle.y, grid,
        )
        assert abs(post.mass_total() - 1.0) < 1e-12
        assert np.all(post.posterior >= 0.0)
        assert np.all((post.prob_change >= 0.0) & (post.prob_change <= 1.0 + 1e-12))

    def test_particle_filter_tracks_oracle(self):
        m = make_model("change_detection")
        grid = TimeGrid(1.0, 2e-3)
        gap = change_detection_agreement_run(m, grid, FilterConfig(n_particles=4000, seed=5), 19, 0)
        assert gap < 0.08, f"particle/grid posterior gap {gap:.3f}"

    def test_empty_grid_rejected(self):
        grid = TimeGrid(0.1, 1e-2)
        with pytest.raises(ValueError):
            change_detection_oracle(np.array([]), np.array([0.5]), np.array([]),
                                    np.array([1.0]), 0.0, np.zeros(11), grid)


class TestResiduals:
    def test_phi_one_ks_residual_identically_zero(self):
        m = make_model("correlated_linear")
        grid = TimeGrid(0.3, 5e-3)
        cfg = FilterConfig(n_particles=128, seed=0)
        zak, ks = residual_run(m, [phi_const(1.0, 1)], grid, cfg, seed=23, run_index=0)
        assert np.all(ks["1"] == 0.0)

    def test_phi_one_zakai_reduces_to_mass_equation(self):
        # R_t(1) must equal rho_t(1) - 1 - sum rho_s(h) dy, rebuilt from an
        # independent pass over the same filter trajectory
        m = make_model("linear_gaussian")
        grid = TimeGrid(0.3, 5e-3)
        cfg = FilterConfig(n_particles=128, resample_threshold=0.0, seed=0)
        phis = [phi_const(1.0, 1)]
        zak, ks = residual_run(m, phis, grid, cfg, seed=29, run_index=0)

        from filterlab.filters import init_cloud, step
        from filterlab.rng import TAG_INIT, TAG_PATH, TAG_PROPAGATE, TAG_RESAMPLE

        bundle = simulate_pair(m, grid, substream(29, TAG_PATH, 0))
        cloud = init_cloud(m.initial_law, 128, substream(29, TAG_INIT, 0))
        rho_one, rho_h = [], []
        for k in range(grid.n_steps + 1):
            w = np.exp(cloud.log_weights - cloud.log_weights.max())
            mass = math.exp(cloud.log_mass + cloud.log_weights.max())
            rho_one.append(mass * w.mean())
            h = m.h_now(cloud.states, bundle.y[k], k * grid.dt)[:, 0]
            rho_h.append(mass * np.mean(w * h))
            if k < grid.n_steps:
                cloud, _ = step(cloud, m, bundle.y[k], bundle.y[k + 1] - bundle.y[k], grid.dt,
                                substream(29, TAG_PROPAGATE, 0, k), substream(29, TAG_RESAMPLE, 0, k), cfg)
        direct = np.zeros(grid.n_steps + 1)
        acc = 0.0
        for k in range(grid.n_steps + 1):
            direct[k] = rho_one[k] - rho_one[0] - acc
            if k < grid.n_steps:
                acc += rho_h[k] * (bundle.y[k + 1, 0] - bundle.y[k, 0])
        np.testing.assert_allclose(zak["1"], direct, rtol=1e-12, atol=1e-14)

    def test_h_zero_constant_phi_residual_exactly_zero(self):
        from filterlab.models import linear_model

        m = linear_model("mute", h_scale=0.0)
        grid = TimeGrid(0.2, 1e-2)
        cfg = FilterConfig(n_particles=64, seed=0)
        zak, ks = residual_run(m, [phi_const(1.0, 1)], grid, cfg, seed=31, run_index=0)
        assert np.all(zak["1"] == 0.0)
        assert np.all(ks["1"] == 0.0)

    def test_residuals_mean_zero_small_battery(self):
        m = make_model("linear_gaussian")
        grid = TimeGrid(0.5, 5e-3)
        cfg = FilterConfig(n_particles=256, seed=0)
        phis = [phi_by_label("x", 1), phi_by_label("x^2", 1)]
        zak, ks = equation_residuals([residual_run(m, phis, grid, cfg, seed=37, run_index=i) for i in range(48)])
        for lab in ("x", "x^2"):
            assert zak[lab].ratio() < 3.0, f"zakai {lab}: {zak[lab].mean_residual}"
            assert ks[lab].ratio() < 3.0, f"ks {lab}: {ks[lab].mean_residual}"

    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("name", ["jump_ou", "correlated_linear"])
    def test_matches_replay_through_public_operators(self, name, drop):
        # the coefficients residual_run evaluates once per step must give
        # exactly what generator_apply, dphi_apply and correlation_apply give
        from filterlab.filters import init_cloud, step
        from filterlab.models import correlation_apply, dphi_apply, generator_apply
        from filterlab.rng import TAG_INIT, TAG_PATH, TAG_PROPAGATE, TAG_RESAMPLE

        m = make_model(name)
        grid = TimeGrid(0.2, 1e-2)
        cfg = FilterConfig(n_particles=64, seed=0)
        phis = [phi_by_label(lab, 1) for lab in ("1", "x", "x^2", "tanh(x)")]
        zak, ks = residual_run(m, phis, grid, cfg, seed=41, run_index=0, drop_correlation_term=drop)
        bundle = simulate_pair(m, grid, substream(41, TAG_PATH, 0))
        cloud = init_cloud(m.initial_law, 64, substream(41, TAG_INIT, 0))
        n, dt = grid.n_steps, grid.dt
        zak_rep = {phi.label: np.zeros(n + 1) for phi in phis}
        ks_rep = {phi.label: np.zeros(n + 1) for phi in phis}
        zak_int = dict.fromkeys(zak_rep, 0.0)
        ks_int = dict.fromkeys(ks_rep, 0.0)
        start = {}
        for k in range(n + 1):
            y_k, t = bundle.y[k], k * dt
            shift = cloud.log_weights.max()
            w = np.exp(cloud.log_weights - shift)
            mass = math.exp(cloud.log_mass + shift)
            sw = np.sum(w)
            h = m.h_now(cloud.states, y_k, t)
            pi_h = (w[:, None] * h).sum(axis=0) / sw
            for phi in phis:
                vals = phi.value(cloud.states, y_k)
                rho_phi = mass * float(np.sum(w * vals)) / w.shape[0]
                pi_phi = float(np.sum(w * vals) / sw)
                rho0, pi0 = start.setdefault(phi.label, (rho_phi, pi_phi))
                zak_rep[phi.label][k] = rho_phi - rho0 - zak_int[phi.label]
                ks_rep[phi.label][k] = pi_phi - pi0 - ks_int[phi.label]
                if k == n:
                    continue
                dy = bundle.y[k + 1] - y_k
                a_vals = generator_apply(m, phi, cloud.states, y_k, t)
                rho_a = mass * float(np.sum(w * a_vals)) / w.shape[0]
                rho_d = mass * (w @ dphi_apply(m, phi, cloud.states, y_k, t)) / w.shape[0]
                zak_int[phi.label] += rho_a * dt + float(rho_d @ dy)
                integrand = (w[:, None] * (vals[:, None] * h)).sum(axis=0) / sw - pi_h * pi_phi
                if not drop:
                    integrand = integrand + (w @ correlation_apply(m, phi, cloud.states, y_k)) / sw
                ks_int[phi.label] += float(np.sum(w * a_vals) / sw) * dt + float(integrand @ (dy - pi_h * dt))
            if k < n:
                cloud, _ = step(cloud, m, y_k, bundle.y[k + 1] - y_k, dt, substream(41, TAG_PROPAGATE, 0, k),
                                substream(41, TAG_RESAMPLE, 0, k), cfg)
        for phi in phis:
            np.testing.assert_array_equal(zak[phi.label], zak_rep[phi.label])
            np.testing.assert_array_equal(ks[phi.label], ks_rep[phi.label])

    def test_needs_two_runs(self):
        m = make_model("linear_gaussian")
        run = residual_run(m, [phi_const(1.0, 1)], TimeGrid(0.1, 1e-2), FilterConfig(n_particles=16, seed=0), 0, 0)
        with pytest.raises(ValueError):
            equation_residuals([run])


class TestScenarioChecks:
    def test_dufresne_truncation_allowance_scales(self):
        # a near-zero horizon degenerates to P(0 < 1) = 1 and a huge allowance
        est, target, allowance = dufresne_check(400, TimeGrid(0.2, 1e-2), seed=3)
        assert allowance == pytest.approx(math.exp(-0.1))
        assert est.value > 0.9

    def test_dufresne_estimate_converges_towards_target(self):
        est, target, allowance = dufresne_check(3000, TimeGrid(12.0, 5e-3), seed=5)
        assert target == pytest.approx(math.exp(-2.0))
        assert abs(est.value - target) < 3 * est.se + allowance + 0.01

    def test_revuz_yor_energy_both_representations(self):
        est_t, closed = revuz_yor_energy(1.0, 0.5, 4000, 1e-3, seed=7, representation="transformed")
        est_b, _ = revuz_yor_energy(1.0, 0.5, 4000, 1e-3, seed=7, representation="base")
        assert abs(est_t.value - closed) < 3 * est_t.se
        assert abs(est_b.value - closed) < 3 * est_b.se

    def test_revuz_yor_rejects_unknown_representation(self):
        with pytest.raises(ValueError):
            revuz_yor_energy(1.0, 0.5, 100, 1e-2, seed=0, representation="weird")

    def test_kazamaki_partial_sums_grow_like_log(self):
        rows, sums, growth = kazamaki_gap_check([1], 800, 1e-3, seed=9)
        assert rows[0].passed
        # sum_{n<=N} n/(n+1)^2 grows by ~ln 10 per decade
        assert sums[10000] - sums[1000] == pytest.approx(math.log(10.0), abs=0.01)
        assert growth == pytest.approx(1.0, abs=0.05)

    def test_kalman_agreement_single_seed(self):
        m = make_model("linear_gaussian")
        grid = TimeGrid(0.5, 2e-3)
        dmean, dvar = kalman_agreement_run(m, grid, FilterConfig(n_particles=4000, seed=0), 41, 0)
        assert dmean < 0.05 and dvar < 0.05

    def test_local_boundedness_silent_sensor_is_flat_zero(self):
        from filterlab.models import linear_model
        from filterlab.verify import local_boundedness_sweep

        m = linear_model("mute", h_scale=0.0)
        zh, plain, env, ok = local_boundedness_sweep(m, TimeGrid(0.3, 1e-2), 200, seed=3, rate=1.0)
        assert ok
        np.testing.assert_array_equal(zh, 0.0)
        np.testing.assert_array_equal(plain, 0.0)

    def test_local_boundedness_jump_ou(self):
        from filterlab.verify import local_boundedness_sweep

        m = make_model("jump_ou")
        zh, plain, env, ok = local_boundedness_sweep(m, TimeGrid(1.0, 2e-3), 2000, seed=5)
        assert ok
        assert zh.max() < 1.0 < env[-1]   # curves stay far inside the envelope

    def test_local_boundedness_change_detection_envelope(self):
        # bounded change sizes: curves under c(b_max) e^{c(b_max) t}
        from filterlab.verify import local_boundedness_sweep

        grid = TimeGrid(1.0, 2e-3)
        b0, b_max = -0.5, 2.0
        ens = change_detection_gronwall_ensemble(
            b0, b_max, lambda rng: float(rng.uniform(0.25, 0.75)), grid, 2000, seed=7
        )
        rate = 4.0 + (b0 + b_max) ** 2
        zh, plain, env, ok = local_boundedness_sweep(
            None, grid, 2000, seed=7, rate=rate, rate_factor=1.0, ensemble=ens
        )
        assert ok

    def test_gronwall_change_detection_tracks_one_plus_t(self):
        # under the reference measure E[Z_t U_t] = 1 + t exactly
        grid = TimeGrid(1.0, 2e-3)
        ens = change_detection_gronwall_ensemble(
            -0.5, 1.0, lambda rng: float(rng.uniform(0.25, 0.75)), grid, 3000, seed=11
        )
        traj, ses, bound, ok = girsanov.gronwall_bound_check(ens, 4.25, rate_factor=1.0)
        assert ok
        t = grid.times()
        inside = np.abs(traj - (1.0 + t)) <= 4 * ses + 1e-9
        assert inside.mean() > 0.9, "E[Z U] should track 1 + t"
