"""The exponential-martingale diagnostics.

The statistical anchors here run at desk scale with 3-SE bands; the
heavy-tailed t=1 Revuz-Yor diagnostics live in the acceptance suite with
their pinned path counts.
"""

import dataclasses
import math

import numpy as np
import pytest

from filterlab.girsanov import (
    MAXIMAL_CONST,
    _weighted_paths,
    diagnostics_report,
    energy_identity_check,
    ensemble_from_model,
    ensemble_independent_h,
    ensemble_revuz_yor,
    gronwall_bound_check,
    independent_h_identity_check,
    martingale_mean_check,
    mean_se,
    revuz_yor_base_stats,
    revuz_yor_closed_form,
    revuz_yor_transformed_estimates,
    transformed_energy_estimate,
    zstar_bound,
)
from filterlab.models import levy_atoms, linear_model, make_model, point_mass_initial
from filterlab.rng import TAG_PATH, substream
from filterlab.simulate import TimeGrid, batch_levy_increments
from filterlab.verify import CheckVerdict

GRID_HALF = TimeGrid(horizon=0.5, dt=1e-3)


class TestRevuzYorEstimators:
    def test_closed_form_values(self):
        assert revuz_yor_closed_form(1.0, 1.0) == pytest.approx(0.25 * (math.e**2 - 3.0))
        assert revuz_yor_closed_form(0.5, 2.0) == pytest.approx(0.25 * (math.e**2 - 3.0))
        assert revuz_yor_closed_form(1.0, 0.0) == 0.0

    def test_transformed_energy_hits_closed_form(self):
        grid = TimeGrid(1.0, 1e-3)
        energy, zlogz, gap = revuz_yor_transformed_estimates(1.0, grid, 4000, seed=7)
        closed = revuz_yor_closed_form(1.0, 1.0)
        assert abs(energy.value - closed) < 3 * energy.se
        assert abs(zlogz.value - closed / 2) < 3 * zlogz.se
        assert abs(gap.value) < 3 * gap.se

    def test_base_measure_energy_light_horizon(self):
        # t = 0.5 keeps Z light-tailed enough for the plain estimator
        ens = ensemble_revuz_yor(1.0, GRID_HALF, 8000, seed=11)
        est = transformed_energy_estimate(ens)
        closed = revuz_yor_closed_form(1.0, 0.5)
        assert abs(est.value - closed) < 3 * est.se

    def test_zlogz_identity_on_base_paths(self):
        # the paired per-path gap Z_t log Z_t - 1/2 int Z |H|^2 ds has mean 0
        ens = ensemble_revuz_yor(1.0, GRID_HALF, 8000, seed=13)
        gap = mean_se(ens.z(ens.grid.n_steps) * ens.log_z[:, -1] - 0.5 * ens.pathwise_transformed_energy())
        assert abs(gap.value) < 3 * gap.se
        # the two sides are individually near the closed form too
        closed = revuz_yor_closed_form(1.0, 0.5)
        zz = diagnostics_report(ens).z_log_z
        assert abs(zz.value - closed / 2) < 3 * zz.se + 0.02 * closed

    def test_martingale_mean_flat_at_one(self):
        ens = ensemble_revuz_yor(1.0, GRID_HALF, 8000, seed=17)
        checks, traj = martingale_mean_check(ens, [0.25, 0.5])
        for t, est in checks.items():
            assert abs(est.value - 1.0) < 3 * est.se, f"E[Z_{t}] = {est}"
        assert traj[0] == 1.0

    def test_streaming_base_stats_match_ensemble(self):
        ens = ensemble_revuz_yor(1.0, GRID_HALF, 2000, seed=19)
        checks, zstar_stream = revuz_yor_base_stats(1.0, GRID_HALF, 2000, 19, [0.25, 0.5])
        dense, _ = martingale_mean_check(ens, [0.25, 0.5])
        for t in (0.25, 0.5):
            assert checks[t].value == pytest.approx(dense[t].value, rel=1e-12)
        zstar_dense = mean_se(np.exp(ens.log_z).max(axis=1))
        assert zstar_stream.value == pytest.approx(zstar_dense.value, rel=1e-12)

    def test_zstar_bound(self):
        ens = ensemble_revuz_yor(1.0, GRID_HALF, 8000, seed=23)
        lhs, rhs, band = zstar_bound(ens)
        assert CheckVerdict.upper_band("zstar_bound", "", lhs.value, rhs, band).passed, f"{lhs} vs {rhs}"

    def test_energy_identity(self):
        ens = ensemble_revuz_yor(1.0, GRID_HALF, 8000, seed=29)
        lhs, rhs = energy_identity_check(ens)
        assert CheckVerdict("energy_identity", "", lhs.value, rhs.value, 3.0 * math.hypot(lhs.se, rhs.se)).passed, \
            f"{lhs} vs {rhs}"


class TestDegenerateAndModelEnsembles:
    def test_h_zero_weight_is_identically_one(self):
        m = linear_model("silent", h_scale=0.0)
        ens = ensemble_from_model(m, TimeGrid(0.2, 0.01), 500, seed=3)
        assert np.all(ens.log_z == 0.0) and np.all(ens.h_sq == 0.0)
        assert transformed_energy_estimate(ens).value == 0.0
        assert diagnostics_report(ens).z_log_z.value == 0.0
        lhs, rhs, band = zstar_bound(ens)
        assert lhs.value == 1.0 and rhs == pytest.approx(MAXIMAL_CONST)
        assert CheckVerdict.upper_band("zstar_bound", "", lhs.value, rhs, band).passed

    def test_jump_ou_martingale_mean(self):
        ens = ensemble_from_model(make_model("jump_ou"), TimeGrid(1.0, 2e-3), 4000, seed=31)
        checks, _ = martingale_mean_check(ens, [0.25, 0.5, 1.0])
        for t, est in checks.items():
            assert abs(est.value - 1.0) < 3 * est.se, f"E[Z_{t}] = {est}"

    def test_independent_h_identity(self):
        ens = ensemble_independent_h(TimeGrid(1.0, 2e-3), 8000, seed=37)
        lhs, rhs = independent_h_identity_check(ens)
        assert CheckVerdict("independent_h", "", lhs.value, rhs.value, 3.0 * math.hypot(lhs.se, rhs.se)).passed, \
            f"transformed {lhs} vs plain {rhs}"

    def test_gronwall_trivial_model(self):
        # all coefficients zero from X_0 = 0: E[Z_t U_t] = 1 <= e^{2ct}
        m = linear_model("nil", a_x=0.0, sigma_v=0.0, sigma_bar=0.0, h_scale=0.0)
        m = dataclasses.replace(m, initial_law=point_mass_initial([0.0]))
        ens = ensemble_from_model(m, TimeGrid(0.5, 0.01), 100, seed=1)
        traj, ses, bound = gronwall_bound_check(ens, rate=1.0)
        assert CheckVerdict.upper_band("gronwall_envelope", "nil", traj, bound, 3.0 * ses).passed
        np.testing.assert_array_equal(traj, np.ones_like(traj))

    def test_gronwall_jump_ou(self):
        m = make_model("jump_ou")
        ens = ensemble_from_model(m, TimeGrid(1.0, 2e-3), 2000, seed=41)
        traj, ses, bound = gronwall_bound_check(ens, m.gronwall_rate)
        assert CheckVerdict.upper_band("gronwall_envelope", "jump_ou", traj, bound, 3.0 * ses).passed
        assert bound[-1] == pytest.approx(math.exp(4.0) * ens.u[:, 0].mean())

    def test_jump_coefficient_at_left_point(self):
        # sigma_tilde(x) = x must see X_{s-}, not the state after the diffusion part
        base = linear_model("jumpy", sigma_v=0.7, sigma_bar=0.5, levy=levy_atoms([1.0], [2.0]), sigma_tilde=1.0)
        m = dataclasses.replace(base, sigma_tilde=lambda x: x[:, :, None])
        dt, n = 0.1, 64
        ens = ensemble_from_model(m, TimeGrid(dt, dt), n, seed=5)
        rng = substream(5, TAG_PATH)
        x0 = m.initial_law(rng, n)
        dw = rng.standard_normal((n, 1)) * np.sqrt(dt)
        dv = rng.standard_normal((n, 1)) * np.sqrt(dt)
        dl = batch_levy_increments(m.levy, dt, n, rng)
        x1 = x0 + m.f(x0) * dt + 0.7 * dv + 0.5 * dw + x0 * dl
        np.testing.assert_allclose(ens.u[:, 1], 1.0 + x1[:, 0] ** 2, rtol=1e-12)

    def test_ensemble_requires_u_for_gronwall(self):
        ens = ensemble_revuz_yor(1.0, GRID_HALF, 100, seed=2)
        with pytest.raises(ValueError):
            gronwall_bound_check(ens, 1.0)


class TestDeterminism:
    def test_estimators_are_seed_deterministic(self):
        a = diagnostics_report(ensemble_revuz_yor(1.0, GRID_HALF, 1000, seed=5))
        b = diagnostics_report(ensemble_revuz_yor(1.0, GRID_HALF, 1000, seed=5))
        assert a.transformed_energy == b.transformed_energy
        assert a.e_z == b.e_z
        assert a.z_star == b.z_star

    def test_report_serialisation(self):
        rep = diagnostics_report(ensemble_revuz_yor(1.0, TimeGrid(0.1, 0.01), 200, seed=5))
        rows = rep.to_csv_rows(seed=5)
        assert len(rows) == 5 and rows[0][0] == rep.label


def test_mean_se_requires_two_samples():
    with pytest.raises(ValueError):
        mean_se(np.array([1.0]))


class TestWeightLoop:
    """The one loop behind every ensemble, on an integrand with a closed-form weight."""

    def test_constant_integrand_weight_is_the_exponential_of_brownian_motion(self):
        c = np.array([0.7, -1.3])
        grid, n, seed = TimeGrid(0.5, 0.01), 200, 4
        ens = _weighted_paths(grid, n, substream(seed), "const", None, lambda s, t: np.broadcast_to(c, (n, 2)),
                              lambda s, h, dw, i: s)
        rng = substream(seed)
        w_t = sum(rng.standard_normal((n, 2)) * np.sqrt(grid.dt) for _ in range(grid.n_steps))
        expected = w_t @ c - 0.5 * (c @ c) * grid.horizon
        np.testing.assert_allclose(ens.log_z[:, -1], expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(ens.h_sq, c @ c)
        assert ens.u is None
