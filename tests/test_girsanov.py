"""The exponential-martingale diagnostics.

The statistical anchors here run at desk scale with 3-SE bands; the
heavy-tailed t=1 Revuz-Yor diagnostics live in the acceptance suite with
their pinned path counts.
"""

import dataclasses
import math

import numpy as np
import pytest

from filterlab import cli, girsanov
from filterlab.girsanov import (
    MAXIMAL_CONST,
    Curve,
    _weighted_paths,
    change_detection_gronwall_ensemble,
    ensemble_from_model,
    ensemble_independent_h,
    ensemble_revuz_yor,
    mean_se,
    revuz_yor_closed_form,
    revuz_yor_transformed_estimates,
)
from filterlab.models import levy_atoms, linear_model, make_model
from filterlab.parallel import run_plans
from filterlab.rng import TAG_PATH, substream
from filterlab.simulate import TimeGrid, batch_levy_increments
from filterlab.verify import CheckVerdict

GRID_HALF = TimeGrid(horizon=0.5, dt=1e-3)


def dense_and_streamed(monkeypatch, build):
    """(ensemble, dense) for build(): the weight loop first steps the builder's
    own integrand, state and draws into dense (paths x times) log Z, |H|^2 and
    U arrays, then rewinds the generator and streams as usual."""
    real = girsanov._weighted_paths
    dense = {}

    def recording(grid, n, rng, label, state, h_of, advance, u_of=None):
        saved = rng.bit_generator.state
        k, dt = grid.n_steps, grid.dt
        log_z, h_sq, u = np.zeros((n, k + 1)), np.zeros((n, k)), np.zeros((n, k + 1))
        s = state
        u[:, 0] = u_of(s) if u_of else 0.0
        for i in range(k):
            h = h_of(s, i * dt)
            h_sq[:, i] = np.einsum("nm,nm->n", h, h)
            dw = rng.standard_normal(h.shape) * np.sqrt(dt)
            log_z[:, i + 1] = log_z[:, i] + np.einsum("nm,nm->n", h, dw) - 0.5 * h_sq[:, i] * dt
            s = advance(s, h, dw, i)
            u[:, i + 1] = u_of(s) if u_of else 0.0
        dense.update(log_z=log_z, h_sq=h_sq, u=u if u_of else None)
        rng.bit_generator.state = saved
        return real(grid, n, rng, label, state, h_of, advance, u_of)

    monkeypatch.setattr(girsanov, "_weighted_paths", recording)
    return build(), dense


GRID_SHORT, N_SHORT = TimeGrid(0.2, 0.01), 300
BUILDERS = {
    "revuz_yor": lambda: ensemble_revuz_yor(1.0, GRID_SHORT, N_SHORT, seed=19),
    "independent_h": lambda: ensemble_independent_h(GRID_SHORT, N_SHORT, seed=19),
    "jump_ou": lambda: ensemble_from_model(make_model("jump_ou"), GRID_SHORT, N_SHORT, seed=19),
    "change_detection": lambda: change_detection_gronwall_ensemble(-0.5, 1.0, GRID_SHORT, N_SHORT, seed=19),
}


def column_stats(a):
    return Curve(a.mean(axis=0), a.std(axis=0, ddof=1) / np.sqrt(a.shape[0]))


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
        est = mean_se(ens.energy)
        closed = revuz_yor_closed_form(1.0, 0.5)
        assert abs(est.value - closed) < 3 * est.se

    def test_zlogz_identity_on_base_paths(self):
        # the paired per-path gap Z_t log Z_t - 1/2 int Z |H|^2 ds has mean 0
        ens = ensemble_revuz_yor(1.0, GRID_HALF, 8000, seed=13)
        gap = mean_se(np.exp(ens.log_z_t) * ens.log_z_t - 0.5 * ens.energy)
        assert abs(gap.value) < 3 * gap.se
        # the two sides are individually near the closed form too
        closed = revuz_yor_closed_form(1.0, 0.5)
        zz = mean_se(np.exp(ens.log_z_t) * ens.log_z_t)
        assert abs(zz.value - closed / 2) < 3 * zz.se + 0.02 * closed

    def test_martingale_mean_flat_at_one(self):
        ens = ensemble_revuz_yor(1.0, GRID_HALF, 8000, seed=17)
        for t in (0.25, 0.5):
            est = ens.z.at(GRID_HALF.index_of(t))
            assert abs(est.value - 1.0) < 3 * est.se, f"E[Z_{t}] = {est}"
        assert ens.z.mean[0] == 1.0

    # the Revuz-Yor ensemble of GRID_HALF, 8000 paths, through the checks that read it
    def test_zstar_bound(self):
        [[row]] = run_plans([cli.check_zstar_bound(23, t=0.5, n_paths=8000, dt=1e-3)])
        assert row.passed, f"{row.estimate} vs {row.reference}"

    def test_energy_identity(self):
        [[row]] = run_plans([cli.check_energy_identity(29, t=0.5, n_paths=8000, dt=1e-3)])
        assert row.passed, f"{row.estimate} vs {row.reference}"


class TestDegenerateAndModelEnsembles:
    def test_h_zero_weight_is_identically_one(self, monkeypatch):
        m = linear_model("silent", h_scale=0.0)
        ens = ensemble_from_model(m, TimeGrid(0.2, 0.01), 500, seed=3)
        # Z = 1 on every path at every time, and |H|^2 >= 0 has mean 0 only where it is 0
        assert np.all(ens.log_z_t == 0.0) and np.all(ens.z_star == 1.0)
        assert np.all(ens.z.mean == 1.0) and np.all(ens.z.se == 0.0) and np.all(ens.h_sq.mean == 0.0)
        assert mean_se(ens.energy).value == 0.0
        assert mean_se(np.exp(ens.log_z_t) * ens.log_z_t).value == 0.0
        monkeypatch.setattr(cli, "make_model", lambda name: m)   # the checks build m for any model name
        [[row]] = run_plans([cli.check_zstar_bound(3, scenario="silent", t=0.2, n_paths=500, dt=0.01)])
        assert row.estimate == 1.0 and row.reference == pytest.approx(MAXIMAL_CONST)
        assert row.passed

    def test_jump_ou_martingale_mean(self):
        grid = TimeGrid(1.0, 2e-3)
        ens = ensemble_from_model(make_model("jump_ou"), grid, 4000, seed=31)
        for t in (0.25, 0.5, 1.0):
            est = ens.z.at(grid.index_of(t))
            assert abs(est.value - 1.0) < 3 * est.se, f"E[Z_{t}] = {est}"

    def test_independent_h_identity(self):
        ens = ensemble_independent_h(TimeGrid(1.0, 2e-3), 8000, seed=37)
        lhs, rhs = mean_se(ens.energy), mean_se(ens.plain_energy)
        assert CheckVerdict.band("independent_h", "", lhs.value, rhs.value, math.hypot(lhs.se, rhs.se)).passed, \
            f"transformed {lhs} vs plain {rhs}"

    def test_gronwall_trivial_model(self, monkeypatch):
        # all coefficients zero from X_0 = 0: E[Z_t U_t] = 1 <= e^{2ct}
        m = linear_model("nil", a_x=0.0, sigma_v=0.0, sigma_bar=0.0, h_scale=0.0, x0_var=0.0)
        monkeypatch.setattr(cli, "make_model", lambda name: m)
        [[row]] = run_plans([cli.check_gronwall(1, scenario="nil", n_paths=100, dt=0.01, horizon=0.5)])
        assert row.passed
        traj = row.trajectory["mean_zu"]
        np.testing.assert_array_equal(traj, np.ones_like(traj))

    def test_gronwall_jump_ou(self):
        [[row]] = run_plans([cli.check_gronwall(41, scenario="jump_ou", n_paths=2000, dt=2e-3, horizon=1.0)])
        assert row.passed
        bound = row.trajectory["bound"]   # starts at E[U_0]
        assert bound[-1] == pytest.approx(math.exp(4.0) * bound[0])

    def test_jump_coefficient_at_left_point(self, monkeypatch):
        # f(x) = -x must see X_{s-}, not the state after the diffusion part; the draws are dW, dV, then the jumps
        m = linear_model("jumpy", sigma_v=0.7, sigma_bar=0.5, levy=levy_atoms([1.0], [2.0]), sigma_tilde=1.5)
        dt, n = 0.1, 64
        _, dense = dense_and_streamed(monkeypatch, lambda: ensemble_from_model(m, TimeGrid(dt, dt), n, seed=5))
        rng = substream(5, TAG_PATH)
        x0 = m.initial_law(rng, n)
        dw = rng.standard_normal((n, 1)) * np.sqrt(dt)
        dv = rng.standard_normal((n, 1)) * np.sqrt(dt)
        dl = np.full((n, 1), m.levy.compensated_drift(dt))
        batch_levy_increments(m.levy, dt, [rng], dl)
        x1 = x0 + m.f(x0) * dt + 0.7 * dv + 0.5 * dw + 1.5 * dl
        np.testing.assert_allclose(dense["u"][:, 1], 1.0 + x1[:, 0] ** 2, rtol=1e-12)

    def test_ensemble_requires_u_for_gronwall(self):
        # the Revuz-Yor ensemble records no dominating process U
        assert ensemble_revuz_yor(1.0, GRID_HALF, 100, seed=2).zu is None
        with pytest.raises(ValueError):
            run_plans([cli.check_gronwall(2, scenario="revuz_yor", n_paths=100, dt=1e-3, horizon=0.5)])


class TestDeterminism:
    def test_estimators_are_seed_deterministic(self):
        a = ensemble_revuz_yor(1.0, GRID_HALF, 1000, seed=5)
        b = ensemble_revuz_yor(1.0, GRID_HALF, 1000, seed=5)
        for field in ("energy", "z_star", "log_z_t"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        assert a.z.mean.tobytes() == b.z.mean.tobytes() and a.z.se.tobytes() == b.z.se.tobytes()

    def test_report_serialisation(self):
        # the revuz_yor counterexample rows: one per quantity, each led by the
        # ensemble's label, and equal for equal seeds
        # two runs of their own: plans in one run_plans would share the producers' results
        rows, again = (run_plans([cli.counterexample_revuz_yor(5, t=0.1, n_paths=200, dt=0.01)])[0] for _ in range(2))
        label = ensemble_revuz_yor(1.0, TimeGrid(0.1, 0.01), 200, seed=5).label
        assert len(rows) == 1 + 7 and all(r[0] == label for r in rows[1:])
        assert rows == again


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
        np.testing.assert_allclose(ens.log_z_t, expected, rtol=0, atol=1e-12)
        # |H|^2 = c.c on every path at every step
        np.testing.assert_allclose(ens.h_sq.mean, c @ c, rtol=1e-15)
        assert np.all(ens.h_sq.se <= 1e-15)
        assert ens.zu is None and ens.u0_mean is None

    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_streamed_reductions_match_a_dense_reference(self, monkeypatch, builder):
        ens, dense = dense_and_streamed(monkeypatch, BUILDERS[builder])
        log_z, h_sq, u = dense["log_z"], dense["h_sq"], dense["u"]
        z = np.exp(log_z)
        dt = GRID_SHORT.dt
        expected = {
            "log_z_t": log_z[:, -1], "z_star": z.max(axis=1), "energy": (z[:, :-1] * h_sq).sum(axis=1) * dt,
            "plain_energy": h_sq.sum(axis=1) * dt, "z": column_stats(z), "z_h_sq": column_stats(z[:, :-1] * h_sq),
            "h_sq": column_stats(h_sq),
        }
        assert (ens.zu is None) == (u is None) == (builder in ("revuz_yor", "independent_h"))
        if u is not None:
            expected.update(zu=column_stats(z * u), u0_mean=u[:, 0].mean())
        for field, want in expected.items():
            np.testing.assert_allclose(getattr(ens, field), want, rtol=1e-12, atol=0, err_msg=field)

    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_no_field_has_a_path_and_a_time_axis(self, builder):
        ens = BUILDERS[builder]()
        k = GRID_SHORT.n_steps
        arrays = []
        for field in dataclasses.fields(ens):
            value = getattr(ens, field.name)
            arrays += list(value) if isinstance(value, Curve) else [value] if isinstance(value, np.ndarray) else []
        assert len(arrays) >= 10
        for a in arrays:
            assert a.ndim == 1 and (a.shape[0] == N_SHORT) != (a.shape[0] in (k, k + 1)), a.shape
