"""Model, generator and test-function contracts."""

import numpy as np
import pytest

from filterlab.models import (
    ModelError,
    PhiAtStep,
    StepCoefficients,
    change_detection_model,
    const_coeff,
    levy_atoms,
    linear_model,
    make_model,
    phi_battery,
    phi_by_label,
    phi_const,
    phi_coord,
    phi_quad,
    phi_tanh,
)
from filterlab.rng import substream

Y0 = np.zeros(1)


def at_step(model, phi, x):
    """phi and its operators A, B and D on the rows of x, at observation Y0 and time 0."""
    return PhiAtStep(phi, StepCoefficients(model, x, Y0))


def generator(model, phi, x):
    return at_step(model, phi, x).generator()


def check_derivatives(phi, x, rel_tol=1e-5, step=1e-5):
    """Max relative disagreement between the analytic x-derivatives of phi and
    central finite differences; raises ModelError above rel_tol. The scale is
    max(1, |derivative|), so near-zero entries compare absolutely."""
    d = x.shape[1]
    worst = 0.0
    g = phi.grad_x(x)
    hess = phi.hess_x(x)
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        fd_g = (phi.value(x + e) - phi.value(x - e)) / (2 * step)
        scale = np.maximum(1.0, np.abs(g[:, k]))
        worst = max(worst, float(np.max(np.abs(fd_g - g[:, k]) / scale)))
        fd_h = (phi.grad_x(x + e) - phi.grad_x(x - e)) / (2 * step)
        scale = np.maximum(1.0, np.abs(hess[:, :, k]))
        worst = max(worst, float(np.max(np.abs(fd_h - hess[:, :, k]) / scale)))
    if worst > rel_tol:
        raise ModelError(f"analytic derivatives of {phi.label!r} disagree with finite differences: {worst:.2e}")
    return worst


def test_jump_ou_rejects_overrides_naming_the_key():
    with pytest.raises(ModelError, match="'a_x'"):
        make_model("jump_ou", a_x=5)
    assert make_model("jump_ou").name == "jump_ou"


class TestLevySpec:
    def test_atoms_must_avoid_origin(self):
        with pytest.raises(ModelError):
            levy_atoms([[0.0]], [1.0])

    def test_drift_b_subtracts_large_jumps(self):
        # atoms at 0.5 (small) and 2.0 (large, rate 0.3): b = a - 0.3 * 2.0
        spec = levy_atoms([[0.5], [2.0]], [1.0, 0.3], drift_a=[0.1])
        assert np.isclose(spec.drift_b[0], 0.1 - 0.6)

    def test_second_moment_from_atoms(self):
        spec = levy_atoms([[-0.5], [0.5]], [1.0, 1.0])
        assert np.isclose(spec.second_moment[0, 0], 0.5)


class TestTestFunctions:
    @pytest.mark.parametrize("phi", phi_battery(2), ids=lambda p: p.label)
    def test_derivatives_match_finite_differences(self, phi):
        rng = substream(101)
        x = rng.standard_normal((32, 2))
        worst = check_derivatives(phi, x, rel_tol=1e-5)
        assert worst < 1e-5

    def test_label_roundtrip(self):
        for phi in phi_battery(3):
            rebuilt = phi_by_label(phi.label, 3)
            x = substream(7).standard_normal((5, 3))
            np.testing.assert_array_equal(rebuilt.value(x), phi.value(x))

    @pytest.mark.parametrize("label", ["x3", "x-1", "x0*x3", "tanh(x3)"])
    def test_label_naming_a_missing_coordinate_is_rejected(self, label):
        with pytest.raises(ModelError, match="coordinate"):
            phi_by_label(label, 3)

    def test_bad_derivative_detected(self):
        from filterlab.models import TestFunction

        broken = TestFunction(
            label="broken",
            value=lambda x: x[:, 0] ** 2,
            grad_x=lambda x: np.ones_like(x),      # wrong on purpose
            hess_x=lambda x: np.zeros((x.shape[0], 1, 1)),
        )
        with pytest.raises(ModelError, match="disagree"):
            check_derivatives(broken, np.array([[1.5]]))


class TestGenerator:
    def test_constant_function_is_killed(self):
        # A1 = 0 for every model instance
        for name in ("linear_gaussian", "correlated_linear", "jump_ou"):
            m = make_model(name)
            val = generator(m, phi_const(m.dim_x), np.zeros((1, m.dim_x)))[0]
            assert val == 0.0

    def test_pure_drift_reduces_to_f(self):
        m = linear_model("drift", a_x=2.0, sigma_v=0.0, sigma_bar=0.0)
        assert generator(m, phi_coord(0, 1), np.array([[1.5]]))[0] == pytest.approx(3.0)

    def test_single_atom_quadratic(self):
        # atom at eta=1 (a "large" jump), rate lam, sigma_tilde = 1, phi = x^2:
        # jump part of A phi is lam * [(x+1)^2 - x^2 - 2x] = lam
        lam = 0.7
        m = linear_model("atom", a_x=-1.0, sigma_v=0.5, sigma_bar=0.25,
                         levy=levy_atoms([[1.0]], [lam]), sigma_tilde=1.0)
        x = 0.3
        f_tilde = -x - lam              # b = a - int_{|rho|>=1} rho F = -lam
        expected = 2 * x * f_tilde + (0.5**2 + 0.25**2) + lam
        got = generator(m, phi_quad(0, 0, 1), np.array([[x]]))[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_linear_phi_zero_noise_reduces_to_drift_on_random_models(self):
        rng = substream(55)
        for _ in range(10):
            a = float(rng.uniform(-3, 3))
            m = linear_model("r", a_x=a, sigma_v=0.0, sigma_bar=0.0)
            x = float(rng.uniform(-2, 2))
            assert generator(m, phi_coord(0, 1), np.array([[x]]))[0] == pytest.approx(a * x)


class TestCorrelationAndD:
    def test_uncorrelated_is_zero(self):
        m = make_model("linear_gaussian")
        for phi in phi_battery(1):
            assert at_step(m, phi, np.array([[0.7]])).correlation[0, 0] == 0.0

    def test_constant_function_is_killed(self):
        m = make_model("correlated_linear")
        assert at_step(m, phi_const(1), np.array([[0.7]])).correlation[0, 0] == 0.0

    def test_constant_sigma_bar_linear_phi(self):
        m = linear_model("c", sigma_bar=0.8)
        assert at_step(m, phi_coord(0, 1), np.array([[0.3]])).correlation[0, 0] == pytest.approx(0.8)

    def test_d_for_constant_phi_is_h(self):
        m = make_model("correlated_linear")
        x = np.array([[1.3]])
        assert at_step(m, phi_const(1), x).dphi()[0, 0] == pytest.approx(1.3)

    def test_d_zero_h_reduces_to_correlation(self):
        m = linear_model("hzero", sigma_bar=0.6, h_scale=0.0)
        assert at_step(m, phi_coord(0, 1), np.array([[2.0]])).dphi()[0, 0] == pytest.approx(0.6)

    def test_d_quadratic_example(self):
        # h(x) = x, sigma_bar = 0, phi = x: D phi = x * x
        m = linear_model("dq", sigma_bar=0.0)
        assert at_step(m, phi_coord(0, 1), np.array([[1.3]])).dphi()[0, 0] == pytest.approx(1.69)


class TestChangeDetectionModel:
    def test_sensor_reads_clock_and_observation(self):
        m = change_detection_model(b0=-0.5)
        states = np.array([[1.0, 0.4], [2.0, 0.8]])
        y = np.array([3.0])
        before = m.h_now(states, y, 0.2)
        after = m.h_now(states, y, 0.6)
        np.testing.assert_allclose(before[:, 0], [-1.5, -1.5])
        np.testing.assert_allclose(after[:, 0], [(-0.5 + 1.0) * 3.0, -1.5])

    def test_prior_sampler_hits_grid(self):
        m = change_detection_model()
        draws = m.initial_law(substream(4), 500)
        prior = m.change_prior
        assert set(np.unique(draws[:, 0])) <= set(prior.b_values)
        assert set(np.unique(draws[:, 1])) <= set(prior.tau_values)


def test_generator_batched_matches_pointwise():
    m = make_model("jump_ou")
    phi = phi_tanh(0, 1)
    xs = substream(9).standard_normal((16, 1))
    batched = generator(m, phi, xs)
    single = [generator(m, phi, xs[i:i + 1])[0] for i in range(16)]
    np.testing.assert_allclose(batched, single, rtol=1e-12)


def test_const_coeff_broadcasts():
    c = const_coeff(np.array([[1.0, 2.0]]))
    out = c(np.zeros((5, 1)))
    assert out.shape == (5, 1, 2)
    np.testing.assert_array_equal(c.matrix, [[1.0, 2.0]])
    assert np.all(out == c.matrix)
