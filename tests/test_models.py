"""Model, generator and test-function contracts."""

import numpy as np
import pytest

from filterlab.models import (
    ModelError,
    apply_correlation,
    apply_D,
    apply_generator,
    change_detection_model,
    check_derivatives,
    const_coeff,
    generator_apply,
    jump_term_mc,
    levy_atoms,
    linear_model,
    make_model,
    phi_battery,
    phi_by_label,
    phi_const,
    phi_coord,
    phi_quad,
    phi_tanh,
    validate_model,
    LevySpec,
)
from filterlab.rng import substream

PROBES = np.linspace(-5.0, 5.0, 41).reshape(-1, 1)
Y0 = np.zeros(1)


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

    def test_sampler_spec_requires_declarations(self):
        with pytest.raises(ModelError):
            LevySpec(jump_rate=1.0, dim=1, sample_marks=lambda rng, k: rng.standard_normal((k, 1)))


class TestValidateModel:
    def test_zero_drift_passes_with_ratio_zero(self):
        m = linear_model("zero", a_x=0.0, sigma_v=0.0, sigma_bar=0.0, h_scale=0.0, x0_var=1.0)
        report = validate_model(m, PROBES)
        assert report.passed
        assert report.ratios["f"] == 0.0

    def test_declared_k_too_small_fails(self):
        # f(x) = 2x against K = 1 fails once |x| >= 1
        m = linear_model("steep", a_x=2.0)
        object.__setattr__(m, "linear_growth_K", 1.0)
        report = validate_model(m, PROBES)
        assert not report.passed
        assert any("f:" in msg for msg in report.failures)

    def test_acceptance_models_pass(self):
        for name in ("linear_gaussian", "correlated_linear", "jump_ou"):
            report = validate_model(make_model(name), PROBES)
            assert report.passed, f"{name} failed validation: {report.failures}"

    def test_nonfinite_coefficient_rejected(self):
        m = linear_model("bad")
        object.__setattr__(m, "f", lambda x: np.where(x > 4.0, np.inf, -x))
        with pytest.raises(ModelError, match="non-finite"):
            validate_model(m, PROBES)

    def test_empty_probe_grid_rejected(self):
        with pytest.raises(ModelError):
            validate_model(make_model("jump_ou"), [])


class TestTestFunctions:
    @pytest.mark.parametrize("phi", phi_battery(2), ids=lambda p: p.label)
    def test_derivatives_match_finite_differences(self, phi):
        rng = substream(101)
        x = rng.standard_normal((32, 2))
        worst = check_derivatives(phi, x, np.zeros(1), rel_tol=1e-5)
        assert worst < 1e-5

    def test_grad_y_zero_for_state_functions(self):
        phi = phi_coord(0, 1)
        assert not np.any(phi.grad_y_or_zero(np.ones((4, 1)), Y0, 1))

    def test_label_roundtrip(self):
        for phi in phi_battery(3):
            rebuilt = phi_by_label(phi.label, 3)
            x = substream(7).standard_normal((5, 3))
            np.testing.assert_array_equal(rebuilt.value(x, Y0), phi.value(x, Y0))

    def test_bad_derivative_detected(self):
        from filterlab.models import TestFunction

        broken = TestFunction(
            label="broken",
            value=lambda x, y: x[:, 0] ** 2,
            grad_x=lambda x, y: np.ones_like(x),      # wrong on purpose
            hess_x=lambda x, y: np.zeros((x.shape[0], 1, 1)),
        )
        with pytest.raises(ModelError, match="disagree"):
            check_derivatives(broken, np.array([[1.5]]), Y0)


class TestGenerator:
    def test_constant_function_is_killed(self):
        # A1 = 0 for every model instance
        for name in ("linear_gaussian", "correlated_linear", "jump_ou"):
            m = make_model(name)
            val = apply_generator(m, phi_const(1.0, m.dim_x), np.zeros(m.dim_x), Y0)
            assert val == 0.0

    def test_pure_drift_reduces_to_f(self):
        m = linear_model("drift", a_x=2.0, sigma_v=0.0, sigma_bar=0.0)
        assert apply_generator(m, phi_coord(0, 1), np.array([1.5]), Y0) == pytest.approx(3.0)

    def test_single_atom_quadratic(self):
        # atom at eta=1 (a "large" jump), rate lam, sigma_tilde = 1, phi = x^2:
        # jump part of A phi is lam * [(x+1)^2 - x^2 - 2x] = lam
        lam = 0.7
        m = linear_model("atom", a_x=-1.0, sigma_v=0.5, sigma_bar=0.25,
                         levy=levy_atoms([[1.0]], [lam]), sigma_tilde=1.0)
        x = 0.3
        f_tilde = -x - lam              # b = a - int_{|rho|>=1} rho F = -lam
        expected = 2 * x * f_tilde + (0.5**2 + 0.25**2) + lam
        got = apply_generator(m, phi_quad(0, 0, 1), np.array([x]), Y0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_linear_phi_zero_noise_reduces_to_drift_on_random_models(self):
        rng = substream(55)
        for _ in range(10):
            a = float(rng.uniform(-3, 3))
            m = linear_model("r", a_x=a, sigma_v=0.0, sigma_bar=0.0)
            x = float(rng.uniform(-2, 2))
            assert apply_generator(m, phi_coord(0, 1), np.array([x]), Y0) == pytest.approx(a * x)

    def test_mc_jump_quadrature_matches_atoms(self):
        lam = 2.0
        atoms = levy_atoms([[-0.5], [0.5]], [lam / 2, lam / 2])
        m = linear_model("mcjump", a_x=-1.0, sigma_v=0.5, levy=atoms, sigma_tilde=1.0)
        x = np.array([0.4])
        est, se = jump_term_mc(m, phi_quad(0, 0, 1), x, Y0, substream(3), n_samples=20000)
        exact = apply_generator(m, phi_quad(0, 0, 1), x, Y0) - apply_generator(
            linear_model("nojump", a_x=-1.0, sigma_v=0.5), phi_quad(0, 0, 1), x, Y0
        )
        # for phi = x^2 the jump integrand is eta^2-like: constant across atoms,
        # so the MC estimate has zero variance here; probe with tanh instead
        est_t, se_t = jump_term_mc(m, phi_tanh(0, 1), x, Y0, substream(3), n_samples=20000)
        exact_t = apply_generator(m, phi_tanh(0, 1), x, Y0) - apply_generator(
            linear_model("nojump", a_x=-1.0, sigma_v=0.5), phi_tanh(0, 1), x, Y0
        )
        assert est == pytest.approx(exact, abs=3 * se + 1e-12)
        assert est_t == pytest.approx(exact_t, abs=3 * se_t + 1e-12)
        assert se_t > 0

    def test_mc_quadrature_variance_halves_when_samples_double(self):
        # statistical slope test: SE ~ n^{-1/2}, so doubling n shrinks the
        # spread of repeated estimates by ~sqrt(2)
        def gaussian_marks(rng, k):
            return 0.4 * rng.standard_normal((k, 1))

        levy = LevySpec(jump_rate=1.5, dim=1, sample_marks=gaussian_marks,
                        mean_large=[0.0], second_moment=[[1.5 * 0.16]])
        m = linear_model("gauss_jumps", a_x=-1.0, levy=levy, sigma_tilde=1.0)
        x = np.array([0.2])
        phi = phi_tanh(0, 1)

        def spread(n_samples, tag):
            vals = [
                jump_term_mc(m, phi, x, Y0, substream(1000 + tag, rep), n_samples)[0]
                for rep in range(48)
            ]
            return np.var(vals)

        v1, v2 = spread(400, 1), spread(800, 2)
        assert v2 < v1 * 0.75, f"variance did not shrink: {v1:.3g} -> {v2:.3g}"

    def test_mc_quadrature_requires_rng(self):
        def gaussian_marks(rng, k):
            return rng.standard_normal((k, 1))

        levy = LevySpec(jump_rate=1.0, dim=1, sample_marks=gaussian_marks,
                        mean_large=[0.0], second_moment=[[1.0]])
        m = linear_model("needs_rng", levy=levy, sigma_tilde=1.0)
        with pytest.raises(ModelError, match="rng"):
            apply_generator(m, phi_quad(0, 0, 1), np.array([0.1]), Y0)


class TestCorrelationAndD:
    def test_uncorrelated_is_zero(self):
        m = make_model("linear_gaussian")
        for phi in phi_battery(1):
            assert apply_correlation(m, phi, np.array([0.7]), Y0, 1) == 0.0

    def test_constant_function_is_killed(self):
        m = make_model("correlated_linear")
        assert apply_correlation(m, phi_const(1.0, 1), np.array([0.7]), Y0, 1) == 0.0

    def test_constant_sigma_bar_linear_phi(self):
        m = linear_model("c", sigma_bar=0.8)
        assert apply_correlation(m, phi_coord(0, 1), np.array([0.3]), Y0, 1) == pytest.approx(0.8)

    def test_index_out_of_range(self):
        m = make_model("correlated_linear")
        with pytest.raises(ModelError):
            apply_correlation(m, phi_coord(0, 1), np.array([0.0]), Y0, 2)
        with pytest.raises(ModelError):
            apply_D(m, phi_coord(0, 1), np.array([0.0]), Y0, 0)

    def test_d_for_constant_phi_is_h(self):
        m = make_model("correlated_linear")
        x = np.array([1.3])
        assert apply_D(m, phi_const(1.0, 1), x, Y0, 1) == pytest.approx(1.3)

    def test_d_zero_h_reduces_to_correlation(self):
        m = linear_model("hzero", sigma_bar=0.6, h_scale=0.0)
        assert apply_D(m, phi_coord(0, 1), np.array([2.0]), Y0, 1) == pytest.approx(0.6)

    def test_d_quadratic_example(self):
        # h(x) = x, sigma_bar = 0, phi = x: D phi = x * x
        m = linear_model("dq", sigma_bar=0.0)
        assert apply_D(m, phi_coord(0, 1), np.array([1.3]), Y0, 1) == pytest.approx(1.69)


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
    batched = generator_apply(m, phi, xs, Y0)
    single = [apply_generator(m, phi, xs[i], Y0) for i in range(16)]
    np.testing.assert_allclose(batched, single, rtol=1e-12)


def test_const_coeff_broadcasts():
    c = const_coeff(np.array([[1.0, 2.0]]))
    out = c(np.zeros((5, 1)))
    assert out.shape == (5, 1, 2)
