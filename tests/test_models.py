"""Model, generator and test-function contracts."""

import dataclasses
import pickle

import numpy as np
import pytest

from filterlab.models import (
    Battery,
    ModelError,
    change_detection_model,
    levy_atoms,
    linear_model,
    make_model,
)
from filterlab.rng import substream
from filterlab.simulate import propagate_under_reference
from test_simulate import jumping_plane

Array = np.ndarray
Y0 = np.zeros(1)


def operators(model, label, x, h=None):
    """A and D of the one test function `label` on the rows of x, with h the
    sensor at observation Y0 and time 0 unless given: shapes (n,) and (m, n)."""
    battery = Battery((label,), model.dim_x)
    h = model.h(x, Y0, 0.0) if h is None else h
    gen, dphi = battery.operators(model, x, h, battery.values(x))
    return gen[0], dphi[0]


def correlation(model, label, x):
    """B of the one test function `label` on the rows of x, (m, n): D at h = 0."""
    return operators(model, label, x, np.zeros((x.shape[0], model.dim_y)))[1]


def generator(model, label, x):
    return operators(model, label, x)[0]


def check_operators(battery, model, x, rel_tol=1e-5, step=1e-4):
    """Per column, the max relative disagreement of battery.operators with A
    and D built from central differences of battery.values: the gradient and
    the Hessian of each test function on the rows of x, put into the generic
    formulas of A and D; raises ModelError above rel_tol. The scale is
    max(1, |operator|), so near-zero entries compare absolutely."""
    steps = np.eye(x.shape[1]) * step
    phi = battery.values(x)
    grad = np.stack([(battery.values(x + e) - battery.values(x - e)) / (2 * step) for e in steps], axis=-1)
    hess = np.stack([np.stack([(battery.values(x + e + f) - battery.values(x + e - f) - battery.values(x - e + f)
                                + battery.values(x - e - f)) / (4 * step**2) for f in steps], axis=-1)
                     for e in steps], axis=-2)
    gen = np.einsum("ni,kni->kn", model.f_tilde(x), grad) + 0.5 * np.einsum("ij,knij->kn", model.diffusion, hess)
    for lam, disp in model.jumps:
        gen += lam * (battery.values(x + disp) - phi - grad @ disp)
    h = model.h(x, np.full(1, 0.7), 0.5)
    dphi = h.T * phi[:, None] + np.einsum("im,kni->kmn", model.sigma_bar, grad)
    got_gen, got_dphi = battery.operators(model, x, h, phi)
    worst = np.maximum(np.max(np.abs(got_gen - gen) / np.maximum(1.0, np.abs(got_gen)), axis=1),
                       np.max(np.abs(got_dphi - dphi) / np.maximum(1.0, np.abs(got_dphi)), axis=(1, 2)))
    if np.any(worst > rel_tol):
        bad = [label for label, w in zip(battery.labels, worst) if w > rel_tol]
        raise ModelError(f"closed-form operators of {bad} disagree with finite differences: {worst.max():.2e}")
    return worst


def jumping_space():
    """jumping_plane's 3-d companion: constant matrices, none square and
    symmetric, and jumps that move every coordinate."""
    return dataclasses.replace(
        jumping_plane(), name="jumping_space", sigma=np.array([[1.0, 0.2], [0.5, -0.4], [-0.3, 0.8]]),
        sigma_bar=np.array([[0.3], [-0.2], [0.6]]), sigma_tilde=np.array([[1.0, 0.5], [-0.3, 2.0], [0.7, -0.1]]))


OPERATOR_MODELS = [make_model("jump_ou"), make_model("correlated_linear"), make_model("change_detection"),
                   jumping_plane(), jumping_space()]


def test_jump_ou_rejects_overrides_naming_the_key():
    with pytest.raises(ModelError, match="'a_x'"):
        make_model("jump_ou", a_x=5)
    assert make_model("jump_ou").name == "jump_ou"


@pytest.mark.parametrize("model", [make_model("linear"), make_model("linear_gaussian"), make_model("correlated_linear"),
                                   linear_model("custom", a_x=-0.7, sigma_v=1.3, sigma_bar=0.4, h_scale=2.1,
                                                x0_mean=0.6, x0_var=0.9)], ids=lambda m: m.name)
def test_kalman_inputs_are_the_model_coefficients(model):
    # linear_model states each coefficient twice, in its coefficients and in kalman_inputs
    a_x, sigma_v, sigma_bar, h_scale, x0_mean, x0_var = model.kalman_inputs
    x = np.array([[-1.5], [0.3], [2.0]])
    np.testing.assert_array_equal(model.f(x), a_x * x)
    np.testing.assert_array_equal(model.sigma, [[sigma_v]])
    np.testing.assert_array_equal(model.sigma_bar, [[sigma_bar]])
    np.testing.assert_array_equal(model.h(x, Y0, 0.0), h_scale * x)
    # N(x0_mean, x0_var) draws mean + sqrt(var) * z from the same normals z
    expected = x0_mean + np.sqrt(x0_var) * substream(2).standard_normal((4, 1))
    np.testing.assert_allclose(model.initial_law(substream(2), 4), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["jump_ou", "change_detection"])
def test_no_kalman_inputs_where_the_kalman_filter_is_not_exact(name):
    assert make_model(name).kalman_inputs is None


def test_correlated_linear_default_is_overridable():
    assert make_model("correlated_linear").sigma_bar[0, 0] == 0.5
    assert make_model("correlated_linear", sigma_bar=0.25).sigma_bar[0, 0] == 0.25
    assert make_model("correlated_linear", a_x=-2.0).sigma_bar[0, 0] == 0.5
    assert make_model("linear_gaussian").sigma_bar[0, 0] == 0.0


@pytest.mark.parametrize("model", [make_model(name) for name in
                                   ("linear", "linear_gaussian", "correlated_linear", "jump_ou", "change_detection")]
                         + [linear_model("integers", sigma_v=2, sigma_bar=1, levy=levy_atoms([1.0], [1.0]),
                                         sigma_tilde=3)], ids=lambda m: m.name)
def test_noise_coefficients_are_float64_matrices(model):
    # sigma (d, p), sigma_bar (d, m) and sigma_tilde (d, r) with a Levy driver, None without; d, p and m are read
    # off sigma and sigma_bar, so all three matrices must have d rows and sigma_tilde the Levy driver's r columns
    d = model.sigma.shape[0]
    assert (model.dim_x, model.dim_v, model.dim_y) == (d, model.sigma.shape[1], model.sigma_bar.shape[1])
    expected = {"sigma": model.dim_v, "sigma_bar": model.dim_y, "sigma_tilde": model.levy.dim if model.levy else None}
    for field, cols in expected.items():
        matrix = getattr(model, field)
        if cols is None:
            assert matrix is None and not model.has_jumps
        else:
            assert matrix.dtype == np.float64 and matrix.shape == (d, cols), field


def test_terms_of_the_noise_matrices_are_formed_once_per_model():
    # a cached property stores its value in the instance's __dict__ on first read: the first round of the
    # operators and the reference step forms each term, and the second, on other states, reads the same object
    model = jumping_plane()
    battery = Battery.default(model.dim_x)
    names = ("noise_factors", "diffusion", "jumps", "jump_drift", "covariation_rate")
    assert not set(names) & set(vars(model))
    formed = []
    for x in (np.zeros((1, 2)), np.ones((3, 2))):
        h = model.h(x, Y0, 0.0)
        battery.operators(model, x, h, battery.values(x))
        propagate_under_reference(model, x, h, np.zeros(1), 0.01, [substream(5)])
        formed.append({name: vars(model)[name] for name in names})
    for name in names:
        assert formed[0][name] is formed[1][name], name
    np.testing.assert_array_equal(model.diffusion, model.sigma @ model.sigma.T + model.sigma_bar @ model.sigma_bar.T)


class TestLevySpec:
    def test_atoms_must_avoid_origin(self):
        with pytest.raises(ModelError):
            levy_atoms([[0.0]], [1.0])

    def test_a_flat_list_is_one_atom(self):
        # one atom on R reads as (1, 1); two scalar atoms are written [[a], [b]], and a flat list of them is
        # one atom on R^2, whose two rates fail the shape check
        assert levy_atoms([1.0], [1.0]).locs.shape == (1, 1)
        with pytest.raises(ModelError, match="atom locations"):
            levy_atoms([-0.5, 0.5], [1.0, 1.0])

    def test_drift_b_subtracts_large_jumps(self):
        # atoms at 0.5 (small) and 2.0 (large, rate 0.3): b = a - 0.3 * 2.0
        spec = levy_atoms([[0.5], [2.0]], [1.0, 0.3], drift_a=[0.1])
        assert np.isclose(spec.drift_b[0], 0.1 - 0.6)

    def test_second_moment_from_atoms(self):
        spec = levy_atoms([[-0.5], [0.5]], [1.0, 1.0])
        assert np.isclose(spec.second_moment[0, 0], 0.5)

    @pytest.mark.parametrize("rates", [[1.0, 1.0], [0.3, 2.0, 0.7], [5.0, 1e-3, 0.1, 2.5]])
    def test_marks_are_the_draws_of_choice(self, rates):
        # the inverse CDF gives rng.choice's indices and leaves the generator where it does
        spec = levy_atoms([[i + 1.0] for i in range(len(rates))], rates)
        p = spec.rates / spec.rates.sum()
        for seed in range(5):
            for k in (1, 2, 7, 100, 5000):
                rng, ref = substream(seed, k), substream(seed, k)
                marks = spec.sample_marks(rng, k)
                assert np.array_equal(marks, spec.locs[ref.choice(len(rates), size=k, p=p)])
                assert rng.standard_normal() == ref.standard_normal()


class TestTestFunctions:
    @pytest.mark.parametrize("label", Battery.default(2).labels)
    def test_derivatives_match_finite_differences(self, label):
        battery = Battery.default(2)
        x = substream(101).standard_normal((32, 2))
        worst = check_operators(battery, jumping_plane(), x, rel_tol=1e-5)
        assert worst[battery.labels.index(label)] < 1e-5

    @pytest.mark.parametrize("model", OPERATOR_MODELS, ids=lambda m: m.name)
    def test_operators_match_finite_differences_on_the_default_battery(self, model):
        # d = 1 (jump_ou, correlated_linear), 2 (change_detection, jumping_plane) and 3 (jumping_space)
        x = 1.5 * substream(102).standard_normal((32, model.dim_x))
        check_operators(Battery.default(model.dim_x), model, x, rel_tol=1e-5)

    def test_label_roundtrip(self):
        # each label alone gives exactly its column of the default battery, values and operators
        battery, model = Battery.default(3), jumping_space()
        x = substream(7).standard_normal((5, 3))
        for k, label in enumerate(battery.labels):
            alone = Battery((label,), 3)
            np.testing.assert_array_equal(alone.values(x)[0], battery.values(x)[k])
            h = model.h(x, Y0, 0.0)
            for got, expected in zip(alone.operators(model, x, h, alone.values(x)),
                                     battery.operators(model, x, h, battery.values(x))):
                np.testing.assert_array_equal(got[0], expected[k])

    def test_default_labels(self):
        assert Battery.default(1).labels == ("1", "x", "x^2", "tanh(x)")
        assert Battery.default(2).labels == ("1", "x0", "x1", "x0*x0", "x0*x1", "x1*x1", "tanh(x0)", "tanh(x1)")

    @pytest.mark.parametrize("label", ["x3", "x-1", "x0*x3", "tanh(x3)"])
    def test_label_naming_a_missing_coordinate_is_rejected(self, label):
        with pytest.raises(ModelError, match="unknown test-function label"):
            Battery(("1", label), 3)

    @pytest.mark.parametrize("label", ["bogus", "x", "x^2", "tanh(x)", "x 1", "x+1", "x1*x0", "x01", ""])
    def test_unknown_label_is_rejected(self, label):
        with pytest.raises(ModelError, match="unknown test-function label"):
            Battery((label,), 3)

    @pytest.mark.parametrize("label", ["x0", "tanh(x0)", "x0*x0"])
    def test_coordinate_labels_are_refused_on_a_scalar_state(self, label):
        with pytest.raises(ModelError, match="unknown test-function label"):
            Battery((label,), 1)

    def test_repeated_label_is_rejected(self):
        with pytest.raises(ModelError, match="given twice"):
            Battery(("x", "1", "x"), 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_round_trips_through_pickle(self, d):
        battery = Battery.default(d)
        x = substream(8).standard_normal((6, d))
        values = battery.values(x)
        copy = pickle.loads(pickle.dumps(battery))
        assert copy == battery and hash(copy) == hash(battery)
        np.testing.assert_array_equal(copy.values(x), values)

    def test_bad_derivative_detected(self):
        class DriftOnlyTanh(Battery):
            """tanh(x) whose generator keeps f~ s and drops the Ito and jump terms, on purpose."""

            def operators(self, model, x, h, values):
                gen, dphi = super().operators(model, x, h, values)
                gen[-1] = model.f_tilde(x)[:, 0] * (1.0 - values[-1] ** 2)
                return gen, dphi

        x = substream(103).standard_normal((32, 1))
        model = make_model("jump_ou")
        check_operators(Battery.default(1), model, x)
        with pytest.raises(ModelError, match=r"\['tanh\(x\)'\] disagree"):
            check_operators(DriftOnlyTanh.default(1), model, x)


class TestGenerator:
    def test_constant_function_is_killed(self):
        # A1 = 0 for every model instance
        for name in ("linear_gaussian", "correlated_linear", "jump_ou"):
            m = make_model(name)
            val = generator(m, "1", np.zeros((1, m.dim_x)))[0]
            assert val == 0.0

    def test_pure_drift_reduces_to_f(self):
        m = linear_model("drift", a_x=2.0, sigma_v=0.0, sigma_bar=0.0)
        assert generator(m, "x", np.array([[1.5]]))[0] == pytest.approx(3.0)

    def test_single_atom_quadratic(self):
        # atom at eta=1 (a "large" jump), rate lam, sigma_tilde = 1, phi = x^2:
        # jump part of A phi is lam * [(x+1)^2 - x^2 - 2x] = lam
        lam = 0.7
        m = linear_model("atom", a_x=-1.0, sigma_v=0.5, sigma_bar=0.25,
                         levy=levy_atoms([[1.0]], [lam]), sigma_tilde=1.0)
        x = 0.3
        f_tilde = -x - lam              # b = a - int_{|rho|>=1} rho F = -lam
        expected = 2 * x * f_tilde + (0.5**2 + 0.25**2) + lam
        got = generator(m, "x^2", np.array([[x]]))[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_linear_phi_zero_noise_reduces_to_drift_on_random_models(self):
        rng = substream(55)
        for _ in range(10):
            a = float(rng.uniform(-3, 3))
            m = linear_model("r", a_x=a, sigma_v=0.0, sigma_bar=0.0)
            x = float(rng.uniform(-2, 2))
            assert generator(m, "x", np.array([[x]]))[0] == pytest.approx(a * x)

    def test_non_finite_generator_names_its_column(self):
        m = make_model("jump_ou")
        with pytest.raises(ModelError, match="'x\\^2'"), np.errstate(over="ignore", invalid="ignore"):
            generator(m, "x^2", np.array([[1e300]]))


@pytest.mark.parametrize("model", OPERATOR_MODELS + [make_model("linear_gaussian")], ids=lambda m: m.name)
def test_closed_forms_are_exact_where_the_mathematics_is(model):
    # A 1 = 0 and D 1 = h; A x_i = f~_i, with no residue of (x + delta) - x - delta; A x_i x_j = f~_i x_j + f~_j x_i
    # plus the diffusion and sum lam delta_i delta_j over the atoms in order, one constant per model; bit for bit
    battery = Battery.default(model.dim_x)
    x = 3.0 * substream(5).standard_normal((64, model.dim_x))
    h = model.h(x, Y0, 0.0)
    gen, dphi = battery.operators(model, x, h, battery.values(x))
    f_tilde = model.f_tilde(x)
    assert gen[0].tobytes() == np.zeros(len(x)).tobytes() and dphi[0].tobytes() == h.T.tobytes()
    jumps = [(lam, model.sigma_tilde @ eta) for eta, lam in zip(model.levy.locs, model.levy.rates)] \
        if model.has_jumps else []
    for (kind, i, j), a in zip(battery._terms, gen):
        if kind == "x":
            assert a.tobytes() == f_tilde[:, i].tobytes()
        elif kind == "xx":
            rate = model.diffusion[i, j] + sum(lam * (delta[i] * delta[j]) for lam, delta in jumps)
            assert a.tobytes() == (f_tilde[:, i] * x[:, j] + f_tilde[:, j] * x[:, i] + rate).tobytes()


def test_jump_term_of_a_product_is_the_model_constant():
    # without diffusion, A x_i x_j at the origin is the jump term alone: sum lam delta_i delta_j, exactly
    model = dataclasses.replace(jumping_plane(), sigma=np.zeros((2, 1)), sigma_bar=np.zeros((2, 1)))
    battery = Battery(("x0*x0", "x0*x1", "x1*x1"), 2)
    x = np.zeros((1, 2))
    gen = battery.operators(model, x, model.h(x, Y0, 0.0), battery.values(x))[0][:, 0]
    deltas = [(lam, model.sigma_tilde @ eta) for eta, lam in zip(model.levy.locs, model.levy.rates)]
    expected = [sum(lam * (delta[i] * delta[j]) for lam, delta in deltas) for i, j in ((0, 0), (0, 1), (1, 1))]
    assert gen.tolist() == expected and all(expected)


@pytest.mark.parametrize("model", OPERATOR_MODELS, ids=lambda m: m.name)
def test_no_overflow_at_large_states(model):
    # s = 1 - tanh^2 stays finite where 1 / cosh^2 overflows in the square (|x| above about 355)
    battery = Battery.default(model.dim_x)
    x = np.repeat([[400.0], [-400.0], [710.0]], model.dim_x, axis=1)
    with np.errstate(over="raise"):
        gen, dphi = battery.operators(model, x, model.h(x, Y0, 0.0), battery.values(x))
    assert np.isfinite(gen).all() and np.isfinite(dphi).all()


class TestCorrelationAndD:
    def test_uncorrelated_is_zero(self):
        m = make_model("linear_gaussian")
        for label in Battery.default(1).labels:
            assert correlation(m, label, np.array([[0.7]]))[0, 0] == 0.0

    def test_constant_function_is_killed(self):
        m = make_model("correlated_linear")
        assert correlation(m, "1", np.array([[0.7]]))[0, 0] == 0.0

    def test_constant_sigma_bar_linear_phi(self):
        m = linear_model("c", sigma_bar=0.8)
        assert correlation(m, "x", np.array([[0.3]]))[0, 0] == pytest.approx(0.8)

    def test_d_for_constant_phi_is_h(self):
        m = make_model("correlated_linear")
        x = np.array([[1.3]])
        assert operators(m, "1", x)[1][0, 0] == pytest.approx(1.3)

    def test_d_zero_h_reduces_to_correlation(self):
        m = linear_model("hzero", sigma_bar=0.6, h_scale=0.0)
        assert operators(m, "x", np.array([[2.0]]))[1][0, 0] == pytest.approx(0.6)

    def test_d_quadratic_example(self):
        # h(x) = x, sigma_bar = 0, phi = x: D phi = x * x
        m = linear_model("dq", sigma_bar=0.0)
        assert operators(m, "x", np.array([[1.3]]))[1][0, 0] == pytest.approx(1.69)


class TestChangeDetectionModel:
    def test_sensor_reads_clock_and_observation(self):
        m = change_detection_model(b0=-0.5)
        states = np.array([[1.0, 0.4], [2.0, 0.8]])
        y = np.array([3.0])
        before = m.h(states, y, 0.2)
        after = m.h(states, y, 0.6)
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
    xs = substream(9).standard_normal((16, 1))
    batched = generator(m, "tanh(x)", xs)
    single = [generator(m, "tanh(x)", xs[i:i + 1])[0] for i in range(16)]
    np.testing.assert_allclose(batched, single, rtol=1e-12)


def per_state_reference(model, x, y, t) -> list[Array]:
    """f~, the diffusion, the jump of each atom, and A, D and D at h = 0 (that
    is B) of the default battery, state by state in the closed form of each
    kind with the matrix products written out (sigma (d, p), sigma_bar (d, m),
    sigma_tilde (d, r) acting on columns). With t = tanh x_i and s = 1 - t^2:
    A 1 = 0, A x_i = f~_i, A x_i x_j = f~_i x_j + f~_j x_i + (diffusion_ij +
    sum lam delta_i delta_j), A tanh x_i = f~_i s - diffusion_ii t s + s sum lam
    (c / (1 + t c) - delta_i) with c = tanh delta_i, the atoms in order; D = h phi + B,
    B added only for a nonzero sigma_bar: row i of sigma_bar times 1 or s,
    or x_j (row i) + x_i (row j)."""
    battery = Battery.default(model.dim_x)
    sbar = model.sigma_bar if model.sigma_bar.any() else None
    diffusion = model.sigma @ model.sigma.T + model.sigma_bar @ model.sigma_bar.T
    jumps = [(lam, model.sigma_tilde @ eta) for eta, lam in zip(model.levy.locs, model.levy.rates)] \
        if model.has_jumps else []
    rate = diffusion + sum(lam * np.outer(delta, delta) for lam, delta in jumps)
    f_tilde, gen, dphi, corr = [], [], [], []
    for row in x:
        state = row[None]
        ft = model.f(state)[0]
        if model.has_jumps:   # not + 0.0 without jumps, which would turn -0.0 into 0.0
            ft = ft + model.sigma_tilde @ model.levy.drift_b
        phi = battery.values(state)[:, 0]
        a, b = [], []
        for (kind, i, j), p in zip(battery._terms, phi):
            xi, xj = state[:, i], state[:, j]
            if kind == "1":
                a.append(0.0)
                b.append(None)
            elif kind == "x":
                a.append(ft[i])
                b.append(None if sbar is None else sbar[i])
            elif kind == "xx":
                a.append(ft[i] * xj[0] + ft[j] * xi[0] + rate[i, j])
                b.append(None if sbar is None else xj * sbar[i] + xi * sbar[j])
            else:
                s = 1.0 - p * p
                gen_tanh = ft[i] * s - diffusion[i, i] * p * s
                if jumps:
                    gen_tanh = gen_tanh + s * sum(lam * (np.tanh(delta[i]) / (1.0 + p * np.tanh(delta[i])) - delta[i])
                                                  for lam, delta in jumps)
                a.append(gen_tanh)
                b.append(None if sbar is None else s * sbar[i])
        h = model.h(state, y, t)[0]
        for out, sensor in ((dphi, h), (corr, np.zeros(model.dim_y))):
            out.append(np.stack([sensor * p if bk is None else sensor * p + bk
                                 for p, bk in zip(phi, b)]))
        f_tilde.append(ft)
        gen.append(np.array(a, dtype=float))
    return ([np.array(f_tilde), diffusion] + [delta for _, delta in jumps]
            + [np.stack(gen, axis=1), np.stack(dphi, axis=-1), np.stack(corr, axis=-1)])


def generic_reference(model, x, y, t) -> list[Array]:
    """A, D and D at h = 0 of the default battery, state by state, from the
    generic formulas with each test function's gradient and Hessian written
    out: A = f~ . grad + 1/2 tr[diffusion hess] + sum lam (phi(x + delta) -
    phi - grad . delta), D = h phi + sigma_bar^T grad."""
    battery = Battery.default(model.dim_x)
    d = model.dim_x
    diffusion = model.sigma @ model.sigma.T + model.sigma_bar @ model.sigma_bar.T
    jumps = [(lam, model.sigma_tilde @ eta) for eta, lam in zip(model.levy.locs, model.levy.rates)] \
        if model.has_jumps else []
    gen, dphi, corr = [], [], []
    for row in x:
        state = row[None]
        phi = battery.values(state)[:, 0]
        grad, hess = np.zeros((len(phi), d)), np.zeros((len(phi), d, d))
        for (kind, i, j), g, hs in zip(battery._terms, grad, hess):
            if kind == "x":
                g[i] = 1.0
            elif kind == "xx":
                g[i] += row[j]
                g[j] += row[i]
                hs[i, j] += 1.0
                hs[j, i] += 1.0
            elif kind == "tanh":
                th = np.tanh(row[i])
                g[i] = 1.0 - th * th
                hs[i, i] = -2.0 * th * (1.0 - th * th)
        a = grad @ model.f_tilde(state)[0] + 0.5 * np.trace(diffusion @ hess, axis1=1, axis2=2)
        a = a + sum(lam * (battery.values(state + delta)[:, 0] - phi - grad @ delta) for lam, delta in jumps)
        b = grad @ model.sigma_bar
        gen.append(a)
        dphi.append(model.h(state, y, t)[0] * phi[:, None] + b)
        corr.append(b)
    return [np.stack(gen, axis=1), np.stack(dphi, axis=-1), np.stack(corr, axis=-1)]


def constant_and_reference(model) -> list[tuple[Array, Array, Array]]:
    """(model path, closed-form per-state reference, generic reference) of f~,
    the diffusion, each jump, and A, D and D at h = 0 of the default battery
    on states with signed zeros; the generic reference covers only the last
    three."""
    d = model.dim_x
    x = np.concatenate([3.0 * substream(4).standard_normal((64, d)), np.zeros((1, d)), np.full((1, d), -0.0)])
    y, t = np.full(1, 0.7), 0.5
    battery = Battery.default(d)
    got = [model.f_tilde(x), model.diffusion] + [disp for _, disp in model.jumps]
    got += list(battery.operators(model, x, model.h(x, y, t), battery.values(x)))
    got.append(battery.operators(model, x, np.zeros((x.shape[0], model.dim_y)), battery.values(x))[1])
    expected = per_state_reference(model, x, y, t)
    generic = [None] * (len(expected) - 3) + generic_reference(model, x, y, t)
    assert len(got) == len(expected)
    return list(zip(got, expected, generic))


@pytest.mark.parametrize("name", ["jump_ou", "correlated_linear"])
def test_constant_coefficients_give_the_bytes_of_batched_ones(name):
    # one product per entry on a scalar state, so the bytes, signed zeros included, are those of the closed-form
    # reference; the generic gradient and Hessian formula agrees to rounding
    for got, expected, generic in constant_and_reference(make_model(name)):
        assert np.broadcast_to(got, expected.shape).tobytes() == expected.tobytes()
        if generic is not None:
            np.testing.assert_allclose(got, generic, rtol=1e-13, atol=1e-13)


def test_constant_matrices_enter_the_operators_untransposed():
    # jumping_plane's matrices are not square and symmetric, so a transposed one would show; BLAS may fuse the
    # multiply-adds of a product of d > 1 terms, so this compares to rounding
    for got, expected, generic in constant_and_reference(jumping_plane()):
        for reference in (expected, generic):
            if reference is not None:
                np.testing.assert_allclose(got, reference, rtol=1e-13, atol=1e-13)
