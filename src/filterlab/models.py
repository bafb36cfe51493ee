"""Signal/observation models, the associated generator, and test functions.

The signal is a d-dimensional jump-diffusion

    dX = f(X-) dt + sigma(X-) dV + sigma_bar(X-) dW + sigma_tilde(X-) dL

observed through

    dY = h(X, Y, t) dt + dW,    Y_0 = 0,

where V is a p-dimensional Brownian motion, W the m-dimensional observation
noise (shared with the signal through sigma_bar: the "correlated" case) and
L an R^r-valued finite-activity Levy process written as drift plus
compensated compound-Poisson jumps.

Coefficient callables are batched: they accept an (n, d) array of states and
return per-state values ((n, d), (n, d, p), ... as appropriate). h takes
(states, y, t) so that observation-feedback sensors (the change-detection
problem) fit the same interface; y is either one shared observation (m,) or
per-path observations (n, m), and h implementations broadcast over both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class ModelError(ValueError):
    """Raised for structurally invalid models or operator arguments."""


# ---------------------------------------------------------------------------
# Levy driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LevySpec:
    """Finite-activity Levy driver: drift plus compound-Poisson jumps whose
    Levy measure F puts rate `rates[i]` on the atom `locs[i]` (locs (k, r),
    rates (k,)), so expectations against F are exact atom sums. Build one
    with levy_atoms, which validates the atoms.

    `drift_a` is the `a` of the Levy-Ito form; the simulation drift is
    b = a - int_{|rho|>=1} rho F(drho), with that integral `mean_large`.
    `second_moment` is int rho rho^T F(drho).
    """

    locs: Array
    rates: Array
    drift_a: Array

    @property
    def dim(self) -> int:
        return self.locs.shape[1]

    @cached_property
    def jump_rate(self) -> float:
        """Total mass of F."""
        return float(self.rates.sum())

    @cached_property
    def mean_large(self) -> Array:
        big = np.linalg.norm(self.locs, axis=1) >= 1.0
        return (self.rates[big, None] * self.locs[big]).sum(axis=0)

    @cached_property
    def second_moment(self) -> Array:
        return np.einsum("k,ki,kj->ij", self.rates, self.locs, self.locs)

    @cached_property
    def mark_probs(self) -> Array:
        """The normalised jump law F / jump_rate on the atoms."""
        return self.rates / self.rates.sum() if self.rates.sum() > 0 else self.rates

    @cached_property
    def mean_mark(self) -> Array:
        """Mean of the normalised jump law, int rho F(drho) / jump_rate."""
        return (self.rates[:, None] * self.locs).sum(axis=0) / max(self.jump_rate, 1e-300)

    @property
    def drift_b(self) -> Array:
        """Drift of the compensated Levy-Ito form: b = a - int_{|rho|>=1} rho F."""
        return self.drift_a - self.mean_large

    def sample_marks(self, rng: np.random.Generator, k: int) -> Array:
        """k marks drawn from the normalised jump law."""
        if k == 0:
            return np.zeros((0, self.dim))
        return self.locs[rng.choice(len(self.rates), size=k, p=self.mark_probs)]


def levy_atoms(locations, rates, drift_a=None) -> LevySpec:
    """Compound-Poisson LevySpec from discrete atoms."""
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    if locs.shape[0] == 1 and locs.shape[1] > 1 and np.ndim(locations) == 1:
        locs = locs.T
    rates = np.asarray(rates, dtype=float)
    dim = locs.shape[1]
    if rates.shape != (locs.shape[0],):
        raise ModelError("atom locations must be (k, dim)")
    if np.any(rates < 0):
        raise ModelError("atom rates must be >= 0")
    if np.any(np.all(locs == 0.0, axis=1) & (rates > 0)):
        raise ModelError("Levy measure must put no mass at the origin")
    drift_a = np.zeros(dim) if drift_a is None else np.asarray(drift_a, dtype=float).reshape(dim)
    return LevySpec(locs=locs, rates=rates, drift_a=drift_a)


# ---------------------------------------------------------------------------
# Signal model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignalModel:
    """Coefficients, dimensions, noise structure and initial law of the pair
    (signal, observation); see module docstring for the dynamics."""

    name: str
    dim_x: int
    dim_v: int
    dim_y: int
    f: Callable[[Array], Array]
    sigma: Callable[[Array], Array]
    sigma_bar: Callable[[Array], Array]
    h: Callable[[Array, Array, float], Array]
    initial_law: Callable[[np.random.Generator, int], Array]
    levy: Optional[LevySpec] = None
    sigma_tilde: Optional[Callable[[Array], Array]] = None
    gronwall_rate: Optional[float] = None
    initial_mean: Optional[Array] = None      # analytic prior moments, when known
    initial_cov: Optional[Array] = None
    change_prior: Optional[ChangePrior] = None   # set by the change-detection problem

    @property
    def has_jumps(self) -> bool:
        """Whether the signal carries the sigma_tilde dL term."""
        return self.levy is not None and self.sigma_tilde is not None

    def f_tilde(self, x: Array) -> Array:
        """Effective drift f + sigma_tilde @ b once jumps are compensated."""
        out = self.f(x)
        if self.has_jumps:
            out = out + self.sigma_tilde(x) @ self.levy.drift_b
        return out

    def h_now(self, x: Array, y: Array, t: float) -> Array:
        return self.h(x, np.asarray(y, dtype=float), float(t))


@dataclass(frozen=True, eq=False)
class ConstCoeff:
    """Coefficient callable returning a constant matrix broadcast over states;
    the simulators multiply increments by `matrix` itself."""

    matrix: Array

    def __call__(self, x: Array) -> Array:
        return np.broadcast_to(self.matrix, (x.shape[0],) + self.matrix.shape)


def const_coeff(matrix) -> ConstCoeff:
    return ConstCoeff(np.asarray(matrix, dtype=float))


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Scalar function of the state x with analytic derivatives.

    All callables are batched over the n states: value -> (n,),
    grad_x -> (n, d), hess_x -> (n, d, d). Derivatives are analytic by
    contract; the tests compare them with central finite differences.
    """

    label: str
    value: Callable[[Array], Array]
    grad_x: Callable[[Array], Array]
    hess_x: Callable[[Array], Array]


def _batch(x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


def phi_const(d: int = 1) -> TestFunction:
    """phi(x) = 1."""
    return TestFunction(
        label="1",
        value=lambda x: np.full(x.shape[0], 1.0),
        grad_x=lambda x: np.zeros((x.shape[0], d)),
        hess_x=lambda x: np.zeros((x.shape[0], d, d)),
    )


def phi_coord(i: int = 0, d: int = 1) -> TestFunction:
    """phi(x) = x_i."""

    def grad(x):
        g = np.zeros((x.shape[0], d))
        g[:, i] = 1.0
        return g

    return TestFunction(
        label=f"x{i}" if d > 1 else "x",
        value=lambda x: x[:, i],
        grad_x=grad,
        hess_x=lambda x: np.zeros((x.shape[0], d, d)),
    )


def phi_quad(i: int = 0, j: int = 0, d: int = 1) -> TestFunction:
    """phi(x) = x_i * x_j."""

    def grad(x):
        g = np.zeros((x.shape[0], d))
        g[:, i] += x[:, j]
        g[:, j] += x[:, i]
        return g

    def hess(x):
        hmat = np.zeros((x.shape[0], d, d))
        hmat[:, i, j] += 1.0
        hmat[:, j, i] += 1.0
        return hmat

    label = f"x{i}*x{j}" if d > 1 else ("x^2" if i == j else f"x{i}*x{j}")
    return TestFunction(label=label, value=lambda x: x[:, i] * x[:, j], grad_x=grad, hess_x=hess)


def phi_tanh(i: int = 0, d: int = 1) -> TestFunction:
    """phi(x) = tanh(x_i)."""

    def grad(x):
        g = np.zeros((x.shape[0], d))
        g[:, i] = 1.0 / np.cosh(x[:, i]) ** 2
        return g

    def hess(x):
        hmat = np.zeros((x.shape[0], d, d))
        t = np.tanh(x[:, i])
        hmat[:, i, i] = -2.0 * t * (1.0 - t * t)
        return hmat

    return TestFunction(
        label=f"tanh(x{i})" if d > 1 else "tanh(x)",
        value=lambda x: np.tanh(x[:, i]),
        grad_x=grad,
        hess_x=hess,
    )


def phi_battery(d: int = 1) -> list[TestFunction]:
    """The default battery {1, x_i, x_i x_j, tanh(x_i)}."""
    phis = [phi_const(d)]
    phis += [phi_coord(i, d) for i in range(d)]
    phis += [phi_quad(i, j, d) for i in range(d) for j in range(i, d)]
    phis += [phi_tanh(i, d) for i in range(d)]
    return phis


def phi_by_label(label: str, d: int = 1) -> TestFunction:
    """Rebuild a battery member from its label (worker processes cannot
    unpickle the closures, so they reconstruct by name)."""

    def coord(text: str) -> int:
        i = int(text)
        if not 0 <= i < d:
            raise ModelError(f"test-function label {label!r} names coordinate {i} of a {d}-dimensional state")
        return i

    if label == "1":
        return phi_const(d)
    if label == "x":
        return phi_coord(0, d)
    if label == "x^2":
        return phi_quad(0, 0, d)
    if label == "tanh(x)":
        return phi_tanh(0, d)
    if label.startswith("tanh(x") and label.endswith(")"):
        return phi_tanh(coord(label[6:-1]), d)
    if "*" in label:
        left, right = label.split("*")
        return phi_quad(coord(left[1:]), coord(right[1:]), d)
    if label.startswith("x"):
        return phi_coord(coord(label[1:]), d)
    raise ModelError(f"unknown test-function label {label!r}")


# ---------------------------------------------------------------------------
# Generator and correlation operators
# ---------------------------------------------------------------------------


class StepCoefficients:
    """The coefficients that every test function shares at one step, on an
    (n, d) batch of states: f~(x), sigma sigma^T + sigma_bar sigma_bar^T,
    sigma_bar(x), h(x, y, t) and the rate and jump sigma_tilde(x) eta of each
    atom of the Levy measure. Each is evaluated on first use, at most once.
    """

    def __init__(self, model: SignalModel, states: Array, y: Array, t: float = 0.0):
        self.model = model
        self.x = _batch(states)
        self.y = np.asarray(y, dtype=float)
        self.t = t

    @cached_property
    def f_tilde(self) -> Array:
        return self.model.f_tilde(self.x)

    @cached_property
    def sigma_bar(self) -> Array:
        return self.model.sigma_bar(self.x)

    @cached_property
    def diffusion(self) -> Array:
        sig, sbar = self.model.sigma(self.x), self.sigma_bar
        return np.einsum("nip,njp->nij", sig, sig) + np.einsum("nim,njm->nij", sbar, sbar)

    @cached_property
    def h(self) -> Array:
        return self.model.h_now(self.x, self.y, self.t)

    @cached_property
    def jumps(self) -> list[tuple[float, Array]]:
        stil = self.model.sigma_tilde(self.x)
        return [(lam, stil @ eta) for eta, lam in zip(self.model.levy.locs, self.model.levy.rates)]


class PhiAtStep:
    """One test function on the states of a StepCoefficients: its value and
    gradients, each evaluated at most once, and the operators

      A phi = f~ . grad_x phi
            + 1/2 tr[(sigma sigma^T + sigma_bar sigma_bar^T) hess_x phi]
            + int [phi(x + sigma_tilde(x) eta) - phi - grad_x phi . sigma_tilde(x) eta] F(deta),
      B^j phi = (sigma_bar^T grad_x phi)_j,
      D_j phi = h^j phi + B^j phi.
    """

    def __init__(self, phi: TestFunction, coeffs: StepCoefficients):
        self.phi = phi
        self.c = coeffs

    @cached_property
    def value(self) -> Array:
        return self.phi.value(self.c.x)

    @cached_property
    def grad(self) -> Array:
        return self.phi.grad_x(self.c.x)

    def jump(self, disp: Array) -> Array:
        """phi(x + disp) - phi(x) - grad_x phi . disp, the jump integrand of A phi."""
        return self.phi.value(self.c.x + disp) - self.value - np.einsum("ni,ni->n", self.grad, disp)

    def generator(self) -> Array:
        """A phi, shape (n,); the jump expectation is an exact sum over the
        atoms of the Levy measure."""
        c, phi, model = self.c, self.phi, self.c.model
        out = np.einsum("ni,ni->n", c.f_tilde, self.grad)
        out = out + 0.5 * np.einsum("nij,nij->n", c.diffusion, phi.hess_x(c.x))
        if model.has_jumps and model.levy.jump_rate > 0:
            jump = np.zeros(c.x.shape[0])
            for lam, disp in c.jumps:
                jump += lam * self.jump(disp)
            out = out + jump
        if not np.all(np.isfinite(out)):
            raise ModelError(f"generator of {phi.label!r} is non-finite")
        return out

    @cached_property
    def correlation(self) -> Array:
        """All m correlation terms B^j phi, shape (n, m)."""
        return np.einsum("nim,ni->nm", self.c.sigma_bar, self.grad)

    def dphi(self) -> Array:
        """All m terms D_j phi, shape (n, m): the integrand of the dY term in
        the unnormalised filtering equation (h multiplies phi only)."""
        return self.c.h * self.value[:, None] + self.correlation


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def gaussian_initial(mean, cov) -> Callable[[np.random.Generator, int], Array]:
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    # eigh factor instead of Cholesky so degenerate (point-mass) covariances work
    vals, vecs = np.linalg.eigh(cov)
    if np.any(vals < -1e-12):
        raise ModelError("initial covariance must be positive semidefinite")
    factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))

    def sample(rng: np.random.Generator, n: int) -> Array:
        return mean[None, :] + rng.standard_normal((n, mean.size)) @ factor.T

    return sample


def point_mass_initial(value) -> Callable[[np.random.Generator, int], Array]:
    v = np.atleast_1d(np.asarray(value, dtype=float))

    def sample(rng: np.random.Generator, n: int) -> Array:
        return np.broadcast_to(v, (n, v.size)).copy()

    return sample


def linear_model(
    name: str = "linear_gaussian",
    a_x: float = -1.0,
    sigma_v: float = 1.0,
    sigma_bar: float = 0.0,
    h_scale: float = 1.0,
    x0_mean: float = 0.0,
    x0_var: float = 0.5,
    levy: Optional[LevySpec] = None,
    sigma_tilde: float = 0.0,
) -> SignalModel:
    """Scalar linear/affine family: dX = a_x X dt + sigma_v dV + sigma_bar dW
    (+ sigma_tilde dL), observed through h(x) = h_scale * x."""
    return SignalModel(
        name=name,
        dim_x=1,
        dim_v=1,
        dim_y=1,
        f=lambda x: a_x * x,
        sigma=const_coeff([[sigma_v]]),
        sigma_bar=const_coeff([[sigma_bar]]),
        sigma_tilde=const_coeff([[sigma_tilde]]) if levy is not None else None,
        h=lambda x, y, t: h_scale * x,
        initial_law=gaussian_initial([x0_mean], [[x0_var]]),
        levy=levy,
        gronwall_rate=_linear_gronwall_rate(a_x, sigma_v, sigma_bar, h_scale, sigma_tilde, levy),
        initial_mean=np.array([x0_mean]),
        initial_cov=np.array([[x0_var]]),
    )


def _linear_gronwall_rate(a_x, sigma_v, sigma_bar, h_scale, sigma_tilde, levy) -> float:
    # |a_t| = |2 a_x x^2 + const| <= c U and |h|^2 = h_scale^2 x^2 <= c U with
    # U = 1 + x^2; N = 2 sigma_bar x gives |N|^2 <= 4 sigma_bar^2 U.
    const = sigma_v**2 + sigma_bar**2
    if levy is not None:
        const += sigma_tilde**2 * float(levy.second_moment.reshape(-1)[0])
    return max(2 * abs(a_x), const, h_scale**2, 4 * sigma_bar**2)


def jump_ou_model() -> SignalModel:
    """Mean-reverting scalar signal with two-sided compound-Poisson jumps."""
    levy = levy_atoms([[-0.5], [0.5]], [1.0, 1.0])
    return linear_model(
        name="jump_ou",
        a_x=-1.0,
        sigma_v=0.5,
        sigma_bar=0.0,
        h_scale=1.0,
        x0_mean=0.0,
        x0_var=0.25,
        levy=levy,
        sigma_tilde=1.0,
    )


@dataclass(frozen=True)
class ChangePrior:
    """Discrete priors of the change-detection problem, for its grid-Bayes oracle."""

    b0: float
    b_values: Array
    b_probs: Array
    tau_values: Array
    tau_probs: Array


def change_detection_model(
    b0: float = -0.5,
    b_values: Optional[Array] = None,
    b_probs: Optional[Array] = None,
    tau_values: Optional[Array] = None,
    tau_probs: Optional[Array] = None,
) -> SignalModel:
    """Change-detection problem: dY = (b0 + B 1_{t >= T}) Y dt + dW.

    The signal state is the static pair (B, T); the sensor reads the current
    observation, h((b, tau), y, t) = (b0 + b 1_{t >= tau}) y. Priors for B
    and T are discrete so that the grid-Bayes oracle is exact.
    """
    if b_values is None:
        b_values = np.linspace(1.0, 2.0, 21)
    if tau_values is None:
        tau_values = np.linspace(0.25, 0.75, 21)
    b_values = np.asarray(b_values, dtype=float)
    tau_values = np.asarray(tau_values, dtype=float)
    b_probs = np.full(b_values.size, 1.0 / b_values.size) if b_probs is None else np.asarray(b_probs, dtype=float)
    tau_probs = (
        np.full(tau_values.size, 1.0 / tau_values.size) if tau_probs is None else np.asarray(tau_probs, dtype=float)
    )

    def sample(rng: np.random.Generator, n: int) -> Array:
        b = rng.choice(b_values, size=n, p=b_probs)
        tau = rng.choice(tau_values, size=n, p=tau_probs)
        return np.column_stack([b, tau])

    def h(x: Array, y: Array, t: float) -> Array:
        drift = b0 + x[:, 0] * (t >= x[:, 1])
        yv = np.asarray(y, dtype=float)
        yv = yv.reshape(-1) if yv.ndim <= 1 else yv[:, 0]   # shared or per-path observation
        return (drift * yv)[:, None]

    zero2 = const_coeff(np.zeros((2, 1)))
    return SignalModel(
        name="change_detection",
        dim_x=2,
        dim_v=1,
        dim_y=1,
        f=lambda x: np.zeros_like(x),
        sigma=zero2,
        sigma_bar=zero2,
        h=h,
        initial_law=sample,
        gronwall_rate=None,
        change_prior=ChangePrior(b0, b_values, b_probs, tau_values, tau_probs),
    )


def change_detection_rate(b0: float, b: float) -> float:
    """Gronwall rate c(b) = 4 + (b0 + b)^2 of the change-detection problem."""
    return 4.0 + (b0 + b) ** 2


BUILTIN_MODELS: dict[str, Callable[[], SignalModel]] = {
    "linear_gaussian": lambda: linear_model("linear_gaussian"),
    "correlated_linear": lambda: linear_model("correlated_linear", sigma_bar=0.5),
    "jump_ou": jump_ou_model,
    "change_detection": change_detection_model,
}


def make_model(name: str, **overrides) -> SignalModel:
    if name in BUILTIN_MODELS and not overrides:
        return BUILTIN_MODELS[name]()
    if name in ("linear", "linear_gaussian", "correlated_linear"):
        defaults = {"name": name}
        if name == "correlated_linear":
            defaults["sigma_bar"] = 0.5
        defaults.update(overrides)
        return linear_model(**defaults)
    if name == "change_detection":
        return change_detection_model(**overrides)
    if name == "jump_ou":
        raise ModelError(f"model 'jump_ou' takes no parameters; got {', '.join(map(repr, sorted(overrides)))}")
    raise ModelError(f"unknown model {name!r}")
