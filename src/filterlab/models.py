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
    """Raised for structurally invalid models or operator arguments; `key`,
    when given, names the model parameter at fault."""

    def __init__(self, message: str, key: Optional[str] = None):
        super().__init__(message)
        self.key = key


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
    def mark_cdf(self) -> Array:
        """The distribution function of the normalised jump law F / jump_rate
        over the atoms, scaled so that its last entry is 1, as rng.choice
        builds it from p."""
        cdf = np.cumsum(self.rates / self.rates.sum())
        return cdf / cdf[-1]

    @cached_property
    def mean_mark(self) -> Array:
        """Mean of the normalised jump law, int rho F(drho) / jump_rate."""
        return (self.rates[:, None] * self.locs).sum(axis=0) / max(self.jump_rate, 1e-300)

    @property
    def drift_b(self) -> Array:
        """Drift of the compensated Levy-Ito form: b = a - int_{|rho|>=1} rho F."""
        return self.drift_a - self.mean_large

    def sample_marks(self, rng: np.random.Generator, k: int) -> Array:
        """k marks drawn from the normalised jump law by inverse CDF: the
        draws, and the generator state after them, of rng.choice(len(rates),
        size=k, p=rates / jump_rate), without its per-call checks of p."""
        if k == 0:
            return np.zeros((0, self.dim))
        return self.locs[self.mark_cdf.searchsorted(rng.random(k), side="right")]


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

    @cached_property
    def zero(self) -> bool:   # every entry 0: the term moves nothing
        return not self.matrix.any()


def const_coeff(matrix) -> ConstCoeff:
    return ConstCoeff(np.asarray(matrix, dtype=float))


# ---------------------------------------------------------------------------
# Test functions and the operators of the filtering equations
# ---------------------------------------------------------------------------


class StepCoefficients:
    """The coefficients that every test function shares at one step, on an
    (n, d) batch of states: f~(x), sigma sigma^T + sigma_bar sigma_bar^T,
    sigma_bar(x), h(x, y, t) and the rate and jump sigma_tilde(x) eta of each
    atom of the Levy measure. Each is evaluated on first use, at most once.
    """

    def __init__(self, model: SignalModel, states: Array, y: Array, t: float = 0.0):
        self.model = model
        self.x = np.atleast_2d(np.asarray(states, dtype=float))
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


def _label_terms(d: int) -> dict[str, tuple[str, int, int]]:
    """The default battery on R^d in its order: label -> (kind, i, j)."""
    x = (lambda i: "x") if d == 1 else (lambda i: f"x{i}")
    terms = {"1": ("1", 0, 0)}
    terms.update({x(i): ("x", i, i) for i in range(d)})
    terms.update({"x^2" if d == 1 else f"x{i}*x{j}": ("xx", i, j) for i in range(d) for j in range(i, d)})
    terms.update({f"tanh({x(i)})": ("tanh", i, i) for i in range(d)})
    return terms


@dataclass(frozen=True)
class Battery:
    """An ordered selection of the test functions {1, x_i, x_i x_j (i <= j),
    tanh(x_i)} on R^d, evaluated as one matrix: values (K, n), gradients
    (K, n, d) and Hessians (K, n, d, d) for K labels on (n, d) states.

    The labels are those of Battery.default(d), each at most once: "1", "x",
    "x^2" and "tanh(x)" when d = 1; "1", "x<i>", "x<i>*x<j>" with i <= j and
    "tanh(x<i>)", coordinates counted from 0, otherwise. Derivatives are
    analytic; the tests compare them with central finite differences.
    """

    labels: tuple[str, ...]
    d: int

    def __post_init__(self):
        known = _label_terms(self.d)
        for pos, label in enumerate(self.labels):
            if label not in known:
                raise ModelError(f"unknown test-function label {label!r}; a {self.d}-dimensional state takes "
                                 f"{', '.join(known)}")
            if label in self.labels[:pos]:
                raise ModelError(f"test-function label {label!r} is given twice")

    @classmethod
    def default(cls, d: int) -> "Battery":
        return cls(tuple(_label_terms(d)), d)

    @cached_property
    def _terms(self) -> list[tuple[str, int, int]]:
        """(kind, i, j) of each column; the kinds are 1, x, xx and tanh."""
        return [_label_terms(self.d)[label] for label in self.labels]

    def values(self, x: Array, out: Optional[Array] = None) -> Array:
        out = np.empty((len(self.labels), x.shape[0])) if out is None else out
        for row, (kind, i, j) in zip(out, self._terms):
            if kind == "1":
                row[...] = 1.0
            elif kind == "x":
                row[...] = x[:, i]
            elif kind == "xx":
                np.multiply(x[:, i], x[:, j], out=row)
            else:
                np.tanh(x[:, i], out=row)
        return out

    def gradients(self, x: Array) -> Array:
        out = np.zeros((len(self.labels),) + x.shape)
        for g, (kind, i, j) in zip(out, self._terms):
            if kind == "x":
                g[:, i] = 1.0
            elif kind == "xx":
                g[:, i] += x[:, j]
                g[:, j] += x[:, i]
            elif kind == "tanh":
                g[:, i] = 1.0 / np.cosh(x[:, i]) ** 2
        return out

    def hessians(self, x: Array) -> Array:
        out = np.zeros((len(self.labels),) + x.shape + (self.d,))
        for hess, (kind, i, j) in zip(out, self._terms):
            if kind == "xx":
                hess[:, i, j] += 1.0
                hess[:, j, i] += 1.0
            elif kind == "tanh":
                t = np.tanh(x[:, i])
                hess[:, i, i] = -2.0 * t * (1.0 - t * t)
        return out

    def operators(self, c: StepCoefficients, values: Array) -> tuple[Array, Array, Array]:
        """A phi (K, n), B^j phi (K, n, m) and D_j phi (K, n, m) of every
        column on the states of c, whose values are `values`:

          A phi = f~ . grad_x phi
                + 1/2 tr[(sigma sigma^T + sigma_bar sigma_bar^T) hess_x phi]
                + int [phi(x + sigma_tilde(x) eta) - phi - grad_x phi . sigma_tilde(x) eta] F(deta),
          B^j phi = (sigma_bar^T grad_x phi)_j,
          D_j phi = h^j phi + B^j phi,

        the jump expectation an exact sum over the atoms of the Levy measure
        and D the integrand of the dY term of the unnormalised equation.
        """
        grad = self.gradients(c.x)
        gen = np.einsum("ni,kni->kn", c.f_tilde, grad)
        gen = gen + 0.5 * np.einsum("nij,knij->kn", c.diffusion, self.hessians(c.x))
        if c.model.has_jumps and c.model.levy.jump_rate > 0:
            jump = np.zeros(gen.shape)
            for lam, disp in c.jumps:
                jump += lam * (self.values(c.x + disp) - values - np.einsum("kni,ni->kn", grad, disp))
            gen = gen + jump
        finite = np.isfinite(gen).all(axis=1)
        if not finite.all():
            bad = [label for label, ok in zip(self.labels, finite) if not ok]
            raise ModelError(f"generator of {', '.join(map(repr, bad))} is non-finite")
        corr = np.einsum("nim,kni->knm", c.sigma_bar, grad)
        return gen, corr, c.h * values[..., None] + corr


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def gaussian_initial(mean, cov, key: Optional[str] = None) -> Callable[[np.random.Generator, int], Array]:
    """Sampler of N(mean, cov); a cov that is not positive semidefinite raises
    a ModelError naming the model parameter `key`."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    # eigh factor instead of Cholesky so degenerate (point-mass) covariances work
    vals, vecs = np.linalg.eigh(cov)
    if np.any(vals < -1e-12):
        raise ModelError("initial covariance must be positive semidefinite", key)
    factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))

    def sample(rng: np.random.Generator, n: int) -> Array:
        return mean[None, :] + rng.standard_normal((n, mean.size)) @ factor.T

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
        initial_law=gaussian_initial([x0_mean], [[x0_var]], "x0_var"),
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
    b_values, b_probs = _discrete_prior("b", np.linspace(1.0, 2.0, 21) if b_values is None else b_values, b_probs)
    tau_values, tau_probs = _discrete_prior("tau", np.linspace(0.25, 0.75, 21) if tau_values is None else tau_values,
                                            tau_probs)

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


def _discrete_prior(name: str, values, probs) -> tuple[Array, Array]:
    """The values of the prior of `name` and their probabilities, uniform if
    probs is None. A ModelError names `{name}_values` when there are none,
    and `{name}_probs` unless the probabilities are >= 0, one per value, and
    sum to 1."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise ModelError(f"the prior of {name} needs at least one value", f"{name}_values")
    probs = np.full(values.size, 1.0 / values.size) if probs is None else np.asarray(probs, dtype=float)
    if probs.shape != values.shape or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ModelError(f"{probs.tolist()} are not {values.size} probabilities >= 0 summing to 1", f"{name}_probs")
    return values, probs


def change_indicator(states: Array, t: float) -> Array:
    """1{T <= t} on change-detection states (b, tau); its posterior mean is P(T <= t | Y)."""
    return (states[:, 1] <= t).astype(float)


def change_detection_rate(b0: float, b: float) -> float:
    """Gronwall rate c(b) = 4 + (b0 + b)^2 of the change-detection problem."""
    return 4.0 + (b0 + b) ** 2


def make_model(name: str, **overrides) -> SignalModel:
    """The built-in model `name` with its defaults, each of which a keyword
    override replaces; jump_ou takes none. "linear" is the linear_gaussian
    family under its own name."""
    if name in ("linear", "linear_gaussian"):
        return linear_model(name, **overrides)
    if name == "correlated_linear":
        return linear_model(name, **dict({"sigma_bar": 0.5}, **overrides))
    if name == "change_detection":
        return change_detection_model(**overrides)
    if name == "jump_ou":
        if overrides:
            raise ModelError(f"model 'jump_ou' takes no parameters; got {', '.join(map(repr, sorted(overrides)))}")
        # mean-reverting scalar signal with two-sided compound-Poisson jumps
        return linear_model(name, sigma_v=0.5, x0_var=0.25, levy=levy_atoms([[-0.5], [0.5]], [1.0, 1.0]),
                            sigma_tilde=1.0)
    raise ModelError(f"unknown model {name!r}")
