"""Signal/observation models, the associated generator, and test functions.

The signal is a d-dimensional jump-diffusion

    dX = f(X-) dt + sigma dV + sigma_bar dW + sigma_tilde dL

observed through

    dY = h(X, Y, t) dt + dW,    Y_0 = 0,

where V is a p-dimensional Brownian motion, W the m-dimensional observation
noise (shared with the signal through sigma_bar: the "correlated" case) and
L an R^r-valued finite-activity Levy process written as drift plus
compensated compound-Poisson jumps.

The noise coefficients are constant matrices. The state enters through f and
h, which are batched: they accept an (n, d) array of states and return one
row per state. h takes (states, y, t) so that observation-feedback sensors
(the change-detection problem) fit the same interface; y is either one shared
observation (m,) or per-path observations (n, m), and h implementations
broadcast over both.
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

    @cached_property
    def drift_b(self) -> Array:
        """Drift of the compensated Levy-Ito form: b = a - int_{|rho|>=1} rho F."""
        return self.drift_a - self.mean_large

    def compensated_drift(self, dt: float) -> Array:
        """b dt - jump_rate * mean_mark * dt: the increment of L over dt when no jump fires."""
        return self.drift_b * dt - self.jump_rate * self.mean_mark * dt

    def sample_marks(self, rng: np.random.Generator, k: int) -> Array:
        """k marks drawn from the normalised jump law by inverse CDF: the
        draws, and the generator state after them, of rng.choice(len(rates),
        size=k, p=rates / jump_rate), without its per-call checks of p."""
        if k == 0:
            return self.locs[:0]
        return self.locs[self.mark_cdf.searchsorted(rng.random(k), side="right")]


def levy_atoms(locations, rates, drift_a=None) -> LevySpec:
    """Compound-Poisson LevySpec from discrete atoms."""
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
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


@dataclass(frozen=True, eq=False)
class SignalModel:
    """Coefficients, noise structure and initial law of the pair (signal,
    observation); see module docstring for the dynamics. sigma (d, p),
    sigma_bar (d, m) and, with a Levy driver, sigma_tilde (d, r) are float64
    matrices, which fix the dimensions and, cached once per model, the terms
    that hold for every state. A matrix times increments v is np.dot(v, M.T)."""

    name: str
    f: Callable[[Array], Array]
    sigma: Array
    sigma_bar: Array
    h: Callable[[Array, Array, float], Array]
    initial_law: Callable[[np.random.Generator, int], Array]
    levy: Optional[LevySpec] = None
    sigma_tilde: Optional[Array] = None
    gronwall_rate: Optional[float] = None
    # (a_x, sigma_v, sigma_bar, h_scale, x0_mean, x0_var) of verify.kalman_bucy_oracle, where it is exact
    kalman_inputs: Optional[tuple[float, ...]] = None
    change_prior: Optional[ChangePrior] = None   # set by the change-detection problem

    @property
    def dim_x(self) -> int:
        return self.sigma.shape[0]

    @property
    def dim_v(self) -> int:
        return self.sigma.shape[1]

    @property
    def dim_y(self) -> int:
        return self.sigma_bar.shape[1]

    @property
    def has_jumps(self) -> bool:
        """Whether the signal carries the sigma_tilde dL term."""
        return self.levy is not None and self.sigma_tilde is not None

    @cached_property
    def noise_factors(self) -> tuple[Optional[Array], Optional[Array], Optional[Array]]:
        """sigma^T, sigma_bar^T and sigma_tilde^T, the right factors of the
        increments dV, dW and dL, each None where the matrix is absent or
        zero: a term that moves nothing is left out, not added as +0.0."""
        return tuple(None if m is None or not m.any() else m.T for m in (self.sigma, self.sigma_bar, self.sigma_tilde))

    @cached_property
    def diffusion(self) -> Array:
        """sigma sigma^T + sigma_bar sigma_bar^T, (d, d)."""
        return (np.einsum("...ip,...jp->...ij", self.sigma, self.sigma)
                + np.einsum("...im,...jm->...ij", self.sigma_bar, self.sigma_bar))

    @cached_property
    def jumps(self) -> list[tuple[float, Array]]:
        """The rate and the jump sigma_tilde eta (d,) of each atom of the Levy measure."""
        return [(lam, np.dot(eta, self.sigma_tilde.T)) for eta, lam in zip(self.levy.locs, self.levy.rates)]

    @cached_property
    def jump_drift(self) -> Optional[Array]:
        """sigma_tilde b, the drift of the compensated jumps; None without jumps."""
        return np.dot(self.levy.drift_b, self.sigma_tilde.T) if self.has_jumps else None

    def f_tilde(self, x: Array) -> Array:
        """Effective drift f + sigma_tilde @ b once jumps are compensated."""
        out = self.f(x)
        return out if self.jump_drift is None else out + self.jump_drift


# ---------------------------------------------------------------------------
# Test functions and the operators of the filtering equations
# ---------------------------------------------------------------------------


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

    def operators(self, model: SignalModel, x: Array, h: Array, values: Array) -> tuple[Array, Array]:
        """A phi (K, n) and D_j phi (K, n, m) of every column on the (n, d)
        states x, whose values are `values`, with h (n, m) the model's sensor
        on them at their observation and time:

          A phi = f~ . grad_x phi
                + 1/2 tr[(sigma sigma^T + sigma_bar sigma_bar^T) hess_x phi]
                + int [phi(x + sigma_tilde eta) - phi - grad_x phi . sigma_tilde eta] F(deta),
          D_j phi = h^j phi + B^j phi,   B^j phi = (sigma_bar^T grad_x phi)_j,

        the jump expectation an exact sum over the atoms of the Levy measure
        and D the integrand of the dY term of both filtering equations; the
        correlation operator B alone is D at h = 0.
        """
        grad = self.gradients(x)
        gen = np.einsum("ni,kni->kn", model.f_tilde(x), grad)
        term = np.einsum("...ij,k...ij->k...", model.diffusion, self.hessians(x))
        gen += np.multiply(term, 0.5, out=term)   # in place: one (K, n) buffer serves every term
        if model.has_jumps and model.levy.jump_rate > 0:
            jump = np.zeros(gen.shape)
            for lam, disp in model.jumps:   # lam * (phi(x + disp) - phi - grad . disp)
                np.subtract(self.values(x + disp, out=term), values, out=term)
                term -= np.einsum("k...i,...i->k...", grad, disp)
                jump += np.multiply(term, lam, out=term)
            gen += jump
        finite = np.isfinite(gen).all(axis=1)
        if not finite.all():
            bad = [label for label, ok in zip(self.labels, finite) if not ok]
            raise ModelError(f"generator of {', '.join(map(repr, bad))} is non-finite")
        dphi = np.einsum("...im,k...i->k...m", model.sigma_bar, grad)
        dphi += h * values[..., None]
        return gen, dphi


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
    (+ sigma_tilde dL), observed through h(x) = h_scale * x. Without jumps
    the Kalman-Bucy filter is exact, and kalman_inputs holds its inputs."""
    return SignalModel(
        name=name,
        f=lambda x: a_x * x,
        sigma=np.array([[sigma_v]], dtype=float),
        sigma_bar=np.array([[sigma_bar]], dtype=float),
        sigma_tilde=np.array([[sigma_tilde]], dtype=float) if levy is not None else None,
        h=lambda x, y, t: h_scale * x,
        initial_law=gaussian_initial([x0_mean], [[x0_var]], "x0_var"),
        levy=levy,
        gronwall_rate=_linear_gronwall_rate(a_x, sigma_v, sigma_bar, h_scale, sigma_tilde, levy),
        kalman_inputs=None if levy is not None else (a_x, sigma_v, sigma_bar, h_scale, x0_mean, x0_var),
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

    return SignalModel(
        name="change_detection",
        f=lambda x: np.zeros_like(x),
        sigma=np.zeros((2, 1)),
        sigma_bar=np.zeros((2, 1)),
        h=h,
        initial_law=sample,
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
