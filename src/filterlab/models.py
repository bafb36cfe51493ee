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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class ModelError(ValueError):
    """Raised for structurally invalid models or operator arguments."""


# ---------------------------------------------------------------------------
# Levy driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevySpec:
    """Finite-activity Levy driver: drift plus compound-Poisson jumps.

    The Levy measure F has total mass `jump_rate`; `sample_marks(rng, k)`
    draws k marks from the normalised jump law F / jump_rate. When the law
    is supported on finitely many atoms, `atoms` holds (locations (k, r),
    rates (k,)) with rates summing to jump_rate, and expectations against F
    are evaluated exactly instead of by Monte Carlo.

    `drift_a` is the `a` of the Levy-Ito form; the simulation drift is
    b = a - int_{|rho|>=1} rho F(drho), precomputed as `mean_large`.
    `second_moment` is int rho rho^T F(drho) and must be finite (square
    integrability of the big jumps).
    """

    jump_rate: float
    dim: int
    sample_marks: Callable[[np.random.Generator, int], Array]
    atoms: Optional[tuple[Array, Array]] = None
    drift_a: Optional[Array] = None
    mean_large: Optional[Array] = None
    second_moment: Optional[Array] = None
    first_moment: Optional[Array] = None      # int rho F(drho); sets the compensator

    def __post_init__(self):
        if self.jump_rate < 0:
            raise ModelError("jump_rate must be >= 0")
        if self.atoms is not None:
            locs = np.atleast_2d(np.asarray(self.atoms[0], dtype=float))
            rates = np.asarray(self.atoms[1], dtype=float)
            if locs.shape != (rates.size, self.dim):
                raise ModelError("atom locations must be (k, dim)")
            if np.any(rates < 0) or not np.isclose(rates.sum(), self.jump_rate):
                raise ModelError("atom rates must be >= 0 and sum to jump_rate")
            if np.any(np.all(locs == 0.0, axis=1) & (rates > 0)):
                raise ModelError("Levy measure must put no mass at the origin")
            object.__setattr__(self, "atoms", (locs, rates))
        if self.drift_a is None:
            object.__setattr__(self, "drift_a", np.zeros(self.dim))
        else:
            object.__setattr__(self, "drift_a", np.asarray(self.drift_a, dtype=float).reshape(self.dim))
        if self.mean_large is None:
            if self.atoms is None:
                raise ModelError("sampler-defined Levy measures must declare mean_large")
            locs, rates = self.atoms
            big = np.linalg.norm(locs, axis=1) >= 1.0
            object.__setattr__(self, "mean_large", (rates[big, None] * locs[big]).sum(axis=0))
        else:
            object.__setattr__(self, "mean_large", np.asarray(self.mean_large, dtype=float).reshape(self.dim))
        if self.second_moment is None:
            if self.atoms is None:
                raise ModelError("sampler-defined Levy measures must declare second_moment")
            locs, rates = self.atoms
            object.__setattr__(self, "second_moment", np.einsum("k,ki,kj->ij", rates, locs, locs))
        else:
            sm = np.asarray(self.second_moment, dtype=float).reshape(self.dim, self.dim)
            object.__setattr__(self, "second_moment", sm)
        if self.first_moment is None:
            if self.atoms is not None:
                locs, rates = self.atoms
                object.__setattr__(self, "first_moment", (rates[:, None] * locs).sum(axis=0))
        else:
            object.__setattr__(self, "first_moment", np.asarray(self.first_moment, dtype=float).reshape(self.dim))

    @property
    def drift_b(self) -> Array:
        """Drift of the compensated Levy-Ito form: b = a - int_{|rho|>=1} rho F."""
        return self.drift_a - self.mean_large

    def mean_mark(self) -> Array:
        """Mean of the normalised jump law, int rho F(drho) / jump_rate."""
        if self.first_moment is None:
            raise ModelError("sampler-defined Levy measures must declare first_moment to simulate")
        return self.first_moment / max(self.jump_rate, 1e-300)


def levy_atoms(locations, rates, drift_a=None) -> LevySpec:
    """Compound-Poisson LevySpec from discrete atoms."""
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    if locs.shape[0] == 1 and locs.shape[1] > 1 and np.ndim(locations) == 1:
        locs = locs.T
    rates = np.asarray(rates, dtype=float)
    dim = locs.shape[1]
    probs = rates / rates.sum() if rates.sum() > 0 else rates

    def sample(rng: np.random.Generator, k: int) -> Array:
        if k == 0:
            return np.zeros((0, dim))
        idx = rng.choice(len(rates), size=k, p=probs)
        return locs[idx]

    return LevySpec(
        jump_rate=float(rates.sum()),
        dim=dim,
        sample_marks=sample,
        atoms=(locs, rates),
        drift_a=drift_a,
    )


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
    linear_growth_K: float = 1.0
    sigma_bar_bound: Optional[float] = None
    gronwall_rate: Optional[float] = None
    initial_mean: Optional[Array] = None      # analytic prior moments, when known
    initial_cov: Optional[Array] = None
    change_prior: Optional[ChangePrior] = None   # set by the change-detection problem

    @property
    def dim_l(self) -> int:
        return self.levy.dim if self.levy is not None else 0

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


def const_coeff(matrix, n_dims=3) -> Callable[[Array], Array]:
    """Coefficient callable returning a constant matrix broadcast over states."""
    mat = np.asarray(matrix, dtype=float)

    def coeff(x: Array) -> Array:
        return np.broadcast_to(mat, (x.shape[0],) + mat.shape)

    return coeff


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Scalar function on state (x) and, optionally, observation (y) space
    with analytic derivatives.

    All callables are batched over the n states: value -> (n,),
    grad_x -> (n, d), hess_x -> (n, d, d), grad_y -> (n, m). `lap_y` is the
    y-Laplacian, needed only for y-dependent functions (zero otherwise).
    Derivatives are analytic by contract and validated against central
    finite differences.
    """

    label: str
    value: Callable[[Array, Array], Array]
    grad_x: Callable[[Array, Array], Array]
    hess_x: Callable[[Array, Array], Array]
    grad_y: Optional[Callable[[Array, Array], Array]] = None
    lap_y: Optional[Callable[[Array, Array], Array]] = None
    y_dependent: bool = False

    def grad_y_or_zero(self, x: Array, y: Array, m: int) -> Array:
        if self.grad_y is None:
            return np.zeros((x.shape[0], m))
        return self.grad_y(x, y)

    def lap_y_or_zero(self, x: Array, y: Array) -> Array:
        if self.lap_y is None:
            return np.zeros(x.shape[0])
        return self.lap_y(x, y)


def _batch(x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


def phi_const(c: float = 1.0, d: int = 1) -> TestFunction:
    return TestFunction(
        label=f"const({c:g})" if c != 1.0 else "1",
        value=lambda x, y: np.full(x.shape[0], float(c)),
        grad_x=lambda x, y: np.zeros((x.shape[0], d)),
        hess_x=lambda x, y: np.zeros((x.shape[0], d, d)),
    )


def phi_coord(i: int = 0, d: int = 1) -> TestFunction:
    """phi(x) = x_i."""

    def grad(x, y):
        g = np.zeros((x.shape[0], d))
        g[:, i] = 1.0
        return g

    return TestFunction(
        label=f"x{i}" if d > 1 else "x",
        value=lambda x, y: x[:, i],
        grad_x=grad,
        hess_x=lambda x, y: np.zeros((x.shape[0], d, d)),
    )


def phi_quad(i: int = 0, j: int = 0, d: int = 1) -> TestFunction:
    """phi(x) = x_i * x_j."""

    def grad(x, y):
        g = np.zeros((x.shape[0], d))
        g[:, i] += x[:, j]
        g[:, j] += x[:, i]
        return g

    def hess(x, y):
        hmat = np.zeros((x.shape[0], d, d))
        hmat[:, i, j] += 1.0
        hmat[:, j, i] += 1.0
        return hmat

    label = f"x{i}*x{j}" if d > 1 else ("x^2" if i == j else f"x{i}*x{j}")
    return TestFunction(label=label, value=lambda x, y: x[:, i] * x[:, j], grad_x=grad, hess_x=hess)


def phi_tanh(i: int = 0, d: int = 1) -> TestFunction:
    """phi(x) = tanh(x_i)."""

    def grad(x, y):
        g = np.zeros((x.shape[0], d))
        g[:, i] = 1.0 / np.cosh(x[:, i]) ** 2
        return g

    def hess(x, y):
        hmat = np.zeros((x.shape[0], d, d))
        t = np.tanh(x[:, i])
        hmat[:, i, i] = -2.0 * t * (1.0 - t * t)
        return hmat

    return TestFunction(
        label=f"tanh(x{i})" if d > 1 else "tanh(x)",
        value=lambda x, y: np.tanh(x[:, i]),
        grad_x=grad,
        hess_x=hess,
    )


def phi_battery(d: int = 1) -> list[TestFunction]:
    """The default battery {1, x_i, x_i x_j, tanh(x_i)}."""
    phis = [phi_const(1.0, d)]
    phis += [phi_coord(i, d) for i in range(d)]
    phis += [phi_quad(i, j, d) for i in range(d) for j in range(i, d)]
    phis += [phi_tanh(i, d) for i in range(d)]
    return phis


def phi_by_label(label: str, d: int = 1) -> TestFunction:
    """Rebuild a battery member from its label (worker processes cannot
    unpickle the closures, so they reconstruct by name)."""
    if label == "1":
        return phi_const(1.0, d)
    if label == "x":
        return phi_coord(0, d)
    if label == "x^2":
        return phi_quad(0, 0, d)
    if label == "tanh(x)":
        return phi_tanh(0, d)
    if label.startswith("tanh(x") and label.endswith(")"):
        return phi_tanh(int(label[6:-1]), d)
    if "*" in label:
        left, right = label.split("*")
        return phi_quad(int(left[1:]), int(right[1:]), d)
    if label.startswith("x"):
        return phi_coord(int(label[1:]), d)
    raise ModelError(f"unknown test-function label {label!r}")


def check_derivatives(
    phi: TestFunction,
    x: Array,
    y: Array,
    rel_tol: float = 1e-5,
    step: float = 1e-5,
) -> float:
    """Max relative disagreement between analytic and central-FD derivatives.

    Raises ModelError when the disagreement exceeds rel_tol. Scale for the
    relative comparison is max(1, |derivative|) so that near-zero entries are
    compared absolutely.
    """
    x = _batch(x)
    y = np.asarray(y, dtype=float)
    n, d = x.shape
    worst = 0.0
    g = phi.grad_x(x, y)
    hess = phi.hess_x(x, y)
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        fd_g = (phi.value(x + e, y) - phi.value(x - e, y)) / (2 * step)
        scale = np.maximum(1.0, np.abs(g[:, k]))
        worst = max(worst, float(np.max(np.abs(fd_g - g[:, k]) / scale)))
        fd_h = (phi.grad_x(x + e, y) - phi.grad_x(x - e, y)) / (2 * step)
        scale = np.maximum(1.0, np.abs(hess[:, :, k]))
        worst = max(worst, float(np.max(np.abs(fd_h - hess[:, :, k]) / scale)))
    if phi.grad_y is not None:
        m = y.shape[-1]
        gy = phi.grad_y(x, y)
        for k in range(m):
            e = np.zeros(m)
            e[k] = step
            fd = (phi.value(x, y + e) - phi.value(x, y - e)) / (2 * step)
            scale = np.maximum(1.0, np.abs(gy[:, k]))
            worst = max(worst, float(np.max(np.abs(fd - gy[:, k]) / scale)))
    if worst > rel_tol:
        raise ModelError(f"analytic derivatives of {phi.label!r} disagree with finite differences: {worst:.2e}")
    return worst


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    model: str
    ratios: dict[str, float]
    declared_K: float
    passed: bool
    failures: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [f"model {self.model}: K={self.declared_K:g} -> {'pass' if self.passed else 'FAIL'}"]
        for name, r in self.ratios.items():
            lines.append(f"  sup |{name}(x)|/(1+|x|) = {r:.6g}")
        lines.extend("  " + msg for msg in self.failures)
        return "\n".join(lines)


def validate_model(model: SignalModel, probe_points: Sequence[Array]) -> ValidationReport:
    """Probe the linear-growth condition |g(x)| <= K (1 + |x|) on a finite grid.

    Checks f, sigma, sigma_bar, sigma_tilde and h against the declared K,
    sigma_bar against its uniform bound when declared, and the Levy second
    moment for finiteness. Non-finite coefficient values anywhere on the
    probe grid are an error.
    """
    probes = np.atleast_2d(np.asarray(list(probe_points), dtype=float))
    if probes.size == 0:
        raise ModelError("probe_points must be non-empty")
    if probes.shape[1] != model.dim_x:
        raise ModelError(f"probe points must lie in R^{model.dim_x}")
    denom = 1.0 + np.linalg.norm(probes, axis=1)
    y0 = np.zeros(model.dim_y)

    def coeff_norms(values: Array) -> Array:
        flat = values.reshape(values.shape[0], -1)
        return np.linalg.norm(flat, axis=1)

    named = {"f": model.f(probes), "sigma": model.sigma(probes), "sigma_bar": model.sigma_bar(probes)}
    if model.sigma_tilde is not None:
        named["sigma_tilde"] = model.sigma_tilde(probes)
    named["h"] = model.h_now(probes, y0, 0.0)

    ratios: dict[str, float] = {}
    failures: list[str] = []
    for name, values in named.items():
        if not np.all(np.isfinite(values)):
            raise ModelError(f"coefficient {name} is non-finite on the probe grid")
        ratios[name] = float(np.max(coeff_norms(values) / denom))
        if ratios[name] > model.linear_growth_K * (1 + 1e-12):
            failures.append(f"{name}: growth ratio {ratios[name]:.6g} exceeds K={model.linear_growth_K:g}")
    if model.sigma_bar_bound is not None:
        sup = float(np.max(coeff_norms(named["sigma_bar"])))
        ratios["sigma_bar_sup"] = sup
        if sup > model.sigma_bar_bound * (1 + 1e-12):
            failures.append(f"sigma_bar: sup {sup:.6g} exceeds bound {model.sigma_bar_bound:g}")
    if model.levy is not None:
        sm = model.levy.second_moment
        if not np.all(np.isfinite(sm)):
            failures.append("levy second moment is not finite")
        elif not np.allclose(sm, sm.T):
            failures.append("levy second moment is not symmetric")
        elif np.min(np.linalg.eigvalsh(0.5 * (sm + sm.T))) < -1e-12:
            failures.append("levy second moment is not positive semidefinite")
    return ValidationReport(
        model=model.name,
        ratios=ratios,
        declared_K=model.linear_growth_K,
        passed=not failures,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Generator and correlation operators
# ---------------------------------------------------------------------------


class StepCoefficients:
    """The coefficients that every test function shares at one step, on an
    (n, d) batch of states: f~(x), sigma sigma^T + sigma_bar sigma_bar^T,
    sigma_bar(x), h(x, y, t) and, for a Levy measure with atoms, the rate
    and the jump sigma_tilde(x) eta of each atom. Each is evaluated on first
    use, at most once.
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
        return [(lam, stil @ eta) for eta, lam in zip(*self.model.levy.atoms)]


class PhiAtStep:
    """One test function on the states of a StepCoefficients: its value and
    gradients, each evaluated at most once, and the operators

      A phi = f~ . grad_x phi + h . grad_y phi
            + 1/2 tr[(sigma sigma^T + sigma_bar sigma_bar^T) hess_x phi]
            + 1/2 lap_y phi
            + int [phi(x + sigma_tilde(x) eta, y) - phi - grad_x phi . sigma_tilde(x) eta] F(deta),
      B^j phi = (sigma_bar^T grad_x phi)_j,
      D_j phi = h^j phi + B^j phi + dphi/dy_j.
    """

    def __init__(self, phi: TestFunction, coeffs: StepCoefficients):
        self.phi = phi
        self.c = coeffs

    @cached_property
    def value(self) -> Array:
        return self.phi.value(self.c.x, self.c.y)

    @cached_property
    def grad(self) -> Array:
        return self.phi.grad_x(self.c.x, self.c.y)

    @cached_property
    def grad_y(self) -> Array:
        return self.phi.grad_y_or_zero(self.c.x, self.c.y, self.c.model.dim_y)

    def jump(self, disp: Array) -> Array:
        """phi(x + disp, y) - phi(x, y) - grad_x phi . disp, the jump integrand of A phi."""
        return self.phi.value(self.c.x + disp, self.c.y) - self.value - np.einsum("ni,ni->n", self.grad, disp)

    def generator(self, rng: Optional[np.random.Generator] = None, jump_samples: int = 4096) -> Array:
        """A phi, shape (n,). The jump expectation is an exact atom sum when
        the Levy measure is discrete; otherwise Monte Carlo with
        `jump_samples` draws from rng."""
        c, phi, model = self.c, self.phi, self.c.model
        out = np.einsum("ni,ni->n", c.f_tilde, self.grad)
        out = out + 0.5 * np.einsum("nij,nij->n", c.diffusion, phi.hess_x(c.x, c.y))
        if np.any(self.grad_y):
            out = out + np.einsum("nm,nm->n", c.h, self.grad_y)
        out = out + 0.5 * phi.lap_y_or_zero(c.x, c.y)
        if model.has_jumps and model.levy.jump_rate > 0:
            if model.levy.atoms is not None:
                jump = np.zeros(c.x.shape[0])
                for lam, disp in c.jumps:
                    jump += lam * self.jump(disp)
                out = out + jump
            else:
                out = out + self.jump_mc(rng, jump_samples)[0]
        if not np.all(np.isfinite(out)):
            raise ModelError(f"generator of {phi.label!r} is non-finite")
        return out

    def jump_mc(self, rng: Optional[np.random.Generator], n_samples: int) -> tuple[Array, Array]:
        """Monte Carlo jump part of A phi over n_samples marks, with its standard error."""
        if rng is None:
            raise ModelError("Monte Carlo jump quadrature needs an rng")
        levy = self.c.model.levy
        stil = self.c.model.sigma_tilde(self.c.x)
        total = np.zeros(self.c.x.shape[0])
        totalsq = np.zeros(self.c.x.shape[0])
        for eta in levy.sample_marks(rng, n_samples):
            term = self.jump(stil @ eta)
            total += term
            totalsq += term * term
        mean = total / n_samples
        var = np.maximum(totalsq / n_samples - mean**2, 0.0)
        return levy.jump_rate * mean, levy.jump_rate * np.sqrt(var / n_samples)

    @cached_property
    def correlation(self) -> Array:
        """All m correlation terms B^j phi, shape (n, m)."""
        return np.einsum("nim,ni->nm", self.c.sigma_bar, self.grad)

    def dphi(self) -> Array:
        """All m terms D_j phi, shape (n, m): the integrand of the dY term in
        the unnormalised filtering equation (h multiplies phi only)."""
        return self.c.h * self.value[:, None] + self.correlation + self.grad_y


def generator_apply(model: SignalModel, phi: TestFunction, states: Array, y: Array, t: float = 0.0,
                    rng: Optional[np.random.Generator] = None, jump_samples: int = 4096) -> Array:
    """Batched generator A phi over an (n, d) array of states (see PhiAtStep)."""
    return PhiAtStep(phi, StepCoefficients(model, states, y, t)).generator(rng, jump_samples)


def apply_generator(
    model: SignalModel,
    phi: TestFunction,
    x: Array,
    y: Array,
    t: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    jump_samples: int = 4096,
) -> float:
    """A phi at a single point x in R^d (see generator_apply)."""
    return float(generator_apply(model, phi, np.asarray(x, dtype=float)[None, :], y, t, rng, jump_samples)[0])


def jump_term_mc(model: SignalModel, phi: TestFunction, x: Array, y: Array, rng: np.random.Generator,
                 n_samples: int = 4096) -> tuple[float, float]:
    """Monte Carlo jump term of A phi at a point, with its standard error."""
    if not model.has_jumps:
        return 0.0, 0.0
    est, se = PhiAtStep(phi, StepCoefficients(model, np.asarray(x, dtype=float), y)).jump_mc(rng, n_samples)
    return float(est[0]), float(se[0])


def correlation_apply(model: SignalModel, phi: TestFunction, states: Array, y: Array) -> Array:
    """All m correlation terms B^i phi = (sigma_bar^T grad_x phi)_i, shape (n, m)."""
    return PhiAtStep(phi, StepCoefficients(model, states, y)).correlation


def apply_correlation(model: SignalModel, phi: TestFunction, x: Array, y: Array, i: int) -> float:
    """B^i phi at a point; i is 1-based as in the covariation display."""
    if not 1 <= i <= model.dim_y:
        raise ModelError(f"correlation index {i} out of range 1..{model.dim_y}")
    return float(correlation_apply(model, phi, np.asarray(x, dtype=float)[None, :], y)[0, i - 1])


def dphi_apply(model: SignalModel, phi: TestFunction, states: Array, y: Array, t: float = 0.0) -> Array:
    """All m terms D_j phi = h^j phi + B^j phi + dphi/dy_j, shape (n, m)."""
    return PhiAtStep(phi, StepCoefficients(model, states, y, t)).dphi()


def apply_D(model: SignalModel, phi: TestFunction, x: Array, y: Array, j: int, t: float = 0.0) -> float:
    """D_j phi at a point; j is 1-based."""
    if not 1 <= j <= model.dim_y:
        raise ModelError(f"D index {j} out of range 1..{model.dim_y}")
    return float(dphi_apply(model, phi, np.asarray(x, dtype=float)[None, :], y, t)[0, j - 1])


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
    K = max(abs(a_x), abs(sigma_v), abs(sigma_bar), abs(h_scale), abs(sigma_tilde), 1e-12)
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
        linear_growth_K=K,
        sigma_bar_bound=abs(sigma_bar) if sigma_bar else None,
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
        linear_growth_K=max(abs(b0) + float(np.max(np.abs(b_values))), 1.0),
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
