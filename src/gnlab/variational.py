"""Constrained minimization of the generalized boson-star energy.

The energy of an L-component nonnegative field u = (u_1, ..., u_L) is

    E(u) = 1/2 sum_i <(m^2 + |xi|^2)^s u_i^, u_i^>  -  <G(u), V * G(u)>,

with V(x) = |x|^-(n-beta) realized spectrally as riesz_constant(n, beta)
times the |xi|^-beta multiplier (zero mode dropped: on a torus that mode is
a periodization artifact, and the mean-field constant it carries cancels in
all reported comparisons).  Minimization runs projected gradient descent on
the mass spheres ||u_i||_2^2 = c_i with a Schwarz rearrangement after every
step; the rearrangement is kept only when it does not increase the energy,
so traces stay monotone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .rational import as_exact
from .spectral import (
    Bessel,
    Domain,
    Field,
    FracLaplacian,
    Grid,
    RieszPotential,
    _mesh,
    riesz_constant,
    symbol_values,
    to_physical,
)
from .testfuncs import positive_random_field

NEGATIVE_TOLERANCE = -1e-12


# ---------------------------------------------------------------------------
# nonlinearities


@dataclass(frozen=True)
class ProductPowers:
    """G(v) = v_1^a1 ... v_L^aL (vanishes whenever a component does)."""

    alphas: Tuple[float, ...]

    def __post_init__(self):
        if not self.alphas or any(a <= 0 for a in self.alphas):
            raise ValueError("ProductPowers needs positive exponents")


@dataclass(frozen=True)
class SumPowers:
    """G(v) = v_1^mu + ... + v_L^mu, mu >= 2."""

    mu: float = 2.0

    def __post_init__(self):
        if self.mu < 2:
            raise ValueError("SumPowers needs mu >= 2")


NonlinearityG = Union[ProductPowers, SumPowers]


def sum_squares() -> SumPowers:
    return SumPowers(2.0)


def g_degree(G: NonlinearityG) -> float:
    """Homogeneity degree: G(t v) = t^degree G(v)."""
    if isinstance(G, ProductPowers):
        return float(sum(G.alphas))
    return float(G.mu)


def g_value(G: NonlinearityG, comps: Sequence[np.ndarray]) -> np.ndarray:
    vs = [np.maximum(v, 0.0) for v in comps]
    if isinstance(G, ProductPowers):
        if len(G.alphas) != len(vs):
            raise ValueError("component count does not match ProductPowers")
        out = np.ones_like(vs[0])
        for v, a in zip(vs, G.alphas):
            out = out * v ** a
        return out
    out = np.zeros_like(vs[0])
    for v in vs:
        out += v ** G.mu
    return out


def g_partial(G: NonlinearityG, comps: Sequence[np.ndarray], i: int) -> np.ndarray:
    vs = [np.maximum(v, 0.0) for v in comps]
    if isinstance(G, SumPowers):
        return G.mu * vs[i] ** (G.mu - 1.0)
    out = np.full_like(vs[0], G.alphas[i])
    for j, (v, a) in enumerate(zip(vs, G.alphas)):
        if j == i:
            if a != 1.0:
                out = out * np.where(v > 0, v, 1.0) ** (a - 1.0)
                out = np.where(vs[i] > 0, out, 0.0 if a > 1.0 else out)
        else:
            out = out * v ** a
    return out


# ---------------------------------------------------------------------------
# multi-component fields


@dataclass(frozen=True)
class MultiField:
    """L real nonnegative components on one grid, with target masses c_i."""

    components: Tuple[Field, ...]
    masses: Tuple[float, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        grid = self.components[0].grid
        comps = []
        for f in self.components:
            if f.grid != grid:
                raise ValueError("components must share one grid")
            phys = to_physical(f)
            vals = phys.data.real
            if vals.min() < NEGATIVE_TOLERANCE:
                raise ValueError("components must be nonnegative up to round-off")
            comps.append(Field(grid, Domain.PHYSICAL, np.maximum(vals, 0.0).astype(np.complex128)))
        if len(self.masses) != len(comps):
            raise ValueError("one target mass per component")
        if any(c <= 0 for c in self.masses):
            raise ValueError("target masses must be positive")
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "masses", tuple(float(c) for c in self.masses))

    @property
    def grid(self) -> Grid:
        return self.components[0].grid

    def arrays(self) -> List[np.ndarray]:
        return [f.data.real for f in self.components]


@dataclass(frozen=True)
class EnergyParams:
    s: float
    m2: float
    beta: float
    G: NonlinearityG

    def __post_init__(self):
        if not (0 < self.s < math.inf):
            raise ValueError(f"s must be positive and finite; got {self.s}")
        if not (0 <= self.m2 < math.inf):
            raise ValueError(f"m^2 must be nonnegative and finite; got {self.m2}")


def _inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    return float(np.sum(f * g).real * grid.quadrature_weight)


def mass(grid: Grid, f: np.ndarray) -> float:
    return _inner(grid, f, f)


# Every field here is real, so every spectrum is a half spectrum
# rfftn(f): the last axis keeps the planes 0..m/2, and the rest of the
# lattice is their Hermitian mirror.  Symbols are radial, hence even, and
# are sliced to the same half lattice.


def _half(w: np.ndarray) -> np.ndarray:
    """A full-lattice symbol restricted to the half lattice of rfftn."""
    return np.ascontiguousarray(w[..., : w.shape[-1] // 2 + 1])


def _irfft(grid: Grid, hat: np.ndarray) -> np.ndarray:
    return np.fft.irfftn(hat, s=grid.shape, axes=tuple(range(grid.n)))


def _form(grid: Grid, raw: np.ndarray, w: np.ndarray) -> float:
    """(1/L^n) sum w |f^|^2 over the full lattice, from the half spectrum
    raw = rfftn(f).  The mirror of an interior plane of the last axis is
    absent from raw, so those planes count twice; the planes 0 and m/2 are
    their own mirrors (m is even) and count once."""
    hat = raw * grid.quadrature_weight
    p = w * np.abs(hat) ** 2
    total = 2.0 * np.sum(p) - np.sum(p[..., 0]) - np.sum(p[..., -1])
    return float(total / grid.box_length ** grid.n)


def _quad_form(grid: Grid, arr: np.ndarray, s: float, m2: float) -> float:
    """(1/L^n) sum (m^2 + |xi|^2)^s |f^|^2 (the squared s-energy norm)."""
    return _form(grid, np.fft.rfftn(arr), _half(symbol_values(grid, Bessel(2.0 * s, m2))))


def _energy_symbols(grid: Grid, params: EnergyParams) -> Tuple[np.ndarray, np.ndarray]:
    """Symbols of the quadratic form and of V (which checks beta), built once per solve."""
    return (
        _half(symbol_values(grid, Bessel(2.0 * params.s, params.m2))),
        _half(symbol_values(grid, RieszPotential(params.beta))),
    )


def _evaluate(grid: Grid, arrs: Sequence[np.ndarray], params: EnergyParams, symbols):
    """Energy at the components arrs, with the half spectra rfftn(u_i) and
    rfftn(G(u)) it was computed from: L + 1 forward FFTs."""
    w_quad, w_riesz = symbols
    hats = [np.fft.rfftn(arr) for arr in arrs]
    quad = 0.0
    for hat in hats:
        quad += _form(grid, hat, w_quad)
    g_hat = np.fft.rfftn(g_value(params.G, arrs))
    inter = riesz_constant(grid.n, params.beta) * _form(grid, g_hat, w_riesz)
    return 0.5 * quad - inter, hats, g_hat


def _gradient(grid: Grid, arrs, params: EnergyParams, symbols, hats, g_hat) -> List[np.ndarray]:
    """L^2 gradient (m^2 - Lap)^s u_i - 2 (V * G(u)) dG/dv_i from the spectra
    of _evaluate at the same point: L + 1 inverse FFTs."""
    w_quad, w_riesz = symbols
    conv = riesz_constant(grid.n, params.beta) * _irfft(grid, g_hat * w_riesz)
    return [
        _irfft(grid, w_quad * hat) - 2.0 * conv * g_partial(params.G, arrs, i)
        for i, hat in enumerate(hats)
    ]


def upsilon_beta(u: MultiField, beta: float) -> float:
    """Interaction functional of the total density |u|^2 = sum u_i^2."""
    grid = u.grid
    w = _half(symbol_values(grid, RieszPotential(beta)))
    rho = sum(arr ** 2 for arr in u.arrays())
    return riesz_constant(grid.n, beta) * _form(grid, np.fft.rfftn(rho), w)


def energy(u: MultiField, params: EnergyParams) -> float:
    return _evaluate(u.grid, u.arrays(), params, _energy_symbols(u.grid, params))[0]


def energy_gradient(u: MultiField, params: EnergyParams) -> List[Field]:
    """L^2 gradient: (m^2 - Lap)^s u_i - 2 (V * G(u)) dG/dv_i."""
    grid, arrs = u.grid, u.arrays()
    symbols = _energy_symbols(grid, params)
    grads = _gradient(grid, arrs, params, symbols, *_evaluate(grid, arrs, params, symbols)[1:])
    return [Field(grid, Domain.PHYSICAL, g) for g in grads]


def _project(grid: Grid, arrs: Sequence[np.ndarray], masses: Sequence[float]) -> List[np.ndarray]:
    out = []
    for arr, c in zip(arrs, masses):
        norm2 = mass(grid, arr)
        if norm2 <= 0:
            raise ValueError("cannot project a zero component onto its sphere")
        out.append(arr * math.sqrt(c / norm2))
    return out


def project_spheres(u: MultiField) -> MultiField:
    """Rescale each component onto its mass sphere ||u_i||_2^2 = c_i."""
    comps = _project(u.grid, u.arrays(), u.masses)
    return MultiField(tuple(Field(u.grid, Domain.PHYSICAL, a) for a in comps), u.masses)


@lru_cache(maxsize=16)
def _radial_order(n: int, m: int, length: float) -> np.ndarray:
    grid = Grid(n, m, length)
    r2 = grid.coord_radius2().ravel()
    axes = [np.broadcast_to(a, grid.shape).ravel() for a in _mesh([grid.axis_coords()] * n)]
    keys = tuple(reversed(axes)) + (r2,)
    order = np.lexsort(keys)
    order.flags.writeable = False
    return order


def _rearrange(grid: Grid, arr: np.ndarray) -> np.ndarray:
    vals = np.sort(np.abs(arr).ravel())[::-1]
    order = _radial_order(grid.n, grid.points_per_dim, grid.box_length)
    out = np.empty(vals.size)
    out[order] = vals
    return out.reshape(grid.shape)


def schwarz_rearrange(field: Field) -> Field:
    """Grid Schwarz symmetrization: |values| sorted decreasingly along the
    distance-from-origin order (lexicographic tie-break)."""
    return Field(field.grid, Domain.PHYSICAL, _rearrange(field.grid, to_physical(field).data.real))


def monotone_along_rays(field: Field, tol: float = 1e-8) -> bool:
    """Values nonincreasing outward from the origin along the axis and main
    diagonal rays."""
    grid = field.grid
    v = to_physical(field).data.real
    n, m = grid.n, grid.points_per_dim
    peak = float(np.abs(v).max()) or 1.0
    dirs = []
    for ax in range(n):
        for sign in (1, -1):
            d = [0] * n
            d[ax] = sign
            dirs.append(tuple(d))
    if n > 1:
        for signs in ((1,) * n, (-1,) * n):
            dirs.append(signs)
    steps = np.arange(m // 2)
    for d in dirs:
        idx = tuple((steps * di) % m if di else np.zeros_like(steps) for di in d)
        vals = v[idx]
        if np.any(np.diff(vals) > tol * peak):
            return False
    return True


# ---------------------------------------------------------------------------
# minimization


ARMIJO = 1e-4  # sufficient-decrease constant of the line search
INITIAL_STEP = 1.0
WINDOW = 10  # iterations over which the plateau test measures the decrease


@dataclass(frozen=True)
class MinimizeOptions:
    max_iters: int = 2000
    tol: float = 1e-9


@dataclass
class MinimizeResult:
    u_final: MultiField
    energy_trace: List[float]
    multipliers: List[float]
    el_residual: float
    converged: bool
    iterations: int
    message: str = ""


class DivergenceError(RuntimeError):
    """Raised when the descent produces NaN or the line search cannot make
    progress while the gradient is still large."""


def minimize(u0: MultiField, params: EnergyParams, options: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Projected gradient descent with backtracking line search.

    The search direction is the constraint-tangent gradient preconditioned by
    (max(m^2, 1) + |xi|^2)^-s, which removes the stiffness of the quadratic
    term; descent is still measured against the true L^2 gradient.  After
    every step the iterate is replaced by its componentwise Schwarz
    rearrangement (re-projected), kept only if the energy does not increase.
    Terminates once the relative energy decrease over the trailing WINDOW
    iterations drops below tol.
    """
    grid, masses = u0.grid, u0.masses
    symbols = _energy_symbols(grid, params)
    pre = _half(symbol_values(grid, Bessel(-2.0 * params.s, max(params.m2, 1.0))))
    arrs = _project(grid, u0.arrays(), masses)
    e, hats, g_hat = _evaluate(grid, arrs, params, symbols)
    if math.isnan(e):
        raise DivergenceError("initial energy is NaN")
    trace = [e]
    converged = False
    message = ""
    it = 0
    for it in range(1, options.max_iters + 1):
        grads = _gradient(grid, arrs, params, symbols, hats, g_hat)
        tangents = [g - (_inner(grid, g, a) / c) * a for g, a, c in zip(grads, arrs, masses)]
        dirs = [_irfft(grid, pre * np.fft.rfftn(t)) for t in tangents]
        slope = sum(_inner(grid, t, d) for t, d in zip(tangents, dirs))
        if slope <= 0:
            dirs = tangents
            slope = sum(_inner(grid, t, t) for t in tangents)
        if slope <= 0:
            converged = True
            message = "stationary (zero tangent gradient)"
            break

        step = INITIAL_STEP
        accepted = False
        for _ in range(40):
            try:
                cand = _project(grid, [np.maximum(a - step * d, 0.0) for a, d in zip(arrs, dirs)], masses)
            except ValueError:
                step *= 0.5
                continue
            cand_eval = _evaluate(grid, cand, params, symbols)
            if math.isnan(cand_eval[0]):
                raise DivergenceError(f"energy NaN at iteration {it}")
            if cand_eval[0] <= e - ARMIJO * step * slope:
                accepted = True
                break
            cand_eval = None  # free the rejected spectra before the next candidate
            step *= 0.5
        if not accepted:
            grad_scale = math.sqrt(sum(_inner(grid, t, t) for t in tangents))
            if grad_scale < 1e-8 * max(1.0, abs(e)):
                converged = True
                message = "line search exhausted at a stationary point"
                break
            raise DivergenceError(
                f"line search failed at iteration {it} with energy {e:.6g}"
            )
        arrs, (e, hats, g_hat) = cand, cand_eval
        del cand, cand_eval  # a kept rearrangement must not leave these alive

        rearranged = _project(grid, [_rearrange(grid, a) for a in arrs], masses)
        r_eval = _evaluate(grid, rearranged, params, symbols)
        if r_eval[0] <= e:
            arrs, (e, hats, g_hat) = rearranged, r_eval
        del rearranged, r_eval  # nor a rejected one its spectra
        trace.append(e)

        if len(trace) > WINDOW:
            prev = trace[-WINDOW - 1]
            scale = max(abs(prev), abs(e), 1e-30)
            if (prev - e) / scale < options.tol:
                converged = True
                message = "energy plateau"
                break

    grads = _gradient(grid, arrs, params, symbols, hats, g_hat)
    multipliers = []
    residual = 0.0
    for g, arr, c in zip(grads, arrs, masses):
        r_i = -_inner(grid, g, arr) / c
        multipliers.append(r_i)
        num = math.sqrt(mass(grid, g + r_i * arr))
        den = math.sqrt(mass(grid, arr))
        residual = max(residual, num / den)
    u = MultiField(tuple(Field(grid, Domain.PHYSICAL, a) for a in arrs), masses)
    return MinimizeResult(u, trace, multipliers, residual, converged, it, message)


# ---------------------------------------------------------------------------
# sharp-constant estimation


@dataclass
class CStarEstimate:
    value: float
    argmax: Field
    starts: int


def _ascent_eval(grid: Grid, arr: np.ndarray, beta: float, w_hs: np.ndarray, w_riesz: np.ndarray):
    """Quotient at arr, with the state an ascent step from arr needs:
    (mass, H^s form, Upsilon, rfftn(arr), rfftn(arr^2))."""
    hat = np.fft.rfftn(arr)
    a = mass(grid, arr)
    b = _form(grid, hat, w_hs)
    rho_hat = np.fft.rfftn(arr ** 2)
    ups = riesz_constant(grid.n, beta) * _form(grid, rho_hat, w_riesz)
    q = ups / (a * b) if a > 0 and b > 0 else 0.0
    return q, (a, b, ups, hat, rho_hat)


def _quotient(grid: Grid, arr: np.ndarray, beta: float, s: float) -> float:
    w_hs = _half(symbol_values(grid, FracLaplacian(2.0 * s)))
    w_riesz = _half(symbol_values(grid, RieszPotential(beta)))
    return _ascent_eval(grid, arr, beta, w_hs, w_riesz)[0]


def estimate_cstar(
    n: int,
    beta: float,
    grid: Grid,
    max_iters: int = 200,
    seeds: Sequence[int] = (0, 1),
    extra_starts: Sequence[Field] = (),
) -> CStarEstimate:
    """Lower-bound estimate of sup Upsilon(u) / (||u||_2^2 ||u||_{Hs}^2),
    s = (n - beta)/2, by multi-start normalized gradient ascent.

    Returns the best quotient found; the true supremum can only be larger.
    """
    if grid.n != n:
        raise ValueError("grid dimension mismatch")
    w_riesz = _half(symbol_values(grid, RieszPotential(beta)))
    s = (n - beta) / 2.0
    w_hs = _half(symbol_values(grid, FracLaplacian(2.0 * s)))
    starts: List[np.ndarray] = []
    r2 = grid.coord_radius2()
    for frac in (8.0, 12.0, 20.0):
        width = max(grid.box_length / frac, 2.0 * grid.spacing)
        starts.append(np.exp(-r2 / (2.0 * width ** 2)))
    for seed in seeds:
        starts.append(positive_random_field(grid, seed).data.real)
    for f in extra_starts:
        starts.append(to_physical(f).data.real)

    best_val = -1.0
    best_arr = None
    for arr0 in starts:
        arr = arr0 / math.sqrt(mass(grid, arr0))
        q, state = _ascent_eval(grid, arr, beta, w_hs, w_riesz)
        for _ in range(max_iters):
            a, b, ups, hat, rho_hat = state
            if ups <= 0 or b <= 0:
                break
            conv = riesz_constant(grid.n, beta) * _irfft(grid, rho_hat * w_riesz)
            grad_ups = 4.0 * conv * arr
            grad_b = 2.0 * _irfft(grid, w_hs * hat)
            d = grad_ups / ups - (2.0 / a) * arr - grad_b / b
            dn = math.sqrt(mass(grid, d))
            if dn < 1e-14:
                break
            d /= dn
            step = 0.5
            improved = False
            for _ in range(25):
                cand = np.maximum(arr + step * d, 0.0)
                mcand = mass(grid, cand)
                if mcand > 0:
                    cand = cand / math.sqrt(mcand)
                    qc, cand_state = _ascent_eval(grid, cand, beta, w_hs, w_riesz)
                    if qc > q * (1.0 + 1e-12):
                        arr, q, state = cand, qc, cand_state
                        improved = True
                        break
                step *= 0.5
            if not improved:
                break
        if q > best_val:
            best_val = q
            best_arr = arr
    if best_arr is None or best_val <= 0:
        raise DivergenceError("all ascent starts degenerated")
    return CStarEstimate(best_val, Field(grid, Domain.PHYSICAL, best_arr), len(starts))


# ---------------------------------------------------------------------------
# scaling profiles and regime classification


@dataclass
class ScalingProfile:
    lambdas: List[float]
    energies: List[float]
    fitted_exponent: Optional[float]


def scaling_profile(u: MultiField, params: EnergyParams, lambdas: Sequence[float]) -> ScalingProfile:
    """Energies of the mass-preserving dilates u_lambda = lambda^(n/2) u(lambda x).

    Evaluated by exact Fourier-side reindexing: the quadratic form becomes
    (m^2 + |lambda xi|^2)^s against the undilated spectrum, and the
    interaction picks up the factor lambda^(d n - n - beta) for a
    homogeneity-d nonlinearity, so arbitrary lambda > 0 are admissible.
    """
    grid = u.grid
    d = g_degree(params.G)
    w_riesz = _half(symbol_values(grid, RieszPotential(params.beta)))
    g_hat = np.fft.rfftn(g_value(params.G, u.arrays()))
    inter = riesz_constant(grid.n, params.beta) * _form(grid, g_hat, w_riesz)
    r = _half(grid.freq_radius())
    hats = [np.fft.rfftn(a) for a in u.arrays()]
    energies = []
    for lam in lambdas:
        if lam <= 0:
            raise ValueError("lambda must be positive")
        w = (params.m2 + (lam * r) ** 2) ** params.s
        quad = sum(_form(grid, h, w) for h in hats)
        energies.append(0.5 * quad - lam ** (d * grid.n - grid.n - params.beta) * inter)
    exponent = _tail_exponent(list(lambdas), energies)
    return ScalingProfile(list(lambdas), energies, exponent)


def _tail_exponent(lambdas: List[float], energies: List[float]) -> Optional[float]:
    if len(lambdas) < 3:
        return None
    tail = energies[-3:]
    lam = lambdas[-3:]
    if any(e == 0 for e in tail):
        return None
    signs = {math.copysign(1.0, e) for e in tail}
    if len(signs) > 1:
        return None
    x = np.log2(np.asarray(lam))
    y = np.log2(np.abs(np.asarray(tail)))
    return float(np.polyfit(x, y, 1)[0])


class Regime(Enum):
    MINIMIZER_EXISTS = "MinimizerExists"
    MINIMIZER_EXISTS_IFF = "MinimizerExistsIff"
    NO_MINIMIZER = "NoMinimizer"
    MINUS_INFINITY = "MinusInfinity"
    NOT_ACHIEVED = "NotAchieved"
    OUT_OF_SCOPE = "OutOfScope"


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    case: str
    critical_mass: Optional[float] = None
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime.value,
            "case": self.case,
            "critical_mass": self.critical_mass,
            "note": self.note,
        }


_REL_TOL = 1e-9


def regime_classify(
    n: int,
    beta: float,
    s: float,
    m2: float,
    c: float,
    cstar: float,
    G: NonlinearityG,
) -> RegimeReport:
    """Exact case analysis of minimizer existence for the given parameters.

    n, beta, s, m2 and the exponents of G are compared as exact rationals.
    cstar is the (estimated) sharp interaction constant; the mass threshold
    is 1/(2 cstar).  Comparisons against the threshold are floats with a
    1e-9 relative tolerance, and reports near the threshold are flagged as
    estimate-limited.
    """
    n, beta, s, m2 = (as_exact(x) for x in (n, beta, s, m2))
    if not (0 < beta < n):
        return RegimeReport(Regime.OUT_OF_SCOPE, "invalid", note="beta outside (0, n)")
    if s <= 0 or c <= 0 or cstar <= 0 or m2 < 0:
        return RegimeReport(Regime.OUT_OF_SCOPE, "invalid", note="parameters out of range")
    s_crit = (n - beta) / 2

    if isinstance(G, ProductPowers):
        alpha = sum(as_exact(a) for a in G.alphas)
        margin = n + beta - n * alpha + 2 * s
        if margin < 0:
            return RegimeReport(
                Regime.MINUS_INFINITY,
                "supercritical-growth",
                note="concentration drives the energy to -infinity (n*alpha > n + beta + 2s)",
            )
        if s > s_crit and margin > 0:
            return RegimeReport(
                Regime.MINIMIZER_EXISTS,
                "supercritical-smoothness",
                note="assumes the structural conditions on G (vanishing on zero components, supermodular pair, scaling bound)",
            )
        if s == s_crit or margin == 0:
            return RegimeReport(
                Regime.OUT_OF_SCOPE,
                "borderline-growth",
                note="borderline product nonlinearity is not classified",
            )
        return RegimeReport(Regime.MINUS_INFINITY, "subcritical-smoothness",
                            note="s < (n - beta)/2")

    # sum-of-powers kinds
    mu = as_exact(G.mu)
    if s > s_crit:
        if mu < 1 + (2 * s + beta) / n:
            return RegimeReport(Regime.MINIMIZER_EXISTS, "supercritical-smoothness")
        return RegimeReport(
            Regime.OUT_OF_SCOPE, "supercritical-growth",
            note="mu outside [2, 1 + (2s + beta)/n)",
        )
    if s < s_crit:
        return RegimeReport(Regime.MINUS_INFINITY, "subcritical-smoothness",
                            note="s < (n - beta)/2")
    if mu != 2:
        return RegimeReport(
            Regime.OUT_OF_SCOPE, "critical-growth",
            note="critical smoothness requires the quadratic nonlinearity",
        )

    crit = 1.0 / (2.0 * cstar)
    near = abs(c - crit) <= _REL_TOL * crit
    if m2 == 0:
        if near:
            return RegimeReport(
                Regime.MINIMIZER_EXISTS_IFF, "critical-massless", crit,
                note="boundary, estimate-limited",
            )
        if c > crit:
            return RegimeReport(Regime.MINUS_INFINITY, "critical-massless", crit)
        return RegimeReport(
            Regime.NO_MINIMIZER, "critical-massless", crit,
            note="infimum 0 is not attained below the critical mass",
        )
    if n > 2 + beta:
        return RegimeReport(
            Regime.NOT_ACHIEVED, "critical-massive-high-dim", crit,
            note="infimum c m^(2s)/2 is never attained",
        )
    if n == 2 + beta:
        state = "attained" if near else ("collapses" if c > crit else "not attained")
        return RegimeReport(
            Regime.MINIMIZER_EXISTS_IFF, "critical-massive-borderline", crit,
            note=f"exists exactly at the critical mass; supplied c is {state}",
        )
    # n < 2 + beta
    if near:
        return RegimeReport(
            Regime.NOT_ACHIEVED, "critical-massive-low-dim", crit,
            note="boundary, estimate-limited",
        )
    if c > crit:
        return RegimeReport(Regime.MINUS_INFINITY, "critical-massive-low-dim", crit)
    return RegimeReport(Regime.MINIMIZER_EXISTS, "critical-massive-low-dim", crit)


# ---------------------------------------------------------------------------
# structural checks on G


@dataclass
class GConditionsReport:
    growth_constant: float
    zero_component_ok: bool
    scaling_mode: str
    scaling_failures: int
    supermodular_failures: int
    samples: int

    @property
    def passed(self) -> bool:
        return (
            self.zero_component_ok
            and self.scaling_failures == 0
            and self.supermodular_failures == 0
        )


def g_conditions_check(
    G: NonlinearityG,
    sample_count: int = 1000,
    seed: int = 0,
) -> GConditionsReport:
    """Numerically spot-check the structural conditions on G.

    Product kinds are sampled on one component per exponent, sum kinds on
    two.  Growth: reports the largest observed G(v) / (|v|^2 + |v|^mu).  Zero
    components: G must vanish when any component does (product kinds).
    Scaling: G(t v) >= t_max G(v) for t_i >= 1, sampled componentwise for
    product kinds and with a common t for sum kinds (sum kinds live under a
    single joint mass constraint).  Supermodularity is sampled on the pair
    function G(u) G(v) via mixed second differences.
    """
    L = len(G.alphas) if isinstance(G, ProductPowers) else 2
    mu = g_degree(G)
    rng = np.random.default_rng(seed)

    vs = rng.uniform(0.0, 0.1, size=(sample_count, L))
    gv = g_value(G, [vs[:, i] for i in range(L)])
    norm = np.sqrt(np.sum(vs ** 2, axis=1))
    growth = float(np.max(gv / (norm ** 2 + norm ** mu + 1e-300)))

    zero_ok = True
    probe = rng.uniform(0.5, 1.5, size=L)
    for i in range(L):
        v = probe.copy()
        v[i] = 0.0
        if float(g_value(G, [np.array([x]) for x in v])[0]) != 0.0:
            zero_ok = False
    if isinstance(G, SumPowers):
        zero_ok = False  # sums do not vanish on a single zero component

    mode = "componentwise" if isinstance(G, ProductPowers) else "common"
    base = rng.uniform(0.0, 2.0, size=(sample_count, L))
    if mode == "componentwise":
        ts = rng.uniform(1.0, 5.0, size=(sample_count, L))
    else:
        ts = np.repeat(rng.uniform(1.0, 5.0, size=(sample_count, 1)), L, axis=1)
    g0 = g_value(G, [base[:, i] for i in range(L)])
    g1 = g_value(G, [(ts * base)[:, i] for i in range(L)])
    tmax = np.max(ts, axis=1)
    scaling_failures = int(np.sum(g1 < tmax * g0 * (1.0 - 1e-12)))

    super_failures = 0
    y = rng.uniform(0.0, 2.0, size=(sample_count, 2 * L))
    hs = rng.uniform(0.01, 1.0, size=sample_count)
    ks = rng.uniform(0.01, 1.0, size=sample_count)
    pair = lambda z: g_value(G, [z[:, i] for i in range(L)]) * g_value(
        G, [z[:, L + i] for i in range(L)]
    )
    for trial in range(sample_count):
        i, j = rng.choice(2 * L, size=2, replace=False)
        zi = y[trial : trial + 1].copy()
        z_h = zi.copy(); z_h[0, i] += hs[trial]
        z_k = zi.copy(); z_k[0, j] += ks[trial]
        z_hk = z_h.copy(); z_hk[0, j] += ks[trial]
        lhs = pair(z_hk)[0] + pair(zi)[0]
        rhs = pair(z_h)[0] + pair(z_k)[0]
        if lhs < rhs - 1e-10 * max(1.0, abs(rhs)):
            super_failures += 1

    return GConditionsReport(growth, zero_ok, mode, scaling_failures, super_failures, sample_count)
