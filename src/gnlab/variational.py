"""Constrained minimization of the generalized boson-star energy.

The energy of an L-component nonnegative field u = (u_1, ..., u_L) is

    E(u) = 1/2 sum_i <(m^2 + |xi|^2)^s u_i^, u_i^>  -  <G(u), V * G(u)>,

with V(x) = |x|^-(n-beta) realized spectrally as riesz_constant(n, beta)
times the |xi|^-beta multiplier (zero mode dropped: on a torus that mode is
a periodization artifact, and the mean-field constant it carries cancels in
all reported comparisons).  Minimization runs projected gradient descent on
the mass spheres ||u_i||_2^2 = c_i with a Schwarz rearrangement after every
step until the first rejected one; the rearrangement is kept only when it
does not increase the energy, so traces stay monotone.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .rational import as_exact, as_int
from .spectral import (
    Bessel,
    Domain,
    Field,
    Grid,
    RieszPotential,
    _both,
    _form,
    _irfftn,
    _mesh,
    _radial,
    _resample,
    _rfftn,
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
        if not self.alphas or not all(0 < a < math.inf for a in self.alphas):
            raise ValueError("ProductPowers needs positive finite exponents")


@dataclass(frozen=True)
class SumPowers:
    """G(v) = v_1^mu + ... + v_L^mu, mu >= 2."""

    mu: float = 2.0

    def __post_init__(self):
        if not 2 <= self.mu < math.inf:
            raise ValueError("SumPowers needs a finite mu >= 2")


NonlinearityG = Union[ProductPowers, SumPowers]


def sum_squares() -> SumPowers:
    return SumPowers(2.0)


def g_degree(G: NonlinearityG) -> float:
    """Homogeneity degree: G(t v) = t^degree G(v)."""
    if isinstance(G, ProductPowers):
        return float(sum(G.alphas))
    return float(G.mu)


def g_value(G: NonlinearityG, comps: Sequence[np.ndarray], out: Optional[np.ndarray] = None) -> np.ndarray:
    """G at nonnegative components, with no clamp: MultiField enforces the
    sign, minimize clamps and projects, the C* ascent clamps each step and
    the rearrangement takes abs.  Written into out when given (a solve's
    work array), else into a fresh array.  G starts from its first term:
    adding into a zero-filled array writes to fresh pages, an order of
    magnitude slower (README, "Variational cost")."""
    if isinstance(G, ProductPowers):
        if len(G.alphas) != len(comps):
            raise ValueError("component count does not match ProductPowers")
        out = np.power(comps[0], G.alphas[0], out=out)
        for v, a in zip(comps[1:], G.alphas[1:]):
            out *= v ** a
        return out
    # v * v: the float power v ** 2.0 gives the same bits at twice the cost
    first, *rest = comps
    out = np.multiply(first, first, out=out) if G.mu == 2.0 else np.power(first, G.mu, out=out)
    for v in rest:
        out += v * v if G.mu == 2.0 else v ** G.mu
    return out


def g_partial(G: NonlinearityG, comps: Sequence[np.ndarray], i: int) -> np.ndarray:
    """dG/dv_i at nonnegative components (see g_value)."""
    if isinstance(G, SumPowers):
        if G.mu == 2.0:
            return 2.0 * comps[i]
        return G.mu * comps[i] ** (G.mu - 1.0)
    out = np.full_like(comps[0], G.alphas[i])
    for j, (v, a) in enumerate(zip(comps, G.alphas)):
        if j != i:
            out = out * v ** a
        elif a != 1.0:
            out = out * np.where(v > 0, v, 1.0) ** (a - 1.0)
            out = np.where(v > 0, out, 0.0 if a > 1.0 else out)
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
            if not np.isfinite(vals).all():
                raise ValueError("components must be finite")
            if vals.min() < NEGATIVE_TOLERANCE:
                raise ValueError("components must be nonnegative up to round-off")
            comps.append(Field(grid, Domain.PHYSICAL, np.maximum(vals, 0.0)))
        if len(self.masses) != len(comps):
            raise ValueError("one target mass per component")
        if not all(0 < c < math.inf for c in self.masses):
            raise ValueError("target masses must be positive and finite")
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


class _Workspace:
    """One solve of L components on grid for params: the symbols of the
    quadratic form and of V (which checks beta), and the arrays the solve
    writes into, allocated once per minimize or estimate_cstar call instead
    of once per evaluation.

    points and spectra hold two sets each: [0] the accepted point u_i with
    its half spectra (rfftn(u_i), then rfftn(G(u))), [1] the trial point.
    _evaluate writes a trial's spectra into set 1, and accept() swaps the
    sets, so a rejected trial never overwrites the accepted state.  g holds
    G(u), then V * G(u); half, a complex half-lattice array, is the scratch
    of one product, and work pairs it with a real one for a _form
    reduction; parts and dirs hold the gradient parts and directions.

    held=False puts None in every slot, so each numpy call handed one
    allocates a fresh array: the one-shot functions (energy,
    energy_gradient, upsilon_beta, scaling_profile) evaluate once, and
    held buffers would only raise their peak memory."""

    def __init__(self, grid: Grid, params: EnergyParams, comps: int, held: bool = True):
        def real(shape=grid.shape) -> Optional[np.ndarray]:
            return np.empty(shape) if held else None

        def spectrum() -> Optional[np.ndarray]:
            return np.empty(grid.half_shape, np.complex128) if held else None

        self.grid, self.params = grid, params
        self.w_quad = symbol_values(grid, Bessel(2.0 * params.s, params.m2), half=True)
        self.w_riesz = symbol_values(grid, RieszPotential(params.beta), half=True)
        self.points = [[real() for _ in range(comps)] for _ in range(2)]
        self.spectra = [[spectrum() for _ in range(comps + 1)] for _ in range(2)]
        self.g = real()
        self.half = spectrum()
        self.work = (self.half, real(grid.half_shape))
        self.parts = [(real(), real()) for _ in range(comps)]
        self.dirs = [real() for _ in range(comps)]

    @classmethod
    def at(cls, u: MultiField, params: EnergyParams) -> "_Workspace":
        """The held=False workspace of a one-shot evaluation, with u as its trial."""
        ws = cls(u.grid, params, len(u.masses), held=False)
        ws.points[1] = u.arrays()
        return ws

    @property
    def trial(self) -> List[np.ndarray]:
        return self.points[1]

    def accept(self) -> None:
        self.points.reverse()
        self.spectra.reverse()


def _quad(ws: _Workspace, w: np.ndarray) -> float:
    """sum_i (1/L^n) sum w |u_i^|^2 from the trial spectra rfftn(u_i)."""
    return sum(_form(ws.grid, hat, w, ws.work) for hat in ws.spectra[1][:-1])


def _evaluate(ws: _Workspace) -> Tuple[float, float]:
    """quad = sum_i <(m^2 - Lap)^s u_i, u_i> and inter = <G(u), V * G(u)> at
    the trial point (the energy is 0.5 quad - inter): L + 1 forward FFTs
    into the trial spectra, rfftn(u_i) paired (spectral._both) with G(u)
    and rfftn(G(u))."""
    grid, params, arrs, spectra = ws.grid, ws.params, ws.trial, ws.spectra[1]
    spectra[:-1], spectra[-1] = _both(
        grid,
        lambda: [_rfftn(arr, out) for arr, out in zip(arrs, spectra)],
        lambda: _rfftn(g_value(params.G, arrs, ws.g), spectra[-1]),
    )
    inter = riesz_constant(grid.n, params.beta) * _form(grid, spectra[-1], ws.w_riesz, ws.work)
    return _quad(ws, ws.w_quad), inter


def _gradient(ws: _Workspace) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(A_i, B_i) = ((m^2 - Lap)^s u_i, (V * G(u)) dG/dv_i), half the L^2
    gradients of quad and inter, at the accepted point from its spectra:
    the L inverse FFTs of A_i, one after the other through ws.half, paired
    (spectral._both) with that of V * G(u) through the trial set's G(u)
    spectrum, which every _evaluate writes before it reads."""
    grid, params, arrs, (*hats, g_hat) = ws.grid, ws.params, ws.points[0], ws.spectra[0]
    quads, conv = _both(
        grid,
        lambda: [_irfftn(grid, np.multiply(ws.w_quad, hat, out=ws.half), a)
                 for hat, (a, _) in zip(hats, ws.parts)],
        lambda: _irfftn(grid, np.multiply(g_hat, ws.w_riesz, out=ws.spectra[1][-1]), ws.g),
    )
    conv *= riesz_constant(grid.n, params.beta)
    return [
        (a, np.multiply(conv, g_partial(params.G, arrs, i), out=b))
        for i, (a, (_, b)) in enumerate(zip(quads, ws.parts))
    ]


def _energy_gradient(ws: _Workspace) -> List[np.ndarray]:
    """L^2 gradient of the energy at the accepted point, A_i - 2 B_i (see
    _gradient), in A_i's array."""
    return [np.subtract(a, np.multiply(b, 2.0, out=b), out=a) for a, b in _gradient(ws)]


def _critical(n: int, beta: float) -> EnergyParams:
    """Massless sum of squares at s = (n - beta)/2: quad = ||u||^2 in H^s-dot, inter = Upsilon_beta."""
    if not 0 < beta < n:
        raise ValueError(f"beta must lie in (0, n); got {beta} with n={n}")
    return EnergyParams((n - beta) / 2.0, 0.0, beta, sum_squares())


def upsilon_beta(u: MultiField, beta: float) -> float:
    """Interaction functional of the total density |u|^2 = sum u_i^2."""
    return _evaluate(_Workspace.at(u, _critical(u.grid.n, beta)))[1]


def energy(u: MultiField, params: EnergyParams) -> float:
    quad, inter = _evaluate(_Workspace.at(u, params))
    return 0.5 * quad - inter


def energy_gradient(u: MultiField, params: EnergyParams) -> List[Field]:
    """L^2 gradient: (m^2 - Lap)^s u_i - 2 (V * G(u)) dG/dv_i."""
    ws = _Workspace.at(u, params)
    _evaluate(ws)
    ws.accept()
    return [Field(u.grid, Domain.PHYSICAL, g) for g in _energy_gradient(ws)]


def _project(grid: Grid, arrs: Sequence[np.ndarray], masses: Sequence[float]) -> None:
    """Scale each arr onto its sphere, in place."""
    for arr, c in zip(arrs, masses):
        norm2 = mass(grid, arr)
        if norm2 <= 0:
            raise ValueError("cannot project a zero component onto its sphere")
        arr *= math.sqrt(c / norm2)


def project_spheres(u: MultiField) -> MultiField:
    """Rescale each component onto its mass sphere ||u_i||_2^2 = c_i."""
    comps = [a.copy() for a in u.arrays()]
    _project(u.grid, comps, u.masses)
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


def _rearrange(grid: Grid, arr: np.ndarray, out: np.ndarray) -> np.ndarray:
    vals = np.sort(np.abs(arr).ravel())[::-1]
    order = _radial_order(grid.n, grid.points_per_dim, grid.box_length)
    out.reshape(-1)[order] = vals
    return out


def schwarz_rearrange(field: Field) -> Field:
    """Grid Schwarz symmetrization: |values| sorted decreasingly along the
    distance-from-origin order (lexicographic tie-break)."""
    grid = field.grid
    return Field(grid, Domain.PHYSICAL, _rearrange(grid, to_physical(field).data.real, np.empty(grid.shape)))


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
    """max_iters: an integer >= 1 (read exactly, see as_int); tol: a finite
    real >= 0.  Either raises ValueError here, before any solving."""

    max_iters: int = 2000
    tol: float = 1e-9

    def __post_init__(self):
        max_iters = as_int(self.max_iters, "options max_iters")
        if max_iters < 1:
            raise ValueError(f"options max_iters must be at least 1; got {self.max_iters!r}")
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
            raise ValueError(f"options tol must be a finite real >= 0; got {tol!r}")
        object.__setattr__(self, "max_iters", max_iters)
        object.__setattr__(self, "tol", float(tol))


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
    every step until the first rejected one, the iterate is replaced by its
    componentwise Schwarz rearrangement (re-projected), kept only if the
    energy does not increase; once rejected, the rearrangement is not tried
    again, which saves a sort, a projection and an energy evaluation per
    iteration.
    Terminates once the relative energy decrease over the trailing WINDOW
    iterations drops below tol.
    """
    arrs, stats = _descend(u0.grid, u0.arrays(), u0.masses, params, options)
    # _descend has returned, so its workspace is freed before these copies
    u = MultiField(tuple(Field(u0.grid, Domain.PHYSICAL, a) for a in arrs), u0.masses)
    return MinimizeResult(u, *stats)


def _descend(grid: Grid, arrs0: Sequence[np.ndarray], masses: Sequence[float], params: EnergyParams,
             options: MinimizeOptions):
    """The solve of minimize: the final iterate's arrays, and (trace,
    multipliers, EL residual, converged, iterations, message).  Iterates,
    spectra and gradients live in one _Workspace for the whole solve."""
    pre = symbol_values(grid, Bessel(-2.0 * params.s, max(params.m2, 1.0)), half=True)
    ws = _Workspace(grid, params, len(masses))
    for a, a0 in zip(ws.trial, arrs0):
        a[...] = a0
    _project(grid, ws.trial, masses)
    quad, inter = _evaluate(ws)
    ws.accept()
    e = 0.5 * quad - inter
    if math.isnan(e):
        raise DivergenceError("initial energy is NaN")
    trace = [e]
    schwarz = True  # try the Schwarz step until it is first rejected
    converged = False
    message = ""
    it = 0
    for it in range(1, options.max_iters + 1):
        arrs = ws.points[0]
        tangents = [
            np.subtract(g, np.multiply(a, _inner(grid, g, a) / c, out=scratch), out=g)
            for g, a, c, scratch in zip(_energy_gradient(ws), arrs, masses, ws.dirs)
        ]
        dirs = [
            _irfftn(grid, np.multiply(_rfftn(t, ws.half), pre, out=ws.half), d)
            for t, d in zip(tangents, ws.dirs)
        ]
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
        cand = ws.trial
        for _ in range(40):
            for c_i, a, d in zip(cand, arrs, dirs):
                np.maximum(np.subtract(a, np.multiply(d, step, out=c_i), out=c_i), 0.0, out=c_i)
            try:
                _project(grid, cand, masses)
            except ValueError:
                step *= 0.5
                continue
            quad, inter = _evaluate(ws)
            e_cand = 0.5 * quad - inter
            if math.isnan(e_cand):
                raise DivergenceError(f"energy NaN at iteration {it}")
            if e_cand <= e - ARMIJO * step * slope:
                accepted = True
                break
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
        ws.accept()
        e = e_cand

        if schwarz:
            rearranged = [_rearrange(grid, a, out) for a, out in zip(ws.points[0], ws.trial)]
            _project(grid, rearranged, masses)
            quad, inter = _evaluate(ws)
            e_cand = 0.5 * quad - inter
            schwarz = e_cand <= e
            if schwarz:
                ws.accept()
                e = e_cand
        trace.append(e)

        if len(trace) > WINDOW:
            prev = trace[-WINDOW - 1]
            scale = max(abs(prev), abs(e), 1e-30)
            if (prev - e) / scale < options.tol:
                converged = True
                message = "energy plateau"
                break

    arrs = ws.points[0]
    multipliers = []
    residual = 0.0
    for g, arr, c in zip(_energy_gradient(ws), arrs, masses):
        r_i = -_inner(grid, g, arr) / c
        multipliers.append(r_i)
        num = math.sqrt(mass(grid, g + r_i * arr))
        den = math.sqrt(mass(grid, arr))
        residual = max(residual, num / den)
    return arrs, (trace, multipliers, residual, converged, it, message)


# ---------------------------------------------------------------------------
# sharp-constant estimation


@dataclass
class CStarEstimate:
    value: float
    argmax: Field
    starts: int
    coarse_value: Optional[float] = None


def _ascent_eval(ws: _Workspace) -> Tuple[float, float, float]:
    """(q, quad, inter) of _critical at the trial point, whose mass is 1:
    the quotient q = inter / quad, with the two forms an ascent step from
    that point needs."""
    quad, inter = _evaluate(ws)
    return (inter / quad if quad > 0 else 0.0), quad, inter


COARSE_FLOOR = 32  # the C* ascent runs first on the m/2 grid from this many points per axis


def estimate_cstar(
    n: int,
    beta: float,
    grid: Grid,
    max_iters: int = 200,
    seeds: Sequence[int] = (0, 1),
) -> CStarEstimate:
    """Estimate of sup Upsilon(u) / (||u||_2^2 ||u||_{Hs}^2), s = (n - beta)/2,
    by multi-start normalized gradient ascent.

    The starts are three Gaussians and one positive_random_field per seed,
    built on grid.  Below COARSE_FLOOR points per axis every start climbs on
    grid.  From it the ascent is nested: every start is restricted to the
    m/2 grid (_resample, then clamped at 0) and climbs there, and the best
    coarse argmax is prolonged to grid, clamped, and climbs once more.  The
    coarse climbs carry almost all of the steps, on an eighth of the points
    in 3D: c10's bench run on 32^3 makes 533 quotient evaluations on 16^3
    and 109 on 32^3, where climbing every start on 32^3 made 1099 there.
    max_iters bounds each climb: an integer >= 1 (read exactly, see
    as_int), or ValueError before any climbing.

    Each step's backtracking line search halves its step, up to 25 trials,
    until the quotient rises by more than a relative 1e-12.  A climb's first
    step tries 0.5.  A later step tries min(0.5, 2 x the last accepted step)
    when that step was accepted on its first trial, and the accepted step
    itself otherwise, since accepted steps settle far below 0.5 and each
    failed trial costs a quotient evaluation (two real FFTs).  Every point
    the ascent evaluates is normalized to mass 1, so the quotient is
    inter / quad.

    Returns the quotient of the last climb on grid: a lower bound for the
    grid problem only.  u^2 is formed pointwise on the grid, so its
    frequencies above Nyquist alias into Upsilon, and the value is not a
    bound on the supremum over band-limited or continuum functions.
    coarse_value is the best quotient on the m/2 grid, or None without a
    coarse stage; its gap to value is a resolution estimate.
    """
    if grid.n != n:
        raise ValueError("grid dimension mismatch")
    max_iters = as_int(max_iters, "max_iters")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1; got {max_iters!r}")
    params = _critical(n, beta)
    starts: List[np.ndarray] = []
    r2 = grid.coord_radius2()
    for frac in (8.0, 12.0, 20.0):
        width = max(grid.box_length / frac, 2.0 * grid.spacing)
        starts.append(np.exp(-r2 / (2.0 * width ** 2)))
    for seed in seeds:
        starts.append(positive_random_field(grid, seed).data.real)

    coarse_value = None
    climbs = starts
    if grid.points_per_dim >= COARSE_FLOOR:
        coarse = Grid(n, grid.points_per_dim // 2, grid.box_length)
        restricted = [np.maximum(_resample(arr, coarse), 0.0) for arr in starts]
        coarse_value, coarse_arr = _ascend(coarse, params, restricted, max_iters)
        climbs = [np.maximum(_resample(coarse_arr, grid), 0.0)]
    value, best_arr = _ascend(grid, params, climbs, max_iters)
    return CStarEstimate(value, Field(grid, Domain.PHYSICAL, best_arr), len(starts), coarse_value)


def _ascend(grid: Grid, params: EnergyParams, starts: Sequence[np.ndarray],
            max_iters: int) -> Tuple[float, np.ndarray]:
    """The climbs of estimate_cstar on grid, one per start, in one
    _Workspace: the best quotient and a copy of its argmax."""
    ws = _Workspace(grid, params, 1)
    best_val = -1.0
    best_arr = None
    for arr0 in starts:
        np.divide(arr0, math.sqrt(mass(grid, arr0)), out=ws.trial[0])
        q, quad, ups = _ascent_eval(ws)
        ws.accept()
        first_step = 0.5
        for _ in range(max_iters):
            if ups <= 0 or quad <= 0:
                break
            arr = ws.points[0][0]
            (A, B), = _gradient(ws)
            # d = 2 B / ups - 2 u - 2 A / quad, in the workspace
            d = np.divide(np.multiply(B, 2.0, out=ws.dirs[0]), ups, out=ws.dirs[0])
            d -= np.multiply(arr, 2.0, out=B)
            d -= np.divide(np.multiply(A, 2.0, out=A), quad, out=A)
            dn = math.sqrt(mass(grid, d))
            if dn < 1e-14:
                break
            d /= dn
            step = first_step
            improved = False
            cand = ws.trial[0]
            for trial in range(25):
                np.maximum(np.add(arr, np.multiply(d, step, out=cand), out=cand), 0.0, out=cand)
                mcand = mass(grid, cand)
                if mcand > 0:
                    cand /= math.sqrt(mcand)
                    qc, quad_c, ups_c = _ascent_eval(ws)
                    if qc > q * (1.0 + 1e-12):
                        ws.accept()
                        q, quad, ups = qc, quad_c, ups_c
                        first_step = min(0.5, 2.0 * step) if trial == 0 else step
                        improved = True
                        break
                step *= 0.5
            if not improved:
                break
        if q > best_val:
            best_val = q
            best_arr = ws.points[0][0].copy()  # the workspace is reused by the next start
    if best_arr is None or best_val <= 0:
        raise DivergenceError("all ascent starts degenerated")
    return best_val, best_arr


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
    homogeneity-d nonlinearity, so arbitrary finite lambda > 0 are
    admissible; any other lambda raises ValueError, before any evaluation.
    """
    lambdas = list(lambdas)
    for lam in lambdas:
        if not 0 < lam < math.inf:
            raise ValueError(f"lambda must be positive and finite; got {lam!r}")
    grid = u.grid
    d = g_degree(params.G)
    ws = _Workspace.at(u, params)
    inter = _evaluate(ws)[1]
    energies = []
    for lam in lambdas:
        w = _radial(grid, lambda r: (params.m2 + (lam * r) ** 2) ** params.s, half=True)
        energies.append(0.5 * _quad(ws, w) - lam ** (d * grid.n - grid.n - params.beta) * inter)
    exponent = _tail_exponent(lambdas, energies)
    return ScalingProfile(lambdas, energies, exponent)


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
    estimate-limited.  A mass c or a cstar that is not positive and finite
    is out of scope.
    """
    n, beta, s, m2 = (as_exact(x) for x in (n, beta, s, m2))
    if not (0 < beta < n):
        return RegimeReport(Regime.OUT_OF_SCOPE, "invalid", note="beta outside (0, n)")
    if s <= 0 or m2 < 0 or not (0 < c < math.inf and 0 < cstar < math.inf):
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
