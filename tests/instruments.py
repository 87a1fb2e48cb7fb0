"""Test-side measurements built on gnlab's own functions: Field-level
projections, the partition-of-unity check, the c05 random-ratio sweep, the
Besov convexity check and the spot checks of the conditions on G.  Only the
tests call them.  Unlike oracles.py they use the package's spectral path.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from gnlab.checker import GNProblem, Scale, SpaceTriple
from gnlab.harness import gn_ratio, space_norm_spec
from gnlab.norms import norm_values
from gnlab.rational import as_fraction
from gnlab.spectral import (
    Domain,
    Field,
    Grid,
    Symbol,
    _cutoff,
    symbol_values,
    to_fourier,
    to_physical,
)
from gnlab.testfuncs import random_band_limited
from gnlab.variational import NonlinearityG, ProductPowers, SumPowers, g_degree, g_value
from oracles import dilate_reference


def lowpass_multiplier(grid: Grid) -> np.ndarray:
    """psi(|xi|) on the lattice (the inhomogeneous low block)."""
    return _cutoff(grid, None)


def _check_shell(grid: Grid, k: int) -> None:
    lo, hi = grid.shell_bounds
    if not (lo <= k <= hi):
        raise ValueError(
            f"shell k={k} outside resolved range [{grid.k_min}, {grid.k_max}] "
            f"(guard shells allow [{lo}, {hi}])"
        )


def dyadic_project(field: Field, k: int) -> Field:
    """Frequency-shell projection; output in the same domain as the input."""
    _check_shell(field.grid, k)
    return _multiply(field, _cutoff(field.grid, k))


def _multiply(field: Field, mult: np.ndarray) -> Field:
    """Multiply the Fourier data by `mult`; output in the input's domain."""
    hat = to_fourier(field)
    out = Field(hat.grid, hat.domain, hat.data * mult)
    return out if field.domain is Domain.FOURIER else to_physical(out)


def apply_symbol(field: Field, symbol: Symbol) -> Field:
    """Apply a Fourier multiplier; output in the same domain as the input."""
    return _multiply(field, symbol_values(field.grid, symbol))


def dilate(field: Field, log2_lambda: int, l2_normalized: bool = False) -> Field:
    """Dyadic dilation u(x) -> lambda^a u(lambda x), lambda = 2^log2_lambda,
    a = n/2 when l2_normalized, else 0: oracles.dilate_reference on the
    field's data, in the field's domain; field itself when the reference
    hands its data back (log2_lambda = 0)."""
    data = dilate_reference(field.data, field.domain is Domain.PHYSICAL,
                            field.grid.box_length, log2_lambda, l2_normalized)
    return field if data is field.data else Field(field.grid, field.domain, data)


@dataclass(frozen=True)
class PartitionReport:
    max_deviation: float
    origin_value: float
    max_deviation_inhomog: float


def partition_check(grid: Grid) -> PartitionReport:
    """Deviation of the shell sums from 1.

    Homogeneous: sum of phi_k over the resolved range, maximized over the
    lattice annulus 2^k_min <= |xi| <= 2^k_max (xi = 0 is excluded by the
    homogeneous calculus and reported separately).  Inhomogeneous: psi plus
    the shells k >= 1, over the whole lattice including 0.
    """
    r = grid.freq_radius()
    total = np.zeros_like(r)
    for k in range(grid.k_min, grid.k_max + 1):
        total += _cutoff(grid, k)
    annulus = (r >= 2.0 ** grid.k_min) & (r <= 2.0 ** grid.k_max)
    if not annulus.any():
        raise ValueError("grid resolves no complete annulus")
    dev = float(np.max(np.abs(total[annulus] - 1.0)))
    origin = float(total.flat[0])

    inhom = lowpass_multiplier(grid)
    for k in range(1, grid.k_max + 1):
        inhom += _cutoff(grid, k)
    inside = r <= 2.0 ** grid.k_max
    dev_inhom = float(np.max(np.abs(inhom[inside] - 1.0)))
    return PartitionReport(dev, origin, dev_inhom)


def random_ratio_sweep(
    problem: GNProblem,
    grid: Grid,
    bands: Sequence[int],
    seeds_per_band: int = 5,
) -> Tuple[List[float], List[float]]:
    """Ratios of random band-limited fields on the bands [k, k + 1].

    Under an exact scaling balance the band index does not tilt the ratio,
    so a Holds verdict predicts a flat (slope <= 0.05) cloud.
    """
    xs, ys = [], []
    for k in bands:
        for seed in range(seeds_per_band):
            f = random_band_limited(grid, k, k + 1, seed=1000 * k + seed)
            xs.append(float(k))
            ys.append(gn_ratio(f, problem))
    return xs, ys


@dataclass
class ConvexityReport:
    lhs: float
    rhs: float
    target: SpaceTriple
    passed: bool


def convexity_check(
    field: Field,
    components: Sequence[Tuple[SpaceTriple, Fraction]],
) -> ConvexityReport:
    """Multiplicative convexity bound across Besov spaces.

    The target indices are the exact convex combinations sigma = sum theta_i
    sigma_i, 1/p = sum theta_i/p_i, 1/q = sum theta_i/q_i; the check is
    LHS <= RHS (1 + 1e-9) with RHS the weighted product of component norms.
    """
    if not components:
        raise ValueError("need at least one component")
    thetas = [as_fraction(th) for _, th in components]
    if any(th < 0 or th > 1 for th in thetas):
        raise ValueError("weights must lie in [0, 1]")
    if sum(thetas) != 1:
        raise ValueError("weights must sum to 1 exactly")
    sigma = sum((th * tr.s for tr, th in components), Fraction(0))
    inv_p = sum((th * tr.inv_p for tr, th in components), Fraction(0))
    inv_q = sum((th * tr.inv_q for tr, th in components), Fraction(0))
    target = SpaceTriple(sigma, inv_p, inv_q)
    triples = [target] + [tr for tr, _ in components]
    specs = [space_norm_spec(Scale.HOMOG_BESOV, tr) for tr in triples]
    lhs, *parts = norm_values(field, specs)
    rhs = 1.0
    for part, (_, th) in zip(parts, components):
        rhs *= part ** float(th)
    return ConvexityReport(lhs, rhs, target, lhs <= rhs * (1.0 + 1e-9))


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
