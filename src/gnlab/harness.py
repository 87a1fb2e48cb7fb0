"""Empirical interpolation-ratio experiments.

For a problem ``target <= C source0^(1-theta) source1^theta`` and a field u,
the harness computes R(u) = ||u||_target / (||u||_source0^(1-theta)
||u||_source1^theta), sweeps R over a parameterized family, and fits the
log2 growth slope.  Bounded ratios (slope <= 0.05) corroborate a Holds
verdict; the lacunary families make the predicted blow-up rates of the
violated conditions readable as slopes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .checker import GNProblem, Scale, SpaceTriple, Verdict, auto_check
from .norms import NormFamily, NormSpec, norm_values
from .rational import as_fraction
from .spectral import Field, Grid
from .testfuncs import FamilyKind, LacunaryFamily, build_family, random_band_limited


def _exp(inv: Fraction) -> float:
    return math.inf if inv == 0 else float(1 / inv)


def space_norm_spec(
    scale: Scale,
    triple: SpaceTriple,
    shell_range: Optional[Tuple[int, int]] = None,
) -> NormSpec:
    """Map a problem-space triple onto the concrete norm computed for it."""
    s = float(triple.s)
    p = _exp(triple.inv_p)
    q = _exp(triple.inv_q)
    if scale is Scale.HOMOG_BESOV:
        return NormSpec(NormFamily.HOMOG_BESOV, s, p, q, shell_range=shell_range)
    if scale is Scale.HOMOG_TRIEBEL:
        return NormSpec(NormFamily.HOMOG_TRIEBEL, s, p, q, shell_range=shell_range)
    if scale is Scale.INHOMOG_BESOV:
        return NormSpec(NormFamily.INHOMOG_BESOV, s, p, q, shell_range=shell_range)
    if scale is Scale.RIESZ_POTENTIAL:
        if s == 0.0:
            return NormSpec(NormFamily.LEBESGUE, 0.0, p)
        return NormSpec(NormFamily.HOMOG_SOBOLEV, s, p)
    if scale is Scale.INHOMOG_RIESZ:
        if s == 0.0:
            return NormSpec(NormFamily.LEBESGUE, 0.0, p)
        return NormSpec(NormFamily.BESSEL_SOBOLEV, s, p, m2=1.0)
    raise ValueError(f"unsupported scale {scale}")


def transpose_to_1d(problem: GNProblem) -> GNProblem:
    """One-dimensional section with 1/p' = n * (1/p) for every space.

    The scaling balance is affine in n/p, so the section preserves the
    balance defect, every order and q-convexity condition, and therefore the
    verdict, as well as the predicted lacunary growth slopes (which depend
    on the indices only through s, theta, and n/p).  Lets slope experiments
    for high-dimensional instances run on cheap one-dimensional grids.
    """
    def sect(tr: SpaceTriple) -> SpaceTriple:
        return SpaceTriple(tr.s, problem.n * tr.inv_p, tr.inv_q)

    return GNProblem(
        1, problem.theta, sect(problem.target), sect(problem.source0),
        sect(problem.source1), problem.scale,
    )


def gn_norms(
    field: Field,
    problem: GNProblem,
    shell_range: Optional[Tuple[int, int]] = None,
) -> Tuple[float, float, float]:
    """(target, source0, source1) norms of one field from one shell stack."""
    triples = (problem.target, problem.source0, problem.source1)
    specs = [space_norm_spec(problem.scale, tr, shell_range) for tr in triples]
    t, a, b = norm_values(field, specs)
    return t, a, b


def _ratio(norms: Tuple[float, float, float], theta: Fraction) -> float:
    t, a, b = norms
    th = float(theta)
    denom = a ** (1.0 - th) * b ** th
    if denom == 0.0 or not math.isfinite(denom):
        raise ZeroDivisionError("degenerate field: source norms vanish or blow up")
    return t / denom


def gn_ratio(
    field: Field,
    problem: GNProblem,
    shell_range: Optional[Tuple[int, int]] = None,
) -> float:
    """R = target-norm / (source0^(1-theta) * source1^theta)."""
    return _ratio(gn_norms(field, problem, shell_range), problem.theta)


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) < 2:
        raise ValueError("need at least two points to fit")
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


@dataclass
class RatioExperiment:
    problem: GNProblem
    family: LacunaryFamily
    indices: List[int]
    norms: List[Tuple[float, float, float]]  # (target, source0, source1) per index
    ratios: List[float]
    fitted_slope: float
    axis: str  # "count" for amplitude trains, "log2count" for cardinality trains
    verdict: Verdict


EPS = Fraction(1, 4)  # per-shell growth margin of the amplitude trains


def eps_bump_family_for(problem: GNProblem) -> LacunaryFamily:
    """Amplitude train tuned to the problem: per-shell weights in the
    source0 space grow like 2^(EPS j), i.e. amplitude exponent EPS - s0.

    Above one dimension the train starts at shell 3: diagonal lattice
    offsets push a shell-2 bump past its exact band.
    """
    return LacunaryFamily(
        kind=FamilyKind.EPS_BUMP_TRAIN,
        n=problem.n,
        index=1,
        j0=2 if problem.n == 1 else 3,
        eps=EPS,
        amp_exp=EPS - problem.source0.s,
    )


def scaled_family_for(problem: GNProblem) -> LacunaryFamily:
    """Cardinality train for the equality case with p0 != p1: the width
    exponent lambda = (s1 - s0) / (n (1/p0 - 1/p1)) equalizes all three
    weighted shell sequences."""
    a, b = problem.source0, problem.source1
    dp = a.inv_p - b.inv_p
    if dp == 0:
        raise ValueError("scaled trains need p0 != p1")
    lam = (b.s - a.s) / (problem.n * dp)
    if lam < 0:
        raise ValueError("negative-lambda trains are not implemented")
    return LacunaryFamily(
        kind=FamilyKind.SCALED_BUMP_TRAIN,
        n=problem.n,
        index=1,
        j0=4,
        s=problem.target.s,
        inv_p=problem.target.inv_p,
        lam=lam,
    )


def growth_experiment(
    problem: GNProblem,
    family: LacunaryFamily,
    indices: Sequence[int],
    grid: Grid,
) -> RatioExperiment:
    """Ratios and fitted slope across family sizes.

    All norms share the shell range of the largest family member, so
    truncation bias cancels in the quotients.
    """
    indices = sorted(int(i) for i in indices)
    if len(indices) < 4:
        raise ValueError("need at least 4 indices for a fit")
    if len(set(indices)) != len(indices):
        raise ValueError("indices must be strictly increasing")
    top = family.j0 + max(indices) - 1
    lo, hi = grid.shell_bounds
    shell_range = (max(family.j0 - 1, lo), min(top + 1, hi))
    norms = [
        gn_norms(build_family(replace(family, index=count), grid), problem, shell_range)
        for count in indices
    ]
    ratios = [_ratio(triple, problem.theta) for triple in norms]
    if family.cardinality_type:
        axis = "log2count"
        xs = [math.log2(i) for i in indices]
    else:
        axis = "count"
        xs = list(map(float, indices))
    slope = fit_slope(xs, [math.log2(r) for r in ratios])
    return RatioExperiment(
        problem, family, indices, norms, ratios, slope, axis, auto_check(problem)
    )


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
