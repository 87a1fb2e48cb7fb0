"""Lebesgue, Besov, Triebel-Lizorkin, and Sobolev norms of sampled fields.

Homogeneous shell sums run over the grid's resolved dyadic range unless a
NormSpec narrows or widens it (guard shells included); test families are
band-limited, so the truncation is exact for them.  Quasi-norm exponents
0 < p, q < 1 use the same formulas; q = infinity takes the sup over shells.
Shells are always reduced in a fixed ascending order, so results are
bit-stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .spectral import (
    Domain,
    Field,
    FracLaplacian,
    Bessel,
    Grid,
    _cutoff,
    _irfftn,
    apply_symbol,
    symbol_values,
    to_fourier,
    to_physical,
    zero_mode_fraction,
    ZERO_MODE_TOLERANCE,
)


class NormFamily(Enum):
    LEBESGUE = "Lebesgue"
    HOMOG_BESOV = "HomogBesov"
    INHOMOG_BESOV = "InhomogBesov"
    HOMOG_TRIEBEL = "HomogTriebel"
    INHOMOG_TRIEBEL = "InhomogTriebel"
    HOMOG_SOBOLEV = "HomogSobolev"
    BESSEL_SOBOLEV = "BesselSobolev"


_BESOV = (NormFamily.HOMOG_BESOV, NormFamily.INHOMOG_BESOV)
_TRIEBEL = (NormFamily.HOMOG_TRIEBEL, NormFamily.INHOMOG_TRIEBEL)
_SOBOLEV = (NormFamily.HOMOG_SOBOLEV, NormFamily.BESSEL_SOBOLEV)
_INHOMOG = (NormFamily.INHOMOG_BESOV, NormFamily.INHOMOG_TRIEBEL)


@dataclass(frozen=True)
class NormSpec:
    family: NormFamily
    s: float = 0.0
    p: float = 2.0
    q: float = math.inf
    m2: float = 0.0
    shell_range: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if not value > 0:
                raise ValueError(f"{name} must be positive; got {value}")
        for name, value in (("s", self.s), ("m2", self.m2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite; got {value}")
        if self.family is NormFamily.BESSEL_SOBOLEV and self.m2 < 0:
            raise ValueError("m2 must be nonnegative")


@dataclass(frozen=True)
class NormResult:
    family: NormFamily
    s: float
    p: float
    q: float
    value: float
    shell_range: Optional[Tuple[int, int]]
    warnings: Tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value,
            "s": self.s,
            "p": self.p,
            "q": self.q if self.q != math.inf else "inf",
            "value": self.value,
            "shell_range": list(self.shell_range) if self.shell_range else None,
            "warnings": list(self.warnings),
        }


def _lp(mag: np.ndarray, p: float, w: float) -> float:
    """(sum mag^p w)^(1/p) of a nonnegative array; p = inf is its max."""
    if not p > 0:
        raise ValueError("p must be positive")
    if math.isinf(p):
        return float(mag.max())
    return float((np.sum(mag ** p) * w) ** (1.0 / p))


def _half(hat: Field) -> np.ndarray:
    """The half lattice [..., :m//2 + 1] of a Fourier field's data."""
    return hat.data[..., : hat.grid.points_per_dim // 2 + 1]


def _magnitude(field: Field) -> np.ndarray:
    """|f| on the physical grid; a real Fourier-form field is inverted from
    its half spectrum by irfftn."""
    if field.domain is Domain.FOURIER and field.is_real:
        return np.abs(_irfftn(field.grid, _half(field)) / field.grid.quadrature_weight)
    return np.abs(to_physical(field).data)


def lp_norm(field: Field, p: float) -> float:
    """(sum |f|^p w)^(1/p) with w = spacing^n; p = inf is the grid max."""
    return _lp(_magnitude(field), p, field.grid.quadrature_weight)


def _resolve_shells(grid: Grid, spec: NormSpec) -> range:
    lo, hi = grid.shell_bounds
    inhomog = spec.family in _INHOMOG
    if spec.shell_range is not None:
        klo, khi = spec.shell_range
        if klo > khi:
            raise ValueError("empty shell range")
        if (klo < lo and not inhomog) or khi > hi:
            raise ValueError(
                f"shell_range [{klo}, {khi}] outside the representable window [{lo}, {hi}]"
            )
    else:
        # the inhomogeneous sum starts at shell 1 by definition (the low-pass
        # block covers everything below), independent of the resolved range
        klo = 1 if inhomog else grid.k_min
        khi = grid.k_max
    if inhomog:
        klo = max(klo, 1)
    return range(klo, khi + 1)


def _lq_reduce(terms: List[float], q: float) -> float:
    if math.isinf(q):
        return max(terms) if terms else 0.0
    acc = 0.0
    for t in terms:
        acc += t ** q
    return acc ** (1.0 / q)


def _shell_stack(hat: Field, specs: Sequence[NormSpec], real: bool) -> List[float]:
    """Besov and Triebel values from one pass over the union of their shells.

    Besov: l^q over shells of 2^(ks) ||Delta_k f||_p.  Triebel: L^p norm of
    the pointwise l^q aggregate of 2^(ks) |Delta_k f|.  The inhomogeneous
    variants replace shells k <= 0 by the low-pass block (key None), which
    enters with weight 1.  Pieces come low-pass block first, then shells in
    ascending order; each is freed before the next is built.  A real field's
    pieces are inverted from the half spectrum by irfftn, a complex field's
    from the full spectrum by ifftn.
    """
    grid = hat.grid
    w = grid.quadrature_weight
    if real:
        data, inverse = _half(hat), lambda x: _irfftn(grid, x)
    else:
        data, inverse = hat.data, np.fft.ifftn
    weights = []
    for spec in specs:
        wk = {k: 2.0 ** (k * spec.s) for k in _resolve_shells(grid, spec)}
        weights.append({None: 1.0, **wk} if spec.family in _INHOMOG else wk)
    terms: List[List[float]] = [[] for _ in specs]
    aggs = [np.zeros(grid.shape) if spec.family in _TRIEBEL else None for spec in specs]
    for k in sorted(set().union(*weights), key=lambda k: -math.inf if k is None else k):
        piece = inverse(data * _cutoff(grid, k, half=real))
        piece /= w
        mag = np.abs(piece)
        del piece
        for i, spec in enumerate(specs):
            if k not in weights[i]:
                continue
            if spec.family in _BESOV:
                terms[i].append(weights[i][k] * _lp(mag, spec.p, w))
            elif math.isinf(spec.q):
                aggs[i] = np.maximum(aggs[i], mag * weights[i][k])
            else:
                aggs[i] += (mag * weights[i][k]) ** spec.q
        del mag
    values = []
    for spec, spec_terms, agg in zip(specs, terms, aggs):
        if agg is None:
            values.append(_lq_reduce(spec_terms, spec.q))
            continue
        if not math.isinf(spec.q):
            agg = agg ** (1.0 / spec.q)
        values.append(_lp(agg, spec.p, w))
    return values


def norm_values(field: Field, specs: Sequence[NormSpec]) -> List[float]:
    """Values of several norms of one field, in the order of `specs`.

    One forward transform (none for a field in Fourier form) serves every
    spec.  Besov and Triebel specs share one inverse transform per distinct
    shell in the union of their shells, not one per spec and shell; each
    value equals its one-spec value exactly.  For a real field (see
    Field.is_real) these inverses, and the one inverse of a Fourier-form
    field under Lebesgue specs, are real transforms of the half spectrum.
    Lebesgue and Sobolev specs take their direct paths.  Besov and Triebel
    norms of the zero field are 0.
    """
    for spec in specs:
        if spec.family in _TRIEBEL and math.isinf(spec.p):
            raise ValueError("triebel_norm requires p < inf")
    values = [0.0] * len(specs)
    families = {spec.family for spec in specs}
    w = field.grid.quadrature_weight
    mag = _magnitude(field) if NormFamily.LEBESGUE in families else None
    hat = to_fourier(field) if families - {NormFamily.LEBESGUE} else None
    stacked = []
    for i, spec in enumerate(specs):
        if spec.family is NormFamily.LEBESGUE:
            values[i] = _lp(mag, spec.p, w)
        elif spec.family in _SOBOLEV:
            values[i] = sobolev_norm(hat, spec)
        else:
            stacked.append(i)
    if stacked and np.any(hat.data):
        shell_values = _shell_stack(hat, [specs[i] for i in stacked], field.is_real)
        for i, value in zip(stacked, shell_values):
            values[i] = value
    return values


def besov_norm(field: Field, spec: NormSpec) -> float:
    """l^q over shells of 2^(ks) ||shell_k f||_p.

    The inhomogeneous variant replaces shells k <= 0 by the single low-pass
    block, which enters with weight 1.
    """
    if spec.family not in _BESOV:
        raise ValueError(f"besov_norm got family {spec.family}")
    return norm_values(field, [spec])[0]


def triebel_norm(field: Field, spec: NormSpec) -> float:
    """L^p norm of the pointwise l^q aggregate over shells; p < inf only."""
    if spec.family not in _TRIEBEL:
        raise ValueError(f"triebel_norm got family {spec.family}")
    return norm_values(field, [spec])[0]


def sobolev_norm(field: Field, spec: NormSpec) -> float:
    """||(-Lap)^(s/2) f||_p, or the (m^2 + |xi|^2)^(s/2)-weighted L^2 norm."""
    if spec.family not in _SOBOLEV:
        raise ValueError(f"sobolev_norm got family {spec.family}")
    grid = field.grid
    hat = to_fourier(field)
    if spec.family is NormFamily.BESSEL_SOBOLEV:
        symbol = Bessel(spec.s, spec.m2)
    else:
        symbol = FracLaplacian(spec.s)
    if spec.p == 2.0:
        vals = symbol_values(grid, symbol)
        total = float(np.sum((vals * np.abs(hat.data)) ** 2))
        return math.sqrt(total / grid.box_length ** grid.n)
    return lp_norm(to_physical(apply_symbol(hat, symbol)), spec.p)


def compute_norm(field: Field, spec: NormSpec) -> NormResult:
    """Facade returning the value plus shell range and warning flags."""
    warnings = []
    if spec.family in _SOBOLEV and spec.s < 0 and spec.m2 == 0:
        if zero_mode_fraction(field) > ZERO_MODE_TOLERANCE:
            warnings.append("zero-mode dropped under a negative-order symbol")
    value = norm_values(field, [spec])[0]
    rng = None
    if spec.family in _BESOV or spec.family in _TRIEBEL:
        shells = _resolve_shells(field.grid, spec)
        rng = (shells.start, shells.stop - 1) if shells else None
    return NormResult(spec.family, spec.s, spec.p, spec.q, value, rng, tuple(warnings))
