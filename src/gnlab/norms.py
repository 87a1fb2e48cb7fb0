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
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .spectral import (
    Domain,
    Field,
    FracLaplacian,
    Bessel,
    Grid,
    _cutoff,
    _cutoff_profile,
    _radii_at,
    _spectrum,
    symbol_values,
    to_fourier,
    zero_mode_fraction,
    ZERO_MODE_TOLERANCE,
)


class NormFamily(Enum):
    """The norms of a NormSpec, each computed by norm_values (compute_norm
    adds the shell range and warnings).  w = spacing^n is the quadrature
    weight and shell_k f the k-th dyadic piece phi(2^-k |xi|) f^.

      Lebesgue        (sum |f|^p w)^(1/p); p = inf is the grid max
      HomogBesov      l^q over shells k of 2^(ks) ||shell_k f||_p
      InhomogBesov    the same, with shells k <= 0 replaced by the single
                      low-pass block psi(|xi|) f^, which enters with weight 1
      HomogTriebel    L^p norm of the pointwise l^q aggregate over shells of
                      2^(ks) |shell_k f|; p < inf only
      InhomogTriebel  the same, with the low-pass block as for InhomogBesov
      HomogSobolev    ||(-Lap)^(s/2) f||_p
      BesselSobolev   ||(m^2 - Lap)^(s/2) f||_p
    """

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
    if math.isinf(p):
        return float(mag.max())
    return float((np.sum(mag ** p) * w) ** (1.0 / p))


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


# Lebesgue's one piece: f itself, with no multiplier
_IDENTITY = "identity"


def _pieces(grid: Grid, spec: NormSpec) -> dict:
    """The pieces spec reduces, as {multiplier key: weight}: the identity, a
    symbol, or the dyadic shells k with weight 2^(ks) and, when
    inhomogeneous, the low-pass block (key None) with weight 1."""
    if spec.family is NormFamily.LEBESGUE:
        return {_IDENTITY: 1.0}
    if spec.family is NormFamily.HOMOG_SOBOLEV:
        return {FracLaplacian(spec.s): 1.0}
    if spec.family is NormFamily.BESSEL_SOBOLEV:
        return {Bessel(spec.s, spec.m2): 1.0}
    shells = {k: 2.0 ** (k * spec.s) for k in _resolve_shells(grid, spec)}
    return {None: 1.0, **shells} if spec.family in _INHOMOG else shells


def _piece_order(key) -> Tuple[int, int]:
    """Low-pass block, then shells ascending, then the one-piece keys."""
    if key is None:
        return (0, 0)
    if isinstance(key, int):
        return (1, key)
    return (2, 0)


def norm_values(field: Field, specs: Sequence[NormSpec]) -> List[float]:
    """Values of several norms of one field, in the order of `specs`.

    Every spec names the pieces M f it reduces (see _pieces); each distinct
    piece is built once, for every spec that names it, by one inverse
    transform after one forward transform (none for a field in Fourier
    form), and freed before the next.  A real field (see Field.is_real) is
    inverted from its half spectrum by irfftn, a complex one from its full
    spectrum by ifftn.  The Lebesgue piece of a physical field is |f|, with
    no transform.  Besov, Lebesgue and Sobolev specs take the l^q sum of
    their weighted L^p piece norms (q = inf for the one-piece families);
    Triebel specs take the L^p norm of the pointwise l^q aggregate of their
    weighted pieces.  Each value equals its one-spec value exactly.

    A piece whose spectrum is all zero (a shell outside a band-limited
    field's band) is skipped before its inverse transform.  That is exact:
    its L^p norm is 0, which adds 0 to an l^q sum (any q, the max for
    q = inf, all terms being nonnegative), and its pointwise terms add 0 to
    a Triebel aggregate or leave its max unchanged.  The test is on the
    product, not the multiplier's support, so NaN data still propagates.

    In a sequence of fields (norm_values_seq), a shell or low-pass piece
    whose multiplier is 0 at every position where the field's spectrum
    differs (!=) from the previous field's takes that field's weighted L^p
    terms instead of an inverse transform.  That is exact: the two pieces
    agree wherever the spectra agree, and at a changed position both are
    finite data times 0, a signed zero.  An inverse transform is a fixed
    sequence of sums and products, in which the sign of a zero input can
    only change the sign of a zero result, and |.| drops it, so equal
    pieces give equal terms.  The rule reads the data alone.  It carries
    nothing when a datum at a changed position is not finite, before or
    after (NaN * 0 is NaN, and NaN propagates), nothing for the identity
    and symbol keys, nothing for a key that a Triebel spec names (its
    pointwise aggregate is not kept), and nothing into a field with no
    predecessor or whose realness differs from its predecessor's.  This
    function is the one-field case.
    """
    return norm_values_seq([field], specs)[0]


def _unchanged_cutoffs(grid: Grid, data: np.ndarray, before: np.ndarray, real: bool, keys) -> set:
    """The shell and low-pass keys among `keys` whose multiplier is 0 at every
    position where the spectra data and before differ; none when a datum
    there, on either side, is not finite."""
    changed = np.flatnonzero(data != before)
    moved = (data.flat[changed], before.flat[changed])
    if not all(np.isfinite(side).all() for side in moved):
        return set()
    radii = _radii_at(grid, changed, real)
    return {key for key in keys if not _cutoff_profile(key)(radii).any()}


def norm_values_seq(fields: Iterable[Field], specs: Sequence[NormSpec]) -> List[List[float]]:
    """norm_values of each field of a sequence on one grid, in order.

    The fields are read one at a time, so a generator streams them, and the
    previous field's spectrum is held only until the next one is compared
    with it, not while that one's pieces are built.  The positions where a
    field's spectrum differs from the previous field's are found once per
    field, and the shell and low-pass pieces whose multiplier is 0 at all
    of them carry their terms over (the rule and why it is exact are given
    at norm_values).  Every row is bit-identical to norm_values of that
    field alone.
    """
    for spec in specs:
        if spec.family in _TRIEBEL and math.isinf(spec.p):
            raise ValueError("Triebel norms require p < inf")
    rows: List[List[float]] = []
    grid = None
    before = before_real = carried = None  # the previous field's spectrum, realness, terms
    for field in fields:
        if grid is None:
            grid = field.grid
            w = grid.quadrature_weight
            pieces = [_pieces(grid, spec) for spec in specs]
            keys = sorted(dict.fromkeys(key for named in pieces for key in named), key=_piece_order)
            triebel = {key for named, spec in zip(pieces, specs) if spec.family in _TRIEBEL for key in named}
            reusable = {key for key in keys if (key is None or isinstance(key, int)) and key not in triebel}
        elif field.grid != grid:
            raise ValueError("every field of a sequence must lie on the first field's grid")
        direct = field.domain is Domain.PHYSICAL
        real = data = None
        if not direct or set(keys) - {_IDENTITY}:
            real = field.is_real
            data, inverse = _spectrum(to_fourier(field), real)
        reuse = set()
        if before is not None and before_real == real:
            reuse = _unchanged_cutoffs(grid, data, before, real, reusable)
        before = None
        kept = {}  # reusable key -> {spec index: weighted L^p term}
        terms: List[List[float]] = [[] for _ in specs]
        aggs = [np.zeros(grid.shape) if spec.family in _TRIEBEL else None for spec in specs]
        for key in keys:
            if key in reuse:
                found = carried[key]
            else:
                found = {}
                if key is _IDENTITY and direct:
                    mag = np.abs(field.data)
                else:
                    if key is _IDENTITY:
                        piece = data.copy() if real else data  # the real inverse consumes its input
                    elif key is None or isinstance(key, int):
                        piece = data * _cutoff(grid, key, half=real)
                    else:
                        piece = data * symbol_values(grid, key, half=real)
                    mag = None  # an all-zero piece adds 0 to every sum and every aggregate
                    if piece.any():
                        piece = inverse(piece)
                        piece /= w
                        mag = np.abs(piece)
                    del piece
                if mag is not None:
                    for i, spec in enumerate(specs):
                        weight = pieces[i].get(key)
                        if weight is None:
                            continue
                        if aggs[i] is None:
                            found[i] = weight * _lp(mag, spec.p, w)
                        elif math.isinf(spec.q):
                            aggs[i] = np.maximum(aggs[i], mag * weight)
                        else:
                            aggs[i] += (mag * weight) ** spec.q
                    del mag
            for i, term in found.items():
                terms[i].append(term)
            if key in reusable:
                kept[key] = found
        values = []
        for spec, spec_terms, agg in zip(specs, terms, aggs):
            if agg is None:
                values.append(_lq_reduce(spec_terms, spec.q if spec.family in _BESOV else math.inf))
                continue
            if not math.isinf(spec.q):
                agg = agg ** (1.0 / spec.q)
            values.append(_lp(agg, spec.p, w))
        rows.append(values)
        before, before_real, carried = data, real, kept
    return rows


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
