"""Constructors for test fields: lacunary bump trains, Gaussians, random
band-limited noise.

A lacunary family places one smooth radial Fourier bump on each dyadic shell
j = j0 .. j0+count-1, centered at xi_j = (7/8) 2^j e1 (snapped to the
lattice), with per-shell amplitude 2^(a j).  Because the centers are lattice
points, every shell piece is an exact modulation of the same sampled bump,
so ||shell_j||_p = 2^(a j) * ||bump||_p holds to machine precision and the
families' growth laws can be read off as fitted slopes.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .rational import as_fraction
from .spectral import (
    INNER,
    OUTER,
    Domain,
    Field,
    Grid,
    _conjugate_reverse,
    _radius2,
    phi,
    to_physical,
)


class FamilyKind(Enum):
    EPS_BUMP_TRAIN = "EpsBumpTrain"
    SCALED_BUMP_TRAIN = "ScaledBumpTrain"
    EQUAL_SHELL_TRAIN = "EqualShellTrain"
    SINGLE_AMPLITUDE_TRAIN = "SingleAmplitudeTrain"


# Fixed-width kinds use the bump phi(2 (xi - xi_j)); the scaled kind uses
# phi(2^(lambda j) (xi - xi_j)) so the width shrinks as the shells climb.
_FIXED_WIDTH_KINDS = (
    FamilyKind.EPS_BUMP_TRAIN,
    FamilyKind.EQUAL_SHELL_TRAIN,
    FamilyKind.SINGLE_AMPLITUDE_TRAIN,
)


@dataclass(frozen=True)
class LacunaryFamily:
    """A parameterized bump train.

    index is the number of bumps (shells j0 .. j0+index-1).  amp_exp is the
    per-shell amplitude exponent a in 2^(a j); each kind has a natural
    default derived from its parameters:

      EpsBumpTrain        a = eps            (growing amplitudes)
      ScaledBumpTrain     a = -s - n*lam*(1/p - 1)
      EqualShellTrain     a = -s             (equal weighted shell norms)
      SingleAmplitudeTrain a = -s
    """

    kind: FamilyKind
    n: int
    index: int
    j0: int = 2
    eps: Fraction = Fraction(0)
    s: Fraction = Fraction(0)
    inv_p: Fraction = Fraction(1, 2)
    lam: Fraction = Fraction(0)
    amp_exp: Optional[Fraction] = None

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("index (bump count) must be >= 1")
        if self.kind is FamilyKind.SCALED_BUMP_TRAIN and self.lam < 0:
            raise ValueError("scaled trains require lambda >= 0")
        for name in ("eps", "s", "inv_p", "lam"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.amp_exp is not None:
            object.__setattr__(self, "amp_exp", as_fraction(self.amp_exp))

    @property
    def shells(self) -> Tuple[int, int]:
        return (self.j0, self.j0 + self.index - 1)

    @property
    def amplitude_exponent(self) -> Fraction:
        if self.amp_exp is not None:
            return self.amp_exp
        if self.kind is FamilyKind.EPS_BUMP_TRAIN:
            return self.eps
        if self.kind is FamilyKind.SCALED_BUMP_TRAIN:
            return -self.s - self.n * self.lam * (self.inv_p - 1)
        return -self.s

    def width_log2(self, j: int) -> Fraction:
        """log2 of the bump's inner scale at shell j."""
        if self.kind in _FIXED_WIDTH_KINDS:
            return Fraction(1)
        return self.lam * j

    @property
    def cardinality_type(self) -> bool:
        """True when the norm grows like count^(1/q) (flat weighted shells)."""
        return self.kind is not FamilyKind.EPS_BUMP_TRAIN


def bump_center(j: int, freq_spacing: float, n: int) -> np.ndarray:
    """Shell-j bump center (7/8) 2^j e1 snapped to the frequency lattice."""
    raw = 7.0 * 2.0 ** (j - 3)
    snapped = round(raw / freq_spacing) * freq_spacing
    center = np.zeros(n)
    center[0] = snapped
    return center


def build_family(family: LacunaryFamily, grid: Grid) -> Field:
    """Assemble the Fourier-domain field of the bump train.

    Every bump's lattice support must fall inside the closed band
    [(OUTER/2) 2^j, INNER 2^j] = [0.75 * 2^j, 2^j] where the shell-j cutoff
    is exactly 1 and all other cutoffs vanish; otherwise the family is
    rejected with the largest admissible count.
    """
    if grid.n != family.n:
        raise ValueError("family dimension does not match the grid")
    j_lo, j_hi = family.shells
    data = np.zeros(grid.shape, dtype=np.complex128)
    count_ok = 0
    for j in range(j_lo, j_hi + 1):
        center = bump_center(j, grid.freq_spacing, grid.n)
        scale = 2.0 ** float(family.width_log2(j))
        outer = center[0] + OUTER / scale
        if outer > grid.nyquist:
            raise ValueError(
                f"shell {j}: bump exceeds the frequency lattice; largest "
                f"admissible count for this grid and j0={family.j0} is {count_ok}"
            )
        r = np.sqrt(_radius2([grid.axis_freqs() - c for c in center]))
        bump = phi(scale * r)
        support = bump != 0.0
        if not support.any():
            raise ValueError(
                f"shell {j}: bump has no lattice support "
                f"(spacing {grid.freq_spacing:g} too coarse)"
            )
        radius = grid.freq_radius()[support]
        lo, hi = OUTER / 2 * 2.0 ** j, INNER * 2.0 ** j
        if radius.min() < lo - 1e-12 or radius.max() > hi + 1e-12:
            raise ValueError(
                f"shell {j}: bump support leaves the exact band of its shell; "
                f"largest admissible count for this grid and j0={family.j0} is {count_ok}"
            )
        data += 2.0 ** (float(family.amplitude_exponent) * j) * bump
        count_ok = j - j_lo + 1
    return Field(grid, Domain.FOURIER, data)


def gaussian(grid: Grid, width: float, center: Optional[Tuple[float, ...]] = None) -> Field:
    """exp(-|x - center|^2 / (2 width^2)) sampled with periodic wrapping."""
    if width < 4.0 * grid.spacing:
        raise ValueError("width must be at least 4 grid spacings")
    if width > grid.box_length / 8.0:
        raise ValueError("width must be at most box_length / 8")
    if center is None:
        center = (0.0,) * grid.n
    L = grid.box_length
    axis = grid.axis_coords()
    r2 = _radius2([(axis - c + L / 2.0) % L - L / 2.0 for c in center])
    return Field(grid, Domain.PHYSICAL, np.exp(-r2 / (2.0 * width ** 2)))


def random_band_limited(grid: Grid, k_lo: int, k_hi: int, seed: int) -> Field:
    """i.i.d. complex-Gaussian Fourier data on the annulus
    2^k_lo <= |xi| <= 2^k_hi, Hermitian-symmetrized so the physical field is
    real; deterministic in the seed."""
    lo, hi = grid.shell_bounds
    if not (lo <= k_lo <= k_hi <= hi):
        raise ValueError(f"band [{k_lo}, {k_hi}] outside the representable window [{lo}, {hi}]")
    r = grid.freq_radius()
    mask = (r >= 2.0 ** k_lo) & (r <= 2.0 ** k_hi)
    if not mask.any():
        raise ValueError("empty annulus on this lattice")
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    data = np.where(mask, data, 0.0)
    data = 0.5 * (data + _conjugate_reverse(data))
    data = np.where(mask, data, 0.0)  # keep the annulus exact after symmetrizing
    return Field(grid, Domain.FOURIER, data)


def positive_random_field(grid: Grid, seed: int) -> Field:
    """Nonnegative physical field: |smooth random band-limited field| on the
    band [k_min, k_min + 2], cut at the top guard shell."""
    k_lo = grid.k_min
    # two shells wide so the annulus always meets the lattice
    k_hi = min(k_lo + 2, grid.shell_bounds[1])
    base = to_physical(random_band_limited(grid, k_lo, k_hi, seed))
    return Field(grid, Domain.PHYSICAL, np.abs(base.data.real))
