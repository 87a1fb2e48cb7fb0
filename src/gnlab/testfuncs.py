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
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .rational import as_fraction, as_int
from .spectral import (
    INNER,
    OUTER,
    Domain,
    Field,
    Grid,
    _annulus,
    _mark_real,
    _radius2,
    phi,
    to_physical,
)


class FamilyKind(Enum):
    EPS_BUMP_TRAIN = "EpsBumpTrain"
    SCALED_BUMP_TRAIN = "ScaledBumpTrain"
    SINGLE_AMPLITUDE_TRAIN = "SingleAmplitudeTrain"


# Fixed-width kinds use the bump phi(2 (xi - xi_j)); the scaled kind uses
# phi(2^(lambda j) (xi - xi_j)) so the width shrinks as the shells climb.
_FIXED_WIDTH_KINDS = (
    FamilyKind.EPS_BUMP_TRAIN,
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
        object.__setattr__(self, "index", as_int(self.index, "index"))
        if self.index < 1:
            raise ValueError("index (bump count) must be >= 1")
        for name in ("eps", "s", "inv_p", "lam"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.kind is FamilyKind.SCALED_BUMP_TRAIN and self.lam < 0:
            raise ValueError("scaled trains require lambda >= 0")
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
    """Assemble the Fourier-domain field of the bump train with family.index
    bumps, each checked to lie in the exact band of its shell.

    This is the one-count case of family_members, which builds several
    counts in one pass over the shells.  Member c there is member c-1 plus
    bump c, the same additions in the same order as here, so each member is
    bit-identical to build_family of its count.
    """
    return next(family_members(family, grid, (family.index,)))


def family_members(family: LacunaryFamily, grid: Grid, counts: Sequence[int]) -> Iterator[Field]:
    """The members of the train with `counts` bumps (increasing), built in
    one pass over the shells; family.index is not read.

    Member c's data are member c-1's plus bump c: the sum 0 + b_1 + ... + b_c
    in that order, as a separate build of c bumps forms it, so every member
    is bit-identical to build_family of that count.  Each sum is a fresh
    array, so a member handed out keeps its data and the generator holds no
    copy of its own.  Every bump's lattice support must fall inside the
    closed band [(OUTER/2) 2^j, INNER 2^j] = [0.75 * 2^j, 2^j] where the
    shell-j cutoff is exactly 1 and all other cutoffs vanish; otherwise the
    family is rejected with the largest admissible count.

    A bump is nonnegative and vanishes off |xi - center| < OUTER / scale, so
    when center[0] >= OUTER / scale it lies in the half-space xi_1 > 0.  A
    member whose bumps all do so is nonzero there and zero on the mirror
    points, so it is not real; it is recorded as such, and Field.is_real
    builds no Hermitian mirror for it.  Any other member is left to decide.
    """
    if grid.n != family.n:
        raise ValueError("family dimension does not match the grid")
    counts = list(counts)
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("member counts must be strictly increasing")
    if min(counts) < 1:
        raise ValueError("index (bump count) must be >= 1")
    j_lo = family.j0
    wanted = set(counts)
    data = np.zeros(grid.shape, dtype=np.complex128)
    count_ok = 0
    one_sided = True
    for j in range(j_lo, j_lo + counts[-1]):
        center = bump_center(j, grid.freq_spacing, grid.n)
        scale = 2.0 ** float(family.width_log2(j))
        outer = center[0] + OUTER / scale
        one_sided = one_sided and center[0] >= OUTER / scale
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
        data = data + 2.0 ** (float(family.amplitude_exponent) * j) * bump
        del r, bump, support, radius
        count_ok = j - j_lo + 1
        if count_ok in wanted:
            data.flags.writeable = False  # Field keeps it without a copy
            member = Field(grid, Domain.FOURIER, data)
            yield _mark_real(member, False) if one_sided else member


def gaussian(grid: Grid, width: float, center: Optional[Tuple[float, ...]] = None) -> Field:
    """exp(-|x - center|^2 / (2 width^2)) sampled with periodic wrapping."""
    if center is None:
        center = (0.0,) * grid.n
    if len(center) != grid.n:
        raise ValueError(f"center has {len(center)} coordinates; the grid has n = {grid.n}")
    if not width >= 4.0 * grid.spacing:  # written so that NaN fails too
        raise ValueError("width must be at least 4 grid spacings")
    if not width <= grid.box_length / 8.0:
        raise ValueError("width must be at most box_length / 8")
    L = grid.box_length
    axis = grid.axis_coords()
    r2 = _radius2([(axis - c + L / 2.0) % L - L / 2.0 for c in center])
    return Field(grid, Domain.PHYSICAL, np.exp(-r2 / (2.0 * width ** 2)))


def random_band_limited(grid: Grid, k_lo: int, k_hi: int, seed: int) -> Field:
    """i.i.d. complex-Gaussian Fourier data on the annulus
    2^k_lo <= |xi| <= 2^k_hi, Hermitian-symmetrized so the physical field is
    real; deterministic in the seed.

    The draws cover the whole lattice, so the values do not depend on the
    band; the average 0.5 (a(xi) + conj(a(-xi))) is formed on the annulus
    only (see spectral._annulus) and scattered into zeros.  The field is
    recorded as real, so Field.is_real costs nothing."""
    lo, hi = grid.shell_bounds
    if not (lo <= k_lo <= k_hi <= hi):
        raise ValueError(f"band [{k_lo}, {k_hi}] outside the representable window [{lo}, {hi}]")
    idx, swap = _annulus(grid, k_lo, k_hi)
    if not idx.size:
        raise ValueError("empty annulus on this lattice")
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(grid.shape).ravel()
    im = rng.standard_normal(grid.shape).ravel()
    a = re[idx] + 1j * im[idx]
    data = np.zeros(grid.shape, dtype=np.complex128)
    data.flat[idx] = 0.5 * (a + np.conj(a[swap]))
    data.flags.writeable = False  # Field keeps it without a copy
    return _mark_real(Field(grid, Domain.FOURIER, data), True)


def positive_random_field(grid: Grid, seed: int) -> Field:
    """Nonnegative physical field: |smooth random band-limited field| on the
    band [k_min, k_min + 2], cut at the top guard shell."""
    k_lo = grid.k_min
    # two shells wide so the annulus always meets the lattice
    k_hi = min(k_lo + 2, grid.shell_bounds[1])
    base = to_physical(random_band_limited(grid, k_lo, k_hi, seed))
    return Field(grid, Domain.PHYSICAL, np.abs(base.data.real))
