"""Periodic-grid spectral engine.

Fields are sampled complex functions on an n-dimensional torus of period L
(n <= 3), stored in FFT layout: physical coordinates and frequencies both run
0, h, 2h, ..., then wrap to the negative half.  The forward transform uses
the continuum normalization

    F f(xi) = h^n * fftn(f),      f(x) = ifftn(F f) / h^n,

so that Fourier data approximates the integral transform of a function
concentrated inside the box, and norms computed with the quadrature weight
h^n carry their usual scaling laws.

The dyadic cutoff is fixed: psi equals 1 on |xi| <= INNER = 1, vanishes for
|xi| >= OUTER = 3/2, and phi = psi - psi(2 .) telescopes to an exact
partition of unity.  With the support radius 3/2 (rather than 2), phi is
identically 1 on the closed band [3/4, 1] and dyadically separated frequency
bumps fall in exactly one shell.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial
from typing import Optional, Tuple, Union

import numpy as np


class Domain(Enum):
    PHYSICAL = "physical"
    FOURIER = "fourier"


@dataclass(frozen=True)
class Grid:
    """Periodic grid: n dimensions, points_per_dim samples per axis, period L."""

    n: int
    points_per_dim: int
    box_length: float

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError("dimension n must be 1, 2, or 3")
        m = self.points_per_dim
        if m < 8 or (m & (m - 1)) != 0:
            raise ValueError("points_per_dim must be a power of two >= 8")
        if not 0 < self.box_length < math.inf:
            raise ValueError(f"box_length must be positive and finite; got {self.box_length}")

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.points_per_dim,) * self.n

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_dim

    @property
    def freq_spacing(self) -> float:
        return 2.0 * math.pi / self.box_length

    @property
    def nyquist(self) -> float:
        """Largest axis frequency magnitude on the lattice."""
        return self.freq_spacing * (self.points_per_dim // 2)

    @property
    def quadrature_weight(self) -> float:
        return self.spacing ** self.n

    # Shells with support fully inside the resolved band.  One guard shell on
    # each side is still usable: its lattice intersection is nonempty and any
    # band-limited content there projects exactly.
    @property
    def k_max(self) -> int:
        return int(math.floor(math.log2(self.nyquist))) - 1

    @property
    def k_min(self) -> int:
        return int(math.ceil(math.log2(self.freq_spacing))) + 1

    @property
    def shell_bounds(self) -> Tuple[int, int]:
        return (self.k_min - 1, self.k_max + 1)

    def axis_coords(self) -> np.ndarray:
        return _axis_coords(self.points_per_dim, self.box_length)

    def axis_freqs(self) -> np.ndarray:
        return _axis_freqs(self.points_per_dim, self.box_length)

    def freq_radius(self) -> np.ndarray:
        """|xi| on the full lattice, shape == grid.shape."""
        return _freq_radius(self.n, self.points_per_dim, self.box_length)

    @property
    def half_shape(self) -> Tuple[int, ...]:
        """Shape of a half spectrum: the last axis keeps 0 .. m/2."""
        return self.shape[:-1] + (self.points_per_dim // 2 + 1,)

    def coord_radius2(self) -> np.ndarray:
        """|x|^2 on the full lattice (FFT layout)."""
        return _coord_radius2(self.n, self.points_per_dim, self.box_length)


@lru_cache(maxsize=32)
def _axis_coords(m: int, length: float) -> np.ndarray:
    x = np.fft.fftfreq(m, d=1.0 / m) * (length / m)
    x.flags.writeable = False
    return x


@lru_cache(maxsize=32)
def _axis_freqs(m: int, length: float) -> np.ndarray:
    xi = 2.0 * math.pi * np.fft.fftfreq(m, d=length / m)
    xi.flags.writeable = False
    return xi


def _mesh(axes) -> list:
    """Lay 1-D per-axis arrays over the lattice: entry ax varies along axis ax."""
    return np.meshgrid(*axes, indexing="ij", sparse=True, copy=False)


def _radius2(axes) -> np.ndarray:
    """Sum over axes of the squared per-axis arrays, broadcast to the lattice."""
    # Out-of-place sums on a full zero array, not on the sparse axes alone:
    # under glibc's dynamic mmap threshold the allocation order moves peak
    # RSS, and the sparse start measured 5 % more on a 64^3 minimization.
    mesh = _mesh(axes)
    r2 = np.zeros(np.broadcast(*mesh).shape)
    for a in mesh:
        r2 = r2 + a ** 2
    return r2


@lru_cache(maxsize=16)
def _freq_radius(n: int, m: int, length: float) -> np.ndarray:
    r = np.sqrt(_radius2([_axis_freqs(m, length)] * n))
    r.flags.writeable = False
    return r


@lru_cache(maxsize=16)
def _coord_radius2(n: int, m: int, length: float) -> np.ndarray:
    r2 = _radius2([_axis_coords(m, length)] * n)
    r2.flags.writeable = False
    return r2


def make_grid(n: int, points_per_dim: int, box_length: float) -> Grid:
    return Grid(n, points_per_dim, float(box_length))


@dataclass(frozen=True)
class Field:
    """Immutable sampled field tagged with its current domain."""

    grid: Grid
    domain: Domain
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise ValueError(f"data shape {arr.shape} != grid shape {self.grid.shape}")
        if arr.flags.writeable:
            if np.may_share_memory(arr, self.data):  # still the caller's array
                arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @cached_property
    def is_real(self) -> bool:
        """Whether the field is exactly real: zero imaginary part in physical
        form, equality with its Hermitian mirror in Fourier form.  Decided
        once, on first use; round-off imaginary parts count as complex."""
        if self.domain is Domain.PHYSICAL:
            return not self.data.imag.any()
        return np.array_equal(self.data, _conjugate_reverse(self.data))


def _conjugate_reverse(arr: np.ndarray) -> np.ndarray:
    """Hermitian mirror conj(a[-k]) of FFT-layout data."""
    return np.conj(np.roll(np.flip(arr), 1, axis=tuple(range(arr.ndim))))


def _mark_real(field: Field, real: bool) -> Field:
    """Record whether `field` is exactly real, for a producer that knows it
    from how it built the field; Field.is_real then reads the record and
    builds no Hermitian mirror.  The record sits in the cached_property's
    slot, so is_real stays unsettable from outside."""
    field.__dict__["is_real"] = real
    return field


def _rfftn(arr: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """rfftn of a real array over every axis: its half spectrum [..., :m//2 + 1].
    Given out (complex, that shape), numpy runs rfft on the last axis into
    out and then fft in place on each other axis, from the last to the
    first, so no pass allocates; the bits are those of the fresh-array path."""
    return np.fft.rfftn(arr, out=out)


def _irfftn(grid: Grid, half: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """ifftn of a Hermitian spectrum given on its half lattice [..., :m//2 + 1],
    into out (real, grid.shape) when given.  The passes and their order are
    numpy's irfftn (ifft on axes 0 .. n-2, then irfft on the last axis), with
    the same bits, but no pass allocates: each ifft runs in place on half,
    and irfft writes into out.  So half is consumed: it must be writable,
    and it holds a partial transform afterwards."""
    for axis in range(grid.n - 1):
        np.fft.ifft(half, axis=axis, out=half)
    return np.fft.irfft(half, n=grid.points_per_dim, axis=-1, out=out)


# ---------------------------------------------------------------------------
# paired transforms


PAIR_POINTS = 2 ** 18  # grids from this many points run _both's halves on two threads


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker:
    """One daemon thread that runs the jobs handed to it one at a time, each
    in a copy of the handing thread's context, so numpy's errstate (a
    context variable) holds there as it does in the caller."""

    def __init__(self):
        self._ready = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._job = self._outcome = None
        threading.Thread(target=self._serve, name="gnlab-spectral", daemon=True).start()

    def _serve(self) -> None:
        # No local names the job: a job's closure holds its solve's arrays,
        # which would stay alive here until the next job.
        while True:
            self._ready.acquire()
            try:
                self._outcome = (self._job[0].run(self._job[1]), None)
            except BaseException as exc:  # raised in the caller by _both
                self._outcome = (None, exc)
            self._done.release()

    def submit(self, fn) -> None:
        self._job = (contextvars.copy_context(), fn)
        self._ready.release()

    def wait(self):
        """Wait for the submitted job: (its value, None), or (None, what it raised)."""
        self._done.acquire()
        outcome, self._job, self._outcome = self._outcome, None, None
        return outcome


_worker: Optional[_Worker] = None
_worker_free = threading.Lock()  # held while a _both call uses the worker


def _drop_worker() -> None:
    """In a forked child: the worker thread was not copied, so forget it
    (and a hold on it), and the child's first paired call starts its own."""
    global _worker, _worker_free
    _worker, _worker_free = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def _both(grid: Grid, first, second):
    """(first(), second()) for two independent jobs with no arguments.  On a
    grid of PAIR_POINTS points or more, in a process that may use two CPUs,
    second runs on the worker thread while the caller runs first; otherwise,
    or while another thread is using the worker, they run one after the
    other.  The jobs share no array, so their results are the same bits
    either way, and an exception comes from first before second."""
    global _worker
    if grid.points_per_dim ** grid.n < PAIR_POINTS or _usable_cpus() < 2 or not _worker_free.acquire(blocking=False):
        return first(), second()
    try:
        if _worker is None:
            _worker = _Worker()
        _worker.submit(second)
        try:
            a = first()
        finally:  # second may still be writing its arrays
            b, exc = _worker.wait()
        if exc is not None:
            raise exc
        return a, b
    finally:
        _worker_free.release()


def _resample(arr: np.ndarray, dst: Grid) -> np.ndarray:
    """Real samples arr on a grid of dst's dimension and box, carried to
    dst by their half spectrum: the block |k_i| < min(m_src, m_dst)/2 on
    every axis is copied, scaled by (m_dst/m_src)^n, and every other mode
    is zero.  A coarser dst truncates, a finer one zero-pads, and the
    coarser grid's Nyquist planes are dropped either way, so a field
    band-limited below them comes back to round-off."""
    m_src, m_dst = arr.shape[0], dst.points_per_dim
    c = min(m_src, m_dst) // 2

    def block(m):  # |k_i| < c on the half spectrum of an m-point grid
        return np.ix_(*[np.r_[0:c, m - c + 1:m]] * (dst.n - 1), np.arange(c))

    half = np.zeros(dst.half_shape, np.complex128)
    half[block(m_dst)] = _rfftn(arr)[block(m_src)] * (m_dst / m_src) ** dst.n
    return _irfftn(dst, half)


def _spectrum(hat: Field, real: bool):
    """(data, inverse) for inverting the Fourier field hat: its half spectrum
    (the rest is its Hermitian mirror) and irfftn if it is real, its full
    spectrum and ifftn otherwise.  Neither divides by the quadrature weight."""
    if real:
        return hat.data[..., : hat.grid.points_per_dim // 2 + 1], partial(_irfftn, hat.grid)
    return hat.data, np.fft.ifftn


def _form(grid: Grid, raw: np.ndarray, w: np.ndarray, work) -> float:
    """(1/L^n) sum w |f^|^2 over the full lattice, from the half spectrum
    raw = rfftn(f).  The mirror of an interior plane of the last axis is
    absent from raw, so those planes count twice; the planes 0 and m/2 are
    their own mirrors (m is even) and count once.  work, a (complex, real)
    pair of raw's shape or (None, None), holds the pointwise terms."""
    hat, p = work
    hat = np.multiply(raw, grid.quadrature_weight, out=hat)
    p = np.abs(hat, out=p)
    p *= p
    p *= w
    total = 2.0 * np.sum(p) - np.sum(p[..., 0]) - np.sum(p[..., -1])
    return float(total / grid.box_length ** grid.n)


def transform(field: Field, direction: Domain) -> Field:
    """Transform to `direction`; errors if the field is already there."""
    if field.domain == direction:
        raise ValueError(f"field already in {direction.value} domain")
    w = field.grid.quadrature_weight
    if direction is Domain.FOURIER:
        out = np.fft.fftn(field.data) * w
    else:
        out = np.fft.ifftn(field.data) / w
    return Field(field.grid, direction, out)


def to_fourier(field: Field) -> Field:
    return field if field.domain is Domain.FOURIER else transform(field, Domain.FOURIER)


def to_physical(field: Field) -> Field:
    return field if field.domain is Domain.PHYSICAL else transform(field, Domain.PHYSICAL)


# ---------------------------------------------------------------------------
# dyadic cutoff


INNER = 1.0
OUTER = 1.5


def psi(t: np.ndarray) -> np.ndarray:
    """1 on t <= INNER, 0 on t >= OUTER, smooth in between."""
    t = np.asarray(t, dtype=float)
    out = np.where(t <= INNER, 1.0, 0.0)
    band = (t > INNER) & (t < OUTER)
    mid = t[band]  # exp only on the transition band
    a = np.exp(-1.0 / (OUTER - mid))
    b = np.exp(-1.0 / (mid - INNER))
    out[band] = a / (a + b)
    return out


def phi(t: np.ndarray) -> np.ndarray:
    """psi(t) - psi(2t): 1 on [OUTER/2, INNER], 0 off (INNER/2, OUTER)."""
    t = np.asarray(t, dtype=float)
    return psi(t) - psi(2.0 * t)


@lru_cache(maxsize=16)
def _radius_levels(n: int, m: int, length: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct lattice radii and, per lattice point, the index of its radius,
    on the full lattice and on the half lattice [..., :m//2 + 1].

    Radial multipliers are evaluated on the few thousand levels and gathered
    back (_radial); they are elementwise, so this is bit-identical to evaluating
    them on the full radius array.
    """
    levels, inverse = np.unique(_freq_radius(n, m, length), return_inverse=True)
    inverse = inverse.astype(np.int32).reshape((m,) * n)
    half = np.ascontiguousarray(inverse[..., : m // 2 + 1])
    for arr in (levels, inverse, half):
        arr.flags.writeable = False
    return levels, inverse, half


def _annulus(grid: Grid, k_lo: int, k_hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat FFT-layout indices of the lattice annulus 2^k_lo <= |xi| <= 2^k_hi,
    ascending, and for each one the position in that list of its mirror -xi.

    The annulus is its own mirror: a lattice frequency and its negative have
    bit-equal radii (fftfreq is antisymmetric exactly; the Nyquist index m/2
    is its own mirror), so the positions are a permutation.  Not memoized:
    a memo filled between a solver's large temporaries pins the heap, and
    a 64^3 minimization from positive_random_field peaked 6 MB higher.
    """
    shape = grid.shape
    r = grid.freq_radius()
    idx = np.flatnonzero((r >= 2.0 ** k_lo) & (r <= 2.0 ** k_hi))
    neg = tuple(-i % grid.points_per_dim for i in np.unravel_index(idx, shape))
    return idx, np.searchsorted(idx, np.ravel_multi_index(neg, shape))


def _radial(grid: Grid, fn, half: bool = False) -> np.ndarray:
    """fn(|xi|), evaluated on the distinct radii of _radius_levels and gathered
    onto the full lattice or the half lattice [..., :m//2 + 1]."""
    levels, inverse, half_inverse = _radius_levels(grid.n, grid.points_per_dim, grid.box_length)
    return fn(levels)[half_inverse if half else inverse]


def _radii_at(grid: Grid, flat: np.ndarray, half: bool) -> np.ndarray:
    """The distinct radii |xi| at the flat positions `flat` of the full
    lattice, or of the half lattice [..., :m//2 + 1]: the _radius_levels
    levels they index, so a radial multiplier's profile evaluated on them
    gives the multiplier's values there bit for bit."""
    levels, inverse, half_inverse = _radius_levels(grid.n, grid.points_per_dim, grid.box_length)
    return levels[np.unique((half_inverse if half else inverse).ravel()[flat])]


def _cutoff_profile(k: Optional[int]):
    """The cutoff's profile in |xi|: r -> phi(2^-k r), or psi for k None."""
    return psi if k is None else lambda r: phi(r * (2.0 ** (-k)))


def _cutoff(grid: Grid, k: Optional[int], half: bool = False) -> np.ndarray:
    """phi(2^-k |xi|), or psi(|xi|) for k None, on the full or the half lattice."""
    return _radial(grid, _cutoff_profile(k), half)


# ---------------------------------------------------------------------------
# Fourier multipliers


@dataclass(frozen=True)
class FracLaplacian:
    """(-Laplacian)^(s/2): multiplication by |xi|^s, zero mode mapped to 0."""

    s: float


@dataclass(frozen=True)
class Bessel:
    """(m^2 - Laplacian)^(s/2): multiplication by (m^2 + |xi|^2)^(s/2)."""

    s: float
    m2: float = 1.0


@dataclass(frozen=True)
class RieszPotential:
    """(-Laplacian)^(-beta/2): multiplication by |xi|^-beta, zero mode -> 0.

    The convolution kernel |x|^-(n-beta) equals riesz_constant(n, beta)
    times this operator.
    """

    beta: float


Symbol = Union[FracLaplacian, Bessel, RieszPotential]

ZERO_MODE_TOLERANCE = 1e-10


def zero_mode_fraction(field: Field) -> float:
    """|mean mode| relative to the total Fourier mass (0 for the zero field)."""
    hat = to_fourier(field)
    total = float(np.sum(np.abs(hat.data)))
    if total == 0.0:
        return 0.0
    return float(np.abs(hat.data.flat[0])) / total


def symbol_values(grid: Grid, symbol: Symbol, half: bool = False) -> np.ndarray:
    """The multiplier of `symbol` on the full lattice, or on the half lattice
    of a real field's spectrum; evaluated on the distinct radii and gathered."""
    if isinstance(symbol, Bessel):
        if symbol.m2 < 0:
            raise ValueError("Bessel symbol needs m^2 >= 0")
        if symbol.m2 != 0:
            return _radial(grid, lambda r: (symbol.m2 + r ** 2) ** (float(symbol.s) / 2.0), half)
        symbol = FracLaplacian(symbol.s)
    if isinstance(symbol, FracLaplacian):
        power = float(symbol.s)
        if power == 0:
            return _radial(grid, np.ones_like, half)
    elif isinstance(symbol, RieszPotential):
        beta = float(symbol.beta)
        if not (0 < beta < grid.n):
            raise ValueError(f"beta must lie in (0, n); got {beta} with n={grid.n}")
        power = -beta
    else:
        raise TypeError(f"unknown symbol {symbol!r}")

    def fn(r):  # r^power, with the zero mode r[0] = 0 mapped to 0
        vals = np.where(r > 0, r, 1.0) ** power
        vals[0] = 0.0
        return vals
    return _radial(grid, fn, half)


def riesz_constant(n: int, beta: float) -> float:
    """c(n, beta) with  F[|x|^-(n-beta)] = c(n, beta) |xi|^-beta.

    c(n, beta) = 2^beta pi^(n/2) Gamma(beta/2) / Gamma((n-beta)/2).
    """
    if not (0 < beta < n):
        raise ValueError("beta must lie in (0, n)")
    return (
        2.0 ** beta
        * math.pi ** (n / 2.0)
        * math.gamma(beta / 2.0)
        / math.gamma((n - beta) / 2.0)
    )
