"""Independent oracles used by the test suite.

Everything here avoids the package's spectral path: the lattice interaction
kernel is built from the Gamma-integral representation of |xi|^-beta with
separable 1d trigonometric sums (no FFT, no multiplier code), and integrals
of known closed forms are evaluated with scipy quadrature.
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def lattice_riesz_kernel(M: int, L: float, n: int, beta: float,
                         nodes_per_unit: int = 8, t_min: float = 1e-12,
                         t_max: float = 200.0) -> np.ndarray:
    """K0(d) = (1/L^n) sum_{xi != 0} |xi|^-beta e^(i xi . d) over the finite
    frequency lattice, via |xi|^-beta = Gamma(beta/2)^-1 int t^(beta/2-1)
    e^(-t |xi|^2) dt and per-axis cosine sums."""
    xi = 2 * math.pi * np.fft.fftfreq(M, d=L / M)
    d = np.fft.fftfreq(M, d=1.0 / M) * (L / M)
    span = math.log(t_max) - math.log(t_min)
    us = np.linspace(math.log(t_min), math.log(t_max), int(nodes_per_unit * span) + 1)
    ts = np.exp(us)
    du = us[1] - us[0]
    S = np.zeros((ts.size, M))
    cos_table = np.cos(np.outer(d, xi))
    for i, t in enumerate(ts):
        S[i] = (np.exp(-t * xi ** 2)[None, :] * cos_table).sum(axis=1)
    bracket = np.ones((ts.size,) + (M,) * n)
    for ax in range(n):
        shape = [ts.size] + [1] * n
        shape[1 + ax] = M
        bracket = bracket * S.reshape(shape)
    bracket -= 1.0
    weights = (ts ** (beta / 2.0)) * du
    return np.tensordot(weights, bracket, axes=(0, 0)) / (L ** n * math.gamma(beta / 2.0))


def pair_interaction_product_density(axis_factors, kernel: np.ndarray, weight: float) -> float:
    """w^2 sum_{x,y} rho(x) rho(y) K(x - y) for rho = prod_k f_k(x_k), grouped
    by displacement through per-axis circular autocorrelations (direct sums)."""
    n = kernel.ndim
    M = kernel.shape[0]
    corr = []
    for f in axis_factors:
        corr.append(np.array([float(np.sum(f * np.roll(f, -d))) for d in range(M)]))
    C = np.ones(kernel.shape)
    for ax in range(n):
        shape = [1] * n
        shape[ax] = M
        C = C * corr[ax].reshape(shape)
    return float(np.sum(kernel * C)) * weight * weight


def pair_interaction_general(rho: np.ndarray, kernel: np.ndarray, weight: float,
                             block: int = 512) -> float:
    """Literal double sum over grid pairs, O(N^2); for modest grids only."""
    flat = rho.ravel()
    n = rho.ndim
    M = rho.shape[0]
    idx = np.indices(rho.shape).reshape(n, -1)
    total = 0.0
    for i0 in range(0, flat.size, block):
        sl = slice(i0, min(i0 + block, flat.size))
        disp = (idx[:, sl, None] - idx[:, None, :]) % M
        kv = kernel[tuple(disp)]
        total += float(np.einsum("i,ij,j->", flat[sl], kv, flat))
    return total * weight * weight


def convolve_with_kernel(rho: np.ndarray, kernel: np.ndarray, weight: float,
                         points) -> np.ndarray:
    """(K * rho)(x) at selected index tuples by direct summation."""
    n = rho.ndim
    M = rho.shape[0]
    out = []
    grids = np.indices(rho.shape)
    for pt in points:
        disp = tuple((np.asarray(pt)[k] - grids[k]) % M for k in range(n))
        out.append(float(np.sum(kernel[disp] * rho)) * weight)
    return np.asarray(out)


def dilate_reference(data: np.ndarray, physical: bool, L: float, log2_lambda: int,
                     l2_normalized: bool) -> np.ndarray:
    """Dyadic dilation of FFT-layout samples by two-branch strided resampling.

    Enlarging (log2_lambda > 0): resample physical samples at stride 2^m and
    keep the points with every coordinate |x_k| < L / (2 stride).  Shrinking:
    resample the Fourier data at stride 2^|m| and keep the points with every
    lattice index |k| < M / (2 stride).  Gathers and masks use explicit
    np.indices arrays; transforms are fftn * h^n and ifftn / h^n.  The result
    is returned in the input's domain.  log2_lambda = 0 returns data itself,
    and a stride of at least M, which would keep only the origin sample,
    raises ValueError.
    """
    n = data.ndim
    M = data.shape[0]
    w = (L / M) ** n
    m = int(log2_lambda)
    if m == 0:
        return data
    lam = 2.0 ** m
    a = n / 2.0 if l2_normalized else 0.0
    stride = 2 ** abs(m)
    if stride >= M:
        raise ValueError("dilation stride exceeds grid size")
    idx = np.indices(data.shape)
    gather = tuple((i * stride) % M for i in idx)
    if m > 0:
        src = data if physical else np.fft.ifftn(data) / w
        coords = np.fft.fftfreq(M, d=1.0 / M) * (L / M)
        keep = np.all(np.abs(coords[idx]) < L / (2.0 * stride), axis=0)
        out = np.where(keep, src[gather], 0.0) * (lam ** a)
        return out if physical else np.fft.fftn(out) * w
    src = np.fft.fftn(data) * w if physical else data
    kk = np.fft.fftfreq(M, d=1.0 / M)
    keep = np.all(np.abs(kk[idx]) < M / (2.0 * stride), axis=0)
    out = np.where(keep, src[gather], 0.0) * (lam ** (a - n))
    return np.fft.ifftn(out) / w if physical else out


def pointwise_symbol(r: np.ndarray, symbol) -> np.ndarray:
    """A spectral symbol (FracLaplacian, Bessel or RieszPotential) evaluated
    at every point of the radius array r, whose first entry is the zero
    mode: the full-lattice formulas, with no table of distinct radii."""
    kind = type(symbol).__name__
    if kind == "Bessel" and symbol.m2 != 0:
        return (symbol.m2 + r ** 2) ** (float(symbol.s) / 2.0)
    if kind == "RieszPotential":
        vals = np.where(r > 0, r, 1.0) ** (-float(symbol.beta))
    elif float(symbol.s) == 0:
        return np.ones_like(r)
    else:
        with np.errstate(divide="ignore"):
            vals = np.where(r > 0, r, 1.0) ** float(symbol.s)
    vals.flat[0] = 0.0
    return vals


def sobolev_l2_parseval(hat: np.ndarray, r: np.ndarray, symbol, L: float) -> float:
    """||M f||_2 by Parseval over the whole frequency lattice: the square root
    of (1/L^n) sum |m(xi) f^(xi)|^2, with f^ = fftn(f) h^n given on the full
    lattice and m the symbol at the radii r."""
    total = float(np.sum((pointwise_symbol(r, symbol) * np.abs(hat)) ** 2))
    return math.sqrt(total / L ** hat.ndim)


def _lattice_radius(n: int, M: int, L: float) -> np.ndarray:
    """|xi| on the full FFT-layout frequency lattice, summed axis by axis."""
    xi = 2.0 * math.pi * np.fft.fftfreq(M, d=L / M)
    r2 = np.zeros((M,) * n)
    for ax in range(n):
        shape = [1] * n
        shape[ax] = M
        r2 = r2 + xi.reshape(shape) ** 2
    return np.sqrt(r2)


def band_limited_full_lattice(n: int, M: int, L: float, k_lo: int, k_hi: int,
                              seed: int) -> np.ndarray:
    """Random band-limited Fourier data built on the whole lattice: the
    library's counter-based complex Gaussian draw at every lattice index,
    masked to the annulus 2^k_lo <= |xi| <= 2^k_hi by np.where, then averaged
    with its Hermitian mirror conj(a[-xi]), taken by a flip and a roll of the
    full array."""
    from gnlab.testfuncs import _complex_normals

    r = _lattice_radius(n, M, L)
    mask = (r >= 2.0 ** k_lo) & (r <= 2.0 ** k_hi)
    data = _complex_normals(seed, np.arange(r.size)).reshape(r.shape)
    data = np.where(mask, data, 0.0)
    mirror = np.conj(np.roll(np.flip(data), 1, axis=tuple(range(n))))
    return 0.5 * (data + mirror)


def splitmix64_normal_pair(seed: int, index: int) -> Tuple[float, float]:
    """The (re, im) draw of one lattice index, restated in Python ints and
    the math module: the seed's 64-bit words, lowest first, are folded into
    a state by the SplitMix64 finalizer (Steele, Lea and Flood 2014); the
    finalizer of state + c gamma for the counters c = 2 index and
    2 index + 1 gives two uniforms by its top 53 bits, and Box-Muller turns
    them into two normals."""
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    words = [seed & mask]
    while seed >> 64:
        seed >>= 64
        words.append(seed & mask)
    state = 0
    for word in words:
        state = mix(((state ^ word) + gamma) & mask)
    u1, u2 = ((mix((state + (2 * index + j) * gamma) & mask) >> 11) / 2.0 ** 53 for j in (0, 1))
    radius = math.sqrt(-2.0 * math.log1p(-u1))
    return radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)


def psi_full_array(t: np.ndarray, inner: float = 1.0, outer: float = 1.5) -> np.ndarray:
    """The smooth cutoff a / (a + b), a = h(outer - t), b = h(t - inner) with
    h(x) = exp(-1/x) for x > 0 and 0 otherwise, with h evaluated on every
    sample; 1 on t <= inner."""
    t = np.asarray(t, dtype=float)

    def h(x):
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    a, b = h(outer - t), h(t - inner)
    mid = np.zeros_like(t)
    band = (t > inner) & (t < outer)
    mid[band] = a[band] / (a[band] + b[band])
    return np.where(t <= inner, 1.0, mid)
