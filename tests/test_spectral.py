"""Spectral engine tests: transforms, projectors, symbols, dilation, GNF1."""
import gc
import math
import sys
import threading
import weakref
from functools import partial

import numpy as np
import pytest

from gnlab import spectral
from gnlab.fieldio import read_gnf, write_gnf
from gnlab.norms import NormFamily, NormSpec, norm_values
from gnlab.spectral import (
    Bessel,
    Domain,
    Field,
    FracLaplacian,
    RieszPotential,
    make_grid,
    phi,
    psi,
    riesz_constant,
    to_fourier,
    to_physical,
    transform,
)
from gnlab.spectral import _both, _cutoff, _resample
from gnlab.testfuncs import gaussian, random_band_limited
from instruments import apply_symbol, dilate, dyadic_project, lowpass_multiplier, partition_check
from oracles import dilate_reference


def plane_wave(grid, xi0):
    axis = grid.axis_coords()
    phase = np.zeros(grid.shape)
    for ax in range(grid.n):
        shape = [1] * grid.n
        shape[ax] = grid.points_per_dim
        phase = phase + xi0[ax] * axis.reshape(shape)
    return Field(grid, Domain.PHYSICAL, np.exp(1j * phase))


class TestGrid:
    def test_small_lattice(self):
        g = make_grid(1, 8, 2 * math.pi)
        assert sorted(g.axis_freqs()) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_freq_spacing(self):
        g = make_grid(2, 16, 32 * math.pi)
        assert g.freq_spacing == pytest.approx(1 / 16)

    def test_point_count(self):
        g = make_grid(3, 64, 2 * math.pi)
        assert np.prod(g.shape) == 262144

    @pytest.mark.parametrize("n,m", [(0, 16), (4, 16), (1, 12), (1, 4)])
    def test_rejects_bad_shapes(self, n, m):
        with pytest.raises(ValueError):
            make_grid(n, m, 1.0)

    @pytest.mark.parametrize("n,m", [(True, 8), (2.0, 8), (1, 8.0), (1, True), ("2", 8)])
    def test_rejects_non_integer_sizes(self, n, m):
        """Grid(True, 8, 1.0) and Grid(2.0, 8, 1.0) were accepted, and
        points_per_dim 8.0 was a bare TypeError from the power-of-two test."""
        with pytest.raises(ValueError, match="must be an integer"):
            make_grid(n, m, 1.0)

    def test_numpy_integer_sizes_accepted(self):
        assert make_grid(np.int64(2), np.int64(16), 1.0) == make_grid(2, 16, 1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_box(self, length):
        """An infinite box used to build and fail later in k_min with
        "math domain error"."""
        with pytest.raises(ValueError, match="box_length must be positive and finite"):
            make_grid(1, 64, length)


class TestTransform:
    def test_zero_field(self):
        g = make_grid(1, 16, 5.0)
        z = Field(g, Domain.PHYSICAL, np.zeros(16))
        assert np.all(transform(z, Domain.FOURIER).data == 0)

    def test_plane_wave_spike(self):
        g = make_grid(2, 32, 8 * math.pi)
        xi0 = (3 * g.freq_spacing, -2 * g.freq_spacing)
        hat = to_fourier(plane_wave(g, xi0))
        mags = np.abs(hat.data)
        peak = np.unravel_index(np.argmax(mags), mags.shape)
        assert peak == (3, 32 - 2)
        assert mags[peak] == pytest.approx(g.box_length ** 2, rel=1e-12)
        mags[peak] = 0.0
        assert mags.max() < 1e-9 * g.box_length ** 2

    def test_roundtrip_random(self):
        g = make_grid(3, 16, 3.0)
        rng = np.random.default_rng(0)
        f = Field(g, Domain.PHYSICAL,
                  rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        back = to_physical(to_fourier(f))
        assert np.max(np.abs(back.data - f.data)) < 1e-12 * np.max(np.abs(f.data))

    def test_parseval_weighted(self):
        g = make_grid(2, 64, 11.0)
        for seed in range(100):
            f = to_physical(random_band_limited(g, g.k_min, g.k_max, seed))
            hat = to_fourier(f)
            phys = norm_values(f, [NormSpec(NormFamily.LEBESGUE, p=2)])[0]
            four = math.sqrt(float(np.sum(np.abs(hat.data) ** 2)) / g.box_length ** g.n)
            assert phys == pytest.approx(four, rel=1e-12)

    def test_domain_mismatch_rejected(self):
        g = make_grid(1, 16, 5.0)
        f = Field(g, Domain.PHYSICAL, np.zeros(16))
        with pytest.raises(ValueError):
            transform(f, Domain.PHYSICAL)


class TestCutoff:
    def test_profile_plateaus(self):
        t = np.array([0.0, 0.5, 1.0, 1.2, 1.5, 2.0])
        vals = psi(t)
        assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
        assert 0 < vals[3] < 1
        assert vals[4] == 0.0 and vals[5] == 0.0

    def test_psi_equals_full_array_formula(self):
        """psi evaluates exp on its transition band only; the values are the
        bytes of the formula evaluated on every sample."""
        from oracles import psi_full_array

        t = np.concatenate([
            np.linspace(0.0, 2.0, 20001),
            [1.0, 1.5, np.nextafter(1.0, 2.0), np.nextafter(1.5, 0.0), -1.0, np.inf, np.nan],
        ])
        for x in (t, 2.0 * t, t * 0.37):
            assert psi(x).tobytes() == psi_full_array(x).tobytes()
        assert psi(1.25) == psi_full_array(1.25) and psi(1.25).shape == ()

    def test_phi_exact_one_on_band(self):
        t = np.array([0.75, 0.9, 1.0])
        assert np.all(phi(t) == 1.0)

    @pytest.mark.parametrize("n,m,L", [(1, 2 ** 14, 2 * math.pi), (2, 1024, 2 * math.pi), (3, 64, 2 * math.pi)])
    def test_partition_of_unity(self, n, m, L):
        rep = partition_check(make_grid(n, m, L))
        assert rep.max_deviation <= 1e-12
        assert rep.max_deviation_inhomog <= 1e-12
        assert rep.origin_value == 0.0  # homogeneous sum excludes the origin


class TestMultipliers:
    """Multipliers gathered from the per-grid radius table equal the cutoffs
    evaluated on the full radius array, bit for bit."""

    @pytest.mark.parametrize("n,m", [(1, 2 ** 16), (2, 256), (3, 64)])
    def test_equal_to_direct_evaluation(self, n, m):
        g = make_grid(n, m, 4 * math.pi)
        r = g.freq_radius()
        lo, hi = g.shell_bounds
        for k in range(lo, hi + 1):  # guard shells included
            assert np.array_equal(_cutoff(g, k), phi(r * 2.0 ** (-k)))
        assert np.array_equal(lowpass_multiplier(g), psi(r))

    def test_returned_arrays_are_private(self):
        g = make_grid(2, 64, 4 * math.pi)
        r = g.freq_radius()
        shell = _cutoff(g, 2)
        low = lowpass_multiplier(g)
        shell[...] = 7.0
        low[...] = 7.0
        assert np.array_equal(_cutoff(g, 2), phi(r * 0.25))
        assert np.array_equal(lowpass_multiplier(g), psi(r))


SYMBOLS = [
    FracLaplacian(0),
    FracLaplacian(1.5),
    FracLaplacian(-2.0),
    Bessel(2.0, 0.0),
    Bessel(-2.0, 1.0),
    Bessel(1.5, 0.5),
    RieszPotential(0.5),
]


class TestHalfLattice:
    @pytest.mark.parametrize("n,m", [(1, 2 ** 16), (2, 256), (3, 64)])
    def test_half_gather_is_the_full_gather_sliced(self, n, m):
        from gnlab.spectral import _cutoff, symbol_values

        g = make_grid(n, m, 4 * math.pi)
        lo, hi = g.shell_bounds
        for k in [None, *range(lo, hi + 1)]:
            half = _cutoff(g, k, half=True)
            assert half.flags.c_contiguous
            assert np.array_equal(half, _cutoff(g, k)[..., : m // 2 + 1])
        for sym in SYMBOLS:
            half = symbol_values(g, sym, half=True)
            assert half.flags.c_contiguous
            assert np.array_equal(half, symbol_values(g, sym)[..., : m // 2 + 1])

    @pytest.mark.parametrize("n,m,L", [(1, 2 ** 16, 4 * math.pi), (2, 256, 4 * math.pi),
                                       (3, 64, 4 * math.pi), (3, 32, 7.3)])
    def test_symbols_equal_pointwise_evaluation(self, n, m, L):
        """Symbols gathered from the radius levels equal the symbol
        formulas evaluated at every lattice point, zero mode included."""
        from oracles import pointwise_symbol

        from gnlab.spectral import symbol_values

        g = make_grid(n, m, L)
        r = g.freq_radius()
        for sym in SYMBOLS:
            assert np.array_equal(symbol_values(g, sym), pointwise_symbol(r, sym)), sym


class TestRealTransforms:
    """_rfftn and _irfftn, the only real transforms of the variational layer,
    return the bits of numpy's rfftn and irfftn, into a given out or a fresh
    array.  _irfftn consumes its input, so each call gets a copy."""

    SHAPES = [(1, 4096), (1, 65536), (2, 256), (3, 16), (3, 32), (3, 64)]

    @pytest.mark.parametrize("n,m", SHAPES)
    def test_equal_to_numpy(self, n, m):
        from gnlab.spectral import _irfftn, _rfftn

        g = make_grid(n, m, 10.0)
        arr = np.random.default_rng(m + n).standard_normal(g.shape)
        half = np.fft.rfftn(arr)
        assert half.shape == g.half_shape
        inverse = np.fft.irfftn(half, s=g.shape, axes=tuple(range(n)))
        for out in (None, np.empty(g.half_shape, np.complex128)):
            got = _rfftn(arr, out)
            assert out is None or got is out
            assert np.array_equal(got, half)
        for out in (None, np.empty(g.shape)):
            got = _irfftn(g, half.copy(), out)
            assert out is None or got is out
            assert np.array_equal(got, inverse)


class TestPairedJobs:
    """spectral._both: the second job runs on a thread of its own, one per
    call, from PAIR_POINTS grid points in a process with two CPUs, on the
    caller's thread otherwise, and the results and exceptions come back as
    from running the jobs one after the other."""

    @staticmethod
    def thread_ids(grid):
        return _both(grid, threading.get_ident, threading.get_ident)

    def test_threads_by_grid_and_cpus(self, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        me = threading.get_ident()
        assert self.thread_ids(make_grid(3, 32, 1.0)) == (me, me)
        assert self.thread_ids(make_grid(2, 256, 1.0)) == (me, me)
        first, second = self.thread_ids(make_grid(2, 512, 1.0))
        assert first == me != second
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 1)
        assert self.thread_ids(make_grid(3, 64, 1.0)) == (me, me)

    def test_results_and_exceptions(self, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        g = make_grid(3, 64, 1.0)
        assert _both(g, lambda: "a", lambda: "b") == ("a", "b")
        with pytest.raises(KeyError):
            _both(g, lambda: 1, lambda: {}[0])
        done = []
        with pytest.raises(ZeroDivisionError):  # first's, raised after second has finished
            _both(g, lambda: 1 / 0, lambda: done.append(1) or {}[0])
        assert done == [1]
        assert _both(g, lambda: 1, lambda: 2) == (1, 2)  # and the next call pairs as before

    def test_concurrent_callers(self, monkeypatch):
        """Callers on several threads at once each start their own second
        thread per call, and each gets its own pair back."""
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        g = make_grid(3, 64, 1.0)
        wrong = []

        def caller(t):
            for i in range(300):
                got = _both(g, lambda: ("first", t, i), lambda: ("second", t, i))
                if got != (("first", t, i), ("second", t, i)):
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and wrong == []

    def test_worker_keeps_no_job(self, monkeypatch):
        """A job's closure (in a solve, its workspace) is dropped once
        _both returns: held past the call, a 64^3 minimization's arrays
        outlived it and raised the next solve's peak memory by 23 MB."""
        class Arrays:
            pass

        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        held = Arrays()
        gone = weakref.ref(held)
        _both(make_grid(3, 64, 1.0), lambda: None, partial(id, held))
        del held
        gc.collect()
        assert gone() is None


class TestRealness:
    """Field.is_real: exact, decided once, not settable."""

    def test_real_cases(self):
        assert gaussian(make_grid(3, 32, 16.0), 2.0).is_real
        g = make_grid(3, 16, 4 * math.pi)
        hat = random_band_limited(g, g.k_min, g.k_max, seed=5)
        assert hat.is_real

    def test_complex_cases(self):
        from gnlab.testfuncs import FamilyKind, LacunaryFamily, build_family

        g = make_grid(3, 32, 4 * math.pi)
        phys = to_physical(random_band_limited(g, g.k_min, g.k_max, seed=5))
        assert phys.data.imag.any()  # round-off imaginary parts
        assert not phys.is_real
        train = build_family(LacunaryFamily(FamilyKind.EPS_BUMP_TRAIN, 3, 1, j0=3), g)
        assert not train.is_real  # one-sided bumps
        assert not plane_wave(g, (1.0, 0.0, 0.0)).is_real

    def test_decided_once_and_not_settable(self):
        import dataclasses

        g = make_grid(1, 64, 4 * math.pi)
        f = random_band_limited(g, g.k_min, g.k_max, seed=1)
        assert f.is_real is f.is_real
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.is_real = False
        assert f.is_real


class TestFieldData:
    """Field holds a read-only complex array that no caller can write."""

    def test_float_input_allocates_one_complex_array(self):
        import tracemalloc

        g = make_grid(3, 32, 8.0)
        arr = np.random.default_rng(0).random(g.shape)
        tracemalloc.start()
        try:
            f = Field(g, Domain.PHYSICAL, arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.data.nbytes <= peak < 1.5 * f.data.nbytes
        assert not f.data.flags.writeable
        assert arr.flags.writeable

    def test_writeable_complex_input_is_copied(self):
        g = make_grid(1, 16, 8.0)
        arr = np.ones(16, dtype=complex)
        f = Field(g, Domain.PHYSICAL, arr)
        arr[0] = 5.0
        assert f.data[0] == 1.0
        assert not f.data.flags.writeable
        assert not np.may_share_memory(f.data, arr)


class TestDyadicProject:
    def test_plane_wave_in_flat_band_unchanged(self):
        g = make_grid(1, 2048, 4 * math.pi)
        k = 5
        xi0 = round(0.9 * 2 ** k / g.freq_spacing) * g.freq_spacing
        pw = plane_wave(g, (xi0,))
        out = dyadic_project(pw, k)
        assert np.max(np.abs(out.data - pw.data)) < 1e-12

    def test_far_shell_annihilates(self):
        g = make_grid(1, 2048, 4 * math.pi)
        k = 3
        pw = plane_wave(g, (float(2 ** (k + 3)),))
        assert np.max(np.abs(dyadic_project(pw, k).data)) < 1e-12

    def test_band_limited_reconstruction(self):
        g = make_grid(1, 4096, 4 * math.pi)
        f = random_band_limited(g, g.k_min + 1, g.k_max - 1, seed=3)
        acc = np.zeros(g.shape, complex)
        for k in range(g.k_min, g.k_max + 1):
            acc += dyadic_project(f, k).data
        assert np.max(np.abs(acc - f.data)) < 1e-12 * np.max(np.abs(f.data))

    def test_idempotent_on_flat_band(self):
        g = make_grid(1, 2048, 4 * math.pi)
        k = 4
        r = g.freq_radius()
        mask = (r >= 0.75 * 2 ** k) & (r <= 2 ** k)
        rng = np.random.default_rng(1)
        f = Field(g, Domain.FOURIER, np.where(mask, rng.standard_normal(g.shape), 0))
        once = dyadic_project(f, k)
        twice = dyadic_project(once, k)
        assert np.max(np.abs(twice.data - once.data)) == 0.0

    def test_almost_orthogonality_exact(self):
        g = make_grid(1, 2048, 4 * math.pi)
        f = random_band_limited(g, 2, 8, seed=2)
        for j, k in [(3, 5), (4, 7), (2, 8)]:
            assert np.max(np.abs(dyadic_project(dyadic_project(f, j), k).data)) == 0.0

    def test_out_of_range_error_lists_range(self):
        g = make_grid(1, 256, 2 * math.pi)
        f = random_band_limited(g, g.k_min, g.k_max, seed=0)
        with pytest.raises(ValueError, match=r"resolved range"):
            dyadic_project(f, g.k_max + 5)


class TestSymbols:
    def test_frac_laplacian_eigenfunction(self):
        g = make_grid(1, 512, 4 * math.pi)
        xi0 = 8 * g.freq_spacing
        pw = plane_wave(g, (xi0,))
        out = apply_symbol(pw, FracLaplacian(0.7))
        assert np.allclose(out.data, xi0 ** 0.7 * pw.data, atol=1e-10)

    def test_bessel_at_zero_frequency(self):
        g = make_grid(1, 64, 5.0)
        const = Field(g, Domain.PHYSICAL, np.full(64, 2.0, dtype=complex))
        out = apply_symbol(const, Bessel(s=1.5, m2=4.0))
        assert np.allclose(out.data, 2.0 * 4.0 ** 0.75)

    def test_symbol_composition_on_zero_mean(self):
        g = make_grid(2, 64, 9.0)
        f = random_band_limited(g, g.k_min, g.k_max, seed=4)
        st = apply_symbol(apply_symbol(f, FracLaplacian(0.6)), FracLaplacian(-1.1))
        direct = apply_symbol(f, FracLaplacian(-0.5))
        assert np.max(np.abs(st.data - direct.data)) < 1e-12 * np.max(np.abs(direct.data))

    def test_riesz_rejects_bad_beta(self):
        g = make_grid(2, 32, 5.0)
        f = Field(g, Domain.FOURIER, np.zeros(g.shape))
        with pytest.raises(ValueError):
            apply_symbol(f, RieszPotential(2.5))
        with pytest.raises(ValueError):
            apply_symbol(f, Bessel(1.0, m2=-1.0))

    def test_riesz_constant_coulomb(self):
        # F[1/|x|] = 4 pi / |xi|^2 in three dimensions
        assert riesz_constant(3, 2.0) == pytest.approx(4 * math.pi, rel=1e-14)

    def test_riesz_potential_is_inverse_laplacian(self):
        g = make_grid(3, 32, 16.0)
        rho = gaussian(g, 2.0)
        out = apply_symbol(rho, RieszPotential(2.0))
        lap = apply_symbol(out, FracLaplacian(2.0))
        rho_zero_mean = to_fourier(rho).data.copy()
        rho_zero_mean.flat[0] = 0.0
        back = to_fourier(lap).data
        assert np.max(np.abs(back - rho_zero_mean)) < 1e-10 * np.max(np.abs(rho_zero_mean))


class TestCoulombTail:
    def test_riesz_output_matches_lattice_green_function(self):
        """The |xi|^-2 multiplier output agrees with direct summation against
        the independently built lattice kernel, and its radial differences
        follow the free 1/(4 pi |x|) law at mid-range radii."""
        import sys, pathlib

        sys.path.insert(0, str(pathlib.Path(__file__).parent))
        from oracles import convolve_with_kernel, lattice_riesz_kernel

        g = make_grid(3, 64, 16.0)
        rho = gaussian(g, 1.0)
        out = to_physical(apply_symbol(rho, RieszPotential(2.0))).data.real
        kernel = lattice_riesz_kernel(64, 16.0, 3, 2.0)
        pts = [(8, 0, 0), (12, 0, 0), (0, 10, 0), (6, 6, 0)]
        direct = convolve_with_kernel(rho.data.real, kernel, g.quadrature_weight, pts)
        for pt, val in zip(pts, direct):
            assert out[pt] == pytest.approx(val, rel=1e-6)

        # free-space law in difference form: the constant offset from the
        # dropped zero mode cancels, leaving the Gaussian potential
        # mass * erf(r / (sqrt(2) w)) / (4 pi r) plus the r^2/6
        # uniform-background term that the zero-mode subtraction induces
        w = 1.0
        mass = float(np.sum(rho.data.real)) * g.quadrature_weight
        bg = mass / g.box_length ** 3

        def v_free(r):
            return mass * math.erf(r / (math.sqrt(2) * w)) / (4 * math.pi * r)

        x1, x2 = 8 * g.spacing, 12 * g.spacing
        got = out[(8, 0, 0)] - out[(12, 0, 0)]
        expect = v_free(x1) - v_free(x2) + bg * (x1 ** 2 - x2 ** 2) / 6.0
        assert got == pytest.approx(expect, rel=1e-2)


class TestDilate:
    def test_identity_at_lambda_one(self):
        g = make_grid(1, 256, 10.0)
        f = gaussian(g, 0.8)
        assert dilate(f, 0) is f

    def test_reference_identity_at_zero(self):
        """The oracle hands its input back at log2_lambda = 0, in either
        domain, with no FFT round trip to drop the Nyquist planes."""
        data = np.random.default_rng(3).standard_normal((16, 16)).astype(complex)
        for physical in (True, False):
            assert dilate_reference(data, physical, 10.0, 0, True) is data

    @pytest.mark.parametrize("log2_lambda", [4, -4, 5])
    def test_reference_rejects_stride_of_grid_size(self, log2_lambda):
        """A stride of at least the grid size would keep the origin sample only."""
        data = np.random.default_rng(4).standard_normal((16, 16)).astype(complex)
        with pytest.raises(ValueError, match="stride"):
            dilate_reference(data, True, 10.0, log2_lambda, False)

    def test_l2_mass_preserved(self):
        g = make_grid(2, 128, 20.0)
        f = gaussian(g, 1.5)
        for m in (1, 2):
            fd = dilate(f, m, l2_normalized=True)
            l2 = [NormSpec(NormFamily.LEBESGUE, p=2)]
            assert norm_values(fd, l2)[0] == pytest.approx(norm_values(f, l2)[0], rel=1e-6)

    def test_plain_dilation_lp_law(self):
        g = make_grid(1, 4096, 60.0)
        f = gaussian(g, 1.2)
        for m in (1, 2):
            fd = dilate(f, m)
            for p in (1.0, 2.0, 4.0):
                lp = [NormSpec(NormFamily.LEBESGUE, p=p)]
                assert norm_values(fd, lp)[0] == pytest.approx(
                    2.0 ** (-m / p) * norm_values(f, lp)[0], rel=1e-4
                )

    def test_shrink_then_grow_roundtrip(self):
        g = make_grid(1, 1024, 40.0)
        f = gaussian(g, 1.0)
        fd = dilate(dilate(f, -1, l2_normalized=True), 1, l2_normalized=True)
        assert np.max(np.abs(to_physical(fd).data - to_physical(f).data)) < 1e-8


class TestResample:
    """spectral._resample: truncation to a coarser grid, zero padding to a
    finer one, on the half spectrum."""

    @staticmethod
    def band_limited(grid, seed):
        """A real field whose modes all have |k_i| < m/4, below the Nyquist
        planes of the m/2 grid."""
        m, n = grid.points_per_dim, grid.n
        hat = np.fft.rfftn(np.random.default_rng(seed).standard_normal(grid.shape))
        k = np.abs(np.fft.fftfreq(m, d=1.0 / m))
        for ax in range(n):
            shape = [1] * n
            shape[ax] = -1
            along = k if ax < n - 1 else k[: m // 2 + 1]
            hat = hat * (along < m // 4).reshape(shape)
        return np.fft.irfftn(hat, s=grid.shape, axes=tuple(range(n)))

    @pytest.mark.parametrize("n,m", [(1, 64), (2, 32), (3, 32)])
    def test_down_then_up_and_every_other_sample(self, n, m):
        fine = make_grid(n, m, 12.0)
        coarse = make_grid(n, m // 2, 12.0)
        f = self.band_limited(fine, n)
        scale = np.max(np.abs(f))
        down = _resample(f, coarse)
        assert down.shape == coarse.shape
        assert np.max(np.abs(down - f[(slice(None, None, 2),) * n])) <= 1e-13 * scale
        back = _resample(down, fine)
        assert back.shape == fine.shape
        assert np.max(np.abs(back - f)) <= 1e-13 * scale

    def test_coarse_nyquist_plane_dropped(self):
        """The coarse grid's Nyquist mode has no mirror on the finer
        lattice, so prolongation drops it."""
        alternating = np.cos(np.pi * np.arange(16))  # the mode k = 8 of 16 points
        assert np.max(np.abs(_resample(alternating, make_grid(1, 32, 12.0)))) < 1e-15


class TestGNF1:
    def test_roundtrip(self, tmp_path):
        g = make_grid(2, 32, 7.5)
        f = random_band_limited(g, g.k_min, g.k_max, seed=9)
        path = tmp_path / "field.gnf"
        write_gnf(path, f)
        back = read_gnf(path)
        assert back.grid == g
        assert back.domain is Domain.FOURIER
        assert np.array_equal(back.data, f.data)
        assert back.data.dtype == np.complex128
        assert not back.data.flags.owndata  # the read-only view of the file's bytes

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bad.gnf"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_gnf(path)

    def test_truncated_payload_rejected(self, tmp_path):
        g = make_grid(1, 16, 2.0)
        f = Field(g, Domain.PHYSICAL, np.ones(16))
        path = tmp_path / "t.gnf"
        write_gnf(path, f)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_gnf(path)

    @pytest.mark.parametrize("cut", [8, 10, 12, 20])
    def test_truncated_header_rejected(self, tmp_path, cut):
        g = make_grid(1, 16, 2.0)
        path = tmp_path / "h.gnf"
        write_gnf(path, Field(g, Domain.PHYSICAL, np.ones(16)))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated header"):
            read_gnf(path)

    @pytest.mark.parametrize("header", [b"[1, 2]", b"3", b'"n"', b"null"])
    def test_non_object_header_rejected(self, tmp_path, header):
        import struct

        from gnlab.fieldio import MAGIC

        path = tmp_path / "h.gnf"
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(ValueError, match="header is not a JSON object"):
            read_gnf(path)
