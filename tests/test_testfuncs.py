"""Test-field constructors: bump trains, Gaussians, random band-limited noise."""
import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from gnlab.norms import NormFamily, NormSpec, norm_values
from gnlab.spectral import Domain, Field, make_grid, to_fourier, to_physical
from gnlab.testfuncs import (
    FamilyKind,
    LacunaryFamily,
    build_family,
    bump_center,
    family_members,
    gaussian,
    random_band_limited,
)
from instruments import dyadic_project

GRID = make_grid(1, 2 ** 13, 4 * math.pi)


def eps_train(count, j0=2, eps=F(1, 4)):
    return LacunaryFamily(FamilyKind.EPS_BUMP_TRAIN, n=1, index=count, j0=j0, eps=eps)


class TestBumpTrains:
    def test_shell_disjointness_exact(self):
        fam = eps_train(7)
        field = build_family(fam, GRID)
        j_lo, j_hi = fam.shells
        for j in range(j_lo, j_hi + 1):
            single = build_family(
                LacunaryFamily(FamilyKind.SINGLE_AMPLITUDE_TRAIN, n=1, index=1, j0=j), GRID
            )
            for k in range(max(GRID.k_min, j - 2), min(GRID.k_max, j + 2) + 1):
                leak = np.max(np.abs(dyadic_project(single, k).data))
                if k == j:
                    assert leak > 0
                else:
                    assert leak == 0.0

    def test_amplitude_law_exact(self):
        fam = eps_train(8)
        field = build_family(fam, GRID)
        a = float(fam.amplitude_exponent)
        for p in (0.5, 1.0, 2.0, 5.0, math.inf):
            base = None
            for j in range(*fam.shells):
                piece = to_physical(dyadic_project(field, j))
                val = norm_values(piece, [NormSpec(NormFamily.LEBESGUE, p=p)])[0] / 2.0 ** (a * j)
                if base is None:
                    base = val
                assert val == pytest.approx(base, rel=1e-6)

    def test_scaled_train_dilation_identity(self):
        """||inverse-transform of the shell-j bump||_2 equals the closed-form
        dilation law 2^(n lam j (1/2 - 1)) ||inverse-transform of phi||_2,
        with the base norm from scipy quadrature of |phi|^2.  The L^1 law is
        checked shell-to-shell (its lattice sum converges more slowly near
        the envelope's zero crossings)."""
        from scipy.integrate import quad
        from gnlab.spectral import phi

        grid = make_grid(1, 2 ** 17, 128 * math.pi)
        fam = LacunaryFamily(
            FamilyKind.SCALED_BUMP_TRAIN, n=1, index=6, j0=4,
            s=F(0), inv_p=F(1), lam=F(1, 32),
        )
        field = build_family(fam, grid)
        lam = float(fam.lam)
        phi_sq = 2 * quad(
            lambda t: float(phi(np.array([t]))[0]) ** 2, 0.5, 1.5, limit=200
        )[0]
        base = math.sqrt(phi_sq / (2 * math.pi))
        j_lo, j_hi = fam.shells
        for j in range(j_lo, j_hi + 1):
            shell = to_physical(dyadic_project(field, j))
            piece = norm_values(shell, [NormSpec(NormFamily.LEBESGUE, p=2.0)])[0]
            predicted = 2.0 ** (lam * j * (0.5 - 1.0)) * base
            assert piece == pytest.approx(predicted, rel=1e-6)
        vals = []
        for j in range(j_lo, j_hi + 1):
            shell = to_physical(dyadic_project(field, j))
            piece = norm_values(shell, [NormSpec(NormFamily.LEBESGUE, p=1.0)])[0]
            vals.append(piece)
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-3)

    def test_single_bump_all_q_norms_coincide(self):
        fam = LacunaryFamily(FamilyKind.SINGLE_AMPLITUDE_TRAIN, n=1, index=1, j0=4, s=F(1, 2))
        field = build_family(fam, GRID)
        vals = [
            norm_values(field, [NormSpec(NormFamily.HOMOG_BESOV, 0.5, 2.0, q)])[0]
            for q in (1.0, 2.0, math.inf)
        ]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)

    def test_center_on_lattice(self):
        c = bump_center(5, GRID.freq_spacing, 1)
        assert c[0] / GRID.freq_spacing == pytest.approx(round(c[0] / GRID.freq_spacing))
        assert c[0] == pytest.approx(7 * 2 ** 2)

    def test_too_many_shells_reports_limit(self):
        grid = make_grid(1, 256, 4 * math.pi)
        with pytest.raises(ValueError, match="admissible count"):
            build_family(eps_train(12), grid)

    def test_string_lambda_read_exactly(self):
        """lam was compared with 0 before its conversion, so any string
        failed with a TypeError from '<'."""
        fam = LacunaryFamily(FamilyKind.SCALED_BUMP_TRAIN, n=1, index=2, j0=4, lam="1/2")
        assert fam == LacunaryFamily(FamilyKind.SCALED_BUMP_TRAIN, n=1, index=2, j0=4, lam=F(1, 2))
        with pytest.raises(ValueError, match="lambda >= 0"):
            LacunaryFamily(FamilyKind.SCALED_BUMP_TRAIN, n=1, index=2, lam="-1/2")

    @pytest.mark.parametrize("index", [2.5, True, "x"])
    def test_non_integer_index_rejected(self, index):
        """index 2.5 and True were accepted; 2.5 failed later in
        build_family with a bare TypeError."""
        with pytest.raises(ValueError, match="index must be an integer"):
            eps_train(index)

    def test_integral_index_accepted(self):
        assert eps_train(3.0) == eps_train(3)
        with pytest.raises(ValueError, match="index"):
            eps_train(0)

    def test_empty_bump_on_coarse_lattice(self):
        grid = make_grid(1, 64, 2 * math.pi)  # spacing 1: no points in the annulus
        with pytest.raises(ValueError, match="no lattice support"):
            build_family(eps_train(2), grid)

    @pytest.mark.parametrize("fam,grid,counts", [
        (eps_train(1), GRID, (1, 3, 4, 6)),
        (LacunaryFamily(FamilyKind.SCALED_BUMP_TRAIN, n=1, index=1, j0=4, lam=F(1, 2)),
         make_grid(1, 2 ** 13, 32 * math.pi), (1, 2, 4)),
    ], ids=["eps", "scaled"])
    def test_members_are_sums_in_shell_order(self, fam, grid, counts):
        """Each member is bit for bit the sum 0 + b_1 + ... + b_c of its
        one-bump trains, in shell order, and owns its (read-only) data."""
        members = list(family_members(fam, grid, counts))
        ref = np.zeros(grid.shape, dtype=np.complex128)
        for c in range(1, counts[-1] + 1):
            ref += build_family(replace(fam, j0=fam.j0 + c - 1, index=1), grid).data
            if c in counts:
                member = members[counts.index(c)]
                assert member.data.tobytes() == ref.tobytes()
        assert not any(m.data.flags.writeable for m in members)
        assert not np.shares_memory(members[0].data, members[1].data)

    def test_member_counts_increase(self):
        for counts in ((3, 3), (4, 2), (0, 1)):
            with pytest.raises(ValueError):
                list(family_members(eps_train(1), GRID, counts))

    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda kind: kind.value)
    def test_members_recorded_complex(self, kind, monkeypatch):
        """Every member is recorded as not real when it is built, so is_real
        builds no Hermitian mirror for it; a plain Field of the member's data
        still decides False."""
        from gnlab import spectral

        def no_mirror(arr):
            raise AssertionError("Hermitian mirror rebuilt")

        fam = LacunaryFamily(kind, n=1, index=1, j0=4, eps=F(1, 4), s=F(1, 2), lam=F(1, 8))
        for grid in (make_grid(1, 2 ** 13, 32 * math.pi), make_grid(2, 128, 4 * math.pi)):
            fam = replace(fam, n=grid.n)
            members = list(family_members(fam, grid, (1, 2)))
            assert [Field(grid, m.domain, m.data).is_real for m in members] == [False, False]
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_conjugate_reverse", no_mirror)
                assert [m.is_real for m in members] == [False, False]

    def test_3d_train_builds(self):
        grid = make_grid(3, 128, 4 * math.pi)
        fam = LacunaryFamily(FamilyKind.EPS_BUMP_TRAIN, n=3, index=3, j0=3, eps=F(1, 4))
        field = build_family(fam, grid)
        assert field.domain is Domain.FOURIER
        assert np.any(field.data)


class TestGaussian:
    def test_l2_matches_closed_form(self):
        g = make_grid(2, 256, 40.0)
        w = 1.7
        f = gaussian(g, w)
        l2 = norm_values(f, [NormSpec(NormFamily.LEBESGUE, p=2.0)])[0]
        assert l2 == pytest.approx((math.pi * w * w) ** 0.5, rel=1e-8)

    def test_fourier_transform_is_gaussian(self):
        g = make_grid(1, 2048, 48.0)
        w = 1.3
        hat = to_fourier(gaussian(g, w))
        xi = g.axis_freqs()
        expected = w * math.sqrt(2 * math.pi) * np.exp(-(w * xi) ** 2 / 2.0)
        assert np.max(np.abs(hat.data - expected)) < 1e-8 * expected.max()

    def test_wraparound_negligible_at_max_width(self):
        g = make_grid(1, 1024, 48.0)
        f = gaussian(g, 48.0 / 8.0)
        edge = to_physical(f).data.real[g.points_per_dim // 2]
        assert edge < 1e-3  # exp(-8) at the box edge
        assert edge == pytest.approx(math.exp(-((24.0) ** 2) / (2 * 36.0)), rel=1e-6)

    def test_off_center_and_width_validation(self):
        g = make_grid(1, 256, 16.0)
        f = gaussian(g, 1.0, center=(15.5,))  # wraps around the edge
        vals = to_physical(f).data.real
        assert vals[np.argmax(vals)] == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            gaussian(g, 0.1)
        with pytest.raises(ValueError):
            gaussian(g, 3.0)

    def test_center_length_must_match_grid(self):
        """A 1-coordinate center on a 2D grid was reported as a data shape
        mismatch, (64,) against (64, 64)."""
        with pytest.raises(ValueError, match="center has 1 coordinates; the grid has n = 2"):
            gaussian(make_grid(2, 64, 16.0), 1.0, center=(0.0,))

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_nonfinite_width_rejected(self, width):
        """A NaN width passed both range checks and gave an all-NaN field."""
        with pytest.raises(ValueError, match="width"):
            gaussian(make_grid(1, 256, 16.0), width)


class TestRandomBandLimited:
    def test_deterministic_in_seed(self):
        g = make_grid(2, 64, 4 * math.pi)
        a = random_band_limited(g, 2, 4, seed=42)
        b = random_band_limited(g, 2, 4, seed=42)
        assert np.array_equal(a.data, b.data)
        c = random_band_limited(g, 2, 4, seed=43)
        assert not np.array_equal(a.data, c.data)

    def test_real_in_physical_space(self):
        g = make_grid(2, 64, 4 * math.pi)
        f = to_physical(random_band_limited(g, 2, 4, seed=7))
        assert np.max(np.abs(f.data.imag)) < 1e-12 * np.max(np.abs(f.data.real))

    def test_support_annulus(self):
        g = make_grid(1, 1024, 4 * math.pi)
        f = random_band_limited(g, 3, 5, seed=1)
        assert np.max(np.abs(dyadic_project(f, 1).data)) == 0.0
        assert float(np.abs(f.data.flat[0])) == 0.0  # zero mean

    def test_support_annulus_3d_and_hermitian(self):
        """Every sample off the closed annulus [2^k_lo, 2^k_hi] is exactly 0,
        with no second mask after the symmetrization, and the data is its
        own Hermitian mirror bit for bit."""
        from gnlab.spectral import _conjugate_reverse

        g = make_grid(3, 32, 4 * math.pi)
        r = g.freq_radius()
        for k_lo, k_hi in ((g.k_min, g.k_min + 1), (2, 3), (g.k_max - 1, g.k_max)):
            for seed in (0, 1):
                f = random_band_limited(g, k_lo, k_hi, seed)
                off = (r < 2.0 ** k_lo) | (r > 2.0 ** k_hi)
                assert off.any() and np.count_nonzero(f.data[~off]) > 0
                assert not f.data[off].any()
                assert np.array_equal(f.data, _conjugate_reverse(f.data))

    @pytest.mark.parametrize("n,m", [(1, 4096), (2, 256), (3, 64), (3, 32)])
    def test_bytes_equal_full_lattice_generator(self, n, m):
        """Drawing on the whole lattice and symmetrizing on the annulus only
        gives the bytes of the full-lattice mask-and-mirror generator, for
        every band of the c05 sweep and three seeds."""
        from oracles import band_limited_full_lattice

        g = make_grid(n, m, 4 * math.pi)
        for k in range(g.k_min, min(g.k_min + 4, g.k_max)):
            for seed in (0, 1, 2):
                want = band_limited_full_lattice(n, m, 4 * math.pi, k, k + 1, seed)
                got = random_band_limited(g, k, k + 1, seed).data
                assert got.tobytes() == want.tobytes(), (k, seed)

    def test_recorded_real_without_mirror(self, monkeypatch):
        """is_real is recorded at construction: it holds with the Hermitian
        mirror unavailable, and stays unsettable."""
        import dataclasses

        from gnlab import spectral

        def no_mirror(arr):
            raise AssertionError("Hermitian mirror rebuilt")

        monkeypatch.setattr(spectral, "_conjugate_reverse", no_mirror)
        g = make_grid(3, 32, 4 * math.pi)
        f = random_band_limited(g, g.k_min, g.k_max, seed=3)
        assert not f.data.flags.writeable
        assert f.is_real
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.is_real = False
        with pytest.raises(AssertionError, match="mirror rebuilt"):
            Field(f.grid, f.domain, f.data).is_real  # a plain Field still decides exactly

    def test_empty_annulus_rejected(self):
        g = make_grid(1, 64, 2.0)  # lattice multiples of pi miss the sphere |xi| = 8
        with pytest.raises(ValueError, match="empty annulus"):
            random_band_limited(g, 3, 3, seed=0)
