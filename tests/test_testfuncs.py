"""Test-field constructors: bump trains, Gaussians, random band-limited noise."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

from gnlab.norms import lp_norm
from gnlab.spectral import Domain, dyadic_project, make_grid, to_fourier, to_physical
from gnlab.testfuncs import (
    FamilyKind,
    LacunaryFamily,
    build_family,
    bump_center,
    gaussian,
    random_band_limited,
)

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
                val = lp_norm(to_physical(dyadic_project(field, j)), p) / 2.0 ** (a * j)
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
            piece = lp_norm(to_physical(dyadic_project(field, j)), 2.0)
            predicted = 2.0 ** (lam * j * (0.5 - 1.0)) * base
            assert piece == pytest.approx(predicted, rel=1e-6)
        vals = []
        for j in range(j_lo, j_hi + 1):
            piece = lp_norm(to_physical(dyadic_project(field, j)), 1.0)
            vals.append(piece)
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-3)

    def test_single_bump_all_q_norms_coincide(self):
        from gnlab.norms import NormFamily, NormSpec, besov_norm

        fam = LacunaryFamily(FamilyKind.SINGLE_AMPLITUDE_TRAIN, n=1, index=1, j0=4, s=F(1, 2))
        field = build_family(fam, GRID)
        vals = [
            besov_norm(field, NormSpec(NormFamily.HOMOG_BESOV, 0.5, 2.0, q))
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

    def test_empty_bump_on_coarse_lattice(self):
        grid = make_grid(1, 64, 2 * math.pi)  # spacing 1: no points in the annulus
        with pytest.raises(ValueError, match="no lattice support"):
            build_family(eps_train(2), grid)

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
        assert lp_norm(f, 2.0) == pytest.approx((math.pi * w * w) ** 0.5, rel=1e-8)

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

    def test_empty_annulus_rejected(self):
        g = make_grid(1, 64, 2.0)  # lattice multiples of pi miss the sphere |xi| = 8
        with pytest.raises(ValueError, match="empty annulus"):
            random_band_limited(g, 3, 3, seed=0)
