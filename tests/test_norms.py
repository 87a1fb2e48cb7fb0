"""Norm tests against quadrature oracles and structural identities."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gnlab.norms import (
    NormFamily,
    NormSpec,
    besov_norm,
    compute_norm,
    lp_norm,
    norm_values,
    sobolev_norm,
    triebel_norm,
)
from gnlab.spectral import Domain, Field, dilate, make_grid, phi, psi, to_fourier, to_physical
from gnlab.testfuncs import gaussian, random_band_limited


def bspec(s, p, q, family=NormFamily.HOMOG_BESOV, shell_range=None):
    return NormSpec(family, s, p, q, shell_range=shell_range)


class TestLpNorm:
    def test_constant_field_closed_form(self):
        g = make_grid(2, 32, 5.0)
        c = 3.0 - 4.0j
        f = Field(g, Domain.PHYSICAL, np.full(g.shape, c))
        for p in (0.5, 1.0, 2.0, 7.0):
            assert lp_norm(f, p) == pytest.approx(abs(c) * 25.0 ** (1.0 / p), rel=1e-12)
        assert lp_norm(f, math.inf) == pytest.approx(abs(c))

    def test_zero_field(self):
        g = make_grid(1, 16, 1.0)
        assert lp_norm(Field(g, Domain.PHYSICAL, np.zeros(16)), 2.0) == 0.0

    def test_gaussian_l2_against_quadrature(self):
        # oracle: 1d quadrature of exp(-x^2)
        oracle = math.sqrt(quad(lambda x: math.exp(-(x ** 2)), -40, 40)[0])
        g = make_grid(1, 2048, 48.0)
        f = gaussian(g, 1.0)
        assert lp_norm(f, 2.0) == pytest.approx(oracle, rel=1e-8)
        assert oracle == pytest.approx(math.pi ** 0.25, rel=1e-12)

    def test_rejects_nonpositive_p(self):
        g = make_grid(1, 16, 1.0)
        with pytest.raises(ValueError):
            lp_norm(Field(g, Domain.PHYSICAL, np.zeros(16)), 0.0)


class TestBesovNorm:
    def test_single_shell_identity_exact(self):
        """A field supported where the shell-k cutoff is exactly 1 has Besov
        norm 2^(k s) ||f||_p for every q."""
        g = make_grid(1, 4096, 4 * math.pi)
        k0 = 5
        r = g.freq_radius()
        mask = (r >= 0.75 * 2 ** k0) & (r <= 2 ** k0)
        rng = np.random.default_rng(0)
        data = np.where(mask, rng.standard_normal(g.shape), 0.0)
        f = Field(g, Domain.FOURIER, data)
        for s, p, q in [(0.5, 2.0, 2.0), (-1.0, 4.0, 1.0), (1.5, 3.0, math.inf)]:
            expected = 2.0 ** (k0 * s) * lp_norm(to_physical(f), p)
            assert besov_norm(f, bspec(s, p, q)) == pytest.approx(expected, rel=1e-10)

    def test_zero_field(self):
        g = make_grid(1, 64, 2 * math.pi)
        z = Field(g, Domain.FOURIER, np.zeros(64))
        assert besov_norm(z, bspec(1.0, 2.0, 2.0)) == 0.0

    def test_lq_monotone_in_q(self):
        g = make_grid(1, 1024, 4 * math.pi)
        for seed in range(100):
            f = random_band_limited(g, 2, 6, seed)
            vals = [besov_norm(f, bspec(0.5, 2.0, q)) for q in (1.0, 2.0, 4.0, math.inf)]
            for a, b in zip(vals, vals[1:]):
                assert b <= a * (1 + 1e-12)

    def test_dilation_scaling_law(self):
        """Besov norm of f(lambda .) scales like lambda^(s - n/p)."""
        g = make_grid(1, 4096, 40.0)
        f = random_band_limited(g, 2, 3, seed=5)
        for s, p in [(0.5, 2.0), (1.0, 4.0), (-0.5, 2.0)]:
            spec = bspec(s, p, 2.0)
            base = besov_norm(f, spec)
            for m in (1, 2):
                val = besov_norm(dilate(f, m), spec)
                assert val / base == pytest.approx(2.0 ** (m * (s - 1.0 / p)), rel=2e-2)

    def test_eps_train_growth_law(self):
        """Growing-amplitude train: norms at counts 10 vs 6 differ by
        2^(4 (s + eps)) within 5% in every (p, q)."""
        from fractions import Fraction as F

        from gnlab.testfuncs import FamilyKind, LacunaryFamily, build_family

        g = make_grid(1, 2 ** 14, 4 * math.pi)
        vals = {}
        for count in (6, 10):
            fam = LacunaryFamily(FamilyKind.EPS_BUMP_TRAIN, n=1, index=count, j0=2, eps=F(1, 4))
            f = build_family(fam, g)
            vals[count] = besov_norm(f, bspec(0.5, 2.0, 2.0, shell_range=(2, 12)))
        assert vals[10] / vals[6] == pytest.approx(2.0 ** (4 * 0.75), rel=0.05)

    def test_equal_weight_train_triebel_growth(self):
        """Equal-weight train: the pointwise-aggregate norm grows like
        count^(1/q) exactly, and stays flat at q = inf."""
        from fractions import Fraction as F

        from gnlab.testfuncs import FamilyKind, LacunaryFamily, build_family

        g = make_grid(1, 2 ** 12, 4 * math.pi)
        norms = {}
        for count in (4, 8):
            fam = LacunaryFamily(
                FamilyKind.SINGLE_AMPLITUDE_TRAIN, n=1, index=count, j0=2, s=F(1, 2)
            )
            f = build_family(fam, g)
            for q in (2.0, math.inf):
                norms[(count, q)] = triebel_norm(
                    f, bspec(0.5, 2.0, q, family=NormFamily.HOMOG_TRIEBEL, shell_range=(2, 10))
                )
        assert norms[(8, 2.0)] / norms[(4, 2.0)] == pytest.approx(2.0 ** 0.5, rel=1e-10)
        assert norms[(8, math.inf)] == pytest.approx(norms[(4, math.inf)], rel=1e-10)

    def test_homog_inhomog_agree_on_high_bands(self):
        g = make_grid(1, 1024, 2 * math.pi)
        f = random_band_limited(g, 1, 5, seed=8)
        h = besov_norm(f, bspec(0.7, 2.0, 2.0))
        i = besov_norm(f, bspec(0.7, 2.0, 2.0, family=NormFamily.INHOMOG_BESOV))
        assert i == pytest.approx(h, rel=1e-10)

    def test_shell_range_validation(self):
        g = make_grid(1, 256, 2 * math.pi)
        f = random_band_limited(g, 2, 4, seed=0)
        with pytest.raises(ValueError, match="outside the representable window"):
            besov_norm(f, bspec(0.0, 2.0, 2.0, shell_range=(0, 40)))


class TestTriebelNorm:
    def test_single_shell_matches_besov(self):
        g = make_grid(1, 2048, 4 * math.pi)
        k0 = 4
        r = g.freq_radius()
        mask = (r >= 0.75 * 2 ** k0) & (r <= 2 ** k0)
        rng = np.random.default_rng(2)
        f = Field(g, Domain.FOURIER, np.where(mask, rng.standard_normal(g.shape), 0.0))
        for q in (1.0, 2.0, math.inf):
            tv = triebel_norm(f, bspec(0.5, 3.0, q, family=NormFamily.HOMOG_TRIEBEL))
            bv = besov_norm(f, bspec(0.5, 3.0, q))
            assert tv == pytest.approx(bv, rel=1e-10)

    def test_p_equals_q_collapses_to_besov(self):
        g = make_grid(1, 1024, 4 * math.pi)
        f = random_band_limited(g, 2, 6, seed=3)
        for pq in (2.0, 3.0):
            tv = triebel_norm(f, bspec(0.25, pq, pq, family=NormFamily.HOMOG_TRIEBEL))
            bv = besov_norm(f, bspec(0.25, pq, pq))
            assert tv == pytest.approx(bv, rel=1e-10)

    def test_rejects_infinite_p(self):
        g = make_grid(1, 64, 2 * math.pi)
        f = Field(g, Domain.FOURIER, np.zeros(64))
        with pytest.raises(ValueError):
            triebel_norm(f, bspec(0.0, math.inf, 2.0, family=NormFamily.HOMOG_TRIEBEL))


class TestSobolevNorm:
    def test_plane_wave_eigenvalue(self):
        g = make_grid(1, 512, 4 * math.pi)
        xi0 = 16 * g.freq_spacing
        f = Field(g, Domain.PHYSICAL, np.exp(1j * xi0 * g.axis_coords()))
        for s in (0.5, 1.0, -0.5):
            val = sobolev_norm(f, NormSpec(NormFamily.HOMOG_SOBOLEV, s, 2.0))
            expected = xi0 ** s * math.sqrt(g.box_length)
            assert val == pytest.approx(expected, rel=1e-10)

    def test_gaussian_h1_against_quadrature(self):
        # oracle: int x^2 exp(-x^2) dx = sqrt(pi)/2
        oracle = math.sqrt(quad(lambda x: x * x * math.exp(-(x ** 2)), -40, 40)[0])
        g = make_grid(1, 2048, 48.0)
        f = gaussian(g, 1.0)
        val = sobolev_norm(f, NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0))
        assert val == pytest.approx(oracle, rel=1e-8)
        assert oracle == pytest.approx(math.sqrt(math.sqrt(math.pi) / 2), rel=1e-12)

    def test_gaussian_3d_l2_h1(self):
        g = make_grid(3, 64, 24.0)
        f = gaussian(g, 1.5)
        w = 1.5
        l2 = (math.pi * w * w) ** (3 / 4)
        h1 = math.sqrt(3.0 / 2.0) / w * l2  # ||grad f||_2 for the 3d Gaussian
        assert lp_norm(f, 2.0) == pytest.approx(l2, rel=1e-6)
        val = sobolev_norm(f, NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0))
        assert val == pytest.approx(h1, rel=1e-6)

    def test_bessel_s0_is_l2(self):
        g = make_grid(2, 64, 9.0)
        f = to_physical(random_band_limited(g, g.k_min, g.k_max, seed=4))
        val = sobolev_norm(f, NormSpec(NormFamily.BESSEL_SOBOLEV, 0.0, 2.0, m2=3.0))
        assert val == pytest.approx(lp_norm(f, 2.0), rel=1e-12)

    def test_negative_order_warning(self):
        g = make_grid(1, 256, 10.0)
        f = gaussian(g, 1.0)  # nonzero mean
        res = compute_norm(f, NormSpec(NormFamily.HOMOG_SOBOLEV, -0.5, 2.0))
        assert any("zero-mode" in w for w in res.warnings)
        res2 = compute_norm(f, NormSpec(NormFamily.HOMOG_SOBOLEV, 0.5, 2.0))
        assert res2.warnings == ()


def _one_spec_value(f, spec):
    if spec.family is NormFamily.LEBESGUE:
        return lp_norm(f, spec.p)
    if spec.family in (NormFamily.HOMOG_BESOV, NormFamily.INHOMOG_BESOV):
        return besov_norm(f, spec)
    if spec.family in (NormFamily.HOMOG_TRIEBEL, NormFamily.INHOMOG_TRIEBEL):
        return triebel_norm(f, spec)
    return sobolev_norm(f, spec)


def _reference_shell_norm(f, spec):
    """Besov or Triebel norm one shell at a time, through Field transforms
    and the cutoff evaluated on the whole lattice."""
    g = f.grid
    hat = to_fourier(f)
    r = g.freq_radius()
    inhomog = spec.family in (NormFamily.INHOMOG_BESOV, NormFamily.INHOMOG_TRIEBEL)
    klo, khi = spec.shell_range or (1 if inhomog else g.k_min, g.k_max)
    blocks = [(1.0, psi(r))] if inhomog else []
    blocks += [(2.0 ** (k * spec.s), phi(r * 2.0 ** (-k)))
               for k in range(max(klo, 1) if inhomog else klo, khi + 1)]
    pieces = [(wk, to_physical(hat.with_data(hat.data * mult))) for wk, mult in blocks]
    if spec.family in (NormFamily.HOMOG_BESOV, NormFamily.INHOMOG_BESOV):
        terms = [wk * lp_norm(piece, spec.p) for wk, piece in pieces]
        if math.isinf(spec.q):
            return max(terms)
        acc = 0.0
        for t in terms:
            acc += t ** spec.q
        return acc ** (1.0 / spec.q)
    agg = np.zeros(g.shape)
    for wk, piece in pieces:
        if math.isinf(spec.q):
            agg = np.maximum(agg, np.abs(piece.data) * wk)
        else:
            agg += (np.abs(piece.data) * wk) ** spec.q
    if not math.isinf(spec.q):
        agg = agg ** (1.0 / spec.q)
    return lp_norm(Field(g, Domain.PHYSICAL, agg), spec.p)


class TestNormValues:
    """One shell stack per field: every value equals its one-spec value, and
    every Besov and Triebel value equals the shell-by-shell reference."""

    MIXED = [
        NormSpec(NormFamily.HOMOG_BESOV, 0.5, 2.0, 2.0),
        NormSpec(NormFamily.INHOMOG_TRIEBEL, -0.25, 1.5, math.inf),
        NormSpec(NormFamily.LEBESGUE, 0.0, 4.0),
        NormSpec(NormFamily.INHOMOG_BESOV, 1.0, math.inf, 0.75),
        NormSpec(NormFamily.HOMOG_TRIEBEL, 0.5, 3.0, 2.0, shell_range=(2, 4)),
        NormSpec(NormFamily.HOMOG_SOBOLEV, 0.5, 2.0),
        NormSpec(NormFamily.HOMOG_BESOV, -1.0, 4.0, math.inf, shell_range=(1, 3)),
        NormSpec(NormFamily.BESSEL_SOBOLEV, 1.0, 3.0, m2=1.0),
        NormSpec(NormFamily.INHOMOG_TRIEBEL, 0.5, 2.0, 2.0, shell_range=(-1, 4)),
        NormSpec(NormFamily.LEBESGUE, 0.0, math.inf),
    ]

    @pytest.mark.parametrize("n,m", [(1, 1024), (2, 64)])
    def test_mixed_lists_equal_one_spec_values(self, n, m):
        g = make_grid(n, m, 4 * math.pi)
        hat = random_band_limited(g, 0, g.k_max, seed=7)
        for f in (hat, to_physical(hat)):
            expected = [_one_spec_value(f, spec) for spec in self.MIXED]
            assert norm_values(f, self.MIXED) == expected
            for spec, value in zip(self.MIXED, expected):
                if spec.family not in (NormFamily.LEBESGUE, NormFamily.HOMOG_SOBOLEV,
                                       NormFamily.BESSEL_SOBOLEV):
                    assert value == _reference_shell_norm(f, spec)
            assert norm_values(f, self.MIXED[::-1]) == expected[::-1]
            assert norm_values(f, self.MIXED[3:5]) == expected[3:5]

    def test_zero_field_and_errors(self):
        g = make_grid(1, 256, 2 * math.pi)
        z = Field(g, Domain.PHYSICAL, np.zeros(256))
        assert norm_values(z, self.MIXED) == [0.0] * len(self.MIXED)
        assert norm_values(z, []) == []
        f = random_band_limited(g, 2, 4, seed=0)
        with pytest.raises(ValueError, match="p < inf"):
            norm_values(f, self.MIXED + [bspec(0.0, math.inf, 2.0, family=NormFamily.HOMOG_TRIEBEL)])
        with pytest.raises(ValueError, match="outside the representable window"):
            norm_values(f, self.MIXED + [bspec(0.0, 2.0, 2.0, shell_range=(0, 40))])


def _hermitian_field(n, m, seed):
    """Fourier-form field with i.i.d. Hermitian-symmetrized data on the whole
    lattice, so the zero and Nyquist planes of the last axis carry content."""
    from gnlab.spectral import _conjugate_reverse

    g = make_grid(n, m, 4 * math.pi)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return Field(g, Domain.FOURIER, 0.5 * (data + _conjugate_reverse(data)))


def _lp_reference(f, p):
    """The L^p norm through the complex inverse transform."""
    w = f.grid.quadrature_weight
    mag = np.abs(f.data if f.domain is Domain.PHYSICAL else np.fft.ifftn(f.data) / w)
    if math.isinf(p):
        return float(mag.max())
    return float((np.sum(mag ** p) * w) ** (1.0 / p))


class TestRealPath:
    """Real fields take irfftn on the half spectrum; complex fields keep the
    complex path bit for bit."""

    @staticmethod
    def specs(g):
        lo, hi = g.shell_bounds  # the top guard shell reaches the Nyquist planes
        return [
            NormSpec(NormFamily.HOMOG_BESOV, 0.5, 2.0, 2.0, shell_range=(lo, hi)),
            NormSpec(NormFamily.HOMOG_BESOV, -0.5, 3.0, math.inf, shell_range=(lo, hi)),
            NormSpec(NormFamily.INHOMOG_BESOV, 1.0, 1.5, 1.0, shell_range=(1, hi)),
            NormSpec(NormFamily.HOMOG_TRIEBEL, 0.25, 4.0, 2.0, shell_range=(lo, hi)),
            NormSpec(NormFamily.HOMOG_TRIEBEL, 0.5, 2.0, math.inf, shell_range=(lo, hi)),
            NormSpec(NormFamily.INHOMOG_TRIEBEL, -0.25, 1.5, math.inf, shell_range=(1, hi)),
            NormSpec(NormFamily.INHOMOG_TRIEBEL, 0.5, 3.0, 0.75),
            NormSpec(NormFamily.LEBESGUE, 0.0, 4.0),
            NormSpec(NormFamily.LEBESGUE, 0.0, math.inf),
        ]

    @pytest.mark.parametrize("n,m", [(1, 1024), (2, 64), (3, 32)])
    def test_real_fields_match_complex_reference(self, n, m):
        hat = _hermitian_field(n, m, seed=11)
        g = hat.grid
        planes = hat.data[..., [0, m // 2]]
        assert np.all(np.abs(planes) > 0)
        phys = Field(g, Domain.PHYSICAL, to_physical(hat).data.real)
        for f in (hat, phys):
            assert f.is_real
            specs = self.specs(g)
            values = norm_values(f, specs)
            for spec, value in zip(specs, values):
                if spec.family is NormFamily.LEBESGUE:
                    ref = _lp_reference(f, spec.p)
                else:
                    ref = _reference_shell_norm(f, spec)
                assert value == pytest.approx(ref, rel=1e-12, abs=0), spec
            assert [lp_norm(f, 4.0)] == values[7:8]

    @pytest.mark.parametrize("n,m", [(1, 1024), (2, 64), (3, 32)])
    def test_complex_fields_unchanged(self, n, m):
        from gnlab.testfuncs import FamilyKind, LacunaryFamily, build_family

        hat = _hermitian_field(n, m, seed=12)
        g = hat.grid
        skew = hat.with_data(hat.data * (1.0 + 0.5j))
        train = build_family(LacunaryFamily(FamilyKind.EPS_BUMP_TRAIN, n, 1, j0=3), g)
        for f in (skew, to_physical(skew), train, to_physical(hat)):
            assert not f.is_real
            specs = self.specs(g)
            values = norm_values(f, specs)
            for spec, value in zip(specs, values):
                if spec.family is NormFamily.LEBESGUE:
                    ref = _lp_reference(f, spec.p)
                else:
                    ref = _reference_shell_norm(f, spec)
                assert value == ref, spec


class TestNormSpec:
    @pytest.mark.parametrize("name,value", [
        ("p", 0.0), ("p", -1.0), ("p", math.nan), ("q", 0.0), ("q", -2.0), ("q", math.nan),
    ])
    def test_rejects_nonpositive_or_nan_exponents(self, name, value):
        for family in NormFamily:
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                NormSpec(family, **{name: value})

    @pytest.mark.parametrize("name,value", [
        ("s", math.nan), ("s", math.inf), ("s", -math.inf), ("m2", math.nan), ("m2", math.inf),
    ])
    def test_rejects_nonfinite_s_and_m2(self, name, value):
        for family in NormFamily:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                NormSpec(family, **{name: value})


class TestNormResult:
    def test_serialization_shape(self):
        g = make_grid(1, 256, 4 * math.pi)
        f = random_band_limited(g, 2, 4, seed=1)
        res = compute_norm(f, bspec(0.5, 2.0, 2.0))
        doc = res.to_json_dict()
        assert set(doc) == {"family", "s", "p", "q", "value", "shell_range", "warnings"}
        assert doc["family"] == "HomogBesov"
        assert doc["shell_range"] == [g.k_min, g.k_max]

    def test_shell_range_is_the_summed_range(self):
        """Inhomogeneous sums start at shell 1 (the low-pass block covers the
        rest), so the reported range starts there; a range below shell 1
        sums the low-pass block alone and reports no shells."""
        g = make_grid(1, 1024, 64.0)
        f = gaussian(g, 2.0)
        for family in (NormFamily.INHOMOG_BESOV, NormFamily.INHOMOG_TRIEBEL):
            res = compute_norm(f, bspec(0.5, 2.0, 2.0, family=family))
            assert res.shell_range == (1, g.k_max)
            res = compute_norm(f, bspec(0.5, 2.0, 2.0, family=family, shell_range=(-2, 3)))
            assert res.shell_range == (1, 3)
            low = compute_norm(f, bspec(0.5, 2.0, 2.0, family=family, shell_range=(-2, 0)))
            assert low.shell_range is None
            assert low.to_json_dict()["shell_range"] is None
            assert low.value > 0
        homog = compute_norm(f, bspec(0.5, 2.0, 2.0, shell_range=(-2, 3)))
        assert homog.shell_range == (-2, 3)
