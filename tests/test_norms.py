"""Norm tests against quadrature oracles and structural identities."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gnlab.norms import (
    NormFamily,
    NormSpec,
    compute_norm,
    norm_values,
    norm_values_seq,
)
from gnlab.spectral import (
    Bessel,
    Domain,
    Field,
    FracLaplacian,
    make_grid,
    phi,
    psi,
    to_fourier,
    to_physical,
)
from gnlab.testfuncs import gaussian, random_band_limited
from instruments import apply_symbol, dilate, lowpass_multiplier
from oracles import sobolev_l2_parseval


def bspec(s, p, q, family=NormFamily.HOMOG_BESOV, shell_range=None):
    return NormSpec(family, s, p, q, shell_range=shell_range)


class TestLpNorm:
    def test_constant_field_closed_form(self):
        g = make_grid(2, 32, 5.0)
        c = 3.0 - 4.0j
        f = Field(g, Domain.PHYSICAL, np.full(g.shape, c))
        for p in (0.5, 1.0, 2.0, 7.0):
            value = norm_values(f, [NormSpec(NormFamily.LEBESGUE, p=p)])[0]
            assert value == pytest.approx(abs(c) * 25.0 ** (1.0 / p), rel=1e-12)
        value = norm_values(f, [NormSpec(NormFamily.LEBESGUE, p=math.inf)])[0]
        assert value == pytest.approx(abs(c))

    def test_zero_field(self):
        g = make_grid(1, 16, 1.0)
        zero = Field(g, Domain.PHYSICAL, np.zeros(16))
        assert norm_values(zero, [NormSpec(NormFamily.LEBESGUE, p=2.0)])[0] == 0.0

    def test_gaussian_l2_against_quadrature(self):
        # oracle: 1d quadrature of exp(-x^2)
        oracle = math.sqrt(quad(lambda x: math.exp(-(x ** 2)), -40, 40)[0])
        g = make_grid(1, 2048, 48.0)
        f = gaussian(g, 1.0)
        value = norm_values(f, [NormSpec(NormFamily.LEBESGUE, p=2.0)])[0]
        assert value == pytest.approx(oracle, rel=1e-8)
        assert oracle == pytest.approx(math.pi ** 0.25, rel=1e-12)

    def test_rejects_nonpositive_p(self):
        g = make_grid(1, 16, 1.0)
        zero = Field(g, Domain.PHYSICAL, np.zeros(16))
        with pytest.raises(ValueError):
            norm_values(zero, [NormSpec(NormFamily.LEBESGUE, p=0.0)])


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
            lebesgue = NormSpec(NormFamily.LEBESGUE, p=p)
            expected = 2.0 ** (k0 * s) * norm_values(to_physical(f), [lebesgue])[0]
            assert norm_values(f, [bspec(s, p, q)])[0] == pytest.approx(expected, rel=1e-10)

    def test_zero_field(self):
        g = make_grid(1, 64, 2 * math.pi)
        z = Field(g, Domain.FOURIER, np.zeros(64))
        assert norm_values(z, [bspec(1.0, 2.0, 2.0)])[0] == 0.0

    def test_lq_monotone_in_q(self):
        g = make_grid(1, 1024, 4 * math.pi)
        for seed in range(100):
            f = random_band_limited(g, 2, 6, seed)
            vals = [norm_values(f, [bspec(0.5, 2.0, q)])[0] for q in (1.0, 2.0, 4.0, math.inf)]
            for a, b in zip(vals, vals[1:]):
                assert b <= a * (1 + 1e-12)

    def test_dilation_scaling_law(self):
        """Besov norm of f(lambda .) scales like lambda^(s - n/p).  dilate
        keeps f(2^m x) on |x| < L / 2^(m+1), one period of f, and zero
        elsewhere, which is the dilation of f only for an f that vanishes
        near the box's edge: a periodic field cut there does not obey the
        law.  So f is a random band-limited field under a Gaussian window
        of width 1.5, which is below 1e-38 at |x| = L/2 = 20."""
        g = make_grid(1, 4096, 40.0)
        window = gaussian(g, 1.5).data.real
        for seed in (5, 6, 7):
            wave = to_physical(random_band_limited(g, 2, 3, seed)).data.real
            f = Field(g, Domain.PHYSICAL, wave * window)
            for s, p in [(0.5, 2.0), (1.0, 4.0), (-0.5, 2.0)]:
                spec = bspec(s, p, 2.0)
                base = norm_values(f, [spec])[0]
                for m in (1, 2):
                    val = norm_values(dilate(f, m), [spec])[0]
                    assert val / base == pytest.approx(2.0 ** (m * (s - 1.0 / p)), rel=1e-5)

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
            vals[count] = norm_values(f, [bspec(0.5, 2.0, 2.0, shell_range=(2, 12))])[0]
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
                spec = bspec(0.5, 2.0, q, family=NormFamily.HOMOG_TRIEBEL, shell_range=(2, 10))
                norms[(count, q)] = norm_values(f, [spec])[0]
        assert norms[(8, 2.0)] / norms[(4, 2.0)] == pytest.approx(2.0 ** 0.5, rel=1e-10)
        assert norms[(8, math.inf)] == pytest.approx(norms[(4, math.inf)], rel=1e-10)

    def test_homog_inhomog_agree_on_high_bands(self):
        g = make_grid(1, 1024, 2 * math.pi)
        f = random_band_limited(g, 1, 5, seed=8)
        h = norm_values(f, [bspec(0.7, 2.0, 2.0)])[0]
        i = norm_values(f, [bspec(0.7, 2.0, 2.0, family=NormFamily.INHOMOG_BESOV)])[0]
        assert i == pytest.approx(h, rel=1e-10)

    def test_shell_range_validation(self):
        g = make_grid(1, 256, 2 * math.pi)
        f = random_band_limited(g, 2, 4, seed=0)
        with pytest.raises(ValueError, match="outside the representable window"):
            norm_values(f, [bspec(0.0, 2.0, 2.0, shell_range=(0, 40))])


class TestTriebelNorm:
    def test_single_shell_matches_besov(self):
        g = make_grid(1, 2048, 4 * math.pi)
        k0 = 4
        r = g.freq_radius()
        mask = (r >= 0.75 * 2 ** k0) & (r <= 2 ** k0)
        rng = np.random.default_rng(2)
        f = Field(g, Domain.FOURIER, np.where(mask, rng.standard_normal(g.shape), 0.0))
        for q in (1.0, 2.0, math.inf):
            tv = norm_values(f, [bspec(0.5, 3.0, q, family=NormFamily.HOMOG_TRIEBEL)])[0]
            bv = norm_values(f, [bspec(0.5, 3.0, q)])[0]
            assert tv == pytest.approx(bv, rel=1e-10)

    def test_p_equals_q_collapses_to_besov(self):
        g = make_grid(1, 1024, 4 * math.pi)
        f = random_band_limited(g, 2, 6, seed=3)
        for pq in (2.0, 3.0):
            tv = norm_values(f, [bspec(0.25, pq, pq, family=NormFamily.HOMOG_TRIEBEL)])[0]
            bv = norm_values(f, [bspec(0.25, pq, pq)])[0]
            assert tv == pytest.approx(bv, rel=1e-10)

    def test_rejects_infinite_p(self):
        g = make_grid(1, 64, 2 * math.pi)
        f = Field(g, Domain.FOURIER, np.zeros(64))
        with pytest.raises(ValueError):
            norm_values(f, [bspec(0.0, math.inf, 2.0, family=NormFamily.HOMOG_TRIEBEL)])


class TestSobolevNorm:
    def test_plane_wave_eigenvalue(self):
        g = make_grid(1, 512, 4 * math.pi)
        xi0 = 16 * g.freq_spacing
        f = Field(g, Domain.PHYSICAL, np.exp(1j * xi0 * g.axis_coords()))
        for s in (0.5, 1.0, -0.5):
            val = norm_values(f, [NormSpec(NormFamily.HOMOG_SOBOLEV, s, 2.0)])[0]
            expected = xi0 ** s * math.sqrt(g.box_length)
            assert val == pytest.approx(expected, rel=1e-10)

    def test_gaussian_h1_against_quadrature(self):
        # oracle: int x^2 exp(-x^2) dx = sqrt(pi)/2
        oracle = math.sqrt(quad(lambda x: x * x * math.exp(-(x ** 2)), -40, 40)[0])
        g = make_grid(1, 2048, 48.0)
        f = gaussian(g, 1.0)
        val = norm_values(f, [NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0)])[0]
        assert val == pytest.approx(oracle, rel=1e-8)
        assert oracle == pytest.approx(math.sqrt(math.sqrt(math.pi) / 2), rel=1e-12)

    def test_gaussian_3d_l2_h1(self):
        g = make_grid(3, 64, 24.0)
        f = gaussian(g, 1.5)
        w = 1.5
        l2 = (math.pi * w * w) ** (3 / 4)
        h1 = math.sqrt(3.0 / 2.0) / w * l2  # ||grad f||_2 for the 3d Gaussian
        val = norm_values(f, [NormSpec(NormFamily.LEBESGUE, p=2.0)])[0]
        assert val == pytest.approx(l2, rel=1e-6)
        val = norm_values(f, [NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0)])[0]
        assert val == pytest.approx(h1, rel=1e-6)

    def test_bessel_s0_is_l2(self):
        g = make_grid(2, 64, 9.0)
        f = to_physical(random_band_limited(g, g.k_min, g.k_max, seed=4))
        val = norm_values(f, [NormSpec(NormFamily.BESSEL_SOBOLEV, 0.0, 2.0, m2=3.0)])[0]
        l2 = norm_values(f, [NormSpec(NormFamily.LEBESGUE, p=2.0)])[0]
        assert val == pytest.approx(l2, rel=1e-12)

    def test_negative_order_warning(self):
        g = make_grid(1, 256, 10.0)
        f = gaussian(g, 1.0)  # nonzero mean
        res = compute_norm(f, NormSpec(NormFamily.HOMOG_SOBOLEV, -0.5, 2.0))
        assert any("zero-mode" in w for w in res.warnings)
        res2 = compute_norm(f, NormSpec(NormFamily.HOMOG_SOBOLEV, 0.5, 2.0))
        assert res2.warnings == ()


def _reference_shell_norm(f, spec, half=False):
    """Besov or Triebel norm one shell at a time, through Field transforms
    and the cutoff evaluated on the whole lattice.  With half, each piece is
    inverted as the library inverts a field recorded real: numpy's irfftn
    of its half spectrum [..., :m//2 + 1]."""
    g = f.grid
    hat = to_fourier(f)
    r = g.freq_radius()
    inhomog = spec.family in (NormFamily.INHOMOG_BESOV, NormFamily.INHOMOG_TRIEBEL)
    klo, khi = spec.shell_range or (1 if inhomog else g.k_min, g.k_max)
    blocks = [(1.0, psi(r))] if inhomog else []
    blocks += [(2.0 ** (k * spec.s), phi(r * 2.0 ** (-k)))
               for k in range(max(klo, 1) if inhomog else klo, khi + 1)]

    def inverse(data):
        if not half:
            return to_physical(Field(g, Domain.FOURIER, data))
        piece = np.fft.irfftn(data[..., : g.points_per_dim // 2 + 1], s=g.shape, axes=range(g.n))
        return Field(g, Domain.PHYSICAL, piece / g.quadrature_weight)

    pieces = [(wk, inverse(hat.data * mult)) for wk, mult in blocks]
    lebesgue = [NormSpec(NormFamily.LEBESGUE, p=spec.p)]
    if spec.family in (NormFamily.HOMOG_BESOV, NormFamily.INHOMOG_BESOV):
        terms = [wk * norm_values(piece, lebesgue)[0] for wk, piece in pieces]
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
    return norm_values(Field(g, Domain.PHYSICAL, agg), lebesgue)[0]


class TestNormValues:
    """One piece loop per field: every value equals its one-spec value, and
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
            expected = [norm_values(f, [spec])[0] for spec in self.MIXED]
            assert norm_values(f, self.MIXED) == expected
            for spec, value in zip(self.MIXED, expected):
                if spec.family not in (NormFamily.LEBESGUE, NormFamily.HOMOG_SOBOLEV,
                                       NormFamily.BESSEL_SOBOLEV):
                    assert value == _reference_shell_norm(f, spec, half=f.is_real)
            assert norm_values(f, self.MIXED[::-1]) == expected[::-1]
            assert norm_values(f, self.MIXED[3:5]) == expected[3:5]

    def test_repeated_one_piece_specs(self):
        """Two equal Sobolev specs and two Lebesgue specs among shell specs:
        each value equals its one-spec value exactly."""
        specs = [
            NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0),
            NormSpec(NormFamily.LEBESGUE, 0.0, 2.0),
            NormSpec(NormFamily.HOMOG_BESOV, 0.5, 2.0, 2.0),
            NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0),
            NormSpec(NormFamily.LEBESGUE, 0.0, 3.0),
            NormSpec(NormFamily.INHOMOG_TRIEBEL, 0.5, 2.0, 1.0),
        ]
        for n, m in ((1, 1024), (3, 32)):
            hat = _hermitian_field(n, m, seed=15)
            skew = Field(hat.grid, hat.domain, hat.data * (1.0 + 0.5j))
            real = Field(hat.grid, Domain.PHYSICAL, to_physical(hat).data.real)
            for f in (hat, real, skew, to_physical(skew)):
                values = norm_values(f, specs)
                assert values == [norm_values(f, [spec])[0] for spec in specs]
                assert values[0] == values[3]

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


def _no_skip_value(f, spec):
    """One spec's value with every piece inverted, zero or not: the piece
    loop of norm_values restated without its carry rule, through numpy's
    irfftn of the half spectrum or ifftn of the full one."""
    from gnlab.norms import _lp, _lq_reduce, _pieces
    from gnlab.spectral import _cutoff, symbol_values

    g = f.grid
    w = g.quadrature_weight
    real = f.is_real
    data = to_fourier(f).data
    if real:
        data = data[..., : g.points_per_dim // 2 + 1]

    def inverse(spectrum):
        return np.fft.irfftn(spectrum, s=g.shape, axes=range(g.n)) if real else np.fft.ifftn(spectrum)

    terms, agg = [], np.zeros(g.shape)
    for key, weight in _pieces(g, spec).items():
        if spec.family is NormFamily.LEBESGUE and f.domain is Domain.PHYSICAL:
            mag = np.abs(f.data)
        elif spec.family is NormFamily.LEBESGUE:
            mag = np.abs(inverse(data) / w)
        elif key is None or isinstance(key, int):
            mag = np.abs(inverse(data * _cutoff(g, key, half=real)) / w)
        else:
            mag = np.abs(inverse(data * symbol_values(g, key, half=real)) / w)
        if spec.family not in (NormFamily.HOMOG_TRIEBEL, NormFamily.INHOMOG_TRIEBEL):
            terms.append(weight * _lp(mag, spec.p, w))
        elif math.isinf(spec.q):
            agg = np.maximum(agg, mag * weight)
        else:
            agg += (mag * weight) ** spec.q
    if spec.family in (NormFamily.HOMOG_TRIEBEL, NormFamily.INHOMOG_TRIEBEL):
        return _lp(agg if math.isinf(spec.q) else agg ** (1.0 / spec.q), spec.p, w)
    besov = spec.family in (NormFamily.HOMOG_BESOV, NormFamily.INHOMOG_BESOV)
    return _lq_reduce(terms, spec.q if besov else math.inf)


class TestZeroPieces:
    """A shell or low-pass piece that is zero on a Fourier-form field's
    spectrum is carried from the zero spectrum, with no multiplier and no
    inverse transform, and the values stay bit-identical."""

    SPECS = [
        NormSpec(family, s, p, q)
        for family in (NormFamily.HOMOG_BESOV, NormFamily.INHOMOG_BESOV,
                       NormFamily.HOMOG_TRIEBEL, NormFamily.INHOMOG_TRIEBEL)
        for q in (0.5, 2.0, math.inf)
        for s, p in ((0.5, 1.5), (-1.0, 4.0))
    ] + [
        NormSpec(NormFamily.LEBESGUE, 0.0, 3.0),
        NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0),
        NormSpec(NormFamily.BESSEL_SOBOLEV, -0.5, 1.5, m2=1.0),
    ]

    @staticmethod
    def _fields(n, m):
        g = make_grid(n, m, 4 * math.pi)
        hat = random_band_limited(g, g.k_min + 1, g.k_min + 2, seed=21)
        skew = Field(hat.grid, hat.domain, hat.data * (1.0 + 0.5j))
        return [hat, to_physical(hat), skew, to_physical(skew)]

    @pytest.mark.parametrize("n,m", [(1, 1024), (2, 64), (3, 32)])
    def test_equal_to_no_skip_oracle(self, n, m):
        for f in self._fields(n, m):
            assert norm_values(f, self.SPECS) == [_no_skip_value(f, spec) for spec in self.SPECS]

    @pytest.mark.parametrize("n,m", [(1, 1024), (2, 64), (3, 32)])
    def test_band_fields_equal_no_skip_oracle(self, n, m):
        """Bump trains of one and three bumps and random fields on each band
        of the c05 sweep, in both forms: the skip before the multiplier is
        built leaves every value as the no-skip loop computes it."""
        from gnlab.testfuncs import FamilyKind, LacunaryFamily, build_family

        g = make_grid(n, m, 4 * math.pi)
        fields = [build_family(LacunaryFamily(FamilyKind.EPS_BUMP_TRAIN, n, count, j0=3), g)
                  for count in ((1, 3) if n == 1 else (1,))]  # the count that fits the lattice
        fields += [random_band_limited(g, k, k + 1, seed=k) for k in range(g.k_min, min(g.k_min + 4, g.k_max))]
        for f in fields + [to_physical(f) for f in fields]:
            assert norm_values(f, self.SPECS) == [_no_skip_value(f, spec) for spec in self.SPECS]

    def test_multipliers_built_only_where_the_band_meets_them(self, monkeypatch):
        """A one-bump 64^3 train lies where a single shell's cutoff is 1 and
        every other cutoff is 0, and a random field on [2, 4] meets two
        shells: only the multipliers of those shells are built, once each,
        and the values are those of the no-skip loop.  In the sequence
        [skew, hat] the realness changes, so hat follows the zero spectrum,
        not skew, and again builds only the multipliers of its own band."""
        from gnlab import norms
        from gnlab.norms import _IDENTITY, _pieces
        from gnlab.testfuncs import FamilyKind, LacunaryFamily, build_family

        built = []
        cutoff = norms._cutoff
        monkeypatch.setattr(norms, "_cutoff", lambda g, k, half=False: built.append(k) or cutoff(g, k, half))
        g = make_grid(3, 64, 4 * math.pi)
        keys = {key for spec in self.SPECS for key in _pieces(g, spec)}
        cutoffs = {key for key in keys if key is not _IDENTITY and (key is None or isinstance(key, int))}
        train = build_family(LacunaryFamily(FamilyKind.EPS_BUMP_TRAIN, 3, 1, j0=3), g)
        for f, meets in ((train, [3]), (random_band_limited(g, 1, 2, seed=4), [1, 2])):
            r = g.freq_radius()[f.data != 0]
            assert meets == sorted(k for k in cutoffs - {None} if phi(r * 2.0 ** -k).any())
            assert not psi(r).any() and len(cutoffs) > 4
            built.clear()
            values = norm_values(f, self.SPECS)
            assert sorted(built) == meets
            some = self.SPECS[::5]  # the four shell families and a Sobolev spec; q = 0.5, 2, inf
            assert [values[self.SPECS.index(spec)] for spec in some] == [_no_skip_value(f, spec) for spec in some]
        hat = random_band_limited(g, 1, 2, seed=4)
        skew = Field(hat.grid, hat.domain, hat.data * (1.0 + 0.5j))
        assert hat.is_real and not skew.is_real
        per_field = []

        def stream():
            for f in (skew, hat):
                built.clear()
                yield f
                per_field.append(list(built))  # in piece order

        rows = norm_values_seq(stream(), self.SPECS)
        assert per_field == [[1, 2], [1, 2]]
        assert rows == [norm_values(skew, self.SPECS), norm_values(hat, self.SPECS)]

    def test_only_fourier_form_follows_the_zero_spectrum(self, monkeypatch):
        """A field with no predecessor is compared with the zero spectrum,
        for its nonzero positions, only when it is given in Fourier form: a
        physical field's spectrum is computed and dense.  A physical 64^3
        field makes no comparison, and its values are those of the no-skip
        loop."""
        from gnlab import norms

        scans = []
        unchanged = norms._unchanged_cutoffs
        monkeypatch.setattr(norms, "_unchanged_cutoffs",
                            lambda g, data, before, *rest: scans.append(before) or unchanged(g, data, before, *rest))
        hat = random_band_limited(make_grid(3, 64, 4 * math.pi), 1, 2, seed=4)
        some = self.SPECS[::10]  # two Besov specs and an inhomogeneous Triebel one
        for f, scanned in ((to_physical(hat), []), (hat, [0])):
            scans.clear()
            assert norm_values(f, some) == [_no_skip_value(f, spec) for spec in some]
            assert scans == scanned

    @pytest.mark.parametrize("n,m", [(1, 1024), (3, 32)])
    def test_one_inverse_per_nonzero_piece(self, n, m, monkeypatch):
        from gnlab.norms import _IDENTITY, _pieces
        from gnlab.spectral import _cutoff, symbol_values

        calls = []
        # a complex inverse is one ifftn; a real one (spectral._irfftn) ends
        # in exactly one irfft, after per-axis ifft passes that are not counted
        for name in ("ifftn", "irfft"):
            orig = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=orig, **k: calls.append(1) or _f(*a, **k))
        for f in self._fields(n, m):
            g, hat = f.grid, to_fourier(f).data
            keys = {key for spec in self.SPECS for key in _pieces(g, spec)}
            nonzero = 0
            for key in keys:
                if key is _IDENTITY:
                    mult = None if f.domain is Domain.PHYSICAL else 1.0
                elif key is None:
                    mult = lowpass_multiplier(g)
                elif isinstance(key, int):
                    mult = _cutoff(g, key)
                else:
                    mult = symbol_values(g, key)
                nonzero += mult is not None and bool((hat * mult).any())
            if f.domain is Domain.FOURIER:  # a round trip leaves round-off on every shell
                assert 0 < nonzero <= len(keys) - 2  # zero shells are present
            calls.clear()
            norm_values(f, self.SPECS)
            assert len(calls) == nonzero

    # one Triebel spec names shells 0-1 only, so the other shells (and the
    # low-pass block) of the Besov specs may be carried from field to field
    SEQ_SPECS = [
        spec for spec in SPECS
        if spec.family not in (NormFamily.HOMOG_TRIEBEL, NormFamily.INHOMOG_TRIEBEL)
    ] + [bspec(0.5, 1.5, 2.0, NormFamily.HOMOG_TRIEBEL, (0, 1))]

    @staticmethod
    def _plus_pair(f, k):
        """f in Fourier form plus 1 at the lattice point (7/8) 2^k e1, inside
        shell k's exact band, and at its mirror, so realness is kept."""
        g = f.grid
        data = to_fourier(f).data.copy()
        i = round(7.0 * 2.0 ** (k - 3) / g.freq_spacing)
        rest = (0,) * (g.n - 1)
        data[(i,) + rest] += 1.0
        data[(-i % g.points_per_dim,) + rest] += 1.0
        return Field(g, Domain.FOURIER, data)

    @pytest.mark.parametrize("n,m,k", [(1, 1024, 5), (3, 32, 2)])
    def test_sequence_equals_one_field_values(self, n, m, k):
        """[f, f, g], with g = f plus a mode pair in shell k: every row is the
        one-field row, for real and complex fields in both domains."""
        for specs in (self.SPECS, self.SEQ_SPECS):
            for f in self._fields(n, m):
                g = self._plus_pair(f, k)
                if f.domain is Domain.PHYSICAL:
                    g = to_physical(g)
                rows = norm_values_seq([f, f, g], specs)
                assert rows == [norm_values(f, specs), norm_values(f, specs), norm_values(g, specs)]

    @pytest.mark.parametrize("n,m,k", [(1, 1024, 5), (3, 32, 2)])
    def test_sequence_transforms_only_changed_shells(self, n, m, k, monkeypatch):
        """In [f, f, g] the second f transforms only the keys that may not be
        carried (identity, symbols, Triebel shells), and g besides those only
        the shells whose multiplier meets its change."""
        from gnlab.norms import _IDENTITY, _pieces
        from gnlab.spectral import _cutoff, symbol_values

        calls = []
        for name in ("ifftn", "irfft"):
            orig = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=orig, **k: calls.append(1) or _f(*a, **k))
        specs = self.SEQ_SPECS
        for f in self._fields(n, m)[::2]:  # the Fourier-form real and complex fields
            grid, g = f.grid, self._plus_pair(f, k)
            changed = np.flatnonzero(g.data != f.data)
            keys = {key for spec in specs for key in _pieces(grid, spec)}
            triebel = {key for spec in specs if spec.family is NormFamily.HOMOG_TRIEBEL
                       for key in _pieces(grid, spec)}
            rebuilt = {"f": 0, "f again": 0, "g": 0}
            for key in keys:
                if key is _IDENTITY:
                    mult = 1.0
                elif key is None:
                    mult = lowpass_multiplier(grid)
                elif isinstance(key, int):
                    mult = _cutoff(grid, key)
                else:
                    mult = symbol_values(grid, key)
                carried = (key is None or isinstance(key, int)) and key not in triebel
                rebuilt["f"] += bool((f.data * mult).any())
                rebuilt["f again"] += bool((f.data * mult).any()) and not carried
                meets = bool(np.any(np.broadcast_to(mult, grid.shape).flat[changed] != 0))
                rebuilt["g"] += bool((g.data * mult).any()) and (meets or not carried)
            assert rebuilt["f again"] < rebuilt["f"] and rebuilt["f again"] < rebuilt["g"]
            marks = []

            def stream():
                for name, field in (("f", f), ("f again", f), ("g", g)):
                    marks.append((name, len(calls)))
                    yield field

            norm_values_seq(stream(), specs)
            counts = np.diff([mark for _, mark in marks] + [len(calls)])
            assert dict(zip([name for name, _ in marks], counts.tolist())) == rebuilt

    def test_nan_data_propagates(self):
        """A NaN off every piece's support still reaches every value: the
        shell 5 lies off both the band [4, 8] and the NaN at |xi| = 1/2, so
        a skip decided by supports, or by the nonzero positions of the
        spectrum without their finiteness, would read 0 there.  In a sequence, a
        NaN in a later field where every shell but the low-pass block is 0
        still reaches all of that field's values, though those shells are
        unchanged elsewhere, and a NaN field before a finite one leaves the
        finite one's values as they are alone.  The sequence's fields are
        complex, so realness does not block the carry."""
        g = make_grid(1, 256, 4 * math.pi)
        hat = random_band_limited(g, 2, 3, seed=3)
        data = hat.data.copy()
        data[1] = math.nan
        specs = self.SPECS + [bspec(0.0, 2.0, 2.0, shell_range=(5, 5)),
                              bspec(0.0, 2.0, 2.0, NormFamily.HOMOG_TRIEBEL, (5, 5))]
        values = norm_values(Field(hat.grid, hat.domain, data), specs)
        assert all(math.isnan(v) for v in values)

        skew = Field(hat.grid, hat.domain, hat.data * (1.0 + 0.5j))
        bad = Field(skew.grid, skew.domain, data * (1.0 + 0.5j))
        specs = self.SEQ_SPECS + [bspec(0.0, 2.0, 2.0, shell_range=(5, 5))]
        rows = norm_values_seq([skew, bad], specs)
        assert rows[0] == norm_values(skew, specs)
        assert all(math.isnan(v) for v in rows[1])
        assert norm_values_seq([bad, skew], specs)[1] == norm_values(skew, specs)


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
            assert norm_values(f, [NormSpec(NormFamily.LEBESGUE, p=4.0)]) == values[7:8]

    @pytest.mark.parametrize("n,m", [(1, 1024), (2, 64), (3, 32)])
    def test_complex_fields_unchanged(self, n, m):
        from gnlab.testfuncs import FamilyKind, LacunaryFamily, build_family

        hat = _hermitian_field(n, m, seed=12)
        g = hat.grid
        skew = Field(hat.grid, hat.domain, hat.data * (1.0 + 0.5j))
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


class TestSobolevRealPath:
    """Sobolev norms, p = 2 included: a real field is inverted from its half
    spectrum and moves from the complex path by round-off only; a complex
    field keeps the complex path bit for bit."""

    @pytest.mark.parametrize("n,m", [(1, 1024), (2, 64), (3, 32)])
    def test_against_complex_path(self, n, m):
        from gnlab.spectral import Bessel, FracLaplacian

        hat = _hermitian_field(n, m, seed=13)
        g = hat.grid
        real = Field(g, Domain.PHYSICAL, to_physical(hat).data.real)
        skew = Field(hat.grid, hat.domain, hat.data * (1.0 + 0.5j))
        cases = [
            (NormSpec(NormFamily.HOMOG_SOBOLEV, 0.5, 3.0), FracLaplacian(0.5)),
            (NormSpec(NormFamily.BESSEL_SOBOLEV, -0.5, 1.5, m2=0.7), Bessel(-0.5, 0.7)),
            (NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, math.inf), FracLaplacian(1.0)),
            (NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0), FracLaplacian(1.0)),
            (NormSpec(NormFamily.BESSEL_SOBOLEV, 0.5, 2.0, m2=0.7), Bessel(0.5, 0.7)),
        ]
        for spec, symbol in cases:
            for f, rel in ((hat, 1e-15), (real, 1e-15), (skew, 0.0), (to_physical(skew), 0.0)):
                piece = to_physical(apply_symbol(to_fourier(f), symbol))
                ref = norm_values(piece, [NormSpec(NormFamily.LEBESGUE, p=spec.p)])[0]
                got = norm_values(f, [spec])
                assert got == [pytest.approx(ref, rel=rel, abs=0)], (spec, f.domain)


class TestSobolevParseval:
    """Sobolev p = 2 through the piece loop against the Parseval sum over the
    whole lattice, on real and complex fields in both forms."""

    CASES = [
        (NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0), FracLaplacian(1.0)),
        (NormSpec(NormFamily.HOMOG_SOBOLEV, -0.5, 2.0), FracLaplacian(-0.5)),
        (NormSpec(NormFamily.HOMOG_SOBOLEV, 0.0, 2.0), FracLaplacian(0.0)),
        (NormSpec(NormFamily.BESSEL_SOBOLEV, 1.0, 2.0, m2=1.0), Bessel(1.0, 1.0)),
        (NormSpec(NormFamily.BESSEL_SOBOLEV, -0.5, 2.0, m2=0.7), Bessel(-0.5, 0.7)),
        (NormSpec(NormFamily.BESSEL_SOBOLEV, 0.5, 2.0, m2=0.0), Bessel(0.5, 0.0)),
    ]

    @pytest.mark.parametrize("n,m", [(1, 1024), (2, 64), (3, 32)])
    def test_against_parseval_sum(self, n, m):
        hat = _hermitian_field(n, m, seed=14)
        g = hat.grid
        skew = Field(hat.grid, hat.domain, hat.data * (1.0 + 0.5j))
        real = Field(g, Domain.PHYSICAL, to_physical(hat).data.real)
        fields = (hat, real, skew, to_physical(skew))
        assert [f.is_real for f in fields] == [True, True, False, False]
        for f in fields:
            data = f.data if f.domain is Domain.FOURIER else np.fft.fftn(f.data) * g.quadrature_weight
            for spec, symbol in self.CASES:
                ref = sobolev_l2_parseval(data, g.freq_radius(), symbol, g.box_length)
                value = norm_values(f, [spec])[0]
                assert value == pytest.approx(ref, rel=1e-15, abs=0), (spec, f.domain)


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
