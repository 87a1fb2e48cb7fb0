"""Variational solver tests: interaction oracle, gradients, rearrangement,
constrained descent, sharp-constant search, profiles, regime classification."""
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from oracles import lattice_riesz_kernel, pair_interaction_general, pair_interaction_product_density

from gnlab.norms import NormFamily, NormSpec, lp_norm, sobolev_norm
from gnlab.spectral import Domain, Field, make_grid, riesz_constant
from gnlab.testfuncs import gaussian, positive_random_field
from gnlab.variational import (
    DivergenceError,
    EnergyParams,
    MinimizeOptions,
    MultiField,
    ProductPowers,
    Regime,
    SumPowers,
    energy,
    energy_gradient,
    estimate_cstar,
    g_conditions_check,
    g_value,
    mass,
    minimize,
    monotone_along_rays,
    project_spheres,
    regime_classify,
    scaling_profile,
    schwarz_rearrange,
    sum_squares,
    upsilon_beta,
)
from gnlab.variational import _quad_form


def bump_field(grid, w, jitter=None, floor=0.0):
    data = np.exp(-grid.coord_radius2() / (2.0 * w * w))
    if jitter is not None:
        data = np.maximum(data * (1.0 + 0.1 * jitter), floor)
    return Field(grid, Domain.PHYSICAL, data)


def single(grid, w, c=1.0):
    f = bump_field(grid, w)
    return MultiField((f,), (c,))


class TestUpsilon:
    def test_zero_field(self):
        grid = make_grid(3, 16, 12.0)
        z = MultiField((Field(grid, Domain.PHYSICAL, np.full(grid.shape, 1e-30)),), (1.0,))
        assert upsilon_beta(z, 2.0) == pytest.approx(0.0, abs=1e-40)

    def test_agrees_with_lattice_kernel_double_sum(self):
        """Fourier-path interaction vs the direct double sum against the
        independently built (Gamma-integral) lattice kernel: three Gaussians."""
        grid = make_grid(3, 32, 14.0)
        kernel = lattice_riesz_kernel(32, 14.0, 3, 2.0) * riesz_constant(3, 2.0)
        ax = grid.axis_coords()
        for w in (1.4, 1.75, 2.1):
            f1d = np.exp(-(ax ** 2) / (4.0 * w * w))  # amplitude factor per axis
            u = MultiField(
                (Field(grid, Domain.PHYSICAL, f1d[:, None, None] * f1d[None, :, None] * f1d[None, None, :]),),
                (1.0,),
            )
            # density of the product Gaussian is the product of squared factors
            got = upsilon_beta(u, 2.0)
            oracle = pair_interaction_product_density([f1d ** 2] * 3, kernel, grid.quadrature_weight)
            assert got == pytest.approx(oracle, rel=1e-6)

    def test_literal_double_sum_small_grid(self):
        grid = make_grid(3, 8, 6.0)
        rng = np.random.default_rng(3)
        rho_amp = np.abs(rng.standard_normal(grid.shape)) + 0.1
        u = MultiField((Field(grid, Domain.PHYSICAL, rho_amp),), (1.0,))
        kernel = lattice_riesz_kernel(8, 6.0, 3, 1.5) * riesz_constant(3, 1.5)
        oracle = pair_interaction_general(rho_amp ** 2, kernel, grid.quadrature_weight)
        assert upsilon_beta(u, 1.5) == pytest.approx(oracle, rel=1e-6)

    def test_scale_covariance_difference_form(self):
        """Mass-preserving dyadic dilation scales the free part by
        lambda^(n-beta); the mean-field offset is dilation-invariant, so the
        law is read off from first differences."""
        from gnlab.spectral import dilate

        grid = make_grid(3, 64, 24.0)
        f = gaussian(grid, 1.5)
        beta = 2.0
        vals = []
        for m in (0, 1, 2):
            fd = dilate(f, m, l2_normalized=True)
            vals.append(upsilon_beta(MultiField((fd,), (1.0,)), beta))
        lam_pow = 2.0 ** (grid.n - beta)
        got = (vals[2] - vals[1]) / (vals[1] - vals[0])
        assert got == pytest.approx(lam_pow, rel=2e-2)

    def test_beta_range_enforced(self):
        grid = make_grid(2, 16, 8.0)
        u = MultiField((Field(grid, Domain.PHYSICAL, np.ones(grid.shape)),), (1.0,))
        with pytest.raises(ValueError):
            upsilon_beta(u, 2.5)


class TestEnergy:
    @pytest.mark.parametrize("s,m2", [
        (math.nan, 0.0), (math.inf, 0.0), (0.0, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -1.0),
    ])
    def test_params_reject_nonfinite_or_out_of_range(self, s, m2):
        with pytest.raises(ValueError, match="s must be positive|m\\^2 must be nonnegative"):
            EnergyParams(s, m2, 2.0, sum_squares())

    def test_zero_field(self):
        grid = make_grid(3, 16, 12.0)
        params = EnergyParams(1.0, 0.0, 2.0, sum_squares())
        z = MultiField((Field(grid, Domain.PHYSICAL, np.full(grid.shape, 1e-30)),), (1.0,))
        assert energy(z, params) == pytest.approx(0.0, abs=1e-30)

    def test_sum_squares_reduces_to_upsilon(self):
        grid = make_grid(3, 16, 12.0)
        u = MultiField((bump_field(grid, 1.4), bump_field(grid, 1.9)), (1.0, 1.0))
        params = EnergyParams(1.0, 0.5, 2.0, sum_squares())
        quad = sum(_quad_form(grid, a, 1.0, 0.5) for a in u.arrays())
        assert energy(u, params) == pytest.approx(0.5 * quad - upsilon_beta(u, 2.0), rel=1e-12)

    def test_critical_scaling_profile_power_law(self):
        grid = make_grid(3, 32, 16.0)
        u = single(grid, 2.0)
        params = EnergyParams(s=1.0, m2=0.0, beta=1.0, G=sum_squares())  # s = (n-beta)/2
        prof = scaling_profile(u, params, [2.0 ** k for k in range(4)])
        e0 = prof.energies[0]
        for lam, e in zip(prof.lambdas, prof.energies):
            assert e == pytest.approx(lam ** (grid.n - 1.0) * e0, rel=1e-10)
        assert prof.fitted_exponent == pytest.approx(2.0, abs=1e-6)

    def test_lambda_one_is_energy(self):
        grid = make_grid(3, 16, 12.0)
        u = single(grid, 1.4)
        params = EnergyParams(0.8, 0.3, 1.5, sum_squares())
        prof = scaling_profile(u, params, [1.0])
        assert prof.energies[0] == pytest.approx(energy(u, params), rel=1e-12)

    def test_supercritical_growth_collapses(self):
        grid = make_grid(3, 16, 12.0)
        f = bump_field(grid, 1.4)
        u = MultiField((f,), (1.0,))
        # alpha n > n + beta + 2s: profile dives below any threshold
        params = EnergyParams(s=0.5, m2=0.0, beta=1.0, G=ProductPowers((3.0,)))
        prof = scaling_profile(project_spheres(u), params, [2.0 ** k for k in range(8)])
        assert min(prof.energies) < -10.0


class TestGradient:
    @pytest.mark.parametrize("G", [sum_squares(), SumPowers(2.5), ProductPowers((1.5, 1.5))])
    def test_directional_derivative(self, G):
        grid = make_grid(3, 16, 12.0)
        L = len(G.alphas) if isinstance(G, ProductPowers) else 2
        params = EnergyParams(s=1.0, m2=0.5, beta=2.0, G=G)
        rng = np.random.default_rng(11)
        for trial in range(5):
            arrs = [
                np.maximum(
                    np.exp(-grid.coord_radius2() / 4.0) * (1 + 0.1 * rng.standard_normal(grid.shape)),
                    0.05,
                )
                for _ in range(L)
            ]
            u = MultiField(tuple(Field(grid, Domain.PHYSICAL, a) for a in arrs), (1.0,) * L)
            vs = [0.02 * rng.standard_normal(grid.shape) for _ in range(L)]
            h = 1e-4
            up = MultiField(tuple(Field(grid, Domain.PHYSICAL, a + h * v) for a, v in zip(arrs, vs)), (1.0,) * L)
            dn = MultiField(tuple(Field(grid, Domain.PHYSICAL, a - h * v) for a, v in zip(arrs, vs)), (1.0,) * L)
            fd = (energy(up, params) - energy(dn, params)) / (2 * h)
            grads = energy_gradient(u, params)
            ip = sum(
                float(np.sum(g.data.real * v)) * grid.quadrature_weight
                for g, v in zip(grads, vs)
            )
            assert fd == pytest.approx(ip, rel=1e-5)

    def test_zero_field_zero_gradient(self):
        grid = make_grid(2, 16, 8.0)
        params = EnergyParams(1.0, 1.0, 1.0, sum_squares())
        z = MultiField((Field(grid, Domain.PHYSICAL, np.zeros(grid.shape)),), (1.0,))
        g = energy_gradient(z, params)[0]
        assert np.max(np.abs(g.data)) == 0.0

    def test_choquard_operator_form(self):
        """For the quadratic nonlinearity the gradient is
        (m^2 - Lap)^s u - 4 (V * u^2) u, checked against the independent
        lattice-kernel convolution."""
        from oracles import convolve_with_kernel

        grid = make_grid(3, 16, 12.0)
        u_arr = np.exp(-grid.coord_radius2() / 3.0)
        u = MultiField((Field(grid, Domain.PHYSICAL, u_arr),), (1.0,))
        params = EnergyParams(s=1.0, m2=1.0, beta=2.0, G=sum_squares())
        grad = energy_gradient(u, params)[0].data.real
        kernel = lattice_riesz_kernel(16, 12.0, 3, 2.0) * riesz_constant(3, 2.0)
        pts = [(0, 0, 0), (2, 1, 0), (4, 4, 4)]
        conv = convolve_with_kernel(u_arr ** 2, kernel, grid.quadrature_weight, pts)
        hat = np.fft.fftn(u_arr)
        wsym = (1.0 + grid.freq_radius() ** 2)
        quad_part = np.fft.ifftn(wsym * hat).real
        for pt, cv in zip(pts, conv):
            expected = quad_part[pt] - 4.0 * cv * u_arr[pt]
            assert grad[pt] == pytest.approx(expected, rel=1e-6)


class TestHalfSpectrum:
    """Real transforms: the half-spectrum forms and gradients equal their
    full complex-lattice counterparts.  The fields carry strong content in
    the zero plane and the Nyquist plane of the last axis, which the fold in
    _form counts once, so double-counting or dropping either plane fails."""

    CASES = [(1, 64, 10.0, 0.5), (2, 16, 8.0, 1.0), (3, 8, 6.0, 2.0)]

    @staticmethod
    def edge_heavy(grid, seed):
        rng = np.random.default_rng(seed)
        last = np.arange(grid.points_per_dim)
        nyquist = (-1.0) ** last  # only the plane m/2 of the last axis
        shape = grid.shape[:-1] + (1,)
        across = 1.0 + 0.3 * rng.random(shape)  # only the plane 0
        return 2.0 + across + 0.7 * across * nyquist + 0.2 * rng.random(grid.shape)

    @pytest.mark.parametrize("n,m,box,beta", CASES)
    def test_form_folds_edge_planes_once(self, n, m, box, beta):
        from gnlab.spectral import Bessel, RieszPotential, symbol_values
        from gnlab.variational import _form, _half

        grid = make_grid(n, m, box)
        f = self.edge_heavy(grid, 5)
        full = np.fft.fftn(f) * grid.quadrature_weight
        for symbol in (Bessel(1.5, 0.5), RieszPotential(beta)):
            w = symbol_values(grid, symbol)
            expected = float(np.sum(w * np.abs(full) ** 2)) / box ** n
            got = _form(grid, np.fft.rfftn(f), _half(w))
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,m,box,beta", CASES)
    @pytest.mark.parametrize("G", [sum_squares(), ProductPowers((1.5, 1.5))])
    def test_energy_and_gradient_match_complex_reference(self, n, m, box, beta, G):
        from gnlab.spectral import Bessel, RieszPotential, symbol_values
        from gnlab.variational import g_partial

        grid = make_grid(n, m, box)
        params = EnergyParams(s=0.75, m2=0.5, beta=beta, G=G)
        arrs = [self.edge_heavy(grid, seed) for seed in (1, 2)]
        u = MultiField(tuple(Field(grid, Domain.PHYSICAL, a) for a in arrs), (1.0, 1.0))
        w_quad = symbol_values(grid, Bessel(1.5, 0.5))
        w_riesz = symbol_values(grid, RieszPotential(beta))
        c = riesz_constant(n, beta)
        hats = [np.fft.fftn(a) * grid.quadrature_weight for a in arrs]
        g_hat = np.fft.fftn(g_value(G, arrs)) * grid.quadrature_weight
        vol = box ** n
        quad = sum(float(np.sum(w_quad * np.abs(h) ** 2)) for h in hats) / vol
        inter = c * float(np.sum(w_riesz * np.abs(g_hat) ** 2)) / vol
        assert energy(u, params) == pytest.approx(0.5 * quad - inter, rel=1e-12)

        conv = c * np.fft.ifftn(np.fft.fftn(g_value(G, arrs)) * w_riesz).real
        grads = energy_gradient(u, params)
        for i, (a, g) in enumerate(zip(arrs, grads)):
            ref = np.fft.ifftn(w_quad * np.fft.fftn(a)).real - 2.0 * conv * g_partial(G, arrs, i)
            assert np.max(np.abs(g.data.real - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestProjectionAndRearrangement:
    def test_project_idempotent_and_exact(self):
        grid = make_grid(2, 32, 10.0)
        u = MultiField((positive_random_field(grid, 0), positive_random_field(grid, 1)), (2.0, 0.5))
        pu = project_spheres(u)
        for arr, c in zip(pu.arrays(), pu.masses):
            assert mass(grid, arr) == pytest.approx(c, rel=1e-12)
        again = project_spheres(pu)
        for a, b in zip(pu.arrays(), again.arrays()):
            assert np.max(np.abs(a - b)) < 1e-14

    def test_project_scales_by_half(self):
        grid = make_grid(1, 64, 8.0)
        f = Field(grid, Domain.PHYSICAL, np.ones(64))
        u = MultiField((f,), (2.0,))  # current mass = 8.0 = 4 * target
        pu = project_spheres(u)
        assert pu.arrays()[0][0] == pytest.approx(0.5, rel=1e-12)

    def test_zero_component_rejected(self):
        grid = make_grid(1, 64, 8.0)
        z = Field(grid, Domain.PHYSICAL, np.zeros(64))
        with pytest.raises(ValueError):
            project_spheres(MultiField((z,), (1.0,)))

    def test_rearrangement_fixed_point(self):
        grid = make_grid(3, 16, 12.0)
        f = bump_field(grid, 1.5)  # already radial decreasing
        fr = schwarz_rearrange(f)
        assert np.max(np.abs(fr.data.real - f.data.real)) < 1e-14

    def test_equimeasurability(self):
        grid = make_grid(3, 16, 12.0)
        f = positive_random_field(grid, 7)
        fr = schwarz_rearrange(f)
        for p in (1.0, 2.0, math.inf):
            assert lp_norm(fr, p) == pytest.approx(lp_norm(f, p), rel=1e-12)
        assert np.array_equal(
            np.sort(fr.data.real.ravel()), np.sort(np.abs(f.data.real).ravel())
        )

    def test_sobolev_norm_does_not_increase(self):
        grid = make_grid(3, 16, 12.0)
        spec = NormSpec(NormFamily.HOMOG_SOBOLEV, 0.5, 2.0)
        for seed in range(5):
            f = positive_random_field(grid, seed)
            fr = schwarz_rearrange(f)
            assert sobolev_norm(fr, spec) <= sobolev_norm(f, spec) * (1 + 1e-6)

    def test_energy_does_not_increase_for_supermodular_kinds(self):
        grid = make_grid(3, 16, 12.0)
        params = EnergyParams(1.0, 0.0, 2.0, sum_squares())
        for seed in range(5):
            u = project_spheres(MultiField((positive_random_field(grid, seed),), (1.0,)))
            ur = project_spheres(
                MultiField(tuple(schwarz_rearrange(f) for f in u.components), u.masses)
            )
            assert energy(ur, params) <= energy(u, params) * (1 + 1e-6) + 1e-9


class TestMinimize:
    def test_choquard_ground_state_small(self):
        grid = make_grid(3, 32, 16.0)
        params = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=sum_squares())
        res = minimize(single(grid, 2.0), params, MinimizeOptions(max_iters=400, tol=1e-10))
        assert res.converged
        assert res.energy_trace[-1] < 0.0
        assert res.el_residual < 1e-3
        assert abs(mass(grid, res.u_final.arrays()[0]) - 1.0) < 1e-10
        assert monotone_along_rays(res.u_final.components[0], tol=1e-8)
        # monotone trace within line-search tolerance
        for a, b in zip(res.energy_trace, res.energy_trace[1:]):
            assert b <= a + 1e-12

    def test_restarts_agree(self):
        grid = make_grid(3, 32, 16.0)
        params = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=sum_squares())
        finals = []
        for seed in (5, 17):
            u0 = MultiField((positive_random_field(grid, seed),), (1.0,))
            res = minimize(u0, params, MinimizeOptions(max_iters=600, tol=1e-10))
            finals.append(res.energy_trace[-1])
        assert finals[0] == pytest.approx(finals[1], rel=1e-4)

    def test_mass_conserved_every_report(self):
        grid = make_grid(2, 32, 12.0)
        params = EnergyParams(s=1.0, m2=0.5, beta=1.0, G=sum_squares())
        u0 = MultiField((positive_random_field(grid, 2),), (1.5,))
        res = minimize(u0, params, MinimizeOptions(max_iters=50, tol=1e-12))
        assert mass(grid, res.u_final.arrays()[0]) == pytest.approx(1.5, rel=1e-10)

    def test_two_components_distinct_masses(self):
        grid = make_grid(2, 32, 12.0)
        params = EnergyParams(s=1.0, m2=0.5, beta=1.0, G=ProductPowers((1.0, 1.0)))
        masses = (1.0, 0.6)
        u0 = MultiField((positive_random_field(grid, 1), positive_random_field(grid, 2)), masses)
        res = minimize(u0, params, MinimizeOptions(max_iters=60, tol=1e-12))
        for arr, c in zip(res.u_final.arrays(), masses):
            assert abs(mass(grid, arr) - c) < 1e-10
        assert len(res.multipliers) == 2
        assert res.iterations > 1
        for a, b in zip(res.energy_trace, res.energy_trace[1:]):
            assert b <= a

    def test_nan_detected(self):
        grid = make_grid(1, 64, 8.0)
        params = EnergyParams(s=1.0, m2=0.0, beta=0.5, G=sum_squares())
        bad = Field(grid, Domain.PHYSICAL, np.full(64, np.nan))
        with pytest.raises((DivergenceError, ValueError)):
            minimize(MultiField((bad,), (1.0,)), params)


class TestCStar:
    def test_estimate_and_probe_bound(self):
        grid = make_grid(3, 16, 12.0)
        est = estimate_cstar(3, 2.0, grid, max_iters=60)
        assert est.value > 0
        from gnlab.variational import _quotient

        for seed in range(20):
            probe = positive_random_field(grid, seed).data.real
            q = _quotient(grid, probe, 2.0, 0.5)
            assert q <= est.value * 1.01

    def test_extra_starts(self):
        grid = make_grid(3, 16, 12.0)
        est = estimate_cstar(3, 2.0, grid, max_iters=30, seeds=(3,))
        assert est.starts == 3 + 1
        again = estimate_cstar(3, 2.0, grid, max_iters=30, seeds=(3,), extra_starts=(est.argmax,))
        assert again.starts == 3 + 1 + 1
        assert again.value >= est.value
        alone = estimate_cstar(3, 2.0, grid, max_iters=30, seeds=(), extra_starts=(est.argmax, est.argmax))
        assert alone.starts == 3 + 0 + 2
        assert alone.value >= est.value * (1.0 - 1e-12)

    def test_quotient_scale_invariance(self):
        """The quotient's free part is dilation invariant.  On the torus the
        dropped zero mode adds a mean-field term scaling like 1/lambda, so
        invariance is read from the extrapolation 2 q(2 lambda) - q(lambda),
        which must be lambda-independent."""
        from gnlab.spectral import dilate
        from gnlab.variational import _quotient

        grid = make_grid(3, 64, 24.0)
        g = gaussian(grid, 2.4)
        qs = []
        for m in (0, 1, 2):
            gd = dilate(g, m, l2_normalized=True)
            qs.append(_quotient(grid, gd.data.real, 2.0, 0.5))
        free_a = 2 * qs[1] - qs[0]
        free_b = 2 * qs[2] - qs[1]
        assert free_b == pytest.approx(free_a, rel=2e-2)

    def test_multicomponent_splitting(self):
        grid = make_grid(3, 16, 12.0)
        f = bump_field(grid, 1.5)
        z = Field(grid, Domain.PHYSICAL, np.zeros(grid.shape))
        solo = MultiField((f,), (1.0,))
        padded_ups = upsilon_beta(MultiField((f, Field(grid, Domain.PHYSICAL, np.full(grid.shape, 0.0) + 1e-300)), (1.0, 1.0)), 2.0)
        assert upsilon_beta(solo, 2.0) == pytest.approx(padded_ups, rel=1e-12)


class TestRegimes:
    def test_supercritical_smoothness(self):
        rep = regime_classify(3, 2.0, 1.0, 0.0, 1.0, 1.0, sum_squares())
        assert rep.regime is Regime.MINIMIZER_EXISTS

    def test_borderline_massive(self):
        rep = regime_classify(3, 1.0, 1.0, 1.0, 0.7, 1.0, sum_squares())
        assert rep.regime is Regime.MINIMIZER_EXISTS_IFF
        assert rep.critical_mass == pytest.approx(0.5)

    def test_high_dim_massive_not_achieved(self):
        rep = regime_classify(5, 1.0, 2.0, 1.0, 0.3, 1.0, sum_squares())
        assert rep.regime is Regime.NOT_ACHIEVED

    def test_massless_critical_cases(self):
        crit = 0.5  # cstar = 1
        assert regime_classify(3, 1.0, 1.0, 0.0, 0.2, 1.0, sum_squares()).regime is Regime.NO_MINIMIZER
        assert regime_classify(3, 1.0, 1.0, 0.0, 0.9, 1.0, sum_squares()).regime is Regime.MINUS_INFINITY
        at = regime_classify(3, 1.0, 1.0, 0.0, crit, 1.0, sum_squares())
        assert at.regime is Regime.MINIMIZER_EXISTS_IFF
        assert "estimate-limited" in at.note

    def test_low_dim_massive_window(self):
        # n = 3, beta = 2.5 -> s = 1/4, n < 2 + beta
        args = (3, 2.5, 0.25, 1.0)
        assert regime_classify(*args, 0.2, 1.0, sum_squares()).regime is Regime.MINIMIZER_EXISTS
        assert regime_classify(*args, 0.5, 1.0, sum_squares()).regime is Regime.NOT_ACHIEVED
        assert regime_classify(*args, 0.9, 1.0, sum_squares()).regime is Regime.MINUS_INFINITY

    def test_subcritical_smoothness_collapses(self):
        rep = regime_classify(3, 1.0, 0.5, 0.0, 1.0, 1.0, sum_squares())
        assert rep.regime is Regime.MINUS_INFINITY

    def test_product_growth_violation(self):
        rep = regime_classify(3, 1.0, 0.5, 0.0, 1.0, 1.0, ProductPowers((3.0,)))
        assert rep.regime is Regime.MINUS_INFINITY

    def test_critical_decided_exactly(self):
        """n=3, beta=2.2, s=0.4 is critical: s == (n-beta)/2 holds for 11/5
        and 2/5 but not in binary floating point."""
        rep = regime_classify(3, 2.2, 0.4, 0.0, 1.0, 1.0, sum_squares())
        assert rep.case == "critical-massless"
        assert rep.regime is Regime.MINUS_INFINITY  # c = 1 > 1/(2 cstar)
        exact = regime_classify(3, Fraction(11, 5), "2/5", 0, 1.0, 1.0, sum_squares())
        assert exact == rep
        with pytest.raises(ValueError):
            regime_classify(3, math.nan, 0.4, 0.0, 1.0, 1.0, sum_squares())

    def test_out_of_scope_parameters(self):
        rep = regime_classify(3, 3.5, 1.0, 0.0, 1.0, 1.0, sum_squares())
        assert rep.regime is Regime.OUT_OF_SCOPE


class TestGConditions:
    def test_product_powers_pass(self):
        rep = g_conditions_check(ProductPowers((1.0, 1.0)), sample_count=500, seed=0)
        assert rep.zero_component_ok
        assert rep.scaling_failures == 0
        assert rep.supermodular_failures == 0
        assert rep.scaling_mode == "componentwise"

    def test_sum_squares_single_constraint_semantics(self):
        rep = g_conditions_check(sum_squares(), sample_count=1000, seed=1)
        assert rep.scaling_mode == "common"
        assert rep.scaling_failures == 0
        assert rep.supermodular_failures == 0
        assert not rep.zero_component_ok  # sums do not vanish on one zero component

    def test_product_with_zero_component_vanishes(self):
        vals = g_value(ProductPowers((1.5, 2.0)), [np.array([0.7]), np.array([0.0])])
        assert vals[0] == 0.0

    def test_growth_constant_reported(self):
        rep = g_conditions_check(SumPowers(2.5), sample_count=200, seed=2)
        assert 0 < rep.growth_constant < 10.0
