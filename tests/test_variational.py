"""Variational solver tests: interaction oracle, gradients, rearrangement,
constrained descent, sharp-constant search, profiles, regime classification."""
import math
import multiprocessing
import os
import pathlib
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from instruments import dilate, g_conditions_check
from oracles import lattice_riesz_kernel, pair_interaction_general, pair_interaction_product_density

from gnlab import spectral, variational
from gnlab.norms import NormFamily, NormSpec, norm_values
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
from gnlab.variational import _Workspace, _ascent_eval, _critical, _evaluate


def bump_field(grid, w, jitter=None, floor=0.0):
    data = np.exp(-grid.coord_radius2() / (2.0 * w * w))
    if jitter is not None:
        data = np.maximum(data * (1.0 + 0.1 * jitter), floor)
    return Field(grid, Domain.PHYSICAL, data)


def single(grid, w, c=1.0):
    f = bump_field(grid, w)
    return MultiField((f,), (c,))


def quotient(grid, arr, beta):
    """The C* ascent's quotient Upsilon / (mass ||u||^2 in H^s-dot), s = (n - beta)/2."""
    ws = _Workspace(grid, _critical(grid.n, beta), 1)
    ws.trial[0][...] = arr
    quad, inter = _evaluate(ws)
    return inter / (mass(grid, arr) * quad)


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
        spec = NormSpec(NormFamily.BESSEL_SOBOLEV, s=1.0, p=2.0, m2=0.5)
        quad = sum(norm_values(f, [spec])[0] ** 2 for f in u.components)
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

    def test_lambda_one_is_energy_two_component_product(self):
        grid = make_grid(3, 16, 12.0)
        u = MultiField((bump_field(grid, 1.4), bump_field(grid, 1.9)), (1.0, 0.5))
        params = EnergyParams(0.9, 0.4, 2.0, ProductPowers((1.5, 1.25)))
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

    @pytest.mark.parametrize("lambdas", [[math.nan], [1.0, 2.0, math.inf], [0.0], [1.0, -2.0]])
    def test_lambda_checked(self, lambdas, monkeypatch):
        """A lambda that is not finite and positive raises before any
        evaluation: a NaN returned a NaN energy, and [1, 2, inf] ended in
        numpy's LinAlgError from the exponent fit."""
        calls = []
        monkeypatch.setattr(variational, "_evaluate", lambda ws: calls.append(ws))
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            scaling_profile(single(make_grid(3, 16, 12.0), 1.4), EnergyParams(1.0, 0.0, 2.0, sum_squares()), lambdas)
        assert calls == []


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
        from gnlab.spectral import Bessel, RieszPotential, _form, symbol_values

        grid = make_grid(n, m, box)
        f = self.edge_heavy(grid, 5)
        full = np.fft.fftn(f) * grid.quadrature_weight
        for symbol in (Bessel(1.5, 0.5), RieszPotential(beta)):
            w = symbol_values(grid, symbol)
            expected = float(np.sum(w * np.abs(full) ** 2)) / box ** n
            got = _form(grid, np.fft.rfftn(f), symbol_values(grid, symbol, half=True), (None, None))
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


class TestPinnedOutputs:
    """Solver and kernel outputs pinned bit for bit, so that a performance
    change to the transforms or the work arrays shows any drift here first.
    The values are those of numpy's pocketfft on x86-64; another FFT backend
    may round differently."""

    MINIMIZE = {
        "gaussian": (
            12,
            ["-0x1.49b4635083c4cp-5", "-0x1.68c32d63e0d0cp-5", "-0x1.6f42326c21248p-5",
             "-0x1.7133122d8c71cp-5", "-0x1.72176d406c094p-5", "-0x1.72a1b14cfd678p-5",
             "-0x1.72fe52f5c1878p-5", "-0x1.733e010ccf6a8p-5", "-0x1.7369f17164884p-5",
             "-0x1.7388366a828b8p-5", "-0x1.739d038c0e598p-5", "-0x1.73ab46a1c9db4p-5",
             "-0x1.73b50912f2344p-5"],
            ["0x1.2b6e9cee32a1bp-1"],
            "0x1.71e9ceca121d7p-9",
            "1dc5fcee9da4d28333b9926cd19e3e50355c4a142552df4d587149f6f2bc83ca",
        ),
        "random": (
            12,
            ["0x1.e4e7519f8ee62p+1", "0x1.369ec0e996bf8p-12", "0x1.09e2b88c3b990p-15",
             "-0x1.0681cdc4ba180p-18", "-0x1.04f25313b8ca0p-16", "-0x1.58d90634c4220p-16",
             "-0x1.841c18dd0e220p-16", "-0x1.9df680c510480p-16", "-0x1.af7470172fe40p-16",
             "-0x1.bc913616d3520p-16", "-0x1.c73b770178160p-16", "-0x1.d0781540a4000p-16",
             "-0x1.d8dabe97f09a0p-16"],
            ["0x1.a3748bac635b6p-10"],
            "0x1.866a505961372p-11",
            "c21f9659169e95bf46dcf575eab2a980d84c1f6a5beb8dd940459e8467d7914b",
        ),
    }
    # per grid: sha256 of (energy for G = product, energy for G = sum of
    # squares, upsilon_beta, scaling_profile energies) and of both gradients
    KERNEL = {
        (1, 256, 20.0): ("3909daa642fa9b4a8fe5941a3954a80e5787fe48781652913265e5d950948b22",
                         "5461d81f06d6ff578b2a9b63a8d968cb016a28e69206a8394b2912b496e32ac6"),
        (2, 32, 10.0): ("0d541d2001afc8a4db6b5a6151c80b522a5f1bab8e1ecec305abb68d88ccad02",
                        "4c6a621c5ed35d0d3808124d14d73b719b818c5cdca88872297b021618c45d95"),
        (3, 16, 8.0): ("7a3604d8fd57965722fd8951fd06aa29e084ffed28c16813409c0a777d2a7d41",
                       "aa609d673bf19201ce7b76913c81f6de85f0302b7ad0fef87edf39afa184c4a6"),
        (3, 64, 20.0): ("c3a05d82eca8372daa73c70f8841bbfecc649b14d75bbc6e5d2970725649e155",
                        "101264c7ebfb23ea463a735cb96c554bc327103b9dc95535a9474be95d17cc49"),
    }

    @staticmethod
    def digest(values):
        import hashlib

        return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()

    # Schwarz steps tried in test_short_minimize: the step runs until it is
    # first rejected, at iteration 1 from the Gaussian, and at iteration 2
    # from the random start, where iteration 1 keeps it
    REARRANGES = {"gaussian": 1, "random": 2}

    @staticmethod
    def start_field(grid, start):
        return gaussian(grid, 2.0) if start == "gaussian" else positive_random_field(grid, 101)

    @pytest.mark.parametrize("start", ["gaussian", "random"])
    def test_short_minimize(self, start, monkeypatch):
        calls = []
        rearrange = variational._rearrange

        def counted(*args):
            calls.append(args)
            return rearrange(*args)

        monkeypatch.setattr(variational, "_rearrange", counted)
        grid = make_grid(3, 32, 16.0)
        params = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=sum_squares())
        f = self.start_field(grid, start)
        res = minimize(MultiField((f,), (1.0,)), params, MinimizeOptions(max_iters=12, tol=1e-10))
        got = (
            res.iterations,
            [e.hex() for e in res.energy_trace],
            [m.hex() for m in res.multipliers],
            res.el_residual.hex(),
            self.digest(res.u_final.arrays()[0]),
        )
        assert got == self.MINIMIZE[start]
        assert len(calls) == self.REARRANGES[start]

    # c08's problem on 64^3 from the Gaussian at max_iters=6: the grid from
    # which spectral pairs independent transforms on two threads, and from
    # which minimize descends first on 32^3.  So the solve makes 6 steps on
    # 32^3 and 6 on 64^3: iterations counts both, and the trace, multipliers
    # and residual are the 64^3 stage's.
    MINIMIZE_64 = (
        12,
        ["-0x1.3ef91471a64bep-4", "-0x1.3f29a5cc9f1d2p-4", "-0x1.3f4a56312a1acp-4",
         "-0x1.3f6042c314506p-4", "-0x1.3f6eeb02a35a8p-4", "-0x1.3f78b0e0afbf0p-4",
         "-0x1.3f7f316792738p-4"],
        ["0x1.74acfdc50879dp-1"],
        "0x1.ace6fc0764489p-9",
        "f5bd2cc1a860718f365b11feefbbefeaaec04633d56cba3e810bd348899d1a74",
    )

    def test_short_minimize_64(self):
        grid = make_grid(3, 64, 20.0)
        params = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=sum_squares())
        res = minimize(MultiField((gaussian(grid, 2.0),), (1.0,)), params, MinimizeOptions(max_iters=6, tol=1e-10))
        got = (
            res.iterations,
            [e.hex() for e in res.energy_trace],
            [m.hex() for m in res.multipliers],
            res.el_residual.hex(),
            self.digest(res.u_final.arrays()[0]),
        )
        assert got == self.MINIMIZE_64

    # whole solves to the plateau: (max_iters, iterations, final energy,
    # sha256 of u_final), identical whether or not the Schwarz step is still
    # tried after its first rejection
    FULL_MINIMIZE = {
        "gaussian": (400, 60, "-0x1.73c9f205df1d4p-5",
                     "6165c71e123415b07ec16c87e17e1f9f079f69d9ff6847bd9d4c8c79500c8cef"),
        "random": (600, 243, "-0x1.73c9f205df81cp-5",
                   "e6dcd01db7dd8e2c03ded7e3fbd16c0c8997f6a6384218b5352b474aac604ea4"),
    }

    @pytest.mark.parametrize("start", ["gaussian", "random"])
    def test_full_minimize(self, start):
        max_iters, *pinned = self.FULL_MINIMIZE[start]
        grid = make_grid(3, 32, 16.0)
        params = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=sum_squares())
        u0 = MultiField((self.start_field(grid, start),), (1.0,))
        res = minimize(u0, params, MinimizeOptions(max_iters=max_iters, tol=1e-10))
        assert res.converged and res.message == "energy plateau"
        got = [res.iterations, res.energy_trace[-1].hex(), self.digest(res.u_final.arrays()[0])]
        assert got == pinned

    @pytest.mark.parametrize("n,m,box", list(KERNEL))
    def test_kernel_outputs(self, n, m, box):
        grid = make_grid(n, m, box)
        u = MultiField((positive_random_field(grid, 7), positive_random_field(grid, 8)), (1.0, 0.5))
        product = EnergyParams(s=0.75, m2=0.5, beta=0.5, G=ProductPowers((1.5, 1.5)))
        squares = EnergyParams(s=0.75, m2=0.5, beta=0.5, G=sum_squares())
        values = [energy(u, product), energy(u, squares), upsilon_beta(u, 0.5)]
        values += scaling_profile(u, squares, [0.5, 1.0, 3.0]).energies
        grads = [g.data.real.ravel() for p in (product, squares) for g in energy_gradient(u, p)]
        assert (self.digest(values), self.digest(np.concatenate(grads))) == self.KERNEL[(n, m, box)]

    # the value as float.hex and a sha256 of the argmax: the ascent of
    # test_ascent_cost and c10's bench run
    CSTAR = {
        "16^3 beta 2": ((3, 2.0, make_grid(3, 16, 12.0)), {"max_iters": 60}, "0x1.a32fc490301dbp-1",
                        "d94b6cfb5a8b37e7535cb69f3f2a5006f0eff095a31e39d599f39a500966670a"),
        "32^3 beta 1": ((3, 1.0, make_grid(3, 32, 16.0)), {"seeds": (1001, 1002)}, "0x1.e15682152116ap-1",
                        "a6c6c325110c64e1e96be1c0d9794c4747f6716fd785b7a91b9dda7c2f0031cb"),
    }

    @pytest.mark.parametrize("case", list(CSTAR))
    def test_cstar_ascent(self, case):
        args, kwargs, value, argmax = self.CSTAR[case]
        est = estimate_cstar(*args, **kwargs)
        assert (est.value.hex(), self.digest(est.argmax.data.real)) == (value, argmax)


def _child_energy(paired):
    """A forked child's 64^3 energy: its paired call runs on a thread the
    child starts."""
    before = len(paired)
    grid = make_grid(3, 64, 20.0)
    energy(MultiField((gaussian(grid, 2.0),), (1.0,)), EnergyParams(1.0, 0.0, 2.0, sum_squares()))
    assert len(paired) == before + 1


class TestPairedTransforms:
    """_evaluate and _gradient pair their independent transforms through
    spectral._both: on two threads from 64^3 (the 64^3 pins above check the
    bits), one after the other below.  These tests claim two usable CPUs,
    so they run the paired path on any host."""

    @pytest.fixture
    def paired(self, monkeypatch):
        """One entry per _both call of variational whose second job ran
        off the calling thread."""
        calls = []
        both = variational._both

        def counted(grid, first, second):
            caller = threading.get_ident()

            def tracked():
                if threading.get_ident() != caller:
                    calls.append(second)
                return second()

            return both(grid, first, tracked)

        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(variational, "_both", counted)
        return calls

    def test_gate(self, paired):
        params = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=sum_squares())
        grid = make_grid(3, 32, 16.0)
        estimate_cstar(3, 1.0, grid, max_iters=5)
        minimize(MultiField((gaussian(grid, 2.0),), (1.0,)), params, MinimizeOptions(max_iters=3))
        assert paired == []
        grid = make_grid(3, 64, 20.0)
        energy_gradient(MultiField((gaussian(grid, 2.0),), (1.0,)), params)
        assert len(paired) == 2  # one from _evaluate, one from _gradient

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
    def test_forked_child(self, paired):
        grid = make_grid(3, 64, 20.0)
        energy(MultiField((gaussian(grid, 2.0),), (1.0,)), EnergyParams(1.0, 0.0, 2.0, sum_squares()))
        assert len(paired) == 1
        child = multiprocessing.get_context("fork").Process(target=_child_energy, args=(paired,))
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0

    @pytest.mark.parametrize("m", [32, 64])
    def test_errstate_holds_on_the_worker(self, m, paired):
        grid = make_grid(3, m, 20.0)
        u = MultiField((Field(grid, Domain.PHYSICAL, np.full(grid.shape, 1e200)),), (1.0,))
        params = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=sum_squares())
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                energy(u, params)
        assert len(paired) == (m == 64)


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
            lp = [NormSpec(NormFamily.LEBESGUE, p=p)]
            assert norm_values(fr, lp)[0] == pytest.approx(norm_values(f, lp)[0], rel=1e-12)
        assert np.array_equal(
            np.sort(fr.data.real.ravel()), np.sort(np.abs(f.data.real).ravel())
        )

    def test_sobolev_norm_does_not_increase(self):
        grid = make_grid(3, 16, 12.0)
        spec = NormSpec(NormFamily.HOMOG_SOBOLEV, 0.5, 2.0)
        for seed in range(5):
            f = positive_random_field(grid, seed)
            fr = schwarz_rearrange(f)
            assert norm_values(fr, [spec])[0] <= norm_values(f, [spec])[0] * (1 + 1e-6)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_masses_must_be_positive_and_finite(self, bad):
        grid = make_grid(1, 64, 8.0)
        comp = positive_random_field(grid, 1)
        with pytest.raises(ValueError, match="positive and finite"):
            MultiField((comp, comp), (1.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_components_must_be_finite(self, bad):
        """A NaN component passed the nonnegativity check, whose comparison
        is false for NaN."""
        grid = make_grid(1, 64, 8.0)
        data = positive_random_field(grid, 1).data.real.copy()
        data[5] = bad
        with pytest.raises(ValueError, match="finite"):
            MultiField((Field(grid, Domain.PHYSICAL, data),), (1.0,))

    @pytest.mark.parametrize("kwargs,key", [
        ({"max_iters": 0}, "max_iters"), ({"max_iters": -3}, "max_iters"), ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": True}, "max_iters"), ({"tol": "x"}, "tol"), ({"tol": None}, "tol"),
        ({"tol": math.nan}, "tol"), ({"tol": math.inf}, "tol"), ({"tol": -1.0}, "tol"), ({"tol": False}, "tol"),
    ])
    def test_options_checked(self, kwargs, key):
        with pytest.raises(ValueError, match=f"options {key}"):
            MinimizeOptions(**kwargs)

    def test_options_read_exactly(self):
        opts = MinimizeOptions(max_iters=5.0, tol=0)
        assert (type(opts.max_iters), opts.max_iters, type(opts.tol), opts.tol) == (int, 5, float, 0.0)

    def test_collapse_raises(self):
        """s = 3/4 lies below (n - beta)/2 = 5/4, so the energy is unbounded
        below (MinusInfinity).  The descent follows the concentration until
        no step lowers the energy, far from a stationary point, and raises."""
        grid = make_grid(3, 32, 16.0)
        assert regime_classify(3, 0.5, 0.75, 0.5, 1.0, 1.0, sum_squares()).regime is Regime.MINUS_INFINITY
        params = EnergyParams(s=0.75, m2=0.5, beta=0.5, G=sum_squares())
        with pytest.raises(DivergenceError, match="line search failed at iteration"):
            minimize(single(grid, 2.0), params, MinimizeOptions(tol=1e-10))

    def test_exhausted_line_search_at_a_stationary_point(self, monkeypatch):
        """With an infinite Armijo constant no step is accepted.  A start
        whose tangent gradient lies below 1e-8 max(1, |E|) then stops as
        converged, and a start far from stationary raises."""
        monkeypatch.setattr(variational, "ARMIJO", math.inf)
        grid = make_grid(1, 64, 8.0)
        params = EnergyParams(s=1.0, m2=1.0, beta=0.5, G=sum_squares())
        wave = np.cos(2.0 * math.pi * grid.axis_coords() / 8.0)

        def start(eps):
            return MultiField((Field(grid, Domain.PHYSICAL, 1.0 + eps * wave),), (1.0,))

        res = minimize(start(1e-12), params, MinimizeOptions(max_iters=5))
        assert (res.converged, res.iterations) == (True, 1)
        assert res.message == "line search exhausted at a stationary point"
        with pytest.raises(DivergenceError, match="line search failed at iteration 1"):
            minimize(start(1e-3), params, MinimizeOptions(max_iters=5))

    def test_nan_detected(self):
        grid = make_grid(1, 64, 8.0)
        params = EnergyParams(s=1.0, m2=0.0, beta=0.5, G=sum_squares())
        bad = Field(grid, Domain.PHYSICAL, np.full(64, np.nan))
        with pytest.raises((DivergenceError, ValueError)):
            minimize(MultiField((bad,), (1.0,)), params)


class TestNestedMinimize:
    """minimize descends first on the m/2 grid, to the plateau at sqrt(tol),
    on grids of COARSE_POINTS points or more and when tol > 0."""

    C08 = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=sum_squares())

    @staticmethod
    def c08_start():
        return MultiField((gaussian(make_grid(3, 64, 20.0), 2.0),), (1.0,))

    @staticmethod
    def counted_grids(monkeypatch, raise_on=None):
        """The points per axis of every _descend call, which raises
        DivergenceError on a grid of raise_on points per axis."""
        grids = []
        descend = variational._descend

        def counted(grid, *args):
            grids.append(grid.points_per_dim)
            if grid.points_per_dim == raise_on:
                raise DivergenceError("injected")
            return descend(grid, *args)

        monkeypatch.setattr(variational, "_descend", counted)
        return grids

    @staticmethod
    def bits(res):
        return (res.iterations, [e.hex() for e in res.energy_trace], [m.hex() for m in res.multipliers],
                res.el_residual.hex(), res.converged, res.message, res.u_final.arrays()[0].tobytes())

    def test_c08_against_direct_descent(self):
        u0 = self.c08_start()
        options = MinimizeOptions(max_iters=800, tol=1e-10)
        res = minimize(u0, self.C08, options)
        _, (trace, _, _, converged, iterations, _) = variational._descend(
            u0.grid, u0.arrays(), u0.masses, self.C08, options)
        assert res.converged and converged and res.message == "energy plateau"
        assert res.energy_trace[-1] == pytest.approx(trace[-1], rel=1e-12, abs=0)
        assert abs(res.iterations - iterations) <= 2
        assert 0 < res.coarse_iterations < res.iterations
        assert len(res.energy_trace) == res.iterations - res.coarse_iterations + 1

    @pytest.mark.parametrize("case", ["tol 0", "coarse divergence"])
    def test_direct_bits_without_a_coarse_stage(self, case, monkeypatch):
        """With tol 0 no coarse stage runs; when it raises DivergenceError
        the caller's grid starts from u0.  Either way the result is the
        direct descent's, bit for bit."""
        u0 = self.c08_start()
        options = MinimizeOptions(max_iters=3, tol=0.0 if case == "tol 0" else 1e-10)
        arrs, stats = variational._descend(u0.grid, u0.arrays(), u0.masses, self.C08, options)
        direct = variational.MinimizeResult(MultiField((Field(u0.grid, Domain.PHYSICAL, arrs[0]),), u0.masses),
                                            *stats)
        grids = self.counted_grids(monkeypatch, raise_on=32)
        res = minimize(u0, self.C08, options)
        assert grids == ([64] if case == "tol 0" else [32, 64])
        assert res.coarse_iterations == 0
        assert self.bits(res) == self.bits(direct)

    @pytest.mark.parametrize("n,m,coarse", [(1, 2 ** 18, True), (1, 2 ** 17, False), (3, 32, False)])
    def test_gate_is_a_point_count(self, n, m, coarse, monkeypatch):
        grid = make_grid(n, m, 16.0)
        params = EnergyParams(s=1.0, m2=1.0, beta=0.5, G=sum_squares())
        grids = self.counted_grids(monkeypatch)
        res = minimize(MultiField((gaussian(grid, 2.0),), (1.0,)), params, MinimizeOptions(max_iters=2))
        assert grids == ([m // 2, m] if coarse else [m])
        assert res.coarse_iterations == (2 if coarse else 0)
        assert res.iterations == res.coarse_iterations + 2


class TestCStar:
    def test_estimate_and_probe_bound(self):
        grid = make_grid(3, 16, 12.0)
        est = estimate_cstar(3, 2.0, grid, max_iters=60)
        assert est.value > 0
        for seed in range(20):
            probe = positive_random_field(grid, seed).data.real
            assert quotient(grid, probe, 2.0) <= est.value * 1.01

    def test_ascent_cost(self, monkeypatch):
        """Each step's line search starts at twice the last accepted step
        after a first-trial accept, else at that step, not at 0.5: 674
        quotient evaluations became 373, then 300, same value."""
        import gnlab.variational as variational

        calls = []

        def counted(*args):
            calls.append(1)
            return _ascent_eval(*args)

        monkeypatch.setattr(variational, "_ascent_eval", counted)
        est = estimate_cstar(3, 2.0, make_grid(3, 16, 12.0), max_iters=60)
        assert len(calls) <= 450
        assert est.value == pytest.approx(0.8187238145837457, rel=1e-9)

    @pytest.mark.parametrize("n,beta", [(3, 1.0), (3, 2.0), (2, 0.5)])
    def test_quotient_is_the_energy_quotient(self, n, beta):
        """At the argmax (mass 1) the ascent's quotient is Upsilon / quad with
        quad = 2 (E + Upsilon), E the massless energy at s = (n - beta)/2."""
        grid = make_grid(n, 16, 12.0)
        est = estimate_cstar(n, beta, grid, max_iters=20, seeds=(1,))
        u = MultiField((est.argmax,), (1.0,))
        e = energy(u, EnergyParams((n - beta) / 2.0, 0.0, beta, sum_squares()))
        ups = upsilon_beta(u, beta)
        assert est.value == pytest.approx(ups / (2.0 * (e + ups)), rel=1e-12)

    @pytest.mark.parametrize("max_iters", [0, -3, 2.5, True, "x"])
    def test_max_iters_checked(self, max_iters, monkeypatch):
        """max_iters is read as MinimizeOptions reads it, before any climb:
        0 or -3 returned the unclimbed best start, and 2.5 raised a bare
        TypeError from range."""
        calls = []
        monkeypatch.setattr(variational, "_ascend", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="max_iters"):
            estimate_cstar(3, 1.0, make_grid(3, 16, 12.0), max_iters=max_iters)
        assert calls == []

    def test_start_count(self):
        """Three Gaussian starts, then one positive random start per seed."""
        grid = make_grid(3, 16, 12.0)
        for seeds in ((3,), ()):
            est = estimate_cstar(3, 2.0, grid, max_iters=30, seeds=seeds)
            assert est.starts == 3 + len(seeds)

    def test_repeated_width_climbs_once(self, monkeypatch):
        """On 16^3 with box 16 the widths L/8, L/12 and L/20 all floor at
        2 h = 2: the Gaussian climbs once, not three times, with the value
        and argmax of climbing all five starts, and starts still counts 5."""
        grid = make_grid(3, 16, 16.0)
        ascend = variational._ascend
        climbs = []

        def recorded(grid, params, starts, max_iters):
            climbs.append(len(starts))
            return ascend(grid, params, starts, max_iters)

        monkeypatch.setattr(variational, "_ascend", recorded)
        est = estimate_cstar(3, 1.0, grid, seeds=(1, 2))
        assert (climbs, est.starts) == ([3], 5)
        gauss = np.exp(-grid.coord_radius2() / 8.0)
        every = [gauss] * 3 + [positive_random_field(grid, seed).data.real for seed in (1, 2)]
        value, arr = ascend(grid, _critical(3, 1.0), every, 200)
        assert est.value == value
        assert np.array_equal(est.argmax.data.real, arr)

    def test_coarse_stage_from_32_points(self):
        """From 32 points per axis the starts climb on the m/2 grid and the
        best coarse argmax climbs once on the caller's grid; below that every
        start climbs on the caller's grid and there is no coarse value."""
        est = estimate_cstar(3, 2.5, make_grid(3, 32, 16.0))
        assert est.value == pytest.approx(0.7601680412048464, rel=1e-9)  # every start on 32^3
        assert 0 < est.coarse_value < est.value
        assert est.starts == 5
        assert estimate_cstar(3, 2.0, make_grid(3, 16, 12.0), max_iters=5).coarse_value is None

    def test_nested_ascent_cost(self, monkeypatch):
        """c10's bench run: climbing every start on 32^3 made 1099 quotient
        evaluations there; the nested ascent makes 109, after 533 on 16^3."""
        import gnlab.variational as variational

        calls = {}

        def counted(ws):
            calls[ws.grid.points_per_dim] = calls.get(ws.grid.points_per_dim, 0) + 1
            return _ascent_eval(ws)

        monkeypatch.setattr(variational, "_ascent_eval", counted)
        est = estimate_cstar(3, 1.0, make_grid(3, 32, 16.0), seeds=(1001, 1002))
        assert calls[32] <= 150 and calls[16] > 0
        assert est.value == pytest.approx(0.9401131296915449, rel=1e-9)  # the bench reference

    def test_quotient_scale_invariance(self):
        """The quotient's free part is dilation invariant.  On the torus the
        dropped zero mode adds a mean-field term scaling like 1/lambda, so
        invariance is read from the extrapolation 2 q(2 lambda) - q(lambda),
        which must be lambda-independent."""
        grid = make_grid(3, 64, 24.0)
        g = gaussian(grid, 2.4)
        qs = []
        for m in (0, 1, 2):
            gd = dilate(g, m, l2_normalized=True)
            qs.append(quotient(grid, gd.data.real, 2.0))
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

    @pytest.mark.parametrize("n,beta,s,alphas,regime,case", [
        (3, 1.0, 1.5, (1.0, 1.0), Regime.MINIMIZER_EXISTS, "supercritical-smoothness"),
        (3, 1.0, 1.0, (1.0, 0.5), Regime.OUT_OF_SCOPE, "borderline-growth"),  # s = (n - beta)/2
        (1, 0.5, 1.0, (2.0, 1.5), Regime.OUT_OF_SCOPE, "borderline-growth"),  # zero growth margin
        (3, 1.0, 0.5, (0.5, 0.5), Regime.MINUS_INFINITY, "subcritical-smoothness"),
    ])
    def test_product_cases(self, n, beta, s, alphas, regime, case):
        rep = regime_classify(n, beta, s, 0.0, 1.0, 1.0, ProductPowers(alphas))
        assert (rep.regime, rep.case) == (regime, case)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_mass_or_cstar_out_of_scope(self, bad):
        """Without the check, c = nan read as NoMinimizer with a NaN critical
        mass and cstar = inf as MinusInfinity with critical mass 0."""
        for c, cstar in ((bad, 1.0), (1.0, bad)):
            rep = regime_classify(3, 1.0, 1.0, 0.0, c, cstar, sum_squares())
            assert rep.regime is Regime.OUT_OF_SCOPE
            assert rep.note == "parameters out of range"
            assert rep.critical_mass is None


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

    @pytest.mark.parametrize("mu", [math.nan, math.inf, 1.5])
    def test_sum_powers_rejects_nonfinite_or_small(self, mu):
        with pytest.raises(ValueError, match="finite mu >= 2"):
            SumPowers(mu)

    @pytest.mark.parametrize("alphas", [(math.nan,), (math.inf, 1.0), (1.0, 0.0), ()])
    def test_product_powers_rejects_nonfinite_or_nonpositive(self, alphas):
        with pytest.raises(ValueError, match="positive finite exponents"):
            ProductPowers(alphas)
