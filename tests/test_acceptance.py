"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured quantity next to its pinned tolerance.  Run with `pytest -s
tests/test_acceptance.py` to see the table.
"""
import math
import pathlib
import sys
import time

import numpy as np
from scipy.integrate import quad

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from instruments import convexity_check, dilate, partition_check, random_ratio_sweep
from oracles import lattice_riesz_kernel, pair_interaction_product_density

from gnlab.checker import Status
from gnlab.harness import fit_slope, growth_experiment
from gnlab.norms import NormFamily, NormSpec, norm_values
from gnlab.regression import (
    eps_blowup_case,
    regression_table,
    run_regression,
    scaled_blowup_case,
    section_slope,
    triebel_blowup_case,
)
from gnlab.spectral import (
    Domain,
    Field,
    make_grid,
    riesz_constant,
    to_physical,
)
from gnlab.testfuncs import gaussian, positive_random_field, random_band_limited
from gnlab.variational import (
    EnergyParams,
    MinimizeOptions,
    MultiField,
    ProductPowers,
    SumPowers,
    energy,
    energy_gradient,
    estimate_cstar,
    mass,
    minimize,
    monotone_along_rays,
    project_spheres,
    scaling_profile,
    sum_squares,
    upsilon_beta,
)


def line(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def test_c01_checker_regression_table():
    t0 = time.time()
    rows = run_regression()
    elapsed = time.time() - t0
    all_ok = all(r.ok for r in rows)
    holds = all(r.verdict.status is Status.HOLDS for r in rows)
    named = all(
        tuple(r.mutant_verdict.violated) == r.instance.mutant.expected_codes for r in rows
    )
    ok = all_ok and holds and named and len(rows) >= 12 and elapsed < 1.0
    line(1, ok, f"{len(rows)} instances Holds, mutants name their condition, {elapsed:.3f}s < 1s")


def test_c02_partition_of_unity():
    t0 = time.time()
    worst = 0.0
    for n, m in ((1, 2 ** 14), (2, 1024), (3, 64)):
        rep = partition_check(make_grid(n, m, 2 * math.pi))
        worst = max(worst, rep.max_deviation, rep.max_deviation_inhomog)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    line(2, ok, f"max deviation {worst:.2e} <= 1e-12 on 2^14 / 1024^2 / 64^3, {elapsed:.1f}s < 10s")


def test_c03_norm_oracles():
    # single-shell Besov identity
    g = make_grid(1, 4096, 4 * math.pi)
    k0 = 5
    r = g.freq_radius()
    mask = (r >= 0.75 * 2 ** k0) & (r <= 2 ** k0)
    rng = np.random.default_rng(0)
    f = Field(g, Domain.FOURIER, np.where(mask, rng.standard_normal(g.shape), 0.0))
    worst_shell = 0.0
    for s, p, q in [(0.5, 2.0, 2.0), (-1.0, 4.0, 1.0), (1.5, 3.0, math.inf)]:
        got = norm_values(f, [NormSpec(NormFamily.HOMOG_BESOV, s, p, q)])[0]
        lebesgue = NormSpec(NormFamily.LEBESGUE, p=p)
        want = 2.0 ** (k0 * s) * norm_values(to_physical(f), [lebesgue])[0]
        worst_shell = max(worst_shell, abs(got - want) / want)

    # Gaussian L2 / H1 against quadrature oracles, n = 1 and n = 3
    l2_1d = math.sqrt(quad(lambda x: math.exp(-(x ** 2)), -40, 40)[0])
    h1_1d = math.sqrt(quad(lambda x: x * x * math.exp(-(x ** 2)), -40, 40)[0])
    g1 = make_grid(1, 2048, 48.0)
    f1 = gaussian(g1, 1.0)
    err1 = max(
        abs(norm_values(f1, [NormSpec(NormFamily.LEBESGUE, p=2.0)])[0] - l2_1d) / l2_1d,
        abs(norm_values(f1, [NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0)])[0] - h1_1d) / h1_1d,
    )
    # radial reductions of the 3d integrals
    w = 1.5
    l2_3d = math.sqrt(quad(lambda t: 4 * math.pi * t * t * math.exp(-(t / w) ** 2), 0, 60)[0])
    h1_3d = math.sqrt(quad(lambda t: 4 * math.pi * t * t * (t / w ** 2) ** 2 * math.exp(-(t / w) ** 2), 0, 60)[0])
    g3 = make_grid(3, 64, 24.0)
    f3 = gaussian(g3, w)
    err3 = max(
        abs(norm_values(f3, [NormSpec(NormFamily.LEBESGUE, p=2.0)])[0] - l2_3d) / l2_3d,
        abs(norm_values(f3, [NormSpec(NormFamily.HOMOG_SOBOLEV, 1.0, 2.0)])[0] - h1_3d) / h1_3d,
    )

    # dilation scaling exponent within 2%
    gd = make_grid(1, 4096, 40.0)
    fd = random_band_limited(gd, 2, 3, seed=5)
    worst_scale = 0.0
    for s, p in [(0.5, 2.0), (1.0, 4.0)]:
        spec = NormSpec(NormFamily.HOMOG_BESOV, s, p, 2.0)
        base = norm_values(fd, [spec])[0]
        measured = math.log2(norm_values(dilate(fd, 2), [spec])[0] / base) / 2.0
        worst_scale = max(worst_scale, abs(measured - (s - 1.0 / p)))
    ok = worst_shell <= 1e-10 and err1 <= 1e-8 and err3 <= 1e-6 and worst_scale <= 0.02
    line(3, ok, f"single-shell {worst_shell:.1e} <= 1e-10, gauss n=1 {err1:.1e} <= 1e-8, "
                f"n=3 {err3:.1e} <= 1e-6, scaling-exponent dev {worst_scale:.3f} <= 0.02")


def test_c04_necessity_blowups():
    t0 = time.time()
    details = []
    ok = True

    case = eps_blowup_case()  # 2^14 grid, n = 1, counts 4..11
    exp = growth_experiment(case.problem, case.family, case.indices, case.grid())
    rel = abs(exp.fitted_slope - case.predicted_slope) / case.predicted_slope
    ok &= rel <= 0.10 and exp.verdict.violated == case.expected_codes
    details.append(f"amplitude-train slope {exp.fitted_slope:.4f} vs margin {case.predicted_slope} ({rel:.1%})")

    for q in (1, 2, 4):
        case = scaled_blowup_case(q)
        exp = growth_experiment(case.problem, case.family, case.indices, case.grid())
        rel = abs(exp.fitted_slope - 1.0 / q) * q
        ok &= rel <= 0.10 and exp.verdict.violated == case.expected_codes
        details.append(f"cardinality q={q} slope {exp.fitted_slope:.4f} ({rel:.1%})")

    for q in (1, 2, 4):
        case = triebel_blowup_case(q)
        exp = growth_experiment(case.problem, case.family, case.indices, case.grid())
        rel = abs(exp.fitted_slope - 1.0 / q) * q
        ok &= rel <= 0.10
        details.append(f"pointwise-aggregate q={q} slope {exp.fitted_slope:.4f} ({rel:.1%})")
    case = triebel_blowup_case("inf")
    exp = growth_experiment(case.problem, case.family, case.indices, case.grid())
    ok &= abs(exp.fitted_slope) <= 0.05
    details.append(f"q=inf slope {exp.fitted_slope:.4f} <= 0.05")

    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    line(4, ok, "; ".join(details) + f"; {elapsed:.0f}s < 120s")


def test_c05_sufficiency_boundedness():
    worst_family = -math.inf
    worst_random = -math.inf
    grid_1d = make_grid(1, 4096, 4 * math.pi)
    grids_nd = {1: grid_1d, 2: make_grid(2, 256, 4 * math.pi), 3: make_grid(3, 64, 4 * math.pi)}
    for inst in regression_table():
        worst_family = max(worst_family, section_slope(inst.problem))

        g = grids_nd[inst.problem.n]
        bands = list(range(g.k_min, min(g.k_min + 4, g.k_max)))
        seeds = max(1, math.ceil(50 / len(bands)))
        xs, ys = random_ratio_sweep(inst.problem, g, bands, seeds_per_band=seeds)
        assert len(xs) >= 50
        worst_random = max(worst_random, fit_slope(xs, [math.log2(y) for y in ys]))
    ok = worst_family <= 0.05 and worst_random <= 0.05
    line(5, ok, f"worst family slope {worst_family:.4f} <= 0.05, "
                f"worst random-sweep slope {worst_random:.4f} <= 0.05 (50 fields/instance)")


def test_c06_convexity_hoelder():
    from fractions import Fraction as F

    from gnlab.checker import SpaceTriple

    t0 = time.time()
    g = make_grid(1, 512, 4 * math.pi)
    rng = np.random.default_rng(1)
    sig = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
    invs = [F(0), F(1, 4), F(1, 2), F(1), F(2)]
    passed = 0
    total = 500
    for trial in range(total):
        f = random_band_limited(g, 2, 6, seed=trial)
        k = int(rng.integers(2, 4))
        weights = [F(1, k)] * k
        comps = [
            (
                SpaceTriple(
                    sig[rng.integers(len(sig))],
                    invs[rng.integers(len(invs))],
                    invs[rng.integers(len(invs))],
                ),
                weights[i],
            )
            for i in range(k)
        ]
        if convexity_check(f, comps).passed:
            passed += 1
    elapsed = time.time() - t0
    ok = passed == total and elapsed < 60.0
    line(6, ok, f"{passed}/{total} randomized admissible pairs satisfy the bound, {elapsed:.0f}s < 60s")


def test_c07_gradient_check():
    t0 = time.time()
    grid = make_grid(3, 32, 16.0)
    rng = np.random.default_rng(3)
    worst = 0.0
    for G in (sum_squares(), SumPowers(2.5), ProductPowers((1.5, 1.5))):
        L = len(G.alphas) if isinstance(G, ProductPowers) else 1
        params = EnergyParams(s=1.0, m2=0.5, beta=2.0, G=G)
        for _ in range(20):
            arrs = [
                np.maximum(
                    np.exp(-grid.coord_radius2() / 8.0) * (1 + 0.1 * rng.standard_normal(grid.shape)),
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
            ip = sum(
                float(np.sum(gr.data.real * v)) * grid.quadrature_weight
                for gr, v in zip(energy_gradient(u, params), vs)
            )
            worst = max(worst, abs(fd - ip) / abs(ip))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    line(7, ok, f"worst directional-derivative deviation {worst:.2e} <= 1e-5 "
                f"(20 pairs x 3 kinds, 32^3), {elapsed:.0f}s < 30s")


def test_c08_choquard_ground_state():
    """Nominal grid 48^3; grids are power-of-two, so the nearest admissible
    size above (64^3) is used."""
    t0 = time.time()
    grid = make_grid(3, 64, 20.0)
    params = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=sum_squares())
    u0 = MultiField((gaussian(grid, 2.0),), (1.0,))
    res = minimize(u0, params, MinimizeOptions(max_iters=800, tol=1e-10))
    mass_err = abs(mass(grid, res.u_final.arrays()[0]) - 1.0)
    radial = monotone_along_rays(res.u_final.components[0], tol=1e-8)
    finals = [res.energy_trace[-1]]
    for seed in (101, 202, 303):
        start = MultiField((positive_random_field(grid, seed),), (1.0,))
        r2 = minimize(start, params, MinimizeOptions(max_iters=800, tol=1e-10))
        finals.append(r2.energy_trace[-1])
    spread = max(abs(v - finals[0]) / abs(finals[0]) for v in finals[1:])
    elapsed = time.time() - t0
    ok = (
        res.converged
        and finals[0] < 0
        and mass_err < 1e-10
        and res.el_residual < 1e-3
        and radial
        and spread < 1e-4
        and elapsed < 300.0
    )
    line(8, ok, f"E={finals[0]:.6f} < 0, mass err {mass_err:.1e} < 1e-10, "
                f"EL residual {res.el_residual:.1e} < 1e-3, radial={radial}, "
                f"restart spread {spread:.1e} < 1e-4, {elapsed:.0f}s < 300s")


def test_c09_upsilon_oracle():
    """Fourier-path interaction vs a direct double sum against the
    independently constructed lattice kernel.  The nearest power-of-two grid
    to the nominal 24^3 is used; grids must be powers of two."""
    t0 = time.time()
    grid = make_grid(3, 32, 14.0)
    kernel = lattice_riesz_kernel(32, 14.0, 3, 2.0) * riesz_constant(3, 2.0)
    ax = grid.axis_coords()
    worst = 0.0
    for w in (1.4, 1.75, 2.1):
        f1d = np.exp(-(ax ** 2) / (4.0 * w * w))
        u = MultiField(
            (Field(grid, Domain.PHYSICAL,
                   f1d[:, None, None] * f1d[None, :, None] * f1d[None, None, :]),),
            (1.0,),
        )
        got = upsilon_beta(u, 2.0)
        oracle = pair_interaction_product_density([f1d ** 2] * 3, kernel, grid.quadrature_weight)
        worst = max(worst, abs(got - oracle) / abs(oracle))
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 120.0
    line(9, ok, f"worst relative gap {worst:.1e} <= 1e-3 over 3 Gaussian densities, {elapsed:.0f}s < 120s")


def test_c10_critical_regime_scaling():
    t0 = time.time()
    grid = make_grid(3, 32, 16.0)
    n, beta = 3, 1.0
    s = (n - beta) / 2.0
    est = estimate_cstar(n, beta, grid)
    lams = [2.0 ** k for k in range(0, 5)]  # up to lambda = 2^4

    def profile_min(c, field_arr):
        arr = field_arr * math.sqrt(c / mass(grid, field_arr))
        u = MultiField((Field(grid, Domain.PHYSICAL, arr),), (c,))
        params = EnergyParams(s=s, m2=0.0, beta=beta, G=sum_squares())
        return min(scaling_profile(u, params, lams).energies)

    c_low = 0.5 / (2.0 * est.value)
    lows = [profile_min(c_low, positive_random_field(grid, seed).data.real) for seed in range(9)]
    lows.append(profile_min(c_low, est.argmax.data.real))
    bounded = min(lows) >= -1e-6

    c_high = 2.0 / (2.0 * est.value)
    highs = [profile_min(c_high, positive_random_field(grid, seed).data.real) for seed in range(9)]
    highs.append(profile_min(c_high, est.argmax.data.real))
    collapses = min(highs) < -10.0
    elapsed = time.time() - t0
    ok = bounded and collapses and elapsed < 600.0
    line(10, ok, f"cstar={est.value:.4f}: sub-critical profile floor {min(lows):.2e} >= -1e-6 "
                 f"(10 probes), super-critical floor {min(highs):.1f} < -10, {elapsed:.0f}s < 600s")


def test_c11_massive_regimes():
    t0 = time.time()
    # borderline dimension (n = 2 + beta): small-dilation limit of the energy
    grid = make_grid(3, 32, 16.0)
    c = 1.3
    params = EnergyParams(s=1.0, m2=1.0, beta=1.0, G=sum_squares())
    u = project_spheres(MultiField((gaussian(grid, 2.0),), (c,)))
    prof = scaling_profile(u, params, [2.0 ** (-k) for k in (3, 4, 5)])
    target = c * params.m2 / 2.0
    dev = abs(prof.energies[-1] - target) / target
    small_lambda_ok = dev <= 0.01

    # n < 2 + beta: minimum lands strictly inside (0, c m^(2s)/2)
    n, beta = 3, 2.5
    s2 = (n - beta) / 2.0
    est = estimate_cstar(n, beta, grid)
    c2 = 0.5 / (2.0 * est.value)
    params2 = EnergyParams(s=s2, m2=1.0, beta=beta, G=sum_squares())
    arr = est.argmax.data.real
    arr = arr * math.sqrt(c2 / mass(grid, arr))
    shrunk = to_physical(dilate(Field(grid, Domain.PHYSICAL, arr), -3, l2_normalized=True)).data.real
    u0 = project_spheres(
        MultiField((Field(grid, Domain.PHYSICAL, np.maximum(shrunk, 0.0)),), (c2,))
    )
    res = minimize(u0, params2, MinimizeOptions(max_iters=800, tol=1e-11))
    cap = c2 * params2.m2 ** s2 / 2.0
    window_ok = res.converged and 0.0 < res.energy_trace[-1] < cap
    elapsed = time.time() - t0
    ok = small_lambda_ok and window_ok and elapsed < 600.0
    line(11, ok, f"E(u_lambda) -> c m^2/2 within {dev:.2%} (<= 1%); "
                 f"low-dim massive minimum {res.energy_trace[-1]:.5f} in (0, {cap:.5f}), {elapsed:.0f}s < 600s")


def test_c12_out_of_scope_documented():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    text = readme.lower()
    documented = "out of scope" in text and "navier-stokes" in text and "sharp constant" in text
    # the space-time interpolation endpoint is covered by the checker table
    names = [inst.name for inst in regression_table()]
    covered = "space_time_l10_3_3d" in names
    line(12, documented and covered,
         "README documents the non-reproducible items; the space-time endpoint "
         "instance sits in the checker regression table")
