"""Ratio experiments, slope fits, convexity bound, regression table."""
import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from gnlab.checker import GNProblem, Scale, SpaceTriple, Status
from gnlab.harness import (
    eps_bump_family_for,
    gn_norms,
    gn_ratio,
    growth_experiment,
    fit_slope,
    space_norm_spec,
    transpose_to_1d,
)
from gnlab.norms import NormFamily, NormSpec
from gnlab.regression import (
    BlowupCase,
    eps_blowup_case,
    regression_table,
    run_regression,
    scaled_blowup_case,
    triebel_blowup_case,
)
from gnlab.spectral import make_grid
from gnlab.testfuncs import build_family, random_band_limited
from instruments import convexity_check, dilate, random_ratio_sweep


def t(s, p, q="inf"):
    return SpaceTriple.from_exponents(s, p, q)


class TestGnRatio:
    def test_theta_zero_identity(self):
        tr = t(0, 4, 2)
        p = GNProblem(1, F(0), tr, tr, t(1, 2, 2), Scale.HOMOG_BESOV)
        g = make_grid(1, 1024, 4 * math.pi)
        f = random_band_limited(g, 2, 5, seed=0)
        assert gn_ratio(f, p) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_field_raises(self):
        p = GNProblem(1, F(1, 2), t(0, 2, 2), t(0, 2, 2), t(1, 2, 2), Scale.HOMOG_BESOV)
        g = make_grid(1, 256, 4 * math.pi)
        from gnlab.spectral import Domain, Field

        z = Field(g, Domain.FOURIER, np.zeros(256))
        with pytest.raises(ZeroDivisionError):
            gn_ratio(z, p)

    def test_bounded_over_seeds_for_holds_instance(self):
        # target B^0_{4,inf} <= sqrt(grad, B^-1) type instance: Holds
        p = GNProblem(3, F(1, 2), t(0, 4), t(-1, "inf"), t(1, 2), Scale.HOMOG_BESOV)
        g = make_grid(3, 32, 4 * math.pi)
        ratios = [gn_ratio(random_band_limited(g, 2, 3, seed=s), p) for s in range(10)]
        assert max(ratios) < 10 * min(ratios)

    def test_residual_drift_under_dilation(self):
        """With a nonzero balance defect the ratio of dyadic dilates drifts
        by lambda^residual."""
        p = GNProblem(1, F(1, 2), t(0, 2, 2), t(0, 2, 2), t(1, 2, 2), Scale.HOMOG_BESOV)
        from gnlab.checker import scaling_balance

        residual = float(scaling_balance(p))  # = -1/2 for this instance
        g = make_grid(1, 4096, 40.0)
        f = random_band_limited(g, 2, 3, seed=4)
        r0 = gn_ratio(f, p)
        for m in (1, 2):
            r = gn_ratio(dilate(f, m), p)
            assert r / r0 == pytest.approx(2.0 ** (-m * residual), rel=5e-2)


@pytest.mark.parametrize("scale,triple,spec", [
    (Scale.INHOMOG_BESOV, t("1/2", 4, 2), NormSpec(NormFamily.INHOMOG_BESOV, 0.5, 4.0, 2.0, shell_range=(1, 5))),
    (Scale.INHOMOG_RIESZ, t(0, 4), NormSpec(NormFamily.LEBESGUE, 0.0, 4.0)),
    (Scale.INHOMOG_RIESZ, t("1/2", 4), NormSpec(NormFamily.BESSEL_SOBOLEV, 0.5, 4.0, m2=1.0)),
], ids=["inhomog-besov", "inhomog-riesz-lebesgue", "inhomog-riesz-bessel"])
def test_space_norm_spec_inhomogeneous(scale, triple, spec):
    """InhomogBesov keeps the shell range; InhomogRiesz reads Lebesgue at
    s = 0 and the Bessel potential with m^2 = 1 otherwise."""
    assert space_norm_spec(scale, triple, (1, 5)) == spec


class TestGrowthExperiments:
    def test_eps_blowup_slope_matches_margin(self):
        case = eps_blowup_case(points=2 ** 13)
        exp = growth_experiment(case.problem, case.family, (4, 5, 6, 7, 8), case_grid(case, 2 ** 13))
        assert exp.verdict.status is Status.FAILS
        assert exp.verdict.violated == case.expected_codes
        assert exp.fitted_slope == pytest.approx(case.predicted_slope, rel=0.10)

    def test_triebel_blowup_slopes(self):
        for q in (2, "inf"):
            case = triebel_blowup_case(q)
            exp = growth_experiment(case.problem, case.family, case.indices, case.grid())
            if q == "inf":
                assert abs(exp.fitted_slope) <= 0.05
            else:
                assert exp.fitted_slope == pytest.approx(1.0 / q, rel=1e-9)

    def test_holds_instance_has_flat_slope(self):
        p = GNProblem(3, F(1, 2), t(0, 4), t(-1, "inf"), t(1, 2), Scale.HOMOG_BESOV)
        section = transpose_to_1d(p)
        g = make_grid(1, 4096, 4 * math.pi)
        exp = growth_experiment(section, eps_bump_family_for(section), (3, 4, 5, 6), g)
        assert exp.fitted_slope <= 0.05

    def test_fit_stability_under_doubled_index_list(self):
        case = eps_blowup_case()
        g = case.grid()
        short = growth_experiment(case.problem, case.family, (4, 5, 6, 7), g)
        full = growth_experiment(case.problem, case.family, tuple(range(4, 12)), g)
        assert abs(full.fitted_slope - short.fitted_slope) < 0.2 * abs(full.fitted_slope)

    @pytest.mark.parametrize("make", [
        lambda: (eps_blowup_case(points=2 ** 12), (4, 5, 6, 7), 2 ** 12),
        lambda: (scaled_blowup_case(1), (1, 2, 3, 4), 2 ** 13),
        lambda: (triebel_blowup_case(2), (4, 5, 6, 7, 8), 2 ** 12),
        lambda: (triebel_blowup_case("inf"), (4, 5, 6, 7, 8), 2 ** 12),
        lambda: (_riesz_section_case(), (3, 4, 5, 6), 2 ** 12),
    ], ids=["eps", "scaled-q1", "triebel-q2", "triebel-qinf", "riesz-section"])
    def test_norms_carried_per_index(self, make):
        """The streamed members' norms equal gn_norms/gn_ratio of each member
        built alone, on every family kind and norm scale."""
        case, indices, points = make()
        g = case_grid(case, points)
        exp = growth_experiment(case.problem, case.family, indices, g)
        lo, hi = g.shell_bounds
        rng = (max(case.family.j0 - 1, lo), min(case.family.j0 + max(indices), hi))
        for count, norms, ratio in zip(exp.indices, exp.norms, exp.ratios):
            field = build_family(replace(case.family, index=count), g)
            assert norms == gn_norms(field, case.problem, rng)
            assert ratio == gn_ratio(field, case.problem, rng)

    def test_requires_four_indices(self):
        case = eps_blowup_case(points=2 ** 12)
        with pytest.raises(ValueError):
            growth_experiment(case.problem, case.family, (4, 5, 6), case_grid(case, 2 ** 12))


def case_grid(case, points):
    n, _, L = case.grid_spec
    return make_grid(n, points, L)


def _riesz_section_case():
    """The 1D section of the Ladyzhenskaya instance with its eps train:
    Lebesgue (s = 0) and Sobolev (s = 1) norms."""
    inst = next(i for i in regression_table() if i.name == "ladyzhenskaya_2d")
    section = transpose_to_1d(inst.problem)
    return BlowupCase("riesz-section", section, eps_bump_family_for(section), (3, 4, 5, 6),
                      (1, 2 ** 12, 4 * math.pi), 0.0, (), "riesz")


class TestTranspose:
    def test_preserves_verdicts(self):
        from gnlab.checker import auto_check

        for inst in regression_table():
            if inst.problem.scale is not Scale.HOMOG_BESOV:
                continue
            v0 = auto_check(inst.problem)
            v1 = auto_check(transpose_to_1d(inst.problem))
            assert v0.status == v1.status
            assert v0.violated == v1.violated


class TestRandomSweep:
    def test_flat_for_balanced_instance(self):
        p = GNProblem(1, F(1, 2), t(0, 2, 2), t(-1, 2), t(1, 2), Scale.HOMOG_BESOV)
        g = make_grid(1, 4096, 4 * math.pi)
        xs, ys = random_ratio_sweep(p, g, bands=range(2, 7), seeds_per_band=3)
        slope = fit_slope(xs, [math.log2(y) for y in ys])
        assert abs(slope) <= 0.05


class TestConvexity:
    def test_single_component_equality(self):
        g = make_grid(1, 1024, 4 * math.pi)
        f = random_band_limited(g, 2, 6, seed=1)
        rep = convexity_check(f, [(t("1/2", 2, 2), F(1))])
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
        assert rep.passed

    def test_two_component_bound(self):
        g = make_grid(1, 1024, 4 * math.pi)
        f = random_band_limited(g, 2, 6, seed=2)
        rep = convexity_check(f, [(t(-1, 2, 2), F(1, 2)), (t(1, 2, 2), F(1, 2))])
        assert rep.passed
        assert rep.target == t(0, 2, 2)

    def test_weights_validated(self):
        g = make_grid(1, 256, 4 * math.pi)
        f = random_band_limited(g, 2, 4, seed=3)
        with pytest.raises(ValueError):
            convexity_check(f, [(t(0, 2, 2), F(1, 3)), (t(1, 2, 2), F(1, 3))])

    def test_randomized_admissible_pairs(self):
        g = make_grid(1, 512, 4 * math.pi)
        rng = np.random.default_rng(0)
        sig = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
        invs = [F(0), F(1, 4), F(1, 2), F(1), F(2)]
        for trial in range(60):
            f = random_band_limited(g, 2, 5, seed=100 + trial)
            k = int(rng.integers(2, 4))
            comps = []
            weights = [F(1, k)] * k
            for i in range(k):
                tr = SpaceTriple(
                    sig[rng.integers(len(sig))],
                    invs[rng.integers(len(invs))],
                    invs[rng.integers(len(invs))],
                )
                comps.append((tr, weights[i]))
            rep = convexity_check(f, comps)
            assert rep.passed, f"trial {trial}: {rep.lhs} > {rep.rhs}"


class TestRegressionTable:
    def test_all_instances_hold_and_mutants_fail(self):
        rows = run_regression()
        assert len(rows) >= 12
        for row in rows:
            assert row.ok, f"{row.instance.name}: {row.verdict} / {row.mutant_verdict}"

    def test_instances_have_zero_residual(self):
        for inst in regression_table():
            from gnlab.checker import scaling_balance

            assert scaling_balance(inst.problem) == 0


class TestPinnedNorms:
    """The gn_norms triples of one c05 field per grid, pinned as float.hex.

    Performance changes to the norm layer or the generator must keep every
    value bit for bit; a drift shows here first.  The field is the band
    [k_min + 1, k_min + 2] of a fixed seed, in Fourier form (F) and after one
    inverse transform (P).  The values are those of numpy's pocketfft on
    x86-64; another FFT backend may round differently.
    """

    PINNED = {
        (1, "triebel_interp_1d", "F"): ("0x1.3b00450a07ad3p-1", "0x1.2ee1f9ad4c53ap+1", "0x1.3d427348e7762p-3"),
        (1, "triebel_interp_1d", "P"): ("0x1.3b00450a07ad4p-1", "0x1.2ee1f9ad4c53bp+1", "0x1.3d427348e7764p-3"),
        (1, "besov_equality_q_1d", "F"): ("0x1.80c2ace1f1995p-2", "0x1.5cb03ff55b7d9p-4", "0x1.31d5591d6ff7bp+1"),
        (1, "besov_equality_q_1d", "P"): ("0x1.80c2ace1f1997p-2", "0x1.5cb03ff55b7dcp-4", "0x1.31d5591d6ff7dp+1"),
        (2, "sup_source_strict_2d", "F"): ("0x1.d0add324b6f00p-2", "0x1.c468d1b9b685fp-1", "0x1.4b1a0888fd8e1p+0"),
        (2, "sup_source_strict_2d", "P"): ("0x1.d0add324b6f02p-2", "0x1.c468d1b9b685fp-1", "0x1.4b1a0888fd8e1p+0"),
        (2, "ladyzhenskaya_2d", "F"): ("0x1.6a77c2ff8d91fp-2", "0x1.f6a8538b4be0ep-1", "0x1.8afbe33cdad6dp+1"),
        (2, "ladyzhenskaya_2d", "P"): ("0x1.6a77c2ff8d91fp-2", "0x1.f6a8538b4be0ep-1", "0x1.8afbe33cdad6dp+1"),
        (3, "quartic_gradient_3d", "F"): ("0x1.66c9797235e55p-3", "0x1.8d174f41abf76p-6", "0x1.c500c0eec81f6p+1"),
        (3, "quartic_gradient_3d", "P"): ("0x1.66c9797235e56p-3", "0x1.8d174f41abf76p-6", "0x1.c500c0eec81f8p+1"),
        (3, "hls_step_mu_3d", "F"): ("0x1.7f4e344c95e58p-2", "0x1.f2740a41dc0bdp-1", "0x1.91a840b98bd3cp+1"),
        (3, "hls_step_mu_3d", "P"): ("0x1.7f4e344c95e59p-2", "0x1.f2740a41dc0bdp-1", "0x1.91a840b98bd3dp+1"),
    }
    GRIDS = {1: (4096, 11), 2: (256, 12), 3: (64, 13)}  # points per axis, seed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_c05_triples_bit_identical(self, n):
        from gnlab.spectral import to_physical

        points, seed = self.GRIDS[n]
        g = make_grid(n, points, 4 * math.pi)
        f = random_band_limited(g, g.k_min + 1, g.k_min + 2, seed)
        forms = {"F": f, "P": to_physical(f)}
        insts = {inst.name: inst for inst in regression_table()}
        for (dim, name, form), want in self.PINNED.items():
            if dim == n:
                got = tuple(v.hex() for v in gn_norms(forms[form], insts[name].problem))
                assert got == want, (name, form)
