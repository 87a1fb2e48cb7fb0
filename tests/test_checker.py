"""Exact decision-procedure tests: worked instances plus rational invariants."""
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from gnlab.checker import (
    GNProblem,
    Scale,
    SpaceTriple,
    Status,
    Verdict,
    auto_check,
    check_besov,
    check_besov_sup,
    check_by_rule,
    check_inhomogeneous,
    check_riesz,
    check_triebel,
    scaling_balance,
)


def t(s, p, q="inf"):
    return SpaceTriple.from_exponents(s, p, q)


def besov(n, theta, target, s0, s1, scale=Scale.HOMOG_BESOV):
    return GNProblem(n, F(theta), target, s0, s1, scale)


class TestScalingBalance:
    def test_l10_instance_balances(self):
        p = besov(3, "1/3", t(0, 10), t("-1/2", "inf"), t(1, "10/3", "10/3"))
        assert scaling_balance(p) == 0

    def test_identity_case(self):
        tr = t("3/4", 2, 2)
        p = besov(2, 0, tr, tr, t(5, 7, 9))
        assert scaling_balance(p) == 0

    def test_classical_second_order(self):
        p = besov(2, "1/2", t(0, 4), t(0, 2), t(1, 2))
        assert scaling_balance(p) == 0

    def test_defect_is_exact(self):
        p = besov(3, "1/2", t(0, 4), t(0, 2), t(1, 2))
        assert scaling_balance(p) == F(3, 4) - F(3, 4) - F(1, 4) + F(0)  # = -1/4
        assert scaling_balance(p) == F(-1, 4)


class TestBesovChecker:
    def test_gradient_l4_holds(self):
        p = besov(3, "1/2", t(0, 4), t(-1, "inf"), t(1, 2))
        v = check_besov(p)
        assert v.status is Status.HOLDS and v.residual == 0

    def test_finite_q_fails_1_10(self):
        p = besov(3, "1/2", t(0, 4, 2), t(-1, "inf"), t(1, 2))
        v = check_besov(p)
        assert v.status is Status.FAILS
        assert v.violated == ("1.10",)

    def test_q_convexity_weighs_both_sources(self):
        # 1/q = 1/2 equals (1 - theta)/q0 + theta/q1 = 0 + 1/2 exactly
        p = besov(3, "1/2", t(0, 4, 2), t(-1, "inf"), t(1, 2, 1))
        assert check_besov(p).status is Status.HOLDS
        p = besov(3, "1/2", t(0, 4, "3/2"), t(-1, "inf"), t(1, 2, 1))
        assert check_besov(p).violated == ("1.10",)

    def test_equal_p_distinct_s_holds_via_1_11(self):
        p = besov(1, "1/2", t(0, 2, 2), t(-1, 2), t(1, 2))
        v = check_besov(p)
        assert v.status is Status.HOLDS

    def test_equal_p_equal_s_needs_q_convexity(self):
        p = besov(1, "1/2", t(0, 2, 2), t(0, 2, 4), t(0, 2, 4))
        assert check_besov(p).violated == ("1.11",)

    def test_order_violation_fails_1_9(self):
        p = besov(1, "1/2", t("1/2", "4/3", 2), t(0, 2, 2), t("1/2", 2, 2))
        assert check_besov(p).violated == ("1.9",)

    def test_strict_case_same_line_needs_q(self):
        # s < weighted mean, source0 on the target's embedding line
        p = besov(1, "1/2", t(0, 2, 2), t("1/2", 1), t(1, "2/3"))
        v = check_besov(p)
        assert v.violated == ("1.12",)
        ok = besov(1, "1/2", t(0, 2, 2), t("1/2", 1, 1), t(1, "2/3"))
        assert check_besov(ok).status is Status.HOLDS

    def test_theta_one_reads_source1_line(self):
        """B^0_{2,1} <= B^{1/2}_{1,inf} in n = 1: both lie on the line
        s - 1/p = -1/2, the smoothness drops, and 1/q = 1 exceeds the
        sources' 0, so 1.12 fails with the weight on either side.  The waiver
        read source0's line, so at theta = 1 it read Holds."""
        target, source = t(0, 2, 1), t("1/2", 1)
        junk = t(0, "inf")
        assert check_besov(besov(1, 0, target, source, junk)).violated == ("1.12",)
        assert check_besov(besov(1, 1, target, junk, source)).violated == ("1.12",)

    def test_theta_outside_range_out_of_scope(self):
        p = besov(1, "3/2", t(0, 2), t(0, 2), t(0, 2))
        assert check_besov(p).status is Status.OUT_OF_SCOPE

    def test_theta_endpoint_identity_holds(self):
        tr = t("1/3", 3, 5)
        junk = t(-7, "9/2", "1/3")
        assert check_besov(besov(2, 0, tr, tr, junk)).status is Status.HOLDS
        assert check_besov(besov(2, 1, tr, junk, tr)).status is Status.HOLDS


class TestBesovSupChecker:
    def test_hls_chain_holds(self):
        p = besov(3, "1/2", t(0, "12/5", 1), t(0, 2), t("1/2", 2))
        v = check_besov_sup(p)
        assert v.status is Status.HOLDS and v.residual == 0

    def test_equal_embedding_lines_fail_1_15(self):
        # both sources on the line s - n/p = 1, strict order elsewhere
        p = besov(2, "1/2", t("-3/4", 8, 1), t(0, 2), t(-1, "inf"))
        v = check_besov_sup(p)
        assert v.violated == ("1.15",)

    def test_equality_with_distinct_p_fails_1_17(self):
        p = besov(3, "1/2", t(0, 4, 2), t(-1, "inf"), t(1, 2))
        assert check_besov_sup(p).violated == ("1.17",)

    def test_premise_strictness(self):
        p = besov(3, "1/2", t(0, "12/5", "inf"), t(0, 2), t("1/2", 2))
        assert check_besov_sup(p).status is Status.OUT_OF_SCOPE  # q = inf
        p = besov(3, 1, t(0, "12/5", 1), t(0, 2), t("1/2", 2))
        assert check_besov_sup(p).status is Status.OUT_OF_SCOPE  # theta endpoint
        p = besov(3, "1/2", t(0, "12/5", 1), t(0, 2, 2), t("1/2", 2))
        assert check_besov_sup(p).status is Status.OUT_OF_SCOPE  # source q finite


class TestTriebelChecker:
    def test_unbalanced_instance_fails_1_19(self):
        p = besov(3, "1/2", t(0, 4, 2), t(1, 2), t(-1, 4), Scale.HOMOG_TRIEBEL)
        v = check_triebel(p)
        assert "1.19" in v.violated and v.residual != 0

    def test_distinct_smoothness_holds(self):
        p = besov(1, "1/2", t(0, 2, 2), t(1, 2), t(-1, 2), Scale.HOMOG_TRIEBEL)
        assert check_triebel(p).status is Status.HOLDS

    def test_equal_smoothness_fails_1_21(self):
        p = besov(1, "1/2", t(0, 2, 2), t(0, 2), t(0, 2), Scale.HOMOG_TRIEBEL)
        assert check_triebel(p).violated == ("1.21",)

    def test_infinite_exponent_out_of_scope(self):
        p = besov(1, "1/2", t(0, "inf", 2), t(0, 2), t(0, 2), Scale.HOMOG_TRIEBEL)
        assert check_triebel(p).status is Status.OUT_OF_SCOPE

    def test_order_violation_fails_1_20(self):
        p = besov(1, "1/2", t("1/2", 1, 2), t(1, 2), t(-1, 2), Scale.HOMOG_TRIEBEL)
        v = check_triebel(p)
        assert v.violated == ("1.20",) and v.residual == 0


class TestRieszChecker:
    def test_ladyzhenskaya_holds(self):
        p = besov(2, "1/2", t(0, 4), t(0, 2), t(1, 2), Scale.RIESZ_POTENTIAL)
        assert check_riesz(p).status is Status.HOLDS

    def test_hls_step_holds(self):
        p = besov(3, "1/2", t(0, "12/5"), t(0, 2), t("1/2", 2), Scale.RIESZ_POTENTIAL)
        assert check_riesz(p).status is Status.HOLDS

    def test_order_violation_fails_1_23(self):
        p = besov(2, "1/4", t(1, 2), t(0, 2), t(1, 2), Scale.RIESZ_POTENTIAL)
        assert check_riesz(p).violated == ("1.23",)

    def test_exponent_range_out_of_scope(self):
        p = besov(2, "1/2", t(0, 1), t(0, 2), t(1, 2), Scale.RIESZ_POTENTIAL)
        assert check_riesz(p).status is Status.OUT_OF_SCOPE


class TestInhomogeneous:
    def test_mirror_of_sup_source_holds(self):
        p = besov(3, "1/2", t(0, "12/5", 1), t(0, 2), t("1/2", 2), Scale.INHOMOG_BESOV)
        assert check_inhomogeneous(p).status is Status.HOLDS

    def test_unbalanced_is_sufficiency_only(self):
        p = besov(3, "1/2", t(0, 2, 1), t(0, 2), t("1/2", 2), Scale.INHOMOG_BESOV)
        v = check_inhomogeneous(p)
        assert v.status is Status.OUT_OF_SCOPE
        assert "sufficiency-only" in v.note
        assert v.violated == ()

    def test_mirror_of_riesz_holds(self):
        p = besov(2, "1/2", t(0, 4), t(0, 2), t(1, 2), Scale.INHOMOG_RIESZ)
        assert check_inhomogeneous(p).status is Status.HOLDS


# Each checker's premises, one violated at a time: (checker, problem, note).
OUT_OF_SCOPE = [
    (check_besov, besov(3, "1/2", t(0, 4), t(-1, "inf"), t(1, 2), Scale.HOMOG_TRIEBEL),
     "requires the HomogBesov scale"),
    (check_besov_sup, besov(3, "1/2", t(0, "12/5", 1), t(0, 2), t("1/2", 2), Scale.RIESZ_POTENTIAL),
     "requires the HomogBesov scale"),
    (check_triebel, besov(1, "1/2", t(0, 2, 2), t(1, 2), t(-1, 2)), "requires the HomogTriebel scale"),
    (check_triebel, besov(1, 1, t(0, 2, 2), t(1, 2), t(-1, 2), Scale.HOMOG_TRIEBEL),
     "theta outside (0, 1)"),
    (check_triebel, besov(1, "1/2", t(0, 2, 2), t(1, 2, 2), t(-1, 2), Scale.HOMOG_TRIEBEL),
     "sources must carry q = inf"),
    (check_riesz, besov(2, "1/2", t(0, 4), t(0, 2), t(1, 2)), "requires the RieszPotential scale"),
    (check_riesz, besov(2, "3/2", t(0, 4), t(0, 2), t(1, 2), Scale.RIESZ_POTENTIAL),
     "theta outside [0, 1]"),
    (check_riesz, besov(2, "1/2", t(0, 4), t("1/2", 2), t(1, 2), Scale.RIESZ_POTENTIAL),
     "source0 must be a Lebesgue space (s0 = 0)"),
    (check_inhomogeneous, besov(2, "1/2", t(0, 4), t(0, 2), t(1, 2), Scale.RIESZ_POTENTIAL),
     "requires an inhomogeneous scale"),
    (check_inhomogeneous, besov(3, 1, t(0, "12/5", 1), t(0, 2), t("1/2", 2), Scale.INHOMOG_BESOV),
     "sufficiency-only: failure of these conditions is not a disproof (theta outside (0, 1))"),
]


@pytest.mark.parametrize("check,p,note", OUT_OF_SCOPE,
                         ids=[f"{check.__name__}-{i}" for i, (check, _, _) in enumerate(OUT_OF_SCOPE)])
def test_out_of_scope_premises(check, p, note):
    v = check(p)
    assert (v.status, v.violated, v.note) == (Status.OUT_OF_SCOPE, (), note)


class TestRouting:
    def test_auto_check_routes_inhomogeneous_scales(self):
        for scale in (Scale.INHOMOG_BESOV, Scale.INHOMOG_RIESZ):
            p = besov(2, "1/2", t(0, 4, 2), t(0, 2), t(1, 2), scale)
            assert auto_check(p) == check_inhomogeneous(p)
        assert auto_check(p).status is Status.HOLDS

    def test_unknown_rule_rejected(self):
        p = besov(2, "1/2", t(0, 4), t(0, 2), t(1, 2))
        with pytest.raises(ValueError, match="unknown rule 'sobolev'"):
            check_by_rule(p, "sobolev")


class TestSerialization:
    def test_problem_roundtrip(self):
        p = besov(3, "1/3", t(0, 10), t("-1/2", "inf"), t(1, "10/3", "10/3"))
        text = json.dumps(p.to_json_dict())
        doc = json.loads(text)
        assert doc["theta"] == "1/3"
        assert doc["target"]["p"] == "10"
        assert doc["source0"]["p"] == "inf"
        assert GNProblem.from_json_dict(json.loads(text)) == p

    def test_unknown_keys_rejected(self):
        doc = besov(1, 0, t(0, 2), t(0, 2), t(0, 2)).to_json_dict()
        doc["extra"] = 1
        with pytest.raises(ValueError):
            GNProblem.from_json_dict(doc)

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            Verdict(Status.FAILS, ())
        with pytest.raises(ValueError):
            Verdict(Status.HOLDS, ("1.8",))


def rationals(lo, hi, max_den):
    """Every rational in [lo, hi] with denominator <= max_den, in order."""
    return sorted({F(k, d) for d in range(1, max_den + 1) for k in range(lo * d, hi * d + 1)})


# Seeded draws over small exact rationals: s in [-3, 3] and 1/p, 1/q in
# [0, 4] with denominators <= 6, theta in [0, 1] with denominators <= 8.
VALUES = {"s": rationals(-3, 3, 6), "inv": rationals(0, 4, 6), "theta": rationals(0, 1, 8)}


def draw(rng, kind):
    """A uniform draw from VALUES[kind]; one draw in four is an end of the
    range or 0."""
    values = VALUES[kind]
    if rng.random() < 0.25:
        return rng.choice((values[0], F(0), values[-1]))
    return rng.choice(values)


def problem(rng, balanced):
    """A HomogBesov problem on n in {1, 2, 3}.  One s or exponent in four
    repeats an earlier one of its kind, so equal exponents and shared
    embedding lines come up often.  A balanced problem shifts its target s
    by the scaling defect, so condition 1.8 holds."""
    drawn = {"s": [], "inv": []}

    def value(kind):
        pool = drawn[kind]
        x = rng.choice(pool) if pool and rng.random() < 0.25 else draw(rng, kind)
        pool.append(x)
        return x

    triples = [SpaceTriple(value("s"), value("inv"), value("inv")) for _ in range(3)]
    p = GNProblem(rng.choice((1, 2, 3)), draw(rng, "theta"), *triples, Scale.HOMOG_BESOV)
    if balanced:
        p = replace(p, target=replace(p.target, s=p.target.s + scaling_balance(p)))
    return p


def problems(count, seed):
    """count seeded problems; every other one is balanced."""
    rng = random.Random(seed)
    return [problem(rng, balanced=i % 2 == 1) for i in range(count)]


def test_determinism_and_holds_requires_balance():
    for p in problems(3000, seed=1):
        v1 = check_besov(p)
        v2 = check_besov(p)
        assert v1 == v2, p
        if v1.status is Status.HOLDS:
            assert v1.residual == 0, p
        if v1.status is Status.FAILS:
            assert len(v1.violated) >= 1, p


def test_monotone_q_on_target():
    """If the bound holds for the target q it holds for every larger q:
    1/q scaled by 1/2 and by a drawn factor in [0, 1]."""
    factors = random.Random(5)
    held = 0
    for p in problems(3000, seed=2):
        factor = draw(factors, "theta")
        if check_besov(p).status is not Status.HOLDS:
            continue
        held += 1
        for u in (F(1, 2), factor):
            larger_q = replace(p.target, inv_q=p.target.inv_q * u)
            assert check_besov(replace(p, target=larger_q)).status is Status.HOLDS, (p, u)
    assert held >= 300  # the premise fires on at least a tenth of the draws


def test_sup_source_consistent_with_general():
    """Whenever the sup-source checker certifies the bound, the general
    checker agrees on the same problem; and wherever the sup-source checker
    fails it, so does the general one (auto_check's "the two agree wherever
    both apply")."""
    held = 0
    for p in problems(3000, seed=3):
        q0 = SpaceTriple(p.source0.s, p.source0.inv_p, F(0))
        q1 = SpaceTriple(p.source1.s, p.source1.inv_p, F(0))
        tq = SpaceTriple(p.target.s, p.target.inv_p, max(p.target.inv_q, F(1, 2)))
        ps = replace(p, source0=q0, source1=q1, target=tq)
        vs = check_besov_sup(ps)
        if vs.status is Status.HOLDS:
            held += 1
            assert check_besov(ps).status is Status.HOLDS, ps
        elif vs.status is Status.FAILS:
            assert check_besov(ps).status is Status.FAILS, ps
    assert held >= 300  # the premise fires on at least a tenth of the draws


def test_auto_check_matches_a_specific_checker():
    for p in problems(2000, seed=4):
        assert auto_check(p) in (check_besov(p), check_besov_sup(p)), p


def test_swap_symmetry():
    """theta -> 1 - theta with the sources exchanged names the same
    inequality, so it gets the same verdict."""
    strict_endpoints = 0
    for p in problems(3000, seed=6):
        swapped = replace(p, theta=1 - p.theta, source0=p.source1, source1=p.source0)
        v = check_besov(p)
        assert check_besov(swapped) == v, p
        strict_endpoints += p.theta in (0, 1) and "1.12" in v.violated
    assert strict_endpoints >= 30  # the endpoint waiver is decided on enough draws
