"""Built-in regression instances.

Each instance is a concrete inequality from the classical catalogue
(embedding-refined Lebesgue bounds, gradient interpolation, the
Hardy-Littlewood-Sobolev chain, sup-indexed and Triebel-Lizorkin
interpolation) that the checkers must certify as Holds, paired with a
mutation that breaks exactly one condition and must come back as Fails
naming that condition's code.  A small blow-up suite drives the violated
instances with their matching lacunary families.
"""
from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction
import math
from typing import List, Tuple

from .checker import (
    GNProblem,
    Scale,
    SpaceTriple,
    Status,
    Verdict,
    check_by_rule,
)
from .harness import eps_bump_family_for, scaled_family_for
from .spectral import Grid
from .testfuncs import FamilyKind, LacunaryFamily

F = Fraction


def _t(s, p, q="inf") -> SpaceTriple:
    return SpaceTriple.from_exponents(s, p, q)


@dataclass(frozen=True)
class Mutant:
    name: str
    problem: GNProblem
    expected_codes: Tuple[str, ...]


@dataclass(frozen=True)
class RegressionInstance:
    name: str
    problem: GNProblem
    rule: str
    mutant: Mutant


def regression_table() -> List[RegressionInstance]:
    rows: List[RegressionInstance] = []

    # L^10 bound (3d) through the weak Besov target
    p = GNProblem(3, F(1, 3), _t(0, 10), _t("-1/2", "inf"), _t(1, "10/3", "10/3"), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "lebesgue10_3d", p, "besov",
        Mutant("finite-q-target", dc_replace(p, target=_t(0, 10, "10/3")), ("1.10",)),
    ))

    # ||u||_4 <= ||grad u||_2^(1/2) ||u||_(B^-1)^(1/2)
    p = GNProblem(3, F(1, 2), _t(0, 4), _t(-1, "inf"), _t(1, 2), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "quartic_gradient_3d", p, "besov",
        Mutant("finite-q-target", dc_replace(p, target=_t(0, 4, 2)), ("1.10",)),
    ))

    # Ledoux-type L^6 bound, theta = p/q = 1/3
    p = GNProblem(3, F(1, 3), _t(0, 6), _t("-1/2", "inf"), _t(1, 2), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "ledoux_l6_3d", p, "besov",
        Mutant("unbalanced-source1", dc_replace(p, source1=_t("3/2", 2)), ("1.8",)),
    ))

    # Lebesgue-Sobolev step of the interaction-functional chain (sup sources)
    p = GNProblem(3, F(1, 2), _t(0, "12/5", 1), _t(0, 2), _t("1/2", 2), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "hls_chain_l12_5_3d", p, "besov-sup",
        Mutant("order-violating-target", dc_replace(p, target=_t("1/2", "12/7", 1)), ("1.16",)),
    ))

    # space-time interpolation endpoint used for L^(10/3) control in 3d
    p = GNProblem(3, F(3, 5), _t(0, "10/3"), _t("-3/2", "inf"), _t(1, 2), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "space_time_l10_3_3d", p, "besov",
        Mutant("finite-q-target", dc_replace(p, target=_t(0, "10/3", "5/3")), ("1.10",)),
    ))

    # ||u||_(12/5) <= ||u||_2^(3/4) ||u||_(H^1)^(1/4) on the potential scale
    p = GNProblem(3, F(1, 4), _t(0, "12/5"), _t(0, 2), _t(1, 2), Scale.RIESZ_POTENTIAL)
    rows.append(RegressionInstance(
        "hls_step_quadratic_3d", p, "riesz",
        Mutant("order-violating-target", dc_replace(p, target=_t("1/2", "12/7")), ("1.23",)),
    ))

    # same chain at the mu = 7/3 growth exponent
    p = GNProblem(3, F(3, 7), _t(0, "14/5"), _t(0, 2), _t(1, 2), Scale.RIESZ_POTENTIAL)
    rows.append(RegressionInstance(
        "hls_step_mu_3d", p, "riesz",
        Mutant("unbalanced-source1", dc_replace(p, source1=_t(1, 3)), ("1.23",)),
    ))

    # strict-case sup-source interpolation (2d)
    p = GNProblem(2, F(1, 3), _t(0, 4, 1), _t(0, 2), _t(1, 4), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "sup_source_strict_2d", p, "besov-sup",
        Mutant("unbalanced-target", dc_replace(p, target=_t(0, 3, 1)), ("1.14",)),
    ))

    # Triebel-Lizorkin interpolation with distinct source smoothness (1d)
    p = GNProblem(1, F(1, 2), _t(0, 2, 2), _t(1, 2), _t(-1, 2), Scale.HOMOG_TRIEBEL)
    rows.append(RegressionInstance(
        "triebel_interp_1d", p, "triebel",
        Mutant(
            "equal-source-smoothness",
            dc_replace(p, source0=_t(0, 2), source1=_t(0, 2)),
            ("1.21",),
        ),
    ))

    # Ladyzhenskaya ||u||_4 <= ||u||_2^(1/2) ||grad u||_2^(1/2) (2d)
    p = GNProblem(2, F(1, 2), _t(0, 4), _t(0, 2), _t(1, 2), Scale.RIESZ_POTENTIAL)
    rows.append(RegressionInstance(
        "ladyzhenskaya_2d", p, "riesz",
        Mutant("unbalanced-theta", dc_replace(p, theta=F(1, 4)), ("1.23",)),
    ))

    # ||grad u||_2 <= ||u||_2^(1/2) ||u||_(H^2)^(1/2) (3d)
    p = GNProblem(3, F(1, 2), _t(1, 2), _t(0, 2), _t(2, 2), Scale.RIESZ_POTENTIAL)
    rows.append(RegressionInstance(
        "gradient_interp_3d", p, "riesz",
        Mutant("unbalanced-theta", dc_replace(p, theta=F(1, 3)), ("1.23",)),
    ))

    # ||grad u||_4 via second derivatives and the sup-scale oscillation norm
    p = GNProblem(3, F(1, 2), _t(1, 4), _t(0, "inf"), _t(2, 2), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "oscillation_gradient_l4_3d", p, "besov",
        Mutant("finite-q-target", dc_replace(p, target=_t(1, 4, 4)), ("1.10",)),
    ))

    # third-order variant, theta = 1/3
    p = GNProblem(3, F(1, 3), _t(1, 6), _t(0, "inf"), _t(3, 2), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "oscillation_gradient_l6_3d", p, "besov",
        Mutant("unbalanced-source1", dc_replace(p, source1=_t(3, 3)), ("1.8",)),
    ))

    # equality case saturating the q-convexity bound (1d)
    p = GNProblem(1, F(1, 2), _t(0, 4, 4), _t(-1, "inf"), _t(1, 2, 2), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "besov_equality_q_1d", p, "besov",
        Mutant("finite-q-target", dc_replace(p, target=_t(0, 4, "8/3")), ("1.10",)),
    ))

    # sup-source equality case with matching integrability (1d)
    p = GNProblem(1, F(1, 2), _t(0, 2, 1), _t(-1, 2), _t(1, 2), Scale.HOMOG_BESOV)
    rows.append(RegressionInstance(
        "sup_source_equal_p_1d", p, "besov-sup",
        Mutant(
            "mismatched-integrability",
            dc_replace(p, source0=_t(-1, "inf"), source1=_t(1, 1)),
            ("1.17",),
        ),
    ))
    return rows


@dataclass
class RegressionRow:
    name: str
    verdict: Verdict
    mutant_name: str
    mutant_verdict: Verdict
    ok: bool


def run_regression() -> List[RegressionRow]:
    """Check every instance (expect Holds) and its mutant (expect Fails with
    exactly the advertised condition codes)."""
    rows = []
    for inst in regression_table():
        v = check_by_rule(inst.problem, inst.rule)
        mv = check_by_rule(inst.mutant.problem, inst.rule)
        ok = (
            v.status is Status.HOLDS
            and mv.status is Status.FAILS
            and tuple(mv.violated) == inst.mutant.expected_codes
        )
        rows.append(RegressionRow(inst.name, v, inst.mutant.name, mv, ok))
    return rows


# ---------------------------------------------------------------------------
# blow-up suite: violated instances with their matching counterexample family


@dataclass(frozen=True)
class BlowupCase:
    name: str
    problem: GNProblem
    family: LacunaryFamily
    indices: Tuple[int, ...]
    grid_spec: Tuple[int, int, float]  # (n, points, box_length)
    predicted_slope: float
    expected_codes: Tuple[str, ...]
    rule: str

    def grid(self) -> Grid:
        n, m, L = self.grid_spec
        return Grid(n, m, L)


def eps_blowup_case(points: int = 2 ** 14) -> BlowupCase:
    """Order-condition violation with margin 1/4: growing amplitude train."""
    problem = GNProblem(
        1, F(1, 2), _t("1/2", "4/3", 2), _t(0, 2, 2), _t("1/2", 2, 2), Scale.HOMOG_BESOV
    )
    fam = eps_bump_family_for(problem)
    return BlowupCase(
        "order-margin-blowup", problem, fam, tuple(range(4, 12)),
        (1, points, 4.0 * math.pi), 0.25, ("1.9",), "besov",
    )


def scaled_blowup_case(q: int, points: int = 2 ** 16) -> BlowupCase:
    """Equality case with p0 != p1: cardinality train, slope 1/q.

    Exponents are kept at 1 or above so the physical-side tails of the
    dilated bumps stay negligible in every norm in play.
    """
    problem = GNProblem(
        1, F(1, 2), _t("1/64", "4/3", q), _t(0, 1), _t("1/32", 2), Scale.HOMOG_BESOV
    )
    fam = scaled_family_for(problem)
    return BlowupCase(
        f"equality-case-blowup-q{q}", problem, fam, (4, 5, 6, 7, 8),
        (1, points, 32.0 * math.pi), 1.0 / q, ("1.17",), "besov-sup",
    )


def triebel_blowup_case(q, points: int = 2 ** 12) -> BlowupCase:
    """Equal source smoothness on the Triebel scale: slope 1/q (0 at q=inf)."""
    problem = GNProblem(
        1, F(1, 2), SpaceTriple.from_exponents(0, 2, q), _t(0, 2), _t(0, 2),
        Scale.HOMOG_TRIEBEL,
    )
    fam = LacunaryFamily(
        kind=FamilyKind.SINGLE_AMPLITUDE_TRAIN, n=1, index=1, j0=2, s=F(0)
    )
    predicted = 0.0 if q == "inf" else 1.0 / float(q)
    return BlowupCase(
        f"triebel-blowup-q{q}", problem, fam, (4, 5, 6, 7, 8),
        (1, points, 4.0 * math.pi), predicted, ("1.21",), "triebel",
    )
