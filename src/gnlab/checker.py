"""Exact decision procedures for fractional interpolation inequalities.

Each checker answers, for a parameter tuple (n, theta, target, source0,
source1), whether the two-space interpolation bound

    ||u||_target  <=  C ||u||_source0^(1-theta) ||u||_source1^theta

holds on the given smoothness scale.  All comparisons are exact rational
arithmetic; verdicts are deterministic and list *every* violated condition
code, not just the first.

Condition codes ("1.8", "1.15", ...) are the package's documented registry
of checkable conditions; see README for the code -> meaning table.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .rational import (
    as_fraction,
    as_int,
    format_exponent_from_inv,
    format_rational,
    inv_exponent,
)


class Scale(Enum):
    """Which smoothness scale the problem lives on."""

    HOMOG_BESOV = "HomogBesov"
    HOMOG_TRIEBEL = "HomogTriebel"
    RIESZ_POTENTIAL = "RieszPotential"
    INHOMOG_BESOV = "InhomogBesov"
    INHOMOG_RIESZ = "InhomogRiesz"


class Status(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    OUT_OF_SCOPE = "OutOfScope"


@dataclass(frozen=True)
class SpaceTriple:
    """Indices (s, 1/p, 1/q) of one function space.

    Reciprocals are nonnegative rationals; 0 encodes the exponent infinity.
    """

    s: Fraction
    inv_p: Fraction
    inv_q: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "s", as_fraction(self.s))
        object.__setattr__(self, "inv_p", as_fraction(self.inv_p))
        object.__setattr__(self, "inv_q", as_fraction(self.inv_q))
        if self.inv_p < 0 or self.inv_q < 0:
            raise ValueError("reciprocal exponents must be >= 0")

    @classmethod
    def from_exponents(cls, s, p, q="inf") -> "SpaceTriple":
        """Build from the exponents themselves (p, q in (0, inf])."""
        return cls(as_fraction(s), inv_exponent(p), inv_exponent(q))

    def to_json_dict(self) -> dict:
        return {
            "s": format_rational(self.s),
            "p": format_exponent_from_inv(self.inv_p),
            "q": format_exponent_from_inv(self.inv_q),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SpaceTriple":
        unknown = set(d) - {"s", "p", "q"}
        if unknown:
            raise ValueError(f"unknown space keys: {sorted(unknown)}")
        return cls.from_exponents(d["s"], d["p"], d.get("q", "inf"))


@dataclass(frozen=True)
class GNProblem:
    """One interpolation-inequality instance on a fixed scale."""

    n: int
    theta: Fraction
    target: SpaceTriple
    source0: SpaceTriple
    source1: SpaceTriple
    scale: Scale

    def __post_init__(self):
        object.__setattr__(self, "theta", as_fraction(self.theta))
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("dimension n must be a positive integer")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "theta": format_rational(self.theta),
            "scale": self.scale.value,
            "target": self.target.to_json_dict(),
            "source0": self.source0.to_json_dict(),
            "source1": self.source1.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GNProblem":
        required = {"n", "theta", "scale", "target", "source0", "source1"}
        unknown = set(d) - required
        if unknown:
            raise ValueError(f"unknown problem keys: {sorted(unknown)}")
        missing = required - set(d)
        if missing:
            raise ValueError(f"missing problem keys: {sorted(missing)}")
        return cls(
            n=as_int(d["n"], "n"),
            theta=as_fraction(d["theta"]),
            target=SpaceTriple.from_json_dict(d["target"]),
            source0=SpaceTriple.from_json_dict(d["source0"]),
            source1=SpaceTriple.from_json_dict(d["source1"]),
            scale=Scale(d["scale"]),
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of one checker: Holds / Fails(+condition codes) / OutOfScope."""

    status: Status
    violated: tuple = ()
    residual: Fraction = Fraction(0)
    note: str = ""

    def __post_init__(self):
        if self.status is Status.FAILS and not self.violated:
            raise ValueError("Fails verdict must list violated conditions")
        if self.status is Status.HOLDS and self.violated:
            raise ValueError("Holds verdict must not list violations")

    def to_json_dict(self) -> dict:
        d = {
            "status": self.status.value,
            "violated": list(self.violated),
            "residual": format_rational(self.residual),
        }
        if self.note:
            d["note"] = self.note
        return d


def scaling_balance(problem: GNProblem) -> Fraction:
    """Exact defect of the dilation-invariance balance.

    Returns n/p - s - (1-theta)(n/p0 - s0) - theta(n/p1 - s1); the
    inequality can only hold when this is exactly 0.
    """
    n, th = Fraction(problem.n), problem.theta
    t, a, b = problem.target, problem.source0, problem.source1
    return (
        n * t.inv_p
        - t.s
        - (1 - th) * (n * a.inv_p - a.s)
        - th * (n * b.inv_p - b.s)
    )


def _weighted_s(problem: GNProblem) -> Fraction:
    th = problem.theta
    return (1 - th) * problem.source0.s + th * problem.source1.s


def _q_convex_ok(problem: GNProblem) -> bool:
    th = problem.theta
    lhs = problem.target.inv_q
    rhs = (1 - th) * problem.source0.inv_q + th * problem.source1.inv_q
    return lhs <= rhs


def _verdict(residual: Fraction, violated: Sequence[str]) -> Verdict:
    if violated:
        return Verdict(Status.FAILS, tuple(violated), residual)
    return Verdict(Status.HOLDS, (), residual)


def check_besov(problem: GNProblem) -> Verdict:
    """Necessary-and-sufficient check on the homogeneous Besov scale,
    arbitrary summability indices, theta in [0, 1].

    Conditions: 1.8 scaling balance; 1.9 smoothness order; in the equality
    case of 1.9, the q-convexity condition 1.10 (p0 != p1) or 1.11
    (p0 == p1, waived when s0 != s1); in the strict case, 1.12 (waived when
    the embedding line s - n/p of a source with positive weight differs
    from the target's: source0's at theta = 0, source1's at theta = 1).
    """
    if problem.scale is not Scale.HOMOG_BESOV:
        return Verdict(Status.OUT_OF_SCOPE, note="requires the HomogBesov scale")
    th = problem.theta
    if th < 0 or th > 1:
        return Verdict(Status.OUT_OF_SCOPE, note="theta outside [0, 1]")

    t, a, b = problem.target, problem.source0, problem.source1
    n = Fraction(problem.n)
    residual = scaling_balance(problem)
    ws = _weighted_s(problem)
    violated = []
    if residual != 0:
        violated.append("1.8")
    if t.s > ws:
        violated.append("1.9")
    elif t.s == ws:
        if a.inv_p != b.inv_p:
            if not _q_convex_ok(problem):
                violated.append("1.10")
        else:
            if a.s == b.s and not _q_convex_ok(problem):
                violated.append("1.11")
    else:  # strict smoothness drop
        # every source that carries weight lies on the target's embedding
        # line: source0 alone at theta = 0 and source1 alone at theta = 1;
        # inside (0, 1), under the balance, one does if and only if both do
        line = t.s - n * t.inv_p
        same_line = all(src.s - n * src.inv_p == line for weight, src in ((1 - th, a), (th, b)) if weight)
        if same_line and not _q_convex_ok(problem):
            violated.append("1.12")
    return _verdict(residual, violated)


def check_besov_sup(problem: GNProblem) -> Verdict:
    """Check on the homogeneous Besov scale with sup-indexed sources
    (q0 = q1 = infinity), finite target q, theta strictly inside (0, 1).

    Conditions: 1.14 scaling balance; 1.15 distinct source embedding lines;
    1.16 smoothness order; 1.17 equal source integrability in the equality
    case of 1.16.
    """
    if problem.scale is not Scale.HOMOG_BESOV:
        return Verdict(Status.OUT_OF_SCOPE, note="requires the HomogBesov scale")
    th = problem.theta
    if not (0 < th < 1):
        return Verdict(Status.OUT_OF_SCOPE, note="theta outside (0, 1)")
    t, a, b = problem.target, problem.source0, problem.source1
    if a.inv_q != 0 or b.inv_q != 0:
        return Verdict(Status.OUT_OF_SCOPE, note="sources must carry q = inf")
    if t.inv_q == 0:
        return Verdict(Status.OUT_OF_SCOPE, note="target must carry finite q")

    n = Fraction(problem.n)
    residual = scaling_balance(problem)
    ws = _weighted_s(problem)
    violated = []
    if residual != 0:
        violated.append("1.14")
    if a.s - n * a.inv_p == b.s - n * b.inv_p:
        violated.append("1.15")
    if t.s > ws:
        violated.append("1.16")
    elif t.s == ws and a.inv_p != b.inv_p:
        violated.append("1.17")
    return _verdict(residual, violated)


def check_triebel(problem: GNProblem) -> Verdict:
    """Check on the homogeneous Triebel-Lizorkin scale with sup-indexed
    sources; all integrability exponents and the target q finite.

    Conditions: 1.19 scaling balance; 1.20 smoothness order; 1.21 distinct
    source smoothness in the equality case of 1.20.
    """
    if problem.scale is not Scale.HOMOG_TRIEBEL:
        return Verdict(Status.OUT_OF_SCOPE, note="requires the HomogTriebel scale")
    th = problem.theta
    if not (0 < th < 1):
        return Verdict(Status.OUT_OF_SCOPE, note="theta outside (0, 1)")
    t, a, b = problem.target, problem.source0, problem.source1
    if t.inv_p == 0 or a.inv_p == 0 or b.inv_p == 0 or t.inv_q == 0:
        return Verdict(Status.OUT_OF_SCOPE, note="p, p0, p1, q must all be finite")
    if a.inv_q != 0 or b.inv_q != 0:
        return Verdict(Status.OUT_OF_SCOPE, note="sources must carry q = inf")

    residual = scaling_balance(problem)
    ws = _weighted_s(problem)
    violated = []
    if residual != 0:
        violated.append("1.19")
    if t.s > ws:
        violated.append("1.20")
    elif t.s == ws and a.s == b.s:
        violated.append("1.21")
    return _verdict(residual, violated)


def check_riesz(problem: GNProblem) -> Verdict:
    """Check for a Riesz-potential-space target against a Lebesgue source
    and a Riesz-potential source; 1 < p, p0, p1 < infinity, s0 = 0.

    Both sub-conditions (scaling balance and s <= theta*s1) carry the single
    code 1.23; the residual field separates the balance defect.
    """
    if problem.scale is not Scale.RIESZ_POTENTIAL:
        return Verdict(Status.OUT_OF_SCOPE, note="requires the RieszPotential scale")
    th = problem.theta
    if th < 0 or th > 1:
        return Verdict(Status.OUT_OF_SCOPE, note="theta outside [0, 1]")
    t, a, b = problem.target, problem.source0, problem.source1
    for triple in (t, a, b):
        if not (0 < triple.inv_p < 1):
            return Verdict(
                Status.OUT_OF_SCOPE, note="integrability exponents must lie in (1, inf)"
            )
    if a.s != 0:
        return Verdict(Status.OUT_OF_SCOPE, note="source0 must be a Lebesgue space (s0 = 0)")

    residual = scaling_balance(problem)
    violated = []
    if residual != 0 or t.s > th * b.s:
        violated.append("1.23")
    return _verdict(residual, violated)


_SUFFICIENCY_NOTE = "sufficiency-only: failure of these conditions is not a disproof"


def check_inhomogeneous(problem: GNProblem) -> Verdict:
    """Sufficient conditions on the inhomogeneous scales.

    Returns Holds when the sufficient conditions are met.  Anything else is
    OutOfScope: no inhomogeneous necessity conditions are implemented, so a
    failed sufficient condition is not a disproof.
    """
    if problem.scale is Scale.INHOMOG_BESOV:
        proxy = replace(problem, scale=Scale.HOMOG_BESOV)
        inner = check_besov_sup(proxy)
        codes = {"1.14": "4.6", "1.15": "4.7", "1.16": "4.8", "1.17": "4.9"}
    elif problem.scale is Scale.INHOMOG_RIESZ:
        proxy = replace(problem, scale=Scale.RIESZ_POTENTIAL)
        inner = check_riesz(proxy)
        codes = {"1.23": "4.11"}
    else:
        return Verdict(Status.OUT_OF_SCOPE, note="requires an inhomogeneous scale")

    if inner.status is Status.HOLDS:
        return Verdict(Status.HOLDS, (), inner.residual)
    if inner.status is Status.FAILS:
        unmet = ", ".join(codes[v] for v in inner.violated)
        return Verdict(
            Status.OUT_OF_SCOPE,
            (),
            inner.residual,
            note=f"{_SUFFICIENCY_NOTE} (unmet: {unmet})",
        )
    return Verdict(
        Status.OUT_OF_SCOPE, (), inner.residual,
        note=f"{_SUFFICIENCY_NOTE} ({inner.note})",
    )


_RULES = {
    "besov": check_besov,
    "besov-sup": check_besov_sup,
    "triebel": check_triebel,
    "riesz": check_riesz,
    "inhomog": check_inhomogeneous,
}


def check_by_rule(problem: GNProblem, rule: str) -> Verdict:
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {sorted(_RULES)}")
    return _RULES[rule](problem)


def auto_check(problem: GNProblem) -> Verdict:
    """Pick the checker whose hypotheses match the problem.

    Besov problems with sup-indexed sources and finite target q route to the
    sup-source checker; other Besov problems to the general one.  The two
    agree wherever both apply.
    """
    if problem.scale is Scale.HOMOG_BESOV:
        sup_sources = problem.source0.inv_q == 0 and problem.source1.inv_q == 0
        if sup_sources and problem.target.inv_q > 0 and 0 < problem.theta < 1:
            return check_besov_sup(problem)
        return check_besov(problem)
    if problem.scale is Scale.HOMOG_TRIEBEL:
        return check_triebel(problem)
    if problem.scale is Scale.RIESZ_POTENTIAL:
        return check_riesz(problem)
    return check_inhomogeneous(problem)
