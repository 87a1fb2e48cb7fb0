"""The four benchmark workloads and their correctness gates.

Each workload is a closed loop: one process, no worker threads, calling the
library back to back.  `setup` builds the grids and runs one untimed
warm-up op so lru and FFT-plan caches are filled; `run_pass` does the
workload's fixed work once and checks every output.  Every pass of a run
uses the same inputs, which the workload seed picks, so counts repeat
exactly from pass to pass.

All library calls go through module attributes (`harness.gn_ratio`, not a
from-imported name), so the traced run sees them.

The gates are the acceptance thresholds of the test suite, unchanged.  With
`wrong_reference` every workload compares against a deliberately wrong
reference value; the smoke check uses it to show that a bad reference
surfaces as failed ops.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple

from gnlab import cli, harness, regression, spectral, testfuncs, variational
from gnlab.variational import EnergyParams, MinimizeOptions, MultiField, Regime


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    iterations: int = 0  # solver iterations; unit ops where there is no solver
    notes: List[str] = field(default_factory=list)

    def add(self, ops: int, ok: bool, note: str = "") -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.notes.append(note)


def _field_seed(seed: int, *parts: int) -> int:
    """Distinct library seed per (workload seed, parts); parts are < 1000."""
    out = seed
    for p in parts:
        out = out * 1000 + p
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, wrong_reference: bool, workdir: Path):
        self.seed = seed
        self.tiny = scale == "tiny"
        self.wrong = wrong_reference
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ratio_sweep: the c05 random-field sweep


class RatioSweep(Workload):
    """`harness.gn_ratio` on random band-limited fields for every regression
    instance, on the c05 grids and bands.

    One unit op is one field ratio.  The number of fields per band is fixed
    per instance, so that the per-instance slope estimate stays well inside
    the 0.05 gate whatever the seed: c05 itself draws 50 fields per
    instance, which the 3D grid cannot afford here.  25 per band on the 1D
    grid, whose low bands hold only a few lattice modes; one on the 2D grid,
    whose instances fall steeply with the band; on the 3D grid, see
    FIELDS_3D.
    """

    name = "ratio_sweep"
    SLOPE_MAX = 0.05
    # Fields per band on 64^3, from the spread of log2(ratio) over 24
    # fields per band at the seed commit: enough that the gate lies at least
    # 4.5 standard errors above the instance's mean slope.  With one field
    # per band, space_time_l10_3_3d (mean slope near 0, per-field sd 0.045)
    # crossed the gate on about one seed in thirty.  Instances not listed
    # (per-field sd <= 0.003, or mean slope <= -0.25) need one.
    FIELDS_3D = {
        "lebesgue10_3d": 2,           # mean slope -0.08, sd 0.048
        "quartic_gradient_3d": 3,     # -0.056, sd 0.058
        "oscillation_gradient_l4_3d": 3,  # same ratios as quartic_gradient_3d
        "ledoux_l6_3d": 3,            # -0.08, sd 0.066
        "oscillation_gradient_l6_3d": 3,  # same ratios as ledoux_l6_3d
        "space_time_l10_3_3d": 7,     # -0.005, sd 0.045
    }

    def fields_per_band(self, inst) -> int:
        n = inst.problem.n
        if n == 1:
            return 25
        if n == 2:
            return 1
        return self.FIELDS_3D.get(inst.name, 1)

    def setup(self) -> None:
        self.table = regression.regression_table()
        if self.tiny:
            # 32^3 is too coarse: 3D ratios tilt with the band there
            points = {1: 512, 2: 64}
            self.table = [i for i in self.table if i.problem.n < 3]
        else:
            points = {1: 4096, 2: 256, 3: 64}
        self.grids = {n: spectral.make_grid(n, m, 4.0 * math.pi) for n, m in points.items()}
        self.slope_max = -1.0 if self.wrong else self.SLOPE_MAX
        for n, g in self.grids.items():  # warm-up: one ratio per grid
            inst = next(i for i in self.table if i.problem.n == n)
            harness.gn_ratio(testfuncs.random_band_limited(g, g.k_min, g.k_min + 1, 0), inst.problem)

    def run_pass(self) -> PassResult:
        res = PassResult()
        for idx, inst in enumerate(self.table):
            g = self.grids[inst.problem.n]
            xs, ys, bad = [], [], 0
            for k in range(g.k_min, min(g.k_min + 4, g.k_max)):  # the c05 bands
                for j in range(self.fields_per_band(inst)):
                    seed = _field_seed(self.seed, idx, k - g.k_min, j)
                    f = testfuncs.random_band_limited(g, k, k + 1, seed)
                    try:
                        r = harness.gn_ratio(f, inst.problem)
                    except (ZeroDivisionError, ValueError, FloatingPointError):
                        r = math.nan
                    if math.isfinite(r) and r > 0:
                        xs.append(float(k))
                        ys.append(math.log2(r))
                    else:
                        bad += 1
            ops = len(xs) + bad
            slope = harness.fit_slope(xs, ys) if len(xs) >= 2 else math.inf
            ok = bad == 0 and slope <= self.slope_max
            res.add(ops, ok, f"{inst.name}: {bad} bad ratios, slope {slope:.4f} > {self.slope_max}")
        res.iterations = res.attempted
        return res


# ---------------------------------------------------------------------------
# blowup_slopes: c04 growth experiments plus the CLI regression suite


class BlowupSlopes(Workload):
    """The c04 lacunary growth experiments, then `gnlab harness --suite
    regression`.  One unit op is one family-member ratio.  The inputs are
    fixed families, so the seed changes nothing here."""

    name = "blowup_slopes"
    CLI_INDICES = 4  # the suite fits each instance over counts (3, 4, 5, 6)

    def setup(self) -> None:
        R = regression
        if self.tiny:
            self.cases = [R.triebel_blowup_case(q) for q in (1, 2, 4, "inf")]
        else:
            self.cases = (
                [R.eps_blowup_case()]
                + [R.scaled_blowup_case(q) for q in (1, 2, 4)]
                + [R.triebel_blowup_case(q) for q in (1, 2, 4, "inf")]
            )
        self.grids = [c.grid() for c in self.cases]
        self.scale = 1.5 if self.wrong else 1.0
        self.out_csv = self.workdir / "suite.csv"
        self.out_json = self.workdir / "suite.json"
        seen = set()
        for case, g in zip(self.cases, self.grids):  # warm-up: one member per grid
            if g in seen:
                continue
            seen.add(g)
            member = replace(case.family, index=case.indices[0])
            harness.gn_ratio(testfuncs.build_family(member, g), case.problem)

    def _case_ok(self, case, exp) -> Tuple[bool, str]:
        predicted = case.predicted_slope * self.scale
        slope = exp.fitted_slope
        if predicted == 0.0:
            return abs(slope) <= 0.05, f"{case.name}: |slope| {abs(slope):.4f} > 0.05"
        rel = abs(slope - predicted) / predicted
        codes = tuple(exp.verdict.violated) == case.expected_codes
        return rel <= 0.10 and codes, (
            f"{case.name}: slope {slope:.4f} vs {predicted:.4f} ({rel:.1%}), "
            f"codes {tuple(exp.verdict.violated)} vs {case.expected_codes}")

    def run_pass(self) -> PassResult:
        res = PassResult()
        for case, g in zip(self.cases, self.grids):
            try:
                exp = harness.growth_experiment(case.problem, case.family, case.indices, g)
                ok, note = self._case_ok(case, exp)
            except (ValueError, ZeroDivisionError, FloatingPointError) as exc:
                ok, note = False, f"{case.name}: {exc}"
            res.add(len(case.indices), ok, note)

        rows = len(regression.regression_table())
        for p in (self.out_csv, self.out_json):
            if p.exists():
                p.unlink()
        code = cli.main(["harness", "--suite", "regression",
                         "--output", str(self.out_csv), "--summary", str(self.out_json)])
        summary = []
        if code == 0 and self.out_json.exists():
            summary = json.loads(self.out_json.read_text())["rows"]
        if len(summary) != rows:
            res.add(rows * self.CLI_INDICES, False, f"cli suite exit {code}, {len(summary)} rows")
        else:
            for row in summary:
                ok = row["ok"] and row["fitted_slope"] is not None
                res.add(self.CLI_INDICES, ok, f"cli row {row['name']} not ok")
        res.iterations = res.attempted
        return res


# ---------------------------------------------------------------------------
# ground_state: the c08 Choquard minimization


class GroundState(Workload):
    """c08: s=1, m2=0, beta=2, G=sum of squares, tol=1e-10, max_iters=800,
    from the Gaussian start and from one random start drawn from the
    workload seed.  One unit op is one accepted minimizer iteration."""

    name = "ground_state"

    def setup(self) -> None:
        m, box = (32, 16.0) if self.tiny else (64, 20.0)
        self.grid = spectral.make_grid(3, m, box)
        self.params = EnergyParams(s=1.0, m2=0.0, beta=2.0, G=variational.sum_squares())
        self.options = MinimizeOptions(max_iters=800, tol=1e-10)
        self.mass = 1.5 if self.wrong else 1.0
        u = MultiField((testfuncs.gaussian(self.grid, 2.0),), (1.0,))
        variational.minimize(u, self.params, MinimizeOptions(max_iters=1))  # warm-up

    def run_pass(self) -> PassResult:
        res = PassResult()
        g = self.grid
        starts = [
            testfuncs.gaussian(g, 2.0),
            testfuncs.positive_random_field(g, _field_seed(self.seed, 1)),
        ]
        results = []
        for start in starts:
            try:
                results.append(variational.minimize(
                    MultiField((start,), (1.0,)), self.params, self.options))
            except (RuntimeError, ValueError, FloatingPointError) as exc:
                res.add(1, False, f"minimize raised: {exc}")
        ok = len(results) == len(starts)
        notes = []
        for r in results:
            arr = r.u_final.arrays()[0]
            mass_err = abs(variational.mass(g, arr) - self.mass)
            e = r.energy_trace[-1]
            radial = variational.monotone_along_rays(r.u_final.components[0], tol=1e-8)
            good = r.converged and mass_err < 1e-10 and r.el_residual < 1e-3 and e < 0 and radial
            ok &= good
            if not good:
                notes.append(f"converged={r.converged} mass err {mass_err:.1e} "
                             f"EL {r.el_residual:.1e} E={e:.6g} radial={radial}")
        if len(results) == len(starts):
            e0 = results[0].energy_trace[-1]
            spread = max(abs(r.energy_trace[-1] - e0) / abs(e0) for r in results[1:])
            ok &= spread < 1e-4
            notes.append(f"restart spread {spread:.1e}")
        iters = sum(r.iterations for r in results)
        res.add(iters, ok, "; ".join(notes))
        res.iterations = iters
        return res


# ---------------------------------------------------------------------------
# cstar: the c10 sharp-constant ascent, regimes and scaling probes


# estimate_cstar at the seed commit (32^3 and 16^3 grids): every seed tried
# lands within 1.3e-12 relative of these values.  The gate allows 1e-9
# relative: room for another summation order, far below a changed maximizer.
CSTAR_REFERENCE = {"full": 0.9401131296915449, "tiny": 0.9314579535680471}
CSTAR_RTOL = 1e-9


class CStar(Workload):
    """c10: `estimate_cstar(3, 1.0)` on 32^3 with the random starts drawn
    from the workload seed, then `regime_classify` on both sides of the
    critical mass and the c10 `scaling_profile` probes.  One unit op is one
    ascent start."""

    name = "cstar"
    N, BETA = 3, 1.0

    def setup(self) -> None:
        m = 16 if self.tiny else 32
        self.grid = spectral.make_grid(3, m, 16.0)
        self.reference = CSTAR_REFERENCE["tiny" if self.tiny else "full"]
        if self.wrong:
            self.reference *= 1.0 + 1e-6
        self.seeds = (_field_seed(self.seed, 1), _field_seed(self.seed, 2))
        variational.estimate_cstar(self.N, self.BETA, self.grid, max_iters=1, seeds=())  # warm-up

    def _profile_min(self, c: float, arr, s: float) -> float:
        g = self.grid
        arr = arr * math.sqrt(c / variational.mass(g, arr))
        u = MultiField((spectral.Field(g, spectral.Domain.PHYSICAL, arr),), (c,))
        params = EnergyParams(s=s, m2=0.0, beta=self.BETA, G=variational.sum_squares())
        lams = [2.0 ** k for k in range(0, 5)]
        return min(variational.scaling_profile(u, params, lams).energies)

    def run_pass(self) -> PassResult:
        res = PassResult()
        g, n, beta = self.grid, self.N, self.BETA
        starts = 3 + len(self.seeds)
        try:
            est = variational.estimate_cstar(n, beta, g, seeds=self.seeds)
        except (RuntimeError, ValueError, FloatingPointError) as exc:
            res.add(starts, False, f"estimate_cstar raised: {exc}")
            return res
        notes = []
        rel = abs(est.value - self.reference) / self.reference
        ok = rel <= CSTAR_RTOL and est.starts == starts
        notes.append(f"cstar {est.value!r} vs {self.reference!r} (rel {rel:.1e})")

        s = (n - beta) / 2.0
        G = variational.sum_squares()
        crit = 1.0 / (2.0 * est.value)
        c_low, c_high = 0.5 * crit, 2.0 * crit
        expect = [
            ((s, 0.0, c_low), Regime.NO_MINIMIZER),
            ((s, 0.0, c_high), Regime.MINUS_INFINITY),
            ((s, 1.0, c_low), Regime.MINIMIZER_EXISTS_IFF),  # n == 2 + beta
        ]
        for (s_, m2, c), want in expect:
            rep = variational.regime_classify(n, beta, s_, m2, c, est.value, G)
            good = rep.regime is want and math.isclose(rep.critical_mass, crit, rel_tol=1e-12)
            ok &= good
            if not good:
                notes.append(f"regime m2={m2} c={c:.4g}: {rep.regime.value} != {want.value}")

        probes = [
            testfuncs.positive_random_field(g, _field_seed(self.seed, 3, j)).data.real
            for j in range(9)
        ] + [est.argmax.data.real]
        low = min(self._profile_min(c_low, a, s) for a in probes)
        high = min(self._profile_min(c_high, a, s) for a in probes)
        ok &= low >= -1e-6 and high < -10.0
        notes.append(f"profile floors {low:.2e} >= -1e-6, {high:.1f} < -10")
        res.add(est.starts, ok, "; ".join(notes))
        res.iterations = est.starts
        return res


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (RatioSweep, BlowupSlopes, GroundState, CStar)
}
