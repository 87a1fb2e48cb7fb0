"""Command-line front end.

One subcommand per module; JSON results go to stdout (or --output), CSV
tables to --output.  Exit codes: 0 success, 2 precondition or validation
error, 3 numerical failure.  Output files are written atomically, JSON keys
are emitted in sorted order and floats with 17 significant digits, so
identical configurations produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import errno
import hashlib
import inspect
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

import gnlab

from . import fieldio
from .checker import GNProblem, check_by_rule, auto_check
from .harness import eps_bump_family_for, growth_experiment
from .norms import NormFamily, NormSpec, compute_norm
from .rational import as_exact, as_fraction, format_rational
from .regression import regression_table, run_regression
from .spectral import Grid, make_grid
from .testfuncs import FamilyKind, LacunaryFamily, build_family, gaussian, random_band_limited
from .variational import (
    EnergyParams,
    MinimizeOptions,
    MultiField,
    ProductPowers,
    SumPowers,
    estimate_cstar,
    minimize,
    regime_classify,
    sum_squares,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, Fraction):
        return json.dumps(format_rational(obj))
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (np.floating,)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [
            f'{json.dumps(str(k))}: {canonical_json(v)}' for k, v in sorted(obj.items())
        ]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(args, payload: dict) -> None:
    text = canonical_json(payload) + "\n"
    if getattr(args, "output", None):
        atomic_write(Path(args.output), text)
    else:
        sys.stdout.write(text)


def _strict_load(path: str, required: set, optional: set = frozenset()) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = set(doc) - required - set(optional)
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    return doc


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    with open(args.problem) as fh:
        problem = GNProblem.from_json_dict(json.load(fh))
    if args.rule == "auto":
        verdict = auto_check(problem)
    else:
        verdict = check_by_rule(problem, args.rule)
    payload = verdict.to_json_dict()
    payload["problem"] = problem.to_json_dict()
    emit(args, payload)
    return EXIT_OK


def _parse_q(text: str) -> float:
    return math.inf if text == "inf" else float(Fraction(text))


def _parse_real(text: str) -> float:
    """A decimal (nan and inf included) or an exact rational "a/b"."""
    return float(Fraction(text)) if "/" in text else float(text)


def cmd_norm(args) -> int:
    field = fieldio.read_gnf(args.field)
    spec = NormSpec(
        family=NormFamily(args.family),
        s=_parse_real(args.s),
        p=_parse_q(args.p),
        q=_parse_q(args.q),
        m2=_parse_real(args.m2),
        shell_range=tuple(args.shell_range) if args.shell_range else None,
    )
    result = compute_norm(field, spec)
    emit(args, result.to_json_dict())
    return EXIT_OK


def cmd_family(args) -> int:
    grid = make_grid(args.n, args.points, args.box_length)
    params = json.loads(args.params) if args.params else {}
    allowed = {"eps", "s", "inv_p", "lam", "amp_exp"}
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown family params {sorted(unknown)}")
    fam = LacunaryFamily(
        kind=FamilyKind(args.kind),
        n=args.n,
        index=args.index,
        j0=args.j0,
        **{k: as_fraction(v) for k, v in params.items()},
    )
    field = build_family(fam, grid)
    fieldio.write_gnf(args.output, field)
    return EXIT_OK


def cmd_gaussian(args) -> int:
    grid = make_grid(args.n, args.points, args.box_length)
    fieldio.write_gnf(args.output, gaussian(grid, args.width))
    return EXIT_OK


def cmd_random(args) -> int:
    grid = make_grid(args.n, args.points, args.box_length)
    fieldio.write_gnf(args.output, random_band_limited(grid, args.k_lo, args.k_hi, args.seed))
    return EXIT_OK


def cmd_experiment(args) -> int:
    """Custom growth experiment from a JSON config; per-index CSV rows plus a
    JSON summary with the fitted slope and the exact verdict."""
    cfg = _strict_load(
        args.config,
        required={"problem", "family", "indices", "grid"},
        optional={"rule"},
    )
    problem = GNProblem.from_json_dict(cfg["problem"])
    gspec = cfg["grid"]
    grid = make_grid(int(gspec["n"]), int(gspec["points_per_dim"]), float(gspec["box_length"]))
    fspec = dict(cfg["family"])
    kind = FamilyKind(fspec.pop("kind"))
    j0 = int(fspec.pop("j0", 2))
    fam = LacunaryFamily(
        kind=kind, n=problem.n, index=1, j0=j0,
        **{k: as_fraction(v) for k, v in fspec.items()},
    )
    exp = growth_experiment(problem, fam, cfg["indices"], grid)
    lines = ["index,target_norm,source0_norm,source1_norm,ratio"]
    for count, (tn, s0, s1), ratio in zip(exp.indices, exp.norms, exp.ratios):
        lines.append(
            f"{count},{format_float(tn)},{format_float(s0)},{format_float(s1)},{format_float(ratio)}"
        )
    csv_text = "\n".join(lines) + "\n"
    if args.output:
        atomic_write(Path(args.output), csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.summary:
        payload = {
            "fitted_slope": exp.fitted_slope,
            "axis": exp.axis,
            "verdict": exp.verdict.to_json_dict(),
            "bounded": exp.fitted_slope <= 0.05,
        }
        atomic_write(Path(args.summary), canonical_json(payload) + "\n")
    return EXIT_OK


def cmd_harness(args) -> int:
    if args.experiment:
        args.config = args.experiment
        return cmd_experiment(args)
    if args.suite != "regression":
        raise ValueError(f"unknown suite {args.suite!r}")
    from .harness import transpose_to_1d

    rows = run_regression()
    table = regression_table()
    lines = ["name,status,violated,residual,mutant,mutant_status,mutant_violated,fitted_slope"]
    summary = []
    for inst, row in zip(table, rows):
        slope = ""
        if not args.checks_only:
            # slope experiments run on the slope-preserving 1d section
            section = transpose_to_1d(inst.problem)
            grid = make_grid(1, 4096, 4.0 * math.pi)
            fam = eps_bump_family_for(section)
            exp = growth_experiment(section, fam, (3, 4, 5, 6), grid)
            slope = format_float(exp.fitted_slope)
        lines.append(
            ",".join([
                row.name,
                row.verdict.status.value,
                "|".join(row.verdict.violated),
                str(row.verdict.residual),
                row.mutant_name,
                row.mutant_verdict.status.value,
                "|".join(row.mutant_verdict.violated),
                slope,
            ])
        )
        summary.append({
            "name": row.name,
            "ok": row.ok,
            "fitted_slope": None if slope == "" else float(slope),
        })
    csv_text = "\n".join(lines) + "\n"
    if args.output:
        atomic_write(Path(args.output), csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.summary:
        atomic_write(Path(args.summary), canonical_json({"rows": summary}) + "\n")
    return EXIT_OK


def _load_multifield(paths, masses) -> MultiField:
    comps = tuple(fieldio.read_gnf(p) for p in paths)
    return MultiField(comps, tuple(masses))


def _parse_g(text: str):
    if text == "sum_squares":
        return sum_squares()
    if text.startswith("sum_powers:"):
        return SumPowers(float(Fraction(text.split(":", 1)[1])))
    if text.startswith("product_powers:"):
        alphas = tuple(float(Fraction(a)) for a in text.split(":", 1)[1].split(","))
        return ProductPowers(alphas)
    raise ValueError(f"unknown nonlinearity {text!r}")


def cmd_minimize(args) -> int:
    cfg = _strict_load(
        args.config,
        required={"grid", "params", "masses"},
        optional={"options", "initial", "output_prefix", "seed", "cstar"},
    )
    gspec = cfg["grid"]
    grid = make_grid(int(gspec["n"]), int(gspec["points_per_dim"]), float(gspec["box_length"]))
    pspec = cfg["params"]
    s, m2, beta = (as_exact(pspec[key]) for key in ("s", "m2", "beta"))
    params = EnergyParams(
        s=float(s), m2=float(m2), beta=float(beta),
        G=_parse_g(pspec.get("G", "sum_squares")),
    )
    masses = [float(c) for c in cfg["masses"]]
    initial = cfg.get("initial")
    if initial:
        u0 = _load_multifield(initial, masses)
    else:
        from .spectral import Domain, Field

        width = grid.box_length / 8.0
        data = np.exp(-grid.coord_radius2() / (2.0 * width ** 2))
        comps = tuple(Field(grid, Domain.PHYSICAL, data) for _ in masses)
        u0 = MultiField(comps, tuple(masses))
    opts = MinimizeOptions(**cfg.get("options", {}))
    result = minimize(u0, params, opts)
    prefix = cfg.get("output_prefix")
    if prefix:
        for i, comp in enumerate(result.u_final.components):
            fieldio.write_gnf(f"{prefix}.component{i}.gnf", comp)
        atomic_write(
            Path(f"{prefix}.trace.csv"),
            "iteration,energy\n"
            + "\n".join(f"{i},{format_float(e)}" for i, e in enumerate(result.energy_trace))
            + "\n",
        )
    regime = None
    if "cstar" in cfg:
        report = regime_classify(
            grid.n, beta, s, m2, sum(masses),
            float(cfg["cstar"]), params.G,
        )
        regime = report.to_json_dict()
    emit(args, {
        "final_energy": result.energy_trace[-1],
        "multipliers": result.multipliers,
        "el_residual": result.el_residual,
        "converged": result.converged,
        "iterations": result.iterations,
        "message": result.message,
        "regime": regime,
    })
    if not result.converged:
        return EXIT_NUMERICAL
    return EXIT_OK


def _cstar_cache_path(n: int, beta, grid: Grid) -> Path:
    """The key covers the problem, the settings cstar_cached runs the
    estimator with (its defaults) and the package version, so an entry
    written under other settings or by another release is a miss.  beta is
    keyed exactly, so 2.2 and 11/5 share one entry."""
    cache_dir = Path(os.environ.get("GNLAB_CACHE_DIR", Path.home() / ".cache" / "gnlab"))
    defaults = inspect.signature(estimate_cstar).parameters
    settings = f"{defaults['max_iters'].default}|{tuple(defaults['seeds'].default)}"
    key = (
        f"{n}|{format_rational(as_exact(beta))}|{grid.points_per_dim}|{grid.box_length:.17g}"
        f"|{settings}|{gnlab.__version__}"
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return cache_dir / f"cstar-{digest}.json"


def cstar_cached(n: int, beta, grid: Grid) -> float:
    """Cached estimate; an unreadable entry, or one without a finite value,
    is a miss and is rewritten."""
    path = _cstar_cache_path(n, beta, grid)
    try:
        with open(path) as fh:
            value = float(json.load(fh)["value"])
    except (OSError, ValueError, KeyError, TypeError):
        value = math.nan
    if math.isfinite(value):
        return value
    est = estimate_cstar(n, float(beta), grid)
    atomic_write(path, canonical_json({"value": est.value}) + "\n")
    return est.value


def cmd_cstar(args) -> int:
    grid = make_grid(args.n, args.points, args.box_length)
    if args.no_cache:
        value = estimate_cstar(args.n, float(args.beta), grid).value
    else:
        value = cstar_cached(args.n, args.beta, grid)
    emit(args, {"n": args.n, "beta": float(args.beta), "cstar": value,
                "grid": {"points_per_dim": args.points, "box_length": args.box_length}})
    return EXIT_OK


def cmd_regimes(args) -> int:
    if args.cstar == "auto":
        grid = make_grid(args.n, args.points, args.box_length)
        cstar = cstar_cached(args.n, args.beta, grid)
    else:
        cstar = float(args.cstar)
    report = regime_classify(
        args.n, args.beta, args.s, args.m2, float(args.c), cstar, _parse_g(args.g)
    )
    payload = report.to_json_dict()
    payload["cstar"] = cstar
    emit(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gnlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run a parameter checker on a problem JSON")
    c.add_argument("--rule", default="auto",
                   choices=["auto", "besov", "besov-sup", "triebel", "riesz", "inhomog"])
    c.add_argument("--problem", required=True)
    c.add_argument("--output")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("norm", help="compute a norm of a GNF1 field")
    c.add_argument("--field", required=True)
    c.add_argument("--family", required=True, choices=[f.value for f in NormFamily])
    c.add_argument("--s", default="0")
    c.add_argument("--p", default="2")
    c.add_argument("--q", default="inf")
    c.add_argument("--m2", default="0")
    c.add_argument("--shell-range", type=int, nargs=2, default=None)
    c.add_argument("--output")
    c.set_defaults(fn=cmd_norm)

    c = sub.add_parser("family", help="emit a lacunary family as GNF1")
    c.add_argument("--kind", required=True, choices=[k.value for k in FamilyKind])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--points", type=int, required=True)
    c.add_argument("--box-length", type=float, required=True)
    c.add_argument("--index", type=int, required=True)
    c.add_argument("--j0", type=int, default=2)
    c.add_argument("--params", help='JSON object, e.g. {"eps": "1/4"}')
    c.add_argument("--output", required=True)
    c.set_defaults(fn=cmd_family)

    c = sub.add_parser("gaussian", help="emit a Gaussian field as GNF1")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--points", type=int, required=True)
    c.add_argument("--box-length", type=float, required=True)
    c.add_argument("--width", type=float, required=True)
    c.add_argument("--output", required=True)
    c.set_defaults(fn=cmd_gaussian)

    c = sub.add_parser("random", help="emit a random band-limited field as GNF1")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--points", type=int, required=True)
    c.add_argument("--box-length", type=float, required=True)
    c.add_argument("--k-lo", type=int, required=True)
    c.add_argument("--k-hi", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--output", required=True)
    c.set_defaults(fn=cmd_random)

    c = sub.add_parser("harness", help="run the built-in regression suite or a custom experiment")
    c.add_argument("--suite", default="regression")
    c.add_argument("--experiment", help="JSON experiment config (problem, family, indices, grid)")
    c.add_argument("--checks-only", action="store_true",
                   help="skip the slope experiments (exact checks only)")
    c.add_argument("--output", help="CSV path (default stdout)")
    c.add_argument("--summary", help="JSON summary path")
    c.set_defaults(fn=cmd_harness)

    c = sub.add_parser("minimize", help="run the constrained energy minimizer")
    c.add_argument("--config", required=True)
    c.add_argument("--output")
    c.set_defaults(fn=cmd_minimize)

    c = sub.add_parser("cstar", help="estimate the sharp interaction constant")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--beta", type=as_fraction, required=True)
    c.add_argument("--points", type=int, required=True)
    c.add_argument("--box-length", type=float, required=True)
    c.add_argument("--no-cache", action="store_true")
    c.add_argument("--output")
    c.set_defaults(fn=cmd_cstar)

    c = sub.add_parser("regimes", help="classify the minimizer-existence regime")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--beta", type=as_fraction, required=True)
    c.add_argument("--s", type=as_fraction, required=True)
    c.add_argument("--m2", type=as_fraction, required=True)
    c.add_argument("--c", type=as_fraction, required=True)
    c.add_argument("--cstar", default="auto")
    c.add_argument("--g", default="sum_squares")
    c.add_argument("--points", type=int, default=32)
    c.add_argument("--box-length", type=float, default=16.0)
    c.add_argument("--output")
    c.set_defaults(fn=cmd_regimes)
    return ap


def _check_output_paths(args) -> None:
    """Raise, before the command does its work, for an --output or --summary
    path that is a directory or whose parent cannot be created."""
    for path in filter(None, (getattr(args, "output", None), getattr(args, "summary", None))):
        path = Path(path)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        ancestor = path.parent
        while not ancestor.exists():
            ancestor = ancestor.parent
        if not ancestor.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(ancestor))


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output_paths(args)
        return args.fn(args)
    except (ValueError, TypeError, KeyError, OSError, ZeroDivisionError) as exc:
        print(f"gnlab: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FloatingPointError, RuntimeError) as exc:
        print(f"gnlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
