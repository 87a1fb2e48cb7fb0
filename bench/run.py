"""gnlab benchmark: one workload per process, outputs checked, metrics printed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload (ratio_sweep, blowup_slopes,
ground_state, cstar; see BENCHMARK.json and workloads.py) is set up, then
its fixed work (one pass) is repeated until S seconds have passed, at least
once.  Every pass checks its outputs against the acceptance thresholds.

With --trace 0 the end-to-end metrics are reported:
  setup_s      import, grid construction and one warm-up op; median of three
               cold set-ups (this process and two short child processes)
  wall_s       median time of one pass
  ops_per_s    unit ops that passed their gate, per second of pass time
  iterations   solver iterations per pass (unit ops where there is no solver)
  peak_rss_mb  peak resident memory of this process
  ok_rate      unit ops that passed their gate / unit ops attempted
With --trace 1 the run is split in two: untraced passes for S/2 seconds,
then traced passes (tracer.py) for S/2 seconds.  The per-layer metrics are
per traced pass; trace.overhead_frac compares the two halves' pass times.
The spans are written to .bench_out/ at the end.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the
environment.  Gate failures and count drift are reported on stderr and make
`correct` false.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ratio_sweep", "blowup_slopes", "ground_state", "cstar")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny grids, for the smoke check")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="gate against wrong reference values, for the smoke check")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    value = _read(root / ".git" / ref)
    if value:
        return value
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or "unknown",
        "l2": _read(cache / "index2" / "size") or "unknown",
        "l3": _read(cache / "index3" / "size") or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def probe_setup(args) -> float:
    """Set-up time of a fresh child process running the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--scale", args.scale]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, budget: float, tracer=None):
    """Repeat passes until `budget` seconds have passed (at least one)."""
    passes, marks = [], []
    if tracer is not None:
        marks.append(tracer.mark())
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        res = workload.run_pass()
        passes.append((time.perf_counter() - t0, res))
        if tracer is not None:
            marks.append(tracer.mark())
    return passes, marks


def per_layer(tracer, marks, plain, traced, faults):
    import tracer as tr

    stats = [tr.pass_stats(tracer, lo, hi) for lo, hi in zip(marks, marks[1:])]
    for i, st in enumerate(stats[1:], start=1):
        drift = [k for k in tr.EXACT if st[k] != stats[0][k]]
        if drift:
            faults.append(f"count drift between traced passes 0 and {i}: {drift}")
    out = dict(stats[0])
    for key in tr.PER_LAYER_UNITS:
        if key.endswith(".self_s"):
            out[key] = statistics.mean(st[key] for st in stats)
    samples = [1e3 * d for lo, hi in zip(marks, marks[1:])
               for d in tr.durations(tracer, "harness.gn_ratio", lo, hi)]
    pct, tail = tr.tail_percentile(samples)
    out["harness.gn_ratio.p50_ms"] = statistics.median(samples) if samples else 0.0
    out["harness.gn_ratio.tail_ms"] = tail
    out["harness.gn_ratio.tail_pct"] = pct
    out["harness.gn_ratio.samples"] = len(samples)
    untraced = statistics.median(t for t, _ in plain)
    out["trace.overhead_frac"] = statistics.median(t for t, _ in traced) / untraced - 1.0
    results = [r for _, r in plain + traced]
    out["error_rate"] = sum(r.failed for r in results) / sum(r.attempted for r in results)
    return {k: {"value": out[k], "unit": u} for k, u in tr.PER_LAYER_UNITS.items()}


def run(args, workdir: Path, t_start: float) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, args.wrong_reference, workdir)
    workload.setup()
    setup_s = time.perf_counter() - t_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:  # the traced run does not report setup_s
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    budget = args.seconds / 2 if args.trace else args.seconds
    plain, _ = measure(workload, budget)
    traced = []
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        tracer.install()
        try:
            traced, marks = measure(workload, budget, tracer)
        finally:
            tracer.uninstall()

    faults = []
    results = [r for _, r in plain + traced]
    for r in results:
        faults.extend(r.notes)
    iterations = sorted({r.iterations for r in results})
    if len(iterations) > 1:
        faults.append(f"iteration count drift between passes: {iterations}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)

    env = environment()
    if args.trace:
        metrics = per_layer(tracer, marks, plain, traced, faults)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "env": env,
                      "pass_marks": marks})
    else:
        times = [t for t, _ in plain]
        ok_ops = attempted - failed
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": ok_ops / sum(times), "unit": "1/s"},
            "iterations": {"value": iterations[0], "unit": "count"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "ok_rate": {"value": ok_ops / attempted, "unit": "frac"},
        }
    for note in faults:
        print(f"bench: {args.workload}: {note}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: pass seconds untraced "
          f"{[round(t, 3) for t, _ in plain]}, traced {[round(t, 3) for t, _ in traced]}; "
          f"{failed}/{attempted} ops failed", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gnlab" / "__init__.py").is_file():
        print(f"bench: gnlab sources not found under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    os.environ["GNLAB_CACHE_DIR"] = str(workdir / "cache")  # fresh: no cache hits
    try:
        return run(args, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
