"""Smoke check of the benchmark itself, at tiny grid sizes.

    python3 bench/smoke.py

For every workload in BENCHMARK.json:
  - an untraced and a traced run at --scale tiny emit exactly the metrics
    BENCHMARK.json names, each with its unit and a numeric value, and report
    every op correct;
  - runs gated against wrong reference values (--wrong-reference) report
    failed ops, which show in ok_rate and in error_rate.
Also checks that the benchmark refuses to run, without printing a result,
in a directory holding only BENCHMARK.json and bench/.  Exits 0 when every
check holds; each failed check is printed.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def bench(workload: str, trace: int, *extra: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_run(workload: str, trace: int, want: dict, problems: list) -> None:
    r = result(bench(workload, trace))
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    if got != want:
        problems.append(f"{workload} trace={trace}: metrics {sorted(got.items())} "
                        f"!= BENCHMARK.json {sorted(want.items())}")
    bad = [k for k, v in r["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    if bad:
        problems.append(f"{workload} trace={trace}: non-numeric values for {bad}")
    if not r["correct"] or r["failed"] or r["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: correct={r['correct']} "
                        f"failed={r['failed']}/{r['attempted']}")


def check_wrong_reference(workload: str, problems: list) -> None:
    plain = result(bench(workload, 0, "--wrong-reference"))
    if plain["correct"] or plain["failed"] == 0 or plain["metrics"]["ok_rate"]["value"] >= 1.0:
        problems.append(f"{workload}: wrong reference not caught: failed={plain['failed']}, "
                        f"ok_rate={plain['metrics']['ok_rate']['value']}")
    traced = result(bench(workload, 1, "--wrong-reference"))
    if traced["metrics"]["error_rate"]["value"] <= 0.0:
        problems.append(f"{workload}: wrong reference leaves error_rate at 0")


def check_bare_directory(problems: list) -> None:
    bare = ROOT / ".bench_tmp" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench")
        proc = bench("cstar", 0, root=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            check_run(w, trace, want[trace], problems)
        check_wrong_reference(w, problems)
        print(f"smoke: {w} checked", flush=True)
    check_bare_directory(problems)
    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
