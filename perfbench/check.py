#!/usr/bin/env python3
"""Self-checks of the benchmark itself, run from the root of a checkout.

    python3 perfbench/check.py counts [--seed N]
        Two traced runs per workload at one seed: the exact work counts
        must agree, and each run must pass its own checks (outputs and
        the idle-layer check).
    python3 perfbench/check.py spread --workload NAME [--seeds 1-10]
        Untraced runs over several seeds: median and quartile spread of
        each end-to-end metric against its bound in BENCHMARK.json.

Both first check that BENCHMARK.json agrees with the metric names,
units and workload reasons the benchmark prints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("model.coupling_matrix.calls", "model.clauses", "rde.step.calls",
                "rde.wasserstein.calls", "disorder.draws")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    listed = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != expected:
        sys.exit(f"{workload}: printed metrics {printed} differ from BENCHMARK.json {expected}")
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}[workload]
    if info["why"] != why:
        sys.exit(f"{workload}: printed why differs from BENCHMARK.json")
    return info, result


def counts(args) -> int:
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run(workload, args.seed, 1)[1] for _ in range(2)]
        for r in results:
            if not r["correct"]:
                print(f"{workload}: traced run reported correct=false")
                failures += 1
        for name in EXACT_COUNTS:
            a, b = (r["metrics"][name]["value"] for r in results)
            status = "ok" if a == b else "MISMATCH"
            failures += a != b
            print(f"{workload:18} {name:30} {a:>14.0f} {b:>14.0f} {status}")
    return 1 if failures else 0


def spread(args) -> int:
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        _, result = run(args.workload, seed, 0)
        if not result["correct"]:
            sys.exit(f"{args.workload} seed {seed}: correct=false")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    worst = 0
    for metric in SPEC["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        verdict = ("steady" if share < metric["bound"] / 3 else
                   "within bound" if share <= metric["bound"] else "TOO WIDE")
        if metric["name"] != "setup_s" and share > metric["bound"]:
            worst = 1
        print(f"{metric['name']:12} median {med:.5g} {metric['unit']:6} "
              f"IQR/median {share:.4f} bound {metric['bound']} {verdict}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="check", required=True)
    c = sub.add_parser("counts")
    c.add_argument("--seed", type=int, default=1)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    return counts(args) if args.check == "counts" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
