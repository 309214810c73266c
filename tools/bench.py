#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload, merged into a BENCH file.

    python3 tools/bench.py --parent DIR --workload W --pairs N --out BENCH_<pr>.json

Run from anywhere; the change is the checkout this script lives in, and
``--parent`` is a checkout of the parent commit.  For seeds 1..N the
script runs ``perfbench/run.py --workload W --seed s --trace 0`` once in
each checkout, with ``run_seconds`` from BENCHMARK.json; the side that
runs first alternates from pair to pair.  It then runs the workload once
with ``--trace 1`` in the change.  It reads each run's last stdout line
and merges one entry for W into ``--out``: every pair's end-to-end
metrics and ``correct``, per metric each side's median and IQR, the
number of pairs the change won in the direction
BENCHMARK.json calls better, whether the change's median is within the
metric's bound, whether a gain is resolved (which takes at least 10
pairs), and the traced line.
Other workloads' entries in ``--out`` are kept;
an ``--out`` that exists but holds no JSON object ends the tool before the first run.
The standard library is all it needs.
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
# end-to-end metric -> (the better direction, "lower" or "higher"; the relative bound)
METRICS = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
RUN_TIMEOUT_S = 600
# the fewest pairs that resolve a gain: a coin wins 3 pairs in 3 one time in 8
MIN_PAIRS = 10


def run(checkout: Path, workload: str, seed: int, trace: int, side: str) -> dict:
    """One perfbench run in ``checkout``: its :func:`reading`, or with ``trace``
    its whole last stdout line.

    A run that times out, prints nothing, ends on a line that is not
    JSON, or untraced ends on one that :func:`reading` cannot read, ends
    the tool with one line naming the workload, seed and side.
    """
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    where = f"{workload} seed {seed} on the {side} side ({checkout})"
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {where} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    last = repr(lines[-1][:200]) if lines else "nothing"
    err = proc.stderr.strip().splitlines()
    stderr = f"last stderr line: {repr(err[-1][:200]) if err else 'none'}"
    try:
        line = json.loads(lines[-1] if lines else "")
    except json.JSONDecodeError:
        sys.exit(f"bench: {where} exited {proc.returncode}; last stdout line, not JSON: "
                 f"{last}; {stderr}")
    if trace:
        return line
    try:
        return reading(line)
    except (KeyError, TypeError) as exc:
        sys.exit(f"bench: {where} exited {proc.returncode}; last stdout line, no perfbench "
                 f"result ({type(exc).__name__}: {exc}): {last}; {stderr}")


def reading(line: dict) -> dict:
    """One run's end-to-end metric values and its ``correct`` flag."""
    values = {name: line["metrics"][name]["value"] for name in METRICS}
    return {**values, "correct": line["correct"]}


def iqr(values: list[float]) -> float:
    """Inclusive interquartile range; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(pairs: list[dict]) -> dict:
    """Per metric: each side's median and IQR, and the pairs the change won.

    A pair is won when the change reads better than the parent in the
    metric's direction; ``within_bound`` holds when the change's median
    is worse than the parent's by at most ``bound`` times the parent's.
    ``resolved`` holds when there are at least :data:`MIN_PAIRS` pairs,
    the change won at least 9 in 10 of them and its median is better than
    the parent's by more than the parent's IQR: a gain the pairs can tell
    from the parent's spread.
    """
    out = {}
    for name, (better, bound) in METRICS.items():
        sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0 is a win
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        out[name] = {
            "parent_median": parent_median,
            "parent_iqr": iqr(parent),
            "change_median": change_median,
            "change_iqr": iqr(change),
            "change_won": won,
            "within_bound": sign * (change_median - parent_median) <= bound * abs(parent_median),
            "resolved": (len(pairs) >= MIN_PAIRS and 10 * won >= 9 * len(pairs)
                         and sign * (parent_median - change_median) > iqr(parent)),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    try:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
    except (OSError, ValueError) as exc:
        sys.exit(f"bench: --out {args.out} cannot be read as JSON "
                 f"({type(exc).__name__}: {exc})")
    if not isinstance(merged, dict):
        sys.exit(f"bench: --out {args.out} holds a JSON {type(merged).__name__}, not an object")

    pairs = []
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, 0, side)
        print(json.dumps(pair), file=sys.stderr, flush=True)
        pairs.append(pair)

    merged[args.workload] = {
        "pairs": pairs,
        "summary": summary(pairs),
        "traced": run(ROOT, args.workload, 1, 1, "change (traced)"),
    }
    args.out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
