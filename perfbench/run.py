#!/usr/bin/env python3
"""Layered benchmark for quadglass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
One process runs one workload (see ``workloads.py``) with ``--workers``
equal to the usable cores and BLAS pinned to one thread, so every
compute thread comes from the ``parallel`` layer.

``--trace 0`` repeats the workload's fixed job while another one still
fits in ``--seconds`` and prints the end-to-end metrics: set-up time
(median over separate set-up processes), median job wall and CPU time,
median op latency, peak RSS and the share of ops that completed
cleanly.  ``--trace 1`` runs the job once untraced and once with span
wrappers installed (``tracing.py``) and prints the per-layer metrics.
Every run then checks outputs against numpy or a reference band.  The
last stdout line is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 when correct, 1 when a check failed, 2 when the
package sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

STARTED = time.perf_counter()
BLAS_THREADS = 1
# before numpy loads: BLAS threads would compete with the parallel layer's workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
READY = "perfbench-ready"


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    ops: list


def run_job(workload) -> Job:
    wall, cpu = time.perf_counter(), time.process_time()
    ops = workload.job()
    return Job(time.perf_counter() - wall, time.process_time() - cpu, ops)


def probe_setup(args) -> float:
    """Wall time from spawning a fresh process to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            if line.strip() == READY:
                elapsed = time.perf_counter() - start
                break
        else:
            raise RuntimeError(f"set-up probe exited with code {proc.wait()} before it was ready")
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed


def environment(args, workers):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": workers, "workers": workers, "seed": args.seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS,
    }


def layer_metrics(tracer, traced: Job, base: Job, names) -> dict:
    selfs, counts = tracer.self_seconds(), tracer.counters
    realizations, solves = counts["model.realizations"], counts["rde.solves"]
    values = {
        "model.factorizations_per_realization":
            counts["model.factorizations"] / realizations if realizations else 0.0,
        "rde.converged_ratio": counts["rde.solves_converged"] / solves if solves else 0.0,
        "parallel.busy_ratio": tracer.busy_ratio(),
        "cli.output_bytes": sum(op.output_bytes for op in traced.ops),
        "trace.overhead_ratio": traced.wall_s / base.wall_s,
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = tracer.calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            values[name] = selfs.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    return {name: values[name] for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "quadglass" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'quadglass'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quadglass
    import tracing
    from workloads import LAYER_MAP, WORKLOADS

    if Path(quadglass.__file__).resolve().parent != SRC / "quadglass":
        print(f"perfbench: quadglass imported from {quadglass.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")

    workers = len(os.sched_getaffinity(0))
    seed = args.seed % 2**64
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](workdir, seed, workers)
        workload.setup()
        if args.setup_probe:
            print(READY, flush=True)
            return 0
        own_setup_s = time.perf_counter() - STARTED

        problems = []
        if args.trace:
            base = run_job(workload)
            tracer = tracing.Tracer()
            patched = tracing.install(tracer)
            try:
                traced = run_job(workload)
            finally:
                tracing.uninstall(patched)
            jobs = [base, traced]
            metrics = layer_metrics(tracer, traced, base, LAYER_MAP)
            busy = [k for k, v in metrics.items()
                    if k.startswith(workload.idle_layer + ".") and v != 0]
            if busy:
                problems.append(f"{workload.idle_layer} layer should be idle: {busy}")
            units = {name: LAYER_MAP[name][0] for name in metrics}
        else:
            setup_s = statistics.median(probe_setup(args) for _ in range(SETUP_PROBES))
            jobs, start = [], time.perf_counter()
            while True:
                jobs.append(run_job(workload))
                typical = statistics.median(j.wall_s for j in jobs)
                if time.perf_counter() - start + typical > args.seconds:
                    break
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ops = [op for job in jobs for op in job.ops]
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(j.wall_s for j in jobs),
                "cpu_s": statistics.median(j.cpu_s for j in jobs),
                "op_p50_s": statistics.median(op.latency_s for op in ops),
                "peak_rss_mb": peak_rss_mb,
                "ok_ratio": sum(op.ok for op in ops) / sum(op.attempted for op in ops),
            }
            units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_s": "s",
                     "peak_rss_mb": "MB", "ok_ratio": "ratio"}

        ops = [op for job in jobs for op in job.ops]
        problems += [p for op in ops for p in op.problems]
        problems += workload.gate()
        for problem in problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)

        print(json.dumps({
            "workload": workload.name, "why": workload.why, "note": workload.note,
            "environment": environment(args, workers),
            "jobs": len(jobs), "ops": len(ops), "own_setup_s": own_setup_s,
            "layer_map": {k: {"moves": list(v[1]), "on": list(v[2])}
                          for k, v in LAYER_MAP.items()} if args.trace else None,
        }))
        print(json.dumps({
            "correct": not problems,
            "attempted": sum(op.attempted for op in ops),
            "failed": sum(op.attempted for op in ops if op.problems),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()   # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
