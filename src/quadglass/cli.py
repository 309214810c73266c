"""Command-line entry point: seeded experiments with manifest-stamped outputs.

Configs are flat ``key=value`` text files with dotted section prefixes
(``model.alpha=0.5``); ``#`` starts a comment.  Unknown keys and keys
the kind does not read (``KIND_KEYS``) are rejected, and every numeric
field is validated before any work starts.  The config digest is the
SHA-256 of the canonical key-sorted resolution of the kind's keys
(execution knobs — worker count, output directory — are excluded, so
reruns at any parallelism produce byte-identical outputs and manifests
that differ only in wall time).

Exit codes: 0 success, 2 config problem, 3 validation-suite failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .acceptance import CRITERIA, run_criteria
from .disorder import FAMILIES, DisorderSpec
from .free_energy import DEFAULT_N_MC, DEFAULT_NODES, convergence_study, limiting_free_energy
from .model import (Factorization, ModelParams, NumericalError, dump_model, format_float,
                    load_model, sample_model, write_rows)
from .parallel import default_workers, parallel_map
from .rde import DEFAULT_MAX_GENS, DEFAULT_POP_SIZE, dump_population, solve_fixed_point
from .streams import stream

_MODEL = ("model.alpha", "model.beta", "model.h", "model.p",
          "disorder.family", "disorder.param", "disorder.truncation")
_RDE = ("rde.pop_size", "rde.max_gens")
_LIMIT = _RDE + ("quadrature.kind", "quadrature.nodes", "free_energy.n_mc")
# kind -> every key it reads; a config setting any other key is rejected,
# and the digest covers only these
KIND_KEYS = {
    "simulate": ("experiment.seed", *_MODEL, "simulate.n_sites", "simulate.replicates"),
    "rde": ("experiment.seed", *_MODEL, *_RDE),
    "free-energy": ("experiment.seed", *_MODEL, *_LIMIT),
    "convergence": ("experiment.seed", *_MODEL, *_LIMIT, "convergence.n_grid",
                    "convergence.seeds_per_n"),
    "validate": ("experiment.seed", "validate.criteria"),
    "dump": ("experiment.seed", *_MODEL, "dump.n_sites"),
    "load": ("experiment.seed", "load.path"),
}
KINDS = tuple(KIND_KEYS)


class ConfigError(ValueError):
    """Invalid or unreadable configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# schema


def _float(raw):
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError("not a number") from exc


def _int(raw):
    """An integer that fits in 64 bits, signed or unsigned."""
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError("not an integer") from exc
    if not -(2**63) <= value < 2**64:
        raise ConfigError("integer does not fit in 64 bits")
    return value


def _int_list(raw):
    return [_int(part) for part in raw.split(",") if part.strip()]


def _criteria_ids(value):
    """The criterion ids ``validate.criteria`` names, in run order; ``all`` is every one."""
    ids = list(CRITERIA) if value == "all" else [c.strip() for c in value.split(",") if c.strip()]
    unknown = [c for c in ids if c not in CRITERIA]
    repeated = sorted({c for c in ids if ids.count(c) > 1}, key=ids.index)
    if not ids:
        raise ConfigError("names no criterion")
    if unknown:
        raise ConfigError(f"unknown {', '.join(unknown)}")
    if repeated:
        raise ConfigError(f"lists {', '.join(repeated)} more than once")
    return ids


# key -> (parser, default or None if required by its kinds, precondition, description);
# a precondition returns False or raises ConfigError to reject the value
KEY_SPECS = {
    "experiment.kind": (str, None, lambda v: v in KINDS, f"one of {KINDS}"),
    "experiment.seed": (_int, 0, lambda v: 0 <= v < 2**64, "unsigned 64-bit"),
    "model.alpha": (_float, None, lambda v: 0 < v < math.inf, "finite and positive"),
    "model.beta": (_float, None, lambda v: 0 <= 2 * v < math.inf, "nonnegative with 2*beta finite"),
    "model.h": (_float, None, lambda v: math.isfinite(v * v), "finite with h*h finite"),
    "model.p": (_int, None, lambda v: v >= 1, "at least 1"),
    "disorder.family": (str, None, lambda v: v in FAMILIES, f"one of {FAMILIES}"),
    "disorder.param": (_float, 1.0, lambda v: 0 < v < math.inf, "finite and positive"),
    "disorder.truncation": (_float, math.inf, lambda v: v > 0, "positive or inf"),
    "simulate.n_sites": (_int, None, lambda v: v >= 1, "at least 1"),
    "simulate.replicates": (_int, None, lambda v: v >= 1, "at least 1"),
    "rde.pop_size": (_int, DEFAULT_POP_SIZE, lambda v: v >= 2,
                     "at least 2, for the population's SE"),
    "rde.max_gens": (_int, DEFAULT_MAX_GENS, lambda v: v >= 1, "at least 1"),
    "quadrature.kind": (str, "gauss", lambda v: v == "gauss", "gauss"),
    "quadrature.nodes": (_int, DEFAULT_NODES, lambda v: v >= 1, "at least 1"),
    "free_energy.n_mc": (_int, DEFAULT_N_MC, lambda v: v >= 1, "at least 1"),
    "convergence.n_grid": (_int_list, [250, 500, 1000], lambda v: len(set(v)) == len(v) >= 1
                           and min(v) >= 1, "comma list of distinct sizes"),
    "convergence.seeds_per_n": (_int, 10, lambda v: v >= 2, "at least 2"),
    "validate.criteria": (str, "all", _criteria_ids, "all or comma list like A1,A8"),
    "dump.n_sites": (_int, None, lambda v: v >= 1, "at least 1"),
    "load.path": (str, None, lambda v: bool(v), "nonempty path"),
}

# numpy's Generator.poisson rejects means above int64 max - 10*sqrt(int64 max)
POISSON_MEAN_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)
# SuperLU's workspace per site of one factored realization: its queries grew
# peak RSS by 445 B/site with no clauses (N = 2.5e5 and 1e6), 485 B/site with
# the clause arrays at alpha 0.5, p 2 (N = 1e6)
SITE_BYTES = 512
# The assembly's peak per entry of A (tracemalloc): 27-28 B at p = 40 and 100, up to
# 41 B at p = 2, where V and the identity add their share (N = 200-20000)
ENTRY_BYTES = 48

# Held per fanned-out item until the map returns (tracemalloc): 1.8 KB per future and
# result row on a 2-worker pool, which submits every future at once (230 B serially),
# and 0.9 KB more per child generator that over_realizations spawns
ITEM_BYTES = 2048
STREAM_BYTES = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment: kind, resolved options, execution knobs."""

    kind: str
    options: dict
    out_dir: Path
    workers: int

    @property
    def seed(self) -> int:
        return self.options["experiment.seed"]

    def digest(self) -> str:
        lines = []
        for key in sorted(self.options):
            value = self.options[key]
            if isinstance(value, float):
                text = format_float(value)
            elif isinstance(value, list):
                text = ",".join(str(v) for v in value)
            else:
                text = str(value)
            lines.append(f"{key}={text}")
        payload = "\n".join([f"experiment.kind={self.kind}"] + lines)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def parse_config_text(text: str) -> dict:
    """Flat key=value lines into a raw string map; line-numbered errors."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_config(
    kind: str,
    raw: dict,
    out_dir=None,
    seed=None,
    workers=None,
) -> ExperimentConfig:
    """Validate raw strings against the schema and kind requirements."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    unknown = sorted(set(raw) - set(KEY_SPECS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "experiment.kind" in raw and raw["experiment.kind"] != kind:
        raise ConfigError(
            f"config says experiment.kind={raw['experiment.kind']!r} "
            f"but the {kind!r} subcommand was invoked"
        )
    unread = sorted(set(raw) - set(KIND_KEYS[kind]) - {"experiment.kind"})
    if unread:
        raise ConfigError(f"the {kind!r} kind does not read {', '.join(unread)}")

    options = {}
    for key in KIND_KEYS[kind]:
        parser, default, check, description = KEY_SPECS[key]
        if key in raw:
            try:
                value = parser(raw[key])
                if not check(value):
                    raise ConfigError(f"must be {description}")
            except ConfigError as exc:
                raise ConfigError(f"{key}={raw[key]!r}: {exc}") from exc
            options[key] = value
        elif default is not None:
            options[key] = default
    if seed is not None:
        if not 0 <= int(seed) < 2**64:
            raise ConfigError("--seed: must be an unsigned 64-bit integer")
        options["experiment.seed"] = int(seed)
    workers = int(workers) if workers is not None else default_workers()
    if workers < 1:
        raise ConfigError(f"--workers: must be at least 1, got {workers}")
    missing = [k for k in KIND_KEYS[kind] if k not in options]
    if missing:
        raise ConfigError(f"{kind}: missing required keys: {', '.join(missing)}")

    # cross-field preconditions, before any work starts
    if "model.p" in options:
        try:
            _model_pieces(options)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        key, sizes = _realization_sizes(options)
        if sizes and min(sizes) < options["model.p"]:
            raise ConfigError(
                f"{key}: realization sizes must be at least model.p={options['model.p']}"
            )
        _check_allocations(_allocations(kind, options, raw, workers))

    return ExperimentConfig(
        kind, options, Path(out_dir) if out_dir is not None else Path("out"), workers
    )


def _realization_sizes(options):
    """The key that sets the sizes N a kind samples realizations at, and those sizes.

    Kinds that sample no realization give ``(None, [])``.
    """
    for key in ("simulate.n_sites", "dump.n_sites", "convergence.n_grid"):
        if key in options:
            sizes = options[key]
            return key, sizes if isinstance(sizes, list) else [sizes]
    return None, []


def _physical_memory():
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: no guard
        return math.inf


def _factored(setting, n_sites, n_clauses, p, held):
    """The row of ``held`` realizations factored at once: SITE_BYTES per site, 16*p per clause."""
    return (setting, f"{held} factored realization(s)", n_clauses,
            held * (SITE_BYTES * n_sites + 16.0 * p * n_clauses))


def _entries(setting, n_sites, n_clauses, p, held):
    """The row of ``held`` matrices A: ENTRY_BYTES per entry, N + p*(p-1) per clause or N^2."""
    entries = min(float(n_sites) ** 2, n_sites + p * (p - 1) * n_clauses)
    return (setting, f"the matrix entries of {held} realization(s)", n_clauses,
            held * ENTRY_BYTES * entries)


def _allocations(kind, options, raw, workers):
    """Rows (setting, what, clause-count mean, bytes) of each large allocation of a kind.

    A clause holds 16*p bytes in a realization: p sites and p weights
    (``parallel_map`` factors one per worker, ``dump`` none).  A
    fixed-point solve pushes two chains through one generation's draws
    at a time.  Its row counts (12*p + 16) bytes per clause: the draws
    with int32 resample indices, one fixed gather chunk and the bottom
    chain's per-clause sums; and 44 bytes per output: the two chains,
    and one new chain with its bincount (tracemalloc, whole solves at
    pop 10^5: 10.5 MB at p = 2 and 17.7 MB at p = 3 at alpha = 1, 69.5
    MB at p = 10 at alpha = 0.5, against 12.4, 20.0 and 72.4 MB counted;
    40.4 B per output at vanishing rate).  An edge term peaks at 21.0
    bytes per draw at any p, counted as 24: the sums, one column of
    z_r^2 X_r at a time and its int32 resample indices (tracemalloc,
    n_mc 2*10^5, p = 1 to 10), and holds the node's population.  A limit
    runs min(workers, quadrature.nodes) solves at once, each followed by
    its edge term, so both rows count that many; the ``rde`` kind runs
    one.  The quadrature rule peaks at
    about 17 bytes per n^2: its n x n companion matrix, the copy LAPACK's
    eigenvalue routine works in, and that routine's workspace, which
    tracemalloc does not see (``ru_maxrss`` growth, once BLAS is warm:
    16.1 n^2 at n = 1000, 16.7 n^2 at 2000 and 16.6 n^2 at 4000).
    """
    alpha, p = options["model.alpha"], options["model.p"]
    at_alpha = f" at model.alpha={raw['model.alpha']}"
    rows = []
    key, sizes = _realization_sizes(options)
    n = max(sizes, default=0)
    if kind == "dump":
        rows.append((f"{key}={n}{at_alpha}", "one realization's clause arrays", alpha * n,
                     16.0 * p * alpha * n))
    for copies_key, item_bytes in (("simulate.replicates", ITEM_BYTES),
                                   ("convergence.seeds_per_n", ITEM_BYTES + STREAM_BYTES)):
        if copies_key in options:
            copies = options[copies_key]
            for row in (_factored, _entries):
                rows.append(row(f"{key}={n}{at_alpha}", n, alpha * n, p, min(workers, copies)))
            rows.append((f"{copies_key}={copies}", "the replicate fan-out's pending items", 0,
                         item_bytes * copies))
    if "rde.pop_size" in options:
        pop = options["rde.pop_size"]
        rate = alpha * p
        solves = min(workers, options.get("quadrature.nodes", 1))
        rows.append((f"rde.pop_size={pop}{at_alpha}", "an RDE generation's draws and push "
                     f"in each of {solves} solve(s) at once", rate * pop,
                     solves * ((12.0 * p + 16.0) * rate + 44.0) * pop))
    if "free_energy.n_mc" in options:
        n_mc, nodes = options["free_energy.n_mc"], options["quadrature.nodes"]
        rows.append((f"free_energy.n_mc={n_mc}", f"{solves} edge term(s)' draws", 0,
                     solves * (24.0 * n_mc + 8.0 * pop)))
        rows.append((f"quadrature.nodes={nodes}", "the Gauss-Radau rule's companion matrix "
                     "and its eigenvalue workspace", 0, 17.0 * nodes * nodes))
    return rows


def _check_allocations(rows):
    """Reject the first row whose clause count numpy cannot draw or whose bytes cannot fit."""
    available = _physical_memory()
    for setting, what, mean, need in rows:
        if mean > POISSON_MEAN_MAX:
            raise ConfigError(
                f"{setting}: clause counts would be drawn with Poisson mean {mean:.6g}, "
                f"above numpy's limit {POISSON_MEAN_MAX:.6g}"
            )
        if need > available:
            raise ConfigError(
                f"{setting}: {what} need about {need / 2**30:.3g} GiB, "
                f"more than the {available / 2**30:.3g} GiB of physical memory"
            )


def _model_pieces(options):
    params = ModelParams(
        options["model.alpha"], options["model.beta"],
        options["model.h"], options["model.p"],
    )
    spec = DisorderSpec(
        options["disorder.family"], options["disorder.param"],
        options["disorder.truncation"],
    )
    return params, spec


# ---------------------------------------------------------------------------
# output helpers


def _warn_unconverged(kind, detail, solves, where) -> None:
    """One stderr line: what did not converge, the final bracket of each
    unconverged solve of the (label, solve) pairs ``solves``, and where
    the outputs flag it."""
    listed = ", ".join(f"{label}bracket {solve.bracket:.3g}"
                       for label, solve in solves if not solve.converged)
    print(f"warning: {kind} did not converge ({detail}); {listed}; {where}", file=sys.stderr)


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_manifest(out_dir: Path, digest: str, wall_time: float, files) -> None:
    outputs = []
    for name in sorted(files):
        data = (out_dir / name).read_bytes()
        outputs.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
    _write_json(
        out_dir / "manifest.json",
        {
            "config_digest": digest,
            "tool_version": __version__,
            "wall_time_s": wall_time,
            "outputs": outputs,
        },
    )


# ---------------------------------------------------------------------------
# experiments


def _observables(fac: Factorization):
    """The log_det, ones_quadratic_form, free_energy columns of one realization."""
    return (fac.log_det, fac.ones_quadratic_form, fac.free_energy)


def _run_simulate(config: ExperimentConfig):
    params, spec = _model_pieces(config.options)
    n_sites = config.options["simulate.n_sites"]
    replicates = config.options["simulate.replicates"]
    seed = config.seed

    def one(i):
        model = sample_model(params, spec, n_sites, stream(seed, "simulate", i))
        return (i, model.n_clauses) + _observables(Factorization(model))

    rows = parallel_map(one, range(replicates), config.workers)
    write_rows(config.out_dir / "simulate.csv", [
        ("replicate", "n_clauses", "log_det", "ones_quadratic_form", "free_energy"), *rows,
    ], sep=",")
    return ["simulate.csv"]


def _run_rde(config: ExperimentConfig):
    params, spec = _model_pieces(config.options)
    opts = config.options
    report = solve_fixed_point(
        params, spec, stream(config.seed, "rde"),
        pop_size=opts["rde.pop_size"], max_gens=opts["rde.max_gens"],
    )
    write_rows(config.out_dir / "rde_trajectory.csv", [
        ("generation", "bracket"), *enumerate(report.brackets, start=1),
    ], sep=",")
    dump_population(report.population, config.out_dir / "population.txt")
    _write_json(
        config.out_dir / "rde_summary.json",
        {
            "bracket": report.bracket,
            "converged": report.converged,
            "generations": report.generations,
            "population_mean": report.population.mean(),
            "config_digest": config.digest(),
        },
    )
    if not report.converged:
        _warn_unconverged("rde", f"{report.generations} generations", [("", report)],
                          "rde_summary.json has converged=false")
    return ["rde_trajectory.csv", "population.txt", "rde_summary.json"]


def _run_free_energy(config: ExperimentConfig):
    params, spec = _model_pieces(config.options)
    opts = config.options
    result = limiting_free_energy(
        params, spec, opts["quadrature.nodes"], stream(config.seed, "free-energy"),
        pop_size=opts["rde.pop_size"], n_mc=opts["free_energy.n_mc"],
        max_gens=opts["rde.max_gens"], workers=config.workers,
    )
    _write_json(
        config.out_dir / "free_energy.json",
        {
            "value": result.estimate.value,
            "std_error": result.estimate.std_error,
            "nodes": [
                {
                    "x": node.x,
                    "rate": node.rate,
                    "edge_term": node.term,
                    "se": node.std_error,
                    "bracket": node.bracket,
                    "converged": node.converged,
                }
                for node in result.nodes
            ],
            "h_term": result.h_term,
            "converged": result.converged,
            "config_digest": config.digest(),
        },
    )
    if not result.converged:
        _warn_unconverged("free-energy", "unconverged quadrature nodes: "
                          f"{result.unconverged} of {len(result.nodes)}",
                          ((f"x={n.x:.4g}: ", n) for n in result.nodes),
                          "free_energy.json has converged=false")
    return ["free_energy.json"]


def _run_convergence(config: ExperimentConfig):
    params, spec = _model_pieces(config.options)
    opts = config.options
    study = convergence_study(
        params, spec, opts["convergence.n_grid"], opts["convergence.seeds_per_n"],
        opts["quadrature.nodes"], stream(config.seed, "convergence"),
        pop_size=opts["rde.pop_size"], n_mc=opts["free_energy.n_mc"],
        max_gens=opts["rde.max_gens"], workers=config.workers,
    )
    limit = study.limit
    converged = "true" if limit.converged else "false"
    write_rows(config.out_dir / "convergence.csv", [
        ("N", "mean_F", "std_F", "limit", "gap", "limit_converged"),
        *((row.n_sites, row.mean_f, row.std_f, limit.estimate.value, row.gap, converged)
          for row in study.rows),
    ], sep=",")
    if not limit.converged:
        _warn_unconverged("convergence", "its limiting free energy is unconverged",
                          ((f"x={n.x:.4g}: ", n) for n in limit.nodes),
                          "convergence.csv has limit_converged=false")
    return ["convergence.csv"]


def _run_validate(config: ExperimentConfig):
    results = run_criteria(
        _criteria_ids(config.options["validate.criteria"]), seed=config.seed,
        workers=config.workers,
    )
    rows = [
        (r.cid, r.description, r.measured, r.threshold,
         "pass" if r.passed else "FAIL", r.detail)
        for r in results
    ]
    write_rows(config.out_dir / "validate.csv", [
        ("criterion", "description", "measured", "threshold", "status", "detail"), *rows,
    ], sep=",")
    _write_json(
        config.out_dir / "validate.json",
        {
            "config_digest": config.digest(),
            "criteria": [
                {
                    "criterion": r.cid,
                    "description": r.description,
                    "measured": r.measured if math.isfinite(r.measured) else None,
                    "threshold": r.threshold if math.isfinite(r.threshold) else None,
                    "passed": bool(r.passed),  # criteria may compare numpy scalars
                    "detail": r.detail,
                }
                for r in results
            ],
        },
    )
    width = max(len(r.description) for r in results) + 2
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.cid:<4} {r.description:<{width}} "
              f"measured={r.measured:.6g} threshold={r.threshold:.6g} {status}")
    failed = [r.cid for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
    return ["validate.csv", "validate.json"], (3 if failed else 0)


def _run_dump(config: ExperimentConfig):
    params, spec = _model_pieces(config.options)
    model = sample_model(
        params, spec, config.options["dump.n_sites"], stream(config.seed, "dump")
    )
    dump_model(model, config.out_dir / "model.txt")
    return ["model.txt"]


def _run_load(config: ExperimentConfig):
    path = config.options["load.path"]
    try:
        model = load_model(path)
    except (OSError, ValueError, OverflowError) as exc:
        raise ConfigError(f"load.path={path!r}: {exc}") from exc
    _check_allocations([row(f"load.path={path!r}", model.n_sites, model.n_clauses,
                            model.params.p, 1) for row in (_factored, _entries)])
    write_rows(config.out_dir / "loaded.csv", [
        ("n_sites", "n_clauses", "log_det", "ones_quadratic_form", "free_energy"),
        (model.n_sites, model.n_clauses) + _observables(Factorization(model)),
    ], sep=",")
    return ["loaded.csv"]


_RUNNERS = {
    "simulate": _run_simulate,
    "rde": _run_rde,
    "free-energy": _run_free_energy,
    "convergence": _run_convergence,
    "validate": _run_validate,
    "dump": _run_dump,
    "load": _run_load,
}


def run(config: ExperimentConfig) -> int:
    """Execute one validated experiment; returns the process exit code."""
    started = time.perf_counter()
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out {config.out_dir}: {exc}", file=sys.stderr)
        return 2
    try:
        produced = _RUNNERS[config.kind](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure in {config.kind}: {exc}", file=sys.stderr)
        return 4
    status = 0
    if isinstance(produced, tuple):
        produced, status = produced
    _write_manifest(
        config.out_dir, config.digest(), time.perf_counter() - started, produced
    )
    return status


def run_command(kind, config_path=None, out_dir=None, seed=None, workers=None) -> int:
    """Programmatic equivalent of one CLI invocation."""
    try:
        if config_path is not None:
            path = Path(config_path)
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            raw = parse_config_text(text)
        else:
            raw = {}
        config = build_config(kind, raw, out_dir=out_dir, seed=seed, workers=workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadglass",
        description="Sparse rank-one ensemble experiments with seeded reproducibility.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument(
            "--config", type=Path, required=any(KEY_SPECS[k][1] is None for k in KIND_KEYS[kind]),
            help="flat key=value config file",
        )
        p.add_argument("--seed", type=int, help="override experiment.seed")
        p.add_argument("--out", type=Path, help="output directory (default ./out)")
        p.add_argument(
            "--workers", type=int,
            help="cap on the realizations or quadrature nodes run at once (default: cores)",
        )
    args = parser.parse_args(argv)
    return run_command(
        args.kind, args.config, out_dir=args.out, seed=args.seed, workers=args.workers
    )


if __name__ == "__main__":
    sys.exit(main())
