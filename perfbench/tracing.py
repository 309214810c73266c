"""Span recorder and binding wrappers for the traced benchmark run.

The benchmark never edits the package.  For the length of one traced job
it replaces every attribute of every loaded ``quadglass`` module that
refers to a target function with a wrapper, so a caller sees the wrapper
whichever binding it looks up (``quadglass.cli.log_det`` as well as
``quadglass.model.log_det``; ``_sample_shape`` in ``disorder``,
``model``, ``rde`` and ``free_energy``).  Calls that a module makes to
its own functions go through its module globals, so they are caught too.

A span is (id, name, parent, start, end).  Parent stacks are
thread-local because ``parallel_map`` runs work on pool threads; each
pool item runs in a ``parallel.item`` span whose parent is the
``parallel_map`` span that scheduled it.  A span's self time is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import inspect
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int
    start: float
    end: float


class Tracer:
    """In-memory spans and counters, safe to record from several threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.pool_size: dict[int, int] = {}   # parallel_map span id -> threads used

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        stack = self._stack()
        if parent is None:
            parent = self.current()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, parent, start, end))

    def current(self) -> int:
        """Id of the innermost open span on this thread (0 at top level)."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[counter] += amount

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[s.name] += (s.end - s.start) - covered
        return totals

    def busy_ratio(self) -> float:
        """Pool-item time over (parallel_map wall x threads it used)."""
        capacity = sum(
            (s.end - s.start) * self.pool_size[s.id]
            for s in self.spans if s.id in self.pool_size
        )
        busy = sum(
            s.end - s.start
            for s in self.spans if s.name == "parallel.item" and s.parent in self.pool_size
        )
        return busy / capacity if capacity > 0 else 0.0


def _argument(signature, args, kwargs, name):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _span_wrapper(tracer, name, fn, observe=None):
    signature = inspect.signature(fn)

    @wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if observe is not None:
            observe(tracer, lambda arg: _argument(signature, args, kwargs, arg), result)
        return result

    return traced


def _parallel_map_wrapper(tracer, fn):
    signature = inspect.signature(fn)

    @wraps(fn)
    def traced(func, items, *args, **kwargs):
        items = list(items)
        workers = _argument(signature, (func, items) + args, kwargs, "workers")

        def scheduled():
            sid = tracer.current()
            tracer.pool_size[sid] = min(workers, len(items)) if workers > 1 and len(items) > 1 else 1
            return fn(lambda x: tracer.call("parallel.item", func, (x,), {}, parent=sid),
                      items, *args, **kwargs)

        tracer.add("parallel.items", len(items))
        return tracer.call("parallel.parallel_map", scheduled, (), {})

    return traced


def _factorization_wrapper(tracer, fn, flops_per_n3):
    """Counter-only hook: no span, so the caller keeps the factorization in its self time."""

    @wraps(fn)
    def counted(matrix, *args, **kwargs):
        tracer.add("model.factorizations")
        shape = getattr(matrix, "shape", ())
        if len(shape) == 2 and flops_per_n3:
            tracer.add("model.factor_flops_computed", flops_per_n3 * float(shape[0]) ** 3)
        return fn(matrix, *args, **kwargs)

    return counted


# ---------------------------------------------------------------------------
# per-target observers: counts measured where the work happens


def _sampled(tracer, arg, model):
    tracer.add("model.realizations")
    tracer.add("model.clauses", model.n_clauses)


def _split(tracer, arg, split):
    tracer.add("model.realizations")
    tracer.add("model.clauses", split.bulk.n_clauses + split.n_boundary)


def _assembled(tracer, arg, matrix):
    tracer.add("model.dense_bytes_computed", 8.0 * matrix.shape[0] * matrix.shape[1])


def _stepped(tracer, arg, pop):
    tracer.add("rde.step.values", arg("out_size"))


def _solved(tracer, arg, report):
    tracer.add("rde.solves")
    tracer.add("rde.solves_converged", bool(report.converged))
    tracer.add("rde.solves_at_cap", (not report.converged) and report.generations >= arg("max_gens"))


def _drawn(tracer, arg, out):
    tracer.add("disorder.draws", math.prod(arg("shape")))


# span name -> (defining module, attribute, observer)
SPAN_TARGETS = {
    "cli.run": ("quadglass.cli", "run", None),
    "model.sample_model": ("quadglass.model", "sample_model", _sampled),
    "model.coupling_matrix": ("quadglass.model", "coupling_matrix", _assembled),
    "model.log_det": ("quadglass.model", "log_det", None),
    "model.ones_quadratic_form": ("quadglass.model", "ones_quadratic_form", None),
    "model.inverse_diagonal": ("quadglass.model", "inverse_diagonal", None),
    "model.cavity_split": ("quadglass.model", "cavity_split", _split),
    "model.woodbury_residual": ("quadglass.model", "woodbury_residual", None),
    "rde.step": ("quadglass.rde", "step", _stepped),
    "rde.wasserstein": ("quadglass.rde", "wasserstein", None),
    "rde.solve_fixed_point": ("quadglass.rde", "solve_fixed_point", _solved),
    "disorder.sample": ("quadglass.disorder", "_sample_shape", _drawn),
    "free_energy.edge_term": ("quadglass.free_energy", "edge_term", None),
    "free_energy.limiting_free_energy": ("quadglass.free_energy", "limiting_free_energy", None),
    "stats.pooled_inverse_diagonals": ("quadglass.stats", "pooled_inverse_diagonals", None),
}

# factorization routines a quadglass module may hold a binding to -> dense flops / n^3;
# splu is the sparse backend the roadmap proposes, counted without flops
FACTORIZATIONS = {"cho_factor": 1 / 3, "cholesky": 1 / 3, "splu": 0}


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "quadglass" or name.startswith("quadglass."))
    ]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every binding of every target; returns the undo list for :func:`uninstall`."""
    wrappers = {}
    for name, (module, attr, observe) in SPAN_TARGETS.items():
        fn = getattr(sys.modules[module], attr, None)
        if fn is not None:
            wrappers[id(fn)] = (fn, _span_wrapper(tracer, name, fn, observe))
    parallel_map = getattr(sys.modules["quadglass.parallel"], "parallel_map")
    wrappers[id(parallel_map)] = (parallel_map, _parallel_map_wrapper(tracer, parallel_map))

    patched = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
            elif attr in FACTORIZATIONS and callable(value):
                setattr(mod, attr, _factorization_wrapper(tracer, value, FACTORIZATIONS[attr]))
                patched.append((mod, attr, value))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for mod, attr, value in reversed(patched):
        setattr(mod, attr, value)
