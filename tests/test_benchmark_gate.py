"""The benchmark's own correctness gates, run against the current package.

``perfbench/workloads.py`` checks the model entry points it times
(``log_det``, ``ones_quadratic_form``, ``finite_free_energy`` and
``inverse_diagonal(model, sites)``) against numpy, and checks the
limit workload's ``free_energy.json``; each workload's set-up writes
its configs, validates them through ``cli.build_config`` and warms them
through the CLI.  Running those gates and set-ups here catches a change
that would fail a benchmark run before the run does; the benchmark
itself is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from quadglass.streams import stream

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("params", ["BASE_PARAMS", "MOMENT_PARAMS"])
def test_model_gate_finds_no_problem(workloads, params):
    problems = workloads.model_gate(
        getattr(workloads, params), workloads.RADEMACHER, 300, stream(118, "gate", params)
    )
    assert problems == []


@pytest.mark.parametrize("name", ["simulate-sub4k", "cavity-super2k", "limit-gauss-stall"])
def test_workload_setup_runs_on_the_current_package(workloads, tmp_path, name):
    workloads.WORKLOADS[name](tmp_path, seed=0, workers=1).setup()


def test_limit_workload_converges_every_node_inside_its_band(workloads, tmp_path):
    # the workload's own config and pinned CLI seed, through the CLI
    workload = workloads.LimitGaussStall(tmp_path, seed=0, workers=1)
    workload.setup()
    (op,) = workload.job()
    assert op.problems == []
    assert op.ok == op.attempted == 3
    # the workload counts nodes only; the x = 1 solve converges too
    assert json.loads((tmp_path / "op0" / "free_energy.json").read_text())["converged"]
