"""The demos run end to end against the public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_finite_size_demo_log_det_matches_numpy():
    done = run_demo("01_finite_size_ensemble.py")
    assert done.returncode == 0, done.stderr
    match = re.search(r"relative disagreement\s+(\S+)", done.stdout)
    assert match is not None, done.stdout
    assert float(match.group(1)) < 1e-12


def test_limit_demo_reproduces_the_base_limit():
    # 0.5494 is the 16-node limit of this model at population 10^5
    done = run_demo("03_limiting_free_energy.py")
    assert done.returncode == 0, done.stderr
    match = re.search(r"limiting free energy:\s+(\S+)", done.stdout)
    assert match is not None, done.stdout
    assert abs(float(match.group(1)) - 0.5494) < 0.002


def test_fixed_point_demo_reports_the_tol_it_passed():
    done = run_demo("02_variance_fixed_point.py")
    assert done.returncode == 0, done.stderr
    match = re.search(r"ran (\d+) generations \(converged flag: \w+, tol (\S+)\)", done.stdout)
    assert match is not None, done.stdout
    assert int(match.group(1)) <= 150
    assert float(match.group(2)) == 1e-3


def test_cavity_demo_index_constructions_agree():
    # two constructions of the same law, 10^6 samples each
    done = run_demo("04_cavity_identities.py")
    assert done.returncode == 0, done.stderr
    match = re.search(r"total-variation distance\s+(\S+)", done.stdout)
    assert match is not None, done.stdout
    assert float(match.group(1)) < 0.005


def test_pair_demo_x_marginal_meets_the_fixed_point():
    # A12's bound on the X-marginal W1; this demo reads 0.0007
    done = run_demo("05_pair_probe_and_truncation.py")
    assert done.returncode == 0, done.stderr
    match = re.search(r"one-dimensional fixed point:\s+(\S+)", done.stdout)
    assert match is not None, done.stdout
    assert float(match.group(1)) < 0.01
