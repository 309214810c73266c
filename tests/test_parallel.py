"""The contract of ``parallel_map``: order, a hard cap on items in flight, one reused pool."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from quadglass import cli, parallel
from quadglass.parallel import parallel_map


class InFlight:
    """Counts the items running at once; ``most`` is the peak."""

    def __init__(self):
        self.lock = threading.Lock()
        self.now = self.most = 0

    def __call__(self, item):
        with self.lock:
            self.now += 1
            self.most = max(self.most, self.now)
        time.sleep(0.005)
        with self.lock:
            self.now -= 1
        return item


def test_items_in_flight_never_exceed_min_workers_items_in_a_grown_pool():
    parallel_map(abs, range(4), 4)                  # the pool now holds 4 threads or more
    for workers, n_items, cap in ((2, 12, 2), (3, 2, 2), (4, 9, 4)):
        count = InFlight()
        assert parallel_map(count, range(n_items), workers) == list(range(n_items))
        assert count.most <= cap, (workers, n_items)


def test_results_come_back_in_item_order():
    # later items finish first
    def slow_early(i):
        time.sleep(0.002 * (8 - i))
        return i * i

    assert parallel_map(slow_early, range(8), 3) == [i * i for i in range(8)]


def test_the_first_failure_in_order_is_raised_once_items_in_flight_finish():
    started, finished = set(), set()

    def item(i):
        started.add(i)
        if i == 0:
            time.sleep(0.05)
            finished.add(i)
            raise ValueError("item 0")
        if i == 1:
            raise ValueError("item 1")
        time.sleep(0.01)
        finished.add(i)
        return i

    with pytest.raises(ValueError, match="item 0"):   # the one a serial map raises
        parallel_map(item, range(6), 2)
    assert finished == started - {1}
    assert parallel_map(lambda i: -i, range(5), 2) == [0, -1, -2, -3, -4]


def test_a_call_inside_an_item_runs_inline():
    def outer(i):
        here = threading.get_ident()
        inner = parallel_map(lambda j: (i * 10 + j, threading.get_ident()), range(3), 2)
        assert {ident for _, ident in inner} == {here}
        return [value for value, _ in inner]

    out = []
    runner = threading.Thread(target=lambda: out.append(parallel_map(outer, range(4), 2)),
                              daemon=True)
    runner.start()
    runner.join(10)
    assert not runner.is_alive(), "nested parallel_map deadlocked"
    assert out == [[[i * 10 + j for j in range(3)] for i in range(4)]]


def test_every_item_runs_once_under_fast_thread_switching():
    # more runners than cores, switching every microsecond: a lost update
    # in the claims would run an item twice or not at all
    runs = []

    def item(i):
        runs.append(i)
        return -i

    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stress = threading.Thread(
            target=lambda: out.extend(parallel_map(item, range(2000), 8)), daemon=True)
        stress.start()
        stress.join(20)
    finally:
        sys.setswitchinterval(interval)
    assert not stress.is_alive(), "parallel_map did not finish"
    assert out == [-i for i in range(2000)]
    assert sorted(runs) == list(range(2000))


def test_the_pool_starts_no_thread_after_its_first_call():
    parallel_map(abs, range(4), 4)
    threads = threading.active_count()
    for call in range(50):
        parallel_map(abs, range(6), 2 + call % 3)
        assert threading.active_count() == threads, call


def test_a_forked_child_starts_its_own_pool():
    # a child left with its parent's thread count but none of its threads
    # would wait forever on runners no thread serves; the alarm ends it
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import os, signal\n"
        "from quadglass.parallel import parallel_map\n"
        "parallel_map(abs, range(4), 2)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(10)\n"
        "    os._exit(0 if parallel_map(abs, range(-3, 0), 2) == [3, 2, 1] else 1)\n"
        "print(os.waitpid(pid, 0)[1])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_default_workers_count_the_cores_the_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert parallel.default_workers() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    raw = cli.parse_config_text("model.alpha=0.5\nmodel.beta=0.25\nmodel.h=1.0\nmodel.p=2\n"
                                "disorder.family=rademacher\nsimulate.n_sites=100\n"
                                "simulate.replicates=4\n")
    config = cli.build_config("simulate", raw)
    assert config.workers == 1
    rows = cli._allocations("simulate", config.options, raw, config.workers)
    assert any(what == "1 factored realization(s)" for _, what, _, _ in rows)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert parallel.default_workers() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.default_workers() == 1
