import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _pair(seed, parent_wall, change_wall):
    def side(wall):
        return {**{name: 1.0 for name in bench.METRICS}, "wall_s": wall, "correct": True}

    return {"seed": seed, "first": "parent" if seed % 2 else "change",
            "parent": side(parent_wall), "change": side(change_wall)}


def test_summary_reads_medians_iqr_and_pairs_won():
    pairs = [_pair(1, 0.40, 0.38), _pair(2, 0.50, 0.52), _pair(3, 0.45, 0.30),
             _pair(4, 0.60, 0.59)]
    summary = bench.summary(pairs)
    assert set(summary) == set(bench.METRICS)
    wall = summary["wall_s"]
    assert wall["parent_median"] == pytest.approx(0.475)
    # inclusive quartiles of 0.40, 0.45, 0.50, 0.60: 0.4375 and 0.525
    assert wall["parent_iqr"] == pytest.approx(0.0875)
    assert wall["change_median"] == pytest.approx(0.45)
    assert wall["change_lower"] == 3
    # equal readings are not wins
    assert summary["cpu_s"] == {"parent_median": 1.0, "parent_iqr": 0.0,
                                "change_median": 1.0, "change_lower": 0}


def test_summary_of_one_pair_has_no_spread():
    wall = bench.summary([_pair(1, 0.4, 0.3)])["wall_s"]
    assert wall == {"parent_median": 0.4, "parent_iqr": 0.0, "change_median": 0.3,
                    "change_lower": 1}


def test_reading_keeps_every_end_to_end_metric_and_correct():
    line = {"correct": False, "attempted": 3, "failed": 1,
            "metrics": {name: {"value": 2.0, "unit": "s"} for name in bench.METRICS}}
    assert bench.reading(line) == {**{name: 2.0 for name in bench.METRICS}, "correct": False}
