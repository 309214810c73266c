import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _pair(seed, parent_value, change_value, name="wall_s"):
    def side(value):
        return {**{metric: 1.0 for metric in bench.METRICS}, name: value, "correct": True}

    return {"seed": seed, "first": "parent" if seed % 2 else "change",
            "parent": side(parent_value), "change": side(change_value)}


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
    # inclusive quartiles of 0.30, 0.38, 0.52, 0.59: 0.36 and 0.5375
    assert wall["change_iqr"] == pytest.approx(0.1775)
    assert wall["change_won"] == 3 and wall["within_bound"]
    # equal readings are not wins
    assert summary["cpu_s"] == {"parent_median": 1.0, "parent_iqr": 0.0,
                                "change_median": 1.0, "change_iqr": 0.0, "change_won": 0,
                                "within_bound": True, "resolved": False}


def test_summary_of_one_pair_has_no_spread():
    # one pair resolves no gain, however large
    wall = bench.summary([_pair(1, 0.4, 0.3)])["wall_s"]
    assert wall == {"parent_median": 0.4, "parent_iqr": 0.0, "change_median": 0.3,
                    "change_iqr": 0.0, "change_won": 1, "within_bound": True,
                    "resolved": False}


def test_a_gain_needs_ten_pairs_to_resolve():
    # three wins in three pairs, far beyond the parent's spread, resolve
    # nothing; the same gain over ten pairs does
    pairs = [_pair(k, 1.0 + k / 100, 0.5) for k in range(1, 11)]
    assert bench.MIN_PAIRS == 10
    short = bench.summary(pairs[:3])["wall_s"]
    assert short["change_won"] == 3 and not short["resolved"]
    assert not bench.summary(pairs[:9])["wall_s"]["resolved"]
    assert bench.summary(pairs)["wall_s"]["resolved"]


def test_summary_reads_each_sides_spread_from_its_own_runs():
    # a steady parent and a change spread over 0.1 .. 1.0 in ten pairs
    pairs = [_pair(seed, 1.0, seed / 10) for seed in range(1, 11)]
    wall = bench.summary(pairs)["wall_s"]
    assert wall["parent_iqr"] == 0.0
    # inclusive quartiles of 0.1 .. 1.0: 0.325 and 0.775
    assert wall["change_iqr"] == pytest.approx(0.45)
    assert wall["change_median"] == pytest.approx(0.55)
    assert wall["change_won"] == 9


def test_summary_counts_a_higher_ok_ratio_as_a_win():
    assert bench.METRICS["ok_ratio"][0] == "higher"
    pairs = [_pair(1, 2 / 3, 1.0, "ok_ratio"), _pair(2, 1.0, 1.0, "ok_ratio"),
             _pair(3, 1.0, 2 / 3, "ok_ratio")]
    ok = bench.summary(pairs)["ok_ratio"]
    assert ok["change_won"] == 1 and ok["within_bound"]
    # a median of 2/3 against 1 is 33% worse, past ok_ratio's 10% bound
    ok = bench.summary([_pair(1, 1.0, 2 / 3, "ok_ratio")] * 3)["ok_ratio"]
    assert ok["change_won"] == 0 and not ok["within_bound"]


def test_summary_flags_a_median_out_of_bound():
    bound = bench.METRICS["wall_s"][1]
    edge = 1.0 + bound
    assert bench.summary([_pair(1, 1.0, edge)])["wall_s"]["within_bound"]
    wall = bench.summary([_pair(1, 1.0, edge * 1.01), _pair(2, 1.0, 0.9),
                          _pair(3, 1.0, edge * 1.02)])["wall_s"]
    assert wall["change_won"] == 1 and not wall["within_bound"]


def test_a_gain_resolves_on_nine_wins_in_ten_beyond_the_parents_iqr():
    # parent 1.0 .. 1.9: inclusive quartiles 1.225 and 1.675, IQR 0.45, median 1.45
    parent = [1.0 + k / 10 for k in range(10)]
    pairs = [_pair(k + 1, value, value - 0.8) for k, value in enumerate(parent)]
    wall = bench.summary(pairs)["wall_s"]
    assert wall["parent_iqr"] == pytest.approx(0.45)
    assert wall["change_won"] == 10 and wall["resolved"]
    # nine wins in ten still resolve; eight do not, though the medians stay apart
    pairs[0] = _pair(1, 1.0, 1.1)
    assert bench.summary(pairs)["wall_s"]["resolved"]
    pairs[1] = _pair(2, 1.1, 1.2)
    wall = bench.summary(pairs)["wall_s"]
    assert wall["change_won"] == 8 and not wall["resolved"]


def test_a_gain_within_the_parents_iqr_is_not_resolved():
    # every pair won, but the medians differ by 0.4, less than the IQR 0.45
    pairs = [_pair(k + 1, 1.0 + k / 10, 1.0 + k / 10 - 0.4) for k in range(10)]
    wall = bench.summary(pairs)["wall_s"]
    assert wall["change_won"] == 10 and not wall["resolved"]


def test_a_resolved_gain_follows_the_better_direction():
    # a higher ok_ratio is the gain; a lower one, however steady, resolves nothing
    up = bench.summary([_pair(k, 0.5, 1.0, "ok_ratio") for k in range(1, 11)])["ok_ratio"]
    assert up["resolved"]
    down = bench.summary([_pair(k, 1.0, 0.5, "ok_ratio") for k in range(1, 11)])["ok_ratio"]
    assert down["change_won"] == 0 and not down["resolved"]


def test_reading_keeps_every_end_to_end_metric_and_correct():
    line = {"correct": False, "attempted": 3, "failed": 1,
            "metrics": {name: {"value": 2.0, "unit": "s"} for name in bench.METRICS}}
    assert bench.reading(line) == {**{name: 2.0 for name in bench.METRICS}, "correct": False}


def _fake_runs(monkeypatch, failing_stdout):
    """Runs that print a good line, except the change side of seed 2, which prints
    ``failing_stdout`` or, when that is None, times out."""
    good = json.dumps({"correct": True, "metrics": {name: {"value": 1.0}
                                                    for name in bench.METRICS}})

    def fake_run(cmd, cwd, **kwargs):
        if Path(cwd) != bench.ROOT or cmd[cmd.index("--seed") + 1] != "2":
            return subprocess.CompletedProcess(cmd, 0, good + "\n", "")
        if failing_stdout is None:
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return subprocess.CompletedProcess(cmd, 1, failing_stdout, "Traceback\nKeyError: 'x'\n")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)


@pytest.mark.parametrize("failing_stdout, says", [
    (None, "ran past 600 s"),
    ("progress 1/3\nnot json at all\n", "'not json at all'"),
    ("", "nothing"),
    ('{"error": "x"}\n', "no perfbench result (KeyError: 'metrics')"),
], ids=["timeout", "not-json", "no-output", "json-without-metrics"])
def test_a_failed_run_ends_on_one_line_naming_it(tmp_path, monkeypatch, capsys,
                                                 failing_stdout, says):
    _fake_runs(monkeypatch, failing_stdout)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--parent", str(tmp_path), "--workload", "cavity-super2k",
                    "--pairs", "3", "--out", str(out)])
    message = exit_info.value.code
    assert isinstance(message, str) and "\n" not in message
    for part in ("cavity-super2k", "seed 2", "change side", says):
        assert part in message
    if failing_stdout is not None:
        assert "KeyError" in message
    assert not out.exists()
    # the finished pair, seed 1, was echoed before the failure
    echoed = capsys.readouterr().err.splitlines()
    assert [json.loads(line)["seed"] for line in echoed] == [1]


@pytest.mark.parametrize("text, says", [
    ("not json\n", "cannot be read as JSON (JSONDecodeError"),
    ("[1, 2]\n", "holds a JSON list, not an object"),
], ids=["not-json", "json-list"])
def test_an_unreadable_out_ends_the_tool_before_the_first_run(tmp_path, monkeypatch, text, says):
    runs = []
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, **kwargs: runs.append(cmd))
    out = tmp_path / "BENCH.json"
    out.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--parent", str(tmp_path), "--workload", "cavity-super2k",
                    "--pairs", "2", "--out", str(out)])
    message = exit_info.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith("bench: --out ") and str(out) in message and says in message
    assert runs == [] and out.read_text() == text
