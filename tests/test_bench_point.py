"""The paired-run recorder's file, with perfbench/run.py stubbed out.

No test here runs the benchmark: each tree's run.py is a stub that logs how
it was called and prints a fixed result in run.py's output format, and each
cold whole run and tier-1 run is a stubbed subprocess that starts nothing.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_point.py"

STUB = """import json, os, sys
with open({log!r}, "a") as fh:
    fh.write(json.dumps({{"cwd": os.getcwd(), "argv": sys.argv}}) + "\\n")
print("passes: 3")
print("wall_s: {wall} s")
print("check_p90_ms: {p90} ms")
print("curve_s: {curve} s")
print("failed: curve(3): no result 2")
print(json.dumps({{"env": {{"commit": "unknown", "seed": 1, "passes": 3}}}}))
metrics = {{"wall_s": {{"value": {wall}, "unit": "s"}},
            "check_p90_ms": {{"value": {p90}, "unit": "ms"}}}}
print(json.dumps({{"correct": True, "attempted": 9, "failed": {failed},
                  "metrics": metrics}}))
"""

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "check_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ]
}


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_point", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, log: Path, wall: float, p90: float, failed: int = 0) -> Path:
    (root / "src" / "nsgate").mkdir(parents=True)
    (root / "src" / "nsgate" / "__init__.py").write_text(f"# {wall} {p90}\n")
    (root / "perfbench").mkdir()
    stub = STUB.format(log=str(log), wall=wall, p90=p90, curve=wall / 3, failed=failed)
    (root / "perfbench" / "run.py").write_text(stub)
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return root


@pytest.fixture
def cold_log():
    return []


@pytest.fixture
def recorded(tmp_path, monkeypatch, cold_log):
    log = tmp_path / "calls.jsonl"
    parent = _tree(tmp_path / "parent", log, wall=0.03, p90=0.2)
    change = _tree(tmp_path / "change", log, wall=0.03, p90=0.1, failed=2)
    out = tmp_path / "BENCH.json"
    tool = _load_tool()
    real_run = subprocess.run

    def run(cmd, **kwargs):
        # The run.py stub runs; a cold run is logged and exits as nsgate
        # does: 1 for the search on a shape with no free mode, else 0.
        if cmd[1] == "perfbench/run.py":
            return real_run(cmd, **kwargs)
        cold_log.append((cmd, kwargs))
        if "pytest" in cmd:  # tier-1, with pytest's last line
            return subprocess.CompletedProcess(cmd, 0, stdout="3 passed in 0.1s\n")
        return subprocess.CompletedProcess(cmd, int("--restarts" in cmd))

    monkeypatch.setattr(tool.subprocess, "run", run)
    argv = ["compare", str(parent), str(change), "--output", str(out)]
    assert tool.main(argv + ["--pairs", "4", "--seconds", "0.5", "--seed", "7"]) == 0
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    return json.loads(out.read_text()), calls, parent, change


def test_each_side_is_one_unchanged_run_py_call_per_pair(recorded):
    data, calls, _, _ = recorded
    assert len(calls) == 8 and len(data["runs"]) == 8
    for call in calls:
        assert call["argv"][0] == "perfbench/run.py"
        assert call["argv"][1:] == [
            "--workload", "verify", "--seed", "7", "--seconds", "0.5", "--trace", "0"
        ]
    firsts = [r["side"] for r in data["runs"] if r["position"] == 0]
    assert firsts == ["parent", "change", "parent", "change"]


def test_paths_differ_within_each_pair_and_vary_per_side(recorded):
    data, calls, parent, change = recorded
    for pair in range(4):
        runs = [r for r in data["runs"] if r["pair"] == pair]
        assert runs[0]["path_length"] != runs[1]["path_length"]
    for side in ("parent", "change"):
        assert len({r["path_length"] for r in data["runs"] if r["side"] == side}) == 4
    # Every run is from a fresh copy, never from the checkouts themselves.
    assert not {c["cwd"] for c in calls} & {str(parent), str(change)}


def test_sides_are_identified_by_commit_and_source_hash(recorded):
    data, _, parent, _ = recorded
    side = data["sides"]["parent"]
    assert side["name"] == "parent" and side["commit"] is None
    text = (parent / "src" / "nsgate" / "__init__.py").read_bytes()
    assert side["src_sha256"] == hashlib.sha256(b"__init__.py\0" + text).hexdigest()
    assert data["sides"]["change"]["src_sha256"] != side["src_sha256"]


def test_summary_gives_quartiles_and_wins_per_metric(recorded):
    data, _, _, _ = recorded
    assert data["settings"] == {"pairs": 4, "seconds": 0.5, "trace": 0}
    rows = data["summary"]["verify seed 7"]
    p90 = rows["check_p90_ms"]
    assert p90["parent"] == {"median": 0.2, "q1": 0.2, "q3": 0.2}
    assert p90["change"] == {"median": 0.1, "q1": 0.1, "q3": 0.1}
    assert (p90["wins"], p90["pairs"], p90["gap_exceeds_parent_iqr"]) == (4, 4, True)
    # Equal values are ties, which count for neither side.
    wall = rows["wall_s"]
    assert (wall["wins"], wall["gap_exceeds_parent_iqr"]) == (0, False)
    assert p90["gated"] and wall["gated"]
    for run in data["runs"]:
        assert run["env"]["seed"] == 1 and run["correct"]
        assert run["failed"] == (2 if run["side"] == "change" else 0)


def test_phase_metrics_are_kept_and_marked_not_gated(recorded):
    # A phase metric run.py prints only as a text line is parsed into each
    # run and summarized like the end-to-end ones; the end-to-end lines and
    # a failure detail are not phases.
    data, _, _, _ = recorded
    for run in data["runs"]:
        assert run["phases"] == {"curve_s": {"value": 0.01, "unit": "s"}}
    curve = data["summary"]["verify seed 7"]["curve_s"]
    assert curve["gated"] is False and curve["unit"] == "s"
    assert curve["parent"]["median"] == curve["change"]["median"] == 0.01


def test_child_rusage_is_kept_per_run_and_summarized_not_gated(recorded):
    # os.wait4 on the run.py child: its own minor faults and max RSS.
    data, _, _, _ = recorded
    for run in data["runs"]:
        usage = {name: m["value"] for name, m in run["rusage"].items()}
        assert usage["minflt"] > 0 and usage["maxrss"] > 1000  # kB of a python
        assert usage["minflt_per_pass"] == usage["minflt"] / 3
    rows = data["summary"]["verify seed 7"]
    for name in ("minflt", "minflt_per_pass", "maxrss"):
        assert rows[name]["gated"] is False and rows[name]["pairs"] == 4


def test_failed_ops_are_summarized_and_printed_per_side(recorded, tmp_path):
    data, _, _, _ = recorded
    ops = data["summary"]["verify seed 7"]["ops"]
    assert ops == {
        "parent": {"failed": 0, "attempted": 36, "correct": True},
        "change": {"failed": 8, "attempted": 36, "correct": True},
    }
    lines = _load_tool().rows(data["summary"])
    assert lines[-1] == "verify seed 7 ops: parent 0/36 failed; change 8/36 failed"
    assert "verify seed 7 curve_s: 0.01 -> 0.01 s, 0/4 wins (not gated)" in lines


def test_rows_print_the_comparison_format():
    tool = _load_tool()
    summary = tool.summarize(
        [
            {"workload": "lift", "seed": 1, "pair": i, "side": side,
             "correct": side == "parent", "attempted": 5, "failed": 0,
             "metrics": {"lift_s": {"value": v, "unit": "s"}}}
            for i, (a, b) in enumerate([(2.0, 1.0), (3.0, 3.0), (4.0, 5.0)])
            for side, v in (("parent", a), ("change", b))
        ],
        {"lift_s": "lower"},
    )
    row = summary["lift seed 1"]["lift_s"]
    assert row["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5}
    assert row["wins"] == 1
    assert tool.rows(summary) == [
        "lift seed 1 lift_s: 3 -> 3 s, 1/3 wins",
        "lift seed 1 ops: parent 0/15 failed; change 0/15 failed, not correct",
    ]


def test_a_failing_run_stops_the_comparison(tmp_path):
    log = tmp_path / "calls.jsonl"
    parent = _tree(tmp_path / "parent", log, wall=0.03, p90=0.2)
    change = _tree(tmp_path / "change", log, wall=0.03, p90=0.1)
    (change / "perfbench" / "run.py").write_text("import sys; sys.exit(2)\n")
    argv = ["compare", str(parent), str(change), "--output", str(tmp_path / "o.json")]
    with pytest.raises(RuntimeError, match="exited 2"):
        _load_tool().main(argv + ["--pairs", "1", "--seconds", "0"])


def test_cold_runs_are_fresh_interpreters_kept_apart_from_the_gate(recorded, cold_log):
    data, _, parent, change = recorded
    tool = _load_tool()
    # Tier-1 runs last, once per side, on a fresh copy of the whole tree.
    cold_log[:], tier1 = cold_log[:-2], cold_log[-2:]
    assert [(cmd[1:], Path(kw["cwd"]).name) for cmd, kw in tier1] == [
        (list(tool.TIER1), f"tier1_{side}") for side in ("parent", "change")]
    assert data["tier1"]["gated"] is False
    assert "3 -> 3 passed, exit 0 -> 0 (not gated)" in tool.tier1_row(data["tier1"])
    cold = data["cold"]
    assert (cold["gated"], cold["repeats"]) == (False, 3)
    for side in ("parent", "change"):
        assert list(cold[side]) == list(tool.COLD_COMMANDS)
        for command, run in cold[side].items():
            assert run["exits"] == [int("--restarts" in command)] * 3
            assert run["best_s"] >= 0
    assert len(cold_log) == 2 * 3 * len(tool.COLD_COMMANDS)
    assert cold_log[0][0] == [sys.executable, "-c", "import nsgate.cli"]
    assert cold_log[-1][0][1:] == ["-m", "nsgate", "scan-curve", "--grid-n", "1001"]
    for _, kwargs in cold_log:
        # Each side runs its own fresh copy, never the checkout.
        assert kwargs["env"]["PYTHONPATH"] == str(Path(kwargs["cwd"]) / "src")
        assert Path(kwargs["cwd"]) not in (parent, change)
    assert len({str(kwargs["cwd"]) for _, kwargs in cold_log}) == 2
    line = "cold verify-klm: 0 -> 0 s, exit [0, 0, 0] -> [0, 0, 0] (not gated)"
    rows = tool.cold_rows({side: {"verify-klm": {"best_s": 0, "exits": [0] * 3}}
                           for side in ("parent", "change")})
    assert rows == [line]
