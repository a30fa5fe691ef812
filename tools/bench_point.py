"""Paired benchmark runs of two nsgate trees, written to one JSON file.

Run from anywhere:

    python3 tools/bench_point.py compare PARENT CHANGE --output BENCH.json \\
        --workload verify --seed 1 --pairs 10 --seconds 45

PARENT and CHANGE are checkouts: directories holding ``src/nsgate``,
``perfbench/`` and ``BENCHMARK.json``.  Each pair copies both trees afresh
and runs ``perfbench/run.py --trace 0`` unchanged, as a subprocess, once on
each side.  The side that runs first alternates from pair to pair, and the
two copies of a pair sit at paths of different lengths, each side taking
four lengths in turn: the checkout path alone moves ``lift_s`` by up to 20 %
(ROADMAP F6), so no side keeps one path.  The file is rewritten after every
pair.  It holds each side's ``git rev-parse HEAD`` (null without a ``.git``)
and a SHA-256 over its ``src/nsgate/*.py``, and every run's result line:
its ``correct``, ``attempted`` and ``failed`` ops and its end-to-end
metrics, plus the phase metrics run.py prints only as ``name: value unit``
lines (``curve_s``, ``cli_s``, ...) under ``phases``.  For each workload and
seed the summary gives each metric's median and quartiles on both sides and
the pairs the change wins, ties counting for neither, with ``gated`` false
for a phase metric, and under ``ops`` each side's failed and attempted ops
over its runs and whether every run was correct.  After the pairs, the
``cold`` section, not gated, times each command of ``COLD_COMMANDS`` (the
cold whole runs of the ROADMAP's Baseline table) in ``COLD_REPEATS`` fresh
interpreters per side, the sides alternating run by run in fresh copies,
and keeps each command's best wall time and every run's exit code.  A row
per metric is printed in the form "parent median -> change median,
wins/pairs", then one row of ops per workload and seed, then one row per
cold command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")

# A metric line of run.py's text output: "curve_s: 0.00123 s".
METRIC_LINE = re.compile(r"(\w+): (\S+) (\w+)")

#: Whole runs timed cold, each in a fresh interpreter: an import, or the
#: arguments of ``python -m nsgate``.
COLD_COMMANDS = (
    "import nsgate.cli",
    "verify-klm",
    "kraus-check --modes 4",
    "kraus-check --modes 20",
    "reduce-demo --modes 20",
    "optimize",
    "optimize --modes 4 --rank 2",
    "optimize --modes 3 --rank 2 --restarts 10",
    "region --grid-n 1001",
    "scan-curve --grid-n 1001",
)

#: Fresh interpreters per cold command and side; the best time is kept.
COLD_REPEATS = 3


def tree_identity(tree: Path) -> dict:
    """The tree's name, its git HEAD where it has a .git, and its source hash."""
    commit = None
    if (tree / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "nsgate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"name": tree.name, "commit": commit, "src_sha256": digest.hexdigest()}


def _copy_tree(tree: Path, dest: Path) -> Path:
    # What run.py reads: the package source, the harness and the spec.
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(tree / "src", dest / "src", ignore=skip)
    shutil.copytree(tree / "perfbench", dest / "perfbench", ignore=skip)
    shutil.copy2(tree / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of perfbench/run.py in root: its env and result lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py in {root} exited {proc.returncode}: {proc.stderr}")
    env = next(json.loads(x)["env"] for x in lines if x.startswith('{"env"'))
    result = json.loads(lines[-1])
    phases = {}
    for match in filter(None, map(METRIC_LINE.fullmatch, lines)):
        name, value, unit = match.groups()
        if name not in result["metrics"]:
            try:
                phases[name] = {"value": float(value), "unit": unit}
            except ValueError:  # an op's failure detail, not a metric
                continue
    return {"env": env, **result, "phases": phases}


def cold_runs(roots: dict[str, Path]) -> dict:
    """Each side's best wall time and exit codes for every cold command.

    Every run is a fresh interpreter in the side's root, with only its
    ``src`` on PYTHONPATH and output discarded; the side that runs first
    alternates from run to run.
    """
    cold = {"gated": False, "repeats": COLD_REPEATS, **{side: {} for side in SIDES}}
    for command in COLD_COMMANDS:
        args = command.split()
        argv = ["-c", command] if args[0] == "import" else ["-m", "nsgate", *args]
        times = {side: [] for side in SIDES}
        exits = {side: [] for side in SIDES}
        for repeat in range(COLD_REPEATS):
            for side in SIDES if repeat % 2 == 0 else SIDES[::-1]:
                env = {**os.environ, "PYTHONPATH": str(roots[side] / "src")}
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, *argv], cwd=roots[side], env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
                )
                times[side].append(time.perf_counter() - start)
                exits[side].append(proc.returncode)
        for side in SIDES:
            cold[side][command] = {"best_s": min(times[side]), "exits": exits[side]}
    return cold


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else values * 3
    )
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and seed, each metric's quartiles per side and wins.

    End-to-end metrics are the ones a run's result line holds; phase metrics
    (under a run's ``phases``) are summarized the same way, marked not
    gated.  The ``ops`` entry counts each side's failed and attempted ops.
    """
    groups: dict[tuple, dict[int, dict]] = {}
    for run in runs:
        key = (run["workload"], run["seed"])
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for (workload, seed), pairs in groups.items():
        complete = [p for p in pairs.values() if set(p) == set(SIDES)]
        table = {}
        for field in ("metrics", "phases") if complete else ():
            for name, first in complete[0]["parent"].get(field, {}).items():
                values = {
                    side: [p[side][field][name]["value"] for p in complete]
                    for side in SIDES
                }
                direction = better.get(name, "lower")
                sign = -1 if direction == "lower" else 1
                wins = sum(sign * (c - p) > 0 for p, c in zip(*values.values()))
                parent, change = (_quartiles(values[side]) for side in SIDES)
                table[name] = {
                    "unit": first["unit"],
                    "better": direction,
                    "gated": field == "metrics",
                    "parent": parent,
                    "change": change,
                    "wins": wins,
                    "pairs": len(complete),
                    "gap_exceeds_parent_iqr": abs(change["median"] - parent["median"])
                    > parent["q3"] - parent["q1"],
                }
        sides = {side: [p[side] for p in pairs.values() if side in p] for side in SIDES}
        table["ops"] = {
            side: {
                "failed": sum(run["failed"] for run in side_runs),
                "attempted": sum(run["attempted"] for run in side_runs),
                "correct": all(run["correct"] for run in side_runs),
            }
            for side, side_runs in sides.items()
        }
        summary[f"{workload} seed {seed}"] = table
    return summary


def compare(args) -> dict:
    trees = {side: Path(getattr(args, side)).resolve() for side in SIDES}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    result = {
        "sides": {side: tree_identity(tree) for side, tree in trees.items()},
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "trace": 0},
        "runs": [],
        "summary": {},
    }
    output = Path(args.output)
    with tempfile.TemporaryDirectory(prefix="bench_point-") as work:
        for seed in args.seed:
            for workload in args.workload:
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    pads = {"parent": pair % 4, "change": (pair + 2) % 4}
                    for position, side in enumerate(order):
                        dest = Path(work) / f"{side}{'_' * pads[side]}"
                        root = _copy_tree(trees[side], dest)
                        try:
                            run = run_once(root, workload, seed, args.seconds)
                        finally:
                            shutil.rmtree(dest)
                        result["runs"].append({
                            "workload": workload, "seed": seed, "pair": pair,
                            "side": side, "position": position,
                            "path_length": len(str(dest)), **run,
                        })
                    result["summary"] = summarize(result["runs"], better)
                    output.write_text(json.dumps(result, indent=1) + "\n")
        roots = {side: _copy_tree(trees[side], Path(work) / side) for side in SIDES}
        result["cold"] = cold_runs(roots)
        output.write_text(json.dumps(result, indent=1) + "\n")
    return result


def rows(summary: dict) -> list[str]:
    """One line per metric: parent median -> change median, wins/pairs.

    A phase metric's line ends in "(not gated)"; each workload and seed
    ends in a line of each side's failed/attempted ops and correctness.
    """
    lines = []
    for group, metrics in summary.items():
        for name, r in metrics.items():
            if name == "ops":
                continue
            lines.append(
                f"{group} {name}: {r['parent']['median']:.4g} -> "
                f"{r['change']['median']:.4g} {r['unit']}, {r['wins']}/{r['pairs']} "
                f"wins{'' if r['gated'] else ' (not gated)'}"
            )
        ops = [
            f"{side} {o['failed']}/{o['attempted']} failed"
            f"{'' if o['correct'] else ', not correct'}"
            for side, o in metrics["ops"].items()
        ]
        lines.append(f"{group} ops: {'; '.join(ops)}")
    return lines


def cold_rows(cold: dict) -> list[str]:
    """One line per cold command: parent best -> change best, exit codes."""
    return [
        f"cold {command}: {p['best_s']:.3g} -> {c['best_s']:.3g} s, exit "
        f"{p['exits']} -> {c['exits']} (not gated)"
        for (command, p), c in zip(cold["parent"].items(), cold["change"].values())
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compare", help="paired runs of two trees")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--output", required=True)
    p.add_argument("--workload", action="append", choices=("lift", "verify", "search"))
    p.add_argument("--seed", action="append", type=int)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)
    args.workload = args.workload or ["verify"]
    args.seed = args.seed or [1]
    result = compare(args)
    print("\n".join(rows(result["summary"]) + cold_rows(result["cold"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
