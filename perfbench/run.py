"""Run one workload of the nsgate benchmark and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload lift --seed 1 --seconds 45 --trace 0

The benchmark imports nsgate from ``src/`` of the checkout it sits in, builds
the workload's inputs from ``--seed``, and repeats passes over the same
checked ops until ``--seconds`` have elapsed.  ``--trace 0`` reports the
end-to-end metrics of untraced passes.  ``--trace 1`` alternates untraced and
traced passes and reports per-layer metrics from the traced ones, with the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every metric, the failures and the environment.

See perfbench/README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Nothing above imports numpy: a setup probe times the imports from here.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: BLAS and OpenMP pools are pinned to one thread; the benchmark is one
#: single-threaded process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 9


class BenchmarkError(Exception):
    """The benchmark cannot produce a result here."""


def _load_nsgate():
    src = ROOT / "src"
    if not (src / "nsgate" / "__init__.py").is_file():
        raise BenchmarkError(f"no nsgate package under {src}")
    sys.path.insert(0, str(src))
    import nsgate

    if Path(nsgate.__file__).resolve().parent != (src / "nsgate").resolve():
        raise BenchmarkError(f"imported nsgate from {nsgate.__file__}, not {src}")


def _setup(workload: str, seed: int):
    _load_nsgate()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    return workloads.build(workload, seed, str(OUT_DIR))


def _probe_setup(workload: str, seed: int) -> float:
    """Median setup time over fresh interpreters: imports plus input build."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _run_op(op):
    import workloads

    try:
        return op.run()
    except Exception as err:  # an op that raises is a failed op, not a crash
        return workloads.FAILED, f"{type(err).__name__}: {err}"


def _run_pass(ops, tracer=None):
    """Run every op once; return [(kind, seconds, status, detail)] in op order."""
    clock = time.perf_counter
    records = []
    for op in ops:
        t0 = clock()
        if tracer is None:
            status, detail = _run_op(op)
        else:
            status, detail = tracer.span(f"op.{op.kind}", _run_op, op)
        records.append((op.kind, clock() - t0, status, f"{op.label}: {detail}"))
    return records


def _quantile(values, q):
    # Inclusive-method quantile, as statistics.quantiles(n=100) gives it.
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _best_times(passes):
    """Each op's fastest time over the passes, in op order, with its kind.

    Every pass repeats the same ops on the same inputs, and interference from
    other processes only ever adds time to an op; on a shared machine it
    comes and goes within seconds and drifts over minutes.
    """
    kinds = [kind for kind, _, _, _ in passes[0]]
    return [(kind, min(recs[i][1] for recs in passes)) for i, kind in enumerate(kinds)]


def _end_to_end(passes, setup_s):
    best = _best_times(passes)
    latencies = [dt * 1e3 for kind, dt in best if kind != "cli"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(dt for _, dt in best), "s"),
        "check_p50_ms": (_quantile(latencies, 50), "ms"),
        "check_p90_ms": (_quantile(latencies, 90), "ms"),
    }
    for kind in sorted({kind for kind, _ in best}):
        metrics[f"{kind}_s"] = (sum(dt for k, dt in best if k == kind), "s")
    notes = [f"passes: {len(passes)}", f"library checks per pass: {len(latencies)}"]
    return metrics, notes


def _per_layer(tracer, traced, untraced):
    import tracer as tracing

    n = len(traced)
    totals = tracer.layer_totals()
    counters = tracer.counters
    metrics = {}
    for name in tracing.LAYER_SPANS:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    for key in ("fock.lift_to_sector.entries", "conditional.kraus_operator.entries"):
        metrics[key] = (counters[key] / n, "count")

    evals = counters["bounds.numeric_search.evals"]
    starts = counters["bounds.numeric_search.starts"]
    search_self = totals.get("bounds.numeric_search", (0, 0.0))[1]
    results = tracer.search_results
    search = "bounds.numeric_search"
    metrics[f"{search}.evals"] = (evals / n, "count")
    metrics[f"{search}.us_per_eval"] = (search_self / evals * 1e6 if evals else 0.0, "us")
    metrics[f"{search}.evals_per_start"] = (evals / starts if starts else 0.0, "count")
    metrics[f"{search}.best_p"] = (
        min((r.best_probability for r in results), default=0.0), "1")
    metrics[f"{search}.residual"] = (max((r.residual for r in results), default=0.0), "1")
    metrics[f"{search}.max_feasible_p"] = (
        max((r.max_feasible_probability for r in results), default=0.0), "1")

    # Op spans' self time: benchmark checks plus nsgate code no layer covers.
    other = sum(t[1] for name, t in totals.items() if name.startswith("op."))
    metrics["other.self_s"] = (other / n, "s")
    traced_wall = sum(dt for _, dt in _best_times(traced))
    untraced_wall = sum(dt for _, dt in _best_times(untraced))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    traced_total = sum(self_s for _, self_s in totals.values()) / n
    notes = [f"traced passes: {n}, untraced passes: {len(untraced)}"]
    for name in sorted(totals, key=lambda k: -totals[k][1]):
        share = totals[name][1] / n / traced_total if traced_total else 0.0
        notes.append(f"self-time share {name}: {share:.1%}")
    return metrics, notes


def _number(value, unit):
    # Work counts are exact per pass; print them as integers.
    if unit == "count" and float(value).is_integer():
        return int(value)
    return value


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, passes):
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def _required_metrics(workload: str, trace: int):
    """Metric names BENCHMARK.json asks of this run, or None if it names none."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return None
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _measure(ops, seconds):
    """Untraced passes until ``seconds`` have elapsed (at least one)."""
    deadline = time.perf_counter() + seconds
    passes = [_run_pass(ops)]
    while time.perf_counter() < deadline:
        passes.append(_run_pass(ops))
    return passes


def _measure_traced(ops, seconds):
    """Alternate untraced and traced passes; return (untraced, traced, tracer)."""
    import tracer as tracing

    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    while not traced or time.perf_counter() < deadline:
        untraced.append(_run_pass(ops))
        tracer.install()
        try:
            traced.append(_run_pass(ops, tracer))
        finally:
            tracer.uninstall()
    return untraced, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("lift", "verify", "search")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.setup_probe:
            t0 = time.perf_counter()
            _setup(args.workload, args.seed)
            print(time.perf_counter() - t0)
            return 0
        required = _required_metrics(args.workload, args.trace)
        ops = _setup(args.workload, args.seed)
        if args.trace:
            untraced, traced, tracer = _measure_traced(ops, args.seconds)
            tracer.write(OUT_DIR / f"{args.workload}.spans.jsonl")
            all_passes = untraced + traced
            metrics, notes = _per_layer(tracer, traced, untraced)
        else:
            setup_s = _probe_setup(args.workload, args.seed)
            all_passes = _measure(ops, args.seconds)
            metrics, notes = _end_to_end(all_passes, setup_s)
        if required is not None:
            missing = [name for name in required if name not in metrics]
            if missing:
                raise BenchmarkError(f"no value for {', '.join(missing)}")
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    import workloads

    records = [rec for recs in all_passes for rec in recs]
    bad = [rec for rec in records if rec[2] != workloads.OK]
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for detail in sorted({f"{status}: {detail}" for _, _, status, detail in bad}):
        print(detail)
    print(json.dumps({"env": _environment(args, len(all_passes))}))
    shown = required if required is not None else list(metrics)
    result = {
        "correct": not any(rec[2] == workloads.WRONG for rec in records),
        "attempted": len(records),
        "failed": len(bad),
        "metrics": {
            name: {"value": _number(*metrics[name]), "unit": metrics[name][1]}
            for name in shown
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
