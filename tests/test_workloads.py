"""Smoke test of the benchmark's workloads against the package.

Every op of the ``lift`` and ``verify`` workloads calls nsgate's public API
and checks its output, so renaming a public name or changing a signature
they use breaks this test, not only a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclass looks its module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["lift", "verify"])
def test_every_op_passes(monkeypatch, tmp_path, workload):
    workloads = load_workloads(monkeypatch)
    ops = workloads.build(workload, 1, str(tmp_path))
    assert ops
    failures = []
    for op in ops:
        status, detail = op.run()
        if status != workloads.OK:
            failures.append(f"{op.label}: {status} {detail}")
    assert failures == []
