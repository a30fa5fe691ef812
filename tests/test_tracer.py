"""Smoke test of the benchmark's span tracer against the package.

The tracer wraps nsgate's public functions by attribute, so removing or
renaming one of them breaks it; this test makes that a tier-1 failure.
"""

import importlib.util
from pathlib import Path

import nsgate
import nsgate.gate as gate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores(klm_optimum):
    design, scheme = klm_optimum
    originals = (nsgate.verify_ns, gate.verify_ns, gate.complete_to_unitary)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert gate.verify_ns is not originals[1]
        assert gate.verify_ns.__wrapped__ is originals[1]
        nsgate.verify_ns(design.matrix, scheme)
        assert tracer.layer_totals()["gate.verify_ns"][0] == 1
    finally:
        tracer.uninstall()
    assert (nsgate.verify_ns, gate.verify_ns, gate.complete_to_unitary) == originals
