"""Span tracer that wraps nsgate's public functions from outside the package.

Each wrapped call records one span: its name, start, end, the span that was
open when it was called, and the op (root span) it belongs to.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the time
covered by its child spans, so the self times of one op add up to the op's
wall time.

A function imported by name into several modules has one binding per module
(``from .fock import fock_amplitude`` in ``conditional`` and ``bounds``, for
example).  ``install`` replaces every binding of the original object in every
nsgate module, so no call path escapes the wrapper, and ``uninstall`` puts
the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

MODULES = (
    "nsgate",
    "nsgate.fock",
    "nsgate.conditional",
    "nsgate.gate",
    "nsgate.bounds",
    "nsgate.cli",
)

#: Every span name the tracer can emit, in report order.  ``op`` spans are the
#: benchmark's own roots, one per checked operation.
LAYER_SPANS = (
    "fock.permanent.small",
    "fock.permanent.large",
    "fock.fock_amplitude",
    "fock.LopCircuit",
    "fock.lift_to_sector",
    "conditional.kraus_operator",
    "conditional.completeness_defect",
    "conditional.apply_conditional",
    "gate.complete_to_unitary",
    "gate.verify_ns",
    "bounds.numeric_search",
    "bounds.analytic",
    "cli.main",
)

# Permanents of size n <= 3 take nsgate's hand-coded branch; larger ones take
# the Gray-code inclusion-exclusion loop.
_SMALL_PERMANENT = 3


def _permanent_span(args, kwargs) -> str:
    m = args[0] if args else kwargs["m"]
    size = "small" if len(m) <= _SMALL_PERMANENT else "large"
    return f"fock.permanent.{size}"


class Tracer:
    """In-memory span recorder with per-layer work counters."""

    def __init__(self):
        # Each span: [name, start, end, parent, op, child_time].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.search_results: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called ``name``."""
        stack = self._stack
        spans = self.spans
        parent = stack[-1] if stack else -1
        idx = len(spans)
        op = spans[parent][4] if parent >= 0 else idx
        record = [name, 0.0, 0.0, parent, op, 0.0]
        spans.append(record)
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            record[1] = start
            record[2] = end
            if parent >= 0:
                spans[parent][5] += end - start

    def _wrap(self, fn, name, namer=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            result = tracer.span(span, fn, *args, **kwargs)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions at every nsgate module that binds them."""
        import nsgate.bounds as bounds
        import nsgate.cli as cli
        import nsgate.conditional as conditional
        import nsgate.fock as fock
        import nsgate.gate as gate

        def count_entries(key):
            def after(tr, result):
                tr.counters[key] += result.entries.size

            return after

        def record_search(tr, result):
            tr.counters["bounds.numeric_search.evals"] += result.evaluations
            tr.counters["bounds.numeric_search.starts"] += result.restarts + 1
            tr.search_results.append(result)

        targets = [
            (fock.permanent, None, _permanent_span, None),
            (fock.fock_amplitude, "fock.fock_amplitude", None, None),
            (
                fock.lift_to_sector,
                "fock.lift_to_sector",
                None,
                count_entries("fock.lift_to_sector.entries"),
            ),
            (
                conditional.kraus_operator,
                "conditional.kraus_operator",
                None,
                count_entries("conditional.kraus_operator.entries"),
            ),
            (
                conditional.completeness_defect,
                "conditional.completeness_defect",
                None,
                None,
            ),
            (
                conditional.apply_conditional,
                "conditional.apply_conditional",
                None,
                None,
            ),
            (gate.complete_to_unitary, "gate.complete_to_unitary", None, None),
            (gate.verify_ns, "gate.verify_ns", None, None),
            (bounds.numeric_search, "bounds.numeric_search", None, record_search),
            (bounds.maximize_boundary, "bounds.analytic", None, None),
            (bounds.scan_curve, "bounds.analytic", None, None),
            (bounds.sample_region, "bounds.analytic", None, None),
            (cli.main, "cli.main", None, None),
        ]
        modules = [sys.modules[name] for name in MODULES]
        for original, name, namer, after in targets:
            wrapper = self._wrap(original, name, namer, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

        # LopCircuit is a class shared by every module; its unitarity check
        # runs in __post_init__, which the dataclass __init__ looks up on the
        # class at each construction.
        post_init = fock.LopCircuit.__post_init__
        self._restore.append((fock.LopCircuit, "__post_init__", post_init))
        fock.LopCircuit.__post_init__ = self._wrap(post_init, "fock.LopCircuit")

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_totals(self) -> dict[str, list[float]]:
        """Per span name: [calls, self seconds]."""
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _parent, _op, child in self.spans:
            t = totals[name]
            t[0] += 1
            t[1] += (end - start) - child
        return totals

    def write(self, path) -> None:
        """Write the spans as JSON lines, after a header line naming the fields.

        Span ids are line numbers after the header; ``parent`` is -1 for a
        root, and ``op`` is the id of the root span the span belongs to.
        """
        with open(path, "w", encoding="utf-8") as fh:
            header = ["name", "start", "end", "parent", "op", "self_s"]
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, child in self.spans:
                row = [name, start, end, parent, op, (end - start) - child]
                fh.write(json.dumps(row) + "\n")
