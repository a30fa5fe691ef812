"""Seeded, checked workloads for the nsgate benchmark.

``build(workload, seed, workdir)`` turns a seed into a list of operations.
Every input (circuits, states, curve points, search seeds) is drawn here,
before any op is timed; ``Op.run`` then calls nsgate's public API and checks
the output against the repository's acceptance tolerances.

Ops reach nsgate through module attributes (``nsgate.lift_to_sector``,
``nsgate.cli.main``) looked up at call time, so the tracer's wrappers see
every call when tracing is on.

Each op returns a status:

- ``ok``: every check passed;
- ``failed``: no usable verdict, because the call raised, a CLI call exited
  with an I/O or usage error, or a search stopped short of the acceptance
  window (p below 0.2490 or residual above 1e-6);
- ``wrong``: a verdict that contradicts an identity or the 1/4 bound (a
  completeness defect, a norm change, a search point above 0.250001, a CLI
  verification that reports FAIL).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nsgate
import nsgate.cli

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Acceptance tolerances, as tests/test_acceptance.py states them.
SEARCH_P_MIN = 0.2490
SEARCH_P_MAX = 0.250001
SEARCH_RESIDUAL = 1e-6
COMPLETENESS_TOL = 1e-10
NS_TOL = 1e-10
REDUCTION_TOL = 1e-10
SECTOR_NORM_TOL = 1e-12
BOUNDARY_P_TOL = 1e-9
BOUNDARY_X2_TOL = 1e-5
BOUNDARY_X2_STAR = 0.7071068

#: Sectors (modes, photons) lifted by the ``lift`` workload, (3, 4) to (5, 5).
LIFT_GRID = ((3, 4), (3, 5), (4, 4), (4, 5), (5, 4), (5, 5))

#: Multi-photon-ancilla schemes of the ``lift`` workload:
#: (system modes, system photon sectors, ancilla input).
MULTI_ANCILLA_SCHEMES = (
    (2, (0, 1, 2, 3), (1, 1, 0)),
    (2, (0, 1, 2, 3), (2, 1, 0)),
    (1, (0, 1, 2), (1, 1, 1)),
    (2, (0, 1, 2), (2, 0)),
)

# Library checks per pass of the ``verify`` workload (100 in all).
VERIFY_KRAUS = 40
VERIFY_REDUCTION = 20
VERIFY_CURVE = 24
VERIFY_SECTOR = 12
VERIFY_ANALYTIC = 4

#: Random restarts of each ``search`` run; both geometries use the same count.
SEARCH_RESTARTS = 10


@dataclass(frozen=True)
class Op:
    """One checked call into nsgate.

    ``kind`` groups ops into the phases the benchmark reports (``lift``,
    ``kraus``, ``cli`` ...); ``run`` returns (status, detail).
    """

    kind: str
    label: str
    run: Callable[[], tuple[str, str]]


def _limit(label: str, value: float, tol: float, over: str = WRONG) -> tuple[str, str]:
    # Written as "not value <= tol" so a NaN fails the check.
    if not value <= tol:
        return over, f"{label} {value:.3e} exceeds {tol:g}"
    return OK, ""


def _at_least(label: str, value: float, floor: float) -> tuple[str, str]:
    # Falling short of a floor means no verdict was reached, not a wrong one.
    if not value >= floor:
        return FAILED, f"{label} {value:.6g} below {floor:g}"
    return OK, ""


def _first_bad(*verdicts: tuple[str, str]) -> tuple[str, str]:
    for verdict in verdicts:
        if verdict[0] == WRONG:
            return verdict
    for verdict in verdicts:
        if verdict[0] != OK:
            return verdict
    return OK, ""


def _one_hot(k: int, at: int, photons: int = 1) -> tuple[int, ...]:
    return tuple(photons if m == at else 0 for m in range(k))


# -- lift workload -----------------------------------------------------------


def _lift(u, photons, vec):
    lifted = nsgate.lift_to_sector(u, photons)
    w = lifted.entries @ vec
    return _limit("sector-norm change", abs(np.vdot(w, w).real - 1.0), SECTOR_NORM_TOL)


def _completeness(scheme, u):
    defect = nsgate.completeness_defect(scheme, u)
    return _limit("completeness defect", defect, COMPLETENESS_TOL)


def _unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _all_outcomes_scheme(system_modes, sectors, ancilla_input):
    return nsgate.ConditionalScheme(
        system_modes=system_modes,
        ancilla_modes=len(ancilla_input),
        ancilla_input=ancilla_input,
        outcomes=(tuple(0 for _ in ancilla_input),),
        system_photons=sectors,
    ).all_outcomes()


def _lift_ops(rng, workdir):
    ops = []
    for modes, photons in LIFT_GRID:
        u = nsgate.haar_unitary(modes, rng)
        vec = _unit_vector(rng, nsgate.FockSector(modes, photons).dim)
        run = functools.partial(_lift, u, photons, vec)
        ops.append(Op("lift", f"lift({modes},{photons})", run))
    for system_modes, sectors, ancilla in MULTI_ANCILLA_SCHEMES:
        scheme = _all_outcomes_scheme(system_modes, sectors, ancilla)
        u = nsgate.haar_unitary(system_modes + len(ancilla), rng)
        ops.append(
            Op(
                "kraus",
                f"completeness({system_modes},{sectors},{ancilla})",
                functools.partial(_completeness, scheme, u),
            )
        )
    return ops


# -- verify workload ---------------------------------------------------------


def _reduction(scheme, upstream, chi, rho):
    k = scheme.ancilla_modes
    folded = nsgate.LopCircuit(
        upstream.matrix
        @ nsgate.ancilla_block(1, nsgate.reduce_general_ancilla(chi)).matrix
    )
    p_reduced = nsgate.apply_conditional(scheme, folded, rho).probability
    m_direct = sum(
        chi[a]
        * nsgate.kraus_operator(
            nsgate.ConditionalScheme(
                system_modes=1,
                ancilla_modes=k,
                ancilla_input=_one_hot(k, a),
                outcomes=scheme.outcomes,
                system_photons=scheme.system_photons,
            ),
            upstream,
            scheme.outcomes[0],
        ).entries
        for a in range(k)
    )
    p_direct = float(np.trace(m_direct @ rho.entries @ m_direct.conj().T).real)
    return _limit("reduction difference", abs(p_reduced - p_direct), REDUCTION_TOL)


def _curve_point(x2):
    y2 = nsgate.boundary_y2(x2)
    design = nsgate.complete_design(
        nsgate.generalized_design(math.sqrt(x2), [math.sqrt(y2)], total_modes=3),
        max_extra_modes=0,
    )
    report = nsgate.verify_ns(design.matrix, design.scheme())
    return _first_bad(
        _limit("verify_ns residual", report.condition_residual, NS_TOL),
        _limit(
            "|p - x2*y2/2|",
            abs(report.success_probability - x2 * y2 / 2),
            NS_TOL,
        ),
    )


def _sector_invariance(v_anc, photons, vec):
    sector = nsgate.FockSector(v_anc.dim + 1, photons)
    moved = nsgate.lift_to_sector(nsgate.ancilla_block(1, v_anc), photons).entries @ vec
    before = nsgate.decompose_by_ancilla_count(vec, sector, system_modes=1)
    after = nsgate.decompose_by_ancilla_count(moved, sector, system_modes=1)
    delta = max(
        abs(np.linalg.norm(after[c]) ** 2 - np.linalg.norm(before[c]) ** 2)
        for c in before
    )
    return _limit("sector-norm change", delta, SECTOR_NORM_TOL)


def _analytic(lo, hi):
    x2_star, p_star = nsgate.maximize_boundary(1e-10, lo, hi)
    return _first_bad(
        _limit("|p* - 0.25|", abs(p_star - 0.25), BOUNDARY_P_TOL),
        _limit("|x2* - 1/sqrt(2)|", abs(x2_star - BOUNDARY_X2_STAR), BOUNDARY_X2_TOL),
    )


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = nsgate.cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _cli_status(argv, code, err) -> tuple[str, str]:
    # Exit 1 is the CLI's own "verification failed"; any other code is no verdict.
    status = WRONG if code == 1 else FAILED
    reason = err.strip().splitlines()[-1] if err.strip() else ""
    return status, f"{argv[0]} exited {code}: {reason}"


def _line_value(text, prefix):
    line = next(l for l in text.splitlines() if l.startswith(prefix))
    return float(line.rsplit(" ", 1)[1])


def _cli_table(argv, rows, width):
    code, out, err = _cli(argv)
    if code != 0:
        return _cli_status(argv, code, err)
    if "--format" in argv:
        table = json.loads(out)["rows"]
    else:
        table = [line.split(",") for line in out.splitlines()[1:]]
    # Raises, failing the op, on a ragged table or a field that is no number.
    shape = np.asarray(table, dtype=float).shape
    if shape != (rows, width):
        return FAILED, f"{argv[0]} printed a {shape} table, expected {(rows, width)}"
    return OK, ""


def _cli_check(argv, prefix, tol, target=0.0):
    """Run a CLI call and check the figure on its ``prefix`` line is near target."""
    code, out, err = _cli(argv)
    if code != 0:
        return _cli_status(argv, code, err)
    value = _line_value(out, prefix)
    return _limit(f"|{prefix.rstrip(':')} - {target:g}|", abs(value - target), tol)


def _cli_round_trip(seed, path):
    argv = ["optimize", "--restarts", "0", "--seed", str(seed), "--output", path]
    code, _out, err = _cli(argv)
    if code != 0:
        return _cli_status(argv, code, err)
    with open(path, encoding="utf-8") as fh:
        json.load(fh)
    return _cli_check(
        ["kraus-check", "--matrix-file", path], "completeness defect:", COMPLETENESS_TOL
    )


def _verify_ops(rng, workdir):
    ops = []
    for case in range(VERIFY_KRAUS):
        dim = 2 + case % 3
        ancilla = dim - 1
        scheme = _all_outcomes_scheme(
            1, (0, 1, 2), _one_hot(ancilla, case % ancilla, case % 2)
        )
        u = nsgate.haar_unitary(dim, rng)
        run = functools.partial(_completeness, scheme, u)
        ops.append(Op("kraus", f"completeness({dim} modes)", run))
    for case in range(VERIFY_REDUCTION):
        k = 2 + case % 2
        chi = _unit_vector(rng, k)
        upstream = nsgate.haar_unitary(k + 1, rng)
        scheme = nsgate.ConditionalScheme(
            system_modes=1,
            ancilla_modes=k,
            ancilla_input=_one_hot(k, 0),
            outcomes=(_one_hot(k, 0),),
            system_photons=(0, 1, 2),
        )
        rho = nsgate.DensityMatrix.pure(scheme.system_basis, _unit_vector(rng, 3))
        run = functools.partial(_reduction, scheme, upstream, chi, rho)
        ops.append(Op("reduction", f"reduction(k={k})", run))
    for x2 in rng.uniform(0.0, nsgate.X2_MAX, VERIFY_CURVE):
        run = functools.partial(_curve_point, float(x2))
        ops.append(Op("curve", f"curve(x2={x2:.4f})", run))
    for case in range(VERIFY_SECTOR):
        modes, photons = 3 + case % 2, 3
        v_anc = nsgate.haar_unitary(modes - 1, rng)
        vec = _unit_vector(rng, nsgate.FockSector(modes, photons).dim)
        run = functools.partial(_sector_invariance, v_anc, photons, vec)
        ops.append(Op("lift", f"sector-invariance({modes},{photons})", run))
    for _ in range(VERIFY_ANALYTIC):
        lo = float(rng.uniform(0.0, 0.5))
        hi = float(rng.uniform(0.75, nsgate.X2_MAX))
        run = functools.partial(_analytic, lo, hi)
        ops.append(Op("analytic", f"maximize_boundary({lo:.3f},{hi:.3f})", run))

    cli_seed = int(rng.integers(0, 2**31))
    matrix_file = os.path.join(workdir, "optimize.json")
    cli_ops = (
        (
            "verify-klm",
            functools.partial(
                _cli_check,
                ["verify-klm", "--tol", "1e-10"],
                "success probability:",
                NS_TOL,
                target=0.25,
            ),
        ),
        (
            "scan-curve",
            functools.partial(
                _cli_table, ["scan-curve", "--grid-n", "201", "--format", "json"], 201, 3
            ),
        ),
        (
            "region",
            functools.partial(_cli_table, ["region", "--grid-n", "101"], 101 * 101, 4),
        ),
        (
            "kraus-check",
            functools.partial(
                _cli_check,
                ["kraus-check", "--modes", "4", "--seed", str(cli_seed)],
                "completeness defect:",
                COMPLETENESS_TOL,
            ),
        ),
        (
            "reduce-demo",
            functools.partial(
                _cli_check,
                ["reduce-demo", "--modes", "4", "--seed", str(cli_seed)],
                "difference:",
                REDUCTION_TOL,
            ),
        ),
        (
            "optimize->kraus-check",
            functools.partial(_cli_round_trip, cli_seed, matrix_file),
        ),
    )
    ops.extend(Op("cli", label, run) for label, run in cli_ops)
    return ops


# -- search workload ---------------------------------------------------------


def _search(total_modes, rank_s, seed):
    result = nsgate.numeric_search(
        total_modes, rank_s, restarts=SEARCH_RESTARTS, seed=seed
    )
    return _first_bad(
        _limit("best p", result.best_probability, SEARCH_P_MAX),
        _limit("max feasible p", result.max_feasible_probability, SEARCH_P_MAX),
        _limit("residual", result.residual, SEARCH_RESIDUAL, over=FAILED),
        _at_least("best p", result.best_probability, SEARCH_P_MIN),
    )


def _search_ops(rng, workdir):
    seeds = rng.integers(0, 2**31, size=2)
    return [
        Op(
            f"search_rank{rank_s}",
            f"numeric_search({modes} modes, rank {rank_s})",
            functools.partial(_search, modes, rank_s, int(seed)),
        )
        for (modes, rank_s), seed in zip(((3, 1), (4, 2)), seeds)
    ]


WORKLOADS = {"lift": _lift_ops, "verify": _verify_ops, "search": _search_ops}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The workload's ops, with every input drawn from ``seed``."""
    return WORKLOADS[workload](np.random.default_rng(seed), workdir)
