"""Command-line front end: verifications, region/curve scans, bound search."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bounds import SEARCH_MODE_CAP, _region_grid, numeric_search, scan_curve
from .conditional import (
    ConditionalScheme,
    DensityMatrix,
    apply_conditional,
    completeness_defect,
    kraus_operator,
)
from .fock import LopCircuit, haar_unitary
from .gate import (
    CONDITION_TOL,
    ancilla_block,
    klm_design,
    reduce_general_ancilla,
    verify_ns,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    # --tol must be finite and positive, the rule maximize_boundary applies.
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if 0 < value < math.inf:
        return value
    raise argparse.ArgumentTypeError(
        f"tolerance must be finite and positive, got {text!r}"
    )


def _int_flag(floor: int, what: str, cap: float = math.inf):
    # An integer flag in [floor, cap], refused at parse time with its name.
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = math.nan
        if floor <= value <= cap:
            return value
        bound = f"at most {cap}" if value > cap else f"an integer of at least {floor}"
        raise argparse.ArgumentTypeError(f"{what} must be {bound}, got {text!r}")

    return parse


#: One system mode plus at least one ancilla mode, and at most the modes of
#: an optimize run, whose three-photon lift stays within SECTOR_CAP.
_mode_count = _int_flag(2, "mode count", SEARCH_MODE_CAP)
_seed = _int_flag(0, "seed")


def _emit(text: str, output: str | None) -> int:
    if output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        print(f"cannot write {output}: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _format_column(col: np.ndarray, fmt: str) -> list[str]:
    # Format each distinct value once and gather the text by index: CSV
    # writes floats as {:.12g}, JSON writes every value as json.dumps does.
    # Floats are keyed on their bit pattern, not their value, so -0.0 keeps
    # its sign instead of merging with 0.0.
    is_float = col.dtype.kind == "f"
    _, first, inverse = np.unique(
        col.view(np.int64) if is_float else col, return_index=True, return_inverse=True
    )
    if fmt == "json":
        # One dump of every distinct value; no number's text holds ", ".
        text = json.dumps(col[first].tolist())[1:-1].split(", ")
    else:
        cell = "{:.12g}".format if is_float else str
        text = list(map(cell, col[first].tolist()))
    text = np.array(text, dtype=object)
    return text[inverse].tolist()


def _table(header: list[str], columns: list[np.ndarray], fmt: str) -> str:
    """Render equal-length 1-D columns (float64 or int) as CSV or JSON.

    The JSON text is byte for byte json.dumps({"header": header, "rows":
    rows}, sort_keys=True), written from the formatted cells.
    """
    # The rows are zipped where they are consumed: a zip that outlives its
    # join keeps every column's text alive while the table is written.
    cells = (_format_column(col, fmt) for col in columns)
    if fmt == "json":
        body = ", ".join(f"[{', '.join(row)}]" for row in zip(*cells))
        return f'{{"header": {json.dumps(header)}, "rows": [{body}]}}\n'
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _cmd_verify_klm(args) -> int:
    design = klm_design(2**-0.25, 2**-0.25)
    report = verify_ns(design.matrix, design.scheme())
    print(f"modes: {design.total_modes}")
    print(f"m0 = {report.m0:.12g}")
    print(f"m1 = {report.m1:.12g}")
    print(f"m2 = {report.m2:.12g}")
    print(f"condition residual:  {report.condition_residual:.3e}")
    print(f"success probability: {report.success_probability:.12g}")
    ok = (
        report.condition_residual <= args.tol
        and abs(report.success_probability - 0.25) <= args.tol
    )
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_scan_curve(args) -> int:
    samples = np.array([(s.x2, s.y2, s.p) for s in scan_curve(args.grid_n)])
    return _emit(_table(["x2", "y2", "p"], list(samples.T), args.format), args.output)


def _cmd_region(args) -> int:
    x2, y2, flag, p = _region_grid(args.grid_n)
    columns = [x2, y2, flag.astype(int), p]
    table = _table(["x2", "y2", "feasible", "p"], columns, args.format)
    return _emit(table, args.output)


def _cmd_optimize(args) -> int:
    result = numeric_search(
        total_modes=args.modes,
        rank_s=args.rank,
        restarts=args.restarts,
        seed=args.seed,
    )
    kkt = result.kkt_defect
    payload = {
        "best_probability": result.best_probability,
        "residual": result.residual,
        "restarts": result.restarts,
        "seed": result.seed,
        "evaluations": result.evaluations,
        "matrix": _encode_matrix(result.best_matrix),
        "working": result.working,
        "max_feasible_probability": result.max_feasible_probability,
        # nan when no endpoint works; JSON has no nan.
        "kkt_defect": None if math.isnan(kkt) else kkt,
        "free_modes": result.free_modes,
    }
    code = _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    if code == EXIT_OK and not result.working:
        return EXIT_VERIFY
    return code


def _encode_matrix(lop: LopCircuit) -> list:
    """Mode matrix as JSON rows of [re, im] pairs."""
    return [[[z.real, z.imag] for z in row] for row in lop.matrix.tolist()]


def _load_matrix(path: str) -> LopCircuit:
    """Read a matrix written by _encode_matrix, bare or under a "matrix" key.

    Its row count is held to the --modes range, in that flag's words
    (argparse.ArgumentTypeError), before its unitarity is checked.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):
        raw = raw.get("matrix")
    pairs = np.array(raw, dtype=float)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(
            f"matrix must be rows of [re, im] pairs, got shape {pairs.shape}"
        )
    _mode_count(str(len(pairs)))
    return LopCircuit(pairs[..., 0] + 1j * pairs[..., 1])


def _cmd_kraus_check(args) -> int:
    if args.matrix_file is not None:
        try:
            lop = _load_matrix(args.matrix_file)
        except argparse.ArgumentTypeError as err:
            raise ValueError(f"{args.matrix_file}: {err}") from None
        except (OSError, OverflowError, TypeError, ValueError) as err:
            print(f"cannot read {args.matrix_file}: {err}", file=sys.stderr)
            return EXIT_IO
    else:
        lop = haar_unitary(args.modes, np.random.default_rng(args.seed))
    scheme = ConditionalScheme.one_photon(lop.dim - 1, 0, (0,)).all_outcomes()
    defect = completeness_defect(scheme, lop)
    print(f"modes: {lop.dim}")
    print(f"outcomes enumerated: {scheme.rank}")
    print(f"completeness defect: {defect:.3e}")
    ok = defect <= args.tol
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_reduce_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    k = args.modes - 1
    chi = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    chi /= np.linalg.norm(chi)
    upstream = haar_unitary(args.modes, rng)
    scheme = ConditionalScheme.one_photon(k, 0, (0,))
    rho = DensityMatrix.pure(
        scheme.system_basis, np.full(scheme.system_basis.dim, 1.0)
    )

    # Route 1: superposed one-photon input, Kraus operator by linearity.
    m_chi = sum(
        chi[a]
        * kraus_operator(
            ConditionalScheme.one_photon(k, a, (0,)), upstream, scheme.outcomes[0]
        ).entries
        for a in range(k)
    )
    p_direct = float(np.trace(m_chi @ rho.entries @ m_chi.conj().T).real)

    # Route 2: fold the preparation into the circuit, basis-state input.
    folded = LopCircuit(
        upstream.matrix @ ancilla_block(1, reduce_general_ancilla(chi)).matrix
    )
    p_reduced = apply_conditional(scheme, folded, rho).probability

    print(f"probability with superposed input: {p_direct:.12g}")
    print(f"probability with reduced circuit:  {p_reduced:.12g}")
    diff = abs(p_direct - p_reduced)
    print(f"difference: {diff:.3e}")
    ok = diff <= args.tol
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="nsgate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-klm", help="verify the canonical 3-mode design")
    p.add_argument("--tol", type=_tolerance, default=CONDITION_TOL)
    p.set_defaults(func=_cmd_verify_klm)

    p = sub.add_parser("scan-curve", help="emit boundary-curve samples")
    p.add_argument("--grid-n", type=int, default=201)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_scan_curve)

    p = sub.add_parser("region", help="emit the feasibility-region grid")
    p.add_argument("--grid-n", type=int, default=101)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("optimize", help="run the numeric bound search")
    p.add_argument("--modes", type=int, default=3)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("kraus-check", help="completeness defect of a unitary")
    p.add_argument("--modes", type=_mode_count, default=3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--matrix-file", default=None)
    p.add_argument("--tol", type=_tolerance, default=CONDITION_TOL)
    p.set_defaults(func=_cmd_kraus_check)

    p = sub.add_parser("reduce-demo", help="one-photon input reduction check")
    p.add_argument("--modes", type=_mode_count, default=3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=_tolerance, default=CONDITION_TOL)
    p.set_defaults(func=_cmd_reduce_demo)

    return parser


@functools.cache
def _parser() -> _Parser:
    # Built once, on the first main call: a build costs about fifty parses.
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
