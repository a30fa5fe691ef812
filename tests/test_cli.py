import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nsgate.cli
from nsgate import (
    CONDITION_TOL,
    GRID_CAP,
    SEARCH_MODE_CAP,
    InfeasibleDesignError,
    LopCircuit,
    sample_region,
    scan_curve,
)
from nsgate.cli import _table, main

SRC = Path(__file__).resolve().parents[1] / "src"

X2_MAX = 2 * (math.sqrt(2.0) - 1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def per_cell_csv(header, rows):
    """The table as formatted one cell at a time, the reference for _table."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


class TestTable:
    # Repeats, both signed zeros, the smallest subnormal of each sign, a huge
    # value and values needing all twelve digits.
    FLOATS = np.array(
        [1 / 3, 0.0, -0.0, 5e-324, 1e300, X2_MAX, 1 / 3, -0.0, 0.0, 1e300,
         -5e-324, X2_MAX, 0.1, 5e-324]
    )
    FLAGS = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0])
    HEADER = ["a", "flag", "b"]

    def columns(self):
        # The reversed view is strided: a column need not be contiguous.
        return [self.FLOATS, self.FLAGS, self.FLOATS[::-1]]

    def rows(self):
        return list(zip(*(col.tolist() for col in self.columns())))

    def test_csv_matches_per_cell_formatting(self):
        text = _table(self.HEADER, self.columns(), "csv")
        assert text == per_cell_csv(self.HEADER, self.rows())
        assert text.splitlines()[3].startswith("-0,")

    def test_json_matches_row_dump(self):
        rows = [list(row) for row in self.rows()]
        expected = json.dumps({"header": self.HEADER, "rows": rows}, sort_keys=True)
        text = _table(self.HEADER, self.columns(), "json")
        assert text == expected + "\n"
        assert all(type(row[1]) is int for row in json.loads(text)["rows"])

    def test_no_rows(self):
        empty = [np.zeros(0), np.zeros(0, dtype=int)]
        assert _table(["x", "n"], empty, "csv") == "x,n\n"
        assert json.loads(_table(["x", "n"], empty, "json"))["rows"] == []


class TestVerifyKlm:
    def test_passes(self, capsys):
        code, out = run_cli(capsys, "verify-klm")
        assert code == 0
        assert "PASS" in out
        assert "0.25" in out

    def test_fails_with_absurd_tolerance(self, capsys):
        code, out = run_cli(capsys, "verify-klm", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out


class TestScanCurve:
    def test_header_and_rows(self, capsys):
        code, out = run_cli(capsys, "scan-curve", "--grid-n", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x2,y2,p"
        assert len(lines) == 4
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[2] == 0.0
        assert last[2] == pytest.approx(0.0, abs=1e-14)

    def test_rows_are_scan_curve_values(self, capsys):
        _, out = run_cli(capsys, "scan-curve", "--grid-n", "9")
        expected = [f"{s.x2:.12g},{s.y2:.12g},{s.p:.12g}" for s in scan_curve(9)]
        assert out.split("\n") == ["x2,y2,p", *expected, ""]

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run_cli(capsys, "scan-curve", "--grid-n", "33")
        _, out2 = run_cli(capsys, "scan-curve", "--grid-n", "33")
        assert out1 == out2

    def test_json_is_the_row_dump(self, capsys):
        # The default grid, byte for byte as json.dumps writes its rows.
        code, out = run_cli(capsys, "scan-curve", "--format", "json")
        assert code == 0
        rows = [[s.x2, s.y2, s.p] for s in scan_curve(201)]
        header = ["x2", "y2", "p"]
        expected = json.dumps({"header": header, "rows": rows}, sort_keys=True)
        assert out == expected + "\n"

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(grid_n=st.integers(2, GRID_CAP))
    @example(grid_n=2)
    @example(grid_n=GRID_CAP)
    def test_text_renders_scan_curve(self, grid_n):
        # At any grid size, the CSV and JSON text of the rows of scan_curve,
        # as the fixed-size tests above read them.
        header = ["x2", "y2", "p"]
        rows = [[s.x2, s.y2, s.p] for s in scan_curve(grid_n)]
        expected = {
            "csv": per_cell_csv(header, rows),
            "json": json.dumps({"header": header, "rows": rows}, sort_keys=True) + "\n",
        }
        for fmt, text in expected.items():
            argv = ["scan-curve", "--grid-n", str(grid_n), "--format", fmt]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            assert out.getvalue() == text

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "scan-curve", "--grid-n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["header"] == ["x2", "y2", "p"]
        assert len(payload["rows"]) == 3

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, _ = run_cli(capsys, "scan-curve", "--grid-n", "3", "--output", str(target))
        assert code == 0
        assert target.read_text().startswith("x2,y2,p\n")

    def test_unwritable_output_exits_2(self, capsys):
        code, _ = run_cli(
            capsys, "scan-curve", "--grid-n", "3", "--output", "/nonexistent/dir/x.csv"
        )
        assert code == 2


class TestRegion:
    def test_header_rows_and_origin(self, capsys):
        code, out = run_cli(capsys, "region", "--grid-n", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x2,y2,feasible,p"
        assert len(lines) == 5
        origin = lines[1].split(",")
        assert origin[2] == "1"

    def test_rows_are_sample_region_values(self, capsys):
        _, out = run_cli(capsys, "region", "--grid-n", "7")
        expected = [
            f"{x2:.12g},{y2:.12g},{int(flag)},{p:.12g}"
            for x2, y2, flag, p in sample_region(7)
        ]
        assert out.split("\n") == ["x2,y2,feasible,p", *expected, ""]

    def test_json_is_the_row_dump(self, capsys):
        # 2601 rows, byte for byte as json.dumps writes them, the feasibility
        # flag as an integer.
        code, out = run_cli(capsys, "region", "--grid-n", "51", "--format", "json")
        assert code == 0
        rows = [[x2, y2, int(flag), p] for x2, y2, flag, p in sample_region(51)]
        header = ["x2", "y2", "feasible", "p"]
        expected = json.dumps({"header": header, "rows": rows}, sort_keys=True)
        assert out == expected + "\n"

    def test_row_order_ascending(self, capsys):
        _, out = run_cli(capsys, "region", "--grid-n", "4")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)


class TestOptimize:
    def test_json_schema_and_bound(self, capsys):
        code, out = run_cli(
            capsys,
            "optimize", "--modes", "3", "--rank", "1",
            "--restarts", "0", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "best_probability", "residual", "restarts", "seed",
            "evaluations", "matrix", "working", "max_feasible_probability",
            "kkt_defect", "free_modes",
        }
        assert payload["best_probability"] <= 0.250001
        assert payload["restarts"] == 0
        assert payload["seed"] == 7
        assert len(payload["matrix"]) == 3
        assert all(len(row) == 3 for row in payload["matrix"])
        assert all(len(pair) == 2 for row in payload["matrix"] for pair in row)

    @pytest.mark.parametrize("rank, free, code", [(2, 0, 1), (1, 1, 0)])
    def test_free_modes_carry_the_theorems_verdict(self, capsys, rank, free, code):
        # f = n - 1 - s: no gate at f = 0 (exit 1), at most 1/4 otherwise.
        got, out = run_cli(
            capsys,
            "optimize", "--modes", "3", "--rank", str(rank),
            "--restarts", "0", "--seed", "7",
        )
        payload = json.loads(out)
        assert payload["free_modes"] == free
        assert got == code
        assert payload["working"] is (free > 0)
        assert payload["best_probability"] <= 0.250001

    def test_no_working_gate_exits_1_with_the_json(self, capsys):
        # Accepting both ancilla modes of a 3-mode circuit leaves no free
        # mode, and no gate works.
        code, out = run_cli(
            capsys,
            "optimize", "--modes", "3", "--rank", "2",
            "--restarts", "5", "--seed", "1",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["working"] is False
        assert payload["residual"] > 1e-6
        assert payload["kkt_defect"] is None

    def test_no_working_gate_still_writes_the_json(self, capsys, tmp_path):
        path = tmp_path / "best.json"
        code, out = run_cli(
            capsys,
            "optimize", "--modes", "3", "--rank", "2",
            "--restarts", "0", "--output", str(path),
        )
        assert code == 1
        assert out == ""
        assert json.loads(path.read_text())["working"] is False

    def test_working_search_reports_its_verdict(self, capsys):
        code, out = run_cli(capsys, "optimize", "--restarts", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["working"] is True
        assert payload["max_feasible_probability"] <= 0.250001
        assert 0 <= payload["kkt_defect"] <= 1e-6

    def test_output_feeds_kraus_check(self, capsys, tmp_path):
        path = tmp_path / "best.json"
        code, _ = run_cli(
            capsys, "optimize", "--restarts", "0", "--output", str(path)
        )
        assert code == 0
        code, out = run_cli(capsys, "kraus-check", "--matrix-file", str(path))
        assert code == 0
        assert "modes: 3" in out
        assert "PASS" in out

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        restarts=st.integers(0, 2),
        shape=st.sampled_from([(3, 1), (4, 1), (4, 2), (5, 1), (5, 3)]),
    )
    def test_output_round_trips_through_kraus_check(
        self, tmp_path_factory, seed, restarts, shape
    ):
        # Every shape keeps a free mode, so the search works and exits 0; the
        # matrix it writes is read back and passes the completeness check.
        # With no restarts only the fixed start runs, so the seed does not
        # change the matrix; restarts and the shape do.
        path = tmp_path_factory.mktemp("round_trip") / "best.json"
        modes, rank = shape
        argv = [
            "optimize", "--modes", str(modes), "--rank", str(rank),
            "--restarts", str(restarts), "--seed", str(seed), "--output", str(path),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["kraus-check", "--matrix-file", str(path)]) == 0
        lines = out.getvalue().splitlines()
        assert lines[0] == f"modes: {modes}"
        defect = float(lines[2].removeprefix("completeness defect: "))
        assert defect <= CONDITION_TOL
        assert lines[-1] == "PASS"


class TestKrausCheck:
    def test_random_seeded_unitary(self, capsys):
        code, out = run_cli(capsys, "kraus-check", "--modes", "3", "--seed", "1")
        assert code == 0
        assert "PASS" in out

    def test_matrix_file(self, capsys, tmp_path):
        s = 1 / math.sqrt(2.0)
        rows = [[[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]]
        path = tmp_path / "u.json"
        path.write_text(json.dumps(rows))
        code, out = run_cli(capsys, "kraus-check", "--matrix-file", str(path))
        assert code == 0
        assert "PASS" in out

    def test_sector_above_cap_is_usage_error(self, capsys, tmp_path):
        # 21 ancilla modes would give a 3-photon outcome sector of 1771
        # states.  A file of that many modes is refused by the --modes range
        # before any sector is built.
        path = tmp_path / "u.json"
        path.write_text(json.dumps(nsgate.cli._encode_matrix(LopCircuit(np.eye(22)))))
        assert main(["kraus-check", "--matrix-file", str(path)]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert f"mode counts must be in 2..{SEARCH_MODE_CAP}, got 22" in err

    @pytest.mark.parametrize(
        "modes, message",
        [
            (1, f"mode counts must be in 2..{SEARCH_MODE_CAP}, got 1"),
            (SEARCH_MODE_CAP + 5, f"mode counts must be in 2..{SEARCH_MODE_CAP}, "
             f"got {SEARCH_MODE_CAP + 5}"),
        ],
    )
    def test_matrix_modes_outside_the_modes_range_is_usage_error(
        self, capsys, tmp_path, modes, message
    ):
        # The wording --modes uses, after the file's name; no traceback.  The
        # count is held before the unitarity check, so the file is refused
        # whatever its entries: the identity, 2 I (not unitary) or NaN.
        path = tmp_path / "u.json"
        for entry in (1.0, 2.0, math.nan):
            rows = (entry * np.eye(modes)).tolist()
            path.write_text(json.dumps([[[z, 0.0] for z in row] for row in rows]))
            assert main(["kraus-check", "--matrix-file", str(path)]) == 64
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"nsgate: error: {path}: {message}\n"

    @pytest.mark.parametrize("content", ["[[[2, 0]]]", "[[[NaN, 0]]]"])
    def test_one_mode_file_exits_64(self, capsys, tmp_path, content):
        # One mode is below the --modes range, so the file is refused as a
        # usage error before its entry is read as not unitary or not finite.
        path = tmp_path / "u.json"
        path.write_text(content)
        assert main(["kraus-check", "--matrix-file", str(path)]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"nsgate: error: {path}: mode counts must be in 2..{SEARCH_MODE_CAP}, "
            "got 1\n"
        )

    def test_missing_matrix_file_exits_2(self, capsys):
        code, _ = run_cli(capsys, "kraus-check", "--matrix-file", "/no/such/file")
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        [
            "[[1, 2], [3, 4]]",
            "[[[1, 0], [0]], [[0, 0], [1, 0]]]",
            '{"matrix": [1, 2]}',
            '{"other": 1}',
            '[[["a", "b"]]]',
            # Two modes, in the --modes range: not unitary, and not finite.
            "[[[2, 0], [0, 0]], [[0, 0], [1, 0]]]",
            "[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]",
            "[[[1" + "0" * 400 + ", 0]]]",
            "not json",
        ],
    )
    def test_malformed_matrix_file_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        code = main(["kraus-check", "--matrix-file", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"cannot read {path}")


    def test_infinite_imaginary_part_is_one_line(self, capsys, tmp_path):
        # The pairs become entries with no arithmetic, so numpy has nothing
        # to warn on (1j * inf is nan + inf j, "invalid value") before
        # LopCircuit refuses the entry.
        path = tmp_path / "inf.json"
        path.write_text("[[[1, 0], [0, 0]], [[0, 0], [1e400, 1e400]]]")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["kraus-check", "--matrix-file", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"cannot read {path}: mode matrices must be finite, "
            "got non-finite entries\n"
        )


class TestReduceDemo:
    def test_probabilities_agree(self, capsys):
        code, out = run_cli(capsys, "reduce-demo", "--modes", "4", "--seed", "3")
        assert code == 0
        assert "PASS" in out
        lines = [l for l in out.strip().split("\n") if "probability" in l]
        vals = [float(l.rsplit(" ", 1)[1]) for l in lines]
        assert vals[0] == pytest.approx(vals[1], abs=1e-10)


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 64

    def test_malformed_numeric_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan-curve", "--grid-n", "many"])
        assert excinfo.value.code == 64

    def test_missing_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 64

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("command", ["verify-klm", "kraus-check", "reduce-demo"])
    def test_bad_tolerance_is_usage_error(self, capsys, command, tol):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--tol", tol])
        assert excinfo.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --tol: tolerance must be finite and positive" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["kraus-check", "--modes", "1"], "--modes: mode counts must be in "
             f"2..{SEARCH_MODE_CAP}, got 1"),
            (["reduce-demo", "--modes", "0"], "--modes: mode counts must be in "
             f"2..{SEARCH_MODE_CAP}, got 0"),
            (["kraus-check", "--seed", "-1"], "--seed: seeds must be non-negative, "
             "got -1"),
            (["reduce-demo", "--seed", "-1"], "--seed: seeds must be non-negative, "
             "got -1"),
            # Three photons on SEARCH_MODE_CAP + 1 modes exceed SECTOR_CAP;
            # refused while parsing, before any unitary is built.
            (["kraus-check", "--modes", str(SEARCH_MODE_CAP + 1)], "--modes: mode "
             f"counts must be in 2..{SEARCH_MODE_CAP}, got {SEARCH_MODE_CAP + 1}"),
            (["reduce-demo", "--modes", str(SEARCH_MODE_CAP + 1)], "--modes: mode "
             f"counts must be in 2..{SEARCH_MODE_CAP}, got {SEARCH_MODE_CAP + 1}"),
        ],
    )
    def test_bad_mode_count_or_seed_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: argument {message}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["optimize", "--modes", "2"], "argument --modes: mode counts must be at "
             "least 3, got 2"),
            (["optimize", "--rank", "0"], "ranks must be in 1..2, got 0"),
            (["optimize", "--restarts", "-1"], "argument --restarts: restart counts "
             "must be non-negative, got -1"),
            (["optimize", "--seed", "1.5"], "argument --seed: seeds must be integers, "
             "got '1.5'"),
            (["kraus-check", "--modes", "1"], "argument --modes: mode counts must be "
             f"in 2..{SEARCH_MODE_CAP}, got 1"),
            (["reduce-demo", "--seed", "x"], "argument --seed: seeds must be "
             "integers, got 'x'"),
            (["region", "--grid-n", "1.5"], "argument --grid-n: grid sizes must be "
             "integers, got '1.5'"),
            (["scan-curve", "--grid-n", "1"], "argument --grid-n: grid sizes must be "
             "at least 2, got 1"),
        ],
    )
    def test_every_integer_flag_speaks_the_rule(self, capsys, argv, message):
        # One wording, fock._count's: while parsing, after the flag's name,
        # or, for --rank, whose range the library holds, as it refuses it.
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        out, err = capsys.readouterr()
        assert code == 64 and out == ""
        assert err.endswith(f"error: {message}\n")

    def test_semantic_value_errors_map_to_usage(self, capsys):
        for argv in (
            ["optimize", "--modes", "2", "--restarts", "0"],
            ["scan-curve", "--grid-n", "1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 64
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--grid-n", "0", "--grid-n", "18"],
            ["optimize", "--seed", "-1", "--seed", "3", "--restarts", "0"],
        ],
    )
    def test_every_value_of_a_repeated_flag_holds_its_range(self, capsys, argv):
        # A value out of range is refused while parsing, even when a later
        # value of the same flag is in range.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 64
        out, err = capsys.readouterr()
        assert out == "" and f"error: argument {argv[1]}: " in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-curve", "--grid-n", str(GRID_CAP + 1)],
            ["region", "--grid-n", str(GRID_CAP + 1)],
            ["optimize", "--modes", str(SEARCH_MODE_CAP + 1), "--restarts", "0"],
        ],
    )
    def test_size_above_cap_is_usage_error(self, capsys, argv):
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("nsgate: error: ")
        assert "exceed" in err and len(err.splitlines()) == 1

    def test_usage_error_leaves_next_call_working(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 64
        assert main(["verify-klm"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_infeasible_design_maps_to_usage(self, capsys, monkeypatch):
        def infeasible(u12, u21):
            raise InfeasibleDesignError(["row 0 normalization: too large"])

        monkeypatch.setattr(nsgate.cli, "klm_design", infeasible)
        assert main(["verify-klm"]) == 64
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("nsgate: error: row 0 normalization")


def test_non_search_subcommands_leave_scipy_unloaded():
    # A fresh interpreter: this test process may have imported scipy already.
    script = """
import contextlib, io, sys
import nsgate, nsgate.cli
for argv in (["verify-klm"], ["scan-curve"], ["region", "--grid-n", "5"],
             ["kraus-check"], ["reduce-demo"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert nsgate.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _flag_values():
    """Values per flag: small numbers, each cap + 1, negatives and junk text.

    No drawn value starts a large allocation or a long run: grids stay at 50
    points or below unless they are GRID_CAP + 1, mode counts at 5 unless
    they are SEARCH_MODE_CAP + 1, and a search makes at most one restart
    (see cli_argvs).  Paths are names in the working directory.
    """
    junk = st.sampled_from(["", "x", "1.5", "2e3", "0x10", "--", " 3", "1" * 5000])

    def ints(lo, hi, *extra):
        # Mostly in range; otherwise out of it or not a number.
        in_range = st.integers(lo, hi).map(str)
        return st.one_of(in_range, in_range, st.sampled_from(extra).map(str), junk)

    paths = st.sampled_from(["out.txt", "good.json", "bad.json", "no/out.txt", "."])
    return {
        "--grid-n": ints(2, 50, -3, 0, 1, GRID_CAP + 1),
        "--modes": ints(2, 5, -2, 0, 1, SEARCH_MODE_CAP + 1),
        "--rank": ints(1, 4, -1, 0, 5),
        "--restarts": ints(0, 1, -1),
        "--seed": ints(0, 2**32, -3, -1),
        "--tol": junk | st.sampled_from(["nan", "inf", "0", "-1", "1e-10", "1"]),
        "--format": junk | st.sampled_from(["csv", "json", "xml"]),
        "--output": paths,
        "--matrix-file": paths,
    }


_SUBCOMMAND_FLAGS = {
    "verify-klm": ["--tol"],
    "scan-curve": ["--grid-n", "--output", "--format"],
    "region": ["--grid-n", "--output", "--format"],
    "optimize": ["--modes", "--rank", "--restarts", "--seed", "--output"],
    "kraus-check": ["--modes", "--seed", "--matrix-file", "--tol"],
    "reduce-demo": ["--modes", "--seed", "--tol"],
}


@st.composite
def cli_argvs(draw):
    """A subcommand and up to three of its flags in any order, with values.

    A flag left without its value and an unknown flag are drawn too.  A
    search starts from --restarts 1, which a drawn --restarts overrides,
    instead of the default 50.
    """
    values = _flag_values()
    command = draw(st.sampled_from(list(_SUBCOMMAND_FLAGS)))
    flags = draw(st.lists(st.sampled_from(_SUBCOMMAND_FLAGS[command]), max_size=3))
    argv = [command, "--restarts", "1"] if command == "optimize" else [command]
    for flag in flags:
        argv += [flag, draw(values[flag])]
    tail = [[], ["--modes"], ["--no-such-flag", "1"]]
    return argv + draw(st.sampled_from(tail) if draw(st.booleans()) else st.just([]))


class TestArgvFuzz:
    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=cli_argvs())
    # Each cap + 1, and a search that finds no working gate (exit 1).
    @example(argv=["kraus-check", "--modes", str(SEARCH_MODE_CAP + 1)])
    @example(argv=["reduce-demo", "--modes", str(SEARCH_MODE_CAP + 1)])
    @example(argv=["optimize", "--modes", str(SEARCH_MODE_CAP + 1)])
    @example(argv=["region", "--grid-n", str(GRID_CAP + 1)])
    @example(argv=["scan-curve", "--grid-n", str(GRID_CAP + 1)])
    @example(argv=["optimize", "--rank", "2", "--restarts", "0"])
    def test_every_argv_exits_with_a_known_code(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        # An exception that escaped main would print a traceback; argparse
        # exits through SystemExit.
        monkeypatch.chdir(tmp_path)
        Path("good.json").write_text(
            json.dumps(nsgate.cli._encode_matrix(LopCircuit(np.eye(3))))
        )
        Path("bad.json").write_text("not json")
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        err = capsys.readouterr().err
        assert code in {0, 1, 2, 64}, (argv, err)
        assert "Traceback" not in err
