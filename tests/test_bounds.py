import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import types
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nsgate import (
    CONDITION_TOL,
    FEASIBLE_RESIDUAL,
    GRID_CAP,
    KKT_TOL,
    SEARCH_MODE_CAP,
    SECTOR_CAP,
    CapacityError,
    ConditionalScheme,
    InfeasibleDesignError,
    X2_MAX,
    boundary_y2,
    complete_to_unitary,
    complete_design,
    feasible,
    generalized_design,
    haar_unitary,
    maximize_boundary,
    numeric_search,
    probability_on_boundary,
    sample_region,
    scan_curve,
    verify_ns,
)
from nsgate import bounds
from nsgate.bounds import (
    _K,
    _TIE_TOL,
    OptimizationResult,
    _constraint_jacobian,
    _curve_grid,
    _gate_figures,
    _objective_gradient,
    _pair,
    _search_constraints,
    _works,
)
from nsgate.fock import LopCircuit, _isometry_residual, _polar_completion
from nsgate.gate import _fixed_block

SQRT2 = math.sqrt(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"

# frozen by direct evaluation of the curve formulas
Y2_AT_HALF = 0.7928932188134524
P_AT_HALF = 0.1982233047033631


class TestFeasible:
    def test_origin_feasible(self):
        assert feasible(0.0, 0.0)

    def test_corner_infeasible(self):
        assert not feasible(X2_MAX, X2_MAX)

    def test_x2_cap(self):
        assert not feasible(X2_MAX + 1e-6, 0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            feasible(-0.1, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_rejected(self, bad, slot):
        args = [0.1, 0.1]
        args[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            feasible(*args)

    def test_boundary_is_feasible_but_beyond_is_not(self):
        for x2 in np.linspace(0.0, X2_MAX, 50):
            y2 = boundary_y2(x2)
            assert feasible(x2, y2)
            assert not feasible(x2, y2 + 1e-3)


class TestBoundaryCurve:
    def test_endpoint_zero(self):
        assert boundary_y2(X2_MAX) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_point(self):
        assert boundary_y2(1 / SQRT2) == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_frozen_value_at_half(self):
        assert boundary_y2(0.5) == pytest.approx(Y2_AT_HALF, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            boundary_y2(X2_MAX + 0.01)
        with pytest.raises(ValueError):
            boundary_y2(-0.01)

    def test_involution_symmetry(self):
        for x2 in np.linspace(0.0, X2_MAX, 200):
            assert boundary_y2(boundary_y2(x2)) == pytest.approx(x2, abs=1e-9)

    def test_sample_invariants(self):
        for s in scan_curve(50):
            x2 = s.x2
            assert s.A == pytest.approx(abs((1 - SQRT2) + x2 / SQRT2), abs=1e-14)
            assert s.B == pytest.approx(X2_MAX - x2, abs=1e-14)
            assert s.C == pytest.approx(1 + x2 / 2, abs=1e-14)
            assert s.y2 * (s.A**2 + s.B * s.C) == pytest.approx(s.B, abs=1e-12)


class TestProbabilityOnBoundary:
    def test_zero_at_origin(self):
        assert probability_on_boundary(0.0) == 0.0

    def test_peak_value(self):
        assert probability_on_boundary(1 / SQRT2) == pytest.approx(0.25, abs=1e-12)

    def test_frozen_value_at_half(self):
        assert probability_on_boundary(0.5) == pytest.approx(P_AT_HALF, abs=1e-12)

    @pytest.mark.parametrize(
        "x2",
        [-1e-12, -1e-13, -5e-324, np.nextafter(X2_MAX, 1.0), X2_MAX + 1e-12],
    )
    def test_zero_within_the_domain_slack(self, x2):
        # x^2 is clamped before any figure, so p is 0, not a small negative
        # number, just below 0 and just above X2_MAX.
        assert probability_on_boundary(x2) == 0.0


class TestMaximizeBoundary:
    def test_tight_tolerance(self):
        x2_star, p_star = maximize_boundary(1e-10)
        assert x2_star == pytest.approx(0.7071068, abs=1e-6)
        assert p_star == pytest.approx(0.25, abs=1e-10)

    def test_coarse_tolerance(self):
        _, p_star = maximize_boundary(1e-3)
        assert 0.2499 <= p_star <= 0.25 + 1e-12

    def test_restricted_interval_endpoint_max(self):
        x2_star, p_star = maximize_boundary(1e-10, lo=0.0, hi=0.2)
        grid = np.linspace(0.0, 0.2, 2001)
        grid_max = max(probability_on_boundary(x) for x in grid)
        assert x2_star == pytest.approx(0.2, abs=1e-6)
        assert p_star == pytest.approx(grid_max, abs=1e-9)
        assert p_star < 0.25

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            maximize_boundary(0.0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            maximize_boundary(math.nan)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, -1.0, "1e-10", None])
    def test_tolerance_follows_the_cli_rule(self, tol):
        # fock._tolerance, which --tol parses through: a finite, positive real.
        message = f"tolerance must be finite and positive, got {tol!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            maximize_boundary(tol)


class TestExactCertificate:
    # A = (1 - sqrt(2)) + s/sqrt(2), B = c - s, C = 1 + s/2 with
    # c = 2 sqrt(2) - 2 and k = 4 - 2 sqrt(2).  Along the boundary
    # t = B/(A^2 + BC), so 1/4 - s t/2 = (A^2 + BC - 2 s B)/(4 (A^2 + BC)).
    # Every identity is an exact polynomial identity over Q(sqrt(2)).
    r2 = sympy.sqrt(2)
    s = sympy.Symbol("s")
    c = 2 * r2 - 2
    k = 4 - 2 * r2
    A = (1 - r2) + s / r2
    B = c - s
    C = 1 + s / 2

    def test_denominator_is_linear(self):
        # A^2 + BC = 1 - k s, so the boundary is the hyperbola (c - s)/(1 - k s).
        A, B, C = self.A, self.B, self.C
        assert sympy.expand(A**2 + B * C - (1 - self.k * self.s)) == 0

    def test_gap_to_quarter_is_a_square(self):
        # A^2 + BC - 2 s B = (sqrt(2) s - 1)^2: p <= 1/4, with equality only
        # at s = 1/sqrt(2).
        A, B, C, s = self.A, self.B, self.C, self.s
        assert sympy.expand(A**2 + B * C - 2 * s * B - (self.r2 * s - 1) ** 2) == 0

    def test_float_constants_match(self):
        # The module's k and c are the floats of the exact a + b sqrt(2) used
        # here, rounded as a + b*SQRT2 (a direct float() of the expression
        # lands one ulp off).
        for value, exact in ((_K, self.k), (X2_MAX, self.c)):
            a, b = exact.coeff(self.r2, 0), exact.coeff(self.r2, 1)
            assert exact == a + b * self.r2
            assert value == float(a) + float(b) * SQRT2

    def symbolic_block(self, rank):
        # The fixed block F of generalized_design(x, [y_1..y_rank], n): row 0
        # is (1 - sqrt 2, x) and row j is (y_j, x y_j / sqrt 2).
        x = sympy.Symbol("x")
        ys = sympy.symbols(f"y1:{rank + 1}")
        rows = [[1 - self.r2, x]] + [[y, x * y / self.r2] for y in ys]
        return (x, *ys), np.array(rows, dtype=object)

    def gram_at(self, s, t):
        # G of the rank-1 block at x = sqrt(s), y = sqrt(t); G depends on the
        # y_j only through t, so this is G at every rank.
        (x, y), f = self.symbolic_block(1)
        at = {x: sympy.sqrt(s), y: sympy.sqrt(t)}
        return -_isometry_residual(np.vectorize(lambda e: sympy.sympify(e).subs(at))(f))

    def test_design_gram_entries(self):
        # The Gram G = I - F†F of the two fixed columns of a design with
        # s = |x|^2 and t = sum |y_j|^2, at every rank, is A, B, C read at t:
        # G00 = B(t), G11 = 1 - s C(t), G01 G10 = |G01|^2 = s A(t)^2.  So
        # det G = B(t) - s (A^2 + BC)(t) = c - s - t + k s t by the linear
        # denominator, and G depends on the y_j only through t.  G comes
        # from the residual every unitarity check reads, run on symbols.
        for rank in (1, 2, 3):
            (x, *ys), f = self.symbolic_block(rank)
            g = -_isometry_residual(f)
            s = x * sympy.conjugate(x)
            t = sum(y * sympy.conjugate(y) for y in ys)
            identities = (
                (g[0, 0], self.c - t),
                (g[1, 1], 1 - s - s * t / 2),
                (g[0, 1] * g[1, 0], s * ((1 - self.r2) + t / self.r2) ** 2),
                (
                    g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0],
                    self.c - s - t + self.k * s * t,
                ),
            )
            for entry, exact in identities:
                assert sympy.expand(entry - exact) == 0

    def test_no_free_mode_admits_no_gate(self):
        # Step 3 of the bounds docstring: f = 0 free modes need rank G <= 0,
        # so G = 0.  On the rank-1 block at x = sqrt(s) and
        # y = sqrt(t), s, t >= 0 (G depends on the y_j only through t):
        # G00 = 0 forces t = c; there G01 G10 = s (3 - 2 sqrt 2)^2, zero only
        # at s = 0; and there G11 = 1, not 0.
        s, t = sympy.symbols("s t", nonnegative=True)
        g = self.gram_at(s, t)
        g00 = sympy.expand(g[0, 0])
        assert sympy.diff(g00, t) == -1 and g00.subs(t, self.c) == 0
        cross = sympy.expand(g[0, 1] * g[1, 0]).subs(t, self.c)
        assert sympy.expand(cross - s * (3 - 2 * self.r2) ** 2) == 0
        assert (3 - 2 * self.r2).is_zero is False
        assert sympy.expand(g[1, 1]).subs({t: self.c, s: 0}) == 1

    def test_one_free_mode_admits_exactly_the_boundary(self):
        # Step 2's f = 1 case: one free mode needs rank G <= 1, which for the
        # 2 x 2 G is det G = c - s - t + k s t = 0, the hyperbola
        # t = (c - s)/(1 - k s) of boundary_y2.  On the rank-1 block at
        # x = sqrt(s), y = sqrt(t) with that t, det G is identically 0 and
        # G00 = s (3 - 2 sqrt 2)^2 / (1 - k s), as 1 - k c = 17 - 12 sqrt 2
        # = (3 - 2 sqrt 2)^2.  For 0 < s <= c, 1 - k s >= 1 - k c > 0, so
        # G00 > 0; at s = 0, G11 = 1.  So G != 0 and rank G = 1 on the whole
        # boundary: one free mode completes it, and no point off it.
        s, t = sympy.symbols("s t", nonnegative=True)
        boundary = (self.c - s) / (1 - self.k * s)
        for x2 in np.linspace(0.0, X2_MAX, 7):
            exact = boundary.subs(s, sympy.Float(x2, 30))
            assert boundary_y2(x2) == pytest.approx(float(exact), abs=1e-12)
        g = self.gram_at(s, t)

        def on_curve(e):
            return sympy.simplify(sympy.expand(e).subs(t, boundary))

        assert on_curve(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) == 0
        assert sympy.expand(1 - self.k * self.c - (3 - 2 * self.r2) ** 2) == 0
        g00 = s * (3 - 2 * self.r2) ** 2 / (1 - self.k * s)
        assert on_curve(g[0, 0] - g00) == 0
        assert (1 - self.k * self.c).is_positive
        assert on_curve(g[1, 1]).subs(s, 0) == 1

    def test_region_is_the_positive_semidefinite_gram(self):
        # Step 1's "the region is {G >= 0}": for s, t >= 0, G >= 0 iff s <= c,
        # t <= c and det G >= 0, which is feasible without its slack, as
        # det G = c - (s + t - k s t).  A 2 x 2 Hermitian G is PSD iff G00,
        # G11 and det G are >= 0; G00 = c - t and G01 G10 = s A(t)^2 >= 0.
        # If: for t < c, G00 > 0 and G00 G11 = det G + G01 G10 >= 0 give
        # G11 >= 0; at t = c, det G = -s (3 - 2 sqrt 2)^2 forces s = 0, where
        # G11 = 1.  Only if: t <= c by G00, and were s > c, det G =
        # t (k c - 1) + (c - s)(1 - k t) < 0, as k c - 1 = -(3 - 2 sqrt 2)^2
        # and 1 - k t >= 1 - k c > 0 (k > 0).
        s, t = sympy.symbols("s t", nonnegative=True)
        g = self.gram_at(s, t)
        det = sympy.expand(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
        c, k, square = self.c, self.k, (3 - 2 * self.r2) ** 2
        assert sympy.expand(det - (c - (s + t - k * s * t))) == 0
        assert sympy.expand(g[0, 0] - (c - t)) == 0
        assert sympy.expand(g[0, 1] * g[1, 0] - s * self.A.subs(self.s, t) ** 2) == 0
        assert sympy.expand(det.subs(t, c) + s * square) == 0
        assert sympy.expand(g[1, 1]).subs({t: c, s: 0}) == 1
        assert sympy.expand(det - (t * (k * c - 1) + (c - s) * (1 - k * t))) == 0
        assert sympy.expand(k * c - 1 + square) == 0
        assert square.is_positive and k.is_positive and (1 - k * c).is_positive

    def test_quarter_bounds_the_whole_region(self):
        # Step 1's "p <= 1/4 on the region": for s <= c, 1 - k s >= 1 - k c
        # = (3 - 2 sqrt 2)^2 > 0 and det G = (c - s) - (1 - k s) t, so
        # det G >= 0 iff t <= (c - s)/(1 - k s), the boundary's y^2 at s.
        # So p = s t / 2 is at most the boundary's p at s, which
        # test_gap_to_quarter_is_a_square bounds by 1/4.  In one identity:
        # 4 (1 - k s)(1/4 - p) = (sqrt 2 s - 1)^2 + 2 s det G >= 0.
        s, t = sympy.symbols("s t", nonnegative=True)
        g = self.gram_at(s, t)
        det = sympy.expand(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
        c, k = self.c, self.k
        den, p = 1 - k * s, s * t / 2
        assert sympy.expand(det - ((c - s) - den * t)) == 0
        gap = (self.r2 * s - 1) ** 2 + 2 * s * det
        assert sympy.expand(4 * den * (sympy.Rational(1, 4) - p) - gap) == 0
        assert sympy.expand(1 - k * c - (3 - 2 * self.r2) ** 2) == 0
        assert k.is_positive and (1 - k * c).is_positive

    def test_symbolic_block_is_the_design_block(self, rng):
        # The block proved on above is the one generalized_design builds.
        for rank in (1, 2, 3):
            symbols, f = self.symbolic_block(rank)
            for _ in range(5):
                point = rng.uniform(-0.7, 0.7, (rank + 1, 2)) @ [1, 1j]
                numeric = _fixed_block(
                    generalized_design(point[0], point[1:], rank + 1).partial
                )[2]
                exact = sympy.lambdify(symbols, sympy.Matrix(f))(*point)
                assert np.abs(exact - numeric).max() <= 1e-15


def design_gram(design):
    # G = I - F†F for the fixed block F of a design's two columns.
    _, _, f = _fixed_block(design.partial)
    return np.eye(2) - f.conj().T @ f


def split_coupling(t, rank, rng):
    # Couplings y_1..y_rank with sum |y_j|^2 = t, random split and phases.
    weights = t * rng.dirichlet(np.ones(rank))
    return np.sqrt(weights) * np.exp(2j * math.pi * rng.random(rank))


def completion_outcome(design):
    # Free modes used and success probability of the completed design, or
    # the violation message.
    try:
        completed = complete_design(design, max_extra_modes=0)
    except InfeasibleDesignError as err:
        return str(err)
    report = verify_ns(completed.matrix, completed.scheme())
    assert report.condition_residual <= 1e-10
    return report.success_probability


class TestRankTheorem:
    # The theorem in the bounds docstring: a design with m accepted modes
    # completes iff G = I - F†F is positive semidefinite and its rank fits
    # in the f = n - 1 - m free modes, and G is the rank-1 G at
    # t = sum |y_j|^2.

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        s=st.floats(0.0, 1.0, allow_nan=False),
        t=st.floats(0.0, 1.0, allow_nan=False),
        rank=st.integers(2, 3),
        free=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_m_design_matches_rank_one(self, s, t, rank, free, seed):
        # Off the boundary the rank of G is not at the mercy of rounding.
        assume(abs(s + t - _K * s * t - X2_MAX) > 1e-9)
        rng = np.random.default_rng(seed)
        x = math.sqrt(s) * np.exp(2j * math.pi * rng.random())
        wide = generalized_design(
            x, split_coupling(t, rank, rng), total_modes=rank + 1 + free
        )
        narrow = generalized_design(x, [math.sqrt(t)], total_modes=2 + free)
        assert np.abs(design_gram(wide) - design_gram(narrow)).max() <= 1e-14
        assert wide.predicted_probability == pytest.approx(
            narrow.predicted_probability, abs=1e-15
        )
        outcome = completion_outcome(wide)
        expected = completion_outcome(narrow)
        if isinstance(expected, str):
            assert outcome == expected
        else:
            assert outcome == pytest.approx(expected, abs=1e-10)
            assert outcome == pytest.approx(s * t / 2, abs=1e-10)
        if free == 2:
            assert isinstance(outcome, float) is feasible(s, t)

    @pytest.mark.parametrize("free", [0, 1, 2])
    def test_free_modes_decide_completion(self, free):
        # An interior point (rank G = 2) completes iff f >= 2 and a boundary
        # point (rank G = 1) iff f >= 1, so accepting every ancilla mode
        # (f = 0) admits no gate.
        rng = np.random.default_rng(20240813)
        for rank in (1, 2, 3):
            for _ in range(30):
                s = rng.uniform(0.0, X2_MAX)
                edge = boundary_y2(s)
                for t, needs in ((rng.uniform(0.0, 0.99) * edge, 2), (edge, 1)):
                    x = math.sqrt(s) * np.exp(2j * math.pi * rng.random())
                    design = generalized_design(
                        x, split_coupling(t, rank, rng), total_modes=rank + 1 + free
                    )
                    outcome = completion_outcome(design)
                    if free >= needs:
                        assert outcome == pytest.approx(s * t / 2, abs=1e-10)
                    else:
                        assert outcome == (
                            f"rank {needs} needs {needs} free modes, have {free}"
                        )


class TestCompletionMatchesRegion:
    # Two free modes (n = 4, one accepted mode): every point of the region
    # completes, none outside it does.
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        s=st.floats(0.0, X2_MAX, allow_nan=False),
        t=st.floats(0.0, X2_MAX, allow_nan=False),
    )
    def test_completion_iff_feasible(self, s, t):
        assume(abs(s + t - _K * s * t - X2_MAX) > 1e-6)
        design = generalized_design(math.sqrt(s), [math.sqrt(t)], total_modes=4)
        if not feasible(s, t):
            with pytest.raises(InfeasibleDesignError):
                complete_to_unitary(design.partial)
            return
        circuit = complete_to_unitary(design.partial)
        assert abs(circuit.matrix[0, 0] - (1 - SQRT2)) <= 1e-12
        report = verify_ns(circuit, search_scheme(4, 1))
        assert report.condition_residual <= 1e-10
        assert report.success_probability == pytest.approx(s * t / 2, abs=1e-12)
        assert report.success_probability <= 0.25


class TestSampleRegion:
    def test_two_point_grid(self):
        rows = sample_region(2)
        assert len(rows) == 4
        assert rows[0][:2] == (0.0, 0.0)
        assert rows[0][2] is True

    def test_row_ordering(self):
        rows = sample_region(5)
        xs = [r[0] for r in rows]
        assert xs == sorted(xs)
        for i in range(4):
            chunk = [r[1] for r in rows[5 * i : 5 * (i + 1)]]
            assert chunk == sorted(chunk)

    def test_feasible_probabilities_bounded(self):
        for x2, y2, flag, p in sample_region(60):
            assert p == pytest.approx(x2 * y2 / 2, abs=1e-14)
            if flag:
                assert p <= 0.25 + 1e-9

    def test_flags_match_scalar_feasible(self):
        for x2, y2, flag, _ in sample_region(101):
            assert flag is feasible(x2, y2)


class TestScanCurve:
    def test_endpoints_have_zero_probability(self):
        samples = scan_curve(3)
        assert len(samples) == 3
        assert samples[0].p == pytest.approx(0.0, abs=1e-14)
        assert samples[-1].p == pytest.approx(0.0, abs=1e-14)

    def test_boundary_probability_consistency(self):
        for s in scan_curve(41):
            assert s.p == pytest.approx(probability_on_boundary(s.x2), abs=1e-14)

    @pytest.mark.parametrize("grid_n", [2, 50, 201, 1001])
    def test_columns_are_the_scalar_figures(self, grid_n):
        # The array and scalar views of the boundary agree bit for bit.
        columns = _curve_grid(grid_n)
        assert np.array_equal(columns[0], np.linspace(0.0, X2_MAX, grid_n))
        expected = [
            (
                x2,
                boundary_y2(x2),
                abs((1 - SQRT2) + x2 / SQRT2),
                X2_MAX - x2,
                1 + x2 / 2,
                probability_on_boundary(x2),
            )
            for x2 in columns[0].tolist()
        ]
        assert [tuple(row) for row in zip(*(c.tolist() for c in columns))] == expected
        assert [astuple(s) for s in scan_curve(grid_n)] == expected


class TestCurveCompletionAgreement:
    def test_completion_succeeds_on_boundary_and_fails_beyond(self):
        xs = np.linspace(0.0, X2_MAX, 1000)
        for i, x2 in enumerate(xs):
            y2 = boundary_y2(x2)
            design = generalized_design(
                math.sqrt(x2), [math.sqrt(y2)], total_modes=3
            )
            circuit = complete_to_unitary(design.partial)
            if i % 5 == 0:
                completed = complete_design(design, max_extra_modes=0)
                report = verify_ns(completed.matrix, completed.scheme())
                assert report.condition_residual <= 1e-10
                assert report.success_probability == pytest.approx(
                    x2 * y2 / 2, abs=1e-10
                )
            beyond = y2 + 1e-3
            assert not feasible(x2, beyond)
            bad = generalized_design(
                math.sqrt(x2), [math.sqrt(beyond)], total_modes=3
            )
            with pytest.raises(InfeasibleDesignError):
                complete_to_unitary(bad.partial)


def search_scheme(n, rank):
    return ConditionalScheme.one_photon(n - 1, 0, range(rank))


def accepted_rows(rank):
    return range(1, rank + 1)


class TestGateFigures:
    def test_closed_forms_match_amplitude_machinery(self, rng):
        for n, rank in [(3, 1), (4, 2), (5, 3)]:
            for _ in range(10):
                u = haar_unitary(n, rng)
                accept = accepted_rows(rank)
                fast = _gate_figures(u.matrix, accept)
                report = verify_ns(u, search_scheme(n, rank))
                assert fast[0] == pytest.approx(report.success_probability, abs=1e-12)
                assert fast[1] == pytest.approx(report.condition_residual, abs=1e-12)
                # the objective reads only the first two columns
                assert _gate_figures(u.matrix[:, :2], accept) == fast

    def test_parameterization_produces_unitaries(self, rng):
        # The endpoint map: the polar completion makes any pair orthonormal,
        # as the first two columns of a unitary that completes it.
        for n in (3, 4, 5):
            u = _polar_completion(_pair(rng.standard_normal(4 * n), n))
            assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-14

    def test_endpoint_map_keeps_an_orthonormal_pair(self, rng):
        for n in (3, 4, 5):
            pair = haar_unitary(n, rng).matrix[:, :2]
            assert np.abs(_polar_completion(pair)[:, :2] - pair).max() <= 1e-14

    def test_search_result_completes_a_working_pair(self):
        for n, rank in [(3, 1), (4, 2)]:
            r = numeric_search(n, rank, restarts=1, seed=n)
            assert isinstance(r.best_matrix, LopCircuit)
            pair = r.best_matrix.matrix[:, :2]
            prob, residual = _gate_figures(pair, accepted_rows(rank))
            assert residual <= FEASIBLE_RESIDUAL
            assert prob == pytest.approx(r.best_probability, abs=1e-12)


def central_differences(fun, x, h=1e-6):
    # Exact up to rounding for the degree-2 polynomials of the search.
    cols = [(fun(x + h * e) - fun(x - h * e)) / (2 * h) for e in np.eye(x.size)]
    return np.array(cols).T


class TestSearchDerivatives:
    @pytest.mark.parametrize("n, rank", [(3, 1), (4, 2), (5, 3)])
    def test_exact_derivatives_match_central_differences(self, rng, n, rank):
        # Differentiated over the 4n reals, this checks the packed-gradient
        # rule against the real layout of _pair.
        accept = accepted_rows(rank)

        def over_reals(f):
            return lambda v: f(_pair(v, n), accept)

        def objective(pair, accept):
            return -_gate_figures(pair, accept)[0]

        for _ in range(5):
            x = rng.standard_normal(4 * n)
            grad = over_reals(_objective_gradient)(x)
            fd = central_differences(over_reals(objective), x)
            assert np.abs(grad - fd).max() <= 1e-6 * np.abs(grad).max()
            jac = over_reals(_constraint_jacobian)(x)
            fd = central_differences(over_reals(_search_constraints), x)
            assert jac.shape == (4 + 2 * (rank + 1), 4 * n)
            assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max()

    def test_constraints_vanish_on_a_working_design(self):
        design = complete_design(
            generalized_design(2**-0.25, [2**-0.25], total_modes=3),
            max_extra_modes=0,
        )
        pair = design.matrix.matrix[:, :2]
        assert np.abs(_search_constraints(pair, accepted_rows(1))).max() <= 1e-12


# Seeds 1-10, the benchmark's held-out seed 7919 and the acceptance seed.
PINNED_SEEDS = (*range(1, 11), 7919, 20240807)
SEARCH_SHAPES = ((3, 1), (4, 2), (5, 3))


def pinned_examples(test):
    for seed in PINNED_SEEDS:
        for shape in SEARCH_SHAPES:
            test = example(seed=seed, shape=shape)(test)
    return test


class TestCaps:
    """Sizes above a cap are refused before anything is built.

    A refusal stays far below 64 KB traced; the refused region grid alone
    would take 8 MB, and the curve 1002 sample objects.  Small sizes are
    accepted by the tests of each function.
    """

    @staticmethod
    def refusal_peak(call, *args, match):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=match):
                call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_grid_above_cap_refused(self):
        for scan in (scan_curve, sample_region):
            peak = self.refusal_peak(scan, GRID_CAP + 1, match=f"cap of {GRID_CAP}")
            assert peak < 64 * 1024

    def test_search_modes_above_cap_refused(self):
        args = (SEARCH_MODE_CAP + 1, 1, 0, 0)
        match = f"search cap of {SEARCH_MODE_CAP}"
        assert self.refusal_peak(numeric_search, *args, match=match) < 64 * 1024

    def test_search_cap_is_the_largest_verifiable_mode_count(self):
        # The best endpoint is verified on a lift of three photons.
        assert math.comb(SEARCH_MODE_CAP + 2, 3) <= SECTOR_CAP
        assert math.comb(SEARCH_MODE_CAP + 3, 3) > SECTOR_CAP


def result_of(lop, accept_modes):
    """An OptimizationResult holding a 3-mode circuit, with its verify_ns
    figures for the photon in at mode 1 and accepted at accept_modes."""
    scheme = ConditionalScheme.one_photon(2, 0, [j - 1 for j in accept_modes])
    report = verify_ns(lop, scheme)
    return OptimizationResult(
        best_probability=report.success_probability,
        best_matrix=lop,
        residual=report.condition_residual,
        restarts=0,
        seed=0,
        evaluations=0,
        max_feasible_probability=0.0,
        kkt_defect=math.nan,
        free_modes=2 - len(accept_modes),
    )


class TestWorkingVerdict:
    """A working result meets m0 = m1 = -m2 by the entry rule, not on the
    zero-probability branch of the sign-shift conditions."""

    def test_zero_probability_branch_is_not_working(self):
        # The mode 1-2 swap: residual 0 and p = 0, entry-rule defects
        # (sqrt 2, 0).
        swap = LopCircuit(np.eye(3)[[0, 2, 1]])
        result = result_of(swap, (1,))
        assert result.residual == 0 and result.best_probability == 0
        assert not result.working
        # The search's per-endpoint rule reads the same pair alike.
        assert not _works(swap.matrix[:, :2], range(1, 2), 0.0)

    def test_the_optimum_is_working(self, klm_optimum):
        design, _ = klm_optimum
        result = result_of(design.matrix, design.accept_modes)
        assert result.residual <= CONDITION_TOL
        assert result.working
        assert _works(design.matrix.matrix[:, :2], range(1, 2), result.residual)


class TestNumericSearch:
    def test_fixed_start_needs_few_evaluations(self):
        r = numeric_search(3, 1, restarts=0, seed=0)
        assert r.working
        assert r.evaluations < 30

    def test_acceptance_searches_are_kkt_points(self):
        for n, rank in [(3, 1), (4, 2)]:
            r = numeric_search(n, rank, restarts=50, seed=20240807)
            assert r.working
            assert r.kkt_defect <= KKT_TOL
            u = r.best_matrix.matrix
            assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-14

    @settings(max_examples=12, derandomize=True, deadline=None)
    @pinned_examples
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(SEARCH_SHAPES),
    )
    def test_bound_holds_across_seeds(self, seed, shape):
        r = numeric_search(*shape, restarts=10, seed=seed)
        assert 0.2490 <= r.best_probability <= 0.250001
        assert r.residual <= 1e-6
        assert r.working
        assert r.max_feasible_probability <= 0.250001
        assert r.kkt_defect <= KKT_TOL

    def test_deterministic_given_seed(self):
        a = numeric_search(3, 1, restarts=2, seed=11)
        b = numeric_search(3, 1, restarts=2, seed=11)
        assert a.best_probability == b.best_probability
        assert a.residual == b.residual
        assert a.evaluations == b.evaluations
        assert a.max_feasible_probability == b.max_feasible_probability
        assert np.array_equal(a.best_matrix.matrix, b.best_matrix.matrix)

    def test_single_start_respects_bound(self):
        r = numeric_search(3, 1, restarts=0, seed=3)
        assert 0.0 <= r.best_probability <= 0.25 + 1e-6
        assert r.max_feasible_probability <= 0.25 + 1e-6

    @pytest.mark.parametrize("n, restarts", [(3, 0), (3, 1), (4, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_starts_are_the_spawned_children(self, monkeypatch, n, restarts, seed):
        # Start i + 1 is drawn from child i of the seed, as a list spawned
        # up front would give it, bit for bit.
        starts = []

        def recorded(fun, x0, **kwargs):
            starts.append(x0)
            return types.SimpleNamespace(x=x0)

        monkeypatch.setattr(scipy.optimize, "minimize", recorded)
        numeric_search(n, 1, restarts=restarts, seed=seed)
        children = np.random.SeedSequence(seed).spawn(restarts)
        expected = [0.4 + 0.03 * np.arange(4 * n)] + [
            np.random.default_rng(c).standard_normal(4 * n) for c in children
        ]
        assert len(starts) == len(expected)
        for got, want in zip(starts, expected):
            assert np.array_equal(got, want)

    def test_no_start_is_drawn_before_its_turn(self):
        # A fresh interpreter held to 1 GB of address space runs a search of
        # 10**9 restarts whose second start raises.  Drawing every start (or
        # spawning every child) first fails there with MemoryError.
        script = """
import types
import scipy.optimize
from nsgate import numeric_search

class Reached(Exception):
    pass

calls = []

def minimize(fun, x0, **kwargs):
    calls.append(x0)
    if len(calls) == 2:
        raise Reached
    return types.SimpleNamespace(x=x0)

scipy.optimize.minimize = minimize
try:
    numeric_search(3, 1, restarts=10**9, seed=0)
except Reached:
    pass
else:
    raise SystemExit("the second start never ran")
"""
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30,) * 2),
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr

    def test_ties_go_to_the_smallest_residual(self, monkeypatch):
        # Every endpoint of this search works at p = 1/4 within rounding;
        # the report is the one with the smallest residual, not the one
        # whose rounding lifts p most.
        endpoints = []

        def recorded(z):
            endpoints.append(_polar_completion(z))
            return endpoints[-1]

        monkeypatch.setattr(bounds, "_polar_completion", recorded)
        r = numeric_search(3, 1, restarts=10, seed=0)
        accept = range(1, 2)
        figures = [_gate_figures(u[:, :2], accept) for u in endpoints]
        for u, (_, residual) in zip(endpoints, figures):
            assert _works(u[:, :2], accept, residual)
        top = max(p for p, _ in figures)
        tied = [i for i, (p, _) in enumerate(figures) if p >= top - _TIE_TOL]
        assert len(tied) > 1
        pick = min(tied, key=lambda i: figures[i][1])
        assert np.array_equal(r.best_matrix.matrix, endpoints[pick])
        assert figures[pick][1] < figures[max(tied, key=lambda i: figures[i][0])][1]

    def test_best_matrix_matches_reported_figures(self):
        r = numeric_search(3, 1, restarts=2, seed=5)
        report = verify_ns(r.best_matrix, search_scheme(3, 1))
        prob, residual = report.success_probability, report.condition_residual
        assert prob == pytest.approx(r.best_probability, abs=1e-14)
        assert residual == pytest.approx(r.residual, abs=1e-14)

    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(3, 1), (4, 2), (5, 3)]),
    )
    def test_working_endpoint_pins_u00(self, seed, shape):
        # The sign-shift rule fixes U00 = 1 - sqrt(2) on every working gate,
        # whatever the rank and wherever the search ends.
        r = numeric_search(*shape, restarts=2, seed=seed)
        assume(r.residual <= FEASIBLE_RESIDUAL)
        assert abs(r.best_matrix.matrix[0, 0] - (1 - SQRT2)) <= CONDITION_TOL

    def test_functioning_search_result_has_design_structure(self):
        # a converged search result is itself a working gate, so it must
        # carry the same entry structure the analytic designs do
        r = numeric_search(3, 1, restarts=4, seed=9)
        assert r.residual <= 1e-10
        assert r.best_probability > 0.1
        u = r.best_matrix.matrix
        assert abs(u[0, 0] - (1 - SQRT2)) <= 1e-8
        assert abs(u[1, 1] - u[0, 1] * u[1, 0] / SQRT2) <= 1e-8
