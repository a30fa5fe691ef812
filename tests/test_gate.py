import dataclasses
import math
import re

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import nsgate.fock
import nsgate.gate
from nsgate import (
    ConditionalScheme,
    DensityMatrix,
    GeneralizedDesign,
    InfeasibleDesignError,
    LopCircuit,
    NsDesign,
    PartialMatrix,
    X2_MAX,
    ancilla_block,
    apply_conditional,
    complete_design,
    complete_to_unitary,
    fock_amplitude,
    generalized_design,
    haar_unitary,
    klm_design,
    kraus_operator,
    reduce_general_ancilla,
    verify_ns,
)
from nsgate.bounds import _K
from nsgate.fock import _isometry_defect, _isometry_residual, _polar_completion
from nsgate.gate import _complete_columns, _sign_shift_defects

SQRT2 = math.sqrt(2.0)


class TestKlmDesign:
    def test_optimum(self, klm_optimum):
        design, scheme = klm_optimum
        assert design.total_modes == 3
        u = design.matrix.matrix
        assert u[0, 0] == pytest.approx(1 - SQRT2, abs=1e-14)
        assert u[1, 1] == pytest.approx(0.5, abs=1e-12)
        report = verify_ns(design.matrix, scheme)
        assert report.condition_residual <= 1e-12
        assert report.success_probability == pytest.approx(0.25, abs=1e-12)

    def test_decoupled_ancilla_still_completable(self):
        design = klm_design(0, 0)
        u = design.matrix.matrix
        assert u[1, 1] == pytest.approx(0.0, abs=1e-14)
        assert design.predicted_probability == 0.0
        report = verify_ns(design.matrix, design.scheme())
        assert report.success_probability == pytest.approx(0.0, abs=1e-14)

    def test_saturated_first_row(self):
        # x^2 exactly at the cap: the first row closes with no free weight.
        x = math.sqrt(X2_MAX)
        design = klm_design(x, 0)
        u = design.matrix.matrix
        assert np.abs(u[0, 2:]).max(initial=0.0) < 1e-12
        assert abs(np.abs(u[0, 0]) ** 2 + np.abs(u[0, 1]) ** 2 - 1) < 1e-12

    def test_corner_infeasible_names_column_norm(self):
        # At s = t = c the second fixed column has squared norm
        # s + s t / 2 > 1, so its Gram diagonal 1 - s - s t / 2 is negative.
        x = math.sqrt(X2_MAX)
        with pytest.raises(InfeasibleDesignError) as excinfo:
            klm_design(x, x)
        assert "column 1 normalization" in str(excinfo.value)

    def test_modulus_above_one_rejected(self):
        with pytest.raises(ValueError):
            klm_design(1.2, 0.5)

    @pytest.mark.parametrize(
        "u12, u21s",
        [
            (0.6 * np.exp(0.7j), [0.5 * np.exp(-1.1j)]),
            # rank 2, one coupling a negative real (phase pi)
            (0.6 * np.exp(0.7j), [0.4 * np.exp(-1.1j), -0.3]),
        ],
        ids=["rank1", "rank2"],
    )
    def test_complex_couplings_honored(self, u12, u21s):
        if len(u21s) == 1:
            design = klm_design(u12, u21s[0])
        else:
            design = complete_design(
                generalized_design(u12, u21s, total_modes=len(u21s) + 1)
            )
        u = design.matrix.matrix
        assert u[0, 1] == pytest.approx(u12, abs=1e-12)
        for j, u21 in enumerate(u21s, start=1):
            assert u[j, 0] == pytest.approx(u21, abs=1e-12)
            assert u[j, 1] == pytest.approx(u12 * u21 / SQRT2, abs=1e-12)
        report = verify_ns(design.matrix, design.scheme())
        assert report.condition_residual <= 1e-12

    def test_non_finite_coupling_rejected(self):
        with pytest.raises(ValueError):
            klm_design(math.nan, 0.5)
        with pytest.raises(ValueError):
            generalized_design(complex("nan+1j"), [0.5], total_modes=3)


class TestNsDesign:
    def test_completed_matrix_accepted(self, klm_optimum):
        design, _ = klm_optimum
        again = NsDesign(design.matrix, (1,))
        assert again.total_modes == 3
        assert again.accept_modes == (1,)
        assert again.predicted_probability == pytest.approx(0.25, abs=1e-12)

    def test_haar_unitary_rejected(self, rng):
        with pytest.raises(ValueError, match="sign-shift"):
            NsDesign(haar_unitary(3, rng), (1,))

    def test_wrong_accept_modes_rejected(self):
        # rank-1 design: row 2 is a completion row, not an accepted mode
        design = complete_design(generalized_design(0.5, [0.5], total_modes=3))
        assert design.total_modes == 4
        with pytest.raises(ValueError, match="sign-shift"):
            NsDesign(design.matrix, (1, 2))
        with pytest.raises(ValueError, match="sign-shift"):
            NsDesign(design.matrix, (2,))

    @pytest.mark.parametrize("accept", [(), (0,), (3,), (-1,)])
    def test_accept_modes_outside_ancilla_rejected(self, klm_optimum, accept):
        design, _ = klm_optimum
        with pytest.raises(ValueError, match="accepted modes"):
            NsDesign(design.matrix, accept)

    @pytest.mark.parametrize("accept", [(1, 1), (1.0,)])
    def test_repeated_or_non_integer_accept_modes_rejected(self, klm_optimum, accept):
        # (1, 1) would count the photon's probability twice: 1/2 at the
        # canonical optimum, whose bound is 1/4.  A rank-2 design's
        # entries, checked before completion, refuse it too.
        design, _ = klm_optimum
        partial = generalized_design(0.5, [0.5, 0.5], total_modes=4).partial
        for build in (
            lambda: NsDesign(design.matrix, accept),
            lambda: GeneralizedDesign(partial, accept),
        ):
            with pytest.raises(ValueError, match="accepted modes must be"):
                build()

    def test_accept_modes_normalized_to_ints(self, klm_optimum):
        design, _ = klm_optimum
        again = NsDesign(design.matrix, [np.int64(1)])
        assert again.accept_modes == (1,) and type(again.accept_modes[0]) is int

    @pytest.mark.parametrize("entry", [(0, 0), (1, 1)])
    def test_entry_defect_above_tolerance_rejected(self, klm_optimum, entry):
        # 2e-12 off U00 or U11 breaks U00 = 1 - sqrt(2) or
        # U01*U10 = sqrt(2)*U11 past the design tolerance while keeping the
        # matrix unitary to 1e-11
        design, _ = klm_optimum
        u = design.matrix.matrix.copy()
        u[entry] += 2e-12
        with pytest.raises(ValueError, match="sign-shift"):
            NsDesign(LopCircuit(u), (1,))


class TestCompleteToUnitary:
    def test_single_fixed_row_completes(self, rng):
        row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        row /= np.linalg.norm(row)
        values = np.zeros((4, 4), dtype=complex)
        values[0] = row
        mask = np.zeros((4, 4), dtype=bool)
        mask[0] = True
        circuit = complete_to_unitary(PartialMatrix(values, mask))
        assert np.allclose(circuit.matrix[0], row)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_partial_matrix_rejected(self, bad):
        values = np.zeros((3, 3), dtype=complex)
        values[0, :2] = (1 - math.sqrt(2.0), bad)
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, :2] = True
        with pytest.raises(ValueError, match="non-finite"):
            PartialMatrix(values, mask)

    def test_fully_fixed_unitary_accepted(self, rng):
        u = haar_unitary(3, rng)
        mask = np.ones((3, 3), dtype=bool)
        circuit = complete_to_unitary(PartialMatrix(u.matrix, mask))
        assert np.allclose(circuit.matrix, u.matrix)

    def test_fully_fixed_non_unitary_rejected(self):
        values = np.eye(3, dtype=complex) * 0.9
        mask = np.ones((3, 3), dtype=bool)
        with pytest.raises(InfeasibleDesignError):
            complete_to_unitary(PartialMatrix(values, mask))

    def test_non_block_pattern_rejected(self):
        values = np.zeros((3, 3), dtype=complex)
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        with pytest.raises(ValueError):
            complete_to_unitary(PartialMatrix(values, mask))

    def test_no_fixed_entries_rejected(self):
        with pytest.raises(ValueError):
            complete_to_unitary(
                PartialMatrix(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
            )

    def test_interior_point_needs_extra_mode(self):
        # strictly inside the feasibility region the Gram of the two fixed
        # columns has rank 2, so the free rows must span two modes: three
        # modes leave one, four leave two
        design = generalized_design(0.5, [0.5], total_modes=3)
        with pytest.raises(InfeasibleDesignError) as excinfo:
            complete_to_unitary(design.partial)
        assert "rank 2 needs 2 free modes, have 1" in str(excinfo.value)
        completed = complete_design(design)
        assert completed.total_modes == 4
        # rank 2: three fixed rows, so 3 + 2 = 5 modes
        design = generalized_design(0.6, [0.4, 0.3], total_modes=3)
        completed = complete_design(design)
        assert completed.total_modes == 5
        u = completed.matrix.matrix
        assert np.array_equal(u[:3, :2], design.partial.values[:3, :2])
        with pytest.raises(InfeasibleDesignError) as excinfo:
            complete_design(design, max_extra_modes=0)
        assert "rank 2 needs 2 free modes, have 0" in str(excinfo.value)

    @pytest.mark.parametrize(
        "rows, cols, block",
        [
            # two fixed rows sharing one column: the block has rank 1
            ((0, 1), (0,), [[0.6], [0.8]]),
            # an all-zero fixed block, rank 0
            ((0, 1), (0, 1), [[0.0, 0.0], [0.0, 0.0]]),
            # rows with zero entries and a rank-1 block
            ((0, 2), (1, 2), [[0.0, 0.6], [0.0, 0.8j]]),
        ],
    )
    def test_rank_deficient_fixed_block_completes(self, rows, cols, block):
        values = np.zeros((4, 4), dtype=complex)
        mask = np.zeros((4, 4), dtype=bool)
        values[np.ix_(rows, cols)] = block
        mask[np.ix_(rows, cols)] = True
        u = complete_to_unitary(PartialMatrix(values, mask)).matrix
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
        assert np.array_equal(u[np.ix_(rows, cols)], values[np.ix_(rows, cols)])

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(1, 7) for k in range(1, n + 1)]
    )
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_phase_fixed_qr(self, n, k, seed):
        # fock._polar_completion, which every unitary built from columns
        # goes through, keeps orthonormal columns with their phases.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        q = _polar_completion(z)
        assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-14
        # Its leading columns are z's polar factor W: W†z is Hermitian and
        # positive semidefinite.
        h = q[:, :k].conj().T @ z
        assert np.abs(h - h.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh((h + h.conj().T) / 2)[0] >= -1e-12
        # Orthonormal columns with random phases come back as themselves.
        cols = haar_unitary(n, rng).matrix[:, :k] * np.exp(2j * np.pi * rng.random(k))
        q = _polar_completion(cols)
        assert np.abs(q[:, :k] - cols).max() <= 1e-14
        assert np.abs(cols.conj().T @ q[:, k:]).max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(1, 7) for k in range(1, n + 1)]
    )
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_complete_columns(self, n, k, seed):
        rng = np.random.default_rng(seed)
        phases = np.exp(2j * np.pi * rng.random(k))
        haar = haar_unitary(n, rng).matrix[:, :k] * phases
        basis = np.eye(n)[:, rng.permutation(n)[:k]] * phases
        at = rng.permutation(n)[:k].tolist()
        for cols in (haar, basis):
            for where in (at, list(range(k)), ()):
                u = _complete_columns(cols, where).matrix
                fixed = list(where) or list(range(k))
                free = [c for c in range(n) if c not in fixed]
                # Fixed columns bit-exact in place; the rest, in order, the
                # trailing left singular vectors of the fixed columns.
                assert np.array_equal(u[:, fixed], cols)
                assert np.array_equal(u[:, free], np.linalg.svd(cols)[0][:, k:])
                assert _isometry_defect(u) <= 1e-14

    @pytest.mark.parametrize("ys", [[0.2], [0.12, 0.16j]], ids=["rank1", "rank2"])
    def test_non_psd_gram_named(self, ys):
        # Both columns fit in the unit ball (no normalization message), but
        # det G < 0: the point lies outside s + t - k s t <= c.
        s, t = 0.95**2, sum(abs(y) ** 2 for y in ys)
        assert s + t - _K * s * t > X2_MAX
        design = generalized_design(0.95, ys, total_modes=5)
        with pytest.raises(InfeasibleDesignError) as excinfo:
            complete_to_unitary(design.partial)
        assert "no positive semidefinite Gram" in str(excinfo.value)
        assert "normalization" not in str(excinfo.value)


class TestGeneralizedDesign:
    def test_single_accept_mode_reduces_to_klm_pattern(self):
        design = generalized_design(0.7, [0.6], total_modes=3)
        values = design.partial.values
        mask = design.partial.fixed
        assert values[0, 0] == pytest.approx(1 - SQRT2)
        assert values[0, 1] == pytest.approx(0.7)
        assert values[1, 0] == pytest.approx(0.6)
        assert values[1, 1] == pytest.approx(0.7 * 0.6 / SQRT2)
        expected_mask = np.zeros((3, 3), dtype=bool)
        expected_mask[:2, :2] = True
        assert np.array_equal(mask, expected_mask)

    def test_predicted_probability_formula(self):
        x = math.sqrt(1 / SQRT2)
        ys = [0.4, 0.5]
        design = generalized_design(x, ys, total_modes=4)
        assert design.predicted_probability == pytest.approx(
            (x**2 / 2) * (0.4**2 + 0.5**2)
        )

    def test_rank_two_split_optimum_probability(self):
        # x^2 = 1/sqrt(2) with the accepted weight split over two modes still
        # reaches 1/4, on four modes exactly at the generalized boundary.
        x = (1 / SQRT2) ** 0.5
        y = (1 / (2 * SQRT2)) ** 0.5
        design = complete_design(generalized_design(x, [y, y], total_modes=4))
        assert design.total_modes == 4
        assert design.predicted_probability == pytest.approx(0.25, abs=1e-12)
        report = verify_ns(design.matrix, design.scheme())
        assert report.condition_residual <= 1e-12
        assert report.success_probability == pytest.approx(0.25, abs=1e-10)

    def test_rank_two_interior_point(self):
        design = complete_design(generalized_design(0.6, [0.4, 0.3], total_modes=4))
        report = verify_ns(design.matrix, design.scheme())
        assert report.condition_residual <= 1e-12
        assert report.success_probability == pytest.approx(
            design.predicted_probability, abs=1e-10
        )
        # each accepted outcome contributes |U_j1 U_1i / sqrt(2)|^2
        u = design.matrix.matrix
        for rep, j in zip(report.per_outcome, design.accept_modes):
            assert rep.probability == pytest.approx(
                abs(u[0, 1] * u[j, 0]) ** 2 / 2, abs=1e-12
            )

    def test_zero_input_coupling_gives_zero_probability(self):
        design = generalized_design(0.0, [0.5, 0.5], total_modes=4)
        assert design.predicted_probability == 0.0

    def test_measured_probability_is_input_independent(self, rng):
        # a functioning gate scales every sector alike, so the success
        # probability matches (x^2 / 2) * sum(y^2) for any input state
        design = complete_design(generalized_design(0.6, [0.4, 0.3], total_modes=4))
        scheme = design.scheme()
        for _ in range(5):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rho = DensityMatrix.pure(scheme.system_basis, psi)
            result = apply_conditional(scheme, design.matrix, rho)
            assert result.probability == pytest.approx(
                design.predicted_probability, abs=1e-10
            )

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            generalized_design(0.5, [1.4], total_modes=3)
        with pytest.raises(ValueError):
            generalized_design(0.5, [], total_modes=3)
        with pytest.raises(ValueError):
            generalized_design(0.5, [0.5, 0.5], total_modes=2)


class TestVerifyNs:
    def test_identity_fails_sign_condition(self):
        scheme = ConditionalScheme(1, 2, (1, 0), ((1, 0),))
        report = verify_ns(LopCircuit(np.eye(3)), scheme)
        assert report.m0 == pytest.approx(1.0)
        assert report.m1 == pytest.approx(1.0)
        assert report.m2 == pytest.approx(1.0)
        assert report.condition_residual == pytest.approx(2.0)

    def test_functioning_implies_matrix_form(self, rng):
        # converse check on working gates: small residual forces the entry
        # structure (needs a non-degenerate gate, probability > 0)
        for x2, y2 in [(0.3, 0.5), (0.5, 0.6), (1 / SQRT2, 1 / SQRT2)]:
            design = complete_design(
                generalized_design(math.sqrt(x2), [math.sqrt(y2)], total_modes=3)
            )
            report = verify_ns(design.matrix, design.scheme())
            if report.condition_residual > 1e-10:
                continue
            u = design.matrix.matrix
            assert abs(u[0, 0] - (1 - SQRT2)) <= 1e-8
            assert abs(u[1, 1] - u[0, 1] * u[1, 0] / SQRT2) <= 1e-8

    def test_zero_probability_branch_passes_off_the_entry_rule(self):
        # Swapping modes 1 and 2 sends the helper photon away from the
        # accepted mode: m0 = cross = 0 with U00 = 1, so m1 = m0 = -m2 holds
        # at p = 0 while the entry-rule defects are (sqrt 2, 0).
        swap = LopCircuit(np.eye(3)[[0, 2, 1]])
        report = verify_ns(swap, ConditionalScheme.one_photon(2, 0, (0,)))
        assert report.condition_residual == 0
        assert report.success_probability == 0
        defects = _sign_shift_defects(swap.matrix, (1,))
        assert np.abs(defects - [SQRT2, 0]).max() <= 1e-15

    def test_multi_system_mode_rejected(self, rng):
        scheme = ConditionalScheme(2, 1, (1,), ((1,),))
        with pytest.raises(ValueError):
            verify_ns(haar_unitary(3, rng), scheme)

    def test_photon_changing_outcome_rejected(self, rng):
        scheme = ConditionalScheme(1, 2, (1, 0), ((0, 0),))
        with pytest.raises(ValueError):
            verify_ns(haar_unitary(3, rng), scheme)


def symbolic_amplitude(block, in_occ, out_occ):
    # fock_amplitude's definition on a symbolic block: the permanent of the
    # block with column j repeated in_occ[j] times and row i out_occ[i]
    # times, over the square root of the product of all occupations'
    # factorials.
    rows = [i for i, c in enumerate(out_occ) for _ in range(c)]
    cols = [j for j, c in enumerate(in_occ) for _ in range(c)]
    norm = math.prod(math.factorial(c) for c in (*in_occ, *out_occ))
    return block.extract(rows, cols).per() / sympy.sqrt(norm)


class TestSignShiftAlgebra:
    # The modes (0, i) in and (0, j) out, for the input mode i and an
    # accepted mode j, carry the block [[U00, U0i], [Uj0, Uji]], and
    # m_n = <n, 1_j|U|n, 1_i> with n photons in the system mode.
    u00, u0i, uj0, uji = sympy.symbols("U00 U0i Uj0 Uji")
    block = sympy.Matrix([[u00, u0i], [uj0, uji]])

    def diagonal(self):
        return [symbolic_amplitude(self.block, (n, 1), (n, 1)) for n in range(3)]

    def test_permanents_give_the_closed_forms(self):
        # The closed forms of gate._gate_figures, with cross = U0i Uj0.
        u00, uji, cross = self.u00, self.uji, self.u0i * self.uj0
        m0, m1, m2 = self.diagonal()
        assert sympy.expand(m0 - uji) == 0
        assert sympy.expand(m1 - (u00 * m0 + cross)) == 0
        assert sympy.expand(m2 - u00 * (u00 * m0 + 2 * cross)) == 0

    def test_conditions_pin_u00_or_vanish(self):
        # m1 - m0 and m2 + m0 are linear in (m0, cross) with determinant
        # U00^2 - 2 U00 - 1, zero only at 1 +- sqrt 2: off those, m1 = m0 =
        # -m2 forces m0 = cross = 0.  At U00 = 1 - sqrt 2 the solutions are
        # cross = sqrt 2 m0, the entry rule _sign_shift_defects checks.
        cross, r2 = sympy.Symbol("cross"), sympy.sqrt(2)
        m0, m1, m2 = (m.subs(self.u0i, cross / self.uj0) for m in self.diagonal())
        system, rhs = sympy.linear_eq_to_matrix(
            [sympy.expand(m1 - m0), sympy.expand(m2 + m0)], [self.uji, cross]
        )
        assert rhs == sympy.zeros(2, 1)
        det = sympy.expand(system.det())
        assert det == self.u00**2 - 2 * self.u00 - 1
        assert set(sympy.solve(det, self.u00)) == {1 - r2, 1 + r2}
        pinned = system.subs(self.u00, 1 - r2)
        assert pinned.rank() == 1
        assert sympy.expand(pinned * sympy.Matrix([1, r2])) == sympy.zeros(2, 1)

    @pytest.mark.parametrize("accept", [1, 2])
    def test_symbolic_amplitudes_are_fock_amplitudes(self, rng, accept):
        # The same definition, read at a Haar unitary, is the engine's.
        lop = haar_unitary(3, rng)
        u = lop.matrix
        entries = {
            self.u00: u[0, 0],
            self.u0i: u[0, 1],
            self.uj0: u[accept, 0],
            self.uji: u[accept, 1],
        }
        out = [0, 0, 0]
        out[accept] = 1
        for n, m in enumerate(self.diagonal()):
            out[0] = n
            amplitude = fock_amplitude(lop, (n, 1, 0), out)
            assert complex(m.subs(entries)) == pytest.approx(amplitude, abs=1e-14)


class TestReduceGeneralAncilla:
    def test_basis_vector_gives_identity_action(self):
        v = reduce_general_ancilla([1.0, 0.0])
        assert np.allclose(np.abs(v.matrix[:, 0]), [1.0, 0.0])

    def test_balanced_superposition_column(self):
        chi = np.array([1.0, 1.0]) / math.sqrt(2)
        v = reduce_general_ancilla(chi)
        assert np.allclose(v.matrix[:, 0], chi)

    @pytest.mark.parametrize(
        "chi",
        [[1.0], [1j], [0.0, 1.0, 0.0], [0.0, 0.6j, 0.0, -0.8], [0.6, 0.0, 0.8j]],
    )
    def test_first_column_is_chi(self, chi):
        # k = 1 and amplitude vectors with zero entries
        v = reduce_general_ancilla(chi)
        assert v.matrix.shape == (len(chi), len(chi))
        assert np.array_equal(v.matrix[:, 0], np.array(chi, dtype=complex))
        assert np.abs(v.matrix.conj().T @ v.matrix - np.eye(len(chi))).max() < 1e-12

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError, match="chi must be normalized"):
            reduce_general_ancilla([1.0, 1.0])

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize(
        "excess, accepted",
        [(5e-11, True), (-5e-11, True), (5e-10, False), (-5e-10, False)],
    )
    def test_norm_at_the_unitarity_tolerance(self, rng, k, excess, accepted):
        # |chi|^2 - 1 = excess, read off the completion's own U†U - I
        # against UNITARITY_TOL = 1e-10.
        chi = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        chi *= math.sqrt(1 + excess) / np.linalg.norm(chi)
        if accepted:
            assert np.array_equal(reduce_general_ancilla(chi).matrix[:, 0], chi)
        else:
            with pytest.raises(ValueError, match="chi must be normalized"):
                reduce_general_ancilla(chi)

    @pytest.mark.parametrize(
        "chi",
        [[[0.6, 0.0], [0.0, 0.8]], [[1.0]], [[math.nan, 0.0]], 1.0, []],
        ids=["2x2", "1x1", "non-finite-1x2", "0-d", "empty"],
    )
    def test_non_vector_rejected(self, chi):
        # Only a non-empty 1-D chi is read: a matrix is not flattened into
        # amplitudes, and its shape is refused before its entries are read.
        shape = np.shape(chi)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            reduce_general_ancilla(chi)

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_vector_rejected(self, k):
        with pytest.raises(ValueError, match="chi must be normalized"):
            reduce_general_ancilla(np.zeros(k))

    def test_one_gram_pass(self, rng, monkeypatch):
        # The completion's LopCircuit check (U†U and UU†) is the only Gram:
        # chi's norm is entry (0, 0) of the first.
        calls = []
        residual = nsgate.fock._isometry_residual

        def counted(x):
            calls.append(x.shape)
            return residual(x)

        monkeypatch.setattr(nsgate.fock, "_isometry_residual", counted)
        chi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        reduce_general_ancilla(chi / np.linalg.norm(chi))
        assert calls == [(4, 4), (4, 4)]

    @pytest.mark.parametrize("chi", [[np.nan, 0.0], [1.0, np.inf], [complex("nan+1j")]])
    def test_non_finite_rejected(self, chi):
        with pytest.raises(ValueError, match="non-finite"):
            reduce_general_ancilla(chi)

    def test_pipeline_equivalence(self, rng):
        # preparing |chi> inside the circuit must reproduce the physics of
        # feeding |chi> directly, outcome by outcome
        scheme = ConditionalScheme(1, 2, (1, 0), ((1, 0),), (0, 1, 2))
        for _ in range(10):
            chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            chi /= np.linalg.norm(chi)
            upstream = haar_unitary(3, rng)
            folded = LopCircuit(
                upstream.matrix
                @ ancilla_block(1, reduce_general_ancilla(chi)).matrix
            )
            m_reduced = kraus_operator(scheme, folded, (1, 0)).entries
            m_direct = sum(
                chi[a]
                * kraus_operator(
                    ConditionalScheme(
                        1, 2, tuple(1 if m == a else 0 for m in range(2)),
                        ((1, 0),), (0, 1, 2),
                    ),
                    upstream,
                    (1, 0),
                ).entries
                for a in range(2)
            )
            assert np.abs(m_reduced - m_direct).max() < 1e-10
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rho = DensityMatrix.pure(scheme.system_basis, psi)
            p_reduced = apply_conditional(scheme, folded, rho).probability
            p_direct = float(
                np.trace(m_direct @ rho.entries @ m_direct.conj().T).real
            )
            assert p_reduced == pytest.approx(p_direct, abs=1e-10)


class TestPermutationEquivalence:
    def test_swapping_ancilla_modes_preserves_probabilities(self, rng):
        base = ConditionalScheme(1, 3, (1, 0, 0), ((0, 1, 0),), (0, 1, 2))
        lop = haar_unitary(4, rng)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = DensityMatrix.pure(base.system_basis, psi)
        p_base = apply_conditional(base, lop, rho).probability

        # swap ancilla modes 1 and 2 (global modes 2 and 3)
        perm = [0, 1, 3, 2]
        swapped_lop = LopCircuit(lop.matrix[np.ix_(perm, perm)])
        swapped = ConditionalScheme(
            1,
            3,
            tuple(base.ancilla_input[i] for i in (0, 2, 1)),
            (tuple(base.outcomes[0][i] for i in (0, 2, 1)),),
            (0, 1, 2),
        )
        p_swapped = apply_conditional(swapped, swapped_lop, rho).probability
        assert p_swapped == pytest.approx(p_base, abs=1e-14)


class TestCompletionIsCheckedOnce:
    """A completion runs one unitarity check on the array it built and
    adopts that array, bit for bit, as its circuit."""

    @staticmethod
    def completions():
        fixed = np.zeros((3, 3), dtype=bool)
        fixed[:, 2] = True  # one fixed column, not the first: a permutation
        values = np.zeros((3, 3), dtype=complex)
        values[:, 2] = [0.6, 0.0, 0.8j]
        chi = np.array([0.6, 0.0, 0.8j])
        return [
            complete_to_unitary(PartialMatrix(values, fixed)),
            reduce_general_ancilla(chi),
            klm_design(2**-0.25, 2**-0.25).matrix,
            klm_design(0.3, 0.9).matrix,
        ]

    def test_completions_are_read_only_checked_circuits(self):
        for lop in self.completions():
            m = lop.matrix
            assert m.dtype == complex and not m.flags.writeable
            checked = LopCircuit(m).matrix  # the copy the circuit check makes
            assert m.tobytes() == checked.tobytes() and m.strides == checked.strides
        assert np.array_equal(self.completions()[0].matrix[:, 2], [0.6, 0, 0.8j])

    def test_completions_run_no_circuit_check(self, monkeypatch):
        # fock._unitary is the check; LopCircuit's __post_init__ would copy
        # and scan the fresh array first, and check it a second time.
        runs, checks = [], []
        post_init, unitary = LopCircuit.__post_init__, nsgate.gate._unitary

        def counted_post_init(self):
            runs.append(1)
            post_init(self)

        def counted_unitary(m):
            checks.append(m.shape)
            return unitary(m)

        monkeypatch.setattr(LopCircuit, "__post_init__", counted_post_init)
        monkeypatch.setattr(nsgate.gate, "_unitary", counted_unitary)
        self.completions()
        assert runs == []
        assert checks == [(3, 3), (3, 3), (3, 3), (4, 4)]

    def test_refusals_keep_their_words(self):
        with pytest.raises(ValueError, match="^chi must be normalized to one photon$"):
            reduce_general_ancilla([1.0, 1.0])
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(defect "):
            _complete_columns(np.array([[1.0], [1.0]], dtype=complex))
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.completions()[1].matrix = np.eye(3)


class TestAncillaBlock:
    def test_embedding_is_identity_on_system(self, rng):
        v = haar_unitary(2, rng)
        g = ancilla_block(2, v)
        assert np.allclose(g.matrix[:2, :2], np.eye(2))
        assert np.allclose(g.matrix[2:, 2:], v.matrix)
        assert np.abs(g.matrix[:2, 2:]).max() == 0

    @pytest.mark.parametrize("system_modes", [1.5, 2.0, "1", None, -1])
    def test_system_modes_must_be_a_non_negative_integer(self, rng, system_modes):
        with pytest.raises(ValueError, match="mode count"):
            ancilla_block(system_modes, haar_unitary(2, rng))

    def test_block_makes_no_gram(self, rng, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return _isometry_defect(x)

        v = haar_unitary(3, rng)
        monkeypatch.setattr(nsgate.fock, "_isometry_defect", counted)
        block = ancilla_block(2, v)
        assert calls == []
        LopCircuit(block.matrix)  # the patch sees the circuit's own check
        assert calls == [(5, 5), (5, 5)]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        modes=st.integers(1, 4),
        s=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_is_proved_by_its_ancilla_unitary(self, modes, s, seed):
        v = haar_unitary(modes, np.random.default_rng(seed))
        block = ancilla_block(s, v).matrix
        eye_and_block = np.eye(s + modes, dtype=complex)
        eye_and_block[s:, s:] = v.matrix
        assert block.tobytes() == LopCircuit(eye_and_block).matrix.tobytes()
        assert not block.flags.writeable
        # B†B - I and BB† - I are 0 ⊕ (V†V - I) and 0 ⊕ (VV† - I): zeros
        # outside V's block exactly, and V's own residual inside it up to
        # the order in which the matmul sums each entry's `modes` terms.
        outside = np.ones(block.shape, dtype=bool)
        outside[s:, s:] = False
        rounding = 4 * (modes + 1) * np.finfo(float).eps
        for b, w in ((block, v.matrix), (block.conj().T, v.matrix.conj().T)):
            residual = _isometry_residual(b)
            assert not residual[outside].any()
            assert np.abs(residual[s:, s:] - _isometry_residual(w)).max() <= rounding
        assert np.array_equal(LopCircuit(block).matrix, block)
