"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nsgate import (
    ConditionalScheme,
    DensityMatrix,
    FockSector,
    InfeasibleDesignError,
    LopCircuit,
    X2_MAX,
    ancilla_block,
    apply_conditional,
    boundary_y2,
    complete_design,
    complete_to_unitary,
    completeness_defect,
    decompose_by_ancilla_count,
    feasible,
    fock_amplitude,
    generalized_design,
    haar_unitary,
    kraus_operator,
    lift_to_sector,
    maximize_boundary,
    numeric_search,
    reduce_general_ancilla,
    verify_ns,
)
from nsgate.cli import main as cli_main

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({label}): PASS [{time.perf_counter() - start:.2f}s]")


def test_criterion_1_klm_optimum(capsys):
    with criterion(1, "KLM optimum reproduces p = 0.25"):
        t0 = time.perf_counter()
        code = cli_main(["verify-klm", "--tol", "1e-10"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        prob = float(
            next(l for l in out.splitlines() if "success probability" in l).rsplit(
                " ", 1
            )[1]
        )
        assert abs(prob - 0.25) <= 1e-10
        assert elapsed < 1.0


def test_criterion_2_analytic_bound():
    with criterion(2, "analytic boundary maximum"):
        t0 = time.perf_counter()
        x2_star, p_star = maximize_boundary(1e-10)
        elapsed = time.perf_counter() - t0
        assert abs(p_star - 0.25) <= 1e-9
        assert abs(x2_star - 0.7071068) <= 1e-5
        assert elapsed < 1.0


def test_criterion_3_closed_form_amplitudes():
    with criterion(3, "three-mode closed-form amplitudes"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1001)
        for _ in range(100):
            u = haar_unitary(3, rng)
            m = u.matrix
            a0 = fock_amplitude(u, (0, 1, 0), (0, 1, 0))
            a1 = fock_amplitude(u, (1, 1, 0), (1, 1, 0))
            a2 = fock_amplitude(u, (2, 1, 0), (2, 1, 0))
            assert abs(a0 - m[1, 1]) <= 1e-12
            assert abs(a1 - (m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0])) <= 1e-12
            assert (
                abs(a2 - m[0, 0] * (m[0, 0] * m[1, 1] + 2 * m[0, 1] * m[1, 0]))
                <= 1e-12
            )
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_kraus_completeness():
    with criterion(4, "Kraus completeness over all outcomes"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1002)
        for case in range(50):
            dim = 2 + case % 3
            ancilla = dim - 1
            input_mode = case % ancilla
            photons_in = case % 2  # zero- and one-photon ancilla inputs
            scheme = ConditionalScheme(
                system_modes=1,
                ancilla_modes=ancilla,
                ancilla_input=tuple(
                    photons_in if m == input_mode else 0 for m in range(ancilla)
                ),
                outcomes=(tuple(0 for _ in range(ancilla)),),
                system_photons=(0, 1, 2),
            ).all_outcomes()
            defect = completeness_defect(scheme, haar_unitary(dim, rng))
            assert defect <= 1e-10
        assert time.perf_counter() - t0 < 30.0


def test_criterion_5_numeric_bound_rank_1():
    with criterion(5, "numeric bound search, rank 1"):
        t0 = time.perf_counter()
        result = numeric_search(3, 1, restarts=50, seed=20240807)
        elapsed = time.perf_counter() - t0
        assert 0.2490 <= result.best_probability <= 0.250001
        assert result.residual <= 1e-6
        assert result.max_feasible_probability <= 0.250001
        assert elapsed < 120.0


def test_criterion_6_numeric_bound_rank_2():
    with criterion(6, "numeric bound search, rank 2"):
        t0 = time.perf_counter()
        result = numeric_search(4, 2, restarts=50, seed=20240807)
        elapsed = time.perf_counter() - t0
        assert 0.2490 <= result.best_probability <= 0.250001
        assert result.residual <= 1e-6
        assert result.max_feasible_probability <= 0.250001
        assert elapsed < 300.0


def test_criterion_7_ancilla_reduction():
    with criterion(7, "general one-photon input reduction"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1003)
        for case in range(50):
            k = 2 + case % 2
            n = k + 1
            chi = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            chi /= np.linalg.norm(chi)
            upstream = haar_unitary(n, rng)
            scheme = ConditionalScheme(
                system_modes=1,
                ancilla_modes=k,
                ancilla_input=tuple(1 if m == 0 else 0 for m in range(k)),
                outcomes=(tuple(1 if m == 0 else 0 for m in range(k)),),
                system_photons=(0, 1, 2),
            )
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rho = DensityMatrix.pure(scheme.system_basis, psi)

            folded = LopCircuit(
                upstream.matrix
                @ ancilla_block(1, reduce_general_ancilla(chi)).matrix
            )
            p_reduced = apply_conditional(scheme, folded, rho).probability

            m_direct = sum(
                chi[a]
                * kraus_operator(
                    ConditionalScheme(
                        system_modes=1,
                        ancilla_modes=k,
                        ancilla_input=tuple(
                            1 if m == a else 0 for m in range(k)
                        ),
                        outcomes=scheme.outcomes,
                        system_photons=(0, 1, 2),
                    ),
                    upstream,
                    scheme.outcomes[0],
                ).entries
                for a in range(k)
            )
            p_direct = float(
                np.trace(m_direct @ rho.entries @ m_direct.conj().T).real
            )
            assert abs(p_reduced - p_direct) <= 1e-10
        assert time.perf_counter() - t0 < 30.0


def test_criterion_8_region_curve_agreement():
    with criterion(8, "boundary completion and probability agreement"):
        t0 = time.perf_counter()
        for x2 in np.linspace(0.0, X2_MAX, 200):
            y2 = boundary_y2(x2)
            design = complete_design(
                generalized_design(math.sqrt(x2), [math.sqrt(y2)], total_modes=3),
                max_extra_modes=0,
            )
            report = verify_ns(design.matrix, design.scheme())
            assert report.condition_residual <= 1e-10
            assert abs(report.success_probability - x2 * y2 / 2) <= 1e-10

            beyond = y2 + 1e-3
            assert not feasible(x2, beyond)
            bad = generalized_design(
                math.sqrt(x2), [math.sqrt(beyond)], total_modes=3
            )
            with pytest.raises(InfeasibleDesignError):
                complete_to_unitary(bad.partial)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_9_sector_invariance():
    with criterion(9, "ancilla-count sector invariance"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1004)
        for case in range(20):
            n = 3 + case % 2
            photons = 3
            sector = FockSector(n, photons)
            vec = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(
                sector.dim
            )
            vec /= np.linalg.norm(vec)
            v_anc = haar_unitary(n - 1, rng)
            moved = (
                lift_to_sector(ancilla_block(1, v_anc), photons).entries @ vec
            )
            before = decompose_by_ancilla_count(vec, sector, system_modes=1)
            after = decompose_by_ancilla_count(moved, sector, system_modes=1)
            for c in before:
                delta = abs(
                    np.linalg.norm(after[c]) ** 2 - np.linalg.norm(before[c]) ** 2
                )
                assert delta <= 1e-12
        assert time.perf_counter() - t0 < 10.0
