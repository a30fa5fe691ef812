import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsgate.fock
from nsgate import (
    CapacityError,
    ConditionalScheme,
    FockSector,
    LIFT_TOL,
    LopCircuit,
    PHOTON_CAP,
    SECTOR_CAP,
    SectorMatrix,
    SystemBasis,
    fock_amplitude,
    haar_unitary,
    lift_to_sector,
    permanent,
)
from nsgate.conditional import _stack_plan
from nsgate.fock import (
    _FLAT_TERMS,
    _isometry_defect,
    _ladder,
    _lift_levels,
    _phase_fixed_qr,
    as_occupation,
)


def naive_permanent(m):
    """Permutation-sum oracle, exponential but unarguable."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1 + 0j
        for i, j in enumerate(perm):
            prod *= m[i, j]
        total += prod
    return total


def brute_force_basis(modes, photons):
    """All occupation tuples with the given total, by raw product scan."""
    return [
        occ
        for occ in itertools.product(range(photons + 1), repeat=modes)
        if sum(occ) == photons
    ]


class TestEnumerateSector:
    def test_vacuum_only(self):
        assert FockSector(2, 0).basis == ((0, 0),)

    def test_single_photon_basis(self):
        assert FockSector(3, 1).basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_two_photons_three_modes_count(self):
        sector = FockSector(3, 2)
        assert sector.dim == 6
        assert sorted(sector.basis) == sorted(brute_force_basis(3, 2))

    @pytest.mark.parametrize("modes,photons", [(2, 3), (4, 2), (5, 4), (1, 6)])
    def test_counts_and_uniqueness(self, modes, photons):
        sector = FockSector(modes, photons)
        assert sector.dim == math.comb(photons + modes - 1, modes - 1)
        assert len(set(sector.basis)) == sector.dim
        assert all(sum(occ) == photons for occ in sector.basis)

    def test_canonical_order_is_decreasing_lex(self):
        basis = FockSector(4, 3).basis
        assert basis[0] == (3, 0, 0, 0)
        assert list(basis) == sorted(basis, reverse=True)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            FockSector(0, 1)

    def test_negative_photons_rejected(self):
        with pytest.raises(ValueError):
            FockSector(2, -1)

    def test_sector_at_cap_accepted(self):
        assert FockSector(7, 7).dim == SECTOR_CAP

    def test_sector_above_cap_rejected(self):
        # 8855 states; the size is checked before any state is enumerated.
        with pytest.raises(CapacityError, match="8855 states"):
            FockSector(20, 4)


class TestSectorIndex:
    def test_first_element(self):
        sector = FockSector(3, 2)
        assert sector.index(sector.basis[0]) == 0

    def test_second_single_photon_state(self):
        sector = FockSector(3, 1)
        assert sector.index((0, 1, 0)) == 1

    def test_round_trip_against_linear_scan(self, rng):
        sector = FockSector(4, 3)
        for _ in range(20):
            occ = sector.basis[rng.integers(sector.dim)]
            scan = next(i for i, b in enumerate(sector.basis) if b == occ)
            assert sector.index(occ) == scan

    def test_wrong_total_rejected(self):
        with pytest.raises(ValueError):
            FockSector(3, 2).index((1, 0, 0))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FockSector(3, 2).index((1, 1))


class TestSystemBasis:
    @pytest.mark.parametrize("modes,photons", [(1, 0), (1, 3), (3, 2), (4, 3)])
    def test_sector_is_one_sector_basis(self, modes, photons):
        sector, basis = FockSector(modes, photons), SystemBasis(modes, (photons,))
        assert sector == basis and basis == sector
        assert hash(sector) == hash(basis)
        assert sector.basis == sector.states == basis.states
        assert [sector.index(occ) for occ in basis.states] == list(range(basis.dim))
        assert [basis.index(occ) for occ in sector.basis] == list(range(sector.dim))

    def test_sector_above_cap_rejected(self):
        # The vacuum sector fits; the 4-photon one does not, and no state of
        # either is enumerated before the check.
        with pytest.raises(CapacityError, match="8855 states"):
            SystemBasis(20, (0, 4))

    def test_numpy_integer_counts_accepted(self):
        two = np.int64(2)
        assert FockSector(2, two) == FockSector(2, 2)
        assert type(FockSector(2, two).photons) is int
        assert SystemBasis(1, (np.int64(0), two)) == SystemBasis(1, (0, 2))
        assert as_occupation(np.array([1, 2])) == (1, 2)

    @pytest.mark.parametrize("bad", [1.5, 2.0])
    def test_non_integral_counts_rejected(self, bad):
        # Truncating would silently turn 1.5 into a one-photon object, so
        # integral floats are refused too.
        for build in (
            lambda: SystemBasis(1, (0, bad)),
            lambda: FockSector(2, bad),
            lambda: as_occupation((1, bad)),
            lambda: FockSector(2, 2).index((1, bad)),
        ):
            with pytest.raises(ValueError, match=f"integers, got {bad}"):
                build()
        # The same rule holds for mode counts.
        mode_message = f"mode counts must be integers, got {bad}"
        for build in (
            lambda: SystemBasis(bad, (1,)),
            lambda: FockSector(bad, 1),
        ):
            with pytest.raises(ValueError, match=mode_message):
                build()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        modes=st.integers(1, 5),
        sectors=st.sets(st.integers(0, 5), min_size=1, max_size=4),
    )
    def test_index_round_trip(self, modes, sectors):
        # Sectors ascend, each lexicographically decreasing, and index
        # inverts the state table.
        basis = SystemBasis(modes, sectors)
        expected = [
            occ
            for n in sorted(sectors)
            for occ in sorted(brute_force_basis(modes, n), reverse=True)
        ]
        assert list(basis.states) == expected
        assert [basis.index(occ) for occ in basis.states] == list(range(basis.dim))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_outcomes_are_ancilla_sectors(self, k):
        scheme = ConditionalScheme(1, k, (1,) + (0,) * (k - 1), ((0,) * k,))
        outcomes = scheme.all_outcomes().outcomes
        assert outcomes == sum((FockSector(k, t).basis for t in range(4)), ())


class TestPermanent:
    def test_two_by_two_formula(self, rng):
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert permanent([[a, b], [c, d]]) == pytest.approx(a * d + b * c)

    @pytest.mark.parametrize("n", range(7))
    def test_identity(self, n):
        assert permanent(np.eye(n)) == pytest.approx(1.0)

    def test_empty_matrix(self):
        assert permanent(np.zeros((0, 0))) == 1

    def test_matches_naive_oracle_up_to_six(self, rng):
        for n in range(1, 7):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            expected = naive_permanent(m)
            assert abs(permanent(m) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_random_five_by_five(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        expected = naive_permanent(m)
        assert abs(permanent(m) - expected) / abs(expected) <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            permanent(np.ones((2, 3)))

    def test_size_above_cap_rejected(self):
        with pytest.raises(CapacityError):
            permanent(np.eye(PHOTON_CAP + 1))


class TestLopCircuit:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            LopCircuit(np.array([[1.0, 0.0], [0.0, 1.1]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LopCircuit(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            LopCircuit(np.full((2, 2), bad))
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            LopCircuit(m)

    def test_haar_unitary_is_unitary_and_seeded(self):
        u1 = haar_unitary(4, np.random.default_rng(3))
        u2 = haar_unitary(4, np.random.default_rng(3))
        assert np.array_equal(u1.matrix, u2.matrix)
        defect = np.abs(u1.matrix.conj().T @ u1.matrix - np.eye(4)).max()
        assert defect < 1e-12


class TestIsometryDefect:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        shape=st.integers(0, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n))
        ),
        unitary=st.booleans(),
        layout=st.sampled_from(["copy", "slice", "reversed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_literal_residual(self, shape, unitary, layout, seed):
        # The max-abs of x†x - I for unitary and non-isometric inputs, taken
        # as contiguous copies or as strided column slices, equals the
        # literal formula with its identity temporary bit for bit.
        n, k = shape
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if unitary and n:
            m = _phase_fixed_qr(m)
        x = m[:, ::-1][:, :k] if layout == "reversed" else m[:, :k]
        if layout == "copy":
            x = np.ascontiguousarray(x)
        expected = np.abs(x.conj().T @ x - np.eye(k)).max(initial=0.0)
        assert _isometry_defect(x) == expected


class TestFockAmplitude:
    def test_identity_diagonal(self):
        lop = LopCircuit(np.eye(3))
        for occ in [(2, 1, 0), (0, 0, 3), (1, 1, 1)]:
            assert fock_amplitude(lop, occ, occ) == pytest.approx(1.0)

    def test_conservation_gives_exact_zero(self, rng):
        lop = haar_unitary(3, rng)
        assert fock_amplitude(lop, (1, 0, 0), (1, 1, 0)) == 0

    def test_hong_ou_mandel_null(self):
        coupler = LopCircuit(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        u = coupler.matrix
        # two-permutation oracle for the coincidence amplitude
        oracle = u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0]
        amp = fock_amplitude(coupler, (1, 1), (1, 1))
        assert amp == pytest.approx(oracle)
        assert abs(amp) < 1e-15

    def test_three_mode_closed_forms(self, rng):
        # One helper photon in mode 1, returned to mode 1: the three diagonal
        # amplitudes reduce to closed polynomials in the matrix entries.
        for _ in range(25):
            u = haar_unitary(3, rng)
            m = u.matrix
            assert abs(fock_amplitude(u, (0, 1, 0), (0, 1, 0)) - m[1, 1]) < 1e-12
            assert (
                abs(
                    fock_amplitude(u, (1, 1, 0), (1, 1, 0))
                    - (m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0])
                )
                < 1e-12
            )
            assert (
                abs(
                    fock_amplitude(u, (2, 1, 0), (2, 1, 0))
                    - m[0, 0] * (m[0, 0] * m[1, 1] + 2 * m[0, 1] * m[1, 0])
                )
                < 1e-12
            )

    def test_two_photon_amplitude_value(self, rng):
        # <20|U|11> for the balanced coupler: photon bunching amplitude.
        coupler = LopCircuit(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        amp = fock_amplitude(coupler, (1, 1), (2, 0))
        # permanent [[u00,u01],[u00,u01]] / sqrt(2) = 2*u00*u01/sqrt(2)
        assert amp == pytest.approx(2 * 0.5 / math.sqrt(2))

    def test_length_mismatch_rejected(self, rng):
        lop = haar_unitary(3, rng)
        with pytest.raises(ValueError):
            fock_amplitude(lop, (1, 0), (1, 0, 0))

    def test_capacity_cap(self, rng):
        lop = haar_unitary(2, rng)
        over = PHOTON_CAP + 1
        with pytest.raises(CapacityError):
            fock_amplitude(lop, (over, 0), (0, over))


class TestLiftToSector:
    def test_vacuum_sector(self, rng):
        lifted = lift_to_sector(haar_unitary(3, rng), 0)
        assert lifted.entries.shape == (1, 1)
        assert lifted.entries[0, 0] == pytest.approx(1.0)

    def test_single_photon_sector_is_the_matrix(self, rng):
        u = haar_unitary(4, rng)
        lifted = lift_to_sector(u, 1)
        assert np.allclose(lifted.entries, u.matrix, atol=1e-14)

    def test_two_photon_sector_unitary(self, rng):
        lifted = lift_to_sector(haar_unitary(3, rng), 2)
        assert lifted.entries.shape == (6, 6)
        defect = np.abs(
            lifted.entries.conj().T @ lifted.entries - np.eye(6)
        ).max()
        assert defect <= 1e-9

    def test_sector_unitarity_sweep(self, rng):
        # 100 random circuits across dims <= 4 and photon numbers <= 4.
        cases = [(d, p) for d in (1, 2, 3, 4) for p in (0, 1, 2, 3, 4)] * 5
        assert len(cases) == 100
        for dim, photons in cases:
            lifted = lift_to_sector(haar_unitary(dim, rng), photons)
            d = lifted.sector.dim
            defect = np.abs(
                lifted.entries.conj().T @ lifted.entries - np.eye(d)
            ).max()
            assert defect <= 1e-9

    def test_composition_homomorphism(self, rng):
        for photons in (2, 3):
            a = haar_unitary(3, rng)
            b = haar_unitary(3, rng)
            ab = LopCircuit(a.matrix @ b.matrix)
            lifted = lift_to_sector(ab, photons).entries
            product = (
                lift_to_sector(a, photons).entries
                @ lift_to_sector(b, photons).entries
            )
            assert np.abs(lifted - product).max() <= 1e-8

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        modes=st.integers(1, 4),
        photons=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entries_match_per_entry_amplitudes(self, modes, photons, seed):
        # The recursive lift against one permanent per entry.
        lop = haar_unitary(modes, np.random.default_rng(seed))
        lifted = lift_to_sector(lop, photons)
        expected = np.array(
            [
                [fock_amplitude(lop, in_occ, out_occ) for in_occ in lifted.sector.basis]
                for out_occ in lifted.sector.basis
            ]
        )
        assert np.abs(lifted.entries - expected).max() <= 1e-12

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        modes=st.integers(1, 5),
        photons=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lift_is_unitary_within_lift_tol(self, modes, photons, seed):
        # Both Grams, taken literally rather than through _isometry_defect.
        lop = haar_unitary(modes, np.random.default_rng(seed))
        lifted = lift_to_sector(lop, photons)
        u, eye = lifted.entries, np.eye(lifted.sector.dim)
        assert np.abs(u.conj().T @ u - eye).max() <= LIFT_TOL
        assert np.abs(u @ u.conj().T - eye).max() <= LIFT_TOL

    def test_photons_above_cap_rejected(self, rng):
        with pytest.raises(CapacityError):
            lift_to_sector(haar_unitary(2, rng), PHOTON_CAP + 1)

    def test_sector_above_cap_rejected_before_lifting(self, rng):
        # 8 photons pass the photon cap, but the (8, 8) sector has 6435 states.
        with pytest.raises(CapacityError, match="6435 states"):
            lift_to_sector(haar_unitary(8, rng), 8)


@st.composite
def lift_cases(draw):
    """A lift: modes, top photon number and plan key (None keeps every column).

    Half the cases lift every column of 1 to 5 modes and 0 to 5 photons; the
    rest take the gather plan of a random scheme (1 or 2 system modes, 0 to
    3 ancilla modes with up to two photons each, a top level of at most 6
    photons and a random subset of the outcomes), keyed as _stack_plan is.
    """
    if draw(st.booleans()):
        return draw(st.integers(1, 5)), draw(st.integers(0, 5)), None
    system_modes = draw(st.integers(1, 2))
    ancilla_modes = draw(st.integers(0, 3))
    counts = st.lists(st.integers(0, 2), min_size=ancilla_modes, max_size=ancilla_modes)
    ancilla_input = tuple(draw(counts))
    photons = draw(st.sets(st.integers(0, max(5 - sum(ancilla_input), 0)), min_size=1))
    scheme = ConditionalScheme(
        system_modes=system_modes,
        ancilla_modes=ancilla_modes,
        ancilla_input=ancilla_input,
        outcomes=(ancilla_input,),
        system_photons=tuple(photons),
    ).all_outcomes()
    pick = st.sampled_from(scheme.outcomes)
    outcomes = draw(st.lists(pick, min_size=1, max_size=6, unique=True))
    plan = (scheme.system_basis, ancilla_input, tuple(outcomes))
    return system_modes + ancilla_modes, max(photons) + sum(ancilla_input), plan


def lift_with_flat_terms(terms, lop, photons, plan):
    """_lift_levels with ladders and plans built under _FLAT_TERMS = terms.

    Both caches read the constant when they build a level's program, so they
    are emptied before and after; each level's step is checked to be the one
    the constant picks.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nsgate.fock, "_FLAT_TERMS", terms)
        _ladder.cache_clear()
        _stack_plan.cache_clear()
        try:
            ladders = None if plan is None else _stack_plan(*plan)[4]
            if ladders is None:
                programs = [_ladder(lop.dim, n)[5] for n in range(2, photons + 1)]
            else:
                programs = [ladder[3] for ladder in ladders]
            assert all((program is None) == (terms == 0) for program in programs)
            return _lift_levels(lop, photons, ladders)
        finally:
            _ladder.cache_clear()
            _stack_plan.cache_clear()


class TestLiftSteps:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(case=lift_cases(), seed=st.integers(0, 2**32 - 1))
    def test_flat_step_matches_the_mode_loop(self, case, seed):
        # Every level formed by the per-mode loop alone (a size constant of
        # 0) and by the flat scatter-add of its program alone (one above any
        # level).
        modes, photons, plan = case
        lop = haar_unitary(modes, np.random.default_rng(seed))
        loop_levels = lift_with_flat_terms(0, lop, photons, plan)
        flat_levels = lift_with_flat_terms(10**9, lop, photons, plan)
        assert len(loop_levels) == len(flat_levels) == photons + 1
        for loop, flat in zip(loop_levels, flat_levels):
            assert loop.shape == flat.shape
            assert loop.tobytes() == flat.tobytes()

    def test_programs_stay_within_forty_bytes_a_term(self):
        # Five 8-byte arrays a term, and none above _FLAT_TERMS terms: a full
        # level keeps a program exactly when it has at most that many terms.
        for modes, photons in itertools.product(range(1, 7), range(2, 7)):
            first, _, _, up, _, program = _ladder(modes, photons)
            terms = up.size * len(first)
            assert (program is None) == (terms > _FLAT_TERMS)
            if program is not None:
                size = sum(a.nbytes for a in program)
                assert size == 40 * terms <= 40 * _FLAT_TERMS

    @pytest.mark.parametrize(
        "system_modes, sectors, ancilla",
        [(2, (0, 1, 2, 3), (2, 1, 0)), (1, (0, 1, 2), (1,) + (0,) * 13)],
    )
    def test_plan_programs_are_at_most_the_full_ladders(
        self, system_modes, sectors, ancilla
    ):
        scheme = ConditionalScheme(
            system_modes, len(ancilla), ancilla, (ancilla,), sectors
        ).all_outcomes()
        ladders = _stack_plan(scheme.system_basis, ancilla, scheme.outcomes)[4]
        lift_modes = system_modes + len(ancilla)
        for n, (*_, program) in enumerate(ladders, start=2):
            full = _ladder(lift_modes, n)[5]
            assert program is not None
            size = sum(a.nbytes for a in program)
            assert size <= 40 * _FLAT_TERMS
            if full is not None:
                assert size <= sum(a.nbytes for a in full)


class TestSectorMatrix:
    def test_callers_array_is_copied(self):
        # The matrix neither aliases nor freezes the array it is given.
        given_entries = np.eye(3, dtype=complex)
        matrix = SectorMatrix(FockSector(2, 2), given_entries)
        assert given_entries.flags.writeable
        assert not np.shares_memory(given_entries, matrix.entries)
        given_entries[0, 0] = 5
        assert matrix.entries[0, 0] == 1
        assert not matrix.entries.flags.writeable

    def test_shape_must_match_the_sector(self):
        with pytest.raises(ValueError, match="does not match sector dim 3"):
            SectorMatrix(FockSector(2, 2), np.eye(2))

    @pytest.mark.parametrize("photons", [0, 1, 3])
    def test_lifted_entries_are_read_only(self, rng, photons):
        lop = haar_unitary(3, rng)
        entries = lift_to_sector(lop, photons).entries
        assert entries.dtype == complex
        assert not entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            entries[0, 0] = 0
