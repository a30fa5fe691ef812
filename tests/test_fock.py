import functools
import itertools
import math
import types

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsgate.conditional
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
    decompose_by_ancilla_count,
    fock_amplitude,
    generalized_design,
    haar_unitary,
    klm_design,
    lift_to_sector,
    permanent,
)
from nsgate.conditional import _kraus_matrix, _stack_plan, completeness_defect
from nsgate.fock import (
    _FLAT_TERMS,
    _isometry_defect,
    _isometry_residual,
    _full_plan,
    _ladder,
    _lift_levels,
    _lift_plan,
    _phase_fixed_qr,
    _rank,
    as_occupation,
)
from nsgate.gate import _gate_figures


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


@functools.lru_cache(maxsize=None)
def brute_force_basis(modes, photons):
    """All occupation tuples with the given total, by raw product scan."""
    return [
        occ
        for occ in itertools.product(range(photons + 1), repeat=modes)
        if sum(occ) == photons
    ]


def brute_force_order(modes, sectors):
    """The canonical order by brute force: ascending totals, each sector's
    product scan sorted in reverse (lexicographically decreasing)."""
    return [
        occ
        for n in sorted(sectors)
        for occ in sorted(brute_force_basis(modes, n), reverse=True)
    ]


def reference_ladder(modes, photons):
    """_ladder's first, prev, scale and up by dict lookups in the brute-force
    order: the per-state path the combinatorial rank replaced."""
    basis = brute_force_order(modes, (photons,))
    below = brute_force_order(modes, (photons - 1,))
    at = {occ: i for i, occ in enumerate(basis)}
    at_below = {occ: i for i, occ in enumerate(below)}

    def shifted(occ, i, by):
        return occ[:i] + (occ[i] + by,) + occ[i + 1 :]

    first = [next(i for i, c in enumerate(occ) if c) for occ in basis]
    prev = [at_below[shifted(occ, j, -1)] for occ, j in zip(basis, first)]
    scale = 1.0 / np.sqrt(np.array([occ[j] for occ, j in zip(basis, first)]))
    up = [[at[shifted(p, i, 1)] for p in below] for i in range(modes)]
    return np.array(first), np.array(prev), scale, np.array(up)


class TestEnumerateSector:
    def test_vacuum_only(self):
        assert FockSector(2, 0).basis == ((0, 0),)

    def test_single_photon_basis(self):
        assert FockSector(3, 1).basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_two_photons_three_modes_count(self):
        sector = FockSector(3, 2)
        assert sector.dim == 6
        # The exact order, one-mode sectors and the vacuum included.
        for modes, photons in itertools.product(range(1, 7), range(7)):
            basis = FockSector(modes, photons).basis
            assert list(basis) == brute_force_order(modes, (photons,))
            assert all(type(c) is int for occ in basis for c in occ)

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

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        modes=st.integers(1, 6),
        sectors=st.sets(st.integers(0, 6), min_size=1),
    )
    def test_index_ranks_every_state(self, modes, sectors):
        # index is the sector's offset plus the state's combinatorial rank,
        # so it numbers the state table 0..dim - 1; it still refuses a wrong
        # length, a total outside the sectors and a negative entry.
        basis = SystemBasis(modes, sectors)
        assert [basis.index(occ) for occ in basis.states] == list(range(basis.dim))
        last = basis.states[-1]
        outside = min(set(range(8)) - set(sectors))
        for bad in (
            last + (0,),
            last[:-1],
            (outside,) + (0,) * (modes - 1),
            (-1,) + last[1:],
        ):
            with pytest.raises(ValueError):
                basis.index(bad)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        modes=st.integers(1, 6),
        sectors=st.sets(st.integers(0, 6), max_size=4),
    )
    @example(modes=1, sectors={0, 2, 5})
    @example(modes=3, sectors=set())
    def test_occupation_table_is_the_state_table(self, modes, sectors):
        # The int table that ladders, plans and masks read is the state
        # tuples as one read-only int64 array, (0, modes) with no sector.
        basis = SystemBasis(modes, sectors)
        table = basis._occupations
        assert table.dtype == np.int64 and table.shape == (basis.dim, modes)
        if basis.dim:
            expected = np.array(basis.states)
            assert table.dtype == expected.dtype
            assert np.array_equal(table, expected)
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0

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

    @pytest.mark.parametrize("n, k", [(3, 3), (11, 3), (4, 1), (3, 0)])
    def test_residual_of_a_strided_input(self, n, k, rng):
        # Every other row of a wider array, columns reversed: the identity
        # is subtracted through a view of the Gram, bit for bit.
        shape = (2 * n, k + 2)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = m[::2, ::-1][:, :k]
        assert not x.flags.c_contiguous or k == 0
        residual = _isometry_residual(x)
        expected = x.conj().T @ x - np.eye(k)
        assert residual.shape == (k, k)
        assert residual.tobytes() == expected.tobytes()

    def test_residual_of_an_object_input(self):
        # Sympy entries stay exact: x†x - I with no cast, its (0, 0) entry
        # |a|^2 + |c|^2 once the last row's 1 and the identity's 1 cancel.
        a, b, c, d = sympy.symbols("a b c d")
        x = np.array([[a, b], [c, d], [1, 0]], dtype=object)
        residual = _isometry_residual(x)
        expected = x.conj().T @ x - np.eye(2, dtype=int)
        assert residual.dtype == object and residual.shape == (2, 2)
        assert all(
            sympy.expand(r - e) == 0 for r, e in zip(residual.ravel(), expected.ravel())
        )
        norm = a * sympy.conjugate(a) + c * sympy.conjugate(c)
        assert sympy.expand(residual[0, 0] - norm) == 0


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
        with pytest.raises(CapacityError):
            lift_to_sector(LopCircuit(np.eye(1)), 10**9)

    def test_negative_photons_rejected(self, rng):
        with pytest.raises(ValueError, match="must be non-negative, got -1"):
            lift_to_sector(haar_unitary(2, rng), -1)

    def test_sector_above_cap_rejected_before_lifting(self, rng):
        # 8 photons pass the photon cap, but the (8, 8) sector has 6435 states.
        with pytest.raises(CapacityError, match="6435 states"):
            lift_to_sector(haar_unitary(8, rng), 8)


@st.composite
def lift_cases(draw):
    """A lift: modes, top photon number and plan key (None keeps every column).

    Half the cases lift every column of 1 to 5 modes and 0 to 5 photons; the
    rest take the read plan of a random scheme (1 or 2 system modes, 0 to
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


def buffer_levels(flat, start, rows):
    """The levels of a lift buffer laid out by start, level n as a rows[n] x
    (its size / rows[n]) matrix: views, not copies."""
    return [
        flat[start[n] : start[n + 1]].reshape(rows[n], -1) for n in range(len(rows))
    ]


def full_levels(lop, photons):
    """Every level of the full lift of sectors 0..photons, as square views."""
    rows = [FockSector(lop.dim, n).dim for n in range(photons + 1)]
    plan = _full_plan(lop.dim, photons)
    return buffer_levels(_lift_levels(lop, plan), plan[0], rows)


def lift_plan(modes, photons, key):
    """The plan of a lift case: the full plan, or the read plan of key."""
    return _full_plan(modes, photons) if key is None else _stack_plan(*key)[4]


def lift_with_flat_terms(terms, lop, photons, key):
    """_lift_levels' buffer and plan start, with the case's plan built under
    _FLAT_TERMS = terms.

    Both plan caches read the constant when they build a level's program, so
    they are emptied before and after; each level's step is checked to be
    the one the constant picks.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nsgate.fock, "_FLAT_TERMS", terms)
        _full_plan.cache_clear()
        _stack_plan.cache_clear()
        try:
            plan = lift_plan(lop.dim, photons, key)
            programs = [ladder[5] for ladder in plan[1]]
            assert all((program is None) == (terms == 0) for program in programs)
            return _lift_levels(lop, plan), plan[0]
        finally:
            _full_plan.cache_clear()
            _stack_plan.cache_clear()


class TestLiftSteps:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(case=lift_cases(), seed=st.integers(0, 2**32 - 1))
    def test_flat_step_matches_the_mode_loop(self, case, seed):
        # Every level formed by the per-mode loop alone (a size constant of
        # 0) and by the flat scatter-add of its program alone (one above any
        # level).
        modes, photons, key = case
        lop = haar_unitary(modes, np.random.default_rng(seed))
        loop_buffer, loop_start = lift_with_flat_terms(0, lop, photons, key)
        flat_buffer, flat_start = lift_with_flat_terms(10**9, lop, photons, key)
        assert loop_start == flat_start and len(loop_start) == photons + 2
        rows = [FockSector(modes, n).dim for n in range(photons + 1)]
        loop_levels = buffer_levels(loop_buffer, loop_start, rows)
        flat_levels = buffer_levels(flat_buffer, flat_start, rows)
        for loop, flat in zip(loop_levels, flat_levels):
            assert loop.shape == flat.shape
            assert loop.tobytes() == flat.tobytes()
        # The whole buffers, the trailing zero included.
        assert loop_buffer.shape == flat_buffer.shape == (loop_start[-1] + 1,)
        assert loop_buffer.tobytes() == flat_buffer.tobytes()

    def test_programs_stay_within_forty_bytes_a_term(self):
        # Five 8-byte arrays a term, and none above _FLAT_TERMS terms: a full
        # level keeps a program exactly when it has at most that many terms.
        for modes, photons in itertools.product(range(1, 7), range(2, 7)):
            first, _, _, up, _, program = _full_plan(modes, photons)[1][-1]
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
        ladders = _stack_plan(scheme.system_basis, ancilla, scheme.outcomes)[4][1]
        full_ladders = _full_plan(system_modes + len(ancilla), len(ladders) + 1)[1]
        for (*_, program), (*_, full) in zip(ladders, full_ladders):
            assert program is not None
            size = sum(a.nbytes for a in program)
            assert size <= 40 * _FLAT_TERMS
            if full is not None:
                assert size <= sum(a.nbytes for a in full)


def reference_plan(in_basis, ancilla, outcomes):
    """_stack_plan's output states, dest, source and kept columns by the
    per-state loop over every lift-level state and the dict lookups that the
    rank arithmetic replaced.  Source entries are plain ints."""
    modes, n_in = in_basis.modes, sum(ancilla)
    totals = {sum(mu) for mu in outcomes}
    lift_modes, top = modes + len(ancilla), max(in_basis.sectors) + n_in
    out_sectors = {n + n_in - t for n in in_basis.sectors for t in totals}
    if top < max(totals):
        out_sectors.add(0)
    out_states = brute_force_order(modes, {n for n in out_sectors if n >= 0})
    out_at = {occ: i for i, occ in enumerate(out_states)}
    in_states = brute_force_order(modes, in_basis.sectors)
    in_at = {occ: i for i, occ in enumerate(in_states)}
    block_of = {mu: k for k, mu in enumerate(outcomes)}
    reads, dest = [], []
    for level in (n + n_in for n in in_basis.sectors):
        rows, cols, inputs = [], [], []
        for r, occ in enumerate(brute_force_order(lift_modes, (level,))):
            gamma, mu = occ[:modes], occ[modes:]
            if mu in block_of:
                rows.append(r)
                dest.append(block_of[mu] * len(out_states) + out_at[gamma])
            if mu == ancilla:
                cols.append(r)
                inputs.append(in_at[gamma])
        if rows:
            reads.append((level, rows, cols, inputs))
    read = {level: cols for level, _, cols, _ in reads}
    kept, parents = {0: [0], 1: list(range(lift_modes))}, []
    for n in range(top, 1, -1):
        kept[n] = sorted(set(read.get(n, [])) | set(parents))
        prev = reference_ladder(lift_modes, n)[1]
        parents = [prev[b] for b in kept[n]]
    # Levels 0..top raveled one after another, then the zero.
    start = [0]
    for n in range(top + 1):
        rows_n = len(brute_force_order(lift_modes, (n,)))
        start.append(start[-1] + rows_n * len(kept[n]))
    source = [[start[-1]] * len(in_states) for _ in dest]
    i = 0
    for level, rows, cols, inputs in reads:
        at = {b: p for p, b in enumerate(kept[level])}
        for r in rows:
            for b, c in zip(cols, inputs):
                source[i][c] = start[level] + r * len(kept[level]) + at[b]
            i += 1
    return out_states, dest, source, [kept[n] for n in range(top + 1)]


@st.composite
def plan_keys(draw):
    """A _stack_plan key: 1 or 2 system modes, 0 to 3 ancilla modes with up
    to two photons each, up to three input sectors under a top level of at
    most 6 photons, and 1 to 6 outcomes drawn from every ancilla pattern of
    at most top + 2 photons, so some outcomes reach no level."""
    system_modes, ancilla_modes = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    counts = st.lists(st.integers(0, 2), min_size=ancilla_modes, max_size=ancilla_modes)
    ancilla = tuple(draw(counts))
    room = max(6 - sum(ancilla), 0)
    sectors = draw(st.sets(st.integers(0, room), min_size=1, max_size=3))
    top = max(sectors) + sum(ancilla)
    pool = SystemBasis(ancilla_modes, range(top + 3)).states if ancilla_modes else ((),)
    outcomes = st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True)
    return SystemBasis(system_modes, sectors), ancilla, tuple(draw(outcomes))


class TestRankedTables:
    """Ladders and read plans, built by the combinatorial rank, against the
    brute-force per-state lookups it replaced."""

    @pytest.mark.parametrize(
        "modes, photons", itertools.product(range(1, 6), range(2, 6))
    )
    def test_ladder_matches_the_lookup_reference(self, modes, photons):
        first, prev, scale, up = _ladder(modes, photons)[:4]
        for table, expected in zip(
            (first, prev, scale, up), reference_ladder(modes, photons)
        ):
            assert table.dtype == expected.dtype
            assert np.array_equal(table, expected)

    def test_rank_at_the_widest_sectors(self):
        # The exact table stays small at SECTOR_CAP's widest sectors: one
        # photon in 1716 modes, two in 58 (1711 states) and seven in 7.
        one_photon = np.zeros((3, 1716), dtype=int)
        one_photon[[0, 1, 2], [0, 900, 1715]] = 1
        assert _rank(one_photon).tolist() == [0, 900, 1715]
        for modes, photons in [(58, 2), (7, 7)]:
            first, last = np.zeros((2, modes), dtype=int)
            first[0], last[-1] = photons, photons
            dim = math.comb(photons + modes - 1, photons)
            assert _rank(np.array([first, last])).tolist() == [0, dim - 1]

    def assert_plan_matches_reference(self, key):
        out, dest, source, kept, _ = _stack_plan(*key)
        out_states, ref_dest, ref_source, ref_kept = reference_plan(*key)
        assert list(out.states) == out_states
        assert dest.dtype == np.intp and dest.tolist() == ref_dest
        assert [k.tolist() for k in kept] == ref_kept
        assert source.dtype == np.intp and not source.flags.writeable
        assert source.shape == (len(ref_dest), key[0].dim)
        assert source.tolist() == ref_source

    @pytest.mark.parametrize(
        "key",
        [
            # No ancilla: every level is an input sector, with one outcome ().
            (SystemBasis(2, (0, 1, 2)), (), ((),)),
            # One mode throughout: one-mode sectors of every level.
            (SystemBasis(1, (0, 1, 2, 3)), (), ((),)),
            # An outcome above the top level puts the vacuum in the output.
            (SystemBasis(1, (0, 1)), (1, 0), ((3, 0), (0, 1))),
            # No outcome reaches any level: an empty dest and source.
            (SystemBasis(1, (0,)), (1,), ((2,),)),
        ],
        ids=["zero-ancilla", "one-mode", "unreachable-outcome", "empty-dest"],
    )
    def test_plan_edge_cases_match_the_reference(self, key, rng):
        self.assert_plan_matches_reference(key)
        # K is complex with a row per dest entry, also with none, where the
        # completeness defect is 1.
        basis, ancilla, outcomes = key
        scheme = ConditionalScheme(
            basis.modes, len(ancilla), ancilla, outcomes, basis.sectors
        )
        lop = haar_unitary(basis.modes + len(ancilla), rng)
        _, kraus, dest = _kraus_matrix(scheme, lop, outcomes)
        assert kraus.dtype == complex and kraus.shape == (len(dest), basis.dim)
        if not len(dest):
            assert completeness_defect(scheme, lop) == 1

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(key=plan_keys())
    def test_plans_match_the_reference(self, key):
        self.assert_plan_matches_reference(key)

    def test_cold_builds_look_up_no_state(self):
        # The tables rank whole arrays: a cold ladder and a cold plan build
        # with SystemBasis.index refusing every call.
        def refuse(self, occ):
            raise AssertionError(f"index({occ}) called while building a table")

        scheme = ConditionalScheme.one_photon(4, 0, (0, 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SystemBasis, "index", refuse)
            _ladder.cache_clear()
            _stack_plan.cache_clear()
            try:
                assert len(_ladder(5, 4)[0]) == 70
                key = (scheme.system_basis, scheme.ancilla_input, scheme.outcomes)
                assert len(_stack_plan(*key)[4]) == 2
            finally:
                _ladder.cache_clear()
                _stack_plan.cache_clear()


def assert_one_buffer(lop, plan, rows):
    """Checks of one lift's buffer: each level n has rows[n] rows, every
    term program reads level n - 1 and writes level n alone, so no step
    writes the trailing zero, which stays +0 after the lift."""
    start, ladders = plan
    assert len(start) == len(rows) + 1 and start[:2] == (0, 1)
    assert all((start[n + 1] - start[n]) % rows[n] == 0 for n in range(len(rows)))
    for n, (*_, program) in enumerate(ladders, start=2):
        if program is None:
            continue
        src, _, _, _, dst = program
        assert ((start[n - 1] <= src) & (src < start[n])).all()
        assert ((start[n] <= dst) & (dst < start[n + 1])).all()
        assert not (dst == start[-1]).any()
    flat = _lift_levels(lop, plan)
    assert flat.shape == (start[-1] + 1,)
    zero = flat[-1]
    assert zero == 0 and not np.signbit(zero.real) and not np.signbit(zero.imag)


@pytest.mark.parametrize("value", [2.0, "2", 1.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: lift_to_sector(haar_unitary(3, np.random.default_rng(0)), n),
        lambda n: haar_unitary(n, np.random.default_rng(0)),
        lambda n: generalized_design(0.5, [0.5], n),
        lambda n: decompose_by_ancilla_count(np.eye(6)[0], FockSector(3, 2), n),
    ],
    ids=["lift-photons", "haar-dim", "design-modes", "decompose-system-modes"],
)
def test_integer_arguments_refuse_other_types(call, value):
    # A ValueError, never a TypeError from deeper down; 2.0 is refused, not
    # read as 2, also where a cache key would equal 2's.
    with pytest.raises(ValueError, match=f"must be integers, got {value!r}"):
        call(value)


class TestLiftBuffer:
    """A lift is one buffer, levels 0..top raveled in order and one zero,
    addressed by term programs that hold its global offsets."""

    def test_full_plan_start_is_the_running_sum_of_squared_dims(self):
        # A full lift keeps every column: level n is its dim x dim sector.
        for modes, photons in itertools.product(range(1, 7), range(7)):
            squares = [math.comb(n + modes - 1, n) ** 2 for n in range(photons + 1)]
            start = _full_plan(modes, photons)[0]
            assert start == tuple(itertools.accumulate(squares, initial=0))
            assert all(type(at) is int for at in start)

    @pytest.mark.parametrize(
        "modes, photons, match",
        [
            (2, 9, "9 or more photons exceed the cap of 8"),
            (8, 8, "6435 states"),
            # One-state sectors: only the photon cap bounds the levels listed.
            (1, 10**9, "9 or more photons exceed the cap of 8"),
        ],
    )
    def test_plan_refuses_above_the_caps_before_any_ladder(
        self, modes, photons, match
    ):
        # Both caps are checked before the plan builds a level's tables.
        def refuse(modes, n):
            raise AssertionError(f"_ladder({modes}, {n}) built above a cap")

        kept = (range(math.comb(n + modes - 1, n)) for n in range(photons + 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nsgate.fock, "_ladder", refuse)
            with pytest.raises(CapacityError, match=match):
                _lift_plan(modes, kept)
            with pytest.raises(CapacityError, match=match):
                _full_plan(modes, photons)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=lift_cases(), seed=st.integers(0, 2**32 - 1))
    def test_programs_stay_in_their_levels(self, case, seed):
        # Full ladders (every column) and read plans of all-outcome schemes.
        modes, photons, key = case
        lop = haar_unitary(modes, np.random.default_rng(seed))
        plan = lift_plan(modes, photons, key)
        rows = [FockSector(modes, n).dim for n in range(photons + 1)]
        assert_one_buffer(lop, plan, rows)
        if key is None:
            start = plan[0]
            assert all(
                start[n + 1] - start[n] == rows[n] ** 2 for n in range(photons + 1)
            )

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(key=plan_keys(), seed=st.integers(0, 2**32 - 1))
    def test_plan_programs_stay_in_their_levels(self, key, seed):
        # Plans whose outcomes may reach no level: level n holds its rows by
        # its kept columns.
        _, _, _, kept, plan = _stack_plan(*key)
        basis, ancilla, _ = key
        modes, photons = basis.modes + len(ancilla), len(kept) - 1
        lop = haar_unitary(modes, np.random.default_rng(seed))
        rows = [FockSector(modes, n).dim for n in range(photons + 1)]
        assert_one_buffer(lop, plan, rows)
        start = plan[0]
        assert all(
            start[n + 1] - start[n] == rows[n] * len(kept[n])
            for n in range(photons + 1)
        )

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        modes=st.integers(1, 5),
        photons=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lifted_sector_is_a_read_only_view_of_the_top_level(
        self, modes, photons, seed
    ):
        lop = haar_unitary(modes, np.random.default_rng(seed))
        entries = lift_to_sector(lop, photons).entries
        plan, dim = _full_plan(modes, photons), FockSector(modes, photons).dim
        start = plan[0]
        top = _lift_levels(lop, plan)[start[-2] : start[-1]]
        assert not entries.flags.writeable
        assert entries.shape == (dim, dim)
        assert entries.tobytes() == top.tobytes()
        # A view: its base is the whole buffer, lower levels and zero too.
        assert entries.base is not None and entries.base.shape == (start[-1] + 1,)


def symbolic_circuit(modes):
    """A stand-in for LopCircuit whose matrix is a grid of sympy symbols."""
    u = np.array(sympy.symbols(f"u:{modes}:{modes}"), dtype=object)
    return types.SimpleNamespace(dim=modes, matrix=u.reshape(modes, modes))


def exact_ladder(modes, photons):
    """_ladder with scale = 1/sqrt(occ_b[first_b]) and root = sqrt(p_i + 1) as
    sympy numbers, read off the sector states at the ladder's integer tables."""
    first, prev, _, up, _ = _ladder(modes, photons)
    basis = np.array(FockSector(modes, photons).basis)
    below = np.array(FockSector(modes, photons - 1).basis)
    occupied = basis[np.arange(len(basis)), first].tolist()
    scale = np.array([1 / sympy.sqrt(c) for c in occupied], dtype=object)
    root = np.array([[sympy.sqrt(c + 1) for c in row] for row in below.T.tolist()])
    return first, prev, scale, up, root.astype(object)[:, :, None]


def exact_plan(build, *args, flat):
    """The lift plan build(*args) makes on exact ladders (see exact_ladder),
    every level stepped by its term program (flat) or by the per-mode loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nsgate.fock, "_ladder", exact_ladder)
        patch.setattr(nsgate.fock, "_FLAT_TERMS", 10**9 if flat else 0)
        plan = build(*args)
    assert all((ladder[5] is not None) == flat for ladder in plan[1])
    return plan


def exact_kraus(scheme, lop):
    """_kraus_matrix of a scheme's outcomes through its read plan's source
    index, the lift run on the exact plan of the read plan's kept columns."""
    plan = exact_plan(_lift_plan, lop.dim, scheme._plan[3], flat=True)
    assert plan[0] == scheme._plan[4][0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            nsgate.conditional, "_lift_levels", lambda lop, _: _lift_levels(lop, plan)
        )
        return _kraus_matrix(scheme, lop, scheme.outcomes)


def permanent_formula(u, out_occ, in_occ):
    """per(U[rows, cols]) / sqrt(prod occ!), rows and columns repeated, the
    permanent as the permutation sum (1 for the empty block)."""
    rows, cols = (np.repeat(range(len(occ)), occ) for occ in (out_occ, in_occ))
    block = u[np.ix_(rows, cols)]
    per = sum(
        math.prod(block[i, j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(len(block)))
    )
    norm = math.prod(math.factorial(c) for c in (*in_occ, *out_occ))
    return per / sympy.sqrt(norm)


class TestExactLift:
    """The production lift, run on sympy symbols with exact tables, is the
    permanent formula entry for entry, and the NS read plan reads the
    closed forms of gate._gate_figures off it."""

    @pytest.mark.parametrize("flat", [True, False], ids=["flat", "loop"])
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_every_entry_is_the_permanent_formula(self, modes, flat):
        lop = symbolic_circuit(modes)
        start, _ = plan = exact_plan(_full_plan.__wrapped__, modes, 3, flat=flat)
        assert start == _full_plan(modes, 3)[0]
        buffer = _lift_levels(lop, plan)
        assert buffer.dtype == object and buffer.shape == (start[-1] + 1,)
        assert type(buffer[-1]) is int and buffer[-1] == 0
        rows = [FockSector(modes, n).dim for n in range(4)]
        for n, level in enumerate(buffer_levels(buffer, start, rows)):
            states = FockSector(modes, n).basis
            assert level.dtype == object and level.shape == (len(states),) * 2
            for (r, out_occ), (c, in_occ) in itertools.product(
                enumerate(states), repeat=2
            ):
                expected = permanent_formula(lop.matrix, out_occ, in_occ)
                assert sympy.expand(level[r, c] - expected) == 0

    @pytest.mark.parametrize("accept", [0, 1])
    def test_ns_plan_diagonal_is_the_closed_form(self, rng, accept):
        # System mode 0, the photon in at mode 1 and accepted at mode j.
        scheme = ConditionalScheme.one_photon(2, 0, (accept,))
        source = scheme._plan[2]
        lop = symbolic_circuit(3)
        # The production read, through the plan's source index, of the exact
        # restricted lift: its buffer, trailing zero included, takes the
        # symbols' object dtype.
        _, kraus, dest = exact_kraus(scheme, lop)
        off = ~np.eye(3, dtype=bool)
        assert kraus.dtype == object and kraus.shape == (3, 3)
        assert dest.tolist() == [0, 1, 2]
        assert (source[off] == source.max()).all()
        assert all(type(entry) is int and entry == 0 for entry in kraus[off])
        diagonal = np.diagonal(kraus).tolist()
        u, i, j = lop.matrix, 1, accept + 1
        m0, cross = u[j, i], u[0, i] * u[j, 0]
        closed = [m0, u[0, 0] * m0 + cross, u[0, 0] * (u[0, 0] * m0 + 2 * cross)]
        assert [sympy.expand(m - c) for m, c in zip(diagonal, closed)] == [0] * 3
        # The same diagonal at a Haar unitary gives _gate_figures' numbers.
        v = haar_unitary(3, rng).matrix
        at = dict(zip(u.ravel(), v.ravel()))
        m = [complex(entry.subs(at)) for entry in diagonal]
        prob, residual = _gate_figures(v, (j,))
        assert abs(m[0]) ** 2 == pytest.approx(prob, abs=1e-14)
        assert max(abs(m[1] - m[0]), abs(m[2] + m[0])) == pytest.approx(
            residual, abs=1e-14
        )

    def test_klm_optimum_is_attained_exactly(self):
        # The canonical 3-mode optimum of Knill, Laflamme and Milburn (Nature
        # 409, 46 (2001)) in closed form: column 0 = (1 - sqrt 2, q, a) and
        # column 1 = (q, 1/2, b), q = 2^(-1/4), a = sqrt(3 sqrt(2)/2 - 2),
        # b = -q (3/2 - sqrt 2) / a, column 2 their cross product (all real).
        r2, q = sympy.sqrt(2), 2 ** sympy.Rational(-1, 4)
        a = sympy.sqrt(3 * r2 / 2 - 2)
        b = -q * (sympy.Rational(3, 2) - r2) / a
        c0, c1 = [1 - r2, q, a], [q, sympy.Rational(1, 2), b]
        c2 = [c0[i - 2] * c1[i - 1] - c0[i - 1] * c1[i - 2] for i in range(3)]
        u = np.array([c0, c1, c2], dtype=object).T
        # Unitary exactly: the residual every unitarity check reads is 0.
        residual = _isometry_residual(u).ravel()
        assert [sympy.expand(sympy.radsimp(e)) for e in residual] == [0] * 9
        # The production NS read (photon in at mode 1, accepted there) of the
        # exact lift: the sign-shift diagonal (1/2, 1/2, -1/2), so p = 1/4.
        scheme = ConditionalScheme.one_photon(2, 0, (0,))
        kraus = exact_kraus(scheme, types.SimpleNamespace(dim=3, matrix=u))[1]
        half = sympy.Rational(1, 2)
        m = [sympy.expand(sympy.radsimp(e)) for e in np.diagonal(kraus)]
        assert m == [half, half, -half] and m[0] ** 2 == sympy.Rational(1, 4)
        # klm_design fixes rows 0 and 1 of columns 0 and 1 to these values;
        # its completion picks the phase of row 2, a mode never accepted, so
        # the whole matrix is U with that row times one unit phase.
        numeric = klm_design(2**-0.25, 2**-0.25).matrix.matrix
        exact = np.array(u.tolist(), dtype=complex)
        assert np.abs(numeric[:2, :2] - exact[:2, :2]).max() <= 1e-15
        phase = numeric[2, 0] / exact[2, 0]
        assert abs(abs(phase) - 1) <= 1e-15
        assert np.abs(numeric - np.diag([1, 1, phase]) @ exact).max() <= 1e-15


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
