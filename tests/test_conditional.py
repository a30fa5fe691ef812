import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nsgate.conditional
from nsgate import (
    CapacityError,
    ConditionalScheme,
    DensityMatrix,
    FockSector,
    LopCircuit,
    SystemBasis,
    apply_conditional,
    completeness_defect,
    decompose_by_ancilla_count,
    fock_amplitude,
    haar_unitary,
    kraus_operator,
    lift_to_sector,
    verify_ns,
)
from nsgate.conditional import (
    _PLAN_CACHE_SIZE,
    _ancilla_masks,
    _kraus_matrix,
    _kraus_stack,
    _stack_plan,
)
from nsgate.fock import _full_plan, _ladder, _lift_levels, _ryser_table


def one_system_scheme(ancilla_modes, input_mode=0, outcome_modes=(0,)):
    """Single system mode, one ancilla photon in/out, sectors {0,1,2}."""
    return ConditionalScheme(
        system_modes=1,
        ancilla_modes=ancilla_modes,
        ancilla_input=tuple(1 if m == input_mode else 0 for m in range(ancilla_modes)),
        outcomes=tuple(
            tuple(1 if m == j else 0 for m in range(ancilla_modes))
            for j in outcome_modes
        ),
        system_photons=(0, 1, 2),
    )


def global_probability_oracle(scheme, lop, psi):
    """Success probability by lifting the whole circuit, sector by sector.

    Builds the global input vector in each total-photon sector, applies the
    lifted unitary, and adds up the squared projections onto every accepted
    (system x ancilla) output state.  It shares the sector lift with the Kraus
    extraction but none of its index slicing; the per-entry fock_amplitude
    tests below check the lift itself.
    """
    total_prob = 0.0
    for amp, n_sys in zip(psi, scheme.system_basis.sectors):
        if amp == 0:
            continue
        n_tot = n_sys + sum(scheme.ancilla_input)
        sector = FockSector(lop.dim, n_tot)
        vec = np.zeros(sector.dim, dtype=complex)
        sys_occ = (n_sys,)  # single system mode
        vec[sector.index(sys_occ + scheme.ancilla_input)] = 1.0
        out = lift_to_sector(lop, n_tot).entries @ vec
        for mu in scheme.outcomes:
            if sum(mu) > n_tot:
                continue
            gamma = (n_tot - sum(mu),)
            total_prob += abs(amp) ** 2 * abs(out[sector.index(gamma + mu)]) ** 2
    return total_prob


def amplitude_block(lop, scheme, out_basis, mu):
    """Per-entry amplitudes of outcome mu's operator on an output basis."""
    return np.array(
        [
            [
                fock_amplitude(lop, alpha + scheme.ancilla_input, gamma + mu)
                for alpha in scheme.system_basis.states
            ]
            for gamma in out_basis.states
        ]
    )


@st.composite
def random_schemes(draw):
    """Small schemes, multi-photon ancilla inputs included, with a circuit seed.

    The global photon number stays at or below 4, so per-entry amplitudes
    remain cheap enough to serve as the reference.
    """
    system_modes = draw(st.integers(1, 2))
    ancilla_modes = draw(st.integers(1, 3))
    counts = st.lists(st.integers(0, 2), min_size=ancilla_modes, max_size=ancilla_modes)
    ancilla_input = tuple(draw(counts))
    top = 4 - sum(ancilla_input)
    assume(top >= 0)
    photons = draw(st.sets(st.integers(0, top), min_size=1))
    scheme = ConditionalScheme(
        system_modes=system_modes,
        ancilla_modes=ancilla_modes,
        ancilla_input=ancilla_input,
        outcomes=(ancilla_input,),
        system_photons=tuple(photons),
    ).all_outcomes()
    return scheme, draw(st.integers(0, 2**32 - 1))


def full_lift_reads(scheme, lop, outcomes, out_basis):
    """The stack read entry by entry off a lift of every column."""
    ancilla = scheme.ancilla_input
    photons = max(scheme.system_photons) + sum(ancilla)
    start, _ = plan = _full_plan(lop.dim, photons)
    flat = _lift_levels(lop, plan)
    in_states = scheme.system_basis.states
    stack = np.zeros((len(outcomes), out_basis.dim, len(in_states)), dtype=complex)
    for k, mu in enumerate(outcomes):
        for g, gamma in enumerate(out_basis.states):
            for a, alpha in enumerate(in_states):
                n = sum(alpha) + sum(ancilla)
                if sum(gamma) + sum(mu) == n:
                    sector = FockSector(lop.dim, n)
                    row, col = sector.index(gamma + mu), sector.index(alpha + ancilla)
                    level = flat[start[n] : start[n + 1]].reshape(sector.dim, -1)
                    stack[k, g, a] = level[row, col]
    return stack


@st.composite
def stack_cases(draw):
    """A scheme with 0 to 3 ancilla modes, a circuit seed and an outcome list.

    Ancilla inputs hold up to two photons a mode and the top lift level stays
    at or below 4.  With an ancilla mode, the outcomes are a random subset in
    random order plus one that takes more photons than any input holds.
    """
    system_modes = draw(st.integers(1, 2))
    ancilla_modes = draw(st.integers(0, 3))
    counts = st.lists(st.integers(0, 2), min_size=ancilla_modes, max_size=ancilla_modes)
    ancilla_input = tuple(draw(counts))
    assume(sum(ancilla_input) <= 4)
    photons = draw(st.sets(st.integers(0, 4 - sum(ancilla_input)), min_size=1))
    scheme = ConditionalScheme(
        system_modes=system_modes,
        ancilla_modes=ancilla_modes,
        ancilla_input=ancilla_input,
        outcomes=(ancilla_input,),
        system_photons=tuple(photons),
    ).all_outcomes()
    outcomes = list(scheme.outcomes)
    if ancilla_modes:
        pick = st.sampled_from(scheme.outcomes)
        subset = draw(st.lists(pick, min_size=1, max_size=6, unique=True))
        top = max(photons) + sum(ancilla_input)
        unreachable = (top + 1,) + (0,) * (ancilla_modes - 1)
        outcomes = draw(st.permutations([*subset, unreachable]))
    return scheme, draw(st.integers(0, 2**32 - 1)), outcomes


@st.composite
def permuted_schemes(draw):
    """A scheme with every outcome, a circuit seed and an ancilla permutation.

    One or two system modes, two or three ancilla modes and at most two
    ancilla input photons.
    """
    system_modes = draw(st.integers(1, 2))
    ancilla_modes = draw(st.integers(2, 3))
    photon_modes = draw(st.lists(st.integers(0, ancilla_modes - 1), max_size=2))
    scheme = ConditionalScheme(
        system_modes=system_modes,
        ancilla_modes=ancilla_modes,
        ancilla_input=tuple(photon_modes.count(m) for m in range(ancilla_modes)),
        outcomes=((0,) * ancilla_modes,),
    ).all_outcomes()
    perm = draw(st.permutations(range(ancilla_modes)))
    return scheme, draw(st.integers(0, 2**32 - 1)), perm


class TestSchemeValidation:
    def test_duplicate_outcomes_rejected(self):
        with pytest.raises(ValueError):
            ConditionalScheme(1, 2, (1, 0), ((1, 0), (1, 0)))

    def test_empty_outcomes_rejected(self):
        with pytest.raises(ValueError):
            ConditionalScheme(1, 2, (1, 0), ())

    def test_numpy_integer_counts_accepted(self):
        scheme = ConditionalScheme(
            1, 1, (np.int64(1),), ((np.int64(1),),), (0, np.int64(2))
        )
        assert scheme == ConditionalScheme(1, 1, (1,), ((1,),), (0, 2))

    def test_system_photons_are_stored_sorted_and_distinct(self):
        # The order and repeats of the listed sectors change nothing the
        # scheme computes, so they change neither equality nor the hash.
        listed = ConditionalScheme(1, 1, (1,), ((1,),), (2, 1, 0, 1))
        plain = ConditionalScheme(1, 1, (1,), ((1,),), (0, 1, 2))
        assert listed.system_photons == (0, 1, 2)
        assert listed == plain and hash(listed) == hash(plain)
        assert listed.system_basis is plain.system_basis

    def test_one_photon_matches_hand_built_scheme(self):
        scheme = ConditionalScheme.one_photon(3, 1, (0, 2))
        assert scheme == one_system_scheme(3, input_mode=1, outcome_modes=(0, 2))

    def test_all_outcomes_enumeration(self):
        scheme = one_system_scheme(2).all_outcomes()
        # totals 0..3 on two ancilla modes: 1 + 2 + 3 + 4 occupations
        assert scheme.rank == 10
        assert len(set(scheme.outcomes)) == 10


class TestSchemeStatePerShape:
    """A scheme's system basis, and a one-photon scheme, exist once per shape."""

    def test_equal_schemes_share_one_system_basis(self):
        a = ConditionalScheme(1, 2, (1, 0), ((1, 0),))
        b = ConditionalScheme(1, 2, (1, 0), ((1, 0),))
        permuted = ConditionalScheme(1, 2, (1, 0), ((0, 1),), (2, 0, 1, 2))
        assert a == b and a is not b
        assert a.system_basis is b.system_basis is permuted.system_basis
        assert a.system_basis == SystemBasis(1, (0, 1, 2))
        # A plain attribute, set when the scheme is built; not a field.
        assert vars(a)["system_basis"] is a.system_basis
        assert "system_basis" not in {f.name for f in dataclasses.fields(a)}
        assert "system_basis" not in repr(a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.system_basis = SystemBasis(1, (0,))
        cache = nsgate.conditional._system_basis.cache_info()
        assert cache.maxsize == _PLAN_CACHE_SIZE

    def test_a_basis_above_the_sector_cap_is_refused_when_built(self):
        # The basis is looked up with the scheme, not at its first read.
        with pytest.raises(CapacityError, match="6435 states"):
            ConditionalScheme(8, 1, (1,), ((1,),), (8,))

    def test_one_photon_returns_the_one_scheme_of_its_shape(self):
        scheme = ConditionalScheme.one_photon(3, 1, (0, 2))
        assert scheme is ConditionalScheme.one_photon(3, 1, [0, 2])
        assert scheme is ConditionalScheme.one_photon(np.int64(3), 1, range(0, 3, 2))
        assert scheme is not ConditionalScheme.one_photon(3, 1, (2, 0))
        cache = nsgate.conditional._one_photon_scheme.cache_info()
        assert cache.maxsize == _PLAN_CACHE_SIZE

    def test_a_design_reads_a_warm_scheme(self, klm_optimum):
        design, _ = klm_optimum
        verify_ns(design.matrix, design.scheme())
        scheme = design.scheme()
        assert scheme is design.scheme()
        assert "_plan" in vars(scheme)  # its read plan, built by the first read

    def test_one_photon_refuses_on_every_call(self):
        # Arguments are checked before the cache, and a refusal is not
        # cached: 2.0 would hash as 2, whose scheme is already cached.
        bad = [
            ((2.0, 0, (0,)), "ancilla mode counts must be integers, got 2.0"),
            ((2, -1, (0,)), "input mode indices must be in 0..1, got -1"),
            ((2, 0, (2,)), "accepted mode indices must be in 0..1, got 2"),
            ((2, 0, (0, 0)), "accepted outcomes must be distinct"),
        ]
        for _ in range(2):
            ConditionalScheme.one_photon(2, 0, (0,))
            for args, message in bad:
                with pytest.raises(ValueError) as err:
                    ConditionalScheme.one_photon(*args)
                assert str(err.value) == message



class TestKrausOperator:
    def test_klm_diagonal_matches_closed_forms(self, klm_optimum):
        design, scheme = klm_optimum
        u = design.matrix.matrix
        op = kraus_operator(scheme, design.matrix, scheme.outcomes[0])
        expected = np.diag(
            [
                u[1, 1],
                u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0],
                u[0, 0] * (u[0, 0] * u[1, 1] + 2 * u[0, 1] * u[1, 0]),
            ]
        )
        assert np.abs(op.entries - expected).max() < 1e-12

    def test_identity_reproduces_identity(self):
        scheme = one_system_scheme(2)
        op = kraus_operator(scheme, LopCircuit(np.eye(3)), (1, 0))
        assert np.allclose(op.entries, np.eye(3), atol=1e-14)

    def test_conservation_zeros(self, rng):
        # outcome drains the ancilla photon: every entry that would break
        # global photon conservation is exactly zero.
        scheme = one_system_scheme(2)
        op = kraus_operator(scheme, haar_unitary(3, rng), (0, 0))
        for a, gamma in enumerate(op.out_basis.states):
            for b, alpha in enumerate(op.in_basis.states):
                if sum(gamma) + 0 != sum(alpha) + 1:
                    assert op.entries[a, b] == 0

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            kraus_operator(one_system_scheme(2), haar_unitary(4, rng), (1, 0))

    def test_entries_are_the_stack_rows_read_only(self, rng):
        # Each operator adopts row 0 of its own one-outcome stack: no copy,
        # and the same bits as its outcome's row of the whole stack.
        scheme = one_system_scheme(3, outcome_modes=(0, 1, 2))
        lop = haar_unitary(4, rng)
        _, stack = _kraus_stack(scheme, lop, scheme.outcomes)
        for outcome, row in zip(scheme.outcomes, stack):
            entries = kraus_operator(scheme, lop, outcome).entries
            assert not entries.flags.writeable
            assert entries.dtype == complex and entries.tobytes() == row.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                entries[0, 0] = 0

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(case=random_schemes(), data=st.data())
    def test_entries_match_per_entry_amplitudes(self, case, data):
        scheme, seed = case
        modes = scheme.system_modes + scheme.ancilla_modes
        lop = haar_unitary(modes, np.random.default_rng(seed))
        mu = data.draw(st.sampled_from(scheme.outcomes))
        op = kraus_operator(scheme, lop, mu)
        expected = np.array(
            [
                [
                    fock_amplitude(lop, alpha + scheme.ancilla_input, gamma + mu)
                    for alpha in op.in_basis.states
                ]
                for gamma in op.out_basis.states
            ]
        )
        assert np.abs(op.entries - expected).max() <= 1e-12

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(case=random_schemes(), data=st.data())
    def test_stack_blocks_match_per_entry_amplitudes(self, case, data):
        # A random subset of outcomes in random order, plus one outcome that
        # takes more photons than any input holds, so photon shifts are mixed
        # and one block reaches no sector.
        scheme, seed = case
        lop = haar_unitary(
            scheme.system_modes + scheme.ancilla_modes, np.random.default_rng(seed)
        )
        top = max(scheme.system_photons) + sum(scheme.ancilla_input)
        unreachable = (top + 1,) + (0,) * (scheme.ancilla_modes - 1)
        pick = st.sampled_from(scheme.outcomes)
        subset = data.draw(st.lists(pick, min_size=1, max_size=6, unique=True))
        outcomes = data.draw(st.permutations([*subset, unreachable]))
        out_basis, stack = _kraus_stack(scheme, lop, outcomes)
        assert 0 in out_basis.sectors
        assert stack.shape == (len(outcomes), out_basis.dim, scheme.system_basis.dim)
        for mu, block in zip(outcomes, stack):
            expected = amplitude_block(lop, scheme, out_basis, mu)
            assert np.abs(block - expected).max() <= 1e-12

    def test_plan_holds_structure_only(self):
        # Two circuits on one scheme share one plan, and each stack is its own
        # circuit's; later circuits on that scheme build no plan.
        scheme = one_system_scheme(3, outcome_modes=(0, 2)).all_outcomes()
        rng = np.random.default_rng(11)
        first, second = haar_unitary(4, rng), haar_unitary(4, rng)
        for lop in (first, second, first):
            out_basis, stack = _kraus_stack(scheme, lop, scheme.outcomes)
            for mu, block in zip(scheme.outcomes, stack):
                expected = amplitude_block(lop, scheme, out_basis, mu)
                assert np.abs(block - expected).max() <= 1e-12
        before = _stack_plan.cache_info()
        for _ in range(10):
            _kraus_stack(scheme, haar_unitary(4, rng), scheme.outcomes)
        after = _stack_plan.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses
        assert after.maxsize == _PLAN_CACHE_SIZE

    def test_scheme_reads_its_own_plan_once(self, klm_optimum):
        # After a scheme's first read, reads of its own outcomes look up no
        # plan by key (so hash no outcome tuple); one-outcome reads still do.
        design, scheme = klm_optimum
        scheme = dataclasses.replace(scheme)  # a fresh scheme, no plan held
        lop = design.matrix
        rho = DensityMatrix.pure(scheme.system_basis, np.ones(3))
        first = completeness_defect(scheme, lop)
        keys = []

        def spy(*key):
            keys.append(key)
            return _stack_plan(*key)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nsgate.conditional, "_stack_plan", spy)
            assert completeness_defect(scheme, lop) == first
            apply_conditional(scheme, lop, rho)
            verify_ns(lop, scheme)
            assert keys == []
            kraus_operator(scheme, lop, scheme.outcomes[0])
        basis, ancilla = scheme.system_basis, scheme.ancilla_input
        assert keys == [(basis, ancilla, (scheme.outcomes[0],))]
        assert scheme._plan is _stack_plan(basis, ancilla, scheme.outcomes)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=stack_cases())
    # Top lift level 0, then 1 reached by the system or by the ancilla alone.
    @example(case=(ConditionalScheme(1, 0, (), ((),), (0,)), 0, [()]))
    @example(case=(ConditionalScheme(2, 0, (), ((),), (0, 1)), 1, [()]))
    @example(
        case=(ConditionalScheme(1, 1, (1,), ((0,), (1,)), (0,)), 2, [(2,), (1,), (0,)])
    )
    def test_restricted_stack_equals_full_lift_reads(self, case):
        # The plan lifts only the columns its source index reads; each kept
        # column is computed as in the full lift, so the stack matches bit
        # for bit.
        scheme, seed, outcomes = case
        lop = haar_unitary(
            scheme.system_modes + scheme.ancilla_modes, np.random.default_rng(seed)
        )
        out_basis, stack = _kraus_stack(scheme, lop, outcomes)
        expected = full_lift_reads(scheme, lop, outcomes, out_basis)
        assert stack.shape == expected.shape
        assert stack.tobytes() == expected.tobytes()

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(case=permuted_schemes())
    def test_ancilla_permutation_leaves_operators_unchanged(self, case):
        # New ancilla mode k is old ancilla mode perm[k], in the circuit, the
        # input and every outcome alike.
        scheme, seed, perm = case
        s = scheme.system_modes
        lop = haar_unitary(s + scheme.ancilla_modes, np.random.default_rng(seed))
        modes = [*range(s), *(s + k for k in perm)]
        permuted_lop = LopCircuit(lop.matrix[np.ix_(modes, modes)])

        def relabel(occ):
            return tuple(occ[k] for k in perm)

        permuted = ConditionalScheme(
            system_modes=s,
            ancilla_modes=scheme.ancilla_modes,
            ancilla_input=relabel(scheme.ancilla_input),
            outcomes=tuple(relabel(mu) for mu in scheme.outcomes),
            system_photons=scheme.system_photons,
        )
        for mu in scheme.outcomes:
            op = kraus_operator(scheme, lop, mu)
            moved = kraus_operator(permuted, permuted_lop, relabel(mu))
            assert moved.entries.shape == op.entries.shape
            assert np.abs(moved.entries - op.entries).max(initial=0.0) <= 1e-12

    def test_diagonal_when_outcome_conserves_ancilla_photons(self, rng):
        # single system mode and outcome total equal to the input total force
        # a diagonal operator, with exact zeros off the diagonal
        for _ in range(5):
            scheme = one_system_scheme(2)
            op = kraus_operator(scheme, haar_unitary(3, rng), (0, 1))
            off = op.entries[~np.eye(3, dtype=bool)]
            assert np.all(off == 0)


def plan_of(scheme):
    return _stack_plan(scheme.system_basis, scheme.ancilla_input, scheme.outcomes)


class TestStackPlanColumns:
    """The plan keeps the input columns of each lift level and their parents.

    Counted, not timed: a plan that went back to lifting every column fails
    here.
    """

    def assert_closed_under_prev(self, scheme):
        _, _, _, kept, (_, ladders) = plan_of(scheme)
        lift_modes = scheme.system_modes + scheme.ancilla_modes
        assert len(kept) == max(scheme.system_photons) + sum(scheme.ancilla_input) + 1
        assert len(ladders) == max(len(kept) - 2, 0)
        for n, ladder in enumerate(ladders, start=2):
            first, prev, scale = _ladder(lift_modes, n)[:3]
            assert np.isin(prev[kept[n]], kept[n - 1]).all()
            assert np.array_equal(kept[n - 1][ladder[1]], prev[kept[n]])
            assert np.array_equal(ladder[0], first[kept[n]])
            assert np.array_equal(ladder[2], scale[kept[n]])

    @pytest.mark.parametrize(
        "system_modes, sectors, ancilla, counts",
        [
            (2, (0, 1, 2, 3), (1, 1, 0), {2: 1, 3: 2, 4: 3, 5: 4}),
            (2, (0, 1, 2, 3), (2, 1, 0), {2: 1, 3: 1, 4: 2, 5: 3, 6: 4}),
            (1, (0, 1, 2), (1, 1, 1), {2: 1, 3: 1, 4: 1, 5: 1}),
            (2, (0, 1, 2), (2, 0), {2: 1, 3: 2, 4: 3}),
        ],
    )
    def test_lift_benchmark_schemes(self, system_modes, sectors, ancilla, counts):
        # Input sector sizes from level |ancilla| up; one parent column below.
        scheme = ConditionalScheme(
            system_modes, len(ancilla), ancilla, (ancilla,), sectors
        ).all_outcomes()
        kept = plan_of(scheme)[3]
        assert {n: len(kept[n]) for n in range(2, len(kept))} == counts
        self.assert_closed_under_prev(scheme)

    @pytest.mark.parametrize("ancilla_modes", [1, 2, 5, 13])
    def test_one_photon_schemes_keep_one_column(self, ancilla_modes):
        for input_mode in (0, ancilla_modes - 1):
            scheme = ConditionalScheme.one_photon(
                ancilla_modes, input_mode, range(ancilla_modes)
            ).all_outcomes()
            kept = plan_of(scheme)[3]
            assert [len(k) for k in kept[2:]] == [1, 1]
            assert len(kept[1]) == ancilla_modes + 1
            self.assert_closed_under_prev(scheme)


class TestApplyConditional:
    def test_identity_passthrough(self, rng):
        scheme = one_system_scheme(2)
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = DensityMatrix.pure(scheme.system_basis, amps)
        result = apply_conditional(scheme, LopCircuit(np.eye(3)), rho)
        assert result.probability == pytest.approx(1.0, abs=1e-12)
        assert np.abs(result.rho_bar.entries - rho.entries).max() < 1e-12

    def test_klm_two_photon_probability(self, klm_optimum):
        design, scheme = klm_optimum
        rho = DensityMatrix.pure(scheme.system_basis, np.array([0, 0, 1.0]))
        result = apply_conditional(scheme, design.matrix, rho)
        assert result.probability == pytest.approx(0.25, abs=1e-12)

    def test_pure_state_against_global_lift_oracle(self, rng):
        for _ in range(10):
            scheme = one_system_scheme(2)
            lop = haar_unitary(3, rng)
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            psi /= np.linalg.norm(psi)
            rho = DensityMatrix.pure(scheme.system_basis, psi)
            result = apply_conditional(scheme, lop, rho)
            oracle = global_probability_oracle(scheme, lop, psi)
            assert result.probability == pytest.approx(oracle, abs=1e-12)
            # conditional state is a valid (sub-normalized) density matrix
            eigs = np.linalg.eigvalsh(result.rho_bar.entries)
            assert eigs.min() >= -1e-10
            assert result.rho_bar.trace == pytest.approx(result.probability)

    def test_normalized_state_exposed(self, klm_optimum, rng):
        design, scheme = klm_optimum
        psi = rng.standard_normal(3)
        rho = DensityMatrix.pure(scheme.system_basis, psi)
        result = apply_conditional(scheme, design.matrix, rho)
        assert result.normalized is not None
        assert result.normalized.trace == pytest.approx(1.0, abs=1e-12)

    def test_normalized_is_rho_bar_over_probability(self, rng):
        scheme = one_system_scheme(3, outcome_modes=(0, 2))
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = DensityMatrix.pure(scheme.system_basis, amps)
        result = apply_conditional(scheme, haar_unitary(4, rng), rho)
        p, normalized = result.probability, result.normalized
        assert normalized.basis == result.rho_bar.basis
        assert np.array_equal(normalized.entries, result.rho_bar.entries / p)
        assert abs(normalized.trace - 1.0) <= 1e-12
        assert not normalized.entries.flags.writeable

    def test_never_succeeding_postselection(self):
        # identity circuit never moves the photon to the second ancilla mode
        scheme = one_system_scheme(2, input_mode=0, outcome_modes=(1,))
        rho = DensityMatrix.pure(scheme.system_basis, np.ones(3))
        result = apply_conditional(scheme, LopCircuit(np.eye(3)), rho)
        assert result.probability == 0.0
        assert result.normalized is None

    def test_rank_additivity(self, rng):
        lop = haar_unitary(3, rng)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        both = one_system_scheme(2, outcome_modes=(0, 1))
        first = one_system_scheme(2, outcome_modes=(0,))
        second = one_system_scheme(2, outcome_modes=(1,))
        rho = DensityMatrix.pure(both.system_basis, psi)
        p_both = apply_conditional(both, lop, rho).probability
        p_split = (
            apply_conditional(first, lop, rho).probability
            + apply_conditional(second, lop, rho).probability
        )
        assert p_both == pytest.approx(p_split, abs=1e-12)

    def test_probability_within_unit_interval(self, rng):
        for _ in range(5):
            scheme = one_system_scheme(2, outcome_modes=(0, 1)).all_outcomes()
            lop = haar_unitary(3, rng)
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rho = DensityMatrix.pure(scheme.system_basis, psi)
            p = apply_conditional(scheme, lop, rho).probability
            assert 0.0 <= p <= 1.0
            assert p == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(case=random_schemes())
    def test_mixed_shift_operators_placed_by_state(self, case):
        # Every outcome is accepted, so output sectors differ across outcomes;
        # each M rho M† must land on the states its own rows name.
        scheme, seed = case
        rng = np.random.default_rng(seed)
        lop = haar_unitary(scheme.system_modes + scheme.ancilla_modes, rng)
        amps = rng.standard_normal((2, scheme.system_basis.dim))
        rho = DensityMatrix.pure(scheme.system_basis, amps[0] + 1j * amps[1])
        result = apply_conditional(scheme, lop, rho).rho_bar
        basis, rho_bar = result.basis, result.entries
        ops = [kraus_operator(scheme, lop, mu) for mu in scheme.outcomes]
        union = {n for op in ops for n in op.out_basis.sectors}
        assert basis.sectors == tuple(sorted(union))
        expected = np.zeros_like(rho_bar)
        for op in ops:
            rows = [basis.index(occ) for occ in op.out_basis.states]
            block = op.entries @ rho.entries @ op.entries.conj().T
            expected[np.ix_(rows, rows)] += block
        assert np.abs(rho_bar - expected).max() <= 1e-12

    def test_outcome_reaching_no_sector_adds_vacuum(self, rng):
        # Outcome (2, 2) removes four ancilla photons from a three-photon
        # input: it reaches no output sector and contributes the vacuum.
        scheme = ConditionalScheme(
            system_modes=1,
            ancilla_modes=2,
            ancilla_input=(1, 0),
            outcomes=((1, 0), (2, 2)),
            system_photons=(2,),
        )
        lop = haar_unitary(3, rng)
        rho = DensityMatrix.pure(scheme.system_basis, [1.0])
        rho_bar = apply_conditional(scheme, lop, rho).rho_bar
        assert rho_bar.basis.sectors == (0, 2)
        empty = kraus_operator(scheme, lop, (2, 2))
        assert empty.out_basis.sectors == (0,)
        assert not empty.entries.any()
        (m,) = kraus_operator(scheme, lop, (1, 0)).entries.ravel()
        expected = np.diag([0, abs(m) ** 2])
        assert np.abs(rho_bar.entries - expected).max() <= 1e-15


class TestCompleteness:
    def test_identity(self):
        scheme = one_system_scheme(2).all_outcomes()
        assert completeness_defect(scheme, LopCircuit(np.eye(3))) <= 1e-14

    def test_random_unitaries(self, rng):
        for _ in range(10):
            scheme = one_system_scheme(2).all_outcomes()
            assert completeness_defect(scheme, haar_unitary(3, rng)) <= 1e-10

    def test_klm_circuit(self, klm_optimum):
        design, scheme = klm_optimum
        assert completeness_defect(scheme.all_outcomes(), design.matrix) <= 1e-10

    def test_four_mode_three_ancilla(self, rng):
        scheme = ConditionalScheme(
            system_modes=1,
            ancilla_modes=3,
            ancilla_input=(1, 0, 0),
            outcomes=((1, 0, 0),),
            system_photons=(0, 1, 2),
        ).all_outcomes()
        assert completeness_defect(scheme, haar_unitary(4, rng)) <= 1e-10

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(case=random_schemes())
    def test_random_schemes(self, case):
        scheme, seed = case
        modes = scheme.system_modes + scheme.ancilla_modes
        lop = haar_unitary(modes, np.random.default_rng(seed))
        assert completeness_defect(scheme, lop) <= 1e-10

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=stack_cases(), whole=st.booleans())
    # Outcome (3,) leaves sectors 0 and 1 unreached: a defect of exactly 1.
    @example(case=(ConditionalScheme(1, 1, (1,), ((1,),)), 5, [(3,)]), whole=False)
    @example(case=(ConditionalScheme(1, 1, (1,), ((1,),)), 5, [(3,)]), whole=True)
    def test_defect_matches_dense_stack_gram(self, case, whole):
        # The oracle is the Gram of the dense (outcomes, out dim, in dim)
        # stack; the drawn outcomes are every outcome or a random subset with
        # one that reaches no sector.
        scheme, seed, outcomes = case
        if not whole:
            scheme = dataclasses.replace(scheme, outcomes=tuple(outcomes))
        lop = haar_unitary(
            scheme.system_modes + scheme.ancilla_modes, np.random.default_rng(seed)
        )
        dim = scheme.system_basis.dim
        ops = _kraus_stack(scheme, lop, scheme.outcomes)[1].reshape(-1, dim)
        oracle = np.abs(ops.conj().T @ ops - np.eye(dim)).max()
        defect = completeness_defect(scheme, lop)
        assert abs(defect - oracle) <= 1e-14
        # K is the stack's rows at dest, and every other stack row is zero.
        kraus, dest = _kraus_matrix(scheme, lop, scheme.outcomes)[1:]
        assert len(np.unique(dest)) == len(dest)
        assert ops[dest].tobytes() == kraus.tobytes()
        assert not np.delete(ops, dest, axis=0).any()
        n_in = sum(scheme.ancilla_input)
        if any(
            all(sum(mu) > n + n_in for mu in scheme.outcomes)
            for n in scheme.system_photons
        ):
            assert defect == 1.0

    def test_defect_allocates_less_than_the_dense_stack(self):
        # The lift benchmark's (2, 1, 0) scheme with every outcome.  Counted,
        # not timed: a defect read off a dense (84, 28, 10) stack fails here.
        scheme = ConditionalScheme(
            2, 3, (2, 1, 0), ((2, 1, 0),), (0, 1, 2, 3)
        ).all_outcomes()
        lop = haar_unitary(5, np.random.default_rng(1))
        out_basis = plan_of(scheme)[0]
        shape = (len(scheme.outcomes), out_basis.dim, scheme.system_basis.dim)
        assert shape == (84, 28, 10)
        dense = math.prod(shape) * np.dtype(complex).itemsize
        completeness_defect(scheme, lop)  # plan and ladders cached
        tracemalloc.start()
        try:
            completeness_defect(scheme, lop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense


class TestSystemBasis:
    def test_foreign_occupation_rejected(self):
        basis = SystemBasis(1, (0, 1))
        for occ in [(5,), (1, 0)]:
            with pytest.raises(ValueError, match="not a state"):
                basis.index(occ)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        basis = SystemBasis(1, (0, 1))
        with pytest.raises(ValueError):
            DensityMatrix(basis, np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_trace_above_one(self):
        basis = SystemBasis(1, (0, 1))
        with pytest.raises(ValueError):
            DensityMatrix(basis, np.eye(2))

    def test_rejects_negative_eigenvalues(self):
        basis = SystemBasis(1, (0, 1))
        with pytest.raises(ValueError):
            DensityMatrix(basis, np.diag([0.8, -0.3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        basis = SystemBasis(1, (0, 1))
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(basis, np.array([[0.5, 0.0], [0.0, bad]]))

    def test_pure_normalizes(self):
        basis = SystemBasis(1, (0, 1, 2))
        rho = DensityMatrix.pure(basis, np.array([2.0, 0, 0]))
        assert rho.trace == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "amps, message",
        [
            pytest.param([0.0, 0.0, 0.0], "positive, finite norm", id="amps0"),
            pytest.param([0.0, np.nan, 0.0], "non-finite", id="amps1"),
            pytest.param([np.inf, 0.0, 0.0], "non-finite", id="amps2"),
            pytest.param([1e308, 1e308, 0.0], "positive, finite norm", id="amps3"),
        ],
    )
    def test_pure_refuses_norm_not_positive_and_finite(self, amps, message):
        # Refused before dividing: numpy warns on 0 / 0 (an error under the
        # suite's RuntimeWarning filter) and would leave non-finite entries.
        # A NaN or inf entry is refused by the array rule, before any norm,
        # and finite entries whose norm overflows by the rule, not a warning.
        basis = SystemBasis(1, (0, 1, 2))
        with pytest.raises(ValueError, match=message):
            DensityMatrix.pure(basis, np.array(amps))


class TestDecomposeByAncillaCount:
    def test_product_state_single_component(self):
        # |1>_S (x) |10>_A inside the two-photon sector on three modes
        sector = FockSector(3, 2)
        vec = np.zeros(sector.dim, dtype=complex)
        vec[sector.index((1, 1, 0))] = 1.0
        parts = decompose_by_ancilla_count(vec, sector, system_modes=1)
        norms = {c: np.linalg.norm(v) ** 2 for c, v in parts.items()}
        assert norms[1] == pytest.approx(1.0)
        assert all(n == pytest.approx(0.0) for c, n in norms.items() if c != 1)

    def test_klm_output_components(self, klm_optimum):
        design, _ = klm_optimum
        sector = FockSector(3, 3)
        vec = np.zeros(sector.dim, dtype=complex)
        vec[sector.index((2, 1, 0))] = 1.0
        out = lift_to_sector(design.matrix, 3).entries @ vec
        parts = decompose_by_ancilla_count(out, sector, system_modes=1)
        assert set(parts) == {0, 1, 2, 3}
        total = sum(np.linalg.norm(v) ** 2 for v in parts.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        recombined = sum(parts.values())
        assert np.abs(recombined - out).max() < 1e-15

    def test_ancilla_only_circuit_preserves_component_norms(self, rng):
        sector = FockSector(3, 3)
        vec = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
        vec /= np.linalg.norm(vec)
        v_anc = haar_unitary(2, rng)
        global_v = np.eye(3, dtype=complex)
        global_v[1:, 1:] = v_anc.matrix
        moved = lift_to_sector(LopCircuit(global_v), 3).entries @ vec
        before = decompose_by_ancilla_count(vec, sector, system_modes=1)
        after = decompose_by_ancilla_count(moved, sector, system_modes=1)
        for c in before:
            assert np.linalg.norm(after[c]) ** 2 == pytest.approx(
                np.linalg.norm(before[c]) ** 2, abs=1e-12
            )

    def test_equal_one_sector_basis_gives_same_split(self, rng):
        # FockSector(3, 3) == SystemBasis(3, (3,)), so the two share one cached
        # mask table; the split must not depend on which one fills it.
        vec = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        bases = [SystemBasis(3, (3,)), FockSector(3, 3)]
        for order in (bases, bases[::-1]):
            _ancilla_masks.cache_clear()
            a, b = (decompose_by_ancilla_count(vec, s, system_modes=1) for s in order)
            assert a.keys() == b.keys() == {0, 1, 2, 3}
            assert all(np.array_equal(a[c], b[c]) for c in a)


def cached_arrays(tables):
    """Every array in a cached result, through nested tuples and lists."""
    if isinstance(tables, np.ndarray):
        yield tables
    elif isinstance(tables, (tuple, list)):
        for item in tables:
            yield from cached_arrays(item)


class TestCachedTablesAreReadOnly:
    """Cached index tables are shared by every later call: none is writable."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _ladder(3, 3),
            lambda: _ladder(4, 2),
            lambda: _full_plan(3, 3),
            lambda: _stack_plan(
                SystemBasis(2, (0, 1, 2)),
                (2, 0),
                ConditionalScheme(2, 2, (2, 0), ((2, 0),), (0, 1, 2))
                .all_outcomes()
                .outcomes,
            ),
            lambda: plan_of(one_system_scheme(3, outcome_modes=(0, 2))),
            lambda: _ryser_table(3),
            lambda: _ancilla_masks(FockSector(3, 2), 1),
        ],
        ids=["ladder", "ladder-one-photon-below", "full-plan", "plan",
             "plan-one-photon", "ryser", "ancilla-masks"],
    )
    def test_writing_raises(self, build):
        arrays = list(cached_arrays(build()))
        assert arrays
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
