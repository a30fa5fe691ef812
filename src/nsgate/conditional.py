"""Conditional operations on a system coupled to measured ancilla modes.

A conditional scheme couples system modes to ancilla modes through a global
mode unitary, then accepts the run only when the ancilla photon counters show
one of a designated set of occupation outcomes.  Each accepted outcome acts on
the system as a measurement (Kraus) operator; summing over every outcome
recovers a completeness identity, and summing over the accepted subset gives
the unnormalized conditional state and its success probability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .fock import (
    FockSector,
    LopCircuit,
    Occupation,
    SystemBasis,
    _adopt,
    _count,
    _frozen,
    _isometry_defect,
    _ladder,
    _lift_levels,
    _lift_plan,
    _rank,
    as_occupation,
)

#: Probabilities below this are treated as zero when normalizing states.
NORM_EPS = 1e-14

_HERM_TOL = 1e-12
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class ConditionalScheme:
    """System/ancilla split, ancilla input, and accepted measurement outcomes.

    The ancilla input is a pure Fock occupation; outcomes are the occupation
    patterns whose observation makes the run count as a success.  The system
    state space is the direct sum of the listed photon-number sectors.
    """

    system_modes: int
    ancilla_modes: int
    ancilla_input: Occupation
    outcomes: tuple[Occupation, ...]
    system_photons: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        for name in ("system_modes", "ancilla_modes"):
            object.__setattr__(self, name, _count(getattr(self, name), "mode counts"))
        object.__setattr__(self, "ancilla_input", as_occupation(self.ancilla_input))
        object.__setattr__(self, "outcomes", tuple(map(as_occupation, self.outcomes)))
        object.__setattr__(
            self, "system_photons", tuple(map(_count, self.system_photons))
        )
        if self.system_modes < 1:
            raise ValueError("a scheme needs at least one system mode")
        if self.ancilla_modes < 0:
            raise ValueError("ancilla mode count cannot be negative")
        if len(self.ancilla_input) != self.ancilla_modes:
            raise ValueError(
                f"ancilla input covers {len(self.ancilla_input)} modes, "
                f"scheme has {self.ancilla_modes}"
            )
        if not self.outcomes:
            raise ValueError("a scheme needs at least one accepted outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("accepted outcomes must be distinct")
        for occ in self.outcomes:
            if len(occ) != self.ancilla_modes:
                raise ValueError(
                    f"outcome {occ} does not cover {self.ancilla_modes} ancilla modes"
                )
        if not self.system_photons or any(n < 0 for n in self.system_photons):
            raise ValueError("system photon sectors must be non-negative")

    @classmethod
    def one_photon(
        cls, ancilla_modes: int, input_mode: int, accept_modes: Iterable[int]
    ) -> "ConditionalScheme":
        """Scheme with one system mode in sectors 0-2 and one ancilla photon.

        The photon enters ancilla mode ``input_mode`` and the run is accepted
        when it exits in any of ``accept_modes``; indices are zero-based over
        the ancilla modes only.
        """
        ancilla_modes = _count(ancilla_modes, "mode counts")
        input_mode = _count(input_mode, "mode indices")
        accept_modes = tuple(_count(m, "mode indices") for m in accept_modes)
        for m in (input_mode, *accept_modes):
            if not 0 <= m < ancilla_modes:
                raise ValueError(f"ancilla mode {m} outside 0..{ancilla_modes - 1}")

        one_hot = FockSector(ancilla_modes, 1).states  # one_hot[m]: the photon in m
        return cls(
            system_modes=1,
            ancilla_modes=ancilla_modes,
            ancilla_input=one_hot[input_mode],
            outcomes=tuple(one_hot[j] for j in accept_modes),
        )

    @property
    def rank(self) -> int:
        return len(self.outcomes)

    @cached_property
    def system_basis(self) -> SystemBasis:
        return SystemBasis(self.system_modes, self.system_photons)

    @cached_property
    def _plan(self) -> tuple:
        # Its outcomes' read plan (see _stack_plan): no later read hashes them.
        return _stack_plan(self.system_basis, self.ancilla_input, self.outcomes)

    def all_outcomes(self) -> "ConditionalScheme":
        """Scheme accepting every ancilla occupation photon conservation allows."""
        if self.ancilla_modes == 0:
            return self
        max_total = max(self.system_photons) + sum(self.ancilla_input)
        outcomes = SystemBasis(self.ancilla_modes, range(max_total + 1)).states
        return replace(self, outcomes=outcomes)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive-semidefinite state on a system basis.

    Unnormalized states are allowed (conditional outputs carry trace equal to
    their success probability), but the trace never exceeds 1.
    """

    basis: SystemBasis
    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)
        d = self.basis.dim
        if e.shape != (d, d):
            raise ValueError(f"entries shape {e.shape} does not match basis dim {d}")
        if not np.isfinite(e).all():
            raise ValueError("density matrix has non-finite entries")
        if not np.abs(e - e.conj().T).max(initial=0.0) <= _HERM_TOL:
            raise ValueError("density matrix must be Hermitian")
        if not np.linalg.eigvalsh(e).min(initial=0.0) >= -_PSD_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        tr = e.trace().real
        if not -_HERM_TOL <= tr <= 1 + _HERM_TOL:
            raise ValueError(f"trace {tr} outside [0, 1]")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def trace(self) -> float:
        return float(self.entries.trace().real)

    @classmethod
    def pure(cls, basis: SystemBasis, amplitudes) -> "DensityMatrix":
        """Rank-1 state from a (normalized) amplitude vector."""
        v = np.asarray(amplitudes, dtype=complex)
        if v.shape != (basis.dim,):
            raise ValueError(f"amplitude vector must have length {basis.dim}")
        norm = np.linalg.norm(v)
        if not 0 < norm < np.inf:
            raise ValueError(
                f"amplitude vector must have a positive, finite norm, got {norm}"
            )
        v = v / norm
        return cls(basis, np.outer(v, v.conj()))


@dataclass(frozen=True)
class MeasurementOperator:
    """System-space operator implementing one post-selection outcome.

    Columns run over the scheme's input sectors; rows run over the output
    sectors photon conservation allows for this outcome (input photons plus
    ancilla input photons minus outcome photons).
    """

    scheme: ConditionalScheme
    outcome: Occupation
    out_basis: SystemBasis
    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)
        if e.shape != (self.out_basis.dim, self.in_basis.dim):
            raise ValueError(
                f"entries shape {e.shape} does not match bases "
                f"({self.out_basis.dim}, {self.in_basis.dim})"
            )
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def in_basis(self) -> SystemBasis:
        return self.scheme.system_basis


@dataclass(frozen=True)
class ConditionalResult:
    """Unnormalized conditional state, success probability, normalized state.

    ``normalized`` is None when the probability is below NORM_EPS (the
    post-selection never succeeds, so no output state exists).
    """

    rho_bar: DensityMatrix
    probability: float
    normalized: Optional[DensityMatrix]


#: Scheme shapes whose read plans stay cached.  A plan holds a basis and
#: index arrays, nothing of the unitary, so every unitary shares it.
_PLAN_CACHE_SIZE = 64


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _stack_plan(in_basis: SystemBasis, ancilla: Occupation, outcomes: tuple):
    """Output basis, row destinations, source index, kept columns and layout.

    The basis is the union of each outcome's output sectors, or the vacuum for
    an outcome that reaches none.  K (see _kraus_matrix) has a column per
    in_basis state alpha and a row per accepted state gamma + mu of each
    input sector n's lift level n + |ancilla|, sector by sector; row i is row
    dest[i] of the flattened (outcomes * out dim, in dim) stack.  source[i, c]
    is K[i, c]'s position in the lift's buffer, levels 0..top then a zero:
    row gamma + mu, column alpha + ancilla of their level, or the zero
    when alpha lies in another input sector, since an outcome takes each
    input sector to its own output sector.  It costs 8 B a K entry.

    Only the columns K reads are lifted.  Column b of level n reads
    column prev[b] of level n - 1 alone (see fock._lift_levels), so kept[n]
    holds level n's read columns and the prev of every column kept one
    level up; levels 0 and 1 keep all.  The layout is fock._lift_plan's
    (start, ladders) of kept: start[n] is where level n begins and start[-1]
    the zero.  Every array is read-only.
    """
    modes, n_in, totals = in_basis.modes, sum(ancilla), {sum(mu) for mu in outcomes}
    lift_modes, top = modes + len(ancilla), max(in_basis.sectors) + n_in
    out_sectors = {n + n_in - t for n in in_basis.sectors for t in totals}
    if top < max(totals):
        out_sectors.add(0)
    out = SystemBasis(modes, {n for n in out_sectors if n >= 0})
    mus, anc = np.array(outcomes, dtype=int), np.array([ancilla], dtype=int)
    gammas, alphas = out._occupations, in_basis._occupations
    reads, dest = [], np.zeros(0, int)
    for level in (n + n_in for n in in_basis.sectors):
        # Rows: each gamma + mu ranked in the level; columns: alpha + ancilla.
        k, g = np.nonzero(np.add.outer(mus.sum(axis=1), gammas.sum(axis=1)) == level)
        if len(k):
            rows = _rank(np.hstack([gammas[g], mus[k]]))
            order = rows.argsort()
            dest = np.concatenate([dest, (k * out.dim + g)[order]])
            j = np.flatnonzero(alphas.sum(axis=1) + n_in == level)
            cols = _rank(np.hstack([alphas[j], anc.repeat(len(j), axis=0)]))
            reads.append((len(dest) - len(k), level, rows[order], j, cols))
    read = {level: cols for _, level, _, _, cols in reads}
    kept, parents = {0: np.arange(1), 1: np.arange(lift_modes)}, np.zeros(0, int)
    for n in range(top, 1, -1):
        prev = _ladder(lift_modes, n)[1]
        keep = np.zeros(len(prev), dtype=bool)
        keep[read.get(n, parents)] = keep[parents] = True
        kept[n], parents = np.flatnonzero(keep), prev[keep]
    kept = _frozen(*(kept[n] for n in range(top + 1)))
    start, _ = layout = _lift_plan(lift_modes, kept)
    source = np.full((len(dest), in_basis.dim), start[-1], dtype=np.intp)
    for band, level, rows, j, cols in reads:
        at = start[level] + rows[:, None] * len(kept[level])
        source[band : band + len(rows), j] = at + kept[level].searchsorted(cols)
    _frozen(dest, source)
    return out, dest, source, kept, layout


def _kraus_matrix(
    scheme: ConditionalScheme, lop: LopCircuit, outcomes: Sequence[Occupation]
) -> tuple[SystemBasis, np.ndarray, np.ndarray]:
    """One output basis, the Kraus matrix K and its rows' stack destinations.

    K has a row per accepted (outcome, output state) pair that some input
    sector reaches and a column per input state.  It is one take of the
    source index the plan of the scheme's shape caches (the scheme holds
    its own), from the buffer of a lift of only the columns it reads, whose
    zero fills the entries that break photon conservation.  So K†K is the
    sum of M†M over the outcomes, and the stack is K's rows put at dest.
    """
    if lop.dim != scheme.system_modes + scheme.ancilla_modes:
        raise ValueError(
            f"mode unitary has {lop.dim} modes, scheme needs "
            f"{scheme.system_modes + scheme.ancilla_modes}"
        )
    key = (scheme.system_basis, scheme.ancilla_input, tuple(outcomes))
    plan = scheme._plan if outcomes is scheme.outcomes else _stack_plan(*key)
    out_basis, dest, source, _, layout = plan
    return out_basis, _lift_levels(lop, layout).take(source), dest


def _kraus_stack(
    scheme: ConditionalScheme, lop: LopCircuit, outcomes: Sequence[Occupation]
) -> tuple[SystemBasis, np.ndarray]:
    """One output basis and the (outcomes, out dim, in dim) operator stack.

    The rows of _kraus_matrix put in place, so entries that would break
    photon conservation stay exact zeros.
    """
    out_basis, kraus, dest = _kraus_matrix(scheme, lop, outcomes)
    stack = np.zeros((len(outcomes) * out_basis.dim, kraus.shape[1]), dtype=complex)
    stack[dest] = kraus
    return out_basis, stack.reshape(len(outcomes), out_basis.dim, -1)


def kraus_operator(
    scheme: ConditionalScheme, lop: LopCircuit, outcome
) -> MeasurementOperator:
    """Extract the measurement operator for one ancilla outcome.

    Entry (out_state, in_state) is the global Fock amplitude from
    in_state + ancilla_input to out_state + outcome, read as an index slice
    of the mode unitary lifted to that total-photon sector; entries that
    would break photon conservation are exact zeros.
    """
    outcome = as_occupation(outcome)
    if len(outcome) != scheme.ancilla_modes:
        raise ValueError(
            f"outcome {outcome} does not cover {scheme.ancilla_modes} ancilla modes"
        )
    out_basis, stack = _kraus_stack(scheme, lop, [outcome])
    # Row 0 of a fresh complex stack, (out dim, in dim) by the plan.
    return _adopt(
        MeasurementOperator,
        scheme=scheme,
        outcome=outcome,
        out_basis=out_basis,
        entries=stack[0],
    )


def apply_conditional(
    scheme: ConditionalScheme, lop: LopCircuit, rho: DensityMatrix
) -> ConditionalResult:
    """Conditional output state and success probability for an input state."""
    if rho.basis != scheme.system_basis:
        raise ValueError("input state is not defined on the scheme's system basis")
    if rho.trace <= NORM_EPS:
        raise ValueError("input state must have positive trace")
    out_basis, stack = _kraus_stack(scheme, lop, scheme.outcomes)
    acc = (stack @ rho.entries @ stack.conj().transpose(0, 2, 1)).sum(axis=0)
    probability = float(acc.trace().real)
    probability = min(max(probability, 0.0), 1.0)
    rho_bar = DensityMatrix(out_basis, acc)
    normalized = None
    if probability > NORM_EPS:
        # A positive multiple of the checked rho_bar stays finite, Hermitian
        # and PSD, and its trace is 1 by the choice of probability.
        normalized = _adopt(
            DensityMatrix, basis=out_basis, entries=rho_bar.entries / probability
        )
    return ConditionalResult(rho_bar, probability, normalized)


def completeness_defect(scheme: ConditionalScheme, lop: LopCircuit) -> float:
    """Max-norm deviation of the summed M†M from the identity.

    Meaningful when the scheme's outcomes enumerate every ancilla occupation
    photon conservation allows (see ConditionalScheme.all_outcomes); then the
    defect is numerically zero for any unitary circuit.

    One Gram of the Kraus matrix K is the whole sum, with no array of
    operators; an input sector that no accepted outcome reaches keeps zero
    columns and a defect of 1.
    """
    return float(_isometry_defect(_kraus_matrix(scheme, lop, scheme.outcomes)[1]))


def decompose_by_ancilla_count(
    state, sector: FockSector, system_modes: int
) -> dict[int, np.ndarray]:
    """Split a global fixed-total state vector by ancilla photon count.

    Returns full-length component vectors, one per ancilla count from 0 to
    the sector total; the components sum back to the state and their squared
    norms add up to the state's squared norm.
    """
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (sector.dim,):
        raise ValueError(f"state vector must have length {sector.dim}")
    system_modes = _count(system_modes, "mode counts")
    if not 0 < system_modes < sector.modes:
        raise ValueError(
            f"system mode count must be in 1..{sector.modes - 1}, got {system_modes}"
        )
    return dict(enumerate(np.where(_ancilla_masks(sector, system_modes), vec, 0)))


@lru_cache(maxsize=None)
def _ancilla_masks(sector: SystemBasis, system_modes: int) -> np.ndarray:
    # Reads only what every equal key has: an equal one-sector SystemBasis
    # may reach this cache before or after the FockSector it equals.
    counts = sector._occupations[:, system_modes:].sum(axis=1)
    return _frozen(counts == np.arange(max(sector.sectors) + 1)[:, None])[0]
