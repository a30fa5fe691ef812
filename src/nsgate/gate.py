"""Nonlinear sign-shift (NS) gate designs on linear-optical circuits.

The NS gate flips the sign of the two-photon amplitude of a single mode,
alpha|0> + beta|1> + gamma|2>  ->  alpha|0> + beta|1> - gamma|2>,
which no passive one-mode circuit can do.  It becomes possible as a
conditional operation: couple the mode to ancilla modes carrying one photon,
apply a global mode unitary, and accept the run when the photon exits in a
designated ancilla mode.  Functioning requires the three diagonal Kraus
entries to satisfy m0 = m1 = -m2, which pins the system-system entry of the
mode unitary to 1 - sqrt(2) and ties the accepted-row entries together; the
remaining freedom is fixed here by completing the two constrained columns to
a full unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Complex
from typing import Sequence

import numpy as np
import numpy.typing as npt

from .conditional import ConditionalScheme, _kraus_stack
from .fock import LopCircuit, Occupation, _adopt, _count, _counts, _entries, _sequence
from .fock import _isometry_residual, _polar_completion, _typed, _unitary

SQRT2 = math.sqrt(2.0)

#: Residual below which a circuit counts as a functioning sign-shift gate.
CONDITION_TOL = 1e-10

# Slack of the completion's Gram checks and its eigenvalue rank cut.  Kept
# below the mode unitarity tolerance so accepted completions always validate
# as unitary.
_FEAS_EPS = 1e-11

# Largest entry defect a completed design may carry.
_DESIGN_TOL = 1e-12

# Mode the single ancilla photon enters; the system is mode 0.
_INPUT_MODE = 1


class InfeasibleDesignError(ValueError):
    """No unitary extends the requested fixed entries.

    ``violations`` names each violated condition on the Gram G = I - F†F of
    the fixed columns F: a column above unit norm, G not positive
    semidefinite, or rank G above the free modes (rows outside the block).
    A ValueError, since the requested entries are bad input.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class PartialMatrix:
    """Square matrix with a boolean mask flagging the fixed entries."""

    values: np.ndarray
    fixed: npt.NDArray[np.bool_]

    def __post_init__(self):
        v = _entries(self.values, "partial matrices", (None, None))
        try:
            f = np.array(self.fixed)
            got = f"{f.dtype} of shape {f.shape}"
        except ValueError:  # a ragged nesting, which has no shape
            f, got = None, "a ragged nesting"
        if f is None or f.dtype != bool or f.shape != v.shape:
            raise ValueError(
                f"fixed-entry masks must be bool arrays of shape {v.shape}, got {got}"
            )
        f.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "fixed", f)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _sign_shift_defects(u: np.ndarray, accept_modes: Sequence[int]) -> np.ndarray:
    # U00 - (1 - sqrt 2) and U0i Uj0 - sqrt 2 Uji for the input mode i and
    # each accepted mode j.  With m0 = Uji and cross = U0i Uj0, the
    # conditions m1 = m0 and m2 = -m0 are linear in (m0, cross) with
    # determinant U00^2 - 2 U00 - 1, zero only at U00 = 1 +- sqrt 2, and
    # |U00| <= 1 leaves 1 - sqrt 2.  So m1 = m0 = -m2 holds on an accepted
    # outcome exactly when its defects are zero (the entry rule) or on the
    # zero-probability branch m0 = cross = 0 with U00 free.  That branch
    # passes verify_ns without zero defects: the permutation swapping modes
    # 1 and 2 has residual 0 and p = 0 but defects (sqrt 2, 0).  The literal
    # conditions m1 - m0 = 0 and m2 + m0 = 0 would repeat the U00 equation
    # once per accepted mode (a rank-deficient constraint Jacobian in the
    # search).
    i, j = _INPUT_MODE, list(accept_modes)
    cross = u[0, i] * u[j, 0] - SQRT2 * u[j, i]
    return np.concatenate(([u[0, 0] - (1 - SQRT2)], cross))


def _sign_shift_jacobian(u: np.ndarray, accept_modes: Sequence[int]) -> np.ndarray:
    # Derivative of _sign_shift_defects with respect to the entries of the
    # first two columns of u, stacked column 0 then column 1 (2n entries).
    # The defects are holomorphic, so this is the whole complex derivative.
    n, i, j = u.shape[0], _INPUT_MODE, np.asarray(accept_modes, dtype=int)
    rows = np.arange(1, len(j) + 1)
    jac = np.zeros((len(rows) + 1, 2 * n), dtype=complex)
    jac[0, 0] = 1.0
    jac[rows, j] = u[0, i]
    jac[rows, i * n] = u[j, 0]
    jac[rows, i * n + j] = -SQRT2
    return jac


def _gate_figures(u: np.ndarray, accept: Sequence[int]) -> tuple[float, float]:
    # Success probability sum_j |U_ji|^2 and sign-shift residual for the
    # input mode i and the accepted rows j, from the closed diagonal Kraus
    # entries (checked against the lifted amplitudes of verify_ns).  Reads
    # only the first two columns of u.  On a design, U_ji = x y_j / sqrt 2
    # makes the probability (|x|^2 / 2) * sum_j |y_j|^2.
    i, u00 = _INPUT_MODE, u[0, 0]
    prob = 0.0
    residual = 0.0
    for j in accept:
        m0 = u[j, i]
        cross = u[0, i] * u[j, 0]
        m1 = u00 * m0 + cross
        m2 = u00 * (u00 * m0 + 2 * cross)
        prob += abs(m0) ** 2
        residual = max(residual, abs(m1 - m0), abs(m2 + m0))
    return prob, residual


def _accepted(modes, total_modes: int) -> tuple[int, ...]:
    # Distinct modes in 1..total_modes - 1: a mode listed twice would count
    # its photon's probability twice.
    accept = _counts(modes, "accept_modes", "accepted modes", 1, total_modes - 1)
    if not accept or len(set(accept)) < len(accept):
        raise ValueError(f"accepted modes must be distinct and non-empty, got {accept}")
    return accept


@dataclass(frozen=True)
class GeneralizedDesign:
    """Constrained entries of a rank-s sign-shift design, before completion."""

    partial: PartialMatrix
    accept_modes: tuple[int, ...]

    def __post_init__(self):
        dim = _typed(self.partial, PartialMatrix, "partial").dim
        accept = _accepted(self.accept_modes, dim)
        object.__setattr__(self, "accept_modes", accept)

    @property
    def predicted_probability(self) -> float:
        return _gate_figures(self.partial.values, self.accept_modes)[0]


@dataclass(frozen=True)
class NsDesign:
    """A completed sign-shift design: a full unitary and its accepted modes.

    Mode 0 is the system mode; the single ancilla photon enters at mode 1
    and the run is accepted when it exits in any of ``accept_modes``,
    distinct modes in 1..n - 1 (zero-based, on the global circuit), as in
    GeneralizedDesign.  Every other figure is read off the matrix.
    """

    matrix: LopCircuit
    accept_modes: tuple[int, ...]

    def __post_init__(self):
        _typed(self.matrix, LopCircuit, "matrix")
        accept = _accepted(self.accept_modes, self.total_modes)
        object.__setattr__(self, "accept_modes", accept)
        defects = _sign_shift_defects(self.matrix.matrix, accept)
        if not np.abs(defects).max() <= _DESIGN_TOL:
            raise ValueError(
                "matrix breaks the sign-shift entries U00 = 1 - sqrt(2) and "
                f"U01*Uj0 = sqrt(2)*Uj1 on accepted modes {accept}"
            )

    @property
    def total_modes(self) -> int:
        return self.matrix.dim

    @property
    def predicted_probability(self) -> float:
        return _gate_figures(self.matrix.matrix, self.accept_modes)[0]

    def scheme(self) -> ConditionalScheme:
        """Post-selection scheme matching this design's input and outcomes."""
        return ConditionalScheme.one_photon(
            self.total_modes - 1, _INPUT_MODE - 1, [j - 1 for j in self.accept_modes]
        )


@dataclass(frozen=True)
class OutcomeReport:
    """Diagonal Kraus entries and sign-shift residual for one outcome."""

    outcome: Occupation
    m0: complex
    m1: complex
    m2: complex
    residual: float
    probability: float


@dataclass(frozen=True)
class NsReport:
    """Per-outcome sign-shift diagnostics plus rolled-up totals."""

    per_outcome: tuple[OutcomeReport, ...]
    condition_residual: float
    success_probability: float

    @property
    def m0(self) -> complex:
        return self.per_outcome[0].m0

    @property
    def m1(self) -> complex:
        return self.per_outcome[0].m1

    @property
    def m2(self) -> complex:
        return self.per_outcome[0].m2


def _complete_columns(cols: np.ndarray, at: Sequence[int] = ()) -> LopCircuit:
    # Mode unitary whose columns at (default the first k) are exactly the
    # given n x k orthonormal columns, the others in order the trailing left
    # singular vectors of cols, as fock._polar_completion leaves them.
    # fock._unitary on the result is the completion's one check: it also
    # refuses columns that are not orthonormal.  The array is fresh, complex
    # and square, and a non-finite entry would fail that check too, so the
    # circuit adopts it with no copy.
    n, k = cols.shape
    out = _polar_completion(cols)
    out[:, :k] = cols
    at = list(at)
    if at and at != list(range(k)):
        # Column c of the result is column order.index(c) of out.
        order = at + [c for c in range(n) if c not in at]
        out = out[:, np.argsort(order)]
    return _adopt(LopCircuit, matrix=_unitary(out))


def _fixed_block(partial: PartialMatrix) -> tuple[list[int], list[int], np.ndarray]:
    # Rows and columns the fixed entries span, and the block F they fill.
    fixed = partial.fixed
    rows = np.flatnonzero(fixed.any(axis=1)).tolist()
    cols = np.flatnonzero(fixed.any(axis=0)).tolist()
    if not rows:
        raise ValueError("partial matrix has no fixed entries")
    if np.count_nonzero(fixed) != len(rows) * len(cols):
        raise ValueError("fixed entries must fill a rows-times-columns block")
    return rows, cols, partial.values[np.ix_(rows, cols)]


def _complete_block(
    rows: list[int], cols: list[int], f: np.ndarray, modes: int, max_modes: int
) -> LopCircuit:
    # Unitary on the fewest modes in modes..max_modes whose (rows, cols)
    # block is exactly f.  Its columns cols are orthonormal, so the free rows
    # (outside the block) must carry G = I - F†F: G >= 0 with rank G <= free.
    gram = -_isometry_residual(f)
    violations = [
        f"column {c} normalization: fixed entries exceed unit norm"
        for c, g in zip(cols, gram.diagonal().real)
        if g < -_FEAS_EPS
    ]
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] < -_FEAS_EPS and not violations:
        violations.append(f"fixed columns {cols} admit no positive semidefinite Gram")
    if violations:
        raise InfeasibleDesignError(violations)

    keep = eigvals > _FEAS_EPS
    rank = int(np.count_nonzero(keep))
    n = max(modes, len(rows) + rank)
    if n > max_modes:
        raise InfeasibleDesignError(
            [f"rank {rank} needs {rank} free modes, have {max_modes - len(rows)}"]
        )
    # Rows w with w†w = G fill the first free rows, so the columns close.
    w = np.sqrt(eigvals[keep])[:, None] * eigvecs[:, keep].conj().T
    block = np.zeros((n, len(cols)), dtype=complex)
    block[rows] = f
    block[[r for r in range(n) if r not in rows][:rank]] = w
    return _complete_columns(block, cols)


def complete_to_unitary(partial: PartialMatrix) -> LopCircuit:
    """Extend fixed entries to a unitary of the same size, or prove none exists.

    The fixed entries must fill a rows-times-columns block F.  A completion
    exists iff G = I - F†F is positive semidefinite and its rank fits in the
    free rows; the error names the violated condition.
    """
    _typed(partial, PartialMatrix, "partial")
    return _complete_block(*_fixed_block(partial), partial.dim, partial.dim)


def generalized_design(
    x: complex, y_list: Sequence[complex], total_modes: int
) -> GeneralizedDesign:
    """Constrained entries of a rank-s sign-shift design.

    ``x`` is the complex coupling of the system into the ancilla input mode
    and ``y_list`` the couplings of each accepted mode back into the system.
    The photon enters at mode 1 and is accepted in modes 1..s; other
    placements are mode permutations of this one.  The predicted success
    probability is (|x|^2 / 2) * sum(|y_j|^2).
    """
    y_list = _sequence(y_list, "y_list", "couplings")
    s = len(y_list)
    n = _count(total_modes, "mode counts", s + 1)
    if not all(isinstance(z, Complex) and abs(z) <= 1 for z in (x, *y_list)):
        raise ValueError("coupling moduli must lie in [0, 1]")

    values = np.zeros((n, n), dtype=complex)
    mask = np.zeros((n, n), dtype=bool)
    ux = complex(x)
    values[0, 0] = 1 - SQRT2
    values[0, 1] = ux
    mask[0, :2] = True
    for j, y in enumerate(y_list, start=1):
        uy = complex(y)
        values[j, 0] = uy
        values[j, 1] = ux * uy / SQRT2
        mask[j, :2] = True
    return GeneralizedDesign(
        partial=PartialMatrix(values, mask), accept_modes=tuple(range(1, s + 1))
    )


def complete_design(design: GeneralizedDesign, max_extra_modes: int = 2) -> NsDesign:
    """Complete a design on max(its modes, s + 1 + rank G) modes, s accepted.

    G is the fixed columns' Gram; at most max_extra_modes vacuum modes are added.
    """
    max_extra_modes = _count(max_extra_modes, "max_extra_modes")
    base = _typed(design, GeneralizedDesign, "design").partial.dim
    circuit = _complete_block(
        *_fixed_block(design.partial), base, base + max_extra_modes
    )
    return NsDesign(matrix=circuit, accept_modes=design.accept_modes)


def klm_design(u12: complex, u21: complex) -> NsDesign:
    """Rank-1 sign-shift design from the two free mode couplings.

    The returned circuit fixes the system-system entry to 1 - sqrt(2) and the
    ancilla return entry to u12 * u21 / sqrt(2), then completes the rest to a
    unitary on the fewest modes that admit one (three at the canonical
    optimum u12 = u21 = 2**-0.25, where the success probability is 1/4).
    """
    return complete_design(generalized_design(u12, [u21], total_modes=2))


def verify_ns(lop: LopCircuit, scheme: ConditionalScheme) -> NsReport:
    """Check whether a circuit implements the sign shift under a scheme.

    Reads the Kraus diagonal (m0, m1, m2) of every accepted outcome off one
    lift of the circuit and reports the worst deviation from m0 = m1 = -m2
    together with per-outcome and total success probabilities.  A failing
    gate yields a large residual, not an error.
    """
    _typed(lop, LopCircuit, "lop")
    _typed(scheme, ConditionalScheme, "scheme")
    if scheme.system_modes != 1:
        raise ValueError("sign-shift verification needs a single system mode")
    if scheme.system_photons != (0, 1, 2):
        raise ValueError("sign-shift verification needs photon sectors {0, 1, 2}")
    n_in = sum(scheme.ancilla_input)
    for mu in scheme.outcomes:
        if sum(mu) != n_in:
            raise ValueError(
                f"outcome {mu} changes the ancilla photon count; the Kraus "
                "operator is not diagonal on the sign-shift sectors"
            )
    reports = []
    _, stack = _kraus_stack(scheme, lop, scheme.outcomes)
    diagonals = np.diagonal(stack, axis1=1, axis2=2)
    for outcome, (m0, m1, m2) in zip(scheme.outcomes, diagonals):
        residual = max(abs(m1 - m0), abs(m2 + m0))
        reports.append(
            OutcomeReport(
                outcome=outcome,
                m0=m0,
                m1=m1,
                m2=m2,
                residual=float(residual),
                probability=float(abs(m0) ** 2),
            )
        )
    return NsReport(
        per_outcome=tuple(reports),
        condition_residual=max(r.residual for r in reports),
        success_probability=sum(r.probability for r in reports),
    )


def reduce_general_ancilla(chi: np.ndarray) -> LopCircuit:
    """Ancilla-only unitary turning the one-photon basis input into |chi>.

    Returns the k x k unitary whose first column is the amplitude vector chi,
    so that injecting the photon into the first ancilla mode and applying it
    prepares the general one-photon state.  Prepending it to a circuit (as
    U @ V on the ancilla block) reduces any one-photon ancilla input to the
    basis-state input, leaving all post-selected probabilities unchanged.
    """
    v = _entries(chi, "chi", (None,))
    # |chi|^2 - 1 is entry (0, 0) of the U†U - I that the completion's one
    # check reads, so that check also reads chi's norm.
    try:
        return _complete_columns(v[:, None])
    except ValueError:
        raise ValueError("chi must be normalized to one photon") from None


def ancilla_block(system_modes: int, ancilla_unitary: LopCircuit) -> LopCircuit:
    """Embed an ancilla-only unitary as identity-on-system ⊕ ancilla action.

    B = I ⊕ V is adopted without a second unitarity check: V, a checked
    LopCircuit, is finite, and B†B − I = 0 ⊕ (V†V − I) and BB† − I =
    0 ⊕ (VV† − I) entry for entry, so B's defects are V's (computed, they
    differ only in the order a matmul sums V's entries).
    """
    _typed(ancilla_unitary, LopCircuit, "ancilla_unitary")
    s = _count(system_modes, "system mode counts")
    out = np.eye(s + ancilla_unitary.dim, dtype=complex)
    out[s:, s:] = ancilla_unitary.matrix
    return _adopt(LopCircuit, matrix=out)
