"""Success-probability bound for sign-shift gates with one ancilla photon.

Write s = x^2 and t = y^2 for the squared moduli of the system-to-input-mode
and accepted-mode-to-system couplings, k = 4 - 2 sqrt(2) and
c = 2 sqrt(2) - 2.  The fixed entries of a functioning design embed in a
unitary only inside the region s + t - k s t <= c, 0 <= s, t <= c, bounded by
the hyperbola t = (c - s) / (1 - k s).  Along it the success probability
p = s t / 2 obeys 1/4 - p = (sqrt(2) s - 1)^2 / (4 (1 - k s)), so p peaks at
exactly 0.25 for s = t = 1/sqrt(2).

The same holds at every rank.  Let a design on n modes accept the photon in
any of m modes, t = sum_j |y_j|^2, and f = n - 1 - m count the free modes
(ancilla modes not accepted).  Columns 0 and 1 of a unitary are orthonormal,
so a completion exists iff the Gram G = I - F†F of their fixed block F is
positive semidefinite with rank G <= f (``gate``).
  1. G00 = c - t, G11 = 1 - s - s t/2, |G01|^2 = s ((1 - sqrt 2) + t/sqrt 2)^2
     and det G = c - s - t + k s t, so G >= 0 is the region and p <= 1/4 on
     it at any rank (exact proofs: TestExactCertificate, tests/test_bounds.py).
  2. f >= 2 admits the whole region, f = 1 only its boundary (rank G = 1).
  3. f = 0 (every ancilla mode accepted) needs G = 0, but G00 = 0 forces
     t = c, and then |G01| = |x| (3 - 2 sqrt 2) is 0 only at x = 0, where
     G11 = 1: no gate.

A constrained search over the two unitary columns the gate depends on, with
their orthonormality and the sign-shift conditions imposed as equalities and
every derivative exact, provides an independent numerical check that no
circuit beats that value, for rank-1 and rank-m post-selection alike; each
working endpoint it reports is checked to be a first-order KKT point (Nocedal
and Wright, Numerical Optimization, 2006, ch. 12).  Every derivative is one
rule of CR calculus (Kreutz-Delgado, arXiv:0906.4835): a real function g of
the packed columns z = (a, b) has the packed gradient G = 2 dg/d(conj z),
and its gradient over the search reals (Re z, Im z) is (Re G, Im G).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .conditional import ConditionalScheme
from .fock import CapacityError, LopCircuit, _count, _isometry_defect
from .fock import _polar_completion, _tolerance
from .gate import (
    _gate_figures,
    _sign_shift_defects,
    _sign_shift_jacobian,
    verify_ns,
)

SQRT2 = math.sqrt(2.0)

#: Upper end of the admissible range for both squared couplings, 2(sqrt(2)-1).
X2_MAX = 2 * (SQRT2 - 1)

# Cross-term coefficient k of the region s + t - k s t <= X2_MAX.
_K = 4 - 2 * SQRT2

# Slack of the feasibility inequalities.
_REGION_TOL = 1e-12

# Success probabilities of working search endpoints this close to the best
# count as tied; the tie goes to the smallest residual.
_TIE_TOL = 1e-12

#: Sign-shift residual and entry-rule defect under which a search point
#: counts as working (for max_feasible_probability, the residual and the
#: orthonormality defect of the column pair).
FEASIBLE_RESIDUAL = 1e-6

#: Largest first-order KKT defect ||grad f - J^T lambda|| expected at a
#: working search endpoint.
KKT_TOL = 1e-6

#: Largest grid size of scan_curve and sample_region.  The region grid holds
#: GRID_CAP^2 points, about 1e6, and its CSV text is built in memory.
GRID_CAP = 1001

#: Largest mode count of numeric_search, kraus-check and reduce-demo: each
#: reads a three-photon lift, and at 21 modes that sector exceeds SECTOR_CAP.
SEARCH_MODE_CAP = 20


@dataclass(frozen=True)
class BoundCurveSample:
    """One point of the feasibility boundary, with its curve coefficients.

    A, B, C give the Gram entries (module docstring) at y^2 = u, x^2 = v:
    G00 = B(u), G11 = 1 - v C(u), |G01|^2 = v A(u)^2.  Read at u = x2, det G = 0
    and the region's x^2 <-> y^2 symmetry give y^2 = B/(A^2 + BC).
    """

    x2: float
    y2: float
    A: float
    B: float
    C: float
    p: float


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the numeric bound search."""

    best_probability: float
    best_matrix: LopCircuit
    residual: float
    restarts: int
    seed: int
    evaluations: int
    #: Largest probability seen at ANY evaluated point whose sign-shift
    #: residual and orthonormality defect were both at most
    #: FEASIBLE_RESIDUAL, not just at the final optimum.
    max_feasible_probability: float
    #: Largest KKT stationarity defect over the working endpoints; nan when
    #: no endpoint works.
    kkt_defect: float
    #: Ancilla modes not accepted, f = n - 1 - s.  The rank theorem (module
    #: docstring) expects no working gate at f = 0 and at most 1/4 otherwise,
    #: so a non-working f = 0 search agrees with it.
    free_modes: int

    @property
    def working(self) -> bool:
        """Whether the best circuit meets the sign shift by its entry rule.

        Its residual and entry-rule defects on the accepted modes 1..s,
        s = n - 1 - free_modes, are at most FEASIBLE_RESIDUAL (see _works).
        """
        accept = range(1, self.best_matrix.dim - self.free_modes)
        return _works(self.best_matrix.matrix, accept, self.residual)


def _works(u: np.ndarray, accept: Sequence[int], residual: float) -> bool:
    # m0 = m1 = -m2 within FEASIBLE_RESIDUAL, and by the entry rule too:
    # the zero-probability branch of gate._sign_shift_defects meets the
    # first with U00 free, a "gate" that never fires.
    defect = np.abs(_sign_shift_defects(u, accept)).max()
    return bool(residual <= FEASIBLE_RESIDUAL and defect <= FEASIBLE_RESIDUAL)


def _feasible(x2, y2):
    # The hyperbola and the two domain caps, elementwise over scalars or
    # arrays.  The caps are needed: beyond s = 1/k the hyperbola inequality
    # flips sign.
    cap = X2_MAX + _REGION_TOL
    return (x2 <= cap) & (y2 <= cap) & (x2 + y2 - _K * x2 * y2 <= cap)


def feasible(x2: float, y2: float) -> bool:
    """Whether (x^2, y^2) admits a unitary completion of the design entries.

    True iff s + t - k s t <= X2_MAX with s = x^2, t = y^2 both at most
    X2_MAX, where k = 4 - 2 sqrt(2); every inequality has slack _REGION_TOL.
    """
    if not all(isinstance(v, Real) and 0 <= v < math.inf for v in (x2, y2)):
        shown = ", ".join(str(v) if isinstance(v, Real) else repr(v) for v in (x2, y2))
        raise ValueError(
            f"squared couplings must be finite and non-negative, got {shown}"
        )
    return bool(_feasible(x2, y2))


def _curve_figures(s):
    # y2, A, B, C and p of BoundCurveSample at x^2 = s, a float or an array
    # already in [0, X2_MAX]; every boundary figure is written here once.
    b = X2_MAX - s
    y2 = b / (1 - _K * s)
    return y2, abs((1 - SQRT2) + s / SQRT2), b, 1 + s / 2, s * y2 / 2


def _clamp(x2: float) -> float:
    # x^2 held to [0, X2_MAX], once it lies within _REGION_TOL of it.
    if not (isinstance(x2, Real) and -_REGION_TOL <= x2 <= X2_MAX + _REGION_TOL):
        shown = x2 if isinstance(x2, Real) else repr(x2)  # "1" is not the number 1
        raise ValueError(f"x2 must lie in [0, {X2_MAX}], got {shown}")
    return float(min(max(x2, 0.0), X2_MAX))


def boundary_y2(x2: float) -> float:
    """Largest feasible y^2 at x^2 = s: the hyperbola (X2_MAX - s)/(1 - k s)."""
    return _curve_figures(_clamp(x2))[0]


def probability_on_boundary(x2: float) -> float:
    """Success probability along the boundary curve, s y^2(s) / 2 at s = x^2.

    Like boundary_y2 it reads x^2 clamped to [0, X2_MAX], so within the
    domain slack p is 0 beyond either end of the curve, never negative.
    """
    return _curve_figures(_clamp(x2))[-1]


def maximize_boundary(
    tol: float, lo: float = 0.0, hi: float = X2_MAX
) -> tuple[float, float]:
    """Argmax x^2 and maximum of the boundary probability on [lo, hi].

    On the boundary 1/4 - p = (sqrt(2) s - 1)^2 / (4 (1 - k s)) with s = x^2,
    and p rises up to s = 1/sqrt(2) and falls after it, so the maximum is
    1/sqrt(2) clipped to the interval.  It is exact: ``tol`` is only
    validated, by the rule of the CLI's --tol (finite and positive).
    """
    _tolerance(tol)
    real = isinstance(lo, Real) and isinstance(hi, Real)
    if not (real and 0 <= lo < hi <= X2_MAX + _REGION_TOL):
        raise ValueError(f"interval must satisfy 0 <= lo < hi <= {X2_MAX}")
    x_star = float(min(max(1 / SQRT2, lo), hi))
    return x_star, probability_on_boundary(x_star)


def _grid_size(grid_n) -> int:
    grid_n = _count(grid_n, "grid sizes", 2)
    if grid_n > GRID_CAP:
        raise CapacityError(f"grid size {grid_n} exceeds the cap of {GRID_CAP}")
    return grid_n


def _curve_grid(grid_n: int) -> tuple[np.ndarray, ...]:
    # The x2, y2, A, B, C and p columns of scan_curve.
    x2 = np.linspace(0.0, X2_MAX, _grid_size(grid_n))
    return (x2, *_curve_figures(x2))


def scan_curve(grid_n: int) -> list[BoundCurveSample]:
    """Boundary-curve samples at grid_n evenly spaced x^2 values in [0, X2_MAX].

    Each field is the figure boundary_y2 and probability_on_boundary give at
    its x^2, bit for bit: one function writes the figures for both the
    scalar calls and these columns.
    """
    return list(map(BoundCurveSample, *(col.tolist() for col in _curve_grid(grid_n))))


def _region_grid(grid_n: int) -> tuple[np.ndarray, ...]:
    # The x2, y2, feasible and p columns of sample_region as flat arrays.
    axis = np.linspace(0.0, X2_MAX, _grid_size(grid_n))
    x2, y2 = np.meshgrid(axis, axis, indexing="ij")
    columns = (x2, y2, _feasible(x2, y2), x2 * y2 / 2)
    return tuple(col.ravel() for col in columns)


def sample_region(grid_n: int) -> list[tuple[float, float, bool, float]]:
    """(x^2, y^2, feasible, p) over a grid_n x grid_n grid of the domain.

    Rows are ordered by ascending x^2 then ascending y^2; p is the would-be
    success probability x^2 * y^2 / 2 whether or not the point is feasible.
    """
    return list(zip(*(col.tolist() for col in _region_grid(grid_n))))


def _pair(x: np.ndarray, n: int) -> np.ndarray:
    # The n x 2 pair [a b] of the 4n search reals: z = x[:2n] + i x[2n:]
    # packs z = (a, b).
    z = x[: 2 * n] + 1j * x[2 * n :]
    return z.reshape(2, n).T


def _real(packed: np.ndarray) -> np.ndarray:
    # Gradients over the search reals from packed gradients G = 2 dg/d(conj z)
    # over z = (a, b), one per row: (Re G, Im G).
    return np.concatenate((packed.real, packed.imag), axis=-1)


def _objective_gradient(pair: np.ndarray, accept: Sequence[int]) -> np.ndarray:
    # The objective -sum_j |b_j|^2 over the accepted rows has packed
    # gradient -2 b_j there.
    packed = np.zeros_like(pair)
    packed[accept, 1] = -2 * pair[accept, 1]
    return _real(packed.T.ravel())


def _search_constraints(pair: np.ndarray, accept: Sequence[int]) -> np.ndarray:
    # Equalities of the search: |a|^2 - 1, |b|^2 - 1, Re and Im <a, b>, then
    # the real and imaginary parts of the sign-shift entry defects for input
    # mode 1 and the accepted rows.
    a, b = pair.T
    inner = np.vdot(a, b)
    defects = _sign_shift_defects(pair, accept)
    return np.concatenate(
        (
            [np.vdot(a, a).real - 1, np.vdot(b, b).real - 1, inner.real, inner.imag],
            defects.real,
            defects.imag,
        )
    )


def _constraint_jacobian(pair: np.ndarray, accept: Sequence[int]) -> np.ndarray:
    # Packed gradients of the rows of _search_constraints.  A defect h with
    # complex derivative D has packed gradient conj(D) for Re h and
    # i conj(D) for Im h.
    a, b = pair.T
    zero = np.zeros_like(a)
    orthonormality = np.array(
        [[2 * a, zero], [zero, 2 * b], [b, a], [-1j * b, 1j * a]]
    ).reshape(4, -1)
    dbar = _sign_shift_jacobian(pair, accept).conj()
    return _real(np.concatenate((orthonormality, dbar, 1j * dbar)))


def _kkt_defect(pair: np.ndarray, accept: Sequence[int]) -> float:
    # First-order stationarity ||grad f - J^T lambda|| with the multipliers
    # lambda fitted by least squares.
    grad = _objective_gradient(pair, accept)
    jac_t = _constraint_jacobian(pair, accept).T
    multipliers = np.linalg.lstsq(jac_t, grad, rcond=None)[0]
    return float(np.linalg.norm(grad - jac_t @ multipliers))


def numeric_search(
    total_modes: int,
    rank_s: int,
    restarts: int,
    seed: int,
) -> OptimizationResult:
    """Constrained search for the best sign-shift success probability.

    The success probability and the sign-shift conditions read only the
    first two columns a, b of the mode unitary, so the search runs over
    those (4n reals) and maximizes the post-selected probability
    sum_{j=1..s} |b_j|^2 by SLSQP (Kraft, DFVLR-FB 88-28, 1988), subject to
    orthonormality of the pair and the sign-shift entry equalities.  Every
    function is a polynomial of degree at most 2, and SLSQP gets its exact
    gradient and constraint Jacobian.  One fixed deterministic start plus
    ``restarts`` random starts, each seeded independently from the master
    seed so the outcome does not depend on evaluation order, and each drawn
    only when its turn comes, so no start is held before it runs.

    Each endpoint's pair goes through fock._polar_completion: its polar
    factor, the orthonormal pair nearest it (Löwdin), is scored, as the
    first two columns of the unitary that completes it.
    The reported endpoint is, among the working ones whose probability lies
    within _TIE_TOL of the best, the one with the smallest residual, and
    its figures are recomputed from Fock amplitudes.
    At every working endpoint the first-order KKT condition
    grad f = J^T lambda is checked, and the largest defect is reported as
    ``kkt_defect``.  This is a falsification oracle for the 0.25 bound, not
    an optimality prover.
    """
    n = _count(total_modes, "mode counts", 3)
    rank_s = _count(rank_s, "ranks", 1, n - 1)
    restarts = _count(restarts, "restart counts")
    seed = _count(seed, "seeds")
    if n > SEARCH_MODE_CAP:
        raise CapacityError(f"{n} modes exceed the search cap of {SEARCH_MODE_CAP}")
    # Imported here: keeps scipy's 0.6 s import off every path that does not search.
    from scipy.optimize import minimize

    accept = range(1, rank_s + 1)
    tracker = {"max_feasible": 0.0, "evals": 0}

    def figures(pair: np.ndarray) -> tuple[float, float]:
        prob, residual = _gate_figures(pair, accept)
        tracker["evals"] += 1
        if (
            residual <= FEASIBLE_RESIDUAL
            and _isometry_defect(pair) <= FEASIBLE_RESIDUAL
        ):
            tracker["max_feasible"] = max(tracker["max_feasible"], prob)
        return prob, residual

    def on_reals(helper):
        # SLSQP calls back with the 4n reals; the helpers read the pair.
        return lambda x: helper(_pair(x, n), accept)

    objective = on_reals(lambda pair, _: -figures(pair)[0])
    constraint = {
        "type": "eq",
        "fun": on_reals(_search_constraints),
        "jac": on_reals(_constraint_jacobian),
    }

    def draw(i: int) -> np.ndarray:
        # Start i + 1, drawn when its turn comes: the seed's child i, equal
        # to SeedSequence(seed).spawn(restarts)[i] with no list of children.
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        return np.random.default_rng(child).standard_normal(4 * n)

    fixed = 0.4 + 0.03 * np.arange(4 * n)
    starts = itertools.chain([fixed], map(draw, range(restarts)))

    # (p, residual, unitary) of each endpoint, in start order.
    working, failing, kkt_defects = [], [], []
    for x0 in starts:
        x = minimize(
            objective,
            x0,
            jac=on_reals(_objective_gradient),
            method="SLSQP",
            constraints=constraint,
            options={"maxiter": 200, "ftol": 1e-12},
        ).x
        u = _polar_completion(_pair(x, n))
        pair = u[:, :2]
        prob, residual = figures(pair)
        if _works(pair, accept, residual):
            kkt_defects.append(_kkt_defect(pair, accept))
            working.append((prob, residual, u))
        else:
            failing.append((prob, residual, u))

    # The smallest residual among the working endpoints whose p is within
    # _TIE_TOL of the best, else among all: the report does not hang on
    # rounding of p.  min keeps the earlier start on a tie.
    pool = failing
    if working:
        top = max(prob for prob, _, _ in working)
        pool = [end for end in working if end[0] >= top - _TIE_TOL]
    best_u = min(pool, key=lambda end: end[1])[2]
    circuit = LopCircuit(best_u)
    report = verify_ns(circuit, ConditionalScheme.one_photon(n - 1, 0, range(rank_s)))
    return OptimizationResult(
        best_probability=report.success_probability,
        best_matrix=circuit,
        residual=report.condition_residual,
        restarts=restarts,
        seed=seed,
        evaluations=int(tracker["evals"]),
        max_feasible_probability=float(tracker["max_feasible"]),
        kkt_defect=max(kkt_defects, default=math.nan),
        free_modes=n - 1 - rank_s,
    )
