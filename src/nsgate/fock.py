"""Fock-space core for passive linear-optical circuits.

A passive linear-optical (LOP) circuit on N modes is an N x N unitary acting
on the mode operators.  Because it conserves total photon number, its action
on Fock space splits into finite blocks, one per photon-number sector.  This
module enumerates those sectors, evaluates single transition amplitudes
through matrix permanents (one Ryser sum), and lifts a mode unitary to every
sector up to a given photon number by the creation-operator recursion behind
SLOS (Heurtel et al., arXiv:2206.10549), each sector built from the one below.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

#: Max-norm tolerance on U†U - I for a valid mode unitary.
UNITARITY_TOL = 1e-10

#: Max-norm unitarity tolerance for lifted sector matrices.
LIFT_TOL = 1e-9

#: Largest total photon number (and permanent size) accepted by amplitude
#: computations and sector lifts.  Both grow steeply with the photon number,
#: so desk-scale work stays below this cap.
PHOTON_CAP = 8

#: Largest dimension of one sector of a SystemBasis or of a sector lift: the
#: 7-mode, 7-photon sector.  One lifted level is a dense dim x dim complex
#: matrix, and the 8-mode, 8-photon sector (6435 states) takes about a minute.
SECTOR_CAP = math.comb(13, 7)

#: Largest term count (modes x rows below x kept columns) of a lift level
#: built by one flat scatter-add of its cached term program; a larger level
#: keeps no program and scatters mode by mode.  Read when a lift plan is
#: built, not per call.  A program is five 8-byte arrays, 40 B a term, so at
#: most 40 x _FLAT_TERMS bytes (164 KB).  Full plans are cached per (modes,
#: photons), each with programs for all of its levels: one plan holds at
#: most 257 KB of them, and the full plans of all 125 shapes of at most 21
#: modes and 8 photons within SECTOR_CAP hold 3.9 MB (0.87 MB of distinct
#: levels).  A read plan's programs are at most its full plan's.
#: Measured one level at a time on a 2-vCPU VM, the program took 0.2-0.6x
#: the loop's time up to 3584 terms, 0.8x at 7840 and 2.6-3.4x at 24 500 and
#: 44 100.  Inside the lift workload the one benchmark level between 4096
#: and 8192 terms, the 7840-term top of the 4-mode, 5-photon lift, made
#: that lift slower flat than looped (best of 15 s, 0.246 against 0.211 ms).
_FLAT_TERMS = 4096

Occupation = tuple[int, ...]


class CapacityError(ValueError):
    """Raised when a computation would exceed the photon or sector budget."""


def _count(value, what: str = "photon numbers", low=0, high=math.inf) -> int:
    # The one rule for integer arguments: a Python or numpy integer (a float
    # such as 1.5, or even 2.0, is refused, not truncated) in low..high, with
    # floor 0 unless given, as each is a count, an index or a seed.  A cap is
    # a budget, not a range: it raises CapacityError where work is sized.
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be integers, got {value!r}") from None
    if low <= n <= high:
        return n
    if high < math.inf:
        span = f"in {low}..{high}"
    else:
        span = "non-negative" if low == 0 else f"at least {low}"
    raise ValueError(f"{what} must be {span}, got {n}")


def _sequence(value, what: str, of: str) -> tuple:
    # A sequence argument as a tuple, else one ValueError naming it.
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{what} must be sequences of {of}, got {value!r}") from None


def _counts(value, what, of="photon numbers", low=0, high=math.inf, length=None):
    # The one rule for sequences of counts: a tuple of ints, each in low..high
    # by _count's rule and words, of the given length where one is known.
    counts = tuple([_count(v, of, low, high) for v in _sequence(value, what, of)])
    if length is not None and len(counts) != length:
        raise ValueError(f"{what} must have length {length}, got {counts}")
    return counts


def _tolerance(value) -> float:
    # The one rule for tolerances: a real number, finite and positive.
    if isinstance(value, numbers.Real) and 0 < value < math.inf:
        return float(value)
    raise ValueError(f"tolerance must be finite and positive, got {value!r}")


def _typed(value, cls: type, what: str):
    # The one rule for record arguments: value itself if it is a cls.  Pure
    # reads (lift, amplitude, Kraus) test isinstance inline, calling it to raise.
    if isinstance(value, cls):
        return value
    raise ValueError(f"{what} must be {cls.__name__}, got {type(value).__name__}")


def _entries(value, what: str, shape: tuple) -> np.ndarray:
    # The one rule for array arguments: a frozen complex copy of value, finite
    # numbers of the given shape, where a None is a free length of at least 1,
    # the same for every None.  Each fault has one wording: not numeric,
    # another shape (read before any entry), or non-finite entries.
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting, which has no shape
        a = None
    if a is None or a.dtype.kind not in "iufc":
        raise ValueError(f"{what} must be numeric, got {reprlib.repr(value)}")
    free = a.shape[shape.index(None)] if None in shape and a.ndim == len(shape) else 1
    want = tuple(free if w is None else w for w in shape) if None in shape else shape
    if a.shape != want or free < 1:
        spec = str(shape).replace("None", "n") + " with n >= 1" * (None in shape)
        raise ValueError(f"{what} must have shape {spec}, got shape {a.shape}")
    a = np.array(a, dtype=complex)
    if np.count_nonzero(np.isfinite(a)) < a.size:  # cheaper than .all() here
        raise ValueError(f"{what} must be finite, got non-finite entries")
    a.setflags(write=False)
    return a


def as_occupation(counts: Iterable[int]) -> Occupation:
    """Normalize a sequence of photon counts to a validated tuple."""
    return _counts(counts, "occupations")


def _rank(occ: np.ndarray) -> np.ndarray:
    # Position of each occupation (last axis) in its sector's canonical order,
    # by the combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): for each
    # mode k, C(t + j - 1, j) states precede it that agree up to k and hold
    # more photons at k, for its t photons in the j modes after k.  The table
    # is built in exact integers by cumulative sums up to the photons present.
    tails = occ[..., :0:-1].cumsum(axis=-1)  # column j - 1: the last j modes
    table = np.zeros((tails.max(initial=0) + 1, occ.shape[-1] - 1), dtype=int)
    for t in range(1, len(table)):
        table[t] = 1 + table[t - 1].cumsum()
    return table[tails, np.arange(occ.shape[-1] - 1)].sum(axis=-1)


@lru_cache(maxsize=None)
def _basis_table(
    modes: int, sectors: tuple[int, ...]
) -> tuple[tuple[Occupation, ...], dict[int, int], np.ndarray]:
    # States of the listed sectors in order, each sector's offset and the
    # states as one read-only (dim, modes) int array.  Each sector's size is
    # checked before any state is enumerated.
    for n in sectors:
        dim = math.comb(n + modes - 1, n)
        if dim > SECTOR_CAP:
            raise CapacityError(
                f"sector of {n} photons in {modes} modes has {dim} states, "
                f"above the cap of {SECTOR_CAP}"
            )
    # Stars and bars: itertools.combinations' bar positions (ends -1, slots),
    # reversed into canonical, lexicographically decreasing order, differenced.
    # One mode has no bars, and combinations would copy its pool of n slots.
    states, offsets, tables = [], {}, [np.zeros((0, modes), dtype=np.int64)]
    for n in sectors:
        offsets[n], slots = len(states), n + modes - 1
        bars = itertools.combinations(range(slots), modes - 1) if modes > 1 else [()]
        edges = np.array([(-1, *b, slots) for b in bars], dtype=np.int64)[::-1]
        tables.append(edges[:, 1:] - edges[:, :-1] - 1)
        states += map(tuple, tables[-1].tolist())
    return tuple(states), offsets, _frozen(np.concatenate(tables))[0]


class SystemBasis:
    """Direct sum of photon-number sectors on a set of modes.

    States are ordered by ascending photon number, each sector internally
    lexicographically decreasing, and indexed by a single flat position.
    Every sector holds at most SECTOR_CAP states.
    """

    def __init__(self, modes: int, photon_sectors: Iterable[int]):
        self.modes = modes = _count(modes, "mode counts", 1)
        sectors = _counts(photon_sectors, "photon sectors")
        self.sectors = sectors = tuple(sorted(set(sectors)))
        self.states, self._offsets, self._occupations = _basis_table(modes, sectors)

    @property
    def dim(self) -> int:
        return len(self.states)

    def index(self, occ: Iterable[int]) -> int:
        occ = as_occupation(occ)
        if len(occ) != self.modes or sum(occ) not in self._offsets:
            raise ValueError(f"occupation {occ} is not a state of {self!r}")
        return self._offsets[sum(occ)] + int(_rank(np.array(occ)))

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SystemBasis)
            and self.modes == other.modes
            and self.sectors == other.sectors
        )

    def __hash__(self) -> int:
        return hash((self.modes, self.sectors))

    def __repr__(self) -> str:
        return f"SystemBasis(modes={self.modes}, sectors={self.sectors})"


class FockSector(SystemBasis):
    """Basis of all occupation vectors of a fixed total photon number.

    The one-sector SystemBasis: its length is C(photons + modes - 1,
    modes - 1), at most SECTOR_CAP, and it equals SystemBasis(modes,
    (photons,)).
    """

    def __init__(self, modes: int, photons: int):
        super().__init__(modes, (photons,))
        self.photons = self.sectors[0]
        self.basis = self.states


def _isometry_residual(x: np.ndarray) -> np.ndarray:
    """x†x - I for an n x k matrix x, the identity subtracted in place.

    Every unitarity, completeness and orthonormality check reads this one
    residual.  It casts nothing, so it also runs on object arrays of sympy
    expressions.  Matmul's fresh result is C-contiguous, so ravel views it.
    """
    gram = x.conj().T @ x
    gram.ravel()[:: gram.shape[0] + 1] -= 1
    return gram


def _isometry_defect(x: np.ndarray) -> float:
    """Max-abs entry of x†x - I; 0 for a matrix with no columns."""
    return np.abs(_isometry_residual(x)).max(initial=0.0)


def _unitary(m: np.ndarray) -> np.ndarray:
    """m itself, once max|U†U - I| and max|UU† - I| are within UNITARITY_TOL.

    The one unitarity check of a mode matrix: LopCircuit runs it after
    _entries, and gate._complete_columns on the array it built.
    """
    # U†U - I and, with x = U†, UU† - I.
    defect = max(_isometry_defect(m), _isometry_defect(m.conj().T))
    if not defect <= UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return m


def _adopt(cls, **fields):
    """Instance of the frozen dataclass cls from fields its builder proved valid.

    Runs no __post_init__, so it copies and checks nothing; every ndarray
    field is frozen in place, and all fields are written in one __dict__
    update (setattr still raises).  Only for values whose validity follows
    exactly from an earlier check, which the caller names.
    """
    adopted = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    adopted.__dict__.update(fields)
    return adopted


@dataclass(frozen=True)
class LopCircuit:
    """An N x N unitary on optical mode operators."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _unitary(_entries(self.matrix, "mode matrices", (None, None)))
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SectorMatrix:
    """A mode unitary lifted to one photon-number sector, unitary to LIFT_TOL."""

    sector: SystemBasis
    entries: np.ndarray

    def __post_init__(self):
        d = _typed(self.sector, SystemBasis, "sector").dim
        e = _entries(self.entries, "sector matrices", (d, d))
        defect = _isometry_defect(e)
        if not defect <= LIFT_TOL:
            raise ValueError(f"sector matrix is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "entries", e)


@lru_cache(maxsize=None)
def _ryser_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Row k is the indicator of column subset k; its sign is (-1)^(n - |S|).
    subsets = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    signs = 1.0 - 2.0 * ((n - subsets.sum(axis=1)) & 1)
    return _frozen(subsets.astype(float), signs)


def permanent(m) -> complex:
    """Permanent of a square complex matrix.

    The empty 0 x 0 matrix has permanent 1.  Every other size is one Ryser
    inclusion-exclusion sum (Ryser 1963), sum over column subsets S of
    (-1)^(n - |S|) prod_i sum_{j in S} m_ij, evaluated for all 2^n subsets at
    once; sizes above PHOTON_CAP raise CapacityError.
    """
    if getattr(m, "shape", None) == (0, 0):  # no nesting of lists is 0 x 0
        return 1 + 0j
    a = _entries(m, "permanent matrices", (None, None))
    n = len(a)
    if n > PHOTON_CAP:
        raise CapacityError(f"permanent of size {n} exceeds the cap of {PHOTON_CAP}")
    subsets, signs = _ryser_table(n)
    return complex(signs @ np.prod(subsets @ a.T, axis=1))


def fock_amplitude(lop: LopCircuit, in_occ, out_occ) -> complex:
    """Transition amplitude <out|U|in> between Fock states.

    Equals the permanent of the submatrix of the mode unitary with column j
    repeated in_occ[j] times and row i repeated out_occ[i] times, divided by
    sqrt of the product of factorials of all occupations.  Exactly 0 when the
    photon totals differ; CapacityError above PHOTON_CAP photons, before any work.
    """
    isinstance(lop, LopCircuit) or _typed(lop, LopCircuit, "lop")
    in_occ = _counts(in_occ, "occupations", length=lop.dim)
    out_occ = _counts(out_occ, "occupations", length=lop.dim)
    photons = sum(in_occ)
    if photons != sum(out_occ):
        return 0j
    if photons > PHOTON_CAP:
        raise CapacityError(f"{photons} photons exceed the cap of {PHOTON_CAP}")
    cols = np.repeat(np.arange(lop.dim), in_occ)
    rows = np.repeat(np.arange(lop.dim), out_occ)
    norm = math.prod(math.factorial(c) for c in in_occ + out_occ)
    return permanent(lop.matrix[np.ix_(rows, cols)]) / math.sqrt(norm)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # Cached index tables are shared by every later call: none may be edited.
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _ladder(modes: int, photons: int):
    # Tables that build sector n = photons from sector n - 1 (see _lift_levels):
    # state b is a_j^dagger |occ_b - e_j> / sqrt(occ_b[j]) with j = first[b],
    # and a_i^dagger sends state p of sector n - 1 to up[i, p] times sqrt(p_i + 1).
    basis = FockSector(modes, photons)._occupations
    below = FockSector(modes, photons - 1)._occupations
    eye = np.eye(modes, dtype=int)
    first = (basis > 0).argmax(axis=1)
    prev = _rank(basis - eye[first])
    scale = 1.0 / np.sqrt(basis[np.arange(len(basis)), first])
    up = _rank(below + eye[:, None])
    root = np.sqrt(below.T + 1.0)[:, :, None]
    return _frozen(first, prev, scale, up, root)


def _term_program(up, root, first, prev, scale, below_at, at):
    """Flat step of one lift level on the columns (first, prev, scale) keep.

    Five read-only 1-D arrays over the level's terms in mode-major (i, p, c)
    order, for the level below raveled in the buffer from below_at to at,
    where the level starts, so prev indexes its bc = (at - below_at) / rows
    columns: src = below_at + p * bc + prev[c], scale[c], root[i, p],
    ci = i * modes + first[c] and dst = at + up[i, p] * k + c for k columns.
    None above _FLAT_TERMS terms, where the level loops over the modes.
    """
    modes, rows = up.shape
    k = len(first)
    if modes * rows * k > _FLAT_TERMS:
        return None
    i, p = np.arange(modes)[:, None, None], np.arange(rows)[:, None]
    program = np.broadcast_arrays(
        below_at + p * ((at - below_at) // rows) + prev,
        scale,
        root,
        i * modes + first,
        at + up[:, :, None] * k + np.arange(k),
    )
    return _frozen(*(np.ravel(a) for a in program))


def _lift_plan(modes: int, kept):
    """Layout and level tables of a lift that keeps columns kept[n] of level n.

    kept, an iterable from level 0 up, holds every column of levels 0 and 1;
    each later kept[n] is ascending and holds the prev of every column kept
    one level up, since column b of level n reads column prev[b] of level
    n - 1 alone (see _lift_levels).  Returns (start, ladders): level n, its
    sector's states by its kept columns, ravels in the lift's buffer from
    start[n], and start[-1] is the place of the trailing zero; ladders[n - 2]
    is level n's (first, prev, scale, up, root, program), _ladder's tables
    on kept[n] with prev as positions in kept[n - 1], and program its term
    program or None.  The photon and sector caps are checked before anything
    of the plan's size is built, and at most one level past the photon cap
    is read.
    """
    kept = tuple(itertools.islice(kept, PHOTON_CAP + 2))
    top = len(kept) - 1
    if top > PHOTON_CAP:
        raise CapacityError(f"{top} or more photons exceed the cap of {PHOTON_CAP}")
    _basis_table(modes, (top,))  # refuses a top sector above SECTOR_CAP
    sizes = (math.comb(n + modes - 1, n) * len(kept[n]) for n in range(top + 1))
    start = tuple(itertools.accumulate(sizes, initial=0))
    ladders = []
    for n in range(2, top + 1):
        first, prev, scale, up, root = _ladder(modes, n)
        first, scale = first[kept[n]], scale[kept[n]]
        prev = np.searchsorted(kept[n - 1], prev[kept[n]])
        program = _term_program(up, root, first, prev, scale, *start[n - 1 : n + 1])
        ladders.append((*_frozen(first, prev, scale), up, root, program))
    return start, tuple(ladders)


@lru_cache(maxsize=None)
def _full_plan(modes: int, photons: int):
    """_lift_plan keeping every column of levels 0..photons.

    Each level's columns are a range, listed lazily, so neither an index
    array nor a level past the photon cap is built before the cap checks.
    """
    dims = (math.comb(n + modes - 1, n) for n in range(photons + 1))
    return _lift_plan(modes, map(range, dims))


def _lift_levels(lop: LopCircuit, plan) -> np.ndarray:
    """Levels 0..top of a lift plan, in order, in one buffer ending in a zero.

    Column b of level n is sum_i U[i, j] a_i^dagger applied to column prev[b]
    of level n - 1, over sqrt(occ_b[j]), with j the first occupied mode of
    basis state b (see _ladder).  Each level is one scatter-add of every
    mode's terms, each entry summed in mode order from zero; level 0 is the
    1 x 1 identity and level 1 the mode matrix itself.  A level with a term
    program (at most _FLAT_TERMS terms, see _term_program) gathers its terms
    from the buffer, multiplies them in place by scale, root and the
    mode-matrix coefficient, and adds them with one flat np.add.at; a larger
    level loops over the modes on matrix views of it and the level below, with
    the same products in the same order, so either step gives the same bits.

    ``plan`` is a _lift_plan's (start, ladders): level n holds the columns
    its ladder keeps and starts at start[n].  A kept column is computed
    exactly as in the full lift, since column b reads only column prev[b]
    below.  Levels take u's dtype, so they also run on sympy symbols.
    """
    start, ladders = plan
    u = lop.matrix
    flat = np.zeros(start[-1] + 1, dtype=u.dtype)
    flat[0] = 1
    if len(start) > 2:
        flat[1 : start[2]] = u.ravel()
    for n, (first, prev, scale, up, root, program) in enumerate(ladders, start=2):
        if program is not None:
            src, scale_t, root_t, ci, dst = program
            terms = flat.take(src)
            terms *= scale_t
            terms *= root_t
            terms *= u.take(ci)
            np.add.at(flat, dst, terms)
        else:
            below = flat[start[n - 1] : start[n]].reshape(len(up[0]), -1)[:, prev]
            below *= scale
            level = flat[start[n] : start[n + 1]].reshape(-1, len(first))
            coeff = u[:, first]
            for i in range(lop.dim):
                level[up[i]] += root[i] * below * coeff[i]
    return flat


def lift_to_sector(lop: LopCircuit, photons: int) -> SectorMatrix:
    """Unitary induced by a mode unitary on the n-photon sector.

    Entry (out, in) is the amplitude <out|U|in> in the sector's canonical
    basis order, built from the sectors below by the creation-operator
    recursion of _lift_levels.  The entries are a read-only view of the top
    level in that lift's one buffer, so they keep the lower levels alive
    too: 356 KB against the top level's 254 KB at 5 modes and 5 photons.
    Raises CapacityError above PHOTON_CAP photons or SECTOR_CAP states.
    """
    isinstance(lop, LopCircuit) or _typed(lop, LopCircuit, "lop")
    # Counted first, as the plan cache would take 2.0 as the key 2, and the
    # plan's cap checks come before any state of the sector is enumerated.
    photons = _count(photons)
    start, _ = plan = _full_plan(lop.dim, photons)
    sector = FockSector(lop.dim, photons)
    top = _lift_levels(lop, plan)[start[-2] : start[-1]]
    entries = top.reshape(sector.dim, sector.dim)
    defect = _isometry_defect(entries)
    if not defect <= LIFT_TOL:
        raise ArithmeticError(
            f"lifted sector matrix failed unitarity (defect {defect:.3e})"
        )
    # A fresh complex (dim, dim) view, unitary by the check just made.
    return _adopt(SectorMatrix, sector=sector, entries=entries)


def _polar_completion(z: np.ndarray) -> np.ndarray:
    """Unitary whose leading k columns are the polar factor of the n x k z.

    One SVD z = P S Q†: the leading columns are P[:, :k] Q†, the isometry
    nearest z (z itself, up to rounding, if its columns are orthonormal), the
    rest P's trailing columns.  It needs no phase convention: the polar factor
    of AZ is A times Z's, so a square complex Gaussian z gives a Haar draw.
    """
    p, _, qh = np.linalg.svd(z)
    p[:, : z.shape[1]] = p[:, : z.shape[1]] @ qh
    return p


def haar_unitary(dim: int, rng: np.random.Generator) -> LopCircuit:
    """Haar-distributed random mode unitary: the polar factor of a Gaussian."""
    dim = _count(dim, "dimensions", 1)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return LopCircuit(_polar_completion(z))
