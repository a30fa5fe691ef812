"""Fock-space core for passive linear-optical circuits.

A passive linear-optical (LOP) circuit on N modes is an N x N unitary acting
on the mode operators.  Because it conserves total photon number, its action
on Fock space splits into finite blocks, one per photon-number sector.  This
module enumerates those sectors, evaluates transition amplitudes through
matrix permanents, and lifts a mode unitary to the unitary it induces on any
fixed-photon-number sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

#: Max-norm tolerance on U†U - I for a valid mode unitary.
UNITARITY_TOL = 1e-10

#: Max-norm unitarity tolerance for lifted sector matrices.
LIFT_TOL = 1e-9

#: Largest total photon number accepted by amplitude computations.  Permanent
#: cost grows as 2^n, so desk-scale work stays below this cap.
PHOTON_CAP = 8

Occupation = tuple[int, ...]

_FACTORIALS = tuple(math.factorial(n) for n in range(PHOTON_CAP + 1))


class CapacityError(ValueError):
    """Raised when a computation would exceed the photon budget."""


def as_occupation(counts: Iterable[int]) -> Occupation:
    """Normalize a sequence of photon counts to a validated tuple."""
    occ = tuple(int(c) for c in counts)
    if any(c < 0 for c in occ):
        raise ValueError(f"occupation entries must be non-negative, got {occ}")
    return occ


@lru_cache(maxsize=None)
def _sector_basis(modes: int, photons: int) -> tuple[Occupation, ...]:
    # Canonical order: lexicographically decreasing, so (n, 0, ..., 0) is first.
    def gen(m: int, n: int):
        if m == 1:
            yield (n,)
            return
        for c in range(n, -1, -1):
            for rest in gen(m - 1, n - c):
                yield (c,) + rest

    return tuple(gen(modes, photons))


class FockSector:
    """Basis of all occupation vectors of a fixed total photon number.

    The basis is ordered lexicographically decreasing; its length is
    C(photons + modes - 1, modes - 1).
    """

    def __init__(self, modes: int, photons: int):
        if modes < 1:
            raise ValueError(f"mode count must be positive, got {modes}")
        if photons < 0:
            raise ValueError(f"photon number must be non-negative, got {photons}")
        self.modes = int(modes)
        self.photons = int(photons)
        self.basis = _sector_basis(self.modes, self.photons)
        self._index = {occ: i for i, occ in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, occ: Iterable[int]) -> int:
        occ = as_occupation(occ)
        if len(occ) != self.modes:
            raise ValueError(
                f"occupation has {len(occ)} modes, sector has {self.modes}"
            )
        if sum(occ) != self.photons:
            raise ValueError(
                f"occupation holds {sum(occ)} photons, sector holds {self.photons}"
            )
        return self._index[occ]

    def __len__(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FockSector)
            and self.modes == other.modes
            and self.photons == other.photons
        )

    def __hash__(self) -> int:
        return hash((self.modes, self.photons))

    def __repr__(self) -> str:
        return f"FockSector(modes={self.modes}, photons={self.photons})"


def enumerate_sector(modes: int, photons: int) -> FockSector:
    """Build the canonical photon-number sector for the given mode count."""
    return FockSector(modes, photons)


def sector_index(sector: FockSector, occ: Iterable[int]) -> int:
    """Position of an occupation vector in the sector's canonical order."""
    return sector.index(occ)


@dataclass(frozen=True)
class LopCircuit:
    """An N x N unitary on optical mode operators."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"mode matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("mode matrix has non-finite entries")
        eye = np.eye(m.shape[0])
        defect = max(
            np.abs(m.conj().T @ m - eye).max(initial=0.0),
            np.abs(m @ m.conj().T - eye).max(initial=0.0),
        )
        if not defect <= UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SectorMatrix:
    """A mode unitary lifted to one photon-number sector."""

    sector: FockSector
    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)
        d = self.sector.dim
        if e.shape != (d, d):
            raise ValueError(f"entries shape {e.shape} does not match sector dim {d}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def permanent(m) -> complex:
    """Permanent of a square complex matrix.

    The empty 0 x 0 matrix has permanent 1.  Sizes above 3 use a Gray-coded
    inclusion-exclusion sum, O(2^n * n), instead of the factorial expansion.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 1 + 0j
    if n == 1:
        return complex(a[0, 0])
    if n == 2:
        return complex(a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0])
    if n == 3:
        return complex(
            a[0, 0] * (a[1, 1] * a[2, 2] + a[1, 2] * a[2, 1])
            + a[0, 1] * (a[1, 0] * a[2, 2] + a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] + a[1, 1] * a[2, 0])
        )
    return _permanent_ryser(a)


def _permanent_ryser(a: np.ndarray) -> complex:
    # Inclusion-exclusion over column subsets; the Gray code flips one column
    # per step so each row-sum update costs O(n).
    n = a.shape[0]
    rowsums = np.zeros(n, dtype=complex)
    total = 0j
    gray = 0
    size = 0
    for k in range(1, 1 << n):
        bit = k & -k
        j = bit.bit_length() - 1
        if gray & bit:
            rowsums -= a[:, j]
            size -= 1
        else:
            rowsums += a[:, j]
            size += 1
        gray ^= bit
        term = np.prod(rowsums)
        if (n - size) & 1:
            total -= term
        else:
            total += term
    return complex(total)


def fock_amplitude(lop: LopCircuit, in_occ, out_occ) -> complex:
    """Transition amplitude <out|U|in> between Fock states.

    Equals the permanent of the submatrix of the mode unitary with column j
    repeated in_occ[j] times and row i repeated out_occ[i] times, divided by
    sqrt of the product of factorials of all occupations.  Exactly 0 when the
    photon totals differ.
    """
    in_occ = as_occupation(in_occ)
    out_occ = as_occupation(out_occ)
    if len(in_occ) != lop.dim or len(out_occ) != lop.dim:
        raise ValueError(
            f"occupations must have {lop.dim} modes, "
            f"got {len(in_occ)} and {len(out_occ)}"
        )
    total = sum(in_occ)
    if total != sum(out_occ):
        return 0j
    if total > PHOTON_CAP:
        raise CapacityError(
            f"total of {total} photons exceeds the cap of {PHOTON_CAP}"
        )
    if total == 0:
        return 1 + 0j
    cols = np.repeat(np.arange(lop.dim), in_occ)
    rows = np.repeat(np.arange(lop.dim), out_occ)
    sub = lop.matrix[np.ix_(rows, cols)]
    norm = 1.0
    for c in in_occ:
        norm *= _FACTORIALS[c]
    for c in out_occ:
        norm *= _FACTORIALS[c]
    return permanent(sub) / math.sqrt(norm)


def lift_to_sector(lop: LopCircuit, photons: int) -> SectorMatrix:
    """Unitary induced by a mode unitary on the n-photon sector.

    Entry (out, in) is fock_amplitude(lop, in, out) in the sector's canonical
    basis order; the zero-photon sector lifts to the 1 x 1 identity and the
    one-photon sector reproduces the mode matrix itself.
    """
    if photons < 0:
        raise ValueError(f"photon number must be non-negative, got {photons}")
    sector = enumerate_sector(lop.dim, photons)
    d = sector.dim
    entries = np.empty((d, d), dtype=complex)
    for b, in_occ in enumerate(sector.basis):
        for a, out_occ in enumerate(sector.basis):
            entries[a, b] = fock_amplitude(lop, in_occ, out_occ)
    defect = np.abs(entries.conj().T @ entries - np.eye(d)).max(initial=0.0)
    if defect > LIFT_TOL:
        raise ArithmeticError(
            f"lifted sector matrix failed unitarity (defect {defect:.3e})"
        )
    return SectorMatrix(sector, entries)


def haar_unitary(dim: int, rng: np.random.Generator) -> LopCircuit:
    """Haar-distributed random mode unitary via QR with a phase-fixed diagonal."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return LopCircuit(q)
