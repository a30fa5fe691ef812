"""One table of every public argument, each held by its rule.

A row names an argument as owner.param, a call taking its value, a value
the whole call accepts and the rule that holds it, with the rule's own
arguments:

- Count, fock._count: a Python or numpy integer in low..high;
- Counts, fock._counts: a sequence of such integers, of a fixed length
  where one is known;
- Entries, fock._entries: an array of finite numbers of one shape, where
  n is a free length of at least 1;
- Typed, fock._typed: an instance of the record class the code reads;
- Tolerance, fock._tolerance: a real number, finite and positive;
- Mask: the boolean array of PartialMatrix's fixed entries;
- Number: a real or complex number, refused in its function's own words.

The rule gives every value it must refuse and the exact ValueError message
for each, so a row writes messages only for its own checks: a number's
range, or a record's property.  typing.get_type_hints of the public API
maps every annotated parameter and checked field to its rule, and that
map must equal the table's.

The first four rules run their rows from a file of their own, one rule a
file: test_counts.py (integers, a sequence's entries too), test_sequences.py,
test_arrays.py and test_records.py.  This file runs the rest.
"""

import dataclasses
import math
import types
from dataclasses import dataclass
from typing import Iterable, Sequence, get_type_hints

import numpy as np
import numpy.typing as npt
import pytest

import nsgate
from nsgate import (
    X2_MAX,
    ConditionalScheme,
    DensityMatrix,
    FockSector,
    GeneralizedDesign,
    LopCircuit,
    MeasurementOperator,
    NsDesign,
    PartialMatrix,
    SectorMatrix,
    SystemBasis,
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
    klm_design,
    kraus_operator,
    lift_to_sector,
    maximize_boundary,
    numeric_search,
    permanent,
    probability_on_boundary,
    reduce_general_ancilla,
    sample_region,
    scan_curve,
    verify_ns,
)

_SCHEME = ConditionalScheme.one_photon(2, 0, (0,))
_LOP = haar_unitary(3, np.random.default_rng(0))
_LOP2 = haar_unitary(2, np.random.default_rng(0))
_KRAUS = kraus_operator(_SCHEME, _LOP, (1, 0))
_OUT = _KRAUS.out_basis  # SystemBasis(1, (0, 1, 2)), the scheme's system basis
_RHO = DensityMatrix.pure(_OUT, [1, 0, 0])
_KLM = klm_design(2**-0.25, 2**-0.25).matrix
_PARTIAL = generalized_design(0.5, [0.5], total_modes=3).partial
_MASK = np.ones((2, 2), dtype=bool)

# A non-unitary matrix with .matrix and .dim: at the couplings x = y = 1,
# which admit no completion, verify_ns read it as a working sign shift with
# p = 0.5 and NsDesign took it with predicted_probability 0.5.
_STAND_IN = types.SimpleNamespace(
    matrix=generalized_design(1.0, [1.0], total_modes=3).partial.values, dim=3
)

_NOT_SEQUENCES = (0, 1, 2, 3, 5)  # each refused as a whole, not iterated


@dataclass(frozen=True)
class Count:
    what: str
    low: int = 0
    high: int = None

    def refusals(self, name, valid):
        # Below the floor, further below and above a top end; non-integers.
        outside = [self.low - 1, self.low - 5]
        if self.high is None:
            span = "non-negative" if self.low == 0 else f"at least {self.low}"
        else:
            span, outside = f"in {self.low}..{self.high}", outside + [self.high + 1]
        wrong = (1.5, 2.0, "2", "1", None)
        return [(v, f"{self.what} must be {span}, got {v}") for v in outside] + [
            (v, f"{self.what} must be integers, got {v!r}") for v in wrong
        ]

    def forms(self, valid):
        # The valid value and both ends of the range, as numpy integers.
        top = self.low + 1 if self.high is None else self.high
        return [np.int64(v) for v in (valid, self.low, top)]


@dataclass(frozen=True)
class Counts:
    what: str
    of: str = "photon numbers"
    low: int = 0
    high: int = None
    length: int = None
    outer: str = None  # the name of a sequence of such sequences

    def refusals(self, name, valid):
        # A non-sequence, a wrong length; for a list of sequences, both for
        # the list and for its last sequence.
        if self.outer is not None:
            inner = dataclasses.replace(self, outer=None).refusals(name, valid[-1])
            head = f"{self.outer} must be sequences of occupations, got"
        else:
            inner = []
            head = f"{self.what} must be sequences of {self.of}, got"
        refusals = [(v, f"{head} {v}") for v in _NOT_SEQUENCES]
        refusals += [(valid[:-1] + (v,), message) for v, message in inner]
        if self.length is not None and self.outer is None:
            for wrong in (valid[:-1], valid + (0,)):
                message = f"{self.what} must have length {self.length}, got {wrong}"
                refusals.append((wrong, message))
        return refusals

    def entries(self, valid):
        # The last entry, of the last sequence for a list, set to each value
        # the integer rule refuses, with its message.
        if self.outer is not None:
            inner = dataclasses.replace(self, outer=None).entries(valid[-1])
        else:
            inner = Count(self.of, self.low, self.high).refusals(None, None)
        return [(valid[:-1] + (v,), message) for v, message in inner]

    def ends(self, valid):
        # The last entry at its valid value and both ends of its range, as
        # numpy integers.
        if self.outer is not None:
            inner = dataclasses.replace(self, outer=None).ends(valid[-1])
        else:
            inner = Count(self.of, self.low, self.high).forms(valid[-1])
        return [valid[:-1] + (v,) for v in inner]

    def forms(self, valid):
        return [valid, list(valid), np.array(valid)]


def _with(valid, at, bad):
    # The valid array with entry at (every entry for None) set to bad.
    value = valid.astype(complex)
    value.flat[slice(None) if at is None else at] = bad
    return value


@dataclass(frozen=True)
class Entries:
    what: str
    shape: tuple

    def refusals(self, name, valid):
        # Non-finite last, interior and every entry; a valid array has one
        # entry along a free length, so that dropping its last entry leaves
        # a wrong shape.
        spec = str(self.shape).replace("None", "n")
        spec += " with n >= 1" * (None in self.shape)
        bad = (math.nan, math.inf, complex(math.nan, 1))
        at = (-1, valid.size // 2, None)
        non_finite = [_with(valid, i, b) for b in bad for i in at]
        shaped = (1.0, valid[None] if valid.ndim == 1 else valid[0], valid[..., :-1])
        what = self.what
        return (
            [(v, f"{what} must be finite, got non-finite entries") for v in non_finite]
            + [(v, f"{what} must have shape {spec}, got shape {np.shape(v)}")
               for v in shaped]
            + [(v, f"{what} must be numeric, got {v!r}") for v in ({"a": 1}, "abc")]
        )

    def forms(self, valid):
        return [valid, valid.tolist()]


@dataclass(frozen=True)
class Typed:
    cls: type

    def refusals(self, name, valid):
        # An array where the record is built from one, and for a circuit the
        # stand-in too; a str elsewhere.
        refused = {
            LopCircuit: [np.eye(3), _STAND_IN],
            PartialMatrix: [np.eye(3)],
            DensityMatrix: [np.eye(3)],
            np.random.Generator: [None, 5],
        }.get(self.cls, ["x"])
        what, want = name.split(".")[-1], self.cls.__name__
        return [(v, f"{what} must be {want}, got {type(v).__name__}") for v in refused]


class Tolerance:
    def refusals(self, name, valid):
        refused = (0.0, -1.0, math.nan, math.inf, -math.inf, "1e-10", None)
        head = "tolerance must be finite and positive, got"
        return [(v, f"{head} {v!r}") for v in refused]

    def forms(self, valid):
        return [valid, np.float64(valid), np.float32(valid)]


class Mask:
    def refusals(self, name, valid):
        head = f"fixed-entry masks must be bool arrays of shape {valid.shape}, got"
        return [
            ([[0.5, math.nan], [0, 0]], f"{head} float64 of shape (2, 2)"),
            ([["a", "b"], ["c", ""]], f"{head} <U1 of shape (2, 2)"),
            (valid[:-1], f"{head} bool of shape {valid[:-1].shape}"),
            ([[True], [True, False]], f"{head} a ragged nesting"),
            (None, f"{head} object of shape ()"),
        ]

    def forms(self, valid):
        return [valid, valid.tolist()]


@dataclass(frozen=True)
class Number:
    alike: tuple = ()  # conversions of the valid value that give its result

    def refusals(self, name, valid):
        return []  # each function words its own range: the row's messages

    def forms(self, valid):
        return [valid] + [convert(valid) for convert in self.alike]


_REAL = (np.float64, np.float32, np.int64)  # for a valid value of 0.0
_BAD_X2 = f"x2 must lie in [0, {X2_MAX}], got"
_BAD_SQUARES = "squared couplings must be finite and non-negative, got"
_BAD_INTERVAL = f"interval must satisfy 0 <= lo < hi <= {X2_MAX}"
_BAD_COUPLING = "coupling moduli must lie in [0, 1]"


def _row(name, call, valid, rule, *extra):
    # extra: (value, message) of each refusal of the argument's own checks.
    return pytest.param(name, call, valid, rule, extra, id=name)


def _records(cls, valid, calls):
    # Rows of one record class and valid value: {owner.param: call}.
    return [_row(name, call, valid, Typed(cls)) for name, call in calls.items()]


ROWS = [
    _row("SystemBasis.modes", lambda v: SystemBasis(v, (1,)), 2,
         Count("mode counts", 1)),
    _row("FockSector.modes", lambda v: FockSector(v, 1), 2, Count("mode counts", 1)),
    _row("FockSector.photons", lambda v: FockSector(2, v), 1, Count("photon numbers")),
    _row("lift_to_sector.photons", lambda v: lift_to_sector(_LOP, v), 2,
         Count("photon numbers")),
    _row("haar_unitary.dim", lambda v: haar_unitary(v, np.random.default_rng(0)), 2,
         Count("dimensions", 1)),
    _row("ConditionalScheme.system_modes",
         lambda v: ConditionalScheme(v, 1, (1,), ((1,),)), 1,
         Count("system mode counts", 1)),
    _row("ConditionalScheme.ancilla_modes",
         lambda v: ConditionalScheme(1, v, (1,), ((1,),)), 1,
         Count("ancilla mode counts")),
    _row("ConditionalScheme.one_photon.ancilla_modes",
         lambda v: ConditionalScheme.one_photon(v, 0, (0,)), 2,
         Count("ancilla mode counts", 1)),
    _row("ConditionalScheme.one_photon.input_mode",
         lambda v: ConditionalScheme.one_photon(3, v, (0,)), 0,
         Count("input mode indices", 0, 2)),
    _row("decompose_by_ancilla_count.system_modes",
         lambda v: decompose_by_ancilla_count(np.eye(6)[0], FockSector(3, 2), v), 1,
         Count("system mode counts", 1, 2)),
    _row("generalized_design.total_modes", lambda v: generalized_design(0.5, [0.5], v),
         3, Count("mode counts", 2)),
    _row("complete_design.max_extra_modes",
         lambda v: complete_design(GeneralizedDesign(_PARTIAL, (1,)), v), 2,
         Count("max_extra_modes")),
    _row("ancilla_block.system_modes", lambda v: ancilla_block(v, _LOP2), 1,
         Count("system mode counts")),
    _row("scan_curve.grid_n", scan_curve, 3, Count("grid sizes", 2)),
    _row("sample_region.grid_n", sample_region, 3, Count("grid sizes", 2)),
    _row("numeric_search.total_modes", lambda v: numeric_search(v, 1, 0, 0), 3,
         Count("mode counts", 3)),
    _row("numeric_search.rank_s", lambda v: numeric_search(4, v, 0, 0), 1,
         Count("ranks", 1, 3)),
    _row("numeric_search.restarts", lambda v: numeric_search(4, 1, v, 0), 0,
         Count("restart counts")),
    _row("numeric_search.seed", lambda v: numeric_search(4, 1, 0, v), 0,
         Count("seeds")),
    _row("SystemBasis.photon_sectors", lambda v: SystemBasis(2, v), (0, 2),
         Counts("photon sectors")),
    _row("SystemBasis.index.occ", lambda v: SystemBasis(2, (1,)).index(v), (1, 0),
         Counts("occupations")),
    _row("fock_amplitude.in_occ", lambda v: fock_amplitude(_LOP2, v, (0, 1)), (1, 0),
         Counts("occupations", length=2)),
    _row("fock_amplitude.out_occ", lambda v: fock_amplitude(_LOP2, (1, 0), v), (0, 1),
         Counts("occupations", length=2)),
    _row("kraus_operator.outcome", lambda v: kraus_operator(_SCHEME, _LOP, v), (1, 0),
         Counts("outcomes", length=2)),
    _row("MeasurementOperator.outcome",
         lambda v: MeasurementOperator(_SCHEME, v, _OUT, np.zeros((3, 3))), (1, 0),
         Counts("outcomes", length=2)),
    _row("ConditionalScheme.ancilla_input",
         lambda v: ConditionalScheme(1, 2, v, ((1, 0),)), (1, 0),
         Counts("ancilla inputs", length=2)),
    _row("ConditionalScheme.outcomes", lambda v: ConditionalScheme(1, 2, (1, 0), v),
         ((1, 0), (0, 1)), Counts("outcomes", length=2, outer="outcome lists")),
    _row("ConditionalScheme.system_photons",
         lambda v: ConditionalScheme(1, 1, (1,), ((1,),), v), (0, 2),
         Counts("photon sectors")),
    _row("ConditionalScheme.one_photon.accept_modes",
         lambda v: ConditionalScheme.one_photon(3, 0, v), (0, 2),
         Counts("accept_modes", "accepted mode indices", 0, 2)),
    _row("NsDesign.accept_modes", lambda v: NsDesign(_KLM, v), (1,),
         Counts("accept_modes", "accepted modes", 1, 2)),
    _row("GeneralizedDesign.accept_modes", lambda v: GeneralizedDesign(_PARTIAL, v),
         (1,), Counts("accept_modes", "accepted modes", 1, 2)),
    _row("LopCircuit.matrix", LopCircuit, np.eye(2),
         Entries("mode matrices", (None, None))),
    _row("SectorMatrix.entries", lambda v: SectorMatrix(FockSector(2, 1), v), np.eye(2),
         Entries("sector matrices", (2, 2))),
    _row("PartialMatrix.values", lambda v: PartialMatrix(v, _MASK), np.eye(2),
         Entries("partial matrices", (None, None))),
    _row("DensityMatrix.entries", lambda v: DensityMatrix(_OUT, v), np.eye(3) / 3,
         Entries("density matrices", (3, 3))),
    _row("MeasurementOperator.entries",
         lambda v: MeasurementOperator(_SCHEME, (1, 0), _OUT, v), _KRAUS.entries,
         Entries("measurement operators", (3, 3))),
    _row("DensityMatrix.pure.amplitudes", lambda v: DensityMatrix.pure(_OUT, v),
         np.array([1.0, 0.0, 0.0]), Entries("amplitude vectors", (3,))),
    _row("reduce_general_ancilla.chi", reduce_general_ancilla, np.array([1j]),
         Entries("chi", (None,))),
    _row("decompose_by_ancilla_count.state",
         lambda v: decompose_by_ancilla_count(v, FockSector(3, 2), 1), np.eye(6)[0],
         Entries("state vectors", (6,))),
    _row("permanent.m", permanent, np.eye(2),
         Entries("permanent matrices", (None, None))),
    _row("PartialMatrix.fixed", lambda v: PartialMatrix(np.eye(2), v), _MASK, Mask()),
    *_records(LopCircuit, _LOP, {
        "lift_to_sector.lop": lambda v: lift_to_sector(v, 1),
        "fock_amplitude.lop": lambda v: fock_amplitude(v, (1, 0, 0), (1, 0, 0)),
        "kraus_operator.lop": lambda v: kraus_operator(_SCHEME, v, (1, 0)),
        "apply_conditional.lop": lambda v: apply_conditional(_SCHEME, v, _RHO),
        "completeness_defect.lop": lambda v: completeness_defect(_SCHEME, v),
        "verify_ns.lop": lambda v: verify_ns(v, _SCHEME),
        "ancilla_block.ancilla_unitary": lambda v: ancilla_block(1, v),
    }),
    _row("NsDesign.matrix", lambda v: NsDesign(v, (1,)), _KLM, Typed(LopCircuit)),
    *_records(ConditionalScheme, _SCHEME, {
        "kraus_operator.scheme": lambda v: kraus_operator(v, _LOP, (1, 0)),
        "apply_conditional.scheme": lambda v: apply_conditional(v, _LOP, _RHO),
        "completeness_defect.scheme": lambda v: completeness_defect(v, _LOP),
        "verify_ns.scheme": lambda v: verify_ns(_LOP, v),
        "MeasurementOperator.scheme": lambda v: MeasurementOperator(
            v, (1, 0), _OUT, np.zeros((3, 3))
        ),
    }),
    *_records(SystemBasis, _OUT, {
        "DensityMatrix.basis": lambda v: DensityMatrix(v, np.eye(3) / 3),
        "DensityMatrix.pure.basis": lambda v: DensityMatrix.pure(v, [1, 0, 0]),
    }),
    # Only the basis the outcome's read plan gives, here on one system mode.
    _row("MeasurementOperator.out_basis",
         lambda v: MeasurementOperator(_SCHEME, (1, 0), v, np.zeros((3, 3))), _OUT,
         Typed(SystemBasis),
         (SystemBasis(3, (0, 1)), "out_basis must be SystemBasis(modes=1, sectors="
          "(0, 1, 2)) for outcome (1, 0), got SystemBasis(modes=3, sectors=(0, 1))")),
    # One sector, of which an equal one-sector SystemBasis is one.
    _row("SectorMatrix.sector", lambda v: SectorMatrix(v, np.eye(3)),
         SystemBasis(3, (1,)), Typed(SystemBasis),
         (SystemBasis(1, (0, 1, 2)),
          "sector must hold one photon number, got (0, 1, 2)")),
    _row("decompose_by_ancilla_count.sector",
         lambda v: decompose_by_ancilla_count(np.eye(3)[0], v, 1), FockSector(3, 1),
         Typed(SystemBasis)),
    _row("apply_conditional.rho", lambda v: apply_conditional(_SCHEME, _LOP, v), _RHO,
         Typed(DensityMatrix)),
    _row("GeneralizedDesign.partial", lambda v: GeneralizedDesign(v, (1,)), _PARTIAL,
         Typed(PartialMatrix)),
    _row("complete_to_unitary.partial", complete_to_unitary,
         PartialMatrix(np.eye(2), _MASK), Typed(PartialMatrix)),
    _row("complete_design.design", complete_design, GeneralizedDesign(_PARTIAL, (1,)),
         Typed(GeneralizedDesign)),
    _row("haar_unitary.rng", lambda v: haar_unitary(2, v), np.random.default_rng(0),
         Typed(np.random.Generator)),
    _row("maximize_boundary.tol", maximize_boundary, 1e-10, Tolerance()),
    # A non-number is refused in the words for a number out of range and
    # shown as a non-number; a number keeps its plain form, a numpy scalar too.
    _row("feasible.x2", lambda v: feasible(v, 0.1), 0.0, Number(_REAL),
         ("a", f"{_BAD_SQUARES} 'a', 0.1"),
         (np.float64(-1), f"{_BAD_SQUARES} -1.0, 0.1")),
    _row("feasible.y2", lambda v: feasible(0.1, v), 0.0, Number(_REAL),
         ("a", f"{_BAD_SQUARES} 0.1, 'a'")),
    _row("boundary_y2.x2", boundary_y2, 0.0, Number(_REAL), ("a", f"{_BAD_X2} 'a'"),
         ("1", f"{_BAD_X2} '1'"), (np.float64(0.9), f"{_BAD_X2} 0.9")),
    _row("probability_on_boundary.x2", probability_on_boundary, 0.0, Number(_REAL),
         ("a", f"{_BAD_X2} 'a'")),
    _row("maximize_boundary.lo", lambda v: maximize_boundary(1e-10, v, 0.5), 0.1,
         Number(_REAL[:2]), ("a", _BAD_INTERVAL)),
    _row("maximize_boundary.hi", lambda v: maximize_boundary(1e-10, 0.1, v), 0.5,
         Number(_REAL[:2]), ("a", _BAD_INTERVAL)),
    _row("generalized_design.x",
         lambda v: generalized_design(v, [0.5], 3).partial.values[0, 1], 0.5,
         Number((np.complex128, np.float64)), ("a", _BAD_COUPLING)),
    _row("generalized_design.y_list",
         lambda v: generalized_design(0.5, v, 3).partial.values[1, 0], [0.5],
         Number((np.array, tuple)), (["a"], _BAD_COUPLING),
         (0.5, "y_list must be sequences of couplings, got 0.5")),
    _row("klm_design.u12", lambda v: klm_design(v, 2**-0.25).predicted_probability,
         2**-0.25, Number((np.complex128, np.float64)), ("a", _BAD_COUPLING)),
    _row("klm_design.u21", lambda v: klm_design(2**-0.25, v).predicted_probability,
         2**-0.25, Number((np.complex128, np.float64)), ("a", _BAD_COUPLING)),
]
TABLE = {row.values[0]: row.values[1:] for row in ROWS}


FIELDS = "name, call, valid, rule, extra"


def rows_of(kinds, ids=lambda name: name):
    """The rows whose rule is one of kinds, each with the id ids(name)."""
    return [pytest.param(*row.values, id=ids(row.values[0]))
            for row in ROWS if isinstance(row.values[3], kinds)]


def assert_refused(call, refusals):
    for value, message in refusals:
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == message, value


_OWN_FILE = (Count, Counts, Entries, Typed)  # rules run by a file of their own
_REST = [row for row in ROWS if not isinstance(row.values[3], _OWN_FILE)]


@pytest.mark.parametrize(FIELDS, _REST)
def test_every_argument_follows_its_rule(name, call, valid, rule, extra):
    assert_refused(call, rule.refusals(name, valid) + list(extra))


@pytest.mark.parametrize(FIELDS, _REST)
def test_valid_value_passes_in_every_form(name, call, valid, rule, extra):
    # A number as a numpy scalar gives the plain number's result, of the same
    # type and value, as its repr shows; a mask passes as nested lists.
    results = [call(value) for value in rule.forms(valid)]
    if isinstance(rule, Number):
        assert all(repr(result) == repr(results[0]) for result in results), results


# Records a call returns or raises, never takes: their fields are not checked.
OUTPUTS = {"ConditionalResult", "NsReport", "OutcomeReport", "OptimizationResult",
           "BoundCurveSample", "InfeasibleDesignError"}

# The rule of each annotation, but for records and the one tolerance.
KINDS = {
    int: Count,
    Iterable[int]: Counts,  # a parameter
    tuple[int, ...]: Counts,  # a field, stored as a tuple
    tuple[tuple[int, ...], ...]: Counts,
    np.ndarray: Entries,
    npt.NDArray[np.bool_]: Mask,
    float: Number,
    complex: Number,
    Sequence[complex]: Number,
}


def _kind(rule):
    return (Typed, rule.cls) if isinstance(rule, Typed) else type(rule)


def _annotated_arguments():
    """{owner.param: rule} of every annotated public parameter and checked
    field: a class's __init__ and its fields under the class's own name."""
    public = {n: getattr(nsgate, n) for n in nsgate.__all__ if n not in OUTPUTS}
    classes = {n: c for n, c in public.items() if isinstance(c, type)}
    records = {c for c in classes.values() if not issubclass(c, Exception)}
    records.add(np.random.Generator)
    owners = {n: f for n, f in public.items() if callable(f) and n not in classes}
    for name, cls in classes.items():
        if "__post_init__" in vars(cls):
            owners[name] = cls  # its fields
        for attr, f in vars(cls).items():
            f = getattr(f, "__func__", f)  # a classmethod's function
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                owners[name] = f
            elif callable(f) and attr != "__init__":
                owners[f"{name}.{attr}"] = f
    return {
        f"{owner}.{arg}": Tolerance if arg == "tol"
        else (Typed, hint) if hint in records else KINDS[hint]
        for owner, f in owners.items()
        for arg, hint in get_type_hints(f).items()
        if arg != "return"
    }


def test_the_table_holds_every_annotated_argument():
    table = {name: _kind(row[2]) for name, row in TABLE.items()}
    assert len(table) == len(ROWS)  # one row per argument
    assert _annotated_arguments() == table
