"""One rule for record arguments: fock._record.

Every public argument that is a record (a circuit, a scheme, a basis, a
state, a partial matrix or a design) is an instance of the class the code
reads, checked before any of its fields is read.  Anything else is one
ValueError naming the argument, the class and the type given, never an
AttributeError, and nothing that merely looks like a circuit is verified.
"""

import dataclasses
import types
from typing import get_type_hints

import numpy as np
import pytest

import nsgate
from nsgate import (
    ConditionalScheme,
    DensityMatrix,
    GeneralizedDesign,
    LopCircuit,
    MeasurementOperator,
    NsDesign,
    PartialMatrix,
    SectorMatrix,
    SystemBasis,
    ancilla_block,
    apply_conditional,
    complete_design,
    complete_to_unitary,
    completeness_defect,
    decompose_by_ancilla_count,
    fock_amplitude,
    generalized_design,
    haar_unitary,
    kraus_operator,
    lift_to_sector,
    verify_ns,
)

_SCHEME = ConditionalScheme.one_photon(2, 0, (0,))
_LOP = haar_unitary(3, np.random.default_rng(0))
_OUT = kraus_operator(_SCHEME, _LOP, (1, 0)).out_basis
_RHO = DensityMatrix.pure(_SCHEME.system_basis, [1, 0, 0])

# A non-unitary matrix with .matrix and .dim: at the couplings x = y = 1,
# which admit no completion, verify_ns read it as a working sign shift with
# p = 0.5 and NsDesign took it with predicted_probability 0.5.
_STAND_IN = types.SimpleNamespace(
    matrix=generalized_design(1.0, [1.0], total_modes=3).partial.values, dim=3
)

#: Each record argument by the class the code reads, as owner.argument: a
#: call taking its value.
RULES = {
    LopCircuit: {
        "lift_to_sector.lop": lambda v: lift_to_sector(v, 1),
        "fock_amplitude.lop": lambda v: fock_amplitude(v, (1, 0, 0), (1, 0, 0)),
        "kraus_operator.lop": lambda v: kraus_operator(_SCHEME, v, (1, 0)),
        "apply_conditional.lop": lambda v: apply_conditional(_SCHEME, v, _RHO),
        "completeness_defect.lop": lambda v: completeness_defect(_SCHEME, v),
        "verify_ns.lop": lambda v: verify_ns(v, _SCHEME),
        "ancilla_block.ancilla_unitary": lambda v: ancilla_block(1, v),
        "NsDesign.matrix": lambda v: NsDesign(v, (1,)),
    },
    ConditionalScheme: {
        "kraus_operator.scheme": lambda v: kraus_operator(v, _LOP, (1, 0)),
        "apply_conditional.scheme": lambda v: apply_conditional(v, _LOP, _RHO),
        "completeness_defect.scheme": lambda v: completeness_defect(v, _LOP),
        "verify_ns.scheme": lambda v: verify_ns(_LOP, v),
        "MeasurementOperator.scheme": lambda v: MeasurementOperator(
            v, (1, 0), _OUT, np.zeros((3, 3))
        ),
    },
    SystemBasis: {
        "DensityMatrix.basis": lambda v: DensityMatrix(v, np.eye(3) / 3),
        "DensityMatrix.pure.basis": lambda v: DensityMatrix.pure(v, [1, 0, 0]),
        "MeasurementOperator.out_basis": lambda v: MeasurementOperator(
            _SCHEME, (1, 0), v, np.zeros((3, 3))
        ),
        "SectorMatrix.sector": lambda v: SectorMatrix(v, np.eye(3)),
        "decompose_by_ancilla_count.sector": lambda v: decompose_by_ancilla_count(
            np.eye(3)[0], v, 1
        ),
    },
    DensityMatrix: {
        "apply_conditional.rho": lambda v: apply_conditional(_SCHEME, _LOP, v),
    },
    PartialMatrix: {
        "GeneralizedDesign.partial": lambda v: GeneralizedDesign(v, (1,)),
        "complete_to_unitary.partial": complete_to_unitary,
    },
    GeneralizedDesign: {"complete_design.design": complete_design},
}
ROWS = {name: (call, cls) for cls, rows in RULES.items() for name, call in rows.items()}


def _refused(cls):
    # An array where the record is built from one, and for a circuit the
    # stand-in too; a str elsewhere.
    if cls is LopCircuit:
        return [np.eye(3), _STAND_IN]
    return [np.eye(3)] if cls in (PartialMatrix, DensityMatrix) else ["x"]


@pytest.mark.parametrize("name", ROWS)
def test_every_record_argument_follows_the_rule(name):
    call, cls = ROWS[name]
    for value in _refused(cls):
        with pytest.raises(ValueError) as err:
            call(value)
        what, given = name.split(".")[-1], type(value).__name__
        assert str(err.value) == f"{what} must be {cls.__name__}, got {given}"


# Records a call returns, never takes: their fields are not checked.
OUTPUTS = {"ConditionalResult", "NsReport", "OutcomeReport", "OptimizationResult",
           "BoundCurveSample"}


def _annotated_records():
    """{owner.argument: class} of every public parameter or checked field
    annotated with a record class."""
    public = {n: getattr(nsgate, n) for n in nsgate.__all__ if n not in OUTPUTS}
    classes = {n: c for n, c in public.items() if isinstance(c, type)}
    records = {c for c in classes.values() if not issubclass(c, Exception)}
    owners = {n: f for n, f in public.items() if callable(f) and n not in classes}
    for name, cls in classes.items():
        if "__post_init__" in vars(cls):
            owners[name] = cls  # its fields
        for attr, f in vars(cls).items():
            f = getattr(f, "__func__", f)  # a classmethod's function
            generated = dataclasses.is_dataclass(cls) and attr == "__init__"
            if callable(f) and not generated:
                owners[f"{name}.{attr}"] = f
    return {
        f"{owner}.{arg}": hint
        for owner, f in owners.items()
        for arg, hint in get_type_hints(f).items()
        if hint in records and arg != "return"
    }


def test_the_table_holds_every_record_argument():
    assert _annotated_records() == {name: cls for name, (_, cls) in ROWS.items()}
