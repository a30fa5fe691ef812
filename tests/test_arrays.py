"""One rule for array arguments: fock._entries with its shape.

Every public array argument is an array of finite numbers of one shape, and
anything else is one ValueError naming the argument: not numeric, another
shape (read before any entry), or non-finite entries.  In a shape, n is a
free length of at least 1, the same for every n.  Records hold a read-only
complex copy of what they are given.
"""

import math

import numpy as np
import pytest

from nsgate import (
    ConditionalScheme,
    DensityMatrix,
    FockSector,
    LopCircuit,
    MeasurementOperator,
    PartialMatrix,
    SectorMatrix,
    SystemBasis,
    decompose_by_ancilla_count,
    haar_unitary,
    kraus_operator,
    permanent,
    reduce_general_ancilla,
)

_SCHEME = ConditionalScheme.one_photon(2, 0, (0,))
_OPERATOR = kraus_operator(
    _SCHEME, haar_unitary(3, np.random.default_rng(0)), _SCHEME.outcomes[0]
)
_BASIS = SystemBasis(1, (0, 1, 2))


def _measurement(entries):
    op = _OPERATOR
    return MeasurementOperator(op.scheme, op.outcome, op.out_basis, entries)


def _rule(name, call, what, shape, valid):
    # One argument: a call taking its value, the name its message gives, its
    # shape (None for a free length) and a value the whole call accepts.  A
    # valid vector of free length has one entry, so that dropping its last
    # entry leaves a wrong shape.
    return pytest.param(call, what, shape, np.array(valid), id=name)


RULES = [
    _rule("LopCircuit", LopCircuit, "mode matrices", (None, None), np.eye(2)),
    _rule(
        "SectorMatrix",
        lambda v: SectorMatrix(FockSector(2, 1), v),
        "sector matrices",
        (2, 2),
        np.eye(2),
    ),
    _rule(
        "PartialMatrix",
        lambda v: PartialMatrix(v, np.ones((2, 2), dtype=bool)),
        "partial matrices",
        (None, None),
        np.eye(2),
    ),
    _rule(
        "DensityMatrix",
        lambda v: DensityMatrix(_BASIS, v),
        "density matrices",
        (3, 3),
        np.eye(3) / 3,
    ),
    _rule(
        "MeasurementOperator",
        _measurement,
        "measurement operators",
        _OPERATOR.entries.shape,
        _OPERATOR.entries,
    ),
    _rule(
        "DensityMatrix.pure",
        lambda v: DensityMatrix.pure(_BASIS, v),
        "amplitude vectors",
        (3,),
        [1.0, 0.0, 0.0],
    ),
    _rule("reduce_general_ancilla", reduce_general_ancilla, "chi", (None,), [1j]),
    _rule(
        "decompose_by_ancilla_count",
        lambda v: decompose_by_ancilla_count(v, FockSector(3, 2), 1),
        "state vectors",
        (6,),
        np.eye(6)[0],
    ),
    _rule("permanent", permanent, "permanent matrices", (None, None), np.eye(2)),
]


def _with(valid, bad):
    # The valid value with its last entry replaced by bad.
    value = valid.astype(complex)
    value.flat[-1] = bad
    return value


def _refusals(what, shape, valid):
    """(value, message) of each value the rule must refuse."""
    spec = str(shape).replace("None", "n")
    if None in shape:
        spec += " with n >= 1"
    other_ndim = valid[None] if valid.ndim == 1 else valid[0]
    shaped = [1.0, other_ndim, valid[..., :-1]]
    return (
        [(v, f"{what} must be finite, got non-finite entries")
         for v in (_with(valid, math.nan), _with(valid, math.inf))]
        + [(v, f"{what} must have shape {spec}, got shape {np.shape(v)}")
           for v in shaped]
        + [(v, f"{what} must be numeric, got {v!r}") for v in ({"a": 1}, "abc")]
    )


@pytest.mark.parametrize("call, what, shape, valid", RULES)
def test_every_array_argument_follows_the_rule(call, what, shape, valid):
    for value, message in _refusals(what, shape, valid):
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == message


@pytest.mark.parametrize("call, what, shape, valid", RULES)
def test_valid_value_passes(call, what, shape, valid):
    # As an array and as nested lists: any error it meets is not the rule's.
    for value in (valid, valid.tolist()):
        call(value)


RECORDS = RULES[:5]  # the records, which keep what the rule returns


@pytest.mark.parametrize("call, what, shape, valid", RECORDS)
def test_records_hold_a_frozen_complex_copy(call, what, shape, valid):
    # The record neither aliases nor freezes the caller's array.
    given = valid.copy()
    held = next(v for v in vars(call(given)).values() if isinstance(v, np.ndarray))
    assert held.dtype == complex and not held.flags.writeable
    assert given.flags.writeable and not np.shares_memory(given, held)
    assert np.array_equal(held, valid)


def test_non_finite_and_non_numeric_records_refused():
    # Two records used to accept non-finite entries, and a dict used to be
    # a TypeError.
    with pytest.raises(ValueError, match="non-finite"):
        SectorMatrix(FockSector(2, 1), [[math.nan, 0], [0, 5]])
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementOperator(
            _SCHEME, _SCHEME.outcomes[0], _SCHEME.system_basis, np.full((3, 3), np.inf)
        )
    with pytest.raises(ValueError, match="must be numeric"):
        LopCircuit({"a": 1})
