"""One rule for sequence arguments: fock._counts, and numbers of the right kind.

Every public argument that is a sequence of counts (an occupation, a list of
photon sectors, a list of mode indices) is a tuple of integers, each held to
its range by fock._count.  Anything else is one ValueError per fault that
names the argument and the value: a value that is not a sequence, an entry
the integer rule refuses (in its words), or a sequence of the wrong length
where the length is fixed.  Real and complex arguments are refused the same
way when they are not numbers at all, never with a TypeError.
"""

import numpy as np
import pytest

from nsgate import (
    X2_MAX,
    ConditionalScheme,
    FockSector,
    GeneralizedDesign,
    NsDesign,
    SystemBasis,
    boundary_y2,
    feasible,
    fock_amplitude,
    generalized_design,
    haar_unitary,
    klm_design,
    kraus_operator,
    maximize_boundary,
    probability_on_boundary,
)
from nsgate.fock import as_occupation

_KLM = klm_design(2**-0.25, 2**-0.25).matrix
_PARTIAL = generalized_design(0.5, [0.5], total_modes=3).partial
_SCHEME = ConditionalScheme.one_photon(2, 0, (0,))
_LOP = haar_unitary(2, np.random.default_rng(0))


def _rule(name, call, valid, what, of="photon numbers", low=0, high=None, length=None):
    # One argument: a call taking its value, a value it accepts, the names
    # its messages give the sequence and its entries, the entries' range
    # low..high (no upper end when high is None) and the fixed length.
    return pytest.param(call, valid, what, of, low, high, length, id=name)


RULES = [
    _rule("as_occupation", as_occupation, (1, 0), "occupations"),
    _rule(
        "SystemBasis.photon_sectors",
        lambda v: SystemBasis(2, v),
        (0, 2),
        "photon sectors",
    ),
    _rule(
        "SystemBasis.index",
        lambda v: SystemBasis(2, (1,)).index(v),
        (1, 0),
        "occupations",
    ),
    _rule(
        "FockSector.index",
        lambda v: FockSector(2, 1).index(v),
        (0, 1),
        "occupations",
    ),
    _rule(
        "fock_amplitude.in_occ",
        lambda v: fock_amplitude(_LOP, v, (0, 1)),
        (1, 0),
        "occupations",
        length=2,
    ),
    _rule(
        "fock_amplitude.out_occ",
        lambda v: fock_amplitude(_LOP, (1, 0), v),
        (0, 1),
        "occupations",
        length=2,
    ),
    _rule(
        "ConditionalScheme.ancilla_input",
        lambda v: ConditionalScheme(1, 2, v, ((1, 0),)),
        (1, 0),
        "ancilla inputs",
        length=2,
    ),
    _rule(
        "ConditionalScheme.outcomes",
        lambda v: ConditionalScheme(1, 2, (1, 0), ((1, 0), v)),
        (0, 1),
        "outcomes",
        length=2,
    ),
    _rule(
        "ConditionalScheme.system_photons",
        lambda v: ConditionalScheme(1, 1, (1,), ((1,),), v),
        (0, 2),
        "photon sectors",
    ),
    _rule(
        "one_photon.accept_modes",
        lambda v: ConditionalScheme.one_photon(3, 0, v),
        (0, 2),
        "accept_modes",
        "accepted mode indices",
        0,
        2,
    ),
    _rule(
        "kraus_operator",
        lambda v: kraus_operator(_SCHEME, haar_unitary(3, np.random.default_rng(0)), v),
        (1, 0),
        "outcomes",
        length=2,
    ),
    _rule(
        "NsDesign",
        lambda v: NsDesign(_KLM, v),
        (1,),
        "accept_modes",
        "accepted modes",
        1,
        2,
    ),
    _rule(
        "GeneralizedDesign",
        lambda v: GeneralizedDesign(_PARTIAL, v),
        (1,),
        "accept_modes",
        "accepted modes",
        1,
        2,
    ),
]


def _refusals(valid, what, of, low, high, length):
    """(value, message) of each value the rule must refuse."""
    if high is not None:
        span = f"in {low}..{high}"
    else:
        span = "non-negative" if low == 0 else f"at least {low}"
    refusals = [(5, f"{what} must be sequences of {of}, got 5")]
    # The last entry of an accepted value replaced: not an integer, just
    # below the floor and just above a top end.
    refusals.append((valid[:-1] + (1.5,), f"{of} must be integers, got 1.5"))
    for bad in [low - 1] + ([] if high is None else [high + 1]):
        refusals.append((valid[:-1] + (bad,), f"{of} must be {span}, got {bad}"))
    if length is not None:
        for wrong in (valid[:-1], valid + (0,)):
            refusals.append((wrong, f"{what} must have length {length}, got {wrong}"))
    return refusals


@pytest.mark.parametrize("call, valid, what, of, low, high, length", RULES)
def test_every_sequence_argument_follows_the_rule(
    call, valid, what, of, low, high, length
):
    for value, message in _refusals(valid, what, of, low, high, length):
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == message, value


@pytest.mark.parametrize("call, valid, what, of, low, high, length", RULES)
def test_accepted_value_passes_as_any_sequence(call, valid, what, of, low, high, length):
    # A tuple, a list and a numpy integer array of the same entries all pass.
    for value in (valid, list(valid), np.array(valid)):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        # Each raised a TypeError before the sequence rule.
        (lambda: SystemBasis(2, 3), "photon sectors must be sequences of photon "
         "numbers, got 3"),
        (lambda: ConditionalScheme(1, 1, (1,), 1), "outcome lists must be sequences "
         "of occupations, got 1"),
        (lambda: ConditionalScheme(1, 1, (1,), ((1,),), 2), "photon sectors must be "
         "sequences of photon numbers, got 2"),
        (lambda: ConditionalScheme.one_photon(2, 0, 0), "accept_modes must be "
         "sequences of accepted mode indices, got 0"),
        (lambda: NsDesign(_KLM, 1), "accept_modes must be sequences of accepted "
         "modes, got 1"),
        # Real and complex arguments that are not numbers, in each function's
        # words for a number out of range, the value shown as a non-number.
        (lambda: feasible("a", 0.1), "squared couplings must be finite and "
         "non-negative, got 'a', 0.1"),
        (lambda: boundary_y2("a"), f"x2 must lie in [0, {X2_MAX}], got 'a'"),
        (lambda: boundary_y2("1"), f"x2 must lie in [0, {X2_MAX}], got '1'"),
        (lambda: probability_on_boundary("a"), f"x2 must lie in [0, {X2_MAX}], "
         "got 'a'"),
        # A number keeps its plain form, a numpy scalar included.
        (lambda: feasible(np.float64(-1), 0.1), "squared couplings must be finite "
         "and non-negative, got -1.0, 0.1"),
        (lambda: boundary_y2(np.float64(0.9)), f"x2 must lie in [0, {X2_MAX}], "
         "got 0.9"),
        (lambda: maximize_boundary(1e-10, "a", 0.5), "interval must satisfy "
         f"0 <= lo < hi <= {X2_MAX}"),
        (lambda: generalized_design("a", [0.5], 3), "coupling moduli must lie in "
         "[0, 1]"),
        (lambda: generalized_design(0.5, ["a"], 3), "coupling moduli must lie in "
         "[0, 1]"),
        (lambda: generalized_design(0.5, 0.5, 3), "y_list must be sequences of "
         "couplings, got 0.5"),
    ],
    ids=[
        "SystemBasis",
        "ConditionalScheme.outcome_list",
        "ConditionalScheme.system_photons",
        "one_photon",
        "NsDesign",
        "feasible",
        "boundary_y2",
        "boundary_y2.numeral",
        "probability_on_boundary",
        "feasible.number",
        "boundary_y2.number",
        "maximize_boundary",
        "generalized_design.x",
        "generalized_design.y",
        "generalized_design.y_list",
    ],
)
def test_a_value_of_the_wrong_kind_is_a_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_python_and_numpy_numbers_pass():
    for x2 in (0.25, np.float64(0.25), np.float32(0.25), np.int64(0)):
        assert feasible(x2, x2) == feasible(float(x2), float(x2))
        assert boundary_y2(x2) == boundary_y2(float(x2))
        assert probability_on_boundary(x2) == probability_on_boundary(float(x2))
    assert maximize_boundary(1e-10, np.float64(0.1), np.float32(0.5))[0] == (
        np.float32(0.5)
    )
    for x, y in ((0.5, [0.5]), (np.complex128(0.5), np.array([0.5])), (0.5j, (1,))):
        design = generalized_design(x, y, 3)
        assert design.partial.values[0, 1] == complex(x)
