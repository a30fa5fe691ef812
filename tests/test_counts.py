"""One rule for integer arguments: fock._count with its range.

Every public integer argument is a Python or numpy integer in a range, and
anything else is one ValueError naming the argument, the range and the
value.  A float is refused even when it is integral: 2.0 is not read as 2,
and neither is the string "2".
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nsgate import (
    ConditionalScheme,
    FockSector,
    GeneralizedDesign,
    NsDesign,
    SystemBasis,
    ancilla_block,
    complete_design,
    decompose_by_ancilla_count,
    fock_amplitude,
    generalized_design,
    haar_unitary,
    klm_design,
    kraus_operator,
    lift_to_sector,
    numeric_search,
    sample_region,
    scan_curve,
)
from nsgate.fock import as_occupation

SRC = Path(__file__).resolve().parents[1] / "src"

_KLM = klm_design(2**-0.25, 2**-0.25).matrix
_PARTIAL = generalized_design(0.5, [0.5], total_modes=3).partial
_SCHEME = ConditionalScheme.one_photon(2, 0, (0,))


def _haar(dim):
    return haar_unitary(dim, np.random.default_rng(0))


def _rule(name, call, what, low, high=None):
    # One argument: a call taking its value, the name its message gives,
    # and its range low..high (no upper end when high is None).
    return pytest.param(call, what, low, high, id=name)


RULES = [
    _rule("SystemBasis.modes", lambda v: SystemBasis(v, (1,)), "mode counts", 1),
    _rule("SystemBasis.sectors", lambda v: SystemBasis(2, (0, v)), "photon numbers", 0),
    _rule(
        "SystemBasis.index",
        lambda v: SystemBasis(2, (1,)).index((1, v)),
        "photon numbers",
        0,
    ),
    _rule("FockSector.modes", lambda v: FockSector(v, 1), "mode counts", 1),
    _rule("FockSector.photons", lambda v: FockSector(2, v), "photon numbers", 0),
    _rule(
        "FockSector.index",
        lambda v: FockSector(2, 2).index((1, v)),
        "photon numbers",
        0,
    ),
    _rule("as_occupation", lambda v: as_occupation((1, v)), "photon numbers", 0),
    _rule(
        "fock_amplitude",
        lambda v: fock_amplitude(_haar(2), (1, 0), (0, v)),
        "photon numbers",
        0,
    ),
    _rule("lift_to_sector", lambda v: lift_to_sector(_haar(3), v), "photon numbers", 0),
    _rule("haar_unitary", _haar, "dimensions", 1),
    _rule(
        "ConditionalScheme.system_modes",
        lambda v: ConditionalScheme(v, 1, (1,), ((1,),)),
        "system mode counts",
        1,
    ),
    _rule(
        "ConditionalScheme.ancilla_modes",
        lambda v: ConditionalScheme(1, v, (1,), ((1,),)),
        "ancilla mode counts",
        0,
    ),
    _rule(
        "ConditionalScheme.ancilla_input",
        lambda v: ConditionalScheme(1, 1, (v,), ((1,),)),
        "photon numbers",
        0,
    ),
    _rule(
        "ConditionalScheme.outcomes",
        lambda v: ConditionalScheme(1, 1, (1,), ((v,),)),
        "photon numbers",
        0,
    ),
    _rule(
        "ConditionalScheme.system_photons",
        lambda v: ConditionalScheme(1, 1, (1,), ((1,),), (0, v)),
        "photon numbers",
        0,
    ),
    _rule(
        "one_photon.ancilla_modes",
        lambda v: ConditionalScheme.one_photon(v, 0, (0,)),
        "ancilla mode counts",
        1,
    ),
    _rule(
        "one_photon.input_mode",
        lambda v: ConditionalScheme.one_photon(3, v, (0,)),
        "input mode indices",
        0,
        2,
    ),
    _rule(
        "one_photon.accept_modes",
        lambda v: ConditionalScheme.one_photon(3, 0, (v,)),
        "accepted mode indices",
        0,
        2,
    ),
    _rule(
        "kraus_operator",
        lambda v: kraus_operator(_SCHEME, _haar(3), (v, 0)),
        "photon numbers",
        0,
    ),
    _rule(
        "decompose_by_ancilla_count",
        lambda v: decompose_by_ancilla_count(np.eye(6)[0], FockSector(3, 2), v),
        "system mode counts",
        1,
        2,
    ),
    _rule(
        "generalized_design",
        lambda v: generalized_design(0.5, [0.5], v),
        "mode counts",
        2,
    ),
    _rule(
        "complete_design",
        lambda v: complete_design(GeneralizedDesign(_PARTIAL, (1,)), v),
        "max_extra_modes",
        0,
    ),
    _rule(
        "ancilla_block",
        lambda v: ancilla_block(v, _haar(2)),
        "system mode counts",
        0,
    ),
    _rule("scan_curve", scan_curve, "grid sizes", 2),
    _rule("sample_region", sample_region, "grid sizes", 2),
    _rule(
        "numeric_search.total_modes",
        lambda v: numeric_search(v, 1, 0, 0),
        "mode counts",
        3,
    ),
    _rule("numeric_search.rank_s", lambda v: numeric_search(4, v, 0, 0), "ranks", 1, 3),
    _rule(
        "numeric_search.restarts",
        lambda v: numeric_search(4, 1, v, 0),
        "restart counts",
        0,
    ),
    _rule("numeric_search.seed", lambda v: numeric_search(4, 1, 0, v), "seeds", 0),
    _rule("NsDesign", lambda v: NsDesign(_KLM, (v,)), "accepted modes", 1, 2),
    _rule(
        "GeneralizedDesign",
        lambda v: GeneralizedDesign(_PARTIAL, (v,)),
        "accepted modes",
        1,
        2,
    ),
]


def _refusals(what, low, high):
    """(value, message) of each value the rule must refuse."""
    if high is not None:
        span = f"in {low}..{high}"
    else:
        span = "non-negative" if low == 0 else f"at least {low}"
    # Just below the floor and further below it, and just above a top end.
    outside = [low - 1, low - 5] + ([] if high is None else [high + 1])
    return [(v, f"{what} must be {span}, got {v}") for v in outside] + [
        (v, f"{what} must be integers, got {v!r}") for v in (1.5, 2.0, "2")
    ]


@pytest.mark.parametrize("call, what, low, high", RULES)
def test_every_integer_argument_follows_the_rule(call, what, low, high):
    for value, message in _refusals(what, low, high):
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == message


@pytest.mark.parametrize("call, what, low, high", RULES)
def test_range_ends_pass_as_numpy_integers(call, what, low, high):
    # Both ends of each range pass the rule, as numpy integers: any error
    # they meet later is not the rule's.
    for value in {low, low + 1 if high is None else high}:
        try:
            call(np.int64(value))
        except ValueError as err:
            assert not str(err).startswith(f"{what} must be"), err


def test_search_refuses_before_importing_scipy():
    # numeric_search's four arguments, each in turn, through every refusal
    # of the table, in a fresh interpreter: none may import scipy.
    bad = []
    for i, param in enumerate(p for p in RULES if p.id.startswith("numeric_search.")):
        _, what, low, high = param.values
        for value, _ in _refusals(what, low, high):
            args = [4, 1, 0, 0]
            args[i] = value
            bad.append(args)
    assert len(bad) == 21
    script = f"""
import sys
from nsgate import numeric_search
for args in {bad!r}:
    try:
        numeric_search(*args)
    except ValueError:
        continue
    raise SystemExit(f"numeric_search{{tuple(args)}} was not refused")
assert "scipy" not in sys.modules, "scipy was imported before the refusals"
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: as_occupation(5), "occupations"),
        (lambda: kraus_operator(_SCHEME, _haar(3), 5), "outcomes"),
        (lambda: SystemBasis(2, [0, 1]).index(3), "occupations"),
        (lambda: ConditionalScheme(1, 1, (1,), outcomes=(1,)), "outcomes"),
        (lambda: ConditionalScheme(1, 1, 1, outcomes=((1,),)), "ancilla inputs"),
    ],
    ids=["as_occupation", "kraus_operator", "index", "outcomes", "ancilla_input"],
)
def test_occupation_that_is_not_a_sequence_is_a_value_error(call, what):
    # Not a TypeError from iterating an int: an occupation is refused in
    # the sequence rule's words, naming the argument.
    with pytest.raises(ValueError) as err:
        call()
    expected = rf"{what} must be sequences of photon numbers, got \d"
    assert re.fullmatch(expected, str(err.value))
