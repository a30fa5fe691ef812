"""Sequence arguments, fock._counts: the Counts rows of the argument table
in test_arguments.py.

A value that is not a sequence, or not of the length the call needs, is one
ValueError naming the argument and the value; its entries are integers,
whose refusals test_counts.py runs.
"""

import pytest
from test_arguments import FIELDS, Counts, assert_refused, rows_of

# This file's ids, which name an argument by its owner alone where the
# owner has one sequence argument: {owner.param: id}.
IDS = {
    "SystemBasis.index.occ": "SystemBasis.index",
    "kraus_operator.outcome": "kraus_operator",
    "NsDesign.accept_modes": "NsDesign",
    "GeneralizedDesign.accept_modes": "GeneralizedDesign",
    "ConditionalScheme.one_photon.accept_modes": "one_photon.accept_modes",
}
ROWS = rows_of(Counts, lambda name: IDS.get(name, name))


@pytest.mark.parametrize(FIELDS, ROWS)
def test_every_sequence_argument_follows_the_rule(name, call, valid, rule, extra):
    assert_refused(call, rule.refusals(name, valid) + list(extra))


@pytest.mark.parametrize(FIELDS, ROWS)
def test_accepted_value_passes_as_any_sequence(name, call, valid, rule, extra):
    # As a tuple, a list and a numpy array.
    for value in rule.forms(valid):
        call(value)
