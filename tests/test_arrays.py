"""Array arguments, fock._entries: the Entries rows of the argument table in
test_arguments.py, each under its owner's name."""

import numpy as np
import pytest
from test_arguments import FIELDS, Entries, assert_refused, rows_of

import nsgate

OWNERS = rows_of(Entries, lambda name: name.rpartition(".")[0])


@pytest.mark.parametrize(FIELDS, OWNERS)
def test_every_array_argument_follows_the_rule(name, call, valid, rule, extra):
    assert_refused(call, rule.refusals(name, valid) + list(extra))


@pytest.mark.parametrize(FIELDS, OWNERS)
def test_valid_value_passes(name, call, valid, rule, extra):
    # As an array and as nested lists.
    for value in rule.forms(valid):
        call(value)


def _is_field(row):
    # An array field of a record: its owner is a class.
    owner = getattr(nsgate, row.values[0].rpartition(".")[0], None)
    return isinstance(owner, type)


@pytest.mark.parametrize(FIELDS, filter(_is_field, OWNERS))
def test_records_hold_a_frozen_complex_copy(name, call, valid, rule, extra):
    # The record neither aliases nor freezes the caller's array.
    given = valid.copy()
    held = getattr(call(given), name.split(".")[-1])
    assert held.dtype == complex and not held.flags.writeable
    assert given.flags.writeable and not np.shares_memory(given, held)
    assert np.array_equal(held, valid)
