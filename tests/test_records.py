"""Record arguments, fock._typed: the Typed rows of the argument table in
test_arguments.py."""

import pytest
from test_arguments import FIELDS, Typed, assert_refused, rows_of


@pytest.mark.parametrize(FIELDS, rows_of(Typed))
def test_every_record_argument_follows_the_rule(name, call, valid, rule, extra):
    call(valid)
    assert_refused(call, rule.refusals(name, valid) + list(extra))
