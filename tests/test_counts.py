"""Integer arguments, fock._count: the Count rows of the argument table in
test_arguments.py, and the entries of its Counts rows.

Every integer is a Python or numpy integer in a range, and anything else is
one ValueError naming the argument, the range and the value.  A float is
refused even when it is integral: 2.0 is not read as 2, nor is "2".
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_arguments import FIELDS, TABLE, Count, Counts, assert_refused, rows_of

SRC = Path(__file__).resolve().parents[1] / "src"

# This file's ids, which name an argument by its owner alone where the
# owner has one integer argument: {owner.param: id}.
IDS = {
    "SystemBasis.photon_sectors": "SystemBasis.sectors",
    "SystemBasis.index.occ": "SystemBasis.index",
    "fock_amplitude.out_occ": "fock_amplitude",
    "kraus_operator.outcome": "kraus_operator",
    "NsDesign.accept_modes": "NsDesign",
    "GeneralizedDesign.accept_modes": "GeneralizedDesign",
    "lift_to_sector.photons": "lift_to_sector",
    "haar_unitary.dim": "haar_unitary",
    "decompose_by_ancilla_count.system_modes": "decompose_by_ancilla_count",
    "generalized_design.total_modes": "generalized_design",
    "complete_design.max_extra_modes": "complete_design",
    "ancilla_block.system_modes": "ancilla_block",
    "scan_curve.grid_n": "scan_curve",
    "sample_region.grid_n": "sample_region",
}
ROWS = rows_of((Count, Counts), lambda name: IDS.get(
    name, name.replace("ConditionalScheme.one_photon", "one_photon")
))


@pytest.mark.parametrize(FIELDS, ROWS)
def test_every_integer_argument_follows_the_rule(name, call, valid, rule, extra):
    if isinstance(rule, Counts):  # at its last entry
        assert_refused(call, rule.entries(valid))
    else:
        assert_refused(call, rule.refusals(name, valid) + list(extra))


@pytest.mark.parametrize(FIELDS, ROWS)
def test_range_ends_pass_as_numpy_integers(name, call, valid, rule, extra):
    # The valid value passes as a numpy integer, and both ends of the range
    # pass the rule: any error they meet later is not in its words.
    counts = isinstance(rule, Counts)
    ends = rule.ends(valid) if counts else rule.forms(valid)
    for value in ends:
        try:
            call(value)
        except ValueError as err:
            assert value is not ends[0], err
            assert not str(err).startswith(f"{rule.of if counts else rule.what} must be")


def test_search_refuses_before_importing_scipy():
    # numeric_search's four arguments, each in turn, through every refusal
    # of the table, in a fresh interpreter: none may import scipy.
    bad = []
    for i, param in enumerate(("total_modes", "rank_s", "restarts", "seed")):
        rule = TABLE[f"numeric_search.{param}"][2]
        for value, _ in rule.refusals(param, None):
            args = [4, 1, 0, 0]
            args[i] = value
            bad.append(args)
    assert len(bad) == 29
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
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
