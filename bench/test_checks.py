"""The benchmark's checks must be able to fail.

    python3 -m pytest -q bench

A correct sweep report passes; the same report with one row corrupted
counts as one failed command.
"""

import sys

import pytest

from proc import SRC

sys.path.insert(0, str(SRC))

from cosmetic.engine import run_enumeration  # noqa: E402
from cosmetic.report import emit_report  # noqa: E402

from checks import check  # noqa: E402
from run import Tally  # noqa: E402
from workloads import Sweep  # noqa: E402

SWEEP = Sweep(tuple(range(1, 9)), 40_000, 40_039, "all", "csv", 1)


def _report(fmt):
    result = run_enumeration(SWEEP.p_values, SWEEP.q_values)
    return emit_report(result, fmt)


def _flip_first_survivor(fmt, text):
    if fmt == "csv":
        return text.replace(",yes,", ",no,", 1)
    return text.replace('"surviving": true', '"surviving": false', 1)


def _shift_a_q(fmt, text):
    if fmt == "csv":
        return text.replace("\n1,40001,", "\n1,40002,", 1)
    return text.replace('"q": 40001', '"q": 40002', 1)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_correct_report_passes(fmt):
    sweep = Sweep(SWEEP.p_values, SWEEP.q_lo, SWEEP.q_hi, "all", fmt, 1)
    assert check(sweep.commands()[0], 0, _report(fmt)) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("corrupt", [_flip_first_survivor, _shift_a_q])
def test_one_corrupted_row_counts_as_failed(fmt, corrupt):
    sweep = Sweep(SWEEP.p_values, SWEEP.q_lo, SWEEP.q_hi, "all", fmt, 1)
    args = sweep.commands()[0]
    good = _report(fmt)
    bad = corrupt(fmt, good)
    assert bad != good
    tally = Tally()
    tally.add(args, check(args, 0, good))
    tally.add(args, check(args, 0, bad))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_nonzero_exit_counts_as_failed():
    args = SWEEP.commands()[0]
    assert check(args, 2, _report("csv")) == ["exit code 2"]
