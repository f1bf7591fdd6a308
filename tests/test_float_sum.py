"""Saved bytes must not depend on how the interpreter's builtin ``sum()`` adds floats.

Up to Python 3.11 ``sum()`` adds floats left to right, rounding after each
addition; from 3.12 it compensates rounding (Neumaier).  Every float that
reaches an output file is added with ``model.left_sum`` instead, so the
bytes are the same on every Python the package accepts.  The test below
swaps the 3.12 behaviour into the modules that compute those floats and
requires the CLI to write the same files as an unpatched run.
"""

from __future__ import annotations

import builtins
import math
from pathlib import Path
from unittest import mock

import pytest

from agorank import agents, cli, dataio, metrics
from agorank.model import left_sum


def _neumaier_sum(iterable, start=0):
    """``sum()`` as Python 3.12 adds: exact for ints, compensated for floats."""
    values = list(iterable)
    if isinstance(start, int) and all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    total = float(start)
    compensation = 0.0
    for v in values:
        v = float(v)
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_left_sum_rounds_after_each_addition():
    assert left_sum([]) == 0.0
    assert left_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3
    # a compensated sum recovers the 1.0 that left-to-right rounding loses
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert _neumaier_sum([1e16, 1.0, -1e16]) == 1.0


def _run_and_save(scenario: str, out: Path) -> dict[str, bytes]:
    out.mkdir()
    argv = [
        "run",
        "--scenario", scenario,
        "--out", str(out / "run"),
        "--save-outcomes", str(out / "run.outcomes.json"),
    ]
    assert cli.main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("scenario", ["builtin:tourism", "builtin:synthetic-200"])
def test_saved_bytes_do_not_depend_on_builtin_sum(scenario, tmp_path):
    expected = _run_and_save(scenario, tmp_path / "plain")
    with mock.patch.object(metrics, "sum", _neumaier_sum, create=True), mock.patch.object(
        agents, "sum", _neumaier_sum, create=True
    ), mock.patch.object(dataio, "sum", _neumaier_sum, create=True):
        got = _run_and_save(scenario, tmp_path / "compensated")
    assert list(got) == list(expected)
    for name in expected:
        assert got[name] == expected[name], name
