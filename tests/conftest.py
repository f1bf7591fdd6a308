"""Shared fixtures plus the acceptance-criteria summary printed after a run."""

import re

import pytest

from agorank import dataio

CRITERIA = {
    1: "voting-rule oracle equivalence on all 216 three-agent profiles",
    2: "Kemeny exact optimality on 200 random weighted profiles",
    3: "Condorcet consistency (Copeland, Ranked Pairs) on 1000 profiles",
    4: "axiom suite (anonymity, neutrality, unanimity, weight removal)",
    5: "metric identities",
    6: "activation state machine sequence",
    7: "end-to-end grounding and reliability penalty",
    8: "byte-identical CLI runs under different string hash seeds",
    9: "leave-one-out influence sanity",
    10: "desk-scale performance budget",
    11: "directional fairness check on the synthetic scenario",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion(\d+)")


@pytest.fixture(scope="session")
def tourism():
    return dataio.load_scenario("builtin:tourism")


@pytest.fixture(scope="session")
def synthetic_200():
    return dataio.load_scenario("builtin:synthetic-200")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}

    def record(report, outcome):
        match = _PATTERN.search(getattr(report, "nodeid", ""))
        if not match:
            return
        n = int(match.group(1))
        if outcome == "FAIL" or n not in results:
            results[n] = outcome

    for report in terminalreporter.stats.get("passed", []):
        record(report, "PASS")
    for report in terminalreporter.stats.get("failed", []):
        record(report, "FAIL")
    for report in terminalreporter.stats.get("error", []):
        record(report, "FAIL")
    for report in terminalreporter.stats.get("skipped", []):
        record(report, "SKIP")

    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in sorted(CRITERIA):
        outcome = results.get(n, "NOT RUN")
        terminalreporter.write_line(f"criterion {n:>2}: {outcome:<7} {CRITERIA[n]}")
