"""Coverage and repeatability of the benchmark's trace wrappers.

Run from the repository root:

    python3 -m pytest perfbench -q

Every workload is replayed twice under the tracer at the default seed, which
takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
from agorank import orchestrator  # noqa: E402

AGENT_CALLS = (
    "agents.generate_relevance.calls",
    "agents.generate_provider_exposure.calls",
    "agents.generate_popularity_mitigation.calls",
)
# .calls that must be above 0, per workload, where the layer is expected to work
EXPECTED_CALLS = {
    "rules-200": (
        "aggregation.pairwise_tally.calls",
        "aggregation.kemeny_distance.calls",
        "model.kendall_tau.calls",
        "metrics.relevance_map.calls",
        "dataio.catalog_hash.calls",
        *AGENT_CALLS,
    ),
    "council-2k": (
        "aggregation.pairwise_tally.calls",
        "model.kendall_tau.calls",
        "metrics.relevance_map.calls",
        "adapter.request_external.calls",
        "dataio.catalog_hash.calls",
        *AGENT_CALLS,
    ),
    "catalog-20k": (
        "model.kendall_tau.calls",
        "metrics.relevance_map.calls",
        "dataio.catalog_hash.calls",
        *AGENT_CALLS,
    ),
}
WORKLOAD_RULES = {
    "rules-200": bench.RULES,
    "council-2k": ("copeland",),
    "catalog-20k": ("borda",),
}


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def traced(request, tmp_path_factory):
    """Two traced replays of one workload at the default seed."""
    name = request.param
    out_dir = tmp_path_factory.mktemp(name)
    done = bench.replays(
        bench.WORKLOADS[name], bench.DEFAULT_SEED, out_dir, 2, tracer=tracing.Tracer()
    )
    return name, done


def test_expected_layers_do_work(traced):
    name, done = traced
    layers = done[0].layers
    idle = [m for m in EXPECTED_CALLS[name] if layers[m] <= 0]
    assert not idle, f"{name}: no calls recorded for {idle}"
    for rule in bench.RULES:
        ran = layers[f"aggregation.aggregate.{rule}.s"] > 0
        assert ran == (rule in WORKLOAD_RULES[name]), (name, rule)
    assert layers["metrics.evaluate_metric.monitor_s"] > 0
    assert layers["metrics.evaluate_metric.report_s"] > 0


def test_adapter_idle_outside_council(traced):
    name, done = traced
    adapter = {m: v for m, v in done[0].layers.items() if m.startswith("adapter.")}
    if name == "council-2k":
        assert adapter["adapter.request_external.failed"] == 0
        assert adapter["adapter.request_bytes"] > 0
    else:
        assert all(v == 0 for v in adapter.values()), adapter


def test_exact_counts_repeat(traced):
    _, (first, second) = traced
    for metric in bench.EXACT_LAYER_METRICS:
        assert first.layers[metric] == second.layers[metric], metric


def test_traced_bytes_match_recorded_digests(traced):
    name, done = traced
    recorded = json.loads(bench.DIGESTS.read_text(encoding="utf-8"))[name]
    for rep in done:
        assert rep.queries_failed == 0 and rep.checks_failed == 0
        assert rep.digests == recorded


def test_workloads_stress_what_they_claim(traced):
    name, done = traced
    layers = done[0].layers
    if name == "rules-200":
        assert layers["stream.aggregation_share"] >= 0.70
    if name == "catalog-20k":
        assert layers["stream.aggregation_share"] <= 0.05
        assert layers["stream.agents_metrics_share"] >= 0.80


def test_tracer_restores_module_attributes():
    original = orchestrator.process_query
    with tracing.installed(tracing.Tracer()):
        assert orchestrator.process_query is not original
    assert orchestrator.process_query is original


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rules-200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
