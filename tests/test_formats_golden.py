"""Byte-level freezes of every serialized artifact the package emits.

A failure here means an on-disk format changed. If the change is intended,
regenerate the golden copies with AGORANK_REGEN_GOLDEN=1 and review the diff.
"""

import json
import os
from pathlib import Path

import pytest

from agorank.adapter import build_request, mock_serve
from agorank.agents import AgentObjective, AgentSpec
from agorank.dataio import (
    PersonaParams,
    export_catalog,
    generate_catalog,
    generate_synthetic,
    save_outcomes,
    write_report,
)
from agorank.metrics import MetricId, build_report
from agorank.model import Constraint, Query, StakeholderRole
from agorank.orchestrator import run_stream

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("AGORANK_REGEN_GOLDEN") == "1"


def check_bytes(name: str, data: bytes) -> None:
    path = GOLDEN_DIR / name
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_bytes(data)
        return
    assert path.exists(), (
        f"golden file {name} is missing; create it with AGORANK_REGEN_GOLDEN=1"
    )
    assert data == path.read_bytes(), (
        f"{name} drifted from its golden copy; if the format change is "
        "intended, regenerate with AGORANK_REGEN_GOLDEN=1"
    )


@pytest.fixture(scope="module")
def tourism_run(tourism, tmp_path_factory):
    outcomes, _ = run_stream(
        tourism.queries, tourism.agents, tourism.catalog, tourism.policy,
        tourism.rule_config,
    )
    report = build_report(outcomes, tourism.agents, tourism.catalog)
    prefix = tmp_path_factory.mktemp("golden_run") / "tourism_borda"
    files = write_report({"borda": (report, outcomes)}, prefix, tourism.name)
    return outcomes, files


def test_report_json_frozen(tourism_run):
    _, files = tourism_run
    check_bytes("tourism_borda.report.json", files[0].read_bytes())


def test_metrics_csv_frozen(tourism_run):
    _, files = tourism_run
    check_bytes("tourism_borda.metrics.csv", files[1].read_bytes())


def test_summary_md_frozen(tourism_run):
    _, files = tourism_run
    check_bytes("tourism_borda.summary.md", files[2].read_bytes())


def test_saved_outcomes_frozen(tourism, tourism_run, tmp_path):
    outcomes, _ = tourism_run
    path = tmp_path / "outcomes.json"
    save_outcomes(outcomes, tourism.catalog, path, tourism.name, "borda")
    check_bytes("tourism_borda.outcomes.json", path.read_bytes())


def test_synthetic_catalog_frozen(tmp_path):
    # pins the portable PRNG draw chain: any change to the generator's
    # constants or draw order shows up here
    catalog = generate_catalog(item_count=8, provider_count=3, seed=0)
    path = tmp_path / "catalog.json"
    export_catalog(catalog, path)
    check_bytes("synthetic_catalog_sample.json", path.read_bytes())


def test_synthetic_queries_frozen():
    personas = [
        PersonaParams(
            persona_text="coastal walker",
            category_weights={"beach": 1.0, "nature": 0.6},
            constraint_templates=(Constraint("price", "<=", 80.0),),
            query_count=3,
            top_n=3,
        ),
        PersonaParams(
            persona_text="museum regular",
            category_weights={"museum": 0.9},
            query_count=2,
        ),
    ]
    catalog = generate_catalog(item_count=8, provider_count=3, seed=0)
    queries = generate_synthetic(personas, catalog, seed=11)
    payload = [
        {
            "id": q.id,
            "text": q.text,
            "preference_weights": dict(q.preference_weights),
            "constraints": [
                {"attribute": c.attribute, "direction": c.direction, "value": c.value}
                for c in q.constraints
            ],
            "top_n": q.top_n,
        }
        for q in queries
    ]
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    check_bytes("synthetic_queries_sample.json", data)


def test_adapter_wire_frozen(tourism):
    spec = AgentSpec(
        agent_id="external",
        role=StakeholderRole.THIRD_PARTY,
        objective=AgentObjective.EXTERNAL,
        objective_metric=MetricId.NDCG,
        objective_target=0.5,
        params={"persona": "independent reviewer"},
    )
    query = Query(
        id="wire-1",
        text="a quiet afternoon",
        preference_weights={"culture": 1.0},
        top_n=3,
    )
    request = build_request(spec, query, tourism.catalog, 6)
    check_bytes("adapter_request.json", request)
    check_bytes("adapter_response.json", mock_serve(request))
