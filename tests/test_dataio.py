import hashlib
import json
import string
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agorank import dataio
from agorank.aggregation import Rule
from agorank.dataio import (
    CATALOG_SEED_GAMMA,
    LCG_INC,
    LCG_MULT,
    PersonaParams,
    PortableRng,
    catalog_hash,
    export_catalog,
    generate_catalog,
    generate_synthetic,
    load_catalog,
    load_interactions,
    load_outcomes,
    load_scenario,
    save_outcomes,
    write_report,
)
from agorank.errors import (
    DuplicateItemId,
    MalformedRecord,
    MissingRequiredField,
    SchemaError,
    UnknownMetricId,
    UnknownRule,
)
from agorank.metrics import build_report
from agorank.model import AggregateResult, Catalog, Constraint, Item, Query, TieEvent
from agorank.orchestrator import ActivationMode, QueryOutcome, run_stream

CSV_HEADER = "id,provider_id,categories,popularity,sustainability,description\n"


class TestPortableRng:
    def test_state_transition(self):
        rng = PortableRng(12345)
        expected = (12345 * LCG_MULT + LCG_INC) & ((1 << 64) - 1)
        assert rng.next_u64() == expected

    def test_uniform_range(self):
        rng = PortableRng(7)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # crude spread check; a broken generator collapses
        assert max(draws) > 0.9
        assert min(draws) < 0.1

    def test_same_seed_same_stream(self):
        a = [PortableRng(3).uniform() for _ in range(5)]
        b = [PortableRng(3).uniform() for _ in range(5)]
        assert a == b

    def test_seed_masked_to_64_bits(self):
        assert PortableRng(1 << 70).state == 0


class TestLoadCatalogCsv:
    def write(self, tmp_path, body, name="catalog.csv"):
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        return path

    def test_roundtrip_fields(self, tmp_path):
        path = self.write(
            tmp_path,
            CSV_HEADER + "i1,p1,beach;nature,0.2,0.9,quiet cove\n",
        )
        catalog = load_catalog(path)
        item = catalog["i1"]
        assert item.provider_id == "p1"
        assert item.categories == frozenset({"beach", "nature"})
        assert item.popularity == 0.2
        assert item.sustainability == 0.9
        assert item.description == "quiet cove"

    def test_defaults_for_blank_scores(self, tmp_path):
        path = self.write(tmp_path, CSV_HEADER + "i1,p1,,,,\n")
        item = load_catalog(path)["i1"]
        assert item.popularity == 0.5
        assert item.sustainability == 0.5
        assert item.categories == frozenset()

    def test_missing_id(self, tmp_path):
        path = self.write(tmp_path, CSV_HEADER + ",p1,,0.5,0.5,\n")
        with pytest.raises(MissingRequiredField, match="line 2"):
            load_catalog(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = self.write(
            tmp_path, CSV_HEADER + "i1,p1,,0.5,0.5,\ni2,p1,,abc,0.5,\n"
        )
        with pytest.raises(MalformedRecord) as err:
            load_catalog(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("cell, value", [("0.25", 0.25), ("1", 1.0), ("1e-1", 0.1)])
    def test_number_cells_parse(self, tmp_path, cell, value):
        path = self.write(tmp_path, CSV_HEADER + f"i1,p1,,{cell},{cell},\n")
        item = load_catalog(path)["i1"]
        assert (item.popularity, item.sustainability) == (value, value)

    def test_out_of_range_popularity(self, tmp_path):
        path = self.write(tmp_path, CSV_HEADER + "i1,p1,,1.5,0.5,\n")
        with pytest.raises(MalformedRecord):
            load_catalog(path)

    def test_missing_columns(self, tmp_path):
        path = self.write(tmp_path, "id,categories\ni1,beach\n")
        with pytest.raises(MalformedRecord, match="provider_id"):
            load_catalog(path)

    def test_duplicate_id(self, tmp_path):
        path = self.write(
            tmp_path, CSV_HEADER + "i1,p1,,0.5,0.5,\ni1,p2,,0.5,0.5,\n"
        )
        with pytest.raises(DuplicateItemId):
            load_catalog(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(MalformedRecord):
            load_catalog(path)

    def test_non_utf8_reports_line(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_bytes((CSV_HEADER + "i1,p1,,0.5,0.5,\ni2,p1,,0.5,0.5,caf\xe9\n").encode("latin-1"))
        with pytest.raises(MalformedRecord, match="not UTF-8") as err:
            load_catalog(path)
        assert err.value.line == 3


class TestLoadCatalogJson:
    def test_attributes_carried(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "id": "i1",
                        "provider_id": "p1",
                        "categories": ["food"],
                        "popularity": 0.3,
                        "sustainability": 0.4,
                        "attributes": {"price": 25.0},
                    }
                ]
            ),
            encoding="utf-8",
        )
        item = load_catalog(path)["i1"]
        assert item.attributes == {"price": 25.0}

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_catalog(path)

    def test_missing_provider(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"id": "i1"}]), encoding="utf-8")
        with pytest.raises(MissingRequiredField):
            load_catalog(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("categories", "beach;food"),
            ("categories", ["beach", 3]),
            ("attributes", ["price"]),
            ("attributes", {"price": "cheap"}),
            ("id", 7),
            ("provider_id", ["p1"]),
            ("description", None),
        ],
    )
    def test_mistyped_field_names_item(self, tmp_path, field, value):
        good = {"id": "i0", "provider_id": "p1"}
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps([good, {"id": "i1", "provider_id": "p1", field: value}]),
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecord, match=rf"^item 1: {field}"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("popularity", True),
            ("popularity", "0.25"),
            ("popularity", None),
            ("sustainability", False),
            ("sustainability", "0.25"),
        ],
    )
    def test_score_must_be_a_number(self, tmp_path, field, value):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps([{"id": "i0", "provider_id": "p1"},
                        {"id": "i1", "provider_id": "p1", field: value}]),
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecord, match=rf"^item 1: {field}: expected a number$"):
            load_catalog(path)


class TestExportCatalog:
    CATALOG = Catalog(
        [
            Item(id="i1", provider_id="p1", categories=frozenset({"beach"}),
                 popularity=0.1234567, sustainability=0.9,
                 attributes={"price": 42.5}, description="x"),
            Item(id="i2", provider_id="p2"),
        ]
    )

    def test_csv_roundtrip_preserves_floats(self, tmp_path):
        path = tmp_path / "out.csv"
        export_catalog(self.CATALOG, path)
        loaded = load_catalog(path)
        assert loaded["i1"].popularity == self.CATALOG["i1"].popularity
        assert loaded.ids == self.CATALOG.ids

    def test_json_roundtrip_keeps_attributes(self, tmp_path):
        path = tmp_path / "out.json"
        export_catalog(self.CATALOG, path)
        loaded = load_catalog(path)
        assert loaded["i1"].attributes == {"price": 42.5}
        assert catalog_hash(loaded) == catalog_hash(self.CATALOG)


class TestLoadInteractions:
    CATALOG = Catalog([Item(id="i1", provider_id="p"), Item(id="i2", provider_id="p")])
    HEADER = "user_id,item_id,rating,timestamp\n"

    def write(self, tmp_path, rows):
        path = tmp_path / "interactions.csv"
        path.write_text(self.HEADER + rows, encoding="utf-8")
        return path

    def test_sorted_by_timestamp(self, tmp_path):
        path = self.write(
            tmp_path,
            "u1,i2,4.0,2024-02-01T10:00:00\n"
            "u1,i1,5.0,2024-01-01T10:00:00\n",
        )
        per_user = load_interactions(path, self.CATALOG)
        assert [item for item, _, _ in per_user["u1"]] == ["i1", "i2"]

    def test_unknown_items_dropped_and_logged(self, tmp_path, caplog):
        path = self.write(
            tmp_path,
            "u1,i1,5.0,2024-01-01T10:00:00\n"
            "u1,ghost,3.0,2024-01-02T10:00:00\n",
        )
        with caplog.at_level("WARNING", logger="agorank"):
            per_user = load_interactions(path, self.CATALOG)
        assert len(per_user["u1"]) == 1
        assert "1" in caplog.text

    def test_bad_rating(self, tmp_path):
        path = self.write(tmp_path, "u1,i1,notanumber,2024-01-01T10:00:00\n")
        with pytest.raises(MalformedRecord):
            load_interactions(path, self.CATALOG)

    def test_bad_timestamp(self, tmp_path):
        path = self.write(tmp_path, "u1,i1,5.0,yesterday\n")
        with pytest.raises(MalformedRecord):
            load_interactions(path, self.CATALOG)

    def test_missing_user(self, tmp_path):
        path = self.write(tmp_path, ",i1,5.0,2024-01-01T10:00:00\n")
        with pytest.raises(MalformedRecord):
            load_interactions(path, self.CATALOG)

    def test_short_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "u1,i1,5.0,2024-01-01T10:00:00\nu1,i2\n")
        with pytest.raises(MalformedRecord) as err:
            load_interactions(path, self.CATALOG)
        assert err.value.line == 3

    def test_non_utf8_reports_line(self, tmp_path):
        path = tmp_path / "interactions.csv"
        path.write_bytes(self.HEADER.encode() + b"u\xff,i1,5.0,2024-01-01T10:00:00\n")
        with pytest.raises(MalformedRecord, match="not UTF-8") as err:
            load_interactions(path, self.CATALOG)
        assert err.value.line == 2


class TestGenerateCatalog:
    def test_deterministic(self):
        a = generate_catalog(item_count=30, provider_count=5, seed=9)
        b = generate_catalog(item_count=30, provider_count=5, seed=9)
        assert catalog_hash(a) == catalog_hash(b)

    def test_seed_changes_content(self):
        a = generate_catalog(item_count=30, provider_count=5, seed=9)
        b = generate_catalog(item_count=30, provider_count=5, seed=10)
        assert catalog_hash(a) != catalog_hash(b)

    def test_shape(self):
        catalog = generate_catalog(item_count=30, provider_count=5, seed=0)
        assert len(catalog) == 30
        assert catalog.providers == tuple(f"provider-0{i}" for i in range(5))
        assert "item-000" in catalog
        for item in catalog.items_sorted():
            assert 0.0 <= item.popularity <= 1.0
            assert 0.0 <= item.sustainability <= 1.0
            assert "price" in item.attributes
            assert 1 <= len(item.categories) <= 2

    def test_round_robin_providers(self):
        catalog = generate_catalog(item_count=10, provider_count=3, seed=0)
        assert catalog.provider_of("item-000") == "provider-00"
        assert catalog.provider_of("item-004") == "provider-01"

    def test_popularity_skews_low(self):
        # squared uniform: most items sit in the unpopular tail
        catalog = generate_catalog(item_count=300, provider_count=10, seed=1)
        pops = [item.popularity for item in catalog.items_sorted()]
        below = sum(1 for p in pops if p < 0.5)
        assert below > len(pops) * 0.6

    def test_seed_gamma_decorrelates_catalog_from_queries(self):
        # the catalog stream must not replay the query stream
        assert PortableRng(5 ^ CATALOG_SEED_GAMMA).uniform() != PortableRng(5).uniform()

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_catalog(item_count=0)
        with pytest.raises(ValueError):
            generate_catalog(categories=())


class TestGenerateSynthetic:
    CATALOG = generate_catalog(item_count=20, provider_count=4, seed=0)

    def personas(self):
        return [
            PersonaParams(
                persona_text="coastal walker",
                category_weights={"beach": 1.0, "nature": 0.6},
                query_count=3,
                top_n=4,
            ),
            PersonaParams(
                persona_text="museum goer",
                category_weights={"museum": 1.0},
                query_count=2,
            ),
        ]

    def test_counts_and_ids(self):
        queries = generate_synthetic(self.personas(), self.CATALOG, seed=3)
        assert [q.id for q in queries] == ["0-0", "0-1", "0-2", "1-0", "1-1"]
        assert queries[0].text == "coastal walker (request 0)"
        assert queries[0].top_n == 4
        assert queries[3].top_n == 5

    def test_deterministic(self):
        a = generate_synthetic(self.personas(), self.CATALOG, seed=3)
        b = generate_synthetic(self.personas(), self.CATALOG, seed=3)
        assert [(q.id, q.preference_weights) for q in a] == [
            (q.id, q.preference_weights) for q in b
        ]

    def test_noise_stays_nonnegative_and_close(self):
        queries = generate_synthetic(self.personas(), self.CATALOG, seed=3)
        for q in queries[:3]:
            assert q.preference_weights["beach"] == pytest.approx(1.0, abs=0.1)
            assert all(w >= 0.0 for w in q.preference_weights.values())

    def test_constraints_drawn_from_templates(self):
        persona = PersonaParams(
            persona_text="thrifty",
            category_weights={"food": 1.0},
            constraint_templates=(Constraint("price", "<=", 60.0),),
            query_count=40,
        )
        queries = generate_synthetic([persona], self.CATALOG, seed=3)
        with_constraint = [q for q in queries if q.constraints]
        assert 0 < len(with_constraint) < 40
        assert all(
            q.constraints[0].attribute == "price" for q in with_constraint
        )


def minimal_scenario_doc(**overrides):
    doc = {
        "name": "mini",
        "seed": 5,
        "catalog": "catalog.csv",
        "agents": [
            {
                "agent_id": "traveler",
                "role": "user",
                "objective": "relevance",
                "objective_metric": "ndcg",
                "objective_target": 0.9,
            }
        ],
        "rule": "borda",
        "queries": [
            {
                "id": "q1",
                "preference_weights": {"beach": 1.0},
                "user_history": ["i1"],
                "top_n": 2,
            }
        ],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def scenario_dir(tmp_path):
    (tmp_path / "catalog.csv").write_text(
        CSV_HEADER
        + "i1,p1,beach,0.2,0.9,\n"
        + "i2,p2,museum,0.6,0.5,\n"
        + "i3,p3,nature,0.4,0.7,\n",
        encoding="utf-8",
    )
    return tmp_path


def write_scenario(scenario_dir, doc):
    path = scenario_dir / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadScenario:
    def test_minimal(self, scenario_dir):
        path = write_scenario(scenario_dir, minimal_scenario_doc())
        scenario = load_scenario(path)
        assert scenario.name == "mini"
        assert scenario.seed == 5
        assert len(scenario.catalog) == 3
        assert scenario.agents[0].agent_id == "traveler"
        assert scenario.rule_config.rule is Rule.BORDA
        assert scenario.rule_config.seed == 5
        assert scenario.queries[0].top_n == 2

    def test_builtin_aliases(self, tourism, synthetic_200):
        assert tourism.name == "tourism"
        assert len(tourism.queries) == 4
        assert synthetic_200.name == "synthetic-200"
        assert len(synthetic_200.catalog) == 200
        assert len(synthetic_200.queries) == 100

    def test_unknown_builtin(self):
        with pytest.raises(SchemaError):
            load_scenario("builtin:nope")

    def test_rule_object_form(self, scenario_dir):
        doc = minimal_scenario_doc(
            rule={"name": "kemeny", "kemeny_exact_limit": 4, "seed": 77}
        )
        scenario = load_scenario(write_scenario(scenario_dir, doc))
        assert scenario.rule_config.rule is Rule.KEMENY
        assert scenario.rule_config.kemeny_exact_limit == 4
        assert scenario.rule_config.seed == 77

    def test_policy_parsed(self, scenario_dir):
        doc = minimal_scenario_doc(
            policy={"mode": "dynamic", "window": 4, "fairness_threshold": 0.2,
                    "compatibility_min": 0.3}
        )
        scenario = load_scenario(write_scenario(scenario_dir, doc))
        assert scenario.policy.mode is ActivationMode.DYNAMIC
        assert scenario.policy.window == 4

    def test_synthetic_catalog_block(self, scenario_dir):
        doc = minimal_scenario_doc(
            catalog={"synthetic": {"item_count": 12, "provider_count": 3}},
            queries=None,
            personas=[
                {
                    "persona_text": "wanderer",
                    "category_weights": {"nature": 1.0},
                    "query_count": 2,
                }
            ],
        )
        del doc["queries"]
        scenario = load_scenario(write_scenario(scenario_dir, doc))
        assert len(scenario.catalog) == 12
        assert len(scenario.queries) == 2
        assert scenario.catalog_source == "synthetic"

    def test_seed_override_regenerates(self, scenario_dir):
        doc = minimal_scenario_doc(
            catalog={"synthetic": {"item_count": 12, "provider_count": 3}},
        )
        del doc["queries"]
        doc["personas"] = [
            {
                "persona_text": "wanderer",
                "category_weights": {"nature": 1.0},
                "query_count": 2,
            }
        ]
        path = write_scenario(scenario_dir, doc)
        base = load_scenario(path)
        override = load_scenario(path, seed_override=99)
        assert override.seed == 99
        assert override.rule_config.seed == 99
        assert catalog_hash(base.catalog) != catalog_hash(override.catalog)

    @pytest.mark.parametrize(
        "mutate,error",
        [
            (lambda d: d.update(rule="plurality"), UnknownRule),
            (lambda d: d["agents"][0].update(objective_metric="magic"), UnknownMetricId),
            (lambda d: d["agents"][0].update(role="octopus"), SchemaError),
            (lambda d: d["agents"][0].update(objective_target=9.0), SchemaError),
            (lambda d: d.update(agents=[]), SchemaError),
            (lambda d: d["queries"][0].update(user_history=["ghost"]), SchemaError),
            (lambda d: d.update(personas=[]), SchemaError),
            (lambda d: d.pop("queries"), SchemaError),
            (lambda d: d.update(catalog=7), SchemaError),
            (lambda d: d.update(seed="five"), SchemaError),
        ],
    )
    def test_schema_violations(self, scenario_dir, mutate, error):
        doc = minimal_scenario_doc()
        mutate(doc)
        with pytest.raises(error):
            load_scenario(write_scenario(scenario_dir, doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_query_weight(self, scenario_dir, literal):
        # json.loads takes these literals, so the Query check must reject them
        text = json.dumps(minimal_scenario_doc()).replace('"beach": 1.0', f'"beach": {literal}')
        assert literal in text
        path = scenario_dir / "scenario.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=r"queries\[0\].*non-finite weight"):
            load_scenario(path)

    def test_duplicate_agent_ids(self, scenario_dir):
        doc = minimal_scenario_doc()
        doc["agents"].append(dict(doc["agents"][0]))
        with pytest.raises(SchemaError, match="duplicate"):
            load_scenario(write_scenario(scenario_dir, doc))

    def test_invalid_json(self, scenario_dir):
        path = scenario_dir / "scenario.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_scenario(path)

    def test_non_utf8(self, scenario_dir):
        path = write_scenario(scenario_dir, minimal_scenario_doc())
        data = path.read_bytes()
        path.write_bytes(data[:50] + b"\xff" + data[51:])
        with pytest.raises(SchemaError, match="not UTF-8"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_scenario(tmp_path / "absent.json")


def run_tourism(tourism):
    return run_stream(
        tourism.queries, tourism.agents, tourism.catalog, tourism.policy,
        tourism.rule_config,
    )


@pytest.fixture(scope="module")
def run(tourism):
    outcomes, _ = run_tourism(tourism)
    report = build_report(outcomes, tourism.agents, tourism.catalog)
    return {"borda": (report, outcomes)}


class TestWriteReport:
    def test_writes_three_files(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        names = sorted(p.name for p in paths)
        assert names == ["out.metrics.csv", "out.report.json", "out.summary.md"]
        for p in paths:
            assert p.exists()

    def test_byte_identical_on_rewrite(self, run, tmp_path):
        first = write_report(run, tmp_path / "a", "tourism")
        second = write_report(run, tmp_path / "b", "tourism")
        for fa, fb in zip(first, second):
            assert fa.read_bytes() == fb.read_bytes()

    def test_json_shape(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        payload = json.loads(paths[0].read_text(encoding="utf-8"))
        assert payload["scenario"] == "tourism"
        borda = payload["rules"]["borda"]
        assert set(borda) == {"aggregate", "drift", "per_query", "runtime_calls"}
        assert len(borda["per_query"]) == 4
        entry = borda["per_query"][0]
        assert entry["query_id"] == "q1"
        assert entry["rule"] == "borda"
        assert len(entry["final_list"]) == 3
        assert set(entry["regret"]) == {"traveler", "local-businesses",
                                        "community-ecology"}

    def test_floats_rounded_to_six(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        text = paths[0].read_text(encoding="utf-8")
        assert "-0.0," not in text

        def walk(node):
            if isinstance(node, float):
                assert node == round(node, 6)
            elif isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(json.loads(text))

    def test_csv_header_and_formatting(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        lines = paths[1].read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["rule", "query_index", "query_id"]
        assert "ndcg" in header
        assert "regret:traveler" in header
        assert "influence:traveler" in header
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "borda"
        assert first[1] == "0"
        assert first[2] == "q1"
        ndcg = first[header.index("ndcg")]
        assert len(ndcg.split(".")[1]) == 6

    def test_summary_mentions_rule_and_agents(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        text = paths[2].read_text(encoding="utf-8")
        assert "## Rule: borda" in text
        assert "traveler" in text
        assert "Regret drift" in text

    def test_no_file_when_a_builder_fails(self, run, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("summary failed")

        monkeypatch.setattr(dataio, "_summary_md", fail)
        with pytest.raises(RuntimeError, match="summary failed"):
            write_report(run, tmp_path / "out", "tourism")
        assert list(tmp_path.iterdir()) == []


class TestSavedOutcomes:
    def test_roundtrip_reproduces_report(self, tourism, tmp_path):
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        loaded, scenario_name, rule_name = load_outcomes(path, tourism.catalog)
        assert scenario_name == "tourism"
        assert rule_name == "borda"

        original = build_report(outcomes, tourism.agents, tourism.catalog)
        replayed = build_report(loaded, tourism.agents, tourism.catalog)
        assert replayed == original

    def test_hash_mismatch_rejected(self, tourism, tmp_path):
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        other = generate_catalog(item_count=5, provider_count=2, seed=1)
        with pytest.raises(SchemaError, match="hash"):
            load_outcomes(path, other)

    def test_malformed_file(self, tourism, tmp_path):
        path = tmp_path / "outcomes.json"
        path.write_text('{"catalog_hash": "x"}', encoding="utf-8")
        with pytest.raises(SchemaError):
            load_outcomes(path, tourism.catalog)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda o: o[0].update(final_list=["ghost"]),
             r"outcomes\[0\]\.final_list\[0\]: unknown item 'ghost'"),
            (lambda o: o[0].update(final_list=[1]), r"final_list\[0\]: expected a string"),
            (lambda o: o[0]["per_agent_regret"].update(traveler="x"),
             r"per_agent_regret\.traveler: expected a number"),
            (lambda o: o[0]["aggregate"]["influence"].update(traveler=None),
             r"aggregate\.influence\.traveler: expected a number"),
            (lambda o: o[0]["stage_calls"].update(aggregate=1.5),
             r"stage_calls\.aggregate: expected an integer"),
            (lambda o: o.clear(), "at least one outcome"),
        ],
        ids=["unknown-item", "non-string-item", "regret", "influence", "stage-calls", "empty"],
    )
    def test_report_fields_checked(self, tourism, tmp_path, mutate, message):
        # each of these reached build_report and failed there as an internal error
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        doc = json.loads(path.read_text(encoding="utf-8"))
        mutate(doc["outcomes"])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            load_outcomes(path, tourism.catalog)

    @pytest.mark.parametrize("field", ["scenario", "rule"])
    def test_unencodable_name_rejected(self, tourism, tmp_path, field):
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[field] = "bor\udc00da"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^{field}: not encodable as UTF-8"):
            load_outcomes(path, tourism.catalog)

    def test_equal_tie_events_shared_within_a_file_only(self, tourism, tmp_path):
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        doc = json.loads(path.read_text(encoding="utf-8"))
        tie = {"description": "a tie", "resolution": "by id"}
        for entry in doc["outcomes"]:
            entry["aggregate"]["tiebreak_trace"] = [dict(tie), dict(tie)]
        path.write_text(json.dumps(doc), encoding="utf-8")

        first = [e for o in load_outcomes(path, tourism.catalog)[0]
                 for e in o.aggregate.tiebreak_trace]
        second = [e for o in load_outcomes(path, tourism.catalog)[0]
                  for e in o.aggregate.tiebreak_trace]
        assert len(first) == 2 * len(outcomes)
        assert all(e == TieEvent("a tie", "by id") for e in first)
        assert all(e is first[0] for e in first)
        assert second[0] is not first[0]


class TestCatalogHash:
    def test_order_insensitive(self):
        items = [
            Item(id="a", provider_id="p1"),
            Item(id="b", provider_id="p2"),
        ]
        assert catalog_hash(Catalog(items)) == catalog_hash(Catalog(items[::-1]))

    def test_content_sensitive(self):
        a = Catalog([Item(id="a", provider_id="p1", popularity=0.5)])
        b = Catalog([Item(id="a", provider_id="p1", popularity=0.6)])
        assert catalog_hash(a) != catalog_hash(b)

    def test_description_sensitive(self):
        a = Catalog([Item(id="a", provider_id="p1", description="cove")])
        b = Catalog([Item(id="a", provider_id="p1", description="cave")])
        assert catalog_hash(a) != catalog_hash(b)

    def test_kept_per_catalog(self):
        catalog = generate_catalog(item_count=30, provider_count=4, seed=3)
        records = [dataio._item_to_obj(item) for item in catalog.items_sorted()]
        fresh = hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()
        with mock.patch.object(dataio, "_item_to_obj", wraps=dataio._item_to_obj) as encode:
            assert catalog_hash(catalog) == fresh
            assert catalog_hash(catalog) == fresh
            assert encode.call_count == len(catalog)
            twin = generate_catalog(item_count=30, provider_count=4, seed=3)
            assert catalog_hash(twin) == fresh
            assert encode.call_count == 2 * len(catalog)


# round trips through the one codec per record

_TEXT = st.text(string.ascii_letters + string.digits + " ,;\"'\n-é", max_size=12)
_NAME = st.text(string.ascii_lowercase + "-_", min_size=1, max_size=8)
_UNIT = st.floats(0.0, 1.0)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _items(draw, with_attributes):
    return Item(
        id=draw(st.text(string.ascii_letters + string.digits + "-_ ,é", min_size=1, max_size=8)),
        provider_id=draw(_NAME),
        categories=frozenset(draw(st.lists(_NAME, max_size=4))),
        popularity=draw(_UNIT),
        sustainability=draw(_UNIT),
        attributes=draw(st.dictionaries(_NAME, _FINITE, max_size=3)) if with_attributes else {},
        description=draw(_TEXT),
    )


def _catalogs(with_attributes):
    items = st.lists(_items(with_attributes), max_size=6, unique_by=lambda i: i.id)
    return items.map(Catalog)


_ROUNDTRIP = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_ROUNDTRIP
@given(catalog=_catalogs(with_attributes=True))
def test_catalog_json_roundtrip(tmp_path, catalog):
    path = tmp_path / "catalog.json"
    export_catalog(catalog, path)
    loaded = load_catalog(path)
    assert loaded.items_sorted() == catalog.items_sorted()
    assert catalog_hash(loaded) == catalog_hash(catalog)


@_ROUNDTRIP
@given(catalog=_catalogs(with_attributes=False))
def test_catalog_csv_roundtrip(tmp_path, catalog):
    path = tmp_path / "catalog.csv"
    export_catalog(catalog, path)
    loaded = load_catalog(path)
    assert loaded.items_sorted() == catalog.items_sorted()
    assert catalog_hash(loaded) == catalog_hash(catalog)


_HISTORY_CATALOG = Catalog([Item(id=f"h{i}", provider_id="p") for i in range(4)])


@st.composite
def _queries(draw):
    return Query(
        id=draw(_TEXT.filter(bool)),
        text=draw(_TEXT),
        preference_weights=draw(st.dictionaries(_NAME, st.floats(0.0, 10.0), max_size=4)),
        constraints=tuple(
            Constraint(draw(_NAME), draw(st.sampled_from(["<=", ">="])), draw(_FINITE))
            for _ in range(draw(st.integers(0, 3)))
        ),
        user_history=tuple(draw(st.lists(st.sampled_from(_HISTORY_CATALOG.ids), max_size=3))),
        top_n=draw(st.integers(1, 50)),
    )


@_ROUNDTRIP
@given(query=_queries())
def test_query_outcome_roundtrip(tmp_path, query):
    outcome = QueryOutcome(
        query_id=query.id,
        final_list=(),
        per_agent_ballots=(),
        aggregate=AggregateResult("borda", (), {}, (), {}),
        skipped_agents={},
        justifications={},
        query=query,
        per_agent_achieved={},
        per_agent_regret={},
        stage_calls={},
    )
    path = tmp_path / "outcomes.json"
    save_outcomes([outcome], _HISTORY_CATALOG, path, "s", "borda")
    loaded, _, _ = load_outcomes(path, _HISTORY_CATALOG)
    assert loaded[0].query == query
    assert loaded == [outcome]
