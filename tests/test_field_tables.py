"""The field tables that ``dataio`` decodes and encodes every JSON record
by, held against FORMATS.md, the record types and the files they describe.

The properties start from the tourism scenario (with an external agent and
the rule and policy written out in full), the synthetic-200 scenario and
outcomes saved from a tourism run.
"""

import copy
import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agorank import dataio
from agorank.errors import SchemaError
from agorank.model import Item
from agorank.orchestrator import QueryOutcome, run_stream

FORMATS = Path(__file__).resolve().parent.parent / "FORMATS.md"

# every field table in dataio, by name: a tuple of (key, check, default, arg) rows
TABLES = {
    name: table
    for name, table in vars(dataio).items()
    if isinstance(table, tuple)
    and table
    and all(
        isinstance(row, tuple) and len(row) == 4 and isinstance(row[0], str) and callable(row[1])
        for row in table
    )
}


def keys(table):
    return [row[0] for row in table]


def test_the_tables_are_found():
    assert {"_AGENT", "_QUERY", "_OUTCOME", "_BALLOT", "_ITEM"} <= set(TABLES)


# FORMATS.md

def documented_tables(text):
    """{table name: [(key cell, default cell)]} from each ``<!-- fields: NAME -->``
    marker and the markdown table that follows it."""
    tables = {}
    lines = text.splitlines()
    for n, line in enumerate(lines):
        marker = re.fullmatch(r"<!-- fields: (\w+) -->", line.strip())
        if not marker:
            continue
        rows = []
        for row in lines[n + 3 :]:  # past the header and the separator
            if not row.startswith("|"):
                break
            cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
            rows.append((cells[0].strip("`"), cells[1]))
        tables[marker.group(1)] = rows
    return tables


def default_mismatch(default, cell):
    """Why ``cell`` misstates ``default``, or None if it states it."""
    if default is dataio._REQUIRED:
        return None if cell == "required" else "the key is required"
    literal = re.fullmatch(r"`([^`]*)`", cell)
    if default is dataio._ABSENT:
        return "an absent key has no default" if cell == "required" or literal else None
    try:
        stated = json.dumps(json.loads(literal.group(1))) if literal else None
    except ValueError:
        stated = None
    return None if stated == json.dumps(default) else f"the default is {json.dumps(default)}"


def formats_faults(text):
    documented = documented_tables(text)
    faults = [f"{name} is not documented" for name in sorted(set(TABLES) - set(documented))]
    faults += [f"{name} is no field table" for name in sorted(set(documented) - set(TABLES))]
    for name in sorted(set(TABLES) & set(documented)):
        rows = dict(documented[name])
        if [key for key, _ in documented[name]] != keys(TABLES[name]):
            faults.append(f"{name}: FORMATS.md lists {list(rows)}, the table {keys(TABLES[name])}")
        for key, _, default, _ in TABLES[name]:
            if key in rows and (why := default_mismatch(default, rows[key])):
                faults.append(f"{name}.{key}: FORMATS.md says {rows[key]!r}, but {why}")
    return faults


def test_formats_md_states_every_table():
    assert formats_faults(FORMATS.read_text(encoding="utf-8")) == []


def test_formats_check_sees_drift():
    text = FORMATS.read_text(encoding="utf-8")
    wrong_default = text.replace("| `top_n` | `5` |", "| `top_n` | `6` |")
    assert any("_QUERY.top_n" in f for f in formats_faults(wrong_default))
    assert any("_PERSONA.top_n" in f for f in formats_faults(wrong_default))
    missing_key = text.replace("| `window` | `10` | integer >= 1 |\n", "")
    assert any(f.startswith("_POLICY: FORMATS.md lists") for f in formats_faults(missing_key))


# the codec

@pytest.fixture(scope="module")
def tourism_outcomes(tourism):
    outcomes, _ = run_stream(
        tourism.queries, tourism.agents, tourism.catalog, tourism.policy, tourism.rule_config
    )
    return outcomes


# fields that a load derives from other fields rather than reading them
DERIVED = {QueryOutcome: {"query_id"}}


# items are written from a catalog's columns, not by ``_encode``, so ``_TABLE_OF`` has no entry
RECORD_TABLES = {**dataio._TABLE_OF, Item: dataio._ITEM}


@pytest.mark.parametrize("record_type", list(RECORD_TABLES), ids=lambda t: t.__name__)
def test_every_field_has_a_row(record_type):
    """A field with no row would be left out of every file that holds the record."""
    args = {row[3] for row in RECORD_TABLES[record_type]}
    derived = DERIVED.get(record_type, set())
    assert args == {f.name for f in dataclasses.fields(record_type)} - derived


def test_records_read_back_equal(tourism, tourism_outcomes):
    """``_encode`` then ``_decode`` gives back an equal record, every nested one included."""
    assert any(o.query.constraints for o in tourism_outcomes)
    assert any(o.aggregate.tiebreak_trace for o in tourism_outcomes)
    known, ties = frozenset(tourism.catalog.ids), {}
    for i, outcome in enumerate(tourism_outcomes):
        raw = json.loads(json.dumps(dataio._encode(outcome)))
        # ``_decode(_OUTCOME, ...)``, then the aggregate built from its decoded fields
        assert dataio._outcome_from_obj(raw, f"outcomes[{i}]", known, ties) == outcome


# the documents the properties start from

def scenario_doc(alias):
    path = dataio.builtin_scenario_path(alias)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(doc["catalog"], str):
        doc["catalog"] = str(path.parent / doc["catalog"])
    return doc


def tourism_doc():
    """The tourism scenario with an external agent, and the rule and policy
    written out with every key."""
    doc = scenario_doc("builtin:tourism")
    doc["agents"].append({
        "agent_id": "guide",
        "role": "third_party",
        "objective": "external",
        "objective_metric": "ndcg",
        "objective_target": 0.5,
        "params": {"endpoint": "mock://guide", "persona": "local guide", "timeout_s": 5.0},
    })
    doc["policy"] = {"mode": "static", "fairness_threshold": 0.1, "window": 10,
                     "compatibility_min": 0.0}
    doc["rule"] = {"name": "borda", "use_weights": True, "kemeny_exact_limit": 8,
                   "kemeny_search_iters": 1000, "seed": 42}
    return doc


def scenario_records(doc):
    """(path, object, table) for every record of a scenario document."""
    for i, agent in enumerate(doc["agents"]):
        yield f"agents[{i}]", agent, dataio._AGENT
        if agent["objective"] == "external":
            yield f"agents[{i}].params", agent["params"], dataio._EXTERNAL_PARAMS
    if isinstance(doc["catalog"], dict):
        yield "catalog.synthetic", doc["catalog"]["synthetic"], dataio._SYNTHETIC_CATALOG
    if isinstance(doc.get("policy"), dict):
        yield "policy", doc["policy"], dataio._POLICY
    if isinstance(doc.get("rule"), dict):
        yield "rule", doc["rule"], dataio._RULE
    for field, table, nested in (
        ("queries", dataio._QUERY, "constraints"),
        ("personas", dataio._PERSONA, "constraint_templates"),
    ):
        for i, record in enumerate(doc.get(field, [])):
            yield f"{field}[{i}]", record, table
            for j, constraint in enumerate(record.get(nested, [])):
                yield f"{field}[{i}].{nested}[{j}]", constraint, dataio._CONSTRAINT


def outcome_records(doc):
    """(path, object, table) for every record of a saved outcomes document;
    the path "" names the document itself."""
    yield "", doc, dataio._OUTCOMES_FILE
    for i, outcome in enumerate(doc["outcomes"]):
        path = f"outcomes[{i}]"
        yield path, outcome, dataio._OUTCOME
        yield f"{path}.query", outcome["query"], dataio._QUERY
        for j, constraint in enumerate(outcome["query"].get("constraints", [])):
            yield f"{path}.query.constraints[{j}]", constraint, dataio._CONSTRAINT
        for j, ballot in enumerate(outcome["ballots"]):
            yield f"{path}.ballots[{j}]", ballot, dataio._BALLOT
        yield f"{path}.aggregate", outcome["aggregate"], dataio._AGGREGATE
        for j, tie in enumerate(outcome["aggregate"].get("tiebreak_trace", [])):
            yield f"{path}.aggregate.tiebreak_trace[{j}]", tie, dataio._TIE


@pytest.fixture(scope="module")
def saved_tourism(tourism, tourism_outcomes, tmp_path_factory):
    path = tmp_path_factory.mktemp("saved") / "outcomes.json"
    dataio.save_outcomes(tourism_outcomes, tourism.catalog, path, "tourism", "borda")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def documents(saved_tourism):
    """{kind: (document, the function that lists its records)}."""
    return {
        "tourism": (tourism_doc(), scenario_records),
        "synthetic-200": (scenario_doc("builtin:synthetic-200"), scenario_records),
        "outcomes": (saved_tourism, outcome_records),
    }


def load(kind, doc, path, tourism):
    path.write_text(json.dumps(doc), encoding="utf-8")
    if kind == "outcomes":
        return dataio.load_outcomes(path, tourism.catalog)
    return dataio.load_scenario(path)


# one value of each JSON type; a field's wrong values are those of another type
_JSON_VALUES = (None, True, 7, "x", [], {})


def json_type(value):
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


# every row of every table but the item's, which no scenario or outcome holds
ROWS = [
    (name, key) for name, table in sorted(TABLES.items()) if name != "_ITEM" for key in keys(table)
]

_FILES = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize("name,key", ROWS, ids=[f"{n}.{k}" for n, k in ROWS])
@_FILES
@given(data=st.data())
def test_a_wrong_or_missing_field_is_named(documents, tourism, tmp_path, name, key, data):
    """Give one field a value of another JSON type, or delete it if it is
    required: the load raises ``SchemaError`` naming that field's path."""
    table = TABLES[name]
    _, _, default, _ = next(row for row in table if row[0] == key)
    places = [
        (kind, n)
        for kind, (doc, records) in documents.items()
        for n, (_, _, rec_table) in enumerate(records(doc))
        if rec_table is table
    ]
    assert places, f"no document holds a {name} record"
    kind, n = data.draw(st.sampled_from(places), label="record")
    doc = copy.deepcopy(documents[kind][0])
    where, record, _ = list(documents[kind][1](doc))[n]
    delete = default is dataio._REQUIRED and data.draw(st.booleans(), label="delete")
    if delete:
        record.pop(key, None)
    else:
        valid = record.get(key, default)
        wrong = [
            v for v in _JSON_VALUES
            if json_type(v) != json_type(valid) and not (v is None and default is None)
        ]
        record[key] = data.draw(st.sampled_from(wrong), label="value")
    with pytest.raises(SchemaError) as err:
        load(kind, doc, tmp_path / "doc.json", tourism)
    message = str(err.value)
    field = f"{where}.{key}" if where else key
    if delete:
        assert message == f"{field}: missing required field"
    else:
        assert message.startswith(f"{field}: "), message


# round trips: what loads re-encodes to the JSON it came from, defaults filled in

def optional_keys(doc, records):
    return [
        (n, row[0])
        for n, (_, record, table) in enumerate(records(doc))
        for row in table
        if row[2] not in (dataio._REQUIRED, dataio._ABSENT) and row[0] in record
    ]


def drop_and_fill(doc, records, dropped):
    """A copy of ``doc`` without the ``dropped`` (record, key) pairs, and a
    copy of that with every absent key that has a default set to it."""
    bare = copy.deepcopy(doc)
    bare_records = list(records(bare))
    for n, key in dropped:
        del bare_records[n][1][key]
    filled = copy.deepcopy(bare)
    for _, record, table in list(records(filled)):
        for key, _, default, _ in table:
            if key not in record and default not in (dataio._REQUIRED, dataio._ABSENT):
                record[key] = copy.deepcopy(default)
    return bare, filled


def test_saved_outcomes_round_trip_exactly(documents, tourism, tmp_path):
    doc = documents["outcomes"][0]
    loaded, scenario_name, rule_name = load("outcomes", doc, tmp_path / "in.json", tourism)
    dataio.save_outcomes(loaded, tourism.catalog, tmp_path / "out.json", scenario_name, rule_name)
    assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8")) == doc


@_FILES
@given(data=st.data())
def test_saved_outcomes_reencode_with_defaults(documents, tourism, tmp_path, data):
    doc, records = documents["outcomes"]
    dropped = data.draw(st.sets(st.sampled_from(optional_keys(doc, records)), max_size=6))
    bare, filled = drop_and_fill(doc, records, dropped)
    try:
        loaded, scenario_name, rule_name = load("outcomes", bare, tmp_path / "in.json", tourism)
    except SchemaError:
        # only a default that a cross-field check refuses: no scores, one of
        # the two per-agent maps left empty, or a top_n the final list misses
        refusable = {"scores", "per_agent_regret", "per_agent_achieved", "top_n"}
        assert {key for _, key in dropped} & refusable
        return
    dataio.save_outcomes(loaded, tourism.catalog, tmp_path / "out.json", scenario_name, rule_name)
    assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8")) == filled


@_FILES
@given(data=st.data())
def test_scenario_queries_reencode_with_defaults(documents, tourism, tmp_path, data):
    doc, records = documents["tourism"]
    query_keys = [
        (n, key) for n, key in optional_keys(doc, records)
        if list(records(doc))[n][0].startswith("queries[")
    ]
    dropped = data.draw(st.sets(st.sampled_from(query_keys), max_size=6))
    bare, filled = drop_and_fill(doc, records, dropped)
    scenario = load("tourism", bare, tmp_path / "scenario.json", tourism)
    encoded = [dataio._encode(q) for q in scenario.queries]
    assert json.loads(json.dumps(encoded)) == filled["queries"]
