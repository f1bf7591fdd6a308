import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorank import cli, dataio
from agorank.errors import SchemaError


ROOT = Path(__file__).resolve().parent.parent
FORMATS = ROOT / "FORMATS.md"

# the warnings that pyproject's pytest filters make errors in this process
WARNINGS_AS_ERRORS = ("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning")
NAN, INF = float("nan"), float("inf")


def agorank(*args, cwd=None):
    return subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, "-m", "agorank", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


class TestRun:
    def test_tourism_run(self, tmp_path):
        out = tmp_path / "rep"
        proc = agorank("run", "--scenario", "builtin:tourism", "--out", str(out))
        assert proc.returncode == 0
        assert "scenario tourism: 4 queries" in proc.stdout
        assert (tmp_path / "rep.report.json").exists()
        assert (tmp_path / "rep.metrics.csv").exists()
        assert (tmp_path / "rep.summary.md").exists()

    def test_stdout_summary_stderr_logs(self, tmp_path):
        proc = agorank(
            "run", "--scenario", "builtin:tourism", "--out", str(tmp_path / "rep")
        )
        # logs go to stderr, leaving stdout parseable; per-query lines are DEBUG only
        assert "INFO" not in proc.stdout
        assert "INFO total wall time" in proc.stderr
        assert "query q1" not in proc.stderr
        assert "wrote" in proc.stdout

    def test_rule_override(self, tmp_path):
        out = tmp_path / "rep"
        proc = agorank(
            "run", "--scenario", "builtin:tourism", "--out", str(out),
            "--rule", "copeland",
        )
        assert proc.returncode == 0
        payload = json.loads((tmp_path / "rep.report.json").read_text())
        assert list(payload["rules"]) == ["copeland"]

    def test_unknown_rule_is_bad_input(self, tmp_path):
        proc = agorank(
            "run", "--scenario", "builtin:tourism", "--out", str(tmp_path / "rep"),
            "--rule", "plurality",
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert proc.stdout == ""

    def test_missing_scenario_file_is_bad_input(self, tmp_path):
        proc = agorank(
            "run", "--scenario", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "rep"),
        )
        assert proc.returncode == 2

    def test_malformed_scenario_is_bad_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}', encoding="utf-8")
        proc = agorank("run", "--scenario", str(bad), "--out", str(tmp_path / "rep"))
        assert proc.returncode == 2

    def test_no_active_agents_exit_code(self, tmp_path):
        # dynamic policy, window 1, incompatible tagged agent whose objective
        # is trivially met: second query deactivates everyone
        (tmp_path / "catalog.csv").write_text(
            "id,provider_id,categories,popularity,sustainability,description\n"
            "i1,p1,beach,0.5,0.5,\n",
            encoding="utf-8",
        )
        scenario = {
            "name": "starved",
            "seed": 1,
            "catalog": "catalog.csv",
            "agents": [
                {
                    "agent_id": "narrow",
                    "role": "user",
                    "objective": "relevance",
                    "objective_metric": "ndcg",
                    "objective_target": 0.0,
                    "compatibility_tags": ["food"],
                }
            ],
            "policy": {
                "mode": "dynamic",
                "window": 1,
                "fairness_threshold": 0.5,
                "compatibility_min": 0.9,
            },
            "rule": "borda",
            "queries": [
                {"id": "q1", "preference_weights": {"beach": 1.0}, "top_n": 1},
                {"id": "q2", "preference_weights": {"beach": 1.0}, "top_n": 1},
            ],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        proc = agorank("run", "--scenario", str(path), "--out", str(tmp_path / "rep"))
        assert proc.returncode == 3
        assert "error:" in proc.stderr


class TestDeterminism:
    def test_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            proc = agorank(
                "run", "--scenario", "builtin:tourism",
                "--out", str(tmp_path / name), "--seed", "42",
            )
            assert proc.returncode == 0
        for suffix in (".report.json", ".metrics.csv", ".summary.md"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == (
                tmp_path / ("b" + suffix)
            ).read_bytes()

    def test_seed_changes_synthetic_run(self, tmp_path):
        for name, seed in (("a", "7"), ("b", "8")):
            proc = agorank(
                "run", "--scenario", "builtin:synthetic-200",
                "--out", str(tmp_path / name), "--seed", seed,
            )
            assert proc.returncode == 0
        assert (tmp_path / "a.report.json").read_bytes() != (
            tmp_path / "b.report.json"
        ).read_bytes()


class TestCompare:
    def test_all_rules(self, tmp_path):
        proc = agorank(
            "compare", "--scenario", "builtin:tourism", "--out", str(tmp_path / "cmp")
        )
        assert proc.returncode == 0
        payload = json.loads((tmp_path / "cmp.report.json").read_text())
        assert sorted(payload["rules"]) == [
            "borda", "copeland", "kemeny", "ranked_pairs"
        ]

    def test_single_rule(self, tmp_path):
        proc = agorank(
            "compare", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "cmp"), "--rule", "borda",
        )
        assert proc.returncode == 0
        payload = json.loads((tmp_path / "cmp.report.json").read_text())
        assert list(payload["rules"]) == ["borda"]

    def test_csv_carries_every_rule(self, tmp_path):
        agorank(
            "compare", "--scenario", "builtin:tourism", "--out", str(tmp_path / "cmp")
        )
        lines = (tmp_path / "cmp.metrics.csv").read_text().splitlines()
        rules = {line.split(",")[0] for line in lines[1:]}
        assert rules == {"borda", "copeland", "kemeny", "ranked_pairs"}
        assert len(lines) == 1 + 4 * 4


class TestEvaluate:
    def test_replay_reproduces_report(self, tmp_path):
        saved = tmp_path / "outcomes.json"
        proc = agorank(
            "run", "--scenario", "builtin:tourism", "--out", str(tmp_path / "orig"),
            "--save-outcomes", str(saved),
        )
        assert proc.returncode == 0
        proc = agorank(
            "evaluate", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "replay"), "--outcomes", str(saved),
        )
        assert proc.returncode == 0
        assert "rebuilt report" in proc.stdout
        assert (tmp_path / "orig.report.json").read_bytes() == (
            tmp_path / "replay.report.json"
        ).read_bytes()

    def test_wrong_catalog_exits_2(self, tmp_path):
        saved = tmp_path / "outcomes.json"
        agorank(
            "run", "--scenario", "builtin:tourism", "--out", str(tmp_path / "orig"),
            "--save-outcomes", str(saved),
        )
        proc = agorank(
            "evaluate", "--scenario", "builtin:synthetic-200",
            "--out", str(tmp_path / "replay"), "--outcomes", str(saved),
        )
        assert proc.returncode == 2
        assert "hash mismatch" in proc.stderr

    def test_unknown_history_item_exits_2(self, tmp_path):
        saved = tmp_path / "outcomes.json"
        agorank(
            "run", "--scenario", "builtin:tourism", "--out", str(tmp_path / "orig"),
            "--save-outcomes", str(saved),
        )
        doc = json.loads(saved.read_text(encoding="utf-8"))
        doc["outcomes"][0]["query"]["user_history"] = ["nope"]
        saved.write_text(json.dumps(doc), encoding="utf-8")
        proc = agorank(
            "evaluate", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "replay"), "--outcomes", str(saved),
        )
        assert proc.returncode == 2
        assert "error: outcomes[0].query.user_history[0]: unknown item 'nope'" in proc.stderr

    def test_missing_outcomes_file(self, tmp_path):
        proc = agorank(
            "evaluate", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "replay"),
            "--outcomes", str(tmp_path / "absent.json"),
        )
        assert proc.returncode == 2


class TestUnencodableStrings:
    """A JSON escape that decodes to a lone surrogate is invalid input: it
    used to fail while the report was being written, exit 1, and leave
    partial files behind."""

    @pytest.mark.parametrize(
        "edit,where",
        [
            (lambda doc: doc.update(name="tour\udc00ism"), "name"),
            (lambda doc: doc["queries"][0].update(id="q\ud800"), "queries[0].id"),
        ],
        ids=["scenario-name", "query-id"],
    )
    def test_exit_2_and_nothing_written(self, tmp_path, edit, where):
        builtin = dataio.builtin_scenario_path("builtin:tourism")
        doc = json.loads(builtin.read_text(encoding="utf-8"))
        doc["catalog"] = str(builtin.parent / doc["catalog"])
        edit(doc)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        proc = agorank("run", "--scenario", str(scenario), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert f"error: {where}: not encodable as UTF-8" in proc.stderr
        assert list(tmp_path.glob("o.*")) == []


class TestArgparse:
    def test_no_command_fails(self):
        proc = agorank()
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    REQUIRED = {
        "run": ("--scenario", "builtin:tourism"),
        "compare": ("--scenario", "builtin:tourism"),
        "evaluate": ("--scenario", "builtin:tourism", "--outcomes", "outcomes.json"),
    }

    @pytest.mark.parametrize(
        "command,option",
        [
            ("evaluate", ["--parallel-agents"]),
            # evaluate runs no agent, so it takes no adapter endpoint
            ("evaluate", ["--adapter-url", "mock://x"]),
            ("run", ["--parallel-agents"]),
            ("compare", ["--parallel-agents"]),
        ],
        ids=["option0", "option1", "run-option0", "compare-option0"],
    )
    def test_evaluate_refuses_agent_options(self, tmp_path, command, option):
        # agents generate one after another: no command takes --parallel-agents
        proc = agorank(command, *self.REQUIRED[command], "--out", str(tmp_path / "o"), *option)
        assert proc.returncode == 2
        assert "usage" in proc.stderr
        assert f"unrecognized arguments: {option[0]}" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_run_and_compare_take_an_adapter_url(self, command):
        args = cli._build_parser().parse_args(
            [command, *self.REQUIRED[command], "--out", "o", "--adapter-url", "mock://x"]
        )
        assert args.adapter_url == "mock://x"

    def test_help_mentions_subcommands(self):
        proc = agorank("--help")
        assert proc.returncode == 0
        for word in ("run", "compare", "evaluate"):
            assert word in proc.stdout


# FORMATS.md's "CLI" synopses against the parser

def documented_options(text):
    """{command: [option]} from each ``- `command ...` `` synopsis of the
    "CLI" section: the options in its first code span."""
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return {
        synopsis.split()[0]: re.findall(r"--[\w-]+", synopsis)
        for synopsis in re.findall(r"^- `([^`]*)`", section, re.MULTILINE)
    }


def parser_options():
    """{command: [option]} of ``cli._build_parser()``, without -h/--help."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        ]
        for command, sub in commands.choices.items()
    }


def cli_faults(text):
    documented, parsed = documented_options(text), parser_options()
    faults = [f"{c} is not documented" for c in sorted(set(parsed) - set(documented))]
    faults += [f"{c} is no command" for c in sorted(set(documented) - set(parsed))]
    for c in sorted(set(parsed) & set(documented)):
        if sorted(documented[c]) != sorted(parsed[c]):
            faults.append(
                f"{c}: FORMATS.md lists {sorted(documented[c])}, the parser {sorted(parsed[c])}"
            )
    return faults


def test_formats_md_states_every_option():
    assert cli_faults(FORMATS.read_text(encoding="utf-8")) == []


def test_cli_check_sees_drift():
    text = FORMATS.read_text(encoding="utf-8")
    added = text.replace("[--seed N]`;", "[--seed N] [--parallel-agents]`;")
    assert any(f.startswith("evaluate: FORMATS.md lists") for f in cli_faults(added))
    dropped = text.replace(" [--save-outcomes PATH]", "")
    assert any(f.startswith("run: FORMATS.md lists") for f in cli_faults(dropped))
    unlisted = re.sub(r"^- `compare [^`]*`", "- compare", text, flags=re.MULTILINE)
    assert cli_faults(unlisted) == ["compare is not documented"]


class TestDeepNesting:
    """Input files nested too deeply for the JSON decoder exit 2, like any invalid input."""

    DEEP = "[" * 100000

    def test_scenario(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text(self.DEEP, encoding="utf-8")
        code = cli.main(["run", "--scenario", str(deep), "--out", str(tmp_path / "rep")])
        assert code == 2

    def test_catalog(self, tmp_path):
        doc = json.loads(
            dataio.builtin_scenario_path("builtin:tourism").read_text(encoding="utf-8")
        )
        doc["catalog"] = "catalog.json"
        (tmp_path / "catalog.json").write_text(self.DEEP, encoding="utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "rep")])
        assert code == 2

    def test_outcomes(self, tmp_path):
        deep = tmp_path / "outcomes.json"
        deep.write_text(self.DEEP, encoding="utf-8")
        code = cli.main([
            "evaluate", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "replay"), "--outcomes", str(deep),
        ])
        assert code == 2


# one byte-level edit: (kind, position, bytes); a flip XORs the byte at the
# position with the first byte, a deletion drops as many bytes as it carries
_EDITS = st.tuples(
    st.sampled_from(["flip", "delete", "insert"]),
    st.integers(0, 1 << 16),
    st.binary(min_size=1, max_size=4),
)


class TestNonFiniteItemAndConstraintValues:
    """An item attribute or a constraint value that is no finite float exits 2
    naming the field; these used to load, NaN failing every constraint."""

    LITERALS = ["NaN", "Infinity", "-Infinity", "1e400"]

    def run(self, tmp_path, text):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text, encoding="utf-8")
        return cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "rep")])

    @staticmethod
    def synthetic_doc():
        return json.loads(
            dataio.builtin_scenario_path("builtin:synthetic-200").read_text(encoding="utf-8")
        )

    @pytest.mark.parametrize("literal", LITERALS)
    def test_item_attribute(self, tmp_path, capsys, literal):
        (tmp_path / "catalog.json").write_text(
            '[{"id": "i0", "provider_id": "p"},'
            f' {{"id": "i1", "provider_id": "p", "attributes": {{"price": {literal}}}}}]',
            encoding="utf-8",
        )
        doc = {**self.synthetic_doc(), "catalog": "catalog.json"}
        assert self.run(tmp_path, json.dumps(doc)) == 2
        err = capsys.readouterr().err
        assert "error: item 1: attributes.price: expected a finite number" in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("literal", LITERALS)
    def test_constraint_value(self, tmp_path, capsys, literal):
        doc = self.synthetic_doc()
        doc["personas"][0]["constraint_templates"][0]["value"] = "VALUE"
        assert self.run(tmp_path, json.dumps(doc).replace('"VALUE"', literal)) == 2
        err = capsys.readouterr().err
        assert "error: personas[0].constraint_templates[0].value: expected a finite number" in err
        assert not (tmp_path / "rep").exists()


class TestPersonaWeights:
    """A persona weight that is no finite float exits 2 and names the field;
    these used to exit 1 with an internal error, or 0 with NaN read as 0."""

    @pytest.mark.parametrize(
        "literal,message",
        [
            pytest.param("1" + "0" * 400, "integer too large for a float", id="1e400-int"),
            ("NaN", "expected a finite number"),
            ("Infinity", "expected a finite number"),
            ("-Infinity", "expected a finite number"),
            # a negative weight used to be read as 0.0 in every generated query
            ("-5", "expected a finite number >= 0"),
        ],
    )
    def test_exit_2_naming_the_field(self, tmp_path, capsys, literal, message):
        doc = json.loads(
            dataio.builtin_scenario_path("builtin:synthetic-200").read_text(encoding="utf-8")
        )
        doc["personas"][1]["category_weights"]["beach"] = "WEIGHT"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc).replace('"WEIGHT"', literal), encoding="utf-8")
        code = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "rep")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: personas[1].category_weights.beach: {message}" in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("top_n", [0, -3])
    def test_top_n_below_one_names_the_persona(self, tmp_path, capsys, top_n):
        # this used to exit 1 from the query generator, naming query 0-0
        doc = json.loads(
            dataio.builtin_scenario_path("builtin:synthetic-200").read_text(encoding="utf-8")
        )
        doc["personas"][1]["top_n"] = top_n
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert f"error: personas[1]: top_n must be >= 1, got {top_n}" in capsys.readouterr().err


def _mutate(data: bytes, edits) -> bytes:
    for kind, at, payload in edits:
        at %= len(data) + 1
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ (payload[0] or 0x80)]) + data[at + 1 :]
        elif kind == "delete":
            data = data[:at] + data[at + len(payload) :]
        else:
            data = data[:at] + payload + data[at:]
    return data


def _tourism_with_guide(tmp_path, params):
    """The tourism scenario, runnable from ``tmp_path``, with a fourth,
    external agent whose params are ``params``."""
    builtin = dataio.builtin_scenario_path("builtin:tourism")
    doc = json.loads(builtin.read_text(encoding="utf-8"))
    doc["catalog"] = str(builtin.parent / doc["catalog"])
    doc["agents"].append({
        "agent_id": "guide",
        "role": "third_party",
        "objective": "external",
        "objective_metric": "ndcg",
        "objective_target": 0.5,
        "params": params,
    })
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    return scenario


class TestExternalAgentParams:
    """An external agent's params are checked when the scenario loads: a
    mistyped one used to exit 1 with an internal error once the agent ran."""

    GOOD = {"endpoint": "mock://guide", "persona": "local guide", "timeout_s": 5}

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("persona", 5, "expected a string"),
            ("persona", "g\udc00", "not encodable as UTF-8"),
            ("timeout_s", "abc", "expected a number"),
            ("timeout_s", True, "expected a number"),
            ("timeout_s", 0, "expected a finite number of seconds > 0"),
            ("timeout_s", -1.5, "expected a finite number of seconds > 0"),
            ("timeout_s", float("inf"), "expected a finite number of seconds > 0"),
            ("timeout_s", float("nan"), "expected a finite number of seconds > 0"),
            ("endpoint", 5, "expected a string"),
            ("endpoint", "", "expected a mock://, http:// or https:// URL"),
            ("endpoint", "ftp://guide", "expected a mock://, http:// or https:// URL"),
        ],
    )
    def test_exit_2_and_nothing_written(self, tmp_path, key, value, message):
        scenario = _tourism_with_guide(tmp_path, {**self.GOOD, key: value})
        proc = agorank("run", "--scenario", str(scenario), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert f"error: agents[3].params.{key}: {message}" in proc.stderr
        assert list(tmp_path.glob("o.*")) == []

    @pytest.mark.parametrize("params", [0, False, "", [], None])
    def test_params_must_be_an_object(self, tmp_path, params):
        with pytest.raises(SchemaError, match=r"agents\[3\]\.params: expected an object"):
            dataio.load_scenario(_tourism_with_guide(tmp_path, params))

    @pytest.mark.parametrize(
        "params",
        [GOOD, {"endpoint": "https://guide.example", "timeout_s": 0.25}, {}],
        ids=["mock", "https", "none"],
    )
    def test_valid_params_load(self, tmp_path, params):
        scenario = dataio.load_scenario(_tourism_with_guide(tmp_path, params))
        assert scenario.agents[3].params == params


class TestSavedInfluence:
    """``aggregate.influence`` holds one value in [0, 1] per ballot agent."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda inf: inf.update(ghost=0.5), "expected one entry per ballot agent"),
            (lambda inf: inf.pop("traveler"), "expected one entry per ballot agent"),
            (lambda inf: inf.update(traveler=7.5), "traveler: expected a number in [0, 1]"),
            (lambda inf: inf.update(traveler=-0.25), "traveler: expected a number in [0, 1]"),
        ],
        ids=["unknown-agent", "missing-agent", "above-one", "below-zero"],
    )
    def test_exit_2_and_nothing_written(self, tourism_dir, tmp_path, edit, message):
        saved = tmp_path / "outcomes.json"
        doc = json.loads((tourism_dir / "base" / "outcomes.json").read_text(encoding="utf-8"))
        edit(doc["outcomes"][0]["aggregate"]["influence"])
        saved.write_text(json.dumps(doc), encoding="utf-8")
        proc = agorank(
            "evaluate", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "replay"), "--outcomes", str(saved),
        )
        assert proc.returncode == 2, proc.stderr
        assert "error: outcomes[0].aggregate.influence" in proc.stderr
        assert message in proc.stderr
        assert list(tmp_path.glob("replay.*")) == []


def _without_hash(doc):
    del doc["catalog_hash"]
    return doc


class TestSavedDocument:
    """The saved-outcomes document is decoded by its own field table: a
    fault in it exits 2 naming the field, or the file if it is no object."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda doc: {**doc, "outcomes": {"a": 1}}, "outcomes: expected a list"),
            (lambda doc: {**doc, "outcomes": "xy"}, "outcomes: expected a list"),
            (_without_hash, "catalog_hash: missing required field"),
            (lambda doc: {**doc, "catalog_hash": None}, "catalog_hash: expected a string"),
            (lambda doc: {**doc, "catalog_hash": 5}, "catalog_hash: expected a string"),
            (lambda doc: [doc], "outcomes file: expected an object"),
        ],
        ids=["outcomes-object", "outcomes-string", "hash-missing", "hash-null", "hash-int",
             "top-level-list"],
    )
    def test_exit_2_naming_the_field(self, tourism_dir, tmp_path, capsys, edit, message):
        saved = tmp_path / "outcomes.json"
        doc = json.loads((tourism_dir / "base" / "outcomes.json").read_text(encoding="utf-8"))
        saved.write_text(json.dumps(edit(doc)), encoding="utf-8")
        code = cli.main([
            "evaluate", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "replay"), "--outcomes", str(saved),
        ])
        assert code == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.glob("replay.*")) == []


# a lone surrogate, which a JSON escape can write and UTF-8 cannot encode
UNENCODABLE = "not encodable as UTF-8 (surrogates not allowed at index 1)"


def _set_trace(*events):
    return lambda outcome: outcome["aggregate"].update(tiebreak_trace=list(events))


def _set_ballot(**fields):
    return lambda outcome: outcome["ballots"][0].update(fields)


def _repeat_first_item(outcome):
    ranking = outcome["ballots"][0]["ranking"]
    ranking.append(ranking[0])


class TestSavedBallotsAndTies:
    """Saved ballots, tie events and the outcome's string-keyed maps are
    checked at load: each fault is invalid input that names its field."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (_set_trace({"description": 5, "resolution": "x"}),
             "aggregate.tiebreak_trace[0].description: expected a string"),
            (_set_trace({"description": "tie", "resolution": ["x"]}),
             "aggregate.tiebreak_trace[0].resolution: expected a string"),
            (_set_trace("tie"), "aggregate.tiebreak_trace[0]: expected an object"),
            (_set_ballot(ranking=["no-such-item"]),
             "ballots[0].ranking[0]: unknown item 'no-such-item'"),
            (_set_ballot(ranking=[5]), "ballots[0].ranking[0]: expected a string"),
            (_repeat_first_item, "ballots[0].ranking: an item is ranked twice"),
            (_set_ballot(weight="heavy"), "ballots[0].weight: expected a number in [0, 1]"),
            (_set_ballot(weight=True), "ballots[0].weight: expected a number in [0, 1]"),
            (_set_ballot(weight=1.5), "ballots[0].weight: expected a number in [0, 1]"),
            (_set_ballot(agent_id=5), "ballots[0].agent_id: expected a string"),
            (_set_ballot(justification=5), "ballots[0].justification: expected a string"),
            (lambda outcome: outcome.update(skipped_agents={"ecology": 5}),
             "skipped_agents.ecology: expected a string"),
            (lambda outcome: outcome.update(justifications={"traveler": None}),
             "justifications.traveler: expected a string"),
            (lambda outcome: outcome.update(skipped_agents={"ghost": "r\udc00"}),
             f"skipped_agents.ghost: {UNENCODABLE}"),
            (lambda outcome: outcome.update(justifications={"g\udc00": "why"}),
             f"justifications key: {UNENCODABLE}"),
            (lambda outcome: outcome["per_agent_achieved"].update({"g\udc00": 0.5}),
             f"per_agent_achieved key: {UNENCODABLE}"),
            (lambda outcome: outcome["per_agent_regret"].update({"g\udc00": 0.5}),
             f"per_agent_regret key: {UNENCODABLE}"),
            (lambda outcome: outcome["stage_calls"].update({"x\udc00": 1}),
             f"stage_calls key: {UNENCODABLE}"),
        ],
        ids=[
            "tie-description", "tie-resolution", "tie-not-object", "unknown-item",
            "non-string-item", "repeated-item", "weight-string", "weight-bool",
            "weight-above-one", "agent-id", "justification", "skipped-reason",
            "justifications-value", "skipped-reason-surrogate", "justifications-key-surrogate",
            "achieved-key-surrogate", "regret-key-surrogate", "stage-calls-key-surrogate",
        ],
    )
    def test_exit_2_and_nothing_written(self, tourism_dir, tmp_path, edit, message):
        saved = tmp_path / "outcomes.json"
        doc = json.loads((tourism_dir / "base" / "outcomes.json").read_text(encoding="utf-8"))
        edit(doc["outcomes"][0])
        saved.write_text(json.dumps(doc), encoding="utf-8")
        proc = agorank(
            "evaluate", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "replay"), "--outcomes", str(saved),
        )
        assert proc.returncode == 2, proc.stderr
        assert f"error: outcomes[0].{message}" in proc.stderr
        assert list(tmp_path.glob("replay.*")) == []


def _edit_aggregate(field, edit):
    return lambda outcome: edit(outcome["aggregate"][field])


def _set_aggregate(**fields):
    return lambda outcome: outcome["aggregate"].update(fields)


def _set_last(value):
    def edit(ids):
        ids[-1] = value
    return edit


class TestSavedAggregate:
    """The rule label, consensus, final list, scores, achieved values and
    regrets are checked at load against what ``save_outcomes`` could have
    written: each fault is invalid input that names its field."""

    CONSENSUS = "aggregate.consensus: expected each of the 6 items the ballots rank, once"
    FINAL = "final_list: expected the first query.top_n consensus items"
    RULE = "aggregate.rule: expected one of ['borda', 'copeland', 'kemeny', "
    SCORES = "aggregate.scores: expected one entry per consensus item"
    ACHIEVED = "per_agent_achieved: expected the agents of per_agent_regret"
    REGRET = "per_agent_regret.traveler: expected a finite number >= 0"

    @pytest.mark.parametrize(
        "edit,message",
        [
            (_edit_aggregate("consensus", list.pop), CONSENSUS),
            (_edit_aggregate("consensus", lambda c: c.append("market-old-town")), CONSENSUS),
            (_edit_aggregate("consensus", _set_last("beach-hidden-cove")), CONSENSUS),
            (_edit_aggregate("consensus", _set_last("no-such-item")), CONSENSUS),
            (_edit_aggregate("consensus", _set_last(["trail-forest-loop"])), CONSENSUS),
            (_set_aggregate(consensus="beach-hidden-cove"),
             "aggregate.consensus: expected a list"),
            (lambda outcome: outcome["final_list"].reverse(), FINAL),
            (lambda outcome: outcome["final_list"].pop(), FINAL),
            (lambda outcome: outcome["final_list"].append("beach-promenade"), FINAL),
            (_edit_aggregate("consensus", list.reverse), FINAL),
            (_set_aggregate(rule="plurality"), RULE),
            (_set_aggregate(rule="Borda"), RULE),
            (_set_aggregate(rule=5), RULE),
            (_edit_aggregate("scores", lambda sc: sc.pop("beach-promenade")), SCORES),
            (_edit_aggregate("scores", lambda sc: sc.update({"no-such-item": 1.0})), SCORES),
            (lambda outcome: outcome["aggregate"].pop("scores"), SCORES),
            (_edit_aggregate("scores", lambda sc: sc.update({"beach-promenade": True})),
             "aggregate.scores.beach-promenade: expected a finite number"),
            (_edit_aggregate("scores", lambda sc: sc.update({"beach-promenade": "6"})),
             "aggregate.scores.beach-promenade: expected a finite number"),
            (lambda outcome: outcome["per_agent_achieved"].pop("traveler"), ACHIEVED),
            (lambda outcome: outcome["per_agent_achieved"].update(ghost=0.5), ACHIEVED),
            (lambda outcome: outcome["per_agent_achieved"].update(traveler="high"),
             "per_agent_achieved.traveler: expected a finite number or null"),
            (lambda outcome: outcome["per_agent_achieved"].update(traveler=False),
             "per_agent_achieved.traveler: expected a finite number or null"),
            # NaN used to load, and evaluate wrote it into the report JSON
            (_edit_aggregate("scores", lambda sc: sc.update({"beach-promenade": NAN})),
             "aggregate.scores.beach-promenade: expected a finite number"),
            (_edit_aggregate("scores", lambda sc: sc.update({"beach-promenade": -INF})),
             "aggregate.scores.beach-promenade: expected a finite number"),
            (lambda outcome: outcome["per_agent_achieved"].update(traveler=NAN),
             "per_agent_achieved.traveler: expected a finite number or null"),
            (lambda outcome: outcome["per_agent_achieved"].update(traveler=INF),
             "per_agent_achieved.traveler: expected a finite number or null"),
            (lambda outcome: outcome["per_agent_regret"].update(traveler=NAN), REGRET),
            (lambda outcome: outcome["per_agent_regret"].update(traveler=INF), REGRET),
            (lambda outcome: outcome["per_agent_regret"].update(traveler=-1), REGRET),
        ],
        ids=[
            "consensus-short", "consensus-repeat-appended", "consensus-repeat",
            "consensus-foreign-item", "consensus-unhashable", "consensus-not-list",
            "final-reordered", "final-short", "final-long", "final-not-prefix",
            "rule-unknown", "rule-case", "rule-number", "scores-missing-item",
            "scores-extra-item", "scores-absent", "scores-bool", "scores-string",
            "achieved-missing-agent", "achieved-extra-agent", "achieved-string",
            "achieved-bool", "scores-nan", "scores-minus-inf", "achieved-nan", "achieved-inf",
            "regret-nan", "regret-inf", "regret-negative",
        ],
    )
    def test_exit_2_and_nothing_written(self, tourism_dir, tmp_path, edit, message):
        saved = tmp_path / "outcomes.json"
        doc = json.loads((tourism_dir / "base" / "outcomes.json").read_text(encoding="utf-8"))
        edit(doc["outcomes"][0])
        saved.write_text(json.dumps(doc), encoding="utf-8")
        proc = agorank(
            "evaluate", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "replay"), "--outcomes", str(saved),
        )
        assert proc.returncode == 2, proc.stderr
        assert f"error: outcomes[0].{message}" in proc.stderr
        assert list(tmp_path.glob("replay.*")) == []

    @pytest.mark.parametrize(
        "edit",
        [
            _edit_aggregate("consensus", lambda c: c.insert(3, c.pop())),
            lambda outcome: outcome["per_agent_achieved"].update(traveler=None),
            _set_aggregate(rule="kemeny-heuristic"),
        ],
        ids=["consensus-tail-reordered", "achieved-null", "rule-heuristic"],
    )
    def test_what_save_could_write_loads(self, tourism_dir, tmp_path, edit):
        # the load checks the fields' shape, not that the rule would
        # reproduce them
        saved = tmp_path / "outcomes.json"
        doc = json.loads((tourism_dir / "base" / "outcomes.json").read_text(encoding="utf-8"))
        edit(doc["outcomes"][0])
        saved.write_text(json.dumps(doc), encoding="utf-8")
        proc = agorank(
            "evaluate", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "replay"), "--outcomes", str(saved),
        )
        assert proc.returncode == 0, proc.stderr


_FUZZED = ("scenario.json", "catalog.csv", "outcomes.json")


@pytest.fixture(scope="module")
def tourism_dir(tmp_path_factory):
    """A directory holding the builtin tourism scenario, its catalog and
    outcomes saved from it, each also kept intact under ``base/``."""
    root = dataio.builtin_scenario_path("builtin:tourism").parent
    tmp = tmp_path_factory.mktemp("tourism")
    for name in ("scenario.json", "catalog.csv"):
        (tmp / name).write_bytes((root / name).read_bytes())
    code = cli.main([
        "run", "--scenario", str(tmp / "scenario.json"), "--out", str(tmp / "rep"),
        "--save-outcomes", str(tmp / "outcomes.json"),
    ])
    assert code == 0
    (tmp / "base").mkdir()
    for name in _FUZZED:
        (tmp / "base" / name).write_bytes((tmp / name).read_bytes())
    return tmp


class TestLoaderFuzz:
    """Byte-level damage to any input file exits 0, 2 or 3, never 1 (internal error)."""

    @settings(max_examples=300, deadline=None)
    @given(target=st.sampled_from(_FUZZED), edits=st.lists(_EDITS, min_size=1, max_size=3))
    def test_damaged_input_is_never_an_internal_error(self, tourism_dir, target, edits):
        for name in _FUZZED:
            data = (tourism_dir / "base" / name).read_bytes()
            (tourism_dir / name).write_bytes(_mutate(data, edits) if name == target else data)
        argv = ["run", "--scenario", str(tourism_dir / "scenario.json"),
                "--out", str(tourism_dir / "out")]
        if target == "outcomes.json":
            argv[0] = "evaluate"
            argv += ["--outcomes", str(tourism_dir / "outcomes.json")]
        assert cli.main(argv) in (0, 2, 3)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    # each demo's stdout is pinned in tests/golden/demos/<name>.txt, so a
    # change to what a demo prints shows in review
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / "demos" / f"{Path(demo).stem}.txt"
    assert proc.stdout == golden.read_text(encoding="utf-8"), (
        f"{demo} printed other than {golden.name}; if the change is intended, "
        "write its new stdout there and review the diff"
    )
