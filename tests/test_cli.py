import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorank import cli, dataio
from agorank.errors import SchemaError


def agorank(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "agorank", *args],
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

    def test_parallel_agents_identical(self, tmp_path):
        agorank(
            "run", "--scenario", "builtin:tourism", "--out", str(tmp_path / "serial")
        )
        agorank(
            "run", "--scenario", "builtin:tourism",
            "--out", str(tmp_path / "parallel"), "--parallel-agents",
        )
        assert (tmp_path / "serial.report.json").read_bytes() == (
            tmp_path / "parallel.report.json"
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

    def test_help_mentions_subcommands(self):
        proc = agorank("--help")
        assert proc.returncode == 0
        for word in ("run", "compare", "evaluate"):
            assert word in proc.stdout


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
