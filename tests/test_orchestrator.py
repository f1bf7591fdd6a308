import copy
import dataclasses
import itertools
import logging
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorank.agents import AgentObjective, AgentSpec
from agorank.aggregation import Rule, RuleConfig, aggregate
from agorank.errors import EmptyAfterGrounding, NoActiveAgents
from agorank import adapter, dataio, orchestrator
from agorank.metrics import MetricId, build_report, evaluate_metric, exposure_delta, fairness_regret
from agorank.model import Catalog, Constraint, Item, PreferenceProfile, Query, StakeholderRole
from agorank.orchestrator import (
    ActivationMode,
    ActivationPolicy,
    FairnessLedger,
    candidate_count_policy,
    compatibility,
    process_query,
    run_stream,
    select_agents,
    SKIP_REASON_MET,
)

CATALOG = Catalog(
    [
        Item(id="beach-a", provider_id="p1", categories=frozenset({"beach"}),
             popularity=0.9, sustainability=0.3),
        Item(id="museum-b", provider_id="p2", categories=frozenset({"museum", "culture"}),
             popularity=0.5, sustainability=0.6),
        Item(id="trail-c", provider_id="p3", categories=frozenset({"nature", "trail"}),
             popularity=0.1, sustainability=0.9),
        Item(id="market-d", provider_id="p2", categories=frozenset({"market", "food"}),
             popularity=0.7, sustainability=0.5),
    ]
)


def spec(agent_id, objective, metric=MetricId.NDCG, target=0.9, tags=frozenset(),
         role=StakeholderRole.USER):
    return AgentSpec(
        agent_id=agent_id,
        role=role,
        objective=objective,
        objective_metric=metric,
        objective_target=target,
        compatibility_tags=tags,
    )


THREE_AGENTS = [
    spec("traveler", AgentObjective.RELEVANCE),
    spec("providers", AgentObjective.PROVIDER_EXPOSURE,
         metric=MetricId.GINI_EXPOSURE, target=0.3,
         role=StakeholderRole.PROVIDER),
    spec("ecology", AgentObjective.POPULARITY_MITIGATION,
         metric=MetricId.POP_LIFT, target=0.1,
         role=StakeholderRole.THIRD_PARTY),
]


def query(qid="q1", **kw):
    kw.setdefault("preference_weights", {"nature": 1.0, "trail": 0.5})
    kw.setdefault("user_history", ("beach-a", "museum-b"))
    kw.setdefault("top_n", 3)
    return Query(id=qid, **kw)


class TestCompatibility:
    def test_untagged_agent_always_compatible(self):
        assert compatibility(query(), spec("a", AgentObjective.RELEVANCE)) == 1.0

    def test_jaccard(self):
        tagged = spec("a", AgentObjective.RELEVANCE, tags=frozenset({"nature", "beach"}))
        # query categories {nature, trail}; intersection 1, union 3
        assert compatibility(query(), tagged) == pytest.approx(1 / 3)

    def test_no_query_categories(self):
        tagged = spec("a", AgentObjective.RELEVANCE, tags=frozenset({"beach"}))
        q = Query(id="q", preference_weights={})
        assert compatibility(q, tagged) == 0.0


class TestActivationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ActivationPolicy(window=0)
        with pytest.raises(ValueError):
            ActivationPolicy(compatibility_min=1.5)
        with pytest.raises(ValueError):
            ActivationPolicy(fairness_threshold=-0.1)

    def test_static_selects_everyone(self):
        ledger = FairnessLedger([s.agent_id for s in THREE_AGENTS], window=3)
        active, skipped = select_agents(query(), THREE_AGENTS, ledger,
                                        ActivationPolicy())
        assert [s.agent_id for s in active] == [s.agent_id for s in THREE_AGENTS]
        assert skipped == {}

    def test_dynamic_skips_only_incompatible_and_satisfied(self):
        policy = ActivationPolicy(
            mode=ActivationMode.DYNAMIC, fairness_threshold=0.1, window=2,
            compatibility_min=0.5,
        )
        offtopic = spec("offtopic", AgentObjective.RELEVANCE,
                        tags=frozenset({"food"}))
        agents = [THREE_AGENTS[0], offtopic]
        ledger = FairnessLedger(["traveler", "offtopic"], window=2)

        # window not yet full: still active despite incompatibility
        active, skipped = select_agents(query(), agents, ledger, policy)
        assert {s.agent_id for s in active} == {"traveler", "offtopic"}

        ledger.push_regret("offtopic", 0.0)
        ledger.push_regret("offtopic", 0.05)
        active, skipped = select_agents(query(), agents, ledger, policy)
        assert {s.agent_id for s in active} == {"traveler"}
        assert skipped == {"offtopic": SKIP_REASON_MET}

        # one bad regret reactivates
        ledger.push_regret("offtopic", 0.4)
        active, skipped = select_agents(query(), agents, ledger, policy)
        assert {s.agent_id for s in active} == {"traveler", "offtopic"}

    def test_compatible_agent_never_skipped(self):
        policy = ActivationPolicy(mode=ActivationMode.DYNAMIC, window=1,
                                  compatibility_min=0.0)
        ledger = FairnessLedger(["traveler"], window=1)
        ledger.push_regret("traveler", 0.0)
        active, skipped = select_agents(query(), [THREE_AGENTS[0]], ledger, policy)
        assert len(active) == 1

    def test_all_skipped_raises(self):
        policy = ActivationPolicy(mode=ActivationMode.DYNAMIC, window=1,
                                  compatibility_min=0.9)
        offtopic = spec("offtopic", AgentObjective.RELEVANCE,
                        tags=frozenset({"food"}))
        ledger = FairnessLedger(["offtopic"], window=1)
        ledger.push_regret("offtopic", 0.0)
        with pytest.raises(NoActiveAgents):
            select_agents(query(), [offtopic], ledger, policy)


class TestCandidateCount:
    def test_doubles_slate(self):
        assert candidate_count_policy(5) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            candidate_count_policy(0)


class TestProcessQuery:
    def run(self, q=None, agents=THREE_AGENTS):
        ledger = FairnessLedger([s.agent_id for s in agents], window=10)
        return process_query(
            q or query(), agents, CATALOG, ledger, ActivationPolicy(), RuleConfig()
        )

    def test_final_list_truncated_to_top_n(self):
        outcome, _ = self.run()
        assert len(outcome.final_list) == 3
        assert len(set(outcome.final_list)) == 3
        assert all(item in CATALOG for item in outcome.final_list)

    def test_every_agent_votes_and_is_measured(self):
        outcome, _ = self.run()
        assert {b.agent_id for b in outcome.per_agent_ballots} == {
            "traveler", "providers", "ecology"
        }
        assert set(outcome.per_agent_regret) == {"traveler", "providers", "ecology"}
        assert set(outcome.per_agent_achieved) == {"traveler", "providers", "ecology"}

    def test_ledger_advances(self):
        ledger = FairnessLedger([s.agent_id for s in THREE_AGENTS], window=10)
        process_query(query(), THREE_AGENTS, CATALOG, ledger, ActivationPolicy(),
                      RuleConfig())
        assert len(ledger.per_agent["traveler"]) == 1
        assert sum(ledger.exposure.as_mapping().values()) > 0.0

    def test_ballot_weights_are_reliability(self):
        outcome, ledger = self.run()
        for ballot in outcome.per_agent_ballots:
            assert ballot.weight == pytest.approx(ledger.reliability[ballot.agent_id])

    def test_constraint_heavy_query_drops_relevance_agent(self):
        # no item satisfies this, so the relevance agent produces an empty
        # ballot and is skipped; the other two still vote
        q = query(constraints=(Constraint("price", "<=", 0.0),))
        outcome, ledger = self.run(q)
        assert outcome.skipped_agents == {"traveler": "empty ballot"}
        assert {b.agent_id for b in outcome.per_agent_ballots} == {
            "providers", "ecology"
        }
        # empty ballots carry no reliability penalty
        assert ledger.reliability["traveler"] == pytest.approx(1.0)

    def test_skipped_agent_still_measured(self):
        q = query(constraints=(Constraint("price", "<=", 0.0),))
        outcome, _ = self.run(q)
        assert "traveler" in outcome.per_agent_regret

    def test_stage_calls_recorded(self):
        outcome, _ = self.run()
        assert outcome.stage_calls["generate"] == 3
        assert outcome.stage_calls["ground"] == 3
        assert outcome.stage_calls["aggregate"] == 1
        assert outcome.stage_calls["evaluate"] == 3

    def test_empty_catalog_rejected(self):
        ledger = FairnessLedger(["traveler"], window=10)
        with pytest.raises(ValueError):
            process_query(query(), [THREE_AGENTS[0]], Catalog([]), ledger,
                          ActivationPolicy(), RuleConfig())


class TestSharedObjectiveMonitoring:
    """Agents with one objective metric share its evaluation within a query."""

    AGENTS = [
        spec("traveler", AgentObjective.RELEVANCE),
        spec("curator", AgentObjective.POPULARITY_MITIGATION, target=0.4,
             role=StakeholderRole.THIRD_PARTY),
        spec("providers", AgentObjective.PROVIDER_EXPOSURE,
             metric=MetricId.GINI_EXPOSURE, target=0.3,
             role=StakeholderRole.PROVIDER),
        spec("ecology", AgentObjective.POPULARITY_MITIGATION,
             metric=MetricId.POP_LIFT, target=0.1,
             role=StakeholderRole.THIRD_PARTY),
    ]
    QUERIES = [
        query("q1"),
        query("q2", preference_weights={"beach": 1.0}),
        query("q3", preference_weights={"market": 1.0, "food": 0.2}, top_n=2),
    ]

    def test_each_metric_once_and_every_agent_as_if_alone(self):
        ledger = FairnessLedger([s.agent_id for s in self.AGENTS], window=10)
        ndcg_values = set()
        for q in self.QUERIES:
            exposure_after = ledger.exposure.as_mapping()
            with mock.patch.object(
                orchestrator, "evaluate_metric", wraps=evaluate_metric
            ) as evaluate:
                outcome, _ = process_query(
                    q, self.AGENTS, CATALOG, ledger, ActivationPolicy(), RuleConfig()
                )
            assert evaluate.call_count == 3  # NDCG, Gini exposure, PopLift
            for provider, credit in exposure_delta(outcome.final_list, CATALOG).items():
                exposure_after[provider] = exposure_after.get(provider, 0.0) + credit
            achieved, regret = {}, {}
            for s in self.AGENTS:
                value = evaluate_metric(
                    s.objective_metric, q, outcome.final_list, CATALOG, exposure_after
                )
                achieved[s.agent_id] = value
                regret[s.agent_id] = (
                    0.0 if value is None
                    else fairness_regret(s.objective_metric, s.objective_target, value)
                )
            assert outcome.per_agent_achieved == achieved
            assert outcome.per_agent_regret == regret
            assert outcome.stage_calls["evaluate"] == len(self.AGENTS)
            ndcg_values.add(achieved["traveler"])
        # the queries must score differently for a value reused across them to show
        assert len(ndcg_values) == len(self.QUERIES)


# one agent per directional metric; the tags leave "traveler" compatible with
# every query and each other agent with few, so the dynamic policy benches
MONITORED = [
    spec("traveler", AgentObjective.RELEVANCE, MetricId.NDCG, 0.9),
    spec("finder", AgentObjective.RELEVANCE, MetricId.RECALL, 0.9, frozenset({"beach"})),
    spec("providers", AgentObjective.PROVIDER_EXPOSURE, MetricId.GINI_EXPOSURE, 0.3,
         frozenset({"market", "food"}), StakeholderRole.PROVIDER),
    spec("spread", AgentObjective.PROVIDER_EXPOSURE, MetricId.NORM_ENTROPY, 0.9,
         frozenset({"museum"}), StakeholderRole.PROVIDER),
    spec("taste", AgentObjective.POPULARITY_MITIGATION, MetricId.KL_DIV, 0.2,
         frozenset({"nature", "trail"}), StakeholderRole.THIRD_PARTY),
    spec("drift", AgentObjective.POPULARITY_MITIGATION, MetricId.JS_DIV, 0.1,
         frozenset({"art"}), StakeholderRole.THIRD_PARTY),
    spec("ecology", AgentObjective.POPULARITY_MITIGATION, MetricId.POP_LIFT, 0.0,
         frozenset({"culture"}), StakeholderRole.THIRD_PARTY),
]


@pytest.fixture(scope="module")
def monitored_streams():
    """(catalog, queries) of the tourism scenario, and of the first 40
    synthetic-200 queries at seed 7, each given a 3-item history."""
    tourism = dataio.load_scenario("builtin:tourism")
    synthetic = dataio.load_scenario("builtin:synthetic-200", seed_override=7)
    ids = synthetic.catalog.ids
    queries = [
        dataclasses.replace(q, user_history=tuple(ids[(7 * i + 61 * j) % 200] for j in range(3)))
        for i, q in enumerate(synthetic.queries[:40])
    ]
    return [(tourism.catalog, tourism.queries), (synthetic.catalog, queries)]


class TestMonitorAgreesWithReport:
    """Each agent's value of its objective metric, as the monitor saved it
    in ``per_agent_achieved``, is the report's value of that metric for the
    same outcome, float for float, and None where the report has none: the
    individual and the collective evaluation agree."""

    POLICIES = [
        ActivationPolicy(),
        ActivationPolicy(ActivationMode.DYNAMIC, fairness_threshold=0.5, window=2,
                         compatibility_min=0.5),
    ]

    @pytest.mark.parametrize("rule", list(Rule))
    def test_per_agent_achieved_is_the_report_value(self, monitored_streams, rule):
        scored = dict.fromkeys((s.objective_metric for s in MONITORED), 0)
        benched = 0
        for (catalog, queries), policy in itertools.product(monitored_streams, self.POLICIES):
            outcomes, _ = run_stream(queries, MONITORED, catalog, policy, RuleConfig(rule=rule))
            report = build_report(outcomes, MONITORED, catalog)
            for outcome, evaluation in zip(outcomes, report.per_query):
                benched += len(outcome.skipped_agents)
                for s in MONITORED:
                    got = outcome.per_agent_achieved[s.agent_id]
                    want = evaluation.values.get(s.objective_metric.value)
                    where = (outcome.query_id, s.agent_id, got, want)
                    if want is None:
                        assert got is None, where
                    else:
                        assert got is not None and got.hex() == want.hex(), where
                        scored[s.objective_metric] += 1
        # every metric was compared on a value, and the dynamic policy benched
        assert min(scored.values()) > 0, scored
        assert benched > 0


class TestAdapterFailureHandling:
    def test_unreachable_external_agent_is_dropped_not_fatal(self):
        agents = THREE_AGENTS + [
            AgentSpec(
                agent_id="remote",
                role=StakeholderRole.THIRD_PARTY,
                objective=AgentObjective.EXTERNAL,
                objective_metric=MetricId.NDCG,
                objective_target=0.5,
                params={"endpoint": "http://127.0.0.1:1", "timeout_s": 0.5},
            )
        ]
        ledger = FairnessLedger([s.agent_id for s in agents], window=10)
        outcome, ledger = process_query(
            query(), agents, CATALOG, ledger, ActivationPolicy(), RuleConfig()
        )
        assert outcome.skipped_agents == {"remote": "adapter malformed response"}
        assert "remote" not in {b.agent_id for b in outcome.per_agent_ballots}
        # hard failure counts as a fully violating single-item ballot
        assert ledger.reliability["remote"] == pytest.approx(0.5)

    def test_deeply_nested_reply_drops_the_agent_and_the_stream_goes_on(self):
        agents = THREE_AGENTS + [
            AgentSpec(
                agent_id="remote",
                role=StakeholderRole.THIRD_PARTY,
                objective=AgentObjective.EXTERNAL,
                objective_metric=MetricId.NDCG,
                objective_target=0.5,
                params={"endpoint": "mock://"},
            )
        ]
        queries = [query(qid=f"q{i}") for i in range(3)]
        with mock.patch.object(adapter, "mock_serve", return_value=b"[" * 100000) as serve:
            outcomes, ledger = run_stream(
                queries, agents, CATALOG, ActivationPolicy(), RuleConfig()
            )
        assert serve.call_count == 3
        assert [o.query_id for o in outcomes] == ["q0", "q1", "q2"]
        for outcome in outcomes:
            assert outcome.skipped_agents == {"remote": "adapter malformed response"}
            assert {b.agent_id for b in outcome.per_agent_ballots} == {
                "traveler", "providers", "ecology"
            }
        # each query was committed to the ledger
        assert all(len(regrets) == 3 for regrets in ledger.per_agent.values())

    def test_all_agents_failing_raises(self):
        remote_only = [
            AgentSpec(
                agent_id="remote",
                role=StakeholderRole.THIRD_PARTY,
                objective=AgentObjective.EXTERNAL,
                objective_metric=MetricId.NDCG,
                objective_target=0.5,
                params={"endpoint": "http://127.0.0.1:1", "timeout_s": 0.5},
            )
        ]
        ledger = FairnessLedger(["remote"], window=10)
        with pytest.raises(NoActiveAgents):
            process_query(query(), remote_only, CATALOG, ledger,
                          ActivationPolicy(), RuleConfig())


def ledger_fields(ledger):
    """Every ledger field but the Kemeny memo, a cache, as plain values."""
    fields = {key: value for key, value in vars(ledger).items() if key != "kemeny_memo"}
    fields["exposure"] = ledger.exposure.as_mapping()
    return copy.deepcopy(fields)


class Injected(Exception):
    pass


class TestOneLedgerCommit:
    """``_commit`` is the only writer of the ledger, so a query that raises
    leaves it as it was."""

    FAILING_REMOTE = AgentSpec(
        agent_id="remote",
        role=StakeholderRole.THIRD_PARTY,
        objective=AgentObjective.EXTERNAL,
        objective_metric=MetricId.NDCG,
        objective_target=0.5,
        params={"endpoint": "mock://"},
    )
    POLICIES = {
        "static": ActivationPolicy(),
        "dynamic": ActivationPolicy(mode=ActivationMode.DYNAMIC, window=2,
                                    fairness_threshold=1.0, compatibility_min=0.5),
    }
    HEURISTIC_KEMENY = RuleConfig(rule=Rule.KEMENY, kemeny_exact_limit=2,
                                  kemeny_search_iters=20)
    STAGES = ("generate_candidates", "validate_ballot", "aggregate", "evaluate_metric",
              "exposure_delta")

    def fresh_ledger(self, tourism, policy):
        specs = [*tourism.agents, self.FAILING_REMOTE]
        return specs, FairnessLedger([s.agent_id for s in specs], policy.window)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_stage_writes_the_ledger(self, tourism, policy):
        policy = self.POLICIES[policy]
        specs, ledger = self.fresh_ledger(tourism, policy)
        fresh = ledger_fields(ledger)
        with mock.patch.object(adapter, "mock_serve", return_value=b"{"), \
                mock.patch.object(orchestrator, "_commit") as commit:
            for n, q in enumerate(tourism.queries, start=1):
                outcome, _ = process_query(q, specs, tourism.catalog, ledger, policy,
                                           self.HEURISTIC_KEMENY)
                assert outcome.skipped_agents["remote"] == "adapter malformed response"
                assert commit.call_count == n
                assert ledger_fields(ledger) == fresh
        # the memo is a cache, and the one thing the stages may fill
        assert ledger.kemeny_memo.nbytes > 0
        # the commit the stages skipped holds every write
        states, regrets, credits = commit.call_args.args[1:]
        assert set(states) == set(regrets) == {s.agent_id for s in specs}
        assert credits == exposure_delta(outcome.final_list, tourism.catalog)

    @settings(max_examples=60, deadline=None)
    @given(
        stage=st.sampled_from(STAGES + ("grounding drops every ballot",)),
        policy=st.sampled_from(sorted(POLICIES)),
        before=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_a_query_that_raises_leaves_the_ledger_as_it_was(
        self, tourism, stage, policy, before, data
    ):
        policy = self.POLICIES[policy]

        def ledger_after_queries():
            specs, ledger = self.fresh_ledger(tourism, policy)
            for q in tourism.queries[:before]:
                process_query(q, specs, tourism.catalog, ledger, policy, tourism.rule_config)
            return specs, ledger

        def target(specs, ledger):
            return process_query(tourism.queries[before], specs, tourism.catalog, ledger,
                                 policy, tourism.rule_config)

        with mock.patch.object(adapter, "mock_serve", return_value=b"{"):
            if stage not in self.STAGES:
                specs, ledger = ledger_after_queries()
                snapshot = ledger_fields(ledger)
                fault = EmptyAfterGrounding("injected")
                with mock.patch.object(orchestrator, "validate_ballot", side_effect=fault), \
                        pytest.raises(NoActiveAgents):
                    target(specs, ledger)
                assert ledger_fields(ledger) == snapshot
                return
            original = getattr(orchestrator, stage)
            replay = ledger_after_queries()
            with mock.patch.object(orchestrator, stage, wraps=original) as spy:
                target(*replay)
            raise_at = data.draw(st.integers(0, spy.call_count - 1), label="failing call")
            calls = itertools.count()

            def fault(*args, **kwargs):
                if next(calls) == raise_at:
                    raise Injected(stage)
                return original(*args, **kwargs)

            specs, ledger = ledger_after_queries()
            snapshot = ledger_fields(ledger)
            with mock.patch.object(orchestrator, stage, fault), pytest.raises(Injected):
                target(specs, ledger)
            assert ledger_fields(ledger) == snapshot


class TestKemenyMemo:
    CONFIG = RuleConfig(rule=Rule.KEMENY, kemeny_exact_limit=2, kemeny_search_iters=50)

    def queries(self):
        weights = [{"nature": 1.0}, {"beach": 0.4, "food": 0.7}, {"culture": 1 / 3}]
        return [query(qid=f"q{i}", preference_weights=w) for i, w in enumerate(weights * 2)]

    def test_a_fresh_ledger_starts_with_an_empty_memo(self):
        assert FairnessLedger(["a"], window=1).kemeny_memo.nbytes == 0

    def test_each_stream_fills_its_own_memo(self):
        runs = [
            run_stream(self.queries(), THREE_AGENTS, CATALOG, ActivationPolicy(), self.CONFIG)
            for _ in range(2)
        ]
        (first, first_ledger), (second, second_ledger) = runs
        assert first == second
        assert first_ledger.kemeny_memo is not second_ledger.kemeny_memo
        # the second stream found nothing left over from the first
        assert 0 < first_ledger.kemeny_memo.nbytes == second_ledger.kemeny_memo.nbytes

    def test_stream_results_equal_memo_less_aggregation(self):
        outcomes, _ = run_stream(
            self.queries(), THREE_AGENTS, CATALOG, ActivationPolicy(), self.CONFIG
        )
        assert all(o.aggregate.rule == "kemeny-heuristic" for o in outcomes)
        for outcome in outcomes:
            profile = PreferenceProfile.from_ballots(outcome.per_agent_ballots)
            assert aggregate(profile, self.CONFIG) == outcome.aggregate


class TestRunStream:
    def queries(self, n=4):
        return [query(qid=f"q{i}") for i in range(n)]

    def test_processes_in_order(self):
        outcomes, ledger = run_stream(
            self.queries(), THREE_AGENTS, CATALOG, ActivationPolicy(), RuleConfig()
        )
        assert [o.query_id for o in outcomes] == ["q0", "q1", "q2", "q3"]
        assert all(len(regrets) == 4 for regrets in ledger.per_agent.values())

    def test_exposure_accumulates_and_feeds_parity_agent(self):
        outcomes, _ = run_stream(
            self.queries(), THREE_AGENTS, CATALOG, ActivationPolicy(), RuleConfig()
        )
        first = next(b for b in outcomes[0].per_agent_ballots
                     if b.agent_id == "providers")
        later = next(b for b in outcomes[-1].per_agent_ballots
                     if b.agent_id == "providers")
        # on a fresh ledger the parity agent sees zero exposure; by the last
        # query it promotes whichever provider accumulated least
        assert "cumulative exposure 0.000000" in first.justification
        assert "cumulative exposure 0.000000" not in later.justification

        accrued: dict[str, float] = {}
        for outcome in outcomes[:-1]:
            for provider, credit in exposure_delta(outcome.final_list, CATALOG).items():
                accrued[provider] = accrued.get(provider, 0.0) + credit
        top_provider = CATALOG.provider_of(later.ranking[0])
        floor = min(accrued.get(p, 0.0) for p in CATALOG.providers)
        assert accrued.get(top_provider, 0.0) == pytest.approx(floor)

    def test_rerun_is_identical(self):
        first, _ = run_stream(self.queries(), THREE_AGENTS, CATALOG,
                              ActivationPolicy(), RuleConfig())
        second, _ = run_stream(self.queries(), THREE_AGENTS, CATALOG,
                               ActivationPolicy(), RuleConfig())
        assert [o.final_list for o in first] == [o.final_list for o in second]
        assert [o.per_agent_regret for o in first] == [
            o.per_agent_regret for o in second
        ]

    @pytest.mark.parametrize("rule", list(Rule))
    def test_all_rules_complete(self, rule):
        outcomes, _ = run_stream(
            self.queries(2), THREE_AGENTS, CATALOG, ActivationPolicy(),
            RuleConfig(rule=rule),
        )
        assert all(len(o.final_list) == 3 for o in outcomes)

    def test_per_query_log_is_debug_only(self, caplog):
        with caplog.at_level(logging.INFO, logger="agorank"):
            run_stream(self.queries(3), THREE_AGENTS, CATALOG, ActivationPolicy(), RuleConfig())
        assert caplog.records == []

        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="agorank"):
            run_stream(self.queries(3), THREE_AGENTS, CATALOG, ActivationPolicy(), RuleConfig())
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "query q0", "query q1", "query q2"
        ]
