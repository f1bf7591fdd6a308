"""Acceptance battery: one test per numbered criterion.

The voting-rule criteria check the library against naive reference
implementations written directly in this file (exhaustive scoring and
permutation search, networkx for graph reachability), deliberately sharing no
code with the module under test.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import networkx as nx
import pytest

from agorank.aggregation import (
    Rule,
    RuleConfig,
    aggregate,
    kemeny_distance,
    pairwise_tally,
    rule_borda,
    rule_copeland,
    rule_kemeny,
    rule_ranked_pairs,
)
from agorank.agents import AgentObjective, AgentSpec
from agorank.metrics import (
    MetricId,
    build_report,
    divergence,
    exposure_delta,
    gini_exposure,
    l_half_balance,
    ndcg_at_k,
    normalized_entropy,
    poplift,
)
from agorank.model import (
    Ballot,
    Catalog,
    Item,
    PreferenceProfile,
    Query,
    StakeholderRole,
)
from agorank.orchestrator import (
    ActivationMode,
    ActivationPolicy,
    FairnessLedger,
    process_query,
    run_stream,
    select_agents,
)

RULE_FN = {
    Rule.BORDA: rule_borda,
    Rule.COPELAND: rule_copeland,
    Rule.RANKED_PAIRS: rule_ranked_pairs,
    Rule.KEMENY: rule_kemeny,
}


def consensus_of(profile, config):
    return RULE_FN[config.rule](profile, config).consensus


# --------------------------------------------------------------------------
# naive references (independent of the aggregation module)


def naive_pairwise_counts(rankings, items):
    counts = {(a, b): 0 for a in items for b in items if a != b}
    for ranking in rankings:
        pos = {x: i for i, x in enumerate(ranking)}
        for a, b in itertools.permutations(items, 2):
            if pos[a] < pos[b]:
                counts[(a, b)] += 1
    return counts


def naive_borda(rankings, items):
    m = len(items)
    totals = {x: 0 for x in items}
    for ranking in rankings:
        for i, x in enumerate(ranking):
            totals[x] += m - 1 - i
    return tuple(sorted(totals, key=lambda x: (-totals[x], x)))


def naive_copeland(rankings, items):
    counts = naive_pairwise_counts(rankings, items)
    scores = {}
    for a in items:
        score = 0.0
        for b in items:
            if a == b:
                continue
            if counts[a, b] > counts[b, a]:
                score += 1.0
            elif counts[a, b] == counts[b, a]:
                score += 0.5
        scores[a] = score
    return tuple(sorted(scores, key=lambda x: (-scores[x], x)))


def naive_ranked_pairs(rankings, items):
    counts = naive_pairwise_counts(rankings, items)
    majorities = []
    for a, b in itertools.permutations(items, 2):
        margin = counts[a, b] - counts[b, a]
        if margin > 0:
            majorities.append((margin, a, b))
    majorities.sort(key=lambda t: (-t[0], t[1], t[2]))
    graph = nx.DiGraph()
    graph.add_nodes_from(items)
    for _, a, b in majorities:
        if nx.has_path(graph, b, a):
            continue
        graph.add_edge(a, b)
    return tuple(nx.lexicographical_topological_sort(graph))


def naive_ballot_disagreements(perm, ranking):
    pos = {x: i for i, x in enumerate(ranking)}
    d = 0
    for i, a in enumerate(perm):
        for b in perm[i + 1 :]:
            if pos[a] > pos[b]:
                d += 1
    return d


def naive_kemeny(rankings, items):
    best = None
    best_dist = None
    for perm in itertools.permutations(sorted(items)):
        dist = sum(naive_ballot_disagreements(perm, r) for r in rankings)
        if best_dist is None or dist < best_dist:
            best, best_dist = perm, dist
    return best, best_dist


# --------------------------------------------------------------------------
# criteria


def test_criterion01_rule_oracle_equivalence():
    items = ("A", "B", "C")
    perms = list(itertools.permutations(items))
    config = RuleConfig()
    kemeny_config = RuleConfig(rule=Rule.KEMENY)
    started = time.perf_counter()
    checked = 0
    for combo in itertools.product(perms, repeat=3):
        profile = PreferenceProfile.from_ballots(
            [Ballot(f"a{i}", r) for i, r in enumerate(combo)]
        )
        assert rule_borda(profile, config).consensus == naive_borda(combo, items)
        assert rule_copeland(profile, config).consensus == naive_copeland(combo, items)
        assert rule_ranked_pairs(profile, config).consensus == naive_ranked_pairs(
            combo, items
        )
        expected, expected_dist = naive_kemeny(combo, items)
        result = rule_kemeny(profile, kemeny_config)
        assert result.rule == "kemeny"
        assert result.consensus == expected
        assert kemeny_distance(result.consensus, pairwise_tally(profile)) == float(
            expected_dist
        )
        checked += 1
    assert checked == 216
    assert time.perf_counter() - started < 60.0


def test_criterion02_kemeny_weighted_optimality():
    items = ("v", "w", "x", "y", "z")
    rng = random.Random(4821)
    config = RuleConfig(rule=Rule.KEMENY)
    all_perms = list(itertools.permutations(items))
    for _ in range(200):
        ballots = []
        for a in range(7):
            ranking = list(items)
            rng.shuffle(ranking)
            # eighths keep every weighted sum exactly representable, so the
            # no-tolerance equality below is meaningful
            weight = rng.randrange(1, 9) / 8.0
            ballots.append(Ballot(f"agent{a}", tuple(ranking), weight=weight))
        profile = PreferenceProfile.from_ballots(ballots)
        result = rule_kemeny(profile, config)
        assert result.rule == "kemeny"
        achieved = kemeny_distance(result.consensus, pairwise_tally(profile))
        naive_min = min(
            sum(
                b.weight * naive_ballot_disagreements(perm, b.ranking)
                for b in ballots
            )
            for perm in all_perms
        )
        assert achieved == naive_min


def test_criterion03_condorcet_consistency():
    items = ("p", "q", "r", "s")
    rng = random.Random(1337)
    copeland = RuleConfig(rule=Rule.COPELAND)
    ranked_pairs = RuleConfig(rule=Rule.RANKED_PAIRS)
    for _ in range(1000):
        winner = rng.choice(items)
        ballots = []
        for a in range(5):
            rest = [x for x in items if x != winner]
            rng.shuffle(rest)
            if a < 3:
                ranking = (winner, *rest)
            else:
                rest.insert(rng.randrange(len(rest) + 1), winner)
                ranking = tuple(rest)
            ballots.append(Ballot(f"a{a}", ranking))
        profile = PreferenceProfile.from_ballots(ballots)
        tally = pairwise_tally(profile)
        margins = tally.matrix - tally.matrix.T
        row = margins[tally.pool.index(winner)]
        # construction check: three of five first places force a strict
        # pairwise winner
        assert all(row[j] > 0 for j, x in enumerate(tally.pool) if x != winner)
        assert rule_copeland(profile, copeland).consensus[0] == winner
        assert rule_ranked_pairs(profile, ranked_pairs).consensus[0] == winner


def test_criterion04_axiom_suite():
    rng = random.Random(2026)
    configs = [RuleConfig(rule=r) for r in Rule]
    for _ in range(500):
        m = rng.randrange(3, 6)
        n = rng.randrange(2, 6)
        items = tuple(f"c{i}" for i in range(m))
        rankings = []
        for _a in range(n):
            ranking = list(items)
            rng.shuffle(ranking)
            rankings.append(tuple(ranking))
        # weight 0.5 scales every tally exactly, so weighted and unweighted
        # runs must agree bit for bit
        base = [Ballot(f"a{i}", r, weight=0.5) for i, r in enumerate(rankings)]
        profile = PreferenceProfile.from_ballots(base)
        shuffled = base[:]
        rng.shuffle(shuffled)
        shuffled_profile = PreferenceProfile.from_ballots(shuffled)
        relabel = {x: "m_" + x for x in items}  # order-preserving
        relabeled_profile = PreferenceProfile.from_ballots(
            [
                Ballot(b.agent_id, tuple(relabel[x] for x in b.ranking), weight=b.weight)
                for b in base
            ]
        )
        unanimous = PreferenceProfile.from_ballots(
            [Ballot(f"a{i}", rankings[0]) for i in range(n)]
        )
        for config in configs:
            consensus = consensus_of(profile, config)
            # anonymity
            assert consensus_of(shuffled_profile, config) == consensus
            # neutrality
            assert consensus_of(relabeled_profile, config) == tuple(
                relabel[x] for x in consensus
            )
            # weight removal
            no_weights = RuleConfig(
                rule=config.rule, use_weights=False, seed=config.seed
            )
            assert consensus_of(profile, no_weights) == consensus
            # unanimity
            assert consensus_of(unanimous, config) == rankings[0]


def test_criterion05_metric_identities():
    tol = 1e-9
    assert gini_exposure([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=tol)
    assert gini_exposure([0.0, 0.0, 0.0, 4.0]) == pytest.approx(0.75, abs=tol)
    assert normalized_entropy([0.25] * 4) == pytest.approx(1.0, abs=tol)
    assert normalized_entropy([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=tol)
    assert divergence([0.3, 0.7], [0.3, 0.7], "kl") == pytest.approx(0.0, abs=tol)

    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(2, 7)
        p = [rng.random() for _ in range(n)]
        q = [rng.random() for _ in range(n)]
        p = [v / sum(p) for v in p]
        q = [v / sum(q) for v in q]
        assert abs(divergence(p, q, "js") - divergence(q, p, "js")) <= 1e-12

    assert ndcg_at_k(["a", "b"], {"a": 1.0, "b": 0.4}, 2) == pytest.approx(1.0, abs=tol)
    assert ndcg_at_k(["low", "high"], {"low": 0.0, "high": 1.0}, 2) == pytest.approx(
        0.6309297536, abs=tol
    )

    catalog = Catalog(
        [
            Item(id="seen", provider_id="p", popularity=0.2),
            Item(id="new", provider_id="p", popularity=0.3),
        ]
    )
    assert poplift(["seen"], ["new"], catalog) == pytest.approx(0.5, abs=tol)
    assert l_half_balance([0.5, 0.5]) == pytest.approx(2.0, abs=tol)


def test_criterion06_activation_state_machine():
    policy = ActivationPolicy(
        mode=ActivationMode.DYNAMIC,
        fairness_threshold=0.1,
        window=3,
        compatibility_min=0.5,
    )
    monitored = AgentSpec(
        agent_id="monitored",
        role=StakeholderRole.THIRD_PARTY,
        objective=AgentObjective.POPULARITY_MITIGATION,
        objective_metric=MetricId.POP_LIFT,
        objective_target=0.1,
        compatibility_tags=frozenset({"offtopic"}),
    )
    companion = AgentSpec(
        agent_id="companion",
        role=StakeholderRole.USER,
        objective=AgentObjective.RELEVANCE,
        objective_metric=MetricId.NDCG,
        objective_target=0.9,
    )
    specs = [companion, monitored]
    ledger = FairnessLedger(["companion", "monitored"], window=3)
    query = Query(id="q", preference_weights={"beach": 1.0}, top_n=2)

    scripted_regrets = [0.0, 0.0, 0.0, 0.5, 0.0, 0.0]
    observed = []
    for regret in scripted_regrets:
        active, skipped = select_agents(query, specs, ledger, policy)
        assert any(s.agent_id == "companion" for s in active)
        if "monitored" in skipped:
            observed.append("skipped")
            assert skipped["monitored"] == "objective consistently met"
        else:
            observed.append("active")
        # measurement happens for every configured agent, voting or not
        ledger.push_regret("monitored", regret)
        ledger.push_regret("companion", 0.0)

    assert observed == ["active", "active", "active", "skipped", "active", "active"]


class _GhostHandler(BaseHTTPRequestHandler):
    """Returns k-1 genuine candidates plus one fabricated item id."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        ids = [c["id"] for c in body["candidates"]]
        items = ids[: body["k"] - 1] + ["ghost-item"]
        payload = json.dumps(
            {"items": items, "justification": "one id is fabricated"}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_criterion07_grounding_end_to_end(tourism):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _GhostHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        external = AgentSpec(
            agent_id="ghostly",
            role=StakeholderRole.THIRD_PARTY,
            objective=AgentObjective.EXTERNAL,
            objective_metric=MetricId.NDCG,
            objective_target=0.5,
            params={"endpoint": url},
        )
        specs = list(tourism.agents) + [external]

        k = 2 * tourism.queries[0].top_n
        assert k == 6
        ledger = FairnessLedger([s.agent_id for s in specs], tourism.policy.window)
        outcome, ledger = process_query(
            tourism.queries[0], specs, tourism.catalog, ledger, tourism.policy,
            tourism.rule_config,
        )
        ghost_ballot = next(
            b for b in outcome.per_agent_ballots if b.agent_id == "ghostly"
        )
        assert "ghost-item" not in ghost_ballot.ranking
        assert len(ghost_ballot.ranking) == k - 1
        expected = 1.0 * (1.0 - 0.5 * (1.0 / k))
        assert ledger.reliability["ghostly"] == expected

        outcomes, _ = run_stream(
            tourism.queries, specs, tourism.catalog, tourism.policy,
            tourism.rule_config,
        )
        for o in outcomes:
            assert "ghost-item" not in o.final_list
            for ballot in o.per_agent_ballots:
                assert "ghost-item" not in ballot.ranking
    finally:
        server.shutdown()
        server.server_close()


def test_criterion08_cli_byte_determinism(tmp_path):
    def launch(hash_seed, *args):
        # the warnings that pyproject's pytest filters make errors in this
        # process; each launch hashes strings under its own seed
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
             "-m", "agorank", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    for hash_seed, tag in (("0", "a"), ("1", "b")):
        launch(hash_seed, "run", "--scenario", "builtin:tourism", "--seed", "42",
               "--out", str(tmp_path / f"run_{tag}"))
        launch(hash_seed, "compare", "--scenario", "builtin:tourism", "--seed", "42",
               "--out", str(tmp_path / f"cmp_{tag}"))

    for stem_a, stem_b in (("run_a", "run_b"), ("cmp_a", "cmp_b")):
        for suffix in (".report.json", ".metrics.csv", ".summary.md"):
            a = (tmp_path / (stem_a + suffix)).read_bytes()
            b = (tmp_path / (stem_b + suffix)).read_bytes()
            assert a == b, f"{stem_a}{suffix} differs from {stem_b}{suffix}"


def test_criterion09_influence_sanity():
    identical = PreferenceProfile.from_ballots(
        [Ballot(f"a{i}", ("A", "B", "C")) for i in range(3)]
    )
    result = aggregate(identical, RuleConfig())
    assert set(result.influence.values()) == {0.0}

    opposite = PreferenceProfile.from_ballots(
        [
            Ballot("X", ("A", "B"), weight=1.0),
            Ballot("Y", ("B", "A"), weight=0.6),
        ]
    )
    result = aggregate(opposite, RuleConfig())
    assert result.influence == {"X": 1.0, "Y": 0.0}


def test_criterion10_performance_budget(synthetic_200):
    scenario = synthetic_200
    assert len(scenario.catalog) == 200
    assert len(scenario.queries) == 100

    started = time.perf_counter()
    outcomes, _ = run_stream(
        scenario.queries, scenario.agents, scenario.catalog, scenario.policy,
        scenario.rule_config,
    )
    build_report(outcomes, scenario.agents, scenario.catalog)
    run_elapsed = time.perf_counter() - started
    assert run_elapsed < 10.0, f"single-rule run took {run_elapsed:.2f}s"

    started = time.perf_counter()
    for rule in Rule:
        config = RuleConfig(
            rule=rule,
            use_weights=scenario.rule_config.use_weights,
            kemeny_exact_limit=scenario.rule_config.kemeny_exact_limit,
            kemeny_search_iters=scenario.rule_config.kemeny_search_iters,
            seed=scenario.rule_config.seed,
        )
        outcomes, _ = run_stream(
            scenario.queries, scenario.agents, scenario.catalog, scenario.policy,
            config,
        )
        build_report(outcomes, scenario.agents, scenario.catalog)
    compare_elapsed = time.perf_counter() - started
    assert compare_elapsed < 60.0, f"four-rule compare took {compare_elapsed:.2f}s"


def test_criterion11_directional_fairness(synthetic_200):
    scenario = synthetic_200
    catalog = scenario.catalog

    full_outcomes, _ = run_stream(
        scenario.queries, scenario.agents, catalog, scenario.policy,
        scenario.rule_config,
    )
    relevance_only = tuple(
        s for s in scenario.agents if s.objective is AgentObjective.RELEVANCE
    )
    assert len(relevance_only) == 1
    solo_outcomes, _ = run_stream(
        scenario.queries, relevance_only, catalog, scenario.policy,
        scenario.rule_config,
    )

    def mean_popularity(outcomes):
        pops = [catalog[i].popularity for o in outcomes for i in o.final_list]
        return sum(pops) / len(pops)

    def provider_gini(outcomes):
        exposure: dict[str, float] = {}
        for o in outcomes:
            for provider, credit in exposure_delta(o.final_list, catalog).items():
                exposure[provider] = exposure.get(provider, 0.0) + credit
        return gini_exposure([exposure.get(p, 0.0) for p in catalog.providers])

    assert mean_popularity(full_outcomes) < mean_popularity(solo_outcomes)
    assert provider_gini(full_outcomes) < provider_gini(solo_outcomes)
