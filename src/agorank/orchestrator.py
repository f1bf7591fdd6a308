"""Per-query pipeline: activation, candidate generation, grounding,
aggregation, result assembly, and cross-query fairness bookkeeping.

Queries are processed strictly in stream order because the fairness ledger
(regret windows, provider exposure, reliability weights) carries state
between them.  Candidate generation within one query may fan out to a thread
pool; results are collected in agent-id order so concurrency never changes
any output byte.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .aggregation import KemenyMemo, RuleConfig, aggregate
from .agents import (
    AgentSpec,
    AgentState,
    ExposureLedger,
    generate_candidates,
    update_reliability,
)
from .errors import (
    AdapterMalformed,
    AdapterTimeout,
    EmptyAfterGrounding,
    NoActiveAgents,
)
from .metrics import MetricId, evaluate_metric, exposure_delta, fairness_regret
from .model import (
    AggregateResult,
    Ballot,
    Catalog,
    PreferenceProfile,
    Query,
    validate_ballot,
)

log = logging.getLogger("agorank")


class ActivationMode(Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class ActivationPolicy:
    """When to invoke an agent.

    Static mode invokes everyone on every query.  Dynamic mode skips an agent
    only when it is incompatible with the query (tag Jaccard below
    ``compatibility_min``) AND its last ``window`` regrets are all at or
    below ``fairness_threshold`` — an objective consistently met needs no
    advocate right now.  Agents with partially filled windows are never
    skipped.
    """

    mode: ActivationMode = ActivationMode.STATIC
    fairness_threshold: float = 0.1
    window: int = 10
    compatibility_min: float = 0.0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= self.compatibility_min <= 1.0:
            raise ValueError("compatibility_min must be in [0, 1]")
        if self.fairness_threshold < 0:
            raise ValueError("fairness_threshold must be >= 0")


class FairnessLedger:
    """All state the orchestrator carries across queries.

    Per-agent ring buffers of recent fairness regrets (driving dynamic
    activation), cumulative provider exposure (driving the parity agent and
    the exposure metrics), per-agent reliability state, and the stream's
    ``KemenyMemo``: the local optima each Kemeny restart search visited,
    keyed by (seed, pass budget, pool size, strict-majority relation in
    Borda-start coordinates), and each search's pick, keyed by (seed, pass
    budget, Borda start, tally).  A later query or leave-one-out profile
    whose relation reads the same in its own Borda order skips the climbs
    and prices the stored optima against its own tally; one with an equal
    start and tally also skips the pricing.  A fresh ledger starts with an
    empty memo.
    """

    def __init__(self, agent_ids: Sequence[str], window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.per_agent: dict[str, deque[float]] = {
            a: deque(maxlen=window) for a in sorted(agent_ids)
        }
        self.exposure = ExposureLedger()
        self.queries_processed = 0
        self.agent_states: dict[str, AgentState] = {a: AgentState() for a in agent_ids}
        self.kemeny_memo = KemenyMemo()

    def push_regret(self, agent_id: str, regret: float) -> None:
        if regret < 0:
            raise ValueError("regret must be >= 0")
        self.per_agent[agent_id].append(regret)


def compatibility(query: Query, spec: AgentSpec) -> float:
    """Jaccard overlap of query preference categories with agent tags.

    Agents with no tags are compatible with everything (1.0).
    """
    if not spec.compatibility_tags:
        return 1.0
    q = query.preference_categories()
    union = q | spec.compatibility_tags
    if not union:
        return 1.0
    return len(q & spec.compatibility_tags) / len(union)


SKIP_REASON_MET = "objective consistently met"


def select_agents(
    query: Query,
    specs: Sequence[AgentSpec],
    ledger: FairnessLedger,
    policy: ActivationPolicy,
) -> tuple[list[AgentSpec], dict[str, str]]:
    """Split agents into active and skipped for this query.

    Raises:
        NoActiveAgents: if the policy deactivates everyone (misconfiguration
            must surface, not silently produce an empty answer).
    """
    if not specs:
        raise ValueError("specs must be non-empty")
    if policy.mode is ActivationMode.STATIC:
        return list(specs), {}
    active: list[AgentSpec] = []
    skipped: dict[str, str] = {}
    for spec in specs:
        compatible = compatibility(query, spec) >= policy.compatibility_min
        buffer = ledger.per_agent[spec.agent_id]
        met = len(buffer) == policy.window and all(
            r <= policy.fairness_threshold for r in buffer
        )
        if compatible or not met:
            active.append(spec)
        else:
            skipped[spec.agent_id] = SKIP_REASON_MET
    if not active:
        raise NoActiveAgents("activation policy deactivated every agent")
    return active, skipped


def candidate_count_policy(top_n: int) -> int:
    """Candidates requested per agent: double the slate gives aggregation
    genuine reordering room."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    return 2 * top_n


@dataclass(frozen=True)
class QueryOutcome:
    """Everything recorded about one processed query.

    ``per_agent_ballots`` are the grounded ballots as voted (audit trail);
    ``skipped_agents`` covers both policy skips and mid-pipeline drops, with
    reasons.  ``per_agent_achieved``/``per_agent_regret`` cover every
    configured agent, voting or not: monitoring is decoupled from voting.
    """

    query_id: str
    final_list: tuple[str, ...]
    per_agent_ballots: tuple[Ballot, ...]
    aggregate: AggregateResult
    skipped_agents: Mapping[str, str]
    justifications: Mapping[str, str]
    query: Query
    per_agent_achieved: Mapping[str, float | None]
    per_agent_regret: Mapping[str, float]
    stage_calls: Mapping[str, int]


def _generate_all(
    active: Sequence[AgentSpec],
    query: Query,
    catalog: Catalog,
    exposure: ExposureLedger,
    k: int,
    adapter_url: str | None,
    parallel: bool,
) -> dict[str, Ballot | Exception]:
    """Run every active generator, capturing per-agent adapter failures."""

    def run_one(spec: AgentSpec) -> Ballot:
        return generate_candidates(spec, query, catalog, exposure, k, adapter_url)

    results: dict[str, Ballot | Exception] = {}
    if parallel and len(active) > 1:
        with ThreadPoolExecutor(max_workers=len(active)) as pool:
            futures = {spec.agent_id: pool.submit(run_one, spec) for spec in active}
        for agent_id in sorted(futures):
            try:
                results[agent_id] = futures[agent_id].result()
            except (AdapterTimeout, AdapterMalformed) as exc:
                results[agent_id] = exc
    else:
        for spec in sorted(active, key=lambda s: s.agent_id):
            try:
                results[spec.agent_id] = run_one(spec)
            except (AdapterTimeout, AdapterMalformed) as exc:
                results[spec.agent_id] = exc
    return results


def process_query(
    query: Query,
    specs: Sequence[AgentSpec],
    catalog: Catalog,
    ledger: FairnessLedger,
    policy: ActivationPolicy,
    rule_config: RuleConfig,
    parallel: bool = False,
    adapter_url: str | None = None,
    lam: float = 0.5,
    w_min: float = 0.1,
) -> tuple[QueryOutcome, FairnessLedger]:
    """Run the full pipeline for one query, updating the ledger in place.

    Agents whose ballots die (adapter failure, empty generation, nothing
    surviving grounding) are dropped with a recorded reason and a reliability
    penalty; the query fails with NoActiveAgents only if nobody survives.
    """
    if len(catalog) == 0:
        raise ValueError("catalog must be non-empty")
    stage_calls = {"generate": 0, "ground": 0, "aggregate": 0, "evaluate": 0}

    active, skipped = select_agents(query, specs, ledger, policy)
    k = candidate_count_policy(query.top_n)

    raw_results = _generate_all(
        active, query, catalog, ledger.exposure, k, adapter_url, parallel
    )
    stage_calls["generate"] = len(active)

    ballots: list[Ballot] = []
    justifications: dict[str, str] = {}
    for agent_id in sorted(raw_results):
        raw = raw_results[agent_id]
        state = ledger.agent_states[agent_id]
        if isinstance(raw, Exception):
            kind = "timeout" if isinstance(raw, AdapterTimeout) else "malformed response"
            skipped[agent_id] = f"adapter {kind}"
            ledger.agent_states[agent_id] = update_reliability(state, 1, 1, lam, w_min)
            continue
        if not raw.ranking:
            skipped[agent_id] = "empty ballot"
            ledger.agent_states[agent_id] = update_reliability(state, 0, 0, lam, w_min)
            continue
        stage_calls["ground"] += 1
        try:
            grounded, violations = validate_ballot(raw, catalog)
        except EmptyAfterGrounding:
            skipped[agent_id] = "no ballot items exist in the catalog"
            ledger.agent_states[agent_id] = update_reliability(
                state, len(raw.ranking), len(raw.ranking), lam, w_min
            )
            continue
        new_state = update_reliability(state, violations, len(raw.ranking), lam, w_min)
        ledger.agent_states[agent_id] = new_state
        ballots.append(replace(grounded, weight=new_state.reliability_weight))
        if grounded.justification is not None:
            justifications[agent_id] = grounded.justification

    if not ballots:
        raise NoActiveAgents("every active agent was dropped during this query")

    profile = PreferenceProfile.from_ballots(ballots)
    result = aggregate(profile, rule_config, ledger.kemeny_memo)
    stage_calls["aggregate"] = 1

    final_list = result.consensus[: query.top_n]

    # monitoring covers every configured agent, voting or not, against the
    # exposure state as it stands after this query's recommendations; a
    # metric's value depends on nothing agent-specific, so agents sharing an
    # objective metric share one evaluation
    exposure_after = ledger.exposure.as_mapping()
    delta = exposure_delta(final_list, catalog)
    for provider, credit in delta.items():
        exposure_after[provider] = exposure_after.get(provider, 0.0) + credit
    achieved_by_metric: dict[MetricId, float | None] = {}
    achieved_map: dict[str, float | None] = {}
    regret_map: dict[str, float] = {}
    for spec in sorted(specs, key=lambda s: s.agent_id):
        metric = spec.objective_metric
        if metric not in achieved_by_metric:
            achieved_by_metric[metric] = evaluate_metric(
                metric, query, final_list, catalog, exposure_after
            )
        achieved = achieved_by_metric[metric]
        regret = (
            0.0
            if achieved is None
            else fairness_regret(metric, spec.objective_target, achieved)
        )
        achieved_map[spec.agent_id] = achieved
        regret_map[spec.agent_id] = regret
        ledger.push_regret(spec.agent_id, regret)
        stage_calls["evaluate"] += 1

    for provider, credit in delta.items():
        ledger.exposure.add(provider, credit)
    ledger.queries_processed += 1

    outcome = QueryOutcome(
        query_id=query.id,
        final_list=final_list,
        per_agent_ballots=tuple(ballots),
        aggregate=result,
        skipped_agents=skipped,
        justifications=justifications,
        query=query,
        per_agent_achieved=achieved_map,
        per_agent_regret=regret_map,
        stage_calls=stage_calls,
    )
    return outcome, ledger


def run_stream(
    queries: Sequence[Query],
    specs: Sequence[AgentSpec],
    catalog: Catalog,
    policy: ActivationPolicy,
    rule_config: RuleConfig,
    parallel: bool = False,
    adapter_url: str | None = None,
) -> tuple[list[QueryOutcome], FairnessLedger]:
    """Process a query stream in order over a fresh ledger."""
    ledger = FairnessLedger([s.agent_id for s in specs], policy.window)
    outcomes: list[QueryOutcome] = []
    for query in queries:
        t0 = time.perf_counter()
        outcome, ledger = process_query(
            query, specs, catalog, ledger, policy, rule_config, parallel, adapter_url
        )
        wall = time.perf_counter() - t0
        voted = sorted({b.agent_id for b in outcome.per_agent_ballots})
        log.debug(
            "query %s: agents=%s rule=%s wall=%.4fs",
            query.id,
            ",".join(voted),
            outcome.aggregate.rule,
            wall,
        )
        outcomes.append(outcome)
    return outcomes, ledger
