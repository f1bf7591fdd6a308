"""Per-query pipeline: activation, candidate generation, grounding,
aggregation, result assembly, and cross-query fairness bookkeeping.

Queries are processed strictly in stream order because the fairness ledger
(regret windows, provider exposure, reliability weights) carries state
between them.  Within one query the active agents generate their ballots
one after another, in agent-id order.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .aggregation import KemenyMemo, RuleConfig, aggregate
from .agents import AgentSpec, ExposureLedger, generate_candidates, update_reliability
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
        # ``not >=`` refuses NaN too, under which no agent would be benched
        if not self.fairness_threshold >= 0:
            raise ValueError("fairness_threshold must be a number >= 0")


class FairnessLedger:
    """All state the orchestrator carries across queries.

    Per-agent ring buffers of recent fairness regrets (driving dynamic
    activation), cumulative provider exposure (driving the parity agent and
    the exposure metrics), each agent's reliability weight (its ballot's
    weight, 1.0 at the start), and the stream's
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
        # ``deque(maxlen=0)`` would take a window of 0 silently
        if window < 1:
            raise ValueError("window must be >= 1")
        self.per_agent: dict[str, deque[float]] = {
            a: deque(maxlen=window) for a in sorted(agent_ids)
        }
        self.exposure = ExposureLedger()
        self.reliability: dict[str, float] = dict.fromkeys(agent_ids, 1.0)
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


def process_query(
    query: Query,
    specs: Sequence[AgentSpec],
    catalog: Catalog,
    ledger: FairnessLedger,
    policy: ActivationPolicy,
    rule_config: RuleConfig,
    adapter_url: str | None = None,
) -> tuple[QueryOutcome, FairnessLedger]:
    """Run the full pipeline for one query, then commit it to the ledger.

    Each voting ballot carries its agent's reliability weight, decayed by
    the ballot's grounding violations.  Agents whose ballots die (adapter
    failure, empty generation, nothing surviving grounding) are dropped
    with a recorded reason and, unless the ballot was empty, a reliability
    penalty; the query fails with NoActiveAgents only if nobody survives.
    The stages only read the ledger and ``_commit`` writes it once at the
    end, so a query that raises leaves it unchanged.
    """
    if len(catalog) == 0:
        raise ValueError("catalog must be non-empty")
    active, skipped = select_agents(query, specs, ledger, policy)
    k = candidate_count_policy(query.top_n)

    weights: dict[str, float] = {}
    ballots: list[Ballot] = []
    justifications: dict[str, str] = {}
    grounded = 0
    for spec in sorted(active, key=lambda s: s.agent_id):
        agent_id = spec.agent_id
        weight = ledger.reliability[agent_id]
        try:
            raw = generate_candidates(spec, query, catalog, ledger.exposure, k, adapter_url)
        except (AdapterTimeout, AdapterMalformed) as exc:
            kind = "timeout" if isinstance(exc, AdapterTimeout) else "malformed response"
            skipped[agent_id] = f"adapter {kind}"
            weights[agent_id] = update_reliability(weight, 1, 1)
            continue
        items = len(raw.ranking)
        if items == 0:
            skipped[agent_id] = "empty ballot"
            continue
        grounded += 1
        try:
            ballot, violations = validate_ballot(raw, catalog)
        except EmptyAfterGrounding:
            skipped[agent_id] = "no ballot items exist in the catalog"
            weights[agent_id] = update_reliability(weight, items, items)
            continue
        weights[agent_id] = update_reliability(weight, violations, items)
        ballots.append(replace(ballot, weight=weights[agent_id]))
        if ballot.justification is not None:
            justifications[agent_id] = ballot.justification

    if not ballots:
        raise NoActiveAgents("every active agent was dropped during this query")

    profile = PreferenceProfile.from_ballots(ballots)
    result = aggregate(profile, rule_config, ledger.kemeny_memo)
    final_list = result.consensus[: query.top_n]

    # monitoring covers every configured agent, voting or not, against the
    # exposure state as it stands after this query's recommendations; a
    # metric's value depends on nothing agent-specific, so agents sharing an
    # objective metric share one evaluation
    credits = exposure_delta(final_list, catalog)
    exposure_after = ledger.exposure.as_mapping()
    for provider, credit in credits.items():
        exposure_after[provider] = exposure_after.get(provider, 0.0) + credit
    achieved_by_metric: dict[MetricId, float | None] = {}
    achieved_map: dict[str, float | None] = {}
    regrets: dict[str, float] = {}
    for spec in sorted(specs, key=lambda s: s.agent_id):
        metric = spec.objective_metric
        if metric not in achieved_by_metric:
            achieved_by_metric[metric] = evaluate_metric(
                metric, query, final_list, catalog, exposure_after
            )
        achieved = achieved_by_metric[metric]
        achieved_map[spec.agent_id] = achieved
        regrets[spec.agent_id] = (
            0.0 if achieved is None else fairness_regret(metric, spec.objective_target, achieved)
        )

    _commit(ledger, weights, regrets, credits)
    outcome = QueryOutcome(
        query_id=query.id,
        final_list=final_list,
        per_agent_ballots=tuple(ballots),
        aggregate=result,
        skipped_agents=skipped,
        justifications=justifications,
        query=query,
        per_agent_achieved=achieved_map,
        per_agent_regret=regrets,
        stage_calls=dict(generate=len(active), ground=grounded, aggregate=1, evaluate=len(regrets)),
    )
    return outcome, ledger


def _commit(
    ledger: FairnessLedger,
    weights: Mapping[str, float],
    regrets: Mapping[str, float],
    credits: Mapping[str, float],
) -> None:
    """Apply one query's reliability weights, regrets and exposure credits:
    the only code that writes the ledger, the Kemeny memo aside."""
    ledger.reliability.update(weights)
    for agent_id, regret in regrets.items():
        ledger.push_regret(agent_id, regret)
    for provider, credit in credits.items():
        ledger.exposure.add(provider, credit)


def run_stream(
    queries: Sequence[Query],
    specs: Sequence[AgentSpec],
    catalog: Catalog,
    policy: ActivationPolicy,
    rule_config: RuleConfig,
    adapter_url: str | None = None,
) -> tuple[list[QueryOutcome], FairnessLedger]:
    """Process a query stream in order over a fresh ledger."""
    ledger = FairnessLedger([s.agent_id for s in specs], policy.window)
    outcomes: list[QueryOutcome] = []
    for query in queries:
        t0 = time.perf_counter()
        outcome, ledger = process_query(
            query, specs, catalog, ledger, policy, rule_config, adapter_url
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
