"""Stakeholder agents: deterministic built-in candidate generators, the
external-service dispatch, and the reliability weight update.

Each agent produces a ranked ballot of catalog items toward one stakeholder
objective.  Built-ins are pure functions of (query, catalog, ledger), so a
given query always yields the same ballot.  Justifications are template text
carried through to reports untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from . import adapter
from .errors import AgorankError, UnknownMetricDirection
from .metrics import METRIC_CODOMAIN, MetricId, metric_direction, relevance_scores
from .model import Ballot, Catalog, Query, StakeholderRole, left_sum


class AgentObjective(Enum):
    RELEVANCE = "relevance"
    PROVIDER_EXPOSURE = "provider_exposure"
    POPULARITY_MITIGATION = "popularity_mitigation"
    EXTERNAL = "external"


@dataclass(frozen=True)
class AgentSpec:
    """Static configuration of one stakeholder agent.

    ``objective_target`` is the agent's ideal value for its objective metric;
    fairness regret is measured against it, so the metric must have a
    direction: the two composites (``fairness_regret``, ``l_half_balance``)
    are refused.  ``compatibility_tags`` drive dynamic activation (empty set
    = compatible with every query).
    """

    agent_id: str
    role: StakeholderRole
    objective: AgentObjective
    objective_metric: MetricId
    objective_target: float
    params: Mapping[str, object] = field(default_factory=dict)
    compatibility_tags: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.agent_id:
            raise ValueError("agent_id must be non-empty")
        try:
            metric_direction(self.objective_metric)
        except UnknownMetricDirection as exc:
            raise ValueError(f"agent {self.agent_id}: objective_metric: {exc}") from None
        lo, hi = METRIC_CODOMAIN[self.objective_metric]
        if not lo <= self.objective_target <= hi:
            raise ValueError(
                f"agent {self.agent_id}: target {self.objective_target} outside "
                f"codomain [{lo}, {hi}] of {self.objective_metric.value}"
            )
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "compatibility_tags", frozenset(self.compatibility_tags))


class ExposureLedger:
    """Cumulative rank-discounted exposure per provider, starting empty."""

    def __init__(self):
        self._counts: dict[str, float] = {}

    def get(self, provider_id: str) -> float:
        return self._counts.get(provider_id, 0.0)

    def add(self, provider_id: str, credit: float) -> None:
        if credit < 0:
            raise ValueError("exposure credit must be >= 0")
        self._counts[provider_id] = self._counts.get(provider_id, 0.0) + credit

    def as_mapping(self) -> dict[str, float]:
        return dict(self._counts)


def generate_relevance(query: Query, catalog: Catalog, k: int) -> Ballot:
    """Personalization agent: preference-weight dot product, constraint-filtered.

    Items violating any query constraint are excluded; survivors are ranked
    by descending score (zero-score items retained), ties by id.  The ballot
    may be empty if every item is filtered out.  Scores come from
    ``metrics.relevance_scores``: each distinct category set is scored once
    by ``metrics.set_scores``, a left-to-right sum in ``preference_weights``
    order, and each item takes its set's score.  ``relevance_map`` and the
    report grade with the same scores.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    feasible, score = relevance_scores(query, catalog)
    kept = np.flatnonzero(feasible)
    order = kept[np.argsort(-score[kept], kind="stable")[:k]]
    ranking = tuple(catalog.ids[i] for i in order.tolist())
    if not ranking:
        justification = "all items violate the query constraints"
    else:
        matched = sorted(
            c
            for c in catalog.columns.sets[catalog.columns.set_codes[order[0]]]
            if query.preference_weights.get(c, 0.0) > 0
        )
        if matched:
            justification = f"top pick {ranking[0]} matches: {', '.join(matched)}"
        else:
            justification = f"top pick {ranking[0]} matches no weighted category"
    return Ballot(agent_id="", ranking=ranking, justification=justification)


def generate_provider_exposure(
    query: Query, catalog: Catalog, ledger: ExposureLedger, k: int
) -> Ballot:
    """Provider-parity agent: least-exposed providers first.

    Items sort ascending by their provider's cumulative exposure (unseen
    providers count 0), ties by item id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    codes = catalog.columns.provider_codes
    provider_exposure = np.array([ledger.get(p) for p in catalog.providers], dtype=float)
    order = np.argsort(provider_exposure[codes], kind="stable")[:k]
    ranking = tuple(catalog.ids[i] for i in order.tolist())
    if ranking:
        top_provider = catalog.providers[codes[order[0]]]
        justification = (
            f"promoting provider {top_provider} "
            f"(cumulative exposure {ledger.get(top_provider):.6f})"
        )
    else:
        justification = "catalog is empty"
    return Ballot(agent_id="", ranking=ranking, justification=justification)


def _mitigation_order(catalog: Catalog) -> np.ndarray:
    """Catalog positions by descending (1 - popularity) + sustainability, ties by id.

    Read-only: ``generate_popularity_mitigation`` keeps it in ``Catalog.derived``.
    """
    columns = catalog.columns
    score = (1.0 - columns.popularity) + columns.sustainability
    order = np.argsort(-score, kind="stable")
    order.flags.writeable = False
    return order


def generate_popularity_mitigation(query: Query, catalog: Catalog, k: int) -> Ballot:
    """Popularity-bias counterweight: favor unpopular, sustainable items.

    score = (1 - popularity) + sustainability, descending, ties by id.  The
    order depends only on the catalog, so it is sorted once per catalog and
    kept; each call takes its first ``k``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    order = catalog.derived(_mitigation_order)[:k]
    ranking = tuple(catalog.ids[i] for i in order.tolist())
    if ranking:
        mean_pop = left_sum(catalog.columns.popularity[order].tolist()) / len(ranking)
        justification = f"mean popularity of slate: {mean_pop:.6f}"
    else:
        justification = "catalog is empty"
    return Ballot(agent_id="", ranking=ranking, justification=justification)


RELIABILITY_DECAY = 0.5
RELIABILITY_FLOOR = 0.1


def update_reliability(weight: float, violations: int, items: int) -> float:
    """An agent's next reliability weight: multiplicative decay with a floor.

    Violation rate r = violations/items (0 when the ballot was empty); the
    weight decays by factor (1 - RELIABILITY_DECAY*r), never below
    RELIABILITY_FLOOR: decay, not exclusion, keeps every voice non-zero.
    """
    if violations < 0 or items < violations:
        raise ValueError("need items >= violations >= 0")
    r = violations / items if items > 0 else 0.0
    return max(RELIABILITY_FLOOR, weight * (1.0 - RELIABILITY_DECAY * r))


def generate_candidates(
    spec: AgentSpec,
    query: Query,
    catalog: Catalog,
    ledger: ExposureLedger,
    k: int,
    adapter_url: str | None = None,
) -> Ballot:
    """Produce one agent's raw ballot (not yet grounded), tagged with its id.

    External agents go over the adapter; their errors propagate for the
    orchestrator to handle.
    """
    if spec.objective is AgentObjective.RELEVANCE:
        ballot = generate_relevance(query, catalog, k)
    elif spec.objective is AgentObjective.PROVIDER_EXPOSURE:
        ballot = generate_provider_exposure(query, catalog, ledger, k)
    elif spec.objective is AgentObjective.POPULARITY_MITIGATION:
        ballot = generate_popularity_mitigation(query, catalog, k)
    elif spec.objective is AgentObjective.EXTERNAL:
        ballot = adapter.request_external(spec, query, catalog, k, url_override=adapter_url)
    else:  # pragma: no cover
        raise AgorankError(f"unhandled objective {spec.objective}")
    return Ballot(
        agent_id=spec.agent_id,
        ranking=ballot.ranking,
        justification=ballot.justification,
        weight=ballot.weight,
    )
