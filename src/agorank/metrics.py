"""Stakeholder-centric metric battery.

Accuracy (nDCG, recall), distributional fairness (Gini, normalized entropy),
popularity bias (KL/JS divergence, PopLift), per-agent fairness regret, and
the cross-agent L1/2 balance score, plus the report builder that runs the
whole battery over a stream of query outcomes.

Relevance is scored in one place, ``set_scores``: once per distinct category
set, since an item's preference score depends only on its set.
``relevance_scores`` gathers those scores into a per-item array for the
built-in relevance agent and for ``relevance_map``.  The report scores nDCG
and recall straight from the set scores and their feasible counts
(``_accuracy_at_k``), and replays the exposure ledger as outcomes by
providers matrices of bounded size (``_ledger_metrics``);
``evaluate_metric`` is the scalar reference for every metric and the path
the orchestrator's monitor takes.

Divergences compare category-level distributions: the historical side is the
category frequency profile of the user's history, the recommended side is the
category frequency profile of the final list.  PopLift uses the catalog
popularity field on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    LengthMismatch,
    NotNormalized,
    UndefinedBaseline,
    UnknownMetricDirection,
    ZeroMass,
)
from .model import Catalog, Query, left_sum

if TYPE_CHECKING:  # pragma: no cover
    from .agents import AgentSpec
    from .orchestrator import QueryOutcome

NORM_TOL = 1e-9
KL_EPS = 1e-9


class MetricId(Enum):
    NDCG = "ndcg"
    RECALL = "recall"
    GINI_EXPOSURE = "gini_exposure"
    NORM_ENTROPY = "norm_entropy"
    KL_DIV = "kl_div"
    JS_DIV = "js_div"
    POP_LIFT = "pop_lift"
    FAIRNESS_REGRET = "fairness_regret"
    L_HALF_BALANCE = "l_half_balance"


# Direction of improvement per metric.  PopLift regret is measured on the
# absolute value (lift toward 0 from either side is better).  The two
# composite metrics are aggregates of regrets and carry no direction of
# their own, so they are not valid agent objectives.
_HIGHER_IS_BETTER = frozenset({MetricId.NDCG, MetricId.RECALL, MetricId.NORM_ENTROPY})
_LOWER_IS_BETTER = frozenset(
    {MetricId.GINI_EXPOSURE, MetricId.KL_DIV, MetricId.JS_DIV, MetricId.POP_LIFT}
)

# Valid objective_target range per metric.
METRIC_CODOMAIN: dict[MetricId, tuple[float, float]] = {
    MetricId.NDCG: (0.0, 1.0),
    MetricId.RECALL: (0.0, 1.0),
    MetricId.GINI_EXPOSURE: (0.0, 1.0),
    MetricId.NORM_ENTROPY: (0.0, 1.0),
    MetricId.KL_DIV: (0.0, math.inf),
    MetricId.JS_DIV: (0.0, 1.0),
    MetricId.POP_LIFT: (-1.0, math.inf),
    MetricId.FAIRNESS_REGRET: (0.0, math.inf),
    MetricId.L_HALF_BALANCE: (0.0, math.inf),
}


def metric_direction(metric: MetricId) -> str:
    """Return "higher" or "lower"; raises for direction-less composites."""
    if metric in _HIGHER_IS_BETTER:
        return "higher"
    if metric in _LOWER_IS_BETTER:
        return "lower"
    raise UnknownMetricDirection(f"metric {metric.value} has no registered direction")


def ndcg_at_k(ranked: Sequence[str], relevance: Mapping[str, float], k: int) -> float:
    """Normalized discounted cumulative gain at cutoff k.

    IDCG ranks every item in the relevance map ideally and truncates at k;
    items absent from the map contribute zero gain.  Returns 0.0 when the
    ideal gain is zero (nothing relevant exists).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dcg = 0.0
    for i, item in enumerate(ranked[:k], start=1):
        dcg += relevance.get(item, 0.0) / math.log2(i + 1)
    ideal = sorted(relevance.values(), reverse=True)[:k]
    idcg = left_sum(rel / math.log2(i + 1) for i, rel in enumerate(ideal, start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def recall_at_k(ranked: Sequence[str], relevant: Iterable[str], k: int) -> float:
    """Fraction of relevant items appearing in the top k (0.0 if none exist)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    relevant = set(relevant)
    if not relevant:
        return 0.0
    hits = sum(1 for item in ranked[:k] if item in relevant)
    return hits / len(relevant)


def gini_exposure(exposures: Sequence[float]) -> float:
    """Gini coefficient of an exposure vector (0 = perfectly even).

    Raises:
        ZeroMass: if the vector sums to zero.
    """
    if not exposures:
        raise ValueError("exposures must be non-empty")
    if any(x < 0 for x in exposures):
        raise ValueError("exposures must be >= 0")
    x = np.asarray(exposures, dtype=float)
    if float(x.sum()) == 0.0:
        raise ZeroMass("exposure vector sums to zero")
    return _gini_rows(x[np.newaxis])[0]


def _gini_rows(exposures: np.ndarray) -> list[float]:
    """The Gini coefficient of each row of a 2-D array whose rows are
    non-negative and not all zero, unchecked: the one Gini kernel, which
    ``gini_exposure``, the monitor and the report each call."""
    x = np.sort(exposures, axis=1)
    n = x.shape[1]
    # the weights 2i - n - 1 for ranks i = 1..n, as exact integers
    return ((np.arange(1 - n, n, 2) * x).sum(axis=1) / (n * x.sum(axis=1))).tolist()


def normalized_entropy(p: Sequence[float]) -> float:
    """Shannon entropy of a distribution divided by log2(n), in [0, 1]."""
    p = np.asarray(p, dtype=float)
    if p.size < 2:
        raise ValueError("distribution needs at least 2 entries")
    _check_distribution(p, "p")
    return _entropy_rows(p[np.newaxis])[0]


def _entropy_rows(p: np.ndarray) -> list[float]:
    """The normalized entropy of each row of a 2-D array of distributions
    with at least 2 entries each, unchecked: the one entropy kernel, which
    ``normalized_entropy``, the monitor and the report each call.

    The terms p * log2(p) of the positive entries are computed as one
    array; each row's are then gathered and summed on their own (a sum over
    the whole row, zeros included, would group the pairwise additions
    differently, and so change the floats).
    """
    positive = p > 0
    terms = p * np.log2(p, out=np.zeros_like(p), where=positive)
    bits = math.log2(p.shape[1])
    return [
        max(0.0, float(-(row[nz]).sum())) / bits for row, nz in zip(terms, positive)
    ]


def _check_distribution(p: np.ndarray, name: str) -> None:
    if np.any(p < 0):
        raise NotNormalized(f"{name} has negative entries")
    if abs(float(p.sum()) - 1.0) > NORM_TOL:
        raise NotNormalized(f"{name} sums to {float(p.sum())}, expected 1")


def _kl_base2(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float((p[mask] * np.log2(p[mask] / q[mask])).sum())


def divergence(p: Sequence[float], q: Sequence[float], kind: str = "kl") -> float:
    """KL or JS divergence (base 2) between two distributions.

    KL smooths q with eps=1e-9 then renormalizes, so empty recommendation
    bins stay finite.  JS needs no smoothing and is bounded by 1.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.size != q.size:
        raise LengthMismatch(f"distributions have lengths {p.size} and {q.size}")
    _check_distribution(p, "p")
    _check_distribution(q, "q")
    if kind == "kl":
        q_smooth = q + KL_EPS
        q_smooth = q_smooth / q_smooth.sum()
        return _kl_base2(p, q_smooth)
    if kind == "js":
        m = (p + q) / 2.0
        return 0.5 * _kl_base2(p, m) + 0.5 * _kl_base2(q, m)
    raise ValueError(f"kind must be 'kl' or 'js', got {kind!r}")


def poplift(
    profile_items: Sequence[str], rec_items: Sequence[str], catalog: Catalog
) -> float:
    """Relative lift of mean recommended popularity over the historical mean.

    Positive values mean the recommendations are more popular than what the
    user already consumed.

    Raises:
        UndefinedBaseline: empty profile or historical mean popularity of 0.
    """
    if not profile_items:
        raise UndefinedBaseline("empty interaction profile")
    popularity = catalog.columns.popularity
    base = left_sum(popularity[catalog.positions(profile_items)].tolist()) / len(profile_items)
    if base == 0.0:
        raise UndefinedBaseline("historical mean popularity is zero")
    if not rec_items:
        rec_mean = 0.0
    else:
        rec_mean = left_sum(popularity[catalog.positions(rec_items)].tolist()) / len(rec_items)
    return (rec_mean - base) / base


def fairness_regret(metric: MetricId, target: float, achieved: float) -> float:
    """Shortfall of an achieved metric value against an agent's target.

    Higher-is-better metrics regret falling short of the target; lower-is-
    better metrics regret overshooting it (PopLift on its absolute value).
    Always >= 0; 0 when the target is met or beaten.
    """
    direction = metric_direction(metric)
    if metric is MetricId.POP_LIFT:
        achieved = abs(achieved)
    if direction == "higher":
        return max(0.0, target - achieved)
    return max(0.0, achieved - target)


def l_half_balance(per_agent_fairness: Sequence[float]) -> float:
    """(Sum of square roots)^2 of per-agent fairness values in [0, 1].

    At equal total mass, balanced profiles score higher than concentrated
    ones, rewarding low disparity across agents.
    """
    for f in per_agent_fairness:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fairness value {f} outside [0, 1]")
    root_sum = left_sum(math.sqrt(f) for f in per_agent_fairness)
    return root_sum * root_sum


def set_scores(query: Query, catalog: Catalog) -> np.ndarray:
    """Preference score of each distinct category set, in ``columns.sets`` order.

    This is the one place relevance is scored.  A set's score is the sum of
    the weights of the query categories it holds, added left to right in
    ``preference_weights`` order starting from 0.0, so each value is the
    float that ``model.left_sum`` gives over those weights (builtin
    ``sum()`` compensates rounding from Python 3.12 on and may differ in the
    last bit).  Each weight is added to every set as ``w`` where the set
    holds its category (``columns.set_incidence``) and as 0.0 where not;
    adding 0.0 leaves a sum that starts from 0.0 unchanged, so the floats
    are those of adding the held weights alone.  An item's score depends
    only on its category set, so the work grows with the distinct sets, not
    the items.
    """
    incidence = catalog.columns.set_incidence
    scores = np.zeros(len(catalog.columns.sets))
    for cat, w in query.preference_weights.items():
        held = incidence.get(cat)
        if held is not None:
            scores += np.where(held, w, 0.0)
    return scores


def _feasible(query: Query, catalog: Catalog) -> np.ndarray:
    """True where an item satisfies every query constraint, in id order."""
    columns = catalog.columns
    feasible = np.ones(len(catalog), dtype=bool)
    for constraint in query.constraints:
        values = columns.constraint_values(constraint.attribute)
        if values is None:
            feasible[:] = False
        elif constraint.direction == "<=":
            feasible &= values <= constraint.value
        else:
            feasible &= values >= constraint.value
    return feasible


def relevance_scores(query: Query, catalog: Catalog) -> tuple[np.ndarray, np.ndarray]:
    """Constraint feasibility and preference score of every item, in id order.

    An item is feasible when it satisfies every query constraint.  Its score
    is its category set's entry of ``set_scores``, gathered by
    ``columns.set_codes``.  Scores are given for infeasible items too;
    callers decide what those mean.
    """
    score = set_scores(query, catalog)[catalog.columns.set_codes]
    return _feasible(query, catalog), score


def relevance_map(query: Query, catalog: Catalog) -> dict[str, float]:
    """Graded query relevance per item: preference-weight dot product.

    Items violating any query constraint get relevance 0 regardless of
    category overlap.  Scores come from ``relevance_scores``, a left-to-right
    sum in ``preference_weights`` order.
    """
    feasible, score = relevance_scores(query, catalog)
    return dict(zip(catalog.ids, np.where(feasible, score, 0.0).tolist()))


def category_distributions(
    history: Sequence[str], final_list: Sequence[str], catalog: Catalog
) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """Aligned category-frequency distributions (historical, recommended).

    Support is the union of categories seen on either side, sorted.  Returns
    None when either side carries no category mass, or when the support is a
    single category (no distribution to compare).
    """
    sets, codes = catalog.columns.sets, catalog.columns.set_codes
    history_sets, final_sets = (
        [sets[codes.item(pos)] for pos in catalog.positions(ids)] for ids in (history, final_list)
    )
    cats = sorted(set().union(*history_sets, *final_sets))
    if len(cats) < 2:
        return None

    def freq(item_sets: list[frozenset[str]]) -> tuple[float, ...] | None:
        counts = {c: 0 for c in cats}
        total = 0
        for item_set in item_sets:
            for c in item_set:
                counts[c] += 1
                total += 1
        if total == 0:
            return None
        return tuple(counts[c] / total for c in cats)

    p = freq(history_sets)
    q = freq(final_sets)
    if p is None or q is None:
        return None
    return p, q


def evaluate_metric(
    metric: MetricId,
    query: Query,
    final_list: Sequence[str],
    catalog: Catalog,
    exposure_counts: Mapping[str, float],
) -> float | None:
    """Evaluate one directional metric on a final list in its query context.

    This is the scalar reference for every metric and the path the
    orchestrator's monitor takes; ``build_report`` gets the same nDCG and
    recall floats from ``_accuracy_at_k``.  Gini and entropy come from the
    row kernels ``_gini_rows`` and ``_entropy_rows`` on both paths.
    Returns None when the metric's inputs do not exist (no history for the
    divergence/popularity metrics, no exposure mass yet, degenerate
    support).
    The composite metrics (fairness regret, L1/2) are not computable from a
    single list and raise UnknownMetricDirection via the direction registry.
    """
    metric_direction(metric)  # reject direction-less composites up front
    if metric is MetricId.NDCG:
        return ndcg_at_k(final_list, relevance_map(query, catalog), query.top_n)
    if metric is MetricId.RECALL:
        relevant = {i for i, r in relevance_map(query, catalog).items() if r > 0}
        return recall_at_k(final_list, relevant, query.top_n)
    if metric in (MetricId.GINI_EXPOSURE, MetricId.NORM_ENTROPY):
        values = [exposure_counts.get(p, 0.0) for p in catalog.providers]
        total = left_sum(values)
        gini = metric is MetricId.GINI_EXPOSURE
        if total == 0.0 or (not gini and len(values) < 2):
            return None
        x = np.array([values if gini else [v / total for v in values]], dtype=float)
        if (x < 0).any():
            if gini:
                raise ValueError("exposures must be >= 0")
            raise NotNormalized("p has negative entries")
        return _gini_rows(x)[0] if gini else _entropy_rows(x)[0]
    if metric in (MetricId.KL_DIV, MetricId.JS_DIV):
        if not query.user_history:
            return None
        dists = category_distributions(query.user_history, final_list, catalog)
        if dists is None:
            return None
        kind = "kl" if metric is MetricId.KL_DIV else "js"
        return divergence(dists[0], dists[1], kind)
    if metric is MetricId.POP_LIFT:
        if not query.user_history:
            return None
        try:
            return poplift(query.user_history, final_list, catalog)
        except UndefinedBaseline:
            return None
    raise UnknownMetricDirection(f"metric {metric.value} is not evaluable on a list")


@dataclass(frozen=True)
class QueryEvaluation:
    """Metric battery results for one query."""

    query_id: str
    values: Mapping[str, float]
    regret: Mapping[str, float]
    influence: Mapping[str, float]


@dataclass(frozen=True)
class EvaluationReport:
    """Battery results per query plus aggregates, drift series, and counters.

    ``aggregate`` maps metric id to mean/min/max over the queries where the
    metric was computable.  ``drift`` carries each agent's regret per query
    index so slow degradation across the stream is visible.  ``runtime``
    holds per-stage call counts (wall times are logged, not serialized, to
    keep reports byte-reproducible).
    """

    per_query: tuple[QueryEvaluation, ...]
    aggregate: Mapping[str, Mapping[str, float]]
    drift: Mapping[str, tuple[float, ...]]
    runtime: Mapping[str, int] = field(default_factory=dict)


def _accuracy_at_k(
    query: Query, final_list: Sequence[str], catalog: Catalog
) -> tuple[float, float]:
    """nDCG and recall at ``query.top_n`` from one ``set_scores`` call.

    Gives the floats that ``evaluate_metric`` gives for NDCG and RECALL
    without a per-item array or dict.  An item's relevance is its set's
    score when it is feasible and 0.0 when not, so the relevant items are
    the feasible items of the sets scoring above 0, counted per set with
    ``np.bincount``.  The ideal top n walks those sets in descending score
    (``np.argsort``), each as often as it has feasible items, until n values
    are taken, which gives the leading values of every item's relevance
    sorted; the 0.0 values that would follow add nothing to the ideal gain.
    It is summed with the same ``left_sum`` expression as ``ndcg_at_k``.  List items are found with
    ``Catalog.positions`` (an unknown id gains 0.0), and DCG is added left
    to right.
    """
    scores = set_scores(query, catalog)
    feasible = _feasible(query, catalog)
    set_codes = catalog.columns.set_codes
    counts = np.bincount(set_codes[feasible], minlength=scores.size)
    k = query.top_n
    listed = [(i, item) for i, item in enumerate(final_list[:k], start=1) if item in catalog]
    dcg = 0.0
    hits = 0
    for (i, _), pos in zip(listed, catalog.positions(item for _, item in listed)):
        gain = scores.item(set_codes.item(pos)) if feasible.item(pos) else 0.0
        dcg += gain / math.log2(i + 1)
        hits += gain > 0
    positive = np.flatnonzero((scores > 0) & (counts > 0))
    relevant = int(counts[positive].sum())
    order = positive[np.argsort(-scores[positive], kind="stable")]
    ideal: list[float] = []
    for score, count in zip(scores[order].tolist(), counts[order].tolist()):
        if len(ideal) == k:
            break
        ideal += [score] * min(count, k - len(ideal))
    idcg = left_sum(rel / math.log2(i + 1) for i, rel in enumerate(ideal, start=1))
    ndcg = 0.0 if idcg == 0.0 else dcg / idcg
    recall = 0.0 if not relevant else hits / relevant
    return ndcg, recall


def exposure_delta(final_list: Sequence[str], catalog: Catalog) -> dict[str, float]:
    """Rank-discounted exposure credit per provider for one final list."""
    delta: dict[str, float] = {}
    for rank, item_id in enumerate(final_list, start=1):
        provider = catalog.provider_of(item_id)
        delta[provider] = delta.get(provider, 0.0) + 1.0 / math.log2(rank + 1)
    return delta


# ledger cells (outcomes x providers) replayed at once, so that the report's
# working memory stays near 0.5 MB per array however long the stream is
_LEDGER_CELLS = 1 << 16


def _ledger_metrics(
    outcomes: Sequence["QueryOutcome"], catalog: Catalog
) -> Iterator[tuple[float | None, float | None]]:
    """Gini and normalized entropy of the exposure ledger after each outcome,
    None where ``evaluate_metric`` gives None, float for float.

    The ledger is replayed from the final lists in blocks of outcomes: one
    row of provider credits per outcome (``exposure_delta``), added down the
    rows in stream order as the ledger adds them, the block's first row on
    top of the previous block's last.  Each row's total is added left to
    right, as ``left_sum`` adds it, and the rows with exposure go through the
    row kernels ``_gini_rows`` and ``_entropy_rows``.
    """
    providers = catalog.providers
    column = dict(zip(providers, range(len(providers))))
    step = max(1, _LEDGER_CELLS // max(1, len(providers)))
    ledger = np.zeros(len(providers))
    for start in range(0, len(outcomes), step):
        block = outcomes[start : start + step]
        exposure = np.zeros((len(block), len(providers)))
        for row, outcome in zip(exposure, block):
            for provider, credit in exposure_delta(outcome.final_list, catalog).items():
                row[column[provider]] = credit
        exposure[0] += ledger
        np.cumsum(exposure, axis=0, out=exposure)
        ledger = exposure[-1].copy()
        totals = np.cumsum(exposure, axis=1)[:, -1] if providers else np.zeros(len(block))
        exposed = np.flatnonzero(totals)
        gini: list[float | None] = [None] * len(block)
        entropy: list[float | None] = [None] * len(block)
        x = exposure[exposed]
        for at, value in zip(exposed.tolist(), _gini_rows(x)):
            gini[at] = value
        if len(providers) >= 2:
            shares = x / totals[exposed, np.newaxis]
            for at, value in zip(exposed.tolist(), _entropy_rows(shares)):
                entropy[at] = value
        yield from zip(gini, entropy)


def build_report(
    outcomes: Sequence["QueryOutcome"],
    specs: Sequence["AgentSpec"],
    catalog: Catalog,
) -> EvaluationReport:
    """Run the full battery over a query stream's outcomes.

    nDCG and recall come from one ``set_scores`` call per outcome
    (``_accuracy_at_k``), equal to what ``evaluate_metric`` gives for them.
    Exposure-based metrics are evaluated against the cumulative exposure
    ledger as of each query, replayed here from the final lists, so saved
    outcomes suffice: Gini and normalized entropy come from
    ``_ledger_metrics``, which replays the ledger in blocks of bounded size,
    equal to what ``evaluate_metric`` gives for them.  KL, JS and PopLift go
    through ``evaluate_metric``.  Per-agent regrets are taken from the
    outcomes: they were computed at processing time against the live ledger.
    """
    if not outcomes:
        raise ValueError("outcomes must be non-empty")
    agent_ids = sorted({s.agent_id for s in specs})
    battery = (MetricId.KL_DIV, MetricId.JS_DIV, MetricId.POP_LIFT)
    per_query: list[QueryEvaluation] = []
    runtime: dict[str, int] = {}
    for outcome, (gini, entropy) in zip(outcomes, _ledger_metrics(outcomes, catalog)):
        ndcg, recall = _accuracy_at_k(outcome.query, outcome.final_list, catalog)
        values: dict[str, float] = {MetricId.NDCG.value: ndcg, MetricId.RECALL.value: recall}
        if gini is not None:
            values[MetricId.GINI_EXPOSURE.value] = gini
        if entropy is not None:
            values[MetricId.NORM_ENTROPY.value] = entropy
        for metric in battery:
            v = evaluate_metric(metric, outcome.query, outcome.final_list, catalog, {})
            if v is not None:
                values[metric.value] = v
        regret = {a: outcome.per_agent_regret.get(a, 0.0) for a in agent_ids}
        if regret:
            values[MetricId.FAIRNESS_REGRET.value] = left_sum(regret.values()) / len(regret)
            values[MetricId.L_HALF_BALANCE.value] = l_half_balance(
                [max(0.0, 1.0 - r) for r in regret.values()]
            )
        per_query.append(
            QueryEvaluation(
                query_id=outcome.query_id,
                values=values,
                regret=regret,
                influence=dict(outcome.aggregate.influence),
            )
        )
        for stage, calls in outcome.stage_calls.items():
            runtime[stage] = runtime.get(stage, 0) + calls

    aggregate: dict[str, dict[str, float]] = {}
    for metric in MetricId:
        key = metric.value
        series = [q.values[key] for q in per_query if key in q.values]
        if series:
            aggregate[key] = {
                "mean": left_sum(series) / len(series),
                "min": min(series),
                "max": max(series),
            }
    drift = {
        a: tuple(q.regret.get(a, 0.0) for q in per_query) for a in agent_ids
    }
    return EvaluationReport(
        per_query=tuple(per_query),
        aggregate=aggregate,
        drift=drift,
        runtime=runtime,
    )
