import bisect
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agorank import metrics
from agorank.agents import AgentObjective, AgentSpec
from agorank.errors import (
    LengthMismatch,
    NotNormalized,
    UndefinedBaseline,
    UnknownMetricDirection,
    ZeroMass,
)
from agorank.metrics import (
    METRIC_CODOMAIN,
    EvaluationReport,
    MetricId,
    QueryEvaluation,
    _accuracy_at_k,
    build_report,
    category_distributions,
    divergence,
    evaluate_metric,
    exposure_delta,
    fairness_regret,
    gini_exposure,
    l_half_balance,
    metric_direction,
    ndcg_at_k,
    normalized_entropy,
    poplift,
    recall_at_k,
    relevance_map,
)
from agorank.model import (
    AggregateResult,
    Catalog,
    Constraint,
    Item,
    Query,
    StakeholderRole,
    left_sum,
)
from agorank.orchestrator import QueryOutcome, run_stream

import test_catalog_columns

TOL = 1e-9


class TestNdcg:
    def test_perfect_order(self):
        assert ndcg_at_k(["a", "b"], {"a": 3.0, "b": 1.0}, 2) == pytest.approx(1.0)

    def test_worked_example(self):
        # rel a=3 b=2 c=1, list (c, a) at k=2:
        # dcg = 1 + 3/log2(3), idcg = 3 + 2/log2(3)
        got = ndcg_at_k(["c", "a"], {"a": 3.0, "b": 2.0, "c": 1.0}, 2)
        expected = (1.0 + 3.0 / math.log2(3)) / (3.0 + 2.0 / math.log2(3))
        assert got == pytest.approx(expected, abs=TOL)

    def test_zero_idcg(self):
        assert ndcg_at_k(["a"], {"a": 0.0}, 1) == 0.0
        assert ndcg_at_k(["a"], {}, 1) == 0.0

    def test_unknown_items_score_zero(self):
        assert ndcg_at_k(["ghost", "a"], {"a": 1.0}, 2) == pytest.approx(
            (1.0 / math.log2(3)) / 1.0
        )

    def test_ideal_uses_all_relevances(self):
        # idcg is computed over the best k of the whole relevance map, not
        # just the items present in the list
        got = ndcg_at_k(["b"], {"a": 3.0, "b": 1.0}, 1)
        assert got == pytest.approx(1.0 / 3.0, abs=TOL)


class TestRecall:
    def test_half(self):
        assert recall_at_k(["a", "x"], {"a", "b"}, 2) == pytest.approx(0.5)

    def test_empty_relevant(self):
        assert recall_at_k(["a"], set(), 1) == 0.0

    def test_k_truncates(self):
        assert recall_at_k(["x", "a", "b"], {"a", "b"}, 1) == 0.0


class TestGini:
    def test_uniform(self):
        assert gini_exposure([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=TOL)

    def test_concentrated(self):
        assert gini_exposure([0.0, 0.0, 0.0, 4.0]) == pytest.approx(0.75, abs=TOL)

    def test_two_point(self):
        assert gini_exposure([1.0, 3.0]) == pytest.approx(0.25, abs=TOL)

    def test_order_invariant(self):
        assert gini_exposure([3.0, 1.0]) == gini_exposure([1.0, 3.0])

    def test_zero_mass(self):
        with pytest.raises(ZeroMass):
            gini_exposure([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_exposure([-1.0, 2.0])


class TestEntropy:
    def test_uniform_is_one(self):
        assert normalized_entropy([0.25] * 4) == pytest.approx(1.0, abs=TOL)

    def test_degenerate_is_zero(self):
        result = normalized_entropy([1.0, 0.0, 0.0])
        assert result == 0.0
        # no negative zero leaking out of the log
        assert math.copysign(1.0, result) == 1.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            normalized_entropy([0.5, 0.2])

    def test_needs_two_outcomes(self):
        with pytest.raises(ValueError):
            normalized_entropy([1.0])


class TestDivergence:
    def test_kl_worked_example(self):
        # 0.5*log2(0.5/0.75) + 0.5*log2(0.5/0.25)
        got = divergence([0.5, 0.5], [0.75, 0.25], "kl")
        assert got == pytest.approx(0.20751874963942185, abs=TOL)

    def test_kl_self_is_zero(self):
        assert divergence([0.3, 0.7], [0.3, 0.7], "kl") == pytest.approx(0.0, abs=TOL)

    def test_kl_asymmetric(self):
        ab = divergence([0.5, 0.5], [0.9, 0.1], "kl")
        ba = divergence([0.9, 0.1], [0.5, 0.5], "kl")
        assert abs(ab - ba) > 0.01

    def test_js_symmetric(self):
        ab = divergence([0.2, 0.8], [0.6, 0.4], "js")
        ba = divergence([0.6, 0.4], [0.2, 0.8], "js")
        assert ab == pytest.approx(ba, abs=1e-12)

    def test_js_disjoint_is_one(self):
        assert divergence([1.0, 0.0], [0.0, 1.0], "js") == pytest.approx(1.0, abs=1e-6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            divergence([0.5, 0.5], [0.5, 0.5], "hellinger")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            divergence([1.0], [0.5, 0.5], "kl")

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            divergence([0.6, 0.6], [0.5, 0.5], "kl")

    def test_zero_support_in_q_survives_smoothing(self):
        got = divergence([0.5, 0.5], [1.0, 0.0], "kl")
        assert math.isfinite(got)
        assert got > 0.0


class TestPoplift:
    CAT = Catalog(
        [
            Item(id="hist", provider_id="p", popularity=0.4),
            Item(id="hot", provider_id="p", popularity=0.6),
            Item(id="cold", provider_id="p", popularity=0.2),
            Item(id="dead", provider_id="p", popularity=0.0),
        ]
    )

    def test_worked_example(self):
        # rec mean 0.6 vs historical 0.4
        assert poplift(["hist"], ["hot"], self.CAT) == pytest.approx(0.5, abs=TOL)

    def test_negative_lift(self):
        assert poplift(["hist"], ["cold"], self.CAT) == pytest.approx(-0.5, abs=TOL)

    def test_empty_recs_count_zero(self):
        assert poplift(["hist"], [], self.CAT) == pytest.approx(-1.0, abs=TOL)

    def test_empty_profile(self):
        with pytest.raises(UndefinedBaseline):
            poplift([], ["hot"], self.CAT)

    def test_zero_baseline(self):
        with pytest.raises(UndefinedBaseline):
            poplift(["dead"], ["hot"], self.CAT)


class TestFairnessRegret:
    @pytest.mark.parametrize(
        "metric,target,achieved,expected",
        [
            (MetricId.NDCG, 0.9, 0.7, 0.2),
            (MetricId.NDCG, 0.9, 0.95, 0.0),
            (MetricId.GINI_EXPOSURE, 0.3, 0.5, 0.2),
            (MetricId.GINI_EXPOSURE, 0.3, 0.1, 0.0),
            (MetricId.POP_LIFT, 0.1, -0.4, 0.3),
            (MetricId.POP_LIFT, 0.1, 0.05, 0.0),
        ],
    )
    def test_examples(self, metric, target, achieved, expected):
        assert fairness_regret(metric, target, achieved) == pytest.approx(
            expected, abs=TOL
        )

    @pytest.mark.parametrize(
        "metric", [MetricId.FAIRNESS_REGRET, MetricId.L_HALF_BALANCE]
    )
    def test_composites_have_no_direction(self, metric):
        with pytest.raises(UnknownMetricDirection):
            fairness_regret(metric, 0.5, 0.5)
        with pytest.raises(UnknownMetricDirection):
            metric_direction(metric)


class TestLHalfBalance:
    def test_uniform_two(self):
        assert l_half_balance([0.5, 0.5]) == pytest.approx(2.0, abs=TOL)

    def test_single(self):
        assert l_half_balance([1.0]) == pytest.approx(1.0, abs=TOL)

    def test_all_zero(self):
        assert l_half_balance([0.0, 0.0]) == pytest.approx(0.0, abs=TOL)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            l_half_balance([1.5])

    def test_squares_by_correctly_rounded_product(self):
        # the exact square lies 0.498 ulp from this float; glibc's pow
        # returns the neighbour 0.502 ulp away
        assert l_half_balance([0.2671735203967178]).hex() == "0x1.1195ef71d8287p-2"


class TestCodomain:
    def test_every_metric_has_a_codomain(self):
        for metric in MetricId:
            lo, hi = METRIC_CODOMAIN[metric]
            assert lo < hi


def _catalog():
    return Catalog(
        [
            Item(
                id="a",
                provider_id="p1",
                categories=frozenset({"food"}),
                popularity=0.9,
            ),
            Item(
                id="b",
                provider_id="p1",
                categories=frozenset({"nature"}),
                popularity=0.1,
                attributes={"price": 10.0},
            ),
            Item(
                id="c",
                provider_id="p2",
                categories=frozenset({"food", "market"}),
                popularity=0.5,
            ),
        ]
    )


class TestRelevanceMap:
    def test_dot_product(self):
        cat = _catalog()
        q = Query(id="q", preference_weights={"food": 2.0, "market": 1.0})
        rel = relevance_map(q, cat)
        assert rel["a"] == pytest.approx(2.0)
        assert rel["b"] == pytest.approx(0.0)
        assert rel["c"] == pytest.approx(3.0)

    def test_constraint_violators_zeroed(self):
        cat = _catalog()
        q = Query(
            id="q",
            preference_weights={"food": 1.0},
            constraints=(Constraint("popularity", "<=", 0.6),),
        )
        rel = relevance_map(q, cat)
        assert rel["a"] == 0.0
        assert rel["c"] == pytest.approx(1.0)


class TestCategoryDistributions:
    def test_support_is_union(self):
        cat = _catalog()
        p, q = category_distributions(["a"], ["b"], cat)
        # union support: food, nature
        assert len(p) == len(q) == 2
        assert sum(p) == pytest.approx(1.0)
        assert sum(q) == pytest.approx(1.0)

    def test_single_category_returns_none(self):
        cat = _catalog()
        assert category_distributions(["a"], ["a"], cat) is None

    def test_empty_history_returns_none(self):
        cat = _catalog()
        assert category_distributions([], ["a", "b"], cat) is None


class TestEvaluateMetric:
    def test_ndcg_always_computable(self):
        cat = _catalog()
        q = Query(id="q", preference_weights={"food": 1.0}, top_n=2)
        got = evaluate_metric(MetricId.NDCG, q, ["c", "a"], cat, {})
        assert got is not None
        assert 0.0 <= got <= 1.0

    def test_exposure_metrics_none_without_mass(self):
        cat = _catalog()
        q = Query(id="q", top_n=2)
        assert evaluate_metric(MetricId.GINI_EXPOSURE, q, ["a"], cat, {}) is None
        assert evaluate_metric(MetricId.NORM_ENTROPY, q, ["a"], cat, {}) is None

    def test_exposure_metrics_cover_all_providers(self):
        cat = _catalog()
        q = Query(id="q", top_n=2)
        # only p1 has exposure; p2's zero still enters the distribution
        got = evaluate_metric(MetricId.GINI_EXPOSURE, q, ["a"], cat, {"p1": 2.0})
        assert got == pytest.approx(0.5)

    def test_history_metrics_none_without_history(self):
        cat = _catalog()
        q = Query(id="q", top_n=2)
        assert evaluate_metric(MetricId.KL_DIV, q, ["a"], cat, {}) is None
        assert evaluate_metric(MetricId.POP_LIFT, q, ["a"], cat, {}) is None

    @pytest.mark.parametrize("metric", [MetricId.KL_DIV, MetricId.JS_DIV])
    def test_divergences_skip_profiles_without_history(self, metric):
        q = Query(id="q", top_n=2)
        with mock.patch.object(metrics, "category_distributions", side_effect=AssertionError):
            assert evaluate_metric(metric, q, ["c", "a"], _catalog(), {}) is None

    @pytest.mark.parametrize(
        "metric, value", [(MetricId.KL_DIV, "0x1.c7b7904feb5e1p+3"), (MetricId.JS_DIV, "0x1.b37d8a6c25498p-2")]
    )
    def test_divergences_from_history(self, metric, value):
        q = Query(id="q", user_history=("a", "b"), top_n=2)
        assert evaluate_metric(metric, q, ["c", "a"], _catalog(), {}).hex() == value

    def test_poplift_from_history(self):
        cat = _catalog()
        q = Query(id="q", user_history=("c",), top_n=1)
        got = evaluate_metric(MetricId.POP_LIFT, q, ["a"], cat, {})
        assert got == pytest.approx((0.9 - 0.5) / 0.5)

    def test_composites_rejected(self):
        cat = _catalog()
        q = Query(id="q", top_n=1)
        with pytest.raises(UnknownMetricDirection):
            evaluate_metric(MetricId.FAIRNESS_REGRET, q, ["a"], cat, {})


# Ids come from one pool, so a final list may hold ids the catalog lacks.
_ID_POOL = [f"i{n:02d}" for n in range(60)]
_CATEGORIES = ["food", "market", "nature", "art"]
# zero, dyadic and non-dyadic weights; sums of the non-dyadic ones round
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1 / 3]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)


@st.composite
def _accuracy_inputs(draw):
    # one tuple per row, coded into a provider table and a category-set
    # table, since a draw per field of each item takes most of the test's
    # time.  The set table may hold empty and equal sets, and entries that
    # no row uses
    size = draw(st.integers(min_value=1, max_value=40))
    ids = draw(st.lists(st.sampled_from(_ID_POOL), min_size=size, max_size=size, unique=True))
    providers = draw(st.lists(st.sampled_from(["p1", "p2", "p3"]), min_size=1, max_size=3,
                              unique=True))
    sets = draw(st.lists(st.frozensets(st.sampled_from(_CATEGORIES)), min_size=1, max_size=6))
    rows = st.tuples(
        st.integers(0, len(providers) - 1),
        st.integers(0, len(sets) - 1),
        st.floats(min_value=0.0, max_value=1.0),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=100.0)),
    )
    provider_codes, set_codes, popularity, prices = zip(
        *draw(st.lists(rows, min_size=size, max_size=size))
    )
    catalog = Catalog.from_codes(
        ids, providers, provider_codes, sets, set_codes, popularity, [0.5] * size,
        {"price": [math.nan if price is None else price for price in prices]}, [""] * size,
    )
    weights = draw(st.dictionaries(st.sampled_from(_CATEGORIES + ["ghost"]), _WEIGHTS))
    # "missing" is carried by no item, so a constraint on it makes every item
    # infeasible
    constraints = draw(
        st.lists(
            st.builds(
                Constraint,
                st.sampled_from(["price", "popularity", "missing"]),
                st.sampled_from(["<=", ">="]),
                st.floats(min_value=-1.0, max_value=101.0),
            ),
            max_size=2,
        )
    )
    top_n = draw(st.integers(min_value=1, max_value=len(catalog) + 5))
    final_list = draw(st.lists(st.sampled_from(_ID_POOL + ["zzz"]), max_size=top_n + 5))
    query = Query(
        id="q", preference_weights=weights, constraints=tuple(constraints), top_n=top_n
    )
    return query, final_list, catalog


def _rounding_case():
    """Eight ideal gains whose IDCG rounds differently under pairwise summation."""
    categories = [{"food"}, {"market"}, {"nature"}, {"art"}, {"food", "market"},
                  {"food", "nature"}, {"food", "art"}, {"market", "nature"}]
    catalog = Catalog(
        Item(id=f"i{n:02d}", provider_id="p1", categories=frozenset(cats))
        for n, cats in enumerate(categories)
    )
    weights = {"food": 0.1, "market": 0.2, "nature": 0.3, "art": 0.7}
    return Query(id="q", preference_weights=weights, top_n=8), ["i03", "i00"], catalog


def _reference_accuracy(query, final_list, catalog):
    return (
        evaluate_metric(MetricId.NDCG, query, final_list, catalog, {}),
        evaluate_metric(MetricId.RECALL, query, final_list, catalog, {}),
    )


class TestAccuracyAtK:
    @settings(max_examples=300, deadline=None)
    @given(_accuracy_inputs())
    @example(
        (
            Query(
                id="q",
                preference_weights={"food": 0.1},
                constraints=(Constraint("missing", ">=", 0.0),),
                top_n=2,
            ),
            ["a", "c"],
            _catalog(),
        )
    )
    @example((Query(id="q", preference_weights={"food": 0.3}, top_n=9), [], _catalog()))
    @example(_rounding_case())
    # a final list longer than top_n, with a relevant, feasible item just past it
    @example((Query(id="q", preference_weights={"food": 1.0}, top_n=1), ["b", "a"], _catalog()))
    def test_equals_scalar_reference(self, case):
        query, final_list, catalog = case
        assert _accuracy_at_k(query, final_list, catalog) == _reference_accuracy(
            query, final_list, catalog
        )

    def test_worked_example(self):
        # relevance a=2 b=0 c=3, list (a, ghost, c) at k=2:
        # dcg = 2, idcg = 3 + 2/log2(3); one of the two relevant items is hit
        q = Query(id="q", preference_weights={"food": 2.0, "market": 1.0}, top_n=2)
        ndcg, recall = _accuracy_at_k(q, ["a", "ghost", "c"], _catalog())
        assert ndcg == pytest.approx(2.0 / (3.0 + 2.0 / math.log2(3)), abs=TOL)
        assert recall == 0.5


class TestBuildReportAccuracy:
    @pytest.mark.parametrize("name", ["tourism", "synthetic_200"])
    def test_sets_scored_once_per_outcome(self, name, request):
        scenario = request.getfixturevalue(name)
        outcomes, _ = run_stream(
            scenario.queries, scenario.agents, scenario.catalog, scenario.policy,
            scenario.rule_config,
        )
        with mock.patch.object(
            metrics, "set_scores", wraps=metrics.set_scores
        ) as set_scores, mock.patch.object(
            metrics, "relevance_scores", wraps=metrics.relevance_scores
        ) as scores, mock.patch.object(
            metrics, "relevance_map", wraps=metrics.relevance_map
        ) as rel_map:
            report = build_report(outcomes, scenario.agents, scenario.catalog)
        assert set_scores.call_count == len(outcomes)
        assert scores.call_count == 0
        assert rel_map.call_count == 0

        with mock.patch.object(metrics, "_accuracy_at_k", _reference_accuracy):
            reference = build_report(outcomes, scenario.agents, scenario.catalog)
        assert report == reference
        # key order is serialized, so it must match too
        assert [list(q.values) for q in report.per_query] == [
            list(q.values) for q in reference.per_query
        ]
        assert all(list(q.values)[:2] == ["ndcg", "recall"] for q in report.per_query)


# ---------------------------------------------------------------------------
# build_report against a frozen copy of its per-item form
#
# ``_frozen_*`` are ``build_report`` and ``_accuracy_at_k`` as they were
# before the report scored relevance per category set: one relevance value
# per item (from per-category incidence arrays), ``np.partition`` for the
# ideal top n, a dict exposure ledger, and every exposure metric through
# ``evaluate_metric``.  The report must match them float for float, in key
# order too, since key order is serialized.


def _frozen_relevance(query, catalog):
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
    categories = [columns.sets[code] for code in columns.set_codes.tolist()]
    incidence = {
        c: np.array([c in s for s in categories], dtype=bool)
        for c in sorted(set().union(*categories))
    }
    score = np.zeros(len(catalog))
    for cat, w in query.preference_weights.items():
        if cat in incidence:
            score += np.where(incidence[cat], w, 0.0)
    return np.where(feasible, score, 0.0)


def _frozen_accuracy(query, final_list, catalog):
    relevance = _frozen_relevance(query, catalog)
    ids = catalog.ids
    k = query.top_n
    gains = []
    for item in final_list[:k]:
        j = bisect.bisect_left(ids, item)
        gains.append(float(relevance[j]) if j < len(ids) and ids[j] == item else 0.0)
    dcg = 0.0
    for i, gain in enumerate(gains, start=1):
        dcg += gain / math.log2(i + 1)
    n = relevance.size
    top = relevance if k >= n else np.partition(relevance, n - k)[n - k :]
    ideal = sorted(top.tolist(), reverse=True)
    idcg = left_sum(rel / math.log2(i + 1) for i, rel in enumerate(ideal, start=1))
    ndcg = 0.0 if idcg == 0.0 else dcg / idcg
    relevant = int(np.count_nonzero(relevance > 0))
    recall = 0.0 if not relevant else sum(1 for g in gains if g > 0) / relevant
    return ndcg, recall


def _frozen_build_report(outcomes, specs, catalog):
    agent_ids = sorted({s.agent_id for s in specs})
    battery = (
        MetricId.GINI_EXPOSURE,
        MetricId.NORM_ENTROPY,
        MetricId.KL_DIV,
        MetricId.JS_DIV,
        MetricId.POP_LIFT,
    )
    exposure = {}
    per_query = []
    runtime = {}
    for outcome in outcomes:
        for provider, credit in exposure_delta(outcome.final_list, catalog).items():
            exposure[provider] = exposure.get(provider, 0.0) + credit
        ndcg, recall = _frozen_accuracy(outcome.query, outcome.final_list, catalog)
        values = {MetricId.NDCG.value: ndcg, MetricId.RECALL.value: recall}
        for metric in battery:
            v = evaluate_metric(metric, outcome.query, outcome.final_list, catalog, exposure)
            if v is not None:
                values[metric.value] = v
        regret = {a: outcome.per_agent_regret.get(a, 0.0) for a in agent_ids}
        if regret:
            values[MetricId.FAIRNESS_REGRET.value] = left_sum(regret.values()) / len(regret)
            values[MetricId.L_HALF_BALANCE.value] = l_half_balance(
                [max(0.0, 1.0 - r) for r in regret.values()]
            )
        per_query.append(
            QueryEvaluation(outcome.query_id, values, regret, dict(outcome.aggregate.influence))
        )
        for stage, calls in outcome.stage_calls.items():
            runtime[stage] = runtime.get(stage, 0) + calls
    aggregate = {}
    for metric in MetricId:
        series = [q.values[metric.value] for q in per_query if metric.value in q.values]
        if series:
            aggregate[metric.value] = {
                "mean": left_sum(series) / len(series),
                "min": min(series),
                "max": max(series),
            }
    drift = {a: tuple(q.regret.get(a, 0.0) for q in per_query) for a in agent_ids}
    return EvaluationReport(tuple(per_query), aggregate, drift, runtime)


def _bits(report):
    """Every key and float of ``report`` in order, each float as ``float.hex``."""

    def hexed(mapping):
        return [(key, float(v).hex()) for key, v in mapping.items()]

    return (
        [(q.query_id, hexed(q.values), hexed(q.regret), hexed(q.influence))
         for q in report.per_query],
        [(metric, hexed(stats)) for metric, stats in report.aggregate.items()],
        [(a, [float(v).hex() for v in series]) for a, series in report.drift.items()],
        list(report.runtime.items()),
    )


_REPORT_CATEGORIES = ("food", "market", "nature", "art")
_REPORT_PROVIDERS = ("p1", "p2", "p3")
_REPORT_SPECS = (
    AgentSpec("traveler", StakeholderRole.USER, AgentObjective.RELEVANCE, MetricId.NDCG, 0.8),
    AgentSpec(
        "providers", StakeholderRole.PROVIDER, AgentObjective.PROVIDER_EXPOSURE,
        MetricId.GINI_EXPOSURE, 0.3,
    ),
)


@st.composite
def _report_items(draw):
    """1-40 items over 1-3 providers and up to 6 category sets, which may be
    empty or equal."""
    size = draw(st.integers(min_value=1, max_value=40))
    ids = draw(st.lists(st.sampled_from(_ID_POOL), min_size=size, max_size=size, unique=True))
    providers = draw(
        st.lists(st.sampled_from(_REPORT_PROVIDERS), min_size=1, max_size=3, unique=True)
    )
    sets = draw(
        st.lists(st.frozensets(st.sampled_from(_REPORT_CATEGORIES)), min_size=1, max_size=6)
    )
    rows = st.tuples(
        st.sampled_from(providers),
        st.sampled_from(sets),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        st.one_of(st.none(), st.floats(0.0, 100.0)),
    )
    return [
        Item(
            id=item_id,
            provider_id=provider,
            categories=categories,
            popularity=popularity,
            attributes={} if price is None else {"price": price},
        )
        for item_id, (provider, categories, popularity, price) in zip(
            ids, draw(st.lists(rows, min_size=size, max_size=size))
        )
    ]


@st.composite
def _report_inputs(draw):
    catalog = draw(test_catalog_columns.catalogs(_report_items()))
    ids = list(catalog.ids)
    outcomes = []
    for n in range(draw(st.integers(min_value=1, max_value=5))):
        # zero weights, and weights for "ghost", which no item carries
        weights = draw(
            st.dictionaries(st.sampled_from(list(_REPORT_CATEGORIES) + ["ghost"]), _WEIGHTS)
        )
        constraints = draw(
            st.lists(
                st.builds(
                    Constraint,
                    st.sampled_from(["price", "popularity", "unknown"]),
                    st.sampled_from(["<=", ">="]),
                    st.sampled_from([0.0, 0.1, 0.5, 50.0]),
                ),
                max_size=2,
            )
        )
        query = Query(
            id=f"q{n}",
            preference_weights=weights,
            constraints=tuple(constraints),
            user_history=tuple(draw(st.lists(st.sampled_from(ids), max_size=3))),
            top_n=draw(st.integers(min_value=1, max_value=len(ids) + 3)),
        )
        final_list = tuple(draw(st.lists(st.sampled_from(ids), max_size=8, unique=True)))
        regret = draw(
            st.dictionaries(st.sampled_from([s.agent_id for s in _REPORT_SPECS]),
                            st.floats(0.0, 2.0))
        )
        outcomes.append(_outcome(query, final_list, regret))
    return outcomes, catalog


def _outcome(query, final_list, regret):
    return QueryOutcome(
        query_id=query.id,
        final_list=final_list,
        per_agent_ballots=(),
        aggregate=AggregateResult("borda", final_list, {"traveler": 0.25}, (), {}),
        skipped_agents={},
        justifications={},
        query=query,
        per_agent_achieved={},
        per_agent_regret=regret,
        stage_calls={"generate": 2, "aggregate": 1},
    )


# the best-scoring item is infeasible, and an empty set scores 0.0
_INFEASIBLE_BEST = (
    [
        _outcome(
            Query(
                id="q0",
                preference_weights={"food": 1.0, "art": 0.5},
                constraints=(Constraint("price", "<=", 10.0),),
                top_n=2,
            ),
            ("i00", "i02"),
            {"traveler": 0.5},
        )
    ],
    Catalog(
        [
            Item("i00", "p1", frozenset({"food"}), attributes={"price": 5.0}),
            Item("i01", "p2", frozenset({"food", "art"}), attributes={"price": 50.0}),
            Item("i02", "p1", frozenset()),
        ]
    ),
)


def _long_stream(outcome_count, provider_count):
    """``outcome_count`` outcomes over a catalog with one item per provider."""
    ids = [f"i{n:05d}" for n in range(provider_count)]
    catalog = Catalog.from_codes(
        ids, [f"p{n:05d}" for n in range(provider_count)], range(provider_count),
        [{"food"}, {"art"}], [n % 2 for n in range(provider_count)],
        [0.5] * provider_count, [0.5] * provider_count, {}, [""] * provider_count,
    )
    query = Query(id="q", preference_weights={"food": 1.0, "art": 0.5}, top_n=5)
    outcomes = [
        _outcome(query, tuple(ids[(t * 7 + r) % provider_count] for r in range(5)), {})
        for t in range(outcome_count)
    ]
    return outcomes, catalog


class TestBuildReportMatchesFrozenCopy:
    # 1 and 5 ledger cells make blocks of 1 to 5 outcomes, so the ledger is
    # carried from block to block
    @settings(max_examples=100, deadline=None)
    @given(_report_inputs(), st.sampled_from([1, 5, metrics._LEDGER_CELLS]))
    @example(_INFEASIBLE_BEST, metrics._LEDGER_CELLS)
    def test_same_floats_and_key_order(self, case, cells):
        outcomes, catalog = case
        with mock.patch.object(metrics, "_LEDGER_CELLS", cells):
            report = build_report(outcomes, _REPORT_SPECS, catalog)
        assert _bits(report) == _bits(_frozen_build_report(outcomes, _REPORT_SPECS, catalog))

    def test_memory_does_not_grow_with_the_stream(self):
        # 1,000 outcomes x 2,000 providers: a replay that held the whole
        # stream's ledger at once would need 16 MB for each such array
        outcomes, catalog = _long_stream(1000, 2000)
        tracemalloc.start()
        try:
            build_report(outcomes, _REPORT_SPECS, catalog)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("name", ["tourism", "synthetic_200"])
    def test_bundled_streams(self, name, request):
        scenario = request.getfixturevalue(name)
        outcomes, _ = run_stream(
            scenario.queries, scenario.agents, scenario.catalog, scenario.policy,
            scenario.rule_config,
        )
        report = build_report(outcomes, scenario.agents, scenario.catalog)
        frozen = _frozen_build_report(outcomes, scenario.agents, scenario.catalog)
        assert _bits(report) == _bits(frozen)
