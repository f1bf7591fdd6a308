import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agorank import metrics
from agorank.errors import (
    LengthMismatch,
    NotNormalized,
    UndefinedBaseline,
    UnknownMetricDirection,
    ZeroMass,
)
from agorank.metrics import (
    METRIC_CODOMAIN,
    MetricId,
    _accuracy_at_k,
    build_report,
    category_distributions,
    divergence,
    evaluate_metric,
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
from agorank.model import Catalog, Constraint, Item, Query
from agorank.orchestrator import run_stream

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


# Ids come from one pool, so the ids a final list holds that are not in the
# catalog sort between catalog ids, where a bisection lands next to them.
_ID_POOL = [f"i{n:02d}" for n in range(60)]
_CATEGORIES = ["food", "market", "nature", "art"]
# zero, dyadic and non-dyadic weights; sums of the non-dyadic ones round
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1 / 3]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)


@st.composite
def _accuracy_inputs(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    ids = draw(st.lists(st.sampled_from(_ID_POOL), min_size=size, max_size=size, unique=True))
    items = []
    for item_id in ids:
        attributes = {}
        if draw(st.booleans()):
            attributes["price"] = draw(st.floats(min_value=0.0, max_value=100.0))
        items.append(
            Item(
                id=item_id,
                provider_id=draw(st.sampled_from(["p1", "p2", "p3"])),
                categories=frozenset(draw(st.sets(st.sampled_from(_CATEGORIES)))),
                popularity=draw(st.floats(min_value=0.0, max_value=1.0)),
                attributes=attributes,
            )
        )
    catalog = Catalog(items)
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
    def test_one_relevance_array_per_outcome(self, name, request):
        scenario = request.getfixturevalue(name)
        outcomes, _ = run_stream(
            scenario.queries, scenario.agents, scenario.catalog, scenario.policy,
            scenario.rule_config,
        )
        with mock.patch.object(
            metrics, "relevance_scores", wraps=metrics.relevance_scores
        ) as scores, mock.patch.object(
            metrics, "relevance_map", wraps=metrics.relevance_map
        ) as rel_map:
            report = build_report(outcomes, scenario.agents, scenario.catalog)
        assert scores.call_count == len(outcomes)
        assert rel_map.call_count == 0

        with mock.patch.object(metrics, "_accuracy_at_k", _reference_accuracy):
            reference = build_report(outcomes, scenario.agents, scenario.catalog)
        assert report == reference
        # key order is serialized, so it must match too
        assert [list(q.values) for q in report.per_query] == [
            list(q.values) for q in reference.per_query
        ]
        assert all(list(q.values)[:2] == ["ndcg", "recall"] for q in report.per_query)
