import gc
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorank import agents
from agorank.agents import (
    AgentObjective,
    AgentSpec,
    ExposureLedger,
    generate_candidates,
    generate_popularity_mitigation,
    generate_provider_exposure,
    generate_relevance,
    update_reliability,
)
from agorank.metrics import MetricId
from agorank.model import Ballot, Catalog, Constraint, Item, Query, StakeholderRole, left_sum

CATALOG = Catalog(
    [
        Item(
            id="beach",
            provider_id="p1",
            categories=frozenset({"beach", "nature"}),
            popularity=0.9,
            sustainability=0.2,
        ),
        Item(
            id="museum",
            provider_id="p2",
            categories=frozenset({"culture"}),
            popularity=0.4,
            sustainability=0.6,
            attributes={"price": 15.0},
        ),
        Item(
            id="trail",
            provider_id="p3",
            categories=frozenset({"nature", "trail"}),
            popularity=0.1,
            sustainability=0.9,
        ),
    ]
)


def spec_for(objective, agent_id="a1", metric=MetricId.NDCG, target=0.9, **kw):
    return AgentSpec(
        agent_id=agent_id,
        role=StakeholderRole.USER,
        objective=objective,
        objective_metric=metric,
        objective_target=target,
        **kw,
    )


class TestAgentSpec:
    def test_target_must_fit_metric_codomain(self):
        with pytest.raises(ValueError):
            spec_for(AgentObjective.RELEVANCE, target=1.5)

    def test_poplift_target_may_be_negative(self):
        spec_for(AgentObjective.RELEVANCE, metric=MetricId.POP_LIFT, target=-0.2)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            spec_for(AgentObjective.RELEVANCE, agent_id="")


class TestRelevanceAgent:
    def test_orders_by_weighted_overlap(self):
        q = Query(id="q", preference_weights={"nature": 1.0, "trail": 0.5})
        ballot = generate_relevance(q, CATALOG, k=3)
        # trail 1.5, beach 1.0, museum 0.0
        assert ballot.ranking == ("trail", "beach", "museum")
        assert "trail" in ballot.justification

    def test_zero_score_items_retained(self):
        q = Query(id="q", preference_weights={"culture": 1.0})
        ballot = generate_relevance(q, CATALOG, k=3)
        assert set(ballot.ranking) == {"beach", "museum", "trail"}
        assert ballot.ranking[0] == "museum"

    def test_tie_breaks_by_id(self):
        q = Query(id="q", preference_weights={})
        ballot = generate_relevance(q, CATALOG, k=3)
        assert ballot.ranking == ("beach", "museum", "trail")

    def test_constraint_filters(self):
        q = Query(
            id="q",
            preference_weights={"nature": 1.0},
            constraints=(Constraint("popularity", "<=", 0.5),),
        )
        ballot = generate_relevance(q, CATALOG, k=3)
        assert "beach" not in ballot.ranking

    def test_all_filtered_yields_empty(self):
        q = Query(id="q", constraints=(Constraint("price", "<=", 1.0),))
        ballot = generate_relevance(q, CATALOG, k=3)
        assert ballot.ranking == ()
        assert ballot.justification == "all items violate the query constraints"

    def test_k_truncates(self):
        q = Query(id="q", preference_weights={"nature": 1.0})
        assert len(generate_relevance(q, CATALOG, k=2).ranking) == 2


class TestProviderExposureAgent:
    def test_least_exposed_first(self):
        ledger = ExposureLedger()
        for provider, credit in {"p1": 5.0, "p2": 0.5, "p3": 2.0}.items():
            ledger.add(provider, credit)
        ballot = generate_provider_exposure(Query(id="q"), CATALOG, ledger, k=3)
        assert ballot.ranking == ("museum", "trail", "beach")
        assert "p2" in ballot.justification

    def test_fresh_ledger_ties_by_item_id(self):
        ballot = generate_provider_exposure(Query(id="q"), CATALOG, ExposureLedger(), k=3)
        assert ballot.ranking == ("beach", "museum", "trail")


def _reference_mitigation(catalog, k):
    """The popularity-mitigation ballot from one stable argsort per call."""
    score = (1.0 - catalog.columns.popularity) + catalog.columns.sustainability
    order = np.argsort(-score, kind="stable")[:k]
    ranking = tuple(catalog.ids[i] for i in order.tolist())
    if ranking:
        mean_pop = left_sum(catalog[i].popularity for i in ranking) / len(ranking)
        justification = f"mean popularity of slate: {mean_pop:.6f}"
    else:
        justification = "catalog is empty"
    return Ballot(agent_id="", ranking=ranking, justification=justification)


# few distinct values, so scores tie exactly and also as unequal float sums
_COARSE = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0])
_MITIGATION_CATALOGS = st.lists(
    st.builds(
        Item,
        id=st.text("abcdefgh", min_size=1, max_size=3),
        provider_id=st.just("p"),
        popularity=_COARSE,
        sustainability=_COARSE,
    ),
    max_size=12,
    unique_by=lambda item: item.id,
).map(Catalog)


def _fresh_catalogs(size=40):
    return [
        Catalog(
            Item(id=f"i{n:02d}", provider_id="p", popularity=(n * seed % 7) / 7,
                 sustainability=(n * seed % 5) / 5)
            for n in range(size)
        )
        for seed in (3, 4)
    ]


class TestPopularityMitigationAgent:
    def test_ordering(self):
        ballot = generate_popularity_mitigation(Query(id="q"), CATALOG, k=3)
        # trail 1.8, museum 1.2, beach 0.3
        assert ballot.ranking == ("trail", "museum", "beach")
        assert "mean popularity" in ballot.justification

    @settings(max_examples=150, deadline=None)
    @given(catalogs=st.tuples(_MITIGATION_CATALOGS, _MITIGATION_CATALOGS))
    def test_equals_per_call_argsort(self, catalogs):
        # the two catalogs are called in turn, so each call reads its own order
        query = Query(id="q")
        for k in range(1, max(map(len, catalogs)) + 3):
            for catalog in catalogs:
                expected = _reference_mitigation(catalog, k)
                assert generate_popularity_mitigation(query, catalog, k) == expected

    def test_order_sorted_once_per_catalog(self):
        first, second = _fresh_catalogs()
        with mock.patch.object(agents.np, "argsort", wraps=np.argsort) as argsort:
            for k in (1, 5, 40, 3):
                generate_popularity_mitigation(Query(id="q"), first, k)
            assert argsort.call_count == 1
            generate_popularity_mitigation(Query(id="q"), second, 2)
            generate_popularity_mitigation(Query(id="q"), first, 2)
            assert argsort.call_count == 2

    def test_kept_order_is_read_only(self):
        order = agents._mitigation_order(_fresh_catalogs()[0])
        assert not order.flags.writeable
        with pytest.raises(ValueError):
            order[0] = 1


    def test_order_dies_with_its_catalog(self):
        catalog = _fresh_catalogs()[0]
        alive = weakref.ref(catalog)
        generate_popularity_mitigation(Query(id="q"), catalog, 3)
        order = weakref.ref(catalog.derived(agents._mitigation_order))
        del catalog
        gc.collect()
        assert alive() is None
        assert order() is None

    def test_threads_on_fresh_catalogs(self):
        # each round hands new catalogs to four threads at once, so they race
        # to fill each catalog's kept order while the last round's catalogs die
        query = Query(id="q")
        failures: list[Ballot] = []

        def generate(shared):
            for n in range(40):
                catalog, k = shared[n % 2], 1 + n % 7
                ballot = generate_popularity_mitigation(query, catalog, k)
                if ballot != _reference_mitigation(catalog, k):
                    failures.append(ballot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                shared = _fresh_catalogs()
                threads = [threading.Thread(target=generate, args=(shared,)) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestReliability:
    def test_half_violations(self):
        assert update_reliability(1.0, violations=1, items=2) == pytest.approx(0.75)

    def test_floor(self):
        assert update_reliability(0.15, 1, 1) == pytest.approx(0.1)

    def test_empty_ballot_no_penalty(self):
        assert update_reliability(0.8, 0, 0) == pytest.approx(0.8)

    def test_clean_ballot_no_decay(self):
        assert update_reliability(1.0, 0, 5) == pytest.approx(1.0)

    def test_compounding(self):
        weight = 1.0
        for _ in range(2):
            weight = update_reliability(weight, 1, 2)
        assert weight == pytest.approx(0.5625)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            update_reliability(1.0, 2, 1)


class TestDispatch:
    def test_tags_ballot_with_agent_id(self):
        spec = spec_for(AgentObjective.RELEVANCE, agent_id="traveler")
        ballot = generate_candidates(
            spec, Query(id="q", preference_weights={"nature": 1.0, "trail": 0.5}),
            CATALOG, ExposureLedger(), k=3,
        )
        assert ballot.agent_id == "traveler"
        assert ballot.ranking[0] == "trail"

    def test_each_builtin_routes(self):
        for objective, first in [
            (AgentObjective.PROVIDER_EXPOSURE, "beach"),
            (AgentObjective.POPULARITY_MITIGATION, "trail"),
        ]:
            ballot = generate_candidates(
                spec_for(objective), Query(id="q"), CATALOG, ExposureLedger(), k=3
            )
            assert ballot.ranking[0] == first

    def test_external_routes_to_mock(self):
        spec = spec_for(
            AgentObjective.EXTERNAL, params={"endpoint": "mock://", "persona": "guide"}
        )
        ballot = generate_candidates(spec, Query(id="q"), CATALOG, ExposureLedger(), k=2)
        assert len(ballot.ranking) == 2
        assert set(ballot.ranking) <= {"beach", "museum", "trail"}
