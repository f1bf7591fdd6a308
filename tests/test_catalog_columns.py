"""The columnar relevance scan and ballot orders against their per-item loop form.

The ``_reference_*`` functions are frozen copies of the per-item Python loops
that ``metrics.relevance_map`` and the built-in agents ran before the catalog
gained numpy columns.  The one change to the copies: the score is an explicit
left-to-right ``total += w`` loop instead of ``sum()``, so the reference does
not depend on how the interpreter sums floats.  Ballots must match exactly and
relevance values bit for bit.

The columns are the catalog's only copy of its items, so the last tests hold
the rows and item records built from them to the source items and their hash,
and check that loading a synthetic scenario, a catalog file or saved outcomes
builds no ``Item`` at all.
"""

from __future__ import annotations

import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorank import dataio
from agorank.agents import (
    ExposureLedger,
    generate_popularity_mitigation,
    generate_provider_exposure,
    generate_relevance,
)
from agorank.metrics import relevance_map, relevance_scores
from agorank.model import Ballot, Catalog, Constraint, Item, Query
from agorank.orchestrator import run_stream

import test_dataio


def _reference_score(query: Query, item: Item) -> float:
    total = 0.0
    for cat, w in query.preference_weights.items():
        if cat in item.categories:
            total += w
    return total


def _reference_relevance_map(query: Query, catalog: Catalog) -> dict[str, float]:
    rel: dict[str, float] = {}
    for item in catalog.items_sorted():
        if not all(c.satisfied_by(item) for c in query.constraints):
            rel[item.id] = 0.0
            continue
        rel[item.id] = _reference_score(query, item)
    return rel


def _reference_relevance(query: Query, catalog: Catalog, k: int) -> Ballot:
    scored: list[tuple[float, str]] = []
    for item in catalog.items_sorted():
        if not all(c.satisfied_by(item) for c in query.constraints):
            continue
        score = _reference_score(query, item)
        scored.append((score, item.id))
    scored.sort(key=lambda t: (-t[0], t[1]))
    ranking = tuple(item_id for _, item_id in scored[:k])
    if not ranking:
        justification = "all items violate the query constraints"
    else:
        top = catalog[ranking[0]]
        matched = sorted(
            c for c in top.categories if query.preference_weights.get(c, 0.0) > 0
        )
        if matched:
            justification = f"top pick {top.id} matches: {', '.join(matched)}"
        else:
            justification = f"top pick {top.id} matches no weighted category"
    return Ballot(agent_id="", ranking=ranking, justification=justification)


def _reference_provider_exposure(
    query: Query, catalog: Catalog, ledger: ExposureLedger, k: int
) -> Ballot:
    ordered = sorted(
        catalog.items_sorted(), key=lambda it: (ledger.get(it.provider_id), it.id)
    )
    ranking = tuple(item.id for item in ordered[:k])
    if ranking:
        top_provider = catalog.provider_of(ranking[0])
        justification = (
            f"promoting provider {top_provider} "
            f"(cumulative exposure {ledger.get(top_provider):.6f})"
        )
    else:
        justification = "catalog is empty"
    return Ballot(agent_id="", ranking=ranking, justification=justification)


def _reference_popularity_mitigation(query: Query, catalog: Catalog, k: int) -> Ballot:
    scored = sorted(
        catalog.items_sorted(),
        key=lambda it: (-((1.0 - it.popularity) + it.sustainability), it.id),
    )
    ranking = tuple(item.id for item in scored[:k])
    if ranking:
        mean_pop = sum(catalog[i].popularity for i in ranking) / len(ranking)
        justification = f"mean popularity of slate: {mean_pop:.6f}"
    else:
        justification = "catalog is empty"
    return Ballot(agent_id="", ranking=ranking, justification=justification)


def _assert_same_relevance(got: dict[str, float], want: dict[str, float]) -> None:
    assert list(got) == list(want)
    assert [float(v).hex() for v in got.values()] == [float(v).hex() for v in want.values()]


# a few shared values make ties and constraint boundaries likely; 1/3 and 0.1
# have no finite binary expansion, so their sums round
_SHARED = (0.0, 0.1, 1 / 3, 0.5, 2 / 3, 1.0)
_UNIT = st.one_of(st.sampled_from(_SHARED), st.floats(min_value=0.0, max_value=1.0))
_ANY = st.one_of(
    st.sampled_from(_SHARED + (50.0,)),
    st.floats(allow_nan=False, min_value=-1e6, max_value=1e6),
)
_WEIGHT = st.one_of(
    st.sampled_from((0.0, -0.0, 0.1, 0.2, 1 / 3, 1 / 7, 1.0)),
    st.floats(min_value=0.0, max_value=10.0),
)
_CATEGORIES = ("art", "food", "nature", "sea")
_PROVIDERS = ("pa", "pb", "pc", "pd")
_ATTRIBUTES = ("price", "rating", "popularity")


@st.composite
def _items(draw) -> list[Item]:
    ids = draw(
        st.lists(
            st.text(alphabet="abXY09-", min_size=1, max_size=4),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    return [
        Item(
            id=item_id,
            provider_id=draw(st.sampled_from(_PROVIDERS)),
            categories=draw(st.frozensets(st.sampled_from(_CATEGORIES))),
            popularity=draw(_UNIT),
            sustainability=draw(_UNIT),
            # any attribute may be missing; "popularity" here is not the field
            attributes=draw(st.dictionaries(st.sampled_from(_ATTRIBUTES), _ANY)),
        )
        for item_id in ids
    ]


@st.composite
def _queries(draw) -> Query:
    # "unknown" and "zz" are an attribute and a category no item has
    cats = draw(st.lists(st.sampled_from(_CATEGORIES + ("zz",)), unique=True))
    constraints = draw(
        st.lists(
            st.builds(
                Constraint,
                st.sampled_from(_ATTRIBUTES + ("sustainability", "unknown")),
                st.sampled_from(("<=", ">=")),
                _ANY,
            ),
            max_size=3,
        )
    )
    return Query(
        id="q",
        preference_weights={c: draw(_WEIGHT) for c in cats},
        constraints=tuple(constraints),
    )


def _ledger(credits: dict[str, float]) -> ExposureLedger:
    """An exposure ledger that holds ``credits``."""
    ledger = ExposureLedger()
    for provider, credit in credits.items():
        ledger.add(provider, credit)
    return ledger


_LEDGERS = st.dictionaries(
    st.sampled_from(_PROVIDERS),
    st.sampled_from((0.0, 1.0, 1 / 3, 0.6309297535714575, 1.5)),
).map(_ledger)


def build_catalog(items: list[Item], how: str, twice: list[bool]) -> Catalog:
    """The catalog of ``items``, built by ``Catalog(items)`` or by
    ``from_codes``, with one table entry per row (``rows``, as the loaders
    call it) or with coded tables (``codes``).  The coded tables start with
    an unused entry and hold every provider and category set twice; row
    ``r`` takes the second copy when ``twice[r]``."""
    if how == "items":
        return Catalog(items)
    ids = [it.id for it in items]
    names = sorted({name for it in items for name in it.attributes})
    columns = (
        [it.popularity for it in items],
        [it.sustainability for it in items],
        {name: [it.attributes.get(name, math.nan) for it in items] for name in names},
        [it.description for it in items],
    )
    if how == "rows":
        each = range(len(items))
        return Catalog.from_codes(
            ids, [it.provider_id for it in items], each, [set(it.categories) for it in items],
            each, *columns,
        )
    providers = sorted({it.provider_id for it in items})
    sets = list(dict.fromkeys(it.categories for it in items))
    return Catalog.from_codes(
        ids,
        ["unused", *providers, *providers],
        [1 + providers.index(it.provider_id) + len(providers) * t for it, t in zip(items, twice)],
        [{"unused"}, *sets, *map(set, sets)],
        [1 + sets.index(it.categories) + len(sets) * t for it, t in zip(items, twice)],
        *columns,
    )


@st.composite
def catalogs(draw, items: st.SearchStrategy[list[Item]]) -> Catalog:
    """A catalog of the drawn items, built in any of the three ways."""
    items = draw(items)
    twice = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return build_catalog(items, draw(st.sampled_from(("items", "rows", "codes"))), twice)


@settings(max_examples=300, deadline=None)
@given(catalog=catalogs(_items()), query=_queries(), ledger=_LEDGERS, extra=st.integers(-11, 3))
def test_columnar_scans_match_the_per_item_loops(catalog, query, ledger, extra):
    columns = catalog.columns
    # every set is used, and numbered in the order the rows first use it
    assert list(dict.fromkeys(columns.set_codes.tolist())) == list(range(len(columns.sets)))
    assert len(set(columns.sets)) == len(columns.sets)
    assert list(columns.set_incidence) == sorted(set().union(*columns.sets))
    assert all(
        held.tolist() == [category in s for s in columns.sets]
        for category, held in columns.set_incidence.items()
    )
    k = max(1, len(catalog) + extra)  # from 1 up to 3 more than the catalog holds
    _, score = relevance_scores(query, catalog)
    assert [v.hex() for v in score.tolist()] == [
        _reference_score(query, item).hex() for item in catalog.items_sorted()
    ]
    _assert_same_relevance(
        relevance_map(query, catalog), _reference_relevance_map(query, catalog)
    )
    assert generate_relevance(query, catalog, k) == _reference_relevance(query, catalog, k)
    assert generate_provider_exposure(query, catalog, ledger, k) == (
        _reference_provider_exposure(query, catalog, ledger, k)
    )
    assert generate_popularity_mitigation(query, catalog, k) == (
        _reference_popularity_mitigation(query, catalog, k)
    )


def test_all_infeasible_query():
    catalog = Catalog(
        [
            Item(id="a", provider_id="p", categories={"art"}, attributes={"price": 5.0}),
            Item(id="b", provider_id="p", categories={"art"}),
        ]
    )
    query = Query(
        id="q",
        preference_weights={"art": 1.0},
        constraints=(Constraint("price", ">=", 10.0),),
    )
    ballot = generate_relevance(query, catalog, 5)
    assert ballot == _reference_relevance(query, catalog, 5)
    assert ballot.ranking == ()
    _assert_same_relevance(relevance_map(query, catalog), {"a": 0.0, "b": 0.0})


def test_bundled_scenarios_match_the_per_item_loops():
    for name in ("builtin:tourism", "builtin:synthetic-200"):
        scenario = dataio.load_scenario(name)
        catalog = scenario.catalog
        ledger = _ledger({p: float(i % 3) for i, p in enumerate(catalog.providers)})
        for query in scenario.queries:
            k = 3 * query.top_n
            _assert_same_relevance(
                relevance_map(query, catalog), _reference_relevance_map(query, catalog)
            )
            assert generate_relevance(query, catalog, k) == (
                _reference_relevance(query, catalog, k)
            )
            assert generate_provider_exposure(query, catalog, ledger, k) == (
                _reference_provider_exposure(query, catalog, ledger, k)
            )
            assert generate_popularity_mitigation(query, catalog, k) == (
                _reference_popularity_mitigation(query, catalog, k)
            )


# test_dataio's items add descriptions, free-form ids and attribute names
_SOURCE_ITEMS = st.one_of(
    _items(),
    st.lists(test_dataio._items(with_attributes=True), max_size=6, unique_by=lambda i: i.id),
)


@settings(max_examples=300, deadline=None)
@given(items=_SOURCE_ITEMS)
def test_rows_are_the_source_items(items):
    catalog = Catalog(items)
    for item in items:
        assert catalog[item.id] == item
    assert catalog.items_sorted() == sorted(items, key=lambda it: it.id)
    assert dataio.catalog_hash(catalog) == test_dataio._reference_hash(items)


@settings(max_examples=100, deadline=None)
@given(items=_SOURCE_ITEMS)
def test_item_records_read_back_as_the_source_items(items):
    records = [rec for part in dataio._item_records(Catalog(items)) for rec in part]
    decoded = [dataio._decode(dataio._ITEM, rec, "", Item) for rec in records]
    assert decoded == sorted(items, key=lambda it: it.id)


def test_columns_exist_from_construction_and_are_read_only():
    catalog = dataio.load_scenario("builtin:synthetic-200").catalog
    columns = catalog.columns
    assert catalog.columns is columns
    arrays = (
        columns.provider_codes,
        columns.popularity,
        columns.sustainability,
        columns.set_codes,
        *columns.set_incidence.values(),
        *columns.attributes.values(),
    )
    assert len(arrays) > 4
    assert not any(array.flags.writeable for array in arrays)
    # rows are built on each call and never kept
    assert catalog["item-000"] == catalog["item-000"]
    assert catalog["item-000"] is not catalog["item-000"]


COUNCIL = Path(__file__).parents[1] / "perfbench" / "scenarios" / "council-2k.json"


def test_loading_a_synthetic_scenario_builds_no_item():
    council = COUNCIL
    with mock.patch.object(
        Item, "__post_init__", autospec=True, side_effect=Item.__post_init__
    ) as built:
        for source in ("builtin:synthetic-200", council):
            catalog = dataio.load_scenario(source).catalog
        assert built.call_count == 0
        assert catalog["item-000"].id == "item-000"
        assert built.call_count == 1


def test_catalog_files_and_saved_outcomes_build_no_item(tmp_path):
    scenario = dataio.load_scenario(COUNCIL)
    outcomes, _ = run_stream(
        scenario.queries[:3], scenario.agents, scenario.catalog, scenario.policy,
        scenario.rule_config,
    )
    # a fresh catalog, whose hash is not kept yet
    catalog = dataio.load_scenario(COUNCIL).catalog
    columns = catalog.columns
    # the same items without ``price``, which the CSV form cannot carry
    plain = Catalog.from_codes(
        catalog.ids, catalog.providers, columns.provider_codes, columns.sets, columns.set_codes,
        columns.popularity, columns.sustainability, {}, columns.descriptions,
    )
    saved = tmp_path / "outcomes.json"
    with mock.patch.object(
        Item, "__post_init__", autospec=True, side_effect=Item.__post_init__
    ) as built:
        dataio.catalog_hash(catalog)
        dataio.export_catalog(catalog, tmp_path / "catalog.json")
        dataio.export_catalog(plain, tmp_path / "catalog.csv")
        with pytest.raises(ValueError, match="item item-000 has attributes"):
            dataio.export_catalog(catalog, tmp_path / "refused.csv")
        dataio.save_outcomes(outcomes, catalog, saved, scenario.name, "copeland")
        assert dataio.load_outcomes(saved, catalog)[0] == outcomes
        # the loaders decode rows, and the files reload as what was written
        for source, name in ((catalog, "catalog.json"), (plain, "catalog.csv")):
            reloaded = dataio.load_catalog(tmp_path / name)
            assert dataio.catalog_hash(reloaded) == dataio.catalog_hash(source)
        assert built.call_count == 0
    assert (tmp_path / "catalog.csv").stat().st_size > 0
