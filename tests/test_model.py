import gc
import itertools
import math
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agorank import adapter, agents, dataio
from agorank.errors import (
    DuplicateItemId,
    EmptyAfterGrounding,
    NoCandidates,
    PoolMismatch,
)
from agorank.model import (
    Ballot,
    Catalog,
    Constraint,
    Item,
    PreferenceProfile,
    Query,
    candidate_pool,
    kendall_tau,
    validate_ballot,
)


def make_catalog(*ids):
    return Catalog([Item(id=i, provider_id="p") for i in ids])


class TestItem:
    def test_defaults(self):
        item = Item(id="x", provider_id="p")
        assert item.popularity == 0.5
        assert item.sustainability == 0.5
        assert item.categories == frozenset()

    @pytest.mark.parametrize("field,value", [("popularity", 1.2), ("popularity", -0.1),
                                             ("sustainability", 7.0)])
    def test_unit_range_enforced(self, field, value):
        with pytest.raises(ValueError):
            Item(id="x", provider_id="p", **{field: value})

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Item(id="", provider_id="p")

    def test_empty_provider_rejected(self):
        # FORMATS.md requires a non-empty provider_id; both catalog loaders refuse
        # one, so an item holding it would export to a file that cannot reload
        with pytest.raises(ValueError, match="item x: provider id must be non-empty"):
            Item(id="x", provider_id="")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_attribute_rejected(self, value):
        with pytest.raises(ValueError, match="item x: attribute 'price': .* is not a finite number"):
            Item(id="x", provider_id="p", attributes={"rating": 4.0, "price": value})

    def test_numbers_are_held_as_floats(self):
        # a catalog keeps float64 columns, so an item must hold what its row gives back
        item = Item(id="x", provider_id="p", popularity=1, sustainability=0, attributes={"n": 3})
        assert [type(v) for v in (item.popularity, item.sustainability, item.attributes["n"])] == [
            float, float, float
        ]
        assert Catalog([item])["x"] == item


class TestCatalog:
    def test_duplicate_id(self):
        with pytest.raises(DuplicateItemId):
            Catalog([Item(id="a", provider_id="p"), Item(id="a", provider_id="q")])

    def test_constructors_check_what_item_checks(self):
        # rows d, b, a, c: id order is a, b, c, d
        rows = {
            "ids": ["d", "b", "a", "c"],
            "providers": ["q", "p", "q", "r"],
            "categories": [{"art"}, set(), {"art"}, {"art", "sea"}],
            "popularity": [0.1, 0.2, 0.3, 0.4],
            "price": [1.0, math.nan, 2.0, math.nan],
        }

        def via_items(rows):
            # Item's own checks off, so that the catalog's are the ones tested
            with mock.patch.object(Item, "__post_init__", lambda item: None):
                items = [
                    Item(i, p, frozenset(c), pop, 0.5, {} if math.isnan(x) else {"price": x}, i)
                    for i, p, c, pop, x in zip(*rows.values())
                ]
            return Catalog(items)

        def via_rows(rows):
            # the loaders' path: shuffled rows, each the only user of its
            # own entry in both tables
            shuffled = {key: [column[r] for r in (2, 0, 3, 1)] for key, column in rows.items()}
            each = np.arange(4)
            return Catalog.from_codes(
                shuffled["ids"], shuffled["providers"], each, shuffled["categories"], each,
                np.array(shuffled["popularity"]), [0.5] * 4, {"price": shuffled["price"]},
                shuffled["ids"],
            )

        def via_codes(rows):
            # generate_catalog's path, here with tables that hold equal
            # entries and entries no row uses
            providers = ["unused", *rows["providers"], *rows["providers"]]
            sets = [{"unused"}, *rows["categories"], *rows["categories"]]
            return Catalog.from_codes(
                rows["ids"], providers, [5, 2, 7, 4], sets, [1, 6, 3, 8],
                rows["popularity"], np.full(4, 0.5), {"price": np.array(rows["price"])},
                rows["ids"],
            )

        builders = (via_items, via_rows, via_codes)
        want = via_items(rows)
        assert want.items_sorted() == [
            Item(id="a", provider_id="q", categories={"art"}, popularity=0.3,
                 attributes={"price": 2.0}, description="a"),
            Item(id="b", provider_id="p", popularity=0.2, description="b"),
            Item(id="c", provider_id="r", categories={"art", "sea"}, popularity=0.4,
                 description="c"),
            Item(id="d", provider_id="q", categories={"art"}, popularity=0.1,
                 attributes={"price": 1.0}, description="d"),
        ]
        assert want.providers == ("p", "q", "r")
        for build in builders:
            got = build(rows).columns
            np.testing.assert_equal(got.__dict__, want.columns.__dict__)
            # a and d share the set {"art"}, held once
            assert got.set_codes[0] == got.set_codes[3]
            assert got.sets[got.set_codes[0]] == {"art"}

        failures = [
            ({"ids": ["a", "b", "a", "c"]}, DuplicateItemId, "duplicate item id: a"),
            ({"ids": ["d", "", "a", "c"]}, ValueError, "item id must be non-empty"),
            # each check names the first such item in id order
            ({"popularity": [1.5, math.nan, 0.3, 0.4]}, ValueError,
             r"item b: popularity nan outside \[0, 1\]"),
            ({"price": [-math.inf, math.nan, 2.0, math.inf]}, ValueError,
             "item c: attribute 'price': inf is not a finite number"),
            ({"providers": ["", "p", "q", ""]}, ValueError,
             "item c: provider id must be non-empty"),
        ]
        for change, error, message in failures:
            for build in builders:
                with pytest.raises(error, match=message):
                    build({**rows, **change})

    def test_from_codes_refuses_empty_provider(self):
        with pytest.raises(ValueError, match="item a: provider id must be non-empty"):
            Catalog.from_codes(
                ["b", "c", "a"], ["p", "", ""], range(3), [frozenset()] * 3, range(3),
                [0.5] * 3, [0.5] * 3, {}, [""] * 3,
            )

    def test_provider_index(self):
        cat = Catalog(
            [
                Item(id="b", provider_id="p1"),
                Item(id="a", provider_id="p1"),
                Item(id="c", provider_id="p2"),
            ]
        )
        assert cat.providers == ("p1", "p2")
        assert cat.ids == ("a", "b", "c")
        assert cat.provider_of("c") == "p2"


class TestCatalogDerived:
    @pytest.mark.parametrize("value", [None, 0, "x"])
    def test_computed_once_per_catalog_and_builder(self, value):
        build = mock.Mock(return_value=value)
        catalog = make_catalog("a")
        assert catalog.derived(build) is value
        assert catalog.derived(build) is value
        build.assert_called_once_with(catalog)

    def test_builders_and_equal_catalogs_have_separate_slots(self):
        first, twin = make_catalog("a", "b"), make_catalog("a", "b")
        ids, size = (lambda c: list(c.ids)), (lambda c: [len(c)])
        assert (first.derived(ids), first.derived(size)) == (["a", "b"], [2])
        assert twin.derived(ids) == first.derived(ids)
        assert twin.derived(ids) is not first.derived(ids)

    def test_value_dies_with_its_catalog(self):
        catalog = make_catalog("a")
        alive = weakref.ref(catalog.derived(lambda c: np.zeros(len(c))))
        del catalog
        gc.collect()
        assert alive() is None

    def test_threads_on_fresh_catalogs(self):
        # each round hands new catalogs to four threads at once, so they race on
        # every first call; all must get one kept value, equal to a fresh build.
        # The columns exist from construction, so each thread must see the
        # catalog's own, equal to those of a fresh catalog
        builders = (dataio._hash_catalog, adapter._candidates_prefix, agents._mitigation_order)

        def derive(shared, results):
            results.append(
                [catalog.columns for catalog in shared]
                + [catalog.derived(build) for catalog in shared for build in builders]
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                shared = [dataio.generate_catalog(40, 3, seed=seed) for seed in (3, 4)]
                results: list[list] = []
                threads = [threading.Thread(target=derive, args=(shared, results)) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert len(results) == 4
                for values in results[1:]:
                    assert all(v is w for v, w in zip(values, results[0], strict=True))
                fresh = [dataio.generate_catalog(40, 3, seed=seed).columns for seed in (3, 4)]
                fresh += [build(catalog) for catalog in shared for build in builders]
                for value, reference in zip(results[0], fresh, strict=True):
                    # columns compare field by field, the other values directly
                    np.testing.assert_equal(
                        getattr(value, "__dict__", value), getattr(reference, "__dict__", reference)
                    )
        finally:
            sys.setswitchinterval(interval)


class TestConstraint:
    def test_directions(self):
        cheap = Item(id="x", provider_id="p", attributes={"price": 30.0})
        assert Constraint("price", "<=", 50.0).satisfied_by(cheap)
        assert not Constraint("price", ">=", 50.0).satisfied_by(cheap)

    def test_popularity_and_sustainability_resolve_from_fields(self):
        item = Item(id="x", provider_id="p", popularity=0.9, sustainability=0.2)
        assert Constraint("popularity", "<=", 0.9).satisfied_by(item)
        assert not Constraint("sustainability", ">=", 0.5).satisfied_by(item)

    def test_missing_attribute_fails(self):
        item = Item(id="x", provider_id="p")
        assert not Constraint("price", "<=", 1e9).satisfied_by(item)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            Constraint("price", "<", 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        # a NaN value used to make every item infeasible
        with pytest.raises(ValueError, match="constraint on 'price': value: .* is not a finite"):
            Constraint("price", "<=", value)


class TestQuery:
    def test_top_n_positive(self):
        with pytest.raises(ValueError):
            Query(id="q", top_n=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Query(id="q", preference_weights={"a": -1.0})

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="non-finite"):
            Query(id="q", preference_weights={"a": 1.0, "b": weight})

    def test_preference_categories_positive_only(self):
        q = Query(id="q", preference_weights={"a": 1.0, "b": 0.0})
        assert q.preference_categories() == frozenset({"a"})


class TestBallot:
    def test_weight_range(self):
        with pytest.raises(ValueError):
            Ballot(agent_id="a", ranking=("x",), weight=1.5)

    def test_duplicates_allowed_until_grounding(self):
        # raw adapter output may repeat items; the profile constructor is
        # where distinctness is enforced
        Ballot(agent_id="a", ranking=("x", "x"))


class TestPreferenceProfile:
    def test_pool_is_sorted_union(self):
        profile = PreferenceProfile.from_ballots(
            [Ballot("a1", ("b", "a")), Ballot("a2", ("c", "b"))]
        )
        assert profile.pool == ("a", "b", "c")
        assert profile.agent_ids() == ("a1", "a2")

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError):
            PreferenceProfile.from_ballots([Ballot("a1", ("x", "x"))])

    def test_needs_positive_weight(self):
        with pytest.raises(ValueError):
            PreferenceProfile.from_ballots([Ballot("a1", ("x",), weight=0.0)])


class TestValidateBallot:
    def test_identity(self):
        cat = make_catalog("i1", "i2")
        ballot = Ballot("a", ("i1", "i2"))
        grounded, violations = validate_ballot(ballot, cat)
        assert grounded is ballot
        assert violations == 0

    def test_ghost_removed(self):
        cat = make_catalog("i1")
        grounded, violations = validate_ballot(Ballot("a", ("i1", "ghost")), cat)
        assert grounded.ranking == ("i1",)
        assert violations == 1

    def test_duplicate_keeps_first(self):
        cat = make_catalog("i1", "i2")
        grounded, violations = validate_ballot(Ballot("a", ("i2", "i1", "i2")), cat)
        assert grounded.ranking == ("i2", "i1")
        assert violations == 1

    def test_empty_after_grounding(self):
        cat = make_catalog("i1")
        with pytest.raises(EmptyAfterGrounding):
            validate_ballot(Ballot("a", ("ghost1", "ghost2")), cat)

    def test_idempotent(self):
        cat = make_catalog("i1", "i2", "i3")
        ballot = Ballot("a", ("i3", "ghost", "i1", "i3"))
        once, _ = validate_ballot(ballot, cat)
        twice, violations = validate_ballot(once, cat)
        assert twice.ranking == once.ranking
        assert violations == 0

    def test_preserves_weight_and_justification(self):
        cat = make_catalog("i1")
        ballot = Ballot("a", ("i1", "ghost"), justification="why", weight=0.4)
        grounded, _ = validate_ballot(ballot, cat)
        assert grounded.weight == 0.4
        assert grounded.justification == "why"


class TestKendallTau:
    @pytest.mark.parametrize(
        "a,b,count,norm",
        [
            (("A", "B", "C"), ("A", "B", "C"), 0, 0.0),
            (("A", "B", "C"), ("C", "B", "A"), 3, 1.0),
            (("A", "B", "C"), ("B", "A", "C"), 1, 1 / 3),
            (("A",), ("A",), 0, 0.0),
        ],
    )
    def test_examples(self, a, b, count, norm):
        assert kendall_tau(a, b) == (count, pytest.approx(norm))

    def test_pool_mismatch(self):
        with pytest.raises(PoolMismatch):
            kendall_tau(("A", "B"), ("A", "C"))
        with pytest.raises(PoolMismatch):
            kendall_tau(("A", "B"), ("A", "B", "C"))
        with pytest.raises(PoolMismatch):
            kendall_tau(("A", "A"), ("A", "B"))
        with pytest.raises(PoolMismatch):
            kendall_tau(("A", "B"), ("A", "A"))

    @given(
        st.integers(2, 40).flatmap(
            lambda m: st.tuples(st.permutations(range(m)), st.permutations(range(m)))
        )
    )
    def test_counts_discordant_pairs(self, rankings):
        a, b = rankings
        where = {item: i for i, item in enumerate(b)}
        count = sum(where[x] > where[y] for x, y in itertools.combinations(a, 2))
        assert kendall_tau(a, b) == (count, count / math.comb(len(a), 2))

    def test_metric_properties_exhaustive(self):
        # symmetry, identity of indiscernibles, triangle inequality for m <= 4
        for m in range(1, 5):
            pool = [chr(ord("a") + i) for i in range(m)]
            perms = list(itertools.permutations(pool))
            dist = {(x, y): kendall_tau(x, y)[0] for x in perms for y in perms}
            for x in perms:
                for y in perms:
                    assert dist[x, y] == dist[y, x]
                    assert (dist[x, y] == 0) == (x == y)
            for x in perms:
                for y in perms:
                    for z in perms:
                        assert dist[x, z] <= dist[x, y] + dist[y, z]


class TestCandidatePool:
    def test_union_sorted(self):
        assert candidate_pool([Ballot("a", ("A", "B")), Ballot("b", ("B", "C"))]) == (
            "A",
            "B",
            "C",
        )

    def test_duplicate_collapse(self):
        assert candidate_pool([Ballot("a", ("A",)), Ballot("b", ("A",))]) == ("A",)

    def test_all_empty(self):
        with pytest.raises(NoCandidates):
            candidate_pool([Ballot("a", ()), Ballot("b", ())])

    def test_reorder_invariant(self):
        ballots = [Ballot("a", ("C", "A")), Ballot("b", ("B",)), Ballot("c", ("D",))]
        assert candidate_pool(ballots) == candidate_pool(list(reversed(ballots)))
