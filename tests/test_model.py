import itertools
import math

import pytest

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


class TestCatalog:
    def test_duplicate_id(self):
        with pytest.raises(DuplicateItemId):
            Catalog([Item(id="a", provider_id="p"), Item(id="a", provider_id="q")])

    def test_provider_index(self):
        cat = Catalog(
            [
                Item(id="b", provider_id="p1"),
                Item(id="a", provider_id="p1"),
                Item(id="c", provider_id="p2"),
            ]
        )
        assert cat.provider_items("p1") == ("a", "b")
        assert cat.provider_items("p2") == ("c",)
        assert cat.provider_items("ghost") == ()
        assert cat.providers == ("p1", "p2")
        assert cat.ids == ("a", "b", "c")
        assert cat.provider_of("c") == "p2"


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
