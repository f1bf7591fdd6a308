import hashlib
import json
import math
import re
import string
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agorank import dataio
from agorank.aggregation import Rule
from agorank.dataio import (
    CATALOG_SEED_GAMMA,
    LCG_INC,
    LCG_MULT,
    PersonaParams,
    PortableRng,
    catalog_hash,
    export_catalog,
    generate_catalog,
    generate_synthetic,
    load_catalog,
    load_outcomes,
    load_scenario,
    save_outcomes,
    write_report,
)
from agorank.errors import (
    DuplicateItemId,
    MalformedRecord,
    MissingRequiredField,
    SchemaError,
    UnknownMetricId,
    UnknownRule,
)
from agorank.metrics import build_report
from agorank.model import AggregateResult, Catalog, Constraint, Item, Query, TieEvent
from agorank.orchestrator import ActivationMode, QueryOutcome, run_stream

CSV_HEADER = "id,provider_id,categories,popularity,sustainability,description\n"


class TestPortableRng:
    def test_state_transition(self):
        rng = PortableRng(12345)
        expected = (12345 * LCG_MULT + LCG_INC) & ((1 << 64) - 1)
        assert rng.next_u64() == expected

    def test_uniform_range(self):
        rng = PortableRng(7)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # crude spread check; a broken generator collapses
        assert max(draws) > 0.9
        assert min(draws) < 0.1

    def test_same_seed_same_stream(self):
        a = [PortableRng(3).uniform() for _ in range(5)]
        b = [PortableRng(3).uniform() for _ in range(5)]
        assert a == b

    def test_seed_masked_to_64_bits(self):
        assert PortableRng(1 << 70).state == 0

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(0, (1 << 64) - 1),
            st.integers(-(1 << 80), -1),
            st.integers(1 << 64, 1 << 80),
        ),
        n=st.integers(0, 3000),
        skip=st.integers(0, 20),
        split=st.integers(0, 3000),
    )
    def test_uniforms_equal_scalar_draws(self, seed, n, skip, split):
        # a stream started part-way, by scalar draws and by an earlier batch
        batch, scalar = PortableRng(seed), PortableRng(seed)
        for _ in range(skip):
            assert batch.uniform() == scalar.uniform()
        split = min(split, n)
        draws = batch.uniforms(split) + batch.uniforms(n - split)
        assert draws == [scalar.uniform() for _ in range(n)]
        assert all(type(d) is float for d in draws)
        assert batch.state == scalar.state

    def test_uniforms_refuses_negative_count(self):
        rng = PortableRng(3)
        with pytest.raises(ValueError, match="n must be >= 0"):
            rng.uniforms(-1)
        assert rng.state == 3


class TestLoadCatalogCsv:
    def write(self, tmp_path, body, name="catalog.csv"):
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        return path

    def test_roundtrip_fields(self, tmp_path):
        path = self.write(
            tmp_path,
            CSV_HEADER + "i1,p1,beach;nature,0.2,0.9,quiet cove\n",
        )
        catalog = load_catalog(path)
        item = catalog["i1"]
        assert item.provider_id == "p1"
        assert item.categories == frozenset({"beach", "nature"})
        assert item.popularity == 0.2
        assert item.sustainability == 0.9
        assert item.description == "quiet cove"

    def test_defaults_for_blank_scores(self, tmp_path):
        path = self.write(tmp_path, CSV_HEADER + "i1,p1,,,,\n")
        item = load_catalog(path)["i1"]
        assert item.popularity == 0.5
        assert item.sustainability == 0.5
        assert item.categories == frozenset()

    def test_missing_id(self, tmp_path):
        path = self.write(tmp_path, CSV_HEADER + ",p1,,0.5,0.5,\n")
        with pytest.raises(MissingRequiredField, match="line 2"):
            load_catalog(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = self.write(
            tmp_path, CSV_HEADER + "i1,p1,,0.5,0.5,\ni2,p1,,abc,0.5,\n"
        )
        with pytest.raises(MalformedRecord) as err:
            load_catalog(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("cell, value", [("0.25", 0.25), ("1", 1.0), ("1e-1", 0.1)])
    def test_number_cells_parse(self, tmp_path, cell, value):
        path = self.write(tmp_path, CSV_HEADER + f"i1,p1,,{cell},{cell},\n")
        item = load_catalog(path)["i1"]
        assert (item.popularity, item.sustainability) == (value, value)

    def test_out_of_range_popularity(self, tmp_path):
        path = self.write(tmp_path, CSV_HEADER + "i1,p1,,1.5,0.5,\n")
        with pytest.raises(MalformedRecord):
            load_catalog(path)

    def test_missing_columns(self, tmp_path):
        path = self.write(tmp_path, "id,categories\ni1,beach\n")
        with pytest.raises(MalformedRecord, match="provider_id"):
            load_catalog(path)

    def test_duplicate_id(self, tmp_path):
        path = self.write(
            tmp_path, CSV_HEADER + "i1,p1,,0.5,0.5,\ni1,p2,,0.5,0.5,\n"
        )
        with pytest.raises(DuplicateItemId):
            load_catalog(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(MalformedRecord):
            load_catalog(path)

    def test_non_utf8_reports_line(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_bytes((CSV_HEADER + "i1,p1,,0.5,0.5,\ni2,p1,,0.5,0.5,caf\xe9\n").encode("latin-1"))
        with pytest.raises(MalformedRecord, match="not UTF-8") as err:
            load_catalog(path)
        assert err.value.line == 3


class TestLoadCatalogJson:
    def test_attributes_carried(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "id": "i1",
                        "provider_id": "p1",
                        "categories": ["food"],
                        "popularity": 0.3,
                        "sustainability": 0.4,
                        "attributes": {"price": 25.0},
                    }
                ]
            ),
            encoding="utf-8",
        )
        item = load_catalog(path)["i1"]
        assert item.attributes == {"price": 25.0}

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_catalog(path)

    def test_missing_provider(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"id": "i1"}]), encoding="utf-8")
        with pytest.raises(MissingRequiredField):
            load_catalog(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("categories", "beach;food"),
            ("categories", ["beach", 3]),
            ("attributes", ["price"]),
            ("attributes", {"price": "cheap"}),
            ("id", 7),
            ("provider_id", ["p1"]),
            ("description", None),
        ],
    )
    def test_mistyped_field_names_item(self, tmp_path, field, value):
        good = {"id": "i0", "provider_id": "p1"}
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps([good, {"id": "i1", "provider_id": "p1", field: value}]),
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecord, match=rf"^item 1: {field}"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("popularity", True),
            ("popularity", "0.25"),
            ("popularity", None),
            ("sustainability", False),
            ("sustainability", "0.25"),
        ],
    )
    def test_score_must_be_a_number(self, tmp_path, field, value):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps([{"id": "i0", "provider_id": "p1"},
                        {"id": "i1", "provider_id": "p1", field: value}]),
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecord, match=rf"^item 1: {field}: expected a number$"):
            load_catalog(path)


# a score outside [0, 1], then a mistyped field in a later record: the
# loaders decode and check each record in file order, so the first is named
@pytest.mark.parametrize(
    "name, body, line, message, later",
    [
        (
            "catalog.csv",
            CSV_HEADER + "i0,p1,,0.5,0.5,\ni1,p1,,1.5,0.5,\ni2,p1,,0.5,abc,\n",
            3,
            r"^line 3: item i1: popularity 1\.5 outside \[0, 1\]$",
            r"^line 4: sustainability 'abc' is not a number$",
        ),
        (
            "catalog.json",
            json.dumps([
                {"id": "i0", "provider_id": "p1"},
                {"id": "i1", "provider_id": "p1", "popularity": 1.5},
                {"id": "i2", "provider_id": "p1", "description": None},
            ]),
            None,
            r"^item 1: item i1: popularity 1\.5 outside \[0, 1\]$",
            r"^item 2: description: expected a string$",
        ),
    ],
)
def test_loaders_name_the_first_bad_record(tmp_path, name, body, line, message, later):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    with pytest.raises(MalformedRecord, match=message) as err:
        load_catalog(path)
    assert err.value.line == line
    # the later record is bad too
    path.write_text(body.replace("1.5", "0.5"), encoding="utf-8")
    with pytest.raises(MalformedRecord, match=later):
        load_catalog(path)


class TestExportCatalog:
    CATALOG = Catalog(
        [
            Item(id="i1", provider_id="p1", categories=frozenset({"beach"}),
                 popularity=0.1234567, sustainability=0.9,
                 attributes={"price": 42.5}, description="x"),
            Item(id="i2", provider_id="p2"),
        ]
    )

    # the same items without ``price``: the CSV form has no attributes column
    CSV_CATALOG = Catalog(
        [
            Item(id="i1", provider_id="p1", categories=frozenset({"beach"}),
                 popularity=0.1234567, sustainability=0.9, description="x"),
            Item(id="i2", provider_id="p2"),
        ]
    )

    def test_csv_roundtrip_preserves_floats(self, tmp_path):
        path = tmp_path / "out.csv"
        export_catalog(self.CSV_CATALOG, path)
        loaded = load_catalog(path)
        assert loaded["i1"].popularity == self.CSV_CATALOG["i1"].popularity
        assert loaded.ids == self.CSV_CATALOG.ids

    @pytest.mark.parametrize("name", ["out.csv", "out.CSV"])
    def test_csv_refuses_attributes_and_writes_nothing(self, tmp_path, name):
        catalog = Catalog([Item(id="i0", provider_id="p0"), *self.CATALOG.items_sorted()])
        path = tmp_path / name
        with pytest.raises(ValueError, match=r"item i1 has attributes.*\.json"):
            export_catalog(catalog, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("category", ["", " a", "a\t", "a;b"])
    def test_csv_refuses_unloadable_category_and_writes_nothing(self, tmp_path, category):
        items = [Item(id=f"i{n}", provider_id="p", categories=c) for n, c in
                 enumerate([{"a", "b c"}, {"a", category}, {";"}])]
        with pytest.raises(ValueError, match=rf"item i1 has category {re.escape(repr(category))}"):
            export_catalog(Catalog(items), tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []

    def test_json_roundtrip_keeps_attributes(self, tmp_path):
        path = tmp_path / "out.json"
        export_catalog(self.CATALOG, path)
        loaded = load_catalog(path)
        assert loaded["i1"].attributes == {"price": 42.5}
        assert catalog_hash(loaded) == catalog_hash(self.CATALOG)


def reference_catalog(item_count, provider_count, categories, seed):
    """``generate_catalog`` as one ``uniform()`` call per draw, squaring by
    the IEEE product and rounding by ``round``, as FORMATS.md specifies."""
    rng = PortableRng(seed ^ CATALOG_SEED_GAMMA)
    cats = list(categories)
    items: list[Item] = []
    for i in range(item_count):
        u = rng.uniform()
        popularity = round(u * u, 6)
        sustainability = round(rng.uniform(), 6)
        chosen = {cats[int(rng.uniform() * len(cats)) % len(cats)]}
        if rng.uniform() < 0.4:
            chosen.add(cats[int(rng.uniform() * len(cats)) % len(cats)])
        price = round(20.0 + 180.0 * rng.uniform(), 2)
        items.append(
            Item(
                id=f"item-{i:03d}",
                provider_id=f"provider-{i % provider_count:02d}",
                categories=frozenset(chosen),
                popularity=popularity,
                sustainability=sustainability,
                attributes={"price": price},
                description=f"synthetic item {i}: {', '.join(sorted(chosen))}",
            )
        )
    return Catalog(items)


def reference_synthetic(personas, seed):
    """``generate_synthetic`` as one ``uniform()`` call per draw."""
    rng = PortableRng(seed)
    queries: list[Query] = []
    for p_idx, persona in enumerate(personas):
        for q_idx in range(persona.query_count):
            weights: dict[str, float] = {}
            for cat in sorted(persona.category_weights):
                noise = -0.1 + 0.2 * rng.uniform()
                weights[cat] = max(0.0, persona.category_weights[cat] + noise)
            constraints = tuple(
                tpl for tpl in persona.constraint_templates if rng.uniform() < 0.5
            )
            queries.append(
                Query(
                    id=f"{p_idx}-{q_idx}",
                    text=f"{persona.persona_text} (request {q_idx})",
                    preference_weights=weights,
                    constraints=constraints,
                    user_history=(),
                    top_n=persona.top_n,
                )
            )
    return queries


def item_fields(catalog):
    return [
        (it.id, it.provider_id, it.categories, it.popularity, it.sustainability,
         it.attributes, it.description)
        for it in catalog.items_sorted()
    ]


def assert_same_columns(got, want):
    """``got`` holds ``want``'s columns, the floats bit for bit, and each of
    its distinct category sets is one frozenset, held once."""
    g, w = got.columns, want.columns
    assert (got.ids, got.providers) == (want.ids, want.providers)
    assert g.provider_codes.dtype == w.provider_codes.dtype
    assert g.provider_codes.tolist() == w.provider_codes.tolist()
    assert g.set_codes.dtype == w.set_codes.dtype == np.intp
    assert g.set_codes.tolist() == w.set_codes.tolist()
    assert g.sets == w.sets
    assert list(g.set_incidence) == list(w.set_incidence)
    for category in w.set_incidence:
        assert g.set_incidence[category].tolist() == w.set_incidence[category].tolist()
    assert list(g.attributes) == list(w.attributes)
    for name in w.attributes:
        assert g.attributes[name].tobytes() == w.attributes[name].tobytes()
    assert g.popularity.tobytes() == w.popularity.tobytes()
    assert g.sustainability.tobytes() == w.sustainability.tobytes()
    assert g.descriptions == w.descriptions
    assert all(type(s) is frozenset for s in g.sets)
    assert len(set(g.sets)) == len(g.sets)


# duplicate, single and non-ASCII category names
_CATEGORY_LISTS = st.lists(st.text(alphabet="ab\u00e9\u4e2d_", max_size=3), min_size=1, max_size=9)
# lists that certainly repeat a name, so that unequal category pairs give equal sets
_REPEATING_LISTS = _CATEGORY_LISTS.map(lambda names: names + names[::-1])
_SEEDS = st.integers(-(1 << 70), 1 << 70)


class TestGeneratorsMatchScalarReference:
    """The batched generators equal the one-draw-at-a-time loops FORMATS.md
    specifies, item by item and query by query."""

    @settings(max_examples=25, deadline=None)
    @given(
        item_count=st.one_of(st.integers(1, 40), st.integers(1001, 1400)),
        # from 100 providers on, name order is not number order; past the
        # item count, some providers own no item, even past int64
        provider_count=st.one_of(st.integers(1, 120), st.integers(1401, 10**30)),
        categories=st.one_of(_CATEGORY_LISTS, _REPEATING_LISTS),
        seed=_SEEDS,
    )
    def test_catalog(self, item_count, provider_count, categories, seed):
        got = generate_catalog(item_count, provider_count, categories, seed)
        want = reference_catalog(item_count, provider_count, categories, seed)
        assert item_fields(got) == item_fields(want)
        assert_same_columns(got, want)
        assert catalog_hash(got) == catalog_hash(want)

    @pytest.mark.parametrize(
        "categories", [("museum",), ("a", "a", "b"), ("caf\u00e9", "\u4e2d", "caf\u00e9")]
    )
    def test_catalog_past_item_999(self, categories):
        got = generate_catalog(1200, 120, categories, seed=11)
        want = reference_catalog(1200, 120, categories, seed=11)
        assert item_fields(got) == item_fields(want)
        assert_same_columns(got, want)
        assert catalog_hash(got) == catalog_hash(want)

    @pytest.mark.parametrize(
        "item_count, seeds",
        [(1, (0, 1, 2)), (3, (0, 5, -7)), (200, (0, 7, 11)), (2000, (0, 7, 11)), (20000, (7, 11))],
    )
    def test_catalog_at_workload_sizes(self, item_count, seeds):
        provider_count = max(1, item_count // 10)
        for seed in seeds:
            got = generate_catalog(item_count, provider_count, seed=seed)
            want = reference_catalog(item_count, provider_count, dataio.DEFAULT_CATEGORIES, seed)
            assert item_fields(got) == item_fields(want)
            assert_same_columns(got, want)
            assert catalog_hash(got) == catalog_hash(want)
            assert all(
                type(v) is float
                for it in got.items_sorted()
                for v in (it.popularity, it.sustainability, it.attributes["price"])
            )

    def test_catalog_hash_pinned_past_item_999(self):
        # recorded from the one-draw-at-a-time generator
        assert catalog_hash(generate_catalog(1200, 7, seed=3)) == (
            "1904f3f227598d19ce8b2f90586a5547b6e1542aa340ca54c5239c4884a0f0cd"
        )

    @settings(max_examples=40, deadline=None)
    @given(
        personas=st.lists(
            st.builds(
                PersonaParams,
                persona_text=st.text(max_size=5),
                category_weights=st.dictionaries(
                    st.text(alphabet="ab\u00e9\u4e2d_", max_size=3),
                    st.floats(0.0, 2.0),
                    max_size=5,
                ),
                constraint_templates=st.lists(
                    st.builds(
                        Constraint,
                        attribute=st.just("price"),
                        direction=st.sampled_from(["<=", ">="]),
                        value=st.floats(0.0, 200.0),
                    ),
                    max_size=3,
                ),
                query_count=st.integers(1, 30),
                top_n=st.integers(1, 6),
            ),
            max_size=4,
        ),
        seed=_SEEDS,
    )
    def test_synthetic(self, personas, seed):
        got = generate_synthetic(personas, TestGenerateSynthetic.CATALOG, seed)
        want = reference_synthetic(personas, seed)
        assert got == want
        assert [list(q.preference_weights.items()) for q in got] == [
            list(q.preference_weights.items()) for q in want
        ]


def _hexes(values):
    return [float(v).hex() for v in values]


def _near_halves(n, ks):
    """``(k + 0.5) / 10**n`` for each k and its neighbours 1 to 4 ulps away."""
    out = []
    for k in ks:
        mid = (k + 0.5) / 10**n
        out.append(mid)
        for direction in (math.inf, -math.inf):
            v = mid
            for _ in range(4):
                v = math.nextafter(v, direction)
                out.append(v)
    return out


class TestRoundEach:
    """``_round_each`` is ``round`` applied to each value, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1), st.just(6)),
            st.tuples(st.lists(st.floats(20.0, 200.0, exclude_max=True), min_size=1), st.just(2)),
        )
    )
    def test_equals_round(self, case):
        values, ndigits = case
        got = dataio._round_each(np.array(values), ndigits)
        assert _hexes(got) == _hexes(round(v, ndigits) for v in values)
        assert got.dtype == np.float64

    @pytest.mark.parametrize(
        "ndigits, ks",
        [
            # 2.5e-06 and 3.5e-06, then a spread over [0, 1); round(2.5e-06, 6)
            # is 3e-06 but rint of the scaled product gives 2e-06
            (6, [*range(0, 40), *range(40, 10**6, 997), 999_999]),
            # every half-cent in [20, 200), 20.055 and 20.075 among them;
            # round(20.055, 2) is 20.05 but rint gives 20.06
            (2, range(2000, 20000)),
        ],
    )
    def test_equals_round_next_to_halves(self, ndigits, ks):
        values = _near_halves(ndigits, ks)
        got = dataio._round_each(np.array(values), ndigits)
        assert _hexes(got) == _hexes(round(v, ndigits) for v in values)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2148.0, -2148.0])
    def test_refuses_values_outside_its_domain(self, value):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            dataio._round_each(np.array([0.5, value]), 6)


class TestGenerateCatalog:
    def test_deterministic(self):
        a = generate_catalog(item_count=30, provider_count=5, seed=9)
        b = generate_catalog(item_count=30, provider_count=5, seed=9)
        assert catalog_hash(a) == catalog_hash(b)

    def test_seed_changes_content(self):
        a = generate_catalog(item_count=30, provider_count=5, seed=9)
        b = generate_catalog(item_count=30, provider_count=5, seed=10)
        assert catalog_hash(a) != catalog_hash(b)

    def test_shape(self):
        catalog = generate_catalog(item_count=30, provider_count=5, seed=0)
        assert len(catalog) == 30
        assert catalog.providers == tuple(f"provider-0{i}" for i in range(5))
        assert "item-000" in catalog
        for item in catalog.items_sorted():
            assert 0.0 <= item.popularity <= 1.0
            assert 0.0 <= item.sustainability <= 1.0
            assert "price" in item.attributes
            assert 1 <= len(item.categories) <= 2

    def test_round_robin_providers(self):
        catalog = generate_catalog(item_count=10, provider_count=3, seed=0)
        assert catalog.provider_of("item-000") == "provider-00"
        assert catalog.provider_of("item-004") == "provider-01"

    def test_popularity_skews_low(self):
        # squared uniform: most items sit in the unpopular tail
        catalog = generate_catalog(item_count=300, provider_count=10, seed=1)
        pops = [item.popularity for item in catalog.items_sorted()]
        below = sum(1 for p in pops if p < 0.5)
        assert below > len(pops) * 0.6

    def test_seed_gamma_decorrelates_catalog_from_queries(self):
        # the catalog stream must not replay the query stream
        assert PortableRng(5 ^ CATALOG_SEED_GAMMA).uniform() != PortableRng(5).uniform()

    def test_names_only_the_providers_that_own_an_item(self):
        # a count past int64 names no more providers than there are items,
        # and takes no time to do it
        start = time.perf_counter()
        catalog = generate_catalog(item_count=3, provider_count=10**30, seed=0)
        assert time.perf_counter() - start < 1.0
        assert catalog.providers == ("provider-00", "provider-01", "provider-02")
        assert catalog_hash(catalog) == catalog_hash(generate_catalog(3, 3, seed=0))

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_catalog(item_count=0)
        with pytest.raises(ValueError):
            generate_catalog(categories=())


class TestGenerateSynthetic:
    CATALOG = generate_catalog(item_count=20, provider_count=4, seed=0)

    def personas(self):
        return [
            PersonaParams(
                persona_text="coastal walker",
                category_weights={"beach": 1.0, "nature": 0.6},
                query_count=3,
                top_n=4,
            ),
            PersonaParams(
                persona_text="museum goer",
                category_weights={"museum": 1.0},
                query_count=2,
            ),
        ]

    def test_counts_and_ids(self):
        queries = generate_synthetic(self.personas(), self.CATALOG, seed=3)
        assert [q.id for q in queries] == ["0-0", "0-1", "0-2", "1-0", "1-1"]
        assert queries[0].text == "coastal walker (request 0)"
        assert queries[0].top_n == 4
        assert queries[3].top_n == 5

    def test_deterministic(self):
        a = generate_synthetic(self.personas(), self.CATALOG, seed=3)
        b = generate_synthetic(self.personas(), self.CATALOG, seed=3)
        assert [(q.id, q.preference_weights) for q in a] == [
            (q.id, q.preference_weights) for q in b
        ]

    def test_noise_stays_nonnegative_and_close(self):
        queries = generate_synthetic(self.personas(), self.CATALOG, seed=3)
        for q in queries[:3]:
            assert q.preference_weights["beach"] == pytest.approx(1.0, abs=0.1)
            assert all(w >= 0.0 for w in q.preference_weights.values())

    def test_constraints_drawn_from_templates(self):
        persona = PersonaParams(
            persona_text="thrifty",
            category_weights={"food": 1.0},
            constraint_templates=(Constraint("price", "<=", 60.0),),
            query_count=40,
        )
        queries = generate_synthetic([persona], self.CATALOG, seed=3)
        with_constraint = [q for q in queries if q.constraints]
        assert 0 < len(with_constraint) < 40
        assert all(
            q.constraints[0].attribute == "price" for q in with_constraint
        )

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_persona_params_refuses_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="non-finite weight for category 'beach'"):
            PersonaParams(persona_text="w", category_weights={"beach": weight})

    def test_persona_params_refuses_negative_weight_and_top_n_below_one(self):
        with pytest.raises(ValueError, match="negative weight for category 'beach'"):
            PersonaParams(persona_text="w", category_weights={"beach": -0.5})
        with pytest.raises(ValueError, match="top_n must be >= 1, got 0"):
            PersonaParams(persona_text="w", category_weights={"beach": 1.0}, top_n=0)


def minimal_scenario_doc(**overrides):
    doc = {
        "name": "mini",
        "seed": 5,
        "catalog": "catalog.csv",
        "agents": [
            {
                "agent_id": "traveler",
                "role": "user",
                "objective": "relevance",
                "objective_metric": "ndcg",
                "objective_target": 0.9,
            }
        ],
        "rule": "borda",
        "queries": [
            {
                "id": "q1",
                "preference_weights": {"beach": 1.0},
                "user_history": ["i1"],
                "top_n": 2,
            }
        ],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def scenario_dir(tmp_path):
    (tmp_path / "catalog.csv").write_text(
        CSV_HEADER
        + "i1,p1,beach,0.2,0.9,\n"
        + "i2,p2,museum,0.6,0.5,\n"
        + "i3,p3,nature,0.4,0.7,\n",
        encoding="utf-8",
    )
    return tmp_path


def write_scenario(scenario_dir, doc):
    path = scenario_dir / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadScenario:
    def test_minimal(self, scenario_dir):
        path = write_scenario(scenario_dir, minimal_scenario_doc())
        scenario = load_scenario(path)
        assert scenario.name == "mini"
        assert scenario.seed == 5
        assert len(scenario.catalog) == 3
        assert scenario.agents[0].agent_id == "traveler"
        assert scenario.rule_config.rule is Rule.BORDA
        assert scenario.rule_config.seed == 5
        assert scenario.queries[0].top_n == 2

    def test_builtin_aliases(self, tourism, synthetic_200):
        assert tourism.name == "tourism"
        assert len(tourism.queries) == 4
        assert synthetic_200.name == "synthetic-200"
        assert len(synthetic_200.catalog) == 200
        assert len(synthetic_200.queries) == 100

    def test_unknown_builtin(self):
        with pytest.raises(SchemaError):
            load_scenario("builtin:nope")

    def test_rule_object_form(self, scenario_dir):
        doc = minimal_scenario_doc(
            rule={"name": "kemeny", "kemeny_exact_limit": 4, "seed": 77}
        )
        scenario = load_scenario(write_scenario(scenario_dir, doc))
        assert scenario.rule_config.rule is Rule.KEMENY
        assert scenario.rule_config.kemeny_exact_limit == 4
        assert scenario.rule_config.seed == 77

    def test_policy_parsed(self, scenario_dir):
        doc = minimal_scenario_doc(
            policy={"mode": "dynamic", "window": 4, "fairness_threshold": 0.2,
                    "compatibility_min": 0.3}
        )
        scenario = load_scenario(write_scenario(scenario_dir, doc))
        assert scenario.policy.mode is ActivationMode.DYNAMIC
        assert scenario.policy.window == 4

    def test_synthetic_catalog_block(self, scenario_dir):
        doc = minimal_scenario_doc(
            catalog={"synthetic": {"item_count": 12, "provider_count": 3}},
            queries=None,
            personas=[
                {
                    "persona_text": "wanderer",
                    "category_weights": {"nature": 1.0},
                    "query_count": 2,
                }
            ],
        )
        del doc["queries"]
        scenario = load_scenario(write_scenario(scenario_dir, doc))
        assert len(scenario.catalog) == 12
        assert len(scenario.queries) == 2

    def test_provider_count_past_int64(self, scenario_dir):
        # JSON integers have no bound; only the providers that own an item are named
        doc = minimal_scenario_doc(
            catalog={"synthetic": {"item_count": 200, "provider_count": 10**30}},
            personas=[
                {"persona_text": "wanderer", "category_weights": {"nature": 1.0}, "query_count": 1}
            ],
        )
        del doc["queries"]
        path = write_scenario(scenario_dir, doc)
        start = time.perf_counter()
        scenario = load_scenario(path)
        assert time.perf_counter() - start < 1.0
        assert len(scenario.catalog.providers) == 200
        assert scenario.catalog.provider_of("item-199") == "provider-199"

    def test_seed_override_regenerates(self, scenario_dir):
        doc = minimal_scenario_doc(
            catalog={"synthetic": {"item_count": 12, "provider_count": 3}},
        )
        del doc["queries"]
        doc["personas"] = [
            {
                "persona_text": "wanderer",
                "category_weights": {"nature": 1.0},
                "query_count": 2,
            }
        ]
        path = write_scenario(scenario_dir, doc)
        base = load_scenario(path)
        override = load_scenario(path, seed_override=99)
        assert override.seed == 99
        assert override.rule_config.seed == 99
        assert catalog_hash(base.catalog) != catalog_hash(override.catalog)

    @pytest.mark.parametrize(
        "mutate,error",
        [
            (lambda d: d.update(rule="plurality"), UnknownRule),
            (lambda d: d["agents"][0].update(objective_metric="magic"), UnknownMetricId),
            (lambda d: d["agents"][0].update(role="octopus"), SchemaError),
            (lambda d: d["agents"][0].update(objective_target=9.0), SchemaError),
            (lambda d: d.update(agents=[]), SchemaError),
            (lambda d: d["queries"][0].update(user_history=["ghost"]), SchemaError),
            (lambda d: d.update(personas=[]), SchemaError),
            (lambda d: d.pop("queries"), SchemaError),
            (lambda d: d.update(catalog=7), SchemaError),
            (lambda d: d.update(seed="five"), SchemaError),
            # composites have no direction, so no regret; these used to load
            (lambda d: d["agents"][0].update(objective_metric="fairness_regret"), SchemaError),
            (lambda d: d["agents"][0].update(objective_metric="l_half_balance"), SchemaError),
            # no regret is <= NaN, so this used to turn benching off
            (lambda d: d.update(policy={"fairness_threshold": math.nan}), SchemaError),
        ],
    )
    def test_schema_violations(self, scenario_dir, mutate, error):
        doc = minimal_scenario_doc()
        mutate(doc)
        with pytest.raises(error):
            load_scenario(write_scenario(scenario_dir, doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_query_weight(self, scenario_dir, literal):
        # json.loads takes these literals, so the Query check must reject them
        text = json.dumps(minimal_scenario_doc()).replace('"beach": 1.0', f'"beach": {literal}')
        assert literal in text
        path = scenario_dir / "scenario.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=r"queries\[0\].*non-finite weight"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "old,field",
        [
            ('"objective_target": 0.9', "agents[0].objective_target"),
            ('"beach": 1.0', "queries[0].preference_weights.beach"),
        ],
    )
    def test_integer_too_large_for_float(self, scenario_dir, old, field):
        key = old.split(":")[0]
        text = json.dumps(minimal_scenario_doc()).replace(old, f"{key}: 1{'0' * 400}")
        path = scenario_dir / "scenario.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_scenario(path)
        assert str(err.value) == f"{field}: integer too large for a float"

    def test_duplicate_agent_ids(self, scenario_dir):
        doc = minimal_scenario_doc()
        doc["agents"].append(dict(doc["agents"][0]))
        with pytest.raises(SchemaError, match="duplicate"):
            load_scenario(write_scenario(scenario_dir, doc))

    def test_invalid_json(self, scenario_dir):
        path = scenario_dir / "scenario.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_scenario(path)

    def test_non_utf8(self, scenario_dir):
        path = write_scenario(scenario_dir, minimal_scenario_doc())
        data = path.read_bytes()
        path.write_bytes(data[:50] + b"\xff" + data[51:])
        with pytest.raises(SchemaError, match="not UTF-8"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_scenario(tmp_path / "absent.json")


def run_tourism(tourism):
    return run_stream(
        tourism.queries, tourism.agents, tourism.catalog, tourism.policy,
        tourism.rule_config,
    )


@pytest.fixture(scope="module")
def run(tourism):
    outcomes, _ = run_tourism(tourism)
    report = build_report(outcomes, tourism.agents, tourism.catalog)
    return {"borda": (report, outcomes)}


class TestWriteReport:
    def test_writes_three_files(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        names = sorted(p.name for p in paths)
        assert names == ["out.metrics.csv", "out.report.json", "out.summary.md"]
        for p in paths:
            assert p.exists()

    def test_byte_identical_on_rewrite(self, run, tmp_path):
        first = write_report(run, tmp_path / "a", "tourism")
        second = write_report(run, tmp_path / "b", "tourism")
        for fa, fb in zip(first, second):
            assert fa.read_bytes() == fb.read_bytes()

    def test_json_shape(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        payload = json.loads(paths[0].read_text(encoding="utf-8"))
        assert payload["scenario"] == "tourism"
        borda = payload["rules"]["borda"]
        assert set(borda) == {"aggregate", "drift", "per_query", "runtime_calls"}
        assert len(borda["per_query"]) == 4
        entry = borda["per_query"][0]
        assert entry["query_id"] == "q1"
        assert entry["rule"] == "borda"
        assert len(entry["final_list"]) == 3
        assert set(entry["regret"]) == {"traveler", "local-businesses",
                                        "community-ecology"}

    def test_floats_rounded_to_six(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        text = paths[0].read_text(encoding="utf-8")
        assert "-0.0," not in text

        def walk(node):
            if isinstance(node, float):
                assert node == round(node, 6)
            elif isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(json.loads(text))

    def test_csv_header_and_formatting(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        lines = paths[1].read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["rule", "query_index", "query_id"]
        assert "ndcg" in header
        assert "regret:traveler" in header
        assert "influence:traveler" in header
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "borda"
        assert first[1] == "0"
        assert first[2] == "q1"
        ndcg = first[header.index("ndcg")]
        assert len(ndcg.split(".")[1]) == 6

    def test_summary_mentions_rule_and_agents(self, run, tmp_path):
        paths = write_report(run, tmp_path / "out", "tourism")
        text = paths[2].read_text(encoding="utf-8")
        assert "## Rule: borda" in text
        assert "traveler" in text
        assert "Regret drift" in text

    def test_no_file_when_a_builder_fails(self, run, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("summary failed")

        monkeypatch.setattr(dataio, "_summary_md", fail)
        with pytest.raises(RuntimeError, match="summary failed"):
            write_report(run, tmp_path / "out", "tourism")
        assert list(tmp_path.iterdir()) == []


# report values: any float, negatives and -0.0 included; tiny negatives that
# round to -0.0; magnitudes about ``_round_each``'s domain bound at 6 places,
# |x| < 2147.483648, and far beyond; half-way cases such as 2.5e-06; ints; None
_REPORT_VALUES = st.lists(
    st.one_of(
        st.floats(),
        st.floats(-1e-6, 1e-6),
        st.floats(2146.0, 2149.0).flatmap(lambda x: st.sampled_from([x, -x])),
        st.sampled_from([2147.0, 2147.483647, 2147.483648, 2147.4836481, 1e300, -1e300]),
        st.integers(-10**7, 10**7).map(lambda k: (k + 0.5) / 10**6),
        st.integers(-10**20, 10**20),
        st.none(),
    ),
    max_size=40,
)


def _bits(values):
    return [(type(v), v.hex() if type(v) is float else v) for v in values]


class TestRoundedOnce:
    @settings(max_examples=300, deadline=None)
    @given(values=_REPORT_VALUES)
    def test_one_pass_equals_round6_each_value(self, values):
        assert _bits(dataio._round6_each(values)) == _bits([dataio._round6(v) for v in values])

    def test_known_cases(self):
        values = [2.5e-06, -2.5e-06, -4e-07, -0.0, 0.1234566, 3000.0, -1e300, 7, None]
        assert _bits(dataio._round6_each(values)) == _bits(
            [3e-06, -3e-06, 0.0, 0.0, 0.123457, 3000.0, -1e300, 7, None]
        )

    def test_report_rounded_field_by_field(self, run):
        report, _ = run["borda"]
        rounded = dataio._rounded_report(report)

        def r6(values):
            return {k: dataio._round6(v) for k, v in values.items()}

        assert [(q.query_id, q.values, q.regret, q.influence) for q in rounded.per_query] == [
            (q.query_id, r6(q.values), r6(q.regret), r6(q.influence)) for q in report.per_query
        ]
        assert rounded.aggregate == {k: r6(v) for k, v in report.aggregate.items()}
        assert rounded.drift == {k: tuple(map(dataio._round6, v)) for k, v in report.drift.items()}
        assert rounded.runtime == report.runtime


class TestSavedOutcomes:
    def test_roundtrip_reproduces_report(self, tourism, tmp_path):
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        loaded, scenario_name, rule_name = load_outcomes(path, tourism.catalog)
        assert scenario_name == "tourism"
        assert rule_name == "borda"

        original = build_report(outcomes, tourism.agents, tourism.catalog)
        replayed = build_report(loaded, tourism.agents, tourism.catalog)
        assert replayed == original

    def test_hash_mismatch_rejected(self, tourism, tmp_path):
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        other = generate_catalog(item_count=5, provider_count=2, seed=1)
        with pytest.raises(SchemaError, match="hash"):
            load_outcomes(path, other)

    def test_malformed_file(self, tourism, tmp_path):
        path = tmp_path / "outcomes.json"
        path.write_text('{"catalog_hash": "x"}', encoding="utf-8")
        with pytest.raises(SchemaError):
            load_outcomes(path, tourism.catalog)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda o: o[0].update(final_list=["ghost"]),
             r"outcomes\[0\]\.final_list\[0\]: unknown item 'ghost'"),
            (lambda o: o[0].update(final_list=[1]), r"final_list\[0\]: expected a string"),
            (lambda o: o[0]["per_agent_regret"].update(traveler="x"),
             r"per_agent_regret\.traveler: expected a number$"),
            (lambda o: o[0]["aggregate"]["influence"].update(traveler=None),
             r"aggregate\.influence\.traveler: expected a number"),
            (lambda o: o[0]["stage_calls"].update(aggregate=1.5),
             r"stage_calls\.aggregate: expected an integer"),
            (lambda o: o.clear(), "at least one outcome"),
        ],
        ids=["unknown-item", "non-string-item", "regret", "influence", "stage-calls", "empty"],
    )
    def test_report_fields_checked(self, tourism, tmp_path, mutate, message):
        # each of these reached build_report and failed there as an internal error
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        doc = json.loads(path.read_text(encoding="utf-8"))
        mutate(doc["outcomes"])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            load_outcomes(path, tourism.catalog)

    @pytest.mark.parametrize("field", ["scenario", "rule"])
    def test_unencodable_name_rejected(self, tourism, tmp_path, field):
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[field] = "bor\udc00da"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^{field}: not encodable as UTF-8"):
            load_outcomes(path, tourism.catalog)

    def test_equal_tie_events_shared_within_a_file_only(self, tourism, tmp_path):
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        doc = json.loads(path.read_text(encoding="utf-8"))
        tie = {"description": "a tie", "resolution": "by id"}
        for entry in doc["outcomes"]:
            entry["aggregate"]["tiebreak_trace"] = [dict(tie), dict(tie)]
        path.write_text(json.dumps(doc), encoding="utf-8")

        first = [e for o in load_outcomes(path, tourism.catalog)[0]
                 for e in o.aggregate.tiebreak_trace]
        second = [e for o in load_outcomes(path, tourism.catalog)[0]
                  for e in o.aggregate.tiebreak_trace]
        assert len(first) == 2 * len(outcomes)
        assert all(e == TieEvent("a tie", "by id") for e in first)
        assert all(e is first[0] for e in first)
        assert second[0] is not first[0]

    def test_tie_events_checked_once_each(self, tourism, tmp_path):
        outcomes, _ = run_tourism(tourism)
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, tourism.catalog, path, "tourism", "borda")
        doc = json.loads(path.read_text(encoding="utf-8"))
        # non-ASCII strings take the checked path and are shared like any other
        tie = {"description": "égalité", "resolution": "par id"}
        for entry in doc["outcomes"]:
            entry["aggregate"]["tiebreak_trace"] = [dict(tie), dict(tie)]
        doc["outcomes"][-1]["aggregate"]["tiebreak_trace"].append(
            {"description": "égalité", "resolution": "par \udc00"}
        )
        path.write_text(json.dumps(doc), encoding="utf-8")
        last = len(doc["outcomes"]) - 1
        where = rf"outcomes\[{last}\]\.aggregate\.tiebreak_trace\[2\]\.resolution"
        with pytest.raises(SchemaError, match=f"^{where}: not encodable"):
            load_outcomes(path, tourism.catalog)

        doc["outcomes"][-1]["aggregate"]["tiebreak_trace"].pop()
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = [e for o in load_outcomes(path, tourism.catalog)[0]
                  for e in o.aggregate.tiebreak_trace]
        assert loaded[0] == TieEvent("égalité", "par id")
        assert all(e is loaded[0] for e in loaded)


# the ranges that the field tables give ``_number`` and ``_number_map``, each
# with the numbers that it holds
_RANGES = [
    # agent targets, policy numbers, item scores, query weights: their records bound them
    ({}, lambda x: True),
    # constraint values, item attributes, aggregate scores
    ({"expected": "a finite number"}, math.isfinite),
    # persona weights, regrets
    ({"expected": "a finite number >= 0", "lo": 0.0}, lambda x: math.isfinite(x) and x >= 0),
    ({"expected": "a finite number of seconds > 0", "lo": math.ulp(0.0)},
     lambda x: math.isfinite(x) and x > 0),
    # ballot weights, influence
    ({"expected": "a number in [0, 1]", "lo": 0.0, "hi": 1.0}, lambda x: 0 <= x <= 1),
    ({"expected": "a finite number or null", "null": True}, math.isfinite),
]

# every kind of JSON value, and the numbers at the edges of a float
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**1024, -(2**1024) + 2**970, 2**53 + 1, 0, 1]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, sys.float_info.max]),
)


def _checked(kwargs, holds, v):
    """What a number check over ``kwargs`` gives for ``v``: its float, None,
    or the message it raises, as FORMATS.md states the rule."""
    null = kwargs.get("null", False)
    if v is None and null:
        return None
    if type(v) not in (int, float):
        return "expected a number or null" if null else "expected a number"
    try:
        x = float(v)
    except OverflowError:
        return "integer too large for a float"
    return x if holds(x) else f"expected {kwargs['expected']}"


class TestNumberChecks:
    """One rule reads every number of a scenario or a saved outcome: an
    integer reads as the float of equal value, and a value fails with the
    message for its kind of fault."""

    @settings(max_examples=500, deadline=None)
    @given(at=st.sampled_from(range(len(_RANGES))), v=_JSON_VALUES)
    def test_single_check(self, at, v):
        kwargs, holds = _RANGES[at]
        want = _checked(kwargs, holds, v)
        if isinstance(want, str):
            with pytest.raises(SchemaError) as err:
                dataio._number(**kwargs)(v, "a.b")
            assert str(err.value) == f"a.b: {want}"
        elif want is None:
            assert dataio._number(**kwargs)(v, "a.b") is None
        else:
            got = dataio._number(**kwargs)(v, "a.b")
            assert type(got) is float and got.hex() == want.hex()

    @settings(max_examples=300, deadline=None)
    @given(
        at=st.sampled_from(range(len(_RANGES))),
        obj=st.dictionaries(st.text("xyz", min_size=1, max_size=3), _JSON_VALUES, max_size=5),
    )
    def test_map_is_the_single_check_key_by_key(self, at, obj):
        kwargs, _ = _RANGES[at]
        number = dataio._number(**kwargs)
        given_values = list(obj.values())
        want, first_fault = {}, None
        for key, value in obj.items():
            try:
                want[key] = number(value, f"m.{key}")
            except SchemaError as exc:
                first_fault = str(exc)
                break
        if first_fault is not None:
            with pytest.raises(SchemaError) as err:
                dataio._number_map(**kwargs)(obj, "m")
            assert str(err.value) == first_fault
        else:
            got = dataio._number_map(**kwargs)(obj, "m")
            assert got is not obj and list(got) == list(want)
            assert [_hex(v) for v in got.values()] == [_hex(v) for v in want.values()]
        # the object read is left as it was
        assert all(a is b for a, b in zip(obj.values(), given_values))


def _hex(v):
    return v if v is None else (type(v), v.hex())


class TestCatalogHash:
    def test_order_insensitive(self):
        items = [
            Item(id="a", provider_id="p1"),
            Item(id="b", provider_id="p2"),
        ]
        assert catalog_hash(Catalog(items)) == catalog_hash(Catalog(items[::-1]))

    def test_content_sensitive(self):
        a = Catalog([Item(id="a", provider_id="p1", popularity=0.5)])
        b = Catalog([Item(id="a", provider_id="p1", popularity=0.6)])
        assert catalog_hash(a) != catalog_hash(b)

    def test_description_sensitive(self):
        a = Catalog([Item(id="a", provider_id="p1", description="cove")])
        b = Catalog([Item(id="a", provider_id="p1", description="cave")])
        assert catalog_hash(a) != catalog_hash(b)

    def test_kept_per_catalog(self):
        catalog = generate_catalog(item_count=30, provider_count=4, seed=3)
        fresh = _reference_hash(catalog.items_sorted())
        with mock.patch.object(dataio, "_hash_catalog", wraps=dataio._hash_catalog) as build:
            assert catalog_hash(catalog) == fresh
            assert catalog_hash(catalog) == fresh
            assert build.call_count == 1
            twin = generate_catalog(item_count=30, provider_count=4, seed=3)
            assert catalog_hash(twin) == fresh
            assert build.call_count == 2


def _item_record(item):
    """The ``_ITEM`` record of ``item``, written from the item's own fields
    rather than by ``_item_records`` from a catalog's columns."""
    return {
        key: sorted(value) if isinstance(value, frozenset) else value
        for key, value in ((key, getattr(item, arg)) for key, _, _, arg in dataio._ITEM)
    }


def _reference_hash(items):
    """The catalog hash as one dump of the items' records in id order, with no slicing."""
    records = [_item_record(item) for item in sorted(items, key=lambda item: item.id)]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()


_SLICE = dataio._HASH_SLICE
_NUMBER = st.one_of(st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _hash_catalogs(draw):
    """Catalogs of 0, 1 and about one or two slices of items.

    Each item copies one of a few drawn templates under its own id, so a
    catalog of 2 * slice + 1 items costs only a few draws.
    """
    templates = draw(
        st.lists(
            st.builds(
                dict,
                provider_id=st.text(min_size=1, max_size=4),
                categories=st.frozensets(st.text(max_size=4), max_size=3),
                popularity=st.floats(0.0, 1.0),
                sustainability=st.floats(0.0, 1.0),
                attributes=st.dictionaries(st.text(max_size=4), _NUMBER, max_size=3),
                description=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
            ),
            min_size=1,
            max_size=4,
        )
    )
    count = draw(st.sampled_from([0, 1, _SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1]))
    prefix = draw(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3))
    return Catalog(
        Item(id=f"{prefix}{n}", **templates[n % len(templates)]) for n in range(count)
    )


class TestStreamedCatalogHash:
    @settings(max_examples=60, deadline=None)
    @given(catalog=_hash_catalogs())
    def test_equals_one_shot_dump(self, catalog):
        assert catalog_hash(catalog) == _reference_hash(catalog.items_sorted())

    def test_bounded_memory_on_20k_items(self):
        catalog = generate_catalog(item_count=20000, provider_count=200, seed=1)
        tracemalloc.start()
        try:
            catalog_hash(catalog)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dump of all 20k records peaks near 18 MiB
        assert peak < 2 * 1024 * 1024


# round trips through the one codec per record

_TEXT = st.text(string.ascii_letters + string.digits + " ,;\"'\n-é", max_size=12)
_NAME = st.text(string.ascii_lowercase + "-_", min_size=1, max_size=8)
# ``;``, spaces and "" are categories that the CSV form cannot carry
_CATEGORY = st.text(string.ascii_lowercase + "-_; ", max_size=8)
_UNIT = st.floats(0.0, 1.0)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _items(draw, with_attributes):
    return Item(
        id=draw(st.text(string.ascii_letters + string.digits + "-_ ,é", min_size=1, max_size=8)),
        provider_id=draw(_NAME),
        categories=frozenset(draw(st.lists(_CATEGORY, max_size=4))),
        popularity=draw(_UNIT),
        sustainability=draw(_UNIT),
        attributes=draw(st.dictionaries(_NAME, _FINITE, max_size=3)) if with_attributes else {},
        description=draw(_TEXT),
    )


def _catalogs(with_attributes):
    items = st.lists(_items(with_attributes), max_size=6, unique_by=lambda i: i.id)
    return items.map(Catalog)


_ROUNDTRIP = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_ROUNDTRIP
@given(catalog=_catalogs(with_attributes=True))
def test_catalog_json_roundtrip(tmp_path, catalog):
    path = tmp_path / "catalog.json"
    export_catalog(catalog, path)
    loaded = load_catalog(path)
    assert loaded.items_sorted() == catalog.items_sorted()
    assert catalog_hash(loaded) == catalog_hash(catalog)


@_ROUNDTRIP
@given(catalog=_catalogs(with_attributes=False))
def test_catalog_csv_roundtrip(tmp_path, catalog):
    # every example shares tmp_path; each round-trips exactly, or is refused
    # with nothing written because the loader would read its categories back changed
    path = tmp_path / "catalog.csv"
    path.unlink(missing_ok=True)
    try:
        export_catalog(catalog, path)
    except ValueError:
        items = catalog.items_sorted()
        reread = [{c.strip() for c in ";".join(i.categories).split(";")} - {""} for i in items]
        assert not path.exists() and reread != [i.categories for i in items]
        return
    loaded = load_catalog(path)
    assert loaded.items_sorted() == catalog.items_sorted()
    assert catalog_hash(loaded) == catalog_hash(catalog)


_HISTORY_CATALOG = Catalog([Item(id=f"h{i}", provider_id="p") for i in range(4)])


@st.composite
def _queries(draw):
    return Query(
        id=draw(_TEXT.filter(bool)),
        text=draw(_TEXT),
        preference_weights=draw(st.dictionaries(_NAME, st.floats(0.0, 10.0), max_size=4)),
        constraints=tuple(
            Constraint(draw(_NAME), draw(st.sampled_from(["<=", ">="])), draw(_FINITE))
            for _ in range(draw(st.integers(0, 3)))
        ),
        user_history=tuple(draw(st.lists(st.sampled_from(_HISTORY_CATALOG.ids), max_size=3))),
        top_n=draw(st.integers(1, 50)),
    )


@_ROUNDTRIP
@given(query=_queries())
def test_query_outcome_roundtrip(tmp_path, query):
    outcome = QueryOutcome(
        query_id=query.id,
        final_list=(),
        per_agent_ballots=(),
        aggregate=AggregateResult("borda", (), {}, (), {}),
        skipped_agents={},
        justifications={},
        query=query,
        per_agent_achieved={},
        per_agent_regret={},
        stage_calls={},
    )
    path = tmp_path / "outcomes.json"
    save_outcomes([outcome], _HISTORY_CATALOG, path, "s", "borda")
    loaded, _, _ = load_outcomes(path, _HISTORY_CATALOG)
    assert loaded[0].query == query
    assert loaded == [outcome]
