"""Catalog ingestion, scenario files, synthetic generation, and report
serialization.

Loaders reject structurally invalid input outright.  Every JSON record
read is decoded by ``_decode`` from its field table (``_AGENT``,
``_QUERY``, ``_OUTCOME``, ...), which FORMATS.md restates, and every
record written is encoded by ``_encode`` from the same table; item
records are read from a catalog's columns under the ``_ITEM`` keys
(``_item_records``).  Every JSON file is written by
``_write_json`` from ``_json_slabs``, whose text equals ``json.dumps(obj,
indent=2, sort_keys=True)``; reports round each float to 6 decimals once,
so identical runs produce byte-identical files.

The synthetic generator runs on a portable 64-bit linear congruential PRNG
(constants below, documented in FORMATS.md) rather than a stdlib generator,
so generated scenarios reproduce across implementations and platforms.
``generate_catalog`` and ``generate_synthetic`` each take their draws from
one ``PortableRng`` pass, which computes the stream in numpy by LCG
jump-ahead and gives the same floats as repeated ``uniform()``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib.resources
import io
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .agents import AgentObjective, AgentSpec
from .aggregation import Rule, RuleConfig
from .errors import (
    MalformedRecord,
    MissingRequiredField,
    SchemaError,
    UnknownMetricId,
    UnknownRule,
)
from .metrics import EvaluationReport, MetricId, QueryEvaluation
from .model import (
    AggregateResult,
    Ballot,
    Catalog,
    Constraint,
    Query,
    StakeholderRole,
    TieEvent,
    _check_scores,
    _coded_rows,
    left_sum,
)
from .orchestrator import ActivationMode, ActivationPolicy, QueryOutcome

T = TypeVar("T")

CATALOG_CSV_FIELDS = ("id", "provider_id", "categories", "popularity", "sustainability", "description")

# 64-bit LCG (MMIX constants); uniform takes the top 53 bits
LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
CATALOG_SEED_GAMMA = 0x9E3779B97F4A7C15

DEFAULT_CATEGORIES = ("art", "beach", "culture", "food", "market", "museum", "nature", "trail")


class PortableRng:
    """Deterministic cross-platform PRNG for synthetic data.

    state' = state * LCG_MULT + LCG_INC (mod 2^64); uniform() returns the top
    53 bits of the new state divided by 2^53, i.e. a float in [0, 1).
    ``uniforms(n)`` returns the next ``n`` of those draws at once.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * LCG_MULT + LCG_INC) & _MASK64
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def uniforms(self, n: int) -> list[float]:
        """The next ``n`` ``uniform()`` values, leaving ``state`` where ``n``
        scalar draws would.

        One numpy pass by the jump-ahead identity
        ``s_k = a^k * s_0 + c * (1 + a + ... + a^(k-1)) mod 2^64``: the powers
        come from a running product and the geometric sums from a running sum
        of them, both on uint64 arrays, which wrap mod 2^64 without a warning.
        Every operand is a uint64 array or ``np.uint64``, so numpy 1.x and 2.x
        promote alike.
        """
        return self._uniform_array(n).tolist()

    def _uniform_array(self, n: int) -> np.ndarray:
        """``uniforms(n)`` as a float64 array, for callers that compute on it."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n == 0:
            return np.empty(0)
        powers = np.multiply.accumulate(np.full(n, LCG_MULT, dtype=np.uint64))
        geometric = np.empty(n, dtype=np.uint64)
        geometric[0] = 1
        geometric[1:] = powers[:-1]
        np.cumsum(geometric, out=geometric)
        states = powers * np.uint64(self.state) + geometric * np.uint64(LCG_INC)
        self.state = int(states[-1])
        return (states >> np.uint64(11)).astype(np.float64) / float(1 << 53)


@dataclass(frozen=True)
class PersonaParams:
    """Generator template for one synthetic persona's query stream."""

    persona_text: str
    category_weights: Mapping[str, float]
    constraint_templates: tuple[Constraint, ...] = ()
    query_count: int = 1
    top_n: int = 5

    def __post_init__(self):
        if self.query_count < 1:
            raise ValueError("query_count must be >= 1")
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        for cat, w in self.category_weights.items():
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight for category {cat!r}")
            if w < 0:
                raise ValueError(f"negative weight for category {cat!r}")
        object.__setattr__(self, "category_weights", dict(self.category_weights))
        object.__setattr__(self, "constraint_templates", tuple(self.constraint_templates))


@dataclass(frozen=True)
class Scenario:
    """A fully resolved run configuration: catalog, agents, policy, queries."""

    name: str
    catalog: Catalog
    agents: tuple[AgentSpec, ...]
    policy: ActivationPolicy
    rule_config: RuleConfig
    queries: tuple[Query, ...]
    seed: int


def load_catalog(path: str | Path) -> Catalog:
    """Load a catalog from CSV or JSON (picked by file suffix).

    CSV columns: id, provider_id, categories (';'-separated), popularity,
    sustainability, description.  Missing popularity/sustainability default
    to 0.5.  The JSON form is a list of item objects and may also carry an
    "attributes" map.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _load_catalog_json(path)
    return _load_catalog_csv(path)


def _open_csv(path: str | Path) -> io.StringIO:
    """The file's text, decoded as UTF-8 and read the way ``open(path,
    newline="")`` reads it; bytes that are not UTF-8 raise ``MalformedRecord``
    with the line they are on."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRecord(f"not UTF-8: {exc.reason} at byte {exc.start}", line) from exc
    return io.StringIO(text, newline="")


def _load_catalog_csv(path: Path) -> Catalog:
    rows: list[tuple] = []
    with _open_csv(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MalformedRecord("empty catalog file", 1)
        missing_cols = {"id", "provider_id"} - set(reader.fieldnames)
        if missing_cols:
            raise MalformedRecord(
                f"missing columns: {', '.join(sorted(missing_cols))}", 1
            )
        for line, row in enumerate(reader, start=2):
            # blank cells are left out so the record defaults apply
            rec: dict[str, object] = {f: row[f] for f in CATALOG_CSV_FIELDS if row.get(f)}
            for key in ("popularity", "sustainability"):
                if key in rec:
                    rec[key] = _csv_number(row[key], key, line)
            rec["categories"] = [
                c.strip() for c in (row.get("categories") or "").split(";") if c.strip()
            ]
            rows.append(_item_row(rec, f"line {line}", line))
    return Catalog.from_codes(*_coded_rows(rows))


def _load_catalog_json(path: Path) -> Catalog:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise MalformedRecord(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise MalformedRecord("catalog JSON must be a list of items")
    rows = [_item_row(rec, f"item {i}") for i, rec in enumerate(payload)]
    return Catalog.from_codes(*_coded_rows(rows))


def _csv_number(cell: str, key: str, line: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise MalformedRecord(f"{key} {cell!r} is not a number", line) from None


def _item_row(rec: object, where: str, line: int | None = None) -> tuple:
    """One item record decoded by ``_ITEM`` into the row ``_coded_rows``
    reads, with the checks ``Item`` would run (the score range by the same
    ``_check_scores``); both catalog loaders decode every record here, in
    file order, so the first bad record raises, and build no ``Item``.

    ``where`` names the record in messages.  A CSV row also passes its
    ``line``, which ``MalformedRecord`` carries and prints itself.
    """
    if not isinstance(rec, dict):
        raise MalformedRecord(f"{where} is not an object")
    for key in ("id", "provider_id"):
        if not rec.get(key):
            raise MissingRequiredField(f"{where}: missing {key}")
    try:
        # every ``_ITEM`` field has a default, so each key is set, in row order
        fields = _decode(_ITEM, rec, "", None)
        _check_scores(fields["id"], fields["popularity"], fields["sustainability"])
    except (SchemaError, ValueError) as exc:
        raise MalformedRecord(str(exc) if line else f"{where}: {exc}", line) from exc
    return tuple(fields.values())


def export_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog back out (CSV or JSON by suffix); loaders round-trip it.

    Both forms write ``_item_records``, which reads the catalog's columns.
    The JSON form is ``_json_slabs`` of the records, in id order, and a
    newline; the CSV form is UTF-8.  It has no attributes column, and its
    loader splits categories on ``;``, strips them and drops empty ones.  So
    attributes, or a category that is empty, holds ``;`` or has outer
    whitespace, are refused before the file is opened (``ValueError`` naming
    the first such item) rather than written in a form that reloads changed.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        _write_json(path, _json_slabs([r for part in _item_records(catalog) for r in part]))
        return
    columns = catalog.columns
    # each distinct category set is checked once
    bad = [[c for c in sorted(s) if not c or ";" in c or c != c.strip()] for s in columns.sets]
    carried = np.zeros(len(catalog), dtype=bool)
    for column in columns.attributes.values():
        carried |= ~np.isnan(column)
    for item_id, has_attributes, code in zip(
        catalog.ids, carried.tolist(), columns.set_codes.tolist()
    ):
        if has_attributes or bad[code]:
            what = "attributes" if has_attributes else f"category {bad[code][0]!r}"
            raise ValueError(
                f"item {item_id} has {what}, which a CSV catalog cannot carry; "
                "export to a .json path instead"
            )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # the csv module writes floats with repr(), so they round-trip exactly
        writer = csv.DictWriter(fh, CATALOG_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for part in _item_records(catalog):
            for rec in part:
                writer.writerow({**rec, "categories": ";".join(rec["categories"])})


def generate_catalog(
    item_count: int = 200,
    provider_count: int = 20,
    categories: Sequence[str] = DEFAULT_CATEGORIES,
    seed: int = 0,
) -> Catalog:
    """Deterministic synthetic catalog.

    Providers are assigned round-robin, and only those that own an item
    are named, so ``provider_count`` may be any positive integer.
    Popularity is a uniform draw times itself (few popular items, long
    unpopular tail); sustainability is uniform.  Per-item draw order:
    popularity, sustainability, first category, second-category gate
    (p=0.4), second category if gated in, price.  So an item takes 5 draws,
    or 6 when the gate opens.

    All draws come from one ``PortableRng`` pass.  One Python loop finds
    each item's first draw; every field is then a numpy column gathered at
    those offsets, with IEEE products and ``_round_each``, so each value is
    the float that the per-draw loop FORMATS.md specifies gives with
    Python's ``round``.  Providers and category sets go to
    ``Catalog.from_codes``, as the loaders' rows do, but as tables with
    codes computed in numpy: row mod the number of providers named, and
    one label per distinct (first, second) category pair, which
    ``from_codes`` merges where two pairs name the same categories.
    Python formats only the ids, the descriptions and one text per set;
    no ``Item`` is built.
    """
    if item_count < 1 or provider_count < 1 or not categories:
        raise ValueError("need item_count >= 1, provider_count >= 1, categories non-empty")
    draws = PortableRng(seed ^ CATALOG_SEED_GAMMA)._uniform_array(6 * item_count)
    below = draws < 0.4
    gated = below.tobytes()  # one 0/1 byte per draw
    starts = [0] * item_count
    k = 0
    for i in range(item_count):
        starts[i] = k
        k += 5 + gated[k + 3]
    at = np.array(starts)
    cats = list(categories)
    n_cats = len(cats)
    popularity = _round_each(draws[at] * draws[at], 6)
    sustainability = _round_each(draws[at + 1], 6)
    first = (draws[at + 2] * n_cats).astype(np.int64) % n_cats
    gate = below[at + 3]
    # an item without a second category has second == first
    second = np.where(gate, (draws[at + 4] * n_cats).astype(np.int64) % n_cats, first)
    price = _round_each(20.0 + 180.0 * draws[at + 4 + gate], 2)
    # a provider past the item count owns no item, and is not named
    owners = min(provider_count, item_count)
    # one category set per distinct (first, second) pair; pairs of equal
    # names give equal sets, which ``Catalog`` merges.  Not ``np.unique``:
    # its first call in a process adds about 0.5 MB of resident memory
    keys = first * n_cats + second
    pairs = sorted(dict.fromkeys(keys.tolist()))
    set_labels = np.searchsorted(np.array(pairs), keys)
    sets = [frozenset((cats[p // n_cats], cats[p % n_cats])) for p in pairs]
    texts = [", ".join(sorted(s)) for s in sets]
    # from item-100 on, the padding to 3 digits adds nothing
    ids = [f"item-{i:03d}" for i in range(min(item_count, 100))]
    ids += [f"item-{i}" for i in range(100, item_count)]
    return Catalog.from_codes(
        ids,
        [f"provider-{p:02d}" for p in range(owners)],
        np.arange(item_count) % owners,
        sets,
        set_labels,
        popularity,
        sustainability,
        {"price": price},
        [f"synthetic item {i}: {texts[t]}" for i, t in enumerate(set_labels.tolist())],
    )


def _round_each(x: np.ndarray, ndigits: int) -> np.ndarray:
    """``[round(float(v), ndigits) for v in x]`` as a float64 array, bit for
    bit, mostly in numpy.

    ``round`` is correctly rounded: it rounds the exact value of ``v`` times
    ``10**ndigits`` to an integer ``K`` and returns the float nearest to
    ``K / 10**ndigits``.  ``np.rint(x * s) / s`` with ``s = 10**ndigits``
    gets that float whenever it finds the same ``K``, since ``s`` is exact
    and IEEE division is correctly rounded.  It can find another ``K`` only
    when the exact product lies within the product's rounding error,
    ``|x * s| * 2**-53``, of a half: ``round(2.5e-06, 6)`` is ``3e-06`` but
    ``rint`` gives ``2e-06``.  So each value whose scaled fraction lies within
    1e-6 of one half goes through ``round`` instead.  That band covers the
    error only while ``|x * s| < 2**31``, where the error is below 2.4e-7;
    values outside that domain, NaN included, raise ``ValueError``.
    """
    s = float(10**ndigits)
    scaled = x * s
    if not np.all(np.abs(scaled) < float(2**31)):
        raise ValueError(f"_round_each needs |x * 10**{ndigits}| < 2**31")
    out = np.rint(scaled) / s
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6
    for j in np.flatnonzero(near_half).tolist():
        out[j] = round(float(x[j]), ndigits)
    return out


def generate_synthetic(
    personas: Sequence[PersonaParams], catalog: Catalog, seed: int
) -> list[Query]:
    """Deterministic persona-driven query stream.

    One shared PRNG stream, consumed in a fixed order: personas in list
    order, queries 0..count-1, per query one noise draw per category (sorted
    by name) then one inclusion draw per constraint template (list order).
    Weight noise is uniform in [-0.1, 0.1], clamped at 0.
    """
    if len(catalog) == 0:
        raise ValueError("catalog must be non-empty")
    draws = iter(
        PortableRng(seed).uniforms(
            sum(
                p.query_count * (len(p.category_weights) + len(p.constraint_templates))
                for p in personas
            )
        )
    )
    queries: list[Query] = []
    for p_idx, persona in enumerate(personas):
        cats = sorted(persona.category_weights)
        for q_idx in range(persona.query_count):
            weights: dict[str, float] = {}
            for cat in cats:
                noise = -0.1 + 0.2 * next(draws)
                weights[cat] = max(0.0, persona.category_weights[cat] + noise)
            constraints = tuple(
                tpl for tpl in persona.constraint_templates if next(draws) < 0.5
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


# ---------------------------------------------------------------------------
# scenario files


def _typed(kind: type, expected: str) -> Callable[[object, str], object]:
    """The check that a value is of type ``kind`` exactly, as JSON decodes
    it, so a ``true`` is not an integer."""

    def check(v: object, path: str) -> object:
        if type(v) is not kind:
            raise SchemaError(f"{path}: expected {expected}")
        return v

    return check


_expect_dict = _typed(dict, "an object")
_expect_list = _typed(list, "a list")
_expect_int = _typed(int, "an integer")
_expect_bool = _typed(bool, "a boolean")


def _expect_str(v: object, path: str) -> str:
    """``v`` if it is a string that UTF-8 can encode: JSON's ``\\ud800``
    escapes decode to lone surrogates, which no output file could hold."""
    if not isinstance(v, str):
        raise SchemaError(f"{path}: expected a string")
    if not v.isascii():
        try:
            v.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SchemaError(
                f"{path}: not encodable as UTF-8 ({exc.reason} at index {exc.start})"
            ) from None
    return v


def _expect_str_list(v: object, path: str) -> tuple[str, ...]:
    """A list of strings as a tuple; a path is built only for an entry that fails."""
    items = _expect_list(v, path)
    for i, s in enumerate(items):
        if type(s) is not str or not s.isascii():
            _expect_str(s, f"{path}[{i}]")
    return tuple(items)


def _expect_number(v: object, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(f"{path}: integer too large for a float") from None


_REQUIRED = object()  # a ``_Field`` default: the key must be written
_ABSENT = object()  # a ``_Field`` default: an absent key passes nothing to ``build``


def _Field(key: str, check: Callable, default: object = _REQUIRED, arg: str | None = None) -> tuple:
    """One row of a record's field table: (key, check, default, arg).

    ``check(value, path)`` returns the decoded value or raises
    ``SchemaError`` naming ``path``.  ``default`` is the JSON value that an
    absent key reads as, checked like a written one, or ``_REQUIRED`` or
    ``_ABSENT``.  ``arg`` is ``build``'s keyword for the value, the key if
    None.  The row is a plain tuple, which the walker unpacks fastest.
    """
    return key, check, default, arg or key


def _decode(
    table: Sequence[tuple], raw: object, path: str, build: Callable[..., T] | None, **given: object
) -> T:
    """``build(**given, <arg>=<checked value>, ...)`` for the JSON object
    ``raw`` at ``path``, one keyword per field of ``table``; with ``build``
    None, that dict of keywords.

    Keys that the table lacks are ignored.  A missing required key, and a
    ``ValueError`` from ``build``, raise ``SchemaError`` naming the path.
    The path "" names a root record, whose fields are named by bare keys.
    """
    if type(raw) is not dict:
        raise SchemaError(f"{path}: expected an object")
    prefix = path + "." if path else ""
    get = raw.get
    for key, check, default, arg in table:
        value = get(key, default)
        if value is _REQUIRED:
            raise SchemaError(f"{prefix}{key}: missing required field")
        if value is not _ABSENT:
            given[arg] = check(value, prefix + key)
    if build is None:
        return given
    try:
        return build(**given)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}" if path else str(exc)) from exc


def _member(enum: type[Enum], what: str, error: type[Exception] = SchemaError) -> Callable:
    """The check that reads a string as a member of ``enum``."""

    def check(v: object, path: str) -> Enum:
        name = _expect_str(v, path)
        try:
            return enum(name)
        except ValueError:
            raise error(f"{path}: unknown {what} {name!r}") from None

    return check


def parse_rule_name(name: str) -> Rule:
    try:
        return Rule(name)
    except ValueError:
        raise UnknownRule(f"unknown rule {name!r}") from None


def _expect_endpoint(v: object, path: str) -> str:
    endpoint = _expect_str(v, path)
    if not endpoint.startswith(("mock://", "http://", "https://")):
        raise SchemaError(f"{path}: expected a mock://, http:// or https:// URL")
    return endpoint


def _expect_timeout(v: object, path: str) -> float:
    timeout = _expect_number(v, path)
    if not (math.isfinite(timeout) and timeout > 0):
        raise SchemaError(f"{path}: expected a finite number of seconds > 0")
    return timeout


def _parse_number_map(raw: object, path: str) -> dict[str, float]:
    """Decode a string-to-number object: query and persona weights, item
    attributes.  A path is built only for a key or value that fails."""
    out = {}
    for key, value in _expect_dict(raw, path).items():
        if not key.isascii():
            _expect_str(key, f"{path} key")
        out[key] = value if type(value) is float else _expect_number(value, f"{path}.{key}")
    return out


def _expect_finite(v: object, path: str) -> float:
    number = _expect_number(v, path)
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number")
    return number


def _finite_map(raw: object, path: str) -> dict[str, float]:
    """A number map whose values are finite."""
    numbers = _parse_number_map(raw, path)
    for key, number in numbers.items():
        if not math.isfinite(number):
            raise SchemaError(f"{path}.{key}: expected a finite number")
    return numbers


def _weight_map(raw: object, path: str) -> dict[str, float]:
    """A number map whose values are finite and at least 0."""
    weights = _parse_number_map(raw, path)
    for key, weight in weights.items():
        if not 0.0 <= weight < math.inf:
            raise SchemaError(f"{path}.{key}: expected a finite number >= 0")
    return weights


_CONSTRAINT = (
    _Field("attribute", _expect_str),
    _Field("direction", _expect_str),
    _Field("value", _expect_finite),
)


def _record(table: Sequence[tuple], build: Callable[..., T] | None) -> Callable[[object, str], T]:
    """The check that decodes an object by ``table``."""
    return lambda raw, path: _decode(table, raw, path, build)


def _records(
    table: Sequence[tuple], build: Callable[..., T]
) -> Callable[[object, str], tuple[T, ...]]:
    """The check that decodes a list of objects by ``table``, as a tuple."""

    def check(raw: object, path: str) -> tuple[T, ...]:
        entries = _expect_list(raw, path)
        return tuple([_decode(table, e, f"{path}[{i}]", build) for i, e in enumerate(entries)])

    return check


# the catalog generator's parameters; ``load_scenario`` passes the seed
_SYNTHETIC_CATALOG = (
    _Field("item_count", _expect_int, 200),
    _Field("provider_count", _expect_int, 20),
    _Field("categories", _expect_str_list, list(DEFAULT_CATEGORIES)),
)

_AGENT = (
    _Field("agent_id", _expect_str),
    _Field("role", _member(StakeholderRole, "role")),
    _Field("objective", _member(AgentObjective, "objective")),
    _Field("objective_metric", _member(MetricId, "metric", UnknownMetricId)),
    _Field("objective_target", _expect_number),
    _Field("params", _expect_dict, {}),
    _Field("compatibility_tags", _expect_str_list, []),
)

# the params an external agent's adapter reads
_EXTERNAL_PARAMS = (
    _Field("endpoint", _expect_endpoint, _ABSENT),
    _Field("persona", _expect_str, _ABSENT),
    _Field("timeout_s", _expect_timeout, _ABSENT),
)

_POLICY = (
    _Field("mode", _member(ActivationMode, "mode"), "static"),
    _Field("fairness_threshold", _expect_number, 0.1),
    _Field("window", _expect_int, 10),
    _Field("compatibility_min", _expect_number, 0.0),
)

# a rule object; its seed is the scenario seed unless written
_RULE = (
    _Field("name", _member(Rule, "rule", UnknownRule), _REQUIRED, "rule"),
    _Field("use_weights", _expect_bool, True),
    _Field("kemeny_exact_limit", _expect_int, 8),
    _Field("kemeny_search_iters", _expect_int, 1000),
    _Field("seed", _expect_int, _ABSENT),
)

_QUERY = (
    _Field("id", _expect_str),
    _Field("text", _expect_str, ""),
    _Field("preference_weights", _parse_number_map, {}),
    _Field("constraints", _records(_CONSTRAINT, Constraint), []),
    _Field("user_history", _expect_str_list, []),
    _Field("top_n", _expect_int, 5),
)

_PERSONA = (
    _Field("persona_text", _expect_str),
    _Field("category_weights", _weight_map),
    _Field("constraint_templates", _records(_CONSTRAINT, Constraint), []),
    _Field("query_count", _expect_int),
    _Field("top_n", _expect_int, 5),
)

_ITEM = (
    _Field("id", _expect_str),
    _Field("provider_id", _expect_str),
    _Field("categories", _expect_str_list, []),
    _Field("popularity", _expect_number, 0.5),
    _Field("sustainability", _expect_number, 0.5),
    _Field("attributes", _finite_map, {}),
    _Field("description", _expect_str, ""),
)

# item records per slice of ``_item_records``, which bounds the catalog hash's memory
_HASH_SLICE = 256


def _item_records(catalog: Catalog) -> Iterator[list[dict]]:
    """The ``_ITEM`` record of every item, in id order, ``_HASH_SLICE`` at a
    time, read from the catalog's columns without building an ``Item``.

    Each column slice is converted once, and each ``_ITEM`` key is set in
    every record of the slice from its column.  A NaN attribute cell is an
    absent key.  Each distinct category set is sorted once, and its records
    share the list, so the records are for writing, not for changing.
    """
    columns = catalog.columns
    providers = catalog.providers
    sorted_sets = [sorted(s) for s in columns.sets]
    for start in range(0, len(catalog), _HASH_SLICE):
        stop = start + _HASH_SLICE
        ids = catalog.ids[start:stop]
        attributes: list[dict[str, float]] = [{} for _ in ids]
        for name, column in columns.attributes.items():
            for cell, value in zip(attributes, column[start:stop].tolist()):
                if value == value:  # NaN is the only value unequal to itself
                    cell[name] = value
        fields = {
            "id": ids,
            "provider_id": [providers[c] for c in columns.provider_codes[start:stop].tolist()],
            "categories": [sorted_sets[c] for c in columns.set_codes[start:stop].tolist()],
            "popularity": columns.popularity[start:stop].tolist(),
            "sustainability": columns.sustainability[start:stop].tolist(),
            "attributes": attributes,
            "description": columns.descriptions[start:stop],
        }
        records: list[dict] = [{} for _ in ids]
        for key, _, _, arg in _ITEM:
            for record, value in zip(records, fields[arg]):
                record[key] = value
        yield records


def _known_ids(ids: Sequence[str], path: str, known: Catalog | frozenset[str]) -> None:
    """Raise naming the first of ``ids`` that ``known`` lacks."""
    for i, item_id in enumerate(ids):
        if item_id not in known:
            raise SchemaError(f"{path}[{i}]: unknown item {item_id!r}")


def _parse_rule(raw: object, path: str, default_seed: int) -> RuleConfig:
    if raw is None:
        return RuleConfig(seed=default_seed)
    if isinstance(raw, str):
        return RuleConfig(rule=parse_rule_name(raw), seed=default_seed)
    return _decode(_RULE, raw, path, RuleConfig, seed=default_seed)


def builtin_scenario_path(alias: str) -> Path:
    """Resolve a "builtin:<name>" alias to the bundled scenario file."""
    name = alias.split(":", 1)[1]
    mapping = {
        "tourism": ("tourism", "scenario.json"),
        "synthetic-200": ("synthetic", "scenario_200.json"),
    }
    if name not in mapping:
        raise SchemaError(
            f"unknown builtin scenario {name!r}; available: {', '.join(sorted(mapping))}"
        )
    sub, fname = mapping[name]
    root = importlib.resources.files("agorank")
    return Path(str(root / "data" / sub / fname))


def load_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    """Load and fully validate a scenario file.

    Top-level keys: name, catalog, agents, policy, rule, queries | personas,
    seed.  The catalog entry is a file path (relative to the scenario file),
    or {"synthetic": {...}} generator parameters.  "builtin:<name>" aliases
    resolve to bundled scenarios.  ``seed_override`` replaces the file's seed
    before anything (catalog, queries, rule) derives from it.  Each record
    inside is decoded by its field table (``_AGENT``, ``_QUERY``, ...).
    """
    if isinstance(path, str) and path.startswith("builtin:"):
        path = builtin_scenario_path(path)
    path = Path(path)
    try:
        raw_text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"scenario is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(raw_text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    doc = _expect_dict(doc, "scenario")

    name = _expect_str(doc.get("name"), "name")
    seed = _expect_int(doc.get("seed", 0), "seed")
    if seed_override is not None:
        seed = seed_override

    catalog_raw = doc.get("catalog")
    if isinstance(catalog_raw, str):
        catalog_path = (path.parent / catalog_raw).resolve()
        try:
            catalog = load_catalog(catalog_path)
        except OSError as exc:
            raise SchemaError(f"catalog: cannot read {catalog_raw!r}: {exc}") from exc
    elif isinstance(catalog_raw, dict):
        catalog = _decode(
            _SYNTHETIC_CATALOG,
            catalog_raw.get("synthetic"),
            "catalog.synthetic",
            generate_catalog,
            seed=seed,
        )
    else:
        raise SchemaError("catalog: expected a file path or {'synthetic': {...}}")

    agents = _records(_AGENT, AgentSpec)(doc.get("agents"), "agents")
    if not agents:
        raise SchemaError("agents: at least one agent is required")
    for i, agent in enumerate(agents):
        if agent.objective is AgentObjective.EXTERNAL:
            _decode(_EXTERNAL_PARAMS, agent.params, f"agents[{i}].params", dict)
    ids = [a.agent_id for a in agents]
    if len(set(ids)) != len(ids):
        raise SchemaError("agents: duplicate agent_id")

    policy_raw = doc.get("policy")
    if policy_raw is None:
        policy = ActivationPolicy()
    else:
        policy = _decode(_POLICY, policy_raw, "policy", ActivationPolicy)
    rule_config = _parse_rule(doc.get("rule"), "rule", seed)

    has_queries = "queries" in doc
    has_personas = "personas" in doc
    if has_queries == has_personas:
        raise SchemaError("exactly one of 'queries' or 'personas' is required")
    if has_queries:
        queries = _records(_QUERY, Query)(doc["queries"], "queries")
        if not queries:
            raise SchemaError("queries: at least one query is required")
        for i, query in enumerate(queries):
            _known_ids(query.user_history, f"queries[{i}].user_history", catalog)
    else:
        personas = _records(_PERSONA, PersonaParams)(doc["personas"], "personas")
        if not personas:
            raise SchemaError("personas: at least one persona is required")
        queries = tuple(generate_synthetic(personas, catalog, seed))

    return Scenario(
        name=name,
        catalog=catalog,
        agents=agents,
        policy=policy,
        rule_config=rule_config,
        queries=queries,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# JSON writer

# the exact types a leaf may hold; a subclass makes its container a walked one,
# which encodes it the same way
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _not_serializable(obj: object) -> object:
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


@functools.cache
def _layout(depth: int) -> tuple[Callable[[object, int], Sequence[str]], str, str]:
    """The encoder for a scalar or a leaf at ``depth``, and the newline plus
    indent inside and outside that leaf's brackets.

    The encoder writes a leaf compactly, except that a comma, a newline and
    ``depth + 1`` indents separate its items.  It is one C encoder per depth,
    built once; without the C accelerator, the public ``json.JSONEncoder``
    with the same separators.  Either returns the text as a sequence of
    strings.
    """
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if c_make_encoder is None:
        encoder = json.JSONEncoder(sort_keys=True, separators=("," + inner, ": "))
        return lambda obj, _level: (encoder.encode(obj),), inner, outer
    # (markers, default, encoder, indent, key_separator, item_separator,
    # sort_keys, skipkeys, allow_nan); no markers, so no cycle check: the
    # payloads written are trees
    encode = c_make_encoder(
        None, _not_serializable, encode_basestring_ascii, None, ": ", "," + inner, True, False, True
    )
    return encode, inner, outer


_SLAB_PIECES = 4096


def _json_slabs(obj: object) -> list[str]:
    """``json.dumps(obj, indent=2, sort_keys=True)`` as a list of slabs, for
    ``obj`` with str keys.

    A container whose values are all scalars (a leaf) is encoded in one C
    call, and the newlines after its opening and before its closing bracket
    are spliced on.  Only containers that hold containers are walked here,
    keys sorted.  The pieces are joined into a slab every ``_SLAB_PIECES``
    pieces, so the text is never held as ~10^5 small chunks, and a file
    writer need not join the slabs into one string.
    """
    slabs: list[str] = []
    pieces: list[str] = []
    put = pieces.append

    def walk(obj: object, depth: int) -> None:
        encode, inner, outer = _layout(depth)
        is_dict = isinstance(obj, dict)
        if not is_dict and not isinstance(obj, (list, tuple)):
            put("".join(encode(obj, 0)))
            return
        if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
            text = "".join(encode(obj, 0))
            put(f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}" if obj else text)
            return
        sep = ("{" if is_dict else "[") + inner
        if is_dict:
            for key, value in sorted(obj.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {key.__class__.__name__}")
                put(f"{sep}{encode_basestring_ascii(key)}: ")
                walk(value, depth + 1)
                sep = "," + inner
        else:
            for value in obj:
                put(sep)
                walk(value, depth + 1)
                sep = "," + inner
        put(outer + ("}" if is_dict else "]"))
        if len(pieces) >= _SLAB_PIECES:
            slabs.append("".join(pieces))
            pieces.clear()

    walk(obj, 0)
    slabs.append("".join(pieces))
    return slabs


def _write_json(path: Path, slabs: list[str]) -> None:
    """Write ``_json_slabs`` output and a newline, as ASCII, slab by slab."""
    with open(path, "wb") as fh:
        for slab in slabs:
            fh.write(slab.encode("ascii"))
        fh.write(b"\n")


# ---------------------------------------------------------------------------
# report serialization


def _round6(value: object) -> object:
    """A float rounded to 6 places, -0.0 as 0.0; any other value as it is."""
    if isinstance(value, float):
        r = round(value, 6)
        return 0.0 if r == 0 else r
    return value


# floats smaller in magnitude are inside ``_round_each``'s domain at 6 places,
# |x * 10**6| < 2**31 = 2147483648
_ROUND6_BOUND = 2147.0


def _round6_each(values: Sequence[object]) -> list[object]:
    """``[_round6(v) for v in values]``, bit for bit, with one ``_round_each``
    call for every float below ``_ROUND6_BOUND`` in magnitude.

    Larger floats, NaN and infinities, and every other value (an int, None, a
    float subclass) go through ``_round6``.
    """
    x = np.array([v if type(v) is float else math.nan for v in values], dtype=float)
    inside = np.abs(x) < _ROUND6_BOUND
    out = list(values)
    for i in np.flatnonzero(~inside).tolist():
        out[i] = _round6(out[i])
    at = np.flatnonzero(inside)
    for i, r in zip(at.tolist(), _round_each(x[at], 6).tolist()):
        out[i] = r or 0.0  # -0.0 is written as 0.0
    return out


def _rounded_report(report: EvaluationReport) -> EvaluationReport:
    """``report`` with each of its floats rounded by ``_round6``, all in one
    ``_round6_each`` pass; what the JSON, CSV and Markdown forms print."""
    maps = [m for q in report.per_query for m in (q.values, q.regret, q.influence)]
    maps += report.aggregate.values()
    flat = [v for m in maps for v in m.values()]
    for series in report.drift.values():
        flat += series
    rounded = iter(_round6_each(flat))
    # ``zip`` reads a map's keys first, so it stops before taking a value past them
    maps = [dict(zip(m, rounded)) for m in maps]
    n = len(report.per_query)
    return EvaluationReport(
        per_query=tuple(
            QueryEvaluation(q.query_id, *maps[3 * i : 3 * i + 3])
            for i, q in enumerate(report.per_query)
        ),
        aggregate=dict(zip(report.aggregate, maps[3 * n :])),
        drift={a: tuple(islice(rounded, len(s))) for a, s in report.drift.items()},
        runtime=report.runtime,
    )


def _fmt6(value: float | None) -> str:
    """A rounded report value as CSV and Markdown print it; None as empty."""
    return "" if value is None else f"{value:.6f}"


def _report_payload(
    runs: Mapping[str, tuple[EvaluationReport, Sequence[QueryOutcome]]],
    scenario_name: str,
) -> dict:
    rules_obj: dict[str, object] = {}
    for rule_name in sorted(runs):
        report, outcomes = runs[rule_name]
        by_query = {o.query_id: o for o in outcomes}
        per_query = []
        for entry in report.per_query:
            outcome = by_query[entry.query_id]
            per_query.append(
                {
                    "query_id": entry.query_id,
                    "rule": outcome.aggregate.rule,
                    "final_list": list(outcome.final_list),
                    "values": entry.values,
                    "regret": entry.regret,
                    "influence": entry.influence,
                    "skipped_agents": dict(outcome.skipped_agents),
                }
            )
        rules_obj[rule_name] = {
            "aggregate": report.aggregate,
            "drift": report.drift,
            "runtime_calls": dict(report.runtime),
            "per_query": per_query,
        }
    return {"scenario": scenario_name, "rules": rules_obj}


def _metrics_csv(runs: Mapping[str, tuple[EvaluationReport, Sequence[QueryOutcome]]]) -> str:
    agent_ids = sorted(
        {a for report, _ in runs.values() for a in report.drift}
    )
    metric_cols = [m.value for m in MetricId]
    header = (
        ["rule", "query_index", "query_id"]
        + metric_cols
        + [f"regret:{a}" for a in agent_ids]
        + [f"influence:{a}" for a in agent_ids]
    )
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for rule_name in sorted(runs):
        report, _ = runs[rule_name]
        for idx, entry in enumerate(report.per_query):
            row = [rule_name, str(idx), entry.query_id]
            row += [_fmt6(entry.values.get(m)) for m in metric_cols]
            row += [_fmt6(entry.regret.get(a)) for a in agent_ids]
            row += [_fmt6(entry.influence.get(a)) for a in agent_ids]
            writer.writerow(row)
    return buf.getvalue()


def _summary_md(
    runs: Mapping[str, tuple[EvaluationReport, Sequence[QueryOutcome]]],
    rounded: Mapping[str, tuple[EvaluationReport, Sequence[QueryOutcome]]],
    scenario_name: str,
) -> str:
    """The Markdown summary of ``rounded``; the agent means it computes
    itself, from the reports in ``runs``, are rounded by ``_round6``."""
    lines: list[str] = [f"# Run summary: {scenario_name}", ""]
    for rule_name in sorted(rounded):
        report, outcomes = rounded[rule_name]
        raw = runs[rule_name][0]
        lines += [f"## Rule: {rule_name}", ""]
        lines += ["| metric | mean | min | max |", "| --- | --- | --- | --- |"]
        for metric in MetricId:
            agg = report.aggregate.get(metric.value)
            if agg is None:
                continue
            lines.append(
                f"| {metric.value} | {_fmt6(agg['mean'])} | {_fmt6(agg['min'])} "
                f"| {_fmt6(agg['max'])} |"
            )
        lines.append("")
        agent_ids = sorted(report.drift)
        lines += [
            "| agent | mean regret | mean influence |",
            "| --- | --- | --- |",
        ]
        n_q = len(report.per_query)
        for agent in agent_ids:
            mean_regret = left_sum(raw.drift[agent]) / n_q if n_q else 0.0
            influences = [q.influence.get(agent) for q in raw.per_query]
            known = [v for v in influences if v is not None]
            mean_influence = left_sum(known) / len(known) if known else 0.0
            means = f"{_fmt6(_round6(mean_regret))} | {_fmt6(_round6(mean_influence))}"
            lines.append(f"| {agent} | {means} |")
        lines.append("")
        lines += ["### Regret drift (per query)", ""]
        for agent in agent_ids:
            series = " ".join(_fmt6(v) for v in report.drift[agent])
            lines.append(f"- {agent}: {series}")
        lines.append("")
        skipped_total = sum(len(o.skipped_agents) for o in outcomes)
        lines.append(f"Queries: {n_q}; agent skips/drops: {skipped_total}")
        lines.append("")
        lines += ["| stage | calls |", "| --- | --- |"]
        for stage in sorted(report.runtime):
            lines.append(f"| {stage} | {report.runtime[stage]} |")
        lines.append("")
    return "\n".join(lines)


def write_report(
    runs: Mapping[str, tuple[EvaluationReport, Sequence[QueryOutcome]]],
    path_prefix: str | Path,
    scenario_name: str,
) -> list[Path]:
    """Write PREFIX.report.json, PREFIX.metrics.csv, and PREFIX.summary.md.

    ``runs`` maps a rule label to its (report, outcomes) pair; the compare
    command passes several, run passes one.  Identical runs produce
    byte-identical files.  All three files are built and encoded before the
    first is written, so a failure while building them leaves none behind.
    Each report's floats are rounded to 6 places once (``_rounded_report``),
    and all three files print those values.  The JSON is ``_json_slabs`` of
    the report payload and a newline; the CSV and Markdown are UTF-8.
    """
    prefix = Path(path_prefix)
    suffixes = (".report.json", ".metrics.csv", ".summary.md")
    paths = [prefix.with_name(prefix.name + suffix) for suffix in suffixes]
    rounded = {rule: (_rounded_report(r), outcomes) for rule, (r, outcomes) in runs.items()}
    json_slabs = _json_slabs(_report_payload(rounded, scenario_name))
    csv_bytes = _metrics_csv(rounded).encode("utf-8")
    md_bytes = _summary_md(runs, rounded, scenario_name).encode("utf-8")
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    _write_json(paths[0], json_slabs)
    paths[1].write_bytes(csv_bytes)
    paths[2].write_bytes(md_bytes)
    return paths


# ---------------------------------------------------------------------------
# saved outcomes


def catalog_hash(catalog: Catalog) -> str:
    """Content hash of a catalog, for pinning outcomes; kept by ``Catalog.derived``."""
    return catalog.derived(_hash_catalog)


def _hash_catalog(catalog: Catalog) -> str:
    """The SHA-256 of ``json.dumps(records, sort_keys=True)`` in UTF-8.

    ``records`` are the items' ``_item_records``, read from the columns in
    id order.  The text is fed to the hash in pieces: ``[``, each slice of
    ``_HASH_SLICE`` records dumped by one call with its brackets stripped,
    the slices joined by ``", "``, then ``]``, the same bytes as one dump
    without holding them.
    """
    sha = hashlib.sha256(b"[")
    for n, records in enumerate(_item_records(catalog)):
        if n:
            sha.update(b", ")
        sha.update(json.dumps(records, sort_keys=True)[1:-1].encode("utf-8"))
    sha.update(b"]")
    return sha.hexdigest()


def _map_of(
    types: tuple[type, ...], expected: str, bounds: tuple[float, float] | None = None
) -> Callable[[object, str], dict]:
    """The check for an object whose values are each of one of ``types``,
    compared exactly, so a JSON ``true`` is not an integer, and, with
    ``bounds`` (lo, hi), each number in [lo, hi].  Keys, and values if
    ``types`` is ``(str,)``, must be encodable as UTF-8, as ``_expect_str``
    checks.  It returns a copy and builds no message unless a key or value
    fails: ``evaluate`` decodes a dozen of these per outcome."""
    strings = types == (str,)
    lo, hi = bounds or (None, None)

    def check(raw: object, path: str) -> dict:
        obj = _expect_dict(raw, path)
        for key, value in obj.items():
            if not key.isascii():
                _expect_str(key, f"{path} key")
            # NaN fails both comparisons
            if type(value) not in types or (
                bounds and value is not None and not lo <= value <= hi
            ):
                raise SchemaError(f"{path}.{key}: expected {expected}")
            if strings and not value.isascii():
                _expect_str(value, f"{path}.{key}")
        return dict(obj)

    return check


# bounds that hold every finite number and refuse NaN and the infinities
_FINITE = (-sys.float_info.max, sys.float_info.max)


def _unit(v: object, path: str) -> float:
    if type(v) not in (float, int) or not 0.0 <= v <= 1.0:
        raise SchemaError(f"{path}: expected a number in [0, 1]")
    return v


def _optional_str(v: object, path: str) -> str | None:
    return None if v is None else _expect_str(v, path)


def _ranking(raw: object, path: str) -> tuple[str, ...]:
    ranking = _expect_str_list(raw, path)
    if len(set(ranking)) != len(ranking):
        raise SchemaError(f"{path}: an item is ranked twice")
    return ranking


# every label a rule writes into ``AggregateResult.rule``
_RULE_LABELS = frozenset({*(rule.value for rule in Rule), Rule.KEMENY.value + "-heuristic"})


def _rule_label(v: object, path: str) -> str:
    if type(v) is not str or v not in _RULE_LABELS:
        raise SchemaError(f"{path}: expected one of {sorted(_RULE_LABELS)}")
    return v


_BALLOT = (
    _Field("agent_id", _expect_str),
    _Field("ranking", _ranking),
    _Field("justification", _optional_str, None),
    _Field("weight", _unit),
)

_TIE = (
    _Field("description", _expect_str),
    _Field("resolution", _expect_str),
)

# ``_outcome_from_obj`` checks the consensus against the ballots and shares
# the tie events
_AGGREGATE = (
    _Field("rule", _rule_label),
    _Field("consensus", _expect_list),
    _Field("influence", _map_of((float, int), "a number in [0, 1]", (0.0, 1.0))),
    _Field("tiebreak_trace", _expect_list, []),
    _Field("scores", _map_of((float, int), "a finite number", _FINITE), {}),
)

_OUTCOME = (
    _Field("query", _record(_QUERY, Query)),
    _Field("final_list", _expect_str_list),
    _Field("ballots", _records(_BALLOT, Ballot), _REQUIRED, "per_agent_ballots"),
    _Field("aggregate", _record(_AGGREGATE, None)),
    _Field("skipped_agents", _map_of((str,), "a string"), {}),
    _Field("justifications", _map_of((str,), "a string"), {}),
    _Field(
        "per_agent_achieved",
        _map_of((float, int, type(None)), "a finite number or null", _FINITE),
        {},
    ),
    _Field(
        "per_agent_regret", _map_of((float, int), "a finite number >= 0", (0.0, _FINITE[1])), {}
    ),
    _Field("stage_calls", _map_of((int,), "an integer"), {}),
)

# the saved-outcomes document; ``load_outcomes`` checks the hash, then
# decodes each outcome by ``_outcome_from_obj``
_OUTCOMES_FILE = (
    _Field("scenario", _expect_str, ""),
    _Field("rule", _expect_str, ""),
    _Field("catalog_hash", _expect_str),
    _Field("outcomes", _expect_list),
)

# the field table of each record type that a file holds
_TABLE_OF = {
    Query: _QUERY,
    Constraint: _CONSTRAINT,
    Ballot: _BALLOT,
    TieEvent: _TIE,
    AggregateResult: _AGGREGATE,
    QueryOutcome: _OUTCOME,
}


def _encode(record: object) -> dict:
    """The JSON object of ``record``: ``key: getattr(record, arg)`` for each
    row of its type's field table, the table that reads it back.

    A nested record, or a non-empty tuple of records, is written by its own
    table.  Every other value, maps and tuples included, is shared with the
    record, not copied, so the object is for writing, not for changing.
    ``_json_slabs`` and ``json.dumps`` both write a tuple as a list and sort
    keys, so the bytes are those of a copy.  Items have no entry here:
    ``_item_records`` writes them from a catalog's columns.
    """
    obj = {}
    for key, _, _, arg in _TABLE_OF[type(record)]:
        value = getattr(record, arg)
        kind = type(value)
        # dispatched inline, not by a helper per value: this runs for every
        # field of every saved outcome
        if kind in _TABLE_OF:
            value = _encode(value)
        elif kind is tuple and value and type(value[0]) in _TABLE_OF:
            value = [_encode(v) for v in value]
        obj[key] = value
    return obj


def _outcome_from_obj(
    raw: object, path: str, known: frozenset[str], ties: dict[tuple[str, str], TieEvent]
) -> QueryOutcome:
    """Decode one saved outcome by ``_OUTCOME``, then check what no single
    field shows: the query's history, the final list and each ballot
    ranking hold catalog ids; the consensus orders exactly the items the
    ballots rank, and the final list is its first ``top_n``; scores map
    exactly the consensus ids; achieved values have exactly the agents of
    the regrets; influence has exactly the agents that cast a ballot.  Tie
    events come from ``ties``, one shared ``TieEvent`` per distinct
    (description, resolution), added to as new ones are met.
    """
    fields = _decode(_OUTCOME, raw, path, None)
    query, final_list, ballots = fields["query"], fields["final_list"], fields["per_agent_ballots"]
    agg = fields["aggregate"]
    pool = set()
    for ballot in ballots:
        pool.update(ballot.ranking)
    if not (pool <= known and known.issuperset(final_list)
            and known.issuperset(query.user_history)):
        _known_ids(query.user_history, f"{path}.query.user_history", known)
        _known_ids(final_list, f"{path}.final_list", known)
        for i, ballot in enumerate(ballots):
            _known_ids(ballot.ranking, f"{path}.ballots[{i}].ranking", known)
    consensus = agg["consensus"]
    try:
        permutation = len(consensus) == len(pool) and set(consensus) == pool
    except TypeError:  # an unhashable entry
        permutation = False
    if not permutation:
        raise SchemaError(
            f"{path}.aggregate.consensus: "
            f"expected each of the {len(pool)} items the ballots rank, once"
        )
    consensus = tuple(consensus)
    if final_list != consensus[: query.top_n]:
        raise SchemaError(f"{path}.final_list: expected the first query.top_n consensus items")
    if agg["scores"].keys() != pool:
        raise SchemaError(f"{path}.aggregate.scores: expected one entry per consensus item")
    regret, achieved = fields["per_agent_regret"], fields["per_agent_achieved"]
    if achieved.keys() != regret.keys():
        raise SchemaError(
            f"{path}.per_agent_achieved: expected the agents of per_agent_regret "
            f"{sorted(regret)}, got {sorted(achieved)}"
        )
    agents = {b.agent_id for b in ballots}
    if agg["influence"].keys() != agents:
        raise SchemaError(
            f"{path}.aggregate.influence: expected one entry per ballot agent "
            f"{sorted(agents)}, got {sorted(agg['influence'])}"
        )
    fields["aggregate"] = AggregateResult(
        rule=agg["rule"],
        consensus=consensus,
        influence=agg["influence"],
        tiebreak_trace=_shared_ties(
            ties, agg["tiebreak_trace"], f"{path}.aggregate.tiebreak_trace"
        ),
        scores=agg["scores"],
    )
    return QueryOutcome(query_id=query.id, **fields)


def _shared_ties(
    ties: dict[tuple[str, str], TieEvent], entries: list, path: str
) -> tuple[TieEvent, ...]:
    """A saved tiebreak trace.  Each distinct (description, resolution) is
    checked and built once, and every equal event after it shares that
    ``TieEvent``: only checked pairs of strings are ever in ``ties``."""
    events = []
    for i, entry in enumerate(entries):
        try:
            key = (entry["description"], entry["resolution"])
            event = ties.get(key)
        except (KeyError, TypeError):
            key = event = None
        if event is None:
            # two ASCII strings need no more checks; anything else is decoded by ``_TIE``
            if (
                key is not None
                and type(key[0]) is type(key[1]) is str
                and key[0].isascii()
                and key[1].isascii()
            ):
                event = ties[key] = TieEvent(*key)
            else:
                event = _decode(_TIE, entry, f"{path}[{i}]", TieEvent)
                ties[event.description, event.resolution] = event
        events.append(event)
    return tuple(events)


def save_outcomes(
    outcomes: Sequence[QueryOutcome],
    catalog: Catalog,
    path: str | Path,
    scenario_name: str,
    rule_name: str,
) -> None:
    """Persist per-query outcomes with a catalog content hash.

    Floats keep full precision here (unlike reports) so an evaluate-only
    replay reproduces the original report byte for byte.  The file is
    ``_json_slabs`` of the payload and a newline, built in full before
    the file is opened.
    """
    payload = {
        "scenario": scenario_name,
        "rule": rule_name,
        "catalog_hash": catalog_hash(catalog),
        "outcomes": [_encode(o) for o in outcomes],
    }
    _write_json(Path(path), _json_slabs(payload))


def load_outcomes(
    path: str | Path, catalog: Catalog
) -> tuple[list[QueryOutcome], str, str]:
    """Load saved outcomes, checking the catalog hash.

    Returns (outcomes, scenario_name, rule_name).  Equal tie events within
    the file share one ``TieEvent``; nothing is kept between calls.

    Raises:
        SchemaError: unreadable/invalid file, a document field that
            ``_OUTCOMES_FILE`` refuses, catalog hash mismatch, a query that
            breaks the scenario-query rules, or any other outcome field that
            is missing though required or that ``save_outcomes`` could not
            have written (see ``_OUTCOME`` and ``_outcome_from_obj``).  The
            message names the field.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"cannot read outcomes file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"outcomes file is not valid JSON: {exc}") from exc
    try:
        doc = _decode(_OUTCOMES_FILE, _expect_dict(doc, "outcomes file"), "", None)
        expected = doc["catalog_hash"]
        actual = catalog_hash(catalog)
        if expected != actual:
            raise SchemaError(
                "catalog hash mismatch: outcomes were recorded against a "
                f"different catalog (recorded {expected[:12]}…, current {actual[:12]}…)"
            )
        known, ties = frozenset(catalog.ids), {}
        outcomes = [
            _outcome_from_obj(obj, f"outcomes[{i}]", known, ties)
            for i, obj in enumerate(doc["outcomes"])
        ]
        if not outcomes:
            raise SchemaError("outcomes: at least one outcome is required")
        return outcomes, doc["scenario"], doc["rule"]
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"outcomes file is malformed: {exc}") from exc
