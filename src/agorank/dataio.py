"""Catalog/interaction ingestion, scenario files, synthetic generation, and
report serialization.

Loaders reject structurally invalid input outright; row-level droppable
issues (interactions referencing unknown items) are counted and logged,
never silent.  Every JSON file is written by ``_write_json`` from
``_json_slabs``, whose text equals ``json.dumps(obj, indent=2,
sort_keys=True)``; reports round floats to 6 decimals, so identical runs
produce byte-identical files.

The synthetic generator runs on a portable 64-bit linear congruential PRNG
(constants below, documented in FORMATS.md) rather than a stdlib generator,
so generated scenarios reproduce across implementations and platforms.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib.resources
import io
import json
import logging
import math
import weakref
from dataclasses import dataclass
from datetime import datetime
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

from .agents import AgentObjective, AgentSpec
from .aggregation import Rule, RuleConfig
from .errors import (
    DuplicateItemId,
    MalformedRecord,
    MissingRequiredField,
    SchemaError,
    UnknownMetricId,
    UnknownRule,
)
from .metrics import EvaluationReport, MetricId
from .model import (
    AggregateResult,
    Ballot,
    Catalog,
    Constraint,
    Item,
    Query,
    StakeholderRole,
    TieEvent,
    left_sum,
)
from .orchestrator import ActivationMode, ActivationPolicy, QueryOutcome

log = logging.getLogger("agorank")
T = TypeVar("T")

CATALOG_CSV_FIELDS = ("id", "provider_id", "categories", "popularity", "sustainability", "description")
INTERACTION_CSV_FIELDS = ("user_id", "item_id", "rating", "timestamp")

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
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * LCG_MULT + LCG_INC) & _MASK64
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)


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
        object.__setattr__(self, "category_weights", dict(self.category_weights))
        object.__setattr__(self, "constraint_templates", tuple(self.constraint_templates))


@dataclass(frozen=True)
class Scenario:
    """A fully resolved run configuration: catalog, agents, policy, queries."""

    name: str
    catalog_source: str
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
    items: list[Item] = []
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
            items.append(_item_from_obj(rec, f"line {line}", line))
    return Catalog(items)


def _load_catalog_json(path: Path) -> Catalog:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise MalformedRecord(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise MalformedRecord("catalog JSON must be a list of items")
    return Catalog([_item_from_obj(rec, f"item {i}") for i, rec in enumerate(payload)])


def _csv_number(cell: str, key: str, line: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise MalformedRecord(f"{key} {cell!r} is not a number", line) from None


def _item_from_obj(rec: object, where: str, line: int | None = None) -> Item:
    """Decode one item record; both catalog loaders build every item here.

    ``where`` names the record in messages.  A CSV row also passes its
    ``line``, which ``MalformedRecord`` carries and prints itself.
    """
    if not isinstance(rec, dict):
        raise MalformedRecord(f"{where} is not an object")
    for key in ("id", "provider_id"):
        if not rec.get(key):
            raise MissingRequiredField(f"{where}: missing {key}")
    try:
        return Item(
            id=_expect_str(rec["id"], "id"),
            provider_id=_expect_str(rec["provider_id"], "provider_id"),
            categories=frozenset(_expect_str_list(rec.get("categories", []), "categories")),
            popularity=_expect_number(rec.get("popularity", 0.5), "popularity"),
            sustainability=_expect_number(rec.get("sustainability", 0.5), "sustainability"),
            attributes=_parse_number_map(rec.get("attributes") or {}, "attributes"),
            description=_expect_str(rec.get("description", ""), "description"),
        )
    except (SchemaError, ValueError) as exc:
        raise MalformedRecord(str(exc) if line else f"{where}: {exc}", line) from exc


def _item_to_obj(item: Item) -> dict:
    """The one record of an item: ``export_catalog`` writes it, ``catalog_hash`` hashes it."""
    return {
        "id": item.id,
        "provider_id": item.provider_id,
        "categories": sorted(item.categories),
        "popularity": item.popularity,
        "sustainability": item.sustainability,
        "attributes": dict(sorted(item.attributes.items())),
        "description": item.description,
    }


def export_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog back out (CSV or JSON by suffix); loaders round-trip it.

    The JSON form is ``_json_slabs`` of the item records, in id order,
    and a newline; the CSV form is UTF-8.
    """
    path = Path(path)
    records = [_item_to_obj(item) for item in catalog.items_sorted()]
    if path.suffix.lower() == ".json":
        _write_json(path, _json_slabs(records))
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # the csv module writes floats with repr(), so they round-trip exactly
        writer = csv.DictWriter(fh, CATALOG_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for rec in records:
            writer.writerow({**rec, "categories": ";".join(rec["categories"])})


def load_interactions(
    path: str | Path, catalog: Catalog
) -> dict[str, list[tuple[str, float, str]]]:
    """Load user interactions, dropping rows that reference unknown items.

    CSV columns: user_id, item_id, rating, timestamp (ISO-8601).  Dropped
    rows are counted and logged.  Per-user lists come back sorted by
    timestamp.
    """
    per_user: dict[str, list[tuple[datetime, str, float, str]]] = {}
    dropped = 0
    with _open_csv(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return {}
        for line, row in enumerate(reader, start=2):
            user = row.get("user_id")
            item = row.get("item_id")
            if not user or not item:
                raise MalformedRecord("missing user_id or item_id", line)
            try:
                rating = float(row.get("rating"))  # a short row leaves None here
            except (TypeError, ValueError) as exc:
                raise MalformedRecord(f"rating {row.get('rating')!r} is not a number", line) from exc
            raw_ts = row.get("timestamp") or ""
            try:
                ts = datetime.fromisoformat(raw_ts)
            except ValueError as exc:
                raise MalformedRecord(f"timestamp {raw_ts!r} is not ISO-8601", line) from exc
            if item not in catalog:
                dropped += 1
                continue
            per_user.setdefault(user, []).append((ts, item, rating, raw_ts))
    if dropped:
        log.warning("dropped %d interaction rows referencing unknown items", dropped)
    result: dict[str, list[tuple[str, float, str]]] = {}
    for user in sorted(per_user):
        rows = sorted(per_user[user], key=lambda r: (r[0], r[1]))
        result[user] = [(item, rating, raw_ts) for _, item, rating, raw_ts in rows]
    return result


def generate_catalog(
    item_count: int = 200,
    provider_count: int = 20,
    categories: Sequence[str] = DEFAULT_CATEGORIES,
    seed: int = 0,
) -> Catalog:
    """Deterministic synthetic catalog.

    Providers are assigned round-robin.  Popularity is a squared uniform
    draw (few popular items, long unpopular tail); sustainability is
    uniform.  Per-item draw order: popularity, sustainability, first
    category, second-category gate (p=0.4), second category if gated in,
    price.
    """
    if item_count < 1 or provider_count < 1 or not categories:
        raise ValueError("need item_count >= 1, provider_count >= 1, categories non-empty")
    rng = PortableRng(seed ^ CATALOG_SEED_GAMMA)
    cats = list(categories)
    items: list[Item] = []
    for i in range(item_count):
        popularity = round(rng.uniform() ** 2, 6)
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


# ---------------------------------------------------------------------------
# scenario files


def _expect_dict(v: object, path: str) -> dict:
    if not isinstance(v, dict):
        raise SchemaError(f"{path}: expected an object")
    return v


def _expect_list(v: object, path: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(f"{path}: expected a list")
    return v


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


def _expect_str_list(v: object, path: str) -> list[str]:
    return [_expect_str(s, f"{path}[{i}]") for i, s in enumerate(_expect_list(v, path))]


def _expect_number(v: object, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    return float(v)


def _expect_int(v: object, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}: expected an integer")
    return v


def _expect_bool(v: object, path: str) -> bool:
    if not isinstance(v, bool):
        raise SchemaError(f"{path}: expected a boolean")
    return v


def _construct(cls: Callable[..., T], path: str, **fields: object) -> T:
    """Build a validated record, reporting its ``ValueError`` at ``path``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _optional_fields(
    obj: dict, path: str, table: Mapping[str, Callable[[object, str], object]]
) -> dict[str, object]:
    """Check and collect the keys of ``table`` that ``obj`` sets."""
    return {key: expect(obj[key], f"{path}.{key}") for key, expect in table.items() if key in obj}


_POLICY_FIELDS = {
    "fairness_threshold": _expect_number,
    "window": _expect_int,
    "compatibility_min": _expect_number,
}
_RULE_FIELDS = {
    "use_weights": _expect_bool,
    "kemeny_exact_limit": _expect_int,
    "kemeny_search_iters": _expect_int,
    "seed": _expect_int,
}


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


# the params an external agent's adapter reads; each is optional
_EXTERNAL_PARAMS = {
    "endpoint": _expect_endpoint,
    "persona": _expect_str,
    "timeout_s": _expect_timeout,
}


def _parse_number_map(raw: object, path: str) -> dict[str, float]:
    """Decode a string-to-number object: query and persona weights, item attributes."""
    return {
        _expect_str(k, f"{path} key"): _expect_number(v, f"{path}.{k}")
        for k, v in _expect_dict(raw, path).items()
    }


def _parse_constraint(raw: object, path: str) -> Constraint:
    obj = _expect_dict(raw, path)
    return _construct(
        Constraint,
        path,
        attribute=_expect_str(obj.get("attribute"), f"{path}.attribute"),
        direction=_expect_str(obj.get("direction"), f"{path}.direction"),
        value=_expect_number(obj.get("value"), f"{path}.value"),
    )


def _parse_constraints(raw: object, path: str) -> tuple[Constraint, ...]:
    entries = _expect_list(raw, path)
    return tuple(_parse_constraint(c, f"{path}[{i}]") for i, c in enumerate(entries))


def _parse_agent(raw: object, path: str) -> AgentSpec:
    obj = _expect_dict(raw, path)
    agent_id = _expect_str(obj.get("agent_id"), f"{path}.agent_id")
    role_raw = _expect_str(obj.get("role"), f"{path}.role")
    try:
        role = StakeholderRole(role_raw)
    except ValueError:
        raise SchemaError(f"{path}.role: unknown role {role_raw!r}") from None
    objective_raw = _expect_str(obj.get("objective"), f"{path}.objective")
    try:
        objective = AgentObjective(objective_raw)
    except ValueError:
        raise SchemaError(f"{path}.objective: unknown objective {objective_raw!r}") from None
    metric_raw = _expect_str(obj.get("objective_metric"), f"{path}.objective_metric")
    try:
        metric = MetricId(metric_raw)
    except ValueError:
        raise UnknownMetricId(f"{path}.objective_metric: {metric_raw!r}") from None
    target = _expect_number(obj.get("objective_target"), f"{path}.objective_target")
    params = _expect_dict(obj.get("params", {}), f"{path}.params")
    if objective is AgentObjective.EXTERNAL:
        _optional_fields(params, f"{path}.params", _EXTERNAL_PARAMS)
    tags = _expect_str_list(obj.get("compatibility_tags", []), f"{path}.compatibility_tags")
    return _construct(
        AgentSpec,
        path,
        agent_id=agent_id,
        role=role,
        objective=objective,
        objective_metric=metric,
        objective_target=target,
        params=params,
        compatibility_tags=frozenset(tags),
    )


def _parse_policy(raw: object, path: str) -> ActivationPolicy:
    if raw is None:
        return ActivationPolicy()
    obj = _expect_dict(raw, path)
    mode_raw = obj.get("mode", "static")
    mode_str = _expect_str(mode_raw, f"{path}.mode")
    try:
        mode = ActivationMode(mode_str)
    except ValueError:
        raise SchemaError(f"{path}.mode: unknown mode {mode_str!r}") from None
    return _construct(
        ActivationPolicy, path, mode=mode, **_optional_fields(obj, path, _POLICY_FIELDS)
    )


def parse_rule_name(name: str) -> Rule:
    try:
        return Rule(name)
    except ValueError:
        raise UnknownRule(f"unknown rule {name!r}") from None


def _parse_rule(raw: object, path: str, default_seed: int) -> RuleConfig:
    if raw is None:
        return RuleConfig(seed=default_seed)
    if isinstance(raw, str):
        return RuleConfig(rule=parse_rule_name(raw), seed=default_seed)
    obj = _expect_dict(raw, path)
    name = _expect_str(obj.get("name"), f"{path}.name")
    rule = parse_rule_name(name)
    kwargs = {"seed": default_seed, **_optional_fields(obj, path, _RULE_FIELDS)}
    return _construct(RuleConfig, path, rule=rule, **kwargs)


def _parse_query(raw: object, path: str, catalog: Catalog) -> Query:
    """Decode a query: a scenario's ``queries[i]`` or a saved outcome's ``query``."""
    obj = _expect_dict(raw, path)
    qid = _expect_str(obj.get("id"), f"{path}.id")
    text = _expect_str(obj.get("text", ""), f"{path}.text")
    weights = _parse_number_map(obj.get("preference_weights", {}), f"{path}.preference_weights")
    constraints = _parse_constraints(obj.get("constraints", []), f"{path}.constraints")
    history = _expect_str_list(obj.get("user_history", []), f"{path}.user_history")
    for i, item_id in enumerate(history):
        if item_id not in catalog:
            raise SchemaError(f"{path}.user_history[{i}]: unknown item {item_id!r}")
    top_n = _expect_int(obj.get("top_n", 5), f"{path}.top_n")
    return _construct(
        Query,
        path,
        id=qid,
        text=text,
        preference_weights=weights,
        constraints=constraints,
        user_history=tuple(history),
        top_n=top_n,
    )


def _query_to_obj(query: Query) -> dict:
    return {
        "id": query.id,
        "text": query.text,
        "preference_weights": dict(query.preference_weights),
        "constraints": [
            {"attribute": c.attribute, "direction": c.direction, "value": c.value}
            for c in query.constraints
        ],
        "user_history": list(query.user_history),
        "top_n": query.top_n,
    }


def _parse_persona(raw: object, path: str) -> PersonaParams:
    obj = _expect_dict(raw, path)
    text = _expect_str(obj.get("persona_text"), f"{path}.persona_text")
    weights = _parse_number_map(obj.get("category_weights"), f"{path}.category_weights")
    templates = _parse_constraints(
        obj.get("constraint_templates", []), f"{path}.constraint_templates"
    )
    count = _expect_int(obj.get("query_count"), f"{path}.query_count")
    top_n = _expect_int(obj.get("top_n", 5), f"{path}.top_n")
    return _construct(
        PersonaParams,
        path,
        persona_text=text,
        category_weights=weights,
        constraint_templates=templates,
        query_count=count,
        top_n=top_n,
    )


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
    before anything (catalog, queries, rule) derives from it.
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
        catalog_source = catalog_raw
    elif isinstance(catalog_raw, dict):
        params = _expect_dict(catalog_raw.get("synthetic"), "catalog.synthetic")
        item_count = _expect_int(params.get("item_count", 200), "catalog.synthetic.item_count")
        provider_count = _expect_int(
            params.get("provider_count", 20), "catalog.synthetic.provider_count"
        )
        cats_raw = _expect_list(
            params.get("categories", list(DEFAULT_CATEGORIES)), "catalog.synthetic.categories"
        )
        cats = [
            _expect_str(c, f"catalog.synthetic.categories[{i}]") for i, c in enumerate(cats_raw)
        ]
        try:
            catalog = generate_catalog(item_count, provider_count, cats, seed)
        except ValueError as exc:
            raise SchemaError(f"catalog.synthetic: {exc}") from exc
        catalog_source = "synthetic"
    else:
        raise SchemaError("catalog: expected a file path or {'synthetic': {...}}")

    agents_raw = _expect_list(doc.get("agents"), "agents")
    if not agents_raw:
        raise SchemaError("agents: at least one agent is required")
    agents = tuple(_parse_agent(a, f"agents[{i}]") for i, a in enumerate(agents_raw))
    ids = [a.agent_id for a in agents]
    if len(set(ids)) != len(ids):
        raise SchemaError("agents: duplicate agent_id")

    policy = _parse_policy(doc.get("policy"), "policy")
    rule_config = _parse_rule(doc.get("rule"), "rule", seed)

    has_queries = "queries" in doc
    has_personas = "personas" in doc
    if has_queries == has_personas:
        raise SchemaError("exactly one of 'queries' or 'personas' is required")
    if has_queries:
        queries_raw = _expect_list(doc.get("queries"), "queries")
        if not queries_raw:
            raise SchemaError("queries: at least one query is required")
        queries = tuple(
            _parse_query(q, f"queries[{i}]", catalog) for i, q in enumerate(queries_raw)
        )
    else:
        personas_raw = _expect_list(doc.get("personas"), "personas")
        if not personas_raw:
            raise SchemaError("personas: at least one persona is required")
        personas = [
            _parse_persona(p, f"personas[{i}]") for i, p in enumerate(personas_raw)
        ]
        queries = tuple(generate_synthetic(personas, catalog, seed))

    return Scenario(
        name=name,
        catalog_source=catalog_source,
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


def _rounded(values: Mapping[str, object]) -> dict[str, object]:
    return {k: _round6(v) for k, v in values.items()}


def _fmt6(value: float | None) -> str:
    return "" if value is None else f"{_round6(value):.6f}"


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
                    "values": _rounded(entry.values),
                    "regret": _rounded(entry.regret),
                    "influence": _rounded(entry.influence),
                    "skipped_agents": dict(outcome.skipped_agents),
                }
            )
        rules_obj[rule_name] = {
            "aggregate": {k: _rounded(v) for k, v in report.aggregate.items()},
            "drift": {k: [_round6(x) for x in v] for k, v in report.drift.items()},
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
    runs: Mapping[str, tuple[EvaluationReport, Sequence[QueryOutcome]]], scenario_name: str
) -> str:
    lines: list[str] = [f"# Run summary: {scenario_name}", ""]
    for rule_name in sorted(runs):
        report, outcomes = runs[rule_name]
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
            mean_regret = left_sum(report.drift[agent]) / n_q if n_q else 0.0
            influences = [q.influence.get(agent) for q in report.per_query]
            known = [v for v in influences if v is not None]
            mean_influence = left_sum(known) / len(known) if known else 0.0
            lines.append(f"| {agent} | {_fmt6(mean_regret)} | {_fmt6(mean_influence)} |")
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
    The JSON is ``_json_slabs`` of the report payload, floats rounded to
    6 places, and a newline; the CSV and Markdown are UTF-8.
    """
    prefix = Path(path_prefix)
    suffixes = (".report.json", ".metrics.csv", ".summary.md")
    paths = [prefix.with_name(prefix.name + suffix) for suffix in suffixes]
    json_slabs = _json_slabs(_report_payload(runs, scenario_name))
    csv_bytes = _metrics_csv(runs).encode("utf-8")
    md_bytes = _summary_md(runs, scenario_name).encode("utf-8")
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    _write_json(paths[0], json_slabs)
    paths[1].write_bytes(csv_bytes)
    paths[2].write_bytes(md_bytes)
    return paths


# ---------------------------------------------------------------------------
# saved outcomes


# a catalog never changes after construction, so its hash is kept for as long
# as the catalog itself lives
_CATALOG_HASHES: weakref.WeakKeyDictionary[Catalog, str] = weakref.WeakKeyDictionary()


def catalog_hash(catalog: Catalog) -> str:
    """Content hash of a catalog, for pinning outcomes to their data.

    Computed on the first call for each catalog and then kept.
    """
    digest = _CATALOG_HASHES.get(catalog)
    if digest is None:
        records = [_item_to_obj(item) for item in catalog.items_sorted()]
        blob = json.dumps(records, sort_keys=True).encode("utf-8")
        digest = _CATALOG_HASHES[catalog] = hashlib.sha256(blob).hexdigest()
    return digest


def _outcome_to_obj(outcome: QueryOutcome) -> dict:
    return {
        "query": _query_to_obj(outcome.query),
        "final_list": list(outcome.final_list),
        "ballots": [
            {
                "agent_id": b.agent_id,
                "ranking": list(b.ranking),
                "justification": b.justification,
                "weight": b.weight,
            }
            for b in outcome.per_agent_ballots
        ],
        "aggregate": {
            "rule": outcome.aggregate.rule,
            "consensus": list(outcome.aggregate.consensus),
            "influence": dict(outcome.aggregate.influence),
            "tiebreak_trace": [
                {"description": e.description, "resolution": e.resolution}
                for e in outcome.aggregate.tiebreak_trace
            ],
            "scores": dict(outcome.aggregate.scores),
        },
        "skipped_agents": dict(outcome.skipped_agents),
        "justifications": dict(outcome.justifications),
        "per_agent_achieved": dict(outcome.per_agent_achieved),
        "per_agent_regret": dict(outcome.per_agent_regret),
        "stage_calls": dict(outcome.stage_calls),
    }


def _checked_map(raw: object, path: str, types: tuple[type, ...], expected: str) -> dict:
    """A copy of the object ``raw``, every value of one of ``types`` and kept as written.

    Types are compared exactly, so a JSON ``true`` is not an integer.  No
    message is built unless a value fails: a saved outcome has a dozen of
    these values, and ``evaluate`` decodes every outcome of a stream.
    """
    obj = _expect_dict(raw, path)
    for key, value in obj.items():
        if type(value) not in types:
            raise SchemaError(f"{path}.{key}: expected {expected}")
    return dict(obj)


def _checked_influence(raw: object, path: str, ballots: Sequence[Ballot]) -> dict[str, float]:
    """Leave-one-out influence as ``influence_loo`` writes it: one value in
    [0, 1] for each agent that cast a ballot, and no other key."""
    influence = _checked_map(raw, path, (float, int), "a number")
    agents = {b.agent_id for b in ballots}
    if influence.keys() != agents:
        raise SchemaError(
            f"{path}: expected one entry per ballot agent {sorted(agents)}, got {sorted(influence)}"
        )
    for agent, value in influence.items():
        if not 0.0 <= value <= 1.0:
            raise SchemaError(f"{path}.{agent}: expected a number in [0, 1]")
    return influence


def _outcome_from_obj(
    obj: dict, path: str, catalog: Catalog, ties: dict[tuple[str, str], TieEvent]
) -> QueryOutcome:
    """Decode one saved outcome; its query is checked like a scenario query.

    The fields a report is built from are checked too: the final list holds
    catalog ids, regrets are numbers, influence holds a value in [0, 1] for
    exactly the agents that cast a ballot, stage calls are integers.
    Tie events come from ``ties``, one shared ``TieEvent`` per distinct
    (description, resolution), added to as new ones are met.
    """
    query = _parse_query(obj["query"], f"{path}.query", catalog)
    final_list = _expect_list(obj["final_list"], f"{path}.final_list")
    for i, item_id in enumerate(final_list):
        if type(item_id) is not str:
            raise SchemaError(f"{path}.final_list[{i}]: expected a string")
        if item_id not in catalog:
            raise SchemaError(f"{path}.final_list[{i}]: unknown item {item_id!r}")
    ballots = tuple(
        Ballot(
            agent_id=b["agent_id"],
            ranking=tuple(b["ranking"]),
            justification=b.get("justification"),
            weight=b["weight"],
        )
        for b in obj["ballots"]
    )
    agg = obj["aggregate"]
    return QueryOutcome(
        query_id=query.id,
        final_list=tuple(final_list),
        per_agent_ballots=ballots,
        aggregate=AggregateResult(
            rule=agg["rule"],
            consensus=tuple(agg["consensus"]),
            influence=_checked_influence(agg["influence"], f"{path}.aggregate.influence", ballots),
            tiebreak_trace=tuple(
                _shared_tie(ties, e["description"], e["resolution"])
                for e in agg.get("tiebreak_trace", [])
            ),
            scores=dict(agg.get("scores", {})),
        ),
        skipped_agents=dict(obj.get("skipped_agents", {})),
        justifications=dict(obj.get("justifications", {})),
        query=query,
        per_agent_achieved=dict(obj.get("per_agent_achieved", {})),
        per_agent_regret=_checked_map(
            obj.get("per_agent_regret", {}), f"{path}.per_agent_regret", (float, int), "a number"
        ),
        stage_calls=_checked_map(
            obj.get("stage_calls", {}), f"{path}.stage_calls", (int,), "an integer"
        ),
    )


def _shared_tie(
    ties: dict[tuple[str, str], TieEvent], description: str, resolution: str
) -> TieEvent:
    key = (description, resolution)
    event = ties.get(key)
    if event is None:
        event = ties[key] = TieEvent(description, resolution)
    return event


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
        "outcomes": [_outcome_to_obj(o) for o in outcomes],
    }
    _write_json(Path(path), _json_slabs(payload))


def load_outcomes(
    path: str | Path, catalog: Catalog
) -> tuple[list[QueryOutcome], str, str]:
    """Load saved outcomes, checking the catalog hash.

    Returns (outcomes, scenario_name, rule_name).  Equal tie events within
    the file share one ``TieEvent``; nothing is kept between calls.

    Raises:
        SchemaError: unreadable/invalid file, catalog hash mismatch, a
            query that breaks the scenario-query rules, or a scenario or
            rule name that is not a string encodable as UTF-8.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"cannot read outcomes file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"outcomes file is not valid JSON: {exc}") from exc
    try:
        expected = doc["catalog_hash"]
        actual = catalog_hash(catalog)
        if expected != actual:
            raise SchemaError(
                "catalog hash mismatch: outcomes were recorded against a "
                f"different catalog (recorded {expected[:12]}…, current {actual[:12]}…)"
            )
        scenario_name = _expect_str(doc.get("scenario", ""), "scenario")
        rule_name = _expect_str(doc.get("rule", ""), "rule")
        ties: dict[tuple[str, str], TieEvent] = {}
        outcomes = [
            _outcome_from_obj(obj, f"outcomes[{i}]", catalog, ties)
            for i, obj in enumerate(doc["outcomes"])
        ]
        if not outcomes:
            raise SchemaError("outcomes: at least one outcome is required")
        return outcomes, scenario_name, rule_name
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"outcomes file is malformed: {exc}") from exc
