"""Core domain types plus the ranking-distance primitives everything else builds on.

All types are immutable values after construction and all operations are pure
functions, so they are safe to evaluate concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateItemId,
    EmptyAfterGrounding,
    NoCandidates,
    PoolMismatch,
)


class StakeholderRole(Enum):
    """The three core stakeholder classes an agent can represent."""

    USER = "user"
    PROVIDER = "provider"
    THIRD_PARTY = "third_party"


@dataclass(frozen=True)
class Item:
    """One catalog entry; the unit every recommendation is grounded in.

    ``popularity`` and ``sustainability`` are normalized to [0, 1];
    ``attributes`` holds any further named numeric facts (price, rating, ...).
    """

    id: str
    provider_id: str
    categories: frozenset[str] = frozenset()
    popularity: float = 0.5
    sustainability: float = 0.5
    attributes: Mapping[str, float] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValueError("item id must be non-empty")
        if not 0.0 <= self.popularity <= 1.0:
            raise ValueError(f"item {self.id}: popularity {self.popularity} outside [0, 1]")
        if not 0.0 <= self.sustainability <= 1.0:
            raise ValueError(
                f"item {self.id}: sustainability {self.sustainability} outside [0, 1]"
            )
        object.__setattr__(self, "categories", frozenset(self.categories))
        object.__setattr__(self, "attributes", dict(self.attributes))


@dataclass(frozen=True)
class CatalogColumns:
    """Item fields as numpy arrays in catalog id order, for whole-catalog scans.

    ``incidence[c][i]`` is True when item i carries category c;
    ``attributes[a][i]`` is NaN when item i has no attribute a, so that every
    comparison with it is False; ``provider_codes[i]`` indexes
    ``Catalog.providers``.
    """

    incidence: Mapping[str, np.ndarray]
    popularity: np.ndarray
    sustainability: np.ndarray
    attributes: Mapping[str, np.ndarray]
    provider_codes: np.ndarray

    def constraint_values(self, attribute: str) -> np.ndarray | None:
        """The column ``Constraint.satisfied_by`` reads, None if no item has it."""
        if attribute == "popularity":
            return self.popularity
        if attribute == "sustainability":
            return self.sustainability
        return self.attributes.get(attribute)


class Catalog:
    """Immutable id-indexed collection of items with a provider index.

    ``columns`` is derived from the items on first use and then kept; that is
    sound only because neither the catalog nor its items change after
    construction.
    """

    def __init__(self, items: Iterable[Item]):
        self._items: dict[str, Item] = {}
        by_provider: dict[str, list[str]] = {}
        for item in items:
            if item.id in self._items:
                raise DuplicateItemId(f"duplicate item id: {item.id}")
            self._items[item.id] = item
            by_provider.setdefault(item.provider_id, []).append(item.id)
        self._provider_index = {p: tuple(sorted(ids)) for p, ids in by_provider.items()}
        self._providers = tuple(sorted(self._provider_index))
        self._sorted_ids = tuple(sorted(self._items))

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._items

    def __getitem__(self, item_id: str) -> Item:
        return self._items[item_id]

    @property
    def ids(self) -> tuple[str, ...]:
        """All item ids, sorted ascending."""
        return self._sorted_ids

    @property
    def providers(self) -> tuple[str, ...]:
        """All provider ids, sorted ascending."""
        return self._providers

    @cached_property
    def columns(self) -> CatalogColumns:
        """Numpy columns of the items in id order, built on first access."""
        items = self.items_sorted()
        n = len(items)
        category_rows: dict[str, list[int]] = {}
        attribute_cells: dict[str, tuple[list[int], list[float]]] = {}
        for i, item in enumerate(items):
            for cat in item.categories:
                category_rows.setdefault(cat, []).append(i)
            for name, value in item.attributes.items():
                rows, values = attribute_cells.setdefault(name, ([], []))
                rows.append(i)
                values.append(value)
        incidence = {}
        for cat, rows in category_rows.items():
            incidence[cat] = np.zeros(n, dtype=bool)
            incidence[cat][rows] = True
        attributes = {}
        for name, (rows, values) in attribute_cells.items():
            attributes[name] = np.full(n, np.nan)
            attributes[name][rows] = values
        code_of = {p: c for c, p in enumerate(self._providers)}
        columns = CatalogColumns(
            incidence=incidence,
            popularity=np.array([it.popularity for it in items], dtype=float),
            sustainability=np.array([it.sustainability for it in items], dtype=float),
            attributes=attributes,
            provider_codes=np.array([code_of[it.provider_id] for it in items], dtype=np.intp),
        )
        # every caller shares these arrays, so none may write to them
        for array in (
            *incidence.values(),
            *attributes.values(),
            columns.popularity,
            columns.sustainability,
            columns.provider_codes,
        ):
            array.flags.writeable = False
        return columns

    def items_sorted(self) -> list[Item]:
        return [self._items[i] for i in self._sorted_ids]

    def provider_items(self, provider_id: str) -> tuple[str, ...]:
        return self._provider_index.get(provider_id, ())

    def provider_of(self, item_id: str) -> str:
        return self._items[item_id].provider_id


@dataclass(frozen=True)
class Constraint:
    """Threshold predicate over a numeric item attribute.

    ``attribute`` may be "popularity", "sustainability", or any key of
    ``Item.attributes``.  Items missing the attribute fail the constraint:
    an unverifiable claim is treated as a violation.
    """

    attribute: str
    direction: str  # "<=" or ">="
    value: float

    def __post_init__(self):
        if self.direction not in ("<=", ">="):
            raise ValueError(f"constraint direction must be '<=' or '>=', got {self.direction!r}")

    def satisfied_by(self, item: Item) -> bool:
        if self.attribute == "popularity":
            actual = item.popularity
        elif self.attribute == "sustainability":
            actual = item.sustainability
        else:
            actual = item.attributes.get(self.attribute)
            if actual is None:
                return False
        if self.direction == "<=":
            return actual <= self.value
        return actual >= self.value


@dataclass(frozen=True)
class Query:
    """A single personalization request."""

    id: str
    text: str = ""
    preference_weights: Mapping[str, float] = field(default_factory=dict)
    constraints: tuple[Constraint, ...] = ()
    user_history: tuple[str, ...] = ()
    top_n: int = 5

    def __post_init__(self):
        if self.top_n < 1:
            raise ValueError(f"query {self.id}: top_n must be >= 1, got {self.top_n}")
        weights = dict(self.preference_weights)
        for cat, w in weights.items():
            if not math.isfinite(w):
                raise ValueError(f"query {self.id}: non-finite weight for category {cat!r}")
            if w < 0:
                raise ValueError(f"query {self.id}: negative weight for category {cat!r}")
        object.__setattr__(self, "preference_weights", weights)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "user_history", tuple(self.user_history))

    def preference_categories(self) -> frozenset[str]:
        """Categories the query actually cares about (positive weight)."""
        return frozenset(c for c, w in self.preference_weights.items() if w > 0)


@dataclass(frozen=True)
class Ballot:
    """One agent's ranked candidate list, best first.

    A ballot fresh off an external adapter may still contain duplicates or
    unknown ids; ``validate_ballot`` produces the grounded form that enters
    aggregation.  ``weight`` carries the agent's reliability in [0, 1].
    """

    agent_id: str
    ranking: tuple[str, ...]
    justification: str | None = None
    weight: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"ballot weight {self.weight} outside [0, 1]")
        object.__setattr__(self, "ranking", tuple(self.ranking))


@dataclass(frozen=True)
class PreferenceProfile:
    """The weighted ballots entering aggregation for one query.

    ``pool`` is the union of all ballot items sorted by id; that order is the
    universal last-resort tie-break.  Build profiles with ``from_ballots``,
    which checks the invariants (distinct items per ballot, at least one
    positive weight).
    """

    ballots: tuple[Ballot, ...]
    pool: tuple[str, ...]

    @classmethod
    def from_ballots(cls, ballots: Sequence[Ballot]) -> "PreferenceProfile":
        ballots = tuple(ballots)
        for b in ballots:
            if len(set(b.ranking)) != len(b.ranking):
                raise ValueError(f"ballot from {b.agent_id} has duplicate items")
        if not any(b.weight > 0 for b in ballots):
            raise ValueError("profile needs at least one ballot with positive weight")
        return cls(ballots=ballots, pool=candidate_pool(ballots))

    def agent_ids(self) -> tuple[str, ...]:
        """Distinct voting agents, sorted."""
        return tuple(sorted({b.agent_id for b in self.ballots}))


@dataclass(frozen=True)
class TieEvent:
    """One tie encountered during aggregation and how it was resolved."""

    description: str
    resolution: str


@dataclass(frozen=True)
class AggregateResult:
    """Consensus ranking plus the audit trail of one aggregation run."""

    rule: str
    consensus: tuple[str, ...]
    influence: Mapping[str, float]
    tiebreak_trace: tuple[TieEvent, ...]
    scores: Mapping[str, float]


def validate_ballot(ballot: Ballot, catalog: Catalog) -> tuple[Ballot, int]:
    """Ground a ballot against the catalog.

    Keeps only items present in the catalog, preserving order and keeping the
    first occurrence of any duplicate.  Every removed id (unknown or
    duplicate) counts as one violation.

    Raises:
        EmptyAfterGrounding: if nothing survives, signalling an unusable
            agent response.
    """
    if len(catalog) == 0:
        raise ValueError("catalog must be non-empty")
    kept: list[str] = []
    seen: set[str] = set()
    violations = 0
    for item_id in ballot.ranking:
        if item_id in seen or item_id not in catalog:
            violations += 1
            continue
        seen.add(item_id)
        kept.append(item_id)
    if not kept:
        raise EmptyAfterGrounding(
            f"ballot from {ballot.agent_id}: no items survived grounding"
        )
    if violations == 0:
        return ballot, 0
    grounded = Ballot(
        agent_id=ballot.agent_id,
        ranking=tuple(kept),
        justification=ballot.justification,
        weight=ballot.weight,
    )
    return grounded, violations


def kendall_tau(a: Sequence[str], b: Sequence[str]) -> tuple[int, float]:
    """Kendall tau distance between two permutations of the same pool.

    Returns ``(count, normalized)`` where ``count`` is the number of unordered
    pairs the two rankings order oppositely and ``normalized`` divides by
    C(m, 2) (0.0 for a single-element pool).

    Raises:
        PoolMismatch: if the rankings are not permutations of one set.
    """
    if len(a) != len(b) or len(set(a)) != len(a) or set(a) != set(b):
        raise PoolMismatch(f"rankings cover different pools: {list(a)} vs {list(b)}")
    m = len(a)
    if m <= 1:
        return 0, 0.0
    pos_b = {item: i for i, item in enumerate(b)}
    count = 0
    for i in range(m):
        for j in range(i + 1, m):
            if pos_b[a[i]] > pos_b[a[j]]:
                count += 1
    return count, count / math.comb(m, 2)


def candidate_pool(ballots: Sequence[Ballot]) -> tuple[str, ...]:
    """Union of all ranked ids, sorted ascending (the global tie-break base).

    Raises:
        NoCandidates: if every ballot is empty.
    """
    if not ballots:
        raise ValueError("ballots must be non-empty")
    union: set[str] = set()
    for b in ballots:
        union.update(b.ranking)
    if not union:
        raise NoCandidates("all ballots are empty")
    return tuple(sorted(union))
