"""Core domain types plus the ranking-distance primitives everything else builds on.

All types are immutable values after construction and all operations are pure
functions apart from one memo: ``Catalog.derived`` keeps data computed from a
catalog (its hash, the adapter's candidate prefix, the mitigation order).
That is sound because a catalog never changes and every derived value is
immutable or read-only.  So all of it is safe to evaluate concurrently
without coordination.

A ``Catalog`` stores its items only as columns (``CatalogColumns``), built
once at construction by ``Catalog(items)`` or ``Catalog.from_codes``; the
``Item`` values it hands out are built from a row on each call.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import (
    DuplicateItemId,
    EmptyAfterGrounding,
    NoCandidates,
    PoolMismatch,
)

T = TypeVar("T")


class StakeholderRole(Enum):
    """The three core stakeholder classes an agent can represent."""

    USER = "user"
    PROVIDER = "provider"
    THIRD_PARTY = "third_party"


@dataclass(frozen=True)
class Item:
    """One catalog entry; the unit every recommendation is grounded in.

    ``popularity`` and ``sustainability`` are normalized to [0, 1];
    ``attributes`` holds any further named numeric facts (price, rating, ...),
    each finite.  The three are stored as floats, the values a catalog's
    float64 columns give back, so an item equals its row in any catalog.
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
        if not self.provider_id:
            raise ValueError(f"item {self.id}: provider id must be non-empty")
        _check_scores(self.id, self.popularity, self.sustainability)
        attributes = dict(self.attributes)
        for name, value in attributes.items():
            if type(value) is not float or not math.isfinite(value):
                attributes[name] = _finite(value, f"item {self.id}: attribute {name!r}")
        object.__setattr__(self, "attributes", attributes)
        # a catalog builds an item from every row it hands out, and its rows
        # hold floats and shared frozensets already: skip what would not change
        if type(self.categories) is not frozenset:
            object.__setattr__(self, "categories", frozenset(self.categories))
        if type(self.popularity) is not float:
            object.__setattr__(self, "popularity", float(self.popularity))
        if type(self.sustainability) is not float:
            object.__setattr__(self, "sustainability", float(self.sustainability))


def _check_scores(item_id: str, popularity: float, sustainability: float) -> None:
    """``ValueError`` naming item ``item_id`` unless both scores lie in [0, 1];
    NaN does not.  ``Item`` and both catalog loaders check each row here."""
    if not 0.0 <= popularity <= 1.0:
        raise ValueError(f"item {item_id}: popularity {popularity} outside [0, 1]")
    if not 0.0 <= sustainability <= 1.0:
        raise ValueError(f"item {item_id}: sustainability {sustainability} outside [0, 1]")


def _finite(value: float, what: str) -> float:
    """``value`` as a float, or ``ValueError`` naming ``what`` when it is NaN,
    infinite or an integer too large for a float."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{what}: {value!r} is not a finite number")
    return float(value)


@dataclass(frozen=True)
class CatalogColumns:
    """Every item field in catalog id order: numpy arrays for whole-catalog
    scans, a tuple of the descriptions, and one table of category sets.

    ``provider_codes[i]`` indexes ``Catalog.providers``.  ``sets`` holds
    each distinct category set of the items once, as one frozenset, in the
    order the items, in id order, first carry them; item i's categories are
    ``sets[set_codes[i]]`` (intp), and nothing else holds them.  So whatever
    depends only on an item's categories can be computed once per set.
    ``set_incidence[c][s]`` is True when ``sets[s]`` holds category c.
    ``attributes[a][i]`` is NaN when item i has no attribute a, so that
    every comparison with it is False; an attribute itself is never NaN.
    Every array is read-only.
    """

    provider_codes: np.ndarray
    set_codes: np.ndarray
    sets: tuple[frozenset[str], ...]
    set_incidence: Mapping[str, np.ndarray]
    popularity: np.ndarray
    sustainability: np.ndarray
    attributes: Mapping[str, np.ndarray]
    descriptions: tuple[str, ...]

    def constraint_values(self, attribute: str) -> np.ndarray | None:
        """The column ``Constraint.satisfied_by`` reads, None if no item has it."""
        if attribute == "popularity":
            return self.popularity
        if attribute == "sustainability":
            return self.sustainability
        return self.attributes.get(attribute)


class Catalog:
    """Immutable id-indexed collection of items, stored as columns.

    ``columns`` holds every item field in id order and is the only copy of
    the items: ``catalog[item_id]`` and ``items_sorted()`` build ``Item``
    values from it when called and keep none, so per-query code reads the
    columns by position (``positions``).  There are two constructors:
    ``Catalog(items)``, and ``Catalog.from_codes``, which takes a provider
    table and a category-set table with one code per row, as
    ``generate_catalog`` computes them.  The catalog loaders pass it the
    rows they decode, coded by ``_coded_rows`` as ``Catalog(items)`` codes
    its items.  Both run ``Item``'s checks on the columns, in ``_fill``.

    Data computed from the catalog, such as its hash, is computed on first
    use and kept by ``derived``; that is sound only because the catalog never
    changes after construction and every derived value is immutable or
    read-only.
    """

    def __init__(self, items: Iterable[Item]):
        self._fill(*_coded_rows(map(_ITEM_ROW, items)))

    @classmethod
    def from_codes(
        cls,
        ids: Sequence[str],
        providers: Sequence[str],
        provider_codes: Sequence[int],
        category_sets: Sequence[Iterable[str]],
        set_labels: Sequence[int],
        popularity: Sequence[float],
        sustainability: Sequence[float],
        attributes: Mapping[str, Sequence[float]],
        descriptions: Sequence[str],
    ) -> Catalog:
        """The catalog whose item ``r`` has field ``f`` at ``f[r]`` of each
        column, except two that are coded: its provider is
        ``providers[provider_codes[r]]`` and its categories are
        ``category_sets[set_labels[r]]``.

        Rows may come in any order.  An attribute column holds NaN where the
        item has no such attribute.  Either table may hold equal entries, and
        entries no row uses; the catalog keeps one of each value that some
        row uses.
        """
        catalog = cls.__new__(cls)
        catalog._fill(
            ids, providers, provider_codes, category_sets, set_labels, popularity,
            sustainability, attributes, descriptions,
        )
        return catalog

    def _fill(
        self,
        ids: Sequence[str],
        providers: Sequence[str],
        provider_codes: Sequence[int],
        category_sets: Sequence[Iterable[str]],
        set_labels: Sequence[int],
        popularity: Sequence[float],
        sustainability: Sequence[float],
        attributes: Mapping[str, Sequence[float]],
        descriptions: Sequence[str],
    ) -> None:
        """Sort the rows by id, check them as ``Item`` does, and store the
        columns; the two tables are read as ``from_codes`` says."""
        n = len(ids)
        order = sorted(range(n), key=ids.__getitem__)
        self._ids = tuple([ids[r] for r in order])
        self._position = dict(zip(self._ids, range(n)))
        if len(self._position) != n:
            seen: set[str] = set()
            for item_id in ids:
                if item_id in seen:
                    raise DuplicateItemId(f"duplicate item id: {item_id}")
                seen.add(item_id)
        if "" in self._position:
            raise ValueError("item id must be non-empty")
        rows = np.array(order, dtype=np.intp)
        popularity = np.asarray(popularity, dtype=float)[rows]
        sustainability = np.asarray(sustainability, dtype=float)[rows]
        for name, column in (("popularity", popularity), ("sustainability", sustainability)):
            outside = np.flatnonzero(~((column >= 0.0) & (column <= 1.0)))
            if outside.size:
                at = int(outside[0])
                raise ValueError(
                    f"item {self._ids[at]}: {name} {column.item(at)} outside [0, 1]"
                )
        attributes = {name: np.asarray(column, dtype=float)[rows]
                      for name, column in attributes.items()}
        for name, column in attributes.items():
            infinite = np.flatnonzero(np.isinf(column))
            if infinite.size:
                at = int(infinite[0])
                raise ValueError(
                    f"item {self._ids[at]}: attribute {name!r}: "
                    f"{column.item(at)!r} is not a finite number"
                )
        # each table entry some row uses is read once, and equal entries
        # merge: providers into their sorted order, category sets into one
        # frozenset each, the first met, numbered in the order the rows (in
        # id order) first use them, so that equal catalogs have equal columns
        codes = np.asarray(provider_codes, dtype=np.intp)[rows]
        used = np.flatnonzero(np.bincount(codes, minlength=len(providers))).tolist()
        names = [providers[t] for t in used]
        self._providers = tuple(sorted(set(names)))
        code_of = {p: c for c, p in enumerate(self._providers)}
        recode = np.zeros(len(providers), dtype=np.intp)
        recode[used] = [code_of[p] for p in names]
        codes = recode[codes]
        if self._providers[:1] == ("",):
            # "" sorts first, so its rows hold code 0
            at = int(np.flatnonzero(codes == 0)[0])
            raise ValueError(f"item {self._ids[at]}: provider id must be non-empty")
        labels = np.asarray(set_labels, dtype=np.intp)[rows]
        used = list(dict.fromkeys(labels.tolist()))
        label_of: dict[frozenset[str], int] = {}
        relabel = np.zeros(len(category_sets), dtype=np.intp)
        relabel[used] = [
            label_of.setdefault(frozenset(category_sets[t]), len(label_of)) for t in used
        ]
        labels = relabel[labels]
        sets = tuple(label_of)
        categories = sorted(set().union(*sets))
        row_of = dict(zip(categories, range(len(categories))))
        held = np.zeros((len(categories), len(sets)), dtype=bool)
        held[
            [row_of[c] for s in sets for c in s],
            [label for label, s in enumerate(sets) for _ in s],
        ] = True
        set_incidence = dict(zip(categories, held))
        self._columns = CatalogColumns(
            provider_codes=codes,
            set_codes=labels,
            sets=sets,
            set_incidence=set_incidence,
            popularity=popularity,
            sustainability=sustainability,
            attributes=attributes,
            descriptions=tuple([descriptions[r] for r in order]),
        )
        # every caller shares these arrays, so none may write to them
        for array in (
            codes, labels, *set_incidence.values(), popularity, sustainability,
            *attributes.values(),
        ):
            array.flags.writeable = False
        self._derived: dict[Callable[[Catalog], object], object] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._position

    def __getitem__(self, item_id: str) -> Item:
        """The item ``item_id``, built from its row; ``KeyError`` if absent."""
        return self._row(self._position[item_id])

    @property
    def ids(self) -> tuple[str, ...]:
        """All item ids, sorted ascending; an item's position is its index here."""
        return self._ids

    @property
    def providers(self) -> tuple[str, ...]:
        """The ids of the providers that own an item, sorted ascending."""
        return self._providers

    @property
    def columns(self) -> CatalogColumns:
        """Every item field, in id order."""
        return self._columns

    def positions(self, item_ids: Iterable[str]) -> list[int]:
        """The position in ``ids`` of each of ``item_ids``; ``KeyError`` for an unknown id."""
        position = self._position
        return [position[i] for i in item_ids]

    def derived(self, build: Callable[[Catalog], T]) -> T:
        """``build(self)``, computed on the first call for ``build`` and then kept.

        Racing first calls may each build it; ``setdefault`` gives all of them the first stored.
        """
        try:
            return self._derived[build]
        except KeyError:
            return self._derived.setdefault(build, build(self))

    def items_sorted(self) -> list[Item]:
        """Every item in id order, each built from its row."""
        return [self._row(pos) for pos in range(len(self._ids))]

    def provider_of(self, item_id: str) -> str:
        return self._providers[self._columns.provider_codes.item(self._position[item_id])]

    def _row(self, pos: int) -> Item:
        columns = self._columns
        attributes = {}
        for name, column in columns.attributes.items():
            value = column.item(pos)
            if not math.isnan(value):
                attributes[name] = value
        return Item(
            self._ids[pos],
            self._providers[columns.provider_codes.item(pos)],
            columns.sets[columns.set_codes.item(pos)],
            columns.popularity.item(pos),
            columns.sustainability.item(pos),
            attributes,
            columns.descriptions[pos],
        )


# an item's fields in the order ``_coded_rows`` reads a row
_ITEM_ROW = operator.attrgetter(
    "id", "provider_id", "categories", "popularity", "sustainability", "attributes", "description"
)


def _coded_rows(rows: Iterable[tuple]) -> tuple:
    """The arguments of ``Catalog.from_codes`` for ``rows`` of (id, provider
    id, categories, popularity, sustainability, attribute map, description).

    Both tables hold one entry per row, and row ``r`` takes entry ``r``.  An
    attribute column is NaN where a row's map lacks the attribute.
    """
    rows = list(rows)
    ids, providers, sets, popularity, sustainability, maps, descriptions = (
        zip(*rows) if rows else [()] * 7
    )
    columns: dict[str, np.ndarray] = {}
    for row, attributes in enumerate(maps):
        for name, value in attributes.items():
            if name not in columns:
                columns[name] = np.full(len(rows), np.nan)
            columns[name][row] = value
    each = np.arange(len(rows))
    return ids, providers, each, sets, each, popularity, sustainability, columns, descriptions


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
        _finite(self.value, f"constraint on {self.attribute!r}: value")

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


def left_sum(values: Iterable[float]) -> float:
    """Add floats left to right from 0.0, rounding after each addition.

    This is what builtin ``sum()`` did up to Python 3.11.  From 3.12 it
    compensates rounding and may differ in the last bit, so every float that
    reaches an output file is added here, and the bytes do not depend on the
    interpreter's minor version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


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
    pos_b = {item: i for i, item in enumerate(b)}
    m = len(a)
    if m != len(b) or len(pos_b) != m or pos_b.keys() != set(a):
        raise PoolMismatch(f"rankings cover different pools: {list(a)} vs {list(b)}")
    if m <= 1:
        return 0, 0.0
    # each item of ``a`` is discordant with every earlier one that ``b`` puts after it
    seen: list[int] = []
    count = 0
    for i, item in enumerate(a):
        pos = pos_b[item]
        count += i - bisect.bisect(seen, pos)
        bisect.insort(seen, pos)
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
