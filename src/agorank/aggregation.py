"""Consensus over weighted ballots: Borda, Copeland, Ranked Pairs, Kemeny.

Truncated-ballot semantics shared by every rule: the candidate pool is the
union of all ballot items; within one ballot, ranked items beat unranked
items; two unranked items are tied (contribute to neither side); for Borda,
each of a ballot's u unranked items receives the mean of the u lowest
position scores, preserving the ballot's total score mass.

Every tie anywhere resolves lexicographically by item id, and Ranked Pairs
orders equal margins by the (winner, loser) pair; resolutions are recorded
in the tiebreak trace so the consensus is auditable.
"""

from __future__ import annotations

import functools
import itertools
import random
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import NoCandidates
from .model import (
    AggregateResult,
    PreferenceProfile,
    TieEvent,
    candidate_pool,
    kendall_tau,
)


class Rule(Enum):
    BORDA = "borda"
    COPELAND = "copeland"
    RANKED_PAIRS = "ranked_pairs"
    KEMENY = "kemeny"


@dataclass(frozen=True)
class RuleConfig:
    """Aggregation settings.

    ``kemeny_exact_limit`` caps the pool size for exhaustive Kemeny search;
    larger pools fall back to a Borda-seeded adjacent-swap hill climb with
    ``kemeny_search_iters`` total passes and seeded restarts.  The restart
    order is a fixed function of (``seed``, pool size): the k-th restart
    reorders the pool the same way in every call with that seed and size.
    The search climbs every restart first and then prices all the local
    optima together; it returns the least (distance, ids) over every optimum
    it visited.  Within one query stream the visited optima are kept in a
    ``KemenyMemo`` keyed by (``seed``, ``kemeny_search_iters``, pool size,
    Borda start and strict-majority relation, both as positions); a repeat
    of that key skips the climbs, and its optima are priced again against
    the call's own tally.
    """

    rule: Rule = Rule.BORDA
    use_weights: bool = True
    kemeny_exact_limit: int = 8
    kemeny_search_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.kemeny_exact_limit < 2:
            raise ValueError("kemeny_exact_limit must be >= 2")
        if self.kemeny_search_iters < 1:
            raise ValueError("kemeny_search_iters must be >= 1")


@dataclass(frozen=True)
class PairwiseTally:
    """Weighted pairwise support: support[a][b] = weight preferring a over b."""

    pool: tuple[str, ...]
    support: Mapping[str, Mapping[str, float]]

    def margin(self, a: str, b: str) -> float:
        return self.support[a][b] - self.support[b][a]

    @functools.cached_property
    def against(self) -> dict[str, dict[str, float]]:
        """Transposed support: against[a][b] = support[b][a], built on first use."""
        support = self.support
        return {a: {b: support[b][a] for b in self.pool} for a in self.pool}


def pairwise_tally(profile: PreferenceProfile, use_weights: bool = True) -> PairwiseTally:
    """Tally weighted pairwise preferences under truncation semantics.

    A ballot supports a over b when it ranks both with a higher, or ranks a
    and omits b.  Omitting both counts for neither side.
    """
    pool = profile.pool
    support: dict[str, dict[str, float]] = {a: {b: 0.0 for b in pool} for a in pool}
    for ballot in profile.ballots:
        w = ballot.weight if use_weights else 1.0
        if w == 0.0:
            continue
        pos = {item: i for i, item in enumerate(ballot.ranking)}
        for a in pool:
            pa = pos.get(a)
            if pa is None:
                continue
            for b in pool:
                if a == b:
                    continue
                pb = pos.get(b)
                if pb is None or pa < pb:
                    support[a][b] += w
    return PairwiseTally(pool=pool, support=support)


def _score_tie_events(totals: Mapping[str, float], label: str) -> tuple[TieEvent, ...]:
    by_score: dict[float, list[str]] = {}
    for item, score in totals.items():
        by_score.setdefault(score, []).append(item)
    events = []
    for score in sorted(by_score, reverse=True):
        group = sorted(by_score[score])
        if len(group) > 1:
            events.append(
                TieEvent(
                    description=f"{label} score tie at {score:.6f}: {', '.join(group)}",
                    resolution="id order",
                )
            )
    return tuple(events)


def _borda_totals(profile: PreferenceProfile, use_weights: bool) -> dict[str, float]:
    pool = profile.pool
    m = len(pool)
    totals = {item: 0.0 for item in pool}
    for ballot in profile.ballots:
        w = ballot.weight if use_weights else 1.0
        if w == 0.0:
            continue
        ranked = set(ballot.ranking)
        for i, item in enumerate(ballot.ranking):
            totals[item] += w * (m - 1 - i)
        u = m - len(ranked)
        if u > 0:
            # the u lowest scores are 0..u-1; their mean preserves score mass
            fill = (u - 1) / 2.0
            for item in pool:
                if item not in ranked:
                    totals[item] += w * fill
    return totals


def rule_borda(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    """Positional scoring: rank i from the top earns m-1-i points, weighted."""
    totals = _borda_totals(profile, config.use_weights)
    consensus = tuple(sorted(totals, key=lambda item: (-totals[item], item)))
    return AggregateResult(
        rule=Rule.BORDA.value,
        consensus=consensus,
        influence={},
        tiebreak_trace=_score_tie_events(totals, "borda"),
        scores=totals,
    )


def rule_copeland(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    """Pairwise-majority scoring: wins count 1, ties count 0.5."""
    tally = pairwise_tally(profile, config.use_weights)
    scores: dict[str, float] = {}
    for a in tally.pool:
        wins = ties = 0
        for b in tally.pool:
            if a == b:
                continue
            m = tally.margin(a, b)
            if m > 0:
                wins += 1
            elif m == 0:
                ties += 1
        scores[a] = wins + 0.5 * ties
    consensus = tuple(sorted(scores, key=lambda item: (-scores[item], item)))
    return AggregateResult(
        rule=Rule.COPELAND.value,
        consensus=consensus,
        influence={},
        tiebreak_trace=_score_tie_events(scores, "copeland"),
        scores=scores,
    )


def _reaches(adj: Mapping[str, set[str]], start: str, goal: str) -> bool:
    stack = [start]
    seen = {start}
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def rule_ranked_pairs(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    """Lock positive margins from largest down, skipping cycle-creating pairs.

    Equal margins lock in (winner, loser) pair order; the consensus is the
    topological order of the locked graph, smallest available id first.
    """
    tally = pairwise_tally(profile, config.use_weights)
    pool = tally.pool
    trace: list[TieEvent] = []

    positive: list[tuple[float, str, str]] = []
    for a in pool:
        for b in pool:
            if a >= b:
                continue
            m = tally.margin(a, b)
            if m > 0:
                positive.append((m, a, b))
            elif m < 0:
                positive.append((-m, b, a))
            else:
                trace.append(
                    TieEvent(
                        description=f"pairwise tie {a} vs {b}",
                        resolution="neither locked",
                    )
                )
    positive.sort(key=lambda t: (-t[0], t[1], t[2]))

    by_margin: dict[float, list[tuple[str, str]]] = {}
    for m, a, b in positive:
        by_margin.setdefault(m, []).append((a, b))
    for m in sorted(by_margin, reverse=True):
        group = by_margin[m]
        if len(group) > 1:
            pairs = ", ".join(f"{a}>{b}" for a, b in group)
            trace.append(
                TieEvent(
                    description=f"equal margin {m:.6f}: {pairs}",
                    resolution="locked in pair order",
                )
            )

    adj: dict[str, set[str]] = {item: set() for item in pool}
    for m, a, b in positive:
        if _reaches(adj, b, a):
            trace.append(
                TieEvent(
                    description=f"skipped {a}>{b} (margin {m:.6f}): would create cycle",
                    resolution="pair discarded",
                )
            )
            continue
        adj[a].add(b)

    indegree = {item: 0 for item in pool}
    for a in pool:
        for b in adj[a]:
            indegree[b] += 1
    consensus: list[str] = []
    available = sorted(item for item in pool if indegree[item] == 0)
    while available:
        node = available.pop(0)
        consensus.append(node)
        changed = False
        for b in sorted(adj[node]):
            indegree[b] -= 1
            if indegree[b] == 0:
                available.append(b)
                changed = True
        if changed:
            available.sort()

    scores = {item: float(len(adj[item])) for item in pool}
    return AggregateResult(
        rule=Rule.RANKED_PAIRS.value,
        consensus=tuple(consensus),
        influence={},
        tiebreak_trace=tuple(trace),
        scores=scores,
    )


def kemeny_distance(ranking: Sequence[str], tally: PairwiseTally) -> float:
    """Total weighted disagreement of a ranking with the tallied ballots.

    Each ordered pair (a before b) in the ranking costs the weight of ballots
    preferring b over a; this equals the weighted Kendall distance summed
    over ballots under truncation semantics.  This is the scalar reference:
    ``_kemeny_distances`` prices many rankings at once with the same
    additions in this same order, so both give equal floats.
    """
    against = tally.against
    total = 0.0
    for i, a in enumerate(ranking):
        row = against[a]
        for b in ranking[i + 1 :]:
            total += row[b]
    return total


# terms priced per block: the index and term arrays of a block hold at most
# this many elements each, whatever the pool size or the pass budget
_PRICE_TERMS = 1 << 16


def _kemeny_distances(rows: np.ndarray, against: np.ndarray) -> np.ndarray:
    """``kemeny_distance`` of each row of positions, equal bit for bit.

    The terms ``against[r[i], r[j]]`` are gathered in the scalar loop's
    row-major (i, j > i) order and added one pair at a time to a running
    total that starts at 0.0, so each row gets the same IEEE additions in
    the same order.  A reduction (``np.sum``, ``@``) would reassociate them.
    """
    m = rows.shape[1]
    first, second = np.triu_indices(m, 1)
    # one flat index into against per (pair, row): a single take, not a 2-D gather
    positions = np.ascontiguousarray(rows.T, dtype=np.intp)
    flat = (positions * m)[first]
    flat += positions[second]
    terms = against.take(flat)
    dist = np.zeros(len(rows))
    for term in terms:
        dist += term
    return dist


def _climb(order: list[int], ahead: Sequence[set[int]], budget: int) -> int:
    """Adjacent-swap hill climb in place; returns passes consumed.

    ``order`` holds item positions.  ``ahead[a]`` holds the positions of the
    items a strict weighted majority ranks above item a; a pair (a, b) swaps
    when b is one of them.
    """
    used = 0
    improved = True
    while improved and used < budget:
        improved = False
        used += 1
        for i in range(len(order) - 1):
            a, b = order[i], order[i + 1]
            if b in ahead[a]:
                order[i], order[i + 1] = b, a
                improved = True
    return used


class _RestartSchedule:
    """The shuffles a fresh ``random.Random(seed)`` makes of n-item lists.

    Fisher-Yates picks its swap positions without reading the list, so the
    k-th ``rng.shuffle(x)`` always turns x into ``[x[p] for p in orders[k]]``.
    Orders are drawn on first use and kept; ``orders`` only ever grows.
    An order is stored as bytes, a quarter of a tuple's size, whenever its
    positions fit in one byte.
    """

    def __init__(self, seed: int, n: int):
        self._rng = random.Random(seed)
        self._n = n
        self._lock = threading.Lock()
        self.orders: list[Sequence[int]] = []

    def order(self, k: int) -> Sequence[int]:
        orders = self.orders
        if k >= len(orders):
            with self._lock:
                while k >= len(orders):
                    order = list(range(self._n))
                    self._rng.shuffle(order)
                    orders.append(bytes(order) if self._n <= 256 else tuple(order))
        return orders[k]


# one schedule per (seed, pool size), each holding at most kemeny_search_iters orders
@functools.lru_cache(maxsize=64)
def _restart_schedule(seed: int, n: int) -> _RestartSchedule:
    return _RestartSchedule(seed, n)


def _local_optima(
    order: list[int], ahead: Sequence[set[int]], schedule: _RestartSchedule, budget: int
) -> Iterator[list[int]]:
    """Climb, then restart from the schedule's next reordering, until the budget is spent.

    Each optimum is yielded as its own list; no later step mutates it.
    """
    restarts = 0
    while budget > 0:
        budget -= _climb(order, ahead, budget)
        yield order
        if budget > 0:
            order = [order[p] for p in schedule.order(restarts)]
            restarts += 1


# bytes of visited optima one KemenyMemo stores; the oldest entries go first
_OPTIMA_MEMO_BYTES = 8 << 20


class KemenyMemo:
    """The local optima the Kemeny restart search visited, for one query stream.

    ``_local_optima`` reads only the Borda start and the strict-majority
    relation, both as positions in the sorted pool, the restart schedule of
    (seed, pool size) and the pass budget.  A key holds exactly these, so the
    optima stored under it are the ones the climbs would visit again.  They
    are stored as positions (``uint8`` up to 256 items, ``uint16`` above),
    never as ids, distances or a pick: each call prices them against its own
    tally.  Stored rows are capped at ``_OPTIMA_MEMO_BYTES``, oldest entries
    evicted first; a search whose optima alone exceed the cap is not stored.

    A ``FairnessLedger`` carries one memo per stream; ``aggregate`` called
    without one makes a fresh memo for that call.  A memo is not meant to be
    shared between threads.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple, np.ndarray] = {}
        self.nbytes = 0

    def get(self, key: tuple) -> np.ndarray | None:
        return self._rows.get(key)

    def recording(self, key: tuple, blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Yield ``blocks``; once they run out, store them under ``key`` if they fit."""
        kept: list[np.ndarray] = []
        nbytes = 0
        for block in blocks:
            nbytes += block.nbytes
            if nbytes <= _OPTIMA_MEMO_BYTES:
                kept.append(block)
            yield block
        if nbytes <= _OPTIMA_MEMO_BYTES:
            self._rows[key] = np.concatenate(kept)
            self.nbytes += nbytes
            while self.nbytes > _OPTIMA_MEMO_BYTES:
                self.nbytes -= self._rows.pop(next(iter(self._rows))).nbytes


def _block_rows(m: int) -> int:
    """Rankings of m items per pricing block: at most ``_PRICE_TERMS`` terms."""
    return max(1, _PRICE_TERMS // max(1, m * (m - 1) // 2))


def _row_blocks(rows: Iterable[Sequence[int]], m: int, dtype: type) -> Iterator[np.ndarray]:
    """Rows of m positions, gathered into 2-D blocks of ``_block_rows(m)`` rows."""
    size = _block_rows(m)
    pending = iter(rows)
    while chunk := list(itertools.islice(pending, size)):
        flat = itertools.chain.from_iterable(chunk)
        yield np.fromiter(flat, dtype=dtype, count=len(chunk) * m).reshape(len(chunk), m)


def _against(items: Sequence[str], tally: PairwiseTally) -> np.ndarray:
    """against[a, b] = support[b][a], over positions in ``items``."""
    support = tally.support
    return np.array([[support[b][a] for b in items] for a in items], dtype=np.float64)


def _least_ranking(blocks: Iterable[np.ndarray], against: np.ndarray) -> tuple[list[int], int]:
    """The least (distance, positions) over the blocks' rows, and how many share that distance.

    Positions index the sorted pool, so comparing positions compares ids.
    Blocks are priced as they arrive and the best is carried from block to
    block; this equals scanning the rows one by one with
    ``d < best_dist or (d == best_dist and row < best)``.
    """
    best: list[int] | None = None
    best_dist = float("inf")
    n_min = 0
    for block in blocks:
        dist = _kemeny_distances(block, against)
        low = dist.min()
        if low > best_dist:
            continue
        tied = block[dist == low]
        least = min(tied.tolist())
        if low < best_dist:
            best, best_dist, n_min = least, low, len(tied)
        else:
            best, n_min = min(best, least), n_min + len(tied)
    assert best is not None
    return best, n_min


def _kemeny_exact(
    pool: tuple[str, ...], tally: PairwiseTally
) -> tuple[tuple[str, ...], float, int]:
    """Price every permutation of the sorted pool.

    Permutations come in lexicographic order, so the least optimum is also
    the first one a scan meets.  ``n_min`` counts the permutations at the
    minimum distance.
    """
    items = tuple(sorted(pool))
    m = len(items)
    blocks = _row_blocks(itertools.permutations(range(m)), m, np.intp)
    best, n_min = _least_ranking(blocks, _against(items, tally))
    consensus = tuple(items[p] for p in best)
    return consensus, kemeny_distance(consensus, tally), n_min


def _kemeny_heuristic(
    profile: PreferenceProfile,
    config: RuleConfig,
    tally: PairwiseTally,
    memo: KemenyMemo | None = None,
) -> tuple[tuple[str, ...], float]:
    """Climb every restart first, then price all the local optima together.

    No climb or restart reads a distance, so the restarts run as a scan would
    run them; the pick is the least (distance, ids) over every optimum visited.
    The optima come from ``memo`` when it holds this search's key, and are
    priced against this call's tally either way.
    """
    items = tuple(sorted(tally.pool))
    m = len(items)
    against = _against(items, tally)
    # ahead[a, b]: a strict weighted majority ranks b above a
    ahead = against > against.T
    position = {item: p for p, item in enumerate(items)}
    start = [position[item] for item in rule_borda(profile, config).consensus]
    dtype = np.uint8 if m <= 256 else np.uint16
    key = (
        config.seed,
        config.kemeny_search_iters,
        m,
        np.array(start, dtype=dtype).tobytes(),
        np.packbits(ahead).tobytes(),
    )
    memo = KemenyMemo() if memo is None else memo
    rows = memo.get(key)
    if rows is None:
        ahead_sets = [set(np.flatnonzero(row).tolist()) for row in ahead]
        schedule = _restart_schedule(config.seed, m)
        optima = _local_optima(start, ahead_sets, schedule, config.kemeny_search_iters)
        blocks = memo.recording(key, _row_blocks(optima, m, dtype))
    else:
        size = _block_rows(m)
        blocks = (rows[i : i + size] for i in range(0, len(rows), size))
    best, _ = _least_ranking(blocks, against)
    consensus = tuple(items[p] for p in best)
    return consensus, kemeny_distance(consensus, tally)


def rule_kemeny(
    profile: PreferenceProfile, config: RuleConfig, memo: KemenyMemo | None = None
) -> AggregateResult:
    """Kendall-distance minimization, exact up to the configured pool size.

    Exact search prices permutations in lexicographic order and keeps the
    first strict minimizer, so ties resolve to the lexicographically least
    optimum.  Larger pools use the seeded local search and are tagged
    "kemeny-heuristic" in the result: it climbs every restart first, then
    prices the local optima together and keeps the least (distance, ids)
    over all of them.  ``memo`` keeps the optima each search visited, keyed
    by (seed, pass budget, pool size, Borda start, strict-majority
    relation); a call whose key is there skips the climbs and prices the
    stored optima against its own tally, so a hit reuses no distance and no
    pick.  Without a memo the call uses a fresh one.  Both searches price
    rankings in blocks with the additions of ``kemeny_distance``, the
    scalar reference, in its order.
    """
    tally = pairwise_tally(profile, config.use_weights)
    pool = tally.pool
    trace: list[TieEvent] = []
    if len(pool) <= config.kemeny_exact_limit:
        consensus, dist, n_min = _kemeny_exact(pool, tally)
        rule_name = Rule.KEMENY.value
        if n_min > 1:
            trace.append(
                TieEvent(
                    description=(
                        f"{n_min} permutations at minimum distance {dist:.6f}"
                    ),
                    resolution="lexicographically least selected",
                )
            )
    else:
        consensus, dist = _kemeny_heuristic(profile, config, tally, memo)
        rule_name = Rule.KEMENY.value + "-heuristic"
    m = len(pool)
    scores = {item: float(m - 1 - i) for i, item in enumerate(consensus)}
    return AggregateResult(
        rule=rule_name,
        consensus=consensus,
        influence={},
        tiebreak_trace=tuple(trace),
        scores=scores,
    )


_RULES = {
    Rule.BORDA: rule_borda,
    Rule.COPELAND: rule_copeland,
    Rule.RANKED_PAIRS: rule_ranked_pairs,
}


def _run_rule(
    profile: PreferenceProfile, config: RuleConfig, memo: KemenyMemo
) -> AggregateResult:
    if config.rule is Rule.KEMENY:
        return rule_kemeny(profile, config, memo)
    return _RULES[config.rule](profile, config)


def influence_loo(
    profile: PreferenceProfile,
    config: RuleConfig,
    consensus: Sequence[str],
    memo: KemenyMemo | None = None,
) -> dict[str, float]:
    """Leave-one-out influence per agent, in [0, 1].

    Influence is the normalized Kendall distance between the consensus and
    the consensus recomputed without the agent's ballots, restricted to the
    surviving pool.  A single-agent profile gets 1.0 by convention; so does
    an agent whose removal empties the profile.  Every recomputation shares
    ``memo`` (a fresh one when none is given).
    """
    agents = sorted({b.agent_id for b in profile.ballots})
    if len(agents) == 1:
        return {agents[0]: 1.0}
    memo = KemenyMemo() if memo is None else memo
    influence: dict[str, float] = {}
    for agent in agents:
        remaining = tuple(b for b in profile.ballots if b.agent_id != agent)
        try:
            sub_pool = candidate_pool(remaining)
        except (NoCandidates, ValueError):
            influence[agent] = 1.0
            continue
        # bare constructor: a leave-one-out profile may hold only
        # zero-weight ballots, which from_ballots rightly rejects
        sub_profile = PreferenceProfile(ballots=remaining, pool=sub_pool)
        sub_consensus = _run_rule(sub_profile, config, memo).consensus
        common = set(sub_pool)
        restricted = tuple(item for item in consensus if item in common)
        _, normalized = kendall_tau(restricted, sub_consensus)
        influence[agent] = normalized
    return influence


def aggregate(
    profile: PreferenceProfile, config: RuleConfig, memo: KemenyMemo | None = None
) -> AggregateResult:
    """Run the configured rule and attach leave-one-out influence.

    ``memo`` carries the Kemeny search's visited optima from call to call;
    a ``FairnessLedger`` passes its own, one per stream.  Without one, the
    rule and its leave-one-out runs share a fresh memo for this call only.
    """
    memo = KemenyMemo() if memo is None else memo
    result = _run_rule(profile, config, memo)
    return replace(result, influence=influence_loo(profile, config, result.consensus, memo))
