"""Consensus over weighted ballots: Borda, Copeland, Ranked Pairs, Kemeny.

Truncated-ballot semantics shared by every rule: the candidate pool is the
union of all ballot items; within one ballot, ranked items beat unranked
items; two unranked items are tied (contribute to neither side); for Borda,
each of a ballot's u unranked items receives the mean of the u lowest
position scores, preserving the ballot's total score mass.

Every rule reads each weight rounded to a multiple of 2^-24, so its sums
are exact in any ballot order.  Copeland, Ranked Pairs and Kemeny read one
``PairwiseTally`` per profile: an m×m support matrix over the sorted pool.
Each rule has one body, which records tie events only when it is given a
trace; leave-one-out influence runs the same bodies without one and keeps
only the consensus.

Every tie anywhere resolves lexicographically by item id, and Ranked Pairs
orders equal margins by the (winner, loser) pair; resolutions are recorded
in the tiebreak trace so the consensus is auditable.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
import threading
from dataclasses import dataclass
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
    it visited.  Within one query stream a ``KemenyMemo`` keeps the visited
    optima under (``seed``, ``kemeny_search_iters``, pool size,
    strict-majority relation in Borda-start coordinates), priced again
    against each call's own tally, and each pick under (``seed``,
    ``kemeny_search_iters``, Borda start, tally).
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


# eq=False: a generated __eq__ would compare the arrays elementwise and fail
@dataclass(frozen=True, eq=False)
class PairwiseTally:
    """Weighted pairwise support over the sorted pool.

    ``matrix[i, j]`` is the weight of the ballots preferring ``pool[i]`` over
    ``pool[j]``: margins are ``matrix - matrix.T``, and ``matrix.T[i, j]`` is
    what placing ``pool[i]`` before ``pool[j]`` costs in Kemeny distance.
    """

    pool: tuple[str, ...]
    matrix: np.ndarray


def pairwise_tally(profile: PreferenceProfile, use_weights: bool = True) -> PairwiseTally:
    """Tally weighted pairwise preferences under truncation semantics.

    A ballot supports a over b when it ranks both with a higher, or ranks a
    and omits b.  Omitting both counts for neither side.  Each ballot adds
    its weight, rounded to a multiple of 2^-24, to every cell it supports:
    below 2^29 ballots every cell is then an exact sum, the same in any
    ballot order.  A leave-one-out profile is tallied from its own ballots.
    """
    pool = profile.pool
    m = len(pool)
    index = {item: i for i, item in enumerate(pool)}
    support = np.zeros((m, m))
    # rank[i]: where the ballot ranks pool[i], m when it omits it
    rank = np.empty(m, dtype=np.intp)
    for ballot in profile.ballots:
        w = round(ballot.weight * 2**24) / 2**24 if use_weights else 1.0
        if w == 0.0:
            continue
        rank.fill(m)
        rank[[index[item] for item in ballot.ranking]] = range(len(ballot.ranking))
        np.add(support, w, out=support, where=rank[:, None] < rank[None, :])
    return PairwiseTally(pool=pool, matrix=support)


def _borda_totals(profile: PreferenceProfile, use_weights: bool) -> dict[str, float]:
    pool = profile.pool
    m = len(pool)
    totals = dict.fromkeys(pool, 0.0)
    # each item's additions come in ballot order, whatever the order over items
    unranked_of = set(pool).difference
    for ballot in profile.ballots:
        w = round(ballot.weight * 2**24) / 2**24 if use_weights else 1.0
        if w == 0.0:
            continue
        for points, item in enumerate(reversed(ballot.ranking), m - len(ballot.ranking)):
            totals[item] += w * points
        u = m - len(ballot.ranking)
        if u > 0:
            # the u lowest scores are 0..u-1; their mean preserves score mass
            fill = w * ((u - 1) / 2.0)
            for item in unranked_of(ballot.ranking):
                totals[item] += fill
    return totals


def _by_score(
    scores: Mapping[str, float], label: str, trace: list[TieEvent] | None
) -> tuple[str, tuple[str, ...], Mapping[str, float]]:
    """Highest score first, ties by id; each group of equal scores goes to ``trace``."""
    # a stable sort keeps the id order of equal scores, reverse=True included
    order = tuple(sorted(sorted(scores), key=scores.__getitem__, reverse=True))
    if trace is not None:
        for score, group in itertools.groupby(order, key=scores.__getitem__):
            group = list(group)
            if len(group) > 1:
                trace.append(
                    TieEvent(
                        description=f"{label} score tie at {score:.6f}: {', '.join(group)}",
                        resolution="id order",
                    )
                )
    return label, order, scores


def _borda(profile, config, memo, trace):
    return _by_score(_borda_totals(profile, config.use_weights), Rule.BORDA.value, trace)


def _copeland(profile, config, memo, trace):
    tally = pairwise_tally(profile, config.use_weights)
    margins = tally.matrix - tally.matrix.T
    # the diagonal is a zero margin but no pair
    score = (margins > 0).sum(axis=1) + 0.5 * ((margins == 0).sum(axis=1) - 1)
    return _by_score(dict(zip(tally.pool, score.tolist())), Rule.COPELAND.value, trace)


def _result(
    body,
    profile: PreferenceProfile,
    config: RuleConfig,
    memo: KemenyMemo | None = None,
    with_influence: bool = False,
) -> AggregateResult:
    """Run a rule body with a trace and wrap what it returns.

    A body takes (profile, config, memo, trace) and returns (rule label,
    consensus, scores).  It appends its tie events to ``trace``, and builds
    none when ``trace`` is None, as the leave-one-out reruns and Kemeny's
    Borda start call it.  With ``with_influence`` the result carries
    ``influence_loo`` of the consensus, which shares ``memo``.
    """
    trace: list[TieEvent] = []
    rule, consensus, scores = body(profile, config, memo, trace)
    return AggregateResult(
        rule=rule,
        consensus=consensus,
        influence=influence_loo(profile, config, consensus, memo) if with_influence else {},
        tiebreak_trace=tuple(trace),
        scores=scores,
    )


def rule_borda(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    """Positional scoring: rank i from the top earns m-1-i points, weighted."""
    return _result(_borda, profile, config)


def rule_copeland(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    """Pairwise-majority scoring: wins count 1, ties count 0.5."""
    return _result(_copeland, profile, config)


def _reaches(adj: Sequence[set[int]], start: int, goal: int) -> bool:
    stack = [start]
    seen = {start}
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _ranked_pairs(profile, config, memo, trace):
    tally = pairwise_tally(profile, config.use_weights)
    pool = tally.pool
    m = len(pool)
    margins = (tally.matrix - tally.matrix.T).tolist()
    # (-margin, winner, loser) in pool positions, which order as the ids do;
    # pairs a < b are met in row-major order
    ranked: list[tuple[float, int, int]] = []
    for a, row in enumerate(margins):
        for b in range(a + 1, m):
            d = row[b]
            if d > 0:
                ranked.append((-d, a, b))
            elif d < 0:
                ranked.append((d, b, a))
            elif trace is not None:
                trace.append(
                    TieEvent(
                        description=f"pairwise tie {pool[a]} vs {pool[b]}",
                        resolution="neither locked",
                    )
                )
    ranked.sort()

    if trace is not None:
        for neg, group in itertools.groupby(ranked, key=lambda t: t[0]):
            pairs = [f"{pool[a]}>{pool[b]}" for _, a, b in group]
            if len(pairs) > 1:
                trace.append(
                    TieEvent(
                        description=f"equal margin {-neg:.6f}: {', '.join(pairs)}",
                        resolution="locked in pair order",
                    )
                )

    adj: list[set[int]] = [set() for _ in pool]
    for neg, a, b in ranked:
        if not _reaches(adj, b, a):
            adj[a].add(b)
        elif trace is not None:
            pair = f"{pool[a]}>{pool[b]} (margin {-neg:.6f})"
            trace.append(
                TieEvent(
                    description=f"skipped {pair}: would create cycle",
                    resolution="pair discarded",
                )
            )

    indegree = [0] * m
    for targets in adj:
        for b in targets:
            indegree[b] += 1
    # the smallest available position first
    available = [a for a in range(m) if indegree[a] == 0]
    consensus: list[str] = []
    while available:
        a = heapq.heappop(available)
        consensus.append(pool[a])
        for b in adj[a]:
            indegree[b] -= 1
            if indegree[b] == 0:
                heapq.heappush(available, b)

    scores = {item: float(len(targets)) for item, targets in zip(pool, adj)}
    return Rule.RANKED_PAIRS.value, tuple(consensus), scores


def rule_ranked_pairs(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    """Lock positive margins from largest down, skipping cycle-creating pairs.

    Equal margins lock in (winner, loser) pair order; the consensus is the
    topological order of the locked graph, smallest available id first.
    """
    return _result(_ranked_pairs, profile, config)


def kemeny_distance(ranking: Sequence[str], tally: PairwiseTally) -> float:
    """Total weighted disagreement of a ranking with the tallied ballots.

    Each ordered pair (a before b) in the ranking costs the weight of ballots
    preferring b over a; this equals the weighted Kendall distance summed
    over ballots under truncation semantics.  This is the scalar reference:
    ``_kemeny_distances`` prices many rankings at once with the same
    additions in this same order, so both give equal floats.
    """
    index = {item: i for i, item in enumerate(tally.pool)}
    positions = [index[item] for item in ranking]
    support = tally.matrix.tolist()
    total = 0.0
    for i, a in enumerate(positions):
        for b in positions[i + 1 :]:
            total += support[b][a]
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


# bytes one KemenyMemo stores, keys included; the oldest entries go first
_OPTIMA_MEMO_BYTES = 8 << 20


def _key_bytes(key: tuple) -> int:
    return sum(len(part) for part in key if isinstance(part, bytes))


class KemenyMemo:
    """What the Kemeny restart search found, for one query stream.

    It holds two kinds of entry, both exact:

    - *Optima*, keyed by (seed, pass budget, pool size, strict-majority
      relation in Borda-start coordinates).  Relabelling the pool so that
      the Borda order reads 0, 1, ..., m-1 changes nothing a climb or a
      restart does: a climb reads only the relation, and a restart permutes
      slots by the schedule of (seed, pool size).  So every profile whose
      relation reads the same in its own Borda order visits the same optima
      in those coordinates.  They are stored as rows of them (``uint8`` up to
      256 items, ``uint16`` above) and each call maps them back through its
      own Borda start and prices them against its own tally.
    - *Picks*, keyed by (seed, pass budget, Borda start as sorted-pool
      positions, against matrix as bytes).  The pick, the least (distance,
      ids) over the optima, is a function of exactly these, so a repeat
      skips the climbs and the pricing.  It is stored as sorted-pool
      positions, never as ids.

    The two key shapes never collide: the third part is the pool size (an
    int) in one and the start (bytes) in the other.  An entry costs its
    array plus the bytes of its key; all entries together
    are capped at ``_OPTIMA_MEMO_BYTES``, oldest evicted first, and an entry
    that alone exceeds the cap is not stored.  A ``FairnessLedger`` carries
    one memo per stream; ``aggregate`` called without one makes a fresh memo
    for that call.  A memo is not meant to be shared between threads.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, np.ndarray] = {}
        self.nbytes = 0

    def get(self, key: tuple) -> np.ndarray | None:
        return self._entries.get(key)

    def put(self, key: tuple, value: np.ndarray) -> None:
        """Store ``value`` under a key not yet held, if it fits; evict the oldest to make room."""
        nbytes = _key_bytes(key) + value.nbytes
        if nbytes > _OPTIMA_MEMO_BYTES:
            return
        self._entries[key] = value
        self.nbytes += nbytes
        while self.nbytes > _OPTIMA_MEMO_BYTES:
            old = next(iter(self._entries))
            self.nbytes -= _key_bytes(old) + self._entries.pop(old).nbytes

    def recording(self, key: tuple, blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Yield ``blocks``; once they run out, store them under ``key`` if they fit."""
        kept: list[np.ndarray] = []
        nbytes = _key_bytes(key)
        for block in blocks:
            nbytes += block.nbytes
            if nbytes <= _OPTIMA_MEMO_BYTES:
                kept.append(block)
            yield block
        if nbytes <= _OPTIMA_MEMO_BYTES:
            self.put(key, np.concatenate(kept))


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


def _least_ranking(
    blocks: Iterable[np.ndarray], against: np.ndarray
) -> tuple[list[int], float, int]:
    """The row least by (distance, positions) over the blocks, its distance,
    and how many rows share that distance.

    The distance is the float ``kemeny_distance`` gives that row, bit for
    bit.  Positions index the sorted pool, so comparing positions compares ids.
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
    return best, float(best_dist), n_min


def _kemeny_exact(tally: PairwiseTally) -> tuple[tuple[str, ...], float, int]:
    """Price every permutation of the sorted pool.

    Permutations come in lexicographic order, so the least optimum is also
    the first one a scan meets.  ``n_min`` counts the permutations at the
    minimum distance.
    """
    m = len(tally.pool)
    blocks = _row_blocks(itertools.permutations(range(m)), m, np.intp)
    best, dist, n_min = _least_ranking(blocks, np.ascontiguousarray(tally.matrix.T))
    return tuple(tally.pool[p] for p in best), dist, n_min


def _kemeny_heuristic(
    profile: PreferenceProfile,
    config: RuleConfig,
    tally: PairwiseTally,
    memo: KemenyMemo | None = None,
) -> tuple[tuple[str, ...], float]:
    """Climb every restart first, then price all the local optima together.

    No climb or restart reads a distance, so the restarts run as a scan would
    run them; the pick is the least (distance, ids) over every optimum visited.
    The climbs run in Borda-start coordinates, from 0, 1, ..., m-1, and their
    optima are mapped back through the start before pricing.  ``memo`` may
    hold this call's pick, or the optima of its relation (see ``KemenyMemo``).
    """
    items = tally.pool
    m = len(items)
    against = np.ascontiguousarray(tally.matrix.T)
    position = {item: p for p, item in enumerate(items)}
    dtype = np.uint8 if m <= 256 else np.uint16
    _, borda, _ = _borda(profile, config, None, None)
    start = np.array([position[item] for item in borda], dtype=dtype)
    search = (config.seed, config.kemeny_search_iters)
    pick_key = (*search, start.tobytes(), against.tobytes())
    memo = KemenyMemo() if memo is None else memo
    best = memo.get(pick_key)
    if best is None:
        # rel[i, j]: a strict weighted majority ranks the j-th Borda item above the i-th
        rel = (against > against.T)[np.ix_(start, start)]
        key = (*search, m, np.packbits(rel).tobytes())
        rows = memo.get(key)
        if rows is None:
            rel_sets = [set(np.flatnonzero(row).tolist()) for row in rel]
            schedule = _restart_schedule(config.seed, m)
            optima = _local_optima(list(range(m)), rel_sets, schedule, config.kemeny_search_iters)
            blocks = memo.recording(key, _row_blocks(optima, m, dtype))
        else:
            size = _block_rows(m)
            blocks = (rows[i : i + size] for i in range(0, len(rows), size))
        least, _, _ = _least_ranking((start[block] for block in blocks), against)
        best = np.array(least, dtype=dtype)
        memo.put(pick_key, best)
    consensus = tuple(items[p] for p in best.tolist())
    return consensus, kemeny_distance(consensus, tally)


def _kemeny(profile, config, memo, trace):
    tally = pairwise_tally(profile, config.use_weights)
    if len(tally.pool) <= config.kemeny_exact_limit:
        consensus, dist, n_min = _kemeny_exact(tally)
        rule_name = Rule.KEMENY.value
        if n_min > 1 and trace is not None:
            trace.append(
                TieEvent(
                    description=f"{n_min} permutations at minimum distance {dist:.6f}",
                    resolution="lexicographically least selected",
                )
            )
    else:
        consensus, _ = _kemeny_heuristic(profile, config, tally, memo)
        rule_name = Rule.KEMENY.value + "-heuristic"
    m = len(consensus)
    return rule_name, consensus, {item: float(m - 1 - i) for i, item in enumerate(consensus)}


def rule_kemeny(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    """Kendall-distance minimization, exact up to the configured pool size.

    Exact search prices permutations in lexicographic order and keeps the
    first strict minimizer, so ties resolve to the lexicographically least
    optimum.  Larger pools use the seeded local search and are tagged
    "kemeny-heuristic" in the result: it climbs every restart first, then
    prices the local optima together and keeps the least (distance, ids)
    over all of them.  Each call searches with a fresh ``KemenyMemo``;
    ``aggregate`` takes a memo that carries the searches of a stream from
    query to query.  Both searches price rankings in blocks with the
    additions of ``kemeny_distance``, the scalar reference, in its order.
    """
    return _result(_kemeny, profile, config)


# one body per rule; ``_result`` describes what a body takes and returns
_RULES = {
    Rule.BORDA: _borda,
    Rule.COPELAND: _copeland,
    Rule.RANKED_PAIRS: _ranked_pairs,
    Rule.KEMENY: _kemeny,
}


def influence_loo(
    profile: PreferenceProfile,
    config: RuleConfig,
    consensus: Sequence[str],
    memo: KemenyMemo | None = None,
) -> dict[str, float]:
    """Leave-one-out influence per agent, in [0, 1].

    Influence is the normalized Kendall distance between the consensus and
    the consensus recomputed without the agent's ballots, restricted to the
    surviving pool.  Each recomputation tallies the remaining ballots afresh
    and runs the rule's body without a trace, so it builds no tie events
    and keeps only the consensus.  A single-agent profile gets 1.0 by
    convention; so does an agent whose removal empties the profile.  Every
    recomputation shares ``memo`` (a fresh one when none is given).
    """
    agents = profile.agent_ids()
    if len(agents) == 1:
        return {agents[0]: 1.0}
    memo = KemenyMemo() if memo is None else memo
    body = _RULES[config.rule]
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
        _, sub_consensus, _ = body(sub_profile, config, memo, None)
        restricted = tuple(filter(set(sub_pool).__contains__, consensus))
        _, normalized = kendall_tau(restricted, sub_consensus)
        influence[agent] = normalized
    return influence


def aggregate(
    profile: PreferenceProfile, config: RuleConfig, memo: KemenyMemo | None = None
) -> AggregateResult:
    """Run the configured rule and attach leave-one-out influence.

    ``memo`` carries the Kemeny search's visited optima and picks from call
    to call (see ``KemenyMemo``); a ``FairnessLedger`` passes its own, one
    per stream.  Without one, the rule and its leave-one-out runs share a
    fresh memo for this call only.
    """
    memo = KemenyMemo() if memo is None else memo
    return _result(_RULES[config.rule], profile, config, memo, with_influence=True)
