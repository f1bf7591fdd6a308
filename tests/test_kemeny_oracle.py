"""The Kemeny searches against frozen copies of their one-at-a-time form.

``_reference_heuristic`` re-seeds ``random.Random``, shuffles in place and
prices each local optimum as it reaches it; ``_reference_exact`` prices each
permutation as it scans; ``_reference_distance`` reads the tally's matrix
one cell at a time.
They are the plain form that ``aggregation._kemeny_heuristic``,
``aggregation._kemeny_exact``, ``aggregation.kemeny_distance`` and the batch
pricer ``aggregation._kemeny_distances`` must match bit for bit, whatever
restart orders other calls have already drawn and wherever the pricing
blocks split the rankings.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
import tracemalloc
from dataclasses import replace
from typing import Callable, Mapping, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorank import aggregation, dataio, orchestrator
from agorank.aggregation import PairwiseTally, Rule, RuleConfig, pairwise_tally, rule_borda
from agorank.model import Ballot, PreferenceProfile, candidate_pool


def _support(tally: PairwiseTally) -> Callable[[str, str], float]:
    """support(a, b): the weight preferring a over b, one cell of ``tally.matrix``."""
    rows = tally.matrix.tolist()
    index = {item: i for i, item in enumerate(tally.pool)}
    return lambda a, b: rows[index[a]][index[b]]


def _reference_distance(ranking: Sequence[str], tally: PairwiseTally) -> float:
    support = _support(tally)
    total = 0.0
    for i, a in enumerate(ranking):
        for b in ranking[i + 1 :]:
            total += support(b, a)
    return total


def _reference_climb(order: list[str], support: Callable[[str, str], float], budget: int) -> int:
    used = 0
    improved = True
    while improved and used < budget:
        improved = False
        used += 1
        for i in range(len(order) - 1):
            a, b = order[i], order[i + 1]
            if support(a, b) < support(b, a):
                order[i], order[i + 1] = b, a
                improved = True
    return used


def _reference_heuristic(
    profile: PreferenceProfile, config: RuleConfig, tally: PairwiseTally
) -> tuple[tuple[str, ...], float]:
    current = list(rule_borda(profile, config).consensus)
    support = _support(tally)
    rng = random.Random(config.seed)
    budget = config.kemeny_search_iters
    best: tuple[str, ...] | None = None
    best_dist = float("inf")
    while budget > 0:
        budget -= _reference_climb(current, support, budget)
        d = _reference_distance(current, tally)
        key = tuple(current)
        if d < best_dist or (d == best_dist and best is not None and key < best):
            best = key
            best_dist = d
        if budget > 0:
            rng.shuffle(current)
    assert best is not None
    return best, best_dist


def _reference_exact(
    pool: tuple[str, ...], tally: PairwiseTally
) -> tuple[tuple[str, ...], float, int]:
    best: tuple[str, ...] | None = None
    best_dist = float("inf")
    n_min = 0
    for perm in itertools.permutations(sorted(pool)):
        d = _reference_distance(perm, tally)
        if d < best_dist:
            best = perm
            best_dist = d
            n_min = 1
        elif d == best_dist:
            n_min += 1
    assert best is not None
    return best, best_dist, n_min


# non-dyadic weights: p/q with odd q > 1 never has a finite binary expansion
_WEIGHTS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.builds(
        lambda q, p: min(p, q) / q,
        st.sampled_from([3, 5, 7, 9, 11, 13, 1000003]),
        st.integers(min_value=1, max_value=1000003),
    ),
)


# every id of 1-3 letters: pools mix lengths, so id order differs from length order
_POOL_IDS = ["".join(p) for n in (1, 2, 3) for p in itertools.product("abcxyz", repeat=n)]


@st.composite
def truncated_profiles(draw, min_pool=9, max_pool=20):
    """2-5 weighted truncated ballots whose union is min_pool..max_pool items."""
    # the pool is a prefix of a permutation of _POOL_IDS, so no draw is rejected
    # as a repeat; it is shuffled only as far as the prefix reaches
    size = draw(st.integers(min_value=min_pool, max_value=max_pool))
    items = list(_POOL_IDS)
    for i in range(size):
        j = draw(st.integers(min_value=i, max_value=len(items) - 1))
        items[i], items[j] = items[j], items[i]
    items = items[:size]
    n_ballots = draw(st.integers(min_value=2, max_value=5))
    rankings = []
    for _ in range(n_ballots):
        order = draw(st.permutations(items))
        rankings.append(order[: draw(st.integers(min_value=1, max_value=len(items)))])
    covered = {item for ranking in rankings for item in ranking}
    # items no ballot ranked go to the tail of the first ballot, so the pool is all items
    rankings[0] = list(rankings[0]) + [item for item in items if item not in covered]
    weights = [draw(_WEIGHTS) for _ in range(n_ballots)]
    return PreferenceProfile.from_ballots(
        [Ballot(f"a{i}", tuple(r), weight=w) for i, (r, w) in enumerate(zip(rankings, weights))]
    )


_SEEDS = st.integers(min_value=0, max_value=2**32)
_ITERS = st.integers(min_value=1, max_value=3000)
# terms per pricing block: 1 prices each ranking alone, the default spans most calls
_BLOCK_TERMS = st.sampled_from([1, 500, 5000, aggregation._PRICE_TERMS])


@settings(max_examples=60, deadline=None)
@given(
    profile=truncated_profiles(min_pool=3, max_pool=30),
    seed=_SEEDS,
    iters=_ITERS,
    warm=st.lists(
        st.tuples(truncated_profiles(), _SEEDS, st.integers(min_value=1, max_value=300)),
        min_size=1,
        max_size=3,
    ),
    terms=_BLOCK_TERMS,
)
def test_heuristic_matches_reference_cold_and_warm(profile, seed, iters, warm, terms):
    config = RuleConfig(kemeny_exact_limit=2, kemeny_search_iters=iters, seed=seed)
    expected = _reference_heuristic(profile, config, pairwise_tally(profile))
    with mock.patch.object(aggregation, "_PRICE_TERMS", terms):
        aggregation._restart_schedule.cache_clear()
        assert aggregation._kemeny_heuristic(profile, config, pairwise_tally(profile)) == expected

        # other (seed, pool size) pairs draw their own orders first
        for other, other_seed, other_iters in warm:
            other_config = RuleConfig(kemeny_search_iters=other_iters, seed=other_seed)
            aggregation._kemeny_heuristic(other, other_config, pairwise_tally(other))
        tally = pairwise_tally(profile)
        assert aggregation._kemeny_heuristic(profile, config, tally) == expected
        # and on the same tally object again
        assert aggregation._kemeny_heuristic(profile, config, tally) == expected


def _relabelled(
    profile: PreferenceProfile, prefix: str, weights: Sequence[float]
) -> PreferenceProfile:
    """The same ballots under new ids in the same sorted order, with new weights."""
    ballots = tuple(
        Ballot(b.agent_id, tuple(prefix + item for item in b.ranking), weight=w)
        for b, w in zip(profile.ballots, weights)
    )
    return PreferenceProfile(ballots=ballots, pool=candidate_pool(ballots))


@st.composite
def position_twins(draw):
    """Two profiles with equal Borda start and strict-majority relation in
    position space, but other ids and weights, and a different least optimum;
    then a third with the same start and another relation.

    Three ballots a>b>c, b>c>a, c>a>b with weights w1, w2, w3 make a majority
    cycle; the Borda order is a, c, b in both profiles.  Swapping w1 and w3
    moves the least optimum from (a, b, c) to (c, a, b).  One ballot a>c>b
    starts from the same order, where the cycle's climb would leave it.
    """
    w1 = draw(st.floats(min_value=0.4, max_value=0.6))
    w2 = draw(st.floats(min_value=0.05, max_value=0.095))
    w3 = w1 + draw(st.floats(min_value=0.01, max_value=0.9)) * w2 * draw(st.sampled_from([-1, 1]))
    rankings = [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")]
    base = PreferenceProfile.from_ballots(
        [Ballot(f"v{i}", r, weight=w) for i, (r, w) in enumerate(zip(rankings, (w1, w2, w3)))]
    )
    first, second, third = draw(st.permutations(["", "p", "q"]))
    line = PreferenceProfile.from_ballots([Ballot("v0", ("a", "c", "b"), weight=w1)])
    return [
        _relabelled(base, first, (w1, w2, w3)),
        _relabelled(base, second, (w3, w2, w1)),
        _relabelled(line, third, (w1,)),
    ]


def _renamed(profile: PreferenceProfile, names: Mapping[str, str]) -> PreferenceProfile:
    """The same ballots and weights, each item renamed by ``names``."""
    ballots = tuple(
        Ballot(b.agent_id, tuple(names[item] for item in b.ranking), weight=b.weight)
        for b in profile.ballots
    )
    return PreferenceProfile(ballots=ballots, pool=candidate_pool(ballots))


def _shuffled_names(draw, pool: Sequence[str]) -> dict[str, str]:
    """A bijection of ``pool`` onto fresh ids that does not keep their order."""
    items = sorted(pool)
    image = draw(st.permutations(items))
    if image == items:
        image = image[::-1]
    return {item: "n" + new for item, new in zip(items, image)}


@st.composite
def start_twins(draw):
    """A profile and the same ballots with items renamed out of order: the
    relation reads the same in each one's Borda order unless a Borda tie
    breaks the other way, while every sorted-pool position moves."""
    profile = draw(truncated_profiles(min_pool=3, max_pool=20))
    return [profile, _renamed(profile, _shuffled_names(draw, profile.pool))]


@st.composite
def weight_twins(draw):
    """A profile and, often sharing its memo key, the same ballots relabelled
    with weights moved by up to 30% (non-dyadic as drawn)."""
    profile = draw(truncated_profiles(min_pool=3, max_pool=20))
    weights = [
        min(1.0, b.weight * draw(st.floats(min_value=0.7, max_value=1.3)))
        for b in profile.ballots
    ]
    return [profile, _relabelled(profile, draw(st.sampled_from(["", "p"])), weights)]


@st.composite
def chain_profiles(draw):
    """Disjoint chains, one ballot each, that no ballot orders against each other.

    Every interleaving of the chains is a local optimum at the same distance,
    so the pick is the least ids among the optima the restarts happened to
    visit, and it moves with the seed and the pass budget.
    """
    lengths = draw(st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=4))
    ballots = [
        Ballot(f"v{c}", tuple(f"{'abcd'[c]}{j}" for j in range(n)), weight=draw(_WEIGHTS))
        for c, n in enumerate(lengths)
    ]
    return [PreferenceProfile.from_ballots(ballots)]


def _stored_bytes(memo: aggregation.KemenyMemo) -> int:
    """Bytes of every entry's array and key, from the sizes its key implies."""
    total = 0
    for key, value in memo._entries.items():
        if isinstance(key[2], int):
            # optima: (seed, iters, m, relation packed 8 pairs a byte)
            m = key[2]
            assert value.ndim == 2 and value.shape[1] == m
            total += value.nbytes + (m * m + 7) // 8
        else:
            # pick: (seed, iters, start, against); start has the pick's dtype
            m = len(value)
            assert len(key[2]) == value.nbytes and len(key[3]) == 8 * m * m
            total += 2 * value.nbytes + 8 * m * m
    return total


# few seeds and budgets, so that one profile meets the memo under another search
_SEARCHES = st.tuples(st.sampled_from([0, 1, 7]), st.sampled_from([1, 2, 5, 40]))


@settings(max_examples=200, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.one_of(position_twins(), weight_twins(), start_twins(), chain_profiles()),
            _SEARCHES,
            _SEARCHES,
        ),
        min_size=1,
        max_size=4,
    ),
    budget=st.sampled_from([0, 16, 64, aggregation._OPTIMA_MEMO_BYTES]),
)
def test_heuristic_with_a_shared_memo_matches_reference(calls, budget):
    memo = aggregation.KemenyMemo()
    with mock.patch.object(aggregation, "_OPTIMA_MEMO_BYTES", budget):
        for profiles, *searches in calls:
            # every profile under each search, then all of it again: repeats are hits
            # unless the budget evicted them
            for (seed, iters), profile in itertools.product(searches + searches, profiles):
                config = RuleConfig(kemeny_exact_limit=2, kemeny_search_iters=iters, seed=seed)
                tally = pairwise_tally(profile)
                got = aggregation._kemeny_heuristic(profile, config, tally, memo)
                assert got == aggregation._kemeny_heuristic(profile, config, tally)
                assert got == _reference_heuristic(profile, config, tally)
                assert memo.nbytes <= budget
                assert memo.nbytes == _stored_bytes(memo)


def _heuristic_calls():
    """Counters of the climbs and the pricings ``_kemeny_heuristic`` runs."""
    return (
        mock.patch.object(aggregation, "_local_optima", wraps=aggregation._local_optima),
        mock.patch.object(aggregation, "_least_ranking", wraps=aggregation._least_ranking),
    )


def test_position_twins_share_a_key_and_are_priced_again():
    w1, w2, w3 = 0.51, 0.09, 0.46
    rankings = [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")]
    base = PreferenceProfile.from_ballots(
        [Ballot(f"v{i}", r, weight=w) for i, (r, w) in enumerate(zip(rankings, (w1, w2, w3)))]
    )
    twin = _relabelled(base, "p", (w3, w2, w1))
    config = RuleConfig(kemeny_exact_limit=2, kemeny_search_iters=40, seed=0)
    memo = aggregation.KemenyMemo()
    climbs, pricings = _heuristic_calls()
    with climbs as climbs, pricings as pricings:
        first = aggregation._kemeny_heuristic(base, config, pairwise_tally(base), memo)
        second = aggregation._kemeny_heuristic(twin, config, pairwise_tally(twin), memo)
    # one climb: the twin's optima were a hit; two pricings: its tally is not the
    # stored profile's, so neither is its pick
    assert (climbs.call_count, pricings.call_count) == (1, 2)
    assert len(memo._entries) == 3 and memo.nbytes == _stored_bytes(memo)
    assert first == _reference_heuristic(base, config, pairwise_tally(base))
    assert second == _reference_heuristic(twin, config, pairwise_tally(twin))
    assert first[0] == ("a", "b", "c") and second[0] == ("pc", "pa", "pb")


def test_start_twin_adds_no_optima_and_gets_its_own_pick():
    # chains d>c, b>a, f>e: every interleaving is a local optimum at one distance.
    # Reversing the ids keeps the relation in Borda-start coordinates but moves
    # the least ids among the optima visited
    ballots = [
        Ballot(agent, chain, weight=1 / 3)
        for agent, chain in [("x", ("d", "c")), ("y", ("b", "a")), ("z", ("f", "e"))]
    ]
    base = PreferenceProfile.from_ballots(ballots)
    names = dict(zip("abcdef", "fedcba"))
    twin = _renamed(base, names)
    config = RuleConfig(kemeny_exact_limit=2, kemeny_search_iters=200, seed=0)
    memo = aggregation.KemenyMemo()
    climbs, pricings = _heuristic_calls()
    with climbs as climbs, pricings as pricings:
        first = aggregation._kemeny_heuristic(base, config, pairwise_tally(base), memo)
        stored = set(memo._entries)
        second = aggregation._kemeny_heuristic(twin, config, pairwise_tally(twin), memo)
    assert (climbs.call_count, pricings.call_count) == (1, 2)
    # the twin stored its pick and no optima
    (added,) = set(memo._entries) - stored
    assert isinstance(added[2], bytes)
    assert first == _reference_heuristic(base, config, pairwise_tally(base))
    assert second == _reference_heuristic(twin, config, pairwise_tally(twin))
    assert first[0] == ("b", "a", "d", "c", "f", "e")
    assert second[0] != tuple(names[item] for item in first[0])


@settings(max_examples=100, deadline=None)
@given(profile=truncated_profiles(min_pool=3, max_pool=20), data=st.data(), search=_SEARCHES)
def test_start_twins_share_one_climb_and_match_reference(profile, data, search):
    names = _shuffled_names(data.draw, profile.pool)
    profiles = [profile, _renamed(profile, names)]
    seed, iters = search
    config = RuleConfig(kemeny_exact_limit=2, kemeny_search_iters=iters, seed=seed)
    tallies = [pairwise_tally(p) for p in profiles]
    expected = [_reference_heuristic(p, config, t) for p, t in zip(profiles, tallies)]
    alone = [aggregation._kemeny_heuristic(p, config, t) for p, t in zip(profiles, tallies)]
    memo = aggregation.KemenyMemo()
    climbs, _ = _heuristic_calls()
    with climbs as climbs:
        shared = [
            aggregation._kemeny_heuristic(p, config, t, memo) for p, t in zip(profiles, tallies)
        ]
    assert shared == alone == expected
    # unless a Borda tie broke the other way, the twin's search was the first one's
    borda, twin_borda = (rule_borda(p, config).consensus for p in profiles)
    if tuple(names[item] for item in borda) == twin_borda:
        assert climbs.call_count == 1


@settings(max_examples=100, deadline=None)
@given(profile=truncated_profiles(min_pool=2), data=st.data())
def test_distance_matches_reference(profile, data):
    tally = pairwise_tally(profile)
    ranking = data.draw(st.permutations(profile.pool))
    assert aggregation.kemeny_distance(ranking, tally) == _reference_distance(ranking, tally)


@settings(max_examples=100, deadline=None)
@given(profile=truncated_profiles(min_pool=3, max_pool=30), data=st.data())
def test_batch_distances_match_reference(profile, data):
    tally = pairwise_tally(profile)
    items = sorted(profile.pool)
    distinct = data.draw(st.lists(st.permutations(range(len(items))), min_size=1, max_size=6))
    # repeated rows, as restarts that climb to the same optimum give
    rows = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    support = _support(tally)
    against = np.array([[support(b, a) for b in items] for a in items])
    got = aggregation._kemeny_distances(np.array(rows, dtype=np.intp), against)
    assert [d.hex() for d in got.tolist()] == [
        _reference_distance([items[p] for p in row], tally).hex() for row in rows
    ]


@pytest.mark.parametrize("terms", [1, aggregation._PRICE_TERMS])
@pytest.mark.parametrize("weight", [1.0, 1 / 3])
def test_equal_distance_optima_pick_the_least_ids(weight, terms):
    # three chains d>c, b>a, f>e that no ballot orders against each other:
    # every interleaving is a local optimum at the same distance, the Borda
    # start (b, d, f, a, c, e) among them, and (b, a, d, c, f, e) is the least
    ballots = [
        Ballot(agent, chain, weight=weight)
        for agent, chain in [("x", ("d", "c")), ("y", ("b", "a")), ("z", ("f", "e"))]
    ]
    profile = PreferenceProfile.from_ballots(ballots)
    tally = pairwise_tally(profile)
    config = RuleConfig(kemeny_exact_limit=2, kemeny_search_iters=200, seed=0)
    # one optimum per block, or all of them in one
    with mock.patch.object(aggregation, "_PRICE_TERMS", terms):
        best, dist = aggregation._kemeny_heuristic(profile, config, tally)
    assert (best, dist) == _reference_heuristic(profile, config, tally)
    assert best == ("b", "a", "d", "c", "f", "e")


def test_zero_weight_profile_picks_the_least_optimum_visited():
    # influence_loo builds such a profile when only zero-weight ballots remain
    ballots = (
        Ballot("a", tuple(f"i{j:02d}" for j in range(12)), weight=0.0),
        Ballot("b", ("i05", "i01", "i14"), weight=0.0),
    )
    profile = PreferenceProfile(ballots=ballots, pool=candidate_pool(ballots))
    tally = pairwise_tally(profile)
    for iters, seed in [(1, 0), (7, 3), (2000, 11)]:
        # every distance is 0.0, so only the id order of the optima decides
        config = RuleConfig(kemeny_exact_limit=2, kemeny_search_iters=iters, seed=seed)
        best, dist = aggregation._kemeny_heuristic(profile, config, tally)
        assert (best, dist) == _reference_heuristic(profile, config, tally)
        assert dist == 0.0


@st.composite
def exact_profiles(draw):
    """Profiles of 2-7 items: cyclic or not, truncated, tied, zero-weighted."""
    items = [f"i{j}" for j in range(draw(st.integers(min_value=2, max_value=7)))]
    if draw(st.booleans()):
        # rotations of one order: every item beats the next, a majority cycle
        base = draw(st.permutations(items))
        rankings = [base[k:] + base[:k] for k in range(len(base))]
    else:
        rankings = [
            draw(st.permutations(items))[: draw(st.integers(min_value=1, max_value=len(items)))]
            for _ in range(draw(st.integers(min_value=1, max_value=5)))
        ]
    covered = {item for ranking in rankings for item in ranking}
    rankings[0] = list(rankings[0]) + [item for item in items if item not in covered]
    weights = st.one_of(_WEIGHTS, st.sampled_from([0.0, 0.5, 1.0]))
    ballots = tuple(
        Ballot(f"a{k}", tuple(r), weight=draw(weights)) for k, r in enumerate(rankings)
    )
    # bare constructor: all weights may be zero
    return PreferenceProfile(ballots=ballots, pool=candidate_pool(ballots))


@settings(max_examples=150, deadline=None)
@given(profile=exact_profiles(), terms=_BLOCK_TERMS)
def test_exact_matches_reference(profile, terms):
    tally = pairwise_tally(profile)
    expected = _reference_exact(profile.pool, tally)
    with mock.patch.object(aggregation, "_PRICE_TERMS", terms):
        assert aggregation._kemeny_exact(tally) == expected


@pytest.mark.parametrize("weights", [(0.3, 0.7, 1 / 3), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5)])
def test_exact_matches_reference_on_eight_items(weights):
    items = [f"i{j}" for j in range(8)]
    rankings = [items, items[3:] + items[:3], items[::-1][:5]]
    ballots = tuple(
        Ballot(f"a{k}", tuple(r), weight=w) for k, (r, w) in enumerate(zip(rankings, weights))
    )
    profile = PreferenceProfile(ballots=ballots, pool=candidate_pool(ballots))
    tally = pairwise_tally(profile)
    assert aggregation._kemeny_exact(tally) == _reference_exact(profile.pool, tally)


def test_heuristic_memory_does_not_grow_with_the_pass_budget():
    rng = random.Random(3)
    items = [f"i{j:02d}" for j in range(40)]
    ballots = []
    for k in range(5):
        order = items[:]
        rng.shuffle(order)
        ballots.append(Ballot(f"a{k}", tuple(order), weight=rng.random()))
    profile = PreferenceProfile.from_ballots(ballots)
    config = RuleConfig(kemeny_exact_limit=2, kemeny_search_iters=20000, seed=1)
    tally = pairwise_tally(profile)
    tracemalloc.start()
    try:
        aggregation._kemeny_heuristic(profile, config, tally)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 700 optima of 780 pairs each: blocks of 2^16 terms peak near 1.2 MB,
    # one block of every optimum near 9 MB
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n", [3, 256, 257, 300])
def test_schedule_orders_are_the_shuffles_of_a_fresh_rng(n):
    rng = random.Random(11)
    schedule = aggregation._RestartSchedule(11, n)
    items = [f"i{j:03d}" for j in range(n)]
    for k in range(50):
        expected = items[:]
        rng.shuffle(expected)
        assert [items[p] for p in schedule.order(k)] == expected


def test_schedule_extends_consistently_from_many_threads():
    fresh = aggregation._RestartSchedule(5, 16)
    want = [fresh.order(k) for k in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = aggregation._RestartSchedule(5, 16)
            results: list[dict[int, Sequence[int]]] = []
            barrier = threading.Barrier(8)

            def worker(offset):
                barrier.wait(timeout=10)
                # every thread starts near the end, so all of them extend at once
                results.append({k: shared.order(k) for k in range(399 - offset, -1, -8)})

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 8
            assert all(got == {k: want[k] for k in got} for got in results)
            assert shared.orders == want
    finally:
        sys.setswitchinterval(interval)


def _search_keys(profile: PreferenceProfile, config: RuleConfig, tally: PairwiseTally):
    """The restart search's key and the pick's key, computed from ids and the tally.

    The search reads the strict-majority relation in Borda order; the pick
    also reads where each Borda item sits in the sorted pool and every
    support value.
    """
    borda = rule_borda(profile, config).consensus
    support = _support(tally)
    relation = tuple(tuple(support(b, a) > support(a, b) for b in borda) for a in borda)
    items = sorted(tally.pool)
    start = tuple(items.index(item) for item in borda)
    against = tuple(support(b, a).hex() for a in items for b in items)
    search = (config.seed, config.kemeny_search_iters)
    return (*search, relation), (*search, start, against)


def test_seed7_stream_climbs_once_per_relation_and_prices_once_per_tally():
    scenario = dataio.load_scenario("builtin:synthetic-200", seed_override=7)
    config = replace(scenario.rule_config, rule=Rule.KEMENY)

    def stream():
        outcomes, _ = orchestrator.run_stream(
            scenario.queries, scenario.agents, scenario.catalog, scenario.policy, config
        )
        return outcomes

    heuristic = aggregation._kemeny_heuristic
    searches, picks = [], []

    def keyed(profile, config, tally, memo=None):
        search, pick = _search_keys(profile, config, tally)
        searches.append(search)
        picks.append(pick)
        return heuristic(profile, config, tally, memo)

    climbs, pricings = _heuristic_calls()
    with (
        mock.patch.object(aggregation, "_kemeny_heuristic", keyed),
        climbs as climbs,
        pricings as pricings,
    ):
        outcomes = stream()
    assert all(o.aggregate.rule == "kemeny-heuristic" for o in outcomes)
    # 100 queries and 300 leave-one-out profiles
    assert len(searches) == 400
    assert climbs.call_count == len(set(searches)) == 73
    assert pricings.call_count == len(set(picks)) == 165
    # nothing stored: every call climbs and prices
    with mock.patch.object(aggregation, "_OPTIMA_MEMO_BYTES", 0):
        assert stream() == outcomes
