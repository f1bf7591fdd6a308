"""The Kemeny local search against a frozen copy of its loop-and-shuffle form.

``_reference_heuristic`` re-seeds ``random.Random`` and shuffles in place on
every call, and ``_reference_distance`` reads ``support`` directly: both are
the plain form that ``aggregation._kemeny_heuristic`` and
``aggregation.kemeny_distance`` must match bit for bit, whatever restart
orders other calls have already drawn.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorank import aggregation
from agorank.aggregation import PairwiseTally, RuleConfig, pairwise_tally, rule_borda
from agorank.model import Ballot, PreferenceProfile


def _reference_distance(ranking: Sequence[str], tally: PairwiseTally) -> float:
    support = tally.support
    total = 0.0
    for i, a in enumerate(ranking):
        for b in ranking[i + 1 :]:
            total += support[b][a]
    return total


def _reference_climb(order: list[str], support: Mapping[str, Mapping[str, float]], budget: int) -> int:
    used = 0
    improved = True
    while improved and used < budget:
        improved = False
        used += 1
        for i in range(len(order) - 1):
            a, b = order[i], order[i + 1]
            if support[a][b] < support[b][a]:
                order[i], order[i + 1] = b, a
                improved = True
    return used


def _reference_heuristic(
    profile: PreferenceProfile, config: RuleConfig, tally: PairwiseTally
) -> tuple[tuple[str, ...], float]:
    current = list(rule_borda(profile, config).consensus)
    rng = random.Random(config.seed)
    budget = config.kemeny_search_iters
    best: tuple[str, ...] | None = None
    best_dist = float("inf")
    while budget > 0:
        budget -= _reference_climb(current, tally.support, budget)
        d = _reference_distance(current, tally)
        key = tuple(current)
        if d < best_dist or (d == best_dist and best is not None and key < best):
            best = key
            best_dist = d
        if budget > 0:
            rng.shuffle(current)
    assert best is not None
    return best, best_dist


# non-dyadic weights: p/q with odd q > 1 never has a finite binary expansion
_WEIGHTS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.builds(
        lambda q, p: min(p, q) / q,
        st.sampled_from([3, 5, 7, 9, 11, 13, 1000003]),
        st.integers(min_value=1, max_value=1000003),
    ),
)


@st.composite
def truncated_profiles(draw, min_pool=9, max_pool=20):
    """2-5 weighted truncated ballots whose union is min_pool..max_pool items."""
    items = draw(
        st.lists(
            st.text(alphabet="abcxyz", min_size=1, max_size=3),
            min_size=min_pool,
            max_size=max_pool,
            unique=True,
        )
    )
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
_ITERS = st.integers(min_value=1, max_value=1000)


@settings(max_examples=60, deadline=None)
@given(
    profile=truncated_profiles(),
    seed=_SEEDS,
    iters=_ITERS,
    warm=st.lists(
        st.tuples(truncated_profiles(), _SEEDS, st.integers(min_value=1, max_value=300)),
        min_size=1,
        max_size=3,
    ),
)
def test_heuristic_matches_reference_cold_and_warm(profile, seed, iters, warm):
    config = RuleConfig(kemeny_search_iters=iters, seed=seed)
    expected = _reference_heuristic(profile, config, pairwise_tally(profile))

    aggregation._restart_schedule.cache_clear()
    assert aggregation._kemeny_heuristic(profile, config, pairwise_tally(profile)) == expected

    # other (seed, pool size) pairs draw their own orders first
    for other, other_seed, other_iters in warm:
        other_config = RuleConfig(kemeny_search_iters=other_iters, seed=other_seed)
        aggregation._kemeny_heuristic(other, other_config, pairwise_tally(other))
    tally = pairwise_tally(profile)
    assert aggregation._kemeny_heuristic(profile, config, tally) == expected
    # and on the same tally again, with its transposed rows already built
    assert aggregation._kemeny_heuristic(profile, config, tally) == expected


@settings(max_examples=100, deadline=None)
@given(profile=truncated_profiles(min_pool=2), data=st.data())
def test_distance_matches_reference(profile, data):
    tally = pairwise_tally(profile)
    ranking = data.draw(st.permutations(profile.pool))
    assert aggregation.kemeny_distance(ranking, tally) == _reference_distance(ranking, tally)


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
