"""The matrix tally and the rule bodies against their dict-of-dicts form.

The references below are the plain form the library had before its tally
became one matrix: ``support[a][b]`` summed ballot by ballot in nested
dicts, each rule reading margins one pair at a time and building its tie
events and scores, the Kemeny searches pricing one ranking at a time,
and leave-one-out influence re-running the whole rule on each sub-profile
and counting its discordant pairs one by one.
``pairwise_tally`` must equal that tally bit for bit, and ``aggregate``
must equal that pipeline in every field, with or without a shared memo.
Both read each weight on the 2^-24 grid, so neither depends on the order
of the ballots, which the anonymity property checks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from typing import Mapping, Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

from agorank.aggregation import KemenyMemo, Rule, RuleConfig, aggregate, pairwise_tally
from agorank.errors import NoCandidates
from agorank.model import (
    AggregateResult,
    Ballot,
    PreferenceProfile,
    TieEvent,
    candidate_pool,
)

Support = Mapping[str, Mapping[str, float]]


def reference_support(profile: PreferenceProfile, use_weights: bool) -> Support:
    support = {a: {b: 0.0 for b in profile.pool} for a in profile.pool}
    for ballot in profile.ballots:
        # the library reads every weight on the 2^-24 grid
        w = round(ballot.weight * 2**24) / 2**24 if use_weights else 1.0
        if w == 0.0:
            continue
        pos = {item: i for i, item in enumerate(ballot.ranking)}
        for a in profile.pool:
            pa = pos.get(a)
            if pa is None:
                continue
            for b in profile.pool:
                if a == b:
                    continue
                pb = pos.get(b)
                if pb is None or pa < pb:
                    support[a][b] += w
    return support


def _tie_events(scores: Mapping[str, float], rule: str) -> tuple[TieEvent, ...]:
    by_score: dict[float, list[str]] = {}
    for item, score in scores.items():
        by_score.setdefault(score, []).append(item)
    events = []
    for score in sorted(by_score, reverse=True):
        group = sorted(by_score[score])
        if len(group) > 1:
            events.append(
                TieEvent(
                    description=f"{rule} score tie at {score:.6f}: {', '.join(group)}",
                    resolution="id order",
                )
            )
    return tuple(events)


def _by_score(rule: str, scores: dict[str, float]) -> AggregateResult:
    return AggregateResult(
        rule=rule,
        consensus=tuple(sorted(scores, key=lambda item: (-scores[item], item))),
        influence={},
        tiebreak_trace=_tie_events(scores, rule),
        scores=scores,
    )


def reference_borda(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    m = len(profile.pool)
    totals = {item: 0.0 for item in profile.pool}
    for ballot in profile.ballots:
        w = round(ballot.weight * 2**24) / 2**24 if config.use_weights else 1.0
        if w == 0.0:
            continue
        ranked = set(ballot.ranking)
        for i, item in enumerate(ballot.ranking):
            totals[item] += w * (m - 1 - i)
        u = m - len(ranked)
        for item in profile.pool:
            if item not in ranked:
                totals[item] += w * ((u - 1) / 2.0)
    return _by_score("borda", totals)


def reference_copeland(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    support = reference_support(profile, config.use_weights)
    scores = {}
    for a in profile.pool:
        wins = ties = 0
        for b in profile.pool:
            if a == b:
                continue
            m = support[a][b] - support[b][a]
            if m > 0:
                wins += 1
            elif m == 0:
                ties += 1
        scores[a] = wins + 0.5 * ties
    return _by_score("copeland", scores)


def _reaches(adj: Mapping[str, set[str]], start: str, goal: str) -> bool:
    stack, seen = [start], {start}
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for nxt in adj[node] - seen:
            seen.add(nxt)
            stack.append(nxt)
    return False


def reference_ranked_pairs(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    support = reference_support(profile, config.use_weights)
    pool = profile.pool
    trace = []
    positive = []
    for a in pool:
        for b in pool:
            if a >= b:
                continue
            m = support[a][b] - support[b][a]
            if m > 0:
                positive.append((m, a, b))
            elif m < 0:
                positive.append((-m, b, a))
            else:
                trace.append(TieEvent(f"pairwise tie {a} vs {b}", "neither locked"))
    positive.sort(key=lambda t: (-t[0], t[1], t[2]))
    by_margin: dict[float, list[tuple[str, str]]] = {}
    for m, a, b in positive:
        by_margin.setdefault(m, []).append((a, b))
    for m in sorted(by_margin, reverse=True):
        if len(by_margin[m]) > 1:
            pairs = ", ".join(f"{a}>{b}" for a, b in by_margin[m])
            trace.append(TieEvent(f"equal margin {m:.6f}: {pairs}", "locked in pair order"))
    adj: dict[str, set[str]] = {item: set() for item in pool}
    for m, a, b in positive:
        if _reaches(adj, b, a):
            trace.append(
                TieEvent(f"skipped {a}>{b} (margin {m:.6f}): would create cycle", "pair discarded")
            )
            continue
        adj[a].add(b)
    indegree = {item: 0 for item in pool}
    for a in pool:
        for b in adj[a]:
            indegree[b] += 1
    consensus = []
    available = sorted(item for item in pool if indegree[item] == 0)
    while available:
        node = available.pop(0)
        consensus.append(node)
        for b in sorted(adj[node]):
            indegree[b] -= 1
            if indegree[b] == 0:
                available.append(b)
        available.sort()
    return AggregateResult(
        rule="ranked_pairs",
        consensus=tuple(consensus),
        influence={},
        tiebreak_trace=tuple(trace),
        scores={item: float(len(adj[item])) for item in pool},
    )


def _distance(ranking: Sequence[str], support: Support) -> float:
    total = 0.0
    for i, a in enumerate(ranking):
        for b in ranking[i + 1 :]:
            total += support[b][a]
    return total


def _heuristic(profile: PreferenceProfile, config: RuleConfig, support: Support):
    """Climb from the Borda order, price each optimum as reached, then reshuffle."""
    current = list(reference_borda(profile, config).consensus)
    rng = random.Random(config.seed)
    budget = config.kemeny_search_iters
    best, best_dist = None, float("inf")
    while budget > 0:
        improved = True
        while improved and budget > 0:
            improved = False
            budget -= 1
            for i in range(len(current) - 1):
                a, b = current[i], current[i + 1]
                if support[a][b] < support[b][a]:
                    current[i], current[i + 1] = b, a
                    improved = True
        d = _distance(current, support)
        if d < best_dist or (d == best_dist and tuple(current) < best):
            best, best_dist = tuple(current), d
        if budget > 0:
            rng.shuffle(current)
    return best


def reference_kemeny(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    support = reference_support(profile, config.use_weights)
    pool = profile.pool
    trace = []
    if len(pool) <= config.kemeny_exact_limit:
        dists = {perm: _distance(perm, support) for perm in itertools.permutations(pool)}
        dist = min(dists.values())
        consensus = min(perm for perm, d in dists.items() if d == dist)
        n_min = sum(d == dist for d in dists.values())
        if n_min > 1:
            trace.append(
                TieEvent(
                    f"{n_min} permutations at minimum distance {dist:.6f}",
                    "lexicographically least selected",
                )
            )
        rule = "kemeny"
    else:
        consensus = _heuristic(profile, config, support)
        rule = "kemeny-heuristic"
    m = len(pool)
    return AggregateResult(
        rule=rule,
        consensus=consensus,
        influence={},
        tiebreak_trace=tuple(trace),
        scores={item: float(m - 1 - i) for i, item in enumerate(consensus)},
    )


REFERENCE_RULES = {
    Rule.BORDA: reference_borda,
    Rule.COPELAND: reference_copeland,
    Rule.RANKED_PAIRS: reference_ranked_pairs,
    Rule.KEMENY: reference_kemeny,
}


def reference_aggregate(profile: PreferenceProfile, config: RuleConfig) -> AggregateResult:
    rule = REFERENCE_RULES[config.rule]
    result = rule(profile, config)
    agents = sorted({b.agent_id for b in profile.ballots})
    if len(agents) == 1:
        return replace(result, influence={agents[0]: 1.0})
    influence = {}
    for agent in agents:
        remaining = tuple(b for b in profile.ballots if b.agent_id != agent)
        try:
            sub_pool = candidate_pool(remaining)
        except (NoCandidates, ValueError):
            influence[agent] = 1.0
            continue
        sub = rule(PreferenceProfile(ballots=remaining, pool=sub_pool), config).consensus
        restricted = tuple(item for item in result.consensus if item in set(sub_pool))
        where = {item: i for i, item in enumerate(sub)}
        discordant = sum(
            where[x] > where[y] for x, y in itertools.combinations(restricted, 2)
        )
        influence[agent] = discordant / math.comb(len(sub), 2) if len(sub) > 1 else 0.0
    return replace(result, influence=influence)


def _exact(result: AggregateResult) -> tuple:
    """Every field of a result, floats as their hex strings so that equal means equal bits."""
    return (
        result.rule,
        result.consensus,
        [(agent, value.hex()) for agent, value in result.influence.items()],
        result.tiebreak_trace,
        [(item, float(value).hex()) for item, value in result.scores.items()],
    )


# zero, one, and non-dyadic weights: for these q, most p/q have no finite binary expansion
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(
        lambda q, p: min(p, q) / q,
        st.sampled_from([3, 7, 10, 1000003]),
        st.integers(min_value=1, max_value=1000003),
    ),
)
# ids of one to three letters, so that id order is not length order
_IDS = ["".join(p) for n in (1, 2, 3) for p in itertools.product("bxa", repeat=n)][:20]


def _prefix(draw, items: Sequence[str], k: int) -> list[str]:
    """The first k items of a random permutation: a partial shuffle draws k
    positions, not one per item, so no example runs out of choices."""
    items = list(items)
    for i in range(k):
        j = draw(st.integers(min_value=i, max_value=len(items) - 1))
        items[i], items[j] = items[j], items[i]
    return items[:k]


@st.composite
def profiles(draw):
    """1-6 truncated ballots over at most 20 items, from up to four agents.

    An agent may cast several ballots, and leaving one out may shrink the
    pool or leave only zero-weight ballots.
    """
    items = _prefix(draw, _IDS, draw(st.integers(min_value=1, max_value=20)))
    ballots = [
        Ballot(
            draw(st.sampled_from("pqrs")),
            tuple(_prefix(draw, items, draw(st.integers(min_value=1, max_value=len(items))))),
            weight=draw(_WEIGHTS),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    # bare constructor: every weight may be zero
    return PreferenceProfile(ballots=tuple(ballots), pool=candidate_pool(ballots))


@settings(max_examples=300, deadline=None)
@given(profile=profiles(), use_weights=st.booleans())
def test_matrix_equals_reference_bit_for_bit(profile, use_weights):
    tally = pairwise_tally(profile, use_weights)
    support = reference_support(profile, use_weights)
    assert tally.pool == profile.pool
    assert tally.matrix.dtype.name == "float64"
    assert [[v.hex() for v in row] for row in tally.matrix.tolist()] == [
        [support[a][b].hex() for b in profile.pool] for a in profile.pool
    ]


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(profiles(), min_size=1, max_size=3),
    use_weights=st.booleans(),
    exact_limit=st.sampled_from([2, 4, 6]),
    iters=st.sampled_from([1, 3, 20]),
    seed=st.sampled_from([0, 7]),
)
def test_aggregate_equals_reference_pipeline(stream, use_weights, exact_limit, iters, seed):
    configs = [
        RuleConfig(rule, use_weights, kemeny_exact_limit=exact_limit, kemeny_search_iters=iters,
                   seed=seed)
        for rule in Rule
    ]
    expected = {
        (i, config.rule): _exact(reference_aggregate(profile, config))
        for i, profile in enumerate(stream)
        for config in configs
    }
    memo = KemenyMemo()
    # each profile alone, then the whole stream twice over one memo: repeats are memo hits
    for i, profile in enumerate(stream):
        for config in configs:
            assert _exact(aggregate(profile, config)) == expected[i, config.rule]
    for _ in range(2):
        for i, profile in enumerate(stream):
            for config in configs:
                assert _exact(aggregate(profile, config, memo)) == expected[i, config.rule]


_REORDERED = PreferenceProfile(
    ballots=(Ballot("p", ("b",), weight=0.1), Ballot("q", ("b",), weight=0.2),
             Ballot("r", ("b",), weight=0.3), Ballot("s", ("a",), weight=0.6)),
    pool=("a", "b"),
)


@settings(max_examples=150, deadline=None)
@given(
    profile=profiles(),
    permutation=st.permutations(range(6)),
    exact_limit=st.sampled_from([2, 6]),
)
# float addition in ballot order read 0.1 + 0.2 + 0.3 > 0.6 but 0.2 + 0.3 + 0.1 == 0.6
@example(profile=_REORDERED, permutation=(1, 2, 0, 3, 4, 5), exact_limit=6)
def test_ballot_order_never_changes_the_result(profile, permutation, exact_limit):
    order = [i for i in permutation if i < len(profile.ballots)]
    reordered = replace(profile, ballots=tuple(profile.ballots[i] for i in order))
    for rule in Rule:
        config = RuleConfig(rule, kemeny_exact_limit=exact_limit, kemeny_search_iters=20)
        assert _exact(aggregate(reordered, config)) == _exact(aggregate(profile, config))
