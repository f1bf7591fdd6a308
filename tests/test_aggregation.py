import pytest

from agorank.aggregation import (
    Rule,
    RuleConfig,
    aggregate,
    influence_loo,
    kemeny_distance,
    pairwise_tally,
    rule_borda,
    rule_copeland,
    rule_kemeny,
    rule_ranked_pairs,
)
from agorank.model import Ballot, PreferenceProfile

# three-agent profile with a clear Borda outcome:
# totals A=3, B=5, C=1
PROFILE_ABC = PreferenceProfile.from_ballots(
    [
        Ballot("x", ("A", "B", "C")),
        Ballot("y", ("B", "A", "C")),
        Ballot("z", ("B", "C", "A")),
    ]
)

# a perfect 3-cycle: A>B, B>C, C>A each by one ballot
PROFILE_CYCLE = PreferenceProfile.from_ballots(
    [
        Ballot("x", ("A", "B", "C")),
        Ballot("y", ("B", "C", "A")),
        Ballot("z", ("C", "A", "B")),
    ]
)


def profile(*rankings, weights=None):
    weights = weights or [1.0] * len(rankings)
    return PreferenceProfile.from_ballots(
        [
            Ballot(f"a{i}", tuple(r), weight=w)
            for i, (r, w) in enumerate(zip(rankings, weights))
        ]
    )


def support(tally, a, b):
    """Weight of the ballots preferring a over b, read from the tally's matrix."""
    return tally.matrix[tally.pool.index(a), tally.pool.index(b)]


def margin(tally, a, b):
    return support(tally, a, b) - support(tally, b, a)


class TestPairwiseTally:
    def test_margins(self):
        tally = pairwise_tally(PROFILE_ABC)
        assert margin(tally, "B", "A") == pytest.approx(1.0)
        assert margin(tally, "A", "C") == pytest.approx(1.0)
        assert margin(tally, "B", "C") == pytest.approx(3.0)

    def test_truncation_ranked_beats_unranked(self):
        tally = pairwise_tally(profile(["A"], ["B", "A"]))
        # ballot 1 ranks A and omits B: supports A over B
        assert support(tally, "A", "B") == pytest.approx(1.0)
        assert support(tally, "B", "A") == pytest.approx(1.0)

    def test_both_unranked_counts_neither(self):
        tally = pairwise_tally(profile(["A"], ["B", "C"]))
        assert support(tally, "B", "C") == pytest.approx(1.0)
        assert support(tally, "C", "B") == pytest.approx(0.0)
        # the A-only ballot says nothing about B vs C
        assert margin(tally, "B", "C") == pytest.approx(1.0)

    def test_weights_scale_support(self):
        tally = pairwise_tally(profile(["A", "B"], ["B", "A"], weights=[0.5, 1.0]))
        assert margin(tally, "B", "A") == pytest.approx(0.5)

    def test_use_weights_false(self):
        tally = pairwise_tally(
            profile(["A", "B"], ["B", "A"], weights=[0.5, 1.0]), use_weights=False
        )
        assert margin(tally, "B", "A") == pytest.approx(0.0)


class TestBorda:
    def test_worked_example(self):
        result = rule_borda(PROFILE_ABC, RuleConfig())
        assert result.consensus == ("B", "A", "C")
        assert result.scores == {"A": 3.0, "B": 5.0, "C": 1.0}

    def test_truncated_fill(self):
        # pool {A,B,C,D}; ballot ranks only A,B: A=3, B=2, C=D=(1+0)/2
        result = rule_borda(profile(["A", "B"], ["C", "D"], ["A", "B"]), RuleConfig())
        totals = result.scores
        assert totals["A"] == pytest.approx(3.0 + 3.0 + 0.5)
        assert totals["C"] == pytest.approx(0.5 + 3.0 + 0.5)

    def test_score_mass_preserved(self):
        m = 4
        result = rule_borda(profile(["A"], ["B", "C"], ["D", "A", "C", "B"]), RuleConfig())
        per_ballot = m * (m - 1) / 2
        assert sum(result.scores.values()) == pytest.approx(3 * per_ballot)

    def test_tie_resolves_by_id(self):
        result = rule_borda(profile(["A", "B"], ["B", "A"]), RuleConfig())
        assert result.consensus == ("A", "B")
        assert len(result.tiebreak_trace) == 1
        assert result.tiebreak_trace[0].resolution == "id order"


class TestCopeland:
    def test_worked_example(self):
        result = rule_copeland(PROFILE_ABC, RuleConfig())
        assert result.consensus == ("B", "A", "C")
        assert result.scores == {"A": 1.0, "B": 2.0, "C": 0.0}

    def test_cycle_all_tied(self):
        result = rule_copeland(PROFILE_CYCLE, RuleConfig())
        assert result.scores == {"A": 1.0, "B": 1.0, "C": 1.0}
        assert result.consensus == ("A", "B", "C")
        assert any(e.resolution == "id order" for e in result.tiebreak_trace)

    def test_pairwise_tie_scores_half(self):
        result = rule_copeland(profile(["A", "B"], ["B", "A"]), RuleConfig())
        assert result.scores == {"A": 0.5, "B": 0.5}


class TestRankedPairs:
    def test_respects_margin_order(self):
        result = rule_ranked_pairs(PROFILE_ABC, RuleConfig())
        assert result.consensus == ("B", "A", "C")

    def test_cycle_skips_weakest(self):
        # margins: A>B +1, B>C +1, C>A +1; all equal, locked in pair order,
        # so A>B and B>C lock and C>A is skipped
        result = rule_ranked_pairs(PROFILE_CYCLE, RuleConfig())
        assert result.consensus == ("A", "B", "C")
        skips = [e for e in result.tiebreak_trace if e.resolution == "pair discarded"]
        assert len(skips) == 1
        assert "C>A" in skips[0].description

    def test_equal_margin_event_recorded(self):
        result = rule_ranked_pairs(PROFILE_CYCLE, RuleConfig())
        assert any(
            e.resolution == "locked in pair order" for e in result.tiebreak_trace
        )

    def test_zero_margin_recorded(self):
        result = rule_ranked_pairs(profile(["A", "B"], ["B", "A"]), RuleConfig())
        assert any(e.resolution == "neither locked" for e in result.tiebreak_trace)
        assert result.consensus == ("A", "B")

    def test_condorcet_winner_tops(self):
        # B beats both A and C head to head
        prof = profile(["B", "A", "C"], ["B", "C", "A"], ["A", "B", "C"])
        result = rule_ranked_pairs(prof, RuleConfig())
        assert result.consensus[0] == "B"


class TestKemeny:
    def test_distance_worked_example(self):
        tally = pairwise_tally(PROFILE_CYCLE)
        assert kemeny_distance(("A", "B", "C"), tally) == pytest.approx(4.0)
        assert kemeny_distance(("C", "B", "A"), tally) == pytest.approx(5.0)

    def test_exact_picks_lexicographically_least_optimum(self):
        result = rule_kemeny(PROFILE_CYCLE, RuleConfig(rule=Rule.KEMENY))
        assert result.consensus == ("A", "B", "C")
        assert result.rule == "kemeny"
        assert any(
            e.resolution == "lexicographically least selected"
            for e in result.tiebreak_trace
        )

    def test_exact_agrees_with_borda_on_clean_profile(self):
        result = rule_kemeny(PROFILE_ABC, RuleConfig(rule=Rule.KEMENY))
        assert result.consensus == ("B", "A", "C")

    def test_heuristic_tag_above_limit(self):
        prof = profile(["A", "B", "C"], ["C", "B", "A"])
        config = RuleConfig(rule=Rule.KEMENY, kemeny_exact_limit=2)
        result = rule_kemeny(prof, config)
        assert result.rule == "kemeny-heuristic"

    def test_heuristic_is_deterministic(self):
        rankings = [
            ["A", "C", "E", "B", "D"],
            ["B", "D", "A", "E", "C"],
            ["E", "A", "B", "C", "D"],
        ]
        config = RuleConfig(rule=Rule.KEMENY, kemeny_exact_limit=3, seed=11)
        first = rule_kemeny(profile(*rankings), config)
        second = rule_kemeny(profile(*rankings), config)
        assert first.consensus == second.consensus

    def test_heuristic_never_beats_exact(self):
        rankings = [
            ["A", "C", "E", "B", "D"],
            ["B", "D", "A", "E", "C"],
            ["E", "A", "B", "C", "D"],
            ["D", "C", "B", "A", "E"],
        ]
        prof = profile(*rankings)
        tally = pairwise_tally(prof)
        exact = rule_kemeny(prof, RuleConfig(rule=Rule.KEMENY))
        heur = rule_kemeny(
            prof, RuleConfig(rule=Rule.KEMENY, kemeny_exact_limit=3, seed=5)
        )
        assert kemeny_distance(heur.consensus, tally) >= kemeny_distance(
            exact.consensus, tally
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RuleConfig(kemeny_exact_limit=1)
        with pytest.raises(ValueError):
            RuleConfig(kemeny_search_iters=0)


class TestInfluence:
    def test_single_agent_is_one(self):
        prof = profile(["A", "B"])
        assert influence_loo(prof, RuleConfig(), ("A", "B")) == {"a0": 1.0}

    def test_pivotal_versus_redundant(self):
        # X's heavier ballot decides the order; without it the order flips,
        # while dropping Y changes nothing
        prof = PreferenceProfile.from_ballots(
            [
                Ballot("X", ("A", "B"), weight=1.0),
                Ballot("Y", ("B", "A"), weight=0.6),
            ]
        )
        result = aggregate(prof, RuleConfig())
        assert result.influence["X"] == pytest.approx(1.0)
        assert result.influence["Y"] == pytest.approx(0.0)

    def test_agent_multiple_ballots_removed_together(self):
        prof = PreferenceProfile.from_ballots(
            [
                Ballot("X", ("A", "B")),
                Ballot("X", ("C", "D")),
                Ballot("Y", ("A", "C")),
            ]
        )
        config = RuleConfig()
        result = aggregate(prof, config)
        assert set(result.influence) == {"X", "Y"}

    def test_restriction_to_surviving_pool(self):
        # removing Y drops item C from the pool entirely
        prof = PreferenceProfile.from_ballots(
            [Ballot("X", ("A", "B")), Ballot("Y", ("C", "A"))]
        )
        result = aggregate(prof, RuleConfig())
        assert 0.0 <= result.influence["Y"] <= 1.0


class TestAggregateDispatch:
    @pytest.mark.parametrize("rule", list(Rule))
    def test_every_rule_runs(self, rule):
        result = aggregate(PROFILE_ABC, RuleConfig(rule=rule))
        assert set(result.consensus) == {"A", "B", "C"}
        assert set(result.influence) == {"x", "y", "z"}

    @pytest.mark.parametrize("rule", list(Rule))
    def test_consensus_is_permutation_of_pool(self, rule):
        prof = profile(["A", "D"], ["B"], ["C", "A"])
        result = aggregate(prof, RuleConfig(rule=rule))
        assert sorted(result.consensus) == ["A", "B", "C", "D"]
