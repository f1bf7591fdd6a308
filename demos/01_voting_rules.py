"""Four social-choice rules on one small disagreement.

Three stakeholder agents rank the same three destinations differently.
Each rule resolves the conflict its own way; ties and discarded pairs are
recorded in the tiebreak trace so the outcome stays auditable.
"""

from agorank import Ballot, PreferenceProfile, Rule, RuleConfig, aggregate, pairwise_tally

profile = PreferenceProfile.from_ballots(
    [
        Ballot(agent_id="traveler", ranking=("beach", "museum", "trail"), weight=1.0),
        Ballot(agent_id="providers", ranking=("museum", "trail", "beach"), weight=0.8),
        Ballot(agent_id="ecology", ranking=("trail", "museum", "beach"), weight=0.6),
    ]
)

tally = pairwise_tally(profile)
margins = tally.matrix - tally.matrix.T
print("weighted pairwise margins (positive = row beats column):")
header = "".join(f"{b:>10}" for b in tally.pool)
print(f"{'':>10}{header}")
for a, margin_row in zip(tally.pool, margins.tolist()):
    row = "".join(f"{m:>+10.2f}" for m in margin_row)
    print(f"{a:>10}{row}")
print()

for rule in Rule:
    result = aggregate(profile, RuleConfig(rule=rule))
    print(f"{result.rule:<16} {' > '.join(result.consensus)}")
    for item in result.consensus:
        print(f"    score {result.scores[item]:8.3f}  {item}")
    for event in result.tiebreak_trace:
        print(f"    {event.description} [{event.resolution}]")
    influence = ", ".join(f"{a}={v:.2f}" for a, v in sorted(result.influence.items()))
    print(f"    influence: {influence}")
    print()
