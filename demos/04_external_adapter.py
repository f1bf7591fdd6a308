"""The wire contract for plugging an external ranking service into the council.

Shows the exact request an agent sends, the response shape the adapter
accepts, how a ballot is grounded against the catalog afterwards, and what
a malformed reply costs the agent in reliability.
"""

import json

from agorank import (
    AdapterMalformed,
    AgentSpec,
    Ballot,
    Query,
    StakeholderRole,
    load_scenario,
    update_reliability,
    validate_ballot,
)
from agorank.adapter import build_request, mock_serve, parse_response, request_external
from agorank.agents import AgentObjective
from agorank.metrics import MetricId

scenario = load_scenario("builtin:tourism")
spec = AgentSpec(
    agent_id="concierge",
    role=StakeholderRole.THIRD_PARTY,
    objective=AgentObjective.EXTERNAL,
    objective_metric=MetricId.NDCG,
    objective_target=0.6,
    params={"endpoint": "mock://concierge", "persona": "slow-travel specialist"},
)
query = Query(
    id="demo-9",
    text="a calm afternoon away from the crowds",
    preference_weights={"nature": 1.0},
    top_n=3,
)

# the request offers the whole catalog, in id order, as candidates
request = build_request(spec, query, scenario.catalog, k=4)
print("request body:")
print(json.dumps(json.loads(request), indent=2, sort_keys=True))
print()

response = mock_serve(request)
print("response body:")
print(json.dumps(json.loads(response), indent=2, sort_keys=True))
print()

ranked, justification = parse_response(response, k=4)
print(f"parsed: {list(ranked)} ({justification})")

# request_external does build/send/parse in one step for mock:// and http://
ballot = request_external(spec, query, scenario.catalog, k=4)
grounded, violations = validate_ballot(ballot, scenario.catalog)
print(f"grounded ballot: {list(grounded.ranking)}, violations={violations}")
print()

# a reply naming an item the catalog does not contain is dropped at
# grounding and billed against the agent's reliability
fabricated = ["made-up-resort"] + list(ranked[:3])
ghost_ballot = Ballot(agent_id=spec.agent_id, ranking=tuple(fabricated), weight=1.0)
grounded, violations = validate_ballot(ghost_ballot, scenario.catalog)
# every agent starts a stream at weight 1.0
weight = update_reliability(1.0, violations, len(ghost_ballot.ranking))
print(f"after one fabricated item in {len(ghost_ballot.ranking)}: "
      f"weight {weight:.4f}, kept {list(grounded.ranking)}")

# garbage never reaches a ballot at all
try:
    parse_response(b'{"items": "not-a-list", "justification": 3}', k=4)
except AdapterMalformed as exc:
    print(f"malformed reply rejected: {exc}")
