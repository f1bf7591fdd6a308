"""Multistakeholder recommendation: stakeholder agents generate candidate
rankings, social-choice rules build a consensus, and a fairness battery
evaluates the result for every party.
"""

from .aggregation import (
    KemenyMemo,
    PairwiseTally,
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
from .agents import (
    AgentObjective,
    AgentSpec,
    ExposureLedger,
    generate_candidates,
    generate_popularity_mitigation,
    generate_provider_exposure,
    generate_relevance,
    update_reliability,
)
from .dataio import (
    PersonaParams,
    PortableRng,
    Scenario,
    export_catalog,
    generate_catalog,
    generate_synthetic,
    load_catalog,
    load_outcomes,
    load_scenario,
    save_outcomes,
    write_report,
)
from .errors import (
    AdapterMalformed,
    AdapterTimeout,
    AgorankError,
    DuplicateItemId,
    EmptyAfterGrounding,
    LengthMismatch,
    MalformedRecord,
    MissingRequiredField,
    NoActiveAgents,
    NoCandidates,
    NotNormalized,
    PoolMismatch,
    SchemaError,
    UndefinedBaseline,
    UnknownMetricDirection,
    UnknownMetricId,
    UnknownRule,
    ZeroMass,
)
from .metrics import (
    EvaluationReport,
    MetricId,
    build_report,
    divergence,
    evaluate_metric,
    fairness_regret,
    gini_exposure,
    l_half_balance,
    metric_direction,
    ndcg_at_k,
    normalized_entropy,
    poplift,
    recall_at_k,
)
from .model import (
    AggregateResult,
    Ballot,
    Catalog,
    Constraint,
    Item,
    PreferenceProfile,
    Query,
    StakeholderRole,
    TieEvent,
    candidate_pool,
    kendall_tau,
    validate_ballot,
)
from .orchestrator import (
    ActivationMode,
    ActivationPolicy,
    FairnessLedger,
    QueryOutcome,
    candidate_count_policy,
    compatibility,
    process_query,
    run_stream,
    select_agents,
)

__version__ = "0.1.0"
