"""Best-of-R benchmark of agorank's run, compare and evaluate flows.

One replay of a workload does what the CLI does, step by step: load the
scenario, process the query stream under each rule over a fresh fairness
ledger, build and write the report, save the outcomes, then replay
``evaluate`` from the saved outcomes.  Every replay does identical work, so
the benchmark replays the workload a fixed R times in one process and keeps,
for each query and for each one-off step, its fastest time.  That estimate is
steadier on a shared host than any single timing.  R is set per workload, so
a faster program gets no more replays than a slower one.

Each replay also checks the bytes it wrote: the ``evaluate`` report must equal
the ``run`` report, every replay must write what the first one wrote, a
traced replay must write what an untraced one wrote, and at the default seed
the files must match the digests in ``digests.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from agorank import dataio, metrics, orchestrator
from agorank.aggregation import Rule

import tracing

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 7
RULES = tuple(rule.value for rule in Rule)
REPORT_SUFFIXES = (".report.json", ".metrics.csv", ".summary.md")


@dataclass(frozen=True)
class Workload:
    """A scenario and the rules its stream runs under.

    ``rules`` empty means the scenario's own rule (the ``run`` flow);
    otherwise the stream runs under each rule (the ``compare`` flow).
    ``replays`` is R, sized so that R replays take 40 to 50 s of the default
    60 s on a 2.1 GHz Xeon vCPU.  ``setup_repeats`` is how often
    an untraced replay loads the scenario; the fastest load counts.
    """

    name: str
    scenario: str
    rules: tuple[str, ...] = ()
    replays: int = 3
    setup_repeats: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rules-200",
            "builtin:synthetic-200",
            rules=RULES,
            replays=10,
            setup_repeats=20,
        ),
        Workload(
            "council-2k",
            str(HERE / "scenarios" / "council-2k.json"),
            replays=15,
            setup_repeats=4,
        ),
        Workload(
            "catalog-20k",
            str(HERE / "scenarios" / "catalog-20k.json"),
            replays=5,
            setup_repeats=2,
        ),
    )
}

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "run_s": "s",
    "evaluate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> per-layer metric holding its self time
_SELF_TIME = {
    **{f"aggregation.aggregate.{r}": f"aggregation.aggregate.{r}.s" for r in RULES},
    **{f"aggregation.influence_loo.{r}": f"aggregation.influence_loo.{r}.s" for r in RULES},
    **{
        name: name + ".s"
        for name in (
            "aggregation.pairwise_tally",
            "model.validate_ballot",
            "agents.generate_relevance",
            "agents.generate_provider_exposure",
            "agents.generate_popularity_mitigation",
            "metrics.relevance_map",
            "metrics.build_report",
            "adapter.request_external",
            "adapter.build_request",
            "adapter.mock_serve",
            "adapter.parse_response",
            "orchestrator.select_agents",
            "dataio.load_scenario",
            "dataio.generate_catalog",
            "dataio.generate_synthetic",
            "dataio.write_report",
            "dataio.save_outcomes",
            "dataio.load_outcomes",
            "dataio.catalog_hash",
        )
    },
    "metrics.evaluate_metric.monitor": "metrics.evaluate_metric.monitor_s",
    "metrics.evaluate_metric.report": "metrics.evaluate_metric.report_s",
    "orchestrator.process_query": "orchestrator.process_query.self_s",
}
# spans whose number of calls is a per-layer metric
_SPAN_CALLS = (
    "aggregation.pairwise_tally",
    "agents.generate_relevance",
    "agents.generate_provider_exposure",
    "agents.generate_popularity_mitigation",
    "metrics.relevance_map",
    "adapter.request_external",
    "dataio.catalog_hash",
)
# tracer counters that are per-layer metrics, with their units
_COUNTERS = {
    "aggregation.kemeny_distance.calls": "count",
    "model.kendall_tau.calls": "count",
    "aggregation.tie_events": "count",
    "orchestrator.agents_voting": "count",
    "orchestrator.agents_benched": "count",
    "adapter.request_external.failed": "count",
    "adapter.request_bytes": "bytes",
    "dataio.report_bytes": "bytes",
    "dataio.outcomes_bytes": "bytes",
}
PER_LAYER_UNITS = {
    **{metric: "s" for metric in _SELF_TIME.values()},
    **{f"{name}.calls": "count" for name in _SPAN_CALLS},
    **_COUNTERS,
    "aggregation.kemeny_exact_share": "share",
    "orchestrator.process_query.s": "s",
    "stream.aggregation_share": "share",
    "stream.agents_metrics_share": "share",
    "trace.overhead.queries_per_s": "1/s",
    "trace.overhead.evaluate_s": "s",
}
# per-layer metrics that are exact and must repeat from replay to replay
EXACT_LAYER_METRICS = tuple(
    m for m, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")
) + ("aggregation.kemeny_exact_share",)


@dataclass
class Replay:
    """What one replay measured and wrote."""

    seconds: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    queries: int = 0
    queries_failed: int = 0
    checks: int = 0
    checks_failed: int = 0
    layers: dict[str, float] = field(default_factory=dict)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _timed(seconds: dict[str, float], key: str, fn, *args, **kwargs):
    """Call ``fn``, keeping its fastest wall time in ``seconds[key]``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds[key] = min(seconds.get(key, float("inf")), time.perf_counter() - t0)
    return result


def replay(workload: Workload, seed: int, out_dir: Path, setup_repeats: int) -> Replay:
    """Run the workload's run (or compare) and evaluate bodies once."""
    rep = Replay()
    t = rep.seconds
    for _ in range(setup_repeats):
        scenario = _timed(
            t, "setup", dataio.load_scenario, workload.scenario, seed_override=seed
        )
    if workload.rules:
        configs = [replace(scenario.rule_config, rule=Rule(r)) for r in workload.rules]
    else:
        configs = [scenario.rule_config]
    agent_ids = [a.agent_id for a in scenario.agents]

    streams = {}
    for config in configs:
        rule = config.rule.value
        ledger = orchestrator.FairnessLedger(agent_ids, scenario.policy.window)
        outcomes = []
        for query in scenario.queries:
            rep.queries += 1
            t0 = time.perf_counter()
            try:
                outcome, ledger = orchestrator.process_query(
                    query,
                    scenario.agents,
                    scenario.catalog,
                    ledger,
                    scenario.policy,
                    config,
                )
            except Exception:  # noqa: BLE001 - a failed query is counted, not fatal
                traceback.print_exc()
                rep.queries_failed += 1
                continue
            t[f"query/{rule}/{query.id}"] = time.perf_counter() - t0
            outcomes.append(outcome)
        streams[rule] = outcomes

    runs = {
        rule: (
            _timed(
                t, f"build_report/{rule}", metrics.build_report,
                outcomes, scenario.agents, scenario.catalog,
            ),
            outcomes,
        )
        for rule, outcomes in streams.items()
    }
    _timed(t, "write_report", dataio.write_report, runs, out_dir / "run", scenario.name)
    saved = {rule: out_dir / f"{rule}.outcomes.json" for rule in streams}
    for rule, outcomes in streams.items():
        args = (outcomes, scenario.catalog, saved[rule], scenario.name, rule)
        if workload.rules:
            # compare saves no outcomes: these are evaluate's input, untimed
            dataio.save_outcomes(*args)
        else:
            _timed(t, f"save_outcomes/{rule}", dataio.save_outcomes, *args)

    rebuilt = {}
    for rule, path in saved.items():
        outcomes, _, rule_name = _timed(
            t, f"load_outcomes/{rule}", dataio.load_outcomes, path, scenario.catalog
        )
        # evaluate builds and writes what run built and wrote, from equal
        # outcomes, so both calls are samples of one step
        report = _timed(
            t, f"build_report/{rule}", metrics.build_report,
            outcomes, scenario.agents, scenario.catalog,
        )
        rebuilt[rule_name or "run"] = (report, outcomes)
    _timed(t, "write_report", dataio.write_report, rebuilt, out_dir / "eval", scenario.name)

    for suffix in REPORT_SUFFIXES:
        run_digest = _sha256(out_dir / f"run{suffix}")
        rep.digests[f"run{suffix}"] = run_digest
        rep.checks += 1
        if _sha256(out_dir / f"eval{suffix}") != run_digest:
            rep.checks_failed += 1
            print(f"check failed: evaluate rewrote run{suffix} differently", file=sys.stderr)
    for rule, path in saved.items():
        rep.digests[path.name] = _sha256(path)
    return rep


def replays(
    workload: Workload,
    seed: int,
    out_dir: Path,
    count: int,
    cap_seconds: float = float("inf"),
    tracer: tracing.Tracer | None = None,
) -> list[Replay]:
    """Replay ``count`` times, starting no new replay after ``cap_seconds``.

    The first two replays run whatever the cap.  With a tracer, each replay is
    traced and loads the scenario once; its per-layer values are stored in
    ``Replay.layers``.
    """
    done: list[Replay] = []
    start = time.perf_counter()
    while len(done) < count and (len(done) < 2 or time.perf_counter() - start < cap_seconds):
        gc.collect()
        if tracer is None:
            done.append(replay(workload, seed, out_dir, workload.setup_repeats))
            continue
        tracer.reset()
        with tracing.installed(tracer):
            rep = replay(workload, seed, out_dir, 1)
        rep.layers = layer_values(tracer)
        done.append(rep)
    return done


def layer_values(tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced replay (all but the tracing overhead)."""
    values = {metric: 0.0 for metric in PER_LAYER_UNITS}
    for name, self_s in tracer.self_seconds().items():
        if name in _SELF_TIME:
            values[_SELF_TIME[name]] = self_s
    calls = tracer.calls()
    for name in _SPAN_CALLS:
        values[f"{name}.calls"] = calls[name]
    for name in _COUNTERS:
        values[name] = tracer.counts[name]
    runs = tracer.counts["aggregation.kemeny_runs"]
    if runs:
        values["aggregation.kemeny_exact_share"] = tracer.counts["aggregation.kemeny_exact"] / runs
    values["orchestrator.process_query.s"] = sum(
        end - start for name, start, end, *_ in tracer.spans if name == "orchestrator.process_query"
    )
    shares = tracer.stream_shares()
    values["stream.aggregation_share"] = shares["aggregation"]
    values["stream.agents_metrics_share"] = shares["agents_metrics"]
    return values


def best_seconds(done: list[Replay]) -> dict[str, float]:
    """Fastest time of every step and query over the replays that ran it."""
    best: dict[str, float] = {}
    for rep in done:
        for key, value in rep.seconds.items():
            best[key] = min(best.get(key, float("inf")), value)
    return best


def step_seconds(best: dict[str, float], step: str) -> float:
    """Sum of the best times of a step over its rules (``<step>/<rule>`` keys)."""
    return sum(v for k, v in best.items() if k.split("/", 1)[0] == step)


def end_to_end(done: list[Replay]) -> tuple[dict[str, float], int]:
    """End-to-end metrics (without peak RSS) and the per-query sample count."""
    best = best_seconds(done)
    samples = sorted(v for k, v in best.items() if k.startswith("query/"))
    if not samples:
        raise RuntimeError("no query completed in any replay")
    stream_s = sum(samples)
    setup_s = step_seconds(best, "setup")
    report_s = step_seconds(best, "build_report")
    write_s = step_seconds(best, "write_report")
    return (
        {
            "queries_per_s": len(samples) / stream_s,
            "query_ms_p50": 1000.0 * statistics.median(samples),
            "query_ms_p90": 1000.0 * statistics.quantiles(samples, n=10)[8],
            "run_s": setup_s + stream_s + report_s + write_s + step_seconds(best, "save_outcomes"),
            "evaluate_s": step_seconds(best, "load_outcomes") + report_s + write_s,
            "setup_s": setup_s,
        },
        len(samples),
    )


@dataclass
class Tally:
    """Operations attempted and failed over a whole benchmark run."""

    attempted: int = 0
    failed: int = 0

    def add_replays(self, done: list[Replay]) -> None:
        for rep in done:
            self.attempted += rep.queries + rep.checks
            self.failed += rep.queries_failed + rep.checks_failed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _check_digests(
    tally: Tally, done: list[Replay], reference: dict[str, str], what: str, start: int = 0
) -> None:
    for index, rep in enumerate(done, start=start):
        tally.check(rep.digests == reference, f"{what} (replay {index})")


def measure(
    workload_name: str, seed: int, seconds: float, trace: bool, out_dir: Path
) -> tuple[dict, dict]:
    """Run the benchmark for one workload.

    Returns the result object and facts about the estimate (sample and
    replay counts) for the human-readable table.
    """
    workload = WORKLOADS[workload_name]
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    # a traced run splits R and the time between untraced and traced replays
    count = max(2, workload.replays // 2) if trace else workload.replays
    budget = seconds / 2 if trace else seconds
    untraced = replays(workload, seed, out_dir, count, budget)
    tally.add_replays(untraced)
    reference = untraced[0].digests
    _check_digests(tally, untraced[1:], reference, "a replay wrote other bytes than the first", 1)
    if seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload.name]
        tally.check(reference == recorded, "bytes differ from the recorded digests")
    e2e, samples = end_to_end(untraced)
    info = {"samples": samples, "replays": len(untraced)}

    if not trace:
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values, units = e2e, END_TO_END_UNITS
    else:
        tracer = tracing.Tracer()
        traced = replays(workload, seed, out_dir, count, budget, tracer)
        tracer.write_spans(out_dir.parent / f"{workload.name}.spans.jsonl")
        tally.add_replays(traced)
        _check_digests(tally, traced, reference, "a traced replay wrote other bytes")
        first = traced[0].layers
        for index, rep in enumerate(traced[1:], start=1):
            changed = [m for m in EXACT_LAYER_METRICS if rep.layers[m] != first[m]]
            tally.check(not changed, f"exact counts changed in traced replay {index}: {changed}")
        values = {
            m: first[m] if m in EXACT_LAYER_METRICS else min(r.layers[m] for r in traced)
            for m in PER_LAYER_UNITS
        }
        traced_e2e, _ = end_to_end(traced)
        values["trace.overhead.queries_per_s"] = traced_e2e["queries_per_s"] - e2e["queries_per_s"]
        values["trace.overhead.evaluate_s"] = traced_e2e["evaluate_s"] - e2e["evaluate_s"]
        units = PER_LAYER_UNITS
        info["traced_replays"] = len(traced)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    return result, info


def record_digests(out_dir: Path) -> dict[str, dict[str, str]]:
    """Digests of every workload's files at the default seed, from one replay each."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        name: replay(workload, DEFAULT_SEED, out_dir, 1).digests
        for name, workload in WORKLOADS.items()
    }
