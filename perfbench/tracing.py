"""Span recording for the traced benchmark run.

While a ``Tracer`` is installed, wrappers replace public attributes of the
agorank modules.  Each timed wrapper records one span per call: its name,
start, end, the index of its parent span and the id of the query being
processed.  Count-only wrappers record how often a function ran, without a
span, where a span per call would cost more than the call itself.  Spans stay
in memory until ``write_spans``.

A span's self time is its duration minus the time its child spans cover.
Wrappers never change arguments or results, so the traced run must write the
same bytes as the untraced one; the benchmark checks that it does.

Two dispatch paths need care:

- rules run through ``aggregation._RULES``, which holds the original
  functions, so the rule itself is timed as the self time of
  ``orchestrator.aggregate`` (tagged with the rule of its ``RuleConfig``)
  minus its ``pairwise_tally`` and ``influence_loo`` children;
- ``evaluate_metric`` is bound twice: ``orchestrator.evaluate_metric``
  monitors each query, ``metrics.evaluate_metric`` runs inside
  ``build_report``.  Both are wrapped, under different span names.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from agorank import adapter, agents, aggregation, dataio, metrics, orchestrator


class Tracer:
    """In-memory span and count recorder for one traced replay at a time."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index (-1 for a root), query id, child seconds]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self.query_id: str | None = None

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.query_id = None

    def timed(
        self,
        name: str | Callable[[tuple], str],
        fn: Callable,
        on_result: Callable[["Tracer", tuple, object], None] | None = None,
        query_of: Callable[[tuple], str] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so that each call records a span.

        ``name`` is a span name or a function of the call's positional
        arguments; ``on_result`` sees the arguments and the result of each
        call that returns; ``query_of`` names the query that this call and
        every span opened inside it belong to.
        """
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if query_of is not None:
                self.query_id = query_of(args)
            stack = self._stack
            parent = stack[-1] if stack else -1
            span = [label, clock(), 0.0, parent, self.query_id, 0.0]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[label + ".failed"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += span[2] - span[1]
                if query_of is not None:
                    self.query_id = None
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that each call only increments ``counts[name]``."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_seconds(self) -> Counter[str]:
        """Self time per span name over every recorded span."""
        totals: Counter[str] = Counter()
        for name, start, end, _, _, child in self.spans:
            totals[name] += end - start - child
        return totals

    def calls(self) -> Counter[str]:
        """Number of spans per name."""
        return Counter(span[0] for span in self.spans)

    def stream_shares(self) -> dict[str, float]:
        """Share of the query stream spent in aggregation, and in agents plus metrics.

        The stream is every ``orchestrator.process_query`` span; a layer's
        share is the self time of its spans opened while a query ran.
        """
        stream = sum(
            end - start
            for name, start, end, *_ in self.spans
            if name == "orchestrator.process_query"
        )
        if stream == 0.0:
            return {"aggregation": 0.0, "agents_metrics": 0.0}
        by_layer: Counter[str] = Counter()
        for name, start, end, _, query_id, child in self.spans:
            if query_id is not None:
                by_layer[name.split(".", 1)[0]] += end - start - child
        return {
            "aggregation": by_layer["aggregation"] / stream,
            "agents_metrics": (by_layer["agents"] + by_layer["metrics"]) / stream,
        }

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON Lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, query_id, _) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None if parent < 0 else parent,
                    "query_id": query_id,
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _query_of(args: tuple) -> str:
    query, config = args[0], args[5]
    return f"{config.rule.value}/{query.id}"


def _on_query(tracer: Tracer, args: tuple, result: object) -> None:
    outcome, _ = result
    tracer.counts["orchestrator.agents_voting"] += len(outcome.per_agent_ballots)


def _on_select(tracer: Tracer, args: tuple, result: object) -> None:
    _, skipped = result
    tracer.counts["orchestrator.agents_benched"] += sum(
        1 for reason in skipped.values() if reason == orchestrator.SKIP_REASON_MET
    )


def _on_aggregate(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["aggregation.tie_events"] += len(result.tiebreak_trace)
    if args[1].rule.value == "kemeny":
        tracer.counts["aggregation.kemeny_runs"] += 1
        if result.rule == "kemeny":
            tracer.counts["aggregation.kemeny_exact"] += 1


def _on_request(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["adapter.request_bytes"] += len(result)


def _on_write_report(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["dataio.report_bytes"] += sum(Path(p).stat().st_size for p in result)


def _on_save_outcomes(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["dataio.outcomes_bytes"] += Path(args[2]).stat().st_size


def _patches(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """(module, attribute, replacement) for every traced boundary."""

    def timed(module, attr, name=None, on_result=None, query_of=None):
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        return module, attr, tracer.timed(label, original, on_result, query_of)

    def counted(module, attr, name):
        return module, attr, tracer.counted(name, getattr(module, attr))

    return [
        timed(orchestrator, "process_query", on_result=_on_query, query_of=_query_of),
        timed(orchestrator, "select_agents", on_result=_on_select),
        timed(orchestrator, "validate_ballot", "model.validate_ballot"),
        timed(
            orchestrator,
            "aggregate",
            lambda args: f"aggregation.aggregate.{args[1].rule.value}",
            _on_aggregate,
        ),
        timed(orchestrator, "evaluate_metric", "metrics.evaluate_metric.monitor"),
        timed(
            aggregation,
            "influence_loo",
            lambda args: f"aggregation.influence_loo.{args[1].rule.value}",
        ),
        timed(aggregation, "pairwise_tally"),
        counted(aggregation, "kemeny_distance", "aggregation.kemeny_distance.calls"),
        counted(aggregation, "kendall_tau", "model.kendall_tau.calls"),
        timed(agents, "generate_relevance"),
        timed(agents, "generate_provider_exposure"),
        timed(agents, "generate_popularity_mitigation"),
        timed(adapter, "request_external"),
        timed(adapter, "build_request", on_result=_on_request),
        timed(adapter, "mock_serve"),
        timed(adapter, "parse_response"),
        timed(metrics, "evaluate_metric", "metrics.evaluate_metric.report"),
        timed(metrics, "relevance_map"),
        timed(metrics, "build_report"),
        timed(dataio, "load_scenario"),
        timed(dataio, "generate_catalog"),
        timed(dataio, "generate_synthetic"),
        timed(dataio, "write_report", on_result=_on_write_report),
        timed(dataio, "save_outcomes", on_result=_on_save_outcomes),
        timed(dataio, "load_outcomes"),
        timed(dataio, "catalog_hash"),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Replace the traced module attributes for the duration of the block."""
    patches = _patches(tracer)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
