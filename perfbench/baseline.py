"""Print the comparison tables of NOTES.md.

    python3 perfbench/baseline.py

Table 1 splits the rules-200 stream by rule.  Table 2 runs Borda over the
synthetic-200 personas (100 queries, static three-agent council) on
generated catalogs of 200, 2k and 20k items, at the default seed.  Every
time is a best of ``REPLAYS`` replays, as in run.py.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import tracing  # noqa: E402
from agorank import dataio  # noqa: E402

OUT = HERE.parent / ".perfbench_out" / "baseline"
SIZES = (200, 2000, 20000)
REPLAYS = 3


def per_rule_table() -> list[str]:
    workload = bench.WORKLOADS["rules-200"]
    best = bench.best_seconds(bench.replays(workload, bench.DEFAULT_SEED, OUT, REPLAYS))
    tracer = tracing.Tracer()
    bench.replays(workload, bench.DEFAULT_SEED, OUT, 1, tracer=tracer)
    # inclusive traced seconds: the stream of each rule, and its aggregate calls
    inclusive: Counter[str] = Counter()
    for name, start, end, _, query_id, _ in tracer.spans:
        if name == "orchestrator.process_query":
            inclusive["stream." + query_id.split("/")[0]] += end - start
        elif name.startswith("aggregation.aggregate."):
            inclusive[name] += end - start
    lines = [
        "| rule | stream s | query ms p50 | aggregate s (traced) | aggregate share (traced) |",
        "| --- | --- | --- | --- | --- |",
    ]
    for rule in bench.RULES:
        samples = [v for k, v in best.items() if k.startswith(f"query/{rule}/")]
        aggregate_s = inclusive[f"aggregation.aggregate.{rule}"]
        lines.append(
            f"| {rule} | {sum(samples):.3f} | {1000 * statistics.median(samples):.2f} "
            f"| {aggregate_s:.3f} | {aggregate_s / inclusive['stream.' + rule]:.2f} |"
        )
    return lines


def borda_size_table() -> list[str]:
    doc = json.loads(dataio.builtin_scenario_path("builtin:synthetic-200").read_text())
    lines = [
        "| items | run s | stream s | build_report s | evaluate s |",
        "| --- | --- | --- | --- | --- |",
    ]
    for size in SIZES:
        doc["catalog"]["synthetic"]["item_count"] = size
        path = OUT / f"borda-{size}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        workload = bench.Workload(f"borda-{size}", str(path))
        done = bench.replays(workload, bench.DEFAULT_SEED, OUT, REPLAYS)
        e2e, _ = bench.end_to_end(done)
        best = bench.best_seconds(done)
        stream = bench.step_seconds(best, "query")
        lines.append(
            f"| {size} | {e2e['run_s']:.3f} | {stream:.3f} | {bench.step_seconds(best, 'build_report'):.3f} "
            f"| {e2e['evaluate_s']:.3f} |"
        )
    return lines


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        print("\n".join(per_rule_table()))
        print()
        print("\n".join(borda_size_table()))
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
