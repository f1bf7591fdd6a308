"""Batch driver: run scenarios, compare aggregation rules, replay saved
outcomes into reports.

Stream discipline: stdout carries only the human summary, report files carry
the machine-readable artifacts, logs go to stderr.  Exit codes are a stable
contract: 0 success, 1 internal error, 2 unreadable or invalid input
(scenario, outcomes, catalog hash mismatch), 3 no active agents.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import replace

from . import dataio
from .aggregation import Rule
from .errors import AgorankError, NoActiveAgents
from .metrics import build_report
from .orchestrator import run_stream

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_NO_AGENTS = 3

ALL_RULES = (Rule.BORDA, Rule.COPELAND, Rule.RANKED_PAIRS, Rule.KEMENY)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agorank",
        description="Multistakeholder recommendation: run scenarios, compare "
        "voting rules, evaluate saved outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            required=True,
            help="scenario file path or builtin:<name> (tourism, synthetic-200)",
        )
        p.add_argument("--out", required=True, help="output path prefix for report files")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    def add_adapter_url(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--adapter-url",
            default=None,
            help="external adapter endpoint (overrides FAIR_AGENTS_ADAPTER_URL)",
        )

    p_run = sub.add_parser("run", help="process a scenario's query stream")
    add_common(p_run)
    add_adapter_url(p_run)
    p_run.add_argument("--rule", default=None, help="override the scenario's rule")
    p_run.add_argument(
        "--save-outcomes", default=None, help="also write replayable outcomes JSON here"
    )

    p_cmp = sub.add_parser("compare", help="run the same stream once per rule")
    add_common(p_cmp)
    add_adapter_url(p_cmp)
    p_cmp.add_argument(
        "--rule",
        default="all",
        help="single rule name or 'all' (default: all four rules)",
    )

    p_eval = sub.add_parser("evaluate", help="rebuild a report from saved outcomes")
    add_common(p_eval)
    p_eval.add_argument("--outcomes", required=True, help="outcomes JSON from run --save-outcomes")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    scenario = dataio.load_scenario(args.scenario, seed_override=args.seed)
    rule_config = scenario.rule_config
    if args.rule is not None:
        rule_config = replace(rule_config, rule=dataio.parse_rule_name(args.rule))
    outcomes, _ = run_stream(
        scenario.queries,
        scenario.agents,
        scenario.catalog,
        scenario.policy,
        rule_config,
        adapter_url=args.adapter_url,
    )
    report = build_report(outcomes, scenario.agents, scenario.catalog)
    rule_name = rule_config.rule.value
    files = dataio.write_report({rule_name: (report, outcomes)}, args.out, scenario.name)
    if args.save_outcomes:
        dataio.save_outcomes(
            outcomes, scenario.catalog, args.save_outcomes, scenario.name, rule_name
        )
        files.append(args.save_outcomes)
    print(
        f"scenario {scenario.name}: {len(scenario.queries)} queries, "
        f"rule {rule_name}, {len(scenario.agents)} agents"
    )
    print("wrote " + ", ".join(str(f) for f in files))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = dataio.load_scenario(args.scenario, seed_override=args.seed)
    if args.rule == "all":
        rules = ALL_RULES
    else:
        rules = (dataio.parse_rule_name(args.rule),)
    runs = {}
    for rule in rules:
        # fresh ledger per rule: rule choice is the experimental variable,
        # exposure history must not leak across runs
        outcomes, _ = run_stream(
            scenario.queries,
            scenario.agents,
            scenario.catalog,
            scenario.policy,
            replace(scenario.rule_config, rule=rule),
            adapter_url=args.adapter_url,
        )
        runs[rule.value] = (
            build_report(outcomes, scenario.agents, scenario.catalog),
            outcomes,
        )
    files = dataio.write_report(runs, args.out, scenario.name)
    print(
        f"scenario {scenario.name}: {len(scenario.queries)} queries compared "
        f"across {len(rules)} rule(s): {', '.join(r.value for r in rules)}"
    )
    print("wrote " + ", ".join(str(f) for f in files))
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    scenario = dataio.load_scenario(args.scenario, seed_override=args.seed)
    outcomes, _, rule_name = dataio.load_outcomes(args.outcomes, scenario.catalog)
    report = build_report(outcomes, scenario.agents, scenario.catalog)
    files = dataio.write_report(
        {rule_name or "run": (report, outcomes)}, args.out, scenario.name
    )
    print(f"rebuilt report from {args.outcomes}: {len(outcomes)} queries")
    print("wrote " + ", ".join(str(f) for f in files))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "compare": cmd_compare, "evaluate": cmd_evaluate}
    t0 = time.perf_counter()
    try:
        code = handlers[args.command](args)
    except NoActiveAgents as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_AGENTS
    except AgorankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, never crashes
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    logging.getLogger("agorank").info(
        "total wall time %.3fs", time.perf_counter() - t0
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
