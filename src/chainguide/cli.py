"""Command-line entry points.

Every subcommand takes a scenario file plus optional seed/output
overrides, runs its checks, writes a result table and summary, and exits
with status 0 iff all enabled checks passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, NamedTuple

from .harness import (
    Scenario,
    ScenarioError,
    emit_results,
    run_corollary_experiment,
    run_lemma1_check,
    run_lemma2_check,
    run_oracle_check,
    run_simulate,
    run_theorem1_experiment,
    run_value,
)


def _worker_count(text):
    """argparse type of ``--workers``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


class Command(NamedTuple):
    """A subcommand: its harness entry point, help text and own flags."""

    run: Callable
    help: str
    flags: tuple = ()  # (flag, add_argument keywords); the value goes to ``run`` by dest


_WORKERS = ("--workers", {"type": _worker_count, "default": 1,
                          "help": "worker processes for trial fan-out (at most one per trial)"})

COMMANDS = {
    "value": Command(run_value, "solve the game value on the grid", (
        ("--export-field", {"default": None,
                            "help": "also write the solved value field to this file"}),)),
    "simulate": Command(run_simulate, "record fully logged episodes"),
    "experiment": Command(run_theorem1_experiment,
                          "guarantee bounds for the minimizing player", (_WORKERS,)),
    "corollary": Command(run_corollary_experiment,
                         "mirrored guarantee bounds for the maximizing player", (_WORKERS,)),
    "check-lemma1": Command(run_lemma1_check, "one-step transition-probability expansion check"),
    "check-lemma2": Command(run_lemma2_check, "one-step coupling estimate check"),
    "oracle": Command(run_oracle_check, "simulator-versus-forward-equation check"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chainguide",
        description="Controlled particle-chain games: simulation, value, "
                    "guided strategies, and bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--out", default=None,
                       help="output path prefix (writes <out>.csv and <out>.json; "
                            "default results/<kind>)")
        options = [p.add_argument(flag, **keywords).dest for flag, keywords in command.flags]
        p.set_defaults(options=options)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = Scenario.load(args.scenario)
        if args.seed is not None:
            # replace re-runs the scenario's validation on the new seed
            scenario = dataclasses.replace(scenario, seed=args.seed)
        result = COMMANDS[args.command].run(
            scenario, **{dest: getattr(args, dest) for dest in args.options})
        table_path, summary_path = emit_results(
            result, args.out or scenario.out or f"results/{result.kind}")
    except (OSError, ScenarioError) as exc:
        # a bad scenario, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = "pass" if result.passed else "FAIL"
    print(f"{args.command}: {status} ({len(result.rows)} row(s); "
          f"table {table_path}, summary {summary_path})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
