"""Command-line entry points.

Every subcommand takes a scenario file plus optional seed/output
overrides, runs its checks, writes a result table and summary, and exits
with status 0 iff all enabled checks passed.
"""

from __future__ import annotations

import argparse
import sys

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

_DEFAULT_OUT = {
    "value": "results/value",
    "simulate": "results/simulate",
    "experiment": "results/experiment",
    "corollary": "results/corollary",
    "check-lemma1": "results/lemma1",
    "check-lemma2": "results/lemma2",
    "oracle": "results/oracle",
}


def _add_common(parser):
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--out", default=None,
                        help="output path prefix (writes <out>.csv and <out>.json)")


def _worker_count(text):
    """argparse type of ``--workers``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chainguide",
        description="Controlled particle-chain games: simulation, value, "
                    "guided strategies, and bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="solve the game value on the grid")
    _add_common(p)
    p.add_argument("--export-field", default=None,
                   help="also write the solved value field to this file")

    p = sub.add_parser("simulate", help="record fully logged episodes")
    _add_common(p)

    p = sub.add_parser("experiment",
                       help="guarantee bounds for the minimizing player")
    _add_common(p)
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="worker processes for trial fan-out (at most one per trial)")

    p = sub.add_parser("corollary",
                       help="mirrored guarantee bounds for the maximizing player")
    _add_common(p)
    p.add_argument("--workers", type=_worker_count, default=1)

    p = sub.add_parser("check-lemma1",
                       help="one-step transition-probability expansion check")
    _add_common(p)

    p = sub.add_parser("check-lemma2", help="one-step coupling estimate check")
    _add_common(p)

    p = sub.add_parser("oracle", help="simulator-versus-forward-equation check")
    _add_common(p)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = Scenario.load(args.scenario)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scenario.seed = args.seed
    out = args.out or scenario.out or _DEFAULT_OUT[args.command]

    try:
        if args.command == "value":
            result = run_value(scenario, export_field=args.export_field)
        elif args.command == "simulate":
            result = run_simulate(scenario)
        elif args.command == "experiment":
            result = run_theorem1_experiment(scenario, workers=args.workers)
        elif args.command == "corollary":
            result = run_corollary_experiment(scenario, workers=args.workers)
        elif args.command == "check-lemma1":
            result = run_lemma1_check(scenario)
        elif args.command == "check-lemma2":
            result = run_lemma2_check(scenario)
        elif args.command == "oracle":
            result = run_oracle_check(scenario)
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(args.command)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    table_path, summary_path = emit_results(result, out)
    status = "pass" if result.passed else "FAIL"
    print(f"{args.command}: {status} ({len(result.rows)} row(s); "
          f"table {table_path}, summary {summary_path})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
