"""Command-line entry point.

    chowcalc run <script-file> [--format human|json] [--seed N]
    chowcalc lemmas (--all | --id ID | --list) [--format ...] [--seed N]
    chowcalc eval <expression> --context <presentation.json> [--format ...]

Exit codes: 0 all assertions passed, 1 an assertion failed or errored,
2 parse or usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import registry
from .report import Report, emit_report
from .script import Env, ParseError, eval_expr, parse_script, run_scenario
from .varieties import load_presentation


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "json"), default="human")
    common.add_argument("--seed", type=int, default=None,
                        help="fix the run seed; with a seed, report bytes are stable")
    parser = argparse.ArgumentParser(
        prog="chowcalc",
        description="symbolic intersection-theory engine and scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="run a scenario script file")
    p_run.add_argument("script", help="path to the script file")

    p_lem = sub.add_parser("lemmas", parents=[common], help="run built-in verification scenarios")
    group = p_lem.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run the whole registry")
    group.add_argument("--id", dest="record_id", help="run a single scenario by id")
    group.add_argument("--list", action="store_true", help="list scenario ids")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a class expression in a saved context")
    p_eval.add_argument("expression")
    p_eval.add_argument("--context", required=True, help="presentation JSON file")
    return parser


def _emit(report: Report, fmt: str, stable: bool) -> int:
    sys.stdout.buffer.write(emit_report(report, fmt, stable=stable))
    sys.stdout.flush()
    return report.exit_status()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    stable = args.seed is not None

    if args.command == "run":
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            script = parse_script(text)
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        report = run_scenario(script, script_id=args.script, seed=args.seed)
        return _emit(report, args.format, stable)

    if args.command == "lemmas":
        if args.list:
            for rec in registry.all_records():
                print(f"{rec.id}: {rec.statement}")
            return 0
        if args.record_id:
            try:
                report = registry.run(args.record_id, seed=args.seed)
            except KeyError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            report = registry.run_all(seed=args.seed)
        return _emit(report, args.format, stable)

    if args.command == "eval":
        try:
            pres = load_presentation(args.context)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load context: {exc}", file=sys.stderr)
            return 2
        try:
            script = parse_script(args.expression)
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        if len(script.forms) != 1:
            print("error: eval expects exactly one expression", file=sys.stderr)
            return 2
        env = Env()
        env.define(pres.name, pres)
        env.current = pres
        try:
            value = eval_expr(env, script.forms[0])
        except Exception as exc:  # an evaluation error is a message, not a traceback
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        print(str(value))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
