"""Command-line interface: analyze, agree, convert, search, gen.

Exit codes: 0 when the verdict holds or is vacuous (and for successful
conversions/generation), 1 when a verdict is violated or a search finds
violations, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ScenarioError
from .scenario import (
    parse_scenario,
    run_agree,
    run_analyze,
    run_convert,
    run_gen,
    run_search,
    serialize_scenario,
)
from .verdicts import VerdictStatus

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT_ERROR = 2

_LAYERS = ("classical", "quantum", "gpt")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a machine-readable report")
    p.add_argument("--tol", type=float, default=None, help="matching tolerance override")
    p.add_argument(
        "--max-iters", type=int, default=None,
        help="safety bound on the common-knowledge fixpoint (default n_worlds+1)",
    )


def _add_model_flags(p: argparse.ArgumentParser, seed_help: str | None) -> None:
    """The seed and model-shape flags that ``search`` and ``gen`` share."""
    p.add_argument("--seed", type=int, default=0, help=seed_help)
    p.add_argument("--worlds", type=int, default=6)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--cone", default="simplex", choices=["simplex", "psd", "polyhedral"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aumann",
        description="Agreement-theorem checks on finite knowledge models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full knowledge analysis of a scenario")
    p_analyze.add_argument("file", help="scenario file")
    _add_common_flags(p_analyze)

    p_agree = sub.add_parser("agree", help="verify the agreement theorem on a scenario")
    p_agree.add_argument("file", help="scenario file")
    _add_common_flags(p_agree)

    p_convert = sub.add_parser("convert", help="convert quantum scenarios between DOVM and POVM form")
    p_convert.add_argument("file", help="scenario file")
    p_convert.add_argument("--direction", required=True, choices=["dovm2povm", "povm2dovm"])
    p_convert.add_argument("--out", default=None, help="output path (default: stdout)")

    p_search = sub.add_parser("search", help="run seeded scenarios and tally verdicts")
    p_search.add_argument("--layer", required=True, choices=_LAYERS)
    p_search.add_argument("--seeds", type=int, required=True, help="number of scenarios")
    _add_model_flags(p_search, "base seed")
    p_search.add_argument("--mode", default="mix", choices=["mix", "planted", "random"])
    p_search.add_argument("--workers", type=int, default=1)
    p_search.add_argument("--json", action="store_true")
    p_search.add_argument("--tol", type=float, default=None)

    p_gen = sub.add_parser("gen", help="generate a scenario file")
    p_gen.add_argument("--layer", required=True, choices=_LAYERS)
    _add_model_flags(p_gen, None)
    p_gen.add_argument("--random", action="store_true", help="unconstrained instead of planted")
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")

    return parser


def _load(path: str):
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _print(result, as_json: bool) -> None:
    """Write a report or search stats to stdout, as JSON or as text."""
    sys.stdout.write(json.dumps(result.to_json_dict(), indent=2) + "\n" if as_json else result.to_text())


def _verdict_exit_code(report) -> int:
    if report.verdict is not None and report.verdict.status is VerdictStatus.VIOLATED:
        return EXIT_VIOLATED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("analyze", "agree"):
            sf = _load(args.file)
            run = run_analyze if args.command == "analyze" else run_agree
            report = run(sf, tol=args.tol, max_iters=args.max_iters)
            _print(report, args.json)
            return _verdict_exit_code(report)

        if args.command == "convert":
            sf = _load(args.file)
            _emit(serialize_scenario(run_convert(sf, args.direction)), args.out)
            return EXIT_OK

        shape = {"n_worlds": args.worlds, "n_agents": args.agents, "dim": args.dim, "cone_kind": args.cone}
        if args.command == "search":
            stats = run_search(
                args.layer, args.seeds, base_seed=args.seed, mode=args.mode, workers=args.workers, tol=args.tol, **shape
            )
            _print(stats, args.json)
            return EXIT_VIOLATED if stats.violations else EXIT_OK

        if args.command == "gen":
            _emit(serialize_scenario(run_gen(args.layer, args.seed, planted=not args.random, **shape)), args.out)
            return EXIT_OK

        raise AssertionError(f"unhandled command {args.command!r}")
    except (ScenarioError, OSError, ValueError, RuntimeError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
