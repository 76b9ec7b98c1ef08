"""Command-line interface.

Subcommands: `run` replays a scenario to an output document, `ssq` scores a
three-questionnaire protocol, `level` maps a play score to its level.

Exit codes: 0 success, 2 usage, 3 parse failure (bad or unreadable file),
4 validation failure (a value violating a documented invariant), 5 output
failure (the document could not be written; nothing partial is left).

`console_main` is the process entry (`python -m focusray.cli` and the
`focusray` script); `main(argv)` runs the same command in the caller's
process and leaves its collector as it is.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import GeometryError, OutputError, ParseError, ValidationError
from .simulate import level_for_score, run_scenario, score_ssq_files

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_OUTPUT = 5


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"score must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"score must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focusray",
        description="Deterministic focus-selection replay, comfort analysis, and questionnaire scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay a scenario and write the output document")
    run_p.add_argument("--scene", required=True, help="scene file (one object per line)")
    run_p.add_argument("--trajectory", required=True, help="recorded camera trajectory file")
    run_p.add_argument("--config", required=True, help="key = value config file")
    run_p.add_argument("--out", required=True, help="output document path")
    run_p.add_argument("--no-focus", action="store_true", help="skip focus selection; keep the comfort report")

    ssq_p = sub.add_parser("ssq", help="score a profile plus three questionnaires")
    ssq_p.add_argument("--q1", required=True, help="pre-exposure questionnaire file")
    ssq_p.add_argument("--q2", required=True, help="questionnaire after session one")
    ssq_p.add_argument("--q3", required=True, help="questionnaire after session two")
    ssq_p.add_argument("--profile", required=True, help="participant profile file")
    ssq_p.add_argument("--out", required=True, help="output document path")

    level_p = sub.add_parser("level", help="map a play score to its level")
    level_p.add_argument("score", type=_non_negative_int, help="non-negative integer score")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_OK

    try:
        if args.command == "run":
            run_scenario(args.scene, args.trajectory, args.config, args.out, no_focus=args.no_focus)
        elif args.command == "ssq":
            score_ssq_files(args.q1, args.q2, args.q3, args.profile, args.out)
        else:
            print(level_for_score(args.score))
    except (ParseError, OSError) as e:
        print(f"focusray: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, GeometryError) as e:
        print(f"focusray: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OutputError as e:
        print(f"focusray: {e}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def console_main() -> None:
    """Run `main()` as the whole process and exit with its code.

    Everything is imported by now, so `gc.freeze()` moves the import-time
    heap (about 21,000 tracked objects from start-up, numpy and the
    package) out of the collector's reach; the interpreter's collections at
    exit would otherwise traverse and free all of it, 17 → 4 ms from the
    last output to exit on a 2-CPU Xeon. No `gc.collect()` runs first: it
    costs more than it frees. Only the process entry freezes, since a
    frozen heap is also hidden from `gc.get_objects()` and
    `gc.get_referrers()`.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    console_main()
