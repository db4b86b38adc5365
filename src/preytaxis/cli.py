"""Command-line front end.

Subcommands: ``run`` executes one scenario file and writes its run
directory; ``sweep`` fans a base scenario out over one numeric key;
``accept`` runs the numbered acceptance checks, the one command that
runs a verification study.  Exit codes: 0 ok, 1 assertion failure,
2 blow-up or stall, 3 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .acceptance import criterion_numbers, run_criterion
from .config import ConfigError, build_config, parse_items
from .dynamics import BlowUp
from .runner import run_scenario, sweep

__all__ = ["main", "console_main"]


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the config-error exit code, not argparse's 2."""

    def error(self, message):
        raise ConfigError(message)


def _read_items(path: str) -> dict[str, str]:
    """Parse a config file; a path that cannot be read as text is a config error."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc)) from None
    return parse_items(text)


def _cmd_run(args: argparse.Namespace) -> int:
    config = build_config(_read_items(args.config))
    return run_scenario(config, svg=args.svg)


def _cmd_sweep(args: argparse.Namespace) -> int:
    items = _read_items(args.config)
    try:
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--values must be a comma-separated number list (got {args.values!r})")
    summary = sweep(items, args.axis, values)
    print(summary)
    return 0


def _cmd_accept(args: argparse.Namespace) -> int:
    if args.criteria:
        try:
            numbers = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"--criteria must be a comma-separated integer list (got {args.criteria!r})")
        if not numbers:
            raise ConfigError("accept --criteria needs at least one criterion number")
        unknown = [n for n in numbers if n not in criterion_numbers()]
        if unknown:
            raise ConfigError(f"no such criteria: {unknown} (have 1..{max(criterion_numbers())})")
    else:
        numbers = criterion_numbers()
    failures = 0
    for number in numbers:
        result = run_criterion(number)
        tag = "PASS" if result.passed else "FAIL"
        print(f"{tag} criterion {result.number}: {result.name} - {result.detail}")
        if not result.passed:
            failures += 1
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="preytaxis", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario file")
    p_run.add_argument("config", help="path to a key = value scenario file")
    p_run.add_argument("--svg", action="store_true", help="also write SVG line charts")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario once per value of one key")
    p_sweep.add_argument("config", help="path to the base scenario file")
    p_sweep.add_argument("--axis", required=True, help="numeric config key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_accept = sub.add_parser("accept", help="run the acceptance checks")
    p_accept.add_argument("--criteria", default="", help="comma-separated subset (default: all)")
    p_accept.set_defaults(func=_cmd_accept)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except BlowUp as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
