"""Command-line front end.

Subcommands: ``run`` executes one scenario file and writes its run
directory; ``sweep`` fans a base scenario out over one numeric key;
``accept`` runs the numbered acceptance checks; ``oracle`` prints the
independent reference computations.  Exit codes: 0 ok, 1 assertion
failure, 2 blow-up or stall, 3 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .acceptance import (
    MIN_ORDER,
    REFERENCE_MESH,
    REFINEMENT_MESHES,
    criterion_numbers,
    heat_study,
    refinement_study,
    run_criterion,
)
from .config import ConfigError, build_config, parse_items
from .dynamics import BlowUp
from .model import ModelParams, steady_states
from .oracle import homogeneous_ode, refinement_order
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


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.name == "heat":
        pairs = heat_study(REFINEMENT_MESHES)
        for h, err in pairs:
            print(f"h={h:.6g} max_error={err:.6e}")
        order = refinement_order(pairs)
        print(f"observed_order={order:.4f}")
        return 0 if order >= MIN_ORDER else 1
    if args.name == "ode":
        p = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=1.0, a=1.0, b=1.0)
        traj = homogeneous_ode(1.0, 1.0, p, 50.0)
        ss = steady_states(p)
        u_end, v_end = float(traj.u[-1]), float(traj.v[-1])
        gap = max(abs(u_end - ss.u_star), abs(v_end - ss.v_star))
        print(f"endpoint u={u_end:.12f} v={v_end:.12f}")
        print(f"equilibrium u*={ss.u_star:.12f} v*={ss.v_star:.12f} gap={gap:.3e}")
        return 0 if gap <= 1e-6 else 1
    # name == "order": nonlinear refinement study against a fine reference
    pairs = refinement_study(REFINEMENT_MESHES, REFERENCE_MESH)
    for n, (h, err) in zip(REFINEMENT_MESHES, pairs):
        print(f"n={n} h={h:.6g} max_error={err:.6e}")
    order = refinement_order(pairs)
    print(f"observed_order={order:.4f}")
    return 0 if order >= MIN_ORDER else 1


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

    p_oracle = sub.add_parser("oracle", help="print an independent reference computation")
    p_oracle.add_argument("name", choices=("heat", "ode", "order"))
    p_oracle.set_defaults(func=_cmd_oracle)

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
