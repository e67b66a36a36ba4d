"""Command-line interface for the sweep runners.

Exit codes (a failure prints one stderr line): 0 success, 2 usage or config error
or unwritable --out, 3 infeasible budget, 4 dispersion null without --allow-null.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .errors import InfeasibleBudgetError, NullSentinelError, ValidationError
from .sweeps import (
    run_beam_pattern,
    run_dispersion_sweep,
    run_power_sweep,
    run_throughput_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NULL = 4

# Per subcommand: the default --out, the runner, and the options it takes
# beyond --config and --out; only a runner that reads a value gets its option.
_RUNNERS = {
    "dispersion-sweep": ("dispersion_sweep.csv", run_dispersion_sweep, ("--allow-null",)),
    "power-sweep": ("power_sweep.csv", run_power_sweep, ("--allow-null",)),
    "throughput-sweep": ("throughput_sweep.csv", run_throughput_sweep, ("--seed", "--drops")),
    "beam-pattern": ("beam_pattern.csv", run_beam_pattern, ()),
}
# --seed and --drops override config values; any other option goes to the runner.
_OPTIONS = {
    "--seed": {"type": int, "help": "override base_seed"},
    "--drops": {"type": int, "help": "override monte_carlo_drops"},
    "--allow-null": {"action": "store_true",
                     "help": "emit infinite-loss sentinels instead of failing"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it in one line and returns 2
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fwcsim",
        description="Fiber-wireless fronthaul simulator sweeps (CSV + meta.json out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (default_out, _, options) in _RUNNERS.items():
        cmd = sub.add_parser(name, help=f"run the {name.replace('-', ' ')}")
        cmd.add_argument("--config", type=Path, default=None,
                         help="JSON config; omitted keys use documented defaults")
        cmd.add_argument("--out", type=Path, default=Path(default_out))
        for option in options:
            cmd.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        options = vars(_build_parser().parse_args(argv))
        command, config, out = options.pop("command"), options.pop("config"), options.pop("out")
        cfg = load_config(config, seed=options.pop("seed", None), drops=options.pop("drops", None))
        if not out.parent.is_dir():
            raise ValidationError(f"cannot write {out}: no directory {out.parent}")
        table = _RUNNERS[command][1](cfg, **options)
        try:
            table.write(out)
        except OSError as exc:
            raise ValidationError(f"cannot write {exc.filename or out}: "
                                  f"{exc.strerror or exc}") from exc
    except InfeasibleBudgetError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NullSentinelError as exc:
        print(f"dispersion null: {exc}", file=sys.stderr)
        return EXIT_NULL
    except (argparse.ArgumentError, ValidationError) as exc:
        kind = "usage" if isinstance(exc, argparse.ArgumentError) else "config"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
