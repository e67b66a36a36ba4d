"""Command-line interface for the sweep runners.

Exit codes: 0 success, 2 config error, 3 infeasible budget, 4 dispersion-null
sentinel encountered without --allow-null.
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
from .tables import ResultTable, meta_path_for

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NULL = 4

_RUNNERS = {
    "dispersion-sweep": ("dispersion_sweep.csv", run_dispersion_sweep, True),
    "power-sweep": ("power_sweep.csv", run_power_sweep, True),
    "throughput-sweep": ("throughput_sweep.csv", run_throughput_sweep, False),
    "beam-pattern": ("beam_pattern.csv", run_beam_pattern, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwcsim",
        description="Fiber-wireless fronthaul simulator sweeps (CSV + meta.json out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (default_out, _, takes_null) in _RUNNERS.items():
        cmd = sub.add_parser(name, help=f"run the {name.replace('-', ' ')}")
        cmd.add_argument("--config", type=Path, default=None,
                         help="JSON config; omitted keys use documented defaults")
        cmd.add_argument("--out", type=Path, default=Path(default_out))
        cmd.add_argument("--seed", type=int, default=None, help="override base_seed")
        cmd.add_argument("--drops", type=int, default=None,
                         help="override monte_carlo_drops")
        if takes_null:
            cmd.add_argument("--allow-null", action="store_true",
                             help="emit infinite-loss sentinels instead of failing")
    return parser


def _write_crossovers(table: ResultTable, out: Path) -> None:
    crossings = table.metadata.get("crossovers")
    if not crossings:
        return
    companion = ResultTable(
        "power_crossovers",
        ("scheme_a", "scheme_b", "f_rf_hz", "crossover_km", "found"),
    )
    for c in crossings:
        found = c["crossover_km"] is not None
        companion.append(
            c["scheme_a"], c["scheme_b"], c["f_rf_hz"],
            c["crossover_km"] if found else "", found,
        )
    companion.write_csv(out.with_name(out.stem + "_crossovers.csv"))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, drops=args.drops)
        _, runner, takes_null = _RUNNERS[args.command]
        if takes_null:
            table = runner(cfg, allow_null=args.allow_null)
        else:
            table = runner(cfg)
        table.write_csv(args.out)
        table.write_meta(meta_path_for(args.out))
        if args.command == "power-sweep":
            _write_crossovers(table, args.out)
    except InfeasibleBudgetError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NullSentinelError as exc:
        print(f"dispersion null: {exc}", file=sys.stderr)
        return EXIT_NULL
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
