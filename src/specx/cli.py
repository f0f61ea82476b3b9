"""Command-line front end.

Subcommands mirror the library entry points: sense, select-bands, and radar
exercise one stage each, specx runs the closed loop, and sweep runs a
Monte-Carlo experiment along one axis. Every run writes report files named
after the scenario's run id into --out. Exit codes: 0 on success, 2 for
configuration problems, 3 when the scenario is infeasible, no band
selection satisfies the constraints, or a sweep worker process dies.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bands import BandSelectionError
from .engine import WorkerDied
from .pipeline import (
    SWEEP_AXES,
    ConfigError,
    InfeasibleError,
    ScenarioConfig,
    load_config,
    run_radar,
    run_select_bands,
    run_sense,
    run_specx,
    sweep,
)
from .report import ReportError, emit_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--config", required=True,
        help="path to a scenario JSON file, or a built-in preset name",
    )
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default=".", help="directory for report files")
    p.add_argument(
        "--format", choices=("csv", "json", "both"), default="both",
        help="report file format(s) to write",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print supports and selections, not just the summary",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specx",
        description="spectral coexistence simulations: sub-Nyquist sensing, "
        "radar band selection, and delay-Doppler recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("sense", "recover the communication support from sub-Nyquist samples"),
        ("select-bands", "sense, then choose radar bands in the quietest spectrum"),
        ("radar", "transmit on selected bands and recover targets"),
        ("specx", "run the full coexistence loop"),
    ):
        _add_common(sub.add_parser(name, help=text))
    sw = sub.add_parser("sweep", help="Monte-Carlo sweep along one axis")
    _add_common(sw)
    sw.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sw.add_argument(
        "--workers", type=int, default=None,
        help="processes that run trials, this one included "
        "(default: scenario setting, else 1)",
    )
    sw.add_argument(
        "--trials", type=int, default=None,
        help="override trials per sweep point",
    )
    return parser


def _load(args: argparse.Namespace) -> ScenarioConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _formats(arg: str) -> tuple[str, ...]:
    return ("csv", "json") if arg == "both" else (arg,)


def _print_summary(report, verbose: bool) -> None:
    meta = report.meta
    if "f_total_hz" in meta and "nyquist_fraction" in meta:
        print(
            f"sampling rate: {meta['f_total_hz'] / 1e6:.3f} MHz total "
            f"({meta['n_channels']} channels), "
            f"{100.0 * meta['nyquist_fraction']:.2f}% of Nyquist"
        )
    if meta.get("recovery_budget_feasible") is False:
        print("warning: scene not guaranteed recoverable at this budget")
    for row in report.aggregates:
        pairs = ", ".join(f"{k}={v}" for k, v in row.items())
        print(pairs)
    if verbose:
        for trial in report.trials:
            print(trial)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "sense":
            report = run_sense(cfg)
        elif args.command == "select-bands":
            report = run_select_bands(cfg)
        elif args.command == "radar":
            report = run_radar(cfg)
        elif args.command == "specx":
            report = run_specx(cfg)
        else:
            if args.trials is not None:
                cfg = replace(cfg, sweep=replace(cfg.sweep, n_trials=args.trials))
            report = sweep(cfg, args.axis, workers=args.workers)
        paths = emit_report(report, args.out, formats=_formats(args.format))
    except (ConfigError, ReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, BandSelectionError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except WorkerDied as exc:
        print(f"error: a sweep worker died: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _print_summary(report, args.verbose)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
