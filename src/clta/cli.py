"""Command line front end: run, validate, plot, report.

Exit codes: 0 on success, 1 on configuration or validation problems,
2 when a run or a tool step fails at runtime.  ``run.output`` alone names
a run's directory, so the ``config.txt`` written there reparses to its run.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ExperimentConfig, load_config, validate_config
from .errors import CltaError
from .experiment import METRIC_NAMES, load_run, run_experiment, write_results
from .plots import write_plots


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clta",
        description="incremental learning experiments with distillation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, arg, what in (("run", "config", "train every seed and write result files"),
                            ("validate", "config", "check a configuration without running it"),
                            ("plot", "run_dir", "draw SVG charts from a finished run"),
                            ("report", "run_dir", "print the aggregate metrics of a run")):
        sub.add_parser(verb, help=what).add_argument(arg)
    return parser


def _cmd_validate(cfg: ExperimentConfig) -> int:
    print(f"configuration ok: {cfg.config_id} "
          f"({len(cfg.seeds)} seed{'s' if len(cfg.seeds) != 1 else ''})")
    return 0


def _cmd_run(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.output, exist_ok=True)  # a directory it cannot make costs no training
    result = run_experiment(cfg)
    for path in write_results(result, cfg.output):
        print(f"wrote {path}")
    failed = [r for r in result.rows if r["status"] != "ok"]
    for row in failed:
        print(f"seed {row['seed']}: {row['status']}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_plot(run_dir: str) -> int:
    for path in write_plots(run_dir):
        print(f"wrote {path}")
    return 0


def _cmd_report(run_dir: str) -> int:
    doc = load_run(run_dir)
    agg = doc["aggregate"]
    print(f"experiment {doc['config_id']}: "
          f"{agg['seeds_ok']}/{agg['seeds_total']} seeds finished")
    for name in METRIC_NAMES:
        mean, std = agg[f"{name}_mean"], agg[f"{name}_std"]
        if mean is None or std is None:
            print(f"  {name:<12} n/a")
        else:
            print(f"  {name:<12} {mean:.4f} +/- {std:.4f}")
    for row in doc["rows"]:
        if row["status"] != "ok":
            print(f"  seed {row['seed']}: {row['status']}")
    return 0


def main(argv=None) -> int:
    """Run and validate start from a valid configuration, plot and report
    from a run directory holding results.json; either missing exits 1.  A
    run whose directory cannot be made or written exits 2 with one line."""
    args = _build_parser().parse_args(argv)
    if args.command in ("run", "validate"):
        try:
            cfg = load_config(args.config)
            validate_config(cfg)
        except (CltaError, OSError) as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 1
        if args.command == "validate":
            return _cmd_validate(cfg)
    elif not os.path.isfile(os.path.join(args.run_dir, "results.json")):
        print(f"no results.json under {args.run_dir}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(cfg)
        return (_cmd_plot if args.command == "plot" else _cmd_report)(args.run_dir)
    except (CltaError, OSError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
