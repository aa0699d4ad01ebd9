"""Command line front end: run, validate, plot, report.

Exit codes: 0 on success, 1 on configuration or validation problems,
2 when a run or a tool step fails at runtime.  A ``CLTA_OUTPUT_ROOT``
environment variable reroutes relative output paths under one root.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ExperimentConfig, load_config, validate_config
from .errors import CltaError
from .experiment import METRIC_NAMES, load_run, run_experiment, write_results
from .plots import write_plots

OUTPUT_ROOT_ENV = "CLTA_OUTPUT_ROOT"


def _resolve_output(path: str) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clta",
        description="incremental learning experiments with distillation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="train every seed and write result files")
    p_run.add_argument("config", help="path to a key = value configuration file")
    p_run.add_argument("--output", default=None, help="override the output directory")
    p_val = sub.add_parser("validate", help="check a configuration without running it")
    p_val.add_argument("config")
    p_plot = sub.add_parser("plot", help="draw SVG charts from a finished run")
    p_plot.add_argument("run_dir")
    p_rep = sub.add_parser("report", help="print the aggregate metrics of a run")
    p_rep.add_argument("run_dir")
    return parser


def _cmd_validate(cfg: ExperimentConfig) -> int:
    print(f"configuration ok: {cfg.config_id} "
          f"({len(cfg.seeds)} seed{'s' if len(cfg.seeds) != 1 else ''})")
    return 0


def _cmd_run(cfg: ExperimentConfig, output: str | None) -> int:
    out_dir = _resolve_output(output or cfg.output)
    result = run_experiment(cfg)
    written = write_results(result, out_dir)
    for path in written:
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
    from a run directory holding results.json; either missing exits 1."""
    args = _build_parser().parse_args(argv)
    if args.command in ("run", "validate"):
        try:
            cfg = load_config(args.config)
            validate_config(cfg)
        except (CltaError, OSError) as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 1
        return _cmd_run(cfg, args.output) if args.command == "run" else _cmd_validate(cfg)
    run_dir = _resolve_output(args.run_dir)
    if not os.path.isfile(os.path.join(run_dir, "results.json")):
        print(f"no results.json under {run_dir}", file=sys.stderr)
        return 1
    try:
        return _cmd_plot(run_dir) if args.command == "plot" else _cmd_report(run_dir)
    except (CltaError, OSError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
