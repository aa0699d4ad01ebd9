"""Multi-seed experiment driver with CSV and JSON result files.

A crashed seed does not take the experiment down: it becomes a row whose
``status`` records the error while its metrics stay empty, and the
aggregate is computed over the seeds that finished.  With ``run.workers``
above one, this process and worker processes train seeds side by side,
which gives byte-identical output to running them one by one; a worker the
OS kills leaves its seed a failed row too.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .config import DataSpec, ExperimentConfig, ModelSpec, dump_config
from .data import (CorruptionSpec, TaskStream, corrupt_every_other,
                   load_cifar_binary, load_idx, split_classes,
                   stream_from_datasets, synthetic_stream)
from .errors import ParameterError
from .harness import run_stream
from .layers import IncrementalModel, build_micro_cnn, build_micro_mlp
from .metrics import compute_report

METRIC_NAMES = ("acc_inc", "acc_final", "forg_inc", "forg_final", "wall_s")


def build_stream(spec: DataSpec, run_seed: int) -> TaskStream:
    """Materialize the task stream a seed will train on."""
    seed = run_seed if spec.seed is None else spec.seed
    if spec.kind == "synthetic":
        stream = synthetic_stream(
            n_tasks=spec.n_tasks,
            classes_per_task=spec.classes_per_task,
            samples_per_class=spec.samples_per_class,
            dim=spec.dim,
            image_shape=spec.image_shape,
            shift=spec.shift,
            seed=seed,
            blob_std=spec.blob_std,
        )
    else:
        if spec.kind == "idx":
            train = load_idx(spec.images, spec.labels, spec.num_classes)
            test = load_idx(spec.test_images, spec.test_labels, spec.num_classes)
        else:
            train = load_cifar_binary(spec.path, spec.num_classes)
            test = load_cifar_binary(spec.test_path, spec.num_classes)
        parts = spec.split_parts if spec.split_parts is not None else spec.n_tasks
        groups = split_classes(spec.num_classes, spec.split_scheme, parts,
                               order_seed=spec.order_seed)
        stream = stream_from_datasets(train, test, groups)
    if spec.corrupt_pattern == "every_other":
        stream = corrupt_every_other(stream, CorruptionSpec(spec.corrupt_severity), seed)
    return stream


def build_model(spec: ModelSpec, sample_inputs: np.ndarray, run_seed: int) -> IncrementalModel:
    seed = (run_seed, 11) if spec.seed is None else spec.seed
    if spec.arch == "mlp":
        if sample_inputs.ndim != 2:
            raise ParameterError("model.arch = mlp needs vector inputs")
        return build_micro_mlp(sample_inputs.shape[1], norm=spec.norm, seed=seed,
                               hidden=spec.hidden, groups=spec.groups)
    if sample_inputs.ndim != 4:
        raise ParameterError("model.arch = cnn needs image inputs")
    return build_micro_cnn(sample_inputs.shape[1], norm=spec.norm, seed=seed,
                           groups=spec.groups)


def expected_tasks(cfg: ExperimentConfig) -> int:
    if cfg.data.kind == "synthetic":
        return cfg.data.n_tasks
    parts = cfg.data.split_parts if cfg.data.split_parts is not None else cfg.data.n_tasks
    if cfg.data.split_scheme == "half_first":
        return parts + 1
    return parts


def _empty_row(cfg: ExperimentConfig, seed: int) -> dict:
    n_tasks = expected_tasks(cfg)
    return {
        "config_id": cfg.config_id,
        "seed": seed,
        "status": "ok",
        **dict.fromkeys(METRIC_NAMES, math.nan),
        "a_k": [math.nan] * n_tasks,
        "traces": [],
    }


def _failure(exc: Exception) -> str:
    return f"failed: {type(exc).__name__}: {exc}"


def run_seed(cfg: ExperimentConfig, seed: int) -> dict:
    """Train one seed through the stream; never raises, failures become data."""
    row = _empty_row(cfg, seed)
    started = time.perf_counter()
    try:
        stream = build_stream(cfg.data, seed)
        model = build_model(cfg.model, stream.tasks[0].train.inputs, seed)
        result = run_stream(stream, model, cfg.kd, cfg.strategy,
                            cfg.train, cfg.warmup, seed)
        report = compute_report(result.accuracy_matrix)
        row.update(
            {name: getattr(report, name) for name in METRIC_NAMES if name != "wall_s"},
            wall_s=result.wall_s,
            a_k=[float(v) for v in report.a_k],
            traces=[asdict(tr) for tr in result.traces],
        )
    except Exception as exc:
        row["status"] = _failure(exc)
        row["wall_s"] = time.perf_counter() - started
    return row


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list
    aggregate: dict


def aggregate_rows(rows: list) -> dict:
    """Mean and sample standard deviation of each metric over finished seeds."""
    ok = [r for r in rows if r["status"] == "ok"]
    agg = {"seeds_total": len(rows), "seeds_ok": len(ok)}
    for name in METRIC_NAMES:
        values = [r[name] for r in ok]
        if not values:
            agg[f"{name}_mean"] = math.nan
            agg[f"{name}_std"] = math.nan
        else:
            agg[f"{name}_mean"] = float(np.mean(values))
            agg[f"{name}_std"] = 0.0 if len(values) < 2 else float(np.std(values, ddof=1))
    return agg


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every seed; rows come in seed order.  With ``cfg.workers`` above
    one, the seeds are dealt round-robin over that many trainers, at most one
    per seed: this process trains the seeds dealt to the first trainer while
    a pool of the other trainers' worker processes trains the rest.  A seed
    whose worker died becomes a failed row."""
    seeds = cfg.seeds
    trainers = min(cfg.workers, len(seeds))
    if trainers == 1:
        rows = [run_seed(cfg, s) for s in seeds]
    else:
        # imported here so that `import clta` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=trainers - 1) as pool:
            futures = [pool.submit(run_seed, cfg, s) if i % trainers else None
                       for i, s in enumerate(seeds)]
            own = [run_seed(cfg, s) if f is None else None for f, s in zip(futures, seeds)]
            rows = [row if f is None else _collect(f, cfg, s)
                    for f, row, s in zip(futures, own, seeds)]
    return ExperimentResult(cfg, rows, aggregate_rows(rows))


def _collect(future, cfg: ExperimentConfig, seed: int) -> dict:
    """A worker's row; ``run_seed`` never raises, so an exception here means
    the worker is gone (``BrokenProcessPool``) and the row is lost."""
    try:
        return future.result()
    except Exception as exc:
        return _empty_row(cfg, seed) | {"status": _failure(exc)}


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def format_number(x) -> str:
    """Six significant digits; ``nan`` for a missing value."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{float(x):.6g}"


def _round6(obj):
    """Recursively round floats to six significant digits for JSON output."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def results_csv(result: ExperimentResult) -> str:
    n_tasks = max(len(r["a_k"]) for r in result.rows)
    header = ["config_id", "seed", *METRIC_NAMES] + [f"a_k_{i}" for i in range(1, n_tasks + 1)]
    lines = [",".join(header)]
    for row in result.rows:
        cells = [row["config_id"], str(row["seed"])]
        cells += [format_number(row[name]) for name in METRIC_NAMES]
        cells += [format_number(v) for v in row["a_k"]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def aggregate_csv(result: ExperimentResult) -> str:
    header = ["config_id", "seeds_ok", "seeds_total"]
    cells = [result.config.config_id, str(result.aggregate["seeds_ok"]),
             str(result.aggregate["seeds_total"])]
    for name in METRIC_NAMES:
        header += [f"{name}_mean", f"{name}_std"]
        cells += [format_number(result.aggregate[f"{name}_mean"]),
                  format_number(result.aggregate[f"{name}_std"])]
    return ",".join(header) + "\n" + ",".join(cells) + "\n"


def results_json(result: ExperimentResult) -> str:
    doc = {
        "config_id": result.config.config_id,
        "config": dump_config(result.config),
        "rows": _round6(result.rows),
        "aggregate": _round6(result.aggregate),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_results(result: ExperimentResult, out_dir) -> list:
    """Write config.txt, results.csv, aggregate.csv, results.json; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, content in (
        ("config.txt", dump_config(result.config)),
        ("results.csv", results_csv(result)),
        ("aggregate.csv", aggregate_csv(result)),
        ("results.json", results_json(result)),
    ):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        written.append(path)
    return written
