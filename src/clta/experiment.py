"""Multi-seed experiment driver with CSV and JSON result files.

A crashed seed does not take the experiment down: it becomes a row whose
``status`` records the error while its metrics stay empty, and the
aggregate is computed over the seeds that finished.  With ``run.workers``
above one, this process and worker processes train seeds side by side,
which gives byte-identical output to running them one by one; a worker the
OS kills leaves its seed a failed row too.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .config import DataSpec, ExperimentConfig, ModelSpec, dump_config
from .data import (CorruptionSpec, TaskStream, corrupt_every_other,
                   load_cifar_binary, load_idx,
                   stream_from_datasets, synthetic_stream)
from .errors import FormatError, OutputError, ParameterError
from .harness import run_stream
from .layers import IncrementalModel, build_micro_cnn, build_micro_mlp
from .metrics import compute_report

METRIC_NAMES = ("acc_inc", "acc_final", "forg_inc", "forg_final", "wall_s")


def build_stream(spec: DataSpec, run_seed: int) -> TaskStream:
    """Materialize the task stream a seed will train on."""
    if spec.kind == "synthetic":
        stream = synthetic_stream(
            n_tasks=spec.n_tasks,
            classes_per_task=spec.classes_per_task,
            samples_per_class=spec.samples_per_class,
            dim=spec.dim,
            image_shape=spec.image_shape,
            shift=spec.shift,
            seed=run_seed,
            blob_std=spec.blob_std,
        )
    else:
        if spec.kind == "idx":
            train = load_idx(spec.images, spec.labels, spec.num_classes)
            test = load_idx(spec.test_images, spec.test_labels, spec.num_classes)
        else:
            train = load_cifar_binary(spec.path, spec.num_classes)
            test = load_cifar_binary(spec.test_path, spec.num_classes)
        stream = stream_from_datasets(train, test, spec.class_groups())
    if spec.corrupt_severity:
        stream = corrupt_every_other(stream, CorruptionSpec(spec.corrupt_severity), run_seed)
    return stream


def build_model(spec: ModelSpec, sample_inputs: np.ndarray, run_seed: int) -> IncrementalModel:
    if spec.arch == "mlp":
        if sample_inputs.ndim != 2:
            raise ParameterError("model.arch = mlp needs vector inputs")
        return build_micro_mlp(sample_inputs.shape[1], norm=spec.norm, seed=(run_seed, 11),
                               hidden=spec.hidden, groups=spec.groups)
    if sample_inputs.ndim != 4:
        raise ParameterError("model.arch = cnn needs image inputs")
    return build_micro_cnn(sample_inputs.shape[1], norm=spec.norm, seed=(run_seed, 11),
                           groups=spec.groups)


def expected_tasks(cfg: ExperimentConfig) -> int:
    return cfg.data.n_tasks if cfg.data.kind == "synthetic" else len(cfg.data.class_groups())


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


def _csv_text(rows) -> str:
    """Rows of cells as CSV; a cell holding a comma, quote or newline is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def results_csv(result: ExperimentResult) -> str:
    n_tasks = max(len(r["a_k"]) for r in result.rows)
    header = ["config_id", "seed", *METRIC_NAMES] + [f"a_k_{i}" for i in range(1, n_tasks + 1)]
    rows = [header]
    for row in result.rows:
        rows.append([row["config_id"], row["seed"],
                     *(format_number(row[name]) for name in METRIC_NAMES),
                     *(format_number(v) for v in row["a_k"])])
    return _csv_text(rows)


def aggregate_csv(result: ExperimentResult) -> str:
    header = ["config_id", "seeds_ok", "seeds_total"]
    cells = [result.config.config_id, result.aggregate["seeds_ok"],
             result.aggregate["seeds_total"]]
    for name in METRIC_NAMES:
        header += [f"{name}_mean", f"{name}_std"]
        cells += [format_number(result.aggregate[f"{name}_mean"]),
                  format_number(result.aggregate[f"{name}_std"])]
    return _csv_text([header, cells])


def results_json(result: ExperimentResult) -> str:
    doc = {
        "config_id": result.config.config_id,
        "config": dump_config(result.config),
        "rows": _round6(result.rows),
        "aggregate": _round6(result.aggregate),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_results(result: ExperimentResult, out_dir) -> list:
    """Write config.txt, results.csv, aggregate.csv, results.json; return paths.

    Each file is written under a temporary name in ``out_dir`` and moved into
    place with ``os.replace``, so an interrupted write leaves the file whole
    or absent, never half written.  An ``OSError`` raises ``OutputError``
    naming the path, and removes the temporary file."""
    written = []
    for name, content in (
        ("config.txt", dump_config(result.config)),
        ("results.csv", results_csv(result)),
        ("aggregate.csv", aggregate_csv(result)),
        ("results.json", results_json(result)),
    ):
        path = os.path.join(out_dir, name)
        try:
            os.makedirs(out_dir, exist_ok=True)
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                fh.write(content)
            os.replace(path + ".tmp", path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(path + ".tmp")
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        written.append(path)
    return written


def _is_number(value) -> bool:
    """A JSON number that a float holds finitely."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# the parts of results.json that `clta report` and `write_plots` read: a dict
# is an object with these keys, a one-item list an array of such items, and
# a leaf names its JSON type and test
_LEAVES = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": _is_number,
    "a number or null": lambda v: v is None or _is_number(v),
}
_RUN_SHAPE = {
    "config_id": "a string",
    "aggregate": {"seeds_ok": "an integer", "seeds_total": "an integer",
                  **{f"{name}_{stat}": "a number or null"
                     for name in METRIC_NAMES for stat in ("mean", "std")}},
    "rows": [{"seed": "an integer", "status": "a string", "a_k": ["a number or null"],
              "traces": [{"ce": ["a number"], "kd": ["a number"]}]}],
}


def _json_kind(value, describe) -> str:
    return ("an object" if isinstance(value, dict) else "an array"
            if isinstance(value, list) else describe(value))


def _check_shape(value, shape, path: str) -> None:
    """Raise ``FormatError`` at the first place ``value`` departs from ``shape``."""
    if isinstance(shape, dict) and isinstance(value, dict):
        for key, inner in shape.items():
            where = f"{path}.{key}" if path else key
            if key not in value:
                raise FormatError(f"results.json: {where}: missing")
            _check_shape(value[key], inner, where)
        # a trace's kd curve is plotted against its ce curve's epochs
        if "kd" in shape and len(value["kd"]) != len(value["ce"]):
            raise FormatError(f"results.json: {path}.kd: {len(value['kd'])} values, "
                              f"ce has {len(value['ce'])}")
    elif isinstance(shape, list) and isinstance(value, list):
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{path}[{i}]")
    elif isinstance(shape, (dict, list)) or not _LEAVES[shape](value):
        raise FormatError(f"results.json: {path or 'document'}: expected "
                          f"{_json_kind(shape, str)}, got "
                          f"{_json_kind(value, lambda v: json.dumps(v)[:40])}")


def load_run(run_dir) -> dict:
    """Read a run directory's results.json and check every part that
    ``clta report`` and ``write_plots`` read; a document of another shape
    raises ``FormatError`` naming the JSON path at fault (``aggregate``,
    ``rows[0].traces[1].ce``)."""
    with open(os.path.join(run_dir, "results.json"), "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"results.json is not JSON: {exc}") from None
    _check_shape(doc, _RUN_SHAPE, "")
    return doc
