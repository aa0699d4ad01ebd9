"""The benchmark's workloads: their inputs, one unit of work, and its check.

A workload's work is a list of jobs made from the run's ``--seed``.  A job
of ``mlp5`` or ``cnn32`` trains one seed through ``run_stream``; a job of
``sweep`` runs one ``clta run`` of four seeds.  Each job returns one record
per trained seed: its status ("ok" only when its output passed the check),
wall time, output digest and acc_inc.

clta is called through its modules' attributes (``data.synthetic_stream``,
not a name bound here), so the traced run's wrappers see these calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

from clta import cli, config, data, distill, experiment, harness, layers, metrics

_KD = {"variant": "global", "weight": 10.0}

MLP5_STREAM = {"n_tasks": 5, "classes_per_task": 2, "samples_per_class": 60,
               "dim": 16, "shift": 0.12}
MLP5_TRAIN = {"epochs": 20, "batch_size": 32, "grad_clip": 100.0}

# Two batches of 64 per task epoch.  Five epochs keep a seed near 2.5 s on a
# 2-core machine, so one run trains a dozen seeds; a constant learning rate
# of 0.05 gave the least seed-to-seed spread of acc_inc among the short
# schedules tried.
CNN32_STREAM = {"n_tasks": 3, "classes_per_task": 2, "samples_per_class": 80,
                "image_shape": (3, 32, 32), "shift": 0.12}
CNN32_TRAIN = {"epochs": 5, "batch_size": 64, "grad_clip": 100.0, "base_lr": 0.05,
               "lr_decay_epochs": ()}

SWEEP_SEEDS_PER_JOB = 4
# Python threads that train at once.
THREADS = {"mlp5": 1, "cnn32": 1, "sweep": 2}
SWEEP_CONFIG = f"""\
data.kind = synthetic
data.n_tasks = 5
data.classes_per_task = 2
data.dim = 16
data.samples_per_class = 60
data.shift = 0.12
kd.variant = global
kd.weight = 10.0
teacher.kind = continuous_full
train.epochs = 20
train.batch_size = 32
train.grad_clip = 100.0
run.workers = {THREADS["sweep"]}
run.config_id = sweep
"""

# Distinct jobs per run, sized so one pass fits in a run on a 2-core machine;
# the full pass always runs, so acc_inc never depends on speed.
JOBS_PER_RUN = {"mlp5": 30, "cnn32": 12, "sweep": 3}
# The traced run runs each job of a shorter prefix untraced, then traced; each
# prefix gives at least 120 training steps, so the step p90 has 12 beyond it.
TRACE_JOBS = {"mlp5": 4, "cnn32": 4, "sweep": 1}


def job_list(name: str, seed: int) -> list:
    """The run's distinct jobs; the same seed always gives the same list."""
    k = JOBS_PER_RUN[name]
    if name == "sweep":
        per = SWEEP_SEEDS_PER_JOB
        return [tuple(range((seed * k + b) * per, (seed * k + b + 1) * per)) for b in range(k)]
    return [seed * k + i for i in range(k)]


def _stream_and_model(name: str, s: int):
    if name == "mlp5":
        stream = data.synthetic_stream(**MLP5_STREAM, seed=s)
        model = layers.build_micro_mlp(MLP5_STREAM["dim"], norm="batch", seed=100 + s)
    else:
        stream = data.synthetic_stream(**CNN32_STREAM, seed=s)
        model = layers.build_micro_cnn(CNN32_STREAM["image_shape"][0], norm="batch",
                                       seed=100 + s)
    return stream, model


def write_sweep_config(seeds, work_dir: str) -> str:
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, "sweep.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CONFIG + f"run.seeds = {','.join(str(s) for s in seeds)}\n"
                 f"run.output = {os.path.join(work_dir, 'results')}\n")
    return path


def set_up(name: str, job, work_dir: str):
    """What a user's process does before its first training step."""
    if name == "sweep":
        cfg = config.load_config(write_sweep_config(job, work_dir))
        config.validate_config(cfg)
        stream = experiment.build_stream(cfg.data, cfg.seeds[0])
        return stream, experiment.build_model(cfg.model, stream.tasks[0].train.inputs,
                                              cfg.seeds[0])
    return _stream_and_model(name, job)


def samples_per_seed(name: str) -> int:
    """Student training samples one seed processes: tasks x epochs x the
    train-set size, less the singleton batches ``iter_batches`` drops."""
    stream, train = {"mlp5": (MLP5_STREAM, MLP5_TRAIN), "cnn32": (CNN32_STREAM, CNN32_TRAIN),
                     "sweep": (MLP5_STREAM, MLP5_TRAIN)}[name]
    n = stream["classes_per_task"] * int(round(0.8 * stream["samples_per_class"]))
    if n % train["batch_size"] == 1:
        n -= 1
    return stream["n_tasks"] * train["epochs"] * n


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


def check_matrix(values: np.ndarray) -> str:
    """'ok' when every lower-triangle entry is finite and in [0, 1]."""
    n = values.shape[0]
    if values.shape != (n, n):
        return f"accuracy matrix has shape {values.shape}"
    lower = values[np.tril_indices(n)]
    if not np.all(np.isfinite(lower)):
        return "accuracy matrix is incomplete or not finite"
    if np.any(lower < 0.0) or np.any(lower > 1.0):
        return "accuracy outside [0, 1]"
    return "ok"


def _train_seed(name: str, s: int) -> dict:
    stream, model = _stream_and_model(name, s)
    kd = distill.KDConfig(**_KD)
    strategy = distill.TeacherStrategy(kind="adapt_stats")
    train = harness.TrainConfig(**(MLP5_TRAIN if name == "mlp5" else CNN32_TRAIN))
    record = {"seed": s, "samples": samples_per_seed(name)}
    started = time.perf_counter()
    try:
        result = harness.run_stream(stream, model, kd, strategy, train,
                                    harness.WarmupConfig(), seed=s)
    except Exception as exc:  # a failed seed is data, not a crash
        record.update(status=f"failed: {type(exc).__name__}: {exc}",
                      wall_s=time.perf_counter() - started)
        return record
    wall = time.perf_counter() - started
    values = result.accuracy_matrix.values
    status = check_matrix(values)
    record.update(status=status, wall_s=wall, digest=_digest(values[np.tril_indices(len(values))]))
    if status == "ok":
        record["acc_inc"] = metrics.compute_report(result.accuracy_matrix).acc_inc
    return record


def _read_results(results: str):
    """Rows of results.json and cells of results.csv, by seed."""
    with open(os.path.join(results, "results.json"), encoding="utf-8") as fh:
        rows = {row["seed"]: row for row in json.load(fh)["rows"]}
    with open(os.path.join(results, "results.csv"), encoding="utf-8") as fh:
        lines = [line.split(",") for line in fh.read().splitlines()]
    wall_col = lines[0].index("wall_s")
    cells = {int(line[1]): [c for i, c in enumerate(line) if i != wall_col]
             for line in lines[1:]}
    return rows, cells


def _sweep(seeds, work_dir: str) -> list:
    path = write_sweep_config(seeds, work_dir)
    results = os.path.join(work_dir, "results")
    shutil.rmtree(results, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", path])
    try:
        rows, csv_cells = _read_results(results)
    except (OSError, ValueError, KeyError):
        rows, csv_cells = {}, {}
    n_tasks = MLP5_STREAM["n_tasks"]
    records = []
    for s in seeds:
        row = rows.get(s)
        record = {"seed": s, "samples": samples_per_seed("sweep")}
        if row is None or s not in csv_cells:
            record.update(status=f"no result row (clta run exited with {code})", wall_s=math.nan)
            records.append(record)
            continue
        status = row["status"]
        a_k = row["a_k"]
        if status == "ok" and (len(a_k) != n_tasks or any(
                v is None or not 0.0 <= v <= 1.0 for v in a_k)):
            status = "a_k row is incomplete or outside [0, 1]"
        if status == "ok" and code != 0:
            status = f"clta run exited with {code}"
        record.update(status=status, wall_s=row["wall_s"],
                      digest=hashlib.sha256(",".join(csv_cells[s]).encode()).hexdigest()[:16])
        if status == "ok":
            record["acc_inc"] = row["acc_inc"]
        records.append(record)
    return records


def run_job(name: str, job, work_dir: str) -> list:
    """Train one job; one record per seed with its status, wall time and digest."""
    if name == "sweep":
        return _sweep(job, work_dir)
    return [_train_seed(name, job)]
