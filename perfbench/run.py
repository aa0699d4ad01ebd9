"""clta benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload {mlp5,cnn32,sweep,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports clta from ``src/`` there and
exits non-zero when that source is missing.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up is
timed in fresh processes (``probe.py``), then the workload's jobs run until
every distinct job has run once and ``--seconds`` have passed.

The host's speed drifts: the same seed takes 0.5 s or 0.9 s depending on
what else the machine runs, in phases of seconds to minutes.  So every set-up
and job is bracketed by a fixed one-thread calibration kernel, and its time
is scaled to a reference speed, ``time * CALIBRATION_REF_S / calibration``:
times read as seconds on a machine where the kernel takes CALIBRATION_REF_S.
The kernel tracks the one-thread workloads but not sweep's two GIL-bound
workers (in trials it doubled sweep's run-to-run spread), so sweep's job
times stay raw; its set-up, one thread, is scaled.  Raw times go to the
detail file.

``--trace 1`` runs each job of a fixed prefix untraced and then traced
(``spans.py``) and reports the per-layer metrics, with ``tracing_overhead``
= traced wall / untraced wall - 1; ``--seconds`` does not apply to it.

Every seed's output is checked: status ok and a full accuracy matrix (for
``sweep``, the a_k row ``clta run`` writes) with finite values in [0, 1]; a
seed that runs twice must give the same digest, and so must its traced and
untraced runs.  Digests are also compared with ``digests.json``; a mismatch
is reported but does not fail the run, since a fused kernel may change
rounding.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Details, environment and spans go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# At most one BLAS thread per Python thread: sweep already runs two workers
# on the two cores, and fewer threads make the timings steadier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 20
# Calibration kernel time on the machine the bounds were set on (2 shared
# x86 cores, Python 3.11, numpy 2.4, one OpenBLAS thread): its median there.
CALIBRATION_REF_S = 0.018
WORKLOADS = ("mlp5", "cnn32", "sweep")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "seed_s": "s",
    "train_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "acc_inc": "frac",
    "ok_frac": "frac",
}
KINDS = ("Dense", "Conv2d", "BatchNorm", "ReLU", "GlobalAvgPool")
MODES = ("train", "adapt_stats", "eval")
# Primitives that run in at least one workload; the result file keeps the
# full census, including any primitive not listed here.
OPS = ("add", "add_scalar", "concat", "conv2d", "cross_entropy", "div",
       "log_softmax_temperature", "matmul", "mul", "relu", "reshape", "scale",
       "sqrt", "sub", "tensor_mean", "tensor_sum")


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    units = {"autodiff.backward.ms": "ms", "autodiff.backward.calls": "count",
             "autodiff.backward.share": "ratio", "autodiff.ops_per_step": "op/step"}
    for op in OPS:
        units[f"autodiff.op.{op}.calls"] = "count"
        units[f"autodiff.op.{op}.ms"] = "ms"
    for kind in KINDS:
        for mode in MODES:
            units[f"layers.{kind}.{mode}.fwd_ms"] = "ms"
            units[f"layers.{kind}.{mode}.calls"] = "count"
    units.update({
        "layers.snapshot.ms": "ms",
        "distill.teacher_forward.ms": "ms", "distill.kd_loss.ms": "ms",
        "distill.teacher_step.ms": "ms",
        "harness.sgd_step.ms": "ms", "harness.step.p50_ms": "ms",
        "harness.step.p90_ms": "ms", "harness.step.calls": "count",
        "harness.loop.share": "ratio",
        "metrics.eval.ms": "ms", "metrics.bn_kld.ms": "ms",
        "data.stream.ms": "ms", "config.load.ms": "ms",
        "experiment.run_seed.s": "s", "experiment.overlap": "ratio",
        "experiment.write.ms": "ms",
        "tracing_overhead": "ratio",
    })
    return units


def import_benchmark():
    """Import clta from this checkout's src/ (never an installed copy)."""
    if not (SRC / "clta" / "__init__.py").is_file():
        sys.exit(f"perfbench: no clta source at {SRC / 'clta'}; run from a checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import clta
    if Path(clta.__file__).resolve().parent != (SRC / "clta").resolve():
        sys.exit(f"perfbench: imported clta from {clta.__file__}, not from {SRC}")
    import spans
    import workloads
    return spans, workloads


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = 0
    for path in sorted((SRC / "clta").rglob("*.py")):
        lines += sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    return {
        "src_clta_nonblank_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------


def check_repeats(records: list) -> None:
    """A seed trained again must reproduce its first digest exactly."""
    first = {}
    for r in records:
        if r["status"] != "ok":
            continue
        if r["seed"] not in first:
            first[r["seed"]] = r["digest"]
        elif r["digest"] != first[r["seed"]]:
            r["status"] = "digest differs from this seed's first run"


def reference_check(name: str, records: list) -> dict:
    """Compare each seed's digest with digests.json; reported, never gating."""
    path = BENCH_DIR / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8")).get(name, {}) if path.is_file() else {}
    out = {"match": [], "mismatch": [], "no_reference": []}
    for seed in sorted({r["seed"] for r in records if r["status"] == "ok"}):
        digest = next(r["digest"] for r in records if r["seed"] == seed and r["status"] == "ok")
        ref = table.get(str(seed))
        key = "no_reference" if ref is None else ("match" if ref == digest else "mismatch")
        out[key].append(seed)
    return out


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed mix of Python dispatch and small matrix products,
    the kind of work the workloads do; the program's code plays no part."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(32, 64)), rng.normal(size=(64, 64))
    started = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        acc += float(np.maximum(a @ b, 0.0).mean()) + i * 0.5
    return time.perf_counter() - started


def time_setup(name: str, job, work_dir: Path) -> list:
    """(raw seconds, calibration) from starting a fresh process to its first
    training step."""
    times = []
    for _ in range(SETUP_PROBES):
        c0 = calibrate()
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), name, json.dumps(job),
             str(work_dir / "probe")],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append((float(done.stdout.split()[-1]) - started, (c0 + calibrate()) / 2))
    return times


def measure(workloads, name: str, seed: int, seconds: float) -> dict:
    jobs = workloads.job_list(name, seed)
    work_dir = OUT / f"{name}-seed{seed}"
    setups = time_setup(name, jobs[0], work_dir)
    records, job_times = [], []
    started = time.perf_counter()
    while (len(job_times) < len(jobs) or time.perf_counter() - started
           + statistics.mean(raw for raw, _ in job_times) <= seconds):
        c0 = calibrate()
        t = time.perf_counter()
        recs = workloads.run_job(name, jobs[len(job_times) % len(jobs)], work_dir)
        raw = time.perf_counter() - t
        calib = (c0 + calibrate()) / 2
        job_times.append((raw, calib))
        for r in recs:
            r["calibration_s"] = calib
        records += recs
    check_repeats(records)
    threads = workloads.THREADS[name]

    def ref(raw, calib, threads=1):
        return raw * CALIBRATION_REF_S / calib if threads == 1 else raw

    ok = [r for r in records if r["status"] == "ok"]
    samples = sum(r["samples"] for r in ok)
    acc = {}
    for r in ok:
        acc.setdefault(r["seed"], r["acc_inc"])
    raw_seed = statistics.median(r["wall_s"] for r in ok) if ok else 0.0
    values = {
        "setup_s": statistics.median(ref(*t) for t in setups),
        "seed_s": statistics.median(ref(r["wall_s"], r["calibration_s"], threads)
                                    for r in ok) if ok else 0.0,
        "train_samples_per_s": samples / sum(ref(*t, threads) for t in job_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_inc": statistics.mean(acc.values()) if acc else 0.0,
        "ok_frac": len(ok) / len(records),
    }
    raw_wall = sum(raw for raw, _ in job_times)
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes "
                   f"(raw {statistics.median(t[0] for t in setups):.3f} s)",
        "seed_s": f"median of {len(ok)} seeds (raw {raw_seed:.3f} s)",
        "train_samples_per_s": f"{samples} samples (raw {samples / raw_wall:.1f}/s)",
        "acc_inc": f"mean of {len(acc)} distinct seeds",
        "ok_frac": f"{len(ok)} of {len(records)} seeds ok",
    }
    return {"values": values, "notes": notes, "units": END_TO_END, "records": records,
            "setup_s": setups, "job_s": job_times, "jobs": jobs,
            "calibration_ref_s": CALIBRATION_REF_S}


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(spans, span_list: list, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics from spans, and the full op census by name.

    Times are raw seconds, not scaled by the calibration; a share (time over
    the traced wall) is the figure that holds up when the host's speed
    drifts.  Times are summed over threads, so on sweep a share can pass 1."""
    durations = defaultdict(list)
    for _sid, _parent, name, start, end, _thread in span_list:
        durations[name].append(end - start)
    selfs = spans.self_times(span_list)
    inside = spans.in_step(span_list)

    def ms(name):
        return 1000.0 * sum(durations.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    op_calls, op_ms = Counter(), Counter()
    for sid, _parent, name, *_rest in span_list:
        if name.startswith(spans.OP_PREFIX) and sid in inside:
            op = name[len(spans.OP_PREFIX):]
            op_calls[op] += 1
            op_ms[op] += 1000.0 * selfs[sid]
    steps = sorted(durations.get(spans.STEP, ()))
    loop_self = sum(selfs[s[0]] for s in span_list
                    if s[2] in (spans.STEP, "harness.train_task"))
    run_seed = durations.get("experiment.run_seed", [])
    run_experiment = sum(durations.get("experiment.run_experiment", ()))

    m = {
        "autodiff.backward.ms": ms("autodiff.backward"),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.share": sum(durations.get("autodiff.backward", ())) / wall,
        "autodiff.ops_per_step": sum(op_calls.values()) / len(steps) if steps else 0.0,
    }
    for op in OPS:
        m[f"autodiff.op.{op}.calls"] = op_calls[op]
        m[f"autodiff.op.{op}.ms"] = op_ms[op]
    for kind in KINDS:
        for mode in MODES:
            m[f"layers.{kind}.{mode}.fwd_ms"] = ms(f"layers.{kind}.{mode}")
            m[f"layers.{kind}.{mode}.calls"] = calls(f"layers.{kind}.{mode}")
    m.update({
        "layers.snapshot.ms": ms("layers.snapshot"),
        "distill.teacher_forward.ms": ms("distill.teacher_forward"),
        "distill.kd_loss.ms": ms("distill.kd_loss"),
        "distill.teacher_step.ms": ms("distill.teacher_step"),
        "harness.sgd_step.ms": ms("harness.sgd_step"),
        "harness.step.p50_ms": 1000.0 * statistics.median(steps) if steps else 0.0,
        "harness.step.p90_ms": 1000.0 * steps[int(0.9 * (len(steps) - 1))] if steps else 0.0,
        "harness.step.calls": len(steps),
        "harness.loop.share": loop_self / wall,
        "metrics.eval.ms": ms("metrics.eval"),
        "metrics.bn_kld.ms": ms("metrics.bn_kld"),
        "data.stream.ms": ms("data.stream"),
        "config.load.ms": ms("config.load"),
        "experiment.run_seed.s": statistics.median(run_seed) if run_seed else 0.0,
        "experiment.overlap": sum(run_seed) / run_experiment if run_experiment else 0.0,
        "experiment.write.ms": ms("experiment.write"),
    })
    census = {"steps": len(steps), "op_calls_in_steps": dict(sorted(op_calls.items())),
              "op_self_ms_in_steps": dict(sorted(op_ms.items()))}
    return m, census


def traced_run(spans, workloads, name: str, seed: int) -> dict:
    """Each job runs untraced and then traced, back to back, so a drift in
    the host's speed touches both sides of tracing_overhead alike."""
    jobs = workloads.job_list(name, seed)[:workloads.TRACE_JOBS[name]]
    work_dir = OUT / f"{name}-seed{seed}"
    before = spans.namespace_snapshot()
    tracer = spans.Tracer()
    records = []
    wall_untraced = wall_traced = 0.0
    for job in jobs:
        started = time.perf_counter()
        records += workloads.run_job(name, job, work_dir)
        wall_untraced += time.perf_counter() - started
        tracer.install()
        try:
            started = time.perf_counter()
            records += workloads.run_job(name, job, work_dir)
            wall_traced += time.perf_counter() - started
        finally:
            tracer.restore()
    leftover = spans.changed_bindings(before, spans.namespace_snapshot())

    check_repeats(records)
    values, census = layer_metrics(spans, tracer.spans, wall_traced)
    values["tracing_overhead"] = wall_traced / wall_untraced - 1.0
    t0 = min((s[3] for s in tracer.spans), default=0.0)
    threads = {}
    span_rows = [[sid, parent, nm, round(start - t0, 9), round(end - t0, 9),
                  threads.setdefault(th, len(threads))]
                 for sid, parent, nm, start, end, th in sorted(tracer.spans)]
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"{name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s",
                                                 "thread"], "spans": span_rows},
                                     separators=(",", ":")), encoding="utf-8")
    return {"values": values, "units": per_layer_units(), "notes": {}, "records": records,
            "census": census, "wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
            "wrappers_left": [list(k) for k in leftover], "spans_file": str(spans_path),
            "span_count": len(tracer.spans),
            "jobs": jobs}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def run_one(args) -> dict:
    spans, workloads = import_benchmark()
    if args.trace:
        out = traced_run(spans, workloads, args.workload, args.seed)
    else:
        out = measure(workloads, args.workload, args.seed, args.seconds)
    records = out["records"]
    failed = [r for r in records if r["status"] != "ok"]
    correct = not failed and not out.get("wrappers_left")
    reference = reference_check(args.workload, records)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in out["values"].items():
        note = out["notes"].get(key, "")
        print(f"  {key:<34} {value:>14.6g} {out['units'][key]:<8} {note}")
    for r in failed:
        print(f"  FAILED seed {r['seed']}: {r['status']}")
    if out.get("wrappers_left"):
        print(f"  NOT RESTORED after tracing: {out['wrappers_left']}")
    print(f"  digests vs digests.json: {len(reference['match'])} match, "
          f"{len(reference['mismatch'])} mismatch, "
          f"{len(reference['no_reference'])} without reference")
    for s in reference["mismatch"]:
        print(f"  digest mismatch: workload {args.workload} seed {s}")
    env = environment()
    print(f"  env: python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']['name']} {env['blas']['version']}, nproc {env['nproc']}, "
          f"src/clta {env['src_clta_nonblank_lines']} non-blank lines")

    detail = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, correct=correct, reference_digests=reference,
                  environment=env)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"  details: {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": len(records), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": out["units"][k]}
                        for k, v in out["values"].items()}}


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
