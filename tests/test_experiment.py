import concurrent.futures
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clta import experiment
from clta.cli import main
from clta.config import _KEY_TABLE, ModelSpec, parse_config
from clta.distill import KD_VARIANTS, STRATEGY_KINDS
from clta.errors import ParameterError
from clta.experiment import (ExperimentResult, aggregate_csv, aggregate_rows,
                             build_model, build_stream, expected_tasks,
                             format_number, results_csv, results_json,
                             run_experiment, run_seed, write_results)

BASE_CONFIG = (
    "data.n_tasks = 2\n"
    "data.classes_per_task = 2\n"
    "data.dim = 6\n"
    "data.samples_per_class = 15\n"
    "data.shift = 0.1\n"
    "kd.weight = 2.0\n"
    "train.epochs = 3\n"
    "train.batch_size = 8\n"
    "train.decay_epochs = 2\n"
    "run.config_id = unit\n"
)


def _run_seed_dying_on_seed_1(cfg, seed):
    """A worker the OS kills: seed 1 ends its process without a result."""
    if seed == 1:
        os._exit(3)
    return run_seed(cfg, seed)


class _StubPool:
    """Runs each submitted call in-process and records the pool sizes asked
    for and the seeds submitted."""
    sizes = []
    submitted = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append(args[1])
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def hand_row(seed=0, wall=1.5):
    """Metrics of the accuracy matrix [[0.8], [0.6, 0.7]] written out."""
    return {
        "config_id": "demo", "seed": seed, "status": "ok",
        "acc_inc": 0.725, "acc_final": 0.65,
        "forg_inc": 0.2, "forg_final": 0.2,
        "wall_s": wall, "a_k": [0.8, 0.65],
        "traces": [{"ce": [0.9, 0.4], "kd": [0.0, 0.0],
                    "bn_kld": [0.0, 0.0], "warmup_ce": []}],
    }


class TestFormatting:
    def test_six_significant_digits(self):
        assert format_number(0.123456789) == "0.123457"
        assert format_number(1234567.0) == "1.23457e+06"
        assert format_number(0.5) == "0.5"
        assert format_number(1.0) == "1"

    def test_missing_values(self):
        assert format_number(math.nan) == "nan"
        assert format_number(None) == "nan"


class TestCsvLayout:
    def test_exact_bytes_for_a_hand_result(self):
        cfg = parse_config("run.config_id = demo\n")
        result = ExperimentResult(cfg, [hand_row()], aggregate_rows([hand_row()]))
        expected = (
            "config_id,seed,acc_inc,acc_final,forg_inc,forg_final,wall_s,a_k_1,a_k_2\n"
            "demo,0,0.725,0.65,0.2,0.2,1.5,0.8,0.65\n"
        )
        assert results_csv(result) == expected

    def test_aggregate_csv_layout(self):
        cfg = parse_config("run.config_id = demo\n")
        rows = [hand_row(0, wall=1.0), hand_row(1, wall=3.0)]
        result = ExperimentResult(cfg, rows, aggregate_rows(rows))
        text = aggregate_csv(result)
        header, values = text.splitlines()
        assert header.startswith("config_id,seeds_ok,seeds_total,acc_inc_mean,acc_inc_std")
        cells = values.split(",")
        assert cells[0] == "demo"
        assert cells[1] == "2"
        np.testing.assert_allclose(float(cells[3]), 0.725)
        np.testing.assert_allclose(float(cells[4]), 0.0)
        wall_mean = float(cells[header.split(",").index("wall_s_mean")])
        wall_std = float(cells[header.split(",").index("wall_s_std")])
        np.testing.assert_allclose(wall_mean, 2.0)
        np.testing.assert_allclose(wall_std, np.std([1.0, 3.0], ddof=1), rtol=1e-5)

    def test_files_end_with_newline(self):
        cfg = parse_config("run.config_id = demo\n")
        result = ExperimentResult(cfg, [hand_row()], aggregate_rows([hand_row()]))
        assert results_csv(result).endswith("\n")
        assert aggregate_csv(result).endswith("\n")
        assert results_json(result).endswith("\n")


class TestAggregation:
    def test_single_seed_has_zero_std(self):
        agg = aggregate_rows([hand_row()])
        assert agg["acc_inc_std"] == 0.0
        assert agg["seeds_ok"] == 1

    def test_sample_std_uses_ddof_one(self):
        rows = [dict(hand_row(0), acc_inc=0.7), dict(hand_row(1), acc_inc=0.8)]
        agg = aggregate_rows(rows)
        np.testing.assert_allclose(agg["acc_inc_mean"], 0.75)
        np.testing.assert_allclose(agg["acc_inc_std"], np.std([0.7, 0.8], ddof=1))

    def test_failed_rows_are_excluded(self):
        rows = [hand_row(0), dict(hand_row(1), status="failed: boom",
                                  acc_inc=math.nan)]
        agg = aggregate_rows(rows)
        assert agg["seeds_total"] == 2
        assert agg["seeds_ok"] == 1
        np.testing.assert_allclose(agg["acc_inc_mean"], 0.725)

    def test_aggregate_recomputable_from_the_csv(self):
        cfg = parse_config(BASE_CONFIG + "run.seeds = 0,1,2\n")
        result = run_experiment(cfg)
        lines = results_csv(result).splitlines()
        header = lines[0].split(",")
        col = header.index("acc_inc")
        values = [float(line.split(",")[col]) for line in lines[1:]]
        np.testing.assert_allclose(np.mean(values), result.aggregate["acc_inc_mean"],
                                   rtol=1e-6)
        np.testing.assert_allclose(np.std(values, ddof=1),
                                   result.aggregate["acc_inc_std"], rtol=1e-4)


def mask_wall(csv_text):
    lines = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        if cells[0] != "config_id":
            cells[6] = "WALL"
        lines.append(",".join(cells))
    return "\n".join(lines)


class TestRunning:
    def test_rows_follow_seed_order(self):
        cfg = parse_config(BASE_CONFIG + "run.seeds = 2,0,1\n")
        result = run_experiment(cfg)
        assert [r["seed"] for r in result.rows] == [2, 0, 1]
        assert all(r["status"] == "ok" for r in result.rows)

    def test_rerun_is_deterministic_apart_from_wall_time(self):
        cfg = parse_config(BASE_CONFIG + "run.seeds = 0,1\n")
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert mask_wall(results_csv(a)) == mask_wall(results_csv(b))

    def test_concurrent_matches_sequential(self):
        seq = run_experiment(parse_config(BASE_CONFIG + "run.seeds = 0,1,2\n"))
        conc = run_experiment(parse_config(
            BASE_CONFIG + "run.seeds = 0,1,2\nrun.workers = 3\n"))
        assert mask_wall(results_csv(seq)) == mask_wall(results_csv(conc))

    def test_pool_has_no_more_workers_than_seeds(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _StubPool)
        monkeypatch.setattr(_StubPool, "sizes", [])
        # two trainers for two seeds: this process and one worker
        result = run_experiment(parse_config(BASE_CONFIG + "run.seeds = 3,1\nrun.workers = 8\n"))
        assert _StubPool.sizes == [1]
        assert [r["seed"] for r in result.rows] == [3, 1]
        run_experiment(parse_config(BASE_CONFIG + "run.seeds = 3,1,2\nrun.workers = 8\n"))
        assert _StubPool.sizes == [1, 2]
        run_experiment(parse_config(BASE_CONFIG + "run.seeds = 3\nrun.workers = 8\n"))
        assert _StubPool.sizes == [1, 2]

    def test_this_process_trains_the_first_trainers_seeds(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _StubPool)
        monkeypatch.setattr(_StubPool, "submitted", [])
        cfg = parse_config(BASE_CONFIG + "run.seeds = 5,4,3,2,1\nrun.workers = 2\n")
        result = run_experiment(cfg)
        assert _StubPool.submitted == [4, 2]
        assert [r["seed"] for r in result.rows] == [5, 4, 3, 2, 1]
        assert [r["status"] for r in result.rows] == ["ok"] * 5

    def test_a_killed_worker_leaves_a_failed_row(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiment, "run_seed", _run_seed_dying_on_seed_1)
        monkeypatch.setenv("CLTA_OUTPUT_ROOT", str(tmp_path))
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG + "run.seeds = 0,1\nrun.workers = 2\nrun.output = out\n")
        assert main(["run", str(path)]) == 2
        doc = json.loads((tmp_path / "out" / "results.json").read_text())
        rows = doc["rows"]
        assert [r["seed"] for r in rows] == [0, 1]
        assert rows[1]["status"].startswith("failed: BrokenProcessPool: ")
        # seed 0 trains in this process, so the dead worker cannot take it along
        assert rows[0]["status"] == "ok"
        assert len(rows[1]["a_k"]) == 2
        csv_seeds = [line.split(",")[1] for line in
                     (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]]
        assert csv_seeds == ["0", "1"]
        assert "seed 1: failed: BrokenProcessPool" in capsys.readouterr().err

    def test_import_does_not_load_multiprocessing(self):
        code = "import sys, clta; print('multiprocessing' in sys.modules)"
        src = os.path.dirname(os.path.dirname(experiment.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=os.environ | {"PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_failed_seed_becomes_a_row(self):
        cfg = replace(parse_config(BASE_CONFIG), model=ModelSpec(arch="cnn"))
        row = run_seed(cfg, 0)
        assert row["status"].startswith("failed:")
        assert math.isnan(row["acc_inc"])
        assert len(row["a_k"]) == 2
        assert row["wall_s"] >= 0.0

    def test_failures_do_not_stop_siblings(self):
        cfg = replace(parse_config(BASE_CONFIG + "run.seeds = 0,1\n"), model=ModelSpec(arch="cnn"))
        result = run_experiment(cfg)
        assert len(result.rows) == 2
        assert result.aggregate["seeds_ok"] == 0
        text = results_csv(result)
        assert "nan" in text.splitlines()[1]


FLOAT_KEYS = tuple(key for key, (tag, _, _) in _KEY_TABLE.items() if tag.endswith("float"))
# extreme values, each valid for some float key: near the float maximum, the
# smallest normal and subnormal, zero, and two ordinary magnitudes
EXTREME_FLOATS = ("1.7e308", "-1.7e308", "1e300", "1e-300", "5e-324", "0.0", "1e-3", "1e3")
GEOMETRY = {"mlp": "data.dim = 4\nmodel.hidden = 8\n",
            "cnn": "model.arch = cnn\ndata.dim = none\ndata.image_shape = 1x8x8\n"}


class TestValidateThenRun:
    @settings(max_examples=150, deadline=None)
    @given(arch=st.sampled_from(sorted(GEOMETRY)), variant=st.sampled_from(KD_VARIANTS),
           kind=st.sampled_from(STRATEGY_KINDS),
           norm=st.sampled_from(["batch", "none", "layer", "group"]),
           warmup=st.booleans(), n_tasks=st.integers(2, 3), epochs=st.integers(1, 2),
           floats=st.dictionaries(st.sampled_from(FLOAT_KEYS), st.sampled_from(EXTREME_FLOATS),
                                  max_size=4))
    # a KD weight or the inputs' shift and spread that overflow an elementwise
    # op once ended their seed in a bare RuntimeWarning
    @example(arch="mlp", variant="auxiliary", kind="frozen", norm="batch", warmup=False,
             n_tasks=3, epochs=1, floats={"kd.weight": "1.7e308"})
    @example(arch="cnn", variant="auxiliary", kind="frozen", norm="batch", warmup=False,
             n_tasks=3, epochs=1, floats={"kd.weight": "1.7e308"})
    @example(arch="mlp", variant="global", kind="frozen", norm="batch", warmup=False,
             n_tasks=3, epochs=1, floats={"kd.weight": "1.7e308", "kd.temperature": "1e-3"})
    @example(arch="mlp", variant="taskwise", kind="frozen", norm="batch", warmup=False,
             n_tasks=3, epochs=1, floats={"kd.weight": "1.7e308", "kd.temperature": "1e-3"})
    @example(arch="mlp", variant="global", kind="frozen", norm="batch", warmup=False,
             n_tasks=2, epochs=1, floats={"data.shift": "1.7e308", "data.blob_std": "1.7e308"})
    def test_a_config_that_validates_runs_or_fails_with_numeric_error(
            self, arch, variant, kind, norm, warmup, n_tasks, epochs, floats):
        """A seed of any config that ``parse_config`` accepts ends ``ok`` or
        in ``NumericError``, with no numpy warning on the way."""
        text = (GEOMETRY[arch] + f"model.norm = {norm}\nkd.variant = {variant}\n"
                f"teacher.kind = {kind}\nwarmup.enabled = {str(warmup).lower()}\n"
                "warmup.max_epochs = 2\nwarmup.ramp_epochs = 1\n"
                f"data.n_tasks = {n_tasks}\ndata.samples_per_class = 5\ntrain.batch_size = 8\n"
                f"train.epochs = {epochs}\ntrain.decay_epochs = {'1' if epochs == 2 else ''}\n"
                + "".join(f"{key} = {value}\n" for key, value in floats.items()))
        try:
            cfg = parse_config(text)
        except ParameterError:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = run_seed(cfg, 0)["status"]
        assert status == "ok" or status.startswith("failed: NumericError: "), status


class TestJson:
    def test_document_shape_and_rounding(self):
        cfg = parse_config(BASE_CONFIG)
        result = run_experiment(cfg)
        doc = json.loads(results_json(result))
        assert doc["config_id"] == "unit"
        assert len(doc["rows"]) == 1
        row = doc["rows"][0]
        assert row["status"] == "ok"
        assert len(row["traces"]) == 2
        assert len(row["traces"][0]["ce"]) == 3
        for value in row["a_k"]:
            assert value == float(f"{value:.6g}")

    def test_embedded_config_is_the_normalized_dump(self):
        from clta.config import dump_config, parse_config as reparse
        cfg = parse_config(BASE_CONFIG)
        doc = json.loads(results_json(run_experiment(cfg)))
        assert dump_config(reparse(doc["config"])) == doc["config"]

    def test_nan_becomes_null(self):
        cfg = parse_config("run.config_id = demo\n")
        row = dict(hand_row(), acc_inc=math.nan, status="failed: x")
        doc = json.loads(results_json(ExperimentResult(cfg, [row],
                                                       aggregate_rows([row]))))
        assert doc["rows"][0]["acc_inc"] is None


class TestWriteResults:
    def test_writes_four_files(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        result = run_experiment(cfg)
        written = write_results(result, tmp_path / "out")
        names = sorted(p.split("/")[-1] for p in written)
        assert names == ["aggregate.csv", "config.txt", "results.csv", "results.json"]
        for path in written:
            content = open(path, "rb").read()
            assert content.endswith(b"\n")


class TestBuilders:
    def test_stream_respects_the_data_spec(self):
        cfg = parse_config(BASE_CONFIG)
        stream = build_stream(cfg.data, run_seed=0)
        assert len(stream) == 2
        assert stream.tasks[0].train.inputs.shape[1] == 6

    def test_corruption_pattern_is_applied(self):
        text = BASE_CONFIG + "corrupt.severity = 5\ncorrupt.pattern = every_other\n"
        clean = build_stream(parse_config(BASE_CONFIG).data, run_seed=0)
        noisy = build_stream(parse_config(text).data, run_seed=0)
        np.testing.assert_array_equal(clean.tasks[0].train.inputs,
                                      noisy.tasks[0].train.inputs)
        assert not np.array_equal(clean.tasks[1].train.inputs,
                                  noisy.tasks[1].train.inputs)

    def test_fixed_data_seed_decouples_stream_from_run_seed(self):
        cfg = parse_config(BASE_CONFIG + "data.seed = 123\n")
        a = build_stream(cfg.data, run_seed=0)
        b = build_stream(cfg.data, run_seed=9)
        np.testing.assert_array_equal(a.tasks[0].train.inputs,
                                      b.tasks[0].train.inputs)

    def test_model_arch_must_match_input_rank(self):
        cfg = parse_config(BASE_CONFIG)
        stream = build_stream(cfg.data, run_seed=0)
        with pytest.raises(ParameterError):
            build_model(ModelSpec(arch="cnn"), stream.tasks[0].train.inputs, run_seed=0)
        model = build_model(cfg.model, stream.tasks[0].train.inputs, run_seed=0)
        assert model.feature_dim == 64

    def test_expected_tasks_accounts_for_half_first(self):
        assert expected_tasks(parse_config(BASE_CONFIG)) == 2
        cfg = parse_config("data.kind = idx\nmodel.arch = cnn\ndata.split_scheme = half_first\n"
                           "data.n_tasks = 5\n")
        assert expected_tasks(cfg) == 6
