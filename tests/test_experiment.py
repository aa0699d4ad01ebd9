import json
import math
from dataclasses import replace

import numpy as np
import pytest

from clta.config import ModelSpec, parse_config
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
                           "data.split_parts = 5\n")
        assert expected_tasks(cfg) == 6
