import contextlib
import copy
import io
import json
import math
import os
import struct
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clta import cli, experiment
from clta.cli import main
from clta.config import parse_config
from clta.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from clta.experiment import ExperimentResult, aggregate_rows, results_json

GOOD_CONFIG = (
    "data.n_tasks = 2\n"
    "data.dim = 6\n"
    "data.samples_per_class = 15\n"
    "train.epochs = 3\n"
    "train.batch_size = 8\n"
    "train.decay_epochs = 2\n"
    "run.config_id = cli_test\n"
    "run.output = cli_run\n"
)

# data.kind = idx file keys for configs rejected before any file is read
IDX_FILES = [f"data.{key} = {key}.idx" for key in ("images", "labels", "test_images",
                                                   "test_labels")]


def good_config_with(line):
    """GOOD_CONFIG with the key of ``line`` set as ``line`` sets it."""
    kept = [other for other in GOOD_CONFIG.splitlines()
            if other.split(" = ")[0] != line.split(" = ")[0]]
    return "\n".join(kept + [line]) + "\n"


def write_config(tmp_path, text=GOOD_CONFIG):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


class TestValidateVerb:
    def test_good_config_exits_zero(self, tmp_path, capsys):
        code = main(["validate", write_config(tmp_path)])
        assert code == 0
        assert "cli_test" in capsys.readouterr().out

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, "kd.weight = -3\n")
        assert main(["validate", path]) == 1
        assert "kd.weight" in capsys.readouterr().err

    def test_bad_values_exit_one_and_name_the_key(self, tmp_path, capsys):
        for line in ("train.grad_clip = nan", "kd.temperature = inf", "kd.weight = nan",
                     "data.shift = nan", "train.base_lr = nan", "data.n_tasks = 0",
                     "data.dim = 0", "model.hidden = 0", "data.blob_std = -1",
                     "run.seeds = 0,0", "kd.variant = soft", "kd.aux_weight = -1",
                     "teacher.kind = thawed", "teacher.lr = -0.1",
                     "teacher.pretrain_epochs = 0", "train.epochs = 0",
                     "train.batch_size = 1", "train.base_lr = 0", "train.decay_factor = 1",
                     "train.grad_clip = 0", "warmup.max_lr = 0", "warmup.patience = 0",
                     "data.order_seed = -1",
                     "run.seeds = -1", "data.samples_per_class = 1",
                     "data.samples_per_class = 2"):
            key = line.split(" = ")[0]
            kept = [other for other in GOOD_CONFIG.splitlines() if not other.startswith(key)]
            path = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
            assert main(["validate", path]) == 1, line
            err = capsys.readouterr().err
            assert f"{key}: " in err and "unknown key" not in err, line
            assert "duplicate" not in err, line

    def test_a_removed_key_exits_one_and_names_its_line(self, tmp_path, capsys):
        """Configs written with ``teacher.adapt_with_running``, since removed,
        no longer validate."""
        path = write_config(tmp_path, GOOD_CONFIG + "teacher.adapt_with_running = false\n")
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "teacher.adapt_with_running" in err and "line 9" in err

    def test_a_split_parts_line_exits_one_as_an_unknown_key(self, tmp_path, capsys):
        """``data.split_parts`` is gone; ``data.n_tasks`` is the one parts
        count, so a config that still names it fails on its line."""
        path = write_config(tmp_path, GOOD_CONFIG + "data.split_parts = 3\n")
        assert main(["validate", path]) == 1
        assert "line 9: unknown key 'data.split_parts'" in capsys.readouterr().err

    def test_empty_idx_file_exits_one_and_names_the_key(self, tmp_path, capsys):
        files = ""
        for key in ("images", "labels", "test_images", "test_labels"):
            (tmp_path / key).write_bytes(b"")
            files += f"data.{key} = {tmp_path / key}\n"
        path = write_config(tmp_path, GOOD_CONFIG + "data.kind = idx\nmodel.arch = cnn\n" + files)
        assert main(["validate", path]) == 1
        assert "data.images" in capsys.readouterr().err

    def test_group_counts_the_model_cannot_use_exit_one(self, tmp_path, capsys):
        for lines in (["model.norm = group", "model.groups = 5"],
                      ["model.groups = 0"],
                      ["model.arch = cnn", "model.norm = group", "model.groups = 3",
                       "data.dim = none", "data.image_shape = 1x8x8"]):
            kept = [line for line in GOOD_CONFIG.splitlines() if not line.startswith("data.dim")]
            path = write_config(tmp_path, "\n".join(kept + lines) + "\n")
            assert main(["validate", path]) == 1, lines
            assert "model.groups" in capsys.readouterr().err, lines

    def test_cross_field_errors_name_their_key(self, tmp_path, capsys):
        for line in ("train.decay_epochs = 3", "warmup.ramp_epochs = 200"):
            kept = [other for other in GOOD_CONFIG.splitlines()
                    if not other.startswith(line.split(" = ")[0])]
            path = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
            assert main(["validate", path]) == 1, line
            assert f"{line.split(' = ')[0]}: " in capsys.readouterr().err, line

    def test_arch_that_does_not_fit_the_inputs_exits_one(self, tmp_path, capsys):
        for lines in (["model.arch = cnn"],
                      ["data.dim = none", "data.image_shape = 1x8x8"],
                      ["data.kind = idx", *IDX_FILES]):
            keys = [line.split(" = ")[0] for line in lines]
            kept = [line for line in GOOD_CONFIG.splitlines() if line.split(" = ")[0] not in keys]
            path = write_config(tmp_path, "\n".join(kept + lines) + "\n")
            assert main(["validate", path]) == 1, lines
            assert "model.arch" in capsys.readouterr().err, lines

    def test_class_splits_that_do_not_divide_exit_one(self, tmp_path, capsys):
        image_data = ["data.kind = idx", "model.arch = cnn", "data.dim = none", *IDX_FILES]
        for lines, key in ((["data.n_tasks = 3"], "data.n_tasks"),
                           (["data.num_classes = 0"], "data.num_classes"),
                           (["data.num_classes = 9", "data.split_scheme = half_first"],
                            "data.n_tasks")):
            keys = ["data.dim"] + [line.split(" = ")[0] for line in lines]
            kept = [line for line in GOOD_CONFIG.splitlines() if line.split(" = ")[0] not in keys]
            path = write_config(tmp_path, "\n".join(kept + image_data + lines) + "\n")
            assert main(["validate", path]) == 1, lines
            err = capsys.readouterr().err
            assert key in err and "unknown" not in err and "duplicate" not in err, lines

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["validate", str(tmp_path / "ghost.cfg")]) == 1


class TestRunVerb:
    def test_run_writes_results_under_run_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["run", write_config(tmp_path)])
        assert code == 0
        out_dir = tmp_path / "cli_run"
        for name in ("config.txt", "results.csv", "aggregate.csv", "results.json"):
            assert (out_dir / name).is_file()
        assert "results.csv" in capsys.readouterr().out

    def test_config_txt_reparses_to_the_directory_it_sits_in(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", write_config(tmp_path)]) == 0
        written = tmp_path / "cli_run" / "config.txt"
        assert os.path.samefile(parse_config(written.read_text()).output, written.parent)
        assert main(["validate", str(written)]) == 0

    def test_an_output_flag_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", write_config(tmp_path), "--output", "elsewhere"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --output elsewhere" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]

    @pytest.mark.parametrize("output", ["blocker", "blocker/out", "blocker/a/b"])
    def test_an_output_at_or_under_a_file_fails_validation(self, tmp_path, monkeypatch,
                                                           capsys, output):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        path = write_config(tmp_path, good_config_with(f"run.output = {output}"))
        for verb in ("validate", "run"):
            assert main([verb, path]) == 1, verb
            assert capsys.readouterr().err == (
                f"invalid configuration: run.output: cannot make {output}: "
                f"{tmp_path / 'blocker'} is not a writable directory\n"), verb

    def test_the_directory_exists_before_the_first_seed_trains(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seen = []

        def run_seed(cfg, seed):
            seen.append(os.path.isdir(cfg.output))
            return real_run_seed(cfg, seed)

        real_run_seed = experiment.run_seed
        monkeypatch.setattr(experiment, "run_seed", run_seed)
        assert main(["run", write_config(tmp_path)]) == 0
        assert seen == [True]

    def test_a_directory_that_cannot_be_made_exits_two_before_training(
            self, tmp_path, monkeypatch, capsys):
        # a path that turns bad between validation and the run
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "validate_config", lambda cfg: None)
        monkeypatch.setattr(experiment, "run_seed", lambda cfg, seed: pytest.fail("trained"))
        (tmp_path / "blocker").write_text("")
        path = write_config(tmp_path, good_config_with("run.output = blocker/out"))
        assert main(["run", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("run failed: "), err
        assert "blocker/out" in err[0], err

    def test_a_result_file_that_cannot_be_written_exits_two_with_one_line(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cli_run" / "results.csv").mkdir(parents=True)
        path = write_config(tmp_path)
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("run failed: "), err
        assert os.path.join("cli_run", "results.csv") in err[0], err

    def test_failing_seeds_exit_two_but_still_write(self, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.chdir(tmp_path)
        # a valid learning rate so large that the first step overflows,
        # which only the run sees; the overflow ends in NumericError even
        # where numpy's RuntimeWarnings are errors, as under these tests
        kept = [line for line in GOOD_CONFIG.splitlines() if not line.startswith("train.base_lr")]
        path = write_config(tmp_path, "\n".join(kept + ["train.base_lr = 1e300"]) + "\n")
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 2
        assert (tmp_path / "cli_run" / "results.csv").is_file()
        assert "seed 0: failed: NumericError" in capsys.readouterr().err

    def test_a_task_without_training_samples_exits_one_without_output(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # sound headers and labels, but every sample is of class 0, so the
        # second task of classes 5-9 gets none
        files = ""
        for key in ("images", "labels", "test_images", "test_labels"):
            blob = (struct.pack(">II", IDX_LABEL_MAGIC, 4) + bytes(4)
                    if "labels" in key else
                    struct.pack(">IIII", IDX_IMAGE_MAGIC, 4, 2, 2) + bytes(16))
            (tmp_path / key).write_bytes(blob)
            files += f"data.{key} = {tmp_path / key}\n"
        path = write_config(tmp_path, GOOD_CONFIG + "data.kind = idx\nmodel.arch = cnn\n" + files)
        assert main(["run", path]) == 1
        assert not (tmp_path / "cli_run").exists()
        assert ("data.labels: task 2 (classes [5, 6, 7, 8, 9]) gets 0 training samples"
                in capsys.readouterr().err)

    def test_invalid_config_exits_one_without_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, "data.kind = idx\nmodel.arch = cnn\n")
        assert main(["run", path]) == 1
        assert not (tmp_path / "cli_run").exists()


class TestPlotAndReportVerbs:
    def _finished_run(self, tmp_path, monkeypatch):
        """The run directory, relative to the working directory."""
        monkeypatch.chdir(tmp_path)
        assert main(["run", write_config(tmp_path)]) == 0
        return "cli_run"

    def test_plot_after_run(self, tmp_path, monkeypatch, capsys):
        run_dir = self._finished_run(tmp_path, monkeypatch)
        assert main(["plot", run_dir]) == 0
        assert os.path.isfile(os.path.join(run_dir, "accuracy_over_tasks.svg"))
        assert "loss_task_1.svg" in capsys.readouterr().out

    def test_plot_without_results_exits_one(self, tmp_path):
        assert main(["plot", str(tmp_path)]) == 1

    def test_report_prints_the_aggregate(self, tmp_path, monkeypatch, capsys):
        run_dir = self._finished_run(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["report", run_dir]) == 0
        out = capsys.readouterr().out
        assert "1/1 seeds finished" in out
        assert "acc_inc" in out
        assert "forg_final" in out

    def test_report_without_results_exits_one(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 1


def run_document():
    """The results.json of a two-task run: one finished seed, one failed."""
    trace = {"ce": [1.2, 0.6], "kd": [0.0, 0.0], "bn_kld": [0.0, 0.0], "warmup_ce": []}
    done = {"config_id": "fuzz", "seed": 0, "status": "ok", "acc_inc": 0.8,
            "acc_final": 0.7, "forg_inc": 0.1, "forg_final": 0.1, "wall_s": 0.5,
            "a_k": [0.9, 0.7], "traces": [trace, dict(trace, kd=[0.3, 0.2])]}
    failed = dict(done, seed=1, status="failed: DataError: empty task", acc_inc=math.nan,
                  acc_final=math.nan, forg_inc=math.nan, forg_final=math.nan,
                  a_k=[math.nan, math.nan], traces=[])
    cfg = parse_config("run.config_id = fuzz\nrun.seeds = 0,1\n")
    rows = [done, failed]
    return json.loads(results_json(ExperimentResult(cfg, rows, aggregate_rows(rows))))


def json_paths(node, prefix=()):
    """The key path of every value below ``node``."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    paths = []
    for key, value in items:
        paths += [prefix + (key,)] + json_paths(value, prefix + (key,))
    return paths


RUN_DOC = run_document()
RUN_PATHS = json_paths(RUN_DOC)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def run_verb(verb, run_dir):
    """``clta <verb> run_dir``: the exit code and the stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([verb, str(run_dir)])
    return code, err.getvalue().splitlines()


class TestMalformedResults:
    def write(self, root, doc):
        (root / "results.json").write_text(json.dumps(doc))
        return root

    def test_the_fuzz_document_reads(self, tmp_path):
        run_dir = self.write(tmp_path, RUN_DOC)
        assert run_verb("report", run_dir) == (0, [])
        assert run_verb("plot", run_dir) == (0, [])
        assert sorted(os.listdir(run_dir)) == ["accuracy_over_tasks.svg", "loss_task_1.svg",
                                               "loss_task_2.svg", "results.json"]

    def test_an_aggregate_of_another_type_exits_two(self, tmp_path):
        run_dir = self.write(tmp_path, {"config_id": "x", "aggregate": 5, "rows": []})
        assert run_verb("report", run_dir) == (
            2, ["report failed: results.json: aggregate: expected an object, got 5"])

    def test_traces_of_another_type_exit_two(self, tmp_path):
        doc = copy.deepcopy(RUN_DOC)
        doc["rows"][0]["traces"] = "abc"
        assert run_verb("plot", self.write(tmp_path, doc)) == (
            2, ['plot failed: results.json: rows[0].traces: expected an array, got "abc"'])

    def test_the_path_reaches_into_lists(self, tmp_path):
        doc = copy.deepcopy(RUN_DOC)
        doc["rows"][0]["traces"][1]["kd"][1] = None
        assert run_verb("plot", self.write(tmp_path, doc)) == (
            2, ["plot failed: results.json: rows[0].traces[1].kd[1]: "
                "expected a number, got null"])

    def test_a_missing_key_is_named(self, tmp_path):
        doc = copy.deepcopy(RUN_DOC)
        del doc["aggregate"]["seeds_ok"]
        assert run_verb("report", self.write(tmp_path, doc)) == (
            2, ["report failed: results.json: aggregate.seeds_ok: missing"])

    def test_a_boolean_is_not_an_integer(self, tmp_path):
        doc = copy.deepcopy(RUN_DOC)
        doc["rows"][1]["seed"] = True
        assert run_verb("report", self.write(tmp_path, doc)) == (
            2, ["report failed: results.json: rows[1].seed: expected an integer, got true"])

    def test_an_infinite_mean_exits_two(self, tmp_path):
        doc = copy.deepcopy(RUN_DOC)
        doc["aggregate"]["acc_inc_mean"] = math.inf
        assert run_verb("report", self.write(tmp_path, doc)) == (
            2, ["report failed: results.json: aggregate.acc_inc_mean: "
                "expected a number or null, got Infinity"])

    def test_a_kd_curve_longer_than_its_ce_curve_exits_two(self, tmp_path):
        doc = copy.deepcopy(RUN_DOC)
        doc["rows"][0]["traces"][1]["kd"].append(0.1)
        assert run_verb("plot", self.write(tmp_path, doc)) == (
            2, ["plot failed: results.json: rows[0].traces[1].kd: 3 values, ce has 2"])

    def test_text_that_is_not_json_exits_two(self, tmp_path):
        (tmp_path / "results.json").write_text('{"config_id": ')
        code, err = run_verb("report", tmp_path)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("report failed: results.json is not JSON: ")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_mutated_document_exits_two_with_one_line(self, tmp_path_factory, data):
        """One value replaced or deleted, then perhaps a few bytes
        overwritten or the text cut: each verb succeeds or exits 2 with
        one line naming results.json."""
        doc = copy.deepcopy(RUN_DOC)
        *parents, key = data.draw(st.sampled_from(RUN_PATHS))
        parent = reduce(lambda node, k: node[k], parents, doc)
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(JSON_VALUES)
        blob = bytearray(json.dumps(doc).encode())
        if data.draw(st.booleans()):
            for pos, value in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                           st.integers(0, 255)), max_size=2)):
                blob[pos] = value
            blob = blob[:data.draw(st.none() | st.integers(0, len(blob)))]
        run_dir = tmp_path_factory.mktemp("run")
        (run_dir / "results.json").write_bytes(bytes(blob))
        for verb in ("report", "plot"):
            code, err = run_verb(verb, run_dir)
            if code != 0:
                assert code == 2, err
                assert len(err) == 1 and err[0].startswith(f"{verb} failed: "), err
                assert "results.json" in err[0], err
