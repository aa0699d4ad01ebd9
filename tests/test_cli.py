import os

from clta.cli import main

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
                     "train.grad_clip = 0", "warmup.max_lr = 0", "warmup.patience = 0"):
            key = line.split(" = ")[0]
            kept = [other for other in GOOD_CONFIG.splitlines() if not other.startswith(key)]
            path = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
            assert main(["validate", path]) == 1, line
            err = capsys.readouterr().err
            assert key in err and "duplicate" not in err, line

    def test_group_counts_the_model_cannot_use_exit_one(self, tmp_path, capsys):
        for lines in (["model.norm = group", "model.groups = 5"],
                      ["model.groups = 0"],
                      ["model.arch = cnn", "model.norm = group", "model.groups = 3",
                       "data.dim = none", "data.image_shape = 1x8x8"]):
            kept = [line for line in GOOD_CONFIG.splitlines() if not line.startswith("data.dim")]
            path = write_config(tmp_path, "\n".join(kept + lines) + "\n")
            assert main(["validate", path]) == 1, lines
            assert "model.groups" in capsys.readouterr().err, lines

    def test_cross_field_errors_name_their_section(self, tmp_path, capsys):
        for line, section in (("train.decay_epochs = 3", "train"),
                              ("warmup.ramp_epochs = 200", "warmup")):
            kept = [other for other in GOOD_CONFIG.splitlines()
                    if not other.startswith(line.split(" = ")[0])]
            path = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
            assert main(["validate", path]) == 1, line
            assert f"{section}: " in capsys.readouterr().err, line

    def test_arch_that_does_not_fit_the_inputs_exits_one(self, tmp_path, capsys):
        for lines in (["model.arch = cnn"],
                      ["data.dim = none", "data.image_shape = 1x8x8"],
                      ["data.kind = idx"]):
            keys = [line.split(" = ")[0] for line in lines]
            kept = [line for line in GOOD_CONFIG.splitlines() if line.split(" = ")[0] not in keys]
            path = write_config(tmp_path, "\n".join(kept + lines) + "\n")
            assert main(["validate", path]) == 1, lines
            assert "model.arch" in capsys.readouterr().err, lines

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["validate", str(tmp_path / "ghost.cfg")]) == 1


class TestRunVerb:
    def test_run_writes_results_under_the_output_root(self, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setenv("CLTA_OUTPUT_ROOT", str(tmp_path))
        code = main(["run", write_config(tmp_path)])
        assert code == 0
        out_dir = tmp_path / "cli_run"
        for name in ("config.txt", "results.csv", "aggregate.csv", "results.json"):
            assert (out_dir / name).is_file()
        assert "results.csv" in capsys.readouterr().out

    def test_explicit_output_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CLTA_OUTPUT_ROOT", raising=False)
        target = tmp_path / "elsewhere"
        code = main(["run", write_config(tmp_path), "--output", str(target)])
        assert code == 0
        assert (target / "results.csv").is_file()

    def test_failing_seeds_exit_two_but_still_write(self, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.setenv("CLTA_OUTPUT_ROOT", str(tmp_path))
        # the files exist, so validation passes, but they are empty
        files = ""
        for key in ("images", "labels", "test_images", "test_labels"):
            (tmp_path / key).write_bytes(b"")
            files += f"data.{key} = {tmp_path / key}\n"
        path = write_config(tmp_path, GOOD_CONFIG + "data.kind = idx\nmodel.arch = cnn\n" + files)
        assert main(["run", path]) == 2
        assert (tmp_path / "cli_run" / "results.csv").is_file()
        assert "failed" in capsys.readouterr().err

    def test_invalid_config_exits_one_without_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLTA_OUTPUT_ROOT", str(tmp_path))
        path = write_config(tmp_path, "data.kind = idx\nmodel.arch = cnn\n")
        assert main(["run", path]) == 1
        assert not (tmp_path / "cli_run").exists()


class TestPlotAndReportVerbs:
    def _finished_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLTA_OUTPUT_ROOT", str(tmp_path))
        assert main(["run", write_config(tmp_path)]) == 0
        return str(tmp_path / "cli_run")

    def test_plot_after_run(self, tmp_path, monkeypatch, capsys):
        run_dir = self._finished_run(tmp_path, monkeypatch)
        assert main(["plot", run_dir]) == 0
        assert os.path.isfile(os.path.join(run_dir, "accuracy_over_tasks.svg"))
        assert "loss_task_1.svg" in capsys.readouterr().out

    def test_plot_without_results_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CLTA_OUTPUT_ROOT", raising=False)
        assert main(["plot", str(tmp_path)]) == 1

    def test_report_prints_the_aggregate(self, tmp_path, monkeypatch, capsys):
        run_dir = self._finished_run(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["report", run_dir]) == 0
        out = capsys.readouterr().out
        assert "1/1 seeds finished" in out
        assert "acc_inc" in out
        assert "forg_final" in out

    def test_report_without_results_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CLTA_OUTPUT_ROOT", raising=False)
        assert main(["report", str(tmp_path)]) == 1

    def test_env_var_resolves_relative_run_dirs(self, tmp_path, monkeypatch):
        self._finished_run(tmp_path, monkeypatch)
        assert main(["report", "cli_run"]) == 0
