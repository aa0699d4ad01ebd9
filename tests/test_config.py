import math
import re
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clta.config import (DataSpec, ExperimentConfig, ModelSpec, dump_config,
                         load_config, parse_config, validate_config)
from clta.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, load_idx, split_classes
from clta.distill import KDConfig, TeacherStrategy
from clta.errors import CltaError, ConsistencyError, DataError, FormatError, ParameterError
from clta.experiment import build_model, build_stream
from clta.harness import TrainConfig, WarmupConfig

# key -> (text, attribute path on the parsed config, expected value); every
# value differs from the key's default and is already in normalized form
ALL_KEYS = {
    "data.kind": ("cifar", "data.kind", "cifar"),
    "data.n_tasks": ("4", "data.n_tasks", 4),
    "data.classes_per_task": ("3", "data.classes_per_task", 3),
    "data.dim": ("24", "data.dim", 24),
    "data.image_shape": ("3x8x8", "data.image_shape", (3, 8, 8)),
    "data.samples_per_class": ("33", "data.samples_per_class", 33),
    "data.shift": ("0.25", "data.shift", 0.25),
    "data.blob_std": ("0.1", "data.blob_std", 0.1),
    "data.seed": ("7", "data.seed", 7),
    "data.num_classes": ("16", "data.num_classes", 16),
    "data.images": ("a.idx", "data.images", "a.idx"),
    "data.labels": ("b.idx", "data.labels", "b.idx"),
    "data.test_images": ("c.idx", "data.test_images", "c.idx"),
    "data.test_labels": ("d.idx", "data.test_labels", "d.idx"),
    "data.path": ("train.bin", "data.path", "train.bin"),
    "data.test_path": ("test.bin", "data.test_path", "test.bin"),
    "data.split_scheme": ("half_first", "data.split_scheme", "half_first"),
    "data.order_seed": ("9", "data.order_seed", 9),
    "corrupt.severity": ("3", "data.corrupt_severity", 3),
    "model.arch": ("cnn", "model.arch", "cnn"),
    "model.norm": ("group", "model.norm", "group"),
    "model.hidden": ("32", "model.hidden", 32),
    "model.groups": ("2", "model.groups", 2),
    "model.seed": ("11", "model.seed", 11),
    "kd.variant": ("auxiliary", "kd.variant", "auxiliary"),
    "kd.temperature": ("3.5", "kd.temperature", 3.5),
    "kd.weight": ("2.5", "kd.weight", 2.5),
    "kd.aux_weight": ("1.5", "kd.aux_weight", 1.5),
    "teacher.kind": ("pretrain_norm", "strategy.kind", "pretrain_norm"),
    "teacher.lr": ("0.05", "strategy.teacher_lr", 0.05),
    "teacher.pretrain_epochs": ("3", "strategy.pretrain_epochs", 3),
    "train.epochs": ("30", "train.epochs", 30),
    "train.batch_size": ("64", "train.batch_size", 64),
    "train.base_lr": ("0.2", "train.base_lr", 0.2),
    "train.decay_epochs": ("10,20", "train.lr_decay_epochs", (10, 20)),
    "train.decay_factor": ("5.0", "train.lr_decay_factor", 5.0),
    "train.grad_clip": ("2.5", "train.grad_clip", 2.5),
    "warmup.enabled": ("true", "warmup.enabled", True),
    "warmup.max_lr": ("0.3", "warmup.max_lr", 0.3),
    "warmup.ramp_epochs": ("10", "warmup.ramp_epochs", 10),
    "warmup.max_epochs": ("50", "warmup.max_epochs", 50),
    "warmup.patience": ("5", "warmup.early_stop_patience", 5),
    "run.seeds": ("3,1,4", "seeds", (3, 1, 4)),
    "run.output": ("out/all_keys", "output", "out/all_keys"),
    "run.config_id": ("all_keys", "config_id", "all_keys"),
    "run.workers": ("2", "workers", 2),
}

# values of every type tag, in range and out of it, unreadable, non-finite
# and unset
TOKENS = ("0", "1", "2", "3", "-1", "64", "1e9", "0.5", "-0.5", "nan", "inf", "-inf",
          "none", "", "true", "false", "abc", "1,2", "2,1", "0,0", "1x8x8", "3x32x32",
          "0x8x8", "8x8", "synthetic", "idx", "cifar", "mlp", "cnn", "group", "layer",
          "global", "auxiliary", "adapt_stats", "half_first", "every_other")

# every dataclass field that carries a range rule
RANGED_FIELDS = [(cls, f.name) for cls in (DataSpec, ModelSpec, ExperimentConfig, KDConfig,
                                           TeacherStrategy, TrainConfig, WarmupConfig)
                 for f in fields(cls) if set(f.metadata) & {">=", ">", "<="}]

FLOAT_KEYS = ("data.shift", "data.blob_std", "kd.temperature", "kd.weight",
              "kd.aux_weight", "teacher.lr", "train.base_lr", "train.decay_factor",
              "train.grad_clip", "warmup.max_lr")


@pytest.fixture(scope="module")
def loader_files(tmp_path_factory):
    """DataSpec fields for a ten-class IDX pair and CIFAR file on disk."""
    root = tmp_path_factory.mktemp("loaders")
    (root / "images.idx").write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 10, 4, 4)
                                      + bytes(160))
    (root / "labels.idx").write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 10) + bytes(range(10)))
    (root / "batch.bin").write_bytes(b"".join(bytes([c]) + bytes(3072) for c in range(10)))
    idx = {"images": "images.idx", "labels": "labels.idx",
           "test_images": "images.idx", "test_labels": "labels.idx"}
    return {"idx": {"kind": "idx"} | {k: str(root / v) for k, v in idx.items()},
            "cifar": {"kind": "cifar", "path": str(root / "batch.bin"),
                      "test_path": str(root / "batch.bin")}}


def render(value):
    """A field value in config text."""
    if value is None:
        return "none"
    return "x".join(map(str, value)) if isinstance(value, tuple) else str(value)


def attribute(cfg, path):
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


class TestParsing:
    def test_empty_document_yields_defaults(self):
        cfg = parse_config("")
        assert cfg.data.kind == "synthetic"
        assert cfg.data.n_tasks == 2
        assert cfg.kd.variant == "global"
        assert cfg.kd.weight == 10.0
        assert cfg.strategy.kind == "frozen"
        assert cfg.train.epochs == 20
        assert cfg.train.lr_decay_epochs == (6, 12, 16)
        assert cfg.seeds == (0,)
        assert cfg.workers == 1

    def test_comments_and_blank_lines_are_ignored(self):
        cfg = parse_config("\n# a comment\n  \nkd.weight = 4.5  # trailing\n")
        assert cfg.kd.weight == 4.5

    def test_values_reach_the_right_subconfigs(self):
        cfg = parse_config(
            "data.n_tasks = 5\n"
            "data.dim = 24\n"
            "kd.variant = taskwise\n"
            "teacher.kind = adapt_stats\n"
            "train.decay_epochs = 4,8,12\n"
            "warmup.enabled = true\n"
            "run.seeds = 0,1,2\n"
        )
        assert cfg.data.n_tasks == 5
        assert cfg.kd.variant == "taskwise"
        assert cfg.strategy.kind == "adapt_stats"
        assert cfg.train.lr_decay_epochs == (4, 8, 12)
        assert cfg.warmup.enabled is True
        assert cfg.seeds == (0, 1, 2)

    def test_image_shape_parsing(self):
        cfg = parse_config("model.arch = cnn\ndata.dim = none\ndata.image_shape = 1x8x8\n")
        assert cfg.data.image_shape == (1, 8, 8)
        for bad in ("8x8", "1x-4x4", "1x0x4", "1xax4"):
            with pytest.raises(ParameterError) as err:
                parse_config(f"data.dim = none\ndata.image_shape = {bad}\n")
            assert "data.image_shape" in str(err.value)

    def test_syntax_error_reports_the_line(self):
        with pytest.raises(FormatError) as err:
            parse_config("kd.weight = 1.0\nthis line has no equals sign\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("key", ["kd.lambda", "teacher.adapt_with_running",
                                     "data.split_parts"])
    def test_unknown_key_is_named(self, key):
        with pytest.raises(ParameterError) as err:
            parse_config(f"{key} = true\n")
        assert str(err.value) == f"line 1: unknown key '{key}'"

    def test_duplicate_key_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_config("kd.weight = 1\nkd.weight = 2\n")
        assert "duplicate" in str(err.value)

    def test_type_errors_name_the_key(self):
        with pytest.raises(ParameterError) as err:
            parse_config("data.n_tasks = soon\n")
        assert "data.n_tasks" in str(err.value)


class TestValidation:
    def test_negative_weight_names_the_field(self):
        with pytest.raises(ParameterError) as err:
            parse_config("kd.weight = -1\n")
        assert "kd.weight" in str(err.value)

    def test_zero_temperature_rejected(self):
        with pytest.raises(ParameterError) as err:
            parse_config("kd.temperature = 0\n")
        assert "kd.temperature" in str(err.value)

    def test_choice_fields(self):
        with pytest.raises(ParameterError):
            parse_config("model.norm = spectral\n")
        with pytest.raises(ParameterError):
            parse_config("data.kind = streaming\n")
        with pytest.raises(ParameterError):
            parse_config("data.split_scheme = thirds\n")

    def test_severity_range(self):
        with pytest.raises(ParameterError) as err:
            parse_config("corrupt.severity = 9\n")
        assert "corrupt.severity" in str(err.value)

    def test_seeds_must_not_be_empty(self):
        with pytest.raises(ParameterError):
            parse_config("run.seeds = \n")

    def test_synthetic_geometry_exclusivity(self):
        with pytest.raises(ParameterError):
            parse_config("data.image_shape = 1x4x4\n")
        with pytest.raises(ParameterError):
            parse_config("data.dim = none\n")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_floats_name_the_key(self, key):
        for text in ("nan", "inf", "-inf", "NaN"):
            with pytest.raises(ParameterError) as err:
                parse_config(f"{key} = {text}\n")
            assert key in str(err.value)

    @pytest.mark.parametrize("line", [
        "data.n_tasks = 0",
        "data.classes_per_task = 0",
        "data.samples_per_class = 0",
        "data.samples_per_class = 2",
        "data.dim = 0",
        "model.hidden = 0",
        "model.groups = 0",
        "data.blob_std = -1",
        "run.seeds = 1,2,1",
        "model.seed = -1",
        "data.seed = -1",
        "data.order_seed = -1",
        "run.seeds = -1",
        "run.seeds = 0,1,-2",
        "data.num_classes = 0",
        "data.n_tasks = -1",
        "train.decay_epochs = -3,2",
        "train.decay_factor = 1e200",
    ])
    def test_out_of_range_values_name_the_key(self, line):
        with pytest.raises(ParameterError) as err:
            parse_config(line + "\n")
        assert line.split(" = ")[0] in str(err.value)

    @settings(max_examples=80, deadline=None)
    # model.groups >= 1 is a range rule of its own, checked above
    @given(arch=st.sampled_from(["mlp", "cnn"]),
           norm=st.sampled_from(["batch", "none", "layer", "group"]),
           hidden=st.integers(1, 48), groups=st.integers(1, 48))
    def test_groups_rule_accepts_exactly_the_buildable_models(self, arch, norm, hidden, groups):
        geometry = "data.dim = 6" if arch == "mlp" else "data.dim = none\ndata.image_shape = 1x8x8"
        text = (f"model.arch = {arch}\nmodel.norm = {norm}\nmodel.hidden = {hidden}\n"
                f"model.groups = {groups}\n{geometry}\n")
        try:
            parse_config(text)
            accepted = True
        except ParameterError as exc:
            assert "model.groups" in str(exc)
            accepted = False
        sample = np.zeros((2, 6)) if arch == "mlp" else np.zeros((2, 1, 8, 8))
        spec = ModelSpec(arch=arch, norm=norm, hidden=hidden, groups=groups)
        try:
            build_model(spec, sample, 0)
            built = True
        except ParameterError:
            built = False
        assert accepted == built

    @settings(max_examples=60, deadline=None)
    @given(arch=st.sampled_from(["mlp", "cnn"]),
           geometry=st.one_of(
               st.builds(lambda dim: {"dim": dim}, st.integers(1, 8)),
               st.builds(lambda *shape: {"dim": None, "image_shape": shape},
                         st.integers(1, 3), st.integers(1, 8), st.integers(1, 8)),
               st.sampled_from(["idx", "cifar"])))
    def test_arch_rule_accepts_exactly_the_buildable_models(self, loader_files, arch,
                                                            geometry):
        spec = loader_files[geometry] if isinstance(geometry, str) else geometry
        text = f"model.arch = {arch}\n" + "".join(
            f"data.{name} = {render(value)}\n" for name, value in spec.items())
        try:
            parse_config(text)
            accepted = True
        except ParameterError as exc:
            assert "model.arch" in str(exc)
            accepted = False
        stream = build_stream(DataSpec(**spec), run_seed=0)
        try:
            build_model(ModelSpec(arch=arch), stream.tasks[0].train.inputs, 0)
            built = True
        except ParameterError:
            built = False
        assert accepted == built

    @settings(max_examples=80, deadline=None)
    @given(num_classes=st.integers(1, 24), scheme=st.sampled_from(["equal", "half_first"]),
           n_tasks=st.integers(1, 8))
    def test_class_split_rule_accepts_exactly_the_splittable_streams(
            self, num_classes, scheme, n_tasks):
        text = (f"data.kind = idx\nmodel.arch = cnn\ndata.dim = none\n"
                f"data.num_classes = {num_classes}\ndata.split_scheme = {scheme}\n"
                f"data.n_tasks = {n_tasks}\n")
        try:
            split_classes(num_classes, scheme, n_tasks)
            splittable = True
        except ParameterError:
            splittable = False
        try:
            parse_config(text)
            accepted = True
        except ParameterError as exc:
            assert str(exc).startswith("data.n_tasks: ")
            accepted = False
        # a DataSpec built in Python takes the same rule, so none reaches run_seed unsplittable
        try:
            DataSpec(kind="idx", num_classes=num_classes, split_scheme=scheme, n_tasks=n_tasks,
                     dim=None)
            built = True
        except ParameterError:
            built = False
        assert accepted == splittable == built

    @pytest.mark.parametrize("changes, key", [
        ({"seeds": ()}, "run.seeds"),
        ({"seeds": (0, 0)}, "run.seeds"),
        ({"seeds": (-1,)}, "run.seeds"),
        ({"model": ModelSpec(arch="cnn")}, "model.arch"),
        ({"data": DataSpec(dim=None, image_shape=(1, 8, 8))}, "model.arch"),
        ({"data": DataSpec(kind="idx")}, "model.arch"),
        ({"model": ModelSpec(norm="group", hidden=6, groups=4)}, "model.groups"),
        ({"data": DataSpec(image_shape=(1, 8, 8))}, "data.dim or data.image_shape"),
        ({"data": DataSpec(dim=None)}, "data.dim or data.image_shape"),
    ])
    def test_a_config_built_in_python_meets_the_rules_that_tie_keys(self, changes, key):
        """``replace`` and the constructor take the rules ``parse_config``
        takes, so no such config reaches ``run_experiment``."""
        for build in (lambda: replace(parse_config(""), **changes),
                      lambda: ExperimentConfig(**changes)):
            with pytest.raises(ParameterError, match=f"^{re.escape(key)}: "):
                build()

    @pytest.mark.parametrize("shape", [(1, 8), (-1, 8, 8), (1, 0, 8), (1, 8, 8, 8)])
    def test_replace_takes_the_image_shape_rule(self, shape):
        """A shape that is not three sizes >= 1 fails when the config is
        built, not in the run's data or first layer."""
        cfg = parse_config("model.arch = cnn\ndata.dim = none\ndata.image_shape = 1x8x8\n")
        with pytest.raises(ParameterError, match="^data.image_shape: "):
            replace(cfg, data=replace(cfg.data, image_shape=shape))

    @settings(max_examples=150, deadline=None)
    @given(seeds=st.lists(st.integers(-2, 3), max_size=3),
           kind=st.sampled_from(["synthetic", "idx", "cifar"]),
           dim=st.one_of(st.none(), st.integers(1, 8)),
           image_shape=st.one_of(st.none(), st.tuples(st.integers(-1, 3), st.integers(-1, 8),
                                                      st.integers(-1, 8))),
           arch=st.sampled_from(["mlp", "cnn"]),
           norm=st.sampled_from(["batch", "none", "layer", "group"]),
           hidden=st.integers(1, 48), groups=st.integers(1, 48))
    def test_text_and_python_accept_the_same_configs(self, seeds, kind, dim, image_shape,
                                                     arch, norm, hidden, groups):
        """For drawn values of the keys the tying rules read, the parsed
        document and the same values built in Python pass or fail alike,
        with one message."""
        text = (f"run.seeds = {','.join(map(str, seeds))}\ndata.kind = {kind}\n"
                f"data.dim = {render(dim)}\ndata.image_shape = {render(image_shape)}\n"
                f"model.arch = {arch}\nmodel.norm = {norm}\nmodel.hidden = {hidden}\n"
                f"model.groups = {groups}\n")
        outcomes = []
        for build in (lambda: parse_config(text),
                      lambda: ExperimentConfig(
                          data=DataSpec(kind=kind, dim=dim, image_shape=image_shape),
                          model=ModelSpec(arch=arch, norm=norm, hidden=hidden, groups=groups),
                          seeds=tuple(seeds))):
            try:
                outcomes.append(dump_config(build()))
            except ParameterError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("cls,name", RANGED_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in RANGED_FIELDS])
    def test_ranged_fields_reject_non_finite_values_from_python(self, cls, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match=name):
                cls(**{name: value})

    @settings(max_examples=400, deadline=None)
    @given(doc=st.dictionaries(
        st.sampled_from(list(ALL_KEYS)),
        st.sampled_from(TOKENS + tuple(value for value, _, _ in ALL_KEYS.values())),
        max_size=8))
    def test_random_documents_fail_typed_or_round_trip(self, doc):
        text = "".join(f"{key} = {value}\n" for key, value in doc.items())
        try:
            cfg = parse_config(text)
        except CltaError:
            return
        dumped = dump_config(cfg)
        assert dump_config(parse_config(dumped)) == dumped

    def test_subconfig_invariants_surface_as_config_errors(self):
        with pytest.raises(ParameterError):
            parse_config("train.epochs = 0\n")
        with pytest.raises(ParameterError):
            parse_config("train.decay_epochs = 12,6\n")
        with pytest.raises(ParameterError):
            parse_config("teacher.lr = -0.5\n")


class TestRoundTrip:
    def test_dump_then_parse_is_a_fixed_point(self):
        text = (
            "data.n_tasks = 4\n"
            "data.samples_per_class = 33\n"
            "data.shift = 0.25\n"
            "kd.variant = multiclass\n"
            "kd.weight = 2.5\n"
            "teacher.kind = pretrain_norm\n"
            "train.grad_clip = 10\n"
            "run.seeds = 3,1,4\n"
        )
        cfg = parse_config(text)
        dumped = dump_config(cfg)
        again = parse_config(dumped)
        assert dump_config(again) == dumped
        assert again.seeds == (3, 1, 4)
        assert again.train.grad_clip == 10.0

    def test_every_key_lands_on_its_field_and_round_trips(self):
        defaults = parse_config("")
        assert list(ALL_KEYS) == [line.split(" = ")[0]
                                  for line in dump_config(defaults).splitlines()]
        text = "".join(f"{key} = {value}\n" for key, (value, _, _) in ALL_KEYS.items())
        cfg = parse_config(text)
        for key, (_, path, expected) in ALL_KEYS.items():
            assert attribute(cfg, path) == expected, key
            assert attribute(defaults, path) != expected, key
        dumped = dump_config(cfg)
        assert dumped == text
        assert dump_config(parse_config(dumped)) == dumped

    def test_image_shape_dumps_in_canonical_form(self):
        cfg = parse_config("model.arch = cnn\ndata.dim = none\ndata.image_shape = 1X8x8\n")
        assert "data.image_shape = 1x8x8\n" in dump_config(cfg)

    def test_dump_mentions_every_key_once(self):
        dumped = dump_config(parse_config(""))
        keys = [line.split("=")[0].strip() for line in dumped.splitlines()]
        assert len(keys) == len(set(keys))
        assert "kd.temperature" in keys
        assert "warmup.patience" in keys
        assert dumped.endswith("\n")

    def test_a_config_built_in_python_dumps_like_the_defaults(self):
        assert dump_config(ExperimentConfig()) == dump_config(parse_config(""))

    def test_defaults_round_trip(self):
        dumped = dump_config(parse_config(""))
        assert dump_config(parse_config(dumped)) == dumped


class TestFileValidation:
    def test_idx_kind_requires_existing_files(self, tmp_path):
        cfg = parse_config("data.kind = idx\nmodel.arch = cnn\n")
        with pytest.raises(ParameterError) as err:
            validate_config(cfg)
        assert "data.images" in str(err.value)

        missing = parse_config(
            "data.kind = idx\nmodel.arch = cnn\n"
            f"data.images = {tmp_path / 'nope.idx'}\n"
            f"data.labels = {tmp_path / 'nope2.idx'}\n"
            f"data.test_images = {tmp_path / 'nope3.idx'}\n"
            f"data.test_labels = {tmp_path / 'nope4.idx'}\n"
        )
        with pytest.raises(ParameterError) as err:
            validate_config(missing)
        assert "not found" in str(err.value)

    IMAGES = struct.pack(">IIII", IDX_IMAGE_MAGIC, 10, 4, 4) + bytes(160)
    LABELS = struct.pack(">II", IDX_LABEL_MAGIC, 10) + bytes(range(10))

    def idx_config(self, root, images=IMAGES, labels=LABELS, extra=""):
        (root / "images.idx").write_bytes(images)
        (root / "labels.idx").write_bytes(labels)
        return parse_config(
            "data.kind = idx\nmodel.arch = cnn\n" + extra
            + "".join(f"data.{key} = {root / (('labels' if 'labels' in key else 'images') + '.idx')}\n"
                      for key in ("images", "labels", "test_images", "test_labels")))

    @pytest.mark.parametrize("images, labels, key, error, match", [
        (b"", LABELS, "data.images", FormatError, "image header"),
        (IMAGES, b"", "data.labels", FormatError, "label header"),
        (struct.pack(">IIII", 0x00000999, 10, 4, 4) + bytes(160), LABELS,
         "data.images", FormatError, "magic"),
        (struct.pack(">III", 0x00000802, 10, 16) + bytes(160), LABELS,
         "data.images", FormatError, "rank 2, expected 3"),
        (IMAGES[:-1], LABELS, "data.images", FormatError, "159 left"),
        (IMAGES, LABELS[:-1], "data.labels", FormatError, "9 left"),
        (struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 0x2A000002, 0x62000002), LABELS,
         "data.images", FormatError, "too large"),
        (IMAGES, struct.pack(">II", IDX_LABEL_MAGIC, 9) + bytes(9),
         "data.labels", ConsistencyError, "9 labels for the 10 images"),
    ])
    def test_idx_headers_are_checked_and_name_the_key(self, tmp_path, images, labels, key,
                                                      error, match):
        with pytest.raises(error, match=match) as err:
            validate_config(self.idx_config(tmp_path, images, labels))
        assert str(err.value).startswith(key + ":")

    @pytest.mark.parametrize("position, value, extra, match", [
        (3, 12, "", "label 12 of record 3 (byte 11) is not below data.num_classes = 10"),
        (0, 255, "", "label 255 of record 0 (byte 8) is not below data.num_classes = 10"),
        (None, None, "data.num_classes = 9\ndata.n_tasks = 3\n",
         "label 9 of record 9 (byte 17) is not below data.num_classes = 9"),
    ])
    def test_idx_label_at_or_above_num_classes_names_record_and_byte(
            self, tmp_path, position, value, extra, match):
        labels = bytearray(self.LABELS)
        if position is not None:
            labels[8 + position] = value
        with pytest.raises(DataError) as err:
            validate_config(self.idx_config(tmp_path, labels=bytes(labels), extra=extra))
        assert str(err.value) == "data.labels: " + match

    @staticmethod
    def idx_pair(labels):
        return (struct.pack(">IIII", IDX_IMAGE_MAGIC, len(labels), 2, 2) + bytes(4 * len(labels)),
                struct.pack(">II", IDX_LABEL_MAGIC, len(labels)) + bytes(labels))

    @pytest.mark.parametrize("labels, extra, match", [
        ((0, 1, 2, 3, 5, 0, 1, 2, 3, 4), "",
         "task 2 (classes [5, 6, 7, 8, 9]) gets 1 training samples"),
        ((0, 1, 2, 3, 4), "", "task 2 (classes [5, 6, 7, 8, 9]) gets 0 training samples"),
        # the groups are those of the shuffled class order, [4 6 2 7 3 | 5 9 0 8 1]
        ((0, 1, 5, 6), "data.order_seed = 0\n",
         "task 1 (classes [4, 6, 2, 7, 3]) gets 1 training samples"),
        ((0, 1, 5, 5, 6, 6), "data.split_scheme = half_first\ndata.n_tasks = 5\n",
         "task 4 (classes [7]) gets 0 training samples"),
    ])
    def test_a_class_group_with_too_few_training_samples_names_key_and_task(
            self, tmp_path, labels, extra, match):
        with pytest.raises(DataError) as err:
            validate_config(self.idx_config(tmp_path, *self.idx_pair(labels), extra=extra))
        assert str(err.value) == f"data.labels: {match}, needs at least 2"

    def test_the_same_labels_pass_in_the_natural_class_order(self, tmp_path):
        validate_config(self.idx_config(tmp_path, *self.idx_pair((0, 1, 5, 6))))

    @settings(max_examples=60, deadline=None)
    @given(train=st.lists(st.integers(0, 5), max_size=8),
           test=st.lists(st.integers(0, 5), max_size=4),
           n_tasks=st.sampled_from([1, 2, 3]), order_seed=st.one_of(st.none(), st.integers(0, 3)))
    def test_validation_accepts_exactly_the_streams_every_task_can_train_and_test_on(
            self, tmp_path_factory, train, test, n_tasks, order_seed):
        root = tmp_path_factory.mktemp("groups")
        paths = {}
        for split, labels in (("", train), ("test_", test)):
            for kind, blob in zip(("images", "labels"), self.idx_pair(labels)):
                paths[split + kind] = root / f"{split}{kind}.idx"
                paths[split + kind].write_bytes(blob)
        cfg = parse_config(f"data.kind = idx\nmodel.arch = cnn\ndata.num_classes = 6\n"
                           f"data.n_tasks = {n_tasks}\ndata.order_seed = {render(order_seed)}\n"
                           + "".join(f"data.{key} = {path}\n" for key, path in paths.items()))
        try:
            validate_config(cfg)
            accepted = True
        except DataError as exc:
            assert str(exc).startswith(("data.labels: task", "data.test_labels: task"))
            accepted = False
        stream = build_stream(cfg.data, run_seed=0)
        assert accepted == all(len(t.train) >= 2 and len(t.test) >= 1 for t in stream.tasks)

    def cifar_config(self, root, train_labels, test_labels):
        """Records of the given label bytes; every pixel byte is 255, which
        no label check may read."""
        for name, labels in (("batch.bin", train_labels), ("test.bin", test_labels)):
            (root / name).write_bytes(b"".join(bytes([c]) + b"\xff" * 3072 for c in labels))
        return parse_config(f"data.kind = cifar\nmodel.arch = cnn\n"
                            f"data.path = {root / 'batch.bin'}\n"
                            f"data.test_path = {root / 'test.bin'}\n")

    def test_cifar_label_bytes_are_checked_and_pixels_are_not(self, tmp_path):
        validate_config(self.cifar_config(tmp_path, range(10), (9, 0)))

    @pytest.mark.parametrize("train, test, match", [
        ((0, 1, 10, 3), (0,), "data.path: label 10 of record 2 (byte 6146)"),
        (range(10), (4, 5, 6, 7, 200), "data.test_path: label 200 of record 4 (byte 12292)"),
    ])
    def test_cifar_label_at_or_above_num_classes_names_record_and_byte(
            self, tmp_path, train, test, match):
        with pytest.raises(DataError) as err:
            validate_config(self.cifar_config(tmp_path, train, test))
        assert str(err.value) == match + " is not below data.num_classes = 10"

    def test_a_cifar_class_group_without_test_samples_names_key_and_task(self, tmp_path):
        with pytest.raises(DataError) as err:
            validate_config(self.cifar_config(tmp_path, range(10), (0, 4)))
        assert str(err.value) == ("data.test_path: task 2 (classes [5, 6, 7, 8, 9]) gets 0 "
                                  "test samples, needs at least 1")

    @pytest.mark.parametrize("size", [0, 3073 * 2 - 1, 100])
    def test_cifar_length_must_be_a_nonzero_multiple_of_the_record(self, tmp_path, size):
        (tmp_path / "batch.bin").write_bytes(bytes(size))
        (tmp_path / "test.bin").write_bytes(bytes(3073))
        cfg = parse_config(f"data.kind = cifar\nmodel.arch = cnn\n"
                           f"data.path = {tmp_path / 'batch.bin'}\n"
                           f"data.test_path = {tmp_path / 'test.bin'}\n")
        with pytest.raises(FormatError, match="data.path: file size"):
            validate_config(cfg)

    def test_sound_files_pass(self, tmp_path, loader_files):
        for spec in loader_files.values():
            validate_config(parse_config("model.arch = cnn\n" + "".join(
                f"data.{name} = {value}\n" for name, value in spec.items())))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), which=st.sampled_from(["images", "labels"]))
    def test_validated_idx_files_load(self, tmp_path_factory, data, which):
        """Header or body bytes overwritten or the file cut: whatever
        validation accepts, the loader accepts."""
        blobs = {"images": self.IMAGES, "labels": self.LABELS}
        blob = bytearray(blobs[which])
        for pos, value in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                       st.integers(0, 255)), max_size=3)):
            blob[pos] = value
        blobs[which] = bytes(blob[:data.draw(st.integers(0, len(blob)))])
        root = tmp_path_factory.mktemp("idx")
        cfg = self.idx_config(root, blobs["images"], blobs["labels"])
        try:
            validate_config(cfg)
        except (FormatError, DataError):
            return
        load_idx(cfg.data.images, cfg.data.labels, cfg.data.num_classes)

    def test_synthetic_kind_needs_no_files(self):
        validate_config(parse_config(""))

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("run.config_id = from_file\n")
        assert load_config(path).config_id == "from_file"
