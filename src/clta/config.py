"""Flat dotted-key experiment configuration.

The on-disk format is plain text, one ``section.key = value`` per line,
``#`` comments allowed.  Each key is a field of a config dataclass, and
the field declares it once: its annotation gives the key's type, its
default the key's default and its metadata the key's value rule (see
``errors.check_value``).  A key is spelled ``<section>.<field>``, where the
section is the ``ExperimentConfig`` field holding the dataclass (``run``
for ExperimentConfig's own fields, ``teacher`` for ``strategy``), except
five keys that ``_KEY_NAMES`` spells out, such as ``corrupt.severity`` for
``data.corrupt_severity``.  Parsing fills every unspecified key with its
default and rejects keys it does not know, so typos fail loudly.  The
normalized dump writes every key back in canonical order from the fields;
parsing that dump reproduces the configuration exactly.
"""

from __future__ import annotations

import os
from dataclasses import Field, dataclass, field, fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np

from .distill import KDConfig, TeacherStrategy
from .data import (CIFAR_RECORD, SIGMA_LADDER, cifar_record_count, read_idx_header,
                   split_classes)
from .errors import (ConsistencyError, DataError, FormatError, ParameterError, check_fields,
                     check_value)
from .harness import TrainConfig, WarmupConfig
from .layers import CNN_WIDTHS


@dataclass
class DataSpec:
    kind: str = field(default="synthetic", metadata={"choices": ("synthetic", "idx", "cifar")})
    n_tasks: int = field(default=2, metadata={">=": 1})
    classes_per_task: int = field(default=2, metadata={">=": 1})
    dim: int | None = field(default=16, metadata={">=": 1})
    image_shape: tuple[int, int, int] | None = None
    # the 80/20 split keeps a test sample per class from 3 samples on
    samples_per_class: int = field(default=40, metadata={">=": 3})
    shift: float = 0.0
    blob_std: float = field(default=0.06, metadata={">=": 0})
    seed: int | None = field(default=None, metadata={">=": 0})
    num_classes: int = field(default=10, metadata={">=": 1})
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    path: str | None = None
    test_path: str | None = None
    split_scheme: str = field(default="equal", metadata={"choices": ("equal", "half_first")})
    order_seed: int | None = field(default=None, metadata={">=": 0})
    corrupt_severity: int = field(default=0, metadata={">=": 0, "<=": len(SIGMA_LADDER)})

    def __post_init__(self):
        check_fields(self)
        shape = self.image_shape
        if shape is not None and (len(shape) != 3 or min(shape) < 1):
            raise ParameterError(f"data.image_shape: expected CxHxW of positive sizes, got "
                                 f"{'x'.join(map(str, shape))}")
        if self.kind != "synthetic":
            try:
                self.class_groups()
            except ParameterError as exc:
                raise ParameterError(f"data.n_tasks: {exc}") from exc

    def class_groups(self) -> list[np.ndarray]:
        """The class ids of each task of an ``idx`` or ``cifar`` stream."""
        return split_classes(self.num_classes, self.split_scheme, self.n_tasks,
                             order_seed=self.order_seed)


@dataclass
class ModelSpec:
    arch: str = field(default="mlp", metadata={"choices": ("mlp", "cnn")})
    norm: str = field(default="batch", metadata={"choices": ("batch", "none", "layer", "group")})
    hidden: int = field(default=64, metadata={">=": 1})
    groups: int = field(default=4, metadata={">=": 1})
    seed: int | None = field(default=None, metadata={">=": 0})

    def __post_init__(self):
        check_fields(self)


@dataclass
class ExperimentConfig:
    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    kd: KDConfig = field(default_factory=KDConfig)
    strategy: TeacherStrategy = field(default_factory=TeacherStrategy)
    train: TrainConfig = field(default_factory=TrainConfig)
    warmup: WarmupConfig = field(default_factory=WarmupConfig)
    seeds: tuple[int, ...] = (0,)
    output: str = "runs/experiment"
    config_id: str = "experiment"
    workers: int = field(default=1, metadata={">=": 1})

    def __post_init__(self):
        """The per-field rules, then those that tie keys of several sections."""
        check_fields(self)
        seeds, data, model = self.seeds, self.data, self.model
        if not seeds:
            raise ParameterError("run.seeds: at least one seed is required")
        if len(set(seeds)) != len(seeds):
            raise ParameterError(f"run.seeds: each seed may appear once, "
                                 f"got {_normalize('intlist', seeds)}")
        for seed in seeds:
            check_value("run.seeds", seed, {">=": 0})
        if model.norm == "group":
            widths = (model.hidden,) if model.arch == "mlp" else CNN_WIDTHS
            if any(width % model.groups for width in widths):
                raise ParameterError(f"model.groups: {model.groups} must divide "
                                     f"every layer width {widths}")
        geometry = (data.dim, data.image_shape)
        if data.kind == "synthetic" and geometry.count(None) != 1:
            raise ParameterError("data.dim or data.image_shape: exactly one must be set")
        # the idx and cifar loaders always return images
        source = (f"data.kind = {data.kind}" if data.kind != "synthetic"
                  else "data.dim" if geometry[1] is None else "data.image_shape")
        vectors = source == "data.dim"
        if (model.arch == "mlp") != vectors:
            raise ParameterError(f"model.arch: {model.arch} does not take the "
                                 f"{'vector' if vectors else 'image'} inputs of {source}")


# section -> the dataclass its keys fill: the class an ExperimentConfig field
# defaults to, or ExperimentConfig itself for the "run" keys
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
             if is_dataclass(f.default_factory)} | {"run": ExperimentConfig}

# section.field -> key, for the keys not spelled that way; the other
# strategy keys start with "teacher."
_KEY_NAMES = {
    "data.corrupt_severity": "corrupt.severity",
    "strategy.teacher_lr": "teacher.lr",
    "train.lr_decay_epochs": "train.decay_epochs",
    "train.lr_decay_factor": "train.decay_factor",
    "warmup.early_stop_patience": "warmup.patience",
}

# annotation -> type tag (shape is CxHxW); ``X | None`` takes the tag
# opt<X>, which also accepts "none"
_TAGS = {int: "int", float: "float", bool: "bool", str: "str",
         tuple[int, ...]: "intlist", tuple[int, int, int]: "shape"}


def _tag(hint) -> str:
    args = get_args(hint)
    return "opt" + _TAGS[args[0]] if type(None) in args else _TAGS[hint]


def _key_table() -> dict[str, tuple[str, str, Field]]:
    """key -> (type tag, section, field), in section then field declaration
    order; the key's default is the field's default and its value rule the
    field's metadata."""
    table = {}
    for section, cls in _SECTIONS.items():
        hints = get_type_hints(cls)
        prefix = "teacher" if section == "strategy" else section
        for f in fields(cls):
            if not is_dataclass(f.default_factory):  # not one of the run's sections
                key = _KEY_NAMES.get(f"{section}.{f.name}", f"{prefix}.{f.name}")
                table[key] = (_tag(hints[f.name]), section, f)
    return table


_KEY_TABLE = _key_table()


def _parse_value(key: str, tag: str, text: str):
    if tag.startswith("opt"):
        return None if text in ("none", "") else _parse_value(key, tag[3:], text)
    try:
        if tag == "int":
            return int(text)
        if tag == "float":
            return float(text)
        if tag == "bool":
            if text not in ("true", "false"):
                raise ValueError(text)
            return text == "true"
        if tag == "intlist":
            return tuple(int(p) for p in text.split(",") if p.strip() != "")
        if tag == "shape":  # DataSpec checks the sizes
            return tuple(int(p) for p in text.lower().split("x"))
        return text
    except ValueError as exc:
        raise ParameterError(f"{key}: cannot read '{text}' as {tag}") from exc


def _normalize(tag: str, value) -> str:
    if value is None:
        return "none"
    tag = tag.removeprefix("opt")
    if tag == "bool":
        return "true" if value else "false"
    if tag == "intlist":
        return ",".join(str(v) for v in value)
    if tag == "shape":
        return "x".join(str(v) for v in value)
    if tag == "float":
        return repr(float(value))
    return str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a key-value document, apply defaults and check each value's own
    rule; the config dataclasses check the rules that tie keys together."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise FormatError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_TABLE:
            raise ParameterError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise FormatError(f"line {lineno}: duplicate key '{key}'")
        raw[key] = value

    kwargs = {section: {} for section in _SECTIONS}
    for key, (tag, section, spec) in _KEY_TABLE.items():
        value = _parse_value(key, tag, raw[key]) if key in raw else spec.default
        check_value(key, value, spec.metadata)
        kwargs[section][spec.name] = value
    run = kwargs.pop("run")
    return ExperimentConfig(**{section: _SECTIONS[section](**kw)
                               for section, kw in kwargs.items()}, **run)


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces the configuration."""
    lines = []
    for key, (tag, section, spec) in _KEY_TABLE.items():
        owner = cfg if section == "run" else getattr(cfg, section)
        lines.append(f"{key} = {_normalize(tag, getattr(owner, spec.name))}")
    return "\n".join(lines) + "\n"


def validate_config(cfg: ExperimentConfig) -> None:
    """Check what reaches outside the document: each data file that
    ``data.kind`` needs exists and passes its loader's size checks, IDX
    headers (magic, rank, sizes against the file length, image count against
    label count) and CIFAR file lengths, every label byte is below
    ``data.num_classes``, and each task's class group gets at least 2
    training samples and 1 test sample.  Reads the label bytes (the body of
    an IDX label file, the first byte of each CIFAR record) but no pixels."""
    required = {"idx": ("images", "labels", "test_images", "test_labels"),
                "cifar": ("path", "test_path")}.get(cfg.data.kind, ())
    counts, per_class = {}, {}
    for name in required:
        value = getattr(cfg.data, name)
        if value is None:
            raise ParameterError(f"data.{name}: required for data.kind = {cfg.data.kind}")
        if not os.path.isfile(value):
            raise ParameterError(f"data.{name}: file not found: {value}")
        labels = None
        try:
            if cfg.data.kind == "cifar":
                records = cifar_record_count(os.path.getsize(value))
                # a strided view of the mapped file: the first byte of each record
                start, stride = 0, CIFAR_RECORD
                labels = np.array(np.memmap(value, np.uint8, "r",
                                            shape=(records, CIFAR_RECORD))[:, 0])
            else:
                with open(value, "rb") as fh:
                    what = "label" if "label" in name else "image"
                    counts[name] = read_idx_header(fh, what)[0]
                    if what == "label":
                        start, stride = fh.tell(), 1
                        labels = np.frombuffer(fh.read(counts[name]), np.uint8)
        except FormatError as exc:
            raise type(exc)(f"data.{name}: {exc}") from exc
        if labels is not None:
            bad = np.flatnonzero(labels >= cfg.data.num_classes)
            if bad.size:
                i = int(bad[0])
                raise DataError(f"data.{name}: label {labels[i]} of record {i} (byte "
                                f"{start + i * stride}) is not below data.num_classes = "
                                f"{cfg.data.num_classes}")
            per_class[name] = np.bincount(labels, minlength=cfg.data.num_classes)
    for images, labels in (("images", "labels"), ("test_images", "test_labels")):
        if images in counts and counts[images] != counts[labels]:
            raise ConsistencyError(f"data.{labels}: {counts[labels]} labels for the "
                                   f"{counts[images]} images of data.{images}")
    # a task needs 2 rows to make a training batch and 1 to evaluate on
    for name, class_counts in per_class.items():
        split, least = ("test", 1) if name.startswith("test") else ("training", 2)
        for t, group in enumerate(cfg.data.class_groups(), 1):
            n = int(class_counts[group].sum())
            if n < least:
                raise DataError(f"data.{name}: task {t} (classes {group.tolist()}) gets {n} "
                                f"{split} samples, needs at least {least}")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
