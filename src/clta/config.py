"""Flat dotted-key experiment configuration.

The on-disk format is plain text, one ``section.key = value`` per line,
``#`` comments allowed.  ``_KEY_TABLE`` declares every key once: its type
and the dataclass field it fills, whose default is the key's default and
whose metadata is its value rule (see ``errors.check_value``).  Parsing
fills every unspecified key with that default and rejects keys it does not
know, so typos fail loudly.  The normalized dump writes every key back in
canonical order from the fields; parsing that dump reproduces the
configuration exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, is_dataclass

from .distill import KDConfig, TeacherStrategy
from .data import SIGMA_LADDER
from .errors import FormatError, ParameterError, check_fields, check_value
from .harness import TrainConfig, WarmupConfig
from .layers import CNN_WIDTHS


@dataclass
class DataSpec:
    kind: str = field(default="synthetic", metadata={"choices": ("synthetic", "idx", "cifar")})
    n_tasks: int = field(default=2, metadata={">=": 1})
    classes_per_task: int = field(default=2, metadata={">=": 1})
    dim: int | None = field(default=16, metadata={">=": 1})
    image_shape: tuple | None = None
    samples_per_class: int = field(default=40, metadata={">=": 1})
    shift: float = 0.0
    blob_std: float = field(default=0.06, metadata={">=": 0})
    seed: int | None = None
    num_classes: int = 10
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    path: str | None = None
    test_path: str | None = None
    split_scheme: str = field(default="equal", metadata={"choices": ("equal", "half_first")})
    split_parts: int | None = None
    order_seed: int | None = None
    corrupt_severity: int = field(default=0, metadata={">=": 0, "<=": len(SIGMA_LADDER)})
    corrupt_pattern: str = field(default="none", metadata={"choices": ("none", "every_other")})

    def __post_init__(self):
        check_fields(self)


@dataclass
class ModelSpec:
    arch: str = field(default="mlp", metadata={"choices": ("mlp", "cnn")})
    norm: str = field(default="batch", metadata={"choices": ("batch", "none", "layer", "group")})
    hidden: int = field(default=64, metadata={">=": 1})
    groups: int = field(default=4, metadata={">=": 1})
    seed: int | None = None

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
    seeds: tuple = (0,)
    output: str = "runs/experiment"
    config_id: str = "experiment"
    workers: int = field(default=1, metadata={">=": 1})

    def __post_init__(self):
        check_fields(self)


# section -> the dataclass its keys fill: the class an ExperimentConfig field
# defaults to, or ExperimentConfig itself for the "run" keys
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
             if is_dataclass(f.default_factory)} | {"run": ExperimentConfig}

# section -> field name -> field
_FIELDS = {section: {f.name: f for f in fields(cls)} for section, cls in _SECTIONS.items()}

# key -> (type tag, section, field); the key's default is the field's default
# and its value rule the field's metadata
# type tags: int, float, bool, str, intlist, shape (CxHxW), and opt<tag>,
# which also accepts "none"
_KEY_TABLE: dict[str, tuple[str, str, str]] = {
    "data.kind": ("str", "data", "kind"),
    "data.n_tasks": ("int", "data", "n_tasks"),
    "data.classes_per_task": ("int", "data", "classes_per_task"),
    "data.dim": ("optint", "data", "dim"),
    "data.image_shape": ("optshape", "data", "image_shape"),
    "data.samples_per_class": ("int", "data", "samples_per_class"),
    "data.shift": ("float", "data", "shift"),
    "data.blob_std": ("float", "data", "blob_std"),
    "data.seed": ("optint", "data", "seed"),
    "data.num_classes": ("int", "data", "num_classes"),
    "data.images": ("optstr", "data", "images"),
    "data.labels": ("optstr", "data", "labels"),
    "data.test_images": ("optstr", "data", "test_images"),
    "data.test_labels": ("optstr", "data", "test_labels"),
    "data.path": ("optstr", "data", "path"),
    "data.test_path": ("optstr", "data", "test_path"),
    "data.split_scheme": ("str", "data", "split_scheme"),
    "data.split_parts": ("optint", "data", "split_parts"),
    "data.order_seed": ("optint", "data", "order_seed"),
    "corrupt.severity": ("int", "data", "corrupt_severity"),
    "corrupt.pattern": ("str", "data", "corrupt_pattern"),
    "model.arch": ("str", "model", "arch"),
    "model.norm": ("str", "model", "norm"),
    "model.hidden": ("int", "model", "hidden"),
    "model.groups": ("int", "model", "groups"),
    "model.seed": ("optint", "model", "seed"),
    "kd.variant": ("str", "kd", "variant"),
    "kd.temperature": ("float", "kd", "temperature"),
    "kd.weight": ("float", "kd", "weight"),
    "kd.aux_weight": ("optfloat", "kd", "aux_weight"),
    "teacher.kind": ("str", "strategy", "kind"),
    "teacher.lr": ("float", "strategy", "teacher_lr"),
    "teacher.pretrain_epochs": ("int", "strategy", "pretrain_epochs"),
    "teacher.adapt_with_running": ("bool", "strategy", "adapt_with_running"),
    "train.epochs": ("int", "train", "epochs"),
    "train.batch_size": ("int", "train", "batch_size"),
    "train.base_lr": ("float", "train", "base_lr"),
    "train.decay_epochs": ("intlist", "train", "lr_decay_epochs"),
    "train.decay_factor": ("float", "train", "lr_decay_factor"),
    "train.grad_clip": ("optfloat", "train", "grad_clip"),
    "warmup.enabled": ("bool", "warmup", "enabled"),
    "warmup.max_lr": ("float", "warmup", "max_lr"),
    "warmup.ramp_epochs": ("int", "warmup", "ramp_epochs"),
    "warmup.max_epochs": ("int", "warmup", "max_epochs"),
    "warmup.patience": ("int", "warmup", "early_stop_patience"),
    "run.seeds": ("intlist", "run", "seeds"),
    "run.output": ("str", "run", "output"),
    "run.config_id": ("str", "run", "config_id"),
    "run.workers": ("int", "run", "workers"),
}

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
        if tag == "shape":
            shape = tuple(int(p) for p in text.lower().split("x"))
            if len(shape) != 3 or min(shape) < 1:
                raise ParameterError(f"{key}: expected CxHxW of positive sizes, got '{text}'")
            return shape
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
    """Parse a key-value document, apply defaults, validate everything."""
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

    parsed = {}
    kwargs = {section: {} for section in _SECTIONS}
    for key, (tag, section, name) in _KEY_TABLE.items():
        spec = _FIELDS[section][name]
        value = _parse_value(key, tag, raw[key]) if key in raw else spec.default
        check_value(key, value, spec.metadata)
        parsed[key] = kwargs[section][name] = value

    seeds = parsed["run.seeds"]
    if not seeds:
        raise ParameterError("run.seeds: at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise ParameterError(f"run.seeds: each seed may appear once, "
                             f"got {_normalize('intlist', seeds)}")
    if parsed["model.norm"] == "group":
        widths = (parsed["model.hidden"],) if parsed["model.arch"] == "mlp" else CNN_WIDTHS
        if any(width % parsed["model.groups"] for width in widths):
            raise ParameterError(f"model.groups: {parsed['model.groups']} must divide "
                                 f"every layer width {widths}")
    kind = parsed["data.kind"]
    geometry = (parsed["data.dim"], parsed["data.image_shape"])
    if kind == "synthetic" and geometry.count(None) != 1:
        raise ParameterError("data.dim or data.image_shape: exactly one must be set")
    # the idx and cifar loaders always return images
    source = (f"data.kind = {kind}" if kind != "synthetic"
              else "data.dim" if geometry[1] is None else "data.image_shape")
    vectors = source == "data.dim"
    if (parsed["model.arch"] == "mlp") != vectors:
        raise ParameterError(f"model.arch: {parsed['model.arch']} does not take the "
                             f"{'vector' if vectors else 'image'} inputs of {source}")

    run = kwargs.pop("run")
    sections = {}
    for section, kw in kwargs.items():
        try:
            sections[section] = _SECTIONS[section](**kw)
        except ParameterError as exc:
            raise ParameterError(f"{section}: {exc}") from exc
    return ExperimentConfig(**sections, **run)


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces the configuration."""
    lines = []
    for key, (tag, section, name) in _KEY_TABLE.items():
        owner = cfg if section == "run" else getattr(cfg, section)
        lines.append(f"{key} = {_normalize(tag, getattr(owner, name))}")
    return "\n".join(lines) + "\n"


def validate_config(cfg: ExperimentConfig) -> None:
    """Check constraints that reach outside the document, such as file paths."""
    required = {"idx": ("images", "labels", "test_images", "test_labels"),
                "cifar": ("path", "test_path")}.get(cfg.data.kind, ())
    for name in required:
        value = getattr(cfg.data, name)
        if value is None:
            raise ParameterError(f"data.{name}: required for data.kind = {cfg.data.kind}")
        if not os.path.isfile(value):
            raise ParameterError(f"data.{name}: file not found: {value}")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
