"""Network layers, normalization modes, and the multi-head incremental model.

The normalization mode threaded through every forward pass decides whether
batch-norm layers normalize by batch statistics (and update their running
estimates) or by the stored running statistics:

* ``TRAIN``       - batch statistics, running stats updated, gradients flow.
* ``EVAL``        - running statistics, no side effects.
* ``ADAPT_STATS`` - batch statistics and a running-stats update, but the
  whole computation is detached so no gradient can ever reach the layer.
  This is the mode a distillation teacher runs in when its statistics are
  allowed to track the new task's data.
* ``ADAPT_STATS_RUNNING`` - ADAPT_STATS, but normalizing by the freshly
  updated running statistics instead of the batch statistics.

All four modes run the one ``autodiff.normalize`` op, by batch statistics
or by the running statistics, with the learned scale and shift folded into
the same graph node; the adapt modes run it under ``no_grad``, so their
output is detached.  The batch mean and variance are computed once per call
and feed both the running update and the op.  ``LayerNorm`` runs the same
op over its own axes; ``GroupNorm`` normalizes a grouped view and applies
its scale and shift after reshaping back.  ``Dense`` is one
``autodiff.linear`` node and ``Conv2d`` one ``autodiff.conv2d`` node, so
each of these layers adds a single node to the graph.

Running statistics follow the usual deep-learning convention: exponential
moving average with momentum 0.1, biased variance used to normalize the
batch, unbiased variance stored in the running estimate.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import math
import struct
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .errors import (
    DegenerateBatchError,
    FormatError,
    ParameterError,
    ShapeError,
    TruncatedFileError,
)

SNAPSHOT_MAGIC = b"CLTA"
SNAPSHOT_VERSION = 1


class NormMode(Enum):
    TRAIN = "train"
    EVAL = "eval"
    ADAPT_STATS = "adapt_stats"
    ADAPT_STATS_RUNNING = "adapt_stats_running"


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base class: parameters list and mode-aware forward."""

    kind: str = "layer"

    def parameters(self) -> list[Tensor]:
        return []

    def norm_parameters(self) -> list[Tensor]:
        """Parameters belonging to a normalization layer (empty otherwise)."""
        return []

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        raise NotImplementedError


class Dense(Layer):
    kind = "dense"

    def __init__(self, in_features: int, out_features: int,
                 init: str = "kaiming", rng: np.random.Generator | None = None):
        if out_features < 1:
            raise ParameterError(f"dense layer needs >= 1 output, got {out_features}")
        self.in_features = in_features
        self.out_features = out_features
        if init == "zeros":
            weight = np.zeros((in_features, out_features))
        elif init == "kaiming":
            if rng is None:
                raise ParameterError("kaiming init requires an rng")
            weight = kaiming_uniform(rng, (in_features, out_features), in_features)
        else:
            raise ParameterError(f"unknown init scheme '{init}'")
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class Conv2d(Layer):
    kind = "conv2d"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None):
        if min(in_channels, out_channels, kernel_size) < 1:
            raise ParameterError(f"conv layer sizes must be >= 1, got {in_channels} -> "
                                 f"{out_channels} channels, kernel {kernel_size}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        if rng is None:
            raise ParameterError("conv layer requires an rng for initialization")
        weight = kaiming_uniform(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        return ad.relu(x)


class Identity(Layer):
    """Placeholder for removed normalization (the no-norm ablation)."""

    kind = "identity"

    def __init__(self, num_features: int = 0):
        self.num_features = num_features

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        return x


class GlobalAvgPool(Layer):
    kind = "global_avg_pool"

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        if x.data.ndim != 4:
            raise ShapeError(f"global average pool expects 4-D input, got {x.shape}")
        return ad.tensor_mean(x, axis=(2, 3))


def _channel_shape(x: Tensor, num_features: int) -> tuple[int, ...]:
    if x.data.ndim < 2 or x.shape[1] != num_features:
        raise ShapeError(f"expected {num_features} channels on axis 1, got shape {x.shape}")
    return (1, num_features) + (1,) * (x.data.ndim - 2)


class _AffineNorm(Layer):
    """A normalization followed by a learned per-channel scale and shift."""

    def __init__(self, num_features: int, eps: float = 1e-5):
        if not eps >= 0.0:
            raise ParameterError(f"eps must be >= 0, got {eps}")
        self.num_features = num_features
        self.eps = eps
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)

    def parameters(self):
        return [self.gamma, self.beta]

    def norm_parameters(self):
        return [self.gamma, self.beta]


class BatchNorm(_AffineNorm):
    """Per-channel batch normalization with running-statistics state."""

    kind = "batchnorm"

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        if not 0.0 < momentum <= 1.0:
            raise ParameterError(f"momentum must be in (0, 1], got {momentum}")
        super().__init__(num_features, eps)
        self.momentum = momentum
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def _update_running(self, x: np.ndarray,
                        axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Fold the batch statistics into the running ones; returns the batch
        mean and biased variance, with the reduced axes kept."""
        count = int(np.prod([x.shape[a] for a in axes]))
        batch_mean, batch_var = ad._batch_moments(x, axes)
        unbiased = batch_var.ravel() * count / (count - 1)
        m = self.momentum
        self.running_mean = (1.0 - m) * self.running_mean + m * batch_mean.ravel()
        self.running_var = (1.0 - m) * self.running_var + m * unbiased
        return batch_mean, batch_var

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        shape = _channel_shape(x, self.num_features)
        axes = (0,) + tuple(range(2, x.data.ndim))
        moments = stats = None
        if mode is not NormMode.EVAL:
            if x.shape[0] < 2:
                raise DegenerateBatchError(f"batch normalization in {mode.value} mode needs "
                                           f"batch size >= 2, got {x.shape[0]}")
            moments = self._update_running(x.data, axes)
        if mode in (NormMode.EVAL, NormMode.ADAPT_STATS_RUNNING):
            stats = (self.running_mean.reshape(shape), self.running_var.reshape(shape))
        adapting = mode in (NormMode.ADAPT_STATS, NormMode.ADAPT_STATS_RUNNING)
        with no_grad() if adapting else contextlib.nullcontext():
            return ad.normalize(x, axes, self.eps, stats, self.gamma, self.beta, moments)


class LayerNorm(_AffineNorm):
    """Per-sample normalization over all non-batch axes; no running state."""

    kind = "layernorm"

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        _channel_shape(x, self.num_features)
        return ad.normalize(x, tuple(range(1, x.data.ndim)), self.eps,
                            gamma=self.gamma, beta=self.beta)


class GroupNorm(_AffineNorm):
    """Per-sample normalization over channel groups; no running state."""

    kind = "groupnorm"

    def __init__(self, num_features: int, groups: int, eps: float = 1e-5):
        if groups < 1 or num_features % groups != 0:
            raise ParameterError(
                f"group count {groups} must divide channel count {num_features}"
            )
        super().__init__(num_features, eps)
        self.groups = groups

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        shape = _channel_shape(x, self.num_features)
        n = x.shape[0]
        spatial = x.shape[2:]
        grouped = ad.reshape(x, (n, self.groups, self.num_features // self.groups) + spatial)
        xhat = ad.normalize(grouped, tuple(range(2, grouped.data.ndim)), self.eps)
        return (ad.reshape(xhat, x.shape) * ad.reshape(self.gamma, shape)
                + ad.reshape(self.beta, shape))


# ----------------------------------------------------------------------
# incremental model
# ----------------------------------------------------------------------


class IncrementalModel:
    """Shared backbone plus one linear classification head per task.

    Head t maps the backbone features to that task's class count; the
    concatenation of all head outputs enumerates every class seen so far,
    in task order.
    """

    def __init__(self, backbone: list[Layer], feature_dim: int):
        self.backbone = backbone
        self.heads: list[Dense] = []
        self.feature_dim = feature_dim

    def features(self, x: Tensor, mode: NormMode = NormMode.EVAL) -> Tensor:
        """The backbone's output, (batch, feature_dim)."""
        h = x
        for layer in self.backbone:
            h = layer.forward(h, mode)
        if h.data.ndim != 2 or h.shape[1] != self.feature_dim:
            raise ShapeError(
                f"backbone produced shape {h.shape}, expected (batch, {self.feature_dim})"
            )
        return h

    def forward(self, x: Tensor, mode: NormMode = NormMode.EVAL,
                capture_features: bool = False):
        h = self.features(x, mode)
        logits = [head.forward(h, mode) for head in self.heads]
        if capture_features:
            return logits, h
        return logits

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.backbone:
            params.extend(layer.parameters())
        for head in self.heads:
            params.extend(head.parameters())
        return params

    def norm_parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.backbone:
            params.extend(layer.norm_parameters())
        return params

    def batchnorm_layers(self) -> list[BatchNorm]:
        return [l for l in self.backbone if isinstance(l, BatchNorm)]

    def total_classes(self) -> int:
        return sum(head.out_features for head in self.heads)


def add_task_head(model: IncrementalModel, num_classes: int, seed=None) -> IncrementalModel:
    """Append a fresh classification head; everything else is untouched.

    ``seed`` feeds numpy's generator and may be an int or a tuple of ints.
    """
    if num_classes < 1:
        raise ParameterError(f"a task head needs >= 1 class, got {num_classes}")
    model.heads.append(Dense(model.feature_dim, num_classes, rng=np.random.default_rng(seed)))
    return model


def snapshot_model(model: IncrementalModel) -> IncrementalModel:
    """Deep copy for use as a distillation teacher; never aliases the source."""
    return copy.deepcopy(model)


# ----------------------------------------------------------------------
# reference architectures
# ----------------------------------------------------------------------


def _norm_layer(norm: str, num_features: int, groups: int) -> Layer:
    if norm == "batch":
        return BatchNorm(num_features)
    if norm == "layer":
        return LayerNorm(num_features)
    if norm == "group":
        return GroupNorm(num_features, groups)
    if norm == "none":
        return Identity(num_features)
    raise ParameterError(f"unknown normalization variant '{norm}'")


def build_micro_mlp(input_dim: int, norm: str = "batch", seed: int = 0,
                    hidden: int = 64, groups: int = 4) -> IncrementalModel:
    """Two dense blocks of width ``hidden``, each followed by norm + relu."""
    rng = np.random.default_rng(seed)
    backbone = [
        Dense(input_dim, hidden, rng=rng),
        _norm_layer(norm, hidden, groups),
        ReLU(),
        Dense(hidden, hidden, rng=rng),
        _norm_layer(norm, hidden, groups),
        ReLU(),
    ]
    return IncrementalModel(backbone, hidden)


CNN_WIDTHS = (8, 16, 32)


def build_micro_cnn(in_channels: int, norm: str = "batch", seed: int = 0,
                    groups: int = 4) -> IncrementalModel:
    """Three stride-2 conv blocks (``CNN_WIDTHS`` channels) with global average pool."""
    rng = np.random.default_rng(seed)
    backbone: list[Layer] = []
    channels = (in_channels,) + CNN_WIDTHS
    for cin, cout in zip(channels, channels[1:]):
        backbone.append(Conv2d(cin, cout, kernel_size=3, stride=2, padding=1, rng=rng))
        backbone.append(_norm_layer(norm, cout, groups))
        backbone.append(ReLU())
    backbone.append(GlobalAvgPool())
    return IncrementalModel(backbone, channels[-1])


# ----------------------------------------------------------------------
# snapshot serialization
# ----------------------------------------------------------------------

_PER_CHANNEL = ("num_features",)
_AFFINE = dict.fromkeys(("gamma", "beta"), _PER_CHANNEL)

# layer class -> (tag byte, header struct format, header fields, the shape of
# each state array in header fields); each constructor takes its header fields
_RECORDS: dict[type, tuple] = {
    Dense: (1, "<II", ("in_features", "out_features"),
            {"weight": ("in_features", "out_features"), "bias": ("out_features",)}),
    Conv2d: (2, "<IIIII", ("in_channels", "out_channels", "kernel_size", "stride", "padding"),
             {"weight": ("out_channels", "in_channels", "kernel_size", "kernel_size"),
              "bias": ("out_channels",)}),
    BatchNorm: (3, "<Idd", ("num_features", "momentum", "eps"),
                {**_AFFINE, "running_mean": _PER_CHANNEL, "running_var": _PER_CHANNEL}),
    LayerNorm: (4, "<Id", ("num_features", "eps"), _AFFINE),
    GroupNorm: (5, "<IId", ("num_features", "groups", "eps"), _AFFINE),
    ReLU: (6, "<", (), {}),
    Identity: (7, "<I", _PER_CHANNEL, {}),
    GlobalAvgPool: (8, "<", (), {}),
}
_TAG_TYPES = {record[0]: cls for cls, record in _RECORDS.items()}
_MAX_NDIM = 4  # no layer holds an array of more dimensions


def _state(layer: Layer, name: str) -> np.ndarray:
    value = getattr(layer, name)
    return value.data if isinstance(value, Tensor) else value


def _write_array(buf: io.BytesIO, arr: np.ndarray) -> None:
    buf.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        buf.write(struct.pack("<I", dim))
    buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(buf: io.BytesIO, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"snapshot ended early: wanted {n} bytes, got {len(data)}")
    return data


def _read_array(buf: io.BytesIO) -> np.ndarray:
    offset = buf.tell()
    (ndim,) = struct.unpack("<B", _read_exact(buf, 1))
    if ndim > _MAX_NDIM:
        raise FormatError(f"array at byte {offset}: {ndim} dimensions, at most {_MAX_NDIM}")
    shape = struct.unpack(f"<{ndim}I", _read_exact(buf, 4 * ndim))
    size = math.prod(shape) * 8
    left = buf.getbuffer().nbytes - buf.tell()
    if size > left:
        raise TruncatedFileError(f"array at byte {offset}: shape {shape} needs {size} bytes, "
                                 f"{left} left")
    return np.frombuffer(_read_exact(buf, size), dtype="<f8").reshape(shape).copy()


def _write_layer(buf: io.BytesIO, layer: Layer) -> None:
    tag, fmt, header, arrays = _RECORDS[type(layer)]
    buf.write(struct.pack("<B", tag))
    buf.write(struct.pack(fmt, *(getattr(layer, name) for name in header)))
    for name in arrays:
        _write_array(buf, _state(layer, name))


def _read_layer(buf: io.BytesIO) -> Layer:
    offset = buf.tell()
    (tag,) = struct.unpack("<B", _read_exact(buf, 1))
    cls = _TAG_TYPES.get(tag)
    if cls is None:
        raise FormatError(f"unknown layer tag {tag} at byte {offset}")
    _, fmt, header, arrays = _RECORDS[cls]
    fields = dict(zip(header, struct.unpack(fmt, _read_exact(buf, struct.calcsize(fmt)))))
    state = {}
    for name, dims in arrays.items():
        state[name] = _read_array(buf)
        expected = tuple(fields[d] for d in dims)
        if state[name].shape != expected:
            raise FormatError(f"{cls.kind} record at byte {offset}: {name} has shape "
                              f"{state[name].shape}, its header says {expected}")
    # the arrays are read and checked first, so nothing below allocates more
    # than the snapshot holds
    if cls is Dense:
        fields["init"] = "zeros"
    elif cls is Conv2d:
        fields["rng"] = np.random.default_rng(0)
    layer = cls(**fields)
    for name, arr in state.items():
        setattr(layer, name, Tensor(arr, requires_grad=True)
                if isinstance(getattr(layer, name), Tensor) else arr)
    return layer


def serialize_model(model: IncrementalModel) -> bytes:
    """Versioned flat binary snapshot; round-trips bit-exactly."""
    buf = io.BytesIO()
    buf.write(SNAPSHOT_MAGIC)
    buf.write(struct.pack("<I", SNAPSHOT_VERSION))
    buf.write(struct.pack("<I", model.feature_dim))
    buf.write(struct.pack("<I", len(model.backbone)))
    for layer in model.backbone:
        _write_layer(buf, layer)
    buf.write(struct.pack("<I", len(model.heads)))
    for head in model.heads:
        _write_layer(buf, head)
    return buf.getvalue()


def deserialize_model(blob: bytes) -> IncrementalModel:
    buf = io.BytesIO(blob)
    magic = _read_exact(buf, 4)
    if magic != SNAPSHOT_MAGIC:
        raise FormatError(f"bad snapshot magic {magic!r}")
    (version,) = struct.unpack("<I", _read_exact(buf, 4))
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"unsupported snapshot version {version}")
    (feature_dim,) = struct.unpack("<I", _read_exact(buf, 4))
    (n_backbone,) = struct.unpack("<I", _read_exact(buf, 4))
    backbone = [_read_layer(buf) for _ in range(n_backbone)]
    model = IncrementalModel(backbone, feature_dim)
    (n_heads,) = struct.unpack("<I", _read_exact(buf, 4))
    for _ in range(n_heads):
        head = _read_layer(buf)
        if not isinstance(head, Dense):
            raise FormatError("snapshot head record is not a dense layer")
        model.heads.append(head)
    return model


def model_checksum(model: IncrementalModel) -> str:
    return hashlib.sha256(serialize_model(model)).hexdigest()


def parameter_checksums(model: IncrementalModel) -> dict[str, str]:
    """Per-array checksums, keyed by layer position and array name.

    Lets tests pin down exactly which state a strategy touched.
    """
    sums: dict[str, str] = {}

    def put(key: str, arr: np.ndarray) -> None:
        sums[key] = hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()

    for i, layer in enumerate(model.backbone):
        for name in _RECORDS[type(layer)][3]:
            put(f"backbone.{i}.{layer.kind}.{name}", _state(layer, name))
    for i, head in enumerate(model.heads):
        put(f"head.{i}.weight", head.weight.data)
        put(f"head.{i}.bias", head.bias.data)
    return sums
