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

All three modes run the one ``autodiff.batch_norm`` call: TRAIN and
ADAPT_STATS compute the batch moments once, normalize by them and fold
them into the running statistics, EVAL normalizes by the running
statistics, each with the learned scale and shift folded in.  TRAIN and
EVAL add one graph node; ADAPT_STATS gets a detached output and builds no
graph.  ``GroupNorm`` is one per-sample ``autodiff.normalize`` node, its
scale and shift included; ``LayerNorm`` is a ``GroupNorm`` with one group.
``Dense`` is one ``autodiff.linear`` node and ``Conv2d`` one
``autodiff.conv2d`` node, so each of these layers adds a single node to
the graph.

Running statistics follow the usual deep-learning convention: exponential
moving average with momentum 0.1, biased variance used to normalize the
batch, unbiased variance stored in the running estimate.
"""

from __future__ import annotations

import copy
import hashlib
import math
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegenerateBatchError, ParameterError, ShapeError

MOMENTUM = 0.1  # batch norm: the batch's weight in each running-statistics update


class NormMode(Enum):
    TRAIN = "train"
    EVAL = "eval"
    ADAPT_STATS = "adapt_stats"


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base class: parameters list and mode-aware forward."""

    kind: str = "layer"

    def parameters(self) -> list[Tensor]:
        return []

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        raise NotImplementedError


class Dense(Layer):
    kind = "dense"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        if out_features < 1:
            raise ParameterError(f"dense layer needs >= 1 output, got {out_features}")
        self.out_features = out_features
        weight = kaiming_uniform(rng, (in_features, out_features), in_features)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class Conv2d(Layer):
    kind = "conv2d"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, *, rng: np.random.Generator):
        if min(in_channels, out_channels, kernel_size) < 1:
            raise ParameterError(f"conv layer sizes must be >= 1, got {in_channels} -> "
                                 f"{out_channels} channels, kernel {kernel_size}")
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
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

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        return x


class GlobalAvgPool(Layer):
    kind = "global_avg_pool"

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        if x.data.ndim != 4:
            raise ShapeError(f"global average pool expects 4-D input, got {x.shape}")
        return ad.tensor_mean(x, axis=(2, 3))


class _AffineNorm(Layer):
    """A normalization followed by a learned per-channel scale and shift."""

    def __init__(self, num_features: int, eps: float = 1e-5):
        if num_features < 1:
            raise ParameterError(f"a normalization layer needs >= 1 channel, got {num_features}")
        if not eps >= 0.0:
            raise ParameterError(f"eps must be >= 0, got {eps}")
        self.num_features = num_features
        self.eps = eps
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)

    def parameters(self):
        return [self.gamma, self.beta]


# mode -> ``autodiff.batch_norm``'s (momentum, detach)
_BATCHNORM_MODES = {
    NormMode.TRAIN: (MOMENTUM, False),
    NormMode.EVAL: (None, False),
    NormMode.ADAPT_STATS: (MOMENTUM, True),
}


class BatchNorm(_AffineNorm):
    """Per-channel batch normalization with running-statistics state."""

    kind = "batchnorm"

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__(num_features, eps)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor, mode: NormMode) -> Tensor:
        """One ``autodiff.batch_norm`` call over the batch and spatial axes.

        TRAIN and ADAPT_STATS normalize by the batch statistics and fold
        them into the running ones, EVAL by the running ones; ADAPT_STATS
        returns a detached output.  A batch of one sample raises
        ``DegenerateBatchError`` in every mode but EVAL.
        """
        if x.data.ndim < 2 or x.shape[1] != self.num_features:
            raise ShapeError(f"expected {self.num_features} channels on axis 1, "
                             f"got shape {x.shape}")
        if mode is not NormMode.EVAL and x.shape[0] < 2:
            raise DegenerateBatchError(f"batch normalization in {mode.value} mode needs "
                                       f"batch size >= 2, got {x.shape[0]}")
        out, (self.running_mean, self.running_var) = ad.batch_norm(
            x, self.gamma, self.beta, (self.running_mean, self.running_var), self.eps,
            *_BATCHNORM_MODES[mode])
        return out


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
        return ad.normalize(x, self.groups, self.eps, self.gamma, self.beta)


class LayerNorm(GroupNorm):
    """Per-sample normalization over all non-batch axes: one group."""

    kind = "layernorm"

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__(num_features, 1, eps)


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
                heads: slice = slice(None)) -> list[Tensor]:
        """The logits of ``self.heads[heads]``, every head by default."""
        h = self.features(x, mode)
        return [head.forward(h, mode) for head in self.heads[heads]]

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.backbone:
            params.extend(layer.parameters())
        for head in self.heads:
            params.extend(head.parameters())
        return params

    def norm_parameters(self) -> list[Tensor]:
        return [p for layer in self.backbone if isinstance(layer, _AffineNorm)
                for p in layer.parameters()]

    def batchnorm_layers(self) -> list[BatchNorm]:
        return [l for l in self.backbone if isinstance(l, BatchNorm)]

    def total_classes(self) -> int:
        return sum(head.out_features for head in self.heads)


def add_task_head(model: IncrementalModel, num_classes: int, seed) -> IncrementalModel:
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
        return Identity()
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
# checksums
# ----------------------------------------------------------------------


def parameter_checksums(model: IncrementalModel) -> dict[str, str]:
    """Per-array checksums, keyed by layer position and array name
    (``backbone.1.batchnorm.running_mean``, ``head.0.weight``).

    Each digest covers the array's shape and values.  The arrays are the
    layer's own attributes: its parameters and any running statistics.
    Lets tests pin down exactly which state a strategy touched.
    """
    layers = [(f"backbone.{i}.{layer.kind}", layer) for i, layer in enumerate(model.backbone)]
    layers += [(f"head.{i}", head) for i, head in enumerate(model.heads)]
    sums: dict[str, str] = {}
    for prefix, layer in layers:
        for name, value in vars(layer).items():
            arr = value.data if isinstance(value, Tensor) else value
            if isinstance(arr, np.ndarray):
                digest = hashlib.sha256(repr(arr.shape).encode())
                digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
                sums[f"{prefix}.{name}"] = digest.hexdigest()
    return sums


def model_checksum(model: IncrementalModel) -> str:
    """One digest over ``parameter_checksums``: it identifies the model's
    state (the arrays and their shapes), not its hyperparameters, so two
    models that differ only in, say, ``eps`` or a conv stride hash alike."""
    digest = hashlib.sha256()
    for key, value in parameter_checksums(model).items():
        digest.update(f"{key}={value}\n".encode())
    return digest.hexdigest()
