"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` wraps a C-contiguous float64 array.  Every primitive that sees
an input with ``requires_grad`` appends itself to the implicit computation
record (the creator links stored on its output), and ``Tensor.backward``
replays that record in reverse topological order.  The record is consumed
by the backward pass; a second backward on the same scalar raises.

Only leaves (tensors not made by an op) receive a ``grad``, the sum of all
their contributions; it lives until the ``optim.sgd_step`` that consumes it.

Op outputs are not checked for NaN or inf; a non-finite value propagates
(``relu`` passes NaN on) until it crosses a boundary that is checked: the
``Tensor`` constructor, through which data enters the graph, the target
probabilities in ``soft_cross_entropy``, the variance in ``normalize`` and
``batch_norm``, the training losses, the gradients and updates in
``optim.sgd_step`` and the evaluation logits in ``metrics.predict_global``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (ContractError, DataError, DegenerateBatchError, NumericError,
                     ParameterError, ShapeError)

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let freed arrays return to the heap for reuse instead of to the kernel.

    By default glibc serves each large allocation with a fresh ``mmap``,
    unmaps it on free and trims the heap top, so the kernel zero-fills every
    large temporary (activations, im2col columns, gradients) again, page by
    page, on every step: a cnn32 seed of the benchmark took about 186,000
    minor page faults.  Raising both thresholds keeps that memory in the
    process.  Setting either one switches off glibc's adjustment of both, so
    both are set.  Does nothing where the C library has no ``mallopt``
    (macOS, musl).  Process-wide; workers inherit it under fork and set it
    again on import otherwise.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


_keep_freed_memory()

# Process-global: clta is not thread-safe, and ``run.workers`` trains
# seeds in separate processes.
_grad_enabled = True


def grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable recording of the computation graph inside the block."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Dense float64 array with an optional gradient and creator record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if not np.logical_and.reduce(np.isfinite(arr), axis=None):
            raise NumericError("tensor constructed with non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] | None = None
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    # ------------------------------------------------------------------
    # operator sugar
    # ------------------------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _coerce(other))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward(self) -> None:
        """Add d(this scalar)/d(leaf) to ``grad`` on every requires-grad leaf
        reached; intermediate results get none.  Pieces are summed in reverse
        depth-first post-order.  The walked creator links are cleared, so the
        graph cannot be replayed."""
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        if self._parents is None:
            raise ContractError("backward() on a detached tensor: no recorded computation reaches it")

        order: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent._parents is not None and parent not in seen:
                    stack.append((parent, False))

        # a node's consumers all come before it: its pieces are in when it is popped
        flowing: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        # inf and NaN pass on to sgd_step's gradient check without a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for node in reversed(order):
                parents, vjp = node._parents, node._vjp
                node._parents = node._vjp = None
                upstream = flowing.pop(node, None)
                if upstream is None:
                    continue
                for parent, piece in zip(parents, vjp(upstream)):
                    if piece is None or not parent.requires_grad:
                        continue
                    if parent in flowing:
                        flowing[parent] = flowing[parent] + piece
                    else:
                        flowing[parent] = piece

            # what is left reached leaves; a lone piece may be shared, so copy it
            for leaf, grad in flowing.items():
                leaf.grad = grad.copy() if leaf.grad is None else leaf.grad + grad


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _make(values: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    # no finiteness check here: a NaN or inf propagates to a boundary check
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(values, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    out._parents = out._vjp = None
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._vjp = vjp
                break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ----------------------------------------------------------------------
# elementwise primitives
# ----------------------------------------------------------------------


def _broadcast_binary(op: str, a: Tensor, b: Tensor, forward, dfa, dfb) -> Tensor:
    try:
        values = forward(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g: np.ndarray):
        return (
            _unbroadcast(dfa(g), a.shape) if a.requires_grad else None,
            _unbroadcast(dfb(g), b.shape) if b.requires_grad else None,
        )

    return _make(values, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_binary("add", a, b, np.add, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_binary("sub", a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_binary(
        "mul", a, b, np.multiply, lambda g: g * b.data, lambda g: g * a.data
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_binary(
        "div",
        a,
        b,
        np.divide,
        lambda g: g / b.data,
        lambda g: -g * a.data / (b.data * b.data),
    )


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _make(a.data * factor, (a,), lambda g: (g * factor,))


def add_scalar(a: Tensor, offset: float) -> Tensor:
    offset = float(offset)
    return _make(a.data + offset, (a,), lambda g: (g,))


def relu(a: Tensor) -> Tensor:
    # the mask is taken in the VJP, so forwards without a graph skip it
    return _make(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),))  # passes NaN on


def sigmoid(a: Tensor) -> Tensor:
    s = _stable_sigmoid(a.data)
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.log(a.data)
    return _make(values, (a,), lambda g: (g / a.data,))


def exp(a: Tensor) -> Tensor:
    values = np.exp(a.data)
    return _make(values, (a,), lambda g: (g * values,))


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        values = np.sqrt(a.data)
    return _make(values, (a,), lambda g: (g * 0.5 / values,))


def log_sigmoid(a: Tensor) -> Tensor:
    # log sigma(x) = -softplus(-x), computed without overflow on either tail
    x = a.data
    tail = np.log1p(np.exp(-np.abs(x)))
    values = np.where(x >= 0, -tail, x - tail)
    return _make(values, (a,), lambda g: (g * _stable_sigmoid(-x),))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ----------------------------------------------------------------------
# reductions and shape ops
# ----------------------------------------------------------------------


def _norm_axis(op: str, axis, ndim: int):
    """``axis`` (None, an integer or a tuple or list of them) as a tuple of
    axes in ``[0, ndim)``.  An axis outside ``[-ndim, ndim)``, one that is not
    an integer, or one given twice raises ``ShapeError`` naming ``op``."""
    if axis is None:
        return None
    axes = tuple(axis) if isinstance(axis, (tuple, list)) else (axis,)
    out = []
    for a in axes:
        if not (type(a) is int or isinstance(a, np.integer)):
            raise ShapeError(f"{op}: axis {a!r} is not an integer (tensor ndim {ndim})")
        if not -ndim <= a < ndim:
            raise ShapeError(f"{op}: axis {a} is out of range for a tensor of ndim {ndim}")
        out.append(int(a) % ndim)
    if len(set(out)) != len(out):
        raise ShapeError(f"{op}: axis {axes} names an axis twice (tensor ndim {ndim})")
    return tuple(out)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis("tensor_sum", axis, a.data.ndim)
    values = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g: np.ndarray):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(values, (a,), vjp)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis("tensor_mean", axis, a.data.ndim)
    values = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else math.prod(a.shape[i] for i in axis)

    def vjp(g: np.ndarray):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy() / count,)

    return _make(values, (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    try:
        values = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from exc
    return _make(values, (a,), lambda g: (g.reshape(old),))


def flatten(a: Tensor) -> Tensor:
    """Collapse all trailing axes: (N, ...) -> (N, features)."""
    if a.data.ndim < 2:
        raise ShapeError(f"flatten expects a batch axis, got shape {a.shape}")
    return reshape(a, (a.shape[0], -1))


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = tuple(tensors)
    if not parts:
        raise ShapeError("concat of an empty tensor list")
    axis = _norm_axis("concat", (axis,), parts[0].data.ndim)[0]
    try:
        values = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError("concat: shapes disagree off the concatenation axis") from exc
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p.shape[axis])

    def vjp(g: np.ndarray):
        slicer = [slice(None)] * g.ndim
        pieces = []
        for i, part in enumerate(parts):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(slicer)] if part.requires_grad else None)
        return tuple(pieces)

    return _make(values, parts, vjp)


def _batch_moments(x: np.ndarray, axes: tuple[int, ...],
                   count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and biased variance over ``axes``, with the reduced axes kept,
    and ``x - mean``, the centered input both are taken from.  Each moment
    is ``np.add.reduce`` over ``axes`` divided by ``count``, the number of
    elements each reduction covers, which is what ``ndarray.mean`` computes,
    so the two equal numpy's ``mean`` and ``var`` bit for bit.  Callers run
    it under an ``np.errstate`` that ignores overflow and invalid values: an
    overflow yields an infinite or NaN variance, which ``_inverse_std``
    rejects, and no floating-point warning."""
    mean = np.add.reduce(x, axis=axes, keepdims=True) / count
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=axes, keepdims=True) / count
    return mean, var, centered


def _inverse_std(var: np.ndarray, eps: float) -> np.ndarray:
    """``1 / sqrt(var + eps)``, run under an ``np.errstate`` that ignores
    division by zero and invalid values.  A variance that is not finite, or
    zero with ``eps = 0``, leaves it zero, infinite or NaN (NaN fails both
    comparisons), which raises ``NumericError``; ``normalize`` and
    ``batch_norm`` share the one message."""
    inv = 1.0 / np.sqrt(var + float(eps))
    if inv.size and not (np.minimum.reduce(inv, axis=None) > 0.0
                         and np.maximum.reduce(inv, axis=None) < math.inf):
        raise NumericError("op 'normalize' produced a non-finite variance, "
                           f"or a zero variance with eps = {eps}")
    return inv


def normalize(x: Tensor, groups: int, eps: float, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-sample group normalization, then ``* gamma + beta``, as one graph
    node: GroupNorm, and LayerNorm with ``groups = 1``.

    The channels of ``x`` (axis 1) fall into ``groups`` equal consecutive
    groups; each sample's mean and biased variance are taken over each
    group's channels and every trailing axis, and the gradient flows
    through them.  ``gamma`` and ``beta`` are per-channel vectors and the
    output is ``xhat * gamma + beta``.  A variance that is not finite, or
    zero with ``eps = 0``, raises ``NumericError``.

    ``inv = 1 / sqrt(var + eps)`` is taken once per sample and group, and the
    input gradient is the closed form (Ioffe & Szegedy, arXiv 1502.03167)
    ``g * inv - centered * (inv**3 * sum(g * centered) / count) - inv *
    sum(g) / count``, with ``g`` the upstream gradient times gamma, sums
    over a group and ``count`` the number of values in one.  Per-channel
    statistics with running estimates are ``batch_norm``'s.
    """
    data = x.data
    shape = data.shape
    channels = gamma.data.shape
    if data.ndim < 2 or channels != (shape[1],) or beta.data.shape != channels \
            or groups < 1 or shape[1] % groups:
        raise ShapeError(f"normalize: gamma {channels} and beta {beta.data.shape} must be "
                         f"(channels,), split into {groups} equal groups, for input {shape}")
    count = shape[1] // groups * math.prod(shape[2:])
    grouped = (shape[0], groups, count)
    affine = (1, shape[1]) + (1,) * (data.ndim - 2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, var, centered = _batch_moments(data.reshape(grouped), (2,), count)
        inv = _inverse_std(var, eps)
        xhat = (centered * inv).reshape(shape)
        gamma_b = gamma.data.reshape(affine)
        values = xhat * gamma_b
        values += beta.data.reshape(affine)

    def vjp(g: np.ndarray):
        pieces = (_unbroadcast(g * xhat, affine).reshape(channels) if gamma.requires_grad else None,
                  _unbroadcast(g, affine).reshape(channels) if beta.requires_grad else None)
        if not x.requires_grad:
            return (None, *pieces)
        g = (g * gamma_b).reshape(grouped)
        gc = g * centered
        sum_gc = np.add.reduce(gc, axis=2, keepdims=True)
        sum_g = np.add.reduce(g, axis=2, keepdims=True)
        gx = g * inv
        np.multiply(centered, inv * inv * inv * sum_gc / count, out=gc)
        gx -= gc
        gx -= inv * sum_g / count
        return (gx.reshape(shape), *pieces)

    return _make(values, (x, gamma, beta), vjp)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running: tuple[np.ndarray, np.ndarray], eps: float, momentum: float | None,
               detach: bool) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Per-channel batch normalization over every axis but 1, with the
    running-statistics update and the affine, in one call.

    ``running`` is the ``(mean, var)`` pair of per-channel running
    statistics; returns the output and the pair after this call.  With a
    ``momentum`` the output is normalized by the batch's mean and biased
    variance, and the batch's mean and unbiased variance are folded in as
    ``(1 - momentum) * old + momentum * batch`` (new arrays; the given ones
    are not written), which needs two or more values per channel.  With
    ``None`` the output is normalized by the running pair, which is left
    as it is.  ``detach`` returns an output outside any graph, as under
    ``no_grad``; otherwise the output is one graph node over ``x``,
    ``gamma`` and ``beta``.  A variance that is not finite, or zero with
    ``eps = 0``, raises ``NumericError`` and leaves nothing updated.

    With ``inv = 1 / sqrt(var + eps)`` the affine folds into ``s = gamma *
    inv`` and the output is ``centered * s + beta``.  Gamma's gradient is
    ``sum(g * centered) * inv`` and beta's ``sum(g)``, sums over the
    reduced axes; the input gradient is ``g * s`` by running statistics and
    the closed form (Ioffe & Szegedy, arXiv 1502.03167) ``g * s - centered
    * (s * inv**2 * sum(g * centered) / count) - s * sum(g) / count`` by
    batch statistics, ``count`` the number of values per channel.  The
    running statistics equal numpy's ``mean``/``var`` bit for bit.
    """
    data = x.data
    ndim = data.ndim
    channels = gamma.data.shape
    if ndim < 2 or channels != (data.shape[1],) or beta.data.shape != channels \
            or running[0].shape != channels or running[1].shape != channels:
        raise ShapeError(f"batch_norm: gamma {channels}, beta {beta.data.shape} and running "
                         f"statistics {running[0].shape}, {running[1].shape} must all be "
                         f"(channels,) for input {data.shape}")
    shape = (1, data.shape[1]) + (1,) * (ndim - 2)
    axes = (0, *range(2, ndim))
    count = data.size // data.shape[1]
    if momentum is not None and count < 2:
        raise DegenerateBatchError(f"batch_norm: a running-statistics update needs >= 2 "
                                   f"values per channel, got {count}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if momentum is None:
            centered = data - running[0].reshape(shape)
            inv = _inverse_std(running[1].reshape(shape), eps)
        else:
            mean, var, centered = _batch_moments(data, axes, count)
            inv = _inverse_std(var, eps)  # checked before the update, which a failing call skips
            unbiased = var.ravel() * count / (count - 1)
            running = ((1.0 - momentum) * running[0] + momentum * mean.ravel(),
                       (1.0 - momentum) * running[1] + momentum * unbiased)
        scale = gamma.data.reshape(shape) * inv
        values = centered * scale
        values += beta.data.reshape(shape)
    if detach:
        return _make(values, (), None), running

    def vjp(g: np.ndarray):
        gc = g * centered
        sum_gc = np.add.reduce(gc, axis=axes, keepdims=True)
        sum_g = np.add.reduce(g, axis=axes, keepdims=True)
        pieces = ((sum_gc * inv).reshape(channels) if gamma.requires_grad else None,
                  sum_g.reshape(channels) if beta.requires_grad else None)
        if not x.requires_grad:
            return (None, *pieces)
        gx = g * scale
        if momentum is not None:
            np.multiply(centered, scale * inv * inv * sum_gc / count, out=gc)
            gx -= gc
            gx -= scale * sum_g / count
        return (gx, *pieces)

    return _make(values, (x, gamma, beta), vjp), running


# ----------------------------------------------------------------------
# linear algebra and convolution
# ----------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ ({a.shape} @ {b.shape})")
    values = a.data @ b.data

    def vjp(g: np.ndarray):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _make(values, (a, b), vjp)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as one graph node; values and gradients equal
    those of the matmul, add pair bit for bit."""
    x_shape, w_shape = x.data.shape, weight.data.shape
    if len(x_shape) != 2 or len(w_shape) != 2:
        raise ShapeError(f"linear expects 2-D input and weight, got {x_shape} and {w_shape}")
    if x_shape[1] != w_shape[0]:
        raise ShapeError(f"linear: inner dimensions differ ({x_shape} @ {w_shape})")
    if bias.data.shape != (w_shape[1],):
        raise ShapeError(f"linear: bias shape {bias.data.shape}, expected ({w_shape[1]},)")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN pass on to a checked boundary
        values = x.data @ weight.data + bias.data

    def vjp(g: np.ndarray):
        return (g @ weight.data.T if x.requires_grad else None,
                x.data.T @ g if weight.requires_grad else None,
                np.add.reduce(g, axis=0) if bias.requires_grad else None)

    return _make(values, (x, weight, bias), vjp)


@functools.lru_cache(maxsize=64)
def _window_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                  pad: int) -> tuple[np.ndarray, int, int]:
    """im2col of a sample's slots in a flat ``1 + c*h*w`` buffer, slot 0 the padding; read-only."""
    pos = np.pad(np.arange(1, c * h * w + 1).reshape(c, h, w), ((0, 0), (pad,) * 2, (pad,) * 2))
    windows = np.lib.stride_tricks.sliding_window_view(pos, (kh, kw), (1, 2))[:, ::stride, ::stride]
    index = windows.transpose(0, 3, 4, 1, 2).ravel()
    index.setflags(write=False)
    return index, windows.shape[1], windows.shape[2]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation on (batch, channels, height, width) input: a gather
    (``np.take``) and a scatter-add (``np.bincount``) through ``_window_index``,
    with the floats of strided windows on a zero-padded copy and ``kh * kw``
    strided adds (a gather only copies; ``bincount`` adds each element's pieces
    to 0.0 in kernel-offset order).  Inf and NaN pass on without a warning."""
    if stride not in (1, 2):
        raise ParameterError(f"conv2d stride must be 1 or 2, got {stride}")
    if padding < 0:
        raise ParameterError(f"conv2d padding must be >= 0, got {padding}")
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/kernel, got {x.shape} and {weight.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = weight.shape
    if ck != c:
        raise ShapeError(f"conv2d: input has {c} channels but kernel expects {ck}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than padded input {h}x{w}")

    index, oh, ow = _window_index(c, h, w, kh, kw, stride, padding)
    size = c * h * w
    flat = np.concatenate((np.zeros((n, 1)), x.data.reshape(n, size)), axis=1)
    cols = np.take(flat, index, axis=1).reshape(n, c * kh * kw, oh * ow)
    wmat = weight.data.reshape(f, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(wmat, cols).reshape(n, f, oh, ow)
        if bias is not None:
            out += bias.data.reshape(1, f, 1, 1)

    def vjp(g: np.ndarray):
        gmat = g.reshape(n, f, oh * ow)
        dx = dw = None
        with np.errstate(over="ignore", invalid="ignore"):
            if weight.requires_grad:
                dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
            if x.requires_grad:
                slots = (np.arange(n)[:, None] * (size + 1) + index).ravel()
                dx = np.bincount(slots, np.matmul(wmat.T, gmat).ravel(), n * (size + 1))
                dx = dx.reshape(n, size + 1)[:, 1:].reshape(n, c, h, w)
            if bias is None:
                return (dx, dw)
            return (dx, dw, g.sum(axis=(0, 2, 3)) if bias.requires_grad else None)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out, parents, vjp)


def avg_pool2d(x: Tensor, kernel_size: int) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool2d expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    k = int(kernel_size)
    if k < 1 or h % k or w % k:
        raise ParameterError(f"avg_pool2d: kernel {k} must divide spatial dims {h}x{w}")
    values = x.data.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def vjp(g: np.ndarray):
        expanded = np.repeat(np.repeat(g, k, axis=2), k, axis=3)
        return (expanded / (k * k),)

    return _make(values, (x,), vjp)


# ----------------------------------------------------------------------
# softmax-family ops
# ----------------------------------------------------------------------


def _check_class_axis(logits: Tensor, op: str) -> None:
    if logits.data.ndim == 0 or logits.shape[-1] < 1:
        raise ShapeError(f"{op} needs at least one class on the last axis")


def _check_temperature(temperature: float, op: str) -> None:
    if not 0.0 < temperature < math.inf:  # NaN fails too
        raise ParameterError(f"{op}: temperature must be finite and > 0, got {temperature}")


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by each row's maximum.  Runs under
    its caller's ``np.errstate``, which ignores overflow and invalid values:
    a ``+inf`` entry, or a row of all ``-inf``, gives a NaN row."""
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log softmax over the last axis by the same shift and a log-sum-exp,
    under its caller's ``np.errstate`` as ``_softmax``."""
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def softmax_temperature(logits: Tensor, temperature: float = 1.0) -> Tensor:
    """Row-wise softmax of y/T; a ``+inf`` logit, one whose ``y/T``
    overflows, or a row of all ``-inf`` gives a NaN row without a
    floating-point warning."""
    _check_temperature(temperature, "softmax_temperature")
    _check_class_axis(logits, "softmax_temperature")
    with np.errstate(over="ignore", invalid="ignore"):  # NaN rows, caught where checked
        p = _softmax(logits.data / temperature)

    def vjp(g: np.ndarray):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner) / temperature,)

    return _make(p, (logits,), vjp)


def log_softmax_temperature(logits: Tensor, temperature: float = 1.0) -> Tensor:
    """Row-wise log softmax of y/T; NaN rows as ``softmax_temperature``."""
    _check_temperature(temperature, "log_softmax_temperature")
    _check_class_axis(logits, "log_softmax_temperature")
    with np.errstate(over="ignore", invalid="ignore"):  # NaN rows, caught at the loss
        logp = _log_softmax(logits.data / temperature)
    p = np.exp(logp)

    def vjp(g: np.ndarray):
        return ((g - p * g.sum(axis=-1, keepdims=True)) / temperature,)

    return _make(logp, (logits,), vjp)


def soft_cross_entropy(logits: Tensor, target_logits: Tensor, temperature: float) -> Tensor:
    """Mean over the batch of ``-sum_c p_c log q_c``, with ``p`` and ``q`` the
    temperature softmaxes of ``target_logits`` and ``logits``: the soft-target
    loss of Hinton et al. (arXiv 1503.02531), as one graph node: global KD,
    and taskwise KD per head less its value at ``logits = target_logits``.

    ``target_logits`` receives no gradient.  A non-finite target probability
    (a NaN or ``+inf`` target logit, or one whose ``y/T`` overflows) raises
    ``NumericError``; a ``+inf`` student logit, or a row of all ``-inf``,
    gives a NaN value, without a floating-point warning, for the caller's
    loss check.  The value and
    the gradient repeat, operation for operation, those of the chain
    ``softmax_temperature`` of the targets, ``log_softmax_temperature``,
    ``mul``, ``tensor_sum`` over classes, ``tensor_mean`` and negation, so
    the two agree bit for bit.
    """
    _check_temperature(temperature, "soft_cross_entropy")
    _check_class_axis(logits, "soft_cross_entropy")
    if logits.data.ndim != 2 or target_logits.shape != logits.shape:
        raise ShapeError(f"soft_cross_entropy expects (batch, classes) logits and targets "
                         f"of one shape, got {logits.shape} and {target_logits.shape}")
    n = logits.shape[0]
    # NaN rows: the targets' rejected below, the student's caught at the loss
    with np.errstate(over="ignore", invalid="ignore"):
        p = _softmax(target_logits.data / temperature)
        if not np.logical_and.reduce(np.isfinite(p), axis=None):
            raise NumericError("op 'soft_cross_entropy' got non-finite target probabilities")
        logq = _log_softmax(logits.data / temperature)
        value = np.add.reduce(np.add.reduce(p * logq, axis=1), axis=None) / n * -1.0

    def vjp(g: np.ndarray):
        weighted = p * (g * -1.0 / n)
        return ((weighted - np.exp(logq) * weighted.sum(axis=-1, keepdims=True)) / temperature,)

    return _make(value, (logits,), vjp)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].  A ``+inf`` logit,
    or a row of all ``-inf``, gives a NaN value, without a floating-point
    warning, for the caller's loss check."""
    _check_class_axis(logits, "cross_entropy")
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    y = np.asarray(labels)
    n, num_classes = z.shape
    if y.shape != (n,):
        raise ShapeError(f"cross_entropy: {n} rows but {y.shape} labels")
    whole = np.floor(y) == y if y.dtype.kind == "f" else True  # the int64 cast truncates 1.7
    valid = whole & (y >= 0) & (y < num_classes)  # False for NaN and inf
    if not np.logical_and.reduce(valid, axis=None):
        raise DataError(f"cross_entropy: label {y[~valid][0]} is not a class in [0, {num_classes})")
    y = y.astype(np.int64, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN rows, caught at the loss
        logp = _log_softmax(z)
        value = -(np.add.reduce(logp[np.arange(n), y], axis=None) / n)

    def vjp(g: np.ndarray):
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        return (g.reshape(()) * p / n,)

    return _make(np.asarray(value), (logits,), vjp)


# ----------------------------------------------------------------------
# gradient oracle
# ----------------------------------------------------------------------


def finite_difference_oracle(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar-valued function.

    ``x`` may be a Tensor or a plain array; ``f`` receives an ndarray of the
    same shape and must be deterministic.  Each component i is probed as
    (f(x + h e_i) - f(x - h e_i)) / (2 h).
    """

    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)

    def evaluate(values: np.ndarray) -> float:
        with no_grad():
            out = f(values)
        value = out.item() if isinstance(out, Tensor) else float(out)
        if not np.isfinite(value):
            raise NumericError("finite_difference_oracle: probe produced a non-finite value")
        return value

    flat = base.ravel()
    grad = np.zeros_like(flat)
    probe = flat.copy()
    for i in range(flat.size):
        probe[i] = flat[i] + h
        up = evaluate(probe.reshape(base.shape))
        probe[i] = flat[i] - h
        down = evaluate(probe.reshape(base.shape))
        probe[i] = flat[i]
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(base.shape)
