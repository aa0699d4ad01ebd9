"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` wraps a C-contiguous float64 array.  Every primitive that sees
an input with ``requires_grad`` appends itself to the implicit computation
record (the creator links stored on its output), and ``Tensor.backward``
replays that record in reverse topological order.  The record is consumed
by the backward pass; a second backward on the same scalar raises.

Gradients accumulate: a tensor used twice receives the sum of both
contributions, and the caller is responsible for zeroing grads between
optimization steps.

Op outputs are not checked for NaN or inf; a non-finite value propagates
(``relu`` passes NaN on) until it crosses a boundary that is checked: the
``Tensor`` constructor, through which data enters the graph, the target
probabilities in ``soft_cross_entropy``, the variance in ``normalize``, the
training losses, the gradients and updates in ``optim.sgd_step`` and the
evaluation logits in ``metrics.predict_global``.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DataError, NumericError, ParameterError, ShapeError

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
        if not np.all(np.isfinite(arr)):
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
        """Populate ``grad`` on every requires-grad tensor reachable from here.

        The scalar at the root receives seed gradient 1.  Creator links of
        all visited nodes are cleared afterwards, so the same graph cannot
        be replayed twice.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        if self._parents is None:
            raise ContractError("backward() on a detached tensor: no recorded computation reaches it")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if node._parents is not None:
                for parent in node._parents:
                    if id(parent) not in seen:
                        stack.append((parent, False))

        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            upstream = flowing.pop(id(node), None)
            if upstream is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = upstream.copy()
                else:
                    node.grad = node.grad + upstream
            if node._parents is None:
                continue
            for parent, piece in zip(node._parents, node._vjp(upstream)):
                if piece is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + piece
                else:
                    flowing[key] = piece

        for node in order:
            node._parents = None
            node._vjp = None


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _make(values: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    # no finiteness check here: a NaN or inf propagates to a boundary check
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(values, dtype=np.float64)
    out.grad = None
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = None
        out._vjp = None
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
    values = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))
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
    widths = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + widths)

    def vjp(g: np.ndarray):
        slicer = [slice(None)] * g.ndim
        pieces = []
        for i, part in enumerate(parts):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(slicer)] if part.requires_grad else None)
        return tuple(pieces)

    return _make(values, parts, vjp)


def _batch_moments(x: np.ndarray,
                   axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and biased variance over ``axes``, with the reduced axes kept,
    and ``x - mean``, the centered input both are taken from.  Each moment
    is ``np.add.reduce`` over ``axes`` divided by the count, which is what
    ``ndarray.mean`` computes, so the two equal numpy's ``mean`` and
    ``var`` bit for bit.  An overflow yields an infinite or NaN variance,
    which ``normalize`` rejects, and no floating-point warning."""
    count = math.prod(x.shape[i] for i in axes)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(x, axis=axes, keepdims=True) / count
        centered = x - mean
        var = np.add.reduce(centered * centered, axis=axes, keepdims=True) / count
    return mean, var, centered


def normalize(x: Tensor, axes, eps: float, stats=None, gamma: Tensor | None = None,
              beta: Tensor | None = None, moments=None) -> Tensor:
    """(x - mean) / sqrt(var + eps), then ``* gamma + beta``, as one graph node.

    By default the mean and biased variance are taken over ``axes`` of ``x``
    and the gradient flows through them.  ``moments`` passes in the triple
    ``(mean, var, centered)`` that ``_batch_moments(x.data, axes)`` returns,
    when the caller has it already; ``centered`` is ``x - mean`` and is not
    written to.  ``stats``, when given, is instead a fixed ``(mean, var)``
    pair of arrays broadcastable to ``x``, ``moments`` is ignored, and the
    gradient is ``g * inv``.  ``gamma`` and ``beta`` (given together) are
    per-channel vectors over axis 1, reshaped to broadcast once per call.

    ``inv = 1 / sqrt(var + eps)`` is taken once at the statistics' shape; a
    variance that is not finite, or zero with ``eps = 0``, leaves ``inv``
    infinite, zero or NaN, which fails ``inv.min() > 0 and inv.max() < inf``
    and raises ``NumericError``.  With per-channel statistics (BatchNorm)
    the affine folds into ``s = gamma * inv`` and the output is
    ``centered * s + beta``; per-sample statistics (LayerNorm, GroupNorm's
    grouped view) give ``xhat * gamma + beta``.  Under batch statistics the
    input gradient is the closed form (Ioffe & Szegedy, arXiv 1502.03167)
    ``g * s - centered * (s * inv**2 * sum(g * centered) / count) - s * sum(g) / count``,
    sums over ``axes``, ``count`` the number of elements each sum covers,
    taken in the VJP; with the affine folded, ``sum(g * centered) * inv``
    is gamma's gradient and ``sum(g)`` beta's.  The running statistics that
    BatchNorm builds from ``_batch_moments`` still equal numpy's
    ``mean``/``var`` bit for bit.
    """
    axes = _norm_axis("normalize", axes, x.data.ndim)
    if stats is not None:
        mean, var = stats
        centered = x.data - mean
    else:
        _, var, centered = moments if moments is not None else _batch_moments(x.data, axes)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.sqrt(var + float(eps))
    # an infinite variance gives inv = 0, a zero one (eps = 0) inv = inf,
    # and a NaN one NaN, which fails both comparisons
    if inv.size and not (inv.min() > 0.0 and inv.max() < math.inf):
        raise NumericError("op 'normalize' produced a non-finite variance, "
                           f"or a zero variance with eps = {eps}")
    parents = (x,)
    scale = inv
    folded = False
    if gamma is None:
        values = centered * inv
    else:
        if gamma.shape != (x.shape[1],) or beta.shape != gamma.shape:
            raise ShapeError(f"normalize: gamma {gamma.shape} and beta {beta.shape} "
                             f"must both be ({x.shape[1]},)")
        shape = (1, x.shape[1]) + (1,) * (x.data.ndim - 2)
        gamma_b = gamma.data.reshape(shape)
        parents = (x, gamma, beta)
        folded = inv.shape == shape
        if folded:
            scale = gamma_b * inv
            values = centered * scale
        else:
            xhat = centered * inv
            values = xhat * gamma_b
        values += beta.data.reshape(shape)

    def vjp(g: np.ndarray):
        pieces = []
        if gamma is not None and not folded:
            pieces = [
                _unbroadcast(g * xhat, shape).reshape(gamma.shape) if gamma.requires_grad else None,
                _unbroadcast(g, shape).reshape(beta.shape) if beta.requires_grad else None,
            ]
            g = g * gamma_b
        batch = x.requires_grad and stats is None
        if folded or batch:
            gc = g * centered
            sum_gc = _unbroadcast(gc, inv.shape)
            sum_g = _unbroadcast(g, inv.shape)
        if folded:
            pieces = [(sum_gc * inv).reshape(gamma.shape) if gamma.requires_grad else None,
                      sum_g.reshape(beta.shape) if beta.requires_grad else None]
        if not x.requires_grad:
            return (None, *pieces)
        gx = g * scale
        if batch:
            count = math.prod(x.shape[i] for i in axes)
            np.multiply(centered, scale * inv * inv * sum_gc / count, out=gc)
            gx -= gc
            gx -= scale * sum_g / count
        return (gx, *pieces)

    return _make(values, parents, vjp)


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
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear expects 2-D input and weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear: inner dimensions differ ({x.shape} @ {weight.shape})")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear: bias shape {bias.shape}, expected ({weight.shape[1]},)")
    values = x.data @ weight.data + bias.data

    def vjp(g: np.ndarray):
        return (g @ weight.data.T if x.requires_grad else None,
                x.data.T @ g if weight.requires_grad else None,
                g.sum(axis=0) if bias.requires_grad else None)

    return _make(values, (x, weight, bias), vjp)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return windows.reshape(n, c * kh * kw, oh * ow), oh, ow


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation on (batch, channels, height, width) input."""
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

    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding:padding + h, padding:padding + w] = x.data
    else:
        xp = x.data
    cols, oh, ow = _im2col(xp, kh, kw, stride)
    wmat = weight.data.reshape(f, -1)
    out = np.matmul(wmat, cols).reshape(n, f, oh, ow)
    if bias is not None:
        out += bias.data.reshape(1, f, 1, 1)

    def vjp(g: np.ndarray):
        gmat = g.reshape(n, f, oh * ow)
        dx = dw = None
        if weight.requires_grad:
            dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        if x.requires_grad:
            dcols = np.matmul(wmat.T, gmat).reshape(n, c, kh, kw, oh, ow)
            dxp = np.zeros_like(xp)
            span_h, span_w = oh * stride, ow * stride
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + span_h:stride, j:j + span_w:stride] += dcols[:, :, i, j]
            dx = dxp[:, :, padding:padding + h, padding:padding + w] if padding else dxp
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


def softmax_temperature(logits: Tensor, temperature: float = 1.0) -> Tensor:
    """Row-wise exp(y/T) / sum exp(y/T) with max subtraction for stability."""
    _check_temperature(temperature, "softmax_temperature")
    _check_class_axis(logits, "softmax_temperature")
    z = logits.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: np.ndarray):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner) / temperature,)

    return _make(p, (logits,), vjp)


def log_softmax_temperature(logits: Tensor, temperature: float = 1.0) -> Tensor:
    _check_temperature(temperature, "log_softmax_temperature")
    _check_class_axis(logits, "log_softmax_temperature")
    z = logits.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    p = np.exp(logp)

    def vjp(g: np.ndarray):
        return ((g - p * g.sum(axis=-1, keepdims=True)) / temperature,)

    return _make(logp, (logits,), vjp)


def soft_cross_entropy(logits: Tensor, target_logits: Tensor, temperature: float) -> Tensor:
    """Mean over the batch of ``-sum_c p_c log q_c``, with ``p`` and ``q`` the
    temperature softmaxes of ``target_logits`` and ``logits``: the soft-target
    loss of Hinton et al. (arXiv 1503.02531), as one graph node.

    ``target_logits`` receives no gradient.  A non-finite target probability
    (a NaN or ``+inf`` target logit) raises ``NumericError``.  The value and
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
    t = target_logits.data / temperature
    t = t - t.max(axis=-1, keepdims=True)
    e = np.exp(t)
    p = e / e.sum(axis=-1, keepdims=True)
    if not np.all(np.isfinite(p)):
        raise NumericError("op 'soft_cross_entropy' got non-finite target probabilities")
    z = logits.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    logq = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    n = logits.shape[0]
    value = (p * logq).sum(axis=1).mean() * -1.0

    def vjp(g: np.ndarray):
        weighted = p * (g * -1.0 / n)
        return ((weighted - np.exp(logq) * weighted.sum(axis=-1, keepdims=True)) / temperature,)

    return _make(value, (logits,), vjp)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    _check_class_axis(logits, "cross_entropy")
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    y = np.asarray(labels, dtype=np.int64)
    n, num_classes = z.shape
    if y.shape != (n,):
        raise ShapeError(f"cross_entropy: {n} rows but {y.shape} labels")
    if np.any(y < 0) or np.any(y >= num_classes):
        raise DataError(f"cross_entropy: labels must lie in [0, {num_classes}), "
                        f"got {y.min()}..{y.max()}")
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    value = -logp[np.arange(n), y].mean()

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


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
