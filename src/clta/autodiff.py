"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` wraps a C-contiguous float64 array.  Every primitive that sees
an input with ``requires_grad`` appends itself to the implicit computation
record (the creator links stored on its output), and ``Tensor.backward``
replays that record in reverse topological order.  The record is consumed
by the backward pass; a second backward on the same scalar raises.

Gradients accumulate: a tensor used twice receives the sum of both
contributions, and the caller is responsible for zeroing grads between
optimization steps.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ParameterError, ShapeError

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable recording of the computation graph inside the block."""
    previous = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


def _as_array(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return arr


class Tensor:
    """Dense float64 array with an optional gradient and creator record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        arr = _as_array(values)
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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

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


def _make(values: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"op '{op}' produced non-finite values")
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

    return _make(values, op, (a, b), vjp)


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
    return _make(a.data * factor, "scale", (a,), lambda g: (g * factor,))


def add_scalar(a: Tensor, offset: float) -> Tensor:
    offset = float(offset)
    return _make(a.data + offset, "add_scalar", (a,), lambda g: (g,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _make(np.where(mask, a.data, 0.0), "relu", (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    s = _stable_sigmoid(a.data)
    return _make(s, "sigmoid", (a,), lambda g: (g * s * (1.0 - s),))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.log(a.data)
    return _make(values, "log", (a,), lambda g: (g / a.data,))


def exp(a: Tensor) -> Tensor:
    values = np.exp(a.data)
    return _make(values, "exp", (a,), lambda g: (g * values,))


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        values = np.sqrt(a.data)
    return _make(values, "sqrt", (a,), lambda g: (g * 0.5 / values,))


def log_sigmoid(a: Tensor) -> Tensor:
    # log sigma(x) = -softplus(-x), computed without overflow on either tail
    x = a.data
    values = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))
    return _make(values, "log_sigmoid", (a,), lambda g: (g * _stable_sigmoid(-x),))


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


def _norm_axis(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.data.ndim)
    values = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g: np.ndarray):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(values, "sum", (a,), vjp)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.data.ndim)
    values = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        count = int(np.prod([a.shape[i] for i in axis]))

    def vjp(g: np.ndarray):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy() / count,)

    return _make(values, "mean", (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    try:
        values = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from exc
    return _make(values, "reshape", (a,), lambda g: (g.reshape(old),))


def flatten(a: Tensor) -> Tensor:
    """Collapse all trailing axes: (N, ...) -> (N, features)."""
    if a.data.ndim < 2:
        raise ShapeError(f"flatten expects a batch axis, got shape {a.shape}")
    return reshape(a, (a.shape[0], -1))


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = tuple(tensors)
    if not parts:
        raise ShapeError("concat of an empty tensor list")
    axis = axis % parts[0].data.ndim
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

    return _make(values, "concat", parts, vjp)


def _batch_moments(x: np.ndarray, axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and biased variance over ``axes``, with the reduced axes kept."""
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    return mean, (centered * centered).mean(axis=axes, keepdims=True)


def normalize(x: Tensor, axes, eps: float, stats=None, gamma: Tensor | None = None,
              beta: Tensor | None = None, moments=None) -> Tensor:
    """(x - mean) / sqrt(var + eps), then ``* gamma + beta``, as one graph node.

    By default the mean and biased variance are taken over ``axes`` of ``x``
    and the gradient flows through them.  ``moments`` passes in those same
    batch statistics, as ``_batch_moments`` computes them, when the caller
    has them already.  ``stats``, when given, is instead a fixed
    ``(mean, var)`` pair of arrays broadcastable to ``x``, ``moments`` is
    ignored, and the gradient is ``g / sqrt(var + eps)``.
    ``gamma`` and ``beta`` (given together) are per-channel vectors over
    axis 1.  Values and gradients equal, bit for bit, those of the mean, sub,
    mul, mean, add_scalar, sqrt, div chain followed by the reshape, mul,
    reshape, add affine: the VJP repeats those numpy operations in the order
    backward ran them.
    """
    axes = _norm_axis(axes, x.data.ndim)
    if stats is not None:
        mean, var = stats
    else:
        mean, var = moments if moments is not None else _batch_moments(x.data, axes)
    centered = x.data - mean
    if not np.all(np.isfinite(var)):
        raise NumericError("op 'normalize' produced a non-finite variance")
    with np.errstate(invalid="ignore"):
        std = np.sqrt(var + float(eps))
    count = int(np.prod([x.shape[i] for i in axes]))
    values = centered / std
    parents = (x,)
    if gamma is not None:
        shape = (1, x.shape[1]) + (1,) * (x.data.ndim - 2)
        if gamma.shape != (x.shape[1],) or beta.shape != gamma.shape:
            raise ShapeError(f"normalize: gamma {gamma.shape} and beta {beta.shape} "
                             f"must both be ({x.shape[1]},)")
        xhat = values
        values = xhat * gamma.data.reshape(shape) + beta.data.reshape(shape)
        parents = (x, gamma, beta)

    def vjp(g: np.ndarray):
        pieces = []
        if gamma is not None:
            pieces = [
                _unbroadcast(g * xhat, shape).reshape(gamma.shape) if gamma.requires_grad else None,
                _unbroadcast(g, shape).reshape(beta.shape) if beta.requires_grad else None,
            ]
            g = g * gamma.data.reshape(shape)
        if not x.requires_grad:
            return (None, *pieces)
        gx = g / std
        if stats is not None:
            return (gx, *pieces)
        gstd = _unbroadcast(-g * centered / (std * std), std.shape)
        gsq = np.broadcast_to(gstd * 0.5 / std, x.shape) / count
        gx = gx + gsq * centered  # centered * centered feeds both factors
        gx = gx + gsq * centered
        return (gx + np.broadcast_to(_unbroadcast(-gx, mean.shape), x.shape) / count, *pieces)

    return _make(values, "normalize", parents, vjp)


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

    return _make(values, "matmul", (a, b), vjp)


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

    return _make(values, "linear", (x, weight, bias), vjp)


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
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    cols, oh, ow = _im2col(xp, kh, kw, stride)
    wmat = weight.data.reshape(f, -1)
    out = np.matmul(wmat, cols).reshape(n, f, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)

    def vjp(g: np.ndarray):
        gmat = g.reshape(n, f, oh * ow)
        dx = dw = None
        if weight.requires_grad:
            dw = np.einsum("nfo,nko->fk", gmat, cols, optimize=True).reshape(weight.shape)
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
    return _make(out, "conv2d", parents, vjp)


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

    return _make(values, "avg_pool2d", (x,), vjp)


# ----------------------------------------------------------------------
# softmax-family ops
# ----------------------------------------------------------------------


def _check_class_axis(logits: Tensor, op: str) -> None:
    if logits.data.ndim == 0 or logits.shape[-1] < 1:
        raise ShapeError(f"{op} needs at least one class on the last axis")


def softmax_temperature(logits: Tensor, temperature: float = 1.0) -> Tensor:
    """Row-wise exp(y/T) / sum exp(y/T) with max subtraction for stability."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    _check_class_axis(logits, "softmax_temperature")
    z = logits.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: np.ndarray):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner) / temperature,)

    return _make(p, "softmax_temperature", (logits,), vjp)


def log_softmax_temperature(logits: Tensor, temperature: float = 1.0) -> Tensor:
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    _check_class_axis(logits, "log_softmax_temperature")
    z = logits.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    p = np.exp(logp)

    def vjp(g: np.ndarray):
        return ((g - p * g.sum(axis=-1, keepdims=True)) / temperature,)

    return _make(logp, "log_softmax_temperature", (logits,), vjp)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    _check_class_axis(logits, "cross_entropy")
    squeeze = logits.data.ndim == 1
    z = logits.data.reshape(1, -1) if squeeze else logits.data
    if z.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, num_classes = z.shape
    if y.shape != (n,):
        raise ShapeError(f"cross_entropy: {n} rows but {y.shape} labels")
    if np.any(y < 0) or np.any(y >= num_classes):
        raise IndexError(f"cross_entropy: label outside [0, {num_classes})")
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    value = -logp[np.arange(n), y].mean()

    def vjp(g: np.ndarray):
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        grad = g.reshape(()) * p / n
        return (grad.reshape(logits.shape),)

    return _make(np.asarray(value), "cross_entropy", (logits,), vjp)


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
