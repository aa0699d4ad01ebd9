"""The one SGD path: ``sgd_step`` moves parameters, ``iter_batches`` slices epochs,
``ce_step`` is the newest-head cross-entropy step (with an optional distillation
term), ``ce_epochs`` the one loop of them behind the student, warmup, teacher
pretraining and the auxiliary network, and ``finite_loss`` the one message form
of a non-finite training loss.  A failing step names its term, and ``ce_epochs``,
which counts the epochs, puts ``task <t>, epoch <e>: `` in front of any of its errors."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataError, NumericError, ParameterError
from .layers import IncrementalModel, NormMode


def sgd_step(params, lr: float, grad_clip: float | None = None) -> None:
    """In-place p <- p - lr * grad with optional global-L2-norm clipping.

    Every passed parameter must carry a gradient; pass exactly the
    parameters that participated in the loss.  The step consumes the
    gradients: each parameter it moves gets ``grad = None``.  A non-finite
    gradient raises ``NumericError`` naming the parameter's index, with or
    without clipping.  The clipping norm is the square root of the summed squared
    gradients, one ``np.add.reduce`` per parameter; it is taken relative to the
    largest gradient magnitude when that plain sum overflows.  The updates
    are computed with numpy's overflow errors raised, before any parameter
    is written: a step that overflows, or that carries a parameter near the
    float maximum past it, raises ``NumericError`` naming the parameter and
    moves none, keeping every gradient.
    """
    params = list(params)
    if not params:
        raise ContractError("sgd_step got an empty parameter list")
    for p in params:
        if p.grad is None:
            raise ContractError("sgd_step: a parameter has no gradient")
    factor = 1.0
    with np.errstate(over="ignore"):
        total = math.sqrt(sum(np.add.reduce(p.grad * p.grad, axis=None) for p in params))
    if not math.isfinite(total):
        factor = _overflowing_clip_factor(params, grad_clip)
    elif grad_clip is not None and total > grad_clip:
        factor = grad_clip / total
    step = lr * factor
    # every update is computed before any is written, so an overflow
    # leaves all parameters as they were
    updated = []
    with np.errstate(over="raise"):
        for i, p in enumerate(params):
            try:
                updated.append(p.data - step * p.grad)
            except FloatingPointError as exc:
                raise NumericError(f"sgd_step: the update of parameter {i} overflows") from exc
    for p, data in zip(params, updated):
        p.data = data
        p.grad = None


def _overflowing_clip_factor(params: list[Tensor], grad_clip: float | None) -> float:
    """The clip factor when the sum of squared gradients is not finite: a
    non-finite gradient raises, and otherwise the norm is taken relative to
    the largest gradient magnitude, which cannot overflow."""
    for i, p in enumerate(params):
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"sgd_step: parameter {i} has a non-finite gradient")
    if grad_clip is None:
        return 1.0
    peak = max(float(np.max(np.abs(p.grad))) for p in params)
    relative = np.sqrt(sum(float(np.sum(np.square(p.grad / peak))) for p in params))
    return min(1.0, grad_clip / peak / relative)


def epoch_permutation(seed: int, task_index: int, epoch: int, n: int,
                      stage: int = 0) -> np.ndarray:
    """Replayable shuffle: one permutation per (seed, task, epoch, stage)."""
    return np.random.default_rng((seed, task_index, epoch, stage)).permutation(n)


def iter_batches(n: int, batch_size: int, order: np.ndarray):
    """Index slices over a permutation; a trailing singleton is dropped
    because batch statistics need at least two samples.  A batch size below
    2 raises ``ParameterError`` at the call: it would leave no batch, so an
    epoch would take no step."""
    if batch_size < 2:
        raise ParameterError(f"batch_size: must be >= 2, got {batch_size}")
    slices = (order[start:start + batch_size] for start in range(0, n, batch_size))
    return (idx for idx in slices if idx.size >= 2)


def newest_task_parameters(model: IncrementalModel) -> list[Tensor]:
    """The backbone and the newest head: all that a loss on that head reaches."""
    backbone = [p for layer in model.backbone for p in layer.parameters()]
    return backbone + model.heads[-1].parameters()


def finite_loss(loss: Tensor, term: str) -> float:
    """The loss as a float; a NaN or inf raises, naming its term."""
    value = loss.item()
    if not math.isfinite(value):
        raise NumericError(f"non-finite {term} loss {value}")
    return value


def ce_step(model: IncrementalModel, params: list[Tensor], xb: np.ndarray, yb_local: np.ndarray,
            lr: float, grad_clip: float | None, term: str, mode: NormMode = NormMode.TRAIN,
            distill=None) -> tuple[float, float]:
    """One cross-entropy step on the newest head in ``mode``; returns the loss
    and the KD term.  Without ``distill`` only the newest head runs and the KD
    term is 0.0; with it every head runs, and ``distill(loss, logits, x,
    yb_local)`` returns the KD term and the total loss that is descended.
    Only ``params`` move, and none does when the list is empty (a norm-only
    scope on a norm-free model) or ``lr`` is zero; running statistics still do.
    Only the parameters that move are differentiated: the others are held
    out of the graph for the call (their ``requires_grad`` is restored after
    it, also when it raises), and no backward runs when none moves, nor when
    the loss is not finite: ``finite_loss`` raises first."""
    steps = bool(params) and lr > 0
    stepped = set(params) if steps else set()
    held = [p for p in model.parameters() if p.requires_grad and p not in stepped]
    for p in held:
        p.requires_grad = False
    try:
        try:
            x = Tensor(xb)
            logits = model.forward(x, mode, slice(0 if distill else -1, None))
            loss = ad.cross_entropy(logits[-1], yb_local)
        except NumericError as exc:  # an op that fails names the term
            raise NumericError(f"{term} forward: {exc}") from exc
        value = finite_loss(loss, term)
        kd, total = distill(loss, logits, x, yb_local) if distill else (0.0, loss)
        if steps:
            try:
                total.backward()
                sgd_step(params, lr, grad_clip)
            except NumericError as exc:  # so does a failing update
                raise NumericError(f"{term}: {exc}") from exc
    finally:
        for p in held:
            p.requires_grad = True
    return value, kd


def ce_epochs(model: IncrementalModel, params: list[Tensor], inputs: np.ndarray,
              labels_local: np.ndarray, schedule, batch_size: int,
              grad_clip: float | None, task_index: int, term: str,
              mode: NormMode = NormMode.TRAIN, distill=None):
    """Run ``ce_step`` over the batches of each ``(lr, order)`` epoch of ``schedule``
    and yield the epoch's mean loss and mean KD term.  Lazy: an epoch runs only when
    its means are asked for, so a caller that stops early (the warmup) trains no
    further, and one that reads the model between yields sees an epoch's end.  Any
    ``NumericError`` of a step, its distillation included, gains its task and epoch."""
    n = len(inputs)
    if n < 2:  # a lone sample makes no batch, so an epoch would have no mean
        raise DataError(f"task {task_index}: {term} needs at least 2 samples, got {n}")
    for epoch, (lr, order) in enumerate(schedule):
        try:
            ce_vals, kd_vals = zip(*(ce_step(model, params, inputs[idx], labels_local[idx], lr,
                                             grad_clip, term, mode, distill)
                                     for idx in iter_batches(n, batch_size, order)))
        except NumericError as exc:  # whatever fails in a step, distillation too
            raise NumericError(f"task {task_index}, epoch {epoch}: {exc}") from exc
        yield float(np.mean(ce_vals)), float(np.mean(kd_vals))
