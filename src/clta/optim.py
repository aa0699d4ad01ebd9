"""The one SGD path: ``sgd_step`` moves parameters, ``iter_batches`` slices epochs,
and ``ce_step`` is the newest-head cross-entropy step that the continuous and
pretrained teachers and the auxiliary network share."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, NumericError
from .layers import IncrementalModel, NormMode


def sgd_step(params, lr: float, grad_clip: float | None = None) -> None:
    """In-place p <- p - lr * grad with optional global-L2-norm clipping.

    Every passed parameter must carry a gradient; pass exactly the
    parameters that participated in the loss.  The clipping norm is scaled
    by the largest gradient magnitude when its plain sum of squares
    overflows; a non-finite gradient under clipping raises ``NumericError``
    naming the parameter's index.
    """
    params = list(params)
    if not params:
        raise ContractError("sgd_step got an empty parameter list")
    for p in params:
        if p.grad is None:
            raise ContractError("sgd_step: a parameter has no gradient")
    factor = 1.0
    if grad_clip is not None:
        with np.errstate(over="ignore"):
            total = np.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
        if not np.isfinite(total):
            factor = _overflowing_clip_factor(params, grad_clip)
        elif total > grad_clip:
            factor = grad_clip / total
    for p in params:
        p.data = p.data - lr * factor * p.grad


def _overflowing_clip_factor(params: list[Tensor], grad_clip: float) -> float:
    """The clip factor when the sum of squared gradients overflows: the norm
    is taken relative to the largest gradient magnitude, which cannot."""
    for i, p in enumerate(params):
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"sgd_step: parameter {i} has a non-finite gradient")
    peak = max(float(np.max(np.abs(p.grad))) for p in params)
    relative = np.sqrt(sum(float(np.sum(np.square(p.grad / peak))) for p in params))
    return min(1.0, grad_clip / peak / relative)


def epoch_permutation(seed: int, task_index: int, epoch: int, n: int,
                      stage: int = 0) -> np.ndarray:
    """Replayable shuffle: one permutation per (seed, task, epoch, stage)."""
    return np.random.default_rng((seed, task_index, epoch, stage)).permutation(n)


def iter_batches(n: int, batch_size: int, order: np.ndarray):
    """Index slices over a permutation; a trailing singleton is dropped
    because batch statistics need at least two samples."""
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if idx.size < 2:
            continue
        yield idx


def newest_task_parameters(model: IncrementalModel) -> list[Tensor]:
    """The backbone and the newest head: all that a loss on that head reaches."""
    backbone = [p for layer in model.backbone for p in layer.parameters()]
    return backbone + model.heads[-1].parameters()


def ce_step(model: IncrementalModel, params: list[Tensor], xb: np.ndarray,
            yb_local: np.ndarray, lr: float, grad_clip: float | None) -> float:
    """One train-mode cross-entropy step on the newest head; returns the loss.
    Only ``params`` move, and none does when the list is empty (a norm-only
    scope on a norm-free model) or ``lr`` is zero; running statistics still do."""
    features = model.features(Tensor(xb), NormMode.TRAIN)
    loss = ad.cross_entropy(model.heads[-1].forward(features, NormMode.TRAIN), yb_local)
    ad.zero_grads(model.parameters())
    loss.backward()
    if params and lr > 0:
        sgd_step(params, lr, grad_clip)
    ad.zero_grads(model.parameters())
    return loss.item()
