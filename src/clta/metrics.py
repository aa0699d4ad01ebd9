"""Evaluation and diagnostics for incremental runs.

Covers the accuracy bookkeeping (per-task accuracy matrix, incremental
accuracy, forgetting), representation similarity (linear CKA), and the
divergence between two models' batch-norm running statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .errors import ContractError, DataError, DegenerateBatchError, NumericError, StateError
from .layers import IncrementalModel, NormMode

EVAL_BATCH = 256  # rows per evaluation forward pass


class AccuracyMatrix:
    """Lower-triangular matrix of a_{k,j}: accuracy on task j after task k.

    Stored densely with NaN above the diagonal; rows and columns are
    0-indexed internally, task numbering in formulas is 1-based.
    """

    def __init__(self, n_tasks: int):
        if n_tasks < 1:
            raise ContractError(f"accuracy matrix needs >= 1 task, got {n_tasks}")
        self.n = n_tasks
        self.values = np.full((n_tasks, n_tasks), np.nan)

    def set(self, k: int, j: int, accuracy: float) -> None:
        if not 0 <= j <= k < self.n:
            raise ContractError(f"entry ({k}, {j}) outside the lower triangle of size {self.n}")
        if not 0.0 <= accuracy <= 1.0:
            raise ContractError(f"accuracy {accuracy} outside [0, 1]")
        self.values[k, j] = accuracy

    def get(self, k: int, j: int) -> float:
        if not 0 <= j <= k < self.n:
            raise ContractError(f"entry ({k}, {j}) outside the lower triangle of size {self.n}")
        return float(self.values[k, j])

    def is_complete(self) -> bool:
        return not any(np.isnan(self.values[k, j]) for k in range(self.n) for j in range(k + 1))

    @classmethod
    def from_rows(cls, rows) -> "AccuracyMatrix":
        rows = [np.atleast_1d(np.asarray(r, dtype=np.float64)) for r in rows]
        m = cls(len(rows))
        for k, row in enumerate(rows):
            if row.shape != (k + 1,):
                raise ContractError(f"row {k} must have {k + 1} entries, got {row.shape}")
            for j, a in enumerate(row):
                m.set(k, j, float(a))
        return m


@dataclass
class MetricsReport:
    a_k: np.ndarray
    f_k: np.ndarray
    acc_inc: float
    acc_final: float
    forg_inc: float
    forg_final: float


def accuracy_metrics(m: AccuracyMatrix) -> tuple[np.ndarray, float, float]:
    """Per-row means A_k, their overall mean, and the last row's mean."""
    if not m.is_complete():
        raise ContractError("accuracy matrix has unfilled lower-triangle entries")
    a_k = np.array([m.values[k, :k + 1].mean() for k in range(m.n)])
    return a_k, float(a_k.mean()), float(a_k[-1])


def forgetting_metrics(m: AccuracyMatrix) -> tuple[np.ndarray, float, float]:
    """Mean drop from each old task's best historical accuracy.

    f_{k,j} = max over l in [j, k-1] of a_{l,j}, minus a_{k,j}; F_k is the
    mean over old tasks j < k.  F_1 is 0 by convention and a single-task
    matrix reports all zeros.
    """
    if not m.is_complete():
        raise ContractError("accuracy matrix has unfilled lower-triangle entries")
    f_k = np.zeros(m.n)
    for k in range(1, m.n):
        drops = []
        for j in range(k):
            best = max(m.get(l, j) for l in range(j, k))
            drops.append(best - m.get(k, j))
        f_k[k] = float(np.mean(drops))
    if m.n == 1:
        return f_k, 0.0, 0.0
    forg_inc = float(f_k[1:].mean())
    return f_k, forg_inc, float(f_k[-1])


def compute_report(m: AccuracyMatrix) -> MetricsReport:
    a_k, acc_inc, acc_final = accuracy_metrics(m)
    f_k, forg_inc, forg_final = forgetting_metrics(m)
    return MetricsReport(a_k, f_k, acc_inc, acc_final, forg_inc, forg_final)


# ----------------------------------------------------------------------
# model evaluation
# ----------------------------------------------------------------------


def predict_global(model: IncrementalModel, inputs: np.ndarray,
                   class_order: np.ndarray) -> np.ndarray:
    """Global class prediction: argmax over all heads' concatenated logits.

    ``class_order`` maps a concatenated-logit column to its global class
    id (classes appear in task order).  Ties resolve to the lowest column,
    which argmax already guarantees.
    """
    if not model.heads:
        raise ContractError("model has no classification heads")
    if inputs.shape[0] == 0:
        raise DataError("empty input batch")
    class_order = np.asarray(class_order)
    if class_order.shape[0] != model.total_classes():
        raise ContractError(
            f"class order has {class_order.shape[0]} entries, model emits {model.total_classes()}"
        )
    out = []
    with no_grad():
        for start in range(0, inputs.shape[0], EVAL_BATCH):
            logits = model.forward(Tensor(inputs[start:start + EVAL_BATCH]), NormMode.EVAL)
            stacked = np.concatenate([t.data for t in logits], axis=1)
            if not np.all(np.isfinite(stacked)):  # argmax would pick a NaN silently
                raise NumericError(f"non-finite logits for inputs {start}.."
                                   f"{start + stacked.shape[0] - 1}")
            out.append(np.argmax(stacked, axis=1))
    return class_order[np.concatenate(out)]


def evaluate_task_agnostic(model: IncrementalModel, inputs: np.ndarray,
                           labels: np.ndarray, class_order: np.ndarray) -> float:
    """Fraction of samples whose concatenated-head argmax hits the label."""
    if inputs.shape[0] == 0:
        raise DataError("cannot evaluate on an empty test set")
    predicted = predict_global(model, inputs, class_order)
    return float(np.mean(predicted == np.asarray(labels)))


# ----------------------------------------------------------------------
# representation and statistics diagnostics
# ----------------------------------------------------------------------


def linear_cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear centered kernel alignment between two feature matrices.

    Invariant to orthogonal transforms and isotropic scaling of either
    argument; 1 means identical up to those transforms.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ContractError("linear_cka expects 2-D (samples, features) arrays")
    if x.shape[0] != y.shape[0]:
        raise ContractError(f"sample counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ContractError("linear_cka needs at least 2 samples")
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    xx = np.linalg.norm(xc.T @ xc)
    yy = np.linalg.norm(yc.T @ yc)
    if xx == 0.0 or yy == 0.0:
        raise DegenerateBatchError("zero-variance features: all rows identical")
    cross = np.linalg.norm(yc.T @ xc) ** 2
    return float(cross / (xx * yy))


def capture_features(model: IncrementalModel, inputs: np.ndarray) -> np.ndarray:
    """Backbone output (pre-head representation) for a batch of inputs."""
    if inputs.shape[0] == 0:
        raise DataError("empty input batch")
    with no_grad():
        chunks = [model.features(Tensor(inputs[start:start + EVAL_BATCH])).data
                  for start in range(0, inputs.shape[0], EVAL_BATCH)]
    return np.concatenate(chunks, axis=0)


def bn_stats_kld(model_a: IncrementalModel, model_b: IncrementalModel) -> float:
    """Mean per-channel Gaussian KL divergence between running statistics.

    Each channel's (running_mean, running_var) pair is read as a Gaussian;
    the divergence is KL(a || b) averaged over every channel of every
    batch-norm layer.
    """
    layers_a = model_a.batchnorm_layers()
    layers_b = model_b.batchnorm_layers()
    if not layers_a:
        raise ContractError("models have no batch-norm layers to compare")
    if len(layers_a) != len(layers_b):
        raise ContractError(
            f"batch-norm layer counts differ: {len(layers_a)} vs {len(layers_b)}"
        )
    terms = []
    for i, (la, lb) in enumerate(zip(layers_a, layers_b)):
        if la.num_features != lb.num_features:
            raise ContractError(
                f"channel counts differ: {la.num_features} vs {lb.num_features}"
            )
        va, vb = la.running_var, lb.running_var
        if not (np.all(va > 0) and np.all(vb > 0)):  # NaN fails the test too
            raise StateError(f"batch-norm layer {i}: running variance not positive")
        mu_a, mu_b = la.running_mean, lb.running_mean
        kl = 0.5 * np.log(vb / va) + (va + (mu_a - mu_b) ** 2) / (2.0 * vb) - 0.5
        terms.append(kl)
    return float(np.mean(np.concatenate(terms)))
