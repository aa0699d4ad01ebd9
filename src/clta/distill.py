"""Distillation losses and teacher-update strategies.

Four regularizers penalize the student for drifting away from a saved
teacher network on the classes that teacher knows:

* ``global``     - one temperature softmax spanning all old classes,
  cross-entropy against the teacher's distribution.
* ``taskwise``   - a KL divergence per old task's class group, summed.
* ``multiclass`` - element-wise sigmoid matching, no temperature.
* ``auxiliary``  - the global loss against the main teacher on old classes
  plus a second global term on current-task classes against an auxiliary
  network trained on the current task alone.

Teacher strategies decide what happens to the saved snapshot while the
student trains on a new task: keep it bit-frozen, let only its running
normalization statistics follow the new data (``adapt_stats``: each batch
is normalized by its own statistics, which are folded into the running
ones, with no gradient), or actually train it (everything, or just the
normalization parameters) either up front or one step per student batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .errors import ContractError, ParameterError, check_fields
from .layers import IncrementalModel, NormMode
from .optim import ce_epochs, ce_step, newest_task_parameters

KD_VARIANTS = ("global", "taskwise", "multiclass", "auxiliary")

STRATEGY_KINDS = (
    "frozen",
    "adapt_stats",
    "continuous_full",
    "continuous_norm",
    "pretrain_full",
    "pretrain_norm",
    "fix_stats",
)


@dataclass
class KDConfig:
    """Distillation variant plus its weights and temperature.

    ``aux_weight`` only matters for the auxiliary variant and defaults to
    ``weight`` when left unset.
    """

    SECTION: ClassVar[str] = "kd"

    variant: str = field(default="global", metadata={"choices": KD_VARIANTS})
    temperature: float = field(default=2.0, metadata={">": 0})
    weight: float = field(default=10.0, metadata={">=": 0})
    aux_weight: float | None = field(default=None, metadata={">=": 0})

    def __post_init__(self):
        check_fields(self)

    @property
    def effective_aux_weight(self) -> float:
        return self.weight if self.aux_weight is None else self.aux_weight


@dataclass
class TeacherStrategy:
    """What the teacher snapshot does while the student trains.

    ``teacher_lr`` and ``pretrain_epochs`` apply to the training kinds
    only.  A zero learning rate is legal: the continuous kinds then leave
    parameters untouched while their train-mode forwards still move the
    running statistics.
    """

    SECTION: ClassVar[str] = "teacher"

    kind: str = field(default="frozen", metadata={"choices": STRATEGY_KINDS})
    teacher_lr: float = field(default=0.1, metadata={">=": 0, "key": "teacher.lr"})
    pretrain_epochs: int = field(default=1, metadata={">=": 1})

    def __post_init__(self):
        check_fields(self)

    @property
    def steps_with_student(self) -> bool:  # one teacher step after each student batch
        return self.kind.startswith("continuous")

    @property
    def pretrains(self) -> bool:  # teacher epochs on the new task before the student trains
        return self.kind.startswith("pretrain")

    @property
    def trains_teacher(self) -> bool:
        return self.steps_with_student or self.pretrains

    @property
    def fixes_student_stats(self) -> bool:  # from task 2 on, the student uses running stats
        return self.kind == "fix_stats"

    def trained_parameters(self, teacher: IncrementalModel) -> list[Tensor]:
        """What the teacher's cross-entropy step updates."""
        norm_only = self.kind.endswith("_norm")
        return teacher.norm_parameters() if norm_only else newest_task_parameters(teacher)


# ----------------------------------------------------------------------
# loss functions
# ----------------------------------------------------------------------


def _check_pair(student: Tensor, teacher: Tensor, name: str) -> None:
    if student.data.ndim != 2 or teacher.data.ndim != 2:
        raise ContractError(f"{name} expects 2-D (batch, classes) logits")
    if student.shape != teacher.shape:
        raise ContractError(
            f"{name}: student shape {student.shape} != teacher shape {teacher.shape}"
        )


def global_kd_loss(student_logits: Tensor, teacher_logits: Tensor,
                   temperature: float) -> Tensor:
    """Cross-entropy between teacher and student softmaxes over old classes,
    one ``autodiff.soft_cross_entropy`` node; the teacher gets no gradient.

    Minimized (at the teacher's entropy) exactly when the two temperature
    softmaxes agree.  A NaN in the teacher logits raises ``NumericError``.
    """
    _check_pair(student_logits, teacher_logits, "global KD")
    return ad.soft_cross_entropy(student_logits, teacher_logits, temperature)


def taskwise_kd_loss(pairs, temperature: float) -> Tensor:
    """Sum over old tasks of KL(teacher softmax || student softmax).

    ``pairs`` holds one (student logits, teacher logits) tuple per old
    task head.  Each term is ``H(p, q) - H(p)``: ``soft_cross_entropy`` of
    the student against the teacher, less the teacher's entropy, which
    records no node.  Zero exactly when every per-task distribution matches.
    """
    pairs = list(pairs)
    if not pairs:
        raise ContractError("taskwise KD needs at least one previous-task logit pair")
    total = None
    for i, (student, teacher) in enumerate(pairs):
        _check_pair(student, teacher, f"taskwise KD (task {i})")
        with no_grad():
            entropy = ad.soft_cross_entropy(teacher, teacher, temperature)
        term = ad.soft_cross_entropy(student, teacher, temperature) - entropy
        total = term if total is None else total + term
    return total


def multiclass_kd_loss(student_logits: Tensor, teacher_logits: Tensor) -> Tensor:
    """Element-wise sigmoid matching: mean of -sigma(teacher) log sigma(student).

    Treats every old class as its own binary problem, so no temperature and
    no shift invariance.
    """
    _check_pair(student_logits, teacher_logits, "multiclass KD")
    weights = 1.0 / (1.0 + np.exp(-np.clip(teacher_logits.data, -500, 500)))
    logsig = ad.log_sigmoid(student_logits)
    return -ad.tensor_mean(ad.tensor_sum(Tensor(weights) * logsig, axis=1))


def auxiliary_kd_loss(student_logits: list[Tensor], main_teacher_logits: list[Tensor],
                      aux_current_logits: Tensor | None, cfg: KDConfig) -> Tensor:
    """Weighted pair of global terms: old classes vs the main teacher and
    current-task classes vs the auxiliary network.

    Unlike the other losses this one applies its weights internally, so the
    caller adds it to the cross-entropy unscaled.
    """
    if aux_current_logits is None:
        raise ContractError("auxiliary KD requires the auxiliary network's current-task logits")
    if len(student_logits) < 2:
        raise ContractError("auxiliary KD needs at least one old head plus the current head")
    student_old = ad.concat(student_logits[:-1], axis=1)
    teacher_old = ad.concat(main_teacher_logits, axis=1)
    main_term = global_kd_loss(student_old, teacher_old, cfg.temperature)
    current_term = global_kd_loss(student_logits[-1], aux_current_logits, cfg.temperature)
    return ad.scale(main_term, cfg.weight) + ad.scale(current_term, cfg.effective_aux_weight)


def total_loss(ce, kd, weight: float):
    """ce + weight * kd, for tensors or plain numbers."""
    if weight < 0:
        raise ParameterError(f"KD weight must be >= 0, got {weight}")
    if isinstance(ce, Tensor) or isinstance(kd, Tensor):
        ce_t = ce if isinstance(ce, Tensor) else Tensor(np.asarray(ce))
        kd_t = kd if isinstance(kd, Tensor) else Tensor(np.asarray(kd))
        return ce_t + ad.scale(kd_t, weight)
    return ce + weight * kd


# ----------------------------------------------------------------------
# teacher strategies
# ----------------------------------------------------------------------


def teacher_forward(teacher: IncrementalModel | None, x: Tensor,
                    strategy: TeacherStrategy, n_old: int) -> list[Tensor]:
    """Logits of the teacher's first ``n_old`` heads, computed under
    ``no_grad`` and so detached from any gradient graph.

    A trained teacher carries one extra head for its own cross-entropy on
    the new task, which gives no targets and is not run.  Under the
    statistics-adaptation strategy this call also moves the teacher's
    running normalization statistics toward the batch; all other
    strategies leave the snapshot untouched here.
    """
    if teacher is None:
        raise ContractError("teacher_forward called without a teacher snapshot")
    mode = NormMode.ADAPT_STATS if strategy.kind == "adapt_stats" else NormMode.EVAL
    with no_grad():
        return teacher.forward(x, mode, slice(n_old))


def pretrain_teacher(teacher: IncrementalModel, inputs: np.ndarray,
                     labels_local: np.ndarray, strategy: TeacherStrategy,
                     batch_size: int, seed: int, task_index: int) -> list[float]:
    """Train the teacher on the new task's data before the student starts.

    Runs ``pretrain_epochs`` of SGD at ``teacher_lr``; the scope of the
    parameter updates follows the strategy kind.  Returns per-epoch mean
    cross-entropy so callers can check the loss actually went down.
    """
    if not strategy.pretrains:
        raise ContractError(f"pretrain_teacher called with strategy '{strategy.kind}'")
    n = inputs.shape[0]
    # the shuffle key leaves out the task (every task replays the same
    # orders); it is kept as it was so that every float stays the same
    schedule = ((strategy.teacher_lr, np.random.default_rng((seed, 0x7EAC, epoch)).permutation(n))
                for epoch in range(strategy.pretrain_epochs))
    return [ce for ce, _ in ce_epochs(teacher, strategy.trained_parameters(teacher), inputs,
                                      labels_local, schedule, batch_size, None, task_index,
                                      "teacher CE")]


def continuous_teacher_step(teacher: IncrementalModel, xb: np.ndarray, yb_local: np.ndarray,
                            strategy: TeacherStrategy) -> float:
    """One SGD step on the teacher for the batch the student just saw."""
    if not strategy.steps_with_student:
        raise ContractError(f"continuous_teacher_step called with strategy '{strategy.kind}'")
    return ce_step(teacher, strategy.trained_parameters(teacher), xb, yb_local,
                   strategy.teacher_lr, None, "teacher CE")[0]
