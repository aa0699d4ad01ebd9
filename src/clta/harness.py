"""Sequential-task training: schedules, warmup, and the stream driver.

The protocol for each task: optionally warm the new head up in isolation,
then run SGD epochs over seeded shuffles where every batch contributes a
cross-entropy on the current task plus a weighted distillation term
against the teacher snapshot.  The student trains through
``optim.ce_epochs`` like every other network; ``train_task`` adds the
distillation term with a function of its own that runs inside each step,
so that loop names a failing teacher forward by task and epoch too, and
builds the task's trace from the epochs the loop yields.  The teacher is a
deep copy of the model taken at the end of the previous task; what happens
to it during the new task is the teacher strategy's business.  Under
auxiliary KD, ``train_task`` also trains a copy of the teacher on the new
task alone as a second source.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import no_grad
from .data import TaskStream
from .distill import (
    KDConfig,
    TeacherStrategy,
    auxiliary_kd_loss,
    continuous_teacher_step,
    global_kd_loss,
    multiclass_kd_loss,
    pretrain_teacher,
    taskwise_kd_loss,
    teacher_forward,
    total_loss,
)
from .errors import ContractError, DataError, NumericError, ParameterError, check_fields
from .layers import IncrementalModel, NormMode, add_task_head, snapshot_model
from .metrics import (AccuracyMatrix, bn_stats_kld, capture_features,
                      evaluate_task_agnostic)
from .optim import ce_epochs, epoch_permutation, finite_loss, newest_task_parameters
from .optim import iter_batches, sgd_step  # unused here; the benchmark tracer looks them up here


@dataclass
class TrainConfig:
    """Per-task SGD schedule.

    Defaults are desk-scale: 20 epochs with step decays at 30/60/80% of
    the run, mirroring the shape of the full-scale 200-epoch schedule
    with decays at 60/120/160.  The optimizer is plain SGD: no momentum
    and no weight decay.
    """

    epochs: int = field(default=20, metadata={">=": 1})
    batch_size: int = field(default=128, metadata={">=": 2})
    base_lr: float = field(default=0.1, metadata={">": 0})
    lr_decay_epochs: tuple[int, ...] = (6, 12, 16)
    lr_decay_factor: float = field(default=10.0, metadata={">": 1})
    grad_clip: float | None = field(default=None, metadata={">": 0})

    def __post_init__(self):
        check_fields(self)
        steps = (*self.lr_decay_epochs, self.epochs)
        if min(steps) < 0 or any(b <= a for a, b in zip(steps, steps[1:])):
            raise ParameterError(f"train.decay_epochs: {tuple(self.lr_decay_epochs)} must be "
                                 f"strictly increasing and in [0, train.epochs = {self.epochs})")
        try:  # the learning rate of the last decayed epoch divides by this power
            self.lr_decay_factor ** len(self.lr_decay_epochs)
        except OverflowError:
            raise ParameterError(f"train.decay_factor: {self.lr_decay_factor} ** "
                                 f"{len(self.lr_decay_epochs)}, one factor per decay epoch, "
                                 "overflows") from None


@dataclass
class WarmupConfig:
    """Head-only warmup with a one-cycle learning rate and early stopping."""

    enabled: bool = False
    max_lr: float = field(default=0.1, metadata={">": 0})
    ramp_epochs: int = field(default=40, metadata={">=": 1})
    max_epochs: int = 200
    early_stop_patience: int = field(default=20, metadata={">=": 1})

    def __post_init__(self):
        check_fields(self)
        if self.ramp_epochs >= self.max_epochs:
            raise ParameterError(f"warmup.ramp_epochs: must be < warmup.max_epochs "
                                 f"({self.max_epochs}), got {self.ramp_epochs}")


@dataclass
class TaskTrace:
    """Per-epoch means recorded while training one task."""

    ce: list = field(default_factory=list)
    kd: list = field(default_factory=list)
    bn_kld: list = field(default_factory=list)
    warmup_ce: list = field(default_factory=list)


@dataclass
class RunResult:
    accuracy_matrix: AccuracyMatrix
    traces: list
    wall_s: float
    model: IncrementalModel
    teacher: IncrementalModel | None = None


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: base_lr divided by the factor once per passed decay epoch."""
    if not 0 <= epoch < cfg.epochs:
        raise ParameterError(f"epoch {epoch} outside [0, {cfg.epochs})")
    drops = sum(1 for d in cfg.lr_decay_epochs if epoch >= d)
    return cfg.base_lr / (cfg.lr_decay_factor ** drops)


def one_cycle_lr(epoch: int, cfg: WarmupConfig) -> float:
    """Cosine rise to max_lr at ramp_epochs, cosine fall to ~0 at the end."""
    if not 0 <= epoch < cfg.max_epochs:
        raise ParameterError(f"epoch {epoch} outside [0, {cfg.max_epochs})")
    low = cfg.max_lr / 25.0
    floor = cfg.max_lr * 1e-4
    if epoch <= cfg.ramp_epochs:
        phase = epoch / cfg.ramp_epochs
        return low + (cfg.max_lr - low) * 0.5 * (1.0 - np.cos(np.pi * phase))
    phase = (epoch - cfg.ramp_epochs) / (cfg.max_epochs - 1 - cfg.ramp_epochs)
    return floor + (cfg.max_lr - floor) * 0.5 * (1.0 + np.cos(np.pi * phase))


# ----------------------------------------------------------------------
# warmup
# ----------------------------------------------------------------------


def warmup_head(model: IncrementalModel, inputs: np.ndarray, labels_local: np.ndarray,
                cfg: WarmupConfig, batch_size: int, seed: int, task_index: int) -> list:
    """Train only the newest head on fixed backbone features.

    The backbone (and every running statistic) stays bit-identical: it is
    evaluated once in eval mode and the cached features feed the head.
    Stops early once the epoch-mean loss has not improved for
    ``early_stop_patience`` epochs.  Returns the per-epoch loss history.
    """
    n = inputs.shape[0]
    head_only = IncrementalModel([], model.feature_dim)  # the features are its inputs
    head_only.heads.append(model.heads[-1])
    schedule = ((one_cycle_lr(epoch, cfg), epoch_permutation(seed, task_index, epoch, n, stage=1))
                for epoch in range(cfg.max_epochs))
    history, best, stall = [], np.inf, 0
    for mean_ce, _ in ce_epochs(head_only, head_only.parameters(), capture_features(model, inputs),
                                labels_local, schedule, batch_size, None, task_index, "warmup CE"):
        history.append(mean_ce)
        if best - mean_ce > 1e-12:
            best, stall = mean_ce, 0
        else:
            stall += 1
            if stall >= cfg.early_stop_patience:
                break
    return history


# ----------------------------------------------------------------------
# per-task training
# ----------------------------------------------------------------------


def _kd_term(kd: KDConfig, student_logits, teacher_logits, aux_teacher, xb):
    """The distillation term and the weight it joins the cross-entropy with."""
    if kd.variant == "auxiliary":  # the loss weights its two terms itself
        with no_grad():
            aux_logits = aux_teacher.heads[-1].forward(aux_teacher.features(xb, NormMode.EVAL),
                                                       NormMode.EVAL)
        return auxiliary_kd_loss(student_logits, teacher_logits, aux_logits, kd), 1.0
    if kd.variant == "taskwise":  # zip stops at the teacher's old heads
        return taskwise_kd_loss(zip(student_logits, teacher_logits), kd.temperature), kd.weight
    student_old = ad.concat(student_logits[:len(teacher_logits)], axis=1)
    teacher_old = ad.concat(teacher_logits, axis=1)
    if kd.variant == "global":
        return global_kd_loss(student_old, teacher_old, kd.temperature), kd.weight
    return multiclass_kd_loss(student_old, teacher_old), kd.weight


def train_task(model: IncrementalModel, teacher: IncrementalModel | None,
               task_index: int, inputs: np.ndarray, labels_local: np.ndarray,
               kd: KDConfig, strategy: TeacherStrategy, train: TrainConfig,
               warmup: WarmupConfig, seed: int) -> TaskTrace:
    """Run one task's training, mutating model (and teacher, per strategy).

    ``task_index`` is 1-based; a teacher must be present exactly when it
    is >= 2.  Under auxiliary KD a copy of the teacher with a fresh head is
    first trained on the task alone; it and a trained teacher's extra head
    have as many classes as the student's new head.  The KD trace holds the
    raw loss for the plain variants and the internally weighted sum for the
    auxiliary variant; both traces are all-zero on the first task.  The
    batch-norm KLD trace compares teacher and student statistics at each
    epoch's end (zero when inapplicable).
    """
    n = inputs.shape[0]
    if n < 2:  # a lone sample makes no batch, so nothing would train
        raise DataError(f"task {task_index} needs at least 2 training samples, got {n}")
    if task_index >= 2 and teacher is None:
        raise ContractError(f"task {task_index} needs a teacher snapshot")
    if task_index == 1 and teacher is not None:
        raise ContractError("the first task cannot have a teacher")

    n_old = len(model.heads) - 1
    n_classes = model.heads[-1].out_features
    labels_local = np.asarray(labels_local, dtype=np.int64)
    trace = TaskTrace()

    aux_teacher = None
    if teacher is not None and kd.variant == "auxiliary":  # supervised on this task alone
        aux_teacher = add_task_head(snapshot_model(teacher), n_classes, seed=(seed, task_index, 5))
        schedule = ((lr_schedule(e, train), epoch_permutation(seed, task_index, e, n, stage=3))
                    for e in range(train.epochs))
        list(ce_epochs(aux_teacher, newest_task_parameters(aux_teacher), inputs, labels_local,
                       schedule, train.batch_size, train.grad_clip, task_index, "auxiliary CE"))

    if warmup.enabled:
        trace.warmup_ce = warmup_head(model, inputs, labels_local, warmup,
                                      train.batch_size, seed, task_index)

    if teacher is not None and strategy.trains_teacher:
        # the extra head only gives the teacher a cross-entropy on new-task
        # labels; distillation targets always come from the original heads
        add_task_head(teacher, n_classes, seed=(seed, task_index, 9))
        if strategy.pretrains:
            pretrain_teacher(teacher, inputs, labels_local, strategy,
                             train.batch_size, seed, task_index)

    student_mode = NormMode.TRAIN
    if strategy.fixes_student_stats and task_index >= 2:
        student_mode = NormMode.EVAL

    def distill(ce, logits, xb, yb_local):
        """The KD term and total loss; a continuous teacher then steps on the batch."""
        teacher_logits = teacher_forward(teacher, xb, strategy, n_old)
        if not all(np.isfinite(t.data).all() for t in teacher_logits):
            raise NumericError("non-finite teacher logits")
        kd_t, weight = _kd_term(kd, logits, teacher_logits, aux_teacher, xb)
        kd_value = finite_loss(kd_t, "KD")
        total = total_loss(ce, kd_t, weight)
        finite_loss(total, "total")
        if strategy.steps_with_student:
            continuous_teacher_step(teacher, xb.data, yb_local, strategy)
        return kd_value, total

    schedule = ((lr_schedule(e, train), epoch_permutation(seed, task_index, e, n, stage=0))
                for e in range(train.epochs))
    compares_bn = teacher is not None and model.batchnorm_layers() and teacher.batchnorm_layers()
    for mean_ce, mean_kd in ce_epochs(model, model.parameters(), inputs, labels_local, schedule,
                                      train.batch_size, train.grad_clip, task_index, "CE",
                                      student_mode, None if teacher is None else distill):
        trace.ce.append(mean_ce)
        trace.kd.append(mean_kd)
        trace.bn_kld.append(bn_stats_kld(teacher, model) if compares_bn else 0.0)
    return trace


# ----------------------------------------------------------------------
# stream driver
# ----------------------------------------------------------------------


def run_stream(stream: TaskStream, model: IncrementalModel, kd: KDConfig,
               strategy: TeacherStrategy, train: TrainConfig,
               warmup: WarmupConfig, seed: int) -> RunResult:
    """Train through every task in order and fill the accuracy matrix.

    Row t holds the task-agnostic accuracy on every test split seen so far,
    measured right after task t finished.  Deterministic given the seed.
    """
    if model.heads:
        raise ContractError("run_stream expects a model with no heads yet")
    n_tasks = len(stream)
    matrix = AccuracyMatrix(n_tasks)
    traces = []
    teacher = None
    started = time.perf_counter()

    for t in range(1, n_tasks + 1):
        task = stream.tasks[t - 1]
        if t >= 2:
            teacher = snapshot_model(model)
        add_task_head(model, len(task.classes), seed=(seed, t, 1))
        traces.append(train_task(model, teacher, t, task.train.inputs,
                                 task.local_labels(task.train), kd, strategy, train, warmup, seed))
        seen = int(np.sum(stream.class_counts[:t]))
        order = stream.class_order[:seen]
        for j in range(1, t + 1):
            test = stream.tasks[j - 1].test
            matrix.set(t - 1, j - 1,
                       evaluate_task_agnostic(model, test.inputs, test.labels, order))

    wall = time.perf_counter() - started
    return RunResult(matrix, traces, wall, model=model, teacher=teacher)
