"""A NaN or an inf planted anywhere in a run is caught before the run ends.

One element of one op's output, or of one VJP's output, is overwritten at a
drawn call index within one phase of a tiny ``run_stream``:

* ``train``    - the student's forward and its losses in ``train_task``;
* ``teacher``  - the teacher's forward, in ``teacher_forward`` and in the
  continuous teacher's own training step;
* ``eval``     - the forward passes of ``evaluate_task_agnostic``;
* ``backward`` - every VJP of every backward pass, student and teacher.

Every such run must raise ``NumericError`` before ``run_stream`` returns,
with no RuntimeWarning on the way (tier-1 makes one an error), and one
that names the task: ``task <t>, epoch <e>: `` while a task trains,
``task <t>, test of task <j>: `` in evaluation.  A finite value near the
float maximum (``±1.7e308``, ``1e200``) is planted the same way: such a
run may finish, but if it stops, it stops with such a ``NumericError`` and
no warning.
"""

import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clta import autodiff as ad
from clta import harness
from clta.data import synthetic_stream
from clta.distill import KDConfig, TeacherStrategy
from clta.errors import NumericError
from clta.harness import TrainConfig, WarmupConfig, run_stream
from clta.layers import build_micro_cnn, build_micro_mlp

PHASES = ("train", "teacher", "eval", "backward")
# harness-level function -> the phase its ops belong to
_PHASE_OF = {"train_task": "train", "teacher_forward": "teacher",
             "continuous_teacher_step": "teacher", "evaluate_task_agnostic": "eval"}


def _planted(values: np.ndarray, where: float, value: float) -> np.ndarray:
    out = np.array(values, dtype=np.float64)  # a copy: reshape outputs are views
    out.flat[min(int(where * out.size), out.size - 1)] = value
    return out


class _Injector:
    """Counts op outputs per phase and VJP outputs, and overwrites one element
    of the ``index``-th one in ``phase`` with ``value`` (no phase: count only)."""

    def __init__(self, phase=None, index=-1, elem=0.0, value=math.nan):
        self.phase, self.index, self.elem, self.value = phase, index, elem, value
        self.stack: list[str] = []
        self.counts: Counter = Counter()
        self.planted = False

    def _hit(self, phase: str) -> bool:
        seen = self.counts[phase]
        self.counts[phase] += 1
        if phase == self.phase and seen == self.index:
            self.planted = True
            return True
        return False

    def within(self, phase: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.stack.append(phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
        return wrapped

    def make(self, original):
        def _make(values, *args):
            *head, parents, vjp = args
            if self.stack and self._hit(self.stack[-1]):
                values = _planted(values, self.elem, self.value)
            return original(values, *head, parents, self._vjp(parents, vjp))
        return _make

    def _vjp(self, parents, vjp):
        def wrapped(g):
            pieces = list(vjp(g))
            if self._hit("backward"):
                i = next(i for i, (p, piece) in enumerate(zip(parents, pieces))
                         if piece is not None and p.requires_grad)
                pieces[i] = _planted(pieces[i], self.elem, self.value)
            return pieces
        return wrapped

    def run(self, arch: str, kind: str, grad_clip):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_make", self.make(ad._make))
            for name, phase in _PHASE_OF.items():
                mp.setattr(harness, name, self.within(phase, getattr(harness, name)))
            return _run(arch, kind, grad_clip)


def _run(arch: str, kind: str, grad_clip, kd=KDConfig(weight=1.0), base_lr=0.1, **strategy):
    if arch == "mlp":
        stream = synthetic_stream(2, 2, 10, dim=4, shift=0.1, seed=0)
        model = build_micro_mlp(4, hidden=8, seed=0)
    else:
        stream = synthetic_stream(2, 2, 10, image_shape=(1, 8, 8), shift=0.1, seed=0)
        model = build_micro_cnn(1, seed=0)
    train = TrainConfig(epochs=2, batch_size=8, base_lr=base_lr, lr_decay_epochs=(),
                        grad_clip=grad_clip)
    return run_stream(stream, model, kd, TeacherStrategy(kind=kind, **strategy),
                      train, WarmupConfig(), seed=0)


@functools.lru_cache(maxsize=None)
def _call_counts(arch: str, kind: str, grad_clip) -> Counter:
    counter = _Injector()
    counter.run(arch, kind, grad_clip)
    return counter.counts


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
@pytest.mark.parametrize("phase", PHASES)
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["adapt_stats", "continuous_full"]),
       grad_clip=st.sampled_from([None, 1.0]),
       where=st.floats(0.0, 1.0, exclude_max=True),
       elem=st.floats(0.0, 1.0, exclude_max=True),
       value=st.sampled_from([math.nan, math.inf, 1.7e308, -1.7e308, 1e200]))
# the last call of a phase: for backward, the continuous teacher's last
# step, whose gradients no later forward reads
@example(kind="continuous_full", grad_clip=None, where=0.999999, elem=0.0, value=math.nan)
@example(kind="continuous_full", grad_clip=1.0, where=0.999999, elem=0.5, value=math.inf)
@example(kind="adapt_stats", grad_clip=None, where=0.999999, elem=0.0, value=math.nan)
# a finite plant that training passes on: on the MLP's train phase the
# seed stops only in evaluation, at the logits
@example(kind="adapt_stats", grad_clip=None, where=0.234375, elem=0.0, value=1.7e308)
def test_planted_non_finite_value_raises(arch, phase, kind, grad_clip, where, elem, value):
    total = _call_counts(arch, kind, grad_clip)[phase]
    assert total > 0
    injector = _Injector(phase, int(where * total), elem, value)
    try:
        injector.run(arch, kind, grad_clip)
    except NumericError as exc:
        # a planted NaN or inf is caught where it is planted; a finite value
        # may overflow later, in another phase; either names its task
        assert str(exc).startswith("task "), exc
    else:
        assert math.isfinite(value), "a planted NaN or inf ended in no NumericError"
    assert injector.planted


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_a_clean_run_raises_nothing(arch):
    result = _Injector().run(arch, "continuous_full", None)
    assert np.all(np.isfinite(result.accuracy_matrix.values[np.tril_indices(2)]))


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_a_teacher_lr_that_overflows_ends_in_numeric_error(arch):
    """A valid but huge teacher learning rate overflows the continuous
    teacher's weights; the run raises NumericError, not a RuntimeWarning,
    at the teacher's logits, naming the task and epoch."""
    with pytest.raises(NumericError, match="^task 2, epoch 0: non-finite teacher logits$"):
        _run(arch, "continuous_full", None, teacher_lr=1e300)


@pytest.mark.parametrize("kind", ["pretrain_full", "pretrain_norm"])
@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_a_pretrained_teacher_that_diverges_names_the_task(arch, kind):
    """The same rate overflows a teacher while it pretrains, and the
    train-mode BatchNorm forward fails before the loss is seen; the error
    names the task, the epoch and the teacher's cross-entropy."""
    with pytest.raises(NumericError, match="^task 2, epoch 0: teacher CE forward: op 'normalize' "
                                           "produced a non-finite variance"):
        _run(arch, kind, None, teacher_lr=1e300)


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_a_kd_weight_that_overflows_the_auxiliary_loss_ends_in_numeric_error(arch):
    """The auxiliary loss sums two terms that each carry a weight near the
    float maximum; the sum overflows to inf without a warning and is caught
    as the KD loss."""
    with pytest.raises(NumericError, match="^task 2, epoch 0: non-finite KD loss inf$"):
        _run(arch, "adapt_stats", None, kd=KDConfig(variant="auxiliary", weight=1.7e308))


def test_a_student_forward_that_fails_names_the_task_and_epoch():
    """A huge learning rate overflows the student's first-task weights, and
    its train-mode BatchNorm forward fails on the next batch."""
    with pytest.raises(NumericError, match="^task 1, epoch 0: CE forward: op 'normalize' "
                                           "produced a non-finite variance"):
        _run("mlp", "adapt_stats", None, base_lr=1e300)


def test_a_student_update_that_fails_names_the_task_and_epoch():
    """A huge multiclass KD weight gives the student a non-finite gradient
    on the second task; ``sgd_step``'s message gains the task, epoch and term."""
    with pytest.raises(NumericError, match="^task 2, epoch 0: CE: sgd_step: parameter 0 has a "
                                           "non-finite gradient$"):
        _run("mlp", "adapt_stats", None, kd=KDConfig(variant="multiclass", weight=1e308))
