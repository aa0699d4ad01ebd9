"""Error paths of the public functions, one table row each.

Each row breaks one check with the smallest input that reaches it and
asserts the error class and the leading text of the message, so a check
whose ``raise`` is removed fails its row; the warnings that ``write_plots``
prints instead of raising get a table of their own.
"""

import math
import re

import numpy as np
import pytest

from clta import autodiff as ad
from clta.autodiff import Tensor
from clta.config import parse_config
from clta.data import TaskStream, split_classes, synthetic_stream
from clta.distill import (KDConfig, TeacherStrategy, auxiliary_kd_loss, continuous_teacher_step,
                          global_kd_loss, pretrain_teacher)
from clta.errors import ContractError, DataError, ParameterError, ShapeError
from clta.experiment import ExperimentResult, aggregate_rows, write_results
from clta.harness import TrainConfig, WarmupConfig, one_cycle_lr, run_stream
from clta.layers import Dense, GlobalAvgPool, NormMode, add_task_head, build_micro_mlp
from clta.metrics import (AccuracyMatrix, bn_stats_kld, evaluate_task_agnostic,
                          forgetting_metrics, linear_cka, predict_global)
from clta.plots import write_plots


def ones(*shape) -> Tensor:
    return Tensor(np.ones(shape))


def mlp(heads: int = 0, hidden: int = 4):
    """A 4-input MLP with ``heads`` two-class heads."""
    model = build_micro_mlp(4, hidden=hidden)
    for _ in range(heads):
        add_task_head(model, 2, 0)
    return model


def stream(n_tasks: int = 1) -> TaskStream:
    return synthetic_stream(n_tasks, 2, 5, dim=4)


ROWS = [
    # autodiff
    ("Tensor.item", lambda: ones(2).item(), ContractError, "item() on tensor of shape (2,)"),
    ("add.broadcast", lambda: ad.add(ones(2), ones(3)), ShapeError,
     "add: shapes (2,) and (3,) do not broadcast"),
    ("reshape", lambda: ad.reshape(ones(2, 3), (4,)), ShapeError,
     "reshape: cannot view (2, 3) as (4,)"),
    ("flatten", lambda: ad.flatten(ones(3)), ShapeError, "flatten expects a batch axis"),
    ("concat.empty", lambda: ad.concat([]), ShapeError, "concat of an empty tensor list"),
    ("concat.shapes", lambda: ad.concat([ones(2, 3), ones(3, 3)], axis=1), ShapeError,
     "concat: shapes disagree off the concatenation axis"),
    ("matmul.rank", lambda: ad.matmul(ones(2), ones(2, 2)), ShapeError,
     "matmul expects 2-D operands"),
    ("matmul.inner", lambda: ad.matmul(ones(2, 3), ones(2, 2)), ShapeError,
     "matmul: inner dimensions differ"),
    ("linear.rank", lambda: ad.linear(ones(2), ones(2, 2), ones(2)), ShapeError,
     "linear expects 2-D input and weight"),
    ("linear.inner", lambda: ad.linear(ones(2, 3), ones(2, 2), ones(2)), ShapeError,
     "linear: inner dimensions differ"),
    ("linear.bias", lambda: ad.linear(ones(2, 2), ones(2, 3), ones(2)), ShapeError,
     "linear: bias shape (2,), expected (3,)"),
    ("conv2d.stride", lambda: ad.conv2d(ones(1, 1, 4, 4), ones(1, 1, 3, 3), stride=3),
     ParameterError, "conv2d stride must be 1 or 2, got 3"),
    ("conv2d.padding", lambda: ad.conv2d(ones(1, 1, 4, 4), ones(1, 1, 3, 3), padding=-1),
     ParameterError, "conv2d padding must be >= 0, got -1"),
    ("conv2d.rank", lambda: ad.conv2d(ones(1, 4, 4), ones(1, 1, 3, 3)), ShapeError,
     "conv2d expects 4-D input/kernel"),
    ("conv2d.channels", lambda: ad.conv2d(ones(1, 2, 4, 4), ones(1, 1, 3, 3)), ShapeError,
     "conv2d: input has 2 channels but kernel expects 1"),
    ("conv2d.kernel", lambda: ad.conv2d(ones(1, 1, 2, 2), ones(1, 1, 3, 3)), ShapeError,
     "conv2d: kernel 3x3 larger than padded input 2x2"),
    ("avg_pool2d.rank", lambda: ad.avg_pool2d(ones(1, 4, 4), 2), ShapeError,
     "avg_pool2d expects 4-D input"),
    ("avg_pool2d.divide", lambda: ad.avg_pool2d(ones(1, 1, 4, 4), 3), ParameterError,
     "avg_pool2d: kernel 3 must divide spatial dims 4x4"),
    ("class_axis", lambda: ad.softmax_temperature(ones(2, 0)), ShapeError,
     "softmax_temperature needs at least one class on the last axis"),
    ("cross_entropy.rank", lambda: ad.cross_entropy(ones(2, 2, 2), [0, 1]), ShapeError,
     "cross_entropy expects (batch, classes) logits"),
    # data
    ("split_classes.classes", lambda: split_classes(0, "equal", 1), ParameterError,
     "num_classes and parts must be >= 1"),
    ("split_classes.parts", lambda: split_classes(4, "equal", 0), ParameterError,
     "num_classes and parts must be >= 1"),
    ("TaskStream.reused", lambda: TaskStream([stream().tasks[0]] * 2), DataError,
     "task 2 reuses classes [0, 1]"),
    # distill
    ("check_pair.rank", lambda: global_kd_loss(ones(2, 2, 2), ones(2, 2, 2), 2.0),
     ContractError, "global KD expects 2-D (batch, classes) logits"),
    ("auxiliary_kd_loss.heads",
     lambda: auxiliary_kd_loss([ones(2, 2)], [], ones(2, 2), KDConfig(variant="auxiliary")),
     ContractError, "auxiliary KD needs at least one old head plus the current head"),
    ("pretrain_teacher.kind",
     lambda: pretrain_teacher(mlp(1), np.ones((4, 4)), np.zeros(4, int),
                              TeacherStrategy(kind="frozen"), 2, 0, 0),
     ContractError, "pretrain_teacher called with strategy 'frozen'"),
    ("continuous_teacher_step.kind",
     lambda: continuous_teacher_step(mlp(1), np.ones((4, 4)), np.zeros(4, int),
                                     TeacherStrategy(kind="adapt_stats")),
     ContractError, "continuous_teacher_step called with strategy 'adapt_stats'"),
    # harness
    ("one_cycle_lr.epoch", lambda: one_cycle_lr(200, WarmupConfig()), ParameterError,
     "epoch 200 outside [0, 200)"),
    ("run_stream.heads",
     lambda: run_stream(stream(), mlp(1), KDConfig(), TeacherStrategy(), TrainConfig(),
                        WarmupConfig(), 0),
     ContractError, "run_stream expects a model with no heads yet"),
    # layers
    ("Dense.outputs", lambda: Dense(2, 0, np.random.default_rng(0)), ParameterError,
     "dense layer needs >= 1 output, got 0"),
    ("GlobalAvgPool.rank", lambda: GlobalAvgPool().forward(ones(2, 2), NormMode.EVAL),
     ShapeError, "global average pool expects 4-D input"),
    ("add_task_head.classes", lambda: add_task_head(mlp(), 0, 0), ParameterError,
     "a task head needs >= 1 class, got 0"),
    # metrics
    ("AccuracyMatrix.tasks", lambda: AccuracyMatrix(0), ContractError,
     "accuracy matrix needs >= 1 task, got 0"),
    ("forgetting_metrics.incomplete", lambda: forgetting_metrics(AccuracyMatrix(2)),
     ContractError, "accuracy matrix has unfilled lower-triangle entries"),
    ("predict_global.heads", lambda: predict_global(mlp(), np.ones((2, 4)), []),
     ContractError, "model has no classification heads"),
    ("predict_global.empty", lambda: predict_global(mlp(1), np.ones((0, 4)), [0, 1]),
     DataError, "empty input batch"),
    ("predict_global.order", lambda: predict_global(mlp(1), np.ones((2, 4)), [0]),
     ContractError, "class order has 1 entries, model emits 2"),
    ("evaluate_task_agnostic.empty",
     lambda: evaluate_task_agnostic(mlp(1), np.ones((0, 4)), [], [0, 1]),
     DataError, "cannot evaluate on an empty test set"),
    ("linear_cka.rank", lambda: linear_cka(np.ones(3), np.ones((3, 2))), ContractError,
     "linear_cka expects 2-D (samples, features) arrays"),
    ("linear_cka.samples", lambda: linear_cka(np.ones((3, 2)), np.ones((4, 2))),
     ContractError, "sample counts differ: 3 vs 4"),
    ("linear_cka.one_sample", lambda: linear_cka(np.ones((1, 2)), np.ones((1, 2))),
     ContractError, "linear_cka needs at least 2 samples"),
    ("bn_stats_kld.channels", lambda: bn_stats_kld(mlp(hidden=4), mlp(hidden=8)),
     ContractError, "channel counts differ: 4 vs 8"),
    # config
    ("parse_value.bool", lambda: parse_config("warmup.enabled = yes\n"), ParameterError,
     "warmup.enabled: cannot read 'yes' as bool"),
    ("samples_per_class.lower_bound", lambda: parse_config("data.samples_per_class = 2\n"),
     ParameterError, "data.samples_per_class: must be >= 3, got 2"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_the_check_raises_its_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()


def test_three_samples_per_class_are_enough():
    """The lower bound is 3, the fewest that leave the 80/20 split a test
    sample per class."""
    assert parse_config("data.samples_per_class = 3\n").data.samples_per_class == 3


def finished_row(**changes) -> dict:
    return {"config_id": "demo", "seed": 0, "status": "ok", "acc_inc": 0.7, "acc_final": 0.6,
            "forg_inc": 0.1, "forg_final": 0.1, "wall_s": 1.0, "a_k": [0.8, 0.6],
            "traces": [{"ce": [0.9, 0.4], "kd": [0.0, 0.0], "bn_kld": [], "warmup_ce": []}],
            } | changes


WARNINGS = [
    ("no_traces", {"traces": []}, "plots: seed 0 has no traces, skipping loss curves"),
    ("empty_trace", {"traces": [{"ce": [], "kd": [], "bn_kld": [], "warmup_ce": []}]},
     "plots: task 1 trace is empty, skipping"),
    ("incomplete_accuracy", {"a_k": [0.8, math.nan]},
     "plots: accuracy row incomplete, skipping accuracy chart"),
]


@pytest.mark.parametrize("changes, warning", [row[1:] for row in WARNINGS],
                         ids=[row[0] for row in WARNINGS])
def test_write_plots_warns_of_what_it_skips(tmp_path, capsys, changes, warning):
    rows = [finished_row(**changes)]
    write_results(ExperimentResult(parse_config(""), rows, aggregate_rows(rows)), tmp_path)
    write_plots(tmp_path)
    assert capsys.readouterr().err.splitlines() == [warning]
