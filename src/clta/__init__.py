"""Desk-scale class-incremental learning with distillation regularizers."""

from .autodiff import Tensor, finite_difference_oracle, no_grad
from .config import (DataSpec, ExperimentConfig, ModelSpec, dump_config,
                     load_config, parse_config, validate_config)
from .data import (CorruptionSpec, Dataset, Task, TaskStream, corrupt_every_other,
                   corrupt_gaussian, load_cifar_binary, load_idx, split_classes,
                   stream_from_datasets, synthetic_stream)
from .distill import (KDConfig, TeacherStrategy, auxiliary_kd_loss, global_kd_loss,
                      multiclass_kd_loss, pretrain_teacher, taskwise_kd_loss,
                      teacher_forward, total_loss)
from .errors import (CltaError, ConsistencyError, ContractError, DataError,
                     DegenerateBatchError, FormatError, NumericError,
                     ParameterError, ShapeError, StateError, TruncatedFileError)
from .experiment import (ExperimentResult, aggregate_rows, build_model,
                         build_stream, run_experiment, run_seed, write_results)
from .harness import (RunResult, TaskTrace, TrainConfig, WarmupConfig, lr_schedule,
                      one_cycle_lr, run_stream, train_task, warmup_head)
from .layers import (BatchNorm, Conv2d, Dense, GlobalAvgPool, GroupNorm, Identity,
                     IncrementalModel, LayerNorm, NormMode, ReLU, add_task_head,
                     build_micro_cnn, build_micro_mlp, deserialize_model,
                     model_checksum, parameter_checksums, serialize_model,
                     snapshot_model)
from .metrics import (AccuracyMatrix, MetricsReport, accuracy_metrics,
                      bn_stats_kld, capture_features, compute_report,
                      evaluate_task_agnostic, forgetting_metrics, linear_cka,
                      predict_global, task_confusion)
from .optim import ce_step, epoch_permutation, iter_batches, sgd_step
from .plots import (accuracy_over_tasks_svg, line_chart, loss_curves_svg,
                    severity_chart_svg, write_plots)

__version__ = "0.1.0"
