"""Bit-for-bit pins of BatchNorm, ``sgd_step``, ``Tensor.backward`` and a
short ``run_stream``, and of their errors.

The digests below were recorded from the current arithmetic; a change that
moves one bit of an output, a running statistic, a gradient or an update
fails here, as does one that changes an error's class or message.  A digest
is the first 16 hex digits of the sha256 of the array's shape and its
little-endian float64 bytes.  The one exception is the taskwise KD trace,
pinned by value to a declared relative tolerance (``STREAM_RTOL``).
"""

import hashlib

import numpy as np
import pytest

from clta import autodiff as ad
from clta.autodiff import Tensor
from clta.data import synthetic_stream
from clta.distill import KDConfig, TeacherStrategy, global_kd_loss, total_loss
from clta.errors import DegenerateBatchError, NumericError, ShapeError
from clta.harness import TrainConfig, WarmupConfig, run_stream
from clta.layers import (BatchNorm, NormMode, add_task_head, build_micro_cnn, build_micro_mlp,
                         snapshot_model)
from clta.optim import sgd_step


def _digest(arr) -> str:
    arr = np.asarray(arr)
    digest = hashlib.sha256(repr(arr.shape).encode())
    digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


SHAPES = {"dense": (32, 64), "conv": (8, 4, 6, 6)}
ALL_MODES = tuple(NormMode)


def _batchnorm_case(mode: NormMode, shape_name: str) -> dict:
    """One forward of a layer with drawn affine and running statistics, and
    (where the output carries a graph) one backward of ``sum(out * u)``."""
    shape = SHAPES[shape_name]
    channels = shape[1]
    rng = np.random.default_rng((len(shape), channels))
    bn = BatchNorm(channels)
    bn.gamma.data = rng.uniform(0.5, 1.5, channels)
    bn.beta.data = rng.normal(size=channels)
    bn.running_mean = rng.normal(size=channels)
    bn.running_var = rng.uniform(0.5, 2.0, channels)
    x = Tensor(rng.normal(1.5, 3.0, size=shape), requires_grad=True)
    upstream = Tensor(rng.normal(size=shape))
    out = bn.forward(x, mode)
    arrays = {"out": out.data, "running_mean": bn.running_mean,
              "running_var": bn.running_var}
    if out.requires_grad:
        ad.tensor_sum(out * upstream).backward()
        arrays.update(x=x.grad, gamma=bn.gamma.grad, beta=bn.beta.grad)
    return {key: _digest(value) for key, value in arrays.items()}


BATCHNORM_PINS = {
    ("train", "conv"): {
        "out": "737c8c34f972af89", "running_mean": "24eb2ed08a929d41",
        "running_var": "64240ad930bed4c3", "x": "0e606fdeff47d86d",
        "gamma": "ab74f4abb211479a", "beta": "4f2795bd45114dc2"},
    ("train", "dense"): {
        "out": "646ce63194a0caac", "running_mean": "f5fdf78e6e98df5f",
        "running_var": "83c2e2c04f48e0a7", "x": "007f8738fa1b928d",
        "gamma": "4df7ee77e65e1787", "beta": "62309013123e6e6c"},
    ("eval", "conv"): {
        "out": "6b57c6a449c7f768", "running_mean": "e56e5f4a00ecffb4",
        "running_var": "f4e41d0bb4c1384b", "x": "068c56f3345b6660",
        "gamma": "4c4027c610a6e82d", "beta": "4f2795bd45114dc2"},
    ("eval", "dense"): {
        "out": "a27596d93846777e", "running_mean": "7a174ebac0ea54cb",
        "running_var": "0a43d76258235ed2", "x": "d629d0675a730264",
        "gamma": "89b1f471d882f8b8", "beta": "62309013123e6e6c"},
    ("adapt_stats", "conv"): {
        "out": "737c8c34f972af89", "running_mean": "24eb2ed08a929d41",
        "running_var": "64240ad930bed4c3"},
    ("adapt_stats", "dense"): {
        "out": "646ce63194a0caac", "running_mean": "f5fdf78e6e98df5f",
        "running_var": "83c2e2c04f48e0a7"},
    ("adapt_stats_running", "conv"): {
        "out": "f0820d4965ccfa69", "running_mean": "24eb2ed08a929d41",
        "running_var": "64240ad930bed4c3"},
    ("adapt_stats_running", "dense"): {
        "out": "f0f60966b7f220b2", "running_mean": "f5fdf78e6e98df5f",
        "running_var": "83c2e2c04f48e0a7"},
}


@pytest.mark.parametrize("shape_name", sorted(SHAPES))
@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_batchnorm_keeps_its_bits(mode, shape_name):
    assert _batchnorm_case(mode, shape_name) == BATCHNORM_PINS[(mode.value, shape_name)]


def _sgd_case(name: str) -> dict:
    """One ``sgd_step`` on three drawn parameters; ``overflowing`` squares
    gradients near 1e160, whose sum of squares overflows."""
    rng = np.random.default_rng(sum(map(ord, name)))
    shapes = [(64, 64), (64,), (7, 3)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    magnitude = 1e160 if name == "overflowing" else 1.0
    for p in params:
        p.grad = rng.normal(size=p.shape) * magnitude
    clip = {"unclipped": None, "clip_inert": 1e3, "clipped": 0.5, "overflowing": 2.0}[name]
    sgd_step(params, lr=0.05, grad_clip=clip)
    return {f"param{i}": _digest(p.data) for i, p in enumerate(params)}


SGD_PINS = {
    "clip_inert": {"param0": "355115a324b08da6", "param1": "cb8208179b2d8a55",
                   "param2": "6c02353e04b25470"},
    "clipped": {"param0": "b7404fd9806f4b66", "param1": "149362abba1eb724",
                "param2": "0533a8669dae4f87"},
    "overflowing": {"param0": "a1b13e5ade52dfa4", "param1": "e9210acc03bdcd26",
                    "param2": "c9652b48162f0806"},
    "unclipped": {"param0": "5af66121bb57e7d7", "param1": "c5d04378d2c51035",
                  "param2": "5f0c2b4ece0ccdf2"},
}


@pytest.mark.parametrize("name", sorted(SGD_PINS))
def test_sgd_step_keeps_its_bits(name):
    assert _sgd_case(name) == SGD_PINS[name]


def _student_step_grads() -> dict:
    """The parameter gradients of one global-KD student step on a 3-head MLP.

    The backbone features feed all three heads and the two old heads feed
    the KD ``concat``, so the features receive five gradient pieces and the
    order in which ``backward`` sums them shows in the bits."""
    rng = np.random.default_rng(16)
    model = build_micro_mlp(12, seed=3, hidden=16)
    for t, classes in enumerate((3, 2)):
        add_task_head(model, classes, seed=(3, t))
    teacher = snapshot_model(model)
    for p in teacher.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.shape)
    add_task_head(model, 4, seed=(3, 2))
    xb = Tensor(rng.normal(size=(10, 12)))
    logits = model.forward(xb, NormMode.TRAIN)
    with ad.no_grad():
        teacher_logits = teacher.forward(xb, NormMode.EVAL)
    ce = ad.cross_entropy(logits[-1], rng.integers(0, 4, 10))
    kd = global_kd_loss(ad.concat(logits[:2], axis=1), ad.concat(teacher_logits, axis=1), 2.0)
    total_loss(ce, kd, 10.0).backward()
    return {f"param{i}": _digest(p.grad) for i, p in enumerate(model.parameters())}


BACKWARD_PINS = {
    "param0": "f02123cf137afca8", "param1": "3a927cfbb80d5170", "param2": "ff432bd7ae59cb6a",
    "param3": "d415798f0cca0a55", "param4": "41ee6bf5180c02fa", "param5": "93aaf273a485b5ee",
    "param6": "ba6af9c913eceaaa", "param7": "be3bf934b064f360", "param8": "e950d87e1e9a4249",
    "param9": "b46bac293e135380", "param10": "bb2f208d58baf6cb", "param11": "6ccb6dca407e28c6",
    "param12": "e671abd895e8f294", "param13": "4952d0251be793fb",
}


def test_backward_keeps_its_bits():
    assert _student_step_grads() == BACKWARD_PINS


# ----------------------------------------------------------------------
# errors: class and message
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", [NormMode.TRAIN, NormMode.ADAPT_STATS,
                                  NormMode.ADAPT_STATS_RUNNING], ids=lambda m: m.value)
def test_batchnorm_single_sample_batch_message(mode):
    with pytest.raises(DegenerateBatchError) as info:
        BatchNorm(3).forward(Tensor(np.ones((1, 3))), mode)
    assert str(info.value) == (f"batch normalization in {mode.value} mode needs "
                               "batch size >= 2, got 1")


@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_batchnorm_wrong_channel_count_message(mode):
    with pytest.raises(ShapeError) as info:
        BatchNorm(3).forward(Tensor(np.ones((4, 5))), mode)
    assert str(info.value) == "expected 3 channels on axis 1, got shape (4, 5)"


def test_zero_variance_with_zero_eps_message():
    x = np.column_stack([np.full(4, 2.0), np.arange(4.0)])
    with pytest.raises(NumericError) as info:
        BatchNorm(2, eps=0.0).forward(Tensor(x), NormMode.TRAIN)
    assert str(info.value) == ("op 'normalize' produced a non-finite variance, "
                               "or a zero variance with eps = 0.0")


@pytest.mark.parametrize("peak", [1e200, 1.7e308], ids=["inf", "nan"])
def test_overflowing_variance_message(peak):
    """1e200 squares to an infinite variance; 1.7e308 already overflows the
    mean, and ``x - inf`` gives a NaN variance."""
    x = np.array([[peak, 1.0], [-peak, 2.0], [peak, 3.0]])
    with pytest.raises(NumericError) as info:
        BatchNorm(2).forward(Tensor(x), NormMode.TRAIN)
    assert str(info.value) == ("op 'normalize' produced a non-finite variance, "
                               "or a zero variance with eps = 1e-05")


@pytest.mark.parametrize("clip, lr", [(None, 1e158), (1.0, 1e308)])
def test_sgd_step_overflow_message_names_the_parameter_and_moves_none(clip, lr):
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([-1.7e308]), requires_grad=True)
    a.grad, b.grad = np.array([0.5, -0.5]), np.array([1e150])
    before = [a.data.copy(), b.data.copy()]
    with pytest.raises(NumericError) as info:
        sgd_step([a, b], lr=lr, grad_clip=clip)
    assert str(info.value) == "sgd_step: the update of parameter 1 overflows"
    np.testing.assert_array_equal(a.data, before[0])
    np.testing.assert_array_equal(b.data, before[1])


@pytest.mark.parametrize("clip", [None, 1.0])
def test_sgd_step_non_finite_gradient_message(clip):
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    a.grad, b.grad = np.array([1.0]), np.array([0.5, np.nan])
    with pytest.raises(NumericError) as info:
        sgd_step([a, b], lr=0.1, grad_clip=clip)
    assert str(info.value) == "sgd_step: parameter 1 has a non-finite gradient"
    np.testing.assert_array_equal(a.data, [1.0])


# ----------------------------------------------------------------------
# end to end: a short run_stream
# ----------------------------------------------------------------------


# name -> (architecture, backbone norm, KD variant, teacher kind)
STREAM_CASES = {
    "mlp-adapt_stats": ("mlp", "batch", "global", "adapt_stats"),
    "cnn-adapt_stats": ("cnn", "batch", "global", "adapt_stats"),
    "mlp-continuous_full": ("mlp", "batch", "global", "continuous_full"),
    "mlp-taskwise": ("mlp", "batch", "taskwise", "adapt_stats"),
    "mlp-layer": ("mlp", "layer", "global", "adapt_stats"),
    "cnn-group": ("cnn", "group", "global", "adapt_stats"),
}


def _stream_arrays(name: str) -> dict:
    """The accuracy matrix and the per-epoch CE, KD and bn_kld traces of a
    3-task ``run_stream``, as float64 arrays."""
    arch, norm, variant, kind = STREAM_CASES[name]
    if arch == "mlp":
        stream = synthetic_stream(3, 2, 12, dim=10, shift=0.05, seed=5)
        model = build_micro_mlp(10, norm=norm, seed=5, hidden=16)
    else:
        stream = synthetic_stream(3, 2, 6, image_shape=(1, 8, 8), shift=0.05, seed=5)
        model = build_micro_cnn(1, norm=norm, seed=5)
    result = run_stream(stream, model, KDConfig(variant=variant), TeacherStrategy(kind=kind),
                        TrainConfig(epochs=2, batch_size=8, lr_decay_epochs=(1,)),
                        WarmupConfig(), seed=5)
    arrays = {"accuracy": result.accuracy_matrix.values}
    for term in ("ce", "kd", "bn_kld"):
        arrays[term] = np.asarray([getattr(trace, term) for trace in result.traces],
                                  dtype=np.float64)
    return arrays


STREAM_PINS = {
    "mlp-adapt_stats": {"accuracy": "69ddf3040d59e8b5", "ce": "c2eebacf12f0947c",
                        "kd": "b4ac940a55260c84", "bn_kld": "5f2be20628a6cb95"},
    "cnn-adapt_stats": {"accuracy": "6e9def97aea4f2d2", "ce": "77d98301ee791933",
                        "kd": "8690a5c1c5e41534", "bn_kld": "a6bb931882780866"},
    "mlp-continuous_full": {"accuracy": "ecd513d92d5518b4", "ce": "695ee6c84d8d5324",
                            "kd": "e29b7372e8b42cac", "bn_kld": "7f76b6fe067d1aea"},
    "mlp-taskwise": {"accuracy": "69ddf3040d59e8b5", "ce": "a78bfb00d101a949",
                     "kd": [[0.0, 0.0], [0.00010800889522902025, 0.0010630185275071942],
                            [0.0004727411240001885, 0.0030311106454673172]],
                     "bn_kld": "dfde2b8ec6af4d97"},
    "mlp-layer": {"accuracy": "69ddf3040d59e8b5", "ce": "a2edfde11d8f676a",
                  "kd": "8cecf53db6a2e47f", "bn_kld": "e0a61c7a988701c2"},
    "cnn-group": {"accuracy": "1718863e24b23ce8", "ce": "2aeaa1dade581a8a",
                  "kd": "2b5ce157a55808eb", "bn_kld": "e0a61c7a988701c2"},
}


# Traces pinned as values to a declared relative tolerance instead of bits:
# taskwise KD's value is ``H(p, q) - H(p)``, whose last bits depend on how
# the sum is grouped.
STREAM_RTOL = {("mlp-taskwise", "kd"): 1e-12}


@pytest.mark.parametrize("name", sorted(STREAM_CASES, key=list(STREAM_CASES).index))
def test_run_stream_keeps_its_bits(name):
    arrays = _stream_arrays(name)
    for key, value in STREAM_PINS[name].items():
        if (name, key) in STREAM_RTOL:
            np.testing.assert_allclose(arrays[key], value, rtol=STREAM_RTOL[(name, key)],
                                       atol=0.0, err_msg=f"{name} {key}")
        else:
            assert _digest(arrays[key]) == value, f"{name} {key}"
