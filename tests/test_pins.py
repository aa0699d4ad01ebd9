"""Bit-for-bit pins of BatchNorm, ``conv2d``, ``sgd_step``, ``Tensor.backward`` and a
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
                         model_checksum, snapshot_model)
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
}


@pytest.mark.parametrize("shape_name", sorted(SHAPES))
@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_batchnorm_keeps_its_bits(mode, shape_name):
    assert _batchnorm_case(mode, shape_name) == BATCHNORM_PINS[(mode.value, shape_name)]


# name -> (input shape, kernel shape, stride, padding, bias): cnn32's three
# layers at its batch of 64 and at a short batch of 24; a batch of one and an
# empty batch; stride 1 and 2 with padding 0 and 1; a non-square 8x6 input,
# and on it a 3x2 kernel whose stride-2 windows leave the last row unread.
CONV_CASES = {
    "cnn32-1": ((64, 3, 32, 32), (8, 3, 3, 3), 2, 1, True),
    "cnn32-2": ((64, 8, 16, 16), (16, 8, 3, 3), 2, 1, True),
    "cnn32-3": ((64, 16, 8, 8), (32, 16, 3, 3), 2, 1, True),
    "cnn32-1-short": ((24, 3, 32, 32), (8, 3, 3, 3), 2, 1, True),
    "cnn32-2-short": ((24, 8, 16, 16), (16, 8, 3, 3), 2, 1, True),
    "cnn32-3-short": ((24, 16, 8, 8), (32, 16, 3, 3), 2, 1, True),
    "one": ((1, 8, 16, 16), (16, 8, 3, 3), 2, 1, True),
    "empty": ((0, 8, 16, 16), (16, 8, 3, 3), 2, 1, True),
    "s1p0": ((5, 3, 7, 7), (4, 3, 3, 3), 1, 0, True),
    "s1p1": ((5, 3, 7, 7), (4, 3, 3, 3), 1, 1, False),
    "s2p0": ((5, 3, 7, 7), (4, 3, 3, 3), 2, 0, False),
    "s2p1": ((5, 3, 7, 7), (4, 3, 3, 3), 2, 1, True),
    "8x6-s1p1": ((3, 2, 8, 6), (4, 2, 3, 3), 1, 1, True),
    "8x6-s2p0": ((3, 2, 8, 6), (4, 2, 3, 2), 2, 0, True),
}


def _conv2d_case(name: str) -> dict:
    """One forward of ``conv2d`` on drawn input, kernel and bias, and one
    backward of ``sum(out * u)``."""
    x_shape, w_shape, stride, padding, with_bias = CONV_CASES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape), requires_grad=True)
    b = Tensor(rng.normal(size=w_shape[0]), requires_grad=True) if with_bias else None
    out = ad.conv2d(x, w, b, stride, padding)
    ad.tensor_sum(out * Tensor(rng.normal(size=out.shape))).backward()
    arrays = {"out": out.data, "x": x.grad, "weight": w.grad}
    if with_bias:
        arrays["bias"] = b.grad
    return {key: _digest(value) for key, value in arrays.items()}


CONV_PINS = {
    "cnn32-1": {"out": "4d089b99f255da03", "x": "3f09e639318c0c8d",
                "weight": "949eb97b0a965642", "bias": "7116573ea9943760"},
    "cnn32-2": {"out": "1f3dd54a4e647d85", "x": "0ec5263c75fba447",
                "weight": "fbedfeb858fa8358", "bias": "5160b6cd1f498516"},
    "cnn32-3": {"out": "e46848acceac693d", "x": "c99686b6b53c761f",
                "weight": "0f153625a64633e8", "bias": "7506618e2b9bc0c0"},
    "cnn32-1-short": {"out": "120fe9822327b34a", "x": "1bf8c3b1f7835d59",
                      "weight": "6b9d7396d93090fe", "bias": "29f588db15bbde6b"},
    "cnn32-2-short": {"out": "18b1714c002225c1", "x": "ab7ade5aac231e80",
                      "weight": "758da2b84e292118", "bias": "b7c400a9d3a07ed9"},
    "cnn32-3-short": {"out": "4254fb41aa503f22", "x": "b1d6ccb04f8a123d",
                      "weight": "116aa50bb801070b", "bias": "f0074f82c59b3927"},
    "one": {"out": "6588677cd9397bb4", "x": "b00357ce701bb079",
            "weight": "b874405134680677", "bias": "4d06ded2632251a7"},
    "empty": {"out": "716258ceafd6b230", "x": "d3da7dc1f4a772ea",
              "weight": "f92c443876884588", "bias": "155434a95cc510c7"},
    "s1p0": {"out": "33cb8f06a0281dc8", "x": "9d0c2f00fefbd5f2",
             "weight": "393138787b4cd57f", "bias": "78db0f910ab456aa"},
    "s1p1": {"out": "7652dd5948b3b77e", "x": "827c5ec6f10db010",
             "weight": "56e60ce5a532a4d0"},
    "s2p0": {"out": "505a40680cf792ec", "x": "5c52683739a86cb8",
             "weight": "9e31521c5953b065"},
    "s2p1": {"out": "a1ba2e711d797d79", "x": "688e151583cc4d2e",
             "weight": "17235bb32f52c38e", "bias": "46bbffc112898004"},
    "8x6-s1p1": {"out": "af9ffd5d11850e9e", "x": "3ccb3d79aa5f9e87",
                 "weight": "5b2ef65d44e9255d", "bias": "168ace492a7e287d"},
    "8x6-s2p0": {"out": "cb6fdd5d0f46dd40", "x": "03264ac7e2e64e0a",
                 "weight": "5f335959aa3b103d", "bias": "5f881e7ff9742aa3"},
}


@pytest.mark.parametrize("name", list(CONV_CASES))
def test_conv2d_keeps_its_bits(name):
    assert _conv2d_case(name) == CONV_PINS[name]


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


@pytest.mark.parametrize("mode", [NormMode.TRAIN, NormMode.ADAPT_STATS], ids=lambda m: m.value)
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
    "mlp-pretrain_full": ("mlp", "batch", "global", "pretrain_full"),
    "cnn-pretrain_norm": ("cnn", "batch", "global", "pretrain_norm"),
    "mlp-continuous_norm": ("mlp", "batch", "global", "continuous_norm"),
    "mlp-auxiliary": ("mlp", "batch", "auxiliary", "adapt_stats"),
    "cnn-auxiliary-clip": ("cnn", "batch", "auxiliary", "frozen"),
    "mlp-warmup": ("mlp", "batch", "global", "fix_stats"),
    "mlp-auxiliary-continuous": ("mlp", "batch", "auxiliary", "continuous_full"),
    "cnn-auxiliary-pretrain-warmup": ("cnn", "batch", "auxiliary", "pretrain_full"),
}
# name -> the teacher, training and warmup settings that differ from the
# defaults; the warmup's early stop fires after 21, 30 and 14 epochs in
# mlp-warmup, and after 11 of 12 on the first task in the CNN case
STREAM_OPTIONS = {
    "mlp-pretrain_full": {"strategy": {"pretrain_epochs": 2}},
    "cnn-pretrain_norm": {"strategy": {"pretrain_epochs": 2}},
    "cnn-auxiliary-clip": {"train": {"grad_clip": 0.5}},
    "mlp-warmup": {"warmup": {"enabled": True, "max_epochs": 40, "ramp_epochs": 2,
                              "early_stop_patience": 3}},
    "cnn-auxiliary-pretrain-warmup": {"strategy": {"pretrain_epochs": 2},
                                      "warmup": {"enabled": True, "max_epochs": 12,
                                                 "ramp_epochs": 2, "early_stop_patience": 3}},
}


def _stream_arrays(name: str) -> dict:
    """The accuracy matrix, the per-epoch CE, KD and bn_kld traces and the
    warmup CE history of a 3-task ``run_stream``, as float64 arrays, and the
    final student's and teacher's ``model_checksum``."""
    arch, norm, variant, kind = STREAM_CASES[name]
    options = STREAM_OPTIONS.get(name, {})
    if arch == "mlp":
        stream = synthetic_stream(3, 2, 12, dim=10, shift=0.05, seed=5)
        model = build_micro_mlp(10, norm=norm, seed=5, hidden=16)
    else:
        stream = synthetic_stream(3, 2, 6, image_shape=(1, 8, 8), shift=0.05, seed=5)
        model = build_micro_cnn(1, norm=norm, seed=5)
    result = run_stream(stream, model, KDConfig(variant=variant),
                        TeacherStrategy(kind=kind, **options.get("strategy", {})),
                        TrainConfig(epochs=2, batch_size=8, lr_decay_epochs=(1,),
                                    **options.get("train", {})),
                        WarmupConfig(**options.get("warmup", {})), seed=5)
    arrays = {"accuracy": result.accuracy_matrix.values,
              "warmup_ce": np.concatenate([trace.warmup_ce for trace in result.traces]),
              "model": model_checksum(result.model)[:16],
              "teacher": model_checksum(result.teacher)[:16]}
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
    "mlp-pretrain_full": {"accuracy": "43f61421c68014ac", "ce": "9724fa680874d702",
                          "kd": "b834b94fa920d391", "bn_kld": "9e450047b07b5d83",
                          "warmup_ce": "91d6039a01f57163", "model": "ccaf3c5cfb756d44",
                          "teacher": "f80aef81f918e361"},
    "cnn-pretrain_norm": {"accuracy": "807a470074d12368", "ce": "f05e932baf950bae",
                          "kd": "f23b892d8725fce9", "bn_kld": "d8c6228d81f5a32b",
                          "warmup_ce": "91d6039a01f57163", "model": "529cedd70e7644e4",
                          "teacher": "1270a53a9d9b17e2"},
    "mlp-continuous_norm": {"accuracy": "ecd513d92d5518b4", "ce": "3352f494d64d39f3",
                            "kd": "38608d60a1772925", "bn_kld": "8471899f891dd7db",
                            "warmup_ce": "91d6039a01f57163", "model": "8d2a36978538509b",
                            "teacher": "83f0943d5cedf215"},
    "mlp-auxiliary": {"accuracy": "c5e79755639f5a48", "ce": "eb266e49a22c80a6",
                      "kd": "b8d803088ef5ee24", "bn_kld": "253f762387690e26",
                      "warmup_ce": "91d6039a01f57163", "model": "873a28ed311cd2ce",
                      "teacher": "022cb0ab0af1094b"},
    "cnn-auxiliary-clip": {"accuracy": "69ddf3040d59e8b5", "ce": "13398551232a7299",
                           "kd": "2be3c840ad9435f8", "bn_kld": "3c38905cf8684ff5",
                           "warmup_ce": "91d6039a01f57163", "model": "c7f65ca73c622934",
                           "teacher": "cc4d126ac916b8bf"},
    "mlp-warmup": {"accuracy": "69ddf3040d59e8b5", "ce": "cb72d1ca4720fc07",
                   "kd": "95abfdbccd8d0216", "bn_kld": "e0a61c7a988701c2",
                   "warmup_ce": "e0a2753706e4492a", "model": "950787802d0d414b",
                   "teacher": "9a1f0450751bad94"},
    "mlp-auxiliary-continuous": {"accuracy": "de7b92bc635343e4", "ce": "434e52e49cab4aa2",
                                 "kd": "f8eea1feb8798da7", "bn_kld": "68bd46a15df7c3eb",
                                 "warmup_ce": "91d6039a01f57163", "model": "47d5d9fa7d804174",
                                 "teacher": "f1a844329fb28802"},
    "cnn-auxiliary-pretrain-warmup": {"accuracy": "de7b92bc635343e4",
                                      "ce": "865a1ba2a3d382a1", "kd": "9323770436fdf574",
                                      "bn_kld": "6703b8938a534caa",
                                      "warmup_ce": "58f009cebe3b9069",
                                      "model": "a160b6630bf65c61",
                                      "teacher": "0691d204080dc0e2"},
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
            actual = arrays[key] if isinstance(arrays[key], str) else _digest(arrays[key])
            assert actual == value, f"{name} {key}"
