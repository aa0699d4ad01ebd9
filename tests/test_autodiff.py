import ctypes
import inspect
import os
import platform
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clta import autodiff as ad
from clta.autodiff import Tensor, finite_difference_oracle, no_grad
from clta.errors import (ContractError, DataError, DegenerateBatchError, NumericError,
                         ParameterError, ShapeError)
from clta.layers import (BatchNorm, GroupNorm, LayerNorm, NormMode, add_task_head,
                         build_micro_cnn, snapshot_model)
from clta.optim import sgd_step


def check_grad(f, x, rtol=1e-6, atol=1e-8):
    """Compare backward() against the central-difference oracle."""
    t = Tensor(np.array(x, dtype=np.float64), requires_grad=True)
    out = f(t)
    out.backward()
    numeric = finite_difference_oracle(lambda v: f(Tensor(v)), t)
    np.testing.assert_allclose(t.grad, numeric, rtol=rtol, atol=atol)


class TestForward:
    def test_add_sub_mul_div_values(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        np.testing.assert_allclose((a + b).data, [5.0, 7.0, 9.0])
        np.testing.assert_allclose((a - b).data, [-3.0, -3.0, -3.0])
        np.testing.assert_allclose((a * b).data, [4.0, 10.0, 18.0])
        np.testing.assert_allclose((a / b).data, [0.25, 0.4, 0.5])

    def test_scalar_helpers(self):
        a = Tensor([1.0, -2.0])
        np.testing.assert_allclose(ad.scale(a, 3.0).data, [3.0, -6.0])
        np.testing.assert_allclose(ad.add_scalar(a, 1.5).data, [2.5, -0.5])
        np.testing.assert_allclose((-a).data, [-1.0, 2.0])

    def test_relu_clamps_negatives(self):
        out = ad.relu(Tensor([-2.0, 0.0, 3.5]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 3.5])

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 2))
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = ad.softmax_temperature(Tensor(rng.normal(size=(6, 9))), 2.0)
        np.testing.assert_allclose(p.data.sum(axis=-1), np.ones(6), rtol=1e-12)

    def test_log_softmax_agrees_with_softmax(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(
            np.exp(ad.log_softmax_temperature(logits, 3.0).data),
            ad.softmax_temperature(logits, 3.0).data,
            rtol=1e-12,
        )

    def test_log_sigmoid_is_stable_far_from_zero(self):
        out = ad.log_sigmoid(Tensor([-500.0, 0.0, 500.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[1], np.log(0.5), rtol=1e-12)
        np.testing.assert_allclose(out.data[0], -500.0, rtol=1e-9)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 5)))
        loss = ad.cross_entropy(logits, [0, 1, 2, 3])
        np.testing.assert_allclose(loss.item(), np.log(5.0), rtol=1e-12)

    def test_concat_restores_parts(self):
        a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0, 5.0]])
        out = ad.concat([a, b], axis=1)
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0, 4.0, 5.0]])

    def test_avg_pool_reduces_spatial_dims(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = ad.avg_pool2d(x, 4)
        np.testing.assert_allclose(out.data, [[[[7.5]]]])


class TestGradients:
    """Backward passes checked against the finite-difference oracle."""

    rng = np.random.default_rng(42)

    def test_binary_ops(self):
        x = self.rng.normal(size=(3, 4)) + 3.0
        for f in (
            lambda t: (t + Tensor(2.0 * np.ones((3, 4)))).sum(),
            lambda t: (t - Tensor(np.ones((3, 4)))).sum(),
            lambda t: (t * t).sum(),
            lambda t: (Tensor(np.ones((3, 4))) / t).sum(),
        ):
            check_grad(f, x)

    def test_broadcast_bias_gradient(self):
        bias = self.rng.normal(size=4)
        x = self.rng.normal(size=(5, 4))
        check_grad(lambda t: (Tensor(x) + t).sum(), bias)

    def test_unary_ops(self):
        x = np.abs(self.rng.normal(size=(2, 6))) + 0.5
        for f in (
            lambda t: ad.log(t).sum(),
            lambda t: ad.exp(t).mean(),
            lambda t: ad.sqrt(t).sum(),
            lambda t: ad.sigmoid(t).sum(),
            lambda t: ad.log_sigmoid(t).sum(),
            lambda t: ad.scale(t, -2.5).sum(),
            lambda t: ad.add_scalar(t, 0.75).mean(),
        ):
            check_grad(f, x)

    def test_relu_away_from_kink(self):
        x = self.rng.normal(size=(3, 3))
        x[np.abs(x) < 0.1] = 0.5
        check_grad(lambda t: ad.relu(t).sum(), x)

    def test_reductions_and_reshape(self):
        x = self.rng.normal(size=(3, 4))
        check_grad(lambda t: t.sum(axis=0).sum(), x)
        check_grad(lambda t: t.mean(axis=1, keepdims=True).sum(), x)
        check_grad(lambda t: ad.flatten(t).mean(), x)
        check_grad(lambda t: t.reshape((4, 3)).sum(axis=1).mean(), x)

    def test_matmul_both_sides(self):
        a = self.rng.normal(size=(3, 5))
        b = self.rng.normal(size=(5, 2))
        check_grad(lambda t: ad.matmul(t, Tensor(b)).sum(), a)
        check_grad(lambda t: ad.matmul(Tensor(a), t).sum(), b)

    def test_concat_routes_gradient_to_parts(self):
        a = self.rng.normal(size=(2, 3))
        b = self.rng.normal(size=(2, 4))
        check_grad(lambda t: ad.concat([t, Tensor(b)], axis=1).sum(), a)
        check_grad(lambda t: ad.concat([Tensor(a), t], axis=1).sum(), b)

    def test_softmax_and_log_softmax(self):
        logits = self.rng.normal(size=(4, 6))
        w = self.rng.normal(size=(4, 6))
        check_grad(lambda t: (ad.softmax_temperature(t, 2.0) * Tensor(w)).sum(), logits)
        check_grad(lambda t: (ad.log_softmax_temperature(t, 0.5) * Tensor(w)).sum(),
                   logits)

    def test_cross_entropy(self):
        logits = self.rng.normal(size=(5, 4))
        labels = np.array([0, 3, 1, 2, 2])
        check_grad(lambda t: ad.cross_entropy(t, labels), logits)

    def test_conv2d(self):
        x = self.rng.normal(size=(2, 2, 5, 5))
        w = self.rng.normal(size=(3, 2, 3, 3))
        b = self.rng.normal(size=3)
        check_grad(lambda t: ad.conv2d(t, Tensor(w), Tensor(b), stride=2, padding=1).sum(),
                   x, rtol=1e-5, atol=1e-7)
        check_grad(lambda t: ad.conv2d(Tensor(x), t, Tensor(b), stride=2, padding=1).sum(),
                   w, rtol=1e-5, atol=1e-7)
        check_grad(lambda t: ad.conv2d(Tensor(x), Tensor(w), t, stride=1, padding=0).sum(),
                   b, rtol=1e-5, atol=1e-7)

    def test_avg_pool(self):
        x = self.rng.normal(size=(2, 3, 4, 4))
        check_grad(lambda t: ad.avg_pool2d(t, 2).sum(), x)

    def test_reuse_accumulates(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = (t * t).sum() + t.sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [3.0, 5.0])


def chain_normalize(x, axes, eps, stats=None):
    """The seven-op graph that normalizes ``x`` over ``axes``: the reference
    for ``ad.normalize`` (over grouped views) and ``ad.batch_norm``."""
    if stats is None:
        mu = ad.tensor_mean(x, axis=axes, keepdims=True)
        centered = x - mu
        var = ad.tensor_mean(centered * centered, axis=axes, keepdims=True)
    else:
        centered = x - Tensor(stats[0])
        var = Tensor(stats[1])
    return centered / ad.sqrt(ad.add_scalar(var, eps))


def fixed_stats(rng, shape, axes):
    stat_shape = tuple(1 if i in axes else n for i, n in enumerate(shape))
    return rng.normal(size=stat_shape), rng.uniform(0.5, 2.0, size=stat_shape)


def chain_group_norm(x, groups, gamma, beta):
    """GroupNorm as the op chain that ``ad.normalize`` stands in for: view
    each sample's channels as ``groups`` groups, normalize each group over
    its channels and trailing axes, view back, scale and shift."""
    n, c, *spatial = x.shape
    grouped = ad.reshape(x, (n, groups, c // groups, *spatial))
    xhat = chain_normalize(grouped, tuple(range(2, len(x.shape) + 1)), 1e-5)
    channels = (1, c) + (1,) * len(spatial)
    return ad.reshape(xhat, x.shape) * ad.reshape(gamma, channels) + ad.reshape(beta, channels)


# (input shape, groups) of ``normalize``: LayerNorm (one group) on
# features, conv maps and 1x1 maps, GroupNorm on features and conv maps
NORMALIZE_CASES = [
    ((4, 6), 1),
    ((3, 4, 3, 3), 1),
    ((5, 3, 1, 1), 1),
    ((4, 6), 2),
    ((2, 4, 2, 2), 2),
    ((2, 8, 3, 2), 4),
]
# BatchNorm's inputs: features, conv maps and 1x1 maps
BATCH_NORM_SHAPES = [(6, 4), (3, 2, 3, 3), (5, 3, 1, 1)]


def affine_inputs(rng, shape):
    """An input drawn off zero mean and unit scale, and a gamma and beta."""
    return [rng.normal(1.5, 2.0, size=shape), rng.normal(1.0, 0.5, size=shape[1]),
            rng.normal(size=shape[1])]


def channel_axes(shape):
    """Every axis but the channel axis 1: what ``batch_norm`` reduces over."""
    return (0,) + tuple(range(2, len(shape)))


def bn_node(x, gamma=None, beta=None, stats=None):
    """``ad.batch_norm``'s output as a graph node: by the batch statistics,
    with a running update (TRAIN), or by the fixed per-channel ``stats``
    pair (EVAL's running statistics) when it is given.  Without ``gamma``
    and ``beta`` the affine is the identity, as constants."""
    c = x.shape[1]
    if gamma is None:
        gamma, beta = Tensor(np.ones(c)), Tensor(np.zeros(c))
    if stats is None:
        out, _ = ad.batch_norm(x, gamma, beta, (np.zeros(c), np.ones(c)), 1e-5, 0.1, False)
    else:
        out, _ = ad.batch_norm(x, gamma, beta, (stats[0].ravel(), stats[1].ravel()), 1e-5,
                               None, False)
    return out


class TestNormalize:
    @pytest.mark.parametrize("shape,groups", NORMALIZE_CASES)
    def test_values_and_gradients_equal_the_chain(self, shape, groups):
        """Values and the gradients of x, gamma and beta."""
        inputs = affine_inputs(np.random.default_rng(len(shape) + sum(shape)), shape)
        assert_close(run_graph(lambda x, g, b: ad.normalize(x, groups, 1e-5, g, b), inputs),
                     run_graph(lambda x, g, b: chain_group_norm(x, groups, g, b), inputs))

    @pytest.mark.parametrize("shape,groups", [NORMALIZE_CASES[i] for i in (0, 1, 4)])
    def test_gradient_matches_oracle(self, shape, groups):
        rng = np.random.default_rng(3)
        _, gamma, beta = affine_inputs(rng, shape)
        weights = Tensor(rng.normal(size=shape))
        check_grad(lambda t: (ad.normalize(t, groups, 1e-5, Tensor(gamma), Tensor(beta))
                              * weights).sum(),
                   rng.normal(size=shape))

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("shape", [(0, 4), (1, 4), (0, 4, 3, 3), (1, 4, 3, 3)])
    def test_empty_batch_and_batch_of_one(self, shape, groups):
        """Statistics are per sample, so neither needs another sample."""
        rng = np.random.default_rng(sum(shape))
        out, grads = run_graph(lambda x, g, b: ad.normalize(x, groups, 1e-5, g, b),
                               affine_inputs(rng, shape))
        assert out.shape == shape and grads[0].shape == shape
        assert all(g.shape == (4,) for g in grads[1:])
        assert np.isfinite(out).all() and all(np.isfinite(g).all() for g in grads)

    def test_overflowing_variance_raises(self):
        x = Tensor(np.array([[1e200, 2.0], [-1e200, 3.0]]))
        with pytest.raises(NumericError, match="non-finite variance"):
            ad.normalize(x, 1, 1e-5, Tensor(np.ones(2)), Tensor(np.zeros(2)))

    @pytest.mark.parametrize("x_shape, groups, gamma_shape, beta_shape", [
        ((4,), 1, (4,), (4,)),
        ((3, 4), 1, (3,), (4,)),
        ((3, 4), 1, (4,), (4, 1)),
        ((3, 6), 4, (6,), (6,)),
        ((3, 4), 0, (4,), (4,)),
    ])
    def test_shapes_checked(self, x_shape, groups, gamma_shape, beta_shape):
        with pytest.raises(ShapeError, match="^normalize: "):
            ad.normalize(Tensor(np.ones(x_shape)), groups, 1e-5, Tensor(np.ones(gamma_shape)),
                         Tensor(np.zeros(beta_shape)))

    # without eps a constant channel (BatchNorm) or a constant sample
    # (LayerNorm) has zero variance, so 1 / sqrt(var) is infinite
    @pytest.mark.parametrize("layer, x", [
        (BatchNorm(2, eps=0.0), [[1.0, 2.0], [1.0, 3.0]]),
        (LayerNorm(2, eps=0.0), [[1.0, 1.0], [2.0, 3.0]]),
    ])
    def test_zero_variance_without_eps_raises(self, layer, x):
        with pytest.raises(NumericError, match="zero variance with eps = 0.0"):
            layer.forward(Tensor(np.array(x), requires_grad=True), NormMode.TRAIN)


class TestBatchNormOp:
    @pytest.mark.parametrize("by", ["batch", "running"])
    @pytest.mark.parametrize("shape", BATCH_NORM_SHAPES)
    def test_values_and_gradients_equal_the_chain(self, shape, by):
        """Values and the gradients of x, gamma and beta against the chain
        of normalize's reference graph and a separate scale and shift."""
        rng = np.random.default_rng(len(shape) + sum(shape))
        axes = channel_axes(shape)
        channels = (1, shape[1]) + (1,) * (len(shape) - 2)
        stats = None if by == "batch" else fixed_stats(rng, shape, axes)
        inputs = [rng.normal(1.5, 2.0, size=shape), rng.normal(1.0, 0.5, size=shape[1]),
                  rng.normal(size=shape[1])]

        def chain(x, gamma, beta):
            xhat = chain_normalize(x, axes, 1e-5, stats)
            return xhat * ad.reshape(gamma, channels) + ad.reshape(beta, channels)

        assert_close(run_graph(lambda x, g, b: bn_node(x, g, b, stats), inputs),
                     run_graph(chain, inputs))

    @pytest.mark.parametrize("affine", [False, True])
    @pytest.mark.parametrize("shape", BATCH_NORM_SHAPES)
    def test_the_old_running_pair_does_not_reach_the_output(self, shape, affine):
        """With an update the output is the batch moments' alone: the
        running pair the update starts from moves no value or gradient."""
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        inputs = [rng.normal(1.5, 2.0, size=shape)]
        if affine:
            inputs += [rng.normal(1.0, 0.5, size=c), rng.normal(size=c)]
        old = (rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))

        def from_old(x, gamma=None, beta=None):
            if gamma is None:
                gamma, beta = Tensor(np.ones(c)), Tensor(np.zeros(c))
            return ad.batch_norm(x, gamma, beta, old, 1e-5, 0.1, False)[0]

        assert_same_bits(run_graph(from_old, inputs), run_graph(bn_node, inputs))

    @pytest.mark.parametrize("shape", [(6, 3), (4, 3, 5, 5), (5, 3, 4), (5, 3, 1, 1)])
    def test_running_update_is_new_arrays_of_numpy_moments(self, shape):
        """The update folds numpy's mean and unbiased variance into new
        arrays; the output is normalized by the batch's own moments."""
        x = np.random.default_rng(len(shape)).normal(2.0, 3.0, size=shape)
        axes = channel_axes(shape)
        count = x.size // shape[1]
        old = (np.full(3, 0.5), np.full(3, 2.0))
        out, (mean, var) = ad.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                                         old, 1e-5, 0.1, False)
        np.testing.assert_array_equal(old[0], np.full(3, 0.5))
        np.testing.assert_array_equal(old[1], np.full(3, 2.0))
        np.testing.assert_array_equal(mean, 0.9 * old[0] + 0.1 * x.mean(axis=axes))
        unbiased = x.var(axis=axes) * count / (count - 1)
        np.testing.assert_array_equal(var, 0.9 * old[1] + 0.1 * unbiased)
        c = (1, 3) + (1,) * (len(shape) - 2)
        expected = (x - x.mean(axis=axes).reshape(c)) / np.sqrt(x.var(axis=axes).reshape(c) + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)

    def test_no_update_returns_the_given_pair(self):
        running = (np.zeros(2), np.ones(2))
        _, after = ad.batch_norm(Tensor(np.ones((3, 2))), Tensor(np.ones(2)),
                                 Tensor(np.zeros(2)), running, 1e-5, None, False)
        assert after[0] is running[0] and after[1] is running[1]

    @pytest.mark.parametrize("momentum", [0.1, None], ids=["batch", "running"])
    def test_detached_output_has_no_creator_links(self, momentum):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        out, _ = ad.batch_norm(x, gamma, beta, (np.zeros(3), np.ones(3)), 1e-5, momentum, True)
        assert ad.grad_enabled()
        assert not out.requires_grad
        assert out._parents is None and out._vjp is None
        attached, _ = ad.batch_norm(x, gamma, beta, (np.zeros(3), np.ones(3)), 1e-5, momentum,
                                    False)
        np.testing.assert_array_equal(out.data, attached.data)
        assert all(a is b for a, b in zip(attached._parents, (x, gamma, beta)))

    @pytest.mark.parametrize("momentum", [0.1, None], ids=["batch", "running"])
    def test_overflowing_variance_raises(self, momentum):
        """The batch's variance overflows; the running one is infinite."""
        x = Tensor(np.array([[1e200, 2.0], [-1e200, 3.0]]))
        with pytest.raises(NumericError, match="non-finite variance"):
            ad.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                          (np.zeros(2), np.array([1.0, np.inf])), 1e-5, momentum, False)

    def test_an_update_needs_two_values_per_channel(self):
        with pytest.raises(DegenerateBatchError, match="needs >= 2 values per channel, got 1"):
            ad.batch_norm(Tensor(np.ones((1, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                          (np.zeros(2), np.ones(2)), 1e-5, 0.1, False)

    @pytest.mark.parametrize("shapes", [((4,), (3,), (3,)), ((4, 3), (2,), (3,)),
                                        ((4, 3), (3,), (3, 1)), ((4, 3, 2), (3,), (2,))])
    def test_shapes_checked(self, shapes):
        x_shape, gamma_shape, running_shape = shapes
        with pytest.raises(ShapeError, match="^batch_norm: "):
            ad.batch_norm(Tensor(np.ones(x_shape)), Tensor(np.ones(gamma_shape)),
                          Tensor(np.zeros(gamma_shape)),
                          (np.zeros(running_shape), np.ones(running_shape)), 1e-5, None,
                          False)


def weighted_sum(out):
    """A scalar whose gradient reaches every output entry unevenly, so that
    ops whose plain sum is constant (normalize) still get a real check."""
    weights = np.random.default_rng(out.data.size).normal(size=out.shape)
    return (out * Tensor(weights)).sum()


def _normalize_cases(rng):
    """``normalize``'s x, gamma and beta gradients with one group
    (LayerNorm) and two (GroupNorm), on features and on conv maps."""
    cases = []
    for shape, groups in (((5, 4), 1), ((3, 4, 3, 3), 1), ((5, 4), 2), ((3, 4, 2, 2), 2)):
        x = rng.normal(1.0, 2.0, size=shape)
        gamma, beta = rng.normal(1.0, 0.5, size=4), rng.normal(size=4)

        def norm(x_, g_, b_, groups=groups):
            return weighted_sum(ad.normalize(x_, groups, 1e-5, g_, b_))
        cases += [
            (lambda t, n=norm, g=gamma, b=beta: n(t, Tensor(g), Tensor(b)), x),
            (lambda t, n=norm, x=x, b=beta: n(Tensor(x), t, Tensor(b)), gamma),
            (lambda t, n=norm, x=x, g=gamma: n(Tensor(x), Tensor(g), t), beta),
        ]
    return cases


def _batch_norm_cases(rng):
    """``batch_norm``'s x, gamma and beta gradients on features and on conv
    maps: by the batch statistics with a running update (TRAIN) and by
    fixed running ones (EVAL)."""
    cases = []
    for shape in ((6, 4), (3, 4, 3, 3)):
        x = rng.normal(1.0, 2.0, size=shape)
        gamma, beta = rng.normal(1.0, 0.5, size=4), rng.normal(size=4)
        for stats in (None, fixed_stats(rng, shape, channel_axes(shape))):
            def norm(x_, g_, b_, stats=stats):
                return weighted_sum(bn_node(x_, g_, b_, stats))
            cases += [
                (lambda t, n=norm, g=gamma, b=beta: n(t, Tensor(g), Tensor(b)), x),
                (lambda t, n=norm, x=x, b=beta: n(Tensor(x), t, Tensor(b)), gamma),
                (lambda t, n=norm, x=x, g=gamma: n(Tensor(x), Tensor(g), t), beta),
            ]
    return cases


def _cnn32_conv2d_cases(rng):
    """The weight gradient of build_micro_cnn's three convolutions, at the
    model's stride 2 and padding 1 on a batch of 2."""
    cases = []
    for x_shape, w_shape in (((2, 3, 32, 32), (8, 3, 3, 3)),
                             ((2, 8, 16, 16), (16, 8, 3, 3)),
                             ((2, 16, 8, 8), (32, 16, 3, 3))):
        x, w, b = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])
        cases.append((lambda t, x=x, b=b: weighted_sum(ad.conv2d(Tensor(x), t, Tensor(b), 2, 1)),
                      w))
    return cases


def _oracle_cases():
    """Primitive name -> list of (scalar function of one tensor, point): each
    case checks ``backward`` against ``finite_difference_oracle`` for one
    input of the primitive."""
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    row = rng.normal(size=4)
    pos = np.abs(rng.normal(size=(3, 4))) + 0.5
    away = np.where(np.abs(a) < 0.1, 0.5, a)  # away from relu's kink
    x4 = rng.normal(size=(2, 2, 5, 5))
    w4, b4 = rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
    xl, wl, bl = rng.normal(size=(5, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
    labels = np.array([0, 3, 1])
    return {
        "add": [(lambda t: weighted_sum(t + Tensor(row)), a),
                (lambda t: weighted_sum(Tensor(a) + t), row)],
        "sub": [(lambda t: weighted_sum(t - Tensor(b)), a),
                (lambda t: weighted_sum(Tensor(a) - t), b)],
        "mul": [(lambda t: weighted_sum(t * Tensor(b)), a),
                (lambda t: weighted_sum(Tensor(a) * t), b)],
        "div": [(lambda t: weighted_sum(t / Tensor(pos)), a),
                (lambda t: weighted_sum(Tensor(a) / t), pos)],
        "scale": [(lambda t: weighted_sum(ad.scale(t, -2.5)), a)],
        "add_scalar": [(lambda t: weighted_sum(ad.add_scalar(t, 0.75)), a)],
        "relu": [(lambda t: weighted_sum(ad.relu(t)), away)],
        "sigmoid": [(lambda t: weighted_sum(ad.sigmoid(t)), a)],
        "log": [(lambda t: weighted_sum(ad.log(t)), pos)],
        "exp": [(lambda t: weighted_sum(ad.exp(t)), a)],
        "sqrt": [(lambda t: weighted_sum(ad.sqrt(t)), pos)],
        "log_sigmoid": [(lambda t: weighted_sum(ad.log_sigmoid(t)), a)],
        "tensor_sum": [(lambda t: weighted_sum(ad.tensor_sum(t, axis=0)), a)],
        "tensor_mean": [(lambda t: weighted_sum(ad.tensor_mean(t, axis=1, keepdims=True)), a)],
        "reshape": [(lambda t: weighted_sum(ad.reshape(t, (4, 3))), a)],
        "flatten": [(lambda t: weighted_sum(ad.flatten(t)), x4)],
        "concat": [(lambda t: weighted_sum(ad.concat([t, Tensor(b)], axis=1)), a),
                   (lambda t: weighted_sum(ad.concat([Tensor(a), t], axis=0)), b)],
        "normalize": _normalize_cases(rng),
        "batch_norm": _batch_norm_cases(rng),
        "matmul": [(lambda t: weighted_sum(ad.matmul(t, Tensor(wl))), xl),
                   (lambda t: weighted_sum(ad.matmul(Tensor(xl), t)), wl)],
        "linear": [(lambda t: weighted_sum(ad.linear(t, Tensor(wl), Tensor(bl))), xl),
                   (lambda t: weighted_sum(ad.linear(Tensor(xl), t, Tensor(bl))), wl),
                   (lambda t: weighted_sum(ad.linear(Tensor(xl), Tensor(wl), t)), bl)],
        "conv2d": [
            (lambda t: weighted_sum(ad.conv2d(t, Tensor(w4), Tensor(b4), 2, 1)), x4),
            (lambda t: weighted_sum(ad.conv2d(Tensor(x4), t, Tensor(b4), 2, 1)), w4),
            (lambda t: weighted_sum(ad.conv2d(Tensor(x4), Tensor(w4), t, 1, 0)), b4),
            *_cnn32_conv2d_cases(rng),
        ],
        "avg_pool2d": [(lambda t: weighted_sum(ad.avg_pool2d(t, 5)), x4)],
        "softmax_temperature": [(lambda t: weighted_sum(ad.softmax_temperature(t, 2.0)), a)],
        "log_softmax_temperature": [
            (lambda t: weighted_sum(ad.log_softmax_temperature(t, 0.5)), a)],
        "cross_entropy": [(lambda t: ad.cross_entropy(t, labels), a)],
        "soft_cross_entropy": [(lambda t: ad.soft_cross_entropy(t, Tensor(b), 2.0), a),
                               (lambda t: ad.soft_cross_entropy(t, Tensor(4.0 * b), 0.5), a)],
    }


ORACLE_CASES = _oracle_cases()
# Public functions of clta.autodiff that build no graph node; the same rule
# as the benchmark's primitive census.
NOT_PRIMITIVES = {"grad_enabled", "no_grad", "finite_difference_oracle"}


def autodiff_primitives():
    return sorted(
        name for name, obj in vars(ad).items()
        if inspect.isfunction(obj) and obj.__module__ == ad.__name__
        and not name.startswith("_") and name not in NOT_PRIMITIVES
    )


class TestOracleTable:
    def test_every_primitive_has_an_oracle_case(self):
        missing = [name for name in autodiff_primitives() if not ORACLE_CASES.get(name)]
        assert not missing, f"primitives without a finite_difference_oracle case: {missing}"
        assert set(ORACLE_CASES) <= set(autodiff_primitives())

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_gradient_matches_oracle(self, name):
        for i, (f, x) in enumerate(ORACLE_CASES[name]):
            t = Tensor(x, requires_grad=True)
            f(t).backward()
            numeric = finite_difference_oracle(lambda v: f(Tensor(v)), x)
            np.testing.assert_allclose(t.grad, numeric, rtol=1e-5, atol=1e-7,
                                       err_msg=f"{name} case {i}")


def run_graph(op, inputs):
    """Values of ``op`` and the gradients of its inputs under ``weighted_sum``."""
    tensors = [Tensor(v, requires_grad=True) for v in inputs]
    out = op(*tensors)
    weighted_sum(out).backward()
    return out.data, [t.grad for t in tensors]


def assert_same_bits(left, right):
    (lv, lg), (rv, rg) = left, right
    np.testing.assert_array_equal(lv, rv)
    assert len(lg) == len(rg)
    for a, b in zip(lg, rg):
        np.testing.assert_array_equal(a, b)


def assert_close(left, right):
    """Values and gradients equal up to rounding: the kernels and the
    reference formulas do the same arithmetic in a different order."""
    (lv, lg), (rv, rg) = left, right
    np.testing.assert_allclose(lv, rv, rtol=1e-12, atol=1e-12)
    assert len(lg) == len(rg)
    for a, b in zip(lg, rg):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def einsum_conv2d(x, w, b, stride, padding):
    """The einsum conv2d, forward and gradients written out in numpy; ``b``
    may be None."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2:4]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    wmat = w.reshape(f, -1)
    out = np.einsum("fk,nko->nfo", wmat, cols, optimize=True).reshape(n, f, oh, ow)
    if b is not None:
        out = out + b.reshape(1, f, 1, 1)
    g = np.random.default_rng(out.size).normal(size=out.shape)  # weighted_sum's weights
    gmat = g.reshape(n, f, oh * ow)
    dw = np.einsum("nfo,nko->fk", gmat, cols, optimize=True).reshape(w.shape)
    dcols = np.einsum("fk,nfo->nko", wmat, gmat, optimize=True).reshape(n, c, kh, kw, oh, ow)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += dcols[:, :, i, j]
    dx = dxp[:, :, padding:padding + h, padding:padding + wd]
    return out, [dx, dw] + ([] if b is None else [g.sum(axis=(0, 2, 3))])


def _reduce_to(a, shape):
    """``a`` summed over the axes where ``shape`` is 1 and ``a`` is not."""
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and a.shape[i] != 1)
    return a.sum(axis=axes, keepdims=True) if axes else a


def parent_normalize(x, axes, eps, stats, gamma, beta):
    """``normalize`` as the unfused chain computes it, forward and gradients
    written out in numpy: every full-size pass of the chain's VJPs in the
    order backward runs them.  Returns the values and the gradients of x,
    then of gamma and beta when they are given."""
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    if stats is None:
        mean = x.mean(axis=axes, keepdims=True)
        moment = x - mean
        var = (moment * moment).mean(axis=axes, keepdims=True)
    else:
        mean, var = stats
    centered = x - mean
    std = np.sqrt(var + eps)
    count = int(np.prod([x.shape[i] for i in axes]))
    values = centered / std
    g = np.random.default_rng(values.size).normal(size=values.shape)  # weighted_sum's weights
    affine = []
    if gamma is not None:
        xhat = values
        values = xhat * gamma.reshape(shape) + beta.reshape(shape)
        affine = [_reduce_to(g * xhat, shape).reshape(gamma.shape),
                  _reduce_to(g, shape).reshape(beta.shape)]
        g = g * gamma.reshape(shape)
    gx = g / std
    if stats is None:
        gstd = _reduce_to(-g * centered / (std * std), std.shape)
        gsq = np.broadcast_to(gstd * 0.5 / std, x.shape) / count
        gx = gx + gsq * centered
        gx = gx + gsq * centered
        gx = gx + np.broadcast_to(_reduce_to(-gx, mean.shape), x.shape) / count
    return values, [gx] + affine


class TestFusedOps:
    """Each fused op against the graph or formulas it replaced: ``linear``
    bit for bit, ``normalize``, ``batch_norm`` and ``conv2d``, which reorder
    the arithmetic, up to rounding (``normalize`` against its op chain is in
    ``TestNormalize``)."""

    rng = np.random.default_rng(23)

    def test_linear_equals_matmul_plus_add(self):
        inputs = [self.rng.normal(size=(7, 5)), self.rng.normal(size=(5, 3)),
                  self.rng.normal(size=3)]
        assert_same_bits(run_graph(ad.linear, inputs),
                         run_graph(lambda x, w, b: ad.matmul(x, w) + b, inputs))

    # BatchNorm on the maps of build_micro_cnn's three layers at cnn32's
    # batch of 64 and on mlp5's hidden features, by the batch statistics
    # with a running update ("moments") and by fixed ones (EVAL's running
    # statistics); LayerNorm on the same shapes.  Two
    # short final batches, of 48 and 24 rows, reduce a count that is not a
    # power of two.
    @pytest.mark.parametrize("affine", [False, True])
    @pytest.mark.parametrize("source", ["moments", "fixed", "layer"])
    @pytest.mark.parametrize("shape", [(64, 8, 16, 16), (64, 16, 8, 8), (64, 32, 4, 4),
                                       (32, 64), (48, 16, 8, 8), (24, 64)])
    def test_normalize_equals_the_parent_formulas(self, shape, source, affine):
        rng = np.random.default_rng(sum(shape))
        axes = tuple(range(1, len(shape))) if source == "layer" else \
            (0,) + tuple(range(2, len(shape)))
        stats = fixed_stats(rng, shape, axes) if source == "fixed" else None
        inputs = [rng.normal(1.5, 2.0, size=shape)]
        params = [rng.normal(1.0, 0.5, size=shape[1]), rng.normal(size=shape[1])]
        if affine:
            inputs += params

        def op(x, *affine_params):
            if source == "layer":  # without an affine: the identity, as constants
                gamma, beta = affine_params or (Tensor(np.ones(shape[1])),
                                                Tensor(np.zeros(shape[1])))
                return ad.normalize(x, 1, 1e-5, gamma, beta)
            return bn_node(x, *affine_params, stats=stats)

        expected = parent_normalize(inputs[0], axes, 1e-5, stats,
                                    *(params if affine else (None, None)))
        assert_close(run_graph(op, inputs), expected)

    # The three layers of build_micro_cnn on a 3x32x32 batch of 4, with the
    # model's stride 2 and padding 1 and without each.  Without padding the
    # input is two pixels wider, so the output maps stay the model's.
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("stride,padding", [(2, 1), (1, 1), (2, 0), (1, 0)])
    @pytest.mark.parametrize("x_shape,w_shape", [
        ((4, 3, 32, 32), (8, 3, 3, 3)),
        ((4, 8, 16, 16), (16, 8, 3, 3)),
        ((4, 16, 8, 8), (32, 16, 3, 3)),
    ])
    def test_conv2d_equals_the_einsum_formulas(self, x_shape, w_shape, stride, padding, bias):
        if not padding:
            x_shape = x_shape[:2] + (x_shape[2] + 2, x_shape[3] + 2)
        inputs = [self.rng.normal(size=x_shape), self.rng.normal(size=w_shape)]
        if bias:
            inputs.append(self.rng.normal(size=w_shape[0]))
        fused = run_graph(lambda x, w, b=None: ad.conv2d(x, w, b, stride, padding), inputs)
        assert_close(fused, einsum_conv2d(*inputs[:2], inputs[2] if bias else None,
                                          stride, padding))

    @pytest.mark.parametrize("op,shapes", [
        (lambda x, w, b: ad.conv2d(x, w, b, 2, 1), [(3, 2, 6, 6), (4, 2, 3, 3), (4,)]),
        (ad.linear, [(7, 5), (5, 3), (3,)]),
    ])
    def test_an_input_that_needs_no_gradient_gets_none(self, op, shapes):
        inputs = [self.rng.normal(size=s) for s in shapes]
        _, (_, dw, db) = run_graph(op, inputs)
        data = Tensor(inputs[0])
        w, b = (Tensor(v, requires_grad=True) for v in inputs[1:])
        out = op(data, w, b)
        pieces = out._vjp(np.ones_like(out.data))
        assert pieces[0] is None
        weighted_sum(out).backward()
        assert data.grad is None
        np.testing.assert_array_equal(w.grad, dw)
        np.testing.assert_array_equal(b.grad, db)


class TestGraphRules:
    def test_no_grad_blocks_graph_construction(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (t * t).sum()
        assert not out.requires_grad
        assert ad.grad_enabled()

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            (t * 2.0).backward()

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 3.0).sum().backward()
        assert t.grad is not None
        t.grad = None
        (t * 2.0).sum().backward()  # a dropped gradient is not added to
        np.testing.assert_array_equal(t.grad, [2.0, 2.0])

    def test_backward_writes_only_leaves_and_consumes_the_record(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = w * 3.0
        square = h * h
        both = square + h
        loss = both.sum()
        loss.backward()
        np.testing.assert_array_equal(w.grad, [21.0, 39.0])  # 18 w + 3
        for node in (h, square, both, loss):
            assert node.grad is None
            assert node._parents is None and node._vjp is None
        with pytest.raises(ContractError, match="detached"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, [21.0, 39.0])

    def test_leaves_fed_one_array_get_their_own_copies(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)

    def test_a_second_graph_adds_to_a_held_gradient(self):
        t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (t * 3.0).sum().backward()
        (t * t).sum().backward()
        np.testing.assert_array_equal(t.grad, [3.0 + 2.0, 3.0 - 4.0])


def _glibc_mallopt() -> bool:
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return True


# stand-ins for ctypes.CDLL: a C library without mallopt (macOS), or none
WITHOUT_MALLOPT = {"no_symbol": "lambda name: types.SimpleNamespace()",
                   "no_libc": "lambda name: (_ for _ in ()).throw(OSError(name))"}

TRAIN_WITHOUT_MALLOPT = """
import ctypes, types
ctypes.CDLL = {fake}
from clta.data import synthetic_stream
from clta.distill import KDConfig, TeacherStrategy
from clta.harness import TrainConfig, WarmupConfig, run_stream
from clta.layers import build_micro_mlp
stream = synthetic_stream(2, 2, 10, dim=4, seed=0)
train = TrainConfig(epochs=2, batch_size=8, lr_decay_epochs=())
result = run_stream(stream, build_micro_mlp(4), KDConfig(), TeacherStrategy(kind="adapt_stats"),
                    train, WarmupConfig(), seed=0)
assert result.accuracy_matrix.is_complete()
print("trained")
"""


class TestFreedMemory:
    """Importing clta raises glibc malloc's mmap and trim thresholds, so that
    freed arrays go back to the heap and not to the kernel."""

    @pytest.mark.skipif(not _glibc_mallopt(), reason="the C library is not glibc")
    def test_cnn_steps_after_the_first_fault_in_almost_no_pages(self):
        # cnn32's shapes: each step allocates and frees dozens of 0.3-3.5 MB
        # arrays, which glibc would unmap and the kernel zero-fill again
        # (thousands of faults a step)
        rng = np.random.default_rng(0)
        model = add_task_head(build_micro_cnn(3), 2, seed=1)
        teacher = snapshot_model(model)
        x, y = rng.random((64, 3, 32, 32)), rng.integers(0, 2, 64)

        def step():
            with no_grad():
                teacher.forward(Tensor(x), NormMode.ADAPT_STATS)
            loss = ad.cross_entropy(model.forward(Tensor(x), NormMode.TRAIN)[-1], y)
            for p in model.parameters():
                p.grad = None
            loss.backward()
            sgd_step(model.parameters(), 0.01)

        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            step()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 600

    @pytest.mark.parametrize("fake", WITHOUT_MALLOPT)
    def test_without_mallopt_clta_imports_and_trains(self, fake):
        code = TRAIN_WITHOUT_MALLOPT.format(fake=WITHOUT_MALLOPT[fake])
        src = os.path.dirname(os.path.dirname(ad.__file__))
        done = subprocess.run([sys.executable, "-c", code], env=os.environ | {"PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "trained\n"


class TestValidation:
    def test_bad_temperature_rejected(self):
        with pytest.raises(ParameterError):
            ad.softmax_temperature(Tensor(np.zeros((1, 3))), 0.0)
        with pytest.raises(ParameterError):
            ad.log_softmax_temperature(Tensor(np.zeros((1, 3))), -1.0)

    # NaN gave NaN rows; inf gave uniform rows, so a KD loss read log(C)
    # and passed no gradient to the student
    @pytest.mark.parametrize("temperature", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("op", [
        lambda x, temp: ad.softmax_temperature(x, temp),
        lambda x, temp: ad.log_softmax_temperature(x, temp),
        lambda x, temp: ad.soft_cross_entropy(x, Tensor(np.zeros((2, 3))), temp),
    ], ids=["softmax_temperature", "log_softmax_temperature", "soft_cross_entropy"])
    def test_non_finite_temperature_rejected(self, op, temperature):
        with pytest.raises(ParameterError, match="temperature must be finite and > 0"):
            op(Tensor(np.arange(6.0).reshape(2, 3)), temperature)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite_values(self, bad):
        with pytest.raises(NumericError):
            Tensor([0.5, bad])

    def test_checks_read_0d_and_empty_inputs(self):
        """The finiteness and label checks reduce every element: a 0-d
        input is one element and an empty one passes."""
        assert Tensor(np.array(2.5)).item() == 2.5
        assert Tensor(np.float64(-1.0)).item() == -1.0
        with pytest.raises(NumericError):
            Tensor(np.array(np.nan))
        assert Tensor(np.zeros((0, 3))).shape == (0, 3)
        with pytest.raises(NumericError):
            Tensor(np.array([[1.0, 2.0], [3.0, np.nan]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = Tensor(np.zeros((0, 3)))
            for loss in (ad.cross_entropy(empty, []), ad.soft_cross_entropy(empty, empty, 2.0)):
                assert loss.data.size == 1 and np.isnan(loss.data).all()
        nan_target = ad.scale(Tensor(np.zeros((1, 3))), 1.0)  # op outputs are unchecked
        nan_target.data[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite target probabilities"):
            ad.soft_cross_entropy(Tensor(np.zeros((1, 3))), nan_target, 2.0)

    def test_softmax_of_an_overflowing_logit_is_a_nan_row(self):
        """1e308 / 0.5 overflows to inf: its row comes back NaN, for the
        caller's check, with no floating-point warning; the others stay."""
        logits = np.array([[0.0, 1.0, 2.0], [1e308, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = ad.softmax_temperature(Tensor(logits), 0.5).data
            logp = ad.log_softmax_temperature(Tensor(logits), 0.5).data
        assert np.isnan(p[1]).all() and np.isnan(logp[1]).all()
        np.testing.assert_allclose(p[0], np.exp(logp[0]), rtol=1e-12)
        np.testing.assert_allclose(p[0].sum(), 1.0, rtol=1e-12)

    def test_op_outputs_are_not_checked(self):
        """Non-finite values propagate to the boundary checks; ``relu``
        passes a NaN on instead of turning it into 0."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            big = ad.exp(Tensor([1000.0, 0.0]))
            holes = ad.relu(ad.log(Tensor([-1.0, 2.0, 0.0])))
        assert big.data[0] == np.inf
        assert np.isnan(holes.data[0])
        np.testing.assert_array_equal(holes.data[1:], [np.log(2.0), 0.0])

    def test_cross_entropy_label_out_of_range(self):
        for labels in ([0, 3], [-1, 0]):
            with pytest.raises(DataError, match=r"\[0, 3\)"):
                ad.cross_entropy(Tensor(np.zeros((2, 3))), labels)

    # the int64 cast truncated 1.7 to 1 and raised a bare ValueError on NaN
    @pytest.mark.parametrize("bad", [1.7, np.nan, np.inf], ids=["1.7", "nan", "inf"])
    def test_cross_entropy_label_not_a_whole_number(self, bad):
        with pytest.raises(DataError, match=rf"label {bad} is not a class in \[0, 3\)"):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), [0.0, bad])

    @pytest.mark.parametrize("planted", ["input", "weight", "upstream"])
    def test_conv2d_passes_non_finite_values_on_without_a_warning(self, planted):
        """An inf beside a -inf in one window, or an inf that meets a padded
        zero, makes a NaN in the matmuls; the NaN reaches the output or the
        gradients with no floating-point warning (which tier-1 makes an
        error)."""
        rng = np.random.default_rng(7)
        arrays = {"input": rng.normal(size=(2, 2, 5, 5)),
                  "weight": rng.uniform(0.5, 1.5, size=(3, 2, 3, 3)),
                  "upstream": rng.normal(size=(2, 3, 5, 5))}
        arrays[planted].flat[:2] = [np.inf, -np.inf]
        x = Tensor(np.zeros((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(np.zeros((3, 2, 3, 3)), requires_grad=True)
        x.data[...], w.data[...] = arrays["input"], arrays["weight"]  # past the constructor's check
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = ad.conv2d(x, w, b, stride=1, padding=1)
        _, dw, _ = out._vjp(arrays["upstream"])
        assert np.isnan(dw if planted == "upstream" else out.data).any()

    @pytest.mark.parametrize("layer, shape", [(BatchNorm(1), (5, 1)), (GroupNorm(2, 2), (1, 2, 5)),
                                              (LayerNorm(5), (1, 5))],
                             ids=["batch", "group", "layer"])
    def test_an_overflowing_affine_gives_inf_without_a_warning(self, layer, shape):
        """Four zeros and a one normalize to about 2 at the one; times gamma
        = 1e308 that overflows in the affine, which runs under the op's
        ``np.errstate`` like its moments."""
        x = np.zeros(shape)
        x.flat[4] = 1.0
        layer.gamma.data = np.full(layer.num_features, 1e308)
        out = layer.forward(Tensor(x), NormMode.TRAIN)
        assert np.isinf(out.data).any()

    @pytest.mark.parametrize("x, bias", [(1e200, 0.0), (1e154, 1e308)], ids=["matmul", "bias"])
    def test_an_overflowing_linear_gives_inf_without_a_warning(self, x, bias):
        """``x @ w`` overflows, or a finite ``x @ w`` plus the bias does."""
        out = ad.linear(Tensor([[x]]), Tensor([[x]]), Tensor([bias]))
        np.testing.assert_array_equal(out.data, [[np.inf]])

    @pytest.mark.parametrize("op", [lambda t, c: t * Tensor([[c]]),
                                    lambda t, c: ad.linear(t, Tensor([[c]]), Tensor([0.0]))],
                             ids=["mul", "linear"])
    def test_an_overflowing_backward_gives_inf_without_a_warning(self, op):
        """1e-200 times 1e200, twice, is finite forward, but the gradient
        of the input is 1e200 * 1e200: it overflows in a VJP, which
        ``backward`` runs under ``np.errstate``."""
        x = Tensor([[1e-200]], requires_grad=True)
        op(op(x, 1e200), 1e200).sum().backward()
        np.testing.assert_array_equal(x.grad, [[np.inf]])

    def test_cross_entropy_count_mismatch(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), [0, 1, 2])

    def test_oracle_rejects_non_finite_probe(self):
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            finite_difference_oracle(lambda v: float(np.log(v).sum()), np.zeros(2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=2, max_size=8))
def test_softmax_probabilities_property(logits):
    p = ad.softmax_temperature(Tensor(np.array([logits])), 2.0).data[0]
    assert np.all(p >= 0.0)
    np.testing.assert_allclose(p.sum(), 1.0, rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-200.0, max_value=200.0))
def test_log_sigmoid_bounds_property(x):
    value = ad.log_sigmoid(Tensor(np.array([x]))).data[0]
    assert np.isfinite(value)
    assert value <= 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_cross_entropy_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=4.0, size=(3, 5))
    labels = rng.integers(0, 5, size=3)
    assert ad.cross_entropy(Tensor(logits), labels).item() >= 0.0


# ----------------------------------------------------------------------
# axis arguments
# ----------------------------------------------------------------------

AXIS_OPS = {
    "tensor_sum": lambda t, axis: ad.tensor_sum(t, axis=axis),
    "tensor_mean": lambda t, axis: ad.tensor_mean(t, axis=axis),
    "concat": lambda t, axis: ad.concat([t, t], axis=axis),
}


class TestAxisValidation:
    """An axis outside [-ndim, ndim) used to wrap around silently (axis 5 and
    axis -3 of a 2-D tensor both meant axis 1), a repeated axis escaped as a
    bare ValueError and a float one as a TypeError."""

    @pytest.mark.parametrize("axis", [2, 5, 7, -3, (4,), (0, 2)])
    @pytest.mark.parametrize("op", sorted(AXIS_OPS))
    def test_out_of_range_axis_raises(self, op, axis):
        if op == "concat" and isinstance(axis, tuple):
            axis = axis[-1]
        bad = axis if isinstance(axis, int) else axis[-1]
        with pytest.raises(ShapeError, match=rf"^{op}: axis {bad} is out of range "
                                             r"for a tensor of ndim 2$"):
            AXIS_OPS[op](Tensor(np.ones((3, 4))), axis)

    @pytest.mark.parametrize("axis", [(0, 0), (1, -1), [0, 1, 0]])
    @pytest.mark.parametrize("op", ["tensor_sum", "tensor_mean"])
    def test_repeated_axis_raises(self, op, axis):
        with pytest.raises(ShapeError, match=rf"^{op}: axis .* names an axis twice "
                                             r"\(tensor ndim 2\)$"):
            AXIS_OPS[op](Tensor(np.ones((3, 4))), axis)

    @pytest.mark.parametrize("axis", [1.0, "1", (0, 1.5)])
    @pytest.mark.parametrize("op", sorted(AXIS_OPS))
    def test_non_integer_axis_raises(self, op, axis):
        with pytest.raises(ShapeError, match=rf"^{op}: axis .* is not an integer "
                                             r"\(tensor ndim 2\)$"):
            AXIS_OPS[op](Tensor(np.ones((3, 4))), axis)

    def test_concat_of_vectors_takes_axis_0_only(self):
        v = Tensor([1.0, 2.0])
        np.testing.assert_array_equal(ad.concat([v, v], axis=-1).data, [1.0, 2.0, 1.0, 2.0])
        with pytest.raises(ShapeError, match="^concat: axis 1 is out of range .* ndim 1$"):
            ad.concat([v, v], axis=1)

    def test_concat_needs_one_axis(self):
        """``None`` means every axis to a reduction, but concat joins on one."""
        with pytest.raises(ShapeError, match="^concat: axis None is not an integer"):
            ad.concat([Tensor(np.ones((3, 4)))] * 2, axis=None)

    @pytest.mark.parametrize("axis", [-2, -1, 0, 1, np.int64(1), (-1,), [0]])
    def test_in_range_axes_still_work(self, axis):
        x = np.arange(12.0).reshape(3, 4)
        expected = x.sum(axis=axis if not isinstance(axis, list) else tuple(axis))
        np.testing.assert_array_equal(ad.tensor_sum(Tensor(x), axis=axis).data, expected)


# ----------------------------------------------------------------------
# the fused soft-target cross-entropy
# ----------------------------------------------------------------------


def kd_chain(student, teacher, temperature):
    """The unfused global KD: the reference the fused node must equal."""
    targets = Tensor(ad.softmax_temperature(teacher, temperature).data)
    logp = ad.log_softmax_temperature(student, temperature)
    return -ad.tensor_mean(ad.tensor_sum(targets * logp, axis=1))


def _kd_run(loss_fn, s, t, temperature, weight):
    student = Tensor(s, requires_grad=True)
    loss = ad.scale(loss_fn(student, Tensor(t), temperature), weight)
    loss.backward()
    return loss.data, student.grad


_logits = st.integers(1, 6).flatmap(lambda n: st.integers(1, 9).flatmap(
    lambda c: st.tuples(*[arrays(np.float64, (n, c),
                                 elements=st.floats(-60.0, 60.0, allow_subnormal=False))] * 2)))


class TestSoftCrossEntropy:
    @settings(max_examples=120, deadline=None)
    @given(pair=_logits, temperature=st.floats(0.05, 20.0),
           weight=st.sampled_from([0.0, 1.0, 10.0, 0.37]))
    def test_equals_the_unfused_chain_bit_for_bit(self, pair, temperature, weight):
        s, t = pair
        fused = _kd_run(ad.soft_cross_entropy, s, t, temperature, weight)
        chain = _kd_run(kd_chain, s, t, temperature, weight)
        np.testing.assert_array_equal(fused[0], chain[0])
        np.testing.assert_array_equal(fused[1], chain[1])

    def test_is_one_graph_node(self, monkeypatch):
        made = []
        original = ad._make

        def counting(values, parents, vjp):
            made.append(values)
            return original(values, parents, vjp)

        monkeypatch.setattr(ad, "_make", counting)
        student = Tensor(np.ones((2, 3)), requires_grad=True)
        ad.soft_cross_entropy(student, Tensor(np.zeros((2, 3))), 2.0).backward()
        assert len(made) == 1
        assert student.grad.shape == (2, 3)

    def test_targets_get_no_gradient(self):
        student = Tensor(np.ones((2, 3)), requires_grad=True)
        teacher = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.soft_cross_entropy(student, teacher, 2.0).backward()
        assert teacher.grad is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_raises(self, bad):
        teacher = ad.scale(Tensor(np.zeros((2, 3))), 1.0)  # op outputs are unchecked
        teacher.data[1, 2] = bad
        with pytest.raises(NumericError, match="soft_cross_entropy"):
            ad.soft_cross_entropy(Tensor(np.zeros((2, 3))), teacher, 2.0)

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 4)), ((6,), (6,)), ((1, 2, 3), (1, 2, 3))])
    def test_shapes_checked(self, shapes):
        with pytest.raises(ShapeError):
            ad.soft_cross_entropy(Tensor(np.zeros(shapes[0])), Tensor(np.zeros(shapes[1])), 1.0)
