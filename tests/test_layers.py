import numpy as np
import pytest

from clta import autodiff as ad
from clta.autodiff import Tensor
from clta.errors import DegenerateBatchError, NumericError, ParameterError, ShapeError
from clta.layers import (BatchNorm, Conv2d, Dense, GlobalAvgPool, GroupNorm,
                         Identity, IncrementalModel, LayerNorm, NormMode, ReLU,
                         add_task_head, build_micro_cnn, build_micro_mlp,
                         model_checksum, parameter_checksums, snapshot_model)


class TestDense:
    def test_forward_is_affine(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        layer.weight.data[:] = np.arange(6.0).reshape(3, 2)
        layer.bias.data[:] = [1.0, -1.0]
        out = layer.forward(Tensor([[1.0, 0.0, 2.0]]), NormMode.EVAL)
        np.testing.assert_allclose(out.data, [[0.0 + 8.0 + 1.0, 1.0 + 10.0 - 1.0]])

    def test_kaiming_bound(self):
        rng = np.random.default_rng(7)
        layer = Dense(100, 50, rng=rng)
        bound = np.sqrt(6.0 / 100)
        assert np.abs(layer.weight.data).max() <= bound
        assert layer.weight.data.std() > 0.1 * bound


class TestConv2d:
    def test_empty_sizes_rejected(self):
        for sizes in ((0, 4, 3), (1, 0, 3), (1, 4, 0)):
            with pytest.raises(ParameterError):
                Conv2d(*sizes, rng=np.random.default_rng(0))


class TestBatchNorm:
    def test_single_batch_running_stats_and_outputs(self):
        """A fresh layer fed the batch {1, 3} must land on exactly
        running mean 0.2, running var 1.1, outputs close to -1 and +1."""
        bn = BatchNorm(1)
        out = bn.forward(Tensor([[1.0], [3.0]]), NormMode.TRAIN)
        np.testing.assert_allclose(bn.running_mean, [0.2], atol=1e-12)
        np.testing.assert_allclose(bn.running_var, [1.1], atol=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)

    def test_two_updates_compose_as_ema(self):
        bn = BatchNorm(1)
        bn.forward(Tensor([[1.0], [3.0]]), NormMode.TRAIN)
        bn.forward(Tensor([[0.0], [4.0]]), NormMode.TRAIN)
        np.testing.assert_allclose(bn.running_mean, [0.9 * 0.2 + 0.1 * 2.0], atol=1e-12)
        np.testing.assert_allclose(bn.running_var, [0.9 * 1.1 + 0.1 * 8.0], atol=1e-12)

    def test_normalizes_with_biased_variance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(3.0, 2.0, size=(64, 5))
        bn = BatchNorm(5)
        out = bn.forward(Tensor(x), NormMode.TRAIN)
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(5), atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=0), np.ones(5), atol=1e-3)
        np.testing.assert_allclose(bn.running_var,
                                   0.9 + 0.1 * x.var(axis=0, ddof=1), atol=1e-12)

    def test_eval_uses_running_statistics(self):
        bn = BatchNorm(1)
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 4.0
        out = bn.forward(Tensor([[4.0]]), NormMode.EVAL)
        np.testing.assert_allclose(out.data, [[1.0]], atol=1e-4)
        np.testing.assert_allclose(bn.running_mean, [2.0])

    def test_eval_mode_never_updates(self):
        bn = BatchNorm(2)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        bn.forward(Tensor(np.random.default_rng(0).normal(size=(8, 2))), NormMode.EVAL)
        np.testing.assert_array_equal(bn.running_mean, before[0])
        np.testing.assert_array_equal(bn.running_var, before[1])

    def test_adapt_stats_updates_and_normalizes_by_the_batch(self):
        bn = BatchNorm(1)
        x = Tensor([[1.0], [3.0]])
        out = bn.forward(x, NormMode.ADAPT_STATS)
        np.testing.assert_allclose(bn.running_mean, [0.2], atol=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)
        assert not out.requires_grad

    def test_adapt_stats_detaches_its_output(self):
        """Outside ``no_grad`` too: the output has no creator links."""
        x = Tensor(np.random.default_rng(6).normal(size=(5, 3)), requires_grad=True)
        out = BatchNorm(3).forward(x, NormMode.ADAPT_STATS)
        assert not out.requires_grad
        assert out._parents is None and out._vjp is None

    @pytest.mark.parametrize("mode", list(NormMode), ids=lambda m: m.value)
    def test_a_failing_call_leaves_the_running_statistics(self, mode):
        bn = BatchNorm(2)
        bn.running_var = np.array([1.0, np.inf])  # EVAL's non-finite variance
        before = (bn.running_mean, bn.running_var.copy())
        x = np.array([[1e200, 1.0], [-1e200, 2.0], [1e200, 3.0]])
        with pytest.raises(NumericError, match="non-finite variance"):
            bn.forward(Tensor(x), mode)
        assert bn.running_mean is before[0]
        np.testing.assert_array_equal(bn.running_var, before[1])

    def test_degenerate_batch_rejected(self):
        bn = BatchNorm(3)
        for mode in (NormMode.TRAIN, NormMode.ADAPT_STATS):
            with pytest.raises(DegenerateBatchError):
                bn.forward(Tensor(np.ones((1, 3))), mode)
        bn.forward(Tensor(np.ones((1, 3))), NormMode.EVAL)

    @pytest.mark.parametrize("shape", [(6, 3), (4, 3, 5, 5), (5, 3, 4), (5, 3, 1, 1)])
    @pytest.mark.parametrize("mode", [NormMode.TRAIN, NormMode.ADAPT_STATS])
    def test_running_update_equals_numpy_mean_and_var(self, shape, mode):
        """The running statistics take the batch moments the op normalizes
        by; they equal numpy's ``mean`` and biased ``var`` bit for bit."""
        x = np.random.default_rng(len(shape)).normal(2.0, 3.0, size=shape)
        axes = (0,) + tuple(range(2, len(shape)))
        count = x.size // shape[1]
        bn = BatchNorm(3)
        bn.forward(Tensor(x), mode)
        np.testing.assert_array_equal(bn.running_mean, 0.9 * np.zeros(3) + 0.1 * x.mean(axis=axes))
        unbiased = x.var(axis=axes) * count / (count - 1)
        np.testing.assert_array_equal(bn.running_var, 0.9 * np.ones(3) + 0.1 * unbiased)

    def test_gamma_beta_gradients_flow_in_train_and_eval(self):
        rng = np.random.default_rng(5)
        for mode in (NormMode.TRAIN, NormMode.EVAL):
            bn = BatchNorm(4)
            out = bn.forward(Tensor(rng.normal(size=(6, 4))), mode)
            out.sum().backward()
            assert bn.gamma.grad is not None
            assert bn.beta.grad is not None

    def test_conv_input_normalizes_per_channel(self):
        rng = np.random.default_rng(9)
        x = rng.normal(1.5, 3.0, size=(8, 3, 4, 4))
        bn = BatchNorm(3)
        out = bn.forward(Tensor(x), NormMode.TRAIN)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(bn.running_mean, 0.1 * x.mean(axis=(0, 2, 3)),
                                   atol=1e-12)


class TestOtherNorms:
    def test_layernorm_normalizes_each_row(self):
        rng = np.random.default_rng(2)
        x = rng.normal(5.0, 2.0, size=(4, 8))
        ln = LayerNorm(8)
        out = ln.forward(Tensor(x), NormMode.EVAL)
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(4), atol=1e-10)

    def test_layernorm_mode_independent(self):
        x = np.random.default_rng(3).normal(size=(5, 6))
        ln = LayerNorm(6)
        a = ln.forward(Tensor(x), NormMode.TRAIN).data
        b = ln.forward(Tensor(x), NormMode.EVAL).data
        np.testing.assert_array_equal(a, b)

    def test_layernorm_handles_batch_of_one(self):
        out = LayerNorm(4).forward(Tensor([[1.0, 2.0, 3.0, 4.0]]), NormMode.TRAIN)
        np.testing.assert_allclose(out.data.mean(), 0.0, atol=1e-10)

    def test_negative_or_nan_eps_rejected_by_every_norm(self):
        for make in (lambda eps: BatchNorm(4, eps=eps), lambda eps: LayerNorm(4, eps=eps),
                     lambda eps: GroupNorm(4, 2, eps=eps)):
            for eps in (-1e-5, float("nan")):
                with pytest.raises(ParameterError):
                    make(eps)

    def test_zero_channels_rejected_by_every_norm(self):
        for make in (lambda: BatchNorm(0), lambda: LayerNorm(0), lambda: GroupNorm(0, 2)):
            with pytest.raises(ParameterError, match=">= 1 channel"):
                make()

    @pytest.mark.parametrize("make", [lambda: LayerNorm(4), lambda: GroupNorm(4, 2)])
    def test_empty_batch_gives_an_empty_output(self, make):
        x = Tensor(np.zeros((0, 4)), requires_grad=True)
        out = make().forward(x, NormMode.TRAIN)
        assert out.shape == (0, 4)
        out.sum().backward()
        assert x.grad.shape == (0, 4)

    @pytest.mark.parametrize("make", [lambda: LayerNorm(4), lambda: GroupNorm(4, 2)],
                             ids=["layer", "group"])
    @pytest.mark.parametrize("shape", [(3, 4), (3, 4, 2, 2)])
    def test_forward_is_one_normalize_node(self, monkeypatch, make, shape):
        made = []
        original = ad._make

        def counting(values, parents, vjp):
            made.append(parents)
            return original(values, parents, vjp)

        monkeypatch.setattr(ad, "_make", counting)
        layer = make()
        x = Tensor(np.random.default_rng(1).normal(size=shape), requires_grad=True)
        out = layer.forward(x, NormMode.TRAIN)
        assert len(made) == 1
        assert len(out._parents) == 3
        assert all(a is b for a, b in zip(out._parents, (x, layer.gamma, layer.beta)))

    def test_layernorm_is_groupnorm_with_one_group(self):
        """LayerNorm keeps its kind (and so its checksum keys) but has no
        forward of its own."""
        assert "forward" not in vars(LayerNorm)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4, 2, 2))
        ln, gn = LayerNorm(4), GroupNorm(4, 1)
        for layer in (ln, gn):
            layer.gamma.data = np.array([0.5, 1.0, 1.5, 2.0])
            layer.beta.data = np.array([0.0, -1.0, 1.0, 2.0])
        np.testing.assert_array_equal(ln.forward(Tensor(x), NormMode.TRAIN).data,
                                      gn.forward(Tensor(x), NormMode.TRAIN).data)
        assert ln.kind == "layernorm" and ln.groups == 1

    def test_groupnorm_divisibility(self):
        with pytest.raises(ParameterError):
            GroupNorm(6, groups=4)

    def test_groupnorm_group_means_vanish(self):
        x = np.random.default_rng(4).normal(size=(3, 8, 2, 2))
        gn = GroupNorm(8, groups=2)
        out = gn.forward(Tensor(x), NormMode.TRAIN).data
        grouped = out.reshape(3, 2, 4, 2, 2)
        np.testing.assert_allclose(grouped.mean(axis=(2, 3, 4)), np.zeros((3, 2)),
                                   atol=1e-10)

    def test_identity_is_a_passthrough(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = Identity().forward(x, NormMode.TRAIN)
        np.testing.assert_array_equal(out.data, x.data)


class TestIncrementalModel:
    def _model(self, seed=0):
        model = build_micro_mlp(6, norm="batch", seed=seed, hidden=16)
        add_task_head(model, 3, seed=1)
        add_task_head(model, 2, seed=2)
        return model

    def test_head_outputs_concatenate_in_task_order(self):
        model = self._model()
        x = Tensor(np.random.default_rng(0).uniform(size=(5, 6)))
        logits = model.forward(x, NormMode.EVAL)
        assert [l.shape[1] for l in logits] == [3, 2]
        assert model.total_classes() == 5

    @pytest.mark.parametrize("norm", ["batch", "group", "layer", "none"])
    def test_norm_parameters_are_each_norm_layers_gamma_and_beta_in_backbone_order(self, norm):
        """The teacher's norm-only step and its clipping sum take them in
        this order."""
        for model in (build_micro_mlp(6, norm=norm, seed=0, hidden=16),
                      build_micro_cnn(1, norm=norm, seed=0)):
            add_task_head(model, 2, seed=1)
            expected = [p for layer in model.backbone if hasattr(layer, "gamma")
                        for p in (layer.gamma, layer.beta)]
            assert bool(expected) == (norm != "none")
            got = model.norm_parameters()
            assert len(got) == len(expected) and all(a is b for a, b in zip(got, expected))

    def test_capture_features_returns_backbone_output(self):
        model = self._model()
        x = Tensor(np.random.default_rng(1).uniform(size=(4, 6)))
        feats = model.features(x, NormMode.EVAL)
        logits = model.forward(x, NormMode.EVAL)
        assert feats.shape == (4, 16)
        manual = feats.data @ model.heads[0].weight.data + model.heads[0].bias.data
        np.testing.assert_allclose(logits[0].data, manual, rtol=1e-12)

    def test_add_task_head_is_seed_deterministic(self):
        m1 = build_micro_mlp(4, seed=0)
        m2 = build_micro_mlp(4, seed=0)
        add_task_head(m1, 3, seed=(7, 1))
        add_task_head(m2, 3, seed=(7, 1))
        np.testing.assert_array_equal(m1.heads[0].weight.data, m2.heads[0].weight.data)

    def test_snapshot_is_independent(self):
        model = self._model()
        snap = snapshot_model(model)
        model.backbone[0].weight.data[:] += 1.0
        model.heads[0].bias.data[:] += 5.0
        bn = model.batchnorm_layers()[0]
        bn.running_mean[:] += 3.0
        assert model_checksum(snap) != model_checksum(model)
        assert np.all(snap.heads[0].bias.data == snap.heads[0].bias.data)
        assert not np.shares_memory(snap.backbone[0].weight.data,
                                    model.backbone[0].weight.data)

    def test_bad_backbone_output_shape(self):
        dense = Dense(4, 7, rng=np.random.default_rng(0))
        dense.weight.data[:] = 0.0
        model = IncrementalModel([dense], feature_dim=5)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.ones((2, 4))), NormMode.EVAL)


class TestChecksums:
    def test_checksum_tracks_any_parameter_change(self):
        model = build_micro_mlp(4, seed=0)
        before = model_checksum(model)
        model.backbone[0].bias.data[0] += 1e-12
        assert model_checksum(model) != before

    def test_parameter_checksums_name_every_array(self):
        model = build_micro_mlp(4, norm="batch", seed=1)
        add_task_head(model, 2, seed=2)
        sums = parameter_checksums(model)
        assert "backbone.0.dense.weight" in sums
        assert "backbone.1.batchnorm.running_mean" in sums
        assert "head.0.weight" in sums
        model.heads[0].weight.data[0, 0] += 1.0
        after = parameter_checksums(model)
        changed = [k for k in sums if sums[k] != after[k]]
        assert changed == ["head.0.weight"]

    def test_checksum_tracks_running_statistics(self):
        model = build_micro_mlp(4, norm="batch", seed=0)
        before = model_checksum(model)
        model.batchnorm_layers()[1].running_var[0] += 1e-12
        assert model_checksum(model) != before

    def test_equal_bytes_in_another_shape_change_the_checksum(self):
        model = add_task_head(build_micro_mlp(4, seed=0, hidden=6), 4, seed=1)
        reshaped = snapshot_model(model)
        reshaped.heads[0].weight.data = reshaped.heads[0].weight.data.reshape(4, 6)
        assert reshaped.heads[0].weight.data.tobytes() == model.heads[0].weight.data.tobytes()
        assert model_checksum(reshaped) != model_checksum(model)

    @pytest.mark.parametrize("build", [lambda: build_micro_mlp(5, norm="batch", seed=3),
                                       lambda: build_micro_cnn(1, norm="group", seed=5)])
    def test_a_snapshot_checksums_like_its_source(self, build):
        model = add_task_head(build(), 3, seed=9)
        for bn in model.batchnorm_layers():
            bn.running_mean[:] = np.pi
        assert model_checksum(snapshot_model(model)) == model_checksum(model)


class TestBuilders:
    def test_mlp_structure(self):
        model = build_micro_mlp(10, norm="batch", seed=0, hidden=32)
        kinds = [type(l) for l in model.backbone]
        assert kinds == [Dense, BatchNorm, ReLU, Dense, BatchNorm, ReLU]
        assert model.feature_dim == 32

    def test_mlp_norm_variants(self):
        for norm, cls in (("none", Identity), ("layer", LayerNorm), ("group", GroupNorm)):
            model = build_micro_mlp(6, norm=norm, seed=0)
            assert isinstance(model.backbone[1], cls)

    def test_mlp_is_seed_deterministic(self):
        a = build_micro_mlp(8, seed=123)
        b = build_micro_mlp(8, seed=123)
        assert model_checksum(a) == model_checksum(b)
        assert model_checksum(a) != model_checksum(build_micro_mlp(8, seed=124))

    def test_cnn_forward_shape(self):
        model = build_micro_cnn(1, norm="batch", seed=0)
        add_task_head(model, 4, seed=1)
        x = Tensor(np.random.default_rng(0).uniform(size=(3, 1, 8, 8)))
        logits = model.forward(x, NormMode.TRAIN)
        assert logits[0].shape == (3, 4)
        assert model.feature_dim == 32

    def test_cnn_contains_stride_two_convs(self):
        model = build_micro_cnn(3, seed=0)
        convs = [l for l in model.backbone if isinstance(l, Conv2d)]
        assert [c.weight.shape[0] for c in convs] == [8, 16, 32]
        assert all(c.stride == 2 for c in convs)
        assert isinstance(model.backbone[-1], GlobalAvgPool)

    def test_unknown_norm_rejected(self):
        with pytest.raises(ParameterError):
            build_micro_mlp(4, norm="spectral", seed=0)
