import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clta.autodiff import Tensor
from clta.errors import (CltaError, DegenerateBatchError, FormatError, ParameterError,
                         ShapeError, TruncatedFileError)
from clta.layers import (BatchNorm, Conv2d, Dense, GlobalAvgPool, GroupNorm,
                         Identity, IncrementalModel, LayerNorm, NormMode, ReLU,
                         add_task_head, build_micro_cnn, build_micro_mlp,
                         deserialize_model, model_checksum, parameter_checksums,
                         serialize_model, snapshot_model)


class TestDense:
    def test_forward_is_affine(self):
        layer = Dense(3, 2, init="zeros")
        layer.weight.data[:] = np.arange(6.0).reshape(3, 2)
        layer.bias.data[:] = [1.0, -1.0]
        out = layer.forward(Tensor([[1.0, 0.0, 2.0]]), NormMode.EVAL)
        np.testing.assert_allclose(out.data, [[0.0 + 8.0 + 1.0, 1.0 + 10.0 - 1.0]])

    def test_zeros_init(self):
        layer = Dense(4, 3, init="zeros")
        assert np.all(layer.weight.data == 0.0)
        assert np.all(layer.bias.data == 0.0)

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

    def test_adapt_stats_updates_but_normalizes_by_batch(self):
        bn = BatchNorm(1)
        x = Tensor([[1.0], [3.0]])
        out = bn.forward(x, NormMode.ADAPT_STATS)
        np.testing.assert_allclose(bn.running_mean, [0.2], atol=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)
        assert not out.requires_grad

    def test_adapt_modes_detach_their_output(self):
        rng = np.random.default_rng(6)
        for mode in (NormMode.ADAPT_STATS, NormMode.ADAPT_STATS_RUNNING):
            x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
            out = BatchNorm(3).forward(x, mode)
            assert not out.requires_grad, mode

    def test_adapt_stats_running_variant(self):
        bn = BatchNorm(1)
        out = bn.forward(Tensor([[1.0], [3.0]]), NormMode.ADAPT_STATS_RUNNING)
        expected = (np.array([1.0, 3.0]) - 0.2) / np.sqrt(1.1 + bn.eps)
        np.testing.assert_allclose(out.data[:, 0], expected, atol=1e-12)

    def test_degenerate_batch_rejected(self):
        bn = BatchNorm(3)
        for mode in (NormMode.TRAIN, NormMode.ADAPT_STATS):
            with pytest.raises(DegenerateBatchError):
                bn.forward(Tensor(np.ones((1, 3))), mode)
        bn.forward(Tensor(np.ones((1, 3))), NormMode.EVAL)

    @pytest.mark.parametrize("shape", [(6, 3), (4, 3, 5, 5)])
    @pytest.mark.parametrize("mode", [NormMode.TRAIN, NormMode.ADAPT_STATS,
                                      NormMode.ADAPT_STATS_RUNNING])
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

    def test_bad_momentum_rejected(self):
        with pytest.raises(ParameterError):
            BatchNorm(2, momentum=0.0)
        with pytest.raises(ParameterError):
            BatchNorm(2, momentum=1.5)


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
        out = Identity(3).forward(x, NormMode.TRAIN)
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
        model = IncrementalModel([Dense(4, 7, init="zeros")], feature_dim=5)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.ones((2, 4))), NormMode.EVAL)


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        model = build_micro_mlp(5, norm="batch", seed=3)
        add_task_head(model, 4, seed=9)
        model.batchnorm_layers()[0].running_mean[:] = np.pi
        blob = serialize_model(model)
        restored = deserialize_model(blob)
        assert serialize_model(restored) == blob
        np.testing.assert_array_equal(restored.batchnorm_layers()[0].running_mean,
                                      model.batchnorm_layers()[0].running_mean)
        np.testing.assert_array_equal(restored.heads[0].weight.data,
                                      model.heads[0].weight.data)

    def test_cnn_round_trip(self):
        model = build_micro_cnn(1, norm="group", seed=5)
        add_task_head(model, 2, seed=0)
        assert serialize_model(deserialize_model(serialize_model(model))) \
            == serialize_model(model)

    def test_checksum_tracks_any_parameter_change(self):
        model = build_micro_mlp(4, seed=0)
        before = model_checksum(model)
        model.backbone[0].bias.data[0] += 1e-12
        assert model_checksum(model) != before

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            deserialize_model(b"XXXX" + b"\x00" * 64)

    def test_truncated_blob(self):
        model = build_micro_mlp(4, seed=0)
        blob = serialize_model(model)
        with pytest.raises(TruncatedFileError):
            deserialize_model(blob[: len(blob) // 2])

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


def small_mlp():
    model = build_micro_mlp(2, norm="batch", seed=0, hidden=4)
    return add_task_head(model, 2, seed=1)


def small_cnn():
    model = build_micro_cnn(1, norm="group", seed=0, groups=2)
    return add_task_head(model, 2, seed=1)


def header_offsets(model):
    """Offsets of the snapshot bytes that are not array values: two copies
    whose every value byte differs serialize alike everywhere else."""
    blobs = []
    for byte in (b"\x11", b"\x22"):
        copy = snapshot_model(model)
        for layer in copy.backbone + copy.heads:
            for value in vars(layer).values():
                arr = value.data if isinstance(value, Tensor) else value
                if isinstance(arr, np.ndarray):
                    arr[...] = np.frombuffer(byte * 8, dtype="<f8")[0]
        blobs.append(np.frombuffer(serialize_model(copy), dtype=np.uint8))
    return np.flatnonzero(blobs[0] == blobs[1]).tolist()


SNAPSHOTS = [(serialize_model(m), header_offsets(m)) for m in (small_mlp(), small_cnn())]
FIRST_ARRAY = 16 + 1 + 8  # file header, dense tag, dense header


class TestCorruptSnapshots:
    def test_ndim_byte_out_of_range(self):
        blob = bytearray(SNAPSHOTS[0][0])
        blob[FIRST_ARRAY] = 70
        with pytest.raises(FormatError, match="70 dimensions"):
            deserialize_model(bytes(blob))

    def test_huge_layer_header_allocates_nothing(self):
        blob = bytearray(SNAPSHOTS[0][0])
        blob[FIRST_ARRAY - 8:FIRST_ARRAY] = struct.pack("<II", 60000, 60000)
        with pytest.raises(FormatError, match="weight"):
            deserialize_model(bytes(blob))

    def test_array_shape_must_match_the_header(self):
        model = small_mlp()
        model.backbone[1].gamma = Tensor(np.ones(5))
        with pytest.raises(FormatError, match="gamma"):
            deserialize_model(serialize_model(model))

    def test_every_cut_names_its_byte_offset(self):
        blob = SNAPSHOTS[0][0]
        for cut in range(len(blob)):
            with pytest.raises(TruncatedFileError, match="at byte"):
                deserialize_model(blob[:cut])

    def test_every_cut_of_a_cnn_names_its_byte_offset(self):
        # a cut inside an array's values fails in the read that a cut at its
        # first or second value byte fails in, so those stand for the rest
        blob, headers = SNAPSHOTS[1]
        for cut in sorted({h + k for h in headers for k in range(3)} - {len(blob)}):
            with pytest.raises(TruncatedFileError, match="at byte"):
                deserialize_model(blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), which=st.sampled_from([0, 1]),
           cut=st.none() | st.integers(min_value=0))
    def test_only_clta_errors_escape(self, data, which, cut):
        blob, headers = SNAPSHOTS[which]
        offset = st.sampled_from(headers) | st.integers(0, len(blob) - 1)
        edits = data.draw(st.lists(st.tuples(offset, st.integers(0, 255)), max_size=4))
        mutated = bytearray(blob)
        for pos, value in edits:
            mutated[pos] = value
        if cut is not None:
            mutated = mutated[:cut % (len(blob) + 1)]
        try:
            deserialize_model(bytes(mutated))
        except CltaError:
            pass


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
