import copy
import warnings

import numpy as np
import pytest

from clta import autodiff as ad
from clta.autodiff import Tensor
from clta.data import synthetic_stream
from clta.distill import KDConfig, TeacherStrategy
from clta.errors import ContractError, DataError, NumericError, ParameterError
from clta.harness import (TrainConfig, WarmupConfig, epoch_permutation,
                          iter_batches, lr_schedule, one_cycle_lr, run_stream,
                          sgd_step, train_task, warmup_head)
from clta.layers import (NormMode, add_task_head, build_micro_mlp, model_checksum,
                         parameter_checksums, snapshot_model)
from clta.optim import ce_epochs, ce_step, newest_task_parameters


class TestTrainConfig:
    def test_defaults_follow_the_desk_schedule(self):
        cfg = TrainConfig()
        assert cfg.epochs == 20
        assert cfg.lr_decay_epochs == (6, 12, 16)
        assert cfg.base_lr == 0.1

    def test_momentum_and_weight_decay_are_not_options(self):
        with pytest.raises(TypeError):
            TrainConfig(momentum=0.9)
        with pytest.raises(TypeError):
            TrainConfig(weight_decay=5e-4)

    def test_decay_epoch_ordering(self):
        with pytest.raises(ParameterError):
            TrainConfig(lr_decay_epochs=(12, 6), epochs=20)
        with pytest.raises(ParameterError):
            TrainConfig(lr_decay_epochs=(6, 25), epochs=20)

    @pytest.mark.parametrize("decays", [(-3, 2), (-1,), (20,), (6, 6)])
    def test_each_decay_epoch_lies_in_the_run_and_names_the_key(self, decays):
        with pytest.raises(ParameterError, match=r"^train\.decay_epochs: "):
            TrainConfig(lr_decay_epochs=decays, epochs=20)

    def test_decay_at_the_first_epoch_is_allowed(self):
        assert TrainConfig(lr_decay_epochs=(0, 5), epochs=20).lr_decay_epochs == (0, 5)

    def test_tiny_batches_rejected(self):
        with pytest.raises(ParameterError):
            TrainConfig(batch_size=1)


class TestLrSchedule:
    def test_full_scale_reference_points(self):
        """The 200-epoch schedule starts at 0.1 and divides by 10 at
        epochs 60, 120 and 160."""
        cfg = TrainConfig(epochs=200, base_lr=0.1, lr_decay_epochs=(60, 120, 160))
        np.testing.assert_allclose(lr_schedule(0, cfg), 0.1)
        np.testing.assert_allclose(lr_schedule(59, cfg), 0.1)
        np.testing.assert_allclose(lr_schedule(60, cfg), 0.01)
        np.testing.assert_allclose(lr_schedule(119, cfg), 0.01)
        np.testing.assert_allclose(lr_schedule(120, cfg), 0.001)
        np.testing.assert_allclose(lr_schedule(160, cfg), 0.0001)
        np.testing.assert_allclose(lr_schedule(199, cfg), 0.0001)

    def test_epoch_bounds(self):
        cfg = TrainConfig(epochs=10, lr_decay_epochs=(5,))
        with pytest.raises(ParameterError):
            lr_schedule(10, cfg)
        with pytest.raises(ParameterError):
            lr_schedule(-1, cfg)


class TestOneCycle:
    cfg = WarmupConfig(enabled=True, max_lr=0.2, ramp_epochs=40, max_epochs=200)

    def test_starts_at_a_twenty_fifth_of_the_peak(self):
        np.testing.assert_allclose(one_cycle_lr(0, self.cfg), 0.2 / 25.0, rtol=1e-12)

    def test_peak_is_exactly_max_lr(self):
        np.testing.assert_allclose(one_cycle_lr(40, self.cfg), 0.2, rtol=1e-12)

    def test_final_lr_is_negligible(self):
        end = one_cycle_lr(199, self.cfg)
        assert end < 1e-3 * self.cfg.max_lr
        np.testing.assert_allclose(end, 0.2 * 1e-4, rtol=1e-9)

    def test_rises_then_falls(self):
        values = [one_cycle_lr(e, self.cfg) for e in range(200)]
        assert all(b >= a - 1e-15 for a, b in zip(values[:41], values[1:41]))
        assert all(b <= a + 1e-15 for a, b in zip(values[40:], values[41:]))
        assert max(values) <= self.cfg.max_lr + 1e-15


class TestSgdStep:
    def test_plain_update(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        sgd_step([p], lr=0.1)
        np.testing.assert_allclose(p.data, [0.8])

    def test_global_norm_clipping(self):
        """Gradients (3, 4) have global norm 5; clip 1 scales them to
        (0.6, 0.8)."""
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        sgd_step([a, b], lr=0.1, grad_clip=1.0)
        np.testing.assert_allclose(a.data, [1.0 - 0.06], rtol=1e-12)
        np.testing.assert_allclose(b.data, [1.0 - 0.08], rtol=1e-12)

    def test_clip_above_norm_is_inert(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        sgd_step([p], lr=0.1, grad_clip=100.0)
        np.testing.assert_allclose(p.data, [0.8])

    def test_a_step_consumes_the_gradients_it_uses(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a.grad, b.grad = np.array([2.0]), np.array([1.0, -1.0])
        sgd_step([a, b], lr=0.1, grad_clip=1.0)
        assert a.grad is None and b.grad is None

    def test_a_parameter_left_out_of_the_next_loss_is_not_stepped_again(self):
        """The first step consumed ``unused``'s gradient; the second loss
        does not reach it, so the step raises instead of reusing it."""
        used = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        unused = Tensor(np.array([3.0]), requires_grad=True)
        ((used * unused).sum()).backward()
        sgd_step([used, unused], lr=0.1)
        (used * used).sum().backward()
        before = [used.data.copy(), unused.data.copy()]
        with pytest.raises(ContractError, match="no gradient"):
            sgd_step([used, unused], lr=0.1)
        np.testing.assert_array_equal(used.data, before[0])
        np.testing.assert_array_equal(unused.data, before[1])

    def test_a_step_that_raises_keeps_every_gradient(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([-1.7e308]), requires_grad=True)
        a.grad, b.grad = np.array([1.0]), np.array([1e150])
        with pytest.raises(NumericError):
            sgd_step([a, b], lr=1e158)
        np.testing.assert_array_equal(a.grad, [1.0])
        np.testing.assert_array_equal(b.grad, [1e150])

    def test_empty_and_gradient_free_params_rejected(self):
        with pytest.raises(ContractError):
            sgd_step([], lr=0.1)
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ContractError):
            sgd_step([p], lr=0.1)

    def test_clipping_survives_a_norm_that_overflows(self):
        """Squaring 1e160 overflows; the step must still be clipped to norm 1,
        not skipped by an infinite norm."""
        a = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        a.grad, b.grad = np.array([3e160, 0.0]), np.array([4e160])
        sgd_step([a, b], lr=0.1, grad_clip=1.0)
        np.testing.assert_allclose(a.data, [1.0 - 0.06, 1.0], rtol=1e-12)
        np.testing.assert_allclose(b.data, [1.0 - 0.08], rtol=1e-12)

    def test_finite_norm_keeps_its_bits(self):
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=(3, 2)) * 10.0, rng.normal(size=2)]
        params = [Tensor(np.ones_like(g), requires_grad=True) for g in grads]
        for p, g in zip(params, grads):
            p.grad = g
        sgd_step(params, lr=0.5, grad_clip=1.0)
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        for p, g in zip(params, grads):
            np.testing.assert_array_equal(p.data, 1.0 - 0.5 * (1.0 / total) * g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_names_the_parameter(self, bad):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a.grad, b.grad = np.array([1.0]), np.array([0.5, bad])
        with pytest.raises(NumericError, match="parameter 1"):
            sgd_step([a, b], lr=0.1, grad_clip=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_without_clipping_names_the_parameter(self, bad):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a.grad, b.grad = np.array([1.0]), np.array([0.5, bad])
        with pytest.raises(NumericError, match="parameter 1"):
            sgd_step([a, b], lr=0.1)
        np.testing.assert_array_equal(b.data, [1.0, 2.0])

    def test_overflowing_finite_gradient_without_clipping_steps_in_full(self):
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        p.grad = np.array([3e160, -1.0])
        sgd_step([p], lr=0.5)
        np.testing.assert_array_equal(p.data, [1.0 - 0.5 * 3e160, 1.5])

    @pytest.mark.parametrize("grad, lr", [(1e308, 10.0), (1e200, 1e200)])
    def test_update_that_overflows_names_the_parameter(self, grad, lr):
        """The first case overflows the sum of squares, the second only the
        step; neither may write an infinite parameter."""
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a.grad, b.grad = np.array([0.0]), np.array([grad, 0.0])
        with pytest.raises(NumericError, match="parameter 1"):
            sgd_step([a, b], lr=lr)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(b.data, [1.0, 2.0])

    def test_finite_step_that_carries_a_parameter_past_the_maximum_names_it(self):
        """The step's bound lr * norm is 1e308, finite, but the parameter
        near -1.7e308 overflows to -inf once the step is subtracted."""
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([-1.7e308]), requires_grad=True)
        a.grad, b.grad = np.array([1.0]), np.array([1e150])
        with pytest.raises(NumericError, match="parameter 1"):
            sgd_step([a, b], lr=1e158)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(b.data, [-1.7e308])

    def test_update_with_an_infinite_bound_but_finite_values_is_written(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1e300])
        sgd_step([p], lr=1e8)
        np.testing.assert_array_equal(p.data, [1.0 - 1e8 * 1e300])


class TestCeStep:
    def test_steps_the_newest_head_without_running_the_others(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(6, 5)), np.array([0, 1, 2, 0, 1, 2])
        models = [build_micro_mlp(5, seed=3) for _ in range(2)]
        for model in models:
            for t, classes in enumerate((2, 4, 3)):
                add_task_head(model, classes, seed=t)
        stepped, reference = models

        def must_not_run(*args):
            raise AssertionError("an old head ran")

        for head in stepped.heads[:-1]:
            head.forward = must_not_run
        loss, kd = ce_step(stepped, newest_task_parameters(stepped), x, y, 0.1, None, 2, 0, "CE")

        logits = reference.forward(Tensor(x), NormMode.TRAIN)
        expected = ad.cross_entropy(logits[-1], y)
        expected.backward()
        sgd_step(newest_task_parameters(reference), 0.1)
        assert (loss, kd) == (expected.item(), 0.0)
        assert parameter_checksums(stepped) == parameter_checksums(reference)


    @pytest.mark.parametrize("kind, lr", [("continuous_norm", 0.1), ("continuous_full", 0.1),
                                          ("continuous_full", 0.0)])
    def test_no_teacher_parameter_keeps_a_gradient(self, kind, lr):
        """Under ``continuous_norm`` the backbone's dense weights and the
        newest head get a gradient that no step consumes, and under
        ``lr = 0`` none is consumed; ``ce_step`` drops them all."""
        rng = np.random.default_rng(8)
        teacher = build_micro_mlp(5, seed=3)
        for t, classes in enumerate((2, 3)):
            add_task_head(teacher, classes, seed=t)
        params = TeacherStrategy(kind=kind).trained_parameters(teacher)
        ce_step(teacher, params, rng.normal(size=(6, 5)), np.array([0, 1, 2, 0, 1, 2]), lr, None,
                2, 0, "teacher CE")
        assert all(p.grad is None for p in teacher.parameters())

    @pytest.fixture
    def made(self, monkeypatch):
        """Every tensor an op makes while the test runs."""
        outputs = []
        original = ad._make

        def recording(values, parents, vjp):
            outputs.append(original(values, parents, vjp))
            return outputs[-1]

        monkeypatch.setattr(ad, "_make", recording)
        return outputs

    def test_a_norm_only_step_differentiates_and_moves_only_the_norm_parameters(self, made):
        """Under ``continuous_norm`` the backbone's dense weights and the
        newest head take no part in the graph: no parameter is left holding
        a gradient, only the BatchNorm gammas, betas and running statistics
        move, and every parameter's ``requires_grad`` is back."""
        rng = np.random.default_rng(8)
        teacher = build_micro_mlp(5, seed=3)
        for t, classes in enumerate((2, 3)):
            add_task_head(teacher, classes, seed=t)
        before = parameter_checksums(teacher)
        ce_step(teacher, TeacherStrategy(kind="continuous_norm").trained_parameters(teacher),
                rng.normal(size=(6, 5)), np.array([0, 1, 2, 0, 1, 2]), 0.1, None,
                2, 0, "teacher CE")
        after = parameter_checksums(teacher)
        moved = {key for key in before if before[key] != after[key]}
        assert moved == {f"backbone.{i}.batchnorm.{name}" for i in (1, 4)
                         for name in ("gamma", "beta", "running_mean", "running_var")}
        assert all(p.grad is None and p.requires_grad for p in teacher.parameters())
        # the first dense output and the dense weights are outside the graph
        assert not made[0].requires_grad

    @pytest.mark.parametrize("params", ["none", "norm"])
    def test_a_step_that_moves_nothing_builds_no_graph(self, params, made):
        rng = np.random.default_rng(8)
        teacher = build_micro_mlp(5, seed=3)
        add_task_head(teacher, 3, seed=0)
        before = parameter_checksums(teacher)
        scope = [] if params == "none" else teacher.norm_parameters()
        lr = 0.1 if params == "none" else 0.0
        ce_step(teacher, scope, rng.normal(size=(6, 5)), np.array([0, 1, 2, 0, 1, 2]), lr, None,
                2, 0, "teacher CE")
        assert made and not any(out.requires_grad for out in made)
        after = parameter_checksums(teacher)
        assert {key for key in before if before[key] != after[key]} == {
            f"backbone.{i}.batchnorm.{name}" for i in (1, 4)
            for name in ("running_mean", "running_var")}
        assert all(p.grad is None and p.requires_grad for p in teacher.parameters())

    def test_a_non_finite_gradient_names_the_task_epoch_and_term(self, monkeypatch):
        """A NaN left in a stepped gradient fails the update, which names
        where it happened; no parameter moves and every flag is back."""
        model = build_micro_mlp(5, seed=3)
        add_task_head(model, 3, seed=0)
        params = newest_task_parameters(model)
        backward = Tensor.backward

        def planting(self, *args, **kwargs):
            backward(self, *args, **kwargs)
            params[0].grad.flat[0] = np.nan

        monkeypatch.setattr(Tensor, "backward", planting)
        before = [p.data.copy() for p in model.parameters()]
        rng = np.random.default_rng(8)
        with pytest.raises(NumericError, match="^task 2, epoch 0: teacher CE: sgd_step: "
                                               "parameter 0 has a non-finite gradient$"):
            ce_step(model, params, rng.normal(size=(6, 5)), np.array([0, 1, 2, 0, 1, 2]),
                    0.1, None, 2, 0, "teacher CE")
        for p, old in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, old)
        assert all(p.requires_grad for p in model.parameters())

    def test_non_finite_loss_raises_before_a_parameter_moves(self):
        model = build_micro_mlp(5, seed=3)
        add_task_head(model, 3, seed=0)
        model.heads[-1].weight.data[0, 0] = np.nan
        before = [p.data.copy() for p in model.parameters()]
        rng = np.random.default_rng(8)
        with pytest.raises(NumericError, match="^task 3, epoch 1: non-finite teacher CE loss nan$"):
            ce_step(model, newest_task_parameters(model), rng.normal(size=(6, 5)),
                    np.array([0, 1, 2, 0, 1, 2]), 0.1, None, 3, 1, "teacher CE")
        for p, old in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, old)
        # the parameters held out of the graph have their flag back
        assert all(p.requires_grad for p in model.parameters())


class TestCeEpochs:
    def test_runs_an_epoch_only_when_asked_and_numbers_the_epochs(self):
        """Nothing moves until the first mean is asked for, each mean is that
        of an epoch of ``ce_step`` calls, and a NaN names its epoch."""
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(12, 5)), np.tile([0, 1, 2], 4)
        model, reference = (add_task_head(build_micro_mlp(5, seed=3), 3, seed=0)
                            for _ in range(2))
        orders = [np.arange(12), np.arange(12)[::-1], np.arange(12)]
        epochs = ce_epochs(model, newest_task_parameters(model), x, y,
                           ((0.1, order) for order in orders), 4, None, 4, "auxiliary CE")
        assert model_checksum(model) == model_checksum(reference)
        losses = [ce_step(reference, newest_task_parameters(reference), x[idx], y[idx], 0.1,
                          None, 4, 0, "auxiliary CE")[0] for idx in np.split(orders[0], 3)]
        assert next(epochs) == (float(np.mean(losses)), 0.0)
        assert model_checksum(model) == model_checksum(reference)
        next(epochs)
        model.heads[-1].bias.data[0] = np.nan
        with pytest.raises(NumericError, match="^task 4, epoch 2: non-finite auxiliary CE loss nan$"):
            next(epochs)


class TestBatching:
    def test_epoch_permutation_is_a_permutation(self):
        order = epoch_permutation(0, 1, 0, 50)
        np.testing.assert_array_equal(np.sort(order), np.arange(50))

    def test_permutation_varies_with_every_coordinate(self):
        base = epoch_permutation(0, 1, 0, 50)
        for other in (epoch_permutation(1, 1, 0, 50),
                      epoch_permutation(0, 2, 0, 50),
                      epoch_permutation(0, 1, 1, 50),
                      epoch_permutation(0, 1, 0, 50, stage=1)):
            assert not np.array_equal(base, other)

    def test_permutation_is_reproducible(self):
        np.testing.assert_array_equal(epoch_permutation(3, 2, 7, 30),
                                      epoch_permutation(3, 2, 7, 30))

    def test_iter_batches_respects_the_order(self):
        order = np.array([4, 0, 3, 1, 2, 5])
        batches = list(iter_batches(6, 2, order))
        np.testing.assert_array_equal(np.concatenate(batches), order)
        assert all(len(b) == 2 for b in batches)

    def test_trailing_singleton_is_dropped(self):
        batches = list(iter_batches(5, 2, np.arange(5)))
        assert [len(b) for b in batches] == [2, 2]

    def test_short_final_batch_of_two_survives(self):
        batches = list(iter_batches(6, 4, np.arange(6)))
        assert [len(b) for b in batches] == [4, 2]

    @pytest.mark.parametrize("batch_size", [1, 0, -3])
    def test_batch_size_below_two_raises_at_the_call(self, batch_size):
        with pytest.raises(ParameterError, match=f"batch_size: must be >= 2, got {batch_size}"):
            iter_batches(6, batch_size, np.arange(6))


def two_class_task(rng, n=40, dim=8, spread=0.06):
    x = np.concatenate([rng.normal(0.3, spread, size=(n // 2, dim)),
                        rng.normal(0.7, spread, size=(n // 2, dim))])
    y = np.concatenate([np.zeros(n // 2, dtype=np.int64),
                        np.ones(n // 2, dtype=np.int64)])
    return np.clip(x, 0.0, 1.0), y


class TestWarmupHead:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        model = build_micro_mlp(8, norm="batch", seed=seed)
        add_task_head(model, 2, seed=(seed, 1))
        x, y = two_class_task(rng)
        return model, x, y

    def test_only_the_newest_head_moves(self):
        model, x, y = self._setup()
        add_task_head(model, 2, seed=(0, 2))
        before = parameter_checksums(model)
        warmup_head(model, x, y % 2, WarmupConfig(enabled=True, max_epochs=10,
                                                  ramp_epochs=3),
                    batch_size=16, seed=0, task_index=2)
        after = parameter_checksums(model)
        changed = sorted(k for k in before if before[k] != after[k])
        assert changed == ["head.1.bias", "head.1.weight"]

    def test_loss_history_improves(self):
        model, x, y = self._setup(1)
        history = warmup_head(model, x, y, WarmupConfig(enabled=True, max_epochs=40,
                                                        ramp_epochs=10),
                              batch_size=16, seed=0, task_index=1)
        assert history[-1] < history[0]
        assert len(history) <= 40

    def test_early_stop_honours_patience(self):
        model, x, y = self._setup(2)
        rng = np.random.default_rng(0)
        noise_labels = rng.integers(0, 2, size=len(y))
        history = warmup_head(model, x, noise_labels,
                              WarmupConfig(enabled=True, max_lr=1e-6, max_epochs=300,
                                           ramp_epochs=5, early_stop_patience=3),
                              batch_size=16, seed=0, task_index=1)
        assert len(history) < 300


    def test_one_row_rejected(self):
        """A lone row makes no batch: without the check the history is
        the mean of no losses, NaN."""
        model, x, y = self._setup(4)
        with pytest.raises(DataError, match="task 2: warmup CE needs at least 2 samples, got 1"):
            warmup_head(model, x[:1], y[:1], WarmupConfig(enabled=True, max_epochs=3,
                                                          ramp_epochs=1),
                        batch_size=16, seed=0, task_index=2)

    def test_batch_size_one_rejected(self):
        """Batches of one are all dropped: without the check no step runs
        and the history is the mean of no losses, NaN."""
        model, x, y = self._setup(5)
        before = parameter_checksums(model)
        with pytest.raises(ParameterError, match="batch_size: must be >= 2, got 1"):
            warmup_head(model, x, y, WarmupConfig(enabled=True, max_epochs=3, ramp_epochs=1),
                        batch_size=1, seed=0, task_index=1)
        assert parameter_checksums(model) == before

    def test_non_finite_loss_names_task_epoch_and_term(self):
        model, x, y = self._setup(3)
        model.heads[-1].weight.data[0, 0] = np.nan
        with pytest.raises(NumericError, match="task 4, epoch 0: non-finite warmup CE"):
            warmup_head(model, x, y, WarmupConfig(enabled=True, max_epochs=10, ramp_epochs=3),
                        batch_size=16, seed=0, task_index=4)


def desk_config(**overrides):
    base = dict(epochs=4, batch_size=16, lr_decay_epochs=(2, 3))
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainTask:
    def _fresh(self, seed=0, dim=8):
        model = build_micro_mlp(dim, norm="batch", seed=seed)
        add_task_head(model, 2, seed=(seed, 1))
        return model

    def test_first_task_reduces_cross_entropy(self):
        rng = np.random.default_rng(0)
        model = self._fresh()
        x, y = two_class_task(rng)
        trace = train_task(model, None, 1, x, y, KDConfig(), TeacherStrategy(),
                           desk_config(), WarmupConfig(), seed=0)
        assert trace.ce[-1] < trace.ce[0]
        assert trace.kd == [0.0] * 4
        assert trace.bn_kld == [0.0] * 4

    def test_the_first_task_is_a_plain_ce_run(self):
        """On task 1 the student is trained as ``ce_epochs`` trains any
        network, under the stage-0 shuffle: the CE trace and the parameters
        match bit for bit."""
        x, y = two_class_task(np.random.default_rng(3))
        model = self._fresh(3)
        direct = copy.deepcopy(model)
        train = desk_config(grad_clip=1.0)
        schedule = ((lr_schedule(e, train), epoch_permutation(7, 1, e, len(x), stage=0))
                    for e in range(train.epochs))
        ce = [mean_ce for mean_ce, _ in ce_epochs(direct, direct.parameters(), x, y, schedule,
                                                  train.batch_size, train.grad_clip, 1, "CE")]
        trace = train_task(model, None, 1, x, y, KDConfig(), TeacherStrategy(), train,
                           WarmupConfig(), seed=7)
        assert trace.ce == ce
        assert model_checksum(model) == model_checksum(direct)

    def test_non_finite_losses_name_task_epoch_and_term(self):
        rng = np.random.default_rng(5)
        x, y = two_class_task(rng)
        model = self._fresh(5)
        model.heads[-1].weight.data[0, 0] = np.nan
        with pytest.raises(NumericError, match="task 1, epoch 0: non-finite CE"):
            train_task(model, None, 1, x, y, KDConfig(), TeacherStrategy(),
                       desk_config(), WarmupConfig(), seed=0)
        # a NaN in an old student head reaches the KD term but not the CE
        model = self._fresh(5)
        teacher = snapshot_model(model)
        add_task_head(model, 2, seed=(5, 2))
        model.heads[0].weight.data[0, 0] = np.nan
        with pytest.raises(NumericError, match="task 2, epoch 0: non-finite KD"):
            train_task(model, teacher, 2, x, y, KDConfig(), TeacherStrategy(),
                       desk_config(), WarmupConfig(), seed=0)

    # a +inf logit, or a row of all -inf, in the CE term (the newest head) or
    # in an old head's logits, which global and taskwise KD take (both
    # through ``soft_cross_entropy``)
    @pytest.mark.parametrize("bias", [np.inf, -np.inf], ids=["inf", "all_neg_inf"])
    @pytest.mark.parametrize("term, variant", [("CE", "global"), ("KD", "global"),
                                               ("KD", "taskwise")])
    def test_non_finite_student_logits_name_task_epoch_and_term(self, term, variant, bias):
        rng = np.random.default_rng(5)
        x, y = two_class_task(rng)
        model = self._fresh(5)
        teacher = snapshot_model(model)
        add_task_head(model, 2, seed=(5, 2))
        head = model.heads[-1 if term == "CE" else 0]
        if bias > 0:
            head.bias.data[1] = bias
        else:
            head.bias.data[:] = bias
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"^task 2, epoch 0: non-finite {term} loss"):
                train_task(model, teacher, 2, x, y, KDConfig(variant=variant),
                           TeacherStrategy(), desk_config(), WarmupConfig(), seed=0)

    def test_teacher_presence_contract(self):
        rng = np.random.default_rng(1)
        model = self._fresh(1)
        x, y = two_class_task(rng)
        with pytest.raises(ContractError):
            train_task(model, snapshot_model(model), 1, x, y, KDConfig(),
                       TeacherStrategy(), desk_config(), WarmupConfig(), seed=0)
        add_task_head(model, 2, seed=(1, 2))
        with pytest.raises(ContractError):
            train_task(model, None, 2, x, y, KDConfig(), TeacherStrategy(),
                       desk_config(), WarmupConfig(), seed=0)

    def test_empty_task_rejected(self):
        model = self._fresh(2)
        with pytest.raises(DataError):
            train_task(model, None, 1, np.zeros((0, 8)), np.zeros(0, dtype=np.int64),
                       KDConfig(), TeacherStrategy(), desk_config(), WarmupConfig(),
                       seed=0)

    def test_one_sample_task_rejected(self):
        """A lone sample makes no batch: without the check no step runs and
        the trace records NaN means."""
        model = self._fresh(2)
        with pytest.raises(DataError, match="task 1 needs at least 2 training samples, got 1"):
            train_task(model, None, 1, np.zeros((1, 8)), np.zeros(1, dtype=np.int64),
                       KDConfig(), TeacherStrategy(), desk_config(), WarmupConfig(),
                       seed=0)

    def test_one_sample_task_under_auxiliary_kd_rejected_by_train_task(self):
        """``train_task`` checks the task's size before it builds the
        auxiliary network, so a lone sample under auxiliary KD gets the same
        message as under any other variant."""
        stream = synthetic_stream(2, 2, 10, dim=4, shift=0.1, seed=0)
        train = stream.tasks[1].train
        train.inputs, train.labels = train.inputs[:1], train.labels[:1]
        with pytest.raises(DataError, match="^task 2 needs at least 2 training samples, got 1$"):
            run_stream(stream, build_micro_mlp(4, hidden=8, seed=0), KDConfig(variant="auxiliary"),
                       TeacherStrategy(), desk_config(), WarmupConfig(), seed=0)

    def test_auxiliary_kd_trains_a_copy_of_the_teacher(self):
        """``train_task`` builds the auxiliary network from the teacher and
        trains it on the task alone: a frozen teacher comes out bit-identical,
        and the KD term is live in every epoch."""
        rng = np.random.default_rng(3)
        model = self._fresh(3)
        teacher = snapshot_model(model)
        before = model_checksum(teacher)
        add_task_head(model, 2, seed=(3, 2))
        x, y = two_class_task(rng)
        trace = train_task(model, teacher, 2, x, y, KDConfig(variant="auxiliary"),
                           TeacherStrategy(), desk_config(), WarmupConfig(), seed=0)
        assert model_checksum(teacher) == before
        assert all(value > 0.0 for value in trace.kd)

    def test_zero_weight_matches_a_plain_ce_loop(self):
        """With KD weight 0 the training trajectory must be bit-identical
        to hand-rolled cross-entropy SGD over the same permutations."""
        rng = np.random.default_rng(4)
        x, y = two_class_task(rng)
        cfg = desk_config()

        trained = self._fresh(4)
        train_task(trained, None, 1, x, y, KDConfig(weight=0.0), TeacherStrategy(),
                   cfg, WarmupConfig(), seed=9)

        manual = self._fresh(4)
        for epoch in range(cfg.epochs):
            lr = lr_schedule(epoch, cfg)
            order = epoch_permutation(9, 1, epoch, len(x), stage=0)
            for idx in iter_batches(len(x), cfg.batch_size, order):
                logits = manual.forward(Tensor(x[idx]), NormMode.TRAIN)
                loss = ad.cross_entropy(logits[-1], y[idx])
                loss.backward()
                sgd_step(manual.parameters(), lr, cfg.grad_clip)
        assert model_checksum(trained) == model_checksum(manual)

    def test_zero_weight_makes_the_teacher_irrelevant(self):
        rng = np.random.default_rng(5)
        x1, y1 = two_class_task(rng)
        results = []
        for teacher_seed in (100, 200):
            model = self._fresh(5)
            train_task(model, None, 1, x1, y1, KDConfig(), TeacherStrategy(),
                       desk_config(), WarmupConfig(), seed=0)
            teacher = build_micro_mlp(8, norm="batch", seed=teacher_seed)
            add_task_head(teacher, 2, seed=(teacher_seed, 1))
            add_task_head(model, 2, seed=(5, 2))
            x2, y2 = two_class_task(np.random.default_rng(6))
            train_task(model, teacher, 2, np.clip(x2 + 0.1, 0, 1), y2,
                       KDConfig(weight=0.0), TeacherStrategy(),
                       desk_config(), WarmupConfig(), seed=0)
            results.append(model_checksum(model))
        assert results[0] == results[1]

    def test_huge_weight_anchors_old_task_predictions(self):
        rng = np.random.default_rng(7)
        x1, y1 = two_class_task(rng)
        x2, y2 = two_class_task(np.random.default_rng(8))
        x2 = np.clip(x2 + 0.15, 0.0, 1.0)
        final_kd = {}
        for weight in (0.0, 1e6):
            model = self._fresh(7)
            train_task(model, None, 1, x1, y1, KDConfig(), TeacherStrategy(),
                       desk_config(), WarmupConfig(), seed=0)
            teacher = snapshot_model(model)
            add_task_head(model, 2, seed=(7, 2))
            trace = train_task(model, teacher, 2, x2, y2,
                               KDConfig(weight=weight), TeacherStrategy(),
                               desk_config(grad_clip=1.0), WarmupConfig(), seed=0)
            final_kd[weight] = trace.kd[-1]
        assert final_kd[1e6] < final_kd[0.0]

    def test_warmup_trace_is_recorded(self):
        rng = np.random.default_rng(9)
        model = self._fresh(9)
        x, y = two_class_task(rng)
        trace = train_task(model, None, 1, x, y, KDConfig(), TeacherStrategy(),
                           desk_config(),
                           WarmupConfig(enabled=True, max_epochs=8, ramp_epochs=2),
                           seed=0)
        assert len(trace.warmup_ce) > 0


class TestTeacherStrategiesInTraining:
    def _after_task1(self, seed=0, norm="batch"):
        rng = np.random.default_rng(seed)
        model = build_micro_mlp(8, norm=norm, seed=seed)
        add_task_head(model, 2, seed=(seed, 1))
        x, y = two_class_task(rng)
        train_task(model, None, 1, x, y, KDConfig(), TeacherStrategy(),
                   desk_config(), WarmupConfig(), seed=0)
        x2, y2 = two_class_task(np.random.default_rng(seed + 50))
        return model, np.clip(x2 + 0.2, 0.0, 1.0), y2

    def test_frozen_teacher_is_never_mutated(self):
        model, x2, y2 = self._after_task1(0)
        teacher = snapshot_model(model)
        before = model_checksum(teacher)
        add_task_head(model, 2, seed=(0, 2))
        train_task(model, teacher, 2, x2, y2, KDConfig(), TeacherStrategy(),
                   desk_config(), WarmupConfig(), seed=0)
        assert model_checksum(teacher) == before

    def test_no_gradient_outlives_the_task(self):
        """Warmup, student and norm-only teacher steps leave no gradient on
        either network."""
        model, x2, y2 = self._after_task1(3)
        teacher = snapshot_model(model)
        add_task_head(model, 2, seed=(3, 2))
        train_task(model, teacher, 2, x2, y2, KDConfig(),
                   TeacherStrategy(kind="continuous_norm"), desk_config(),
                   WarmupConfig(enabled=True, max_epochs=2, ramp_epochs=1), seed=0)
        assert all(p.grad is None for p in model.parameters() + teacher.parameters())

    @pytest.mark.parametrize("kind", ["pretrain_full", "continuous_full"])
    def test_the_teacher_head_has_every_class_of_the_student_head(self, kind):
        """A training split without the task's last class still gives the
        trained teacher's extra head every class of the student's new head,
        so its cross-entropy is not identically zero and moves the weights."""
        model, x2, _ = self._after_task1(4)
        teacher = snapshot_model(model)
        before = parameter_checksums(teacher)
        add_task_head(model, 2, seed=(4, 2))
        train_task(model, teacher, 2, x2, np.zeros(len(x2), dtype=np.int64), KDConfig(),
                   TeacherStrategy(kind=kind), desk_config(), WarmupConfig(), seed=0)
        assert teacher.heads[-1].out_features == model.heads[-1].out_features
        after = parameter_checksums(teacher)
        assert before["backbone.0.dense.weight"] != after["backbone.0.dense.weight"]

    def test_adapt_stats_moves_teacher_statistics_only(self):
        model, x2, y2 = self._after_task1(1)
        teacher = snapshot_model(model)
        before = parameter_checksums(teacher)
        add_task_head(model, 2, seed=(1, 2))
        train_task(model, teacher, 2, x2, y2, KDConfig(),
                   TeacherStrategy(kind="adapt_stats"),
                   desk_config(), WarmupConfig(), seed=0)
        after = parameter_checksums(teacher)
        changed = sorted(k for k in before if before[k] != after[k])
        assert changed
        assert all("running_" in k for k in changed)

    def test_fix_stats_freezes_student_statistics(self):
        model, x2, y2 = self._after_task1(2)
        teacher = snapshot_model(model)
        stats_before = [bn.running_mean.copy() for bn in model.batchnorm_layers()]
        add_task_head(model, 2, seed=(2, 2))
        train_task(model, teacher, 2, x2, y2, KDConfig(),
                   TeacherStrategy(kind="fix_stats"),
                   desk_config(), WarmupConfig(), seed=0)
        for bn, old in zip(model.batchnorm_layers(), stats_before):
            np.testing.assert_array_equal(bn.running_mean, old)

    def test_statistics_adaptation_is_a_no_op_without_batch_norm(self):
        checksums = []
        for kind in ("frozen", "adapt_stats"):
            stream = synthetic_stream(2, 2, 20, dim=6, shift=0.2, seed=3)
            model = build_micro_mlp(6, norm="none", seed=3)
            result = run_stream(stream, model, KDConfig(weight=2.0),
                                TeacherStrategy(kind=kind),
                                desk_config(), WarmupConfig(), seed=0)
            checksums.append(model_checksum(result.model))
        assert checksums[0] == checksums[1]


class TestRunStream:
    def test_rejects_models_with_heads(self):
        stream = synthetic_stream(2, 2, 10, dim=6, seed=0)
        model = build_micro_mlp(6, seed=0)
        add_task_head(model, 2, seed=1)
        with pytest.raises(ContractError):
            run_stream(stream, model, KDConfig(), TeacherStrategy(),
                       desk_config(), WarmupConfig(), seed=0)

    def test_fills_the_whole_matrix(self):
        stream = synthetic_stream(3, 2, 20, dim=6, shift=0.1, seed=1)
        model = build_micro_mlp(6, seed=1)
        result = run_stream(stream, model, KDConfig(weight=2.0), TeacherStrategy(),
                            desk_config(), WarmupConfig(), seed=0)
        assert result.accuracy_matrix.is_complete()
        assert len(result.traces) == 3
        assert all(len(tr.ce) == 4 for tr in result.traces)
        assert result.teacher is not None
        assert result.wall_s > 0.0

    def test_runs_are_bit_reproducible(self):
        checksums, matrices = [], []
        for _ in range(2):
            stream = synthetic_stream(2, 2, 20, dim=6, shift=0.1, seed=5)
            model = build_micro_mlp(6, seed=5)
            result = run_stream(stream, model, KDConfig(weight=2.0),
                                TeacherStrategy(kind="adapt_stats"),
                                desk_config(), WarmupConfig(), seed=7)
            checksums.append(model_checksum(result.model))
            matrices.append(result.accuracy_matrix.values.copy())
        assert checksums[0] == checksums[1]
        np.testing.assert_array_equal(matrices[0], matrices[1])

    def test_every_strategy_completes_a_stream(self):
        for kind in ("frozen", "adapt_stats", "fix_stats", "continuous_full",
                     "continuous_norm", "pretrain_full", "pretrain_norm"):
            stream = synthetic_stream(2, 2, 16, dim=6, shift=0.1, seed=2)
            model = build_micro_mlp(6, seed=2)
            result = run_stream(stream, model, KDConfig(weight=1.0),
                                TeacherStrategy(kind=kind, teacher_lr=0.05,
                                                pretrain_epochs=1),
                                desk_config(), WarmupConfig(), seed=0)
            assert result.accuracy_matrix.is_complete(), kind

    def test_every_kd_variant_completes_a_stream(self):
        for variant in ("global", "taskwise", "multiclass", "auxiliary"):
            stream = synthetic_stream(2, 2, 16, dim=6, shift=0.1, seed=4)
            model = build_micro_mlp(6, seed=4)
            result = run_stream(stream, model, KDConfig(variant=variant, weight=1.0),
                                TeacherStrategy(), desk_config(), WarmupConfig(),
                                seed=0)
            assert result.accuracy_matrix.is_complete(), variant
            assert result.traces[1].kd[-1] != 0.0, variant
