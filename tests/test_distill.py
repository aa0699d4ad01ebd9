import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clta import autodiff as ad
from clta.autodiff import Tensor, finite_difference_oracle
from clta.distill import (STRATEGY_KINDS, KDConfig, TeacherStrategy, auxiliary_kd_loss,
                          continuous_teacher_step, global_kd_loss, multiclass_kd_loss,
                          pretrain_teacher, taskwise_kd_loss, teacher_forward, total_loss)
from clta.errors import ContractError, DataError, NumericError, ParameterError
from clta.layers import (BatchNorm, Dense, NormMode, add_task_head, build_micro_mlp,
                         model_checksum, parameter_checksums, snapshot_model)
from clta.optim import ce_epochs


def softmax(z, t=1.0):
    z = np.asarray(z, dtype=np.float64) / t
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestGlobalKD:
    def test_uniform_pair_gives_log2(self):
        loss = global_kd_loss(Tensor([[0.0, 0.0]]), Tensor([[0.0, 0.0]]), 2.0)
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-9)

    def test_uniform_student_sees_only_log_classes(self):
        """With a uniform student every target distribution costs ln(k),
        whatever the teacher says."""
        loss = global_kd_loss(Tensor([[0.0, 0.0]]), Tensor([[2.0, 0.0]]), 1.0)
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-9)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(17)
        s = rng.normal(size=(6, 5))
        t = rng.normal(size=(6, 5))
        for temp in (0.5, 1.0, 2.0, 4.0):
            p = softmax(t, temp)
            logq = np.log(softmax(s, temp))
            expected = float(np.mean(-(p * logq).sum(axis=1)))
            got = global_kd_loss(Tensor(s), Tensor(t), temp).item()
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_minimum_is_teacher_entropy(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=(4, 6))
        p = softmax(t, 2.0)
        entropy = float(np.mean(-(p * np.log(p)).sum(axis=1)))
        at_match = global_kd_loss(Tensor(t.copy()), Tensor(t), 2.0).item()
        np.testing.assert_allclose(at_match, entropy, rtol=1e-10)
        for _ in range(5):
            perturbed = t + rng.normal(scale=0.3, size=t.shape)
            assert global_kd_loss(Tensor(perturbed), Tensor(t), 2.0).item() \
                >= at_match - 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 4))
        base = global_kd_loss(Tensor(s), Tensor(t), 2.0).item()
        shifted = global_kd_loss(Tensor(s + 7.0), Tensor(t - 3.0), 2.0).item()
        np.testing.assert_allclose(shifted, base, rtol=1e-10)

    def test_gradient_against_oracle(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(4, 5))
        t = Tensor(rng.normal(size=(4, 5)))
        student = Tensor(s, requires_grad=True)
        global_kd_loss(student, t, 2.0).backward()
        numeric = finite_difference_oracle(
            lambda v: global_kd_loss(Tensor(v), t, 2.0), s)
        np.testing.assert_allclose(student.grad, numeric, rtol=1e-6, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            global_kd_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), 2.0)

    def test_nan_in_teacher_logits_raises(self):
        teacher = ad.scale(Tensor(np.zeros((3, 4))), 1.0)  # op outputs are unchecked
        teacher.data[2, 0] = np.nan
        with pytest.raises(NumericError):
            global_kd_loss(Tensor(np.zeros((3, 4)), requires_grad=True), teacher, 2.0)

    @pytest.mark.parametrize("temperature", [np.inf, np.nan])
    def test_non_finite_temperature_rejected(self, temperature):
        """An infinite temperature made both softmaxes uniform: the loss read
        log(C) and the student got no gradient."""
        with pytest.raises(ParameterError):
            global_kd_loss(Tensor(np.zeros((2, 3))), Tensor(np.eye(2, 3)), temperature)


class TestTaskwiseKD:
    def test_hand_value_single_task(self):
        """Teacher (0.75, 0.25) against a uniform student is
        0.75 ln 1.5 + 0.25 ln 0.5 per task."""
        expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        teacher = Tensor([[2.0 * np.log(3.0), 0.0]])
        student = Tensor([[0.0, 0.0]])
        loss = taskwise_kd_loss([(student, teacher)], 2.0)
        np.testing.assert_allclose(loss.item(), expected, atol=1e-10)
        np.testing.assert_allclose(loss.item(), 0.130812, atol=1e-5)

    def test_two_identical_tasks_double_the_loss(self):
        teacher = Tensor([[2.0 * np.log(3.0), 0.0]])
        student = Tensor([[0.0, 0.0]])
        one = taskwise_kd_loss([(student, teacher)], 2.0).item()
        two = taskwise_kd_loss([(student, teacher), (student, teacher)], 2.0).item()
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)
        np.testing.assert_allclose(two, 0.261624, atol=1e-5)

    def test_zero_at_per_task_match(self):
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(3):
            t = rng.normal(size=(5, 4))
            pairs.append((Tensor(t + rng.normal()), Tensor(t)))
        loss = taskwise_kd_loss(pairs, 2.0).item()
        np.testing.assert_allclose(loss, 0.0, atol=1e-10)

    def test_is_global_minus_entropy_for_one_head(self):
        rng = np.random.default_rng(21)
        s, t = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        p = softmax(t, 2.0)
        entropy = float(np.mean(-(p * np.log(p)).sum(axis=1)))
        tkd = taskwise_kd_loss([(Tensor(s), Tensor(t))], 2.0).item()
        gkd = global_kd_loss(Tensor(s), Tensor(t), 2.0).item()
        np.testing.assert_allclose(tkd, gkd - entropy, rtol=1e-9, atol=1e-12)

    def test_gradient_against_oracle(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=(3, 4))
        t = Tensor(rng.normal(size=(3, 4)))
        student = Tensor(s, requires_grad=True)
        taskwise_kd_loss([(student, t)], 2.0).backward()
        numeric = finite_difference_oracle(
            lambda v: taskwise_kd_loss([(Tensor(v), t)], 2.0), s)
        np.testing.assert_allclose(student.grad, numeric, rtol=1e-6, atol=1e-9)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ContractError):
            taskwise_kd_loss([], 2.0)

    def test_each_term_is_global_kd_less_the_teacher_entropy(self):
        """Per head, the value is ``H(p, q) - H(p)`` of two fused nodes and the
        student's gradient is global KD's, bit for bit; the teacher, even
        one that asks for a gradient, gets none."""
        rng = np.random.default_rng(11)
        shapes = [(5, 3), (5, 2)]
        teachers = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        s_data = [rng.normal(size=s) for s in shapes]
        students = [Tensor(v, requires_grad=True) for v in s_data]
        loss = taskwise_kd_loss(zip(students, teachers), 2.0)
        loss.backward()
        expected = None
        for v, t, student in zip(s_data, teachers, students):
            alone = Tensor(v, requires_grad=True)
            gkd = ad.soft_cross_entropy(alone, Tensor(t.data), 2.0)
            gkd.backward()
            np.testing.assert_array_equal(student.grad, alone.grad)
            term = gkd.data - ad.soft_cross_entropy(Tensor(t.data), Tensor(t.data), 2.0).data
            expected = term if expected is None else expected + term
        np.testing.assert_array_equal(loss.data, expected)
        assert all(t.grad is None for t in teachers)

    def test_overflowing_teacher_logit_raises(self):
        """1e308 is finite, but 1e308 / 0.5 overflows: ``NumericError`` as in
        global KD, and no RuntimeWarning on the way."""
        teacher = Tensor([[0.0, 1.0, 2.0], [1e308, 0.0, 1.0]])
        student = Tensor(np.zeros((2, 3)), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                taskwise_kd_loss([(student, teacher)], 0.5)
            with pytest.raises(NumericError):
                global_kd_loss(student, teacher, 0.5)

    def test_infinite_teacher_logit_raises(self):
        """The teacher softmax's max shift takes inf - inf: a NaN row, which
        must fail as ``NumericError`` and not as a RuntimeWarning."""
        teacher = ad.scale(Tensor(np.zeros((2, 3))), 1.0)  # op outputs are unchecked
        teacher.data[1, 2] = np.inf
        student = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(NumericError):
            taskwise_kd_loss([(student, teacher)], 2.0)


class TestMulticlassKD:
    def test_all_zero_logits(self):
        loss = multiclass_kd_loss(Tensor([[0.0, 0.0]]), Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(loss.item(), -np.log(0.5), atol=1e-9)
        np.testing.assert_allclose(loss.item(), 0.693147, atol=1e-5)

    def test_confident_agreement_vanishes(self):
        loss = multiclass_kd_loss(Tensor([[50.0, 50.0]]), Tensor([[50.0, 50.0]]))
        assert loss.item() < 1e-6

    def test_confident_disagreement_scales_with_margin(self):
        loss = multiclass_kd_loss(Tensor([[-50.0]]), Tensor([[50.0]]))
        np.testing.assert_allclose(loss.item(), 50.0, atol=1e-4)

    def test_not_shift_invariant(self):
        rng = np.random.default_rng(2)
        s, t = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        base = multiclass_kd_loss(Tensor(s), Tensor(t)).item()
        shifted = multiclass_kd_loss(Tensor(s + 3.0), Tensor(t + 3.0)).item()
        assert abs(base - shifted) > 1e-3

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(13)
        s, t = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        sig = 1.0 / (1.0 + np.exp(-t))
        logsig = -np.logaddexp(0.0, -s)
        expected = float(np.mean(-(sig * logsig).sum(axis=1)))
        np.testing.assert_allclose(multiclass_kd_loss(Tensor(s), Tensor(t)).item(),
                                   expected, rtol=1e-10)

    def test_gradient_against_oracle(self):
        rng = np.random.default_rng(31)
        s = rng.normal(size=(4, 3))
        t = Tensor(rng.normal(size=(4, 3)))
        student = Tensor(s, requires_grad=True)
        multiclass_kd_loss(student, t).backward()
        numeric = finite_difference_oracle(
            lambda v: multiclass_kd_loss(Tensor(v), t), s)
        np.testing.assert_allclose(student.grad, numeric, rtol=1e-6, atol=1e-9)


class TestAuxiliaryKD:
    def _logits(self, rng):
        student = [Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 2)))]
        teacher = [Tensor(rng.normal(size=(4, 3)))]
        aux = Tensor(rng.normal(size=(4, 2)))
        return student, teacher, aux

    def test_combines_two_weighted_global_terms(self):
        rng = np.random.default_rng(6)
        student, teacher, aux = self._logits(rng)
        cfg = KDConfig(variant="auxiliary", temperature=2.0, weight=3.0, aux_weight=0.5)
        got = auxiliary_kd_loss(student, teacher, aux, cfg).item()
        old_term = global_kd_loss(student[0], teacher[0], 2.0).item()
        new_term = global_kd_loss(student[1], aux, 2.0).item()
        np.testing.assert_allclose(got, 3.0 * old_term + 0.5 * new_term, rtol=1e-10)

    def test_aux_weight_defaults_to_main_weight(self):
        rng = np.random.default_rng(7)
        student, teacher, aux = self._logits(rng)
        cfg = KDConfig(variant="auxiliary", weight=2.0)
        assert cfg.effective_aux_weight == 2.0
        got = auxiliary_kd_loss(student, teacher, aux, cfg).item()
        explicit = KDConfig(variant="auxiliary", weight=2.0, aux_weight=2.0)
        np.testing.assert_allclose(
            got, auxiliary_kd_loss(student, teacher, aux, explicit).item(), rtol=1e-12)

    def test_missing_aux_logits_rejected(self):
        rng = np.random.default_rng(8)
        student, teacher, _ = self._logits(rng)
        with pytest.raises(ContractError):
            auxiliary_kd_loss(student, teacher, None, KDConfig(variant="auxiliary"))


class TestTotalLoss:
    def test_plain_numbers(self):
        assert total_loss(1.0, 2.0, 10.0) == 21.0

    def test_zero_weight_drops_kd(self):
        assert total_loss(0.7, 123.0, 0.0) == 0.7

    def test_tensor_result_carries_gradient(self):
        ce = Tensor(np.asarray(1.0), requires_grad=True)
        kd = Tensor(np.asarray(2.0), requires_grad=True)
        out = total_loss(ce, kd, 10.0)
        np.testing.assert_allclose(out.item(), 21.0)
        out.backward()
        np.testing.assert_allclose(ce.grad, 1.0)
        np.testing.assert_allclose(kd.grad, 10.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            total_loss(1.0, 1.0, -0.5)


class TestConfigObjects:
    def test_kd_defaults(self):
        cfg = KDConfig()
        assert cfg.variant == "global"
        assert cfg.temperature == 2.0
        assert cfg.weight == 10.0

    def test_kd_validation(self):
        with pytest.raises(ParameterError):
            KDConfig(variant="contrastive")
        with pytest.raises(ParameterError):
            KDConfig(temperature=0.0)
        with pytest.raises(ParameterError):
            KDConfig(weight=-1.0)

    def test_strategy_validation(self):
        with pytest.raises(ParameterError):
            TeacherStrategy(kind="ensemble")
        with pytest.raises(ParameterError):
            TeacherStrategy(teacher_lr=-0.1)
        TeacherStrategy(kind="continuous_full", teacher_lr=0.0)

    def test_trains_teacher_flag(self):
        for kind in ("continuous_full", "continuous_norm", "pretrain_full",
                     "pretrain_norm"):
            assert TeacherStrategy(kind=kind).trains_teacher
        for kind in ("frozen", "adapt_stats", "fix_stats"):
            assert not TeacherStrategy(kind=kind).trains_teacher

    def test_kind_properties(self):
        for kind in STRATEGY_KINDS:
            strategy = TeacherStrategy(kind=kind)
            assert strategy.steps_with_student == (kind in ("continuous_full",
                                                            "continuous_norm"))
            assert strategy.pretrains == (kind in ("pretrain_full", "pretrain_norm"))
            assert strategy.fixes_student_stats == (kind == "fix_stats")



def _teacher_with_history(seed=0):
    rng = np.random.default_rng(seed)
    model = build_micro_mlp(6, norm="batch", seed=seed)
    add_task_head(model, 3, seed=seed + 1)
    x = rng.uniform(size=(32, 6))
    model.forward(Tensor(x), NormMode.TRAIN)
    return snapshot_model(model), rng


class TestTeacherForward:
    def test_logits_are_detached(self):
        teacher, rng = _teacher_with_history()
        logits = teacher_forward(teacher, Tensor(rng.uniform(size=(8, 6))),
                                 TeacherStrategy(kind="frozen"), 1)
        assert len(logits) == 1
        assert not logits[0].requires_grad

    def test_frozen_leaves_the_snapshot_untouched(self):
        teacher, rng = _teacher_with_history()
        before = model_checksum(teacher)
        teacher_forward(teacher, Tensor(rng.uniform(size=(8, 6)) + 0.5),
                        TeacherStrategy(kind="frozen"), 1)
        assert model_checksum(teacher) == before

    def test_adapt_stats_moves_only_running_statistics(self):
        teacher, rng = _teacher_with_history()
        sums_before = parameter_checksums(teacher)
        shifted = rng.uniform(size=(8, 6)) + 0.5
        teacher_forward(teacher, Tensor(shifted), TeacherStrategy(kind="adapt_stats"), 1)
        sums_after = parameter_checksums(teacher)
        changed = sorted(k for k in sums_before if sums_before[k] != sums_after[k])
        assert changed
        assert all("running_mean" in k or "running_var" in k for k in changed)

    def test_adapt_stats_tracks_the_batch_mean(self):
        teacher, rng = _teacher_with_history()
        bn = teacher.batchnorm_layers()[0]
        x = rng.uniform(size=(16, 6)) + 1.0
        pre_activation = x @ teacher.backbone[0].weight.data + teacher.backbone[0].bias.data
        expected = 0.9 * bn.running_mean + 0.1 * pre_activation.mean(axis=0)
        teacher_forward(teacher, Tensor(x), TeacherStrategy(kind="adapt_stats"), 1)
        np.testing.assert_allclose(bn.running_mean, expected, rtol=1e-12)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_norm_mode_follows_the_strategy(self, kind, monkeypatch):
        """Statistics adaptation runs the teacher's BatchNorm in ADAPT_STATS,
        which moves its running statistics; every other kind in EVAL."""
        teacher, rng = _teacher_with_history()
        before = model_checksum(teacher)
        modes = []
        original = BatchNorm.forward

        def recorded(self, x, mode):
            modes.append(mode)
            return original(self, x, mode)

        monkeypatch.setattr(BatchNorm, "forward", recorded)
        teacher_forward(teacher, Tensor(rng.uniform(size=(8, 6)) + 0.5),
                        TeacherStrategy(kind=kind), 1)
        adapts = kind == "adapt_stats"
        assert modes == [NormMode.ADAPT_STATS if adapts else NormMode.EVAL] * 2
        assert (model_checksum(teacher) != before) == adapts

    def test_runs_the_backbone_and_the_old_heads_only(self, monkeypatch):
        """A trained teacher's extra head gives no targets, so it is not run."""
        teacher, rng = _teacher_with_history()
        add_task_head(teacher, 2, seed=9)
        x = Tensor(rng.uniform(size=(8, 6)))
        expected = [t.data for t in teacher.forward(x, NormMode.EVAL)[:1]]
        calls = []
        original = Dense.forward

        def counted(self, h, mode):
            calls.append(self)
            return original(self, h, mode)

        monkeypatch.setattr(Dense, "forward", counted)
        logits = teacher_forward(teacher, x, TeacherStrategy(kind="continuous_full"), 1)
        dense = [layer for layer in teacher.backbone if isinstance(layer, Dense)]
        assert calls == dense + teacher.heads[:1]
        assert len(logits) == 1 and not logits[0].requires_grad
        np.testing.assert_array_equal(logits[0].data, expected[0])

    def test_missing_teacher_rejected(self):
        with pytest.raises(ContractError):
            teacher_forward(None, Tensor(np.zeros((2, 6))),
                            TeacherStrategy(kind="frozen"), 1)


class TestTrainableTeachers:
    def _task_data(self, rng, n=48):
        x = np.concatenate([rng.normal(0.3, 0.05, size=(n // 2, 6)),
                            rng.normal(0.7, 0.05, size=(n // 2, 6))])
        y = np.concatenate([np.zeros(n // 2, dtype=np.int64),
                            np.ones(n // 2, dtype=np.int64)])
        return np.clip(x, 0.0, 1.0), y

    def test_pretrain_full_reduces_teacher_loss(self):
        teacher, rng = _teacher_with_history(3)
        add_task_head(teacher, 2, seed=(3, 9))
        x, y = self._task_data(rng)
        history = pretrain_teacher(teacher, x, y,
                                   TeacherStrategy(kind="pretrain_full", teacher_lr=0.1,
                                                   pretrain_epochs=4),
                                   batch_size=16, seed=0, task_index=2)
        assert len(history) == 4
        assert history[-1] < history[0]

    def test_pretrain_rejects_one_row(self):
        teacher, rng = _teacher_with_history(13)
        add_task_head(teacher, 2, seed=(13, 9))
        x, y = self._task_data(rng)
        with pytest.raises(DataError, match="at least 2 samples, got 1"):
            pretrain_teacher(teacher, x[:1], y[:1],
                             TeacherStrategy(kind="pretrain_full", pretrain_epochs=2),
                             batch_size=16, seed=0, task_index=2)

    def test_pretrain_rejects_batch_size_one(self):
        """Batches of one are all dropped: without the check no step runs
        and the history is the mean of no losses, NaN."""
        teacher, rng = _teacher_with_history(14)
        add_task_head(teacher, 2, seed=(14, 9))
        before = parameter_checksums(teacher)
        x, y = self._task_data(rng)
        with pytest.raises(ParameterError, match="batch_size: must be >= 2, got 1"):
            pretrain_teacher(teacher, x, y,
                             TeacherStrategy(kind="pretrain_full", pretrain_epochs=2),
                             batch_size=1, seed=0, task_index=2)
        assert parameter_checksums(teacher) == before

    def test_pretrain_full_never_touches_old_heads(self):
        teacher, rng = _teacher_with_history(4)
        old_head = parameter_checksums(teacher)["head.0.weight"]
        add_task_head(teacher, 2, seed=(4, 9))
        x, y = self._task_data(rng)
        pretrain_teacher(teacher, x, y,
                         TeacherStrategy(kind="pretrain_full", pretrain_epochs=2),
                         batch_size=16, seed=0, task_index=2)
        assert parameter_checksums(teacher)["head.0.weight"] == old_head

    def test_pretrain_norm_scope_is_normalization_only(self):
        teacher, rng = _teacher_with_history(5)
        add_task_head(teacher, 2, seed=(5, 9))
        before = parameter_checksums(teacher)
        x, y = self._task_data(rng)
        pretrain_teacher(teacher, x, y,
                         TeacherStrategy(kind="pretrain_norm", pretrain_epochs=2),
                         batch_size=16, seed=0, task_index=2)
        after = parameter_checksums(teacher)
        changed = sorted(k for k in before if before[k] != after[k])
        assert changed
        allowed = ("gamma", "beta", "running_mean", "running_var")
        assert all(any(tag in k for tag in allowed) for k in changed)

    @pytest.mark.parametrize("kind", ["continuous_full", "continuous_norm"])
    def test_continuous_step_with_zero_lr_only_moves_statistics(self, kind):
        teacher, rng = _teacher_with_history(6)
        add_task_head(teacher, 2, seed=(6, 9))
        for p in teacher.parameters():  # p - 0 * grad would turn -0.0 into 0.0
            p.data = np.where(p.data == 0.0, -0.0, p.data)
        before = parameter_checksums(teacher)
        x, y = self._task_data(rng, n=16)
        continuous_teacher_step(teacher, x, y, TeacherStrategy(kind=kind, teacher_lr=0.0))
        after = parameter_checksums(teacher)
        changed = sorted(k for k in before if before[k] != after[k])
        assert changed
        assert all("running_" in k for k in changed)

    def test_norm_scope_without_normalization_layers_changes_nothing(self):
        rng = np.random.default_rng(10)
        teacher = add_task_head(build_micro_mlp(6, norm="none", seed=10), 3, seed=11)
        add_task_head(teacher, 2, seed=(10, 9))
        x, y = self._task_data(rng)
        before = parameter_checksums(teacher)
        loss = continuous_teacher_step(teacher, x[:16], y[:16],
                                       TeacherStrategy(kind="continuous_norm", teacher_lr=0.1))
        history = pretrain_teacher(teacher, x, y,
                                   TeacherStrategy(kind="pretrain_norm", teacher_lr=0.1,
                                                   pretrain_epochs=2),
                                   batch_size=16, seed=0, task_index=2)
        assert np.isfinite([loss, *history]).all()
        assert parameter_checksums(teacher) == before

    def test_continuous_full_step_is_plain_sgd_on_backbone_and_newest_head(self):
        teacher, rng = _teacher_with_history(12)
        add_task_head(teacher, 2, seed=(12, 9))
        x, y = self._task_data(rng, n=16)
        expected = snapshot_model(teacher)
        logits = expected.forward(Tensor(x), NormMode.TRAIN)
        ad.cross_entropy(logits[-1], y).backward()
        stepped = [p for layer in expected.backbone for p in layer.parameters()]
        stepped += expected.heads[-1].parameters()
        for p in stepped:
            p.data = p.data - 0.1 * p.grad
        old_head = parameter_checksums(teacher)["head.0.weight"]
        continuous_teacher_step(teacher, x, y,
                                TeacherStrategy(kind="continuous_full", teacher_lr=0.1))
        assert parameter_checksums(teacher) == parameter_checksums(expected)
        assert parameter_checksums(teacher)["head.0.weight"] == old_head

    def test_continuous_step_updates_weights_with_positive_lr(self):
        teacher, rng = _teacher_with_history(7)
        add_task_head(teacher, 2, seed=(7, 9))
        w_before = teacher.backbone[0].weight.data.copy()
        x, y = self._task_data(rng, n=16)
        continuous_teacher_step(teacher, x, y,
                                TeacherStrategy(kind="continuous_full", teacher_lr=0.1))
        assert np.abs(teacher.backbone[0].weight.data - w_before).max() > 0.0

    def test_pretrain_nan_loss_names_task_and_epoch(self):
        teacher, rng = _teacher_with_history(15)
        add_task_head(teacher, 2, seed=(15, 9))
        teacher.heads[-1].weight.data[0, 0] = np.nan
        params = [p.data.copy() for p in teacher.parameters()]
        x, y = self._task_data(rng)
        with pytest.raises(NumericError, match="^task 2, epoch 0: non-finite teacher CE loss nan$"):
            pretrain_teacher(teacher, x, y, TeacherStrategy(kind="pretrain_full"),
                             batch_size=16, seed=0, task_index=2)
        # the train-mode forward moved the running statistics, but no step ran
        for p, old in zip(teacher.parameters(), params):
            np.testing.assert_array_equal(p.data, old)

    def test_continuous_nan_loss_names_task_and_epoch(self):
        """The step names its term; the student's ``ce_epochs``, whose
        distillation takes the step, puts the task and epoch in front."""
        teacher, rng = _teacher_with_history(16)
        add_task_head(teacher, 2, seed=(16, 9))
        teacher.heads[-1].weight.data[0, 0] = np.nan
        x, y = self._task_data(rng, n=16)
        strategy = TeacherStrategy(kind="continuous_full")
        with pytest.raises(NumericError, match="^non-finite teacher CE loss nan$"):
            continuous_teacher_step(teacher, x, y, strategy)

        def distill(ce, logits, xb, yb_local):
            continuous_teacher_step(teacher, xb.data, yb_local, strategy)
            return 0.0, ce

        student = add_task_head(build_micro_mlp(6, seed=16), 2, seed=0)
        with pytest.raises(NumericError, match="^task 2, epoch 0: non-finite teacher CE loss nan$"):
            next(ce_epochs(student, student.parameters(), x, y, [(0.1, np.arange(16))], 16,
                           None, 2, "CE", distill=distill))

    def test_pretrain_is_seed_deterministic(self):
        results = []
        for _ in range(2):
            teacher, rng = _teacher_with_history(8)
            add_task_head(teacher, 2, seed=(8, 9))
            x, y = self._task_data(rng)
            pretrain_teacher(teacher, x, y,
                             TeacherStrategy(kind="pretrain_full", pretrain_epochs=2),
                             batch_size=16, seed=5, task_index=2)
            results.append(model_checksum(teacher))
        assert results[0] == results[1]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_global_kd_never_below_teacher_entropy(seed, temp):
    rng = np.random.default_rng(seed)
    t = rng.normal(scale=2.0, size=(3, 5))
    s = rng.normal(scale=2.0, size=(3, 5))
    p = softmax(t, temp)
    entropy = float(np.mean(-(p * np.log(p)).sum(axis=1)))
    assert global_kd_loss(Tensor(s), Tensor(t), temp).item() >= entropy - 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_taskwise_kd_nonnegative(seed):
    rng = np.random.default_rng(seed)
    pairs = [(Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 4))))
             for _ in range(2)]
    assert taskwise_kd_loss(pairs, 2.0).item() >= -1e-12
