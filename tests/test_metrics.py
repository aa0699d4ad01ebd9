import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clta.autodiff import Tensor, no_grad
from clta.errors import (ContractError, DataError, DegenerateBatchError, NumericError,
                         StateError)
from clta.layers import (BatchNorm, Dense, IncrementalModel, NormMode,
                         add_task_head, build_micro_mlp)
from clta.metrics import (EVAL_BATCH, AccuracyMatrix, accuracy_metrics, bn_stats_kld,
                          capture_features, compute_report, evaluate_task_agnostic,
                          forgetting_metrics, linear_cka, predict_global)


def random_matrix(rng, n):
    m = AccuracyMatrix(n)
    for k in range(n):
        for j in range(k + 1):
            m.set(k, j, float(rng.uniform()))
    return m


class TestAccuracyMatrix:
    def test_upper_triangle_is_off_limits(self):
        m = AccuracyMatrix(3)
        with pytest.raises(ContractError):
            m.set(0, 1, 0.5)
        with pytest.raises(ContractError):
            m.get(1, 2)

    def test_values_must_be_probabilities(self):
        m = AccuracyMatrix(2)
        with pytest.raises(ContractError):
            m.set(1, 0, 1.2)
        with pytest.raises(ContractError):
            m.set(0, 0, -0.01)

    def test_completeness_tracking(self):
        m = AccuracyMatrix(2)
        assert not m.is_complete()
        m.set(0, 0, 0.5)
        m.set(1, 0, 0.5)
        assert not m.is_complete()
        m.set(1, 1, 0.5)
        assert m.is_complete()

    def test_from_rows_shape_check(self):
        with pytest.raises(ContractError):
            AccuracyMatrix.from_rows([[0.5], [0.5]])


class TestAccuracyMetrics:
    def test_two_task_hand_case(self):
        """Rows (0.8) and (0.6, 0.7) must give A = (0.8, 0.65) and an
        incremental mean of 0.725."""
        m = AccuracyMatrix.from_rows([[0.8], [0.6, 0.7]])
        a_k, acc_inc, acc_final = accuracy_metrics(m)
        np.testing.assert_allclose(a_k, [0.8, 0.65], atol=1e-12)
        np.testing.assert_allclose(acc_inc, 0.725, atol=1e-12)
        np.testing.assert_allclose(acc_final, 0.65, atol=1e-12)

    def test_incomplete_matrix_rejected(self):
        m = AccuracyMatrix(2)
        m.set(0, 0, 0.9)
        with pytest.raises(ContractError):
            accuracy_metrics(m)

    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = random_matrix(rng, n)
            a_k, acc_inc, acc_final = accuracy_metrics(m)
            expect_rows = [np.mean([m.get(k, j) for j in range(k + 1)])
                           for k in range(n)]
            np.testing.assert_allclose(a_k, expect_rows, rtol=1e-12)
            np.testing.assert_allclose(acc_inc, np.mean(expect_rows), rtol=1e-12)
            np.testing.assert_allclose(acc_final, expect_rows[-1], rtol=1e-12)


class TestForgettingMetrics:
    def test_three_task_hand_case(self):
        m = AccuracyMatrix.from_rows([[0.9], [0.7, 0.8], [0.6, 0.5, 0.7]])
        f_k, forg_inc, forg_final = forgetting_metrics(m)
        np.testing.assert_allclose(f_k, [0.0, 0.2, 0.3], atol=1e-12)
        np.testing.assert_allclose(forg_inc, 0.25, atol=1e-12)
        np.testing.assert_allclose(forg_final, 0.3, atol=1e-12)

    def test_single_task_reports_zero(self):
        f_k, forg_inc, forg_final = forgetting_metrics(AccuracyMatrix.from_rows([[0.4]]))
        np.testing.assert_array_equal(f_k, [0.0])
        assert forg_inc == 0.0 and forg_final == 0.0

    def test_stable_accuracies_mean_no_forgetting(self):
        m = AccuracyMatrix.from_rows([[0.5], [0.5, 0.9], [0.5, 0.9, 0.8]])
        _, forg_inc, _ = forgetting_metrics(m)
        np.testing.assert_allclose(forg_inc, 0.0, atol=1e-12)

    def test_backward_transfer_shows_up_as_negative_forgetting(self):
        m = AccuracyMatrix.from_rows([[0.5], [0.7, 0.9]])
        f_k, forg_inc, _ = forgetting_metrics(m)
        np.testing.assert_allclose(f_k, [0.0, -0.2], atol=1e-12)
        np.testing.assert_allclose(forg_inc, -0.2, atol=1e-12)

    def test_against_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = random_matrix(rng, n)
            f_k, forg_inc, forg_final = forgetting_metrics(m)
            expect = [0.0]
            for k in range(1, n):
                drops = [max(m.get(l, j) for l in range(j, k)) - m.get(k, j)
                         for j in range(k)]
                expect.append(np.mean(drops))
            np.testing.assert_allclose(f_k, expect, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(forg_inc, np.mean(expect[1:]), rtol=1e-12)
            np.testing.assert_allclose(forg_final, expect[-1], rtol=1e-12)

    def test_report_bundles_both_metric_families(self):
        m = AccuracyMatrix.from_rows([[0.9], [0.7, 0.8]])
        report = compute_report(m)
        np.testing.assert_allclose(report.acc_inc, (0.9 + 0.75) / 2, atol=1e-12)
        np.testing.assert_allclose(report.forg_final, 0.2, atol=1e-12)


def identity_model(total_dim, head_sizes):
    """Heads that copy consecutive slices of the input, so logits = inputs."""
    model = IncrementalModel([], feature_dim=total_dim)
    offset = 0
    for size in head_sizes:
        head = Dense(total_dim, size, rng=np.random.default_rng(0))
        head.weight.data[:] = 0.0
        for i in range(size):
            head.weight.data[offset + i, i] = 1.0
        model.heads.append(head)
        offset += size
    return model


class TestTaskAgnosticPrediction:
    def test_argmax_runs_over_all_heads(self):
        model = identity_model(4, [2, 2])
        x = np.array([
            [0.1, 0.2, 0.9, 0.3],
            [0.8, 0.1, 0.2, 0.3],
            [0.0, 0.1, 0.2, 0.9],
        ])
        order = np.array([0, 1, 2, 3])
        np.testing.assert_array_equal(predict_global(model, x, order), [2, 0, 3])

    def test_class_order_maps_columns_to_global_ids(self):
        model = identity_model(4, [2, 2])
        x = np.array([[0.9, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.9]])
        order = np.array([7, 3, 5, 2])
        np.testing.assert_array_equal(predict_global(model, x, order), [7, 2])

    def test_ties_resolve_to_the_lowest_column(self):
        model = identity_model(3, [2, 1])
        x = np.array([[0.5, 0.5, 0.5]])
        np.testing.assert_array_equal(
            predict_global(model, x, np.array([4, 1, 0])), [4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_raise_instead_of_an_argmax(self, bad):
        model = identity_model(4, [2, 2])
        model.heads[1].bias.data[1] = bad
        with pytest.raises(NumericError, match="non-finite logits"):
            predict_global(model, np.eye(4) * 0.9, np.arange(4))

    def test_accuracy_counts_global_matches(self):
        model = identity_model(4, [2, 2])
        x = np.eye(4) * 0.9
        labels = np.array([0, 1, 2, 2])
        acc = evaluate_task_agnostic(model, x, labels, np.arange(4))
        np.testing.assert_allclose(acc, 0.75)


class TestLinearCKA:
    rng = np.random.default_rng(10)

    def test_self_similarity_is_one(self):
        x = self.rng.normal(size=(30, 8))
        np.testing.assert_allclose(linear_cka(x, x), 1.0, atol=1e-9)

    def test_orthogonal_rotation_invariance(self):
        x = self.rng.normal(size=(40, 6))
        q, _ = np.linalg.qr(self.rng.normal(size=(6, 6)))
        np.testing.assert_allclose(linear_cka(x, x @ q), 1.0, atol=1e-6)

    def test_isotropic_scaling_invariance(self):
        x = self.rng.normal(size=(25, 5))
        y = self.rng.normal(size=(25, 7))
        base = linear_cka(x, y)
        np.testing.assert_allclose(linear_cka(3.7 * x, 0.2 * y), base, atol=1e-12)

    def test_symmetry(self):
        x = self.rng.normal(size=(20, 4))
        y = self.rng.normal(size=(20, 9))
        np.testing.assert_allclose(linear_cka(x, y), linear_cka(y, x), rtol=1e-12)

    def test_constant_features_rejected(self):
        x = self.rng.normal(size=(10, 3))
        with pytest.raises(DegenerateBatchError):
            linear_cka(x, np.ones((10, 3)))

    def test_unrelated_noise_scores_low(self):
        x = self.rng.normal(size=(200, 4))
        y = self.rng.normal(size=(200, 4))
        assert linear_cka(x, y) < 0.3


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_cka_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(12, 3))
    y = rng.normal(size=(12, 5))
    value = linear_cka(x, y)
    assert -1e-9 <= value <= 1.0 + 1e-9


def _bn_model(mean, var):
    model = IncrementalModel([BatchNorm(len(mean))], feature_dim=len(mean))
    bn = model.batchnorm_layers()[0]
    bn.running_mean[:] = mean
    bn.running_var[:] = var
    return model


class TestBnStatsKld:
    def test_mean_shift_hand_value(self):
        """KL(N(0,1) || N(1,1)) is exactly one half."""
        a = _bn_model([0.0], [1.0])
        b = _bn_model([1.0], [1.0])
        np.testing.assert_allclose(bn_stats_kld(a, b), 0.5, atol=1e-12)

    def test_variance_change_hand_value(self):
        """KL(N(0,1) || N(0,4)) = ln 2 + 1/8 - 1/2."""
        a = _bn_model([0.0], [1.0])
        b = _bn_model([0.0], [4.0])
        np.testing.assert_allclose(bn_stats_kld(a, b),
                                   np.log(2.0) + 0.125 - 0.5, atol=1e-12)
        np.testing.assert_allclose(bn_stats_kld(a, b), 0.318147, atol=1e-6)

    def test_identical_statistics_give_zero(self):
        a = _bn_model([0.3, -1.2], [0.5, 2.0])
        b = _bn_model([0.3, -1.2], [0.5, 2.0])
        np.testing.assert_allclose(bn_stats_kld(a, b), 0.0, atol=1e-12)

    def test_channels_average(self):
        a = _bn_model([0.0, 0.0], [1.0, 1.0])
        b = _bn_model([1.0, 0.0], [1.0, 4.0])
        expected = 0.5 * (0.5 + (np.log(2.0) + 0.125 - 0.5))
        np.testing.assert_allclose(bn_stats_kld(a, b), expected, atol=1e-12)

    def test_asymmetry(self):
        a = _bn_model([0.0], [1.0])
        b = _bn_model([0.0], [4.0])
        assert abs(bn_stats_kld(a, b) - bn_stats_kld(b, a)) > 1e-3

    def test_structure_mismatch_rejected(self):
        with pytest.raises(ContractError):
            bn_stats_kld(_bn_model([0.0], [1.0]), _bn_model([0.0, 0.0], [1.0, 1.0]))
        no_bn = IncrementalModel([], feature_dim=2)
        with pytest.raises(ContractError):
            bn_stats_kld(no_bn, no_bn)

    def test_nonpositive_variance_rejected(self):
        a = _bn_model([0.0], [1.0])
        bad = _bn_model([0.0], [1.0])
        bad.batchnorm_layers()[0].running_var[:] = 0.0
        with pytest.raises(StateError):
            bn_stats_kld(a, bad)

    def test_nan_variance_rejected_in_either_model(self):
        a = _bn_model([0.0, 0.0], [1.0, 1.0])
        bad = _bn_model([0.0, 0.0], [1.0, 1.0])
        bad.batchnorm_layers()[0].running_var[0] = np.nan
        for pair in ((a, bad), (bad, a)):
            with pytest.raises(StateError, match="layer 0"):
                bn_stats_kld(*pair)


class TestCaptureFeatures:
    def test_shape_and_detachment(self):
        model = build_micro_mlp(6, norm="batch", seed=0, hidden=16)
        add_task_head(model, 3, seed=1)
        feats = capture_features(model, np.random.default_rng(0).uniform(size=(9, 6)))
        assert feats.shape == (9, 16)
        assert isinstance(feats, np.ndarray)

    def test_equals_the_backbone_across_chunks(self):
        model = build_micro_mlp(4, norm="batch", seed=3, hidden=8)
        x = np.random.default_rng(2).uniform(size=(EVAL_BATCH + 44, 4))
        with no_grad():
            whole = model.features(Tensor(x), NormMode.EVAL).data
        np.testing.assert_allclose(capture_features(model, x), whole, rtol=1e-12)

    def test_eval_statistics_are_used(self):
        model = build_micro_mlp(4, norm="batch", seed=2, hidden=8)
        before = model.batchnorm_layers()[0].running_mean.copy()
        capture_features(model, np.random.default_rng(1).uniform(size=(5, 4)))
        np.testing.assert_array_equal(model.batchnorm_layers()[0].running_mean, before)

    def test_empty_input_rejected(self):
        model = build_micro_mlp(4, norm="batch", seed=2, hidden=8)
        with pytest.raises(DataError, match="empty input batch"):
            capture_features(model, np.zeros((0, 4)))
