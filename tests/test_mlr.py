import numpy as np
import pytest

from sdae_ivs.data import Dataset
from sdae_ivs.errors import DataError, DivergenceError
from sdae_ivs.mlr import (ErrorReport, MlrModel, TrainConfig, batch_grads,
                          cross_entropy, evaluate, predict_labels, train_mlr,
                          wald_halfwidth)
from sdae_ivs.numerics import make_rng, softmax
from util import central_diff, grads_close, random_mlr


class TestPredict:
    def test_zero_model_is_uniform(self):
        m = MlrModel(np.zeros((4, 3)), np.zeros(4))
        for label in range(1, 5):
            assert cross_entropy(m, np.ones((1, 3)), np.array([label])) == \
                pytest.approx(np.log(4.0), abs=1e-15)

    def test_two_class_reduces_to_sigmoid_of_logit_difference(self):
        # w1 - w2 = (1, 0), equal biases, x = (ln 3, 7) -> p1 = 3/4.
        m = MlrModel(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2))
        loss = cross_entropy(m, np.array([[np.log(3.0), 7.0]]), np.array([1]))
        assert np.exp(-loss) == pytest.approx(0.75, abs=1e-12)

    def test_common_weight_shift_keeps_argmax(self):
        rng = make_rng(0)
        m = random_mlr(3, k=4, m=6)
        shift = rng.normal(size=6)
        shifted = MlrModel(m.weights + shift, m.biases)
        x = rng.uniform(size=(20, 6))
        np.testing.assert_array_equal(predict_labels(m, x),
                                      predict_labels(shifted, x))


class TestGradients:
    def test_matches_central_differences(self):
        for seed, (batch, l2) in enumerate([(1, 0.0), (7, 0.0), (5, 0.3)] * 2):
            rng = make_rng(seed)
            k, mm = int(rng.integers(2, 5)), int(rng.integers(2, 11))
            model = random_mlr(seed + 100, k, mm, scale=0.7)
            x = rng.uniform(size=(batch, mm))
            labels = rng.integers(1, k + 1, size=batch)
            gw, gb = batch_grads(model.weights, model.biases, x, labels, l2)

            def f():
                return cross_entropy(model, x, labels, l2)

            assert grads_close(gw, central_diff(f, model.weights))
            assert grads_close(gb, central_diff(f, model.biases))

    def test_batch_of_one_is_the_outer_product_bit_for_bit(self):
        for seed in range(5):
            rng = make_rng(seed)
            k, mm = int(rng.integers(2, 11)), int(rng.integers(2, 800))
            model = random_mlr(seed + 200, k, mm, scale=0.3)
            x = rng.uniform(size=(1, mm))
            label = rng.integers(1, k + 1, size=1)
            delta = softmax(x @ model.weights.T + model.biases)[0]
            delta[label[0] - 1] -= 1.0
            gw, gb = batch_grads(model.weights, model.biases, x, label, 0.0)
            assert np.array_equal(gw, np.outer(delta, x[0]))
            assert np.array_equal(gb, delta)


def separable_toy():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([1, 1, 2, 2])
    return Dataset(x, labels, 2)


class TestTraining:
    def test_separable_toy_reaches_zero_training_error(self):
        d = separable_toy()
        model = train_mlr(d, d, TrainConfig(0.1, 200, 200), make_rng(5))
        assert np.array_equal(predict_labels(model, d.x), d.labels)

    def test_bitwise_deterministic(self):
        d = separable_toy()
        cfg = TrainConfig(0.1, 50, 10)
        a = train_mlr(d, d, cfg, make_rng(9))
        b = train_mlr(d, d, cfg, make_rng(9))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_returns_best_validation_snapshot(self):
        rng = make_rng(4)
        train = Dataset(rng.uniform(size=(40, 3)),
                        rng.integers(1, 3, size=40), 2)
        valid = Dataset(rng.uniform(size=(20, 3)),
                        rng.integers(1, 3, size=20), 2)
        model, history = train_mlr(train, valid, TrainConfig(0.5, 30, 30),
                                   make_rng(1), return_history=True)
        returned_err = float(np.mean(predict_labels(model, valid.x)
                                     != valid.labels))
        assert all(returned_err <= err for _, err in history)

    def test_overflowing_learning_rate_raises_with_the_epoch(self):
        d = separable_toy()
        with pytest.raises(DivergenceError,
                           match=r"MLR training diverged at epoch \d"):
            train_mlr(d, d, TrainConfig(1e308, 5, 5), make_rng(0))

    def test_empty_training_set_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DataError):
            train_mlr(empty, separable_toy(), TrainConfig(0.1, 5, 2),
                      make_rng(0))

    def test_empty_validation_set_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DataError):
            train_mlr(separable_toy(), empty, TrainConfig(0.1, 5, 2),
                      make_rng(0))

    def test_k_mismatch_rejected(self):
        d = separable_toy()
        other = Dataset(d.x, d.labels, 3)
        with pytest.raises(DataError):
            train_mlr(d, other, TrainConfig(0.1, 5, 2), make_rng(0))


class TestEvaluate:
    def test_wald_matches_published_presentation(self):
        # 11.85% over 50000 examples prints as +/-0.28.
        hw = wald_halfwidth(0.1185, 50000)
        assert hw == pytest.approx(0.0028329662631242187, abs=1e-15)
        assert round(100 * hw, 2) == 0.28

    def test_all_correct(self):
        d = separable_toy()
        report = evaluate(lambda x: d.labels, d)
        assert report.error_rate == 0.0
        assert report.ci95_halfwidth == 0.0
        assert report.n == 4

    def test_half_wrong_halfwidth(self):
        assert wald_halfwidth(0.5, 100) == pytest.approx(0.098, abs=1e-15)

    def test_error_report_invariant(self):
        report = ErrorReport.from_rate(0.25, 64)
        assert report.ci95_halfwidth == wald_halfwidth(0.25, 64)

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DataError):
            evaluate(lambda x: np.zeros(0), empty)
