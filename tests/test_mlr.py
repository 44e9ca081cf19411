import numpy as np
import pytest

from sdae_ivs.data import Dataset
from sdae_ivs.errors import DataError, DimensionError, DivergenceError
from sdae_ivs import mlr
from sdae_ivs.mlr import (MlrModel, TrainConfig, batch_grads,
                          evaluate, one_hot, predict_labels, train_mlr,
                          wald_halfwidth, workspace)
from sdae_ivs.numerics import derive_rng, softmax
from util import (CONSECUTIVE_RUNS, assert_tiles, captured_step, central_diff,
                  cross_entropy, flatten, fresh_mlr_grads, grads_close,
                  per_step_train_mlr, random_mlr, split_like)


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
        rng = derive_rng(0)
        m = random_mlr(3, k=4, m=6)
        shift = rng.normal(size=6)
        shifted = MlrModel(m.weights + shift, m.biases)
        x = rng.uniform(size=(20, 6))
        np.testing.assert_array_equal(predict_labels(m, x),
                                      predict_labels(shifted, x))


class TestGradients:
    def test_matches_central_differences(self):
        for seed, batch in enumerate([1, 7, 5] * 2):
            rng = derive_rng(seed)
            k, mm = int(rng.integers(2, 5)), int(rng.integers(2, 11))
            model = random_mlr(seed + 100, k, mm, scale=0.7)
            x = rng.uniform(size=(batch, mm))
            labels = rng.integers(1, k + 1, size=batch)
            targets = one_hot(labels, k)
            gw, gb = split_like(
                batch_grads(model.weights, model.biases, x, targets,
                            workspace(model.weights, targets, batch)),
                (model.weights, model.biases))

            def f():
                return cross_entropy(model, x, labels)

            assert grads_close(gw, central_diff(f, model.weights))
            assert grads_close(gb, central_diff(f, model.biases))

    def test_batch_of_one_is_the_outer_product_bit_for_bit(self):
        for seed in range(5):
            rng = derive_rng(seed)
            k, mm = int(rng.integers(2, 11)), int(rng.integers(2, 800))
            model = random_mlr(seed + 200, k, mm, scale=0.3)
            x = rng.uniform(size=(1, mm))
            label = rng.integers(1, k + 1, size=1)
            delta = softmax(x @ model.weights.T + model.biases)[0]
            delta[label[0] - 1] -= 1.0
            targets = one_hot(label, k)
            gw, gb = split_like(
                batch_grads(model.weights, model.biases, x, targets,
                            workspace(model.weights, targets, 1)),
                (model.weights, model.biases))
            assert np.array_equal(gw, np.outer(delta, x[0]))
            assert np.array_equal(gb, delta)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_label_vector_targets_raise(self, batch):
        # B = 1 and B = K (here 3) are the shapes at which a (B,) label
        # vector would broadcast against the (B, K) softmax. The workspace
        # checks the targets once, so no step has to.
        model = random_mlr(7, 3, 4)
        labels = np.arange(1, batch + 1)
        with pytest.raises(DimensionError, match=r"one-hot \(%d, 3\)" % batch):
            workspace(model.weights, labels, batch)

    def test_consecutive_steps_match_the_fresh_reference(self):
        # Each workspace serves the CONSECUTIVE_RUNS in turn: no step may
        # see a stale array, and the flat buffer sgd reads holds them all.
        model = random_mlr(8, 4, 6)
        rng = derive_rng(8)
        x, labels = rng.uniform(size=(6, 6)), rng.integers(1, 5, size=6)
        targets = one_hot(labels, 4)
        for batch, runs in CONSECUTIVE_RUNS:
            ws = workspace(model.weights, targets, batch)
            for lo, hi in runs:
                got = batch_grads(model.weights, model.biases, x[lo:hi],
                                  targets[lo:hi], ws)
                want = fresh_mlr_grads(model.weights, model.biases, x[lo:hi],
                                       labels[lo:hi])
                assert got is ws.grad
                assert np.array_equal(got, flatten(want))

    def test_oracle_checks_the_step_sgd_takes(self, monkeypatch):
        rng = derive_rng(9)
        d = Dataset(rng.uniform(size=(20, 5)), rng.integers(1, 4, size=20), 3)
        params, step, model = captured_step(monkeypatch, mlr, lambda: train_mlr(
            d, d, TrainConfig(0.3, 3, 3, minibatch_size=4), derive_rng(9)))
        assert_tiles(params, (model.weights, model.biases))
        x, labels = d.x[:4], d.labels[:4]
        gw, gb = split_like(step(x, one_hot(labels, 3)),
                            (model.weights, model.biases))

        def f():
            return cross_entropy(model, x, labels)

        assert grads_close(gw, central_diff(f, model.weights))
        assert grads_close(gb, central_diff(f, model.biases))


def separable_toy():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([1, 1, 2, 2])
    return Dataset(x, labels, 2)


class TestTraining:
    def test_separable_toy_reaches_zero_training_error(self):
        d = separable_toy()
        model = train_mlr(d, d, TrainConfig(0.1, 200, 200), derive_rng(5))
        assert np.array_equal(predict_labels(model, d.x), d.labels)

    def test_bitwise_deterministic(self):
        d = separable_toy()
        cfg = TrainConfig(0.1, 50, 10)
        a = train_mlr(d, d, cfg, derive_rng(9))
        b = train_mlr(d, d, cfg, derive_rng(9))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    @pytest.mark.parametrize("batch", [1, 3, 5])
    def test_matches_the_per_step_reference_bit_for_bit(self, batch):
        rng = derive_rng(6)
        x = rng.uniform(size=(52, 9))
        labels = 1 + (x[:, 0] > 0.5) + 2 * (x[:, 1] > 0.5)
        train, valid = Dataset(x[:37], labels[:37], 4), \
            Dataset(x[37:], labels[37:], 4)
        cfg = TrainConfig(0.3, 8, 8, minibatch_size=batch)
        model = train_mlr(train, valid, cfg, derive_rng(7))
        reference = per_step_train_mlr(train, valid, cfg, derive_rng(7))
        assert np.any(model.weights != 0.0)
        assert np.array_equal(model.weights, reference.weights)
        assert np.array_equal(model.biases, reference.biases)

    def test_returns_best_validation_snapshot(self):
        rng = derive_rng(4)
        train = Dataset(rng.uniform(size=(40, 3)),
                        rng.integers(1, 3, size=40), 2)
        valid = Dataset(rng.uniform(size=(20, 3)),
                        rng.integers(1, 3, size=20), 2)
        model, history = train_mlr(train, valid, TrainConfig(0.5, 30, 30),
                                   derive_rng(1), return_history=True)
        returned_err = float(np.mean(predict_labels(model, valid.x)
                                     != valid.labels))
        assert all(returned_err <= err for _, err in history)

    def test_overflowing_learning_rate_raises_with_the_epoch(self):
        d = separable_toy()
        with pytest.raises(DivergenceError,
                           match=r"MLR training diverged at epoch \d"):
            train_mlr(d, d, TrainConfig(1e308, 5, 5), derive_rng(0))

    def test_empty_training_set_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DataError):
            train_mlr(empty, separable_toy(), TrainConfig(0.1, 5, 2),
                      derive_rng(0))

    def test_empty_validation_set_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DataError):
            train_mlr(separable_toy(), empty, TrainConfig(0.1, 5, 2),
                      derive_rng(0))

    def test_k_mismatch_rejected(self):
        d = separable_toy()
        other = Dataset(d.x, d.labels, 3)
        with pytest.raises(DataError):
            train_mlr(d, other, TrainConfig(0.1, 5, 2), derive_rng(0))


class TestEvaluate:
    def test_wald_matches_published_presentation(self):
        # 11.85% over 50000 examples prints as +/-0.28.
        hw = wald_halfwidth(0.1185, 50000)
        assert hw == pytest.approx(0.0028329662631242187, abs=1e-15)
        assert round(100 * hw, 2) == 0.28

    def test_all_correct(self):
        d = separable_toy()
        assert evaluate(lambda x: d.labels, d) == 0.0

    def test_half_wrong_halfwidth(self):
        assert wald_halfwidth(0.5, 100) == pytest.approx(0.098, abs=1e-15)

    def test_error_report_invariant(self):
        labels = np.arange(64) % 2 + 1
        d = Dataset(np.zeros((64, 2)), labels, 2)
        wrong = np.where(np.arange(64) < 16, 3 - labels, labels)
        assert evaluate(lambda x: wrong, d) == 0.25

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DataError):
            evaluate(lambda x: np.zeros(0), empty)
