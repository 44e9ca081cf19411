import tracemalloc

import numpy as np
import pytest

from sdae_ivs.data import Dataset
from sdae_ivs.errors import DataError, DivergenceError
from sdae_ivs import mlr
from sdae_ivs.mlr import (MlrModel, TrainConfig, evaluate, gradient, one_hot,
                          predict_labels, train_mlr, wald_halfwidth)
from sdae_ivs.numerics import derive_rng, softmax
from util import (CONSECUTIVE_RUNS, assert_tiles, captured_step, central_diff,
                  cross_entropy, flatten, fresh_mlr_grads, grads_close,
                  per_step_train_mlr, random_mlr, split_like, step_peak)


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

    def test_peak_memory_is_one_logits_array_and_the_labels(self):
        # 8192 rows at K = 10: the logits take 640 kB and the labels 64 kB;
        # 4 kB covers the array headers.
        m = random_mlr(4, k=10, m=100)
        x = derive_rng(4).uniform(size=(8192, 100))
        tracemalloc.start()
        try:
            labels = predict_labels(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(labels, np.argmax(x @ m.weights.T + m.biases,
                                                axis=1) + 1)
        assert peak <= 8192 * 10 * 8 + labels.nbytes + 4096


class TestGradients:
    def test_matches_central_differences(self):
        for seed, batch in enumerate([1, 7, 5] * 2):
            rng = derive_rng(seed)
            k, mm = int(rng.integers(2, 5)), int(rng.integers(2, 11))
            model = random_mlr(seed + 100, k, mm, scale=0.7)
            x = rng.uniform(size=(batch, mm))
            labels = rng.integers(1, k + 1, size=batch)
            targets = one_hot(labels, k, np.float64)
            gw, gb = split_like(gradient(model, batch)(x, targets),
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
            targets = one_hot(label, k, np.float64)
            gw, gb = split_like(gradient(model, 1)(x, targets),
                                (model.weights, model.biases))
            assert np.array_equal(gw, np.outer(delta, x[0]))
            assert np.array_equal(gb, delta)

    def test_consecutive_steps_match_the_fresh_reference(self):
        # Each gradient closure serves the CONSECUTIVE_RUNS in turn: no
        # step may see a stale array, and every step returns the one flat
        # buffer that sgd reads.
        model = random_mlr(8, 4, 6)
        rng = derive_rng(8)
        x, labels = rng.uniform(size=(6, 6)), rng.integers(1, 5, size=6)
        targets = one_hot(labels, 4, np.float64)
        for batch, runs in CONSECUTIVE_RUNS:
            grads, returned = gradient(model, batch), []
            for lo, hi in runs:
                returned.append(grads(x[lo:hi], targets[lo:hi]))
                want = fresh_mlr_grads(model.weights, model.biases, x[lo:hi],
                                       labels[lo:hi])
                assert np.array_equal(returned[-1], flatten(want))
            assert all(got is returned[0] for got in returned)

    @pytest.mark.parametrize("batch", [1, 5])
    def test_steps_allocate_no_parameter_sized_array(self, batch):
        # The closure's buffers are built once per fit, and a step makes
        # no temporary of (B, K) or more; a (10, 300) one would take 24 kB.
        # 2 kB covers the headers.
        model = random_mlr(10, 10, 300)
        rng = derive_rng(10)
        x = rng.uniform(size=(10 * batch, 300))
        targets = one_hot(rng.integers(1, 11, size=len(x)), 10, np.float64)
        batches = [(x[lo:lo + batch], targets[lo:lo + batch])
                   for lo in range(0, len(x), batch)]
        grads = gradient(model, batch)
        once = step_peak(grads, batches, 1)
        assert step_peak(grads, batches, 200) == once
        assert once < 8 * batch * 300 + 2048

    def test_oracle_checks_the_step_sgd_takes(self, monkeypatch):
        rng = derive_rng(9)
        d = Dataset(rng.uniform(size=(20, 5)), rng.integers(1, 4, size=20), 3)
        params, step, model = captured_step(monkeypatch, mlr, lambda: train_mlr(
            d, d, TrainConfig(0.3, 3, 3, minibatch_size=4), derive_rng(9)))
        assert_tiles(params, (model.weights, model.biases))
        x, labels = d.x[:4], d.labels[:4]
        gw, gb = split_like(step(x, one_hot(labels, 3, np.float64)),
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


class TestOneHot:
    def test_rows_of_the_identity(self):
        labels = derive_rng(3).integers(1, 11, size=300)
        for dtype in (np.float64, np.float32):
            targets = one_hot(labels, 10, dtype)
            assert targets.dtype == dtype and targets.flags.c_contiguous
            assert np.array_equal(targets, np.eye(10)[labels - 1])

    def test_peak_memory_is_the_targets_alone_at_large_k(self):
        # 31 labels of 4001 classes: the targets take 1 MB, and a 4001 x
        # 4001 identity would take 128 MB.
        labels = np.arange(1, 4002, 133)
        tracemalloc.start()
        try:
            targets = one_hot(labels, 4001, np.float64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert targets.shape == (31, 4001)
        assert peak < 1.1 * targets.nbytes


class TestEvaluate:
    def test_wald_matches_published_presentation(self):
        # 11.85% over 50000 examples prints as +/-0.28.
        hw = wald_halfwidth(0.1185, 50000)
        assert hw == pytest.approx(0.0028329662631242187, abs=1e-15)
        assert round(100 * hw, 2) == 0.28

    def test_all_correct(self):
        d = separable_toy()
        assert evaluate(d.labels, d) == 0.0

    def test_half_wrong_halfwidth(self):
        assert wald_halfwidth(0.5, 100) == pytest.approx(0.098, abs=1e-15)

    def test_error_report_invariant(self):
        labels = np.arange(64) % 2 + 1
        d = Dataset(np.zeros((64, 2)), labels, 2)
        wrong = np.where(np.arange(64) < 16, 3 - labels, labels)
        assert evaluate(wrong, d) == 0.25

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DataError):
            evaluate(np.zeros(0, dtype=np.int64), empty)
