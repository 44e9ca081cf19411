import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sdae_ivs import dae
from sdae_ivs.dae import (DaeModel, DaeTrainConfig, corrupt, decode, encode,
                          encode_dataset, gradient, init_dae, loss, train_dae)
from sdae_ivs.data import Dataset
from sdae_ivs.errors import DataError, DivergenceError
from sdae_ivs.numerics import derive_rng, sgd
from util import (CONSECUTIVE_RUNS, assert_tiles, captured_step, central_diff,
                  flatten, fresh_dae_grads, grads_close, per_step_train_dae,
                  split_like, step_peak)


def tiny_model(seed=0, h=3, m=4):
    rng = derive_rng(seed)
    return DaeModel(rng.normal(scale=0.8, size=(h, m)),
                    rng.normal(scale=0.5, size=h),
                    rng.normal(scale=0.5, size=m))


class TestCorrupt:
    def test_zero_noise_is_identity(self):
        x = np.array([0.1, 0.9])
        np.testing.assert_array_equal(corrupt(x, 0.0, derive_rng(1)), x)

    def test_unbiased(self):
        # Componentwise standard error is 0.2/sqrt(1e4) = 0.002.
        x = np.array([0.3, 0.6, 0.9])
        rng = derive_rng(2)
        draws = np.stack([corrupt(x, 0.2, rng) for _ in range(10_000)])
        np.testing.assert_allclose(draws.mean(axis=0), x, atol=0.01)

    def test_deterministic_under_seed(self):
        x = np.linspace(0, 1, 5)
        a = corrupt(x, 0.3, derive_rng(3))
        b = corrupt(x, 0.3, derive_rng(3))
        assert np.array_equal(a, b)

    def test_one_row_batch_draws_the_vector_noise(self):
        x = np.linspace(0, 1, 5)
        a = corrupt(x, 0.3, derive_rng(3))
        b = corrupt(x[None, :], 0.3, derive_rng(3))
        assert b.shape == (1, 5) and np.array_equal(a, b[0])

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            corrupt(np.zeros(2), -0.1, derive_rng(0))

    def test_float32_rows_take_the_float64_stream_rounded(self):
        x = np.linspace(0, 1, 6, dtype=np.float32)
        noise = corrupt(np.zeros(6), 0.3, derive_rng(4))
        got = corrupt(x, 0.3, derive_rng(4))
        assert got.dtype == np.float32
        assert np.array_equal(got, noise.astype(np.float32) + x)


class TestEncodeDecode:
    def test_zero_parameters_encode_to_half(self):
        m = DaeModel(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        np.testing.assert_array_equal(encode(m, np.array([0.4, 0.6])),
                                      np.full(3, 0.5))

    def test_single_unit_cancellation(self):
        m = DaeModel(np.array([[1.0, -1.0]]), np.zeros(1), np.zeros(2))
        assert encode(m, np.array([1.0, 1.0]))[0] == 0.5

    def test_codes_strictly_inside_unit_interval(self):
        m = tiny_model(4)
        rng = derive_rng(5)
        for _ in range(20):
            h = encode(m, rng.uniform(size=4))
            assert np.all(h > 0) and np.all(h < 1)

    def test_zero_parameters_decode(self):
        m = DaeModel(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        np.testing.assert_array_equal(decode(m, np.full(3, 0.7)), [0.5, 0.5])

    def test_tied_weights_alias_is_observable(self):
        m = tiny_model(6)
        h = np.full(3, 0.5)
        before = decode(m, h)
        m.weights += 0.5
        after = decode(m, h)
        assert not np.array_equal(before, after)

    def test_batch_encode_peaks_at_two_outputs(self):
        # The layer is worked out in its output array, with one temporary
        # (sigmoid's numerator) beside it; 4 kB covers the array headers.
        m = tiny_model(7, h=400, m=50)
        x = derive_rng(8).uniform(size=(2000, 50))
        encode(m, x)
        tracemalloc.start()
        try:
            encode(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (2000 * 400 * 8) + 4096


class TestLoss:
    def test_cross_entropy_at_half(self):
        value = loss(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert value == pytest.approx(1.3862943611198906, abs=1e-14)

    def test_cross_entropy_minimized_at_target(self):
        x = np.array([0.3])
        at = loss(x, np.array([0.3]))
        assert at < loss(x, np.array([0.2]))
        assert at < loss(x, np.array([0.4]))

    def test_non_negative(self):
        rng = derive_rng(8)
        for _ in range(50):
            x = rng.uniform(size=4)
            y = rng.uniform(0.01, 0.99, size=4)
            assert loss(x, y) >= 0.0

    def test_saturated_reconstruction_is_clipped_in_its_own_dtype(self):
        # A float32 1.0 is clipped to the float32 below 1, not float64's.
        below = np.nextafter(np.float32(1), np.float32(0))
        value = loss(np.zeros(1, np.float32), np.ones(1, np.float32))
        assert value == pytest.approx(-np.log1p(-float(below)), rel=1e-6)


class TestGradients:
    def test_tied_weight_gradients_match_finite_differences(self):
        for seed, batch in zip(range(6), (1, 5, 1, 5, 1, 5)):
            model = tiny_model(seed, h=3, m=4)
            rng = derive_rng(50 + seed)
            x_clean = rng.uniform(0.05, 0.95, size=(batch, 4))
            x_in = x_clean + rng.normal(0, 0.1, size=(batch, 4))
            gw, gbe, gbd = split_like(
                gradient(model, batch)(x_clean, x_in),
                (model.weights, model.encoder_bias, model.decoder_bias))

            def f():
                y = decode(model, encode(model, x_in))
                return np.mean([loss(a, b) for a, b in zip(x_clean, y)])

            assert grads_close(gw, central_diff(f, model.weights))
            assert grads_close(gbe, central_diff(f, model.encoder_bias))
            assert grads_close(gbd, central_diff(f, model.decoder_bias))

    def test_consecutive_steps_match_the_fresh_reference(self):
        # Each gradient closure serves the CONSECUTIVE_RUNS in turn: no
        # step may see a stale array, and every step returns the one flat
        # buffer that sgd reads.
        model = tiny_model(7, h=3, m=4)
        rng = derive_rng(57)
        x_clean = rng.uniform(0.05, 0.95, size=(6, 4))
        x_in = x_clean + rng.normal(0, 0.1, size=(6, 4))
        for batch, runs in CONSECUTIVE_RUNS:
            grads, returned = gradient(model, batch), []
            for lo, hi in runs:
                returned.append(grads(x_clean[lo:hi], x_in[lo:hi]))
                want = fresh_dae_grads(model, x_clean[lo:hi], x_in[lo:hi])
                assert np.array_equal(returned[-1], flatten(want))
            assert all(got is returned[0] for got in returned)

    @pytest.mark.parametrize("batch", [1, 5])
    def test_steps_allocate_no_parameter_sized_array(self, batch):
        # The closure's buffers are built once per fit. A step's own
        # temporary is sigmoid's numerator, one (B, H) or (B, M') array;
        # a (300, 200) one would take 480 kB. 2 kB covers the headers.
        model = tiny_model(4, h=300, m=200)
        rng = derive_rng(60)
        x_clean = rng.uniform(size=(10 * batch, 200))
        x_in = x_clean + rng.normal(0, 0.1, size=x_clean.shape)
        batches = [(x_clean[lo:lo + batch], x_in[lo:lo + batch])
                   for lo in range(0, len(x_in), batch)]
        grads = gradient(model, batch)
        once = step_peak(grads, batches, 1)
        assert step_peak(grads, batches, 200) == once
        assert once < 8 * batch * 300 + 2048

    def test_oracle_checks_the_step_sgd_takes(self, monkeypatch):
        d = Dataset(derive_rng(58).uniform(size=(10, 4)), np.ones(10, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=3, noise_sd=0.2, learning_rate=0.1,
                             epochs=2)
        params, step, model = captured_step(
            monkeypatch, dae, lambda: train_dae(d, cfg, derive_rng(58)))
        arrays = (model.weights, model.encoder_bias, model.decoder_bias)
        assert_tiles(params, arrays)
        x_clean = d.x[:1]
        x_in = x_clean + derive_rng(59).normal(0, 0.1, size=(1, 4))
        gw, gbe, gbd = split_like(step(x_clean, x_in), arrays)

        def f():
            return loss(x_clean[0], decode(model, encode(model, x_in[0])))

        assert grads_close(gw, central_diff(f, model.weights))
        assert grads_close(gbe, central_diff(f, model.encoder_bias))
        assert grads_close(gbd, central_diff(f, model.decoder_bias))


def minibatch_train_dae(train, cfg, rng, batch):
    """train_dae at a batch size it has no key for, from the same steps."""
    params, model = init_dae(train.m, cfg, rng, train.x.dtype)
    sgd("DAE pre-training", params, gradient(model, batch),
        cfg.learning_rate, (train.x,), cfg.epochs, rng, batch=batch,
        per_epoch=lambda x: (corrupt(x, cfg.noise_sd, rng),))
    return model


def one_example_dataset():
    x = np.array([[0.2, 0.8, 0.5, 0.4]])
    return Dataset(x, np.array([1]), 1)


class TestTraining:
    def test_loss_decreases_monotonically_when_overfitting(self):
        d = one_example_dataset()
        cfg = DaeTrainConfig(hidden_units=4, noise_sd=0.0, learning_rate=0.1,
                             epochs=10)
        # A k-epoch run consumes a prefix of the same random stream, so
        # model k is the 10-epoch run's model after its k-th step.
        history = []
        for k in range(cfg.epochs + 1):
            model = train_dae(d, replace(cfg, epochs=k), derive_rng(3))
            history.append(loss(d.x[0], decode(model, encode(model, d.x[0]))))
        assert all(a > b for a, b in zip(history, history[1:]))

    def test_one_example_squared_loss_driven_tiny(self):
        # Cross-entropy training drives the squared reconstruction error of
        # a single clean example towards zero.
        d = one_example_dataset()
        cfg = DaeTrainConfig(hidden_units=4, noise_sd=0.0, learning_rate=0.5,
                             epochs=3000)
        model = train_dae(d, cfg, derive_rng(3))
        diff = decode(model, encode(model, d.x[0])) - d.x[0]
        assert diff @ diff < 1e-12

    def test_bitwise_deterministic(self):
        rng = derive_rng(11)
        d = Dataset(rng.uniform(size=(12, 5)), np.ones(12, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=3, noise_sd=0.2, learning_rate=0.1,
                             epochs=4)
        a = train_dae(d, cfg, derive_rng(21))
        b = train_dae(d, cfg, derive_rng(21))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.encoder_bias, b.encoder_bias)
        assert np.array_equal(a.decoder_bias, b.decoder_bias)

    def test_matches_the_per_step_reference_bit_for_bit(self):
        # 23 rows leave a tail batch of 2 at batch 3.
        d = Dataset(derive_rng(14).uniform(size=(23, 7)), np.ones(23, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=5, noise_sd=0.3, learning_rate=0.1,
                             epochs=3)
        for batch in (1, 3):
            model = train_dae(d, cfg, derive_rng(8)) if batch == 1 \
                else minibatch_train_dae(d, cfg, derive_rng(8), batch)
            reference = per_step_train_dae(d, cfg, derive_rng(8), batch)
            assert np.array_equal(model.weights, reference.weights)
            assert np.array_equal(model.encoder_bias, reference.encoder_bias)
            assert np.array_equal(model.decoder_bias, reference.decoder_bias)

    def test_overflowing_learning_rate_raises_with_the_epoch(self):
        # The sigmoid decoder bounds each step's gradient, so only a rate
        # near the largest float overflows the parameters.
        d = Dataset(derive_rng(13).uniform(size=(12, 30)), np.ones(12, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=3, noise_sd=0.2, learning_rate=1e308,
                             epochs=3)
        with pytest.raises(DivergenceError,
                           match="DAE pre-training diverged at epoch 1"):
            train_dae(d, cfg, derive_rng(1))

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_inputs_outside_the_unit_interval_rejected(self, value):
        d = Dataset(np.array([[0.5, value]]), np.array([1]), 1)
        cfg = DaeTrainConfig(hidden_units=2, noise_sd=0.1, learning_rate=0.1,
                             epochs=1)
        with pytest.raises(DataError, match=r"inputs in \[0, 1\]"):
            train_dae(d, cfg, derive_rng(1))

    def test_init_bounds(self):
        cfg = DaeTrainConfig(hidden_units=8, noise_sd=0.1, learning_rate=0.1,
                             epochs=1)
        params, model = init_dae(16, cfg, derive_rng(1), np.float64)
        assert_tiles(params, (model.weights, model.encoder_bias,
                              model.decoder_bias))
        bound = 1.0 / 4.0
        assert np.all(np.abs(model.weights) <= bound)
        assert np.all(model.encoder_bias == 0.0)
        assert np.all(model.decoder_bias == 0.0)
        # float32 takes the same draws, rounded.
        params32, model32 = init_dae(16, cfg, derive_rng(1), np.float32)
        assert params32.dtype == np.float32
        assert np.array_equal(model32.weights,
                              model.weights.astype(np.float32))

    def test_later_epochs_hold_no_more_than_the_first(self):
        # Each epoch's gathered rows and corruption are freed before the
        # next epoch gathers its own; 4 kB covers the bookkeeping.
        train = Dataset(derive_rng(12).uniform(size=(600, 40)),
                        np.ones(600, dtype=np.int64), 1)

        def peak(epochs):
            cfg = DaeTrainConfig(hidden_units=16, noise_sd=0.2,
                                 learning_rate=0.1, epochs=epochs)
            tracemalloc.start()
            try:
                train_dae(train, cfg, derive_rng(13))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3) <= peak(1) + 4096


class TestEncodeDataset:
    def test_single_example(self):
        d = one_example_dataset()
        model = tiny_model(2, h=3, m=4)
        coded = encode_dataset(model, d)
        assert coded.n == 1 and coded.m == 3
        assert coded.labels.tolist() == [1]
        np.testing.assert_array_equal(coded.x[0], encode(model, d.x[0]))

    def test_codes_usable_as_upper_inputs(self):
        rng = derive_rng(9)
        d = Dataset(rng.uniform(size=(6, 4)), np.ones(6, dtype=int), 1)
        coded = encode_dataset(tiny_model(3), d)
        assert np.all(coded.x > 0) and np.all(coded.x < 1)

    def test_corruption_free_and_rng_independent(self):
        d = one_example_dataset()
        model = tiny_model(4)
        a = encode_dataset(model, d)
        b = encode_dataset(model, d)
        assert np.array_equal(a.x, b.x)
