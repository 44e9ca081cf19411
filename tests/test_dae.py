import numpy as np
import pytest

import sdae_ivs.dae as dae_mod
from sdae_ivs.dae import (CROSS_ENTROPY, IDENTITY, SIGMOID, SQUARED, DaeModel,
                          DaeTrainConfig, corrupt, decode, encode,
                          encode_dataset, grads, init_dae, loss, train_dae)
from sdae_ivs.data import Dataset
from sdae_ivs.errors import ConfigError, DivergenceError
from sdae_ivs.numerics import make_rng
from util import central_diff, grads_close


def tiny_model(seed=0, h=3, m=4, decoder=SIGMOID):
    rng = make_rng(seed)
    return DaeModel(rng.normal(scale=0.8, size=(h, m)),
                    rng.normal(scale=0.5, size=h),
                    rng.normal(scale=0.5, size=m),
                    decoder)


class TestCorrupt:
    def test_zero_noise_is_identity(self):
        x = np.array([0.1, 0.9])
        np.testing.assert_array_equal(corrupt(x, 0.0, make_rng(1)), x)

    def test_unbiased(self):
        # Componentwise standard error is 0.2/sqrt(1e4) = 0.002.
        x = np.array([0.3, 0.6, 0.9])
        rng = make_rng(2)
        draws = np.stack([corrupt(x, 0.2, rng) for _ in range(10_000)])
        np.testing.assert_allclose(draws.mean(axis=0), x, atol=0.01)

    def test_deterministic_under_seed(self):
        x = np.linspace(0, 1, 5)
        a = corrupt(x, 0.3, make_rng(3))
        b = corrupt(x, 0.3, make_rng(3))
        assert np.array_equal(a, b)

    def test_one_row_batch_draws_the_vector_noise(self):
        x = np.linspace(0, 1, 5)
        a = corrupt(x, 0.3, make_rng(3))
        b = corrupt(x[None, :], 0.3, make_rng(3))
        assert b.shape == (1, 5) and np.array_equal(a, b[0])

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            corrupt(np.zeros(2), -0.1, make_rng(0))


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
        rng = make_rng(5)
        for _ in range(20):
            h = encode(m, rng.uniform(size=4))
            assert np.all(h > 0) and np.all(h < 1)

    def test_zero_parameters_decode(self):
        m = DaeModel(np.zeros((3, 2)), np.zeros(3), np.zeros(2), SIGMOID)
        np.testing.assert_array_equal(decode(m, np.full(3, 0.7)), [0.5, 0.5])
        ident = DaeModel(np.zeros((3, 2)), np.zeros(3), np.zeros(2), IDENTITY)
        np.testing.assert_array_equal(decode(ident, np.full(3, 0.7)), [0.0, 0.0])

    def test_tied_weights_alias_is_observable(self):
        m = tiny_model(6)
        h = np.full(3, 0.5)
        before = decode(m, h)
        m.weights += 0.5
        after = decode(m, h)
        assert not np.array_equal(before, after)


class TestLoss:
    def test_squared_zero_at_equality(self):
        x = np.array([0.2, 0.8])
        assert loss(x, x, SQUARED) == 0.0

    def test_cross_entropy_at_half(self):
        value = loss(np.array([0.5, 0.5]), np.array([0.5, 0.5]), CROSS_ENTROPY)
        assert value == pytest.approx(1.3862943611198906, abs=1e-14)

    def test_cross_entropy_minimized_at_target(self):
        x = np.array([0.3])
        at = loss(x, np.array([0.3]), CROSS_ENTROPY)
        assert at < loss(x, np.array([0.2]), CROSS_ENTROPY)
        assert at < loss(x, np.array([0.4]), CROSS_ENTROPY)

    def test_cross_entropy_identity_decoder_rejected(self):
        with pytest.raises(ConfigError):
            DaeTrainConfig(4, 0.1, 0.1, 10, seed=0,
                           loss_kind=CROSS_ENTROPY, decoder_activation=IDENTITY)
        m = tiny_model(decoder=IDENTITY)
        with pytest.raises(ConfigError):
            grads(m, np.zeros(4), np.zeros(4), CROSS_ENTROPY)

    def test_non_negative(self):
        rng = make_rng(8)
        for _ in range(50):
            x = rng.uniform(size=4)
            y = rng.uniform(0.01, 0.99, size=4)
            assert loss(x, y, CROSS_ENTROPY) >= 0.0
            assert loss(x, y, SQUARED) >= 0.0


class TestGradients:
    @pytest.mark.parametrize("kind,decoder", [
        (CROSS_ENTROPY, SIGMOID),
        (SQUARED, SIGMOID),
        (SQUARED, IDENTITY),
    ])
    def test_tied_weight_gradients_match_finite_differences(self, kind, decoder):
        for seed, batch in zip(range(6), (1, 5, 1, 5, 1, 5)):
            model = tiny_model(seed, h=3, m=4, decoder=decoder)
            rng = make_rng(50 + seed)
            x_clean = rng.uniform(0.05, 0.95, size=(batch, 4))
            x_in = x_clean + rng.normal(0, 0.1, size=(batch, 4))
            _, gw, gbe, gbd = grads(model, x_clean, x_in, kind)

            def f():
                y = decode(model, encode(model, x_in))
                return np.mean([loss(a, b, kind) for a, b in zip(x_clean, y)])

            assert grads_close(gw, central_diff(f, model.weights))
            assert grads_close(gbe, central_diff(f, model.encoder_bias))
            assert grads_close(gbd, central_diff(f, model.decoder_bias))


def one_example_dataset():
    x = np.array([[0.2, 0.8, 0.5, 0.4]])
    return Dataset(x, np.array([1]), 1)


class TestTraining:
    def test_loss_decreases_monotonically_when_overfitting(self):
        d = one_example_dataset()
        cfg = DaeTrainConfig(hidden_units=4, noise_sd=0.0, learning_rate=0.1,
                             epochs=10, seed=3)
        _, history = train_dae(d, cfg, return_history=True)
        assert all(a > b for a, b in zip(history, history[1:]))

    def test_one_example_squared_loss_driven_tiny(self):
        d = one_example_dataset()
        cfg = DaeTrainConfig(hidden_units=4, noise_sd=0.0, learning_rate=0.5,
                             epochs=3000, seed=3, loss_kind=SQUARED,
                             decoder_activation=IDENTITY)
        model = train_dae(d, cfg)
        reconstructed = decode(model, encode(model, d.x[0]))
        assert loss(d.x[0], reconstructed, SQUARED) < 1e-3

    def test_bitwise_deterministic(self):
        rng = make_rng(11)
        d = Dataset(rng.uniform(size=(12, 5)), np.ones(12, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=3, noise_sd=0.2, learning_rate=0.1,
                             epochs=4, seed=21)
        a = train_dae(d, cfg)
        b = train_dae(d, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.encoder_bias, b.encoder_bias)
        assert np.array_equal(a.decoder_bias, b.decoder_bias)

    def test_loss_computed_only_when_recorded(self, monkeypatch):
        rng = make_rng(12)
        d = Dataset(rng.uniform(size=(10, 4)), np.ones(10, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=3, noise_sd=0.2, learning_rate=0.1,
                             epochs=3, seed=5)
        calls = []

        def counted(*args):
            calls.append(1)
            return loss(*args)

        monkeypatch.setattr(dae_mod, "loss", counted)
        quiet = train_dae(d, cfg)
        assert calls == []
        recorded, history = train_dae(d, cfg, return_history=True)
        assert len(calls) == d.n * cfg.epochs and len(history) == cfg.epochs
        assert np.array_equal(quiet.weights, recorded.weights)
        assert np.array_equal(quiet.decoder_bias, recorded.decoder_bias)

    def test_overflowing_learning_rate_raises_with_the_epoch(self):
        d = Dataset(make_rng(13).uniform(size=(12, 5)), np.ones(12, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=3, noise_sd=0.2, learning_rate=1e300,
                             epochs=3, seed=1, loss_kind=SQUARED,
                             decoder_activation=IDENTITY)
        with pytest.raises(DivergenceError,
                           match="DAE pre-training diverged at epoch 1"):
            train_dae(d, cfg)

    def test_init_bounds(self):
        cfg = DaeTrainConfig(hidden_units=8, noise_sd=0.1, learning_rate=0.1,
                             epochs=1, seed=0)
        model = init_dae(16, cfg, make_rng(1))
        bound = 1.0 / 4.0
        assert np.all(np.abs(model.weights) <= bound)
        assert np.all(model.encoder_bias == 0.0)
        assert np.all(model.decoder_bias == 0.0)


class TestEncodeDataset:
    def test_single_example(self):
        d = one_example_dataset()
        model = tiny_model(2, h=3, m=4)
        coded = encode_dataset(model, d)
        assert coded.n == 1 and coded.m == 3
        assert coded.labels.tolist() == [1]
        np.testing.assert_array_equal(coded.x[0], encode(model, d.x[0]))

    def test_codes_usable_as_upper_inputs(self):
        rng = make_rng(9)
        d = Dataset(rng.uniform(size=(6, 4)), np.ones(6, dtype=int), 1)
        coded = encode_dataset(tiny_model(3), d)
        assert np.all(coded.x > 0) and np.all(coded.x < 1)

    def test_corruption_free_and_rng_independent(self):
        d = one_example_dataset()
        model = tiny_model(4)
        a = encode_dataset(model, d)
        b = encode_dataset(model, d)
        assert np.array_equal(a.x, b.x)
