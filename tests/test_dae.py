import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sdae_ivs import dae
from sdae_ivs.dae import (DaeModel, DaeTrainConfig, corrupt, decode, encode,
                          encode_dataset, init_dae, loss, train_dae)
from sdae_ivs.data import Dataset
from sdae_ivs.errors import DataError, DivergenceError
from sdae_ivs import numerics
from sdae_ivs.numerics import PENDING_ROWS, derive_rng, pack, sgd
from util import (ALTERNATING_RUNS, CONSECUTIVE_RUNS, assert_tiles,
                  captured_step, central_diff, chain_step,
                  check_alternating_steps, check_steps_allocate_no_array,
                  flatten, fresh_dae_grads,
                  grads_close, per_step_train_dae, step_direction,
                  two_branch_sigmoid)


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


def flat_model(seed, h, m):
    """tiny_model's arrays as views of one flat buffer, as a fit holds
    them: the buffer and the model. Weights wider than 4 inputs shrink by
    2 / sqrt(m), so that the wide layer's sigmoids do not saturate, where
    rounding in the loss swamps central differences."""
    params, views = pack(*arrays_of(tiny_model(seed, h, m)))
    views[0] *= min(1.0, 2.0 / np.sqrt(m))
    return params, DaeModel(*views)


def arrays_of(model):
    """The model's arrays themselves, in the order of its flat buffer."""
    return model.weights, model.encoder_bias, model.decoder_bias


def batch_loss(model, x_clean, x_in):
    """The batch-mean cross-entropy of the reconstructions of x_in against
    x_clean, from the plain formulas."""
    h = two_branch_sigmoid(x_in @ model.weights.T + model.encoder_bias)
    y = two_branch_sigmoid(h @ model.weights + model.decoder_bias)
    return -float(np.mean(np.sum(x_clean * np.log(y)
                                 + (1 - x_clean) * np.log1p(-y), axis=1)))


# (hidden units, input width) on each side of numerics.PENDING_SIZE: the
# small matrix takes eager steps, the wide one pending updates.
SIDES = {"eager": (3, 4), "pending": (128, 130)}


class TestGradients:
    def test_tied_weight_gradients_match_finite_differences(self):
        self.check_finite_differences("eager")

    def test_pending_steps_match_finite_differences(self):
        self.check_finite_differences("pending")

    @staticmethod
    def check_finite_differences(side):
        # One step and a write-back move each parameter by -lr times its
        # central difference.
        h, m = SIDES[side]
        for seed, batch in zip(range(6 if side == "eager" else 2), (1, 5) * 3):
            params, model = flat_model(seed, h, m)
            arrays = arrays_of(model)
            grads, pending = chain_step(model, batch, 0.1)
            assert len(pending) == (side == "pending")
            rng = derive_rng(50 + seed)
            x_clean = rng.uniform(0.05, 0.95, size=(batch, m))
            x_in = x_clean + rng.normal(0, 0.1, size=(batch, m))
            steps = step_direction(arrays, grads, pending, 0.1, x_in, x_clean)
            for g, p in zip(steps, arrays):
                assert grads_close(g, central_diff(
                    lambda: batch_loss(model, x_clean, x_in), p))

    def test_consecutive_steps_match_the_fresh_reference(self):
        # Each gradient closure serves the CONSECUTIVE_RUNS in turn: no
        # step may see a stale array, and every step returns the one flat
        # buffer that sgd reads.
        model = tiny_model(7, h=3, m=4)
        rng = derive_rng(57)
        x_clean = rng.uniform(0.05, 0.95, size=(6, 4))
        x_in = x_clean + rng.normal(0, 0.1, size=(6, 4))
        for batch, runs in CONSECUTIVE_RUNS:
            (grads, _), returned = chain_step(model, batch, 0.1), []
            for lo, hi in runs:
                returned.append(grads(x_in[lo:hi], x_clean[lo:hi]))
                want = fresh_dae_grads(model, x_clean[lo:hi], x_in[lo:hi])
                assert np.array_equal(returned[-1], flatten(want))
            assert all(got is returned[0] for got in returned)

    @pytest.mark.parametrize("side", ["eager", "pending"])
    def test_plans_serve_no_stale_view(self, side):
        # One closure takes the ALTERNATING_RUNS, each row count through
        # its own plan, and moves the model as sgd does in between.
        h, m = SIDES[side]
        _, model = flat_model(61, h, m)
        rng = derive_rng(61)
        x_clean = rng.uniform(0.05, 0.95, size=(15, m))
        x_in = x_clean + rng.normal(0, 0.1, size=x_clean.shape)
        grads, pending = chain_step(model, ALTERNATING_RUNS[0], 0.1)
        assert len(pending) == (side == "pending")
        check_alternating_steps(
            grads, pending, arrays_of(model),
            lambda lo, hi: (x_in[lo:hi], x_clean[lo:hi]),
            lambda lo, hi: fresh_dae_grads(model, x_clean[lo:hi],
                                           x_in[lo:hi]), 0.1)

    @pytest.mark.parametrize("batch", [1, 5])
    def test_steps_allocate_no_parameter_sized_array(self, batch):
        # A step's buffers are those of its plan, built by its first call
        # with B rows, and a Pending's write-back product is built once
        # per fit, so a step allocates no array: at one row it stays under
        # 768 bytes, where a (1, 100) float64 array takes 800 alone. The
        # (300, 200) matrix takes pending steps, the (100, 100) one eager
        # steps.
        for h, m in ((300, 200), (100, 100)):
            model = tiny_model(4, h=h, m=m)
            rng = derive_rng(60)
            x_clean = rng.uniform(size=(10 * batch, m))
            x_in = x_clean + rng.normal(0, 0.1, size=x_clean.shape)
            batches = [(x_in[lo:lo + batch], x_clean[lo:lo + batch])
                       for lo in range(0, len(x_in), batch)]
            grads, _ = chain_step(model, batch, 0.1)
            check_steps_allocate_no_array(grads, batches, max(h, m), 768)

    def test_oracle_checks_the_step_sgd_takes(self, monkeypatch):
        self.check_trainer_step(monkeypatch, "eager")

    def test_oracle_checks_the_pending_step_sgd_takes(self, monkeypatch):
        self.check_trainer_step(monkeypatch, "pending")

    @staticmethod
    def check_trainer_step(monkeypatch, side):
        h, m = SIDES[side]
        d = Dataset(derive_rng(58).uniform(size=(10, m)),
                    np.ones(10, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=h, noise_sd=0.2, learning_rate=0.1,
                             epochs=2)
        params, step, pending, model = captured_step(
            monkeypatch, dae, lambda: train_dae(d, cfg, derive_rng(58)))
        arrays = arrays_of(model)
        assert_tiles(params, arrays)
        assert [p.weights for p in pending] == \
            ([model.weights] if side == "pending" else [])
        x_clean = d.x[:1]
        x_in = x_clean + derive_rng(59).normal(0, 0.1, size=(1, m))
        steps = step_direction(arrays, step, pending, 0.1, x_in, x_clean)
        for g, p in zip(steps, arrays):
            assert grads_close(g, central_diff(
                lambda: batch_loss(model, x_clean, x_in), p))


def minibatch_train_dae(train, cfg, rng, batch):
    """train_dae at a batch size it has no key for, from the same steps."""
    params, model = init_dae(train.m, cfg, rng, train.x.dtype)
    grads, pending = chain_step(model, batch, cfg.learning_rate)
    sgd("DAE pre-training", params, grads, cfg.learning_rate, (train.x,),
        cfg.epochs, rng, batch=batch,
        per_epoch=lambda x: (corrupt(x, cfg.noise_sd, rng),), pending=pending)
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

    @pytest.mark.parametrize("batch", [1, 3])
    def test_pending_updates_match_the_per_step_reference(self, monkeypatch,
                                                           batch):
        # 23 rows push 46 factor rows an epoch at batch 1, and 8 batches of
        # at most 3 rows, the last of 2, push 46 at batch 3: buffers of 16
        # rows are written back when full, in mid-epoch, and with a
        # partial fill at each epoch's end.
        held = []
        write_back = numerics.Pending.write_back
        monkeypatch.setattr(numerics.Pending, "write_back", lambda self: (
            held.append(self.held), write_back(self)))
        h, m = SIDES["pending"]
        d = Dataset(derive_rng(14).uniform(size=(23, m)),
                    np.ones(23, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=h, noise_sd=0.3, learning_rate=0.1,
                             epochs=3)
        model = train_dae(d, cfg, derive_rng(8)) if batch == 1 \
            else minibatch_train_dae(d, cfg, derive_rng(8), batch)
        reference = per_step_train_dae(d, cfg, derive_rng(8), batch)
        for a, b in zip(arrays_of(model), arrays_of(reference)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        assert not np.array_equal(model.weights, reference.weights)
        full = PENDING_ROWS - PENDING_ROWS % batch
        assert held.count(full) >= 6 and held[-1] not in (0, full)

    def test_pending_overflow_raises_with_the_epoch(self):
        # Past the size rule the overflow is in the write-back, which sgd
        # runs before check_finite, and no RuntimeWarning escapes.
        h, m = SIDES["pending"]
        d = Dataset(derive_rng(13).uniform(size=(12, m)),
                    np.ones(12, dtype=int), 1)
        cfg = DaeTrainConfig(hidden_units=h, noise_sd=0.2,
                             learning_rate=1e308, epochs=3)
        with pytest.raises(DivergenceError,
                           match="DAE pre-training diverged at epoch 1"):
            train_dae(d, cfg, derive_rng(1))

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
