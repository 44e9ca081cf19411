import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sdae_ivs.config import load_config
from sdae_ivs.dae import (DaeModel, DaeTrainConfig, decode, encode,
                          encode_dataset, loss, train_dae)
from sdae_ivs.data import (Dataset, SyntheticSpec, VariableMask, compact,
                           expand, gen_synthetic, split)
from sdae_ivs.errors import DataError, DimensionError, DivergenceError
from sdae_ivs.ivs import IvsConfig
from sdae_ivs.mlr import MlrModel, TrainConfig, evaluate, one_hot, train_mlr
from sdae_ivs.mlr import predict_labels as mlr_predict_labels
from sdae_ivs.numerics import BLOCK_ROWS, DAE, TOP, derive_rng
from sdae_ivs.pgm import tile_grid, write_pgm
from sdae_ivs.runner import load_splits
from sdae_ivs import stack
from sdae_ivs.stack import (StackModel, fine_tune,
                            fine_tune_params, gradient, predict_labels,
                            pretrain, reconstruct_through, select_extractors)
from util import (CONSECUTIVE_RUNS, assert_tiles, captured_step, central_diff,
                  flatten, grads_close, log_softmax, masked_fine_tune,
                  masked_stack_logits, per_step_fine_tune, per_step_stack_grads,
                  pretrain_deepest, split_like, unblocked_forward)

REPO = Path(__file__).resolve().parent.parent

EASY = SyntheticSpec(num_relevant=8, num_irrelevant=24, num_classes=3,
                     class_separation=3.0, noise_sd=0.4,
                     examples_per_split=(300, 100, 200))

MLR_CFG = TrainConfig(learning_rate=0.1, max_epochs=25, patience=4)
IVS_CFG = IvsConfig(threshold=0.3, max_iterations=6, mlr=MLR_CFG)


def easy_splits(seed=0):
    d, truth = gen_synthetic(EASY, derive_rng(seed))
    train, valid, test = split(d, EASY.examples_per_split[:2])
    return train, valid, test, truth


def dae_cfg(h, epochs=8, noise=0.2):
    return DaeTrainConfig(hidden_units=h, noise_sd=noise, learning_rate=0.1,
                          epochs=epochs)


def stack_cfg(depth, select, hidden=(16, 12, 8), epochs=8):
    """pretrain's dae, ivs and top arguments."""
    return dict(dae=tuple(dae_cfg(hidden[i], epochs) for i in range(depth)),
                ivs=(IVS_CFG,) * depth if select else (),
                top=TrainConfig(0.1, 20, 4))


def toy_stack(seed=0, widths=(6, 4, 3), k=2, with_mask=True):
    """Random depth-2 stack, raw width 6 -> hidden 4 -> hidden 3."""
    rng = derive_rng(seed)
    raw, h1, h2 = widths
    bits = np.array([1, 1, 0, 1, 1, 1], dtype=bool)[:raw] if with_mask \
        else np.ones(raw, dtype=bool)
    mask = VariableMask(bits)
    dae1 = DaeModel(rng.normal(scale=0.6, size=(h1, mask.popcount)),
                    rng.normal(scale=0.3, size=h1),
                    rng.normal(scale=0.3, size=mask.popcount))
    dae2 = DaeModel(rng.normal(scale=0.6, size=(h2, h1)),
                    rng.normal(scale=0.3, size=h2),
                    rng.normal(scale=0.3, size=h1))
    top = MlrModel(rng.normal(scale=0.6, size=(k, h2)),
                   rng.normal(scale=0.3, size=k))
    return StackModel(mask, [dae1, dae2], top)


class TestStackModel:
    def test_mask_that_disagrees_with_its_dae_names_the_layer(self):
        model = toy_stack(5)
        # Layer 1's DAE reads 5 variables, but an all-ones mask keeps 6.
        with pytest.raises(DimensionError,
                           match="^layer 1 reads 5 inputs, not 6$"):
            StackModel(VariableMask.all_ones(6), model.layers, model.top)
        # Layer 2's DAE reads 4 codes, but layer 1 without a unit has 3.
        first = model.layers[0]
        narrow = DaeModel(first.weights[1:], first.encoder_bias[1:],
                          first.decoder_bias)
        with pytest.raises(DimensionError,
                           match="^layer 2 reads 4 inputs, not 3$"):
            StackModel(model.mask, [narrow, model.layers[1]], model.top)


class TestPretrain:
    def test_plain_depth1_equals_manual_composition(self):
        train, valid, _, _ = easy_splits(1)
        cfg = stack_cfg(1, select=False)
        model, ivs_results = pretrain_deepest(train, valid, cfg, 7)
        assert ivs_results == []

        # The DAE reads the rows rounded to float32.
        rows, valid_rows = (Dataset(d.x.astype(np.float32), d.labels,
                                    d.num_classes) for d in (train, valid))
        manual_dae = train_dae(rows, cfg["dae"][0], derive_rng(7, 1, DAE))
        rep_train = encode_dataset(manual_dae, rows)
        rep_valid = encode_dataset(manual_dae, valid_rows)
        manual_top = train_mlr(rep_train, rep_valid, cfg["top"],
                               derive_rng(7, 1, TOP))

        assert model.mask == VariableMask.all_ones(train.m)
        assert np.array_equal(model.layers[0].weights, manual_dae.weights)
        assert np.array_equal(model.layers[0].encoder_bias,
                              manual_dae.encoder_bias)
        assert np.array_equal(model.top.weights, manual_top.weights)
        assert np.array_equal(model.top.biases, manual_top.biases)

    def test_networks_read_float32_and_layer1_selection_the_loaded_rows(
            self, monkeypatch):
        train, valid, _, _ = easy_splits(2)
        seen = []

        def spy(name, fit):
            def record(*args, **kwargs):
                seen.append((name, [a for a in args if isinstance(a, Dataset)]))
                return fit(*args, **kwargs)
            monkeypatch.setattr(stack, name, record)

        for name in ("run_ivs", "train_dae", "train_mlr"):
            spy(name, getattr(stack, name))
        pretrain_deepest(train, valid, stack_cfg(2, select=True), 4)
        assert [name for name, _ in seen] == [
            "run_ivs", "train_dae", "run_ivs", "train_dae", "train_mlr"]
        assert seen[0][1][0].x is train.x and seen[0][1][1].x is valid.x
        for name, given in seen[1:]:
            assert all(d.x.dtype == np.float32 for d in given), name

    def test_depth2_width_bookkeeping(self):
        train, valid, _, _ = easy_splits(2)
        model, _ = pretrain_deepest(train, valid, stack_cfg(2, select=True),
                                    8)
        first, second = model.layers
        assert first.input_width == model.mask.popcount
        assert second.input_width == first.hidden_units
        assert model.top.m == second.hidden_units

    def test_deterministic(self):
        train, valid, _, _ = easy_splits(3)
        a, _ = pretrain_deepest(train, valid, stack_cfg(1, True), 5)
        b, _ = pretrain_deepest(train, valid, stack_cfg(1, True), 5)
        assert a.mask == b.mask
        assert np.array_equal(a.layers[0].weights, b.layers[0].weights)
        assert np.array_equal(a.top.weights, b.top.weights)

    def test_adding_depth_preserves_lower_layer(self):
        train, valid, _, _ = easy_splits(4)
        for select in (False, True):
            shallow, shallow_ivs, _ = pretrain(
                train, valid, **stack_cfg(1, select), seed=6, depths=(1,))
            both, deep_ivs, first = pretrain(
                train, valid, **stack_cfg(2, select), seed=6, depths=(2, 1))
            deep, _, _ = pretrain(train, valid, **stack_cfg(2, select),
                                  seed=6, depths=(2,))
            assert sorted(both) == [1, 2] and list(deep) == [2]
            assert [r.mask for r in deep_ivs[:1]] == \
                [r.mask for r in shallow_ivs]
            # The depth-1 stack holds layer 1 whole, as the depth-2 stack
            # holds it before layer 2's selection prunes it.
            assert both[1].depth == 1 and both[1].layers[0] is first
            kept = deep_ivs[1].mask.index if select \
                else np.arange(first.hidden_units)
            pruned = both[2].layers[0]
            assert np.array_equal(pruned.weights, first.weights[kept])
            assert np.array_equal(pruned.encoder_bias, first.encoder_bias[kept])
            assert np.array_equal(pruned.decoder_bias, first.decoder_bias)
            # The depth-1 stack of the two-layer pass is the one-layer
            # pass's, and asking for it leaves the depth-2 stack as it is.
            for depth, alone in ((1, shallow[1]), (2, deep[2])):
                for a, b in zip(fine_tune_params(both[depth]),
                                fine_tune_params(alone)):
                    assert np.array_equal(a, b)
                assert both[depth].mask == alone.mask
        for depths in ((0,), (1, 3)):
            with pytest.raises(DimensionError):
                pretrain(train, valid, **stack_cfg(2, False), seed=6,
                         depths=depths)

    def test_selection_above_layer_1_prunes_the_layer_below(self, tmp_path):
        # Layer 2's selection keeps 9 of layer 1's 12 units here. The stack
        # must compute what the same layers compute when layer 1 is whole
        # and layer 2 reads it through that mask, where the dropped units
        # are computed at every step and take zero gradient.
        config = tmp_path / "paired.ini"
        config.write_text((REPO / "configs" / "paired_synthetic.ini")
                          .read_text() + "\n[ivs.2]\nthreshold = 0.6\n")
        cfg = load_config(config, 1)
        train, valid, test = load_splits(cfg)
        stacks, ivs_results, first = pretrain(
            train, valid, cfg.dae, cfg.ivs, cfg.fine_tune, cfg.seed, (2,))
        model, kept = stacks[2], ivs_results[1].mask
        assert (kept.m, kept.popcount) == (12, 9)
        assert model.layers[0].hidden_units == kept.popcount

        def wide(arrays, cls):
            return cls(*(a.astype(np.float64) for a in arrays))

        layers = [wide((d.weights, d.encoder_bias, d.decoder_bias), DaeModel)
                  for d in (first, *model.layers)]
        top = wide((model.top.weights, model.top.biases), MlrModel)
        pruned = StackModel(model.mask, layers[1:], top)
        masked = [(model.mask, layers[0]), (kept, layers[2])]
        logits = masked_stack_logits(masked, top, test.x)
        codes = stack._forward(pruned.mask, pruned.layers, test.x)
        assert np.array_equal(codes @ top.weights.T + top.biases, logits)
        assert np.array_equal(predict_labels(pruned, test.x),
                              np.argmax(logits, axis=1) + 1)

        epoch = replace(cfg.fine_tune, learning_rate=0.2, max_epochs=1)
        tuned = fine_tune(pruned, train, valid, epoch, derive_rng(0))
        masked, masked_top = masked_fine_tune(masked, top, train, valid,
                                              epoch, derive_rng(0))
        assert not np.array_equal(tuned.top.weights, top.weights)
        whole = masked[0][1]
        dropped = np.setdiff1d(np.arange(12), kept.index)
        assert np.array_equal(whole.weights[dropped], layers[0].weights[dropped])
        assert np.array_equal(whole.encoder_bias[dropped],
                              layers[0].encoder_bias[dropped])
        # Products of another width may round the last bit otherwise.
        want = [whole.weights[kept.index], whole.encoder_bias[kept.index],
                masked[1][1].weights, masked[1][1].encoder_bias,
                masked_top.weights, masked_top.biases]
        for got, expected in zip(fine_tune_params(tuned), want):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_both_variants_share_the_layer_streams(self):
        # Threshold 0 keeps every variable, so the selecting stack's DAE
        # sees the plain stack's input, and must draw the same stream.
        train, valid, _, _ = easy_splits(4)
        keep_all = replace(IVS_CFG, threshold=0.0)
        plain, _ = pretrain_deepest(train, valid, stack_cfg(1, False), 6)
        selecting, _ = pretrain_deepest(
            train, valid, {**stack_cfg(1, True), "ivs": (keep_all,)}, 6)
        assert selecting.mask == plain.mask
        assert np.array_equal(selecting.layers[0].weights,
                              plain.layers[0].weights)
        assert np.array_equal(selecting.top.weights, plain.top.weights)

    def test_divergence_names_the_layer(self):
        train, valid, _, _ = easy_splits(2)
        cfg = stack_cfg(2, False)
        cfg["dae"] = (cfg["dae"][0],
                      replace(cfg["dae"][1], learning_rate=1e308))
        with pytest.raises(DivergenceError,
                           match="layer 2: DAE pre-training diverged at epoch"):
            pretrain_deepest(train, valid, cfg, 9)


class TestPredict:
    def test_layerless_stack_equals_mlr(self):
        rng = derive_rng(12)
        top = MlrModel(rng.normal(size=(3, 5)), rng.normal(size=3))
        model = StackModel(VariableMask.all_ones(5), [], top)
        x = rng.uniform(size=(10, 5))
        np.testing.assert_array_equal(predict_labels(model, x),
                                      mlr_predict_labels(top, x))

    def test_deterministic(self):
        model = toy_stack(1)
        x = derive_rng(2).uniform(size=(5, 6))
        np.testing.assert_array_equal(predict_labels(model, x),
                                      predict_labels(model, x))

    def test_single_and_batch_agree(self):
        model = toy_stack(3)
        x = derive_rng(4).uniform(size=(7, 6))
        batch = predict_labels(model, x)
        singles = [int(predict_labels(model, x[i:i + 1])[0])
                   for i in range(len(x))]
        assert batch.tolist() == singles

    def test_keep_all_masks_copy_no_codes(self):
        # A mask that keeps every variable passes the rows on as they are,
        # and each layer reads the codes below it as they are; 4 kB covers
        # the array headers and the small top.
        rng = derive_rng(15)
        layers = [DaeModel(rng.normal(scale=0.1, size=(400, m)),
                           np.zeros(400), np.zeros(m)) for m in (50, 400, 400)]
        model = StackModel(VariableMask.all_ones(50), layers,
                           MlrModel(rng.normal(size=(3, 400)), np.zeros(3)))
        x = rng.uniform(size=(2000, 50))
        predict_labels(model, x)
        tracemalloc.start()
        try:
            predict_labels(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (2000 * 400 * 8) + 4096


def compacting_stack(hidden, raw=60, k=3):
    """Random depth-2 stack, raw -> hidden -> hidden, its mask dropping
    every fourth variable."""
    rng = derive_rng(31, hidden)
    mask = VariableMask(np.arange(raw) % 4 != 0)
    layers = [DaeModel(rng.normal(scale=0.5, size=(hidden, width)),
                       rng.normal(scale=0.3, size=hidden), np.zeros(width))
              for width in (mask.popcount, hidden)]
    return StackModel(mask, layers, MlrModel(rng.normal(size=(k, hidden)),
                                             rng.normal(size=k)))


class TestRowBlocks:
    """Codes are worked out BLOCK_ROWS rows at a time, with the bits of one
    product over all the rows, and prediction holds only the final codes
    beyond one block's temporaries."""

    @pytest.mark.parametrize("hidden", [8, 16, 32, 100])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 513, 6000])
    def test_same_bytes_as_one_product_per_layer(self, n, hidden):
        model = compacting_stack(hidden)
        x = derive_rng(32, n).uniform(size=(n, 60))
        codes = stack._forward(model.mask, model.layers, x)
        assert codes.shape == (n, hidden)
        assert codes.tobytes() == unblocked_forward(model, x).tobytes()
        d = Dataset(compact(x, model.mask), np.ones(n, dtype=np.int64), 1)
        assert encode_dataset(model.layers[0], d).x.tobytes() == \
            encode(model.layers[0], d.x).tobytes()

    def test_prediction_peak_beyond_codes_and_labels_does_not_grow(self):
        # What grows with the rows is the final codes, the top's logits
        # (one product over all the rows, and its sum with the biases)
        # and the labels.
        model = compacting_stack(32, k=3)

        def beyond(n):
            x = derive_rng(33, n).uniform(size=(n, 60))
            predict_labels(model, x)
            tracemalloc.start()
            try:
                predict_labels(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - n * (32 + 2 * 3 + 1) * 8

        assert beyond(8 * BLOCK_ROWS) > 0
        assert beyond(32 * BLOCK_ROWS) <= beyond(8 * BLOCK_ROWS)


class TestFineTune:
    def test_zero_epochs_is_identity(self):
        train, valid, _, _ = easy_splits(5)
        model, _ = pretrain_deepest(train, valid, stack_cfg(1, False), 9)
        tuned = fine_tune(model, train, valid, TrainConfig(0.1, 0, 1),
                          derive_rng(0))
        assert np.array_equal(tuned.layers[0].weights,
                              model.layers[0].weights)
        assert np.array_equal(tuned.top.weights, model.top.weights)

    def test_gradients_match_finite_differences(self):
        # The partial input mask keeps the compacted rows checked.
        model = toy_stack(21)
        params = fine_tune_params(model)
        assert len(params) == 2 * model.depth + 2
        rng = derive_rng(22)
        for batch in (1, 4):
            x = rng.uniform(size=(batch, 6))
            labels = rng.integers(1, 3, size=batch)

            def f():
                return np.mean([
                    -float(log_softmax(_logits_for_test(model, row))[y - 1])
                    for row, y in zip(x, labels)])

            c1 = compact(x, model.mask)
            targets = one_hot(labels, 2, np.float64)
            gradients = split_like(gradient(model, batch)(c1, targets), params)
            assert len(gradients) == len(params)
            for g, p in zip(gradients, params):
                assert grads_close(g, central_diff(f, p))

    @pytest.mark.parametrize("with_mask", [True, False])
    def test_consecutive_steps_match_the_fresh_reference(self, with_mask):
        # Each gradient closure serves the CONSECUTIVE_RUNS in turn: no
        # step may see a stale array, and every step returns the one flat
        # buffer that sgd reads.
        model = toy_stack(27, with_mask=with_mask)
        rng = derive_rng(27)
        x, labels = rng.uniform(size=(6, 6)), rng.integers(1, 3, size=6)
        c1 = compact(x, model.mask)
        targets = one_hot(labels, 2, np.float64)
        for batch, runs in CONSECUTIVE_RUNS:
            grads, returned = gradient(model, batch), []
            for lo, hi in runs:
                returned.append(grads(c1[lo:hi], targets[lo:hi]))
                want = per_step_stack_grads(model, x[lo:hi], labels[lo:hi])
                assert np.array_equal(returned[-1], flatten(want))
            assert all(got is returned[0] for got in returned)

    def test_oracle_checks_the_step_sgd_takes(self, monkeypatch):
        model = toy_stack(28)
        rng = derive_rng(28)
        d = Dataset(rng.uniform(size=(12, 6)), rng.integers(1, 3, size=12), 2)
        params, step, tuned = captured_step(
            monkeypatch, stack, lambda: fine_tune(
                model, d, d, TrainConfig(0.5, 2, 2), derive_rng(29)))
        assert_tiles(params, fine_tune_params(tuned))
        x, labels = d.x[:1], d.labels[:1]
        gradients = split_like(
            step(compact(x, model.mask),
                 one_hot(labels, 2, np.float64)),
            fine_tune_params(tuned))

        def f():
            return -float(log_softmax(_logits_for_test(tuned, x[0]))[labels[0] - 1])

        for g, p in zip(gradients, fine_tune_params(tuned)):
            assert grads_close(g, central_diff(f, p))

    def test_matches_the_per_step_reference_bit_for_bit(self):
        # The mask drops a variable, so the compaction is checked; the
        # all-ones mask of plain SDAE is checked too. 30 rows leave a tail
        # of 2 at batch 4.
        x = derive_rng(26).uniform(size=(40, 6))
        labels = 1 + (x[:, 0] > 0.5)
        train, valid = Dataset(x[:30], labels[:30], 2), \
            Dataset(x[30:], labels[30:], 2)
        for batch, with_mask in ((1, True), (4, True), (1, False)):
            model = toy_stack(24, with_mask=with_mask)
            cfg = TrainConfig(0.5, 6, 6, batch)
            tuned = fine_tune(model, train, valid, cfg, derive_rng(3))
            reference = per_step_fine_tune(model, train, valid, cfg,
                                           derive_rng(3))
            assert not np.array_equal(fine_tune_params(tuned)[0],
                                      fine_tune_params(model)[0])
            for a, b in zip(fine_tune_params(tuned),
                            fine_tune_params(reference)):
                assert np.array_equal(a, b)

    def test_input_model_is_left_untouched(self):
        model = toy_stack(23)
        before = [p.copy() for p in fine_tune_params(model)]
        rng = derive_rng(24)
        train = Dataset(rng.uniform(size=(20, 6)), rng.integers(1, 3, size=20), 2)
        tuned = fine_tune(model, train, train, TrainConfig(0.1, 3, 3),
                          derive_rng(2))
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, fine_tune_params(model)))
        # The tuned decoder biases are copies: writing them leaves m's.
        for dae, tuned_dae in zip(model.layers, tuned.layers):
            kept = dae.decoder_bias.copy()
            tuned_dae.decoder_bias += 1.0
            assert np.array_equal(dae.decoder_bias, kept)

    def test_never_degrades_best_validation(self):
        train, valid, _, _ = easy_splits(6)
        model, _ = pretrain_deepest(train, valid, stack_cfg(1, False), 10)
        before = evaluate(predict_labels(model, valid.x), valid)
        tuned = fine_tune(model, train, valid, TrainConfig(0.1, 10, 3),
                          derive_rng(1))
        after = evaluate(predict_labels(tuned, valid.x), valid)
        assert after <= before

    def test_overflowing_learning_rate_raises_with_the_epoch(self):
        train, valid, _, _ = easy_splits(5)
        model, _ = pretrain_deepest(train, valid, stack_cfg(1, False), 9)
        with pytest.raises(DivergenceError,
                           match="depth 1 fine-tuning diverged at epoch 1"):
            fine_tune(model, train, valid, TrainConfig(1e308, 5, 5),
                      derive_rng(0))

    def test_no_trained_parameter_is_negative_zero(self):
        # sum_rows turns a one-row -0.0 into +0.0, which moves a parameter
        # only if it is -0.0. A column of zeros keeps its MLR weights at
        # exactly zero while their gradients may be -0.0, and 295 rows in
        # batches of 7, as a selection config may ask, leave a one-row tail.
        def zero_column(d):
            return Dataset(np.column_stack([d.x, np.zeros(d.n)]), d.labels,
                           d.num_classes)

        train, valid, _, _ = easy_splits(6)
        train = Dataset(train.x[:295], train.labels[:295], train.num_classes)
        train, valid = zero_column(train), zero_column(valid)
        pre = train_mlr(train, valid, TrainConfig(0.1, 10, 10, 7),
                        derive_rng(1))
        model, _ = pretrain_deepest(train, valid, stack_cfg(1, False), 2)
        tuned = fine_tune(model, train, valid, TrainConfig(0.1, 5, 5),
                          derive_rng(3))
        params = np.concatenate([pre.weights.ravel(), pre.biases] + [
            a.ravel() for m in (model, tuned) for a in fine_tune_params(m)
            + [dae.decoder_bias for dae in m.layers]])
        assert not pre.weights[:, -1].any()
        assert not np.signbit(params[params == 0.0]).any()


def _logits_for_test(model, x):
    """Independent one-example forward pass used by the finite-difference
    oracle."""
    from sdae_ivs.numerics import sigmoid
    cur = compact(np.asarray(x, dtype=np.float64), model.mask)
    for dae in model.layers:
        cur = sigmoid(dae.weights @ cur + dae.encoder_bias)
    return model.top.weights @ cur + model.top.biases


class TestReconstruct:
    def test_depth1_equals_manual_path(self):
        model = toy_stack(40)
        x = derive_rng(41).uniform(size=(1, 6))
        manual = expand(decode(model.layers[0],
                               encode(model.layers[0],
                                      compact(x, model.mask))),
                        model.mask)
        np.testing.assert_array_equal(reconstruct_through(model, x, 1), manual)

    def test_dropped_positions_exactly_zero(self):
        model = toy_stack(42)
        x = derive_rng(43).uniform(size=(1, 6))
        for depth in (1, 2):
            out = reconstruct_through(model, x, depth)
            assert out.shape == (1, 6)
            assert out[0, 2] == 0.0  # dropped by the first-layer mask

    def test_overfit_single_example_reconstructs(self):
        x = np.array([[0.3, 0.7, 0.5, 0.2]])
        d = Dataset(x, np.array([1]), 1)
        cfg = DaeTrainConfig(hidden_units=4, noise_sd=0.0, learning_rate=0.5,
                             epochs=2000)
        dae = train_dae(d, cfg, derive_rng(1))
        model = StackModel(VariableMask.all_ones(4), [dae],
                           MlrModel(np.zeros((2, 4)), np.zeros(2)))
        out = reconstruct_through(model, x, 1)
        np.testing.assert_allclose(out, x, atol=0.05)

    def test_batch_matches_single_rows(self):
        model = toy_stack(45)
        x = derive_rng(46).uniform(size=(5, 6))
        for depth in (1, 2):
            batch = reconstruct_through(model, x, depth)
            singles = np.concatenate([reconstruct_through(model, row, depth)
                                      for row in x[:, None]])
            np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-15)

    def test_depth_out_of_range(self):
        model = toy_stack(44)
        with pytest.raises(Exception):
            reconstruct_through(model, np.zeros((1, 6)), 3)

    # 784 variables make several row blocks of a 1-D row's components, so
    # a row must come as a (1, M) matrix to be read as one.
    @pytest.mark.parametrize("through", [
        lambda m, x: reconstruct_through(m, x, 1),
        lambda m, x: predict_labels(m, x)], ids=["reconstruct", "predict"])
    def test_a_row_that_is_not_a_matrix_is_refused_naming_its_shape(
            self, through):
        model = toy_stack(47, widths=(784, 4, 3), with_mask=False)
        with pytest.raises(DimensionError, match=r"not shape \(784,\)"):
            through(model, np.zeros(784))


class TestExtractors:
    def test_zero_threshold_keeps_all_units(self):
        train, valid, _, _ = easy_splits(7)
        model, _ = pretrain_deepest(train, valid, stack_cfg(1, False), 11)
        cfg = IvsConfig(threshold=0.0, max_iterations=3, mlr=MLR_CFG)
        relevant, _ = select_extractors(model.mask, model.layers[0], train,
                                        valid, cfg, derive_rng(12))
        assert len(relevant) == model.layers[0].hidden_units

    def test_count_bounded_and_patterns_partition(self):
        train, valid, _, _ = easy_splits(8)
        model, _ = pretrain_deepest(train, valid, stack_cfg(1, True), 13)
        relevant, irrelevant = select_extractors(
            model.mask, model.layers[0], train, valid, IVS_CFG, derive_rng(14))
        h = model.layers[0].hidden_units
        assert 0 < len(relevant) <= h
        assert len(relevant) + len(irrelevant) == h
        assert relevant.shape[1] == irrelevant.shape[1] == train.m


class TestEndToEnd:
    def test_selection_variant_at_least_as_good_when_planted(self):
        # Single-seed instance of the paired-trend protocol; the acceptance
        # suite runs the full 5-seed majority version.
        spec = SyntheticSpec(20, 80, 5, 3.0, 0.5, (600, 200, 1500))
        d, _ = gen_synthetic(spec, derive_rng(0))
        train, valid, test = split(d, spec.examples_per_split[:2])
        errors = {}
        for enabled in (False, True):
            cfg = dict(
                dae=(DaeTrainConfig(12, 0.3, 0.1, 10),),
                ivs=(IvsConfig(0.3, 8, TrainConfig(0.1, 30, 5)),) if enabled
                else (),
                top=TrainConfig(0.1, 10, 3))
            model, _ = pretrain_deepest(train, valid, cfg, 0)
            tuned = fine_tune(model, train, valid, TrainConfig(0.1, 10, 3),
                              derive_rng(1000))
            errors[enabled] = evaluate(predict_labels(tuned, test.x), test)
        assert errors[True] <= errors[False]

    def test_tuned_depth1_accuracy_on_planted(self):
        train, valid, test, _ = easy_splits(10)
        model, _ = pretrain_deepest(train, valid,
                                    stack_cfg(1, True, epochs=10), 17)
        tuned = fine_tune(model, train, valid, TrainConfig(0.1, 15, 3),
                          derive_rng(18))
        assert 1.0 - evaluate(predict_labels(tuned, test.x), test) >= 0.9


def _empty_valid(fit):
    """fit(train, valid) on 10 training rows of toy_stack's raw width and a
    validation split of none."""
    d = Dataset(derive_rng(3).uniform(size=(10, 6)),
                np.tile([1, 2], 5).astype(np.int64), 2)
    return lambda path: fit(d, Dataset(d.x[:0], d.labels[:0], 2))


_DAE = DaeModel(np.zeros((3, 5)), np.zeros(3), np.zeros(5))


# No function below the entry points checks the shape of what it is given:
# each input below is refused by the first product or the first score that
# reads it, before any output exists.
@pytest.mark.parametrize("call, error, message", [
    (lambda path: encode(_DAE, np.zeros((4, 6))), ValueError, "not aligned"),
    (lambda path: decode(_DAE, np.zeros((4, 2))), ValueError, "not aligned"),
    (lambda path: loss(np.zeros(4), np.full(5, 0.5)), ValueError, "mismatch"),
    (lambda path: mlr_predict_labels(MlrModel(np.zeros((3, 5)), np.zeros(3)),
                                     np.zeros((4, 6))),
     ValueError, "mismatch"),
    (lambda path: write_pgm(path, np.zeros(6)), ValueError, "unpack"),
    (lambda path: tile_grid(np.zeros(12), (2, 3), 2), ValueError,
     "cannot reshape"),
    (lambda path: tile_grid(np.zeros((2, 5)), (2, 3), 2), ValueError,
     "cannot reshape"),
    (_empty_valid(lambda train, valid: train_mlr(
        train, valid, TrainConfig(0.1, 5, 2), derive_rng(0))),
     DataError, "cannot evaluate on an empty dataset"),
    (_empty_valid(lambda train, valid: fine_tune(
        toy_stack(), train, valid, TrainConfig(0.1, 5, 2), derive_rng(0))),
     DataError, "cannot evaluate on an empty dataset"),
], ids=["dae.encode", "dae.decode", "dae.loss", "mlr.predict_labels",
        "pgm.write_pgm", "pgm.tile_grid-ndim", "pgm.tile_grid-width",
        "mlr.train_mlr", "stack.fine_tune"])
def test_input_of_a_deleted_recheck_is_still_refused(tmp_path, call, error,
                                                      message):
    path = tmp_path / "image.pgm"
    with pytest.raises(error, match=message):
        call(path)
    assert not path.exists()


# sgd refuses a fit of no training rows, naming its phase, before it
# scores the validation split.
@pytest.mark.parametrize("fit, phase", [
    (lambda train, valid: train_mlr(train, valid, TrainConfig(0.1, 5, 2),
                                    derive_rng(0)), "MLR training"),
    (lambda train, valid: train_dae(train, dae_cfg(3), derive_rng(0)),
     "DAE pre-training"),
    (lambda train, valid: fine_tune(
        StackModel(VariableMask.all_ones(5), [_DAE],
                   MlrModel(np.zeros((2, 3)), np.zeros(2))),
        train, valid, TrainConfig(0.1, 5, 2), derive_rng(0)),
     "depth 1 fine-tuning"),
], ids=["mlr.train_mlr", "dae.train_dae", "stack.fine_tune"])
def test_zero_row_training_set_is_refused_naming_its_phase(fit, phase):
    valid = Dataset(derive_rng(4).uniform(size=(4, 5)),
                    np.array([1, 2, 1, 2]), 2)
    with pytest.raises(DataError,
                       match=f"^{phase} needs at least one training row$"):
        fit(Dataset(valid.x[:0], valid.labels[:0], 2), valid)
