from dataclasses import replace

import numpy as np
import pytest

from sdae_ivs.dae import DaeModel, DaeTrainConfig, decode, encode, encode_dataset, train_dae
from sdae_ivs.data import (Dataset, SyntheticSpec, VariableMask, compact,
                           expand, gen_synthetic, split)
from sdae_ivs.errors import DivergenceError
from sdae_ivs.ivs import IvsConfig
from sdae_ivs.mlr import MlrModel, TrainConfig, evaluate, train_mlr
from sdae_ivs.mlr import predict_labels as mlr_predict_labels
from sdae_ivs.numerics import derive_rng, make_rng
from sdae_ivs.stack import (StackConfig, StackLayer, StackModel,
                            classification_grads, fine_tune, fine_tune_params,
                            predict_labels, pretrain, reconstruct_through,
                            select_extractors)
from util import central_diff, grads_close

EASY = SyntheticSpec(num_relevant=8, num_irrelevant=24, num_classes=3,
                     class_separation=3.0, noise_sd=0.4,
                     examples_per_split=(300, 100, 200))

MLR_CFG = TrainConfig(learning_rate=0.1, max_epochs=25, patience=4, seed=0)
IVS_CFG = IvsConfig(threshold=0.3, max_iterations=6, mlr=MLR_CFG)


def easy_splits(seed=0):
    d, truth = gen_synthetic(EASY, make_rng(seed))
    train, valid, test = split(d, EASY.examples_per_split[:2])
    return train, valid, test, truth


def dae_cfg(h, epochs=8, noise=0.2):
    return DaeTrainConfig(hidden_units=h, noise_sd=noise, learning_rate=0.1,
                          epochs=epochs, seed=0)


def stack_cfg(depth, ivs_enabled, hidden=(16, 12, 8), epochs=8):
    return StackConfig(
        depth=depth,
        dae=tuple(dae_cfg(hidden[i], epochs) for i in range(depth)),
        ivs=tuple(IVS_CFG for _ in range(depth)),
        fine_tune=TrainConfig(0.1, 20, 4, seed=0),
        ivs_enabled=ivs_enabled,
    )


def toy_stack(seed=0, widths=(6, 4, 3), k=2, with_masks=True, top_mask=None):
    """Random depth-2 stack, raw width 6 -> hidden 4 -> hidden 3."""
    rng = make_rng(seed)
    raw, h1, h2 = widths
    if with_masks:
        bits1 = np.array([1, 1, 0, 1, 1, 1], dtype=bool)[:raw]
        bits2 = np.array([1, 0, 1, 1], dtype=bool)[:h1]
    else:
        bits1 = np.ones(raw, dtype=bool)
        bits2 = np.ones(h1, dtype=bool)
    mask1, mask2 = VariableMask(bits1), VariableMask(bits2)
    dae1 = DaeModel(rng.normal(scale=0.6, size=(h1, mask1.popcount)),
                    rng.normal(scale=0.3, size=h1),
                    rng.normal(scale=0.3, size=mask1.popcount))
    dae2 = DaeModel(rng.normal(scale=0.6, size=(h2, mask2.popcount)),
                    rng.normal(scale=0.3, size=h2),
                    rng.normal(scale=0.3, size=mask2.popcount))
    top = MlrModel(rng.normal(scale=0.6, size=(k, h2)),
                   rng.normal(scale=0.3, size=k))
    if top_mask is not None:
        top = MlrModel(top.weights[:, top_mask.bits], top.biases)
    model = StackModel([StackLayer(mask1, dae1), StackLayer(mask2, dae2)],
                       top, top_mask)
    model.check_widths()
    return model


class TestPretrain:
    def test_plain_depth1_equals_manual_composition(self):
        train, valid, _, _ = easy_splits(1)
        cfg = stack_cfg(1, ivs_enabled=False)
        model, _ = pretrain(train, valid, cfg, derive_rng(7, 1))

        rng = derive_rng(7, 1)
        manual_dae = train_dae(train, cfg.dae[0], rng.spawn(1)[0])
        rep_train = encode_dataset(manual_dae, train)
        rep_valid = encode_dataset(manual_dae, valid)
        from dataclasses import replace
        top_seed = int(rng.spawn(1)[0].integers(0, 2**63))
        manual_top = train_mlr(rep_train, rep_valid,
                               replace(cfg.fine_tune, seed=top_seed))

        assert model.layers[0].mask == VariableMask.all_ones(train.m)
        assert np.array_equal(model.layers[0].dae.weights, manual_dae.weights)
        assert np.array_equal(model.layers[0].dae.encoder_bias,
                              manual_dae.encoder_bias)
        assert np.array_equal(model.top.weights, manual_top.weights)
        assert np.array_equal(model.top.biases, manual_top.biases)

    def test_depth2_width_bookkeeping(self):
        train, valid, _, _ = easy_splits(2)
        model, _ = pretrain(train, valid, stack_cfg(2, ivs_enabled=True),
                            derive_rng(8, 1))
        first = model.layers[0]
        assert first.dae.input_width == first.mask.popcount
        second = model.layers[1]
        assert second.mask.m == first.dae.hidden_units
        assert second.dae.input_width == second.mask.popcount
        assert model.top.m == second.dae.hidden_units

    def test_deterministic(self):
        train, valid, _, _ = easy_splits(3)
        a, _ = pretrain(train, valid, stack_cfg(1, True), derive_rng(5, 1))
        b, _ = pretrain(train, valid, stack_cfg(1, True), derive_rng(5, 1))
        assert a.layers[0].mask == b.layers[0].mask
        assert np.array_equal(a.layers[0].dae.weights, b.layers[0].dae.weights)
        assert np.array_equal(a.top.weights, b.top.weights)

    def test_adding_depth_preserves_lower_layer(self):
        train, valid, _, _ = easy_splits(4)
        shallow, _ = pretrain(train, valid, stack_cfg(1, True), derive_rng(6, 1))
        deep, _ = pretrain(train, valid, stack_cfg(2, True), derive_rng(6, 1))
        assert shallow.layers[0].mask == deep.layers[0].mask
        assert np.array_equal(shallow.layers[0].dae.weights,
                              deep.layers[0].dae.weights)

    def test_final_ivs_masks_the_top_classifier(self):
        train, valid, _, _ = easy_splits(11)
        base = stack_cfg(1, True)
        cfg = StackConfig(depth=1, dae=base.dae, ivs=base.ivs,
                          fine_tune=base.fine_tune, ivs_enabled=True,
                          final_ivs=True)
        model, ivs_results = pretrain(train, valid, cfg, derive_rng(20, 1))
        assert model.top_mask == ivs_results[-1].mask
        assert model.top_mask.m == model.layers[0].dae.hidden_units
        assert model.top.m == model.top_mask.popcount
        assert len(ivs_results) == 2  # per-layer pass plus the final pass
        predict_labels(model, valid.x)  # forward path stays consistent

    def test_divergence_names_the_layer(self):
        train, valid, _, _ = easy_splits(2)
        cfg = stack_cfg(2, False)
        cfg = replace(cfg, dae=(cfg.dae[0],
                                replace(cfg.dae[1], learning_rate=1e308)))
        with pytest.raises(DivergenceError,
                           match="layer 2: DAE pre-training diverged at epoch"):
            pretrain(train, valid, cfg, derive_rng(9, 1))


class TestPredict:
    def test_layerless_stack_equals_mlr(self):
        rng = make_rng(12)
        top = MlrModel(rng.normal(size=(3, 5)), rng.normal(size=3))
        model = StackModel([], top)
        x = rng.uniform(size=(10, 5))
        np.testing.assert_array_equal(predict_labels(model, x),
                                      mlr_predict_labels(top, x))

    def test_deterministic(self):
        model = toy_stack(1)
        x = make_rng(2).uniform(size=(5, 6))
        np.testing.assert_array_equal(predict_labels(model, x),
                                      predict_labels(model, x))

    def test_single_and_batch_agree(self):
        model = toy_stack(3)
        x = make_rng(4).uniform(size=(7, 6))
        batch = predict_labels(model, x)
        singles = [int(predict_labels(model, row)[0]) for row in x]
        assert batch.tolist() == singles


class TestFineTune:
    def test_zero_epochs_is_identity(self):
        train, valid, _, _ = easy_splits(5)
        model, _ = pretrain(train, valid, stack_cfg(1, False), derive_rng(9, 1))
        tuned = fine_tune(model, train, valid, TrainConfig(0.1, 0, 1, seed=0))
        assert tuned.fine_tuned
        assert np.array_equal(tuned.layers[0].dae.weights,
                              model.layers[0].dae.weights)
        assert np.array_equal(tuned.top.weights, model.top.weights)

    def test_gradients_match_finite_differences(self):
        model = toy_stack(21, top_mask=VariableMask(np.array([1, 0, 1],
                                                             dtype=bool)))
        params = fine_tune_params(model)
        assert len(params) == 2 * model.depth + 2
        rng = make_rng(22)
        for batch in (1, 4):
            x = rng.uniform(size=(batch, 6))
            labels = rng.integers(1, 3, size=batch)

            def f():
                from sdae_ivs.numerics import log_softmax
                return np.mean([
                    -float(log_softmax(_logits_for_test(model, row))[y - 1])
                    for row, y in zip(x, labels)])

            gradients = classification_grads(model, x, labels)
            assert len(gradients) == len(params)
            for g, p in zip(gradients, params):
                assert grads_close(g, central_diff(f, p))

    def test_input_model_is_left_untouched(self):
        model = toy_stack(23)
        before = [p.copy() for p in fine_tune_params(model)]
        rng = make_rng(24)
        train = Dataset(rng.uniform(size=(20, 6)), rng.integers(1, 3, size=20), 2)
        tuned = fine_tune(model, train, train, TrainConfig(0.1, 3, 3, seed=2))
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, fine_tune_params(model)))
        assert tuned.fine_tuned and not model.fine_tuned

    def test_never_degrades_best_validation(self):
        train, valid, _, _ = easy_splits(6)
        model, _ = pretrain(train, valid, stack_cfg(1, False), derive_rng(10, 1))
        before = evaluate(lambda x: predict_labels(model, x), valid).error_rate
        tuned = fine_tune(model, train, valid, TrainConfig(0.1, 10, 3, seed=1))
        after = evaluate(lambda x: predict_labels(tuned, x), valid).error_rate
        assert after <= before

    def test_overflowing_learning_rate_raises_with_the_epoch(self):
        train, valid, _, _ = easy_splits(5)
        model, _ = pretrain(train, valid, stack_cfg(1, False), derive_rng(9, 1))
        with pytest.raises(DivergenceError,
                           match="fine-tuning diverged at epoch 1"):
            fine_tune(model, train, valid, TrainConfig(1e308, 5, 5, seed=0))

    def test_top_mask_survives_fine_tuning(self):
        top_mask = VariableMask(np.array([1, 0, 1], dtype=bool))
        model = toy_stack(30, top_mask=top_mask)
        rng = make_rng(31)
        train = Dataset(rng.uniform(size=(30, 6)),
                        rng.integers(1, 3, size=30), 2)
        tuned = fine_tune(model, train, train, TrainConfig(0.1, 5, 5, seed=2))
        assert tuned.top_mask == top_mask
        assert tuned.top.m == 2
        assert not np.array_equal(tuned.top.weights, model.top.weights)


def _logits_for_test(model, x):
    """Independent one-example forward pass used by the finite-difference
    oracle."""
    from sdae_ivs.numerics import sigmoid
    cur = np.asarray(x, dtype=np.float64)
    for layer in model.layers:
        cur = sigmoid(layer.dae.weights @ compact(cur, layer.mask)
                      + layer.dae.encoder_bias)
    return model.top.weights @ cur[model.top_mask.bits] + model.top.biases


class TestReconstruct:
    def test_depth1_equals_manual_path(self):
        model = toy_stack(40)
        x = make_rng(41).uniform(size=6)
        manual = expand(decode(model.layers[0].dae,
                               encode(model.layers[0].dae,
                                      compact(x, model.layers[0].mask))),
                        model.layers[0].mask)
        np.testing.assert_array_equal(reconstruct_through(model, x, 1), manual)

    def test_dropped_positions_exactly_zero(self):
        model = toy_stack(42)
        x = make_rng(43).uniform(size=6)
        for depth in (1, 2):
            out = reconstruct_through(model, x, depth)
            assert out.shape == (6,)
            assert out[2] == 0.0  # dropped by the first-layer mask

    def test_overfit_single_example_reconstructs(self):
        x = np.array([[0.3, 0.7, 0.5, 0.2]])
        d = Dataset(x, np.array([1]), 1)
        cfg = DaeTrainConfig(hidden_units=4, noise_sd=0.0, learning_rate=0.5,
                             epochs=2000, seed=1)
        dae = train_dae(d, cfg)
        model = StackModel(
            [StackLayer(VariableMask.all_ones(4), dae)],
            MlrModel(np.zeros((2, 4)), np.zeros(2)))
        out = reconstruct_through(model, x[0], 1)
        np.testing.assert_allclose(out, x[0], atol=0.05)

    def test_batch_matches_single_rows(self):
        model = toy_stack(45)
        x = make_rng(46).uniform(size=(5, 6))
        for depth in (1, 2):
            batch = reconstruct_through(model, x, depth)
            singles = np.stack([reconstruct_through(model, row, depth)
                                for row in x])
            np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-15)

    def test_depth_out_of_range(self):
        model = toy_stack(44)
        with pytest.raises(Exception):
            reconstruct_through(model, np.zeros(6), 3)


class TestExtractors:
    def test_zero_threshold_keeps_all_units(self):
        train, valid, _, _ = easy_splits(7)
        model, _ = pretrain(train, valid, stack_cfg(1, False), derive_rng(11, 1))
        cfg = IvsConfig(threshold=0.0, max_iterations=3, mlr=MLR_CFG)
        count = select_extractors(model, 1, train, valid, cfg,
                                  make_rng(12)).count
        assert count == model.layers[0].dae.hidden_units

    def test_count_bounded_and_patterns_partition(self):
        train, valid, _, _ = easy_splits(8)
        model, _ = pretrain(train, valid, stack_cfg(1, True), derive_rng(13, 1))
        report = select_extractors(model, 1, train, valid, IVS_CFG, make_rng(14))
        h = model.layers[0].dae.hidden_units
        assert 0 < report.count <= h
        assert report.relevant_patterns.shape[0] == report.count
        assert (report.relevant_patterns.shape[0]
                + report.irrelevant_patterns.shape[0]) == h
        assert report.relevant_patterns.shape[1] == train.m


class TestEndToEnd:
    def test_selection_variant_at_least_as_good_when_planted(self):
        # Single-seed instance of the paired-trend protocol; the acceptance
        # suite runs the full 5-seed majority version.
        spec = SyntheticSpec(20, 80, 5, 3.0, 0.5, (600, 200, 1500))
        d, _ = gen_synthetic(spec, make_rng(0))
        train, valid, test = split(d, spec.examples_per_split[:2])
        errors = {}
        for enabled in (False, True):
            cfg = StackConfig(
                depth=1,
                dae=(DaeTrainConfig(12, 0.3, 0.1, 10, 0),),
                ivs=(IvsConfig(0.3, 8, TrainConfig(0.1, 30, 5, 0)),),
                fine_tune=TrainConfig(0.1, 10, 3, 0),
                ivs_enabled=enabled)
            model, _ = pretrain(train, valid, cfg, derive_rng(0, 1))
            tuned = fine_tune(model, train, valid,
                              TrainConfig(0.1, 10, 3, seed=1000))
            errors[enabled] = evaluate(lambda x: predict_labels(tuned, x),
                                       test).error_rate
        assert errors[True] <= errors[False]

    def test_tuned_depth1_accuracy_on_planted(self):
        train, valid, test, _ = easy_splits(10)
        model, _ = pretrain(train, valid, stack_cfg(1, True, epochs=10),
                            derive_rng(17, 1))
        tuned = fine_tune(model, train, valid, TrainConfig(0.1, 15, 3, seed=18))
        report = evaluate(lambda x: predict_labels(tuned, x), test)
        assert 1.0 - report.error_rate >= 0.9
