import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdae_ivs.data import (Dataset, SyntheticSpec, VariableMask, gen_synthetic,
                           split)
from sdae_ivs.errors import DegenerateModelError, OverThresholdError
from sdae_ivs.ivs import (IvsConfig, normal_vector, pair_importance, run_ivs,
                          task_importance, update_mask)
from sdae_ivs.mlr import MlrModel, TrainConfig
from sdae_ivs.numerics import derive_rng
from util import discriminant, random_mlr

PLANTED = SyntheticSpec(num_relevant=20, num_irrelevant=80, num_classes=5,
                        class_separation=3.0, noise_sd=0.5,
                        examples_per_split=(1000, 300, 0))

QUICK_MLR = TrainConfig(learning_rate=0.1, max_epochs=30, patience=5)


def planted_splits(seed):
    d, truth = gen_synthetic(PLANTED, derive_rng(seed))
    train, valid, _ = split(d, PLANTED.examples_per_split[:2])
    return train, valid, truth


class TestNormalVector:
    def test_three_four_five(self):
        m = MlrModel(np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]]), np.zeros(2))
        np.testing.assert_allclose(normal_vector(m, 1, 2), [0.6, 0.8, 0.0],
                                   atol=1e-15)
        assert np.linalg.norm(normal_vector(m, 1, 2)) == pytest.approx(1.0,
                                                                       abs=1e-12)

    def test_antisymmetry(self):
        for seed in range(10):
            m = random_mlr(seed, k=4, m=5)
            np.testing.assert_array_equal(normal_vector(m, 2, 3),
                                          -normal_vector(m, 3, 2))

    def test_biases_do_not_enter(self):
        m = random_mlr(1, k=3, m=4)
        shifted = MlrModel(m.weights, m.biases + 100.0)
        np.testing.assert_array_equal(normal_vector(m, 1, 2),
                                      normal_vector(shifted, 1, 2))

    def test_degenerate_pair(self):
        w = np.ones((2, 3))
        with pytest.raises(DegenerateModelError):
            normal_vector(MlrModel(w, np.zeros(2)), 1, 2)

    def test_weights_too_large_to_square_keep_a_unit_normal(self):
        # Squares of weights near 1e200 overflow; the weights are finite.
        m = random_mlr(2, k=3, m=4)
        huge = MlrModel(m.weights * 1e200, m.biases)
        assert np.linalg.norm(normal_vector(huge, 1, 2)) == \
            pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            task_importance(huge),
            task_importance(MlrModel(huge.weights * 1e-200, m.biases)),
            rtol=1e-12)


class TestPairImportance:
    def test_direct_formula(self):
        np.testing.assert_allclose(pair_importance(np.array([0.6, 0.8, 0.0])),
                                   [0.75, 1.0, 0.0], atol=1e-15)

    def test_single_component_is_indicator(self):
        np.testing.assert_array_equal(pair_importance(np.array([0.0, -2.5, 0.0])),
                                      [0.0, 1.0, 0.0])

    def test_scale_invariant(self):
        v = np.array([0.3, -0.1, 0.7])
        np.testing.assert_allclose(pair_importance(5.0 * v), pair_importance(v),
                                   atol=1e-15)

    def test_max_component_exactly_one(self):
        for seed in range(20):
            v = derive_rng(seed).normal(size=6)
            assert pair_importance(v).max() == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateModelError):
            pair_importance(np.zeros(3))


class TestTaskImportance:
    def test_two_classes_equal_single_pair(self):
        m = random_mlr(7, k=2, m=5)
        np.testing.assert_array_equal(
            task_importance(m), pair_importance(normal_vector(m, 1, 2)))

    def test_componentwise_max_over_pairs(self):
        # Hand-computed three-class case.
        weights = np.array([[0.0, 0.0], [0.2, 1.0], [0.9, 0.1]])
        m = MlrModel(weights, np.zeros(3))

        def pair(i, j):
            return pair_importance(normal_vector(m, i, j))

        np.testing.assert_allclose(pair(1, 2), [0.2, 1.0], atol=1e-15)
        np.testing.assert_allclose(pair(1, 3), [1.0, 1.0 / 9.0], atol=1e-15)
        np.testing.assert_allclose(pair(2, 3), [7.0 / 9.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(task_importance(m), [1.0, 1.0], atol=1e-15)

    def test_skips_degenerate_pairs(self):
        # Pair (1, 2) has no hyperplane; (1, 3) and (2, 3) both score
        # the normal (1, -2) / sqrt(5).
        weights = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            task_importance(MlrModel(weights, np.zeros(3))), [0.5, 1.0],
            atol=1e-15)

    def test_all_degenerate_rejected(self):
        with pytest.raises(DegenerateModelError):
            task_importance(MlrModel(np.ones((3, 2)), np.zeros(3)))

    def test_range_and_top(self):
        for seed in range(10):
            importance = task_importance(random_mlr(seed, k=3, m=8))
            assert importance.min() >= 0.0
            assert importance.max() == 1.0

    def test_sensitivity_matches_finite_differences(self):
        # The unit normal must equal the gradient of the normalized
        # discriminant; quick version of the full acceptance oracle.
        step = 1e-6
        for seed in range(10):
            rng = derive_rng(seed)
            k, mm = int(rng.integers(2, 5)), int(rng.integers(2, 8))
            model = random_mlr(1000 + seed, k, mm)
            i, j = 1, k
            x = rng.uniform(size=mm)
            v = normal_vector(model, i, j)
            for d in range(mm):
                e = np.zeros(mm)
                e[d] = step
                fd = (discriminant(model, i, j, x + e)
                      - discriminant(model, i, j, x - e)) / (2 * step)
                assert abs(abs(fd) - abs(v[d])) < 1e-6

    def test_scale_invariance_of_importances(self):
        model = random_mlr(3, k=4, m=6)
        base = task_importance(model)
        for lam in (0.01, 0.5, 3.0, 1000.0):
            scaled = MlrModel(lam * model.weights, lam * model.biases)
            np.testing.assert_allclose(task_importance(scaled), base,
                                       atol=1e-12)


class TestUpdateMask:
    def test_definition(self):
        out = update_mask(np.array([0.9, 1.0, 0.1]), 0.3, VariableMask.all_ones(3))
        assert out.bits.tolist() == [True, True, False]

    def test_zero_threshold_keeps_everything(self):
        prev = VariableMask.all_ones(4)
        assert update_mask(np.array([0.0, 0.2, 0.9, 1.0]), 0.0, prev) == prev

    def test_dropped_stays_dropped(self):
        prev = VariableMask(np.array([0, 1, 1], dtype=bool))
        out = update_mask(np.array([1.0, 1.0, 0.2]), 0.3, prev)
        assert out.bits.tolist() == [False, True, False]

    def test_empty_result_rejected(self):
        with pytest.raises(OverThresholdError):
            update_mask(np.array([0.1, 0.2]), 0.5, VariableMask.all_ones(2))

    @settings(max_examples=100)
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_monotone_shrinkage(self, m, seed, threshold):
        rng = derive_rng(seed)
        importance = rng.uniform(size=m)
        bits = rng.integers(0, 2, size=m).astype(bool)
        bits[int(rng.integers(0, m))] = True
        prev = VariableMask(bits)
        try:
            out = update_mask(importance, threshold, prev)
        except OverThresholdError:
            return
        assert np.all(out.bits <= prev.bits)


class TestRunIvs:
    def test_single_iteration_returns_first_update(self):
        train, valid, _ = planted_splits(0)
        cfg = IvsConfig(0.3, max_iterations=1, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(1))
        assert len(result.history) == 1
        item = result.history[0]
        expected = update_mask(item.importance, 0.3,
                               VariableMask.all_ones(train.m))
        assert result.mask == expected
        assert item.kept == expected.popcount

    def test_zero_threshold_stops_after_two_iterations(self):
        train, valid, _ = planted_splits(1)
        cfg = IvsConfig(0.0, max_iterations=10, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(1))
        assert len(result.history) == 2
        assert result.mask == VariableMask.all_ones(train.m)
        assert result.history[-1].kept == train.m

    def test_planted_recovery(self):
        train, valid, truth = planted_splits(2)
        cfg = IvsConfig(0.3, max_iterations=10, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(3))
        found = result.mask.bits
        hits = int((found & truth.bits).sum())
        precision = hits / found.sum()
        recall = hits / truth.bits.sum()
        assert precision >= 0.9
        assert recall >= 0.9

    def test_history_popcounts_non_increasing(self):
        train, valid, _ = planted_splits(3)
        cfg = IvsConfig(0.3, max_iterations=10, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(4))
        kept = [item.kept for item in result.history]
        assert all(a >= b for a, b in zip(kept, kept[1:]))
        assert result.mask.popcount > 0

    def test_accepted_iterations_never_degrade_validation(self):
        train, valid, _ = planted_splits(4)
        cfg = IvsConfig(0.3, max_iterations=10, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(5))
        errs = [item.validation_error for item in result.history[:-1]]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_deterministic(self):
        train, valid, _ = planted_splits(5)
        cfg = IvsConfig(0.3, max_iterations=4, mlr=QUICK_MLR)
        a = run_ivs(train, valid, cfg, derive_rng(6))
        b = run_ivs(train, valid, cfg, derive_rng(6))
        assert a.mask == b.mask
        assert [i.kept for i in a.history] == [i.kept for i in b.history]
        assert [i.validation_error for i in a.history] == \
            [i.validation_error for i in b.history]

    def test_degenerate_pre_classifier_stops_with_best_mask(self):
        # Every validation label is 1, which the untrained all-zero model
        # already predicts, so no epoch improves on it and the returned
        # pre-classifier has no hyperplane to score.
        train, valid, _ = planted_splits(6)
        valid = Dataset(valid.x, np.ones(valid.n, dtype=int),
                        valid.num_classes)
        cfg = IvsConfig(0.3, max_iterations=10, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(7))
        assert result.mask == VariableMask.all_ones(train.m)
        assert len(result.history) == 1
        item = result.history[0]
        assert (item.iteration, item.kept) == (1, train.m)
        assert item.validation_error == 0.0
        np.testing.assert_array_equal(item.importance, np.zeros(train.m))

    def test_importances_keep_the_input_width(self):
        train, valid, _ = planted_splits(7)
        cfg = IvsConfig(0.3, max_iterations=4, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(8))
        assert len(result.history) > 1
        for before, item in zip(result.history, result.history[1:]):
            dropped = before.importance < 0.3
            assert item.importance.shape == (train.m,)
            assert np.all(item.importance[dropped] == 0.0)
