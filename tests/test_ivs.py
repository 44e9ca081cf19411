from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sdae_ivs import ivs
from sdae_ivs.data import (Dataset, SyntheticSpec, VariableMask, gen_synthetic,
                           split)
from sdae_ivs.ivs import IvsConfig, run_ivs, task_importance
from sdae_ivs.mlr import MlrModel, TrainConfig, train_mlr
from sdae_ivs.numerics import derive_rng
from util import discriminant, random_mlr

PLANTED = SyntheticSpec(num_relevant=20, num_irrelevant=80, num_classes=5,
                        class_separation=3.0, noise_sd=0.5,
                        examples_per_split=(1000, 300, 0))

QUICK_MLR = TrainConfig(learning_rate=0.1, max_epochs=30, patience=5)


# A few rows and epochs per fit, for properties that run many selections.
TINY_TRAIN, TINY_VALID, _ = split(gen_synthetic(
    SyntheticSpec(3, 5, 3, 3.0, 0.5, (40, 20, 0)), derive_rng(0))[0], (40, 20))
TINY_MLR = TrainConfig(learning_rate=0.1, max_epochs=2, patience=2)


def planted_splits(seed):
    d, truth = gen_synthetic(PLANTED, derive_rng(seed))
    train, valid, _ = split(d, PLANTED.examples_per_split[:2])
    return train, valid, truth


def pair_model(weights) -> MlrModel:
    """The two-class model of two weight rows, whose task importance is
    the importance of their one class pair."""
    return MlrModel(np.asarray(weights, dtype=np.float64), np.zeros(2))


def pair_of(m: MlrModel, i: int, j: int) -> MlrModel:
    """The two-class model made of m's rows i and j (1-based)."""
    return MlrModel(m.weights[[i - 1, j - 1]], m.biases[[i - 1, j - 1]])


class TestNormalVector:
    """The normal w_i - w_j of a pair's hyperplane, seen through the task
    importance of the two-class model made of rows i and j."""

    def test_three_four_five(self):
        # The unit normal is (0.6, 0.8, 0); its length cancels.
        np.testing.assert_array_equal(
            task_importance(pair_model([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])),
            [0.75, 1.0, 0.0])

    def test_antisymmetry(self):
        # (j, i)'s normal negates (i, j)'s, so the class order is invisible.
        for seed in range(10):
            m = random_mlr(seed, k=4, m=5)
            np.testing.assert_array_equal(task_importance(pair_of(m, 2, 3)),
                                          task_importance(pair_of(m, 3, 2)))

    def test_biases_do_not_enter(self):
        m = random_mlr(1, k=3, m=4)
        shifted = MlrModel(m.weights, m.biases + 100.0)
        np.testing.assert_array_equal(task_importance(m),
                                      task_importance(shifted))

    def test_degenerate_pair(self):
        # Identical weights have no hyperplane, so nothing is scored.
        assert task_importance(pair_model(np.ones((2, 3)))).tolist() == \
            [0.0] * 3

    def test_weights_too_large_to_square(self):
        # Squares of weights near 1e200 overflow; the weights are finite,
        # and nothing is squared.
        m = random_mlr(2, k=3, m=4)
        huge = MlrModel(m.weights * 1e200, m.biases)
        with np.errstate(all="raise"):
            importance = task_importance(huge)
        assert importance.max() == 1.0
        np.testing.assert_allclose(
            importance,
            task_importance(MlrModel(huge.weights * 1e-200, m.biases)),
            rtol=1e-12)


class TestPairImportance:
    """|w_i - w_j| scaled by its largest component, as the task importance
    of a two-class model."""

    def test_direct_formula(self):
        np.testing.assert_array_equal(
            task_importance(pair_model([[1.0, 2.0, 0.5], [0.25, 0.0, 0.5]])),
            [0.375, 1.0, 0.0])

    def test_single_component_is_indicator(self):
        np.testing.assert_array_equal(
            task_importance(pair_model([[0.0, -2.5, 0.0], [0.0, 0.0, 0.0]])),
            [0.0, 1.0, 0.0])

    def test_scale_invariant(self):
        v = np.array([[0.3, -0.1, 0.7], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(task_importance(pair_model(5.0 * v)),
                                   task_importance(pair_model(v)), atol=1e-15)

    def test_max_component_exactly_one(self):
        for seed in range(20):
            m = random_mlr(seed, k=2, m=6)
            assert task_importance(m).max() == 1.0

    def test_zero_vector_rejected(self):
        # The all-zero model: what a pre-classifier that never beat its
        # initial parameters returns. It scores nothing.
        assert task_importance(pair_model(np.zeros((2, 3)))).tolist() == \
            [0.0] * 3


class TestTaskImportance:
    def test_two_classes_equal_single_pair(self):
        m = random_mlr(7, k=2, m=5)
        diff = np.abs(m.weights[0] - m.weights[1])
        np.testing.assert_array_equal(task_importance(m), diff / diff.max())

    def test_componentwise_max_over_pairs(self):
        # Hand-computed three-class case.
        weights = np.array([[0.0, 0.0], [0.2, 1.0], [0.9, 0.1]])
        m = MlrModel(weights, np.zeros(3))

        def pair(i, j):
            return task_importance(pair_of(m, i, j))

        np.testing.assert_allclose(pair(1, 2), [0.2, 1.0], atol=1e-15)
        np.testing.assert_allclose(pair(1, 3), [1.0, 1.0 / 9.0], atol=1e-15)
        np.testing.assert_allclose(pair(2, 3), [7.0 / 9.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(task_importance(m), [1.0, 1.0], atol=1e-15)

    def test_skips_degenerate_pairs(self):
        # Pair (1, 2) has no hyperplane; (1, 3) and (2, 3) both score
        # the normal (1, -2).
        weights = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            task_importance(MlrModel(weights, np.zeros(3))), [0.5, 1.0],
            atol=1e-15)

    def test_all_degenerate_rejected(self):
        # No pair has a hyperplane, so nothing is scored.
        assert task_importance(
            MlrModel(np.ones((3, 2)), np.zeros(3))).tolist() == [0.0, 0.0]

    def test_range_and_top(self):
        for seed in range(10):
            importance = task_importance(random_mlr(seed, k=3, m=8))
            assert importance.min() >= 0.0
            assert importance.max() == 1.0

    def test_sensitivity_matches_finite_differences(self):
        # A pair's importances are the sensitivities of its discriminant
        # scaled by the largest; quick version of the full acceptance
        # oracle.
        step = 1e-6
        for seed in range(10):
            rng = derive_rng(seed)
            k, mm = int(rng.integers(2, 5)), int(rng.integers(2, 8))
            model = random_mlr(1000 + seed, k, mm)
            i, j = 1, k
            x = rng.uniform(size=mm)
            fd = np.empty(mm)
            for d in range(mm):
                e = np.zeros(mm)
                e[d] = step
                fd[d] = (discriminant(model, i, j, x + e)
                         - discriminant(model, i, j, x - e)) / (2 * step)
            expected = np.abs(fd) / np.abs(fd).max()
            importance = task_importance(pair_of(model, i, j))
            assert np.all(np.abs(importance - expected) < 1e-6)

    def test_scale_invariance_of_importances(self):
        model = random_mlr(3, k=4, m=6)
        base = task_importance(model)
        for lam in (0.01, 0.5, 3.0, 1000.0):
            scaled = MlrModel(lam * model.weights, lam * model.biases)
            np.testing.assert_allclose(task_importance(scaled), base,
                                       atol=1e-12)


class TestUpdateMask:
    """The update inside run_ivs: keep a variable iff it was kept before
    and its importance clears the threshold."""

    def test_definition(self):
        # Replaying the update over the recorded importances gives every
        # recorded kept count. This run ends on an update that changed
        # nothing, so every row is an update.
        train, valid, _ = planted_splits(8)
        cfg = IvsConfig(0.3, max_iterations=10, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(9))
        assert len(result.history) > 1
        assert result.history[-1].kept == result.history[-2].kept
        bits = np.ones(train.m, dtype=bool)
        for item in result.history:
            bits &= item.importance >= 0.3
            assert item.kept == bits.sum()

    def test_zero_threshold_keeps_everything(self, monkeypatch):
        # The first update keeps every variable, so selection stops there
        # after one pre-classifier fit.
        fits = []
        monkeypatch.setattr(ivs, "train_mlr", lambda *args, **kwargs: (
            fits.append(args) or train_mlr(*args, **kwargs)))
        train, valid, _ = planted_splits(1)
        cfg = IvsConfig(0.0, max_iterations=10, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(1))
        assert len(fits) == 1
        assert result.mask == VariableMask.all_ones(train.m)
        assert [item.kept for item in result.history] == [train.m]

    def test_dropped_stays_dropped(self, monkeypatch):
        # The first fit drops variable 2; the second scores every survivor
        # at 1, and variable 2 still stays out, so the update changed
        # nothing and selection stops there.
        scores = iter([np.array([1.0] + [0.1] + [1.0] * 98), np.ones(99)])
        monkeypatch.setattr(ivs, "task_importance", lambda m: next(scores))
        train, valid, _ = planted_splits(0)
        cfg = IvsConfig(0.3, max_iterations=10, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(1))
        assert [item.kept for item in result.history] == [99, 99]
        assert result.history[1].importance[1] == 0.0
        assert not result.mask.bits[1]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, allow_nan=False))
    def test_monotone_shrinkage(self, seed, threshold):
        # Whatever the scores, a dropped variable never comes back. As
        # task_importance's, their maximum is exactly 1.
        rng = derive_rng(seed)

        def scores(m):
            u = rng.uniform(size=m.m)
            return u / u.max()

        with mock.patch.object(ivs, "task_importance", scores):
            result = run_ivs(TINY_TRAIN, TINY_VALID,
                             IvsConfig(threshold, 6, TINY_MLR), rng)
        bits = np.ones(TINY_TRAIN.m, dtype=bool)
        for item in result.history:
            assert np.all(item.importance[~bits] == 0.0)
            bits &= item.importance >= threshold
        kept = [item.kept for item in result.history]
        assert min(kept) >= 1
        assert all(a >= b for a, b in zip(kept, kept[1:]))


class TestRunIvs:
    def test_single_iteration_returns_first_update(self):
        train, valid, _ = planted_splits(0)
        cfg = IvsConfig(0.3, max_iterations=1, mlr=QUICK_MLR)
        result = run_ivs(train, valid, cfg, derive_rng(1))
        assert len(result.history) == 1
        item = result.history[0]
        expected = VariableMask(item.importance >= 0.3)
        assert result.mask == expected
        assert item.kept == expected.popcount

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
        assert item.kept == train.m
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
