import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdae_ivs.errors import DivergenceError
from sdae_ivs.numerics import (derive_rng, derive_seed, make_rng, sgd, sigmoid,
                               softmax)
from util import two_branch_sigmoid

finite = st.floats(min_value=-500, max_value=500, allow_nan=False)
# Ranges where float64 output resolution can still distinguish neighbours.
resolvable = st.floats(min_value=-15, max_value=15, allow_nan=False)
no_underflow = st.floats(min_value=-300, max_value=300, allow_nan=False)


def test_sigmoid_symmetry_point():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_complement_identity():
    z = 3.7
    assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-15)


def test_sigmoid_saturation_no_overflow():
    with np.errstate(over="raise"):
        hi = sigmoid(500.0)
        lo = sigmoid(-500.0)
    assert 1.0 - 1e-12 < hi <= 1.0
    assert 0.0 <= lo < 1e-12


def test_sigmoid_vectorized():
    z = np.array([-700.0, 0.0, 700.0])
    with np.errstate(over="raise"):
        out = sigmoid(z)
    assert out.shape == (3,)
    assert np.all(np.isfinite(out))


@given(resolvable, resolvable)
def test_sigmoid_strictly_increasing(a, b):
    if abs(a - b) < 1e-6:
        return
    lo, hi = min(a, b), max(a, b)
    assert sigmoid(lo) < sigmoid(hi)


@given(finite, finite)
def test_sigmoid_monotone_over_full_range(a, b):
    lo, hi = min(a, b), max(a, b)
    assert sigmoid(lo) <= sigmoid(hi)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 745.0, -745.0,
         1e308, -1e308, np.inf, -np.inf]


@pytest.mark.parametrize("z", EDGES)
def test_sigmoid_bit_equal_to_two_branch_reference_at_edges(z):
    assert same_bits(sigmoid(z), two_branch_sigmoid(z))
    assert isinstance(sigmoid(z), float)


def test_sigmoid_bit_equal_to_two_branch_reference_on_arrays():
    z = np.array(EDGES)
    assert same_bits(sigmoid(z), two_branch_sigmoid(z))
    grid = np.linspace(-40.0, 40.0, 4002).reshape(-1, 3)
    assert same_bits(sigmoid(grid), two_branch_sigmoid(grid))


@given(st.floats(allow_nan=False))
def test_sigmoid_bit_equal_to_two_branch_reference(z):
    assert same_bits(sigmoid(z), two_branch_sigmoid(z))


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
def test_sigmoid_bit_equal_to_two_branch_reference_vectorized(zs):
    z = np.array(zs)
    assert same_bits(sigmoid(z), two_branch_sigmoid(z))


def test_softmax_uniform():
    np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3),
                               atol=1e-15)


def test_softmax_two_class_analytic():
    np.testing.assert_allclose(softmax([0.0, np.log(3.0)]), [0.25, 0.75],
                               atol=1e-15)


def test_softmax_shift_invariance_large_constant():
    v = np.array([1.0, 2.0, 3.0])
    shifted = softmax(v + 1000.0)
    base = softmax(v)
    assert np.argmax(shifted) == np.argmax(base)
    np.testing.assert_allclose(shifted, base, atol=1e-12)


@given(st.lists(no_underflow, min_size=2, max_size=8), st.floats(-100, 100))
def test_softmax_properties(logits, shift):
    p = softmax(logits)
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12
    q = softmax(np.asarray(logits) + shift)
    np.testing.assert_allclose(p, q, atol=1e-12)


def test_rng_bitwise_reproducible():
    a = make_rng(42).normal(size=100)
    b = make_rng(42).normal(size=100)
    assert np.array_equal(a, b)


def test_derive_rng_keys_are_independent_and_stable():
    x = derive_rng(5, 1).normal(size=4)
    y = derive_rng(5, 2).normal(size=4)
    again = derive_rng(5, 1).normal(size=4)
    assert np.array_equal(x, again)
    assert not np.array_equal(x, y)
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


class TestSgd:
    """The one SGD loop, driven by a unit step and a scripted score: with
    one row and learning rate 1 the parameter reads the epoch count."""

    @staticmethod
    def run(scores, epochs=10, patience=2):
        w = np.zeros(1)
        scripted = iter(scores)
        history = sgd("toy training", [w], lambda rows: [-np.ones(1)], 1.0,
                      (np.arange(1),), epochs, make_rng(0),
                      score=lambda: next(scripted), patience=patience)
        return w, history

    def test_stops_after_patience_epochs_without_improvement(self):
        _, history = self.run([5, 4, 4, 6, 1], patience=2)
        assert history == [(0, 5), (1, 4), (2, 4), (3, 6)]

    def test_equal_score_keeps_the_earlier_snapshot(self):
        w, _ = self.run([5, 4, 4, 6], patience=2)
        assert w.tolist() == [1.0]

    def test_restores_the_best_snapshot(self):
        w, history = self.run([5, 6, 2, 3, 3, 3], patience=3)
        assert history[-1] == (5, 3)
        assert w.tolist() == [2.0]

    def test_runs_every_epoch_while_improving(self):
        w, history = self.run([5, 4, 3], epochs=2)
        assert history == [(0, 5), (1, 4), (2, 3)]
        assert w.tolist() == [2.0]

    def test_zero_epochs_leaves_params_and_rng_untouched(self):
        w = np.array([0.5, -0.5])
        rng = make_rng(3)
        history = sgd("toy training", [w], pytest.fail, 1.0, (np.arange(4),),
                      0, rng, score=lambda: 0.25, patience=1)
        assert history == [(0, 0.25)]
        assert w.tolist() == [0.5, -0.5]
        assert rng.integers(0, 2**63) == make_rng(3).integers(0, 2**63)

    def test_without_score_runs_every_epoch_and_records_nothing(self):
        w = np.zeros(1)
        assert sgd("toy training", [w], lambda rows: [-np.ones(1)], 1.0,
                   (np.arange(1),), 4, make_rng(0)) == []
        assert w.tolist() == [4.0]

    def test_each_epoch_visits_a_permutation_in_batches(self):
        # grads gets contiguous, row-aligned slices of every data array,
        # and each epoch's rows are one rng permutation.
        n, epochs = 5, 2
        x = np.arange(2 * n, dtype=np.float64).reshape(n, 2)
        labels = np.arange(n) + 100
        seen = []

        def grads(xb, yb):
            assert xb.flags.c_contiguous and yb.flags.c_contiguous
            np.testing.assert_array_equal(xb[:, 0] / 2, yb - 100)
            seen.append((yb - 100).tolist())
            return [np.zeros(1)]

        sgd("toy training", [np.zeros(1)], grads, 1.0, (x, labels), epochs,
            make_rng(4), batch=2)
        assert [len(rows) for rows in seen] == [2, 2, 1, 2, 2, 1]
        reference = make_rng(4)
        for epoch in (seen[:3], seen[3:]):
            assert sum(epoch, []) == reference.permutation(n).tolist()

    def test_one_step_is_p_minus_learning_rate_times_g(self):
        rng = make_rng(5)
        params = [rng.normal(size=(3, 4)), rng.normal(size=3)]
        fresh = [rng.normal(size=(3, 4)), rng.normal(size=3)]
        expected = [p - 0.37 * g for p, g in zip(params, fresh)]
        sgd("toy training", params, lambda rows: [g.copy() for g in fresh],
            0.37, (np.arange(1),), 1, make_rng(0))
        for p, e in zip(params, expected):
            assert same_bits(p, e)

    def test_non_finite_step_raises_naming_phase_and_epoch(self):
        steps = iter([1.0, 1e308])
        with pytest.raises(DivergenceError,
                           match="toy training diverged at epoch 2"):
            sgd("toy training", [np.zeros(1)],
                lambda rows: [np.full(1, next(steps))], 1e300,
                (np.arange(1),), 5, make_rng(0))
