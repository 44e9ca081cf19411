import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdae_ivs.numerics import (derive_rng, derive_seed, make_rng, sigmoid,
                               softmax)

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
