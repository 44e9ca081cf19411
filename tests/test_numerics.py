from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdae_ivs.errors import DivergenceError
from sdae_ivs.numerics import (BLOCK_ROWS, PENDING_ROWS, Pending, delta_rows,
                               derive_rng, map_blocks, pack, row_blocks, sgd,
                               sigmoid, sigmoid_backward, softmax,
                               takes_pending)
from util import assert_tiles, two_branch_sigmoid

finite = st.floats(min_value=-500, max_value=500, allow_nan=False)
# Ranges where float64 output resolution can still distinguish neighbours.
resolvable = st.floats(min_value=-15, max_value=15, allow_nan=False)
no_underflow = st.floats(min_value=-300, max_value=300, allow_nan=False)


def one(z):
    """The one-element array [z], which sigmoid takes in place of a scalar."""
    return np.array([z], dtype=np.float64)


def test_sigmoid_symmetry_point():
    assert sigmoid(one(0.0)) == 0.5


def test_sigmoid_complement_identity():
    z = 3.7
    assert sigmoid(one(z)) + sigmoid(one(-z)) == pytest.approx(1.0, abs=1e-15)


def test_sigmoid_saturation_no_overflow():
    with np.errstate(over="raise"):
        hi = sigmoid(one(500.0))
        lo = sigmoid(one(-500.0))
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
    assert sigmoid(one(lo)) < sigmoid(one(hi))


@given(finite, finite)
def test_sigmoid_monotone_over_full_range(a, b):
    lo, hi = min(a, b), max(a, b)
    assert sigmoid(one(lo)) <= sigmoid(one(hi))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 745.0, -745.0,
         1e308, -1e308, np.inf, -np.inf]


@pytest.mark.parametrize("z", EDGES)
def test_sigmoid_bit_equal_to_two_branch_reference_at_edges(z):
    assert same_bits(sigmoid(one(z)), two_branch_sigmoid(one(z)))


def test_sigmoid_bit_equal_to_two_branch_reference_on_arrays():
    z = np.array(EDGES)
    assert same_bits(sigmoid(z), two_branch_sigmoid(z))
    grid = np.linspace(-40.0, 40.0, 4002).reshape(-1, 3)
    assert same_bits(sigmoid(grid), two_branch_sigmoid(grid))


@pytest.mark.parametrize("z", [np.array(EDGES), np.array([EDGES]),
                               np.linspace(-40.0, 40.0, 4002).reshape(-1, 3)])
def test_in_place_sigmoid_bit_equal_to_two_branch_reference(z):
    # Into a separate array, over z itself, and over z itself with the
    # numerator in a scratch array, as the SGD steps call it.
    want = two_branch_sigmoid(z)
    out = np.full_like(z, np.nan)
    assert sigmoid(z, out=out) is out and same_bits(out, want)
    work = z.copy()
    assert sigmoid(work, out=work) is work and same_bits(work, want)
    work, scratch = z.copy(), np.full_like(z, np.nan)
    assert sigmoid(work, out=work, numerator=scratch) is work
    assert same_bits(work, want)


@given(st.floats(allow_nan=False))
def test_sigmoid_bit_equal_to_two_branch_reference(z):
    assert same_bits(sigmoid(one(z)), two_branch_sigmoid(one(z)))


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
def test_sigmoid_bit_equal_to_two_branch_reference_vectorized(zs):
    z = np.array(zs)
    assert same_bits(sigmoid(z), two_branch_sigmoid(z))


def test_softmax_uniform():
    np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3),
                               atol=1e-15)


def test_softmax_two_class_analytic():
    np.testing.assert_allclose(softmax(np.array([0.0, np.log(3.0)])), [0.25, 0.75],
                               atol=1e-15)


def test_softmax_shift_invariance_large_constant():
    v = np.array([1.0, 2.0, 3.0])
    shifted = softmax(v + 1000.0)
    base = softmax(v)
    assert np.argmax(shifted) == np.argmax(base)
    np.testing.assert_allclose(shifted, base, atol=1e-12)


@given(st.lists(no_underflow, min_size=2, max_size=8), st.floats(-100, 100))
def test_softmax_properties(logits, shift):
    p = softmax(np.array(logits))
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12
    q = softmax(np.array(logits) + shift)
    np.testing.assert_allclose(p, q, atol=1e-12)


def test_rng_bitwise_reproducible():
    a = derive_rng(42).normal(size=100)
    b = derive_rng(42).normal(size=100)
    assert np.array_equal(a, b)


def test_derive_rng_keys_are_independent_and_stable():
    x = derive_rng(5, 1).normal(size=4)
    y = derive_rng(5, 2).normal(size=4)
    again = derive_rng(5, 1).normal(size=4)
    assert np.array_equal(x, again)
    assert not np.array_equal(x, y)
    assert not np.array_equal(derive_rng(5, 1, 2).normal(size=4),
                              derive_rng(5, 2, 1).normal(size=4))


def test_only_numerics_makes_generators():
    # Every other module takes a generator or derives one with derive_rng.
    src = Path(__file__).resolve().parent.parent / "src" / "sdae_ivs"
    idioms = ("spawn(", "SeedSequence(", "default_rng", "integers(0, 2**63)")
    found = [(path.name, idiom) for path in sorted(src.glob("*.py"))
             if path.name != "numerics.py"
             for idiom in idioms if idiom in path.read_text()]
    assert found == []


class TestSgd:
    """The one SGD loop, driven by a unit step and a scripted score: with
    one row and learning rate 1 the parameter reads the epoch count."""

    @staticmethod
    def run(scores, epochs=10, patience=2):
        w = np.zeros(1)
        scripted = iter(scores)
        history = sgd("toy training", w, lambda rows: -np.ones(1), 1.0,
                      (np.arange(1),), epochs, derive_rng(0),
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
        rng = derive_rng(3)
        history = sgd("toy training", w, pytest.fail, 1.0, (np.arange(4),),
                      0, rng, score=lambda: 0.25, patience=1)
        assert history == [(0, 0.25)]
        assert w.tolist() == [0.5, -0.5]
        assert rng.integers(0, 2**63) == derive_rng(3).integers(0, 2**63)

    def test_without_score_runs_every_epoch_and_records_nothing(self):
        w = np.zeros(1)
        assert sgd("toy training", w, lambda rows: -np.ones(1), 1.0,
                   (np.arange(1),), 4, derive_rng(0)) == []
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
            return np.zeros(1)

        sgd("toy training", np.zeros(1), grads, 1.0, (x, labels), epochs,
            derive_rng(4), batch=2)
        assert [len(rows) for rows in seen] == [2, 2, 1, 2, 2, 1]
        reference = derive_rng(4)
        for epoch in (seen[:3], seen[3:]):
            assert sum(epoch, []) == reference.permutation(n).tolist()

    def test_per_epoch_hook_runs_after_the_permutation_before_the_steps(self):
        # The hook sees the epoch's gathered rows and draws from the same
        # rng, so the stream must read permutation, draw, permutation, ...;
        # its arrays lead the gathered ones in each step's arguments.
        n, rng, events = 4, derive_rng(4), []
        x = np.arange(n, dtype=np.float64)

        def per_epoch(xs):
            events.append(("epoch", xs.tolist()))
            return (rng.normal(size=xs.shape),)

        def grads(noise, xb):
            events.append(("step", xb.tolist(), noise.tolist()))
            return np.zeros(1)

        sgd("toy training", np.zeros(1), grads, 1.0, (x,), 2, rng,
            per_epoch=per_epoch)
        reference, expected = derive_rng(4), []
        for _ in range(2):
            order = x[reference.permutation(n)]
            noise = reference.normal(size=n)
            expected.append(("epoch", order.tolist()))
            expected += [("step", [o], [z]) for o, z in zip(order, noise)]
        assert events == expected

    def test_zero_epochs_never_calls_the_per_epoch_hook(self):
        assert sgd("toy training", np.zeros(1), pytest.fail, 1.0,
                   (np.arange(3),), 0, derive_rng(0), per_epoch=pytest.fail) == []

    def test_one_step_is_p_minus_learning_rate_times_g(self):
        rng = derive_rng(5)
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=3)]
        fresh = [rng.normal(size=(3, 4)), rng.normal(size=3)]
        expected = [p - 0.37 * g for p, g in zip(arrays, fresh)]
        params, views = pack(*arrays)
        sgd("toy training", params,
            lambda rows: np.concatenate([g.ravel() for g in fresh]),
            0.37, (np.arange(1),), 1, derive_rng(0))
        for p, e in zip(views, expected):
            assert same_bits(p, e)

    def test_non_finite_step_raises_naming_phase_and_epoch(self):
        steps = iter([1.0, 1e308])
        with pytest.raises(DivergenceError,
                           match="toy training diverged at epoch 2"):
            sgd("toy training", np.zeros(1),
                lambda rows: np.full(1, next(steps)), 1e300,
                (np.arange(1),), 5, derive_rng(0))

    def test_pending_updates_are_written_back_before_each_score(self):
        # The 2 x 2 matrix leads params. Each step pushes a step of +1 to
        # each of its entries and returns a gradient of -1 for the last
        # entry, so every entry reads 3 after each epoch of 3 rows, and the
        # score, the snapshot and the restored parameters see them all.
        params, seen = np.zeros(5), []
        lazy = Pending(params[:4].reshape(2, 2), 1.0, 1)

        def grads(rows):
            lazy.push(-np.ones((1, 2)), np.ones((1, 2)))
            return -np.ones(1)

        def score():
            seen.append(params.tolist())
            return (-1, -2, 0)[len(seen) - 1]

        history = sgd("toy training", params, grads, 1.0, (np.arange(3),), 5,
                      derive_rng(0), score=score, patience=1, pending=[lazy])
        assert history == [(0, -1), (1, -2), (2, 0)]
        assert seen == [[0.0] * 5, [3.0] * 5, [6.0] * 5]
        assert params.tolist() == [3.0] * 5 and lazy.held == 0


class TestPending:
    def test_products_and_write_back_use_the_matrix_the_steps_reached(self):
        rng = derive_rng(6)
        w = rng.normal(size=(3, 5))
        lazy = Pending(w, 0.5, 2)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        lazy.push(a, b)
        reached = w - 0.5 * a.T @ b
        x, h = rng.normal(size=(2, 5)), rng.normal(size=(2, 3))
        np.testing.assert_allclose(lazy.times_t(x, np.empty((2, 3))),
                                   x @ reached.T, rtol=1e-13)
        np.testing.assert_allclose(lazy.times(h, np.empty((2, 5))),
                                   h @ reached, rtol=1e-13)
        lazy.write_back()
        assert lazy.held == 0
        np.testing.assert_allclose(w, reached, rtol=1e-13)
        assert np.array_equal(lazy.times(h, np.empty((2, 5))), h @ w)

    def test_a_full_buffer_is_written_back_before_the_next_push(self):
        w = np.zeros((2, 3))
        lazy = Pending(w, 1.0, 1)
        for _ in range(PENDING_ROWS):
            lazy.push(np.ones((1, 2)), np.ones((1, 3)))
        assert lazy.held == PENDING_ROWS and not w.any()
        lazy.push(np.ones((1, 2)), np.ones((1, 3)))
        assert lazy.held == 1 and (w == -PENDING_ROWS).all()

    def test_the_size_rule_takes_matrices_of_at_least_2_14_elements(self):
        assert takes_pending(np.zeros((128, 128)))
        assert not takes_pending(np.zeros((127, 129)))
        assert not takes_pending(np.zeros(2 ** 15))


def identical(a, b):
    """The same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 5])
class TestDtypeOperands:
    """The steps' 0-d operands of the step's dtype give the bits of the
    Python floats and numpy scalars they replace (NEP 50: a Python float is
    cast to the array's dtype), on one row and on several."""

    @staticmethod
    def draw(rows, dtype, width=7, seed=40):
        return derive_rng(seed).normal(scale=4.0, size=(rows, width)
                                       ).astype(dtype)

    def test_sigmoid_and_its_backward_step_match_python_floats(self, rows,
                                                               dtype):
        z = self.draw(rows, dtype)
        e = np.exp(np.copysign(z, -1.0))
        e += 1.0
        want = np.exp(np.fmin(z, 0.0)) / e
        assert identical(sigmoid(z), want)
        da = self.draw(rows, dtype, seed=41)
        expected = da * want * np.subtract(1.0, want)
        got = sigmoid_backward(da, want, np.empty_like(want))
        assert identical(got, expected)

    def test_softmax_into_a_reduction_buffer_matches_softmax(self, rows,
                                                             dtype):
        z = self.draw(rows, dtype)
        total = np.zeros(() if rows == 1 else (rows, 1), dtype)
        assert identical(softmax(z.copy(), total=total), softmax(z))
        work = z.copy()
        assert softmax(work, out=work, total=total) is work
        assert identical(work, softmax(z))

    @pytest.mark.parametrize("rate", [0.1, 0.01, 0.2, 1 / 3])
    def test_sgd_step_matches_a_python_float_rate(self, rows, dtype, rate):
        params, g = self.draw(rows, dtype).ravel(), \
            self.draw(rows, dtype, seed=41).ravel()
        want = g.copy()
        want *= rate
        want = params - want
        sgd("toy training", params, lambda rows: g.copy(), rate,
            (np.arange(1),), 1, derive_rng(0))
        assert identical(params, want)

    @pytest.mark.parametrize("rate", [0.1, 0.01, 0.2, 1 / 3])
    def test_pending_push_matches_a_python_float_rate(self, rows, dtype,
                                                      rate):
        a, b = self.draw(rows, dtype, 3), self.draw(rows, dtype, 5, seed=41)
        lazy = Pending(np.zeros((3, 5), dtype), rate, rows)
        lazy.push(a, b)
        assert identical(lazy.u[:rows], np.multiply(a, rate))
        assert identical(lazy.v[:rows], b)


def test_rate_past_float32_is_inf_with_no_warning():
    # pytest turns a RuntimeWarning into an error: casting 1e308 to
    # float32 outside errstate warns "overflow encountered in cast".
    lazy = Pending(np.zeros((2, 2), np.float32), 1e308, 1)
    assert lazy.learning_rate.dtype == np.float32
    assert lazy.learning_rate.shape == () and np.isposinf(lazy.learning_rate)
    with pytest.raises(DivergenceError,
                       match="toy training diverged at epoch 1"):
        sgd("toy training", np.zeros(1, np.float32),
            lambda rows: np.ones(1, np.float32), 1e308, (np.arange(1),), 1,
            derive_rng(0))


class TestPack:
    def test_views_are_the_buffer_in_order(self):
        a, b = np.arange(6.0).reshape(2, 3), np.array([-1.0, -2.0])
        flat, (va, vb) = pack(a, b)
        assert flat.dtype == np.float64
        assert flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -1.0, -2.0]
        assert va.shape == (2, 3) and vb.shape == (2,)
        assert np.array_equal(va, a) and np.array_equal(vb, b)

    def test_buffer_and_views_keep_the_arrays_dtype(self):
        flat, views = pack(np.ones((2, 2), np.float32), np.zeros(3, np.float32))
        assert flat.dtype == np.float32
        assert all(v.dtype == np.float32 and v.base is flat for v in views)
        assert delta_rows(views[1], 4).dtype == np.float32
        x = np.ones((600, 3), np.float32)
        assert map_blocks(lambda rows: rows * 2, x).dtype == np.float32

    def test_writing_through_a_view_writes_the_buffer(self):
        a, b = np.zeros((2, 2)), np.zeros(3)
        flat, (va, vb) = pack(a, b)
        va[1, 0] = 7.0
        vb -= 1.0
        assert flat.tolist() == [0.0, 0.0, 7.0, 0.0, -1.0, -1.0, -1.0]
        flat *= 2.0
        assert va[1, 0] == 14.0 and vb.tolist() == [-2.0] * 3
        # The buffer holds copies: the packed arrays never move.
        assert not a.any() and not b.any()

    def test_matrices_past_the_size_rule_lead_the_buffer(self):
        # sgd steps params past the pending matrices: pack puts them first,
        # each part in argument order, and returns views in argument order.
        bias, small = np.full(3, 2.0), np.full((2, 2), 3.0)
        wide = np.ones((128, 128))
        flat, views = pack(bias, wide, small)
        assert [v.shape for v in views] == [(3,), (128, 128), (2, 2)]
        assert all(v.base is flat for v in views)
        assert_tiles(flat, [views[1], views[0], views[2]])
        assert flat[:wide.size].tolist() == [1.0] * wide.size
        assert flat[wide.size:].tolist() == [2.0] * 3 + [3.0] * 4
        # A gradient buffer packs only arrays that step eagerly, in
        # argument order.
        grad, (g_bias, g_small) = pack(np.zeros_like(bias), small)
        assert_tiles(grad, [g_bias, g_small])


class TestDeltaRows:
    def test_one_row_is_the_bias_gradients_own_row(self):
        # A one-row step writes its delta into the bias gradient itself,
        # -0.0 included, as the docstring says.
        _, (_, out) = pack(np.ones(3), np.array([-0.0, 3.0]))
        delta = delta_rows(out, 1)
        assert delta.shape == (1, 2) and np.shares_memory(delta, out)
        assert same_bits(delta[0], [-0.0, 3.0])

    def test_delta_of_several_rows_is_its_own_array(self):
        out = np.ones(4)
        delta = delta_rows(out, 3)
        assert delta.shape == (3, 4) and not delta.any()
        assert not np.shares_memory(delta, out)


@pytest.mark.parametrize("n", [0, 1, 255, 256, 511, 512, 513, 767, 768, 6000])
def test_row_blocks_cover_the_rows_with_no_short_block(n):
    blocks = row_blocks(n)
    assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
    sizes = [rows.stop - rows.start for rows in blocks]
    if n < 2 * BLOCK_ROWS:
        assert sizes == [n]
    else:
        assert all(BLOCK_ROWS <= size < 2 * BLOCK_ROWS for size in sizes)


def test_map_blocks_stacks_the_blocks_and_passes_one_block_whole():
    x = np.arange(3.0 * 600).reshape(600, 3)
    seen = []

    def f(rows):
        seen.append(len(rows))
        return rows[:, :2] * 2.0

    np.testing.assert_array_equal(map_blocks(f, x), x[:, :2] * 2.0)
    assert seen == [256, 344]
    small = x[:10]
    assert np.shares_memory(map_blocks(lambda rows: rows, small), small)
