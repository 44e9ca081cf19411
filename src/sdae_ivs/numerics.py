"""Scalar/vector primitives and seeded randomness shared by all training code.

Each function computes in the dtype of the arrays it is given (stack.NETWORK
for the networks); gradient checks at ~1e-5 relative tolerance need float64.
A step's elementwise operands are 0-d arrays of its dtype: faster than
Python floats, the same bits by NEP 50; rates are cast under errstate.
Randomness is PCG64 threaded explicitly through the operations that need
it, never module-global state.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DataError, DivergenceError

Rng = np.random.Generator


# Phases of the key (layer or depth, phase) that names each training stream.
IVS, DAE, TOP, FINE_TUNE, EXTRACTORS = 0, 1, 2, 3, 4


def derive_rng(master_seed: int, *key: int) -> Rng:
    """Independent PCG64 generator for a key such as (layer, phase).

    Equal seeds and keys give identical streams, children with distinct
    keys are statistically independent, and no stream depends on which
    other streams were drawn first. With no key it is the plain stream of
    master_seed.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def check_finite(phase: str, epoch: int, params: np.ndarray) -> None:
    """Raise DivergenceError if the flat parameter buffer holds an inf or a
    NaN."""
    if not np.isfinite(params).all():
        raise DivergenceError(f"{phase} diverged at epoch {epoch} (non-finite "
                              "parameters); lower the learning rate")


def pack(*arrays):
    """Copies of arrays laid end to end in one buffer of their dtype, and a
    view of it shaped like each, in argument order: a fit's parameters, or
    its gradients, which sgd then updates in one call whatever their count.
    The ones takes_pending selects lead it, each part in argument order."""
    order = sorted(range(len(arrays)),
                   key=lambda i: not takes_pending(arrays[i]))
    flat = np.concatenate([np.ravel(arrays[i]) for i in order])
    parts = dict(zip(order, np.split(flat, np.cumsum(
        [np.size(arrays[i]) for i in order])[:-1])))
    return flat, [parts[i].reshape(np.shape(a)) for i, a in enumerate(arrays)]


def sgd(phase, params, grads, learning_rate, data, epochs, rng, batch=1,
        score=None, patience=0, per_epoch=None, pending=()):
    """Minibatch SGD over the rows of data, stepping the flat buffer params
    in place.

    params holds every parameter of the fit, the model's arrays being views
    of it (see pack). data is a tuple of row-aligned arrays, such as
    (inputs, targets). Each epoch gathers every array once in the order of
    a fresh rng permutation; per_epoch(*gathered), when given, then returns
    more row-aligned arrays for that epoch (such as one corruption draw of
    every row), which lead the gathered ones, so that a step reads (x,
    target) whether its inputs are drawn or gathered; an epoch's arrays
    are freed before the next epoch gathers its own. sgd steps along
    grads(*slices) for each run of `batch` consecutive rows: a flat
    gradient laid out like params, which is sgd's to scale in place by the
    learning rate and grads' to overwrite on its next call, so a step is
    two calls whatever the parameter count. The trainers' grads
    (chain.gradient) build the buffers of a step once per row count (a
    plan), on its first call with that many rows: one plan at batch 1,
    two with a short last batch.
    pending lists the Pending updates that grads pushes its large
    matrices' steps to instead; their matrices lead params (see pack),
    grads' gradient covers the rest, and sgd writes each back at the end
    of every epoch, so that nothing is pending at a score, a snapshot or
    the return. Overflow inside a step is left to check_finite, which
    raises DivergenceError naming phase and epoch at the end of that
    epoch; no rows at all is a DataError naming phase.

    With a score (lower is better, e.g. a validation error) training stops
    early: the score is taken before the first epoch and after each one,
    training ends after `patience` epochs without a strict improvement,
    and params are restored to the best-scoring snapshot, so ties keep the
    earlier epoch. Returns the [(epoch, score)] history from epoch 0
    (empty without a score).
    """
    if len(data[0]) == 0:
        raise DataError(f"{phase} needs at least one training row")
    history = []
    if score is not None:
        best_score, best = score(), params.copy()
        history.append((0, best_score))
    since_improvement = 0
    stepped = params[sum(p.weights.size for p in pending):]
    with np.errstate(over="ignore"):
        rate = np.array(learning_rate, params.dtype)
    for epoch in range(1, epochs + 1):
        _epoch(stepped, grads, rate, data, rng, batch, per_epoch, pending)
        check_finite(phase, epoch, params)
        if score is None:
            continue
        current = score()
        history.append((epoch, current))
        if current < best_score:
            best_score, best = current, params.copy()
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= patience:
                break
    if score is not None:
        params[...] = best
    return history


def _epoch(params, grads, rate, data, rng, batch, per_epoch, pending):
    """One epoch of sgd at the 0-d learning rate rate, whose gathered rows
    are freed on return, so that no two epochs' rows are held at once."""
    n = len(data[0])
    order = rng.permutation(n)
    shuffled = [a[order] for a in data]
    if per_epoch is not None:
        shuffled = [*per_epoch(*shuffled), *shuffled]
    batches = [a.reshape(n, 1, *a.shape[1:]) if batch == 1 else
               [a[lo:lo + batch] for lo in range(0, n, batch)]
               for a in shuffled]
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in zip(*batches):
            g = grads(*rows)
            g *= rate
            params -= g
        for update in pending:
            update.write_back()


# A weight matrix of at least PENDING_SIZE elements takes its SGD steps as
# a Pending update, and a smaller one eagerly (full gradient, times the
# learning rate, subtracted): a float32 DAE step at batch 1 with one
# OpenBLAS thread, eager against pending, took 24 against 32 us at
# 40 x 100, 31 against 34 at 100 x 100, 46 against 42 at 100 x 200, 141
# against 81 at 100 x 784 and 1986 against 582 at 1000 x 784.
PENDING_SIZE = 2 ** 14
# Factor rows a Pending update holds before it is written back: the write-
# back is one product of inner dimension 16 and one pass over the matrix,
# where each eager step makes about five passes.
PENDING_ROWS = 16


def takes_pending(a) -> bool:
    """Whether SGD steps the parameter array a as a Pending update."""
    return a.ndim == 2 and a.size >= PENDING_SIZE


class Pending:
    """The (H, M) matrix weights under SGD steps that are not yet written
    to it: the matrix the steps have reached is W - U^T V, where each step
    appends its factor rows to U (rows x H) and V (rows x M) by push, and
    write_back subtracts U^T V from W in one product of inner dimension at
    most `rows` and empties them. A step of rank B thus costs the products
    with B-row factors, not the passes of an (H, M) gradient. Every
    product of a step goes through times or times_t, which subtract the
    pending correction. Buffers, the write-back product among them, are
    built once, for steps of at most `batch` rows.
    """

    @np.errstate(over="ignore")
    def __init__(self, weights, learning_rate, batch):
        rows = max(PENDING_ROWS, batch)
        (h, m), dtype = weights.shape, weights.dtype
        self.weights, self.held = weights, 0
        self.learning_rate = np.array(learning_rate, dtype)
        self.u, self.v = np.zeros((rows, h), dtype), np.zeros((rows, m), dtype)
        self.product = np.zeros_like(weights)
        self.coefs = np.zeros(batch * rows, dtype)
        self.terms = np.zeros(batch * max(h, m), dtype)

    def push(self, a, b):
        """Step along the rank-B gradient a^T b of B-row a and b: W -
        learning_rate * a^T b, after a write-back if U and V cannot take B
        more rows. Push only after the step's last product."""
        held, n = self.held, len(a)
        if held + n > len(self.u):
            self.write_back()
            held = 0
        np.multiply(a, self.learning_rate, out=self.u[held:held + n])
        self.v[held:held + n] = b
        self.held = held + n

    def write_back(self):
        """W -= U^T V, and U and V hold nothing."""
        if self.held:
            held = self.held
            np.dot(self.u[:held].T, self.v[:held], out=self.product)
            self.weights -= self.product
            self.held = 0

    def times_t(self, x, out):
        """x (W - U^T V)^T = x W^T - (x V^T) U, in out."""
        x.dot(self.weights.T, out=out)
        return self._correct(x, self.v, self.u, out)

    def times(self, x, out):
        """x (W - U^T V) = x W - (x U^T) V, in out."""
        x.dot(self.weights, out=out)
        return self._correct(x, self.u, self.v, out)

    def _correct(self, x, first, second, out):
        """out -= (x first^T) second over the rows held."""
        if self.held:
            (n, width), held = out.shape, self.held
            coefs = x.dot(first[:held].T,
                          out=self.coefs[:n * held].reshape(n, held))
            out -= coefs.dot(second[:held],
                             out=self.terms[:n * width].reshape(n, width))
        return out


# Rows per block wherever the program works through rows a block at a
# time. Products over blocks this long or longer gave each row the bits of
# one whole-matrix product, and shorter ones need not, so row_blocks makes
# none shorter.
BLOCK_ROWS = 256


def row_blocks(n):
    """Slices over rows 0..n in order, BLOCK_ROWS each, the last also taking
    the short tail: fewer than 2 * BLOCK_ROWS rows make one block."""
    ends = [BLOCK_ROWS * i for i in range(max(n // BLOCK_ROWS, 1))] + [n]
    return [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]


def map_blocks(f, x):
    """f of the rows x, one block of row_blocks at a time, stacked into one
    new array, so that f's temporaries are one block's; f must map each
    row alone. One block gives f(x) itself."""
    head, *rest = row_blocks(len(x))
    first = f(x[head])
    if not rest:
        return first
    out = np.empty((len(x), *first.shape[1:]), first.dtype)
    out[head] = first
    del first
    for rows in rest:
        out[rows] = f(x[rows])
    return out


@cache
def constants(dtype):
    """0.0, -1.0 and 1.0 as 0-d arrays of dtype: sigmoid's operands."""
    return tuple(np.array(c, dtype) for c in (0.0, -1.0, 1.0))


def sigmoid(z, out=None, numerator=None):
    """Logistic function 1/(1+e^-z) of an array, overflow-safe for any input.

    Writes into out (which may be z) when given, and works out the
    numerator in `numerator`, an array like z, when given, or else in one
    temporary. exp(fmin(z, 0)) / (1 + e) with e = exp(-|z|) <= 1 is
    1/(1+e) where z >= 0 and e/(1+e) elsewhere, so no |z| can overflow.
    """
    zero, minus_one, one = constants(z.dtype)
    numerator = np.fmin(z, zero, out=numerator)
    np.exp(numerator, out=numerator)
    e = np.exp(np.copysign(z, minus_one, out=out), out=out)
    e += one
    return np.divide(numerator, e, out=out)


def sigmoid_backward(da, h, t):
    """Every training layer's backward step through h = sigmoid(a), in
    place: da, the derivative by h, becomes da * h(1 - h), the derivative
    by a, with t a scratch array like h."""
    da *= h
    da *= np.subtract(constants(h.dtype)[2], h, out=t)
    return da


def softmax(z, out=None, total=None):
    """Max-shifted softmax along the last axis, into out when given.

    Components are positive and sum to 1 (within a few ulp); shifting by the
    row maximum keeps exp from overflowing. The reductions go into total if
    given: (n, 1) at n rows, 0-d at one, whose whole-array reductions match.
    """
    axis, keep = (None, False) if z.size == z.shape[-1] else (-1, True)
    e = np.subtract(z, np.maximum.reduce(z, axis, keepdims=keep, out=total),
                    out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis, keepdims=keep, out=total)
    return e


def delta_rows(grad_b, n):
    """The (n, width) delta of a step of n rows whose sum over the rows is
    the bias gradient grad_b: at n = 1 grad_b's own row, so that the step
    neither copies nor sums it, and at n > 1 an array of its own, summed
    into grad_b by one reduce. A one-row delta may thus leave -0.0 in
    grad_b, which moves no parameter: p - 0.0 and p + 0.0 differ only at
    p = -0.0, no parameter starts as -0.0, and p - g is -0.0 only if p
    is."""
    return grad_b[None] if n == 1 else np.zeros((n, grad_b.size), grad_b.dtype)
