"""Scalar/vector primitives and seeded randomness shared by all training code.

Each function computes in the dtype of the arrays it is given (stack.NETWORK
for the networks); gradient checks at ~1e-5 relative tolerance need float64.
Randomness is PCG64 threaded explicitly through the operations that need
it, never module-global state.
"""

from __future__ import annotations

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
    view of it shaped like each, in order: a fit's parameters, or its
    gradients, which sgd then updates in one call whatever their count."""
    flat = np.concatenate([np.ravel(a) for a in arrays])
    ends = np.cumsum([np.size(a) for a in arrays])
    return flat, [flat[end - np.size(a):end].reshape(np.shape(a))
                  for a, end in zip(arrays, ends)]


def sgd(phase, params, grads, learning_rate, data, epochs, rng, batch=1,
        score=None, patience=0, per_epoch=None):
    """Minibatch SGD over the rows of data, stepping the flat buffer params
    in place.

    params holds every parameter of the fit, the model's arrays being views
    of it (see pack). data is a tuple of row-aligned arrays, such as
    (inputs, targets). Each epoch gathers every array once in the order of
    a fresh rng permutation; per_epoch(*gathered), when given, then returns
    more row-aligned arrays for that epoch (such as one corruption draw of
    every row), appended to the gathered ones; an epoch's arrays are freed
    before the next epoch gathers its own. sgd steps along
    grads(*slices) for each run of `batch` consecutive rows: a flat
    gradient laid out like params, which is sgd's to scale in place by the
    learning rate and grads' to overwrite on its next call, so a step is
    two calls whatever the parameter count. Overflow inside a step is left
    to check_finite, which raises DivergenceError naming phase and epoch
    at the end of that epoch; no rows at all is a DataError naming phase.

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
    for epoch in range(1, epochs + 1):
        _epoch(params, grads, learning_rate, data, rng, batch, per_epoch)
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


def _epoch(params, grads, learning_rate, data, rng, batch, per_epoch):
    """One epoch of sgd, whose gathered rows are freed on return, so that
    no two epochs' rows are held at once."""
    n = len(data[0])
    order = rng.permutation(n)
    shuffled = [a[order] for a in data]
    if per_epoch is not None:
        shuffled += per_epoch(*shuffled)
    batches = [a.reshape(n, 1, *a.shape[1:]) if batch == 1 else
               [a[lo:lo + batch] for lo in range(0, n, batch)]
               for a in shuffled]
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in zip(*batches):
            g = grads(*rows)
            g *= learning_rate
            params -= g


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


def sigmoid(z, out=None):
    """Logistic function 1/(1+e^-z) of an array, overflow-safe for any input.

    Writes into out (which may be z) when given, and makes one temporary,
    the numerator. exp(fmin(z, 0)) / (1 + e) with e = exp(-|z|) <= 1 is
    1/(1+e) where z >= 0 and e/(1+e) elsewhere, so no |z| can overflow.
    """
    numerator = np.fmin(z, 0.0)
    np.exp(numerator, out=numerator)
    e = np.exp(np.copysign(z, -1.0, out=out), out=out)
    e += 1.0
    return np.divide(numerator, e, out=out)


def softmax(z, out=None):
    """Max-shifted softmax along the last axis, into out when given.

    Components are positive and sum to 1 (within a few ulp); shifting by the
    row maximum keeps exp from overflowing. One row takes scalar reductions,
    which give the same numbers as the per-row ones.
    """
    axis, keep = (None, False) if z.size == z.shape[-1] else (-1, True)
    e = np.subtract(z, np.maximum.reduce(z, axis, keepdims=keep), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis, keepdims=keep)
    return e


def delta_rows(grad_b, b):
    """A (b, width) delta whose rows sum_rows adds into the bias gradient
    grad_b: at b = 1 grad_b's own row, so that no step copies it."""
    return grad_b[None] if b == 1 else np.zeros((b, grad_b.size), grad_b.dtype)


def sum_rows(delta, out):
    """Sum over the rows of delta, into out, unless delta is out's own row,
    which already holds the sum: at batch 1 a step's one-row deltas are
    the rows of their bias gradients (see delta_rows), so that no step
    copies. A one-row reduce gives +0.0 for -0.0, which moves no parameter:
    p - 0.0 and p + 0.0 differ only at p = -0.0, no parameter starts as
    -0.0, and p - g is -0.0 only if p is."""
    if len(delta) > 1 or delta.base is not out.base or out.base is None:
        np.add.reduce(delta, axis=0, out=out)
