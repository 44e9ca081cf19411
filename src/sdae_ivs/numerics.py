"""Scalar/vector primitives and seeded randomness shared by all training code.

Everything is 64-bit float; gradient checks at ~1e-5 relative tolerance are
not feasible in 32-bit. Randomness is PCG64 threaded explicitly through the
operations that need it, never module-global state.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError

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


def check_finite(phase: str, epoch: int, *params: np.ndarray) -> None:
    """Raise DivergenceError if any parameter array holds an inf or a NaN."""
    if not all(np.isfinite(p).all() for p in params):
        raise DivergenceError(f"{phase} diverged at epoch {epoch} (non-finite "
                              "parameters); lower the learning rate")


def sgd(phase, params, grads, learning_rate, data, epochs, rng, batch=1,
        score=None, patience=0, per_epoch=None):
    """Minibatch SGD over the rows of data, stepping every array in params
    in place.

    data is a tuple of row-aligned arrays, such as (inputs, targets). Each
    epoch gathers every array once in the order of a fresh rng permutation;
    per_epoch(*gathered), when given, then returns more row-aligned arrays
    for that epoch (such as one corruption draw of every row), appended to
    the gathered ones. sgd steps along grads(*slices) for each run of
    `batch` consecutive rows, one gradient per parameter. grads must return
    fresh arrays, because sgd scales them in place by the learning rate.
    Overflow inside a step is left to check_finite, which raises
    DivergenceError naming phase and epoch at the end of that epoch.

    With a score (lower is better, e.g. a validation error) training stops
    early: the score is taken before the first epoch and after each one,
    training ends after `patience` epochs without a strict improvement,
    and params are restored to the best-scoring snapshot, so ties keep the
    earlier epoch. Returns the [(epoch, score)] history from epoch 0
    (empty without a score).
    """
    n = len(data[0])
    history = []
    if score is not None:
        best_score, best = score(), [p.copy() for p in params]
        history.append((0, best_score))
    since_improvement = 0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        shuffled = [a[order] for a in data]
        if per_epoch is not None:
            shuffled += per_epoch(*shuffled)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, batch):
                for p, g in zip(params, grads(*[a[lo:lo + batch]
                                                for a in shuffled])):
                    g *= learning_rate
                    p -= g
        check_finite(phase, epoch, *params)
        if score is None:
            continue
        current = score()
        history.append((epoch, current))
        if current < best_score:
            best_score, best = current, [p.copy() for p in params]
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= patience:
                break
    if score is not None:
        for p, snapshot in zip(params, best):
            p[...] = snapshot
    return history


def sigmoid(z):
    """Logistic function 1/(1+e^-z), overflow-safe for any input.

    Accepts scalars or arrays. One exp of -|z| gives e <= 1, and the result
    is 1/(1+e) where z >= 0 and e/(1+e) elsewhere, so |z| up to the
    float64 limit cannot overflow.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def softmax(logits):
    """Max-shifted softmax along the last axis.

    Components are positive and sum to 1 (within a few ulp); shifting by the
    row maximum keeps exp from overflowing. Works in place on the fresh
    shifted array, so logits is left as it was.
    """
    z = np.asarray(logits, dtype=np.float64)
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e

