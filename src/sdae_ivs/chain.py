"""The SGD step of every network the program trains, as a chain of layers.

The MLR is one softmax layer; the DAE, a sigmoid encoder under a sigmoid
decoder that reads the encoder's matrix transposed (tied); the fine-tuned
stack, the sigmoid encoders under the top MLR. gradient back-propagates
any such chain, so each trainer's step is one of its shapes.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Bound here, so that perfbench's tracer wraps the hidden layers' calls.
from .numerics import (Pending, delta_rows, pack, sigmoid, sigmoid_backward,
                       softmax, takes_pending)

# Every product is f(x, m, out): x m into out. A matrix that steps eagerly
# gives ndarray.dot, called with no keyword and no frame, and itself or its
# transpose; one that takes Pending updates gives its Pending and _times_t
# or _times. The backward pass is a list of calls f(a, b, c), of which
# _push and _sum_rows are a Pending's step and a bias gradient's sum.
dot = np.ndarray.dot


def _times_t(x, lazy, out):
    return lazy.times_t(x, out)


def _times(x, lazy, out):
    return lazy.times(x, out)


def _push(a, b, lazy):
    lazy.push(a, b)


def _sum_rows(delta, axis, out):
    return np.add.reduce(delta, axis, None, out)


def gradient(layers, output, batch, learning_rate):
    """The step of a chain of layers, and the Pending updates it pushes to.

    layers lists (weights, bias, tied) bottom-up. A layer reads x
    weights^T + bias of its input x, or x weights + bias when tied, that
    is, when it shares its matrix with a layer below (the DAE's decoder).
    The layers below the top are sigmoid; output, numerics.softmax or
    numerics.sigmoid, is the top's, called as output(z, out, scratch).
    grads(x, target) writes the batch-mean gradients of the cross-entropy
    of the B rows x against target into one flat buffer, laid out like
    the distinct arrays in the order the layers first name them, and
    returns it; a batch of one is one example. Each matrix that
    numerics.takes_pending selects leaves the flat buffer: its Pending,
    built for steps of at most `batch` rows at learning_rate, takes its
    steps and every product with it. The Pending updates are returned in
    the order of the layers; every other matrix steps eagerly.

    The flat buffer is built here, once per fit, and a step's buffers once
    per row count B (its plan); at B = 1 each delta is its bias
    gradient's row, which needs no sum. A step runs the forward pass, the
    top's ending in its delta; the carries down the chain, each followed
    by the sigmoid's backward step; the weight steps bottom-up; and the
    bias sums at B > 1. A tied matrix's eager gradient is the lower
    layer's term plus its own, through one scratch; its Pending takes the
    lower layer's factors, then its own. This is the exact step direction
    of each trainer, hence the target of the finite-difference oracles.
    """
    lazy = {id(w): Pending(w, learning_rate, batch) for w, _, tied in layers
            if not tied and takes_pending(w)}
    arrays = {id(a): a for w, b, _ in layers for a in (w, b)}
    eager = [a for key, a in arrays.items() if key not in lazy]
    grad, views = pack(*map(np.zeros_like, eager))
    slot = {id(a): view for a, view in zip(eager, views)}
    summand = {id(w): np.zeros_like(w) for w, _, tied in layers
               if tied and id(w) not in lazy}

    def product(w, transposed):
        """x w^T, or x w, as the pair (f, m) of a call f(x, m, out)."""
        if id(w) in lazy:
            return (_times_t if transposed else _times), lazy[id(w)]
        return dot, w.T if transposed else w

    forward = [product(w, not tied) for w, _, tied in layers]
    carry = [product(w, tied) for w, _, tied in layers]
    # The biases as (1, width) rows, which numpy adds to a one-row step
    # without broadcasting, through no iterator.
    biases = [b[None] for _, b, _ in layers]

    def weight_step(w, tied, delta, inputs):
        """The calls f(a, b, out) that step w along this layer's term."""
        a, b = (inputs, delta) if tied else (delta, inputs)
        if id(w) in lazy:
            return [(_push, a, b, lazy[id(w)])]
        if tied:
            return [(dot, a.T, b, summand[id(w)]),
                    (np.add, slot[id(w)], summand[id(w)], slot[id(w)])]
        return [(dot, a.T, b, slot[id(w)])]

    @cache
    def plan(n):
        """A step of n rows: upward, each layer's product, bias, function,
        the array the function is worked out in (its codes, or the top's
        delta) and its scratch, which a sigmoid's backward step shares;
        the top's delta; and downward, the calls f(a, b, c) that take the
        delta's mean at n > 1, carry each delta to the layer below and
        step back through its sigmoid, step the weights bottom-up, layer
        1's reading the step's rows in place of None, and sum each delta
        into its bias gradient at n > 1."""
        deltas = [delta_rows(slot[id(b)], n) for _, b, _ in layers]
        codes = [np.zeros_like(d) for d in deltas[:-1]]
        scratch = [np.zeros_like(h) for h in codes] + [
            np.zeros(() if n == 1 else (n, 1), grad.dtype)
            if output is softmax else np.zeros_like(deltas[-1])]
        up = [(*f, bias, function, h, t) for f, bias, function, h, t in zip(
            forward, biases, [sigmoid] * len(codes) + [output],
            codes + deltas[-1:], scratch)]
        down = [(np.true_divide, deltas[-1], n, deltas[-1])] if n > 1 else []
        for i in reversed(range(1, len(layers))):
            f, m = carry[i]
            down += [(f, deltas[i], m, deltas[i - 1]),
                     (sigmoid_backward, deltas[i - 1], codes[i - 1],
                      scratch[i - 1])]
        for (w, _, tied), delta, inputs in zip(layers, deltas, [None, *codes]):
            down += weight_step(w, tied, delta, inputs)
        if n > 1:
            down += [(_sum_rows, delta, 0, slot[id(b)])
                     for delta, (_, b, _) in zip(deltas, layers)]
        return up, deltas[-1], down

    def grads(x, target):
        up, delta, down = plan(len(x))
        cur = x
        for f, m, bias, function, h, t in up:
            f(cur, m, h)
            h += bias
            cur = function(h, h, t)
        delta -= target
        for f, a, b, c in down:
            f(a, x if b is None else b, c)
        return grad
    return grads, list(lazy.values())
