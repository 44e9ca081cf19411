"""Shared test helpers: finite differences, reference implementations the
program is checked against, and small random instances."""

import tracemalloc
from pathlib import Path

import numpy as np

from sdae_ivs.chain import gradient
from sdae_ivs.dae import DaeModel, encode, init_dae
from sdae_ivs.data import Dataset, VariableMask, compact, expand
from sdae_ivs.mlr import MlrModel
from sdae_ivs.numerics import derive_rng, pack, sgd, sigmoid, softmax
from sdae_ivs.stack import StackModel, pretrain


def pretrain_deepest(train, valid, plans, seed):
    """stack.pretrain with plans, a dict of its dae, ivs and top arguments,
    asked for the full depth alone: that stack, and the selection
    results."""
    depth = len(plans["dae"])
    stacks, ivs_results, _ = pretrain(train, valid, **plans, seed=seed,
                                      depths=(depth,))
    return stacks[depth], ivs_results


def two_scatter_synthetic(spec, rng):
    """data.gen_synthetic writing each block of columns into its shuffled
    positions with a fancy-index scatter; the generator must match it byte
    for byte."""
    m = spec.m
    n = sum(spec.examples_per_split)
    perm = rng.permutation(m)
    relevant_cols = perm[: spec.num_relevant]
    irrelevant_cols = perm[spec.num_relevant:]

    directions = rng.uniform(-1.0, 1.0, size=(spec.num_classes, spec.num_relevant))
    means = np.clip(0.5 + spec.class_separation * directions, 0.0, 1.0)

    labels = rng.integers(1, spec.num_classes + 1, size=n)
    x = np.empty((n, m), dtype=np.float64)
    jitter = rng.normal(0.0, spec.noise_sd, size=(n, spec.num_relevant)) \
        if spec.noise_sd > 0 else 0.0
    x[:, relevant_cols] = np.clip(means[labels - 1] + jitter, 0.0, 1.0)
    if spec.num_irrelevant:
        x[:, irrelevant_cols] = rng.uniform(0.0, 1.0, size=(n, spec.num_irrelevant))

    truth = np.zeros(m, dtype=bool)
    truth[relevant_cols] = True
    return Dataset(x, labels, spec.num_classes), VariableMask(truth)


def unblocked_forward(m, x):
    """stack._forward with one product per layer over all the rows x; the
    blocked chain must match it byte for byte."""
    x = compact(x, m.mask)
    for dae in m.layers:
        x = encode(dae, x)
    return x


def central_diff(f, arr: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f with respect to every entry."""
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        hi = f()
        arr[idx] = orig - step
        lo = f()
        arr[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def grads_close(analytic: np.ndarray, numeric: np.ndarray,
                rel_tol: float = 1e-5) -> bool:
    """Vector-relative agreement: ||a - n|| <= tol * (1 + ||n||)."""
    diff = float(np.linalg.norm(np.asarray(analytic) - np.asarray(numeric)))
    return diff <= rel_tol * (1.0 + float(np.linalg.norm(numeric)))


def random_mlr(seed: int, k: int, m: int, scale: float = 1.0) -> MlrModel:
    rng = derive_rng(seed)
    return MlrModel(scale * rng.normal(size=(k, m)), scale * rng.normal(size=k))


def log_softmax(logits):
    """Log of softmax, computed without forming small exponentials."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(m: MlrModel, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log posterior of the true classes over a batch: the
    objective of train_mlr's step."""
    logp = log_softmax(np.asarray(x, dtype=np.float64) @ m.weights.T + m.biases)
    labels = np.asarray(labels)
    return -float(np.mean(logp[np.arange(labels.size), labels - 1]))


def two_branch_sigmoid(z):
    """Reference logistic: exp of a non-positive argument on each side of 0,
    one masked branch per sign. numerics.sigmoid must match it bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def discriminant(m: MlrModel, i: int, j: int, x: np.ndarray) -> float:
    """Normalized signed distance of x from the (i, j) hyperplane.

    Linear in x, with gradient equal to the unit normal; the
    finite-difference oracle differentiates this.
    """
    diff = m.weights[i - 1] - m.weights[j - 1]
    return float((diff @ np.asarray(x, dtype=np.float64)
                  + (m.biases[i - 1] - m.biases[j - 1]))
                 / np.linalg.norm(diff))


def chain_step(model, batch=1, learning_rate=0.1):
    """chain.gradient of model's layers as its trainer builds them, (grads,
    pending), for steps of at most batch rows at learning_rate: an
    MlrModel's softmax layer, a DaeModel's encoder under its tied sigmoid
    decoder, fed (x_in, x_clean), or a StackModel's encoders under its top,
    fed the rows compacted through its mask."""
    if isinstance(model, MlrModel):
        return gradient([(model.weights, model.biases, False)], softmax,
                        batch, learning_rate)
    if isinstance(model, DaeModel):
        return gradient([(model.weights, model.encoder_bias, False),
                         (model.weights, model.decoder_bias, True)], sigmoid,
                        batch, learning_rate)
    return gradient([(dae.weights, dae.encoder_bias, False)
                     for dae in model.layers]
                    + [(model.top.weights, model.top.biases, False)],
                    softmax, batch, learning_rate)


def flatten(arrays) -> np.ndarray:
    """The arrays laid end to end in a fresh 1-D array: the flat gradient a
    list of per-parameter gradients stands for."""
    return np.concatenate([np.ravel(a) for a in arrays])


def split_like(flat: np.ndarray, arrays) -> list[np.ndarray]:
    """Views of the 1-D flat shaped like arrays and laid end to end, which
    must cover flat exactly."""
    sizes = [np.size(a) for a in arrays]
    assert flat.shape == (sum(sizes),)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return [part.reshape(np.shape(a)) for part, a in zip(parts, arrays)]


# (closure batch, row runs) stepped in turn through one gradient closure by
# the consecutive-step tests: at batch 3 a full batch, a tail of 2, a tail of 1
# and overlapping rows; at batch 1, where each one-row delta is its bias
# gradient's row, single rows.
CONSECUTIVE_RUNS = ((3, ((0, 3), (3, 5), (5, 6), (1, 4))),
                    (1, ((0, 1), (5, 6), (2, 3))))


# (closure batch, row runs) of the stale-plan tests: a full batch, a tail
# of 1, a full batch again, a tail of 2 and a full batch, so that each row
# count's plan serves again after another's.
ALTERNATING_RUNS = (4, ((0, 4), (4, 5), (5, 9), (9, 11), (11, 15)))


def check_alternating_steps(grads, pending, arrays, rows, reference,
                            learning_rate) -> None:
    """Step grads, a closure built for ALTERNATING_RUNS' batch over the
    fit's arrays, on rows(lo, hi) for each of its runs, as sgd takes a
    step: the flat gradient, scaled, is subtracted from the arrays that
    take eager steps, and every Pending is written back. Before each step
    reference(lo, hi) gives the fresh gradients of the arrays, and the
    flat gradient must equal those of the eager arrays bit for bit, a
    pending matrix's products being plain ones after the write-back; each
    pending matrix must move by learning_rate times its own to 1e-12."""
    lazy = [p.weights for p in pending]
    eager = [a for a in arrays if not any(a is w for w in lazy)]
    for lo, hi in ALTERNATING_RUNS[1]:
        want = {id(a): g for a, g in zip(arrays, reference(lo, hi))}
        before = [w.copy() for w in lazy]
        got = grads(*rows(lo, hi))
        assert np.array_equal(got, flatten([want[id(a)] for a in eager]))
        for a, g in zip(eager, split_like(got, eager)):
            a -= learning_rate * g
        for p, b in zip(pending, before):
            p.write_back()
            np.testing.assert_allclose((b - p.weights) / learning_rate,
                                       want[id(p.weights)], rtol=1e-12,
                                       atol=1e-12)


def step_peak(grads, batches, steps: int) -> int:
    """tracemalloc's peak over `steps` calls of a gradient closure, taking
    its arguments from the tuples of batches in turn, after one untraced
    call that warms the interpreter's caches."""
    grads(*batches[0])
    tracemalloc.start()
    try:
        for i in range(steps):
            grads(*batches[i % len(batches)])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def check_steps_allocate_no_array(grads, batches, widest: int,
                                  one_row_bound: int) -> None:
    """A gradient closure's steps on batches, of B rows each, allocate no
    array of their own: the tracemalloc peak of 200 steps is at most that
    of one, so it does not grow, and one step's stays under a fixed
    bound. At B = 1 every bias is a row like the step's, and the bound is
    one_row_bound, which the caller sets under what one float64 row of
    its widths takes. At B > 1 numpy adds each bias row to the B rows
    through a buffer of B times its width elements and about 1.1 kB of
    iterator, which 8 B widest + 1536 bytes let through, widest being the
    widest bias, and no second array of that size."""
    b = len(batches[0][0])
    once = step_peak(grads, batches, 1)
    assert step_peak(grads, batches, 200) <= once
    assert once < (one_row_bound if b == 1 else 8 * b * widest + 1536)


def assert_tiles(flat: np.ndarray, arrays) -> None:
    """The arrays are views of flat laid end to end in order, covering it."""
    offset = flat.__array_interface__["data"][0]
    for a in arrays:
        assert a.base is flat and a.flags.c_contiguous
        assert a.__array_interface__["data"][0] == offset
        offset += a.nbytes
    assert offset == flat.__array_interface__["data"][0] + flat.nbytes


# Per-step references. Each trainer does its parameter-free work (one-hot
# targets, corruption, layer-1 compaction) once per fit or per epoch, and
# writes every step into buffers its gradient closure builds once per fit,
# the gradients being views of one flat buffer; these do that work inside
# every step instead, on fresh arrays and with the plain formulas, and hand
# sgd the fresh gradients concatenated; the trainers must match them bit
# for bit.

def fresh_softmax(logits):
    """Softmax of each row, max-shifted, on fresh arrays."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def label_output_delta(weights, biases, xb, yb):
    """(softmax - one-hot) / B, subtracting 1 at each 1-based label."""
    p = fresh_softmax(xb @ weights.T + biases)
    p[np.arange(xb.shape[0]), yb - 1] -= 1.0
    return p / xb.shape[0]


def fresh_mlr_grads(weights, biases, xb, yb):
    """The batch-mean cross-entropy gradients of train_mlr's step."""
    p = label_output_delta(weights, biases, xb, yb)
    return p.T.dot(xb), p.sum(axis=0)


def per_step_train_mlr(train, valid, cfg, rng) -> MlrModel:
    """train_mlr with label-indexed deltas, scoring validation error from
    its own logits."""
    params, (weights, biases) = pack(np.zeros((train.num_classes, train.m)),
                                     np.zeros(train.num_classes))

    def score():
        logits = valid.x @ weights.T + biases
        return float(np.mean(np.argmax(logits, axis=1) + 1 != valid.labels))

    sgd("MLR training", params,
        lambda xb, yb: flatten(fresh_mlr_grads(weights, biases, xb, yb)),
        cfg.learning_rate, (train.x, train.labels), cfg.max_epochs, rng,
        batch=cfg.minibatch_size, score=score, patience=cfg.patience)
    return MlrModel(weights, biases)


def fresh_dae_grads(m, x_clean, x_in):
    """The batch-mean gradients of train_dae's step: cross-entropy through
    the sigmoid decoder, with both terms of the tied weight matrix."""
    h = two_branch_sigmoid(x_in @ m.weights.T + m.encoder_bias)
    y = two_branch_sigmoid(h @ m.weights + m.decoder_bias)
    dz = (y - x_clean) / x_clean.shape[0]
    da = dz @ m.weights.T * h * (1.0 - h)
    return h.T.dot(dz) + da.T.dot(x_in), da.sum(axis=0), dz.sum(axis=0)


def per_step_train_dae(train, cfg, rng, batch=1):
    """train_dae drawing each step's corruption as that step's x + noise."""
    params, model = init_dae(train.m, cfg, rng, train.x.dtype)

    def step(x):
        x_in = x + rng.normal(0.0, cfg.noise_sd, size=x.shape)
        return flatten(fresh_dae_grads(model, x, x_in))

    sgd("DAE pre-training", params, step, cfg.learning_rate, (train.x,),
        cfg.epochs, rng, batch=batch)
    return model


def masked_layers(m):
    """m's layers as the (mask, DaeModel) pairs of masked_stack_grads:
    layer 1 reads the rows through m's mask, each layer above reads every
    code of the one below."""
    masks = [m.mask] + [VariableMask.all_ones(dae.input_width)
                        for dae in m.layers[1:]]
    return list(zip(masks, m.layers))


def per_step_stack_grads(m, x, labels):
    """fine_tune's step on raw rows with labels: a boolean-mask
    compaction at every layer and label-indexed deltas."""
    return masked_stack_grads(masked_layers(m), m.top, x, labels)


def masked_stack_grads(layers, top, x, labels):
    """The batch-mean fine-tuning gradients of a stack whose every layer is
    a (mask, DaeModel) pair reading its input through its own mask, by a
    boolean-mask compaction into a C-contiguous copy, whose products have
    the bits of the step's, with label-indexed deltas: [weights, encoder
    bias] per layer, then the top's. A unit that the mask above drops takes
    zero gradient."""
    trace, cur = [], x
    for mask, dae in layers:
        c = np.ascontiguousarray(cur[..., mask.bits])
        cur = two_branch_sigmoid(c @ dae.weights.T + dae.encoder_bias)
        trace.append((c, cur))
    g = label_output_delta(top.weights, top.biases, cur, labels)
    gradients = [g.T.dot(cur), g.sum(axis=0)]
    delta = g @ top.weights
    for idx in range(len(layers) - 1, -1, -1):
        c, h = trace[idx]
        da = delta * h * (1.0 - h)
        gradients[:0] = [da.T.dot(c), da.sum(axis=0)]
        if idx > 0:
            mask, dae = layers[idx]
            delta = expand(da @ dae.weights, mask)
    return gradients


def masked_stack_logits(layers, top, x):
    """The logits of the rows x through layers, (mask, DaeModel) pairs as
    masked_stack_grads reads them, and then top."""
    for mask, dae in layers:
        x = two_branch_sigmoid(x[..., mask.bits] @ dae.weights.T
                               + dae.encoder_bias)
    return x @ top.weights.T + top.biases


def masked_fine_tune(layers, top, train, valid, cfg, rng):
    """stack.fine_tune of the stack that layers, (mask, DaeModel) pairs as
    masked_stack_grads reads them, and top make: copies of their arrays,
    stepped along masked_stack_grads and scored by masked_stack_logits,
    returned as (layers, top). Every layer keeps every unit, so a unit
    that the mask above drops is computed at each step and never moves."""
    arrays = [a for _, dae in layers for a in (dae.weights, dae.encoder_bias)] \
        + [top.weights, top.biases]
    params, views = pack(*arrays)
    # The gradient buffer is laid out like params, whose wide matrices
    # lead it.
    grad, grad_views = pack(*arrays)
    tuned = [(mask, DaeModel(w, b, dae.decoder_bias))
             for (mask, dae), w, b in zip(layers, views[:-2:2], views[1:-2:2])]
    tuned_top = MlrModel(*views[-2:])

    def score():
        logits = masked_stack_logits(tuned, tuned_top, valid.x)
        return float(np.mean(np.argmax(logits, axis=1) + 1 != valid.labels))

    def step(xb, yb):
        for view, g in zip(grad_views,
                           masked_stack_grads(tuned, tuned_top, xb, yb)):
            view[...] = g
        return grad

    sgd("fine-tuning", params, step, cfg.learning_rate,
        (train.x, train.labels), cfg.max_epochs, rng,
        batch=cfg.minibatch_size, score=score, patience=cfg.patience)
    return tuned, tuned_top


def per_step_fine_tune(m, train, valid, cfg, rng):
    """fine_tune stepping along per_step_stack_grads."""
    layers, top = masked_fine_tune(masked_layers(m), m.top, train, valid,
                                   cfg, rng)
    return StackModel(m.mask, [dae for _, dae in layers], top)


def captured_step(monkeypatch, module, fit):
    """The flat parameter buffer, the grads function and the Pending
    updates that module's trainer hands to sgd when fit() runs, with
    fit's result."""
    steps = []

    def spy(phase, params, grads, *args, **kwargs):
        steps.append((params, grads, kwargs.get("pending", ())))
        return sgd(phase, params, grads, *args, **kwargs)

    monkeypatch.setattr(module, "sgd", spy)
    result = fit()
    assert len(steps) == 1
    return (*steps[0], result)


def step_direction(arrays, grads, pending, learning_rate, *rows):
    """(before - after) / learning_rate of each of a fit's parameter arrays
    over one step of grads on rows as sgd takes it, followed by a
    write-back of every Pending update: the flat gradient, which covers
    the arrays that are no Pending's matrix, in order, is scaled and
    subtracted, and each Pending takes its step. The arrays are restored
    after. On both sides of the size rule this is the gradient that the
    finite-difference oracles check."""
    before = [a.copy() for a in arrays]
    lazy = [p.weights for p in pending]
    eager = [a for a in arrays if not any(a is w for w in lazy)]
    for a, g in zip(eager, split_like(grads(*rows), eager)):
        a -= learning_rate * g
    for p in pending:
        p.write_back()
    direction = [(b - a) / learning_rate for a, b in zip(arrays, before)]
    for a, b in zip(arrays, before):
        a[...] = b
    return direction


def read_pgm(path) -> np.ndarray:
    """The image pgm.write_pgm wrote to path, as floats in [0, 1]."""
    magic, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    assert magic == b"P5"
    w, h = map(int, size.split())
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w) / int(maxval)
