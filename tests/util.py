"""Shared test helpers: finite differences, reference implementations the
program is checked against, and small random instances."""

import tracemalloc
from pathlib import Path

import numpy as np

from sdae_ivs.dae import DaeModel, encode, init_dae
from sdae_ivs.data import Dataset, VariableMask, compact, expand
from sdae_ivs.mlr import MlrModel
from sdae_ivs.numerics import derive_rng, pack, sgd
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
    objective mlr.gradient differentiates."""
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
    """The batch-mean cross-entropy gradients mlr.gradient's step
    computes."""
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
    """The batch-mean gradients dae.gradient's step computes:
    cross-entropy through the sigmoid decoder, with both terms of the tied
    weight matrix."""
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
    """stack.gradient's step on raw rows with labels: a boolean-mask
    compaction at every layer and label-indexed deltas."""
    return masked_stack_grads(masked_layers(m), m.top, x, labels)


def masked_stack_grads(layers, top, x, labels):
    """The batch-mean fine-tuning gradients of a stack whose every layer is
    a (mask, DaeModel) pair reading its input through its own mask, by a
    boolean-mask compaction, with label-indexed deltas: [weights, encoder
    bias] per layer, then the top's. A unit that the mask above drops takes
    zero gradient."""
    trace, cur = [], x
    for mask, dae in layers:
        c = cur[..., mask.bits]
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
    tuned = [(mask, DaeModel(w, b, dae.decoder_bias))
             for (mask, dae), w, b in zip(layers, views[:-2:2], views[1:-2:2])]
    tuned_top = MlrModel(*views[-2:])

    def score():
        logits = masked_stack_logits(tuned, tuned_top, valid.x)
        return float(np.mean(np.argmax(logits, axis=1) + 1 != valid.labels))

    sgd("fine-tuning", params,
        lambda xb, yb: flatten(masked_stack_grads(tuned, tuned_top, xb, yb)),
        cfg.learning_rate, (train.x, train.labels), cfg.max_epochs, rng,
        batch=cfg.minibatch_size, score=score, patience=cfg.patience)
    return tuned, tuned_top


def per_step_fine_tune(m, train, valid, cfg, rng):
    """fine_tune stepping along per_step_stack_grads."""
    layers, top = masked_fine_tune(masked_layers(m), m.top, train, valid,
                                   cfg, rng)
    return StackModel(m.mask, [dae for _, dae in layers], top)


def captured_step(monkeypatch, module, fit):
    """The flat parameter buffer and the grads function module's trainer
    hands to sgd when fit() runs, with fit's result."""
    steps = []

    def spy(phase, params, grads, *args, **kwargs):
        steps.append((params, grads))
        return sgd(phase, params, grads, *args, **kwargs)

    monkeypatch.setattr(module, "sgd", spy)
    result = fit()
    assert len(steps) == 1
    return (*steps[0], result)


def read_pgm(path) -> np.ndarray:
    """The image pgm.write_pgm wrote to path, as floats in [0, 1]."""
    magic, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    assert magic == b"P5"
    w, h = map(int, size.split())
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w) / int(maxval)
