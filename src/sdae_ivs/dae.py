"""Single denoising auto-encoder with tied weights.

The encoder maps a (possibly corrupted) input through a sigmoid layer; the
sigmoid decoder reuses the transpose of the same weight matrix. Training
corrupts each example with additive Gaussian noise and reconstructs the
clean original under a cross-entropy loss, so inputs must lie in [0, 1],
and one weight matrix receives gradient from both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError
from .numerics import (Pending, Rng, delta_rows, map_blocks, matrix_product,
                       pack, sgd, sigmoid, sigmoid_backward, takes_pending)


@dataclass
class DaeModel:
    """Tied-weight auto-encoder parameters.

    weights is (H, M'); the decoder always uses its transpose, never a
    copy, so mutating the encoder weights is observable in decode.
    """

    weights: np.ndarray
    encoder_bias: np.ndarray
    decoder_bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise DimensionError("weights must be (H, M')")
        h, m = self.weights.shape
        if self.encoder_bias.shape != (h,) or self.decoder_bias.shape != (m,):
            raise DimensionError("bias widths do not match the weight matrix")

    @property
    def hidden_units(self) -> int:
        return self.weights.shape[0]

    @property
    def input_width(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class DaeTrainConfig:
    hidden_units: int
    noise_sd: float
    learning_rate: float
    epochs: int


def corrupt(x: np.ndarray, noise_sd: float, rng: Rng) -> np.ndarray:
    """Additive Gaussian corruption in x's dtype, drawn in float64 so that
    every dtype takes one stream, unclipped; the clean x stays the target."""
    out = rng.normal(0.0, noise_sd, size=x.shape).astype(x.dtype, copy=False)
    out += x
    return out


def encode(m: DaeModel, x: np.ndarray) -> np.ndarray:
    """Hidden codes sigmoid(x W^T + b) of the (N, M') rows x."""
    return sigmoid_layer(x, m.weights.T, m.encoder_bias)


def decode(m: DaeModel, h: np.ndarray) -> np.ndarray:
    """Reconstruction: sigmoid of the code through the transposed (tied)
    weights plus decoder bias."""
    return sigmoid_layer(h, m.weights, m.decoder_bias)


def loss(x: np.ndarray, y: np.ndarray) -> float:
    """Cross-entropy between a clean input row x and its reconstruction y,
    each component an independent Bernoulli target; rows of two lengths fail
    in the products. perfbench's tracer wraps it by name, so it stays here."""
    # Guard against a fully saturated sigmoid producing an exact 0 or 1.
    yc = np.clip(y, np.finfo(y.dtype).tiny, np.nextafter(y.dtype.type(1), 0))
    return float(-(x @ np.log(yc) + (1.0 - x) @ np.log1p(-yc)))


def sigmoid_layer(x, weights, bias):
    """sigmoid(x weights + bias) of one row or the rows x, in one new
    array: every layer of the program at prediction. The training steps
    take the same operations into the buffers of their plans."""
    out = x.dot(weights)
    out += bias
    return sigmoid(out, out=out)


def gradient(m: DaeModel, batch: int, learning_rate: float):
    """The step of train_dae over batches of at most `batch` rows at
    learning_rate, and the Pending updates it pushes to: grads(x_clean,
    x_in) writes the analytic batch-mean gradients (weights, encoder bias,
    decoder bias) of loss(x_clean, reconstruction) over (B, M') rows fed
    x_in into one flat buffer laid out like the model's arrays, and
    returns it; a batch of one is one example. The flat buffer is built
    here, once per fit, and the step's buffers once per row count B (its
    plan); at B = 1 the deltas da and dz are the rows of the bias
    gradients, which need no sum.

    The weight gradient sums the encoder term da^T x_in and the decoder
    term h^T dz because the matrix is shared. A matrix that takes pending
    updates (numerics.takes_pending) leaves the flat buffer: the step
    pushes the two terms' factors to its Pending, the one update returned,
    and every product goes through it. This is the exact step direction of
    train_dae, hence the target of the finite-difference oracle.
    """
    pending = [Pending(m.weights, learning_rate, batch)] \
        if takes_pending(m.weights) else []
    arrays = (m.weights, m.encoder_bias, m.decoder_bias)
    grad, views = pack(*map(np.zeros_like, arrays[1:] if pending else arrays))
    grad_w, grad_be, grad_bd = [None, *views] if pending else views
    encoder, decoder = (pending[0].times_t, pending[0].times) if pending \
        else (matrix_product(m.weights.T), matrix_product(m.weights))
    # The biases as (1, width) rows, which numpy adds to a one-row step
    # without broadcasting, through no iterator.
    encoder_bias, decoder_bias = m.encoder_bias[None], m.decoder_bias[None]
    decoder_term = None if pending else np.zeros_like(m.weights)

    @cache
    def plan(n):
        """A step of n rows: the codes h and the scratch t of their
        sigmoid and of its backward step, the delta dz and the scratch of
        its sigmoid, the delta da, the transposes of h and da, and whether
        the deltas are summed into the bias gradients."""
        h, dz, da = np.zeros((n, len(grad_be)), grad.dtype), \
            delta_rows(grad_bd, n), delta_rows(grad_be, n)
        return h, np.zeros_like(h), dz, np.zeros_like(dz), da, h.T, da.T, n > 1

    def grads(x_clean, x_in):
        h, t, dz, numerator, da, h_t, da_t, summed = plan(len(x_in))
        encoder(x_in, h)
        h += encoder_bias
        sigmoid(h, out=h, numerator=t)
        decoder(h, dz)
        dz += decoder_bias
        sigmoid(dz, out=dz, numerator=numerator)
        dz -= x_clean
        if summed:
            dz /= len(x_in)
        sigmoid_backward(encoder(dz, da), h, t)
        if pending:
            pending[0].push(da, x_in)
            pending[0].push(h, dz)
        else:
            da_t.dot(x_in, out=grad_w)
            np.add(grad_w, h_t.dot(dz, out=decoder_term), out=grad_w)
        if summed:
            np.add.reduce(da, axis=0, out=grad_be)
            np.add.reduce(dz, axis=0, out=grad_bd)
        return grad
    return grads, pending


def init_dae(input_width: int, cfg: DaeTrainConfig, rng: Rng, dtype
             ) -> tuple[np.ndarray, DaeModel]:
    """Uniform weights on [-1/sqrt(M'), +1/sqrt(M')] drawn as float64, zero
    biases, in dtype: one flat buffer and a model over its views (pack)."""
    bound = 1.0 / np.sqrt(input_width)
    params, views = pack(
        rng.uniform(-bound, bound, size=(cfg.hidden_units, input_width)
                    ).astype(dtype, copy=False),
        np.zeros(cfg.hidden_units, dtype), np.zeros(input_width, dtype))
    return params, DaeModel(*views)


def train_dae(train: Dataset, cfg: DaeTrainConfig, rng: Rng,
              phase: str = "DAE pre-training") -> DaeModel:
    """Stochastic gradient training over exactly cfg.epochs epochs.

    Per example: encode a freshly corrupted copy, decode, take one step
    against the clean input. Each epoch draws the corruption of all its
    rows at once, right after the shuffle; normal draws fill row by row,
    so this is the stream one draw per step would take. rng drives init,
    shuffling, and corruption, so equally seeded generators give
    bitwise-equal models. Parameters that stop being finite raise
    DivergenceError, naming phase, at the end of that epoch.
    """
    if train.x.min(initial=0.0) < 0 or train.x.max(initial=1.0) > 1:
        raise DataError("cross-entropy training needs inputs in [0, 1]")

    params, model = init_dae(train.m, cfg, rng, train.x.dtype)
    grads, pending = gradient(model, 1, cfg.learning_rate)
    sgd(phase, params, grads, cfg.learning_rate, (train.x,), cfg.epochs, rng,
        per_epoch=lambda x: (corrupt(x, cfg.noise_sd, rng),),
        pending=pending)
    return model


def encode_dataset(m: DaeModel, d: Dataset) -> Dataset:
    """Deterministic codes of the clean inputs, labels carried through.

    Never corrupts: upper layers train on the representation the encoder
    will actually produce at prediction time. Encodes a block of rows at
    a time (see numerics.map_blocks), with the bits of one whole product.
    """
    return Dataset(map_blocks(lambda rows: encode(m, rows), d.x), d.labels,
                   d.num_classes)
