"""Single denoising auto-encoder with tied weights.

The encoder maps a (possibly corrupted) input through a sigmoid layer; the
sigmoid decoder reuses the transpose of the same weight matrix. Training
corrupts each example with additive Gaussian noise and reconstructs the
clean original under a cross-entropy loss, so inputs must lie in [0, 1],
and one weight matrix receives gradient from both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError
from .numerics import (Rng, delta_rows, named_zeros, pack, sgd, sigmoid,
                       sum_rows)


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
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.encoder_bias = np.asarray(self.encoder_bias, dtype=np.float64)
        self.decoder_bias = np.asarray(self.decoder_bias, dtype=np.float64)
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
    """Additive Gaussian corruption, unclipped; the clean x stays the target."""
    x = np.asarray(x, dtype=np.float64)
    out = rng.normal(0.0, noise_sd, size=x.shape)
    out += x
    return out


def encode(m: DaeModel, x: np.ndarray) -> np.ndarray:
    """Hidden code: sigmoid(W x + b); works on one vector or an (N, M') batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != m.input_width:
        raise DimensionError(f"expected input width {m.input_width}, got {x.shape[-1]}")
    return sigmoid_layer(x, m.weights.T, m.encoder_bias)


def decode(m: DaeModel, h: np.ndarray) -> np.ndarray:
    """Reconstruction: sigmoid of the code through the transposed (tied)
    weights plus decoder bias."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != m.hidden_units:
        raise DimensionError(f"expected code width {m.hidden_units}, got {h.shape[-1]}")
    return sigmoid_layer(h, m.weights, m.decoder_bias)


def loss(x: np.ndarray, y: np.ndarray) -> float:
    """Cross-entropy between a clean input and its reconstruction, each
    component an independent Bernoulli target. perfbench's tracer wraps
    it by name, so it stays in this module."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError("input and reconstruction widths differ")
    # Guard against a fully saturated sigmoid producing an exact 0 or 1.
    yc = np.clip(y, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))
    return float(-(x @ np.log(yc) + (1.0 - x) @ np.log1p(-yc)))


def sigmoid_layer(x, weights, bias, out=None):
    """sigmoid(x weights + bias) of one row or the rows x, worked out in
    out, or in one new array by default: every layer of the program, at
    prediction and in both training steps."""
    out = x.dot(weights, out=out)
    out += bias
    return sigmoid(out, out=out)


def workspace(m: DaeModel, x: np.ndarray, batch: int):
    """Arrays grads writes into over the rows of x in batches of at most
    `batch`; inputs of another width raise. The gradients grad_w, grad_be
    and grad_bd are views of one flat buffer grad laid out like the
    model's (weights, encoder_bias, decoder_bias); at batch 1 the deltas
    da and dz are the rows of grad_be and grad_bd."""
    if x.shape[-1] != m.input_width:
        raise DimensionError(f"expected input width {m.input_width}, got {x.shape[-1]}")
    b, (h, w) = min(batch, len(x)), m.weights.shape
    ws = named_zeros(h=(b, h), t=(b, h), grad_x=(h, w))
    ws.grad, (ws.grad_w, ws.grad_be, ws.grad_bd) = pack(
        np.zeros((h, w)), np.zeros(h), np.zeros(w))
    ws.da, ws.dz = delta_rows(ws.grad_be, b), delta_rows(ws.grad_bd, b)
    return ws


def grads(m: DaeModel, x_clean: np.ndarray, x_in: np.ndarray, ws):
    """Analytic batch-mean gradients (weights, encoder bias, decoder bias)
    of loss(x_clean, reconstruction) over (B, M') rows fed x_in, written
    into ws = workspace(...); a batch of one is one example. Returns the
    flat buffer ws.grad they lie in.

    The weight gradient sums the decoder term h^T dz and the encoder term
    da^T x_in because the matrix is shared. This is the exact step
    direction of train_dae, hence the target of the finite-difference
    oracle.
    """
    b = len(x_in)
    h = sigmoid_layer(x_in, m.weights.T, m.encoder_bias, ws.h[:b])
    dz = sigmoid_layer(h, m.weights, m.decoder_bias, ws.dz[:b])
    dz -= x_clean
    if b > 1:
        dz /= b
    da = dz.dot(m.weights.T, out=ws.da[:b])
    da *= h
    da *= np.subtract(1.0, h, out=ws.t[:b])
    h.T.dot(dz, out=ws.grad_w)
    ws.grad_w += da.T.dot(x_in, out=ws.grad_x)
    sum_rows(da, ws.grad_be)
    sum_rows(dz, ws.grad_bd)
    return ws.grad


def init_dae(input_width: int, cfg: DaeTrainConfig, rng: Rng
             ) -> tuple[np.ndarray, DaeModel]:
    """Uniform weights on [-1/sqrt(M'), +1/sqrt(M')], zero biases: a model
    over views of one flat buffer, returned with it (see numerics.pack)."""
    bound = 1.0 / np.sqrt(input_width)
    params, views = pack(
        rng.uniform(-bound, bound, size=(cfg.hidden_units, input_width)),
        np.zeros(cfg.hidden_units), np.zeros(input_width))
    return params, DaeModel(*views)


def train_dae(train: Dataset, cfg: DaeTrainConfig, rng: Rng) -> DaeModel:
    """Stochastic gradient training over exactly cfg.epochs epochs.

    Per example: encode a freshly corrupted copy, decode, take one step
    against the clean input. Each epoch draws the corruption of all its
    rows at once, right after the shuffle; normal draws fill row by row,
    so this is the stream one draw per step would take. rng drives init,
    shuffling, and corruption, so equally seeded generators give
    bitwise-equal models. Parameters that stop being finite raise
    DivergenceError at the end of that epoch.
    """
    if train.n == 0:
        raise DataError("cannot train on an empty dataset")
    if train.x.min() < 0 or train.x.max() > 1:
        raise DataError("cross-entropy training needs inputs in [0, 1]")

    params, model = init_dae(train.m, cfg, rng)
    ws = workspace(model, train.x, 1)
    sgd("DAE pre-training", params, lambda x, x_in: grads(model, x, x_in, ws),
        cfg.learning_rate, (train.x,), cfg.epochs, rng,
        per_epoch=lambda x: (corrupt(x, cfg.noise_sd, rng),))
    return model


def encode_dataset(m: DaeModel, d: Dataset) -> Dataset:
    """Deterministic codes of the clean inputs, labels carried through.

    Never corrupts: upper layers train on the representation the encoder
    will actually produce at prediction time.
    """
    return Dataset(encode(m, d.x), d.labels, d.num_classes)
