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

from .chain import gradient
from .data import Dataset
from .errors import DataError, DimensionError
from .numerics import Rng, map_blocks, pack, sgd, sigmoid


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
    against the clean input, along chain.gradient of the encoder under its
    tied decoder. Each epoch draws the corruption of all its rows at once,
    right after the shuffle, and sgd hands each step (corrupted, clean);
    normal draws fill row by row, so this is the stream one draw per step
    would take. rng drives init,
    shuffling, and corruption, so equally seeded generators give
    bitwise-equal models. Parameters that stop being finite raise
    DivergenceError, naming phase, at the end of that epoch.
    """
    if train.x.min(initial=0.0) < 0 or train.x.max(initial=1.0) > 1:
        raise DataError("cross-entropy training needs inputs in [0, 1]")

    params, model = init_dae(train.m, cfg, rng, train.x.dtype)
    grads, pending = gradient(
        [(model.weights, model.encoder_bias, False),
         (model.weights, model.decoder_bias, True)], sigmoid, 1,
        cfg.learning_rate)
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
