"""Single denoising auto-encoder with tied weights.

The encoder maps a (possibly corrupted) input through a sigmoid layer; the
decoder reuses the transpose of the same weight matrix. Training corrupts
each example with additive Gaussian noise and reconstructs the clean
original, so one weight matrix receives gradient from both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, DimensionError
from .numerics import Rng, sgd, sigmoid

SIGMOID = "sigmoid"
IDENTITY = "identity"
CROSS_ENTROPY = "cross_entropy"
SQUARED = "squared"


@dataclass
class DaeModel:
    """Tied-weight auto-encoder parameters.

    weights is (H, M'); the decoder always uses its transpose, never a
    copy, so mutating the encoder weights is observable in decode.
    """

    weights: np.ndarray
    encoder_bias: np.ndarray
    decoder_bias: np.ndarray
    decoder_activation: str = SIGMOID

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.encoder_bias = np.asarray(self.encoder_bias, dtype=np.float64)
        self.decoder_bias = np.asarray(self.decoder_bias, dtype=np.float64)
        h, m = self.weights.shape
        if self.encoder_bias.shape != (h,) or self.decoder_bias.shape != (m,):
            raise DimensionError("bias widths do not match the weight matrix")
        if self.decoder_activation not in (SIGMOID, IDENTITY):
            raise ConfigError(f"unknown decoder activation {self.decoder_activation!r}")

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
    loss_kind: str = CROSS_ENTROPY
    decoder_activation: str = SIGMOID

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ConfigError("hidden_units must be >= 1")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.loss_kind not in (CROSS_ENTROPY, SQUARED):
            raise ConfigError(f"unknown loss kind {self.loss_kind!r}")
        if self.loss_kind == CROSS_ENTROPY and self.decoder_activation != SIGMOID:
            raise ConfigError("cross-entropy needs a sigmoid decoder")


def corrupt(x: np.ndarray, noise_sd: float, rng: Rng) -> np.ndarray:
    """Additive Gaussian corruption, unclipped; the clean x stays the target."""
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    return x + rng.normal(0.0, noise_sd, size=x.shape)


def encode(m: DaeModel, x: np.ndarray) -> np.ndarray:
    """Hidden code: sigmoid(W x + b); works on one vector or an (N, M') batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != m.input_width:
        raise DimensionError(f"expected input width {m.input_width}, got {x.shape[-1]}")
    return sigmoid(x @ m.weights.T + m.encoder_bias)


def decode(m: DaeModel, h: np.ndarray) -> np.ndarray:
    """Reconstruction through the transposed (tied) weights plus decoder bias."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != m.hidden_units:
        raise DimensionError(f"expected code width {m.hidden_units}, got {h.shape[-1]}")
    z = h @ m.weights + m.decoder_bias
    if m.decoder_activation == SIGMOID:
        return sigmoid(z)
    return z


def loss(x: np.ndarray, y: np.ndarray, kind: str = CROSS_ENTROPY) -> float:
    """Reconstruction error between a clean input and its reconstruction.

    Cross-entropy treats each component as an independent Bernoulli target
    and needs y strictly inside (0, 1); squared is a plain L2 distance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError("input and reconstruction widths differ")
    if kind == SQUARED:
        diff = x - y
        return float(diff @ diff)
    if kind == CROSS_ENTROPY:
        # Guard against a fully saturated sigmoid producing an exact 0 or 1.
        yc = np.clip(y, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))
        return float(-(x @ np.log(yc) + (1.0 - x) @ np.log1p(-yc)))
    raise ConfigError(f"unknown loss kind {kind!r}")


def grads(m: DaeModel, x_clean: np.ndarray, x_in: np.ndarray, kind: str):
    """Reconstruction plus analytic batch-mean gradients (weights, encoder
    bias, decoder bias) of loss(x_clean, reconstruction) over (B, M') rows
    fed x_in; a batch of one is one example.

    The weight gradient sums the decoder term h^T dz and the encoder term
    da^T x_in because the matrix is shared. This is the exact step
    direction of train_dae, hence the target of the finite-difference
    oracle; the loss itself is left to callers that record it.
    """
    if kind == CROSS_ENTROPY and m.decoder_activation != SIGMOID:
        raise ConfigError("cross-entropy needs a sigmoid decoder")
    h = encode(m, x_in)
    y = decode(m, h)

    if kind == CROSS_ENTROPY:
        dz = y - x_clean
    elif kind == SQUARED:
        dy = 2.0 * (y - x_clean)
        dz = dy * y * (1.0 - y) if m.decoder_activation == SIGMOID else dy
    else:
        raise ConfigError(f"unknown loss kind {kind!r}")
    dz /= x_clean.shape[0]

    da = dz @ m.weights.T * h * (1.0 - h)
    grad_w = h.T.dot(dz)
    grad_w += da.T.dot(x_in)
    return y, grad_w, da.sum(axis=0), dz.sum(axis=0)


def init_dae(input_width: int, cfg: DaeTrainConfig, rng: Rng) -> DaeModel:
    """Uniform weights on [-1/sqrt(M'), +1/sqrt(M')], zero biases."""
    bound = 1.0 / np.sqrt(input_width)
    weights = rng.uniform(-bound, bound, size=(cfg.hidden_units, input_width))
    return DaeModel(weights, np.zeros(cfg.hidden_units), np.zeros(input_width),
                    cfg.decoder_activation)


def train_dae(train: Dataset, cfg: DaeTrainConfig, rng: Rng,
              return_history: bool = False):
    """Stochastic gradient training over exactly cfg.epochs epochs.

    Per example: draw fresh corruption, encode, decode, take one step
    against the clean input. rng drives init, shuffling, and corruption,
    so equally seeded generators give bitwise-equal models. The per-epoch
    mean reconstruction loss is computed only under return_history.
    Parameters that stop being finite raise DivergenceError at the end of
    that epoch.
    """
    if train.n == 0:
        raise DataError("cannot train on an empty dataset")
    if cfg.loss_kind == CROSS_ENTROPY and (train.x.min() < 0 or train.x.max() > 1):
        raise DataError("cross-entropy training needs inputs in [0, 1]")

    model = init_dae(train.m, cfg, rng)
    losses: list[float] = []

    def step(x):
        y, *gradients = grads(model, x, corrupt(x, cfg.noise_sd, rng),
                              cfg.loss_kind)
        if return_history:
            losses.extend(loss(xi, yi, cfg.loss_kind) for xi, yi in zip(x, y))
        return gradients

    sgd("DAE pre-training",
        [model.weights, model.encoder_bias, model.decoder_bias], step,
        cfg.learning_rate, (train.x,), cfg.epochs, rng)

    if return_history:
        return model, [sum(losses[lo:lo + train.n]) / train.n
                       for lo in range(0, len(losses), train.n)]
    return model


def encode_dataset(m: DaeModel, d: Dataset) -> Dataset:
    """Deterministic codes of the clean inputs, labels carried through.

    Never corrupts: upper layers train on the representation the encoder
    will actually produce at prediction time.
    """
    return Dataset(encode(m, d.x), d.labels, d.num_classes, None)
