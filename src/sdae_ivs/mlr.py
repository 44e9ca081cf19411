"""Multinomial logistic regression: softmax prediction, SGD training with
validation early stopping, and error reporting with Wald intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, DimensionError
from .numerics import Rng, log_softmax, sgd, softmax


@dataclass
class MlrModel:
    """Per-class weight vectors (K, M) and biases (K,)."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise DimensionError("weights must be (K, M) with K biases")
        if self.k < 2:
            raise DimensionError("need at least two classes")

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def m(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyper-parameters shared by the pre-classifier and the top layer.

    patience counts epochs without a validation improvement before stopping;
    l2 defaults to 0 because early stopping is the overfitting control.
    """

    learning_rate: float
    max_epochs: int
    patience: int
    minibatch_size: int = 1
    l2: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.max_epochs < 0 or self.patience < 1 or self.minibatch_size < 1:
            raise ConfigError("epochs/patience/minibatch_size out of range")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")


@dataclass(frozen=True)
class ErrorReport:
    """Classification error rate with its 95% Wald interval halfwidth."""

    error_rate: float
    n: int
    ci95_halfwidth: float

    @classmethod
    def from_rate(cls, error_rate: float, n: int) -> "ErrorReport":
        return cls(error_rate, n, wald_halfwidth(error_rate, n))


def wald_halfwidth(p: float, n: int) -> float:
    """1.96 * sqrt(p(1-p)/n), the 95% normal-approximation halfwidth."""
    if n < 1:
        raise DataError("need n >= 1 for a confidence interval")
    return 1.96 * float(np.sqrt(p * (1.0 - p) / n))


def predict_labels(m: MlrModel, x: np.ndarray) -> np.ndarray:
    """Argmax class labels (1-based) for a matrix of examples; ties pick the
    lowest class index."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != m.m:
        raise DimensionError(f"expected inputs of width {m.m}, got {x.shape[1]}")
    logits = x @ m.weights.T + m.biases
    return np.argmax(logits, axis=1) + 1


def cross_entropy(m: MlrModel, x: np.ndarray, labels: np.ndarray,
                  l2: float = 0.0) -> float:
    """Mean negative log posterior of the true classes over a batch, plus
    0.5 * l2 * ||W||^2: the objective batch_grads differentiates."""
    logp = log_softmax(np.asarray(x, dtype=np.float64) @ m.weights.T + m.biases)
    labels = np.asarray(labels)
    loss = -float(np.mean(logp[np.arange(labels.size), labels - 1]))
    return loss + 0.5 * l2 * float(np.sum(m.weights * m.weights))


def output_delta(weights, biases, xb, yb):
    """(softmax - one-hot) / B over the batch (xb, yb): the derivative of
    the batch-mean cross-entropy with respect to the logits."""
    p = softmax(xb @ weights.T + biases)
    p[np.arange(xb.shape[0]), yb - 1] -= 1.0
    p /= xb.shape[0]
    return p


def batch_grads(weights, biases, xb, yb, l2):
    """Gradients (d_weights, d_biases) of cross_entropy over the batch
    (xb, yb): the one step direction of train_mlr, and the function the
    finite-difference oracle checks."""
    p = output_delta(weights, biases, xb, yb)
    grad_w = p.T.dot(xb)
    if l2 > 0.0:
        grad_w += l2 * weights
    return grad_w, p.sum(axis=0)


def validation_error(weights, biases, x, labels) -> float:
    logits = x @ weights.T + biases
    return float(np.mean(np.argmax(logits, axis=1) + 1 != labels))


def train_mlr(train: Dataset, valid: Dataset, cfg: TrainConfig, rng: Rng,
              return_history: bool = False):
    """Fit an MLR by minibatch SGD with early stopping.

    Weights start at zero (the loss is convex, so the optimum does not
    depend on the start). The returned model is the snapshot with the best
    validation error; ties go to the earlier epoch, so a fit that never
    beats the untrained model returns the all-zero model. To drop
    variables, train on a compacted dataset. rng shuffles the examples.
    Parameters that stop being finite raise DivergenceError at the end of
    that epoch.
    """
    if train.n == 0:
        raise DataError("cannot train on an empty dataset")
    if valid.n == 0:
        raise DataError("early stopping needs a non-empty validation set")
    if train.num_classes != valid.num_classes or train.m != valid.m:
        raise DataError("train and validation sets disagree on M or K")

    weights = np.zeros((train.num_classes, train.m))
    biases = np.zeros(train.num_classes)
    history = sgd("MLR training", [weights, biases],
                  lambda xb, yb: batch_grads(weights, biases, xb, yb, cfg.l2),
                  cfg.learning_rate, (train.x, train.labels), cfg.max_epochs,
                  rng, batch=cfg.minibatch_size,
                  score=lambda: validation_error(weights, biases, valid.x,
                                                 valid.labels),
                  patience=cfg.patience)

    model = MlrModel(weights, biases)
    if return_history:
        return model, history
    return model


def evaluate(classify, d: Dataset) -> ErrorReport:
    """Error rate of a label predictor over a dataset, with Wald interval.

    classify maps an (N, M) matrix to N predicted labels in {1..K}.
    """
    if d.n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    predicted = np.asarray(classify(d.x))
    if predicted.shape != (d.n,):
        raise DimensionError("predictor must return one label per example")
    error_rate = float(np.mean(predicted != d.labels))
    return ErrorReport.from_rate(error_rate, d.n)
