"""Multinomial logistic regression: softmax prediction, SGD training with
validation early stopping, and the error rate with its Wald interval."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError
from .numerics import Rng, delta_rows, pack, sgd, softmax, sum_rows


@dataclass
class MlrModel:
    """Per-class weight vectors (K, M) and biases (K,)."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
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

    patience counts epochs without a validation improvement before stopping,
    the one overfitting control.
    """

    learning_rate: float
    max_epochs: int
    patience: int
    minibatch_size: int = 1


def wald_halfwidth(p: float, n: int) -> float:
    """1.96 * sqrt(p(1-p)/n), the 95% normal-approximation halfwidth."""
    return 1.96 * float(np.sqrt(p * (1.0 - p) / n))


def predict_labels(m: MlrModel, x: np.ndarray) -> np.ndarray:
    """Argmax class labels (1-based) for a matrix of examples; ties pick the
    lowest class index. One (N, K) array holds the logits."""
    logits = x @ m.weights.T
    logits += m.biases
    labels = np.argmax(logits, axis=1)
    labels += 1
    return labels


def one_hot(labels: np.ndarray, k: int, dtype) -> np.ndarray:
    """(N, K) targets of dtype with a 1 at each 1-based label's column."""
    targets = np.zeros((len(labels), k), dtype)
    targets[np.arange(len(labels)), labels - 1] = 1.0
    return targets


def output_delta(weights, biases, xb, tb, out):
    """(softmax - one-hot) / B of the logits of the B rows xb under the
    one-hot targets tb, worked out in out: the derivative of the batch-mean
    cross-entropy by the logits, at the MLR's step and the fine-tuned
    top's."""
    p = xb.dot(weights.T, out=out)
    p += biases
    softmax(p, out=p)
    p -= tb
    if len(p) > 1:
        p /= len(p)
    return p


def gradient(m: MlrModel, batch: int):
    """The step of train_mlr over batches of at most `batch` rows:
    grads(xb, tb) writes the batch-mean cross-entropy gradients by m's
    weights and biases, with one-hot targets tb, into one flat buffer laid
    out like them, and returns it. The buffers are built here, once per
    fit; at batch 1 the delta is the bias gradient's row."""
    grad, (grad_w, grad_b) = pack(np.zeros_like(m.weights),
                                  np.zeros_like(m.biases))
    delta = delta_rows(grad_b, batch)

    def grads(xb, tb):
        p = output_delta(m.weights, m.biases, xb, tb, delta[:len(xb)])
        p.T.dot(xb, out=grad_w)
        sum_rows(p, grad_b)
        return grad
    return grads


def train_mlr(train: Dataset, valid: Dataset, cfg: TrainConfig, rng: Rng,
              return_history: bool = False, phase: str = "MLR training"):
    """Fit an MLR by minibatch SGD with early stopping.

    Weights start at zero in train's dtype (the loss is convex, so the
    optimum does not depend on the start). The returned model is the
    snapshot with the best validation error; ties go to the earlier epoch,
    so a fit that never beats the untrained model returns the all-zero
    model. To drop variables, train on a compacted dataset. rng shuffles
    the examples, whose one-hot targets are built once per fit. Parameters
    that stop being finite raise DivergenceError, naming phase, at that
    epoch's end.
    """
    if train.num_classes != valid.num_classes or train.m != valid.m:
        raise DataError("train and validation sets disagree on M or K")

    k, dtype = train.num_classes, train.x.dtype
    params, (weights, biases) = pack(np.zeros((k, train.m), dtype),
                                     np.zeros(k, dtype))
    model = MlrModel(weights, biases)
    targets = one_hot(train.labels, k, dtype)
    history = sgd(phase, params,
                  gradient(model, min(cfg.minibatch_size, train.n)),
                  cfg.learning_rate, (train.x, targets), cfg.max_epochs,
                  rng, batch=cfg.minibatch_size,
                  score=lambda: evaluate(predict_labels(model, valid.x), valid),
                  patience=cfg.patience)
    if return_history:
        return model, history
    return model


def evaluate(predicted: np.ndarray, d: Dataset) -> float:
    """Error rate of predicted labels, one per example of d, against d's."""
    if d.n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    if predicted.shape != (d.n,):
        raise DimensionError("need one predicted label per example")
    return float(np.mean(predicted != d.labels))
