"""Multinomial logistic regression: softmax prediction, SGD training with
validation early stopping, and the error rate with its Wald interval."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

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

    patience counts epochs without a validation improvement before stopping,
    the one overfitting control.
    """

    learning_rate: float
    max_epochs: int
    patience: int
    minibatch_size: int = 1


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


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """(N, K) targets with a 1 at each 1-based label's column."""
    return np.eye(k)[labels - 1]


def workspace(weights, targets, batch, grads=None):
    """Arrays batch_grads writes into over one-hot targets (N, K) in batches
    of at most `batch` rows; targets of another shape, such as labels, raise.

    grads is a (flat buffer, [grad_w, grad_b]) pair, the gradient views
    lying in the buffer; by default the workspace packs its own. At batch 1
    the delta is grad_b's own row.
    """
    k, m = weights.shape
    if targets.shape != (len(targets), k):
        raise DimensionError(f"targets must be one-hot ({len(targets)}, {k}), "
                             f"not {targets.shape}")
    grad, (grad_w, grad_b) = grads or pack(np.zeros((k, m)), np.zeros(k))
    return SimpleNamespace(grad=grad, grad_w=grad_w, grad_b=grad_b,
                           delta=delta_rows(grad_b, min(batch, len(targets))))


def batch_grads(weights, biases, xb, tb, ws):
    """Gradients of the batch-mean cross-entropy by the weights and biases
    over the batch xb with one-hot targets tb, written into ws.grad_w and
    ws.grad_b of ws = workspace(...), whose delta then holds their
    derivative (softmax - one-hot) / B by the logits: the step of
    train_mlr and of the fine-tuned top. Returns the flat buffer ws.grad
    the two lie in."""
    p = xb.dot(weights.T, out=ws.delta[:len(xb)])
    p += biases
    softmax(p, out=p)
    p -= tb
    if len(p) > 1:
        p /= len(p)
    p.T.dot(xb, out=ws.grad_w)
    sum_rows(p, ws.grad_b)
    return ws.grad


def train_mlr(train: Dataset, valid: Dataset, cfg: TrainConfig, rng: Rng,
              return_history: bool = False, phase: str = "MLR training"):
    """Fit an MLR by minibatch SGD with early stopping.

    Weights start at zero (the loss is convex, so the optimum does not
    depend on the start). The returned model is the snapshot with the best
    validation error; ties go to the earlier epoch, so a fit that never
    beats the untrained model returns the all-zero model. To drop
    variables, train on a compacted dataset. rng shuffles the examples,
    whose one-hot targets are built once per fit. Parameters that stop
    being finite raise DivergenceError, naming phase, at that epoch's end.
    """
    if train.n == 0:
        raise DataError("cannot train on an empty dataset")
    if valid.n == 0:
        raise DataError("early stopping needs a non-empty validation set")
    if train.num_classes != valid.num_classes or train.m != valid.m:
        raise DataError("train and validation sets disagree on M or K")

    params, (weights, biases) = pack(np.zeros((train.num_classes, train.m)),
                                     np.zeros(train.num_classes))
    model = MlrModel(weights, biases)
    targets = one_hot(train.labels, train.num_classes)
    ws = workspace(weights, targets, cfg.minibatch_size)
    history = sgd(phase, params,
                  lambda xb, tb: batch_grads(weights, biases, xb, tb, ws),
                  cfg.learning_rate, (train.x, targets), cfg.max_epochs,
                  rng, batch=cfg.minibatch_size,
                  score=lambda: float(np.mean(predict_labels(model, valid.x)
                                              != valid.labels)),
                  patience=cfg.patience)
    if return_history:
        return model, history
    return model


def evaluate(classify, d: Dataset) -> float:
    """Error rate of a label predictor over a dataset.

    classify maps an (N, M) matrix to N predicted labels in {1..K}.
    """
    if d.n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    predicted = np.asarray(classify(d.x))
    if predicted.shape != (d.n,):
        raise DimensionError("predictor must return one label per example")
    return float(np.mean(predicted != d.labels))
