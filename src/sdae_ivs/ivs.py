"""Importance-based variable selection.

A pre-classifier (an MLR) scores each variable by how strongly it tilts
the discriminant hyperplanes of the class pairs; variables scoring below a
threshold are dropped, and the train/score/drop loop repeats on the
survivors until a stop criterion fires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, VariableMask, compact_dataset, expand
from .mlr import MlrModel, TrainConfig, evaluate, predict_labels, train_mlr
from .numerics import Rng


@dataclass(frozen=True)
class IvsConfig:
    """Selection threshold, iteration cap, and the pre-classifier's trainer."""

    threshold: float
    max_iterations: int
    mlr: TrainConfig


@dataclass
class IvsIteration:
    """One selection step: the count kept after it, its validation error,
    and the importance of every input variable (0 where already dropped)."""

    kept: int
    validation_error: float
    importance: np.ndarray


@dataclass
class IvsResult:
    mask: VariableMask
    history: list[IvsIteration]


def task_importance(m: MlrModel) -> np.ndarray:
    """Per-variable task importances in [0, 1]: the componentwise max over
    class pairs i < j of |w_i - w_j| / max_d |w_i - w_j|.

    w_i - w_j is the normal of the pair's hyperplane (biases shift it but
    do not tilt it); dividing by its largest component cancels its length,
    so no norm is taken. Pairs with identical weights have no hyperplane
    and are skipped. Every other pair scores some variable exactly 1, so
    the result is all zeros exactly when no pair has a hyperplane: nothing
    is scored.
    """
    importance = np.zeros(m.m)
    for i in range(m.k - 1):
        mags = np.abs(m.weights[i] - m.weights[i + 1:])
        top = mags.max(axis=1, keepdims=True)
        live = top[:, 0] > 0.0
        np.maximum(importance,
                   (mags[live] / top[live]).max(axis=0, initial=0.0),
                   out=importance)
    return importance


def run_ivs(train: Dataset, valid: Dataset, cfg: IvsConfig, rng: Rng,
            phase: str = "MLR training") -> IvsResult:
    """Iterative selection: train a fresh pre-classifier on the surviving
    variables, score them, shrink the mask, repeat.

    Stops when (a) an update leaves the mask unchanged, (b) the new
    pre-classifier's validation error exceeds the best seen so far, (c) the
    pre-classifier never beat the all-zero model, so no variable can be
    scored, or (d) the iteration cap is reached. The returned mask is the
    one produced by the best-validation iteration (every variable if none
    was accepted), which makes stopping on (b) and (c) safe. Every
    pre-classifier, named phase in its failures, shuffles from rng in turn.
    """
    mask = VariableMask.all_ones(train.m)
    best_err = np.inf
    best_mask = mask
    history: list[IvsIteration] = []

    for _ in range(cfg.max_iterations):
        kept_valid = compact_dataset(valid, mask)
        model = train_mlr(compact_dataset(train, mask), kept_valid,
                          cfg.mlr, rng, phase=phase)
        err = evaluate(predict_labels(model, kept_valid.x), kept_valid)
        importance = expand(task_importance(model), mask)
        # (b), and (c) where nothing is scored, precede the update: a
        # stopping iteration is recorded but never shrinks the mask.
        if err > best_err or not importance.any():
            history.append(IvsIteration(mask.popcount, err, importance))
            break

        # Some kept variable scores exactly 1 >= threshold, so one stays.
        new_mask = VariableMask(mask.bits & (importance >= cfg.threshold))
        history.append(IvsIteration(new_mask.popcount, err, importance))
        if err < best_err:
            best_err, best_mask = err, new_mask
        if new_mask == mask:
            break
        mask = new_mask

    return IvsResult(best_mask, history)

