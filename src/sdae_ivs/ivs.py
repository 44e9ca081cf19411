"""Importance-based variable selection.

A trained MLR induces one discriminant hyperplane per class pair; a
variable's influence on that pair is the magnitude of the matching unit
normal component. Importances are those magnitudes normalized per pair by
the largest one, and a variable's task importance is the max across pairs.
Variables whose task importance falls below a threshold are dropped, and
the train/score/drop loop repeats on the survivors until a stop criterion
fires.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset, VariableMask, compact_dataset, expand
from .errors import (ConfigError, DegenerateModelError, DimensionError,
                     OverThresholdError)
from .mlr import MlrModel, TrainConfig, train_mlr, validation_error
from .numerics import Rng, make_rng


@dataclass(frozen=True)
class IvsConfig:
    """Selection threshold, iteration cap, and the pre-classifier's trainer."""

    threshold: float
    max_iterations: int
    mlr: TrainConfig

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must lie in [0, 1]")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass
class IvsIteration:
    """One selection step: the count kept after it, its validation error,
    and the importance of every input variable (0 where already dropped)."""

    iteration: int
    kept: int
    validation_error: float
    importance: np.ndarray


@dataclass
class IvsResult:
    mask: VariableMask
    history: list[IvsIteration]


def normal_vector(m: MlrModel, i: int, j: int) -> np.ndarray:
    """Unit normal of the discriminant hyperplane between classes i and j.

    Biases shift the hyperplane but do not tilt it, so they never enter.
    Finite weights too large to square (about 1e154 and up) overflow the
    plain norm. Only then is the norm taken of the difference divided by
    its largest magnitude and multiplied back, so ordinary weights keep
    their exact bits. Raises if the two classes share identical weights
    (no hyperplane).
    """
    if i == j:
        raise ValueError("need two distinct classes")
    diff = m.weights[i - 1] - m.weights[j - 1]
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(diff))
        if np.isinf(norm):
            top = float(np.abs(diff).max())
            norm = float(np.linalg.norm(diff / top)) * top
    if norm == 0.0:
        raise DegenerateModelError(f"classes {i} and {j} have identical weights")
    return diff / norm


def pair_importance(v: np.ndarray) -> np.ndarray:
    """|v_d| scaled by the infinity norm; the largest component is exactly 1."""
    v = np.asarray(v, dtype=np.float64)
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        raise DegenerateModelError("zero normal vector cannot be scored")
    return mags / top


def task_importance(m: MlrModel) -> np.ndarray:
    """Per-variable task importances in [0, 1]: the componentwise max of
    pair importances over all unordered class pairs.

    The normal of (j, i) is the negation of (i, j)'s, so i < j covers
    everything. Pairs with identical weights carry no hyperplane and are
    skipped; if every pair is degenerate there is nothing to score.
    """
    importance = np.zeros(m.m)
    scored = False
    for i in range(1, m.k + 1):
        for j in range(i + 1, m.k + 1):
            try:
                s = pair_importance(normal_vector(m, i, j))
            except DegenerateModelError:
                continue
            scored = True
            importance = np.maximum(importance, s)
    if not scored:
        raise DegenerateModelError("every class pair is degenerate")
    return importance


def update_mask(importance: np.ndarray, threshold: float,
                prev: VariableMask) -> VariableMask:
    """Keep a variable iff it was kept before AND its importance clears the
    threshold (selection only ever shrinks)."""
    importance = np.asarray(importance, dtype=np.float64)
    if importance.shape != (prev.m,):
        raise DimensionError("importance vector and mask lengths differ")
    bits = prev.bits & (importance >= threshold)
    if not bits.any():
        raise OverThresholdError(
            f"threshold {threshold} drops every variable; lower it or stop"
        )
    return VariableMask(bits)


def run_ivs(train: Dataset, valid: Dataset, cfg: IvsConfig, rng: Rng) -> IvsResult:
    """Iterative selection: train a fresh pre-classifier on the surviving
    variables, score them, shrink the mask, repeat.

    Stops when (a) the previous update left the mask unchanged, (b) the new
    pre-classifier's validation error exceeds the best seen so far, (c) the
    pre-classifier never beat the all-zero model, so no variable can be
    scored, or (d) the iteration cap is reached. The returned mask is the
    one produced by the best-validation iteration (every variable if none
    was accepted), which makes stopping on (b) and (c) safe.
    """
    mask = VariableMask.all_ones(train.m)
    prev_mask: VariableMask | None = None
    best_err = np.inf
    best_mask = mask
    history: list[IvsIteration] = []

    for iteration in range(1, cfg.max_iterations + 1):
        kept_valid = compact_dataset(valid, mask)
        model = train_mlr(compact_dataset(train, mask), kept_valid, cfg.mlr,
                          make_rng(int(rng.integers(0, 2**63))))
        err = validation_error(model.weights, model.biases, kept_valid.x,
                               kept_valid.labels)
        try:
            importance = expand(task_importance(model), mask)
            degenerate = False
        except DegenerateModelError:
            # No hyperplane to score: every variable is recorded as 0.
            importance = np.zeros(mask.m)
            degenerate = True

        # Stop checks precede the update: (a) looks at what the previous
        # update changed, (b) at the error trend, (c) at the model itself;
        # a stopping iteration is recorded but never shrinks the mask.
        if (degenerate or (prev_mask is not None and mask == prev_mask)
                or err > best_err):
            history.append(IvsIteration(iteration, mask.popcount, err,
                                        importance))
            break

        new_mask = update_mask(importance, cfg.threshold, mask)
        history.append(IvsIteration(iteration, new_mask.popcount, err,
                                    importance))
        if err < best_err:
            best_err = err
            best_mask = new_mask
        prev_mask = mask
        mask = new_mask

    return IvsResult(best_mask, history)


def write_importance_csv(path, importance: np.ndarray) -> None:
    """Two-column CSV: variable index (1-based) and its task importance."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "importance"])
        for d, value in enumerate(np.asarray(importance), start=1):
            writer.writerow([d, repr(float(value))])


def write_history_csv(path, history: list[IvsIteration]) -> None:
    """Per-iteration kept-variable counts and validation errors."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "kept", "validation_error"])
        for item in history:
            writer.writerow([item.iteration, item.kept,
                             repr(item.validation_error)])
