"""Scalar/vector primitives and seeded randomness shared by all training code.

Everything is 64-bit float; gradient checks at ~1e-5 relative tolerance are
not feasible in 32-bit. Randomness is PCG64 threaded explicitly through the
operations that need it, never module-global state.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError

Rng = np.random.Generator


def make_rng(seed: int) -> Rng:
    """Fresh PCG64 generator; identical seed gives the identical stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def derive_rng(master_seed: int, *key: int) -> Rng:
    """Independent child generator for a (phase, layer, ...) key.

    Children with distinct keys are statistically independent, and adding
    later phases never perturbs the streams of earlier ones.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(master_seed: int, *key: int) -> int:
    """64-bit seed derived from a master seed and a key, for config plumbing."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def check_finite(phase: str, epoch: int, *params: np.ndarray) -> None:
    """Raise DivergenceError if any parameter array holds an inf or a NaN."""
    if not all(np.isfinite(p).all() for p in params):
        raise DivergenceError(f"{phase} diverged at epoch {epoch} (non-finite "
                              "parameters); lower the learning rate")


def sigmoid(z):
    """Logistic function 1/(1+e^-z), overflow-safe for any finite input.

    Accepts scalars or arrays; always evaluates exp on a non-positive
    argument so |z| up to the float64 limit cannot overflow.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def softmax(logits):
    """Max-shifted softmax along the last axis.

    Components are positive and sum to 1 (within a few ulp); shifting by the
    row maximum keeps exp from overflowing.
    """
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits):
    """Log of softmax, computed without forming small exponentials."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

