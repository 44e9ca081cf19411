"""Shared test helpers: finite differences, reference implementations the
program is checked against, and small random instances."""

import numpy as np

from sdae_ivs.mlr import MlrModel
from sdae_ivs.numerics import make_rng


def central_diff(f, arr: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f with respect to every entry."""
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        hi = f()
        arr[idx] = orig - step
        lo = f()
        arr[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def grads_close(analytic: np.ndarray, numeric: np.ndarray,
                rel_tol: float = 1e-5) -> bool:
    """Vector-relative agreement: ||a - n|| <= tol * (1 + ||n||)."""
    diff = float(np.linalg.norm(np.asarray(analytic) - np.asarray(numeric)))
    return diff <= rel_tol * (1.0 + float(np.linalg.norm(numeric)))


def random_mlr(seed: int, k: int, m: int, scale: float = 1.0) -> MlrModel:
    rng = make_rng(seed)
    return MlrModel(scale * rng.normal(size=(k, m)), scale * rng.normal(size=k))


def two_branch_sigmoid(z):
    """Reference logistic: exp of a non-positive argument on each side of 0,
    one masked branch per sign. numerics.sigmoid must match it bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def discriminant(m: MlrModel, i: int, j: int, x: np.ndarray) -> float:
    """Normalized signed distance of x from the (i, j) hyperplane.

    Linear in x, with gradient equal to the unit normal; the
    finite-difference oracle differentiates this.
    """
    diff = m.weights[i - 1] - m.weights[j - 1]
    return float((diff @ np.asarray(x, dtype=np.float64)
                  + (m.biases[i - 1] - m.biases[j - 1]))
                 / np.linalg.norm(diff))
