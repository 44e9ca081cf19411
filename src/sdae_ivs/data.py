"""Datasets, variable masks, the .amat loader, and the planted-noise generator.

Conventions: feature matrices are (N, M) float64 with entries in [0, 1];
labels are stored 1-based ({1..K}) regardless of how they appear on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError
from .numerics import Rng


@dataclass
class VariableMask:
    """Binary keep/drop vector over input variables (1 = keep)."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 1:
            raise DimensionError("mask bits must be a 1-D vector")

    @classmethod
    def all_ones(cls, m: int) -> "VariableMask":
        return cls(np.ones(m, dtype=bool))

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def popcount(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, VariableMask):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            np.array_equal(self.bits, other.bits)
        )


@dataclass
class Dataset:
    """Examples in [0,1]^M with 1-based class labels.

    variable_shape, when set, records an (height, width) layout for
    image-like variables so importance maps and patterns can be rendered.
    """

    x: np.ndarray
    labels: np.ndarray
    num_classes: int
    variable_shape: tuple[int, int] | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.x.ndim != 2:
            raise DimensionError("examples must form an (N, M) matrix")
        if self.labels.shape != (self.x.shape[0],):
            raise DimensionError("label count must equal the number of examples")
        if self.num_classes < 1:
            raise DataError("num_classes must be >= 1")
        if self.labels.size and (
            self.labels.min() < 1 or self.labels.max() > self.num_classes
        ):
            raise DataError("labels must lie in {1..K}")
        if self.variable_shape is not None:
            h, w = self.variable_shape
            if h * w != self.x.shape[1]:
                raise DimensionError("variable_shape does not match M")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-relevance generator parameters.

    Relevant variables carry class-dependent means, irrelevant ones are
    class-independent noise, so the generator doubles as a ground-truth
    oracle for selection quality.
    """

    num_relevant: int
    num_irrelevant: int
    num_classes: int
    class_separation: float
    noise_sd: float
    examples_per_split: tuple[int, int, int]

    def __post_init__(self):
        if self.num_relevant < 1:
            raise DataError("need at least one relevant variable")
        if self.num_irrelevant < 0:
            raise DataError("num_irrelevant must be >= 0")
        if self.num_classes < 2:
            raise DataError("need at least two classes")
        if self.class_separation <= 0:
            raise DataError("class_separation must be > 0")
        if self.noise_sd < 0:
            raise DataError("noise_sd must be >= 0")
        if any(s < 0 for s in self.examples_per_split):
            raise DataError("split sizes must be >= 0")

    @property
    def m(self) -> int:
        return self.num_relevant + self.num_irrelevant


def load_amat(path, zero_based_labels: bool = True,
              variable_shape: tuple[int, int] | None = None) -> Dataset:
    """Load a whitespace-separated text corpus, one example per row, label last.

    Features must already lie in [0, 1]; values outside, and non-finite
    values anywhere, raise rather than being rescaled. The label column may
    be 0-based (default, as in the published MNIST-variant corpora) or
    1-based on disk.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    rows = [ln.split() for ln in lines if ln.strip()]
    if not rows:
        raise DataError(f"{path}: file holds no examples")
    width = len(rows[0])
    if width < 2:
        raise DataError(f"{path}: rows need at least one feature and a label")
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(
                f"{path}: ragged row {i} has {len(row)} fields, expected {width}"
            )
    try:
        values = np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric field ({exc})") from exc

    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0]
        raise DataError(
            f"{path}: non-finite value at row {bad[0] + 1}, column {bad[1] + 1}"
        )

    features = values[:, :-1]
    if features.min() < 0.0 or features.max() > 1.0:
        bad = np.argwhere((features < 0.0) | (features > 1.0))[0]
        raise DataError(
            f"{path}: feature at row {bad[0] + 1}, column {bad[1] + 1} "
            "lies outside [0, 1]"
        )

    raw_labels = values[:, -1]
    if not np.all(raw_labels == np.floor(raw_labels)):
        bad = int(np.argmax(raw_labels != np.floor(raw_labels))) + 1
        raise DataError(f"{path}: non-integer label at row {bad}")
    labels = raw_labels.astype(np.int64) + (1 if zero_based_labels else 0)
    if labels.min() < 1:
        raise DataError(f"{path}: label below the declared base at row "
                        f"{int(np.argmax(labels < 1)) + 1}")
    return Dataset(features, labels, int(labels.max()), variable_shape)


def split(d: Dataset, sizes: tuple[int, int]) -> tuple[Dataset, Dataset, Dataset]:
    """Order-preserving (train, valid, test) split; the remainder is the test set."""
    n_train, n_valid = sizes
    if n_train < 0 or n_valid < 0 or n_train + n_valid > d.n:
        raise DataError(
            f"split sizes {sizes} exceed the {d.n} available examples"
        )

    def piece(lo, hi):
        return Dataset(d.x[lo:hi], d.labels[lo:hi], d.num_classes, d.variable_shape)

    return (
        piece(0, n_train),
        piece(n_train, n_train + n_valid),
        piece(n_train + n_valid, d.n),
    )


def gen_synthetic(spec: SyntheticSpec, rng: Rng) -> tuple[Dataset, VariableMask]:
    """Generate a planted-relevance dataset and its ground-truth mask.

    Relevant columns get class-c means clip(0.5 + separation * u_c, 0, 1)
    for a seeded per-class direction u_c, plus N(0, noise_sd^2) jitter,
    clipped back into [0, 1]. Irrelevant columns are uniform on [0, 1]
    independent of the class. Column positions are shuffled so selection
    bugs tied to ordering cannot hide.
    """
    m = spec.m
    n = sum(spec.examples_per_split)
    perm = rng.permutation(m)
    relevant_cols = perm[: spec.num_relevant]
    irrelevant_cols = perm[spec.num_relevant:]

    directions = rng.uniform(-1.0, 1.0, size=(spec.num_classes, spec.num_relevant))
    means = np.clip(0.5 + spec.class_separation * directions, 0.0, 1.0)

    labels = rng.integers(1, spec.num_classes + 1, size=n)
    x = np.empty((n, m), dtype=np.float64)
    jitter = rng.normal(0.0, spec.noise_sd, size=(n, spec.num_relevant)) \
        if spec.noise_sd > 0 else 0.0
    x[:, relevant_cols] = np.clip(means[labels - 1] + jitter, 0.0, 1.0)
    if spec.num_irrelevant:
        x[:, irrelevant_cols] = rng.uniform(0.0, 1.0, size=(n, spec.num_irrelevant))

    truth = np.zeros(m, dtype=bool)
    truth[relevant_cols] = True
    return Dataset(x, labels, spec.num_classes), VariableMask(truth)


def compact(x: np.ndarray, mask: VariableMask) -> np.ndarray:
    """Keep only the masked-in components, in order."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != mask.m:
        raise DimensionError(f"vector width {x.shape[-1]} != mask length {mask.m}")
    return x[..., mask.bits]


def expand(x_reduced: np.ndarray, mask: VariableMask) -> np.ndarray:
    """Inverse of compact: write dropped positions back as 0."""
    x_reduced = np.asarray(x_reduced, dtype=np.float64)
    if x_reduced.shape[-1] != mask.popcount:
        raise DimensionError(
            f"reduced width {x_reduced.shape[-1]} != mask popcount {mask.popcount}"
        )
    out = np.zeros(x_reduced.shape[:-1] + (mask.m,), dtype=np.float64)
    out[..., mask.bits] = x_reduced
    return out


def compact_dataset(d: Dataset, mask: VariableMask) -> Dataset:
    """Dataset reduced to the surviving variables (image layout is lost)."""
    return Dataset(compact(d.x, mask), d.labels, d.num_classes, None)
