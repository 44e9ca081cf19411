"""Datasets, variable masks, the .amat loader, and the planted-noise generator.

Conventions: feature matrices are (N, M) float64 with entries in [0, 1];
labels are stored 1-based ({1..K}) regardless of how they appear on disk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError
from .numerics import Rng


@dataclass
class VariableMask:
    """Binary keep/drop vector over input variables (1 = keep); index holds
    the kept positions in order."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 1:
            raise DimensionError("mask bits must be a 1-D vector")
        self.index = np.flatnonzero(self.bits)

    @classmethod
    def all_ones(cls, m: int) -> "VariableMask":
        return cls(np.ones(m, dtype=bool))

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def popcount(self) -> int:
        return self.index.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, VariableMask):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            np.array_equal(self.bits, other.bits)
        )


@dataclass
class Dataset:
    """Examples in [0,1]^M with 1-based class labels."""

    x: np.ndarray
    labels: np.ndarray
    num_classes: int

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

    @property
    def m(self) -> int:
        return self.num_relevant + self.num_irrelevant


def load_amat(path, zero_based_labels: bool = True) -> Dataset:
    """Load a whitespace-separated text corpus, one example per row, label last.

    Blank lines are skipped and '#' is an ordinary (non-numeric) field, not
    a comment. Features must already lie in [0, 1]; values outside, and
    non-finite values anywhere, raise rather than being rescaled. The label
    column may be 0-based (default, as in the published MNIST-variant
    corpora) or 1-based on disk. numpy's C reader parses straight into the
    float64 matrix, so memory stays near 8 bytes per field.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            values = np.loadtxt(path, dtype=np.float64, ndmin=2, comments=None)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise _malformed_row_error(path, exc) from exc
    except MemoryError as exc:
        rows = width = 0
        for row in _rows(path):
            rows, width = rows + 1, width or len(row)
        raise DataError(f"{path}: {rows} rows of {width} fields need a float64 "
                        f"matrix of {8 * rows * width} bytes, which cannot be "
                        "allocated") from exc

    if values.shape[0] == 0:
        raise DataError(f"{path}: file holds no examples")
    if values.shape[1] < 2:
        raise DataError(f"{path}: rows need at least one feature and a label")

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
    return Dataset(features, labels, int(labels.max()))


def _malformed_row_error(path: Path, cause: ValueError) -> DataError:
    """The error for a file the C reader rejected, naming its first bad row.

    Streams the file line by line, numbering non-blank rows: the first
    ragged row wins, else the first non-numeric field. A file whose every
    field float() accepts still gets an error, with the reader's message.
    """
    width = None
    non_numeric = None
    for i, row in enumerate(_rows(path), start=1):
        if width is None:
            width = len(row)
            if width < 2:
                return DataError(
                    f"{path}: rows need at least one feature and a label")
        if len(row) != width:
            return DataError(
                f"{path}: ragged row {i} has {len(row)} fields, expected {width}"
            )
        if non_numeric is None:
            for field in row:
                try:
                    float(field)
                except ValueError as exc:
                    non_numeric = exc
                    break
    return DataError(f"{path}: non-numeric field ({non_numeric or cause})")


def _rows(path: Path):
    """The file's non-blank rows split into fields, streamed line by line."""
    with open(path, errors="replace") as lines:
        yield from filter(None, (ln.split() for ln in lines))


def split(d: Dataset, sizes: tuple[int, int]) -> tuple[Dataset, Dataset, Dataset]:
    """Order-preserving (train, valid, test) split; the remainder is the test set."""
    n_train, n_valid = sizes
    if n_train < 0 or n_valid < 0 or n_train + n_valid > d.n:
        raise DataError(
            f"split sizes {sizes} exceed the {d.n} available examples"
        )

    def piece(lo, hi):
        return Dataset(d.x[lo:hi], d.labels[lo:hi], d.num_classes)

    return (
        piece(0, n_train),
        piece(n_train, n_train + n_valid),
        piece(n_train + n_valid, d.n),
    )


# Rows per block of gen_synthetic's column reorder.
_REORDER_ROWS = 256


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

    directions = rng.uniform(-1.0, 1.0, size=(spec.num_classes, spec.num_relevant))
    means = np.clip(0.5 + spec.class_separation * directions, 0.0, 1.0)

    labels = rng.integers(1, spec.num_classes + 1, size=n)
    x = np.empty((n, m), dtype=np.float64)
    jitter = rng.normal(0.0, spec.noise_sd, size=(n, spec.num_relevant)) \
        if spec.noise_sd > 0 else 0.0
    np.clip(means[labels - 1] + jitter, 0.0, 1.0, out=x[:, :spec.num_relevant])
    del jitter
    x[:, spec.num_relevant:] = rng.uniform(0.0, 1.0, size=(n, spec.num_irrelevant))
    # Column j belongs at perm[j]. Reordering a block of rows at a time
    # keeps the copy small, and take is cheaper than a column scatter.
    order = np.argsort(perm)
    for lo in range(0, n, _REORDER_ROWS):
        rows = slice(lo, lo + _REORDER_ROWS)
        x[rows] = x[rows].take(order, axis=1)

    truth = np.zeros(m, dtype=bool)
    truth[perm[:spec.num_relevant]] = True
    return Dataset(x, labels, spec.num_classes), VariableMask(truth)


def compact(x: np.ndarray, mask: VariableMask) -> np.ndarray:
    """Keep only the masked-in components, in order, in a C-contiguous
    array: x itself if it is one and the mask keeps every variable."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != mask.m:
        raise DimensionError(f"vector width {x.shape[-1]} != mask length {mask.m}")
    if mask.popcount == mask.m:
        return np.ascontiguousarray(x)
    return x.take(mask.index, axis=-1)


def expand(x_reduced: np.ndarray, mask: VariableMask) -> np.ndarray:
    """Inverse of compact: write dropped positions back as 0."""
    x_reduced = np.asarray(x_reduced, dtype=np.float64)
    if x_reduced.shape[-1] != mask.popcount:
        raise DimensionError(
            f"reduced width {x_reduced.shape[-1]} != mask popcount {mask.popcount}"
        )
    out = np.zeros(x_reduced.shape[:-1] + (mask.m,), dtype=np.float64)
    out[..., mask.index] = x_reduced
    return out


def compact_dataset(d: Dataset, mask: VariableMask) -> Dataset:
    """Dataset reduced to the surviving variables."""
    return Dataset(compact(d.x, mask), d.labels, d.num_classes)
