"""Binary PGM (P5) export for importance maps, patterns, reconstructions.

Values in [0, 1] map linearly onto 0..255; 1 renders white, 0 black.
"""

from __future__ import annotations

import numpy as np


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D array with entries in [0, 1] as an 8-bit P5 file."""
    if image.ndim != 2:
        raise ValueError("PGM export needs a 2-D image")
    h, w = image.shape
    levels = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def normalize_unit(values: np.ndarray) -> np.ndarray:
    """Min-max rescale into [0, 1]; a constant array maps to 0.5."""
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


# Pixels between tiles, and their value.
_GAP, _GAP_VALUE = 1, 0.5


def tile_grid(tiles: np.ndarray, shape: tuple[int, int], columns: int
              ) -> np.ndarray:
    """Lay out the rows of the matrix tiles as (h, w) images in a grid of
    `columns` columns, one mid-grey pixel apart."""
    if tiles.ndim != 2:
        raise ValueError("tiles must be a matrix of flattened images")
    h, w = shape
    if tiles.shape[1] != h * w:
        raise ValueError("tile width does not match the image shape")
    n = tiles.shape[0]
    rows = max(1, -(-n // columns))
    grid = np.full((rows * h + _GAP * (rows - 1),
                    columns * w + _GAP * (columns - 1)), _GAP_VALUE)
    for i in range(n):
        r, c = divmod(i, columns)
        grid[r * (h + _GAP): r * (h + _GAP) + h,
             c * (w + _GAP): c * (w + _GAP) + w] = tiles[i].reshape(h, w)
    return grid
