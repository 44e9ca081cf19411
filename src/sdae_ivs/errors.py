"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
anything else -> 3.
"""


class ConfigError(ValueError):
    """Invalid or missing experiment configuration."""


class DataError(ValueError):
    """Dataset file cannot be parsed or violates the value domain."""


class DimensionError(ValueError):
    """Vector/matrix widths do not line up."""


class DivergenceError(RuntimeError):
    """Training left its parameters non-finite; the message names the fit's
    phase (and its layer, if any) and the epoch."""
