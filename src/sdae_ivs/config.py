"""Experiment configuration: INI parsing and the benchmark hyper-parameter grid.

Configs are plain key-value text with one section per concern so they diff
cleanly and can live next to the runs they produced.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .dae import DaeTrainConfig
from .data import SyntheticSpec
from .errors import ConfigError
from .ivs import IvsConfig
from .mlr import TrainConfig

VARIANT_SDAE = "sdae"
VARIANT_SDAE_IVS = "sdae_ivs"


@dataclass
class ExperimentConfig:
    """Everything a run needs: data source, per-layer plans, seed, output.

    The amat-only fields keep their defaults on synthetic data, whose split
    sizes are synthetic.examples_per_split.
    """

    source: str
    variable_shape: tuple[int, int] | None
    depths: tuple[int, ...]
    variants: tuple[str, ...]
    dae: tuple[DaeTrainConfig, ...]
    ivs: tuple[IvsConfig, ...]
    fine_tune: TrainConfig
    seed: int
    out: Path
    reconstruct_examples: int
    export_patterns: bool
    synthetic: SyntheticSpec | None = None
    amat_train: Path | None = None
    amat_valid: Path | None = None
    amat_test: Path | None = None
    zero_based_labels: bool = True
    train_size: int | None = None
    valid_size: int | None = None
    test_size: int | None = None


SPLIT_SIZES = ("train_size", "valid_size", "test_size")
REQUIRED = "required"


def _choice(**options):
    """Parser of one of the given words, returning the word's value."""
    def parse(text: str):
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return options[text]
    return parse


def _boolean(text: str) -> bool:
    return _choice(**configparser.ConfigParser.BOOLEAN_STATES)(text.lower())


def _ruled(kind, rule: str, holds):
    """Parser of kind(text), which must be finite (else ValueError) and
    satisfy holds (else ConfigError(rule), which _fields names)."""
    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError("must be finite")
        if not holds(value):
            raise ConfigError(rule)
        return value
    return parse


def _at_least(n: int):
    return _ruled(int, f"must be >= {n}", lambda value: value >= n)


_POSITIVE = _ruled(float, "must be > 0", lambda value: value > 0)
_NON_NEGATIVE = _ruled(float, "must be >= 0", lambda value: value >= 0)
_UNIT = _ruled(float, "must lie in [0, 1]", lambda value: 0 <= value <= 1)


def _shape(text: str) -> tuple[int, ...]:
    shape = tuple(int(tok) for tok in text.split())
    if len(shape) != 2 or min(shape) < 1:
        raise ValueError("must be two positive integers H W")
    return shape


MAX_DEPTH = 3


def _depths(text: str) -> tuple[int, ...]:
    depths = tuple(int(tok) for tok in text.split())
    if (not depths or len(set(depths)) < len(depths)
            or not all(1 <= d <= MAX_DEPTH for d in depths)):
        raise ValueError(f"must be distinct integers in 1..{MAX_DEPTH}")
    return depths


_VARIANTS = {"both": (VARIANT_SDAE, VARIANT_SDAE_IVS), "sdae": (VARIANT_SDAE,),
             "sdae-ivs": (VARIANT_SDAE_IVS,), "sdae_ivs": (VARIANT_SDAE_IVS,)}

# section -> INI key -> (field, parser, default or REQUIRED). A default is
# INI text and goes through the parser; None leaves the field None. The
# "data synthetic" and "data amat" keys are read from [data] for that
# source only, and [dae.N] / [ivs.N] override [dae] / [ivs] for layer N.
KEYS = {
    "data": {
        "source": ("source", _choice(synthetic="synthetic", amat="amat"),
                   REQUIRED),
        "shape": ("variable_shape", _shape, None),
    },
    "data synthetic": {
        "relevant": ("num_relevant", _at_least(1), REQUIRED),
        "irrelevant": ("num_irrelevant", _at_least(0), REQUIRED),
        "classes": ("num_classes", _at_least(2), REQUIRED),
        "separation": ("class_separation", _POSITIVE, REQUIRED),
        "feature_noise_sd": ("noise_sd", _NON_NEGATIVE, REQUIRED),
        **{key: (key, _at_least(0), REQUIRED) for key in SPLIT_SIZES},
    },
    "data amat": {
        "train": ("amat_train", Path, REQUIRED),
        "valid": ("amat_valid", Path, None),
        "test": ("amat_test", Path, None),
        "labels": ("zero_based_labels", _choice(zero=True, one=False), "zero"),
        **{key: (key, _at_least(0), "0") for key in SPLIT_SIZES},
    },
    "stack": {
        "depths": ("depths", _depths, "1"),
        "variants": ("variants", _choice(**_VARIANTS), "both"),
    },
    "dae": {
        "hidden_units": ("hidden_units", _at_least(1), REQUIRED),
        "noise_sd": ("noise_sd", _NON_NEGATIVE, REQUIRED),
        "learning_rate": ("learning_rate", _POSITIVE, REQUIRED),
        "epochs": ("epochs", _at_least(0), REQUIRED),
    },
    "ivs": {
        "threshold": ("threshold", _UNIT, REQUIRED),
        "max_iterations": ("max_iterations", _at_least(1), "10"),
        "learning_rate": ("learning_rate", _POSITIVE, REQUIRED),
        "max_epochs": ("max_epochs", _at_least(0), "50"),
        "patience": ("patience", _at_least(1), "5"),
        "minibatch_size": ("minibatch_size", _at_least(1), "1"),
    },
    "finetune": {
        "learning_rate": ("learning_rate", _POSITIVE, REQUIRED),
        "max_epochs": ("max_epochs", _at_least(0), "50"),
        "patience": ("patience", _at_least(1), "5"),
    },
    "run": {
        "seed": ("seed", _at_least(0), "0"),
        "out": ("out", Path, "runs/out"),
        "reconstruct_examples": ("reconstruct_examples", _at_least(0), "0"),
        "export_patterns": ("export_patterns", _boolean, "false"),
    },
}

# table -> INI key -> the published benchmark's candidates, for --paper-grid.
PAPER_GRID = {
    "ivs": {"learning_rate": (0.01, 0.02, 0.05, 0.1),
            "threshold": (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)},
    "dae": {"learning_rate": (0.01, 0.05, 0.1, 0.2),
            "noise_sd": (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4),
            "epochs": (60, 120, 180, 240, 300)},
    "finetune": {"learning_rate": (0.01, 0.05, 0.1, 0.2)},
}


def _fields(parser: configparser.ConfigParser, table: str,
            *sections: str, paper_grid=False) -> dict:
    """{field: value} over every key of KEYS[table], read from the INI
    sections in order, a later section overriding an earlier one, and held
    to PAPER_GRID under paper_grid. Each error names the section and key
    that set the value."""
    grid = PAPER_GRID.get(table, {}) if paper_grid else {}
    found = {}
    for sec in filter(parser.has_section, sections):
        found.update((key, (sec, text)) for key, text in parser[sec].items())
    fields = {}
    for key, (field, parse, default) in KEYS[table].items():
        sec, text = found.get(key, (sections[0], default))
        if key not in found and default is REQUIRED:
            raise ConfigError(f"missing required field [{sec}] {key}")
        try:
            fields[field] = None if text is None else parse(text)
        except ConfigError as exc:
            raise ConfigError(f"[{sec}] {key} {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad value for [{sec}] {key}: {text!r} "
                              f"({exc})") from exc
        if key in grid and not any(math.isclose(fields[field], c, rel_tol=1e-12)
                                   for c in grid[key]):
            raise ConfigError(f"[{sec}] {key} {fields[field]} outside "
                              f"candidate set {grid[key]}")
    return fields


def _synthetic(train_size, valid_size, test_size, **spec) -> SyntheticSpec:
    return SyntheticSpec(**spec, examples_per_split=(train_size, valid_size,
                                                     test_size))


def _selection(threshold, max_iterations, **trainer) -> IvsConfig:
    return IvsConfig(threshold, max_iterations, TrainConfig(**trainer))


def load_config(path, seed_override: int | None = None,
                out_override=None, paper_grid: bool = False) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if parser.defaults():
        # configparser copies [DEFAULT] keys into every section, where
        # most of them would have no effect.
        raise ConfigError(f"{path}: [DEFAULT] sections are not supported")

    data = _fields(parser, "data", "data")
    stack = _fields(parser, "stack", "stack")
    source = f"data {data['source']}"
    layers = range(1, max(stack["depths"]) + 1)
    known = {name: KEYS[name]
             for name in ("stack", "dae", "ivs", "finetune", "run")}
    known.update((f"{name}.{layer}", KEYS[name]) for name in ("dae", "ivs")
                 for layer in layers)
    known["data"] = KEYS["data"].keys() | KEYS[source].keys()
    for sec in parser.sections():
        if sec not in known:
            raise ConfigError(f"section [{sec}] is unknown or deeper than "
                              "every configured depth")
        for key in parser[sec]:
            if key not in known[sec]:
                raise ConfigError(f"unknown key [{sec}] {key}")

    if data["source"] == "synthetic":
        given = {"synthetic": _synthetic(**_fields(parser, source, "data"))}
    else:
        given = _fields(parser, source, "data")
        if given["amat_valid"] is None:
            if given["valid_size"] <= 0:
                raise ConfigError("[data] needs either a valid file or "
                                  "valid_size")
            if given["train_size"] <= 0:
                raise ConfigError("[data] needs train_size when the train "
                                  "file also holds the validation split")
        elif given["amat_test"] is None:
            raise ConfigError("[data] needs a test file when valid is a file")
        elif given["valid_size"]:
            raise ConfigError("[data] valid_size splits the train file, so "
                              "it cannot be set when valid is a file")

    dae = tuple(DaeTrainConfig(**_fields(parser, "dae", "dae", f"dae.{n}",
                                         paper_grid=paper_grid))
                for n in layers)
    ivs = tuple(_selection(**_fields(parser, "ivs", "ivs", f"ivs.{n}",
                                     paper_grid=paper_grid))
                for n in layers)
    run = _fields(parser, "run", "run")
    for key in ("reconstruct_examples", "export_patterns"):
        if run[key] and data["variable_shape"] is None:
            raise ConfigError(f"[run] {key} needs [data] shape to draw images")
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError("--seed must be a non-negative integer")
        run["seed"] = seed_override
    if out_override is not None:
        run["out"] = Path(out_override)
    return ExperimentConfig(
        **data, **stack, **run, **given, dae=dae, ivs=ivs,
        fine_tune=TrainConfig(**_fields(parser, "finetune", "finetune",
                                        paper_grid=paper_grid)),
    )


def config_echo(cfg: ExperimentConfig) -> dict:
    """JSON-ready snapshot of the resolved configuration under its field
    names. The output directory is left out, so runs into two directories
    report alike, and so are the amat split sizes on synthetic data, which
    keeps its sizes in synthetic.examples_per_split."""
    echo = asdict(cfg)
    del echo["out"]
    if cfg.synthetic is not None:
        for key in SPLIT_SIZES:
            del echo[key]
    # The JSON round trip turns tuples into lists and paths into strings.
    return json.loads(json.dumps(echo, default=str))
