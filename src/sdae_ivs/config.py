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

from .dae import CROSS_ENTROPY, SIGMOID, DaeTrainConfig
from .data import SyntheticSpec
from .errors import ConfigError
from .ivs import IvsConfig
from .mlr import TrainConfig
from .stack import MAX_DEPTH

# Validation-set candidate grids used by the published benchmark protocol.
GRID_PRECLASSIFIER_LR = (0.01, 0.02, 0.05, 0.1)
GRID_TRAIN_LR = (0.01, 0.05, 0.1, 0.2)
GRID_THRESHOLD = (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
GRID_NOISE_SD = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
GRID_EPOCHS = (60, 120, 180, 240, 300)

VARIANT_SDAE = "sdae"
VARIANT_SDAE_IVS = "sdae_ivs"


@dataclass
class ExperimentConfig:
    """Everything a run needs: data source, per-layer plans, seed, output."""

    source: str
    synthetic: SyntheticSpec | None
    amat_train: Path | None
    amat_valid: Path | None
    amat_test: Path | None
    zero_based_labels: bool
    train_size: int
    valid_size: int
    test_size: int
    variable_shape: tuple[int, int] | None
    depths: tuple[int, ...]
    variants: tuple[str, ...]
    dae: tuple[DaeTrainConfig, ...]
    ivs: tuple[IvsConfig, ...]
    fine_tune: TrainConfig
    final_ivs: bool
    seed: int
    out: Path
    reconstruct_examples: int
    export_patterns: bool


class _Section:
    """Typed accessors over one INI section, optionally overlaid by a
    per-layer override section such as [dae.2], with field-naming errors.

    Every section opened and every key looked up is added to `reads`, so
    load_config can reject whatever it never read.
    """

    def __init__(self, parser: configparser.ConfigParser, name: str,
                 reads: set, override: str | None = None):
        self.reads = reads
        self.values = {}
        for sec in (name, override):
            if sec is not None and parser.has_section(sec):
                reads.add((sec, None))
                self.values.update((key, (text, sec))
                                   for key, text in parser[sec].items())
        self.name = (f"{name}/{override}" if override is not None
                     and parser.has_section(override) else name)

    def has(self, key: str) -> bool:
        return key in self.values

    def raw(self, key: str, default=None, required: bool = False):
        if key in self.values:
            text, sec = self.values[key]
            self.reads.add((sec, key))
            return text
        if required:
            raise ConfigError(f"missing required field [{self.name}] {key}")
        return default

    def _typed(self, key: str, cast, default, required):
        text = self.raw(key, None, required)
        if text is None:
            return default
        try:
            return cast(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{self.name}] {key}: {text!r}") from exc

    def integer(self, key, default=None, required=False):
        return self._typed(key, int, default, required)

    def real(self, key, default=None, required=False):
        return self._typed(key, float, default, required)

    def boolean(self, key, default=None, required=False):
        text = self.raw(key, None, required)
        if text is None:
            return default
        lowered = text.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for [{self.name}] {key}: {text!r}")

    def text(self, key, default=None, required=False):
        return self.raw(key, default, required)


def _parse_shape(section: _Section) -> tuple[int, int] | None:
    text = section.text("shape")
    if text is None:
        return None
    parts = text.split()
    if len(parts) != 2:
        raise ConfigError(f"[{section.name}] shape must be two integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_dae(parser, layer: int, reads: set) -> DaeTrainConfig:
    s = _Section(parser, "dae", reads, f"dae.{layer}")
    return DaeTrainConfig(
        hidden_units=s.integer("hidden_units", required=True),
        noise_sd=s.real("noise_sd", required=True),
        learning_rate=s.real("learning_rate", required=True),
        epochs=s.integer("epochs", required=True),
        loss_kind=s.text("loss", CROSS_ENTROPY),
        decoder_activation=s.text("decoder", SIGMOID),
    )


def _parse_train(s: _Section, **batching) -> TrainConfig:
    return TrainConfig(
        learning_rate=s.real("learning_rate", required=True),
        max_epochs=s.integer("max_epochs", 50),
        patience=s.integer("patience", 5),
        **batching,
    )


def _parse_ivs(parser, layer: int, reads: set) -> IvsConfig:
    s = _Section(parser, "ivs", reads, f"ivs.{layer}")
    return IvsConfig(
        threshold=s.real("threshold", required=True),
        max_iterations=s.integer("max_iterations", 10),
        mlr=_parse_train(s, minibatch_size=s.integer("minibatch_size", 1),
                         l2=s.real("l2", 0.0)),
    )


def _reject_unread(parser: configparser.ConfigParser, reads: set) -> None:
    """A section or key the loader never read would have no effect."""
    for sec in parser.sections():
        if (sec, None) not in reads:
            raise ConfigError(f"section [{sec}] is unknown or deeper than "
                              "every configured depth")
        for key in parser[sec]:
            if (sec, key) not in reads:
                raise ConfigError(f"unknown key [{sec}] {key}")


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

    reads: set = set()
    data = _Section(parser, "data", reads)
    source = data.text("source", required=True)
    synthetic = None
    amat_train = amat_valid = amat_test = None
    zero_based_labels = True
    train_size, valid_size, test_size = (
        data.integer(key, 0, required=source == "synthetic")
        for key in ("train_size", "valid_size", "test_size"))

    if source == "synthetic":
        synthetic = SyntheticSpec(
            num_relevant=data.integer("relevant", required=True),
            num_irrelevant=data.integer("irrelevant", required=True),
            num_classes=data.integer("classes", required=True),
            class_separation=data.real("separation", required=True),
            noise_sd=data.real("feature_noise_sd", required=True),
            examples_per_split=(train_size, valid_size, test_size),
        )
    elif source == "amat":
        amat_train = Path(data.text("train", required=True))
        if data.has("valid"):
            amat_valid = Path(data.text("valid"))
        if data.has("test"):
            amat_test = Path(data.text("test"))
        if amat_valid is None and valid_size <= 0:
            raise ConfigError("[data] needs either a valid file or valid_size")
        if amat_valid is None and train_size <= 0:
            raise ConfigError("[data] needs train_size when the train file "
                              "also holds the validation split")
        if amat_valid is not None and amat_test is None:
            raise ConfigError("[data] needs a test file when valid is a file")
        labels = data.text("labels", "zero")
        if labels not in ("zero", "one"):
            raise ConfigError(f"[data] labels must be zero or one, got {labels!r}")
        zero_based_labels = labels == "zero"
    else:
        raise ConfigError(f"[data] source must be synthetic or amat, got {source!r}")

    stack = _Section(parser, "stack", reads)
    depth_text = stack.text("depths", "1")
    try:
        depths = tuple(int(tok) for tok in depth_text.split())
    except ValueError:
        raise ConfigError(f"[stack] depths must be integers, got {depth_text!r}")
    if not depths or any(not 1 <= d <= MAX_DEPTH for d in depths):
        raise ConfigError(f"[stack] depths must lie in 1..{MAX_DEPTH}")

    variant_text = stack.text("variants", "both")
    if variant_text == "both":
        variants = (VARIANT_SDAE, VARIANT_SDAE_IVS)
    elif variant_text in (VARIANT_SDAE, "sdae-ivs", VARIANT_SDAE_IVS):
        variants = (VARIANT_SDAE_IVS if "ivs" in variant_text else VARIANT_SDAE,)
    else:
        raise ConfigError("[stack] variants must be both, sdae, or sdae-ivs")

    layers = range(1, max(depths) + 1)
    dae_cfgs = tuple(_parse_dae(parser, layer, reads) for layer in layers)
    ivs_cfgs = tuple(_parse_ivs(parser, layer, reads) for layer in layers)
    fine_tune = _parse_train(_Section(parser, "finetune", reads))

    run = _Section(parser, "run", reads)
    seed = run.integer("seed", 0)
    out = Path(run.text("out", "runs/out"))
    if seed_override is not None:
        seed = seed_override
    if out_override is not None:
        out = Path(out_override)

    cfg = ExperimentConfig(
        source=source,
        synthetic=synthetic,
        amat_train=amat_train,
        amat_valid=amat_valid,
        amat_test=amat_test,
        zero_based_labels=zero_based_labels,
        train_size=train_size,
        valid_size=valid_size,
        test_size=test_size,
        variable_shape=_parse_shape(data),
        depths=depths,
        variants=variants,
        dae=dae_cfgs,
        ivs=ivs_cfgs,
        fine_tune=fine_tune,
        final_ivs=stack.boolean("final_ivs", False),
        seed=seed,
        out=out,
        reconstruct_examples=run.integer("reconstruct_examples", 0),
        export_patterns=run.boolean("export_patterns", False),
    )
    _reject_unread(parser, reads)
    if paper_grid:
        validate_paper_grid(cfg)
    return cfg


def _in_grid(value, grid) -> bool:
    return any(math.isclose(value, item, rel_tol=1e-12) for item in grid)


def validate_paper_grid(cfg: ExperimentConfig) -> None:
    """Reject hyper-parameters outside the benchmark candidate sets."""
    rows = []
    for i, c in enumerate(cfg.ivs, start=1):
        rows += [(f"[ivs] layer {i} learning_rate", c.mlr.learning_rate,
                  GRID_PRECLASSIFIER_LR),
                 (f"[ivs] layer {i} threshold", c.threshold, GRID_THRESHOLD)]
    for i, c in enumerate(cfg.dae, start=1):
        rows += [(f"[dae] layer {i} learning_rate", c.learning_rate,
                  GRID_TRAIN_LR),
                 (f"[dae] layer {i} noise_sd", c.noise_sd, GRID_NOISE_SD),
                 (f"[dae] layer {i} epochs", c.epochs, GRID_EPOCHS)]
    rows.append(("[finetune] learning_rate", cfg.fine_tune.learning_rate,
                 GRID_TRAIN_LR))
    for name, value, grid in rows:
        if not _in_grid(value, grid):
            raise ConfigError(f"{name} {value} outside candidate set {grid}")


def config_echo(cfg: ExperimentConfig) -> dict:
    """JSON-ready snapshot of the resolved configuration under its field
    names. The output directory is left out, so runs into two directories
    report alike."""
    echo = asdict(cfg)
    del echo["out"]
    # The JSON round trip turns tuples into lists and paths into strings.
    return json.loads(json.dumps(echo, default=str))
