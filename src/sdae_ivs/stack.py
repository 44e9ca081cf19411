"""Stacked pipeline: per-layer selection + denoising pre-training, a top
classifier, supervised fine-tuning, and the analyses built on top of it.

Each layer masks its input representation (selection), trains a tied-weight
auto-encoder on the surviving variables only, and hands its codes upward.
Dropped variables are removed structurally by compaction, so they cost no
parameters and cannot re-enter during fine-tuning.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .dae import DaeModel, DaeTrainConfig, decode, encode, train_dae, encode_dataset
from .data import Dataset, VariableMask, compact, compact_dataset, expand
from .errors import ConfigError, DataError, DimensionError, DivergenceError
from .ivs import IvsConfig, IvsResult, run_ivs
from .mlr import MlrModel, TrainConfig, output_delta, train_mlr
from .mlr import predict_labels as mlr_predict_labels
from .numerics import Rng, make_rng, sgd

MAX_DEPTH = 3


@dataclass
class StackLayer:
    """One pre-trained layer: the mask over its input space and its DAE."""

    mask: VariableMask
    dae: DaeModel


@dataclass
class StackModel:
    """Pre-trained layers, then the top classifier on the last codes kept by
    top_mask. Constructed without one, the mask keeps every code."""

    layers: list[StackLayer]
    top: MlrModel
    top_mask: VariableMask | None = None
    fine_tuned: bool = False

    def __post_init__(self):
        if self.top_mask is None:
            width = self.layers[-1].dae.hidden_units if self.layers else self.top.m
            self.top_mask = VariableMask.all_ones(width)

    def check_widths(self) -> None:
        """Chained-width invariant: every mask, DAE, and the top line up."""
        for idx, layer in enumerate(self.layers):
            if layer.dae.input_width != layer.mask.popcount:
                raise DimensionError(f"layer {idx + 1} width != mask popcount")
            if idx > 0 and layer.mask.m != self.layers[idx - 1].dae.hidden_units:
                raise DimensionError(f"layer {idx + 1} mask length != lower width")
        if self.layers and self.top_mask.m != self.layers[-1].dae.hidden_units:
            raise DimensionError("top mask length != last hidden width")
        if self.top.m != self.top_mask.popcount:
            raise DimensionError("top classifier width != top mask popcount")

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class StackConfig:
    """Per-layer training plans plus the supervised phase.

    ivs_enabled=False turns the pipeline into the plain-SDAE baseline
    (all-ones masks, identity compaction). final_ivs additionally selects
    hidden units between the last layer and the top classifier; off by
    default because selection belongs to the auto-encoder layers.
    """

    dae: tuple[DaeTrainConfig, ...]
    ivs: tuple[IvsConfig, ...]
    fine_tune: TrainConfig
    ivs_enabled: bool = True
    final_ivs: bool = False

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"depth must lie in 1..{MAX_DEPTH}")
        if (self.ivs_enabled or self.final_ivs) and len(self.ivs) != self.depth:
            raise ConfigError("need one selection config per layer")

    @property
    def depth(self) -> int:
        """Number of layers: one per DAE config."""
        return len(self.dae)


def _spawned_seed(rng: Rng) -> int:
    return int(rng.spawn(1)[0].integers(0, 2**63))


def pretrain(train: Dataset, valid: Dataset, cfg: StackConfig, rng: Rng
             ) -> tuple[StackModel, list[IvsResult | None]]:
    """Greedy layer-wise pre-training with per-layer variable selection.

    For each layer: select on the current representation (or keep all
    variables when disabled), compact both splits, train the DAE on the
    survivors, and encode to obtain the next representation. Finally a top
    MLR is trained on the last representation, compacted by the final
    selection when that is on. Returns the model and the selection results
    (one per layer, None where selection is off, then the final one). Each
    phase draws randomness from its own spawned child stream, so adding
    depth never perturbs the layers below.
    """
    cur_train, cur_valid = train, valid
    layers: list[StackLayer] = []
    ivs_results: list[IvsResult | None] = []

    for idx in range(cfg.depth):
        try:
            if cfg.ivs_enabled:
                result = run_ivs(cur_train, cur_valid, cfg.ivs[idx],
                                 rng.spawn(1)[0])
                mask = result.mask
            else:
                result = None
                mask = VariableMask.all_ones(cur_train.m)
            compact_train = compact_dataset(cur_train, mask)
            compact_valid = compact_dataset(cur_valid, mask)
            dae_model = train_dae(compact_train, cfg.dae[idx], rng.spawn(1)[0])
        except DivergenceError as exc:
            raise DivergenceError(f"layer {idx + 1}: {exc}") from exc
        ivs_results.append(result)
        layers.append(StackLayer(mask, dae_model))

        cur_train = encode_dataset(dae_model, compact_train)
        cur_valid = encode_dataset(dae_model, compact_valid)

    top_mask = VariableMask.all_ones(cur_train.m)
    if cfg.final_ivs:
        final = run_ivs(cur_train, cur_valid, cfg.ivs[-1], rng.spawn(1)[0])
        top_mask = final.mask
        ivs_results.append(final)

    top = train_mlr(compact_dataset(cur_train, top_mask),
                    compact_dataset(cur_valid, top_mask), cfg.fine_tune,
                    make_rng(_spawned_seed(rng)))

    model = StackModel(layers, top, top_mask, fine_tuned=False)
    model.check_widths()
    return model, ivs_results


def _forward(m: StackModel, x: np.ndarray, depth: int | None = None,
             trace: list | None = None) -> np.ndarray:
    """Codes of a batch of rows (or one row) after the first `depth` layers,
    all by default. A trace list receives each layer's (compacted input,
    codes) for backpropagation; without one, only the current layer's
    tensors are alive at a time."""
    cur = np.asarray(x, dtype=np.float64)
    for layer in m.layers[:depth]:
        c = compact(cur, layer.mask)
        cur = encode(layer.dae, c)
        if trace is not None:
            trace.append((c, cur))
    return cur


def fine_tune_params(m: StackModel) -> list[np.ndarray]:
    """The arrays fine-tuning steps, in the order classification_grads
    returns their gradients: each layer's weights and encoder bias, then
    the top classifier's weights and biases. Decoder biases are not part
    of the classifier and take no gradient."""
    return [p for l in m.layers for p in (l.dae.weights, l.dae.encoder_bias)] \
        + [m.top.weights, m.top.biases]


def classification_grads(m: StackModel, x: np.ndarray, labels: np.ndarray):
    """Batch-mean gradients of the stack's cross-entropy over (B, M) rows x
    with 1-based labels, one per array of fine_tune_params(m)."""
    trace = []
    top_in = compact(_forward(m, x, trace=trace), m.top_mask)
    g = output_delta(m.top.weights, m.top.biases, top_in, labels)
    gradients = [g.T.dot(top_in), g.sum(axis=0)]

    delta = expand(g @ m.top.weights, m.top_mask)
    for idx in range(len(m.layers) - 1, -1, -1):
        c, h = trace[idx]
        da = delta * h * (1.0 - h)
        gradients[:0] = [da.T.dot(c), da.sum(axis=0)]
        if idx > 0:
            delta = expand(da @ m.layers[idx].dae.weights, m.layers[idx].mask)
    return gradients


def transform(m: StackModel, d: Dataset, depth: int | None = None) -> Dataset:
    """Dataset of layer-`depth` codes (defaults to the full stack)."""
    return Dataset(_forward(m, d.x, depth), d.labels, d.num_classes, None)


def predict_labels(m: StackModel, x: np.ndarray) -> np.ndarray:
    """Vectorized stack prediction; ties resolve to the lowest class index."""
    return mlr_predict_labels(m.top, compact(_forward(m, x), m.top_mask))


def fine_tune(m: StackModel, train: Dataset, valid: Dataset,
              cfg: TrainConfig, rng: Rng) -> StackModel:
    """Supervised backpropagation through the top layer and all encoders.

    Masks are frozen: compaction is structural, so dropped variables and
    dropped top-layer codes can never re-enter. Early stopping mirrors the
    MLR trainer (best validation snapshot, ties to the earlier epoch); with
    max_epochs = 0 the returned model carries the input parameters
    unchanged. rng shuffles the examples. Parameters that stop being
    finite raise DivergenceError at the end of that epoch. The input model
    is left untouched.
    """
    if train.n == 0:
        raise DataError("cannot fine-tune on an empty dataset")
    if valid.n == 0:
        raise DataError("early stopping needs a non-empty validation set")

    tuned = copy.deepcopy(m)
    tuned.fine_tuned = True
    sgd("fine-tuning", fine_tune_params(tuned),
        lambda xb, yb: classification_grads(tuned, xb, yb),
        cfg.learning_rate, (train.x, train.labels), cfg.max_epochs, rng,
        score=lambda: float(np.mean(predict_labels(tuned, valid.x)
                                    != valid.labels)),
        patience=cfg.patience)
    tuned.check_widths()
    return tuned


def reconstruct_through(m: StackModel, x: np.ndarray, depth: int) -> np.ndarray:
    """Encode one row or a batch of rows up through `depth` layers, then
    decode back to raw width.

    Every decode step expands through that layer's mask, writing zeros at
    the dropped positions, so the result always has the raw input width.
    """
    if not 1 <= depth <= len(m.layers):
        raise DimensionError(f"depth must lie in 1..{len(m.layers)}")
    cur = _forward(m, x, depth)
    for layer in reversed(m.layers[:depth]):
        cur = expand(decode(layer.dae, cur), layer.mask)
    return cur


@dataclass
class ExtractorReport:
    """Hidden units of one layer split into task-relevant and -irrelevant."""

    count: int
    mask: VariableMask
    relevant_patterns: np.ndarray
    irrelevant_patterns: np.ndarray
    ivs: IvsResult


def select_extractors(m: StackModel, layer: int, train: Dataset, valid: Dataset,
                      ivs_cfg: IvsConfig, rng: Rng) -> ExtractorReport:
    """Run selection on layer `layer`'s hidden representation.

    The surviving count is the number of task-relevant feature extractors.
    Weight rows are partitioned by the resulting mask and expanded through
    the layer's input mask so patterns render at that layer's input width.
    """
    if not 1 <= layer <= len(m.layers):
        raise DimensionError(f"layer must lie in 1..{len(m.layers)}")
    rep_train = transform(m, train, layer)
    rep_valid = transform(m, valid, layer)
    result = run_ivs(rep_train, rep_valid, ivs_cfg, rng)

    stack_layer = m.layers[layer - 1]
    patterns = expand(stack_layer.dae.weights, stack_layer.mask)
    keep = result.mask.bits
    return ExtractorReport(
        count=result.mask.popcount,
        mask=result.mask,
        relevant_patterns=patterns[keep],
        irrelevant_patterns=patterns[~keep],
        ivs=result,
    )
