"""Stacked pipeline: per-layer selection + denoising pre-training, a top
classifier, supervised fine-tuning, and the analyses built on top of it.

Each layer masks its input representation (selection), trains a tied-weight
auto-encoder on the surviving variables only, and hands its codes upward.
Dropped variables are removed structurally by compaction, so they cost no
parameters and cannot re-enter during fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dae import DaeModel, DaeTrainConfig, decode, encode, train_dae, encode_dataset
from .data import Dataset, VariableMask, compact, compact_dataset, expand
from .errors import ConfigError, DataError, DimensionError
from .ivs import IvsConfig, IvsResult, run_ivs
from .mlr import MlrModel, TrainConfig, train_mlr
from .numerics import Rng, log_softmax, make_rng, sigmoid, softmax


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

    depth: int
    dae: tuple[DaeTrainConfig, ...]
    ivs: tuple[IvsConfig, ...]
    fine_tune: TrainConfig
    ivs_enabled: bool = True
    final_ivs: bool = False

    def __post_init__(self):
        if not 1 <= self.depth <= 3:
            raise ConfigError("depth must be 1, 2, or 3")
        if len(self.dae) != self.depth:
            raise ConfigError("need one DAE config per layer")
        if (self.ivs_enabled or self.final_ivs) and len(self.ivs) != self.depth:
            raise ConfigError("need one selection config per layer")


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
        if cfg.ivs_enabled:
            result = run_ivs(cur_train, cur_valid, cfg.ivs[idx], rng.spawn(1)[0])
            mask = result.mask
        else:
            result = None
            mask = VariableMask.all_ones(cur_train.m)
        ivs_results.append(result)

        compact_train = compact_dataset(cur_train, mask)
        compact_valid = compact_dataset(cur_valid, mask)
        dae_model = train_dae(compact_train, cfg.dae[idx], rng.spawn(1)[0])
        layers.append(StackLayer(mask, dae_model))

        cur_train = encode_dataset(dae_model, compact_train)
        cur_valid = encode_dataset(dae_model, compact_valid)

    top_mask = VariableMask.all_ones(cur_train.m)
    if cfg.final_ivs:
        final = run_ivs(cur_train, cur_valid, cfg.ivs[-1], rng.spawn(1)[0])
        top_mask = final.mask
        ivs_results.append(final)

    top_cfg = replace(cfg.fine_tune, seed=_spawned_seed(rng))
    top = train_mlr(compact_dataset(cur_train, top_mask),
                    compact_dataset(cur_valid, top_mask), top_cfg)

    model = StackModel(layers, top, top_mask, fine_tuned=False)
    model.check_widths()
    return model, ivs_results


def _forward(m: StackModel, x: np.ndarray):
    """Per-example forward pass keeping the per-layer tensors for backprop."""
    inputs = []
    codes = []
    cur = np.asarray(x, dtype=np.float64)
    for layer in m.layers:
        c = compact(cur, layer.mask)
        inputs.append(c)
        h = sigmoid(layer.dae.weights @ c + layer.dae.encoder_bias)
        codes.append(h)
        cur = h
    top_in = cur[m.top_mask.bits]
    logits = m.top.weights @ top_in + m.top.biases
    return inputs, codes, top_in, logits


def classification_loss_and_grads(m: StackModel, x: np.ndarray, label: int):
    """Cross-entropy of the stack's prediction and gradients for every
    trainable parameter: (loss, [(d_weights, d_encoder_bias) per layer],
    (d_top_weights, d_top_biases)).

    Decoder biases take no gradient; they are not part of the classifier.
    """
    inputs, codes, top_in, logits = _forward(m, x)
    loss = -float(log_softmax(logits)[label - 1])

    g = softmax(logits)
    g[label - 1] -= 1.0
    grad_top_w = np.outer(g, top_in)
    grad_top_b = g

    delta = expand(m.top.weights.T @ g, m.top_mask)

    layer_grads = [None] * len(m.layers)
    for idx in range(len(m.layers) - 1, -1, -1):
        h = codes[idx]
        da = delta * h * (1.0 - h)
        layer_grads[idx] = (np.outer(da, inputs[idx]), da)
        if idx > 0:
            delta = expand(m.layers[idx].dae.weights.T @ da, m.layers[idx].mask)

    return loss, layer_grads, (grad_top_w, grad_top_b)


def _transform_matrix(m: StackModel, x: np.ndarray, depth: int | None = None) -> np.ndarray:
    depth = len(m.layers) if depth is None else depth
    cur = np.asarray(x, dtype=np.float64)
    for layer in m.layers[:depth]:
        cur = encode(layer.dae, cur[..., layer.mask.bits])
    return cur


def transform(m: StackModel, d: Dataset, depth: int | None = None) -> Dataset:
    """Dataset of layer-`depth` codes (defaults to the full stack)."""
    return Dataset(_transform_matrix(m, d.x, depth), d.labels, d.num_classes, None)


def predict_labels(m: StackModel, x: np.ndarray) -> np.ndarray:
    """Vectorized stack prediction; ties resolve to the lowest class index."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    cur = _transform_matrix(m, x)[:, m.top_mask.bits]
    logits = cur @ m.top.weights.T + m.top.biases
    return np.argmax(logits, axis=1) + 1


def _copy_params(m: StackModel):
    return ([(l.dae.weights.copy(), l.dae.encoder_bias.copy()) for l in m.layers],
            (m.top.weights.copy(), m.top.biases.copy()))


def _stack_error(m: StackModel, d: Dataset) -> float:
    return float(np.mean(predict_labels(m, d.x) != d.labels))


def fine_tune(m: StackModel, train: Dataset, valid: Dataset,
              cfg: TrainConfig) -> StackModel:
    """Supervised backpropagation through the top layer and all encoders.

    Masks are frozen: compaction is structural, so dropped variables and
    dropped top-layer codes can never re-enter. Early stopping mirrors the
    MLR trainer (best validation snapshot, ties to the earlier epoch); with
    max_epochs = 0 the returned model carries the input parameters
    unchanged.
    """
    if train.n == 0:
        raise DataError("cannot fine-tune on an empty dataset")
    if valid.n == 0:
        raise DataError("early stopping needs a non-empty validation set")

    work = StackModel(
        [StackLayer(l.mask, DaeModel(l.dae.weights.copy(),
                                     l.dae.encoder_bias.copy(),
                                     l.dae.decoder_bias.copy(),
                                     l.dae.decoder_activation))
         for l in m.layers],
        MlrModel(m.top.weights.copy(), m.top.biases.copy()),
        m.top_mask,
        m.fine_tuned,
    )
    lr = cfg.learning_rate
    rng = make_rng(cfg.seed)

    best_err = _stack_error(work, valid)
    best = _copy_params(work)
    since_improvement = 0

    for _ in range(cfg.max_epochs):
        order = rng.permutation(train.n)
        for idx in order:
            _, layer_grads, (gtw, gtb) = classification_loss_and_grads(
                work, train.x[idx], int(train.labels[idx]))
            for layer, (gw, gb) in zip(work.layers, layer_grads):
                layer.dae.weights -= lr * gw
                layer.dae.encoder_bias -= lr * gb
            work.top.weights -= lr * gtw
            work.top.biases -= lr * gtb

        err = _stack_error(work, valid)
        if err < best_err:
            best_err = err
            best = _copy_params(work)
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= cfg.patience:
                break

    layer_params, (top_w, top_b) = best
    tuned = StackModel(
        [StackLayer(l.mask, DaeModel(w, be, l.dae.decoder_bias.copy(),
                                     l.dae.decoder_activation))
         for l, (w, be) in zip(m.layers, layer_params)],
        MlrModel(top_w, top_b),
        m.top_mask,
        fine_tuned=True,
    )
    tuned.check_widths()
    return tuned


def reconstruct_through(m: StackModel, x: np.ndarray, depth: int) -> np.ndarray:
    """Encode up through `depth` layers, then decode back to raw width.

    Every decode step expands through that layer's mask, writing zeros at
    the dropped positions, so the result always has the raw input width.
    """
    if not 1 <= depth <= len(m.layers):
        raise DimensionError(f"depth must lie in 1..{len(m.layers)}")
    cur = np.asarray(x, dtype=np.float64)
    for layer in m.layers[:depth]:
        cur = encode(layer.dae, compact(cur, layer.mask))

    for idx in range(depth - 1, -1, -1):
        layer = m.layers[idx]
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
