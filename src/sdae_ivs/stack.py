"""Stacked pipeline: per-layer selection + denoising pre-training, a top
classifier, supervised fine-tuning, and the analyses built on top of it.

Each layer masks its input representation (selection), trains a tied-weight
auto-encoder on the surviving variables only, and hands its codes upward.
Dropped variables are removed structurally by compaction, so they cost no
parameters and cannot re-enter during fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dae import (DaeModel, DaeTrainConfig, decode, encode, encode_dataset,
                  sigmoid_backward, sigmoid_layer, train_dae)
from .data import Dataset, VariableMask, compact, expand
from .errors import DimensionError
from .ivs import IvsConfig, IvsResult, run_ivs
from .mlr import (MlrModel, TrainConfig, evaluate, one_hot, output_delta,
                  train_mlr)
from .mlr import predict_labels as mlr_predict_labels
from .numerics import (DAE, IVS, TOP, Rng, delta_rows, derive_rng, map_blocks,
                       pack, sgd, sum_rows)

# The networks' dtype: layer 1's DAE reads its rows rounded to it, and every
# layer above, the top classifier and fine-tuning follow. It halves the bytes
# of the passes that bound a batch-1 step. Layer 1's selection keeps the
# loaded float64 rows: its stop rule reacts to validation noise.
NETWORK = np.float32


@dataclass
class StackLayer:
    """One pre-trained layer: the mask over its input space and its DAE."""

    mask: VariableMask
    dae: DaeModel


@dataclass
class StackModel:
    """Pre-trained layers, then the top classifier on the last codes."""

    layers: list[StackLayer]
    top: MlrModel
    fine_tuned: bool = False

    def __post_init__(self):
        """Chained-width invariant: every mask, DAE, and the top line up."""
        for idx, layer in enumerate(self.layers):
            if layer.dae.input_width != layer.mask.popcount:
                raise DimensionError(f"layer {idx + 1} width != mask popcount")
            if idx > 0 and layer.mask.m != self.layers[idx - 1].dae.hidden_units:
                raise DimensionError(f"layer {idx + 1} mask length != lower width")
        if self.layers and self.top.m != self.layers[-1].dae.hidden_units:
            raise DimensionError("top classifier width != last hidden width")

    @property
    def depth(self) -> int:
        return len(self.layers)


def pretrain(train: Dataset, valid: Dataset, dae: tuple[DaeTrainConfig, ...],
             ivs: tuple[IvsConfig, ...], top: TrainConfig, seed: int,
             depths: tuple[int, ...]
             ) -> tuple[dict[int, StackModel], list[IvsResult]]:
    """Greedy layer-wise pre-training with per-layer variable selection.

    dae holds one DAE plan per layer, and ivs one selection plan per layer
    or () for plain SDAE (all-ones masks). For each layer: select on the
    current representation, compact both splits into NETWORK, train the
    DAE on the survivors, and encode to obtain the next representation.
    Right after layer d, for each requested depth d, a top MLR is trained
    on its codes by the plan top. Returns the depth-d stacks by d, and the
    selection results (one per layer, none when selection is off).

    Layer k's selection and DAE draw from the streams (seed, k, IVS) and
    (seed, k, DAE), the depth-d top MLR from (seed, d, TOP). Layer k
    depends on the layers below it alone, so the depth-d stack is the one
    a pass over the first d plans gives.
    """
    if not all(1 <= d <= len(dae) for d in depths):
        raise DimensionError(f"depths must lie in 1..{len(dae)}")
    cur_train, cur_valid = train, valid
    layers: list[StackLayer] = []
    ivs_results: list[IvsResult] = []
    stacks: dict[int, StackModel] = {}

    for layer, dae_cfg in enumerate(dae, start=1):
        if ivs:
            ivs_results.append(run_ivs(
                cur_train, cur_valid, ivs[layer - 1], derive_rng(seed, layer, IVS),
                phase=f"layer {layer}: MLR training"))
            mask = ivs_results[-1].mask
        else:
            mask = VariableMask.all_ones(cur_train.m)
        compact_train, compact_valid = (
            Dataset(compact(d.x, mask).astype(NETWORK, copy=False), d.labels,
                    d.num_classes) for d in (cur_train, cur_valid))
        dae_model = train_dae(compact_train, dae_cfg,
                              derive_rng(seed, layer, DAE),
                              phase=f"layer {layer}: DAE pre-training")
        layers.append(StackLayer(mask, dae_model))

        cur_train = encode_dataset(dae_model, compact_train)
        cur_valid = encode_dataset(dae_model, compact_valid)
        if layer in depths:
            stacks[layer] = StackModel(layers[:], train_mlr(
                cur_train, cur_valid, top, derive_rng(seed, layer, TOP),
                phase=f"depth {layer} top MLR"))
    return stacks, ivs_results


def _forward(m: StackModel, x: np.ndarray, depth: int | None = None
             ) -> np.ndarray:
    """Codes of the (N, M) raw rows x after the first `depth` layers, all
    by default: each layer encodes its input as its DAE reads it. A block
    of rows goes through every layer before the next block (see
    numerics.map_blocks), so only the last layer's codes are whole."""
    if x.ndim != 2:
        raise DimensionError(f"rows must form an (N, M) matrix, not shape {x.shape}")

    def chain(cur):
        for layer in m.layers[:depth]:
            cur = encode(layer.dae, _dae_rows(cur, layer))
        return cur
    return map_blocks(chain, x)


def _dae_rows(x: np.ndarray, layer: StackLayer) -> np.ndarray:
    """x compacted through layer's mask, in the dtype of its DAE."""
    return compact(x, layer.mask).astype(layer.dae.weights.dtype, copy=False)


def fine_tune_params(m: StackModel) -> list[np.ndarray]:
    """The arrays fine-tuning steps, in the order of its flat parameter and
    gradient buffers: each layer's weights and encoder bias, then the top
    classifier's weights and biases. Decoder biases are not part of the
    classifier and take no gradient."""
    return [p for l in m.layers for p in (l.dae.weights, l.dae.encoder_bias)] \
        + [m.top.weights, m.top.biases]


def gradient(m: StackModel, batch: int):
    """The step of fine_tune over batches of at most `batch` rows:
    grads(c1, tb) writes the batch-mean gradients of the stack's
    cross-entropy over (B, M') rows c1, already compacted through layer
    1's mask, with one-hot targets tb, into one flat buffer laid out like
    fine_tune_params(m), and returns it. The buffers are built here, once
    per fit; at batch 1 each delta is its bias gradient's row."""
    grad, views = pack(*map(np.zeros_like, fine_tune_params(m)))
    grad_w, grad_b = views[::2], views[1::2]
    deltas = [delta_rows(g, batch) for g in grad_b]
    # Each layer's compacted input (layer 1 reads c1), codes and scratch.
    bufs = [[np.zeros((batch, n), grad.dtype) for n in (w, h, h)]
            for h, w in (g.shape for g in grad_w[:-1])]

    def grads(c1, tb):
        n, cur = len(c1), c1
        for idx, (layer, (c, h, _)) in enumerate(zip(m.layers, bufs)):
            if idx:
                cur = cur.take(layer.mask.index, axis=1, out=c[:n])
            cur = sigmoid_layer(cur, layer.dae.weights.T,
                                layer.dae.encoder_bias, h[:n])
        p = output_delta(m.top.weights, m.top.biases, cur, tb, deltas[-1][:n])
        p.T.dot(cur, out=grad_w[-1])
        sum_rows(p, grad_b[-1])
        p.dot(m.top.weights, out=deltas[-2][:n])
        for idx in range(m.depth - 1, -1, -1):
            (c, h, t), da = bufs[idx], deltas[idx][:n]
            # The delta from above, zero where the mask above drops a unit.
            sigmoid_backward(da, h[:n], t[:n], c[:n] if idx else c1,
                             grad_w[idx], grad_b[idx])
            if idx:
                # Expand through the mask; the compacted input is free by now.
                layer = m.layers[idx]
                deltas[idx - 1][:n, layer.mask.index] = da.dot(
                    layer.dae.weights, out=c[:n])
        return grad
    return grads


def predict_labels(m: StackModel, x: np.ndarray) -> np.ndarray:
    """Vectorized stack prediction; ties resolve to the lowest class index."""
    return mlr_predict_labels(m.top, _forward(m, x))


def fine_tune(m: StackModel, train: Dataset, valid: Dataset,
              cfg: TrainConfig, rng: Rng) -> StackModel:
    """Supervised backpropagation through the top layer and all encoders.

    Masks are frozen: compaction is structural, so dropped variables can
    never re-enter. The tuned model is built over views of one flat buffer
    holding copies of fine_tune_params(m), with copies of m's decoder
    biases and m's own masks, which nothing changes; the input model is
    left untouched. The training rows are taken as layer 1's DAE reads them
    and given one-hot targets once per fit, and steps take
    cfg.minibatch_size rows. Early stopping mirrors the MLR trainer (best
    validation snapshot, ties to the earlier epoch); with max_epochs = 0
    the returned model carries the input parameters unchanged. rng shuffles
    the examples. Parameters that stop being finite raise DivergenceError,
    naming the depth, at the end of that epoch.
    """
    params, views = pack(*fine_tune_params(m))
    layers = zip(m.layers, views[:-2:2], views[1:-2:2])
    tuned = StackModel(
        [StackLayer(layer.mask, DaeModel(weights, bias,
                                         layer.dae.decoder_bias.copy()))
         for layer, weights, bias in layers],
        MlrModel(*views[-2:]), fine_tuned=True)
    c1 = _dae_rows(train.x, tuned.layers[0])
    targets = one_hot(train.labels, tuned.top.k, c1.dtype)
    sgd(f"depth {tuned.depth} fine-tuning", params,
        gradient(tuned, min(cfg.minibatch_size, train.n)), cfg.learning_rate,
        (c1, targets), cfg.max_epochs, rng, batch=cfg.minibatch_size,
        score=lambda: evaluate(predict_labels(tuned, valid.x), valid),
        patience=cfg.patience)
    return tuned


def reconstruct_through(m: StackModel, x: np.ndarray, depth: int) -> np.ndarray:
    """Encode the raw rows x up through `depth` layers, then decode back
    to raw width.

    Every decode step expands through that layer's mask, writing zeros at
    the dropped positions, so the result always has the raw input width.
    """
    if not 1 <= depth <= len(m.layers):
        raise DimensionError(f"depth must lie in 1..{len(m.layers)}")
    cur = _forward(m, x, depth)
    for layer in reversed(m.layers[:depth]):
        cur = expand(decode(layer.dae, cur), layer.mask)
    return cur


def select_extractors(m: StackModel, train: Dataset, valid: Dataset,
                      ivs_cfg: IvsConfig, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Run selection on layer 1's hidden representation, splitting its
    hidden units into task-relevant and -irrelevant feature extractors.

    Returns their weight rows (relevant, irrelevant), expanded through
    layer 1's input mask so patterns render at the raw input width.
    """
    rep_train, rep_valid = (Dataset(_forward(m, d.x, 1), d.labels,
                                    d.num_classes) for d in (train, valid))
    keep = run_ivs(rep_train, rep_valid, ivs_cfg, rng,
                   phase="pattern export: MLR training").mask.bits
    patterns = expand(m.layers[0].dae.weights, m.layers[0].mask)
    return patterns[keep], patterns[~keep]
