"""Stacked pipeline: per-layer selection + denoising pre-training, a top
classifier, supervised fine-tuning, and the analyses built on top of it.

Each layer selects among the variables it reads, trains a tied-weight
auto-encoder on the survivors only, and hands its codes upward. Layer 1's
selection is the stack's input mask; a selection above it prunes the
units it drops from the layer below. Dropped variables and units are
removed structurally, so they cost no parameters and cannot re-enter
during fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import gradient
from .dae import (DaeModel, DaeTrainConfig, decode, encode, encode_dataset,
                  train_dae)
from .data import Dataset, VariableMask, compact, compact_dataset, expand
from .errors import DimensionError
from .ivs import IvsConfig, IvsResult, run_ivs
from .mlr import MlrModel, TrainConfig, evaluate, one_hot, train_mlr
from .mlr import predict_labels as mlr_predict_labels
from .numerics import (DAE, IVS, TOP, Rng, derive_rng, map_blocks, pack, sgd,
                       softmax)

# The networks' dtype: layer 1's DAE reads its rows rounded to it, and every
# layer above, the top classifier and fine-tuning follow. It halves the bytes
# of the passes that bound a batch-1 step. Layer 1's selection keeps the
# loaded float64 rows: its stop rule reacts to validation noise.
NETWORK = np.float32


@dataclass
class StackModel:
    """The mask over the raw input, the pre-trained layers, each reading
    all the codes of the one below, then the top classifier on the last
    codes."""

    mask: VariableMask
    layers: list[DaeModel]
    top: MlrModel

    def __post_init__(self):
        """Chained-width invariant: at least one layer, and the mask, the
        DAEs and the top line up."""
        if not self.layers:
            raise DimensionError("a stack needs at least one layer")
        width = self.mask.popcount
        for idx, dae in enumerate(self.layers):
            if dae.input_width != width:
                raise DimensionError(f"layer {idx + 1} reads "
                                     f"{dae.input_width} inputs, not {width}")
            width = dae.hidden_units
        if self.top.m != width:
            raise DimensionError("top classifier width != last hidden width")

    @property
    def depth(self) -> int:
        return len(self.layers)


def pretrain(train: Dataset, valid: Dataset, dae: tuple[DaeTrainConfig, ...],
             ivs: tuple[IvsConfig, ...], top: TrainConfig, seed: int,
             depths: tuple[int, ...]
             ) -> tuple[dict[int, StackModel], list[IvsResult], DaeModel]:
    """Greedy layer-wise pre-training with per-layer variable selection.

    dae holds one DAE plan per layer, and ivs one selection plan per layer
    or () for plain SDAE (all-ones masks). For each layer: select on the
    current representation, compact both splits into NETWORK, train the
    DAE on the survivors, and encode to obtain the next representation.
    Layer 1's mask is every stack's input mask. Layer k's, for k > 1,
    prunes the units it drops from layer k - 1 (their weight rows and
    encoder biases) in the stacks of depth k and more, so that each layer
    reads all the codes below it; the depth-(k - 1) stack keeps that layer
    whole. Right after layer d, for each requested depth d, a top MLR is
    trained on its codes by the plan top. Returns the depth-d stacks by d,
    the selection results (one per layer, none when selection is off) and
    layer 1's DAE as it was trained.

    Layer k's selection and DAE draw from the streams (seed, k, IVS) and
    (seed, k, DAE), the depth-d top MLR from (seed, d, TOP). Layer k
    depends on the layers below it alone, so the depth-d stack is the one
    a pass over the first d plans gives.
    """
    if not all(1 <= d <= len(dae) for d in depths):
        raise DimensionError(f"depths must lie in 1..{len(dae)}")
    cur_train, cur_valid = train, valid
    masks: list[VariableMask] = []
    layers: list[DaeModel] = []
    ivs_results: list[IvsResult] = []
    stacks: dict[int, StackModel] = {}

    for layer, dae_cfg in enumerate(dae, start=1):
        if ivs:
            ivs_results.append(run_ivs(
                cur_train, cur_valid, ivs[layer - 1], derive_rng(seed, layer, IVS),
                phase=f"layer {layer}: MLR training"))
            masks.append(ivs_results[-1].mask)
        else:
            masks.append(VariableMask.all_ones(cur_train.m))
        # Through compact_dataset, which perfbench's tracer times.
        compact_train, compact_valid = (
            Dataset(compact_dataset(d, masks[-1]).x.astype(
                NETWORK, copy=False), d.labels, d.num_classes)
            for d in (cur_train, cur_valid))
        layers.append(train_dae(compact_train, dae_cfg,
                                derive_rng(seed, layer, DAE),
                                phase=f"layer {layer}: DAE pre-training"))

        cur_train = encode_dataset(layers[-1], compact_train)
        cur_valid = encode_dataset(layers[-1], compact_valid)
        if layer in depths:
            # Each layer below keeps the units that the mask above it keeps.
            pruned = [DaeModel(below.weights[above.index],
                               below.encoder_bias[above.index],
                               below.decoder_bias)
                      for below, above in zip(layers, masks[1:])]
            stacks[layer] = StackModel(
                masks[0], pruned + layers[-1:],
                train_mlr(cur_train, cur_valid, top,
                          derive_rng(seed, layer, TOP),
                          phase=f"depth {layer} top MLR"))
    return stacks, ivs_results, layers[0]


def _forward(mask: VariableMask, layers: list[DaeModel], x: np.ndarray
             ) -> np.ndarray:
    """Codes of the (N, M) raw rows x compacted through mask and encoded by
    each of layers in turn, each reading its input in its own dtype. A
    block of rows goes through every layer before the next block (see
    numerics.map_blocks), so only the last layer's codes are whole."""
    if x.ndim != 2:
        raise DimensionError(f"rows must form an (N, M) matrix, not shape {x.shape}")

    def chain(cur):
        cur = compact(cur, mask)
        for dae in layers:
            cur = encode(dae, cur.astype(dae.weights.dtype, copy=False))
        return cur
    return map_blocks(chain, x)


def fine_tune_params(m: StackModel) -> list[np.ndarray]:
    """The arrays fine-tuning steps, in the order it packs them and its
    chain names them: each layer's weights and encoder bias, then the top
    classifier's weights and biases. Decoder biases are not part of the
    classifier and take no gradient."""
    return [p for dae in m.layers for p in (dae.weights, dae.encoder_bias)] \
        + [m.top.weights, m.top.biases]


def predict_labels(m: StackModel, x: np.ndarray) -> np.ndarray:
    """Vectorized stack prediction; ties resolve to the lowest class index."""
    return mlr_predict_labels(m.top, _forward(m.mask, m.layers, x))


def fine_tune(m: StackModel, train: Dataset, valid: Dataset,
              cfg: TrainConfig, rng: Rng) -> StackModel:
    """Supervised backpropagation through the top layer and all encoders,
    along chain.gradient of the encoders under the top.

    The input mask is frozen and every unit of every layer takes part, so
    nothing dropped can re-enter. The tuned model is built over views of
    one flat buffer (numerics.pack) holding copies of fine_tune_params(m),
    with copies of m's decoder biases and m's own mask, which nothing
    changes; the input model is left untouched. The training rows are
    taken as layer 1's DAE reads them and given one-hot targets once per
    fit, and steps take cfg.minibatch_size rows. Early stopping mirrors
    the MLR trainer (best validation snapshot, ties to the earlier epoch);
    with max_epochs = 0 the returned model carries the input parameters
    unchanged. rng shuffles the examples. Parameters that stop being
    finite raise DivergenceError, naming the depth, at the end of that
    epoch.
    """
    params, views = pack(*fine_tune_params(m))
    tuned = StackModel(m.mask, [
        DaeModel(weights, bias, dae.decoder_bias.copy())
        for dae, weights, bias in zip(m.layers, views[:-2:2], views[1:-2:2])],
        MlrModel(*views[-2:]))
    c1 = compact(train.x, m.mask).astype(params.dtype, copy=False)
    targets = one_hot(train.labels, tuned.top.k, c1.dtype)
    grads, pending = gradient(
        [(w, b, False) for w, b in zip(views[::2], views[1::2])], softmax,
        min(cfg.minibatch_size, train.n), cfg.learning_rate)
    sgd(f"depth {tuned.depth} fine-tuning", params, grads, cfg.learning_rate,
        (c1, targets), cfg.max_epochs, rng, batch=cfg.minibatch_size,
        score=lambda: evaluate(predict_labels(tuned, valid.x), valid),
        patience=cfg.patience, pending=pending)
    return tuned


def reconstruct_through(m: StackModel, x: np.ndarray, depth: int) -> np.ndarray:
    """Encode the raw rows x up through the first `depth` layers as m holds
    them, decode back down through the same layers, and expand through the
    input mask, writing zeros at the dropped positions, so the result
    always has the raw input width.
    """
    if not 1 <= depth <= m.depth:
        raise DimensionError(f"depth must lie in 1..{m.depth}")
    cur = _forward(m.mask, m.layers[:depth], x)
    for dae in reversed(m.layers[:depth]):
        cur = decode(dae, cur)
    return expand(cur, m.mask)


def select_extractors(mask: VariableMask, dae: DaeModel, train: Dataset,
                      valid: Dataset, ivs_cfg: IvsConfig, rng: Rng
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Run selection on the hidden representation of layer 1, dae over the
    input mask, splitting its hidden units into task-relevant and
    -irrelevant feature extractors.

    Returns their weight rows (relevant, irrelevant), expanded through
    mask so patterns render at the raw input width.
    """
    rep_train, rep_valid = (Dataset(_forward(mask, [dae], d.x), d.labels,
                                    d.num_classes) for d in (train, valid))
    keep = run_ivs(rep_train, rep_valid, ivs_cfg, rng,
                   phase="pattern export: MLR training").mask.bits
    patterns = expand(dae.weights, mask)
    return patterns[keep], patterns[~keep]
