"""Model persistence with value-exact round trips.

Records are JSON with float64 arrays embedded as base64 of their
little-endian bytes, so loading reproduces every parameter bit for bit and
writing the same model twice produces identical files (no timestamps, no
platform-dependent float text).
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .data import VariableMask
from .dae import DaeModel
from .mlr import MlrModel
from .stack import StackLayer, StackModel

FORMAT = "sdae-ivs-model"
VERSION = 2


def _pack(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def _unpack(rec: dict) -> np.ndarray:
    raw = base64.b64decode(rec["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rec["shape"])


def pack_mask(mask: VariableMask) -> str:
    """Mask as a string of 0s and 1s, one character per variable."""
    return "".join("1" if b else "0" for b in mask.bits)


def unpack_mask(text: str) -> VariableMask:
    return VariableMask(np.array([c == "1" for c in text], dtype=bool))


def mlr_record(m: MlrModel) -> dict:
    return {
        "kind": "mlr",
        "k": m.k,
        "m": m.m,
        "weights": _pack(m.weights),
        "biases": _pack(m.biases),
    }


def mlr_from_record(rec: dict) -> MlrModel:
    return MlrModel(_unpack(rec["weights"]), _unpack(rec["biases"]))


def dae_record(m: DaeModel, mask: VariableMask) -> dict:
    return {
        "kind": "dae",
        "hidden_units": m.hidden_units,
        "input_width": m.input_width,
        "weights": _pack(m.weights),
        "encoder_bias": _pack(m.encoder_bias),
        "decoder_bias": _pack(m.decoder_bias),
        "decoder_activation": m.decoder_activation,
        # The training-time mask makes the record's widths self-describing.
        "mask": pack_mask(mask),
    }


def dae_from_record(rec: dict) -> tuple[DaeModel, VariableMask]:
    model = DaeModel(
        _unpack(rec["weights"]),
        _unpack(rec["encoder_bias"]),
        _unpack(rec["decoder_bias"]),
        rec["decoder_activation"],
    )
    return model, unpack_mask(rec["mask"])


def stack_record(m: StackModel) -> dict:
    return {
        "kind": "stack",
        "fine_tuned": m.fine_tuned,
        "layers": [dae_record(layer.dae, layer.mask) for layer in m.layers],
        "top": mlr_record(m.top),
        "top_mask": pack_mask(m.top_mask),
    }


def stack_from_record(rec: dict) -> StackModel:
    layers = []
    for layer_rec in rec["layers"]:
        dae_model, mask = dae_from_record(layer_rec)
        layers.append(StackLayer(mask, dae_model))
    return StackModel(layers, mlr_from_record(rec["top"]),
                      unpack_mask(rec["top_mask"]), rec["fine_tuned"])


def save_record(path, rec: dict) -> None:
    wrapped = {"format": FORMAT, "version": VERSION, **rec}
    Path(path).write_text(json.dumps(wrapped, sort_keys=True) + "\n")


def load_record(path) -> dict:
    rec = json.loads(Path(path).read_text())
    if rec.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} file")
    if rec.get("version") != VERSION:
        raise ValueError(f"{path} has {FORMAT} version {rec.get('version')}; "
                         f"this program reads version {VERSION}")
    return rec


def save_stack(path, m: StackModel) -> None:
    save_record(path, stack_record(m))


def load_stack(path) -> StackModel:
    return stack_from_record(load_record(path))
