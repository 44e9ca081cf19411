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
from .errors import DimensionError
from .mlr import MlrModel
from .stack import StackLayer, StackModel

FORMAT = "sdae-ivs-model"
# Version 4: every decoder is a sigmoid; a version-3 file may name another.
VERSION = 4


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


def save_stack(path, m: StackModel) -> None:
    layers = [{
        "kind": "dae",
        "hidden_units": layer.dae.hidden_units,
        "input_width": layer.dae.input_width,
        "weights": _pack(layer.dae.weights),
        "encoder_bias": _pack(layer.dae.encoder_bias),
        "decoder_bias": _pack(layer.dae.decoder_bias),
        # The training-time mask makes the record's widths self-describing.
        "mask": pack_mask(layer.mask),
    } for layer in m.layers]
    top = {"kind": "mlr", "k": m.top.k, "m": m.top.m,
           "weights": _pack(m.top.weights), "biases": _pack(m.top.biases)}
    rec = {"format": FORMAT, "version": VERSION, "kind": "stack",
           "fine_tuned": m.fine_tuned, "layers": layers, "top": top}
    Path(path).write_text(json.dumps(rec, sort_keys=True) + "\n")


def load_stack(path) -> StackModel:
    try:
        rec = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(rec, dict) or rec.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} file")
    if rec.get("version") != VERSION:
        raise ValueError(f"{path} has {FORMAT} version {rec.get('version')}; "
                         f"this program reads version {VERSION}")

    def read(record, key, where, unpack):
        # binascii.Error, from bad base64, is a ValueError.
        try:
            return unpack(record[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path} has a malformed {where}{key}: {exc}") \
                from exc

    try:
        if not isinstance(rec["layers"], list):
            raise ValueError(f"{path} has a malformed layers: '"
                             f"{type(rec['layers']).__name__}' object is not "
                             "a list")
        layers = [StackLayer(
            read(layer, "mask", f"layers[{i}].", unpack_mask),
            DaeModel(*(read(layer, key, f"layers[{i}].", _unpack)
                       for key in ("weights", "encoder_bias", "decoder_bias"))))
            for i, layer in enumerate(rec["layers"])]
        top = rec["top"]
        return StackModel(layers, MlrModel(
            *(read(top, key, "top.", _unpack) for key in ("weights", "biases"))),
            rec["fine_tuned"])
    except DimensionError as exc:
        raise DimensionError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"{path} lacks the field {exc}") from exc
