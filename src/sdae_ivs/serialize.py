"""Model persistence with value-exact round trips.

Records are JSON with float32 arrays (stack.NETWORK) embedded as base64 of
their little-endian bytes, and the stack's input mask, as a string of 0s
and 1s, at layers[0].mask, so loading reproduces every parameter bit for
bit and writing the same model twice produces identical files (no
timestamps, no platform-dependent float text).
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
from .stack import StackModel

FORMAT = "sdae-ivs-model"
# Version 6: one mask, over the raw input, and no fine_tuned flag.
VERSION = 6


def _pack(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f4").tobytes()).decode("ascii"),
    }


def _unpack(rec: dict) -> np.ndarray:
    raw = base64.b64decode(rec["data"])
    return np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(rec["shape"])


def pack_mask(mask: VariableMask) -> str:
    """Mask as a string of 0s and 1s, one character per variable."""
    return "".join("1" if b else "0" for b in mask.bits)


def unpack_mask(text: str) -> VariableMask:
    """The mask pack_mask wrote; anything but a string of 0s and 1s is a
    ValueError."""
    if not isinstance(text, str) or not set(text) <= {"0", "1"}:
        raise ValueError("not a string of 0s and 1s")
    return VariableMask(np.array([c == "1" for c in text], dtype=bool))


def save_stack(path, m: StackModel) -> None:
    layers = [{
        "weights": _pack(dae.weights),
        "encoder_bias": _pack(dae.encoder_bias),
        "decoder_bias": _pack(dae.decoder_bias),
    } for dae in m.layers]
    layers[0]["mask"] = pack_mask(m.mask)
    top = {"weights": _pack(m.top.weights), "biases": _pack(m.top.biases)}
    rec = {"format": FORMAT, "version": VERSION, "layers": layers, "top": top}
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
        layers = rec["layers"]
        if not isinstance(layers, list):
            raise ValueError(f"{path} has a malformed layers: '"
                             f"{type(layers).__name__}' object is not a list")
        if not layers:
            raise ValueError(f"{path} has no layers")
        top = rec["top"]
        return StackModel(
            read(layers[0], "mask", "layers[0].", unpack_mask),
            [DaeModel(*(read(layer, key, f"layers[{i}].", _unpack)
                        for key in ("weights", "encoder_bias", "decoder_bias")))
             for i, layer in enumerate(layers)],
            MlrModel(*(read(top, key, "top.", _unpack)
                       for key in ("weights", "biases"))))
    except DimensionError as exc:
        raise DimensionError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"{path} lacks the field {exc}") from exc
