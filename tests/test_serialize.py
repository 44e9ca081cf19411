import base64
import json

import numpy as np
import pytest

from sdae_ivs.dae import DaeModel
from sdae_ivs.data import VariableMask
from sdae_ivs.mlr import MlrModel
from sdae_ivs.numerics import derive_rng
from sdae_ivs.serialize import VERSION, load_stack, save_stack
from sdae_ivs.stack import StackModel

rng = derive_rng(99)


def normal(*shape, scale=1.0):
    """float32 normal draws: models hold the networks' dtype."""
    return (scale * rng.normal(size=shape)).astype(np.float32)


def random_stack():
    mask = VariableMask(np.array([1, 0, 1, 1, 1], dtype=bool))
    dae1 = DaeModel(normal(3, 4), normal(3), normal(4))
    dae2 = DaeModel(normal(2, 3), normal(2), normal(3))
    top = MlrModel(normal(3, 2), normal(3))
    return StackModel(mask, [dae1, dae2], top)


def test_mlr_round_trip_is_bit_exact(tmp_path):
    # The top classifier is stored as an MLR record inside the stack file.
    model = MlrModel(normal(4, 7, scale=1e-8), normal(4, scale=1e8))
    path = tmp_path / "m.json"
    save_stack(path, StackModel(VariableMask.all_ones(2), [DaeModel(
        normal(7, 2), normal(7), normal(2))], model))
    loaded = load_stack(path).top
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.biases, model.biases)


def test_dae_round_trip_with_mask(tmp_path):
    model = DaeModel(normal(2, 3), normal(2), normal(3))
    mask = VariableMask(np.array([0, 1, 1, 0, 1], dtype=bool))
    top = MlrModel(normal(2, 2), normal(2))
    path = tmp_path / "d.json"
    save_stack(path, StackModel(mask, [model], top))
    loaded = load_stack(path)
    (dae,) = loaded.layers
    assert np.array_equal(dae.weights, model.weights)
    assert np.array_equal(dae.decoder_bias, model.decoder_bias)
    assert loaded.mask == mask


def test_stack_round_trip(tmp_path):
    model = random_stack()
    path = tmp_path / "s.json"
    save_stack(path, model)
    loaded = load_stack(path)
    assert loaded.mask == model.mask
    assert len(loaded.layers) == 2
    for got, want in zip(loaded.layers, model.layers):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.encoder_bias, want.encoder_bias)
        assert np.array_equal(got.decoder_bias, want.decoder_bias)
    assert np.array_equal(loaded.top.weights, model.top.weights)
    assert np.array_equal(loaded.top.biases, model.top.biases)


def test_records_hold_float32_arrays_and_no_field_the_shapes_hold(tmp_path):
    path = tmp_path / "s.json"
    save_stack(path, random_stack())
    rec = json.loads(path.read_text())
    assert set(rec) == {"format", "version", "layers", "top"}
    assert set(rec["top"]) == {"weights", "biases"}
    # The input mask is written once, with layer 1.
    arrays = {"weights", "encoder_bias", "decoder_bias"}
    assert [set(layer) for layer in rec["layers"]] == [arrays | {"mask"},
                                                        arrays]
    assert rec["layers"][0]["mask"] == "10111"
    assert len(base64.b64decode(rec["top"]["weights"]["data"])) == 4 * 3 * 2
    loaded = load_stack(path)
    arrays = [loaded.top.weights, loaded.top.biases] + [
        a for dae in loaded.layers for a in (
            dae.weights, dae.encoder_bias, dae.decoder_bias)]
    assert all(a.dtype == np.float32 and a.flags.writeable for a in arrays)


def test_writes_are_byte_identical(tmp_path):
    model = random_stack()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_stack(a, model)
    save_stack(b, model)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("version", [*range(1, VERSION), VERSION + 1, None])
def test_other_versions_rejected_naming_file_and_versions(tmp_path, version):
    path = tmp_path / "old.json"
    save_stack(path, random_stack())
    rec = json.loads(path.read_text())
    rec["version"] = version
    path.write_text(json.dumps(rec))
    with pytest.raises(ValueError) as err:
        load_stack(path)
    assert "old.json" in str(err.value)
    assert f"version {version}" in str(err.value)
    assert f"version {VERSION}" in str(err.value)
