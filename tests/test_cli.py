import argparse
import base64
import configparser
import csv
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sdae_ivs import ivs, runner, stack
from sdae_ivs.cli import build_parser, main
from sdae_ivs.config import KEYS, load_config
from sdae_ivs.dae import DaeModel, train_dae
from sdae_ivs.data import Dataset, VariableMask
from sdae_ivs.errors import ConfigError
from sdae_ivs.mlr import MlrModel
from sdae_ivs.numerics import derive_rng
from sdae_ivs.serialize import load_stack, pack_mask
from util import read_pgm

REPO = Path(__file__).resolve().parent.parent
SMOKE = REPO / "configs" / "smoke_synthetic.ini"
BGRAND = REPO / "configs" / "bgrand_scaled.ini"


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    code = run_cli("run", "--config", SMOKE, "--out", out)
    assert code == 0
    return out


class TestRun:
    def test_report_and_models_exist(self, smoke_run):
        report = json.loads((smoke_run / "report.json").read_text())
        assert set(report["results"]) == {"sdae", "sdae_ivs"}
        for variant in ("sdae", "sdae_ivs"):
            entry = report["results"][variant]["depth1"]
            assert 0.0 <= entry["test_error_rate"] <= 1.0
            assert (smoke_run / entry["model"]).is_file()
            assert (smoke_run / entry["pretrained_model"]).is_file()
        assert (smoke_run / "summary.txt").is_file()
        assert (smoke_run / "wall_time.txt").is_file()

    def test_summary_prints_two_decimal_percentages(self, smoke_run):
        body = (smoke_run / "summary.txt").read_text()
        assert "sdae_ivs" in body
        assert re.search(r"\d+\.\d{2}", body)

    def test_selection_artifacts_written(self, smoke_run):
        report = json.loads((smoke_run / "report.json").read_text())
        ivs_entry = report["results"]["sdae_ivs"]["depth1"]
        assert "ivs_layers" in ivs_entry
        layer = ivs_entry["ivs_layers"][0]
        kept = [item["kept"] for item in layer["iterations"]]
        assert all(a >= b for a, b in zip(kept, kept[1:]))
        assert (smoke_run / "csv" / "sdae_ivs-layer1-history.csv").is_file()
        assert (smoke_run / "images" / "sdae_ivs-importance.pgm").is_file()

    def test_reconstruction_and_pattern_images(self, smoke_run):
        img = read_pgm(smoke_run / "images" / "sdae-depth1-reconstruction.pgm")
        assert img.ndim == 2 and img.size > 0
        assert (smoke_run / "csv" / "sdae-extractors.csv").is_file()
        assert list((smoke_run / "images").glob("sdae-patterns-*.pgm"))

    def test_every_csv_reads_back_with_crlf_line_endings(self, smoke_run):
        paths = sorted((smoke_run / "csv").glob("*.csv"))
        assert smoke_run / "csv" / "sdae-extractors.csv" in paths
        for path in paths:
            raw = path.read_bytes()
            assert raw.endswith(b"\r\n") and b"\n" not in raw.replace(
                b"\r\n", b""), path.name
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1 and all(len(row) == len(rows[0])
                                         for row in rows), path.name
        counts = (smoke_run / "csv" / "sdae-extractors.csv").read_bytes()
        assert counts.startswith(b"relevant,irrelevant\r\n")

    def test_plain_variant_has_no_selection_history(self, smoke_run):
        report = json.loads((smoke_run / "report.json").read_text())
        assert "ivs_layers" not in report["results"]["sdae"]["depth1"]

    def test_config_block_is_the_parsed_config_without_out(self, smoke_run):
        config = json.loads((smoke_run / "report.json").read_text())["config"]
        expected = asdict(load_config(SMOKE))
        # Synthetic split sizes are listed once, in examples_per_split.
        for key in ("out", "train_size", "valid_size", "test_size"):
            del expected[key]
        assert json.dumps(config, sort_keys=True) == \
            json.dumps(expected, sort_keys=True, default=str)
        assert config["reconstruct_examples"] == 6
        assert config["synthetic"]["examples_per_split"] == [120, 40, 60]
        assert config["export_patterns"] is True


class TestDeterminism:
    def test_seed_override_changes_results(self, tmp_path, smoke_run):
        other = tmp_path / "other"
        assert run_cli("run", "--config", SMOKE, "--out", other,
                       "--seed", "7") == 0
        assert (other / "report.json").read_bytes() != \
            (smoke_run / "report.json").read_bytes()


    def test_each_depth_of_a_multi_depth_run_equals_its_own_run(
            self, tmp_path, monkeypatch):
        trained, selected = [], []
        monkeypatch.setattr(stack, "train_dae", lambda *args, **kwargs: (
            trained.append(args) or train_dae(*args, **kwargs)))
        monkeypatch.setattr(runner, "select_extractors", lambda *args: (
            selected.append(args) or stack.select_extractors(*args)))
        outs = {}
        for depths in ("1 2", "2 1", "1", "2"):
            patched = tmp_path / f"depths-{depths.replace(' ', '')}.ini"
            patched.write_text(SMOKE.read_text().replace(
                "depths = 1", f"depths = {depths}"))
            outs[depths] = tmp_path / patched.stem
            trained.clear()
            selected.clear()
            assert run_cli("run", "--config", patched,
                           "--out", outs[depths]) == 0
            # Pattern export selects on layer 1 once per variant.
            assert len(selected) == 2
            if " " in depths:
                # Each variant trains layers 1 and 2 once.
                assert len(trained) == 4
        two = json.loads((outs["2"] / "report.json").read_text())
        for multi in ("1 2", "2 1"):
            both = json.loads((outs[multi] / "report.json").read_text())
            # Selection and pattern files are tagged by variant alone,
            # written once each; models and reconstructions by variant and
            # depth, in the order the config lists the depths.
            assert len(both["artifacts"]) == len(set(both["artifacts"]))
            shared = [n for n in both["artifacts"] if "-depth" not in n]
            assert "csv/sdae_ivs-layer2-history.csv" in shared
            assert "csv/sdae-extractors.csv" in shared
            tags = [re.search(r"-depth(\d)-", n)[1]
                    for n in both["artifacts"] if "-depth" in n]
            assert [d for d, _ in itertools.groupby(tags)] == \
                multi.split() * 2
            for depth in ("1", "2"):
                alone = json.loads((outs[depth] / "report.json").read_text())
                for variant, entries in alone["results"].items():
                    assert both["results"][variant][f"depth{depth}"] == \
                        entries[f"depth{depth}"]
                # Every model and reconstruction of the single-depth run,
                # and every per-variant file it shares with this run.
                assert set(alone["artifacts"]) <= set(both["artifacts"])
                for name in alone["artifacts"]:
                    assert (outs[multi] / name).read_bytes() == \
                        (outs[depth] / name).read_bytes(), name
            # The depth-2 run writes the same per-variant files.
            assert sorted(n for n in two["artifacts"]
                          if "-depth" not in n) == sorted(shared)


def edited(edit):
    """A function of JSON text: the text with edit applied in place to the
    value it holds."""
    def damage(text):
        value = json.loads(text)
        edit(value)
        return json.dumps(value)
    return damage


class TestEval:
    def test_reported_rates_reproduce_exactly(self, smoke_run):
        assert run_cli("eval", "--config", SMOKE, "--out", smoke_run) == 0
        recomputed = json.loads((smoke_run / "eval.json").read_text())
        for variant, depths in recomputed.items():
            for entry in depths.values():
                assert entry["matches_report"] is True

    def test_eval_without_run_fails(self, tmp_path):
        assert run_cli("eval", "--config", SMOKE, "--out", tmp_path) == 2

    @pytest.mark.parametrize("edit, message", [
        ((("--seed", "5"), "", ""), "seed is 42 there, 5 here"),
        (((), "irrelevant = 24\n", "irrelevant = 25\n"),
         "synthetic.num_irrelevant is 24 there, 25 here"),
        (((), "[ivs]\nthreshold = 0.3", "[ivs]\nthreshold = 0.35"),
         "ivs.1.threshold is 0.3 there, 0.35 here"),
    ], ids=["seed", "synthetic", "layer"])
    def test_another_config_is_a_config_error(self, tmp_path, smoke_run,
                                              capsys, edit, message):
        # Data from another config would fail the models' check and blame
        # them; the config is compared before any data is read.
        flags, old, new = edit
        patched = tmp_path / "other.ini"
        patched.write_text(SMOKE.read_text().replace(old, new))
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        assert run_cli("eval", "--config", patched, "--out", out,
                       *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {out / 'report.json'} was "
                              "written under another config: ")
        assert message in err and err.count("\n") == 1
        assert not (out / "eval.json").exists()

    @pytest.mark.parametrize("text, message", [
        (lambda text: text[:100], "is not valid JSON: "),
        (lambda text: json.dumps({"config": json.loads(text)["config"]}),
         "lacks an object results"),
        (edited(lambda r: r.update(config=5)), "lacks an object config"),
        (edited(lambda r: r.update(results={})),
         "lacks results.sdae.depth1.test_error_rate"),
        (edited(lambda r: r["results"].pop("sdae")),
         "lacks results.sdae.depth1.test_error_rate"),
        (edited(lambda r: r["results"].update(sdae=5)),
         "lacks results.sdae.depth1.test_error_rate"),
        (edited(lambda r: r["results"]["sdae"].update(depth1=3)),
         "lacks results.sdae.depth1.test_error_rate"),
        (edited(lambda r: r["results"]["sdae"]["depth1"].pop(
            "test_error_rate")),
         "lacks results.sdae.depth1.test_error_rate"),
        # A key that holds a dot is not the path it spells.
        (edited(lambda r: r["results"].update(
            {"sdae.depth1": r["results"].pop("sdae")["depth1"]})),
         "lacks results.sdae.depth1.test_error_rate as a float\n"),
        (edited(lambda r: r["results"]["sdae"]["depth1"].update(
            test_error_rate="0.0167")),
         "lacks results.sdae.depth1.test_error_rate as a float\n"),
        (edited(lambda r: r["results"]["sdae"]["depth1"].update(
            test_error_rate=None)),
         "lacks results.sdae.depth1.test_error_rate as a float\n"),
    ], ids=["truncated", "no_results", "config_not_object", "results_empty",
            "no_variant", "variant_not_object", "entry_not_object",
            "no_test_error_rate", "dotted_key", "string_rate", "null_rate"])
    def test_malformed_report_is_a_data_error_naming_it(
            self, tmp_path, smoke_run, capsys, text, message):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        report = out / "report.json"
        report.write_text(text(report.read_text()))
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {report} {message}")

    def test_dotted_config_keys_are_not_nested_ones(self, tmp_path, smoke_run,
                                                    capsys):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        report = out / "report.json"
        report.write_text(edited(lambda r: r["config"].update(
            {f"synthetic.{key}": value
             for key, value in r["config"].pop("synthetic").items()}))(
            report.read_text()))
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"config error: {report} was written under another config: "
            "synthetic.class_separation is absent there, 3.0 here\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda config: config.pop("amat_test"),
         "amat_test is absent there, null here"),
        (lambda config: config["dae"][0].update(extra=None),
         "dae.1.extra is null there, absent here"),
        (lambda config: config.update(extra={}),
         "extra is {} there, absent here"),
    ], ids=["null_key_deleted", "null_key_added", "empty_object_added"])
    def test_a_key_one_side_lacks_is_not_null(self, tmp_path, smoke_run,
                                              capsys, edit, message):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        report = out / "report.json"
        report.write_text(edited(lambda r: edit(r["config"]))(
            report.read_text()))
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"config error: {report} was written under another config: "
            f"{message}\n")
        assert not (out / "eval.json").exists()

    def test_the_configs_own_model_is_evaluated(self, tmp_path, smoke_run):
        # eval opens the file run writes for each variant and depth, not
        # the one the report's model field names.
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        report = out / "report.json"
        report.write_text(edited(lambda r: r["results"]["sdae"]["depth1"].update(
            model="models/sdae_ivs-depth1-tuned.json"))(report.read_text()))
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 0
        recomputed = json.loads((out / "eval.json").read_text())
        assert recomputed["sdae"]["depth1"]["matches_report"] is True

    def test_each_depth_and_variant_of_the_config_is_evaluated(self, tmp_path):
        patched = tmp_path / "deep.ini"
        patched.write_text(SMOKE.read_text()
                           .replace("depths = 1", "depths = 1 2")
                           .replace("variants = both", "variants = sdae"))
        out = tmp_path / "deep"
        assert run_cli("run", "--config", patched, "--out", out) == 0
        assert run_cli("eval", "--config", patched, "--out", out) == 0
        recomputed = json.loads((out / "eval.json").read_text())
        reported = json.loads((out / "report.json").read_text())["results"]
        assert {v: sorted(d) for v, d in recomputed.items()} == \
            {"sdae": ["depth1", "depth2"]}
        for depth_key, entry in recomputed["sdae"].items():
            assert entry == {**{key: reported["sdae"][depth_key][key] for key
                                in ("test_error_rate", "test_ci95_halfwidth",
                                    "test_n")}, "matches_report": True}

    def test_a_reported_rate_that_differs_exits_3(self, tmp_path, smoke_run,
                                                  capsys):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        report = out / "report.json"
        report.write_text(edited(lambda r: r["results"]["sdae"]["depth1"]
                                 .update(test_error_rate=0.987654))(
            report.read_text()))
        capsys.readouterr()
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("sdae depth1: ")
        assert lines[0].endswith("% (matches report: False)")
        assert lines[1].endswith("% (matches report: True)")
        assert captured.err == "serialized models disagree with report.json\n"
        recomputed = json.loads((out / "eval.json").read_text())
        assert recomputed["sdae"]["depth1"]["matches_report"] is False
        assert recomputed["sdae_ivs"]["depth1"]["matches_report"] is True

    def test_a_model_of_another_depth_exits_3_naming_the_file_and_depths(
            self, tmp_path, capsys):
        patched = tmp_path / "deep.ini"
        patched.write_text(SMOKE.read_text()
                           .replace("depths = 1", "depths = 1 2")
                           .replace("variants = both", "variants = sdae"))
        out = tmp_path / "deep"
        assert run_cli("run", "--config", patched, "--out", out) == 0
        path = out / "models" / "sdae-depth1-tuned.json"
        shutil.copyfile(out / "models" / "sdae-depth2-tuned.json", path)
        capsys.readouterr()
        assert run_cli("eval", "--config", patched, "--out", out) == 3
        assert capsys.readouterr().err == \
            f"error: {path} holds 2 layers, not 1\n"
        assert not (out / "eval.json").exists()

    def test_a_missing_tuned_model_is_a_data_error(self, tmp_path, smoke_run,
                                                   capsys):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        path = out / "models" / "sdae-depth1-tuned.json"
        path.unlink()
        capsys.readouterr()
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 2
        assert capsys.readouterr().err == \
            f"data error: missing model file {path}\n"
        assert not (out / "eval.json").exists()




class TestModelWidth:
    """Verbs that feed loaded models with data check the data's width."""

    @pytest.mark.parametrize("verb", ["eval"])
    def test_wider_data_is_a_data_error(self, tmp_path, capsys, verb):
        # The config stays as run read it; only the test file widens.
        config = TestAmatPlumbing().three_file_config(
            tmp_path, (50, 8, 3), (20, 8, 3), (20, 8, 3))
        out = tmp_path / "o"
        assert run_cli("run", "--config", config, "--out", out) == 0
        TestAmatPlumbing.write_amat(tmp_path / "test.amat", 20, 9, 2)
        assert run_cli(verb, "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert "-depth1-" in err and ".json reads 8 variables" in err
        assert "data has 9" in err


class TestModelFile:
    def test_mask_that_disagrees_with_its_dae_names_file_and_layer(
            self, tmp_path, smoke_run, capsys):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        path = out / "models" / "sdae-depth1-tuned.json"
        rec = json.loads(path.read_text())
        # Drop one kept variable from the mask, but not from layer 1's DAE.
        rec["layers"][0]["mask"] = rec["layers"][0]["mask"].replace("1", "0", 1)
        path.write_text(json.dumps(rec))
        capsys.readouterr()
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 3
        assert capsys.readouterr().err == \
            f"error: {path}: layer 1 reads 30 inputs, not 29\n"

    # Each mask below loaded and evaluated at exit 0 while any character
    # but 1 read as a drop and any iterable was taken.
    @pytest.mark.parametrize("edit", [
        lambda mask: mask.replace("0", "2"),
        lambda mask: mask.replace("0", "x"),
        list], ids=["digit_2", "letter_x", "json_list"])
    def test_malformed_mask_exits_3_naming_the_file(
            self, tmp_path, smoke_run, capsys, edit):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        path = out / "models" / "sdae_ivs-depth1-tuned.json"
        rec = json.loads(path.read_text())
        assert "0" in rec["layers"][0]["mask"]
        rec["layers"][0]["mask"] = edit(rec["layers"][0]["mask"])
        path.write_text(json.dumps(rec))
        capsys.readouterr()
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 3
        assert capsys.readouterr().err == (
            f"error: {path} has a malformed layers[0].mask: not a string of "
            "0s and 1s\n")
        assert not (out / "eval.json").exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:300], "is not valid JSON: "),
        (edited(lambda r: r["top"].pop("weights")),
         "lacks the field 'weights'"),
        (edited(lambda r: r["top"].update(weights=5)),
         "has a malformed top.weights: 'int' object is not subscriptable"),
        (edited(lambda r: r["top"].update(
            weights={"data": "AAAA", "shape": [3, 7]})),
         "has a malformed top.weights: buffer size must be a multiple"),
        (edited(lambda r: r["layers"][0].update(mask=7)),
         "has a malformed layers[0].mask: not a string of 0s and 1s"),
        (edited(lambda r: r.update(layers=5)),
         "has a malformed layers: 'int' object is not a list"),
        (edited(lambda r: r.update(layers=[])), "has no layers"),
        (edited(lambda r: r.update(format="other")),
         "is not a sdae-ivs-model file"),
    ], ids=["truncated", "no_top_weights", "int_top_weights",
            "short_top_weights", "int_layer_mask", "int_layers",
            "no_layers", "other_format"])
    def test_malformed_model_exits_3_naming_the_file(
            self, tmp_path, smoke_run, capsys, damage, message):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        path = out / "models" / "sdae-depth1-tuned.json"
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 3
        assert capsys.readouterr().err.startswith(f"error: {path} {message}")

    def test_version_4_file_exits_3_naming_the_file_and_both_versions(
            self, tmp_path, smoke_run, capsys):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        path = out / "models" / "sdae-depth1-tuned.json"
        path.write_text(edited(lambda r: r.update(version=4))(
            path.read_text()))
        capsys.readouterr()
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 3
        assert capsys.readouterr().err == (
            f"error: {path} has sdae-ivs-model version 4; this program "
            "reads version 6\n")
        assert not (out / "eval.json").exists()

    @pytest.mark.parametrize("where", ["layer", "top"])
    def test_one_dimensional_weights_exit_3_naming_the_file(
            self, tmp_path, smoke_run, capsys, where):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        path = out / "models" / "sdae-depth1-tuned.json"
        rec = json.loads(path.read_text())
        record = rec["layers"][0] if where == "layer" else rec["top"]
        weights = record["weights"]
        weights["shape"] = [int(np.prod(weights["shape"]))]
        path.write_text(json.dumps(rec))
        capsys.readouterr()
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {path}: weights must be (")

    @staticmethod
    def array_record(arr):
        """The model file's record of arr."""
        return {"shape": list(arr.shape), "data": base64.b64encode(
            arr.astype("<f4").tobytes()).decode("ascii")}

    @pytest.mark.parametrize("edit, message", [
        (lambda rec, h, k: rec["top"].update(
            weights=np.zeros((1, h)), biases=np.zeros(1)),
         "need at least two classes"),
        (lambda rec, h, k: rec["layers"][0].update(
            encoder_bias=np.zeros(h + 1)),
         "bias widths do not match the weight matrix"),
        (lambda rec, h, k: rec["top"].update(
            weights=np.zeros((k, h + 1)), biases=np.zeros(k)),
         "top classifier width != last hidden width"),
    ], ids=["one_class_top", "encoder_bias_width", "top_width"])
    def test_widths_that_disagree_exit_3_naming_the_file(
            self, tmp_path, smoke_run, capsys, edit, message):
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        path = out / "models" / "sdae-depth1-tuned.json"
        rec = json.loads(path.read_text())
        # edit(rec, H, K) puts arrays in; each is written as its record.
        k, h = rec["top"]["weights"]["shape"]
        edit(rec, h, k)
        for record in (rec["top"], rec["layers"][0]):
            for key, value in record.items():
                if isinstance(value, np.ndarray):
                    record[key] = self.array_record(value)
        path.write_text(json.dumps(rec))
        capsys.readouterr()
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_layer_2_that_reads_another_width_exits_3_naming_the_file(
            self, tmp_path, capsys):
        patched = tmp_path / "deep.ini"
        patched.write_text(SMOKE.read_text()
                           .replace("depths = 1", "depths = 2")
                           .replace("variants = both", "variants = sdae"))
        out = tmp_path / "deep"
        assert run_cli("run", "--config", patched, "--out", out) == 0
        path = out / "models" / "sdae-depth2-tuned.json"
        rec = json.loads(path.read_text())
        # Layer 1 loses its last unit, which layer 2 still reads.
        first = rec["layers"][0]
        h, m = first["weights"]["shape"]
        for key, arr in (("weights", np.zeros((h - 1, m))),
                         ("encoder_bias", np.zeros(h - 1))):
            first[key] = self.array_record(arr)
        path.write_text(json.dumps(rec))
        capsys.readouterr()
        assert run_cli("eval", "--config", patched, "--out", out) == 3
        assert capsys.readouterr().err == \
            f"error: {path}: layer 2 reads {h} inputs, not {h - 1}\n"


class TestDivergence:
    def test_overflowing_dae_learning_rate_exits_3_naming_layer_and_epoch(
            self, tmp_path, capsys):
        patched = tmp_path / "diverge.ini"
        patched.write_text(SMOKE.read_text().replace(
            "learning_rate = 0.1\nepochs = 5",
            "learning_rate = 1e308\nepochs = 5"))
        assert run_cli("run", "--config", patched, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: layer 1: DAE pre-training diverged at "
                              "epoch 1") and err.count("\n") == 1

    def test_overflowing_pending_dae_exits_3_with_one_line(self, tmp_path,
                                                            capsys):
        # 600 units over plain SDAE's 30 inputs take pending steps
        # (numerics.PENDING_SIZE), whose overflow sgd finds at the write-back
        # before check_finite.
        patched = tmp_path / "diverge.ini"
        patched.write_text(SMOKE.read_text().replace(
            "variants = both", "variants = sdae").replace(
            "hidden_units = 8", "hidden_units = 600").replace(
            "learning_rate = 0.1\nepochs = 5",
            "learning_rate = 1e308\nepochs = 5"))
        assert run_cli("run", "--config", patched, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: layer 1: DAE pre-training diverged at "
                              "epoch 1") and err.count("\n") == 1

    @staticmethod
    def finetune_rate(tmp_path, rate):
        patched = tmp_path / "diverge.ini"
        patched.write_text(SMOKE.read_text().replace(
            "[finetune]\nlearning_rate = 0.1", f"[finetune]\nlearning_rate = {rate}"))
        return patched

    # Both fits read [finetune] and step float32 networks: 1e308 is past
    # float32's range, so the top MLR overflows, while at 1e30 its bounded
    # steps stay finite and fine-tuning's do not.
    @pytest.mark.parametrize("rate, phase", [
        ("1e308", "depth 1 top MLR"), ("1e30", "depth 1 fine-tuning")],
        ids=["top_mlr", "fine_tuning"])
    def test_overflowing_finetune_learning_rate_exits_3_naming_the_phase(
            self, tmp_path, capsys, rate, phase):
        patched = self.finetune_rate(tmp_path, rate)
        assert run_cli("run", "--config", patched, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {phase} diverged at epoch 1") \
            and err.count("\n") == 1

    def test_rate_past_float32_prints_one_line_and_no_cast_warning(
            self, tmp_path):
        # In a process of its own, as a user runs it: numpy would print
        # "overflow encountered in cast" when sgd rounds the rate to the
        # networks' dtype outside its errstate.
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "sdae_ivs", "run", "--config",
             str(self.finetune_rate(tmp_path, "1e308")), "--out",
             str(tmp_path / "o")], env=env, capture_output=True, text=True)
        assert done.returncode == 3
        assert done.stderr.startswith("error: depth 1 top MLR diverged at "
                                      "epoch 1") \
            and done.stderr.count("\n") == 1

    # Selection fits read [ivs]: each names where it runs, layer 1 of the
    # SDAE-IVS stack or the pattern export, which the plain SDAE variant
    # reaches first.
    @pytest.mark.parametrize("verb, export, phase", [
        ("run", "false", "layer 1: MLR training"),
        ("run", "true", "pattern export: MLR training"),
        ("ivs", "true", "layer 1: MLR training")],
        ids=["run", "run_patterns", "ivs"])
    def test_overflowing_ivs_learning_rate_exits_3_naming_the_fit(
            self, tmp_path, capsys, verb, export, phase):
        patched = tmp_path / "diverge.ini"
        patched.write_text(SMOKE.read_text().replace(
            "max_iterations = 4\nlearning_rate = 0.1",
            "max_iterations = 4\nlearning_rate = 1e308").replace(
            "export_patterns = true", f"export_patterns = {export}"))
        assert run_cli(verb, "--config", patched, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {phase} diverged at epoch 1") \
            and err.count("\n") == 1

    def test_a_failed_run_leaves_no_report_of_an_earlier_one(
            self, tmp_path, smoke_run, capsys):
        # Rerun into a finished run's directory: the plain variant writes
        # its models over the earlier ones before selection diverges, so
        # the earlier report, sidecar and summary must not survive to vouch
        # for them.
        out = tmp_path / "o"
        shutil.copytree(smoke_run, out, ignore=shutil.ignore_patterns(
            "eval.json"))
        patched = tmp_path / "diverge.ini"
        patched.write_text(SMOKE.read_text().replace(
            "max_iterations = 4\nlearning_rate = 0.1",
            "max_iterations = 4\nlearning_rate = 1e308").replace(
            "export_patterns = true", "export_patterns = false"))
        assert run_cli("run", "--config", patched, "--seed", "43", "--out",
                       out) == 3
        model = Path("models") / "sdae-depth1-tuned.json"
        assert (out / model).read_bytes() != (smoke_run / model).read_bytes()
        for name in ("report.json", "summary.txt", "wall_time.txt"):
            assert not (out / name).exists()
        capsys.readouterr()
        assert run_cli("eval", "--config", SMOKE, "--out", out) == 2
        assert capsys.readouterr().err.startswith("data error: no report at ")


# The files of run's layer-1 selection, which the ivs verb also writes.
IVS_FILES = ("csv/sdae_ivs-layer1-history.csv",
             "csv/sdae_ivs-layer1-importance.csv",
             "images/sdae_ivs-importance.pgm", "images/sdae_ivs-mask.pgm")


class TestIvsCommand:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "ivs_out"
        assert run_cli("ivs", "--config", SMOKE, "--out", out) == 0
        assert sorted(str(f.relative_to(out)) for f in out.rglob("*")
                      if f.is_file()) == sorted(IVS_FILES + ("mask.txt",))
        history = (out / IVS_FILES[0]).read_text().splitlines()
        assert history[0] == "iteration,kept,validation_error"
        assert len(history) > 1
        mask = (out / "mask.txt").read_text().strip()
        assert set(mask) <= {"0", "1"} and len(mask) == 30

    def test_selection_is_the_layer1_selection_of_run(self, tmp_path,
                                                      smoke_run):
        out = tmp_path / "ivs_out"
        assert run_cli("ivs", "--config", SMOKE, "--out", out) == 0
        mask = (out / "mask.txt").read_text().strip()
        report = json.loads((smoke_run / "report.json").read_text())
        entry = report["results"]["sdae_ivs"]["depth1"]
        for key in ("pretrained_model", "model"):
            model = load_stack(smoke_run / entry[key])
            assert pack_mask(model.mask) == mask
        # The importances carry the pre-classifiers' bits, so they show
        # that both verbs drew the same stream, even where masks agree.
        for name in IVS_FILES:
            assert (out / name).read_bytes() == \
                (smoke_run / name).read_bytes(), name

    def test_zero_threshold_one_iteration(self, tmp_path):
        patched = tmp_path / "zero.ini"
        patched.write_text(SMOKE.read_text().replace("threshold = 0.3",
                                                     "threshold = 0.0"))
        out = tmp_path / "zero_out"
        assert run_cli("ivs", "--config", patched, "--out", out) == 0
        rows = (out / IVS_FILES[0]).read_text().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[1] == "30"

    def test_missing_threshold_names_field(self, tmp_path):
        patched = tmp_path / "broken.ini"
        patched.write_text(SMOKE.read_text().replace("threshold = 0.3", ""))
        assert run_cli("ivs", "--config", patched,
                       "--out", tmp_path / "x") == 1

    def test_popcounts_fall_until_convergence_on_planted_config(self, tmp_path):
        out = tmp_path / "planted"
        config = REPO / "configs" / "paired_synthetic.ini"
        assert run_cli("ivs", "--config", config, "--out", out) == 0
        rows = (out / IVS_FILES[0]).read_text().splitlines()[1:]
        kept = [int(r.split(",")[1]) for r in rows]
        # Masks shrink monotonically, so equal popcounts mean an identical
        # mask: the history must fall strictly, then flatten into the
        # convergence plateau that triggers the stop.
        plateau = False
        for a, b in zip(kept, kept[1:]):
            assert b <= a
            if b == a:
                plateau = True
            else:
                assert not plateau
        assert kept[-1] < 100
        assert kept[0] < 100 or len(kept) == 1


class TestConfigKeys:
    """Every key either takes effect or is rejected with exit 1."""

    def run_patched(self, tmp_path, old, new):
        patched = tmp_path / "patched.ini"
        text = SMOKE.read_text()
        assert old in text
        patched.write_text(text.replace(old, new))
        return run_cli("run", "--config", patched, "--out", tmp_path / "o")

    def test_misspelled_key_rejected(self, tmp_path, capsys):
        assert self.run_patched(tmp_path, "max_iterations = 4",
                                "max_iteration = 1") == 1
        assert "[ivs] max_iteration" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["minibatch_size = 20", "l2 = 0.01"])
    def test_finetune_batching_keys_rejected(self, tmp_path, capsys, line):
        assert self.run_patched(tmp_path, "[finetune]\n",
                                f"[finetune]\n{line}\n") == 1
        assert f"[finetune] {line.split()[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,message", [
        ("threshold = 0.3", "threshold = 2", "[ivs] threshold must lie in [0, 1]"),
        ("max_iterations = 4", "max_iterations = 0",
         "[ivs] max_iterations must be >= 1"),
        ("max_iterations = 4\nlearning_rate = 0.1",
         "max_iterations = 4\nlearning_rate = -1",
         "[ivs] learning_rate must be > 0"),
        ("patience = 2", "patience = 0", "[finetune] patience must be >= 1"),
        ("[finetune]\nlearning_rate = 0.1", "[finetune]\nlearning_rate = -1",
         "[finetune] learning_rate must be > 0"),
        ("max_epochs = 5", "max_epochs = -1", "[finetune] max_epochs must be >= 0"),
        ("hidden_units = 8", "hidden_units = 0", "[dae] hidden_units must be >= 1"),
        ("[run]\n", "[dae.1]\nnoise_sd = -1\n\n[run]\n",
         "[dae.1] noise_sd must be >= 0"),
        ("[run]\n", "[ivs.1]\nminibatch_size = 0\n\n[run]\n",
         "[ivs.1] minibatch_size must be >= 1"),
        ("noise_sd = 0.2\nlearning_rate = 0.1",
         "noise_sd = 0.2\nlearning_rate = 0", "[dae] learning_rate must be > 0"),
        ("\nepochs = 5", "\nepochs = -1", "[dae] epochs must be >= 0"),
        ("max_epochs = 10", "max_epochs = -1", "[ivs] max_epochs must be >= 0"),
        ("patience = 3", "patience = 0", "[ivs] patience must be >= 1"),
    ])
    def test_out_of_range_trainer_value_is_a_config_error(
            self, tmp_path, capsys, old, new, message):
        assert self.run_patched(tmp_path, old, new) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("old,new,named", [
        ("relevant = 6", "relevant = 0", "[data] relevant must be >= 1"),
        ("irrelevant = 24", "irrelevant = -1",
         "[data] irrelevant must be >= 0"),
        ("classes = 3", "classes = 1", "[data] classes must be >= 2"),
        ("separation = 3.0", "separation = 0", "[data] separation must be > 0"),
        ("feature_noise_sd = 0.4", "feature_noise_sd = -1",
         "[data] feature_noise_sd must be >= 0"),
        ("train_size = 120", "train_size = -5",
         "[data] train_size must be >= 1"),
        (None, "source = amat\ntrain = nowhere/a.amat\n"
         "test = nowhere/b.amat\ntest_size = -1\n",
         "[data] test_size must be >= 0"),
        ("seed = 42", "seed = -1", "[run] seed must be >= 0"),
        ("depths = 1", "depths = 1 1", "[stack] depths: '1 1' (must be dis"),
    ], ids=["relevant", "irrelevant", "classes", "separation",
            "feature_noise_sd", "train_size", "amat_test_size", "seed",
            "repeated_depth"])
    def test_value_mistake_is_a_config_error_naming_the_key(
            self, tmp_path, capsys, old, new, named):
        if old is None:
            # Swap the synthetic keys of [data] for amat ones; shape stays.
            old, new = SMOKE.read_text().split("shape")[0], f"[data]\n{new}"
        assert self.run_patched(tmp_path, old, new) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("old,named", [
        ("separation = 3.0", "[data] separation"),
        ("feature_noise_sd = 0.4", "[data] feature_noise_sd"),
        ("\nnoise_sd = 0.2", "[dae] noise_sd"),
        ("noise_sd = 0.2\nlearning_rate = 0.1", "[dae] learning_rate"),
        ("threshold = 0.3", "[ivs] threshold"),
        ("max_iterations = 4\nlearning_rate = 0.1", "[ivs] learning_rate"),
        ("[finetune]\nlearning_rate = 0.1", "[finetune] learning_rate"),
    ], ids=["data-separation", "data-feature_noise_sd", "dae-noise_sd",
            "dae-learning_rate", "ivs-threshold", "ivs-learning_rate",
            "finetune-learning_rate"])
    def test_non_finite_real_is_a_config_error_naming_the_key(
            self, tmp_path, capsys, old, named, value):
        new = old.rsplit("= ", 1)[0] + f"= {value}"
        assert self.run_patched(tmp_path, old, new) == 1
        assert capsys.readouterr().err == (
            f"config error: bad value for {named}: '{value}' "
            "(must be finite)\n")

    # Each line sets a removed key to its former default.
    @pytest.mark.parametrize("section,line", [
        ("dae", "loss = cross_entropy"), ("dae", "decoder = sigmoid"),
        ("dae.1", "loss = cross_entropy"), ("ivs", "l2 = 0.0"),
        ("ivs.1", "l2 = 0.0"),
    ])
    def test_removed_objective_keys_are_unknown(self, tmp_path, capsys,
                                                section, line):
        old = "[run]\n" if "." in section else f"[{section}]\n"
        new = f"[{section}]\n{line}\n" + (f"\n{old}" if "." in section else "")
        assert self.run_patched(tmp_path, old, new) == 1
        assert f"unknown key [{section}] {line.split()[0]}" in \
            capsys.readouterr().err

    def test_negative_seed_flag_rejected_naming_it(self, tmp_path, capsys):
        assert run_cli("run", "--config", SMOKE, "--seed", -1,
                       "--out", tmp_path / "o") == 1
        assert "--seed must be a non-negative integer" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("variants", ["both", "sdae"])
    @pytest.mark.parametrize("key", ["train_size", "valid_size"])
    def test_empty_synthetic_split_is_refused_before_any_output(
            self, tmp_path, capsys, key, variants):
        patched = tmp_path / "patched.ini"
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = 0", SMOKE.read_text())
        patched.write_text(text.replace("variants = both",
                                        f"variants = {variants}"))
        for verb in ("run", "ivs"):
            assert run_cli(verb, "--config", patched,
                           "--out", tmp_path / "o") == 1
            assert capsys.readouterr().err == \
                f"config error: [data] {key} must be >= 1\n"
        assert not (tmp_path / "o").exists()

    @staticmethod
    def deep_selection_config(tmp_path, variants, section):
        patched = tmp_path / "patched.ini"
        patched.write_text(SMOKE.read_text()
                           .replace("depths = 1", "depths = 1 2")
                           .replace("variants = both",
                                    f"variants = {variants}")
                           .replace("[run]\n", f"[{section}]\nthreshold = 0.9"
                                                "\n\n[run]\n"))
        return patched

    def test_selection_plan_above_layer_1_without_selection_rejected(
            self, tmp_path, capsys):
        # No variant selects, so [ivs.2] would change nothing.
        patched = self.deep_selection_config(tmp_path, "sdae", "ivs.2")
        for verb in ("run", "ivs", "eval"):
            assert run_cli(verb, "--config", patched,
                           "--out", tmp_path / "o") == 1
            assert capsys.readouterr().err == (
                "config error: section [ivs.2] has no effect: no variant "
                "selects above layer 1\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("variants, section, layer", [
        ("sdae_ivs", "ivs.2", 2), ("both", "ivs.2", 2), ("sdae", "ivs.1", 1)])
    def test_selection_plan_that_is_read_is_accepted(
            self, tmp_path, variants, section, layer):
        # Without selection, the ivs verb and export_patterns still read
        # layer 1's plan.
        cfg = load_config(self.deep_selection_config(tmp_path, variants,
                                                     section))
        assert [plan.threshold for plan in cfg.ivs] == \
            [0.9 if n == layer else 0.3 for n in (1, 2)]

    def test_section_beyond_the_deepest_layer_rejected(self, tmp_path, capsys):
        assert self.run_patched(tmp_path, "[run]\n",
                                "[dae.2]\nhidden_units = 4\n\n[run]\n") == 1
        assert "[dae.2]" in capsys.readouterr().err

    def test_default_section_rejected(self, tmp_path, capsys):
        assert self.run_patched(tmp_path, "[data]\n",
                                "[DEFAULT]\nseed = 3\n\n[data]\n") == 1
        assert "[DEFAULT]" in capsys.readouterr().err

    def test_amat_label_base_on_synthetic_data_rejected(self, tmp_path):
        assert self.run_patched(tmp_path, "source = synthetic\n",
                                "source = synthetic\nlabels = one\n") == 1

    def test_selection_on_the_top_codes_rejected(self, tmp_path, capsys):
        assert self.run_patched(tmp_path, "[stack]\n",
                                "[stack]\nfinal_ivs = true\n") == 1
        assert "unknown key [stack] final_ivs" in capsys.readouterr().err

    @staticmethod
    def without_shape(tmp_path, reconstruct, patterns):
        patched = tmp_path / "no-shape.ini"
        patched.write_text(SMOKE.read_text().replace("shape = 5 6\n", "")
                           .replace("reconstruct_examples = 6\n"
                                    "export_patterns = true",
                                    f"reconstruct_examples = {reconstruct}\n"
                                    f"export_patterns = {patterns}"))
        return patched

    @pytest.mark.parametrize("reconstruct,patterns,key", [
        (6, "false", "reconstruct_examples"),
        (0, "true", "export_patterns"),
    ])
    def test_image_key_without_shape_rejected(self, tmp_path, capsys,
                                              reconstruct, patterns, key):
        patched = self.without_shape(tmp_path, reconstruct, patterns)
        assert run_cli("run", "--config", patched, "--out", tmp_path / "o") == 1
        assert f"[run] {key} needs [data] shape" in capsys.readouterr().err
        off = self.without_shape(tmp_path, 0, "false")
        assert load_config(off).variable_shape is None

    @pytest.mark.parametrize("text, message", [
        (lambda text: text.replace("shape = 5 6", "shape = 2 3 4"),
         "bad value for [data] shape: '2 3 4' (must be two positive "
         "integers H W)"),
        (lambda text: text.replace("[data]\n", ""), "cannot parse "),
    ], ids=["three_dimensions", "no_section_header"])
    def test_malformed_config_text_is_a_config_error(self, tmp_path, capsys,
                                                      text, message):
        patched = tmp_path / "patched.ini"
        patched.write_text(text(SMOKE.read_text()))
        assert run_cli("run", "--config", patched, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "o").exists()

    def test_run_without_shape_makes_no_images_directory(self, tmp_path):
        patched = self.without_shape(tmp_path, 0, "false")
        assert run_cli("run", "--config", patched, "--out", tmp_path / "o") == 0
        assert (tmp_path / "o" / "report.json").is_file()
        assert not (tmp_path / "o" / "images").exists()

    def test_negative_reconstruct_examples_rejected(self, tmp_path, capsys):
        assert self.run_patched(tmp_path, "reconstruct_examples = 6",
                                "reconstruct_examples = -4") == 1
        assert "[run] reconstruct_examples must be >= 0" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "ivs"])
    def test_shape_that_does_not_fit_the_data_is_a_data_error(
            self, tmp_path, capsys, verb):
        patched = tmp_path / "patched.ini"
        patched.write_text(SMOKE.read_text().replace("shape = 5 6",
                                                     "shape = 5 5"))
        assert run_cli(verb, "--config", patched, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "[data] shape 5 5" in err and "25" in err and "30" in err


def config_table_rows(text):
    """(section, key, default) of each row of the README's config table."""
    table = text.split("## Config format", 1)[1].split("\n## ", 1)[0]
    rows = set()
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        section = re.fullmatch(r"`\[(\w+)\]`\s*(\w*)", cells[0])
        if section and len(cells) == 4:
            rows.add((" ".join(filter(None, section.groups())),
                      cells[1].strip("`"), cells[3].strip("`")))
    return rows


def test_readme_config_table_lists_every_key_and_default():
    readme = config_table_rows((REPO / "README.md").read_text())
    table = {(section, key, "none" if default is None else default)
             for section, keys in KEYS.items()
             for key, (_, _, default) in keys.items()}
    assert readme - table == set()
    assert table - readme == set()


def test_readme_cli_block_lists_every_verb():
    block = (REPO / "README.md").read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    readme = {line.split()[1] for line in block.splitlines()}
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert readme - sub.choices.keys() == set()
    assert sub.choices.keys() - readme == set()


def test_importing_the_package_loads_no_numpy():
    code = "import sdae_ivs, sys; assert 'numpy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    assert subprocess.run([sys.executable, "-c", code],
                          env=env).returncode == 0


WIDE = """
[data]
source = synthetic
relevant = 100
irrelevant = 684
classes = 3
separation = 3.0
feature_noise_sd = 0.4
train_size = 300
valid_size = 100
test_size = 100
[stack]
depths = 1
variants = sdae
[dae]
hidden_units = 100
noise_sd = 0.2
learning_rate = 0.1
epochs = 1
[ivs]
threshold = 0.3
learning_rate = 0.1
[finetune]
learning_rate = 0.1
max_epochs = 2
patience = 2
"""


def test_run_is_byte_identical_on_one_and_two_blas_threads(tmp_path):
    # The (300 x 784)(784 x 100) encode of the training split sums in a
    # different order on two OpenBLAS threads; the CLI pins one.
    config = tmp_path / "wide.ini"
    config.write_text(WIDE)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "sdae_ivs", "run", "--config",
                        str(config), "--out", str(out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        outputs.append(out)
    names = ["report.json"] + [f"models/{p.name}" for p in
                               sorted((outputs[0] / "models").iterdir())]
    assert len(names) == 3
    for name in names:
        assert (outputs[0] / name).read_bytes() == \
            (outputs[1] / name).read_bytes(), name


class TestAmatPlumbing:
    """load_splits branches used by the corpus configs, on generated files."""

    @staticmethod
    def write_amat(path, n, m, seed, classes=3):
        rng = derive_rng(seed)
        rows = []
        for _ in range(n):
            feats = " ".join(f"{v:.4f}" for v in rng.uniform(size=m))
            rows.append(f"{feats} {int(rng.integers(0, classes))}")
        path.write_text("\n".join(rows) + "\n")

    def test_split_single_train_file(self, tmp_path):
        from sdae_ivs.config import KEYS, load_config
        from sdae_ivs.runner import load_splits
        self.write_amat(tmp_path / "train.amat", 60, 8, 1)
        config = tmp_path / "c.ini"
        config.write_text(
            f"[data]\nsource = amat\ntrain = {tmp_path / 'train.amat'}\n"
            "train_size = 40\nvalid_size = 10\nshape = 2 4\n"
            "[dae]\nhidden_units = 4\nnoise_sd = 0.1\nlearning_rate = 0.1\n"
            "epochs = 2\n[ivs]\nthreshold = 0.3\nlearning_rate = 0.1\n"
            "[finetune]\nlearning_rate = 0.1\n")
        cfg = load_config(config)
        train, valid, test = load_splits(cfg)
        assert (train.n, valid.n, test.n) == (40, 10, 10)
        assert cfg.variable_shape == (2, 4) and train.m == 8

    def test_separate_files_with_truncation(self, tmp_path):
        from sdae_ivs.config import KEYS, load_config
        from sdae_ivs.runner import load_splits
        self.write_amat(tmp_path / "train.amat", 50, 8, 2)
        self.write_amat(tmp_path / "test.amat", 40, 8, 3)
        config = tmp_path / "c.ini"
        config.write_text(
            f"[data]\nsource = amat\ntrain = {tmp_path / 'train.amat'}\n"
            f"test = {tmp_path / 'test.amat'}\n"
            "train_size = 30\nvalid_size = 20\ntest_size = 25\n"
            "[dae]\nhidden_units = 4\nnoise_sd = 0.1\nlearning_rate = 0.1\n"
            "epochs = 2\n[ivs]\nthreshold = 0.3\nlearning_rate = 0.1\n"
            "[finetune]\nlearning_rate = 0.1\n")
        train, valid, test = load_splits(load_config(config))
        assert (train.n, valid.n, test.n) == (30, 20, 25)

    def test_eval_parses_only_the_test_file(self, tmp_path):
        self.write_amat(tmp_path / "train.amat", 50, 8, 4)
        self.write_amat(tmp_path / "test.amat", 30, 8, 5)
        config = tmp_path / "c.ini"
        config.write_text(
            f"[data]\nsource = amat\ntrain = {tmp_path / 'train.amat'}\n"
            f"test = {tmp_path / 'test.amat'}\n"
            "train_size = 30\nvalid_size = 20\ntest_size = 25\n"
            "[stack]\nvariants = both\n"
            "[dae]\nhidden_units = 4\nnoise_sd = 0.1\nlearning_rate = 0.1\n"
            "epochs = 2\n[ivs]\nthreshold = 0.3\nlearning_rate = 0.1\n"
            "max_epochs = 3\n[finetune]\nlearning_rate = 0.1\nmax_epochs = 2\n")
        out = tmp_path / "o"
        assert run_cli("run", "--config", config, "--out", out) == 0
        (tmp_path / "train.amat").unlink()
        assert run_cli("eval", "--config", config, "--out", out) == 0
        recomputed = json.loads((out / "eval.json").read_text())
        entries = [e for depths in recomputed.values() for e in depths.values()]
        assert len(entries) == 2
        assert all(e["matches_report"] and e["test_n"] == 25 for e in entries)

    def three_file_config(self, tmp_path, train, valid, test):
        """A config over train/valid/test files of (rows, width, classes)."""
        return self.amat_config(tmp_path, dict(train=train, valid=valid,
                                               test=test))

    def amat_config(self, tmp_path, files, sizes=""):
        """A config over the files {name: (rows, width, classes)}, with the
        [data] lines sizes."""
        lines = sizes
        for seed, (name, (n, m, k)) in enumerate(files.items()):
            self.write_amat(tmp_path / f"{name}.amat", n, m, seed, k)
            lines += f"{name} = {tmp_path / f'{name}.amat'}\n"
        config = tmp_path / "c.ini"
        config.write_text(
            "[data]\nsource = amat\n" + lines +
            "[stack]\nvariants = both\n"
            "[dae]\nhidden_units = 4\nnoise_sd = 0.1\nlearning_rate = 0.1\n"
            "epochs = 2\n[ivs]\nthreshold = 0.3\nlearning_rate = 0.1\n"
            "max_epochs = 3\n[finetune]\nlearning_rate = 0.1\nmax_epochs = 2\n")
        return config

    def test_test_size_cuts_the_rest_of_the_train_file(self, tmp_path):
        # 60 rows: 40 to train, 10 to validate, 7 of the other 10 to test.
        config = self.amat_config(
            tmp_path, dict(train=(60, 8, 3)),
            "train_size = 40\nvalid_size = 10\ntest_size = 7\n")
        out = tmp_path / "o"
        assert run_cli("run", "--config", config, "--out", out) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert [entry["depth1"]["test_n"] for entry in results.values()] \
            == [7, 7]

    # A split size past the rows there are names the file, the key and
    # both counts.
    @pytest.mark.parametrize("names, sizes, where, message", [
        (("train",), (500, 10, 0), "train",
         "train_size asks for 500 rows, but the file holds 100"),
        (("train",), (95, 10, 0), "train",
         "valid_size asks for 10 rows, but train_size leaves 5"),
        (("train",), (60, 20, 30), "train",
         "test_size asks for 30 rows, but train_size and valid_size leave 20"),
        (("train", "valid", "test"), (500, 0, 0), "train",
         "train_size asks for 500 rows, but the file holds 100"),
        (("train", "valid", "test"), (0, 0, 30), "test",
         "test_size asks for 30 rows, but the file holds 20"),
    ], ids=["train_size", "valid_size", "test_size_of_the_rest",
            "train_size_beside_a_valid_file", "test_size_of_a_test_file"])
    def test_split_size_past_the_rows_is_a_data_error_naming_the_key(
            self, tmp_path, capsys, names, sizes, where, message):
        rows = dict(train=(100, 8, 3), valid=(20, 8, 3), test=(20, 8, 3))
        config = self.amat_config(
            tmp_path, {name: rows[name] for name in names},
            "".join(f"{key} = {n}\n" for key, n in zip(
                ("train_size", "valid_size", "test_size"), sizes) if n))
        out = tmp_path / "o"
        assert run_cli("run", "--config", config, "--out", out) == 2
        assert capsys.readouterr().err == \
            f"data error: {tmp_path / where}.amat: [data] {message}\n"
        assert not out.exists()

    def test_split_files_take_the_train_files_classes(self, tmp_path):
        # The valid file holds labels 0-1 only, the train file 0-2.
        config = self.three_file_config(tmp_path, (50, 8, 3), (20, 8, 2),
                                        (20, 8, 3))
        train, valid, test = runner.load_splits(load_config(config))
        assert valid.labels.max() == 2
        assert train.num_classes == valid.num_classes == test.num_classes == 3
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 0

    @pytest.mark.parametrize("split, shape, message", [
        ("valid", (20, 8, 4), "more than the train file's 3"),
        ("test", (20, 7, 3), "rows hold 7 variables, but the train file's "
                             "hold 8")], ids=["valid_labels", "test_width"])
    def test_split_file_unlike_the_train_file_is_a_data_error(
            self, tmp_path, capsys, split, shape, message):
        files = {"valid": (20, 8, 3), "test": (20, 8, 3), split: shape}
        config = self.three_file_config(tmp_path, (50, 8, 3), files["valid"],
                                        files["test"])
        out = tmp_path / "o"
        assert run_cli("run", "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / split}.amat: ")
        assert message in err
        assert not out.exists()  # found before any training

    @pytest.mark.parametrize("verb", ["run", "ivs"])
    @pytest.mark.parametrize("last, k", [(0, 1), (500, 501)],
                             ids=["one_class", "stray_label"])
    def test_train_file_class_count_is_checked_before_training(
            self, tmp_path, capsys, verb, last, k):
        # 60 rows of 6 features: labels 0 only, or 0-2 and one stray 500.
        rng = derive_rng(9)
        labels = [*(rng.integers(0, 3, size=59) if last else [0] * 59), last]
        train = tmp_path / "train.amat"
        train.write_text("".join(
            " ".join(f"{v:.4f}" for v in rng.uniform(size=6)) + f" {label}\n"
            for label in labels))
        config = tmp_path / "c.ini"
        config.write_text(
            f"[data]\nsource = amat\ntrain = {train}\n"
            "train_size = 40\nvalid_size = 10\n[stack]\nvariants = sdae\n"
            "[dae]\nhidden_units = 4\nnoise_sd = 0.1\nlearning_rate = 0.1\n"
            "epochs = 2\n[ivs]\nthreshold = 0.3\nlearning_rate = 0.1\n"
            "[finetune]\nlearning_rate = 0.1\n")
        out = tmp_path / "o"
        assert run_cli(verb, "--config", config, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"data error: {train}: the labels span K = {k} classes over 60 "
            "rows, but training needs 2 <= K <= 60\n")
        assert not out.exists()  # found before any training

    # Split mistakes are config errors (exit 1), found before any file is
    # read: the data files named here do not exist.
    @staticmethod
    def write_split_config(path, data_lines):
        path.write_text(
            "[data]\nsource = amat\ntrain = nowhere/train.amat\n"
            + data_lines +
            "[dae]\nhidden_units = 4\nnoise_sd = 0.1\nlearning_rate = 0.1\n"
            "epochs = 2\n[ivs]\nthreshold = 0.3\nlearning_rate = 0.1\n"
            "[finetune]\nlearning_rate = 0.1\n")

    def test_valid_file_without_test_file_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.ini"
        self.write_split_config(config, "valid = nowhere/valid.amat\n")
        with pytest.raises(ConfigError, match="needs a test file"):
            load_config(config)
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 1
        assert "[data] needs a test file" in capsys.readouterr().err

    def test_single_file_split_without_train_size_rejected(self, tmp_path,
                                                           capsys):
        config = tmp_path / "c.ini"
        self.write_split_config(config, "test = nowhere/test.amat\n"
                                        "valid_size = 10\n")
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 1
        assert "[data] needs train_size" in capsys.readouterr().err

    def test_single_file_split_without_valid_size_rejected(self, tmp_path,
                                                           capsys):
        config = tmp_path / "c.ini"
        self.write_split_config(config, "test = nowhere/test.amat\n"
                                        "train_size = 10\n")
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            "config error: [data] needs either a valid file or valid_size\n")

    def test_valid_size_with_valid_file_rejected(self, tmp_path, capsys):
        # valid_size splits the train file, so beside a valid file it
        # would do nothing.
        config = tmp_path / "c.ini"
        self.write_split_config(config, "valid = nowhere/valid.amat\n"
                                        "test = nowhere/test.amat\n"
                                        "valid_size = 5\n")
        with pytest.raises(ConfigError, match=r"\[data\] valid_size"):
            load_config(config)
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 1
        assert "[data] valid_size" in capsys.readouterr().err


class TestArrayTypes:
    # The array fields of each dataclass.
    FIELDS = {Dataset: ("x", "labels"), VariableMask: ("bits",),
              DaeModel: ("weights", "encoder_bias", "decoder_bias"),
              MlrModel: ("weights", "biases")}
    # The phase of the fits that select on the loaded rows.
    LAYER1_SELECTION = "layer 1: MLR training"

    @pytest.mark.parametrize("source", ["synthetic", "amat"])
    def test_every_verb_builds_its_arrays_with_their_types(
            self, tmp_path, monkeypatch, source):
        # No constructor converts, so the program must hand each one the
        # ndarray type that load_amat, gen_synthetic, numerics.pack,
        # stack.NETWORK and serialize fix: the loaded rows and the layer-1
        # selection in float64, every DAE and every other MLR in float32.
        seen, loaded, layer1 = [], [], []
        for cls, names in self.FIELDS.items():
            def record(obj, _cls=cls, _names=names, _init=cls.__post_init__):
                seen.extend((_cls, name, getattr(obj, name)) for name in _names)
                _init(obj)
            monkeypatch.setattr(cls, "__post_init__", record)
        for name in ("load_splits", "load_test"):
            def load(cfg, _load=getattr(runner, name)):
                splits = _load(cfg)
                loaded.extend([splits] if isinstance(splits, Dataset) else splits)
                return splits
            monkeypatch.setattr(runner, name, load)
        for module in (ivs, stack):
            def fit(*args, _fit=module.train_mlr, **kwargs):
                model = _fit(*args, **kwargs)
                if kwargs["phase"] == self.LAYER1_SELECTION:
                    layer1.append(model)
                return model
            monkeypatch.setattr(module, "train_mlr", fit)
        config = SMOKE if source == "synthetic" else \
            TestAmatPlumbing().three_file_config(tmp_path, (50, 8, 3),
                                                 (20, 8, 3), (20, 8, 3))
        out = tmp_path / "o"
        for verb in ("run", "eval", "ivs"):
            assert run_cli(verb, "--config", config, "--out", out) == 0
        assert {cls for cls, _, _ in seen} == set(self.FIELDS)
        assert loaded and layer1
        assert all(d.x.dtype == np.float64 for d in loaded)
        selection = {id(a) for m in layer1 for a in (m.weights, m.biases)}
        expected = {(Dataset, "labels"): np.int64,
                    (VariableMask, "bits"): np.bool_,
                    (DaeModel, "weights"): np.float32,
                    (DaeModel, "encoder_bias"): np.float32,
                    (DaeModel, "decoder_bias"): np.float32}
        for cls, name, value in seen:
            assert type(value) is np.ndarray, (cls.__name__, name)
            if cls is MlrModel:
                want = np.float64 if id(value) in selection else np.float32
            else:
                want = expected.get((cls, name), value.dtype)
            assert value.dtype == want, (cls.__name__, name, value.dtype)


class TestErrors:
    @staticmethod
    def missing_data_config(tmp_path):
        config = tmp_path / "missing.ini"
        config.write_text(
            "[data]\nsource = amat\ntrain = nowhere/null.amat\n"
            "train_size = 10\nvalid_size = 5\n"
            "[dae]\nhidden_units = 4\nnoise_sd = 0.1\nlearning_rate = 0.1\n"
            "epochs = 2\n"
            "[ivs]\nthreshold = 0.3\nlearning_rate = 0.1\n"
            "[finetune]\nlearning_rate = 0.1\n")
        return config

    def test_missing_dataset_file_exit_2_names_path(self, tmp_path, capsys):
        config = self.missing_data_config(tmp_path)
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 2
        assert "null.amat" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "ivs"])
    def test_missing_dataset_file_creates_no_output(self, tmp_path, verb):
        config = self.missing_data_config(tmp_path)
        assert run_cli(verb, "--config", config, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    # A one-column file, and one whose first row has one field and whose
    # next row is ragged, which numpy's reader rejects.
    @pytest.mark.parametrize("text", ["0.5\n0.25\n", "0.5\n0.25 0.5 1\n"],
                             ids=["one_column", "one_field_then_ragged"])
    def test_amat_rows_without_a_feature_exit_2_naming_the_file(
            self, tmp_path, capsys, text):
        train = tmp_path / "train.amat"
        train.write_text(text)
        config = tmp_path / "c.ini"
        config.write_text(self.missing_data_config(tmp_path).read_text()
                          .replace("nowhere/null.amat", str(train)))
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"data error: {train}: rows need at least one feature and a "
            "label\n")

    def test_empty_test_split_fails_before_training(self, tmp_path, capsys):
        config = tmp_path / "no-test.ini"
        config.write_text(SMOKE.read_text().replace("test_size = 60",
                                                    "test_size = 0"))
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 2
        assert "test split is empty" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # Selection alone needs no test split.
        assert run_cli("ivs", "--config", config, "--out", tmp_path / "i") == 0

    def test_synthetic_split_too_big_to_allocate_is_a_data_error(
            self, tmp_path, capsys):
        # 8e15 bytes of labels exceed a 47-bit address space, so the
        # allocation is refused at once under any overcommit policy.
        config = tmp_path / "huge.ini"
        config.write_text(SMOKE.read_text().replace(
            "train_size = 120", "train_size = 1000000000000000"))
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            "data error: [data] train_size, valid_size and test_size ask "
            "for 1000000000000100 examples of 30 variables, a float64 matrix "
            "of 240000000000024000 bytes, which cannot be allocated\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("train_size", [10 ** 19, 2 ** 60],
                             ids=["beyond_int64", "2**60"])
    def test_split_beyond_the_index_type_is_refused_before_any_draw(
            self, tmp_path, capsys, monkeypatch, train_size):
        monkeypatch.setattr(runner, "gen_synthetic",
                            lambda *args: pytest.fail("data was drawn"))
        config = tmp_path / "huge.ini"
        config.write_text(SMOKE.read_text().replace(
            "train_size = 120", f"train_size = {train_size}"))
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 2
        n = train_size + 100
        assert capsys.readouterr().err == (
            "data error: [data] train_size, valid_size and test_size ask "
            f"for {n} examples of 30 variables, a float64 matrix of "
            f"{8 * n * 30} bytes, which cannot be allocated\n")
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self):
        assert run_cli("run", "--config", "/does/not/exist.ini") == 1

    def test_bad_source(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[data]\nsource = nonsense\n")
        assert run_cli("run", "--config", config) == 1


class TestPaperGrid:
    @pytest.mark.parametrize("section,key,value", [
        pytest.param("ivs", "learning_rate", "0.3", id="ivs-learning_rate"),
        pytest.param("ivs.2", "learning_rate", "0.3",
                     id="ivs.2-learning_rate"),
        pytest.param("ivs", "threshold", "0.6", id="ivs-threshold"),
        pytest.param("dae", "learning_rate", "0.3", id="dae-learning_rate"),
        pytest.param("dae", "noise_sd", "0.5", id="dae-noise_sd"),
        pytest.param("dae", "epochs", "61", id="dae-epochs"),
        pytest.param("finetune", "learning_rate", "0.3",
                     id="finetune-learning_rate"),
    ])
    def test_rejects_off_grid_value(self, tmp_path, capsys, section, key,
                                    value):
        # The scaled benchmark config is on the grid; its corpus is absent,
        # so only the grid check can make the run exit 1.
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read(BGRAND)
        if section not in parser:  # a layer-2 override needs depth 2
            parser["stack"]["depths"] = "2"
            parser[section] = {}
        parser[section][key] = value
        patched = tmp_path / "offgrid.ini"
        with open(patched, "w") as fh:
            parser.write(fh)
        assert run_cli("run", "--config", patched, "--paper-grid",
                       "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}] ")
        assert f" {key} {value} outside candidate set" in err

    def test_accepts_grid_config(self, tmp_path):
        # The scaled benchmark config sits entirely inside the grid except
        # for epochs in the smoke file; validate via the bgrand config.
        cfg = load_config(REPO / "configs" / "bgrand_scaled.ini",
                          paper_grid=True)
        assert cfg.dae[0].epochs == 60

    def test_smoke_epochs_off_grid(self):
        with pytest.raises(Exception):
            load_config(SMOKE, paper_grid=True)
