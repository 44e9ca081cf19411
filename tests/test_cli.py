import configparser
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from sdae_ivs.cli import main
from sdae_ivs.config import load_config
from sdae_ivs.errors import ConfigError
from sdae_ivs.pgm import read_pgm
from sdae_ivs.serialize import load_stack

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
        import re
        assert re.search(r"\d+\.\d{2}", body)

    def test_selection_artifacts_written(self, smoke_run):
        report = json.loads((smoke_run / "report.json").read_text())
        ivs_entry = report["results"]["sdae_ivs"]["depth1"]
        assert "ivs_layers" in ivs_entry
        layer = ivs_entry["ivs_layers"][0]
        kept = [item["kept"] for item in layer["iterations"]]
        assert all(a >= b for a, b in zip(kept, kept[1:]))
        assert (smoke_run / "csv" / "sdae_ivs-depth1-layer1-history.csv").is_file()
        assert (smoke_run / "images" / "sdae_ivs-depth1-importance.pgm").is_file()

    def test_reconstruction_and_pattern_images(self, smoke_run):
        img = read_pgm(smoke_run / "images" / "sdae-depth1-reconstruction.pgm")
        assert img.ndim == 2 and img.size > 0
        assert (smoke_run / "csv" / "sdae-depth1-extractors.csv").is_file()

    def test_plain_variant_has_no_selection_history(self, smoke_run):
        report = json.loads((smoke_run / "report.json").read_text())
        assert "ivs_layers" not in report["results"]["sdae"]["depth1"]

    def test_config_block_is_the_parsed_config_without_out(self, smoke_run):
        config = json.loads((smoke_run / "report.json").read_text())["config"]
        expected = asdict(load_config(SMOKE))
        del expected["out"]
        assert json.dumps(config, sort_keys=True) == \
            json.dumps(expected, sort_keys=True, default=str)
        assert config["reconstruct_examples"] == 6
        assert config["export_patterns"] is True


class TestDeterminism:
    def test_repeated_run_is_byte_identical(self, tmp_path, smoke_run):
        again = tmp_path / "again"
        assert run_cli("run", "--config", SMOKE, "--out", again) == 0
        assert (again / "report.json").read_bytes() == \
            (smoke_run / "report.json").read_bytes()
        assert (again / "summary.txt").read_bytes() == \
            (smoke_run / "summary.txt").read_bytes()
        for model in sorted((smoke_run / "models").iterdir()):
            assert (again / "models" / model.name).read_bytes() == \
                model.read_bytes()

    def test_seed_override_changes_results(self, tmp_path, smoke_run):
        other = tmp_path / "other"
        assert run_cli("run", "--config", SMOKE, "--out", other,
                       "--seed", "7") == 0
        assert (other / "report.json").read_bytes() != \
            (smoke_run / "report.json").read_bytes()


class TestEval:
    def test_reported_rates_reproduce_exactly(self, smoke_run):
        assert run_cli("eval", "--config", SMOKE, "--out", smoke_run) == 0
        recomputed = json.loads((smoke_run / "eval.json").read_text())
        for variant, depths in recomputed.items():
            for entry in depths.values():
                assert entry["matches_report"] is True

    def test_eval_without_run_fails(self, tmp_path):
        assert run_cli("eval", "--config", SMOKE, "--out", tmp_path) == 2


class TestModelWidth:
    """Verbs that feed loaded models with data check the data's width."""

    @pytest.mark.parametrize("verb", ["eval", "reconstruct", "export-patterns"])
    def test_wider_data_is_a_data_error(self, tmp_path, smoke_run, capsys, verb):
        patched = tmp_path / "wide.ini"
        patched.write_text(SMOKE.read_text()
                           .replace("irrelevant = 24", "irrelevant = 25")
                           .replace("shape = 5 6", "shape = 1 31"))
        assert run_cli(verb, "--config", patched, "--out", smoke_run) == 2
        err = capsys.readouterr().err
        assert "-depth1-" in err and ".json reads 30 variables" in err
        assert "data has 31" in err


class TestDivergence:
    def test_overflowing_dae_learning_rate_exits_3_naming_layer_and_epoch(
            self, tmp_path, capsys):
        patched = tmp_path / "diverge.ini"
        patched.write_text(SMOKE.read_text().replace(
            "learning_rate = 0.1\nepochs = 5",
            "learning_rate = 1e300\nepochs = 5\nloss = squared\n"
            "decoder = identity"))
        assert run_cli("run", "--config", patched, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: layer 1: DAE pre-training diverged at "
                              "epoch 1") and err.count("\n") == 1


class TestIvsCommand:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "ivs_out"
        assert run_cli("ivs", "--config", SMOKE, "--out", out) == 0
        history = (out / "ivs" / "history.csv").read_text().splitlines()
        assert history[0] == "iteration,kept,validation_error"
        assert len(history) > 1
        assert (out / "ivs" / "importance.csv").is_file()
        assert (out / "ivs" / "importance.pgm").is_file()
        mask = (out / "ivs" / "mask.txt").read_text().strip()
        assert set(mask) <= {"0", "1"} and len(mask) == 30

    def test_zero_threshold_two_iterations(self, tmp_path):
        patched = tmp_path / "zero.ini"
        patched.write_text(SMOKE.read_text().replace("threshold = 0.3",
                                                     "threshold = 0.0"))
        out = tmp_path / "zero_out"
        assert run_cli("ivs", "--config", patched, "--out", out) == 0
        rows = (out / "ivs" / "history.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert rows[-1].split(",")[1] == "30"

    def test_missing_threshold_names_field(self, tmp_path):
        patched = tmp_path / "broken.ini"
        patched.write_text(SMOKE.read_text().replace("threshold = 0.3", ""))
        assert run_cli("ivs", "--config", patched,
                       "--out", tmp_path / "x") == 1

    def test_popcounts_fall_until_convergence_on_planted_config(self, tmp_path):
        out = tmp_path / "planted"
        config = REPO / "configs" / "paired_synthetic.ini"
        assert run_cli("ivs", "--config", config, "--out", out) == 0
        rows = (out / "ivs" / "history.csv").read_text().splitlines()[1:]
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


class TestFinalIvs:
    def test_run_then_eval_reproduces_every_model(self, tmp_path):
        patched = tmp_path / "final.ini"
        patched.write_text(SMOKE.read_text().replace(
            "[stack]\n", "[stack]\nfinal_ivs = true\n"))
        out = tmp_path / "final"
        assert run_cli("run", "--config", patched, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["results"]["sdae_ivs"]["depth1"]
        assert len(entry["ivs_layers"]) == 2  # layer 1, then the top
        top_kept = entry["ivs_layers"][1]["final_kept"]
        model = load_stack(out / entry["model"])
        assert model.top_mask.popcount == model.top.m == top_kept

        assert run_cli("eval", "--config", patched, "--out", out) == 0
        recomputed = json.loads((out / "eval.json").read_text())
        assert [e["matches_report"] for d in recomputed.values()
                for e in d.values()] == [True, True]


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
        ("threshold = 0.3", "threshold = 2", "threshold must lie in [0, 1]"),
        ("max_iterations = 4", "max_iterations = 0", "max_iterations must be >= 1"),
        ("max_iterations = 4\nlearning_rate = 0.1",
         "max_iterations = 4\nlearning_rate = -1", "learning_rate must be > 0"),
        ("patience = 2", "patience = 0", "epochs/patience/minibatch_size"),
    ])
    def test_out_of_range_trainer_value_is_a_config_error(
            self, tmp_path, capsys, old, new, message):
        assert self.run_patched(tmp_path, old, new) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

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


class TestVerbsOnSerializedModels:
    def test_reconstruct(self, smoke_run):
        assert run_cli("reconstruct", "--config", SMOKE,
                       "--out", smoke_run) == 0

    def test_export_patterns(self, smoke_run):
        assert run_cli("export-patterns", "--config", SMOKE,
                       "--out", smoke_run) == 0
        files = list((smoke_run / "images").glob("*patterns*.pgm"))
        assert files


class TestAmatPlumbing:
    """load_splits branches used by the corpus configs, on generated files."""

    @staticmethod
    def write_amat(path, n, m, seed):
        from sdae_ivs.numerics import make_rng
        rng = make_rng(seed)
        rows = []
        for _ in range(n):
            feats = " ".join(f"{v:.4f}" for v in rng.uniform(size=m))
            rows.append(f"{feats} {int(rng.integers(0, 3))}")
        path.write_text("\n".join(rows) + "\n")

    def test_split_single_train_file(self, tmp_path):
        from sdae_ivs.config import load_config
        from sdae_ivs.runner import load_splits
        self.write_amat(tmp_path / "train.amat", 60, 8, 1)
        config = tmp_path / "c.ini"
        config.write_text(
            f"[data]\nsource = amat\ntrain = {tmp_path / 'train.amat'}\n"
            "train_size = 40\nvalid_size = 10\nshape = 2 4\n"
            "[dae]\nhidden_units = 4\nnoise_sd = 0.1\nlearning_rate = 0.1\n"
            "epochs = 2\n[ivs]\nthreshold = 0.3\nlearning_rate = 0.1\n"
            "[finetune]\nlearning_rate = 0.1\n")
        train, valid, test = load_splits(load_config(config))
        assert (train.n, valid.n, test.n) == (40, 10, 10)
        assert train.variable_shape == (2, 4)

    def test_separate_files_with_truncation(self, tmp_path):
        from sdae_ivs.config import load_config
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

    def test_missing_config_file(self):
        assert run_cli("run", "--config", "/does/not/exist.ini") == 1

    def test_bad_source(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[data]\nsource = nonsense\n")
        assert run_cli("run", "--config", config) == 1


class TestPaperGrid:
    @pytest.mark.parametrize("section,key,value", [
        pytest.param("ivs", "learning_rate", "0.3", id="ivs-learning_rate"),
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
