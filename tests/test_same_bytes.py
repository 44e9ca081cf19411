"""Self-test of tools/same_bytes.py on the smoke config: a tree is the same
as itself, also on a config it rejects, on one whose DAE diverges, on the
generator's edge cases, on the row-block cases, on the minibatch cases and
on the .amat cases, and a copy with one changed constant is not. A tree
that holds no package is named. Its reject cases cover every ranged config
key."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from sdae_ivs.config import KEYS

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "same_bytes.py"
SRC = REPO / "src"


def same_bytes(parent, change, tmp_path, case="smoke_synthetic@0"):
    return subprocess.run(
        [sys.executable, TOOL, parent, change, "--case", case,
         "--work", tmp_path / "work"], capture_output=True, text=True)


def test_a_tree_is_the_same_as_itself(tmp_path):
    done = same_bytes(SRC, SRC, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "same  smoke_synthetic@0 (exit codes 0 0 0)\n"


def test_a_missing_tree_names_it(tmp_path):
    done = same_bytes(SRC, tmp_path / "empty", tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith(
        f"{(tmp_path / 'empty').resolve()}: holds no sdae_ivs package (")
    assert done.stdout == ""


def test_a_tree_is_the_same_as_itself_on_a_rejected_config(tmp_path):
    done = same_bytes(SRC, SRC, tmp_path, "reject/dae.learning_rate")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "same  reject/dae.learning_rate (exit codes 1 1 1)\n"


def test_a_tree_is_the_same_as_itself_on_a_diverging_config(tmp_path):
    # run exits 3 naming the fit, eval finds no report, ivs trains no DAE.
    done = same_bytes(SRC, SRC, tmp_path, "diverge/dae.learning_rate")
    assert done.returncode == 0, done.stderr
    assert done.stdout == \
        "same  diverge/dae.learning_rate (exit codes 3 2 0)\n"


def test_a_tree_is_the_same_as_itself_on_the_generator_edge_cases(tmp_path):
    done = same_bytes(SRC, SRC, tmp_path, "data/*")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(
        f"same  data/{name} (exit codes 0 0 0)\n"
        for name in ("irrelevant0", "noise0", "tail1"))


def test_a_tree_is_the_same_as_itself_on_the_row_block_cases(tmp_path):
    done = same_bytes(SRC, SRC, tmp_path, "blocks/*")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(
        f"same  blocks/{name} (exit codes 0 0 0)\n"
        for name in ("classes2", "hidden16"))


def test_a_tree_is_the_same_as_itself_on_the_minibatch_cases(tmp_path):
    done = same_bytes(SRC, SRC, tmp_path, "batch/*")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(
        f"same  batch/{name} (exit codes 0 0 0)\n"
        for name in ("ivs7", "ivs200", "ivs7-12"))


def test_a_tree_is_the_same_as_itself_on_the_amat_cases(tmp_path):
    done = same_bytes(SRC, SRC, tmp_path, "amat/*")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(
        f"same  amat/{name} (exit codes 0 0 0)\n"
        for name in ("files", "split", "one"))
    # The test split: the whole test file, or 50 rows cut by test_size.
    for name, tests in (("files", 60), ("split", 50), ("one", 50)):
        report = json.loads((tmp_path / "work" / "out" / f"amat-{name}" /
                             "parent" / "run" / "report.json").read_text())
        assert report["config"]["source"] == "amat"
        assert {entry["depth1"]["test_n"]
                for entry in report["results"].values()} == {tests}


def test_a_changed_constant_differs(tmp_path):
    change = tmp_path / "src"
    shutil.copytree(SRC, change, ignore=shutil.ignore_patterns("__pycache__"))
    runner = change / "sdae_ivs" / "runner.py"
    text = runner.read_text()
    assert "KEY_DATA = 1000\n" in text
    runner.write_text(text.replace("KEY_DATA = 1000\n", "KEY_DATA = 1001\n"))
    done = same_bytes(SRC, change, tmp_path)
    assert done.returncode == 1, done.stderr
    line, = done.stdout.splitlines()
    # Other data: other models, reports and selection files.
    assert line.startswith("DIFF  smoke_synthetic@0: ")
    for name in ("run/report.json", "run/models/sdae-depth1-tuned.json",
                 "ivs/mask.txt"):
        assert re.search(rf"[ ,]{re.escape(name)}(,|$)", line), name
    assert "wall_time.txt" not in line


def test_every_ranged_key_has_a_reject_case():
    # The keys whose parser checks a range, by [section] as the INI names
    # it; "data synthetic" and "data amat" keys are [data] keys.
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    ranged = {f"{table.split()[0]}.{key}"
              for table, keys in KEYS.items()
              for key, (_, parse, _) in keys.items()
              if parse.__qualname__ == "_ruled.<locals>.parse"}
    assert set(tool.REJECTS) == ranged
