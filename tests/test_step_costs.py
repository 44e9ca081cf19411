"""Self-test of tools/step_costs.py at tiny sizes: one round of a tree
against itself prints a line per case and writes every round's costs, and
a tree that holds no package is named before the first round."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "step_costs.py"
SRC = REPO / "src"
CASES = ["mlr 5x100", "mlr 10x784", "mlr 32x784", "dae 40x100",
         "dae 100x784", "fine_tune 100-40-30-20-5"]


def test_a_tree_against_itself_reports_every_case(tmp_path):
    out = tmp_path / "costs.json"
    done = subprocess.run(
        [sys.executable, TOOL, SRC, SRC, "--rounds", "1", "--rows", "8",
         "--epochs", "1", "--json", out], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["case", "parent", "us", "change", "us",
                              "change"]
    assert [line.rsplit(None, 3)[0] for line in lines] == CASES
    costs = json.loads(out.read_text())
    assert (costs["rows"], costs["epochs"]) == (8, 1)
    for tree in ("parent", "change"):
        (only,) = costs["rounds"][tree]
        assert list(only) == CASES and all(v > 0 for v in only.values())
        assert costs["median_us_per_step"][tree] == only


def test_a_missing_tree_names_it(tmp_path):
    done = subprocess.run(
        [sys.executable, TOOL, SRC, tmp_path, "--rounds", "1", "--rows", "8",
         "--epochs", "1"], capture_output=True, text=True)
    assert done.returncode == 1
    # The tree is checked before the first round.
    assert done.stderr.startswith(
        f"{tmp_path.resolve()}: holds no sdae_ivs package (")
