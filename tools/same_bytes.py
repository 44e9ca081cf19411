"""Check that two source trees of the program write the same bytes.

    python tools/same_bytes.py PARENT_SRC CHANGE_SRC [--case PATTERN ...]
                               [--work DIR]

PARENT_SRC and CHANGE_SRC are directories that hold the ``sdae_ivs``
package, such as the ``src/`` of two checkouts; a tree that holds none,
or whose process imports another copy, is named before the first case.
For each case, each tree runs ``run``, ``eval`` and ``ivs``, each verb in
a fresh process with one BLAS thread and no bytecode written
(``tools/trees.py``). The cases are every ``configs/*.ini``
whose data files are present, at master seeds 0 and 7, and the config of
each benchmark workload, written by ``perfbench.workloads.prepare`` with
PARENT_SRC's program, at master seeds 100 and 101. Each ``reject/S.K``
case sets key K of section S of ``configs/smoke_synthetic.ini`` to a value
out of its range, so both trees must reject it alike. Each
``diverge/S.K`` case sets a learning rate of that config so high that a
fit diverges, so both trees must exit 3 with the same one-line error, and
a stray warning on stderr shows as a difference. Each ``data/NAME`` case
edits the generator's settings in that config to an edge case that runs:
no irrelevant variable, no feature noise, or a last block of one row in
the generator's row-blocked column reorder. Each ``blocks/NAME`` case
edits the split sizes so that prediction, and at ``hidden16`` encoding,
go through several row blocks whose last one takes the tail, with a
2-class top at ``classes2``. Each ``batch/NAME`` case sets the selection
MLR's minibatch size, to 7 (a one-row tail batch) or to more rows than
the training split holds, and at ``ivs7-12`` selects at layers 1 and 2
for one variant. Each ``stack/NAME`` case
runs that config for one variant at depths 1 and 2, so ``eval`` checks
two models of one variant, or at depth 2 alone, so that pattern export
has no depth-1 stack to read layer 1 from. Each ``amat/NAME`` case runs that config's
plans on ``.amat`` files that the tool writes, the same for both trees:
train, valid and test files; one file split by sizes, with ``test_size``
cutting the rest; or 1-based labels, with ``test_size`` cutting a test
file. ``--case`` keeps only the cases whose names
match one of its shell patterns.

A case is the same when both trees give the same exit codes, the same
stdout and stderr once the output directory is written as ``<out>``, and
the same output files byte for byte, ``wall_time.txt`` aside. One line is
printed per case, giving the exit codes of the verbs when they agree; the
exit status is 1 if any case differs.
"""

from __future__ import annotations

import argparse
import configparser
import fnmatch
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))
import numpy as np  # noqa: E402
from perfbench.workloads import WORKLOADS, write_amat  # noqa: E402
from tools.trees import check_import, tree_env  # noqa: E402

CONFIG_SEEDS = (0, 7)
WORKLOAD_SEEDS = (100, 101)
# The trees' output directories; names of one length keep paths alike.
TREES = ("parent", "change")
UNTIMED = "wall_time.txt"
SMOKE = REPO / "configs" / "smoke_synthetic.ini"
# section.key -> a value out of its range, one per ranged key.
REJECTS = {
    "data.relevant": "0", "data.irrelevant": "-1", "data.classes": "1",
    "data.separation": "0", "data.feature_noise_sd": "-1",
    "data.train_size": "-1", "data.valid_size": "-1", "data.test_size": "-1",
    "dae.hidden_units": "0", "dae.noise_sd": "-1", "dae.learning_rate": "0",
    "dae.epochs": "-1",
    "ivs.threshold": "2", "ivs.max_iterations": "0", "ivs.learning_rate": "0",
    "ivs.max_epochs": "-1", "ivs.patience": "0", "ivs.minibatch_size": "0",
    "finetune.learning_rate": "0", "finetune.max_epochs": "-1",
    "finetune.patience": "0",
    "run.seed": "-1", "run.reconstruct_examples": "-1",
}
# section.key -> a learning rate at which a fit of SMOKE diverges: the
# float32 DAE at a rate past float32's range, fine-tuning at one at which
# the top MLR, which reads the same rate, stays finite.
DIVERGES = {"dae.learning_rate": "1e308", "finetune.learning_rate": "1e30"}
# name -> {section.key: value}: generator edge cases that every tree runs.
DATA_CASES = {
    "irrelevant0": {"data.irrelevant": "0", "data.shape": "2 3"},
    "noise0": {"data.feature_noise_sd": "0"},
    # 413 + 40 + 60 = 513 examples: two blocks of 256 rows and one row.
    "tail1": {"data.train_size": "413"},
}
# name -> {section.key: value}: splits that prediction and encoding take in
# several row blocks, the last one longer, with a 2-class top and at 16
# hidden units.
BLOCK_CASES = {
    "classes2": {"data.classes": "2", "data.test_size": "1100"},
    "hidden16": {"data.train_size": "600", "data.valid_size": "300",
                 "data.test_size": "1100", "dae.hidden_units": "16"},
}
# name -> {section.key: value}: selection's MLR stepping several rows at a
# time, the only steps above batch 1: 120 training rows make 17 batches of
# 7 and a one-row tail, or one batch larger than the split. At ivs7-12 the
# layer-2 selection and the pattern export step the float32 MLR at both
# row counts too.
BATCH_CASES = {
    "ivs7": {"ivs.minibatch_size": "7"},
    "ivs200": {"ivs.minibatch_size": "200"},
    "ivs7-12": {"ivs.minibatch_size": "7", "stack.depths": "1 2",
                "stack.variants": "sdae_ivs"},
}
# name -> {section.key: value}: one variant at two depths, or at depth 2.
STACK_CASES = {
    "sdae12": {"stack.depths": "1 2", "stack.variants": "sdae"},
    "ivs12": {"stack.depths": "1 2", "stack.variants": "sdae_ivs"},
    "ivs2": {"stack.depths": "2", "stack.variants": "sdae_ivs"},
}
# name -> ({file: rows}, [data] lines): .amat layouts of a corpus shaped
# like the smoke config's data, 30 variables of which 6 carry one of 3
# classes; the files' labels are 1-based where the lines say labels = one.
AMAT_CASES = {
    "files": ({"train": 120, "valid": 40, "test": 60}, ""),
    "split": ({"train": 220},
              "train_size = 120\nvalid_size = 40\ntest_size = 50\n"),
    "one": ({"train": 160, "test": 60}, "labels = one\ntrain_size = 120\n"
                                        "valid_size = 40\ntest_size = 50\n"),
}
AMAT_SEED = 11
PREPARE = ("import sys; from pathlib import Path; "
           "from perfbench.workloads import WORKLOADS, prepare; "
           "prepare(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))")


def data_present(config: Path) -> bool:
    """Whether every data file the config names exists, read from REPO."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(config)
    return all((REPO / parser["data"][key]).is_file()
               for key in ("train", "valid", "test")
               if parser.has_option("data", key))


def edited_config(edits: dict, path: Path) -> Path:
    """Write SMOKE with each section.key of edits set to its value, the
    section being one that SMOKE holds."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SMOKE)
    for name, value in edits.items():
        parser.set(*name.split("."), value)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def amat_config(directory: Path, rows: dict, lines: str) -> Path:
    """Write the .amat files of rows into directory, and SMOKE with its
    [data] section over them; the same arguments write the same bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(AMAT_SEED)
    means = rng.uniform(0.2, 0.8, size=(3, 6))
    for name, n in rows.items():
        labels = rng.integers(1, 4, size=n)
        x = rng.uniform(size=(n, 30))
        x[:, :6] = np.clip(means[labels - 1] + rng.normal(0.0, 0.1, (n, 6)),
                           0.0, 1.0)
        path = directory / f"{name}.amat"
        write_amat(path, x, labels + ("labels = one" in lines))
        lines += f"{name} = {path}\n"
    plans = SMOKE.read_text().partition("\n[stack]\n")[2]
    config = directory.with_suffix(".ini")
    config.write_text(f"[data]\nsource = amat\n{lines}shape = 5 6\n\n"
                      f"[stack]\n{plans}")
    return config


def cases(work: Path):
    """(name, working directory, config, extra flags, workload or None)
    of every case; workloads are prepared by the caller."""
    for config in sorted((REPO / "configs").glob("*.ini")):
        for seed in CONFIG_SEEDS:
            yield (f"{config.stem}@{seed}", REPO, config,
                   ["--seed", str(seed)], None)
    for name in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            yield (f"perfbench/{name}@{seed}", work / f"{name}@{seed}",
                   Path("config.ini"), [], (name, seed))
    edits = [("reject", name, {name: value}) for name, value in REJECTS.items()]
    edits += [("diverge", name, {name: value})
              for name, value in DIVERGES.items()]
    edits += [("data", name, edit) for name, edit in DATA_CASES.items()]
    edits += [("blocks", name, edit) for name, edit in BLOCK_CASES.items()]
    edits += [("batch", name, edit) for name, edit in BATCH_CASES.items()]
    edits += [("stack", name, edit) for name, edit in STACK_CASES.items()]
    for kind, name, edit in edits:
        (work / kind).mkdir(parents=True, exist_ok=True)
        config = edited_config(edit, work / kind / f"{name}.ini")
        yield f"{kind}/{name}", REPO, config, [], None
    for name, (rows, lines) in AMAT_CASES.items():
        config = amat_config(work / "amat" / name, rows, lines)
        yield f"amat/{name}", REPO, config, [], None


def run_tree(src: Path, cwd: Path, config: Path, flags, out: Path):
    """Each verb's (exit code, stdout, stderr), paths under out written as
    <out>, and the bytes of every output file by relative path."""
    shutil.rmtree(out, ignore_errors=True)
    runs = []
    for verb, into in (("run", "run"), ("eval", "run"), ("ivs", "ivs")):
        done = subprocess.run(
            [sys.executable, "-m", "sdae_ivs", verb, "--config", str(config),
             "--out", str(out / into), *flags],
            cwd=cwd, env=tree_env(src), capture_output=True, text=True)
        runs.append((verb, done.returncode,
                     done.stdout.replace(str(out), "<out>"),
                     done.stderr.replace(str(out), "<out>")))
    files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
             if p.is_file() and p.name != UNTIMED}
    return runs, files


def differences(a, b) -> list[str]:
    """What differs between two run_tree results, one phrase each."""
    (runs_a, files_a), (runs_b, files_b) = a, b
    found = []
    for (verb, code_a, *text_a), (_, code_b, *text_b) in zip(runs_a, runs_b):
        if code_a != code_b:
            found.append(f"{verb} exit code {code_a} != {code_b}")
        found += [f"{verb} {stream}" for stream, x, y
                  in zip(("stdout", "stderr"), text_a, text_b) if x != y]
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_b:
            found.append(f"{name} only in {TREES[0]}")
        elif name not in files_a:
            found.append(f"{name} only in {TREES[1]}")
        elif files_a[name] != files_b[name]:
            found.append(name)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--case", action="append", metavar="PATTERN",
                        help="keep the cases whose names match (repeatable)")
    parser.add_argument("--work", type=Path,
                        help="keep the runs here (a removed temporary "
                             "directory by default)")
    args = parser.parse_args(argv)
    srcs = (args.parent_src.resolve(), args.change_src.resolve())
    for src in srcs:
        check_import(src)

    with tempfile.TemporaryDirectory() as scratch:
        work = (args.work or Path(scratch)).resolve()
        work.mkdir(parents=True, exist_ok=True)
        chosen = [c for c in cases(work) if not args.case
                  or any(fnmatch.fnmatchcase(c[0], p) for p in args.case)]
        if not chosen:
            print("no case matches", file=sys.stderr)
            return 2
        differ = False
        for name, cwd, config, flags, workload in chosen:
            if workload is not None:
                cwd.mkdir(parents=True, exist_ok=True)
                subprocess.run([sys.executable, "-c", PREPARE,
                                *map(str, workload), str(cwd)],
                               cwd=REPO, env=tree_env(srcs[0]), check=True)
            elif not data_present(config):
                print(f"skip  {name}: data files absent")
                continue
            outs = [work / "out" / name.replace("/", "-") / tree
                    for tree in TREES]
            results = [run_tree(src, cwd, config, flags, out)
                       for src, out in zip(srcs, outs)]
            found = differences(*results)
            differ |= bool(found)
            exits = " ".join(str(run[1]) for run in results[0][0])
            print(f"DIFF  {name}: {', '.join(found)}" if found
                  else f"same  {name} (exit codes {exits})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
