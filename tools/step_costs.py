"""Per-step CPU cost of one-row fits through the trainers of two source trees.

    python tools/step_costs.py PARENT_SRC CHANGE_SRC [--rounds N]
                               [--rows N] [--epochs N] [--json PATH]

PARENT_SRC and CHANGE_SRC are directories that hold the ``sdae_ivs``
package, such as the ``src/`` of two checkouts; a tree that holds none,
or whose process imports another copy, is named before the first round.
Each round runs one fresh process per tree, with one BLAS thread and no
bytecode written (``tools/trees.py``), and the tree that runs first
alternates between rounds. A process fits each case twice on seeded
data, at batch 1, and times the second fit's process CPU; a case's cost
is that CPU over the steps it took (epochs times rows), in microseconds,
validation scoring included. The cases, through the
trainers' own API, which both trees must share:

- ``mlr KxM``: ``train_mlr`` of K classes over M float64 variables, on
  each side of ``numerics.PENDING_SIZE``;
- ``dae HxM``: ``train_dae`` of H hidden units over M float32 inputs;
- ``fine_tune 100-40-30-20-5``: ``fine_tune`` of a float32 stack of
  those widths.

One line is printed per case: the median over the rounds for each tree,
and the change's median relative to the parent's. ``--json`` also writes
every round's costs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tools.trees import check_import, tree_env  # noqa: E402

# 5 x 100 and 10 x 784 step eagerly, 32 x 784 through a Pending.
MLR_CASES = ((5, 100), (10, 784), (32, 784))
DAE_CASES = ((40, 100), (100, 784))
STACK_WIDTHS = (100, 40, 30, 20, 5)
VALID_ROWS = 20
TREES = ("parent", "change")


def worker(rows: int, epochs: int) -> dict:
    """{case: microseconds per step} of this process's program."""
    import numpy as np

    from sdae_ivs.dae import DaeModel, DaeTrainConfig, train_dae
    from sdae_ivs.data import Dataset, VariableMask
    from sdae_ivs.mlr import MlrModel, TrainConfig, train_mlr
    from sdae_ivs.stack import StackModel, fine_tune

    rng = np.random.default_rng(0)

    def dataset(n, m, k, dtype):
        return Dataset(rng.uniform(size=(n, m)).astype(dtype),
                       rng.integers(1, k + 1, size=n), k)

    def cpu(fit):
        """Process CPU of fit's second call, which finds every cache warm."""
        fit()
        start = time.process_time()
        fit()
        return time.process_time() - start

    # Patience equal to the epochs runs every epoch.
    fits = {}
    for k, m in MLR_CASES:
        train, valid = dataset(rows, m, k, np.float64), \
            dataset(VALID_ROWS, m, k, np.float64)
        fits[f"mlr {k}x{m}"] = lambda train=train, valid=valid: train_mlr(
            train, valid, TrainConfig(0.01, epochs, epochs),
            np.random.default_rng(1))
    for h, m in DAE_CASES:
        train = dataset(rows, m, 1, np.float32)
        cfg = DaeTrainConfig(hidden_units=h, noise_sd=0.2, learning_rate=0.01,
                             epochs=epochs)
        fits[f"dae {h}x{m}"] = lambda train=train, cfg=cfg: train_dae(
            train, cfg, np.random.default_rng(1))
    *widths, k = STACK_WIDTHS
    layers = [DaeModel(rng.normal(scale=m ** -0.5, size=(h, m)).astype(
        np.float32), np.zeros(h, np.float32), np.zeros(m, np.float32))
        for m, h in zip(widths, widths[1:])]
    top = MlrModel(rng.normal(scale=widths[-1] ** -0.5, size=(
        k, widths[-1])).astype(np.float32), np.zeros(k, np.float32))
    model = StackModel(VariableMask(np.ones(widths[0], bool)), layers, top)
    train, valid = dataset(rows, widths[0], k, np.float64), \
        dataset(VALID_ROWS, widths[0], k, np.float64)
    fits["fine_tune " + "-".join(map(str, STACK_WIDTHS))] = lambda: fine_tune(
        model, train, valid, TrainConfig(0.01, epochs, epochs),
        np.random.default_rng(1))
    return {name: 1e6 * cpu(fit) / (epochs * rows)
            for name, fit in fits.items()}


def run_tree(src: Path, rows: int, epochs: int) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--worker", "--rows", str(rows),
         "--epochs", str(epochs)], env=tree_env(src), capture_output=True,
        text=True)
    if done.returncode:
        sys.exit(f"{src}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, nargs="?")
    parser.add_argument("change_src", type=Path, nargs="?")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--rows", type=int, default=500)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--json", type=Path, help="write every round here")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.rows, args.epochs)))
        return 0
    if args.change_src is None:
        parser.error("PARENT_SRC and CHANGE_SRC are required")
    srcs = dict(zip(TREES, (args.parent_src.resolve(),
                            args.change_src.resolve())))
    for src in srcs.values():
        check_import(src)
    rounds = {tree: [] for tree in TREES}
    for i in range(args.rounds):
        for tree in TREES if i % 2 == 0 else TREES[::-1]:
            rounds[tree].append(run_tree(srcs[tree], args.rows, args.epochs))
    medians = {tree: {case: statistics.median(r[case] for r in runs)
                      for case in runs[0]} for tree, runs in rounds.items()}
    print(f"{'case':<28}{'parent us':>11}{'change us':>11}{'change':>9}")
    for case, parent in medians["parent"].items():
        change = medians["change"][case]
        print(f"{case:<28}{parent:>11.3f}{change:>11.3f}"
              f"{100 * (change / parent - 1):>+8.1f}%")
    if args.json:
        args.json.write_text(json.dumps({
            "rows": args.rows, "epochs": args.epochs, "rounds": rounds,
            "median_us_per_step": medians}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
