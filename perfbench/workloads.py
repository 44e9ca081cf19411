"""The benchmark's workloads: generator settings, run configs, planted truth.

Every workload is the planted-noise generator of ``sdae_ivs.data`` at a
fixed size, so the benchmark seed alone fixes the inputs. Synthetic
workloads let the program generate its own data from the master seed; the
``amat_io`` workload instead writes a ``.amat`` corpus before timing, so the
run goes through ``load_amat``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Derivation key of the amat corpus; distinct from every key the runner uses.
KEY_CORPUS = 7000


@dataclass(frozen=True)
class Workload:
    name: str
    relevant: int
    irrelevant: int
    classes: int
    separation: float
    feature_noise_sd: float
    train: int
    valid: int
    test: int
    hidden: tuple[int, ...]
    dae_epochs: int
    ivs_epochs: int
    ft_epochs: int
    shape: tuple[int, int] | None = None
    reconstruct: bool = False
    patterns: bool = False
    # Master seeds per benchmark seed; quality metrics average over them.
    instances: int = 8
    # amat corpus rows (train file, test file); 0 means synthetic source.
    amat_train_rows: int = 0
    amat_test_rows: int = 0

    @property
    def m(self) -> int:
        return self.relevant + self.irrelevant

    @property
    def depth(self) -> int:
        return len(self.hidden)

    @property
    def is_amat(self) -> bool:
        return self.amat_train_rows > 0

    def params(self) -> dict:
        """Workload parameters as recorded with every result."""
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.__dict__.items()}


WORKLOADS = {
    w.name: w for w in (
        # Planted noise at 28x28 with one 100-unit layer. Pattern export
        # is held off: its selection on the hidden codes raises "every
        # class pair is degenerate" (exit 3) on about a third of the seeds.
        Workload(
            name="mnist784",
            relevant=100, irrelevant=684, classes=10,
            separation=0.5, feature_noise_sd=0.65, shape=(28, 28),
            train=300, valid=250, test=2000, hidden=(100,),
            dae_epochs=3, ivs_epochs=15, ft_epochs=15, reconstruct=True,
            instances=7,
        ),
        # The two small workloads cap every fit below patience 5, so each
        # runs a fixed number of epochs; that keeps a cycle short enough
        # for seven or eight instances in one run.
        Workload(
            name="deep_narrow",
            relevant=20, irrelevant=80, classes=5,
            separation=0.5, feature_noise_sd=0.5,
            train=600, valid=300, test=6000, hidden=(40, 30, 20),
            dae_epochs=3, ivs_epochs=4, ft_epochs=3,
        ),
        Workload(
            name="amat_io",
            relevant=20, irrelevant=80, classes=5,
            separation=0.5, feature_noise_sd=0.5, shape=(10, 10),
            train=600, valid=300, test=0, hidden=(40,),
            dae_epochs=3, ivs_epochs=4, ft_epochs=3, reconstruct=True,
            patterns=True, instances=7,
            amat_train_rows=6000, amat_test_rows=18000,
        ),
    )
}


def miniature(w: Workload) -> Workload:
    """The same pipeline shape at a size that runs in about a second, on
    well-separated classes (as in configs/smoke_synthetic.ini) so that
    short training still learns."""
    relevant, irrelevant = max(4, w.relevant // 10), max(8, w.irrelevant // 20)
    return replace(
        w,
        relevant=relevant, irrelevant=irrelevant, classes=3,
        separation=3.0, feature_noise_sd=0.4,
        train=min(w.train, 300), valid=min(w.valid, 100), test=min(w.test, 200),
        hidden=tuple(max(8, h // 4) for h in w.hidden),
        dae_epochs=3, ivs_epochs=5, ft_epochs=2, instances=2,
        shape=(1, relevant + irrelevant) if w.shape else None,
        amat_train_rows=400 if w.is_amat else 0,
        amat_test_rows=200 if w.is_amat else 0,
    )


def instance_seeds(w: Workload, seed: int) -> list[int]:
    """Master seeds of the instances one benchmark seed runs. Quality
    metrics average over them, which keeps them steady across seeds."""
    return [seed * 100 + j for j in range(w.instances)]


def synthetic_spec(w: Workload, sizes: tuple[int, int, int]):
    from sdae_ivs.data import SyntheticSpec
    return SyntheticSpec(w.relevant, w.irrelevant, w.classes, w.separation,
                         w.feature_noise_sd, sizes)


def config_text(w: Workload, seed: int) -> str:
    """INI config for `sdae-ivs run` / `eval`; paths are relative to the
    workload directory so report.json does not depend on where it runs."""
    if w.is_amat:
        data = [
            "source = amat",
            "train = train.amat",
            "test = test.amat",
            "labels = zero",
            f"train_size = {w.train}",
            f"valid_size = {w.valid}",
        ]
    else:
        data = [
            "source = synthetic",
            f"relevant = {w.relevant}",
            f"irrelevant = {w.irrelevant}",
            f"classes = {w.classes}",
            f"separation = {w.separation}",
            f"feature_noise_sd = {w.feature_noise_sd}",
            f"train_size = {w.train}",
            f"valid_size = {w.valid}",
            f"test_size = {w.test}",
        ]
    if w.shape is not None:
        data.append(f"shape = {w.shape[0]} {w.shape[1]}")
    # Learning rates, selection and stopping are those of
    # configs/bgrand_scaled.ini; only the epoch caps are shorter.
    lines = ["[data]", *data, "",
             "[stack]", f"depths = {w.depth}", "variants = both", "",
             "[dae]", f"hidden_units = {w.hidden[0]}", "noise_sd = 0.2",
             "learning_rate = 0.1", f"epochs = {w.dae_epochs}", ""]
    for layer, units in enumerate(w.hidden[1:], start=2):
        lines += [f"[dae.{layer}]", f"hidden_units = {units}", ""]
    lines += ["[ivs]", "threshold = 0.3", "max_iterations = 8",
              "learning_rate = 0.1", f"max_epochs = {w.ivs_epochs}",
              "patience = 5", "",
              "[finetune]", "learning_rate = 0.1",
              f"max_epochs = {w.ft_epochs}", "patience = 5", "",
              "[run]", f"seed = {seed}", "out = out",
              f"reconstruct_examples = {10 if w.reconstruct else 0}",
              f"export_patterns = {'true' if w.patterns else 'false'}", ""]
    return "\n".join(lines)


def write_amat(path: Path, x: np.ndarray, labels: np.ndarray) -> None:
    """Write features as fixed-point "d.dddddd" text and 0-based labels.

    Formatting is vectorized (one byte matrix, one write), because the
    corpus has millions of fields and is written before every timed run.
    """
    n, m = x.shape
    if labels.max() > 10:
        raise ValueError("the fixed-point writer handles single-digit labels")
    micro = np.rint(x * 1e6).astype(np.int64)
    text = np.empty((n, m, 9), dtype=np.uint8)
    text[:, :, 0] = ord("0") + micro // 10**6
    text[:, :, 1] = ord(".")
    for k in range(6):
        text[:, :, 2 + k] = ord("0") + micro // 10 ** (5 - k) % 10
    text[:, :, 8] = ord(" ")
    tail = np.empty((n, 2), dtype=np.uint8)
    tail[:, 0] = ord("0") + labels - 1
    tail[:, 1] = ord("\n")
    np.concatenate([text.reshape(n, m * 9), tail], axis=1).tofile(path)


def prepare(w: Workload, seed: int, directory: Path) -> np.ndarray:
    """Write the workload's config (and corpus) into `directory` and return
    the planted relevant-variable mask the layer-1 selection is scored on.

    Synthetic workloads regenerate the truth exactly as the runner does,
    from the master seed and runner.KEY_DATA; the amat corpus keeps the
    truth of the benchmark's own generator call.
    """
    from sdae_ivs import runner
    from sdae_ivs.data import gen_synthetic
    from sdae_ivs.numerics import derive_rng

    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.ini").write_text(config_text(w, seed))
    if not w.is_amat:
        _, truth = gen_synthetic(synthetic_spec(w, (w.train, w.valid, w.test)),
                                 derive_rng(seed, runner.KEY_DATA))
        return truth.bits
    spec = synthetic_spec(w, (w.amat_train_rows, 0, w.amat_test_rows))
    full, truth = gen_synthetic(spec, derive_rng(seed, KEY_CORPUS))
    cut = w.amat_train_rows
    write_amat(directory / "train.amat", full.x[:cut], full.labels[:cut])
    write_amat(directory / "test.amat", full.x[cut:], full.labels[cut:])
    return truth.bits
