"""Batch experiment driver behind the CLI verbs.

A run loads or synthesizes data, trains SDAE and/or SDAE-IVS stacks at the
requested depths, evaluates them, and writes a machine-readable report plus
image/CSV artifacts. Every random stream derives from the master seed with
a fixed key, so a repeated run reproduces byte-identical outputs; wall time
lives in a sidecar file to keep the report itself deterministic.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import stack as stack_mod
from .config import (VARIANT_SDAE_IVS, ExperimentConfig, config_echo)
from .data import Dataset, gen_synthetic, load_amat, split
from .errors import DataError
from .ivs import IvsResult, run_ivs, write_history_csv, write_importance_csv
from .mlr import evaluate
from .numerics import derive_rng, derive_seed, make_rng
from .pgm import normalize_unit, tile_grid, write_pgm
from .serialize import load_stack, pack_mask, save_stack
from .stack import StackConfig, fine_tune, pretrain, select_extractors

# Master-seed derivation keys; runner-level keys start at 1000 so they can
# never collide with the (depth, phase) children spawned inside pretrain.
KEY_DATA = 1000
KEY_FINETUNE = 1001
KEY_EXTRACTORS = 1002
KEY_IVS_CMD = 1003


def load_splits(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Materialize (train, valid, test) from the configured source."""
    if cfg.source == "synthetic":
        full, _ = gen_synthetic(cfg.synthetic, derive_rng(cfg.seed, KEY_DATA))
        train, valid, test = split(full, (cfg.train_size, cfg.valid_size))
    else:
        base = load_amat(cfg.amat_train, cfg.zero_based_labels)
        if cfg.amat_valid is None:
            train, valid, test = split(base, (cfg.train_size, cfg.valid_size))
        else:
            valid = load_amat(cfg.amat_valid, cfg.zero_based_labels)
            train = base if cfg.train_size <= 0 \
                else split(base, (cfg.train_size, 0))[0]
        if cfg.amat_test is not None:
            # load_config requires one whenever valid is a file.
            test = load_amat(cfg.amat_test, cfg.zero_based_labels)
        if cfg.test_size:
            test = split(test, (cfg.test_size, 0))[0]

    if cfg.variable_shape is not None:
        train, valid, test = (
            Dataset(d.x, d.labels, d.num_classes, cfg.variable_shape)
            for d in (train, valid, test)
        )
    return train, valid, test


def stack_config(cfg: ExperimentConfig, depth: int, variant: str) -> StackConfig:
    ivs_enabled = variant == VARIANT_SDAE_IVS
    return StackConfig(
        dae=cfg.dae[:depth],
        ivs=cfg.ivs[:depth],
        fine_tune=cfg.fine_tune,
        ivs_enabled=ivs_enabled,
        final_ivs=cfg.final_ivs and ivs_enabled,
    )


def _ivs_history_json(results: list[IvsResult | None]) -> list[dict | None]:
    out = []
    for result in results:
        if result is None:
            out.append(None)
            continue
        out.append({
            "final_kept": result.mask.popcount,
            "mask_length": result.mask.m,
            "iterations": [
                {"iteration": item.iteration, "kept": item.kept,
                 "validation_error": item.validation_error}
                for item in result.history
            ],
        })
    return out


def _percent(x: float) -> str:
    return f"{100.0 * x:.2f}"


def cmd_run(cfg: ExperimentConfig) -> None:
    """Full protocol: (load | synthesize) -> pretrain -> fine-tune -> evaluate,
    for every requested depth and variant, writing models and artifacts."""
    started = time.perf_counter()
    train, valid, test = load_splits(cfg)
    out = Path(cfg.out)
    (out / "models").mkdir(parents=True, exist_ok=True)
    (out / "csv").mkdir(exist_ok=True)
    (out / "images").mkdir(exist_ok=True)
    results: dict = {}
    artifacts: list[str] = []

    for variant in cfg.variants:
        results[variant] = {}
        for depth in cfg.depths:
            scfg = stack_config(cfg, depth, variant)
            # One derivation key per depth, shared by both variants, keeps
            # the SDAE / SDAE-IVS comparison paired.
            pre, ivs_results = pretrain(train, valid, scfg,
                                        derive_rng(cfg.seed, depth))
            tuned = fine_tune(pre, train, valid, cfg.fine_tune,
                              make_rng(derive_seed(cfg.seed, KEY_FINETUNE,
                                                   depth)))

            test_report = evaluate(lambda x: stack_mod.predict_labels(tuned, x), test)
            valid_report = evaluate(lambda x: stack_mod.predict_labels(tuned, x), valid)

            tag = f"{variant}-depth{depth}"
            pre_path = out / "models" / f"{tag}-pretrained.json"
            tuned_path = out / "models" / f"{tag}-tuned.json"
            save_stack(pre_path, pre)
            save_stack(tuned_path, tuned)
            artifacts += [str(pre_path.relative_to(out)),
                          str(tuned_path.relative_to(out))]

            entry = {
                "test_error_rate": test_report.error_rate,
                "test_ci95_halfwidth": test_report.ci95_halfwidth,
                "test_n": test_report.n,
                "validation_error_rate": valid_report.error_rate,
                "model": str(tuned_path.relative_to(out)),
                "pretrained_model": str(pre_path.relative_to(out)),
            }
            if any(r is not None for r in ivs_results):
                entry["ivs_layers"] = _ivs_history_json(ivs_results)
                artifacts += _write_ivs_artifacts(out, tag, ivs_results, cfg)
            if (cfg.reconstruct_examples > 0 and cfg.variable_shape is not None
                    and test.n > 0):
                path = _write_reconstruction(out, tag, pre, test, cfg)
                artifacts.append(path)
            if cfg.export_patterns and cfg.variable_shape is not None:
                artifacts += _write_patterns(out, tag, pre, train, valid, cfg, depth)
            results[variant][f"depth{depth}"] = entry

    body = {"config": config_echo(cfg), "results": results,
            "artifacts": artifacts}
    _write_report(out, body, time.perf_counter() - started)


def _write_report(out: Path, body: dict, wall_time_s: float) -> None:
    """report.json (deterministic), its wall-time sidecar, and summary.txt."""
    (out / "report.json").write_text(json.dumps(body, sort_keys=True, indent=1) + "\n")
    (out / "wall_time.txt").write_text(f"{wall_time_s:.3f}\n")

    lines = ["depth  variant    test error %  ci95 +/- %"]
    results = body["results"]
    for variant in sorted(results):
        for depth_key in sorted(results[variant]):
            entry = results[variant][depth_key]
            lines.append(
                f"{depth_key[5:]:>5}  {variant:<9}  "
                f"{_percent(entry['test_error_rate']):>12}  "
                f"{_percent(entry['test_ci95_halfwidth']):>10}"
            )
    (out / "summary.txt").write_text("\n".join(lines) + "\n")


def _write_ivs_artifacts(out: Path, tag: str, ivs_results, cfg) -> list[str]:
    paths = []
    for layer, result in enumerate(ivs_results, start=1):
        if result is None:
            continue
        history_path = out / "csv" / f"{tag}-layer{layer}-history.csv"
        write_history_csv(history_path, result.history)
        paths.append(str(history_path.relative_to(out)))

        first = result.history[0].importance
        csv_path = out / "csv" / f"{tag}-layer{layer}-importance.csv"
        write_importance_csv(csv_path, first)
        paths.append(str(csv_path.relative_to(out)))

        # Raw-input importances render as an image only for the first layer.
        if layer == 1 and cfg.variable_shape is not None:
            img_path = out / "images" / f"{tag}-importance.pgm"
            write_pgm(img_path, first.reshape(cfg.variable_shape))
            paths.append(str(img_path.relative_to(out)))
            mask_path = out / "images" / f"{tag}-mask.pgm"
            write_pgm(mask_path,
                      result.mask.bits.astype(float).reshape(cfg.variable_shape))
            paths.append(str(mask_path.relative_to(out)))
    return paths


def _write_reconstruction(out: Path, tag: str, pre, test: Dataset, cfg) -> str:
    n = min(cfg.reconstruct_examples, test.n)
    originals = test.x[:n]
    rows = [originals]
    for depth in range(1, pre.depth + 1):
        rows.append(stack_mod.reconstruct_through(pre, originals, depth))
    grid = tile_grid(np.concatenate(rows, axis=0), cfg.variable_shape, columns=n)
    path = out / "images" / f"{tag}-reconstruction.pgm"
    write_pgm(path, grid)
    return str(path.relative_to(out))


def _write_patterns(out: Path, tag: str, pre, train, valid, cfg, depth) -> list[str]:
    report = select_extractors(pre, 1, train, valid, cfg.ivs[0],
                               derive_rng(cfg.seed, KEY_EXTRACTORS, depth))
    paths = []
    for name, patterns in (("relevant", report.relevant_patterns),
                           ("irrelevant", report.irrelevant_patterns)):
        if patterns.shape[0] == 0:
            continue
        tiles = np.stack([normalize_unit(row) for row in patterns])
        columns = min(16, tiles.shape[0])
        grid = tile_grid(tiles, cfg.variable_shape, columns=columns)
        path = out / "images" / f"{tag}-patterns-{name}.pgm"
        write_pgm(path, grid)
        paths.append(str(path.relative_to(out)))
    counts = out / "csv" / f"{tag}-extractors.csv"
    counts.write_text("relevant,irrelevant\n"
                      f"{report.relevant_patterns.shape[0]},"
                      f"{report.irrelevant_patterns.shape[0]}\n")
    paths.append(str(counts.relative_to(out)))
    return paths


def cmd_ivs(cfg: ExperimentConfig) -> IvsResult:
    """Standalone selection on the raw training data, with all exports."""
    train, valid, _ = load_splits(cfg)
    out = Path(cfg.out)
    (out / "ivs").mkdir(parents=True, exist_ok=True)
    result = run_ivs(train, valid, cfg.ivs[0], derive_rng(cfg.seed, KEY_IVS_CMD))

    write_history_csv(out / "ivs" / "history.csv", result.history)
    first = result.history[0].importance
    write_importance_csv(out / "ivs" / "importance.csv", first)
    if cfg.variable_shape is not None:
        write_pgm(out / "ivs" / "importance.pgm",
                  first.reshape(cfg.variable_shape))
    (out / "ivs" / "mask.txt").write_text(pack_mask(result.mask) + "\n")
    return result


def _load_model(path: Path, data: Dataset) -> stack_mod.StackModel:
    """A serialized stack, checked to read data of this width."""
    if not path.is_file():
        raise DataError(f"missing model file {path}")
    model = load_stack(path)
    width = model.layers[0].mask.m
    if width != data.m:
        raise DataError(f"model {path} reads {width} variables, "
                        f"but the data has {data.m}")
    return model


def cmd_eval(cfg: ExperimentConfig) -> dict:
    """Re-evaluate the serialized tuned models against the test split.

    Reproduces the reported error rates exactly: the models are
    self-contained and evaluation is deterministic.
    """
    out = Path(cfg.out)
    report_path = out / "report.json"
    if not report_path.is_file():
        raise DataError(f"no report at {report_path}; run `run` first")
    report = json.loads(report_path.read_text())
    _, _, test = load_splits(cfg)

    recomputed: dict = {}
    for variant, depths in report["results"].items():
        recomputed[variant] = {}
        for depth_key, entry in depths.items():
            model = _load_model(out / entry["model"], test)
            check = evaluate(lambda x: stack_mod.predict_labels(model, x), test)
            recomputed[variant][depth_key] = {
                "test_error_rate": check.error_rate,
                "test_ci95_halfwidth": check.ci95_halfwidth,
                "test_n": check.n,
                "matches_report": check.error_rate == entry["test_error_rate"],
            }
    (out / "eval.json").write_text(
        json.dumps(recomputed, sort_keys=True, indent=1) + "\n")
    return recomputed


def cmd_reconstruct(cfg: ExperimentConfig) -> list[str]:
    """Reconstruction grids (origin row, then one row per stacked depth)
    from the serialized pre-trained models."""
    if cfg.variable_shape is None:
        raise DataError("reconstruction images need [data] shape")
    _, _, test = load_splits(cfg)
    out = Path(cfg.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    if test.n == 0:
        raise DataError("no test examples to reconstruct")
    examples = cfg.reconstruct_examples or 8

    cfg = replace(cfg, reconstruct_examples=examples)
    paths = []
    for variant in cfg.variants:
        for depth in cfg.depths:
            tag = f"{variant}-depth{depth}"
            pre = _load_model(out / "models" / f"{tag}-pretrained.json", test)
            paths.append(_write_reconstruction(out, tag, pre, test, cfg))
    return paths


def cmd_export_patterns(cfg: ExperimentConfig) -> list[str]:
    """Relevant/irrelevant first-layer pattern grids from serialized models."""
    if cfg.variable_shape is None:
        raise DataError("pattern images need [data] shape")
    train, valid, _ = load_splits(cfg)
    out = Path(cfg.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "csv").mkdir(exist_ok=True)

    paths = []
    for variant in cfg.variants:
        for depth in cfg.depths:
            tag = f"{variant}-depth{depth}"
            pre = _load_model(out / "models" / f"{tag}-pretrained.json", train)
            paths += _write_patterns(out, tag, pre, train, valid, cfg, depth)
    return paths
