"""Batch experiment driver behind the CLI verbs.

A run loads or synthesizes data, pre-trains SDAE and/or SDAE-IVS stacks,
evaluates them at the requested depths, and writes a machine-readable
report plus image/CSV artifacts. Every random stream derives from the
master seed with a fixed key, so a repeated run reproduces byte-identical
outputs; wall time lives in a sidecar file to keep the report itself
deterministic.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

from . import stack as stack_mod
from .config import VARIANT_SDAE_IVS, ExperimentConfig, config_echo
from .data import Dataset, gen_synthetic, load_amat, split
from .errors import ConfigError, DataError
from .ivs import IvsResult, run_ivs
from .mlr import evaluate, wald_halfwidth
from .numerics import EXTRACTORS, FINE_TUNE, IVS, derive_rng
from .pgm import normalize_unit, tile_grid, write_pgm
from .serialize import load_stack, pack_mask, save_stack
from .stack import fine_tune, pretrain, select_extractors

# The data's key; one entry long, it never equals a (layer, phase) key.
KEY_DATA = 1000


def load_splits(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Materialize (train, valid, test) from the configured source."""
    if cfg.source == "synthetic":
        spec = cfg.synthetic
        n = sum(spec.examples_per_split)
        too_big = DataError(
            f"[data] train_size, valid_size and test_size ask for {n} "
            f"examples of {spec.m} variables, a float64 matrix of "
            f"{8 * n * spec.m} bytes, which cannot be allocated")
        # Past numpy's index type no draw can be asked for at all.
        if 8 * n * spec.m > np.iinfo(np.intp).max:
            raise too_big
        try:
            full, _ = gen_synthetic(spec, derive_rng(cfg.seed, KEY_DATA))
        except MemoryError as exc:
            raise too_big from exc
        train, valid, test = split(full, spec.examples_per_split[:2])
    else:
        base = load_amat(cfg.amat_train, cfg.zero_based_labels)
        # A class count past the row count can only come from a stray label.
        if not 2 <= base.num_classes <= base.n:
            raise DataError(f"{cfg.amat_train}: the labels span K = "
                            f"{base.num_classes} classes over {base.n} rows, "
                            f"but training needs 2 <= K <= {base.n}")
        path = cfg.amat_train
        train, rest = _cut(base, cfg.train_size, path, "train_size")
        if cfg.amat_valid is None:
            valid, test = _cut(rest, cfg.valid_size, path, "valid_size",
                               "train_size leaves")
        else:
            valid = _like_train(cfg.amat_valid, load_amat(
                cfg.amat_valid, cfg.zero_based_labels), base)
        if cfg.amat_test is not None:
            # load_config requires one whenever valid is a file.
            test = _like_train(cfg.amat_test, load_test(cfg), base)
        else:
            test = _cut(test, cfg.test_size, path, "test_size",
                        "train_size and valid_size leave")[0]

    if cfg.variable_shape is not None:
        h, w = cfg.variable_shape
        if h * w != train.m:
            raise DataError(f"[data] shape {h} {w} covers {h * w} variables, "
                            f"but the data has {train.m}")
    return train, valid, test


def _cut(d: Dataset, n: int, path, key: str, held="the file holds"):
    """(the first n rows of d, the rest), all of d for n = 0, where n is the
    [data] key's value and d the rows of the file path that held counts; a
    larger n is a data error naming the file, the key and both counts."""
    if n > d.n:
        raise DataError(f"{path}: [data] {key} asks for {n} rows, but "
                        f"{held} {d.n}")
    head, _, rest = split(d, (n or d.n, 0))
    return head, rest


def _like_train(path, d: Dataset, train: Dataset) -> Dataset:
    """A split read from its own file, given the train file's class count;
    a label above it or another width is a data error naming the file."""
    if d.m != train.m:
        raise DataError(f"{path}: rows hold {d.m} variables, but the train "
                        f"file's hold {train.m}")
    if d.num_classes > train.num_classes:
        raise DataError(f"{path}: labels span {d.num_classes} classes, "
                        f"more than the train file's {train.num_classes}")
    return Dataset(d.x, d.labels, train.num_classes)


def load_test(cfg: ExperimentConfig) -> Dataset:
    """load_splits' test split, parsing only the [data] test file if any."""
    if cfg.amat_test is None:
        return load_splits(cfg)[2]
    test = load_amat(cfg.amat_test, cfg.zero_based_labels)
    return _cut(test, cfg.test_size, cfg.amat_test, "test_size")[0]


HISTORY = ("iteration", "kept", "validation_error")


def _history(result: IvsResult) -> list[tuple]:
    """Rows under HISTORY, for the history CSV file and for report.json."""
    return [(i, item.kept, item.validation_error)
            for i, item in enumerate(result.history, start=1)]


def _ivs_history_json(results: list[IvsResult]) -> list[dict]:
    return [{
        "final_kept": result.mask.popcount,
        "mask_length": result.mask.m,
        "iterations": [dict(zip(HISTORY, row)) for row in _history(result)],
    } for result in results]


def _write_csv(path: Path, header, rows) -> None:
    """CSV in the csv module's default dialect (lines end in \\r\\n);
    floats are written as their repr, so they read back bit for bit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row]
                         for row in rows)


def _percent(x: float) -> str:
    return f"{100.0 * x:.2f}"


def _output_dir(cfg: ExperimentConfig, *subdirs: str) -> Path:
    """cfg.out with subdirs and csv/ made, and images/ under [data] shape."""
    out = Path(cfg.out)
    images = ("images",) if cfg.variable_shape is not None else ()
    for name in (*subdirs, "csv", *images):
        (out / name).mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(cfg: ExperimentConfig) -> None:
    """Full protocol: (load | synthesize) -> pretrain each variant once,
    with a top MLR at each requested depth -> per depth: fine-tune ->
    evaluate. Each depth reports what a run of that depth alone reports."""
    started = time.perf_counter()
    train, valid, test = load_splits(cfg)
    if test.n == 0:
        raise DataError("the test split is empty, so there is nothing to "
                        "evaluate on")
    out = _output_dir(cfg, "models")
    # An earlier run's report would vouch for the files this one overwrites.
    for name in ("report.json", "summary.txt", "wall_time.txt"):
        (out / name).unlink(missing_ok=True)
    results: dict = {}
    artifacts: list[str] = []

    for variant in cfg.variants:
        results[variant] = {}
        ivs = cfg.ivs if variant == VARIANT_SDAE_IVS else ()
        # cfg.dae holds one plan per layer of the deepest requested depth.
        stacks, ivs_results, first = pretrain(
            train, valid, cfg.dae, ivs, cfg.fine_tune, cfg.seed, cfg.depths)
        # Every depth shares the selections and layer 1 as trained, so
        # selection and pattern artifacts are written once per variant.
        artifacts += _write_ivs_artifacts(out, variant, ivs_results, cfg)
        if cfg.export_patterns:
            artifacts += _write_patterns(out, variant, select_extractors(
                stacks[cfg.depths[0]].mask, first, train, valid, cfg.ivs[0],
                derive_rng(cfg.seed, 1, EXTRACTORS)), cfg)
        for depth in cfg.depths:
            pre = stacks[depth]
            tuned = fine_tune(pre, train, valid, cfg.fine_tune,
                              derive_rng(cfg.seed, depth, FINE_TUNE))

            pre_path, tuned_path = _model_paths(out, variant, depth)
            save_stack(pre_path, pre)
            save_stack(tuned_path, tuned)
            artifacts += [str(pre_path.relative_to(out)),
                          str(tuned_path.relative_to(out))]

            entry = {
                **_scores(tuned, test),
                "validation_error_rate": evaluate(
                    stack_mod.predict_labels(tuned, valid.x), valid),
                "model": str(tuned_path.relative_to(out)),
                "pretrained_model": str(pre_path.relative_to(out)),
            }
            if ivs_results:
                entry["ivs_layers"] = _ivs_history_json(ivs_results[:depth])
            if cfg.reconstruct_examples:
                artifacts.append(_write_reconstruction(
                    out, f"{variant}-depth{depth}", pre, test, cfg))
            results[variant][f"depth{depth}"] = entry

    body = {"config": config_echo(cfg), "results": results,
            "artifacts": artifacts}
    _write_report(out, body, time.perf_counter() - started)


def _model_paths(out: Path, variant: str, depth: int) -> list[Path]:
    """The (pretrained, tuned) model files of one variant and depth."""
    return [out / "models" / f"{variant}-depth{depth}-{stage}.json"
            for stage in ("pretrained", "tuned")]


def _scores(model, test: Dataset) -> dict:
    """The test fields of a result entry, in report.json and eval.json."""
    rate = evaluate(stack_mod.predict_labels(model, test.x), test)
    return {"test_error_rate": rate,
            "test_ci95_halfwidth": wald_halfwidth(rate, test.n),
            "test_n": test.n}


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
        history_path = out / "csv" / f"{tag}-layer{layer}-history.csv"
        _write_csv(history_path, HISTORY, _history(result))
        paths.append(str(history_path.relative_to(out)))

        first = result.history[0].importance
        csv_path = out / "csv" / f"{tag}-layer{layer}-importance.csv"
        _write_csv(csv_path, ("variable", "importance"),
                   enumerate(first.tolist(), start=1))
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


def _write_patterns(out: Path, tag: str, extractors, cfg) -> list[str]:
    """Grids and counts of the (relevant, irrelevant) extractors' rows."""
    paths = []
    for name, patterns in zip(("relevant", "irrelevant"), extractors):
        if patterns.shape[0] == 0:
            continue
        tiles = np.stack([normalize_unit(row) for row in patterns])
        columns = min(16, tiles.shape[0])
        grid = tile_grid(tiles, cfg.variable_shape, columns=columns)
        path = out / "images" / f"{tag}-patterns-{name}.pgm"
        write_pgm(path, grid)
        paths.append(str(path.relative_to(out)))
    counts = out / "csv" / f"{tag}-extractors.csv"
    _write_csv(counts, ("relevant", "irrelevant"), [map(len, extractors)])
    paths.append(str(counts.relative_to(out)))
    return paths


def cmd_ivs(cfg: ExperimentConfig) -> IvsResult:
    """Standalone selection on the raw training data: run's layer-1
    selection files under run's names, and mask.txt."""
    train, valid, _ = load_splits(cfg)
    out = _output_dir(cfg)
    # The stream of run's layer-1 selection, so both find the same mask.
    result = run_ivs(train, valid, cfg.ivs[0], derive_rng(cfg.seed, 1, IVS),
                     phase="layer 1: MLR training")
    _write_ivs_artifacts(out, VARIANT_SDAE_IVS, [result], cfg)
    (out / "mask.txt").write_text(pack_mask(result.mask) + "\n")
    return result


def _leaves(value, path: tuple = ()) -> dict:
    """A JSON value's leaves by key path, a tuple of its object keys and its
    list indices, counted from 1: no key can stand for a nested path. An
    empty object or list is a leaf, so that it is not taken for nothing."""
    if not isinstance(value, (dict, list)) or not value:
        return {path: value}
    items = value.items() if isinstance(value, dict) else enumerate(value, 1)
    return {leaf: item_leaf for key, item in items
            for leaf, item_leaf in _leaves(item, path + (key,)).items()}


def _dotted(path: tuple) -> str:
    return ".".join(map(str, path))


# A leaf one side lacks, which equals no JSON value, null included.
_ABSENT = object()


def _shown(value) -> str:
    return "absent" if value is _ABSENT else json.dumps(value)


def cmd_eval(cfg: ExperimentConfig) -> dict:
    """Re-evaluate the tuned models that `run` writes for cfg against the
    test split, one per variant and depth.

    Reproduces the reported error rates exactly: the models are
    self-contained and evaluation is deterministic.
    """
    out = Path(cfg.out)
    report_path = out / "report.json"
    if not report_path.is_file():
        raise DataError(f"no report at {report_path}; run `run` first")
    try:
        report = json.loads(report_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{report_path} is not valid JSON: {exc}") from exc
    for key in ("config", "results"):
        if not (isinstance(report, dict) and isinstance(report.get(key), dict)):
            raise DataError(f"{report_path} lacks an object {key}; "
                            "run `run` again")
    # Data from another config would fail the models' checks and blame them.
    here, there = _leaves(config_echo(cfg)), _leaves(report["config"])
    for field in sorted(here.keys() | there.keys(),
                        key=lambda path: (_dotted(path), repr(path))):
        ours, theirs = here.get(field, _ABSENT), there.get(field, _ABSENT)
        if ours != theirs:
            raise ConfigError(
                f"{report_path} was written under another config: "
                f"{_dotted(field)} is {_shown(theirs)} there, "
                f"{_shown(ours)} here")
    reported = _leaves(report["results"], ("results",))
    test = load_test(cfg)

    recomputed: dict = {}
    for variant in cfg.variants:
        for depth in cfg.depths:
            field = ("results", variant, f"depth{depth}", "test_error_rate")
            if not isinstance(reported.get(field), float):
                raise DataError(f"{report_path} lacks {_dotted(field)} "
                                "as a float")
            path = _model_paths(out, variant, depth)[1]
            if not path.is_file():
                raise DataError(f"missing model file {path}")
            model = load_stack(path)
            if model.depth != depth:
                raise ValueError(f"{path} holds {model.depth} layers, "
                                 f"not {depth}")
            width = model.mask.m
            if width != test.m:
                raise DataError(f"model {path} reads {width} variables, "
                                f"but the data has {test.m}")
            scores = _scores(model, test)
            scores["matches_report"] = \
                scores["test_error_rate"] == reported[field]
            recomputed.setdefault(variant, {})[f"depth{depth}"] = scores
    (out / "eval.json").write_text(
        json.dumps(recomputed, sort_keys=True, indent=1) + "\n")
    return recomputed
