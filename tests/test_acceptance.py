"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines; the slow scaled benchmark run is opt-in via
`-m slow` and needs the corpus files described in the README.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdae_ivs.cli import main as cli_main
from sdae_ivs.dae import DaeModel, DaeTrainConfig, decode, encode
from sdae_ivs.dae import loss as dae_loss
from sdae_ivs.dae import gradient as dae_gradient
from sdae_ivs.data import (SyntheticSpec, VariableMask, compact, expand,
                           gen_synthetic, split)
from sdae_ivs.ivs import IvsConfig, run_ivs, task_importance
from sdae_ivs.mlr import (MlrModel, TrainConfig, evaluate, one_hot,
                          wald_halfwidth)
from sdae_ivs.mlr import gradient as mlr_gradient
from sdae_ivs.numerics import FINE_TUNE, derive_rng, softmax
from sdae_ivs.stack import (StackModel, fine_tune,
                            fine_tune_params, predict_labels, pretrain,
                            select_extractors)
from sdae_ivs.stack import gradient as stack_gradient
from util import (central_diff, cross_entropy, discriminant, grads_close,
                  pretrain_deepest, random_mlr, split_like)

REPO = Path(__file__).resolve().parent.parent
SMOKE = REPO / "configs" / "smoke_synthetic.ini"

# Published benchmark error rates (percent, with printed 95% halfwidths)
# for depths 1-3 of the plain and the variable-selecting pipeline.
PUBLISHED_RESULTS = {
    "bg-rand": [(11.85, 0.28), (9.92, 0.26), (10.00, 0.26),
                (7.58, 0.23), (9.50, 0.26), (7.05, 0.23)],
    "bg-img": [(14.82, 0.31), (13.58, 0.30), (13.41, 0.30),
               (12.31, 0.28), (13.06, 0.29), (11.21, 0.27)],
    "rot-bg-img": [(46.24, 0.44), (44.72, 0.43), (41.05, 0.43),
                   (39.35, 0.43), (39.88, 0.43), (37.53, 0.43)],
}
PUBLISHED_TEST_N = 50_000

# Desk-scale planted-noise protocol shared by criteria 4-6.
PLANTED = SyntheticSpec(num_relevant=20, num_irrelevant=80, num_classes=5,
                        class_separation=3.0, noise_sd=0.5,
                        examples_per_split=(600, 200, 1500))
IVS_TRAINER = TrainConfig(learning_rate=0.1, max_epochs=30, patience=5)
SELECTION = IvsConfig(threshold=0.3, max_iterations=8, mlr=IVS_TRAINER)
HIDDEN = (12, 10)
SEEDS = range(5)
PAIRED_SEEDS = range(20)


def planted_splits(seed):
    d, truth = gen_synthetic(PLANTED, derive_rng(seed))
    train, valid, test = split(d, PLANTED.examples_per_split[:2])
    return train, valid, test, truth


def paired_stack_config(depth, select):
    """pretrain's dae, ivs and top arguments; top also fine-tunes."""
    return dict(
        dae=tuple(DaeTrainConfig(HIDDEN[i], 0.3, 0.1, 10)
                  for i in range(depth)),
        ivs=(SELECTION,) * depth if select else (),
        top=TrainConfig(0.1, 10, 3),
    )


def announce(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_wald_interval_reproduction():
    """Printed halfwidths of all 18 published entries match the Wald formula
    at n = 50000 within 0.01 percentage points."""
    worst = 0.0
    checked = 0
    for entries in PUBLISHED_RESULTS.values():
        for rate_pct, printed_pct in entries:
            computed_pct = 100.0 * wald_halfwidth(rate_pct / 100.0,
                                                  PUBLISHED_TEST_N)
            worst = max(worst, abs(computed_pct - printed_pct))
            checked += 1
            assert abs(computed_pct - printed_pct) <= 0.01
    assert checked == 18
    announce(1, f"18/18 Wald halfwidths within 0.01pp (worst {worst:.4f}pp)")


def test_criterion_2_gradient_oracles():
    """MLR, tied-weight DAE, and depth-2 fine-tune gradients all match
    central finite differences (step 1e-6) within 1e-5 relative error on
    at least 20 random toy instances each. Each check covers the
    trainer's own batch-mean gradient at batch size 1 and at larger
    batches."""
    step = 1e-6
    for seed in range(20):
        rng = derive_rng(seed)
        k, mm = int(rng.integers(2, 5)), int(rng.integers(2, 11))
        model = random_mlr(300 + seed, k, mm, scale=0.8)
        batch = [1, int(rng.integers(2, 9)),
                 int(rng.integers(1, 9))][seed % 3]
        x = rng.uniform(size=(batch, mm))
        labels = rng.integers(1, k + 1, size=batch)
        targets = one_hot(labels, k, np.float64)
        gw, gb = split_like(mlr_gradient(model, batch)(x, targets),
                            (model.weights, model.biases))

        def f():
            return cross_entropy(model, x, labels)

        assert grads_close(gw, central_diff(f, model.weights, step))
        assert grads_close(gb, central_diff(f, model.biases, step))

    for seed in range(20):
        rng = derive_rng(1000 + seed)
        h, mm = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        batch = 1 if seed % 2 else int(rng.integers(2, 9))
        model = DaeModel(rng.normal(scale=0.7, size=(h, mm)),
                         rng.normal(scale=0.4, size=h),
                         rng.normal(scale=0.4, size=mm))
        x_clean = rng.uniform(0.05, 0.95, size=(batch, mm))
        x_in = x_clean + rng.normal(0, 0.1, size=(batch, mm))
        gw, gbe, gbd = split_like(
            dae_gradient(model, batch)(x_clean, x_in),
            (model.weights, model.encoder_bias, model.decoder_bias))

        def f():
            y = decode(model, encode(model, x_in))
            return np.mean([dae_loss(a, b) for a, b in zip(x_clean, y)])

        assert grads_close(gw, central_diff(f, model.weights, step))
        assert grads_close(gbe, central_diff(f, model.encoder_bias, step))
        assert grads_close(gbd, central_diff(f, model.decoder_bias, step))

    for seed in range(20):
        rng = derive_rng(2000 + seed)
        k = int(rng.integers(2, 4))
        mask = VariableMask(np.array([1, 1, 0, 1, 1, 1], dtype=bool))
        stack = StackModel(
            mask,
            [DaeModel(rng.normal(scale=0.6, size=(4, 5)),
                      rng.normal(scale=0.3, size=4),
                      rng.normal(scale=0.3, size=5)),
             DaeModel(rng.normal(scale=0.6, size=(3, 4)),
                      rng.normal(scale=0.3, size=3),
                      rng.normal(scale=0.3, size=4))],
            MlrModel(rng.normal(scale=0.6, size=(k, 3)),
                     rng.normal(scale=0.3, size=k)))
        batch = 1 if seed % 2 else int(rng.integers(2, 9))
        x = rng.uniform(size=(batch, 6))
        labels = rng.integers(1, k + 1, size=batch)
        c1, targets = compact(x, mask), one_hot(labels, k, np.float64)
        gradients = split_like(stack_gradient(stack, batch)(c1, targets),
                               fine_tune_params(stack))

        def f():
            total = 0.0
            for row, label in zip(x, labels):
                cur = compact(row, mask)
                for dae in stack.layers:
                    z = dae.weights @ cur + dae.encoder_bias
                    cur = 1.0 / (1.0 + np.exp(-z))
                logits = stack.top.weights @ cur + stack.top.biases
                total -= float(np.log(softmax(logits)[label - 1]))
            return total / batch

        for g, param in zip(gradients, fine_tune_params(stack)):
            assert grads_close(g, central_diff(f, param, step))

    announce(2, "MLR, tied DAE, and depth-2 fine-tune gradients match "
                "finite differences on 20 instances each")


def test_criterion_3_sensitivity_oracle():
    """The importances of a class pair, task_importance of the two-class
    model made of rows i and j, equal the finite-difference sensitivities
    of the normalized discriminant scaled by the largest, |fd_d| / max|fd|,
    within 1e-6 on 50 random models."""
    step = 1e-6
    worst = 0.0
    for seed in range(50):
        rng = derive_rng(seed)
        k, mm = int(rng.integers(2, 6)), int(rng.integers(2, 10))
        model = random_mlr(5000 + seed, k, mm)
        i = int(rng.integers(1, k + 1))
        j = int(rng.integers(1, k + 1))
        if i == j:
            j = i % k + 1
        x = rng.uniform(size=mm)
        fd = np.empty(mm)
        for d in range(mm):
            e = np.zeros(mm)
            e[d] = step
            fd[d] = (discriminant(model, i, j, x + e)
                     - discriminant(model, i, j, x - e)) / (2 * step)
        pair = MlrModel(model.weights[[i - 1, j - 1]],
                        model.biases[[i - 1, j - 1]])
        gaps = np.abs(task_importance(pair) - np.abs(fd) / np.abs(fd).max())
        worst = max(worst, float(gaps.max()))
        assert np.all(gaps < 1e-6)
    announce(3, f"sensitivities match on 50 models (worst gap {worst:.2e})")


def test_criterion_4_planted_recovery():
    """Selection recovers the 20 planted variables with precision and recall
    of at least 0.9 on each of 5 seeds."""
    scores = []
    for seed in SEEDS:
        train, valid, _, truth = planted_splits(seed)
        result = run_ivs(train, valid, SELECTION, derive_rng(seed, 50))
        found = result.mask.bits
        hits = int((found & truth.bits).sum())
        precision = hits / int(found.sum())
        recall = hits / int(truth.bits.sum())
        scores.append((precision, recall))
        assert precision >= 0.9, f"seed {seed}: precision {precision:.3f}"
        assert recall >= 0.9, f"seed {seed}: recall {recall:.3f}"
    summary = "  ".join(f"({p:.2f},{r:.2f})" for p, r in scores)
    announce(4, f"precision/recall over 5 seeds: {summary}")


def test_criterion_5_paired_trend():
    """With identical seeds and budgets, the selecting pipeline's test error
    is <= the plain pipeline's in at least 16 of 20 seeds at depths 1 and 2,
    and selection histories shrink monotonically to below the input width.
    As in `run`, each variant pre-trains once per seed, two layers deep,
    with a top MLR at each depth."""
    wins = {1: 0, 2: 0}
    details = {1: [], 2: []}
    for seed in PAIRED_SEEDS:
        train, valid, test, _ = planted_splits(seed)
        errors = {}
        for enabled in (False, True):
            cfg = paired_stack_config(2, enabled)
            stacks, ivs_results, _ = pretrain(train, valid, **cfg,
                                              seed=seed, depths=(1, 2))
            if enabled:
                first_layer = ivs_results[0]
                kept = [item.kept for item in first_layer.history]
                assert all(a >= b for a, b in zip(kept, kept[1:]))
                assert first_layer.mask.popcount < train.m
            for depth in (1, 2):
                tuned = fine_tune(stacks[depth], train, valid, cfg["top"],
                                  derive_rng(seed, depth, FINE_TUNE))
                errors[enabled, depth] = evaluate(
                    predict_labels(tuned, test.x), test)
        for depth in (1, 2):
            wins[depth] += errors[True, depth] <= errors[False, depth]
            details[depth].append(f"{100 * errors[False, depth]:.2f}/"
                                  f"{100 * errors[True, depth]:.2f}")
    for depth in (1, 2):
        assert wins[depth] >= 16, \
            f"depth {depth}: only {wins[depth]}/20 paired wins"
        announce(5, f"depth {depth}: {wins[depth]}/20 wins (sdae/sdae-ivs % "
                    f"per seed: {'  '.join(details[depth])})")


def test_criterion_6_extractor_count_trend():
    """The ratio of task-relevant extractors (selecting vs plain pipeline)
    is >= 1 at matched thresholds 0.2, 0.3, and 0.4."""
    seed = 0
    train, valid, _, _ = planted_splits(seed)
    models = {}
    for enabled in (False, True):
        model, _ = pretrain_deepest(
            train, valid, paired_stack_config(1, enabled), seed)
        models[enabled] = model.mask, model.layers[0]
    ratios = []
    for threshold in (0.2, 0.3, 0.4):
        probe = IvsConfig(threshold, 8, IVS_TRAINER)
        counts = {
            enabled: len(select_extractors(
                *models[enabled], train, valid, probe,
                derive_rng(seed, 60, int(threshold * 100)))[0])
            for enabled in (False, True)
        }
        ratio = counts[True] / counts[False]
        ratios.append(f"{threshold}:{counts[True]}/{counts[False]}={ratio:.2f}")
        assert ratio >= 1.0, f"threshold {threshold}: ratio {ratio:.3f} < 1"
    announce(6, "V ratios " + "  ".join(ratios))


def test_criterion_7_byte_identical_determinism(tmp_path):
    """Two smoke runs with the same master seed produce byte-identical
    reports and serialized models."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(SMOKE), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(SMOKE), "--out", str(out_b)]) == 0
    compared = 0
    for name in ("report.json", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        compared += 1
    models = sorted((out_a / "models").iterdir())
    assert models
    for model_path in models:
        twin = out_b / "models" / model_path.name
        assert model_path.read_bytes() == twin.read_bytes()
        compared += 1
    announce(7, f"{compared} files byte-identical across repeated runs")


class TestCriterion8InvariantSuites:
    """Randomized property suites: mask monotonicity with importances that
    top at exactly 1.0, importance scale invariance, softmax shift
    invariance, compact/expand round trip, and split partition."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, allow_nan=False))
    def test_mask_monotonicity(self, seed, threshold):
        # Every scored pre-classifier gives some kept variable importance
        # exactly 1.0, so no threshold in [0, 1] drops them all, and kept
        # counts never rise. Only a degenerate last fit scores nothing.
        spec = SyntheticSpec(num_relevant=3, num_irrelevant=6, num_classes=3,
                             class_separation=1.0, noise_sd=0.5,
                             examples_per_split=(60, 30, 0))
        d, _ = gen_synthetic(spec, derive_rng(seed))
        train, valid, _ = split(d, spec.examples_per_split[:2])
        cfg = IvsConfig(threshold, max_iterations=5,
                        mlr=TrainConfig(learning_rate=0.1, max_epochs=5,
                                        patience=5))
        history = run_ivs(train, valid, cfg, derive_rng(seed, 1)).history
        tops = [item.importance.max() for item in history]
        assert all(top == 1.0 for top in tops[:-1])
        assert tops[-1] in (0.0, 1.0)
        kept = [item.kept for item in history]
        assert all(a >= b >= 1 for a, b in zip(kept, kept[1:]))

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3, allow_nan=False))
    def test_importance_scale_invariance(self, seed, lam):
        model = random_mlr(seed, k=3, m=5)
        scaled = MlrModel(lam * model.weights, lam * model.biases)
        np.testing.assert_allclose(task_importance(scaled),
                                   task_importance(model), atol=1e-12)

    @settings(max_examples=80)
    @given(st.lists(st.floats(-300, 300, allow_nan=False), min_size=2,
                    max_size=6),
           st.floats(-100, 100, allow_nan=False))
    @example(logits=[-9.24e-16, 0.0], shift=17.0)
    def test_softmax_shift_invariance(self, logits, shift):
        z = np.asarray(logits)
        base = softmax(z)
        shifted = softmax(z + shift)
        np.testing.assert_allclose(base, shifted, atol=1e-12)
        # Adding the shift rounds each logit by up to half an ulp of the
        # shifted magnitudes, and exp cannot resolve gaps below eps near
        # 1, so a closer top two may legitimately tie or swap.
        second, top = np.sort(z)[-2:]
        rounding = np.spacing(np.abs(z + shift).max()) + np.finfo(float).eps
        if top - second > 2 * rounding:
            assert np.argmax(base) == np.argmax(shifted)

    @settings(max_examples=80)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_compact_expand_round_trip(self, m, seed):
        rng = derive_rng(seed)
        x = rng.uniform(size=m)
        bits = rng.integers(0, 2, size=m).astype(bool)
        if not bits.any():
            bits[0] = True
        mask = VariableMask(bits)
        np.testing.assert_array_equal(expand(compact(x, mask), mask),
                                      np.where(bits, x, 0.0))

    @settings(max_examples=80)
    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    def test_split_partition(self, a, b, c):
        from sdae_ivs.data import Dataset
        n = a + b + c
        rng = derive_rng(n + 7)
        d = Dataset(rng.uniform(size=(n, 3)), rng.integers(1, 4, size=n), 3)
        train, valid, test = split(d, (a, b))
        np.testing.assert_array_equal(
            np.concatenate([train.x, valid.x, test.x]), d.x)
        np.testing.assert_array_equal(
            np.concatenate([train.labels, valid.labels, test.labels]),
            d.labels)

    def test_announce(self):
        announce(8, "mask monotonicity, scale invariance, shift invariance, "
                    "round trip, and split partition all hold")


BGRAND_TRAIN = Path(os.environ.get("SDAE_IVS_DATA", "data")) \
    / "mnist_background_random_train.amat"
BGRAND_TEST = BGRAND_TRAIN.with_name("mnist_background_random_test.amat")


@pytest.mark.slow
@pytest.mark.skipif(not (BGRAND_TRAIN.is_file() and BGRAND_TEST.is_file()),
                    reason="bg-rand corpus files not available")
def test_criterion_9_scaled_benchmark_run(tmp_path):
    """Scaled bg-rand subset at depth 1: the selecting pipeline beats the
    plain one, and both beat random guessing. Direction check only."""
    config = REPO / "configs" / "bgrand_scaled.ini"
    out = tmp_path / "bgrand"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    sdae = report["results"]["sdae"]["depth1"]["test_error_rate"]
    ivs = report["results"]["sdae_ivs"]["depth1"]["test_error_rate"]
    assert ivs < sdae
    assert sdae < 0.9 and ivs < 0.9
    announce(9, f"scaled bg-rand: sdae {100 * sdae:.2f}% vs "
                f"sdae-ivs {100 * ivs:.2f}%")
