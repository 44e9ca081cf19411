import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdae_ivs.data import (Dataset, SyntheticSpec, VariableMask, compact,
                           compact_dataset, expand, gen_synthetic, load_amat,
                           split)
from sdae_ivs.errors import DataError, DimensionError
from sdae_ivs.numerics import BLOCK_ROWS, derive_rng
from util import two_scatter_synthetic

BG_RAND_TRAIN = Path(os.environ.get(
    "SDAE_IVS_DATA", "data")) / "mnist_background_random_train.amat"


def write(tmp_path, text):
    path = tmp_path / "toy.amat"
    path.write_text(text)
    return path


class TestLoadAmat:
    def test_minimal_file(self, tmp_path):
        d = load_amat(write(tmp_path, "0.0 1.0 0\n0.5 0.5 1\n"))
        assert (d.n, d.m, d.num_classes) == (2, 2, 2)
        assert d.labels.tolist() == [1, 2]
        np.testing.assert_array_equal(d.x, [[0.0, 1.0], [0.5, 0.5]])

    def test_one_based_labels(self, tmp_path):
        d = load_amat(write(tmp_path, "0.1 1\n0.2 2\n"), zero_based_labels=False)
        assert d.labels.tolist() == [1, 2]

    def test_ragged_row_names_row_number(self, tmp_path):
        path = write(tmp_path, "0 0 0\n0 0 0 0\n")
        with pytest.raises(DataError, match="row 2"):
            load_amat(path)

    def test_feature_outside_unit_interval(self, tmp_path):
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            load_amat(write(tmp_path, "0.5 1.5 0\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_row_and_column(self, tmp_path, value):
        path = write(tmp_path, f"0.5 0.5 0\n0.5 {value} 1\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_amat(path)

    def test_non_integer_label(self, tmp_path):
        with pytest.raises(DataError, match="non-integer label"):
            load_amat(write(tmp_path, "0.5 0.5 1.25\n"))

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(DataError, match="nowhere.amat"):
            load_amat(tmp_path / "nowhere.amat")

    def test_label_below_base(self, tmp_path):
        with pytest.raises(DataError, match="below"):
            load_amat(write(tmp_path, "0.5 0\n"), zero_based_labels=False)

    @pytest.mark.parametrize("label, message", [
        ("1e300", "too large for a class at row 2"),
        ("9223372036854775808", "too large for a class at row 2"),
        ("-1e300", "below the declared base at row 2")],
        ids=["1e300", "2**63", "-1e300"])
    def test_label_out_of_int64_range_names_row_without_a_warning(
            self, tmp_path, label, message):
        path = write(tmp_path, f"0.5 0\n0.5 {label}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                load_amat(path)

    def test_hash_is_a_field_not_a_comment(self, tmp_path):
        path = write(tmp_path, "0.5 0.5 0 # a\n0.5 0.5 1 # b\n")
        with pytest.raises(DataError, match="non-numeric field .*'#'"):
            load_amat(path)

    def test_ragged_row_after_blank_lines_counts_non_blank_rows(self, tmp_path):
        path = write(tmp_path, "\n0 0 0\n\n  \n0 0 0\n\n0 0\n")
        with pytest.raises(DataError,
                           match="ragged row 3 has 2 fields, expected 3"):
            load_amat(path)

    def test_ragged_row_reported_before_an_earlier_non_numeric_field(self, tmp_path):
        path = write(tmp_path, "0 abc 0\n0 0\n")
        with pytest.raises(DataError, match="ragged row 2"):
            load_amat(path)

    def test_non_numeric_field_quotes_the_field(self, tmp_path):
        path = write(tmp_path, "0 0 0\n0 abc 1\n")
        with pytest.raises(DataError, match="non-numeric field .*'abc'"):
            load_amat(path)

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"])
    def test_empty_file_holds_no_examples_without_a_warning(self, tmp_path, text):
        path = write(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="holds no examples"):
                load_amat(path)
        assert caught == []

    def test_matrix_too_big_to_allocate_names_file_and_bytes(
            self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError

        # Blank lines are not rows; the first row's fields give the width.
        path = write(tmp_path, "0.1 0.2 0.3 0\n\n0.4 0.5 0.6 1\n  \n1 1 1 2\n")
        monkeypatch.setattr(np, "loadtxt", refuse)
        with pytest.raises(DataError) as caught:
            load_amat(path)
        assert str(caught.value) == (
            f"{path}: 3 rows of 4 fields need a float64 matrix of 96 bytes, "
            "which cannot be allocated")

    def test_crlf_line_ends_and_tab_separators(self, tmp_path):
        path = tmp_path / "toy.amat"
        path.write_bytes(b"0.25\t0.5 0\r\n1\t0.75\t1\r\n")
        d = load_amat(path)
        np.testing.assert_array_equal(d.x, [[0.25, 0.5], [1.0, 0.75]])
        assert d.labels.tolist() == [1, 2]

    def test_one_row_gives_a_matrix(self, tmp_path):
        d = load_amat(write(tmp_path, "0.1 0.2 0.3 2"))
        assert d.x.shape == (1, 3)
        assert d.labels.tolist() == [3]

    def test_values_equal_python_float_bit_for_bit(self, tmp_path):
        spellings = ["1e-3", ".5", "1.", "0.1000000000000000055511151231257827",
                     "0.30000000000000004", "0.99999999999999994", "+.25",
                     "1E-5", "4.9406564584124654e-324", "-0", "1"]
        d = load_amat(write(tmp_path, " ".join(spellings) + " 0\n"))
        expected = np.array([float(s) for s in spellings])
        assert d.x[0].tobytes() == expected.tobytes()

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           st.sampled_from(["{!r}", "{:.6g}", "{:.25f}", "{:e}"]))
    def test_formatted_floats_round_trip_like_python_float(
            self, tmp_path_factory, values, fmt):
        fields = [fmt.format(v) for v in values]
        path = tmp_path_factory.getbasetemp() / "formatted.amat"
        path.write_text(" ".join(fields) + " 0\n")
        d = load_amat(path)
        expected = np.array([float(f) for f in fields])
        assert d.x[0].tobytes() == expected.tobytes()

    @pytest.mark.skipif(not BG_RAND_TRAIN.is_file(),
                        reason="bg-rand corpus not available")
    def test_bg_rand_train_dimensions(self):
        d = load_amat(BG_RAND_TRAIN)
        assert (d.n, d.m, d.num_classes) == (12000, 784, 10)


class TestSplit:
    def test_benchmark_protocol_sizes(self):
        d = Dataset(np.zeros((12000, 2)), np.ones(12000, dtype=int), 2)
        train, valid, test = split(d, (10000, 2000))
        assert (train.n, valid.n, test.n) == (10000, 2000, 0)

    def test_partition_concatenates_back(self):
        rng = derive_rng(0)
        d = Dataset(rng.uniform(size=(5, 3)), np.ones(5, dtype=int), 2)
        train, valid, test = split(d, (3, 1))
        assert (train.n, valid.n, test.n) == (3, 1, 1)
        np.testing.assert_array_equal(
            np.concatenate([train.x, valid.x, test.x]), d.x)

    @given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
    def test_partition_property(self, a, b, c):
        n = a + b + c
        rng = derive_rng(n + 1)
        d = Dataset(rng.uniform(size=(n, 2)),
                    rng.integers(1, 3, size=n), 2)
        train, valid, test = split(d, (a, b))
        np.testing.assert_array_equal(
            np.concatenate([train.x, valid.x, test.x]), d.x)
        np.testing.assert_array_equal(
            np.concatenate([train.labels, valid.labels, test.labels]), d.labels)


# The generator calls of perfbench's mnist784 workload and of its amat_io
# corpus.
MNIST784 = SyntheticSpec(100, 684, 10, 0.5, 0.65, (300, 250, 2000))
AMAT_CORPUS = SyntheticSpec(20, 80, 5, 0.5, 0.5, (6000, 0, 18000))


class TestSynthetic:
    spec = SyntheticSpec(num_relevant=4, num_irrelevant=6, num_classes=3,
                         class_separation=2.0, noise_sd=0.3,
                         examples_per_split=(30, 10, 10))

    def test_deterministic(self):
        d1, m1 = gen_synthetic(self.spec, derive_rng(11))
        d2, m2 = gen_synthetic(self.spec, derive_rng(11))
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.labels, d2.labels)
        assert m1 == m2

    def test_ground_truth_popcount(self):
        _, truth = gen_synthetic(self.spec, derive_rng(3))
        assert truth.popcount == self.spec.num_relevant

    def test_no_irrelevant_means_all_ones(self):
        spec = SyntheticSpec(4, 0, 3, 2.0, 0.3, (10, 5, 5))
        _, truth = gen_synthetic(spec, derive_rng(3))
        assert truth == VariableMask.all_ones(4)

    def test_values_in_unit_interval(self):
        d, _ = gen_synthetic(self.spec, derive_rng(5))
        assert d.x.min() >= 0.0 and d.x.max() <= 1.0

    @pytest.mark.parametrize("spec", [
        pytest.param(MNIST784, id="mnist784"),
        pytest.param(SyntheticSpec(4, 0, 3, 2.0, 0.3, (30, 10, 10)),
                     id="irrelevant0"),
        pytest.param(SyntheticSpec(4, 6, 3, 2.0, 0.0, (30, 10, 10)),
                     id="noise0"),
        pytest.param(SyntheticSpec(1, 9, 3, 2.0, 0.3, (30, 10, 10)),
                     id="relevant1"),
        # Row-block tails of 255 rows, none, one row, and one row again
        # after two full blocks.
        *(pytest.param(SyntheticSpec(4, 6, 3, 2.0, 0.3, (n - 20, 10, 10)),
                       id=f"n{n}") for n in (255, 256, 257, 513)),
    ])
    def test_same_bytes_as_the_two_scatter_reference(self, spec):
        d, truth = gen_synthetic(spec, derive_rng(9))
        ref, ref_truth = two_scatter_synthetic(spec, derive_rng(9))
        assert d.x.shape == ref.x.shape
        assert d.x.tobytes() == ref.x.tobytes()
        assert d.labels.tobytes() == ref.labels.tobytes()
        assert truth == ref_truth

    @pytest.mark.parametrize("spec", [MNIST784, AMAT_CORPUS],
                             ids=["mnist784", "amat_io_corpus"])
    def test_peak_memory_no_higher_than_the_reference(self, spec):
        # perfbench's prepare runs the generator, and its peak reaches the
        # benchmark's peak_rss_mb.
        def peak(generate):
            tracemalloc.start()
            try:
                generate(spec, derive_rng(9))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(gen_synthetic) <= peak(two_scatter_synthetic)

    def test_peak_memory_is_the_data_the_planted_block_and_one_block(self):
        # Beyond x and the labels the generator holds the planted block's
        # jitter and class means, then one block of rows: its uniform
        # draws and its reordered copy, whose (BLOCK_ROWS, m) bounds both;
        # 4 kB covers the small arrays and headers.
        spec, n = MNIST784, sum(MNIST784.examples_per_split)
        tracemalloc.start()
        try:
            gen_synthetic(spec, derive_rng(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        planted = n * spec.num_relevant * 8
        assert peak <= n * spec.m * 8 + n * 8 + 2 * planted \
            + BLOCK_ROWS * spec.m * 8 + 4096

    def test_easy_spec_supports_accurate_classifier(self):
        # Oracle for selection tests: the planted task must be learnable.
        from sdae_ivs.mlr import TrainConfig, predict_labels, train_mlr
        spec = SyntheticSpec(20, 80, 5, 3.0, 0.5, (1000, 300, 0))
        d, _truth = gen_synthetic(spec, derive_rng(17))
        train, valid, _ = split(d, (1000, 300))
        model = train_mlr(train, valid, TrainConfig(0.1, 30, 5), derive_rng(1))
        err = np.mean(predict_labels(model, valid.x) != valid.labels)
        assert err <= 0.05


class TestMasks:
    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            compact(np.zeros(3), VariableMask.all_ones(4))
        with pytest.raises(DimensionError):
            expand(np.zeros(3), VariableMask(np.array([1, 0, 1], dtype=bool)))

    def test_compact_expand_example(self):
        mask = VariableMask(np.array([0, 1, 1], dtype=bool))
        x = np.array([0.1, 0.2, 0.3])
        reduced = compact(x, mask)
        np.testing.assert_array_equal(reduced, [0.2, 0.3])
        np.testing.assert_array_equal(expand(reduced, mask), [0.0, 0.2, 0.3])

    def test_compact_identity_under_full_mask(self):
        x = np.array([0.4, 0.5])
        assert np.array_equal(compact(x, VariableMask.all_ones(2)), x)

    @settings(max_examples=100)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_round_trip_zeroes_dropped_positions(self, m, seed):
        rng = derive_rng(seed)
        x = rng.uniform(size=m)
        bits = rng.integers(0, 2, size=m).astype(bool)
        if not bits.any():
            bits[0] = True
        mask = VariableMask(bits)
        np.testing.assert_array_equal(expand(compact(x, mask), mask),
                                      np.where(bits, x, 0.0))

    def test_dataset_level_helpers(self):
        d = Dataset(np.array([[0.1, 0.2], [0.3, 0.4]]),
                    np.array([1, 2]), 2)
        mask = VariableMask(np.array([0, 1], dtype=bool))
        reduced = compact_dataset(d, mask)
        assert reduced.m == 1
        np.testing.assert_array_equal(reduced.x[:, 0], [0.2, 0.4])
