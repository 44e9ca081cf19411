import numpy as np

from sdae_ivs.pgm import normalize_unit


def test_normalize_unit_maps_a_constant_row_to_mid_grey():
    np.testing.assert_array_equal(normalize_unit(np.full(5, -3.25)),
                                  np.full(5, 0.5))


def test_normalize_unit_maps_the_extremes_to_0_and_1():
    np.testing.assert_array_equal(normalize_unit(np.array([2.0, 4.0, 3.0])),
                                  [0.0, 1.0, 0.5])
