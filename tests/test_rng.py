import numpy as np
import pytest

from mpdesign import GammaParams
from oracles import RandomStream, gamma_sample


def test_same_seed_and_label_bit_identical():
    a = gamma_sample(GammaParams(3, 0.01), RandomStream(123, (4,)), size=1000)
    b = gamma_sample(GammaParams(3, 0.01), RandomStream(123, (4,)), size=1000)
    assert np.array_equal(a, b)


def test_int_label_normalized_to_tuple():
    assert RandomStream(1, 5) == RandomStream(1, (5,))


def test_distinct_labels_differ():
    a = RandomStream(123, (0,)).generator().random(100)
    b = RandomStream(123, (1,)).generator().random(100)
    assert not np.array_equal(a, b)


def test_child_extends_label():
    assert RandomStream(9).child(2, 3) == RandomStream(9, (2, 3))


def test_generator_restarts_at_stream_origin():
    s = RandomStream(77, (1,))
    assert np.array_equal(s.generator().random(10), s.generator().random(10))


def test_out_of_order_evaluation_matches_sequential():
    # per-label results must not depend on evaluation order
    seq = {m: RandomStream(5, (m,)).generator().random(4).tolist() for m in range(8)}
    for m in reversed(range(8)):
        assert RandomStream(5, (m,)).generator().random(4).tolist() == seq[m]


def test_seed_range_validated():
    with pytest.raises(ValueError):
        RandomStream(-1)
    with pytest.raises(ValueError):
        RandomStream(2**64)
