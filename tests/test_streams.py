import numpy as np
import pytest

from quadglass.streams import seed_sequence, stream


def test_same_labels_reproduce_bit_for_bit():
    a = stream(42, "model", 3).standard_normal(100)
    b = stream(42, "model", 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_different_labels_decorrelate():
    a = stream(42, "model", 3).standard_normal(100)
    b = stream(42, "model", 4).standard_normal(100)
    c = stream(43, "model", 3).standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_label_types_are_distinguished():
    assert seed_sequence(0, 1).entropy != seed_sequence(0, "1").entropy


def test_rejects_bad_seed_and_labels():
    with pytest.raises(ValueError):
        stream(-1)
    with pytest.raises(ValueError):
        stream(2**64)
    with pytest.raises(TypeError):
        stream(0, 1.5)


def test_spawned_children_are_independent_of_consumption_order():
    # the package hands child i of Generator.spawn to replicate i, whatever
    # order the workers draw in
    kids = stream(7, "exp").spawn(4)
    draws = [k.standard_normal(8) for k in kids]
    kids2 = stream(7, "exp").spawn(4)
    for arr, kid in zip(reversed(draws), reversed(kids2)):
        assert np.array_equal(arr, kid.standard_normal(8))
