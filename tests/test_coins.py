import math

import numpy as np
import pytest

from mahlerzeta import (
    CoinMatrix,
    build_coin,
    classify_coin,
    custom_coin,
    flip_flop,
)


def test_grover_d2_entries():
    coin = build_coin("grover", 2)
    expected = np.full((4, 4), 0.5) - np.eye(4)
    np.testing.assert_allclose(coin.entries, expected, atol=0)
    assert coin.dim_d == 2 and coin.shift_type == "m"


def test_hadamard_pi_over_4():
    coin = build_coin("hadamard", 1, math.pi / 4)
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    np.testing.assert_allclose(coin.entries, expected, atol=1e-16)
    assert coin.xi == math.pi / 4


def test_simple_rw_entries():
    coin = build_coin("simple_rw", 1)
    np.testing.assert_allclose(coin.entries, np.full((2, 2), 0.5), atol=0)
    coin3 = build_coin("simple_rw", 3)
    np.testing.assert_allclose(coin3.entries, np.full((6, 6), 1 / 6), atol=1e-17)


def test_grover_d1_degenerates_to_swap():
    coin = build_coin("grover", 1)
    np.testing.assert_allclose(coin.entries, np.array([[0, 1], [1, 0]]), atol=0)


def test_build_coin_errors():
    with pytest.raises(ValueError, match="unknown coin kind"):
        build_coin("fourier", 1)
    with pytest.raises(ValueError, match="require the angle"):
        build_coin("hadamard", 1)
    with pytest.raises(ValueError, match="one-dimensional"):
        build_coin("hadamard", 2, 0.3)
    with pytest.raises(ValueError, match="only meaningful"):
        build_coin("grover", 2, xi=0.3)
    with pytest.raises(ValueError, match="positive integer"):
        build_coin("grover", 0)
    with pytest.raises(ValueError, match="up to 32, got 33"):
        build_coin("grover", 33)
    assert build_coin("simple_rw", 32).size == 64


def test_flip_flop_hadamard():
    xi = 0.7
    coin = flip_flop(build_coin("hadamard", 1, xi))
    expected = np.array([[math.sin(xi), -math.cos(xi)], [math.cos(xi), math.sin(xi)]])
    np.testing.assert_allclose(coin.entries, expected, atol=1e-16)
    assert coin.shift_type == "f"


def test_flip_flop_grover_d2():
    coin = flip_flop(build_coin("grover", 2))
    h = 0.5
    expected = np.array([
        [h, -h, h, h],
        [-h, h, h, h],
        [h, h, h, -h],
        [h, h, -h, h],
    ])
    np.testing.assert_allclose(coin.entries, expected, atol=0)


def test_flip_flop_rw_unchanged_values():
    coin = build_coin("simple_rw", 1)
    flipped = flip_flop(coin)
    np.testing.assert_allclose(flipped.entries, coin.entries, atol=0)
    assert flipped.shift_type == "f"


def test_flip_flop_twice_rejected():
    coin = flip_flop(build_coin("grover", 2))
    with pytest.raises(ValueError, match="already flip-flop"):
        flip_flop(coin)


def test_classify_grover_unitary():
    assert classify_coin(build_coin("grover", 2)) == {"unitary"}


def test_classify_rw():
    assert classify_coin(build_coin("simple_rw", 1)) == {"crw", "stochastic", "rw"}


def test_classify_crw_only():
    coin = custom_coin([[0.9, 0.2], [0.1, 0.8]])
    assert classify_coin(coin) == {"crw", "stochastic"}


def test_classify_nothing():
    coin = custom_coin([[2.0, 0.0], [0.0, 2.0]])
    assert classify_coin(coin) == set()


def test_classify_tol_validation():
    with pytest.raises(ValueError, match="tol"):
        classify_coin(build_coin("grover", 2), tol=0.0)


def test_coin_matrix_validation():
    with pytest.raises(ValueError, match="entries must be"):
        CoinMatrix(2, np.eye(2), "grover", "m")
    with pytest.raises(ValueError, match="square"):
        custom_coin(np.ones((2, 3)))
    with pytest.raises(ValueError, match="even"):
        custom_coin(np.ones((3, 3)))
    with pytest.raises(ValueError, match="up to 64, got 66"):
        custom_coin(np.eye(66))
    assert custom_coin(np.eye(64)).dim_d == 32


def test_entries_are_locked():
    coin = build_coin("grover", 2)
    with pytest.raises(ValueError):
        coin.entries[0, 0] = 7.0
