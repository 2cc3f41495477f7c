import os

import numpy as np
import pytest
from hypothesis import settings

from mahlerzeta import build_coin, custom_coin

# CI runs (GitHub Actions sets CI) draw the same examples on every run and
# print the blob that replays a failure with @reproduce_failure
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_unitary(rng: np.random.Generator, n: int = 2) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))[None, :]


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)


REAL_COIN_KINDS = ("orthogonal", "stochastic", "grover", "simple_rw", "hadamard")


def real_coin(kind: str, d: int, seed: int, xi: float = 0.7):
    """A coin with real entries: a seeded orthogonal or column-stochastic
    custom coin, a named family, or the Hadamard-type coin at xi (d = 1)."""
    rng = np.random.default_rng(seed)
    if kind == "orthogonal":
        q, _ = np.linalg.qr(rng.normal(size=(2 * d, 2 * d)))
        return custom_coin(q)
    if kind == "stochastic":
        cols = rng.uniform(0.05, 1.0, size=(2 * d, 2 * d))
        return custom_coin(cols / cols.sum(axis=0))
    return build_coin(kind, d, xi if kind == "hadamard" else None)


def phase_conjugate(coin, phases: np.ndarray):
    """The coin D C D^-1 for D = diag(phases): complex entries, the same walk
    up to the phase D on each component."""
    entries = phases[:, None] * coin.entries / phases[None, :]
    return custom_coin(entries, coin.shift_type)
