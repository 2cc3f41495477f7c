import os

import numpy as np
import pytest
from hypothesis import settings

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
