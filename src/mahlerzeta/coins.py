"""Coin matrices for 2d-state discrete-time walks on Z^d and the torus.

The coin is the 2d x 2d matrix that mixes the internal components of the
walker at each site before the shift moves them to neighbouring sites.
Components are paired per axis: component 2j-1 (1-based) travels one step in
the -x_j direction, component 2j in the +x_j direction.

Supported families
------------------
- ``hadamard``: the one-parameter 2x2 family
  [[cos xi, sin xi], [sin xi, -cos xi]]; xi = pi/4 gives the Hadamard walk.
- ``grover``: entries 1/d - delta_ij (unitary, permutation symmetric).
- ``simple_rw``: all entries equal to 1/(2d), the symmetric random walk.
- ``custom``: any even-sized square matrix supplied by the caller.

A coin carries a shift tag: moving-shift coins ("m") are the plain matrices
above, flip-flop coins ("f") swap the two rows of every axis pair, i.e.
A_f = (I_d kron [[0,1],[1,0]]) A_m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laurent import MAX_VAR_INDEX

__all__ = [
    "HADAMARD",
    "GROVER",
    "SIMPLE_RW",
    "CUSTOM",
    "M_TYPE",
    "F_TYPE",
    "CoinMatrix",
    "build_coin",
    "custom_coin",
    "flip_flop",
    "classify_coin",
]

HADAMARD = "hadamard"
GROVER = "grover"
SIMPLE_RW = "simple_rw"
CUSTOM = "custom"

M_TYPE = "m"
F_TYPE = "f"

_KINDS = (HADAMARD, GROVER, SIMPLE_RW, CUSTOM)


@dataclass(frozen=True, eq=False)
class CoinMatrix:
    """A 2d x 2d coin with its family tag and shift type.

    Instances are immutable; ``entries`` is a locked complex array.  ``xi``
    records the angle parameter for the ``hadamard`` family and is None
    otherwise.
    """

    dim_d: int
    entries: np.ndarray
    kind: str
    shift_type: str
    xi: float | None = None

    def __post_init__(self):
        if self.dim_d < 1:
            raise ValueError(f"dim_d must be >= 1, got {self.dim_d}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown coin kind {self.kind!r}")
        if self.shift_type not in (M_TYPE, F_TYPE):
            raise ValueError(f"shift_type must be {M_TYPE!r} or {F_TYPE!r}")
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.shape != (2 * self.dim_d, 2 * self.dim_d):
            raise ValueError(
                f"entries must be {2 * self.dim_d}x{2 * self.dim_d}, got shape {entries.shape}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return 2 * self.dim_d

    def __repr__(self):
        xi = f", xi={self.xi:.6g}" if self.xi is not None else ""
        return f"CoinMatrix(kind={self.kind!r}, d={self.dim_d}, shift={self.shift_type!r}{xi})"


def build_coin(kind: str, d: int, xi: float | None = None) -> CoinMatrix:
    """Construct the moving-shift coin of the requested family.

    Parameters
    ----------
    kind : str
        One of ``hadamard``, ``grover``, ``simple_rw``.
    d : int
        Spatial dimension; the coin is 2d x 2d.  ``hadamard`` requires d = 1.
    xi : float, optional
        Angle in radians; required exactly when kind is ``hadamard``.

    Raises
    ------
    ValueError
        For an unknown kind, a missing or stray ``xi``, a dimension
        mismatch, or d above 32 (``laurent.MAX_VAR_INDEX``).
    """
    if not isinstance(d, int) or not 1 <= d <= MAX_VAR_INDEX:
        raise ValueError(f"d must be a positive integer up to {MAX_VAR_INDEX}, got {d!r}")
    if kind == HADAMARD:
        if d != 1:
            raise ValueError(f"hadamard coins are one-dimensional, got d={d}")
        if xi is None:
            raise ValueError("hadamard coins require the angle xi")
        c, s = np.cos(xi), np.sin(xi)
        entries = np.array([[c, s], [s, -c]])
        return CoinMatrix(1, entries, HADAMARD, M_TYPE, float(xi))
    if xi is not None:
        raise ValueError(f"xi is only meaningful for {HADAMARD!r} coins")
    if kind == GROVER:
        entries = np.full((2 * d, 2 * d), 1.0 / d) - np.eye(2 * d)
        return CoinMatrix(d, entries, GROVER, M_TYPE)
    if kind == SIMPLE_RW:
        entries = np.full((2 * d, 2 * d), 1.0 / (2 * d))
        return CoinMatrix(d, entries, SIMPLE_RW, M_TYPE)
    raise ValueError(f"unknown coin kind {kind!r}")


def custom_coin(entries, shift_type: str = M_TYPE) -> CoinMatrix:
    """Wrap an arbitrary even-sized square matrix, of size at most 64, as a coin."""
    entries = np.asarray(entries, dtype=np.complex128)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"coin entries must be square, got shape {entries.shape}")
    if entries.shape[0] % 2 != 0 or not 0 < entries.shape[0] <= 2 * MAX_VAR_INDEX:
        raise ValueError(f"coin size must be a positive even number up to {2 * MAX_VAR_INDEX}, "
                         f"got {entries.shape[0]}")
    return CoinMatrix(entries.shape[0] // 2, entries, CUSTOM, shift_type)


def flip_flop(coin: CoinMatrix) -> CoinMatrix:
    """Return the flip-flop version of a moving-shift coin.

    Within every consecutive pair of rows (2j-1, 2j) the rows are swapped;
    this is left multiplication by I_d kron [[0,1],[1,0]].
    """
    if coin.shift_type != M_TYPE:
        raise ValueError("coin is already flip-flop shifted")
    entries = np.empty_like(coin.entries)
    entries[0::2] = coin.entries[1::2]
    entries[1::2] = coin.entries[0::2]
    return CoinMatrix(coin.dim_d, entries, coin.kind, F_TYPE, coin.xi)


def classify_coin(coin: CoinMatrix, tol: float = 1e-10) -> set[str]:
    """Classify a coin as any of ``unitary``, ``stochastic``, ``crw``, ``rw``.

    ``unitary``: A A^dagger = I within ``tol``.  ``crw`` (equivalently
    ``stochastic``): real entries in [0, 1] with unit column sums.  ``rw``:
    a CRW whose rows are constant.  Returns the possibly empty set of matching
    tags.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    a = coin.entries
    tags: set[str] = set()
    eye = np.eye(coin.size)
    if np.max(np.abs(a @ a.conj().T - eye)) <= tol:
        tags.add("unitary")
    real = a.real
    is_real = np.max(np.abs(a.imag)) <= tol
    in_range = bool(np.all(real >= -tol) and np.all(real <= 1.0 + tol))
    col_sums = bool(np.max(np.abs(real.sum(axis=0) - 1.0)) <= tol)
    if is_real and in_range and col_sums:
        tags.update(("crw", "stochastic"))
        row_spread = np.max(real.max(axis=1) - real.min(axis=1))
        if row_spread <= tol:
            tags.add("rw")
    return tags
