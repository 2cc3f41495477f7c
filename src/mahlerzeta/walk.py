"""State evolution on the torus and matrix weights on Z^d.

The walk state is a field of 2d-component complex vectors over the N^d torus.
One step sends component 2j-1 (1-based) one site in the -x_j direction and
component 2j one site in the +x_j direction, after the coin has mixed the
components at every site.  Sites are enumerated with x_1 varying fastest
wherever an ordering is exposed.

The return weights on Z^d take the same step without wraparound on the light
cone, on the grid of u_0 = sum_j x_j and u_k = sum_j x_j - 2 x_k (k >= 1):
a site reached in a steps has every u_k in {-a, -a+2, ..., a}, so the field
of a steps lives on the (a+1)^d grid of i_k = (u_k + a)/2, 2^d fewer sites
than the box of side 2a + 1, and x -> -x is i -> a - i.  Z^d is bipartite,
so every odd return weight is zero, and the weight of 2a steps is met in the
middle, W_2a(0) = sum_x W_a(-x) W_a(x); all C_r up to R take floor(R/2) steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .coins import CoinMatrix
from .errors import ComputationError

__all__ = [
    "MomentumPoint",
    "WalkState",
    "MatrixWeight",
    "delta_state",
    "uniform_state",
    "momentum_matrix",
    "evolve",
    "total_measure",
    "matrix_weight_origin",
    "matrix_weight_traces",
]

_TWO_PI = 2.0 * math.pi
_MAX_WEIGHT_BYTES = 512 * 1024 * 1024
# the work budget of evolve, the light cone and the grid power chain, in
# steps * sites * entries; a step costs at least 1024 sites in call overhead
_MAX_EVOLVE_WORK = 1 << 28
_MIN_STEP_SITES = 1024


@dataclass(frozen=True)
class MomentumPoint:
    """A point of momentum space: d angles, each in [0, 2*pi)."""

    angles: tuple[float, ...]

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        if len(angles) < 1:
            raise ValueError("momentum point needs at least one angle")
        for a in angles:
            if not 0.0 <= a < _TWO_PI:
                raise ValueError(f"angle {a} outside [0, 2*pi)")
        object.__setattr__(self, "angles", angles)

    @classmethod
    def from_indices(cls, side_N: int, indices: Iterable[int]) -> "MomentumPoint":
        """Finite-torus momentum 2*pi*k_j/N for integer indices k_j."""
        if side_N < 1:
            raise ValueError(f"side_N must be >= 1, got {side_N}")
        return cls(tuple(_TWO_PI * (k % side_N) / side_N for k in indices))


@dataclass(frozen=True, eq=False)
class WalkState:
    """A 2d-component complex field over the N^d torus at a given time."""

    dim_d: int
    side_N: int
    field: np.ndarray
    time: int = 0

    def __post_init__(self):
        if self.dim_d < 1 or self.side_N < 1:
            raise ValueError("dim_d and side_N must be positive")
        if self.time < 0:
            raise ValueError("time must be non-negative")
        expected = (self.side_N,) * self.dim_d + (2 * self.dim_d,)
        field = np.array(self.field, dtype=np.complex128)
        if field.shape != expected:
            raise ValueError(f"field must have shape {expected}, got {field.shape}")
        field.setflags(write=False)
        object.__setattr__(self, "field", field)

    def __repr__(self):
        return (f"WalkState(d={self.dim_d}, N={self.side_N}, time={self.time})")


def _step_bytes(dim_d: int, side: int, per_site: int) -> int:
    # a step holds three fields at once: the field, its coin mix and the next
    return 3 * side ** dim_d * per_site * 16


def _check_work(steps: int, sites: int, entries: int, what: str) -> None:
    """Refuse ``steps`` steps over ``sites`` sites (charged at least 1024)
    of ``entries`` coin-product entries each, once they pass 2^28."""
    work = steps * max(sites, _MIN_STEP_SITES) * entries
    if work > _MAX_EVOLVE_WORK:
        raise ComputationError(f"{what} ({work} > 2^28 site-step coin products)")


def _check_state(dim_d: int, side_N: int) -> None:
    if dim_d < 1 or side_N < 1:
        raise ValueError(f"dim_d and side_N must be positive, got {dim_d} and {side_N}")
    need = _step_bytes(dim_d, side_N, 2 * dim_d)
    if need > _MAX_WEIGHT_BYTES:
        raise ComputationError(
            f"a step on the {side_N}^{dim_d} torus needs {need / 2 ** 20:.0f} MiB "
            f"(> {_MAX_WEIGHT_BYTES / 2 ** 20:.0f} MiB budget)"
        )


def delta_state(dim_d: int, side_N: int, amplitudes: Sequence[complex] | None = None) -> WalkState:
    """State concentrated at the origin; default internal vector is e_1.

    A non-positive dim_d or side_N raises ``ValueError``, and a torus whose
    step would hold more than 512 MiB of fields ``ComputationError``, before
    anything is allocated.
    """
    _check_state(dim_d, side_N)
    field = np.zeros((side_N,) * dim_d + (2 * dim_d,), dtype=np.complex128)
    if amplitudes is None:
        vec = np.zeros(2 * dim_d, dtype=np.complex128)
        vec[0] = 1.0
    else:
        vec = np.asarray(amplitudes, dtype=np.complex128)
        if vec.shape != (2 * dim_d,):
            raise ValueError(f"amplitudes must have length {2 * dim_d}")
    field[(0,) * dim_d] = vec
    return WalkState(dim_d, side_N, field, 0)


def uniform_state(dim_d: int, side_N: int) -> WalkState:
    """Flat probability state: every component of every site carries equal mass.

    The 1-norm total measure is exactly 1, making this the stationary input
    for random-walk coins.  Sizes are refused as by ``delta_state``.
    """
    _check_state(dim_d, side_N)
    sites = side_N ** dim_d
    value = 1.0 / (sites * 2 * dim_d)
    field = np.full((side_N,) * dim_d + (2 * dim_d,), value, dtype=np.complex128)
    return WalkState(dim_d, side_N, field, 0)


def _momentum_stack(coin: CoinMatrix, mesh) -> np.ndarray:
    """Momentum matrices on d broadcastable angle arrays, from per-axis phases."""
    shape = np.broadcast_shapes(*(np.shape(theta) for theta in mesh))
    phases = np.empty(shape + (2 * coin.dim_d,), dtype=np.complex128)
    for j, theta in enumerate(mesh):
        z = np.exp(1j * theta)
        phases[..., 2 * j] = z
        phases[..., 2 * j + 1] = np.conj(z)
    return phases[..., :, None] * coin.entries


def momentum_matrix(coin: CoinMatrix, k) -> np.ndarray:
    """The momentum-space transfer matrix of the walk at momentum k.

    Row 2j-1 (1-based) of the coin is scaled by exp(+i k_j) and row 2j by
    exp(-i k_j); multiplying Fourier modes by this matrix advances the walk
    one step.
    """
    angles = np.asarray(k.angles if isinstance(k, MomentumPoint) else list(k), dtype=np.float64)
    if angles.shape != (coin.dim_d,):
        raise ValueError(f"momentum must have {coin.dim_d} components, got {angles.shape}")
    return _momentum_stack(coin, tuple(angles))


def _step(field: np.ndarray, entries: np.ndarray, dim_d: int) -> np.ndarray:
    """One periodic step of a component-major field, of shape (2d, N, ..., N):
    the coin mixes the components at every site, then component 2j (0-based)
    moves in from x + e_j and component 2j+1 from x - e_j.

    The mix is one matrix product of the coin with the (2d, N^d) field, and
    each shift two slice copies.  The field and the coin share one dtype,
    float64 for a real walk and complex128 otherwise, and so does the result.
    """
    n, side = field.shape[0], field.shape[1]
    mixed = (entries @ field.reshape(n, -1)).reshape(field.shape)
    nxt = np.empty_like(mixed)
    for j in range(dim_d):
        # nxt[x] = mixed[x + e_j] for component 2j and mixed[x - e_j] for 2j+1
        for comp, cut in ((2 * j, 1 % side), (2 * j + 1, side - 1)):
            axis, rest = (comp,) + (slice(None),) * j, side - cut
            nxt[axis + (slice(None, rest),)] = mixed[axis + (slice(cut, None),)]
            nxt[axis + (slice(rest, None),)] = mixed[axis + (slice(None, cut),)]
    return nxt


def evolve(state: WalkState, coin: CoinMatrix, steps: int) -> WalkState:
    """Advance the state ``steps`` steps with periodic wraparound.

    When neither the coin entries nor the state's field has an imaginary
    part, as for a real coin on ``uniform_state`` or on ``delta_state``
    without amplitudes, the steps run in float64, and otherwise in
    complex128; the returned state holds complex128 either way.

    A run whose steps * max(N^d, 1024) * (2d)^2 exceeds 2^28, or a torus
    whose step would hold more than 512 MiB of fields, raises
    ``ComputationError`` before the first step.
    """
    if coin.dim_d != state.dim_d:
        raise ValueError(f"coin dimension {coin.dim_d} != state dimension {state.dim_d}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    d = state.dim_d
    _check_state(d, state.side_N)
    _check_work(steps, state.side_N ** d, (2 * d) ** 2,
                f"{steps} steps on the {state.side_N}^{d} torus exceed the evolve budget")
    field, entries = state.field, coin.entries
    if not (entries.imag.any() or field.imag.any()):
        field, entries = field.real, entries.real
    field = np.ascontiguousarray(np.moveaxis(field, -1, 0))
    for _ in range(steps):
        field = _step(field, entries, d)
    return WalkState(d, state.side_N, np.moveaxis(field, 0, -1), state.time + steps)


def total_measure(state: WalkState, p: float) -> float:
    """Sum of |component|^p over all sites and components."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float(np.sum(np.abs(state.field) ** p))


@dataclass(frozen=True, eq=False)
class MatrixWeight:
    """The 2d x 2d return weight of the infinite-lattice walk at a given step."""

    dim_d: int
    step: int
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.complex128)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def _check_window(dim_d: int, r: int) -> None:
    """Refuse a light-cone run for r steps over its memory or its work budget.

    The run takes floor(r/2) steps; each is charged the enclosing window of
    (2 floor(r/2) + 1)^d sites of (2d)^2 entries, 2^d times the u-grid, to
    ``evolve``'s budget of 2^28 site-step coin products (``_check_work``).
    """
    side = 2 * (r // 2) + 1
    need = _step_bytes(dim_d, side, (2 * dim_d) ** 2)
    if need > _MAX_WEIGHT_BYTES:
        raise ComputationError(
            f"step count {r} needs a {side}^{dim_d} window "
            f"({need / 2 ** 20:.0f} MiB > {_MAX_WEIGHT_BYTES / 2 ** 20:.0f} MiB budget)"
        )
    _check_work(r // 2, side ** dim_d, (2 * dim_d) ** 2,
                f"step count {r} exceeds the light-cone budget on Z^{dim_d}")


def _cone_step(field: np.ndarray, entries_t: np.ndarray, dim_d: int) -> np.ndarray:
    """One step of a light-cone field on the u-grid into a zero grid one
    larger on every axis: the coin mixes the components at every site, then
    component 2j (0-based) moves to x - e_j and component 2j+1 to x + e_j."""
    side, n = field.shape[0], field.shape[-1]
    mixed = (field.reshape(-1, n) @ entries_t).reshape(field.shape)
    nxt = np.zeros((side + 1,) * dim_d + (n, n), dtype=field.dtype)
    low, high = slice(0, side), slice(1, side + 1)
    for j in range(dim_d):
        # x - e_j is one index up on axis j >= 1 alone, x + e_j on the others
        minus = tuple(high if k == j > 0 else low for k in range(dim_d))
        plus = tuple(low if k == j > 0 else high for k in range(dim_d))
        nxt[minus + (slice(None), 2 * j)] = mixed[..., 2 * j]
        nxt[plus + (slice(None), 2 * j + 1)] = mixed[..., 2 * j + 1]
    return nxt


def _cone_fields(coin: CoinMatrix, steps: int):
    """Yield the light-cone fields F_0, F_1, ..., F_steps of the walk on Z^d.

    F_a has shape (a+1,)*d + (2d, 2d), on the u-grid: x sits at
    i_0 = (sum_j x_j + a)/2 and i_k = i_0 - x_k, and a node with |x|_1 > a is
    0.  F_a[i][k, c] is component c at x of the state started from component
    k at the origin, so W_a(x) is F_a[i].T.  The fields are float64 for a
    coin with no imaginary part and complex128 otherwise.
    """
    d, n, entries = coin.dim_d, coin.size, coin.entries
    entries_t = (entries if entries.imag.any() else entries.real).T
    field = np.eye(n, dtype=entries_t.dtype).reshape((1,) * d + (n, n))
    yield field
    for _ in range(steps):
        field = _cone_step(field, entries_t, d)
        yield field


def matrix_weight_origin(coin: CoinMatrix, r: int) -> MatrixWeight:
    """Return weight at the origin after r steps of the walk on Z^d.

    An odd r returns the zero matrix, since no closed walk has an odd
    length.  An even r = 2a gives W_r(0) = sum_x W_a(-x) W_a(x), met from a
    light-cone run of a steps.  At r = 0 the weight is the identity.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    d = coin.dim_d
    if r % 2:
        return MatrixWeight(d, r, np.zeros((2 * d, 2 * d), dtype=np.complex128))
    _check_window(d, r)
    # a plain loop keeps one field alive between steps
    for field in _cone_fields(coin, r // 2):
        pass
    # sum_x F_a[x] F_a[-x] over the sites and the shared component c
    spatial = list(range(d))
    meet = np.tensordot(field, field[(slice(None, None, -1),) * d],
                        axes=(spatial + [d + 1], spatial + [d]))
    return MatrixWeight(d, r, meet.T)


def matrix_weight_traces(coin: CoinMatrix, r_max: int) -> list[complex]:
    """Traces of the origin return weights for r = 0..r_max in one pass.

    A light-cone run of floor(r_max/2) steps meets each field F_a with
    itself for C_2a; every odd C_r is 0.  A run over 512 MiB of fields or
    over 2^28 site-step coin products raises ``ComputationError`` before
    its first step.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be non-negative, got {r_max}")
    d = coin.dim_d
    _check_window(d, r_max)
    traces = [0j] * (r_max + 1)
    for a, field in enumerate(_cone_fields(coin, r_max // 2)):
        # Tr W_2a(0) = sum_x sum_{k,c} F_a[x][k, c] F_a[-x][c, k]
        reflected = field[(slice(None, None, -1),) * d]
        traces[2 * a] = complex(np.sum(field * reflected.swapaxes(-1, -2)))
    return traces
