"""Torus quadrature with chunked, deterministic reduction.

Uniform tensor grids on [0, 2*pi)^d, midpoint-shifted by default.  For smooth
periodic integrands the periodic trapezoid/midpoint rule converges
geometrically, so refinement doubles the per-axis node count.

``grid_mean`` builds every node from one per-axis angle vector and cuts the
grid into product-set blocks: a block fixes the leading axes, takes a run of
indices on one axis and spans every later axis in full.  An integrand sees a
block as its open mesh, d per-axis angle arrays that broadcast together, so
it can work on per-axis tables (cosines, powers of e^(i theta_j)) and build
per-node rows only where it needs them.  An axis a block spans in full is
the same read-only array object in every block of one grid; only the leading
axes and the run axis are sliced per block.  A block holds at most
``_GRID_BLOCK`` = 2^16 nodes unless the caller asks for fewer, which keeps an
integrand's temporaries near 1 MB; before its first block a process frees
one untouched 16 MiB array, so that they are reused, not faulted in afresh.
Block sums are accumulated in a fixed order with ``math.fsum``, which makes
every result bit-reproducible.

An integrand even in theta_j, f(theta_j) = f(2 pi - theta_j), is averaged on
half of axis j: with the half-node shift and an even M the grid is closed
under that mirror and has no node on its fixed points 0 and pi, so the M/2
nodes in [0, pi) carry the mean (``grid_mean``'s ``fold``).  The midpoint
rule on a symmetric grid keeps its accuracy under the fold; only rounding
differs.

``refine_to_tol`` is the one refinement ladder: every refined torus average
in the package runs through it, with or without Richardson extrapolation.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError

__all__ = [
    "QuadratureSpec",
    "RefineResult",
    "grid_mean",
    "refine_to_tol",
    "det_stack",
    "set_thread_count",
    "get_thread_count",
]

# per-grid work budget: 4x the largest grid of any default spec or suite check
_MAX_GRID_NODES = 1 << 26

# nodes per grid_mean block: at 2^16 an integrand's per-block temporaries
# stay near 1 MB and are reused by the allocator, where at 2^20 each block
# faulted in 8-16 MB afresh (a 2-thread perfbench `cli` pass on a 2-core
# host: about 9,700 minor faults and 99 MB peak RSS at 2^20, 2,300 and
# 54 MB at 2^16); at 2^14 the per-block Python overhead outweighs the saving
_GRID_BLOCK = 1 << 16

_allocator_settled = False


def _settle_allocator() -> None:
    """Free one untouched 16 MiB array, once per process: glibc then raises
    its mmap threshold to that size (its trim threshold to twice it), so
    block temporaries are reused from the heap, not faulted in afresh."""
    global _allocator_settled
    if not _allocator_settled:
        _allocator_settled = True
        np.empty(1 << 21)


def set_thread_count(n: int) -> None:
    """Deprecated no-op: every grid runs on the calling thread.

    A count below 1 is still refused with ``ValueError``.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    warnings.warn("set_thread_count is a no-op: grids run on one thread",
                  DeprecationWarning, stacklevel=2)


def get_thread_count() -> int:
    """Deprecated: always 1, the thread every grid runs on."""
    warnings.warn("get_thread_count is deprecated: grids run on one thread",
                  DeprecationWarning, stacklevel=2)
    return 1


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolution, node placement and convergence policy for torus integrals.

    Nodes along each axis sit at ``2*pi*(k + node_shift)/M`` for
    ``k = 0..M-1``; the default half-node shift keeps grids off zeros at
    theta_j = 0, though not off a zero set such as the diagonal of X1 - X2.
    ``points_per_dim`` is the first full grid: the ladder of
    ``refine_to_tol`` starts one halving below it and doubles M until its
    convergence test passes or ``max_refinements`` doublings have been
    spent.
    """

    points_per_dim: int = 32
    node_shift: float = 0.5
    tol: float = 1e-10
    max_refinements: int = 7

    def __post_init__(self):
        if self.points_per_dim < 2:
            raise ValueError(f"points_per_dim must be >= 2, got {self.points_per_dim}")
        if not 0.0 <= self.node_shift < 1.0:
            raise ValueError(f"node_shift must lie in [0, 1), got {self.node_shift}")
        # NaN fails every comparison and inf passes every one: either
        # tolerance would stop the ladder after its first two grids
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_refinements < 0:
            raise ValueError(f"max_refinements must be >= 0, got {self.max_refinements}")


def _blocks(counts, max_block: int) -> list[tuple[tuple[int, ...], int, int]]:
    """The product-set blocks of the grid with ``counts[j]`` nodes on axis j, in row-major order.

    With k the smallest axis count such that the axes k..d-1 span at most
    ``max_block`` nodes, a block ``(outer, j0, j1)`` fixes the indices
    ``outer`` of axes 0..k-2, takes the run [j0, j1) of at most max_block
    // (nodes of axes k..d-1) indices on axis k-1, and spans every later
    axis in full.
    """
    k = 1
    while math.prod(counts[k:]) > max_block:
        k += 1
    run = max_block // math.prod(counts[k:])
    return [(outer, j0, min(j0 + run, counts[k - 1]))
            for outer in itertools.product(*map(range, counts[:k - 1]))
            for j0 in range(0, counts[k - 1], run)]


def _open_mesh(full, block) -> tuple[np.ndarray, ...]:
    """Per-axis angle arrays of one block, each shaped to broadcast over it.

    ``full[j]`` is all of axis j in its broadcast shape; an axis the block
    spans in full is passed on as that object, the others are sliced from it.
    """
    outer, j0, j1 = block
    mesh = list(full)
    for j, (a, b) in enumerate([(i, i + 1) for i in outer] + [(j0, j1)]):
        if b - a < full[j].size:
            mesh[j] = full[j][(slice(None),) * j + (slice(a, b),)]
    return tuple(mesh)


def grid_mean(fn, d: int, points: int, shift: float, *, fold=(),
              max_block: int | None = None) -> tuple[complex | np.ndarray, float | None]:
    """Average ``fn`` over the tensor grid with M = ``points`` nodes per axis.

    ``fold`` names the axes on which ``fn`` is even, f(theta_j) =
    f(2 pi - theta_j).  With shift 0.5 and an even M every folded axis keeps
    only its M/2 nodes in [0, pi): the grid is closed under the mirror and
    has no node on its fixed points 0 and pi, so those nodes carry the full
    mean up to rounding.  For an odd M or another shift ``fold`` is ignored.

    The grid is cut into product-set blocks of at most ``max_block`` nodes
    (default ``_GRID_BLOCK`` = 2^16, which keeps an integrand's per-block
    temporaries near 1 MB, small enough to be reused rather than faulted in
    afresh for every block): a block fixes the leading axes, takes a run of
    indices on one axis and spans every later axis in full.  When every axis
    count and ``max_block`` are powers of two the blocks are runs of the
    flattened row-major index.  ``fn`` is called once per block with its open
    mesh: a tuple of d read-only angle arrays, axis j of shape 1 except along
    dimension j, which broadcast together to the block's shape; an axis a
    block spans in full is the same array object in every block of one grid
    (and a new one in the next call).  It returns ``(values, stat)`` where
    ``values`` is an array (real or complex) whose first axis runs over the
    block's nodes in row-major order, summed before ``fn`` runs again, and
    ``stat`` a float minimum statistic or None.  Returns ``(mean, min_stat)``,
    ``mean`` complex for 1-D ``values``, else an array of their trailing shape.
    A grid that evaluates more than 2^26 nodes raises ``ComputationError``
    before ``fn`` is called.
    """
    if max_block is None:
        max_block = _GRID_BLOCK
    if d < 1 or max_block < 1:
        raise ValueError(f"need d >= 1 and max_block >= 1, got d={d}, max_block={max_block}")
    folded = set(fold) if shift == 0.5 and points % 2 == 0 else set()
    counts = [points // 2 if j in folded else points for j in range(d)]
    total = math.prod(counts)
    if total > _MAX_GRID_NODES:
        shape = f"{counts[0]}^{d}" if len(set(counts)) == 1 else "x".join(map(str, counts))
        raise ComputationError(
            f"grid {shape} = {total} nodes exceeds the cap of {_MAX_GRID_NODES} (2^26)"
        )
    axis = (np.arange(points) + shift) * (2.0 * math.pi / points)
    axis.flags.writeable = False  # every block reads it
    full = [axis[:n].reshape([n if k == j else 1 for k in range(d)])
            for j, n in enumerate(counts)]

    def work(block):
        values, stat = fn(_open_mesh(full, block))
        return np.sum(values, axis=0), stat

    _settle_allocator()
    # a block's values are freed before the next block is evaluated
    parts = [work(block) for block in _blocks(counts, max_block)]
    sums = np.asarray([p[0] for p in parts])
    stats = [p[1] for p in parts if p[1] is not None]
    means = [complex(math.fsum(c.real) / total, math.fsum(c.imag) / total)
             for c in sums.reshape(len(sums), -1).T]
    mean = means[0] if sums.ndim == 1 else np.reshape(means, sums.shape[1:])
    return mean, (min(stats) if stats else None)


@dataclass(frozen=True)
class RefineResult:
    """Outcome of one ladder run.

    ``value`` is the last estimate and ``previous`` the one before it (the
    previous grid value, or the previous extrapolant); ``delta`` is the gap
    the convergence test used.  ``points_per_dim`` is the finest grid and
    ``evaluations`` the number of grids.
    """

    value: complex
    previous: complex
    delta: float
    converged: bool
    points_per_dim: int
    evaluations: int


def refine_to_tol(eval_at, spec: QuadratureSpec, order=None) -> RefineResult:
    """Run the doubling ladder M/2, M, 2M, ... on ``eval_at(points)``.

    ``order`` is an optional zero-argument callable, called after each grid
    from the second on.  It returns the error ratio r = 2^p of one doubling
    (an error model ~ M^-p), or None for no extrapolation.  Without a ratio
    the estimate is the last grid value and ``delta`` is its difference from
    the grid before.  With one, the estimate is the Richardson extrapolant
    (r v_k - v_{k-1}) / (r - 1) of the last two grids and ``delta`` is its
    difference from the extrapolant of the two grids before, both taken with
    the current ratio.  A lone extrapolant, from the first two grids only,
    has the plain grid difference as ``delta`` and never counts as converged.
    The ladder stops once ``delta`` is no longer ``>= spec.tol`` (a NaN
    stops it, unconverged) or after ``spec.max_refinements`` doublings.
    """
    points = spec.points_per_dim
    grids = [eval_at(max(1, points // 2)), eval_at(points)]
    while True:
        ratio = order() if order is not None else None
        if ratio is None:
            value, previous = grids[-1], grids[-2]
            delta = abs(value - previous)
        else:
            value = (ratio * grids[-1] - grids[-2]) / (ratio - 1.0)
            if len(grids) < 3:
                previous, delta = grids[-2], abs(grids[-1] - grids[-2])
            else:
                previous = (ratio * grids[-2] - grids[-3]) / (ratio - 1.0)
                delta = abs(value - previous)
        settled = ratio is None or len(grids) >= 3
        if (settled and not delta >= spec.tol) or len(grids) - 2 >= spec.max_refinements:
            return RefineResult(value, previous, delta, settled and delta < spec.tol,
                                points, len(grids))
        points *= 2
        grids.append(eval_at(points))


def det_stack(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices (..., n, n).

    Closed forms for n in {1, 2}, LU with partial pivoting otherwise.
    """
    n = mats.shape[-1]
    if n == 1:
        return mats[..., 0, 0]
    if n == 2:
        return (mats[..., 0, 0] * mats[..., 1, 1]
                - mats[..., 0, 1] * mats[..., 1, 0])
    return np.linalg.det(mats)
