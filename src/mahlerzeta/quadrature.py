"""Torus quadrature with chunked, deterministic reduction.

Uniform tensor grids on [0, 2*pi)^d, midpoint-shifted by default.  For smooth
periodic integrands the periodic trapezoid/midpoint rule converges
geometrically, so refinement doubles the per-axis node count.

``grid_mean`` cuts the grid into product-set blocks: a block fixes the
leading axes, takes a run of indices on one axis and spans every later axis
in full.  An integrand sees a block as its open mesh, d per-axis angle arrays
that broadcast together, so it can work on per-axis tables (cosines, powers
of e^(i theta_j)) and build per-node rows only where it needs them.  An axis
a block spans in full is the same read-only array object in every block of
one grid; only the leading axes and the run axis are sliced per block, and
an axis longer than a block is built per block from its index range, so a
grid never holds more than a few blocks' worth of angles.  A block holds at most
``_GRID_BLOCK`` = 2^16 nodes unless the caller asks for fewer, which keeps an
integrand's temporaries near 1 MB; before its first block a process frees
one untouched 16 MiB array, so that they are reused, not faulted in afresh.
Each block is summed pairwise along a contiguous node axis, whatever the
memory layout of its values, and the block sums are accumulated in a fixed
order with ``math.fsum``, which makes every result bit-reproducible.

An integrand even in theta_j, f(theta_j) = f(2 pi - theta_j), is averaged on
half of axis j (``grid_mean``'s ``fold``) by one rule: a folded axis keeps the
nodes that carry the mean, each weighted by the grid nodes it stands for, and
a block slices its angles and weights with the same cut.  With the half-node
shift and an even M the grid is closed under the mirror and has no node on
its fixed points 0 and pi, so each of the M/2 nodes in [0, pi) stands for
two, a common factor the mean leaves out.  With no shift (the finite torus)
every M is closed under it and nodes 0 and (even M) M/2 are its fixed
points: the floor(M/2) + 1 nodes in [0, pi] carry the mean, weighted 2 but 1
at the fixed points.  Every weight is 1 or 2, so their products are exact in
any order, and a folded mean differs from the full grid's by rounding alone.
The 2^26-node budget counts the nodes a grid evaluates, folded or not.

``refine_to_tol`` is the one refinement ladder.  A mean whose integrand is
analytic on a strip |Im theta_j| < a, with a bound on it there, can skip it:
``_strip_points`` sizes one grid whose error is proven below a target, and
``_proven_grid`` runs that grid wherever it evaluates no more nodes than the
ladder's first two grids.  The log zeta integrand and the sum-of-cosines logs
of the Grover, random-walk and spanning-tree means do so; every other refined
torus average runs the ladder, with or without Richardson extrapolation.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ComputationError

__all__ = [
    "QuadratureSpec",
    "RefineResult",
    "grid_mean",
    "refine_to_tol",
    "det_stack",
    "set_thread_count",
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolution, node placement and convergence policy for torus integrals.

    Nodes along each axis sit at ``2*pi*(k + node_shift)/M`` for
    ``k = 0..M-1``; the default half-node shift keeps grids off zeros at
    theta_j = 0, though not off a zero set such as the diagonal of X1 - X2.
    ``points_per_dim`` is the first full grid: the ladder of
    ``refine_to_tol`` starts one halving below it and doubles M until its
    convergence test passes or ``max_refinements`` doublings have been
    spent.  A mean with a proven strip bound (``_proven_grid``) runs one
    grid instead where that evaluates no more nodes than the ladder's first
    two, so the spec is the most such a mean spends.
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


def _nodes(points: int, shift: float, a: int, b: int) -> np.ndarray:
    """Angles 2 pi (k + shift) / M of the nodes k = a..b-1 of one axis, read-only.

    A node's value depends on k alone, so a run built from its index range
    holds the same bits as the slice of the whole axis.
    """
    theta = (np.arange(a, b) + shift) * (2.0 * math.pi / points)
    theta.setflags(write=False)
    return theta


def _mirror_weights(points: int, a: int, b: int) -> np.ndarray:
    """Weights of the nodes k = a..b-1 of an axis folded at shift 0: 2, but 1 at k = 0 and k = M/2.

    Node k > 0 stands for itself and its mirror M - k; nodes 0 and (even M)
    M/2 are their own mirrors.  The weights of nodes 0..floor(M/2) sum to M.
    """
    w = np.full(b - a, 2.0)
    if a == 0 < b:
        w[0] = 1.0
    if points % 2 == 0 and b == points // 2 + 1:
        w[-1] = 1.0
    return w


def _folded_count(points: int, shift: float) -> int:
    """Nodes a folded axis of M = ``points`` nodes keeps.

    Its M/2 nodes in [0, pi) at shift 0.5 and an even M, its floor(M/2) + 1
    nodes in [0, pi] at shift 0 and M >= 3, and all M nodes otherwise.
    """
    if shift == 0.5 and points % 2 == 0:
        return points // 2
    if shift == 0.0 and points > 2:
        return points // 2 + 1
    return points


def _grid_counts(d: int, points: int, shift: float, fold) -> list[int]:
    """Nodes on each axis of the grid ``grid_mean(fn, d, points, shift, fold=fold)`` evaluates.

    A folded axis keeps ``_folded_count(points, shift)`` nodes, any other
    axis all M.
    """
    kept = _folded_count(points, shift)
    folded = set(fold)
    return [kept if j in folded else points for j in range(d)]


def _capped(counts: list[int]) -> list[int]:
    """``counts``, once the grid of ``counts[j]`` nodes on axis j is within the 2^26 cap.

    Raises ``ComputationError``, quoting the shape and the node count, when it is not.
    """
    total = math.prod(counts)
    if total > _MAX_GRID_NODES:
        d = len(counts)
        shape = f"{counts[0]}^{d}" if len(set(counts)) == 1 else "x".join(map(str, counts))
        raise ComputationError(
            f"grid {shape} = {total} nodes exceeds the cap of {_MAX_GRID_NODES} (2^26)"
        )
    return counts


def grid_mean(fn, d: int, points: int, shift: float, *, fold=(),
              max_block: int | None = None) -> tuple[complex | np.ndarray, float | None]:
    """Average ``fn`` over the tensor grid with M = ``points`` nodes per axis.

    ``fold`` names the axes on which ``fn`` is even, f(theta_j) =
    f(2 pi - theta_j).  A folded axis keeps the nodes that carry the mean,
    each weighted by the grid nodes it stands for, and its angles and weights
    are sliced together.  With shift 0.5 and an even M those are its M/2
    nodes in [0, pi), two grid nodes each: the grid is closed under the
    mirror and has no node on its fixed points 0 and pi, so the mean divides
    by the nodes kept.  With shift 0 and M >= 3 they are its nodes k =
    0..floor(M/2), weighted 2 for k and M - k but 1 at the mirror's fixed
    points k = 0 and (even M) k = M/2, and the mean divides by M^d: a
    block's values are multiplied by the product of its axes' weights before
    its sum.  Every weight is 1 or 2, so that product is exact and the result
    is the full grid's mean up to rounding.  For an odd M at shift 0.5, or
    another shift, ``fold`` is ignored.

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
    (and a new one in the next call).  An axis of at most ``max_block`` nodes,
    its angles with its weights, is built once per grid and sliced per block;
    a longer one, which no block spans, is built per block from its index
    range, so no grid holds more than O(d max_block) angles.  ``fn`` returns
    ``(values, stat)`` where ``values`` is an array (real or complex) whose
    first axis runs over the block's nodes in row-major order, summed before
    ``fn`` runs again (each column pairwise along its node axis, made
    contiguous where it is not, so the sum does not depend on the memory
    layout of ``values``), and ``stat`` a float minimum statistic or None.
    Returns ``(mean, min_stat)``, ``mean`` complex for 1-D ``values``, else
    an array of their trailing shape.  A grid that evaluates more than 2^26
    nodes raises ``ComputationError`` before ``fn`` is called: the cap counts
    the nodes evaluated, not M^d.
    """
    if max_block is None:
        max_block = _GRID_BLOCK
    if d < 1 or max_block < 1:
        raise ValueError(f"need d >= 1 and max_block >= 1, got d={d}, max_block={max_block}")
    counts = _capped(_grid_counts(d, points, shift, fold))
    blocks = _blocks(counts, max_block)
    # a folded axis at shift 0 has fewer than M nodes, weighted to sum to M
    weighted = [shift == 0.0 and n < points for n in counts]
    total = points ** d if any(weighted) else math.prod(counts)

    # one vector of angles, and one of weights, per grid: an axis of at most
    # max_block nodes is sliced from them, a longer one, which no block spans,
    # is built per block from its index range to the same bits
    line = _nodes(points, shift, 0, min(max(counts), max_block))
    marks = _mirror_weights(points, 0, min(min(counts), max_block)) if any(weighted) else None

    def axis(j, a, b):
        # angles and weights (None if unweighted) of the nodes a..b-1 of axis j
        shape = (1,) * j + (b - a,) + (1,) * (d - 1 - j)
        theta = line[a:b] if b <= line.size else _nodes(points, shift, a, b)
        if not weighted[j]:
            return theta.reshape(shape), None
        w = marks[a:b] if b <= marks.size else _mirror_weights(points, a, b)
        return theta.reshape(shape), w.reshape(shape)

    table = [axis(j, 0, n) if n <= max_block else None for j, n in enumerate(counts)]

    def work(block):
        outer, j0, j1 = block
        rows = list(table)
        for j, (a, b) in enumerate([(i, i + 1) for i in outer] + [(j0, j1)]):
            if b - a < counts[j]:
                rows[j] = axis(j, a, b)
        mesh, weights = zip(*rows)
        values, stat = fn(mesh)
        # numpy sums pairwise only along a contiguous axis (across C-ordered
        # rows it adds one row at a time), so every column is summed along a
        # contiguous node axis: the same bits for any memory layout of values
        if values.ndim > 1:
            values = np.ascontiguousarray(np.moveaxis(values, 0, -1))
        if marks is not None:  # exact in any order: every weight is 1 or 2
            w = reduce(np.multiply, [x for x in weights if x is not None])
            nodes = values.reshape(values.shape[:-1] + tuple(theta.size for theta in mesh))
            values = (nodes * w).reshape(values.shape)
        return values.sum(axis=-1), stat

    _settle_allocator()
    # a block's values are freed before the next block is evaluated
    parts = [work(block) for block in blocks]
    sums = np.asarray([p[0] for p in parts])
    stats = [p[1] for p in parts if p[1] is not None]
    if sums.ndim == 1:
        mean = complex(math.fsum(sums.real) / total, math.fsum(sums.imag) / total)
    else:
        mean = np.reshape([complex(math.fsum(c.real) / total, math.fsum(c.imag) / total)
                           for c in sums.reshape(len(sums), -1).T], sums.shape[1:])
    return mean, (min(stats) if stats else None)


@dataclass(frozen=True)
class RefineResult:
    """Outcome of one ladder run.

    ``value`` is the last estimate and ``previous`` the one before it (the
    previous grid value, or the previous extrapolant); ``delta`` is the gap
    the convergence test used.  ``points_per_dim`` is the finest grid and
    ``evaluations`` the number of grids.  ``error_bound`` is None on a
    ladder; a proven grid (``_proven_grid``) has one evaluation, its value as
    ``previous`` and its discretization bound as ``delta`` and
    ``error_bound``.
    """

    value: complex
    previous: complex
    delta: float
    converged: bool
    points_per_dim: int
    evaluations: int
    error_bound: float | None = None


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


def _strip_points(a_max: float, bound, d: int, tol: float) -> tuple[int, float]:
    """The smallest even M whose discretization bound on the M^d grid meets ``tol``, and that bound.

    ``bound(a)`` bounds |f| where every |Im theta_j| <= a, for 0 < a <
    ``a_max``, f being analytic on that polystrip.  Its Fourier coefficients
    then obey |f^(k)| <= B e^(-a |k|_1), and a grid of M nodes per axis at any
    shift aliases exactly the k in M Z^d, k != 0, onto its mean, so the mean
    is off by at most B (((1 + q) / (1 - q))^d - 1) with q = e^(-a M)
    (Trefethen & Weideman, SIAM Review 2014).  Nine half-widths a = a_max
    k / 10 are tried and the one that needs the fewest nodes is kept; the
    bound returned is the least of the nine at that M.  The d-th root of
    1 + tol/B is taken through ``log1p``: rounded, it would be 1.
    """
    def needed(a, b):
        # ((1 + q) / (1 - q))^d <= 1 + tol / B  <=>  q <= tanh(log1p(tol / B) / 2d)
        q = math.tanh(math.log1p(tol / b) / (2 * d))
        return 2 * math.ceil(-math.log(q) / (2 * a))

    def error(a, b, points):
        q = math.exp(-a * points)
        return b * math.expm1(d * math.log1p(2 * q / (1 - q)))

    strips = [(a, bound(a)) for a in (a_max * k / 10 for k in range(1, 10))]
    points = max(2, min(needed(a, b) for a, b in strips))
    return points, min(error(a, b, points) for a, b in strips)


def _proven_grid(eval_at, spec: QuadratureSpec, nodes, a_max: float, bound,
                d: int) -> RefineResult | None:
    """One grid of ``eval_at(points)`` with a proven bound, or None where the ladder is cheaper.

    ``eval_at`` is the M^d grid mean of an integrand analytic on the strip
    of ``_strip_points`` and ``nodes(points)`` the nodes that grid evaluates.
    The grid sized for min(``spec.tol``, 1e-15) runs when it evaluates no
    more nodes than the first two grids of ``refine_to_tol(eval_at, spec)``
    and fits the 2^26 cap, so it never costs more than the ladder the spec
    allows; proof costs only log(1/tol) in M, so the mean goes to rounding.
    An overflowed strip or mean (not finite) is left to the ladder, which
    reports it.
    """
    if not math.isfinite(a_max):
        return None
    points, error = _strip_points(a_max, bound, d, min(spec.tol, 1e-15))
    first = spec.points_per_dim
    if nodes(points) > min(nodes(max(1, first // 2)) + nodes(first), _MAX_GRID_NODES):
        return None
    value = eval_at(points)
    if not math.isfinite(abs(value)):
        return None
    return RefineResult(value, value, error, True, points, 1, error)


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
