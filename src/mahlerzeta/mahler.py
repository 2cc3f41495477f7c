"""Mahler measures, hypergeometric series, and the special constants they hit.

The logarithmic Mahler measure of a nonzero Laurent polynomial f is the
average of log|f| over the unit torus,

    m(f) = integral over [0, 2*pi)^n of log|f(e^{i th_1}, ..., e^{i th_n})|

with the uniform measure.  Routes implemented here: midpoint torus quadrature
(any n), Jensen's formula through polynomial roots (n = 1), the Jensen-reduced
route (any n: one variable integrated out exactly at each node of the
remaining (n-1)-torus, which goes on the midpoint ladder; for n = 2 the
remaining circle is cut at the toric points and each arc between them is
integrated by tanh-sinh, which reaches rounding level where the ladder
converges algebraically), closed forms for the families X -+ X^-1 + c, and
the hypergeometric form of m(X1 + X1^-1 + X2 + X2^-1 + c) for c > 4.
Jensen's formula has one evaluator, ``_fiber_measures`` (the fibers of the
reduced route, or the one fiber of a one-variable polynomial).  It takes its
stack coefficient-major, (D + 1, n) with each coefficient contiguous, and
returns each fiber's largest |coefficient| beside its measure, root gap and
count inside; the reduced route transposes each block of its evaluator's
(n, D + 1) rows once and caps the gap with that maximum.  Every midpoint
torus average has one ladder, ``_midpoint_ladder``, which refuses a grid
mean that is not finite.  The quadrature route's ladder reads its
convergence rate from its grid means (``_halving``): it takes the
Richardson extrapolant at ratio 2 only where two successive gaps halve, as
they do when a factor 1 + X_j vanishes midway between the nodes.  The
Cassaigne-Maillot closed form of m(a + bX + cY), the exact oracle for the
n = 2 route, lives in the tests.

``_eliminated`` picks the variable the reduced route integrates out; the
CLI's ``--method auto`` reads its span from there, and takes the reduced
route when every fiber has closed-form roots (span <= 2).  One work budget,
in fiber rows weighted by their cost, bounds every reduced call, so an
input whose toric points the sample grid cannot resolve ends in
``ComputationError`` rather than an endless ladder.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .coins import F_TYPE, M_TYPE
from .errors import ComputationError
# eval_on_nodes (torus points in, integer powers of them) serves mahler_quadrature only;
# it shares no code with mesh_evaluator, so that route stays an independent oracle
from .laurent import LaurentPolynomial, _exponent_matrix, eval_on_nodes, mesh_evaluator
from .quadrature import _GRID_BLOCK, QuadratureSpec, _grid_counts, grid_mean, refine_to_tol

__all__ = [
    "MahlerResult",
    "mahler_quadrature",
    "mahler_univariate",
    "mahler_reduced",
    "mahler_closed_mtype",
    "mahler_closed_ftype",
    "mahler_walk_1d",
    "mahler_square_lattice",
    "hyper_pfq",
    "special_constants",
    "zeta_mahler",
    "log_cos_identity",
]

_SINGULAR_MIN = 1e-6


@dataclass(frozen=True)
class MahlerResult:
    """A Mahler measure value with its route tag and error bookkeeping.

    ``singular_on_torus`` is set when the minimum of |f| over the sampling
    grid drops below 1e-6 or the ladder converged by extrapolating at ratio
    2, the error model of a zero of f on the torus between the nodes
    (quadrature), or when a root sits within 1e-6 of the unit circle
    (Jensen, and the fiber roots of the Jensen-reduced route).
    """

    value: float
    method: str
    error_estimate: float
    singular_on_torus: bool


def _default_spec(n_vars: int) -> QuadratureSpec:
    # singular multivariate integrands converge algebraically, hence the
    # looser tolerances in higher dimension
    if n_vars == 1:
        return QuadratureSpec(512, 0.5, 1e-10, 10)
    if n_vars == 2:
        return QuadratureSpec(256, 0.5, 1e-8, 4)
    if n_vars == 3:
        return QuadratureSpec(64, 0.5, 1e-6, 2)
    return QuadratureSpec(16, 0.5, 1e-4, 2)


# nodes per block of the log|f| integrand: at 2^14 each of its arrays (a
# torus-point column, a power table, the sum: 256 KB; the magnitudes: 128 KB)
# is small enough that together they stay in a 2 MB per-core L2.  The 12
# quadrature calls of perfbench `mahler` (seed 7, one process, a Xeon with
# 2 MB of L2 per core) took 0.47 s a pass at 2^14, 0.51 s at 2^13, 0.50 s
# at 2^15 and 0.59 s at 2^16, the default grid_mean block
_LOG_ABS_BLOCK = 1 << 14


def _log_abs_block(poly: LaurentPolynomial):
    """The log|f| integrand of ``grid_mean``, on (n, d) rows of torus points.

    Each block takes one ``cos`` and one ``sin`` per angle of each of its
    axes and broadcasts those points into its rows.
    """

    def fn(mesh):
        d = len(mesh)
        shape = np.broadcast_shapes(*(t.shape for t in mesh))
        n = math.prod(shape)
        # row j of one (d, n) array holds axis j broadcast over the block;
        # its transpose is the (n, d) rows, each column contiguous
        rows = np.empty((d,) + shape, dtype=np.complex128)
        for j, theta in enumerate(mesh):
            z = np.empty(theta.shape, dtype=np.complex128)
            np.cos(theta, out=z.real)
            np.sin(theta, out=z.imag)
            rows[j] = z
        mags = np.abs(eval_on_nodes(poly, rows.reshape(d, n).T))
        low = float(mags.min()) if n else None
        with np.errstate(divide="ignore"):
            np.log(mags, out=mags)
        return mags, low

    return fn


def _halving(means: list[float]) -> float | None:
    """2.0 where the last two gaps of the grid means halve, else None.

    With d_k = v_k - v_{k-1} the ratio d_{k-1} / d_k must lie within 0.02
    of 2: the error model of an integrand whose log singularities sit
    midway between the nodes of every grid, as log|1 + X_j| does (its
    midpoint error is exactly log(2) / M).  A smooth integrand's gaps shrink
    geometrically and a zero curve's ratios wander (0.3 to 67 for
    2 + 3 X1 + 4 X2), so neither is extrapolated.  On this ratio the ladder's
    gap between extrapolants is |2 d_k - d_{k-1}|, so an extrapolant passes
    the tolerance only where the ratio is 2 to within tol / |d_k|.
    """
    if len(means) < 3:
        return None
    older, newer = means[-2] - means[-3], means[-1] - means[-2]
    return 2.0 if abs(older - 2.0 * newer) <= 0.02 * abs(newer) else None


def _midpoint_ladder(fn, d: int, spec: QuadratureSpec, *, fold=(), max_block=None, ratio=None,
                     charge=None):
    """``refine_to_tol`` over ``grid_mean(fn, ..., fold=fold)``.

    ``ratio(means)`` maps the real grid means so far, coarsest first, to the
    extrapolation ratio.  ``charge(n)`` is called with the number of nodes
    each grid evaluates (a folded axis counts the nodes it keeps) before it
    starts.  A grid mean that is not finite (``fn`` met a zero or an
    overflow at a node) raises ``ComputationError``.  Returns the result,
    the grid means and the smallest block stat.
    """
    means = []
    low = math.inf

    def eval_at(points):
        nonlocal low
        if charge is not None:
            charge(math.prod(_grid_counts(d, points, spec.node_shift, fold)))
        mean, stat = grid_mean(fn, d, points, spec.node_shift, fold=fold, max_block=max_block)
        if not math.isfinite(mean.real):
            raise ComputationError(
                f"the torus mean on the {points}^{d} grid is {mean.real}: the "
                f"integrand is not finite at a node, where f vanishes or overflows")
        if stat is not None:
            low = min(low, stat)
        means.append(mean.real)
        return mean.real

    order = None if ratio is None else lambda: ratio(means)
    return refine_to_tol(eval_at, spec, order), means, low


def mahler_quadrature(poly: LaurentPolynomial, quad: QuadratureSpec | None = None) -> MahlerResult:
    """Logarithmic Mahler measure by midpoint torus quadrature.

    A smooth integrand converges geometrically.  When f vanishes on the torus
    the log singularity is integrable but drops the convergence rate to
    algebraic, and a zero set that meets the grid (X1 - X2 on its diagonal)
    gives a node where log|f| = -inf: such a grid raises
    ``ComputationError``.  The ladder reads its convergence rate from the
    grid means: where two successive gaps halve (``_halving``, as for a
    factor 1 + X_j, whose zero lies midway between the nodes of every grid)
    it takes the Richardson extrapolant at ratio 2, and otherwise the last
    grid value.  ``singular_on_torus`` is set when min|f| over the nodes
    drops below 1e-6 or the ladder converged on the ratio-2 model, the error
    model of a zero of f between the nodes.  A zero at a distance delta off
    the torus looks the same to grids with M delta << 1: there the
    extrapolant settles about delta / 2 below m(f), which ``error_estimate``
    does not see, and the flag is set.  Non-convergence is reported through
    ``error_estimate`` (it stays above the requested tolerance) rather than
    an exception.
    """
    d = poly.n_vars
    res, means, low = _midpoint_ladder(
        _log_abs_block(poly), d, quad or _default_spec(d), max_block=_LOG_ABS_BLOCK,
        ratio=_halving)
    halved = res.converged and _halving(means) is not None
    return MahlerResult(res.value, "quadrature", res.delta, low < _SINGULAR_MIN or halved)


def mahler_univariate(poly: LaurentPolynomial) -> MahlerResult:
    """Univariate Mahler measure through Jensen's formula.

    Multiplying by a power of X clears negative exponents without changing
    the measure, and ``_fiber_measures`` takes the roots of the resulting
    polynomial of degree D (in closed form for D <= 2, from the batched
    companion-matrix eigenvalue solve above that):

        m(f) = log|leading coefficient| + sum_k log max(|root_k|, 1).

    A degree above 512 raises ``ComputationError``; the solve costs ~D^3.
    """
    if poly.n_vars != 1:
        raise ValueError(f"jensen route needs one variable, got {poly.n_vars}")
    exps, coeffs = _exponent_matrix(poly)
    return _jensen(exps[:, 0], coeffs)


# largest one-variable degree: the companion solve costs ~D^3 (D = 512: 1.3-2.4 s)
_MAX_JENSEN_DEGREE = 512


def _jensen(column: np.ndarray, coeffs: np.ndarray) -> MahlerResult:
    """Jensen's formula on sum_t coeffs[t] x^column[t], as one fiber of ``_fiber_measures``.

    Warns when a root lies within 1e-3 of the unit circle, and flags one
    within 1e-6 of it or a constant below 1e-6.
    """
    low = int(column.min())
    degree = int(column.max()) - low
    if degree > _MAX_JENSEN_DEGREE:
        raise ComputationError(
            f"degree {degree} exceeds the one-variable budget of {_MAX_JENSEN_DEGREE}")
    fiber = np.zeros((degree + 1, 1), dtype=np.complex128)
    fiber[column - low, 0] = coeffs
    try:
        values, gap, _, _ = _fiber_measures(fiber)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"root finding failed: {exc}") from exc
    # a constant has no roots: its own modulus is the statistic
    gap = float(gap[0]) if degree else float(abs(fiber[0, 0]))
    if degree and gap < 1e-3:
        warnings.warn("a root lies within 1e-3 of the unit circle; "
                      "max(|root|, 1) is numerically delicate there", stacklevel=3)
    return MahlerResult(float(values[0]), "jensen", degree * 5e-15, gap < _SINGULAR_MIN)


# largest degree in the eliminated variable: the companion solve costs ~D^3
# per node and its stack ~D^2 per node
_MAX_FIBER_DEGREE = 32
# the work budget of one mahler_reduced call, over all its fiber evaluations,
# in rows weighted by their cost.  On a 2-core x86 host a unit took
# 0.054-0.068 us in companion rows and 0.007-0.021 us in closed-form ones, so
# a refused call has spent at most about 13 s (X1^32 + X2^32 + 1: 11.2 s)
_MAX_REDUCED_WORK = 200_000_000


def _eliminated(poly: LaurentPolynomial) -> tuple[int, list[int], int]:
    """The variable the reduced route integrates out, the other ones that occur, and its span.

    Of the variables that occur, the one of least positive degree span is
    eliminated, the highest index on ties.  A constant gives variable 0 of
    span 0.
    """
    exps, _ = _exponent_matrix(poly)
    span = exps.max(axis=0) - exps.min(axis=0)
    used = [int(j) for j in np.flatnonzero(span)]
    var = min(used, key=lambda j: (span[j], -j), default=0)
    return var, [j for j in used if j != var], int(span[var])


def _toric_free(coeffs: np.ndarray) -> bool:
    """Whether the coefficients certify that no fiber root comes near the unit circle.

    With S = sum_t |c_t| and margin = 2 max_t |c_t| - S, the largest term
    outweighs the rest and |P| >= margin on the torus.  On |z| = 1 every
    fiber f = sum_k a_k w^k of degree D <= 32 then has sum_k |a_k| <= S and
    |f| >= margin on |w| = 1.  A root w0 at a distance g from the circle
    and its radial projection w1 give margin <= |f(w1) - f(w0)| <=
    g D S (1 + g)^(D - 1), so either g >= 1 / D or (1 + g)^(D - 1) < e and
    g >= margin / (e D S); and (D + 1) max_k |a_k| >= margin.  Past
    margin >= 1e-3 max(S, 1) the root gap stays above 1.1e-5 and the largest
    coefficient above 3e-5, each ten times ``_SINGULAR_MIN``: no fiber root
    crosses or touches the circle and no fiber vanishes, so ``_breakpoints``
    could only return an empty array.
    """
    mags = np.abs(coeffs)
    total = math.fsum(mags)
    return 2.0 * float(mags.max()) - total >= 1e-3 * max(total, 1.0)


def _mirror_even(poly: LaurentPolynomial, rest: list[int]) -> tuple[int, ...]:
    """The positions i of the variables rest[i] that P is even in, read off its terms exactly.

    P is even in X_j when P(X_j -> X_j^-1) = P coefficient for coefficient,
    compared with no tolerance; every fiber, and so the reduced integrand,
    is then even in theta_j.
    """
    terms = poly.terms

    def mirrored(j):
        return {e[:j] + (-e[j],) + e[j + 1:]: c for e, c in terms.items()}

    return tuple(i for i, j in enumerate(rest) if mirrored(j) == terms)


def _fiber_measures(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jensen's formula on a stack of one-variable polynomials, coefficient-major.

    ``a`` has shape (D + 1, n): row k holds the x^k coefficient of every
    fiber, contiguous, so column i holds the coefficients of fiber i.
    Returns per fiber its Mahler measure, its root gap min_k ||root_k| - 1|
    (inf for a constant, which has no roots), the number of its roots inside
    the unit disc, a root at 0 included and one at infinity (a vanishing x^D
    coefficient) not, and its largest |coefficient| max_k |a_k|.  The gap is
    over the roots of the orientation solved (see below); the reciprocal
    roots of x^D f(1/x) meet the circle where those of f do.  |a| is taken
    once, and every statistic but the companion solve's is elementwise
    along the fibers: numpy reduces along a short axis at tens of ns a row.
    """
    mags = np.abs(a)
    top = reduce(np.maximum, mags)
    # x^D f(1/x) has the same measure; taking the larger end coefficient as
    # the leading one keeps a vanishing leading coefficient harmless.  It
    # maps the roots inside the disc to those outside, which the count undoes.
    flip = mags[0] > mags[-1]
    degree = a.shape[0] - 1

    def flipped(rows, k):
        return np.where(flip, rows[degree - k], rows[k])

    def done(values, gap, inside):
        return values, gap, np.where(flip, degree - inside, inside), top

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if degree == 0:
            return done(np.log(mags[0]), np.full(a.shape[1], math.inf),
                        np.zeros(a.shape[1], dtype=int))
        if degree == 1:
            lead, tail = flipped(mags, 1), flipped(mags, 0)
            return done(np.log(lead), np.abs(tail / lead - 1.0), (tail < lead).astype(int))
        if degree == 2:
            # the middle coefficient is its own mirror
            a0, a1, a2 = flipped(a, 0), a[1], flipped(a, 2)
            abs0, abs2 = flipped(mags, 0), flipped(mags, 2)
            root = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
            # the sign that avoids cancellation in a1 +- root
            root = np.where((a1.conj() * root).real >= 0.0, root, -root)
            big = np.abs(0.5 * (a1 + root))
            # roots q / a2 and a0 / q with q = -(a1 + root) / 2; q = 0 only
            # when a1 = a0 = 0, where the fiber is a2 x^2
            small = np.where(big > 0.0, abs0 / big, 0.0)
            values = np.log(np.maximum(abs2, big)) + np.log(np.maximum(small, 1.0))
            gap = np.fmin(np.abs(big / abs2 - 1.0), np.abs(small - 1.0))
            inside = (big < abs2).astype(int) + (small < 1.0)
            return done(values, gap, inside)
        a = np.where(flip, a[::-1], a)
        lead = a[-1]
        monic = a[:-1] / lead
    n = a.shape[1]
    values = np.empty(n)
    gap = np.empty(n)
    inside = np.zeros(n, dtype=int)
    ok = np.all(np.isfinite(monic), axis=0)
    comp = np.zeros((int(ok.sum()), degree, degree), dtype=np.complex128)
    comp[:, 0, :] = -monic[::-1, ok].T
    comp[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
    moduli = np.abs(np.linalg.eigvals(comp))
    values[ok] = np.log(np.abs(lead[ok])) + np.log(np.maximum(moduli, 1.0)).sum(axis=1)
    gap[ok] = np.abs(moduli - 1.0).min(axis=1)
    inside[ok] = (moduli < 1.0).sum(axis=1)
    # both end coefficients vanish (or the quotient overflows): trim the
    # zero ends and any leading coefficients below 1e-300 of the largest
    # (their roots lie beyond 1e300 and would overflow the companion matrix),
    # and solve those rare fibers one at a time
    for i in np.flatnonzero(~ok):
        nonzero = np.flatnonzero(a[:, i])
        if nonzero.size == 0:
            values[i], gap[i] = -math.inf, math.inf
            continue
        row = a[nonzero[0]:nonzero[-1] + 1, i][::-1]
        row = row[int(np.argmax(np.abs(row) > np.abs(row).max() * 1e-300)):]
        moduli = np.abs(np.roots(row))
        values[i] = math.log(abs(row[0])) + float(np.log(np.maximum(moduli, 1.0)).sum())
        gap[i] = float(np.abs(moduli - 1.0).min()) if moduli.size else math.inf
        # the trimmed low powers are roots at 0
        inside[i] = nonzero[0] + int((moduli < 1.0).sum())
    return done(values, gap, inside)


# tanh-sinh nodes t = -T + (k + shift) h on [-T, T], h = 2T / points: at
# |t| = T the weight is ~1e-21 of the arc, below rounding even against a
# log singularity at its end
_TANH_SINH_T = 3.5
# a search round samples _SECTIONS + 1 points across each bracket and keeps
# one or two of its sections, so a bracket of two cells reaches rounding in
# about a dozen rounds, each one fiber evaluation for every bracket at once
_SECTIONS = 32
_MAX_ROUNDS = 64  # a backstop: each round shrinks a bracket at least 16-fold
# samples at cell / 2^j, j = 1..40, either side of a touch of the circle
_TOUCH_RINGS = 40
# breakpoints closer than this are one (a root crossing the circle is also a
# minimum of the gap statistic, found by both searches)
_BREAK_MERGE = 1e-9
# sample nodes of _breakpoints evaluated at a time
_SAMPLE_BLOCK = 1 << 16


def _narrow(lo: np.ndarray, hi: np.ndarray, pick) -> tuple[np.ndarray, np.ndarray]:
    """Shrink the brackets [lo, hi] to a few rounding units each.

    ``pick(x)`` gets the rows x[i] = lo[i] .. hi[i] of evenly spaced points,
    ends included, and returns the column indices j0 < j1 of each row's
    sub-bracket [x[j0], x[j1]] to keep.
    """
    frac = np.arange(_SECTIONS + 1) / _SECTIONS
    rows = np.arange(lo.size)
    for _ in range(_MAX_ROUNDS):
        if not np.any(hi - lo > 4.0 * np.spacing(np.fmax(np.abs(lo), np.abs(hi)))):
            break
        x = lo[:, None] + (hi - lo)[:, None] * frac
        x[:, -1] = hi
        j0, j1 = pick(x)
        lo, hi = x[rows, j0], x[rows, j1]
    return lo, hi


def _breakpoints(fibers, spec: QuadratureSpec, charge) -> np.ndarray | None:
    """Sorted angles in [0, 2 pi) where a one-variable reduced integrand is not analytic.

    ``fibers(theta)`` gives the measures of the fibers at the angles
    ``theta``, their gap statistic (the root gap of ``_fiber_measures``, or
    the largest |coefficient| where that is smaller) and their counts of
    roots inside the disc; the angles are first sampled on the midpoint grid
    of ``spec``.
    ``charge(n)`` is called before each evaluation of n fibers, and before
    the sample grid is built.

    - Each local minimum of the gap statistic is refined over its two
      neighbouring cells and kept if the gap drops below 1e-6 there: a fiber
      root on the circle (crossing it, or touching it as a double root does)
      or a fiber whose coefficients all vanish.  A minimum that no neighbour
      exceeds by 1e-6 of its value is rounding noise on a flat gap (a root
      of constant modulus) and is skipped.
    - Samples at cell / 2, cell / 4, ..., cell / 2^40 on either side of each
      kept point join the grid.  Wherever the count of roots inside the disc
      changes between neighbouring samples (cyclically) a root crosses the
      circle, and the crossing is pinned down to rounding.  The extra
      samples catch a second crossing in the cell of a first one, as
      near-degenerate triangles a + bX + cY have.

    Both searches cut every bracket into 32 sections per round, so a round
    is one fiber evaluation and a dozen rounds reach rounding, where golden
    section and bisection would take about 65 and 50 evaluations in turn.

    Returns None when the gap is below 1e-6 at more than 1/16 of the nodes
    (and at more than two): a fiber root then stays on the circle along
    whole arcs, as when P vanishes on a curve of the torus (X1^4 + X2^3,
    or X1 + X1^-1 + X2 + X2^-1 + c for |c| < 4).  There the gap and the
    count of roots inside are rounding noise, which would put a breakpoint
    at nearly every node at great cost.
    """
    points = spec.points_per_dim
    charge(points)
    shift = spec.node_shift
    cell = 2.0 * math.pi / points
    # the sample grid is evaluated in blocks with a one-node cyclic halo on
    # either side; only its counts of roots inside (at most the fiber degree,
    # so int8) are kept whole, with the gap minima and the count changes
    small = 0
    minima, changes = [], []
    inside = np.empty(points, dtype=np.int8)
    for j0 in range(0, points, _SAMPLE_BLOCK):
        j1 = min(j0 + _SAMPLE_BLOCK, points)
        _, gap, count = fibers((np.arange(j0 - 1, j1 + 1) % points + shift) * cell)
        before, mid, after = gap[:-2], gap[1:-1], gap[2:]
        small += np.count_nonzero(mid < _SINGULAR_MIN)
        # a flat gap (a root of constant modulus) has rounding-noise minima
        rise = np.fmax(before, after) - mid > 1e-6 * mid
        minima.append(j0 + np.flatnonzero((mid < before) & (mid <= after) & rise))
        changes.append(j0 + np.flatnonzero(count[1:-1] != count[2:]))
        inside[j0:j1] = count[1:-1]
    if small > max(2, points // 16):
        return None

    def counted(x):
        charge(x.size)
        return fibers(x)

    def lowest(x):
        j = np.argmin(counted(x.ravel())[1].reshape(x.shape), axis=1)
        return np.maximum(j - 1, 0), np.minimum(j + 1, _SECTIONS)

    k = np.concatenate(minima)
    a, b = _narrow((k + shift) * cell - cell, (k + shift) * cell + cell, lowest)
    touch = 0.5 * (a + b)
    touch = touch[counted(touch)[1] < _SINGULAR_MIN]
    near = cell * 0.5 ** np.arange(1, _TOUCH_RINGS + 1)
    near = (touch[:, None] + np.concatenate([-near, near])).ravel()
    near_inside = counted(near)[2]
    near = np.mod(near, 2.0 * math.pi)

    # Neighbours whose counts differ, in the cyclic order of all samples, are
    # bracketed.  Only the grid nodes next to an extra sample (k - 1 .. k + 2
    # covers the rounding of k) or to a count change join the extra samples:
    # two of these that are neighbours here but not among all samples are
    # then grid nodes with no count change between them, so their counts
    # agree.  The stable sort puts a node before an extra sample at its angle.
    k = np.floor(near / cell - shift).astype(np.int64)
    grid = np.concatenate(changes)
    grid = np.unique(np.concatenate([grid, grid + 1, k - 1, k, k + 1, k + 2]) % points)
    theta = np.concatenate([(grid + shift) * cell, near])
    order = np.argsort(theta, kind="stable")
    theta, inside = theta[order], np.concatenate([inside[grid], near_inside])[order]
    k = np.flatnonzero(inside != np.roll(inside, -1))
    lo, hi, side = theta[k], np.roll(theta, -1)[k], inside[k]
    hi[k == theta.size - 1] += 2.0 * math.pi

    def first_change(x):
        count = counted(x[:, 1:-1].ravel())[2].reshape(x.shape[0], -1)
        # the upper end counts as changed, as it did when the bracket was made
        changed = np.column_stack([count != side[:, None], np.ones(len(x), dtype=bool)])
        j = np.argmax(changed, axis=1) + 1
        return j - 1, j

    lo, hi = _narrow(lo, hi, first_change)

    found = np.mod(np.concatenate([hi, touch]), 2.0 * math.pi)
    found = np.sort(np.where(found < 2.0 * math.pi, found, 0.0))  # -1e-17 mods to 2 pi
    keep = np.diff(found, prepend=-math.inf) > _BREAK_MERGE
    if found.size > 1 and found[0] + 2.0 * math.pi - found[-1] <= _BREAK_MERGE:
        keep[-1] = False
    return found[keep]


# nodes of _arc_mean built and evaluated at a time
_ARC_BLOCK = 1 << 16


def _arc_mean(fibers, breaks: np.ndarray, points: int, shift: float, charge) -> float:
    """Torus mean of a reduced integrand, by tanh-sinh between its breakpoints.

    Each arc between neighbouring breakpoints (cyclically) gets ``points``
    nodes at t = -T + (k + shift) h, h = 2T / points, mapped to the arc by
    x = tanh((pi/2) sinh t), which crowds them toward its ends.  A node
    that rounds onto an end is dropped.  ``charge(n)`` is called with the
    node count before any node is built; the nodes are then built and
    evaluated in blocks, and ``math.fsum`` makes the sum independent of them.
    """
    charge(breaks.size * points)
    h = 2.0 * _TANH_SINH_T / points

    def rule(k):
        # node offsets and weights of the rule, element by element in k
        t = (k + shift) * h - _TANH_SINH_T
        s = 0.5 * math.pi * np.sinh(np.abs(t))
        near = 1.0 / (1.0 + np.exp(2.0 * s))  # distance to the nearer end, in arc lengths
        return t, near, 0.25 * math.pi * h * np.cosh(t) / np.cosh(s) ** 2

    # a rung of more than a block of nodes per arc builds its rule block by block
    whole = rule(np.arange(points)) if points <= _ARC_BLOCK else None
    ends = np.append(breaks, breaks[0] + 2.0 * math.pi)
    a, b = ends[:-1], ends[1:]
    total = breaks.size * points

    def terms():
        # flat node index = arc * points + k
        for start in range(0, total, _ARC_BLOCK):
            arc, k = np.divmod(np.arange(start, min(start + _ARC_BLOCK, total)), points)
            t, near, weight = rule(k) if whole is None else (w[k] for w in whole)
            lo, hi, length = a[arc], b[arc], (b - a)[arc]
            x = np.where(t < 0.0, lo + length * near, hi - length * near)
            inner = (x != lo) & (x != hi)
            yield from ((length * weight)[inner] * fibers(x[inner])[0]).tolist()

    return math.fsum(terms()) / (2.0 * math.pi)


def mahler_reduced(poly: LaurentPolynomial, quad: QuadratureSpec | None = None) -> MahlerResult:
    """Mahler measure with one variable integrated out exactly by Jensen's formula.

    Variables that do not occur are dropped; the one of least positive degree
    span (the highest index on ties) is eliminated.  At each node of the
    remaining torus its fiber polynomial has the exact measure

        log|leading coefficient| + sum_k log max(|root_k|, 1),

    in closed form for a span of at most 2 and from a companion eigensolve
    above that, and the torus average of that runs on the midpoint ladder,
    with the default spec of the remaining dimension.  A polynomial in which
    at most one variable occurs goes to Jensen's formula on its single row,
    as in ``mahler_univariate``.  ``singular_on_torus`` is set when a fiber
    root comes within 1e-6 of the unit circle or a whole fiber nearly
    vanishes.

    With one variable left (two in all) the reduced integrand is analytic
    except at breakpoints: the toric points, where a fiber root crosses or
    touches the circle, and angles where the whole fiber vanishes.  There it
    has kinks and log singularities, on which the midpoint ladder converges
    only algebraically.  ``_breakpoints`` finds them from the midpoint grid
    of the spec.  If there are none the ladder runs as above.  Otherwise
    every arc between neighbouring breakpoints is integrated by tanh-sinh
    (``_arc_mean``), which converges geometrically up to such end points;
    the rungs of ``refine_to_tol`` take ``points_per_dim`` as the node count
    per arc and halve the step, and ``singular_on_torus`` is set.  When one
    coefficient outweighs the rest, 2 max_t |c_t| - sum_t |c_t| >= 1e-3
    max(sum_t |c_t|, 1), P has no toric points and no vanishing fiber
    (``_toric_free`` derives the bound), so the search is skipped for the
    ladder it would have chosen.  A sample of at most 2 s nodes, s the
    degree span of the remaining variable, aliases the fiber coefficients
    (whole runs of toric points fall between its nodes) and raises
    ``ComputationError`` before any fiber is evaluated, searched or not.

    The ladder folds every remaining axis on which P is mirror-even,
    P(X_j -> X_j^-1) = P term for term: the integrand is even in theta_j
    there, so ``grid_mean`` evaluates only its nodes in [0, pi] on that axis.

    One work budget covers every fiber evaluation of a call: the breakpoint
    search, the arc rungs and the midpoint grids, each charged for the rows
    it evaluates (a folded grid for the nodes it keeps).  Each row counts the
    monomials it evaluates plus the cost of its fiber (a companion eigensolve
    counts about 10 D^2 of them), and an evaluation that would take the total
    past 2e8 raises ``ComputationError`` before it starts, after at most
    about 13 s of work on a 2-core host.
    """
    var, rest, degree = _eliminated(poly)
    exps, coeffs = _exponent_matrix(poly)
    if not rest:
        return _jensen(exps[:, var], coeffs)
    if degree > _MAX_FIBER_DEGREE:
        raise ComputationError(
            f"every variable has degree span above {_MAX_FIBER_DEGREE}; "
            f"the reduced route would eliminate one of span {degree}")
    # column k of ``table``: fiber coefficient k as a polynomial in the other variables
    outer, row = np.unique(exps[:, rest], axis=0, return_inverse=True)
    table = np.zeros((len(outer), degree + 1), dtype=np.complex128)
    table[row.ravel(), exps[:, var] - exps[:, var].min()] = coeffs
    evaluate = mesh_evaluator(outer, table)
    # a row's evaluation reads every monomial of the other variables; its
    # fiber takes closed forms up to degree 2 and a companion eigensolve
    # (about 10 D^2 units) above
    weight = len(outer) + (degree + 1 if degree <= 2 else 10 * degree ** 2)
    spent = 0

    def charge(rows):
        nonlocal spent
        spent += rows * weight
        if spent > _MAX_REDUCED_WORK:
            raise ComputationError(
                f"the reduced route's fiber evaluations exceed its work budget "
                f"({spent:.3g} > {_MAX_REDUCED_WORK:.0e} units at {weight} per row)")

    # rows per fiber evaluation, which bounds its temporaries: at least 64,
    # since the degree is at most 32
    block = _GRID_BLOCK // degree ** 2

    def fibers(mesh):
        # the evaluator's (nodes, D + 1) rows, transposed once to the kernel's
        # coefficient-major layout
        a = np.ascontiguousarray(evaluate(mesh).reshape(-1, degree + 1).T)
        values, gap, inside, top = _fiber_measures(a)
        # a fiber whose coefficients all nearly vanish is as singular as a
        # root on the circle
        return values, np.fmin(gap, top), inside

    d = len(rest)
    spec = quad or _default_spec(d)
    if d == 1:
        def circle(theta):
            # every row is evaluated on its own, so blocks leave the values as they are
            parts = [fibers((theta[k:k + block],)) for k in range(0, max(theta.size, 1), block)]
            return tuple(np.concatenate(part) for part in zip(*parts))

        span, points = int(np.ptp(outer)), spec.points_per_dim
        if points <= 2 * span:
            raise ComputationError(
                f"a sample of {points} nodes aliases fiber coefficients of degree {span}; "
                f"the breakpoint search needs more than {2 * span}")
        if not _toric_free(coeffs):
            breaks = _breakpoints(circle, spec, charge)
            if breaks is not None and breaks.size:
                res = refine_to_tol(
                    lambda points: _arc_mean(circle, breaks, points, spec.node_shift, charge),
                    spec)
                return MahlerResult(res.value, "jensen_reduced", res.delta, True)

    def fn(mesh):
        values, gap, _ = fibers(mesh)
        return values, float(gap.min())

    res, _, low = _midpoint_ladder(fn, d, spec, fold=_mirror_even(poly, rest), max_block=block,
                                   charge=charge)
    return MahlerResult(res.value, "jensen_reduced", res.delta, low < _SINGULAR_MIN)


def mahler_closed_mtype(c: float) -> float:
    """m(X - X^-1 + c) = log((|c| + sqrt(c^2 + 4)) / 2) for real c."""
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    return math.log((abs(c) + math.sqrt(c * c + 4.0)) / 2.0)


def mahler_closed_ftype(c: float) -> float:
    """m(X + X^-1 + c) = log((|c| + sqrt(c^2 - 4)) / 2) for real |c| >= 2."""
    if not math.isfinite(c) or abs(c) < 2.0:
        raise ValueError(f"the closed form needs |c| >= 2, got c={c}")
    return math.log((abs(c) + math.sqrt(c * c - 4.0)) / 2.0)


def mahler_walk_1d(xi: float, u: float, shift_type: str) -> float:
    """Mahler measure of the one-dimensional walk polynomial at parameter u.

    Substitutes c_m = sec(xi) (u - 1/u) into the m-type closed form (for
    -1 < u < 0), or c_f = -cosec(xi) (u + 1/u) into the f-type one (u < 0),
    and returns the simplified expression

        log( (u - 1/u + sqrt(u^2 + 2 cos 2xi + u^-2)) / (2 cos xi) )   [m]
        log( (-(u + 1/u) + sqrt(u^2 + 2 cos 2xi + u^-2)) / (2 sin xi) ) [f]

    asserting agreement with the direct closed form to 1e-12.
    """
    if not 0.0 < xi < math.pi / 2:
        raise ValueError(f"xi must lie strictly inside (0, pi/2), got {xi}")
    try:
        root = math.sqrt(u * u + 2.0 * math.cos(2.0 * xi) + u ** -2)
    except OverflowError:
        raise ComputationError(f"u={u} is too small: u^-2 overflows") from None
    if shift_type == M_TYPE:
        if not -1.0 < u < 0.0:
            raise ValueError(f"m-type needs -1 < u < 0, got u={u}")
        value = math.log((u - 1.0 / u + root) / (2.0 * math.cos(xi)))
        direct = mahler_closed_mtype((u - 1.0 / u) / math.cos(xi))
    elif shift_type == F_TYPE:
        if not u < 0.0:
            raise ValueError(f"f-type needs u < 0, got u={u}")
        value = math.log((-(u + 1.0 / u) + root) / (2.0 * math.sin(xi)))
        direct = mahler_closed_ftype(-(u + 1.0 / u) / math.sin(xi))
    else:
        raise ValueError(f"shift_type must be {M_TYPE!r} or {F_TYPE!r}")
    if abs(value - direct) >= 1e-12:
        raise ComputationError(
            f"substituted and direct closed forms disagree by {abs(value - direct):.3e}"
        )
    return value


def mahler_square_lattice(c: float) -> float:
    """m(X1 + X1^-1 + X2 + X2^-1 + c) for c > 4.

    Equals log c - (2/c^2) 4F3(3/2, 3/2, 1, 1; 2, 2, 2; 16/c^2).
    """
    if not c > 4.0:
        raise ValueError(f"the hypergeometric form needs c > 4, got c={c}")
    x = 16.0 / (c * c)
    return math.log(c) - (2.0 / (c * c)) * hyper_pfq([1.5, 1.5, 1.0, 1.0], [2.0, 2.0, 2.0], x)


_MAX_PFQ_TERMS = 500_000


def _nonpositive_int(a: float) -> bool:
    return a <= 0.0 and a == round(a)


def hyper_pfq(a: list[float], b: list[float], x: float) -> float:
    """Generalized hypergeometric series pFq(a; b; x).

    Terms follow the ratio t_{n+1}/t_n = x * prod(a_i + n) / (prod(b_j + n)
    (n + 1)); summation stops at relative term size 1e-16 or exactly when an
    upper parameter is a nonpositive integer (terminating polynomial case).
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    x = float(x)
    terminating = any(_nonpositive_int(v) for v in a)
    if x != 0.0 and not terminating:
        if len(a) == len(b) + 1 and abs(x) >= 1.0:
            raise ValueError(f"series diverges: p = q+1 needs |x| < 1, got x={x}")
        if len(a) > len(b) + 1:
            raise ValueError("series diverges: p > q+1 with nonzero argument")
    term = 1.0
    total = 1.0
    n = 0
    while True:
        num = math.prod(v + n for v in a)
        if num == 0.0:
            break
        den = math.prod(v + n for v in b) * (n + 1)
        if den == 0.0:
            raise ValueError(f"lower parameter hits a nonpositive integer at n={n + 1}")
        term *= x * num / den
        total += term
        if abs(term) < 1e-16 * (abs(total) + 1e-300):
            break
        n += 1
        if n > _MAX_PFQ_TERMS:
            raise ComputationError(f"series did not converge within {_MAX_PFQ_TERMS} terms")
    return total


# B_2, B_4, ..., B_12: the Euler-Maclaurin corrections of the constants' tails
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
_DIRECT_TERMS = 64


def _series_terms(p: int, s: int, c: int) -> list[float]:
    """Terms summing to the sum over k >= 0 of (s k + c)^-p, for p >= 2.

    The first 64 terms directly, then the tail from k = 64 by Euler-Maclaurin:
    its integral, half its first term, and B_2j/(2j)! times minus the
    (2j-1)-th derivative there for j <= 6; the next correction is below 1e-28.
    """
    x = s * _DIRECT_TERMS + c
    terms = [1 / (s * k + c) ** p for k in range(_DIRECT_TERMS)]
    terms += [1 / (s * (p - 1) * x ** (p - 1)), 1 / (2 * x ** p)]
    for j, bernoulli in enumerate(_BERNOULLI, 1):
        rising = math.prod(range(p, p + 2 * j - 1))  # p (p+1) ... (p+2j-2)
        terms.append(bernoulli * rising / math.factorial(2 * j) * s ** (2 * j - 1)
                     / x ** (p + 2 * j - 1))
    return terms


@lru_cache(maxsize=1)
def _constants() -> dict[str, float]:
    def paired(s, a, b):
        # L(chi_-3, 2) pairs n = 3k+1 (+) with n = 3k+2 (-), and the Catalan
        # constant n = 4k+1 with n = 4k+3
        return math.fsum(_series_terms(2, s, a) + [-t for t in _series_terms(2, s, b)])

    return {"L_chi3_2": paired(3, 1, 2), "zeta3": math.fsum(_series_terms(3, 1, 1)),
            "catalan_G": paired(4, 1, 3)}


def special_constants() -> dict[str, float]:
    """L(chi_-3, 2), zeta(3) and the Catalan constant, each to |error| < 1e-14.

    All three come from their defining series: 64 direct terms and an
    Euler-Maclaurin tail carried to B_12, summed by ``math.fsum`` with one
    rounding; the alternating ones as sign-paired couples, each residue class
    its own series.
    """
    return dict(_constants())


def zeta_mahler(poly: LaurentPolynomial, s: float, quad: QuadratureSpec | None = None) -> float:
    """Torus average of |f|^s (the zeta Mahler measure at real s)."""
    spec = quad or _default_spec(poly.n_vars)
    d = poly.n_vars
    evaluate = mesh_evaluator(*_exponent_matrix(poly))

    def fn(mesh):
        # a zero (s < 0) or an overflow gives inf, which the ladder refuses
        with np.errstate(divide="ignore", over="ignore"):
            return np.abs(evaluate(mesh)).ravel() ** s, None

    res, _, _ = _midpoint_ladder(fn, d, spec)
    if not res.converged:
        raise ComputationError(
            f"|f|^s quadrature did not converge (last delta {res.delta:.3e}); "
            f"s={s} may be too negative for the zero set of f"
        )
    return float(res.value)


def log_cos_identity(r: float) -> float:
    """Average of log(1 - r cos theta) over the circle: log((1 + sqrt(1 - r^2))/2).

    Valid for |r| <= 1; serves as the exact oracle for one-dimensional
    quadrature tests.
    """
    if abs(r) > 1.0:
        raise ValueError(f"|r| must be <= 1, got {r}")
    return math.log((1.0 + math.sqrt(1.0 - r * r)) / 2.0)
