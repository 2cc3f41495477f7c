"""Cross-checks between walk zeta functions and Mahler measures.

Every verifier compares two computation paths that share no code beyond
complex arithmetic (a determinant quadrature against a Mahler decomposition,
a hypergeometric form against a torus integral, the return (Green) function as
a torus mean against an exact path-count series), so agreement at the stated
tolerance is evidence rather than tautology.

``SUITE_CHECKS`` is the one definition of each suite check kind: its group,
its verifier, its default tolerance and its grid of arguments.
``DEFAULT_TOLERANCES``, ``SUITE_GROUPS`` and ``default_suite_params`` are read
off it, and the verifiers' own default tolerances come from
``DEFAULT_TOLERANCES``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coins import F_TYPE, M_TYPE, SIMPLE_RW, build_coin, flip_flop
from .errors import ComputationError
from .laurent import LaurentPolynomial
from .mahler import hyper_pfq, mahler_reduced, mahler_walk_1d, special_constants
# perfbench's tracer wraps mahler_quadrature in every module that imports it
from .mahler import mahler_quadrature  # noqa: F401
from .quadrature import (_GRID_BLOCK, QuadratureSpec, _blocks, _grid_counts, _mirror_weights,
                         _nodes, _settle_allocator, grid_mean, refine_to_tol)
from .walk import matrix_weight_traces
from .zeta import _series_sum, log_zeta
# perfbench's tracer wraps log_zeta_series in every module that imports it
from .zeta import log_zeta_series  # noqa: F401

__all__ = [
    "CorrespondenceReport",
    "TransienceProbe",
    "verify_1d_qw",
    "verify_grover",
    "verify_rw",
    "stgf",
    "spanning_tree_constant",
    "transience_probe",
    "closed_walk_count",
    "return_probability",
    "central_binomial_weight",
    "green_series_estimate",
    "run_suite",
    "DEFAULT_TOLERANCES",
    "SUITE_CHECKS",
    "SUITE_GROUPS",
    "qw_validity_interval",
]


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of one identity check: both sides, their gap, and diagnostics."""

    identity_name: str
    lhs: float
    rhs: float
    abs_diff: float
    tolerance: float
    passed: bool
    inputs: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _report(name: str, lhs: float, rhs: float, tol: float,
            inputs: dict, diagnostics: dict) -> CorrespondenceReport:
    diff = abs(lhs - rhs)
    passed = math.isfinite(lhs) and math.isfinite(rhs) and diff <= tol
    return CorrespondenceReport(name, lhs, rhs, diff, tol, passed, inputs, diagnostics)


def qw_validity_interval(xi: float, shift_type: str) -> tuple[float, float]:
    """Open u-interval on which the one-dimensional walk identities hold."""
    if not 0.0 < xi < math.pi / 2:
        raise ValueError(f"xi must lie strictly inside (0, pi/2), got {xi}")
    if shift_type == M_TYPE:
        return (math.cos(xi) - math.sqrt(math.cos(xi) ** 2 + 1.0), 0.0)
    if shift_type == F_TYPE:
        return (-math.inf, 0.0)
    raise ValueError(f"shift_type must be {M_TYPE!r} or {F_TYPE!r}")


def _check_open_interval(u: float, lo: float, hi: float, label: str) -> None:
    if not lo < u < hi:
        raise ValueError(f"u={u} outside the open validity interval ({lo}, {hi}) for {label}")
    if min(u - lo, hi - u) < 1e-8:
        warnings.warn(f"u={u} within 1e-8 of the validity boundary; conditioning degrades",
                      stacklevel=3)


def _qw_closed_form(xi: float, u: float, shift_type: str) -> float:
    root = math.sqrt(1.0 + 2.0 * math.cos(2.0 * xi) * u * u + u ** 4)
    if shift_type == M_TYPE:
        return math.log((1.0 - u * u + root) / 2.0)
    return math.log((1.0 + u * u + root) / 2.0)


def verify_1d_qw(xi: float, u: float, shift_type: str,
                 quad: QuadratureSpec | None = None,
                 tol: float | None = None) -> CorrespondenceReport:
    """One-dimensional walk: determinant quadrature vs Mahler decomposition.

    lhs is the logarithmic zeta function computed by quadrature of the
    momentum determinant; rhs is log(-cos(xi) u) + m(X - X^-1 + c_m) for the
    moving shift (resp. the sin/f-type pair), with the Mahler measure from its
    own closed form.  The direct closed form of the zeta function rides along
    in the diagnostics.  ``tol`` defaults to the suite's ``qw1d`` tolerance.
    """
    lo, hi = qw_validity_interval(xi, shift_type)
    _check_open_interval(u, lo, hi, f"{shift_type}-type 1d walk")
    if tol is None:
        tol = DEFAULT_TOLERANCES["qw1d"]
    coin = build_coin("hadamard", 1, xi)
    if shift_type == F_TYPE:
        coin = flip_flop(coin)
    spec = quad or QuadratureSpec(4096, 0.5, 1e-12, 0)
    lhs = log_zeta(coin, u, spec)
    mahler = mahler_walk_1d(xi, u, shift_type)
    prefactor = -math.cos(xi) * u if shift_type == M_TYPE else -math.sin(xi) * u
    rhs = math.log(prefactor) + mahler
    closed = _qw_closed_form(xi, u, shift_type)
    return _report(
        f"logzeta vs mahler: 1d qw ({shift_type})",
        lhs, rhs, tol,
        {"xi": xi, "u": u, "shift_type": shift_type},
        {
            "closed_form": closed,
            "lhs_minus_closed": lhs - closed,
            "rhs_minus_closed": rhs - closed,
            "mahler_term": mahler,
            "grid": spec.points_per_dim,
        },
    )


def _cos_excess(theta: np.ndarray, beta: float) -> np.ndarray:
    """beta (cos theta - 1), as -2 beta sin^2(theta/2): no cancellation near theta = 0."""
    half = np.sin(0.5 * theta)
    return (-2.0 * beta) * (half * half)


def _cos_sum_grid(d: int, points: int, shift: float, alpha: float, beta: float,
                  ufunc) -> float:
    """Average of ufunc(alpha + beta sum_j cos theta_j) over one M^d grid.

    ``ufunc`` (``np.log`` or ``np.reciprocal``) is called as ``ufunc(block,
    out=block)``.  A node's argument is c + sum_j e_j, with c = alpha + d beta
    and e_j = beta (cos theta_j - 1) = -2 beta sin^2(theta_j / 2), so an
    argument that vanishes at theta = 0 (lambda_d) keeps its digits near it.
    The integrand is even in every theta_j: at the half-node shift and an even
    M each axis keeps its n = M/2 nodes in [0, pi), otherwise all n = M, and
    an n^d over 2^26 raises ``ComputationError``.  ``grid_mean`` runs d = 1,
    which at shift 0 folds onto the weighted nodes k = 0..floor(M/2); for
    d >= 2 the pair rows below need one uniform, unweighted axis, so a
    shift-0 grid keeps all its n = M nodes per axis.

    For d >= 2 the last two axes, each carrying t_j = c/2 + e_j, are taken
    as unordered pairs: row r holds t_j + t_{(j+r) mod n}, j = 0..n-1, and
    rows r and n - r hold the same pairs, so rows 0..floor(n/2), weighted 2
    but for row 0 and (even n) row n/2, which are their own mirrors, sum
    every ordered pair once.  These are the weights of an axis of n nodes
    folded at shift 0, ``_mirror_weights(n, 0, floor(n/2) + 1)``.  With
    the leading d - 2 axes as a product set, ``_blocks`` cuts the
    (floor(n/2) + 1) n^(d-1) nodes into blocks of at most ``_GRID_BLOCK``.
    Weighted row sums are added per block by ``np.sum`` and the blocks joined
    by ``math.fsum``, so no BLAS call touches the result.
    """
    # correctly rounded: a rounding of d * beta would shift every node alike,
    # which near a zero of the argument (the Green function as u -> 1) biases
    # the mean by far more than rounding the nodes one by one
    constant = math.fsum([alpha] + [beta] * d)
    if d == 1:
        def fn(mesh):
            t = _cos_excess(mesh[0], beta)
            t += constant
            return ufunc(t, out=t), None

        return grid_mean(fn, 1, points, shift, fold=(0,))[0].real
    # at shift 0 no axis is folded: a weighted axis cannot be paired
    n = _grid_counts(d, points, shift, () if shift == 0.0 else range(d))[0]
    e = _cos_excess(_nodes(points, shift, 0, n), beta)
    t = 0.5 * constant + e
    rows = n // 2 + 1
    weights = _mirror_weights(n, 0, rows)
    windows = sliding_window_view(np.concatenate((t, t)), n)  # row r: t[(j + r) % n]
    pairs = None
    _settle_allocator()
    sums = []
    for outer, j0, j1 in _blocks([n] * (d - 2) + [rows, n], _GRID_BLOCK):
        lead = sum(e[i] for i in outer)  # the leading nodes the block fixes
        if len(outer) == d - 2:  # a run of pair rows
            block = windows[j0:j1] + t
            if outer:
                block += lead
            w = weights[j0:j1]
        else:  # a run on leading axis len(outer); later axes and pair rows in full
            lead = lead + e[j0:j1]
            for _ in range(len(outer) + 1, d - 2):
                lead = np.add.outer(lead, e)
            if pairs is None:
                pairs = windows[:rows] + t
            block = np.add.outer(lead, pairs)
            w = weights
        ufunc(block, out=block)
        sums.append(np.sum(np.sum(block, axis=-1) * w))
    return math.fsum(sums) / n ** d


def _cos_log_mean(d: int, spec: QuadratureSpec, alpha: float, beta: float,
                  ratio: float | None = None) -> float:
    """Refined torus average of log(alpha + beta sum_j cos theta_j).

    Without ``ratio`` a ladder that does not converge raises.  With it, the
    ladder extrapolates at that fixed error ratio and its last extrapolant is
    returned as it stands.
    """
    res = refine_to_tol(
        lambda points: _cos_sum_grid(d, points, spec.node_shift, alpha, beta, np.log),
        spec, None if ratio is None else (lambda: ratio))
    if ratio is None and not res.converged:
        raise ComputationError(
            f"scalar quadrature did not converge (last delta {res.delta:.3e})"
        )
    return float(res.value)


def _grover_spec(d: int) -> QuadratureSpec:
    return {1: QuadratureSpec(2048, 0.5, 1e-11, 1),
            2: QuadratureSpec(256, 0.5, 1e-9, 2),
            3: QuadratureSpec(128, 0.5, 1e-7, 1)}.get(d, QuadratureSpec(32, 0.5, 1e-6, 2))


def _lattice_polynomial(d: int, constant: float) -> LaurentPolynomial:
    """sum_j (X_j + X_j^-1) + constant."""
    terms: dict[tuple[int, ...], complex] = {}
    for j in range(d):
        up = tuple(1 if k == j else 0 for k in range(d))
        dn = tuple(-1 if k == j else 0 for k in range(d))
        terms[up] = 1.0
        terms[dn] = 1.0
    terms[(0,) * d] = constant
    return LaurentPolynomial(d, terms)


def verify_grover(d: int, u: float,
                  quad: QuadratureSpec | None = None,
                  tol: float | None = None) -> CorrespondenceReport:
    """Flip-flop Grover walk in d dimensions: zeta quadrature vs Mahler form.

    lhs: (d-1) log(1-u^2) plus the torus average of
    log(1 - (2/d) u sum_j cos theta_j + u^2).  rhs replaces the integral by
    log(-u/d) + m(sum_j (X_j + X_j^-1) + c) with c = -d(u + 1/u), the Mahler
    measure taken by the Jensen-reduced route (one variable integrated out
    exactly), so the two sides share no integrand.  For d = 2 the diagnostics
    also carry the hypergeometric form log(1-u^4) - (2/c^2) 4F3(.; 16/c^2).
    ``tol`` defaults to the suite's ``grover_d<d>`` tolerance, and to 1e-4
    for a dimension the suite does not check.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    _check_open_interval(u, -1.0, 0.0, "grover walk")
    if tol is None:
        tol = DEFAULT_TOLERANCES.get(f"grover_d{d}", 1e-4)
    spec = quad or _grover_spec(d)
    base = (d - 1) * math.log(1.0 - u * u)
    lhs = base + _cos_log_mean(d, spec, 1.0 + u * u, -2.0 * u / d)
    c = -d * (u + 1.0 / u)
    poly = _lattice_polynomial(d, c)
    mahler = mahler_reduced(poly, spec)
    rhs = base + math.log(-u / d) + mahler.value
    diagnostics = {
        "c": c,
        "mahler_value": mahler.value,
        "mahler_route": mahler.method,
        "mahler_error_estimate": mahler.error_estimate,
        "singular_on_torus": mahler.singular_on_torus,
        "grid": spec.points_per_dim,
    }
    if d == 1:
        # the d = 1 coin degenerates to the bare swap; both sides vanish
        diagnostics["degenerate"] = True
        diagnostics["expected_value"] = 0.0
    if d == 2:
        hyper = math.log(1.0 - u ** 4) - (2.0 / c ** 2) * hyper_pfq(
            [1.5, 1.5, 1.0, 1.0], [2.0, 2.0, 2.0], 16.0 / c ** 2)
        diagnostics["hypergeometric_form"] = hyper
        diagnostics["lhs_minus_hyper"] = lhs - hyper
    return _report(
        f"logzeta vs mahler: grover (d={d})",
        lhs, rhs, tol,
        {"d": d, "u": u},
        diagnostics,
    )


def _rw_spec(d: int) -> QuadratureSpec:
    return {1: QuadratureSpec(2048, 0.5, 1e-11, 1),
            2: QuadratureSpec(256, 0.5, 1e-9, 2)}.get(d, QuadratureSpec(64, 0.5, 1e-7, 1))


@lru_cache(maxsize=None)
def _rw_traces(d: int, r_max: int) -> tuple[complex, ...]:
    """Return-weight traces of the symmetric walk on Z^d for r = 0..r_max."""
    return tuple(matrix_weight_traces(build_coin(SIMPLE_RW, d), r_max))


def verify_rw(d: int, u: float,
              quad: QuadratureSpec | None = None,
              tol: float | None = None) -> CorrespondenceReport:
    """Symmetric random walk in d dimensions: zeta quadrature vs Mahler form.

    lhs: torus average of log(1 - (u/d) sum_j cos theta_j).  rhs:
    log(-u/2d) + m(sum_j (X_j + X_j^-1) - 2d/u), the Mahler measure taken by
    the Jensen-reduced route.  For d = 1 the diagnostics
    carry the closed form log((1+sqrt(1-u^2))/2) and the central-binomial
    series; for d = 2 the 4F3 form and the squared-binomial series.  No
    other d computes a series: its return weights to r = 60 meet on a
    light-cone field of 31^d sites.
    ``tol`` defaults to the suite's ``rw_d<d>`` tolerance, and to 1e-6 for a
    dimension the suite does not check.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    _check_open_interval(u, -1.0, 0.0, "symmetric rw")
    if tol is None:
        tol = DEFAULT_TOLERANCES.get(f"rw_d{d}", 1e-6)
    spec = quad or _rw_spec(d)
    lhs = _cos_log_mean(d, spec, 1.0, -u / d)
    c = -2.0 * d / u
    poly = _lattice_polynomial(d, c)
    mahler = mahler_reduced(poly, spec)
    rhs = math.log(-u / (2.0 * d)) + mahler.value
    diagnostics = {
        "c": c,
        "mahler_value": mahler.value,
        "mahler_route": mahler.method,
        "grid": spec.points_per_dim,
    }
    if d <= 2:
        series_value, series_tail = _series_sum(_rw_traces(d, 60), u, d)
        diagnostics["series_value"] = series_value
        diagnostics["series_tail_bound"] = series_tail
        diagnostics["lhs_minus_series"] = lhs - series_value
    if d == 1:
        closed = math.log((1.0 + math.sqrt(1.0 - u * u)) / 2.0)
        diagnostics["closed_form"] = closed
        diagnostics["lhs_minus_closed"] = lhs - closed
    if d == 2:
        hyper = -(u * u / 8.0) * hyper_pfq([1.5, 1.5, 1.0, 1.0], [2.0, 2.0, 2.0], u * u)
        diagnostics["hypergeometric_form"] = hyper
        diagnostics["lhs_minus_hyper"] = lhs - hyper
    return _report(
        f"logzeta vs mahler: rw (d={d})",
        lhs, rhs, tol,
        {"d": d, "u": u},
        diagnostics,
    )


def stgf(d: int, u: float, quad: QuadratureSpec | None = None) -> float:
    """Spanning tree generating function of Z^d at 0 < u <= 1.

    Equals log(2d) plus the torus average of log(1/u - (1/d) sum_j cos),
    i.e. the random-walk logarithmic zeta shifted by log(2d) - log u.  The
    u = 1 endpoint has an integrable singularity at Theta = 0, where the
    integrand vanishes quadratically; there the leading quadrature error is
    1/M in one dimension and 1/M^2 above, and the ladder extrapolates against
    that model.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must lie in (0, 1], got {u}")
    if u == 1.0:
        spec = quad or _tree_spec(d)
        integral = _cos_log_mean(d, spec, 1.0, -1.0 / d, 2.0 if d == 1 else 4.0)
    else:
        spec = quad or _rw_spec(d)
        integral = _cos_log_mean(d, spec, 1.0 / u, -1.0 / d)
    return math.log(2 * d) + integral


def _tree_spec(d: int) -> QuadratureSpec:
    return {1: QuadratureSpec(4096, 0.5, 1e-9, 4),
            2: QuadratureSpec(1024, 0.5, 1e-7, 2),
            3: QuadratureSpec(128, 0.5, 1e-5, 1)}.get(d, QuadratureSpec(32, 0.5, 1e-4, 1))


def spanning_tree_constant(d: int, quad: QuadratureSpec | None = None) -> float:
    """Exponential growth rate of the spanning tree count of the N^d torus.

    This is ``stgf(d, 1.0, quad)``: log(2d) plus the torus average of
    log(1 - (1/d) sum_j cos theta_j).  The formula extends continuously to
    d = 1 where it evaluates to 0.
    """
    return stgf(d, 1.0, quad)


# --------------------------------------------------------------------------
# return probabilities by exact path counting

def closed_walk_count(d: int, n: int) -> int:
    """Number of length-n nearest-neighbour walks on Z^d that return to 0."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    if n % 2:
        return 0
    return _closed_walk_counts(d, n // 2)[-1]


def _closed_walk_counts(d: int, m_max: int) -> list[int]:
    """Closed walks of length 2m on Z^d for m = 0 .. m_max, in one pass.

    count(2m) = C(2m, m) h_d(m), where h_d(m) sums the squared multinomials
    (m; m_1, ..., m_d) over m_1 + ... + m_d = m (m_j steps out along axis j):
    h_1 = 1 and h_d(m) = sum_k C(m, k)^2 h_{d-1}(m - k).
    """
    h = [1] * (m_max + 1)
    for _ in range(d - 1):
        h = [sum(math.comb(m, k) ** 2 * h[m - k] for k in range(m + 1))
             for m in range(m_max + 1)]
    return [math.comb(2 * m, m) * h[m] for m in range(m_max + 1)]


def return_probability(d: int, n: int) -> Fraction:
    """Exact return probability of the symmetric walk at step n."""
    return Fraction(closed_walk_count(d, n), (2 * d) ** n)


def central_binomial_weight(n: int) -> Fraction:
    """C(2n, n) / 4^n as an exact rational."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return Fraction(math.comb(2 * n, n), 4 ** n)


def green_series_estimate(d: int, u: float, n_exact: int = 60) -> float:
    """sum_n P_n(0,0) u^n from exact path counts plus an asymptotic tail fit.

    Steps up to ``n_exact`` use exact counts; beyond that the even-step
    probabilities follow 2 (d / (4 pi m))^{d/2} up to a constant fitted at the
    last exact step, and the tail is summed numerically.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    if n_exact < 2 or n_exact % 2:
        raise ValueError(f"n_exact must be a positive even number, got {n_exact}")
    m0 = n_exact // 2
    # P_n = count(n) / (2d)^n; int division rounds as float(Fraction) does
    probs = [count / (2 * d) ** (2 * m) for m, count in enumerate(_closed_walk_counts(d, m0))]
    total = 0.0
    for m, prob in enumerate(probs):
        total += prob * u ** (2 * m)
    asympt = lambda m: 2.0 * (d / (4.0 * math.pi * m)) ** (d / 2.0)
    scale = probs[-1] / asympt(m0)
    # extend until u^{2m} is negligible
    m_stop = max(m0 + 1, int(math.ceil(-40.0 / math.log(u ** 2))) + m0)
    ms = np.arange(m0 + 1, m_stop + 1, dtype=np.float64)
    tail = float(np.sum(scale * 2.0 * (d / (4.0 * math.pi * ms)) ** (d / 2.0)
                        * u ** (2.0 * ms)))
    return total + tail


# --------------------------------------------------------------------------
# transience probe

# the capped probe grids resolve the Green function up to this u
_PROBE_U_MAX = 0.9999


@dataclass(frozen=True)
class TransienceProbe:
    """Boundedness diagnostics for u d/du of the random-walk log zeta."""

    dim_d: int
    u_values: tuple[float, ...]
    u_dlog: tuple[float, ...]
    green_values: tuple[float, ...]
    increments: tuple[float, ...]
    bounded: bool
    verdict: str
    extrapolated_green: float | None
    series_partial: tuple[float, ...]
    series_truncation_bound: tuple[float, ...]


def _rw_probe_points(d: int, u: float) -> int:
    # resolution set by the analyticity strip of 1/(1 - (u/d) sum cos): the
    # midpoint rule's error falls like exp(-M * strip), and 19/strip nodes
    # put it near e^-19 of the value; a grid past the per-d cap is refused,
    # since a clamped one would return G off by far more with no warning.
    # The grid is folded and its last two axes paired (``_cos_sum_grid``):
    # at the caps it evaluates 2048, 257 x 512 and 65 x 128^2 nodes, about
    # 0.05, 0.3 and 1.7 ms at 1 thread on a 2-core x86 host
    strip = math.acosh(d / u - (d - 1))
    points = int(math.ceil(19.0 / strip))
    cap = 4096 if d == 1 else (1024 if d == 2 else 256)
    if points > cap:
        raise ValueError(f"u={u} too close to 1 for the probe grids "
                         f"(d={d} needs {points} nodes per axis, cap {cap})")
    return max(64, 1 << (points - 1).bit_length())


def transience_probe(d: int, u_values) -> TransienceProbe:
    """u d/du of the random-walk log zeta along u_values -> 1.

    With L(u) the torus mean of log(1 - (u/d) sum_j cos theta_j), exactly
    u dL/du = 1 - G(u), where the Green function G(u) is the torus mean of
    1/(1 - (u/d) sum_j cos theta_j); G is taken on one grid per u, sized by
    the integrand's analyticity strip.  The walk is judged recurrent
    (divergent derivative) unless the last two increments shrink by better
    than a factor of two.  For d = 3 the Green values are extrapolated in
    sqrt(1-u).  The partial return series sum_{n<=12} P_n u^n rides along
    as a diagnostic cross-check of G, with its geometric truncation bound.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    us = tuple(float(u) for u in u_values)
    if len(us) < 3:
        raise ValueError("need at least three probe points")
    if any(b <= a for a, b in zip(us, us[1:])):
        raise ValueError("u values must be strictly ascending")
    if us[0] <= 0.0 or us[-1] >= 1.0:
        raise ValueError("u values must lie in (0, 1)")
    if us[-1] > _PROBE_U_MAX:
        raise ValueError(
            f"u={us[-1]} too close to 1 for the probe grids (limit {_PROBE_U_MAX})"
        )
    # one grid per u, no ladder: the probe sets its own resolution
    greens = [_cos_sum_grid(d, _rw_probe_points(d, u), 0.5, 1.0, -u / d, np.reciprocal)
              for u in us]
    derivs = [1.0 - g for g in greens]
    increments = [abs(b - a) for a, b in zip(derivs, derivs[1:])]
    bounded = len(increments) >= 2 and increments[-1] * 2.0 < increments[-2]
    extrapolated = None
    if d == 3:
        w1, w2 = math.sqrt(1.0 - us[-2]), math.sqrt(1.0 - us[-1])
        g1, g2 = greens[-2], greens[-1]
        extrapolated = g2 + (g2 - g1) * w2 / (w1 - w2)
    traces = _rw_traces(d, 12)
    partials = []
    bounds = []
    for u in us:
        acc = 1.0
        for n in range(1, 13):
            acc += traces[n].real * u ** n
        partials.append(acc)
        bounds.append(u ** 13 / (1.0 - u))
    return TransienceProbe(
        dim_d=d,
        u_values=us,
        u_dlog=tuple(derivs),
        green_values=tuple(greens),
        increments=tuple(increments),
        bounded=bounded,
        verdict="bounded" if bounded else "divergent",
        extrapolated_green=extrapolated,
        series_partial=tuple(partials),
        series_truncation_bound=tuple(bounds),
    )


# --------------------------------------------------------------------------
# the verification suite

def _check_stgf_shift(d: int, u: float, tol: float) -> CorrespondenceReport:
    coin = build_coin(SIMPLE_RW, d)
    spec = {1: QuadratureSpec(1024, 0.5, 1e-11, 1),
            2: QuadratureSpec(256, 0.5, 1e-11, 1),
            3: QuadratureSpec(64, 0.5, 1e-11, 1)}[d]
    lhs = stgf(d, u, spec)
    rhs = math.log(2 * d) - math.log(u) + log_zeta(coin, u, spec)
    return _report(
        f"stgf shift identity (d={d})", lhs, rhs, tol,
        {"d": d, "u": u}, {"grid": spec.points_per_dim},
    )


def _check_trees_lambda2(tol: float) -> CorrespondenceReport:
    lam = spanning_tree_constant(2)
    target = 4.0 * special_constants()["catalan_G"] / math.pi
    return _report("spanning tree constant (d=2)", lam, target, tol, {"d": 2}, {})


def _check_transience(d: int, tol: float) -> CorrespondenceReport:
    probe = transience_probe(d, (0.9, 0.99, 0.999))
    diagnostics = {
        "verdict": probe.verdict,
        "u_dlog": probe.u_dlog,
        "increments": probe.increments,
    }
    if d == 3:
        series = green_series_estimate(3, 0.999)
        diagnostics["extrapolated_green"] = probe.extrapolated_green
        return _report(
            "transience: green function (d=3)",
            probe.green_values[-1], series, tol,
            {"d": d, "u": 0.999}, diagnostics,
        )
    expected = "divergent"
    lhs = 1.0 if probe.verdict == expected else 0.0
    return _report(
        f"transience: verdict (d={d})", lhs, 1.0, 0.5,
        {"d": d, "expected": expected}, diagnostics,
    )


def _check_smyth(n_vars: int, tol: float) -> CorrespondenceReport:
    consts = special_constants()
    if n_vars == 2:
        poly = _lattice_smyth(2)
        result = mahler_reduced(poly, QuadratureSpec(64, 0.5, 1e-14, 2))
        target = 3.0 * math.sqrt(3.0) / (4.0 * math.pi) * consts["L_chi3_2"]
        name = "smyth: m(X1+X2+1)"
    else:
        poly = _lattice_smyth(3)
        result = mahler_reduced(poly, QuadratureSpec(128, 0.5, 1e-5, 1))
        target = 7.0 / (2.0 * math.pi ** 2) * consts["zeta3"]
        name = "smyth: m(X1+X2+X3+1)"
    return _report(
        name, result.value, target, tol, {"n_vars": n_vars},
        {"error_estimate": result.error_estimate,
         "singular_on_torus": result.singular_on_torus,
         "mahler_route": result.method},
    )


def _lattice_smyth(n: int) -> LaurentPolynomial:
    terms = {tuple(1 if k == j else 0 for k in range(n)): 1.0 for j in range(n)}
    terms[(0,) * n] = 1.0
    return LaurentPolynomial(n, terms)


_REFERENCE_CONSTANTS = {
    # independently published decimal expansions, each the correctly rounded double
    "zeta3": ("zeta(3)", 1.2020569031595943, "zeta3"),
    "l_chi3": ("L(chi_-3, 2)", 0.7813024128964863, "L_chi3_2"),
    "catalan": ("catalan constant", 0.915965594177219015, "catalan_G"),
}


def _check_constant(key: str, tol: float) -> CorrespondenceReport:
    label, reference, field_name = _REFERENCE_CONSTANTS[key]
    value = special_constants()[field_name]
    return _report(f"constants: {label}", value, reference, tol, {}, {})


# One row per check kind, in the order the suite runs them: its group, its
# verifier (called with one argument dict of the grid plus ``tol``), its
# default tolerance and its grid of argument dicts.
class _Check(NamedTuple):
    group: str
    verifier: Callable[..., CorrespondenceReport]
    tolerance: float
    grid: list[dict]


def _qw1d_grid() -> list[dict]:
    grid = []
    for xi in (math.pi / 6, math.pi / 4, math.pi / 3):
        lo, _ = qw_validity_interval(xi, M_TYPE)
        grid += [{"xi": xi, "u": lo * i / 6.0, "shift_type": M_TYPE} for i in range(1, 6)]
        grid += [{"xi": xi, "u": u, "shift_type": F_TYPE} for u in (-0.1, -0.3, -0.5, -1.0, -2.0)]
    return grid


_WALK_US = (-0.2, -0.5, -0.8)

SUITE_CHECKS: dict[str, _Check] = {
    "qw1d": _Check("qw1d", verify_1d_qw, 1e-13, _qw1d_grid()),
    "grover_d1": _Check("grover", verify_grover, 1e-13, [{"d": 1, "u": u} for u in _WALK_US]),
    "grover_d2": _Check("grover", verify_grover, 1e-13, [{"d": 2, "u": u} for u in _WALK_US]),
    "grover_d3": _Check("grover", verify_grover, 1e-13, [{"d": 3, "u": u} for u in _WALK_US]),
    "rw_d1": _Check("rw", verify_rw, 1e-13, [{"d": 1, "u": u} for u in _WALK_US]),
    "rw_d2": _Check("rw", verify_rw, 1e-13, [{"d": 2, "u": u} for u in _WALK_US]),
    "trees_lambda2": _Check("trees", _check_trees_lambda2, 1e-11, [{}]),
    "stgf_shift": _Check("trees", _check_stgf_shift, 1e-13,
                         [{"d": d, "u": u} for d in (1, 2, 3) for u in (0.3, 0.6, 0.9)]),
    "transience": _Check("transience", _check_transience, 2e-2, [{"d": d} for d in (1, 2, 3)]),
    "smyth_2var": _Check("smyth", partial(_check_smyth, 2), 1e-13, [{}]),
    "smyth_3var": _Check("smyth", partial(_check_smyth, 3), 1e-8, [{}]),
    "catalan": _Check("constants", partial(_check_constant, "catalan"), 1e-14, [{}]),
    "zeta3": _Check("constants", partial(_check_constant, "zeta3"), 1e-13, [{}]),
    "l_chi3": _Check("constants", partial(_check_constant, "l_chi3"), 1e-13, [{}]),
}
DEFAULT_TOLERANCES: dict[str, float] = {kind: row.tolerance for kind, row in SUITE_CHECKS.items()}
SUITE_GROUPS = tuple(dict.fromkeys(row.group for row in SUITE_CHECKS.values()))


def default_suite_params(group: str | None = None) -> list[tuple[str, dict]]:
    """The canonical (check kind, arguments) grid run by the suite.

    ``group`` keeps only the checks of one ``SUITE_GROUPS`` entry.  Every
    call returns fresh argument dicts.
    """
    if group is not None and group not in SUITE_GROUPS:
        raise ValueError(f"unknown suite group {group!r} (choose {', '.join(SUITE_GROUPS)})")
    return [(kind, dict(args)) for kind, row in SUITE_CHECKS.items()
            if group in (None, row.group) for args in row.grid]


def run_suite(tolerances: dict[str, float] | None = None,
              params: list[tuple[str, dict]] | None = None) -> list[CorrespondenceReport]:
    """Run every identity check over its canonical parameter grid.

    ``tolerances`` overrides entries of ``DEFAULT_TOLERANCES`` with finite,
    non-negative values; ``params`` replaces the canonical grid (an empty list
    yields an empty report list).  Failures are reported, never raised.
    Reports come back sorted by identity name and inputs.
    """
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        for kind, tol in tolerances.items():
            if not (math.isfinite(tol) and tol >= 0.0):
                raise ValueError(f"tolerance for {kind!r} must be finite and >= 0, got {tol!r}")
        tols.update(tolerances)
    if params is None:
        params = default_suite_params()
    reports: list[CorrespondenceReport] = []
    for kind, args in params:
        if kind not in SUITE_CHECKS:
            raise ValueError(f"unknown suite check {kind!r}")
        reports.append(SUITE_CHECKS[kind].verifier(tol=tols[kind], **args))
    reports.sort(key=lambda rep: (rep.identity_name, sorted(rep.inputs.items())))
    return reports
