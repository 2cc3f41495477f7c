"""Walk-type zeta functions and their series coefficients.

For a coin A on the N^d torus the walk-type zeta function is

    zeta(A, N, u) = det(I - u M_A)^(-1/N^d),

where M_A is the one-step operator of the walk.  The determinant factorizes
over momentum space, which gives the practical evaluation route

    zeta(A, N, u) = exp( -(1/N^d) * sum_k log det(I - u M_hat(k)) )

with M_hat the 2d x 2d momentum-space matrix.  Its N -> infinity companion is
the logarithmic zeta function

    L(A, u) = integral over [0, 2*pi)^d of log det(I - u M_hat(Theta)),

with the uniform measure.  Row 2j of M_hat carries z_j = e^(i Theta_j) and
row 2j+1 carries 1/z_j, so det(I - u M_hat) is a Laurent polynomial P_u in
z_1..z_d with every exponent in {-1, 0, 1}, and L(A, u) is its logarithmic
Mahler measure m(P_u).  Both torus averages above evaluate P_u from its 3^d
coefficients with ``laurent.mesh_evaluator``, as the Mahler routes evaluate
theirs; only a finite torus of side N < 3, with fewer nodes than P_u has
coefficients, takes its N^d determinants directly.  The coefficients C_r of
log zeta = sum_r C_r u^r / r are averaged traces of powers of M_hat, equal to
the trace of the step-r return weight.  Each route gives them all up to r_max
in one pass, and each single-r function reads the last entry of its pass.

Every grid route folds every axis on which P_u is even (see
``quadrature.grid_mean``): ``log_zeta`` onto its M/2 nodes in [0, pi), and
the finite-torus routes (``zeta_finite``, ``cr_finite``, ``cr_limit`` and
the ``trace_finite`` and ``quad_limit`` series) onto the nodes
k = 0..floor(N/2), weighted for their mirrors.  Evenness in Theta_j is read
off the coin exactly: swapping the phases of rows 2j and 2j+1 is
conjugation by the swap of components 2j and 2j+1, so the determinant is
unchanged when that swap maps the coin to itself, or to itself conjugated
by the sign flip of component 2j+1.  Grover and simple-RW coins fold on
every axis in both shifts: the moving-shift coins are unchanged by any
permutation of the components, and the flip-flop row swap commutes with the
axis swap.  The flip-flop Hadamard coin folds its one axis by the sign flip.
The moving-shift Hadamard coin, with P_u = 1 - 2iu cos(xi) sin(Theta) - u^2,
is not even, and a custom coin folds only where its entries are mirrored
exactly.  The same mirror makes Tr(M_hat^r) even on those axes:
M_hat(-Theta_j) is P M_hat P when P C P = C, and (P S) M_hat (S P) when
P C P = S C S, a similarity either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coins import CoinMatrix, F_TYPE, HADAMARD, M_TYPE
from .errors import ComputationError
from .laurent import mesh_evaluator
from .quadrature import QuadratureSpec, det_stack, grid_mean, refine_to_tol
from .walk import _check_work, _momentum_stack, matrix_weight_traces

__all__ = [
    "SeriesCoefficients",
    "zeta_finite",
    "zeta_finite_log_mean",
    "zeta_finite_dense",
    "dense_walk_matrix",
    "cr_finite",
    "cr_limit",
    "cr_limit_pathsum",
    "cr_closed_1d_qw",
    "log_zeta",
    "log_zeta_refined",
    "log_zeta_series",
    "compute_series",
]

_DENSE_CAP = 4096
# coefficients of det(I - u M_hat), one per exponent vector in {-1, 0, 1}^d
_CHAR_POLY_CAP = 1 << 20


@dataclass(frozen=True)
class SeriesCoefficients:
    """C_r values for one coin, tagged with the route that produced them."""

    coin: str
    values: tuple[tuple[int, float], ...]
    method: str

    def __post_init__(self):
        rs = [r for r, _ in self.values]
        if any(b <= a for a, b in zip(rs, rs[1:])) or any(r < 1 for r in rs):
            raise ValueError("r values must be strictly increasing positive integers")


def _real(x: complex, limit: float, what: str) -> float:
    """The real part of x, once its imaginary residual is below ``limit``."""
    if abs(x.imag) >= limit:
        raise ComputationError(
            f"imaginary residual {abs(x.imag):.3e} of {what} exceeds {limit}"
        )
    return x.real


def _matrix_block_cap(d: int) -> int:
    # keep per-block matrix stacks around a few tens of MiB
    return max(4096, (1 << 22) // ((2 * d) ** 2))


def _char_poly(coin: CoinMatrix, u: float) -> tuple[np.ndarray, np.ndarray]:
    """det(I - u M_hat(Theta)) in z_j = e^(i Theta_j): exponent matrix and coefficients.

    The (3^d, d) exponent matrix lists {-1, 0, 1}^d in lexicographic order.
    With every exponent in {-1, 0, 1}, the determinants at the 3^d nodes
    Theta_j in {0, 2pi/3, 4pi/3} fix the polynomial: their discrete Fourier
    transform holds exponent e at index e mod 3.
    """
    d = coin.dim_d
    if 3 ** d > _CHAR_POLY_CAP:
        raise ComputationError(
            f"det(I - u M_hat) of a d={d} coin has 3^{d} = {3 ** d} coefficients, "
            f"above the cap of {_CHAR_POLY_CAP} (2^20)"
        )
    index = np.indices((3,) * d).reshape(d, -1).T
    nodes = index * (2.0 * math.pi / 3)
    eye = np.eye(2 * d, dtype=np.complex128)
    step = _matrix_block_cap(d)
    dets = np.concatenate([det_stack(eye - u * _momentum_stack(coin, nodes[i:i + step].T))
                           for i in range(0, nodes.shape[0], step)])
    coeffs = np.fft.fftn(dets.reshape((3,) * d)) / 3 ** d
    return index - 1, coeffs[np.ix_(*[[2, 0, 1]] * d)].ravel()


def _log_det_block(coin: CoinMatrix, u: float, require_positive: bool, direct: bool = False):
    """``grid_mean`` integrand of log det(I - u M_hat), from its Laurent coefficients.

    With ``direct`` it takes the determinants of the momentum matrices at the
    nodes instead, which is cheaper on a grid of fewer nodes than the 3^d
    coefficients.
    """
    if direct:
        eye = np.eye(2 * coin.dim_d)

        def evaluate(mesh):
            return det_stack(eye - u * _momentum_stack(coin, mesh))
    else:
        evaluate = mesh_evaluator(*_char_poly(coin, u))

    def fn(mesh):
        dets = evaluate(mesh)

        def node(mask):
            where = np.unravel_index(int(np.argmax(mask)), dets.shape)
            return tuple(float(np.broadcast_to(a, dets.shape)[where]) for a in mesh)

        if require_positive:
            bad = dets.real <= 0.0
            if bad.any():
                raise ComputationError(
                    "integrand determinant has non-positive real part at "
                    f"Theta={node(bad)} (u={u})"
                )
        else:
            tiny = np.abs(dets) < 1e-13
            if tiny.any():
                raise ComputationError(
                    f"singular factor: det(I - u M_hat) vanishes at "
                    f"k={node(tiny)} (u={u})"
                )
        return _principal_log(dets).ravel(), None

    return fn


def _principal_log(z: np.ndarray) -> np.ndarray:
    """log z on the principal branch, log|z| + i arg z, written into the complex array z.

    Real kernels (``abs``, ``log``, ``arctan2``) take a few times less time
    than the complex ``np.log`` and agree with it to rounding.
    """
    arg = np.arctan2(z.imag, z.real)
    modulus = np.abs(z)
    z.real = np.log(modulus, out=modulus)
    z.imag = arg
    return z


# coins are immutable and hash by identity: a lookup costs well under a
# microsecond where the bitwise test takes 10-50 us, once per route call
@lru_cache(maxsize=64)
def _even_axes(coin: CoinMatrix) -> tuple[int, ...]:
    """The axes j on which det(I - u M_hat) is even in Theta_j, read off the coin exactly.

    M_hat = D C with D the diagonal of phases, and Theta_j -> -Theta_j swaps
    the phases at 2j and 2j+1: with P that swap, D(-Theta_j) = P D P and
    det(I - u D(-Theta_j) C) = det(I - u D P C P).  Axis j is even when
    P C P is C, or is S C S with S = I but -1 at 2j+1, since S D S = D makes
    det(I - u D S C S) = det(S (I - u D C) S).  The matrices are compared
    bitwise, with no tolerance.  Tr(M_hat^r) is even on the same axes.
    """
    c = coin.entries
    axes = []
    for j in range(coin.dim_d):
        swap = np.arange(coin.size)
        swap[[2 * j, 2 * j + 1]] = 2 * j + 1, 2 * j
        sign = np.ones(coin.size)
        sign[2 * j + 1] = -1.0
        mirrored = c[np.ix_(swap, swap)]
        if np.array_equal(mirrored, c) or np.array_equal(mirrored, sign[:, None] * c * sign):
            axes.append(j)
    return tuple(axes)


def zeta_finite_log_mean(coin: CoinMatrix, N: int, u: float) -> complex:
    """Grid mean of log det(I - u M_hat(k)) over the N^d momentum lattice.

    The imaginary part is the residual left after conjugate momenta cancel;
    callers requiring a real zeta value must check it.  Every axis on which
    the determinant is even (``_even_axes``) is folded onto its nodes
    k = 0..floor(N/2), weighted for their mirrors N - k, so a grid of an
    even coin evaluates (floor(N/2) + 1)^d nodes.  ``grid_mean``'s
    2^26-node budget on the evaluated nodes is the only cap on N.  For N < 3
    the N^d determinants are taken directly, fewer than the 3^d it takes to
    find the coefficients of det(I - u M_hat); no axis of so small a grid
    folds.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d = coin.dim_d
    direct = N < 3
    fn = _log_det_block(coin, u, require_positive=False, direct=direct)
    mean, _ = grid_mean(fn, d, N, 0.0, fold=_even_axes(coin),
                        max_block=_matrix_block_cap(d) if direct else None)
    return mean


def zeta_finite(coin: CoinMatrix, N: int, u: float) -> float:
    """Walk-type zeta function on the N^d torus via the momentum factorization."""
    mean = zeta_finite_log_mean(coin, N, u)
    return math.exp(-_real(mean, 1e-10, "the log-determinant sum"))


def _site_coords(N: int, d: int):
    # x_1 varies fastest
    for flat in range(N ** d):
        yield tuple((flat // N ** j) % N for j in range(d))


def dense_walk_matrix(coin: CoinMatrix, N: int) -> np.ndarray:
    """The full 2d*N^d one-step matrix of the walk on the N^d torus."""
    return _dense_operator(coin.entries, coin.dim_d, N)


def _dense_operator(a: np.ndarray, d: int, N: int) -> np.ndarray:
    """``dense_walk_matrix`` of the coin entries a, in their dtype."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    size = 2 * d * N ** d
    if size > _DENSE_CAP:
        raise ComputationError(f"dense operator size {size} exceeds cap {_DENSE_CAP}")
    # mat[s, c, t] is the block of row c at site s and the columns of site t,
    # sites numbered with x_1 fastest
    sites = np.arange(N ** d)
    mat = np.zeros((N ** d, 2 * d, N ** d, 2 * d), dtype=a.dtype)
    for j in range(d):
        x = sites // N ** j % N
        # component 2j (0-based) reads from x + e_j, component 2j+1 from x - e_j
        mat[sites, 2 * j, sites + ((x + 1) % N - x) * N ** j] = a[2 * j]
        mat[sites, 2 * j + 1, sites + ((x - 1) % N - x) * N ** j] = a[2 * j + 1]
    return mat.reshape(size, size)


def zeta_finite_dense(coin: CoinMatrix, N: int, u: float) -> float:
    """Walk-type zeta function from the assembled dense operator (oracle route).

    A coin with no imaginary part assembles M and takes the determinant of
    I - u M in float64, any other coin in complex128.  Either way a
    determinant that vanishes or is not positive real (for a real matrix, a
    negative one) raises ``ComputationError``.
    """
    d = coin.dim_d
    a = coin.entries
    mat = _dense_operator(a if a.imag.any() else a.real, d, N)
    sign, logabs = np.linalg.slogdet(np.eye(mat.shape[0]) - u * mat)
    if sign == 0:
        raise ComputationError(f"det(I - u M) vanishes for u={u}, N={N}")
    arg = abs(np.angle(sign))
    if arg >= 1e-8:
        raise ComputationError(f"determinant is not positive real (arg {arg:.3e})")
    return math.exp(-logabs / N ** d)


def _trace_powers(coin: CoinMatrix, N: int, r_max: int) -> list[float]:
    """C_1..C_r_max on the N^d torus from one grid: the means of Tr(M_hat(k)^r).

    Each node's M is built once and P <- P M carried up to r_max, its trace
    after the product for r going to column r - 1.  Tr(M_hat^r) is even on
    every axis on which det(I - u M_hat) is (``_even_axes``: the mirror is a
    similarity of M_hat), so those axes fold onto their nodes
    k = 0..floor(N/2), weighted for their mirrors.  The r_max - 1 products
    are charged before the first block at max((2d)^2, 64) entries a matrix
    for all N^d nodes, folded or not: a batched product costs 0.3-1.1 us a
    matrix for 2d <= 6 (1 BLAS thread).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d = coin.dim_d
    n = 2 * d
    _check_work(r_max - 1, N ** d, max(n * n, 64),
                f"C_r up to r = {r_max} exceeds the grid series budget")

    def fn(mesh):
        mats = _momentum_stack(coin, mesh).reshape(-1, n, n)
        traces = np.empty((r_max, mats.shape[0]), dtype=np.complex128)
        power = mats
        for r in range(r_max):
            if r:
                power = power @ mats
            traces[r] = np.einsum("kii->k", power)
        # node-major view: each column is summed contiguously
        return traces.T, None

    # a block's matrices and traces hold at most 2^22 entries
    means, _ = grid_mean(fn, d, N, 0.0, fold=_even_axes(coin),
                         max_block=max(1, (1 << 22) // (n * n + r_max)))
    return [_real(mean, 1e-10, f"the finite-torus C_{r}") for r, mean in enumerate(means, 1)]


def cr_finite(coin: CoinMatrix, N: int, r: int) -> float:
    """C_r on the finite torus: the grid average of Tr(M_hat(k)^r)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _trace_powers(coin, N, r)[-1]


def cr_limit(coin: CoinMatrix, r: int) -> float:
    """Infinite-lattice C_r: the torus integral of Tr(M_hat(Theta)^r).

    The integrand is a trigonometric polynomial of per-axis degree r (a
    closed walk of r steps cannot wrap a torus of side r + 1), so its mean
    on the (r+1)^d grid is the integral itself.
    """
    return cr_finite(coin, r + 1, r)


def cr_limit_pathsum(coin: CoinMatrix, r: int) -> float:
    """Infinite-lattice C_r as the trace of the step-r return weight."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _real(matrix_weight_traces(coin, r)[r], 1e-12, f"the step-{r} return weight trace")


def cr_closed_1d_qw(xi: float, l: int, shift_type: str) -> float:
    """Closed form for C_{2l} of the one-dimensional two-state walk.

    For the moving-shift model,

        C_{2l} = 2l (-cos^2 xi)^l * sum_{m=1}^{l} (1/m) C(l-1, m-1)^2 (-tan^2 xi)^m,

    and for the flip-flop model the same sum with (-cot^2 xi)^m scaled by
    2l (sin xi)^{2l}.  Valid for xi strictly inside (0, pi/2); the odd
    coefficients vanish identically.

    The sum cancels badly as l grows (3.6e-3 off at l = 60) and overflows a
    float by l = 1000, so the equal Jacobi form is evaluated instead, by its
    three-term recurrence, stable on [-1, 1]: C_{2l} is
    2 (-1)^{l-1} sin^2 xi P^{(1,0)}_{l-1}(cos 2 xi) for the moving shift and
    -2 cos^2 xi P^{(1,0)}_{l-1}(-cos 2 xi) for the flip-flop.
    """
    return _cr_closed_values(xi, l, shift_type)[-1]


def _cr_closed_values(xi: float, l_max: int, shift_type: str) -> list[float]:
    """``cr_closed_1d_qw(xi, l, shift_type)`` for l = 1..l_max, from one pass of the recurrence."""
    if not 0.0 < xi < math.pi / 2:
        raise ValueError(f"xi must lie strictly inside (0, pi/2), got {xi}")
    if l_max < 1:
        raise ValueError(f"l must be >= 1, got {l_max}")
    if shift_type not in (M_TYPE, F_TYPE):
        raise ValueError(f"shift_type must be {M_TYPE!r} or {F_TYPE!r}")
    if shift_type == M_TYPE:
        x = math.cos(2 * xi)
        scales = [2 * (-1) ** (l - 1) * math.sin(xi) ** 2 for l in range(1, l_max + 1)]
    else:
        x = -math.cos(2 * xi)
        scales = [-2 * math.cos(xi) ** 2] * l_max
    # P^{(1,0)}_n(x) for n = 0..l_max-1, from P_0 = 1 and P_1 = (3x + 1)/2
    jacobi = [1.0, (3 * x + 1) / 2]
    for n in range(2, l_max):
        jacobi.append((((4 * n * n - 1) * x + 1) * jacobi[-1]
                       - (n - 1) * (2 * n + 1) * jacobi[-2]) / ((n + 1) * (2 * n - 1)))
    return [scale * p for scale, p in zip(scales, jacobi)]


def log_zeta_refined(coin: CoinMatrix, u: float, quad: QuadratureSpec | None = None):
    """Like ``log_zeta`` but returning the full refinement record."""
    spec = quad or QuadratureSpec()
    fn = _log_det_block(coin, u, require_positive=True)
    fold = _even_axes(coin)
    res = refine_to_tol(
        lambda points: grid_mean(fn, coin.dim_d, points, spec.node_shift, fold=fold)[0], spec)
    if not res.converged:
        raise ComputationError(
            f"log-zeta quadrature did not converge after {spec.max_refinements} refinements "
            f"(last delta {res.delta:.3e})"
        )
    _real(res.value, 1e-9, "the log-zeta quadrature")
    return res


def log_zeta(coin: CoinMatrix, u: float, quad: QuadratureSpec | None = None) -> float:
    """Logarithmic zeta function: the torus integral of log det(I - u M_hat).

    Uses the principal log, log|det| + i arg det; the integrand determinant
    must keep a positive real part on the grid (true for the supported models
    on their validity ranges), and the symmetric grid cancels the imaginary
    part, which is asserted below 1e-9.  Every axis on which the determinant
    is even (``_even_axes``) is folded onto [0, pi).
    """
    return log_zeta_refined(coin, u, quad).value.real


def log_zeta_series(coin: CoinMatrix, u: float, r_max: int) -> tuple[float, float]:
    """Logarithmic zeta via -sum_{r<=r_max} C_r u^r / r with a geometric tail bound.

    C_r comes from the return-weight route; the tail bound
    2d |u|^(r_max+1) / ((r_max+1)(1-|u|)) uses |Tr(M_hat^r)| <= 2d, valid for
    unitary and stochastic coins.
    """
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if abs(u) >= 1.0:
        raise ValueError(f"|u| must be below 1 for the series route, got u={u}")
    return _series_sum(matrix_weight_traces(coin, r_max), u, coin.dim_d)


def _series_sum(traces, u: float, d: int) -> tuple[float, float]:
    """``log_zeta_series`` from the traces for r = 0..r_max of a d-dimensional coin."""
    r_max = len(traces) - 1
    total = 0.0
    for r in range(1, r_max + 1):
        total -= _real(traces[r], 1e-12, f"C_{r}") * u ** r / r
    tail = 2 * d * abs(u) ** (r_max + 1) / ((r_max + 1) * (1.0 - abs(u)))
    return total, tail


_METHODS = ("trace_finite", "quad_limit", "path_sum", "closed_form")


def compute_series(coin: CoinMatrix, r_max: int, method: str,
                   N: int | None = None) -> SeriesCoefficients:
    """C_r for r = 1..r_max by the requested route, each one pass.

    ``trace_finite`` averages Tr(M_hat^r) on the N^d torus, ``quad_limit``
    on the (r_max+1)^d grid, exact for every r <= r_max; ``path_sum``
    traces the return weights, and ``closed_form`` is the one-dimensional
    formula.  The grid routes raise ``ComputationError`` before their grid
    when (r_max - 1) * max(nodes, 1024) * max((2d)^2, 64) exceeds 2^28, and
    ``closed_form`` before its recurrence when floor(r_max / 2) * 1024 does
    (r_max above 524,289).
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if method in ("trace_finite", "quad_limit"):
        N = r_max + 1 if method == "quad_limit" else N
        if N is None:
            raise ValueError("trace_finite needs the torus size N")
        values = list(enumerate(_trace_powers(coin, N, r_max), 1))
    elif method == "path_sum":
        traces = matrix_weight_traces(coin, r_max)
        values = [(r, _real(traces[r], 1e-12, f"C_{r}")) for r in range(1, r_max + 1)]
    else:
        if coin.kind != HADAMARD or coin.xi is None:
            raise ValueError("closed_form is available for the hadamard family only")
        # one recurrence term per even r, charged as one scalar site
        _check_work(r_max // 2, 1, 1, f"C_r up to r = {r_max} exceeds the closed-form budget")
        even = _cr_closed_values(coin.xi, r_max // 2, coin.shift_type) if r_max > 1 else []
        values = [(r, 0.0 if r % 2 else even[r // 2 - 1]) for r in range(1, r_max + 1)]
    return SeriesCoefficients(repr(coin), tuple(values), method)
