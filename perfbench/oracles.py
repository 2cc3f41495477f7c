"""Exact reference values, computed with mpmath and math only.

Nothing here imports mahlerzeta: every value is an independent oracle for the
library's routes.  Each function takes plain numbers and returns a float; the
working precision is ``DPS`` decimal digits, read at call time (the
benchmark's tests raise it to re-evaluate every oracle at higher precision).
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

DPS = 25

# 4F3(3/2, 3/2, 1, 1; 2, 2, 2; x): the square-lattice hypergeometric face
_A43 = [mp.mpf(3) / 2, mp.mpf(3) / 2, 1, 1]
_B43 = [2, 2, 2]


def _dps(fn):
    @functools.wraps(fn)
    def wrapped(*args):
        with mp.workdps(DPS):
            return float(fn(*args))

    return wrapped


@_dps
def zeta3():
    return mp.zeta(3)


@_dps
def l_chi3_2():
    """L(chi_-3, 2) = (psi'(1/3) - psi'(2/3)) / 9."""
    return (mp.psi(1, mp.mpf(1) / 3) - mp.psi(1, mp.mpf(2) / 3)) / 9


@_dps
def catalan():
    return mp.catalan


@_dps
def smyth_2var():
    """m(1 + X1 + X2) = 3 sqrt(3) / (4 pi) L(chi_-3, 2)."""
    l_chi = (mp.psi(1, mp.mpf(1) / 3) - mp.psi(1, mp.mpf(2) / 3)) / 9
    return 3 * mp.sqrt(3) / (4 * mp.pi) * l_chi


@_dps
def smyth_3var():
    """m(1 + X1 + X2 + X3) = 7 zeta(3) / (2 pi^2)."""
    return 7 * mp.zeta(3) / (2 * mp.pi ** 2)


@_dps
def lambda_2():
    """Spanning tree constant of Z^2: 4G / pi."""
    return 4 * mp.catalan / mp.pi


def _mp_rw_log_mean(d, v):
    """Torus average of log(1 - (v/d) sum_j cos theta_j), |v| <= 1.

    d = 1 and d = 2 use their closed and 4F3 forms; other d the Bessel
    integral -int_0^inf e^{-t} (I0(v t / d)^d - 1) dt / t.
    """
    v = mp.mpf(v)
    if d == 1:
        return mp.log((1 + mp.sqrt(1 - v * v)) / 2)
    if d == 2 and abs(v) < 1:
        return -(v * v / 8) * mp.hyper(_A43, _B43, v * v)
    f = lambda t: mp.exp(-t) * (mp.besseli(0, v * t / d) ** d - 1) / t
    return -mp.quad(f, [0, 1, 10, 100, 1000, mp.inf])


@_dps
def rw_log_zeta(d, u):
    """Logarithmic zeta of the symmetric random walk on Z^d at u."""
    return _mp_rw_log_mean(d, u)


@_dps
def grover_log_zeta(d, u):
    """Logarithmic zeta of the flip-flop Grover walk on Z^d at |u| < 1.

    (d-1) log(1-u^2) + avg log(1 - (2u/d) sum cos + u^2), the average
    rewritten as log(1+u^2) plus a random-walk average at v = 2u/(1+u^2).
    """
    u = mp.mpf(u)
    v = 2 * u / (1 + u * u)
    return (d - 1) * mp.log(1 - u * u) + mp.log(1 + u * u) + _mp_rw_log_mean(d, v)


@_dps
def stgf(d, u):
    """Spanning tree generating function: log(2d) - log u + rw log zeta(u)."""
    u = mp.mpf(u)
    return mp.log(2 * d) - mp.log(u) + _mp_rw_log_mean(d, u)


@_dps
def lattice_green(d, u):
    """sum_n P_n(0, 0) u^n = int_0^inf e^{-t} I0(u t / d)^d dt for 0 < u < 1."""
    u = mp.mpf(u)
    f = lambda t: mp.exp(-t) * mp.besseli(0, u * t / d) ** d
    return mp.quad(f, [0, 1, 10, 100, 1000, 10000, 100000, mp.inf])


@_dps
def qw1d_closed(xi, u, shift_type):
    """Closed form of the one-dimensional two-state walk's log zeta."""
    xi, u = mp.mpf(xi), mp.mpf(u)
    root = mp.sqrt(1 + 2 * mp.cos(2 * xi) * u * u + u ** 4)
    if shift_type == "m":
        return mp.log((1 - u * u + root) / 2)
    return mp.log((1 + u * u + root) / 2)


def _mp_mahler_1var(coeffs):
    """m(sum_k c_k X^k) from roots: log|c_top| + sum log max(|root|, 1).

    ``coeffs`` lists the coefficients from the highest power down.
    """
    coeffs = [mp.mpf(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    value = mp.log(abs(coeffs[0]))
    if len(coeffs) > 1:
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=2 * mp.mp.prec)
        value += sum(mp.log(max(abs(r), 1)) for r in roots)
    return value


@_dps
def mahler_1var(coeffs):
    return _mp_mahler_1var(coeffs)


@_dps
def two_state_log_zeta(entries, u):
    """Logarithmic zeta of a real 2x2 coin on Z by Jensen's formula.

    det(I - u diag(X, 1/X) A) = (1 + u^2 det A) - u a11 X - u a22 / X, whose
    torus average of log|.| is the Mahler measure of that Laurent polynomial.
    """
    (a11, a12), (a21, a22) = [[mp.mpf(x) for x in row] for row in entries]
    u = mp.mpf(u)
    return _mp_mahler_1var([-u * a11, 1 + u * u * (a11 * a22 - a12 * a21), -u * a22])


@_dps
def square_lattice(c):
    """m(X1 + 1/X1 + X2 + 1/X2 + c) = log c - (2/c^2) 4F3(...; 16/c^2), c > 4."""
    c = mp.mpf(c)
    return mp.log(c) - 2 / c ** 2 * mp.hyper(_A43, _B43, 16 / c ** 2)


@_dps
def grover_zeta_finite(d, N, u):
    """Finite-torus zeta of the flip-flop Grover walk from its momentum factors.

    det(I - u M_hat(k)) = (1-u^2)^(d-1) (1 - (2u/d) sum_j cos k_j + u^2) at the
    N^d momenta k_j = 2 pi n_j / N; zeta = prod_k det^(-1/N^d).
    """
    u = mp.mpf(u)
    total = mp.mpf(0)
    cosines = [mp.cos(2 * mp.pi * n / N) for n in range(N)]
    for flat in range(N ** d):
        s = sum(cosines[(flat // N ** j) % N] for j in range(d))
        total += mp.log((1 - u * u) ** (d - 1) * (1 - 2 * u / d * s + u * u))
    return mp.exp(-total / N ** d)


def rw_return_trace(r: int) -> float:
    """C_r of the one-dimensional random walk: the mean of cos^r, exactly."""
    return 0.0 if r % 2 else math.comb(r, r // 2) / 2.0 ** r
