import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mahlerzeta import (
    ComputationError,
    QuadratureSpec,
    build_coin,
    compute_series,
    cr_closed_1d_qw,
    cr_finite,
    cr_limit,
    cr_limit_pathsum,
    custom_coin,
    dense_walk_matrix,
    flip_flop,
    hyper_pfq,
    log_zeta,
    log_zeta_refined,
    log_zeta_series,
    zeta_finite,
    zeta_finite_dense,
)
import mahlerzeta.zeta as zeta_module
from conftest import REAL_COIN_KINDS, phase_conjugate, random_unitary, real_coin
from mahlerzeta.quadrature import det_stack, grid_mean
from mahlerzeta.laurent import mesh_evaluator
from mahlerzeta.walk import _momentum_stack
from mahlerzeta.zeta import (_char_poly, _even_axes, _log_det_block, _principal_log,
                             _site_coords, zeta_finite_log_mean)


def hadamard(xi=math.pi / 4, shift="m"):
    coin = build_coin("hadamard", 1, xi)
    return coin if shift == "m" else flip_flop(coin)


# --------------------------------------------------------------------------
# finite-torus zeta

def test_zeta_finite_n1_closed_value():
    # det(I - u A) = 1 - u^2 for the one-dimensional walk coin
    coin = hadamard(0.9)
    for u in (0.3, -0.5, -0.9):
        assert abs(zeta_finite(coin, 1, u) - 1.0 / (1.0 - u * u)) < 1e-14


def test_zeta_finite_at_zero():
    for coin in (hadamard(), build_coin("grover", 2), build_coin("simple_rw", 2)):
        assert zeta_finite(coin, 2, 0.0) == 1.0


def test_zeta_finite_vs_dense_grover():
    coin = flip_flop(build_coin("grover", 2))
    a = zeta_finite(coin, 3, -0.3)
    b = zeta_finite_dense(coin, 3, -0.3)
    assert abs(a - b) < 1e-10 * abs(b)


def test_zeta_finite_vs_dense_rw():
    coin = build_coin("simple_rw", 1)
    a = zeta_finite(coin, 2, -0.5)
    b = zeta_finite_dense(coin, 2, -0.5)
    assert abs(a - b) < 1e-12


def test_zeta_finite_large_torus_matches_limit():
    # 2d*N^d = 6*224^3 is above 2^26, N^d = 224^3 is below it
    coin = build_coin("simple_rw", 3)
    assert zeta_finite(coin, 224, 0.5) == pytest.approx(math.exp(-log_zeta(coin, 0.5)),
                                                       rel=1e-13)


def test_zeta_finite_grid_cap():
    # the cap counts evaluated nodes: the simple walk folds every axis onto
    # floor(N/2) + 1 nodes, so sides 812 and 813 evaluate 407^3, the first
    # grid over the cap
    with pytest.raises(ComputationError, match=r"grid 407\^3 = 67419143 nodes "
                                               r"exceeds the cap of 67108864 \(2\^26\)"):
        zeta_finite(build_coin("simple_rw", 3), 813, 0.5)


# the built-in coins whose det(I - u M_hat) is even on every axis
_EVEN_COINS = [("simple_rw", 1, "m"), ("simple_rw", 2, "m"), ("simple_rw", 3, "m"),
               ("grover", 2, "m"), ("grover", 2, "f"), ("grover", 3, "m"), ("grover", 3, "f"),
               ("hadamard", 1, "f")]


def _even_coin(kind, d, shift):
    coin = build_coin(kind, d, 0.7 if kind == "hadamard" else None)
    coin = coin if shift == "m" else flip_flop(coin)
    assert _even_axes(coin) == tuple(range(d))
    return coin


@pytest.mark.parametrize("kind, d, shift", _EVEN_COINS)
def test_folded_zeta_finite_matches_the_dense_operator(kind, d, shift):
    # nodes 0..floor(N/2) per axis, weighted for their mirrors, against the
    # determinant of the assembled 2d N^d operator, odd and even N
    coin = _even_coin(kind, d, shift)
    for N in range(3, 9):
        dense = zeta_finite_dense(coin, N, -0.3)
        assert abs(zeta_finite(coin, N, -0.3) - dense) <= 1e-12 * dense, N


@pytest.mark.parametrize("kind, d, shift", _EVEN_COINS)
def test_folded_trace_series_matches_the_path_sum(kind, d, shift):
    # a torus of side N > r_max holds every closed walk of r <= r_max steps
    # unwrapped, so its folded grid gives C_r exactly, odd N and even
    coin = _even_coin(kind, d, shift)
    r_max = 6
    path = compute_series(coin, r_max, "path_sum").values
    for N in (r_max + 1, r_max + 2, r_max + 5):
        grid = compute_series(coin, r_max, "trace_finite", N).values
        assert [r for r, _ in grid] == list(range(1, r_max + 1))
        for (r, value), (_, expected) in zip(grid, path):
            assert abs(value - expected) < 1e-12, (N, r)


def test_only_even_axes_fold(monkeypatch):
    # the finite-torus grids count their integrand's rows: a seeded
    # orthogonal coin, even on no axis, evaluates all N^d nodes, the simple
    # walk (floor(N/2) + 1)^d, and a seeded coin made even on axis 0 alone
    # (floor(N/2) + 1) N, each at the dense operator's value
    a = np.random.default_rng(7).normal(size=(4, 4))
    swap = [1, 0, 2, 3]
    mirrored = (a + a[np.ix_(swap, swap)]) / 2  # P C P = C bit for bit on axis 0
    partly = custom_coin(mirrored / np.linalg.norm(mirrored, 2))
    assert _even_axes(partly) == (0,)
    rows = []

    def counting(fn, *args, **kwargs):
        def counted(mesh):
            values, stat = fn(mesh)
            rows.append(values.shape[0])
            return values, stat

        return grid_mean(counted, *args, **kwargs)

    monkeypatch.setattr(zeta_module, "grid_mean", counting)
    odd = real_coin("orthogonal", 2, 20240813)
    assert _even_axes(odd) == ()
    even = build_coin("simple_rw", 2)
    for N in (3, 4, 7, 8):
        for coin, nodes in ((odd, N ** 2), (even, (N // 2 + 1) ** 2), (partly, (N // 2 + 1) * N)):
            rows.clear()
            value = zeta_finite(coin, N, 0.3)
            assert sum(rows) == nodes
            dense = zeta_finite_dense(coin, N, 0.3)
            assert abs(value - dense) <= 1e-12 * dense
            rows.clear()
            cr_finite(coin, N, 3)
            assert sum(rows) == nodes


@pytest.mark.parametrize("kind", ["grover", "simple_rw", "flip_flop"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_zeta_finite_small_torus_takes_direct_determinants(kind, d, n):
    # below 3 nodes per axis the N^d determinants are taken directly; they
    # agree with the 3^d-coefficient polynomial on the same nodes
    coin = flip_flop(build_coin("grover", d)) if kind == "flip_flop" else build_coin(kind, d)
    for u in (-0.4, 0.3):
        direct = zeta_finite_log_mean(coin, n, u)
        poly, _ = grid_mean(_log_det_block(coin, u, require_positive=False), d, n, 0.0)
        assert abs(direct - poly) < 1e-12


def test_zeta_finite_small_torus_builds_no_char_poly(monkeypatch):
    def refuse(*args):
        raise AssertionError("_char_poly called")

    monkeypatch.setattr(zeta_module, "_char_poly", refuse)
    value = zeta_finite(flip_flop(build_coin("grover", 12)), 2, -0.2)
    assert math.isfinite(value) and value > 0.0


def test_zeta_finite_dense_n1():
    assert abs(zeta_finite_dense(hadamard(), 1, 0.5) - 4.0 / 3.0) < 1e-14


def test_zeta_finite_singular_factor():
    with pytest.raises(ComputationError, match="singular factor"):
        zeta_finite(build_coin("simple_rw", 1), 2, 1.0)


def test_zeta_finite_dense_size_cap():
    with pytest.raises(ComputationError, match="cap"):
        zeta_finite_dense(build_coin("grover", 2), 64, 0.1)


def test_zeta_finite_dense_negative_determinant_refused():
    # det(I + 2M) < 0 for Grover d = 2 on the 3^2 torus: the float64
    # determinant's sign -1 is refused with the arg pi of the complex one
    with pytest.raises(ComputationError, match=r"not positive real \(arg 3.142e\+00\)"):
        zeta_finite_dense(build_coin("grover", 2), 3, -2.0)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(REAL_COIN_KINDS), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), xi=st.floats(0.05, 1.5),
       shift=st.sampled_from(["m", "f"]), N=st.integers(1, 4), u=st.floats(-0.9, 0.9))
def test_zeta_finite_dense_real_coin_matches_complex_conjugate(kind, d, seed, xi, shift, N, u):
    # the complex coin D C D^-1 makes the operator (I x D) M (I x D)^-1,
    # whose det(I - uM) is the real coin's; it runs in complex arithmetic
    if kind == "hadamard":
        d = 1
    coin = real_coin(kind, d, seed, xi)
    if shift == "f":
        coin = flip_flop(coin)
    phases = np.exp(1j * np.random.default_rng(seed + 1).uniform(0, 2 * math.pi, 2 * d))
    real_value = zeta_finite_dense(coin, N, u)
    complex_value = zeta_finite_dense(phase_conjugate(coin, phases), N, u)
    assert abs(complex_value - real_value) <= 1e-12 * abs(real_value)


def test_dense_matrix_is_unitary_for_unitary_coin():
    mat = dense_walk_matrix(flip_flop(build_coin("grover", 2)), 3)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(mat.shape[0]), atol=1e-12)


def _dense_by_sites(a, d, N):
    """The one-step matrix assembled site by site, x_1 fastest: the reference."""
    mat = np.zeros((2 * d * N ** d,) * 2, dtype=a.dtype)
    for s, coords in enumerate(_site_coords(N, d)):
        for j in range(d):
            s_up = s + ((coords[j] + 1) % N - coords[j]) * N ** j
            s_dn = s + ((coords[j] - 1) % N - coords[j]) * N ** j
            mat[2 * d * s + 2 * j, 2 * d * s_up: 2 * d * (s_up + 1)] = a[2 * j]
            mat[2 * d * s + 2 * j + 1, 2 * d * s_dn: 2 * d * (s_dn + 1)] = a[2 * j + 1]
    return mat


@pytest.mark.parametrize("d, N", [(1, 1), (1, 2), (1, 3), (1, 32), (2, 1), (2, 2), (2, 3),
                                  (2, 6), (3, 1), (3, 2), (3, 3), (3, 4)])
def test_dense_operator_matches_the_site_loop(d, N):
    # the index-array assembly writes each coin row where the site loop does
    rng = np.random.default_rng(d * 100 + N)
    a = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
    for entries in (a, a.real):
        mat = zeta_module._dense_operator(entries, d, N)
        assert mat.dtype == entries.dtype
        assert np.array_equal(mat, _dense_by_sites(entries, d, N))


# --------------------------------------------------------------------------
# series coefficients

def test_cr_finite_hand_values():
    coin = hadamard(0.7)
    assert abs(cr_finite(coin, 2, 1)) < 1e-14
    assert abs(cr_finite(coin, 2, 2) - 2.0) < 1e-14


def test_cr_finite_matches_dense_trace():
    coin = flip_flop(build_coin("grover", 2))
    n, r = 4, 3
    mat = dense_walk_matrix(coin, n)
    expected = np.trace(np.linalg.matrix_power(mat, r)).real / n ** coin.dim_d
    assert abs(cr_finite(coin, n, r) - expected) < 1e-10


def test_cr_limit_hadamard_closed():
    xi = math.pi / 4
    assert abs(cr_limit(hadamard(xi), 2) - 2 * math.sin(xi) ** 2) < 1e-12


def test_cr_limit_odd_vanishes():
    for shift in ("m", "f"):
        coin = hadamard(0.6, shift)
        for r in (1, 3, 5, 7, 9):
            assert abs(cr_limit(coin, r)) < 1e-12
            assert abs(cr_limit_pathsum(coin, r)) < 1e-12


def test_cr_limit_rw_values():
    assert abs(cr_limit(build_coin("simple_rw", 1), 2) - 0.5) < 1e-12
    assert abs(cr_limit_pathsum(build_coin("simple_rw", 2), 2) - 0.25) < 1e-14


def test_cr_routes_agree():
    coins = [hadamard(0.5), hadamard(1.0, "f"), flip_flop(build_coin("grover", 2)),
             build_coin("simple_rw", 2)]
    for coin in coins:
        for r in range(1, 9):
            assert abs(cr_limit(coin, r) - cr_limit_pathsum(coin, r)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.sampled_from(["orthogonal", "stochastic"]), st.integers(1, 8))
def test_cr_limit_matches_pathsum_for_random_coins(seed, d, kind, r):
    coin = real_coin(kind, d, seed)
    assert abs(cr_limit(coin, r) - cr_limit_pathsum(coin, r)) < 1e-12


def test_cr_finite_converges_to_limit():
    coin = hadamard(0.8)
    r = 3
    limit = cr_limit(coin, r)
    gaps = [abs(cr_finite(coin, n, r) - limit) for n in (2 * r, 4 * r, 8 * r)]
    assert gaps[-1] < 1e-10
    # exact once the grid outruns the trigonometric degree
    assert abs(cr_finite(coin, r + 1, r) - limit) < 1e-12


def test_cr_closed_form_values():
    assert abs(cr_closed_1d_qw(math.pi / 4, 1, "m") - 1.0) < 1e-15
    assert abs(cr_closed_1d_qw(math.pi / 4, 1, "f") + 1.0) < 1e-15
    xi = math.pi / 6
    assert abs(cr_closed_1d_qw(xi, 1, "m") - 2 * math.sin(xi) ** 2) < 1e-15


def test_cr_closed_matches_quadrature_and_pathsum():
    for xi in (math.pi / 6, math.pi / 3):
        for shift in ("m", "f"):
            coin = hadamard(xi, shift)
            for l in (1, 2, 3):
                closed = cr_closed_1d_qw(xi, l, shift)
                assert abs(closed - cr_limit(coin, 2 * l)) < 1e-8
                assert abs(closed - cr_limit_pathsum(coin, 2 * l)) < 1e-10


def test_cr_closed_hypergeometric_face():
    # the finite sum equals its terminating 2F1 representation
    for xi in (0.4, 1.1):
        for l in (1, 2, 4):
            tan2 = math.tan(xi) ** 2
            via_2f1 = (2 * l * (-math.cos(xi) ** 2) ** (l - 1) * math.sin(xi) ** 2
                       * hyper_pfq([1 - l, 1 - l], [2], -tan2))
            assert abs(cr_closed_1d_qw(xi, l, "m") - via_2f1) < 1e-13 * max(1, abs(via_2f1))


def test_cr_closed_range_checks():
    with pytest.raises(ValueError, match="xi"):
        cr_closed_1d_qw(0.0, 1, "m")
    with pytest.raises(ValueError, match="xi"):
        cr_closed_1d_qw(math.pi / 2, 1, "f")
    with pytest.raises(ValueError, match="l must"):
        cr_closed_1d_qw(0.5, 0, "m")


# --------------------------------------------------------------------------
# logarithmic zeta

def test_log_zeta_at_zero():
    assert log_zeta(hadamard(), 0.0, QuadratureSpec(64)) == 0.0


def test_log_zeta_hadamard_closed_value():
    u = -0.1
    expected = math.log((1 - u * u + math.sqrt(1 + u ** 4)) / 2)
    assert abs(log_zeta(hadamard(), u, QuadratureSpec(512)) - expected) < 1e-13


def test_log_zeta_rw_closed_value():
    u = -0.5
    expected = math.log((1 + math.sqrt(1 - u * u)) / 2)
    assert abs(log_zeta(build_coin("simple_rw", 1), u, QuadratureSpec(512)) - expected) < 1e-13


def test_log_zeta_series_at_zero():
    assert log_zeta_series(build_coin("simple_rw", 1), 0.0, 10) == (0.0, 0.0)


def test_log_zeta_series_rw():
    u = -0.5
    value, tail = log_zeta_series(build_coin("simple_rw", 1), u, 40)
    expected = math.log((1 + math.sqrt(1 - u * u)) / 2)
    assert abs(value - expected) <= tail + 1e-12


def test_log_zeta_series_vs_quadrature():
    coin = hadamard(math.pi / 4, "f")
    u = -0.4
    value, tail = log_zeta_series(coin, u, 60)
    quad = log_zeta(coin, u, QuadratureSpec(512))
    assert abs(value - quad) <= tail + 1e-9


def test_log_zeta_series_radius_check():
    with pytest.raises(ValueError, match="below 1"):
        log_zeta_series(build_coin("simple_rw", 1), 1.0, 10)


def test_factorization_identity_small_grid():
    coins = [hadamard(0.5), hadamard(0.5, "f"), build_coin("simple_rw", 1),
             build_coin("grover", 2), flip_flop(build_coin("grover", 2)),
             build_coin("simple_rw", 2)]
    for coin in coins:
        for n in (2, 3):
            for u in (-0.3, 0.25):
                a = zeta_finite(coin, n, u)
                b = zeta_finite_dense(coin, n, u)
                assert abs(a - b) < 1e-10 * abs(b)


def test_compute_series_odd_zero_invariant():
    series = compute_series(hadamard(0.9), 8, "path_sum")
    assert [r for r, _ in series.values] == list(range(1, 9))
    for r, value in series.values:
        if r % 2:
            assert abs(value) < 1e-12


def test_compute_series_methods_agree():
    coin = hadamard(0.9)
    closed = dict(compute_series(coin, 6, "closed_form").values)
    path = dict(compute_series(coin, 6, "path_sum").values)
    quad = dict(compute_series(coin, 6, "quad_limit").values)
    for r in range(1, 7):
        assert abs(closed[r] - path[r]) < 1e-10
        assert abs(quad[r] - path[r]) < 1e-10


@pytest.mark.parametrize("shift", ["m", "f"])
@pytest.mark.parametrize("xi", [0.3, math.pi / 4, 1.1])
def test_closed_form_series_is_the_per_l_values(xi, shift):
    # one pass of the recurrence gives every C_2l bit for bit
    series = compute_series(hadamard(xi, shift), 301, "closed_form").values
    assert [r for r, _ in series] == list(range(1, 302))
    for r, value in series:
        assert value == (0.0 if r % 2 else cr_closed_1d_qw(xi, r // 2, shift))


def _series_charge(r_max, nodes, d):
    # (r_max - 1) products over max(nodes, 1024) sites of max((2d)^2, 64) entries
    return (r_max - 1) * max(nodes, 1024) * max((2 * d) ** 2, 64)


# (method, N, coin, d, the largest admitted r_max)
_SERIES_BUDGET_CASES = [
    ("quad_limit", None, "simple_rw", 1, 2048),
    ("quad_limit", None, "simple_rw", 3, 44),
    ("quad_limit", None, "grover", 2, 160),
    # fewer than 1024 nodes are charged as 1024
    ("trace_finite", 64, "simple_rw", 1, 4097),
    ("trace_finite", 1, "grover", 3, 4097),
]


@pytest.mark.parametrize("method,N,d", [("quad_limit", None, 1), ("quad_limit", None, 3),
                                        ("trace_finite", 64, 1)])
def test_compute_series_grid_work_budget(method, N, d):
    start = time.perf_counter()
    with pytest.raises(ComputationError,
                       match="C_r up to r = 100000 exceeds the grid series budget"):
        compute_series(build_coin("simple_rw", d), 100_000, method, N=N)
    assert time.perf_counter() - start < 1.0


def test_compute_series_grid_work_budget_boundary(monkeypatch):
    # the admitted run reaches its grid, stubbed out here, and one more r is
    # refused before it
    def grid_reached(*args, **kwargs):
        raise LookupError("grid reached")

    monkeypatch.setattr(zeta_module, "grid_mean", grid_reached)
    for method, N, kind, d, r_max in _SERIES_BUDGET_CASES:
        side = [r_max + 1, r_max + 2] if N is None else [N, N]
        assert _series_charge(r_max, side[0] ** d, d) <= 2 ** 28
        assert _series_charge(r_max + 1, side[1] ** d, d) > 2 ** 28
        coin = build_coin(kind, d)
        with pytest.raises(LookupError):
            compute_series(coin, r_max, method, N=N)
        with pytest.raises(ComputationError, match="grid series budget"):
            compute_series(coin, r_max + 1, method, N=N)


def test_compute_series_closed_form_budget_boundary(monkeypatch):
    # floor(r_max / 2) recurrence terms at 1024 units each: the admitted run
    # reaches the recurrence, stubbed out here, and one more r is refused
    def recurrence_reached(*args, **kwargs):
        raise LookupError("recurrence reached")

    monkeypatch.setattr(zeta_module, "_cr_closed_values", recurrence_reached)
    coin = hadamard(0.5)
    with pytest.raises(LookupError):
        compute_series(coin, 524_289, "closed_form")
    start = time.perf_counter()
    for r_max in (524_290, 10_000_000):
        with pytest.raises(ComputationError,
                           match=f"C_r up to r = {r_max} exceeds the closed-form budget"):
            compute_series(coin, r_max, "closed_form")
    assert time.perf_counter() - start < 1.0


def test_compute_series_quad_limit_at_the_old_budget_runs_in_time():
    # r_max = 585 was the largest the per-r grids admitted, at about 35 s
    start = time.perf_counter()
    series = compute_series(build_coin("simple_rw", 1), 585, "quad_limit")
    assert time.perf_counter() - start < 2.0
    assert len(series.values) == 585


@st.composite
def _series_coins(draw):
    kind = draw(st.sampled_from(REAL_COIN_KINDS))
    d = 1 if kind == "hadamard" else draw(st.integers(1, 3))
    coin = real_coin(kind, d, draw(st.integers(0, 2 ** 32 - 1)), draw(st.floats(0.1, 1.4)))
    return flip_flop(coin) if draw(st.booleans()) else coin


@settings(max_examples=40, deadline=None)
@given(coin=_series_coins(), r_max=st.integers(1, 12), N=st.integers(1, 6),
       r=st.integers(1, 12))
def test_grid_series_is_one_pass(coin, r_max, N, r):
    # quad_limit is the pass on the (r_max + 1)^d grid, exact for every r <= r_max
    r = min(r, r_max)
    quad = compute_series(coin, r_max, "quad_limit").values
    assert quad == compute_series(coin, r_max, "trace_finite", N=r_max + 1).values
    path = compute_series(coin, r_max, "path_sum").values
    assert all(abs(a - b) < 1e-12 for (_, a), (_, b) in zip(quad, path))
    finite = compute_series(coin, r_max, "trace_finite", N=N).values
    assert cr_finite(coin, N, r) == finite[r - 1][1]


@pytest.mark.parametrize("method", ["quad_limit", "trace_finite", "path_sum"])
def test_compute_series_refuses_a_complex_trace(rng, method):
    # a complex unitary coin has complex C_r; no route may keep only the real part
    coin = custom_coin(random_unitary(rng, 2))
    with pytest.raises(ComputationError, match="imaginary residual"):
        compute_series(coin, 4, method, N=5)


def test_compute_series_validation():
    with pytest.raises(ValueError, match="torus size"):
        compute_series(hadamard(), 4, "trace_finite")
    with pytest.raises(ValueError, match="N must be >= 1"):
        compute_series(hadamard(), 4, "trace_finite", N=0)
    with pytest.raises(ValueError, match="hadamard family"):
        compute_series(build_coin("grover", 2), 4, "closed_form")
    with pytest.raises(ValueError, match="method"):
        compute_series(hadamard(), 4, "magic")


# --------------------------------------------------------------------------
# the characteristic Laurent polynomial det(I - u M_hat) behind both log-det means

def _char_poly_coins():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    cols = rng.uniform(0.1, 1.0, size=(4, 4))
    coins = [hadamard(0.7), hadamard(0.7, "f"), custom_coin(q), custom_coin(cols / cols.sum(axis=0))]
    for d in (1, 2, 3):
        grover = build_coin("grover", d)
        coins += [grover, flip_flop(grover), build_coin("simple_rw", d)]
    return coins


@pytest.mark.parametrize("coin", _char_poly_coins(), ids=repr)
def test_char_poly_matches_momentum_determinant(coin):
    rng = np.random.default_rng(11)
    d = coin.dim_d
    eye = np.eye(2 * d, dtype=np.complex128)
    for u in (-0.8, 0.35):
        # an open mesh of random angles, 5, 1 and 3 on the axes (one axis of
        # a single node, as in a block that fixes the leading axes)
        mesh = []
        for j, n in enumerate((5, 1, 3)[:d]):
            shape = [1] * d
            shape[j] = n
            mesh.append(rng.uniform(0.0, 2 * math.pi, size=n).reshape(shape))
        got = mesh_evaluator(*_char_poly(coin, u))(tuple(mesh)).ravel()
        expected = det_stack(eye - u * _momentum_stack(coin, mesh)).reshape(-1)
        assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-13


def _coefficients(d, center, edge):
    """(3,)*d coefficients of center + edge * sum_j (z_j + 1/z_j)."""
    out = np.zeros((3,) * d, dtype=np.complex128)
    out[(1,) * d] = center
    for j in range(d):
        for e in (0, 2):
            idx = [1] * d
            idx[j] = e
            out[tuple(idx)] = edge
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_char_poly_closed_forms(d):
    for u in (-0.8, -0.3, 0.45):
        # flip-flop Grover: (1 - u^2)^(d-1) (1 - (2u/d) sum cos Theta_j + u^2)
        scale = (1 - u * u) ** (d - 1)
        grover = _char_poly(flip_flop(build_coin("grover", d)), u)[1].reshape((3,) * d)
        np.testing.assert_allclose(grover, _coefficients(d, scale * (1 + u * u), -scale * u / d),
                                   rtol=0, atol=1e-15)
        # the rank-one random-walk coin: 1 - (u/d) sum cos Theta_j
        rw = _char_poly(build_coin("simple_rw", d), u)[1].reshape((3,) * d)
        np.testing.assert_allclose(rw, _coefficients(d, 1.0, -u / (2 * d)), rtol=0, atol=1e-15)


def test_char_poly_coefficient_cap():
    # 3^13 coefficients exceed the cap of 2^20; the check runs before any
    # determinant.  A torus of side 3 takes the polynomial route; one of side
    # 1 needs no coefficients and takes its single determinant directly.
    with pytest.raises(ComputationError, match=r"3\^13 = 1594323 coefficients"):
        zeta_finite(build_coin("grover", 13), 3, 0.3)
    assert math.isfinite(zeta_finite(build_coin("grover", 13), 1, 0.3))
    with pytest.raises(ComputationError, match="coefficients"):
        log_zeta(build_coin("simple_rw", 13), -0.5)


def test_non_positive_determinant_names_the_node():
    # (1 - u^2)(1 - u(cos a + cos b) + u^2) < 0 everywhere at u = 3; the first
    # grid of the ladder is 16^2 and the first node is reported
    first = float(0.5 * 2 * math.pi / 16)
    with pytest.raises(ComputationError, match="non-positive real part") as err:
        log_zeta(build_coin("simple_rw", 2), 3.0, QuadratureSpec(32))
    assert f"Theta=({first}, {first}) (u=3.0)" in str(err.value)


def test_singular_factor_names_the_node():
    # (1 + z1)(1 + 1/z1)(1 + z2)(1 + 1/z2) at u = -1 vanishes first at k = (0, pi)
    coin = custom_coin(np.eye(4))
    with pytest.raises(ComputationError, match="singular factor") as err:
        zeta_finite(coin, 4, -1.0)
    assert f"k=(0.0, {math.pi}) (u=-1.0)" in str(err.value)


# --------------------------------------------------------------------------
# the principal log kernel and the exact fold rule

@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 1e6), st.floats(-math.pi / 2, math.pi / 2, exclude_min=True,
                                       exclude_max=True),
       st.floats(-1e-8, 1e-8))
def test_principal_log_matches_complex_log(modulus, angle, near_one):
    # Re z > 0, over a wide range of moduli and within 1e-8 of the unit circle;
    # a log|z| above 1 is compared relative to its size, since one ulp of
    # log 1e6 is already 1.8e-15
    z =np.array([modulus * np.exp(1j * angle), (1.0 + near_one) * np.exp(1j * angle)])
    expected = np.log(z)
    got = _principal_log(z.copy())
    scale = np.maximum(1.0, np.abs(expected.real))
    assert np.all(np.abs(got.real - expected.real) <= 1e-15 * scale)
    assert np.all(np.abs(got.imag - expected.imag) <= 1e-15)


def test_log_zeta_keeps_the_arg_of_a_folded_integrand():
    # det(I - u M_hat) = 1 - u^2 e^(2i phi) for this flip-flop coin: constant
    # and off the real axis, and even in Theta, so the folded grid has no
    # conjugate node to cancel its arg and the residual check must refuse it
    phi, u = 0.3, 0.5
    coin = custom_coin(np.exp(1j * phi) * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert _even_axes(coin) == (0,)
    with pytest.raises(ComputationError, match="imaginary residual"):
        log_zeta(coin, u, QuadratureSpec(16))


@pytest.mark.parametrize("coin, axes", [
    (build_coin("grover", 1), (0,)), (build_coin("grover", 2), (0, 1)),
    (build_coin("grover", 3), (0, 1, 2)), (flip_flop(build_coin("grover", 2)), (0, 1)),
    (flip_flop(build_coin("grover", 3)), (0, 1, 2)), (build_coin("simple_rw", 1), (0,)),
    (build_coin("simple_rw", 3), (0, 1, 2)), (flip_flop(build_coin("simple_rw", 2)), (0, 1)),
    (hadamard(math.pi / 4, "f"), (0,)), (hadamard(0.3, "f"), (0,)),
    (hadamard(math.pi / 4), ()), (hadamard(1.2), ()),
])
def test_even_axes_of_the_named_coins(coin, axes):
    assert _even_axes(coin) == axes


def _mirrored_coefficient_axes(coin, u):
    # the axes j on which the coefficients of det(I - u M_hat) are mirrored
    # under e_j -> -e_j, to 1e-12: a route apart from the coin's entries
    exps, coeffs = _char_poly(coin, u)
    where = {tuple(e): c for e, c in zip(exps.tolist(), coeffs)}
    axes = []
    for j in range(coin.dim_d):
        mirror = [tuple(-x if k == j else x for k, x in enumerate(e)) for e in where]
        if all(abs(where[e] - where[m]) <= 1e-12 for e, m in zip(where, mirror)):
            axes.append(j)
    return tuple(axes)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["orthogonal", "stochastic"])
def test_even_axes_agree_with_mirrored_coefficients(seed, d, kind):
    rng = np.random.default_rng(seed)
    if kind == "orthogonal":
        entries, _ = np.linalg.qr(rng.normal(size=(2 * d, 2 * d)))
    else:
        entries = rng.random((2 * d, 2 * d))
        entries /= entries.sum(axis=0)
    named = [build_coin("grover", d), flip_flop(build_coin("grover", d)),
             build_coin("simple_rw", d), flip_flop(build_coin("simple_rw", d))]
    if d == 1:
        named += [hadamard(0.7), hadamard(0.7, "f")]
    for coin in [custom_coin(entries), custom_coin(entries, "f")] + named:
        assert _even_axes(coin) == _mirrored_coefficient_axes(coin, 0.4), coin
    assert _even_axes(custom_coin(entries)) == ()


@st.composite
def _foldable_walks(draw):
    kind = draw(st.sampled_from(["grover", "simple_rw", "hadamard"]))
    if kind == "hadamard":
        coin = hadamard(draw(st.floats(0.05, math.pi / 2 - 0.05)), "f")
    else:
        coin = build_coin(kind, draw(st.integers(1, 3)))
        coin = flip_flop(coin) if draw(st.booleans()) else coin
    u = draw(st.floats(-0.95, 0.95))
    points = draw(st.sampled_from([8, 16, 32] if coin.dim_d == 3 else [8, 16, 32, 64]))
    return coin, u, points


@settings(max_examples=60, deadline=None)
@given(_foldable_walks())
def test_folded_log_zeta_matches_the_unfolded_mean(case):
    # one plain ladder step (tol 1 converges at once): the value is the
    # folded grid mean at M, against the full M^d grid mean.  Mirrored nodes
    # agree to rounding only, so the bound scales with the largest |log det|
    # on the grid: the mean itself can cancel to far below it (Grover d = 1
    # flip-flop at u = 0.875, M = 8: 1.2e-15 apart on a mean of 0.074)
    coin, u, points = case
    res = log_zeta_refined(coin, u, QuadratureSpec(points, 0.5, 1.0, 0))
    assert res.points_per_dim == points
    fn = _log_det_block(coin, u, require_positive=True)
    largest = [1.0]

    def full_grid(mesh):
        values, stat = fn(mesh)
        largest.append(float(np.abs(values).max()))
        return values, stat

    full, _ = grid_mean(full_grid, coin.dim_d, points, 0.5)
    assert abs(res.value - full) <= 1e-15 * max(largest)
