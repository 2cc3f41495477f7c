"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one pass/fail line (visible through pytest's capture) and
enforces both the numeric tolerance and the runtime budget of its criterion.
"""

import math
import time

import numpy as np

from mahlerzeta import (
    QuadratureSpec,
    build_coin,
    central_binomial_weight,
    cr_closed_1d_qw,
    cr_limit,
    cr_limit_pathsum,
    custom_coin,
    delta_state,
    evolve,
    flip_flop,
    green_series_estimate,
    log_cos_identity,
    mahler_closed_ftype,
    mahler_closed_mtype,
    mahler_quadrature,
    mahler_univariate,
    momentum_matrix,
    qw_validity_interval,
    return_probability,
    special_constants,
    spanning_tree_constant,
    stgf,
    total_measure,
    transience_probe,
    uniform_state,
    verify_1d_qw,
    verify_grover,
    verify_rw,
    zeta_finite,
    zeta_finite_dense,
)
from mahlerzeta.laurent import LaurentPolynomial
from mahlerzeta.quadrature import grid_mean
from mahlerzeta.zeta import log_zeta
from conftest import random_unitary

XIS = (math.pi / 6, math.pi / 4, math.pi / 3)


def _emit(capsys, number, label, elapsed, limit):
    ok = elapsed < limit
    with capsys.disabled():
        status = "PASS" if ok else "FAIL (runtime)"
        print(f"[criterion {number:2d}] {status}: {label} ({elapsed:.2f}s, budget {limit:g}s)")
    assert ok, f"criterion {number} exceeded its {limit}s budget ({elapsed:.2f}s)"


def test_criterion_01_qw1d_closed_forms(capsys):
    start = time.perf_counter()
    for xi in XIS:
        lo, _ = qw_validity_interval(xi, "m")
        m_us = [lo * i / 6 for i in range(1, 6)]
        f_us = [-0.1, -0.3, -0.5, -1.0, -2.0]
        for shift, us in (("m", m_us), ("f", f_us)):
            for u in us:
                rep = verify_1d_qw(xi, u, shift)
                assert abs(rep.diagnostics["lhs_minus_closed"]) < 1e-9
                assert rep.passed and rep.abs_diff < 1e-9
    _emit(capsys, 1, "1d walk quadrature vs closed forms", time.perf_counter() - start, 1.0)


def test_criterion_02_hadamard_specialization(capsys):
    start = time.perf_counter()
    rep_m = verify_1d_qw(math.pi / 4, -0.1, "m")
    expected_m = math.log((0.99 + math.sqrt(1.0001)) / 2)
    assert abs(rep_m.lhs - expected_m) < 1e-10
    assert abs(rep_m.diagnostics["closed_form"] - expected_m) < 1e-12
    rep_f = verify_1d_qw(math.pi / 4, -1.0, "f")
    expected_f = math.log((2 + math.sqrt(2)) / 2)
    assert abs(rep_f.lhs - expected_f) < 1e-10
    assert abs(rep_f.diagnostics["closed_form"] - expected_f) < 1e-12
    _emit(capsys, 2, "hadamard-angle closed values", time.perf_counter() - start, 0.1)


def test_criterion_03_cr_three_routes(capsys):
    start = time.perf_counter()
    qw_coins = [(build_coin("hadamard", 1, xi) if shift == "m"
                 else flip_flop(build_coin("hadamard", 1, xi)), xi, shift)
                for xi in XIS for shift in ("m", "f")]
    for coin, xi, shift in qw_coins:
        for r in range(1, 9):
            quad = cr_limit(coin, r)
            path = cr_limit_pathsum(coin, r)
            assert abs(quad - path) < 1e-9
            if r % 2:
                assert abs(quad) < 1e-12 and abs(path) < 1e-12
            else:
                closed = cr_closed_1d_qw(xi, r // 2, shift)
                assert abs(closed - quad) < 1e-9
                assert abs(closed - path) < 1e-9
    for coin in (flip_flop(build_coin("grover", 2)), build_coin("simple_rw", 1),
                 build_coin("simple_rw", 2)):
        for r in range(1, 9):
            assert abs(cr_limit(coin, r) - cr_limit_pathsum(coin, r)) < 1e-9
    _emit(capsys, 3, "series coefficients by three routes", time.perf_counter() - start, 5.0)


def test_criterion_04_momentum_factorization(capsys):
    start = time.perf_counter()
    cases_1d = [build_coin("hadamard", 1, math.pi / 4), build_coin("grover", 1),
                build_coin("simple_rw", 1)]
    cases_2d = [build_coin("grover", 2), build_coin("simple_rw", 2)]
    coins_by_d = {1: cases_1d + [flip_flop(c) for c in cases_1d],
                  2: cases_2d + [flip_flop(c) for c in cases_2d]}
    grid = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]
    for d, n in grid:
        for coin in coins_by_d[d]:
            for u in (0.3, -0.3, -0.7):
                fast = zeta_finite(coin, n, u)
                dense = zeta_finite_dense(coin, n, u)
                assert abs(fast - dense) < 1e-10 * abs(dense)
    _emit(capsys, 4, "factorized vs dense finite zeta", time.perf_counter() - start, 5.0)


def test_criterion_05_mahler_oracles(capsys, rng):
    start = time.perf_counter()
    spec = QuadratureSpec(512, 0.5, 1e-11, 3)
    for _ in range(20):
        degree = int(rng.integers(1, 7))
        radii = np.where(rng.random(degree) < 0.5,
                         rng.uniform(0.25, 0.8, degree),
                         rng.uniform(1.25, 3.0, degree))
        roots = radii * np.exp(2j * math.pi * rng.random(degree))
        coeffs = np.poly(roots) * (0.5 + rng.random())
        shift = int(rng.integers(-3, 1))
        poly = LaurentPolynomial(1, {(degree - i + shift,): c
                                     for i, c in enumerate(coeffs) if c != 0})
        assert abs(mahler_univariate(poly).value
                   - mahler_quadrature(poly, spec).value) < 1e-8
    for c in (-3.0, -1.0, -0.5, 0.5, 1.0, 3.0):
        poly = LaurentPolynomial(1, {(1,): 1, (-1,): -1, (0,): c})
        assert abs(mahler_quadrature(poly).value - mahler_closed_mtype(c)) < 1e-8
    for c in (-5.0, -3.0, -2.0, 2.0, 3.0, 5.0):
        poly = LaurentPolynomial(1, {(1,): 1, (-1,): 1, (0,): c})
        assert abs(mahler_quadrature(poly).value - mahler_closed_ftype(c)) < 1e-8
    for r in (0.0, 0.3, 0.6, 0.9):
        def fn(mesh, r=r):
            return np.log(1.0 - r * np.cos(mesh[0])), None

        mean, _ = grid_mean(fn, 1, 2048, 0.5)
        assert abs(mean.real - log_cos_identity(r)) < 1e-10
    _emit(capsys, 5, "jensen, closed-form and circle-average oracles",
          time.perf_counter() - start, 2.0)


def test_criterion_06_smyth_identities(capsys):
    consts = special_constants()
    start = time.perf_counter()
    poly2 = LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    res2 = mahler_quadrature(poly2, QuadratureSpec(2048, 0.5, 1e-6, 1))
    target2 = 3 * math.sqrt(3) / (4 * math.pi) * consts["L_chi3_2"]
    elapsed2 = time.perf_counter() - start
    assert abs(res2.value - target2) < 1e-4
    assert elapsed2 < 30.0

    start3 = time.perf_counter()
    poly3 = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
    res3 = mahler_quadrature(poly3, QuadratureSpec(128, 0.5, 1e-5, 1))
    target3 = 7 / (2 * math.pi ** 2) * consts["zeta3"]
    elapsed3 = time.perf_counter() - start3
    assert abs(res3.value - target3) < 1e-3
    _emit(capsys, 6, "smyth l-function and zeta(3) identities",
          elapsed2 + elapsed3, 90.0)
    assert elapsed3 < 60.0


def test_criterion_07_grover_theorem(capsys):
    start = time.perf_counter()
    for d in (1, 2, 3):
        tol = 1e-6 if d <= 2 else 1e-4
        for u in (-0.2, -0.5, -0.8):
            rep = verify_grover(d, u)
            assert rep.passed and rep.abs_diff < tol
            if d == 2:
                assert abs(rep.diagnostics["lhs_minus_hyper"]) < 1e-6
    _emit(capsys, 7, "grover walk zeta/mahler decomposition", time.perf_counter() - start, 90.0)


def test_criterion_08_rw_correspondences(capsys):
    start = time.perf_counter()
    for u in (-0.2, -0.5, -0.8):
        rep = verify_rw(1, u)
        closed = rep.diagnostics["closed_form"]
        series = rep.diagnostics["series_value"]
        assert rep.passed
        assert abs(rep.lhs - closed) < 1e-8
        assert abs(rep.lhs - series) < 1e-8
        assert abs(closed - series) < 1e-8
        rep2 = verify_rw(2, u)
        assert rep2.passed
        assert abs(rep2.diagnostics["lhs_minus_hyper"]) < 1e-7
    for n in range(1, 7):
        assert return_probability(1, 2 * n) == central_binomial_weight(n)
        assert return_probability(2, 2 * n) == central_binomial_weight(n) ** 2
    _emit(capsys, 8, "random-walk correspondences", time.perf_counter() - start, 10.0)


def test_criterion_09_spanning_trees(capsys):
    start = time.perf_counter()
    target = 4.0 * special_constants()["catalan_G"] / math.pi
    lam = spanning_tree_constant(2)
    assert abs(lam - target) < 1e-4
    spec = {1: QuadratureSpec(1024, 0.5, 1e-11, 1),
            2: QuadratureSpec(256, 0.5, 1e-11, 1),
            3: QuadratureSpec(64, 0.5, 1e-11, 1)}
    for d in (1, 2, 3):
        coin = build_coin("simple_rw", d)
        for u in (0.3, 0.6, 0.9):
            lhs = stgf(d, u, spec[d])
            rhs = math.log(2 * d) - math.log(u) + log_zeta(coin, u, spec[d])
            assert abs(lhs - rhs) < 1e-8
    _emit(capsys, 9, "spanning tree constant and stgf shift", time.perf_counter() - start, 30.0)


def test_criterion_10_transience(capsys):
    start = time.perf_counter()
    us = (0.9, 0.99, 0.999)
    assert transience_probe(1, us).verdict == "divergent"
    assert transience_probe(2, us).verdict == "divergent"
    probe3 = transience_probe(3, us)
    assert probe3.verdict == "bounded"
    series = green_series_estimate(3, 0.999)
    assert abs(probe3.green_values[-1] - series) < 2e-2
    _emit(capsys, 10, "recurrence/transience probe", time.perf_counter() - start, 60.0)


def test_criterion_11_conservation_suites(capsys, rng):
    start = time.perf_counter()
    for _ in range(100):
        coin = custom_coin(random_unitary(rng))
        state = evolve(delta_state(1, 16), coin, 50)
        assert abs(total_measure(state, 2) - 1.0) < 1e-12
        angles = rng.uniform(0, 2 * math.pi, size=1)
        m = momentum_matrix(coin, angles)
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12
    for coin, d in ((build_coin("grover", 2), 2), (build_coin("hadamard", 1, 0.8), 1)):
        state = evolve(delta_state(d, 8), coin, 50)
        assert abs(total_measure(state, 2) - 1.0) < 1e-12
    for d in (1, 2):
        coin = build_coin("simple_rw", d)
        state = evolve(uniform_state(d, 8), coin, 50)
        assert abs(total_measure(state, 1) - 1.0) < 1e-12
    _emit(capsys, 11, "conservation and unitarity properties", time.perf_counter() - start, 10.0)
