import itertools
import math
import time

import numpy as np
import pytest

from mahlerzeta import (
    DEFAULT_TOLERANCES,
    QuadratureSpec,
    build_coin,
    central_binomial_weight,
    closed_walk_count,
    default_suite_params,
    green_series_estimate,
    log_zeta,
    mahler_quadrature,
    qw_validity_interval,
    return_probability,
    run_suite,
    spanning_tree_constant,
    special_constants,
    stgf,
    transience_probe,
    verify_1d_qw,
    verify_grover,
    verify_rw,
)
from mahlerzeta.correspondence import (
    _REFERENCE_CONSTANTS,
    SUITE_CHECKS,
    SUITE_GROUPS,
    _grover_spec,
    _lattice_polynomial,
    _rw_spec,
)


# --------------------------------------------------------------------------
# reference constants

def test_reference_literals_are_correctly_rounded():
    # each literal of the constants checks is the double nearest its 30-digit value
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        third = mpmath.mpf(1) / 3
        exact = {"zeta3": mpmath.zeta(3), "catalan": mpmath.catalan,
                 "l_chi3": (mpmath.zeta(2, third) - mpmath.zeta(2, 2 * third)) / 9}
        assert set(exact) == set(_REFERENCE_CONSTANTS)
        for key, value in exact.items():
            assert _REFERENCE_CONSTANTS[key][1] == float(value), key


# --------------------------------------------------------------------------
# one-dimensional walk

def test_qw1d_mtype_hadamard():
    rep = verify_1d_qw(math.pi / 4, -0.1, "m")
    assert rep.passed and rep.abs_diff < 1e-10
    expected = math.log((0.99 + math.sqrt(1.0001)) / 2)
    assert abs(rep.lhs - expected) < 1e-10


def test_qw1d_ftype_hadamard_at_minus_one():
    rep = verify_1d_qw(math.pi / 4, -1.0, "f")
    assert rep.passed
    assert abs(rep.lhs - math.log((2 + math.sqrt(2)) / 2)) < 1e-10


def test_qw1d_three_way_agreement():
    rep = verify_1d_qw(math.pi / 3, -0.2, "m")
    assert rep.abs_diff < 1e-9
    assert abs(rep.diagnostics["lhs_minus_closed"]) < 1e-9
    assert abs(rep.diagnostics["rhs_minus_closed"]) < 1e-12


def test_qw1d_closed_form_equivalence_grid():
    # the direct closed form and the prefactor-plus-mahler split agree pointwise
    for xi in np.linspace(0.15, math.pi / 2 - 0.15, 10):
        lo, _ = qw_validity_interval(float(xi), "m")
        for frac in np.linspace(0.08, 0.92, 10):
            rep = verify_1d_qw(float(xi), float(lo * frac), "m",
                               quad=QuadratureSpec(128, 0.5, 1e-9, 1))
            assert abs(rep.diagnostics["rhs_minus_closed"]) < 1e-12


def test_qw1d_range_validation():
    with pytest.raises(ValueError, match="validity interval"):
        verify_1d_qw(math.pi / 4, 0.1, "m")
    with pytest.raises(ValueError, match="validity interval"):
        verify_1d_qw(math.pi / 4, -0.9, "m")  # below cos(xi) - sqrt(cos^2+1)
    with pytest.raises(ValueError, match="validity interval"):
        verify_1d_qw(math.pi / 4, 0.5, "f")
    with pytest.raises(ValueError, match="xi"):
        verify_1d_qw(2.0, -0.1, "m")


def test_qw1d_boundary_conditioning_warning():
    lo, _ = qw_validity_interval(math.pi / 4, "m")
    with pytest.warns(UserWarning, match="conditioning"):
        verify_1d_qw(math.pi / 4, lo + 1e-9, "m", quad=QuadratureSpec(64, 0.5, 1e-6, 1))


# --------------------------------------------------------------------------
# Grover walk

def test_grover_d1_degenerate_zero():
    rep = verify_grover(1, -0.5)
    assert rep.passed
    assert rep.diagnostics["degenerate"]
    assert abs(rep.lhs) < 1e-10 and abs(rep.rhs) < 1e-6


def test_grover_d2_three_routes():
    rep = verify_grover(2, -0.5)
    assert rep.passed and rep.abs_diff < 1e-6
    assert rep.diagnostics["c"] == 5.0
    assert abs(rep.diagnostics["lhs_minus_hyper"]) < 1e-6


def test_grover_small_u_vanishes():
    rep = verify_grover(2, -1e-4)
    assert abs(rep.lhs) < 1e-3 and abs(rep.rhs) < 1e-3


def test_grover_matches_det_route_log_zeta():
    # the scalar product form against the generic determinant integral
    from mahlerzeta import flip_flop

    for d, spec in ((1, QuadratureSpec(512, 0.5, 1e-10, 1)),
                    (2, QuadratureSpec(64, 0.5, 1e-10, 2))):
        coin = flip_flop(build_coin("grover", d))
        u = -0.4
        det_route = log_zeta(coin, u, spec)
        rep = verify_grover(d, u)
        assert abs(det_route - rep.lhs) < 1e-8


def test_grover_range_validation():
    with pytest.raises(ValueError, match="validity"):
        verify_grover(2, 0.5)
    with pytest.raises(ValueError, match="positive integer"):
        verify_grover(0, -0.5)


@pytest.mark.parametrize("verify, spec_of, d", [
    (verify_grover, _grover_spec, 2),
    (verify_grover, _grover_spec, 3),
    (verify_rw, _rw_spec, 2),
])
def test_mahler_term_is_jensen_reduced(verify, spec_of, d):
    # the rhs no longer runs the lhs integrand; full quadrature stays the oracle
    rep = verify(d, -0.8)
    assert rep.diagnostics["mahler_route"] == "jensen_reduced"
    oracle = mahler_quadrature(_lattice_polynomial(d, rep.diagnostics["c"]), spec_of(d))
    assert abs(rep.diagnostics["mahler_value"] - oracle.value) <= 1e-9


@pytest.mark.parametrize("verify, u, tol", [(verify_rw, -0.8, 1e-6), (verify_grover, -0.5, 1e-4)])
def test_d5_mahler_side_runs_on_the_folded_ladder(verify, u, tol):
    # the reduced ladder folds all four even axes of its 4-torus, so its
    # 64^4 rung evaluates 32^4 fiber rows: verify_rw(5, -0.8) used to exit
    # on the route's work budget (2.14e8 > 2e8 units)
    rep = verify(5, u)
    assert rep.passed and rep.tolerance == tol
    assert rep.abs_diff < 1e-14
    assert rep.diagnostics["mahler_route"] == "jensen_reduced"


# --------------------------------------------------------------------------
# random walk

def test_rw_d1_all_routes():
    u = -0.5
    rep = verify_rw(1, u)
    assert rep.passed and rep.abs_diff < 1e-8
    closed = math.log((1 + math.sqrt(1 - u * u)) / 2)
    assert abs(rep.diagnostics["lhs_minus_closed"]) < 1e-10
    assert abs(rep.lhs - closed) < 1e-10
    assert abs(rep.diagnostics["lhs_minus_series"]) <= rep.diagnostics["series_tail_bound"] + 1e-9


def test_rw_d2_hypergeometric():
    rep = verify_rw(2, -0.5)
    assert rep.passed and rep.abs_diff < 1e-7
    assert abs(rep.diagnostics["lhs_minus_hyper"]) < 1e-7


def test_rw_tiny_u_leading_order():
    rep = verify_rw(1, -1e-6)
    # leading term of the series: -B_2 u^2 / 2 = -u^2/4
    assert abs(rep.lhs + 1e-12 / 4) < 1e-13


def test_rw_matches_det_route_log_zeta():
    coin = build_coin("simple_rw", 2)
    u = -0.6
    det_route = log_zeta(coin, u, QuadratureSpec(64, 0.5, 1e-10, 2))
    rep = verify_rw(2, u)
    assert abs(det_route - rep.lhs) < 1e-9


def test_rw_series_only_for_d_up_to_2():
    # the return-weight series would meet on a light cone of 61^d sites; d >= 3 skips it
    start = time.perf_counter()
    rep = verify_rw(3, -0.5)
    assert time.perf_counter() - start < 2.0
    assert rep.passed
    assert not any(key.startswith(("series", "lhs_minus")) for key in rep.diagnostics)
    rep = verify_rw(4, -0.5)
    assert rep.passed and rep.tolerance == 1e-6


def test_rw_range_validation():
    with pytest.raises(ValueError, match="validity"):
        verify_rw(1, -1.5)


# --------------------------------------------------------------------------
# spanning trees

def test_stgf_small_u_dominated_by_log():
    u = 1e-3
    assert abs(stgf(1, u) - math.log(2.0 / u)) < 1e-5


def test_stgf_shift_identity():
    for d in (1, 2):
        coin = build_coin("simple_rw", d)
        spec = QuadratureSpec(256, 0.5, 1e-11, 1)
        for u in (0.3, 0.9):
            lhs = stgf(d, u, spec)
            rhs = math.log(2 * d) - math.log(u) + log_zeta(coin, u, spec)
            assert abs(lhs - rhs) < 1e-10


def test_stgf_domain():
    with pytest.raises(ValueError, match="u must"):
        stgf(2, 0.0)
    with pytest.raises(ValueError, match="u must"):
        stgf(2, 1.5)


def test_lambda_d1_is_zero():
    assert abs(spanning_tree_constant(1)) < 1e-3


def test_lambda_d2_catalan():
    target = 4.0 * special_constants()["catalan_G"] / math.pi
    assert abs(spanning_tree_constant(2) - target) < 1e-4
    assert abs(stgf(2, 1.0) - target) < 1e-4


def test_lambda_d3_consistent_with_stgf():
    spec = QuadratureSpec(64, 0.5, 1e-4, 1)
    assert spanning_tree_constant(3, spec) == stgf(3, 1.0, spec)


def test_lambda_domain():
    with pytest.raises(ValueError, match="positive integer"):
        spanning_tree_constant(0)


# --------------------------------------------------------------------------
# path counting

def test_closed_walk_counts_hand_values():
    assert closed_walk_count(1, 2) == 2
    assert closed_walk_count(1, 4) == 6
    assert closed_walk_count(2, 2) == 4
    assert closed_walk_count(3, 2) == 6
    assert closed_walk_count(1, 3) == 0


def _closed_walks_by_compositions(d, n):
    # sum over m_1 + ... + m_d = n/2 of n! / prod (m_j!)^2
    if n % 2:
        return 0
    m = n // 2
    return sum(math.factorial(n) // math.prod(math.factorial(k) ** 2 for k in split)
               for split in itertools.product(range(m + 1), repeat=d) if sum(split) == m)


def test_closed_walk_counts_match_the_composition_sum():
    for d in range(1, 6):
        for n in range(0, 31):
            assert closed_walk_count(d, n) == _closed_walks_by_compositions(d, n), (d, n)


def test_closed_walk_counts_cubic_lattice_oeis():
    # OEIS A002896: closed walks of length 2m on the cubic lattice
    assert [closed_walk_count(3, 2 * m) for m in range(5)] == [1, 6, 90, 1860, 44730]


def test_return_probability_binomial_bridge():
    for n in range(1, 7):
        assert return_probability(1, 2 * n) == central_binomial_weight(n)
        assert return_probability(2, 2 * n) == central_binomial_weight(n) ** 2


def test_green_series_d1_closed_form():
    for u in (0.3, 0.5, 0.7):
        assert abs(green_series_estimate(1, u) - 1 / math.sqrt(1 - u * u)) < 1e-5


# --------------------------------------------------------------------------
# transience

def test_probe_d1_divergent_with_exact_derivative():
    probe = transience_probe(1, (0.9, 0.99, 0.999))
    assert probe.verdict == "divergent" and not probe.bounded
    for u, got in zip(probe.u_values, probe.u_dlog):
        s = math.sqrt(1 - u * u)
        exact = -u * u / (s * (1 + s))
        assert abs(got - exact) < 1e-7


@pytest.mark.parametrize("d", [2, 3])
def test_probe_green_matches_bessel_integral(d):
    # sum_n P_n u^n = int_0^inf e^-t I_0(u t / d)^d dt (Montroll)
    mp = pytest.importorskip("mpmath")
    us = (0.9, 0.99, 0.999)
    probe = transience_probe(d, us)
    with mp.workdps(20):
        for u, got in zip(us, probe.green_values):
            exact = mp.quad(lambda t: mp.exp(-t) * mp.besseli(0, mp.mpf(u) * t / d) ** d,
                            [0, 1, 10, 100, 1000, 10000, 100000, mp.inf])
            assert abs(got - float(exact)) < 1e-9


def test_probe_d2_divergent():
    probe = transience_probe(2, (0.9, 0.99, 0.999))
    assert probe.verdict == "divergent"


def test_probe_d3_bounded():
    probe = transience_probe(3, (0.9, 0.99, 0.999))
    assert probe.verdict == "bounded" and probe.bounded
    assert probe.extrapolated_green is not None
    series = green_series_estimate(3, 0.999)
    assert abs(probe.green_values[-1] - series) < 2e-2


def test_probe_series_cross_check_small_u():
    probe = transience_probe(1, (0.2, 0.3, 0.4))
    for green, partial, bound in zip(probe.green_values, probe.series_partial,
                                     probe.series_truncation_bound):
        assert abs(green - partial) <= bound + 1e-6


def test_probe_refuses_grid_past_the_cap():
    # d = 3 at u = 0.9999 wants 1024 nodes per axis; a grid clamped to 256
    # misses G_3 by about 2e-5, so the probe refuses instead
    with pytest.raises(ValueError, match="too close to 1 for the probe grids"):
        transience_probe(3, (0.99, 0.999, 0.9999))
    # d = 1 and d = 2 still fit their caps there
    for d in (1, 2):
        assert len(transience_probe(d, (0.99, 0.999, 0.9999)).green_values) == 3


def test_probe_validation():
    with pytest.raises(ValueError, match="three"):
        transience_probe(1, (0.5, 0.9))
    with pytest.raises(ValueError, match="ascending"):
        transience_probe(1, (0.9, 0.5, 0.99))
    with pytest.raises(ValueError, match="too close to 1"):
        transience_probe(1, (0.9, 0.99, 0.99995))
    with pytest.raises(ValueError, match="lie in"):
        transience_probe(1, (-0.1, 0.5, 0.9))


# --------------------------------------------------------------------------
# suite plumbing

_QUICK_PARAMS = [
    ("qw1d", {"xi": math.pi / 4, "u": -0.2, "shift_type": "m"}),
    ("qw1d", {"xi": math.pi / 4, "u": -0.5, "shift_type": "f"}),
    ("rw_d1", {"d": 1, "u": -0.5}),
    ("catalan", {}),
]


def test_run_suite_quick_subset_passes():
    reports = run_suite(params=_QUICK_PARAMS)
    assert len(reports) == len(_QUICK_PARAMS)
    assert all(rep.passed for rep in reports)
    names = [rep.identity_name for rep in reports]
    assert names == sorted(names)
    for rep in reports:
        assert rep.passed == (rep.abs_diff <= rep.tolerance)


def test_run_suite_zero_tolerance_fails():
    tols = {key: 0.0 for key in DEFAULT_TOLERANCES}
    reports = run_suite(tolerances=tols, params=_QUICK_PARAMS)
    assert all(rep.tolerance == 0.0 for rep in reports)
    # the Catalan constant is correctly rounded, so only its gap is 0; every
    # walk identity keeps a rounding gap and fails
    exact = [rep.identity_name == "constants: catalan constant" for rep in reports]
    assert exact.count(True) == 1
    assert [rep.abs_diff == 0.0 for rep in reports] == exact
    assert [rep.passed for rep in reports] == exact


def test_run_suite_empty_params():
    assert run_suite(params=[]) == []


def test_run_suite_unknown_tolerance_key():
    with pytest.raises(ValueError, match="unknown tolerance"):
        run_suite(tolerances={"bogus": 1.0}, params=[])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
def test_run_suite_rejects_tolerance_not_finite_or_negative(tol):
    with pytest.raises(ValueError, match="finite and >= 0"):
        run_suite(tolerances={"qw1d": tol}, params=[])


def test_suite_registry_groups_partition_the_grid():
    full = default_suite_params()
    assert set(SUITE_CHECKS) == set(DEFAULT_TOLERANCES)
    assert {kind for kind, _ in full} == set(DEFAULT_TOLERANCES)
    by_group = {group: default_suite_params(group) for group in SUITE_GROUPS}
    for kind in DEFAULT_TOLERANCES:
        owners = [g for g, params in by_group.items() if any(k == kind for k, _ in params)]
        assert owners == [SUITE_CHECKS[kind][0]]
    merged = [item for params in by_group.values() for item in params]
    assert sorted(map(repr, merged)) == sorted(map(repr, full))


def test_suite_run_order():
    # perfbench's seeded shuffle starts from this order
    counts = []
    for kind, _ in default_suite_params():
        if counts and counts[-1][0] == kind:
            counts[-1][1] += 1
        else:
            counts.append([kind, 1])
    assert counts == [
        ["qw1d", 30],
        ["grover_d1", 3], ["grover_d2", 3], ["grover_d3", 3],
        ["rw_d1", 3], ["rw_d2", 3],
        ["trees_lambda2", 1], ["stgf_shift", 9], ["transience", 3],
        ["smyth_2var", 1], ["smyth_3var", 1],
        ["catalan", 1], ["zeta3", 1], ["l_chi3", 1],
    ]
    assert len(default_suite_params()) == 63


def test_suite_params_are_fresh_copies():
    first = default_suite_params("rw")
    first[0][1]["u"] = 99.0
    assert default_suite_params("rw")[0][1]["u"] == -0.2


@pytest.mark.parametrize("kind", [
    kind for kind, row in SUITE_CHECKS.items()
    if row.verifier in (verify_1d_qw, verify_grover, verify_rw)
])
def test_verifier_default_tolerance_is_the_suite_tolerance(kind):
    args = SUITE_CHECKS[kind].grid[0]
    rep = SUITE_CHECKS[kind].verifier(tol=None, **args)
    assert rep.tolerance == DEFAULT_TOLERANCES[kind]


def test_suite_unknown_group_and_check():
    with pytest.raises(ValueError, match="unknown suite group 'bogus'"):
        default_suite_params("bogus")
    with pytest.raises(ValueError, match="unknown suite check 'bogus'"):
        run_suite(params=[("bogus", {})])
