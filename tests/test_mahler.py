import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mahlerzeta import (
    ComputationError,
    LaurentPolynomial,
    QuadratureSpec,
    hyper_pfq,
    log_cos_identity,
    mahler_closed_ftype,
    mahler_closed_mtype,
    mahler_walk_1d,
    mahler_quadrature,
    mahler_reduced,
    mahler_square_lattice,
    mahler_univariate,
    parse_laurent,
    special_constants,
    zeta_mahler,
)
from mahlerzeta import mahler as mahler_module
from mahlerzeta.quadrature import grid_mean


# --------------------------------------------------------------------------
# quadrature route

def test_monomial_measure_zero():
    res = mahler_quadrature(parse_laurent("X1"))
    assert abs(res.value) < 1e-14
    assert not res.singular_on_torus


def test_shifted_circle_log2():
    res = mahler_quadrature(parse_laurent("X1 + 2"))
    assert abs(res.value - math.log(2)) < 1e-12
    assert res.error_estimate < 1e-10


def test_quadrature_inside_root_gives_zero():
    res = mahler_quadrature(parse_laurent("X1 + 0.5"))
    assert abs(res.value) < 1e-12


def test_monomial_invariance():
    base = {(2,): 1.0, (0,): 3.0, (-1,): -0.5}
    plain = mahler_quadrature(LaurentPolynomial(1, base))
    for shift in (-5, 3):
        shifted = LaurentPolynomial(1, {(e + shift,): c for (e,), c in base.items()})
        res = mahler_quadrature(shifted)
        assert abs(res.value - plain.value) <= 2 * max(res.error_estimate, 1e-12)


def test_inversion_invariance():
    base = {(1, 0): 1.0, (0, 1): 1.0, (0, 0): 3.0, (2, -1): 0.25}
    spec = QuadratureSpec(64, 0.5, 1e-9, 3)
    plain = mahler_quadrature(LaurentPolynomial(2, base), spec)
    inverted = LaurentPolynomial(2, {(-a, -b): c for (a, b), c in base.items()})
    res = mahler_quadrature(inverted, spec)
    assert abs(res.value - plain.value) <= 2 * max(res.error_estimate, 1e-12)


def test_singular_torus_flag_and_extrapolated_value():
    # double root on the circle: the measure is exactly zero
    for sign in ("+ 2", "- 2"):
        res = mahler_quadrature(parse_laurent(f"X1 + X1^-1 {sign}"))
        assert res.singular_on_torus
        assert abs(res.value) < 1e-10


@pytest.mark.parametrize("text,measure", [
    ("X1^2 + 4*X1 + 3", math.log(3)),                           # (1 + X1)(X1 + 3)
    ("11*X1*X2 - 4*X1 + 11*X2 - 4", math.log(11)),              # (1 + X1)(11 X2 - 4)
    ("2 + X1 + 2.5*X2 + X1*X2 + 0.5*X2^2", math.log(2)),        # (1 + X2)(2 + X1 + X2 / 2)
    ("4 + X1 + X2 + 4*X3 + X1*X3 + X2*X3", math.log(4)),        # (1 + X3)(4 + X1 + X2)
])
def test_vanishing_product_extrapolated_and_flagged(text, measure):
    # log|1 + X_j| is off by exactly log(2) / M on the midpoint grid, so the
    # gaps halve and the ratio-2 extrapolant reaches the smooth factor's m(q)
    res = mahler_quadrature(parse_laurent(text))
    assert abs(res.value - measure) < 1e-13
    assert res.singular_on_torus


@pytest.mark.parametrize("text", ["X1 - 1", "X1^2 - 1", "X1^3 + 2*X1^2 + 2*X1 + 1"])
def test_cyclotomic_zeros_between_nodes_give_zero(text):
    # zeros at 0, pi and 2 pi / 3: the first two lie midway between the nodes
    # of every even grid, the third contributes no error on power-of-two grids
    res = mahler_quadrature(parse_laurent(text))
    assert abs(res.value) < 1e-14
    assert res.singular_on_torus


@pytest.mark.parametrize("poly,spec", [
    (parse_laurent("2 + 3*X1 + 4*X2"), None),
    # Rogers k = 1 on a shorter ladder: its default one ends on a 4096^2 grid
    (parse_laurent("X1 + X1^-1 + X2 + X2^-1 + 1"), QuadratureSpec(256, 0.5, 1e-8, 2)),
    (parse_laurent("X1 + 1.0001"), None),
    (LaurentPolynomial(1, {(1,): 1.0, (0,): -np.exp(1j)}), None),
])
def test_irregular_ratios_keep_the_plain_ladder(poly, spec):
    # zero curves, a zero near the circle and a zero at a generic angle: the
    # gaps never halve at the end of the ladder, so the result is the plain
    # ladder's, bit for bit
    d = poly.n_vars
    spec = spec or mahler_module._default_spec(d)
    plain, _, low = mahler_module._midpoint_ladder(
        mahler_module._log_abs_block(poly), d, spec, max_block=mahler_module._LOG_ABS_BLOCK)
    res = mahler_quadrature(poly, spec)
    assert res.value.hex() == plain.value.real.hex()
    assert res.error_estimate.hex() == plain.delta.hex()
    assert res.singular_on_torus is (low < 1e-6)


def test_halving_needs_the_ratio_within_a_percent():
    assert mahler_module._halving([1.0, 1.5]) is None
    assert mahler_module._halving([1.0, 1.5, 1.75]) == 2.0
    # gap ratios 2.01, 1.99 and 2.03
    assert mahler_module._halving([0.0, 1.005, 1.505]) == 2.0
    assert mahler_module._halving([0.0, 0.995, 1.495]) == 2.0
    assert mahler_module._halving([0.0, 1.015, 1.515]) is None
    # geometric convergence shrinks the gaps far faster
    assert mahler_module._halving([1.0, 1.1, 1.101]) is None


@pytest.mark.parametrize("text", ["X1 - X2", "X1 + X2", "X1^2 - X2^2"])
def test_zero_set_on_grid_nodes_raises(text):
    # the midpoint diagonal, or its mirror, lies on the zero set: log|f| is
    # -inf at those nodes, which no grid mean can carry
    with pytest.raises(ComputationError, match="not finite at a node"):
        mahler_quadrature(parse_laurent(text))


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not call the other route's evaluator")


@pytest.mark.parametrize("text", ["X1 + X2 + 1", "X1 + X2 + X3 + 1", "X1*X2^-2 + 3*X1^-1 + 2"])
def test_quadrature_and_reduced_share_no_evaluator(text, monkeypatch):
    # each route stays an independent oracle for the other
    poly, spec = parse_laurent(text), QuadratureSpec(32, 0.5, 1e-6, 1)
    quadrature, reduced = mahler_quadrature(poly, spec), mahler_reduced(poly, spec)
    monkeypatch.setattr(mahler_module, "mesh_evaluator", _refuse)
    assert mahler_quadrature(poly, spec) == quadrature
    monkeypatch.undo()
    monkeypatch.setattr(mahler_module, "eval_on_nodes", _refuse)
    assert mahler_reduced(poly, spec) == reduced


def test_quadrature_memory_stays_bounded():
    # 1024^2 and 2048^2 nodes in blocks of 2^14: the peak is a few blocks'
    # arrays, and a block array that outlives its block shows up here
    poly, spec = parse_laurent("X1 + X2 + 3"), QuadratureSpec(2048, 0.5, 1e-300, 0)
    tracemalloc.start()
    try:
        mahler_quadrature(poly, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# --------------------------------------------------------------------------
# Jensen route

def test_jensen_quadratic():
    res = mahler_univariate(parse_laurent("X1^2 + 3*X1 - 1"))
    assert abs(res.value - math.log((3 + math.sqrt(13)) / 2)) < 1e-14
    assert res.method == "jensen"


def test_jensen_degree_zero():
    res = mahler_univariate(parse_laurent("3"))
    assert abs(res.value - math.log(3)) < 1e-15


@pytest.mark.parametrize("text,singular", [("1", False), ("0.0000001", True)])
def test_constant_singular_flag_agrees_across_routes(text, singular):
    # a constant c vanishes nowhere on the torus unless |c| is below the
    # singularity threshold; |c - 1| has nothing to do with it
    poly = parse_laurent(text)
    jensen = mahler_univariate(poly)
    quad = mahler_quadrature(poly)
    assert jensen.singular_on_torus is singular
    assert quad.singular_on_torus is singular


def test_jensen_balanced_difference():
    with pytest.warns(UserWarning, match="unit circle"):
        res = mahler_univariate(parse_laurent("X1 - X1^-1"))
    assert abs(res.value) < 1e-12


def test_jensen_needs_one_variable():
    with pytest.raises(ValueError, match="one variable"):
        mahler_univariate(parse_laurent("X1 + X2"))


def test_jensen_near_circle_warning():
    with pytest.warns(UserWarning, match="unit circle"):
        mahler_univariate(parse_laurent("X1 - 1.0005"))


def test_jensen_vs_quadrature_random(rng):
    spec = QuadratureSpec(512, 0.5, 1e-11, 3)
    for _ in range(10):
        degree = int(rng.integers(1, 5))
        radii = np.where(rng.random(degree) < 0.5,
                         rng.uniform(0.2, 0.8, degree),
                         rng.uniform(1.25, 3.0, degree))
        roots = radii * np.exp(2j * math.pi * rng.random(degree))
        coeffs = np.poly(roots) * (0.5 + rng.random())
        shift = int(rng.integers(-3, 1))
        poly = LaurentPolynomial(1, {(degree - i + shift,): c
                                     for i, c in enumerate(coeffs) if c != 0})
        jensen = mahler_univariate(poly)
        quad = mahler_quadrature(poly, spec)
        assert abs(jensen.value - quad.value) < 1e-8


def test_jensen_solves_the_roots_once(monkeypatch):
    # every |coefficient| is below the root gap 0.13: the gap still comes
    # from the one root solve, with no rescaled second one
    calls = []
    solve = mahler_module._fiber_measures
    monkeypatch.setattr(mahler_module, "_fiber_measures", lambda a: calls.append(a) or solve(a))
    res = mahler_univariate(parse_laurent("0.0001*X1^5 + 0.0002"))
    assert len(calls) == 1
    assert res.value == pytest.approx(math.log(2e-4), abs=1e-15)
    assert not res.singular_on_torus


@pytest.mark.parametrize("row,gap", [([-2e-4, 1e-4], 0.5), ([0.0, 1e-4], 1.0)])
def test_fiber_root_gap_is_apart_from_the_coefficient_size(row, gap):
    # the root 2 of the first row is solved as 1/2, a root of the reversed
    # row; the second row's root is 0.  Neither gap is capped at the largest
    # |coefficient| (2e-4 and 1e-4), which the reduced route adds on its own
    _, stat, _ = mahler_module._fiber_measures(np.array([row], dtype=complex))
    assert stat[0] == gap


# --------------------------------------------------------------------------
# Jensen-reduced route

def test_reduced_degree_one():
    # X2 (a tie on span 1, so the higher index) is integrated out
    res = mahler_reduced(parse_laurent("X1 + 2*X2 + 5"))
    assert res.method == "jensen_reduced"
    assert abs(res.value - math.log(5)) < 1e-14
    assert not res.singular_on_torus
    smyth = mahler_reduced(parse_laurent("X1 + X2 + X3 + 1"))
    assert abs(smyth.value - 7 * special_constants()["zeta3"] / (2 * math.pi ** 2)) < 1e-8
    assert smyth.singular_on_torus


def test_reduced_degree_two_against_hypergeometric():
    res = mahler_reduced(parse_laurent("X1 + X1^-1 + X2 + X2^-1 + 5"))
    assert abs(res.value - mahler_square_lattice(5.0)) < 1e-13


def test_reduced_degree_three_eigenvalue_path():
    # m(X1^3 + X2^3 + 3) = m(X1 + X2 + 3) = log 3
    res = mahler_reduced(parse_laurent("X1^3 + X2^3 + 3"))
    assert abs(res.value - math.log(3)) < 1e-14


def test_reduced_drops_variables_that_do_not_occur():
    poly = LaurentPolynomial(2, {(0, 1): 1.0, (0, 0): 3.0})
    assert poly.n_vars == 2
    assert abs(mahler_reduced(poly).value - math.log(3)) < 1e-15
    res = mahler_reduced(parse_laurent("X1 + X3 + 3"))
    assert res.method == "jensen_reduced"
    assert abs(res.value - math.log(3)) < 1e-14


def test_reduced_leading_coefficient_zero_at_a_node():
    # node_shift 0 puts theta_1 = 0 on the grid, where 1 - X1^2 is exactly 0;
    # |(1 - X1^2) X2^2 + X2| <= 3 < 4 on the torus, so m = log 4
    spec = QuadratureSpec(16, 0.0, 1e-12, 2)
    res = mahler_reduced(parse_laurent("X2^2 - X1^2*X2^2 + X2 + 4"), spec)
    assert abs(res.value - math.log(4)) < 1e-14
    # both end coefficients vanish there: the fiber drops to X2^2 + 6 X2
    poly = parse_laurent("X2^3 + 1 - X1^3*X2^3 - X1^3 + X2^2 + 6*X2")
    res = mahler_reduced(poly, spec)
    quad = mahler_quadrature(poly, QuadratureSpec(64, 0.5, 1e-12, 2))
    assert math.isfinite(res.value)
    assert abs(res.value - quad.value) < 1e-10


def test_subnormal_leading_coefficient_is_dropped():
    # the companion quotient 1 / 2.2e-311 overflows; m(tiny X2 + 1) = m(1) = 0
    tiny = 2.225073858507e-311
    assert mahler_reduced(LaurentPolynomial(2, {(0, 1): tiny, (0, 0): 1.0})).value == 0.0
    # a cubic fiber in X2 with both end coefficients subnormal: X2^2 + 0.3 X2
    poly = LaurentPolynomial(2, {(0, 3): tiny, (0, 2): 1.0, (0, 1): 0.3, (3, 0): tiny})
    assert mahler_reduced(poly, QuadratureSpec(8, 0.5, 1e-12, 1)).value == pytest.approx(
        0.0, abs=1e-15)


@pytest.mark.parametrize("poly,singular,warns,value", [
    (parse_laurent("X1^2 + 3*X1 - 1"), False, False, None),
    (parse_laurent("3"), False, False, math.log(3.0)),
    (parse_laurent("0.0000001"), True, False, math.log(1e-7)),
    (parse_laurent("X1 - X1^-1"), True, True, 0.0),
    (parse_laurent("X1^5 - 2*X1^3 + 0.5*X1 + 3"), False, False, None),
    # the lead is 2.2e-311 of the constant term, a root beyond 1e300
    (LaurentPolynomial(1, {(1,): 2.2e-311, (0,): 1.0}), False, False, 0.0),
    # every |coefficient| is below the root gap 3.3e-5
    (LaurentPolynomial(1, {(3,): 1e-5, (0,): -1.0001e-5}), False, True, math.log(1.0001e-5)),
], ids=["quadratic", "constant", "tiny_constant", "balanced", "companion", "subnormal_lead",
        "small_near_circle"])
def test_reduced_one_variable_delegates_to_jensen(poly, singular, warns, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jensen = mahler_univariate(poly)
        reduced = mahler_reduced(poly)
    assert reduced == jensen
    assert jensen.singular_on_torus is singular
    assert len([w for w in caught if "unit circle" in str(w.message)]) == (2 if warns else 0)
    if value is not None:
        assert jensen.value == pytest.approx(value, abs=1e-15)


def test_jensen_degree_budget():
    with pytest.raises(ComputationError, match="degree 513 exceeds"):
        mahler_univariate(parse_laurent("X1^513 + 2"))
    with pytest.raises(ComputationError, match="degree 2000 exceeds"):
        mahler_reduced(LaurentPolynomial(2, {(0, 2000): 1.0, (0, 0): 2.0}))


def test_jensen_failed_eigenvalue_solve_is_a_computation_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(ComputationError, match="root finding failed"):
        mahler_univariate(parse_laurent("X1^5 - 2*X1^3 + 0.5*X1 + 3"))


def test_reduced_degree_budget():
    with pytest.raises(ComputationError, match="span above 32"):
        mahler_reduced(parse_laurent("X1^40 + X2^40 + 3"))


@pytest.mark.parametrize("k", [100, 255])
def test_reduced_resolves_toric_points_below_the_alias_bound(k):
    # X1 -> X1^k leaves the measure as it is; the 512-node sample resolves
    # the 2k toric points while k < 256
    res = mahler_reduced(parse_laurent(f"X1^{k} + X2 + 1"))
    assert res.method == "jensen_reduced"
    assert res.value == pytest.approx(mahler_reduced(parse_laurent("X1 + X2 + 1")).value,
                                      abs=1e-13)


@pytest.mark.parametrize("k", [256, 512, 600])
def test_reduced_refuses_an_aliased_sample(k, monkeypatch):
    def evaluated(*args):
        raise AssertionError("a fiber was evaluated")

    monkeypatch.setattr(mahler_module, "_fiber_measures", evaluated)
    with pytest.raises(ComputationError, match=f"512 nodes aliases fiber coefficients of degree {k}"):
        mahler_reduced(parse_laurent(f"X1^{k} + X2 + 1"))


def test_reduced_work_budget_counts_grids_before_they_start(monkeypatch):
    # X1 + X2 + X3 + 1 eliminates X3: 3 monomials of X1, X2 and closed-form
    # fibers of degree 1 make 5 units a node.  The 32^2, 64^2 and 128^2
    # grids fit; the 256^2 one is refused before it starts.
    monkeypatch.setattr(mahler_module, "_MAX_REDUCED_WORK", 5 * (32 ** 2 + 64 ** 2 + 128 ** 2))
    poly, spec = parse_laurent("X1 + X2 + X3 + 1"), QuadratureSpec(64, 0.5, 1e-300, 3)
    with pytest.raises(ComputationError, match=r"\(4\.35e\+05 > 1e\+05 units at 5 per row\)"):
        mahler_reduced(poly, spec)
    monkeypatch.undo()
    assert mahler_reduced(poly, spec).method == "jensen_reduced"


def test_reduced_arc_blocks_leave_the_value_as_it_is(monkeypatch):
    # blocks of 7 nodes straddle the arcs; math.fsum makes the sum exact
    poly = parse_laurent("X1 + X2 + 1")
    whole = mahler_reduced(poly)
    monkeypatch.setattr(mahler_module, "_ARC_BLOCK", 7)
    assert mahler_reduced(poly) == whole


@pytest.mark.parametrize("text", ["X1 + X2 + 1", "2 - X1 - X2", "1 + X1 + 0.999999*X2",
                                  "X1*X2^2 + 3*X2 - 1 + X1^-1*X2^-1"])
def test_reduced_sample_blocks_leave_the_value_as_it_is(monkeypatch, text):
    # blocks of 5 sample nodes put the cyclic halos, the extra samples round
    # each touch (2 - X1 - X2 touches the circle at 0, across the wrap) and
    # the count changes on block edges
    poly = parse_laurent(text)
    for shift in (0.5, 0.0):
        spec = QuadratureSpec(64, shift, 1e-12, 1)
        whole = mahler_reduced(poly, spec)
        with monkeypatch.context() as patch:
            patch.setattr(mahler_module, "_SAMPLE_BLOCK", 5)
            assert mahler_reduced(poly, spec) == whole


@pytest.mark.parametrize("block", [5, 1 << 16])
def test_breakpoints_of_counts_between_nodes_and_extra_samples(monkeypatch, block):
    # a made-up integrand on 64 nodes: a touch of the circle at t0, just
    # past node 10; a count bump between node 10 and the extra sample at
    # t0 - cell/16, which only that sample sees; a count change between
    # nodes 39 and 40, on a block edge at block 5 and with no gap minimum
    # near it; and the change back across the wrap at 0
    monkeypatch.setattr(mahler_module, "_SAMPLE_BLOCK", block)
    cell = 2.0 * math.pi / 64
    t0 = 10.6 * cell

    def fibers(theta):
        x = np.mod(theta, 2.0 * math.pi)
        bump = (x > t0 - 0.09 * cell) & (x < t0 - 0.05 * cell)
        return np.zeros(x.size), np.abs(np.sin(0.5 * (x - t0))), bump + (x > 40 * cell)

    breaks = mahler_module._breakpoints(fibers, QuadratureSpec(64), lambda n: None, 1)
    expected = [0.0, t0 - 0.09 * cell, t0 - 0.05 * cell, t0, 40 * cell]
    assert breaks == pytest.approx(expected, abs=1e-14)


# a touch's offset in its slot and its bumps: a side and an odd j, so that
# the extra sample at cell / 2^(j+1) sits between two bumps on one side
_SLOT_TOUCH = st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                       st.sets(st.tuples(st.sampled_from([-1, 1]),
                                         st.integers(0, 9).map(lambda i: 2 * i + 1)),
                               max_size=4))


@settings(max_examples=60, deadline=None)
@given(shift=st.sampled_from([0.0, 0.25, 0.5, 0.9]), block=st.sampled_from([5, 1 << 16]),
       touches=st.dictionaries(st.integers(0, 11), _SLOT_TOUCH, max_size=3),
       edges=st.dictionaries(st.integers(1, 12), st.floats(0.05, 0.95), max_size=4))
def test_breakpoints_of_made_up_fibers(shift, block, touches, edges):
    # a made-up integrand on 64 nodes, cut into slots of 5 (the blocks of
    # _SAMPLE_BLOCK = 5).  Slot s may hold a touch of the circle between its
    # nodes 2 and 3, with count bumps round the extra samples at cell / 2^j
    # on either side of it (a quarter of that offset wide, so each holds one
    # extra sample), and a count step between nodes 5s - 1 and 5s, on a
    # block edge.  The steps add up, so the count falls back across the wrap.
    cell = 2.0 * math.pi / 64
    points, bumps = [], []
    for s, (f, rings) in touches.items():
        t = (5 * s + 2 + f + shift) * cell
        points.append(t)
        for side, j in rings:
            centre, half = t + side * cell * 0.5 ** j, 0.25 * cell * 0.5 ** j
            bumps.append((centre - half, centre + half))
    steps = [(5 * s - 1 + shift + f) * cell for s, f in edges.items()]

    def fibers(theta):
        x = np.mod(theta, 2.0 * math.pi)
        gap = np.ones(x.size)
        for t in points:
            gap = np.fmin(gap, np.abs(np.sin(0.5 * (x - t))))
        count = np.zeros(x.size, dtype=int)
        for e in steps:
            count += x >= e
        for lo, hi in bumps:
            count += (x > lo) & (x < hi)
        return np.zeros(x.size), gap, count

    expected = sorted(points + [e for bump in bumps for e in bump] + steps
                      + ([0.0] if steps else []))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mahler_module, "_SAMPLE_BLOCK", block)
        breaks = mahler_module._breakpoints(fibers, QuadratureSpec(64, shift), lambda n: None, 1)
    assert breaks == pytest.approx(expected, abs=1e-14)


def test_breakpoint_sample_holds_a_block_at_a_time():
    # the fibers of X1 + X2 + 1 in X2 are (1 + x) + y: 2^20 samples, which
    # held about 128 B a node when the whole sample was kept
    def fibers(theta):
        ones = np.ones(theta.size, dtype=complex)
        return mahler_module._fiber_measures(np.stack([1.0 + np.exp(1j * theta), ones], axis=1))

    tracemalloc.start()
    try:
        breaks = mahler_module._breakpoints(fibers, QuadratureSpec(1 << 20), lambda n: None, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert breaks == pytest.approx([2 * math.pi / 3, 4 * math.pi / 3], abs=1e-15)
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("text, points", [("X1^4 + X2^4 + X3^4 + X1*X2*X3 + 1", 128),
                                          ("X1^4 + X2^4 + X1*X2 + 5", 8192)])
def test_reduced_fiber_rows_per_call_stay_within_a_block(monkeypatch, text, points):
    # X3 (or X2) is eliminated with span 4: at most 2^16 // 4^2 = 4096 rows
    # per fiber evaluation, on a 128^2 midpoint grid or an 8192-node circle
    seen = []
    measures = mahler_module._fiber_measures

    def recording(a):
        seen.append(a.shape[0])
        return measures(a)

    monkeypatch.setattr(mahler_module, "_fiber_measures", recording)
    mahler_reduced(parse_laurent(text), QuadratureSpec(points, tol=1e-3, max_refinements=0))
    assert max(seen) == (1 << 16) // 4 ** 2
    assert sum(seen) > max(seen)


def test_reduced_route_eliminates_least_span_highest_index():
    # X1 and X3 both span 1; X3, the higher index, is eliminated
    assert mahler_module._eliminated(parse_laurent("X1*X2^2 + X2^-1*X3 + X1 + 3")) == (2, [0, 1], 1)
    assert mahler_module._eliminated(parse_laurent("X2^5 + 2")) == (1, [], 5)
    assert mahler_module._eliminated(parse_laurent("3")) == (0, [], 0)


def _maillot(a: float, b: float, c: float) -> float:
    """Cassaigne-Maillot: m(a + bX + cY) in closed form, in 30-digit mpmath.

    If |a|, |b|, |c| are the sides of a triangle with opposite angles alpha,
    beta, gamma, pi m = D(|b/c| e^(i alpha)) + alpha log|a| + beta log|b| +
    gamma log|c|, with D the Bloch-Wigner dilogarithm; otherwise m is the log
    of the largest of them.
    """
    mpmath = pytest.importorskip("mpmath")
    a, b, c = abs(a), abs(b), abs(c)
    if 2 * max(a, b, c) >= a + b + c:
        return math.log(max(a, b, c))
    with mpmath.workdps(30):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        alpha = mpmath.acos((b * b + c * c - a * a) / (2 * b * c))
        beta = mpmath.acos((a * a + c * c - b * b) / (2 * a * c))
        gamma = mpmath.pi - alpha - beta
        z = b / c * mpmath.expj(alpha)
        bloch_wigner = mpmath.im(mpmath.polylog(2, z)) + mpmath.arg(1 - z) * mpmath.log(abs(z))
        total = bloch_wigner + alpha * mpmath.log(a) + beta * mpmath.log(b) + gamma * mpmath.log(c)
        return float(total / mpmath.pi)


def test_maillot_oracle_gives_smyth():
    smyth = 3 * math.sqrt(3) / (4 * math.pi) * special_constants()["L_chi3_2"]
    assert abs(_maillot(1.0, 1.0, 1.0) - smyth) < 1e-15


_SIDE = st.tuples(st.floats(0.05, 3.0), st.sampled_from([-1.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(a=_SIDE, b=_SIDE, c=_SIDE)
@example(a=(1.0, 1.0), b=(1.0, 1.0), c=(1.0, 1.0))    # a triangle: Smyth's value
@example(a=(0.5, 1.0), b=(2.0, -1.0), c=(1.0, 1.0))   # not one
@example(a=(1.0, 1.0), b=(1.0, -1.0), c=(2.0, 1.0))   # degenerate: one toric point
def test_reduced_matches_maillot(a, b, c):
    # m(a + b X1 + c X2) by tanh-sinh between the toric points, against the
    # closed form; the polynomial vanishes on the torus exactly when |a|, |b|,
    # |c| form a (possibly degenerate) triangle
    a, b, c = (size * sign for size, sign in (a, b, c))
    res = mahler_reduced(LaurentPolynomial(2, {(0, 0): a, (1, 0): b, (0, 1): c}))
    assert abs(res.value - _maillot(a, b, c)) < 1e-13
    excess = 2 * max(abs(a), abs(b), abs(c)) / (abs(a) + abs(b) + abs(c)) - 1
    if abs(excess) > 1e-3:
        assert res.singular_on_torus == (excess < 0)


def test_reduced_flags_double_root_on_the_circle():
    # at theta_1 = 0 the X1-fiber is (X1 + 1)^2: a double root touching the
    # circle without crossing it, so the count of roots inside never changes
    res = mahler_reduced(parse_laurent("X1*X2^2 + 3*X2 - 1 + X1^-1*X2^-1"))
    assert res.singular_on_torus
    assert abs(res.value - math.log(3)) < 1e-12


def test_reduced_flags_vanishing_fiber():
    # (1 + X1)(X2 - 3): the whole X2-fiber vanishes at theta_1 = pi
    res = mahler_reduced(parse_laurent("X2 - 3 + X1*X2 - 3*X1"))
    assert res.singular_on_torus
    assert abs(res.value - math.log(3)) < 1e-12


_TERM = st.tuples(st.tuples(*[st.integers(-2, 2)] * 3),
                  st.floats(-1.0, 1.0, allow_nan=False))


@settings(max_examples=30, deadline=None)
@given(n_vars=st.sampled_from([2, 3]), terms=st.lists(_TERM, min_size=1, max_size=5))
def test_reduced_matches_quadrature(n_vars, terms):
    # a dominant constant term keeps f off zero on the torus, so both routes
    # converge geometrically
    table = {}
    for exps, coeff in terms:
        table[exps[:n_vars]] = coeff
    table[(0,) * n_vars] = 1.0 + 4.0 * sum(abs(c) for c in table.values())
    poly = LaurentPolynomial(n_vars, table)
    spec = QuadratureSpec(32 if poly.n_vars == 3 else 64, 0.5, 1e-12, 1)
    assert abs(mahler_reduced(poly, spec).value - mahler_quadrature(poly, spec).value) < 1e-10


# --------------------------------------------------------------------------
# closed forms

def test_closed_mtype_values():
    assert mahler_closed_mtype(0.0) == math.log((0 + 2) / 2)
    assert abs(mahler_closed_mtype(3.0) - math.log((3 + math.sqrt(13)) / 2)) < 1e-15
    assert mahler_closed_mtype(-3.0) == mahler_closed_mtype(3.0)


def test_closed_ftype_values():
    assert mahler_closed_ftype(2.0) == 0.0
    assert abs(mahler_closed_ftype(3.0) - math.log((3 + math.sqrt(5)) / 2)) < 1e-15
    with pytest.raises(ValueError, match=">= 2"):
        mahler_closed_ftype(1.0)


def test_closed_forms_vs_quadrature():
    for c in (-3.0, -1.0, -0.5, 0.5, 1.0, 3.0):
        quad = mahler_quadrature(LaurentPolynomial(1, {(1,): 1, (-1,): -1, (0,): c}))
        assert abs(quad.value - mahler_closed_mtype(c)) < 1e-8
    for c in (-5.0, -3.0, -2.0, 2.0, 3.0, 5.0):
        quad = mahler_quadrature(LaurentPolynomial(1, {(1,): 1, (-1,): 1, (0,): c}))
        assert abs(quad.value - mahler_closed_ftype(c)) < 1e-8


def test_walk_1d_measure_consistency_grid():
    for xi in np.linspace(0.1, math.pi / 2 - 0.1, 10):
        for u in np.linspace(-0.95, -0.05, 10):
            m_val = mahler_walk_1d(float(xi), float(u), "m")
            assert abs(m_val - mahler_closed_mtype((u - 1 / u) / math.cos(xi))) < 1e-12
            f_val = mahler_walk_1d(float(xi), float(u), "f")
            assert abs(f_val - mahler_closed_ftype(-(u + 1 / u) / math.sin(xi))) < 1e-12


def test_walk_1d_measure_range_checks():
    with pytest.raises(ValueError, match="m-type"):
        mahler_walk_1d(math.pi / 4, 0.5, "m")
    with pytest.raises(ValueError, match="m-type"):
        mahler_walk_1d(math.pi / 4, -1.5, "m")
    with pytest.raises(ValueError, match="f-type"):
        mahler_walk_1d(math.pi / 4, 0.1, "f")
    with pytest.raises(ValueError, match="xi"):
        mahler_walk_1d(0.0, -0.5, "m")


def test_rv_against_quadrature():
    spec = QuadratureSpec(256, 0.5, 1e-9, 2)
    quad = mahler_quadrature(parse_laurent("X1 + X1^-1 + X2 + X2^-1 + 5"), spec)
    assert abs(mahler_square_lattice(5.0) - quad.value) < 1e-6


def test_rv_large_c_limit():
    c = 1e6
    assert abs(mahler_square_lattice(c) - math.log(c)) < 3e-12


def test_rv_domain():
    with pytest.raises(ValueError, match="c > 4"):
        mahler_square_lattice(4.0)


# --------------------------------------------------------------------------
# hypergeometric series

def test_pfq_at_zero():
    assert hyper_pfq([1.5, 2.5], [3.0], 0.0) == 1.0


def test_pfq_terminates_immediately():
    assert hyper_pfq([0.0, 0.0], [2.0], -5.0) == 1.0


def test_pfq_terminating_matches_binomial_sum():
    # 2F1(1-l, 1-l; 2; y) = sum_m C(l-1, m-1)^2 y^(m-1) / m
    for l in (2, 3, 5):
        for y in (-0.7, 0.4, 2.0):
            direct = sum(math.comb(l - 1, m - 1) ** 2 * y ** (m - 1) / m
                         for m in range(1, l + 1))
            assert abs(hyper_pfq([1 - l, 1 - l], [2], y) - direct) < 1e-13 * max(1, abs(direct))


def test_pfq_4f3_matches_binomial_series():
    # (u^2/8) 4F3(3/2,3/2,1,1; 2,2,2; u^2) = sum_n (C(2n,n)/4^n)^2 u^(2n) / (2n)
    u = 0.8
    lhs = (u * u / 8.0) * hyper_pfq([1.5, 1.5, 1.0, 1.0], [2.0, 2.0, 2.0], u * u)
    rhs, n = 0.0, 1
    while True:
        term = (math.comb(2 * n, n) / 4 ** n) ** 2 * u ** (2 * n) / (2 * n)
        rhs += term
        if term < 1e-18:
            break
        n += 1
    assert abs(lhs - rhs) < 1e-13


def test_pfq_divergence_detected():
    with pytest.raises(ValueError, match="diverges"):
        hyper_pfq([1.5, 1.5], [2.0], 1.0)
    with pytest.raises(ValueError, match="diverges"):
        hyper_pfq([1.0, 1.0, 1.0], [2.0], 0.5)


def test_pfq_pole_before_termination():
    with pytest.raises(ValueError, match="lower parameter"):
        hyper_pfq([0.5, 0.5], [-1.0], 0.5)
    # termination before the pole is fine
    assert math.isfinite(hyper_pfq([-2.0, 1.0], [-5.0], 2.0))


# --------------------------------------------------------------------------
# constants and remaining routes

def test_special_constants_reference_digits():
    consts = special_constants()
    assert abs(consts["catalan_G"] - 0.915965594177219015) < 1e-14
    assert abs(consts["zeta3"] - 1.202056903159594285) < 1e-14
    assert abs(consts["L_chi3_2"] - 0.781302412896486297) < 1e-14
    assert abs(consts["catalan_G"] - 0.91596) < 1e-5


def test_special_constants_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    consts = special_constants()
    with mpmath.workdps(30):
        third = mpmath.mpf(1) / 3
        exact = {"zeta3": mpmath.zeta(3), "catalan_G": mpmath.catalan,
                 "L_chi3_2": (mpmath.zeta(2, third) - mpmath.zeta(2, 2 * third)) / 9}
        for name, value in exact.items():
            assert abs(mpmath.mpf(consts[name]) - value) < 2e-16, name


def test_zeta_mahler_at_zero_power():
    assert zeta_mahler(parse_laurent("X1 + X2 + 1"), 0.0, QuadratureSpec(16)) == 1.0


def test_zeta_mahler_zero_on_nodes_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError, match="not finite at a node"):
            zeta_mahler(parse_laurent("X1 - X2"), -1.0)


def test_zeta_mahler_square_modulus():
    assert abs(zeta_mahler(parse_laurent("X1 + 2"), 2.0) - 5.0) < 1e-10


def test_zeta_mahler_derivative_is_mahler():
    poly = parse_laurent("X1 + 2")
    h = 1e-4
    deriv = (zeta_mahler(poly, h) - zeta_mahler(poly, -h)) / (2 * h)
    assert abs(deriv - math.log(2)) < 1e-6


def test_log_cos_identity_values():
    assert log_cos_identity(0.0) == 0.0
    assert abs(log_cos_identity(1.0) - math.log(0.5)) < 1e-15
    assert abs(log_cos_identity(0.6) - math.log(0.9)) < 1e-15
    with pytest.raises(ValueError, match="<= 1"):
        log_cos_identity(1.5)


def test_log_cos_identity_vs_quadrature():
    for r in (0.0, 0.3, 0.6, 0.9):
        def fn(mesh, r=r):
            return np.log(1.0 - r * np.cos(mesh[0])), None

        mean, _ = grid_mean(fn, 1, 2048, 0.5)
        assert abs(mean.real - log_cos_identity(r)) < 1e-10


def test_log_sin_and_cos_agree():
    # sine and cosine versions of the same circle average coincide
    r = 0.7

    def fn_sin(mesh):
        return np.log(1.0 - r * np.sin(mesh[0])), None

    def fn_cos(mesh):
        return np.log(1.0 - r * np.cos(mesh[0])), None

    sin_mean, _ = grid_mean(fn_sin, 1, 2048, 0.5)
    cos_mean, _ = grid_mean(fn_cos, 1, 2048, 0.5)
    assert abs(sin_mean.real - cos_mean.real) < 1e-12
