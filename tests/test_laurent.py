import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mahlerzeta import (
    LaurentPolynomial,
    LaurentSyntaxError,
    eval_laurent,
    format_laurent,
    parse_laurent,
)
from mahlerzeta.laurent import _exponent_matrix, eval_on_nodes, mesh_evaluator


# --------------------------------------------------------------------------
# parsing

def test_parse_three_variable_sum():
    poly = parse_laurent("X1 + X2 + 1")
    assert poly.n_vars == 2
    assert poly.terms == {(1, 0): 1, (0, 1): 1, (0, 0): 1}


def test_parse_negative_exponent():
    poly = parse_laurent("X1 - X1^-1 + 3")
    assert poly.terms == {(1,): 1, (-1,): -1, (0,): 3}


def test_parse_merges_like_terms():
    poly = parse_laurent("X1 + X1 + 2*X1")
    assert poly.terms == {(1,): 4}


def test_parse_rational_and_decimal_coefficients():
    poly = parse_laurent("3/4*X1 + 0.25*X2^-2")
    assert poly.terms == {(1, 0): 0.75, (0, -2): 0.25}


def test_parse_exponent_accumulates_within_term():
    poly = parse_laurent("X1*X1^2*X2^-1")
    assert poly.terms == {(3, -1): 1}


def test_parse_whitespace_insensitive():
    assert parse_laurent("X1+X2+1") == parse_laurent("  X1 +  X2+ 1 ")


def test_parse_leading_minus():
    assert parse_laurent("-X1 + 2").terms == {(1,): -1, (0,): 2}


def test_parse_zero_polynomial_rejected():
    with pytest.raises(ValueError, match="zero polynomial"):
        parse_laurent("X1 - X1")


def test_parse_variable_index_zero():
    with pytest.raises(LaurentSyntaxError, match="variable index 0") as err:
        parse_laurent("X0 + 1")
    assert err.value.offset == 1


def test_parse_exponent_overflow():
    with pytest.raises(LaurentSyntaxError, match="exponent magnitude"):
        parse_laurent("X1^1000001")


def test_parse_requires_star():
    with pytest.raises(LaurentSyntaxError) as err:
        parse_laurent("2X1")
    assert err.value.offset == 1
    assert "'+'" in err.value.expected


def test_parse_reports_offset_and_expectations():
    with pytest.raises(LaurentSyntaxError) as err:
        parse_laurent("X1 + ")
    assert err.value.offset == 5
    assert "number" in err.value.expected and "'X'" in err.value.expected


def test_parse_bad_character():
    with pytest.raises(LaurentSyntaxError, match="unexpected character"):
        parse_laurent("X1 + y")


def test_parse_zero_denominator():
    with pytest.raises(LaurentSyntaxError, match="denominator"):
        parse_laurent("1/0*X1")


def test_parse_malformed_decimal():
    with pytest.raises(LaurentSyntaxError, match="decimal"):
        parse_laurent("1.")


# --------------------------------------------------------------------------
# formatting

def test_format_canonical_examples():
    assert format_laurent(LaurentPolynomial(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})) == "X1 + X2 + 1"
    assert format_laurent(LaurentPolynomial(1, {(-1,): -1, (1,): 1, (0,): 3})) == "X1 - X1^-1 + 3"
    assert format_laurent(LaurentPolynomial(1, {(2,): 1, (1,): 3, (0,): -1})) == "X1^2 + 3*X1 - 1"


def test_repr_of_a_complex_polynomial_rebuilds_it():
    poly = LaurentPolynomial(1, {(1,): 2j, (0,): 1})
    assert eval(repr(poly), {"LaurentPolynomial": LaurentPolynomial}) == poly
    two_var = LaurentPolynomial(2, {(1, -2): 0.5 - 1e-300j, (0, 1): -3})
    assert eval(repr(two_var), {"LaurentPolynomial": LaurentPolynomial}) == two_var
    assert repr(LaurentPolynomial(1, {(1,): 1, (0,): 2})) == "LaurentPolynomial('X1 + 2')"


def test_format_complex_coefficient_rejected():
    poly = LaurentPolynomial(1, {(1,): 1j})
    with pytest.raises(ValueError, match="complex"):
        format_laurent(poly)


def test_constructor_validation():
    with pytest.raises(ValueError, match="zero polynomial"):
        LaurentPolynomial(1, {(1,): 0.0})
    with pytest.raises(ValueError, match="length"):
        LaurentPolynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError, match="n_vars"):
        LaurentPolynomial(0, {(): 1.0})


@st.composite
def laurent_polynomials(draw):
    n_vars = draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, 6))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(-20, 20)) for _ in range(n_vars))
        num = draw(st.integers(-40, 40).filter(lambda v: v != 0))
        den = draw(st.integers(1, 12))
        terms[exps] = num / den
    return LaurentPolynomial(n_vars, terms)


@given(laurent_polynomials())
@settings(max_examples=200, deadline=None)
def test_format_parse_round_trip(poly):
    assert parse_laurent(format_laurent(poly)) == poly


# --------------------------------------------------------------------------
# evaluation

def test_eval_examples():
    cosine = parse_laurent("X1 + X1^-1")
    assert abs(eval_laurent(cosine, [0.0]) - 2.0) < 1e-15
    assert abs(eval_laurent(cosine, [math.pi / 2])) < 1e-15
    smyth = parse_laurent("X1 + X2 + 1")
    assert abs(eval_laurent(smyth, [2 * math.pi / 3, 4 * math.pi / 3])) < 1e-15


def test_eval_length_mismatch():
    with pytest.raises(ValueError, match="angles"):
        eval_laurent(parse_laurent("X1 + X2"), [0.1])


def test_eval_additivity(rng):
    for _ in range(25):
        terms_p = {(int(e),): complex(c) for e, c in
                   zip(rng.integers(-10, 10, 3), rng.normal(size=3))}
        terms_q = {(int(e),): complex(c) for e, c in
                   zip(rng.integers(-10, 10, 3), rng.normal(size=3))}
        merged = dict(terms_p)
        for key, value in terms_q.items():
            merged[key] = merged.get(key, 0j) + value
        merged = {k: v for k, v in merged.items() if v != 0}
        if not merged:
            continue
        p = LaurentPolynomial(1, terms_p)
        q = LaurentPolynomial(1, terms_q)
        s = LaurentPolynomial(1, merged)
        theta = rng.uniform(0, 2 * math.pi, size=1)
        lhs = eval_laurent(s, theta)
        rhs = eval_laurent(p, theta) + eval_laurent(q, theta)
        assert abs(lhs - rhs) < 1e-13


def test_eval_monomial_homomorphism(rng):
    # multiplying by a monomial multiplies values on the torus
    base = {(2,): 1.5, (-1,): -0.5, (0,): 2.0}
    shift = 4
    shifted = {(e + shift,): c for (e,), c in base.items()}
    p = LaurentPolynomial(1, base)
    q = LaurentPolynomial(1, shifted)
    mono = LaurentPolynomial(1, {(shift,): 1.0})
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi, size=1)
        assert abs(eval_laurent(q, theta)
                   - eval_laurent(p, theta) * eval_laurent(mono, theta)) < 1e-13


def test_unit_torus_modulus():
    for a in (-7, -1, 0, 3, 20):
        mono = LaurentPolynomial(1, {(a,): 1.0})
        for theta in np.linspace(0.0, 6.2, 10):
            assert abs(abs(eval_laurent(mono, [theta])) - 1.0) < 1e-14


# --------------------------------------------------------------------------
# per-axis evaluation on open meshes

@st.composite
def mesh_cases(draw):
    d = draw(st.integers(1, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=7,
                         unique=True))
    trailing = draw(st.sampled_from([(), (2,)]))
    sizes = draw(st.tuples(*[st.integers(0, 4)] * d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (len(exps),) + trailing
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mesh = tuple(rng.uniform(0.0, 2 * math.pi, size=n).reshape([n if k == j else 1
                                                                  for k in range(d)])
                 for j, n in enumerate(sizes))
    return np.array(exps), coeffs, mesh


@given(mesh_cases())
@settings(max_examples=100, deadline=None)
def test_mesh_evaluator_matches_eval_laurent(case):
    # unsorted rows, exponents that are 0 on a whole axis, mesh axes of no
    # node or one node and a trailing coefficient axis all occur in the draws
    exps, coeffs, mesh = case
    d = exps.shape[1]
    got = mesh_evaluator(exps, coeffs)(mesh)
    shape = tuple(a.size for a in mesh)
    assert got.shape == shape + coeffs.shape[1:]
    nodes = np.stack(np.broadcast_arrays(*mesh), axis=-1).reshape(-1, d)
    flat_c = coeffs.reshape(len(exps), -1)
    got = got.reshape(len(nodes), flat_c.shape[1])
    for k in range(flat_c.shape[1]):
        poly = LaurentPolynomial(d, dict(zip(map(tuple, exps), flat_c[:, k])))
        expected = [eval_laurent(poly, node[:poly.n_vars]) for node in nodes]
        scale = np.abs(flat_c[:, k]).sum()
        assert np.all(np.abs(got[:, k] - expected) <= 1e-13 * scale)


def test_mesh_evaluator_on_an_empty_mesh():
    evaluate = mesh_evaluator([[0], [1]], [[1, 2], [3, 4]])
    assert evaluate((np.zeros(0),)).shape == (0, 2)


# --------------------------------------------------------------------------
# evaluation on (n, d) rows of unit-torus points

@st.composite
def torus_point_cases(draw):
    d = draw(st.integers(1, 4))
    zero_axes = draw(st.sets(st.integers(0, d - 1), max_size=d))
    exponent = st.integers(-64, 64)
    rows = draw(st.lists(st.tuples(*[st.just(0) if j in zero_axes else exponent
                                     for j in range(d)]),
                         min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        rows = [(0,) * d]  # a constant-only polynomial
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    theta = rng.uniform(0.0, 2 * math.pi, size=(draw(st.integers(0, 5)), d))
    return LaurentPolynomial(d, dict(zip(rows, coeffs))), theta


def _check_eval_on_nodes(poly, theta):
    theta = theta[:, :poly.n_vars]
    got = eval_on_nodes(poly, np.exp(1j * theta))
    assert got.shape == (len(theta),)
    expected = np.array([eval_laurent(poly, node) for node in theta], dtype=complex)
    scale = sum(abs(c) for c in poly.terms.values())
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


@given(torus_point_cases())
@settings(max_examples=150, deadline=None)
def test_eval_on_nodes_matches_eval_laurent(case):
    # axes on which every exponent is 0 (so trailing ones are dropped from
    # n_vars), constant-only polynomials and complex coefficients all occur
    _check_eval_on_nodes(*case)


def _eval_from_zeros(poly, nodes):
    """The evaluation ``eval_on_nodes`` must match bit for bit: a sum from
    zeros of per-term products in ``_exponent_matrix`` order, each column's
    powers by repeated squaring and conjugation."""
    exps, coeffs = _exponent_matrix(poly)
    powers = []
    for j in range(exps.shape[1]):
        needed = set(exps[:, j].tolist())
        squares, table = [np.ascontiguousarray(nodes[:, j])], {}
        for k in sorted({abs(e) for e in needed} - {0}):
            while k >> len(squares):
                squares.append(squares[-1] * squares[-1])
            acc = None
            for b in range(k.bit_length()):
                if k >> b & 1:
                    acc = squares[b] if acc is None else acc * squares[b]
            table[k] = acc
        for k in needed:
            if k < 0:
                table[k] = np.conj(table[-k])
        powers.append(table)
    out = np.zeros(nodes.shape[0], dtype=np.complex128)
    term = np.empty_like(out)
    for row, coeff in zip(exps.tolist(), coeffs):
        factors = [powers[j][e] for j, e in enumerate(row) if e]
        if not factors:
            out += coeff
            continue
        np.multiply(factors[0], coeff, out=term)
        for factor in factors[1:]:
            term *= factor
        out += term
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_COEFFS = st.one_of(st.sampled_from([1.0, -1.0, 1j, 2.5 - 0.5j, -3.0]),
                    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                       allow_infinity=False))


@st.composite
def small_exponent_cases(draw):
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=6,
                         unique=True))
    if draw(st.booleans()):
        rows = [(0,) * d]  # a constant-only polynomial
    coeffs = draw(st.lists(_COEFFS.filter(lambda c: c != 0), min_size=len(rows),
                           max_size=len(rows)))
    terms = dict(zip(rows, coeffs))
    n_vars = LaurentPolynomial(d, terms).n_vars
    # grid angles (the shift-0 grid has sin 0 = 0 exactly) or random ones
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        points, shift = draw(st.sampled_from([4, 8, 12])), draw(st.sampled_from([0.0, 0.5]))
        theta = (np.arange(n * n_vars) % points + shift) * (2 * math.pi / points)
    else:
        theta = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(
            0.0, 2 * math.pi, size=n * n_vars)
    return d, terms, theta.reshape(n, n_vars)


_GRID8 = ((np.arange(8) + 0.5) * (math.pi / 4)).reshape(8, 1)


@given(small_exponent_cases())
@settings(max_examples=200, deadline=None)
# one term whose products underflow to -0.0 at some nodes
@example((1, {(1,): 5e-324}, _GRID8))
@example((1, {(-1,): complex(5e-324, -5e-324)}, _GRID8))
def test_eval_on_nodes_is_the_sum_from_zeros_bit_for_bit(case):
    d, terms, theta = case
    poly = LaurentPolynomial(d, terms)
    rows = np.exp(1j * theta)  # strided columns
    columns = np.ascontiguousarray(rows.T).T  # contiguous ones, as the Mahler oracle passes
    half = columns[:len(columns) // 2]
    expected = _eval_from_zeros(poly, rows)
    assert _same_bits(eval_on_nodes(poly, rows), expected)
    assert _same_bits(eval_on_nodes(poly, columns), expected)
    assert _same_bits(eval_on_nodes(poly, half), _eval_from_zeros(poly, half))


def test_eval_on_nodes_plan_follows_the_polynomial(rng):
    # equal but distinct polynomials share a plan; one that differs only in
    # a coefficient, or in its exponents, must not get a stale one
    texts = ["3*X1^2*X2^-1 - X2^3 + 2", "3*X1^2*X2^-1 - X2^3 + 5",
             "3*X1^2*X2^-1 - 2*X2^3 + 2", "3*X1^-2*X2 - X2^3 + 2", "X1 + X2^-4"]
    nodes = np.exp(1j * rng.uniform(0.0, 2 * math.pi, size=(33, 2)))
    for _ in range(3):
        for text in texts:
            poly = parse_laurent(text)  # a new object each time
            assert _same_bits(eval_on_nodes(poly, nodes), _eval_from_zeros(poly, nodes))


@pytest.mark.parametrize("shape", [(5, 3), (5, 1), (5,), (1, 5, 2)])
def test_eval_on_nodes_refuses_nodes_of_another_shape(shape):
    poly = parse_laurent("X1 + X2 + 3")
    with pytest.raises(ValueError, match=r"nodes must have shape \(n, 2\)"):
        eval_on_nodes(poly, np.ones(shape, dtype=complex))


def test_eval_on_nodes_at_exponent_one_thousand(rng):
    poly = LaurentPolynomial(2, {(1000, 0): 1.0, (-1000, 3): -2.5 + 0.5j,
                                 (7, -999): 0.25j, (0, 0): 1.5})
    _check_eval_on_nodes(poly, rng.uniform(0.0, 2 * math.pi, size=(16, 2)))
