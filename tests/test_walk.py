import functools
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mahlerzeta import (
    ComputationError,
    MomentumPoint,
    build_coin,
    custom_coin,
    delta_state,
    evolve,
    flip_flop,
    matrix_weight_origin,
    matrix_weight_traces,
    momentum_matrix,
    return_probability,
    total_measure,
    uniform_state,
)
from conftest import REAL_COIN_KINDS, phase_conjugate, random_unitary, real_coin
from mahlerzeta.walk import WalkState, _step


# --------------------------------------------------------------------------
# momentum matrices

def test_momentum_matrix_hadamard_m():
    xi, k = 0.6, 1.3
    coin = build_coin("hadamard", 1, xi)
    got = momentum_matrix(coin, MomentumPoint((k,)))
    e_plus, e_minus = np.exp(1j * k), np.exp(-1j * k)
    expected = np.array([
        [e_plus * math.cos(xi), e_plus * math.sin(xi)],
        [e_minus * math.sin(xi), -e_minus * math.cos(xi)],
    ])
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_momentum_matrix_zero_is_coin():
    for coin in (build_coin("grover", 2), build_coin("simple_rw", 3)):
        got = momentum_matrix(coin, MomentumPoint((0.0,) * coin.dim_d))
        np.testing.assert_allclose(got, coin.entries, atol=0)


def test_momentum_matrix_hadamard_f_quarter_turn():
    # direct phase multiplication: row 1 times e^{i pi/2} = i, row 2 times -i
    coin = flip_flop(build_coin("hadamard", 1, math.pi / 4))
    got = momentum_matrix(coin, MomentumPoint((math.pi / 2,)))
    s = 1 / math.sqrt(2)
    expected = np.array([[1j * s, -1j * s], [-1j * s, -1j * s]])
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_momentum_matrix_dimension_mismatch():
    with pytest.raises(ValueError, match="components"):
        momentum_matrix(build_coin("grover", 2), MomentumPoint((0.1,)))


def test_momentum_point_validation():
    with pytest.raises(ValueError, match="outside"):
        MomentumPoint((7.0,))
    point = MomentumPoint.from_indices(4, (5, -1))
    assert point.angles == (2 * math.pi / 4, 2 * math.pi * 3 / 4)


def test_momentum_matrix_unitary_for_unitary_coins(rng):
    coins = [build_coin("grover", 2), build_coin("hadamard", 1, 0.9),
             custom_coin(random_unitary(rng))]
    for coin in coins:
        for _ in range(20):
            angles = rng.uniform(0, 2 * math.pi, size=coin.dim_d)
            m = momentum_matrix(coin, angles)
            np.testing.assert_allclose(m @ m.conj().T, np.eye(coin.size), atol=1e-12)


# --------------------------------------------------------------------------
# evolution

def test_evolve_one_step_hand_check():
    # origin delta with first component: after one step the first component
    # rides to x = -1 (mod 4) with weight cos xi, the second to x = +1 with
    # weight sin xi
    coin = build_coin("hadamard", 1, math.pi / 4)
    state = evolve(delta_state(1, 4), coin, 1)
    s = 1 / math.sqrt(2)
    expected = np.zeros((4, 2), dtype=complex)
    expected[3, 0] = s
    expected[1, 1] = s
    np.testing.assert_allclose(state.field, expected, atol=1e-16)
    assert state.time == 1


def test_evolve_zero_steps_identity():
    state = delta_state(2, 3)
    out = evolve(state, build_coin("grover", 2), 0)
    np.testing.assert_allclose(out.field, state.field, atol=0)
    assert out.time == 0


def test_evolve_uniform_rw_stationary():
    coin = build_coin("simple_rw", 2)
    state = uniform_state(2, 5)
    out = evolve(state, coin, 7)
    np.testing.assert_allclose(out.field, state.field, atol=1e-16)


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        evolve(delta_state(1, 4), build_coin("grover", 2), 1)


def test_unitary_conservation():
    coin = build_coin("grover", 2)
    state = delta_state(2, 8)
    out = evolve(state, coin, 5)
    assert abs(total_measure(out, 2) - 1.0) < 1e-12


def test_unitary_conservation_long_runs():
    out1 = evolve(delta_state(1, 32), build_coin("hadamard", 1, 0.9), 100)
    assert abs(total_measure(out1, 2) - 1.0) < 1e-12
    out2 = evolve(delta_state(2, 32), flip_flop(build_coin("grover", 2)), 100)
    assert abs(total_measure(out2, 2) - 1.0) < 1e-12


def test_crw_conservation_p1():
    coin = custom_coin([[0.9, 0.2], [0.1, 0.8]])
    state = evolve(delta_state(1, 6, (0.25, 0.75)), coin, 13)
    assert abs(total_measure(state, 1) - 1.0) < 1e-12


def test_total_measure_validation():
    with pytest.raises(ValueError, match="p must be"):
        total_measure(delta_state(1, 2), 0.5)


def test_evolve_work_budget():
    # steps * max(N^d, 1024) * (2d)^2 may reach 2^28 and no further; the
    # refusal comes before the first step
    coin = build_coin("simple_rw", 1)
    state = delta_state(1, 2)
    assert evolve(state, coin, 0).time == 0
    with pytest.raises(ComputationError, match="evolve budget"):
        evolve(state, coin, 65537)
    with pytest.raises(ComputationError, match="evolve budget"):
        evolve(delta_state(2, 8), flip_flop(build_coin("grover", 2)), 100_000_000)


def test_state_memory_budget():
    # one step on the 4096^2 torus holds three fields of 4096^2 * 4 entries,
    # 3 GiB; each route refuses it before allocating
    with pytest.raises(ComputationError, match="3072 MiB"):
        delta_state(2, 4096)
    with pytest.raises(ComputationError, match="3072 MiB"):
        uniform_state(2, 4096)
    big = types.SimpleNamespace(dim_d=2, side_N=4096, field=None, time=0)
    with pytest.raises(ComputationError, match="3072 MiB"):
        evolve(big, build_coin("simple_rw", 2), 1)
    with pytest.raises(ComputationError, match="768 MiB"):
        delta_state(2, 2048)


@pytest.mark.parametrize("make", [delta_state, uniform_state])
@pytest.mark.parametrize("dim_d,side_N", [(1, 0), (2, -2), (0, 4), (-1, 3)])
def test_state_refuses_non_positive_sizes(make, dim_d, side_N):
    with pytest.raises(ValueError, match="must be positive"):
        make(dim_d, side_N)


def test_evolution_matches_fourier_route():
    # advance Fourier modes with the momentum matrix and transform back
    coin = flip_flop(build_coin("hadamard", 1, 1.1))
    n, steps = 8, 6
    rng = np.random.default_rng(7)
    field = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    state = delta_state(1, n)
    state = type(state)(1, n, field, 0)

    direct = evolve(state, coin, steps).field

    modes = np.fft.fft(field, axis=0) / math.sqrt(n)
    for k in range(n):
        m = momentum_matrix(coin, MomentumPoint.from_indices(n, (k,)))
        modes[k] = np.linalg.matrix_power(m, steps) @ modes[k]
    back = np.fft.ifft(modes * math.sqrt(n), axis=0)
    np.testing.assert_allclose(direct, back, atol=1e-10)


def _rolled_step(field, entries, d):
    """The step by definition, on a site-major field: mix, then roll
    component 2j in from x + e_j and component 2j+1 in from x - e_j."""
    mixed = np.einsum("...k,ck->...c", field, entries)
    out = np.empty_like(mixed)
    for j in range(d):
        out[..., 2 * j] = np.roll(mixed[..., 2 * j], -1, axis=j)
        out[..., 2 * j + 1] = np.roll(mixed[..., 2 * j + 1], 1, axis=j)
    return out


@pytest.mark.parametrize("d,N", [(1, 1), (1, 7), (2, 2), (2, 5), (3, 1), (3, 4)])
def test_step_is_coin_mix_then_periodic_roll(d, N):
    # _step takes the component axis first; the result keeps the dtype
    rng = np.random.default_rng(31 + 10 * d + N)
    shape = (N,) * d + (2 * d,)
    field = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    entries = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
    for f, e in ((field, entries), (field.real, entries.real)):
        got = _step(np.ascontiguousarray(np.moveaxis(f, -1, 0)), e, d)
        assert got.dtype == f.dtype
        np.testing.assert_allclose(np.moveaxis(got, 0, -1), _rolled_step(f, e, d),
                                   rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(REAL_COIN_KINDS), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), xi=st.floats(0.05, 1.5),
       shift=st.sampled_from(["m", "f"]), initial=st.sampled_from(["origin", "uniform"]),
       N=st.integers(1, 6), steps=st.integers(0, 8))
def test_real_walk_matches_its_complex_conjugate(kind, d, seed, xi, shift, initial, N, steps):
    # D C D^-1 with D a diagonal of seeded phases has complex entries, so it
    # runs in complex arithmetic; from the state D psi_0 it gives D psi_t.
    # The complex coin from the real psi_0 and the real coin from the
    # complex D^-1 psi_0 agree the same way
    if kind == "hadamard":
        d = 1
    coin = real_coin(kind, d, seed, xi)
    if shift == "f":
        coin = flip_flop(coin)
    phases = np.exp(1j * np.random.default_rng(seed + 1).uniform(0, 2 * math.pi, 2 * d))
    state = delta_state(d, N) if initial == "origin" else uniform_state(d, N)
    real_run = evolve(state, coin, steps)
    twisted = WalkState(d, N, state.field * phases, state.time)
    complex_run = evolve(twisted, phase_conjugate(coin, phases), steps)
    assert real_run.field.dtype == np.complex128 and not real_run.field.imag.any()
    np.testing.assert_allclose(complex_run.field, real_run.field * phases, rtol=0, atol=1e-13)
    for p in (1, 2):
        assert abs(total_measure(complex_run, p) - total_measure(real_run, p)) <= 1e-13
    complex_coin_run = evolve(state, phase_conjugate(coin, phases), steps)
    complex_state_run = evolve(WalkState(d, N, state.field / phases, state.time), coin, steps)
    np.testing.assert_allclose(complex_coin_run.field, complex_state_run.field * phases,
                               rtol=0, atol=1e-13)


# --------------------------------------------------------------------------
# matrix weights

def brute_force_weight(coin, r):
    """Sum the projected coin products over every length-r path returning to 0."""
    d = coin.dim_d
    a = coin.entries
    blocks = []
    for comp in range(2 * d):
        p = np.zeros((2 * d, 2 * d))
        p[comp, comp] = 1.0
        blocks.append((p @ a, comp))
    total = np.zeros((2 * d, 2 * d), dtype=complex)
    for choice in itertools.product(range(2 * d), repeat=r):
        shift = np.zeros(d, dtype=int)
        mat = np.eye(2 * d, dtype=complex)
        for comp in choice:
            mat = blocks[comp][0] @ mat
            axis, sign = divmod(comp, 2)
            shift[axis] += -1 if sign == 0 else 1
        if not shift.any():
            total += mat
    return total


def test_weight_r0_identity():
    w = matrix_weight_origin(build_coin("grover", 2), 0)
    np.testing.assert_allclose(w.matrix, np.eye(4), atol=0)


def test_weight_odd_step_trace_zero():
    w = matrix_weight_origin(build_coin("hadamard", 1, math.pi / 4), 1)
    assert abs(np.trace(w.matrix)) < 1e-15


def test_weight_r2_hadamard_closed_value():
    xi = math.pi / 4
    w = matrix_weight_origin(build_coin("hadamard", 1, xi), 2)
    assert abs(np.trace(w.matrix) - 2 * math.sin(xi) ** 2) < 1e-14


def _test_coin(kind, d, xi):
    """A named coin, or a seeded random unitary or column-stochastic custom one."""
    if kind == "random_unitary":
        return custom_coin(random_unitary(np.random.default_rng(100 + d), 2 * d))
    if kind == "random_stochastic":
        m = np.random.default_rng(200 + d).random((2 * d, 2 * d))
        return custom_coin(m / m.sum(axis=0))
    return build_coin(kind, d, xi)


@pytest.mark.parametrize("kind,d,xi,r", [
    ("hadamard", 1, 0.8, 2),
    ("hadamard", 1, 0.8, 4),
    ("simple_rw", 1, None, 3),
    ("grover", 2, None, 2),
    ("grover", 2, None, 3),
] + [(kind, d, None, r) for kind in ("random_unitary", "random_stochastic")
     for d in (1, 2, 3) for r in (2, 4)])
def test_weight_matches_brute_force(kind, d, xi, r):
    coin = _test_coin(kind, d, xi)
    got = matrix_weight_origin(coin, r).matrix
    expected = brute_force_weight(coin, r)
    np.testing.assert_allclose(got, expected, atol=1e-13)


@functools.lru_cache(maxsize=None)
def _brute_force_trace(kind, d, r):
    return complex(np.trace(brute_force_weight(_test_coin(kind, d, None), r)))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["random_unitary", "random_stochastic"]),
       d=st.integers(1, 3), r=st.integers(0, 6))
def test_weight_traces_match_brute_force(kind, d, r):
    # the light-cone run meets the field of r/2 steps with itself and leaves
    # an odd trace zero; the brute force sums every closed path of r steps
    traces = matrix_weight_traces(_test_coin(kind, d, None), r)
    assert abs(traces[r] - _brute_force_trace(kind, d, r)) <= 1e-13


@pytest.mark.parametrize("kind,d", [("simple_rw", 1), ("simple_rw", 2), ("simple_rw", 3),
                                    ("grover", 2), ("grover", 3)]
                         + [(kind, d) for kind in ("random_unitary", "random_stochastic")
                            for d in (1, 2, 3)])
def test_weight_odd_traces_exactly_zero(kind, d):
    # Z^d is bipartite, so no closed walk has an odd length: every odd trace
    # and weight is an exact +0 with no field met (random_unitary is complex)
    coin = _test_coin(kind, d, None)
    traces = matrix_weight_traces(coin, 9)
    assert all(traces[r] == 0 for r in range(1, 10, 2))
    for r in (1, 3, 9):
        w = matrix_weight_origin(coin, r).matrix
        assert w.shape == (2 * d, 2 * d)
        assert not w.any() and not np.signbit(w.view(np.float64)).any()


def test_weight_traces_match_individual_weights():
    coin = flip_flop(build_coin("hadamard", 1, 0.5))
    traces = matrix_weight_traces(coin, 6)
    for r in range(7):
        expected = np.trace(matrix_weight_origin(coin, r).matrix)
        assert abs(traces[r] - expected) < 1e-13


def test_weight_trace_real_for_even_steps():
    for coin in (build_coin("grover", 2), build_coin("hadamard", 1, 0.3),
                 build_coin("simple_rw", 2)):
        for r in (2, 4, 6):
            tr = np.trace(matrix_weight_origin(coin, r).matrix)
            assert abs(tr.imag) < 1e-12


def test_weight_traces_rw_d4_exact():
    # the (R+1)^d torus fits d = 4 at R = 11; the simple walk's traces are
    # its return probabilities, dyadic rationals the DP reproduces exactly
    traces = matrix_weight_traces(build_coin("simple_rw", 4), 11)
    for r in range(1, 12):
        assert traces[r] == float(return_probability(4, r))


def test_weight_memory_cap():
    with pytest.raises(ComputationError, match="window"):
        matrix_weight_origin(build_coin("simple_rw", 3), 400)
    with pytest.raises(ComputationError, match="401\\^3 window"):
        matrix_weight_traces(build_coin("simple_rw", 3), 401)
    # an odd weight is zero with no field built, so it needs no window
    assert not matrix_weight_origin(build_coin("simple_rw", 3), 401).matrix.any()


@pytest.mark.parametrize("coin, r", [(build_coin("simple_rw", 1), 20000),
                                     (build_coin("grover", 2), 800)])
def test_weight_work_cap(coin, r):
    # both windows fit in memory; the floor(r/2) steps over them do not fit
    # the 2^28 budget, and are refused before the first step
    with pytest.raises(ComputationError, match="light-cone budget"):
        matrix_weight_traces(coin, r)
    with pytest.raises(ComputationError, match="light-cone budget"):
        matrix_weight_origin(coin, r)
