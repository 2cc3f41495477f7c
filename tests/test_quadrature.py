import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mahlerzeta import ComputationError, QuadratureSpec, parse_laurent
from mahlerzeta import mahler as mahler_module
from mahlerzeta import correspondence as correspondence_module
from mahlerzeta import quadrature as quadrature_module
from mahlerzeta.correspondence import _cos_log_mean, _cos_sum_grid
from mahlerzeta.quadrature import (_blocks, _settle_allocator, _strip_points, det_stack,
                                   grid_mean, refine_to_tol, set_thread_count)


def _recording(model):
    calls = []

    def eval_at(points):
        calls.append(points)
        return model(points)

    return eval_at, calls


# --------------------------------------------------------------------------
# the refinement ladder

def test_ladder_plain_difference_on_geometric_sequence():
    eval_at, calls = _recording(lambda m: 1.0 + 0.5 ** m)
    res = refine_to_tol(eval_at, QuadratureSpec(8, tol=1e-6, max_refinements=5))
    # deltas: 2^-4 - 2^-8, 2^-8 - 2^-16, 2^-16 - 2^-32, then 2^-32 - 2^-64 < 1e-6
    assert calls == [4, 8, 16, 32, 64]
    assert res.points_per_dim == 64
    assert res.evaluations == 5
    assert res.converged
    assert res.value == 1.0 + 0.5 ** 64
    assert res.previous == 1.0 + 0.5 ** 32


def test_ladder_plain_difference_out_of_refinements():
    eval_at, calls = _recording(lambda m: 1.0 + 0.5 ** m)
    res = refine_to_tol(eval_at, QuadratureSpec(8, tol=1e-6, max_refinements=2))
    assert calls == [4, 8, 16, 32]
    assert (res.points_per_dim, res.evaluations, res.converged) == (32, 4, False)


def test_ladder_constant_ratio_converges_after_third_grid():
    c, a = 0.75, 3.0
    eval_at, calls = _recording(lambda m: c + a / m ** 2)
    res = refine_to_tol(eval_at, QuadratureSpec(8, tol=1e-10, max_refinements=5),
                        lambda: 4.0)
    # the two-grid extrapolant is already exact, but a lone extrapolant
    # never counts as converged
    assert calls == [4, 8, 16]
    assert res.evaluations == 3
    assert res.converged
    assert res.value == pytest.approx(c, abs=1e-15)


def test_ladder_lone_extrapolant_not_converged_even_when_grids_agree():
    eval_at, calls = _recording(lambda m: 1.0 + 1e-14 / m ** 2)
    res = refine_to_tol(eval_at, QuadratureSpec(8, tol=1e-10, max_refinements=3),
                        lambda: 4.0)
    assert calls == [4, 8, 16]
    assert res.converged


def test_ladder_switches_on_extrapolation_midway():
    c, a = 2.0, 1.0
    ratios = iter([None, 2.0, 2.0, 2.0])
    asked = []

    def order():
        asked.append(True)
        return next(ratios)

    eval_at, calls = _recording(lambda m: c + a / m)
    res = refine_to_tol(eval_at, QuadratureSpec(32, tol=1e-12, max_refinements=6), order)
    # 1/M error: the plain difference stays large, the extrapolants agree as
    # soon as there are two of them
    assert calls == [16, 32, 64]
    assert len(asked) == 2
    assert res.converged
    assert res.value == pytest.approx(c, abs=1e-15)
    assert res.delta < 1e-12


def test_ladder_zero_refinements_returns_two_grid_extrapolant():
    eval_at, calls = _recording(lambda m: 2.0 + 1.0 / m)
    res = refine_to_tol(eval_at, QuadratureSpec(32, tol=1e-12, max_refinements=0),
                        lambda: 2.0)
    assert calls == [16, 32]
    assert res.evaluations == 2
    assert not res.converged
    assert res.value == 2.0 * (2.0 + 1.0 / 32) - (2.0 + 1.0 / 16)
    assert res.delta == abs((2.0 + 1.0 / 32) - (2.0 + 1.0 / 16))


def test_ladder_stops_on_nan():
    eval_at, calls = _recording(lambda m: float("nan"))
    res = refine_to_tol(eval_at, QuadratureSpec(8, max_refinements=5))
    assert calls == [4, 8]
    assert not res.converged


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_spec_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    # NaN fails every convergence test and inf passes every one: either
    # tolerance ends the ladder after its first two grids
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        QuadratureSpec(tol=tol)


# --------------------------------------------------------------------------
# one proven grid, sized by the analyticity strip

def _aliasing_bound(b, a, d, points):
    """B (((1 + q) / (1 - q))^d - 1) at q = e^(-a M), in exact rational arithmetic."""
    q = Fraction(math.exp(-a * points))
    return b * float(((1 + q) / (1 - q)) ** d - 1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-6, 1e-15])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_strip_points_is_the_smallest_even_grid_that_meets_the_target(d, tol, scale):
    # the bound returned is the least of the nine half-widths at M, and none
    # of them meets tol at M - 2.  The root of 1 + tol/B near 1 is taken by
    # log1p: rounded, it would ask for several times the nodes
    def bound(a):
        return scale / (1.0 - a / 2.0)

    points, error = _strip_points(2.0, bound, d, tol)
    assert points % 2 == 0 and error <= tol
    halfwidths = [2.0 * k / 10 for k in range(1, 10)]
    assert error == pytest.approx(min(_aliasing_bound(bound(a), a, d, points)
                                      for a in halfwidths), rel=1e-9)
    assert min(_aliasing_bound(bound(a), a, d, points - 2) for a in halfwidths) > tol


@st.composite
def _cos_strips(draw):
    d = draw(st.integers(1, 3))
    alpha = draw(st.floats(0.5, 4.0))
    spread = alpha * draw(st.floats(0.05, 0.9))  # |beta| d
    return d, alpha, spread / d * draw(st.sampled_from([-1.0, 1.0]))


@settings(max_examples=30, deadline=None)
@given(_cos_strips())
def test_proven_cos_log_mean_lies_within_its_bound(case):
    # the mean of log(alpha + beta sum_j cos theta_j) on one proven grid,
    # against log((alpha + sqrt(alpha^2 - beta^2)) / 2) at d = 1 and a 4x
    # finer grid above; the 1e-15 relative slack covers rounding
    d, alpha, beta = case
    res = _cos_log_mean(d, QuadratureSpec(1024 if d < 3 else 256, 0.5, 1e-10, 0), alpha, beta)
    assert (res.evaluations, res.delta, res.previous) == (1, res.error_bound, res.value)
    assert res.error_bound <= 1e-15
    if d == 1:
        reference = math.log((alpha + math.sqrt(alpha * alpha - beta * beta)) / 2.0)
    else:
        reference = _cos_sum_grid(d, 4 * res.points_per_dim, 0.5, alpha, beta, np.log)
    assert abs(res.value - reference) <= res.error_bound + 1e-15 * max(1.0, abs(res.value))


def _counting_cos_sum_grid(seen):
    """``_cos_sum_grid`` with every node its ufunc evaluates counted into ``seen``."""
    def grid(d, points, shift, alpha, beta, ufunc):
        def counted(block, out):
            seen.append(block.size)
            return ufunc(block, out=out)

        return _cos_sum_grid(d, points, shift, alpha, beta, counted)

    return grid


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.floats(0.05, 0.95),
       st.sampled_from([4, 8, 16, 32, 64, 128, 256]), st.sampled_from([0.5, 0.0]))
def test_proven_cos_log_mean_costs_no_more_than_the_first_two_ladder_grids(d, u, points, shift):
    # tol 1 ends the ladder after its first two grids; the proven grid may
    # replace them only if it evaluates no more nodes, else the ladder runs
    spec = QuadratureSpec(points, shift, 1.0, 0)
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correspondence_module, "_cos_sum_grid", _counting_cos_sum_grid(seen))
        res = _cos_log_mean(d, spec, 1.0, -u / d)
        nodes = sum(seen)
        patch.setattr(correspondence_module, "_proven_grid", lambda *args: None)
        seen.clear()
        ladder = _cos_log_mean(d, spec, 1.0, -u / d)
    assert ladder.evaluations == 2 and ladder.error_bound is None
    if res.error_bound is None:
        assert nodes == sum(seen)
    else:
        assert nodes <= sum(seen)


# --------------------------------------------------------------------------
# grid budget

@pytest.mark.parametrize("d, points", [(3, 512), (1, (1 << 26) + 1), (8, 16)])
def test_grid_mean_rejects_oversized_grid_before_any_work(d, points):
    called = []

    def fn(mesh):
        called.append(len(mesh))
        return mesh[0].ravel(), None

    with pytest.raises(ComputationError, match=f"grid {points}\\^{d}.*cap"):
        grid_mean(fn, d, points, 0.5)
    assert called == []


@pytest.mark.parametrize("d, points", [(3, 512), (8, 16)])
def test_grid_mean_axes_view_rejects_oversized_grid_before_any_work(d, points):
    called = []

    def fn(mesh):
        called.append(len(mesh))
        return mesh[0].ravel(), None

    # with one-row blocks the cap still comes before any block is built
    with pytest.raises(ComputationError, match=f"grid {points}\\^{d}.*cap"):
        grid_mean(fn, d, points, 0.5, max_block=points)
    assert called == []


@pytest.mark.parametrize("d, shape", [(2, "17x32"), (3, "32x17x32")])
def test_cos_sum_grid_caps_the_pair_rows_it_evaluates(monkeypatch, d, shape):
    # M = 64 at shift 0.5 keeps n = 32 nodes per axis, and the last two axes
    # evaluate 17 pair rows of 32: 544 nodes stand for the 32^2 = 1024 grid
    # at d = 2, 17,408 for 32^3 at d = 3.  The cap counts the nodes evaluated
    nodes = 17 * 32 ** (d - 1)
    expected = _cos_sum_grid(d, 64, 0.5, 1.0, -0.5 / d, np.log)
    monkeypatch.setattr(quadrature_module, "_MAX_GRID_NODES", nodes)
    assert _cos_sum_grid(d, 64, 0.5, 1.0, -0.5 / d, np.log) == expected
    monkeypatch.setattr(quadrature_module, "_MAX_GRID_NODES", nodes - 1)
    with pytest.raises(ComputationError, match=f"grid {shape} = {nodes} nodes exceeds the cap"):
        _cos_sum_grid(d, 64, 0.5, 1.0, -0.5 / d, np.log)


# --------------------------------------------------------------------------
# product-set blocks

def _rows(mesh):
    """The block's nodes as an (n, d) angle array, rows in row-major order."""
    return np.stack(np.broadcast_arrays(*mesh), axis=-1).reshape(-1, len(mesh))


def _cos_log_dense(d, points, shift, transform, max_block=None):
    def fn(mesh):
        return np.log(transform(np.sum(np.cos(_rows(mesh)), axis=1))), None

    return grid_mean(fn, d, points, shift, max_block=max_block)[0].real


def _cos_sum_dense(d, points, shift, alpha, beta, ufunc):
    """Every node of the n^d grid ``_cos_sum_grid`` stands for, added by ``math.fsum``.

    n = M/2 nodes in [0, pi) per axis at shift 0.5 and even M, else all M.
    """
    n = points // 2 if shift == 0.5 and points % 2 == 0 else points
    cosines = np.cos((np.arange(n) + shift) * (2.0 * math.pi / points))
    s = sum(cosines.reshape([n if k == j else 1 for k in range(d)]) for j in range(d))
    return math.fsum(ufunc(alpha + beta * s).ravel()) / n ** d


@pytest.mark.parametrize("d, points", [(1, 4096), (2, 1024), (3, 128), (4, 32), (5, 12),
                                       (7, 6), (8, 4), (9, 3)])
def test_cos_sum_axes_view_matches_dense_view(d, points):
    # per-axis terms and pair rows against per-node cosine sums on the grid
    # they stand for: the half-angle grid at shift 0.5 and even M, the full
    # grid at shift 0 or odd M.  The (2, 1024) pair rows and the (3, 128)
    # grids span several blocks.  The integrand lies within 2.3 of 0 and the
    # two routes round its argument apart by an ulp or so, so the means agree
    # within 4 ulp of 1 (measured: under 1)
    for shift in (0.5, 0.0):
        axes = _cos_sum_grid(d, points, shift, 1.0, -0.9 / d, np.log)
        dense = _cos_sum_dense(d, points, shift, 1.0, -0.9 / d, np.log)
        assert abs(axes - dense) <= 4 * 2.0 ** -52


@st.composite
def _folded_grids(draw):
    d = draw(st.integers(1, 5))
    # even M <= 64 with a full grid of at most 2^20 nodes to compare against
    half = draw(st.integers(1, min(32, int(round(2 ** (20 / d))) // 2)))
    a = draw(st.floats(-0.99, 0.99))
    return d, 2 * half, a


@settings(max_examples=60, deadline=None)
@given(_folded_grids())
def test_folded_cos_sum_mean_matches_full_grid(case):
    # the M-grid at shift 0.5 is closed under theta_j -> 2 pi - theta_j, so
    # its nodes in [0, pi)^d carry the full mean, and the pair rows of the
    # last two axes sum every ordered pair; the Green integrand's mean is at
    # least 1, so the relative bound is a bound on rounding
    d, points, a = case

    def full(ufunc):
        def fn(mesh):
            s = sum(np.cos(theta) for theta in mesh)
            return ufunc(1.0 - a * s / d).ravel(), None

        return grid_mean(fn, d, points, 0.5)[0].real

    for ufunc in (np.reciprocal, np.log):
        assert _cos_sum_grid(d, points, 0.5, 1.0, -a / d, ufunc) == pytest.approx(
            full(ufunc), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("d, points, shift, nodes", [
    (1, 4096, 0.5, 2048), (2, 10, 0.5, 25), (3, 128, 0.5, 64 ** 3),
    (2, 9, 0.5, 81), (3, 7, 0.5, 343), (2, 10, 0.0, 100), (3, 16, 0.25, 16 ** 3)])
def test_cos_sum_grid_evaluates_folded_nodes_only(d, points, shift, nodes):
    # ``nodes`` is the n^d grid the mean stands for (folded at shift 0.5 and
    # even M); the ufunc sees its n nodes for d = 1, and for d >= 2 the
    # floor(n/2) + 1 pair rows of n under each of the n^(d-2) leading nodes
    n = points // 2 if shift == 0.5 and points % 2 == 0 else points
    assert n ** d == nodes
    seen = []

    def identity(block, out):
        seen.append(block.size)
        assert out is block
        return block

    # the mean of alpha + beta sum_j cos theta_j is alpha on every grid
    assert _cos_sum_grid(d, points, shift, 1.0, -0.5 / d, identity) == pytest.approx(
        1.0, abs=1e-14)
    assert sum(seen) == (n if d == 1 else (n // 2 + 1) * n ** (d - 1))


@pytest.mark.parametrize("d, points", [(2, 8192), (4, 64)])
def test_cos_sum_grid_memory_stays_per_block(d, points):
    # pair rows and leading sums are built per block of at most 2^16 nodes
    # (512 KiB): the whole (2049 x 4096) pair matrix of the d = 2 grid would
    # take 67 MB, the 17 x 32^3 pair rows of the d = 4 grid 4.5 MB.  The
    # allocator's one-off 16 MiB array is freed before tracing starts
    _settle_allocator()
    tracemalloc.start()
    try:
        _cos_sum_grid(d, points, 0.5, 1.0, -0.9 / d, np.log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.integers(1, 400))
def test_blocks_over_per_axis_counts_cover_the_grid_once(counts, max_block):
    # every block is a product set of at most max_block nodes; taken in
    # order, their row-major flat indices run through the grid exactly once
    seen = []
    for outer, j0, j1 in _blocks(counts, max_block):
        ranges = [range(i, i + 1) for i in outer] + [range(j0, j1)]
        ranges += [range(n) for n in counts[len(ranges):]]
        index = np.indices([len(r) for r in ranges]).reshape(len(counts), -1)
        index = [np.asarray(r)[i] for r, i in zip(ranges, index)]
        assert 0 < index[0].size <= max_block
        seen.append(np.ravel_multi_index(index, counts))
    assert np.array_equal(np.concatenate(seen), np.arange(math.prod(counts)))


@st.composite
def _fold_cases(draw, max_d=3, points=(4, 6, 8, 10, 16, 24)):
    d = draw(st.integers(1, max_d))
    points = draw(st.sampled_from(points))
    fold = draw(st.sets(st.integers(0, d - 1)))
    max_block = draw(st.sampled_from([7, 64, 1 << 20]))
    return d, points, fold, max_block


# odd and even M for the shift-0 fold, M <= 2 among them (nothing to fold)
_SHIFT_0_POINTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11)


def _recorded_rows(d, points, shift, fold, max_block):
    blocks = []

    def fn(mesh):
        rows = _rows(mesh)
        assert rows.shape[0] <= max_block
        blocks.append(rows)
        return np.ones(rows.shape[0]), None

    grid_mean(fn, d, points, shift, fold=fold, max_block=max_block)
    return np.concatenate(blocks)


@settings(max_examples=60, deadline=None)
@given(_fold_cases())
def test_fold_keeps_the_nodes_in_zero_to_pi_of_each_folded_axis(case):
    d, points, fold, max_block = case
    axis = (np.arange(points) + 0.5) * (2.0 * math.pi / points)
    axes = [axis[:points // 2] if j in fold else axis for j in range(d)]
    expected = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert np.array_equal(_recorded_rows(d, points, 0.5, fold, max_block), expected)


@pytest.mark.parametrize("points, shift", [(9, 0.5), (7, 0.5), (8, 0.25), (6, 0.75)])
def test_fold_is_ignored_for_odd_points_or_another_shift(points, shift):
    def fn(mesh):
        s = np.cos(mesh[0]) + np.sin(2 * mesh[1]) * np.cos(mesh[2])
        return np.exp(s).ravel(), None

    plain = grid_mean(fn, 3, points, shift)
    assert grid_mean(fn, 3, points, shift, fold=range(3)) == plain
    rows = _recorded_rows(3, points, shift, {0, 1, 2}, 1 << 20)
    assert rows.shape[0] == points ** 3


@settings(max_examples=60, deadline=None)
@given(_fold_cases(4, _SHIFT_0_POINTS))
def test_shift_0_fold_keeps_nodes_0_to_half_of_each_folded_axis(case):
    # nodes k = 0..floor(M/2) of each folded axis, each once, in row-major
    # order; an axis longer than the block is built per block, bit for bit
    d, points, fold, max_block = case
    axis = (np.arange(points) + 0.0) * (2.0 * math.pi / points)
    axes = [axis[:points // 2 + 1] if j in fold else axis for j in range(d)]
    expected = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert np.array_equal(_recorded_rows(d, points, 0.0, fold, max_block), expected)


@settings(max_examples=60, deadline=None)
@given(_fold_cases(4, _SHIFT_0_POINTS), st.floats(-0.9, 0.9), st.floats(-3.0, 3.0))
def test_shift_0_folded_mean_of_an_even_integrand_matches_the_full_grid(case, a, b):
    # weights 2 on the folded nodes, 1 on the mirror's fixed points 0 and
    # M/2, and the mean over M^d: the full grid's mean but for rounding.  A
    # node's mirror 2 pi - theta is rounded on its own, which moves
    # a cos((j + 1) theta) by up to 4 * 0.9 * 2 pi * 2^-53 per folded axis.
    # The mean's imaginary part stays above 1, so the bound is relative;
    # the gap measured under 1e-14 over blocks of 7 nodes to the whole grid
    d, points, fold, max_block = case

    def fn(mesh):
        s = 2.0 + b * np.sin(sum(mesh[j] for j in range(d) if j not in fold))
        for j in range(d):
            s = s + (a * np.cos((j + 1) * mesh[j]) if j in fold else np.cos(mesh[j]) / (3 + j))
        values = np.log(np.abs(s) + 1.0).ravel() + 1j * s.ravel()
        return np.stack([values, 2.0 * values], axis=-1), None

    folded, _ = grid_mean(fn, d, points, 0.0, fold=fold, max_block=max_block)
    full, _ = grid_mean(fn, d, points, 0.0, max_block=max_block)
    assert folded.shape == (2,)
    assert np.all(np.abs(folded - full) <= 2e-14 * np.abs(full))


@settings(max_examples=60, deadline=None)
@given(_fold_cases(4, _SHIFT_0_POINTS), st.sampled_from([0.5, 0.0]),
       st.sampled_from([(2,), (3,), (2, 3)]), st.floats(-3.0, 3.0))
def test_block_sums_do_not_depend_on_the_memory_layout_of_values(case, shift, trailing, b):
    # the same values, C-ordered (nodes across rows) or F-ordered (nodes
    # contiguous), give the same bits, folded or not
    d, points, fold, max_block = case

    def integrand(order):
        def fn(mesh):
            s = 2.0 + sum(np.cos((j + 1) * mesh[j]) / (3 + j) for j in range(d))
            s = s.ravel() + 1j * b * s.ravel() ** 2
            scale = np.arange(1.0, math.prod(trailing) + 1.0).reshape(trailing)
            values = np.log(s)[(...,) + (None,) * len(trailing)] * scale
            return np.asarray(values, order=order), None
        return fn

    c_means, _ = grid_mean(integrand("C"), d, points, shift, fold=fold, max_block=max_block)
    f_means, _ = grid_mean(integrand("F"), d, points, shift, fold=fold, max_block=max_block)
    assert c_means.shape == trailing
    assert c_means.tobytes() == f_means.tobytes()


@st.composite
def _weight_cases(draw):
    d = draw(st.integers(1, 3))
    fold = draw(st.sets(st.integers(0, d - 1)))
    return (d, draw(st.integers(1, 10)), fold, draw(st.sampled_from([0.0, 0.5])),
            draw(st.sampled_from([1, 7, 64, 1 << 20])))


@settings(max_examples=100, deadline=None)
@given(_weight_cases())
def test_each_kept_node_weighs_the_grid_nodes_it_stands_for(case):
    # one-hot rows over the kept nodes: column k of the mean is node k's
    # weight over M^d, one nonzero term, so exact.  A folded node stands for
    # itself and its mirror, but for the mirror's fixed points 0 and M/2 at
    # shift 0; blocks of 1 node fix leading nodes at k = 0 and k = M/2
    d, points, fold, shift, max_block = case
    if shift == 0.5 and points % 2 == 0:
        kept, weights = points // 2, np.full(points // 2, 2.0)
    elif shift == 0.0 and points > 2:
        k = np.arange(points // 2 + 1)
        kept, weights = k.size, np.where((k == 0) | (2 * k == points), 1.0, 2.0)
    else:
        kept, weights = points, np.ones(points)
    counts = [kept if j in fold else points for j in range(d)]
    expected = np.ones(1)
    for j in range(d):
        expected = np.multiply.outer(expected, weights if j in fold else np.ones(points)).ravel()

    def fn(mesh):
        index = [np.rint(theta * points / (2.0 * math.pi) - shift).astype(int) for theta in mesh]
        flat = np.ravel_multi_index(np.broadcast_arrays(*index), counts).ravel()
        values = np.zeros((flat.size, math.prod(counts)))
        values[np.arange(flat.size), flat] = 1.0
        return values, None

    mean, _ = grid_mean(fn, d, points, shift, fold=fold, max_block=max_block)
    assert np.array_equal(mean.real, expected / points ** d)
    assert not mean.imag.any()


@pytest.mark.parametrize("shift", [0.5, 0.0])
def test_one_axis_grid_builds_its_angles_per_block(shift):
    # the folded axis of M = 2^20 holds 2^19 (shift 0.5) or 2^19 + 1 nodes
    # (shift 0), more than a block: each block builds its run of angles, and
    # of weights, from its index range.  The whole axis with its arange
    # would take 16 MB
    _settle_allocator()
    tracemalloc.start()
    try:
        _cos_sum_grid(1, 1 << 20, shift, 1.0, -0.9, np.log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@settings(max_examples=60, deadline=None)
@given(_fold_cases(), st.floats(-0.9, 0.9), st.floats(-3.0, 3.0))
def test_folded_mean_of_an_even_integrand_matches_the_full_grid(case, a, b):
    # even in every folded theta_j, not in the others; O(1) values, so the
    # bound is on rounding
    d, points, fold, max_block = case

    def fn(mesh):
        s = 2.0 + b * np.sin(sum(mesh[j] for j in range(d) if j not in fold))
        for j in range(d):
            s = s + (a * np.cos((j + 1) * mesh[j]) if j in fold else np.sin(mesh[j]) / (3 + j))
        return np.log(np.abs(s) + 1.0).ravel() + 1j * s.ravel(), None

    folded, _ = grid_mean(fn, d, points, 0.5, fold=fold, max_block=max_block)
    full, _ = grid_mean(fn, d, points, 0.5, max_block=max_block)
    assert abs(folded - full) <= 1e-15


@pytest.mark.parametrize("fold, shape", [(range(3), "512\\^3"), ((0, 1), "512x512x1024"),
                                         ((2,), "1024x1024x512")])
def test_grid_budget_counts_the_evaluated_nodes(fold, shape):
    called = []

    def fn(mesh):
        called.append(len(mesh))
        return mesh[0].ravel(), None

    with pytest.raises(ComputationError, match=f"grid {shape} = .* nodes exceeds the cap"):
        grid_mean(fn, 3, 1024, 0.5, fold=fold)
    assert called == []


def test_small_block_covers_every_node_once_in_row_major_order():
    # 16^2 > 100: each block fixes axis 0 and takes at most 6 indices of axis 1
    d, points = 3, 16
    seen = []

    def fn(mesh):
        nodes = _rows(mesh)
        assert nodes.shape[0] <= 100
        seen.append(nodes)
        a, b, c = nodes.T
        values = 2.0 + np.cos(a) * np.cos(2 * b) + np.sin(3 * c) + np.cos(a + b - 5 * c)
        return values, None

    mean, _ = grid_mean(fn, d, points, 0.5, max_block=100)
    assert len(seen) == 16 * 3
    rows = np.concatenate(seen)
    idx = np.arange(points ** d)
    axis = (np.arange(points) + 0.5) * (2.0 * math.pi / points)
    expected = np.stack([axis[idx // 256], axis[(idx // 16) % 16], axis[idx % 16]], axis=1)
    assert np.array_equal(rows, expected)
    assert mean.real == pytest.approx(2.0, abs=1e-14)


def test_default_blocks_hold_at_most_2_16_nodes():
    # a 512^2 grid is four blocks of 128 rows
    sizes = []

    def fn(mesh):
        sizes.append(_rows(mesh).shape[0])
        return np.ones(sizes[-1]), None

    assert grid_mean(fn, 2, 512, 0.5) == (1.0, None)
    assert sizes == [1 << 16] * 4


@settings(max_examples=60, deadline=None)
@given(_fold_cases())
def test_an_axis_spanned_in_full_is_one_object_per_grid(case):
    # an integrand may keep a per-axis table while the axis ``is`` the one it
    # was built from: within one call such an axis is always the same
    # read-only array, and the next call builds new ones
    d, points, fold, max_block = case
    counts = [points // 2 if j in fold else points for j in range(d)]
    calls = []

    def fn(mesh):
        calls[-1].append(mesh)
        return np.ones(math.prod(np.broadcast_shapes(*(a.shape for a in mesh)))), None

    for _ in range(2):
        calls.append([])
        grid_mean(fn, d, points, 0.5, fold=fold, max_block=max_block)
    full = []
    for meshes in calls:
        objects = {}
        for mesh in meshes:
            for j, theta in enumerate(mesh):
                assert not theta.flags.writeable
                if theta.size == counts[j]:
                    assert objects.setdefault(j, theta) is theta
        full.append(objects)
    assert all(theta is not full[0].get(j) for j, theta in full[1].items())


def test_mahler_quadrature_blocks_hold_at_most_2_14_nodes(monkeypatch):
    # the 256^2 and 512^2 grids are 4 and 16 blocks of 2^14 nodes
    sizes = []
    evaluate = mahler_module.eval_on_nodes

    def recording(poly, nodes):
        sizes.append(nodes.shape[0])
        return evaluate(poly, nodes)

    monkeypatch.setattr(mahler_module, "eval_on_nodes", recording)
    mahler_module.mahler_quadrature(parse_laurent("X1 + X2 + 3"),
                                    QuadratureSpec(512, 0.5, 1e-300, 0))
    assert sizes == [1 << 14] * (4 + 16)


def test_log_abs_block_takes_each_axis_value_once_per_block(monkeypatch):
    # 512^2 and 1024^2 grids of 16 and 64 blocks: each block takes one cos
    # call over its run of axis 0 and one over axis 1, which it spans in full
    sizes = []
    cos = np.cos

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(mahler_module.np, "cos", counting)
    mahler_module.mahler_quadrature(parse_laurent("X1 + X2 + 3"),
                                    QuadratureSpec(1024, 0.5, 1e-300, 0))
    assert sizes == [32, 512] * 16 + [16, 1024] * 64


@pytest.mark.parametrize("text, d, points", [("X1^2 + X1^-1 + 3", 1, 8),
                                             ("X1*X2^-1 + 2*X2 - 3", 2, 6),
                                             ("X1 + X2*X3 + X3^-2 + 4", 3, 5)])
def test_log_abs_block_evaluates_the_exp_of_the_block_rows(monkeypatch, text, d, points):
    # the Mahler oracle's (n, d) torus points are e^(i theta) of the rows,
    # bit for bit; they are copied to C order for the bitwise view
    seen, meshes = [], []
    evaluate = mahler_module.eval_on_nodes

    def recording(poly, nodes):
        seen.append(np.array(nodes, order="C"))
        return evaluate(poly, nodes)

    monkeypatch.setattr(mahler_module, "eval_on_nodes", recording)
    block = mahler_module._log_abs_block(parse_laurent(text))

    def fn(mesh):
        meshes.append(mesh)
        return block(mesh)

    grid_mean(fn, d, points, 0.5, max_block=7)
    assert len(seen) == len(meshes) > 1
    for nodes, mesh in zip(seen, meshes):
        expected = np.exp(1j * _rows(mesh))
        assert nodes.shape == expected.shape == (expected.shape[0], d)
        assert np.array_equal(nodes.view(np.uint64), expected.view(np.uint64))


def test_log_abs_block_values_of_consecutive_blocks_share_no_memory():
    block = mahler_module._log_abs_block(parse_laurent("X1 + X2 + 3"))
    theta = (np.arange(8) + 0.5) * (math.pi / 4)
    first, _ = block((theta[:4, None], theta[None, :]))
    kept = first.copy()
    second, _ = block((theta[4:, None], theta[None, :]))
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)


def test_small_block_axes_view_matches_dense_view():
    transform = lambda s: 2.0 - s / 3.0
    dense = _cos_log_dense(3, 16, 0.5, transform, max_block=100)

    def fn(mesh):
        assert sum(a.size for a in mesh) <= 1 + 6 + 16
        s = np.cos(mesh[0]) + np.cos(mesh[1]) + np.cos(mesh[2])
        return np.log(transform(s)).ravel(), None

    assert grid_mean(fn, 3, 16, 0.5, max_block=100)[0].real == dense


def test_thread_count_is_a_deprecated_no_op():
    def fn(mesh):
        s = np.cos(mesh[0]) + np.cos(mesh[1]) + np.cos(mesh[2])
        return np.log(1.0 - 0.3 * s).ravel(), None

    # 64^3 nodes in blocks of 2^12: 64 blocks
    before = grid_mean(fn, 3, 64, 0.5, max_block=1 << 12)
    with pytest.warns(DeprecationWarning):
        set_thread_count(2)
    with pytest.raises(ValueError, match="thread count must be >= 1, got 0"):
        set_thread_count(0)
    after = grid_mean(fn, 3, 64, 0.5, max_block=1 << 12)
    assert before[0].real.hex() == after[0].real.hex()
    assert before == after


# --------------------------------------------------------------------------
# batched determinants


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_stack_matches_numpy(n):
    rng = np.random.default_rng(n)
    mats = rng.normal(size=(2, 7, n, n)) + 1j * rng.normal(size=(2, 7, n, n))
    got = det_stack(mats)
    assert got.shape == (2, 7)
    np.testing.assert_allclose(got, np.linalg.det(mats), rtol=1e-12, atol=0)
