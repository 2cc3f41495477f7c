import pytest

from mahlerzeta import ComputationError, QuadratureSpec
from mahlerzeta.quadrature import grid_mean, refine_to_tol


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


# --------------------------------------------------------------------------
# grid budget

@pytest.mark.parametrize("d, points", [(3, 512), (1, (1 << 26) + 1), (8, 16)])
def test_grid_mean_rejects_oversized_grid_before_any_work(d, points):
    called = []

    def fn(nodes):
        called.append(nodes.shape)
        return nodes[:, 0], None

    with pytest.raises(ComputationError, match=f"grid {points}\\^{d}.*cap"):
        grid_mean(fn, d, points, 0.5)
    assert called == []
