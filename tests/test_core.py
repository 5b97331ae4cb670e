"""Primitives: lotteries, models, bisection, grids, dyadic tail sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearrep.core import (
    CumulativeProspect,
    ExpectedUtility,
    Exponential,
    Hyperbolic,
    InvalidModel,
    Lottery,
    NoBracket,
    QuasiHyperbolic,
    TabulatedDiscount,
    TabulatedUtility,
    bisect_monotone,
    discount,
    dyadic_tail_sum,
    grid_sample,
    mix_probs,
)


# --- lotteries -------------------------------------------------------------

def test_lottery_renormalizes_and_validates():
    p = Lottery((0.2, 0.3, 0.5))
    assert math.fsum(p.probs) == 1.0
    assert p.support == (0, 1, 2)
    assert p.support_size == 3
    assert not p.is_degenerate
    with pytest.raises(InvalidModel):
        Lottery((0.5,))
    with pytest.raises(InvalidModel):
        Lottery((0.5, -0.1, 0.6))
    with pytest.raises(InvalidModel):
        Lottery((0.5, 0.6))  # sums to 1.1, outside tolerance


def test_lottery_degenerate_and_mix():
    e0 = Lottery.degenerate(0, 3)
    assert e0.probs == (1.0, 0.0, 0.0)
    assert e0.is_degenerate
    e2 = Lottery.degenerate(2, 3)
    m = e0.mix(e2, 0.25)
    assert m.probs == (0.25, 0.0, 0.75)
    assert mix_probs((1, 0), (0, 1), 0.5) == (0.5, 0.5)


probs_strategy = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5).filter(
    lambda xs: sum(xs) > 1e-6)


@settings(max_examples=80, deadline=None)
@given(probs_strategy, probs_strategy.map(tuple), st.floats(0.0, 1.0))
def test_lottery_mixture_is_convex_combination(raw_p, raw_q, lam):
    if len(raw_p) != len(raw_q):
        raw_q = raw_p[::-1]
    p = Lottery(tuple(v / sum(raw_p) for v in raw_p))
    q = Lottery(tuple(v / sum(raw_q) for v in raw_q))
    m = p.mix(q, lam)
    assert math.fsum(m.probs) == pytest.approx(1.0, abs=1e-12)
    for a, b, c in zip(m.probs, p.probs, q.probs):
        assert a == pytest.approx(lam * b + (1 - lam) * c, abs=1e-12)


# --- parametric models -----------------------------------------------------

def test_expected_utility_dot_and_extremes():
    m = ExpectedUtility((1.0, 0.4, 0.0))
    assert m.value((0.5, 0.25, 0.25)) == pytest.approx(0.6, abs=1e-15)
    assert m.best_index == 0
    assert m.worst_index == 2


def test_cpt_weight_endpoints_pinned():
    m = CumulativeProspect(0.54, 0.74, (4000.0, 3000.0, 0.0))
    assert m.weight(0.0) == 0.0
    assert m.weight(1.0) == 1.0
    mid = m.weight(0.5)
    assert 0.0 < mid < 1.0


@settings(max_examples=60, deadline=None)
@given(st.floats(0.3, 1.0), st.floats(0.28, 1.0), st.floats(0.0, 1.0))
def test_cpt_two_prize_value_identity(a, b, p):
    # with prizes (1, 0) the value reduces to g(p) * 1^a = g(p)
    m = CumulativeProspect(a, b, (1.0, 0.0))
    assert m.value((p, 1.0 - p)) == pytest.approx(m.weight(p), abs=1e-12)


def test_cpt_three_prize_rank_dependent_value():
    # frozen: decision weights g(.2), g(.7)-g(.2), 1-g(.7) over 4000 > 3000 > 0
    m = CumulativeProspect(0.54, 0.74, (4000.0, 3000.0, 0.0))
    assert m.value((0.2, 0.5, 0.3)) == pytest.approx(49.60691000911335, abs=1e-9)


def test_cpt_rejects_bad_parameters():
    with pytest.raises(InvalidModel):
        CumulativeProspect(0.0, 0.74, (1.0, 0.0))
    with pytest.raises(InvalidModel):
        CumulativeProspect(0.54, 0.2, (1.0, 0.0))
    with pytest.raises(InvalidModel):
        CumulativeProspect(0.54, 0.74, (1.0, 1.0))


def test_tabulated_utility_requires_nonconstant_degenerates():
    with pytest.raises(InvalidModel):
        TabulatedUtility(lambda p: 1.0, 3)
    t = TabulatedUtility(lambda p: p[0] - p[2], 3)
    assert t.best_index == 0
    assert t.worst_index == 2
    assert t.value((0.5, 0.3, 0.2)) == pytest.approx(0.3)


def test_value_does_not_mutate_input():
    m = ExpectedUtility((1.0, 0.0))
    probs = [0.25, 0.75]
    m.value(probs)
    assert probs == [0.25, 0.75]


# --- discount curves -------------------------------------------------------

def test_discount_models_log_space():
    assert discount(Exponential(0.9), 3) == pytest.approx(0.9 ** 3, rel=1e-14)
    qh = QuasiHyperbolic(0.9, 0.95)
    assert discount(qh, 0) == 1.0
    assert discount(qh, 2) == pytest.approx(0.9 * 0.95 ** 2, rel=1e-14)
    assert discount(Hyperbolic(0.1), 5) == pytest.approx(1 / 1.5, rel=1e-14)


def test_tabulated_discount_validation_and_horizon():
    t = TabulatedDiscount((1.0, 0.9, 0.81))
    assert t.T_max == 2
    assert t.is_strictly_decreasing
    assert discount(t, 2) == pytest.approx(0.81, rel=1e-15)
    with pytest.raises(InvalidModel):
        TabulatedDiscount((0.9, 0.8))  # d(0) must be 1
    with pytest.raises(InvalidModel):
        TabulatedDiscount((1.0, 0.0))  # strictly positive
    with pytest.raises(InvalidModel):
        t.log_d(3)  # beyond the horizon


# --- bisection -------------------------------------------------------------

def test_bisect_linear_root():
    root = bisect_monotone(lambda x: 2.0 * x - 0.5, 0.0, 1.0, tol=1e-12)
    assert root == pytest.approx(0.25, abs=1e-11)


def test_bisect_exact_zero_snaps():
    assert bisect_monotone(lambda x: x - 0.5, 0.5, 1.0) == 0.5


def test_bisect_no_bracket():
    with pytest.raises(NoBracket):
        bisect_monotone(lambda x: x + 1.0, 0.0, 1.0)


# --- grids -----------------------------------------------------------------

def test_simplex_grid_is_lattice_with_denominator_resolution():
    pts = grid_sample("simplex", 3, 2)
    assert len(pts) == 6  # compositions of 2 into 3 parts
    as_tuples = {tuple(p) for p in pts}
    assert (1.0, 0.0, 0.0) in as_tuples
    assert (0.0, 0.5, 0.5) in as_tuples
    for p in pts:
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)


def test_simplex_grid_count_matches_binomial():
    pts = grid_sample("simplex", 3, 101)
    assert len(pts) == math.comb(103, 2)


def test_box_and_interval_grids():
    box = grid_sample("box", 2, 3, bound=10.0)
    assert box.shape == (9, 2)
    assert [0.0, 0.0] in box.tolist()
    assert [10.0, 10.0] in box.tolist()
    line = grid_sample("interval", 1, 5, bound=1.0)
    assert line.shape == (5, 1)
    assert line[2, 0] == pytest.approx(0.5)


def test_grid_subsample_is_deterministic():
    a = grid_sample("box", 2, 11, bound=1.0, seed=7, max_points=30)
    b = grid_sample("box", 2, 11, bound=1.0, seed=7, max_points=30)
    assert len(a) == 30
    assert np.array_equal(a, b)
    c = grid_sample("box", 2, 11, bound=1.0, seed=8, max_points=30)
    assert not np.array_equal(a, c)


def test_grid_rejects_bad_arguments():
    with pytest.raises(InvalidModel):
        grid_sample("simplex", 3, 0)
    with pytest.raises(InvalidModel):
        grid_sample("box", 2, 1)
    with pytest.raises(InvalidModel):
        grid_sample("noplace", 2, 3)


# --- dyadic tail sums ------------------------------------------------------

def test_dyadic_tail_sum_constant_terms_divergent():
    # terms pinned at 0.2 never decay: classified divergent, partial sum kept
    total, converged = dyadic_tail_sum(lambda i: 0.2, 20)
    assert not converged
    assert total == pytest.approx(0.2 * 21, rel=1e-12)


def test_dyadic_tail_sum_geometric_convergent():
    total, converged = dyadic_tail_sum(lambda i: 0.5 ** i, 40)
    assert converged
    assert total == pytest.approx(2.0, rel=1e-9)


def test_dyadic_tail_sum_zero_terms_convergent():
    total, converged = dyadic_tail_sum(lambda i: 0.0, 10)
    assert converged
    assert total == 0.0


# --- package exports ---------------------------------------------------------

def test_every_module_export_resolves_on_the_package():
    import nearrep
    from nearrep import core, risk, timepref, uncertainty

    modules = (core, risk, timepref, uncertainty)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(nearrep, name) is getattr(mod, name), (mod.__name__, name)
    assert len(nearrep.__all__) == len(set(nearrep.__all__))
    assert set(nearrep.__all__) == {n for mod in modules for n in mod.__all__}
    assert "discount" in core.__all__ and "discount" in nearrep.__all__
    assert nearrep.discount is discount
