"""Primitives: lotteries, models, bisection, grids, dyadic tail sums."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearrep.core import (
    MAX_GRID_POINTS,
    InvalidModel,
    Lottery,
    NoBracket,
    bisect_monotone,
    discount,
    dyadic_tail_sum,
    grid_size,
    mix_probs,
)
from nearrep.risk import (
    CumulativeProspect,
    ExpectedUtility,
    TabulatedUtility,
)
from nearrep.timepref import (
    Exponential,
    Hyperbolic,
    QuasiHyperbolic,
    TabulatedDiscount,
)
from nearrep.uncertainty import (
    _simplex_lattice,
    bisect_monotone_batch,
    grid_sample,
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


def test_best_and_worst_prizes_break_ties_toward_the_lowest_index():
    # read off the degenerate lotteries' values, the same keys for every model
    eu = ExpectedUtility((0.0, 1.0, 1.0, 0.0))
    assert (eu.best_index, eu.worst_index) == (1, 0)
    tab = TabulatedUtility(lambda p: p[1] + p[2], 4)
    assert (tab.best_index, tab.worst_index) == (1, 0)
    cpt = CumulativeProspect(0.54, 0.74, (0.0, 3000.0, 4000.0))
    assert (cpt.best_index, cpt.worst_index) == (2, 0)


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


def test_bisect_batch_snaps_exact_zeros():
    # roots at lo, at hi, at the first midpoint, and one that needs bisecting
    lo = np.array([0.5, 0.0, 0.0, 0.0])
    hi = np.array([1.0, 0.5, 1.0, 1.0])
    roots = np.array([0.5, 0.5, 0.5, 0.3])
    got = bisect_monotone_batch(lambda c, idx: c - roots[idx], lo, hi)
    assert got[:3].tolist() == [0.5, 0.5, 0.5]
    assert abs(got[3] - 0.3) <= 1e-10


def test_bisect_batch_no_bracket_names_the_element():
    with pytest.raises(NoBracket, match="^element 1:"):
        bisect_monotone_batch(lambda c, idx: c + np.array([-0.5, 1.0, -0.5])[idx],
                              np.zeros(3), np.ones(3))
    with pytest.raises(InvalidModel):
        bisect_monotone_batch(lambda c, idx: c, np.zeros(2), np.array([1.0, 0.0]))


def test_bisect_batch_stops_at_float_resolution():
    # a step function never returns an exact zero and tol is far below one
    # ulp: each element stops once its midpoint no longer splits the interval
    lo, hi = np.array([1.0, -3.0]), np.array([2.0, 5.0])
    steps = np.array([1.3, 0.1])
    calls = []

    def f(c, idx):
        calls.append(len(c))
        return np.where(c < steps[idx], -1.0, 1.0)

    got = bisect_monotone_batch(f, lo, hi, tol=1e-300)
    assert len(calls) < 70  # about 53 halvings, far below max_iter = 200
    for k in range(2):
        assert abs(got[k] - steps[k]) <= 2.0 * np.spacing(steps[k])
        assert got[k] == bisect_monotone(lambda c: -1.0 if c < steps[k] else 1.0,
                                         lo[k], hi[k], tol=1e-300)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(1e-6, 100.0),
                          st.floats(0.0, 1.0), st.sampled_from([1, -1, 3]),
                          st.sampled_from([1e-10, 1e-6, 1e-300])),
                min_size=1, max_size=12))
def test_bisect_batch_matches_scalar_elementwise(brackets):
    # f_k(c) = sign_k (c - r_k)^3 or sign_k (c - r_k); every element must take
    # exactly the steps the scalar bisection takes on its own function
    lo = np.array([b[0] for b in brackets])
    hi = lo + np.array([b[1] for b in brackets])
    roots = lo + np.array([b[2] for b in brackets]) * (hi - lo)
    kind = np.array([b[3] for b in brackets], dtype=float)
    for tol in {b[4] for b in brackets}:
        def f(c, idx):
            d = c - roots[idx]
            return np.where(kind[idx] == 3, d ** 3, kind[idx] * d)
        got = bisect_monotone_batch(f, lo, hi, tol=tol)
        for k in range(len(lo)):
            want = bisect_monotone(lambda c: float(f(np.array([c]), np.array([k]))[0]),
                                   float(lo[k]), float(hi[k]), tol=tol)
            assert got[k] == want


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


def _loop_simplex_lattice(n_coords, subdivisions):
    # the composition loop the vectorized lattice replaced
    if subdivisions == 0:
        return np.full((1, n_coords), 1.0 / n_coords)
    pts = []
    for bars in itertools.combinations(range(subdivisions + n_coords - 1), n_coords - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(subdivisions + n_coords - 2 - prev)
        pts.append([k / subdivisions for k in parts])
    return np.asarray(pts, dtype=float)


@pytest.mark.parametrize("n_coords", [1, 2, 3, 4, 5])
def test_simplex_lattice_matches_the_composition_loop(n_coords):
    for subdivisions in range(26):
        got = _simplex_lattice(n_coords, subdivisions)
        want = _loop_simplex_lattice(n_coords, subdivisions)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # same order, same bits


def test_box_and_interval_grids():
    box = grid_sample("box", 2, 3, bound=10.0)
    assert box.shape == (9, 2)
    assert [0.0, 0.0] in box.tolist()
    assert [10.0, 10.0] in box.tolist()
    line = grid_sample("interval", 1, 5, bound=1.0)
    assert line.shape == (5, 1)
    assert line[2, 0] == pytest.approx(0.5)


def test_grid_rejects_bad_arguments():
    with pytest.raises(InvalidModel):
        grid_sample("simplex", 3, 0)
    with pytest.raises(InvalidModel):
        grid_sample("box", 2, 1)
    with pytest.raises(InvalidModel):
        grid_sample("noplace", 2, 3)


def test_grid_cap_is_checked_from_the_count():
    # counts come from arithmetic alone; nothing near these sizes is allocated
    assert grid_size("box", 3, 10 ** 6) == 10 ** 18
    assert grid_size("simplex", 4, 101) == math.comb(104, 3)
    assert grid_size("interval", 1, 1001) == 1001
    with pytest.raises(InvalidModel, match="exceeds the cap"):
        grid_sample("box", 3, 10 ** 6)
    with pytest.raises(InvalidModel, match="exceeds the cap"):
        grid_sample("simplex", 6, 10 ** 4)
    assert len(grid_sample("interval", 1, MAX_GRID_POINTS)) == MAX_GRID_POINTS
    with pytest.raises(InvalidModel, match="exceeds the cap"):
        grid_sample("interval", 1, MAX_GRID_POINTS + 1)


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


def test_package_resolves_exports_on_demand():
    import nearrep
    from nearrep import CumulativeProspect, risk

    assert nearrep.risk is risk
    assert CumulativeProspect is risk.CumulativeProspect
    assert set(nearrep.__all__) <= set(dir(nearrep))
    with pytest.raises(AttributeError, match="no_such_name"):
        nearrep.no_such_name  # noqa: B018


def test_package_import_loads_no_domain_module():
    # numpy loads only once a name from the risk or uncertainty module is used
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nearrep

    env = dict(os.environ, PYTHONPATH=str(Path(nearrep.__file__).resolve().parents[1]))
    code = ("import sys, nearrep; loaded = lambda: sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('nearrep', 'numpy')); print(loaded()); "
            "from nearrep import Exponential, discount; print(loaded()); "
            "from nearrep import CumulativeProspect; print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["['nearrep']", "['nearrep', 'nearrep.core', 'nearrep.timepref']", "True"]
