"""Primitives: models, grids, dyadic tail sums."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearrep.core import (
    MAX_GRID_POINTS,
    InvalidModel,
    discount,
    dyadic_tail_sum,
    grid_size,
)
from nearrep.risk import (
    CumulativeProspect,
    ExpectedUtility,
    SimplexSampler,
    TabulatedUtility,
    _simplex_lattice,
)
from nearrep.timepref import (
    Exponential,
    Hyperbolic,
    LinearDelay,
    LogDelay,
    QuasiHyperbolic,
    TabulatedDiscount,
)
from nearrep.uncertainty import (
    CESUtility,
    LinearPlusBounded,
    MaxminExpected,
    SmoothAmbiguity,
    SubjectiveExpected,
    _box_grid,
)


# --- parametric models -----------------------------------------------------

def test_expected_utility_dot_and_extremes():
    m = ExpectedUtility((1.0, 0.4, 0.0))
    assert m.value_batch(np.array([[0.5, 0.25, 0.25]]))[0] == pytest.approx(0.6, abs=1e-15)
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
    assert m.value_batch(np.array([[p, 1.0 - p]]))[0] == pytest.approx(m.weight(p), abs=1e-12)


def test_cpt_three_prize_rank_dependent_value():
    # frozen: decision weights g(.2), g(.7)-g(.2), 1-g(.7) over 4000 > 3000 > 0
    m = CumulativeProspect(0.54, 0.74, (4000.0, 3000.0, 0.0))
    value = m.value_batch(np.array([[0.2, 0.5, 0.3]]))[0]
    assert value == pytest.approx(49.60691000911335, abs=1e-9)


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
    assert t.value_batch(np.array([[0.5, 0.3, 0.2]]))[0] == pytest.approx(0.3)


# Every model constructor with one parameter set to x; all other parameters valid.
MODELS_OF_ONE_PARAMETER = {
    "eu-utility": lambda x: ExpectedUtility((x, 1.0)),
    "cpt-value-exponent": lambda x: CumulativeProspect(x, 0.7, (1.0, 0.0)),
    "cpt-weight-exponent": lambda x: CumulativeProspect(0.5, x, (1.0, 0.0)),
    "cpt-prize": lambda x: CumulativeProspect(0.5, 0.7, (x, 1.0, 0.0)),
    "tabulated-utility": lambda x: TabulatedUtility(lambda p: x * p[0], 2),
    "seu-prior": lambda x: SubjectiveExpected((x, 1.0)),
    "meu-prior": lambda x: MaxminExpected(((x, 1.0),)),
    "smooth-prior": lambda x: SmoothAmbiguity("sqrt1pz2", ((x, 1.0),), (1.0,)),
    "smooth-weight": lambda x: SmoothAmbiguity("sqrt1pz2", ((0.5, 0.5),), (x,)),
    "ces-weight": lambda x: CESUtility((x, 1.0), 0.5),
    "ces-rho": lambda x: CESUtility((1.0, 1.0), x),
    "lpb-prior": lambda x: LinearPlusBounded((x, 1.0), 0.5),
    "lpb-bump": lambda x: LinearPlusBounded((0.5, 0.5), x),
    "exponential": lambda x: Exponential(x),
    "qh-beta": lambda x: QuasiHyperbolic(x, 0.9),
    "qh-delta": lambda x: QuasiHyperbolic(0.9, x),
    "hyperbolic": lambda x: Hyperbolic(x),
    "tabulated-discount": lambda x: TabulatedDiscount((1.0, x, 0.5)),
    "linear-delay-x-bar": lambda x: LinearDelay(x),
    "linear-delay-rate": lambda x: LinearDelay(1.0, x),
    "log-delay-x-bar": lambda x: LogDelay(x, 0.1),
    "log-delay-k": lambda x: LogDelay(1.0, x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", MODELS_OF_ONE_PARAMETER.values(), ids=MODELS_OF_ONE_PARAMETER)
def test_every_model_refuses_a_non_finite_parameter(build, value):
    with pytest.raises(InvalidModel):
        build(value)


def test_value_does_not_mutate_input():
    m = ExpectedUtility((1.0, 0.0))
    probs = [0.25, 0.75]
    m.value_batch([probs])
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
    assert discount(t, 2) == pytest.approx(0.81, rel=1e-15)
    with pytest.raises(InvalidModel):
        TabulatedDiscount((0.9, 0.8))  # d(0) must be 1
    with pytest.raises(InvalidModel):
        TabulatedDiscount((1.0, 0.0))  # strictly positive
    with pytest.raises(InvalidModel):
        t.log_d(3)  # beyond the horizon


# --- grids -----------------------------------------------------------------

def test_simplex_grid_is_lattice_with_denominator_resolution():
    pts = _simplex_lattice(3, 2)
    assert len(pts) == 6  # compositions of 2 into 3 parts
    as_tuples = {tuple(p) for p in pts}
    assert (1.0, 0.0, 0.0) in as_tuples
    assert (0.0, 0.5, 0.5) in as_tuples
    for p in pts:
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)


def test_simplex_grid_count_matches_binomial():
    pts = _simplex_lattice(3, 101)
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


def test_box_grid_spans_the_bound():
    box = _box_grid(2, 3, 10.0)
    assert box.shape == (9, 2)
    assert [0.0, 0.0] in box.tolist()
    assert [10.0, 10.0] in box.tolist()


def test_grid_rejects_bad_arguments():
    with pytest.raises(InvalidModel):
        SimplexSampler(resolution=0).grid(3)
    with pytest.raises(InvalidModel):
        _box_grid(2, 1, 1.0)
    with pytest.raises(InvalidModel):
        grid_size("noplace", 2, 3)


def test_grid_cap_is_checked_from_the_count():
    # counts come from arithmetic alone; nothing near these sizes is allocated
    assert grid_size("box", 3, 10 ** 6) == 10 ** 18
    assert grid_size("simplex", 4, 101) == math.comb(104, 3)
    with pytest.raises(InvalidModel, match="unknown space"):
        grid_size("interval", 1, 1001)
    with pytest.raises(InvalidModel, match="exceeds the cap"):
        _box_grid(3, 10 ** 6, 1.0)
    with pytest.raises(InvalidModel, match="exceeds the cap"):
        SimplexSampler(resolution=10 ** 4).grid(6)
    assert len(_box_grid(1, MAX_GRID_POINTS, 1.0)) == MAX_GRID_POINTS
    with pytest.raises(InvalidModel, match="exceeds the cap"):
        _box_grid(1, MAX_GRID_POINTS + 1, 1.0)


# --- dyadic tail sums ------------------------------------------------------

def test_dyadic_tail_sum_constant_terms_divergent():
    # terms pinned at 0.2 never decay: classified divergent, partial sum kept
    total, converged = dyadic_tail_sum([0.2] * 21)
    assert not converged
    assert total == pytest.approx(0.2 * 21, rel=1e-12)


def test_dyadic_tail_sum_geometric_convergent():
    total, converged = dyadic_tail_sum([0.5 ** i for i in range(41)])
    assert converged
    assert total == pytest.approx(2.0, rel=1e-9)


def test_dyadic_tail_sum_zero_terms_convergent():
    total, converged = dyadic_tail_sum([0.0] * 11)
    assert converged
    assert total == 0.0


@pytest.mark.parametrize("terms", [[0.5, -0.25, 0.125], [0.5, math.nan], [math.inf, 0.5], []],
                         ids=["negative", "nan", "infinite", "empty"])
def test_dyadic_tail_sum_refuses_bad_terms(terms):
    with pytest.raises(InvalidModel):
        dyadic_tail_sum(terms)


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
