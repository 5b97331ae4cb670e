"""Mixture-linearity meters, affine benchmarks, and the worked examples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearrep.core import (
    BoundViolated,
    HypothesisFailed,
    InvalidModel,
    Lottery,
)
from nearrep.risk import (
    CumulativeProspect,
    ExpectedUtility,
    SimplexSampler,
    TabulatedUtility,
    allais_report,
    build_affine_benchmark,
    converse_check_4eps,
    figure1_data,
    measure_eps_independence,
    measure_eps_rcl,
    mixture_utility_batch,
    verify_thm1,
    verify_thm2,
)

EU3 = ExpectedUtility((1.0, 0.4, 0.0))
CPT2 = CumulativeProspect(0.54, 0.74, (1.0, 0.0))
CPT3 = CumulativeProspect(0.54, 0.74, (4000.0, 3000.0, 0.0))


def _calibrated(model, p: Lottery) -> float:
    return float(mixture_utility_batch(model, [p.probs])[0])


def _grid_utility(model, sampler):
    return mixture_utility_batch(model, sampler.grid(model.n_outcomes))


# --- calibrated utility ----------------------------------------------------

def test_mixture_utility_matches_normalized_eu():
    # calibration maps value range [0, 1] onto segment weight directly
    for probs in [(0.5, 0.25, 0.25), (0.1, 0.8, 0.1), (0.0, 1.0, 0.0)]:
        p = Lottery(probs)
        expected = EU3.value(p.probs)  # utilities already span [0, 1]
        assert _calibrated(EU3, p) == pytest.approx(expected, abs=1e-9)


def test_mixture_utility_cpt_two_prize_is_probability():
    # with two prizes the calibration segment is the whole simplex, so the
    # calibrated utility of (p, 1-p) is p itself
    for p in (0.0, 0.1, 0.37, 0.5, 0.93, 1.0):
        got = _calibrated(CPT2, Lottery((p, 1.0 - p)))
        assert got == pytest.approx(p, abs=2e-9)


def test_mixture_utility_cpt3_known_alpha():
    # frozen: the sure-3000 lottery sits at g^{-1}(w(3000)/w(4000)) on the
    # best-worst segment
    got = _calibrated(CPT3, Lottery((0.0, 1.0, 0.0)))
    assert got == pytest.approx(0.9367900900754369, abs=1e-8)


def test_mixture_utility_endpoints_exact():
    assert _calibrated(CPT3, Lottery((1.0, 0.0, 0.0))) == 1.0
    assert _calibrated(CPT3, Lottery((0.0, 0.0, 1.0))) == 0.0


# --- affine benchmark ------------------------------------------------------

def test_benchmark_coefficients():
    b_eu = build_affine_benchmark(EU3)
    assert b_eu.coefficients == pytest.approx((1.0, 0.4, 0.0), abs=1e-9)
    b3 = build_affine_benchmark(CPT3)
    assert b3.coefficients[0] == 1.0
    assert b3.coefficients[2] == 0.0
    assert b3.coefficients[1] == pytest.approx(0.9367900900754369, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_benchmark_is_affine_in_mixtures(a, b, lam):
    total = a + b
    if total > 1.0:
        a, b = a / total, b / total
    p = Lottery((a, b, max(1.0 - a - b, 0.0)))
    q = Lottery((0.2, 0.5, 0.3))
    bench = build_affine_benchmark(EU3)
    mixed = bench.evaluate(p.mix(q, lam))
    split = lam * bench.evaluate(p) + (1 - lam) * bench.evaluate(q)
    assert mixed == pytest.approx(split, abs=1e-12)


# --- reduction meter and support bound -------------------------------------

def test_eps_rcl_expected_utility_is_tiny():
    sampler = SimplexSampler(resolution=7, n_random_triples=40)
    rep = measure_eps_rcl(EU3, _grid_utility(EU3, sampler), sampler)
    assert rep.value <= 1e-7
    assert rep.samples_evaluated > 0


@pytest.mark.parametrize("resolution", [21, 41, 81])
def test_expected_utility_control_is_exact_at_rounding_level(resolution):
    # the closed-form calibration leaves no bisection noise in the control
    model = ExpectedUtility((1.0, 0.2013, 0.0))
    sampler = SimplexSampler(resolution=resolution)
    u = _grid_utility(model, sampler)
    rep = measure_eps_rcl(model, u, sampler)
    near = verify_thm1(u, build_affine_benchmark(model), rep.value, sampler)
    assert rep.details["max_defect"] <= 1e-13
    assert near.achieved_distance <= 1e-13


def test_eps_rcl_cpt_two_prize_is_tiny():
    # two-prize calibrated utility is the identity, so defects vanish
    sampler = SimplexSampler(resolution=9, n_random_triples=40)
    rep = measure_eps_rcl(CPT2, _grid_utility(CPT2, sampler), sampler)
    assert rep.value <= 1e-7


def test_eps_rcl_cpt_three_prize_positive():
    sampler = SimplexSampler(resolution=7, n_random_triples=40)
    rep = measure_eps_rcl(CPT3, _grid_utility(CPT3, sampler), sampler)
    assert 1e-4 < rep.value < 0.5
    assert set(rep.witness) >= {"left", "right", "lam", "mixture"}


def test_verify_thm1_passes_for_measured_eps():
    sampler = SimplexSampler(resolution=7, n_random_triples=40)
    u = _grid_utility(CPT3, sampler)
    rep = measure_eps_rcl(CPT3, u, sampler)
    bench = build_affine_benchmark(CPT3)
    near = verify_thm1(u, bench, rep.value, sampler)
    assert near.kind == "affine"
    assert near.achieved_distance <= near.bound + 1e-7
    d = CPT3.n_outcomes - 1
    assert near.bound == pytest.approx(d * rep.value)


def test_verify_thm1_support_rule_is_per_point():
    # every sampled lottery respects (support - 1) * eps + slack, which is
    # strictly tighter than the global d * eps bound on the edges
    sampler = SimplexSampler(resolution=7, n_random_triples=0)
    grid_u = _grid_utility(CPT3, sampler)
    rep = measure_eps_rcl(CPT3, grid_u, sampler)
    bench = build_affine_benchmark(CPT3)
    for row, u in zip(sampler.grid(3).tolist(), grid_u):
        p = Lottery(tuple(row))
        gap = abs(u - bench.evaluate(p))
        if p.is_degenerate:
            assert gap <= 1e-12
        else:
            assert gap <= (p.support_size - 1) * rep.value + 1e-7


def test_verify_thm1_rejects_eps_zero_for_nonlinear_model():
    sampler = SimplexSampler(resolution=7, n_random_triples=0)
    bench = build_affine_benchmark(CPT3)
    with pytest.raises(BoundViolated):
        verify_thm1(_grid_utility(CPT3, sampler), bench, 0.0, sampler, slack=1e-12)


# --- converse: sup closeness forces small defects ---------------------------

def _sine_bump(probs) -> float:
    out = 1.0
    for v in probs:
        out *= math.sin(math.pi * v)
    return out


def _perturbed(amplitude: float) -> TabulatedUtility:
    base = (1.0, 0.4, 0.0)

    def fn(probs):
        lin = sum(c * v for c, v in zip(base, probs))
        return lin + amplitude * _sine_bump(probs)

    return TabulatedUtility(fn, 3)


def test_converse_exact_model_has_tiny_defects():
    sampler = SimplexSampler(resolution=9, n_random_triples=40)
    bench = build_affine_benchmark(EU3)
    rep = converse_check_4eps(EU3, bench, 0.01, sampler)
    assert rep.value <= 1e-7
    assert rep.details["passes_4eps"]


def test_converse_within_eps_stays_under_4eps():
    eps = 0.01
    model = _perturbed(0.9 * eps)  # sine bump peaks near 0.65 of amplitude
    sampler = SimplexSampler(resolution=9, n_random_triples=60)
    bench = build_affine_benchmark(model)
    rep = converse_check_4eps(model, bench, eps, sampler)
    assert rep.details["passes_4eps"]
    assert rep.value < 4 * eps
    assert rep.details["ratio_to_eps"] < 4.0


def test_converse_rejects_model_outside_eps():
    eps = 0.01
    model = _perturbed(1.6 * eps)  # barycenter value exceeds eps
    sampler = SimplexSampler(resolution=9, n_random_triples=0)
    bench = build_affine_benchmark(model)
    with pytest.raises(HypothesisFailed):
        converse_check_4eps(model, bench, eps, sampler)


# --- independence meter and square bound ------------------------------------

def test_eps_independence_eu_tiny():
    sampler = SimplexSampler(resolution=7, n_pairs=10, n_alphas=3)
    rep = measure_eps_independence(EU3, sampler)
    assert rep.value <= 1e-7


def test_eps_independence_cpt3_positive():
    sampler = SimplexSampler(resolution=7, n_pairs=10, n_alphas=3)
    rep = measure_eps_independence(CPT3, sampler)
    assert rep.value > 1e-6
    assert rep.value <= 1.0


def test_verify_thm2_bound_holds():
    sampler = SimplexSampler(resolution=7, n_pairs=10, n_alphas=3)
    rep = measure_eps_independence(CPT3, sampler)
    near = verify_thm2(_grid_utility(CPT3, sampler), build_affine_benchmark(CPT3), rep.value,
                       sampler)
    assert near.details["factor"] == 9  # (d + 1)^2 with d = 2
    assert near.achieved_distance <= near.bound + 1e-7


@pytest.mark.parametrize("verifier", ["measure_eps_rcl", "verify_thm1", "verify_thm2"])
@pytest.mark.parametrize("extra", [False, True], ids=["one-short", "one-extra"])
def test_a_utility_array_that_does_not_fit_the_grid_is_refused(verifier, extra):
    sampler = SimplexSampler(resolution=5, n_random_triples=10)
    u = _grid_utility(CPT3, sampler)
    u = np.append(u, 0.5) if extra else u[:-1]
    bench = build_affine_benchmark(CPT3)
    call = {"measure_eps_rcl": lambda: measure_eps_rcl(CPT3, u, sampler),
            "verify_thm1": lambda: verify_thm1(u, bench, 0.1, sampler),
            "verify_thm2": lambda: verify_thm2(u, bench, 0.1, sampler)}[verifier]
    with pytest.raises(InvalidModel, match="for a grid of 21 points"):
        call()


def test_nearest_root_paths():
    from nearrep.risk import _nearest_roots

    def nearest_root(f, center, *args, **kwargs):
        return _nearest_roots(lambda a, idx: f(a), [center], *args, **kwargs)[0]

    assert nearest_root(lambda a: a - 0.6, 0.5, 0.01, 1e-10) == pytest.approx(
        0.6, abs=1e-9)
    assert math.isnan(nearest_root(np.ones_like, 0.5, 0.01, 1e-10))
    # noise floor counts as restored indifference
    assert nearest_root(lambda a: np.full_like(a, 1e-12), 0.5, 0.01, 1e-10,
                        zero_tol=1e-9) == 0.5


# --- worked examples ---------------------------------------------------------

def test_allais_frozen_values():
    rep = allais_report()
    assert rep.values["A"] == pytest.approx(61.7310272472986, abs=1e-9)
    assert rep.values["B"] == pytest.approx(75.44760837229437, abs=1e-9)
    assert rep.values["C"] == pytest.approx(22.129882621667964, abs=1e-9)
    assert rep.values["D"] == pytest.approx(21.959199909008714, abs=1e-9)
    assert rep.values["D'"] == pytest.approx(23.112058244967233, abs=1e-9)


def test_allais_pattern_flags():
    rep = allais_report()
    assert rep.prefers_sure_3000  # B over A
    assert rep.prefers_scaled_4000  # C over D
    assert rep.exhibits_common_ratio_effect
    assert rep.reversal_restored  # D' over C


def test_allais_lambda_star():
    rep = allais_report()
    assert rep.lambda_star == pytest.approx(0.2529330130885611, abs=1e-9)
    lo, hi = rep.lambda_bracket
    assert lo < rep.lambda_star < hi


def test_figure1_gap_curve():
    fig = figure1_data(resolution=101)
    assert fig.gaps[0] == 0.0
    assert fig.gaps[-1] == 0.0
    assert fig.max_abs_gap == pytest.approx(0.10077602748463332, abs=1e-9)
    assert fig.argmax_p == pytest.approx(0.8330081064197408, abs=1e-6)
    assert not fig.within_claim  # the measured peak exceeds the 0.1 cap
    header, rows = fig.table()
    assert header == ["p", "weight", "gap"]
    assert len(rows) == 101


def test_figure1_interior_gap_negative_small_p():
    # inverse-S: underweights mid probabilities, overweights small ones
    fig = figure1_data(resolution=1001)
    gaps = np.asarray(fig.gaps)
    probs = np.asarray(fig.probs)
    assert gaps[np.argmin(np.abs(probs - 0.8))] < 0.0
    assert gaps[np.argmin(np.abs(probs - 0.05))] > 0.0
