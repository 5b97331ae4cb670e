"""Discount-curve meters, rate fitting, and continuous-time shift bounds."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearrep.core import (
    BoundViolated,
    HypothesisFailed,
    NoBracket,
    NoSuchTau,
    discount,
)
from nearrep.timepref import (
    Exponential,
    Hyperbolic,
    LinearDelay,
    LogDelay,
    QuasiHyperbolic,
    TabulatedDiscount,
    continuous_gamma_curve,
    exact_recovery,
    fit_gamma,
    gamma_of,
    measure_W_axiom,
    measure_eps_stationarity,
    measure_lambda_lipschitz,
    psi,
    theta_over_sample,
    theta_series,
    verify_exp3_bound,
    verify_exp_bound,
)

QH = QuasiHyperbolic(0.9, 0.95)
EXP9 = Exponential(0.9)
HYP = Hyperbolic(0.1)


# --- stationarity defect psi --------------------------------------------------

def test_psi_symmetric_and_zero_for_exponential():
    assert psi(EXP9, 3, 5) == pytest.approx(psi(EXP9, 5, 3), abs=1e-15)
    for s, t in [(1, 1), (2, 5), (7, 3)]:
        assert psi(EXP9, s, t) <= 1e-12


def test_psi_quasi_hyperbolic_is_log_beta():
    # for s, t >= 1 exactly one extra present-bias factor survives
    for s, t in [(1, 1), (2, 3), (5, 8)]:
        assert psi(QH, s, t) == pytest.approx(abs(math.log(0.9)), abs=1e-12)
    assert psi(QH, 0, 4) <= 1e-12  # t = 0 contributes log d(0) = 0


# --- dyadic theta series --------------------------------------------------------

def test_theta_series_qh_frozen():
    rep = theta_series(QH, 1, n_max=40)
    assert rep.details["converged"]
    assert rep.value == pytest.approx(abs(math.log(0.9)), abs=1e-9)


def test_theta_series_hyperbolic_telescopes():
    # partial sums collapse to log(1 + k) - 2^{-(N+1)} log(1 + k 2^{N+1})
    rep = theta_series(HYP, 1, n_max=40)
    assert rep.details["converged"]
    assert rep.value == pytest.approx(math.log(1.1), abs=1e-9)


def test_theta_over_sample_tracks_worst_t():
    rep, converged = theta_over_sample(QH, (1, 2, 3, 5, 8), n_max=40)
    assert converged
    assert rep.value == pytest.approx(abs(math.log(0.9)), abs=1e-9)
    assert set(rep.details["witness_partial_sums"]) or True


# --- rate fitting ----------------------------------------------------------------

def test_fit_gamma_exponential_round_trip():
    fit = fit_gamma(EXP9, n_max=40)
    assert fit.gamma == pytest.approx(0.9, abs=1e-9)
    assert not fit.degenerate


def test_fit_gamma_qh_extrapolates_exactly():
    # increments -2^{-n} log beta halve each step; the geometric tail closes
    # the series at log delta exactly
    fit = fit_gamma(QH, n_max=40)
    assert fit.extrapolated
    assert fit.gamma == pytest.approx(0.95, abs=1e-12)


def test_fit_gamma_hyperbolic_degenerate():
    fit = fit_gamma(HYP, n_max=40)
    assert fit.degenerate
    assert fit.gamma >= 1.0 - 1e-9


def test_verify_exp_bound_exponential_zero():
    rep = verify_exp_bound(EXP9, 0.9, 0.0, t_range=range(0, 50), tol=1e-9)
    assert rep.achieved_distance <= 1e-12


def test_verify_exp_bound_qh_equality():
    theta = abs(math.log(0.9))
    rep = verify_exp_bound(QH, 0.95, theta, t_range=range(0, 100), tol=1e-9)
    # the bound is attained: sup defect equals theta itself
    assert abs(rep.achieved_distance - theta) <= 1e-9


def test_verify_exp_bound_rejects_false_rate():
    with pytest.raises(BoundViolated):
        verify_exp_bound(EXP9, 0.5, 0.0, t_range=range(1, 10), tol=1e-9)


def test_perturbed_exponential_band(monkeypatch):
    # d(t) = gamma^t (1 + a sin t): the defect against the true rate is the
    # wobble itself, so the curve passes a band of |log(1 - a)| and the fit
    # (at a tolerance matching the wobble) lands near the true rate
    a = 0.003
    values = tuple((0.9 ** t) * (1.0 + a * math.sin(t)) for t in range(0, 33))
    model = TabulatedDiscount(values)
    monkeypatch.setattr("nearrep.timepref.FIT_TOL", 0.02)
    fit = fit_gamma(model, n_max=5)
    assert abs(fit.gamma - 0.9) < 0.01
    band = abs(math.log(1.0 - a)) + 1e-12
    sup = max(abs(model.log_d(t) - t * math.log(0.9)) for t in range(0, 33))
    assert sup <= band
    rep = verify_exp_bound(model, 0.9, band, t_range=range(0, 33), tol=1e-12)
    assert rep.achieved_distance == pytest.approx(sup, abs=1e-15)


# --- multiplicative meter and recovery -------------------------------------------

def test_w_axiom_exponential_tiny():
    rep = measure_W_axiom(EXP9, t_max=16)
    assert rep.value <= 1e-12


def test_w_axiom_qh_positive_with_witness():
    rep = measure_W_axiom(QH, t_max=16)
    assert rep.value > 0.01
    assert {"s", "t"} <= set(rep.witness)


def test_w_axiom_needs_strict_decrease():
    flat = TabulatedDiscount((1.0, 0.9, 0.9))
    with pytest.raises(HypothesisFailed):
        measure_W_axiom(flat, t_max=2)


def test_exact_recovery_exponential():
    rec = exact_recovery(EXP9, 0.0)
    assert rec.parameters["tau"] == 14
    assert rec.parameters["gamma"] == pytest.approx(0.9, abs=1e-9)
    assert rec.achieved_distance <= 1e-9


def test_exact_recovery_threshold_uses_theta():
    rec = exact_recovery(Exponential(0.5), 0.1)
    # threshold min(1/4, 1/(4 * 0.1)) = 1/4 first crossed at tau = 2
    assert rec.parameters["tau"] == 2
    assert rec.parameters["gamma"] == pytest.approx(0.5, abs=1e-12)


def test_exact_recovery_qh_closed_form():
    theta_w = measure_W_axiom(QH, t_max=16).value
    rec = exact_recovery(QH, theta_w)
    tau = rec.parameters["tau"]
    expected = QH.delta * QH.beta ** (1.0 / tau)
    assert rec.parameters["gamma"] == pytest.approx(expected, abs=1e-12)


def test_exact_recovery_no_tau():
    short = TabulatedDiscount((1.0, 0.9, 0.8))
    with pytest.raises(NoSuchTau):
        exact_recovery(short, 0.0)


# --- continuous time ---------------------------------------------------------------

LIN = LinearDelay(2.0)
LOGD = LogDelay(2.0, 0.1)


def test_gamma_matches_closed_forms():
    for x in (0.2, 1.0, 1.7):
        assert gamma_of(LIN, x) == 2.0 - x
        assert gamma_of(LOGD, x) == math.expm1(2.0 - x) / 0.1


def test_gamma_frozen_log_delay():
    assert gamma_of(LOGD, 0.5) == pytest.approx(34.81689070338064, abs=1e-12)


def _doubling_bisection(model, v, tol=1e-9):
    # the t with u(x_bar, t) = v: double a bracket from 1 until the delayed
    # ceiling drops to v, then halve it down to tol
    def f(t):
        return model.value(model.x_bar, t) - v

    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=200, deadline=None)
@given(x_bar=st.floats(1.0, 5.0), rate=st.floats(0.5, 2.0), k=st.floats(0.1, 1.0),
       below=st.floats(0.0, 2.0))
def test_delay_at_agrees_with_a_doubling_bisection(x_bar, rate, k, below):
    # over the ranges of the benchmark's continuous scenarios
    v = x_bar - below
    for model in (LinearDelay(x_bar, rate), LogDelay(x_bar, k)):
        assert abs(model.delay_at(v) - _doubling_bisection(model, v)) <= 1e-9


def test_gamma_at_ceiling_exact_zero():
    assert gamma_of(LIN, 2.0) == 0.0
    assert gamma_of(LOGD, 2.0) == 0.0


@pytest.mark.parametrize("model,x", [(LogDelay(2.0, 0.1), -800.0),  # e^802 overflows
                                     (LinearDelay(2.0, 1e-20), 1.0)])  # a delay of 1e20
def test_gamma_refuses_a_delay_beyond_the_cap(model, x):
    # the message names BRACKET_CAP, 2^60
    with pytest.raises(NoBracket, match=r"^u\(x_bar, t\) stays above "
                       + re.escape(f"{x!r} out to t=1.152921504606847e+18; no indifference delay")):
        gamma_of(model, x)


def test_stationarity_refuses_a_shift_beyond_the_cap():
    # delta' = delta (1 + k gamma(1)) is about 2.7e18, above 2^60
    curve = continuous_gamma_curve(LOGD, [1.0])
    with pytest.raises(NoBracket, match=re.escape("delayed ceiling never reaches u(1.0, 1e+18)")):
        measure_eps_stationarity(LOGD, curve, [1e18])
    # u(1, 1e308) lies so far below the ceiling that its delay overflows a float
    with pytest.raises(NoBracket, match=re.escape("delayed ceiling never reaches u(1.0, 1e+308)")):
        measure_eps_stationarity(LOGD, curve, [1e308])


def test_stationarity_caps_the_shift_not_the_delay():
    # gamma(1.5) = 5e17 and delta' = 1e18 are each below 2^60; their sum is not
    model = LinearDelay(2.0, 1e-18)
    rep = measure_eps_stationarity(model, continuous_gamma_curve(model, [1.5]), [1e18])
    assert rep.value == 0.0


def test_gamma_curve_validates_time_zero_payoff():
    curve = continuous_gamma_curve(LOGD, [0.5, 1.0, 2.0])
    assert curve.gammas[-1] == 0.0
    header, rows = curve.table()
    assert header == ["x", "gamma"]
    assert len(rows) == 3


def test_stationarity_linear_exact():
    rep = measure_eps_stationarity(LIN, continuous_gamma_curve(LIN, [0.5, 1.0, 1.5]), [0.5, 1.0])
    assert rep.value <= 1e-13


def test_stationarity_log_delay_closed_form():
    # Delta' = Delta (1 + k gamma(x)): shifting to the ceiling stretches the
    # indifference delay by the elapsed-time factor
    xs = [0.5, 1.0]
    deltas = [0.5, 1.0, 2.0]
    rep = measure_eps_stationarity(LOGD, continuous_gamma_curve(LOGD, xs), deltas)
    expected = 0.0
    for x in xs:
        g = LOGD.delay_at(x)
        for delta in deltas:
            expected = max(expected, abs(delta * (1.0 + 0.1 * g) - delta))
    assert rep.value == pytest.approx(expected, rel=1e-6)


def test_lambda_lipschitz_linear_is_one():
    rep = measure_lambda_lipschitz(LIN, [0.5, 1.0, 1.5], [0.0, 1.0, 2.0],
                                   [0.5, 1.0])
    assert rep.value == pytest.approx(1.0, abs=1e-9)


def test_lambda_lipschitz_log_delay():
    deltas = [0.5, 1.0]
    rep = measure_lambda_lipschitz(LOGD, [0.5, 1.0], [0.0, 1.0], deltas)
    # slope of -log1p(k t) is steepest at t = 0 over the smallest step
    dmin = min(deltas)
    expected = math.log1p(0.1 * dmin) / dmin
    assert rep.value == pytest.approx(expected, rel=1e-9)


def test_verify_exp3_linear_tight(monkeypatch):
    xs = np.linspace(0.0, 2.0, 9)
    ts = np.linspace(0.0, 10.0, 11)
    curve = continuous_gamma_curve(LIN, xs)
    eps = measure_eps_stationarity(LIN, curve, [0.5, 1.0, 2.0])
    lam = measure_lambda_lipschitz(LIN, xs, ts, [0.5, 1.0, 2.0])
    monkeypatch.setattr("nearrep.timepref.VERIFY_TOL", 1e-7)
    rep = verify_exp3_bound(LIN, curve, eps.value, lam.value, ts)
    assert rep.achieved_distance <= 1e-7


def test_verify_exp3_log_delay():
    xs = np.linspace(0.0, 2.0, 9)
    ts = np.linspace(0.0, 10.0, 11)
    curve = continuous_gamma_curve(LOGD, xs)
    eps = measure_eps_stationarity(LOGD, curve, [0.5, 1.0, 2.0])
    lam = measure_lambda_lipschitz(LOGD, xs, ts, [0.5, 1.0, 2.0])
    rep = verify_exp3_bound(LOGD, curve, eps.value, lam.value, ts)
    assert rep.achieved_distance <= lam.value * eps.value + 1e-6
    assert rep.bound == pytest.approx(lam.value * eps.value)
