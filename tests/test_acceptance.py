"""Acceptance gate: the eleven desk-scale checks, at their stated tolerances.

Each criterion prints one "[criterion N] PASS/FAIL" line and asserts both
its numerical claims and its time budget. Criterion 2 states the weighting
curve's maximum gap stays at or below 0.1; the measured maximum is
0.10077602748463332, so that test fails by design and documents the true
value rather than widening the cap.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

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
)
from nearrep.timepref import (
    Exponential,
    LinearDelay,
    LogDelay,
    QuasiHyperbolic,
    continuous_gamma_curve,
    exact_recovery,
    fit_gamma,
    gamma_of,
    measure_eps_stationarity,
    measure_lambda_lipschitz,
    theta_over_sample,
    verify_exp3_bound,
    verify_exp_bound,
)
from nearrep.uncertainty import (
    BoxSampler,
    MaxminExpected,
    SmoothAmbiguity,
    SubjectiveExpected,
    ce_batch,
    ce_utility,
    dyadic_phi_series,
    extract_prior,
    measure_eps_ua,
    quasiconcavify,
    smooth_ambiguity_bound,
    theta_estimate,
    verify_quasiconcave_bound,
)


@contextmanager
def criterion(n: int, budget_seconds: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed > budget_seconds:
        print(f"[criterion {n}] FAIL (time {elapsed:.2f}s > {budget_seconds}s)")
        raise AssertionError(
            f"criterion {n} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")
    print(f"[criterion {n}] PASS ({elapsed:.2f}s)")


def test_criterion_01_allais_pattern():
    with criterion(1, 1.0):
        rep = allais_report()
        assert rep.values["B"] > rep.values["A"]
        assert rep.values["C"] > rep.values["D"]
        assert rep.values["D'"] > rep.values["C"]
        assert rep.exhibits_common_ratio_effect
        assert rep.reversal_restored
        assert 0.25 < rep.lambda_star < 0.27


def test_criterion_02_weighting_gap_cap():
    with criterion(2, 1.0):
        fig = figure1_data(resolution=1001)
        # measured: 0.10077602748463332 at p = 0.83300810...; this assertion
        # states the claimed cap and fails honestly
        assert fig.max_abs_gap <= 0.1


def test_criterion_03_cpt_support_bound_fine_grid():
    with criterion(3, 30.0):
        model = CumulativeProspect(0.54, 0.74, (4000.0, 3000.0, 0.0))
        sampler = SimplexSampler(resolution=101, n_random_triples=200)
        u = mixture_utility_batch(model, sampler.grid(3))
        rep = measure_eps_rcl(model, u, sampler)
        bench = build_affine_benchmark(model)
        near = verify_thm1(u, bench, rep.value, sampler, slack=1e-7)
        assert near.achieved_distance <= near.bound + 1e-7
        assert near.details["n_points"] == math.comb(103, 2)


def test_criterion_04_converse_four_eps():
    with criterion(4, 30.0):
        eps = 0.01
        base = (1.0, 0.4, 0.0)

        def fn(probs):
            lin = sum(c * v for c, v in zip(base, probs))
            bump = 1.0
            for v in probs:
                bump *= math.sin(math.pi * v)
            return lin + 0.9 * eps * bump

        model = TabulatedUtility(fn, 3)
        sampler = SimplexSampler(resolution=21, n_random_triples=200)
        bench = build_affine_benchmark(model)
        rep = converse_check_4eps(model, bench, eps, sampler)
        assert rep.details["passes_4eps"]
        assert rep.value < 4 * eps


def test_criterion_05_smooth_uniform_cap():
    with criterion(5, 10.0):
        priors = ((0.3, 0.7), (0.8, 0.2))
        for f_name in ("sqrt1pz2", "z_minus_exp"):
            model = SmoothAmbiguity(f_name, priors, (0.5, 0.5))
            sampler = BoxSampler(2, bound=10.0, resolution=50)
            rep, _table = smooth_ambiguity_bound(model, sampler)
            assert rep.achieved_distance <= 1.0 + 1e-12
            assert abs(rep.details["defect_at_zero"] - 1.0) <= 1e-9
            bench = extract_prior(model)
            for got, want in zip(bench.prior, model.mean_prior):
                assert abs(got - want) <= 1e-6


def test_criterion_06_meu_divergence_and_homothetic_exactness():
    with criterion(6, 10.0):
        model = MaxminExpected(((0.3, 0.7), (0.7, 0.3)))
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        partials, converged = dyadic_phi_series(model, e1, e2, n_max=20)
        assert not converged
        for n, s in enumerate(partials):
            assert abs(s - 0.2 * (n + 1)) <= 1e-9
        for x in (np.array([1.0, 0.0]), np.array([2.0, 1.0]),
                  np.array([0.3, 5.0])):
            u = ce_utility(model, x)
            for n in range(1, 11):
                scale = 2.0 ** n
                assert abs(ce_utility(model, scale * x) / scale - u) <= 1e-9


def test_criterion_07_quasiconcave_envelope_two_states():
    with criterion(7, 10.0):
        model = SmoothAmbiguity("sqrt1pz2", ((0.3, 0.7), (0.8, 0.2)), (0.5, 0.5))
        env = quasiconcavify(model, box_bound=10.0, resolution=41)
        assert np.all(env.v_values >= env.u_values)
        sampler = BoxSampler(2, bound=10.0, resolution=21, n_random_pairs=100)
        ua = measure_eps_ua(model, ce_batch(model, sampler.points()), sampler,
                            extra_probes=env.probes)
        rep = verify_quasiconcave_bound(env, ua.value)
        assert rep.achieved_distance <= 2 * ua.value + rep.details["slack"]


def test_criterion_08_quasi_hyperbolic_tight():
    with criterion(8, 1.0):
        model = QuasiHyperbolic(0.9, 0.95)
        theta_rep, converged = theta_over_sample(model, (1, 2, 3, 5, 8))
        assert converged
        assert abs(theta_rep.value - abs(math.log(0.9))) <= 1e-9
        fit = fit_gamma(model)
        assert abs(fit.gamma - 0.95) <= 1e-6
        rep = verify_exp_bound(model, fit.gamma, theta_rep.value,
                               t_range=range(0, 201), tol=1e-9)
        assert abs(rep.achieved_distance - theta_rep.value) <= 1e-9


def test_criterion_09_exact_recovery():
    with criterion(9, 1.0):
        rec = exact_recovery(Exponential(0.9), 0.0)
        assert rec.parameters["tau"] == 14
        assert abs(rec.parameters["gamma"] - 0.9) <= 1e-9
        assert rec.achieved_distance <= 1e-9
        rec2 = exact_recovery(Exponential(0.5), 0.1)
        assert rec2.parameters["tau"] == 2
        assert abs(rec2.parameters["gamma"] - 0.5) <= 1e-9


def test_criterion_10_continuous_shift_bounds():
    with criterion(10, 10.0):
        xs = np.linspace(0.0, 2.0, 9)
        ts = np.linspace(0.0, 10.0, 11)
        deltas = [0.5, 1.0, 2.0]
        logd = LogDelay(2.0, 0.1)
        curve = continuous_gamma_curve(logd, xs)
        eps = measure_eps_stationarity(logd, curve, deltas)
        lam = measure_lambda_lipschitz(logd, xs, ts, deltas)
        rep = verify_exp3_bound(logd, curve, eps.value, lam.value, ts, tol=1e-6)
        assert rep.achieved_distance <= lam.value * eps.value + 1e-6
        lin = LinearDelay(2.0)
        curve_l = continuous_gamma_curve(lin, xs)
        eps_l = measure_eps_stationarity(lin, curve_l, deltas)
        lam_l = measure_lambda_lipschitz(lin, xs, ts, deltas)
        rep_l = verify_exp3_bound(lin, curve_l, eps_l.value, lam_l.value, ts, tol=1e-7)
        assert rep_l.achieved_distance <= 1e-7


def test_criterion_11_exact_models_report_zero():
    with criterion(11, 30.0):
        # mixture meters on expected utility
        eu = ExpectedUtility((1.0, 0.4, 0.0))
        sampler = SimplexSampler(resolution=9, n_random_triples=60, n_pairs=10)
        G = sampler.grid(3)
        u = mixture_utility_batch(eu, G)
        assert measure_eps_rcl(eu, u, sampler).value <= 1e-7
        assert measure_eps_independence(eu, sampler).value <= 1e-7
        bench = build_affine_benchmark(eu)
        assert max(abs(a - b) for a, b in zip(bench.coefficients,
                                              (1.0, 0.4, 0.0))) <= 1e-7
        for p, u_p in zip(G, u):
            assert abs(u_p - bench.evaluate(p)) <= 1e-7
        # act meters on a subjective-expected model
        seu = SubjectiveExpected((0.3, 0.7))
        box = BoxSampler(2, resolution=5, n_random_pairs=20)
        theta_rep, converged = theta_estimate(seu, box)
        assert converged and theta_rep.value <= 1e-7
        prior = extract_prior(seu)
        assert max(abs(a - b) for a, b in zip(prior.prior, (0.3, 0.7))) <= 1e-7
        for x in box.points():
            assert abs(ce_utility(seu, x) - prior.evaluate(x)) <= 1e-7
        # discount meters on an exponential curve
        exp = Exponential(0.9)
        theta_t, conv_t = theta_over_sample(exp, (1, 2, 3, 5, 8))
        assert conv_t and theta_t.value <= 1e-7
        fit = fit_gamma(exp)
        assert abs(fit.gamma - 0.9) <= 1e-7
        assert verify_exp_bound(exp, fit.gamma, theta_t.value,
                                t_range=range(0, 50)).achieved_distance <= 1e-7
        # continuous-time meters on the exactly stationary model
        lin = LinearDelay(2.0)
        xs = np.linspace(0.0, 2.0, 9)
        curve = continuous_gamma_curve(lin, xs)
        assert measure_eps_stationarity(lin, curve, [0.5, 1.0]).value <= 1e-7
        for x, g in zip(curve.xs, curve.gammas):
            assert abs(g - lin.gamma_closed_form(x)) <= 1e-7
        assert gamma_of(lin, 2.0) == 0.0
