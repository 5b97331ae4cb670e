"""Doubling limits, defect series, and benchmark bounds for act models."""

import itertools
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import nearrep
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nearrep.core import (
    BISECT_TOL,
    RATIO_TOL,
    TAIL_WINDOW,
    BoundViolated,
    HypothesisFailed,
    InvalidModel,
    NotAdditive,
    NotConverged,
    dyadic_tail_sum,
)
from nearrep.uncertainty import (
    MEMBERSHIP_TOL,
    BoxSampler,
    CESUtility,
    LinearBenchmark,
    LinearPlusBounded,
    MaxminExpected,
    SmoothAmbiguity,
    SubjectiveExpected,
    _SMOOTH_FS,
    _box_grid,
    _index_pairs,
    _level_hull,
    _limit_theta,
    _not_cauchy,
    _scaled_limits,
    _tail_sums,
    ce_batch,
    dyadic_phi_series,
    extract_prior,
    measure_eps_ua,
    quasiconcavify,
    smooth_ambiguity_bound,
    theta_estimate,
    verify_aa_bound,
    verify_homog_bound,
    verify_quasiconcave_bound,
)

SEU = SubjectiveExpected((0.3, 0.7))
MEU = MaxminExpected(((0.3, 0.7), (0.7, 0.3)))
SMOOTH_SQRT = SmoothAmbiguity("sqrt1pz2", ((0.3, 0.7), (0.8, 0.2)), (0.5, 0.5))
SMOOTH_EXP = SmoothAmbiguity("z_minus_exp", ((0.3, 0.7), (0.8, 0.2)), (0.5, 0.5))
ALL_MODELS = [SEU, MEU, SMOOTH_SQRT, SMOOTH_EXP,
              CESUtility((0.4, 0.6), 0.5),
              LinearPlusBounded((0.3, 0.7), 0.5)]


def _phi(model, x, y) -> float:
    """Midpoint additivity defect |u((x+y)/2) - (u(x) + u(y))/2| of one act pair."""
    return dyadic_phi_series(model, x, y, n_max=0)[0][0]


def _limit(model, x):
    """lim 2^-n u(2^n x) of one act as verify_homog_bound solves it.

    A one-row _scaled_limits call: (value, theta, n_used, iterates, tail_bound)
    of the settled limit; raises the NotConverged verify_homog_bound would.
    """
    X = np.asarray(x, dtype=float)[None, :]
    its, stop, caps = _scaled_limits(model, X)
    if stop[0] < 0:
        raise _not_cauchy("scaling", its[0], caps[0])
    iterates = tuple(its[0, :stop[0] + 1].tolist())
    theta = _limit_theta(its, stop)[0].item()
    incs = [abs(b - a) for a, b in zip(iterates, iterates[1:])]
    return types.SimpleNamespace(value=iterates[-1], theta=theta, n_used=int(stop[0]),
                                 iterates=iterates, tail_bound=theta - math.fsum(incs))


def _homog_deviation(model, x, lam: float) -> float:
    """Scaling defect |u(lam x) - lam u(x)| of the certainty equivalent."""
    scaled, base = ce_batch(model, np.stack([lam * x, x])).tolist()
    return abs(scaled - lam * base)


# --- certainty equivalents ---------------------------------------------------

def test_ce_constant_acts_exact():
    for model in ALL_MODELS:
        for c in (0.0, 1.0, 7.5, 1000.0):
            x = np.full(2, c)
            assert ce_batch(model, x[None])[0] == c


def test_ce_seu_is_prior_dot():
    x = np.array([2.0, 5.0])
    assert ce_batch(SEU, x[None])[0] == pytest.approx(0.3 * 2 + 0.7 * 5, abs=1e-12)


def test_ce_meu_takes_worst_prior():
    x = np.array([1.0, 0.0])
    assert ce_batch(MEU, x[None])[0] == pytest.approx(0.3, abs=1e-12)


def test_ce_smooth_sqrt_frozen():
    # mean of sqrt(1 + (p_k . x)^2) mapped back through the transform
    got = ce_batch(SMOOTH_SQRT, np.array([[10.0, 0.0]]))[0]
    assert got == pytest.approx(5.522458581463691, abs=1e-9)


def test_smooth_raw_closed_form_on_constants():
    # raw z_minus_exp functional at c * ones is c - e^{-c}
    for c in (0.5, 1.0, 3.0):
        raw = SMOOTH_EXP.value_batch(np.full((1, 2), c))[0]
        assert raw == pytest.approx(c - math.exp(-c), abs=1e-12)


# --- midpoint defect and dyadic series ---------------------------------------

def test_phi_seu_vanishes():
    x, y = np.array([1.0, 4.0]), np.array([3.0, 2.0])
    assert _phi(SEU, x, y) <= 1e-12


def test_phi_meu_unit_vectors():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    # midpoint is the constant 0.5 but each arm is worth 0.3
    assert _phi(MEU, e1, e2) == pytest.approx(0.2, abs=1e-12)


def test_dyadic_series_meu_partial_sums_grow_linearly():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    partials, converged = dyadic_phi_series(MEU, e1, e2, n_max=20)
    assert not converged
    for n, s in enumerate(partials):
        assert s == pytest.approx(0.2 * (n + 1), abs=1e-9)


def test_theta_estimate_seu_converges_to_zero():
    rep, converged = theta_estimate(SEU, BoxSampler(2, resolution=5, n_random_pairs=20))
    assert converged
    assert rep.value <= 1e-9


def test_theta_estimate_meu_divergent():
    rep, converged = theta_estimate(MEU, BoxSampler(2, resolution=5, n_random_pairs=20))
    assert not converged
    assert rep.value > 0.1


# --- doubling limits ----------------------------------------------------------

def test_hyers_seu_trivial():
    x = np.array([2.0, 5.0])
    res = _limit(SEU, x)
    assert res.value == pytest.approx(ce_batch(SEU, x[None])[0], abs=1e-12)


def test_hyers_meu_iterates_constant():
    # positively homogeneous value: every iterate equals the value itself
    x = np.array([2.0, 1.0])
    res = _limit(MEU, x)
    assert res.value == ce_batch(MEU, x[None])[0]
    assert all(it == res.value for it in res.iterates)


def test_hyers_smooth_sqrt_frozen_limit():
    res = _limit(SMOOTH_SQRT, np.array([2.0, 1.0]))
    assert res.value == pytest.approx(1.55, abs=1e-6)
    assert res.tail_bound <= 1e-8


def test_hyers_induction_inequality():
    # |2^-n u(2^n x) - u(x)| <= sum_{i=1..n} 2^{-(i-1)} phi(2^i x, 0)
    model = SMOOTH_EXP
    x = np.array([1.5, 0.5])
    u = lambda z: ce_batch(model, z[None])[0]
    base = u(x)
    bound = 0.0
    for n in range(1, 21):
        bound += 2.0 ** -(n - 1) * _phi(model, (2.0 ** n) * x, np.zeros(2))
        iterate = u((2.0 ** n) * x) / 2.0 ** n
        assert abs(iterate - base) <= bound + 1e-9


# --- prior extraction and the linear bound ------------------------------------

def test_extract_prior_seu_exact():
    bench = extract_prior(SEU)
    assert bench.prior == pytest.approx((0.3, 0.7), abs=1e-12)


@pytest.mark.parametrize("model", [SMOOTH_SQRT, SMOOTH_EXP])
def test_extract_prior_smooth_recovers_mean(model):
    bench = extract_prior(model)
    assert bench.prior == pytest.approx((0.55, 0.45), abs=1e-6)


def test_extract_prior_meu_not_additive():
    with pytest.raises(NotAdditive) as exc:
        extract_prior(MEU)
    witness = exc.value.witness
    assert witness["coordinate_sum"] == pytest.approx(0.6, abs=1e-9)
    assert witness["sure_value"] == pytest.approx(1.0, abs=1e-12)


def test_verify_aa_seu_zero_distance():
    sampler = BoxSampler(2, resolution=5, n_random_pairs=10)
    rep_theta, converged = theta_estimate(SEU, sampler)
    bench = extract_prior(SEU)
    pts = sampler.points()
    near = verify_aa_bound(ce_batch(SEU, pts), bench, rep_theta.value, pts,
                           converged=converged)
    assert near.achieved_distance <= 1e-9


def test_verify_aa_smooth_passes():
    sampler = BoxSampler(2, resolution=5, n_random_pairs=10)
    rep_theta, converged = theta_estimate(SMOOTH_SQRT, sampler)
    assert converged
    bench = extract_prior(SMOOTH_SQRT)
    pts = sampler.points()
    near = verify_aa_bound(ce_batch(SMOOTH_SQRT, pts), bench, rep_theta.value, pts,
                           converged=converged)
    assert near.achieved_distance <= near.bound + 1e-6


def test_verify_aa_refuses_a_utility_array_that_does_not_fit_the_acts():
    bench = extract_prior(SEU)
    pts = BoxSampler(2, resolution=3).points()
    with pytest.raises(InvalidModel, match="for a grid of 9 points"):
        verify_aa_bound(ce_batch(SEU, pts[:-1]), bench, 1.0, pts)


def test_verify_aa_divergent_rejected():
    bench = extract_prior(SEU)
    pts = BoxSampler(2, resolution=3).points()
    with pytest.raises(HypothesisFailed):
        verify_aa_bound(ce_batch(SEU, pts), bench, 1.0, pts, converged=False)


# --- smooth ambiguity uniform cap ---------------------------------------------

@pytest.mark.parametrize("model", [SMOOTH_SQRT, SMOOTH_EXP])
def test_smooth_bound_sup_is_one_at_zero(model):
    sampler = BoxSampler(2, bound=10.0, resolution=21)
    rep, (header, rows) = smooth_ambiguity_bound(model, sampler)
    assert rep.achieved_distance == pytest.approx(1.0, abs=1e-9)
    assert rep.bound == 1.0
    assert rep.details["defect_at_zero"] == pytest.approx(1.0, abs=1e-9)
    assert rep.details["identity_gap"] <= 1e-12
    assert header[-1] == "closed_form_defect"
    assert len(rows) == len(sampler.points())


@pytest.mark.parametrize("f_name", ["sqrt1pz2", "z_minus_exp"])
def test_closed_form_defect_is_the_transform_gap(f_name):
    # h(z) = |f(z) - z|, up to the rounding of f(z) - z near z
    f, _, h = _SMOOTH_FS[f_name]
    z = np.linspace(0.0, 40.0, 401)
    eps = np.finfo(float).eps
    assert np.all(np.abs(h(z) - np.abs(f(z) - z)) <= 4.0 * eps * np.maximum(1.0, z))


def test_box_sampler_builds_its_grid_once_read_only():
    sampler = BoxSampler(2, resolution=5)
    pts = sampler.points()
    assert sampler.points() is pts
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    assert np.array_equal(pts, _box_grid(2, 5, 10.0))


def test_smooth_defect_zme_frozen_point():
    # defect at x = (2, 1) is the mixed exponential 0.5 (e^{-1.3} + e^{-1.8})
    pt = np.array([2.0, 1.0])
    raw = SMOOTH_EXP.value_batch(pt[None])[0]
    linear = 0.55 * 2.0 + 0.45 * 1.0
    assert linear - raw == pytest.approx(0.21891534062779955, abs=1e-12)


# --- homogeneity ---------------------------------------------------------------

def test_homog_deviation_meu_zero():
    assert _homog_deviation(MEU, np.array([2.0, 1.0]), 2.0) <= 1e-12


def test_homog_deviation_raw_zme_closed_form():
    # raw functional at ones: dev = |lam u(x) - u(lam x)| with u(c1) = c - e^-c
    lam, c = 2.0, 1.0
    u = lambda cc: cc - math.exp(-cc)
    expected = abs(lam * u(c) - u(lam * c))
    assert expected == pytest.approx(0.6004235991062719, abs=1e-12)
    at_one, at_lam = SMOOTH_EXP.value_batch(np.array([[1.0, 1.0], [lam, lam]]))
    raw_dev = abs(lam * at_one - at_lam)
    assert raw_dev == pytest.approx(expected, abs=1e-12)


def test_homog_limit_meu_is_value():
    x = np.array([2.0, 1.0])
    res = _limit(MEU, x)
    assert res.value == ce_batch(MEU, x[None])[0]
    assert res.theta <= 1e-12


def test_homog_limit_smooth_matches_doubling_limit():
    x = np.array([2.0, 1.0])
    res = _limit(SMOOTH_SQRT, x)
    dbl = extract_prior(SMOOTH_SQRT).evaluate_batch(x)[0]
    assert res.value == pytest.approx(dbl, abs=1e-6)
    assert res.value == pytest.approx(0.55 * 2.0 + 0.45 * 1.0, abs=1e-6)


@pytest.mark.parametrize("model", [MEU, SMOOTH_SQRT, LinearPlusBounded((0.3, 0.7), 0.5)])
def test_verify_homog_bound(model):
    sampler = BoxSampler(2, resolution=5, n_random_pairs=0)
    near = verify_homog_bound(model, sampler)
    assert near.achieved_distance <= near.bound + 1e-6
    assert near.details["homogeneity_defect"] <= 1e-6


def test_homog_theta_respects_geometric_envelope():
    # single-step deviations cap the scaled series: theta <= sup dev / (eta - 1)
    model = LinearPlusBounded((0.3, 0.7), 0.5)
    x = np.array([1.0, 2.0])
    res = _limit(model, x)
    worst = 0.0
    probe = x.copy()
    for _ in range(20):
        worst = max(worst, _homog_deviation(model, probe, 2.0))
        probe = probe * 2.0
    assert res.theta <= worst / (2.0 - 1.0) + 1e-9


def test_homogeneity_of_limit_irrational_scale():
    model = SMOOTH_SQRT
    x = np.array([2.0, 1.0])
    res = _limit(model, x)
    scaled = _limit(model, math.sqrt(2.0) * x)
    assert scaled.value == pytest.approx(math.sqrt(2.0) * res.value, abs=1e-6)


# --- quasi-concave envelope ------------------------------------------------------

def test_eps_ua_meu_zero():
    sampler = BoxSampler(2, resolution=5, n_random_pairs=30)
    rep = measure_eps_ua(MEU, sampler)
    assert rep.value <= 1e-9


def test_eps_ua_same_point_zero_defect():
    sampler = BoxSampler(2, resolution=3, n_random_pairs=0)
    x = np.array([2.0, 3.0])
    rep = measure_eps_ua(MEU, sampler,
                         extra_probes=[(np.array([x, x]), np.array([0.5, 0.5]))])
    assert rep.value <= 1e-9


def test_quasiconcavify_meu_envelope_equals_model():
    env = quasiconcavify(MEU, box_bound=10.0, resolution=11, level_resolution=64)
    assert np.max(np.abs(env.v_values - env.u_values)) == 0.0
    rep = verify_quasiconcave_bound(env, 1e-9)
    assert rep.achieved_distance == 0.0


def test_quasiconcavify_smooth_bound_holds():
    env = quasiconcavify(SMOOTH_SQRT, box_bound=10.0, resolution=11,
                         level_resolution=64)
    assert np.all(env.v_values >= env.u_values)
    sampler = BoxSampler(2, bound=10.0, resolution=11, n_random_pairs=50)
    ua = measure_eps_ua(SMOOTH_SQRT, sampler, extra_probes=env.probes)
    rep = verify_quasiconcave_bound(env, ua.value)
    assert rep.achieved_distance <= rep.bound + rep.details["slack"]
    assert rep.details["nesting_vertices"] == sum(len(h.verts) for h in env.hulls[1:])


def _banded_level_hulls(monkeypatch, model, broken):
    """Patch _level_hull to cut the clouds of the broken levels to a utility band.

    A cut cloud keeps its points within 5.5 of its lowest utility, so the
    hulls of the broken levels no longer contain the levels above them.
    """
    levels = itertools.count()

    def banded(cloud, tol):
        if broken(next(levels)):
            u = ce_batch(model, cloud)
            cloud = cloud[u <= u.min() + 5.5]
        return _level_hull(cloud, tol)

    monkeypatch.setattr(nearrep.uncertainty, "_level_hull", banded)


@pytest.mark.parametrize("broken,level,vertex", [
    # 6 of 16 levels not nested, which 200 seeded pair mixtures at seeds 0-5 all missed
    (lambda i: i >= 1, 2, (10.0, 3.0)),
    # a broken lowest hull, which made the mixtures' evaluation raise InvalidModel
    (lambda i: i == 0, 1, (10.0, 0.0)),
], ids=["upper-levels", "lowest-level"])
def test_the_verdict_fails_on_level_hulls_that_are_not_nested(monkeypatch, tmp_path, capsys,
                                                              broken, level, vertex):
    from nearrep.cli import main

    _banded_level_hulls(monkeypatch, SMOOTH_SQRT, broken)
    env = quasiconcavify(SMOOTH_SQRT, box_bound=10.0, resolution=11, level_resolution=16)
    ua = measure_eps_ua(SMOOTH_SQRT, BoxSampler(2, bound=10.0, resolution=11),
                        extra_probes=env.probes)
    with pytest.raises(BoundViolated) as exc:
        verify_quasiconcave_bound(env, ua.value)
    message = (f"level hulls not nested: vertex {vertex} of level {level} lies outside "
               f"the hull of level {level - 1}")
    assert str(exc.value) == message
    assert exc.value.witness == {"level": level, "vertex": vertex}

    _banded_level_hulls(monkeypatch, SMOOTH_SQRT, broken)
    scenario = {"version": 1, "name": "banded", "domain": "uncertainty",
                "model": {"type": "smooth", "f": "sqrt1pz2", "priors": [[0.3, 0.7], [0.8, 0.2]],
                          "weights": [0.5, 0.5]},
                "sampler": {"quasiconcave": True, "qc_resolution": 11, "level_resolution": 16}}
    path = tmp_path / "banded.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "FAIL quasiconcave-bound" in out
    assert f"note: quasiconcave-bound failed: {message}" in out


def test_linear_benchmark_evaluate_is_the_one_row_case():
    bench = LinearBenchmark((0.3, 0.7))
    pts = BoxSampler(2, resolution=7).points()
    assert bench.evaluate_batch(pts).tolist() == [bench.evaluate_batch(x[None])[0] for x in pts]


def test_envelope_midpoint_never_below_level():
    # v is quasi-concave up to one level spacing by construction
    env = quasiconcavify(SMOOTH_SQRT, box_bound=10.0, resolution=9, level_resolution=64)
    pts = env.points
    rng = np.random.default_rng(3)
    for _ in range(25):
        i, j = rng.integers(0, len(pts), size=2)
        m = 0.5 * (pts[i] + pts[j])
        vm = env.evaluate_batch(m)[0]
        assert vm >= min(env.v_values[i], env.v_values[j]) - env.level_spacing - 1e-9


def _lp_member(x, cloud, tol=1e-9):
    """Reference membership: a feasibility LP for convex weights on the cloud."""
    from scipy.optimize import linprog
    A = np.vstack([cloud.T, np.ones((1, len(cloud)))])
    b = np.append(x, 1.0)
    res = linprog(np.zeros(len(cloud)), A_eq=A, b_eq=b, bounds=(0.0, None),
                  method="highs")
    if not res.success:
        return False
    residual = float(np.linalg.norm(A @ res.x - b))
    return residual <= tol * (1.0 + float(np.linalg.norm(b)))


@st.composite
def _cloud_and_queries(draw):
    d = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["general", "point", "line", "plane"]))
    vec = lambda lo=-2, hi=2: np.array(draw(st.lists(st.integers(lo, hi), min_size=d,
                                                     max_size=d)), dtype=float)
    origin = vec(0, 6)
    n = draw(st.integers(1, 7))
    if shape == "point":
        cloud = np.repeat(origin[None, :], n, axis=0)
    elif shape == "line":
        step = vec()
        cloud = np.array([origin + draw(st.integers(-3, 3)) * step for _ in range(n)])
    elif shape == "plane" and d == 3:
        a, c = vec(), vec()
        cloud = np.array([origin + draw(st.integers(-2, 2)) * a + draw(st.integers(-2, 2)) * c
                          for _ in range(n)])
    else:
        # "plane" needs three axes; with fewer it draws a general cloud
        cloud = np.array([vec(0, 6) for _ in range(n)])
    cloud = 0.5 * cloud
    outside = [0.5 * vec(-3, 9) for _ in range(draw(st.integers(1, 5)))]
    queries = list(cloud) + outside
    for _ in range(draw(st.integers(1, 6))):
        x = queries[draw(st.integers(0, len(queries) - 1))]
        y = queries[draw(st.integers(0, len(queries) - 1))]
        queries += [lam * x + (1.0 - lam) * y for lam in (0.25, 0.5, 0.75)]
    return cloud, np.array(queries)


@settings(max_examples=80, deadline=None)
@given(_cloud_and_queries())
def test_halfspace_membership_matches_lp(case):
    cloud, queries = case
    got = _level_hull(cloud, 1e-9).contains(queries, 1e-9)
    want = np.array([_lp_member(x, cloud) for x in queries])
    assert got.tolist() == want.tolist()


@settings(max_examples=80, deadline=None)
@given(_cloud_and_queries())
def test_barycentric_decomposition_matches_lp_membership(case):
    cloud, queries = case
    tol = 1e-9
    hull = _level_hull(cloud, tol)
    ok, support, weights = hull.decompose(queries, tol)
    assert ok.tolist() == [_lp_member(x, cloud, tol) for x in queries]
    assert support.shape[1] <= len(hull.basis) + 1
    for x, idx, w in zip(queries[ok], support[ok], weights[ok]):
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert len(np.unique(idx[w > 0.0])) == np.count_nonzero(w)
        miss = np.append(w @ hull.verts[idx] - x, w.sum() - 1.0)
        assert np.linalg.norm(miss) <= tol * (1.0 + math.sqrt(float(x @ x) + 1.0))


@pytest.mark.parametrize("model,res", [(SMOOTH_SQRT, 9),
                                       (CESUtility((1.0, 2.0, 3.0), 0.5), 4)])
def test_envelope_probes_are_short_convex_decompositions(model, res):
    env = quasiconcavify(model, box_bound=10.0, resolution=res, level_resolution=16)
    d = env.n_states
    assert env.probes
    for support, weights in env.probes:
        assert 2 <= len(support) <= d + 1
        assert np.all(weights >= 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-12
        rebuilt = weights @ support
        dist = np.sqrt(np.sum((env.points - rebuilt) ** 2, axis=1))
        j = int(np.argmin(dist))
        scale = 1.0 + math.sqrt(float(env.points[j] @ env.points[j]) + 1.0)
        assert dist[j] <= MEMBERSHIP_TOL * scale


def test_quasiconcave_run_loads_scipy_spatial_but_not_scipy_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(nearrep.__file__).resolve().parents[1]))
    scenario = ("{'version': 1, 'name': 'x', 'domain': 'uncertainty', 'model': {'type': "
                "'ces', 'weights': [1.0, 2.0], 'rho': 0.5}, 'sampler': {'resolution': 3, "
                "'n_random_pairs': 5, 'quasiconcave': True, 'qc_resolution': 5, "
                "'level_resolution': 4}}")
    code = (f"import json, sys; from nearrep.cli import main; "
            f"open('s.json', 'w').write(json.dumps({scenario})); "
            "code = main(['run', 's.json', '--out', 'out']); "
            "print('scipy.spatial' in sys.modules, 'scipy.optimize' in sys.modules); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True False"


def test_no_linear_program_in_the_package():
    src = Path(nearrep.__file__).resolve().parent
    assert [p.name for p in sorted(src.glob("*.py")) if "linprog" in p.read_text()] == []


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(nearrep.__file__).resolve().parents[1]))
    code = ("import sys, nearrep.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, 20), st.integers(0, 2 ** 32), st.integers(0, 2 ** 200)),
       st.sampled_from([1, 2, 3, 16, 121, 1331, 100_000, 2 ** 31 + 5, 2 ** 32 - 1]),
       st.integers(0, 25))
def test_index_pairs_match_numpy_default_rng(seed, n, count):
    rng = np.random.default_rng(seed)
    want = [tuple(rng.integers(0, n, size=2).tolist()) for _ in range(count)]
    assert _index_pairs(seed, n, count) == want


def test_uncertainty_run_leaves_numpy_random_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(nearrep.__file__).resolve().parents[1]))
    code = ("import sys, nearrep.cli as c; c.run_scenario({'version': 1, 'name': 'x', "
            "'domain': 'uncertainty', 'model': {'type': 'linear_plus_bounded', "
            "'prior': [0.3, 0.7], 'bump': 0.5}, 'sampler': {'resolution': 3, "
            "'n_random_pairs': 5}}); print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_ce_monotone_in_payoffs():
    for model in ALL_MODELS:
        lo, hi = ce_batch(model, np.array([[1.0, 2.0], [1.5, 2.5]]))
        assert hi >= lo - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 8.0), st.floats(0.0, 8.0), st.floats(0.0, 8.0),
       st.floats(0.0, 8.0))
def test_meu_value_is_min_of_priors(a, b, c, d):
    x = np.array([a, b])
    y = np.array([c, d])
    for z in (x, y, 0.5 * (x + y)):
        direct = min(0.3 * z[0] + 0.7 * z[1], 0.7 * z[0] + 0.3 * z[1])
        assert MEU.value_batch(z[None])[0] == pytest.approx(direct, abs=1e-12)


# --- model-owned certainty equivalents ---------------------------------------

CE_TOL = BISECT_TOL  # solver tolerance on c for models without a closed form
# LinearPlusBounded's Newton iterate rises to the root and stops once a step
# is at most CE_TOL / 4; near the root a step covers almost all of the gap
# left, so c is within CE_TOL / 2 of it, as a bisected c is. No drawn model's
# value rises faster than 4 per unit of c (LinearPlusBounded: 1 + bump * d
# with bump <= 1, d <= 3), so value(c * ones) may miss value(x) by 2 * CE_TOL.
CE_VALUE_TOL = 10.0 * CE_TOL
EPS = np.finfo(float).eps


@st.composite
def _model_and_act(draw):
    d = draw(st.integers(2, 3))

    def prior():
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
        total = math.fsum(raw)
        return tuple(v / total for v in raw)

    kind = draw(st.sampled_from(["seu", "meu", "sqrt1pz2", "z_minus_exp", "ces", "lpb"]))
    if kind == "seu":
        model = SubjectiveExpected(prior())
    elif kind == "meu":
        model = MaxminExpected((prior(), prior()))
    elif kind in ("sqrt1pz2", "z_minus_exp"):
        w = draw(st.floats(0.05, 0.95))
        model = SmoothAmbiguity(kind, (prior(), prior()), (w, 1.0 - w))
    elif kind == "ces":
        model = CESUtility(tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=d, max_size=d))),
                           draw(st.floats(0.2, 1.0)))
    else:
        model = LinearPlusBounded(prior(), draw(st.floats(0.0, 1.0)))
    x = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=d, max_size=d)))
    assume(not np.all(x == x[0]))
    return model, x


def _ce_range_slack(model, x) -> float:
    """Rounding allowance on min(x) <= ce <= max(x)."""
    return 4.0 * EPS * max(1.0, float(np.max(x)))


@settings(max_examples=300, deadline=None)
@given(_model_and_act())
def test_model_ce_meets_its_defining_equation(case):
    model, x = case
    c = ce_batch(model, x[None])[0]
    slack = _ce_range_slack(model, x)
    assert float(np.min(x)) - slack <= c <= float(np.max(x)) + slack
    target, at_c = model.value_batch(np.array([x, np.full(len(x), c)]))
    assert abs(at_c - target) <= CE_VALUE_TOL * max(1.0, abs(target))


def test_sqrt1pz2_ce_stays_in_range_near_zero():
    x = np.array([6.69438024e-08, 7.43820026e-08])
    c = ce_batch(SMOOTH_SQRT, x[None])[0]
    assert x.min() <= c <= x.max()


# --- batched certainty equivalents -------------------------------------------

def _scalar_bisect(f, lo, hi, tol, max_iter=200):
    """Reference: the scalar monotone bisection the per-act solves used."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    increasing = flo < 0.0
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _per_act_ce(model, x, tol=CE_TOL) -> float:
    """Reference: the certainty equivalent of one act, as computed act by act
    before batching (scalar closed forms, math.exp, scalar bisection)."""
    x = np.asarray(x, dtype=float)
    if np.all(x == x[0]):
        return float(x[0])
    if isinstance(model, SubjectiveExpected):
        return float(np.dot(model.prior, x))
    if isinstance(model, MaxminExpected):
        return float(np.min(np.asarray(model.priors) @ x))
    if isinstance(model, SmoothAmbiguity):
        w = float(np.asarray(model.weights) @ model.f(np.asarray(model.priors) @ x))
        if model.f_name == "sqrt1pz2":
            return math.sqrt(max(w * w - 1.0, 0.0))
        c = max(w, 0.0)
        for _ in range(60):
            e = math.exp(-c)
            step = (c - e - w) / (1.0 + e)
            c -= step
            if abs(step) <= 1e-15 * max(1.0, abs(c)):
                break
        return c
    if isinstance(model, CESUtility):
        weights = np.asarray(model.weights)
        unit = float(np.sum(weights)) ** (1.0 / model.rho)
        return float(weights @ x ** model.rho) ** (1.0 / model.rho) / unit

    def value(v):
        return float(np.dot(model.prior, v)) + model.bump * (1.0 - math.exp(-float(np.sum(v))))
    target = value(x)
    return _scalar_bisect(lambda c: value(np.full(len(x), c)) - target,
                          float(np.min(x)), float(np.max(x)), tol)


@st.composite
def _model_and_batch(draw):
    """A model, and a shuffled batch of its acts: varying, constant and repeated rows."""
    model, x = draw(_model_and_act())
    d = len(x)
    rows = [x] + [np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=d, max_size=d)))
                  for _ in range(draw(st.integers(0, 5)))]
    rows += [np.full(d, draw(st.floats(0.0, 10.0))) for _ in range(draw(st.integers(0, 2)))]
    rows += [rows[draw(st.integers(0, len(rows) - 1))] for _ in range(draw(st.integers(0, 3)))]
    order = draw(st.permutations(range(len(rows))))
    return model, np.array([rows[i] for i in order])


@settings(max_examples=300, deadline=None)
@given(_model_and_batch())
def test_ce_batch_rows_match_one_row_calls_and_the_per_act_reference(case):
    model, X = case
    got = ce_batch(model, X)
    for x, c in zip(X, got):
        # batch-size invariance: exactly what a one-row call gives
        assert ce_batch(model, x[None, :])[0] == c
        want = _per_act_ce(model, x)
        allowed = CE_TOL * max(1.0, abs(want))
        if getattr(model, "f_name", None) == "sqrt1pz2":
            # the reference's sqrt(w^2 - 1) loses digits at w ~ 1: an error of
            # delta = 4 eps w^2 in w^2 - 1 moves it by min(delta / 2c, sqrt(delta))
            delta = 4.0 * EPS * model.value_batch(x[None])[0] ** 2
            allowed += delta / (2.0 * max(float(c), want, 0.5 * math.sqrt(delta)))
        assert abs(c - want) <= allowed, (x, c, want)


@pytest.mark.parametrize("bump", [math.inf, math.nan, -1.0])
def test_linear_plus_bounded_refuses_a_bump_that_is_not_finite_and_nonnegative(bump):
    with pytest.raises(InvalidModel, match="bump must be finite and nonnegative"):
        LinearPlusBounded((0.3, 0.7), bump)


@pytest.mark.parametrize("t", [1e-12, 1e-100, 1e-300])
def test_linear_plus_bounded_keeps_the_relative_precision_of_a_small_act(t):
    # near zero the bump is bump * sum x to first order, so the certainty
    # equivalent of (0, t) is (p . x + bump sum x) / (s + bump d)
    model = LinearPlusBounded((0.5, 0.5), 3.0)
    want = (0.5 * t + 3.0 * t) / (1.0 + 3.0 * 2)
    got = ce_batch(model, np.array([[0.0, t]]))[0]
    assert abs(got - want) <= 1e-9 * want


LPB_MAX_ROUNDS = 25  # value_batch calls per ce_batch call: the target and the Newton rounds


@st.composite
def _lpb_and_scaled_acts(draw):
    """LinearPlusBounded on 2-5 states with bump in [0, 1e6], and acts scaled by 2^k,
    k in [-20, 40], the range the doubling limits reach."""
    d = draw(st.integers(2, 5))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
    total = math.fsum(raw)
    model = LinearPlusBounded(tuple(v / total for v in raw), draw(st.floats(0.0, 1e6)))
    rows = [math.ldexp(1.0, draw(st.integers(-20, 40)))
            * np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=d, max_size=d)))
            for _ in range(draw(st.integers(1, 4)))]
    return model, np.array(rows)


def _ce_and_value_batch_calls(model, X) -> tuple[np.ndarray, int]:
    with mock.patch.object(LinearPlusBounded, "value_batch", autospec=True,
                           side_effect=LinearPlusBounded.value_batch) as spy:
        c = ce_batch(model, X)
    return c, spy.call_count


@settings(max_examples=300, deadline=None)
@given(_lpb_and_scaled_acts())
def test_linear_plus_bounded_newton_matches_bisection_in_few_rounds(case):
    model, X = case
    got, calls = _ce_and_value_batch_calls(model, X)
    assert calls <= LPB_MAX_ROUNDS
    for x, c in zip(X, got):
        one, calls = _ce_and_value_batch_calls(model, x[None, :])
        assert one[0] == c
        assert calls <= LPB_MAX_ROUNDS
        want = _per_act_ce(model, x)
        assert abs(c - want) <= CE_TOL * max(1.0, abs(want)), (x, c, want)


class _Patchy:
    """Acts with x0 > x1 follow a log-periodic curve, s (1 + 0.1 sin(2 pi log2 s))
    with s = mean(x): its doubling limit is the curve itself, which is not
    homogeneous under alpha = 3. Acts marked divergent are worth s + 1, whose
    limits never pass the Cauchy test. Every other act is worth s."""

    n_states = 2

    def __init__(self, swap: bool):
        self.swap = swap

    def ce_batch(self, X):
        s = X.mean(axis=1)
        out = s.copy()
        first, second = X[:, 0] > X[:, 1], (X[:, 1] > X[:, 0]) & (X[:, 0] > 0.0)
        periodic, divergent = (second, first) if self.swap else (first, second)
        out[periodic] = s[periodic] * (1.0 + 0.1 * np.sin(2.0 * np.pi * np.log2(s[periodic])))
        out[divergent] = s[divergent] + 1.0
        return out


def _homog_bound_point_by_point(model, sampler, alphas=(0.5, 3.0), tol=1e-6):
    """Reference: the per-point loop of verify_homog_bound, one limit at a time."""
    pts = [x for x in sampler.points() if np.any(x)]
    for x in pts:
        res = _limit(model, x)
        gap = abs(res.iterates[0] - res.value)
        if gap > 2.0 * res.theta + tol:
            raise BoundViolated(
                f"|u - v| = {gap!r} exceeds 2 Theta + tol = {2.0 * res.theta + tol!r}",
                witness={"x": tuple(x), "gap": gap, "theta": res.theta})
        for a in alphas:
            defect = abs(_limit(model, a * x).value - a * res.value)
            if defect > 1e-6:
                raise BoundViolated(
                    f"limit is not homogeneous: |v(a x) - a v(x)| = {defect!r} at a={a!r}",
                    witness={"x": tuple(x), "alpha": a, "defect": defect})


@pytest.mark.parametrize("swap", [False, True])
def test_lockstep_homog_bound_raises_the_first_failure_in_point_order(swap):
    # grid order: (0, 5), (0, 10), (5, 0), (5, 5), (5, 10), ... ; the first
    # failing point is (5, 0): a homogeneity violation, or with swap a
    # scaling limit that never converges, ahead of the other kind at (5, 10)
    model, sampler = _Patchy(swap), BoxSampler(2, resolution=3, n_random_pairs=0)
    with pytest.raises((BoundViolated, NotConverged)) as want:
        _homog_bound_point_by_point(model, sampler)
    with pytest.raises((BoundViolated, NotConverged)) as got:
        verify_homog_bound(model, sampler)
    assert type(got.value) is type(want.value) is (NotConverged if swap else BoundViolated)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "witness", None) == getattr(want.value, "witness", None)
    assert getattr(got.value, "iterates", None) == getattr(want.value, "iterates", None)
    if not swap:
        assert got.value.witness["x"] == (5.0, 0.0)


def _scaled_limit_step_by_step(model, x, n_max, tol=1e-9):
    """Reference: one act's doubling limit, one certainty equivalent per step."""
    iterates, increments = [ce_batch(model, x[None])[0]], []
    if not np.any(x):
        return iterates[0], 0.0, 0, tuple(iterates)
    cap = max(min(n_max, int(math.floor(math.log(1e12 / max(float(np.max(x)), 1.0), 2.0)))), 0)
    for n in range(1, cap + 1):
        v = ce_batch(model, (2.0 ** n) * x[None])[0] / 2.0 ** n
        increments.append(abs(v - iterates[-1]))
        iterates.append(v)
        if increments[-1] <= tol * 2.0 ** -n or increments[-1] <= 1e-15 * max(1.0, abs(v)):
            tail = 0.0
            if len(increments) >= 2 and increments[-2] > 0.0:
                r = increments[-1] / increments[-2]
                if r < 1.0:
                    tail = increments[-1] * r / (1.0 - r)
            return v, math.fsum(increments) + tail, n, tuple(iterates)
    raise NotConverged("reference did not converge", iterates)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("scale", [2.0, 1.5])
def test_blocked_scaled_limits_match_the_step_by_step_loop(model, scale):
    # all acts solved together over shared chains, in two rounds: every limit
    # must equal the one-act, one-step-at-a-time construction, iterates and
    # theta included. Scale 2 adds acts that share chains with the grid's
    # (2x and x / 2 of a grid act), scale 1.5 adds acts with units of their
    # own; the last two acts lose bits in a subnormal payoff when scaled to
    # their unit, so each keeps a chain of its own
    pts = BoxSampler(2, resolution=4).points()
    tiny = np.array([[7 * 5e-324, scale], [scale, 7 * 5e-324]])
    acts = np.concatenate([pts, scale * pts, pts / scale, tiny])
    its, stop, caps = _scaled_limits(model, acts)
    theta = _limit_theta(its, stop)
    for k, x in enumerate(acts):
        want = _scaled_limit_step_by_step(model, x, 40)
        got = (its[k, stop[k]].item(), theta[k].item(), int(stop[k]),
               tuple(its[k, :stop[k] + 1].tolist()))
        assert got == want


# --- the array tail verdict ---------------------------------------------------

def _padded(rows):
    terms = np.zeros((len(rows), max(map(len, rows))))
    for k, row in enumerate(rows):
        terms[k, :len(row)] = row
    return terms, np.array([len(row) - 1 for row in rows])


_FLOORS = st.sampled_from([0.0, 1e-15, 3.5e-15, 1e-3, 0.25])
_TERMS = st.one_of(
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-14), st.just(1e-3), st.just(0.25),
                       st.floats(0.0, 10.0)), min_size=1, max_size=12),
    st.builds(lambda a, r, n: [a * r ** i for i in range(n)],
              st.floats(0.0, 10.0), st.floats(0.0, 1.2), st.integers(1, 12)))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_TERMS, _FLOORS), min_size=1, max_size=6))
@example([([1.0, 0.5, 0.0, 0.3], 1e-15)])  # a term rising back above the floor
@example([([0.5, 0.4], 0.0), ([0.25, 0.25, 0.25], 0.25)])  # short rows; terms at the floor
@example([([0.0] * 6, 0.0), ([2.0, 1.0, 0.5, 0.25, 0.125, 0.0625], 1e-15)])
def test_array_tail_verdict_matches_dyadic_tail_sum_row_by_row(rows):
    # the array verdict of the defect series against the scalar reference:
    # partial sums as itertools.accumulate adds them, the verdict of
    # dyadic_tail_sum at each row's own floor, over ragged rows
    terms, caps = _padded([row for row, _ in rows])
    sums, lengths, converged = _tail_sums(terms, caps, np.array([f for _, f in rows]))
    assert TAIL_WINDOW == 4 and RATIO_TOL == 0.75
    for k, (row, floor) in enumerate(rows):
        assert lengths[k] == len(row)
        assert sums[k, :lengths[k]].tolist() == list(itertools.accumulate(row))
        assert bool(converged[k]) == dyadic_tail_sum(row, floor=floor)[1]


@pytest.mark.parametrize("bad", [math.inf, math.nan, -0.5])
def test_array_tail_verdict_refuses_a_bad_term_as_dyadic_tail_sum_does(bad):
    rows = [[0.5, 0.25, 0.125], [1.0, 0.5, bad, 0.3], [-1.0]]
    terms, caps = _padded(rows)
    with pytest.raises(InvalidModel) as want:
        dyadic_tail_sum(rows[1])
    with pytest.raises(InvalidModel) as got:
        _tail_sums(terms, caps, np.zeros(3))
    assert str(got.value) == str(want.value)


class _Overflowing:
    """ce is the mean payoff, but infinite once an act's top payoff reaches 2^20."""

    n_states = 2

    def ce_batch(self, X):
        return np.where(X.max(axis=1) >= 2.0 ** 20, np.inf, X.mean(axis=1))


def test_a_non_finite_term_is_refused_through_the_series_meters():
    # 2^i (1, 0) reaches 2^20 at i = 20; the first grid pair, ((0, 5), 0), at i = 18
    with pytest.raises(InvalidModel) as got, np.errstate(invalid="ignore"):  # inf - inf
        dyadic_phi_series(_Overflowing(), (1.0, 0.0), (0.0, 0.0))
    assert str(got.value) == "term(20) = inf; terms must be nonnegative and finite"
    with pytest.raises(InvalidModel) as got, np.errstate(invalid="ignore"):
        theta_estimate(_Overflowing(), BoxSampler(2, resolution=3, n_random_pairs=5))
    assert str(got.value) == "term(18) = inf; terms must be nonnegative and finite"


# --- scaled limits -----------------------------------------------------------

class _UnitOffset:
    """ce(x) = p . x + 1 off zero: base^-n u(base^n x) = p . x + base^-n exactly."""

    n_states = 2
    prior = np.array([0.5, 0.5])

    def value(self, x):
        return float(self.prior @ x) + 1.0 if np.any(x) else 0.0

    def ce_batch(self, X):
        return np.array([self.value(x) for x in X])


def _homog_bound_on_the_unit_box(model):
    box = BoxSampler(2, bound=1.0, resolution=2, n_random_pairs=0)
    verify_homog_bound(model, box)


# The doubling limits behind the prior fail first at e_1 = (1, 0), the
# homogeneous verifier's scaling limits at the grid act (0, 1): p . x = 0.5 both.
@pytest.mark.parametrize("limits, label", [
    pytest.param(extract_prior, "doubling", id="hyers_ulam_limit-doubling"),
    pytest.param(_homog_bound_on_the_unit_box, "scaling", id="homog_limit-scaling")])
def test_scaled_limit_failure_is_labelled_and_carries_iterates(limits, label):
    # increments are exactly 2^-n, never below tol * 2^-n, and the 1e12
    # coordinate guard stops doubling before the 1e-15 relative floor
    with pytest.raises(NotConverged, match=f"^{label} iterates not Cauchy") as exc:
        limits(_UnitOffset())
    iterates = exc.value.iterates
    assert len(iterates) > 1
    assert [a - b for a, b in zip(iterates, iterates[1:])] == \
        [2.0 ** -n for n in range(1, len(iterates))]
