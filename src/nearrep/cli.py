"""Command line front end: audit scenario files and built-in worked examples.

Subcommands:
  run <scenario.json> [--out DIR] [--tol R] [--seed N] [--grid N]
  builtin <name> [--out DIR]
  list

Exit codes: 0 when every applicable theorem bound passed, 2 when at least
one bound check failed, 1 for malformed scenarios or unusable inputs.

A scenario file is a JSON object with keys version (must be 1), name,
domain, model, and optional sampler / tolerances objects; unknown keys
anywhere are rejected so typos fail loudly rather than silently changing
the run. Outputs are <name>-report.json plus one <name>-<table>.csv per
table; identical scenario and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import risk as risk_mod
from . import timepref as time_mod
from . import uncertainty as unc_mod
from .core import (
    MAX_GRID_POINTS,
    BoundViolated,
    CESUtility,
    CumulativeProspect,
    ExpectedUtility,
    Exponential,
    Hyperbolic,
    HypothesisFailed,
    InvalidModel,
    LinearDelay,
    LinearPlusBounded,
    LogDelay,
    MaxminExpected,
    NearRepError,
    NoBracket,
    NoSuchTau,
    NotAdditive,
    NotConverged,
    QuasiHyperbolic,
    ScenarioError,
    SmoothAmbiguity,
    SubjectiveExpected,
    TabulatedDiscount,
    discount,
    grid_size,
)
from .tables import write_csv, write_report_json

__all__ = ["main", "run_scenario", "BUILTINS"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$")


@dataclass
class RunResult:
    name: str
    domain: str
    verdicts: dict[str, bool] = field(default_factory=dict)
    reports: list[dict] = field(default_factory=list)
    representations: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    tables: dict[str, tuple[list, list]] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 0 if all(self.verdicts.values()) else 2

    def report_dict(self) -> dict:
        return {
            "name": self.name,
            "domain": self.domain,
            "verdicts": self.verdicts,
            "reports": self.reports,
            "representations": self.representations,
            "notes": self.notes,
            "tables": sorted(self.tables),
        }


# ---------------------------------------------------------------------------
# strict schema helpers

def _check_keys(obj, path: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"{path}: unknown key '{key}'")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{path}: missing required key '{key}'")


def _num(obj, path: str, key: str, default=None):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number")
    return float(v)


def _int(obj, path: str, key: str, default=None, minimum: int | None = None):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}: expected an integer")
    if minimum is not None and v < minimum:
        raise ScenarioError(f"{path}.{key}: must be at least {minimum}")
    return v


def _check_grid(space: str, dim: int, resolution: int, key: str) -> None:
    """Refuse a sampler grid above MAX_GRID_POINTS from its count, before it exists."""
    n = grid_size(space, dim, resolution)
    if n > MAX_GRID_POINTS:
        raise ScenarioError(f"sampler.{key}: a resolution of {resolution} gives a {dim}-D "
                            f"{space} grid of {n} points, above the cap of {MAX_GRID_POINTS}")


def _bool(obj, path: str, key: str, default=None):
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        raise ScenarioError(f"{path}.{key}: expected true or false")
    return v


def _numlist(obj, path: str, key: str, default=None):
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{path}: missing required key '{key}'")
        return default
    v = obj[key]
    if not isinstance(v, list) or not v or any(
            isinstance(e, bool) or not isinstance(e, (int, float)) for e in v):
        raise ScenarioError(f"{path}.{key}: expected a non-empty list of numbers")
    return [float(e) for e in v]


def _vectorlist(obj, path: str, key: str):
    v = obj.get(key)
    if not isinstance(v, list) or not v or any(not isinstance(row, list) for row in v):
        raise ScenarioError(f"{path}.{key}: expected a list of number lists")
    return [tuple(float(e) for e in row) for row in v]


# ---------------------------------------------------------------------------
# model construction

def _build_risk_model(cfg: dict):
    kind = cfg.get("type")
    if kind == "expected_utility":
        _check_keys(cfg, "model", {"type", "utilities"}, set())
        return ExpectedUtility(tuple(_numlist(cfg, "model", "utilities")))
    if kind == "cpt":
        _check_keys(cfg, "model", {"type", "value_exponent", "weight_exponent", "prizes"}, set())
        return CumulativeProspect(_num(cfg, "model", "value_exponent"),
                                  _num(cfg, "model", "weight_exponent"),
                                  tuple(_numlist(cfg, "model", "prizes")))
    raise ScenarioError(f"model.type: unknown risk model {kind!r}")


def _build_uncertainty_model(cfg: dict):
    kind = cfg.get("type")
    if kind == "seu":
        _check_keys(cfg, "model", {"type", "prior"}, set())
        return SubjectiveExpected(tuple(_numlist(cfg, "model", "prior")))
    if kind == "meu":
        _check_keys(cfg, "model", {"type", "priors"}, set())
        return MaxminExpected(tuple(_vectorlist(cfg, "model", "priors")))
    if kind == "smooth":
        _check_keys(cfg, "model", {"type", "f", "priors", "weights"}, set())
        f_name = cfg.get("f")
        if not isinstance(f_name, str):
            raise ScenarioError("model.f: expected a string")
        return SmoothAmbiguity(f_name, tuple(_vectorlist(cfg, "model", "priors")),
                               tuple(_numlist(cfg, "model", "weights")))
    if kind == "ces":
        _check_keys(cfg, "model", {"type", "weights", "rho"}, set())
        return CESUtility(tuple(_numlist(cfg, "model", "weights")), _num(cfg, "model", "rho"))
    if kind == "linear_plus_bounded":
        _check_keys(cfg, "model", {"type", "prior", "bump"}, set())
        return LinearPlusBounded(tuple(_numlist(cfg, "model", "prior")), _num(cfg, "model", "bump"))
    raise ScenarioError(f"model.type: unknown uncertainty model {kind!r}")


def _build_time_model(cfg: dict):
    kind = cfg.get("type")
    if kind == "exponential":
        _check_keys(cfg, "model", {"type", "gamma"}, set())
        return Exponential(_num(cfg, "model", "gamma"))
    if kind == "quasi_hyperbolic":
        _check_keys(cfg, "model", {"type", "beta", "delta"}, set())
        return QuasiHyperbolic(_num(cfg, "model", "beta"), _num(cfg, "model", "delta"))
    if kind == "hyperbolic":
        _check_keys(cfg, "model", {"type", "k"}, set())
        return Hyperbolic(_num(cfg, "model", "k"))
    if kind == "tabulated":
        _check_keys(cfg, "model", {"type", "values"}, set())
        return TabulatedDiscount(tuple(_numlist(cfg, "model", "values")))
    raise ScenarioError(f"model.type: unknown discount model {kind!r}")


def _build_continuous_model(cfg: dict):
    kind = cfg.get("type")
    if kind == "linear_delay":
        _check_keys(cfg, "model", {"type", "x_bar"}, {"rate"})
        return LinearDelay(_num(cfg, "model", "x_bar"), _num(cfg, "model", "rate", 1.0))
    if kind == "log_delay":
        _check_keys(cfg, "model", {"type", "x_bar", "k"}, set())
        return LogDelay(_num(cfg, "model", "x_bar"), _num(cfg, "model", "k"))
    raise ScenarioError(f"model.type: unknown reward-timing model {kind!r}")


# ---------------------------------------------------------------------------
# domain pipelines

def _check(result: RunResult, verdict: str, thunk, label: str | None = None):
    """Run one bound check and record its verdict; return the representation.

    On success the representation is appended and the verdict passes; a
    BoundViolated fails the verdict, adds a "<label> failed: ..." note
    (label defaults to the verdict name) and returns None.
    """
    try:
        rep = thunk()
    except BoundViolated as exc:
        result.verdicts[verdict] = False
        result.notes.append(f"{label or verdict} failed: {exc}")
        return None
    result.representations.append(rep.as_dict())
    result.verdicts[verdict] = True
    return rep


def _smooth_cap(result: RunResult, table_name: str, model, sampler):
    """smooth_ambiguity_bound's representation; its defect table goes into result."""
    rep, result.tables[table_name] = unc_mod.smooth_ambiguity_bound(model, sampler)
    return rep


def _run_risk(name: str, model, sampler_cfg: dict, tols: dict) -> RunResult:
    _check_keys(sampler_cfg, "sampler", set(),
                {"resolution", "seed", "n_random_triples", "n_pairs", "n_alphas"})
    sampler = risk_mod.SimplexSampler(
        resolution=_int(sampler_cfg, "sampler", "resolution", 11, minimum=1),
        seed=_int(sampler_cfg, "sampler", "seed", 0),
        n_random_triples=_int(sampler_cfg, "sampler", "n_random_triples", 100, minimum=0),
        n_pairs=_int(sampler_cfg, "sampler", "n_pairs", 20, minimum=1),
        n_alphas=_int(sampler_cfg, "sampler", "n_alphas", 5, minimum=1),
    )
    _check_grid("simplex", model.n_outcomes, sampler.resolution, "resolution")
    tol = tols["bisect"]
    slack = tols["slack"]
    result = RunResult(name=name, domain="risk")
    cache: dict = {}
    rcl = risk_mod.measure_eps_rcl(model, sampler, tol=tol, cache=cache)
    result.reports.append(rcl.as_dict())
    benchmark = risk_mod.build_affine_benchmark(model, tol=tol)
    _check(result, "mixture-support-bound",
           lambda: risk_mod.verify_thm1(model, benchmark, rcl.value, sampler,
                                        slack=slack, tol=tol, cache=cache))
    ind = risk_mod.measure_eps_independence(model, sampler, tol=tol)
    result.reports.append(ind.as_dict())
    _check(result, "independence-square-bound",
           lambda: risk_mod.verify_thm2(model, ind.value, sampler, benchmark=benchmark,
                                        slack=slack, tol=tol, cache=cache))
    header = [f"p{i}" for i in range(model.n_outcomes)] + \
        ["calibrated_utility", "affine_value", "gap", "allowed"]
    rows = []
    for p in sampler.points(model.n_outcomes):
        u = risk_mod.mixture_utility(model, p, tol=tol, cache=cache)
        l = benchmark.evaluate(p)
        allowed = max(p.support_size - 1, 0) * rcl.value + slack
        rows.append([*p.probs, u, l, abs(u - l), allowed])
    result.tables["grid"] = (header, rows)
    result.tables["defects"] = (
        ["axiom", "eps_hat", "samples"],
        [[rcl.axiom, rcl.value, rcl.samples_evaluated],
         [ind.axiom, ind.value, ind.samples_evaluated]],
    )
    return result


def _homothetic_exactness(model, pts, tol: float = 1e-10, n_top: int = 10) -> float:
    """Largest |u(2^n x) / 2^n - u(x)| over the nonzero points, n in (1, 4, n_top)."""
    X = np.array([x for x in pts if np.any(x)]).reshape(-1, model.n_states)
    scales = np.array([2.0 ** n for n in (1, 4, n_top)])[:, None]
    ce = unc_mod.ce_batch(model, np.concatenate([X, *(s * X for s in scales)]), tol)
    u, scaled = ce[:len(X)], ce[len(X):].reshape(len(scales), len(X))
    return float(np.max(np.abs(scaled / scales - u), initial=0.0))


def _run_uncertainty(name: str, model, sampler_cfg: dict, tols: dict) -> RunResult:
    _check_keys(sampler_cfg, "sampler", set(),
                {"resolution", "seed", "bound", "n_random_pairs", "quasiconcave",
                 "qc_resolution", "level_resolution", "homog"})
    sampler = unc_mod.BoxSampler(
        n_states=model.n_states,
        bound=_num(sampler_cfg, "sampler", "bound", 10.0),
        resolution=_int(sampler_cfg, "sampler", "resolution", 11, minimum=2),
        seed=_int(sampler_cfg, "sampler", "seed", 0),
        n_random_pairs=_int(sampler_cfg, "sampler", "n_random_pairs", 100, minimum=0),
    )
    quasiconcave = _bool(sampler_cfg, "sampler", "quasiconcave", False)
    qc_res = _int(sampler_cfg, "sampler", "qc_resolution", 21, minimum=2)
    level_res = _int(sampler_cfg, "sampler", "level_resolution", 64, minimum=2)
    _check_grid("box", model.n_states, sampler.resolution, "resolution")
    if quasiconcave:
        _check_grid("box", model.n_states, qc_res, "qc_resolution")
    tol = tols["bisect"]
    verify_tol = tols["verify"]
    result = RunResult(name=name, domain="uncertainty")
    theta_rep, converged = unc_mod.theta_estimate(model, sampler, tol=tol)
    result.reports.append(theta_rep.as_dict())
    benchmark = None
    try:
        benchmark = unc_mod.extract_prior(model, tol=1e-9)
        result.notes.append(f"recovered prior {benchmark.prior}")
    except NotAdditive as exc:
        result.notes.append(f"prior not additive: {exc}")
    except NotConverged as exc:
        result.notes.append(f"doubling limit did not converge: {exc}")
    if benchmark is not None and converged:
        _check(result, "linear-theta-bound",
               lambda: unc_mod.verify_aa_bound(model, benchmark, theta_rep.value, sampler,
                                               converged=converged, tol=verify_tol,
                                               bisect_tol=tol))
    elif not converged:
        result.notes.append(
            "dyadic defect series classified divergent; linear closeness bound "
            "not applicable")
        exact = _homothetic_exactness(model, sampler.points()[:25], tol=tol)
        passed = exact <= 1e-9
        result.verdicts["homothetic-exactness"] = passed
        result.notes.append(f"homothetic exactness defect {exact:.3g}")
    if isinstance(model, SmoothAmbiguity):
        _check(result, "raw-defect-cap",
               lambda: _smooth_cap(result, "smooth-defects", model, sampler))
    if _bool(sampler_cfg, "sampler", "homog", True):
        try:
            _check(result, "homogeneous-bound",
                   lambda: unc_mod.verify_homog_bound(model, sampler, bisect_tol=tol,
                                                      tol=verify_tol))
        except NotConverged as exc:
            result.notes.append(f"scaling limit did not converge: {exc}")
    if quasiconcave:
        envelope = unc_mod.quasiconcavify(model, box_bound=sampler.bound,
                                          resolution=qc_res,
                                          level_resolution=level_res,
                                          bisect_tol=tol)
        ua = unc_mod.measure_eps_ua(model, sampler, extra_probes=envelope.probes,
                                    tol=tol)
        result.reports.append(ua.as_dict())
        _check(result, "quasiconcave-bound",
               lambda: unc_mod.verify_quasiconcave_bound(model, envelope, ua.value,
                                                         seed=sampler.seed))
    header = [f"x{i}" for i in range(model.n_states)] + ["ce_utility"]
    if benchmark is not None:
        header += ["linear_value", "gap"]
    rows = []
    pts = sampler.points()
    for x, u in zip(pts, unc_mod.ce_batch(model, pts, tol).tolist()):
        row = [*map(float, x), u]
        if benchmark is not None:
            l = benchmark.evaluate(x)
            row += [l, abs(u - l)]
        rows.append(row)
    result.tables["acts"] = (header, rows)
    partials = theta_rep.details.get("partial_sums") or []
    result.tables["theta"] = (
        ["n", "partial_sum"],
        [[i, float(s)] for i, s in enumerate(partials)],
    )
    return result


def _run_time_discrete(name: str, model, sampler_cfg: dict, tols: dict) -> RunResult:
    _check_keys(sampler_cfg, "sampler", set(), {"t_sample", "n_max", "w_t_max"})
    t_sample = [int(t) for t in _numlist(sampler_cfg, "sampler", "t_sample",
                                         [1, 2, 3, 5, 8])]
    n_max = _int(sampler_cfg, "sampler", "n_max", 40, minimum=1)
    w_t_max = _int(sampler_cfg, "sampler", "w_t_max", 16, minimum=1)
    result = RunResult(name=name, domain="time-discrete")
    theta_rep, converged = time_mod.theta_over_sample(model, t_sample, n_max=n_max)
    result.reports.append(theta_rep.as_dict())
    fit = None
    try:
        fit = time_mod.fit_gamma(model, n_max=n_max)
        result.notes.append(
            f"fit gamma {fit.gamma!r} (n_used={fit.n_used}, "
            f"extrapolated={fit.extrapolated})")
        if fit.degenerate:
            result.notes.append(
                "rate fit degenerate (gamma at 1): curve decays slower than any "
                "exponential; closeness bound skipped")
    except NotConverged as exc:
        result.notes.append(f"rate fit did not converge: {exc}")
    if fit is not None and not fit.degenerate and converged:
        _check(result, "exponential-log-bound",
               lambda: time_mod.verify_exp_bound(model, fit.gamma, theta_rep.value,
                                                 t_range=[0, *t_sample], tol=tols["time"]))
    elif not converged:
        result.notes.append(
            "stationarity defect series classified divergent; exponential "
            "closeness bound not applicable")
    try:
        w = time_mod.measure_W_axiom(model, t_max=w_t_max)
        result.reports.append(w.as_dict())
        rec = time_mod.exact_recovery(model, w.value)
        result.representations.append(rec.as_dict())
        result.notes.append(
            f"recovery gamma {rec.parameters['gamma']!r} at tau="
            f"{rec.parameters['tau']} (level defect {rec.achieved_distance:.3g})")
    except HypothesisFailed as exc:
        result.notes.append(f"multiplicative meter skipped: {exc}")
    except NoSuchTau as exc:
        result.notes.append(f"recovery skipped: {exc}")
    top = 40 if model.T_max is None else min(40, model.T_max)
    gamma_ref = fit.gamma if fit is not None else None
    header = ["t", "d", "gamma_power", "log_defect"]
    rows = []
    for t in range(top + 1):
        d = discount(model, t)
        if gamma_ref is not None and gamma_ref < 1.0:
            gp = math.exp(t * math.log(gamma_ref))
            defect = abs(model.log_d(t) - t * math.log(gamma_ref))
        else:
            gp, defect = None, None
        rows.append([t, d, gp, defect])
    result.tables["curve"] = (header, rows)
    series = [time_mod.theta_series(model, t, n_max=n_max) for t in t_sample]
    result.tables["theta"] = (
        ["t", "theta", "converged"],
        [[t, rep.value, rep.details["converged"]] for t, rep in zip(t_sample, series)],
    )
    return result


def _run_time_continuous(name: str, model, sampler_cfg: dict, tols: dict) -> RunResult:
    _check_keys(sampler_cfg, "sampler", set(),
                {"x_min", "x_count", "t_max", "t_count", "delta_max", "delta_count"})
    x_min = _num(sampler_cfg, "sampler", "x_min", model.x_bar - 2.0)
    x_count = _int(sampler_cfg, "sampler", "x_count", 9, minimum=1)
    t_top = _num(sampler_cfg, "sampler", "t_max", 10.0)
    t_count = _int(sampler_cfg, "sampler", "t_count", 11, minimum=1)
    d_top = _num(sampler_cfg, "sampler", "delta_max", 2.0)
    d_count = _int(sampler_cfg, "sampler", "delta_count", 4, minimum=1)
    if x_min > model.x_bar:
        raise ScenarioError("sampler.x_min: must not exceed the model ceiling")
    xs = np.linspace(x_min, model.x_bar, x_count)
    ts = np.linspace(0.0, t_top, t_count)
    deltas = np.linspace(d_top / d_count, d_top, d_count)
    tol = tols["time"]
    result = RunResult(name=name, domain="time-continuous")
    curve = time_mod.continuous_gamma_curve(model, xs, tol=1e-9)
    result.tables["gamma"] = curve.table()
    eps = time_mod.measure_eps_stationarity(model, xs, deltas, tol=1e-9)
    result.reports.append(eps.as_dict())
    lam = time_mod.measure_lambda_lipschitz(model, xs, ts, deltas)
    result.reports.append(lam.as_dict())
    _check(result, "time-shift-bound",
           lambda: time_mod.verify_exp3_bound(model, eps.value, lam.value, xs, ts, tol=tol))
    gmap = dict(zip(curve.xs, curve.gammas))
    rows = []
    for x in curve.xs:
        for t in ts:
            u = model.value(x, float(t))
            h = model.value(model.x_bar, float(t) + gmap[x])
            rows.append([x, float(t), u, h, abs(u - h)])
    result.tables["shift"] = (["x", "t", "u", "benchmark", "gap"], rows)
    return result


_DOMAINS = {
    "risk": (_build_risk_model, _run_risk),
    "uncertainty": (_build_uncertainty_model, _run_uncertainty),
    "time-discrete": (_build_time_model, _run_time_discrete),
    "time-continuous": (_build_continuous_model, _run_time_continuous),
}


def run_scenario(scenario: dict) -> RunResult:
    """Validate a scenario object and run its domain pipeline."""
    _check_keys(scenario, "scenario", {"version", "name", "domain", "model"},
                {"sampler", "tolerances"})
    version = scenario["version"]
    if version != 1:
        raise ScenarioError(f"version: unsupported value {version!r} (expected 1)")
    name = scenario["name"]
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ScenarioError(
            "name: expected letters, digits, '-' or '_' (max 64, starting "
            "with a letter or digit)")
    domain = scenario["domain"]
    if domain not in _DOMAINS:
        raise ScenarioError(
            f"domain: unknown value {domain!r} (expected one of {sorted(_DOMAINS)})")
    tol_cfg = scenario.get("tolerances", {})
    _check_keys(tol_cfg, "tolerances", set(), {"bisect", "slack", "verify", "time"})
    tols = {
        "bisect": _num(tol_cfg, "tolerances", "bisect", 1e-10),
        "slack": _num(tol_cfg, "tolerances", "slack", 1e-7),
        "verify": _num(tol_cfg, "tolerances", "verify", 1e-6),
        "time": _num(tol_cfg, "tolerances", "time", 1e-6),
    }
    for key, value in tols.items():
        if not value > 0.0:
            raise ScenarioError(f"tolerances.{key}: must be positive")
    build, run = _DOMAINS[domain]
    model_cfg = scenario["model"]
    if not isinstance(model_cfg, dict) or "type" not in model_cfg:
        raise ScenarioError("model: expected an object with a 'type' key")
    try:
        model = build(model_cfg)
    except InvalidModel as exc:
        raise ScenarioError(f"model: {exc}") from exc
    return run(name, model, scenario.get("sampler", {}), tols)


# ---------------------------------------------------------------------------
# builtins

def _builtin_allais() -> RunResult:
    rep = risk_mod.allais_report()
    result = RunResult(name="allais", domain="risk")
    result.verdicts["common-ratio-pattern"] = rep.exhibits_common_ratio_effect
    result.verdicts["reversal-restored"] = rep.reversal_restored
    lo, hi = rep.lambda_bracket
    result.verdicts["lambda-star-in-bracket"] = lo < rep.lambda_star < hi
    result.notes.append(
        f"values: " + ", ".join(f"{k}={v:.6f}" for k, v in rep.values.items()))
    result.notes.append(f"lambda* = {rep.lambda_star!r}")
    result.tables["gambles"] = rep.table()
    result.tables["summary"] = (
        ["quantity", "value"],
        [["lambda_star", rep.lambda_star],
         ["value_exponent", rep.value_exponent],
         ["weight_exponent", rep.weight_exponent]],
    )
    return result


def _builtin_figure1() -> RunResult:
    fig = risk_mod.figure1_data(resolution=1001)
    result = RunResult(name="figure1", domain="risk")
    result.verdicts["weighting-gap-within-claim"] = fig.within_claim
    result.notes.append(
        f"max |w(p) - p| = {fig.max_abs_gap!r} at p = {fig.argmax_p!r} "
        f"(claimed cap {fig.claim})")
    if not fig.within_claim:
        result.notes.append(
            "the fitted weighting curve peaks above the nominal cap; the gap "
            "is real, not numerical noise")
    result.tables["curve"] = fig.table()
    result.tables["summary"] = (
        ["quantity", "value"],
        [["max_abs_gap", fig.max_abs_gap],
         ["argmax_p", fig.argmax_p],
         ["claim", fig.claim]],
    )
    return result


def _builtin_smooth_bound() -> RunResult:
    result = RunResult(name="smooth-bound", domain="uncertainty")
    priors = ((0.3, 0.7), (0.8, 0.2))
    weights = (0.5, 0.5)
    for f_name in ("sqrt1pz2", "z_minus_exp"):
        model = SmoothAmbiguity(f_name, priors, weights)
        sampler = unc_mod.BoxSampler(n_states=2, bound=10.0, resolution=50)
        rep = _check(result, f"{f_name}-defect-cap",
                     lambda: _smooth_cap(result, f"{f_name}-defects", model, sampler),
                     label=f"{f_name} defect cap")
        if rep is not None:
            result.notes.append(
                f"{f_name}: sup defect {rep.achieved_distance!r}, closed-form "
                f"identity gap {rep.details['identity_gap']:.3g}")
        try:
            benchmark = unc_mod.extract_prior(model, tol=1e-9)
            mean = model.mean_prior
            gap = max(abs(a - b) for a, b in zip(benchmark.prior, mean))
            result.verdicts[f"{f_name}-prior-additive"] = gap <= 1e-6
            result.notes.append(f"{f_name}: recovered prior {benchmark.prior}")
        except NotAdditive as exc:
            result.verdicts[f"{f_name}-prior-additive"] = False
            result.notes.append(f"{f_name} prior extraction failed: {exc}")
        e1 = np.array([1.0, 0.0])
        partials, converged = unc_mod.dyadic_phi_series(model, e1, np.zeros(2))
        result.tables[f"{f_name}-series"] = (
            ["n", "partial_sum"],
            [[i, s] for i, s in enumerate(partials)],
        )
        result.notes.append(f"{f_name}: anchor series converged={converged}")
    return result


def _builtin_quasi_hyperbolic() -> RunResult:
    model = QuasiHyperbolic(0.9, 0.95)
    result = RunResult(name="quasi-hyperbolic", domain="time-discrete")
    theta_rep, converged = time_mod.theta_over_sample(model, (1, 2, 3, 4), n_max=40)
    result.reports.append(theta_rep.as_dict())
    target = abs(math.log(model.beta))
    result.verdicts["theta-matches-beta"] = abs(theta_rep.value - target) <= 1e-9
    fit = time_mod.fit_gamma(model, n_max=40)
    result.verdicts["gamma-matches-delta"] = abs(fit.gamma - model.delta) <= 1e-6
    rep = _check(result, "exponential-log-bound",
                 lambda: time_mod.verify_exp_bound(model, fit.gamma, theta_rep.value,
                                                   t_range=range(0, 201), tol=1e-9))
    if rep is not None:
        result.verdicts["bound-tight"] = abs(rep.achieved_distance - theta_rep.value) <= 1e-9
    w = time_mod.measure_W_axiom(model, t_max=16)
    result.reports.append(w.as_dict())
    rec = time_mod.exact_recovery(model, w.value)
    result.representations.append(rec.as_dict())
    result.notes.append(
        f"theta {theta_rep.value!r} vs |log beta| {target!r}; fit gamma "
        f"{fit.gamma!r}; recovery tau={rec.parameters['tau']} gamma="
        f"{rec.parameters['gamma']!r}")
    rows = []
    for t in range(41):
        d = discount(model, t)
        gp = math.exp(t * fit.log_gamma)
        rows.append([t, d, gp, abs(model.log_d(t) - t * fit.log_gamma)])
    result.tables["curve"] = (["t", "d", "gamma_power", "log_defect"], rows)
    return result


BUILTINS = {
    "allais": ("common-ratio gambles under the fitted weighting model",
               _builtin_allais),
    "figure1": ("weighting-curve gap w(p) - p and its true maximum",
                _builtin_figure1),
    "smooth-bound": ("uniform defect cap for both smooth transforms",
                     _builtin_smooth_bound),
    "quasi-hyperbolic": ("present-bias curve: tight exponential closeness",
                         _builtin_quasi_hyperbolic),
}


# ---------------------------------------------------------------------------
# emission and entry point

def _emit(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for table_name in sorted(result.tables):
        header, rows = result.tables[table_name]
        path = write_csv(out_dir / f"{result.name}-{table_name}.csv", header, rows)
        print(f"wrote {path}")
    path = write_report_json(out_dir / f"{result.name}-report.json",
                             result.report_dict())
    print(f"wrote {path}")
    for verdict, passed in result.verdicts.items():
        print(f"{'PASS' if passed else 'FAIL'} {verdict}")
    for note in result.notes:
        print(f"note: {note}")


def _cmd_run(args) -> int:
    try:
        with open(args.scenario, "r") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        print(f"error: scenario file not found: {args.scenario}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in {args.scenario}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(data, dict):
        print("error: scenario: expected a JSON object", file=sys.stderr)
        return 1
    if args.tol is not None:
        data.setdefault("tolerances", {})["bisect"] = args.tol
    if args.seed is not None or args.grid is not None:
        data.setdefault("sampler", {})
        if args.seed is not None:
            data["sampler"]["seed"] = args.seed
        if args.grid is not None:
            data["sampler"]["resolution"] = args.grid
    result = run_scenario(data)
    _emit(result, Path(args.out))
    return result.exit_code


def _cmd_builtin(args) -> int:
    if args.name not in BUILTINS:
        print(f"error: unknown builtin {args.name!r}; available: "
              f"{', '.join(sorted(BUILTINS))}", file=sys.stderr)
        return 1
    result = BUILTINS[args.name][1]()
    _emit(result, Path(args.out))
    return result.exit_code


def _cmd_list(args) -> int:
    for name in sorted(BUILTINS):
        print(f"{name}: {BUILTINS[name][0]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearrep",
        description="Measure decision-model axiom defects and verify the "
                    "closeness bounds they imply.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a JSON scenario file")
    p_run.add_argument("scenario", help="path to the scenario JSON")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.add_argument("--tol", type=float, default=None,
                       help="override the bisection tolerance")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the sampler seed")
    p_run.add_argument("--grid", type=int, default=None,
                       help="override the sampler resolution")
    p_run.set_defaults(func=_cmd_run)
    p_builtin = sub.add_parser("builtin", help="run a built-in worked example")
    p_builtin.add_argument("name", help="builtin name (see 'nearrep list')")
    p_builtin.add_argument("--out", default=".", help="output directory (default: .)")
    p_builtin.set_defaults(func=_cmd_builtin)
    p_list = sub.add_parser("list", help="list built-in worked examples")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidModel, NoBracket, HypothesisFailed, NotConverged) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except NearRepError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
