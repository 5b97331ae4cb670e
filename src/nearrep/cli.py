"""Command line front end: audit scenario files and built-in worked examples.

Subcommands:
  run <scenario.json> [--out DIR] [--seed N] [--grid N]
  builtin <name> [--out DIR]
  list

Exit codes: 0 when every applicable theorem bound passed, 2 when at least
one bound check failed, 1 for malformed scenarios, unusable inputs or a
command line that does not parse.

A scenario file is a JSON object with keys version (must be 1), name,
domain, model, and an optional sampler object; unknown keys anywhere are
rejected so typos fail loudly rather than silently changing the run. The
solve tolerance and the bound slacks are the core constants, not keys.
Outputs are <name>-report.json plus one <name>-<table>.csv per table;
identical scenario and seed produce byte-identical files.
"""

from __future__ import annotations

import importlib
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .core import (BOUND_SLACK, MAX_GRID_POINTS, BoundViolated, HypothesisFailed, InvalidModel,
                   NearRepError, NoBracket, NoSuchTau, NotAdditive, NotConverged, ScenarioError,
                   _Record, discount, grid_size)
from .tables import write_csv, write_report_json

if TYPE_CHECKING:
    import argparse

__all__ = ["main", "run_scenario", "BUILTINS"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$")


class RunResult(_Record):
    def __init__(self, name: str, domain: str):
        self.name, self.domain = name, domain
        self.verdicts: dict[str, bool] = {}
        self.reports: list[dict] = []
        self.representations: list[dict] = []
        self.notes: list[str] = []
        # name -> (header, rows): rows are mixed-type lists or one 2-D float array
        self.tables: dict[str, tuple[list, object]] = {}

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
# scenario schema: every key is declared once below and parsed by _parse

class _Key(NamedTuple):
    kind: str                 # a _KINDS name
    default: object = ...     # ...: the class field's default, if any (see _parse)
    floor: int | None = None  # least value; for a list, of every entry


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list_of(accepts):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(map(accepts, v))


def _leaves(v):  # the scalar entries of a value, however deeply listed
    return [x for e in v for x in _leaves(e)] if isinstance(v, list) else [v]


def _frozen(v, scalar):  # lists become tuples, entries scalar(entry)
    return tuple(_frozen(e, scalar) for e in v) if isinstance(v, list) else scalar(v)


# kind -> (accepts the JSON value, type of its entries or None to keep it as
# given, what an error says was expected)
_KINDS = {
    "any": (lambda v: True, None, None),
    "number": (_is_number, float, "a number"),
    "integer": (_is_integer, int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), None, "true or false"),
    "string": (lambda v: isinstance(v, str), None, "a string"),
    "numbers": (_list_of(_is_number), float, "a non-empty list of numbers"),
    "integers": (_list_of(_is_integer), int, "a non-empty list of integers"),
    "vectors": (_list_of(_list_of(_is_number)), float, "a list of number lists"),
}


def _parse(obj, path: str, spec: dict[str, _Key], cls) -> dict:
    """Typed values of every key in spec, defaults filled in.

    A key with no default in spec takes the default of the same-named
    parameter of cls.__init__ (cls None: no class), so that parameter is the
    one home of the default; a key with neither is required. Checks in this
    order: obj is an object; no unknown key (in the file's order); no missing
    required key (in declared order); then each given key's kind, finiteness
    (number kinds: NaN, infinities and integers beyond the float range are
    refused) and floor (in declared order).
    """
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    defaults = {}
    if cls:  # __init__'s defaults belong to its last positional parameters
        code, values = cls.__init__.__code__, cls.__init__.__defaults__ or ()
        defaults = dict(zip(code.co_varnames[code.co_argcount - len(values):], values))
    defaults.update({key: want.default for key, want in spec.items() if want.default is not ...})
    for key in obj:
        if key not in spec:
            raise ScenarioError(f"{path}: unknown key '{key}'")
    for key in spec:
        if key not in obj and key not in defaults:
            raise ScenarioError(f"{path}: missing required key '{key}'")
    out = {}
    for key, want in spec.items():
        if key not in obj:
            out[key] = defaults[key]
            continue
        v = obj[key]
        accepts, scalar, expected = _KINDS[want.kind]
        if not accepts(v):
            raise ScenarioError(f"{path}.{key}: expected {expected}")
        if scalar is float and not all(map(_is_finite, _leaves(v))):
            what = "entries must be finite numbers" if isinstance(v, list) else \
                "must be a finite number"
            raise ScenarioError(f"{path}.{key}: {what}")
        if want.floor is not None and (min(v) if isinstance(v, list) else v) < want.floor:
            entries = "entries " if isinstance(v, list) else ""
            raise ScenarioError(f"{path}.{key}: {entries}must be at least {want.floor}")
        out[key] = v if scalar is None else _frozen(v, scalar)
    return out


_SCENARIO = {"version": _Key("any"), "name": _Key("any"), "domain": _Key("any"),
             "model": _Key("any"), "sampler": _Key("any", {})}

# domain -> (what its models are called, their module, its sampler class or None, {type:
# (class name, keys in constructor order)}); a module loads once a scenario names its domain
_MODELS = {
    "risk": ("risk model", "risk", "SimplexSampler", {
        "expected_utility": ("ExpectedUtility", {"utilities": _Key("numbers")}),
        "cpt": ("CumulativeProspect", {"value_exponent": _Key("number"),
                                       "weight_exponent": _Key("number"),
                                       "prizes": _Key("numbers")}),
    }),
    "uncertainty": ("uncertainty model", "uncertainty", "BoxSampler", {
        "seu": ("SubjectiveExpected", {"prior": _Key("numbers")}),
        "meu": ("MaxminExpected", {"priors": _Key("vectors")}),
        "smooth": ("SmoothAmbiguity", {"f": _Key("string"), "priors": _Key("vectors"),
                                       "weights": _Key("numbers")}),
        "ces": ("CESUtility", {"weights": _Key("numbers"), "rho": _Key("number")}),
        "linear_plus_bounded": ("LinearPlusBounded", {"prior": _Key("numbers"),
                                                      "bump": _Key("number")}),
    }),
    "time-discrete": ("discount model", "timepref", None, {
        "exponential": ("Exponential", {"gamma": _Key("number")}),
        "quasi_hyperbolic": ("QuasiHyperbolic", {"beta": _Key("number"),
                                                 "delta": _Key("number")}),
        "hyperbolic": ("Hyperbolic", {"k": _Key("number")}),
        "tabulated": ("TabulatedDiscount", {"values": _Key("numbers")}),
    }),
    "time-continuous": ("reward-timing model", "timepref", None, {
        "linear_delay": ("LinearDelay", {"x_bar": _Key("number"), "rate": _Key("number")}),
        "log_delay": ("LogDelay", {"x_bar": _Key("number"), "k": _Key("number")}),
    }),
}

# a risk or uncertainty key with no default here takes its sampler's __init__ default
_SAMPLERS = {
    "risk": {"resolution": _Key("integer", floor=2), "seed": _Key("integer", floor=0),
             "n_random_triples": _Key("integer", floor=0), "n_pairs": _Key("integer", floor=1),
             "n_alphas": _Key("integer", floor=1)},
    "uncertainty": {"bound": _Key("number"), "resolution": _Key("integer", floor=2),
                    "seed": _Key("integer", floor=0), "n_random_pairs": _Key("integer", floor=0),
                    "quasiconcave": _Key("bool", False),
                    "qc_resolution": _Key("integer", 21, 2),
                    "level_resolution": _Key("integer", 64, 2), "homog": _Key("bool", True)},
    "time-discrete": {"t_sample": _Key("integers", (1, 2, 3, 5, 8), 0),
                      "n_max": _Key("integer", 40, 1), "w_t_max": _Key("integer", 16, 1)},
    # x_min None: two below the model's ceiling x_bar
    "time-continuous": {"x_min": _Key("number", None), "x_count": _Key("integer", 9, 1),
                        "t_max": _Key("number", 10.0), "t_count": _Key("integer", 11, 1),
                        "delta_max": _Key("number", 2.0),
                        "delta_count": _Key("integer", 4, 1)},
}


def _parse_model(cfg, noun: str, module, types: dict):
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ScenarioError("model: expected an object with a 'type' key")
    kind = cfg["type"]
    if not isinstance(kind, str) or kind not in types:
        raise ScenarioError(f"model.type: unknown {noun} {kind!r}")
    cls_name, keys = types[kind]
    cls = getattr(module, cls_name)
    values = _parse(cfg, "model", {"type": _Key("any"), **keys}, cls)
    try:
        return cls(*(values[key] for key in keys))
    except InvalidModel as exc:
        raise ScenarioError(f"model: {exc}") from exc


# ---------------------------------------------------------------------------
# work caps, computed from the parsed counts: each pipeline checks its own first

# Doubles hold every integer up to 2^53 and no further. The time-discrete
# meters evaluate discount curves at integer delays up to 2^(n_max + 1) t (the
# dyadic series at anchor t; the rate fit stops at 2^n_max); beyond 2^53 those
# delays are no longer exact, and a curve like 1 / (1 + k t) overflows.
MAX_EXACT_DELAY = 2 ** 53

# The quasi-concave envelope builds one convex hull per level and tests every
# qc grid point against every hull: level_resolution hulls and level_resolution
# x qc grid points entries of one boolean matrix. The default 3-state envelope
# (64 levels, 21^3 points) has 592,704 entries. A hull costs a fraction of a
# millisecond even on a few points, so the level count has its own cap.
MAX_HULL_MEMBERSHIPS = 1_000_000
MAX_HULL_LEVELS = 10_000


def _check_grid(space: str, dim: int, resolution: int, key: str) -> None:
    """Refuse a sampler grid above MAX_GRID_POINTS from its count, before it exists."""
    n = grid_size(space, dim, resolution)
    if n > MAX_GRID_POINTS:
        raise ScenarioError(f"sampler.{key}: a resolution of {resolution} gives a {dim}-D "
                            f"{space} grid of {n} points, above the cap of {MAX_GRID_POINTS}")


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
    from . import uncertainty as unc_mod
    rep, result.tables[table_name] = unc_mod.smooth_ambiguity_bound(model, sampler)
    return rep


def _run_risk(name: str, model, s: dict) -> RunResult:
    import numpy as np
    from . import risk as risk_mod
    _check_grid("simplex", model.n_outcomes, s["resolution"], "resolution")
    if s["n_random_triples"] > MAX_GRID_POINTS:
        raise ScenarioError(f"sampler.n_random_triples: {s['n_random_triples']} mixture probes, "
                            f"above the cap of {MAX_GRID_POINTS}")
    probes = s["n_pairs"] * s["n_alphas"]
    if probes > MAX_GRID_POINTS:
        raise ScenarioError(f"sampler.n_pairs: {s['n_pairs']} pairs times sampler.n_alphas "
                            f"{s['n_alphas']} give {probes} independence probes, above the "
                            f"cap of {MAX_GRID_POINTS}")
    sampler = risk_mod.SimplexSampler(**s)
    result = RunResult(name=name, domain="risk")
    # the grid is calibrated once; the meter, both verifiers and the table read u,
    # and the benchmark is the expected utility of u at the vertices
    G = sampler.grid(model.n_outcomes)
    u = risk_mod.mixture_utility_batch(model, G)
    vertex_rows, prize = np.nonzero(G == 1.0)
    benchmark = risk_mod.ExpectedUtility(tuple(u[vertex_rows[np.argsort(prize)]].tolist()))
    rcl = risk_mod.measure_eps_rcl(model, u, sampler)
    result.reports.append(rcl.as_dict())
    _check(result, "mixture-support-bound",
           lambda: risk_mod.verify_thm1(u, benchmark, rcl.value, sampler))
    ind = risk_mod.measure_eps_independence(model, sampler)
    result.reports.append(ind.as_dict())
    _check(result, "independence-square-bound",
           lambda: risk_mod.verify_thm2(u, benchmark, ind.value, sampler))
    l = benchmark.value_batch(G)
    allowed = (risk_mod._support_sizes(G) - 1) * rcl.value + BOUND_SLACK
    header = [f"p{i}" for i in range(model.n_outcomes)] + \
        ["calibrated_utility", "affine_value", "gap", "allowed"]
    result.tables["grid"] = (header, np.column_stack([G, u, l, np.abs(u - l), allowed]))
    result.tables["defects"] = (
        ["axiom", "eps_hat", "samples"],
        [[rcl.axiom, rcl.value, rcl.samples_evaluated],
         [ind.axiom, ind.value, ind.samples_evaluated]],
    )
    return result


# largest _homothetic_exactness defect the homothetic-exactness verdict accepts
HOMOTHETIC_EXACTNESS_TOL = 1e-9


def _homothetic_exactness(model, pts) -> float:
    """Largest |u(2^n x) / 2^n - u(x)| over the nonzero acts pts, n in (1, 4, 10).

    u is the certainty equivalent; the acts and their scaled copies are solved in one call.
    """
    import numpy as np
    from . import uncertainty as unc_mod
    X = pts[np.any(pts, axis=1)]
    scales = np.array([1.0, 2.0, 16.0, 1024.0])[:, None]
    u = unc_mod.ce_batch(model, np.concatenate([s * X for s in scales])).reshape(len(scales), -1)
    return float(np.max(np.abs(u[1:] / scales[1:] - u[0]), initial=0.0))


def _run_uncertainty(name: str, model, s: dict) -> RunResult:
    import numpy as np
    from . import uncertainty as unc_mod
    if s["bound"] <= 0.0:
        raise ScenarioError("sampler.bound: must be positive")
    _check_grid("box", model.n_states, s["resolution"], "resolution")
    if s["quasiconcave"]:
        _check_grid("box", model.n_states, s["qc_resolution"], "qc_resolution")
        levels = s["level_resolution"]
        points = grid_size("box", model.n_states, s["qc_resolution"])
        if levels > MAX_HULL_LEVELS:
            raise ScenarioError(f"sampler.level_resolution: {levels} level hulls, above the "
                                f"cap of {MAX_HULL_LEVELS}")
        if levels * points > MAX_HULL_MEMBERSHIPS:
            raise ScenarioError(
                f"sampler.level_resolution: {levels} levels times {points} qc grid points "
                f"give {levels * points} hull memberships, above the cap of "
                f"{MAX_HULL_MEMBERSHIPS}")
    sampler = unc_mod.BoxSampler(model.n_states, s["bound"], s["resolution"], s["seed"],
                                 s["n_random_pairs"])
    result = RunResult(name=name, domain="uncertainty")
    theta_rep, converged = unc_mod.theta_estimate(model, sampler)
    result.reports.append(theta_rep.as_dict())
    benchmark = None
    try:
        benchmark = unc_mod.extract_prior(model)
        result.notes.append(f"recovered prior {benchmark.prior}")
    except NotAdditive as exc:
        result.notes.append(f"prior not additive: {exc}")
    except NotConverged as exc:
        result.notes.append(f"doubling limit did not converge: {exc}")
    # the acts are solved once; the linear verifier and the acts table read ce
    pts = sampler.points()
    ce = unc_mod.ce_batch(model, pts)
    if benchmark is not None and converged:
        _check(result, "linear-theta-bound",
               lambda: unc_mod.verify_aa_bound(ce, benchmark, theta_rep.value, pts,
                                               converged=converged))
    elif not converged:
        result.notes.append(
            "dyadic defect series classified divergent; linear closeness bound "
            "not applicable")
        exact = _homothetic_exactness(model, pts[:25])
        passed = exact <= HOMOTHETIC_EXACTNESS_TOL
        result.verdicts["homothetic-exactness"] = passed
        result.notes.append(f"homothetic exactness defect {exact:.3g}")
    if isinstance(model, unc_mod.SmoothAmbiguity):
        _check(result, "raw-defect-cap",
               lambda: _smooth_cap(result, "smooth-defects", model, sampler))
    if s["homog"]:
        try:
            _check(result, "homogeneous-bound",
                   lambda: unc_mod.verify_homog_bound(model, sampler))
        except NotConverged as exc:
            result.notes.append(f"scaling limit did not converge: {exc}")
    if s["quasiconcave"]:
        envelope = unc_mod.quasiconcavify(model, box_bound=sampler.bound,
                                          resolution=s["qc_resolution"],
                                          level_resolution=s["level_resolution"])
        ua = unc_mod.measure_eps_ua(model, sampler, extra_probes=envelope.probes)
        result.reports.append(ua.as_dict())
        _check(result, "quasiconcave-bound",
               lambda: unc_mod.verify_quasiconcave_bound(envelope, ua.value))
    header = [f"x{i}" for i in range(model.n_states)] + ["ce_utility"]
    columns = [pts, ce]
    if benchmark is not None:
        l = benchmark.evaluate_batch(pts)
        header += ["linear_value", "gap"]
        columns += [l, np.abs(ce - l)]
    result.tables["acts"] = (header, np.column_stack(columns))
    partials = theta_rep.details.get("partial_sums") or []
    result.tables["theta"] = (
        ["n", "partial_sum"],
        [[i, float(s)] for i, s in enumerate(partials)],
    )
    return result


def _run_time_discrete(name: str, model, s: dict) -> RunResult:
    from . import timepref as time_mod
    t_sample, n_max, w_t_max = s["t_sample"], s["n_max"], s["w_t_max"]
    t_top = max(1, *t_sample)
    if n_max > 53 or (t_top << (n_max + 1)) > MAX_EXACT_DELAY:  # no huge shift is built
        raise ScenarioError(f"sampler.n_max: {n_max} takes anchor {t_top} to a delay of "
                            f"2^{n_max + 1} * {t_top}, above the exact-integer cap of 2^53")
    w_pairs = (w_t_max // 2) * (w_t_max - w_t_max // 2)  # pairs s <= t with s + t <= w_t_max
    if w_pairs > MAX_GRID_POINTS:
        raise ScenarioError(f"sampler.w_t_max: {w_t_max} gives {w_pairs} delay pairs, above "
                            f"the cap of {MAX_GRID_POINTS}")
    result = RunResult(name=name, domain="time-discrete")
    # each anchor's series is summed once; the combined report and the theta table read it
    series = [time_mod.theta_series(model, t, n_max=n_max) for t in t_sample]
    theta_rep, converged = time_mod._worst_series(t_sample, series, n_max)
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
                                                 t_range=[0, *t_sample]))
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
    result.tables["curve"] = _curve_table(
        model, math.log(fit.gamma) if fit is not None and fit.gamma < 1.0 else None)
    result.tables["theta"] = (
        ["t", "theta", "converged"],
        [[t, rep.value, rep.details["converged"]] for t, rep in zip(t_sample, series)],
    )
    return result


def _curve_table(model, log_gamma: float | None) -> tuple[list[str], list[list]]:
    """d(t), gamma^t and |log d(t) - t log gamma| for t = 0..40 (within the horizon).

    Without a rate (log_gamma None) the last two columns are empty.
    """
    top = 40 if model.T_max is None else min(40, model.T_max)
    rows = []
    for t in range(top + 1):
        if log_gamma is None:
            rows.append([t, discount(model, t), None, None])
        else:
            rows.append([t, discount(model, t), math.exp(t * log_gamma),
                         abs(model.log_d(t) - t * log_gamma)])
    return ["t", "d", "gamma_power", "log_defect"], rows


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) bit for bit: start + i * step, the last point stop.

    As there, a step that underflows to zero gives i / (num - 1) * (stop - start).
    """
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    step = delta / (num - 1)
    pts = [(i * step if step else i / (num - 1) * delta) + start for i in range(num)]
    pts[-1] = stop
    return pts


def _run_time_continuous(name: str, model, s: dict) -> RunResult:
    from . import timepref as time_mod
    x_count, t_count, d_count = s["x_count"], s["t_count"], s["delta_count"]
    probes = x_count * t_count * d_count  # the delay-Lipschitz meter evaluates each twice
    if probes > MAX_GRID_POINTS:
        raise ScenarioError(f"sampler.x_count: {x_count} payments times sampler.t_count "
                            f"{t_count} times sampler.delta_count {d_count} give {probes} "
                            f"delay probes, above the cap of {MAX_GRID_POINTS}")
    x_min = model.x_bar - 2.0 if s["x_min"] is None else s["x_min"]
    if x_min > model.x_bar:
        raise ScenarioError("sampler.x_min: must not exceed the model ceiling")
    if math.isinf(model.x_bar - x_min):
        raise ScenarioError(f"sampler.x_min: the payment range {x_min!r} to {model.x_bar!r} "
                            "overflows a float")
    xs = _linspace(x_min, model.x_bar, x_count)
    ts = _linspace(0.0, s["t_max"], t_count)
    d_top = s["delta_max"]
    deltas = _linspace(d_top / d_count, d_top, d_count)
    result = RunResult(name=name, domain="time-continuous")
    # gamma(x) is solved once; the stationarity meter, the verifier and the shift table read it
    curve = time_mod.continuous_gamma_curve(model, xs)
    result.tables["gamma"] = curve.table()
    eps = time_mod.measure_eps_stationarity(model, curve, deltas)
    result.reports.append(eps.as_dict())
    lam = time_mod.measure_lambda_lipschitz(model, xs, ts, deltas)
    result.reports.append(lam.as_dict())
    _check(result, "time-shift-bound",
           lambda: time_mod.verify_exp3_bound(model, curve, eps.value, lam.value, ts))
    rows = []
    for x, g in zip(curve.xs, curve.gammas):
        for t in ts:
            u = model.value(x, float(t))
            h = model.value(model.x_bar, float(t) + g)
            rows.append([x, float(t), u, h, abs(u - h)])
    result.tables["shift"] = (["x", "t", "u", "benchmark", "gap"], rows)
    return result


_DOMAINS = {
    "risk": _run_risk,
    "uncertainty": _run_uncertainty,
    "time-discrete": _run_time_discrete,
    "time-continuous": _run_time_continuous,
}


def run_scenario(scenario: dict) -> RunResult:
    """Parse every key of a scenario object, then run its domain pipeline.

    The model and then the sampler are parsed before any work; the
    pipeline checks its work caps before it starts.
    """
    top = _parse(scenario, "scenario", _SCENARIO, None)
    if not _is_integer(top["version"]) or top["version"] != 1:
        raise ScenarioError(f"version: unsupported value {top['version']!r} (expected 1)")
    name = top["name"]
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ScenarioError(
            "name: expected letters, digits, '-' or '_' (max 64, starting "
            "with a letter or digit)")
    domain = top["domain"]
    if not isinstance(domain, str) or domain not in _DOMAINS:
        raise ScenarioError(
            f"domain: unknown value {domain!r} (expected one of {sorted(_DOMAINS)})")
    noun, module_name, sampler_name, types = _MODELS[domain]
    module = importlib.import_module(f".{module_name}", __package__)
    model = _parse_model(top["model"], noun, module, types)
    sampler = _parse(top["sampler"], "sampler", _SAMPLERS[domain],
                     sampler_name and getattr(module, sampler_name))
    return _DOMAINS[domain](name, model, sampler)


# ---------------------------------------------------------------------------
# builtins

def _builtin_allais() -> RunResult:
    from . import risk as risk_mod
    rep = risk_mod.allais_report()
    result = RunResult(name="allais", domain="risk")
    result.verdicts["common-ratio-pattern"] = rep.exhibits_common_ratio_effect
    result.verdicts["reversal-restored"] = rep.reversal_restored
    lo, hi = risk_mod.LAMBDA_BRACKET
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
    from . import risk as risk_mod
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
    from . import uncertainty as unc_mod
    result = RunResult(name="smooth-bound", domain="uncertainty")
    priors = ((0.3, 0.7), (0.8, 0.2))
    weights = (0.5, 0.5)
    for f_name in ("sqrt1pz2", "z_minus_exp"):
        model = unc_mod.SmoothAmbiguity(f_name, priors, weights)
        sampler = unc_mod.BoxSampler(n_states=2, bound=10.0, resolution=50)
        rep = _check(result, f"{f_name}-defect-cap",
                     lambda: _smooth_cap(result, f"{f_name}-defects", model, sampler),
                     label=f"{f_name} defect cap")
        if rep is not None:
            result.notes.append(
                f"{f_name}: sup defect {rep.achieved_distance!r}, closed-form "
                f"identity gap {rep.details['identity_gap']:.3g}")
        try:
            benchmark = unc_mod.extract_prior(model)
            mean = model.mean_prior
            gap = max(abs(a - b) for a, b in zip(benchmark.prior, mean))
            result.verdicts[f"{f_name}-prior-additive"] = gap <= 1e-6
            result.notes.append(f"{f_name}: recovered prior {benchmark.prior}")
        except NotAdditive as exc:
            result.verdicts[f"{f_name}-prior-additive"] = False
            result.notes.append(f"{f_name} prior extraction failed: {exc}")
        partials, converged = unc_mod.dyadic_phi_series(model, (1.0, 0.0), (0.0, 0.0))
        result.tables[f"{f_name}-series"] = (
            ["n", "partial_sum"],
            [[i, s] for i, s in enumerate(partials)],
        )
        result.notes.append(f"{f_name}: anchor series converged={converged}")
    return result


def _builtin_quasi_hyperbolic() -> RunResult:
    from . import timepref as time_mod
    model = time_mod.QuasiHyperbolic(0.9, 0.95)
    result = RunResult(name="quasi-hyperbolic", domain="time-discrete")
    theta_rep, converged = time_mod.theta_over_sample(model, (1, 2, 3, 4), n_max=40)
    result.reports.append(theta_rep.as_dict())
    target = abs(math.log(model.beta))
    tight = time_mod.TIGHT_TOL
    result.verdicts["theta-matches-beta"] = abs(theta_rep.value - target) <= tight
    fit = time_mod.fit_gamma(model, n_max=40)
    result.verdicts["gamma-matches-delta"] = abs(fit.gamma - model.delta) <= 1e-6
    rep = _check(result, "exponential-log-bound",
                 lambda: time_mod.verify_exp_bound(model, fit.gamma, theta_rep.value,
                                                   t_range=range(0, 201), tol=tight))
    if rep is not None:
        result.verdicts["bound-tight"] = abs(rep.achieved_distance - theta_rep.value) <= tight
    w = time_mod.measure_W_axiom(model, t_max=16)
    result.reports.append(w.as_dict())
    rec = time_mod.exact_recovery(model, w.value)
    result.representations.append(rec.as_dict())
    result.notes.append(
        f"theta {theta_rep.value!r} vs |log beta| {target!r}; fit gamma "
        f"{fit.gamma!r}; recovery tau={rec.parameters['tau']} gamma="
        f"{rec.parameters['gamma']!r}")
    result.tables["curve"] = _curve_table(model, fit.log_gamma)
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
    import json
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
    for key, value in (("seed", args.seed), ("resolution", args.grid)):
        # a sampler that is not an object is left for run_scenario to reject
        if value is not None and isinstance(data.setdefault("sampler", {}), dict):
            data["sampler"][key] = value
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
    import argparse
    parser = argparse.ArgumentParser(
        prog="nearrep",
        description="Measure decision-model axiom defects and verify the "
                    "closeness bounds they imply.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a JSON scenario file")
    p_run.add_argument("scenario", help="path to the scenario JSON")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
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
