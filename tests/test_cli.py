"""End-to-end command line behavior: exit codes, outputs, determinism."""

import importlib
import inspect
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearrep.cli import main


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


RISK_SCENARIO = {
    "version": 1,
    "name": "cpt-audit",
    "domain": "risk",
    "model": {"type": "cpt", "value_exponent": 0.54, "weight_exponent": 0.74,
              "prizes": [4000, 3000, 0]},
    "sampler": {"resolution": 5, "n_random_triples": 20, "n_pairs": 5},
}


def test_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("allais", "figure1", "smooth-bound", "quasi-hyperbolic"):
        assert name in out


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["run", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    scenario = dict(RISK_SCENARIO)
    scenario["extra"] = 1
    assert main(["run", _write(tmp_path, "s.json", scenario)]) == 1
    assert "unknown key 'extra'" in capsys.readouterr().err


def test_run_rejects_nested_unknown_key(tmp_path, capsys):
    scenario = json.loads(json.dumps(RISK_SCENARIO))
    scenario["model"]["surprise"] = True
    assert main(["run", _write(tmp_path, "s.json", scenario)]) == 1
    assert "model" in capsys.readouterr().err


@pytest.mark.parametrize("section,flag", [("sampler", ["--seed", "3"]),
                                          ("sampler", ["--grid", "4"]),
                                          ("tolerances", ["--tol", "1e-9"])])
def test_override_of_a_section_that_is_not_an_object(tmp_path, capsys, section, flag):
    scenario = dict(RISK_SCENARIO, **{section: [1]})
    assert main(["run", _write(tmp_path, "s.json", scenario), *flag]) == 1
    assert capsys.readouterr().err == f"error: {section}: expected an object\n"


def test_run_rejects_bad_version(tmp_path, capsys):
    scenario = dict(RISK_SCENARIO)
    scenario["version"] = 3
    assert main(["run", _write(tmp_path, "s.json", scenario)]) == 1
    assert "version" in capsys.readouterr().err


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "string"])
def test_run_rejects_a_version_that_is_not_the_integer_1(tmp_path, capsys, version):
    # True == 1 and 1.0 == 1 in Python, so an equality check alone lets them through
    scenario = dict(RISK_SCENARIO, version=version)
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: version: unsupported value {version!r} (expected 1)\n"
    assert not out.exists()


def test_run_rejects_bad_name(tmp_path):
    scenario = dict(RISK_SCENARIO)
    scenario["name"] = "../escape"
    assert main(["run", _write(tmp_path, "s.json", scenario)]) == 1


UNC_SCENARIO = {
    "version": 1,
    "name": "meu-hull",
    "domain": "uncertainty",
    "model": {"type": "meu", "priors": [[0.3, 0.7], [0.7, 0.3]]},
    "sampler": {"resolution": 3, "n_random_pairs": 5, "homog": False,
                "quasiconcave": True, "qc_resolution": 5, "level_resolution": 4},
}


@pytest.mark.parametrize("key,value,minimum", [("level_resolution", 0, 2),
                                               ("n_random_pairs", -3, 0)])
def test_run_rejects_bad_count(tmp_path, capsys, key, value, minimum):
    scenario = json.loads(json.dumps(UNC_SCENARIO))
    scenario["sampler"][key] = value
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 1
    assert f"sampler.{key}: must be at least {minimum}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("domain_scenario,key,value", [
    ("risk", "resolution", 10 ** 6),
    ("uncertainty", "resolution", 10 ** 6),
    ("uncertainty", "qc_resolution", 500),
])
def test_run_rejects_grid_over_the_cap(tmp_path, capsys, monkeypatch, domain_scenario, key,
                                       value):
    # the cap is checked from the computed count: no grid may be built first
    import nearrep.risk
    import nearrep.uncertainty

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built before the size check")

    monkeypatch.setattr(nearrep.risk, "_simplex_lattice", refuse)
    monkeypatch.setattr(nearrep.uncertainty, "_box_grid", refuse)
    scenario = json.loads(json.dumps(RISK_SCENARIO if domain_scenario == "risk"
                                     else UNC_SCENARIO))
    scenario["sampler"][key] = value
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out",
                 str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"sampler.{key}:" in err and "above the cap" in err


def _patch_uncertainty_meters(monkeypatch):
    import nearrep.uncertainty

    def reached(*args, **kwargs):
        raise _Reached

    for meter in ("theta_estimate", "extract_prior", "verify_aa_bound", "verify_homog_bound",
                  "quasiconcavify", "measure_eps_ua", "ce_batch", "_box_grid"):
        monkeypatch.setattr(nearrep.uncertainty, meter, reached)


@pytest.mark.parametrize("sampler,message", [
    ({"level_resolution": 100_000}, "100000 level hulls, above the cap of 10000"),
    ({"level_resolution": 10 ** 9, "qc_resolution": 2}, "level hulls, above the cap"),
    ({"level_resolution": 109, "qc_resolution": 21, "n_states": 3},
     "109 levels times 9261 qc grid points give 1009449 hull memberships, above the cap "
     "of 1000000"),
    ({"level_resolution": 2268, "qc_resolution": 21},
     "2268 levels times 441 qc grid points give 1000188 hull memberships"),
], ids=["levels-1e5", "levels-1e9", "memberships-3-state", "memberships-2-state"])
def test_run_rejects_level_resolution_over_the_cap(tmp_path, capsys, monkeypatch, sampler,
                                                   message):
    # the caps are worked out from the counts: no meter or grid may run first
    import time

    _patch_uncertainty_meters(monkeypatch)
    scenario = json.loads(json.dumps(UNC_SCENARIO))
    if sampler.pop("n_states", 2) == 3:
        scenario["model"] = {"type": "ces", "weights": [1, 2, 3], "rho": 0.5}
    scenario["sampler"].update(sampler)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: sampler.level_resolution: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("model,sampler", [
    ({"type": "ces", "weights": [1, 2, 3], "rho": 0.5},
     {"level_resolution": 64, "qc_resolution": 21}),   # the default 3-state envelope
    ({"type": "ces", "weights": [1, 2, 3], "rho": 0.5},
     {"level_resolution": 107, "qc_resolution": 21}),
    ({"type": "meu", "priors": [[0.3, 0.7], [0.7, 0.3]]},
     {"level_resolution": 2267, "qc_resolution": 21}),
    ({"type": "ces", "weights": [1], "rho": 0.5},
     {"level_resolution": 10_000, "qc_resolution": 2}),
], ids=["default-3-state", "memberships-at-cap", "memberships-2-state", "levels-at-cap"])
def test_level_resolution_at_the_cap_is_accepted(monkeypatch, model, sampler):
    from nearrep.cli import run_scenario

    _patch_uncertainty_meters(monkeypatch)
    scenario = json.loads(json.dumps(UNC_SCENARIO))
    scenario["model"] = model
    scenario["sampler"].update(sampler)
    with pytest.raises(_Reached):
        run_scenario(scenario)


TIME_SCENARIO = {
    "version": 1,
    "name": "hyp-audit",
    "domain": "time-discrete",
    "model": {"type": "hyperbolic", "k": 0.3},
    "sampler": {},
}


class _Reached(Exception):
    """Raised by a patched meter: the scenario got past every check."""


def _patch_time_meters(monkeypatch):
    import nearrep.timepref

    def reached(*args, **kwargs):
        raise _Reached

    for meter in ("theta_over_sample", "theta_series", "fit_gamma", "measure_W_axiom"):
        monkeypatch.setattr(nearrep.timepref, meter, reached)


@pytest.mark.parametrize("key,value", [("n_max", 1030), ("n_max", 50),
                                       ("w_t_max", 10 ** 8), ("w_t_max", 633)])
def test_run_rejects_time_counts_over_the_cap(tmp_path, capsys, monkeypatch, key, value):
    # the caps are worked out from the counts: no meter may run first
    import time

    _patch_time_meters(monkeypatch)
    scenario = json.loads(json.dumps(TIME_SCENARIO))
    scenario["sampler"][key] = value
    start = time.perf_counter()
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out",
                 str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"sampler.{key}: {value} " in err and "above the" in err


@pytest.mark.parametrize("sampler", [{"n_max": 49}, {"n_max": 46, "t_sample": [0, 64]},
                                     {"w_t_max": 632}])
def test_time_counts_at_the_cap_are_accepted(monkeypatch, sampler):
    # 2^50 * 8 and 2^47 * 64 are 2^53 exactly; 632 gives 316 * 316 = 99,856 pairs
    from nearrep.cli import run_scenario

    _patch_time_meters(monkeypatch)
    with pytest.raises(_Reached):
        run_scenario(dict(TIME_SCENARIO, sampler=sampler))


CONTINUOUS_SCENARIO = {
    "version": 1,
    "name": "shift-audit",
    "domain": "time-continuous",
    "model": {"type": "log_delay", "x_bar": 2.0, "k": 0.1},
    "sampler": {},
}


def _patch_continuous_meters(monkeypatch):
    import nearrep.timepref

    def reached(*args, **kwargs):
        raise _Reached

    for meter in ("continuous_gamma_curve", "measure_eps_stationarity",
                  "measure_lambda_lipschitz", "verify_exp3_bound"):
        monkeypatch.setattr(nearrep.timepref, meter, reached)


@pytest.mark.parametrize("sampler,message", [
    ({"x_count": 1000, "t_count": 101, "delta_count": 1},
     "1000 payments times sampler.t_count 101 times sampler.delta_count 1 give 101000 "
     "delay probes, above the cap of 100000"),
    ({"x_count": 10 ** 9, "t_count": 10 ** 9, "delta_count": 10 ** 9}, "delay probes"),
], ids=["probes", "probes-1e27"])
def test_run_rejects_continuous_counts_over_the_cap(tmp_path, capsys, monkeypatch, sampler,
                                                    message):
    # the cap is worked out from the counts: no grid is built and no meter runs first
    import time

    import nearrep.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built before the size check")

    _patch_continuous_meters(monkeypatch)
    monkeypatch.setattr(nearrep.cli, "_linspace", refuse)
    scenario = json.loads(json.dumps(CONTINUOUS_SCENARIO))
    scenario["sampler"].update(sampler)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: sampler.x_count: ") and message in err
    assert not out.exists()


def test_continuous_counts_at_the_cap_are_accepted(monkeypatch):
    from nearrep.cli import run_scenario

    _patch_continuous_meters(monkeypatch)
    sampler = {"x_count": 1000, "t_count": 100, "delta_count": 1}
    with pytest.raises(_Reached):
        run_scenario(dict(CONTINUOUS_SCENARIO, sampler=sampler))


def test_run_rejects_a_payment_range_that_overflows(tmp_path, capsys, monkeypatch):
    import nearrep.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built before the range check")

    _patch_continuous_meters(monkeypatch)
    monkeypatch.setattr(nearrep.cli, "_linspace", refuse)
    scenario = {**CONTINUOUS_SCENARIO, "model": {"type": "log_delay", "x_bar": 1e308, "k": 0.1},
                "sampler": {"x_min": -1e308}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sampler.x_min: ") and "overflows" in err
    assert not out.exists()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(_FINITE, _FINITE, st.integers(1, 40))
@example(-3.0, -3.0, 1)        # one point, x_min == x_bar
@example(2.5, 2.5, 9)          # x_min == x_bar: a zero step
@example(-7.25, 1.0, 9)        # a negative start
@example(-0.0, 0.0, 4)
@example(0.0, 5e-324, 4)       # a step that underflows to zero
@example(-1e308, 1e308, 5)     # stop - start overflows
def test_time_grid_equals_numpy_linspace_bit_for_bit(start, stop, num):
    import struct

    import numpy as np

    from nearrep.cli import _linspace

    got = _linspace(start, stop, num)
    assert len(got) == num
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.linspace(start, stop, num)
    assert struct.pack(f"<{num}d", *got) == want.astype("<f8").tobytes()


def test_a_risk_run_calibrates_each_grid_row_once(monkeypatch):
    # the meter, both verifiers, the benchmark and the grid table share one calibration
    import numpy as np

    import nearrep.risk as risk
    from nearrep.cli import run_scenario

    solve, received = risk.mixture_utility_batch, []

    def recorded(model, P, tol=1e-10):
        received.append(np.array(P, dtype=float).reshape(-1, model.n_outcomes))
        return solve(model, P, tol)

    monkeypatch.setattr(risk, "mixture_utility_batch", recorded)
    scenario = json.loads(json.dumps(RISK_SCENARIO))
    scenario["model"]["prizes"] = [4000, 3000, 2000, 0]
    result = run_scenario(scenario)
    assert set(result.verdicts) == {"mixture-support-bound", "independence-square-bound"}
    rows = np.concatenate(received)
    grid = risk.SimplexSampler(resolution=5).grid(4)
    assert [int(np.all(rows == g, axis=1).sum()) for g in grid] == [1] * len(grid)


RISK_MODELS = {
    "cpt": ({"type": "cpt", "value_exponent": 0.54, "weight_exponent": 0.74,
             "prizes": [4000, 3000, 2000, 0]},
            lambda risk: risk.CumulativeProspect(0.54, 0.74, (4000.0, 3000.0, 2000.0, 0.0))),
    "eu": ({"type": "expected_utility", "utilities": [0.3, 2.0, 0.7]},
           lambda risk: risk.ExpectedUtility((0.3, 2.0, 0.7))),
}


@pytest.mark.parametrize("model_json, build", RISK_MODELS.values(), ids=RISK_MODELS)
def test_a_risk_run_verifies_against_the_model_affine_benchmark(monkeypatch, model_json, build):
    # the pipeline reads its benchmark off the grid's calibration at the vertices;
    # that is build_affine_benchmark's expected utility, bit for bit
    import numpy as np

    import nearrep.risk as risk
    from nearrep.cli import run_scenario

    received = []

    def recording(verify):
        def recorded(u, benchmark, *args, **kwargs):
            received.append(benchmark)
            return verify(u, benchmark, *args, **kwargs)
        return recorded

    for name in ("verify_thm1", "verify_thm2"):
        monkeypatch.setattr(risk, name, recording(getattr(risk, name)))
    result = run_scenario({**RISK_SCENARIO, "model": model_json})
    assert set(result.verdicts) == {"mixture-support-bound", "independence-square-bound"}
    want = risk.build_affine_benchmark(build(risk))
    assert len(received) == 2
    for benchmark in received:
        assert type(benchmark) is type(want) is risk.ExpectedUtility
        assert (np.array(benchmark.prize_utilities).tobytes()
                == np.array(want.prize_utilities).tobytes())


def test_the_dyadic_meters_solve_each_distinct_row_at_most_once(monkeypatch):
    # theta_estimate, verify_homog_bound and extract_prior each hand every
    # model's own ce_batch (the rows left after the constant-row shortcut)
    # each distinct act at most once, on the seed-1 ambiguity-doubling runs
    import importlib.util
    import sys

    import numpy as np

    import nearrep.uncertainty as unc
    from nearrep.cli import run_scenario

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    rows, consumer = {}, [None]
    for cls in (unc.SubjectiveExpected, unc.MaxminExpected, unc.SmoothAmbiguity,
                unc.CESUtility, unc.LinearPlusBounded):
        def recorded(self, X, tol, _solve=cls.ce_batch):
            rows.setdefault(consumer[0], []).append(np.array(X, dtype=float))
            return _solve(self, X, tol)
        monkeypatch.setattr(cls, "ce_batch", recorded)
    for name in ("theta_estimate", "verify_homog_bound", "extract_prior"):
        def within(*args, _fn=getattr(unc, name), _name=name, **kwargs):
            consumer[0] = _name
            try:
                return _fn(*args, **kwargs)
            finally:
                consumer[0] = None
        monkeypatch.setattr(unc, name, within)
    for inv in workloads.ambiguity_doubling(1):
        rows.clear()
        run_scenario(inv.scenario)
        for name in ("theta_estimate", "verify_homog_bound", "extract_prior"):
            X = np.concatenate(rows[name])
            assert len(np.unique(X, axis=0)) == len(X), (inv.name, name)


def test_an_uncertainty_run_solves_its_act_grid_once(monkeypatch):
    # the pipeline solves the grid; the homogeneous verifier, the homothetic
    # check and the aversion meter read that array and solve only acts it lacks
    import numpy as np

    import nearrep.cli as cli
    import nearrep.uncertainty as unc
    from nearrep.cli import run_scenario

    solve, calls, consumer = unc._ce_rows, [], [None]

    def recorded(model, X, tol):  # every solve, through ce_batch or a chain
        calls.append((consumer[0], np.array(X, dtype=float).reshape(-1, model.n_states)))
        return solve(model, X, tol)

    def within(name, fn):
        def run(*args, **kwargs):
            consumer[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                consumer[0] = None
        return run

    monkeypatch.setattr(unc, "_ce_rows", recorded)
    for owner, name in ((unc, "verify_homog_bound"), (unc, "measure_eps_ua"),
                        (cli, "_homothetic_exactness")):
        monkeypatch.setattr(owner, name, within(name, getattr(owner, name)))
    scenario = json.loads(json.dumps(UNC_SCENARIO))
    scenario["sampler"] = {"resolution": 5, "n_random_pairs": 20, "homog": True,
                           "quasiconcave": True, "qc_resolution": 11, "level_resolution": 16}
    result = run_scenario(scenario)
    assert result.verdicts == {"homothetic-exactness": True, "homogeneous-bound": True,
                               "quasiconcave-bound": True}
    grid = unc.BoxSampler(2, resolution=5).points()
    rows = {name: [X for who, X in calls if who == name] for name in
            (None, "verify_homog_bound", "measure_eps_ua", "_homothetic_exactness")}
    assert sum(np.array_equal(X, grid) for X in rows[None]) == 1

    # homothetic exactness: the scaled copies of the first 25 acts, and nothing else
    head = grid[:25][np.any(grid[:25], axis=1)]
    [scaled] = rows["_homothetic_exactness"]
    assert np.array_equal(scaled, np.concatenate([2.0 * head, 16.0 * head, 1024.0 * head]))

    # homogeneous bound: the alpha multiples and the scaled steps 2^n, n >= 1,
    # of the points and the multiples, each row once; the points' u(x) is read
    pts = grid[np.any(grid, axis=1)]
    multiples = {tuple((a * x).tolist()) for x in pts for a in (0.5, 3.0)}
    solved = np.concatenate(rows["verify_homog_bound"])
    inputs = np.concatenate([pts, np.array(sorted(multiples))])
    scaled_copies = {tuple(r) for n in range(1, 61) for r in (2.0 ** n * inputs).tolist()}
    assert multiples <= {tuple(r) for r in solved.tolist()}
    assert all(tuple(r) in multiples | scaled_copies for r in solved.tolist())
    assert len(np.unique(solved, axis=0)) == len(solved)

    # aversion meter: one call with the chains' endpoints and every mixture; the
    # seeded grid pairs' endpoints are read from the grid solve
    [probed] = rows["measure_eps_ua"]
    ua = next(r for r in result.reports if r["axiom"] == "uncertainty-aversion")
    n, n_pairs = ua["samples_evaluated"], 20 * len(unc.LAMBDAS)
    chain = n - n_pairs
    assert chain > 0 and len(probed) == 2 * chain + n
    *_, mixtures = unc._pair_mixtures(grid, 0, 20, unc.LAMBDAS)
    assert np.array_equal(probed[2 * chain:2 * chain + n_pairs], mixtures)
    chain_acts = {tuple(r) for r in probed[2 * chain + n_pairs:].tolist()}
    chain_acts |= {tuple(r) for r in unc._box_grid(2, 11, 10.0).tolist()}
    assert all(tuple(r) in chain_acts for r in probed[:2 * chain].tolist())


def test_homothetic_exactness_refuses_a_utility_array_that_does_not_fit_the_acts():
    import numpy as np

    from nearrep.cli import _homothetic_exactness
    from nearrep.core import InvalidModel
    from nearrep.uncertainty import BoxSampler, MaxminExpected, ce_batch

    model = MaxminExpected(((0.3, 0.7), (0.7, 0.3)))
    pts = BoxSampler(2, resolution=3).points()
    assert _homothetic_exactness(model, pts, ce_batch(model, pts), 1e-10) <= 1e-9
    with pytest.raises(InvalidModel, match="for a grid of 9 points"):
        _homothetic_exactness(model, pts, np.zeros(8), 1e-10)


def test_a_continuous_run_solves_each_indifference_delay_once(monkeypatch):
    # gamma(x) of the 9 payments, each once, for the curve
    import nearrep.timepref as timepref
    from nearrep.cli import run_scenario

    solve, payments = timepref.gamma_of, []

    def counted(model, x):
        payments.append(x)
        return solve(model, x)

    monkeypatch.setattr(timepref, "gamma_of", counted)
    result = run_scenario(CONTINUOUS_SCENARIO)
    assert result.verdicts == {"time-shift-bound": True}
    assert len(payments) == 9 and len(set(payments)) == 9


def _patch_risk_meters(monkeypatch):
    import nearrep.risk

    def reached(*args, **kwargs):
        raise _Reached

    for meter in ("measure_eps_rcl", "build_affine_benchmark", "verify_thm1",
                  "measure_eps_independence", "verify_thm2", "mixture_utility_batch"):
        monkeypatch.setattr(nearrep.risk, meter, reached)


@pytest.mark.parametrize("sampler,key,message", [
    ({"n_random_triples": 100_001}, "n_random_triples", "100001 mixture probes"),
    ({"n_random_triples": 10 ** 9}, "n_random_triples", "1000000000 mixture probes"),
    ({"n_pairs": 1000, "n_alphas": 101}, "n_pairs",
     "1000 pairs times sampler.n_alphas 101 give 101000 independence probes"),
    ({"n_pairs": 10 ** 9, "n_alphas": 10 ** 9}, "n_pairs", "independence probes"),
    ({"resolution": 1}, "resolution", "must be at least 2"),
], ids=["triples", "triples-1e9", "probes", "probes-1e18", "resolution-1"])
def test_run_rejects_risk_counts_over_the_cap(tmp_path, capsys, monkeypatch, sampler, key,
                                              message):
    # the caps are worked out from the counts: no meter may run first
    import time

    _patch_risk_meters(monkeypatch)
    scenario = json.loads(json.dumps(RISK_SCENARIO))
    scenario["sampler"].update(sampler)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: sampler.{key}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("sampler", [{"n_random_triples": 100_000},
                                     {"n_pairs": 1000, "n_alphas": 100}, {"resolution": 2}])
def test_risk_counts_at_the_cap_are_accepted(monkeypatch, sampler):
    from nearrep.cli import run_scenario

    _patch_risk_meters(monkeypatch)
    with pytest.raises(_Reached):
        run_scenario(dict(RISK_SCENARIO, sampler=sampler))


_HUGE = 10 ** 400  # a JSON integer no float can hold


@pytest.mark.parametrize("base,section,key,value,message", [
    (TIME_SCENARIO, "model", "k", float("nan"), "must be a finite number"),
    (TIME_SCENARIO, "model", "k", _HUGE, "must be a finite number"),
    (UNC_SCENARIO, "sampler", "bound", float("inf"), "must be a finite number"),
    (RISK_SCENARIO, "tolerances", "bisect", float("inf"), "must be a finite number"),
    (RISK_SCENARIO, "model", "prizes", [4000, float("nan"), 0], "entries must be finite numbers"),
    (RISK_SCENARIO, "model", "prizes", [_HUGE, 3000, 0], "entries must be finite numbers"),
    (UNC_SCENARIO, "model", "priors", [[0.5, float("-inf")], [0.5, 0.5]],
     "entries must be finite numbers"),
    (UNC_SCENARIO, "model", "priors", [[0.5, 0.5], [_HUGE, 0]], "entries must be finite numbers"),
], ids=["number-nan", "number-huge-int", "sampler-number-inf", "tolerance-inf", "numbers-nan",
        "numbers-huge-int", "vectors-inf", "vectors-huge-int"])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, base, section, key, value, message):
    scenario = json.loads(json.dumps(base))
    scenario.setdefault(section, {})[key] = value
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {section}.{key}: {message}\n"
    assert not out.exists()


def test_run_rejects_nan_utilities_before_any_meter(tmp_path, capsys, monkeypatch):
    _patch_risk_meters(monkeypatch)
    scenario = dict(RISK_SCENARIO, model={"type": "expected_utility",
                                          "utilities": [1, float("nan"), 0]})
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out",
                 str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "error: model.utilities: entries must be finite numbers\n"


@pytest.mark.parametrize("base,section,key,value,message", [
    (UNC_SCENARIO, "model", "priors", [["a", 0.5], [0.5, 0.5]], "expected a list of number lists"),
    (UNC_SCENARIO, "model", "priors", [[True, False], [0.5, 0.5]],
     "expected a list of number lists"),
    (UNC_SCENARIO, "model", "priors", [[]], "expected a list of number lists"),
    (TIME_SCENARIO, "sampler", "t_sample", [2.7, 1.2], "expected a non-empty list of integers"),
    (TIME_SCENARIO, "sampler", "t_sample", [3, -1], "entries must be at least 0"),
], ids=["priors-string", "priors-bool", "priors-empty-row", "t_sample-float",
        "t_sample-negative"])
def test_run_rejects_bad_list_entry(tmp_path, capsys, base, section, key, value, message):
    scenario = json.loads(json.dumps(base))
    scenario[section][key] = value
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {section}.{key}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("scenario,missing", [
    (dict(UNC_SCENARIO, model={"type": "smooth"}), "model: missing required key 'f'"),
    ({"name": "x", "domain": "risk"}, "scenario: missing required key 'version'"),
], ids=["model", "scenario"])
def test_missing_key_error_does_not_depend_on_the_hash_seed(tmp_path, scenario, missing):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nearrep

    path = _write(tmp_path, "s.json", scenario)
    errors = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(nearrep.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; from nearrep.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", "run", path, "--out",
                               str(tmp_path / "out")], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 1
        errors.add(proc.stderr)
    assert errors == {f"error: {missing}\n"}


MODEL_CASES = [
    ("risk", {"type": "expected_utility", "utilities": [0, 0.5, 1]},
     "ExpectedUtility", ((0.0, 0.5, 1.0),)),
    ("risk", {"type": "cpt", "value_exponent": 0.5, "weight_exponent": 0.7, "prizes": [2, 1, 0]},
     "CumulativeProspect", (0.5, 0.7, (2.0, 1.0, 0.0))),
    ("uncertainty", {"type": "seu", "prior": [0.3, 0.7]}, "SubjectiveExpected", ((0.3, 0.7),)),
    ("uncertainty", {"type": "meu", "priors": [[0.3, 0.7], [0.6, 0.4]]}, "MaxminExpected",
     (((0.3, 0.7), (0.6, 0.4)),)),
    ("uncertainty", {"type": "smooth", "f": "z_minus_exp", "priors": [[0.3, 0.7]],
                     "weights": [1]}, "SmoothAmbiguity", ("z_minus_exp", ((0.3, 0.7),), (1.0,))),
    ("uncertainty", {"type": "ces", "weights": [1, 2], "rho": 0.5}, "CESUtility",
     ((1.0, 2.0), 0.5)),
    ("uncertainty", {"type": "linear_plus_bounded", "prior": [0.5, 0.5], "bump": 0.25},
     "LinearPlusBounded", ((0.5, 0.5), 0.25)),
    ("time-discrete", {"type": "exponential", "gamma": 0.9}, "Exponential", (0.9,)),
    ("time-discrete", {"type": "quasi_hyperbolic", "beta": 0.8, "delta": 0.95},
     "QuasiHyperbolic", (0.8, 0.95)),
    ("time-discrete", {"type": "hyperbolic", "k": 1}, "Hyperbolic", (1.0,)),
    ("time-discrete", {"type": "tabulated", "values": [1, 0.9, 0.8]}, "TabulatedDiscount",
     ((1.0, 0.9, 0.8),)),
    ("time-continuous", {"type": "linear_delay", "x_bar": 3}, "LinearDelay", (3.0, 1.0)),
    ("time-continuous", {"type": "log_delay", "x_bar": 2, "k": 0.1}, "LogDelay", (2.0, 0.1)),
]

SAMPLER_DEFAULTS = {
    "risk": {"resolution": 11, "seed": 0, "n_random_triples": 100, "n_pairs": 20,
             "n_alphas": 5},
    "uncertainty": {"bound": 10.0, "resolution": 11, "seed": 0, "n_random_pairs": 100,
                    "quasiconcave": False, "qc_resolution": 21, "level_resolution": 64,
                    "homog": True},
    "time-discrete": {"t_sample": (1, 2, 3, 5, 8), "n_max": 40, "w_t_max": 16},
    "time-continuous": {"x_min": None, "x_count": 9, "t_max": 10.0, "t_count": 11,
                        "delta_max": 2.0, "delta_count": 4},
}


@pytest.mark.parametrize("domain,model,cls_name,args", MODEL_CASES,
                         ids=[case[1]["type"] for case in MODEL_CASES])
def test_every_model_type_builds_through_run_scenario(monkeypatch, domain, model, cls_name,
                                                      args):
    import nearrep
    import nearrep.cli as cli

    seen = {}

    def pipeline(name, built, sampler, tols):
        seen.update(model=built, sampler=sampler, tols=tols)
        return "ran"

    monkeypatch.setitem(cli._DOMAINS, domain, pipeline)
    scenario = {"version": 1, "name": "m", "domain": domain, "model": model}
    assert cli.run_scenario(scenario) == "ran"
    assert seen["model"] == getattr(nearrep, cls_name)(*args)
    assert seen["sampler"] == SAMPLER_DEFAULTS[domain]
    assert seen["tols"] == {"bisect": 1e-10, "slack": 1e-7, "verify": 1e-6, "time": 1e-6}


SCENARIOS = {"risk": RISK_SCENARIO, "uncertainty": UNC_SCENARIO,
             "time-discrete": TIME_SCENARIO,
             "time-continuous": {"version": 1, "name": "c", "domain": "time-continuous",
                                 "model": {"type": "log_delay", "x_bar": 2.0, "k": 0.1},
                                 "sampler": {}}}


def _kind_of(default) -> str:
    if isinstance(default, bool):
        return "true or false"
    if isinstance(default, int):
        return "an integer"
    if isinstance(default, tuple):
        return "a non-empty list of integers"
    return "a number"  # floats, and x_min, whose default comes from the model


SAMPLER_KEYS = [(domain, key, _kind_of(default))
                for domain, defaults in SAMPLER_DEFAULTS.items()
                for key, default in defaults.items()]


class _Built(Exception):
    """Stops a pipeline once the object under test is built."""


def test_an_empty_section_builds_the_bare_dataclass(monkeypatch):
    # a sampler (or a linear_delay rate) a scenario leaves out takes the dataclass
    # field's default, so a library call and a scenario measure the same sample
    import nearrep.cli as cli
    from nearrep import risk, timepref, uncertainty

    built = []

    def stop(obj):
        built.append(obj)
        raise _Built

    monkeypatch.setattr(risk.SimplexSampler, "grid", lambda self, n_outcomes: stop(self))
    monkeypatch.setattr(uncertainty, "theta_estimate", lambda model, sampler, tol: stop(sampler))
    monkeypatch.setattr(timepref, "continuous_gamma_curve", lambda model, xs: stop(model))
    for domain, model in (("risk", {"type": "expected_utility", "utilities": [0, 0.5, 1]}),
                          ("uncertainty", {"type": "seu", "prior": [0.3, 0.7]}),
                          ("time-continuous", {"type": "linear_delay", "x_bar": 3})):
        with pytest.raises(_Built):
            cli.run_scenario({"version": 1, "name": "d", "domain": domain, "model": model,
                              "sampler": {}})
    assert built == [risk.SimplexSampler(), uncertainty.BoxSampler(2), timepref.LinearDelay(3.0)]


# scenario tolerance -> every (module, function, parameter) a pipeline passes it to
TOLERANCE_PARAMETERS = {
    "bisect": [("risk", "mixture_utility_batch", "tol"), ("risk", "measure_eps_rcl", "tol"),
               ("risk", "measure_eps_independence", "tol"),
               ("uncertainty", "theta_estimate", "tol"), ("uncertainty", "ce_batch", "tol"),
               ("uncertainty", "verify_homog_bound", "bisect_tol"),
               ("uncertainty", "quasiconcavify", "bisect_tol"),
               ("uncertainty", "measure_eps_ua", "tol")],
    "slack": [("risk", "verify_thm1", "slack"), ("risk", "verify_thm2", "slack")],
    "verify": [("uncertainty", "verify_aa_bound", "tol"),
               ("uncertainty", "verify_homog_bound", "tol")],
    "time": [("timepref", "verify_exp_bound", "tol"), ("timepref", "verify_exp3_bound", "tol")],
}


@pytest.mark.parametrize("key", sorted(TOLERANCE_PARAMETERS))
def test_each_tolerance_default_is_the_library_default(key):
    import nearrep.cli as cli

    assert set(TOLERANCE_PARAMETERS) == set(cli._TOLERANCES)
    for module, function, parameter in TOLERANCE_PARAMETERS[key]:
        fn = getattr(importlib.import_module(f"nearrep.{module}"), function)
        assert inspect.signature(fn).parameters[parameter].default == \
            cli._TOLERANCES[key].default, (function, parameter)


# sizes only a pipeline or a builtin passes: the schema entry or the call is their one home
SIZE_PARAMETERS = [("uncertainty", "quasiconcavify", "box_bound"),
                   ("uncertainty", "quasiconcavify", "resolution"),
                   ("uncertainty", "quasiconcavify", "level_resolution"),
                   ("timepref", "theta_series", "n_max"),
                   ("timepref", "theta_over_sample", "t_sample"),
                   ("timepref", "theta_over_sample", "n_max"),
                   ("timepref", "fit_gamma", "n_max"),
                   ("timepref", "measure_W_axiom", "t_max"),
                   ("risk", "figure1_data", "resolution")]


@pytest.mark.parametrize("module,function,parameter", SIZE_PARAMETERS,
                         ids=[f"{f}-{p}" for _, f, p in SIZE_PARAMETERS])
def test_size_parameters_have_no_default(module, function, parameter):
    fn = getattr(importlib.import_module(f"nearrep.{module}"), function)
    assert inspect.signature(fn).parameters[parameter].default is inspect.Parameter.empty


def test_every_sampler_key_is_covered():
    import nearrep.cli as cli

    assert {d: list(keys) for d, keys in cli._SAMPLERS.items()} == \
        {d: list(keys) for d, keys in SAMPLER_DEFAULTS.items()}


@pytest.mark.parametrize("domain,key,expected", SAMPLER_KEYS,
                         ids=[f"{d}-{k}" for d, k, _ in SAMPLER_KEYS])
def test_sampler_key_of_the_wrong_kind_exits_1(tmp_path, capsys, domain, key, expected):
    scenario = json.loads(json.dumps(SCENARIOS[domain]))
    scenario["sampler"][key] = "x"
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: sampler.{key}: expected {expected}\n"
    assert not out.exists()


def test_bad_homog_exits_before_theta_estimate(tmp_path, capsys, monkeypatch):
    import nearrep.uncertainty

    def refuse(*args, **kwargs):
        raise AssertionError("the defect series ran before the sampler was parsed")

    monkeypatch.setattr(nearrep.uncertainty, "theta_estimate", refuse)
    scenario = json.loads(json.dumps(UNC_SCENARIO))
    scenario["sampler"]["homog"] = "yes"
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out",
                 str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: sampler.homog: expected true or false\n"


def test_run_default_smooth_scenario_passes_the_linear_bound(tmp_path, capsys):
    # rounding noise in the dyadic series once read as divergence here (exit 2)
    scenario = {
        "version": 1,
        "name": "smooth-default",
        "domain": "uncertainty",
        "model": {"type": "smooth", "f": "sqrt1pz2", "priors": [[0.3, 0.7], [0.8, 0.2]],
                  "weights": [0.5, 0.5]},
    }
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS linear-theta-bound" in stdout
    assert "divergent" not in stdout


def test_a_tighter_verify_tolerance_reaches_the_homogeneity_check():
    import numpy as np

    from nearrep import uncertainty as unc_mod
    from nearrep.cli import run_scenario

    class LogPeriodic(unc_mod.SubjectiveExpected):
        """ce = m (1 + 1e-9 sin(2 pi log2 m)), m = prior . x: its scaling limits are
        homogeneous under doubling but not under tripling, by about 1e-9 m."""

        def ce_batch(self, X, tol):
            m = self.value_batch(X)
            return m * (1.0 + 1e-9 * np.sin(2.0 * np.pi * np.log2(m)))

    scenario = {
        "version": 1,
        "name": "log-periodic-homog",
        "domain": "uncertainty",
        "model": {"type": "seu", "prior": [0.3, 0.7]},
        "sampler": {"resolution": 5, "n_random_pairs": 5},
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unc_mod, "SubjectiveExpected", LogPeriodic)
        loose = run_scenario(scenario)
        rep = next(r for r in loose.representations if r["kind"] == "homogeneous")
        defect = rep["details"]["homogeneity_defect"]
        tight = run_scenario({**scenario, "tolerances": {"verify": defect / 2}})
    assert loose.verdicts["homogeneous-bound"] is True
    assert 1e-10 < defect < 1e-7  # the tripling defect, far above rounding and below 1e-6
    assert tight.verdicts["homogeneous-bound"] is False
    assert any("limit is not homogeneous" in note for note in tight.notes)


def test_run_quasiconcave_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", UNC_SCENARIO), "--out", str(out)]) == 0
    assert "PASS quasiconcave-bound" in capsys.readouterr().out


def test_run_risk_scenario_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, "s.json", RISK_SCENARIO),
                 "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS mixture-support-bound" in stdout
    assert "PASS independence-square-bound" in stdout
    report = json.loads((out / "cpt-audit-report.json").read_text())
    assert report["verdicts"] == {"mixture-support-bound": True,
                                  "independence-square-bound": True}
    assert (out / "cpt-audit-grid.csv").exists()
    assert (out / "cpt-audit-defects.csv").exists()


def test_run_is_byte_identical(tmp_path):
    path = _write(tmp_path, "s.json", RISK_SCENARIO)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", path, "--out", str(out1)]) == 0
    assert main(["run", path, "--out", str(out2)]) == 0
    for f in sorted(out1.iterdir()):
        assert (out2 / f.name).read_bytes() == f.read_bytes()


def test_run_seed_changes_sampling(tmp_path):
    path = _write(tmp_path, "s.json", RISK_SCENARIO)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", path, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["run", path, "--out", str(out2), "--seed", "2"]) == 0
    r1 = json.loads((out1 / "cpt-audit-report.json").read_text())
    r2 = json.loads((out2 / "cpt-audit-report.json").read_text())
    assert r1["reports"][0]["details"]["seed"] != r2["reports"][0]["details"]["seed"]


def test_run_meu_divergence_is_informative_not_fatal(tmp_path, capsys):
    scenario = {
        "version": 1,
        "name": "meu-audit",
        "domain": "uncertainty",
        "model": {"type": "meu", "priors": [[0.3, 0.7], [0.7, 0.3]]},
        "sampler": {"resolution": 5, "n_random_pairs": 20},
    }
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, "s.json", scenario), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "divergent" in stdout
    assert "PASS homothetic-exactness" in stdout
    report = json.loads((out / "meu-audit-report.json").read_text())
    assert report["verdicts"]["homothetic-exactness"] is True
    assert any("not additive" in note for note in report["notes"])


def test_run_time_scenario(tmp_path, capsys):
    scenario = {
        "version": 1,
        "name": "qh-audit",
        "domain": "time-discrete",
        "model": {"type": "quasi_hyperbolic", "beta": 0.9, "delta": 0.95},
    }
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", scenario),
                 "--out", str(out)]) == 0
    assert "PASS exponential-log-bound" in capsys.readouterr().out
    assert (out / "qh-audit-curve.csv").exists()


def test_run_continuous_scenario(tmp_path, capsys):
    scenario = {
        "version": 1,
        "name": "shift-audit",
        "domain": "time-continuous",
        "model": {"type": "log_delay", "x_bar": 2.0, "k": 0.1},
    }
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "s.json", scenario),
                 "--out", str(out)]) == 0
    assert "PASS time-shift-bound" in capsys.readouterr().out
    assert (out / "shift-audit-gamma.csv").exists()
    assert (out / "shift-audit-shift.csv").exists()


def test_builtin_allais(tmp_path, capsys):
    assert main(["builtin", "allais", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS common-ratio-pattern" in out
    assert "PASS lambda-star-in-bracket" in out


def test_builtin_smooth_bound(tmp_path, capsys):
    assert main(["builtin", "smooth-bound", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS sqrt1pz2-defect-cap" in out
    assert "PASS z_minus_exp-prior-additive" in out


def test_builtin_quasi_hyperbolic(tmp_path, capsys):
    assert main(["builtin", "quasi-hyperbolic", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS theta-matches-beta" in out
    assert "PASS bound-tight" in out


def test_builtin_figure1_fails_honestly(tmp_path, capsys):
    # the measured peak of |w(p) - p| exceeds the claimed 0.1 cap, so the
    # verdict is false and the exit code reports a failed bound
    assert main(["builtin", "figure1", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL weighting-gap-within-claim" in out
    report = json.loads((tmp_path / "figure1-report.json").read_text())
    assert report["verdicts"]["weighting-gap-within-claim"] is False


def test_builtin_unknown(capsys):
    assert main(["builtin", "nope"]) == 1
    assert "unknown builtin" in capsys.readouterr().err


def test_csv_floats_round_trip(tmp_path):
    assert main(["builtin", "figure1", "--out", str(tmp_path)]) == 2
    lines = (tmp_path / "figure1-summary.csv").read_text().splitlines()
    assert lines[0] == "quantity,value"
    row = dict(l.split(",", 1) for l in lines[1:])
    # 17 significant digits reproduce the double exactly
    assert float(row["max_abs_gap"]) == pytest.approx(0.10077602748463332, abs=1e-12)


# --- imports: only the risk and uncertainty pipelines load numpy ---------------

def _fresh_process(tmp_path, argv):
    """Exit code and the loaded top-level numpy/scipy packages of one fresh process.

    argv None only imports nearrep.cli; otherwise main(argv) runs, as the
    console script does.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nearrep

    env = dict(os.environ, PYTHONPATH=str(Path(nearrep.__file__).resolve().parents[1]))
    run = "0" if argv is None else "main(sys.argv[1:])"
    code = (f"import sys; from nearrep.cli import main; code = {run}; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *(argv or [])], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv,scenario", [
    (None, None),
    (["list"], None),
    (["run"], TIME_SCENARIO),
    (["run"], CONTINUOUS_SCENARIO),
    (["builtin", "quasi-hyperbolic"], None),
], ids=["import", "list", "time-discrete", "time-continuous", "builtin-quasi-hyperbolic"])
def test_time_commands_and_list_leave_numpy_unloaded(tmp_path, argv, scenario):
    if scenario is not None:
        argv = [*argv, _write(tmp_path, "s.json", scenario)]
    assert _fresh_process(tmp_path, argv) == (0, "[]")


@pytest.mark.parametrize("scenario", [
    RISK_SCENARIO,
    {"version": 1, "name": "seu", "domain": "uncertainty",
     "model": {"type": "seu", "prior": [0.3, 0.7]},
     "sampler": {"resolution": 3, "n_random_pairs": 5}},
], ids=["risk", "uncertainty"])
def test_risk_and_uncertainty_runs_load_numpy_but_not_scipy(tmp_path, scenario):
    argv = ["run", _write(tmp_path, "s.json", scenario)]
    assert _fresh_process(tmp_path, argv) == (0, "['numpy']")
