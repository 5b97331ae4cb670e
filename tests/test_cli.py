"""End-to-end command line behavior: exit codes, outputs, determinism."""

import json

import pytest

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


def test_run_rejects_bad_version(tmp_path, capsys):
    scenario = dict(RISK_SCENARIO)
    scenario["version"] = 3
    assert main(["run", _write(tmp_path, "s.json", scenario)]) == 1
    assert "version" in capsys.readouterr().err


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

    monkeypatch.setattr(nearrep.risk, "grid_sample", refuse)
    monkeypatch.setattr(nearrep.uncertainty, "grid_sample", refuse)
    scenario = json.loads(json.dumps(RISK_SCENARIO if domain_scenario == "risk"
                                     else UNC_SCENARIO))
    scenario["sampler"][key] = value
    assert main(["run", _write(tmp_path, "s.json", scenario), "--out",
                 str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"sampler.{key}:" in err and "above the cap" in err


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
