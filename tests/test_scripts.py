"""The scripts under scripts/ still run against the library's current signatures."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_sweep_cpt_grid_prints_one_line_per_cell(capsys):
    sweep = runpy.run_path(str(SCRIPTS / "sweep_cpt_grid.py"))["sweep"]
    sweep(resolution=3)
    header, *cells = capsys.readouterr().out.splitlines()
    assert header == "value_exponent,weight_exponent,eps_rcl,sup_gap,allowed"
    assert len(cells) == 25
    # the identity cell (both exponents 1) is expected utility: defects at numerical zero
    a, b, eps_rcl, sup_gap, allowed = cells[-1].split(",")
    assert (a, b) == ("1.0", "1.0")
    assert float(eps_rcl) < 1e-9 and float(sup_gap) <= float(allowed)


# The option count this package has reached. A change that adds a parameter
# with a default raises this number in its own diff.
MAX_OPTIONS = 46


def test_option_count_stays_at_most_its_reached_total(capsys):
    runpy.run_path(str(SCRIPTS / "option_count.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    modules = {line.split()[0]: int(line.split()[1]) for line in lines}
    assert {"core", "risk", "uncertainty", "timepref", "cli", "total"} <= set(modules)
    assert modules["total"] == sum(n for m, n in modules.items() if m != "total")
    assert modules["total"] <= MAX_OPTIONS
