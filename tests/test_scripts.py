"""The scripts under scripts/ and the README's library example still run against the library."""

import ast
import re
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def test_readme_library_example_runs(capsys):
    # the example imports only names the package still exports, and runs as written
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    eps, distance, bound = map(float, capsys.readouterr().out.split())
    assert 0.0 < eps and distance <= bound


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


# The option counts this package has reached: parameters with a default,
# dataclass fields with a default, scenario schema keys and command line
# flags. A change that adds any of them raises its number in its own diff.
MAX_OPTIONS = 12
MAX_FIELDS = 9
MAX_SCHEMA_KEYS = 50
MAX_FLAGS = 4


def test_option_count_stays_at_most_its_reached_total(capsys):
    runpy.run_path(str(SCRIPTS / "option_count.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    modules = {line.split()[0]: int(line.split()[1]) for line in lines}
    fields, schema_keys, flags = (modules.pop(k) for k in ("fields", "schema_keys", "flags"))
    assert {"core", "risk", "uncertainty", "timepref", "cli", "total"} <= set(modules)
    assert modules["total"] == sum(n for m, n in modules.items() if m != "total")
    assert modules["total"] <= MAX_OPTIONS
    assert fields <= MAX_FIELDS
    assert schema_keys <= MAX_SCHEMA_KEYS
    assert flags <= MAX_FLAGS


def test_option_count_counts_dataclass_fields_that_init_defaults():
    count_fields = runpy.run_path(str(SCRIPTS / "option_count.py"))["count_fields"]
    source = """
from dataclasses import dataclass, field

@dataclass(frozen=True)
class A:
    required: int
    knob: int = 1
    made: dict = field(default_factory=dict)
    kept: int = field(default=2, repr=False)
    cache: dict = field(default_factory=dict, init=False)
    plain: int = field(repr=False)
    CONSTANT = 3

class NotADataclass:
    knob: int = 1
"""
    assert count_fields(ast.parse(source)) == 3


def test_option_count_counts_schema_keys_and_flags():
    script = runpy.run_path(str(SCRIPTS / "option_count.py"))
    source = """
_SPEC = {"a": _Key("number"), "b": _Key("any", {})}

def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("name")
    parser.add_argument("--out", default=".")
    parser.add_argument("-q", "--quiet", action="store_true")
"""
    tree = ast.parse(source)
    assert (script["count_schema_keys"](tree), script["count_flags"](tree)) == (2, 2)


def _kept_tree(root: Path, code: int = 0, verdict: str = "PASS", value: str = "0.5",
               big: str = "2000.0", key: str = "eps") -> Path:
    """A one-case tree as `golden_digests.py --keep` writes it."""
    case = root / "extra" / "lpb"
    case.mkdir(parents=True)
    (case / "stdout.txt").write_text(f"{verdict} linear-theta-bound\ntheta {value}\n")
    (case / "report.json").write_text(f'{{"{key}": {big}}}\n')
    (root / "index.txt").write_text(f"extra/lpb {code} 0123abcd\n")
    return root


# Each edit to the new tree, and the problem --compare must name (None: it passes).
COMPARE_CASES = {
    "identical": ({}, None),
    "moved within tolerance": ({"value": "0.5000000009"}, None),
    "moved within relative tolerance": ({"big": "2000.0000019"}, None),
    "moved beyond tolerance": ({"value": "0.500000002"}, "exceeds 1e-09 * max(1, |v|)"),
    "moved beyond relative tolerance": ({"big": "2000.0000021"}, "exceeds 1e-09 * max(1, |v|)"),
    "exit code": ({"code": 2}, "exit code 0 -> 2"),
    "verdict line": ({"verdict": "FAIL"}, "verdicts differ"),
    "non-numeric text": ({"key": "epsilon"}, "report.json: non-numeric text differs"),
}


@pytest.mark.parametrize("edit, problem", COMPARE_CASES.values(), ids=COMPARE_CASES)
def test_golden_compare_passes_within_tolerance_and_names_every_other_change(
        tmp_path, capsys, edit, problem):
    main = runpy.run_path(str(SCRIPTS / "golden_digests.py"))["main"]
    old, new = _kept_tree(tmp_path / "old"), _kept_tree(tmp_path / "new", **edit)
    code = main(["--compare", str(old), str(new)])
    out = capsys.readouterr().out
    if problem is None:
        assert code == 0 and out.endswith("0 of 1 cases differ\n")
    else:
        assert code == 1 and problem in out and out.endswith("1 of 1 cases differ\n")


def test_every_golden_case_matches_the_committed_reference(tmp_path, capsys):
    """A fresh run of the golden cases against tests/golden under --compare's rule.

    Regenerate the reference with `scripts/golden_digests.py --write` when a
    change moves an output on purpose, so the diff shows what moved.
    """
    script = runpy.run_path(str(SCRIPTS / "golden_digests.py"))
    main, golden = script["main"], script["GOLDEN"]
    assert main(["--write", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["--compare", str(golden), str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, "\n".join(line for line in out.splitlines() if not line.endswith(" ok"))
    # --write leaves a dropped case's directory behind: the reference holds none
    cases = {line.split()[0] for line in (golden / "index.txt").read_text().splitlines()}
    assert {p.parent.relative_to(golden).as_posix() for p in golden.rglob("stdout.txt")} == cases
