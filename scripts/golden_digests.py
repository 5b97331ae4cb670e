"""Golden CLI cases: digest them, keep their outputs, compare two kept trees.

Usage:
  PYTHONPATH=src python scripts/golden_digests.py > digests.txt
  PYTHONPATH=src python scripts/golden_digests.py --keep DIR > digests.txt
  PYTHONPATH=src python scripts/golden_digests.py --write [DIR] > digests.txt
  python scripts/golden_digests.py --compare OLD_DIR NEW_DIR

The digest is a sha256 of everything a case prints (with its input and
output directories masked), of its error output when there is any, and of
every file it writes, in name order. Running this on two versions of the
package and diffing the outputs shows whether a change kept every exit
code, error message, report and CSV byte-identical.

--keep DIR also stores each case's printed output (`DIR/<case>/stdout.txt`),
its error output when there is any (`stderr.txt`) and its written files
under `DIR/<case>/`, and the digest lines in `DIR/index.txt`. --write DIR
(default tests/golden, the committed reference) stores the same tree with
each CSV replaced by a summary, `<name>.csv.summary.json`: its header, its
row count and per column the fsum and the max |v| of its numbers and the
count of each text entry; its index holds `case exit-code` lines, without
digests, since a digest would change with any last digit the comparison
allows. --compare reads two kept or written trees and passes when every case
has the same exit code, the same PASS/FAIL lines and the same non-numeric
text in every file, and every number differs by at most
1e-9 * max(1, |v|) (v from OLD_DIR): ten times the default 1e-10 bisection
tolerance. It prints each case's largest numeric difference.

Cases: the four builtins; seeds 1-3 of every invocation the benchmark's
workloads generate (perfbench/workloads.py); four uncertainty scenarios
the workloads do not reach (a divergent maxmin model, the smooth sqrt1pz2
model with the hull envelope, 3-state CES and linear-plus-bounded models,
and a 1-state CES envelope, whose level hulls are intervals); and one
rejected scenario per schema rule (unknown key, missing key, wrong kind,
below a floor, over a cap, a non-finite number, a payment range that
overflows, a version that is not the integer 1, a negative seed, a box
bound that is not positive), whose error output is part of the digest.
Each case runs in this process; without --keep the output goes to a
temporary directory that is removed afterwards. An exception that escapes
the command line entry point is recorded as exit code 1 (what the
interpreter would exit with) and its type and message as the error output.
"""

import argparse
import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
REL_TOL = 1e-9


def _scenario(name: str, domain: str, model: dict, sampler: dict) -> dict:
    return {"version": 1, "name": name, "domain": domain, "model": model, "sampler": sampler}


def _uncertainty(name: str, model: dict, sampler: dict) -> dict:
    return _scenario(name, "uncertainty", model, sampler)


EXTRA_SCENARIOS = [
    _uncertainty("meu-divergent", {"type": "meu", "priors": [[0.3, 0.7], [0.7, 0.3]]}, {}),
    _uncertainty("smooth-hull", {"type": "smooth", "f": "sqrt1pz2",
                                 "priors": [[0.3, 0.7], [0.8, 0.2]], "weights": [0.5, 0.5]},
                 {"quasiconcave": True}),
    _uncertainty("ces-3-hull", {"type": "ces", "weights": [1.0, 2.0, 3.0], "rho": 0.5},
                 {"resolution": 4, "n_random_pairs": 10, "quasiconcave": True,
                  "qc_resolution": 5, "level_resolution": 8}),
    _uncertainty("lpb-3", {"type": "linear_plus_bounded", "prior": [0.2, 0.3, 0.5],
                           "bump": 0.5},
                 {"resolution": 3, "n_random_pairs": 10}),
    _uncertainty("ces-1-hull", {"type": "ces", "weights": [1.0], "rho": 0.5},
                 {"quasiconcave": True, "qc_resolution": 7, "level_resolution": 4}),
]


_CPT = {"type": "cpt", "value_exponent": 0.54, "weight_exponent": 0.74, "prizes": [2, 1, 0]}
_EU = {"type": "expected_utility", "utilities": [1, 0.4, 0]}
_MEU = {"type": "meu", "priors": [[0.3, 0.7], [0.7, 0.3]]}
_HYPERBOLIC = {"type": "hyperbolic", "k": 0.3}

REJECTED_SCENARIOS = [
    _scenario("unknown-key", "risk", _CPT, {"resolutoin": 5}),
    _scenario("missing-key", "risk", {k: v for k, v in _CPT.items() if k != "prizes"}, {}),
    _scenario("missing-keys", "uncertainty", {"type": "smooth"}, {}),
    _scenario("wrong-kind", "uncertainty", _MEU, {"homog": "yes"}),
    _scenario("wrong-kind-entry", "uncertainty",
              {"type": "meu", "priors": [["a", 0.5], [0.5, 0.5]]}, {}),
    _scenario("below-floor", "uncertainty", _MEU, {"level_resolution": 0}),
    _scenario("below-floor-entry", "time-discrete", _HYPERBOLIC, {"t_sample": [-1]}),
    _scenario("over-grid-cap", "uncertainty", _MEU, {"resolution": 10 ** 6}),
    _scenario("over-level-cap", "uncertainty", _MEU,
              {"quasiconcave": True, "level_resolution": 100_000}),
    _scenario("over-membership-cap", "uncertainty", _MEU,
              {"quasiconcave": True, "level_resolution": 5000}),
    _scenario("over-delay-cap", "time-discrete", _HYPERBOLIC, {"n_max": 1030}),
    _scenario("over-pair-cap", "time-discrete", _HYPERBOLIC, {"w_t_max": 633}),
    _scenario("over-continuous-cap", "time-continuous",
              {"type": "log_delay", "x_bar": 2.0, "k": 0.1},
              {"x_count": 1000, "t_count": 101, "delta_count": 1}),
    _scenario("overflowing-x-range", "time-continuous",
              {"type": "log_delay", "x_bar": 1e308, "k": 0.1}, {"x_min": -1e308}),
    _scenario("over-triple-cap", "risk", _EU, {"resolution": 2, "n_random_triples": 100_001}),
    _scenario("over-probe-cap", "risk", _CPT, {"resolution": 2, "n_pairs": 1000, "n_alphas": 101}),
    _scenario("below-risk-floor", "risk", _CPT, {"resolution": 1}),
    _scenario("non-finite-number", "time-discrete", {"type": "hyperbolic", "k": 10 ** 400}, {}),
    _scenario("non-finite-entry", "risk", dict(_EU, utilities=[1, float("nan"), 0]), {}),
    dict(_scenario("bool-version", "risk", _CPT, {}), version=True),
    _scenario("negative-seed", "uncertainty", _MEU, {"seed": -1}),
    _scenario("zero-bound", "uncertainty", _MEU, {"bound": 0}),
    _scenario("negative-bound", "uncertainty", _MEU, {"bound": -1}),
]


def cases() -> list[tuple[str, list[str], dict | None]]:
    """(case name, nearrep argv with {in}/{out} placeholders, scenario or None)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    from nearrep.cli import BUILTINS

    out = [(f"builtin/{b}", ["builtin", b, "--out", "{out}"], None) for b in sorted(BUILTINS)]
    for workload, (generate, _) in WORKLOADS.items():
        for seed in (1, 2, 3):
            for inv in generate(seed):
                out.append((f"{workload}/{seed}/{inv.name}", inv.argv("{in}", "{out}"),
                            inv.scenario))
    for group, scenarios in (("extra", EXTRA_SCENARIOS), ("rejected", REJECTED_SCENARIOS)):
        for scenario in scenarios:
            out.append((f"{group}/{scenario['name']}",
                        ["run", f"{{in}}/{scenario['name']}.json", "--out", "{out}"],
                        scenario))
    return out


def run_case(argv: list[str], scenario: dict | None,
             work: Path) -> tuple[int, str, str, str]:
    """Exit code, digest, masked printed output and masked error output of one case.

    The error output enters the digest only when there is any, so cases that
    print no error keep the digests they had before it was recorded.
    """
    from nearrep.cli import main

    in_dir, out_dir = work / "in", work / "out"
    in_dir.mkdir()
    if scenario is not None:
        (in_dir / f"{scenario['name']}.json").write_text(json.dumps(scenario))
    argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except Exception as exc:  # recorded as a process would report it
            code = 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)

    def masked(text: str) -> str:
        return text.replace(str(out_dir), "<out>").replace(str(in_dir), "<in>")

    printed, errors = masked(stdout.getvalue()), masked(stderr.getvalue())
    h = hashlib.sha256(printed.encode())
    if errors:
        h.update(b"\0stderr\0" + errors.encode())
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return code, h.hexdigest(), printed, errors


def csv_summary(path: Path) -> str:
    """A CSV's header, row count and per column the fsum and max |v|, as JSON.

    Entries that are not numbers are counted per distinct text instead.
    """
    with path.open(newline="") as f:
        header, *rows = csv.reader(f)
    columns = []
    for j, name in enumerate(header):
        numbers, text = [], collections.Counter()
        for row in rows:
            try:
                numbers.append(float(row[j]))
            except ValueError:
                text[row[j]] += 1
        column = {"name": name, "fsum": math.fsum(numbers),
                  "max_abs": max(map(abs, numbers), default=0.0)}
        if text:
            column["text"] = dict(sorted(text.items()))
        columns.append(column)
    return json.dumps({"header": header, "rows": len(rows), "columns": columns},
                      indent=1) + "\n"


def _store(dest: Path, out_dir: Path, printed: str, errors: str, summarize: bool) -> None:
    """Store one case's outputs under dest, each CSV as its summary when summarize."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if out_dir.is_dir():
        for path in out_dir.iterdir():
            if summarize and path.suffix == ".csv":
                (dest / f"{path.name}.summary.json").write_text(csv_summary(path))
            else:
                shutil.copyfile(path, dest / path.name)
    (dest / "stdout.txt").write_text(printed)
    if errors:
        (dest / "stderr.txt").write_text(errors)


def main_digests(tree: Path | None, summarize: bool) -> int:
    lines, index = [], []
    for name, argv, scenario in cases():
        with tempfile.TemporaryDirectory() as tmp:
            code, digest, printed, errors = run_case(argv, scenario, Path(tmp))
            if tree is not None:
                _store(tree / name, Path(tmp) / "out", printed, errors, summarize)
        lines.append(f"{name} {code} {digest}")
        index.append(f"{name} {code}" if summarize else lines[-1])
        print(lines[-1], flush=True)
    if tree is not None:
        (tree / "index.txt").write_text("\n".join(index) + "\n")
    return 0


# ---------------------------------------------------------------------------
# tolerance-aware comparison of two kept trees

def _index(tree: Path) -> dict[str, int]:
    out = {}
    for line in (tree / "index.txt").read_text().splitlines():
        name, code = line.split()[:2]
        out[name] = int(code)
    return out


def _compare_text(old: str, new: str) -> tuple[str | None, float]:
    """(first problem or None, largest numeric difference) for one file."""
    old_nums, new_nums = NUMBER.findall(old), NUMBER.findall(new)
    if NUMBER.split(old) != NUMBER.split(new) or len(old_nums) != len(new_nums):
        return "non-numeric text differs", 0.0
    worst = 0.0
    problem = None
    for a, b in zip(old_nums, new_nums):
        if a == b:
            continue
        va, vb = float(a), float(b)
        diff = abs(va - vb)
        worst = max(worst, diff)
        if problem is None and not diff <= REL_TOL * max(1.0, abs(va)):
            problem = f"{a} -> {b} exceeds {REL_TOL:g} * max(1, |v|)"
    return problem, worst


def _verdicts(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith(("PASS ", "FAIL "))]


def compare_case(old: Path, new: Path) -> tuple[list[str], float]:
    """Problems found and the largest numeric difference over a case's files."""
    problems = []
    old_files = sorted(p.name for p in old.iterdir())
    new_files = sorted(p.name for p in new.iterdir())
    if old_files != new_files:
        problems.append(f"files differ: {old_files} vs {new_files}")
    old_out, new_out = (old / "stdout.txt").read_text(), (new / "stdout.txt").read_text()
    if _verdicts(old_out) != _verdicts(new_out):
        problems.append(f"verdicts differ: {_verdicts(old_out)} vs {_verdicts(new_out)}")
    worst = 0.0
    for name in sorted(set(old_files) & set(new_files)):
        problem, diff = _compare_text((old / name).read_text(), (new / name).read_text())
        worst = max(worst, diff)
        if problem is not None:
            problems.append(f"{name}: {problem}")
    return problems, worst


def main_compare(old_tree: Path, new_tree: Path) -> int:
    old_index, new_index = _index(old_tree), _index(new_tree)
    failed = 0
    for name in sorted(set(old_index) | set(new_index)):
        if name not in old_index or name not in new_index:
            print(f"{name}: only in {'new' if name in new_index else 'old'} tree")
            failed += 1
            continue
        problems, worst = compare_case(old_tree / name, new_tree / name)
        if old_index[name] != new_index[name]:
            problems.insert(0, f"exit code {old_index[name]} -> {new_index[name]}")
        failed += bool(problems)
        status = "ok" if not problems else "DIFFERS: " + "; ".join(problems)
        print(f"{name} exit {new_index[name]} max_diff {worst:.3g} {status}")
    print(f"{failed} of {len(set(old_index) | set(new_index))} cases differ")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--keep", type=Path, metavar="DIR",
                      help="also keep every case's printed output and files under DIR")
    mode.add_argument("--write", type=Path, nargs="?", const=GOLDEN, metavar="DIR",
                      help="write the reference tree, each CSV as its summary, under DIR "
                           "(default tests/golden)")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                      help="compare two trees written by --keep or --write")
    args = parser.parse_args(argv)
    if args.compare:
        return main_compare(*args.compare)
    tree = args.keep if args.write is None else args.write
    if tree is not None:
        tree.mkdir(parents=True, exist_ok=True)
    return main_digests(tree, summarize=args.write is not None)


if __name__ == "__main__":
    sys.exit(main())
