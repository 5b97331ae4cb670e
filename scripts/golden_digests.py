"""Print one `case exit-code digest` line per golden CLI case.

Usage: PYTHONPATH=src python scripts/golden_digests.py > digests.txt

The digest is a sha256 of everything a case prints (with its output
directory masked) and of every file it writes, in name order. Running this
on two versions of the package and diffing the outputs shows whether a
change kept every exit code, report and CSV byte-identical.

Cases: the four builtins; seeds 1-3 of every invocation the benchmark's
workloads generate (perfbench/workloads.py); and four uncertainty scenarios
the workloads do not reach (a divergent maxmin model, the smooth sqrt1pz2
model with the hull envelope, and 3-state CES and linear-plus-bounded
models). Each case runs in this process; the output goes to a temporary
directory that is removed afterwards.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from nearrep.cli import BUILTINS, main  # noqa: E402


def _uncertainty(name: str, model: dict, sampler: dict) -> dict:
    return {"version": 1, "name": name, "domain": "uncertainty", "model": model,
            "sampler": sampler}


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
]


def cases() -> list[tuple[str, list[str], dict | None]]:
    """(case name, nearrep argv with {in}/{out} placeholders, scenario or None)."""
    out = [(f"builtin/{b}", ["builtin", b, "--out", "{out}"], None) for b in sorted(BUILTINS)]
    for workload, (generate, _) in WORKLOADS.items():
        for seed in (1, 2, 3):
            for inv in generate(seed):
                out.append((f"{workload}/{seed}/{inv.name}", inv.argv("{in}", "{out}"),
                            inv.scenario))
    for scenario in EXTRA_SCENARIOS:
        out.append((f"extra/{scenario['name']}",
                    ["run", f"{{in}}/{scenario['name']}.json", "--out", "{out}"], scenario))
    return out


def run_case(argv: list[str], scenario: dict | None, work: Path) -> tuple[int, str]:
    in_dir, out_dir = work / "in", work / "out"
    in_dir.mkdir()
    if scenario is not None:
        (in_dir / f"{scenario['name']}.json").write_text(json.dumps(scenario))
    argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    h = hashlib.sha256(stdout.getvalue().replace(str(out_dir), "<out>").encode())
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return code, h.hexdigest()


def main_digests() -> int:
    for name, argv, scenario in cases():
        with tempfile.TemporaryDirectory() as tmp:
            code, digest = run_case(argv, scenario, Path(tmp))
        print(f"{name} {code} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
