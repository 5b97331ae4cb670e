"""nearrep benchmark: one workload per run, end-to-end or traced.

Run from the repository root (the package is taken from ./src):

    python3 perfbench/run.py --workload risk-calibration --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of `nearrep` invocations generated from the
seed (see workloads.py). A run measures set-up as the median of fresh
interpreters importing `nearrep.cli`, then repeats the invocation list
(a closed loop with one client: the next invocation starts when the last
one ends) until `--seconds` is used up, and checks every output:

* an invocation fails when it raises or exits 1 (exit 2 is a verdict),
  when its output digest differs from the first pass of the same run, or
  when an exact-model control reports a defect above numerical zero;
* `--trace 0` prints the end-to-end metrics named in BENCHMARK.json;
* `--trace 1` runs untraced and traced passes side by side, wraps the
  package's public functions from outside (tracer.py), and prints the
  per-layer metrics. It also checks that traced outputs equal untraced ones,
  that counts repeat exactly between two traced passes, and that the next
  seed gives different inputs with the same layer mix.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Everything else a run saw
(per-invocation exit code, verdicts, output digest and times, the
environment, every per-function count) goes to perfbench/out/<run>.json, so
the results of two commits can be diffed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS, Invocation

HERE = Path(__file__).resolve().parent
ENTRY = "import sys; from nearrep.cli import main; sys.exit(main())"  # the console script
COLD_STARTS = 5          # fresh-interpreter imports per run; setup_s is their median
IMPORTTIME_STARTS = 3    # `-X importtime` starts per traced run
MIN_BATCHES = 2
CHILD_TIMEOUT_S = 150
# An exact model's defect counts as numerical zero up to this; the same cap
# the exact-model acceptance test uses.
CONTROL_ZERO = 1e-7
# Reports that measure a model property, not an axiom defect.
NOT_DEFECTS = {"delay-lipschitz"}


@dataclass
class Outcome:
    name: str
    seconds: float
    exit_code: int | None
    digest: str
    verdicts: dict = field(default_factory=dict)
    defects: dict = field(default_factory=dict)
    failure: str | None = None


@dataclass
class Batch:
    outcomes: list[Outcome]
    traced: bool
    summary: dict | None = None

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.outcomes)


class WarmRunner:
    """Invokes `nearrep.cli.main` in this process, as a warm library caller would."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        from nearrep import cli
        self.cli = cli
        self.tracer = tracing.Tracer()

    def start_trace(self) -> None:
        self.tracer.reset()
        self.tracer.install()

    def stop_trace(self, spans_dir: Path) -> dict:
        self.tracer.uninstall()
        self.tracer.dump_spans(spans_dir / "batch.json.gz")
        return self.tracer.summary()

    def invoke(self, inv: Invocation, argv: list[str], traced: bool,
               spans_dir: Path) -> tuple[float, int | None, str | None, bytes]:
        buf = io.StringIO()
        if traced:
            self.tracer.begin(inv.name)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code, error = self.cli.main(argv), None
        except Exception as exc:  # a crash fails this invocation; the run goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        return seconds, code, error, buf.getvalue().encode()


class ColdRunner:
    """Starts one fresh `nearrep` process per invocation, as a CLI user does."""

    def __init__(self, root: Path, env: dict):
        self.root, self.env = root, env
        self.summaries: list[dict] = []

    def start_trace(self) -> None:
        self.summaries = []

    def stop_trace(self, spans_dir: Path) -> dict:
        return tracing.merge(self.summaries)

    def invoke(self, inv: Invocation, argv: list[str], traced: bool,
               spans_dir: Path) -> tuple[float, int | None, str | None, bytes]:
        summary_path = spans_dir / f"{inv.name}.summary.json"
        summary_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), str(summary_path),
                   str(spans_dir / f"{inv.name}.json.gz"), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if traced and summary_path.exists():  # absent when the child died before main
            self.summaries.append(json.loads(summary_path.read_text()))
        error = None
        if proc.returncode not in (0, 2):
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            error = lines[-1] if lines else f"exit {proc.returncode}"
        return seconds, proc.returncode, error, proc.stdout


def _digest(stdout: bytes, out_dir: Path, root: Path) -> str:
    """sha256 of the printed output and every file the invocation wrote.

    The output directory's path is masked in the printed `wrote ...` lines,
    so digests do not depend on where a run keeps its files.
    """
    h = hashlib.sha256(stdout.replace(os.path.relpath(out_dir, root).encode(), b"<out>"))
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _report(out_dir: Path) -> tuple[dict, dict]:
    """Verdicts and reported defect values from the invocation's report JSON."""
    for path in sorted(out_dir.glob("*-report.json")):
        report = json.loads(path.read_text())
        return report["verdicts"], {r["axiom"]: r["value"] for r in report["reports"]}
    return {}, {}


def _failure(inv: Invocation, code, error, defects) -> str | None:
    if code is None:
        return f"raised {error}"
    if code not in (0, 2):
        return f"exit {code}: {error}"
    if inv.control:
        if code != 0:
            return f"control exited {code}"
        bad = {k: v for k, v in defects.items()
               if k not in NOT_DEFECTS and not abs(v) <= CONTROL_ZERO}
        if bad:
            return f"control defect above {CONTROL_ZERO}: {bad}"
    return None


def run_batch(runner, invocations: list[Invocation], in_dir: Path, run_dir: Path,
              root: Path, traced: bool, reference: dict[str, str] | None) -> Batch:
    work_dir, spans_dir = run_dir / "work", run_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    if traced:
        runner.start_trace()
    outcomes = []
    for inv in invocations:
        out_dir = work_dir / inv.name
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = inv.argv(os.path.relpath(in_dir, root), os.path.relpath(out_dir, root))
        seconds, code, error, stdout = runner.invoke(inv, argv, traced, spans_dir)
        verdicts, defects = _report(out_dir)
        outcome = Outcome(inv.name, seconds, code, _digest(stdout, out_dir, root), verdicts,
                          defects, _failure(inv, code, error, defects))
        if outcome.failure is None and reference is not None \
                and reference.get(inv.name, outcome.digest) != outcome.digest:
            outcome.failure = ("traced output differs from untraced" if traced
                               else "output differs from the first pass")
        outcomes.append(outcome)
    summary = runner.stop_trace(spans_dir) if traced else None
    return Batch(outcomes, traced, summary)


def _write_inputs(invocations: list[Invocation], in_dir: Path) -> str:
    """Write the scenario files; return a digest of all generated inputs."""
    in_dir.mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256()
    for inv in invocations:
        text = json.dumps(asdict(inv), sort_keys=True)
        h.update(text.encode())
        if inv.scenario is not None:
            (in_dir / f"{inv.name}.json").write_text(json.dumps(inv.scenario, indent=1))
    return h.hexdigest()


def _cold_imports(root: Path, env: dict) -> list[float]:
    cmd = [sys.executable, "-c", "import nearrep.cli"]
    # Untimed first start: a fresh checkout compiles its bytecode once.
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=CHILD_TIMEOUT_S)
    times = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def _scipy_import_seconds(root: Path, env: dict) -> dict[str, float]:
    """Cumulative `-X importtime` seconds of scipy.spatial and scipy.optimize (median)."""
    samples: dict[str, list[float]] = {"scipy.spatial": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_STARTS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nearrep.cli"],
                              cwd=root, env=env, check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        seen = dict.fromkeys(samples, 0.0)  # a package nobody imports costs nothing
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name, value in seen.items():
            samples[name].append(value)
    return {f"import.scipy_{name.split('.')[1]}_s": statistics.median(v)
            for name, v in samples.items()}


def _environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "system": platform.system()}


def _peak_rss_mb(kind: str) -> float:
    who = resource.RUSAGE_CHILDREN if kind == "cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _time_metrics(batches: list[Batch]) -> dict[str, float]:
    return {"batch_s": statistics.median(b.wall for b in batches),
            "invocation_s.p50": statistics.median(o.seconds for b in batches
                                                  for o in b.outcomes)}


def _layer_timing_median(summaries: list[dict]) -> dict[str, float]:
    per_batch = [tracing.layer_metrics(s) for s in summaries]
    return {k: statistics.median(m[k] for m in per_batch) for k in per_batch[0]}


def _run_all(args) -> int:
    """Run every workload in its own process, one after another; merge the result lines.

    Each workload's metrics are named `<workload>.<metric>` in the merged line.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{name}": m
                                  for name, m in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or 'all' to run each in turn in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return _run_all(args)

    root = Path.cwd()
    if not (root / "src" / "nearrep" / "cli.py").is_file():
        print(f"perfbench: no src/nearrep/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    generate, kind = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root = HERE / "out"
    run_dir = out_root / label
    shutil.rmtree(run_dir, ignore_errors=True)
    invocations = generate(args.seed)
    input_digest = _write_inputs(invocations, run_dir / "in")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    # Children cache bytecode, as an installed package does, whatever the
    # calling shell prefers; the first, untimed start writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    setup = _cold_imports(root, env)
    runner = WarmRunner(root) if kind == "warm" else ColdRunner(root, env)
    checks: dict[str, bool] = {}
    metrics: dict[str, float] = {"setup_s": statistics.median(setup)}
    layer_details: dict = {}

    def batch(traced, reference, invs=invocations, in_dir=run_dir / "in"):
        return run_batch(runner, invs, in_dir, run_dir, root, traced, reference)

    if kind == "warm":
        # Let lazy set-up inside numpy and scipy finish before timing: one
        # untimed pass of the workload's control.
        control = [inv for inv in invocations if inv.control][:1]
        batch(False, None, control)

    start = time.perf_counter()
    first = batch(False, None)
    reference = {o.name: o.digest for o in first.outcomes}
    untraced, traced, extra = [first], [], []
    if not args.trace:
        while True:
            elapsed = time.perf_counter() - start
            if len(untraced) >= MIN_BATCHES and \
                    elapsed + statistics.median(b.wall for b in untraced) > args.seconds:
                break
            untraced.append(batch(False, reference))
        metrics.update(_time_metrics(untraced))
        metrics["peak_rss_mb"] = _peak_rss_mb(kind)
    else:
        # Untraced passes bracket the two traced ones, so a drift in machine
        # speed during the run does not read as tracing overhead.
        traced.append(batch(True, reference))
        traced.append(batch(True, reference))
        untraced.append(batch(False, reference))
        signatures = [tracing.count_signature(b.summary) for b in traced]
        checks["counts_repeat"] = signatures[0] == signatures[1]
        # The next seed: different inputs, same layer mix.
        next_invs = generate(args.seed + 1)
        next_digest = _write_inputs(next_invs, run_dir / "in-next")
        extra.append(batch(True, None, next_invs, run_dir / "in-next"))
        checks["seed_changes_inputs"] = next_digest != input_digest
        checks["seed_keeps_layer_mix"] = (tracing.layer_mix(traced[0].summary)
                                          == tracing.layer_mix(extra[0].summary))
        while True:
            elapsed = time.perf_counter() - start
            pair = statistics.median(b.wall for b in untraced) + \
                statistics.median(b.wall for b in traced)
            if elapsed + pair > args.seconds:
                break
            traced.append(batch(True, reference))
            untraced.append(batch(False, reference))
        metrics.update(tracing.layer_metrics(traced[0].summary))
        timing = _layer_timing_median([b.summary for b in traced])
        metrics.update({k: v for k, v in timing.items() if k.endswith("_s")})
        metrics.update(_scipy_import_seconds(root, env))
        metrics["trace.overhead_s"] = (_time_metrics(traced)["batch_s"]
                                       - _time_metrics(untraced)["batch_s"])
        layer_details = {"summary": traced[0].summary,
                         "layer_mix": tracing.layer_mix(traced[0].summary)}

    all_batches = untraced + traced + extra
    outcomes = [o for b in all_batches for o in b.outcomes]
    failed = [o for o in outcomes if o.failure is not None]
    correct = not failed and all(checks.values())

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                      for m in declared}

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(), "input_digest": input_digest,
        "setup_samples_s": setup,
        "batches": [{"traced": b.traced, "wall_s": b.wall} for b in all_batches],
        "outputs": {o.name: {"exit_code": o.exit_code, "verdicts": o.verdicts,
                             "digest": o.digest} for o in first.outcomes},
        "invocations": [asdict(o) for o in outcomes],
        "checks": checks, "metrics": metrics, "layers": layer_details,
        "attempted": len(outcomes), "failed": len(failed),
    }
    (out_root / f"{label}.json").write_text(json.dumps(results, indent=1, sort_keys=True))
    shutil.rmtree(run_dir / "work", ignore_errors=True)

    for o in first.outcomes:
        print(f"{o.name:<24} exit {o.exit_code}  {o.digest[:12]}  "
              f"{' '.join(k for k, v in o.verdicts.items() if not v) or 'all verdicts pass'}")
    for o in failed:
        print(f"FAILED {o.name}: {o.failure}")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"batches: {len(untraced)} untraced, {len(traced) + len(extra)} traced; "
          f"invocation samples: {sum(len(b.outcomes) for b in untraced)}")
    print(f"failed_share = {len(failed) / len(outcomes):.4g} ratio "
          f"({len(failed)} of {len(outcomes)} invocations)")
    for name, m in result_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
