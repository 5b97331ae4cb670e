"""Aggregate benchmark runs over seeds: median, quartiles and spread per metric.

    python3 perfbench/summarize.py [--results DIR] [--write perfbench/BENCH_<label>.json]

Reads every <workload>-seed<n>-trace<t>.json that run.py left in DIR
(default perfbench/out),
groups the runs by workload and trace flag, and reports for each metric
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread (q3 - q1) / median, next to the bound BENCHMARK.json fixes. With
--write it also saves the table, the environment and the per-invocation
output digests of the first seed; the label is the file name after BENCH_.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", type=Path, default=HERE / "out")
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = collections.defaultdict(list)
    for path in sorted(args.results.glob("*-seed*-trace*.json")):
        r = json.loads(path.read_text())
        runs[(r["workload"], r["trace"])].append(r)
    if not runs:
        print(f"no results under {args.results}; run perfbench/run.py first", file=sys.stderr)
        return 1

    table: dict = {}
    environment = None
    for (workload, trace), rs in sorted(runs.items()):
        rs.sort(key=lambda r: r["seed"])
        environment = environment or rs[0]["environment"]
        names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        entry = table.setdefault(workload, {})
        entry["trace" if trace else "end_to_end"] = {
            "seeds": [r["seed"] for r in rs],
            "correct": all(not r["failed"] and all(r["checks"].values()) for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "metrics": {n: {**_stats([r["metrics"][n] for r in rs]), "unit": units[n]}
                        for n in names},
        }
        if not trace:
            entry["outputs_seed%d" % rs[0]["seed"]] = rs[0]["outputs"]
        print(f"{workload} (trace {trace}): {len(rs)} runs, seeds {[r['seed'] for r in rs]}, "
              f"failed {entry['trace' if trace else 'end_to_end']['failed']}")
        for n in names:
            s = entry["trace" if trace else "end_to_end"]["metrics"][n]
            bound = bounds.get(n)
            verdict = "" if bound is None else (
                f"  bound {bound}: {'steady' if s['spread'] < bound / 3 else 'within bound' if s['spread'] <= bound else 'TOO WIDE'}")
            print(f"  {n:<46} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}{verdict}")
    if args.write:
        label = args.write.stem.removeprefix("BENCH_")
        args.write.write_text(json.dumps({"label": label, "environment": environment,
                                          "run_seconds": spec["run_seconds"],
                                          "workloads": table}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
