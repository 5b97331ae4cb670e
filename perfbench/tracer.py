"""Outside-in tracing of nearrep for the benchmark's traced run.

`Tracer.install()` wraps the public functions of each nearrep module in
place (every module namespace that holds the function is patched, so calls
through `from .core import bisect_monotone` are seen too), records one span
per call and a few counters, and `uninstall()` puts the originals back. The
package itself is not edited; with no tracer installed nothing is wrapped.

A span is (name, start_ns, end_ns, parent index). Spans are allocated on
entry, so a parent's index is always below its children's. Spans of one
invocation are contiguous; `begin(request)` marks where each one starts.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("cli", "core", "risk", "uncertainty", "timepref", "tables")

# Called once per CSV cell or per probe mixture: left unwrapped to keep the
# traced run's own cost and memory small (their callers are spanned).
_UNSPANNED = {"tables": {"format_cell"}, "core": {"mix_probs"}}


def _modules():
    import nearrep
    from nearrep import cli, core, risk, tables, timepref, uncertainty
    return nearrep, {"cli": cli, "core": core, "risk": risk, "uncertainty": uncertainty,
                     "timepref": timepref, "tables": tables}


def _public_functions(layer: str, mod) -> list[str]:
    if layer == "cli":
        return ["main", "run_scenario"]
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(mod, n, None))
            and getattr(mod, n).__module__ == mod.__name__
            and n not in _UNSPANNED.get(layer, ())]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.requests: list[tuple[str, int]] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._acts: set = set()
        self._models: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay valid."""
        for column in (self.span_name, self.span_start, self.span_end, self.span_parent,
                       self.requests, self._stack):
            del column[:]
        self.counts.clear()
        self._acts.clear()
        self._models.clear()

    def begin(self, request: str) -> None:
        self.requests.append((request, len(self.span_name)))

    def _spanned(self, name: str, fn, before=None, after=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                args, kwargs, token = before(args, kwargs)
            idx = len(names)
            names.append(nid)
            starts.append(clock())
            ends.append(0)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()
            if after is not None:
                after(token, result)
            return result
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks for the per-layer ratios ------------------------------------

    def _bisect_before(self, args, kwargs):
        counts = self.counts
        f = kwargs.pop("f") if "f" in kwargs else args[0]
        args = args[1:] if args and args[0] is f else args

        def counted(x):
            counts["core.bisect.evals"] += 1
            return f(x)
        return (counted, *args), kwargs, None

    def _mixture_before(self, args, kwargs):
        return args, kwargs, self.counts["core.value.calls"]

    def _mixture_after(self, value_calls_before, _result):
        # A miss always evaluates the model at least once; a cache hit never does.
        if self.counts["core.value.calls"] == value_calls_before:
            self.counts["risk.mixture_utility.cache_hits"] += 1

    def _ce_before(self, args, kwargs):
        model, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
        self._models.setdefault(id(model), model)  # keeps ids unique while recorded
        self._acts.add((id(model), np.asarray(x, dtype=float).tobytes()))
        return args, kwargs, None

    def _written(self, _token, path):
        self.counts["tables.bytes_written"] += os.path.getsize(path)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        package, mods = _modules()
        namespaces = [package, *mods.values()]

        def patch_everywhere(orig, replacement):
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, attr, orig))
                        setattr(ns, attr, replacement)

        hooks = {
            "core.bisect_monotone": (self._bisect_before, None),
            "risk.mixture_utility": (self._mixture_before, self._mixture_after),
            "uncertainty.ce_utility": (self._ce_before, None),
            "tables.write_csv": (None, self._written),
            "tables.write_report_json": (None, self._written),
        }
        for layer, mod in mods.items():
            for fname in _public_functions(layer, mod):
                name = f"{layer}.{fname}"
                before, after = hooks.get(name, (None, None))
                orig = getattr(mod, fname)
                patch_everywhere(orig, self._spanned(name, orig, before, after))
        # Module and class attributes that a later version may drop (a lazy
        # scipy import, an LP-free hull): a missing one just counts zero.
        unc = mods["uncertainty"]
        for owner, attr, name in ((unc, "linprog", "uncertainty.linprog"),
                                  (getattr(unc, "QuasiConcaveBenchmark", None), "evaluate",
                                   "uncertainty.hull_evaluate")):
            orig = getattr(owner, attr, None)
            if orig is not None:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, self._spanned(name, orig))
        core = mods["core"]
        for cls in vars(core).values():
            if inspect.isclass(cls) and cls.__module__ == core.__name__ \
                    and "value" in vars(cls):
                self._patches.append((cls, "value", vars(cls)["value"]))
                setattr(cls, "value", self._counted("core.value.calls", vars(cls)["value"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reduction -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name and per-layer calls, busy and self nanoseconds, plus counters.

        busy counts a span only when no ancestor has the same name (or, per
        layer, the same layer), so nested calls are not counted twice. self
        is a span's duration minus the time its direct children cover; the
        program is single-threaded, so children never overlap.
        """
        n = len(self.span_name)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        cover = [0] * n
        layer_of = [LAYERS.index(name.split(".", 1)[0]) for name in self.names]
        name_mask = [0] * n
        layer_mask = [0] * n
        by_name = collections.defaultdict(lambda: [0, 0, 0])  # calls, busy, self
        by_layer = collections.defaultdict(lambda: [0, 0])    # busy, self
        bisected = set()
        ce_id = self._name_ids.get("uncertainty.ce_utility")
        bisect_id = self._name_ids.get("core.bisect_monotone")
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                cover[p] += dur[i]
                pn = self.span_name[p]
                name_mask[i] = name_mask[p] | (1 << pn)
                layer_mask[i] = layer_mask[p] | (1 << layer_of[pn])
                if self.span_name[i] == bisect_id and pn == ce_id:
                    bisected.add(p)
        for i in range(n):
            nid = self.span_name[i]
            layer = LAYERS[layer_of[nid]]
            own = dur[i] - cover[i]
            rec = by_name[self.names[nid]]
            rec[0] += 1
            rec[2] += own
            by_layer[layer][1] += own
            if not name_mask[i] >> nid & 1:
                rec[1] += dur[i]
            if not layer_mask[i] >> layer_of[nid] & 1:
                by_layer[layer][0] += dur[i]
        counts = dict(self.counts)
        counts["uncertainty.ce_utility.distinct_acts"] = len(self._acts)
        counts["uncertainty.ce_utility.bisected"] = len(bisected)
        return {"names": {k: v for k, v in sorted(by_name.items())},
                "layers": {k: v for k, v in sorted(by_layer.items())},
                "counts": dict(sorted(counts.items()))}

    def dump_spans(self, path) -> None:
        """Write the recorded spans as gzip JSON: names, request starts, span columns."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "requests": self.requests,
                       "name": self.span_name, "start_ns": self.span_start,
                       "end_ns": self.span_end, "parent": self.span_parent}, fh)


def merge(summaries: list[dict]) -> dict:
    """Sum summaries of separate processes (calls, times and counts all add)."""
    out = {"names": {}, "layers": {}, "counts": {}}
    for s in summaries:
        for section in ("names", "layers"):
            for key, vals in s[section].items():
                acc = out[section].setdefault(key, [0] * len(vals))
                out[section][key] = [a + b for a, b in zip(acc, vals)]
        for key, v in s["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one batch, named as in BENCHMARK.json."""
    names, layers, counts = summary["names"], summary["layers"], summary["counts"]

    def calls(name):
        return names.get(name, [0, 0, 0])[0]

    def busy_s(name):
        return names.get(name, [0, 0, 0])[1] / 1e9

    bisect_calls = calls("core.bisect_monotone")
    mix_calls = calls("risk.mixture_utility")
    ce_calls = calls("uncertainty.ce_utility")
    out = {
        "cli.self_s": layers.get("cli", [0, 0])[1] / 1e9,
        "core.bisect.calls": bisect_calls,
        "core.bisect.evals_per_call": _ratio(counts.get("core.bisect.evals", 0), bisect_calls),
        "core.bisect.busy_s": busy_s("core.bisect_monotone"),
        "core.value.calls": counts.get("core.value.calls", 0),
        "risk.mixture_utility.calls": mix_calls,
        "risk.mixture_utility.cache_hit_ratio": _ratio(
            counts.get("risk.mixture_utility.cache_hits", 0), mix_calls),
        "uncertainty.ce_utility.calls": ce_calls,
        "uncertainty.ce_utility.distinct_share": _ratio(
            counts.get("uncertainty.ce_utility.distinct_acts", 0), ce_calls),
        "uncertainty.ce_utility.bisected_share": _ratio(
            counts.get("uncertainty.ce_utility.bisected", 0), ce_calls),
        "uncertainty.linprog.calls": calls("uncertainty.linprog"),
        "uncertainty.hull_evaluate.calls": calls("uncertainty.hull_evaluate"),
        "timepref.busy_s": layers.get("timepref", [0, 0])[0] / 1e9,
        "timepref.gamma_of.calls": calls("timepref.gamma_of"),
        "tables.busy_s": layers.get("tables", [0, 0])[0] / 1e9,
        "tables.bytes_written": counts.get("tables.bytes_written", 0),
    }
    for fn in ("risk.measure_eps_rcl", "risk.verify_thm1", "risk.measure_eps_independence",
               "risk.verify_thm2", "uncertainty.theta_estimate", "uncertainty.extract_prior",
               "uncertainty.verify_aa_bound", "uncertainty.verify_homog_bound",
               "uncertainty.quasiconcavify", "uncertainty.measure_eps_ua",
               "uncertainty.verify_quasiconcave_bound"):
        out[f"{fn}.busy_s"] = busy_s(fn)
    return out


def count_signature(summary: dict) -> dict:
    """Everything in a summary that must repeat exactly between identical batches."""
    return {"calls": {k: v[0] for k, v in summary["names"].items()},
            "counts": summary["counts"]}


def layer_mix(summary: dict) -> list[str]:
    """The layers and counters that did any work: a workload's shape, not its size."""
    active = {k.split(".", 1)[0] for k, v in summary["names"].items() if v[0]}
    active |= {k for k, v in summary["counts"].items() if v}
    for name in ("core.bisect_monotone", "risk.mixture_utility", "uncertainty.ce_utility",
                 "uncertainty.linprog", "uncertainty.hull_evaluate", "timepref.gamma_of"):
        if summary["names"].get(name, [0])[0]:
            active.add(name)
    return sorted(active)
