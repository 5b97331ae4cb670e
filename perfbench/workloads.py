"""Seeded invocation lists for the four benchmark workloads.

Every workload is a fixed list of invocation slots; the seed only draws the
model parameters inside each slot (and becomes the sampler seed), so two
seeds give different inputs with the same sizes and the same layer mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One `nearrep` command line: `run` of a generated scenario, `builtin` or `list`.

    `scenario` is written to `<name>.json` in the run's input directory
    before timing starts. A control is an exact model whose reported defects
    must stay at numerical zero.
    """

    name: str
    command: str
    scenario: dict | None = None
    builtin: str | None = None
    control: bool = False

    def argv(self, in_dir: str, out_dir: str) -> list[str]:
        if self.command == "run":
            return ["run", f"{in_dir}/{self.name}.json", "--out", out_dir]
        if self.command == "builtin":
            return ["builtin", self.builtin, "--out", out_dir]
        return ["list"]


def _scenario(name: str, domain: str, model: dict, sampler: dict) -> dict:
    return {"version": 1, "name": name, "domain": domain, "model": model,
            "sampler": sampler}


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _prior(rng: random.Random, n: int) -> list[float]:
    """A prior with every state weighted at least 0.1; the last entry closes the sum."""
    raw = [rng.uniform(1.0, 4.0) for _ in range(n)]
    total = sum(raw)
    head = [round(v / total, 4) for v in raw[:-1]]
    return head + [round(1.0 - sum(head), 4)]


def _prizes(rng: random.Random, n: int) -> list[float]:
    """n distinct nonnegative prizes: a top prize, n - 2 interior ones, and 0."""
    top = float(rng.randrange(1000, 5001, 10))
    inner = sorted(rng.sample(range(10, int(top), 10), n - 2), reverse=True)
    return [top, *map(float, inner), 0.0]


def risk_calibration(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    sampler = {"resolution": 21, "seed": seed}
    out = []
    for name, n in (("cpt-3a", 3), ("cpt-3b", 3), ("cpt-4a", 4), ("cpt-4b", 4)):
        model = {"type": "cpt", "value_exponent": _u(rng, 0.4, 1.0),
                 "weight_exponent": _u(rng, 0.4, 1.0), "prizes": _prizes(rng, n)}
        out.append(Invocation(name, "run", _scenario(name, "risk", model, sampler)))
    model = {"type": "expected_utility", "utilities": [1.0, _u(rng, 0.2, 0.8), 0.0]}
    out.append(Invocation("eu-control", "run",
                          _scenario("eu-control", "risk", model, sampler), control=True))
    return out


def ambiguity_doubling(seed: int) -> list[Invocation]:
    rng = random.Random(seed)

    def sampler(states: int) -> dict:
        return {"resolution": 4 if states == 2 else 3, "n_random_pairs": 10,
                "homog": True, "quasiconcave": False, "seed": seed}

    models = [
        ("lpb-2", {"type": "linear_plus_bounded", "prior": _prior(rng, 2),
                   "bump": _u(rng, 0.2, 1.0)}, 2, False),
        ("seu-control", {"type": "seu", "prior": _prior(rng, 3)}, 3, True),
        ("meu-2", {"type": "meu", "priors": [_prior(rng, 2), _prior(rng, 2)]}, 2, False),
        ("ces-3", {"type": "ces", "weights": [_u(rng, 0.5, 3.0) for _ in range(3)],
                   "rho": _u(rng, 0.3, 0.9)}, 3, False),
        ("smooth-2", {"type": "smooth", "f": "sqrt1pz2",
                      "priors": [_prior(rng, 2), _prior(rng, 2)],
                      "weights": _prior(rng, 2)}, 2, False),
    ]
    return [Invocation(name, "run", _scenario(name, "uncertainty", model, sampler(states)),
                       control=control)
            for name, model, states, control in models]


def ambiguity_hull(seed: int) -> list[Invocation]:
    rng = random.Random(seed)

    def sampler(states: int) -> dict:
        return {"resolution": 4 if states == 2 else 3, "n_random_pairs": 10,
                "homog": False, "quasiconcave": True,
                "qc_resolution": 7 if states == 2 else 4, "level_resolution": 4,
                "seed": seed}

    models = [
        ("ces-2", {"type": "ces", "weights": [_u(rng, 0.5, 3.0) for _ in range(2)],
                   "rho": _u(rng, 0.3, 0.9)}, 2, False),
        ("meu-3", {"type": "meu", "priors": [_prior(rng, 3), _prior(rng, 3)]}, 3, False),
        ("seu-control", {"type": "seu", "prior": _prior(rng, 2)}, 2, True),
    ]
    return [Invocation(name, "run", _scenario(name, "uncertainty", model, sampler(states)),
                       control=control)
            for name, model, states, control in models]


def cli_cold(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    discrete = [
        ("exponential", {"type": "exponential", "gamma": _u(rng, 0.8, 0.99)}, True),
        ("quasi-hyperbolic", {"type": "quasi_hyperbolic", "beta": _u(rng, 0.6, 0.95),
                              "delta": _u(rng, 0.85, 0.99)}, False),
        ("hyperbolic", {"type": "hyperbolic", "k": _u(rng, 0.05, 1.0)}, False),
        ("tabulated", {"type": "tabulated",
                       "values": _discount_table(rng)}, False),
    ]
    x_bar = _u(rng, 1.0, 5.0)
    continuous = [
        ("linear-delay", {"type": "linear_delay", "x_bar": x_bar,
                          "rate": _u(rng, 0.5, 2.0)}, True),
        ("log-delay", {"type": "log_delay", "x_bar": x_bar, "k": _u(rng, 0.1, 1.0)}, False),
    ]
    out = [Invocation(f"builtin-{b}", "builtin", builtin=b)
           for b in ("allais", "figure1", "smooth-bound", "quasi-hyperbolic")]
    out += [Invocation(name, "run", _scenario(name, "time-discrete", model, {}),
                       control=control) for name, model, control in discrete]
    out += [Invocation(name, "run", _scenario(name, "time-continuous", model, {}),
                       control=control) for name, model, control in continuous]
    out.append(Invocation("list", "list"))
    return out


def _discount_table(rng: random.Random) -> list[float]:
    """A strictly decreasing discount curve d(0) = 1 > d(1) > ... over 12 delays."""
    values = [1.0]
    for _ in range(11):
        values.append(round(values[-1] * rng.uniform(0.8, 0.97), 6))
    return values


WORKLOADS = {
    "risk-calibration": (risk_calibration, "warm"),
    "ambiguity-doubling": (ambiguity_doubling, "warm"),
    "ambiguity-hull": (ambiguity_hull, "warm"),
    "cli-cold": (cli_cold, "cold"),
}
