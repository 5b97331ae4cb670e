"""Shared types and scalar primitives for the near-representation meters.

Nothing here imports numpy. The models live in their domain modules (risk,
uncertainty, timepref), so a time-domain run never loads it.

Conventions
-----------
* A lottery is a probability vector over d+1 prizes; an act is a nonnegative
  payoff vector over d states; a dated reward is (payment, integer delay).
* Model evaluators are pure functions of frozen dataclasses: the same inputs
  always return the same bit pattern, so grid sweeps can run in any order and
  reports are reproducible byte for byte.
* Every measurement op returns a ViolationReport whose witness re-evaluates
  to the reported value (up to a recorded strictness margin); every
  construction op returns a NearRepresentation with its achieved distance and
  the theoretical bound it was checked against.
* Discount curves expose log d(t) as the primitive. d(2^40) underflows for
  any gamma < 1, so nothing exponentiates until a report needs a level value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = [
    "NearRepError",
    "InvalidModel",
    "NoBracket",
    "BoundViolated",
    "HypothesisFailed",
    "NotConverged",
    "NotAdditive",
    "NoSuchTau",
    "ScenarioError",
    "Lottery",
    "ViolationReport",
    "NearRepresentation",
    "discount",
    "bisect_monotone",
    "grid_size",
    "dyadic_tail_sum",
    "mix_probs",
]

SUM_TOL = 1e-12  # probability vectors must sum to 1 within this before renormalizing
# Largest grid grid_sample builds. Every grid the tests, builtins and example
# scenarios use has at most a few thousand points; at 1e5 points the act and
# lottery meters already run for many minutes, and a typo such as a resolution
# of 10^6 would ask for terabytes.
MAX_GRID_POINTS = 100_000
TAIL_WINDOW = 4  # dyadic_tail_sum judges decay on this many trailing term ratios
RATIO_TOL = 0.75  # largest trailing term ratio dyadic_tail_sum still calls decaying
MAX_BISECT_STEPS = 200  # halvings of every bisection; rounds of every Newton solve (LPB, CPT)
# The one home of the scenario tolerances' defaults (cli._TOLERANCES `bisect`,
# `slack`, `verify` and `time`) and of the library parameters they are passed to.
BISECT_TOL = 1e-10  # argument tolerance of every bisection and certainty-equivalent solve
BOUND_SLACK = 1e-7  # slack added to the risk verifiers' bounds
VERIFY_TOL = 1e-6  # tolerance added to the act and time verifiers' bounds
STRICTNESS_MARGIN = 1e-12  # bounds are strict inequalities; meters report sup + this


# ---------------------------------------------------------------------------
# errors

class NearRepError(Exception):
    """Base class for all package errors."""


class InvalidModel(NearRepError):
    """Model parameters violate a documented precondition."""


class NoBracket(NearRepError):
    """Bisection endpoints do not straddle a sign change."""


class _WitnessedError(NearRepError):
    """An error that carries the inputs which exhibited it."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


class BoundViolated(_WitnessedError):
    """A verified theorem bound failed numerically; carries the witness."""


class HypothesisFailed(_WitnessedError):
    """A theorem's hypothesis does not hold on the supplied inputs."""


class NotConverged(NearRepError):
    """An iterative limit failed its Cauchy criterion within the cap."""

    def __init__(self, message: str, iterates: Sequence[float] = ()):
        super().__init__(message)
        self.iterates = list(iterates)


class NotAdditive(_WitnessedError):
    """Recovered coordinate values do not sum to the value of the sure act."""


class NoSuchTau(NearRepError):
    """No horizon with discount below the recipe threshold exists in range."""


class ScenarioError(NearRepError):
    """Scenario file is malformed or violates the schema."""


# ---------------------------------------------------------------------------
# object types

@dataclass(frozen=True)
class Lottery:
    """Probability vector over prizes indexed 0..n-1.

    Entries must be nonnegative and sum to 1 within 1e-12; the stored tuple
    is renormalized by the exact sum so downstream mixtures stay on the
    simplex.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) < 2:
            raise InvalidModel("a lottery needs at least two prizes")
        p = tuple(float(v) for v in self.probs)
        if any(v < 0.0 or not math.isfinite(v) for v in p):
            raise InvalidModel(f"negative or non-finite probability in {p}")
        total = math.fsum(p)
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidModel(f"probabilities sum to {total!r}, not 1")
        if total != 1.0:
            p = tuple(v / total for v in p)
        object.__setattr__(self, "probs", p)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices with strictly positive probability."""
        return tuple(i for i, v in enumerate(self.probs) if v > 0.0)

    @property
    def support_size(self) -> int:
        return len(self.support)

    @property
    def is_degenerate(self) -> bool:
        return self.support_size == 1

    @staticmethod
    def degenerate(index: int, n: int) -> "Lottery":
        return Lottery(tuple(1.0 if i == index else 0.0 for i in range(n)))

    def mix(self, other: "Lottery", lam: float) -> "Lottery":
        """Compound lottery lam * self + (1 - lam) * other."""
        if not 0.0 <= lam <= 1.0:
            raise InvalidModel(f"mixture weight {lam!r} outside [0, 1]")
        return Lottery(mix_probs(self.probs, other.probs, lam))


def mix_probs(p: Sequence[float], q: Sequence[float], lam: float) -> tuple[float, ...]:
    if len(p) != len(q):
        raise InvalidModel("mixture of lotteries over different prize sets")
    return tuple(lam * a + (1.0 - lam) * b for a, b in zip(p, q))


@dataclass(frozen=True)
class ViolationReport:
    """Measured worst-case axiom defect with a re-evaluable witness.

    value is the reported statistic (possibly including a documented
    strictness margin recorded in details['margin']); witness holds the
    arguments that attained the underlying maximum.
    """

    axiom: str
    value: float
    witness: dict[str, Any]
    samples_evaluated: int
    details: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "axiom": self.axiom,
            "value": self.value,
            "witness": _jsonable(self.witness),
            "samples_evaluated": self.samples_evaluated,
            "details": _jsonable(self.details),
        }


@dataclass(frozen=True)
class NearRepresentation:
    """A constructed exact-form benchmark plus its certified distance.

    achieved_distance is the measured sup-norm gap to the model on the
    verification sample; bound is the theorem's guarantee it was checked
    against (achieved <= bound + the tolerance recorded in details).
    """

    kind: str
    parameters: dict[str, Any]
    achieved_distance: float
    bound: float
    details: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "parameters": _jsonable(self.parameters),
            "achieved_distance": self.achieved_distance,
            "bound": self.bound,
            "details": _jsonable(self.details),
        }


def _jsonable(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples for json.dump."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if type(obj).__module__ == "numpy":  # an array or a scalar, told without importing numpy
        return _jsonable(obj.tolist())
    if isinstance(obj, (Lottery,)):
        return list(obj.probs)
    return obj


def discount(model, t: int) -> float:
    """Level value d(t) = exp(log_d(t))."""
    return math.exp(model.log_d(t))


# ---------------------------------------------------------------------------
# numerical primitives

def bisect_monotone(f: Callable[[float], float], lo: float, hi: float,
                    tol: float = BISECT_TOL) -> float:
    """Root of a monotone f on [lo, hi] to absolute argument tolerance tol.

    Exact zeros at the endpoints or a midpoint return immediately, so
    calibration endpoints snap without rounding. Raises NoBracket when
    f(lo) and f(hi) share a sign. At most MAX_BISECT_STEPS halvings.
    """
    if not tol > 0.0:
        raise InvalidModel(f"tol must be positive, got {tol!r}")
    if not lo < hi:
        raise InvalidModel(f"empty bracket [{lo!r}, {hi!r}]")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoBracket(f"f({lo!r})={flo!r} and f({hi!r})={fhi!r} have the same sign")
    increasing = flo < 0.0
    for _ in range(MAX_BISECT_STEPS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at float resolution
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_size(space: str, dim: int, resolution: int) -> int:
    """Number of points grid_sample(space, dim, resolution) builds; allocates nothing.

    C(resolution + dim - 1, dim - 1) for the simplex, resolution^dim for the
    box, resolution for the interval. Invalid arguments raise as in
    grid_sample.
    """
    if space == "simplex":
        if resolution < 1:
            raise InvalidModel(f"resolution {resolution!r} must be at least 1")
        if dim < 2:
            raise InvalidModel("simplex needs at least 2 coordinates")
        return math.comb(resolution + dim - 1, dim - 1)
    if space not in ("box", "interval"):
        raise InvalidModel(f"unknown space {space!r}")
    if resolution < 2:
        raise InvalidModel(f"resolution {resolution!r} must be at least 2")
    if space == "interval":
        return resolution
    if dim < 1:
        raise InvalidModel("box needs at least 1 axis")
    return resolution ** dim


def dyadic_tail_sum(terms: Sequence[float], floor: float = 1e-15) -> tuple[float, bool]:
    """Sum of a nonempty list of nonnegative terms with a geometric-decay verdict.

    Sums the terms with fsum and classifies the series convergent when each
    of the last TAIL_WINDOW consecutive ratios is at most RATIO_TOL (terms at
    or below `floor` count as converged; a term rising back above the floor
    after one below it does not).
    """
    if not terms:
        raise InvalidModel("no terms to sum")
    terms = [float(v) for v in terms]
    for i, v in enumerate(terms):
        if v < 0.0 or not math.isfinite(v):
            raise InvalidModel(f"term({i}) = {v!r}; terms must be nonnegative and finite")
    total = math.fsum(terms)
    tail = terms[-(TAIL_WINDOW + 1):]
    converged = True
    for a, b in zip(tail, tail[1:]):
        if b <= floor:
            continue
        if a <= floor or b > RATIO_TOL * a:
            converged = False
            break
    return total, converged
