"""Shared types and scalar primitives for the near-representation meters.

Nothing here imports numpy. The models live in their domain modules (risk,
uncertainty, timepref), so a time-domain run never loads it.

Conventions
-----------
* A lottery is a probability vector over d+1 prizes; an act is a nonnegative
  payoff vector over d states; a dated reward is (payment, integer delay).
* Model evaluators are pure functions of the parameters a model is built
  with: the same inputs always return the same bit pattern, so grid sweeps
  can run in any order and reports are reproducible byte for byte.
* Every measurement op returns a ViolationReport whose witness re-evaluates
  to the reported value (up to a recorded strictness margin); every
  construction op returns a NearRepresentation with its achieved distance and
  the theoretical bound it was checked against.
* Discount curves expose log d(t) as the primitive. d(2^40) underflows for
  any gamma < 1, so nothing exponentiates until a report needs a level value.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

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
    "ViolationReport",
    "NearRepresentation",
    "discount",
    "grid_size",
    "dyadic_tail_sum",
]

SUM_TOL = 1e-12  # probability vectors must sum to 1 within this before renormalizing
# Largest simplex lattice or box grid the samplers build. Every grid the tests,
# builtins and example scenarios use has at most a few thousand points; at 1e5
# points the act and lottery meters already run for many minutes, and a typo
# such as a resolution of 10^6 would ask for terabytes.
MAX_GRID_POINTS = 100_000
TAIL_WINDOW = 4  # dyadic_tail_sum judges decay on this many trailing term ratios
RATIO_TOL = 0.75  # largest trailing term ratio dyadic_tail_sum still calls decaying
MAX_BISECT_STEPS = 200  # halvings of every bisection; rounds of every Newton solve (LPB, CPT)
# Fixed parts of every check, read by the meters and verifiers at call time (a
# test changes one by setting the attribute of the module that reads it).
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
    """No root in range: bracket ends share a sign, or a delay lies beyond its cap."""


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

def _finite(values: Sequence[float], what: str) -> tuple[float, ...]:
    """values as a tuple of floats; InvalidModel when any of them is nan or infinite."""
    v = tuple(float(x) for x in values)
    if not all(map(math.isfinite, v)):
        raise InvalidModel(f"{what} must be finite, got {v}")
    return v


class _Record:
    """Equal to a record of its own class with equal attributes, as a dataclass is.

    Loading dataclasses (and inspect) and defining each one would cost a cold
    start more than the rest of the CLI, so the numpy-free records are plain.
    """

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if k[0] != "_")
        return f"{type(self).__name__}({fields})"


class ViolationReport(_Record):
    """Measured worst-case axiom defect with a re-evaluable witness.

    value is the reported statistic (possibly including a documented
    strictness margin recorded in details['margin']); witness holds the
    arguments that attained the underlying maximum.
    """

    def __init__(self, axiom: str, value: float, witness: dict[str, Any],
                 samples_evaluated: int, details: dict[str, Any]):
        self.axiom, self.value, self.witness = axiom, value, witness
        self.samples_evaluated, self.details = samples_evaluated, details

    def as_dict(self) -> dict[str, Any]:
        return {
            "axiom": self.axiom,
            "value": self.value,
            "witness": _jsonable(self.witness),
            "samples_evaluated": self.samples_evaluated,
            "details": _jsonable(self.details),
        }


class NearRepresentation(_Record):
    """A constructed exact-form benchmark plus its certified distance.

    achieved_distance is the measured sup-norm gap to the model on the
    verification sample; bound is the theorem's guarantee it was checked
    against (achieved <= bound + the tolerance recorded in details).
    """

    def __init__(self, kind: str, parameters: dict[str, Any], achieved_distance: float,
                 bound: float, details: dict[str, Any]):
        self.kind, self.parameters = kind, parameters
        self.achieved_distance, self.bound, self.details = achieved_distance, bound, details

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
    return obj


def discount(model, t: int) -> float:
    """Level value d(t) = exp(log_d(t))."""
    return math.exp(model.log_d(t))


# ---------------------------------------------------------------------------
# numerical primitives

def grid_size(space: str, dim: int, resolution: int) -> int:
    """Number of points of a sampler grid over dim coordinates; allocates nothing.

    C(resolution + dim - 1, dim - 1) for the simplex lattice (multiples of
    1/resolution), resolution^dim for the box grid (resolution points per
    axis). Invalid arguments raise InvalidModel.
    """
    if space == "simplex":
        if resolution < 1:
            raise InvalidModel(f"resolution {resolution!r} must be at least 1")
        if dim < 2:
            raise InvalidModel("simplex needs at least 2 coordinates")
        return math.comb(resolution + dim - 1, dim - 1)
    if space != "box":
        raise InvalidModel(f"unknown space {space!r}")
    if resolution < 2:
        raise InvalidModel(f"resolution {resolution!r} must be at least 2")
    if dim < 1:
        raise InvalidModel("box needs at least 1 axis")
    return resolution ** dim


def _check_grid_cap(space: str, dim: int, resolution: int) -> None:
    """Refuse a grid above MAX_GRID_POINTS from its count, before anything is allocated."""
    n = grid_size(space, dim, resolution)
    if n > MAX_GRID_POINTS:
        raise InvalidModel(f"{space} grid of {n} points exceeds the cap of "
                           f"{MAX_GRID_POINTS} points")


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
