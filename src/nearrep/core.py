"""Shared types and numerical primitives for the near-representation meters.

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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

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
    "ExpectedUtility",
    "CumulativeProspect",
    "TabulatedUtility",
    "SubjectiveExpected",
    "MaxminExpected",
    "SmoothAmbiguity",
    "CESUtility",
    "LinearPlusBounded",
    "Exponential",
    "QuasiHyperbolic",
    "Hyperbolic",
    "TabulatedDiscount",
    "LinearDelay",
    "LogDelay",
    "discount",
    "bisect_monotone",
    "bisect_monotone_batch",
    "grid_size",
    "grid_sample",
    "dyadic_tail_sum",
    "mix_probs",
]

SUM_TOL = 1e-12  # probability vectors must sum to 1 within this before renormalizing
# Largest grid grid_sample builds. Every grid the tests, builtins and example
# scenarios use has at most a few thousand points; at 1e5 points the act and
# lottery meters already run for many minutes, and a typo such as a resolution
# of 10^6 would ask for terabytes.
MAX_GRID_POINTS = 100_000


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
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (Lottery,)):
        return list(obj.probs)
    return obj


# ---------------------------------------------------------------------------
# every model evaluates rows: value_batch(X) over rows of lotteries or acts,
# value(x) as its one-row case

def _rows(X) -> np.ndarray:
    return np.ascontiguousarray(X, dtype=float).reshape(-1, np.shape(X)[-1])


class _RowModel:
    """value(x) as the one-row case of value_batch, so both agree bit for bit.

    Row-wise products use np.vecdot (one dot per row, as np.dot(p, x)) and
    np.matvec (one matrix-vector product per row, as P @ x), and the
    rank-dependent model works column by column: each row is computed alone,
    so its bits do not depend on the rest of the batch.
    """

    def value(self, x) -> float:
        return float(self.value_batch(_rows(x))[0])


# ---------------------------------------------------------------------------
# risk models: value_batch(P) over rows of probability vectors on a fixed
# prize set

@dataclass(frozen=True)
class ExpectedUtility(_RowModel):
    """Linear model u(p) = sum_i p_i * prize_utilities[i]."""

    prize_utilities: tuple[float, ...]

    def __post_init__(self):
        u = tuple(float(v) for v in self.prize_utilities)
        if len(u) < 2:
            raise InvalidModel("need at least two prizes")
        if len(set(u)) < 2:
            raise InvalidModel("all prize utilities equal; no calibration segment")
        object.__setattr__(self, "prize_utilities", u)

    @property
    def n_outcomes(self) -> int:
        return len(self.prize_utilities)

    @property
    def best_index(self) -> int:
        return max(range(self.n_outcomes), key=lambda i: (self.prize_utilities[i], -i))

    @property
    def worst_index(self) -> int:
        return min(range(self.n_outcomes), key=lambda i: (self.prize_utilities[i], i))

    @cached_property
    def _utility_vector(self) -> np.ndarray:
        return np.asarray(self.prize_utilities, dtype=float)

    def value_batch(self, P) -> np.ndarray:
        return np.vecdot(_rows(P), self._utility_vector)


@dataclass(frozen=True)
class CumulativeProspect(_RowModel):
    """Rank-dependent model with power value and inverse-S weighting.

    Prize value w(x) = x^value_exponent; probability weighting
    g(p) = p^b / (p^b + (1-p)^b)^(1/b) with b = weight_exponent. Decision
    weights are differences of g along the descending prize order.
    """

    value_exponent: float
    weight_exponent: float
    prizes: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.value_exponent <= 1.0:
            raise InvalidModel(f"value exponent {self.value_exponent!r} outside (0, 1]")
        # weighting is non-monotone for very small exponents; 0.28 is the
        # classical monotonicity threshold for this functional form
        if not 0.28 <= self.weight_exponent <= 1.0:
            raise InvalidModel(f"weight exponent {self.weight_exponent!r} outside [0.28, 1]")
        z = tuple(float(v) for v in self.prizes)
        if len(z) < 2:
            raise InvalidModel("need at least two prizes")
        if any(v < 0.0 for v in z):
            raise InvalidModel("prizes must be nonnegative")
        if len(set(z)) != len(z):
            raise InvalidModel("prizes must be distinct")
        object.__setattr__(self, "prizes", z)
        order = tuple(sorted(range(len(z)), key=lambda i: -z[i]))
        object.__setattr__(self, "_rank_order", order)
        object.__setattr__(self, "_prize_values", tuple(v ** self.value_exponent for v in z))

    @property
    def n_outcomes(self) -> int:
        return len(self.prizes)

    @property
    def best_index(self) -> int:
        return self._rank_order[0]

    @property
    def worst_index(self) -> int:
        return self._rank_order[-1]

    def weight(self, p):
        """Probability weighting g, elementwise, pinned to g(0) = 0 and g(1) = 1.

        Probabilities outside [0, 1] (a cumulative sum rounding past 1) are
        clipped onto it first. The formula is evaluated strictly inside
        (0, 1) only: at 0 and 1 it gives the pinned values anyway, and
        powers of zero take a slow path in NumPy's vector pow.
        """
        g = np.array(p, dtype=float)
        np.clip(g, 0.0, 1.0, out=g)
        inner = (g > 0.0) & (g < 1.0)
        x = g[inner]
        b = self.weight_exponent
        xb = x ** b
        g[inner] = xb / (xb + (1.0 - x) ** b) ** (1.0 / b)
        return g[()]  # a scalar for a scalar p

    def prize_value(self, x: float) -> float:
        return x ** self.value_exponent

    def value_batch(self, P) -> np.ndarray:
        """Sum over the descending prize order of (g(cum) - g(previous cum)) * w(prize).

        The cumulative sums run column by column, one row per prize. A
        prize that leaves every row's cum unchanged (as all but the two end
        prizes of a calibration segment do) leaves g unchanged too and adds
        exactly nothing, so it is skipped.
        """
        P = _rows(P)
        n = P.shape[1]
        cum = np.empty((n, len(P)))
        moved = []
        for k, i in enumerate(self._rank_order):
            np.add(cum[k - 1] if k else 0.0, P[:, i], out=cum[k])
            if (cum[k] != (cum[k - 1] if k else 0.0)).any():
                moved.append(k)
        G = self.weight(cum[moved])
        total = np.zeros(len(P))
        g_prev = 0.0
        for g, k in zip(G, moved):
            total += (g - g_prev) * self._prize_values[self._rank_order[k]]
            g_prev = g
        return total


@dataclass(frozen=True, eq=False)
class TabulatedUtility(_RowModel):
    """Utility supplied directly as a function of the probability vector.

    Used where the utility is given rather than derived from a parametric
    family, e.g. perturbed benchmarks in converse checks. The callable must
    accept a length-n_outcomes sequence and return a float; value_batch
    calls it once per row.
    """

    fn: Callable[[Sequence[float]], float]
    n_outcomes: int

    def __post_init__(self):
        if self.n_outcomes < 2:
            raise InvalidModel("need at least two prizes")
        vals = [self.fn(Lottery.degenerate(i, self.n_outcomes).probs) for i in range(self.n_outcomes)]
        if len(set(vals)) < 2:
            raise InvalidModel("constant on degenerates; no calibration segment")
        object.__setattr__(self, "_degenerate_values", tuple(vals))

    @property
    def best_index(self) -> int:
        v = self._degenerate_values
        return max(range(self.n_outcomes), key=lambda i: (v[i], -i))

    @property
    def worst_index(self) -> int:
        v = self._degenerate_values
        return min(range(self.n_outcomes), key=lambda i: (v[i], i))

    def value_batch(self, P) -> np.ndarray:
        return np.array([float(self.fn(tuple(row))) for row in _rows(P).tolist()])


# ---------------------------------------------------------------------------
# uncertainty models: value_batch(X) over rows of acts in R^d_+, value(x) as its
# one-row case, and ce_batch(X, tol), the sure payoff with each row's value
# (uncertainty.ce_batch handles constant rows before calling it)

def _validate_prior(prior: Sequence[float], what: str = "prior") -> tuple[float, ...]:
    p = tuple(float(v) for v in prior)
    if len(p) < 1:
        raise InvalidModel(f"empty {what}")
    if any(v < 0.0 for v in p):
        raise InvalidModel(f"{what} has negative entries: {p}")
    total = math.fsum(p)
    if abs(total - 1.0) > SUM_TOL:
        raise InvalidModel(f"{what} sums to {total!r}, not 1")
    if total != 1.0:
        p = tuple(v / total for v in p)
    return p


@dataclass(frozen=True)
class SubjectiveExpected(_RowModel):
    """Linear model u(x) = prior . x."""

    prior: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "prior", _validate_prior(self.prior))

    @property
    def n_states(self) -> int:
        return len(self.prior)

    @cached_property
    def _prior_vector(self) -> np.ndarray:
        return np.asarray(self.prior, dtype=float)

    def value_batch(self, X) -> np.ndarray:
        return np.vecdot(_rows(X), self._prior_vector)

    def ce_batch(self, X: np.ndarray, tol: float) -> np.ndarray:
        return self.value_batch(X)


@dataclass(frozen=True)
class MaxminExpected(_RowModel):
    """Worst-case expected value over a finite prior set."""

    priors: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        ps = tuple(_validate_prior(p) for p in self.priors)
        if len(ps) < 1:
            raise InvalidModel("need at least one prior")
        if len({len(p) for p in ps}) != 1:
            raise InvalidModel("priors live on different state spaces")
        object.__setattr__(self, "priors", ps)

    @property
    def n_states(self) -> int:
        return len(self.priors[0])

    @cached_property
    def _prior_matrix(self) -> np.ndarray:
        return np.asarray(self.priors, dtype=float)

    def value_batch(self, X) -> np.ndarray:
        return np.min(np.matvec(self._prior_matrix, _rows(X)), axis=1)

    def ce_batch(self, X: np.ndarray, tol: float) -> np.ndarray:
        return self.value_batch(X)


def _f_sqrt1pz2(z: np.ndarray | float):
    return np.sqrt(1.0 + np.square(z))


def _ce_sqrt1pz2(Z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # With m = w - 1, f_inv(w) = sqrt(w^2 - 1) = sqrt(m (m + 2)). Each
    # sqrt(1 + z^2) - 1 is formed as z^2 / (1 + sqrt(1 + z^2)), so m keeps
    # full precision when w is near 1 (acts near zero), where w^2 - 1 cancels.
    Z2 = np.square(Z)
    m = np.vecdot(Z2 / (1.0 + np.sqrt(1.0 + Z2)), weights)
    return np.sqrt(m * (m + 2.0))


def _f_z_minus_exp(z: np.ndarray | float):
    return z - np.exp(-np.asarray(z, dtype=float))


def _ce_z_minus_exp(Z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # solve c - e^{-c} = w by Newton from c0 = max(w, 0); the map is strictly
    # increasing with derivative in [1, 2], so the iteration is monotone safe.
    # Each row stops on its own step test and is not updated afterwards.
    w = np.vecdot(_f_z_minus_exp(Z), weights)
    c = np.maximum(w, 0.0)
    active = np.arange(len(c))
    for _ in range(60):
        if not len(active):
            break
        ca = c[active]
        e = np.exp(-ca)
        step = (ca - e - w[active]) / (1.0 + e)
        ca = ca - step
        c[active] = ca
        active = active[np.abs(step) > 1e-15 * np.maximum(1.0, np.abs(ca))]
    return c


_SMOOTH_FS: dict[str, tuple[Callable, Callable]] = {
    "sqrt1pz2": (_f_sqrt1pz2, _ce_sqrt1pz2),
    "z_minus_exp": (_f_z_minus_exp, _ce_z_minus_exp),
}


@dataclass(frozen=True)
class SmoothAmbiguity(_RowModel):
    """Second-order model: raw functional is a mixture of f(prior . x).

    f_name selects the strictly increasing transform; the value is the raw
    integral functional itself, and f^{-1} of it is the certainty equivalent.
    """

    f_name: str
    priors: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.f_name not in _SMOOTH_FS:
            raise InvalidModel(f"unknown transform {self.f_name!r}; "
                               f"choose from {sorted(_SMOOTH_FS)}")
        ps = tuple(_validate_prior(p) for p in self.priors)
        if len({len(p) for p in ps}) != 1:
            raise InvalidModel("priors live on different state spaces")
        w = _validate_prior(self.weights, what="weight vector")
        if len(w) != len(ps):
            raise InvalidModel("one weight per prior required")
        object.__setattr__(self, "priors", ps)
        object.__setattr__(self, "weights", w)

    @property
    def n_states(self) -> int:
        return len(self.priors[0])

    @cached_property
    def _prior_matrix(self) -> np.ndarray:
        return np.asarray(self.priors, dtype=float)

    @cached_property
    def _weight_vector(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @cached_property
    def mean_prior(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self._weight_vector @ self._prior_matrix)

    def f(self, z):
        return _SMOOTH_FS[self.f_name][0](z)

    def value_batch(self, X) -> np.ndarray:
        """The integral functional sum_k weights[k] * f(priors[k] . x), per row."""
        return np.vecdot(self.f(np.matvec(self._prior_matrix, _rows(X))), self._weight_vector)

    def raw_value(self, x) -> float:
        """The integral functional at one act (the model value)."""
        return self.value(x)

    def ce_batch(self, X: np.ndarray, tol: float) -> np.ndarray:
        return _SMOOTH_FS[self.f_name][1](np.matvec(self._prior_matrix, _rows(X)),
                                          self._weight_vector)


@dataclass(frozen=True)
class CESUtility(_RowModel):
    """Homogeneous-of-degree-one aggregator (sum_i w_i x_i^rho)^(1/rho)."""

    weights: tuple[float, ...]
    rho: float

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if any(v <= 0.0 for v in w):
            raise InvalidModel("weights must be strictly positive")
        if not 0.0 < self.rho <= 1.0:
            raise InvalidModel(f"rho {self.rho!r} outside (0, 1]")
        object.__setattr__(self, "weights", w)

    @property
    def n_states(self) -> int:
        return len(self.weights)

    @cached_property
    def _weight_vector(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @cached_property
    def unit_level(self) -> float:
        """Value of the all-ones act; divides out for certainty equivalents."""
        return float(np.sum(self._weight_vector)) ** (1.0 / self.rho)

    def value_batch(self, X) -> np.ndarray:
        inner = np.vecdot(_rows(X) ** self.rho, self._weight_vector).tolist()
        # libm's pow, as the per-act form used: NumPy's vector pow rounds
        # differently in about 5% of inputs, which reshuffles the noise-level
        # maxima (and so the witnesses) of this exactly homogeneous model
        return np.array([v ** (1.0 / self.rho) for v in inner])

    def ce_batch(self, X: np.ndarray, tol: float) -> np.ndarray:
        return self.value_batch(X) / self.unit_level


@dataclass(frozen=True)
class LinearPlusBounded(_RowModel):
    """Linear value plus a bounded saturating bump: prior.x + bump(1 - e^{-sum x}).

    The bump is bounded by `bump`, so scaling deviations are capped and the
    homogeneous-limit series sums geometrically.
    """

    prior: tuple[float, ...]
    bump: float

    def __post_init__(self):
        object.__setattr__(self, "prior", _validate_prior(self.prior))
        if not self.bump >= 0.0:
            raise InvalidModel("bump must be nonnegative")

    @property
    def n_states(self) -> int:
        return len(self.prior)

    @cached_property
    def _prior_vector(self) -> np.ndarray:
        return np.asarray(self.prior, dtype=float)

    @cached_property
    def _ones(self) -> np.ndarray:
        return np.ones(len(self.prior))

    def value_batch(self, X) -> np.ndarray:
        X = _rows(X)
        total = np.vecdot(X, self._ones)
        return np.vecdot(X, self._prior_vector) + self.bump * (1.0 - np.exp(-total))

    def ce_batch(self, X: np.ndarray, tol: float) -> np.ndarray:
        """No closed form: bisected between each row's min and max.

        Repeated rows are solved once (doubling ladders share most of their
        scaled acts), and each row's bisection runs the same steps whatever
        else is in the batch.
        """
        U, inverse = _distinct_rows(_rows(X))
        target = self.value_batch(U)
        d = U.shape[1]

        def gap(c: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return self.value_batch(c[:, None].repeat(d, axis=1)) - target[idx]

        c = bisect_monotone_batch(gap, np.min(U, axis=1), np.max(U, axis=1), tol=tol)
        return c[inverse]


# ---------------------------------------------------------------------------
# discrete-time discount models: log_d(t) over integer delays

@dataclass(frozen=True)
class Exponential:
    """d(t) = gamma^t."""

    gamma: float
    T_max: int | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise InvalidModel(f"gamma {self.gamma!r} outside (0, 1)")

    def log_d(self, t: int) -> float:
        _check_delay(self, t)
        return t * math.log(self.gamma)


@dataclass(frozen=True)
class QuasiHyperbolic:
    """d(0) = 1, d(t) = beta * delta^t for t >= 1."""

    beta: float
    delta: float
    T_max: int | None = None

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise InvalidModel(f"beta {self.beta!r} outside (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise InvalidModel(f"delta {self.delta!r} outside (0, 1)")

    def log_d(self, t: int) -> float:
        _check_delay(self, t)
        if t == 0:
            return 0.0
        return math.log(self.beta) + t * math.log(self.delta)


@dataclass(frozen=True)
class Hyperbolic:
    """d(t) = 1 / (1 + k t)."""

    k: float
    T_max: int | None = None

    def __post_init__(self):
        if not self.k > 0.0:
            raise InvalidModel(f"k {self.k!r} must be positive")

    def log_d(self, t: int) -> float:
        _check_delay(self, t)
        return -math.log1p(self.k * t)


@dataclass(frozen=True)
class TabulatedDiscount:
    """Finite-horizon curve given by levels d(0), ..., d(T_max).

    Levels must be strictly positive with d(0) = 1 within 1e-12; storage is
    log space.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        if len(v) < 2:
            raise InvalidModel("need at least d(0) and d(1)")
        if any(x <= 0.0 for x in v):
            raise InvalidModel("discount levels must be strictly positive")
        if abs(v[0] - 1.0) > SUM_TOL:
            raise InvalidModel(f"d(0) = {v[0]!r}, must be 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_log_values", tuple(math.log(x) for x in v))

    @property
    def T_max(self) -> int:
        return len(self.values) - 1

    @property
    def is_strictly_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.values, self.values[1:]))

    def log_d(self, t: int) -> float:
        _check_delay(self, t)
        return self._log_values[t]


def _check_delay(model, t: int) -> None:
    if t < 0 or int(t) != t:
        raise InvalidModel(f"delay must be a nonnegative integer, got {t!r}")
    if model.T_max is not None and t > model.T_max:
        raise InvalidModel(f"delay {t} beyond horizon T_max={model.T_max}")


def discount(model, t: int) -> float:
    """Level value d(t) = exp(log_d(t))."""
    return math.exp(model.log_d(t))


# ---------------------------------------------------------------------------
# continuous-time reward-timing models: value(x, t) on (-inf, x_bar] x [0, inf)

@dataclass(frozen=True)
class LinearDelay:
    """u(x, t) = x - rate * t; stationary benchmark with exact time shifts."""

    x_bar: float
    rate: float = 1.0

    def __post_init__(self):
        if not self.rate > 0.0:
            raise InvalidModel("rate must be positive")

    def value(self, x: float, t: float) -> float:
        _check_xt(self, x, t)
        return x - self.rate * t

    def gamma_closed_form(self, x: float) -> float:
        return (self.x_bar - x) / self.rate


@dataclass(frozen=True)
class LogDelay:
    """u(x, t) = x - log(1 + k t); delay sensitivity decays, shifts are inexact."""

    x_bar: float
    k: float

    def __post_init__(self):
        if not self.k > 0.0:
            raise InvalidModel("k must be positive")

    def value(self, x: float, t: float) -> float:
        _check_xt(self, x, t)
        return x - math.log1p(self.k * t)

    def gamma_closed_form(self, x: float) -> float:
        return (math.exp(self.x_bar - x) - 1.0) / self.k


def _check_xt(model, x: float, t: float) -> None:
    if x > model.x_bar + 1e-12:
        raise InvalidModel(f"payment {x!r} above the ceiling x_bar={model.x_bar!r}")
    if t < 0.0:
        raise InvalidModel(f"delay {t!r} must be nonnegative")


# ---------------------------------------------------------------------------
# numerical primitives

def bisect_monotone(f: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-10, max_iter: int = 200) -> float:
    """Root of a monotone f on [lo, hi] to absolute argument tolerance tol.

    Exact zeros at the endpoints or a midpoint return immediately, so
    calibration endpoints snap without rounding. Raises NoBracket when
    f(lo) and f(hi) share a sign.
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
    for _ in range(max_iter):
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


def bisect_monotone_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi,
                          tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """bisect_monotone for many brackets at once, all stepped in lockstep.

    f(c, idx) returns, for each k, the idx[k]-th monotone function at c[k];
    element k is bracketed by [lo[k], hi[k]]. Every element takes the steps
    bisect_monotone takes on its own: an exact zero at lo, at hi or at a
    midpoint returns that point, and it stops once hi - lo <= tol or the
    midpoint no longer splits the interval. Raises NoBracket, naming the
    first such element, when any f(lo) and f(hi) share a sign.
    """
    if not tol > 0.0:
        raise InvalidModel(f"tol must be positive, got {tol!r}")
    lo = np.array(lo, dtype=float).reshape(-1)
    hi = np.array(hi, dtype=float).reshape(-1)
    if lo.shape != hi.shape:
        raise InvalidModel(f"{len(lo)} lower and {len(hi)} upper bracket ends")
    empty = np.flatnonzero(~(lo < hi))
    if len(empty):
        k = int(empty[0])
        raise InvalidModel(f"empty bracket [{lo[k]!r}, {hi[k]!r}] at element {k}")
    out = np.empty_like(lo)
    idx = np.arange(len(lo))
    flo, fhi = f(lo, idx), f(hi, idx)
    at_lo = flo == 0.0
    at_hi = ~at_lo & (fhi == 0.0)
    out[at_lo], out[at_hi] = lo[at_lo], hi[at_hi]
    same = np.flatnonzero(~at_lo & ~at_hi & ((flo > 0.0) == (fhi > 0.0)))
    if len(same):
        k = int(same[0])
        raise NoBracket(f"element {k}: f({lo[k]!r})={flo[k]!r} and f({hi[k]!r})={fhi[k]!r} "
                        f"have the same sign")
    act = np.flatnonzero(~at_lo & ~at_hi)
    increasing = flo[act] < 0.0
    lo, hi = lo[act], hi[act]
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        # stop at tol or at float resolution; either way the answer is the midpoint
        keep = (hi - lo > tol) & (mid > lo) & (mid < hi)
        if np.count_nonzero(keep) == len(keep):
            fm = f(mid, act)
            keep = fm != 0.0
        else:
            fm = f(mid[keep], act[keep])
            keep[keep] = fm != 0.0
        if np.count_nonzero(keep) < len(keep):  # finished elements leave the active set
            out[act[~keep]] = mid[~keep]
            fm = fm[fm != 0.0]
            act, increasing, lo, hi, mid = (act[keep], increasing[keep], lo[keep], hi[keep],
                                            mid[keep])
            if not len(act):
                break
        up = (fm < 0.0) == increasing
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    out[act] = 0.5 * (lo + hi)
    return out


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows U of X and each row's index into them: X == U[inverse]."""
    if len(X) < 2:
        return X, np.arange(len(X))
    order = np.lexsort(X.T[::-1])
    S = X[order]
    first = np.empty(len(X), dtype=bool)
    first[0] = True
    np.any(S[1:] != S[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return S[first], inverse


def _simplex_lattice(n_coords: int, subdivisions: int) -> np.ndarray:
    """All compositions of `subdivisions` into n_coords parts, divided out.

    Deterministic lexicographic order; contains every vertex, and the
    barycenter whenever subdivisions is a multiple of n_coords.
    """
    if subdivisions == 0:
        return np.full((1, n_coords), 1.0 / n_coords)
    pts = []
    for bars in itertools.combinations(range(subdivisions + n_coords - 1), n_coords - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(subdivisions + n_coords - 2 - prev)
        pts.append([k / subdivisions for k in parts])
    return np.asarray(pts, dtype=float)


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


def grid_sample(space: str, dim: int, resolution: int, bound: float = 1.0) -> np.ndarray:
    """Deterministic evaluation grid for one of the three domains.

    space 'simplex': the composition lattice of probabilities that are
    multiples of 1/resolution over `dim` coordinates (resolution 2 on three
    prizes gives the 6 half-integer points). space 'box': the product grid
    of per-axis linspace(0, bound, resolution) over `dim` axes. space
    'interval': linspace(0, bound, resolution), shape (resolution, 1).

    Grids above MAX_GRID_POINTS are refused before anything is allocated.
    The same arguments always return the same array.
    """
    n = grid_size(space, dim, resolution)
    if n > MAX_GRID_POINTS:
        raise InvalidModel(f"{space} grid of {n} points exceeds the cap of "
                           f"{MAX_GRID_POINTS} points")
    if space == "simplex":
        return _simplex_lattice(dim, resolution)
    if space == "box":
        axis = np.linspace(0.0, bound, resolution)
        grids = np.meshgrid(*([axis] * dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)
    return np.linspace(0.0, bound, resolution).reshape(-1, 1)


def dyadic_tail_sum(term: Callable[[int], float], n_max: int,
                    ratio_tol: float = 0.75, window: int = 4,
                    floor: float = 1e-15) -> tuple[float, bool]:
    """Partial sum of nonnegative terms with a geometric-decay verdict.

    Sums term(0..n_max) with fsum and classifies the series convergent when
    each of the last `window` consecutive ratios is at most ratio_tol (terms
    at or below `floor` count as converged; a term rising back above the
    floor after one below it does not).
    """
    if n_max < 0:
        raise InvalidModel("n_max must be nonnegative")
    terms = []
    for i in range(n_max + 1):
        v = float(term(i))
        if v < 0.0 or not math.isfinite(v):
            raise InvalidModel(f"term({i}) = {v!r}; terms must be nonnegative and finite")
        terms.append(v)
    total = math.fsum(terms)
    tail = terms[-(window + 1):]
    converged = True
    for a, b in zip(tail, tail[1:]):
        if b <= floor:
            continue
        if a <= floor or b > ratio_tol * a:
            converged = False
            break
    return total, converged
