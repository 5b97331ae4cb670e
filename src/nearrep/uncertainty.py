"""Doubling-limit benchmarks and closeness meters for act evaluations.

The working utility of an act is its certainty equivalent: the sure payoff
with the same model value. Midpoint-additivity defects phi(x, y) of that
utility drive everything here: the dyadic series Theta-hat bounds the gap to
the linear benchmark obtained as the doubling limit 2^{-n} u(2^n x); the
scaled variant with ratio eta produces the homogeneous benchmark; and the
quasi-concave envelope comes from convex hulls of sampled upper level sets.

Certainty equivalents keep u(c * ones) = c exactly (constant acts short-cut
the solve), which is what makes the doubling bookkeeping phi(x, 0) legitimate.
The act models are defined here too, with the row layer the risk domain
shares: value_batch over rows, each row computed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .core import (BISECT_TOL, MAX_BISECT_STEPS, RATIO_TOL, STRICTNESS_MARGIN, SUM_TOL,
                   TAIL_WINDOW, VERIFY_TOL, BoundViolated, HypothesisFailed, InvalidModel,
                   NearRepresentation, NotAdditive, NotConverged, ViolationReport,
                   _check_grid_cap, _finite)

__all__ = [
    "SubjectiveExpected",
    "MaxminExpected",
    "SmoothAmbiguity",
    "CESUtility",
    "LinearPlusBounded",
    "BoxSampler",
    "LinearBenchmark",
    "QuasiConcaveBenchmark",
    "ce_batch",
    "dyadic_phi_series",
    "theta_estimate",
    "extract_prior",
    "verify_aa_bound",
    "smooth_ambiguity_bound",
    "verify_homog_bound",
    "measure_eps_ua",
    "quasiconcavify",
    "verify_quasiconcave_bound",
]

SCALE_GUARD = 1e12  # stop doubling before 2^n x leaves the well-conditioned range
EPS = float(np.finfo(float).eps)
# Rounding floor of the dyadic defect series, in units of eps * max(1, max x,
# max y). Each term is three certainty equivalents at scale 2^i rescaled by
# 2^-i, so a few ulps of rounding in each (the state sums, the transform and
# its inverse) leave a flat tail near eps * max(x, y): 0.8 eps * max measured
# on the smooth model. 16 sits well above that and about 13 orders of
# magnitude below any real defect, such as the maxmin series' constant 0.2.
NOISE_KAPPA = 16.0
CHAIN_BLOCK = 4096  # chain rows per ce_batch call; caps the solves' peak memory
SCALE_BLOCK = 8  # first-round steps of the scaled limits; exact models stop at step 1
MAX_DOUBLINGS = 40  # doublings of the defect series and of the scaled limits
LIMIT_TOL = 1e-9  # Cauchy tolerance of the doubling limits behind the prior
HOMOG_ETA = 2.0  # scaling ratio of the homogeneous verifier's limits: they are dyadic
HOMOG_ALPHAS = (0.5, 3.0)  # multiples at which that verifier spot-checks homogeneity
ZERO_ACT_TOL = 1e-9  # the smooth defect at the zero act must be 1 within this
MEMBERSHIP_TOL = 1e-9  # relative tolerance of the level hulls' membership and decompositions
LAMBDAS = (0.25, 0.5, 0.75)  # mixture weights of every seeded pair probe
HOMOG_MAX_POINTS = 40  # nonzero grid acts the homogeneous verifier strides over
ADDITIVITY_TOL = 1e-6  # coordinate limits must sum to the sure act's limit within this


# ---------------------------------------------------------------------------
# every model evaluates rows: value_batch(X) over rows of lotteries or acts,
# and a meter reads one utility per grid row. Each row is computed alone, so
# its bits do not depend on the rest of the batch: row-wise products use
# np.vecdot (one dot per row, as np.dot(p, x)) and np.matvec (one
# matrix-vector product per row, as P @ x), and the rank-dependent model
# works column by column.

def _rows(X) -> np.ndarray:
    return np.ascontiguousarray(X, dtype=float).reshape(-1, np.shape(X)[-1])


def _grid_utility(u, grid: np.ndarray) -> np.ndarray:
    """u as a float array of one utility per grid row; InvalidModel when the counts differ."""
    u = np.asarray(u, dtype=float)
    if u.shape != (len(grid),):
        raise InvalidModel(f"utility array of shape {u.shape} for a grid of {len(grid)} points")
    return u


# ---------------------------------------------------------------------------
# uncertainty models: value_batch(X) over rows of acts in R^d_+, and
# ce_batch(X), the sure payoff with each row's value (ce_batch below
# handles constant rows before calling it)

def _validate_prior(prior: Sequence[float], what: str = "prior") -> tuple[float, ...]:
    p = _finite(prior, what)
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
class SubjectiveExpected:
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

    def ce_batch(self, X: np.ndarray) -> np.ndarray:
        return self.value_batch(X)


@dataclass(frozen=True)
class MaxminExpected:
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

    def ce_batch(self, X: np.ndarray) -> np.ndarray:
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


# transform name -> (f, its certainty-equivalent inverse, the closed-form defect
# h(z) = |f(z) - z| that smooth_ambiguity_bound checks)
_SMOOTH_FS: dict[str, tuple[Callable, Callable, Callable]] = {
    "sqrt1pz2": (_f_sqrt1pz2, _ce_sqrt1pz2, lambda z: _f_sqrt1pz2(z) - z),
    "z_minus_exp": (_f_z_minus_exp, _ce_z_minus_exp, lambda z: np.exp(-z)),
}


@dataclass(frozen=True)
class SmoothAmbiguity:
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

    def ce_batch(self, X: np.ndarray) -> np.ndarray:
        return _SMOOTH_FS[self.f_name][1](np.matvec(self._prior_matrix, _rows(X)),
                                          self._weight_vector)


@dataclass(frozen=True)
class CESUtility:
    """Homogeneous-of-degree-one aggregator (sum_i w_i x_i^rho)^(1/rho)."""

    weights: tuple[float, ...]
    rho: float

    def __post_init__(self):
        w = _finite(self.weights, "weights")
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

    def ce_batch(self, X: np.ndarray) -> np.ndarray:
        return self.value_batch(X) / self.unit_level


@dataclass(frozen=True)
class LinearPlusBounded:
    """Linear value plus a bounded saturating bump: prior.x + bump(1 - e^{-sum x}).

    The bump is bounded by `bump`, so scaling deviations are capped and the
    homogeneous-limit series sums geometrically. The certainty equivalent
    has no closed form; ce_batch solves it by monotone Newton steps.
    """

    prior: tuple[float, ...]
    bump: float

    def __post_init__(self):
        object.__setattr__(self, "prior", _validate_prior(self.prior))
        if not 0.0 <= self.bump < math.inf:
            raise InvalidModel(f"bump must be finite and nonnegative, got {self.bump!r}")

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
        # -expm1(-total) keeps the bump's relative precision as total shrinks, where
        # 1 - e^{-total} cancels (and rounds to 0 below about 1e-16)
        return np.vecdot(X, self._prior_vector) + self.bump * -np.expm1(-total)

    def ce_batch(self, X: np.ndarray) -> np.ndarray:
        """Lockstep Newton on g(c) = value(c * ones) - value(x), rising from below.

        g is concave and increasing, g'(c) = s + bump d e^{-dc} with s the
        prior's sum and d the state count, and its root lies within bump / s
        above (value(x) - bump) / s. Started there, clipped into [min x, max x],
        g(c0) <= 0, so the iterates rise to the root without overshooting.
        Each step is clamped into [c, max x]; a row stops once its step is at
        most BISECT_TOL / 4 or it no longer rises, and a row still moving
        after MAX_BISECT_STEPS rounds raises NotConverged. A row's iterates
        depend on that row alone, whatever else is in the batch.
        """
        X = _rows(X)
        d = X.shape[1]
        s = float(np.sum(self._prior_vector))
        target, hi = self.value_batch(X), np.max(X, axis=1)
        c = np.clip((target - self.bump) / s, np.min(X, axis=1), hi)
        act = np.arange(len(c))
        for _ in range(MAX_BISECT_STEPS):
            ca = c[act]
            g = self.value_batch(ca[:, None].repeat(d, axis=1)) - target[act]
            step = g / (s + self.bump * d * np.exp(-d * ca))
            new = np.minimum(np.maximum(ca - step, ca), hi[act])
            c[act] = new
            act = act[new - ca > 0.25 * BISECT_TOL]
            if not len(act):
                return c
        k = int(act[0])
        raise NotConverged(f"row {k}: Newton iterate {c[k]!r} still rising after "
                           f"{MAX_BISECT_STEPS} rounds", [float(c[k])])


# ---------------------------------------------------------------------------
# the act grid

def _box_grid(dim: int, resolution: int, bound: float) -> np.ndarray:
    """The product grid of linspace(0, bound, resolution) over dim axes, last axis fastest.

    Grids above MAX_GRID_POINTS are refused before anything is allocated.
    """
    _check_grid_cap("box", dim, resolution)
    axis = np.linspace(0.0, bound, resolution)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class BoxSampler:
    """Deterministic act sample on [0, bound]^d plus seeded pairs; defaults as in a scenario."""

    n_states: int
    bound: float = 10.0
    resolution: int = 11
    seed: int = 0
    n_random_pairs: int = 100

    @cached_property
    def _points(self) -> np.ndarray:
        X = _box_grid(self.n_states, self.resolution, self.bound)
        X.flags.writeable = False
        return X

    def points(self) -> np.ndarray:
        """The grid acts as read-only rows, built once per sampler."""
        return self._points

    @cached_property
    def _pairs(self) -> np.ndarray:
        P = np.array(_index_pairs(self.seed, len(self._points), self.n_random_pairs),
                     dtype=int).reshape(-1, 2)
        P.flags.writeable = False
        return P

    def pairs(self) -> np.ndarray:
        """The seeded grid index pairs as read-only (i, j) rows, drawn once per sampler."""
        return self._pairs


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _index_pairs(seed: int, n: int, count: int) -> list[tuple[int, int]]:
    """The first `count` draws of np.random.default_rng(seed).integers(0, n, size=2).

    The act samplers only ever draw index pairs, and importing numpy.random
    costs about 5 MB of resident memory, more than a whole batched run
    allocates. This reproduces numpy's generator bit for bit instead:
    SeedSequence(seed) mixing, PCG64 (128-bit LCG, XSL-RR output, 32-bit
    halves buffered) and Lemire's bounded 32-bit draws. n must be below 2^32.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if count and not 0 < n <= _M32:
        raise InvalidModel(f"cannot draw indices below {n!r}")
    words = [(seed >> (32 * k)) & _M32 for k in range(max(1, -(-seed.bit_length() // 32)))]
    # SeedSequence's hash constants: INIT_A, MULT_A, MIX_MULT_L/R, then INIT_B, MULT_B
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))
    hash_const = 0x8B51F9DD
    state_words = []
    for i in range(8):
        v = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _M32
        v = (v * hash_const) & _M32
        state_words.append(v ^ (v >> 16))
    val = [state_words[2 * k] | (state_words[2 * k + 1] << 32) for k in range(4)]
    inc = (((val[2] << 64) | val[3]) << 1 | 1) & _M128
    # seeding: state = 0, step, add the initial state, step
    state = ((inc + ((val[0] << 64) | val[1])) * _PCG_MULT + inc) & _M128
    half = None

    def next32() -> int:
        nonlocal state, half
        if half is not None:
            out, half = half, None
            return out
        state = (state * _PCG_MULT + inc) & _M128
        x, r = ((state >> 64) ^ state) & _M64, state >> 122
        x = ((x >> r) | (x << (-r & 63))) & _M64
        half = x >> 32
        return x & _M32

    def below_n() -> int:
        if n == 1:
            return 0
        m = next32() * n
        if (m & _M32) < n:
            threshold = (_M32 - n + 1) % n
            while (m & _M32) < threshold:
                m = next32() * n
        return m >> 32

    return [(below_n(), below_n()) for _ in range(count)]


def _pair_mixtures(pts: np.ndarray,
                   pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs of pts mixed at each LAMBDAS weight: (ends, lams, mixtures), a row per mixture.

    Row k is lams[k] pts[ends[k, 0]] + (1 - lams[k]) pts[ends[k, 1]]; the rows
    run pair by pair in order, each pair's weights in order.
    """
    ends = np.repeat(pairs, len(LAMBDAS), axis=0)
    lams = np.tile(np.asarray(LAMBDAS, dtype=float), len(pairs))
    return ends, lams, lams[:, None] * pts[ends[:, 0]] + (1.0 - lams[:, None]) * pts[ends[:, 1]]


def _as_acts(model, X) -> np.ndarray:
    """X as a contiguous float array with one checked act per row."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_states:
        raise InvalidModel(f"act array shape {X.shape} does not match {model.n_states} states")
    if np.any(X < 0.0) or not np.all(np.isfinite(X)):
        raise InvalidModel("acts must have finite nonnegative payoffs")
    return X


def _as_act(model, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.n_states:
        raise InvalidModel(f"act shape {x.shape} does not match {model.n_states} states")
    return _as_acts(model, x[None, :])[0]


def ce_batch(model, X) -> np.ndarray:
    """Certainty equivalents of the rows of X: each c with model(c * ones) = model(x).

    X has one act per row. Constant rows return their level exactly, so
    u(c * ones) = c holds with no rounding for every model. The other rows
    go to the model's own ce_batch(X) in one call: a closed form where
    the model admits one, monotone Newton steps for linear-plus-bounded.
    Every row gets exactly what a one-row call would give.
    """
    return _ce_rows(model, _as_acts(model, X))


def _ce_rows(model, X: np.ndarray) -> np.ndarray:
    """ce_batch of rows known to be acts, such as exact 2^n multiples of checked ones."""
    out = X[:, 0].copy()
    varying = np.flatnonzero(np.any(X != X[:, :1], axis=1))
    if len(varying):
        out[varying] = model.ce_batch(X[varying])
    return out


def _scale_caps(tops: np.ndarray, n_max: int) -> np.ndarray:
    """Doublings n <= n_max with 2^n * top inside SCALE_GUARD, per top (each max(1, max x)).

    floor(log2 q) is frexp's exponent of q minus one; math.log decides near a power of two.
    """
    q = SCALE_GUARD / tops
    m, e = np.frexp(q)
    caps, near = e.astype(int) - 1, np.abs(m - 0.75) > 0.25 - 1e-9
    if near.any():
        for k in np.flatnonzero(near).tolist():
            caps[k] = math.floor(math.log(q[k], 2.0))
    return np.maximum(np.minimum(caps, n_max), 0)


class _Chains:
    """ce(2^n a) of acts a for steps n = 0 .. hi per act, each distinct row solved once.

    An act is 2^shift * unit, unit's top payoff in [1/2, 1), when that round
    trip is exact (else it is its own unit). 2^n scaling is exact, so acts
    with one unit (x, 2x, x / 2) share its chain of rows bit for bit, and a
    row-independent ce_batch gives each what solving it alone gives.
    ce(2^n acts[k]) is values[start[k] + n] once solve() has reached step n.
    """

    def __init__(self, model, acts: np.ndarray, hi: np.ndarray):
        self.model = model
        shift = np.frexp(reduce(np.maximum, acts.T))[1].astype(int)  # of row maxima, by columns
        unit = np.ldexp(acts, -shift[:, None])
        lost = np.ldexp(unit, shift[:, None]) != acts
        if lost.any():  # an act whose round trip is not exact keeps its own chain
            lossy = lost.any(axis=1)
            unit, shift = np.where(lossy[:, None], acts, unit), np.where(lossy, 0, shift)
        rows = unit.view(np.dtype((np.void, unit.itemsize * unit.shape[1]))).ravel()
        self.order = rows.argsort()  # equal units side by side
        rows, head = rows[self.order], np.empty(len(rows), dtype=bool)
        head[:1], head[1:] = True, rows[1:] != rows[:-1]
        chain = np.empty(len(rows), dtype=int)
        chain[self.order] = np.cumsum(head, dtype=int) - 1
        self.heads = np.flatnonzero(head)
        self.units = unit[self.order[self.heads]]
        kmin = np.minimum.reduceat(shift[self.order], self.heads)
        size = np.maximum.reduceat((shift + hi)[self.order], self.heads) - kmin + 1
        self.solved = np.cumsum(size) - size  # each chain's next row in values
        self.origin = self.solved - kmin  # where each chain's 2^0 unit would sit
        self.start = self.origin[chain] + shift
        self.values = np.zeros(int(np.sum(size)))

    def solve(self, upto: np.ndarray) -> None:
        """Solve each chain through step upto[k] of every act k, CHAIN_BLOCK rows per call."""
        need = np.maximum(self.solved,
                          np.maximum.reduceat((self.start + upto + 1)[self.order], self.heads))
        count = need - self.solved
        owner = np.repeat(np.arange(len(count)), count)
        index = np.arange(len(owner)) + np.repeat(self.solved - np.cumsum(count) + count, count)
        for s in range(0, len(owner), CHAIN_BLOCK):
            i, u = index[s:s + CHAIN_BLOCK], owner[s:s + CHAIN_BLOCK]
            rows = np.ldexp(self.units[u], (i - self.origin[u])[:, None])
            self.values[i] = _ce_rows(self.model, rows)
        self.solved = need


def _phi_series(model, xs: np.ndarray, ys: np.ndarray,
                n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sums, lengths, converged) of the dyadic series of each pair (xs[k], ys[k]).

    The x, y and midpoint chains share one _Chains ((2^i x + 2^i y) / 2 is
    2^i (x + y) / 2 bit for bit); _tail_sums judges the terms at the floor
    16 eps * max(1, max x, max y).
    """
    p = len(xs)
    acts = _as_acts(model, np.concatenate([xs, ys]))
    top = reduce(np.maximum, acts.T)  # row maxima, a column at a time
    tops = np.maximum(np.maximum(top[:p], top[p:]), 1.0)
    caps = _scale_caps(tops, n_max)
    hi = np.concatenate([caps, caps, caps])
    chains = _Chains(model, np.concatenate([acts, 0.5 * (acts[:p] + acts[p:])]), hi)
    chains.solve(hi)
    n = np.arange(int(caps.max(initial=0)) + 1)
    steps = np.minimum(n, caps[:, None])
    cx, cy, cm = chains.values[chains.start.reshape(3, p, 1) + steps]
    terms = np.where(n <= caps[:, None], np.ldexp(1.0, -steps) * np.abs(cm - 0.5 * (cx + cy)),
                     0.0)
    return _tail_sums(terms, caps, NOISE_KAPPA * EPS * tops)


def _tail_sums(terms: np.ndarray, caps: np.ndarray,
               floor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """core.dyadic_tail_sum of each row terms[k, :caps[k] + 1] at floor[k], all rows at once.

    Entries past a row's last term are 0. Returns (sums, lengths, converged):
    sums[k] holds the partial sums, added in order, then the total.
    """
    bad = (terms < 0.0) | ~np.isfinite(terms)
    if bad.any():
        k, i = divmod(int(bad.argmax()), bad.shape[1])
        raise InvalidModel(f"term({i}) = {terms[k, i].item()!r}; "
                           "terms must be nonnegative and finite")
    a, b, floor = terms[:, :-1], terms[:, 1:], floor[:, None]
    j = np.arange(1, terms.shape[1])  # b's step: the last TAIL_WINDOW ratios of each row
    last = (j <= caps[:, None]) & (j > caps[:, None] - TAIL_WINDOW)
    broken = last & (b > floor) & ((a <= floor) | (b > RATIO_TOL * a))
    return terms.cumsum(axis=1), caps + 1, ~broken.any(axis=1)


def dyadic_phi_series(model, x, y, n_max: int = MAX_DOUBLINGS) -> tuple[list[float], bool]:
    """Partial sums of sum_i 2^{-i} phi(2^i x, 2^i y) with a decay verdict.

    Doubling stops at n_max or once the scaled acts would exceed the 1e12
    coordinate guard, whichever comes first. Terms below a rounding floor of
    16 eps * max(1, max x, max y) count as converged.
    """
    sums, lengths, converged = _phi_series(model, _as_act(model, x)[None, :],
                                           _as_act(model, y)[None, :], n_max)
    return sums[0, :lengths[0]].tolist(), bool(converged[0])


def theta_estimate(model, sampler: BoxSampler) -> tuple[ViolationReport, bool]:
    """Worst dyadic defect series over anchored and random act pairs.

    The pair set always contains (x, 0) and (2x, 0) for every sampled x: the
    per-point gap |u(x) - v(x)| is controlled by the phi(., 0) chain along
    the doubled arguments, so dropping the anchors could understate the
    series the closeness theorem actually consumes. Seeded random grid pairs
    widen the sample. Returns the report and the all-pairs convergence flag.
    """
    base = sampler.points()
    nonzero = base[np.any(base, axis=1)]
    pairs = sampler.pairs()
    # (x, 0) and (2x, 0) for each nonzero x in grid order, then the seeded pairs
    xs = np.concatenate([np.stack([nonzero, 2.0 * nonzero], axis=1).reshape(-1, model.n_states),
                         base[pairs[:, 0]]])
    ys = np.concatenate([np.zeros((2 * len(nonzero), model.n_states)), base[pairs[:, 1]]])
    keep = np.any(xs, axis=1) | np.any(ys, axis=1)
    xs, ys = xs[keep], ys[keep]
    sums, lengths, converged = _phi_series(model, xs, ys, MAX_DOUBLINGS)
    all_converged = bool(np.all(converged))
    k = int(np.argmax(sums[:, -1])) if len(sums) else None
    report = ViolationReport(
        axiom="midpoint-additivity-series",
        value=0.0 if k is None else max(sums[k, -1].item(), 0.0),
        witness={} if k is None else {"x": tuple(xs[k]), "y": tuple(ys[k])},
        samples_evaluated=len(xs),
        details={"converged": all_converged, "n_max": MAX_DOUBLINGS,
                 "ratio_tol": RATIO_TOL,
                 "partial_sums": [] if k is None else sums[k, :lengths[k]].tolist(),
                 "resolution": sampler.resolution, "seed": sampler.seed},
    )
    return report, all_converged


def _scaled_limits(model, X) -> tuple[np.ndarray, ...]:
    """(iterates, stop, caps) of lim 2^{-n} u(2^n x) for every row of X, stepped together.

    Step 0 is u(x); x / 2 shares x's chain one step down. A row stops at its
    first step whose increment is below LIMIT_TOL * 2^{-n} (or a 1e-15
    relative floor); the zero act at step 0; stop is -1 where its cap
    (MAX_DOUBLINGS or the coordinate guard) came first. The first round
    solves SCALE_BLOCK steps, the second the rest of each row still running.
    """
    X = _as_acts(model, X)
    caps = _scale_caps(np.maximum(reduce(np.maximum, X.T), 1.0), MAX_DOUBLINGS)
    chains = _Chains(model, X, caps)
    n = np.arange(int(caps.max(initial=1)) + 1)
    read = chains.start[:, None] + np.minimum(n, caps[:, None])
    step_tol, zero = np.ldexp(LIMIT_TOL, -n[1:]), ~X.any(axis=1)
    upto = np.minimum(caps, SCALE_BLOCK)
    while True:
        chains.solve(upto)
        its = np.ldexp(chains.values[read], -n)
        inc = np.abs(its[:, 1:] - its[:, :-1])
        settled = (((inc <= step_tol) | (inc <= 1e-15 * np.maximum(1.0, np.abs(its[:, 1:]))))
                   & (n[1:] <= upto[:, None]))
        stop = np.where(settled.any(axis=1), settled.argmax(axis=1) + 1, -1)
        stop[zero] = 0
        running = (stop < 0) & (upto < caps)
        if not running.any():
            return its, stop, caps
        upto = np.where(running, caps, upto)


def _limit_theta(its: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Each row's scaled defect series theta, which bounds |u(x) - value|.

    The exact sum of the increments through stop, plus the geometric tail
    that the last two of them project when they shrink.
    """
    inc = np.where(np.arange(1, its.shape[1]) <= stop[:, None], np.abs(np.diff(its)), 0.0)
    last, prev = (inc[np.arange(len(inc)), np.maximum(stop - j, 0)] for j in (1, 2))
    ratio = np.divide(last, prev, out=np.ones(len(inc)), where=(stop >= 2) & (prev > 0.0))
    return np.array(list(map(math.fsum, inc.tolist()))) + np.divide(
        last * ratio, 1.0 - ratio, out=np.zeros(len(inc)), where=ratio < 1.0)


def _not_cauchy(what: str, iterates: np.ndarray, cap: int) -> NotConverged:
    it = iterates[:cap + 1].tolist()
    last = abs(it[-1] - it[-2]) if len(it) > 1 else 0.0
    return NotConverged(f"{what} iterates not Cauchy within n={cap} (last increment {last!r})", it)


@dataclass(frozen=True)
class LinearBenchmark:
    """Linear functional x -> prior . x recovered from doubling limits."""

    prior: tuple[float, ...]

    def evaluate_batch(self, X) -> np.ndarray:
        return np.vecdot(_rows(X), np.asarray(self.prior, dtype=float))


def extract_prior(model) -> LinearBenchmark:
    """Coordinate limits p_i = v(e_i) assembled into a linear benchmark.

    Raises NotAdditive when sum_i p_i disagrees with v(ones) beyond
    ADDITIVITY_TOL; for worst-case models the coordinate limits undershoot
    the sure act (e.g. lower envelopes give sum min_k prior_k[i] < 1).
    """
    d = model.n_states
    rows = np.eye(d + 1, d)
    rows[d] = 1.0  # e_1 .. e_d, then the sure act
    its, stop, caps = _scaled_limits(model, rows)
    if np.any(stop < 0):
        k = int(np.argmax(stop < 0))
        raise _not_cauchy("doubling", its[k], caps[k])
    *p, v_ones = its[np.arange(d + 1), stop].tolist()
    total = math.fsum(p)
    if abs(total - v_ones) > ADDITIVITY_TOL:
        raise NotAdditive(
            f"coordinate limits sum to {total!r} but the sure act has value {v_ones!r}",
            witness={"coordinate_sum": total, "sure_value": v_ones, "prior": tuple(p)})
    return LinearBenchmark(prior=tuple(p))


def verify_aa_bound(u, benchmark: LinearBenchmark, theta_hat: float, pts: np.ndarray,
                    converged: bool = True) -> NearRepresentation:
    """Check sup |u(x) - prior . x| <= Theta-hat + VERIFY_TOL over the acts pts.

    u is the certainty equivalent of each act, as ce_batch returns it.
    Raises HypothesisFailed when the series was classified divergent: the
    closeness theorem does not apply and the gap can be unbounded. The gaps
    of all acts are formed at once; the first violating act is reported.
    """
    if not converged:
        raise HypothesisFailed(
            "dyadic defect series classified divergent; closeness bound not applicable")
    gaps = np.abs(_grid_utility(u, pts) - benchmark.evaluate_batch(pts))
    over = np.flatnonzero(gaps > theta_hat + VERIFY_TOL)
    if len(over):
        k = int(over[0])
        gap = float(gaps[k])
        raise BoundViolated(
            f"|u - prior.x| = {gap!r} exceeds bound + tol = {theta_hat + VERIFY_TOL!r}",
            witness={"x": tuple(pts[k]), "gap": gap, "bound": theta_hat})
    worst = float(np.max(gaps, initial=0.0))
    return NearRepresentation(
        kind="linear",
        parameters={"prior": benchmark.prior},
        achieved_distance=worst,
        bound=theta_hat,
        details={"form": "theta", "tol": VERIFY_TOL, "n_points": len(pts),
                 "argmax": tuple(pts[int(np.argmax(gaps))]) if worst > 0.0 else None},
    )


def smooth_ambiguity_bound(model: SmoothAmbiguity,
                           sampler: BoxSampler) -> tuple[NearRepresentation, tuple[list, list]]:
    """Closed-form audit of the raw smooth functional against its mean prior.

    The raw integral functional differs from x -> mean_prior . x by exactly
    the integral of h(prior . x), h(z) = sqrt(1 + z^2) - z or e^{-z}; both
    transforms keep that defect in (0, 1] with the maximum 1 attained only
    at x = 0. Returns the representation (bound 1.0) and a table of grid
    rows (x, raw value, linear value, defect, closed-form defect).
    """
    if not isinstance(model, SmoothAmbiguity):
        raise InvalidModel("smooth_ambiguity_bound needs a SmoothAmbiguity model")
    pts = sampler.points()
    w = model._weight_vector
    Z = pts @ model._prior_matrix.T
    raw = model.f(Z) @ w
    linear = pts @ np.asarray(model.mean_prior)
    defects = np.abs(raw - linear)
    formula = _SMOOTH_FS[model.f_name][2](Z) @ w
    identity_gap = float(np.max(np.abs(defects - formula)))
    i_max = int(np.argmax(defects))
    sup = float(defects[i_max])
    if sup > 1.0 + STRICTNESS_MARGIN:
        raise BoundViolated(
            f"raw defect {sup!r} exceeds the uniform cap 1",
            witness={"x": tuple(pts[i_max]), "defect": sup})
    zero_rows = np.where(~pts.any(axis=1))[0]
    defect_at_zero = float(defects[zero_rows[0]]) if len(zero_rows) else None
    if defect_at_zero is not None and abs(defect_at_zero - 1.0) > ZERO_ACT_TOL:
        raise BoundViolated(
            f"defect at the zero act is {defect_at_zero!r}, expected exactly 1",
            witness={"x": tuple(pts[zero_rows[0]]), "defect": defect_at_zero})
    rep = NearRepresentation(
        kind="linear",
        parameters={"prior": model.mean_prior},
        achieved_distance=sup,
        bound=1.0,
        details={"f_name": model.f_name, "identity_gap": identity_gap,
                 "defect_at_zero": defect_at_zero,
                 "argmax": tuple(pts[i_max]), "n_points": len(pts)},
    )
    header = [f"x{i}" for i in range(model.n_states)] + \
        ["raw_value", "linear_value", "defect", "closed_form_defect"]
    return rep, (header, np.column_stack([pts, raw, linear, defects, formula]))


# ---------------------------------------------------------------------------
# homogeneous benchmark

def verify_homog_bound(model, sampler: BoxSampler) -> NearRepresentation:
    """Check |u(x) - v(x)| <= 2 Theta-hat and degree-one homogeneity of v.

    u is the certainty equivalent and v its limit lim 2^{-n} u(2^n x).
    Theta-hat is the largest per-point scaling-defect series over a stride
    of at most HOMOG_MAX_POINTS nonzero acts; the limits scale by
    HOMOG_ETA, and their homogeneity is spot-checked at the HOMOG_ALPHAS
    multiples (defect at most VERIFY_TOL). Raises BoundViolated on either failure.
    """
    grid = sampler.points()
    idx = np.flatnonzero(np.any(grid, axis=1))
    if len(idx) > HOMOG_MAX_POINTS:
        idx = idx[::max(len(idx) // HOMOG_MAX_POINTS, 1)][:HOMOG_MAX_POINTS]
    pts = grid[idx]
    # every point and every alpha multiple in one solve, then the checks as
    # arrays; the first failure in per-point check order is raised
    alphas = np.asarray(HOMOG_ALPHAS)
    n, m = len(pts), len(HOMOG_ALPHAS)
    multiples = (alphas[:, None] * pts[:, None, :]).reshape(-1, model.n_states)
    its, stop, caps = _scaled_limits(model, np.concatenate([pts, multiples]))
    value = np.where(stop >= 0, its[np.arange(len(its)), stop], np.nan)
    theta = _limit_theta(its[:n], stop[:n])
    gap = np.abs(its[:n, 0] - value[:n])  # iterates[0] is u(x)
    defect = np.abs(value[n:].reshape(n, m) - alphas * value[:n, None])
    # per point: its limit settles, its gap, then per alpha: that limit settles, its defect
    failed = np.column_stack([stop[:n] < 0, gap > 2.0 * theta + VERIFY_TOL, np.stack(
        [stop[n:].reshape(n, m) < 0, defect > VERIFY_TOL], axis=2).reshape(n, 2 * m)])
    if np.any(failed):
        k, check = divmod(int(np.argmax(failed)), failed.shape[1])
        j = (check - 2) // 2
        if check == 1:
            g, t = gap[k].item(), theta[k].item()
            raise BoundViolated(f"|u - v| = {g!r} exceeds 2 Theta + tol = "
                                f"{2.0 * t + VERIFY_TOL!r}",
                                witness={"x": tuple(pts[k]), "gap": g, "theta": t})
        if check % 2 == 0:
            row = k if check == 0 else n + k * m + j
            raise _not_cauchy("scaling", its[row], caps[row])
        d = defect[k, j].item()
        raise BoundViolated(
            f"limit is not homogeneous: |v(a x) - a v(x)| = {d!r} at a={HOMOG_ALPHAS[j]!r}",
            witness={"x": tuple(pts[k]), "alpha": HOMOG_ALPHAS[j], "defect": d})
    worst = float(np.max(gap, initial=0.0))
    theta_max = float(np.max(theta, initial=0.0))
    return NearRepresentation(
        kind="homogeneous",
        parameters={"eta": HOMOG_ETA},
        achieved_distance=worst,
        bound=2.0 * theta_max,
        details={"theta_homog": theta_max, "tol": VERIFY_TOL, "alphas": HOMOG_ALPHAS,
                 "homogeneity_defect": float(np.max(defect, initial=0.0)), "n_points": n,
                 "argmax": tuple(pts[int(np.argmax(gap))]) if worst > 0.0 else None},
    )


# ---------------------------------------------------------------------------
# quasi-concave envelope

def measure_eps_ua(model, sampler: BoxSampler,
                   extra_probes: Sequence[tuple[np.ndarray, np.ndarray]] = ()) -> ViolationReport:
    """Worst sampled uncertainty-aversion defect, plus 1e-12.

    The defect of a pair (x, y) at weight lam is
    max(0, min(u(x), u(y)) - u(lam x + (1 - lam) y)): how far the mixture
    falls below the worse endpoint, u the certainty equivalent. The seeded
    pairs of sampler.points() come first. extra_probes supplies hull
    decompositions (points, weights); each is expanded into the sequential
    pairwise mixtures that rebuild it, so the envelope verifier's own
    combinations are covered by the sample. Every endpoint and mixture is
    solved in one call.
    """
    extra_probes = list(extra_probes)
    pts = sampler.points()
    ends, lams, mixtures = _pair_mixtures(pts, sampler.pairs())
    steps = []  # (x, y, lam, mixture) of every decomposition step, in chain order
    for support, weights in extra_probes:
        support = np.asarray(support, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if len(support) < 2:
            continue
        running = support[0]
        acc = weights[0]
        for k in range(1, len(support)):
            total = acc + weights[k]
            if total <= 0.0:
                break
            lam = acc / total
            steps.append((running, support[k], lam, lam * running + (1.0 - lam) * support[k]))
            running = steps[-1][3]
            acc = total
    c = len(steps)
    cx, cy, cm = (np.array([step[i] for step in steps]).reshape(c, model.n_states)
                  for i in (0, 1, 3))
    X, Y = np.concatenate([pts[ends[:, 0]], cx]), np.concatenate([pts[ends[:, 1]], cy])
    M = np.concatenate([mixtures, cm])
    lams = np.concatenate([lams, [step[2] for step in steps]])
    ux, uy, um = ce_batch(model, np.concatenate([X, Y, M])).reshape(3, len(M))
    viol = np.maximum(0.0, np.minimum(ux, uy) - um)
    k = int(np.argmax(viol)) if len(viol) else None
    witness = {} if k is None else {"x": tuple(X[k]), "y": tuple(Y[k]),
                                    "lam": float(lams[k]), "mixture": tuple(M[k])}
    value = float(np.max(viol, initial=0.0)) + STRICTNESS_MARGIN
    return ViolationReport(
        axiom="uncertainty-aversion",
        value=value,
        witness=witness,
        samples_evaluated=len(M),
        details={"margin": STRICTNESS_MARGIN, "n_extra_probes": len(extra_probes),
                 "lambdas": LAMBDAS, "seed": sampler.seed},
    )


@dataclass(frozen=True, eq=False)
class LevelHull:
    """Convex hull of one level cloud, stored as half-spaces in an affine frame.

    verts holds the points convex decompositions are taken on: Qhull's hull
    vertices for a full-dimensional cloud, the interval's two ends in one
    dimension, the whole cloud when it is flat. The frame (origin,
    orthonormal basis rows) spans the cloud: the identity for a
    full-dimensional cloud, a lower-dimensional one for a flat cloud (one
    point, a segment, a planar set in 3-D). Inside the frame the hull is
    A y + b <= 0 with unit normals, so each row is a signed distance: Qhull's
    facets, an interval, or nothing at all for a single point.
    """

    verts: np.ndarray
    origin: np.ndarray
    basis: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def contains(self, X: np.ndarray, tol: float) -> np.ndarray:
        """Row mask of X inside the hull, up to tol * (1 + |(x, 1)|)."""
        thr = tol * (1.0 + np.sqrt(np.einsum("ij,ij->i", X, X) + 1.0))
        rel = X - self.origin
        coords = rel @ self.basis.T
        off = rel - coords @ self.basis
        near = np.sqrt(np.einsum("ij,ij->i", off, off)) <= thr
        return near & (coords @ self.A.T + self.b <= thr[:, None]).all(axis=1)

    def decompose(self, X: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Convex weights on verts rebuilding each row of X: (ok, support, weights).

        support[i] indexes at most frame-dim + 1 rows of verts, in ascending
        order, and weights[i] holds their barycentric weights. In a frame of
        two or more dimensions the verts are triangulated (Qhull's Delaunay)
        and each row takes the simplex find_simplex gives it; a segment
        splits a row between its two ends; a single point takes all the
        weight. A row found in no simplex (barycentric tolerance tol) is not
        ok, and neither is one whose weights, substituted back, miss (x, 1)
        by more than tol * (1 + |(x, 1)|). Weights at or below 1e-10 are then
        set to zero and an ok row's weights renormalised to sum to one.
        """
        coords = (X - self.origin) @ self.basis.T
        vcoords = (self.verts - self.origin) @ self.basis.T
        k = len(self.basis)
        if k == 0:
            support = np.zeros((len(X), 1), dtype=int)
            weights = np.ones((len(X), 1))
            found = np.ones(len(X), dtype=bool)
        elif k == 1:
            ends = np.sort([np.argmin(vcoords[:, 0]), np.argmax(vcoords[:, 0])])
            c0, c1 = vcoords[ends, 0]
            t = (coords[:, 0] - c0) / (c1 - c0)
            support = np.broadcast_to(ends, (len(X), 2))
            weights = np.column_stack([1.0 - t, t])
            found = (weights >= -tol).all(axis=1)
        else:
            from scipy.spatial import Delaunay

            tri = Delaunay(vcoords)
            simplex = tri.find_simplex(coords, tol=tol)
            found = simplex >= 0
            s = np.where(found, simplex, 0)
            T = tri.transform[s]
            bary = np.einsum("ijk,ik->ij", T[:, :k], coords - T[:, k])
            # ascending vertex order, so the meter peels each decomposition in verts order
            order = np.argsort(tri.simplices[s], axis=1)
            support = np.take_along_axis(tri.simplices[s], order, axis=1)
            weights = np.take_along_axis(np.column_stack([bary, 1.0 - bary.sum(axis=1)]),
                                         order, axis=1)
        rebuilt = np.einsum("ij,ijk->ik", weights, self.verts[support])
        miss = rebuilt - X
        residual = np.sqrt(np.einsum("ij,ij->i", miss, miss) + (weights.sum(axis=1) - 1.0) ** 2)
        scale = 1.0 + np.sqrt(np.einsum("ij,ij->i", X, X) + 1.0)
        ok = found & (residual <= tol * scale)
        weights = np.where(weights > 1e-10, weights, 0.0)
        weights[ok] /= weights[ok].sum(axis=1, keepdims=True)
        return ok, support, weights


def _membership(hulls: Sequence[LevelHull], X: np.ndarray, tol: float) -> np.ndarray:
    """levels x rows boolean matrix: row j of X inside hull i."""
    return np.stack([h.contains(X, tol) for h in hulls])


def _affine_frame(cloud: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Origin and orthonormal basis rows of the cloud's affine span (Gram-Schmidt)."""
    origin = cloud[0]
    rel = cloud - origin
    floor = tol * (1.0 + float(np.max(np.abs(cloud))))
    basis = []
    for _ in range(cloud.shape[1]):
        norms = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        i = int(np.argmax(norms))
        if norms[i] <= floor:
            break
        e = rel[i] / norms[i]
        basis.append(e)
        rel = rel - np.outer(rel @ e, e)
    return origin, np.array(basis).reshape(len(basis), cloud.shape[1])


def _level_hull(cloud: np.ndarray, tol: float) -> LevelHull:
    from scipy.spatial import ConvexHull, QhullError

    d = cloud.shape[1]
    if d > 1 and len(cloud) >= d + 1:
        try:
            hull = ConvexHull(cloud)
            eq = hull.equations
            return LevelHull(verts=cloud[hull.vertices], origin=np.zeros(d),
                             basis=np.eye(d), A=eq[:, :-1], b=eq[:, -1])
        except QhullError:
            pass  # flat cloud: handled in its own affine frame below
    if d == 1:
        verts = np.array([[float(np.min(cloud))], [float(np.max(cloud))]])
    else:
        verts = cloud
    origin, basis = _affine_frame(cloud, tol)
    coords = (cloud - origin) @ basis.T
    k = len(basis)
    if k == 0:
        A, b = np.zeros((0, 0)), np.zeros(0)
    elif k == 1:
        A = np.array([[1.0], [-1.0]])
        b = np.array([-float(np.max(coords)), float(np.min(coords))])
    else:
        eq = ConvexHull(coords).equations
        A, b = eq[:, :-1], eq[:, -1]
    return LevelHull(verts=verts, origin=origin, basis=basis, A=A, b=b)


def _bisect_levels(member: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Per column, bisect upward from lo on a levels x points membership matrix.

    The same steps as a scalar bisection run on each column: mid rounds up,
    a member mid raises lo, a non-member mid lowers hi.
    """
    hi = np.full_like(lo, member.shape[0] - 1)
    cols = np.arange(member.shape[1])
    active = lo < hi
    while active.any():
        mid = (lo + hi + 1) // 2
        ok = member[mid, cols]
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid - 1, hi)
        active = lo < hi
    return lo


@dataclass(frozen=True, eq=False)
class QuasiConcaveBenchmark:
    """Level-hull envelope v(x) = best hull level containing x, clamped to u.

    Grid points carry v = max(u(x), top feasible level); off-grid evaluation
    returns the top feasible level on the same nested hull family. Membership
    is a half-space test against each level's stored facets, run for a
    whole block of acts at once.
    """

    points: np.ndarray = field(repr=False)
    u_values: np.ndarray = field(repr=False)
    v_values: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)
    hulls: tuple[LevelHull, ...] = field(repr=False)
    box_bound: float
    resolution: int
    probes: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    @property
    def n_states(self) -> int:
        return self.points.shape[1]

    @property
    def level_spacing(self) -> float:
        if len(self.levels) < 2:
            return 0.0
        return float(self.levels[1] - self.levels[0])

    def evaluate_batch(self, X) -> np.ndarray:
        """Top feasible hull level for each row of X (acts in the box)."""
        X = np.asarray(X, dtype=float).reshape(-1, self.n_states)
        member = _membership(self.hulls, X, MEMBERSHIP_TOL)
        outside = np.flatnonzero(~member[0])
        if len(outside):
            raise InvalidModel(
                f"act {tuple(X[outside[0]])} lies outside the sampled hull family")
        return self.levels[_bisect_levels(member, np.zeros(len(X), dtype=int))]


def quasiconcavify(model, box_bound: float, resolution: int,
                   level_resolution: int) -> QuasiConcaveBenchmark:
    """Quasi-concave envelope from convex hulls of sampled upper level sets.

    Supported for up to 3 states (hull cost). For each level c on an even
    grid spanning the sampled utility range, the hull of {x : u(x) >= c} is
    precomputed as half-spaces; membership of every grid point in every
    hull is one boolean matrix. The envelope value of a grid point is the
    highest level whose hull still contains it (feasibility is monotone
    because the hulls are nested), clamped below by u(x) so v >= u holds
    exactly. Each grid point's convex decomposition at its final level, a
    simplex of that level hull's Delaunay triangulation, is returned as a
    probe for the uncertainty-aversion meter, in grid order; the points that
    share a final level are decomposed in one batched call.
    """
    d = model.n_states
    if d > 3:
        raise InvalidModel("quasi-concave envelope supported for at most 3 states")
    pts = _box_grid(d, resolution, box_bound)
    u = ce_batch(model, pts)
    lo, hi = float(np.min(u)), float(np.max(u))
    if hi <= lo:
        raise InvalidModel("utility is constant on the box; envelope is trivial")
    levels = np.linspace(lo, hi, level_resolution)
    hulls = tuple(_level_hull(pts[u >= c - 1e-12], MEMBERSHIP_TOL) for c in levels)
    member = _membership(hulls, pts, MEMBERSHIP_TOL)
    cols = np.arange(len(pts))
    start = np.clip(np.searchsorted(levels, u + 1e-12) - 1, 0, len(levels) - 1)
    # x is in its own level cloud; only rounding can make it step down
    down = ~member[start, cols] & (start > 0)
    while down.any():
        start = start - down
        down = ~member[start, cols] & (start > 0)
    top = _bisect_levels(member, start)
    v = np.maximum(levels[top], u)
    inside = np.flatnonzero(member[top, cols])
    found: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for level in np.unique(top[inside]):
        group = inside[top[inside] == level]
        hull = hulls[level]
        ok, support, weights = hull.decompose(pts[group], MEMBERSHIP_TOL)
        for j, good, idx, w in zip(group.tolist(), ok, support, weights):
            mask = w > 0.0
            if good and int(np.count_nonzero(mask)) >= 2:
                found[j] = (hull.verts[idx[mask]], w[mask])
    probes = [found[j] for j in sorted(found)]
    return QuasiConcaveBenchmark(
        points=pts, u_values=u, v_values=v, levels=levels, hulls=hulls,
        box_bound=box_bound, resolution=resolution, probes=tuple(probes),
    )


def verify_quasiconcave_bound(benchmark: QuasiConcaveBenchmark,
                              eps_ua: float) -> NearRepresentation:
    """Check v >= u, sup |v - u| <= d eps_ua + slack, and the nesting of the level hulls.

    slack is one level spacing plus 1e-9 (the envelope is resolved only to
    the level grid). The envelope is the level function of its hulls, so it
    is quasi-concave when they are nested: every vertex of level i's hull
    must lie in level i - 1's hull (LevelHull.contains at MEMBERSHIP_TOL).
    The first vertex outside, in level order, is raised.
    """
    spacing = benchmark.level_spacing
    slack = spacing + 1e-9
    u, v = benchmark.u_values, benchmark.v_values
    below = np.where(v < u)[0]
    if len(below):
        j = int(below[0])
        raise BoundViolated(
            f"envelope falls below the model at grid index {j}",
            witness={"x": tuple(benchmark.points[j]), "u": float(u[j]), "v": float(v[j])})
    gaps = v - u
    i_max = int(np.argmax(gaps))
    sup = float(gaps[i_max])
    bound = benchmark.n_states * eps_ua
    if sup > bound + slack:
        raise BoundViolated(
            f"sup |v - u| = {sup!r} exceeds d eps + slack = {bound + slack!r}",
            witness={"x": tuple(benchmark.points[i_max]), "gap": sup})
    hulls = benchmark.hulls
    for i in range(1, len(hulls)):
        verts = hulls[i].verts
        outside = np.flatnonzero(~hulls[i - 1].contains(verts, MEMBERSHIP_TOL))
        if len(outside):
            vertex = tuple(verts[outside[0]].tolist())
            raise BoundViolated(
                f"level hulls not nested: vertex {vertex} of level {i} lies outside "
                f"the hull of level {i - 1}", witness={"level": i, "vertex": vertex})
    return NearRepresentation(
        kind="quasiconcave",
        parameters={"box_bound": benchmark.box_bound,
                    "resolution": benchmark.resolution,
                    "levels": len(benchmark.levels)},
        achieved_distance=sup,
        bound=bound,
        details={"slack": slack, "level_spacing": spacing, "eps_ua": eps_ua,
                 "nesting_vertices": sum(len(h.verts) for h in hulls[1:]),
                 "argmax": tuple(benchmark.points[i_max])},
    )
