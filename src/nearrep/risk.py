"""Mixture-calibration meters and affine benchmarks for lottery models.

The calibrated utility of a lottery is the weight alpha that makes the
best-worst two-prize mixture indifferent to it; exact reduction of compound
lotteries makes that utility affine in the probabilities. The meters here
measure the worst sampled defect of that affinity (and of the independence
axiom), the builders construct the affine benchmark through the degenerate
lotteries, and the verifiers check the quantitative closeness bounds the
defects imply.

All utilities are in calibration units: u(best) = 1, u(worst) = 0. The lottery
models are defined here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import (BISECT_TOL, BOUND_SLACK, MAX_BISECT_STEPS, STRICTNESS_MARGIN, BoundViolated,
                   HypothesisFailed, InvalidModel, Lottery, NearRepresentation, NoBracket,
                   NotConverged, ViolationReport, bisect_monotone)
from .uncertainty import (EPS, _bracket_ends, _distinct_rows, _grid_utility, _RowModel, _rows,
                          bisect_monotone_batch, grid_sample)

__all__ = [
    "ExpectedUtility",
    "CumulativeProspect",
    "TabulatedUtility",
    "SimplexSampler",
    "AffineBenchmark",
    "mixture_utility_batch",
    "build_affine_benchmark",
    "measure_eps_rcl",
    "verify_thm1",
    "converse_check_4eps",
    "measure_eps_independence",
    "verify_thm2",
    "AllaisReport",
    "allais_report",
    "Figure1Data",
    "figure1_data",
]

DEGENERATE_TOL = 1e-12     # calibrated u must hit the benchmark exactly on vertices
SNAP_ULPS = 4  # ulps (of the larger end value) a value may round past a segment end and be it
# float64 entries per block of the independence meter's scans and probe
# rows (128 KB), so the few temporaries of one block stay near 1 MB
_BLOCK_ENTRIES = 1 << 14
# steps per direction that each round of the independence meter's outward
# scan evaluates; most restoring roots lie within the first round
_SCAN_WINDOW = 64
SCAN_STEP = 1e-3  # mixture-weight step of the independence meter's outward scan
# the power-value inverse-S weighting model fitted to the common-ratio
# gambles, which both worked examples (allais, figure1) evaluate
FITTED_VALUE_EXPONENT = 0.54
FITTED_WEIGHT_EXPONENT = 0.74
FIGURE1_CLAIM = 0.1  # the nominal reading of max |w(p) - p| for the fitted curve


# ---------------------------------------------------------------------------
# risk models: value_batch(P) over rows of probability vectors on a fixed
# prize set, and segment_value on the two-prize rows the calibrations solve on

class _LotteryModel(_RowModel):
    """A risk model: value_batch over probability rows, and its value on segment rows.

    The best and worst prizes are read off the values of the degenerate
    lotteries, computed once: the lowest index wins a tie on either end.
    """

    @cached_property
    def _degenerate_values(self) -> tuple[float, ...]:
        return tuple(self.value_batch(np.eye(self.n_outcomes)).tolist())

    @property
    def best_index(self) -> int:
        v = self._degenerate_values
        return max(range(len(v)), key=lambda i: (v[i], -i))

    @property
    def worst_index(self) -> int:
        v = self._degenerate_values
        return min(range(len(v)), key=lambda i: (v[i], i))

    def segment_value(self, alpha, top, bottom) -> np.ndarray:
        """value_batch of the rows with alpha on prize top and 1 - alpha on prize bottom.

        top and bottom are distinct prize indices, or index arrays with one
        pair per row; a model may override this with a closed form that
        agrees with value_batch bit for bit.
        """
        return self.value_batch(_segments(alpha, top, bottom, self.n_outcomes))

    def segment_root(self, target, top, bottom, tol: float) -> np.ndarray:
        """The alpha with segment_value(alpha, top, bottom) = target[k], for each row k.

        top and bottom are distinct prize indices. This default bisects
        segment_value in lockstep (bisect_monotone_batch): exact 0.0 or 1.0
        where a row hits a segment end, NoBracket naming the first row whose
        two end values share a sign, and each row's steps those of a
        one-row call. Models with an inverse on the segment override it
        under the same contract, to within tol of this bisection.
        """
        target = np.asarray(target, dtype=float)

        def gap(alpha: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return self.segment_value(alpha, top, bottom) - target[idx]

        return bisect_monotone_batch(gap, np.zeros(len(target)), np.ones(len(target)), tol=tol)


@dataclass(frozen=True)
class ExpectedUtility(_LotteryModel):
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

    @cached_property
    def _utility_vector(self) -> np.ndarray:
        return np.asarray(self.prize_utilities, dtype=float)

    def value_batch(self, P) -> np.ndarray:
        return np.vecdot(_rows(P), self._utility_vector)

    def segment_root(self, target, top, bottom, tol: float) -> np.ndarray:
        """The segment is linear: alpha = (t - u_bottom) / (u_top - u_bottom), in closed form.

        The end values are the utilities of the two prizes, which is what
        value_batch gives a degenerate row, so the ends and NoBracket are
        those of the bisection it replaces.
        """
        target = np.asarray(target, dtype=float)
        u_top, u_bottom = self.prize_utilities[top], self.prize_utilities[bottom]
        n = len(target)
        alpha, act = _bracket_ends(u_bottom - target, u_top - target, np.zeros(n), np.ones(n), tol)
        alpha[act] = (target[act] - u_bottom) / (u_top - u_bottom)
        return alpha


@dataclass(frozen=True)
class CumulativeProspect(_LotteryModel):
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

    @cached_property
    def _ranks(self) -> np.ndarray:
        """Position of each prize in the descending order (0: the best)."""
        return np.argsort(np.asarray(self._rank_order))

    @cached_property
    def _value_vector(self) -> np.ndarray:
        return np.asarray(self._prize_values, dtype=float)

    @property
    def n_outcomes(self) -> int:
        return len(self.prizes)

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

        The cumulative sums run column by column, one row per prize, and g
        takes all of them in one call.
        """
        P = _rows(P)
        cum = np.empty((P.shape[1], len(P)))
        for k, i in enumerate(self._rank_order):
            np.add(cum[k - 1] if k else 0.0, P[:, i], out=cum[k])
        total = np.zeros(len(P))
        g_prev = 0.0
        for g, i in zip(self.weight(cum), self._rank_order):
            total += (g - g_prev) * self._prize_values[i]
            g_prev = g
        return total

    def segment_value(self, alpha, top, bottom) -> np.ndarray:
        """g(a) * w(lead) + (1 - g(a)) * w(trail): value_batch on a segment, bit for bit.

        lead is the higher-ranked prize of each pair and a its mass. On a
        segment row the cumulative sum reaches a at lead and then exactly
        1.0 at trail (a + fl(1 - a) rounds to 1 for every a in [0, 1]), and
        every other prize leaves it unchanged, so adds exactly nothing.
        """
        alpha = np.asarray(alpha, dtype=float)
        lead = self._ranks[top] < self._ranks[bottom]
        g = self.weight(np.where(lead, alpha, 1.0 - alpha))
        w = self._value_vector
        return g * w[np.where(lead, top, bottom)] + (1.0 - g) * w[np.where(lead, bottom, top)]

    def segment_root(self, target, top, bottom, tol: float) -> np.ndarray:
        """Lockstep safeguarded Newton on segment_value(alpha) - target, stepping in logit(alpha).

        On the segment the value is g(a) * w(lead) + (1 - g(a)) * w(trail),
        a the lead prize's mass (alpha, or 1 - alpha when top is the lower
        prize), so each row starts where g(a) = a would put its root:
        y = (t - w(trail)) / (w(lead) - w(trail)), kept within [tol, 1 - tol].
        The step uses d log g / d logit a = b(1 - a) - (1 - a)h + a(1 - h),
        h = a^b / (a^b + (1 - a)^b). Each row keeps the bracket its gap's
        signs give and takes the bracket's midpoint when a step leaves it.
        A row stops at an exact zero, once its step is at most tol / 4 (the
        step's end is its answer), once its bracket is at most tol wide or at
        float resolution (the midpoint is). The ends, NoBracket and the
        tolerance are those of the default bisection; a row's iterates depend
        on that row alone, whatever else is in the batch, and a row still
        moving after MAX_BISECT_STEPS rounds raises NotConverged.
        """
        target = np.asarray(target, dtype=float)
        v0, v1 = self.segment_value(np.array([0.0, 1.0]), top, bottom)  # the same for every row
        n = len(target)
        out, act = _bracket_ends(v0 - target, v1 - target, np.zeros(n), np.ones(n), tol)
        if not len(act):
            return out
        lead = self._ranks[top] < self._ranks[bottom]
        w_lead, w_trail = self._value_vector[[top, bottom] if lead else [bottom, top]]
        t = target[act]
        increasing = v0 < t
        y = (t - w_trail) / (w_lead - w_trail)
        alpha = np.clip(y if lead else 1.0 - y, tol, 1.0 - tol)
        lo, hi = np.zeros(len(act)), np.ones(len(act))
        b, sign = self.weight_exponent, 1.0 if lead else -1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(MAX_BISECT_STEPS):
                v = self.segment_value(alpha, top, bottom)
                f = v - t
                up = (f < 0.0) == increasing  # the root lies above alpha
                lo, hi = np.where(up, alpha, lo), np.where(up, hi, alpha)
                rest = 1.0 - alpha
                a, r = (alpha, rest) if lead else (rest, alpha)
                h = 1.0 / (1.0 + (r / a) ** b)
                # e^{-step} of the Newton step in logit(alpha); g * (w_lead - w_trail) = v - w_trail
                shrink = np.exp(sign * f / ((v - w_trail) * (r * (b - h) + a * (1.0 - h))))
                new = alpha / (alpha + rest * shrink)
                mid = 0.5 * (lo + hi)
                small = np.abs(new - alpha) <= 0.25 * tol
                narrow = (hi - lo <= tol) | ~((mid > lo) & (mid < hi))
                done = (f == 0.0) | small | narrow
                if done.any():
                    out[act[done]] = np.where(f == 0.0, alpha, np.where(
                        small, np.clip(new, lo, hi), mid))[done]
                    keep = ~done
                    act, t, increasing, lo, hi, new, mid = (
                        act[keep], t[keep], increasing[keep], lo[keep], hi[keep], new[keep],
                        mid[keep])
                    if not len(act):
                        return out
                alpha = np.where((new > lo) & (new < hi), new, mid)
        k = int(act[0])
        raise NotConverged(f"row {k}: Newton iterate {alpha[0]!r} still moving after "
                           f"{MAX_BISECT_STEPS} rounds", [float(alpha[0])])


@dataclass(frozen=True, eq=False)
class TabulatedUtility(_LotteryModel):
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
        if len(set(self._degenerate_values)) < 2:
            raise InvalidModel("constant on degenerates; no calibration segment")

    def value_batch(self, P) -> np.ndarray:
        return np.array([float(self.fn(tuple(row))) for row in _rows(P).tolist()])


def _on_simplex(P: np.ndarray) -> np.ndarray:
    """Rows of P divided, in place, by their sums where those are not exactly 1.

    As Lottery does with math.fsum, each row's sum is its exact sum
    rounded once: a compensated sum (Ogita, Rump and Oishi's Sum2, exact
    error terms carried in a second float) that agrees with fsum on these
    few-term rows. A sum off by one unit in the last place matters: near 1
    the weighting g moves by about that unit to the power of its exponent.
    """
    total = P[:, 0].copy()
    error = np.zeros(len(P))
    for x in P.T[1:]:
        s = total + x
        z = s - total
        error += (total - (s - z)) + (x - z)
        total = s
    total += error
    off = total != 1.0
    if np.any(off):
        P[off] /= total[off, None]
    return P


def _segments(alpha: np.ndarray, top, bottom, n: int) -> np.ndarray:
    """Rows with alpha on prize top and 1 - alpha on prize bottom (indices or index arrays)."""
    S = np.zeros((len(alpha), n))
    rows = np.arange(len(alpha))
    S[rows, top] = alpha
    S[rows, bottom] = 1.0 - alpha
    return S


def _support_sizes(P: np.ndarray) -> np.ndarray:
    return np.count_nonzero(P > 0.0, axis=1)


def _probs(row: np.ndarray) -> tuple[float, ...]:
    return tuple(row.tolist())


@dataclass(frozen=True)
class SimplexSampler:
    """Deterministic lottery sample: lattice grid plus seeded random probes.

    resolution is the lattice denominator (probabilities are multiples of
    1/resolution). n_random_triples controls extra off-lattice mixture
    probes in the reduction meter; n_pairs and n_alphas size the
    independence meter. These defaults are a scenario's too.
    """

    resolution: int = 11
    seed: int = 0
    n_random_triples: int = 100
    n_pairs: int = 20
    n_alphas: int = 5
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def grid(self, n_outcomes: int) -> np.ndarray:
        """The lattice lotteries as read-only rows, built once per sampler and prize count."""
        G = self._grids.get(n_outcomes)
        if G is None:
            G = _on_simplex(grid_sample("simplex", n_outcomes, self.resolution))
            G.flags.writeable = False
            self._grids[n_outcomes] = G
        return G


def mixture_utility_batch(model, P, tol: float = BISECT_TOL) -> np.ndarray:
    """Calibrated utility of each row p of P: the alpha solving model(seg(alpha)) = model(p).

    seg(alpha) puts alpha on the best prize and 1 - alpha on the worst. All
    rows go to one model.segment_root call, which solves each row as a
    one-row call would; a repeated row is solved again, so callers pass
    distinct rows. A value at most SNAP_ULPS units in the last place
    outside [v(worst), v(best)] is rounding and is moved onto that end.
    Exact hits on the endpoints return 0.0 or 1.0 exactly; a row the
    segment does not bracket (e.g. a lottery strictly better than the best
    prize) raises NoBracket.
    """
    top, bottom = model.best_index, model.worst_index
    ends = model._degenerate_values[bottom], model._degenerate_values[top]
    v = model.value_batch(_rows(P))
    snapped = np.clip(v, *ends)
    band = SNAP_ULPS * EPS * max(map(abs, ends))
    return model.segment_root(np.where(np.abs(v - snapped) <= band, snapped, v), top, bottom, tol)


@dataclass(frozen=True)
class AffineBenchmark:
    """Affine function through the calibrated degenerate utilities."""

    coefficients: tuple[float, ...]

    def evaluate_batch(self, P) -> np.ndarray:
        return np.vecdot(_rows(P), np.asarray(self.coefficients, dtype=float))

    def evaluate(self, p) -> float:
        return float(self.evaluate_batch(p.probs if isinstance(p, Lottery) else p)[0])


def build_affine_benchmark(model) -> AffineBenchmark:
    """Affine benchmark l(p) = sum_i p_i u(delta_i) in calibration units."""
    coeffs = mixture_utility_batch(model, np.eye(model.n_outcomes), BISECT_TOL)
    return AffineBenchmark(coefficients=tuple(coeffs.tolist()))


def _peel_chains(G: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vertex-peeling steps of every row of G, row by row, each row's steps in order.

    Returns (point, vertex, lam, tail): step k peels prize vertex[k] off
    lottery point[k] and has whole = lam * delta_vertex + (1 - lam) * tail
    exactly, where whole is the point itself (renormalized) at its first
    step and the previous step's tail after that. A row's chain peels its
    support in index order down to a degenerate lottery, so the affine gap
    at the row is at most the sum of its |support| - 1 mixture defects;
    degenerate rows have no chain.
    """
    m, n = G.shape
    positive = G > 0.0
    rank = np.cumsum(positive, axis=1)  # 1-based rank of each support entry
    cur = np.array(G)
    mass = np.ones(m)
    live = np.arange(m)
    steps = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0),
              np.zeros((0, n)))]  # no step at all still concatenates
    for j in range(n - 1):
        live = live[rank[live, -1] > j + 1]  # rows whose support has an entry after the j-th
        if not len(live):
            break
        i = np.argmax(positive[live] & (rank[live] == j + 1), axis=1)
        lam = cur[live, i] / mass[live]
        kept = lam < 1.0  # else rounding swallowed the rest of the support
        live, i, lam = live[kept], i[kept], lam[kept]
        tail_mass = mass[live] - cur[live, i]
        cur[live, i] = 0.0
        steps.append((live, i, lam, _on_simplex(cur[live] / tail_mass[:, None])))
        mass[live] = tail_mass
    point, vertex, lam, tail = (np.concatenate(parts) for parts in zip(*steps))
    order = np.argsort(point, kind="stable")
    return point[order], vertex[order], lam[order], tail[order]


def _mixture_probes(G: np.ndarray, sampler: SimplexSampler):
    """Probe lotteries as rows, and each probe's (left, right, lam, mixture) row indices.

    mixture = lam * left + (1 - lam) * right. Every vertex-peeling step of
    every grid lottery comes first (these are the triples whose defects bound
    the affine gap pointwise), then a seeded batch of random grid-pair
    mixtures at uniform weights. A lottery shared by several probes (a grid
    point, a vertex, a tail that is the next step's whole) is one row.
    """
    m, n = G.shape
    point, vertex, lam, tail = _peel_chains(G)
    rng = np.random.default_rng(sampler.seed)
    k = sampler.n_random_triples
    pick = np.empty((k, 2), dtype=np.intp)
    weight = np.empty(k)
    for t in range(k):  # one draw at a time: the stream order fixes the probes
        pick[t] = rng.integers(0, m, size=2)
        weight[t] = rng.uniform()
    mixed = _on_simplex(weight[:, None] * G[pick[:, 0]] + (1.0 - weight)[:, None] * G[pick[:, 1]])
    # rows: the grid, the grid renormalized (first wholes), tails, vertices, mixtures
    rows = np.concatenate([G, _on_simplex(np.array(G)), tail, np.eye(n), mixed])
    at_tail, at_vertex, at_mixed = 2 * m, 2 * m + len(tail), 2 * m + len(tail) + n
    steps = np.arange(len(point))
    first = np.concatenate([[True], point[1:] != point[:-1]])
    whole = np.where(first, m + point, at_tail + steps - 1)
    return (rows,
            np.concatenate([at_vertex + vertex, pick[:, 0]]),
            np.concatenate([at_tail + steps, pick[:, 1]]),
            np.concatenate([lam, weight]),
            np.concatenate([whole, at_mixed + np.arange(k)]))


def _worst_mixture_defect(model, G: np.ndarray, u: np.ndarray, sampler: SimplexSampler,
                          tol: float) -> tuple[float, dict, int]:
    """Largest |u(mixture) - (lam u(left) + (1 - lam) u(right))| over the probes.

    Returns the defect (0.0 when nothing was probed), its witness (the first
    probe attaining it) and the number of probes, on the model's calibrated
    utility. u holds it on the grid G; a probe lottery equal to a grid row
    takes that row's u, and the other probe lotteries are calibrated in one
    call.
    """
    rows, left, right, lam, whole = _mixture_probes(G, sampler)
    if not len(lam):
        return 0.0, {}, 0
    U, inverse = _distinct_rows(rows)  # rows start with the distinct rows of G
    on_grid = inverse[:len(G)]
    fresh = np.ones(len(U), dtype=bool)
    fresh[on_grid] = False
    u_distinct = np.empty(len(U))
    u_distinct[on_grid] = u
    u_distinct[fresh] = mixture_utility_batch(model, U[fresh], tol)
    u = u_distinct[inverse]
    defect = np.abs(u[whole] - (lam * u[left] + (1.0 - lam) * u[right]))
    b = int(np.argmax(defect))
    return float(defect[b]), {"left": _probs(rows[left[b]]), "right": _probs(rows[right[b]]),
                              "lam": float(lam[b]), "mixture": _probs(rows[whole[b]])}, len(lam)


def measure_eps_rcl(model, u, sampler: SimplexSampler, tol: float = BISECT_TOL) -> ViolationReport:
    """Worst sampled reduction-of-compound-lotteries defect, plus 1e-12.

    u is the calibrated utility of the sampler's grid lotteries, as
    mixture_utility_batch returns it. Probes every vertex-peeling
    decomposition of every grid lottery (these are the triples whose
    defects bound the affine gap pointwise) and a seeded batch of random
    grid-pair mixtures at uniform weights.
    """
    G = sampler.grid(model.n_outcomes)
    max_defect, witness, count = _worst_mixture_defect(model, G, _grid_utility(u, G), sampler,
                                                       tol)
    return ViolationReport(
        axiom="reduction-of-compound-lotteries",
        value=max_defect + STRICTNESS_MARGIN,
        witness=witness,
        samples_evaluated=count,
        details={"margin": STRICTNESS_MARGIN, "max_defect": max_defect,
                 "resolution": sampler.resolution, "seed": sampler.seed,
                 "bisect_tol": tol},
    )


def _first_max(gap: np.ndarray) -> tuple[float, int | None]:
    """Largest positive entry and the first index attaining it; (0.0, None) if none is positive."""
    if not len(gap):
        return 0.0, None
    k = int(np.argmax(gap))
    return (float(gap[k]), k) if gap[k] > 0.0 else (0.0, None)


def verify_thm1(u, benchmark: AffineBenchmark, eps_hat: float, sampler: SimplexSampler,
                slack: float = BOUND_SLACK) -> NearRepresentation:
    """Check |u(p) - l(p)| <= (support(p) - 1) * eps_hat + slack on the grid.

    u is the calibrated utility of the sampler's grid lotteries, as
    mixture_utility_batch returns it. Degenerate lotteries must agree
    exactly (within 1e-12). Raises BoundViolated with the first violating
    lottery in grid order otherwise. The returned representation records
    the sup-norm gap against the global bound d * eps_hat with
    d = n_outcomes - 1.
    """
    G = sampler.grid(len(benchmark.coefficients))
    gap = np.abs(_grid_utility(u, G) - benchmark.evaluate_batch(G))
    support = _support_sizes(G)
    degenerate = support == 1
    allowed = (support - 1) * eps_hat + slack
    bad = np.flatnonzero(np.where(degenerate, gap > DEGENERATE_TOL, gap > allowed))
    if len(bad):
        k = int(bad[0])
        if degenerate[k]:
            raise BoundViolated(
                f"degenerate lottery has |u - l| = {float(gap[k])!r}, expected exact agreement",
                witness={"p": _probs(G[k]), "gap": float(gap[k])})
        raise BoundViolated(
            f"|u - l| = {float(gap[k])!r} exceeds (supp-1)*eps + slack = {float(allowed[k])!r}",
            witness={"p": _probs(G[k]), "gap": float(gap[k]), "allowed": float(allowed[k]),
                     "support_size": int(support[k])})
    worst_gap, worst = _first_max(np.where(degenerate, 0.0, gap))
    d = len(benchmark.coefficients) - 1
    return NearRepresentation(
        kind="affine",
        parameters={"coefficients": benchmark.coefficients},
        achieved_distance=worst_gap,
        bound=d * eps_hat,
        details={"slack": slack, "per_point_rule": "support-minus-one",
                 "n_points": len(G), "resolution": sampler.resolution,
                 "argmax": None if worst is None else _probs(G[worst]),
                 "eps_hat": eps_hat},
    )


def converse_check_4eps(model, benchmark: AffineBenchmark, eps: float,
                        sampler: SimplexSampler) -> ViolationReport:
    """Given sup |u - l| < eps, confirm all sampled mixture defects stay < 4 eps.

    Hypotheses checked first: the model agrees with the benchmark on every
    degenerate lottery (within 1e-9) and stays within eps of it across the
    grid; HypothesisFailed carries the witness when either fails. The probe
    set matches the reduction meter (peeling chains plus random triples), but
    defects are measured on the model's calibrated utility.
    """
    n = model.n_outcomes
    vertices = np.eye(n)
    vertex_gap = np.abs(model.value_batch(vertices) - benchmark.evaluate_batch(vertices))
    off = np.flatnonzero(vertex_gap > 1e-9)
    if len(off):
        i = int(off[0])
        raise HypothesisFailed(
            f"model differs from benchmark on degenerate {i} by {float(vertex_gap[i])!r}",
            witness={"p": _probs(vertices[i]), "gap": float(vertex_gap[i])})
    G = sampler.grid(n)
    sup_gap, sup = _first_max(np.abs(model.value_batch(G) - benchmark.evaluate_batch(G)))
    if sup_gap >= eps:
        raise HypothesisFailed(
            f"sup |u - l| = {sup_gap!r} is not below eps = {eps!r}",
            witness={"p": None if sup is None else _probs(G[sup]), "gap": sup_gap,
                     "eps": eps})
    max_defect, witness, count = _worst_mixture_defect(
        model, G, mixture_utility_batch(model, G, BISECT_TOL), sampler, BISECT_TOL)
    if max_defect >= 4.0 * eps:
        raise BoundViolated(
            f"mixture defect {max_defect!r} reached 4 eps = {4.0 * eps!r}",
            witness=witness)
    return ViolationReport(
        axiom="reduction-of-compound-lotteries",
        value=max_defect,
        witness=witness,
        samples_evaluated=count,
        details={"eps": eps, "ratio_to_eps": max_defect / eps if eps > 0 else math.inf,
                 "sup_gap": sup_gap, "passes_4eps": True,
                 "resolution": sampler.resolution},
    )


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Column of the first True in each row of mask, or its width where there is none."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), mask.shape[1])


def _scan_window(f, center, idx, a_prev, f_prev, sign, ks, step, zero_tol):
    """Scan steps ks of every row's ray: the points, their values and verdicts.

    The points are center + sign * k * step clipped to [0, 1], each row's
    sign 1.0 (up) or -1.0 (down), as a scan step by step takes them: a row
    stops before a point that repeats the one before it (a_prev before the
    first) and after a point at 0 or 1. The first point whose value is
    within zero_tol of zero, or whose sign differs from the value before it
    (f_prev before the first), is the row's hit. Returns (points, values,
    hit column or window width, row scanned to its end).
    """
    A = np.clip(center[:, None] + sign[:, None] * (ks * step), 0.0, 1.0)
    width = len(ks)
    edge = _first_true((A == 0.0) | (A == 1.0))
    repeat = _first_true(A == np.concatenate([a_prev[:, None], A[:, :-1]], axis=1))
    valid = np.arange(width) < np.minimum(edge + 1, repeat)[:, None]
    F = f(A.ravel(), np.repeat(idx, width)).reshape(A.shape)
    changed = (F > 0.0) != (np.concatenate([f_prev[:, None], F[:, :-1]], axis=1) > 0.0)
    hit = _first_true(valid & ((np.abs(F) <= zero_tol) | changed))
    return A, F, hit, (edge < width) | (repeat < width)


def _nearest_roots(f, centers, step: float, tol: float, zero_tol: float = 0.0) -> np.ndarray:
    """Root of each function nearest to its center in [0, 1], scanning outward then bisecting.

    Each function has two rays from its center, up and down, that step by
    step (clipped to [0, 1]) until they find a sign change or hit their
    boundary; the closer bracketed root wins, and a function that neither
    ray brackets gets NaN. Values within zero_tol of zero count as roots:
    the probe construction carries bisection noise, and chasing an exact
    root of a nearly flat function would turn that noise into an arbitrary
    displacement.

    f(a, idx) returns, for each k, the idx[k]-th function at a[k]. All rays
    are scanned together, _SCAN_WINDOW steps each and one f call per round
    (functions in blocks of a few hundred, so a round's points stay near
    _BLOCK_ENTRIES), and the first sign change on each ray gives a bracket;
    every bracket is then bisected in one lockstep call. Once one ray has
    its first hit at step h, its partner stops after step h + 1: a root it
    found further out would be the farther one.
    """
    centers = np.asarray(centers, dtype=float)
    ks = np.arange(1, _SCAN_WINDOW + 1)
    per_block = max(1, _BLOCK_ENTRIES // (2 * _SCAN_WINDOW + 1))
    roots = np.full(len(centers), np.nan)
    for start in range(0, len(centers), per_block):
        idx = np.arange(start, min(start + per_block, len(centers)))
        c = centers[idx]
        f_c = np.asarray(f(c, idx), dtype=float)
        at_center = np.abs(f_c) <= zero_tol
        roots[idx[at_center]] = c[at_center]
        # ray j < m goes up from function j's center and ray m + j down: partners
        m = len(c)
        sign, owner = np.repeat([1.0, -1.0], m), np.tile(idx, 2)
        partner = np.roll(np.arange(2 * m), m)
        a_prev, f_prev, scanning = np.tile(c, 2), np.tile(f_c, 2), np.tile(~at_center, 2)
        hit_step = np.zeros(2 * m, dtype=np.intp)  # 0: no hit yet
        found, lo, hi = np.full((3, 2 * m), np.nan)  # a root on the ray, or a bracket of one
        k0 = 0
        while scanning.any():
            rays = np.flatnonzero(scanning)
            A, F, hit, ended = _scan_window(f, centers[owner[rays]], owner[rays], a_prev[rays],
                                            f_prev[rays], sign[rays], k0 + ks, step, zero_tol)
            hits = np.flatnonzero(hit < len(ks))
            r, h = rays[hits], hit[hits]
            hit_step[r] = k0 + 1 + h
            a_hit, f_hit = A[hits, h], F[hits, h]
            before = np.where(h > 0, A[hits, h - 1], a_prev[r])
            zero = np.abs(f_hit) <= zero_tol
            found[r[zero]] = a_hit[zero]
            lo[r[~zero]] = np.minimum(before, a_hit)[~zero]
            hi[r[~zero]] = np.maximum(before, a_hit)[~zero]
            scanning[rays[(hit < len(ks)) | ended]] = False
            a_prev[rays], f_prev[rays] = A[:, -1], F[:, -1]
            k0 += len(ks)
            other = hit_step[partner]
            scanning &= (other == 0) | (other >= k0)  # else past the partner's root
        bracketed = np.flatnonzero(~np.isnan(lo))
        if len(bracketed):
            who = owner[bracketed]
            found[bracketed] = bisect_monotone_batch(lambda x, k: f(x, who[k]), lo[bracketed],
                                                     hi[bracketed], tol=tol)
        up, down = found[:m], found[m:]
        # the nearer candidate; the upward one on a tie, as it is found first
        nearer = np.where(np.isnan(up) | (np.abs(down - c) < np.abs(up - c)), down, up)
        roots[idx[~at_center]] = nearer[~at_center]
    return roots


def measure_eps_independence(model, sampler: SimplexSampler,
                             tol: float = BISECT_TOL) -> ViolationReport:
    """Worst sampled independence defect in mixture-weight units.

    For seeded indifferent pairs p ~ q (q found on a segment between
    vertices whose values straddle p's) and probes (r, alpha), alpha' is the
    weight nearest alpha restoring indifference of the two mixtures; the
    defect is |alpha - alpha'|. A probe with no restoring root anywhere in
    [0, 1] records the maximal defect 1.0.
    """
    n = model.n_outcomes
    G = sampler.grid(n)
    vertex_values = model._degenerate_values
    # indifference is only resolved to the q-segment bisection; value gaps
    # below this floor count as restored rather than driving a root hunt
    value_floor = 10.0 * tol * max(1.0, max(vertex_values) - min(vertex_values))
    rng = np.random.default_rng(sampler.seed)
    interior = G[_support_sizes(G) > 1]
    if not len(interior):
        raise InvalidModel("sampler produced no non-degenerate lotteries")
    interior_values = model.value_batch(interior)
    # the draws, one at a time in stream order: pairs, their vertices, alphas, r
    pair_rows, lows_drawn, highs_drawn, alpha, r_rows = [], [], [], [], []
    for idx in rng.permutation(len(interior)).tolist():
        if len(pair_rows) >= sampler.n_pairs:
            break
        vp = float(interior_values[idx])
        lows = [i for i, v in enumerate(vertex_values) if v < vp - 1e-12]
        highs = [i for i, v in enumerate(vertex_values) if v > vp + 1e-12]
        if not lows or not highs:
            continue
        lows_drawn.append(lows[int(rng.integers(0, len(lows)))])
        highs_drawn.append(highs[int(rng.integers(0, len(highs)))])
        pair_rows.append(idx)
        for _ in range(sampler.n_alphas):
            alpha.append(float(rng.uniform()))
            r_rows.append(int(rng.integers(0, len(G))))
    pairs, count = len(pair_rows), len(alpha)
    best, witness, no_root_seen = 0.0, {}, False
    if count:
        P, vp = interior[pair_rows], interior_values[pair_rows]
        lo_v, hi_v = np.array(lows_drawn), np.array(highs_drawn)

        def segment_gap(s: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return model.segment_value(s, hi_v[idx], lo_v[idx]) - vp[idx]

        s = bisect_monotone_batch(segment_gap, np.zeros(pairs), np.ones(pairs), tol=tol)
        Q = _on_simplex(_segments(s, hi_v, lo_v, n))
        pair_of = np.repeat(np.arange(pairs), sampler.n_alphas)
        alpha, R = np.array(alpha), G[r_rows]
        target = model.value_batch(_on_simplex(alpha[:, None] * P[pair_of]
                                               + (1.0 - alpha)[:, None] * R))
        block = max(1, _BLOCK_ENTRIES // n)

        def probe_gap(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
            # model(a q + (1 - a) r) - model(alpha p + (1 - alpha) r), per probe idx
            out = np.empty(len(a))
            # blocked: a round's 2 * 127 * 64 points x 446 prizes would be ~58 MB a temporary
            for start in range(0, len(a), block):
                k, w = idx[start:start + block], a[start:start + block, None]
                out[start:start + block] = model.value_batch(
                    w * Q[pair_of[k]] + (1.0 - w) * R[k]) - target[k]
            return out

        roots = _nearest_roots(probe_gap, alpha, SCAN_STEP, tol, zero_tol=value_floor)
        no_root = np.isnan(roots)
        no_root_seen = bool(np.any(no_root))
        best, b = _first_max(np.where(no_root, 1.0, np.abs(alpha - roots)))
        b = 0 if b is None else b
        witness = {"p": _probs(P[pair_of[b]]), "q": _probs(Q[pair_of[b]]),
                   "r": _probs(R[b]), "alpha": float(alpha[b]),
                   "alpha_prime": None if no_root[b] else float(roots[b]),
                   "no_root": bool(no_root[b])}
    return ViolationReport(
        axiom="independence",
        value=best,
        witness=witness,
        samples_evaluated=count,
        details={"pairs": pairs, "alphas_per_pair": sampler.n_alphas,
                 "scan_step": SCAN_STEP, "no_root_seen": no_root_seen,
                 "resolution": sampler.resolution, "seed": sampler.seed,
                 "bisect_tol": tol},
    )


def verify_thm2(u, benchmark: AffineBenchmark, eps_hat: float, sampler: SimplexSampler,
                slack: float = BOUND_SLACK) -> NearRepresentation:
    """Check sup |u - l| <= (d + 1)^2 * eps_hat + slack on the grid.

    u is the calibrated utility of the sampler's grid lotteries, as
    mixture_utility_batch returns it. Raises BoundViolated with the first
    violating lottery in grid order.
    """
    d = len(benchmark.coefficients) - 1
    G = sampler.grid(d + 1)
    bound = (d + 1) ** 2 * eps_hat
    gap = np.abs(_grid_utility(u, G) - benchmark.evaluate_batch(G))
    bad = np.flatnonzero(gap > bound + slack)
    if len(bad):
        k = int(bad[0])
        raise BoundViolated(
            f"|u - l| = {float(gap[k])!r} exceeds (d+1)^2 eps + slack = {bound + slack!r}",
            witness={"p": _probs(G[k]), "gap": float(gap[k])})
    worst_gap, worst = _first_max(gap)
    return NearRepresentation(
        kind="affine",
        parameters={"coefficients": benchmark.coefficients},
        achieved_distance=worst_gap,
        bound=bound,
        details={"slack": slack, "n_points": len(G),
                 "argmax": None if worst is None else _probs(G[worst]),
                 "eps_hat": eps_hat, "factor": (d + 1) ** 2},
    )


# ---------------------------------------------------------------------------
# worked examples

@dataclass(frozen=True)
class AllaisReport:
    """Common-ratio audit of the power-value inverse-S weighting model."""

    value_exponent: float
    weight_exponent: float
    gambles: dict[str, tuple[float, float]]  # name -> (prize, probability)
    values: dict[str, float]
    alphas: dict[str, float]
    prefers_sure_3000: bool
    prefers_scaled_4000: bool
    reversal_restored: bool
    lambda_star: float
    lambda_bracket: tuple[float, float] = (0.25, 0.27)

    @property
    def exhibits_common_ratio_effect(self) -> bool:
        return self.prefers_sure_3000 and self.prefers_scaled_4000

    def table(self) -> tuple[list[str], list[list]]:
        header = ["gamble", "prize", "probability", "value", "calibrated_utility"]
        rows = [[name, prize, prob, self.values[name], self.alphas[name]]
                for name, (prize, prob) in self.gambles.items()]
        return header, rows


def allais_report() -> AllaisReport:
    """Evaluate the classic common-ratio gambles under the fitted model.

    Gambles: A = (4000, 0.8), B = (3000, 1), C = (4000, 0.2), D = (3000, 0.25)
    and the shifted D' = (3000, 0.27). The report records the pattern
    B > A with C > D (the common-ratio reversal), the restored preference
    D' > C, and the probability lambda* where the 3000-branch overtakes C.
    """
    model = CumulativeProspect(FITTED_VALUE_EXPONENT, FITTED_WEIGHT_EXPONENT,
                               (4000.0, 3000.0, 0.0))
    gambles = {
        "A": (4000.0, 0.8),
        "B": (3000.0, 1.0),
        "C": (4000.0, 0.2),
        "D": (3000.0, 0.25),
        "D'": (3000.0, 0.27),
    }

    def lottery_for(prize: float, prob: float) -> Lottery:
        idx = model.prizes.index(prize)
        probs = [0.0, 0.0, 0.0]
        probs[idx] = prob
        probs[2] = probs[2] + (1.0 - prob)
        return Lottery(tuple(probs))

    values = {name: model.value(lottery_for(z, p).probs) for name, (z, p) in gambles.items()}
    calibrated = mixture_utility_batch(
        model, [lottery_for(z, p).probs for z, p in gambles.values()], BISECT_TOL).tolist()
    alphas = dict(zip(gambles, calibrated))
    target = values["C"]
    w3000 = model.prize_value(3000.0)
    lam_star = bisect_monotone(lambda lam: model.weight(lam) * w3000 - target,
                               0.0, 1.0, tol=BISECT_TOL)
    return AllaisReport(
        value_exponent=FITTED_VALUE_EXPONENT,
        weight_exponent=FITTED_WEIGHT_EXPONENT,
        gambles=gambles,
        values=values,
        alphas=alphas,
        prefers_sure_3000=values["B"] > values["A"],
        prefers_scaled_4000=values["C"] > values["D"],
        reversal_restored=values["D'"] > values["C"],
        lambda_star=lam_star,
    )


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Argmax of a unimodal f on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


@dataclass(frozen=True)
class Figure1Data:
    """Weighting-curve gap w(p) - p on a probability grid, with its true max."""

    resolution: int
    probs: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    gaps: np.ndarray = field(repr=False)
    max_abs_gap: float
    argmax_p: float
    claim: float
    within_claim: bool

    def table(self) -> tuple[list[str], np.ndarray]:
        return ["p", "weight", "gap"], np.column_stack([self.probs, self.weights, self.gaps])


def figure1_data(resolution: int) -> Figure1Data:
    """Tabulate w(p) - p for the fitted weighting curve and locate max |w(p) - p| to 1e-12.

    The maximum is found on a fixed 1e-5 grid and refined by golden-section
    search, independent of the reporting resolution. within_claim records
    whether the refined maximum stays at or below FIGURE1_CLAIM; the curve
    for the fitted exponent 0.74 peaks at 0.100776..., slightly above the
    nominal 0.1 reading.
    """
    if resolution < 2:
        raise InvalidModel("resolution must be at least 2")
    b = FITTED_WEIGHT_EXPONENT

    def gap_curve(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        pb = p ** b
        qb = (1.0 - p) ** b
        w = np.where((p > 0.0) & (p < 1.0), pb / (pb + qb) ** (1.0 / b), p)
        return w - p

    probs = np.linspace(0.0, 1.0, resolution)
    gaps = gap_curve(probs)
    dense = np.linspace(0.0, 1.0, 100001)
    dense_gaps = np.abs(gap_curve(dense))
    i = int(np.argmax(dense_gaps))
    lo = dense[max(i - 1, 0)]
    hi = dense[min(i + 1, len(dense) - 1)]
    argmax_p, max_gap = _golden_max(lambda p: abs(float(gap_curve(np.array([p]))[0])),
                                    lo, hi, tol=1e-12)
    return Figure1Data(
        resolution=resolution,
        probs=probs,
        weights=gaps + probs,
        gaps=gaps,
        max_abs_gap=float(max_gap),
        argmax_p=float(argmax_p),
        claim=FIGURE1_CLAIM,
        within_claim=bool(max_gap <= FIGURE1_CLAIM + STRICTNESS_MARGIN),
    )
