"""Doubling-limit benchmarks and closeness meters for act evaluations.

The working utility of an act is its certainty equivalent: the sure payoff
with the same model value. Midpoint-additivity defects phi(x, y) of that
utility drive everything here: the dyadic series Theta-hat bounds the gap to
the linear benchmark obtained as the doubling limit 2^{-n} u(2^n x); the
scaled variant with ratio eta produces the homogeneous benchmark; and the
quasi-concave envelope comes from convex hulls of sampled upper level sets.

Certainty equivalents keep u(c * ones) = c exactly (constant acts short-cut
the solve), which is what makes the doubling bookkeeping phi(x, 0) legitimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    BoundViolated,
    HypothesisFailed,
    InvalidModel,
    NearRepresentation,
    NotAdditive,
    NotConverged,
    SmoothAmbiguity,
    ViolationReport,
    dyadic_tail_sum,
    grid_sample,
)

__all__ = [
    "BoxSampler",
    "LinearBenchmark",
    "ScaledLimit",
    "QuasiConcaveBenchmark",
    "ce_utility",
    "measure_phi",
    "dyadic_phi_series",
    "theta_estimate",
    "hyers_ulam_limit",
    "extract_prior",
    "verify_aa_bound",
    "smooth_ambiguity_bound",
    "measure_homog_deviation",
    "homog_limit",
    "verify_homog_bound",
    "measure_eps_ua",
    "quasiconcavify",
    "verify_quasiconcave_bound",
]

STRICTNESS_MARGIN = 1e-12
SCALE_GUARD = 1e12  # stop doubling before 2^n x leaves the well-conditioned range


@dataclass(frozen=True)
class BoxSampler:
    """Deterministic act sample on [0, bound]^d plus seeded random pairs."""

    n_states: int
    bound: float = 10.0
    resolution: int = 11
    seed: int = 0
    n_random_pairs: int = 150
    lambdas: tuple[float, ...] = (0.25, 0.5, 0.75)
    max_points: int | None = None

    def points(self) -> np.ndarray:
        return grid_sample("box", self.n_states, self.resolution, bound=self.bound,
                           seed=self.seed, max_points=self.max_points)


def _as_act(model, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.n_states:
        raise InvalidModel(f"act shape {x.shape} does not match {model.n_states} states")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise InvalidModel("acts must have finite nonnegative payoffs")
    return x


def ce_utility(model, x, tol: float = 1e-10) -> float:
    """Certainty equivalent: the c with model(c * ones) = model(x).

    Constant acts return their level exactly, so u(c * ones) = c holds with
    no rounding for every model. Every other act goes to the model's own
    ce(x, tol): a closed form where the model admits one, a bisection
    between min(x) and max(x) otherwise.
    """
    x = _as_act(model, x)
    first = float(x[0])
    if np.all(x == first):
        return first
    return model.ce(x, tol)


def measure_phi(model, x, y, tol: float = 1e-10) -> float:
    """Midpoint additivity defect |u((x+y)/2) - (u(x) + u(y))/2|."""
    x = _as_act(model, x)
    y = _as_act(model, y)
    mid = 0.5 * (x + y)
    return abs(ce_utility(model, mid, tol=tol)
               - 0.5 * (ce_utility(model, x, tol=tol) + ce_utility(model, y, tol=tol)))


def _scale_cap(x: np.ndarray, y: np.ndarray | None, n_max: int,
               base: float = 2.0, guard: float = SCALE_GUARD) -> int:
    top = max(float(np.max(np.abs(x))), 1.0)
    if y is not None:
        top = max(top, float(np.max(np.abs(y))))
    cap = int(math.floor(math.log(guard / top, base)))
    return max(min(n_max, cap), 0)


def dyadic_phi_series(model, x, y, n_max: int = 40, ratio_tol: float = 0.75,
                      tol: float = 1e-10) -> tuple[list[float], bool]:
    """Partial sums of sum_i 2^{-i} phi(2^i x, 2^i y) with a decay verdict.

    Doubling stops at n_max or once the scaled acts would exceed the 1e12
    coordinate guard, whichever comes first.
    """
    x = _as_act(model, x)
    y = _as_act(model, y)
    cap = _scale_cap(x, y, n_max)
    terms = []
    for i in range(cap + 1):
        s = 2.0 ** i
        terms.append((2.0 ** -i) * measure_phi(model, s * x, s * y, tol=tol))
    _, converged = dyadic_tail_sum(lambda i: terms[i], cap, ratio_tol=ratio_tol)
    partials = []
    acc = 0.0
    for t in terms:
        acc += t
        partials.append(acc)
    return partials, converged


def theta_estimate(model, sampler: BoxSampler | None = None, n_max: int = 40,
                   ratio_tol: float = 0.75, tol: float = 1e-10) -> tuple[ViolationReport, bool]:
    """Worst dyadic defect series over anchored and random act pairs.

    The pair set always contains (x, 0) and (2x, 0) for every sampled x: the
    per-point gap |u(x) - v(x)| is controlled by the phi(., 0) chain along
    the doubled arguments, so dropping the anchors could understate the
    series the closeness theorem actually consumes. Seeded random grid pairs
    widen the sample. Returns the report and the all-pairs convergence flag.
    """
    sampler = sampler or BoxSampler(model.n_states)
    base = sampler.points()
    zero = np.zeros(model.n_states)
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for x in base:
        if np.any(x):
            pairs.append((x, zero))
            pairs.append((2.0 * x, zero))
    rng = np.random.default_rng(sampler.seed)
    for _ in range(sampler.n_random_pairs):
        i, j = rng.integers(0, len(base), size=2)
        pairs.append((base[i], base[j]))
    best = (-1.0, None, None)
    all_converged = True
    count = 0
    for x, y in pairs:
        if not np.any(x) and not np.any(y):
            continue
        partials, converged = dyadic_phi_series(model, x, y, n_max=n_max,
                                                ratio_tol=ratio_tol, tol=tol)
        count += 1
        all_converged = all_converged and converged
        if partials and partials[-1] > best[0]:
            best = (partials[-1], (x, y), partials)
    theta_hat = max(best[0], 0.0)
    witness = {}
    if best[1] is not None:
        witness = {"x": tuple(best[1][0]), "y": tuple(best[1][1])}
    report = ViolationReport(
        axiom="midpoint-additivity-series",
        value=theta_hat,
        witness=witness,
        samples_evaluated=count,
        details={"converged": all_converged, "n_max": n_max,
                 "ratio_tol": ratio_tol, "partial_sums": best[2] or [],
                 "resolution": sampler.resolution, "seed": sampler.seed},
    )
    return report, all_converged


@dataclass(frozen=True)
class ScaledLimit:
    """Limit of base^{-n} u(base^n x) with the Cauchy trace that certified it.

    theta sums the increments plus the geometric tail estimate: the scaled
    defect series that bounds |u(x) - value|.
    """

    value: float
    theta: float
    n_used: int
    tail_bound: float
    iterates: tuple[float, ...]


def _scaled_limit(model, x, base: float, tol: float, n_max: int, bisect_tol: float,
                  what: str) -> ScaledLimit:
    """lim base^{-n} u(base^n x), stopped by the scaled Cauchy test.

    Stops once the increment falls below tol * base^{-n} (or a 1e-15
    relative floor); raises NotConverged, naming the `what` iterates and
    carrying them, when the cap or the coordinate guard arrives first.
    """
    x = _as_act(model, x)
    v0 = ce_utility(model, x, tol=bisect_tol)
    if not np.any(x):
        return ScaledLimit(value=v0, theta=0.0, n_used=0, tail_bound=0.0, iterates=(v0,))
    cap = _scale_cap(x, None, n_max, base=base)
    iterates = [v0]
    increments: list[float] = []
    converged = False
    n = 0
    while n < cap:
        n += 1
        scale = base ** n
        v = ce_utility(model, scale * x, tol=bisect_tol) / scale
        inc = abs(v - iterates[-1])
        iterates.append(v)
        increments.append(inc)
        if inc <= tol * (base ** -n) or inc <= 1e-15 * max(1.0, abs(v)):
            converged = True
            break
    if not converged:
        raise NotConverged(
            f"{what} iterates not Cauchy within n={cap} (last increment "
            f"{increments[-1] if increments else 0.0!r})", iterates)
    tail = 0.0
    if len(increments) >= 2 and increments[-2] > 0.0:
        r = increments[-1] / increments[-2]
        if r < 1.0:
            tail = increments[-1] * r / (1.0 - r)
    return ScaledLimit(value=iterates[-1], theta=math.fsum(increments) + tail,
                       n_used=n, tail_bound=tail, iterates=tuple(iterates))


def hyers_ulam_limit(model, x, tol: float = 1e-9, n_max: int = 40,
                     bisect_tol: float = 1e-10) -> ScaledLimit:
    """Doubling limit v(x) = lim 2^{-n} u(2^n x) of the certainty equivalent.

    Raises NotConverged with the iterates when the scaled Cauchy test
    tol * 2^{-n} is not met within n_max doublings. Curves whose increments
    decay exactly like 2^{-n} never meet it; the iterates show the stall.
    """
    return _scaled_limit(model, x, 2.0, tol, n_max, bisect_tol, "doubling")


@dataclass(frozen=True)
class LinearBenchmark:
    """Linear functional x -> prior . x recovered from doubling limits."""

    prior: tuple[float, ...]

    def evaluate(self, x) -> float:
        return float(np.dot(self.prior, np.asarray(x, dtype=float)))


def extract_prior(model, tol: float = 1e-9, additivity_tol: float = 1e-6,
                  n_max: int = 40) -> LinearBenchmark:
    """Coordinate limits p_i = v(e_i) assembled into a linear benchmark.

    Raises NotAdditive when sum_i p_i disagrees with v(ones) beyond
    additivity_tol; for worst-case models the coordinate limits undershoot
    the sure act (e.g. lower envelopes give sum min_k prior_k[i] < 1).
    """
    d = model.n_states
    p = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        p.append(hyers_ulam_limit(model, e, tol=tol, n_max=n_max).value)
    v_ones = hyers_ulam_limit(model, np.ones(d), tol=tol, n_max=n_max).value
    total = math.fsum(p)
    if abs(total - v_ones) > additivity_tol:
        raise NotAdditive(
            f"coordinate limits sum to {total!r} but the sure act has value {v_ones!r}",
            witness={"coordinate_sum": total, "sure_value": v_ones, "prior": tuple(p)})
    return LinearBenchmark(prior=tuple(p))


def verify_aa_bound(model, benchmark: LinearBenchmark, theta_hat: float,
                    sampler: BoxSampler | None = None, converged: bool = True,
                    eps_cap: float | None = None, tol: float = 1e-6,
                    bisect_tol: float = 1e-10) -> NearRepresentation:
    """Check sup |u(x) - prior . x| <= bound + tol over the act grid.

    bound is Theta-hat, or 2 * eps_cap when a uniform defect cap is supplied
    (the corollary form). Raises HypothesisFailed when the series was
    classified divergent: the closeness theorem does not apply and the gap
    can be unbounded.
    """
    if not converged:
        raise HypothesisFailed(
            "dyadic defect series classified divergent; closeness bound not applicable")
    sampler = sampler or BoxSampler(model.n_states)
    bound = 2.0 * eps_cap if eps_cap is not None else theta_hat
    worst = (0.0, None)
    pts = sampler.points()
    for x in pts:
        gap = abs(ce_utility(model, x, tol=bisect_tol) - benchmark.evaluate(x))
        if gap > worst[0]:
            worst = (gap, x)
        if gap > bound + tol:
            raise BoundViolated(
                f"|u - prior.x| = {gap!r} exceeds bound + tol = {bound + tol!r}",
                witness={"x": tuple(x), "gap": gap, "bound": bound})
    return NearRepresentation(
        kind="linear",
        parameters={"prior": benchmark.prior},
        achieved_distance=worst[0],
        bound=bound,
        details={"form": "2eps" if eps_cap is not None else "theta",
                 "tol": tol, "n_points": len(pts),
                 "argmax": None if worst[1] is None else tuple(worst[1])},
    )


def smooth_ambiguity_bound(model: SmoothAmbiguity, sampler: BoxSampler | None = None,
                           tol: float = 1e-9) -> tuple[NearRepresentation, tuple[list, list]]:
    """Closed-form audit of the raw smooth functional against its mean prior.

    The raw integral functional differs from x -> mean_prior . x by exactly
    the integral of h(prior . x), h(z) = sqrt(1 + z^2) - z or e^{-z}; both
    transforms keep that defect in (0, 1] with the maximum 1 attained only
    at x = 0. Returns the representation (bound 1.0) and a table of grid
    rows (x, raw value, linear value, defect, closed-form defect).
    """
    if not isinstance(model, SmoothAmbiguity):
        raise InvalidModel("smooth_ambiguity_bound needs a SmoothAmbiguity model")
    sampler = sampler or BoxSampler(model.n_states)
    pts = sampler.points()
    P = np.asarray(model.priors, dtype=float)
    w = np.asarray(model.weights, dtype=float)
    Z = pts @ P.T
    raw = model.f(Z) @ w
    mean_prior = np.asarray(model.mean_prior)
    linear = pts @ mean_prior
    defects = np.abs(raw - linear)
    if model.f_name == "sqrt1pz2":
        formula = (np.sqrt(1.0 + np.square(Z)) - Z) @ w
    else:
        formula = np.exp(-Z) @ w
    identity_gap = float(np.max(np.abs(defects - formula)))
    i_max = int(np.argmax(defects))
    sup = float(defects[i_max])
    if sup > 1.0 + STRICTNESS_MARGIN:
        raise BoundViolated(
            f"raw defect {sup!r} exceeds the uniform cap 1",
            witness={"x": tuple(pts[i_max]), "defect": sup})
    zero_rows = np.where(~pts.any(axis=1))[0]
    defect_at_zero = float(defects[zero_rows[0]]) if len(zero_rows) else None
    if defect_at_zero is not None and abs(defect_at_zero - 1.0) > tol:
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
    rows = [[*map(float, pts[i]), float(raw[i]), float(linear[i]),
             float(defects[i]), float(formula[i])] for i in range(len(pts))]
    return rep, (header, rows)


# ---------------------------------------------------------------------------
# homogeneous benchmark

def measure_homog_deviation(model, x, lam: float, tol: float = 1e-10) -> float:
    """Scaling defect |u(lam x) - lam u(x)| of the certainty equivalent."""
    if not lam > 0.0:
        raise InvalidModel("scaling factor must be positive")
    x = _as_act(model, x)
    return abs(ce_utility(model, lam * x, tol=tol) - lam * ce_utility(model, x, tol=tol))


def homog_limit(model, x, eta: float = 2.0, tol: float = 1e-9, n_max: int = 60,
                bisect_tol: float = 1e-10) -> ScaledLimit:
    """Scaling limit v(x) = lim eta^{-n} u(eta^n x) with its defect series.

    The increment at step n equals eta^{-n} times the scaling deviation of
    eta^{n-1} x, so the summed increments are exactly the series
    sum_j eta^{-(j+1)} dev(eta^j x, eta) that bounds |u(x) - v(x)|.
    """
    if not eta > 1.0:
        raise InvalidModel("eta must exceed 1")
    return _scaled_limit(model, x, eta, tol, n_max, bisect_tol, "scaling")


def verify_homog_bound(model, sampler: BoxSampler | None = None, eta: float = 2.0,
                       alphas: tuple[float, ...] = (0.5, 3.0), tol: float = 1e-6,
                       n_max: int = 60, max_points: int = 40,
                       bisect_tol: float = 1e-10) -> NearRepresentation:
    """Check |u(x) - v(x)| <= 2 Theta-hat and degree-one homogeneity of v.

    Theta-hat is the largest per-point scaling-defect series over the grid
    subset; the homogeneity of the limit is spot-checked at the supplied
    alphas (defect at most 1e-6). Raises BoundViolated on either failure.
    """
    sampler = sampler or BoxSampler(model.n_states)
    pts = [x for x in sampler.points() if np.any(x)]
    if len(pts) > max_points:
        stride = max(len(pts) // max_points, 1)
        pts = pts[::stride][:max_points]
    theta_max = 0.0
    sup = (0.0, None)
    homog_defect = 0.0
    for x in pts:
        res = homog_limit(model, x, eta=eta, tol=1e-9, n_max=n_max, bisect_tol=bisect_tol)
        gap = abs(res.iterates[0] - res.value)  # iterates[0] is u(x)
        theta_max = max(theta_max, res.theta)
        if gap > 2.0 * res.theta + tol:
            raise BoundViolated(
                f"|u - v| = {gap!r} exceeds 2 Theta + tol = {2.0 * res.theta + tol!r}",
                witness={"x": tuple(x), "gap": gap, "theta": res.theta})
        if gap > sup[0]:
            sup = (gap, x)
        for a in alphas:
            res_a = homog_limit(model, a * x, eta=eta, tol=1e-9, n_max=n_max,
                                bisect_tol=bisect_tol)
            defect = abs(res_a.value - a * res.value)
            homog_defect = max(homog_defect, defect)
            if defect > 1e-6:
                raise BoundViolated(
                    f"limit is not homogeneous: |v(a x) - a v(x)| = {defect!r} at a={a!r}",
                    witness={"x": tuple(x), "alpha": a, "defect": defect})
    return NearRepresentation(
        kind="homogeneous",
        parameters={"eta": eta},
        achieved_distance=sup[0],
        bound=2.0 * theta_max,
        details={"theta_homog": theta_max, "tol": tol, "alphas": alphas,
                 "homogeneity_defect": homog_defect, "n_points": len(pts),
                 "argmax": None if sup[1] is None else tuple(sup[1])},
    )


# ---------------------------------------------------------------------------
# quasi-concave envelope

def measure_eps_ua(model, sampler: BoxSampler | None = None,
                   extra_probes: Sequence[tuple[np.ndarray, np.ndarray]] = (),
                   tol: float = 1e-10) -> ViolationReport:
    """Worst sampled uncertainty-aversion defect, plus 1e-12.

    The defect of a pair (x, y) at weight lam is
    max(0, min(u(x), u(y)) - u(lam x + (1 - lam) y)): how far the mixture
    falls below the worse endpoint. extra_probes supplies hull
    decompositions (points, weights); each is expanded into the sequential
    pairwise mixtures that rebuild it, so the envelope verifier's own
    combinations are covered by the sample.
    """
    sampler = sampler or BoxSampler(model.n_states)
    extra_probes = list(extra_probes)
    pts = sampler.points()
    rng = np.random.default_rng(sampler.seed)
    ce = lambda z: ce_utility(model, z, tol=tol)
    best = (-1.0, None)
    count = 0

    def probe(x, y, lam):
        nonlocal best, count
        m = lam * x + (1.0 - lam) * y
        viol = max(0.0, min(ce(x), ce(y)) - ce(m))
        count += 1
        if viol > best[0]:
            best = (viol, {"x": tuple(x), "y": tuple(y), "lam": float(lam),
                           "mixture": tuple(m)})

    for _ in range(sampler.n_random_pairs):
        i, j = rng.integers(0, len(pts), size=2)
        for lam in sampler.lambdas:
            probe(pts[i], pts[j], lam)
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
            probe(running, support[k], lam)
            running = lam * running + (1.0 - lam) * support[k]
            acc = total
    value = max(best[0], 0.0) + STRICTNESS_MARGIN
    return ViolationReport(
        axiom="uncertainty-aversion",
        value=value,
        witness=best[1] or {},
        samples_evaluated=count,
        details={"margin": STRICTNESS_MARGIN, "n_extra_probes": len(extra_probes),
                 "lambdas": sampler.lambdas, "seed": sampler.seed},
    )


@dataclass(frozen=True, eq=False)
class LevelHull:
    """Convex hull of one level cloud, stored as half-spaces in an affine frame.

    verts is the vertex array the decomposition LP runs on. The frame
    (origin, orthonormal basis rows) spans the cloud: the identity for a
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


def _hull_decomposition(x: np.ndarray, verts: np.ndarray,
                        tol: float) -> tuple[bool, np.ndarray]:
    """Convex weights on verts reproducing x, from one feasibility LP.

    Solved as an equality-feasibility linear program on the vertex matrix
    with an appended normalization row. The solver's verdict is not taken
    on faith: the weights are substituted back and the rebuilt residual must
    be tiny relative to the target. Simplex solutions are basic, so at most
    d + 1 weights are nonzero, which is what the pairwise peeling bound needs.
    """
    from scipy.optimize import linprog

    A = np.vstack([verts.T, np.ones((1, len(verts)))])
    b = np.append(x, 1.0)
    res = linprog(np.zeros(len(verts)), A_eq=A, b_eq=b, bounds=(0.0, None),
                  method="highs")
    if not res.success:
        return False, np.zeros(len(verts))
    w = np.asarray(res.x, dtype=float)
    residual = float(np.linalg.norm(A @ w - b))
    ok = residual <= tol * (1.0 + float(np.linalg.norm(b)))
    return ok, w


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
    membership_tol: float
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
        member = _membership(self.hulls, X, self.membership_tol)
        outside = np.flatnonzero(~member[0])
        if len(outside):
            raise InvalidModel(
                f"act {tuple(X[outside[0]])} lies outside the sampled hull family")
        return self.levels[_bisect_levels(member, np.zeros(len(X), dtype=int))]

    def evaluate(self, x) -> float:
        """Top feasible hull level for an arbitrary act in the box."""
        return float(self.evaluate_batch(x)[0])


def quasiconcavify(model, box_bound: float = 10.0, resolution: int = 21,
                   level_resolution: int = 64, membership_tol: float = 1e-9,
                   bisect_tol: float = 1e-10) -> QuasiConcaveBenchmark:
    """Quasi-concave envelope from convex hulls of sampled upper level sets.

    Supported for up to 3 states (hull cost). For each level c on an even
    grid spanning the sampled utility range, the hull of {x : u(x) >= c} is
    precomputed as half-spaces; membership of every grid point in every
    hull is one boolean matrix. The envelope value of a grid point is the
    highest level whose hull still contains it (feasibility is monotone
    because the hulls are nested), clamped below by u(x) so v >= u holds
    exactly. One LP per grid point, at its final level only, gives the
    convex decomposition returned as a probe for the uncertainty-aversion
    meter.
    """
    d = model.n_states
    if d > 3:
        raise InvalidModel("quasi-concave envelope supported for at most 3 states")
    pts = grid_sample("box", d, resolution, bound=box_bound)
    u = np.array([ce_utility(model, x, tol=bisect_tol) for x in pts])
    lo, hi = float(np.min(u)), float(np.max(u))
    if hi <= lo:
        raise InvalidModel("utility is constant on the box; envelope is trivial")
    levels = np.linspace(lo, hi, level_resolution)
    hulls = tuple(_level_hull(pts[u >= c - 1e-12], membership_tol) for c in levels)
    member = _membership(hulls, pts, membership_tol)
    cols = np.arange(len(pts))
    start = np.clip(np.searchsorted(levels, u + 1e-12) - 1, 0, len(levels) - 1)
    # x is in its own level cloud; only rounding can make it step down
    down = ~member[start, cols] & (start > 0)
    while down.any():
        start = start - down
        down = ~member[start, cols] & (start > 0)
    top = _bisect_levels(member, start)
    v = np.maximum(levels[top], u)
    probes: list[tuple[np.ndarray, np.ndarray]] = []
    for j in np.flatnonzero(member[top, cols]):
        verts = hulls[top[j]].verts
        ok, w = _hull_decomposition(pts[j], verts, membership_tol)
        mask = w > 1e-10
        if ok and int(np.count_nonzero(mask)) >= 2:
            weights = w[mask]
            probes.append((verts[mask], weights / weights.sum()))
    return QuasiConcaveBenchmark(
        points=pts, u_values=u, v_values=v, levels=levels, hulls=hulls,
        box_bound=box_bound, resolution=resolution, membership_tol=membership_tol,
        probes=tuple(probes),
    )


def verify_quasiconcave_bound(model, benchmark: QuasiConcaveBenchmark,
                              eps_ua: float, slack: float | None = None,
                              tol: float = 1e-9, seed: int = 0,
                              n_qc_checks: int = 200,
                              lambdas: tuple[float, ...] = (0.25, 0.5, 0.75)) -> NearRepresentation:
    """Check v >= u, sup |v - u| <= d eps_ua + slack, and spot quasi-concavity.

    slack defaults to one level spacing plus 1e-9 (the envelope is resolved
    only to the level grid). Quasi-concavity is spot-checked on seeded grid
    pairs: the envelope at a mixture may not fall more than one level
    spacing below the worse endpoint. All mixtures are evaluated in one
    batched half-space pass; the first violation in draw order is raised.
    """
    spacing = benchmark.level_spacing
    if slack is None:
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
    d = benchmark.n_states
    bound = d * eps_ua
    if sup > bound + slack:
        raise BoundViolated(
            f"sup |v - u| = {sup!r} exceeds d eps + slack = {bound + slack!r}",
            witness={"x": tuple(benchmark.points[i_max]), "gap": sup})
    rng = np.random.default_rng(seed)
    pts = benchmark.points
    pairs = np.array([rng.integers(0, len(pts), size=2) for _ in range(n_qc_checks)],
                     dtype=int).reshape(-1, 2)
    lam_col = np.asarray(lambdas, dtype=float)[None, :, None]
    mixtures = lam_col * pts[pairs[:, 0]][:, None, :] \
        + (1.0 - lam_col) * pts[pairs[:, 1]][:, None, :]
    vms = benchmark.evaluate_batch(mixtures.reshape(-1, d)).reshape(len(pairs), len(lambdas))
    qc_worst = 0.0
    qc_witness = None
    for (i, j), row in zip(pairs, vms):
        for lam, vm in zip(lambdas, row):
            shortfall = min(float(v[i]), float(v[j])) - spacing - float(vm)
            if shortfall > qc_worst:
                qc_worst = shortfall
                qc_witness = {"x": tuple(benchmark.points[i]),
                              "y": tuple(benchmark.points[j]), "lam": float(lam)}
            if shortfall > tol:
                raise BoundViolated(
                    f"envelope not quasi-concave: mixture falls {shortfall!r} below "
                    f"the worse endpoint minus one level spacing",
                    witness={"x": tuple(benchmark.points[i]),
                             "y": tuple(benchmark.points[j]), "lam": float(lam)})
    return NearRepresentation(
        kind="quasiconcave",
        parameters={"box_bound": benchmark.box_bound,
                    "resolution": benchmark.resolution,
                    "levels": len(benchmark.levels)},
        achieved_distance=sup,
        bound=bound,
        details={"slack": slack, "level_spacing": spacing, "eps_ua": eps_ua,
                 "qc_checks": n_qc_checks, "qc_worst_shortfall": qc_worst,
                 "qc_witness": qc_witness,
                 "argmax": tuple(benchmark.points[i_max])},
    )
