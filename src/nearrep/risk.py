"""Mixture-calibration meters and affine benchmarks for lottery models.

The calibrated utility of a lottery is the weight alpha that makes the
best-worst two-prize mixture indifferent to it; exact reduction of compound
lotteries makes that utility affine in the probabilities. The meters here
measure the worst sampled defect of that affinity (and of the independence
axiom), the builders construct the affine benchmark through the degenerate
lotteries, and the verifiers check the quantitative closeness bounds the
defects imply.

All utilities are in calibration units: u(best) = 1, u(worst) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BoundViolated,
    CumulativeProspect,
    HypothesisFailed,
    InvalidModel,
    Lottery,
    NearRepresentation,
    ViolationReport,
    bisect_monotone,
    grid_sample,
    mix_probs,
)

__all__ = [
    "SimplexSampler",
    "AffineBenchmark",
    "mixture_utility",
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

STRICTNESS_MARGIN = 1e-12  # bounds are strict inequalities; meters report sup + this
DEGENERATE_TOL = 1e-12     # calibrated u must hit the benchmark exactly on vertices


@dataclass(frozen=True)
class SimplexSampler:
    """Deterministic lottery sample: lattice grid plus seeded random probes.

    resolution is the lattice denominator (probabilities are multiples of
    1/resolution). n_random_triples controls extra off-lattice mixture
    probes in the reduction meter; n_pairs and n_alphas size the
    independence meter.
    """

    resolution: int = 21
    seed: int = 0
    n_random_triples: int = 200
    n_pairs: int = 40
    n_alphas: int = 5

    def points(self, n_outcomes: int) -> list[Lottery]:
        pts = grid_sample("simplex", n_outcomes, self.resolution)
        return [Lottery(tuple(row)) for row in pts]


def _segment_probs(model, alpha: float) -> tuple[float, ...]:
    """Two-prize mixture alpha best + (1 - alpha) worst on the full space."""
    probs = [0.0] * model.n_outcomes
    probs[model.best_index] = alpha
    probs[model.worst_index] = 1.0 - alpha
    return tuple(probs)


def mixture_utility(model, p, tol: float = 1e-10, cache: dict | None = None) -> float:
    """Calibrated utility: the alpha solving model(seg(alpha)) = model(p).

    Requires model values along the calibration segment to bracket the value
    of p (raises NoBracket otherwise, e.g. a lottery strictly better than
    the best prize). Exact hits on the endpoints return 0.0 or 1.0 exactly.
    """
    probs = p.probs if isinstance(p, Lottery) else tuple(float(v) for v in p)
    if cache is not None:
        hit = cache.get(probs)
        if hit is not None:
            return hit
    target = model.value(probs)
    v_best = model.value(_segment_probs(model, 1.0))
    v_worst = model.value(_segment_probs(model, 0.0))
    if target == v_best:
        alpha = 1.0
    elif target == v_worst:
        alpha = 0.0
    else:
        alpha = bisect_monotone(lambda a: model.value(_segment_probs(model, a)) - target,
                                0.0, 1.0, tol=tol)
    if cache is not None:
        cache[probs] = alpha
    return alpha


@dataclass(frozen=True)
class AffineBenchmark:
    """Affine function through the calibrated degenerate utilities."""

    coefficients: tuple[float, ...]

    def evaluate(self, p) -> float:
        probs = p.probs if isinstance(p, Lottery) else p
        return math.fsum(c * q for c, q in zip(self.coefficients, probs))


def build_affine_benchmark(model, tol: float = 1e-10) -> AffineBenchmark:
    """Affine benchmark l(p) = sum_i p_i u(delta_i) in calibration units."""
    n = model.n_outcomes
    coeffs = tuple(mixture_utility(model, Lottery.degenerate(i, n), tol=tol)
                   for i in range(n))
    return AffineBenchmark(coefficients=coeffs)


def _peel_chain(p: Lottery) -> list[tuple[Lottery, Lottery, float, Lottery]]:
    """Vertex-peeling mixture triples whose defects cover the affine gap at p.

    Each entry (vertex, tail, lam, whole) satisfies
    whole = lam * vertex + (1 - lam) * tail exactly, and the chain telescopes
    p down to a degenerate lottery, so the affine gap at p is at most the sum
    of the |support(p)| - 1 mixture defects along it.
    """
    n = len(p.probs)
    support = list(p.support)
    chain = []
    cur = list(p.probs)
    mass = 1.0
    for i in support[:-1]:
        lam = cur[i] / mass
        if lam >= 1.0:
            break  # rounding swallowed the rest of the support
        whole = Lottery(tuple(v / mass for v in cur))
        nxt = list(cur)
        nxt[i] = 0.0
        tail_mass = mass - cur[i]
        tail = Lottery(tuple(v / tail_mass for v in nxt))
        chain.append((Lottery.degenerate(i, n), tail, lam, whole))
        cur = nxt
        mass = tail_mass
    return chain


def _mixture_probes(points: list[Lottery], sampler: SimplexSampler):
    """Yield (left, right, lam, mixture) with mixture = lam * left + (1 - lam) * right.

    Every vertex-peeling step of every grid lottery comes first (these are
    the triples whose defects bound the affine gap pointwise), then a seeded
    batch of random grid-pair mixtures at uniform weights. The probes are
    streamed, never held as a list: fine grids give thousands of them.
    """
    for p in points:
        if not p.is_degenerate:
            yield from _peel_chain(p)
    rng = np.random.default_rng(sampler.seed)
    for _ in range(sampler.n_random_triples):
        i, j = rng.integers(0, len(points), size=2)
        lam = float(rng.uniform())
        yield points[i], points[j], lam, points[i].mix(points[j], lam)


def _worst_mixture_defect(model, points: list[Lottery], sampler: SimplexSampler,
                          tol: float, cache: dict) -> tuple[float, dict, int]:
    """Largest |u(mixture) - (lam u(left) + (1 - lam) u(right))| over the probes.

    Returns the defect (0.0 when nothing was probed), its witness and the
    number of probes, on the model's calibrated utility.
    """
    u = lambda q: mixture_utility(model, q, tol=tol, cache=cache)
    best = (-1.0, None)
    count = 0
    for left, right, lam, whole in _mixture_probes(points, sampler):
        defect = abs(u(whole) - (lam * u(left) + (1.0 - lam) * u(right)))
        count += 1
        if defect > best[0]:
            best = (defect, {"left": left.probs, "right": right.probs,
                             "lam": lam, "mixture": whole.probs})
    return max(best[0], 0.0), best[1] or {}, count


def measure_eps_rcl(model, sampler: SimplexSampler | None = None,
                    tol: float = 1e-10, cache: dict | None = None) -> ViolationReport:
    """Worst sampled reduction-of-compound-lotteries defect, plus 1e-12.

    Probes every vertex-peeling decomposition of every grid lottery (these
    are the triples whose defects bound the affine gap pointwise) and a
    seeded batch of random grid-pair mixtures at uniform weights.
    """
    sampler = sampler or SimplexSampler()
    cache = {} if cache is None else cache
    points = sampler.points(model.n_outcomes)
    max_defect, witness, count = _worst_mixture_defect(model, points, sampler, tol, cache)
    return ViolationReport(
        axiom="reduction-of-compound-lotteries",
        value=max_defect + STRICTNESS_MARGIN,
        witness=witness,
        samples_evaluated=count,
        details={"margin": STRICTNESS_MARGIN, "max_defect": max_defect,
                 "resolution": sampler.resolution, "seed": sampler.seed,
                 "bisect_tol": tol},
    )


def verify_thm1(model, benchmark: AffineBenchmark, eps_hat: float,
                sampler: SimplexSampler | None = None, slack: float = 1e-7,
                tol: float = 1e-10, cache: dict | None = None) -> NearRepresentation:
    """Check |u(p) - l(p)| <= (support(p) - 1) * eps_hat + slack on the grid.

    Degenerate lotteries must agree exactly (within 1e-12). Raises
    BoundViolated with the witness lottery otherwise. The returned
    representation records the sup-norm gap against the global bound
    d * eps_hat with d = n_outcomes - 1.
    """
    sampler = sampler or SimplexSampler()
    cache = {} if cache is None else cache
    points = sampler.points(model.n_outcomes)
    worst_gap = 0.0
    worst_p = None
    for p in points:
        u = mixture_utility(model, p, tol=tol, cache=cache)
        gap = abs(u - benchmark.evaluate(p))
        if p.is_degenerate:
            if gap > DEGENERATE_TOL:
                raise BoundViolated(
                    f"degenerate lottery has |u - l| = {gap!r}, expected exact agreement",
                    witness={"p": p.probs, "gap": gap})
            continue
        allowed = (p.support_size - 1) * eps_hat + slack
        if gap > allowed:
            raise BoundViolated(
                f"|u - l| = {gap!r} exceeds (supp-1)*eps + slack = {allowed!r}",
                witness={"p": p.probs, "gap": gap, "allowed": allowed,
                         "support_size": p.support_size})
        if gap > worst_gap:
            worst_gap, worst_p = gap, p
    d = model.n_outcomes - 1
    return NearRepresentation(
        kind="affine",
        parameters={"coefficients": benchmark.coefficients},
        achieved_distance=worst_gap,
        bound=d * eps_hat,
        details={"slack": slack, "per_point_rule": "support-minus-one",
                 "n_points": len(points), "resolution": sampler.resolution,
                 "argmax": None if worst_p is None else worst_p.probs,
                 "eps_hat": eps_hat},
    )


def converse_check_4eps(model, benchmark: AffineBenchmark, eps: float,
                        sampler: SimplexSampler | None = None,
                        tol: float = 1e-10) -> ViolationReport:
    """Given sup |u - l| < eps, confirm all sampled mixture defects stay < 4 eps.

    Hypotheses checked first: the model agrees with the benchmark on every
    degenerate lottery (within 1e-9) and stays within eps of it across the
    grid; HypothesisFailed carries the witness when either fails. The probe
    set matches the reduction meter (peeling chains plus random triples), but
    defects are measured on the model's calibrated utility.
    """
    sampler = sampler or SimplexSampler()
    points = sampler.points(model.n_outcomes)
    n = model.n_outcomes
    for i in range(n):
        delta = Lottery.degenerate(i, n)
        gap = abs(model.value(delta.probs) - benchmark.evaluate(delta))
        if gap > 1e-9:
            raise HypothesisFailed(
                f"model differs from benchmark on degenerate {i} by {gap!r}",
                witness={"p": delta.probs, "gap": gap})
    sup_gap = 0.0
    sup_p = None
    for p in points:
        gap = abs(model.value(p.probs) - benchmark.evaluate(p))
        if gap > sup_gap:
            sup_gap, sup_p = gap, p
    if sup_gap >= eps:
        raise HypothesisFailed(
            f"sup |u - l| = {sup_gap!r} is not below eps = {eps!r}",
            witness={"p": sup_p.probs if sup_p else None, "gap": sup_gap, "eps": eps})
    max_defect, witness, count = _worst_mixture_defect(model, points, sampler, tol, {})
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


def _nearest_root(f, center: float, step: float, tol: float,
                  lo: float = 0.0, hi: float = 1.0,
                  zero_tol: float = 0.0) -> float | None:
    """Root of f nearest to center, scanning outward then bisecting.

    Scans both directions in increments of step (clipped to [lo, hi]) until
    each finds a sign change or hits its boundary; returns the closer
    bracketed root, or None when neither direction brackets one. Values
    within zero_tol of zero count as roots: the probe construction carries
    bisection noise, and chasing an exact root of a nearly flat function
    would turn that noise into an arbitrary displacement.
    """
    f_center = f(center)
    if abs(f_center) <= zero_tol:
        return center
    candidates = []
    for direction in (1.0, -1.0):
        prev_a, prev_f = center, f_center
        k = 1
        while True:
            a = center + direction * k * step
            a = min(max(a, lo), hi)
            if a == prev_a:
                break
            fa = f(a)
            if abs(fa) <= zero_tol:
                candidates.append(a)
                break
            if (fa > 0.0) != (prev_f > 0.0):
                b0, b1 = min(prev_a, a), max(prev_a, a)
                candidates.append(bisect_monotone(f, b0, b1, tol=tol))
                break
            prev_a, prev_f = a, fa
            if a in (lo, hi):
                break
            k += 1
    if not candidates:
        return None
    return min(candidates, key=lambda r: abs(r - center))


def measure_eps_independence(model, sampler: SimplexSampler | None = None,
                             tol: float = 1e-10, scan_step: float = 1e-3) -> ViolationReport:
    """Worst sampled independence defect in mixture-weight units.

    For seeded indifferent pairs p ~ q (q found on a segment between
    vertices whose values straddle p's) and probes (r, alpha), alpha' is the
    weight nearest alpha restoring indifference of the two mixtures; the
    defect is |alpha - alpha'|. A probe with no restoring root anywhere in
    [0, 1] records the maximal defect 1.0.
    """
    sampler = sampler or SimplexSampler()
    points = sampler.points(model.n_outcomes)
    n = model.n_outcomes
    vertex_values = [model.value(Lottery.degenerate(i, n).probs) for i in range(n)]
    # indifference is only resolved to the q-segment bisection; value gaps
    # below this floor count as restored rather than driving a root hunt
    value_floor = 10.0 * tol * max(1.0, max(vertex_values) - min(vertex_values))
    rng = np.random.default_rng(sampler.seed)
    interior = [p for p in points if not p.is_degenerate]
    if not interior:
        raise InvalidModel("sampler produced no non-degenerate lotteries")
    order = rng.permutation(len(interior))
    best = (-1.0, None)
    count = 0
    no_root_seen = False
    pairs_done = 0
    for idx in order:
        if pairs_done >= sampler.n_pairs:
            break
        p = interior[idx]
        vp = model.value(p.probs)
        lows = [i for i, v in enumerate(vertex_values) if v < vp - 1e-12]
        highs = [i for i, v in enumerate(vertex_values) if v > vp + 1e-12]
        if not lows or not highs:
            continue
        i_lo = lows[int(rng.integers(0, len(lows)))]
        i_hi = highs[int(rng.integers(0, len(highs)))]
        d_lo = Lottery.degenerate(i_lo, n)
        d_hi = Lottery.degenerate(i_hi, n)
        s = bisect_monotone(
            lambda a: model.value(mix_probs(d_hi.probs, d_lo.probs, a)) - vp,
            0.0, 1.0, tol=tol)
        q = d_hi.mix(d_lo, s)
        pairs_done += 1
        for _ in range(sampler.n_alphas):
            alpha = float(rng.uniform())
            r = points[int(rng.integers(0, len(points)))]
            target = model.value(p.mix(r, alpha).probs)
            F = lambda a: model.value(mix_probs(q.probs, r.probs, a)) - target
            root = _nearest_root(F, alpha, scan_step, tol, zero_tol=value_floor)
            count += 1
            if root is None:
                no_root_seen = True
                defect = 1.0
                witness = {"p": p.probs, "q": q.probs, "r": r.probs,
                           "alpha": alpha, "alpha_prime": None, "no_root": True}
            else:
                defect = abs(alpha - root)
                witness = {"p": p.probs, "q": q.probs, "r": r.probs,
                           "alpha": alpha, "alpha_prime": root, "no_root": False}
            if defect > best[0]:
                best = (defect, witness)
    value = max(best[0], 0.0)
    return ViolationReport(
        axiom="independence",
        value=value,
        witness=best[1] or {},
        samples_evaluated=count,
        details={"pairs": pairs_done, "alphas_per_pair": sampler.n_alphas,
                 "scan_step": scan_step, "no_root_seen": no_root_seen,
                 "resolution": sampler.resolution, "seed": sampler.seed,
                 "bisect_tol": tol},
    )


def verify_thm2(model, eps_hat: float, sampler: SimplexSampler | None = None,
                benchmark: AffineBenchmark | None = None, slack: float = 1e-7,
                tol: float = 1e-10, cache: dict | None = None) -> NearRepresentation:
    """Check sup |u - l| <= (d + 1)^2 * eps_hat + slack on the grid."""
    sampler = sampler or SimplexSampler()
    cache = {} if cache is None else cache
    if benchmark is None:
        benchmark = build_affine_benchmark(model, tol=tol)
    points = sampler.points(model.n_outcomes)
    d = model.n_outcomes - 1
    bound = (d + 1) ** 2 * eps_hat
    worst_gap = 0.0
    worst_p = None
    for p in points:
        u = mixture_utility(model, p, tol=tol, cache=cache)
        gap = abs(u - benchmark.evaluate(p))
        if gap > worst_gap:
            worst_gap, worst_p = gap, p
        if gap > bound + slack:
            raise BoundViolated(
                f"|u - l| = {gap!r} exceeds (d+1)^2 eps + slack = {bound + slack!r}",
                witness={"p": p.probs, "gap": gap})
    return NearRepresentation(
        kind="affine",
        parameters={"coefficients": benchmark.coefficients},
        achieved_distance=worst_gap,
        bound=bound,
        details={"slack": slack, "n_points": len(points),
                 "argmax": None if worst_p is None else worst_p.probs,
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


def allais_report(value_exponent: float = 0.54, weight_exponent: float = 0.74,
                  tol: float = 1e-10) -> AllaisReport:
    """Evaluate the classic common-ratio gambles under the fitted model.

    Gambles: A = (4000, 0.8), B = (3000, 1), C = (4000, 0.2), D = (3000, 0.25)
    and the shifted D' = (3000, 0.27). The report records the pattern
    B > A with C > D (the common-ratio reversal), the restored preference
    D' > C, and the probability lambda* where the 3000-branch overtakes C.
    """
    model = CumulativeProspect(value_exponent, weight_exponent, (4000.0, 3000.0, 0.0))
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
    cache: dict = {}
    alphas = {name: mixture_utility(model, lottery_for(z, p), tol=tol, cache=cache)
              for name, (z, p) in gambles.items()}
    target = values["C"]
    w3000 = model.prize_value(3000.0)
    lam_star = bisect_monotone(lambda lam: model.weight(lam) * w3000 - target,
                               0.0, 1.0, tol=tol)
    return AllaisReport(
        value_exponent=value_exponent,
        weight_exponent=weight_exponent,
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

    def table(self) -> tuple[list[str], list[list]]:
        header = ["p", "weight", "gap"]
        rows = [[float(p), float(w), float(g)]
                for p, w, g in zip(self.probs, self.weights, self.gaps)]
        return header, rows


def figure1_data(resolution: int = 1001, weight_exponent: float = 0.74,
                 claim: float = 0.1) -> Figure1Data:
    """Tabulate w(p) - p and locate max |w(p) - p| to 1e-12.

    The maximum is found on a fixed 1e-5 grid and refined by golden-section
    search, independent of the reporting resolution. within_claim records
    whether the refined maximum stays at or below `claim`; the curve for the
    fitted exponent 0.74 peaks at 0.100776..., slightly above the nominal
    0.1 reading.
    """
    if resolution < 2:
        raise InvalidModel("resolution must be at least 2")
    b = weight_exponent

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
        claim=claim,
        within_claim=bool(max_gap <= claim + STRICTNESS_MARGIN),
    )
