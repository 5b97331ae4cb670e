"""Exponential-closeness meters for discount curves and reward timing.

Discrete curves d(t) are handled entirely in log space: the stationarity
defect psi(s, t) = |log d(s+t) - log d(s) - log d(t)| feeds a dyadic series
whose sum bounds |log(d(t) / gamma^t)| for the doubling-rate gamma, and a
separate recipe recovers gamma from the first horizon where d drops below a
threshold set by the multiplicative-axiom defect. Continuous reward-timing
models u(x, t) get an indifference-delay curve gamma(x) and a time-shift
benchmark h(x, t) = g(t + gamma(x)) whose gap is controlled by the measured
stationarity and delay-Lipschitz constants. Each reward-timing model inverts
its own present-value curve g(t) = u(x_bar, t) (delay_at), so no delay is
searched for. The curve and reward-timing models are defined here too;
nothing in this module needs numpy.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .core import (RATIO_TOL, SUM_TOL, VERIFY_TOL, BoundViolated, HypothesisFailed, InvalidModel,
                   NearRepresentation, NoBracket, NoSuchTau, NotConverged, ViolationReport,
                   _finite, _Record, discount, dyadic_tail_sum)

__all__ = [
    "Exponential",
    "QuasiHyperbolic",
    "Hyperbolic",
    "TabulatedDiscount",
    "LinearDelay",
    "LogDelay",
    "psi",
    "theta_series",
    "theta_over_sample",
    "GammaFit",
    "fit_gamma",
    "verify_exp_bound",
    "measure_W_axiom",
    "exact_recovery",
    "gamma_of",
    "GammaCurve",
    "continuous_gamma_curve",
    "measure_eps_stationarity",
    "measure_lambda_lipschitz",
    "verify_exp3_bound",
]

BRACKET_CAP = 2.0 ** 60  # longest indifference delay or time shift; beyond it NoBracket
TAU_CAP = 10 ** 6  # exact_recovery scans horizons up to here
EXACT_TOL = 1e-12  # exact_recovery calls a curve exponential when its level gap is at most this
FIT_TOL = 1e-9  # Cauchy tolerance of fit_gamma's doubling-rate iterates
TIGHT_TOL = 1e-9  # slack of the quasi-hyperbolic builtin, whose bound is attained exactly
CEILING_TOL = 1e-12  # how far a payment, or u(x_bar, 0), may sit from the ceiling x_bar
NORMALIZATION_TOL = 1e-9  # largest |u(x, 0) - x| continuous_gamma_curve accepts


# ---------------------------------------------------------------------------
# discrete-time discount models: log_d(t) over integer delays up to T_max (None: no horizon)

class Exponential(_Record):
    """d(t) = gamma^t."""

    T_max = None

    def __init__(self, gamma: float):
        if not 0.0 < gamma < 1.0:
            raise InvalidModel(f"gamma {gamma!r} outside (0, 1)")
        self.gamma = gamma

    def log_d(self, t: int) -> float:
        _check_delay(self, t)
        return t * math.log(self.gamma)


class QuasiHyperbolic(_Record):
    """d(0) = 1, d(t) = beta * delta^t for t >= 1."""

    T_max = None

    def __init__(self, beta: float, delta: float):
        if not 0.0 < beta <= 1.0:
            raise InvalidModel(f"beta {beta!r} outside (0, 1]")
        if not 0.0 < delta < 1.0:
            raise InvalidModel(f"delta {delta!r} outside (0, 1)")
        self.beta, self.delta = beta, delta

    def log_d(self, t: int) -> float:
        _check_delay(self, t)
        if t == 0:
            return 0.0
        return math.log(self.beta) + t * math.log(self.delta)


class Hyperbolic(_Record):
    """d(t) = 1 / (1 + k t)."""

    T_max = None

    def __init__(self, k: float):
        _finite((k,), "k")
        if not k > 0.0:
            raise InvalidModel(f"k {k!r} must be positive")
        self.k = k

    def log_d(self, t: int) -> float:
        _check_delay(self, t)
        return -math.log1p(self.k * t)


class TabulatedDiscount(_Record):
    """Finite-horizon curve given by levels d(0), ..., d(T_max).

    Levels must be strictly positive with d(0) = 1 within 1e-12; storage is
    log space.
    """

    def __init__(self, values: Sequence[float]):
        v = _finite(values, "discount levels")
        if len(v) < 2:
            raise InvalidModel("need at least d(0) and d(1)")
        if any(x <= 0.0 for x in v):
            raise InvalidModel("discount levels must be strictly positive")
        if abs(v[0] - 1.0) > SUM_TOL:
            raise InvalidModel(f"d(0) = {v[0]!r}, must be 1")
        self.values = v
        self._log_values = tuple(math.log(x) for x in v)

    @property
    def T_max(self) -> int:
        return len(self.values) - 1

    def log_d(self, t: int) -> float:
        _check_delay(self, t)
        return self._log_values[t]


def _check_delay(model, t: int) -> None:
    _check_t(t, "delay")
    if model.T_max is not None and t > model.T_max:
        raise InvalidModel(f"delay {t} beyond horizon T_max={model.T_max}")


def _check_t(t: int, name: str = "t") -> int:
    if t < 0 or int(t) != t:
        raise InvalidModel(f"{name} must be a nonnegative integer, got {t!r}")
    return int(t)


def psi(model, s: int, t: int) -> float:
    """Log-space stationarity defect |log d(s+t) - log d(s) - log d(t)|.

    Symmetric in (s, t) and zero whenever either delay is 0 (d(0) = 1).
    """
    s = _check_t(s, "s")
    t = _check_t(t, "t")
    return abs(model.log_d(s + t) - model.log_d(s) - model.log_d(t))


def _horizon_cap(model, t: int, n_max: int) -> int:
    """Largest i with 2^{i+1} t within the curve's horizon."""
    cap = n_max
    if model.T_max is not None and t > 0:
        cap = min(cap, int(math.floor(math.log2(model.T_max / t))) - 1)
    return max(cap, -1)


def theta_series(model, t: int, n_max: int) -> ViolationReport:
    """Dyadic defect series sum_i 2^{-(i+1)} psi(2^i t, 2^i t) at anchor t.

    details carry the raw terms, partial sums, the convergence verdict, and
    the last scaled defect 2^{-n} psi(2^n t, 2^n t) whose decay the theorem's
    diagnostic tracks.
    """
    t = _check_t(t)
    cap = _horizon_cap(model, t, n_max)
    terms = [(2.0 ** -(i + 1)) * psi(model, (2 ** i) * t, (2 ** i) * t) for i in range(cap + 1)]
    total, converged = dyadic_tail_sum(terms) if terms else (0.0, True)
    partials = list(itertools.accumulate(terms))
    return ViolationReport(
        axiom="stationarity-dyadic-series",
        value=total,
        witness={"t": t},
        samples_evaluated=len(terms),
        details={"converged": converged, "terms": terms, "partial_sums": partials,
                 "n_terms": len(terms), "ratio_tol": RATIO_TOL,
                 "last_scaled_psi": 2.0 * terms[-1] if terms else 0.0},
    )


def theta_over_sample(model, t_sample: Sequence[int], n_max: int) -> tuple[ViolationReport, bool]:
    """Max of theta_series over the anchors, with the combined decay verdict."""
    return _worst_series(t_sample, [theta_series(model, t, n_max) for t in t_sample], n_max)


def _worst_series(t_sample: Sequence[int], series: Sequence[ViolationReport],
                  n_max: int) -> tuple[ViolationReport, bool]:
    """theta_over_sample's report from the theta_series of each anchor of t_sample."""
    if not series:
        raise InvalidModel("empty t_sample")
    best = max(series, key=lambda rep: rep.value)  # the first of equal values
    all_converged = all(rep.details["converged"] for rep in series)
    count = sum(rep.samples_evaluated for rep in series)
    report = ViolationReport(
        axiom="stationarity-dyadic-series",
        value=best.value,
        witness=best.witness,
        samples_evaluated=count,
        details={"converged": all_converged, "t_sample": tuple(t_sample),
                 "witness_partial_sums": best.details["partial_sums"],
                 "n_max": n_max},
    )
    return report, all_converged


class GammaFit(_Record):
    """Doubling-rate fit gamma = exp(lim 2^{-n} log d(2^n))."""

    def __init__(self, gamma: float, log_gamma: float, n_used: int, degenerate: bool,
                 extrapolated: bool, iterates: tuple[float, ...]):
        self.gamma, self.log_gamma, self.n_used = gamma, log_gamma, n_used
        self.degenerate, self.extrapolated, self.iterates = degenerate, extrapolated, iterates


def fit_gamma(model, n_max: int) -> GammaFit:
    """Fit the exponential rate from log d(2^n) / 2^n.

    Stops on the scaled Cauchy criterion |a_n - a_{n-1}| <= FIT_TOL 2^{-n}; when
    the cap arrives first but the signed increments show a stable geometric
    ratio in (0.05, 0.9), the limit is completed with the geometric tail
    (exact for curves whose increments halve, e.g. a one-shot level shift).
    degenerate flags gamma >= 1 - 1e-9: the curve decays slower than any
    exponential and the fit carries no closeness guarantee.
    """
    cap = n_max
    if model.T_max is not None:
        cap = min(cap, int(math.floor(math.log2(model.T_max))))
    if cap < 0:
        raise InvalidModel("horizon too short to fit a rate")
    iterates = [model.log_d(1)]
    increments: list[float] = []
    converged = False
    extrapolated = False
    n = 0
    while n < cap:
        n += 1
        a = model.log_d(2 ** n) / (2 ** n)
        inc = a - iterates[-1]
        iterates.append(a)
        increments.append(inc)
        if abs(inc) <= FIT_TOL * (2.0 ** -n):
            converged = True
            break
    a_final = iterates[-1]
    if not converged and len(increments) >= 2 and abs(increments[-2]) > 0.0:
        r = increments[-1] / increments[-2]
        if 0.05 < r < 0.9:
            a_final = a_final + increments[-1] * r / (1.0 - r)
            converged = True
            extrapolated = True
    if not converged and increments and abs(increments[-1]) > FIT_TOL:
        raise NotConverged(
            f"rate iterates neither Cauchy nor geometric within n={cap}", iterates)
    log_gamma = min(a_final, 0.0)
    gamma = math.exp(log_gamma)
    return GammaFit(
        gamma=gamma,
        log_gamma=log_gamma,
        n_used=n,
        degenerate=gamma >= 1.0 - 1e-9,
        extrapolated=extrapolated,
        iterates=tuple(iterates),
    )


def verify_exp_bound(model, gamma: float, theta_hat: float,
                     t_range: Sequence[int], tol: float | None = None) -> NearRepresentation:
    """Check |log d(t) - t log gamma| <= Theta-hat + tol over t_range.

    tol None reads VERIFY_TOL at call time. The defect is measured in log
    space, matching the series that produced Theta-hat; t_range should stay
    within the anchors' dyadic coverage (the callers default to the anchor
    sample itself).
    """
    tol = VERIFY_TOL if tol is None else tol
    if not 0.0 < gamma <= 1.0:
        raise InvalidModel(f"gamma {gamma!r} outside (0, 1]")
    log_gamma = math.log(gamma)
    worst = (0.0, None)
    count = 0
    for t in t_range:
        t = _check_t(t)
        defect = abs(model.log_d(t) - t * log_gamma)
        count += 1
        if defect > worst[0]:
            worst = (defect, t)
        if defect > theta_hat + tol:
            raise BoundViolated(
                f"|log d(t) - t log gamma| = {defect!r} at t={t} exceeds "
                f"Theta + tol = {theta_hat + tol!r}",
                witness={"t": t, "defect": defect, "theta": theta_hat})
    return NearRepresentation(
        kind="exponential-discount",
        parameters={"gamma": gamma},
        achieved_distance=worst[0],
        bound=theta_hat,
        details={"tol": tol, "log_space": True, "n_t": count,
                 "argmax_t": worst[1]},
    )


def measure_W_axiom(model, t_max: int) -> ViolationReport:
    """Worst multiplicative defect |f(s+t) - f(s) f(t)| of f = 1/d.

    Probes all pairs 1 <= s <= t with s + t <= t_max (and within the
    curve's horizon). Requires d strictly decreasing over the probed range
    (HypothesisFailed otherwise).
    """
    t_cap = t_max if model.T_max is None else min(t_max, model.T_max)
    pairs = [(s, t) for s in range(1, t_cap) for t in range(s, t_cap + 1 - s)]
    horizon = max((s + t for s, t in pairs), default=0)
    prev = model.log_d(0)
    for t in range(1, horizon + 1):
        cur = model.log_d(t)
        if not cur < prev:
            raise HypothesisFailed(
                f"discount curve not strictly decreasing at t={t}",
                witness={"t": t, "log_d": cur, "log_d_prev": prev})
        prev = cur
    best = (0.0, None)
    for s, t in pairs:
        defect = abs(math.exp(-model.log_d(s + t))
                     - math.exp(-model.log_d(s)) * math.exp(-model.log_d(t)))
        if defect > best[0]:
            best = (defect, {"s": s, "t": t})
    return ViolationReport(
        axiom="multiplicative-W",
        value=best[0],
        witness=best[1] or {},
        samples_evaluated=len(pairs),
        details={"t_max": t_max, "f": "reciprocal-discount"},
    )


def exact_recovery(model, theta_W: float) -> NearRepresentation:
    """Recover gamma from the first horizon tau with d(tau) <= the threshold.

    The threshold is min(1/4, 1/(4 Theta_W-hat)) (1/4 when the defect is 0);
    gamma = d(tau)^{1/tau}. Raises NoSuchTau when no horizon qualifies in
    range (at most TAU_CAP). The achieved distance is max_t |d(t) - gamma^t|
    over t = 0..4 tau (within the horizon); it is 0 exactly for genuinely
    exponential curves and reported, not asserted, otherwise.
    """
    if theta_W < 0.0:
        raise InvalidModel("theta_W must be nonnegative")
    threshold = 0.25 if theta_W == 0.0 else min(0.25, 1.0 / (4.0 * theta_W))
    log_thr = math.log(threshold)
    scan_cap = TAU_CAP if model.T_max is None else min(TAU_CAP, model.T_max)
    tau = None
    for cand in range(1, scan_cap + 1):
        if model.log_d(cand) <= log_thr:
            tau = cand
            break
    if tau is None:
        raise NoSuchTau(
            f"no horizon up to {scan_cap} has discount at or below {threshold!r}")
    log_gamma = model.log_d(tau) / tau
    gamma = math.exp(log_gamma)
    top = 4 * tau if model.T_max is None else min(4 * tau, model.T_max)
    worst = (0.0, None)
    count = 0
    for t in range(top + 1):
        defect = abs(discount(model, t) - math.exp(t * log_gamma))
        count += 1
        if defect > worst[0]:
            worst = (defect, t)
    return NearRepresentation(
        kind="exponential-discount",
        parameters={"gamma": gamma, "tau": tau, "threshold": threshold},
        achieved_distance=worst[0],
        bound=0.0,
        details={"theta_W": theta_W, "n_probes": count, "argmax_t": worst[1],
                 "exact": worst[0] <= EXACT_TOL, "tol": EXACT_TOL},
    )


# ---------------------------------------------------------------------------
# continuous-time reward-timing models: value(x, t) on (-inf, x_bar] x [0, inf)

class LinearDelay(_Record):
    """u(x, t) = x - rate * t; stationary benchmark with exact time shifts."""

    def __init__(self, x_bar: float, rate: float = 1.0):  # a scenario's default rate too
        _finite((x_bar, rate), "x_bar and rate")
        if not rate > 0.0:
            raise InvalidModel("rate must be positive")
        self.x_bar, self.rate = x_bar, rate

    def value(self, x: float, t: float) -> float:
        _check_xt(self, x, t)
        return x - self.rate * t

    def delay_at(self, v: float) -> float:
        """The t with u(x_bar, t) = v."""
        return (self.x_bar - v) / self.rate


class LogDelay(_Record):
    """u(x, t) = x - log(1 + k t); delay sensitivity decays, shifts are inexact."""

    def __init__(self, x_bar: float, k: float):
        _finite((x_bar, k), "x_bar and k")
        if not k > 0.0:
            raise InvalidModel("k must be positive")
        self.x_bar, self.k = x_bar, k

    def value(self, x: float, t: float) -> float:
        _check_xt(self, x, t)
        return x - math.log1p(self.k * t)

    def delay_at(self, v: float) -> float:
        """The t with u(x_bar, t) = v; inf where that t overflows a float."""
        try:
            return math.expm1(self.x_bar - v) / self.k
        except OverflowError:  # expm1 raises rather than return inf
            return math.inf


def _check_xt(model, x: float, t: float) -> None:
    if x > model.x_bar + CEILING_TOL:
        raise InvalidModel(f"payment {x!r} above the ceiling x_bar={model.x_bar!r}")
    if t < 0.0:
        raise InvalidModel(f"delay {t!r} must be nonnegative")


def gamma_of(model, x: float) -> float:
    """Indifference delay: the t with u(x_bar, t) = x; gamma(x_bar) = 0 exactly.

    The model's own inverse, model.delay_at(x). NoBracket when that delay
    is not finite or above BRACKET_CAP: the delayed ceiling does not reach
    x in time (divergence fails on the probed range).
    """
    if x > model.x_bar:
        raise InvalidModel(f"payment {x!r} above the ceiling {model.x_bar!r}")
    t = model.delay_at(x)
    if not t <= BRACKET_CAP:
        raise NoBracket(f"u(x_bar, t) stays above {x!r} out to t={BRACKET_CAP!r}; "
                        "no indifference delay")
    return t


class GammaCurve(_Record):
    """Tabulated indifference delays gamma(x) for a reward-timing model."""

    def __init__(self, xs: tuple[float, ...], gammas: tuple[float, ...]):
        self.xs, self.gammas = xs, gammas

    def table(self) -> tuple[list[str], list[list]]:
        return ["x", "gamma"], [[x, g] for x, g in zip(self.xs, self.gammas)]


def continuous_gamma_curve(model, xs: Sequence[float]) -> GammaCurve:
    """Tabulate gamma(x) over xs, validating u(x, 0) = x on the way.

    HypothesisFailed when the model does not return the payment at zero
    delay (within NORMALIZATION_TOL); that normalization is what makes the
    indifference delay well defined.
    """
    xs = tuple(float(x) for x in xs)
    gammas = []
    for x in xs:
        now = model.value(x, 0.0)
        if abs(now - x) > NORMALIZATION_TOL:
            raise HypothesisFailed(
                f"u(x, 0) = {now!r} differs from x = {x!r}",
                witness={"x": x, "value_at_zero": now})
        gammas.append(gamma_of(model, x))
    return GammaCurve(xs=xs, gammas=tuple(gammas))


def measure_eps_stationarity(model, curve: GammaCurve,
                             deltas: Sequence[float]) -> ViolationReport:
    """Worst time-shift defect |delta' - delta| in delay units.

    delta' restores indifference after moving the comparison to the ceiling:
    u(x_bar, gamma(x) + delta') = u(x, delta), so delta' is
    model.delay_at(u(x, delta)) - gamma(x), with gamma(x) read from the
    curve. Under exact stationarity delta' = delta. NoBracket when a delta'
    is not finite or above BRACKET_CAP.
    """
    deltas = [float(d) for d in deltas]
    best = (0.0, None)
    count = 0
    for x, t0 in zip(curve.xs, curve.gammas):
        for delta in deltas:
            if delta <= 0.0:
                raise InvalidModel("deltas must be positive")
            delta_prime = model.delay_at(model.value(x, delta)) - t0
            if not delta_prime <= BRACKET_CAP:
                raise NoBracket(f"delayed ceiling never reaches u({x!r}, {delta!r})")
            defect = abs(delta_prime - delta)
            count += 1
            if defect > best[0]:
                best = (defect, {"x": x, "delta": delta, "delta_prime": delta_prime})
    return ViolationReport(
        axiom="stationarity",
        value=best[0],
        witness=best[1] or {},
        samples_evaluated=count,
        details={"n_x": len(curve.xs), "n_deltas": len(deltas)},
    )


def measure_lambda_lipschitz(model, xs: Sequence[float], ts: Sequence[float],
                             deltas: Sequence[float]) -> ViolationReport:
    """Largest sampled delay sensitivity |u(x, t + delta) - u(x, t)| / delta."""
    xs = [float(x) for x in xs]
    ts = [float(t) for t in ts]
    best = (0.0, None)
    count = 0
    for x in xs:
        for t in ts:
            for delta in deltas:
                delta = float(delta)
                if delta <= 0.0:
                    raise InvalidModel("deltas must be positive")
                slope = abs(model.value(float(x), float(t) + delta)
                            - model.value(float(x), float(t))) / delta
                count += 1
                if slope > best[0]:
                    best = (slope, {"x": float(x), "t": float(t), "delta": delta})
    return ViolationReport(
        axiom="delay-lipschitz",
        value=best[0],
        witness=best[1] or {},
        samples_evaluated=count,
        details={"n_x": len(xs), "n_t": len(ts)},
    )


def verify_exp3_bound(model, curve: GammaCurve, eps_hat: float, lambda_hat: float,
                      ts: Sequence[float]) -> NearRepresentation:
    """Check sup |u(x, t) - g(t + gamma(x))| <= lambda-hat eps-hat + VERIFY_TOL.

    g is the model's own present-value curve g(t) = u(x_bar, t), so the
    benchmark h(x, t) = g(t + gamma(x)) is stationary by construction;
    gamma(x) is read from the curve, over its payments x. The normalization
    u(x_bar, 0) = x_bar is asserted first (gamma_of returns gamma(x_bar) = 0
    exactly); divergence is witnessed by the curve itself, since gamma_of
    refuses a delay above BRACKET_CAP.
    """
    if eps_hat < 0.0 or lambda_hat < 0.0:
        raise InvalidModel("eps_hat and lambda_hat must be nonnegative")
    at_zero = model.value(model.x_bar, 0.0)
    if abs(at_zero - model.x_bar) > CEILING_TOL:
        raise HypothesisFailed(
            f"u(x_bar, 0) = {at_zero!r} differs from x_bar = {model.x_bar!r}")
    bound = lambda_hat * eps_hat
    worst = (0.0, None)
    count = 0
    for x, g_x in zip(curve.xs, curve.gammas):
        for t in ts:
            t = float(t)
            gap = abs(model.value(x, t) - model.value(model.x_bar, t + g_x))
            count += 1
            if gap > worst[0]:
                worst = (gap, {"x": x, "t": t})
            if gap > bound + VERIFY_TOL:
                raise BoundViolated(
                    f"|u - h| = {gap!r} exceeds lambda eps + tol = {bound + VERIFY_TOL!r}",
                    witness={"x": x, "t": t, "gap": gap, "bound": bound})
    return NearRepresentation(
        kind="time-shift",
        parameters={"x_bar": model.x_bar, "eps_hat": eps_hat,
                    "lambda_hat": lambda_hat},
        achieved_distance=worst[0],
        bound=bound,
        details={"tol": VERIFY_TOL, "n_points": count, "argmax": worst[1]},
    )
