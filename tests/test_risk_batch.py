"""The batched risk pipeline against the one-lottery-at-a-time algorithms it replaced.

The reference functions below are copies of the scalar routines the batch
path took over: per-lottery calibration by scalar bisection, the peeling
chains and random triples of the reduction meter, and the step-by-step
outward scan of the independence meter. They use the same model values, so
any difference comes from the batching itself.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nearrep import risk
from nearrep.cli import run_scenario
from nearrep.core import (
    BISECT_TOL,
    InvalidModel,
    Lottery,
    NoBracket,
    mix_probs,
)
from nearrep.risk import (
    CumulativeProspect,
    ExpectedUtility,
    SimplexSampler,
    TabulatedUtility,
    _LotteryModel,
    _nearest_roots,
    _segments,
    measure_eps_independence,
    measure_eps_rcl,
    mixture_utility_batch,
)
from nearrep.uncertainty import _distinct_rows, bisect_monotone_batch


# --- scalar reference ---------------------------------------------------------

def _ref_bisect(f, lo, hi, tol=1e-10, max_iter=200):
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
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ref_cpt_value(model, probs):
    total, cum, g_prev = 0.0, 0.0, 0.0
    for i in model._rank_order:
        if probs[i] == 0.0:
            continue
        cum += probs[i]
        p = cum
        if p <= 0.0:
            g_cur = 0.0
        elif p >= 1.0:
            g_cur = 1.0
        else:
            b = model.weight_exponent
            g_cur = p ** b / (p ** b + (1.0 - p) ** b) ** (1.0 / b)
        total += (g_cur - g_prev) * model._prize_values[i]
        g_prev = g_cur
    return total


def _ref_value(model, probs):
    if isinstance(model, CumulativeProspect):
        return _ref_cpt_value(model, probs)
    if isinstance(model, ExpectedUtility):
        return math.fsum(p * u for p, u in zip(probs, model.prize_utilities))
    return float(model.fn(tuple(probs)))


def _ref_segment(model, alpha):
    probs = [0.0] * model.n_outcomes
    probs[model.best_index] = alpha
    probs[model.worst_index] = 1.0 - alpha
    return tuple(probs)


def _ref_mixture_utility(model, probs, tol=1e-10):
    target = model.value(probs)
    best, worst = model.value(_ref_segment(model, 1.0)), model.value(_ref_segment(model, 0.0))
    band = 4.0 * np.finfo(float).eps * max(abs(worst), abs(best))  # SNAP_ULPS units
    if worst - band <= target < worst or best < target <= best + band:  # rounded past an end
        target = min(max(target, worst), best)
    if target == best:
        return 1.0
    if target == worst:
        return 0.0
    return _ref_bisect(lambda a: model.value(_ref_segment(model, a)) - target, 0.0, 1.0, tol)


def _ref_peel_chain(p):
    chain, cur, mass = [], list(p.probs), 1.0
    for i in p.support[:-1]:
        lam = cur[i] / mass
        if lam >= 1.0:
            break
        whole = Lottery(tuple(v / mass for v in cur))
        nxt = list(cur)
        nxt[i] = 0.0
        tail_mass = mass - cur[i]
        chain.append((Lottery.degenerate(i, len(cur)),
                      Lottery(tuple(v / tail_mass for v in nxt)), lam, whole))
        cur, mass = nxt, tail_mass
    return chain


def _grid_lotteries(sampler, n):
    return [Lottery(tuple(row)) for row in sampler.grid(n).tolist()]


def _ref_eps_rcl(model, sampler, tol=1e-10):
    points = _grid_lotteries(sampler, model.n_outcomes)
    probes = [t for p in points if not p.is_degenerate for t in _ref_peel_chain(p)]
    rng = np.random.default_rng(sampler.seed)
    for _ in range(sampler.n_random_triples):
        i, j = rng.integers(0, len(points), size=2)
        lam = float(rng.uniform())
        probes.append((points[i], points[j], lam, points[i].mix(points[j], lam)))
    u = {}

    def cal(q):
        if q.probs not in u:
            u[q.probs] = _ref_mixture_utility(model, q.probs, tol)
        return u[q.probs]

    best = (-1.0, None)
    for left, right, lam, whole in probes:
        defect = abs(cal(whole) - (lam * cal(left) + (1.0 - lam) * cal(right)))
        if defect > best[0]:
            best = (defect, {"left": left.probs, "right": right.probs, "lam": lam,
                             "mixture": whole.probs})
    return max(best[0], 0.0), best[1] or {}, len(probes)


def _ref_nearest_root(f, center, step, tol, lo=0.0, hi=1.0, zero_tol=0.0):
    f_center = f(center)
    if abs(f_center) <= zero_tol:
        return center
    candidates = []
    for direction in (1.0, -1.0):
        prev_a, prev_f = center, f_center
        k = 1
        while True:
            a = min(max(center + direction * k * step, lo), hi)
            if a == prev_a:
                break
            fa = f(a)
            if abs(fa) <= zero_tol:
                candidates.append(a)
                break
            if (fa > 0.0) != (prev_f > 0.0):
                candidates.append(_ref_bisect(f, min(prev_a, a), max(prev_a, a), tol))
                break
            prev_a, prev_f = a, fa
            if a in (lo, hi):
                break
            k += 1
    return min(candidates, key=lambda r: abs(r - center)) if candidates else None


def _ref_eps_independence(model, sampler, tol=1e-10, scan_step=1e-3):
    points = _grid_lotteries(sampler, model.n_outcomes)
    n = model.n_outcomes
    vertex_values = [model.value(Lottery.degenerate(i, n).probs) for i in range(n)]
    value_floor = 10.0 * tol * max(1.0, max(vertex_values) - min(vertex_values))
    rng = np.random.default_rng(sampler.seed)
    interior = [p for p in points if not p.is_degenerate]
    best, count, no_root_seen, pairs = -1.0, 0, False, 0
    for idx in rng.permutation(len(interior)):
        if pairs >= sampler.n_pairs:
            break
        p = interior[idx]
        vp = model.value(p.probs)
        lows = [i for i, v in enumerate(vertex_values) if v < vp - 1e-12]
        highs = [i for i, v in enumerate(vertex_values) if v > vp + 1e-12]
        if not lows or not highs:
            continue
        d_lo = Lottery.degenerate(lows[int(rng.integers(0, len(lows)))], n)
        d_hi = Lottery.degenerate(highs[int(rng.integers(0, len(highs)))], n)
        s = _ref_bisect(lambda a: model.value(mix_probs(d_hi.probs, d_lo.probs, a)) - vp,
                        0.0, 1.0, tol)
        q = d_hi.mix(d_lo, s)
        pairs += 1
        for _ in range(sampler.n_alphas):
            alpha = float(rng.uniform())
            r = points[int(rng.integers(0, len(points)))]
            target = model.value(p.mix(r, alpha).probs)
            root = _ref_nearest_root(
                lambda a: model.value(mix_probs(q.probs, r.probs, a)) - target,
                alpha, scan_step, tol, zero_tol=value_floor)
            count += 1
            no_root_seen |= root is None
            best = max(best, 1.0 if root is None else abs(alpha - root))
    return max(best, 0.0), count, pairs, no_root_seen


# --- models -------------------------------------------------------------------

def _bump_fn(amplitude, base):
    def fn(probs):
        out = 1.0
        for v in probs:
            out *= math.sin(math.pi * v)
        return sum(c * v for c, v in zip(base, probs)) + amplitude * out
    return fn


@st.composite
def risk_models(draw):
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["cpt", "eu", "tabulated"]))
    if kind == "cpt":
        prizes = draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n, unique=True))
        return CumulativeProspect(draw(st.floats(0.2, 1.0)), draw(st.floats(0.28, 1.0)),
                                  tuple(map(float, prizes)))
    utilities = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n).filter(
        lambda u: len(set(u)) > 1))
    if kind == "eu":
        return ExpectedUtility(tuple(utilities))
    spread = max(utilities) - min(utilities)
    return TabulatedUtility(_bump_fn(0.05 * spread, utilities), n)


@st.composite
def models_and_lotteries(draw):
    model = draw(risk_models())
    n = model.n_outcomes
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        choice = draw(st.sampled_from(["random", "vertex", "repeat", "sparse"]))
        if choice == "vertex" or (choice == "repeat" and not rows):
            rows.append(Lottery.degenerate(draw(st.integers(0, n - 1)), n).probs)
        elif choice == "repeat":
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            w = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
            if choice == "sparse":
                w = [v if k % 2 else 0.0 for k, v in enumerate(w)]
            if sum(w) <= 0.0:
                w = [1.0] + [0.0] * (n - 1)
            total = sum(w)
            rows.append(Lottery(tuple(v / total for v in w)).probs)
    return model, rows


# --- value_batch --------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(models_and_lotteries())
def test_value_batch_rows_equal_scalar_value(case):
    model, rows = case
    batch = model.value_batch(np.array(rows))
    for k, probs in enumerate(rows):
        # each row alone, bit for bit, whatever else is in the batch
        assert batch[k] == model.value(probs)
        ref = _ref_value(model, probs)
        assert batch[k] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_cpt_value_batch_skips_only_prizes_no_row_uses():
    model = CumulativeProspect(0.6, 0.5, (10.0, 7.0, 3.0, 0.0))
    rows = np.array([[0.5, 0.0, 0.0, 0.5], [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 1.0, 0.0]])
    for k in range(3):
        assert model.value_batch(rows)[k] == model.value_batch(rows[k:k + 1])[0]
        assert model.value_batch(rows)[k] == pytest.approx(
            _ref_cpt_value(model, rows[k].tolist()), rel=1e-13)


def _skipping_cpt_value_batch(model, P):
    """CumulativeProspect.value_batch as it was with the unmoved-prize skip."""
    cum = np.empty((P.shape[1], len(P)))
    moved = []
    for k, i in enumerate(model._rank_order):
        np.add(cum[k - 1] if k else 0.0, P[:, i], out=cum[k])
        if (cum[k] != (cum[k - 1] if k else 0.0)).any():
            moved.append(k)
    G = model.weight(cum[moved])
    total = np.zeros(len(P))
    g_prev = 0.0
    for g, k in zip(G, moved):
        total += (g - g_prev) * model._prize_values[model._rank_order[k]]
        g_prev = g
    return total


@st.composite
def cpt_rows_with_unused_prizes(draw):
    """A rank-dependent model and rows in which some prizes have zero mass in every row."""
    n = draw(st.integers(2, 6))
    prizes = draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n, unique=True))
    model = CumulativeProspect(draw(st.floats(0.2, 1.0)), draw(st.floats(0.28, 1.0)),
                               tuple(map(float, prizes)))
    unused = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    used = [i for i in range(n) if i not in unused]
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        w = [0.0] * n
        for i in used:
            w[i] = draw(st.floats(0.0, 1.0))
        if sum(w) <= 0.0:
            w[used[0]] = 1.0
        total = sum(w)
        rows.append([v / total for v in w])
    return model, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(cpt_rows_with_unused_prizes())
def test_cpt_value_batch_equals_the_skipping_loop_bit_for_bit(case):
    model, P = case
    assert model.value_batch(P).tobytes() == _skipping_cpt_value_batch(model, P).tobytes()
    for k in range(len(P)):  # one-row batches too
        row = P[k:k + 1]
        assert model.value_batch(row).tobytes() == _skipping_cpt_value_batch(model, row).tobytes()


def test_cpt_weight_is_pinned_and_elementwise():
    model = CumulativeProspect(0.6, 0.5, (1.0, 0.0))
    p = np.array([-0.1, 0.0, 0.3, 1.0, 1.0 + 2e-16])
    g = model.weight(p)
    assert g[0] == 0.0 and g[1] == 0.0 and g[3] == 1.0 and g[4] == 1.0
    assert g[2] == model.weight(0.3)


# --- segment_value ------------------------------------------------------------------

_EDGE_ALPHAS = [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53]


@st.composite
def segment_cases(draw):
    """A risk model, segment weights alpha and one (top, bottom) pair or one pair per row."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["cpt", "eu", "tabulated"]))
    if kind == "cpt":  # prizes in any order, so the best may sit at any index
        prizes = draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n, unique=True))
        model = CumulativeProspect(draw(st.floats(0.05, 1.0)), draw(st.floats(0.28, 1.0)),
                                   tuple(prizes))
    elif kind == "eu":
        utilities = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n, unique=True))
        model = ExpectedUtility(tuple(utilities))
    else:
        c = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n, unique=True))
        model = TabulatedUtility(lambda p: sum(x * y for x, y in zip(p, c)) + p[0] * p[-1], n)
    k = draw(st.integers(1, 12))
    alpha = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                          | st.sampled_from(_EDGE_ALPHAS), min_size=k, max_size=k))
    top = draw(st.integers(0, n - 1))
    bottom = (top + draw(st.integers(1, n - 1))) % n
    if draw(st.booleans()):  # one vertex pair per row, as the independence meter passes them
        top = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
        shift = np.array(draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k)))
        bottom = (top + shift) % n
    return model, np.array(alpha), top, bottom


@settings(max_examples=300, deadline=None)
@given(segment_cases())
def test_segment_value_equals_value_batch_on_segment_rows_bit_for_bit(case):
    model, alpha, top, bottom = case
    got = model.segment_value(alpha, top, bottom)
    want = model.value_batch(_segments(alpha, top, bottom, model.n_outcomes))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_only_the_rank_dependent_model_overrides_segment_value():
    # a two-term sum differs from np.vecdot's rounding, so expected utility
    # keeps the value_batch path
    assert CumulativeProspect.segment_value is not _LotteryModel.segment_value
    assert ExpectedUtility.segment_value is _LotteryModel.segment_value
    assert TabulatedUtility.segment_value is _LotteryModel.segment_value


# --- calibration ------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(models_and_lotteries())
def test_mixture_utility_batch_matches_scalar_calibration(case):
    model, rows = case
    try:
        refs = [_ref_mixture_utility(model, probs) for probs in rows]
    except NoBracket:  # a lottery worth more than the best prize, or less than the worst
        with pytest.raises(NoBracket):
            mixture_utility_batch(model, np.array(rows))
        return
    batch = mixture_utility_batch(model, np.array(rows))
    for k, (probs, ref) in enumerate(zip(rows, refs)):
        if ref in (0.0, 1.0):
            assert batch[k] == ref  # endpoint snaps are exact
        assert batch[k] == pytest.approx(ref, abs=1e-10)
        assert batch[k] == mixture_utility_batch(model, [probs])[0]


def test_mixture_utility_batch_endpoints_and_no_bracket():
    u = mixture_utility_batch(ExpectedUtility((1.0, 0.4, 0.0)), np.eye(3))
    assert u[0] == 1.0 and u[2] == 0.0
    assert u[1] == pytest.approx(0.4, abs=1e-10)
    over = TabulatedUtility(lambda p: p[0] + 5.0 * p[1] * p[2], 3)
    with pytest.raises(NoBracket):  # (0, 0.5, 0.5) is worth 1.25, more than the best prize
        mixture_utility_batch(over, np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]))


def test_mixture_utility_batch_takes_a_value_rounded_past_an_end_as_that_end():
    # a mass of 2^-52 or 2^-53 on the better prize rounds the value one unit
    # below the worse prize's own value
    model = CumulativeProspect(1.192092896e-07, 0.7421875, (2.0, 3.0))
    rows = np.array([[1.0 - 2.0 ** -52, 2.0 ** -52], [1.0 - 2.0 ** -53, 2.0 ** -53]])
    assert (model.value_batch(rows) < model.value((1.0, 0.0))).all()
    assert mixture_utility_batch(model, rows).tolist() == [0.0, 0.0]
    assert [_ref_mixture_utility(model, tuple(row)) for row in rows.tolist()] == [0.0, 0.0]


def test_calibration_never_sees_a_repeated_row():
    # callers pass distinct rows: mixture_utility_batch solves every row it gets
    scenario = {"version": 1, "name": "cpt-4", "domain": "risk",
                "model": {"type": "cpt", "value_exponent": 0.7, "weight_exponent": 0.6,
                          "prizes": [1480, 1250, 80, 0]},
                "sampler": {"resolution": 9, "n_random_triples": 40, "n_pairs": 6}}
    sizes = []

    def distinct_only(model, P, tol=BISECT_TOL):
        P = np.asarray(P, dtype=float)
        assert len(_distinct_rows(P)[0]) == len(P)
        sizes.append(len(P))
        return mixture_utility_batch(model, P, tol)

    with mock.patch.object(risk, "mixture_utility_batch", side_effect=distinct_only):
        run_scenario(scenario)
    assert len(sizes) >= 2  # the grid, then the reduction meter's probes


# --- segment inverses --------------------------------------------------------------

@st.composite
def segment_root_cases(draw):
    """A model with its own segment inverse, a prize pair in either order, and targets.

    The targets are the segment's values at drawn weights, at both ends and
    one unit in the last place inside either end.
    """
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        prizes = draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n, unique=True))
        model = CumulativeProspect(draw(st.floats(0.0, 1.0, exclude_min=True)),
                                   draw(st.floats(0.28, 1.0)), tuple(map(float, prizes)))
    else:
        utilities = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n, unique=True))
        model = ExpectedUtility(tuple(utilities))
    top = draw(st.integers(0, n - 1))
    bottom = (top + draw(st.integers(1, n - 1))) % n
    v0, v1 = model.segment_value(np.array([0.0, 1.0]), top, bottom).tolist()
    alpha = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=8)))
    targets = model.segment_value(alpha, top, bottom).tolist()
    targets += draw(st.lists(st.sampled_from(
        [v0, v1, np.nextafter(v0, v1), np.nextafter(v1, v0)]), min_size=1, max_size=4))
    order = draw(st.permutations(range(len(targets))))
    tol = draw(st.sampled_from([1e-12, BISECT_TOL, 1e-6]))
    return model, np.array(targets)[list(order)], top, bottom, tol


def _rounding_width(model, top, bottom, alpha):
    """Width in alpha over which a few rounding units of the segment's values can flip a gap.

    Two roots of the computed segment_value - target farther apart than tol
    are both right within this: the gap is noisy there. None where the
    segment is flat to rounding around alpha, so that no width is known.
    """
    ends = model.segment_value(np.array([0.0, 1.0]), top, bottom)
    lo, hi = max(alpha - 1e-6, 0.0), min(alpha + 1e-6, 1.0)
    v = model.segment_value(np.array([lo, hi]), top, bottom)
    # the local slope, or the mean one where the values are too coarse to see it
    slope = min(abs(v[1] - v[0]) / (hi - lo), abs(ends[1] - ends[0]))
    return 8.0 * np.finfo(float).eps * np.max(np.abs(ends)) / slope if slope else None


def _gap_vanishes_or_turns_within(model, top, bottom, target, alpha, tol):
    """Whether the computed gap is zero at alpha or changes sign within tol of it."""
    a = np.array([max(alpha - tol, 0.0), alpha, min(alpha + tol, 1.0)])
    f = model.segment_value(a, top, bottom) - target
    return f[1] == 0.0 or np.sign(f[0]) * np.sign(f[2]) <= 0.0


def _bisected_root(model, target, top, bottom, tol):
    return bisect_monotone_batch(
        lambda a, idx: model.segment_value(a, top, bottom) - target[idx],
        np.zeros(len(target)), np.ones(len(target)), tol=tol)


@settings(max_examples=300, deadline=None)
@given(segment_root_cases())
def test_segment_root_matches_bisection_row_by_row(case):
    model, target, top, bottom, tol = case
    try:
        ref = _bisected_root(model, target, top, bottom, tol)
    except NoBracket as exc:  # a drawn weight's value rounded past an end value
        with pytest.raises(NoBracket) as solved:
            model.segment_root(target, top, bottom, tol)
        assert str(solved.value).split(":")[0] == str(exc).split(":")[0]  # the same row
        return
    with mock.patch.object(type(model), "segment_value", autospec=True,
                           side_effect=type(model).segment_value) as counted:
        got = model.segment_root(target, top, bottom, tol)
    for k in range(len(target)):
        width = _rounding_width(model, top, bottom, ref[k])
        if width is None:  # flat: any root of the computed gap is right, none other
            event("segment flat to rounding at the root")
            assert _gap_vanishes_or_turns_within(model, top, bottom, target[k], got[k], tol)
        else:
            assert abs(got[k] - ref[k]) <= tol + width
        if ref[k] in (0.0, 1.0):  # a segment end is hit exactly
            assert got[k] == ref[k]
        # each row alone, bit for bit, whatever else is in the batch
        assert got[k].tobytes() == model.segment_root(target[k:k + 1], top, bottom, tol).tobytes()
    if isinstance(model, CumulativeProspect):  # one call for both ends, then one per round
        assert counted.call_count - 1 <= 25
    else:
        assert counted.call_count == 0  # closed form


def test_segment_root_raises_no_bracket_at_the_row_bisection_names():
    model = CumulativeProspect(0.6, 0.5, (10.0, 7.0, 0.0))
    v0, v1 = model.segment_value(np.array([0.0, 1.0]), 0, 2).tolist()
    target = np.array([0.5 * (v0 + v1), v0, v1 + 1.0, v0 - 1.0])
    for m in (model, ExpectedUtility((v1, 3.0, v0))):
        with pytest.raises(NoBracket) as bisected:
            _bisected_root(m, target, 0, 2, BISECT_TOL)
        with pytest.raises(NoBracket) as solved:
            m.segment_root(target, 0, 2, BISECT_TOL)
        assert str(bisected.value).startswith("element 2:")
        assert str(solved.value).startswith("element 2:")


@pytest.mark.parametrize("model,bisects", [
    (CumulativeProspect(0.54, 0.74, (4000.0, 3000.0, 0.0)), False),
    (ExpectedUtility((1.0, 0.4, 0.0)), False),
    (TabulatedUtility(lambda p: p[0] + 0.4 * p[1], 3), True),
], ids=["cpt", "eu", "tabulated"])
def test_mixture_utility_batch_bisects_only_models_without_an_inverse(model, bisects):
    rows = SimplexSampler(resolution=6).grid(3)
    with mock.patch("nearrep.risk.bisect_monotone_batch",
                    side_effect=bisect_monotone_batch) as counted:
        mixture_utility_batch(model, rows)
    assert (counted.call_count > 0) == bisects


# --- meters -------------------------------------------------------------------------

CPT3 = CumulativeProspect(0.54, 0.74, (4000.0, 3000.0, 0.0))
CPT4 = CumulativeProspect(0.7, 0.6, (1480.0, 1250.0, 80.0, 0.0))
EU4 = ExpectedUtility((1.0, 0.7, 0.2, 0.0))


@pytest.mark.parametrize("model", [CPT3, CPT4, EU4], ids=["cpt3", "cpt4", "eu4"])
@pytest.mark.parametrize("resolution,triples", [(4, 0), (7, 25)])
def test_eps_rcl_matches_scalar_reference(model, resolution, triples):
    sampler = SimplexSampler(resolution=resolution, seed=3, n_random_triples=triples)
    rep = measure_eps_rcl(model, mixture_utility_batch(model, sampler.grid(model.n_outcomes)),
                          sampler)
    defect, witness, count = _ref_eps_rcl(model, sampler)
    assert rep.samples_evaluated == count
    assert rep.details["max_defect"] == pytest.approx(defect, abs=1e-9)
    if defect > 1e-6:  # a real maximum: the same witness, not a noise-level tie
        assert rep.witness == witness


@pytest.mark.parametrize("model", [CPT3, CPT4, EU4], ids=["cpt3", "cpt4", "eu4"])
@pytest.mark.parametrize("resolution,pairs,alphas,seed", [(4, 6, 3, 0), (6, 10, 4, 5)])
def test_eps_independence_matches_scalar_scan(model, resolution, pairs, alphas, seed):
    sampler = SimplexSampler(resolution=resolution, seed=seed, n_pairs=pairs, n_alphas=alphas)
    rep = measure_eps_independence(model, sampler)
    value, count, pairs_done, no_root_seen = _ref_eps_independence(model, sampler)
    assert rep.samples_evaluated == count
    assert rep.details["pairs"] == pairs_done
    assert rep.details["no_root_seen"] == no_root_seen
    assert rep.value == pytest.approx(value, abs=1e-9)


def test_eps_independence_without_interior_points():
    with pytest.raises(InvalidModel):
        measure_eps_independence(CPT3, SimplexSampler(resolution=1))


# --- outward scan ----------------------------------------------------------------------

def _wave(freq, phase, offset):
    return lambda a: np.sin(freq * (np.asarray(a) - phase)) + offset


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 1.0), st.sampled_from([1e-3, 0.01, 0.037, 0.25]),
       st.floats(1.0, 4000.0), st.floats(0.0, 1.0), st.floats(-1.2, 1.2),
       st.sampled_from([0.0, 1e-9, 0.05]))
def test_nearest_root_matches_scalar_scan(center, step, freq, phase, offset, zero_tol):
    # waves of every frequency: roots closer together than a step, beyond the
    # first scan round, at the boundary, or nowhere
    f = _wave(freq, phase, offset)
    got = _nearest_roots(lambda a, idx: f(a), [center], step, 1e-10, zero_tol=zero_tol)[0]
    ref = _ref_nearest_root(lambda a: float(f(a)), center, step, 1e-10, zero_tol=zero_tol)
    assert math.isnan(got) == (ref is None)
    if ref is not None:
        assert got == pytest.approx(ref, abs=1e-12)


def test_nearest_roots_call_the_functions_once_per_scan_round():
    # roots 0.1003 / 0.1207 and 0.1504 / 0.1401 below / above the centers,
    # off the step grid and beyond the first 64-step round on both rays:
    # three rounds before the bisection
    centers = np.array([0.5, 0.4])
    below, above = np.array([0.1003, 0.1504]), np.array([0.1207, 0.1401])
    calls = []

    def f(a, idx):
        calls.append(len(a))
        return (a - (centers[idx] - below[idx])) * (a - (centers[idx] + above[idx]))

    scanned = []

    def bisect(*args, **kwargs):
        scanned.append(len(calls))
        return bisect_monotone_batch(*args, **kwargs)

    with mock.patch("nearrep.risk.bisect_monotone_batch", side_effect=bisect):
        roots = _nearest_roots(f, centers, 1e-3, 1e-10)
    assert scanned == [1 + 3]  # the centers, then one call per round
    assert roots == pytest.approx([0.3997, 0.5401], abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 3000.0), st.floats(0.0, 1.0),
                          st.floats(-1.2, 1.2)), min_size=1, max_size=30))
def test_nearest_roots_of_many_functions_match_one_at_a_time(cases):
    waves = [_wave(freq, phase, offset) for _, freq, phase, offset in cases]

    def f(a, idx):
        return np.array([float(waves[k](x)) for x, k in zip(a.tolist(), idx.tolist())])

    roots = _nearest_roots(f, [c for c, *_ in cases], 1e-3, 1e-10)
    for (center, *_), wave, root in zip(cases, waves, roots):
        ref = _ref_nearest_root(lambda a: float(wave(a)), center, 1e-3, 1e-10)
        assert (ref is None) == math.isnan(root)
        if ref is not None:
            assert root == pytest.approx(ref, abs=1e-12)
