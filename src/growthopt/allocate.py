"""Optimal static stock fractions, closed form and numeric.

Each ``optimal_*`` function implements the exact case analysis for its
model; the Heston and 3/2 models share one, because their growth rates
share one form. ``numeric_argmax`` is an independent maximizer used to
cross-check every closed form. It takes the best point of one 16-point
grid; at an end of [0, 1], one probe END_PROBE inside can settle the
answer at that end, and otherwise Brent's localmin (parabolic steps with a
golden-section fallback) runs between the grid neighbours. Both hold for
unimodal or convex rates; concavity itself is checked by acceptance 03.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainExceeded, InternalInvariantViolation, OutOfRange
from .growth import (
    _float_range_error,
    _vasicek_form,
    growth_rate,
    jump_derivative_moment,
)
from .params import (
    DensityJump,
    GbmParams,
    HestonParams,
    JumpDiffusionParams,
    ModelSpec,
    ThreeHalvesParams,
    Utility,
    VasicekParams,
    kind_of,
)

__all__ = [
    "AllocationDecision",
    "optimal_gbm",
    "optimal_heston",
    "optimal_three_halves",
    "optimal_jump",
    "optimal_vasicek",
    "optimal_allocation",
    "numeric_argmax",
    "CASE_BOND_ONLY",
    "CASE_STOCK_ONLY",
    "CASE_INTERIOR",
    "CASE_CLAMPED_TO_ONE",
    "CASE_CLAMPED_TO_ZERO",
    "CASE_CONVEX_BOUNDARY",
]

CASE_BOND_ONLY = "BondOnly"
CASE_STOCK_ONLY = "StockOnly"
CASE_INTERIOR = "Interior"
CASE_CLAMPED_TO_ONE = "ClampedToOne"
CASE_CLAMPED_TO_ZERO = "ClampedToZero"
CASE_CONVEX_BOUNDARY = "ConvexBoundary"

_CASES = {
    CASE_BOND_ONLY,
    CASE_STOCK_ONLY,
    CASE_INTERIOR,
    CASE_CLAMPED_TO_ONE,
    CASE_CLAMPED_TO_ZERO,
    CASE_CONVEX_BOUNDARY,
}

# numeric_argmax's absolute tolerance on alpha; Brent's search adds sqrt(eps)*|alpha|.
ARGMAX_TOL = 1e-10
# Calls the Brent search may take beyond golden section's count on its bracket.
BRENT_SLACK = 8
# How far inside an end numeric_argmax probes, and the rounding (in ulps of
# the larger of the two rates) that the end's lead over the probe must beat.
END_PROBE = 1e-7
END_PROBE_ULPS = 8.0
# optimal_jump bisects once STALL_STEPS steps fail to halve its bracket: at most
# (STALL_STEPS + 1)*ceil(log2(1e14)) = 423 slope calls inside, 2^-47 < 1e-14 absorbing rounding.
STALL_STEPS = 8


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome of the allocation problem on [0, 1].

    ``alpha_dagger`` is the unclamped stationary candidate when one exists
    (it may lie outside [0, 1]); ``alpha_star`` is the admissible optimum.
    """

    alpha_star: float
    case_label: str
    lambda_at_star: float
    alpha_dagger: Optional[float] = None

    def __post_init__(self):
        if self.case_label not in _CASES:
            raise OutOfRange(f"unknown case label {self.case_label!r}")
        if not 0.0 <= self.alpha_star <= 1.0:
            raise OutOfRange(f"alpha_star must lie in [0, 1], got {self.alpha_star}")
        if self.case_label == CASE_INTERIOR:
            if self.alpha_dagger is None or self.alpha_dagger != self.alpha_star:
                raise InternalInvariantViolation(
                    "interior decisions must carry alpha_dagger == alpha_star"
                )


def _decide(model: ModelSpec, u: Utility, alpha_star, label, dagger=None):
    return AllocationDecision(
        alpha_star=float(alpha_star),
        case_label=label,
        lambda_at_star=float(growth_rate(model, u, alpha_star)),
        alpha_dagger=None if dagger is None else float(dagger),
    )


def optimal_gbm(p: GbmParams, u: Utility) -> AllocationDecision:
    """Bond-only / interior / stock-only split for the lognormal stock."""
    theta = u.theta
    if p.mu <= p.r:
        return _decide(p, u, 0.0, CASE_BOND_ONLY)
    scale = (1.0 - theta) * p.sigma * p.sigma
    dagger = (p.mu - p.r) / scale if scale > 0.0 else math.inf
    if dagger == math.inf:
        raise _float_range_error("GBM coefficients", p, ("mu", "sigma", "r"))
    if dagger >= 1.0:
        return _decide(p, u, 1.0, CASE_STOCK_ONLY, dagger)
    return _decide(p, u, dagger, CASE_INTERIOR, dagger)


def _variance_decision(p, u: Utility, m0: float, rho: float) -> AllocationDecision:
    """Case analysis of the rate form shared by Heston (m0 = kappa) and 3/2
    (m0 = kappa + delta^2/2, rho = 0); see ``growth``.

    With b = theta*rho, v = theta - theta^2, w = b^2 + v and
    e = theta*(mu - r)*delta/(kappa*gamma): the bond iff mu <= r, the stock
    iff e >= b + sqrt(w) or d = v + e*(2b - e) rounds to <= 0 (only within
    rounding of that edge), else alpha = (m0/delta)(b - s*sqrt(v/d))/w with
    s = b - e, rationalised where b*s > 0, with m0*e/delta formed as
    m0*theta*(mu - r)/(kappa*gamma) at b = 0, and clamped to one. An alpha
    beyond the float range raises DomainExceeded.
    """
    theta = u.theta
    if p.mu <= p.r:
        return _decide(p, u, 0.0, CASE_BOND_ONLY)
    b = theta * rho
    v = theta - theta * theta
    w = b * b + v
    root_w = math.sqrt(w)
    edge = b + root_w if b >= 0.0 else v / (root_w - b)
    x = theta * (p.mu - p.r)
    kg = p.kappa * p.gamma_level
    e = x * p.delta / kg if kg > 0.0 else math.inf
    s = b - e
    d = v + e * (2.0 * b - e)
    if e >= edge or d <= 0.0:
        return _decide(p, u, 1.0, CASE_STOCK_ONLY)
    if b < 0.0 or b > e:  # b*s > 0, as signs: the product can underflow
        # m0*x/kg is m0*e/delta without e, which underflows first
        dagger = m0 * x / kg * (b + s) / (d * b + s * math.sqrt(v * d))
    elif b == 0.0:  # m0*x/kg stays finite where m0/delta overflows
        dagger = m0 * (x / kg) * math.sqrt(v / d) / w
    else:
        dagger = m0 / p.delta * (b - s * math.sqrt(v / d)) / w
    if not dagger < math.inf:  # the scale m0*x/kg or m0/delta leaves the float range
        raise _float_range_error("stationary-point terms", p)
    if dagger >= 1.0:
        return _decide(p, u, 1.0, CASE_CLAMPED_TO_ONE, dagger)
    return _decide(p, u, dagger, CASE_INTERIOR, dagger)


def optimal_heston(p: HestonParams, u: Utility) -> AllocationDecision:
    """Bond-only / stock-only / interior split of the Heston growth rate."""
    return _variance_decision(p, u, p.kappa, p.rho)


def optimal_three_halves(p: ThreeHalvesParams, u: Utility) -> AllocationDecision:
    """Bond-only / stock-only / interior split of the 3/2 growth rate; raises
    DomainExceeded when kappa*gamma_level leaves the float range."""
    if not p.kappa * p.gamma_level < math.inf:
        raise _float_range_error("3/2 coefficients", p)
    return _variance_decision(p, u, p.kappa + 0.5 * p.delta * p.delta, 0.0)


def _jump_slope(p: JumpDiffusionParams, u: Utility, alpha: float) -> float:
    theta = u.theta
    return (
        theta * (p.mu - p.r)
        + (theta * theta - theta) * p.sigma * p.sigma * alpha
        + p.lambda_j * theta * jump_derivative_moment(p.jump, u, alpha)
    )


def optimal_jump(p: JumpDiffusionParams, u: Utility) -> AllocationDecision:
    """Root of the strictly decreasing slope, by Illinois false position.

    The slope is closed form for constant and exponential laws but comes
    from quadrature for density laws. Its values only place the next probe
    inside the bracket; its sign alone moves the bracket, so a quadrature
    error can slow the search but never lose the root. Halving the slope
    kept at an end that two steps in a row leave in place (the Illinois
    rule; Dowell and Jarratt, BIT 11, 1971) makes false position converge
    superlinearly. A step bisects instead where false position rounds onto
    an end, meets NaN slopes or stalls (Brent's safeguard, 1973, ch. 4; see
    STALL_STEPS), so the search stops, at |slope| <= 1e-12 or a bracket of
    at most 1e-14, within 425 slope calls; typical draws take about 9.
    """
    slope0 = _jump_slope(p, u, 0.0)
    if not slope0 > 0.0:  # NaN where (theta^2 - theta)*sigma^2 overflows; -inf past 0
        return _decide(p, u, 0.0, CASE_BOND_ONLY)
    try:
        slope1 = _jump_slope(p, u, 1.0)
    except DomainExceeded:  # y^(theta-1)*(y-1) overflows, so y is near 0 and y - 1 < 0
        slope1 = -math.inf
    if slope1 >= 0.0:
        return _decide(p, u, 1.0, CASE_STOCK_ONLY)
    lo, hi, s_lo, s_hi = 0.0, 1.0, slope0, slope1
    side = 0  # +1 after a step that moved lo, -1 after one that moved hi
    width, steps = 1.0, 0  # the bracket's width when it last halved, and steps since
    while hi - lo > 1e-14:
        # s_lo > 0 > s_hi, so neither sum below cancels
        dagger = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
        if steps == STALL_STEPS or not lo < dagger < hi:  # stalled, on an end, or NaN
            dagger, steps = 0.5 * (lo + hi), STALL_STEPS
        s = _jump_slope(p, u, dagger)
        if abs(s) <= 1e-12:
            break
        if s > 0.0:
            lo, s_lo = dagger, s
            if side > 0:
                s_hi *= 0.5
            side = 1
        else:
            hi, s_hi = dagger, s
            if side < 0:
                s_lo *= 0.5
            side = -1
        steps += 1
        if steps > STALL_STEPS or hi - lo <= 0.5 * width:  # bisected, or halved
            width, steps = hi - lo, 0
    return _decide(p, u, dagger, CASE_INTERIOR, dagger)


def optimal_vasicek(p: VasicekParams, u: Utility) -> AllocationDecision:
    """Convex/concave split of the quadratic rate of ``growth._vasicek_form``.

    Convex: the end with the larger rate, ties going to the bond. Concave: the
    vertex, clamped to [0, 1]. DomainExceeded where the rate's alpha = 0 term
    (theta*delta/kappa)^2/2 overflows, or the vertex is NaN (inf - inf).
    """
    theta, s, g = u.theta, p.sigma, p.gamma_level
    l0, l1, _ = _vasicek_form(p, theta)
    if not 0.5 * (theta * l0) * (theta * l0) < math.inf:
        names = ("kappa", "delta") if p.delta > 1.0 else ("kappa",)
        raise _float_range_error("Vasicek coefficients", p, names)
    # the rate's alpha^2 coefficient over theta (inf if l0^2 overflows); slope0 its slope at 0
    curvature = l0 * l0 * theta / 2.0 - l0 * theta * l1 + s * s * theta / 2.0 - s * s / 2.0
    if curvature >= 0.0:
        star = 0.0 if growth_rate(p, u, 0.0) >= growth_rate(p, u, 1.0) else 1.0
        return _decide(p, u, star, CASE_CONVEX_BOUNDARY)
    slope0 = -g * theta + theta * p.mu + l0 * theta * theta * l1 - l0 * l0 * theta * theta
    dagger = slope0 / (2.0 * theta * (-curvature))
    if math.isnan(dagger):  # a NaN curvature comes here too
        raise _float_range_error("Vasicek coefficients", p, ("kappa", "delta", "sigma"))
    if dagger <= 0.0:
        return _decide(p, u, 0.0, CASE_CLAMPED_TO_ZERO, dagger)
    if dagger >= 1.0:
        return _decide(p, u, 1.0, CASE_CLAMPED_TO_ONE, dagger)
    return _decide(p, u, dagger, CASE_INTERIOR, dagger)


_DECISIONS = {
    "gbm": optimal_gbm,
    "heston": optimal_heston,
    "three_halves": optimal_three_halves,
    "jump": optimal_jump,
    "vasicek": optimal_vasicek,
}


def optimal_allocation(model: ModelSpec, u: Utility) -> AllocationDecision:
    """Dispatch to the closed-form decision for the given model."""
    return _DECISIONS[kind_of(model)](model, u)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = 2.0**-26  # the square root of the double epsilon 2^-52


def _golden_steps(h: float, tol: float) -> int:
    """Steps golden section takes to shrink a bracket of width h to tol."""
    return max(0, math.ceil(math.log(tol / h) / math.log(_INV_PHI)))


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer for a unimodal f on [lo, hi]: 2 + _golden_steps calls."""
    h = hi - lo
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(_golden_steps(h, tol)):
        if yc > yd:
            hi, d, yd = d, c, yc
            h *= _INV_PHI
            c = lo + _INV_PHI2 * h
            yc = f(c)
        else:
            lo, c, yc = c, d, yd
            h *= _INV_PHI
            d = lo + _INV_PHI * h
            yd = f(d)
    return 0.5 * (lo + hi)


def _brent_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Maximizer of a unimodal f on [lo, hi] by Brent's localmin (*Algorithms
    for Minimization without Derivatives*, 1973, ch. 5).

    The best point x starts at the golden point of [lo, hi]. Each step goes
    to the vertex of the parabola through the three best points when that
    lies inside the bracket and moves less than half the step before last,
    and otherwise takes a golden-section step into the larger side; no step
    is shorter than tol1 = sqrt(eps)*|x| + tol/3, below which a smooth f is
    flat to rounding. The search stops once the bracket lies within 2*tol1
    of x, and returns x. Its steps run only while golden section could still
    finish the bracket within BRENT_SLACK calls of its count on [lo, hi];
    golden section takes over otherwise. So f is called at most
    2 + _golden_steps(hi - lo, tol) + BRENT_SLACK times.
    """
    budget = 2 + _golden_steps(hi - lo, tol) + BRENT_SLACK
    a, b = lo, hi
    x = w = v = a + _INV_PHI2 * (b - a)
    fx = fw = fv = f(x)
    calls, step, last = 1, 0.0, 0.0  # last: the step before the current one
    while True:
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (b - a):
            return x
        if calls + 3 + _golden_steps(b - a, tol) > budget:
            return _golden_max(f, a, b, tol)
        parabolic = False
        if abs(last) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            before, last = last, step
            if abs(p) < abs(0.5 * q * before) and q * (a - x) < p < q * (b - x):
                step = p / q
                if x + step - a < 2.0 * tol1 or b - (x + step) < 2.0 * tol1:
                    step = tol1 if x < mid else -tol1
                parabolic = True
        if not parabolic:
            last = (a if x >= mid else b) - x
            step = _INV_PHI2 * last
        t = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        ft = f(t)
        calls += 1
        if ft >= fx:
            if t >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, t, ft
        else:
            if t < x:
                a = t
            else:
                b = t
            if ft >= fw or w == x:
                v, fv, w, fw = w, fw, t, ft
            elif ft >= fv or v == x or v == w:
                v, fv = t, ft


# numeric_argmax's grid, built once; read-only, because every call shares it.
_ARGMAX_GRID = np.linspace(0.0, 1.0, 16)
_ARGMAX_GRID.flags.writeable = False
_ARGMAX_LAST = _ARGMAX_GRID.size - 1


def numeric_argmax(model: ModelSpec, u: Utility) -> float:
    """Maximizer of the growth rate on [0, 1], independent of case analyses.

    Takes the best point of one 16-point grid, the first on ties (the bond,
    for a convex rate with equal ends). When that point is an end, one probe
    END_PROBE inside it can settle the answer: if the end's rate leads the
    probe's by more than END_PROBE_ULPS ulps, more than both roundings, the
    rate falls from the end to the probe, so the maximizer of a unimodal or
    convex rate lies within END_PROBE of the end, which is returned exactly.
    The probe sits far enough in that the rise of the rate toward a
    maximizer 1e-6 or more from the end beats that margin, unless the rate
    is too flat for any search to place it to 1e-6 either. A density jump
    law is never settled: its moment is exactly 1 at alpha = 0 but comes
    from quadrature inside, so the two rates differ by the quadrature's
    error. Otherwise ``_brent_max`` runs between the grid neighbours of the
    best point, a bracket that holds that maximizer; acceptance 03 checks
    concavity. Work: one array call, then one scalar call for a settled
    end, else at most 54: 46 + BRENT_SLACK on an interior point's 2/15
    bracket, 1 + 45 + BRENT_SLACK with the probe on an end's 1/15.
    """
    grid = _ARGMAX_GRID
    rates = growth_rate(model, u, grid)
    best = int(rates.argmax())
    if (best == 0 or best == _ARGMAX_LAST) and not isinstance(
        getattr(model, "jump", None), DensityJump
    ):
        end = float(rates[best])
        inner = growth_rate(model, u, END_PROBE if best == 0 else 1.0 - END_PROBE)
        if end - inner > END_PROBE_ULPS * math.ulp(max(abs(end), abs(inner))):
            return float(grid[best])
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, _ARGMAX_LAST)])
    return _brent_max(lambda a: growth_rate(model, u, a), lo, hi, ARGMAX_TOL)
