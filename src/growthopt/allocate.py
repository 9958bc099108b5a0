"""Optimal static stock fractions, closed form and numeric.

Each ``optimal_*`` function implements the exact case analysis for its
model; the Heston and 3/2 models share one, because their growth rates
share one form. ``numeric_argmax`` is an independent maximizer used to
cross-check every closed form. It runs golden section around the best
point of one 64-point grid, a bracket that holds for unimodal or convex
rates; concavity itself is checked by acceptance 03.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InternalInvariantViolation, OutOfRange
from .growth import (
    _float_range_error,
    _three_halves_constants,
    growth_rate,
    jump_derivative_moment,
)
from .params import (
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

# Golden-section interval shrink tolerance.
GOLDEN_TOL = 1e-10


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
    s = b - e, rationalised where b*s > 0, and clamped to one. An alpha
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
    DomainExceeded when kappa*gamma_level or kappa/delta^2 leaves the float range."""
    d2, _, _ = _three_halves_constants(p)
    return _variance_decision(p, u, p.kappa + 0.5 * d2, 0.0)


def _jump_slope(p: JumpDiffusionParams, u: Utility, alpha: float) -> float:
    theta = u.theta
    return (
        theta * (p.mu - p.r)
        + (theta * theta - theta) * p.sigma * p.sigma * alpha
        + p.lambda_j * theta * jump_derivative_moment(p.jump, u, alpha)
    )


def optimal_jump(p: JumpDiffusionParams, u: Utility) -> AllocationDecision:
    """Root of the strictly decreasing slope, found by bisection.

    The slope is closed form for constant and exponential laws but comes
    from quadrature for density laws; bisection needs only its sign, so it
    is preferred to Newton, whose steps would amplify quadrature error.
    """
    theta = u.theta
    slope0 = theta * (p.mu - p.r) + p.lambda_j * theta * (p.jump.mean() - 1.0)
    if slope0 <= 0.0:
        return _decide(p, u, 0.0, CASE_BOND_ONLY)
    if _jump_slope(p, u, 1.0) >= 0.0:
        return _decide(p, u, 1.0, CASE_STOCK_ONLY)
    lo, hi = 0.0, 1.0
    dagger = 0.5
    for _ in range(200):
        dagger = 0.5 * (lo + hi)
        s = _jump_slope(p, u, dagger)
        if abs(s) <= 1e-12 or hi - lo <= 1e-14:
            break
        if s > 0.0:
            lo = dagger
        else:
            hi = dagger
    return _decide(p, u, dagger, CASE_INTERIOR, dagger)


def optimal_vasicek(p: VasicekParams, u: Utility) -> AllocationDecision:
    """Convex/concave split of the exactly quadratic growth rate.

    In the convex case the optimum sits on a boundary and ties go to the
    bond; in the concave case the vertex is clamped to [0, 1].
    """
    theta = u.theta
    k, g, d, s, rho = p.kappa, p.gamma_level, p.delta, p.sigma, p.rho
    if k * k == 0.0:  # every term below divides by kappa^2
        raise _float_range_error("Vasicek coefficients", p, ("kappa",))
    curvature = (
        d * d * theta / (2.0 * k * k)
        - d * theta * s * rho / k
        + s * s * theta / 2.0
        - s * s / 2.0
    )
    if curvature >= 0.0:
        bond_side = g + d * d * theta / (2.0 * k * k)
        stock_side = 0.5 * (theta - 1.0) * s * s + p.mu
        star = 0.0 if bond_side >= stock_side else 1.0
        return _decide(p, u, star, CASE_CONVEX_BOUNDARY)
    dagger = (
        -g * theta
        + theta * p.mu
        + d * theta * theta * s * rho / k
        - d * d * theta * theta / (k * k)
    ) / (2.0 * theta * (-curvature))
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


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer for a unimodal f on [lo, hi]."""
    h = hi - lo
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n):
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


def numeric_argmax(model: ModelSpec, u: Utility) -> float:
    """Maximizer of the growth rate on [0, 1], independent of case analyses.

    Golden section runs between the neighbours of the best point of one
    64-point grid, the first on ties (the bond, for a convex rate with equal
    ends). That bracket holds the maximizer of a unimodal or convex rate;
    acceptance 03 checks concavity. Work: one array and <= 43 scalar calls.
    """
    grid = np.linspace(0.0, 1.0, 64)
    best = int(np.argmax(growth_rate(model, u, grid)))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, grid.size - 1)])
    return _golden_max(lambda a: growth_rate(model, u, a), lo, hi, GOLDEN_TOL)
