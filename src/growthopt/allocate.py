"""Optimal static stock fractions, closed form and numeric.

Each ``optimal_*`` function implements the exact case analysis for its
model; ``numeric_argmax`` is an independent maximizer used to cross-check
every closed form. It runs golden section on a certified-concave objective;
otherwise it first brackets the best point of a fixed 1,025-point grid, so
its cost does not depend on the objective.
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
    heston_coefficients,
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
# Intervals of the fallback grid used when concavity is not certified.
DENSE_GRID_POINTS = 1024


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
    dagger = (p.mu - p.r) / ((1.0 - theta) * p.sigma * p.sigma)
    if dagger >= 1.0:
        return _decide(p, u, 1.0, CASE_STOCK_ONLY, dagger)
    return _decide(p, u, dagger, CASE_INTERIOR, dagger)


def optimal_heston(p: HestonParams, u: Utility) -> AllocationDecision:
    """Three-branch analysis on the coefficient bundle.

    Ties follow the printed inequalities: slope(0) <= 0 books everything in
    the bond, c4 >= sqrt(c1) books everything in the stock.
    """
    c = heston_coefficients(p, u)
    sqrt_c1 = math.sqrt(c.c1)
    sqrt_c3 = math.sqrt(c.c3)
    if c.c4 + c.c2 / sqrt_c3 <= 0.0:
        return _decide(p, u, 0.0, CASE_BOND_ONLY)
    if c.c4 >= sqrt_c1:
        return _decide(p, u, 1.0, CASE_STOCK_ONLY)
    disc = c.c1 * c.c3 - c.c2 * c.c2
    dagger = (c.c2 + c.c4 * math.sqrt(disc / (c.c1 - c.c4 * c.c4))) / c.c1
    if dagger >= 1.0:
        return _decide(p, u, 1.0, CASE_CLAMPED_TO_ONE, dagger)
    if dagger <= 0.0:
        # Unreachable for exact arithmetic (slope at 0 is positive here);
        # kept as a round-off safety net.
        return _decide(p, u, 0.0, CASE_CLAMPED_TO_ZERO, dagger)
    return _decide(p, u, dagger, CASE_INTERIOR, dagger)


def optimal_three_halves(p: ThreeHalvesParams, u: Utility) -> AllocationDecision:
    """Bond-only / stock-only / interior split of the 3/2 growth rate.

    Raises DomainExceeded when kappa*gamma_level, its square or
    kappa/delta^2 overflows.
    """
    theta = u.theta
    _, c, kg = _three_halves_constants(p)
    excess = p.mu - p.r
    if excess <= 0.0:
        return _decide(p, u, 0.0, CASE_BOND_ONLY)
    var_term = theta - theta * theta
    if theta * excess - kg / p.delta * math.sqrt(var_term) >= 0.0:
        return _decide(p, u, 1.0, CASE_STOCK_ONLY)
    radicand = kg * kg * var_term - theta * theta * excess * excess * p.delta * p.delta
    if radicand == math.inf:
        raise _float_range_error("3/2 coefficients", p)
    if radicand <= 0.0:
        raise InternalInvariantViolation(
            "interior branch entered with nonpositive radicand "
            f"{radicand!r}; branch dispatch is inconsistent"
        )
    dagger = (
        theta * excess * p.delta * p.delta * c
        / (math.sqrt(radicand) * math.sqrt(var_term))
    )
    if dagger >= 1.0:
        return _decide(p, u, 1.0, CASE_CLAMPED_TO_ONE, dagger)
    return _decide(p, u, dagger, CASE_INTERIOR, dagger)


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
    if h <= tol:
        return 0.5 * (lo + hi)
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

    A 64-point probe certifies concavity via second differences, and golden
    section then runs on [0, 1]. If the probe fails (possible only for the
    quadratic rate of the OU-funded model, or a flat objective), the best
    point of a 1,025-point grid and its two neighbours bracket the golden
    section instead. Either way the work is bounded: at most 64 + 1,025
    grid points plus about 50 golden-section evaluations.
    """

    def f(a: float) -> float:
        return float(growth_rate(model, u, a))

    probe = np.linspace(0.0, 1.0, 64)
    values = np.asarray(growth_rate(model, u, probe), dtype=float)
    second = values[2:] - 2.0 * values[1:-1] + values[:-2]
    if np.all(second < 0.0):
        return _golden_max(f, 0.0, 1.0, GOLDEN_TOL)

    grid = np.linspace(0.0, 1.0, DENSE_GRID_POINTS + 1)
    dense = np.asarray(growth_rate(model, u, grid), dtype=float)
    best = int(np.argmax(dense))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, DENSE_GRID_POINTS)]
    return _golden_max(f, lo, hi, GOLDEN_TOL)
