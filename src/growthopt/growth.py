"""Closed-form long-horizon growth rates for the five market models.

Each ``lambda_*`` function returns the exponential growth rate of the
expected power utility of wealth for a fixed stock fraction ``alpha``.
Radicals are evaluated in a rationalized form so that the bond-only value
theta * r is reproduced exactly at alpha = 0 instead of through a
cancellation of two large terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainExceeded, InternalInvariantViolation, OutOfRange, QuadratureFailure
from .params import (
    ConstantJump,
    ExponentialJump,
    GbmParams,
    HestonParams,
    JumpDiffusionParams,
    JumpLaw,
    ModelSpec,
    ThreeHalvesParams,
    Utility,
    VasicekParams,
    kind_of,
)
from .specfun import kummer_m, log_gamma, upper_incomplete_gamma_scaled

__all__ = [
    "HestonCoefficients",
    "GrowthCurve",
    "heston_coefficients",
    "lambda_gbm",
    "lambda_heston",
    "lambda_three_halves",
    "lambda_jump",
    "lambda_vasicek",
    "laplace_three_halves_finite_t",
    "jump_utility_moment",
    "jump_derivative_moment",
    "growth_rate",
    "growth_curve",
]

# Optimizers may probe marginally outside [0, 1]; anything within this slack
# is clamped, anything beyond is rejected.
ALPHA_SLACK = 1e-9

DENSITY_QUAD_ABS_TOL = 1e-9
DENSITY_QUAD_LIMIT = 10_000

# Above this x = rate*(1/alpha - 1) the exponential-law slope is summed from
# its asymptotic series, whose smallest term (near k = x) is below 1e-16 of
# the sum from here on; below it the incomplete-gamma closed form, whose two
# terms grow like x and cancel, stays within 1e-12 absolute of mpmath.
SLOPE_SERIES_MIN_X = 40.0

ArrayLike = Union[float, np.ndarray]


def _clamp_alpha(alpha: ArrayLike) -> ArrayLike:
    # Both tests are written so that NaN fails them instead of passing.
    # Scalars stay in Python floats: optimizers call the rates one alpha at
    # a time, and numpy's per-call overhead dwarfs the arithmetic.
    if np.ndim(alpha) == 0:
        a = float(alpha)
        if not -ALPHA_SLACK <= a <= 1.0 + ALPHA_SLACK:
            raise OutOfRange(f"alpha must lie in [0, 1], got {alpha!r}")
        return min(max(a, 0.0), 1.0)
    a = np.asarray(alpha, dtype=float)
    if not (np.all(a >= -ALPHA_SLACK) and np.all(a <= 1.0 + ALPHA_SLACK)):
        raise OutOfRange(f"alpha must lie in [0, 1], got {alpha!r}")
    return np.clip(a, 0.0, 1.0)


def _sqrt(x: ArrayLike) -> ArrayLike:
    """Square root that keeps a Python float a Python float.

    Scalar rates stay in Python arithmetic, which is faster than numpy's
    scalar types and never warns; a negative or NaN radicand gives NaN, as
    np.sqrt does, so ``growth_rate`` reports it as DomainExceeded.
    """
    if isinstance(x, float):
        return math.sqrt(x) if x >= 0.0 else math.nan
    return np.sqrt(x)


def _float_range_error(what: str, p, names=("kappa", "gamma_level", "delta")) -> DomainExceeded:
    """DomainExceeded naming the parameters of ``p`` that ``what`` is built from."""
    values = ", ".join(f"{name}={getattr(p, name)!r}" for name in names)
    return DomainExceeded(f"{what} leave the float range at {values}")


def _three_halves_constants(p: ThreeHalvesParams):
    """(delta^2, c = 1/2 + kappa/delta^2, kappa*gamma_level) of the 3/2 model.

    Raises DomainExceeded when delta^2 underflows or c or kappa*gamma_level
    overflows.
    """
    d2 = p.delta * p.delta
    kg = p.kappa * p.gamma_level
    c = 0.5 + p.kappa / d2 if d2 > 0.0 else math.inf
    if not (math.isfinite(c) and math.isfinite(kg)):
        raise _float_range_error("3/2 coefficients", p)
    return d2, c, kg


def _diffusion_growth(mu, r, sigma, theta, alpha):
    """Growth-rate contribution of a Brownian stock plus constant rate."""
    return theta * (alpha * mu + (1.0 - alpha) * r) + 0.5 * (
        theta * theta - theta
    ) * alpha * alpha * sigma * sigma


@dataclass(frozen=True)
class HestonCoefficients:
    """Constant bundle describing the Heston growth rate as
    -sqrt(c1*a^2 - 2*c2*a + c3) + c4*a + c0."""

    c0: float
    c1: float
    c2: float
    c3: float
    c4: float


def heston_coefficients(p: HestonParams, u: Utility) -> HestonCoefficients:
    """Coefficient bundle for the Heston growth rate.

    Raises DomainExceeded when kappa^6 or gamma^4 overflows or delta^4,
    delta^6 or c3 underflows to zero, and InternalInvariantViolation if the positivity
    identity c1*c3 - c2**2 == kappa^6 gamma^4 (theta - theta^2) / delta^6
    fails beyond 1e-12 relative, which would indicate an arithmetic bug.
    """
    theta = u.theta
    k, g, d, rho = p.kappa, p.gamma_level, p.delta, p.rho
    try:
        k2g2_d4 = (k * k * g * g) / d**4
        rhs = k**6 * g**4 * (theta - theta * theta) / d**6
    except (OverflowError, ZeroDivisionError) as exc:
        raise _float_range_error("Heston coefficients", p) from exc
    c3 = k2g2_d4 * (k * k)
    if c3 == 0.0:
        # the rate would divide 0 by 0
        raise _float_range_error("Heston coefficients", p)
    c0 = k * k * g / (d * d) + theta * p.r
    c1 = k2g2_d4 * (d * d * theta - d * d * theta * theta * (1.0 - rho * rho))
    c2 = d * k * rho * theta * k2g2_d4
    c4 = -theta * rho * k * g / d + theta * (p.mu - p.r)

    lhs = c1 * c3 - c2 * c2
    # the second tolerance term covers the cancellation c1*c3 - c2^2 itself,
    # which exceeds 1e-12 relative when theta -> 1 even for correct arithmetic
    if abs(lhs - rhs) > 1e-12 * abs(rhs) + 32.0 * np.finfo(float).eps * (c1 * c3 + c2 * c2):
        raise InternalInvariantViolation(
            f"Heston coefficient identity failed: c1*c3 - c2^2 = {lhs!r}, expected {rhs!r}"
        )
    return HestonCoefficients(c0=c0, c1=c1, c2=c2, c3=c3, c4=c4)


def lambda_gbm(p: GbmParams, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """Growth rate for a geometric Brownian stock with constant rate."""
    a = _clamp_alpha(alpha)
    return _diffusion_growth(p.mu, p.r, p.sigma, u.theta, a)


def lambda_heston(p: HestonParams, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """Heston growth rate; independent of the initial variance nu0."""
    a = _clamp_alpha(alpha)
    c = heston_coefficients(p, u)
    s = p.kappa * p.kappa * p.gamma_level / (p.delta * p.delta)
    num = c.c1 * a * a - 2.0 * c.c2 * a
    rad = num + c.c3
    return u.theta * p.r + c.c4 * a - num / (_sqrt(rad) + s)


def lambda_three_halves(p: ThreeHalvesParams, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """3/2-model growth rate; independent of the initial variance nu0."""
    a = _clamp_alpha(alpha)
    theta = u.theta
    c = 0.5 + p.kappa / (p.delta * p.delta)
    q = a * a * (theta - theta * theta) / (p.delta * p.delta)
    kg = p.kappa * p.gamma_level
    return theta * (a * p.mu + (1.0 - a) * p.r) - kg * q / (_sqrt(c * c + q) + c)


def laplace_three_halves_finite_t(
    p: ThreeHalvesParams, lambda_l: float, t: float
) -> float:
    """Finite-horizon Laplace transform of the integrated 3/2 variance.

    Evaluates E[exp(-lambda_l * integral of nu over [0, t])] through the
    Kummer-function closed form. The gamma prefactor and the power of the
    shrinking argument are combined in log space so the expression stays
    finite for any horizon. Raises DomainExceeded when the model's constants
    leave the float range.
    """
    lambda_l = float(lambda_l)
    t = float(t)
    if not (math.isfinite(lambda_l) and lambda_l > 0.0):
        raise OutOfRange(f"lambda_l must be > 0, got {lambda_l}")
    if not (math.isfinite(t) and t > 0.0):
        raise OutOfRange(f"t must be > 0, got {t}")
    d2, c, kg = _three_halves_constants(p)
    root = math.sqrt(c * c + 2.0 * lambda_l / d2)
    if root == math.inf:
        raise _float_range_error("3/2 coefficients", p)
    a = (2.0 * lambda_l / d2) / (root + c)
    b = 1.0 + 2.0 * root
    # log of 2*kappa*gamma / (delta^2 nu0 (e^{kg t} - 1)), stable for large t
    log_z = math.log(2.0 * kg / (d2 * p.nu0)) - (kg * t + math.log1p(-math.exp(-kg * t)))
    z = math.exp(log_z)
    m = kummer_m(a, b, -z)
    log_front = log_gamma(b - a) - log_gamma(b) + a * log_z
    return math.exp(log_front) * m.value


def _exponential_moment(rate: float, theta: float, alpha: float) -> float:
    """E[(alpha*(Y-1)+1)^theta] for Y ~ Exponential(rate), alpha in (0, 1]."""
    x = rate * (1.0 / alpha - 1.0)
    scaled = upper_incomplete_gamma_scaled(theta + 1.0, x)
    return (alpha / rate) ** theta * scaled.value


def _exponential_slope(rate: float, theta: float, alpha: float) -> float:
    """E[(alpha*(Y-1)+1)^(theta-1) * (Y-1)] for Y ~ Exponential(rate), alpha in (0, 1].

    With x = rate*(1/alpha - 1) and G(s, x) = e^x Gamma(s, x) the moment is
    (alpha/rate)^(theta-1)/rate * [x^theta - (x + rate - theta) G(theta, x)].
    Both bracketed terms grow like x and cancel, so for x >= SLOPE_SERIES_MIN_X
    the bracket is expanded instead (DLMF 8.11.2):
    (1-alpha)^(theta-1)/rate * sum_k u_k (1 + k - rate) x^-k with
    u_k = (theta-1)(theta-2)...(theta-k).
    """
    x = rate * (1.0 / alpha - 1.0)
    if x < SLOPE_SERIES_MIN_X:
        g = upper_incomplete_gamma_scaled(theta, x).value
        return (alpha / rate) ** (theta - 1.0) / rate * (x**theta - (x + rate - theta) * g)
    total = 1.0 - rate
    u = 1.0  # u_k x^-k
    k = 1
    # |theta - k| / x < 1 keeps the terms shrinking; stop at the smallest one.
    while k < x + theta:
        u *= (theta - k) / x
        total += u * (1.0 + k - rate)
        # bound |term| by a factor that cannot vanish at rate = 1 + k
        if abs(u) * (1.0 + k + rate) <= 1e-17 * abs(total):
            break
        k += 1
    return (1.0 - alpha) ** (theta - 1.0) / rate * total


def _density_quad(f, lo, hi, abs_tol, fail_tol=None):
    from scipy import integrate  # deferred: only density laws need quadrature

    if fail_tol is None:
        fail_tol = 10.0 * abs_tol
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(
            f, lo, hi, epsabs=abs_tol, epsrel=0.0, limit=DENSITY_QUAD_LIMIT
        )
    if err > fail_tol + 1e-13 * abs(value):
        raise QuadratureFailure(
            f"quadrature error estimate {err!r} exceeds tolerance {fail_tol!r}"
        )
    return value


def jump_utility_moment(law: JumpLaw, u: Utility, alpha: float) -> float:
    """E[(alpha*(Y-1)+1)^theta] for the given jump law.

    Constant and exponential laws use closed forms (the latter through a
    scaled upper incomplete gamma); density laws are integrated adaptively
    to 1e-9 absolute.
    """
    a = _clamp_alpha(float(alpha))
    theta = u.theta
    if a == 0.0:
        return 1.0
    if isinstance(law, ConstantJump):
        return (a * (law.y - 1.0) + 1.0) ** theta
    if isinstance(law, ExponentialJump):
        return _exponential_moment(law.rate, theta, a)
    return _density_quad(
        lambda y: (a * y + 1.0 - a) ** theta * law.density(y),
        0.0,
        law.bound,
        DENSITY_QUAD_ABS_TOL,
    )


def jump_derivative_moment(law: JumpLaw, u: Utility, alpha: float) -> float:
    """E[(alpha*(Y-1)+1)^(theta-1) * (Y-1)], the jump term of the slope.

    Closed forms for constant and exponential jumps (the latter through a
    scaled upper incomplete gamma, or its asymptotic series at small alpha);
    density laws are integrated adaptively.
    """
    a = _clamp_alpha(float(alpha))
    theta = u.theta
    if isinstance(law, ConstantJump):
        return (a * (law.y - 1.0) + 1.0) ** (theta - 1.0) * (law.y - 1.0)
    if a == 0.0:
        return law.mean() - 1.0
    if isinstance(law, ExponentialJump):
        return _exponential_slope(law.rate, theta, a)
    return _density_quad(
        lambda y: (a * y + 1.0 - a) ** (theta - 1.0) * (y - 1.0) * law.density(y),
        0.0,
        law.bound,
        1e-11,
        fail_tol=1e-7,
    )


def lambda_jump(p: JumpDiffusionParams, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """Jump-diffusion growth rate.

    A constant law is evaluated over an alpha array in one numpy power;
    other laws go through ``jump_utility_moment`` point by point.
    """
    a = _clamp_alpha(alpha)
    if np.ndim(a) == 0:
        moment = jump_utility_moment(p.jump, u, a)
    elif isinstance(p.jump, ConstantJump):
        moment = (a * (p.jump.y - 1.0) + 1.0) ** u.theta
    else:
        moment = np.array([jump_utility_moment(p.jump, u, ai) for ai in a])
    base = _diffusion_growth(p.mu, p.r, p.sigma, u.theta, a)
    return base + p.lambda_j * (moment - 1.0)


def lambda_vasicek(p: VasicekParams, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """Growth rate for a Black-Scholes stock against an OU short rate.

    Exactly quadratic in alpha and independent of the initial rate r0.
    """
    a = _clamp_alpha(alpha)
    theta = u.theta
    level = theta * (1.0 - a) / p.kappa + theta * a * p.sigma * p.rho / p.delta
    return (
        p.kappa * p.gamma_level * level
        + 0.5 * p.delta * p.delta * level * level
        - theta * a * p.sigma * p.kappa * p.gamma_level * p.rho / p.delta
        + 0.5 * theta * theta * a * a * p.sigma * p.sigma * (1.0 - p.rho * p.rho)
        + theta * a * p.mu
        - 0.5 * theta * a * a * p.sigma * p.sigma
    )


_RATES = {
    "gbm": lambda_gbm,
    "heston": lambda_heston,
    "three_halves": lambda_three_halves,
    "jump": lambda_jump,
    "vasicek": lambda_vasicek,
}


def growth_rate(model: ModelSpec, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """Dispatch to the closed-form growth rate of the given model.

    Raises DomainExceeded when a rate is not finite or a scalar rate divides
    by zero, which happens only when the parameters leave the float range
    inside a closed form.
    """
    kind = kind_of(model)
    try:
        if isinstance(alpha, float):
            value = _RATES[kind](model, u, alpha)
            finite = math.isfinite(value)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                value = _RATES[kind](model, u, alpha)
            finite = np.isfinite(value).all()
    except ZeroDivisionError:  # a Python-float divisor underflowed to zero
        finite = False
    if not finite:
        raise DomainExceeded(
            f"{kind} growth rate is not finite: the parameters overflow the float range"
        )
    return value


@dataclass(frozen=True)
class GrowthCurve:
    """Growth rate sampled on a strictly increasing alpha grid over [0, 1]."""

    model: ModelSpec
    theta: Utility
    alphas: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if a.size < 2 or a[0] != 0.0 or a[-1] != 1.0 or np.any(np.diff(a) <= 0.0):
            raise OutOfRange("alpha grid must increase strictly from 0 to 1")

    @property
    def samples(self):
        """List of (alpha, lambda) pairs."""
        return list(zip(self.alphas.tolist(), self.lambdas.tolist()))


def growth_curve(model: ModelSpec, u: Utility, n_points: int) -> GrowthCurve:
    """Sample the growth rate on a uniform n-point grid spanning [0, 1]."""
    n_points = int(n_points)
    if n_points < 2:
        raise OutOfRange(f"n_points must be >= 2, got {n_points}")
    alphas = np.linspace(0.0, 1.0, n_points)
    lambdas = np.asarray(growth_rate(model, u, alphas), dtype=float)
    return GrowthCurve(model=model, theta=u, alphas=alphas, lambdas=lambdas)
