"""Closed-form long-horizon growth rates for the five market models.

Each ``lambda_*`` function returns the exponential growth rate of the
expected power utility of wealth for a fixed stock fraction ``alpha``.
The Heston and 3/2 rates share the form
theta*(alpha*mu + (1-alpha)*r) + (kappa*gamma/delta^2)(m - R) with
R = sqrt(m^2 + delta^2 alpha^2 (theta - theta^2)). Where m > 0, m - R is
rationalized to -delta^2 alpha^2 (theta - theta^2)/(m + R), so theta * r is
exact at alpha = 0 and nothing cancels as kappa/delta grows. For Heston the
second term is A' - kappa*gamma*B(0), with A' = kappa*gamma*B_inf taken at
B_inf, the stable root of the Riccati quadratic that ``verify`` integrates.

The Vasicek rate is theta*(alpha*mu + (1-alpha)*gamma) + theta^2 l^2/2 + q alpha^2,
l = (1-alpha)*delta/kappa + alpha*sigma*rho, q = (theta^2 (1-rho^2) - theta) sigma^2/2:
the rate path's Gaussian log-moment without its two kappa*gamma*rho/delta terms,
which cancel exactly, so nothing cancels as delta shrinks or kappa grows. As
delta -> 0 it is the GBM rate with r = gamma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainExceeded, OutOfRange, QuadratureFailure
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

# growth_curve's largest grid: a spacing of 1e-6, 8 MB per array.
CURVE_MAX_POINTS = 1_000_001

# Above this x = rate*(1/alpha - 1) the exponential-law slope is summed from
# its asymptotic series, whose smallest term (near k = x) is below 1e-16 of
# the sum from here on; below it the incomplete-gamma closed form, whose two
# terms grow like x and cancel, stays within 1e-12 absolute of mpmath.
SLOPE_SERIES_MIN_X = 40.0

ArrayLike = Union[float, np.ndarray]

# From here up, what m^2 and d^2 av lose to underflow (under 2^-1073 in
# all) is far below the rounding of m^2 + d^2 av itself.
R2_MIN = 2.0**-1000


def _clamp_alpha(alpha: ArrayLike) -> ArrayLike:
    # Both tests are written so that NaN fails them instead of passing.
    # Scalars stay in Python floats: optimizers call the rates one alpha at
    # a time, and numpy's per-call overhead dwarfs the arithmetic. Floats
    # (np.float64 among them) skip np.ndim, which costs more than the clamp.
    if isinstance(alpha, float) or np.ndim(alpha) == 0:
        a = float(alpha)
        if not -ALPHA_SLACK <= a <= 1.0 + ALPHA_SLACK:
            raise OutOfRange(f"alpha must lie in [0, 1], got {alpha!r}")
        return min(max(a, 0.0), 1.0)
    # An array takes one min and one max (NaN if any element is), and comes
    # back as it is when it already lies in [0, 1], where np.clip is the
    # identity, -0.0 included. The rates only read it.
    a = np.asarray(alpha, dtype=float)
    if a.size == 0:
        return a
    lo, hi = a.min(), a.max()
    if not -ALPHA_SLACK <= lo <= hi <= 1.0 + ALPHA_SLACK:
        raise OutOfRange(f"alpha must lie in [0, 1], got {alpha!r}")
    if 0.0 <= lo and hi <= 1.0:
        return a
    return np.clip(a, 0.0, 1.0)


def _hypot(m: ArrayLike, t: ArrayLike) -> np.ndarray:
    """sqrt(m^2 + t^2), t >= 0, scaled by max(|m|, t) so no square leaves the float range.

    NaN when that maximum is 0 or infinite, which ``growth_rate`` reports.
    """
    big = np.maximum(np.abs(m), t)
    with np.errstate(invalid="ignore", divide="ignore"):
        return big * np.sqrt((m / big) * (m / big) + (t / big) * (t / big))


def _variance_rate(p, theta, a, m, av, d):
    """theta*(a*mu + (1-a)*r) + (kappa*gamma/d^2)(m - R) with R = sqrt(m^2 + d^2 av).

    R is computed from its squares while they lie in [R2_MIN, inf) and by
    ``_hypot`` otherwise. Scalars (kept Python floats) and arrays take the
    same arithmetic, so they give the same bits, which math.hypot and
    np.hypot do not.
    """
    base = theta * (a * p.mu + (1.0 - a) * p.r)
    r2 = m * m + d * d * av
    kg = p.kappa * p.gamma_level
    if isinstance(r2, float):
        root = math.sqrt(r2) if R2_MIN <= r2 < math.inf else float(_hypot(m, d * math.sqrt(av)))
    else:
        root = np.sqrt(r2)
        if r2.size == 0:  # an empty alpha array, whose min and max would raise
            return base
        if not (r2.min() >= R2_MIN and r2.max() < math.inf):
            exact = (r2 >= R2_MIN) & (r2 < math.inf)
            root = np.where(exact, root, _hypot(m, d * np.sqrt(av)))
    if isinstance(m, float):
        return base + (-kg * av / (m + root) if m > 0.0 else kg / d * ((m - root) / d))
    term = -kg * av / (m + root)
    if not m.min() > 0.0:
        term = np.where(m > 0.0, term, kg / d * ((m - root) / d))
    return base + term


def _float_range_error(what: str, p, names=("kappa", "gamma_level", "delta")) -> DomainExceeded:
    """DomainExceeded naming the parameters of ``p`` that ``what`` is built from."""
    values = ", ".join(f"{name}={getattr(p, name)!r}" for name in names)
    return DomainExceeded(f"{what} leave the float range at {values}")


def _three_halves_form(p: ThreeHalvesParams, v: float):
    """(m, v, d) of the 3/2 model's shared form, m = kappa + delta^2/2 and d = delta,
    with v, R's factor of d^2, passed in; for delta > 1, m and v over delta^2 and d
    over delta leave R/d^2 as it is and keep delta^2 from overflowing m."""
    g = p.delta if p.delta > 1.0 else 1.0
    d = p.delta / g
    return p.kappa / g / g + 0.5 * d * d, v / g / g, d


def _diffusion_growth(mu, r, sigma, theta, alpha):
    """Growth-rate contribution of a Brownian stock plus constant rate."""
    return theta * (alpha * mu + (1.0 - alpha) * r) + 0.5 * (
        theta * theta - theta
    ) * alpha * alpha * sigma * sigma


@dataclass(frozen=True)
class HestonCoefficients:
    """The Heston growth rate as -sqrt(c1*a^2 - 2*c2*a + c3) + c4*a + c0.

    With s = kappa*gamma/delta^2: c0 = s*kappa + theta*r,
    c1 = s^2 delta^2 (theta - theta^2 (1 - rho^2)), c2 = s^2 kappa delta theta rho,
    c3 = (s*kappa)^2 and c4 = theta*(mu - r) - s*delta*theta*rho. Its terms
    cancel as kappa/delta grows, so the rate is not evaluated from it.
    """

    c0: float
    c1: float
    c2: float
    c3: float
    c4: float


def heston_coefficients(p: HestonParams, u: Utility) -> HestonCoefficients:
    """Coefficient bundle for the Heston growth rate.

    Raises DomainExceeded when a coefficient is not finite or c3 underflows.
    """
    theta = u.theta
    k, d, rho = p.kappa, p.delta, p.rho
    s = k * p.gamma_level / (d * d) if d * d > 0.0 else math.inf
    c = HestonCoefficients(
        c0=s * k + theta * p.r,
        c1=s * s * (d * d) * (theta - theta * theta * (1.0 - rho * rho)),
        c2=s * s * k * d * theta * rho,
        c3=s * k * (s * k),
        c4=theta * (p.mu - p.r) - s * d * theta * rho,
    )
    if not (np.isfinite([c.c0, c.c1, c.c2, c.c3, c.c4]).all() and c.c3 > 0.0):
        raise _float_range_error("Heston coefficients", p)
    return c


def lambda_gbm(p: GbmParams, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """Growth rate for a geometric Brownian stock with constant rate."""
    a = _clamp_alpha(alpha)
    return _diffusion_growth(p.mu, p.r, p.sigma, u.theta, a)


def lambda_heston(p: HestonParams, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """Heston growth rate, the shared form with m = kappa - delta*theta*rho*a;
    independent of the initial variance nu0."""
    a = _clamp_alpha(alpha)
    theta = u.theta
    m = p.kappa - p.delta * theta * p.rho * a
    return _variance_rate(p, theta, a, m, a * a * (theta - theta * theta), p.delta)


def lambda_three_halves(p: ThreeHalvesParams, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """3/2 growth rate, the shared form with m = kappa + delta^2/2, d = delta and
    rho = 0 (``_three_halves_form``); independent of the initial variance nu0."""
    a = _clamp_alpha(alpha)
    theta = u.theta
    m, v, d = _three_halves_form(p, theta - theta * theta)
    return _variance_rate(p, theta, a, m, a * a * v, d)


def laplace_three_halves_finite_t(
    p: ThreeHalvesParams, lambda_l: float, t: float
) -> float:
    """Finite-horizon Laplace transform of the integrated 3/2 variance.

    Evaluates E[exp(-lambda_l * integral of nu over [0, t])] through the
    Kummer-function closed form, whose a = av/(m + R) and b = 1 + 2R/d^2
    come from the 3/2 rate's shared form at av = 2*lambda_l (the rate's
    alpha^2 (theta - theta^2)). The gamma prefactor and the power of the
    shrinking argument are combined in log space so the expression stays
    finite for any horizon; at lambda_l = 0 the value is exactly 1.0. Raises
    DomainExceeded when the model's constants leave the float range.
    """
    lambda_l = float(lambda_l)
    t = float(t)
    if not (math.isfinite(lambda_l) and lambda_l >= 0.0):
        raise OutOfRange(f"lambda_l must be >= 0, got {lambda_l}")
    if not (math.isfinite(t) and t > 0.0):
        raise OutOfRange(f"t must be > 0, got {t}")
    m, av, d = _three_halves_form(p, 2.0 * lambda_l)
    r2 = m * m + d * d * av
    root = math.sqrt(r2) if r2 >= R2_MIN else float(_hypot(m, d * math.sqrt(av)))
    kg = p.kappa * p.gamma_level
    # R/d^2 = sqrt(c^2 + 2*lambda_l/delta^2), c = 1/2 + kappa/delta^2: its square stays finite
    half_b = root / (d * d) if d * d > 0.0 else math.inf
    if not (half_b * half_b < math.inf and kg < math.inf):
        raise _float_range_error("3/2 coefficients", p)
    a = av / (m + root)
    b = 1.0 + 2.0 * half_b
    x = kg * t
    # log of 2*kappa*gamma / (delta^2 nu0 (e^{kg t} - 1)), stable for large t;
    # log(1 - e^-x) takes the expm1 form for small x (Maechler, 2012)
    try:
        log1mexp = math.log(-math.expm1(-x)) if x < 0.08 else math.log1p(-math.exp(-x))
        log_z = math.log(2.0 * kg / (p.delta * p.delta * p.nu0)) - (x + log1mexp)
    except (ValueError, ZeroDivisionError) as exc:  # a constant underflowed to 0
        names = ("kappa", "gamma_level", "delta", "nu0")
        raise _float_range_error(f"3/2 transform constants at t={t!r}", p, names) from exc
    z = math.exp(log_z)
    m = kummer_m(a, b, -z)
    log_front = log_gamma(b - a) - log_gamma(b) + a * log_z
    return math.exp(log_front) * m.value


def _exponential_moment(rate: float, theta: float, alpha: float) -> float:
    """E[(alpha*(Y-1)+1)^theta] for Y ~ Exponential(rate), alpha in (0, 1]."""
    x = rate * (1.0 / alpha - 1.0)
    scaled = upper_incomplete_gamma_scaled(theta + 1.0, x)
    return (alpha / rate) ** theta * scaled.value


def _exponential_moments(rate: float, theta: float, alphas: list) -> list:
    """``_exponential_moment`` at each alpha in [0, 1], 1.0 at alpha = 0, with one
    incomplete-gamma call for the whole list."""
    xs = np.array([rate * (1.0 / a - 1.0) for a in alphas if a != 0.0])
    scaled = iter(upper_incomplete_gamma_scaled(theta + 1.0, xs).value.tolist())
    return [(a / rate) ** theta * next(scaled) if a != 0.0 else 1.0 for a in alphas]


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


def _jump_moment(law: JumpLaw, theta: float, a: ArrayLike) -> ArrayLike:
    """E[(a*(Y-1)+1)^theta] for an already clamped alpha ``a``.

    Constant and exponential laws use closed forms (the latter through a
    scaled upper incomplete gamma); density laws are integrated adaptively
    to 1e-9 absolute. An array runs the scalar arithmetic on Python floats,
    so each point has the bits of the scalar call: a constant law in one
    comprehension, an exponential law with one incomplete-gamma call for
    all its points with a != 0 (the others are exactly 1.0), and a density
    law point by point.
    """
    if not isinstance(a, float):
        points = a.ravel().tolist()
        if isinstance(law, ConstantJump):
            moments = [(ai * (law.y - 1.0) + 1.0) ** theta for ai in points]
        elif isinstance(law, ExponentialJump):
            moments = _exponential_moments(law.rate, theta, points)
        else:
            moments = [_jump_moment(law, theta, ai) for ai in points]
        return np.array(moments, dtype=float).reshape(a.shape)
    if isinstance(law, ConstantJump):
        return (a * (law.y - 1.0) + 1.0) ** theta
    if a == 0.0:
        return 1.0
    if isinstance(law, ExponentialJump):
        return _exponential_moment(law.rate, theta, a)
    return _density_quad(
        lambda y: (a * y + 1.0 - a) ** theta * law.density(y),
        0.0,
        law.bound,
        DENSITY_QUAD_ABS_TOL,
    )


def jump_utility_moment(law: JumpLaw, u: Utility, alpha: float) -> float:
    """E[(alpha*(Y-1)+1)^theta] for the given jump law and a scalar alpha."""
    return _jump_moment(law, u.theta, _clamp_alpha(float(alpha)))


def jump_derivative_moment(law: JumpLaw, u: Utility, alpha: float) -> float:
    """E[(alpha*(Y-1)+1)^(theta-1) * (Y-1)], the jump term of the slope.

    Closed forms for constant and exponential jumps (the latter through a
    scaled upper incomplete gamma, or its asymptotic series at small alpha);
    density laws are integrated adaptively. Raises DomainExceeded when a
    constant law's slope leaves the float range, which a jump y near 0
    does at alpha = 1.
    """
    a = _clamp_alpha(float(alpha))
    theta = u.theta
    if isinstance(law, ConstantJump):
        # a*y + (1 - a) keeps a y below 2^-53, which a*(y - 1) + 1 rounds to 0
        try:
            return (a * law.y + (1.0 - a)) ** (theta - 1.0) * (law.y - 1.0)
        except OverflowError as exc:
            raise DomainExceeded(
                f"constant-law jump slope leaves the float range at jump_y={law.y!r}, "
                f"alpha={a!r}"
            ) from exc
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
    """Jump-diffusion growth rate: the diffusion part plus
    lambda_j * (E[(alpha*(Y-1)+1)^theta] - 1)."""
    a = _clamp_alpha(alpha)
    moment = _jump_moment(p.jump, u.theta, a)
    return _diffusion_growth(p.mu, p.r, p.sigma, u.theta, a) + p.lambda_j * (moment - 1.0)


def _vasicek_form(p: VasicekParams, theta: float):
    """(l0, l1, q) = (delta/kappa, sigma*rho, q) of the Vasicek form above."""
    q = 0.5 * (theta * theta * (1.0 - p.rho * p.rho) - theta) * p.sigma * p.sigma
    return p.delta / p.kappa, p.sigma * p.rho, q


def lambda_vasicek(p: VasicekParams, u: Utility, alpha: ArrayLike) -> ArrayLike:
    """Growth rate for a Black-Scholes stock against an OU short rate.

    Exactly quadratic in alpha and independent of the initial rate r0.
    """
    a = _clamp_alpha(alpha)
    theta = u.theta
    l0, l1, q = _vasicek_form(p, theta)
    ell = theta * ((1.0 - a) * l0 + a * l1)
    return theta * (a * p.mu + (1.0 - a) * p.gamma_level) + 0.5 * ell * ell + q * a * a


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
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
        # each field is coerced once and stored back, so a list or a tuple
        # comes out as the array the properties read
        a = np.asarray(self.alphas, dtype=float)
        lambdas = np.asarray(self.lambdas, dtype=float)
        if a.ndim != 1 or lambdas.shape != a.shape:
            raise OutOfRange(
                "alphas and lambdas must be 1-D and of one length, got shapes "
                f"{a.shape} and {lambdas.shape}"
            )
        # one comparison pass; NaN fails it instead of passing
        if a.size < 2 or a[0] != 0.0 or a[-1] != 1.0 or not (a[1:] > a[:-1]).all():
            raise OutOfRange("alpha grid must increase strictly from 0 to 1")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "lambdas", lambdas)

    @property
    def samples(self):
        """List of (alpha, lambda) pairs."""
        return list(zip(self.alphas.tolist(), self.lambdas.tolist()))


def growth_curve(model: ModelSpec, u: Utility, n_points: int) -> GrowthCurve:
    """Sample the growth rate on a uniform n-point grid spanning [0, 1],
    2 <= n_points <= CURVE_MAX_POINTS; int() truncates a fractional count."""
    if not 2 <= n_points <= CURVE_MAX_POINTS:  # NaN fails both comparisons
        raise OutOfRange(f"n_points must lie in [2, {CURVE_MAX_POINTS:,}], got {n_points}")
    n_points = int(n_points)
    # np.linspace(0, 1, n)'s own arithmetic, bit for bit, without its dispatch
    alphas = np.arange(n_points) * (1.0 / (n_points - 1))
    alphas[-1] = 1.0
    return GrowthCurve(model=model, theta=u, alphas=alphas, lambdas=growth_rate(model, u, alphas))
