"""High-precision mpmath references for the closed forms under test.

The Heston and 3/2 rates are written in the rationalised form
theta*(a*mu + (1-a)*r) - kappa*gamma*a^2 v / (m + R) for m > 0, and
theta*(a*mu + (1-a)*r) + (kappa*gamma/delta^2)(m - R) for m <= 0, with
v = theta - theta^2, m = m0 - delta*theta*rho*a and
R = sqrt(m^2 + delta^2 a^2 v); m0 = kappa for Heston and
kappa + delta^2/2 (with rho = 0) for 3/2. In that form no two large terms
cancel, so a fixed working precision serves every kappa/delta: the
unrationalised form needs more than 2*log10(kappa/delta) digits.

Every function converts its float inputs exactly and returns a float.
"""

import mpmath
import numpy as np

from growthopt import HestonParams, ThreeHalvesParams, growth_rate, optimal_allocation

DPS = 40


def _variance_form(model):
    """(m0, rho) of the shared Heston / 3/2 form, as mpf."""
    k, d = mpmath.mpf(model.kappa), mpmath.mpf(model.delta)
    if isinstance(model, HestonParams):
        return k, mpmath.mpf(model.rho)
    if isinstance(model, ThreeHalvesParams):
        return k + d * d / 2, mpmath.mpf(0)
    raise TypeError(f"no variance-model reference for {type(model).__name__}")


def _rate_and_slope(model, u, alpha):
    """The growth rate and its alpha-derivative at ``alpha``, as mpf."""
    theta = mpmath.mpf(u.theta)
    mu, r = mpmath.mpf(model.mu), mpmath.mpf(model.r)
    kg = mpmath.mpf(model.kappa) * mpmath.mpf(model.gamma_level)
    d = mpmath.mpf(model.delta)
    m0, rho = _variance_form(model)
    a = mpmath.mpf(alpha)
    v = theta - theta * theta
    b = theta * rho
    m = m0 - d * b * a
    root = mpmath.sqrt(m * m + d * d * a * a * v)
    # R - m without cancellation
    gap = d * d * a * a * v / (m + root) if m > 0 else root - m
    rate = theta * (a * mu + (1 - a) * r) - kg / (d * d) * gap
    # dR/da = (-d*b*m + d^2 a v)/R, so d(m - R)/da = -(d*b*(R - m) + d^2 a v)/R
    slope = theta * (mu - r) - kg / d * (b * gap + d * a * v) / root
    return rate, slope


def variance_rate(model, u, alpha, dps=DPS):
    """Heston or 3/2 growth rate at ``alpha``."""
    with mpmath.workdps(dps):
        return float(_rate_and_slope(model, u, alpha)[0])


def variance_argmax(model, u, dps=DPS):
    """Maximizer on [0, 1] of the Heston or 3/2 growth rate.

    The rate is concave, so its slope decreases: 0 when the slope at 0 is
    <= 0, 1 when the slope at 1 is >= 0, and otherwise the slope's root,
    found by bisection to below a float ulp of 1.
    """
    with mpmath.workdps(dps):
        if _rate_and_slope(model, u, 0)[1] <= 0:
            return 0.0
        if _rate_and_slope(model, u, 1)[1] >= 0:
            return 1.0
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(64):
            mid = (lo + hi) / 2
            if _rate_and_slope(model, u, mid)[1] > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def laplace_three_halves_reference(p, lambda_l, t):
    """The Kummer closed form of the 3/2 transform at 60 digits (DLMF 13.2.2)."""
    with mpmath.workdps(60):
        k, g, d, nu0 = map(mpmath.mpf, (p.kappa, p.gamma_level, p.delta, p.nu0))
        lambda_l, t = mpmath.mpf(lambda_l), mpmath.mpf(t)
        d2 = d * d
        c = mpmath.mpf(0.5) + k / d2
        root = mpmath.sqrt(c * c + 2 * lambda_l / d2)
        a = (2 * lambda_l / d2) / (root + c)
        b = 1 + 2 * root
        z = 2 * k * g / (d2 * nu0 * mpmath.expm1(k * g * t))
        return float(mpmath.gamma(b - a) / mpmath.gamma(b) * z**a * mpmath.hyp1f1(a, b, -z))


def exponential_slope_reference(rate, theta, alpha):
    """E[(alpha*(Y-1)+1)^(theta-1) (Y-1)] at 60 digits, as (E[w^theta] - E[w^(theta-1)])/alpha.

    With w = alpha*Y + 1 - alpha and x = rate*(1/alpha - 1),
    E[w^s] = (alpha/rate)^s e^x Gamma(s+1, x) (DLMF 8.2.2).
    """
    with mpmath.workdps(60):
        rate, theta, alpha = mpmath.mpf(rate), mpmath.mpf(theta), mpmath.mpf(alpha)
        if alpha == 0:
            return float(1 / rate - 1)
        x = rate * (1 / alpha - 1)

        def moment(s):
            return (alpha / rate) ** s * mpmath.exp(x) * mpmath.gammainc(s + 1, x)

        return float((moment(theta) - moment(theta - 1)) / alpha)


def assert_variance_model_matches(model, u, alpha_tol=1e-14):
    """Check the library's Heston or 3/2 rate and optimum against the references.

    The rate on an 11-point grid must match to 1e-14 relative (plus 1e-16
    absolute, for a rate near 0), scalar calls must give the array's bits,
    and alpha* must lie within ``alpha_tol`` of the reference maximizer.
    """
    alphas = np.linspace(0.0, 1.0, 11)
    curve = growth_rate(model, u, alphas)
    for alpha, got in zip(alphas.tolist(), curve.tolist()):
        assert growth_rate(model, u, alpha) == got, alpha
        want = variance_rate(model, u, alpha)
        assert abs(got - want) <= 1e-14 * abs(want) + 1e-16, (alpha, got, want)
    decision = optimal_allocation(model, u)
    want = variance_argmax(model, u)
    assert abs(decision.alpha_star - want) <= alpha_tol, (decision, want)
    want = variance_rate(model, u, decision.alpha_star)
    assert abs(decision.lambda_at_star - want) <= 1e-14 * abs(want) + 1e-16, (decision, want)
