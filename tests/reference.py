"""High-precision mpmath references for the closed forms under test.

The Heston and 3/2 rates are written in the rationalised form
theta*(a*mu + (1-a)*r) - kappa*gamma*a^2 v / (m + R) for m > 0, and
theta*(a*mu + (1-a)*r) + (kappa*gamma/delta^2)(m - R) for m <= 0, with
v = theta - theta^2, m = m0 - delta*theta*rho*a and
R = sqrt(m^2 + delta^2 a^2 v); m0 = kappa for Heston and
kappa + delta^2/2 (with rho = 0) for 3/2. In that form no two large terms
cancel, so a fixed working precision serves every kappa/delta: the
unrationalised form needs more than 2*log10(kappa/delta) digits.

The Vasicek rate is taken in the paper's form, the Gaussian log-moment of the
rate path with its two kappa*gamma*rho/delta terms, at enough digits that
those cancel exactly; so the references check the algebra that removes them
in ``growth._vasicek_form`` as well as its rounding.

The jump-diffusion references take constant and exponential laws in closed
form, the latter through DLMF 8.2.2's incomplete gamma, and find the
optimum by bisecting the slope as the variance references do.

Every function converts its float inputs exactly and returns a float.
"""

import mpmath
import numpy as np

from growthopt import (
    ConstantJump,
    HestonParams,
    ThreeHalvesParams,
    growth_rate,
    optimal_allocation,
)

DPS = 40
# The paper form's kappa*gamma*rho/delta pair reaches about 1e600 for kappa
# and 1/delta up to 1e300; at 700 digits their cancellation leaves 1e-100.
VASICEK_DPS = 700
# The exponential slope's difference of moments cancels log10(1/alpha) digits.
JUMP_DPS = 60


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


def _bisect_slope(slope):
    """Maximizer on [0, 1] of a concave rate given its mpf slope: 0 when the
    slope at 0 is <= 0, 1 when the slope at 1 is >= 0, and otherwise the
    slope's root, found by bisection to below a float ulp of 1."""
    if slope(0) <= 0:
        return 0.0
    if slope(1) >= 0:
        return 1.0
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    for _ in range(64):
        mid = (lo + hi) / 2
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def variance_argmax(model, u, dps=DPS):
    """Maximizer on [0, 1] of the Heston or 3/2 growth rate, which is concave."""
    with mpmath.workdps(dps):
        return _bisect_slope(lambda a: _rate_and_slope(model, u, a)[1])


def _quadratic_argmax(rate):
    """Maximizer on [0, 1] of a quadratic given by its mpf values ``rate(a)``:
    the better end (the bond on ties) when convex, else the clamped vertex."""
    at0, at1 = rate(0), rate(1)
    quad = 2 * (at0 - 2 * rate(mpmath.mpf(1) / 2) + at1)  # the a^2 coefficient
    if quad >= 0:
        return 0.0 if at0 >= at1 else 1.0
    vertex = (at1 - at0 - quad) / (-2 * quad)
    return float(min(max(vertex, 0), 1))


def _gbm_rate(model, u, a):
    theta, mu, r, s = map(mpmath.mpf, (u.theta, model.mu, model.r, model.sigma))
    a = mpmath.mpf(a)
    return theta * (a * mu + (1 - a) * r) + (theta * theta - theta) * s * s * a * a / 2


def gbm_rate(model, u, alpha, dps=DPS):
    """GBM growth rate theta*(a*mu + (1-a)*r) + (theta^2 - theta) sigma^2 a^2/2."""
    with mpmath.workdps(dps):
        return float(_gbm_rate(model, u, alpha))


def gbm_argmax(model, u, dps=DPS):
    """Maximizer on [0, 1] of the GBM growth rate."""
    with mpmath.workdps(dps):
        return _quadratic_argmax(lambda a: _gbm_rate(model, u, a))


def _vasicek_inputs(model, u, alpha):
    """(theta, a, mu, sigma, kappa, gamma_level, delta, rho) as mpf."""
    return tuple(map(mpmath.mpf, (u.theta, alpha, model.mu, model.sigma, model.kappa,
                                  model.gamma_level, model.delta, model.rho)))


def _vasicek_rate(model, u, alpha):
    """The paper's form: with level = theta(1-a)/kappa + theta*a*sigma*rho/delta,
    kappa*gamma*level + delta^2 level^2/2 - theta*a*sigma*kappa*gamma*rho/delta
    + theta^2 a^2 sigma^2 (1-rho^2)/2 + theta*a*mu - theta*a^2 sigma^2/2."""
    theta, a, mu, s, k, g, d, rho = _vasicek_inputs(model, u, alpha)
    level = theta * (1 - a) / k + theta * a * s * rho / d
    return (k * g * level + d * d * level * level / 2 - theta * a * s * k * g * rho / d
            + theta * theta * a * a * s * s * (1 - rho * rho) / 2 + theta * a * mu
            - theta * a * a * s * s / 2)


def vasicek_rate(model, u, alpha, dps=VASICEK_DPS):
    """Vasicek growth rate at ``alpha``, from the paper's form."""
    with mpmath.workdps(dps):
        return float(_vasicek_rate(model, u, alpha))


def vasicek_term_sum(model, u, alpha, dps=DPS):
    """The sum of the magnitudes of the five terms of the cancelled form,
    theta*a*mu, theta*(1-a)*gamma, theta^2 l^2/2, theta^2 (1-rho^2) sigma^2 a^2/2
    and theta*sigma^2 a^2/2 with l = (1-a)*delta/kappa + a*sigma*rho: the scale
    of a rounding error in any evaluation of that form."""
    with mpmath.workdps(dps):
        theta, a, mu, s, k, g, d, rho = _vasicek_inputs(model, u, alpha)
        ell = (1 - a) * d / k + a * s * rho
        terms = (theta * a * mu, theta * (1 - a) * g, theta**2 * ell**2 / 2,
                 theta**2 * (1 - rho * rho) * s * s * a * a / 2, theta * s * s * a * a / 2)
        return float(sum(abs(t) for t in terms))


def vasicek_argmax(model, u, dps=VASICEK_DPS):
    """Maximizer on [0, 1] of the Vasicek growth rate, from the paper's form."""
    with mpmath.workdps(dps):
        return _quadratic_argmax(lambda a: _vasicek_rate(model, u, a))


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


def ode_limits_reference(qa, qb, qc, pa, pb):
    """(B_inf, A') of B' = qa*B^2 + qb*B + qc, A' = pa*B^2 + pb*B at 50 digits.

    B_inf is the stable root: qc/(-qb) when B' is linear, else the smaller
    root (-qb - sqrt(qb^2 - 4qa*qc))/(2qa), whose cancellation costs
    log10(qb^2/|qa*qc|) digits, at most about 16 of the 50 for the
    coefficients the tests pass. A' is taken at that root.
    """
    with mpmath.workdps(50):
        qa, qb, qc, pa, pb = map(mpmath.mpf, (qa, qb, qc, pa, pb))
        if qa == 0:
            b = -qc / qb
        else:
            b = (-qb - mpmath.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
        return float(b), float(b * (pb + pa * b))


def _exponential_moment(rate, alpha, s):
    """E[w^s] for Y ~ Exponential(rate) and w = alpha*Y + 1 - alpha, alpha in (0, 1]:
    with x = rate*(1/alpha - 1), (alpha/rate)^s e^x Gamma(s+1, x) (DLMF 8.2.2)."""
    x = rate * (1 / alpha - 1)
    return (alpha / rate) ** s * mpmath.exp(x) * mpmath.gammainc(s + 1, x)


def _exponential_slope(rate, theta, alpha):
    """E[w^(theta-1) (Y-1)] for Y ~ Exponential(rate), as (E[w^theta] - E[w^(theta-1)])/alpha,
    which cancels log10(1/alpha) digits, and 1/rate - 1 at alpha = 0."""
    if alpha == 0:
        return 1 / rate - 1
    moment = _exponential_moment
    return (moment(rate, alpha, theta) - moment(rate, alpha, theta - 1)) / alpha


def exponential_slope_reference(rate, theta, alpha):
    """E[(alpha*(Y-1)+1)^(theta-1) (Y-1)] at 60 digits for Y ~ Exponential(rate)."""
    with mpmath.workdps(JUMP_DPS):
        return float(_exponential_slope(*map(mpmath.mpf, (rate, theta, alpha))))


def _jump_rate_and_slope(model, u, alpha):
    """The jump-diffusion rate theta*(a*mu + (1-a)*r) + (theta^2 - theta) sigma^2 a^2/2
    + lambda_j*(E[w^theta] - 1) and its alpha-derivative, with w = a*Y + 1 - a, as mpf,
    for a constant or exponential law."""
    theta, mu, r, s, lam = map(mpmath.mpf, (u.theta, model.mu, model.r, model.sigma,
                                            model.lambda_j))
    a = mpmath.mpf(alpha)
    if isinstance(model.jump, ConstantJump):
        y = mpmath.mpf(model.jump.y)
        w = a * y + (1 - a)  # (a*y + 1) - a would round a subnormal y away
        moment, jump_slope = w**theta, w ** (theta - 1) * (y - 1)
    else:
        rate = mpmath.mpf(model.jump.rate)
        moment = _exponential_moment(rate, a, theta) if a > 0 else mpmath.mpf(1)
        jump_slope = _exponential_slope(rate, theta, a)
    v = theta * theta - theta
    growth = theta * (a * mu + (1 - a) * r) + v * s * s * a * a / 2 + lam * (moment - 1)
    return growth, theta * (mu - r) + v * s * s * a + lam * theta * jump_slope


def jump_rate(model, u, alpha, dps=JUMP_DPS):
    """Jump-diffusion growth rate at ``alpha`` for a constant or exponential law."""
    with mpmath.workdps(dps):
        return float(_jump_rate_and_slope(model, u, alpha)[0])


def jump_slope(model, u, alpha, dps=JUMP_DPS):
    """The alpha-derivative of ``jump_rate`` at ``alpha``."""
    with mpmath.workdps(dps):
        return float(_jump_rate_and_slope(model, u, alpha)[1])


def jump_argmax(model, u, dps=JUMP_DPS):
    """Maximizer on [0, 1] of the jump-diffusion rate: the rate is strictly
    concave, so 0, 1 or the root of its slope, by bisection to 2^-64."""
    with mpmath.workdps(dps):
        return _bisect_slope(lambda a: _jump_rate_and_slope(model, u, a)[1])


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
