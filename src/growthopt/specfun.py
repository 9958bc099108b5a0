"""Special-function kernel: Kummer M, upper incomplete gamma, log-gamma.

Self-contained double-precision implementations (Taylor series, Lentz
continued fractions, Lanczos) tuned for the argument ranges the growth
formulas actually hit. Each routine reports an estimated absolute error
derived from its truncation criterion and the rounding of its steps.

The incomplete gamma functions also take an ndarray of x. One such call
checks s once and computes Gamma(s) at most once, and runs the scalar
arithmetic at each point, so every element has the scalar call's bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainExceeded, OutOfRange, PoleAtB

__all__ = [
    "SpecFunResult",
    "kummer_m",
    "upper_incomplete_gamma",
    "upper_incomplete_gamma_scaled",
    "log_gamma",
    "KUMMER_MAX_ABS_Z",
]

# exp() overflows just above 709, which caps the usable |z| of the
# transformed positive-term series.
KUMMER_MAX_ABS_Z = 700.0

_MAX_TERMS = 2000
_REL_TOL = 1e-17
_FPMIN = 1e-300
_UNIT_ROUNDOFF = 2.0**-53
_FLOAT_MAX = sys.float_info.max
# A subnormal exp(), and its product with a factor below 1, each round by
# at most half the smallest subnormal.
_SUBNORMAL_ROUNDING = 2.0**-1074

# The continued fraction stops only when its delta rounds to exactly 1.0,
# and from b0 = 2^54 (ulp 4) its b0 += 2.0 no longer moves b0, so it fails
# from x near 2.8e16. From x = 2^53 two terms of the asymptotic series take
# over: up to s = 2^26 the third, (s-1)(s-2)/x^2, is below 2^-54 of the first.
_ASYMPTOTIC_MIN_X = 2.0**53
_ASYMPTOTIC_MAX_S = 2.0**26


@dataclass(frozen=True)
class SpecFunResult:
    """A function value together with an estimated absolute error bound.

    Both are arrays when an incomplete gamma function is given an array of x.
    """

    value: Union[float, np.ndarray]
    est_abs_error: Union[float, np.ndarray]


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (Lanczos, g = 7).

    Raises DomainExceeded from x near 2.6e305, where log Gamma(x) itself
    leaves the float range.
    """
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise OutOfRange(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Reflection keeps the Lanczos sum well conditioned near zero.
        quotient = math.pi / math.sin(math.pi * x)
        if quotient == math.inf:
            # Subnormal x: log Gamma(x) = -log(x) - gamma*x + O(x^2) (DLMF
            # 5.7.1), and gamma*x is far below an ulp of -log(x) > 709.
            return -math.log(x)
        return math.log(quotient) - log_gamma(1.0 - x)
    value = _lanczos_lgamma(x)
    if value > _FLOAT_MAX:  # (x - 1/2)*log(x + 13/2) overflowed
        raise DomainExceeded(f"log_gamma leaves the float range at x = {x}")
    return value


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_lgamma(x: float) -> float:
    # The Lanczos sum c0 + c1/(x-1+1) + ... + c8/(x-1+8), unrolled: Python
    # adds left to right, so these are the additions of a loop, in its order.
    xm1 = x - 1.0
    acc = (
        0.99999999999980993
        + 676.5203681218851 / (xm1 + 1.0)
        + -1259.1392167224028 / (xm1 + 2.0)
        + 771.32342877765313 / (xm1 + 3.0)
        + -176.61502916214059 / (xm1 + 4.0)
        + 12.507343278686905 / (xm1 + 5.0)
        + -0.13857109526572012 / (xm1 + 6.0)
        + 9.9843695780195716e-6 / (xm1 + 7.0)
        + 1.5056327351493116e-7 / (xm1 + 8.0)
    )
    t = xm1 + 7.5
    return _HALF_LOG_2PI + (xm1 + 0.5) * math.log(t) - t + math.log(acc)


def _kummer_series(a: float, b: float, z: float):
    """Raw Taylor sum of M(a,b,z); returns (sum, error bound).

    The bound is the geometric tail plus the rounding of the sum. Each term
    carries the six roundings of the recurrence step that made it, one more
    per step when ``a`` is itself rounded (as b - a is under the Kummer
    transformation), and recursive summation adds one per term. With k terms
    that is at most 8k*u*sum|term| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, §3.1 and §4.2): the rounding grows with the
    term count.
    """
    term = 1.0
    total = 1.0
    abs_total = 1.0
    for n in range(_MAX_TERMS):
        term *= (a + n) * z / ((b + n) * (n + 1))
        total += term
        abs_total += abs(term)
        if abs(term) <= _REL_TOL * abs(total):
            rounding = 8.0 * (n + 2) * _UNIT_ROUNDOFF * abs_total
            if term == 0.0:
                return total, rounding
            ratio = abs(z) * abs(a + n + 1) / (abs(b + n + 1) * (n + 2))
            if ratio < 1.0:
                return total, abs(term) * ratio / (1.0 - ratio) + rounding
            # Not yet in the geometric regime; keep summing.
    raise DomainExceeded(
        f"Kummer series did not converge within {_MAX_TERMS} terms for "
        f"(a={a}, b={b}, z={z})"
    )


def kummer_m(a: float, b: float, z: float) -> SpecFunResult:
    """Confluent hypergeometric function M(a, b, z).

    Supported for |z| <= 700, and exactly 1.0 at z = 0 or a = 0. Negative
    arguments are routed through the transformation
    M(a,b,z) = exp(z) * M(b-a, b, -z) whenever that yields a positive-term
    (cancellation-free) series.
    """
    a, b, z = float(a), float(b), float(z)
    if b <= 0.0 and b == math.floor(b):
        raise PoleAtB(f"M(a, b, z) has a pole at b = {b}")
    if z == 0.0 or a == 0.0:  # M(a, b, 0) = M(0, b, z) = 1, for any z
        return SpecFunResult(1.0, 0.0)
    if abs(z) > KUMMER_MAX_ABS_Z:
        raise DomainExceeded(
            f"|z| = {abs(z)} exceeds the supported Kummer domain {KUMMER_MAX_ABS_Z}"
        )
    if z < 0.0 and b > 0.0:
        # With b > 0 the transformed series has at most a few early sign
        # changes, unlike the raw series whose alternating terms reach
        # exp(|z|) and cancel catastrophically.
        total, err = _kummer_series(b - a, b, -z)
        scale = math.exp(z)
        value = scale * total
        # exp and the product add a rounding each
        return SpecFunResult(value, scale * err + 2.0 * _UNIT_ROUNDOFF * abs(value))
    return SpecFunResult(*_kummer_series(a, b, z))


def _lower_gamma_series(s: float, x: float):
    """Series for the regularized-style lower sum: gamma(s,x) = x^s e^-x * sum."""
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * _REL_TOL:  # x > 0, so every term is positive
            return total, term
    raise DomainExceeded(f"incomplete gamma series did not converge for (s={s}, x={x})")


def _upper_gamma_cf(s: float, x: float):
    """Lentz continued fraction: Gamma(s,x) = e^-x x^s * h.

    Returns (h, its truncation error, the step count). The stop test needs
    delta to round to exactly 1.0, and a delta that keeps rounding to 1 - u
    shrinks h by u a step, so the rounding grows with the step count.
    """
    b0 = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b0
    h = d
    # A float count keeps -i*(i - s) in float arithmetic (the same values, as
    # i is a small integer), and the tests below spell _FPMIN and _REL_TOL
    # out, so that no bound costs a global load or a negation per step.
    i = 0.0
    last = _MAX_TERMS - 1.0
    while i < last:
        i += 1.0
        an = -i * (i - s)
        b0 += 2.0
        d = an * d + b0
        if -1e-300 < d < 1e-300:
            d = 1e-300
        c = b0 + an / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -1e-17 < delta - 1.0 < 1e-17:
            return h, abs(delta - 1.0) * abs(h), i
    raise DomainExceeded(
        f"incomplete gamma continued fraction did not converge for (s={s}, x={x})"
    )


def _front_rounding(s_log_x: float, power: float) -> float:
    """Relative error bound of exp(power), power = s*log(x) or s*log(x) - x.

    log, the product and the subtraction each round by at most u of their
    result, and exp turns that absolute error of its argument into a
    relative one; 4e-15 covers exp itself and the rest of the evaluation.
    """
    return 4e-15 + (2.0 * abs(s_log_x) + abs(power)) * _UNIT_ROUNDOFF


def _upper_gamma(s: float, xs, scaled: bool):
    """Gamma(s, x), times exp(x) when ``scaled``, for a checked s > 0 and each x in ``xs``.

    Returns the lists of values and of error estimates. Two terms of the
    asymptotic series from x = 2^53, Gamma(s) minus the lower series below
    x = s + 1, else the continued fraction, whose front drops e^-x when
    scaled so that large x stays finite. Gamma(s) is computed once, at the
    first x that takes the series. Raises OutOfRange at the first x that is
    not finite and >= 0, and DomainExceeded at the first x where Gamma(s),
    exp(x) or the result leaves the float range.
    """
    values, ests = [], []
    gamma_s = None
    for x in xs:
        if not 0.0 <= x <= _FLOAT_MAX:
            raise OutOfRange(f"upper incomplete gamma requires x >= 0, got x = {x}")
        try:
            if x >= _ASYMPTOTIC_MIN_X and s <= _ASYMPTOTIC_MAX_S:
                # e^x Gamma(s, x) ~ x^(s-1) (1 + (s-1)/x + (s-1)(s-2)/x^2 + ...)
                # (DLMF 8.11.2). Unscaled, e^-x puts the value below the float range.
                value = est = 0.0
                if scaled:
                    # s - 1 is exact from s = 1/2, and a rounded exponent would
                    # be multiplied by log(x); x^s overflows long before x^(s-1).
                    front = x ** (s - 1.0) if s >= 0.5 else x**s / x
                    value = front * (1.0 + (s - 1.0) / x)
                    est = abs(front * ((s - 1.0) * (s - 2.0) / x / x)) + 4e-15 * value
            elif x < s + 1.0:
                if gamma_s is None:
                    lg = log_gamma(s)
                    gamma_s = math.exp(lg)
                    # exp turns the absolute error of the Lanczos log into a
                    # relative one: a few roundings of its terms, which reach
                    # about three times |log Gamma(s)| (near s = 2, where that
                    # is small, the 4e-15).
                    gamma_s_err = (4e-15 + 16.0 * _UNIT_ROUNDOFF * abs(lg)) * gamma_s
                value, est = gamma_s, gamma_s_err
                if x > 0.0:
                    total, trunc = _lower_gamma_series(s, x)
                    s_log_x = s * math.log(x)
                    power = -x + s_log_x
                    front = math.exp(power)
                    lower = front * total
                    value = gamma_s - lower
                    est = front * trunc + gamma_s_err + _front_rounding(s_log_x, power) * lower
                scale = math.exp(x) if scaled else 1.0
                value, est = scale * value, scale * est
            else:
                h, trunc, steps = _upper_gamma_cf(s, x)
                log_x = math.log(x)
                s_log_x = s * log_x
                power = s_log_x - (0.0 if scaled else x)
                try:
                    front = math.exp(power)
                    rounding = _front_rounding(s_log_x, power)
                except OverflowError:
                    # x^s (e^-x) overflows where the value, about x^(s-1) (e^-x)
                    # times x*h, need not: move one x into h. s > 19 here, so
                    # s - 1 is exact, and pow and the two products round once
                    # each; unscaled, the subtraction of log(x) rounds too.
                    if scaled:
                        front, rounding = x ** (s - 1.0), 4e-15
                    else:
                        reduced = power - log_x
                        front = math.exp(reduced)
                        rounding = _front_rounding(s_log_x, power) + (
                            abs(reduced) + abs(log_x)
                        ) * _UNIT_ROUNDOFF
                    h, trunc = h * x, trunc * x
                value = front * h
                # each step rounds its delta and the product h *= delta, and
                # feeds the roundings of its c and d into the next (Kummer's
                # series is charged the same eight per term)
                rounding += 8.0 * steps * _UNIT_ROUNDOFF
                est = front * trunc + rounding * value + _SUBNORMAL_ROUNDING
        except OverflowError:
            value = est = math.inf
        if not (math.isfinite(value) and math.isfinite(est)):
            raise DomainExceeded(
                f"upper incomplete gamma leaves the float range at (s={s}, x={x})"
            )
        values.append(value)
        ests.append(est)
    return values, ests


def _incomplete_gamma(s, x, scaled: bool) -> SpecFunResult:
    """Check s once, then evaluate at a scalar x or at each element of an ndarray x."""
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise OutOfRange(f"upper incomplete gamma requires s > 0, got s = {s}")
    if isinstance(x, np.ndarray) and x.ndim:
        values, ests = _upper_gamma(s, np.asarray(x, dtype=float).ravel().tolist(), scaled)
        return SpecFunResult(np.reshape(values, x.shape), np.reshape(ests, x.shape))
    values, ests = _upper_gamma(s, (float(x),), scaled)
    return SpecFunResult(values[0], ests[0])


def upper_incomplete_gamma(s: float, x) -> SpecFunResult:
    """Upper incomplete gamma integral of t^(s-1) e^-t over [x, inf).

    Given an ndarray of x, returns one result whose value and error estimate
    are arrays of its shape; each element has the bits of the scalar call,
    and the call raises the scalar call's error at the first x that does.
    """
    return _incomplete_gamma(s, x, False)


def upper_incomplete_gamma_scaled(s: float, x) -> SpecFunResult:
    """exp(x) * Gamma(s, x), stable for large x where the plain product overflows.

    Takes an ndarray of x as ``upper_incomplete_gamma`` does.
    """
    return _incomplete_gamma(s, x, True)
