"""Special-function kernel: Kummer M, upper incomplete gamma, log-gamma.

Self-contained double-precision implementations (Taylor series, Lentz
continued fractions, Lanczos) tuned for the argument ranges the growth
formulas actually hit. Each routine reports an estimated absolute error
derived from its truncation criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SpecFunResult:
    """A function value together with an estimated absolute error bound."""

    value: float
    est_abs_error: float


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (Lanczos, g = 7)."""
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise OutOfRange(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Reflection keeps the Lanczos sum well conditioned near zero.
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    return _lanczos_lgamma(x)


_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_lgamma(x: float) -> float:
    xm1 = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (xm1 + i)
    t = xm1 + 7.5
    return 0.5 * math.log(2.0 * math.pi) + (xm1 + 0.5) * math.log(t) - t + math.log(acc)


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

    Supported for |z| <= 700. Negative arguments are routed through the
    transformation M(a,b,z) = exp(z) * M(b-a, b, -z) whenever that yields a
    positive-term (cancellation-free) series.
    """
    a, b, z = float(a), float(b), float(z)
    if b <= 0.0 and b == math.floor(b):
        raise PoleAtB(f"M(a, b, z) has a pole at b = {b}")
    if abs(z) > KUMMER_MAX_ABS_Z:
        raise DomainExceeded(
            f"|z| = {abs(z)} exceeds the supported Kummer domain {KUMMER_MAX_ABS_Z}"
        )
    if z == 0.0:
        return SpecFunResult(1.0, 0.0)
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
        if abs(term) < abs(total) * _REL_TOL:
            return total, abs(term)
    raise DomainExceeded(f"incomplete gamma series did not converge for (s={s}, x={x})")


def _upper_gamma_cf(s: float, x: float):
    """Lentz continued fraction: Gamma(s,x) = e^-x x^s * h, returns (h, delta)."""
    b0 = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b0
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - s)
        b0 += 2.0
        d = an * d + b0
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b0 + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_TOL:
            return h, abs(delta - 1.0) * abs(h)
    raise DomainExceeded(
        f"incomplete gamma continued fraction did not converge for (s={s}, x={x})"
    )


def _gamma_args(s: float, x: float):
    """(s, x) as floats, checked once for both public incomplete-gamma functions."""
    s, x = float(s), float(x)
    if not (math.isfinite(s) and s > 0.0):
        raise OutOfRange(f"upper incomplete gamma requires s > 0, got s = {s}")
    if not (math.isfinite(x) and x >= 0.0):
        raise OutOfRange(f"upper incomplete gamma requires x >= 0, got x = {x}")
    return s, x


def _upper_gamma(s: float, x: float, scaled: bool) -> SpecFunResult:
    """Gamma(s, x), times exp(x) when ``scaled``, for checked s > 0 and x >= 0.

    Gamma(s) minus the lower series below x = s + 1, else the continued
    fraction, whose front drops e^-x when scaled so that large x stays finite.
    """
    if x < s + 1.0:
        gamma_s = math.exp(log_gamma(s))
        value, est = gamma_s, 4e-15 * gamma_s
        if x > 0.0:
            total, trunc = _lower_gamma_series(s, x)
            front = math.exp(-x + s * math.log(x))
            lower = front * total
            value, est = gamma_s - lower, front * trunc + 4e-15 * (gamma_s + lower)
        scale = math.exp(x) if scaled else 1.0
        return SpecFunResult(scale * value, scale * est)
    h, trunc = _upper_gamma_cf(s, x)
    front = math.exp(s * math.log(x) - (0.0 if scaled else x))
    value = front * h
    return SpecFunResult(value, front * trunc + 4e-15 * value)


def upper_incomplete_gamma(s: float, x: float) -> SpecFunResult:
    """Upper incomplete gamma integral of t^(s-1) e^-t over [x, inf)."""
    return _upper_gamma(*_gamma_args(s, x), scaled=False)


def upper_incomplete_gamma_scaled(s: float, x: float) -> SpecFunResult:
    """exp(x) * Gamma(s, x), stable for large x where the plain product overflows."""
    return _upper_gamma(*_gamma_args(s, x), scaled=True)
