import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from growthopt import (
    DomainExceeded,
    OutOfRange,
    PoleAtB,
    kummer_m,
    log_gamma,
    upper_incomplete_gamma,
    upper_incomplete_gamma_scaled,
)

# 200-term exact-rational series value of M(1/2, 3/2, -1/4).
KUMMER_HALF_ORACLE = 0.9225620128255849


def rational_kummer(a, b, z, terms=200):
    """Exact-rational partial sum of the defining series (test oracle)."""
    a, b, z = Fraction(a), Fraction(b), Fraction(z)
    term, total = Fraction(1), Fraction(1)
    for n in range(terms):
        term *= (a + n) * z / ((b + n) * (n + 1))
        total += term
    return float(total)


def test_kummer_at_zero_is_one():
    for a, b in [(0.3, 1.2), (2.0, 5.0), (-1.5, 0.7)]:
        res = kummer_m(a, b, 0.0)
        assert res.value == 1.0
        assert res.est_abs_error == 0.0


def test_kummer_exponential_identity():
    res = kummer_m(1.0, 1.0, -1.0)
    assert res.value == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert res.value == pytest.approx(0.36787944117144233, rel=1e-12)


def test_kummer_against_rational_series():
    assert rational_kummer(Fraction(1, 2), Fraction(3, 2), Fraction(-1, 4)) == pytest.approx(
        KUMMER_HALF_ORACLE, abs=1e-15
    )
    res = kummer_m(0.5, 1.5, -0.25)
    assert res.value == pytest.approx(KUMMER_HALF_ORACLE, abs=1e-12)


def test_kummer_large_negative_argument():
    # The growth-rate call sites reach z around -200 for short horizons.
    res = kummer_m(0.06, 18.1, -192.0)
    oracle = rational_kummer(Fraction(6, 100), Fraction(181, 10), -192, terms=800)
    assert res.value == pytest.approx(oracle, rel=1e-10)


def test_kummer_errors():
    with pytest.raises(PoleAtB):
        kummer_m(1.0, 0.0, 0.5)
    with pytest.raises(PoleAtB):
        kummer_m(1.0, -3.0, 0.5)
    with pytest.raises(DomainExceeded):
        kummer_m(1.0, 2.0, -701.0)


# laplace_three_halves_finite_t calls M(a, b, -z) with a = R - c and
# b = 1 + 2R, where R >= c >= 1/2, so b >= 2 + 2a; its z > 0 is capped so
# that M's argument stays inside the supported |z| <= 700.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(b=st.floats(2.0, 61.0), a_share=st.floats(0.0, 1.0), log10_z=st.floats(-4.0, 2.8))
def test_kummer_error_estimate_bounds_the_error(b, a_share, log10_z):
    a, z = a_share * (b - 2.0) / 2.0, -(10.0**log10_z)
    res = kummer_m(a, b, z)
    with mpmath.workdps(50):
        err = abs(mpmath.mpf(res.value) - mpmath.hyp1f1(a, b, z))
    assert err <= res.est_abs_error


def test_kummer_derivative_identity():
    # d/dz M(a,b,z) = (a/b) M(a+1, b+1, z), probed by central differences.
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(50):
        a = rng.uniform(0.1, 3.0)
        b = rng.uniform(0.5, 5.0)
        z = rng.uniform(-40.0, 0.0)
        fd = (kummer_m(a, b, z + h).value - kummer_m(a, b, z - h).value) / (2 * h)
        rhs = a / b * kummer_m(a + 1.0, b + 1.0, z).value
        assert fd == pytest.approx(rhs, abs=1e-6 * max(1.0, abs(rhs)))


def test_upper_gamma_exponential_case():
    res = upper_incomplete_gamma(1.0, 2.0)
    assert res.value == pytest.approx(0.1353352832366127, rel=1e-12)


def test_upper_gamma_complete_values():
    assert upper_incomplete_gamma(2.0, 0.0).value == pytest.approx(1.0, rel=1e-13)
    assert upper_incomplete_gamma(4.0, 0.0).value == pytest.approx(6.0, rel=1e-13)


def test_upper_gamma_quadrature_oracle():
    # frozen from adaptive quadrature of the defining integral
    assert upper_incomplete_gamma(1.5, 0.7).value == pytest.approx(
        0.6252638756351398, rel=1e-11
    )
    assert upper_incomplete_gamma(0.5, 3.0).value == pytest.approx(
        0.025356509323463443, rel=1e-11
    )
    assert upper_incomplete_gamma(3.7, 9.2).value == pytest.approx(
        0.054651619521715715, rel=1e-11
    )


def test_upper_gamma_additivity():
    for s in (0.5, 1.0, 2.0, 3.3, 5.0):
        gamma_s = upper_incomplete_gamma(s, 0.0).value
        for x in (0.5, 1.0, 3.0, 10.0):
            lower, _ = integrate.quad(
                lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x,
                epsabs=1e-13, epsrel=1e-13,
            )
            upper = upper_incomplete_gamma(s, x).value
            assert upper + lower == pytest.approx(gamma_s, abs=1e-10 * max(1.0, gamma_s))


def test_upper_gamma_monotone_in_x():
    for s in (0.5, 1.5, 4.0):
        values = [upper_incomplete_gamma(s, x).value for x in np.linspace(0.0, 12.0, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_upper_gamma_domain_errors():
    with pytest.raises(OutOfRange):
        upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(OutOfRange):
        upper_incomplete_gamma(1.0, -0.5)


def test_scaled_upper_gamma_matches_plain():
    for s, x in [(1.5, 0.4), (1.5, 5.0), (0.7, 30.0), (2.0, 100.0)]:
        plain = upper_incomplete_gamma(s, x).value
        scaled = upper_incomplete_gamma_scaled(s, x).value
        assert scaled == pytest.approx(math.exp(x) * plain, rel=1e-12)


def test_scaled_upper_gamma_huge_x():
    # e^x Gamma(s,x) ~ x^(s-1) for large x; the plain product overflows here.
    value = upper_incomplete_gamma_scaled(1.5, 800.0).value
    assert value == pytest.approx(math.sqrt(800.0), rel=1e-2)
    assert math.isfinite(value)


# log-gamma reference values frozen from a 40-digit computation.
LGAMMA_ORACLE = {
    1e-3: 6.907178885383853661684,
    0.1: 2.252712651734205902006,
    0.5: 0.5723649429247000870717,
    1.5: -0.1207822376352452223455,
    5.0: 3.178053830347945619647,
    12.3: 18.23898340709224369583,
    123.456: 469.6055471299294835002,
}


def test_log_gamma_reference_grid():
    for x, expected in LGAMMA_ORACLE.items():
        assert log_gamma(x) == pytest.approx(expected, rel=1e-12)


def test_log_gamma_integers():
    assert abs(log_gamma(1.0)) <= 5e-15
    assert abs(log_gamma(2.0)) <= 5e-15
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)


def test_log_gamma_domain():
    with pytest.raises(OutOfRange):
        log_gamma(0.0)
    with pytest.raises(OutOfRange):
        log_gamma(-2.5)
