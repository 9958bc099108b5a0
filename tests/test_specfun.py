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
    GrowthOptError,
    OutOfRange,
    PoleAtB,
    kummer_m,
    log_gamma,
    upper_incomplete_gamma,
    upper_incomplete_gamma_scaled,
)
from growthopt.specfun import _lanczos_lgamma, _lower_gamma_series, _upper_gamma_cf

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


LARGE_X = [1e15, 3e15, 9e15, 2.0**53, 9.1e15, 2.8e16, 1e17, 1e19, 1e50, 1e150, 1e300, 1.7e308]


@pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 1.0, 1.5, 1.95, 2.0, 3.7])
def test_scaled_upper_gamma_large_x_against_mpmath(s):
    for x in LARGE_X:
        with mpmath.workdps(40):
            ref = mpmath.exp(mpmath.mpf(x)) * mpmath.gammainc(s, x)
        if ref > mpmath.mpf(1.7976931348623157e308):
            with pytest.raises(DomainExceeded):
                upper_incomplete_gamma_scaled(s, x)
            continue
        res = upper_incomplete_gamma_scaled(s, x)
        err = abs(mpmath.mpf(res.value) - ref)
        if x >= 2.0**53:  # two terms of the asymptotic series
            assert err <= res.est_abs_error
            assert err <= 4e-16 * ref
        else:  # continued fraction: its front exp(s log x) loses up to s*log(x) ulps
            assert err <= 1e-13 * ref
        assert upper_incomplete_gamma(s, x).value == 0.0  # e^-x underflows


def mpmath_upper_gamma(s, x, scaled):
    with mpmath.workdps(40):
        value = mpmath.gammainc(s, x)
        return value * mpmath.exp(mpmath.mpf(x)) if scaled else value


def assert_error_within_estimate(fn, s, x):
    res = fn(s, x)
    ref = mpmath_upper_gamma(s, x, fn is upper_incomplete_gamma_scaled)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(res.value) - ref) <= res.est_abs_error, (fn.__name__, s, x)


@pytest.mark.parametrize("s, x", [(1.5, 3e15), (3.7, 3e15), (12.0, 9e15)])
def test_continued_fraction_estimate_charges_the_rounding_of_its_front(s, x):
    # exp(s*log(x)) turns the rounding of s*log(x), about 440 at (12, 9e15),
    # into a relative error of that many u
    assert_error_within_estimate(upper_incomplete_gamma_scaled, s, x)


def test_scaled_upper_gamma_estimate_bounds_the_error_below_two_to_the_53():
    # s in (0, 2], the range of the exponential jump moments (theta and theta + 1)
    rng = np.random.default_rng(1513)
    for s, x in zip(np.exp(rng.uniform(math.log(1e-3), math.log(2.0), 300)).tolist(),
                    np.exp(rng.uniform(math.log(1e13), math.log(2.0**53), 300)).tolist()):
        assert_error_within_estimate(upper_incomplete_gamma_scaled, s, x)


def test_incomplete_gamma_estimates_bound_the_error():
    # Gamma(53.78) = exp(log_gamma) carries about |log_gamma| u of relative
    # error; the continued fraction near x = s + 1 takes hundreds of steps
    assert_error_within_estimate(upper_incomplete_gamma, 53.78, 5.0)
    rng = np.random.default_rng(1514)
    for s, x in zip(np.exp(rng.uniform(math.log(1e-3), math.log(60.0), 600)).tolist(),
                    np.exp(rng.uniform(math.log(1e-8), math.log(800.0), 600)).tolist()):
        for fn in (upper_incomplete_gamma, upper_incomplete_gamma_scaled):
            assert_error_within_estimate(fn, s, x)


def test_scaled_upper_gamma_where_x_to_the_s_overflows():
    # x^s overflows from s*log(x) = 709.8 (s near 19.3 to 23.7 here), but the
    # value, about x^(s-1), stays finite for about one more unit of s; the
    # last 40 draws put s in that band
    rng = np.random.default_rng(1601)
    xs = np.exp(rng.uniform(math.log(1e13), math.log(2.0**53), 240)).tolist()
    ss = np.exp(rng.uniform(math.log(1e-3), math.log(60.0), 200)).tolist()
    ss += [709.8 / math.log(x) + rng.uniform(-0.2, 1.2) for x in xs[200:]]
    overflowing_front = 0
    for s, x in zip(ss, xs):
        if mpmath_upper_gamma(s, x, scaled=True) > mpmath.mpf(1.7976931348623157e308):
            with pytest.raises(DomainExceeded):
                upper_incomplete_gamma_scaled(s, x)
            continue
        overflowing_front += s * math.log(x) > 709.8
        assert_error_within_estimate(upper_incomplete_gamma_scaled, s, x)
    assert overflowing_front >= 20
    assert_error_within_estimate(upper_incomplete_gamma_scaled, 24.0, 1e13)


def test_incomplete_gamma_out_of_float_range_raises_a_typed_error():
    # Gamma(s) overflows from s = 171.6, exp(x) from x = 709.8.
    rng = np.random.default_rng(2000)
    raised = 0
    for s, x in zip(np.exp(rng.uniform(math.log(100.0), math.log(400.0), 1000)).tolist(),
                    rng.uniform(1.0, 5000.0, 1000).tolist()):
        for fn in (upper_incomplete_gamma, upper_incomplete_gamma_scaled):
            try:
                res = fn(s, x)
            except GrowthOptError:
                raised += 1
                continue
            assert math.isfinite(res.value) and math.isfinite(res.est_abs_error)
    assert raised > 0


def test_lanczos_sum_has_the_bits_of_its_loop():
    coef = (
        0.99999999999980993, 676.5203681218851, -1259.1392167224028,
        771.32342877765313, -176.61502916214059, 12.507343278686905,
        -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
    )

    def looped(x):
        xm1 = x - 1.0
        acc = coef[0]
        for i, c in enumerate(coef[1:], start=1):
            acc += c / (xm1 + i)
        t = xm1 + 7.5
        return 0.5 * math.log(2.0 * math.pi) + (xm1 + 0.5) * math.log(t) - t + math.log(acc)

    xs = np.geomspace(0.5, 1e300, 3000).tolist() + np.linspace(0.5, 3.0, 1001).tolist()
    assert all(_lanczos_lgamma(x) == looped(x) for x in xs)


def test_incomplete_gamma_loops_have_the_bits_of_their_reference_loops():
    def series(s, x):
        ap, term = s, 1.0 / s
        total = term
        for _ in range(2000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                return total, abs(term)

    def continued_fraction(s, x):
        b0 = x + 1.0 - s
        c, d = 1.0 / 1e-300, 1.0 / b0
        h = d
        for i in range(1, 2000):
            an = -i * (i - s)
            b0 += 2.0
            d = an * d + b0
            if abs(d) < 1e-300:
                d = 1e-300
            c = b0 + an / c
            if abs(c) < 1e-300:
                c = 1e-300
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < 1e-17:
                return h, abs(delta - 1.0) * abs(h), i

    rng = np.random.default_rng(14)
    for s in np.exp(rng.uniform(math.log(1e-3), math.log(60.0), 400)).tolist():
        for x in np.exp(rng.uniform(math.log(1e-8), math.log(1e4), 5)).tolist():
            if x < s + 1.0:
                assert _lower_gamma_series(s, x) == series(s, x)
            else:
                assert _upper_gamma_cf(s, x) == continued_fraction(s, x)


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


def test_log_gamma_beyond_the_float_range_raises():
    # (x - 1/2)*log(x + 13/2) overflows from about 2.6e305; the bits below stay
    assert log_gamma(2.5e305) == _lanczos_lgamma(2.5e305) < math.inf
    for x in (2.6e305, 1e308):
        with pytest.raises(DomainExceeded, match="log_gamma leaves the float range"):
            log_gamma(x)


def test_log_gamma_of_subnormal_x_against_mpmath():
    # pi/sin(pi*x) overflows below about 5.6e-309; log Gamma(x) is -log(x) there
    for x in (5e-324, 1e-320, 1e-310, 5e-309, 5.5e-309, 5.6e-309, 1e-308, 1e-300):
        value = log_gamma(x)
        with mpmath.workdps(40):
            ref = mpmath.loggamma(mpmath.mpf(x))
            assert abs(mpmath.mpf(value) - ref) <= 2.0**-52 * ref, x


def scalar_results(fn, s, xs):
    """(values, estimates) of one scalar call per x, as float arrays."""
    results = [fn(s, x) for x in xs]
    return (np.array([r.value for r in results]),
            np.array([r.est_abs_error for r in results]))


@pytest.mark.parametrize("fn", [upper_incomplete_gamma, upper_incomplete_gamma_scaled])
def test_incomplete_gamma_array_has_the_bits_of_scalar_calls(fn):
    # x = 0, the series (x < s + 1), the continued fraction, the asymptotic
    # series from 2^53, and (24, 1e13), where the scaled front x^s overflows
    rng = np.random.default_rng(1801)
    cases = [(24.0, np.array([1e13, 0.0, 3.0, 30.0]))]
    for s in np.exp(rng.uniform(math.log(1e-3), math.log(60.0), 40)).tolist():
        # the largest x where x^(s-1) stays finite, if that is above 2^53
        top = 300.0 if s <= 1.0 else min(300.0, 700.0 / (s - 1.0) / math.log(10.0))
        far = 10.0 ** rng.uniform(math.log10(2.0**53), top, 2) if top > 16.0 else []
        xs = np.concatenate([[0.0], s + 1.0 - rng.uniform(0.0, 1.0, 4) * (s + 1.0),
                             s + 1.0 + np.exp(rng.uniform(-3.0, math.log(1e4), 4)), far])
        cases.append((s, rng.permutation(xs)))
    assert sum(xs.max() >= 2.0**53 for _, xs in cases) >= 10
    for s, xs in cases:
        res = fn(s, xs)
        values, ests = scalar_results(fn, s, xs.tolist())
        assert res.value.tobytes() == values.tobytes(), (s, xs)
        assert res.est_abs_error.tobytes() == ests.tobytes(), (s, xs)
    grid = np.array([[0.0, 0.5, 4.0], [40.0, 2.0**53, 1e13]])
    res = fn(1.5, grid)
    assert res.value.shape == res.est_abs_error.shape == grid.shape
    assert res.value.tobytes() == scalar_results(fn, 1.5, grid.ravel().tolist())[0].tobytes()
    empty = fn(1.5, np.array([]))
    assert empty.value.shape == empty.est_abs_error.shape == (0,)


@pytest.mark.parametrize("fn", [upper_incomplete_gamma, upper_incomplete_gamma_scaled])
@pytest.mark.parametrize("s, bad_x", [(200.0, 50.0), (1.5, -1.0), (1.5, math.nan),
                                      (1.5, math.inf)])
def test_incomplete_gamma_array_raises_the_scalar_error(fn, s, bad_x):
    # Gamma(200) overflows in the series branch; x < 0, NaN and inf are out of range
    with pytest.raises(GrowthOptError) as scalar:
        fn(s, bad_x)
    with pytest.raises(type(scalar.value), match="upper incomplete gamma"):
        fn(s, np.array([s + 2.0, 0.5, bad_x, 3.0]))


def test_upper_gamma_where_the_unscaled_front_overflows():
    # x^s e^-x overflows from s*log(x) - x = 709.8, but the value, about
    # x^(s-1) e^-x, stays finite for about one more unit of s; the draws put
    # s in that band with x >= s + 1, where the continued fraction runs
    assert_error_within_estimate(upper_incomplete_gamma, 248.0, 1000.0)
    rng = np.random.default_rng(1802)
    overflowing_front = 0
    for x in np.exp(rng.uniform(math.log(300.0), math.log(1e4), 100)).tolist():
        s = (709.8 + x) / math.log(x) + rng.uniform(-0.2, 1.2)
        if mpmath_upper_gamma(s, x, scaled=False) > mpmath.mpf(1.7976931348623157e308):
            with pytest.raises(DomainExceeded):
                upper_incomplete_gamma(s, x)
            continue
        overflowing_front += s * math.log(x) - x > 709.8
        assert_error_within_estimate(upper_incomplete_gamma, s, x)
    assert overflowing_front >= 40
