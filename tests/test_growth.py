import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate

from growthopt import (
    ConstantJump,
    DensityJump,
    DomainExceeded,
    ExponentialJump,
    GbmParams,
    HestonParams,
    JumpDiffusionParams,
    OutOfRange,
    ThreeHalvesParams,
    Utility,
    VasicekParams,
    growth_curve,
    growth_rate,
    heston_coefficients,
    jump_derivative_moment,
    jump_utility_moment,
    lambda_gbm,
    lambda_heston,
    lambda_jump,
    lambda_three_halves,
    lambda_vasicek,
    laplace_three_halves_finite_t,
    optimal_allocation,
)

from growthopt import growth, specfun
from growthopt.growth import ALPHA_SLACK, SLOPE_SERIES_MIN_X, _clamp_alpha
from reference import (
    assert_variance_model_matches,
    exponential_slope_reference,
    laplace_three_halves_reference,
    variance_rate,
)
from support import (
    DRAWERS,
    draw_heston,
    draw_jump,
    draw_three_halves,
    draw_utility,
    draw_vasicek,
)

U = Utility(0.5)
GBM = GbmParams(mu=0.08, sigma=0.2, r=0.03)
HESTON = HestonParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.3, rho=-0.5, r=0.03, nu0=0.04)
THREE_HALVES = ThreeHalvesParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03, nu0=0.04)
VASICEK = VasicekParams(mu=0.08, sigma=0.2, kappa=2.0, gamma_level=0.03, delta=0.01, rho=-0.3, r0=0.03)
JUMP_CONSTANT = JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1.0, jump=ConstantJump(y=0.7), r=0.03)
JUMP_EXPONENTIAL = JumpDiffusionParams(
    mu=0.08, sigma=0.2, lambda_j=1.0, jump=ExponentialJump(rate=1.3), r=0.03
)


def test_gbm_values():
    assert lambda_gbm(GBM, U, 0.0) == 0.5 * 0.03
    # 0.5*(0.08 - 0.02) + 0.125*0.04
    assert lambda_gbm(GBM, U, 1.0) == pytest.approx(0.035, abs=1e-15)


def test_gbm_quadratic_coefficient_negative():
    # coefficient of alpha^2 is (theta^2 - theta) sigma^2 / 2 < 0
    for theta in (0.05, 0.5, 0.95):
        u = Utility(theta)
        vals = lambda_gbm(GBM, u, np.array([0.0, 0.5, 1.0]))
        assert vals[0] - 2 * vals[1] + vals[2] < 0.0


def test_alpha_clamp_and_rejection():
    assert lambda_gbm(GBM, U, -1e-10) == lambda_gbm(GBM, U, 0.0)
    assert lambda_gbm(GBM, U, 1.0 + 1e-10) == lambda_gbm(GBM, U, 1.0)
    with pytest.raises(OutOfRange):
        lambda_gbm(GBM, U, 1.1)
    with pytest.raises(OutOfRange):
        lambda_gbm(GBM, U, -0.1)


@pytest.mark.parametrize(
    "model", [GBM, HESTON, THREE_HALVES, VASICEK, JUMP_CONSTANT, JUMP_EXPONENTIAL]
)
def test_growth_rate_rejects_nan_alpha(model):
    with pytest.raises(OutOfRange):
        growth_rate(model, U, float("nan"))
    with pytest.raises(OutOfRange):
        growth_rate(model, U, np.array([0.0, np.nan, 1.0]))


@pytest.mark.parametrize("alpha", [0.25, np.float64(0.25), np.array(0.25)])
def test_clamp_alpha_returns_python_float_for_scalars(alpha):
    a = _clamp_alpha(alpha)
    assert type(a) is float and a == 0.25


def _clamp_alpha_by_ndim(alpha):
    """_clamp_alpha's scalar branch as it reads without the float shortcut."""
    assert np.ndim(alpha) == 0
    a = float(alpha)
    if not -ALPHA_SLACK <= a <= 1.0 + ALPHA_SLACK:
        raise OutOfRange(f"alpha must lie in [0, 1], got {alpha!r}")
    return min(max(a, 0.0), 1.0)


SCALAR_ALPHAS = [
    0.25, np.float64(0.25), 0, 1, True, False, np.int64(1), np.array(0.25), np.array(1),
    -ALPHA_SLACK, 1.0 + ALPHA_SLACK, np.float64(-ALPHA_SLACK), np.float64(1.0 + ALPHA_SLACK),
    math.nextafter(-ALPHA_SLACK, -1.0), math.nextafter(1.0 + ALPHA_SLACK, 2.0),
    np.nextafter(-ALPHA_SLACK, -1.0), np.array(math.nextafter(1.0 + ALPHA_SLACK, 2.0)),
    -0.0, 2, -1, math.nan, np.float64(math.nan), np.array(math.nan), math.inf, -math.inf,
]


@pytest.mark.parametrize("alpha", SCALAR_ALPHAS, ids=repr)
def test_clamp_alpha_float_shortcut_matches_the_ndim_path(alpha):
    try:
        want = _clamp_alpha_by_ndim(alpha)
    except OutOfRange as exc:
        with pytest.raises(OutOfRange) as raised:
            _clamp_alpha(alpha)
        assert str(raised.value) == str(exc)
        return
    got = _clamp_alpha(alpha)
    assert type(got) is type(want) is float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_exponential_rate_reaches_specfun_through_module_attributes(monkeypatch):
    # Span tracers wrap public functions where callers look them up; an
    # exponential-law rate must keep reaching these two through them.
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(growth, "upper_incomplete_gamma_scaled")
    count(specfun, "log_gamma")
    model = replace(JUMP_EXPONENTIAL, jump=ExponentialJump(rate=1.0))
    # x = rate*(1/alpha - 1) = 1/9 lies below s + 1, where Gamma(s) is needed.
    growth_rate(model, U, 0.9)
    assert calls["upper_incomplete_gamma_scaled"] > 0 and calls["log_gamma"] > 0
    calls.clear()
    growth_curve(model, U, 11)
    assert calls["upper_incomplete_gamma_scaled"] > 0 and calls["log_gamma"] > 0


@pytest.mark.parametrize("alpha", [1e-16, 3e-18, 1e-19, 1e-300])
def test_exponential_rate_near_the_bond(alpha):
    # x = 1/alpha - 1 passes 2^53, where the continued fraction cannot converge
    model = JumpDiffusionParams(mu=0.05, sigma=0.25, lambda_j=1.0, jump=ExponentialJump(rate=1.0), r=0.03)
    assert growth_rate(model, U, alpha) == pytest.approx(0.015, abs=1e-15)


def test_growth_rate_rejects_unsupported_model():
    with pytest.raises(OutOfRange, match="unsupported model type"):
        growth_rate(object(), U, 0.5)


@pytest.mark.filterwarnings("error")
def test_growth_rate_raises_domain_exceeded_when_not_finite():
    # kappa * gamma_level overflows, so the 3/2 rate is inf / inf.
    model = replace(THREE_HALVES, kappa=1e308, gamma_level=10.0)
    with pytest.raises(DomainExceeded, match="three_halves growth rate is not finite"):
        growth_rate(model, U, 0.5)
    with pytest.raises(DomainExceeded, match="three_halves growth rate is not finite"):
        growth_rate(model, U, np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainExceeded):
        growth_curve(model, U, 11)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [0.0, 1.0, np.linspace(0.0, 1.0, 5)])
def test_three_halves_rate_raises_when_kappa_over_delta_squared_overflows(alpha):
    # c = 1/2 + kappa/delta^2 is inf while kappa*gamma*q stays finite; the
    # bond-only value would drop gamma*alpha^2*(theta - theta^2)/2 = 0.375
    model = replace(THREE_HALVES, kappa=2e8, gamma_level=3.0, delta=1e-150)
    with pytest.raises(DomainExceeded, match="three_halves growth rate is not finite"):
        growth_rate(model, U, alpha)


def test_heston_coefficients_examples():
    rho0 = HestonParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.3, rho=0.0, r=0.03, nu0=0.04)
    c = heston_coefficients(rho0, U)
    assert c.c2 == 0.0
    assert c.c3 == pytest.approx(16.0 * 0.0016 / 0.0081, rel=1e-12)


def test_heston_coefficient_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = draw_heston(rng)
        u = draw_utility(rng)
        c = heston_coefficients(p, u)
        assert c.c1 > 0.0 and c.c3 > 0.0
        lhs = c.c1 * c.c3 - c.c2**2
        rhs = p.kappa**6 * p.gamma_level**4 * (u.theta - u.theta**2) / p.delta**6
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("change, bundle_overflows", [
    (dict(kappa=1e52), False), (dict(delta=1e-60), False), (dict(delta=1e-200), True),
    (dict(kappa=1e-163, gamma_level=1e76, delta=1e-44), True),
], ids=["kappa=1e52", "delta=1e-60", "delta=1e-200", "c3-underflows"])
def test_heston_closed_form_out_of_float_range_raises_domain_exceeded(change, bundle_overflows):
    # Inputs where the coefficient bundle cancels or leaves the float range:
    # the rate and optimum do not go through it and match the reference, and
    # only the bundle itself raises.
    p = replace(HESTON, **change)
    assert_variance_model_matches(p, U)
    if bundle_overflows:
        with pytest.raises(DomainExceeded, match="Heston coefficients leave the float range"):
            heston_coefficients(p, U)
    else:
        heston_coefficients(p, U)


@pytest.mark.filterwarnings("error")
def test_growth_rate_negative_radicand_raises_domain_exceeded():
    # theta one ulp below 1 and kappa = delta*theta*alpha*rho: m is 0 in exact
    # arithmetic, where the coefficient bundle's radicand rounds negative.
    p = HestonParams(mu=0.08, kappa=0.2710032349404143, gamma_level=1.6299714419948765,
                     delta=0.5843289818973504, rho=1.0, r=0.03, nu0=0.04)
    u, alpha = Utility(0.9999999999999999), 0.46378537319927376
    want = variance_rate(p, u, alpha)
    assert growth_rate(p, u, alpha) == pytest.approx(want, rel=1e-15)


def _edge_models(side):
    """Models whose e = theta*(mu - r)*delta/(kappa*gamma) lies one ulp ``side`` of
    the StockOnly edge b + sqrt(b^2 + v). With kappa*gamma = delta = 0.5,
    r = 0 and theta = 0.5, e = mu/2 exactly. At rho = -0.83 and 0.4 the
    interior term d = v + e*(2b - e) rounds to <= 0 one ulp below the edge.
    """
    models = []
    for rho in (-0.83, 0.4, 0.0):
        b, v = 0.5 * rho, 0.25
        root_w = math.sqrt(b * b + v)
        edge = b + root_w if b >= 0.0 else v / (root_w - b)
        mu = 2.0 * math.nextafter(edge, side)
        models.append(HestonParams(mu=mu, kappa=1.0, gamma_level=0.5, delta=0.5, rho=rho,
                                   r=0.0, nu0=0.04))
    # 3/2 has b = 0, so its edge is the last (rho = 0) one
    models.append(ThreeHalvesParams(mu=mu, kappa=1.0, gamma_level=0.5, delta=0.5, r=0.0,
                                    nu0=0.04))
    return models


EXTREMES = [dict(kappa=k) for k in (1e14, 1e17, 1e40, 1e52, 1e155, 1e300)] + [
    dict(delta=1e-60), dict(delta=1e-200)]
VARIANCE_TABLE = (
    [replace(HESTON, **change) for change in EXTREMES]
    # at delta = 1e-200 the 3/2 rate raises (test_growth_rate_divisor_underflow_...)
    + [replace(THREE_HALVES, **change) for change in EXTREMES[:-1]]
    # m = kappa - delta*theta*rho*alpha < 0 from alpha = 0.22
    + [HestonParams(mu=0.08, kappa=0.1, gamma_level=10.0, delta=1.0, rho=0.9, r=0.03, nu0=0.04)]
    # m^2 and delta^2 alpha^2 (theta - theta^2) underflow
    + [replace(HESTON, kappa=1e-200, gamma_level=1e150, delta=d) for d in (1e-160, 1e-170)]
    # kappa*gamma_level underflows to 0
    + [replace(THREE_HALVES, kappa=1e-200, gamma_level=1e-200)]
    # b = theta*rho and s = b - e near 1e-181, so b*s underflows to 0
    + [HestonParams(mu=0.125, kappa=1e96, gamma_level=1.0, delta=1e-88, rho=3.8072034948224054e-181,
                    r=0.0, nu0=0.04)]
    + _edge_models(0.0) + _edge_models(math.inf)
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", VARIANCE_TABLE, ids=[
    *(f"heston-{k}={v:g}" for c in EXTREMES for k, v in c.items()),
    *(f"three_halves-{k}={v:g}" for c in EXTREMES[:-1] for k, v in c.items()),
    "heston-m<0", "heston-squares-underflow-1e-160", "heston-squares-underflow-1e-170",
    "three_halves-kappa*gamma-underflows", "heston-b*s-underflows",
    *(f"{side}-edge-{name}" for side in ("below", "above")
      for name in ("heston-rho=-0.83", "heston-rho=0.4", "heston-rho=0", "three_halves")),
])
def test_variance_rates_and_optima_match_reference(model):
    assert_variance_model_matches(model, U)


@pytest.mark.filterwarnings("error")
def test_growth_rate_divisor_underflow_raises_domain_exceeded():
    # delta^2 underflows to 0, so kappa / delta^2 divides by zero.
    with pytest.raises(DomainExceeded, match="three_halves growth rate is not finite"):
        growth_rate(replace(THREE_HALVES, delta=1e-200), U, 0.5)


@pytest.mark.parametrize("kind", sorted(DRAWERS))
def test_scalar_rate_is_a_python_float_with_the_array_bits(kind):
    rng = np.random.default_rng(13)
    for _ in range(200):
        model, u = DRAWERS[kind](rng), draw_utility(rng)
        alphas = rng.uniform(0.0, 1.0, 8)
        curve = growth_rate(model, u, alphas)
        for a, want in zip(alphas.tolist(), curve.tolist()):
            got = growth_rate(model, u, a)
            assert type(got) is float
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == want


def test_laplace_three_halves_out_of_float_range_names_parameters():
    p = replace(THREE_HALVES, kappa=1e308, gamma_level=10.0)
    with pytest.raises(DomainExceeded, match=r"3/2 coefficients leave the float range at "
                       r"kappa=1e\+308, gamma_level=10.0, delta=0.5"):
        laplace_three_halves_finite_t(p, 0.0625, 1.0)


@pytest.mark.parametrize("kg_t", [1e-3, 1e-9, 1e-18])
def test_laplace_three_halves_small_kappa_gamma_t_matches_mpmath(kg_t):
    p = replace(THREE_HALVES, kappa=1.0, gamma_level=kg_t)
    value = laplace_three_halves_finite_t(p, 0.125, 1.0)
    assert value == pytest.approx(laplace_three_halves_reference(p, 0.125, 1.0), rel=1e-13)


@pytest.mark.parametrize("change", [
    dict(kappa=1e-200, gamma_level=1e-200),
    dict(kappa=1e-150, gamma_level=1e-150, delta=1e100, nu0=1e100),
], ids=["kappa-gamma-underflow", "delta-nu0-underflow"])
def test_laplace_three_halves_underflow_names_parameters(change):
    p = replace(THREE_HALVES, **change)
    with pytest.raises(DomainExceeded, match=r"3/2 transform constants at t=1.0 leave the "
                       r"float range at kappa=.*gamma_level=.*delta=.*nu0="):
        laplace_three_halves_finite_t(p, 0.0625, 1.0)


def test_heston_bond_only_value_exact():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = draw_heston(rng)
        u = draw_utility(rng)
        assert lambda_heston(p, u, 0.0) == u.theta * p.r


def test_heston_nu0_invariance_bitwise():
    a_grid = np.linspace(0.0, 1.0, 11)
    low = HestonParams(**{**HESTON.__dict__, "nu0": 0.01})
    high = HestonParams(**{**HESTON.__dict__, "nu0": 0.25})
    assert np.array_equal(lambda_heston(low, U, a_grid), lambda_heston(high, U, a_grid))


def test_heston_small_delta_degenerates_to_gbm():
    p = HestonParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=1e-3, rho=0.0, r=0.03, nu0=0.04)
    gbm = GbmParams(mu=0.08, sigma=math.sqrt(0.04), r=0.03)
    a_grid = np.linspace(0.0, 1.0, 101)
    gap = np.max(np.abs(lambda_heston(p, U, a_grid) - lambda_gbm(gbm, U, a_grid)))
    assert gap <= 1e-5


def test_three_halves_bond_only_and_squared_term():
    rng = np.random.default_rng(13)
    for _ in range(200):
        p = draw_three_halves(rng)
        u = draw_utility(rng)
        assert lambda_three_halves(p, u, 0.0) == u.theta * p.r
    # independent arithmetic for the all-stock value of the reference setup
    expected = 0.5 * 0.08 + 0.08 * 8.5 - 0.08 * math.sqrt(8.5**2 + 1.0 * 0.25 / 0.25)
    assert lambda_three_halves(THREE_HALVES, U, 1.0) == pytest.approx(expected, rel=1e-12)


def test_three_halves_decreasing_when_no_excess_return():
    p = ThreeHalvesParams(mu=0.03, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03, nu0=0.04)
    grid = np.linspace(0.0, 1.0, 50)
    vals = lambda_three_halves(p, U, grid)
    assert np.all(np.diff(vals) < 0.0)


def test_three_halves_nu0_invariance_bitwise():
    grid = np.linspace(0.0, 1.0, 11)
    low = ThreeHalvesParams(**{**THREE_HALVES.__dict__, "nu0": 0.02})
    high = ThreeHalvesParams(**{**THREE_HALVES.__dict__, "nu0": 0.4})
    assert np.array_equal(lambda_three_halves(low, U, grid), lambda_three_halves(high, U, grid))


def test_laplace_transform_small_rate_limit():
    value = laplace_three_halves_finite_t(THREE_HALVES, 1e-12, 5.0)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < value <= 1.0


def test_laplace_transform_long_horizon_limit():
    lambda_l = 0.125
    d2 = THREE_HALVES.delta**2
    c = 0.5 + THREE_HALVES.kappa / d2
    a = math.sqrt(c * c + 2.0 * lambda_l / d2) - c
    limit = -a * THREE_HALVES.kappa * THREE_HALVES.gamma_level
    value = laplace_three_halves_finite_t(THREE_HALVES, lambda_l, 200.0)
    assert math.log(value) / 200.0 == pytest.approx(limit, abs=1e-4)


def test_laplace_transform_rejects_tiny_horizon():
    # the Kummer argument grows past the supported domain as t -> 0
    with pytest.raises(DomainExceeded):
        laplace_three_halves_finite_t(THREE_HALVES, 0.125, 1e-3)
    with pytest.raises(OutOfRange):
        laplace_three_halves_finite_t(THREE_HALVES, -1.0, 1.0)


def test_jump_moment_trivial_cases():
    assert jump_utility_moment(ConstantJump(y=1.0), U, 0.7) == 1.0
    for law in (ConstantJump(y=2.0), ExponentialJump(rate=1.3)):
        assert jump_utility_moment(law, U, 0.0) == 1.0


def test_jump_moment_exponential_matches_quadrature():
    rj, theta = 2.0, 0.5
    u = Utility(theta)
    for alpha in (0.1, 0.5, 0.9):
        closed = jump_utility_moment(ExponentialJump(rate=rj), u, alpha)
        quad, _ = integrate.quad(
            lambda y: (alpha * y + 1.0 - alpha) ** theta * rj * math.exp(-rj * y),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-13,
        )
        assert closed == pytest.approx(quad, rel=1e-8)


def test_jump_moment_density_law_matches_exponential_closed_form():
    rate = 1.5
    bound = 60.0 / rate
    norm = 1.0 - math.exp(-rate * bound)
    law = DensityJump(density=lambda y: rate * math.exp(-rate * y) / norm, bound=bound)
    for alpha in (0.2, 0.8):
        via_density = jump_utility_moment(law, U, alpha)
        via_closed = jump_utility_moment(ExponentialJump(rate=rate), U, alpha)
        assert via_density == pytest.approx(via_closed, abs=1e-8)


def test_jump_derivative_moment_constant_matches_finite_difference():
    # d/da E[(a(Y-1)+1)^theta] = theta E[(a(Y-1)+1)^(theta-1) (Y-1)]
    law = ConstantJump(y=1.8)
    h = 1e-6
    for alpha in (0.2, 0.6):
        fd = (
            jump_utility_moment(law, U, alpha + h) - jump_utility_moment(law, U, alpha - h)
        ) / (2 * h)
        assert U.theta * jump_derivative_moment(law, U, alpha) == pytest.approx(fd, rel=1e-6)


def test_jump_derivative_moment_exponential_matches_finite_difference():
    law = ExponentialJump(rate=2.0)
    h = 1e-6
    for alpha in (0.3, 0.7):
        fd = (
            jump_utility_moment(law, U, alpha + h) - jump_utility_moment(law, U, alpha - h)
        ) / (2 * h)
        # d/da E[(a(Y-1)+1)^theta] = theta E[(a(Y-1)+1)^(theta-1) (Y-1)]
        assert U.theta * jump_derivative_moment(law, U, alpha) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("rate", [0.05, 0.5, 2.0, 5.0, 50.0])
def test_jump_derivative_moment_exponential_matches_mpmath(rate, theta):
    # x = rate*(1/alpha - 1) crosses the series switch between these alphas
    switch = rate / (SLOPE_SERIES_MIN_X + rate)
    alphas = [0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.5, 1.0,
              rate / (SLOPE_SERIES_MIN_X + 1.0 + rate), rate / (SLOPE_SERIES_MIN_X - 1.0 + rate),
              math.nextafter(switch, 0.0), switch, math.nextafter(switch, 1.0)]
    u = Utility(theta)
    for alpha in alphas:
        value = jump_derivative_moment(ExponentialJump(rate=rate), u, alpha)
        assert abs(value - exponential_slope_reference(rate, theta, alpha)) <= 1e-12, alpha


def test_jump_constant_one_equals_gbm_bitwise():
    jd = JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1.7, jump=ConstantJump(y=1.0), r=0.03)
    gbm = GbmParams(mu=0.08, sigma=0.2, r=0.03)
    for alpha in np.linspace(0.0, 1.0, 21):
        assert lambda_jump(jd, U, float(alpha)) == lambda_gbm(gbm, U, float(alpha))


def test_constant_jump_curve_matches_scalar_rate():
    # the curve evaluates the constant law in one numpy power, the scalar
    # rate in Python's; the two may differ in the last bits only
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 50:
        p = draw_jump(rng)
        u = draw_utility(rng)
        if not isinstance(p.jump, ConstantJump):
            continue
        curve = growth_curve(p, u, 101)
        scalar = [float(growth_rate(p, u, float(a))) for a in curve.alphas]
        assert np.max(np.abs(curve.lambdas - scalar)) <= 1e-14
        checked += 1


def test_jump_bond_only_value_exact():
    rng = np.random.default_rng(14)
    for _ in range(100):
        p = draw_jump(rng)
        u = draw_utility(rng)
        assert lambda_jump(p, u, 0.0) == u.theta * p.r


def test_vasicek_boundary_values():
    rng = np.random.default_rng(15)
    for _ in range(200):
        p = draw_vasicek(rng)
        u = draw_utility(rng)
        t = u.theta
        at0 = p.gamma_level * t + p.delta**2 * t**2 / (2.0 * p.kappa**2)
        at1 = 0.5 * (t * t - t) * p.sigma**2 + t * p.mu
        assert lambda_vasicek(p, u, 0.0) == pytest.approx(at0, abs=1e-12)
        assert lambda_vasicek(p, u, 1.0) == pytest.approx(at1, abs=1e-12)


def test_vasicek_exactly_quadratic():
    grid = np.linspace(0.0, 1.0, 101)
    vals = lambda_vasicek(VASICEK, U, grid)
    third = vals[3:] - 3.0 * vals[2:-1] + 3.0 * vals[1:-2] - vals[:-3]
    assert np.max(np.abs(third)) <= 1e-10


def test_vasicek_r0_invariance_bitwise():
    grid = np.linspace(0.0, 1.0, 11)
    low = VasicekParams(**{**VASICEK.__dict__, "r0": -0.05})
    high = VasicekParams(**{**VASICEK.__dict__, "r0": 0.10})
    assert np.array_equal(lambda_vasicek(low, U, grid), lambda_vasicek(high, U, grid))


def test_vasicek_small_delta_degenerates_to_gbm():
    p = VasicekParams(mu=0.08, sigma=0.2, kappa=2.0, gamma_level=0.03, delta=1e-6, rho=0.0, r0=0.07)
    gbm = GbmParams(mu=0.08, sigma=0.2, r=0.03)
    grid = np.linspace(0.0, 1.0, 101)
    gap = np.max(np.abs(lambda_vasicek(p, U, grid) - lambda_gbm(gbm, U, grid)))
    assert gap <= 1e-9


def test_growth_curve_structure():
    curve = growth_curve(HESTON, U, 2)
    assert curve.alphas.tolist() == [0.0, 1.0]
    curve = growth_curve(HESTON, U, 101)
    assert curve.lambdas[0] == U.theta * HESTON.r
    second = curve.lambdas[2:] - 2.0 * curve.lambdas[1:-1] + curve.lambdas[:-2]
    assert np.all(second < 0.0)
    with pytest.raises(OutOfRange):
        growth_curve(HESTON, U, 1)


def test_growth_rate_dispatch_matches_direct():
    assert growth_rate(GBM, U, 0.3) == lambda_gbm(GBM, U, 0.3)
    assert growth_rate(HESTON, U, 0.3) == lambda_heston(HESTON, U, 0.3)
    assert growth_rate(THREE_HALVES, U, 0.3) == lambda_three_halves(THREE_HALVES, U, 0.3)
    assert growth_rate(VASICEK, U, 0.3) == lambda_vasicek(VASICEK, U, 0.3)


def test_exponential_rate_array_pays_its_fixed_costs_once(monkeypatch):
    # one incomplete-gamma call per array, and Gamma(s) at most once in it
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(growth, "upper_incomplete_gamma_scaled")
    count(specfun, "log_gamma")
    rng = np.random.default_rng(1803)
    # (alphas, the possible log_gamma counts): alpha = 1 puts x = 0 in the
    # series branch, which needs Gamma(s); alpha = 0 needs no incomplete gamma
    cases = [(np.linspace(0.0, 1.0, 101), {1}), (np.linspace(0.0, 1.0, 64), {1}),
             (rng.uniform(0.0, 1.0, 7), {0, 1}), (rng.uniform(0.0, 1.0, (3, 4)), {0, 1}),
             (np.zeros(3), {0}), (np.empty(0), {0})]
    checked = 0
    while checked < 20:
        model, u = draw_jump(rng), draw_utility(rng)
        if not isinstance(model.jump, ExponentialJump):
            continue
        for alphas, log_gamma_calls in cases:
            calls.clear()
            growth_rate(model, u, alphas)
            assert calls["upper_incomplete_gamma_scaled"] == 1
            assert calls.get("log_gamma", 0) in log_gamma_calls
        checked += 1


def test_exponential_moment_array_is_exactly_one_at_alpha_zero():
    moments = growth._jump_moment(ExponentialJump(rate=1.3), 0.5, np.array([0.0, -0.0, 0.5]))
    assert moments[:2].tolist() == [1.0, 1.0]
    assert moments[2] == growth._jump_moment(ExponentialJump(rate=1.3), 0.5, 0.5)


def test_clamp_alpha_on_arrays():
    for bad in ([0.2, math.nan], [math.nan], [0.5, 1.0 + 2.0 * ALPHA_SLACK],
                [-2.0 * ALPHA_SLACK, 0.5], [-math.inf, 0.5], [0.5, math.inf]):
        with pytest.raises(OutOfRange, match="alpha must lie in"):
            _clamp_alpha(np.array(bad))
    slack = np.array([-ALPHA_SLACK, -1e-12, 0.5, 1.0 + 1e-12, 1.0 + ALPHA_SLACK])
    clipped = _clamp_alpha(slack)
    assert clipped.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
    assert slack[0] == -ALPHA_SLACK  # the input is not written into
    inside = np.array([-0.0, 0.0, 5e-324, 0.3, 1.0])
    assert _clamp_alpha(inside).tobytes() == inside.tobytes() == np.clip(inside, 0.0, 1.0).tobytes()
    assert _clamp_alpha([0, 1]).tolist() == [0.0, 1.0]
    for shape in [(0,), (3, 0)]:
        empty = _clamp_alpha(np.empty(shape))
        assert empty.shape == shape and empty.dtype == np.float64


RATE_MODELS = [GBM, HESTON, THREE_HALVES, JUMP_CONSTANT, JUMP_EXPONENTIAL, VASICEK]


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
@pytest.mark.parametrize("model", RATE_MODELS, ids=lambda m: type(m).__name__)
def test_growth_rate_of_an_empty_alpha_array(model, shape):
    value = growth_rate(model, U, np.empty(shape))
    assert isinstance(value, np.ndarray)
    assert value.shape == shape and value.dtype == np.float64


@pytest.mark.parametrize("model", RATE_MODELS, ids=lambda m: type(m).__name__)
def test_growth_rate_only_reads_its_alpha_array(model):
    grid = np.linspace(0.0, 1.0, 11)
    grid.flags.writeable = False
    rates = growth_rate(model, U, grid)
    assert rates is not grid and rates.tolist() == [growth_rate(model, U, a) for a in grid.tolist()]
