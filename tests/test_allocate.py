import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthopt import allocate
from growthopt import (
    ConstantJump,
    DensityJump,
    DomainExceeded,
    ExponentialJump,
    GbmParams,
    GrowthOptError,
    HestonParams,
    JumpDiffusionParams,
    ThreeHalvesParams,
    Utility,
    VasicekParams,
    growth_rate,
    jump_derivative_moment,
    numeric_argmax,
    optimal_allocation,
    optimal_gbm,
    optimal_heston,
    optimal_jump,
    optimal_three_halves,
    optimal_vasicek,
)

from reference import (
    assert_variance_model_matches,
    gbm_argmax,
    jump_argmax,
    jump_rate,
    jump_slope,
    variance_argmax,
    variance_rate,
    vasicek_argmax,
)
from support import DRAWERS, draw_jump, draw_utility

U = Utility(0.5)
# numeric_argmax's worst case beyond its one array call, as its docstring states
ARGMAX_MAX_SCALAR_CALLS = 54


def one_sided_slope(model, u, at, h=1e-6):
    if at == 0.0:
        return (growth_rate(model, u, h) - growth_rate(model, u, 0.0)) / h
    return (growth_rate(model, u, 1.0) - growth_rate(model, u, 1.0 - h)) / h


def test_gbm_cases():
    bond = optimal_gbm(GbmParams(mu=0.03, sigma=0.2, r=0.03), U)
    assert bond.alpha_star == 0.0 and bond.case_label == "BondOnly"
    assert bond.alpha_dagger is None

    inner = optimal_gbm(GbmParams(mu=0.05, sigma=0.3, r=0.03), U)
    assert inner.case_label == "Interior"
    assert inner.alpha_star == pytest.approx(0.02 / (0.5 * 0.09), rel=1e-14)
    assert inner.alpha_dagger == inner.alpha_star

    stock = optimal_gbm(GbmParams(mu=0.08, sigma=0.2, r=0.03), U)
    assert stock.alpha_star == 1.0 and stock.case_label == "StockOnly"
    assert stock.alpha_dagger == pytest.approx(2.5, rel=1e-14)


def test_heston_slope_at_zero_is_excess_return():
    # c4 + c2/sqrt(c3) reduces to theta*(mu - r): ties go to the bond
    tie = HestonParams(mu=0.03, kappa=2.0, gamma_level=0.04, delta=0.3, rho=0.4, r=0.03, nu0=0.04)
    d = optimal_heston(tie, U)
    assert d.alpha_star == 0.0 and d.case_label == "BondOnly"

    rho0 = HestonParams(mu=0.03, kappa=2.0, gamma_level=0.04, delta=0.3, rho=0.0, r=0.03, nu0=0.04)
    assert optimal_heston(rho0, U).alpha_star == 0.0


def test_heston_stock_only_branch():
    p = HestonParams(mu=0.5, kappa=2.0, gamma_level=0.04, delta=0.3, rho=-0.5, r=0.03, nu0=0.04)
    d = optimal_heston(p, U)
    assert d.alpha_star == 1.0 and d.case_label == "StockOnly"


def test_heston_interior_matches_numeric():
    p = HestonParams(mu=0.05, kappa=1.0, gamma_level=0.16, delta=0.4, rho=-0.3, r=0.03, nu0=0.1)
    d = optimal_heston(p, U)
    assert d.case_label in ("Interior", "ClampedToOne")
    assert abs(d.alpha_star - numeric_argmax(p, U)) <= 1e-6


def test_three_halves_cases():
    bond = optimal_three_halves(
        ThreeHalvesParams(mu=0.03, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03, nu0=0.04), U
    )
    assert bond.alpha_star == 0.0 and bond.case_label == "BondOnly"

    # exact tie of the all-stock branch: theta*(mu-r) = (kappa*gamma/delta)*sqrt(theta-theta^2)
    # with dyadic values 0.5*1.0 = (0.5/0.5)*0.5
    tie = ThreeHalvesParams(mu=1.03, kappa=2.0, gamma_level=0.25, delta=0.5, r=0.03, nu0=0.04)
    d = optimal_three_halves(tie, U)
    assert d.alpha_star == 1.0 and d.case_label == "StockOnly"

    inner = optimal_three_halves(
        ThreeHalvesParams(mu=0.035, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03, nu0=0.04), U
    )
    assert inner.case_label in ("Interior", "ClampedToOne")


@pytest.mark.parametrize("change, raises", [
    (dict(kappa=1e308, gamma_level=10.0), True),  # kappa*gamma_level overflows
    (dict(kappa=1e200), False),                   # only its square overflows
    (dict(delta=1e-200), False),                  # delta^2 underflows, m0 = kappa
    (dict(kappa=1e10, delta=1e-300), False),      # kappa/delta^2 and m0/delta overflow
    (dict(mu=0.03, kappa=1e308, gamma_level=10.0), True),  # bond-only branch
], ids=["kappa-gamma", "kappa-gamma-squared", "delta-squared", "kappa-over-delta-squared",
        "bond-only"])
def test_three_halves_out_of_float_range_names_parameters(change, raises):
    p = replace(ThreeHalvesParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03,
                                  nu0=0.04), **change)
    if not raises:  # the decision never squares kappa*gamma_level nor divides by delta^2
        assert_variance_model_matches(p, U)
        return
    named = f"kappa={p.kappa!r}, gamma_level={p.gamma_level!r}, delta={p.delta!r}"
    for call in (optimal_three_halves, optimal_allocation):
        with pytest.raises(DomainExceeded, match="3/2 coefficients leave the float range") as exc:
            call(p, U)
        assert str(exc.value).endswith(named)


def test_heston_stationary_point_beyond_the_float_range_raises():
    # alpha_dagger ~ (mu - r)/((1 - theta)*gamma_level) ~ 1e308
    p = HestonParams(mu=0.08, kappa=1e300, gamma_level=1e-310, delta=1e-12, rho=-0.5, r=0.03,
                     nu0=0.04)
    with pytest.raises(DomainExceeded, match="stationary-point terms leave the float range at "
                       "kappa=1e\\+300, gamma_level=1e-310, delta=1e-12"):
        optimal_heston(p, U)


def test_three_halves_interior_matches_numeric():
    p = ThreeHalvesParams(mu=0.035, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03, nu0=0.04)
    d = optimal_three_halves(p, U)
    assert abs(d.alpha_star - numeric_argmax(p, U)) <= 1e-6


def test_jump_trivial_cases():
    p = JumpDiffusionParams(mu=0.03, sigma=0.2, lambda_j=1.0, jump=ConstantJump(y=1.0), r=0.03)
    d = optimal_jump(p, U)
    assert d.alpha_star == 0.0 and d.case_label == "BondOnly"


def test_jump_constant_one_matches_gbm_decision():
    for mu, sigma, r in [(0.05, 0.3, 0.03), (0.08, 0.2, 0.03), (0.01, 0.2, 0.03)]:
        jd = JumpDiffusionParams(mu=mu, sigma=sigma, lambda_j=2.0, jump=ConstantJump(y=1.0), r=r)
        gbm = GbmParams(mu=mu, sigma=sigma, r=r)
        dj = optimal_jump(jd, U)
        dg = optimal_gbm(gbm, U)
        assert dj.case_label == dg.case_label
        assert dj.alpha_star == pytest.approx(dg.alpha_star, abs=1e-9)


def test_jump_interior_bracketing_and_numeric():
    p = JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1.0, jump=ExponentialJump(rate=0.8), r=0.03)
    d = optimal_jump(p, U)
    assert d.case_label == "Interior"
    assert one_sided_slope(p, U, 0.0) > 0.0
    assert one_sided_slope(p, U, 1.0) < 0.0
    assert abs(d.alpha_star - numeric_argmax(p, U)) <= 1e-6


def test_jump_root_finder_takes_few_slopes_and_keeps_a_sign_change(monkeypatch):
    # Interior draws of both closed-form laws, plus a quadrature (density) law.
    rng = np.random.default_rng(14)
    interior = {ExponentialJump: [], ConstantJump: []}
    while min(len(found) for found in interior.values()) < 10:
        p, u = draw_jump(rng), draw_utility(rng)
        if optimal_jump(p, u).case_label == "Interior":
            interior[type(p.jump)].append((p, u))
    uniform = DensityJump(density=lambda y: 1.0 / 3.0, bound=3.0)
    density = JumpDiffusionParams(mu=0.08, sigma=0.25, lambda_j=1.0, jump=uniform, r=0.03)
    cases = [*interior[ExponentialJump][:10], *interior[ConstantJump][:10], (density, Utility(0.3))]

    slope = allocate._jump_slope
    probes = []

    def counted(p, u, alpha):
        s = slope(p, u, alpha)
        probes.append((alpha, s))
        return s

    monkeypatch.setattr(allocate, "_jump_slope", counted)
    for p, u in cases:
        probes.clear()
        d = optimal_jump(p, u)
        assert d.case_label == "Interior"
        assert len(probes) <= 20  # bisection took up to 42
        lo = max((a for a, s in probes if s > 0.0), default=0.0)
        hi = min((a for a, s in probes if s < 0.0), default=1.0)
        assert lo <= d.alpha_star <= hi
        assert slope(p, u, lo) > 0.0 > slope(p, u, hi)
        assert abs(d.alpha_star - numeric_argmax(p, u)) <= 1e-6


def test_jump_constant_y_near_zero_is_right_or_a_typed_error():
    # a*(y - 1) + 1 rounds y = 5e-324 away, and the slope at 1, -y^(theta - 1),
    # is -4.5e161 at theta = 0.5 and beyond the float range at theta = 0.01,
    # where its sign, that of y - 1, still places the root inside
    p = JumpDiffusionParams(mu=2.0, sigma=0.2, lambda_j=1.0, jump=ConstantJump(y=5e-324), r=0.03)
    for u in (U, Utility(0.01)):
        d = optimal_jump(p, u)
        assert d.case_label == "Interior"
        assert abs(d.alpha_star - numeric_argmax(p, u)) <= 1e-6
    with pytest.raises(DomainExceeded, match="jump_y=5e-324"):
        jump_derivative_moment(p.jump, Utility(0.01), 1.0)


@contextlib.contextmanager
def jump_slope_calls():
    """Yield a list that gains the alpha of each ``allocate._jump_slope`` call."""
    calls = []
    slope = allocate._jump_slope

    def counted(p, u, alpha):
        calls.append(alpha)
        return slope(p, u, alpha)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocate, "_jump_slope", counted)
        yield calls


def meets_stop_rule(model, u, alpha):
    """optimal_jump's stop rule against the reference slope: |slope| <= 1e-12
    at alpha, or the root of the decreasing slope within 1e-14 of alpha."""
    if abs(jump_slope(model, u, alpha)) <= 1e-12:
        return True
    return jump_slope(model, u, max(alpha - 1e-14, 0.0)) >= 0.0 >= jump_slope(
        model, u, min(alpha + 1e-14, 1.0))


# the slope falls from about 1 at alpha = 0 to -y^(theta - 1) at 1: -4.5e161 at
# theta = 0.5, beyond the float range at theta = 0.01
CREEP = JumpDiffusionParams(mu=2.0, sigma=0.2, lambda_j=1.0, jump=ConstantJump(y=5e-324), r=0.03)


@pytest.mark.parametrize("model, theta, label, star", [
    (CREEP, 0.5, "Interior", 0.73842057),
    (CREEP, 0.05, "Interior", 0.50510678),
    (CREEP, 0.01, "Interior", 0.49077631),
    (replace(CREEP, mu=1.5, jump=ConstantJump(y=1e-300)), 0.3, "Interior", 0.41666394),
    (JumpDiffusionParams(mu=0.7, sigma=0.3, lambda_j=1.0, jump=ConstantJump(y=0.5), r=0.03), 0.5,
     "Interior", 0.76265165),
    (JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1.0, jump=ExponentialJump(rate=0.8), r=0.03),
     0.5, "Interior", 0.59097764),
    (JumpDiffusionParams(mu=1.5, sigma=0.2, lambda_j=1.0, jump=ExponentialJump(rate=1e6), r=0.03),
     0.5, "Interior", 0.53047832),
    (JumpDiffusionParams(mu=0.05, sigma=0.2, lambda_j=2.0, jump=ExponentialJump(rate=1.0), r=0.03),
     0.1, "Interior", 0.011112714),
    (JumpDiffusionParams(mu=0.5, sigma=0.3, lambda_j=1.0, jump=ConstantJump(y=0.5), r=0.03), 0.5,
     "BondOnly", 0.0),
    (JumpDiffusionParams(mu=0.08, sigma=0.05, lambda_j=0.1, jump=ExponentialJump(rate=1e-3),
                         r=0.03), 0.2, "StockOnly", 1.0),
], ids=["y-5e-324-theta-0.5", "y-5e-324-theta-0.05", "y-5e-324-theta-0.01", "y-1e-300",
        "y-0.5", "rate-0.8", "rate-1e6", "rate-1-theta-0.1", "bond", "stock"])
def test_jump_optimum_matches_reference(model, theta, label, star):
    u = Utility(theta)
    d = optimal_jump(model, u)
    assert d.case_label == label
    assert d.alpha_star == pytest.approx(star, abs=1e-8)
    assert abs(d.alpha_star - jump_argmax(model, u)) <= 1e-10
    assert label != "Interior" or meets_stop_rule(model, u, d.alpha_star)
    want = jump_rate(model, u, d.alpha_star)
    assert abs(d.lambda_at_star - want) <= 1e-13 * abs(want)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    constant=st.booleans(),
    log2_y=st.integers(-1074, 1),
    log2_y_frac=st.floats(0.0, 0.5),
    rate=st.floats(0.5, 5.0),
    excess=st.floats(-0.05, 0.15),
    sigma=st.floats(0.05, 0.6),
    lambda_j=st.floats(0.1, 3.0),
    r=st.floats(-0.02, 0.08),
    theta=st.floats(0.05, 0.95),
)
def test_jump_optimum_meets_its_stop_rule_against_reference(
    constant, log2_y, log2_y_frac, rate, excess, sigma, lambda_j, r, theta
):
    # y log-uniform over [5e-324, 2^1.5]; the slope at 0 is theta*excess, with
    # excess over the support's mu range, so that most draws with y near 0 search
    law = ConstantJump(y=2.0 ** (log2_y + log2_y_frac)) if constant else ExponentialJump(rate=rate)
    model = JumpDiffusionParams(mu=r + excess + lambda_j * (1.0 - law.mean()), sigma=sigma,
                                lambda_j=lambda_j, jump=law, r=r)
    u = Utility(theta)
    d = optimal_jump(model, u)
    if d.case_label == "BondOnly":
        assert jump_slope(model, u, 0.0) <= 1e-12
    elif d.case_label == "StockOnly":
        assert jump_slope(model, u, 1.0) >= -1e-12
    else:
        assert meets_stop_rule(model, u, d.alpha_star)


def test_jump_search_bisects_where_false_position_creeps():
    # false position alone creeps from 0 against a slope of -4.5e161 at 1 for
    # hundreds of steps; bisection alone takes about 50
    for theta in (0.5, 0.05):
        with jump_slope_calls() as calls:
            optimal_jump(CREEP, Utility(theta))
        assert len(calls) <= 20, theta


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    constant=st.booleans(),
    log2_y=st.floats(-1074.0, 996.0),
    log10_rate=st.floats(-300.0, 300.0),
    log10_premium=st.floats(-8.0, 4.0),
    negative=st.booleans(),
    log10_sigma=st.floats(-8.0, 4.0),
    log10_lambda=st.floats(-8.0, 4.0),
    r=st.floats(-0.02, 0.08),
    theta=st.floats(0.05, 0.95),
)
def test_jump_search_slope_calls_are_bounded(
    constant, log2_y, log10_rate, log10_premium, negative, log10_sigma, log10_lambda, r, theta
):
    law = ConstantJump(y=2.0**log2_y) if constant else ExponentialJump(rate=10.0**log10_rate)
    premium = -(10.0**log10_premium) if negative else 10.0**log10_premium
    model = JumpDiffusionParams(mu=r + premium, sigma=10.0**log10_sigma,
                                lambda_j=10.0**log10_lambda, jump=law, r=r)
    with jump_slope_calls() as calls:
        try:
            optimal_jump(model, Utility(theta))
        except GrowthOptError:
            pass
    # the bound in STALL_STEPS's comment, plus the slopes at 0 and 1
    assert len(calls) <= (allocate.STALL_STEPS + 1) * math.ceil(math.log2(1e14)) + 2


def test_vasicek_convex_tie_goes_to_bond():
    # every quantity dyadic: gamma + delta^2 theta/(2 kappa^2) == (theta-1) sigma^2/2 + mu
    p = VasicekParams(mu=0.5, sigma=0.5, kappa=0.5, gamma_level=0.1875, delta=0.5, rho=0.0, r0=0.03)
    theta = 0.5
    assert p.gamma_level + p.delta**2 * theta / (2 * p.kappa**2) == 0.5 * (theta - 1) * p.sigma**2 + p.mu
    d = optimal_vasicek(p, U)
    assert d.case_label == "ConvexBoundary"
    assert d.alpha_star == 0.0


def test_vasicek_convex_boundaries():
    base = dict(sigma=0.02, kappa=0.5, gamma_level=0.03, delta=0.2, rho=0.0, r0=0.03)
    lo = optimal_vasicek(VasicekParams(mu=0.01, **base), U)
    hi = optimal_vasicek(VasicekParams(mu=0.30, **base), U)
    assert lo.case_label == hi.case_label == "ConvexBoundary"
    assert lo.alpha_star == 0.0
    assert hi.alpha_star == 1.0
    # the numeric maximizer agrees even though the rate is convex
    assert abs(hi.alpha_star - numeric_argmax(VasicekParams(mu=0.30, **base), U)) <= 1e-6


def test_vasicek_decides_where_only_delta_over_kappa_squared_overflows():
    # (delta/kappa)^2 overflows but the rate's alpha = 0 term
    # (theta*delta/kappa)^2/2 = 9.16e307 does not: the curvature is inf, so
    # the finite end rates decide
    p = VasicekParams(mu=0.10623603982520959, sigma=0.06508007094278354,
                      kappa=1.5412213631726247e-175, gamma_level=0.0008721407331969168,
                      delta=3.8237583297373355e-21, rho=-0.781846461615715, r0=0.03)
    u = Utility(0.5455502079549728)
    d = optimal_vasicek(p, u)
    assert d.case_label == "ConvexBoundary"
    assert d.alpha_star == numeric_argmax(p, u) == vasicek_argmax(p, u) == 0.0
    assert d.lambda_at_star == pytest.approx(9.159890612224202e307, rel=1e-15)


def test_vasicek_nan_vertex_raises_naming_parameters():
    # (theta*delta/kappa)^2/2 is finite, but l0^2 and (l0*theta)*(sigma*rho)
    # overflow, so the curvature is inf - inf
    p = VasicekParams(mu=0.05, sigma=1e155, kappa=1e-154, gamma_level=0.03, delta=10.0, rho=1.0,
                      r0=0.03)
    with pytest.raises(DomainExceeded, match=r"^Vasicek coefficients leave the float range at "
                       r"kappa=1e-154, delta=10.0, sigma=1e\+155$"):
        optimal_vasicek(p, Utility(0.05))


def test_vasicek_concave_degeneration_matches_gbm():
    p = VasicekParams(mu=0.05, sigma=0.3, kappa=2.0, gamma_level=0.03, delta=1e-7, rho=0.0, r0=0.03)
    d = optimal_vasicek(p, U)
    g = optimal_gbm(GbmParams(mu=0.05, sigma=0.3, r=0.03), U)
    assert d.alpha_star == pytest.approx(g.alpha_star, abs=1e-6)


def test_numeric_argmax_fallback_work_is_bounded(monkeypatch):
    # mu == r and a unit jump leave a numerically flat objective; the
    # reference Heston rate is concave and the Vasicek rate below is convex
    # (it peaks at alpha = 1). Each costs one 16-point array call and at
    # most ARGMAX_MAX_SCALAR_CALLS scalar calls: 31 for the flat objective,
    # and one settling probe for the other two.
    models = [
        JumpDiffusionParams(mu=0.03, sigma=1e-9, lambda_j=1.0, jump=ConstantJump(y=1.0), r=0.03),
        HestonParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.3, rho=-0.5, r=0.03, nu0=0.04),
        VasicekParams(mu=0.30, sigma=0.02, kappa=0.5, gamma_level=0.03, delta=0.2, rho=0.0, r0=0.03),
    ]
    for p in models:
        sizes = []

        def counting_rate(model, u, alpha):
            sizes.append(np.size(alpha))
            return growth_rate(model, u, alpha)

        monkeypatch.setattr(allocate, "growth_rate", counting_rate)
        numeric = numeric_argmax(p, U)
        monkeypatch.undo()
        assert max(sizes) == 16, p
        assert len(sizes) <= 1 + ARGMAX_MAX_SCALAR_CALLS, p
        assert len(sizes) == (32 if p is models[0] else 2), p
        best = optimal_allocation(p, U)
        assert float(growth_rate(p, U, best.alpha_star)) - float(growth_rate(p, U, numeric)) <= 1e-10


def counted_argmax(monkeypatch, model, u):
    """numeric_argmax, with the size of each growth_rate argument it passes."""
    sizes = []

    def counting_rate(model, u, alpha):
        sizes.append(np.size(alpha))
        return growth_rate(model, u, alpha)

    monkeypatch.setattr(allocate, "growth_rate", counting_rate)
    try:
        return allocate.numeric_argmax(model, u), sizes
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("excess, calls", [(1e-8, 43), (3e-9, 40)], ids=["1e-08", "3e-09"])
def test_numeric_argmax_does_not_settle_a_maximizer_just_inside_an_end(monkeypatch, excess, calls):
    # alpha* = 8e-6 and 2.4e-6, inside the grid's first cell. A probe 1e-10
    # in reads a rate that rounds equal to the end's; the rate at END_PROBE
    # is above it, so the Brent search runs; near alpha = 0 its step floor
    # is tol/3, so it takes many steps.
    p = GbmParams(mu=0.03 + excess, sigma=0.05, r=0.03)
    numeric, sizes = counted_argmax(monkeypatch, p, U)
    assert sizes[:2] == [16, 1] and len(sizes) == calls
    assert abs(numeric - optimal_gbm(p, U).alpha_star) <= 1e-6


def test_numeric_argmax_end_lead_must_beat_rounding():
    # alpha* = 1 - 1.8e-6, yet the rate at 1 rounds one ulp above the rate
    # at 1 - END_PROBE: a strict comparison alone settles the end
    p = GbmParams(mu=0.3001249997727713, sigma=0.05, r=0.3)
    u = Utility(0.95)
    end, inner = float(growth_rate(p, u, 1.0)), growth_rate(p, u, 1.0 - allocate.END_PROBE)
    assert 0.0 < end - inner <= allocate.END_PROBE_ULPS * math.ulp(end)
    assert abs(numeric_argmax(p, u) - optimal_gbm(p, u).alpha_star) <= 1e-6


def test_numeric_argmax_settles_an_end_with_one_probe(monkeypatch):
    for p, end in [(GbmParams(mu=0.01, sigma=0.2, r=0.03), 0.0),
                   (GbmParams(mu=0.08, sigma=0.2, r=0.03), 1.0)]:
        numeric, sizes = counted_argmax(monkeypatch, p, U)
        assert sizes == [16, 1]
        assert numeric == end == optimal_gbm(p, U).alpha_star


def test_numeric_argmax_is_a_brent_search_unless_an_end_is_settled(monkeypatch):
    models = [(GbmParams(mu=0.03 + excess, sigma=0.05, r=0.03), U) for excess in (1e-8, 3e-9)]
    rng = np.random.default_rng(15)
    for draw in DRAWERS.values():
        models += [(draw(rng), draw_utility(rng)) for _ in range(40)]
    grid = np.linspace(0.0, 1.0, 16)
    kinds = {"interior": 0, "end": 0}
    for model, u in models:
        numeric, sizes = counted_argmax(monkeypatch, model, u)
        if sizes == [16, 1]:
            continue
        best = int(np.argmax(growth_rate(model, u, grid)))
        kinds["end" if best in (0, 15) else "interior"] += 1
        want = allocate._brent_max(
            lambda a: growth_rate(model, u, a),
            float(grid[max(best - 1, 0)]), float(grid[min(best + 1, 15)]), allocate.ARGMAX_TOL,
        )
        assert numeric == want
    assert kinds["interior"] > 0 and kinds["end"] > 0, kinds


def test_numeric_argmax_never_settles_a_density_law(monkeypatch):
    # exp(-y) cut at 20 has mass 1 - 2.1e-9: the moment is exactly 1 at
    # alpha = 0 and about that mass inside, so the end leads every probe
    # although the rate rises toward alpha* = 5.0e-3 and 3.8e-5
    law = DensityJump(density=lambda y: math.exp(-y), bound=20.0)
    for excess, calls in ((2.6e-3, 18), (2e-5, 31)):
        p = JumpDiffusionParams(mu=0.03 + excess, sigma=0.2, lambda_j=1.0, jump=law, r=0.03)
        assert float(growth_rate(p, U, 0.0)) > float(growth_rate(p, U, allocate.END_PROBE))
        numeric, sizes = counted_argmax(monkeypatch, p, U)
        assert sizes == [16] + [1] * calls  # Brent on [0, 1/15], no probe
        assert abs(numeric - optimal_jump(p, U).alpha_star) <= 1e-6


def test_numeric_argmax_scalar_call_bound_is_the_documented_one():
    # an end's search follows its probe on a one-cell bracket; an interior
    # point's runs on two cells; a density law's end has no probe
    grid = allocate._ARGMAX_GRID
    budgets = [
        (best in (0, 15)) + 2 + allocate.BRENT_SLACK + allocate._golden_steps(
            float(grid[min(best + 1, 15)]) - float(grid[max(best - 1, 0)]), allocate.ARGMAX_TOL)
        for best in range(16)
    ]
    assert grid.size == 16 and max(budgets) == min(budgets) == ARGMAX_MAX_SCALAR_CALLS


def wavy(center, amplitude, frequency):
    """A peak at ``center`` with a sine ripple: not unimodal for a large ripple."""
    return lambda x: -math.sqrt(abs(x - center)) + amplitude * math.sin(frequency * x)


@pytest.mark.parametrize("slack", [2, 4, allocate.BRENT_SLACK])
def test_brent_search_calls_stay_within_golden_section_plus_slack(monkeypatch, slack):
    # the guard hands the bracket to golden section while it can still finish
    # within the budget; a ripple that misleads the parabolic steps reaches it
    monkeypatch.setattr(allocate, "BRENT_SLACK", slack)
    lo, hi, tol = 0.0, 2.0 / 15.0, allocate.ARGMAX_TOL
    budget = 2 + allocate._golden_steps(hi - lo, tol) + slack
    rng = np.random.default_rng(26)
    at_budget = 0
    for i in range(200):
        center = rng.uniform(lo, hi)
        ripple = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-8.0, 0.0)
        f = wavy(center, ripple, 10.0 ** rng.uniform(1.0, 3.0))
        xs = []
        x = allocate._brent_max(lambda a: xs.append(a) or f(a), lo, hi, tol)
        assert lo <= x <= hi and len(xs) <= budget
        at_budget += len(xs) == budget
        if ripple == 0.0:
            assert abs(x - center) <= 1e-6
    assert at_budget > 0 or slack > 2, at_budget


def test_brent_search_falls_back_to_golden_section_at_its_budget():
    xs = []
    f = wavy(0.01369398035485223, 0.21482118234538514, 39.18189601793543)
    x = allocate._brent_max(lambda a: xs.append(a) or f(a), 0.0, 2.0 / 15.0, allocate.ARGMAX_TOL)
    assert len(xs) == ARGMAX_MAX_SCALAR_CALLS
    assert abs(x - 0.01369398035485223) <= 1e-8


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(DRAWERS) + ["flat"]), seed=st.integers(0, 2**32 - 1))
def test_numeric_argmax_calls_and_agreement_property(kind, seed):
    # the flat objective (mu == r, a unit jump) has no unique maximizer, so
    # only its value shortfall is checked
    if kind == "flat":
        model = JumpDiffusionParams(mu=0.03, sigma=1e-9, lambda_j=1.0, jump=ConstantJump(y=1.0), r=0.03)
        u = draw_utility(np.random.default_rng(seed))
    else:
        rng = np.random.default_rng(seed)
        model, u = DRAWERS[kind](rng), draw_utility(rng)
    numeric, sizes = counted_argmax(pytest.MonkeyPatch(), model, u)
    assert sizes[0] == 16 and sizes[1:] == [1] * (len(sizes) - 1)
    assert len(sizes) - 1 <= ARGMAX_MAX_SCALAR_CALLS
    best = optimal_allocation(model, u).alpha_star
    assert kind == "flat" or abs(best - numeric) <= 1e-6
    assert float(growth_rate(model, u, numeric)) - float(growth_rate(model, u, best)) <= 1e-10


def with_alpha_star(model, u, target):
    """``model`` with mu moved so that its closed-form alpha* is just above
    ``target``, by bisection; None when no mu within 2 of it gets there."""
    def star(mu):
        return optimal_allocation(replace(model, mu=mu), u).alpha_star

    lo, hi = model.mu - 2.0, model.mu + 2.0
    if not star(lo) < target < star(hi):
        return None
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if star(mid) < target else (lo, mid)
    return replace(model, mu=hi)


# Draws on which a probe 1e-10 inside, compared strictly, settled an end
# that the closed form puts 3e-6 to 3e-5 away: the rate's rise over 1e-10
# is below the rounding of rates near 0.1.
NEAR_END_DRAWS = {
    "jump": [
        (JumpDiffusionParams(mu=0.67, sigma=0.3448660233086546, lambda_j=2.2701615324039657,
                             jump=ConstantJump(y=0.734346969771096), r=0.06965867307591796),
         Utility(0.16316736578075225)),
        (JumpDiffusionParams(mu=1.4, sigma=0.06833657931118563, lambda_j=2.5485283375933294,
                             jump=ExponentialJump(rate=2.201811479558695), r=0.034236987755477136),
         Utility(0.39876677510155817)),
    ],
    "vasicek": [
        (VasicekParams(mu=0.1, sigma=0.43855132674140407, kappa=1.3299443473756687,
                       gamma_level=0.06475766060707927, delta=0.230026909883736,
                       rho=-0.20262186484084, r0=0.011025292347994488),
         Utility(0.7343359663911639)),
    ],
}


@pytest.mark.parametrize("name", sorted(DRAWERS))
def test_numeric_argmax_finds_a_maximizer_just_inside_an_end(name):
    rng = np.random.default_rng(1500 + sorted(DRAWERS).index(name))
    draws = NEAR_END_DRAWS.get(name, []) + [(DRAWERS[name](rng), draw_utility(rng)) for _ in range(4)]
    checked = 0
    for model, u in draws:
        for gap in (3e-7, 3e-6, 3e-5):
            for target in (gap, 1.0 - gap):
                near = with_alpha_star(model, u, target)
                if near is None:
                    continue
                checked += 1
                assert abs(numeric_argmax(near, u) - optimal_allocation(near, u).alpha_star) <= 1e-6
    assert checked >= 12


@pytest.mark.parametrize("name", sorted(DRAWERS))
def test_closed_form_matches_numeric_argmax(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    draw = DRAWERS[name]
    for _ in range(60):
        model = draw(rng)
        u = draw_utility(rng)
        decision = optimal_allocation(model, u)
        numeric = numeric_argmax(model, u)
        assert abs(decision.alpha_star - numeric) <= 1e-6
        assert float(growth_rate(model, u, decision.alpha_star)) >= (
            float(growth_rate(model, u, numeric)) - 1e-10
        )


def test_alpha_star_monotone_in_drift():
    mus = np.linspace(-0.02, 0.25, 28)
    setups = [
        lambda mu: GbmParams(mu=mu, sigma=0.25, r=0.03),
        lambda mu: HestonParams(mu=mu, kappa=2.0, gamma_level=0.04, delta=0.3, rho=-0.5, r=0.03, nu0=0.04),
        lambda mu: ThreeHalvesParams(mu=mu, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03, nu0=0.04),
        lambda mu: JumpDiffusionParams(mu=mu, sigma=0.25, lambda_j=1.0, jump=ExponentialJump(rate=1.0), r=0.03),
    ]
    for make in setups:
        stars = [optimal_allocation(make(float(mu)), U).alpha_star for mu in mus]
        assert all(b >= a - 1e-9 for a, b in zip(stars, stars[1:]))


def test_case_label_slope_consistency():
    rng = np.random.default_rng(99)
    for name, draw in DRAWERS.items():
        for _ in range(40):
            model = draw(rng)
            u = draw_utility(rng)
            d = optimal_allocation(model, u)
            if d.case_label == "BondOnly":
                assert one_sided_slope(model, u, 0.0) <= 1e-10
            elif d.case_label == "StockOnly" and name != "vasicek":
                assert one_sided_slope(model, u, 1.0) >= -1e-10
            if d.case_label == "Interior":
                assert 0.0 < d.alpha_star < 1.0
                assert d.alpha_dagger == d.alpha_star


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    heston=st.booleans(),
    log10_kappa=st.floats(-150.0, 150.0),
    log10_gamma=st.floats(-150.0, 150.0),
    log10_delta=st.floats(-150.0, 150.0),
    rho=st.floats(-1.0, 1.0),
    mu=st.floats(-0.05, 0.15),
    r=st.floats(-0.02, 0.08),
    theta=st.floats(0.05, 0.95),
)
def test_variance_optimum_matches_reference_across_the_float_range(
    heston, log10_kappa, log10_gamma, log10_delta, rho, mu, r, theta
):
    kappa, gamma, delta = 10.0**log10_kappa, 10.0**log10_gamma, 10.0**log10_delta
    if heston:
        assume(2.0 * kappa * gamma > delta * delta)  # Feller
        model = HestonParams(mu=mu, kappa=kappa, gamma_level=gamma, delta=delta, rho=rho, r=r,
                             nu0=0.04)
    else:
        model = ThreeHalvesParams(mu=mu, kappa=kappa, gamma_level=gamma, delta=delta, r=r,
                                  nu0=0.04)
    u = Utility(theta)
    try:
        decision = optimal_allocation(model, u)
    except GrowthOptError:
        return
    assert abs(decision.alpha_star - variance_argmax(model, u)) <= 1e-13
    want = variance_rate(model, u, decision.alpha_star)
    assert abs(decision.lambda_at_star - want) <= 1e-14 * abs(want) + 1e-16


@pytest.mark.parametrize("name, reference", [("gbm", gbm_argmax), ("vasicek", vasicek_argmax)])
def test_quadratic_optimum_matches_reference(name, reference):
    rng = np.random.default_rng(2300 + len(name))
    for _ in range(60):
        model = DRAWERS[name](rng)
        u = draw_utility(rng)
        assert abs(optimal_allocation(model, u).alpha_star - reference(model, u)) <= 1e-13


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    mu=st.floats(-0.05, 0.15),
    sigma=st.floats(0.02, 0.6),
    log10_kappa=st.floats(-300.0, 300.0),
    gamma_level=st.floats(-0.01, 0.08),
    log10_delta=st.floats(-300.0, 300.0),
    rho=st.floats(-0.9, 0.9),
    theta=st.floats(0.05, 0.95),
)
def test_vasicek_optimum_matches_reference_across_the_float_range(
    mu, sigma, log10_kappa, gamma_level, log10_delta, rho, theta
):
    model = VasicekParams(mu=mu, sigma=sigma, kappa=10.0**log10_kappa, gamma_level=gamma_level,
                          delta=10.0**log10_delta, rho=rho, r0=0.03)
    u = Utility(theta)
    try:
        decision = optimal_allocation(model, u)
    except GrowthOptError:  # (theta*delta/kappa)^2 leaves the float range
        return
    assert abs(decision.alpha_star - vasicek_argmax(model, u)) <= 1e-13
