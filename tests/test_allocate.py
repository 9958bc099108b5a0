from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthopt import allocate
from growthopt import (
    ConstantJump,
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
    numeric_argmax,
    optimal_allocation,
    optimal_gbm,
    optimal_heston,
    optimal_jump,
    optimal_three_halves,
    optimal_vasicek,
)

from reference import assert_variance_model_matches, variance_argmax, variance_rate
from support import DRAWERS, draw_utility

U = Utility(0.5)


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
    (dict(delta=1e-200), True),                   # delta^2 underflows
    (dict(mu=0.03, kappa=1e308, gamma_level=10.0), True),  # bond-only branch
], ids=["kappa-gamma", "kappa-gamma-squared", "delta-squared", "bond-only"])
def test_three_halves_out_of_float_range_names_parameters(change, raises):
    p = replace(ThreeHalvesParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03,
                                  nu0=0.04), **change)
    if not raises:  # the decision never squares kappa*gamma_level
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


def test_vasicek_concave_degeneration_matches_gbm():
    p = VasicekParams(mu=0.05, sigma=0.3, kappa=2.0, gamma_level=0.03, delta=1e-7, rho=0.0, r0=0.03)
    d = optimal_vasicek(p, U)
    g = optimal_gbm(GbmParams(mu=0.05, sigma=0.3, r=0.03), U)
    assert d.alpha_star == pytest.approx(g.alpha_star, abs=1e-6)


def test_numeric_argmax_fallback_work_is_bounded(monkeypatch):
    # mu == r and a unit jump leave a numerically flat objective; the
    # reference Heston rate is concave and the Vasicek rate below is convex
    # (it peaks at alpha = 1). Each costs one 64-point array call and at
    # most 43 scalar calls.
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
        assert max(sizes) == 64, p
        assert len(sizes) <= 44, p
        best = optimal_allocation(p, U)
        assert float(growth_rate(p, U, best.alpha_star)) - float(growth_rate(p, U, numeric)) <= 1e-10


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
