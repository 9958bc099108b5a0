import numpy as np
import pytest

from growthopt import (
    ConstantJump,
    DegenerateVariance,
    ExponentialJump,
    GbmParams,
    HestonParams,
    JumpDiffusionParams,
    NonFinitePath,
    OutOfRange,
    StepSizeTooLarge,
    ThreeHalvesParams,
    Utility,
    VasicekParams,
    integrate_heston_riccati,
    integrate_vasicek_ode,
    lambda_gbm,
    lambda_jump,
    laplace_three_halves_finite_t,
    mc_growth_estimate,
    mc_laplace_three_halves,
)

U = Utility(0.5)
HESTON = HestonParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.3, rho=-0.5, r=0.03, nu0=0.04)
THREE_HALVES = ThreeHalvesParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03, nu0=0.04)
VASICEK = VasicekParams(mu=0.08, sigma=0.2, kappa=2.0, gamma_level=0.03, delta=0.01, rho=-0.3, r0=0.03)
GBM = GbmParams(mu=0.08, sigma=0.2, r=0.03)


def test_riccati_zero_allocation_is_identically_zero():
    trace = integrate_heston_riccati(HESTON, U, 0.0, 5.0, 1e-3)
    assert np.all(trace.b_values == 0.0)
    assert np.all(trace.a_values == 0.0)
    assert trace.b_limit_closed_form == pytest.approx(0.0, abs=1e-15)


def test_riccati_converges_to_smaller_root():
    trace = integrate_heston_riccati(HESTON, U, 0.5, 100.0, 1e-3)
    assert trace.times[0] == 0.0 and trace.a_values[0] == 0.0
    assert abs(trace.b_values[-1] - trace.b_limit_closed_form) <= 1e-8
    # starting between the roots, B decreases monotonically to the limit
    diffs = np.diff(trace.b_values)
    assert np.all(diffs <= 1e-12)
    assert trace.b_values[0] == U.theta * 0.5 * HESTON.rho / HESTON.delta


def test_riccati_slope_and_reconstruction():
    trace = integrate_heston_riccati(HESTON, U, 0.5, 500.0, 1e-2)
    slope = trace.a_values[-1] / 500.0
    assert abs(slope - trace.a_slope_closed_form) <= 1e-3
    from growthopt import lambda_heston

    alpha, theta = 0.5, U.theta
    rebuilt = (
        slope
        - theta * alpha * HESTON.rho * HESTON.kappa * HESTON.gamma_level / HESTON.delta
        + theta * alpha * HESTON.mu
        + theta * (1 - alpha) * HESTON.r
    )
    assert rebuilt == pytest.approx(float(lambda_heston(HESTON, U, alpha)), abs=1e-3)


def test_riccati_fourth_order_convergence():
    ends = {}
    for dt in (0.1, 0.05, 0.025):
        ends[dt] = integrate_heston_riccati(HESTON, U, 0.5, 2.0, dt).b_values[-1]
    d1 = abs(ends[0.1] - ends[0.05])
    d2 = abs(ends[0.05] - ends[0.025])
    assert d2 < d1
    if d2 > 1e-14:
        assert d1 <= 26.0 * d2  # ~16x for a 4th-order scheme, with slack


def test_riccati_sign_structure_of_vector_field():
    # B' = delta^2 B^2/2 - kappa B + q: positive below the smaller root,
    # negative strictly between the roots (which drives the trace downward).
    alpha, theta = 0.5, U.theta
    k, d, rho = HESTON.kappa, HESTON.delta, HESTON.rho
    q = (theta**2 * alpha**2 * (1 - rho**2) - theta * alpha**2) / 2 + k * alpha * rho * theta / d
    slope = lambda b: 0.5 * d * d * b * b - k * b + q
    trace = integrate_heston_riccati(HESTON, U, alpha, 10.0, 1e-3)
    small_root = trace.b_limit_closed_form
    large_root = (k + (k - d * d * small_root)) / (d * d)  # root sum = 2k/delta^2
    assert slope(small_root - 0.3) > 0.0
    assert slope(0.5 * (small_root + large_root)) < 0.0
    assert slope(trace.b_values[0]) < 0.0  # start lies between the roots


def test_mc_single_path_degenerate_variance():
    with pytest.raises(DegenerateVariance):
        mc_growth_estimate(GBM, U, 0.5, 5.0, 1, 1, seed=2)


def test_riccati_step_size_guard():
    fast = HestonParams(mu=0.08, kappa=5.0, gamma_level=0.04, delta=0.3, rho=-0.5, r=0.03, nu0=0.04)
    with pytest.raises(StepSizeTooLarge):
        integrate_heston_riccati(fast, U, 0.5, 10.0, 1.0)


def test_riccati_rejects_bad_grid():
    with pytest.raises(OutOfRange):
        integrate_heston_riccati(HESTON, U, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda x: integrate_heston_riccati(HESTON, U, 0.5, x, 1e-2),
    lambda x: integrate_heston_riccati(HESTON, U, 0.5, 1.0, x),
    lambda x: integrate_vasicek_ode(VASICEK, U, 0.5, x, 1e-2),
    lambda x: mc_growth_estimate(GBM, U, 0.5, x, 10, 1, 7),
    lambda x: mc_laplace_three_halves(THREE_HALVES, 0.1, x, 10, 10, 7),
    lambda x: mc_laplace_three_halves(THREE_HALVES, x, 1.0, 10, 10, 7),
    lambda x: laplace_three_halves_finite_t(THREE_HALVES, 0.1, x),
    lambda x: laplace_three_halves_finite_t(THREE_HALVES, x, 1.0),
], ids=["riccati_t_end", "riccati_dt", "vasicek_t_end", "mc_t", "laplace_mc_t",
        "laplace_mc_rate", "laplace_t", "laplace_rate"])
def test_non_finite_horizon_step_and_rate_rejected(call, bad):
    with pytest.raises(OutOfRange):
        call(bad)


def test_vasicek_ode_zero_forcing():
    trace = integrate_vasicek_ode(
        VasicekParams(mu=0.08, sigma=0.2, kappa=2.0, gamma_level=0.03, delta=0.01, rho=0.0, r0=0.03),
        U, 1.0, 5.0, 1e-3,
    )
    assert np.all(trace.b_values == 0.0)
    assert np.all(trace.a_values == 0.0)


def test_vasicek_ode_matches_exact_solution():
    trace = integrate_vasicek_ode(VASICEK, U, 0.5, 10.0, 1e-3)
    b0 = trace.b_values[0]
    limit = trace.b_limit_closed_form
    exact = limit + (b0 - limit) * np.exp(-VASICEK.kappa * trace.times)
    assert np.max(np.abs(trace.b_values - exact)) <= 1e-10


def test_vasicek_ode_slope():
    trace = integrate_vasicek_ode(VASICEK, U, 0.5, 200.0, 1e-3)
    assert abs(trace.a_values[-1] / 200.0 - trace.a_slope_closed_form) <= 1e-3


def test_mc_gbm_matches_closed_form():
    est = mc_growth_estimate(GBM, U, 1.0, 20.0, 50_000, 1, seed=2024)
    closed = float(lambda_gbm(GBM, U, 1.0))
    assert abs(est.lambda_hat - closed) <= max(3.0 * est.std_error, 5e-3)
    assert est.n_paths == 50_000 and est.seed == 2024


def test_mc_alpha_zero_deterministic():
    for model in (GBM, HESTON):
        est = mc_growth_estimate(model, U, 0.0, 20.0, 2_000, 200, seed=5)
        assert est.lambda_hat == pytest.approx(U.theta * 0.03, abs=1e-14)
        assert est.std_error <= 1e-12


def test_mc_deterministic_across_workers_and_reruns():
    results = [
        mc_growth_estimate(HESTON, U, 0.5, 2.0, 40_000, 40, seed=77, workers=w)
        for w in (1, 2, 8)
    ]
    assert len({(r.lambda_hat, r.std_error) for r in results}) == 1
    again = mc_growth_estimate(HESTON, U, 0.5, 2.0, 40_000, 40, seed=77, workers=2)
    assert again == results[0]


def test_mc_seed_changes_estimate():
    a = mc_growth_estimate(GBM, U, 0.5, 5.0, 10_000, 1, seed=1)
    b = mc_growth_estimate(GBM, U, 0.5, 5.0, 10_000, 1, seed=2)
    assert a.lambda_hat != b.lambda_hat


def test_mc_requires_enough_steps_for_discretized_models():
    with pytest.raises(OutOfRange):
        mc_growth_estimate(HESTON, U, 0.5, 10.0, 1_000, 50, seed=1)
    # exact samplers are exempt
    mc_growth_estimate(GBM, U, 0.5, 10.0, 1_000, 1, seed=1)
    jd = JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1.0, jump=ConstantJump(y=1.2), r=0.03)
    mc_growth_estimate(jd, U, 0.5, 10.0, 1_000, 1, seed=1)


def test_mc_nonfinite_path_reports_index_and_seed():
    huge = GbmParams(mu=1e306, sigma=0.2, r=0.03)
    with pytest.raises(NonFinitePath) as exc:
        mc_growth_estimate(huge, U, 1.0, 20.0, 64, 1, seed=9)
    assert exc.value.path_index == 0
    assert exc.value.seed == 9


def test_mc_jump_matches_closed_form():
    jd = JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1.0, jump=ExponentialJump(rate=2.0), r=0.03)
    est = mc_growth_estimate(jd, U, 0.5, 20.0, 100_000, 1, seed=31)
    closed = float(lambda_jump(jd, U, 0.5))
    assert abs(est.lambda_hat - closed) <= 3.0 * est.std_error + 1e-3


def test_mc_vasicek_alpha_zero_is_random():
    # with a stochastic rate the bond-only portfolio is still random
    est = mc_growth_estimate(VASICEK, U, 0.0, 2.0, 5_000, 40, seed=3)
    assert est.std_error > 0.0


def test_mc_laplace_zero_rate():
    est = mc_laplace_three_halves(THREE_HALVES, 0.0, 1.0, 2_000, 50, seed=4)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_mc_laplace_short_horizon_bound():
    t = 1e-4
    est = mc_laplace_three_halves(THREE_HALVES, 0.125, t, 4_000, 10, seed=6)
    assert 1.0 - 2.0 * 0.125 * THREE_HALVES.nu0 * t <= est.mean <= 1.0


def test_mc_laplace_matches_closed_form():
    est = mc_laplace_three_halves(THREE_HALVES, 0.125, 1.0, 40_000, 1_000, seed=8)
    closed = laplace_three_halves_finite_t(THREE_HALVES, 0.125, 1.0)
    assert abs(est.mean - closed) <= 3.0 * est.std_error + 2e-6


def test_mc_laplace_deterministic_across_workers():
    runs = [
        mc_laplace_three_halves(THREE_HALVES, 0.125, 0.5, 40_000, 100, seed=10, workers=w)
        for w in (1, 4)
    ]
    assert runs[0] == runs[1]
