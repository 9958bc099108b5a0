import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from growthopt import verify
from growthopt import (
    ConstantJump,
    DegenerateVariance,
    DomainExceeded,
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
    lambda_heston,
    lambda_jump,
    laplace_three_halves_finite_t,
    mc_growth_estimate,
    mc_laplace_three_halves,
)

from support import draw_heston, draw_utility, draw_vasicek

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


@pytest.mark.parametrize("n_paths", [1, 2])
@pytest.mark.parametrize("call", [
    lambda n: mc_growth_estimate(GBM, U, 0.5, 5.0, n, 1, seed=2),
    lambda n: mc_laplace_three_halves(THREE_HALVES, 0.1, 1.0, n, 10, seed=2),
], ids=["growth", "laplace"])
def test_mc_fewer_than_two_units_degenerate_variance(call, n_paths):
    # two paths make one antithetic pair: a single unit, so no spread
    with pytest.raises(DegenerateVariance, match=f"at least two independent path units.*"
                                                 f"n_paths={n_paths}$"):
        call(n_paths)


def _philox(seed, block):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,))))


@pytest.mark.parametrize("size", [4, 5])
def test_block_normals_come_in_mirrored_pairs(monkeypatch, size):
    monkeypatch.setattr(verify, "BLOCK_SIZE", size)
    drawn = []

    def block_fn(rng, n, t, n_steps):
        drawn.append((rng.standard_normal(n).copy(), rng.poisson(3.0, n),
                      rng.exponential(size=n), rng.random(n)))
        return np.zeros(n)

    verify._simulate(block_fn, 1.0, 2 * size, 1, seed=11, workers=1, discretized=False)
    half = (size + 1) // 2
    for block, (one, counts, exps, unif) in enumerate(drawn):
        own = _philox(11, block)
        assert np.array_equal(one[:half], own.standard_normal(half))
        assert np.array_equal(one[half:], -one[:size - half])  # mirrored, negated exactly
        lone = [i for i in range(size) if -one[i] not in one]
        assert lone == ([half - 1] if size % 2 else [])
        assert np.array_equal(counts, own.poisson(3.0, size))  # unpaired draws pass through
        assert np.array_equal(exps, own.exponential(size=size))
        assert np.array_equal(unif, own.random(size))


def test_standard_error_is_taken_over_the_units(monkeypatch):
    monkeypatch.setattr(verify, "BLOCK_SIZE", 5)
    values = []

    def block_fn(rng, n, t, n_steps):
        values.append(rng.random(n))
        return values[-1]

    mean, se, _ = verify._simulate(block_fn, 1.0, 9, 1, seed=3, workers=1,
                                   discretized=False)
    (v0, v1, v2, v3, v4), (v5, v6, v7, v8) = values
    sums = np.array([v0 + v3, v1 + v4, v2, v5 + v7, v6 + v8])
    counts = np.array([2, 2, 1, 2, 2])
    assert mean == np.mean(np.concatenate(values))
    k = sums.size
    assert se == pytest.approx(math.sqrt(k / (k - 1) * np.sum((sums - mean * counts) ** 2)) / 9,
                               rel=1e-12)


@pytest.mark.parametrize("estimate", [
    lambda seed: astuple(mc_growth_estimate(GBM, U, 1.0, 1.0, 2_000, 1, seed)),
    lambda seed: astuple(mc_laplace_three_halves(THREE_HALVES, 0.125, 0.1, 2_000, 10, seed)),
], ids=["gbm", "laplace"])
def test_mc_standard_error_is_calibrated(estimate):
    # the spread of the estimate over seeds is what the reported SE claims
    runs = np.array([estimate(seed)[:2] for seed in range(1, 41)])
    spread = np.std(runs[:, 0], ddof=1)
    se = np.median(runs[:, 1])
    assert 0.6 * se <= spread <= 1.6 * se


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


def test_mc_identical_paths_degenerate_variance():
    # every path reads the same value, which np.mean need not reproduce exactly
    flat = GbmParams(mu=0.05, sigma=1e-300, r=0.03)
    with pytest.raises(DegenerateVariance, match="all simulated paths are identical"):
        mc_growth_estimate(flat, U, 0.5, 1.0, 1_000, 1, seed=1)


def test_mc_alpha_zero_gbm_has_exactly_zero_standard_error():
    est = mc_growth_estimate(GBM, U, 0.0, 20.0, 2_000, 1, seed=5)
    assert est.std_error == 0.0


def test_mc_deterministic_across_workers_and_reruns():
    results = [
        mc_growth_estimate(HESTON, U, 0.5, 2.0, 40_000, 40, seed=77, workers=w)
        for w in (0, 1, 2, 8)  # 0 still runs on one worker
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
    # kappa*gamma_level overflows, so the variance paths turn NaN
    heston = HestonParams(mu=0.08, kappa=1e308, gamma_level=10.0, delta=0.3, rho=-0.5,
                          r=0.03, nu0=0.04)
    three_halves = ThreeHalvesParams(mu=0.08, kappa=1e308, gamma_level=10.0, delta=0.3,
                                     r=0.03, nu0=0.04)
    for call in (
        lambda: mc_growth_estimate(huge, U, 1.0, 20.0, 64, 1, seed=9),
        lambda: mc_growth_estimate(heston, U, 0.5, 1.0, 100, 10, seed=9),
        lambda: mc_growth_estimate(three_halves, U, 0.5, 1.0, 100, 10, seed=9),
        lambda: mc_laplace_three_halves(three_halves, 0.1, 1.0, 100, 10, seed=9),
    ):
        with pytest.raises(NonFinitePath) as exc:
            call()
        assert exc.value.path_index == 0
        assert exc.value.seed == 9


def test_mc_jump_matches_closed_form():
    jd = JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1.0, jump=ExponentialJump(rate=2.0), r=0.03)
    est = mc_growth_estimate(jd, U, 0.5, 20.0, 100_000, 1, seed=31)
    closed = float(lambda_jump(jd, U, 0.5))
    assert abs(est.lambda_hat - closed) <= 3.0 * est.std_error + 1e-3


def test_mc_constant_jump_needs_no_per_event_array():
    # 16,384 paths at lambda_j*t = 1,000 expect 1.6e7 jumps, above the per-block
    # limit for laws that draw one factor per jump
    const = JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1000.0, jump=ConstantJump(y=1.0001),
                                r=0.03)
    est = mc_growth_estimate(const, U, 0.5, 1.0, 16_384, 1, seed=31)
    closed = float(lambda_jump(const, U, 0.5))
    assert abs(est.lambda_hat - closed) <= 3.0 * est.std_error + 1e-3
    with pytest.raises(OutOfRange, match="1.6384e\\+07 expected jumps in 16384 paths"):
        mc_growth_estimate(replace(const, jump=ExponentialJump(rate=1.0)), U, 0.5, 1.0, 16_384, 1,
                           seed=31)


def test_mc_fixed_variance_path_is_not_degenerate():
    # rho = 0 and delta = 1e-300 fix the variance path to the last bit, and the
    # stock's own normal is integrated out, so every path carries the scheme's
    # exact expectation: a zero spread here is no RNG fault
    flat = replace(HESTON, rho=0.0, delta=1e-300)
    est = mc_growth_estimate(flat, U, 0.5, 1.0, 2_000, 20, seed=1)
    assert est.std_error == 0.0
    assert est.lambda_hat == pytest.approx(float(lambda_heston(flat, U, 0.5)), abs=1e-12)


def _two_normal_heston(p, alpha, t, n_steps, rng, size):
    dt = t / n_steps
    sq_dt = math.sqrt(dt)
    rho_c = math.sqrt(1.0 - p.rho * p.rho)
    drift_dt = (alpha * p.mu + (1.0 - alpha) * p.r) * dt
    nu = np.full(size, p.nu0)
    lr = np.zeros(size)
    for _ in range(n_steps):
        dw = sq_dt * rng.standard_normal(size)
        db = p.rho * dw + rho_c * sq_dt * rng.standard_normal(size)
        nu_plus = np.maximum(nu, 0.0)
        sqrt_nu = np.sqrt(nu_plus)
        lr += drift_dt - 0.5 * alpha * alpha * nu_plus * dt + alpha * sqrt_nu * db
        nu = nu + p.kappa * (p.gamma_level - nu_plus) * dt + p.delta * sqrt_nu * dw
    return lr, 0.0


def _two_normal_three_halves(p, alpha, t, n_steps, rng, size):
    dt = t / n_steps
    sq_dt = math.sqrt(dt)
    drift_dt = (alpha * p.mu + (1.0 - alpha) * p.r) * dt
    x = np.full(size, 1.0 / p.nu0)
    lr = np.zeros(size)
    for _ in range(n_steps):
        dw = sq_dt * rng.standard_normal(size)
        db = sq_dt * rng.standard_normal(size)
        x_next, x_plus = verify._recip_cir_step(p, x, dt, dw)
        nu = 1.0 / np.maximum(x_plus, verify._RECIP_FLOOR)
        lr += drift_dt - 0.5 * alpha * alpha * nu * dt + alpha * np.sqrt(nu) * db
        x = x_next
    return lr, 0.0


def _two_normal_vasicek(p, alpha, t, n_steps, rng, size):
    dt = t / n_steps
    sq_dt = math.sqrt(dt)
    rho_c = math.sqrt(1.0 - p.rho * p.rho)
    decay = math.exp(-p.kappa * dt)
    innov_sd = p.delta * math.sqrt((1.0 - math.exp(-2.0 * p.kappa * dt)) / (2.0 * p.kappa))
    r_state = np.full(size, p.r0)
    rate_integral = np.zeros(size)
    stock_brownian = np.zeros(size)
    for _ in range(n_steps):
        eta = rng.standard_normal(size).copy()
        r_next = p.gamma_level + (r_state - p.gamma_level) * decay + innov_sd * eta
        rate_integral += 0.5 * (r_state + r_next) * dt
        stock_brownian += (p.rho * eta + rho_c * rng.standard_normal(size)) * sq_dt
        r_state = r_next
    lr = (alpha * p.mu * t - 0.5 * alpha * alpha * p.sigma * p.sigma * t
          + alpha * p.sigma * stock_brownian + (1.0 - alpha) * rate_integral)
    return lr, 0.0


# The step of each time-stepped kind as it was before the stock's own normal
# was integrated out: it draws that normal, one more row per step.
TWO_NORMAL_KERNELS = [
    ("heston", HESTON, verify._log_ratio_heston, _two_normal_heston),
    ("three_halves", THREE_HALVES, verify._log_ratio_three_halves, _two_normal_three_halves),
    ("vasicek", VASICEK, verify._log_ratio_vasicek, _two_normal_vasicek),
]


@pytest.mark.parametrize("kind, model, kernel, two_normal", TWO_NORMAL_KERNELS,
                         ids=[k[0] for k in TWO_NORMAL_KERNELS])
def test_conditional_estimate_agrees_with_the_two_normal_scheme(monkeypatch, kind, model, kernel,
                                                                two_normal):
    # the same scheme with the same expectation, so the two estimates differ
    # by sampling error alone, and integrating a normal out cannot add variance
    conditional = mc_growth_estimate(model, U, 0.5, 1.0, 16_384, 20, seed=16)
    monkeypatch.setitem(verify._SIMULATORS, kind, (two_normal, True))
    sampled = mc_growth_estimate(model, U, 0.5, 1.0, 16_384, 20, seed=16)
    gap = abs(conditional.lambda_hat - sampled.lambda_hat)
    assert gap <= 3.0 * math.hypot(conditional.std_error, sampled.std_error)
    assert conditional.std_error < sampled.std_error


class _CountingRng:
    """A generator wrapper that records every method call."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("kind, model, kernel, two_normal", TWO_NORMAL_KERNELS,
                         ids=[k[0] for k in TWO_NORMAL_KERNELS])
def test_conditional_kernels_draw_one_normal_row_per_step(kind, model, kernel, two_normal):
    rng = _CountingRng(verify._AntitheticNormals(_philox(3, 0)))
    kernel(model, 0.5, 1.0, 20, rng, 100)
    assert rng.calls == [("standard_normal", (100,), {})] * 20


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


def _stepwise_rk4_trace(qa, qb, qc, pa, pb, b0, t_end, dt, b_limit):
    """The RK4 loop that takes every step: the reference for the early exit."""
    n = max(1, int(round(float(t_end) / float(dt))))
    h = float(t_end) / n
    times, avals, bvals = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    times[0] = avals[0] = 0.0
    bvals[0] = b0
    a, b, h6 = 0.0, b0, h / 6.0
    for i in range(1, n + 1):
        k1 = qc + b * (qb + qa * b)
        b2 = b + 0.5 * h * k1
        k2 = qc + b2 * (qb + qa * b2)
        b3 = b + 0.5 * h * k2
        k3 = qc + b3 * (qb + qa * b3)
        b4 = b + h * k3
        k4 = qc + b4 * (qb + qa * b4)
        l1 = b * (pb + pa * b)
        l2 = b2 * (pb + pa * b2)
        l3 = b3 * (pb + pa * b3)
        l4 = b4 * (pb + pa * b4)
        b_new = b + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a += h6 * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        if abs(b_new - b) > 0.5 * abs(b - b_limit) + 1e-12:
            raise StepSizeTooLarge(
                f"dt={h} moved B from {b!r} to {b_new!r} against limit "
                f"{b_limit!r}; decrease the step size"
            )
        b = b_new
        times[i] = i * h
        avals[i] = a
        bvals[i] = b
    return times, avals, bvals


def _trace_and_reference(monkeypatch, integrate, *args):
    """(times, A, B) of the integrator and of the stepwise loop on the same
    system; a StepSizeTooLarge is returned as its message."""
    systems = []
    real = verify._rk4_quadratic_trace

    def spy(**system):
        systems.append(system)
        return real(**system)

    monkeypatch.setattr(verify, "_rk4_quadratic_trace", spy)
    try:
        trace = integrate(*args)
        got = (trace.times, trace.a_values, trace.b_values)
    except StepSizeTooLarge as exc:
        got = str(exc)
    finally:
        monkeypatch.undo()
    (system,) = systems
    try:
        want = _stepwise_rk4_trace(**system)
    except StepSizeTooLarge as exc:
        want = str(exc)
    return got, want


def _assert_same_bits(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for x, y in zip(got, want):
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.int64), y.view(np.int64))


def _fixed_point_step(b_values):
    """First step that returns B bit for bit, or None."""
    bits = b_values.view(np.int64)
    same = np.flatnonzero(bits[1:] == bits[:-1])
    return int(same[0]) + 1 if same.size else None


@pytest.mark.parametrize("integrate, model, step", [
    (integrate_heston_riccati, HESTON, 13_554),
    (integrate_vasicek_ode, VASICEK, 14_164),
], ids=["heston", "vasicek"])
def test_rk4_fixed_point_exit_at_reference_config(monkeypatch, integrate, model, step):
    got, want = _trace_and_reference(monkeypatch, integrate, model, U, 0.5, 100.0, 1e-3)
    _assert_same_bits(got, want)
    assert _fixed_point_step(want[2]) == step


# (t_end, dt) pairs: long runs reach B's fixed point, short ones end before it
# and coarse ones can trip the step-size check.
RK4_GRIDS = [(100.0, 1e-3), (500.0, 1e-2), (200.0, 1e-3), (10.0, 1e-3),
             (20.0, 1e-2), (2.0, 0.25), (10.0, 1.0), (1.0, 0.5)]


@pytest.mark.parametrize("t_end, dt", RK4_GRIDS, ids=[f"{t:g}-{dt:g}" for t, dt in RK4_GRIDS])
def test_rk4_trace_bit_identical_to_stepwise_loop(monkeypatch, t_end, dt):
    rng = np.random.default_rng(int(t_end / dt))
    draws = min(8, max(1, 100_000 // round(t_end / dt)))
    for integrate, draw in ((integrate_heston_riccati, draw_heston),
                            (integrate_vasicek_ode, draw_vasicek)):
        for j in range(draws):
            p, u = draw(rng), draw_utility(rng)
            p = replace(p, rho=(p.rho, -p.rho, 0.0)[j % 3])
            alpha = (rng.uniform(), 0.0, 1e-300, 1.0)[j % 4]
            got, want = _trace_and_reference(monkeypatch, integrate, p, u, alpha, t_end, dt)
            _assert_same_bits(got, want)


def test_rk4_trace_without_fixed_point_bit_identical(monkeypatch):
    got, want = _trace_and_reference(monkeypatch, integrate_heston_riccati, HESTON, U, 0.5, 2.0, 0.25)
    _assert_same_bits(got, want)
    assert _fixed_point_step(want[2]) is None


def test_rk4_trace_keeps_the_sign_of_zero(monkeypatch):
    # At alpha = 0 with rho < 0, B starts at -0.0 and the first step gives
    # +0.0: equal under ==, but not yet the fixed point.
    got, want = _trace_and_reference(monkeypatch, integrate_heston_riccati, HESTON, U, 0.0, 5.0, 1e-3)
    _assert_same_bits(got, want)
    assert math.copysign(1.0, want[2][0]) == -1.0
    assert np.all(np.copysign(1.0, want[2][1:]) == 1.0)


def test_rk4_step_size_error_identical_to_stepwise_loop(monkeypatch):
    fast = replace(HESTON, kappa=5.0)
    got, want = _trace_and_reference(monkeypatch, integrate_heston_riccati, fast, U, 0.5, 10.0, 1.0)
    assert isinstance(want, str) and "decrease the step size" in want
    assert got == want


@pytest.mark.parametrize("integrate, model, change", [
    (integrate_heston_riccati, HESTON, dict(kappa=1e200)),
    (integrate_heston_riccati, HESTON, dict(delta=1e-200)),
    (integrate_vasicek_ode, VASICEK, dict(kappa=1e300)),
    (integrate_vasicek_ode, VASICEK, dict(delta=1e300)),
    (integrate_vasicek_ode, VASICEK, dict(kappa=1e-300)),
], ids=["heston-kappa=1e200", "heston-delta=1e-200", "vasicek-kappa=1e300",
        "vasicek-delta=1e300", "vasicek-kappa=1e-300"])
def test_ode_out_of_float_range_raises_domain_exceeded(integrate, model, change):
    p = replace(model, **change)
    (name, value), = change.items()
    with pytest.raises(DomainExceeded, match="ODE values leave the float range at ") as exc:
        integrate(p, U, 0.5, 100.0, 1e-3)
    assert f"{name}={value!r}" in str(exc.value)


@pytest.mark.parametrize("t_end, dt", [(1.0, 1e-300), (1e3, 1e-6), (1e300, 1e-300)],
                         ids=["dt=1e-300", "1e9-steps", "inf-steps"])
def test_rk4_step_cap_raises_before_allocating(monkeypatch, t_end, dt):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the trace was allocated")

    monkeypatch.setattr(verify.np, "arange", no_allocation)
    monkeypatch.setattr(verify.np, "empty", no_allocation)
    with pytest.raises(OutOfRange, match="exceeds the limit of 10,000,000 RK4 steps"):
        integrate_heston_riccati(HESTON, U, 0.5, t_end, dt)


def test_rk4_step_cap_admits_ten_million_steps(monkeypatch):
    class Allocated(Exception):
        pass

    def allocated(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(verify.np, "arange", allocated)
    with pytest.raises(Allocated):
        integrate_heston_riccati(HESTON, U, 0.5, 10.0, 1e-6)


def test_mc_vasicek_stock_variance_overflow_names_sigma():
    # (alpha*sigma)^2 overflows; at alpha = 0 the stock drops out
    huge = replace(VASICEK, sigma=1e200)
    with pytest.raises(DomainExceeded,
                       match=r"^stock variance terms leave the float range at sigma=1e\+200$"):
        mc_growth_estimate(huge, U, 0.5, 1.0, 100, 10, seed=1)
    bond_only = mc_growth_estimate(huge, U, 0.0, 1.0, 100, 10, seed=1)
    assert math.isfinite(bond_only.lambda_hat)
