import math
import sys
import threading
import time
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthopt import verify
from growthopt.cli import MC_ALLOWANCE
from growthopt import (
    ConstantJump,
    DegenerateVariance,
    DensityJump,
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
    growth_rate,
    integrate_heston_riccati,
    integrate_vasicek_ode,
    lambda_gbm,
    lambda_heston,
    lambda_jump,
    laplace_three_halves_finite_t,
    mc_growth_estimate,
    mc_laplace_three_halves,
)

from reference import laplace_three_halves_reference, ode_limits_reference
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


def _block_generator(seed, block):
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(block,))))


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
        own = _block_generator(11, block)
        assert np.array_equal(one[:half], own.standard_normal(half))
        assert np.array_equal(one[half:], -one[:size - half])  # mirrored, negated exactly
        lone = [i for i in range(size) if -one[i] not in one]
        assert lone == ([half - 1] if size % 2 else [])
        assert np.array_equal(counts, own.poisson(3.0, size))  # unpaired draws pass through
        assert np.array_equal(exps, own.exponential(size=size))
        assert np.array_equal(unif, own.random(size))


def _switching_often(run):
    """``run()`` with the interpreter switching threads every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return run()
    finally:
        sys.setswitchinterval(interval)


def test_one_thread_at_a_time_runs_step_arithmetic(monkeypatch):
    # six time-stepped blocks on three threads: outside its draws a block
    # holds the run's compute turn, so no other block can be in its arithmetic
    monkeypatch.setattr(verify, "BLOCK_SIZE", 64)
    stepping = set()
    crowds = []

    def block_fn(rng, n, t, n_steps):
        me = threading.get_ident()
        for _ in range(n_steps):
            z = rng.standard_normal(n)
            stepping.add(me)
            time.sleep(1e-4)  # frees the GIL for any thread that could enter
            z *= 2.0
            crowds.append(len(stepping))
            assert len(stepping) <= 1
            stepping.discard(me)
        return np.zeros(n)

    _switching_often(lambda: verify._simulate(block_fn, 1.0, 6 * 64, 20, seed=5, workers=3,
                                              discretized=True))
    assert len(crowds) == 6 * 20


@pytest.mark.parametrize("workers", [1, 3])
def test_a_failing_block_leaves_the_turn_free(monkeypatch, workers):
    monkeypatch.setattr(verify, "BLOCK_SIZE", 64)
    block_2 = _block_generator(7, 2).standard_normal(32)

    def block_fn(rng, n, t, n_steps):
        for _ in range(n_steps):
            if np.array_equal(rng.standard_normal(n)[:32], block_2):
                rng.poisson(-1.0, n)  # raises inside a draw, off the turn
        return np.zeros(n)

    outcome = []

    def runs():
        with pytest.raises(ValueError, match="lam"):
            verify._simulate(block_fn, 1.0, 6 * 64, 10, seed=7, workers=workers,
                             discretized=True)
        # a turn left held would stall the later blocks of either run
        outcome.append(verify._simulate(lambda rng, n, t, n_steps: rng.random(n), 1.0, 6 * 64,
                                        10, seed=7, workers=workers, discretized=True))

    runner = threading.Thread(target=lambda: _switching_often(runs), daemon=True)
    runner.start()
    runner.join(timeout=30.0)
    assert not runner.is_alive() and len(outcome) == 1


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


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_mc_density_law_matches_closed_form(alpha):
    # the density law's jump factors come from the sampler's tabulated
    # inverse CDF, not from a closed-form sampler
    law = DensityJump(density=lambda y: 0.5, bound=2.0)
    model = JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1.0, jump=law, r=0.03)
    est = mc_growth_estimate(model, U, alpha, 20.0, 32_768, 1, seed=0x5EED)
    closed = float(growth_rate(model, U, alpha))
    assert abs(est.lambda_hat - closed) <= 3.0 * est.std_error + MC_ALLOWANCE["jump"]


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
    nu = np.full(size, p.nu0)
    lr = np.zeros(size)
    for _ in range(n_steps):
        dw = sq_dt * rng.standard_normal(size)
        db = sq_dt * rng.standard_normal(size)
        x_plus = np.maximum(x, 0.0)
        x = (x + (p.kappa + p.delta * p.delta - p.kappa * p.gamma_level * x_plus) * dt
             - p.delta * np.sqrt(x_plus) * dw)
        nu_next = 1.0 / np.maximum(x, verify._RECIP_FLOOR)
        # the step's average variance, so that the stock term's conditional
        # variance is alpha^2 times the trapezoid rule's integral of nu
        nu_step = 0.5 * (nu + nu_next)
        lr += drift_dt - 0.5 * alpha * alpha * nu_step * dt + alpha * np.sqrt(nu_step) * db
        nu = nu_next
    return lr, 0.0


def _two_normal_vasicek(p, alpha, t, n_steps, rng, size):
    dt = t / n_steps
    sq_dt = math.sqrt(dt)
    rho_c = math.sqrt(1.0 - p.rho * p.rho)
    decay = math.exp(-p.kappa * dt)
    innov_sd = p.delta * math.sqrt(-math.expm1(-2.0 * p.kappa * dt) / (2.0 * p.kappa))
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
    rng = _CountingRng(verify._AntitheticNormals(_block_generator(3, 0)))
    kernel(model, 0.5, 1.0, 20, rng, 100)
    assert rng.calls == [("standard_normal", (100,), {})] * 20


def test_mc_vasicek_rate_path_moves_at_tiny_kappa():
    # The OU innovation variance delta^2 (1 - exp(-2 kappa dt))/(2 kappa) tends
    # to delta^2 dt as kappa -> 0; taking 1 - exp(...) directly cancels to 0
    # once kappa*dt nears 1e-17 and froze the rate path, 21 SE off here.
    ests = [mc_growth_estimate(replace(VASICEK, kappa=kappa), U, 0.0, 1.0, 2_000, 20, seed=23)
            for kappa in (1e-18, 1e-12)]
    gap = abs(ests[0].lambda_hat - ests[1].lambda_hat)
    assert gap <= 3.0 * math.hypot(ests[0].std_error, ests[1].std_error)


def test_mc_vasicek_alpha_zero_is_random():
    # with a stochastic rate the bond-only portfolio is still random
    est = mc_growth_estimate(VASICEK, U, 0.0, 2.0, 5_000, 40, seed=3)
    assert est.std_error > 0.0


def _vasicek_scheme_rate(p, u, alpha, t, n_steps):
    """The Vasicek scheme's exact horizon-t rate, from its path recursion.

    Each rate r_k is carried as its mean plus a coefficient on every step
    normal, through r_{k+1} = gamma_level + (r_k - gamma_level) D + s eta_k
    and the trapezoid pairs (r_k + r_{k+1}) dt/2. L0 is then Gaussian with a
    known mean and variance, and E[e^{theta L}] = exp(theta E[L0] +
    theta^2 (Var L0 + v)/2), with v the stock's own conditional variance.
    """
    dt = t / n_steps
    decay = math.exp(-p.kappa * dt)
    innov_sd = p.delta * math.sqrt(-math.expm1(-2.0 * p.kappa * dt) / (2.0 * p.kappa))
    a_sigma = alpha * p.sigma
    mean = alpha * p.mu * t - 0.5 * a_sigma * a_sigma * t
    coef = np.full(n_steps, a_sigma * p.rho * math.sqrt(dt))
    r_mean, r_coef = p.r0, np.zeros(n_steps)
    for k in range(n_steps):
        next_mean = p.gamma_level + (r_mean - p.gamma_level) * decay
        next_coef = r_coef * decay
        next_coef[k] += innov_sd
        mean += (1.0 - alpha) * 0.5 * (r_mean + next_mean) * dt
        coef += (1.0 - alpha) * 0.5 * (r_coef + next_coef) * dt
        r_mean, r_coef = next_mean, next_coef
    v = a_sigma * a_sigma * (1.0 - p.rho * p.rho) * t
    return (u.theta * mean + 0.5 * u.theta * u.theta * (coef @ coef + v)) / t


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mc_vasicek_matches_its_scheme_exact_rate(seed):
    # the estimator's only error against its own scheme is sampling error
    rng = np.random.default_rng(seed)
    model, u, alpha = draw_vasicek(rng), draw_utility(rng), rng.uniform(0.0, 1.0)
    est = mc_growth_estimate(model, u, alpha, 1.0, 20_000, 20, seed=seed)
    exact = _vasicek_scheme_rate(model, u, alpha, 1.0, 20)
    assert abs(est.lambda_hat - exact) <= 4.0 * est.std_error


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


@pytest.mark.parametrize("alpha, t, n_steps, workers", [
    (0.5, 1.0, 20, 1), (0.3, 2.0, 40, 2), (1.0, 0.5, 10, 3), (0.0, 1.0, 10, 1),
])
def test_three_halves_growth_estimate_is_the_laplace_estimate(monkeypatch, alpha, t, n_steps,
                                                              workers):
    # Given the variance path the growth estimator's path value is
    # exp(theta*drift*t) exp(-lambda_l * integral of nu): both estimators step
    # one path and integrate nu by one rule, so the two estimates agree up to
    # rounding, blocks and seeds alike.
    monkeypatch.setattr(verify, "BLOCK_SIZE", 1_000)
    theta = U.theta
    lambda_l = 0.5 * alpha * alpha * (theta - theta * theta)
    growth = mc_growth_estimate(THREE_HALVES, U, alpha, t, 2_500, n_steps, seed=21,
                                workers=workers)
    laplace = mc_laplace_three_halves(THREE_HALVES, lambda_l, t, 2_500, n_steps, seed=21,
                                      workers=workers)
    drift = theta * (alpha * THREE_HALVES.mu + (1.0 - alpha) * THREE_HALVES.r)
    assert growth.lambda_hat == pytest.approx(drift + math.log(laplace.mean) / t, rel=1e-12)


def test_three_halves_growth_estimate_matches_the_exact_finite_horizon_rate():
    # the golden settings; lambda_t = theta (alpha mu + (1 - alpha) r) + log L(lambda_l, t) / t
    # is exact for the continuous model at horizon t, unlike the long-run rate
    alpha, t, theta = 0.5, 1.0, U.theta
    est = mc_growth_estimate(THREE_HALVES, U, alpha, t, 20_000, 20, seed=0x5EED)
    lambda_l = 0.5 * alpha * alpha * (theta - theta * theta)
    exact = (theta * (alpha * THREE_HALVES.mu + (1.0 - alpha) * THREE_HALVES.r)
             + math.log(laplace_three_halves_reference(THREE_HALVES, lambda_l, t)) / t)
    assert abs(est.lambda_hat - exact) <= 3.0 * est.std_error


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


def _limits_within_a_few_ulps(monkeypatch, integrate, p, u, alpha):
    """Assert that the closed-form limits are the stable root of the system
    integrated and A' there, to 6u of each one's terms.

    The terms of B_inf = 2qc/(sqrt(qb^2 - 4qa*qc) - qb) are B_inf itself,
    scaled by (qb^2 + |4qa*qc|)/(qb^2 - 4qa*qc) for the discriminant's own
    cancellation; those of A' = pb*B_inf + pa*B_inf^2 are the two products,
    scaled alike.
    """
    systems = []
    real = verify._rk4_quadratic_trace

    def spy(**system):
        systems.append(system)
        return real(**system)

    monkeypatch.setattr(verify, "_rk4_quadratic_trace", spy)
    trace = integrate(p, u, alpha, 1e-20, 1e-20)  # one step: only the limits are checked
    monkeypatch.undo()
    (system,) = systems
    qa, qb, qc, pa, pb = (system[k] for k in ("qa", "qb", "qc", "pa", "pb"))
    b, a_slope = ode_limits_reference(qa, qb, qc, pa, pb)
    cond = (qb * qb + abs(4.0 * qa * qc)) / (qb * qb - 4.0 * qa * qc)
    u6 = 6.0 * 2.0**-53
    assert abs(trace.b_limit_closed_form - b) <= u6 * abs(b) * cond, (p, alpha)
    a_terms = abs(pb * b) + abs(pa * b * b)
    assert abs(trace.a_slope_closed_form - a_slope) <= u6 * a_terms * cond, (p, alpha)


def test_ode_limits_are_the_stable_root_on_random_draws(monkeypatch):
    rng = np.random.default_rng(2022)
    for integrate, draw in ((integrate_heston_riccati, draw_heston),
                            (integrate_vasicek_ode, draw_vasicek)):
        for _ in range(200):
            p, u = draw(rng), draw_utility(rng)
            _limits_within_a_few_ulps(monkeypatch, integrate, p, u, rng.uniform())


@pytest.mark.parametrize("kappa", [10.0**e for e in range(2, 15)])
def test_heston_ode_limits_hold_as_kappa_grows(monkeypatch, kappa):
    # the cancelling form (kappa - sqrt(disc))/delta^2 is 17% off B_inf at kappa = 1e14
    p = replace(HESTON, kappa=kappa)
    _limits_within_a_few_ulps(monkeypatch, integrate_heston_riccati, p, U, 0.5)


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
