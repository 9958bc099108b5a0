"""The in-place Monte Carlo step kernels against their allocating form.

Each reference below is the kernel as it was written before its step
updated preallocated arrays in place: every elementwise operation is the
same one, on the same operands, in the same order, so the two must agree
to the last bit, NaN payloads of overflowing paths included.

The Vasicek kernel is the exception. It sums the step normals with the
scheme's weights instead of stepping the rate path, so it rounds
differently from its reference, the path recursion. Both forms add about
one term per step, each rounded to half an ulp of a partial sum, so their
log-returns agree within n_steps ulps of the block's largest log-return.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from growthopt import verify
from growthopt import (
    ConstantJump,
    ExponentialJump,
    HestonParams,
    JumpDiffusionParams,
    ThreeHalvesParams,
    Utility,
    VasicekParams,
    mc_growth_estimate,
)

U = Utility(0.5)
HESTON = HestonParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.3, rho=-0.5, r=0.03, nu0=0.04)
THREE_HALVES = ThreeHalvesParams(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03, nu0=0.04)
VASICEK = VasicekParams(mu=0.08, sigma=0.2, kappa=2.0, gamma_level=0.03, delta=0.01, rho=-0.3, r0=0.03)
JUMP_EXP = JumpDiffusionParams(mu=0.08, sigma=0.2, lambda_j=1.0, jump=ExponentialJump(rate=2.0),
                               r=0.03)
JUMP_CONST = replace(JUMP_EXP, jump=ConstantJump(y=1.2))
# kappa*gamma_level overflows, so the variance paths turn inf and NaN
HESTON_OVERFLOW = replace(HESTON, kappa=1e308, gamma_level=10.0)
THREE_HALVES_OVERFLOW = replace(THREE_HALVES, kappa=1e308, gamma_level=10.0, delta=0.3)


def _allocating_heston(p, alpha, t, n_steps, rng, size):
    dt = t / n_steps
    sq_dt = math.sqrt(dt)
    nu = np.full(size, p.nu0)
    nu_sum = np.zeros(size)
    noise = np.zeros(size)
    for _ in range(n_steps):
        dw = sq_dt * rng.standard_normal(size)
        nu_plus = np.maximum(nu, 0.0)
        nu_sum += nu_plus
        vol_dw = np.sqrt(nu_plus)
        vol_dw *= dw
        noise += vol_dw
        nu = nu + p.kappa * (p.gamma_level - nu_plus) * dt + p.delta * vol_dw
    drift = (alpha * p.mu + (1.0 - alpha) * p.r) * t
    log_ratio = drift - 0.5 * alpha * alpha * dt * nu_sum + alpha * p.rho * noise
    return log_ratio, alpha * alpha * (1.0 - p.rho * p.rho) * dt * nu_sum


def _allocating_recip_cir_step(p, x, dt, dw):
    x_plus = np.maximum(x, 0.0)
    drift = p.kappa + p.delta * p.delta - p.kappa * p.gamma_level * x_plus
    return x + drift * dt - p.delta * np.sqrt(x_plus) * dw, x_plus


def _allocating_three_halves(p, alpha, t, n_steps, rng, size):
    dt = t / n_steps
    sq_dt = math.sqrt(dt)
    x = np.full(size, 1.0 / p.nu0)
    nu_sum = np.zeros(size)
    for _ in range(n_steps):
        x, _ = _allocating_recip_cir_step(p, x, dt, sq_dt * rng.standard_normal(size))
        nu = 1.0 / np.maximum(x, verify._RECIP_FLOOR)
        nu_sum += nu
    # the trapezoid rule, nu0 at t = 0
    a2_integral = alpha * alpha * ((nu_sum + 0.5 * (p.nu0 - nu)) * dt)
    drift = (alpha * p.mu + (1.0 - alpha) * p.r) * t
    return drift - 0.5 * a2_integral, a2_integral


def _allocating_vasicek(p, alpha, t, n_steps, rng, size):
    a_sigma = alpha * p.sigma
    dt = t / n_steps
    decay = math.exp(-p.kappa * dt)
    innov_sd = p.delta * math.sqrt(-math.expm1(-2.0 * p.kappa * dt) / (2.0 * p.kappa))
    r_state = np.full(size, p.r0)
    rate_integral = np.zeros(size)
    eta_sum = np.zeros(size)
    for _ in range(n_steps):
        eta = rng.standard_normal(size)
        r_next = p.gamma_level + (r_state - p.gamma_level) * decay + innov_sd * eta
        rate_integral += 0.5 * (r_state + r_next) * dt
        eta_sum += eta
        r_state = r_next
    log_ratio = (
        alpha * p.mu * t
        - 0.5 * a_sigma * a_sigma * t
        + a_sigma * p.rho * math.sqrt(dt) * eta_sum
        + (1.0 - alpha) * rate_integral
    )
    return log_ratio, a_sigma * a_sigma * (1.0 - p.rho * p.rho) * t


def _allocating_jump(p, alpha, t, n_steps, rng, size):
    lognormal, _ = verify._log_ratio_gbm(p, alpha, t, n_steps, rng, size)
    counts = rng.poisson(p.lambda_j * t, size)
    if isinstance(p.jump, ConstantJump):
        log_factor = np.log(alpha * (p.jump.y - 1.0) + 1.0)
        return lognormal + np.where(counts > 0, counts * log_factor, 0.0), 0.0
    total = int(counts.sum())
    per_path = np.zeros(size)
    if total > 0:
        ys = verify._sample_jump_factors(p.jump, rng, total)
        log_factors = np.log(alpha * (ys - 1.0) + 1.0)
        np.add.at(per_path, np.repeat(np.arange(size), counts), log_factors)
    return lognormal + per_path, 0.0


def _allocating_integrated_variance(p, rng, size, t, n_steps):
    # the trapezoid integral of nu, as the growth estimator forms it at alpha = 1
    return _allocating_three_halves(p, 1.0, t, n_steps, rng, size)[1]


def _allocating_block(sim, model, alpha):
    """``mc_growth_estimate``'s block function as it was written before."""
    half_theta2 = 0.5 * U.theta * U.theta

    def block_fn(rng, size, t, n_steps):
        log_ratio, cond_var = sim(model, alpha, t, n_steps, rng, size)
        return np.exp(U.theta * log_ratio + half_theta2 * cond_var)
    return block_fn


def _bits(value):
    return np.asarray(value, dtype=np.float64).view(np.int64)


# kinds whose kernel agrees with its reference within the rounding bound above
SUMMED = {"vasicek"}


def _rounding_bound(log_ratio):
    return STEPS * np.finfo(np.float64).eps * np.abs(log_ratio).max()


def _block_rng(seed):
    generator = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    return verify._AntitheticNormals(generator)


# (kind, model, horizon): 101 paths, 20 steps, so the block is odd and has a lone path
KERNELS = [
    ("heston", HESTON, 1.0, verify._log_ratio_heston, _allocating_heston),
    ("heston_overflow", HESTON_OVERFLOW, 1.0, verify._log_ratio_heston, _allocating_heston),
    ("three_halves", THREE_HALVES, 1.0, verify._log_ratio_three_halves, _allocating_three_halves),
    ("three_halves_overflow", THREE_HALVES_OVERFLOW, 1.0, verify._log_ratio_three_halves,
     _allocating_three_halves),
    ("vasicek", VASICEK, 1.0, verify._log_ratio_vasicek, _allocating_vasicek),
    ("jump_exponential", JUMP_EXP, 20.0, verify._log_ratio_jump, _allocating_jump),
    ("jump_constant", JUMP_CONST, 20.0, verify._log_ratio_jump, _allocating_jump),
]
SIZE, STEPS = 101, 20


@pytest.mark.parametrize("seed", [19, 20])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind, model, t, kernel, allocating", KERNELS,
                         ids=[k[0] for k in KERNELS])
def test_in_place_kernel_keeps_the_allocating_bits(kind, model, t, kernel, allocating, alpha,
                                                   seed):
    # _simulate runs kernels under this error state; RuntimeWarnings fail the suite
    with np.errstate(over="ignore", invalid="ignore"):
        got = kernel(model, alpha, t, STEPS, _block_rng(seed), SIZE)
        want = allocating(model, alpha, t, STEPS, _block_rng(seed), SIZE)
    if kind in SUMMED:
        assert np.abs(got[0] - want[0]).max() <= _rounding_bound(want[0])
        got, want = got[1:], want[1:]  # the conditional variance is the same scalar
    for got_part, want_part in zip(got, want):
        assert np.array_equal(_bits(got_part), _bits(want_part))
    if kind.endswith("overflow") and alpha > 0.0:
        assert not np.isfinite(got[0]).all()  # the NaN and inf bits were compared too


@pytest.mark.parametrize("seed", [19, 20])
@pytest.mark.parametrize("model", [THREE_HALVES, THREE_HALVES_OVERFLOW],
                         ids=["three_halves", "three_halves_overflow"])
def test_in_place_laplace_block_keeps_the_allocating_bits(model, seed):
    # The integral's own bits first: exp(-0.125 * I) rounds away differences of
    # a few 1e-17 in I, which a larger lambda_l can show.
    with np.errstate(over="ignore", invalid="ignore"):
        got = verify._three_halves_integrated_variance(model, _block_rng(seed), SIZE, 1.0, STEPS)
        want = _allocating_integrated_variance(model, _block_rng(seed), SIZE, 1.0, STEPS)
        assert np.array_equal(_bits(got), _bits(want))
        for lambda_l in (0.125, 10.0):
            got = verify._laplace_three_halves_block(model, lambda_l, _block_rng(seed), SIZE, 1.0,
                                                     STEPS)
            assert np.array_equal(_bits(got), _bits(np.exp(-lambda_l * want)))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind, model, t, kernel, allocating",
                         [k for k in KERNELS if not k[0].endswith("overflow")],
                         ids=[k[0] for k in KERNELS if not k[0].endswith("overflow")])
def test_estimate_keeps_the_allocating_bits(monkeypatch, kind, model, t, kernel, allocating,
                                            alpha):
    # the whole block function too: exp taken in place, no 0.0 added for gbm and jump
    monkeypatch.setattr(verify, "BLOCK_SIZE", SIZE)
    est = mc_growth_estimate(model, U, alpha, t, 2 * SIZE, STEPS, seed=19)
    conditional = verify._SIMULATORS[verify.kind_of(model)][1]
    m, se_m, _ = verify._simulate(_allocating_block(allocating, model, alpha), t, 2 * SIZE, STEPS,
                                  19, 1, conditional)
    if kind in SUMMED:
        # every log-return here is below 1 in size, so each path value moves by
        # at most theta * _rounding_bound relative, and the log-mean and its
        # delta-method error by at most that over t
        tol = U.theta * STEPS * np.finfo(np.float64).eps / t
        assert abs(est.lambda_hat - math.log(m) / t) <= tol
        assert abs(est.std_error - se_m / (m * t)) <= tol
        return
    assert _bits(est.lambda_hat) == _bits(math.log(m) / t)
    assert _bits(est.std_error) == _bits(se_m / (m * t))


@pytest.mark.parametrize("model", [THREE_HALVES, VASICEK, JUMP_EXP, JUMP_CONST],
                         ids=["three_halves", "vasicek", "jump_exponential", "jump_constant"])
def test_estimate_is_the_same_for_any_worker_count(monkeypatch, model):
    # five blocks on three threads, switching often: a work array shared
    # between blocks would mix their paths
    monkeypatch.setattr(verify, "BLOCK_SIZE", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [mc_growth_estimate(model, U, 0.5, 2.0, 5 * 64 - 3, 200, seed=19, workers=w)
                for w in (1, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1]
