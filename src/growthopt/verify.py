"""Independent numeric oracles: ODE integration and Monte Carlo simulation.

The ODE side integrates the exponential-ansatz systems behind the Heston
and OU-rate growth rates with a classical fixed-step RK4 and reports the
closed-form limits they must approach. The Monte Carlo side simulates the
wealth process of every model and estimates the finite-horizon growth rate
of the expected power utility.

Simulation is deterministic by construction: paths are split into
fixed-size blocks, each block draws from its own counter-based stream
derived from the master seed, with its normals in antithetic pairs inside
the block, and partial results are combined in block order, so the
estimate is bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    NonFinitePath,
    OutOfRange,
    StepSizeTooLarge,
)
from .growth import _clamp_alpha, _float_range_error
from .params import (
    ConstantJump,
    ExponentialJump,
    GbmParams,
    HestonParams,
    JumpDiffusionParams,
    ModelSpec,
    ThreeHalvesParams,
    Utility,
    VasicekParams,
    kind_of,
)

__all__ = [
    "OdeTrace",
    "SimEstimate",
    "LaplaceEstimate",
    "integrate_heston_riccati",
    "integrate_vasicek_ode",
    "mc_growth_estimate",
    "mc_laplace_three_halves",
]

# Paths per RNG block; fixed so results do not depend on the worker count.
BLOCK_SIZE = 16384

# Reciprocal-variance floor guarding 1/x after a (measure-zero) truncation.
_RECIP_FLOOR = 1e-12

# Most RK4 steps per trace and jump events expected per MC block; each is stored.
_WORK_LIMIT = 10_000_000
# numpy's Generator.poisson rejects a larger mean.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class OdeTrace:
    """RK4 trace of the exponent pair (A(t), B(t)) with its closed-form limits."""

    times: np.ndarray
    a_values: np.ndarray
    b_values: np.ndarray
    b_limit_closed_form: float
    a_slope_closed_form: float


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate of (1/t) log E[(V_t/V_0)^theta]."""

    lambda_hat: float
    std_error: float
    horizon_t: float
    n_paths: int
    n_steps: int
    seed: int


@dataclass(frozen=True)
class LaplaceEstimate:
    """Monte Carlo mean of exp(-lambda_l * integrated variance)."""

    mean: float
    std_error: float
    horizon_t: float
    n_paths: int
    n_steps: int
    seed: int


def _rk4_quadratic_trace(qa, qb, qc, pa, pb, b0, t_end, dt, b_limit):
    """Integrate B' = qa*B^2 + qb*B + qc, A' = pa*B^2 + pb*B from (0, b0).

    A step that moves B by more than half its remaining distance to the
    limit signals an unstable step size and raises.

    The system is autonomous, so one RK4 step is a fixed map b -> Phi_h(b).
    Once a step returns B bit for bit (sign of zero included; -0.0 == 0.0
    would not do), B is a floating-point fixed point of that map and every
    later step repeats this one exactly: B stays put, the step-size check
    holds trivially, and A grows by the same increment da. The loop then
    stops and fills the tail: B with the fixed value, A with a cumulative
    sum of da, which numpy accumulates left to right and so rounds exactly
    as repeated ``a += da`` would. The trace is the same to the last bit as
    when every step is taken. Without an exact fixed point (short horizons,
    a cycle, NaN) every step is taken.
    """
    t_end = float(t_end)
    dt = float(dt)
    if not (math.isfinite(t_end) and 0.0 < dt <= t_end):
        raise OutOfRange(f"need 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    steps = t_end / dt
    if steps > _WORK_LIMIT + 0.5:  # round(steps) > 1e7, 240 MB of trace; round(inf) raises
        raise OutOfRange(f"t_end/dt = {steps:.6g} exceeds the limit of {_WORK_LIMIT:,} RK4 steps")
    n = max(1, int(round(steps)))
    h = t_end / n
    times = np.arange(n + 1) * h
    avals = np.empty(n + 1)
    bvals = np.empty(n + 1)
    avals[0] = 0.0
    bvals[0] = b0
    a = 0.0
    b = b0
    h6 = h / 6.0
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
        da = h6 * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        if abs(b_new - b) > 0.5 * abs(b - b_limit) + 1e-12:
            raise StepSizeTooLarge(
                f"dt={h} moved B from {b!r} to {b_new!r} against limit "
                f"{b_limit!r}; decrease the step size"
            )
        if b_new == b and math.copysign(1.0, b_new) == math.copysign(1.0, b):
            bvals[i:] = b
            tail = np.full(n + 2 - i, da)
            tail[0] = a
            np.cumsum(tail, out=avals[i - 1:])
            break
        a += da
        b = b_new
        avals[i] = a
        bvals[i] = b
    return times, avals, bvals


def _checked_trace(p, model, names, b_limit, a_slope, t_end, dt, **coeffs):
    """Run ``_rk4_quadratic_trace`` on finite inputs to a finite end point.

    Raises DomainExceeded, naming the parameters ``names`` of ``p``, when a
    coefficient, the closed-form limits or the end of the trace is not
    finite: the ODE oracle then has nothing finite to check.
    """
    if not all(map(math.isfinite, (b_limit, a_slope, *coeffs.values()))):
        raise _float_range_error(f"{model} ODE values", p, names)
    times, avals, bvals = _rk4_quadratic_trace(
        **coeffs, t_end=t_end, dt=dt, b_limit=b_limit
    )
    if not (math.isfinite(avals[-1]) and math.isfinite(bvals[-1])):
        raise _float_range_error(f"{model} ODE values", p, names)
    return OdeTrace(times, avals, bvals, b_limit, a_slope)


def integrate_heston_riccati(
    p: HestonParams, u: Utility, alpha: float, t_end: float, dt: float
) -> OdeTrace:
    """Integrate the Heston exponent system and report its limits.

    B solves the Riccati equation B' = -kappa*B + delta^2 B^2 / 2 + q and
    converges to the smaller root; A' = kappa*gamma_level*B, so A(t)/t
    approaches the closed-form slope entering the growth rate. Raises
    DomainExceeded when the system leaves the float range.
    """
    alpha = _clamp_alpha(float(alpha))
    theta = u.theta
    k, g, d, rho = p.kappa, p.gamma_level, p.delta, p.rho
    names = ("kappa", "gamma_level", "delta")
    q = (theta * theta * alpha * alpha * (1.0 - rho * rho) - theta * alpha * alpha) / 2.0 + (
        k * alpha * rho * theta / d
    )
    try:
        disc = (k - d * theta * alpha * rho) ** 2 + d * d * alpha * alpha * (
            theta - theta * theta
        )
        sqrt_disc = math.sqrt(disc)
        b_limit = (k - sqrt_disc) / (d * d)
    except (OverflowError, ZeroDivisionError) as exc:
        raise _float_range_error("Heston ODE values", p, names) from exc
    a_slope = k * k * g / (d * d) - (k * g / (d * d)) * sqrt_disc
    b0 = theta * alpha * rho / d
    return _checked_trace(
        p, "Heston", names, b_limit, a_slope, t_end, dt,
        qa=0.5 * d * d, qb=-k, qc=q, pa=0.0, pb=k * g, b0=b0,
    )


def integrate_vasicek_ode(
    p: VasicekParams, u: Utility, alpha: float, t_end: float, dt: float
) -> OdeTrace:
    """Integrate the OU-rate exponent system.

    B is linear with closed-form solution b_limit + (B(0)-b_limit)e^{-kt};
    A' = kappa*gamma_level*B + delta^2 B^2 / 2. Raises DomainExceeded when
    the system leaves the float range.
    """
    alpha = _clamp_alpha(float(alpha))
    theta = u.theta
    k, g, d, s, rho = p.kappa, p.gamma_level, p.delta, p.sigma, p.rho
    forcing = theta * (1.0 - alpha) + theta * alpha * s * k * rho / d
    b_limit = theta * (1.0 - alpha) / k + theta * alpha * s * rho / d
    a_slope = k * g * b_limit + 0.5 * d * d * b_limit * b_limit
    b0 = theta * alpha * s * rho / d
    return _checked_trace(
        p, "Vasicek", ("kappa", "gamma_level", "delta", "sigma"), b_limit, a_slope, t_end, dt,
        qa=0.0, qb=-k, qc=forcing, pa=0.5 * d * d, pb=k * g, b0=b0,
    )


def _sample_jump_factors(law, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(law, ExponentialJump):
        return rng.exponential(scale=1.0 / law.rate, size=n)
    # Tabulated inverse CDF on the declared support.
    grid = np.linspace(0.0, law.bound, 4097)
    pdf = np.array([max(law.density(y), 0.0) for y in grid])
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, grid)


def _log_ratio_gbm(p: GbmParams, alpha, t, n_steps, rng, size):
    """Exact lognormal log-return, also a jump path's diffusion part.

    Returns ``(log_ratio, 0.0)``: no term is integrated out. Raises
    DomainExceeded naming sigma when sigma^2 overflows.
    """
    z = rng.standard_normal(size)
    try:
        drift = (alpha * p.mu + (1.0 - alpha) * p.r - 0.5 * alpha * alpha * p.sigma**2) * t
    except OverflowError as exc:
        raise _float_range_error("lognormal drift terms", p, ("sigma",)) from exc
    return drift + alpha * p.sigma * math.sqrt(t) * z, 0.0


def _log_ratio_heston(p: HestonParams, alpha, t, n_steps, rng, size):
    """Euler log-return without the stock's own normal, and that term's variance.

    The stock's noise is rho dW + sqrt(1 - rho^2) dB with B independent of
    the variance path, so given the path the B term is Gaussian with
    variance alpha^2 (1 - rho^2) dt sum nu+.
    """
    dt = t / n_steps
    sq_dt = math.sqrt(dt)
    nu = np.full(size, p.nu0)
    nu_sum = np.zeros(size)  # sum of nu+ over the steps
    noise = np.zeros(size)  # sum of sqrt(nu+) dW
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


def _recip_cir_step(p: ThreeHalvesParams, x, dt, dw):
    """Full-truncation Euler step of x = 1/nu, which follows a CIR process."""
    x_plus = np.maximum(x, 0.0)
    drift = p.kappa + p.delta * p.delta - p.kappa * p.gamma_level * x_plus
    return x + drift * dt - p.delta * np.sqrt(x_plus) * dw, x_plus


def _log_ratio_three_halves(p: ThreeHalvesParams, alpha, t, n_steps, rng, size):
    """Euler log-return without the stock's own normal, and that term's variance.

    The stock's noise is independent of the variance's, so given the path
    the stock term is Gaussian with variance alpha^2 dt sum nu.
    """
    dt = t / n_steps
    sq_dt = math.sqrt(dt)
    x = np.full(size, 1.0 / p.nu0)
    nu_sum = np.zeros(size)
    for _ in range(n_steps):
        x, x_plus = _recip_cir_step(p, x, dt, sq_dt * rng.standard_normal(size))
        nu_sum += 1.0 / np.maximum(x_plus, _RECIP_FLOOR)
    drift = (alpha * p.mu + (1.0 - alpha) * p.r) * t
    a2_dt = alpha * alpha * dt
    return drift - 0.5 * a2_dt * nu_sum, a2_dt * nu_sum


def _log_ratio_jump(p: JumpDiffusionParams, alpha, t, n_steps, rng, size):
    lam = p.lambda_j * t
    if lam > _POISSON_LAM_MAX:
        raise OutOfRange(f"lambda_j*t = {lam:.6g} exceeds numpy's Poisson limit")
    constant = isinstance(p.jump, ConstantJump)  # needs no array of jump factors
    if not constant and lam * size > _WORK_LIMIT:
        raise OutOfRange(f"{lam * size:.6g} expected jumps in {size} paths exceed {_WORK_LIMIT:,}")
    lognormal, _ = _log_ratio_gbm(p, alpha, t, n_steps, rng, size)
    counts = rng.poisson(lam, size)
    if constant:  # log(0) = -inf where one jump takes the whole stake
        log_factor = np.log(alpha * (p.jump.y - 1.0) + 1.0)
        return lognormal + np.where(counts > 0, counts * log_factor, 0.0), 0.0
    total = int(counts.sum())
    per_path = np.zeros(size)
    if total > 0:
        ys = _sample_jump_factors(p.jump, rng, total)
        log_factors = np.log(alpha * (ys - 1.0) + 1.0)
        np.add.at(per_path, np.repeat(np.arange(size), counts), log_factors)
    return lognormal + per_path, 0.0


def _log_ratio_vasicek(p: VasicekParams, alpha, t, n_steps, rng, size):
    """Log-return without the stock's own normal, and that term's variance.

    The stock's noise is rho*eta + sqrt(1 - rho^2) z with z independent of
    the rate path, so given the path the z term is Gaussian with variance
    alpha^2 sigma^2 (1 - rho^2) t. Raises DomainExceeded naming sigma when
    (alpha*sigma)^2 overflows.
    """
    a_sigma = alpha * p.sigma
    if not math.isfinite(a_sigma * a_sigma):
        raise _float_range_error("stock variance terms", p, ("sigma",))
    dt = t / n_steps
    decay = math.exp(-p.kappa * dt)
    innov_sd = p.delta * math.sqrt((1.0 - math.exp(-2.0 * p.kappa * dt)) / (2.0 * p.kappa))
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


# kind -> (simulator, conditional). A conditional simulator steps a variance
# or rate path, so it needs n_steps >= 10*t, and integrates the stock's own
# normal out given that path: equal paths are then the scheme's exact
# expectation, not a sign of a broken RNG.
_SIMULATORS = {
    "gbm": (_log_ratio_gbm, False),
    "heston": (_log_ratio_heston, True),
    "three_halves": (_log_ratio_three_halves, True),
    "jump": (_log_ratio_jump, False),
    "vasicek": (_log_ratio_vasicek, True),
}


class _AntitheticNormals:
    """A block's generator whose standard normals come in mirrored pairs.

    ``standard_normal(n)`` draws ceil(n/2) values and writes their negation
    after them, so path i and path i + ceil(n/2) form an antithetic pair
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2003, §4.2);
    in an odd block path ceil(n/2) - 1 stays unpaired. The draws fill one
    buffer, overwritten by the next call, so a kernel must not keep a
    returned array across draws. Every other method (Poisson, exponential,
    uniform) is the block's own generator, unpaired.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = np.empty(0)

    def standard_normal(self, n: int):
        if self._buf.size != n:
            self._buf = np.empty(n)
        half = (n + 1) // 2
        self._rng.standard_normal(out=self._buf[:half])
        np.negative(self._buf[: n - half], out=self._buf[half:])
        return self._buf

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _simulate(block_fn, t, n_paths, n_steps, seed, workers, discretized):
    """Mean and standard error of ``block_fn`` over ``n_paths`` simulated paths.

    Checks the run shape, then runs ``block_fn(rng, size, t, n_steps)`` on
    fixed-size blocks of paths on ``max(1, workers)`` threads. Block i
    draws from its own Philox stream keyed by (seed, i), wrapped so that its
    normals come in antithetic pairs (``_AntitheticNormals``), and the
    blocks are combined in block order, so the result is the same for any
    ``workers``. A time-stepped (``discretized``) scheme needs
    n_steps >= 10*t.

    The mean is over all paths. The standard error is over the k independent
    units, each a pair or an odd block's lone path: with U_j a unit's sum,
    c_j its path count and m the mean,
    SE^2 = k/(k-1) * sum_j (U_j - m*c_j)^2 / n_paths^2, exactly 0.0 (and m
    that value) when every path is equal. Raises DegenerateVariance when
    k < 2. Returns ``(mean, std_error, run)``, ``run`` holding the coerced
    horizon_t, n_paths, n_steps and seed.
    """
    t, n_paths, n_steps, seed = float(t), int(n_paths), int(n_steps), int(seed)
    if not (math.isfinite(t) and t > 0.0):
        raise OutOfRange(f"t must be > 0, got {t}")
    if n_paths < 1 or n_steps < 1:
        raise OutOfRange("n_paths and n_steps must be positive")
    if discretized and n_steps < 10.0 * t:
        raise OutOfRange(
            f"discretized models need n_steps >= 10*t, got {n_steps} for t={t}"
        )
    sizes = [min(BLOCK_SIZE, n_paths - start) for start in range(0, n_paths, BLOCK_SIZE)]
    units = sum((size + 1) // 2 for size in sizes)
    if units < 2:
        raise DegenerateVariance(
            "a standard error needs at least two independent path units "
            f"(antithetic pairs or lone paths), got n_paths={n_paths}"
        )

    def block(i):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        )
        # numpy's error state is per thread, so it is set here in the worker;
        # overflow and NaN surface below as NonFinitePath, not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return block_fn(_AntitheticNormals(rng), sizes[i], t, n_steps)

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        values = np.concatenate(list(pool.map(block, range(len(sizes)))))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFinitePath(
            f"path {int(bad[0])} produced a non-finite value (seed={seed})",
            path_index=int(bad[0]),
            seed=seed,
        )
    run = dict(horizon_t=t, n_paths=n_paths, n_steps=n_steps, seed=seed)
    if (values == values[0]).all():  # np.mean need not return that value
        return float(values[0]), 0.0, run
    mean = float(np.mean(values))
    squares = 0.0
    for start in range(0, n_paths, BLOCK_SIZE):
        dev = values[start:start + BLOCK_SIZE] - mean
        half = (dev.size + 1) // 2
        unit = dev[:half]  # a pair's deviation is the sum of its paths'
        unit[: dev.size - half] += dev[half:]
        squares += float(np.dot(unit, unit))
    se = math.sqrt(units / (units - 1) * squares) / n_paths
    return mean, se, run


def mc_growth_estimate(
    model: ModelSpec,
    u: Utility,
    alpha: float,
    t: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    workers: int = 1,
) -> SimEstimate:
    """Estimate (1/t) log E[(V_t/V_0)^theta] by path simulation.

    Lognormal and jump-diffusion wealth is sampled exactly; the Heston
    variance uses full-truncation Euler, the 3/2 variance is simulated
    through its reciprocal (a CIR process, again full truncation), and the
    OU rate uses its exact Gaussian transition with a trapezoidal rate
    integral. For these three the stock's own normal is independent of the
    variance or rate path and is integrated out given it (conditional Monte
    Carlo): a path with log-return L0 without that term and conditional
    variance v of it contributes E[e^{theta L} | path] = exp(theta L0 + theta^2 v/2),
    the same scheme with the same expectation from half the normals. The
    standard error of the log-mean comes from the delta method.

    Identical arguments give a bit-identical estimate for any ``workers``.
    Raises DegenerateVariance when every path of a lognormal or jump model
    at alpha > 0 is equal, which its exact sampler cannot produce.
    """
    alpha = _clamp_alpha(float(alpha))
    sim, conditional = _SIMULATORS[kind_of(model)]
    half_theta2 = 0.5 * u.theta * u.theta

    def block_fn(rng, size, t, n_steps):
        log_ratio, cond_var = sim(model, alpha, t, n_steps, rng, size)
        return np.exp(u.theta * log_ratio + half_theta2 * cond_var)

    m, se_m, run = _simulate(block_fn, t, n_paths, n_steps, seed, workers, conditional)
    if se_m == 0.0 and alpha != 0.0 and not conditional:
        raise DegenerateVariance(
            "all simulated paths are identical; check the RNG configuration"
        )
    t = run["horizon_t"]  # as coerced to float
    return SimEstimate(lambda_hat=math.log(m) / t, std_error=se_m / (m * t), **run)


def mc_laplace_three_halves(
    p: ThreeHalvesParams,
    lambda_l: float,
    t: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    workers: int = 1,
) -> LaplaceEstimate:
    """Monte Carlo mean of exp(-lambda_l * integral of nu over [0, t])."""
    lambda_l = float(lambda_l)
    if not (math.isfinite(lambda_l) and lambda_l >= 0.0):
        raise OutOfRange(f"lambda_l must be >= 0, got {lambda_l}")

    def block_fn(rng, size, t, n_steps):
        dt = t / n_steps
        sq_dt = math.sqrt(dt)
        x = np.full(size, 1.0 / p.nu0)
        nu_cur = np.full(size, p.nu0)
        integral = np.zeros(size)
        for _ in range(n_steps):
            dw = sq_dt * rng.standard_normal(size)
            x_next, _ = _recip_cir_step(p, x, dt, dw)
            nu_next = 1.0 / np.maximum(np.maximum(x_next, 0.0), _RECIP_FLOOR)
            integral += 0.5 * (nu_cur + nu_next) * dt
            x = x_next
            nu_cur = nu_next
        return np.exp(-lambda_l * integral)

    m, se_m, run = _simulate(block_fn, t, n_paths, n_steps, seed, workers, discretized=True)
    return LaplaceEstimate(mean=m, std_error=se_m, **run)
