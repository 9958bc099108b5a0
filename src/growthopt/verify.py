"""Independent numeric oracles: ODE integration and Monte Carlo simulation.

The ODE side integrates the exponential-ansatz systems behind the Heston
and OU-rate growth rates with a classical fixed-step RK4 and derives the
limits they must approach from the coefficients integrated: the stable root
of B's quadratic, and A' at that root. The Monte Carlo side simulates the
wealth process of every model and estimates the finite-horizon growth rate
of the expected power utility.

Simulation is deterministic by construction: paths are split into
fixed-size blocks, each block draws from its own SFC64 stream keyed by the
master seed and the block index, with its normals in antithetic pairs
inside the block, and partial results are combined in block order, so the
estimate is bit-identical for any worker count.

The worker threads of a time-stepped run take turns at step arithmetic: a
block holds the run's compute turn while it steps and hands it over around
every draw. Draws release the GIL, so different blocks' draws still
overlap, but only one thread at a time runs a step's ufuncs, and the
threads no longer trade the GIL around each of those calls.

A time-stepped block allocates a fixed set of path arrays once and
updates them in place, allocating nothing per step: at 16,384 paths,
7 x 128 KiB for Heston, 5 for the 3/2 variance path and 2 for Vasicek,
which sums its normals with the scheme's weights, each count including
the block's normal buffer. Both 3/2 estimators step that one path and
integrate nu by the trapezoid rule; the growth estimator then allocates
one more array, its log-return. Worker threads never share the arrays.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    DomainExceeded,
    NonFinitePath,
    OutOfRange,
    StepSizeTooLarge,
)
from .growth import R2_MIN, _clamp_alpha, _float_range_error
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


def _checked_trace(p, model, names, t_end, dt, qa, qb, qc, pa, pb, b0):
    """Run ``_rk4_quadratic_trace`` and derive the limits it must approach.

    B settles at the stable root of qa*B^2 + qb*B + qc (qb = -kappa < 0),
    B_inf = 2qc/(sqrt(qb^2 - 4qa*qc) - qb), where nothing cancels (Higham,
    2002, section 1.8; the square root is -qb when qa = 0), and A grows at
    A' = B_inf*(pb + pa*B_inf). Raises DomainExceeded, naming ``names`` of
    ``p``, when the discriminant leaves the normal float range, delta^2/2
    (qa or pa) underflows to 0, or a coefficient, a limit or the trace's
    end is not finite.
    """
    disc = qb * qb - 4.0 * qa * qc
    root = -qb if qa == 0.0 else (math.sqrt(disc) if R2_MIN <= disc < math.inf else math.nan)
    b_limit = 2.0 * qc / (root - qb)
    a_slope = b_limit * (pb + pa * b_limit)
    if not (qa + pa > 0.0 and all(map(math.isfinite, (b_limit, a_slope, qc, pb, b0)))):
        raise _float_range_error(f"{model} ODE values", p, names)
    times, avals, bvals = _rk4_quadratic_trace(
        qa=qa, qb=qb, qc=qc, pa=pa, pb=pb, b0=b0, t_end=t_end, dt=dt, b_limit=b_limit
    )
    if not (math.isfinite(avals[-1]) and math.isfinite(bvals[-1])):
        raise _float_range_error(f"{model} ODE values", p, names)
    return OdeTrace(times, avals, bvals, b_limit, a_slope)


def integrate_heston_riccati(
    p: HestonParams, u: Utility, alpha: float, t_end: float, dt: float
) -> OdeTrace:
    """Integrate the Heston exponent system and report its limits.

    B solves the Riccati equation B' = delta^2 B^2 / 2 - kappa*B + q and
    converges to the stable root of that quadratic; A' = kappa*gamma_level*B
    there is the slope of A(t)/t entering the growth rate. Raises
    DomainExceeded when the system leaves the float range.
    """
    alpha = _clamp_alpha(float(alpha))
    theta = u.theta
    k, g, d, rho = p.kappa, p.gamma_level, p.delta, p.rho
    q = (theta * theta * alpha * alpha * (1.0 - rho * rho) - theta * alpha * alpha) / 2.0 + (
        k * alpha * rho * theta / d
    )
    return _checked_trace(
        p, "Heston", ("kappa", "gamma_level", "delta"), t_end, dt,
        qa=0.5 * d * d, qb=-k, qc=q, pa=0.0, pb=k * g, b0=theta * alpha * rho / d,
    )


def integrate_vasicek_ode(
    p: VasicekParams, u: Utility, alpha: float, t_end: float, dt: float
) -> OdeTrace:
    """Integrate the OU-rate exponent system.

    B' = -kappa*B + forcing is linear, with root B_inf = forcing/kappa and
    B(t) = B_inf + (B(0) - B_inf)e^{-kappa t}; A' = kappa*gamma_level*B +
    delta^2 B^2 / 2, taken at B_inf for the slope. Raises DomainExceeded
    when the system leaves the float range.
    """
    alpha = _clamp_alpha(float(alpha))
    theta = u.theta
    k, g, d, s, rho = p.kappa, p.gamma_level, p.delta, p.sigma, p.rho
    return _checked_trace(
        p, "Vasicek", ("kappa", "gamma_level", "delta", "sigma"), t_end, dt,
        qa=0.0, qb=-k, qc=theta * (1.0 - alpha) + theta * alpha * s * k * rho / d,
        pa=0.5 * d * d, pb=k * g, b0=theta * alpha * s * rho / d,
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
    nu_plus, vol_dw, work = np.empty(size), np.empty(size), np.empty(size)
    for _ in range(n_steps):
        dw = rng.standard_normal(size)
        dw *= sq_dt
        np.maximum(nu, 0.0, out=nu_plus)
        nu_sum += nu_plus
        np.sqrt(nu_plus, out=vol_dw)
        vol_dw *= dw
        noise += vol_dw
        # nu + kappa (gamma_level - nu+) dt + delta sqrt(nu+) dW
        np.subtract(p.gamma_level, nu_plus, out=work)
        work *= p.kappa
        work *= dt
        nu += work
        np.multiply(vol_dw, p.delta, out=work)
        nu += work
    drift = (alpha * p.mu + (1.0 - alpha) * p.r) * t
    log_ratio = np.multiply(nu_sum, 0.5 * alpha * alpha * dt, out=nu)
    np.subtract(drift, log_ratio, out=log_ratio)
    noise *= alpha * p.rho
    log_ratio += noise
    nu_sum *= alpha * alpha * (1.0 - p.rho * p.rho) * dt
    return log_ratio, nu_sum


def _three_halves_integrated_variance(p: ThreeHalvesParams, rng, size, t, n_steps):
    """The trapezoid rule's integral of nu over [0, t] along simulated 3/2 paths.

    x = 1/nu follows a CIR process, stepped by full-truncation Euler with
    one normal row per step; after each step nu = 1/max(x, _RECIP_FLOOR),
    and nu0 itself stands at t = 0. The sum is
    dt (nu_1 + ... + nu_n + (nu0 - nu_n)/2), one add per step.
    """
    dt = t / n_steps
    sq_dt = math.sqrt(dt)
    x = np.full(size, 1.0 / p.nu0)
    nu_sum = np.zeros(size)
    nu, work = np.empty(size), np.empty(size)
    for _ in range(n_steps):
        dw = rng.standard_normal(size)
        dw *= sq_dt
        x_plus = np.maximum(x, 0.0, out=nu)
        # x + (kappa + delta^2 - kappa gamma_level x+) dt - delta sqrt(x+) dW
        np.multiply(x_plus, p.kappa * p.gamma_level, out=work)
        np.subtract(p.kappa + p.delta * p.delta, work, out=work)
        work *= dt
        x += work
        np.sqrt(x_plus, out=work)
        work *= p.delta
        work *= dw
        x -= work
        np.maximum(x, _RECIP_FLOOR, out=nu)
        nu_sum += np.divide(1.0, nu, out=nu)
    np.subtract(p.nu0, nu, out=nu)
    nu *= 0.5
    nu_sum += nu
    nu_sum *= dt
    return nu_sum


def _log_ratio_three_halves(p: ThreeHalvesParams, alpha, t, n_steps, rng, size):
    """Euler log-return without the stock's own normal, and that term's variance.

    The stock's noise is independent of the variance's, so given the path
    the stock term is Gaussian with variance alpha^2 times the integral of nu.
    """
    cond_var = _three_halves_integrated_variance(p, rng, size, t, n_steps)
    cond_var *= alpha * alpha
    log_ratio = np.multiply(cond_var, -0.5)
    log_ratio += (alpha * p.mu + (1.0 - alpha) * p.r) * t
    return log_ratio, cond_var


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
        lognormal += np.where(counts > 0, counts * log_factor, 0.0)
        return lognormal, 0.0
    total = int(counts.sum())
    per_path = np.zeros(size)
    if total > 0:
        log_factors = _sample_jump_factors(p.jump, rng, total)
        log_factors -= 1.0  # log(alpha (Y - 1) + 1), in the drawn array
        log_factors *= alpha
        log_factors += 1.0
        np.log(log_factors, out=log_factors)
        np.add.at(per_path, np.repeat(np.arange(size), counts), log_factors)
    lognormal += per_path
    return lognormal, 0.0


def _log_ratio_vasicek(p: VasicekParams, alpha, t, n_steps, rng, size):
    """Log-return without the stock's own normal, and that term's variance.

    The rate takes its exact Gaussian step r' = gamma_level + (r - gamma_level) D
    + s eta, D = e^{-kappa dt}, and the trapezoid rule integrates it, so the
    log-return is a fixed level plus sum_k c_k eta_k (Glasserman, 2003, §3.3),
    summed instead of stepped: eta_k enters the m = n - 1 - k later rates with
    weight w(m) = (1 - D^m)/(1 - D) + D^m/2. The stock's noise is rho*eta +
    sqrt(1 - rho^2) z with z independent of the rate path, so given the path
    the z term is Gaussian with variance alpha^2 sigma^2 (1 - rho^2) t. Raises
    DomainExceeded naming sigma when (alpha*sigma)^2 overflows.
    """
    a_sigma = alpha * p.sigma
    if not math.isfinite(a_sigma * a_sigma):
        raise _float_range_error("stock variance terms", p, ("sigma",))
    dt = t / n_steps
    kappa_dt = p.kappa * dt
    # expm1, since 1 - exp(-x) cancels to 0 once x nears 1e-17
    one_minus_decay = -math.expm1(-kappa_dt)
    innov_sd = p.delta * math.sqrt(-math.expm1(-2.0 * kappa_dt) / (2.0 * p.kappa))

    def weight(m):  # D^0 = 1 at m = 0: kappa*dt is finite, as n_steps >= 10*t keeps dt <= 0.1
        if one_minus_decay == 0.0:  # D = 1 to the last bit
            return m + 0.5
        return -math.expm1(-m * kappa_dt) / one_minus_decay + 0.5 * math.exp(-m * kappa_dt)

    stock_c, rate_c = a_sigma * p.rho * math.sqrt(dt), (1.0 - alpha) * innov_sd * dt
    log_ratio = np.zeros(size)
    for m in range(n_steps - 1, -1, -1):
        eta = rng.standard_normal(size)
        eta *= stock_c + rate_c * weight(m)
        log_ratio += eta
    # alpha mu t - (alpha sigma)^2 t / 2 + (1 - alpha) times the trapezoid sum of
    # the rates' means, dt (n gamma_level + (r0 - gamma_level)(w(n) - 1/2))
    level = (p.r0 - p.gamma_level) * (weight(n_steps) - 0.5) + n_steps * p.gamma_level
    log_ratio += alpha * p.mu * t - 0.5 * a_sigma * a_sigma * t + (1.0 - alpha) * dt * level
    return log_ratio, a_sigma * a_sigma * (1.0 - p.rho * p.rho) * t


def _laplace_three_halves_block(p: ThreeHalvesParams, lambda_l, rng, size, t, n_steps):
    """exp(-lambda_l * the integral of nu) for one block of simulated 3/2 paths."""
    integral = _three_halves_integrated_variance(p, rng, size, t, n_steps)
    integral *= -lambda_l
    return np.exp(integral, out=integral)


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
    buffer, overwritten by the next call: a kernel may scale or otherwise
    overwrite the returned array within its step, but must not keep it
    across draws. Every other method (Poisson, exponential, uniform) is the
    block's own generator, unpaired.

    ``turn`` is the run's compute turn (see ``_simulate``), held by the
    thread stepping this block. Every generator call releases it and takes
    it back afterwards, so another block steps while this one draws.
    Without a turn the calls go straight to the generator.
    """

    def __init__(self, rng: np.random.Generator, turn: threading.Lock | None = None):
        self._rng = rng
        self._turn = turn
        self._buf = np.empty(0)

    def _draw(self, method, *args, **kwargs):
        if self._turn is None:
            return method(*args, **kwargs)
        self._turn.release()
        try:
            return method(*args, **kwargs)
        finally:
            self._turn.acquire()

    def standard_normal(self, n: int):
        if self._buf.size != n:
            self._buf = np.empty(n)
        half = (n + 1) // 2
        self._draw(self._rng.standard_normal, out=self._buf[:half])
        np.negative(self._buf[: n - half], out=self._buf[half:])
        return self._buf

    def __getattr__(self, name):
        return functools.partial(self._draw, getattr(self._rng, name))


def _simulate(block_fn, t, n_paths, n_steps, seed, workers, discretized):
    """Mean and standard error of ``block_fn`` over ``n_paths`` simulated paths.

    Checks the run shape, then runs ``block_fn(rng, size, t, n_steps)`` on
    fixed-size blocks of paths on ``max(1, workers)`` threads. Block i
    draws from its own SFC64 stream keyed by (seed, i), wrapped so that its
    normals come in antithetic pairs (``_AntitheticNormals``), and the
    blocks are combined in block order, so the result is the same for any
    ``workers``. A time-stepped (``discretized``) scheme needs
    n_steps >= 10*t.

    A ``discretized`` run has one compute turn, a lock that a worker holds
    while it runs ``block_fn`` and that the block's generator releases
    around each draw. One block's step arithmetic thus overlaps only other
    blocks' draws, never another block's arithmetic. Each block's values
    depend only on its own stream, so the turn changes timing, not bits.

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

    # Only a time-stepped block makes enough small ufunc calls to lose time
    # trading the GIL; an exact sampler's few large calls run best in parallel.
    turn = threading.Lock() if discretized else None

    def block(i):
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        )
        # numpy's error state is per thread, so it is set here in the worker;
        # overflow and NaN surface below as NonFinitePath, not as warnings.
        with turn or contextlib.nullcontext(), np.errstate(over="ignore", invalid="ignore"):
            return block_fn(_AntitheticNormals(rng, turn), sizes[i], t, n_steps)

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
    # a mean near the float range overflows the sum or the squares, which
    # the caller's check of the SE reports instead of a numpy warning
    with np.errstate(over="ignore"):
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

    Lognormal wealth, and jump-diffusion wealth with a constant or
    exponential law, is sampled exactly; a density law's jump factors come
    from a 4,097-point trapezoid-rule CDF on (0, bound]. The Heston
    variance uses full-truncation Euler, the 3/2 variance is simulated
    through its reciprocal (a CIR process, again full truncation) with a
    trapezoidal variance integral, and the OU rate uses its exact Gaussian
    transition with a trapezoidal rate integral. For these three the
    stock's own normal is independent of the variance or rate path and is
    integrated out given it (conditional Monte Carlo): a path with
    log-return L0 without that term and conditional variance v of it
    contributes E[e^{theta L} | path] = exp(theta L0 + theta^2 v/2),
    the same scheme with the same expectation from half the normals. The
    standard error of the log-mean comes from the delta method.

    Identical arguments give a bit-identical estimate for any ``workers``.
    Raises DegenerateVariance when every path of a lognormal or jump model
    at alpha > 0 is equal, which its exact sampler cannot produce, and
    DomainExceeded when the mean is so small that its SE is not finite.
    """
    alpha = _clamp_alpha(float(alpha))
    sim, conditional = _SIMULATORS[kind_of(model)]
    half_theta2 = 0.5 * u.theta * u.theta

    def block_fn(rng, size, t, n_steps):
        log_ratio, cond_var = sim(model, alpha, t, n_steps, rng, size)
        log_ratio *= u.theta
        # adding a scalar 0.0 (gbm, jump) would only turn -0.0 into +0.0,
        # and exp maps both to 1.0
        if np.ndim(cond_var) or cond_var != 0.0:
            cond_var *= half_theta2
            log_ratio += cond_var
        return np.exp(log_ratio, out=log_ratio)

    m, se_m, run = _simulate(block_fn, t, n_paths, n_steps, seed, workers, conditional)
    t = run["horizon_t"]  # as coerced to float
    se = se_m / (m * t) if m * t > 0.0 else math.inf
    if not math.isfinite(se):  # every path's (V_t/V_0)^theta rounds to 0, or nearly
        raise DomainExceeded(f"the mean of (V_t/V_0)^theta, {m!r}, leaves the float range")
    if se_m == 0.0 and alpha != 0.0 and not conditional:
        raise DegenerateVariance(
            "all simulated paths are identical; check the RNG configuration"
        )
    return SimEstimate(lambda_hat=math.log(m) / t, std_error=se, **run)


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

    block_fn = functools.partial(_laplace_three_halves_block, p, lambda_l)
    m, se_m, run = _simulate(block_fn, t, n_paths, n_steps, seed, workers, discretized=True)
    return LaplaceEstimate(mean=m, std_error=se_m, **run)
