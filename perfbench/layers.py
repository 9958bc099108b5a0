"""Per-layer metrics, measured by calling each module's public functions.

Every traced run reports the same set, whatever the workload, so each
metric has one definition. Arguments come from the workloads: the sweep
draws of this seed, the reference configs and the oracle and cli sizes.
Counts (``*calls_per_op``, ``argmax_rate_calls``, ``dense_scan_share``)
come from the spans of a traced sample of sweep ops. ``README.md`` lists
the end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import growthopt as go
from growthopt import cli as go_cli

import workloads as wl
from draws import KINDS, build
from tracer import Tracer, module_of

SAMPLE_OPS = 200  # traced sweep ops, 40 draws of each kind
REPEATS = 5
RATE_ALPHAS = np.linspace(0.0, 1.0, 11).tolist()
DENSE_POINTS = 1000
SPECFUN_ARGS_MAX = 2000
RK4_STEPS = int(round(wl.ODE_T_END / wl.ODE_DT))
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import growthopt; print(time.perf_counter() - t)"
)
SPECFUN = (
    ("specfun.kummer_m_us", "specfun.kummer_m", go.kummer_m),
    ("specfun.uigs_us", "specfun.upper_incomplete_gamma_scaled", go.upper_incomplete_gamma_scaled),
    ("specfun.log_gamma_us", "specfun.log_gamma", go.log_gamma),
)


def _per_call(fn, calls, repeats=REPEATS):
    """Median over repeats of the mean seconds per call of ``fn(*args)``."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append((time.perf_counter() - started) / len(calls))
    return statistics.median(times)


def _median_seconds(fn, repeats=3):
    times = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def _thin(items, limit):
    step = max(1, math.ceil(len(items) / limit))
    return items[::step]


def _sweep_sample(seed):
    """Trace a sample of sweep ops; return counts and the specfun arguments."""
    sweep = wl.Sweep(seed, None)
    keep = [span_name for _, span_name, _ in SPECFUN]
    tracer = Tracer(keep_args=keep)
    with tracer:
        for i in range(SAMPLE_OPS):
            tracer.op = i
            sweep.op(i)
        tracer.op = -1
        # The only caller of kummer_m is the finite-horizon 3/2 transform,
        # reached by the oracle's and the cli transform's checks.
        model, u = wl.load_reference("three_halves")
        lambda_cli = 0.5 * 0.25 * (u.theta - u.theta * u.theta)
        for lambda_l in (wl.LAPLACE_LAMBDA, lambda_cli):
            go.laplace_three_halves_finite_t(model, lambda_l, 1.0)
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    sweep_spans = [s for s in spans if s[5] >= 0]

    def name_of(sid):
        return by_id[sid][1] if sid >= 0 else ""

    rate_calls = [s for s in sweep_spans if s[1] == "growth.growth_rate"]
    argmax = [s[0] for s in sweep_spans if s[1] == "allocate.numeric_argmax"]
    from_argmax = [s for s in rate_calls if name_of(s[4]) == "allocate.numeric_argmax"]
    dense = {s[4] for s in from_argmax if s[6] > DENSE_POINTS}
    specfun_entries = [
        s for s in sweep_spans
        if module_of(s[1]) == "specfun" and module_of(name_of(s[4])) != "specfun"
    ]
    args = {name: [s[7] for s in spans if s[1] == name] for name in keep}
    counts = {
        "specfun.calls_per_op": len(specfun_entries) / SAMPLE_OPS,
        "growth.rate_calls_per_op": len(rate_calls) / SAMPLE_OPS,
        "allocate.argmax_rate_calls": len(from_argmax) / len(argmax),
        "allocate.dense_scan_share": len(dense) / len(argmax),
    }
    return sweep, counts, args


def _closed_form_layers(seed):
    sweep, metrics, specfun_args = _sweep_sample(seed)
    sample = [sweep.draw(i) for i in range(SAMPLE_OPS)]
    models = [(kind, build(kind, fields), go.Utility(theta)) for kind, theta, fields in sample]

    metrics["params.construct_us"] = 1e6 * _per_call(build, [(k, f) for k, _, f in sample])
    for metric_name, span_name, fn in SPECFUN:
        calls = _thin(specfun_args[span_name], SPECFUN_ARGS_MAX)
        metrics[metric_name] = 1e6 * _per_call(fn, calls * max(1, SPECFUN_ARGS_MAX // len(calls)))

    for kind in KINDS:
        mine = [(m, u) for k, m, u in models if k == kind]
        scalar = [(m, u, a) for m, u in mine for a in RATE_ALPHAS]
        metrics[f"growth.rate_scalar_us.{kind}"] = 1e6 * _per_call(go.growth_rate, scalar)
        curves = [(m, u, wl.CURVE_POINTS) for m, u in mine]
        metrics[f"growth.curve_us.{kind}"] = 1e6 * _per_call(go.growth_curve, curves, 3)
        metrics[f"allocate.optimal_us.{kind}"] = 1e6 * _per_call(go.optimal_allocation, mine, 3)
        metrics[f"allocate.argmax_ms.{kind}"] = 1e3 * _per_call(go.numeric_argmax, mine, 1)
    return metrics


def _verify_layers():
    metrics = {}
    refs = {kind: wl.load_reference(kind) for kind in KINDS}
    se2_s = []

    def growth_estimate(name, workers):
        _, kind, alpha, t, steps = next(r for r in wl.MC_RUNS if r[0] == f"mc.{name}")
        model, u = refs[kind]
        seconds, est = _median_seconds(lambda: go.mc_growth_estimate(
            model, u, alpha, t, wl.MC_PATHS, steps, wl.MC_SEED, workers=workers))
        return seconds, est, wl.MC_PATHS * steps

    heston_w1 = None
    for name in ("heston", "three_halves", "vasicek"):
        seconds, est, path_steps = growth_estimate(name, 1)
        metrics[f"verify.mc_path_steps_per_s.{name}"] = path_steps / seconds
        se2_s.append(est.std_error ** 2 * seconds)
        if name == "heston":
            heston_w1 = seconds

    model, _ = refs["three_halves"]
    seconds, est = _median_seconds(lambda: go.mc_laplace_three_halves(
        model, wl.LAPLACE_LAMBDA, wl.LAPLACE_T, wl.MC_PATHS, wl.LAPLACE_STEPS, wl.MC_SEED,
        workers=1))
    metrics["verify.mc_path_steps_per_s.laplace_3_2"] = wl.MC_PATHS * wl.LAPLACE_STEPS / seconds
    se2_s.append(est.std_error ** 2 * seconds)

    for name in ("gbm", "jump"):
        seconds, est, _ = growth_estimate(name, 1)
        metrics[f"verify.mc_exact_ms.{name}"] = 1e3 * seconds
        se2_s.append(est.std_error ** 2 * seconds)
    metrics["verify.mc_se2_s"] = math.exp(sum(math.log(v) for v in se2_s) / len(se2_s))

    # Computed, not traced: one block's normals for a Heston step, over the
    # time of one Heston step of one block at workers=1.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(wl.MC_SEED)))
    rng_s = _per_call(rng.standard_normal, [((2, 16384),)] * 50)
    heston_steps = next(r[4] for r in wl.MC_RUNS if r[1] == "heston")
    step_s = heston_w1 / (heston_steps * (wl.MC_PATHS // 16384))
    metrics["verify.mc_rng_share"] = rng_s / step_s

    seconds_w2, _, _ = growth_estimate("heston", 2)
    metrics["verify.mc_scaling_2w"] = heston_w1 / seconds_w2

    for kind, integrate in (("heston", go.integrate_heston_riccati),
                            ("vasicek", go.integrate_vasicek_ode)):
        model, u = refs[kind]
        seconds, _ = _median_seconds(
            lambda: integrate(model, u, wl.ODE_ALPHA, wl.ODE_T_END, wl.ODE_DT))
        metrics[f"verify.rk4_steps_per_s.{kind}"] = RK4_STEPS / seconds
    return metrics


def _fresh_python(env, code):
    """Run ``python -c code`` in a fresh process; return (wall seconds, stdout)."""
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60,
    ).stdout
    return time.perf_counter() - started, out


def _cli_layers(workdir):
    env = wl.cli_env()
    metrics = {
        "cli.interp_s": statistics.median(
            _fresh_python(env, "pass")[0] for _ in range(REPEATS)
        ),
        "cli.import_s": statistics.median(
            float(_fresh_python(env, IMPORT_TIMER)[1]) for _ in range(REPEATS)
        ),
    }
    out = str(Path(workdir) / "cli-run.out")
    by_sub = {}
    for sub, _, argv in wl.CLI_COMMANDS:
        with contextlib.redirect_stderr(io.StringIO()):
            seconds, code = _median_seconds(lambda: go_cli.run(argv + ["--out", out]), 2)
        if code != 0:
            raise RuntimeError(f"in-process cli.run {argv} exited {code}")
        by_sub.setdefault(sub, []).append(seconds)
    for sub, times in by_sub.items():
        metrics[f"cli.run_ms.{sub}"] = 1e3 * statistics.median(times)
    texts = [(wl.CONFIG_DIR / f"{kind}.cfg").read_text(encoding="utf-8") for kind in KINDS]
    metrics["cli.parse_config_us"] = 1e6 * _per_call(go_cli.parse_config, [(t,) for t in texts] * 20)
    return metrics


def measure(seed, workdir):
    """Every per-layer metric, as ``{name: value}``."""
    metrics = _closed_form_layers(seed)
    metrics.update(_verify_layers())
    metrics.update(_cli_layers(workdir))
    return metrics
