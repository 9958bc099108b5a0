"""Command-line surface: growth curves, optimal allocations, verification.

Subcommands
-----------
curve          sample the growth rate on an alpha grid (CSV or JSON)
optimal        closed-form optimal allocation (JSON)
verify-ode     integrate the exponent ODE system and check its limits
verify-mc      Monte Carlo growth estimate against the closed form
transform-3-2  finite-horizon Laplace transform against Monte Carlo

Runs are described by a flat ``key = value`` config file with ``#``
comments and three sections: ``model.*``, ``utility.*`` and ``run.*``.
Unknown keys are hard errors. Command-line flags override ``run.*`` values
and are parsed by the same rules.

Exit codes: 0 success (and every check passed), 1 verification failure,
2 validation or usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

from . import growth, verify
from .allocate import optimal_allocation
from .errors import (
    DuplicateKey,
    DuplicateUtility,
    GrowthOptError,
    InvalidParameters,
    MissingKey,
    TypeMismatch,
    UnknownKey,
)
from .params import (
    _MODEL_CLASSES,
    Utility,
    kind_of,
    mapping_keys,
    theta_from_gamma,
    validate,
)

__all__ = ["RunConfig", "parse_config", "run", "main"]

DEFAULT_SEED = 0x5EED

# Additive tolerance on |lambda_hat - closed form| beyond 3 standard errors,
# covering the discretization bias of each scheme (GBM is sampled exactly).
MC_ALLOWANCE = {
    "gbm": 0.0,
    "heston": 2e-3,
    "three_halves": 2e-3,
    "vasicek": 2e-3,
    "jump": 1e-3,
}

# Horizons and step sizes are "finite float": a NaN or infinite one would
# reach integer step counts. ``alpha`` and the model keys are plain floats
# whose domain, non-finite values included, the library checks.
_RUN_KEYS = {
    "points": "int",
    "t": "finite float",
    "paths": "int",
    "steps": "int",
    "seed": "seed",
    "t_end": "finite float",
    "dt": "finite float",
    "alpha": "float",
    "out": "str",
    "format": "format",
    "workers": "int",
}


@dataclass
class RunConfig:
    """Validated model + utility plus any run.* options found in the config."""

    model: object
    utility: Utility
    options: dict


def _parse_scalar(key: str, text: str, kind: str):
    try:
        if kind == "float":
            return float(text)
        if kind == "finite float":
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("the value is not finite")
            return value
        if kind == "int":
            value = int(text, 10)
            return value
        if kind == "seed":
            value = int(text, 0)
            if not 0 <= value < 2**64:
                raise ValueError("seed outside the unsigned 64-bit range")
            return value
        if kind == "format":
            if text not in ("csv", "json"):
                raise ValueError("expected csv or json")
            return text
        return text
    except ValueError as exc:
        raise TypeMismatch(f"{key}: cannot parse {text!r} as {kind} ({exc})") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key = value configuration."""
    entries = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TypeMismatch(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise DuplicateKey(f"duplicate key {key!r} (line {lineno})")
        entries[key] = value

    model_raw, utility_raw, run_raw = {}, {}, {}
    for key, value in entries.items():
        if key.startswith("model."):
            model_raw[key[len("model."):]] = value
        elif key.startswith("utility."):
            utility_raw[key[len("utility."):]] = value
        elif key.startswith("run."):
            run_raw[key[len("run."):]] = value
        else:
            raise UnknownKey(
                f"unknown key {key!r}; expected a model., utility. or run. prefix"
            )

    kind = model_raw.pop("kind", None)
    if kind is None:
        raise MissingKey("missing key 'model.kind'")
    if kind not in _MODEL_CLASSES:
        known = ", ".join(sorted(_MODEL_CLASSES))
        raise TypeMismatch(f"model.kind: unknown model {kind!r}; expected one of: {known}")
    required, accepted = mapping_keys(kind)
    unknown = model_raw.keys() - accepted
    if unknown:
        raise UnknownKey(f"unknown key 'model.{min(unknown)}' for model kind {kind!r}")
    missing = required.keys() - model_raw.keys()
    if missing:
        raise MissingKey(f"missing key 'model.{min(missing)}' for model kind {kind!r}")
    mapping = {"kind": kind}
    for key, value in model_raw.items():
        mapping[key] = _parse_scalar(f"model.{key}", value, accepted[key])
    model = validate(mapping)

    unknown_u = set(utility_raw) - {"theta", "gamma_rra"}
    if unknown_u:
        raise UnknownKey(f"unknown key 'utility.{sorted(unknown_u)[0]}'")
    if "theta" in utility_raw and "gamma_rra" in utility_raw:
        raise DuplicateUtility(
            "config sets both utility.theta and utility.gamma_rra; use exactly one"
        )
    if "theta" in utility_raw:
        utility = Utility(_parse_scalar("utility.theta", utility_raw["theta"], "float"))
    elif "gamma_rra" in utility_raw:
        utility = theta_from_gamma(
            _parse_scalar("utility.gamma_rra", utility_raw["gamma_rra"], "float")
        )
    else:
        raise MissingKey("missing key: one of utility.theta or utility.gamma_rra")

    options = {}
    for key, value in run_raw.items():
        if key not in _RUN_KEYS:
            raise UnknownKey(f"unknown key 'run.{key}'")
        options[key] = _parse_scalar(f"run.{key}", value, _RUN_KEYS[key])
    return RunConfig(model=model, utility=utility, options=options)


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _opt(args, cfg: RunConfig, name: str, default):
    """Flag value if given, else run.* config value, else default.

    A flag is parsed by the rules of the ``run.*`` key it mirrors.
    """
    text = getattr(args, name, None)
    if text is not None:
        return _parse_scalar(f"--{name.replace('_', '-')}", text, _RUN_KEYS[name])
    return cfg.options.get(name, default)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _cmd_curve(args, cfg: RunConfig) -> int:
    points = _opt(args, cfg, "points", 101)
    curve = growth.growth_curve(cfg.model, cfg.utility, points)
    fmt = _opt(args, cfg, "format", "csv")
    out = _opt(args, cfg, "out", None)
    if fmt == "json":
        payload = {
            "alpha": [float(a) for a in curve.alphas],
            "lambda": [float(v) for v in curve.lambdas],
        }
        _emit(json.dumps(payload, indent=2) + "\n", out)
    else:
        rows = ["alpha,lambda"]
        rows += [f"{_fmt17(a)},{_fmt17(v)}" for a, v in curve.samples]
        _emit("\n".join(rows) + "\n", out)
    return 0


def _cmd_optimal(args, cfg: RunConfig) -> int:
    decision = optimal_allocation(cfg.model, cfg.utility)
    _emit(json.dumps(asdict(decision), indent=2) + "\n", _opt(args, cfg, "out", None))
    dagger = "none" if decision.alpha_dagger is None else f"{decision.alpha_dagger:.6g}"
    print(
        f"alpha_star={decision.alpha_star:.6g} case={decision.case_label} "
        f"lambda={decision.lambda_at_star:.6g} alpha_dagger={dagger}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify_ode(args, cfg: RunConfig) -> int:
    alpha = _opt(args, cfg, "alpha", 0.5)
    t_end = _opt(args, cfg, "t_end", 100.0)
    dt = _opt(args, cfg, "dt", 1e-3)
    integrate = {
        "heston": verify.integrate_heston_riccati,
        "vasicek": verify.integrate_vasicek_ode,
    }.get(kind_of(cfg.model))
    if integrate is None:
        raise InvalidParameters(["verify-ode supports only heston and vasicek models"])
    trace = integrate(cfg.model, cfg.utility, alpha, t_end, dt)
    if args.trace_out:
        rows = ["t,A,B"]
        rows += [
            f"{_fmt17(t)},{_fmt17(a)},{_fmt17(b)}"
            for t, a, b in zip(trace.times, trace.a_values, trace.b_values)
        ]
        _emit("\n".join(rows) + "\n", args.trace_out)
    b_gap = abs(float(trace.b_values[-1]) - trace.b_limit_closed_form)
    a_slope_gap = abs(float(trace.a_values[-1]) / t_end - trace.a_slope_closed_form)
    passed = b_gap <= 1e-8 and a_slope_gap <= 1e-3
    payload = {"b_gap": b_gap, "a_slope_gap": a_slope_gap, "pass": passed}
    _emit(json.dumps(payload, indent=2) + "\n", _opt(args, cfg, "out", None))
    return 0 if passed else 1


def _z_score(gap: float, se: float) -> float:
    if se > 0.0:
        return gap / se
    return 0.0 if abs(gap) <= 1e-12 else math.inf


def _cmd_verify_mc(args, cfg: RunConfig) -> int:
    alpha = _opt(args, cfg, "alpha", 0.5)
    t = _opt(args, cfg, "t", 10.0)
    paths = _opt(args, cfg, "paths", 100_000)
    steps = _opt(args, cfg, "steps", max(1, round(100 * t)))
    seed = _opt(args, cfg, "seed", DEFAULT_SEED)
    workers = _opt(args, cfg, "workers", 1)
    est = verify.mc_growth_estimate(
        cfg.model, cfg.utility, alpha, t, paths, steps, seed, workers=workers
    )
    closed = float(growth.growth_rate(cfg.model, cfg.utility, alpha))
    allowance = MC_ALLOWANCE[kind_of(cfg.model)]
    gap = est.lambda_hat - closed
    passed = abs(gap) <= 3.0 * est.std_error + allowance
    payload = {
        "lambda_hat": est.lambda_hat,
        "std_error": est.std_error,
        "lambda_closed_form": closed,
        "z_score": _z_score(gap, est.std_error),
        "allowance": allowance,
        "pass": passed,
    }
    _emit(json.dumps(payload, indent=2) + "\n", _opt(args, cfg, "out", None))
    return 0 if passed else 1


def _cmd_transform(args, cfg: RunConfig) -> int:
    if kind_of(cfg.model) != "three_halves":
        raise InvalidParameters(["transform-3-2 requires a three_halves model"])
    alpha = growth._clamp_alpha(_opt(args, cfg, "alpha", 0.5))
    t = _opt(args, cfg, "t", 1.0)
    paths = _opt(args, cfg, "paths", 100_000)
    steps = _opt(args, cfg, "steps", max(1, round(100 * t)))
    seed = _opt(args, cfg, "seed", DEFAULT_SEED)
    workers = _opt(args, cfg, "workers", 1)
    theta = cfg.utility.theta
    lambda_l = 0.5 * alpha * alpha * (theta - theta * theta)
    closed = growth.laplace_three_halves_finite_t(cfg.model, lambda_l, t)
    est = verify.mc_laplace_three_halves(
        cfg.model, lambda_l, t, paths, steps, seed, workers=workers
    )
    passed = abs(closed - est.mean) <= 3.0 * est.std_error
    payload = {
        "closed_form": closed,
        "mc_mean": est.mean,
        "mc_se": est.std_error,
        "pass": passed,
    }
    _emit(json.dumps(payload, indent=2) + "\n", _opt(args, cfg, "out", None))
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthopt",
        description="Long-horizon growth rates and optimal static allocations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", help="output path (default: stdout)")

    p_curve = sub.add_parser("curve", help="sample the growth rate over [0, 1]")
    common(p_curve)
    p_curve.add_argument("--points", help="grid size (default 101)")
    p_curve.add_argument("--format", choices=("csv", "json"))

    p_opt = sub.add_parser("optimal", help="closed-form optimal allocation")
    common(p_opt)

    p_ode = sub.add_parser("verify-ode", help="check the exponent ODE limits")
    common(p_ode)
    for flag in ("--alpha", "--t-end", "--dt"):
        p_ode.add_argument(flag)
    p_ode.add_argument("--trace-out", help="optional CSV path for the (t, A, B) trace")

    for name, text in (("verify-mc", "Monte Carlo check of the growth rate"),
                       ("transform-3-2", "check the finite-horizon transform")):
        p_sim = sub.add_parser(name, help=text)
        common(p_sim)
        for flag in ("--alpha", "--t", "--paths", "--steps", "--workers", "--seed"):
            p_sim.add_argument(flag)

    return parser


_COMMANDS = {
    "curve": _cmd_curve,
    "optimal": _cmd_optimal,
    "verify-ode": _cmd_verify_ode,
    "verify-mc": _cmd_verify_mc,
    "transform-3-2": _cmd_transform,
}


def run(argv) -> int:
    """Execute the CLI; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except GrowthOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
