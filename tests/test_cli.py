import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from growthopt import (
    DuplicateKey,
    DuplicateUtility,
    MissingKey,
    TypeMismatch,
    UnknownKey,
)
from growthopt.cli import parse_config, run
from reference import variance_argmax, variance_rate
from support import REFERENCE_CONFIGS

GBM_FLAT = (
    "model.kind = gbm\n"
    "model.mu = 0.08\n"
    "model.sigma = 0.2\n"
    "model.r = 0.03\n"
    "utility.theta = 0.5\n"
)

HESTON_CFG = """\
# reference stochastic-volatility setup
model.kind = heston
model.mu = 0.08
model.kappa = 2.0
model.gamma_level = 0.04
model.delta = 0.3
model.rho = -0.5
model.r = 0.03
model.nu0 = 0.04
utility.theta = 0.5
run.seed = 0x5EED
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_gbm():
    cfg = parse_config(GBM_FLAT)
    assert cfg.model.sigma == 0.2
    assert cfg.utility.theta == 0.5
    assert cfg.options == {}


def test_parse_gamma_rra_alternative():
    cfg = parse_config(GBM_FLAT.replace("utility.theta = 0.5", "utility.gamma_rra = 0.2"))
    assert cfg.utility.theta == pytest.approx(0.8, abs=0)


def test_parse_duplicate_utility():
    with pytest.raises(DuplicateUtility):
        parse_config(GBM_FLAT + "utility.gamma_rra = 0.5\n")


def test_parse_missing_model_key():
    broken = HESTON_CFG.replace("model.nu0 = 0.04\n", "")
    with pytest.raises(MissingKey, match="model.nu0"):
        parse_config(broken)


def test_parse_unknown_and_duplicate_keys():
    with pytest.raises(UnknownKey, match="model.q"):
        parse_config(GBM_FLAT + "model.q = 0.01\n")
    with pytest.raises(UnknownKey, match="run.fast"):
        parse_config(GBM_FLAT + "run.fast = yes\n")
    with pytest.raises(UnknownKey, match="prefix"):
        parse_config(GBM_FLAT + "misc = 1\n")
    with pytest.raises(DuplicateKey):
        parse_config(GBM_FLAT + "model.mu = 0.09\n")


def test_parse_type_mismatches():
    with pytest.raises(TypeMismatch):
        parse_config(GBM_FLAT.replace("0.2", "fast"))
    with pytest.raises(TypeMismatch):
        parse_config(GBM_FLAT + "run.paths = 12.5\n")
    with pytest.raises(TypeMismatch):
        parse_config(GBM_FLAT + "run.format = yaml\n")
    with pytest.raises(TypeMismatch, match="key = value"):
        parse_config(GBM_FLAT + "just a line\n")


def test_parse_missing_utility():
    with pytest.raises(MissingKey, match="utility"):
        parse_config(GBM_FLAT.replace("utility.theta = 0.5\n", ""))


def test_optimal_bond_only_json(tmp_path, capsys):
    cfg = write(tmp_path, "m.cfg", GBM_FLAT.replace("model.mu = 0.08", "model.mu = 0.03"))
    out = tmp_path / "decision.json"
    assert run(["optimal", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["alpha_star"] == 0.0
    assert payload["case_label"] == "BondOnly"
    assert payload["alpha_dagger"] is None
    assert "alpha_star=0" in capsys.readouterr().err


def test_optimal_json_roundtrip_bitwise(tmp_path):
    cfg = write(tmp_path, "m.cfg", GBM_FLAT.replace("model.mu = 0.08", "model.mu = 0.05"))
    out = tmp_path / "d.json"
    assert run(["optimal", "--config", cfg, "--out", str(out)]) == 0
    first = json.loads(out.read_text())
    assert run(["optimal", "--config", cfg, "--out", str(out)]) == 0
    second = json.loads(out.read_text())
    assert first == second
    from growthopt import GbmParams, Utility, optimal_gbm

    decision = optimal_gbm(GbmParams(mu=0.05, sigma=0.2, r=0.03), Utility(0.5))
    assert first["alpha_star"] == decision.alpha_star
    assert first["lambda_at_star"] == decision.lambda_at_star


def test_curve_csv(tmp_path):
    cfg = write(tmp_path, "h.cfg", HESTON_CFG)
    out = tmp_path / "curve.csv"
    assert run(["curve", "--config", cfg, "--points", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,lambda"
    alphas = [float(row.split(",")[0]) for row in lines[1:]]
    assert alphas == [0.0, 0.5, 1.0]
    assert float(lines[1].split(",")[1]) == 0.5 * 0.03
    assert "," in lines[2] and "e" not in lines[0]


def test_curve_json_and_points_from_config(tmp_path):
    cfg = write(tmp_path, "h.cfg", HESTON_CFG + "run.points = 5\nrun.format = json\n")
    out = tmp_path / "curve.json"
    assert run(["curve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["alpha"]) == 5
    assert payload["alpha"][0] == 0.0 and payload["alpha"][-1] == 1.0


def test_curve_consistency_with_optimal(tmp_path):
    cfg = write(tmp_path, "h.cfg", HESTON_CFG)
    curve_out = tmp_path / "c.csv"
    opt_out = tmp_path / "o.json"
    assert run(["curve", "--config", cfg, "--points", "201", "--out", str(curve_out)]) == 0
    assert run(["optimal", "--config", cfg, "--out", str(opt_out)]) == 0
    rows = [line.split(",") for line in curve_out.read_text().strip().splitlines()[1:]]
    lambdas = np.array([float(v) for _, v in rows])
    decision = json.loads(opt_out.read_text())
    spacing = 1.0 / 200.0
    lipschitz = np.max(np.abs(np.diff(lambdas))) / spacing
    assert np.max(lambdas) <= decision["lambda_at_star"] + lipschitz * spacing


def test_verify_ode_pass_and_trace(tmp_path):
    cfg = write(tmp_path, "h.cfg", HESTON_CFG)
    out = tmp_path / "verdict.json"
    trace = tmp_path / "trace.csv"
    code = run([
        "verify-ode", "--config", cfg, "--t-end", "50", "--dt", "0.01",
        "--out", str(out), "--trace-out", str(trace),
    ])
    assert code == 0
    verdict = json.loads(out.read_text())
    assert verdict["pass"] is True
    assert verdict["b_gap"] <= 1e-8
    header, first = trace.read_text().splitlines()[:2]
    assert header == "t,A,B"
    assert first.startswith("0,0,")


def test_verify_ode_vasicek(tmp_path):
    cfg = write(
        tmp_path,
        "v.cfg",
        "model.kind = vasicek\nmodel.mu = 0.08\nmodel.sigma = 0.2\n"
        "model.kappa = 2.0\nmodel.gamma_level = 0.03\nmodel.delta = 0.01\n"
        "model.rho = -0.3\nmodel.r0 = 0.03\nutility.theta = 0.5\n",
    )
    out = tmp_path / "v.json"
    assert run(["verify-ode", "--config", cfg, "--t-end", "50", "--dt", "0.005",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True


def test_verify_ode_wrong_model(tmp_path):
    cfg = write(tmp_path, "g.cfg", GBM_FLAT)
    assert run(["verify-ode", "--config", cfg]) == 2


def test_verify_mc_pass(tmp_path):
    cfg = write(tmp_path, "g.cfg", GBM_FLAT)
    out = tmp_path / "mc.json"
    code = run([
        "verify-mc", "--config", cfg, "--t", "10", "--paths", "20000",
        "--steps", "1", "--alpha", "1.0", "--seed", "7", "--out", str(out),
    ])
    payload = json.loads(out.read_text())
    assert code == 0
    assert payload["pass"] is True
    assert payload["allowance"] == 0.0
    assert abs(payload["z_score"]) < 4.0
    assert payload["lambda_closed_form"] == pytest.approx(0.035, abs=1e-15)


def test_transform_pass(tmp_path):
    cfg = write(
        tmp_path,
        "t.cfg",
        "model.kind = three_halves\nmodel.mu = 0.08\nmodel.kappa = 2.0\n"
        "model.gamma_level = 0.04\nmodel.delta = 0.5\nmodel.r = 0.03\n"
        "model.nu0 = 0.04\nutility.theta = 0.5\n",
    )
    out = tmp_path / "tr.json"
    code = run([
        "transform-3-2", "--config", cfg, "--paths", "20000", "--steps", "400",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert abs(payload["closed_form"] - payload["mc_mean"]) <= 3 * payload["mc_se"]


def test_transform_requires_three_halves(tmp_path):
    cfg = write(tmp_path, "g.cfg", GBM_FLAT)
    assert run(["transform-3-2", "--config", cfg]) == 2


def test_exit_codes(tmp_path):
    bad_cfg = write(tmp_path, "bad.cfg", GBM_FLAT + "model.extra = 1\n")
    assert run(["optimal", "--config", bad_cfg]) == 2
    feller = write(
        tmp_path, "feller.cfg",
        HESTON_CFG.replace("model.kappa = 2.0", "model.kappa = 0.1"),
    )
    assert run(["optimal", "--config", feller]) == 2
    assert run(["optimal", "--config", str(tmp_path / "missing.cfg")]) == 3
    good = write(tmp_path, "good.cfg", GBM_FLAT)
    assert run(["optimal", "--config", good, "--out", str(tmp_path / "no" / "dir.json")]) == 3
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "h.cfg", HESTON_CFG + "run.points = 5\n")
    out = tmp_path / "c.csv"
    assert run(["curve", "--config", cfg, "--points", "3", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 4  # header + 3 rows


THREE_HALVES_FLAT = (
    "model.kind = three_halves\nmodel.mu = 0.08\nmodel.kappa = 2.0\n"
    "model.gamma_level = 0.04\nmodel.delta = 0.5\nmodel.r = 0.03\n"
    "model.nu0 = 0.04\nutility.theta = 0.5\n"
)


@pytest.mark.parametrize("command", ["verify-mc", "transform-3-2"])
@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"),
    ("--seed", "0x1ffffffffffffffff"),
    ("--paths", "12.5"),
])
def test_flags_follow_run_key_rules(tmp_path, capsys, command, flag, value):
    cfg = write(tmp_path, "t.cfg", THREE_HALVES_FLAT)
    argv = [command, "--config", cfg, "--t", "1", "--paths", "100", "--steps", "10"]
    assert run(argv + [flag, value]) == 2
    assert f"error: {flag}: cannot parse {value!r}" in capsys.readouterr().err


def test_verify_mc_rejects_nan_alpha(tmp_path, capsys):
    cfg = write(tmp_path, "g.cfg", GBM_FLAT)
    argv = ["verify-mc", "--config", cfg, "--paths", "100", "--steps", "1", "--alpha", "nan"]
    assert run(argv) == 2
    assert "alpha must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("verify-mc", "t", "nan"),
    ("verify-mc", "t", "inf"),
    ("verify-ode", "t_end", "nan"),
    ("verify-ode", "dt", "nan"),
    ("transform-3-2", "t", "nan"),
    ("transform-3-2", "alpha", "nan"),
])
@pytest.mark.parametrize("source", ["flag", "run_key"])
def test_non_finite_run_values_exit_2(tmp_path, capsys, command, key, value, source):
    base = HESTON_CFG if command == "verify-ode" else THREE_HALVES_FLAT
    argv = [command]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", value]
    else:
        base += f"run.{key} = {value}\n"
    if command != "verify-ode":
        argv += ["--paths", "100", "--steps", "1000"]
    argv += ["--config", write(tmp_path, "c.cfg", base)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Kummer" not in err


@pytest.mark.parametrize("command, change", [
    ("optimal", ("model.kappa = 2.0", "model.kappa = 1e52")),
    ("optimal", ("model.delta = 0.3", "model.delta = 1e-60")),
    ("verify-mc", ("model.kappa = 2.0\nmodel.gamma_level = 0.04",
                   "model.kappa = 1e308\nmodel.gamma_level = 10.0")),
], ids=["optimal-kappa", "optimal-delta", "verify-mc-nan-variance"])
def test_heston_out_of_float_range_exits_2(tmp_path, capsys, command, change):
    text = HESTON_CFG.replace(*change)
    argv = [command, "--config", write(tmp_path, "h.cfg", text)]
    if command == "optimal":
        # the closed forms stay exact where the Heston coefficient bundle does not
        assert run(argv) == 0
        decision = json.loads(capsys.readouterr().out)
        cfg = parse_config(text)
        assert decision["alpha_star"] == variance_argmax(cfg.model, cfg.utility)
        assert decision["lambda_at_star"] == pytest.approx(
            variance_rate(cfg.model, cfg.utility, decision["alpha_star"]), rel=1e-14)
        return
    argv += ["--t", "1", "--paths", "100", "--steps", "10"]
    assert run(argv) == 2
    assert "error: " in capsys.readouterr().err


OVERFLOW = ("model.kappa = 2.0\nmodel.gamma_level = 0.04",
            "model.kappa = 1e308\nmodel.gamma_level = 10.0")


@pytest.mark.parametrize("base, argv, message", [
    (HESTON_CFG, ["verify-mc", "--t", "1", "--paths", "100", "--steps", "10"],
     "error: path 0 produced a non-finite value (seed=24301)\n"),
    # two blocks on two threads: numpy's error state is per thread
    (HESTON_CFG, ["verify-mc", "--t", "1", "--paths", "20000", "--steps", "10",
                  "--workers", "2"],
     "error: path 0 produced a non-finite value (seed=24301)\n"),
    (THREE_HALVES_FLAT, ["curve", "--points", "11"],
     "error: three_halves growth rate is not finite: "
     "the parameters overflow the float range\n"),
], ids=["verify-mc-heston", "verify-mc-heston-workers2", "curve-three-halves"])
def test_overflowing_model_prints_only_the_error_line(tmp_path, base, argv, message):
    # A fresh process, because pytest would capture numpy's RuntimeWarnings.
    cfg = write(tmp_path, "o.cfg", base.replace(*OVERFLOW))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "growthopt.cli", argv[0], "--config", cfg, *argv[1:]],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


VASICEK_FLAT = (
    "model.kind = vasicek\nmodel.mu = 0.08\nmodel.sigma = 0.2\n"
    "model.kappa = 2.0\nmodel.gamma_level = 0.03\nmodel.delta = 0.01\n"
    "model.rho = -0.3\nmodel.r0 = 0.03\nutility.theta = 0.5\n"
)

JUMP_FLAT = REFERENCE_CONFIGS["jump"] + "utility.theta = 0.5\n"
MC_SMALL = ["verify-mc", "--t", "1", "--paths", "100", "--steps", "10"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("base, change, argv, message", [
    (HESTON_CFG, ("model.kappa = 2.0", "model.kappa = 1e200"), ["verify-ode"],
     "Heston ODE values leave the float range at kappa=1e+200, gamma_level=0.04, delta=0.3"),
    (HESTON_CFG, ("model.delta = 0.3", "model.delta = 1e-200"), ["verify-ode"],
     "Heston ODE values leave the float range at kappa=2.0, gamma_level=0.04, delta=1e-200"),
    (VASICEK_FLAT, ("model.kappa = 2.0", "model.kappa = 1e300"), ["verify-ode"],
     "Vasicek ODE values leave the float range at kappa=1e+300, gamma_level=0.03, "
     "delta=0.01, sigma=0.2"),
    (VASICEK_FLAT, ("model.delta = 0.01", "model.delta = 1e300"), ["verify-ode"],
     "Vasicek ODE values leave the float range at kappa=2.0, gamma_level=0.03, "
     "delta=1e+300, sigma=0.2"),
    (VASICEK_FLAT, ("model.kappa = 2.0", "model.kappa = 1e-300"), ["verify-ode"],
     "Vasicek ODE values leave the float range at kappa=1e-300, gamma_level=0.03, "
     "delta=0.01, sigma=0.2"),
    (THREE_HALVES_FLAT, OVERFLOW, ["optimal"],
     "3/2 coefficients leave the float range at kappa=1e+308, gamma_level=10.0, delta=0.5"),
    (THREE_HALVES_FLAT, OVERFLOW, ["transform-3-2", "--paths", "100", "--steps", "100"],
     "3/2 coefficients leave the float range at kappa=1e+308, gamma_level=10.0, delta=0.5"),
    (HESTON_CFG, ("model.delta = 0.3", "model.delta = 1e200"), ["optimal"],
     "Feller condition violated: 2*kappa*gamma_level = 0.16 <= delta**2 = inf"),
    (HESTON_CFG, ("", ""), ["verify-ode", "--t-end", "1", "--dt", "1e-300"],  # config as is
     "t_end/dt = 1e+300 exceeds the limit of 10,000,000 RK4 steps"),
    (THREE_HALVES_FLAT, ("model.kappa = 2.0\nmodel.gamma_level = 0.04",
                         "model.kappa = 1e-200\nmodel.gamma_level = 1e-200"),
     ["transform-3-2", "--paths", "100", "--steps", "100"],
     "3/2 transform constants at t=1.0 leave the float range at kappa=1e-200, "
     "gamma_level=1e-200, delta=0.5, nu0=0.04"),
    (GBM_FLAT, ("model.sigma = 0.2", "model.sigma = 1e-200"), ["optimal"],
     "GBM coefficients leave the float range at mu=0.08, sigma=1e-200, r=0.03"),
    (VASICEK_FLAT, ("model.kappa = 2.0", "model.kappa = 1e-200"), ["optimal"],
     "Vasicek coefficients leave the float range at kappa=1e-200"),
    (GBM_FLAT, ("model.sigma = 0.2", "model.sigma = 1e200"), MC_SMALL,
     "lognormal drift terms leave the float range at sigma=1e+200"),
    (JUMP_FLAT, ("model.sigma = 0.2", "model.sigma = 1e200"), MC_SMALL,
     "lognormal drift terms leave the float range at sigma=1e+200"),
    (JUMP_FLAT, ("model.lambda_j = 1.0", "model.lambda_j = 1e19"), MC_SMALL,
     "lambda_j*t = 1e+19 exceeds numpy's Poisson limit"),
    (JUMP_FLAT, ("model.lambda_j = 1.0", "model.lambda_j = 1e6"), MC_SMALL,
     "1e+08 expected jumps in 100 paths exceed 10,000,000"),
], ids=["ode-heston-kappa", "ode-heston-delta", "ode-vasicek-kappa", "ode-vasicek-delta",
        "ode-vasicek-small-kappa", "optimal-three-halves", "transform-three-halves",
        "optimal-heston-feller-overflow", "ode-step-cap", "transform-three-halves-underflow",
        "optimal-gbm-sigma-squared-underflow", "optimal-vasicek-kappa-squared-underflow",
        "verify-mc-gbm-sigma-squared-overflow", "verify-mc-jump-sigma-squared-overflow",
        "verify-mc-jump-poisson-limit", "verify-mc-jump-event-limit"])
def test_out_of_float_range_exits_2_naming_parameters(tmp_path, capsys, base, change, argv,
                                                       message):
    cfg = write(tmp_path, "f.cfg", base.replace(*change))
    assert run([argv[0], "--config", cfg, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("paths", ["1", "2"])
@pytest.mark.parametrize("base, command", [(GBM_FLAT, "verify-mc"),
                                           (THREE_HALVES_FLAT, "transform-3-2")],
                         ids=["verify-mc", "transform-3-2"])
def test_fewer_than_two_path_units_exit_2(tmp_path, capsys, base, command, paths):
    # one path, or one antithetic pair, leaves no spread to take an error from
    cfg = write(tmp_path, "u.cfg", base)
    assert run([command, "--config", cfg, "--t", "1", "--paths", paths, "--steps", "10"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: a standard error needs at least two independent path "
                              f"units (antithetic pairs or lone paths), got n_paths={paths}\n")


@pytest.mark.parametrize("base, command", [(HESTON_CFG, "verify-mc"),
                                           (THREE_HALVES_FLAT, "transform-3-2")],
                         ids=["verify-mc", "transform-3-2"])
def test_time_stepped_runs_need_ten_steps_per_unit_time(tmp_path, capsys, base, command):
    cfg = write(tmp_path, "s.cfg", base)
    assert run([command, "--config", cfg, "--t", "10", "--paths", "100", "--steps", "5"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: discretized models need n_steps >= 10*t, "
                              "got 5 for t=10.0\n")


def test_default_seed_reproducible(tmp_path):
    cfg = write(tmp_path, "g.cfg", GBM_FLAT)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify-mc", "--config", cfg, "--t", "5", "--paths", "5000", "--steps", "1"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.filterwarnings("error")
def test_verify_mc_vasicek_sigma_overflow_exits_2_naming_sigma(tmp_path, capsys):
    cfg = write(tmp_path, "v.cfg", VASICEK_FLAT.replace("model.sigma = 0.2", "model.sigma = 1e200"))
    assert run([MC_SMALL[0], "--config", cfg, *MC_SMALL[1:]]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: stock variance terms leave the float range at sigma=1e+200\n")
