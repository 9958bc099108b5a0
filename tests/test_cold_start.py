"""scipy stays out of every path the CLI reaches.

Only a user-supplied jump density needs quadrature, so ``scipy`` must not be
imported by the package, by the CLI module, or by any subcommand on the
reference configs. Each check runs in a fresh interpreter, because the test
process itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from support import REFERENCE_CONFIGS

SRC = Path(__file__).resolve().parent.parent / "src"

# Its optimum is Interior, so optimal_jump searches the exponential slope for its root.
EXPONENTIAL_INTERIOR = (
    "model.kind = jump\nmodel.mu = 0.05\nmodel.sigma = 0.3\n"
    "model.lambda_j = 0.5\nmodel.jump_kind = exponential\n"
    "model.jump_rate = 1.0\nmodel.r = 0.03\n"
)

# Prints, after each stage, the scipy modules loaded so far.
PROBE = r"""
import contextlib, io, json, math, sys

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {}
import growthopt
stages["import growthopt"] = loaded()
from growthopt import cli
stages["import growthopt.cli"] = loaded()
mc = ["--t", "1", "--paths", "2000", "--steps", "20"]
commands = [
    ["curve", "--points", "11"], ["optimal"], ["verify-ode", "--t-end", "20", "--dt", "0.01"],
    ["verify-mc", *mc], ["transform-3-2", *mc],
]
codes = {}
for cfg in sys.argv[1:-1]:
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes[f"{argv[0]} {cfg}"] = cli.run([argv[0], "--config", cfg, *argv[1:]])
stages["every subcommand"] = loaded()
with contextlib.redirect_stdout(io.StringIO()) as out, \
        contextlib.redirect_stderr(io.StringIO()):
    codes["optimal interior"] = cli.run(["optimal", "--config", sys.argv[-1]])
case = json.loads(out.getvalue())["case_label"]
stages["optimal, exponential jump"] = loaded()
growthopt.DensityJump(density=lambda y: math.exp(-y) / (1.0 - math.exp(-40.0)), bound=40.0)
stages["DensityJump"] = loaded()
print(json.dumps({"stages": stages, "codes": codes, "case": case}))
"""


def test_scipy_is_imported_only_for_density_laws(tmp_path):
    configs = []
    for kind, text in sorted(REFERENCE_CONFIGS.items()):
        path = tmp_path / f"{kind}.cfg"
        path.write_text(text + "utility.theta = 0.5\n")
        configs.append(str(path))
    interior = tmp_path / "interior.cfg"
    interior.write_text(EXPONENTIAL_INTERIOR + "utility.theta = 0.5\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *configs, str(interior)],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout)
    stages = report["stages"]
    assert report["case"] == "Interior"
    # Every subcommand ran: each kind's own commands pass, verify-ode and
    # transform-3-2 reject the kinds they do not cover.
    assert set(report["codes"].values()) <= {0, 2}
    assert sum(code == 0 for code in report["codes"].values()) == 5 * 3 + 2 + 1 + 1
    for stage in ("import growthopt", "import growthopt.cli", "every subcommand",
                  "optimal, exponential jump"):
        assert stages[stage] == [], stage
    assert "scipy.integrate" in stages["DensityJump"]
