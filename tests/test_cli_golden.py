"""Byte-for-byte CLI output on the acceptance-suite reference models.

The files under ``tests/golden/`` hold the output of ``curve --points 11``
(csv and json) and ``optimal`` (stdout JSON and stderr summary) for each
model kind, of the Monte Carlo check ``verify-mc`` for each kind on one and
two workers, of ``verify-ode`` for heston and vasicek and of
``transform-3-2`` for three_halves. Any change to the numbers or their
formatting fails here.
"""

from pathlib import Path

import pytest

from growthopt.cli import run
from support import REFERENCE_CONFIGS as CONFIGS

GOLDEN = Path(__file__).parent / "golden"

ALL = sorted(CONFIGS)
MC_RUN = ["--t", "1", "--steps", "20"]

# (file suffix, argv after --config, stream compared, kinds)
CASES = [
    ("curve.csv", ["curve", "--points", "11", "--format", "csv"], "out", ALL),
    ("curve.json", ["curve", "--points", "11", "--format", "json"], "out", ALL),
    ("optimal.json", ["optimal"], "out", ALL),
    ("optimal.stderr", ["optimal"], "err", ALL),
    ("verify-mc.json", ["verify-mc", *MC_RUN, "--paths", "20000"], "out", ALL),
    ("verify-mc-workers2.json",
     ["verify-mc", *MC_RUN, "--paths", "40000", "--workers", "2"], "out", ALL),
    ("verify-ode.json", ["verify-ode", "--t-end", "20", "--dt", "0.01"], "out",
     ["heston", "vasicek"]),
    ("transform-3-2.json", ["transform-3-2", *MC_RUN, "--paths", "20000"], "out",
     ["three_halves"]),
]

RUNS = [(kind, suffix, argv, stream)
        for suffix, argv, stream, kinds in CASES for kind in kinds]


@pytest.mark.parametrize("kind, suffix, argv, stream", RUNS,
                         ids=[f"{suffix}-{kind}" for kind, suffix, _, _ in RUNS])
def test_cli_output_matches_golden(tmp_path, capsys, kind, suffix, argv, stream):
    cfg = tmp_path / f"{kind}.cfg"
    cfg.write_text(CONFIGS[kind] + "utility.theta = 0.5\n")
    assert run([argv[0], "--config", str(cfg), *argv[1:]]) == 0
    captured = capsys.readouterr()
    produced = captured.out if stream == "out" else captured.err
    # text, not bytes, so that a failure prints a line diff; still an exact match
    assert produced == (GOLDEN / f"{kind}.{suffix}").read_bytes().decode("utf-8")
