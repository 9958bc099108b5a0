"""In-process A/B timing of the ``sweep`` benchmark op against a git rev.

    PYTHONPATH=src python3 tools/sweep_ab.py [--rev HEAD] [--seed 1] [--ops 2000] [--rounds 10]

The rev's ``src/`` is extracted with ``git archive`` into a temporary
directory and its package imported as ``growthopt_base``, beside this
checkout's ``growthopt``. Op i is the ``sweep`` benchmark's op i at the
seed, on the same draw (``perfbench/workloads.py``'s ``Sweep.draw``, which
reads ``draws.raw_pool``): the record built by ``draws.build``, then
``optimal_allocation``, a 101-point ``growth_curve``, ``numeric_argmax`` and
the two rate calls of the benchmark's check.

First every op runs once on each side, untimed, and the outputs are
compared: alpha*, the case label, the numeric argmax and the bytes of the
curve's alphas and lambdas. Then each round runs all ops on one side and
then on the other, the side that goes first alternating. A side's round
gives its ops per second and its median op time. The figures print as
JSON: each side's median over the rounds, and for the change/base ratio of
each figure its quartiles and the rounds in which the change did better.
The exit status is 1 when any output differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import types
from pathlib import Path

import growthopt as go

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import draws  # noqa: E402  (perfbench/)
from workloads import CURVE_POINTS, Sweep  # noqa: E402


def import_rev(rev, tmp):
    """Import ``src/growthopt`` of ``rev`` as the package ``growthopt_base``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/growthopt"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    pkg = Path(tmp) / "src" / "growthopt"
    spec = importlib.util.spec_from_file_location(
        "growthopt_base", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["growthopt_base"] = module
    spec.loader.exec_module(module)
    return module


def with_build(pkg):
    """(``pkg``, ``draws.build`` reading ``pkg`` in place of ``growthopt``)."""
    return pkg, types.FunctionType(draws.build.__code__, {**vars(draws), "go": pkg})


def sweep_op(pkg, build, kind, theta, fields):
    """The ``sweep`` op on one draw; returns the outputs that must not move."""
    model = build(kind, fields)
    u = pkg.Utility(theta)
    decision = pkg.optimal_allocation(model, u)
    curve = pkg.growth_curve(model, u, CURVE_POINTS)
    numeric = pkg.numeric_argmax(model, u)
    pkg.growth_rate(model, u, numeric)
    pkg.growth_rate(model, u, decision.alpha_star)
    return (decision.alpha_star, decision.case_label, numeric,
            curve.alphas.tobytes(), curve.lambdas.tobytes())


def timed_round(side, ops):
    """(ops per second, median op ms) of one pass over ``ops``."""
    times = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        sweep_op(*side, *op)
        times.append(time.perf_counter() - t0)
    return len(ops) / (time.perf_counter() - start), 1e3 * statistics.median(times)


def ratio_summary(ratios, better):
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(better(r) for r in ratios)
    return {"q1": q1, "median": median, "q3": q3, "wins": f"{wins}/{len(ratios)}"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git rev of the base side")
    parser.add_argument("--seed", type=int, default=1, help="raw_pool seed")
    parser.add_argument("--ops", type=int, default=2000, help="ops per round")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds per side")
    args = parser.parse_args()
    if args.ops < 1 or args.rounds < 2:
        parser.error("--ops must be >= 1 and --rounds >= 2, for the quartiles")

    sweep = Sweep(args.seed, workdir=None)
    ops = [sweep.draw(i) for i in range(args.ops)]

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": with_build(import_rev(args.rev, tmp)), "change": with_build(go)}
        mismatches = [
            i for i, op in enumerate(ops)
            if sweep_op(*sides["base"], *op) != sweep_op(*sides["change"], *op)
        ]
        figures = {"base": [], "change": []}
        for r in range(args.rounds):
            for name in ("base", "change") if r % 2 == 0 else ("change", "base"):
                figures[name].append(timed_round(sides[name], ops))

    report = {"rev": args.rev, "seed": args.seed, "ops": args.ops, "rounds": args.rounds,
              "identical": not mismatches, "mismatched_ops": mismatches[:20]}
    for name, rounds in figures.items():
        report[name] = {"ops_per_s": statistics.median(f[0] for f in rounds),
                        "op_p50_ms": statistics.median(f[1] for f in rounds)}
    pairs = list(zip(figures["base"], figures["change"]))
    report["change_over_base"] = {
        "ops_per_s": ratio_summary([c[0] / b[0] for b, c in pairs], lambda r: r > 1.0),
        "op_p50_ms": ratio_summary([c[1] / b[1] for b, c in pairs], lambda r: r < 1.0),
    }
    print(json.dumps(report, indent=2))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
