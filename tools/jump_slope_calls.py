"""Count the slope evaluations of ``allocate.optimal_jump``'s search.

    PYTHONPATH=src python3 tools/jump_slope_calls.py [--draws N] [--alphas PATH]

Every call of ``allocate._jump_slope`` is counted through a wrapper. Three
groups of inputs are run:

* the constant law y = 5e-324 (mu 2, sigma 0.2, lambda_j 1, r 0.03) at
  theta 0.5 and 0.05, where the slope falls from about 1 at alpha = 0 to
  -4.5e161 at alpha = 1;
* N seeded jump draws (default 20,000) across the float range: theta and r
  as in ``tests/support.py``; mu - r, sigma and lambda_j log-uniform over
  [1e-8, 1e4], with mu - r negative one time in ten; a constant y
  log-uniform over [5e-324, 1e300] or an exponential rate over
  [1e-300, 1e300], half the draws each;
* the jump draws of the ``sweep`` benchmark at seeds 1-5, split into the
  interior decisions of seeds 1-3 and all 10,000 draws. ``--alphas`` writes
  their alpha* as JSON so that two checkouts can be compared bit for bit.

The figures print as JSON. Point PYTHONPATH at another checkout's ``src``
to count its search.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import growthopt as go
from growthopt import allocate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from draws import build, raw_pool  # noqa: E402  (perfbench/)
from workloads import DRAWS_PER_KIND  # noqa: E402

def calls(model, u):
    """(slope calls, decision) of one ``optimal_jump`` run; decision None on a typed error."""
    count = [0]
    slope = allocate._jump_slope

    def counted(*args):
        count[0] += 1
        return slope(*args)

    allocate._jump_slope = counted
    try:
        decision = allocate.optimal_jump(model, u)
    except go.GrowthOptError:
        decision = None
    finally:
        allocate._jump_slope = slope
    return count[0], decision


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def float_range_draw(rng):
    """One jump draw whose slope can span hundreds of orders of magnitude."""
    if rng.random() < 0.5:
        law = go.ConstantJump(y=_log_uniform(rng, 5e-324, 1e300))
    else:
        law = go.ExponentialJump(rate=_log_uniform(rng, 1e-300, 1e300))
    r = rng.uniform(-0.02, 0.08)
    premium = _log_uniform(rng, 1e-8, 1e4) * (1.0 if rng.random() < 0.9 else -1.0)
    model = go.JumpDiffusionParams(
        mu=r + premium,
        sigma=_log_uniform(rng, 1e-8, 1e4),
        lambda_j=_log_uniform(rng, 1e-8, 1e4),
        jump=law,
        r=r,
    )
    return model, go.Utility(theta=rng.uniform(0.05, 0.95))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--alphas", type=Path)
    args = parser.parse_args()

    creep = go.JumpDiffusionParams(mu=2.0, sigma=0.2, lambda_j=1.0, jump=go.ConstantJump(5e-324), r=0.03)
    out = {"y_5e-324": {str(t): calls(creep, go.Utility(t))[0] for t in (0.5, 0.05)}}

    rng = np.random.default_rng(args.seed)
    counts = [calls(*float_range_draw(rng)) for _ in range(args.draws)]
    searched = [n for n, d in counts if d is not None and d.case_label == allocate.CASE_INTERIOR]
    out["float_range"] = {
        "draws": args.draws,
        "interior": len(searched),
        "typed_errors": sum(d is None for _, d in counts),
        "worst_calls": max(n for n, _ in counts),
        "above_100": sum(n > 100 for n, _ in counts),
        "mean_interior_calls": sum(searched) / len(searched),
    }

    interior, alphas = [], []
    for seed in range(1, 6):
        for theta, fields in raw_pool(seed, DRAWS_PER_KIND)["jump"]:
            n, decision = calls(build("jump", fields), go.Utility(theta))
            alphas.append(decision.alpha_star.hex())
            if seed <= 3 and decision.case_label == allocate.CASE_INTERIOR:
                interior.append(n)
    out["sweep_seeds_1_3_interior"] = {"decisions": len(interior), "mean_calls": sum(interior) / len(interior)}
    if args.alphas:
        args.alphas.write_text(json.dumps(alphas))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
