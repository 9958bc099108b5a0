"""Count the growth-rate evaluations of ``allocate.numeric_argmax``.

    PYTHONPATH=src python3 tools/argmax_calls.py

Every ``growth_rate`` call that ``numeric_argmax`` makes is counted through
a wrapper: an array call adds its size to the array points, any other call
is one scalar call. Two groups of draws are run:

* the draws of the ``sweep`` benchmark at seeds 1-3, classed as the
  benchmark classes them (the kind, with the law for jump draws);
* the draws of acceptance 04: 1,000 per kind from ``tests/support.py`` at
  seed 104, classed the same way.

For each class the figures give the draws, the mean array points, and the
mean and worst scalar calls, printed as JSON. Point PYTHONPATH at another
checkout's ``src`` to count its maximizer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import growthopt as go
from growthopt import allocate

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
from draws import build, label, raw_pool  # noqa: E402  (perfbench/)
from support import DRAWERS, draw_utility  # noqa: E402  (tests/)
from workloads import DRAWS_PER_KIND  # noqa: E402


def calls(model, u):
    """(array points, scalar calls) of one ``numeric_argmax`` run."""
    count = [0, 0]
    rate = allocate.growth_rate

    def counted(model, u, alpha):
        if np.ndim(alpha):
            count[0] += np.size(alpha)
        else:
            count[1] += 1
        return rate(model, u, alpha)

    allocate.growth_rate = counted
    try:
        allocate.numeric_argmax(model, u)
    finally:
        allocate.growth_rate = rate
    return count


def tally(draws):
    """Per-class figures of ``(class, model, utility)`` draws."""
    classes = {}
    for name, model, u in draws:
        classes.setdefault(name, []).append(calls(model, u))
    out = {}
    for name, counts in sorted(classes.items()):
        scalar = [n for _, n in counts]
        out[name] = {
            "draws": len(counts),
            "array_points_mean": sum(p for p, _ in counts) / len(counts),
            "scalar_calls_mean": round(sum(scalar) / len(scalar), 3),
            "scalar_calls_worst": max(scalar),
        }
    return out


def sweep_draws():
    for seed in (1, 2, 3):
        for kind, pool in raw_pool(seed, DRAWS_PER_KIND).items():
            for theta, fields in pool:
                yield label(kind, fields), build(kind, fields), go.Utility(theta)


def acceptance_04_draws():
    for kind, draw in DRAWERS.items():
        rng = np.random.default_rng(104)
        for _ in range(1000):
            model, u = draw(rng), draw_utility(rng)
            name = kind
            if kind == "jump":
                name = "jump.exponential" if isinstance(model.jump, go.ExponentialJump) else "jump.constant"
            yield name, model, u


def main():
    out = {"sweep_seeds_1_3": tally(sweep_draws()), "acceptance_04": tally(acceptance_04_draws())}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
