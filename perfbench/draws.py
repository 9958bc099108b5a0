"""Seeded parameter draws for the sweep workload.

The ranges are those of ``tests/support.py``, copied here rather than
imported so that a change to the test helpers cannot silently change the
benchmark's inputs. Jump laws alternate exponential / constant, so exactly
half the jump draws use each law.
"""

from __future__ import annotations

import numpy as np

import growthopt as go

KINDS = ("gbm", "heston", "three_halves", "jump", "vasicek")


def _u(rng, lo, hi, n):
    return rng.uniform(lo, hi, n).tolist()


def _raw_gbm(rng, n):
    return list(zip(_u(rng, -0.05, 0.15, n), _u(rng, 0.05, 0.6, n), _u(rng, -0.02, 0.08, n)))


def _raw_heston(rng, n):
    kappa = rng.uniform(0.5, 3.0, n)
    gamma_level = rng.uniform(0.01, 0.3, n)
    # delta as a fraction of the Feller bound keeps 2*kappa*gamma > delta^2.
    delta = rng.uniform(0.15, 0.9, n) * np.sqrt(2.0 * kappa * gamma_level)
    return list(zip(
        _u(rng, -0.05, 0.15, n), kappa.tolist(), gamma_level.tolist(), delta.tolist(),
        _u(rng, -0.9, 0.9, n), _u(rng, -0.02, 0.08, n), _u(rng, 0.005, 0.3, n),
    ))


def _raw_three_halves(rng, n):
    return list(zip(
        _u(rng, -0.05, 0.15, n), _u(rng, 0.5, 3.0, n), _u(rng, 0.01, 0.3, n),
        _u(rng, 0.2, 1.5, n), _u(rng, -0.02, 0.08, n), _u(rng, 0.01, 0.3, n),
    ))


def _raw_jump(rng, n):
    rate = _u(rng, 0.5, 5.0, n)
    y = _u(rng, 0.2, 3.0, n)
    law = [("exponential", rate[i]) if i % 2 == 0 else ("constant", y[i]) for i in range(n)]
    return list(zip(
        _u(rng, -0.05, 0.15, n), _u(rng, 0.05, 0.6, n), _u(rng, 0.1, 3.0, n),
        law, _u(rng, -0.02, 0.08, n),
    ))


def _raw_vasicek(rng, n):
    return list(zip(
        _u(rng, -0.05, 0.15, n), _u(rng, 0.02, 0.6, n), _u(rng, 0.3, 3.0, n),
        _u(rng, -0.01, 0.08, n), _u(rng, 0.002, 0.25, n), _u(rng, -0.9, 0.9, n),
        _u(rng, 0.0, 0.08, n),
    ))


_RAW = {
    "gbm": _raw_gbm,
    "heston": _raw_heston,
    "three_halves": _raw_three_halves,
    "jump": _raw_jump,
    "vasicek": _raw_vasicek,
}


def raw_pool(seed, n_per_kind):
    """Plain-float draws per kind: ``{kind: [(theta, fields), ...]}``."""
    streams = np.random.SeedSequence(seed).spawn(len(KINDS))
    pool = {}
    for kind, ss in zip(KINDS, streams):
        rng = np.random.default_rng(ss)
        thetas = _u(rng, 0.05, 0.95, n_per_kind)
        pool[kind] = list(zip(thetas, _RAW[kind](rng, n_per_kind)))
    return pool


def build(kind, fields):
    """Construct the validated parameter record for one raw draw."""
    if kind == "gbm":
        return go.GbmParams(*fields)
    if kind == "heston":
        return go.HestonParams(*fields)
    if kind == "three_halves":
        return go.ThreeHalvesParams(*fields)
    if kind == "jump":
        mu, sigma, lambda_j, (law, value), r = fields
        jump = go.ExponentialJump(value) if law == "exponential" else go.ConstantJump(value)
        return go.JumpDiffusionParams(mu, sigma, lambda_j, jump, r)
    return go.VasicekParams(*fields)


def label(kind, fields):
    """Traffic class of a draw: the kind, with the jump law for jump draws."""
    if kind == "jump":
        return f"jump.{fields[3][0]}"
    return kind
