"""Shared random-draw helpers for the test suite.

Draw ranges are chosen so every record passes validation (Heston draws are
Feller-safe by construction) and so closed-form signals dominate floating
point noise in difference-based checks.
"""

import numpy as np

from growthopt import (
    ConstantJump,
    ExponentialJump,
    GbmParams,
    HestonParams,
    JumpDiffusionParams,
    ThreeHalvesParams,
    Utility,
    VasicekParams,
)


def draw_utility(rng):
    return Utility(theta=rng.uniform(0.05, 0.95))


def draw_gbm(rng):
    return GbmParams(
        mu=rng.uniform(-0.05, 0.15),
        sigma=rng.uniform(0.05, 0.6),
        r=rng.uniform(-0.02, 0.08),
    )


def draw_heston(rng):
    kappa = rng.uniform(0.5, 3.0)
    gamma_level = rng.uniform(0.01, 0.3)
    # delta as a fraction of the Feller bound keeps 2*kappa*gamma > delta^2.
    delta = rng.uniform(0.15, 0.9) * np.sqrt(2.0 * kappa * gamma_level)
    return HestonParams(
        mu=rng.uniform(-0.05, 0.15),
        kappa=kappa,
        gamma_level=gamma_level,
        delta=delta,
        rho=rng.uniform(-0.9, 0.9),
        r=rng.uniform(-0.02, 0.08),
        nu0=rng.uniform(0.005, 0.3),
    )


def draw_three_halves(rng):
    return ThreeHalvesParams(
        mu=rng.uniform(-0.05, 0.15),
        kappa=rng.uniform(0.5, 3.0),
        gamma_level=rng.uniform(0.01, 0.3),
        delta=rng.uniform(0.2, 1.5),
        r=rng.uniform(-0.02, 0.08),
        nu0=rng.uniform(0.01, 0.3),
    )


def draw_jump(rng):
    if rng.random() < 0.5:
        law = ExponentialJump(rate=rng.uniform(0.5, 5.0))
    else:
        law = ConstantJump(y=rng.uniform(0.2, 3.0))
    return JumpDiffusionParams(
        mu=rng.uniform(-0.05, 0.15),
        sigma=rng.uniform(0.05, 0.6),
        lambda_j=rng.uniform(0.1, 3.0),
        jump=law,
        r=rng.uniform(-0.02, 0.08),
    )


def draw_vasicek(rng):
    # Wide rate-volatility range so both curvature signs are exercised.
    return VasicekParams(
        mu=rng.uniform(-0.05, 0.15),
        sigma=rng.uniform(0.02, 0.6),
        kappa=rng.uniform(0.3, 3.0),
        gamma_level=rng.uniform(-0.01, 0.08),
        delta=rng.uniform(0.002, 0.25),
        rho=rng.uniform(-0.9, 0.9),
        r0=rng.uniform(0.0, 0.08),
    )


DRAWERS = {
    "gbm": draw_gbm,
    "heston": draw_heston,
    "three_halves": draw_three_halves,
    "jump": draw_jump,
    "vasicek": draw_vasicek,
}


# The *_REF parameters of test_acceptance.py, as config files.
REFERENCE_CONFIGS = {
    "gbm": "model.kind = gbm\nmodel.mu = 0.08\nmodel.sigma = 0.2\nmodel.r = 0.03\n",
    "heston": (
        "model.kind = heston\nmodel.mu = 0.08\nmodel.kappa = 2.0\n"
        "model.gamma_level = 0.04\nmodel.delta = 0.3\nmodel.rho = -0.5\n"
        "model.r = 0.03\nmodel.nu0 = 0.04\n"
    ),
    "three_halves": (
        "model.kind = three_halves\nmodel.mu = 0.08\nmodel.kappa = 2.0\n"
        "model.gamma_level = 0.04\nmodel.delta = 0.5\nmodel.r = 0.03\n"
        "model.nu0 = 0.04\n"
    ),
    "jump": (
        "model.kind = jump\nmodel.mu = 0.08\nmodel.sigma = 0.2\n"
        "model.lambda_j = 1.0\nmodel.jump_kind = exponential\n"
        "model.jump_rate = 2.0\nmodel.r = 0.03\n"
    ),
    "vasicek": (
        "model.kind = vasicek\nmodel.mu = 0.08\nmodel.sigma = 0.2\n"
        "model.kappa = 2.0\nmodel.gamma_level = 0.03\nmodel.delta = 0.01\n"
        "model.rho = -0.3\nmodel.r0 = 0.03\n"
    ),
}
