import math

import numpy as np
import pytest
from scipy import integrate

from growthopt import (
    BadDensity,
    ConstantJump,
    DensityJump,
    ExponentialJump,
    FellerViolation,
    GbmParams,
    HestonParams,
    InvalidParameters,
    OutOfRange,
    Utility,
    theta_from_gamma,
    validate,
)

from support import DRAWERS


HESTON_OK = dict(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.3, rho=-0.5, r=0.03, nu0=0.04)


def test_heston_feller_accepts_valid():
    p = HestonParams(**HESTON_OK)
    assert 2 * p.kappa * p.gamma_level > p.delta**2


def test_heston_feller_rejects():
    bad = dict(HESTON_OK, kappa=1.0)  # 2*1*0.04 = 0.08 <= 0.09
    with pytest.raises(FellerViolation):
        HestonParams(**bad)


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.2, 1.5])
def test_utility_boundaries_rejected(theta):
    with pytest.raises(OutOfRange):
        Utility(theta=theta)


def test_theta_from_gamma():
    assert theta_from_gamma(0.5).theta == 0.5
    assert theta_from_gamma(0.2).theta == pytest.approx(0.8, abs=0)
    with pytest.raises(OutOfRange):
        theta_from_gamma(1.0)
    with pytest.raises(OutOfRange):
        theta_from_gamma(0.0)


def test_sigma_and_rho_ranges():
    with pytest.raises(OutOfRange):
        GbmParams(mu=0.05, sigma=0.0, r=0.03)
    with pytest.raises(OutOfRange):
        HestonParams(**dict(HESTON_OK, rho=1.5))


def test_all_violations_reported_together():
    bad = dict(HESTON_OK, kappa=-1.0, rho=2.0, nu0=-0.1)
    with pytest.raises(InvalidParameters) as exc:
        HestonParams(**bad)
    assert len(exc.value.violations) >= 3


def test_validate_idempotent_and_mapping():
    p = validate({"kind": "heston", **HESTON_OK})
    assert p == HestonParams(**HESTON_OK)
    assert validate(p) is p
    assert validate(validate(p)) == p


def test_validate_mapping_errors():
    with pytest.raises(InvalidParameters, match="unknown model kind"):
        validate({"kind": "garch"})
    with pytest.raises(InvalidParameters, match="missing field 'nu0'"):
        validate({"kind": "heston", **{k: v for k, v in HESTON_OK.items() if k != "nu0"}})
    with pytest.raises(InvalidParameters, match="unexpected field"):
        validate({"kind": "gbm", "mu": 0.05, "sigma": 0.2, "r": 0.03, "q": 0.01})


def test_validate_jump_mapping():
    p = validate({
        "kind": "jump", "mu": 0.08, "sigma": 0.2, "lambda_j": 1.0, "r": 0.03,
        "jump_kind": "exponential", "jump_rate": 2.0,
    })
    assert p.jump == ExponentialJump(rate=2.0)
    with pytest.raises(InvalidParameters, match="jump_y"):
        validate({
            "kind": "jump", "mu": 0.08, "sigma": 0.2, "lambda_j": 1.0, "r": 0.03,
            "jump_kind": "constant",
        })


def test_validate_jump_mapping_rejects_the_other_law_key():
    base = {"kind": "jump", "mu": 0.08, "sigma": 0.2, "lambda_j": 1.0, "r": 0.03}
    with pytest.raises(InvalidParameters, match="unexpected field 'jump_y'"):
        validate({**base, "jump_kind": "exponential", "jump_rate": 2.0, "jump_y": 1.5})
    with pytest.raises(InvalidParameters, match="missing field 'jump_kind'"):
        validate({**base, "jump_rate": 2.0})
    with pytest.raises(InvalidParameters, match="unknown jump_kind"):
        validate({**base, "jump_kind": "density", "jump_rate": 2.0})


def test_feller_margin_exact_as_stored():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = DRAWERS["heston"](rng)
        assert 2.0 * p.kappa * p.gamma_level - p.delta**2 > 0.0


def test_jump_law_means():
    assert ConstantJump(y=1.7).mean() == 1.7
    assert ExponentialJump(rate=2.0).mean() == 0.5
    with pytest.raises(OutOfRange):
        ConstantJump(y=0.0)
    with pytest.raises(OutOfRange):
        ExponentialJump(rate=-1.0)


def _truncated_exponential(rate, bound):
    norm = 1.0 - math.exp(-rate * bound)
    return lambda y: rate * math.exp(-rate * y) / norm


def test_density_jump_accepts_normalized_density():
    rate, bound = 1.5, 30.0
    law = DensityJump(density=_truncated_exponential(rate, bound), bound=bound)
    expected, _ = integrate.quad(
        lambda y: y * _truncated_exponential(rate, bound)(y), 0.0, bound
    )
    assert law.mean() == pytest.approx(expected, rel=1e-8)
    assert law.mean() == pytest.approx(1.0 / rate, rel=1e-6)


def test_density_jump_rejects_bad_normalization():
    with pytest.raises(BadDensity):
        DensityJump(density=lambda y: 0.5 * math.exp(-y), bound=40.0)


def test_density_jump_rejects_negative_density():
    with pytest.raises(BadDensity):
        DensityJump(density=lambda y: math.sin(y), bound=10.0)


def test_negative_rates_allowed():
    GbmParams(mu=0.02, sigma=0.2, r=-0.01)
    HestonParams(**dict(HESTON_OK, r=-0.02))
    # the OU long-run level may be any real
    validate({"kind": "vasicek", "mu": 0.05, "sigma": 0.2, "kappa": 1.0,
              "gamma_level": -0.01, "delta": 0.01, "rho": 0.0, "r0": 0.0})
