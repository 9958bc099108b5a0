import math
from dataclasses import fields

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
    JumpDiffusionParams,
    OutOfRange,
    ThreeHalvesParams,
    Utility,
    VasicekParams,
    theta_from_gamma,
    validate,
)

from growthopt.params import kind_of
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


def _exp_density_on_40(y):
    return math.exp(-y) / (1.0 - math.exp(-40.0))


# A valid construction of each record; every float field gets a NaN and an inf.
VALID = {
    Utility: dict(theta=0.5),
    GbmParams: dict(mu=0.08, sigma=0.2, r=0.03),
    HestonParams: HESTON_OK,
    ThreeHalvesParams: dict(mu=0.08, kappa=2.0, gamma_level=0.04, delta=0.5, r=0.03, nu0=0.04),
    ConstantJump: dict(y=1.5),
    ExponentialJump: dict(rate=2.0),
    DensityJump: dict(density=_exp_density_on_40, bound=40.0),
    JumpDiffusionParams: dict(mu=0.08, sigma=0.2, lambda_j=1.0, jump=ConstantJump(1.5), r=0.03),
    VasicekParams: dict(mu=0.08, sigma=0.2, kappa=2.0, gamma_level=0.03, delta=0.01,
                        rho=-0.3, r0=0.03),
}

# (record, field) -> (a value outside the field's domain, the violation text).
# Fields absent here only need to be finite.
OUT_OF_DOMAIN = {
    (Utility, "theta"): (1.0, "theta must lie in (0, 1), got 1.0"),
    (GbmParams, "sigma"): (0.0, "sigma must be > 0, got 0.0"),
    (HestonParams, "kappa"): (0.0, "kappa must be > 0, got 0.0"),
    (HestonParams, "gamma_level"): (0.0, "gamma_level must be > 0, got 0.0"),
    (HestonParams, "delta"): (0.0, "delta must be > 0, got 0.0"),
    (HestonParams, "rho"): (1.5, "rho must lie in [-1, 1], got 1.5"),
    (HestonParams, "nu0"): (0.0, "nu0 must be > 0, got 0.0"),
    (ThreeHalvesParams, "kappa"): (0.0, "kappa must be > 0, got 0.0"),
    (ThreeHalvesParams, "gamma_level"): (0.0, "gamma_level must be > 0, got 0.0"),
    (ThreeHalvesParams, "delta"): (0.0, "delta must be > 0, got 0.0"),
    (ThreeHalvesParams, "nu0"): (0.0, "nu0 must be > 0, got 0.0"),
    (ConstantJump, "y"): (0.0, "constant jump y must be > 0, got 0.0"),
    (ExponentialJump, "rate"): (0.0, "exponential jump rate must be > 0, got 0.0"),
    (DensityJump, "bound"): (0.0, "truncation bound must be > 0, got 0.0"),
    (JumpDiffusionParams, "sigma"): (0.0, "sigma must be > 0, got 0.0"),
    (JumpDiffusionParams, "lambda_j"): (0.0, "lambda_j must be > 0, got 0.0"),
    (JumpDiffusionParams, "jump"): (1.0, "jump must be a jump law, got float"),
    (VasicekParams, "sigma"): (0.0, "sigma must be > 0, got 0.0"),
    (VasicekParams, "kappa"): (0.0, "kappa must be > 0, got 0.0"),
    (VasicekParams, "delta"): (0.0, "delta must be > 0, got 0.0"),
    (VasicekParams, "rho"): (1.5, "rho must lie in [-1, 1], got 1.5"),
}

FELLER_008_009 = "Feller condition violated: 2*kappa*gamma_level = 0.08 <= delta**2 = 0.09"

# Several violations at once: (record, overrides, error class, violation texts).
COMBINED = [
    (GbmParams, dict(mu=math.nan, sigma=-1.0, r=math.inf), OutOfRange,
     {"mu must be finite, got nan", "sigma must be > 0, got -1.0", "r must be finite, got inf"}),
    (HestonParams, dict(kappa=-1.0, rho=2.0, nu0=-0.1), OutOfRange,
     {"kappa must be > 0, got -1.0", "rho must lie in [-1, 1], got 2.0",
      "nu0 must be > 0, got -0.1"}),
    (HestonParams, dict(kappa=1.0), FellerViolation, {FELLER_008_009}),
    # delta**2 overflows
    (HestonParams, dict(delta=1e200), FellerViolation,
     {"Feller condition violated: 2*kappa*gamma_level = 0.16 <= delta**2 = inf"}),
    (HestonParams, dict(kappa=1.0, rho=1.5, mu=math.nan), InvalidParameters,
     {FELLER_008_009, "rho must lie in [-1, 1], got 1.5", "mu must be finite, got nan"}),
    (HestonParams, dict(kappa=1.0, nu0=0.0), OutOfRange, {"nu0 must be > 0, got 0.0"}),
    (JumpDiffusionParams, dict(sigma=0.0, lambda_j=math.nan, jump=None), OutOfRange,
     {"sigma must be > 0, got 0.0", "lambda_j must be finite, got nan",
      "jump must be a jump law, got NoneType"}),
    (VasicekParams, dict(gamma_level=-math.inf, rho=-1.5, r0=math.nan), OutOfRange,
     {"gamma_level must be finite, got -inf", "rho must lie in [-1, 1], got -1.5",
      "r0 must be finite, got nan"}),
]


def _violation_cases():
    for record, valid in VALID.items():
        for name, value in valid.items():
            if isinstance(value, float):
                for bad in (math.nan, math.inf):
                    yield (record, {name: bad}, OutOfRange,
                           {f"{name} must be finite, got {bad}"})
            if (record, name) in OUT_OF_DOMAIN:
                bad, text = OUT_OF_DOMAIN[record, name]
                yield record, {name: bad}, OutOfRange, {text}
    yield from COMBINED


VIOLATION_CASES = list(_violation_cases())


@pytest.mark.parametrize(
    "record, overrides, error, texts", VIOLATION_CASES,
    ids=[f"{c[0].__name__}-{'-'.join(f'{k}={v}' for k, v in c[1].items())}"
         for c in VIOLATION_CASES],
)
def test_field_violations_give_class_and_texts(record, overrides, error, texts):
    with pytest.raises(InvalidParameters) as exc:
        record(**{**VALID[record], **overrides})
    assert type(exc.value) is error
    assert set(exc.value.violations) == texts
    assert len(exc.value.violations) == len(texts)


def test_fields_are_stored_as_python_floats():
    p = HestonParams(mu=0, kappa=2, gamma_level=1, delta=1, rho=0, r=0, nu0=1)
    assert all(type(getattr(p, name)) is float for name in HESTON_OK)
    assert type(Utility(np.float64(0.5)).theta) is float
    assert type(DensityJump(density=_exp_density_on_40, bound=40).bound) is float


@pytest.mark.parametrize("kind", sorted(DRAWERS))
def test_kind_of_accepts_a_subclass_of_each_record(kind):
    # kind_of looks the exact class up first; a subclass takes the isinstance loop.
    record = DRAWERS[kind](np.random.default_rng(14))
    subclass = type(f"Sub{type(record).__name__}", (type(record),), {})
    derived = subclass(**{f.name: getattr(record, f.name) for f in fields(record)})
    assert kind_of(record) == kind_of(derived) == kind
