"""The public names of the package and of each module stay as they are."""

import importlib
import types

import growthopt

PACKAGE_NAMES = {
    "AllocationDecision", "BadDensity", "ConfigError", "ConstantJump",
    "DegenerateVariance", "DensityJump", "DomainExceeded", "DuplicateKey",
    "DuplicateUtility", "ExponentialJump", "FellerViolation", "GbmParams",
    "GrowthCurve", "GrowthOptError", "HestonCoefficients", "HestonParams",
    "InternalInvariantViolation", "InvalidParameters", "JumpDiffusionParams",
    "JumpLaw", "LaplaceEstimate", "MissingKey", "ModelSpec", "NonFinitePath",
    "OdeTrace", "OutOfRange", "PoleAtB", "QuadratureFailure", "SimEstimate",
    "SpecFunResult", "StepSizeTooLarge", "ThreeHalvesParams", "TypeMismatch",
    "UnknownKey", "Utility", "VasicekParams", "growth_curve", "growth_rate",
    "heston_coefficients", "integrate_heston_riccati", "integrate_vasicek_ode",
    "jump_derivative_moment", "jump_utility_moment", "kummer_m", "lambda_gbm",
    "lambda_heston", "lambda_jump", "lambda_three_halves", "lambda_vasicek",
    "laplace_three_halves_finite_t", "log_gamma", "mc_growth_estimate",
    "mc_laplace_three_halves", "numeric_argmax", "optimal_allocation",
    "optimal_gbm", "optimal_heston", "optimal_jump", "optimal_three_halves",
    "optimal_vasicek", "theta_from_gamma", "upper_incomplete_gamma",
    "upper_incomplete_gamma_scaled", "validate",
}

MODULE_ALL = {
    "allocate": [
        "AllocationDecision", "optimal_gbm", "optimal_heston", "optimal_three_halves",
        "optimal_jump", "optimal_vasicek", "optimal_allocation", "numeric_argmax",
        "CASE_BOND_ONLY", "CASE_STOCK_ONLY", "CASE_INTERIOR", "CASE_CLAMPED_TO_ONE",
        "CASE_CLAMPED_TO_ZERO", "CASE_CONVEX_BOUNDARY",
    ],
    "cli": ["RunConfig", "parse_config", "run", "main"],
    "errors": None,
    "growth": [
        "HestonCoefficients", "GrowthCurve", "heston_coefficients", "lambda_gbm",
        "lambda_heston", "lambda_three_halves", "lambda_jump", "lambda_vasicek",
        "laplace_three_halves_finite_t", "jump_utility_moment", "jump_derivative_moment",
        "growth_rate", "growth_curve",
    ],
    "params": [
        "Utility", "GbmParams", "HestonParams", "ThreeHalvesParams", "ConstantJump",
        "ExponentialJump", "DensityJump", "JumpLaw", "JumpDiffusionParams",
        "VasicekParams", "ModelSpec", "validate", "theta_from_gamma",
    ],
    "specfun": [
        "SpecFunResult", "kummer_m", "upper_incomplete_gamma",
        "upper_incomplete_gamma_scaled", "log_gamma", "KUMMER_MAX_ABS_Z",
    ],
    "verify": [
        "OdeTrace", "SimEstimate", "LaplaceEstimate", "integrate_heston_riccati",
        "integrate_vasicek_ode", "mc_growth_estimate", "mc_laplace_three_halves",
    ],
}


def test_public_names_unchanged():
    # Submodules become package attributes once imported, so they are left out.
    names = {
        name for name, value in vars(growthopt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PACKAGE_NAMES
    for module, expected in MODULE_ALL.items():
        assert getattr(importlib.import_module(f"growthopt.{module}"), "__all__", None) == expected
