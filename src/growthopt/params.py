"""Validated parameter records for the five market models.

Every record is an immutable dataclass that checks its own invariants on
construction, so downstream code never sees an invalid parameter set. The
symbol gamma conventionally names two unrelated quantities in these models
(risk aversion and a mean-reversion level); here the level is always called
``gamma_level`` and risk preferences enter only through ``Utility``.

This is the only module that knows the model kind names (``_MODEL_CLASSES``)
and how a kind is spelled in a mapping or config (``mapping_keys``). Other
modules dispatch on ``kind_of``. Adding a kind means one ``_MODEL_CLASSES``
entry plus one entry in each layer's kind-keyed table: ``growth._RATES``,
``allocate._DECISIONS``, ``verify._SIMULATORS`` and ``cli.MC_ALLOWANCE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Union

from scipy import integrate

from .errors import BadDensity, FellerViolation, InvalidParameters, OutOfRange

__all__ = [
    "Utility",
    "GbmParams",
    "HestonParams",
    "ThreeHalvesParams",
    "ConstantJump",
    "ExponentialJump",
    "DensityJump",
    "JumpLaw",
    "JumpDiffusionParams",
    "VasicekParams",
    "ModelSpec",
    "validate",
    "theta_from_gamma",
]

# Normalization window for user-supplied jump densities.
DENSITY_NORM_TOL = 1e-8


def _raise_violations(violations):
    """Raise the most specific error covering ``violations`` (empty = no-op)."""
    if not violations:
        return
    kinds = {cls for cls, _ in violations}
    messages = [msg for _, msg in violations]
    if len(kinds) == 1:
        raise kinds.pop()(messages)
    raise InvalidParameters(messages)


def _check_finite(violations, name, value):
    if not math.isfinite(value):
        violations.append((OutOfRange, f"{name} must be finite, got {value!r}"))
        return False
    return True


@dataclass(frozen=True)
class Utility:
    """Power-utility exponent theta = 1 - gamma_rra, strictly inside (0, 1)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        v = []
        if _check_finite(v, "theta", self.theta) and not 0.0 < self.theta < 1.0:
            v.append((OutOfRange, f"theta must lie in (0, 1), got {self.theta}"))
        _raise_violations(v)

    @property
    def gamma_rra(self) -> float:
        """Relative risk aversion coefficient implied by theta."""
        return 1.0 - self.theta


def theta_from_gamma(gamma_rra: float) -> Utility:
    """Build a Utility from the risk-aversion coefficient in (0, 1)."""
    gamma_rra = float(gamma_rra)
    if not (math.isfinite(gamma_rra) and 0.0 < gamma_rra < 1.0):
        raise OutOfRange(f"gamma_rra must lie in (0, 1), got {gamma_rra}")
    return Utility(theta=1.0 - gamma_rra)


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion stock with a constant short rate."""

    mu: float      # stock drift per unit time
    sigma: float   # stock volatility per sqrt(time), > 0
    r: float       # short rate per unit time (may be negative)

    def __post_init__(self):
        for f in ("mu", "sigma", "r"):
            object.__setattr__(self, f, float(getattr(self, f)))
        v = []
        _check_finite(v, "mu", self.mu)
        _check_finite(v, "r", self.r)
        if _check_finite(v, "sigma", self.sigma) and self.sigma <= 0.0:
            v.append((OutOfRange, f"sigma must be > 0, got {self.sigma}"))
        _raise_violations(v)


@dataclass(frozen=True)
class HestonParams:
    """Stock with square-root stochastic variance, correlated drivers.

    The Feller condition 2*kappa*gamma_level > delta**2 is required so the
    variance stays strictly positive.
    """

    mu: float
    kappa: float        # variance mean-reversion speed, > 0
    gamma_level: float  # long-run variance level, > 0
    delta: float        # volatility of variance, > 0
    rho: float          # correlation between stock and variance drivers
    r: float
    nu0: float          # initial variance, > 0

    def __post_init__(self):
        for f in ("mu", "kappa", "gamma_level", "delta", "rho", "r", "nu0"):
            object.__setattr__(self, f, float(getattr(self, f)))
        v = []
        _check_finite(v, "mu", self.mu)
        _check_finite(v, "r", self.r)
        ok = True
        for name in ("kappa", "gamma_level", "delta", "nu0"):
            val = getattr(self, name)
            if not _check_finite(v, name, val):
                ok = False
            elif val <= 0.0:
                v.append((OutOfRange, f"{name} must be > 0, got {val}"))
                ok = False
        if _check_finite(v, "rho", self.rho) and not -1.0 <= self.rho <= 1.0:
            v.append((OutOfRange, f"rho must lie in [-1, 1], got {self.rho}"))
        if ok and 2.0 * self.kappa * self.gamma_level <= self.delta**2:
            v.append((
                FellerViolation,
                "Feller condition violated: 2*kappa*gamma_level = "
                f"{2.0 * self.kappa * self.gamma_level} <= delta**2 = {self.delta**2}",
            ))
        _raise_violations(v)


@dataclass(frozen=True)
class ThreeHalvesParams:
    """Stock with 3/2-power stochastic variance, independent drivers.

    Variance follows d(nu) = kappa*nu*(gamma_level - nu) dt + delta*nu^{3/2} dW.
    """

    mu: float
    kappa: float
    gamma_level: float
    delta: float
    r: float
    nu0: float

    def __post_init__(self):
        for f in ("mu", "kappa", "gamma_level", "delta", "r", "nu0"):
            object.__setattr__(self, f, float(getattr(self, f)))
        v = []
        _check_finite(v, "mu", self.mu)
        _check_finite(v, "r", self.r)
        for name in ("kappa", "gamma_level", "delta", "nu0"):
            val = getattr(self, name)
            if _check_finite(v, name, val) and val <= 0.0:
                v.append((OutOfRange, f"{name} must be > 0, got {val}"))
        _raise_violations(v)


@dataclass(frozen=True)
class ConstantJump:
    """Multiplicative jump factor fixed at a single positive value y."""

    y: float

    def __post_init__(self):
        object.__setattr__(self, "y", float(self.y))
        v = []
        if _check_finite(v, "y", self.y) and self.y <= 0.0:
            v.append((OutOfRange, f"constant jump y must be > 0, got {self.y}"))
        _raise_violations(v)

    def mean(self) -> float:
        return self.y


@dataclass(frozen=True)
class ExponentialJump:
    """Jump factor exponentially distributed on (0, inf) with the given rate."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        v = []
        if _check_finite(v, "rate", self.rate) and self.rate <= 0.0:
            v.append((OutOfRange, f"exponential jump rate must be > 0, got {self.rate}"))
        _raise_violations(v)

    def mean(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class DensityJump:
    """Jump factor with a user-supplied density on (0, bound].

    The density must be nonnegative and integrate to 1 over (0, bound] within
    1e-8; any mass beyond the declared truncation bound is ignored, so the
    bound must be chosen large enough to make that mass negligible.
    """

    density: Callable[[float], float]
    bound: float
    _mean: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bound", float(self.bound))
        v = []
        if _check_finite(v, "bound", self.bound) and self.bound <= 0.0:
            v.append((OutOfRange, f"truncation bound must be > 0, got {self.bound}"))
        _raise_violations(v)

        grid = [self.bound * (i + 0.5) / 512 for i in range(512)]
        if any(self.density(y) < 0.0 for y in grid):
            raise BadDensity(["jump density takes negative values on (0, bound]"])
        try:
            total, err = integrate.quad(
                self.density, 0.0, self.bound, epsabs=1e-11, limit=400
            )
            mean, _ = integrate.quad(
                lambda y: y * self.density(y), 0.0, self.bound,
                epsabs=1e-11, limit=400,
            )
        except Exception as exc:
            raise BadDensity([f"jump density could not be integrated: {exc}"]) from exc
        if abs(total - 1.0) > DENSITY_NORM_TOL:
            raise BadDensity([
                f"jump density integrates to {total!r} over (0, {self.bound}], "
                f"|total - 1| exceeds {DENSITY_NORM_TOL}"
            ])
        if not math.isfinite(mean):
            raise BadDensity(["jump density has a non-finite mean"])
        object.__setattr__(self, "_mean", mean)

    def mean(self) -> float:
        return self._mean


JumpLaw = Union[ConstantJump, ExponentialJump, DensityJump]


@dataclass(frozen=True)
class JumpDiffusionParams:
    """Stock with Brownian diffusion plus compound-Poisson multiplicative jumps."""

    mu: float
    sigma: float
    lambda_j: float  # jump intensity per unit time, > 0
    jump: JumpLaw
    r: float

    def __post_init__(self):
        for f in ("mu", "sigma", "lambda_j", "r"):
            object.__setattr__(self, f, float(getattr(self, f)))
        v = []
        _check_finite(v, "mu", self.mu)
        _check_finite(v, "r", self.r)
        if _check_finite(v, "sigma", self.sigma) and self.sigma <= 0.0:
            v.append((OutOfRange, f"sigma must be > 0, got {self.sigma}"))
        if _check_finite(v, "lambda_j", self.lambda_j) and self.lambda_j <= 0.0:
            v.append((OutOfRange, f"lambda_j must be > 0, got {self.lambda_j}"))
        if not isinstance(self.jump, (ConstantJump, ExponentialJump, DensityJump)):
            v.append((OutOfRange, f"jump must be a jump law, got {type(self.jump).__name__}"))
        _raise_violations(v)


@dataclass(frozen=True)
class VasicekParams:
    """Black-Scholes stock funded against an Ornstein-Uhlenbeck short rate."""

    mu: float
    sigma: float        # stock volatility, > 0
    kappa: float        # rate mean-reversion speed, > 0
    gamma_level: float  # long-run rate level (any real)
    delta: float        # rate volatility, > 0
    rho: float          # stock/rate driver correlation
    r0: float           # initial short rate

    def __post_init__(self):
        for f in ("mu", "sigma", "kappa", "gamma_level", "delta", "rho", "r0"):
            object.__setattr__(self, f, float(getattr(self, f)))
        v = []
        _check_finite(v, "mu", self.mu)
        _check_finite(v, "gamma_level", self.gamma_level)
        _check_finite(v, "r0", self.r0)
        for name in ("sigma", "kappa", "delta"):
            val = getattr(self, name)
            if _check_finite(v, name, val) and val <= 0.0:
                v.append((OutOfRange, f"{name} must be > 0, got {val}"))
        if _check_finite(v, "rho", self.rho) and not -1.0 <= self.rho <= 1.0:
            v.append((OutOfRange, f"rho must lie in [-1, 1], got {self.rho}"))
        _raise_violations(v)


ModelSpec = Union[
    GbmParams, HestonParams, ThreeHalvesParams, JumpDiffusionParams, VasicekParams
]

_MODEL_CLASSES = {
    "gbm": GbmParams,
    "heston": HestonParams,
    "three_halves": ThreeHalvesParams,
    "jump": JumpDiffusionParams,
    "vasicek": VasicekParams,
}

# How a mapping spells each jump law: jump_kind name -> (law, parameter key).
_JUMP_LAWS = {"constant": (ConstantJump, "jump_y"), "exponential": (ExponentialJump, "jump_rate")}


def kind_of(model) -> str:
    """Kind name of a parameter record; OutOfRange for any other object."""
    for kind, cls in _MODEL_CLASSES.items():
        if isinstance(model, cls):
            return kind
    raise OutOfRange(f"unsupported model type {type(model).__name__}")


def mapping_keys(kind: str) -> tuple[dict, dict]:
    """Keys a mapping for model ``kind`` must and may carry besides ``kind``.

    Returns ``(required, accepted)``; each maps a key to the type of its
    value, "float" or "str", and every required key is accepted. The keys
    are the record's fields, except that the jump law is spelled as
    ``jump_kind`` plus ``jump_y`` (constant) or ``jump_rate`` (exponential).
    """
    required = {f.name: "float" for f in fields(_MODEL_CLASSES[kind])}
    if "jump" not in required:
        return required, required
    del required["jump"]
    required["jump_kind"] = "str"
    law_keys = {key: "float" for _, key in _JUMP_LAWS.values()}
    return required, {**required, **law_keys}


def _jump_law_from_mapping(raw: dict) -> JumpLaw:
    """Pop the jump_kind spelling of a jump law from ``raw``; return the law."""
    kind = raw.pop("jump_kind")
    if kind not in _JUMP_LAWS:
        raise InvalidParameters([
            f"unknown jump_kind {kind!r}; density laws must be built programmatically"
        ])
    law, key = _JUMP_LAWS[kind]
    if key not in raw:
        raise InvalidParameters([f"{kind} jump law requires {key}"])
    built = law(raw.pop(key))
    stray = sorted(raw.keys() & {k for _, k in _JUMP_LAWS.values()})
    if stray:
        raise InvalidParameters([f"unexpected field {k!r} for model 'jump'" for k in stray])
    return built


def validate(spec) -> ModelSpec:
    """Return a fully validated model record.

    Accepts either an already-constructed parameter record (re-returned as
    is, since records validate on construction) or a mapping with a ``kind``
    entry naming the model and the keys ``mapping_keys(kind)`` accepts.
    Raises with every violated invariant listed, not just the first.
    """
    if isinstance(spec, tuple(_MODEL_CLASSES.values())):
        return spec
    if isinstance(spec, dict):
        raw = dict(spec)
        kind = raw.pop("kind", None)
        if kind not in _MODEL_CLASSES:
            known = ", ".join(sorted(_MODEL_CLASSES))
            raise InvalidParameters([f"unknown model kind {kind!r}; expected one of: {known}"])
        required, accepted = mapping_keys(kind)
        extra = sorted(raw.keys() - accepted)
        missing = sorted(required.keys() - raw.keys())
        problems = [f"unexpected field {k!r} for model {kind!r}" for k in extra]
        problems += [f"missing field {k!r} for model {kind!r}" for k in missing]
        if problems:
            raise InvalidParameters(problems)
        if "jump_kind" in raw:
            raw["jump"] = _jump_law_from_mapping(raw)
        return _MODEL_CLASSES[kind](**raw)
    raise InvalidParameters([
        f"cannot validate object of type {type(spec).__name__}; "
        "expected a parameter record or a mapping with a 'kind' entry"
    ])
