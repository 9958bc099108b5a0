"""Validated parameter records for the five market models.

Every record is an immutable dataclass that checks its own invariants on
construction, so downstream code never sees an invalid parameter set. Each
float field declares its domain on the field (finite, > 0, [-1, 1] or
(0, 1)) and one checker, ``_field_violations``, enforces them all; only
rules beyond one field's domain are written out in ``__post_init__``. The
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

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Union

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


def _domain(test=None, rule=None, label=None):
    """Declare a float field: finite and, if ``test`` is given, passing it.

    A failure of ``test`` reads "<label> <rule>, got <value>"; the label
    defaults to the field name.
    """
    return field(metadata={"domain": (test, rule, label)})


def _positive(label=None):
    return _domain(lambda x: x > 0.0, "must be > 0", label)


def _correlation():
    return _domain(lambda x: -1.0 <= x <= 1.0, "must lie in [-1, 1]")


@functools.cache
def _domains(cls):
    """(name, test, rule, label) of each declared float field of ``cls``."""
    return tuple((f.name, *f.metadata["domain"]) for f in fields(cls) if "domain" in f.metadata)


def _field_violations(record) -> dict:
    """Coerce ``record``'s declared float fields to float and check them.

    Returns {field name: (error class, text)} for the failing fields, in
    field order.
    """
    violations = {}
    for name, test, rule, label in _domains(type(record)):
        value = float(getattr(record, name))
        object.__setattr__(record, name, value)
        if not math.isfinite(value):
            violations[name] = (OutOfRange, f"{name} must be finite, got {value!r}")
        elif test is not None and not test(value):
            violations[name] = (OutOfRange, f"{label or name} {rule}, got {value}")
    return violations


def _check_fields(record):
    """``__post_init__`` of a record whose only rules are its field domains."""
    _raise_violations(_field_violations(record).values())


@dataclass(frozen=True)
class Utility:
    """Power-utility exponent theta = 1 - gamma_rra, strictly inside (0, 1)."""

    theta: float = _domain(lambda x: 0.0 < x < 1.0, "must lie in (0, 1)")

    __post_init__ = _check_fields

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

    mu: float = _domain()       # stock drift per unit time
    sigma: float = _positive()  # stock volatility per sqrt(time)
    r: float = _domain()        # short rate per unit time (may be negative)

    __post_init__ = _check_fields


@dataclass(frozen=True)
class HestonParams:
    """Stock with square-root stochastic variance, correlated drivers.

    The Feller condition 2*kappa*gamma_level > delta**2 is required so the
    variance stays strictly positive.
    """

    mu: float = _domain()
    kappa: float = _positive()        # variance mean-reversion speed
    gamma_level: float = _positive()  # long-run variance level
    delta: float = _positive()        # volatility of variance
    rho: float = _correlation()       # correlation between stock and variance drivers
    r: float = _domain()
    nu0: float = _positive()          # initial variance

    def __post_init__(self):
        v = _field_violations(self)
        if v.keys().isdisjoint(("kappa", "gamma_level", "delta", "nu0")):
            try:
                delta_sq = self.delta**2
            except OverflowError:  # delta above about 1.3e154 violates Feller
                delta_sq = math.inf
            if 2.0 * self.kappa * self.gamma_level <= delta_sq:
                v["feller"] = (
                    FellerViolation,
                    "Feller condition violated: 2*kappa*gamma_level = "
                    f"{2.0 * self.kappa * self.gamma_level} <= delta**2 = {delta_sq}",
                )
        _raise_violations(v.values())


@dataclass(frozen=True)
class ThreeHalvesParams:
    """Stock with 3/2-power stochastic variance, independent drivers.

    Variance follows d(nu) = kappa*nu*(gamma_level - nu) dt + delta*nu^{3/2} dW.
    """

    mu: float = _domain()
    kappa: float = _positive()
    gamma_level: float = _positive()
    delta: float = _positive()
    r: float = _domain()
    nu0: float = _positive()

    __post_init__ = _check_fields


@dataclass(frozen=True)
class ConstantJump:
    """Multiplicative jump factor fixed at a single positive value y."""

    y: float = _positive("constant jump y")

    __post_init__ = _check_fields

    def mean(self) -> float:
        return self.y


@dataclass(frozen=True)
class ExponentialJump:
    """Jump factor exponentially distributed on (0, inf) with the given rate."""

    rate: float = _positive("exponential jump rate")

    __post_init__ = _check_fields

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
    bound: float = _positive("truncation bound")
    _mean: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from scipy import integrate  # deferred: only density laws need quadrature

        _check_fields(self)
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

    mu: float = _domain()
    sigma: float = _positive()
    lambda_j: float = _positive()  # jump intensity per unit time
    jump: JumpLaw
    r: float = _domain()

    def __post_init__(self):
        v = _field_violations(self)
        if not isinstance(self.jump, (ConstantJump, ExponentialJump, DensityJump)):
            v["jump"] = (OutOfRange, f"jump must be a jump law, got {type(self.jump).__name__}")
        _raise_violations(v.values())


@dataclass(frozen=True)
class VasicekParams:
    """Black-Scholes stock funded against an Ornstein-Uhlenbeck short rate."""

    mu: float = _domain()
    sigma: float = _positive()        # stock volatility
    kappa: float = _positive()        # rate mean-reversion speed
    gamma_level: float = _domain()    # long-run rate level (any real)
    delta: float = _positive()        # rate volatility
    rho: float = _correlation()       # stock/rate driver correlation
    r0: float = _domain()             # initial short rate

    __post_init__ = _check_fields


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


_KIND_OF_CLASS = {cls: kind for kind, cls in _MODEL_CLASSES.items()}


def kind_of(model) -> str:
    """Kind name of a parameter record; OutOfRange for any other object.

    The exact class is looked up first, since the rates call this once per
    alpha; the isinstance loop serves subclasses of the records.
    """
    kind = _KIND_OF_CLASS.get(type(model))
    if kind is not None:
        return kind
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
