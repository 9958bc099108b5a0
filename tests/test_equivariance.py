"""Time-rescaling equivariance, bit for bit.

A model run c times faster has growth rate c*lambda and the same optimum.
With c = 4^k every scaled input is exact, so the library must return
exactly c times the rate, the same allocation, and, for the oracles, c
times the Monte Carlo estimate and its SE at horizon t/c, and an RK4 trace
at (t_end/c, dt/c) with the same A and B/c. The scaling rules:

- gbm: mu and r times c, sigma times sqrt(c);
- jump: the same, plus lambda_j times c, with the jump law unchanged;
- heston: mu, r, kappa, gamma_level, delta and nu0 times c;
- three_halves: mu, r, gamma_level and nu0 times c, kappa and delta unchanged;
- vasicek: mu, kappa, gamma_level and r0 times c, sigma times sqrt(c), delta
  times c*sqrt(c).

The closed-form jump decision is left out: ``optimal_jump`` stops at an
absolute |slope| <= 1e-12, a per-year constant, so a scaled jump draw can
move alpha* (``FOUND:`` line 64 of CHANGES.md).
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from growthopt import (
    growth_rate,
    integrate_heston_riccati,
    integrate_vasicek_ode,
    mc_growth_estimate,
    numeric_argmax,
    optimal_allocation,
)
from support import DRAWERS, draw_utility

# per kind: the fields times c, and those times sqrt(c)
SCALED = {
    "gbm": (("mu", "r"), ("sigma",)),
    "jump": (("mu", "r", "lambda_j"), ("sigma",)),
    "heston": (("mu", "r", "kappa", "gamma_level", "delta", "nu0"), ()),
    "three_halves": (("mu", "r", "gamma_level", "nu0"), ()),
    "vasicek": (("mu", "kappa", "gamma_level", "r0"), ("sigma",)),
}
KINDS = sorted(SCALED)
GRID = np.linspace(0.0, 1.0, 11)


def _faster(model, kind, c):
    """The model run c = 4^k times faster."""
    times_c, times_root_c = SCALED[kind]
    root_c = np.sqrt(c)  # 2^k, exact
    fields = {name: getattr(model, name) * c for name in times_c}
    fields.update({name: getattr(model, name) * root_c for name in times_root_c})
    if kind == "vasicek":
        fields["delta"] = model.delta * c * root_c
    return replace(model, **fields)


def _draw(kind, seed):
    """A support draw of the model, the utility and an allocation in [0, 1)."""
    rng = np.random.default_rng(seed)
    return DRAWERS[kind](rng), draw_utility(rng), rng.uniform(0.0, 1.0)


def _bits(value):
    return np.asarray(value, dtype=np.float64).view(np.int64)


def _same_bits(x, y):
    return np.array_equal(_bits(x), _bits(y))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1), k=st.integers(-30, 30))
def test_rate_and_optimum_are_time_rescaling_equivariant(kind, seed, k):
    model, u, _ = _draw(kind, seed)
    c = 4.0**k
    fast = _faster(model, kind, c)
    assert _same_bits(growth_rate(fast, u, GRID), c * growth_rate(model, u, GRID))
    assert _same_bits(numeric_argmax(fast, u), numeric_argmax(model, u))
    if kind != "jump":
        slow, quick = optimal_allocation(model, u), optimal_allocation(fast, u)
        assert _same_bits(quick.alpha_star, slow.alpha_star)
        assert quick.case_label == slow.case_label


@settings(derandomize=True, max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1), k=st.sampled_from([-2, 2, 6]))
def test_monte_carlo_estimate_is_time_rescaling_equivariant(kind, seed, k):
    model, u, alpha = _draw(kind, seed)
    c = 4.0**k
    slow = mc_growth_estimate(model, u, alpha, 0.1, 64, 20, seed=seed)
    quick = mc_growth_estimate(_faster(model, kind, c), u, alpha, 0.1 / c, 64, 20, seed=seed)
    assert _same_bits(quick.lambda_hat, c * slow.lambda_hat)
    assert _same_bits(quick.std_error, c * slow.std_error)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(["heston", "vasicek"]), seed=st.integers(0, 2**32 - 1),
       k=st.integers(-20, 20))
def test_rk4_trace_is_time_rescaling_equivariant(kind, seed, k):
    model, u, alpha = _draw(kind, seed)
    c = 4.0**k
    integrate = {"heston": integrate_heston_riccati, "vasicek": integrate_vasicek_ode}[kind]
    slow = integrate(model, u, alpha, 5.0, 0.01)
    quick = integrate(_faster(model, kind, c), u, alpha, 5.0 / c, 0.01 / c)
    assert _same_bits(quick.a_values, slow.a_values)
    assert _same_bits(quick.b_values, slow.b_values / c)
