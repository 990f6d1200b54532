"""Static replication of convex payoffs and the variance-swap strip.

The oracle throughout is the lognormal density itself: any payoff priced by
the put/call strip must match direct Gaussian quadrature of the payoff.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from smilewings.blackscholes import SmileCurve, call_price
from smilewings.errors import DivergentWing, DomainError
from smilewings.numerics import integrate
from smilewings.replication import (
    ConvexPayoff,
    PricePath,
    discrete_varswap_payoff,
    log_contract_strip,
    replicate_convex,
    varswap_strip,
)

SIGMA = 0.2


@pytest.fixture(scope="module")
def flat():
    return SmileCurve.flat(SIGMA)


# ---------------------------------------------------------------------------
# replicate_convex against closed forms


def test_squared_error_payoff(flat):
    pay = ConvexPayoff(f=lambda s: (s - 1.0) ** 2,
                       f_prime=lambda s: 2.0 * (s - 1.0),
                       second_derivative_density=lambda s: 2.0,
                       pivot_x0=1.0)
    v = replicate_convex(pay, flat, tol=1e-9)
    assert math.isclose(v, math.expm1(SIGMA * SIGMA), rel_tol=1e-9)


def test_log_contract_payoff(flat):
    pay = ConvexPayoff(f=lambda s: -math.log(s),
                       f_prime=lambda s: -1.0 / s,
                       second_derivative_density=lambda s: 1.0 / (s * s),
                       pivot_x0=1.0)
    v = replicate_convex(pay, flat, tol=1e-9)
    assert math.isclose(v, 0.5 * SIGMA * SIGMA, rel_tol=1e-8)


@pytest.mark.parametrize("strike", [0.8, 1.2])
def test_pure_kink_reproduces_call(flat, strike):
    # A single slope atom is a call; the identity must hold through either
    # the put side (strike below pivot) or the call side.
    pay = ConvexPayoff(f=lambda s: max(s - strike, 0.0),
                       f_prime=lambda s: 1.0 if s > strike else 0.0,
                       second_derivative_density=lambda s: 0.0,
                       pivot_x0=1.0, kinks=((strike, 1.0),))
    v = replicate_convex(pay, flat, tol=1e-10)
    assert math.isclose(v, call_price(math.log(strike), SIGMA),
                        rel_tol=1e-12, abs_tol=1e-14)


def _log_power_payoff(p: float) -> tuple[ConvexPayoff, float, float]:
    """(-log s)^p continued by its constant past the convexity edge.

    (-log s)^p is convex in s only while -log s >= 1 - p, i.e. up to
    z_p = min(e^{p-1}, 1); freezing the payoff at its edge value keeps it
    convex and continuous, at the cost of a slope kink for p < 1 (for
    p = 1 the kink sits at s = 1 with unit jump, for p >= 2 the slope is
    already continuous there).
    """
    zp = min(math.exp(p - 1.0), 1.0)
    edge = max(1.0 - p, 0.0) ** p

    def f(s: float) -> float:
        return (-math.log(s)) ** p if s <= zp else edge

    def f_prime(s: float) -> float:
        return -p * (-math.log(s)) ** (p - 1.0) / s if s < zp else 0.0

    def mu(s: float) -> float:
        if s >= zp:
            return 0.0
        big_l = -math.log(s)
        return p * big_l ** (p - 2.0) * ((p - 1.0) + big_l) / (s * s)

    if p < 1.0:
        jump = p * (1.0 - p) ** (p - 1.0) / zp
    elif p == 1.0:
        jump = 1.0
    else:
        jump = 0.0
    kinks = ((zp, jump),) if jump > 0.0 else ()
    pay = ConvexPayoff(f=f, f_prime=f_prime, second_derivative_density=mu,
                       pivot_x0=1.0, kinks=kinks)
    return pay, zp, edge


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_log_power_suite(flat, p):
    pay, zp, edge = _log_power_payoff(p)
    v = replicate_convex(pay, flat, tol=1e-9)
    m = -0.5 * SIGMA * SIGMA
    z_cut = (math.log(zp) - m) / SIGMA
    body = integrate(
        lambda z: (-(m + SIGMA * z)) ** p
        * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
        -math.inf, z_cut, tol=1e-11).value
    oracle = body + edge * (1.0 - float(sp.ndtr(z_cut)))
    assert abs(v - oracle) < 1e-10, (p, v, oracle)


def test_kink_magnitude_pins():
    _, zp, _ = _log_power_payoff(0.5)
    assert math.isclose(zp, math.exp(-0.5), rel_tol=1e-15)
    # jump = p (1-p)^{p-1} / z_p = sqrt(e/2) at p = 1/2
    pay, _, _ = _log_power_payoff(0.5)
    assert math.isclose(pay.kinks[0][1], math.sqrt(math.e / 2.0),
                        rel_tol=1e-14)
    pay, _, _ = _log_power_payoff(1.0)
    assert pay.kinks == ((1.0, 1.0),)
    pay, _, _ = _log_power_payoff(2.0)
    assert pay.kinks == ()


def test_convex_payoff_validation():
    good = dict(f=lambda s: s, f_prime=lambda s: 1.0,
                second_derivative_density=lambda s: 0.0)
    with pytest.raises(DomainError):
        ConvexPayoff(pivot_x0=0.0, **good)
    with pytest.raises(DomainError):
        ConvexPayoff(pivot_x0=1.0, kinks=((-0.5, 1.0),), **good)
    with pytest.raises(DomainError):
        ConvexPayoff(pivot_x0=1.0, kinks=((0.5, -1.0),), **good)


# ---------------------------------------------------------------------------
# variance-swap strip


def test_flat_varswap_recovers_sigma_squared():
    for s in (0.1, 0.2, 0.5):
        sm = SmileCurve.flat(s)
        assert abs(varswap_strip(sm, tol=1e-9) - s * s) < 1e-9


def test_log_contract_is_half_varswap(flat):
    assert math.isclose(2.0 * log_contract_strip(flat), varswap_strip(flat),
                        rel_tol=1e-14)


def test_divergent_wing_refused():
    sm = SmileCurve.flat(0.2, left_wing="corollary_expansion", left_wing_q=1.0)
    with pytest.raises(DivergentWing):
        varswap_strip(sm)
    # just above the divergence threshold the strip is finite again
    sm = SmileCurve.flat(0.2, left_wing="corollary_expansion", left_wing_q=1.2)
    assert math.isfinite(varswap_strip(sm, tol=1e-7))


def test_corollary_wing_close_to_clamp_when_tail_is_thin():
    # With the wing attached at -20 under q = 3 the continuation carries
    # almost no additional variance versus clamping.
    clamp = varswap_strip(SmileCurve.flat(0.2), tol=1e-9)
    wing = varswap_strip(SmileCurve.flat(0.2, left_wing="corollary_expansion",
                                         left_wing_q=3.0), tol=1e-9)
    assert abs(wing - clamp) < 1e-6


# ---------------------------------------------------------------------------
# discrete monitoring


def test_discrete_payoff_pin():
    path = PricePath(np.array([0.0, 0.5, 1.0]),
                     np.array([1.0, math.exp(0.1), 1.0]))
    assert math.isclose(discrete_varswap_payoff(path, horizon_T=1.0), 0.02,
                        rel_tol=1e-12)
    # default horizon: n returns of daily monitoring
    assert math.isclose(discrete_varswap_payoff(path), 0.02 * 252.0 / 2.0,
                        rel_tol=1e-12)


def test_discrete_payoff_scale_invariant():
    t = np.array([0.0, 0.3, 0.7, 1.0])
    v = np.array([1.0, 1.1, 0.9, 1.05])
    base = discrete_varswap_payoff(PricePath(t, v), horizon_T=1.0)
    scaled = discrete_varswap_payoff(PricePath(t, 73.0 * v), horizon_T=1.0)
    assert math.isclose(base, scaled, rel_tol=1e-12)


def test_discrete_payoff_validation():
    path = PricePath(np.array([0.0, 1.0]), np.array([1.0, 1.1]))
    with pytest.raises(DomainError):
        discrete_varswap_payoff(path, annualization=0.0)
    with pytest.raises(DomainError):
        discrete_varswap_payoff(path, horizon_T=-1.0)
    single = PricePath(np.array([0.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        discrete_varswap_payoff(single)


@pytest.mark.parametrize("kwargs", [
    {"horizon_T": math.nan},
    {"horizon_T": math.inf},
    {"annualization": math.nan},
])
def test_discrete_payoff_rejects_non_finite_scales(kwargs):
    path = PricePath(np.array([0.0, 1.0]), np.array([1.0, 1.1]))
    with pytest.raises(DomainError, match="finite and > 0"):
        discrete_varswap_payoff(path, **kwargs)


@given(values=st.lists(st.floats(min_value=1e-300, max_value=1e300),
                       min_size=2, max_size=300),
       horizon_T=st.one_of(st.none(),
                           st.floats(min_value=1e-3, max_value=1e3)))
def test_discrete_payoff_matches_diff_of_logs(values, horizon_T):
    v = np.array(values)
    path = PricePath(np.arange(v.size, dtype=float), v)
    r = np.diff(np.log(v))
    horizon = horizon_T if horizon_T is not None else (v.size - 1) / 252.0
    assert discrete_varswap_payoff(path, horizon_T=horizon_T) \
        == float(np.dot(r, r) / horizon)


@pytest.mark.parametrize("times", [
    [0.0, math.nan],
    [0.0, math.inf],
    [0.0, math.nan, 1.0],
    [0.0, 0.5, math.inf],
])
def test_price_path_rejects_non_finite_times(times):
    with pytest.raises(DomainError):
        PricePath(np.array(times), np.ones(len(times)))


def test_price_path_validation():
    with pytest.raises(DomainError):
        PricePath(np.array([0.5, 1.0]), np.array([1.0, 1.0]))  # t0 != 0
    with pytest.raises(DomainError):
        PricePath(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        PricePath(np.array([0.0, 1.0]), np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        PricePath(np.array([0.0, 1.0]), np.array([1.0]))
