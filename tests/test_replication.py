"""The log-contract strip, the variance-swap strike, and the discretely
monitored variance-swap payoff."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smilewings.blackscholes import SmileCurve, implied_vol, put_price
from smilewings.errors import DivergentWing, DomainError
from smilewings.gf import build_transform, gf_varswap
from smilewings.replication import (
    PricePath,
    discrete_varswap_payoff,
    log_contract_strip,
    varswap_strip,
)

SIGMA = 0.2


@pytest.fixture(scope="module")
def flat():
    return SmileCurve.flat(SIGMA)


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


def _svi(x: np.ndarray, a, b, rho, m, s) -> np.ndarray:
    return np.sqrt(a + b * (rho * (x - m) + np.sqrt((x - m) ** 2 + s * s)))


def _strip_within_gf(sm: SmileCurve, tol: float) -> None:
    gap = abs(varswap_strip(sm, tol=tol) - gf_varswap(build_transform(sm), tol=tol))
    assert gap <= tol, gap


def test_strip_on_395_knot_svi_ladder():
    # A smooth ladder on which the QUADPACK strip raised: an error estimate
    # of 1.05e-8 against a 3.3e-9 share.
    x = np.log(0.05 + 0.01 * np.arange(395))
    _strip_within_gf(SmileCurve(x, _svi(x, 0.047, 0.298, -0.249, 0.124, 0.119)),
                     1e-8)


def test_strip_on_iv_inverted_198_knot_ladder():
    # Vols inverted from linear put prices, so they carry the inversion's
    # noise deep in the money.  The QUADPACK strip returned a value 3.4e-8
    # from gf here at tol 1e-8.  Full digits: rounded ones move the smile.
    x = np.log(0.05 + 0.02 * np.arange(198))
    svi = _svi(x, 0.01534241794546627, 0.15511176548617941, -0.7479725713987926,
               -0.09381641909487824, 0.23860278853737027)
    vols = [implied_vol(a, put_price(a, b).p) for a, b in zip(x.tolist(), svi.tolist())]
    _strip_within_gf(SmileCurve(x, np.array(vols)), 1e-8)


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
