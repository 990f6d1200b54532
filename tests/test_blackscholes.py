"""Normalized Black-Scholes pricing, inversion, and the smile container."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from smilewings.blackscholes import (
    NormalizedPutPrice,
    SmileCurve,
    call_price,
    d_minus,
    f_transform,
    implied_vol,
    put_price,
    vega,
)
from smilewings.errors import (
    DomainError,
    NonPositiveVol,
    PriceAtOrAboveCap,
    PriceBelowIntrinsic,
)


def test_atm_pin():
    # At x = 0 put and call coincide: 2 Phi(sigma/2) - 1.
    p = put_price(0.0, 0.2)
    assert math.isclose(p.p, 0.07965567455405798, rel_tol=1e-14)
    assert math.isclose(call_price(0.0, 0.2), p.p, rel_tol=1e-15)


@pytest.mark.parametrize("x", [-6.0, -2.0, -0.3, 0.0, 0.4, 1.5, 3.0])
@pytest.mark.parametrize("sigma", [0.05, 0.2, 0.8, 2.0])
def test_put_call_parity(x, sigma):
    lhs = call_price(x, sigma) - put_price(x, sigma).p
    assert math.isclose(lhs, 1.0 - math.exp(x), rel_tol=1e-13, abs_tol=1e-15)


def test_put_monotone_in_sigma_and_x():
    sigmas = np.linspace(0.01, 2.0, 40)
    prices = [put_price(-1.0, float(s)).p for s in sigmas]
    assert all(b > a for a, b in zip(prices, prices[1:]))
    xs = np.linspace(-5.0, 2.0, 40)
    prices = [put_price(float(x), 0.3).p for x in xs]
    assert all(b > a for a, b in zip(prices, prices[1:]))


def test_degenerate_vols():
    assert put_price(-0.5, 0.0).p == 0.0
    assert put_price(1.0, 0.0).p == pytest.approx(math.expm1(1.0), rel=1e-15)
    assert put_price(-0.5, math.inf).p == math.exp(-0.5)
    assert call_price(2.0, 0.0) == 0.0
    assert call_price(-1.0, 0.0) == pytest.approx(-math.expm1(-1.0), rel=1e-15)
    assert call_price(0.7, math.inf) == 1.0


def test_price_bounds():
    # intrinsic <= P < e^x.  Strict inequality at the floor holds in exact
    # arithmetic, but deep in the money the time value can drop below one
    # ulp of the intrinsic (x = 1.2, sigma = 0.1 is such a case); the log
    # channel still sees it, so the strictness claim is asserted there.
    for x in (-3.0, 0.0, 1.2):
        for s in (0.1, 0.5, 1.5):
            pr = put_price(x, s)
            assert pr.p >= max(math.expm1(x), 0.0)
            assert pr.p < math.exp(x)
            assert math.isfinite(pr.log_time_value)
            assert pr.log_time_value < x   # time value < e^x always


def test_log_channels_consistent():
    pr = put_price(-4.0, 0.25)
    assert math.isclose(pr.log_p, math.log(pr.p), rel_tol=1e-12)
    # at x <= 0 all value is time value
    assert pr.log_time_value == pr.log_p
    # at x > 0 the time-value channel equals the call
    pr = put_price(1.5, 0.4)
    assert math.isclose(math.exp(pr.log_time_value), call_price(1.5, 0.4),
                        rel_tol=1e-12)


def test_deep_wing_log_price_no_underflow():
    # The linear price is an exact zero here, but the log channel keeps the
    # quote invertible.
    pr = put_price(-50.0, 0.5)
    assert pr.p == 0.0
    assert -math.inf < pr.log_p < -745.0
    assert math.isclose(implied_vol(-50.0, pr), 0.5, rel_tol=1e-12)


def test_vega_matches_finite_difference():
    h = 1e-6
    for x, s in ((-2.0, 0.3), (0.0, 0.2), (1.0, 0.7)):
        fd = (put_price(x, s + h).p - put_price(x, s - h).p) / (2.0 * h)
        assert math.isclose(vega(x, s), fd, rel_tol=1e-8)


def test_d_minus_validation():
    assert d_minus(-1.0, 0.5) == pytest.approx(2.0 - 0.25)
    with pytest.raises(DomainError):
        d_minus(0.0, 0.0)
    with pytest.raises(DomainError):
        d_minus(0.0, math.inf)


def test_input_validation():
    with pytest.raises(DomainError):
        put_price(math.inf, 0.2)
    with pytest.raises(DomainError):
        put_price(0.0, -0.1)
    with pytest.raises(DomainError):
        call_price(math.nan, 0.2)
    with pytest.raises(DomainError):
        NormalizedPutPrice(-0.01)
    with pytest.raises(DomainError):
        implied_vol(math.inf, 0.1)
    with pytest.raises(DomainError):
        implied_vol(0.0, math.nan)


# ---------------------------------------------------------------------------
# inversion


def test_roundtrip_grid():
    for x in np.linspace(-10.0, 3.0, 27):
        for s in (0.02, 0.2, 1.0, 2.9):
            x = float(x)
            iv = implied_vol(x, put_price(x, s))
            assert abs(iv - s) < 1e-10, (x, s, iv)


@given(st.floats(min_value=-30.0, max_value=2.0),
       st.floats(min_value=0.01, max_value=2.5))
@example(0.09375, 0.01171875)  # price one rounding below expm1(x)
def test_roundtrip_property(x, sigma):
    assert abs(implied_vol(x, put_price(x, sigma)) - sigma) < 1e-9


@pytest.mark.parametrize("x, rel", [(-1e6, 1e-13), (-1e10, 1e-11),
                                    (-1e13, 1e-9)])
def test_roundtrip_extreme_wing(x, rel):
    """Round trips where d ~ sqrt(log|x|) while sigma ~ sqrt(2|x|): the
    pricing and the solver both run entirely in the log channel."""
    q, c = 1.5, 0.7
    u = math.log(-x)
    a = math.sqrt(2.0 * q * u + c)
    sigma = math.sqrt(a * a - 2.0 * x) - a
    pr = put_price(x, sigma)
    assert pr.p == 0.0 and math.isfinite(pr.log_p)
    assert abs(implied_vol(x, pr) / sigma - 1.0) < rel


def test_inversion_channels_right_wing():
    # For x > 0 the plain-price channel loses the time value to cancellation
    # (~1e-4 here); the log-time-value channel keeps full precision.
    x, s = 2.0, 0.3
    pr = put_price(x, s)
    assert abs(implied_vol(x, pr) - s) < 1e-12
    assert abs(implied_vol(x, pr.p) - s) < 1e-3
    assert abs(implied_vol(x, NormalizedPutPrice(pr.p, log_p=pr.log_p)) - s) < 1e-3


def test_intrinsic_inputs_return_zero():
    assert implied_vol(-1.0, 0.0) == 0.0
    assert implied_vol(1.0, math.expm1(1.0)) == 0.0
    # one ulp under intrinsic is treated as intrinsic, not rejected
    intr = math.expm1(1.0)
    assert implied_vol(1.0, intr * (1.0 - 1e-16)) == 0.0


def test_price_below_intrinsic():
    with pytest.raises(PriceBelowIntrinsic):
        implied_vol(1.0, math.expm1(1.0) * (1.0 - 1e-12))
    with pytest.raises(PriceBelowIntrinsic):
        implied_vol(-1.0, -1e-9)


def test_price_at_or_above_cap():
    with pytest.raises(PriceAtOrAboveCap):
        implied_vol(-1.0, math.exp(-1.0))
    with pytest.raises(PriceAtOrAboveCap):
        implied_vol(0.5, 2.0)


# ---------------------------------------------------------------------------
# SmileCurve


def _vols(n: int) -> np.ndarray:
    return np.full(n, 0.25)


def test_smile_validation():
    with pytest.raises(DomainError):
        SmileCurve(np.array([0.0, 1.0]), np.array([0.2]))
    with pytest.raises(DomainError):
        SmileCurve(np.array([1.0, 0.0]), _vols(2))
    with pytest.raises(DomainError):
        SmileCurve(np.array([0.0, math.inf]), _vols(2))
    with pytest.raises(NonPositiveVol):
        SmileCurve(np.array([0.0, 1.0]), np.array([0.2, 0.0]))
    with pytest.raises(DomainError):
        SmileCurve(np.array([0.0, 1.0]), _vols(2), interpolation="spline")
    with pytest.raises(DomainError):
        SmileCurve(np.array([0.0, 1.0]), _vols(2), certified_q=-1.0)


def test_corollary_wing_validation():
    with pytest.raises(DomainError):  # missing q
        SmileCurve(np.array([-5.0, 0.0]), _vols(2),
                   left_wing="corollary_expansion")
    for q in (math.nan, math.inf):
        with pytest.raises(DomainError, match="left_wing_q"):
            SmileCurve(np.array([-5.0, 0.0]), _vols(2),
                       left_wing="corollary_expansion", left_wing_q=q)
    with pytest.raises(DomainError):  # boundary knot not deep enough
        SmileCurve(np.array([-0.5, 0.0]), _vols(2),
                   left_wing="corollary_expansion", left_wing_q=1.5)
    sm = SmileCurve(np.array([-5.0, 0.0]), _vols(2),
                    left_wing="corollary_expansion", left_wing_q=1.5)
    assert sm.left_wing_q == 1.5


def test_out_of_range_slope_is_rejected():
    # The secant slopes here are finite, but the monotone cubic's end-point
    # slope overflows; the curve must refuse the grid up front.
    with pytest.raises(DomainError, match=r"knots \(-3, 0.5\) and \(-2, 1e\+308\)"):
        SmileCurve.from_points([(-3.0, 0.5), (-2.0, 1e308), (0.0, 0.2)])


def test_flat_and_from_points_constructors():
    sm = SmileCurve.flat(0.3)
    assert sm(0.0) == 0.3 and sm(-100.0) == 0.3 and sm(17.0) == 0.3
    sm = SmileCurve.from_points([(1.0, 0.3), (-1.0, 0.2), (0.0, 0.25)])
    assert list(sm.x) == [-1.0, 0.0, 1.0]
    assert sm.grid == ((-1.0, 0.2), (0.0, 0.25), (1.0, 0.3))


def test_clamped_extrapolation():
    sm = SmileCurve(np.array([-2.0, 0.0]), np.array([0.4, 0.2]))
    assert sm(-10.0) == 0.4
    assert sm(5.0) == 0.2
    assert sm.derivative(-10.0) == 0.0
    assert sm.derivative(5.0) == 0.0


def test_linear_interpolation_exact():
    sm = SmileCurve(np.array([-1.0, 1.0]), np.array([0.2, 0.4]),
                    interpolation="linear")
    assert math.isclose(sm(0.0), 0.3, rel_tol=1e-15)
    assert math.isclose(sm.derivative(0.5), 0.1, rel_tol=1e-12)


def test_monotone_cubic_respects_data():
    xs = np.array([-3.0, -1.0, 0.0, 1.0])
    vols = np.array([0.5, 0.3, 0.25, 0.24])
    sm = SmileCurve(xs, vols)
    for x, v in zip(xs, vols):
        assert math.isclose(sm(float(x)), float(v), rel_tol=1e-15)
    # monotone data -> monotone interpolant (the point of pchip)
    samples = sm(np.linspace(-3.0, 1.0, 101))
    assert np.all(np.diff(samples) <= 1e-15)


def test_derivative_matches_finite_difference():
    sm = SmileCurve(np.array([-4.0, -2.0, 0.0, 2.0]),
                    np.array([0.45, 0.32, 0.25, 0.27]))
    for x in (-3.1, -1.0, 0.7):
        fd = (sm(x + 1e-6) - sm(x - 1e-6)) / 2e-6
        assert math.isclose(sm.derivative(x), fd, rel_tol=1e-7, abs_tol=1e-9)


def test_corollary_wing_continuity_and_shape():
    sm = SmileCurve(np.array([-6.0, -3.0, 0.0]), np.array([0.8, 0.5, 0.3]),
                    left_wing="corollary_expansion", left_wing_q=1.5)
    # continuous at the boundary knot
    assert math.isclose(sm(-6.0 - 1e-9), 0.8, rel_tol=1e-6)
    # wing value solves d(x)^2 = 2 q log|x| + c at every depth
    for x in (-10.0, -1e3, -1e8):
        iv = sm(x)
        d = d_minus(x, iv)
        assert math.isclose(d * d, 2.0 * 1.5 * math.log(-x) + sm.wing.c,
                            rel_tol=1e-9)
    # wing derivative agrees with a finite difference
    for x in (-12.0, -300.0):
        fd = (sm(x + 1e-5) - sm(x - 1e-5)) / 2e-5
        assert math.isclose(sm.derivative(x), fd, rel_tol=1e-7)


def test_single_knot_curve():
    sm = SmileCurve(np.array([0.0]), np.array([0.2]))
    assert sm(-3.0) == 0.2 and sm(3.0) == 0.2
    assert sm.derivative(0.0) == 0.0


def test_vector_evaluation_matches_scalar():
    sm = SmileCurve(np.array([-2.0, 0.0, 1.0]), np.array([0.4, 0.25, 0.3]))
    xs = np.array([-5.0, -1.3, 0.2, 4.0])
    vec = sm(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert float(v) == sm(float(x))


def _mask_eval(sm, at, want_deriv):
    """The evaluator SmileCurve had before its cell table, kept as a
    reference: masks over an array, scipy's PPoly or np.interp inside the
    grid, and the clamps or the wing form on whole arrays outside."""
    xs = np.atleast_1d(np.asarray(at, dtype=float))
    out = np.empty_like(xs)
    left, right = xs < sm.x[0], xs > sm.x[-1]
    mid = ~(left | right)
    inner = xs[mid]
    if sm.x.size == 1:
        out[mid] = 0.0 if want_deriv else sm.vol[0]
    elif sm.interpolation == "monotone-cubic":
        pchip = PchipInterpolator(sm.x, sm.vol, extrapolate=False)
        out[mid] = (pchip.derivative() if want_deriv else pchip)(inner)
    elif want_deriv:
        k = np.searchsorted(sm.x, inner, side="right") - 1
        out[mid] = (np.diff(sm.vol) / np.diff(sm.x))[np.clip(k, 0, sm.x.size - 2)]
    else:
        out[mid] = np.interp(inner, sm.x, sm.vol)
    out[right] = 0.0 if want_deriv else sm.vol[-1]
    if sm.wing is None:
        out[left] = 0.0 if want_deriv else sm.vol[0]
    elif np.any(left):
        out[left] = (sm.wing.derivative if want_deriv else sm.wing.vol)(xs[left])
    return out


# [-2, -1.5, -1] with vols 0.1, 0.4, 0.1 hits both end rules at x = -1: the
# last PCHIP cell there is not 0.1 to the bit, and np.interp returns 0.1
# where the last secant line gives 0.10000000000000003.  The third example
# is a wing point whose value moves by an ulp under libm's log instead of
# numpy's.
@settings(max_examples=150)
@given(x0=st.floats(-30.0, -1.01),
       gaps=st.lists(st.floats(1e-3, 5.0), max_size=11),
       vols=st.lists(st.floats(0.01, 3.0), min_size=12, max_size=12),
       linear=st.booleans(),
       q=st.none() | st.floats(0.0, 3.0),
       probes=st.lists(st.floats(-40.0, 60.0), max_size=8))
@example(x0=-2.0, gaps=[0.5, 0.5], vols=[0.1, 0.4, 0.1] * 4, linear=False,
         q=None, probes=[])
@example(x0=-2.0, gaps=[0.5, 0.5], vols=[0.1, 0.4, 0.1] * 4, linear=True,
         q=1.5, probes=[])
@example(x0=-16.4, gaps=[], vols=[2.91] * 12, linear=False, q=2.4,
         probes=[-31.098905688023834])
def test_cell_table_matches_mask_evaluator(x0, gaps, vols, linear, q, probes):
    knots = (x0 + np.concatenate([[0.0], np.cumsum(gaps)])).tolist()
    wing = {} if q is None else {"left_wing": "corollary_expansion",
                                 "left_wing_q": q}
    sm = SmileCurve(knots, vols[:len(knots)],
                    interpolation="linear" if linear else "monotone-cubic",
                    **wing)
    pts = np.array(knots + [math.nextafter(k, d) for k in knots
                            for d in (-math.inf, math.inf)]
                   + [knots[0] - 1.0, knots[-1] + 1.0, -math.inf, math.inf,
                      math.nan] + probes)
    with np.errstate(all="ignore"):
        for want_deriv, ev in ((False, sm), (True, sm.derivative)):
            for x in pts.tolist():
                got = ev(x)
                assert type(got) is float
                ref = float(_mask_eval(sm, x, want_deriv)[0])
                assert got == ref or (math.isnan(got) and math.isnan(ref))
            ref = _mask_eval(sm, pts, want_deriv)
            assert np.array_equal(ev(pts), ref, equal_nan=True)
            grid = ev(pts.reshape(1, -1))
            assert grid.shape == (1, pts.size)
            assert np.array_equal(grid[0], ref, equal_nan=True)


def test_f_transform_flat():
    sm = SmileCurve.flat(0.2)
    for x in (-3.0, 0.0, 1.5):
        assert math.isclose(f_transform(x, sm), x / 0.2 + 0.1, rel_tol=1e-15)
    assert f_transform(0.0, sm) == -d_minus(0.0, 0.2)
