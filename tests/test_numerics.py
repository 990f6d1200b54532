"""Scalar kernels: normal tails, Mills ratios, quadrature, Lambert W.

Reference values were generated once with mpmath at 50 digits and are
frozen here as literals; the library itself never depends on mpmath.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smilewings.errors import (
    DomainError,
    ToleranceNotReached,
)
from smilewings.numerics import (
    QuadratureResult,
    integrate,
    lambert_w_m1,
    log_mills_ratio,
    log_mills_ratio_from_log,
    log_norm_cdf,
    mills_ratio,
    norm_cdf,
    norm_pdf,
)


def test_norm_cdf_pdf_pins():
    assert norm_cdf(0.0) == 0.5
    assert math.isclose(norm_cdf(1.96), 0.97500210485177957, rel_tol=1e-15)
    assert math.isclose(norm_pdf(0.0), 0.39894228040143268, rel_tol=1e-15)
    assert math.isclose(norm_cdf(-1.0) + norm_cdf(1.0), 1.0, rel_tol=1e-15)


# log Phi(z) at depths spanning the erfc branch, the series branch, and the
# region where z^2/2 alone would overflow the exponent budget of a float.
_LOG_NORM_CDF_PINS = [
    (-5.0, -15.064998393988726),
    (-10.0, -53.231285150512471),
    (-20.0, -203.91715537109726),
    (-38.0, -726.55721601882013),
    (-100.0, -5005.5242086942051),
    (-300.0, -45006.622732118663),
]


@pytest.mark.parametrize("z, expected", _LOG_NORM_CDF_PINS)
def test_log_norm_cdf_pins(z, expected):
    assert math.isclose(log_norm_cdf(z), expected, rel_tol=1e-14)


def test_log_norm_cdf_branch_seam():
    # The erfc branch (z >= -30) and the asymptotic branch must both track
    # an independent evaluation across the hand-over.
    from scipy.special import log_ndtr
    for z in np.arange(-35.0, -24.9, 0.25):
        assert math.isclose(log_norm_cdf(float(z)), float(log_ndtr(z)),
                            rel_tol=1e-13)


def test_log_norm_cdf_right_side():
    assert log_norm_cdf(0.0) == math.log(0.5)
    assert log_norm_cdf(10.0) == pytest.approx(0.0, abs=1e-15)


def test_mills_ratio_identity_moderate():
    # log R(z) = log Phi(-z) - log phi(z), checkable directly at moderate z.
    for z in (0.5, 2.0, 8.0, 25.0):
        direct = log_norm_cdf(-z) + 0.5 * z * z + 0.5 * math.log(2.0 * math.pi)
        assert math.isclose(log_mills_ratio(z), direct, rel_tol=1e-12)


def test_mills_ratio_asymptote():
    # z R(z) -> 1 from below, monotonically over the probe points.
    errs = [abs(z * mills_ratio(z) - 1.0) for z in (5.0, 10.0, 20.0, 38.0)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[0] < 0.05


def test_mills_ratio_rejects_nonpositive():
    with pytest.raises(DomainError):
        log_mills_ratio(0.0)
    with pytest.raises(DomainError):
        log_mills_ratio(-1.0)


def test_log_mills_ratio_from_log_matches_direct():
    for log_z in (0.1, 2.0, 3.4, 3.5, 4.0, 30.0, 300.0):
        z = math.exp(log_z)
        assert math.isclose(log_mills_ratio_from_log(log_z),
                            log_mills_ratio(z), rel_tol=1e-14)


def test_log_mills_ratio_from_log_past_float_overflow():
    # z = e^800 is not a representable float; the log-argument form still
    # answers (the series correction underflows to exactly zero there).
    assert log_mills_ratio_from_log(800.0) == -800.0
    assert log_mills_ratio_from_log(1e6) == -1e6


def test_integrate_polynomial():
    res = integrate(lambda t: 3.0 * t * t, 0.0, 2.0, tol=1e-12)
    assert math.isclose(res.value, 8.0, rel_tol=1e-12)
    assert res.abs_error_estimate <= 1e-12
    assert res.evaluations >= 1


def test_integrate_gaussian_tail():
    res = integrate(norm_pdf, -math.inf, math.inf, tol=1e-10)
    assert math.isclose(res.value, 1.0, rel_tol=1e-12)


def test_integrate_kink_with_points():
    # |t - 0.3| has a corner; declaring it keeps the estimate honest.
    res = integrate(lambda t: abs(t - 0.3), 0.0, 1.0, tol=1e-13,
                    points=[0.3])
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert math.isclose(res.value, exact, rel_tol=1e-13)


def test_integrate_points_outside_interval_ignored():
    res = integrate(lambda t: t, 0.0, 1.0, tol=1e-12, points=[-5.0, 7.0])
    assert math.isclose(res.value, 0.5, rel_tol=1e-12)


def test_integrate_refuses_unreachable_tolerance():
    # ~1600 oscillations against a 200-interval budget: the error estimate
    # cannot reach 1e-14 and the failure must be loud, not silent.
    with pytest.raises(ToleranceNotReached) as exc:
        integrate(lambda t: math.sin(1e4 * t), 0.0, 1.0, tol=1e-14)
    assert exc.value.error_estimate is None or exc.value.error_estimate > 1e-14


def test_quadrature_result_validation():
    with pytest.raises(DomainError):
        QuadratureResult(1.0, -1e-3, 10)
    with pytest.raises(DomainError):
        QuadratureResult(1.0, 0.0, 0)


def test_lambert_pin():
    assert math.isclose(lambert_w_m1(-0.1), -3.5771520639572972,
                        rel_tol=1e-14)


def test_lambert_branch_point():
    assert lambert_w_m1(-math.exp(-1.0)) == -1.0


def test_lambert_domain():
    for z in (0.0, 1e-3, -math.exp(-1.0) - 1e-12, -1.0):
        with pytest.raises(DomainError):
            lambert_w_m1(z)


@given(st.floats(min_value=-math.exp(-1.0) * (1.0 - 1e-12),
                 max_value=-1e-300, allow_nan=False))
def test_lambert_defining_equation(z):
    w = lambert_w_m1(z)
    assert w <= -1.0
    assert abs(w * math.exp(w) / z - 1.0) < 1e-10


def test_lambert_deep_argument():
    # Far down the branch w ~ log(-z); residual must hold there too.
    z = -1e-280
    w = lambert_w_m1(z)
    assert abs(w * math.exp(w) / z - 1.0) < 1e-12
    assert w < -600.0
