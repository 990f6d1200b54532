"""Static replication: the log contract from an option strip, the
variance-swap strike, and the discretely monitored variance-swap payoff.

Strike integrals are carried out in log-moneyness, with put prices taken
through their log channel so that deep-wing regions contribute exactly
rather than underflowing to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .blackscholes import SmileCurve, WingForm, call_price, put_price
from .errors import DivergentWing, DomainError
from .numerics import integrate, log1mexp, log_mills_ratio, log_mills_ratio_from_log, \
    log_norm_cdf

__all__ = [
    "PricePath",
    "log_contract_strip",
    "varswap_strip",
    "discrete_varswap_payoff",
]


@dataclass(frozen=True, eq=False)
class PricePath:
    """A discrete price path on [0, T], strictly positive, t0 = 0."""

    times: NDArray[np.float64]
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise DomainError("times and values must be 1-d and equally long")
        if t[0] != 0.0:
            raise DomainError("path must start at t = 0")
        # Together these reject every non-finite time: a NaN compares false,
        # so it fails the order test, and in increasing times an infinity
        # can only be the last.
        if not t[-1] < math.inf:
            raise DomainError("times must be finite")
        if not (t[1:] > t[:-1]).all():
            raise DomainError("times must be strictly increasing")
        if not (v.min() > 0.0 and v.max() < math.inf):
            raise DomainError("path values must be finite and > 0")


def _check_left_decay(smile: SmileCurve) -> None:
    if smile.wing is not None and smile.wing.q <= 1.0:
        raise DivergentWing(
            f"left wing with q = {smile.wing.q} <= 1 makes the "
            "log-contract strip divergent")


def _wing_strip_far(wing: WingForm) -> Callable[[float], float]:
    """Far-left strip integrand in u = log|x|, taken straight from the wing.

    On the wing the price arguments collapse exactly: d = A(u) and
    d + sigma = B(u) = sqrt(A^2 + 2 e^u), so the integrand needs only
    A^2 = wing.d2(u).  Going through the rounded vol instead breaks down
    past |x| ~ 1e31, where ulp(sigma/2) exceeds A and d is irrecoverable.
    """

    def far(u: float) -> float:
        a = math.sqrt(max(wing.d2(u), 1e-300))
        t = a * a * math.exp(-u)
        log_b = 0.5 * (u + math.log(2.0 + t))
        gap = log_mills_ratio_from_log(log_b) - log_mills_ratio(a)
        arg = log_norm_cdf(-a) + log1mexp(min(gap, -1e-300)) + u
        return math.exp(arg) if arg > -745.0 else 0.0

    return far


def log_contract_strip(smile: SmileCurve, tol: float = 1e-8) -> float:
    """E[-log S_T] from the K^{-2}-weighted strip of puts and calls.

    In log-moneyness the two legs read int p(x) e^{-x} dx over x < 0 and
    int c(x) e^{-x} dx over x > 0; the put leg is evaluated through the log
    channel so deep wings never underflow, and the far-left region is
    integrated in u = log|x| where wing decay is exponential.
    """
    _check_left_decay(smile)

    def left(x: float) -> float:
        lp = put_price(x, smile(x)).log_p
        arg = lp - x
        return math.exp(arg) if arg > -745.0 else 0.0

    def right(x: float) -> float:
        c = call_price(x, smile(x))
        return c * math.exp(-x) if c > 0.0 else 0.0

    knots = np.asarray(smile.x, dtype=float)

    if smile.wing is not None:
        # Power-law decay: u = log|x| makes the far integrand exp(-(q-1)u),
        # and also walks the (possibly very deep) grid region in log steps.
        # Beyond the last knot the pure-wing form takes over analytically.
        # Knot images ride along as break points: the interpolant's
        # curvature jumps there, and cell-aligned panels converge where a
        # blind subdivision stalls.
        xc = -8.0
        u_grid = math.log(max(-float(knots[0]), -xc))
        part = tol / 4.0

        def far(u: float) -> float:
            x = -math.exp(u)
            lp = put_price(x, smile(x)).log_p
            arg = lp - x + u
            return math.exp(arg) if arg > -745.0 else 0.0

        total = 0.0
        if u_grid > math.log(-xc):
            u_knots = np.log(-knots[knots < xc]).tolist()
            total += integrate(far, math.log(-xc), u_grid, tol=part,
                               points=u_knots).value
        total += integrate(_wing_strip_far(smile.wing), u_grid, math.inf,
                           tol=part).value
    else:
        xc = min(float(knots[0]), -8.0)
        part = tol / 3.0
        total = integrate(left, -math.inf, xc, tol=part).value
    mid_knots = knots[(knots > xc) & (knots < 0.0)].tolist()
    total += integrate(left, xc, 0.0, tol=part, points=mid_knots).value
    total += integrate(right, 0.0, math.inf, tol=part).value
    return total


def varswap_strip(smile: SmileCurve, tol: float = 1e-8) -> float:
    """The continuously monitored variance-swap strike 2 E[-log S_T]."""
    return 2.0 * log_contract_strip(smile, tol=tol)


def discrete_varswap_payoff(
    path: PricePath,
    annualization: float = 252.0,
    horizon_T: float | None = None,
) -> float:
    """Sum of squared log-returns divided by the horizon in years.

    When ``horizon_T`` is omitted it defaults to n_returns/annualization
    (daily monitoring at the given annualization).  Scaling the whole path
    leaves the result unchanged.
    """
    if not 0.0 < annualization < math.inf:
        raise DomainError("annualization must be finite and > 0")
    values = path.values
    if values.size < 2:
        raise DomainError("path needs at least 2 points")
    if not values.min() > 0.0:
        raise DomainError("path values must be > 0")
    n = values.size - 1
    horizon = float(horizon_T) if horizon_T is not None else n / float(annualization)
    if not 0.0 < horizon < math.inf:
        raise DomainError("horizon_T must be finite and > 0")
    lv = np.log(values)
    r = lv[1:] - lv[:-1]
    return float(r.dot(r) / horizon)
