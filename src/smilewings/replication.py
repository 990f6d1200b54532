"""Static replication: convex payoffs from option strips, the log contract,
the variance-swap strike, and the discretely monitored variance-swap payoff.

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
    "ConvexPayoff",
    "replicate_convex",
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


@dataclass(frozen=True, eq=False)
class ConvexPayoff:
    """A convex payoff of the terminal price with density f'' = mu.

    ``second_derivative_density`` is the absolutely continuous part of mu;
    slope kinks (atoms of mu) are listed in ``kinks`` as (location, jump)
    pairs, each adding jump * P(location) or jump * C(location) to the
    replication depending on which side of the pivot it falls.
    """

    f: Callable[[float], float]
    f_prime: Callable[[float], float]
    second_derivative_density: Callable[[float], float]
    pivot_x0: float
    kinks: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.pivot_x0 > 0.0:
            raise DomainError(f"pivot must be > 0, got {self.pivot_x0}")
        object.__setattr__(self, "kinks", tuple(self.kinks))
        for loc, jump in self.kinks:
            if loc <= 0.0:
                raise DomainError("kink locations must be > 0")
            if jump < 0.0:
                raise DomainError("kink weights must be >= 0 (convexity)")


def replicate_convex(payoff: ConvexPayoff, smile: SmileCurve, tol: float = 1e-8) -> float:
    """Price E[f(S_T)] as f(x0) + f'(x0)(1 - x0) + strip of puts below the
    pivot and calls above it, weighted by mu = f''."""
    x0 = payoff.pivot_x0
    log_x0 = math.log(x0)
    mu = payoff.second_derivative_density

    def put_leg(x: float) -> float:
        p = put_price(x, smile(x)).p
        if p == 0.0:
            return 0.0
        y = math.exp(x)
        return p * mu(y) * y

    def call_leg(x: float) -> float:
        c = call_price(x, smile(x))
        if c == 0.0:
            return 0.0
        y = math.exp(x)
        return c * mu(y) * y

    value = payoff.f(x0) + payoff.f_prime(x0) * (1.0 - x0)
    value += integrate(put_leg, -math.inf, log_x0, tol=0.5 * tol).value
    value += integrate(call_leg, log_x0, math.inf, tol=0.5 * tol).value
    for loc, jump in payoff.kinks:
        if jump == 0.0:
            continue
        xk = math.log(loc)
        if loc <= x0:
            value += jump * put_price(xk, smile(xk)).p
        else:
            value += jump * call_price(xk, smile(xk))
    return value


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
