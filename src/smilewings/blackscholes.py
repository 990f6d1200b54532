"""Normalized Black-Scholes pricing, implied volatility, and smile curves.

All prices are normalized by spot: the put with log-moneyness x on a
unit-forward underlying is

    P(x, sigma) = e^x Phi(-d) - Phi(-d - sigma),   d = -x/sigma - sigma/2,

so 0 <= P < e^x, with intrinsic value (e^x - 1)^+ at sigma = 0.  Deep wings
are handled through a parallel log-price channel that never underflows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import (
    DomainError,
    MaxIterations,
    NonPositiveVol,
    PriceAtOrAboveCap,
    PriceBelowIntrinsic,
)
from .numerics import LOG_FLOAT_MAX, LOG_SQRT_2PI, log1mexp, log_mills_ratio, \
    log_norm_cdf, norm_cdf, norm_pdf

__all__ = [
    "NormalizedPutPrice",
    "SmileCurve",
    "WingForm",
    "d_minus",
    "put_price",
    "call_price",
    "vega",
    "implied_vol",
    "f_transform",
]

def d_minus(x: float, sigma: float) -> float:
    """The lower Black-Scholes argument -x/sigma - sigma/2."""
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DomainError(f"d_minus requires sigma > 0, got {sigma}")
    return -x / sigma - 0.5 * sigma


@dataclass(frozen=True)
class NormalizedPutPrice:
    """A normalized put price with log channels carried alongside.

    The log channels matter: on deep wings the price itself underflows
    float64, and for x > 0 with small vol the time value drowns under the
    intrinsic part at float precision.  ``log_p`` is log of the price,
    ``log_time_value`` log of (p - intrinsic); both stay informative where
    the linear fields go numb, and the implied-vol solver works on them.
    """

    p: float
    log_p: float | None = None
    log_time_value: float | None = None

    def __post_init__(self) -> None:
        if math.isnan(self.p) or self.p < 0.0:
            raise DomainError(f"put price must be >= 0, got {self.p}")
        if self.log_p is None:
            lp = math.log(self.p) if self.p > 0.0 else -math.inf
            object.__setattr__(self, "log_p", lp)


def _log_put(x: float, sigma: float) -> float:
    d = -x / sigma - 0.5 * sigma
    la = x + log_norm_cdf(-d)
    if d >= 8.0:
        # lb - la reduces exactly to a ratio of Mills terms: the x-sized
        # quadratic pieces cancel symbolically, which the naive difference
        # of two ~|x| logs cannot do at extreme moneyness.
        gap = log_mills_ratio(d + sigma) - log_mills_ratio(d)
        return la + log1mexp(min(gap, -1e-300))
    lb = log_norm_cdf(-d - sigma)
    return la + log1mexp(lb - la)


def _log_call(x: float, sigma: float) -> float:
    d = -x / sigma - 0.5 * sigma
    la = log_norm_cdf(d + sigma)
    if -d - sigma >= 8.0:
        gap = log_mills_ratio(-d) - log_mills_ratio(-d - sigma)
        return la + log1mexp(min(gap, -1e-300))
    lb = x + log_norm_cdf(d)
    return la + log1mexp(min(lb - la, -1e-300))


def _check_x(x: float, caller: str) -> None:
    if not -math.inf < x <= LOG_FLOAT_MAX:
        raise DomainError(f"{caller} requires finite x <= ln(DBL_MAX) "
                          f"= {LOG_FLOAT_MAX!r}, got {x}")


def put_price(x: float, sigma: float) -> NormalizedPutPrice:
    """Normalized Black-Scholes put.  ``sigma = 0`` returns the intrinsic
    value and ``sigma = inf`` the cap e^x."""
    _check_x(x, "put_price")
    if math.isnan(sigma) or sigma < 0.0:
        raise DomainError(f"put_price requires sigma >= 0, got {sigma}")
    if sigma == 0.0:
        intrinsic = max(math.expm1(x), 0.0)
        lp = math.log(intrinsic) if intrinsic > 0.0 else -math.inf
        return NormalizedPutPrice(intrinsic, lp, -math.inf)
    if math.isinf(sigma):
        return NormalizedPutPrice(math.exp(x), x, x)
    d = -x / sigma - 0.5 * sigma
    log_p = _log_put(x, sigma)
    if d <= 30.0:
        p = math.exp(x) * norm_cdf(-d) - norm_cdf(-d - sigma)
        p = max(p, 0.0)
    else:
        p = math.exp(log_p) if log_p > -745.0 else 0.0
    # Time value of a put at x >= 0 equals the call price, which has its own
    # stable log form; for x < 0 the whole price is time value.
    log_tv = _log_call(x, sigma) if x > 0.0 else log_p
    return NormalizedPutPrice(p, log_p, log_tv)


def call_price(x: float, sigma: float) -> float:
    """Normalized Black-Scholes call Phi(d + sigma) - e^x Phi(d)."""
    # No upper bound on x: the strip route prices calls far above the money.
    if not math.isfinite(x):
        raise DomainError(f"call_price requires finite x, got {x}")
    if math.isnan(sigma) or sigma < 0.0:
        raise DomainError(f"call_price requires sigma >= 0, got {sigma}")
    if sigma == 0.0:
        return -math.expm1(x) if x <= 0.0 else 0.0
    if math.isinf(sigma):
        return 1.0
    d = -x / sigma - 0.5 * sigma
    # e^x Phi(d) through logs: at large x the factors overflow/underflow in
    # opposite directions while the product stays tiny.
    arg = x + log_norm_cdf(d)
    sub = math.exp(arg) if arg > -745.0 else 0.0
    return max(norm_cdf(d + sigma) - sub, 0.0)


def vega(x: float, sigma: float) -> float:
    """dP/dsigma = e^x phi(d) = phi(d + sigma); identical for put and call."""
    d = d_minus(x, sigma)
    return math.exp(x) * norm_pdf(d)


def _log_vega(x: float, sigma: float) -> float:
    d = -x / sigma - 0.5 * sigma
    return x - 0.5 * d * d - LOG_SQRT_2PI


def implied_vol(x: float, price: float | NormalizedPutPrice) -> float:
    """Invert the normalized put price to a volatility.

    Accepts either a plain price or a :class:`NormalizedPutPrice`; the latter
    keeps deep-wing quotes invertible after the linear price underflows.
    Raises :class:`PriceBelowIntrinsic` / :class:`PriceAtOrAboveCap` outside
    the attainable band, and returns 0.0 exactly at intrinsic.
    """
    _check_x(x, "implied_vol")
    log_tv: float | None = None
    if isinstance(price, NormalizedPutPrice):
        p, log_p = price.p, float(price.log_p)
        if price.log_time_value is not None:
            log_tv = float(price.log_time_value)
        if math.isnan(log_p) or (log_tv is not None and math.isnan(log_tv)):
            raise DomainError("price log channel is NaN")
    else:
        p = float(price)
        if math.isnan(p):
            raise DomainError("price is NaN")
        log_p = math.log(p) if p > 0.0 else -math.inf
    intrinsic = max(math.expm1(x), 0.0)
    # A couple of ulps of slack: a linear price within rounding distance of
    # intrinsic is at intrinsic (the time value lives far below resolution),
    # not below it.  Above the money the price is a difference of terms of
    # size e^x, so its rounding scales with e^x rather than with intrinsic.
    slack = 4e-16 * math.exp(x) if intrinsic > 0.0 else 0.0
    if p < intrinsic - slack - 5e-324:
        raise PriceBelowIntrinsic(
            f"price {p} below intrinsic {intrinsic} at x = {x}")
    if log_p >= x:
        raise PriceAtOrAboveCap(f"price {p} at or above cap e^{x}")
    if x > 0.0:
        if log_tv is None:
            tv = p - intrinsic
            log_tv = math.log(tv) if tv > 0.0 else -math.inf
        if log_tv == -math.inf:
            return 0.0
        target = log_tv
        objective = _log_call
    else:
        if p == intrinsic and log_p == -math.inf:
            return 0.0
        target = log_p
        objective = _log_put

    def g(sigma: float) -> float:
        return objective(x, sigma) - target

    hi = 1.0
    for _ in range(500):
        if g(hi) >= 0.0:
            break
        hi *= 2.0
    lo = hi
    while True:
        lo *= 0.5
        if lo == 0.0:
            # The target lies below what the log objective resolves: above
            # the money its floor is about log 1e-300.
            raise MaxIterations(
                f"no vol above 0 reaches price {p} at x = {x}", best=0.0)
        if g(lo) <= 0.0:
            break

    tol_g = 4e-16 * max(1.0, abs(target))
    sigma = 0.5 * (lo + hi)
    for _ in range(200):
        gs = g(sigma)
        if abs(gs) <= tol_g:
            return sigma
        if gs > 0.0:
            hi = sigma
        else:
            lo = sigma
        # Capping the slope at DBL_MAX can only lengthen the Newton step,
        # and a step that leaves the bracket falls back to bisection.
        slope = math.exp(min(_log_vega(x, sigma) - (gs + target), LOG_FLOAT_MAX))
        nxt = sigma - gs / slope if slope > 0.0 else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - sigma) <= 1e-16 * sigma:
            return nxt
        sigma = nxt
    raise MaxIterations("implied_vol did not converge", best=sigma)


def _log_abs(x):
    # numpy for arrays, libm for scalars: the two logs can differ in the
    # last bit, and each caller keeps the one it has always used.
    return np.log(-x) if isinstance(x, np.ndarray) else math.log(-x)


@dataclass(frozen=True)
class WingForm:
    """The corollary left wing at log-moment order q,

        d(x)^2 = 2 q log|x| + c,    I(x) = sqrt(d^2 - 2x) - d,    x < 0,

    with the squared distance written in u = log|x| as ``d2(u)``.  Values
    and derivatives take a float or an array.  On the wing the transform
    maps read f(x) = -d and h(x) = f(x) - I(x) = -sqrt(d^2 - 2x), which
    :meth:`log_f_inv` and :meth:`h_inv` invert.
    """

    q: float
    c: float

    def __post_init__(self) -> None:
        if math.isnan(self.q) or self.q < 0.0:
            raise DomainError(f"wing order q must be >= 0, got {self.q}")
        if not math.isfinite(self.c):
            raise DomainError(f"wing constant c must be finite, got {self.c}")

    @classmethod
    def anchored(cls, x0: float, vol0: float, q: float) -> "WingForm":
        """The wing through (x0, vol0): c is d(x0)^2 less the c = 0 wing's
        d^2 there, so that I(x0) = vol0."""
        d0 = -x0 / vol0 - 0.5 * vol0
        return cls(q, d0 * d0 - cls(q, 0.0).d2(math.log(-x0)))

    def d2(self, u):
        """Squared distance d^2 at u = log|x|."""
        return 2.0 * self.q * u + self.c

    def log_f_inv(self, z: float) -> float:
        """log|f^-1(z)|: the u at which d2(u) = z^2, so f^-1(z) = -e^u."""
        return (z * z - self.c) / (2.0 * self.q)

    def vol(self, x):
        """I(x) = sqrt(d^2 - 2x) - d."""
        a2 = self.d2(_log_abs(x))
        return np.sqrt(a2 - 2.0 * x) - np.sqrt(a2)

    def derivative(self, x):
        """dI/dx = (q/x - 1)/sqrt(d^2 - 2x) - q/(x d), with the last term 0
        where d = 0."""
        a2 = self.d2(_log_abs(x))
        a = np.sqrt(a2)
        with np.errstate(divide="ignore"):
            da = np.where(a > 0.0, self.q / (x * a), 0.0)
        return (self.q / x - 1.0) / np.sqrt(a2 - 2.0 * x) - da

    def h_inv(self, z: float) -> float:
        """The x < 0 with h(x) = z: solves d2(log u) + 2u = z^2 for u = |x|."""
        target = z * z

        def bal(u: float) -> float:
            return self.d2(math.log(u)) + 2.0 * u - target

        hi = 0.5 * max(target - self.c, 2.0) + 1.0
        lo = hi
        while bal(lo) > 0.0:
            lo *= 0.5
            if lo < 1e-300:
                raise DomainError(f"h_inv bracketing failed at z = {z}")
        while bal(hi) < 0.0:
            hi *= 2.0
        return -brentq(bal, lo, hi, xtol=1e-13, rtol=8.9e-16)


@dataclass(frozen=True, eq=False)
class SmileCurve:
    """An implied-volatility curve on all of R.

    ``x``/``vol`` give the grid; between knots the curve follows the chosen
    interpolation, beyond the last knot it is clamped flat, and beyond the
    first knot it is either clamped or continued with the tail-index wing
    :class:`WingForm` (``wing``), anchored so the continuation is exactly
    continuous at the boundary knot.  ``certified_q`` records a moment order
    the generating model guarantees (None when unknown).

    The interpolant is a cell table built on first use: per cell, value and
    derivative coefficients in s = x - knot from the constant term up, read
    from scipy's PCHIP or the secant slopes, and summed in scipy's order.
    """

    x: NDArray[np.float64]
    vol: NDArray[np.float64]
    interpolation: Literal["monotone-cubic", "linear"] = "monotone-cubic"
    left_wing: Literal["clamp", "corollary_expansion"] = "clamp"
    left_wing_q: float | None = None
    certified_q: float | None = None

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        vol = np.atleast_1d(np.asarray(self.vol, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "vol", vol)
        if x.ndim != 1 or vol.ndim != 1 or x.shape != vol.shape or x.size == 0:
            raise DomainError("x and vol must be 1-d arrays of equal nonzero length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(vol))):
            raise DomainError("smile grid must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise DomainError("x grid must be strictly increasing")
        if np.any(vol <= 0.0):
            raise NonPositiveVol("implied vols must be strictly positive")
        # The monotone cubic's end-point slopes form products of up to three
        # secant slopes times the grid span; those must stay in float range.
        with np.errstate(over="ignore"):
            slopes = np.diff(vol) / np.diff(x)
            steep = ~np.isfinite(3.0 * slopes * max(x[-1] - x[0], 1.0))
        if np.any(steep):
            k = int(np.argmax(steep))
            raise DomainError(
                f"secant slope {slopes[k]:g} between knots ({x[k]:g}, "
                f"{vol[k]:g}) and ({x[k + 1]:g}, {vol[k + 1]:g}) is out of "
                "float range")
        if self.interpolation not in ("monotone-cubic", "linear"):
            raise DomainError(f"unknown interpolation {self.interpolation!r}")
        if self.left_wing == "corollary_expansion":
            q = self.left_wing_q
            if q is None or not 0.0 <= q < math.inf:
                raise DomainError(
                    f"corollary_expansion needs a finite left_wing_q >= 0, got {q}")
            if x[0] >= -1.0:
                raise DomainError(
                    "corollary_expansion needs the boundary knot at x < -1")
        elif self.left_wing != "clamp":
            raise DomainError(f"unknown left wing {self.left_wing!r}")
        if self.certified_q is not None and (
                math.isnan(self.certified_q) or self.certified_q < 0.0):
            raise DomainError("certified_q must be >= 0 when given")

    @classmethod
    def flat(cls, sigma: float, lo: float = -20.0, hi: float = 5.0,
             n: int = 11, **kwargs) -> "SmileCurve":
        xs = np.linspace(lo, hi, n)
        return cls(xs, np.full_like(xs, float(sigma)), **kwargs)

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]], **kwargs) -> "SmileCurve":
        pts = sorted(points)
        xs = np.array([p[0] for p in pts], dtype=float)
        vols = np.array([p[1] for p in pts], dtype=float)
        return cls(xs, vols, **kwargs)

    @property
    def grid(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.x.tolist(), self.vol.tolist()))

    @cached_property
    def wing(self) -> WingForm | None:
        """The left-wing continuation past the first knot; None when clamped."""
        if self.left_wing == "clamp":
            return None
        return WingForm.anchored(float(self.x[0]), float(self.vol[0]),
                                 float(self.left_wing_q))

    @cached_property
    def _table(self) -> tuple[list[float], list[float], list]:
        """Knots, vols and the (value, derivative) coefficients of each cell."""
        knots, vols = self.x.tolist(), self.vol.tolist()
        if len(knots) == 1:
            return knots, vols, [([vols[0]], [0.0])]
        if self.interpolation == "monotone-cubic":
            c = PchipInterpolator(self.x, self.vol).c
            dc = c[:-1] * np.array([[3.0], [2.0], [1.0]])  # PPoly.derivative()
            return knots, vols, list(zip(c[::-1].T.tolist(), dc[::-1].T.tolist()))
        slopes = (np.diff(self.vol) / np.diff(self.x)).tolist()
        cells = [([v, m], [m]) for v, m in zip(vols, slopes)]
        # numpy's interp reads vol[-1] exactly at the last knot; so does a
        # zero-width closing cell, with the last secant slope as derivative.
        return knots, vols, cells + [([vols[-1], 0.0], [slopes[-1]])]

    def _at(self, x: float, want_deriv: bool) -> float:
        knots, vols, cells = self._table
        if x < knots[0]:
            if self.wing is None:
                return 0.0 if want_deriv else vols[0]
            # A one-element array keeps the numpy log the wing has always used.
            form = self.wing.derivative if want_deriv else self.wing.vol
            return float(form(np.array([x]))[0])
        if x > knots[-1]:
            return 0.0 if want_deriv else vols[-1]
        # Cell k owns [x_k, x_k+1), as in scipy's find_interval; the summation
        # order is scipy's too, so values match PPoly to the bit.
        i = min(bisect_right(knots, x), len(cells)) - 1
        s = x - knots[i]
        res, z = 0.0, 1.0
        for c in cells[i][want_deriv]:
            res += c * z
            z *= s
        return res

    def _eval(self, at, want_deriv: bool):
        if not isinstance(at, float) and np.ndim(at):
            arr = np.asarray(at, dtype=float)
            vals = [self._at(v, want_deriv) for v in arr.ravel().tolist()]
            return np.array(vals, dtype=float).reshape(arr.shape)
        return self._at(float(at), want_deriv)

    def __call__(self, at):
        return self._eval(at, want_deriv=False)

    def derivative(self, at):
        """dI/dx, from the interpolant inside the grid and the wing form
        outside (0 on clamped sides)."""
        return self._eval(at, want_deriv=True)


def f_transform(x, smile: SmileCurve):
    """The monotone change of variable f(x) = x/I(x) + I(x)/2 = -d_minus."""
    iv = smile(x)
    return x / iv + 0.5 * iv
