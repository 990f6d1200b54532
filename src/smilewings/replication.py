"""Static replication: the log contract from an option strip, the
variance-swap strike, and the discretely monitored variance-swap payoff.

The strip runs in log-moneyness on the smile's own cells: one array
integrand per leg, priced by the log-put kernel
:func:`~smilewings.blackscholes.log_put_array` so that deep-wing regions
contribute exactly rather than underflowing to zero, and integrated by
:func:`~smilewings.numerics.integrate_cells`.  Its one QUADPACK leg is a
corollary wing's far tail in u = log|x|, which runs to u = +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .blackscholes import SmileCurve, WingForm, log_put_array, z_cells
from .errors import DivergentWing, DomainError
from .numerics import integrate, integrate_cells, log1mexp, log_mills_ratio, \
    log_mills_ratio_from_log, log_norm_cdf

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


def _flat_tail(edge: float, sigma: float, side: float) -> np.ndarray:
    """Cell edges from ``edge`` out along a clamped side (``side`` = -1
    left, +1 right), where f is affine with slope 1/sigma: cells just under
    a unit of z wide, out to 40 sigma + sigma^2 past the edge.  There
    |d| >= 40 and the strip integrand, about phi(d)/|d|, is below the
    smallest float."""
    return edge + side * np.linspace(0.0, 40.0 * sigma + sigma * sigma,
                                     int(42.0 + sigma))


def log_contract_strip(smile: SmileCurve, tol: float = 1e-8) -> float:
    """E[-log S_T] from the K^{-2}-weighted strip of puts and calls.

    In log-moneyness the strip is the integral of p(x) e^{-x} over x < 0
    and of c(x) e^{-x}, which is the put at -x, over x > 0.  Both run on
    the smile's own cells through the array kernel :func:`log_put_array`,
    with edges at the knots and at the payoff's kink x = 0, each cell
    bisected by :func:`z_cells`.  A clamped side is a flat smile, whose
    integrand decays like a Gaussian in x: its cells stop where that
    underflows.  On a corollary wing the grid below x = -8 runs in
    u = log|x| over the knot images, and past the first knot the wing's
    own form is the strip's one QUADPACK leg, to u = +inf: a finite u range
    cannot bound a tail that decays like e^{-(q-1)u}.
    """
    _check_left_decay(smile)
    knots = smile.x

    def otm(x: np.ndarray) -> np.ndarray:
        return np.exp(log_put_array(-np.abs(x), smile(x)) - np.minimum(x, 0.0))

    right = _flat_tail(max(float(knots[-1]), 0.0), float(smile.vol[-1]), 1.0)
    wing = smile.wing
    if wing is None:
        left = _flat_tail(min(float(knots[0]), 0.0), float(smile.vol[0]), -1.0)
        edges = np.concatenate([left, knots, [0.0], right])
        return integrate_cells(otm, z_cells(smile, edges), tol=tol).value
    # Power-law decay: u = log|x| makes the far integrand exp(-(q-1)u), and
    # also walks the (possibly very deep) grid region in log steps.
    xc = -8.0
    u_c, u_grid = math.log(-xc), math.log(max(-float(knots[0]), -xc))
    share = tol / (3.0 if u_grid > u_c else 2.0)
    total = integrate(_wing_strip_far(wing), u_grid, math.inf, tol=share).value
    if u_grid > u_c:

        def deep(u: np.ndarray) -> np.ndarray:
            x = -np.exp(u)
            return np.exp(log_put_array(x, smile(x)) - x + u)

        u_edges = np.append(np.log(-knots[knots < xc]), u_c)
        total += integrate_cells(deep, u_edges, tol=share).value
    edges = np.concatenate([[xc], knots[knots > xc], [0.0], right])
    return total + integrate_cells(otm, z_cells(smile, edges), tol=share).value


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
