"""Scalar numerical kernels: normal distribution, log1mexp, quadrature, and
the negative branch of the Lambert W function.

Everything here is deterministic and side-effect free.  The normal CDF keeps
full relative accuracy far into the left tail through :func:`log_norm_cdf`,
which the option-pricing layer relies on for deep wings.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy.integrate import quad as _quad

from .errors import DomainError, MaxIterations, ToleranceNotReached

__all__ = [
    "LOG_FLOAT_MAX",
    "LOG_SQRT_2PI",
    "QuadratureResult",
    "norm_cdf",
    "norm_pdf",
    "log_norm_cdf",
    "mills_ratio",
    "log_mills_ratio",
    "log_mills_ratio_from_log",
    "log1mexp",
    "integrate",
    "lambert_w_m1",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# ln(DBL_MAX): e^x overflows float64 beyond it.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
_NEG_INV_E = -math.exp(-1.0)


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral plus an absolute error estimate."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0.0:
            raise DomainError("abs_error_estimate must be >= 0")
        if self.evaluations < 1:
            raise DomainError("evaluations must be >= 1")


def norm_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


def norm_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def log1mexp(u: float) -> float:
    """log(1 - e^u) for u < 0, stable at both ends."""
    if u >= 0.0:
        raise DomainError("log1mexp requires a negative argument")
    if u > -0.6931471805599453:
        return math.log(-math.expm1(u))
    return math.log1p(-math.exp(u))


def _log_mills_series(inv: float) -> float:
    """log of the asymptotic Mills series 1 - inv + 3 inv^2 - 15 inv^3 + ...
    in inv = 1/z^2, through log1p of (series - 1)."""
    return math.log1p(-inv * (1.0 - inv * (3.0 - inv * (15.0 - inv * (
        105.0 - inv * (945.0 - inv * 10395.0))))))


def log_norm_cdf(z: float) -> float:
    """log(Phi(z)), accurate over the whole real line.

    For z >= -30 the direct erfc evaluation keeps full precision.  Below
    that an asymptotic Mills-ratio expansion is used,

        Phi(-t) = phi(t)/t * (1 - 1/t^2 + 3/t^4 - 15/t^6 + ...),

    which carries the result to z ~ -1e8 and beyond without underflow.
    """
    if z >= -30.0:
        return math.log(0.5 * math.erfc(-z / _SQRT2))
    t = -z
    return (-0.5 * t * t - math.log(t) - LOG_SQRT_2PI
            + _log_mills_series(1.0 / (t * t)))


def log_mills_ratio(z: float) -> float:
    """log(Phi(-z)/phi(z)) for z > 0 without forming z^2/2 twice.

    The naive route log_norm_cdf(-z) + z^2/2 round-trips through a huge
    intermediate and loses absolute precision once z^2 dwarfs the result;
    here the quadratic terms cancel symbolically.
    """
    if z <= 0.0:
        raise DomainError("mills_ratio is defined for z > 0")
    if z >= 30.0:
        return -math.log(z) + _log_mills_series(1.0 / (z * z))
    return math.log(0.5 * math.erfc(z / _SQRT2)) + 0.5 * z * z + LOG_SQRT_2PI


def log_mills_ratio_from_log(log_z: float) -> float:
    """log(Phi(-z)/phi(z)) given log z rather than z itself.

    Matches :func:`log_mills_ratio` on the shared range; beyond it the
    asymptotic series runs on inv = e^(-2 log z), which underflows to zero
    (series -> 1) long before log_z is at any risk, so z may be far past
    the overflow threshold.
    """
    if log_z < 3.5:
        return log_mills_ratio(math.exp(log_z))
    return -log_z + _log_mills_series(math.exp(-2.0 * log_z))


def mills_ratio(z: float) -> float:
    """Phi(-z)/phi(z) for z > 0, computed in log space to survive deep z."""
    return math.exp(log_mills_ratio(z))


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    points: Sequence[float] | None = None,
) -> QuadratureResult:
    """Adaptive quadrature of ``f`` over [lo, hi] (endpoints may be infinite).

    Succeeds only when the absolute error estimate is within ``tol``;
    otherwise raises :class:`ToleranceNotReached` carrying the best estimate.
    ``points`` may list known awkward spots (kinks) inside a finite interval.
    """
    kwargs: dict = {"epsabs": tol, "epsrel": 1.49e-10, "limit": 200, "full_output": 1}
    if points is not None and math.isfinite(lo) and math.isfinite(hi):
        inner = [p for p in points if lo < p < hi]
        if inner:
            kwargs["points"] = sorted(inner)
            kwargs["limit"] = max(200, 2 * len(inner) + 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = _quad(f, lo, hi, **kwargs)
    value, abserr, infodict = out[0], out[1], out[2]
    evaluations = int(infodict.get("neval", 1)) if isinstance(infodict, dict) else 1
    if not math.isfinite(value) or abserr > tol:
        raise ToleranceNotReached(
            f"quadrature error estimate {abserr:.3e} exceeds tol {tol:.3e}",
            value=value,
            error_estimate=abserr,
        )
    return QuadratureResult(value=float(value), abs_error_estimate=float(abserr),
                            evaluations=max(evaluations, 1))


def _w_m1_branch_series(t: float) -> float:
    # Expansion around the branch point z = -1/e in p = -sqrt(2(ez+1)).
    p = -math.sqrt(2.0 * max(t, 0.0))
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (
        -43.0 / 540.0 + p * (769.0 / 17280.0 + p * (-221.0 / 8505.0))))))


def lambert_w_m1(z: float) -> float:
    """Lambert W, branch -1: the solution w <= -1 of w*exp(w) = z.

    Defined for z in [-1/e, 0).  Uses the branch-point series near -1/e and
    elsewhere a Halley iteration on g(w) = w + log(-w) - log(-z), safeguarded
    by a maintained sign-change bracket with bisection fallback.
    """
    if not (_NEG_INV_E <= z < 0.0):
        raise DomainError(f"lambert_w_m1 requires -1/e <= z < 0, got {z}")
    t = math.e * z + 1.0
    if t <= 1e-4:
        return _w_m1_branch_series(t)

    big_l = math.log(-z)  # <= -1
    w = big_l - math.log(-big_l) if big_l < -1.0 else -1.0
    if w > -1.0:
        w = -1.0 - math.sqrt(2.0 * t)

    # g is strictly increasing on (-inf, -1]; g(-1) = -1 - L >= 0.
    def g(u: float) -> float:
        return u + math.log(-u) - big_l

    hi = -1.0
    lo = w
    g_lo = g(lo)
    while g_lo > 0.0:
        lo = 2.0 * lo - hi  # march left, doubling the span
        g_lo = g(lo)

    tol_g = 4e-16 * max(1.0, -big_l)
    for _ in range(200):
        gw = g(w)
        if abs(gw) <= tol_g:
            return w
        if gw > 0.0:
            hi = w
        else:
            lo = w
        gp = (w + 1.0) / w
        gpp = -1.0 / (w * w)
        denom = 2.0 * gp * gp - gw * gpp
        w_new = w - 2.0 * gw * gp / denom if denom != 0.0 else 0.5 * (lo + hi)
        if not (lo < w_new < hi):
            w_new = 0.5 * (lo + hi)
        if w_new == w or (hi - lo) <= 4.0 * abs(w) * 2.220446049250313e-16:
            return w_new
        w = w_new
    raise MaxIterations("lambert_w_m1 did not converge", best=w)
