"""Wing asymptotics of the implied-volatility smile.

Left-wing slope bounds (the moment formula in its slope form), the
log-moment statistic and its tail-index estimator, and the sharp small-price
bounds built on the negative Lambert branch.  All operations require x < -1
so that log|x| > 0; deeper tails improve asymptotic fidelity but the cutoff
keeps every formula well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .blackscholes import SmileCurve, WingForm, d_minus
from .errors import DomainError, EmptyTail, NonPositiveVol
from .numerics import lambert_w_m1

__all__ = [
    "WingReport",
    "WingExpansion",
    "PutUpperBound",
    "lee_bound_check",
    "v_q",
    "put_upper_bound",
    "iv_wing_bound",
    "log_moment_statistic",
    "wing_expansion",
    "estimate_q",
]

_NEG_INV_E = -math.exp(-1.0)


def lee_bound_check(
    smile: SmileCurve,
    beta: float,
    x_range: Iterable[float],
    no_mass_at_zero: bool = True,
) -> list[tuple[float, str]]:
    """Points of ``x_range`` where I(x) >= sqrt(beta |x|).

    Valid for beta > 2 always, and for beta = 2 when the caller asserts the
    underlying puts no mass at zero (``no_mass_at_zero``).  An empty list
    means the bound holds everywhere on the range.
    """
    if math.isnan(beta) or beta < 2.0 or (beta == 2.0 and not no_mass_at_zero):
        raise DomainError(
            "lee_bound_check needs beta > 2, or beta = 2 with the "
            "no-mass-at-zero flag")
    violations: list[tuple[float, str]] = []
    for x in x_range:
        x = float(x)
        if x >= 0.0:
            raise DomainError(f"x_range must be negative, got {x}")
        iv = float(smile(x))
        cap = math.sqrt(beta * -x)
        if iv >= cap:
            violations.append(
                (x, f"I({x:g}) = {iv:.9g} >= sqrt({beta:g}|x|) = {cap:.9g}"))
    return violations


def v_q(k: float, q: float) -> float:
    """The small solution v in (0, k) of k = v(1 - log(v)/q),

        v_q(k) = exp(q + W_{-1}(-q k e^{-q})),

    defined for 0 < k <= e^{q-1} (q < 1) resp. 0 < k <= 1 (q >= 1); at the
    upper end k = 1, q = 1 the Lambert argument hits the branch point -1/e.
    """
    if math.isnan(q) or q <= 0.0:
        raise DomainError(f"v_q requires q > 0, got {q}")
    if math.isnan(k) or k <= 0.0:
        raise DomainError(f"v_q requires k > 0, got {k}")
    k_max = math.exp(q - 1.0) if q < 1.0 else 1.0
    if k > k_max:
        raise DomainError(f"v_q requires k <= {k_max} for q = {q}, got {k}")
    z = -q * k * math.exp(-q)
    if z < _NEG_INV_E:
        raise DomainError("Lambert argument left [-1/e, 0)")
    return math.exp(q + lambert_w_m1(z))


class PutUpperBound(NamedTuple):
    loose: float
    tight: float


def put_upper_bound(x: float, q: float, log_moment: float) -> PutUpperBound:
    """Small-price bounds from the q-th log-moment m = E|log S_T|^q:

        loose = e^x |x|^{-q} m,
        tight = (1/q) v_q(e^x) |log v_q(e^x)|^{1-q} m  (tight <= loose).

    At q = 0 both reduce to the no-arbitrage cap e^x (m = 1 convention).
    """
    if math.isnan(x) or math.isnan(q) or q < 0.0:
        raise DomainError("put_upper_bound requires finite x and q >= 0")
    if math.isnan(log_moment) or log_moment < 0.0:
        raise DomainError("log_moment must be >= 0")
    x_cap = q - 1.0 if q < 1.0 else 0.0
    if not x < x_cap:
        raise DomainError(
            f"put_upper_bound requires x < {x_cap} for q = {q}, got {x}")
    if q == 0.0:
        cap = math.exp(x) * log_moment
        return PutUpperBound(cap, cap)
    loose = math.exp(x) * (-x) ** (-q) * log_moment
    v = v_q(math.exp(x), q)
    tight = (v / q) * abs(math.log(v)) ** (1.0 - q) * log_moment
    return PutUpperBound(loose, tight)


def iv_wing_bound(x: float, p: float) -> float:
    """Left-wing vol bound sqrt(2p log|x| - 2x) - sqrt(2p log|x|); equals
    sqrt(2|x|) at p = 0 and decreases in p."""
    if math.isnan(x) or x >= -1.0:
        raise DomainError(f"iv_wing_bound requires x < -1, got {x}")
    if math.isnan(p) or p < 0.0:
        raise DomainError(f"iv_wing_bound requires p >= 0, got {p}")
    return float(WingForm(p, 0.0).vol(x))


def log_moment_statistic(x: float, smile: SmileCurve) -> float:
    """d(x, I(x)) / sqrt(2 log|x|): the pointwise proxy whose square tracks
    the largest finite log-moment order along the left wing."""
    if math.isnan(x) or x >= -1.0:
        raise DomainError(f"log_moment_statistic requires x < -1, got {x}")
    iv = float(smile(x))
    if iv <= 0.0:
        raise NonPositiveVol(f"smile returned {iv} at x = {x}")
    return d_minus(x, iv) / math.sqrt(2.0 * math.log(-x))


class WingExpansion(NamedTuple):
    exact_form: float
    series_form: float


def wing_expansion(x: float, q: float) -> WingExpansion:
    """The left-wing expansion at log-moment order q.

    exact_form is sqrt(2q log|x| - 2x) - sqrt(2q log|x|) (the same algebra
    as :func:`iv_wing_bound`); series_form is its sqrt(2|x|)-anchored
    expansion, whose leading remainder is q^2 log^2|x| / (4 sqrt2 |x|^{3/2}).
    """
    if math.isnan(x) or x >= -1.0:
        raise DomainError(f"wing_expansion requires x < -1, got {x}")
    if math.isnan(q) or q < 0.0:
        raise DomainError(f"wing_expansion requires q >= 0, got {q}")
    form = WingForm(q, 0.0)
    lg = math.log(-x)
    series = (math.sqrt(-2.0 * x) - math.sqrt(form.d2(lg))
              + q * lg / math.sqrt(-2.0 * x))
    return WingExpansion(float(form.vol(x)), series)


@dataclass(frozen=True)
class WingReport:
    """Outcome of a tail-index estimation run."""

    q_hat: float
    statistic_samples: tuple[tuple[float, float], ...]
    method: str
    residual: float
    bound_violations: tuple[tuple[float, str], ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.q_hat < 0.0 or self.residual < 0.0:
            raise DomainError("q_hat and residual must be >= 0")
        xs = [s[0] for s in self.statistic_samples]
        if any(b >= a for a, b in zip(xs, xs[1:])):
            raise DomainError("statistic_samples must have strictly decreasing x")


def estimate_q(
    smile: SmileCurve,
    x_tail: Sequence[float],
    method: str = "min-statistic",
    q_ceiling: float = 1e3,
) -> WingReport:
    """Estimate the log-moment order q from the smile's left wing.

    ``min-statistic`` squares the smallest pointwise statistic over the tail
    window (a direct liminf proxy and the default); ``least-squares`` fits
    the exact wing form by scalar bracketed minimization, breaking flat
    objectives toward the smallest q for determinism.  Estimates above
    ``q_ceiling`` are reported at the ceiling with a "no finite q detected"
    note, since a lognormal-like smile sends the statistic to infinity.
    """
    xs = sorted({float(v) for v in x_tail}, reverse=True)
    if not xs:
        raise EmptyTail("x_tail is empty")
    if any(not v < -1.0 for v in xs):
        raise DomainError("all tail points must satisfy x < -1")
    if method not in ("min-statistic", "least-squares"):
        raise DomainError(f"unknown method {method!r}")
    if not 0.0 < q_ceiling < math.inf:
        raise DomainError(f"q_ceiling must be finite and > 0, got {q_ceiling}")
    arr = np.array(xs)
    ivs = np.asarray(smile(arr), dtype=float)
    if np.any(ivs <= 0.0):
        raise NonPositiveVol("smile returned a non-positive vol on the tail")
    violations = tuple(
        (float(x), f"I({x:g}) = {iv:.9g} breaches the sqrt(2|x|) boundary")
        for x, iv in zip(arr, ivs) if iv >= math.sqrt(-2.0 * x))
    stats = (-arr / ivs - 0.5 * ivs) / np.sqrt(2.0 * np.log(-arr))
    samples = tuple((float(x), float(s)) for x, s in zip(arr, stats))
    notes: list[str] = []

    if method == "min-statistic":
        s_min = float(np.min(stats))
        q_hat = s_min * s_min if s_min > 0.0 else 0.0
        residual = float(np.sqrt(np.mean((stats * stats - q_hat) ** 2)))
    else:
        def obj(q: float) -> float:
            return float(np.sum((ivs - WingForm(q, 0.0).vol(arr)) ** 2))

        res = minimize_scalar(obj, bounds=(0.0, 1.5 * q_ceiling),
                              method="bounded", options={"xatol": 1e-12})
        q_hat = float(res.x)
        obj_min = float(res.fun)
        flat_tol = obj_min + 1e-15 * (1.0 + obj_min)
        if obj(0.0) <= flat_tol:
            q_hat = 0.0
        else:
            lo, hi = 0.0, q_hat
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if obj(mid) <= flat_tol:
                    hi = mid
                else:
                    lo = mid
            q_hat = hi
        residual = math.sqrt(obj(q_hat) / arr.size)

    if q_hat > q_ceiling:
        q_hat = q_ceiling
        notes.append("no finite q detected")
    return WingReport(
        q_hat=q_hat,
        statistic_samples=samples,
        method=method,
        residual=residual,
        bound_violations=violations,
        notes=tuple(notes),
    )
