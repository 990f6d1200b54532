"""Reference models used to generate smiles and check moment machinery.

Three exactly-normalized (E[S_T] = 1, T = 1) models of L = log S_T:

* ``Lognormal``   -- L ~ N(-sigma^2/2, sigma^2); every moment finite.
* ``FMLS``        -- finite-moment log-stable: L is a totally left-skewed
  alpha-stable variable, drift solved so E[e^L] = 1.  E|L|^q < infinity
  exactly for q < alpha, so alpha is the model's certified moment order.
* ``LogMixture``  -- L = sigma_x Z - Y - kappa with Z standard normal and
  Y inverse-gamma(y_shape, y_scale) independent; |L| has moments exactly
  up to y_shape.  Y's density is scipy's inverse-gamma expression,
  evaluated bit for bit as ``scipy.stats.invgamma.pdf`` evaluates it, but
  without a frozen distribution.

FMLS put prices are produced by four stitched regimes: a pure tail series
for x <= -120 (where only the log channel of the price is representable),
the integral P(x) = int_{-inf}^x e^l F(l) dl of the cdf for -120 < x < -2,
summed over Gauss-Legendre cells of a fixed lattice that every strike of a
grid shares, Carr-Madan Fourier inversion of the call for -2 <= x <= 0.5,
and above 0.5 the call as an integral of the density, summed over the cells
of a second lattice in one upward sweep that every strike shares.
``model_smile`` prices its whole grid in one call and warns about dropped
points in grid order.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from scipy import special
from scipy.integrate import quad
from scipy.stats import levy_stable

from .blackscholes import NormalizedPutPrice, SmileCurve, implied_vol, put_price
from .errors import DomainError, SmileWingsError, ToleranceNotReached, Unsupported
from .numerics import LOG_FLOAT_MAX, integrate
from .replication import PricePath

__all__ = [
    "Lognormal",
    "Brownian",
    "FMLS",
    "LogMixture",
    "ModelSpec",
    "CertifiedQ",
    "certified_q",
    "model_put",
    "model_smile",
    "log_moment_oracle",
    "fmls_mean_log_oracle",
    "sample_paths",
]


# ---------------------------------------------------------------------------
# model specifications


@dataclass(frozen=True)
class Lognormal:
    """Black-Scholes reference: log S_T ~ N(-sigma^2/2, sigma^2)."""

    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")


@dataclass(frozen=True)
class Brownian:
    """Gaussian component used inside mixtures."""

    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")


@dataclass(frozen=True)
class FMLS:
    """Finite-moment log-stable exponential-Levy model.

    ``alpha`` in (1, 2) strictly: the stability index, and at the same time
    the exact supremum of finite log-moment orders.  ``scale`` > 0 sets the
    stable scale parameter.
    """

    alpha: float
    scale: float

    def __post_init__(self) -> None:
        if not (1.0 < self.alpha < 2.0):
            raise DomainError(
                f"alpha must lie strictly in (1, 2), got {self.alpha}")
        if not 0.0 < self.scale < math.inf:
            raise DomainError(f"scale must be finite and > 0, got {self.scale}")


@dataclass(frozen=True)
class LogMixture:
    """log S_T = sigma_x Z - Y - kappa, Y ~ inverse-gamma(y_shape, y_scale).

    The inverse-gamma hump puts a polynomial tail on |log S_T| at order
    y_shape while S_T itself stays bounded above in the left factor; kappa
    renormalizes the mean of S_T to one.
    """

    x_part: Brownian
    y_shape: float
    y_scale: float

    def __post_init__(self) -> None:
        if not isinstance(self.x_part, Brownian):
            raise DomainError("x_part must be a Brownian component")
        if not 0.0 < self.y_shape < math.inf:
            raise DomainError(f"y_shape must be finite and > 0, got {self.y_shape}")
        if not 0.0 < self.y_scale < math.inf:
            raise DomainError(f"y_scale must be finite and > 0, got {self.y_scale}")


ModelSpec = Union[Lognormal, FMLS, LogMixture]
PutOutcome = Union[NormalizedPutPrice, ToleranceNotReached, DomainError]


@dataclass(frozen=True)
class CertifiedQ:
    """The moment order a model certifies for |log S_T| (may be +inf)."""

    q_true: float

    def __post_init__(self) -> None:
        if math.isnan(self.q_true) or self.q_true < 0.0:
            raise DomainError(f"q_true must be >= 0, got {self.q_true}")


def certified_q(model: ModelSpec) -> CertifiedQ:
    if isinstance(model, Lognormal):
        return CertifiedQ(math.inf)
    if isinstance(model, FMLS):
        return CertifiedQ(model.alpha)
    if isinstance(model, LogMixture):
        return CertifiedQ(model.y_shape)
    raise Unsupported(f"no certified moment order for {model!r}")


# ---------------------------------------------------------------------------
# FMLS martingale drift


def _fmls_drift(alpha: float, scale: float) -> float:
    # Martingale drift: psi(-i) = 0 forces the linear coefficient to equal
    # scale^alpha / cos(pi alpha / 2), which is negative on (1, 2).
    try:
        return scale**alpha / math.cos(0.5 * math.pi * alpha)
    except OverflowError:
        raise Unsupported(
            f"FMLS scale {scale} overflows scale**alpha") from None


# ---------------------------------------------------------------------------
# FMLS distribution helpers


# A private S1 instance: scipy's shared ``levy_stable`` object is left as
# its other users configured it.
_S1_STABLE = type(levy_stable)(name="levy_stable")
_S1_STABLE.parameterization = "S1"


def _fmls_dist(alpha: float, scale: float):
    return _S1_STABLE(alpha, -1.0, loc=_fmls_drift(alpha, scale), scale=scale)


@lru_cache(maxsize=16)
def _tail_coeffs(alpha: float, scale: float) -> tuple[float, float, float]:
    """Left-tail cdf expansion P(L <= mu - lam) ~ sum_k B_k lam^(-alpha k).

    B_1 is the classical stable-tail constant in closed form; B_2 and B_3
    are least-squares fitted against the reference cdf on a window where
    that cdf is still fully accurate, which extends the usable range of
    the series far beyond it.  Only positive reference values enter the
    fit: for alpha near 2 the reference reads hard zero inside the window
    (from a standardized argument of about -367 at alpha = 1.797).
    """
    mu = _fmls_drift(alpha, scale)
    b1 = 2.0 * math.sin(0.5 * math.pi * alpha) * math.gamma(alpha) / math.pi \
        * scale**alpha
    lam = scale * np.geomspace(80.0, 450.0, 48)
    ref = _fmls_dist(alpha, scale).cdf(mu - lam)
    lam = lam[ref > 0.0]
    rel = ref[ref > 0.0] / (b1 * lam**-alpha) - 1.0
    design = np.column_stack([lam**-alpha, lam**(-2.0 * alpha)])
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(rel))):
        raise Unsupported(
            f"FMLS scale {scale} puts the tail series out of float range")
    coef, *_ = np.linalg.lstsq(design, rel, rcond=None)
    return b1, b1 * float(coef[0]), b1 * float(coef[1])


def _tail_cdf(lam: np.ndarray, alpha: float, scale: float) -> np.ndarray:
    b1, b2, b3 = _tail_coeffs(alpha, scale)
    lam = np.asarray(lam, dtype=float)
    return b1 * lam**-alpha + b2 * lam**(-2.0 * alpha) + b3 * lam**(-3.0 * alpha)


def _fmls_cdf(ells: np.ndarray, alpha: float, scale: float) -> np.ndarray:
    """cdf of L on arbitrary arguments, switching to the tail series where
    the reference implementation loses the tail: below a standardized
    argument of -450, and wherever it reads hard zero (for alpha near 2 it
    does so on a band above -450)."""
    ells = np.atleast_1d(np.asarray(ells, dtype=float))
    out = np.empty_like(ells)
    mu = _fmls_drift(alpha, scale)
    deep = (ells - mu) / scale < -450.0
    if np.any(~deep):
        dist = _fmls_dist(alpha, scale)
        out[~deep] = dist.cdf(ells[~deep])
        deep[~deep] = ~(out[~deep] > 0.0)
    if np.any(deep):
        out[deep] = _tail_cdf(mu - ells[deep], alpha, scale)
    return out


# Mid-wing cells: a fixed lattice [j h, (j + 1) h], each cell integrated by
# an n-node Gauss-Legendre rule, and ceil(40 / h) whole cells below each
# strike's own partial cell (what lies deeper is below e^-40 of the price).
_CELL_H = 4.0
_CELL_NODES = 16
_CELL_DEPTH = math.ceil(40.0 / _CELL_H)


@lru_cache(maxsize=1)
def _unit_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(_CELL_NODES)
    return 0.5 * (t + 1.0), 0.5 * w


def _fmls_log_put_mid(xs: np.ndarray, alpha: float, scale: float) -> np.ndarray:
    """log put on the mid wing via P(x) = int_{-inf}^x e^l F(l) dl.

    Each strike sums its own partial cell [floor(x/h) h, x] and the
    ``_CELL_DEPTH`` lattice cells below it.  A lattice cell is integrated
    once per call, shared by every strike whose window covers it, and the
    cdf is evaluated once per distinct node.  The sum is ``math.fsum``, so
    a strike's price depends on (x, alpha, scale) alone, not on the grid
    around it.
    """
    u, w = _unit_legendre()
    own = np.floor(xs / _CELL_H)
    below = own[:, None] - np.arange(1, _CELL_DEPTH + 1)
    cells, slot = np.unique(below.ravel(), return_inverse=True)
    lo = np.concatenate([cells, own]) * _CELL_H
    width = np.concatenate([np.full(cells.size, _CELL_H), xs - own * _CELL_H])
    ells = lo[:, None] + width[:, None] * u
    nodes, where = np.unique(ells.ravel(), return_inverse=True)
    f_vals = _fmls_cdf(nodes, alpha, scale)[where].reshape(ells.shape)
    sums = np.array([math.fsum(row) for row in
                     np.exp(ells) * f_vals * (width[:, None] * w)])
    terms = np.column_stack([sums[slot].reshape(below.shape), sums[cells.size:]])
    return np.array([math.log(math.fsum(row)) for row in terms])


def _fmls_log_put_deep(xs: np.ndarray, alpha: float, scale: float) -> np.ndarray:
    """log put from the tail series alone (x <= -120): Watson expansion of
    P(x) e^{-x} = int_0^inf e^{-t} F(x - t) dt, five terms per series
    order."""
    b = _tail_coeffs(alpha, scale)
    mu = _fmls_drift(alpha, scale)
    lam0 = mu - xs
    if np.any(lam0 <= 0.0):
        raise Unsupported(
            f"FMLS scale {scale} puts the drift {mu} below a deep-wing strike")
    acc = np.zeros_like(lam0)
    for k in (1, 2, 3):
        ak = alpha * k
        corr = np.ones_like(lam0)
        term = np.ones_like(lam0)
        for j in range(4):
            term = term * (-(ak + j) / lam0)
            corr += term
        acc += b[k - 1] * lam0**-ak * corr
    return xs + np.log(acc)


def _fmls_call_cm(x: float, alpha: float, scale: float, tol: float) -> float:
    """Carr-Madan damped Fourier call price at log-strike x (eta = 1/2)."""
    eta = 0.5
    c = _fmls_drift(alpha, scale)

    def rho(v: float) -> complex:
        # The FMLS exponent psi(u) = c(iu - (iu)^alpha) at u = v - (eta + 1)i;
        # with the principal branch of (iu)^alpha it is the S1 law's exponent.
        iu = complex(eta + 1.0, v)
        psi = c * (iu - iu**alpha)
        return cmath.exp(psi) / complex(eta * eta + eta - v * v, (2.0 * eta + 1.0) * v)

    opts = {"epsabs": tol, "epsrel": 1e-12, "limit": 300}
    if abs(x) < 1e-3:
        # The transform dies by v ~ 40 while e^{ivx} has period > 6000 here,
        # so the plain route converges and the oscillatory-weight machinery
        # (which degenerates as wvar -> 0) is not needed.
        body = quad(lambda v: (rho(v) * cmath.exp(1j * v * x)).real,
                    0.0, math.inf, **opts)[0]
    else:
        w = abs(x)
        body = quad(lambda v: rho(v).real, 0.0, math.inf,
                    weight="cos", wvar=w, limlst=300, **opts)[0]
        body += math.copysign(1.0, x) * quad(
            lambda v: rho(v).imag, 0.0, math.inf,
            weight="sin", wvar=w, limlst=300, **opts)[0]
    return math.exp(-eta * x) / math.pi * body


# Right-wing cells: the same Gauss-Legendre rule on a finer lattice, swept
# upward from the lowest strike.  The density's right tail falls by orders of
# magnitude per tenth in l for alpha near 1, which cells of 0.5 miss by up to
# 2e-8 relative at alpha = 1.1 (0.25 keeps within 1e-12).  A strike stops at
# the first whole cell that adds at most _RIGHT_STOP of its running sum
# (floored at _CALL_FLOOR), and a call below _CALL_FLOOR is refused: the
# density is only good to an absolute ~1e-15ish, so a call that thin is
# indistinguishable from its noise.
_RIGHT_H = 0.25
_RIGHT_STOP = 1e-17
_CALL_FLOOR = 1e-13


def _fmls_calls_right(xs: np.ndarray, alpha: float, scale: float) -> np.ndarray:
    """Calls C(x) = int_x^hi (e^l - e^x) f(l) dl at the strikes xs, with
    hi = max(mu + 60 scale, x + 5), from one upward sweep of the lattice
    cells [j h, (j + 1) h].

    Each strike sums its own partial cell [x, ceil(x/h) h] and then the
    whole cells above it, until the stopping rule above or the cell that
    reaches its hi.  A sweep step calls the density once, on the nodes of
    the whole cell that every live strike shares and of the partial cells
    of the strikes that join there.  The sums are ``math.fsum``, so a
    strike's call depends on (x, alpha, scale) alone, not on the grid
    around it.  The damped Fourier route's absolute noise floor swamps
    this thin tail beyond x ~ 0.5.
    """
    mu = _fmls_drift(alpha, scale)
    his = np.maximum(mu + 60.0 * scale, xs + 5.0)
    if np.any(his > LOG_FLOAT_MAX):
        raise Unsupported(f"FMLS scale {scale}: the density window ends at "
                          f"{his[his > LOG_FLOAT_MAX][0]}, where e^x overflows")
    dist = _fmls_dist(alpha, scale)
    u, w = _unit_legendre()
    first = np.ceil(xs / _RIGHT_H)  # each strike's first whole cell
    ex = np.exp(xs)
    cell_sums: list[list[float]] = [[] for _ in range(xs.size)]
    live = np.zeros(xs.size, dtype=bool)
    j = first.min()
    while True:
        joining = np.nonzero(first == j)[0]
        live[joining] = True
        if not live.any():
            ahead = first > j
            if not ahead.any():
                break
            j = first[ahead].min()
            continue
        top = j * _RIGHT_H
        lo = np.append(xs[joining], top)
        width = np.append(top - xs[joining], _RIGHT_H)
        ells = lo[:, None] + width[:, None] * u
        nodes, where = np.unique(ells.ravel(), return_inverse=True)
        f_vals = dist.pdf(nodes)[where].reshape(ells.shape)
        weights = np.where(f_vals > 0.0, f_vals, 0.0) * (width[:, None] * w)
        e_ells = np.exp(ells)
        for row, i in enumerate(joining):
            cell_sums[i].append(math.fsum((e_ells[row] - ex[i]) * weights[row]))
        for i in np.nonzero(live)[0]:
            add = math.fsum((e_ells[-1] - ex[i]) * weights[-1])
            cell_sums[i].append(add)
            if add <= _RIGHT_STOP * max(math.fsum(cell_sums[i]), _CALL_FLOOR) \
                    or top + _RIGHT_H >= his[i]:
                live[i] = False
        j += 1.0
    return np.array([math.fsum(sums) for sums in cell_sums])


_CM_HI = 0.5
_CM_LO = -2.0
_MID_LO = -120.0


def _captured(price: Callable[..., NormalizedPutPrice], *args) -> PutOutcome:
    """The price, or the ToleranceNotReached / DomainError it raised."""
    try:
        return price(*args)
    except (ToleranceNotReached, DomainError) as exc:
        return exc


def _put_by_parity(x: float, c_val: float) -> NormalizedPutPrice:
    """Put from the call at x by parity; above the money the call is the
    put's time value and becomes its log channel."""
    p = c_val - 1.0 + math.exp(x)
    if x > 0.0:
        if not c_val > 0.0:
            raise ToleranceNotReached(
                f"call time value at x = {x} under-resolves", value=c_val)
        return NormalizedPutPrice(max(p, math.expm1(x)),
                                  log_time_value=math.log(c_val))
    if not p > 0.0:
        raise ToleranceNotReached(f"put at x = {x} under-resolves", value=p)
    return NormalizedPutPrice(p)


def _fmls_put_near(x: float, alpha: float, scale: float,
                   tol: float) -> NormalizedPutPrice:
    """Put from the call by parity: Carr-Madan up to x = 0.5."""
    return _put_by_parity(x, _fmls_call_cm(x, alpha, scale, tol))


def _fmls_put_right(x: float, c_val: float) -> NormalizedPutPrice:
    """Put by parity from a swept call above x = 0.5, refused below the
    density noise floor."""
    if c_val < _CALL_FLOOR:
        raise ToleranceNotReached(
            f"call at x = {x} is below the density noise floor", value=c_val)
    return _put_by_parity(x, c_val)


def _fmls_put_points(xs: np.ndarray, alpha: float, scale: float,
                     tol: float) -> list[PutOutcome]:
    """Price puts at all xs, batching the two left-wing regimes (log
    channel) and the right wing (one sweep of calls)."""
    out: list[PutOutcome | None] = [None] * xs.size
    mid = (xs > _MID_LO) & (xs < _CM_LO)
    deep = xs <= _MID_LO
    right = xs > _CM_HI
    for mask, log_put in ((mid, _fmls_log_put_mid), (deep, _fmls_log_put_deep)):
        lps = log_put(xs[mask], alpha, scale) if np.any(mask) else ()
        for idx, lp in zip(np.nonzero(mask)[0], lps):
            p = math.exp(lp) if lp > -745.0 else 0.0
            out[idx] = NormalizedPutPrice(p, log_p=float(lp))
    for idx in np.nonzero(~(mid | deep | right))[0]:
        out[idx] = _captured(_fmls_put_near, float(xs[idx]), alpha, scale, tol)
    calls = _fmls_calls_right(xs[right], alpha, scale) if np.any(right) else ()
    for idx, c_val in zip(np.nonzero(right)[0], calls):
        out[idx] = _captured(_fmls_put_right, float(xs[idx]), float(c_val))
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# mixture helpers


@lru_cache(maxsize=16)
def _mixture_kappa(sigma: float, y_shape: float, y_scale: float) -> float:
    # E[e^{-Y}] for inverse-gamma: 2 beta^{a/2} K_a(2 sqrt(beta)) / Gamma(a).
    a, beta = y_shape, y_scale
    bessel = special.kv(a, 2.0 * math.sqrt(beta))
    if not 0.0 < bessel < math.inf:
        raise Unsupported(
            f"mixture y_shape {a}, y_scale {beta}: E[e^-Y] leaves float range")
    log_mgf = math.log(2.0) + 0.5 * a * math.log(beta) \
        + math.log(bessel) - math.lgamma(a)
    return 0.5 * sigma * sigma + log_mgf


def _invgamma_pdf(a: float, scale: float) -> Callable[[float], float]:
    """The inverse-gamma(a, scale) density of Y, bit for bit as scipy's
    ``invgamma(a, scale=scale).pdf`` returns it: scipy's ``_logpdf``
    expression through the same numpy ufuncs (``math`` rounds some nodes an
    ulp apart), with no frozen distribution per call.  Zero off the open
    support 0 < y / scale < inf."""
    log_gamma = special.gammaln(a)

    def pdf(y: float) -> float:
        u = y / scale
        if not 0.0 < u < math.inf:
            return 0.0
        return np.exp(-(a + 1) * np.log(u) - log_gamma - 1.0 / u) / scale

    return pdf


def _mixture_put(model: LogMixture, x: float, tol: float) -> NormalizedPutPrice:
    s = model.x_part.sigma
    kappa = _mixture_kappa(s, model.y_shape, model.y_scale)
    pdf = _invgamma_pdf(model.y_shape, model.y_scale)
    ex = math.exp(x)
    disc = math.exp(-kappa + 0.5 * s * s)

    def leg(y: float) -> float:
        f = pdf(y)
        if f == 0.0:
            return 0.0
        a = (x + y + kappa) / s
        return f * (ex * special.ndtr(a) - disc * math.exp(-y) * special.ndtr(a - s))

    y_star = -x - kappa
    if y_star > 0.0:
        val = integrate(leg, 0.0, y_star, tol=0.5 * tol).value
        val += integrate(leg, y_star, math.inf, tol=0.5 * tol).value
    else:
        val = integrate(leg, 0.0, math.inf, tol=tol).value
    if not val > 0.0:
        raise ToleranceNotReached(f"mixture put at x = {x} under-resolves",
                                  value=val)
    return NormalizedPutPrice(val)


# ---------------------------------------------------------------------------
# public pricing entry points


def _put_points(model: ModelSpec, xs: np.ndarray, tol: float) -> list[PutOutcome]:
    """Each x's put price, or the ToleranceNotReached / DomainError raised
    for it: the one dispatch of put pricing on the model type."""
    if isinstance(model, FMLS):
        return _fmls_put_points(xs, model.alpha, model.scale, tol)
    if isinstance(model, Lognormal):
        return [_captured(put_price, float(x), model.sigma) for x in xs]
    if isinstance(model, LogMixture):
        return [_captured(_mixture_put, model, float(x), tol) for x in xs]
    raise Unsupported(f"cannot price under {type(model).__name__}")


def model_put(model: ModelSpec, x: float, tol: float = 1e-10) -> NormalizedPutPrice:
    """Normalized put price at log-moneyness x under the given model."""
    x = float(x)
    if not -math.inf < x <= LOG_FLOAT_MAX:
        raise DomainError(f"x must be finite and <= ln(DBL_MAX), got {x}")
    price = _put_points(model, np.array([x]), tol)[0]
    if isinstance(price, SmileWingsError):
        raise price
    return price


def model_smile(model: ModelSpec, x_grid, tol: float = 1e-10,
                **smile_kwargs) -> SmileCurve:
    """Implied-vol smile on a grid; the certified moment order is recorded
    on the curve.  Points that fail to price or invert are dropped with a
    warning, in grid order, rather than poisoning the whole curve.

    ``tol`` sets the Carr-Madan quadratures (FMLS, -2 <= x <= 0.5) and the
    mixture's.  The FMLS lattice regimes (the mid wing below -2 and the
    right wing above 0.5) and the deep series have a fixed accuracy and
    ignore it; the lognormal price is closed-form."""
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("x_grid must be a nonempty 1-d array")
    if not np.all((xs > -np.inf) & (xs <= LOG_FLOAT_MAX)):
        raise DomainError("x_grid must be finite and <= ln(DBL_MAX)")
    if np.any(np.diff(xs) <= 0.0):
        raise DomainError("x_grid must be strictly increasing")

    kept_x: list[float] = []
    kept_v: list[float] = []
    for x, price in zip(xs.tolist(), _put_points(model, xs, tol)):
        reason = price
        if isinstance(price, NormalizedPutPrice):
            try:
                v = implied_vol(x, price)
                reason = "price indistinguishable from intrinsic" if v <= 0.0 else None
            except SmileWingsError as exc:
                reason = exc
        if reason is not None:
            warnings.warn(f"dropping x = {x}: {reason}", stacklevel=2)
            continue
        kept_x.append(x)
        kept_v.append(v)

    if len(kept_x) == 0:
        raise DomainError("no grid point produced a usable implied vol")
    smile_kwargs.setdefault("certified_q", certified_q(model).q_true)
    return SmileCurve(np.array(kept_x), np.array(kept_v), **smile_kwargs)


# ---------------------------------------------------------------------------
# log-moment oracles


def _abs_normal_moment(m: float, s: float, q: float) -> float:
    """E|N(m, s^2)|^q via the confluent hypergeometric closed form, with a
    plain asymptotic series once the mean is many deviations from zero."""
    if q == 0.0:
        return 1.0
    if s == 0.0:
        return abs(m) ** q
    r = m / s
    if abs(r) > 40.0:
        t = 1.0 / (r * r)
        corr = 1.0 + 0.5 * q * (q - 1.0) * t \
            + 0.125 * q * (q - 1.0) * (q - 2.0) * (q - 3.0) * t * t \
            + (q * (q - 1.0) * (q - 2.0) * (q - 3.0) * (q - 4.0) * (q - 5.0)
               / 48.0) * t ** 3
        return abs(m) ** q * corr
    return s**q * 2.0 ** (0.5 * q) * math.gamma(0.5 * (q + 1.0)) / math.sqrt(math.pi) \
        * float(special.hyp1f1(-0.5 * q, 0.5, -0.5 * r * r))


def log_moment_oracle(model: ModelSpec, q: float, tol: float = 1e-10) -> float:
    """E|log S_T|^q by analytic/quadrature routes independent of any smile.

    Returns +inf exactly when q reaches the model's certified order (the
    moment genuinely diverges there; the sentinel is a float infinity in
    memory and a tagged string in serialized reports).
    """
    if q < 0.0 or math.isnan(q):
        raise DomainError(f"q must be >= 0, got {q}")
    if isinstance(model, Lognormal):
        s = model.sigma
        return _abs_normal_moment(-0.5 * s * s, s, q)
    if isinstance(model, FMLS):
        if q >= model.alpha:
            return math.inf
        return _fmls_abs_moment(model.alpha, model.scale, q, tol)
    if isinstance(model, LogMixture):
        if q >= model.y_shape:
            return math.inf
        return _mixture_abs_moment(model, q, tol)
    raise Unsupported(f"no log-moment oracle for {type(model).__name__}")


def _fmls_abs_moment(alpha: float, scale: float, q: float, tol: float) -> float:
    mu = _fmls_drift(alpha, scale)
    dist = _fmls_dist(alpha, scale)
    cut = 400.0

    body = integrate(lambda t: abs(t) ** q * dist.pdf(t),
                     mu - cut, mu + 40.0, tol=tol, points=(0.0,)).value
    # analytic left tail: f(mu - lam) = sum_k B_k alpha k lam^{-alpha k - 1},
    # |ell|^q = (lam + |mu|)^q expanded to second order in |mu|/lam.
    b = _tail_coeffs(alpha, scale)
    tail = 0.0
    for k in (1, 2, 3):
        ak = alpha * k
        for j in range(3):
            w = float(special.binom(q, j)) * abs(mu) ** j
            p_exp = ak + j - q
            tail += b[k - 1] * ak * w * cut**-p_exp / p_exp
    return body + tail


@lru_cache(maxsize=None)
def fmls_mean_log_oracle(alpha: float = 1.5, scale: float = 0.25) -> float:
    """E[log S_T] by direct density quadrature plus the fitted power tail.

    Independent of every option-pricing code path; the only shared inputs
    are the stable density itself and the tail-coefficient fit.
    """
    mu = _fmls_drift(alpha, scale)
    dist = _fmls_dist(alpha, scale)
    body = integrate(lambda t: t * float(dist.pdf(t)), mu - 400.0, mu + 40.0,
                     tol=1e-9, points=(0.0,)).value
    cut = 400.0
    tail = 0.0
    for k, bk in enumerate(_tail_coeffs(alpha, scale), start=1):
        ak = alpha * k
        tail += bk * (mu * cut ** -ak - ak * cut ** (1.0 - ak) / (ak - 1.0))
    return body + tail


def _mixture_abs_moment(model: LogMixture, q: float, tol: float) -> float:
    s = model.x_part.sigma
    kappa = _mixture_kappa(s, model.y_shape, model.y_scale)
    pdf = _invgamma_pdf(model.y_shape, model.y_scale)

    def leg(y: float) -> float:
        f = pdf(y)
        return f * _abs_normal_moment(-y - kappa, s, q) if f > 0.0 else 0.0

    return integrate(leg, 0.0, math.inf, tol=tol).value


# ---------------------------------------------------------------------------
# path sampling


def _path_streams(seed: int, path_offset: int, n_paths: int):
    """Yield one Generator n_paths times, its Philox re-keyed to
    (seed, path_offset + i) before the i-th yield.

    A zero counter and an empty buffer make each stream exactly that of a
    fresh ``Generator(Philox(key=[seed, path_offset + i]))``, without
    building a seed sequence from OS entropy per path.  Draw a path's
    numbers before advancing to the next.
    """
    bits = np.random.Philox(key=[seed, path_offset])
    gen = np.random.Generator(bits)
    zeros = np.zeros(4, dtype=np.uint64)
    for j in range(path_offset, path_offset + n_paths):
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros,
                      "key": np.array([seed, j], dtype=np.uint64)},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        yield gen


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def sample_paths(model: ModelSpec, n_steps: int, n_paths: int, seed: int,
                 path_offset: int = 0) -> list[PricePath]:
    """Simulate normalized price paths on [0, 1].

    Each path gets its own counter-based stream keyed by
    (seed, path_offset + i), so disjoint chunks drawn in parallel or across
    runs never overlap and any path can be regenerated in isolation.  Both
    key words must lie in [0, 2**63).  Every count and key word must be an
    integer: numpy would truncate a fractional key word silently.
    """
    n_steps = _integer("n_steps", n_steps)
    n_paths = _integer("n_paths", n_paths)
    seed = _integer("seed", seed)
    path_offset = _integer("path_offset", path_offset)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if n_paths < 0:
        raise DomainError(f"n_paths must be >= 0, got {n_paths}")
    if not 0 <= seed < 2**63:
        raise DomainError(f"seed must lie in [0, 2**63), got {seed}")
    if not (0 <= path_offset and path_offset + n_paths <= 2**63):
        raise DomainError(
            f"path keys {path_offset} .. {path_offset + n_paths - 1} must lie "
            "in [0, 2**63)")
    if n_paths == 0:
        return []
    streams = _path_streams(seed, path_offset, n_paths)

    if isinstance(model, Lognormal):
        s = model.sigma
        dt = 1.0 / n_steps
        drift = -0.5 * s * s * dt
        step = s * math.sqrt(dt)
        times = np.linspace(0.0, 1.0, n_steps + 1)
        # One block, transformed in place: separate blocks for the normals,
        # the log-path and its exponential would each be as large as the
        # paths themselves.
        vals = np.zeros((n_paths, n_steps + 1))
        body = vals[:, 1:]
        for gen, row in zip(streams, body):
            gen.standard_normal(out=row)
        body *= step
        body += drift
        np.cumsum(body, axis=1, out=body)
        np.exp(vals, out=vals)
        return [PricePath(times.copy(), row) for row in vals]

    if isinstance(model, LogMixture):
        if n_steps != 1:
            raise Unsupported(
                "the mixture model only samples its terminal value (n_steps = 1)")
        s = model.x_part.sigma
        kappa = _mixture_kappa(s, model.y_shape, model.y_scale)
        times = np.array([0.0, 1.0])
        out = []
        for gen in streams:
            z = gen.standard_normal()
            g = gen.gamma(model.y_shape)
            y = model.y_scale / g
            s_t = math.exp(s * z - y - kappa)
            out.append(PricePath(times.copy(), np.array([1.0, s_t])))
        return out

    raise Unsupported(
        f"no exact path-sampling scheme for {type(model).__name__}")
