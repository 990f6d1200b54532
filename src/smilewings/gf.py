"""Pricing generalized payoffs of log S_T straight off the smile.

The smile is pushed through the monotone change of variable z = f(x) =
x/I(x) + I(x)/2 (minus the usual d2); under it the pricing measure of z is
standard Gaussian, so expectations become one-dimensional phi-weighted
integrals of smile-composed integrands.  A second map h(x) = f(x) - I(x)
carries the e^{-x}-weighted piece of the absolutely-continuous route.

Everything here takes a TransformedSmile: f, h and their inverses are built
once (one inversion routine serves both maps: the affine inverse on a
clamped side, the wing's own inverse past a corollary wing, a bracketed
root on the grid) and shared by every pricing call.  Both payoff routes
integrate their phi-weighted z-space piece through one z-leg, ``_f_leg``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .blackscholes import SmileCurve, f_transform
from .errors import (DomainError, GrowthViolation, NotMonotone,
                     ToleranceNotReached)
from .numerics import LOG_SQRT_2PI, integrate

__all__ = [
    "PayoffSpec",
    "TransformedSmile",
    "build_transform",
    "gf_varswap",
    "price_psi_c2",
    "price_psi_ac",
]

# Beyond this |z| the standard normal density is an exact float zero, so
# integrands short-circuit before evaluating possibly huge payoff values.
_Z_DEAD = 38.5


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z - LOG_SQRT_2PI) if abs(z) < _Z_DEAD else 0.0


def _ndtr(z: float) -> float:
    return float(special.ndtr(z))


@dataclass(frozen=True)
class PayoffSpec:
    """A payoff psi(log S_T) with declared derivatives and growth.

    ``growth_order_q`` declares the polynomial order of psi in the left
    wing; it is compared against the smile's certified moment order before
    pricing.  ``kinks`` lists x-locations where psi_prime jumps -- the
    absolutely-continuous route passes their images to the quadrature as
    known awkward points.
    """

    psi: Callable[[float], float]
    psi_prime: Callable[[float], float]
    growth_order_q: float
    smoothness: Literal["twice-differentiable", "absolutely-continuous"]
    psi_double_prime: Callable[[float], float] | None = None
    kinks: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if math.isnan(self.growth_order_q) or self.growth_order_q < 0.0:
            raise DomainError(
                f"growth_order_q must be >= 0, got {self.growth_order_q}")
        if self.smoothness not in ("twice-differentiable",
                                   "absolutely-continuous"):
            raise DomainError(f"unknown smoothness {self.smoothness!r}")
        object.__setattr__(self, "kinks", tuple(float(k) for k in self.kinks))


@dataclass(frozen=True, eq=False)
class TransformedSmile:
    """A smile with its normalizing maps f(x) = x/I + I/2 and h(x) = f(x) - I
    and their inverses, built eagerly and immutable afterwards."""

    smile: SmileCurve
    f_of: Callable[[float], float]
    h_of: Callable[[float], float]
    f_inv: Callable[[float], float]
    h_inv: Callable[[float], float]


def _dense_grid(smile: SmileCurve) -> np.ndarray:
    xs = smile.x
    if xs.size == 1:
        x0 = float(xs[0])
        return np.array([x0 - 1.0, x0, x0 + 1.0])
    cells = [np.linspace(xs[i], xs[i + 1], 5) for i in range(xs.size - 1)]
    return np.unique(np.concatenate(cells))


def build_transform(smile: SmileCurve, tol: float = 1e-8) -> TransformedSmile:
    """Check monotonicity of f and f - I on a refined grid, then build the
    cached inverse maps.  A reversal of f is a static-arbitrage symptom and
    raises NotMonotone with the offending interval."""
    dense = _dense_grid(smile)
    iv_dense = np.atleast_1d(smile(dense))
    f_dense = dense / iv_dense + 0.5 * iv_dense
    h_dense = f_dense - iv_dense
    for name, vals in (("f", f_dense), ("f - I", h_dense)):
        bad = np.nonzero(np.diff(vals) <= 0.0)[0]
        if bad.size:
            i = int(bad[0])
            raise NotMonotone(
                f"{name} fails to increase on [{dense[i]:.6g}, {dense[i+1]:.6g}]",
                interval=(float(dense[i]), float(dense[i + 1])))
    wing = smile.wing
    if wing is not None and wing.q == 0.0:
        # f = -sqrt(c) all along a q = 0 wing, so f has no inverse there.
        x0 = float(smile.x[0])
        raise NotMonotone(f"f is constant on the q = 0 left wing below x = {x0:.6g}",
                          interval=(-math.inf, x0))

    sig_lo = float(iv_dense[0])
    sig_hi = float(iv_dense[-1])

    def f_of(x: float) -> float:
        return float(f_transform(x, smile))

    def h_of(x: float) -> float:
        return f_of(x) - float(smile(x))

    def inverse(of: Callable[[float], float], vals: np.ndarray, half: float,
                wing_inv: Callable[[float], float]) -> Callable[[float], float]:
        # On a clamped side of(x) = x/sigma - half*sigma, so x = sigma*z + half*sigma^2.
        def inv(z: float) -> float:
            if z <= vals[0]:
                if wing is not None:
                    return wing_inv(z)
                return sig_lo * z + half * sig_lo * sig_lo
            if z >= vals[-1]:
                return sig_hi * z + half * sig_hi * sig_hi
            i = int(np.searchsorted(vals, z))
            return brentq(lambda x: of(x) - z, float(dense[i - 1]),
                          float(dense[i]), xtol=1e-12, rtol=8.9e-16)
        return inv

    f_inv = inverse(f_of, f_dense, -0.5,
                    lambda z: -math.exp(min(wing.log_f_inv(z), 709.0)))
    h_inv = inverse(h_of, h_dense, 0.5, lambda z: wing.h_inv(z))

    sample = dense[:: max(1, dense.size // 32)]
    for x in sample:
        x = float(x)
        err = abs(f_inv(f_of(x)) - x)
        if not err < tol * (1.0 + abs(x)):
            raise ToleranceNotReached(
                f"f_inv round-trip off by {err:.3g} at x = {x:.6g}", value=err)
    return TransformedSmile(smile, f_of, h_of, f_inv, h_inv)


def _check_growth(payoff: PayoffSpec, smile: SmileCurve) -> None:
    qg = payoff.growth_order_q
    cq = smile.certified_q
    if cq is None:
        warnings.warn(
            "smile carries no certified moment order; declared payoff growth "
            f"{qg} cannot be verified", stacklevel=3)
        return
    if qg > cq:
        raise GrowthViolation(
            f"payoff growth order {qg} exceeds the smile's certified moment "
            f"order {cq}: the target expectation need not exist")
    if qg == cq and math.isfinite(cq):
        warnings.warn(
            f"payoff growth order equals the certified order {cq} exactly; "
            "existence is boundary-delicate and quadrature may not settle",
            stacklevel=3)


def _z_window(ts: TransformedSmile, z_range: float) -> tuple[float, float]:
    z_lo = max(-z_range, ts.f_of(float(ts.smile.x[0])))
    z_hi = min(z_range, ts.f_of(float(ts.smile.x[-1])))
    return z_lo, z_hi


def _f_leg(ts: TransformedSmile, z_range: float, share: float,
           points: list[float], body: Callable[[float, float], float]) -> float:
    """Integral of body(x, z) * phi(z) dz with x = f_inv(z): the grid window
    (break points ``points``), then the two open tails, each at tol ``share``."""

    def leg(z: float) -> float:
        w = _phi(z)
        if w == 0.0:
            return 0.0
        return body(ts.f_inv(z), z) * w

    z_lo, z_hi = _z_window(ts, z_range)
    val = integrate(leg, z_lo, z_hi, tol=share, points=points).value
    val += integrate(leg, -math.inf, z_lo, tol=share).value
    val += integrate(leg, z_hi, math.inf, tol=share).value
    return val


def gf_varswap(ts: TransformedSmile, tol: float = 1e-8,
               z_range: float = 12.0) -> float:
    """-2 E[log S_T] as the Gaussian-weighted integral of I(f_inv(z))^2.

    Wing remainders: the clamped sides contribute sigma^2 * Phi exactly;
    a power-law left wing is integrated in z-space with a log-domain guard
    where |x(z)| overflows."""
    smile = ts.smile
    z_lo, z_hi = _z_window(ts, z_range)

    def inner(z: float) -> float:
        iv = float(smile(ts.f_inv(z)))
        return iv * iv * _phi(z)

    val = integrate(inner, z_lo, z_hi, tol=0.5 * tol).value
    iv_hi = float(smile(ts.f_inv(z_hi)))
    val += iv_hi * iv_hi * _ndtr(-z_hi)

    grid_edge = ts.f_of(float(smile.x[0]))
    wing = smile.wing
    if wing is None or z_lo > grid_edge:
        iv_lo = float(smile(ts.f_inv(z_lo)))
        val += iv_lo * iv_lo * _ndtr(z_lo)
    else:
        def far(z: float) -> float:
            t = wing.log_f_inv(z)
            if t > 500.0:
                li = math.log(2.0) + t - 0.5 * z * z - LOG_SQRT_2PI
                return math.exp(li) if li > -745.0 else 0.0
            big_x = math.exp(t)
            iv = math.sqrt(z * z + 2.0 * big_x) - abs(z)
            return iv * iv * _phi(z)

        val += integrate(far, -math.inf, z_lo, tol=0.5 * tol).value
    return val


def price_psi_c2(payoff: PayoffSpec, ts: TransformedSmile, tol: float = 1e-8,
                 z_range: float = 12.0) -> float:
    """E[psi(log S_T)] for twice-differentiable psi: a z-space bracket term
    plus the psi''-weighted x-space smile integral."""
    if payoff.smoothness != "twice-differentiable":
        raise DomainError("price_psi_c2 needs a twice-differentiable payoff")
    if payoff.psi_double_prime is None:
        raise DomainError("price_psi_c2 needs psi_double_prime")
    smile = ts.smile
    _check_growth(payoff, smile)
    psi, dpsi, d2psi = payoff.psi, payoff.psi_prime, payoff.psi_double_prime
    share = tol / 6.0

    def zbody(x: float, z: float) -> float:
        # x + I^2/2 = z I exactly (that is what f(x) = z says), which
        # sidesteps the huge-|x| cancellation out on the wing.
        return psi(x) - dpsi(x) * float(smile(x)) * z

    # Knot images ride along as break points: the interpolant's curvature
    # jumps there and cell-aligned panels settle far below a blind split.
    z_knots = [ts.f_of(float(xk)) for xk in smile.x]
    val = _f_leg(ts, z_range, share, z_knots, zbody)

    def xleg(x: float) -> float:
        w = _phi(ts.f_of(x))
        return d2psi(x) * float(smile(x)) * w if w > 0.0 else 0.0

    x0, xn = float(smile.x[0]), float(smile.x[-1])
    val += integrate(xleg, x0, xn, tol=share,
                     points=smile.x.tolist()).value
    val += integrate(xleg, xn, math.inf, tol=share).value
    wing = smile.wing
    if wing is None:
        val += integrate(xleg, -math.inf, x0, tol=share).value
    else:
        def xleg_far(u: float) -> float:
            a2 = wing.d2(u)
            lphi = -0.5 * a2 - LOG_SQRT_2PI
            if lphi < -745.0:
                return 0.0
            ex = math.exp(u)
            iv = math.sqrt(a2 + 2.0 * ex) - math.sqrt(a2)
            return d2psi(-ex) * iv * math.exp(lphi) * ex

        val += integrate(xleg_far, math.log(-x0), 709.0, tol=share).value
    return val


def price_psi_ac(payoff: PayoffSpec, ts: TransformedSmile, tol: float = 1e-8,
                 z_range: float = 12.0) -> float:
    """E[psi(log S_T)] for absolutely continuous psi: one z-space integral
    mixing the f- and h-maps; only psi and psi' are needed, so slope kinks
    are fine (their images are handed to the quadrature as split points).

    The e^{-h} piece fights the Gaussian weight on the left, so its far
    tail is integrated in u = log|x| where the true (typically power-law)
    decay is explicit.
    """
    smile = ts.smile
    _check_growth(payoff, smile)
    psi, dpsi = payoff.psi, payoff.psi_prime
    share = tol / 6.0

    # Break points: payoff kink images plus knot images (the interpolant's
    # curvature jumps at the latter).
    f_points = ([ts.f_of(k) for k in payoff.kinks]
                + [ts.f_of(float(xk)) for xk in smile.x])
    val = _f_leg(ts, z_range, share, f_points, lambda x, z: psi(x) - dpsi(x))

    def hleg(z: float) -> float:
        w = _phi(z)
        if w == 0.0:
            return 0.0
        x = ts.h_inv(z)
        return dpsi(x) * math.exp(-x) * w

    zh_hi = min(z_range, ts.h_of(float(smile.x[-1])))
    h_points = ([ts.h_of(k) for k in payoff.kinks]
                + [ts.h_of(float(xk)) for xk in smile.x])
    val += integrate(hleg, -z_range, zh_hi, tol=share, points=h_points).value
    val += integrate(hleg, zh_hi, math.inf, tol=share).value

    # far-left e^{-h} tail, in u = log|x|: z = h(-e^u), dz = h'(x) x du (sign
    # absorbed), with the exponent assembled in log space first.
    x_cut = ts.h_inv(-z_range)
    if not x_cut < 0.0:
        raise DomainError("z_range too small: h_inv(-z_range) must be < 0")

    def hleg_far(u: float) -> float:
        ex = math.exp(u)
        x = -ex
        iv = float(smile(x))
        gz = x / iv - 0.5 * iv
        lead = ex - 0.5 * gz * gz - LOG_SQRT_2PI
        if lead < -745.0:
            return 0.0
        ivp = float(smile.derivative(x))
        gp = 1.0 / iv - x * ivp / (iv * iv) - 0.5 * ivp
        return dpsi(x) * math.exp(lead) * gp * ex

    u_cut = math.log(-x_cut)
    u_knots = [math.log(-float(xk)) for xk in smile.x if xk < 0.0]
    wing = smile.wing
    if wing is None:
        val += integrate(hleg_far, u_cut, 709.0, tol=share,
                         points=u_knots).value
        return val

    # On the wing the e^{-x} and phi(h) exponents cancel exactly (h = -B,
    # B^2 = A^2 - 2x), leaving a bare power law; the float path above loses
    # that cancellation once |x| outgrows the double grid.
    u_edge = math.log(-float(smile.x[0]))

    def hleg_far_wing(u: float) -> float:
        a2 = wing.d2(u)
        lead = -0.5 * a2 - LOG_SQRT_2PI
        if lead < -745.0:
            return 0.0
        eu = math.exp(u)
        gp = (wing.q / eu + 1.0) / math.sqrt(a2 + 2.0 * eu)
        return dpsi(-eu) * math.exp(lead) * gp * eu

    if u_cut < u_edge:
        # Two far pieces where the other routes run one: half a share each
        # keeps the seven tols summing to tol.
        val += integrate(hleg_far, u_cut, u_edge, tol=0.5 * share,
                         points=u_knots).value
        val += integrate(hleg_far_wing, u_edge, 709.0, tol=0.5 * share).value
    else:
        val += integrate(hleg_far_wing, u_cut, 709.0, tol=share).value
    return val
