"""Pricing generalized payoffs of log S_T straight off the smile.

Under z = f(x) = x/I(x) + I(x)/2 (minus the usual d2) the pricing law of z
is standard Gaussian, so E[psi(log S_T)] is the phi-weighted integral of
psi(f^-1(z)) (Fukasawa 2012).  With z = f(x) substituted back and
f' = 1/I + I'(1/2 - x/I^2), each route is one integral of phi(f(x)) g(x) dx
over the smile's own cells [x_k, x_k+1], where the interpolant is smooth:

- the variance swap (Gatheral-Fukasawa): g = I^2 f';
- twice-differentiable psi: g = (psi - psi' I f) f' + psi'' I;
- absolutely continuous psi: g = psi f' - psi' I', integration by parts
  with its h = f - I leg folded in, since e^{-x} phi(h(x)) = phi(f(x)).

Payoff kinks are extra cell edges.  Past the grid, a clamped side is
integrated in z through the affine f^-1(z) = sigma z - sigma^2/2 (in
closed form for the variance swap), and a corollary left wing through its
own closed forms, in z or in u = log|x|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from scipy import special

from .blackscholes import Z_DEAD, SmileCurve, f_transform, z_cells
from .errors import DomainError, GrowthViolation, NotMonotone
from .numerics import LOG_SQRT_2PI, integrate, integrate_cells

__all__ = [
    "PayoffSpec",
    "TransformedSmile",
    "build_transform",
    "gf_varswap",
    "price_psi_c2",
    "price_psi_ac",
]

def _phi(z: float) -> float:
    """The standard normal density, an exact 0 past Z_DEAD, so integrands
    short-circuit before evaluating possibly huge payoff values."""
    return math.exp(-0.5 * z * z - LOG_SQRT_2PI) if abs(z) < Z_DEAD else 0.0


@dataclass(frozen=True)
class PayoffSpec:
    """A payoff psi(log S_T) with declared derivatives and growth.

    ``growth_order_q`` declares the polynomial order of psi in the left
    wing; it is compared against the smile's certified moment order before
    pricing.  ``kinks`` lists x-locations where psi_prime jumps -- the
    absolutely-continuous route makes them cell edges of its quadrature.
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
    """A smile whose normalizing map f(x) = x/I + I/2 and its companion
    f - I were checked to increase."""

    smile: SmileCurve
    f_of: Callable[[float], float]


def build_transform(smile: SmileCurve, tol: float = 1e-8) -> TransformedSmile:
    """Check monotonicity of f and f - I on a refined grid.  A reversal of
    f is a static-arbitrage symptom and raises NotMonotone with the
    offending interval.  ``tol`` is accepted for callers that pass one: no
    inverse map is built, so there is nothing left for it to certify."""
    xs = smile.x
    if xs.size == 1:
        dense = xs[0] + np.array([-1.0, 0.0, 1.0])
    else:
        # Five points a cell, as np.linspace(a, b, 5) places them.
        a, b = xs[:-1, None], xs[1:, None]
        rows = np.arange(5.0) * ((b - a) / 4.0) + a
        rows[:, -1] = b[:, 0]
        dense = np.unique(rows)
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
    return TransformedSmile(smile, lambda x: float(f_transform(x, smile)))


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


def _cells(smile: SmileCurve, g: Callable, tol: float,
           kinks: tuple[float, ...] = ()) -> float:
    """The integral of g(x, I, I', f, f') phi(f) over the grid [x_0, x_n]:
    a quadrature cell per knot interval, split at the kinks inside the grid
    and bisected until f maps it onto at most a unit of |z| < Z_DEAD, so
    that no cell holds the Gaussian between two nodes.  g sees only the
    points where phi(f) > 0."""
    xs = smile.x
    if xs.size == 1:
        return 0.0
    edges = z_cells(smile, np.concatenate(
        [xs, [k for k in kinks if xs[0] < k < xs[-1]]]))

    def integrand(x: np.ndarray) -> np.ndarray:
        iv = smile(x)
        div = smile.derivative(x)
        z = x / iv + 0.5 * iv
        dz = 1.0 / iv + div * (0.5 - x / (iv * iv))
        w = np.exp(-0.5 * z * z - LOG_SQRT_2PI)
        live = w > 0.0
        out = np.zeros_like(x)
        out[live] = g(x[live], iv[live], div[live], z[live],
                      dz[live]) * w[live]
        return out

    return integrate_cells(integrand, edges, tol=tol).value


def _z_leg(x_of: Callable[[float], float], body: Callable[[float, float], float],
           lo: float, hi: float, tol: float) -> float:
    """The integral of body(x, z) phi(z) dz over [lo, hi] past the grid,
    where x = x_of(z) is f^-1 in closed form."""

    def leg(z: float) -> float:
        w = _phi(z)
        return body(x_of(z), z) * w if w > 0.0 else 0.0

    return integrate(leg, lo, hi, tol=tol).value


def _past_grid(ts: TransformedSmile, clamped_body: Callable, wing_body: Callable,
               wing_u: Callable[[float, float], float], share: float) -> float:
    """Both sides past the grid, each leg at tol ``share``: a clamped side in
    z, with body clamped_body(sigma); a corollary wing as the z-leg of
    wing_body plus the integral of wing_u(d^2, |x|) phi(f) |x| du over
    u = log|x|, where phi(f) = phi(d) is assembled in log space."""
    smile = ts.smile
    x0, xn = float(smile.x[0]), float(smile.x[-1])

    def clamped(sigma: float, lo: float, hi: float) -> float:
        # There f(x) = x/sigma + sigma/2.
        return _z_leg(lambda z: sigma * z - 0.5 * sigma * sigma,
                      clamped_body(sigma), lo, hi, share)

    val = clamped(float(smile.vol[-1]), ts.f_of(xn), math.inf)
    wing = smile.wing
    if wing is None:
        return val + clamped(float(smile.vol[0]), -math.inf, ts.f_of(x0))
    val += _z_leg(lambda z: -math.exp(min(wing.log_f_inv(z), 709.0)),
                  wing_body, -math.inf, ts.f_of(x0), share)

    def u_leg(u: float) -> float:
        a2 = wing.d2(u)
        lphi = -0.5 * a2 - LOG_SQRT_2PI
        if lphi < -745.0:
            return 0.0
        eu = math.exp(u)
        return wing_u(a2, eu) * math.exp(lphi) * eu

    return val + integrate(u_leg, math.log(-x0), 709.0, tol=share).value


def _array_of(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.array([fn(v) for v in x.tolist()], dtype=float)


def gf_varswap(ts: TransformedSmile, tol: float = 1e-8) -> float:
    """-2 E[log S_T] = int I(f^-1(z))^2 phi(z) dz, in x over the grid's
    cells.  Past the grid a clamped side contributes sigma^2 * Phi exactly;
    a power-law left wing is integrated in z-space with a log-domain guard
    where |x(z)| overflows."""
    smile = ts.smile
    val = _cells(smile, lambda x, iv, div, z, dz: iv * iv * dz, 0.5 * tol)
    sig_lo, sig_hi = float(smile.vol[0]), float(smile.vol[-1])
    val += sig_hi * sig_hi * float(special.ndtr(-ts.f_of(float(smile.x[-1]))))
    z_edge, wing = ts.f_of(float(smile.x[0])), smile.wing
    if wing is None:
        return val + sig_lo * sig_lo * float(special.ndtr(z_edge))

    def far(z: float) -> float:
        t = wing.log_f_inv(z)
        if t > 500.0:
            li = math.log(2.0) + t - 0.5 * z * z - LOG_SQRT_2PI
            return math.exp(li) if li > -745.0 else 0.0
        big_x = math.exp(t)
        iv = math.sqrt(z * z + 2.0 * big_x) - abs(z)
        return iv * iv * _phi(z)

    return val + integrate(far, -math.inf, z_edge, tol=0.5 * tol).value


def price_psi_c2(payoff: PayoffSpec, ts: TransformedSmile,
                 tol: float = 1e-8) -> float:
    """E[psi(log S_T)] for twice-differentiable psi: the grid in x, each
    clamped side in z, and a corollary wing as a z-space bracket term plus
    the psi''-weighted smile integral in u = log|x|."""
    if payoff.smoothness != "twice-differentiable":
        raise DomainError("price_psi_c2 needs a twice-differentiable payoff")
    if payoff.psi_double_prime is None:
        raise DomainError("price_psi_c2 needs psi_double_prime")
    smile = ts.smile
    _check_growth(payoff, smile)
    psi, dpsi, d2psi = payoff.psi, payoff.psi_prime, payoff.psi_double_prime

    def grid(x, iv, div, z, dz):
        return ((_array_of(psi, x) - _array_of(dpsi, x) * iv * z) * dz
                + _array_of(d2psi, x) * iv)

    def clamped_body(sigma: float) -> Callable[[float, float], float]:
        # g phi(f) dx with I = sigma, f' = 1/sigma and dx = sigma dz.
        return lambda x, z: (psi(x) - dpsi(x) * sigma * z
                             + d2psi(x) * sigma * sigma)

    def zbody(x: float, z: float) -> float:
        # x + I^2/2 = z I exactly (that is what f(x) = z says), which
        # sidesteps the huge-|x| cancellation out on the wing.
        return psi(x) - dpsi(x) * float(smile(x)) * z

    def wing_u(a2: float, ex: float) -> float:
        # psi'' I on the wing, with I = sqrt(d^2 - 2x) - d.
        return d2psi(-ex) * (math.sqrt(a2 + 2.0 * ex) - math.sqrt(a2))

    share = tol / 4.0
    return (_cells(smile, grid, share)
            + _past_grid(ts, clamped_body, zbody, wing_u, share))


def price_psi_ac(payoff: PayoffSpec, ts: TransformedSmile,
                 tol: float = 1e-8) -> float:
    """E[psi(log S_T)] for absolutely continuous psi: only psi and psi' are
    needed, so slope kinks are fine (they are cell edges on the grid).

    On a corollary wing the route splits as integration by parts does:
    (psi - psi') over the f-map in z, and the e^{-h}-weighted psi' in
    u = log|x|, where the wing's power-law decay is explicit.
    """
    smile = ts.smile
    _check_growth(payoff, smile)
    psi, dpsi = payoff.psi, payoff.psi_prime

    def grid(x, iv, div, z, dz):
        return _array_of(psi, x) * dz - _array_of(dpsi, x) * div

    def wing_u(a2: float, eu: float) -> float:
        # psi' h' e^{-x} phi(h) = psi' h' phi(f) on the wing, where
        # h = -sqrt(d^2 - 2x) and so h' = (q/|x| + 1)/sqrt(d^2 - 2x).
        return dpsi(-eu) * (smile.wing.q / eu + 1.0) / math.sqrt(a2 + 2.0 * eu)

    # A clamped side has I' = 0, so g phi(f) dx = psi phi(z) dz there.
    share = tol / 4.0
    return (_cells(smile, grid, share, payoff.kinks)
            + _past_grid(ts, lambda sigma: lambda x, z: psi(x),
                         lambda x, z: psi(x) - dpsi(x), wing_u, share))
