"""The Gaussian change of variable: transform construction, variance swaps,
and generalized payoff pricing along both routes."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from smilewings import gf, replication
from smilewings.blackscholes import SmileCurve
from smilewings.errors import DomainError, GrowthViolation, NotMonotone
from smilewings.gf import (
    PayoffSpec,
    build_transform,
    gf_varswap,
    price_psi_ac,
    price_psi_c2,
)
from smilewings.numerics import integrate, integrate_cells
from smilewings.replication import varswap_strip

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _identity() -> PayoffSpec:
    return PayoffSpec(psi=lambda x: x, psi_prime=lambda x: 1.0,
                      growth_order_q=1.0, smoothness="twice-differentiable",
                      psi_double_prime=lambda x: 0.0)


def _square() -> PayoffSpec:
    return PayoffSpec(psi=lambda x: x * x, psi_prime=lambda x: 2.0 * x,
                      growth_order_q=2.0, smoothness="twice-differentiable",
                      psi_double_prime=lambda x: 2.0)


def test_payoff_spec_validation():
    with pytest.raises(DomainError):
        PayoffSpec(psi=lambda x: x, psi_prime=lambda x: 1.0,
                   growth_order_q=-1.0, smoothness="twice-differentiable")
    with pytest.raises(DomainError):
        PayoffSpec(psi=lambda x: x, psi_prime=lambda x: 1.0,
                   growth_order_q=1.0, smoothness="piecewise")


# ---------------------------------------------------------------------------
# transform construction


def test_not_monotone_rejected_with_interval():
    # A vol cliff steep enough to fold the transform back on itself.
    bad = SmileCurve(np.array([-2.0, -1.0]), np.array([0.5, 0.1]))
    with pytest.raises(NotMonotone) as exc:
        build_transform(bad)
    lo, hi = exc.value.interval
    assert -2.0 <= lo < hi <= -1.0


def test_single_knot_transform():
    # One knot is a flat smile with no grid cells: both clamped sides carry
    # the whole law.
    ts = build_transform(SmileCurve(np.array([0.0]), np.array([0.2]),
                                    certified_q=math.inf))
    assert abs(gf_varswap(ts, tol=1e-9) - 0.04) < 1e-9
    assert abs(price_psi_c2(_identity(), ts, tol=1e-9) + 0.02) < 1e-9
    assert abs(price_psi_ac(_identity(), ts, tol=1e-9) + 0.02) < 1e-9


# ---------------------------------------------------------------------------
# growth declarations


def test_growth_violation_refused(moderate_transform):
    with pytest.raises(GrowthViolation):
        price_psi_c2(_square(), moderate_transform)


def test_growth_at_certified_boundary_warns(moderate_transform):
    spec = PayoffSpec(
        psi=lambda x: abs(x) ** 1.5,
        psi_prime=lambda x: 1.5 * math.copysign(math.sqrt(abs(x)), x),
        growth_order_q=1.5, smoothness="absolutely-continuous", kinks=(0.0,))
    with pytest.warns(UserWarning, match="boundary-delicate"):
        price_psi_ac(spec, moderate_transform, tol=1e-7)


def test_uncertified_smile_warns_advisory():
    ts = build_transform(SmileCurve.flat(0.2))    # certified_q is None
    with pytest.warns(UserWarning, match="no certified moment order"):
        v = price_psi_c2(_identity(), ts)
    assert math.isclose(v, -0.02, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# variance swaps


def test_gf_varswap_flat(flat02_transform):
    assert abs(gf_varswap(flat02_transform, tol=1e-9) - 0.04) < 1e-9


def test_gf_varswap_resolves_a_density_narrower_than_its_cell():
    # The law of log S_T has width ~0.06 here, and the knot cell around the
    # money is 6 wide: a 15-node rule on that cell alone sees nothing.
    ts = build_transform(SmileCurve(np.array([-22.0, -2.17, 4.06, 5.15]),
                                    np.full(4, 0.06)))
    assert abs(gf_varswap(ts, tol=1e-6) - 0.0036) < 1e-6


def test_gf_varswap_matches_strip_on_jump_smile(moderate_transform):
    from smilewings.replication import varswap_strip
    gf = gf_varswap(moderate_transform, tol=1e-8)
    strip = varswap_strip(moderate_transform.smile, tol=1e-8)
    assert abs(gf - strip) < 1e-6


@pytest.mark.parametrize("name", ["flat02_transform", "deep_transform",
                                  "shallow_wing"])
def test_route_tols_sum_within_requested_tol(name, request, monkeypatch):
    # Every route splits tol into one share per quadrature call; the shares
    # are its error budget and may not add up to more than tol.
    if name == "shallow_wing":
        ts = build_transform(SmileCurve(
            np.linspace(-4.0, 2.0, 13), np.full(13, 0.3),
            left_wing="corollary_expansion", left_wing_q=1.5, certified_q=1.5))
    else:
        ts = request.getfixturevalue(name)
    tols: list[float] = []

    def recording(f, lo, hi, tol=1e-10, points=None):
        tols.append(tol)
        return integrate(f, lo, hi, tol=tol, points=points)

    def recording_cells(f, edges, tol=1e-10):
        tols.append(tol)
        return integrate_cells(f, edges, tol=tol)

    monkeypatch.setattr(gf, "integrate", recording)
    monkeypatch.setattr(gf, "integrate_cells", recording_cells)
    monkeypatch.setattr(replication, "integrate", recording)
    monkeypatch.setattr(replication, "integrate_cells", recording_cells)
    tol = 1e-7
    routes = {
        "varswap_strip": lambda: varswap_strip(ts.smile, tol=tol),
        "gf_varswap": lambda: gf_varswap(ts, tol=tol),
        "price_psi_c2": lambda: price_psi_c2(_identity(), ts, tol=tol),
        "price_psi_ac": lambda: price_psi_ac(_identity(), ts, tol=tol),
    }
    for route, run in routes.items():
        tols.clear()
        run()
        assert tols and math.fsum(tols) <= tol, (route, tols)


# Smiles on which the two routes must meet within the sum of their
# tolerances: long smooth ladders, a wing near the first-moment edge, and
# a knot grid out to -1e6.


def _svi_ladder(a, b, rho, m, s) -> SmileCurve:
    x = np.log(0.05 + 0.01 * np.arange(395))
    return SmileCurve(x, np.sqrt(a + b * (rho * (x - m)
                                          + np.sqrt((x - m) ** 2 + s * s))))


def _gf_within_strip(sm: SmileCurve, tol: float) -> None:
    gap = abs(gf_varswap(build_transform(sm), tol=tol)
              - varswap_strip(sm, tol=tol))
    assert gap <= 2.0 * tol, gap


@pytest.mark.parametrize("params", [
    (0.022, 0.244, -0.688, -0.072, 0.41),
    # Full digits: rounded ones move the smile off the defect.
    (0.034813358199041765, 0.11438508353181999, -0.6962291321065139,
     -0.08320072888494812, 0.14962203848061578),
])
def test_gf_varswap_on_395_knot_svi_ladder(params):
    _gf_within_strip(_svi_ladder(*params), 1e-8)


def test_gf_varswap_near_the_first_moment_edge():
    # Corollary-wing FMLS(1.2, 0.25) on 121 knots, geometric out to -1e4.
    from smilewings.models import FMLS, model_smile
    x = np.concatenate([-np.geomspace(1e4, 2.5, 100), np.linspace(-2.0, 1.0, 21)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # dropped right-wing knots
        sm = model_smile(FMLS(1.2, 0.25), x, left_wing="corollary_expansion",
                         left_wing_q=1.2)
    _gf_within_strip(sm, 1e-6)


def test_gf_varswap_on_exact_wing_smile():
    q = 1.243359
    x = np.sort(-np.geomspace(1.5, 1e6, 680))
    s = 2.0 * q * np.log(-x)
    sm = SmileCurve(x, np.sqrt(s - 2.0 * x) - np.sqrt(s),
                    left_wing="corollary_expansion", left_wing_q=q)
    _gf_within_strip(sm, 1e-7)


# ---------------------------------------------------------------------------
# payoff pricing


def test_square_payoff_flat(flat02_transform):
    # E[(log S)^2] = sigma^2 + sigma^4/4 under the lognormal
    v = price_psi_c2(_square(), flat02_transform, tol=1e-9)
    assert abs(v - 0.0404) < 1e-9


def test_identity_payoff_flat_both_routes(flat02_transform):
    c2 = price_psi_c2(_identity(), flat02_transform, tol=1e-9)
    ac = price_psi_ac(_identity(), flat02_transform, tol=1e-9)
    assert abs(c2 + 0.02) < 1e-9
    assert abs(ac - c2) < 1e-9


def test_routes_agree_on_jump_smile(moderate_transform):
    c2 = price_psi_c2(_identity(), moderate_transform, tol=1e-9)
    ac = price_psi_ac(_identity(), moderate_transform, tol=1e-9)
    assert abs(ac - c2) < 1e-8


def test_identity_payoff_deep_smile_recovers_drift(deep_transform):
    """E[log S_T] through the transform equals the pure-jump model's exact
    drift -0.176776695...; the gap is the anchored-wing truncation, well
    inside the route tolerance used by the end-to-end checks."""
    exact = -0.1767766952966369
    c2 = price_psi_c2(_identity(), deep_transform, tol=1e-8)
    ac = price_psi_ac(_identity(), deep_transform, tol=1e-8)
    assert abs(c2 - exact) < 2e-5
    assert abs(ac - exact) < 2e-5
    assert abs(ac - c2) < 1e-7


def test_identity_payoff_on_grid_right_of_the_money():
    # No knot at x <= 0: the z-legs run on the clamped left side alone.
    ts = build_transform(SmileCurve(np.array([0.1, 0.5, 1.0]), np.full(3, 0.2),
                                    certified_q=math.inf))
    assert abs(price_psi_c2(_identity(), ts, tol=1e-9) + 0.02) < 1e-8
    assert abs(price_psi_ac(_identity(), ts, tol=1e-9) + 0.02) < 1e-8


def test_hinge_payoff_against_gaussian_quadrature(flat02_transform):
    sigma, m, k = 0.2, -0.02, -0.7
    spec = PayoffSpec(psi=lambda x: max(x - k, 0.0),
                      psi_prime=lambda x: 1.0 if x > k else 0.0,
                      growth_order_q=1.0,
                      smoothness="absolutely-continuous", kinks=(k,))
    v = price_psi_ac(spec, flat02_transform, tol=1e-9)
    zk = (k - m) / sigma
    oracle = integrate(
        lambda z: (m + sigma * z - k) * math.exp(-0.5 * z * z) / _SQRT_2PI,
        zk, math.inf, tol=1e-9).value
    assert abs(v - oracle) < 1e-8


def test_smooth_bounded_payoff_on_jump_smile(moderate_transform):
    # cos has growth order 0 and a closed second derivative, so it runs the
    # smooth route and the integration-by-parts route on the same smile.
    spec_c2 = PayoffSpec(psi=math.cos, psi_prime=lambda x: -math.sin(x),
                         growth_order_q=0.0,
                         smoothness="twice-differentiable",
                         psi_double_prime=lambda x: -math.cos(x))
    spec_ac = PayoffSpec(psi=math.cos, psi_prime=lambda x: -math.sin(x),
                         growth_order_q=0.0,
                         smoothness="absolutely-continuous")
    c2 = price_psi_c2(spec_c2, moderate_transform, tol=1e-9)
    ac = price_psi_ac(spec_ac, moderate_transform, tol=1e-9)
    assert abs(ac - c2) < 1e-8
    assert -1.0 <= c2 <= 1.0
