"""Wing slope bounds, small-price bounds, and the tail-index estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smilewings.blackscholes import SmileCurve, WingForm
from smilewings.errors import DomainError, EmptyTail, NonPositiveVol
from smilewings.wings import (
    WingReport,
    estimate_q,
    iv_wing_bound,
    lee_bound_check,
    log_moment_statistic,
    put_upper_bound,
    v_q,
    wing_expansion,
)


class TestBoundaryCheck:
    def test_flat_smile_inside_boundary(self):
        sm = SmileCurve.flat(0.2)
        assert lee_bound_check(sm, 2.0, np.linspace(-15.0, -2.0, 27)) == []

    def test_violation_reported_with_location(self):
        sm = SmileCurve.flat(3.0)
        out = lee_bound_check(sm, 2.0, [-2.0, -8.0])
        # sqrt(2*2) = 2 < 3 breaches at -2; sqrt(2*8) = 4 > 3 clears at -8
        assert len(out) == 1
        assert out[0][0] == -2.0
        assert "sqrt" in out[0][1]

    def test_validation(self):
        sm = SmileCurve.flat(0.2)
        with pytest.raises(DomainError):
            lee_bound_check(sm, 1.5, [-3.0])
        with pytest.raises(DomainError):
            lee_bound_check(sm, 2.0, [-3.0], no_mass_at_zero=False)
        with pytest.raises(DomainError):
            lee_bound_check(sm, 2.0, [-3.0, 0.5])
        # beta > 2 never needs the flag
        assert lee_bound_check(sm, 2.5, [-3.0], no_mass_at_zero=False) == []


class TestSmallPriceBounds:
    def test_v_q_defining_equation(self):
        # v_q(k) is the small root of v (q - log v) = q k.
        for k, q in ((1e-8, 0.7), (1e-3, 1.0), (0.2, 2.5), (0.9, 10.0)):
            v = v_q(k, q)
            assert 0.0 < v < k
            assert abs(v * (q - math.log(v)) / (q * k) - 1.0) < 1e-13

    def test_v_q_domain(self):
        with pytest.raises(DomainError):
            v_q(0.5, 0.0)
        with pytest.raises(DomainError):
            v_q(0.0, 1.0)
        with pytest.raises(DomainError):
            v_q(1.1, 2.0)  # k > 1 for q >= 1
        with pytest.raises(DomainError):
            v_q(math.exp(-0.5) * 1.01, 0.5)  # k > e^{q-1} for q < 1

    def test_put_upper_bound_ordering(self):
        # tight <= loose, both positive, for representative (x, q, m)
        for x, q in ((-3.0, 0.5), (-5.0, 1.0), (-10.0, 2.0)):
            b = put_upper_bound(x, q, 0.2)
            assert 0.0 < b.tight <= b.loose

    def test_put_upper_bound_q_zero_is_cap(self):
        b = put_upper_bound(-2.0, 0.0, 1.0)
        assert b.loose == b.tight == math.exp(-2.0)

    def test_put_upper_bound_domain(self):
        with pytest.raises(DomainError):
            put_upper_bound(0.1, 1.0, 0.2)      # needs x < 0 for q >= 1
        with pytest.raises(DomainError):
            put_upper_bound(-0.3, 0.5, 0.2)     # needs x < q-1 for q < 1
        with pytest.raises(DomainError):
            put_upper_bound(-2.0, 1.0, -0.1)

    def test_bounds_dominate_black_scholes_puts(self):
        # lognormal sigma: m_1 = E|log S| in closed form via the folded normal
        from smilewings.models import Lognormal, log_moment_oracle
        from smilewings.blackscholes import put_price
        m1 = log_moment_oracle(Lognormal(0.25), 1.0)
        for x in (-2.0, -5.0, -9.0):
            p = put_price(x, 0.25).p
            b = put_upper_bound(x, 1.0, m1)
            assert p <= b.tight <= b.loose


class TestWingBound:
    def test_pin(self):
        assert math.isclose(iv_wing_bound(-100.0, 1.0), 11.429250980475451,
                            rel_tol=1e-14)

    def test_p_zero_is_absolute_cap(self):
        for x in (-2.0, -50.0):
            assert math.isclose(iv_wing_bound(x, 0.0), math.sqrt(-2.0 * x),
                                rel_tol=1e-15)

    def test_decreasing_in_p(self):
        vals = [iv_wing_bound(-30.0, p) for p in (0.0, 0.5, 1.0, 3.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            iv_wing_bound(-0.5, 1.0)
        with pytest.raises(DomainError):
            iv_wing_bound(-3.0, -0.1)

    def test_statistic_recovers_p_on_bound_curves(self):
        # Plugging the bound curve back into the statistic squares to p
        # identically -- the algebra the estimator rests on.
        for p in (0.7, 1.3, 2.0):
            x = -1e4
            sm = SmileCurve(np.array([x]), np.array([iv_wing_bound(x, p)]))
            st_val = log_moment_statistic(x, sm)
            assert math.isclose(st_val * st_val, p, rel_tol=1e-11)

    def test_statistic_flat_smile_pin(self):
        assert math.isclose(log_moment_statistic(-50.0, SmileCurve.flat(0.2)),
                            89.3409483663528, rel_tol=1e-12)

    def test_statistic_domain(self):
        sm = SmileCurve.flat(0.2)
        with pytest.raises(DomainError):
            log_moment_statistic(-1.0, sm)


def test_wing_expansion_remainder_order():
    """|exact - series| falls like (log|x|)^2 |x|^{-3/2}: divided by that
    envelope the remainder settles toward 1/(4 sqrt 2) ~ 0.17678 at q = 1."""
    q = 1.0
    for x in (-1e3, -1e4, -1e5, -1e6):
        we = wing_expansion(x, q)
        scaled = (abs(we.exact_form - we.series_form)
                  * (-x) ** 1.5 / math.log(-x) ** 2)
        assert 0.17 < scaled < 0.18
    we = wing_expansion(-1e4, q)
    assert math.isclose(
        abs(we.exact_form - we.series_form) * 1e6, 14.989130477260915,
        rel_tol=1e-6)
    assert math.isclose(we.exact_form, we.series_form, rel_tol=2e-7)
    deep = wing_expansion(-1e6, q)
    assert math.isclose(deep.exact_form, deep.series_form, rel_tol=1e-10)
    with pytest.raises(DomainError):
        wing_expansion(-0.5, 1.0)


class TestEstimator:
    def test_exact_recovery_min_statistic(self):
        for q in (0.5, 1.5, 3.0):
            xs = np.sort(-np.geomspace(1e2, 1e6, 25))
            sm = SmileCurve(xs, WingForm(q, 0.0).vol(xs), interpolation="linear")
            rep = estimate_q(sm, xs.tolist())
            assert abs(rep.q_hat - q) < 1e-10
            assert rep.residual < 1e-10
            assert rep.method == "min-statistic"
            assert rep.bound_violations == ()

    def test_exact_recovery_least_squares(self):
        for q in (0.5, 3.0):
            xs = np.sort(-np.geomspace(1e2, 1e6, 25))
            sm = SmileCurve(xs, WingForm(q, 0.0).vol(xs), interpolation="linear")
            rep = estimate_q(sm, xs.tolist(), method="least-squares")
            assert abs(rep.q_hat - q) < 1e-6
            assert rep.method == "least-squares"

    def test_flat_smile_hits_ceiling(self):
        rep = estimate_q(SmileCurve.flat(0.2), [-5.0, -10.0, -15.0],
                         q_ceiling=50.0)
        assert rep.q_hat == 50.0
        assert "no finite q detected" in rep.notes

    def test_samples_sorted_and_deduplicated(self):
        sm = SmileCurve.flat(0.2)
        rep = estimate_q(sm, [-10.0, -5.0, -10.0, -7.0])
        assert [x for x, _ in rep.statistic_samples] == [-5.0, -7.0, -10.0]

    def test_boundary_breach_recorded(self):
        # vols pinned above sqrt(2|x|) at the shallow end
        xs = np.array([-8.0, -4.0, -2.0])
        sm = SmileCurve(xs, np.array([3.0, 3.0, 3.0]), interpolation="linear")
        rep = estimate_q(sm, xs.tolist())
        breached = {x for x, _ in rep.bound_violations}
        assert -2.0 in breached and -4.0 in breached and -8.0 not in breached

    def test_validation(self):
        sm = SmileCurve.flat(0.2)
        with pytest.raises(EmptyTail):
            estimate_q(sm, [])
        with pytest.raises(DomainError):
            estimate_q(sm, [-5.0, -0.5])
        with pytest.raises(DomainError):
            estimate_q(sm, [-5.0], method="maximum-likelihood")
        for method in ("min-statistic", "least-squares"):
            for q_ceiling in (math.inf, math.nan, 0.0):
                with pytest.raises(DomainError):
                    estimate_q(sm, [-5.0], method=method, q_ceiling=q_ceiling)

    def test_nonpositive_vol_rejected(self):
        # No public constructor can produce a curve that evaluates <= 0, so
        # the defensive check is exercised through a stand-in.
        class Dead:
            def __call__(self, xs):
                return np.zeros_like(np.asarray(xs, dtype=float))

        with pytest.raises(NonPositiveVol):
            estimate_q(Dead(), [-5.0])
        with pytest.raises(NonPositiveVol):
            log_moment_statistic(-5.0, Dead())

    def test_report_validation(self):
        with pytest.raises(DomainError):
            WingReport(q_hat=-1.0, statistic_samples=(), method="m",
                       residual=0.0, bound_violations=())
        with pytest.raises(DomainError):
            WingReport(q_hat=1.0, statistic_samples=((-5.0, 1.0), (-2.0, 1.0)),
                       method="m", residual=0.0, bound_violations=())
