"""Named end-to-end checks with margins, shared by the CLI and the tests.

Each check builds what it needs from scratch (model smiles are cached at
module level so the CLI and pytest pay the pricing cost once per process),
runs one verification scenario, and reports a pass flag plus how much room
was left.  Margin conventions vary by check and are spelled out in each
``detail`` string: tolerance comparisons report the fraction of the
tolerance left unused, inequality suites report the smallest absolute
slack.  Wall-clock time is returned but never serialized, so identical
inputs give byte-identical reports.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .blackscholes import SmileCurve, WingForm, d_minus, f_transform, implied_vol, \
    put_price
from .config import RunConfig
from .errors import DomainError
from .gf import PayoffSpec, TransformedSmile, build_transform, gf_varswap, \
    price_psi_ac, price_psi_c2
from .models import FMLS, Lognormal, fmls_mean_log_oracle, log_moment_oracle, \
    model_put, model_smile, sample_paths
from .numerics import integrate, lambert_w_m1, mills_ratio
from .replication import discrete_varswap_payoff, log_contract_strip, varswap_strip
from .wings import estimate_q, iv_wing_bound, lee_bound_check, \
    log_moment_statistic, put_upper_bound

__all__ = [
    "CheckResult",
    "CHECKS",
    "run_checks",
    "deep_fmls_smile",
    "moderate_fmls_smile",
    "fmls_smile_for",
    "flat_smile",
    "transform_of",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_Outcome = tuple[bool, float, str]   # a check body's (passed, margin, detail)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str
    elapsed_s: float


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Cached fixtures.


@lru_cache(maxsize=None)
def deep_fmls_smile() -> SmileCurve:
    """FMLS(1.5, 0.25) smile on a grid graded out to x = -1e6, with the
    analytic left-wing continuation anchored at the last knot.  Deeper
    knots are counterproductive: the monotone cubic's error between
    geometric knots grows like sqrt(|x|) while the vol curve's gap to its
    sqrt(2|x|) cap grows only like sqrt(log|x|), so far enough out the
    interpolated d2 wobbles by more than it moves per cell and the
    transform's monotonicity check rightly refuses the curve.  At -1e6
    with ~2% spacing that margin is comfortable, and the anchored wing
    constant is converged well past the tolerances used here."""
    body = np.linspace(-8.0, 3.0, 221)
    mid = -np.geomspace(8.0, 120.0, 100)
    deep = -np.geomspace(120.0, 1e6, 450)
    grid = np.unique(np.concatenate([deep, mid, body]))
    return _quiet(model_smile, FMLS(1.5, 0.25), grid,
                  left_wing="corollary_expansion", left_wing_q=1.5)


@lru_cache(maxsize=None)
def moderate_fmls_smile() -> SmileCurve:
    """FMLS(1.5, 0.25) on [-16, 3] with 0.2 spacing and clamped wings."""
    grid = np.arange(-16.0, 3.0 + 1e-9, 0.2)
    return _quiet(model_smile, FMLS(1.5, 0.25), grid)


@lru_cache(maxsize=None)
def fmls_smile_for(alpha: float) -> SmileCurve:
    grid = np.arange(-16.0, 1.0 + 1e-9, 0.5)
    return _quiet(model_smile, FMLS(alpha, 0.25), grid)


@lru_cache(maxsize=None)
def flat_smile(sigma: float) -> SmileCurve:
    return SmileCurve.flat(sigma, certified_q=math.inf)


@lru_cache(maxsize=None)
def transform_of(smile: SmileCurve) -> TransformedSmile:
    # SmileCurve hashes by identity and every fixture above is a singleton,
    # so this caches one transform per fixture.
    return build_transform(smile)


# ---------------------------------------------------------------------------
# The checks.

CHECKS: dict[str, Callable[..., CheckResult]] = {}


def _check(name: str):
    """Register a check under ``name``.  Its body returns (passed, margin,
    detail); the registered function times it and builds the CheckResult."""
    def register(body: Callable[..., _Outcome]):
        @functools.wraps(body)
        def run(cfg: RunConfig, tol: float | None = None) -> CheckResult:
            start = time.perf_counter()
            passed, margin, detail = body(cfg, tol)
            return CheckResult(name, passed, margin, detail,
                               time.perf_counter() - start)
        CHECKS[name] = run
        return run
    return register


@_check("iv-roundtrip")
def check_iv_roundtrip(cfg: RunConfig, tol: float | None = None) -> _Outcome:
    """Price-then-invert round trip over a wide moneyness/vol grid."""
    tol = 1e-9 if tol is None else tol
    xs = np.linspace(-10.0, 3.0, 200)
    sigmas = np.linspace(0.01, 3.0, 50)
    worst = 0.0
    at = (0.0, 0.0)
    for s in sigmas:
        for x in xs:
            err = abs(implied_vol(x, put_price(x, s)) - s)
            if err > worst:
                worst, at = err, (x, s)
    passed = worst < tol
    margin = (tol - worst) / tol
    detail = (f"max |implied_vol(put_price) - sigma| = {worst:.3e} at "
              f"x = {at[0]:.3f}, sigma = {at[1]:.3f} over a 200 x 50 grid "
              f"(tol {tol:.1e}; margin = unused tolerance fraction)")
    return passed, margin, detail


@_check("flat-varswap")
def check_flat_varswap(cfg: RunConfig, tol: float | None = None) -> _Outcome:
    """Both variance-swap routes recover sigma^2 exactly on flat smiles."""
    tol = 1e-7 if tol is None else tol
    worst = 0.0
    lines = []
    for s in (0.1, 0.2, 0.5):
        sm = flat_smile(s)
        strip = varswap_strip(sm, tol=1e-9)
        gf = gf_varswap(transform_of(sm), tol=1e-9)
        e1, e2 = abs(strip - s * s), abs(gf - s * s)
        worst = max(worst, e1, e2)
        lines.append(f"sigma={s:g}: strip err {e1:.2e}, gf err {e2:.2e}")
    passed = worst < tol
    detail = ("; ".join(lines) +
              f" (tol {tol:.1e}; margin = unused tolerance fraction)")
    return passed, (tol - worst) / tol, detail


@_check("levy-varswap-routes")
def check_levy_varswap_routes(cfg: RunConfig,
                              tol: float | None = None) -> _Outcome:
    """Strip and transform routes agree with each other and with the model's
    own -2 E[log S_T] on the deep pure-jump smile."""
    tol = 1e-4 if tol is None else tol
    sm = deep_fmls_smile()
    strip2 = 2.0 * log_contract_strip(sm, tol=1e-7)
    gf = gf_varswap(transform_of(sm), tol=1e-7)
    oracle = -2.0 * fmls_mean_log_oracle(1.5, 0.25)
    e_routes = abs(gf - strip2)
    e_strip = abs(strip2 - oracle)
    e_gf = abs(gf - oracle)
    worst = max(e_routes, e_strip, e_gf)
    detail = (f"2*strip = {strip2:.10f}, gf = {gf:.10f}, density oracle = "
              f"{oracle:.10f}; route gap {e_routes:.2e}, strip-vs-oracle "
              f"{e_strip:.2e}, gf-vs-oracle {e_gf:.2e} (tol {tol:.1e}; "
              f"margin = unused tolerance fraction)")
    return worst < tol, (tol - worst) / tol, detail


@_check("moment-put-bounds")
def check_moment_put_bounds(cfg: RunConfig,
                            tol: float | None = None) -> _Outcome:
    """Model puts sit below e^x |x|^{-q} E|log S_T|^q, compared in log space
    so the deep lognormal cases stay informative."""
    slack_min = math.inf
    violations = 0
    cases = []
    for model, name in ((Lognormal(0.2), "lognormal"), (FMLS(1.5, 0.25), "fmls")):
        log_puts = {x: model_put(model, x).log_p for x in (-2.0, -5.0, -10.0, -15.0)}
        for q in (0.5, 1.0, 1.4):
            moment = log_moment_oracle(model, q)
            for x, lp in log_puts.items():
                log_bound = x - q * math.log(-x) + math.log(moment)
                slack = log_bound - lp
                if slack < slack_min:
                    slack_min = slack
                    cases = [f"{name} q={q:g} x={x:g}"]
                if slack <= 0.0:
                    violations += 1
    detail = (f"{violations} violations over 24 cases; smallest log-space "
              f"slack {slack_min:.4f} at {cases[0]} (margin = that slack)")
    return violations == 0, slack_min, detail


@_check("lee-wing-bounds")
def check_lee_wing_bounds(cfg: RunConfig,
                          tol: float | None = None) -> _Outcome:
    """The jump smile respects the sqrt(2|x|) boundary on [-15, -2] and sits
    under the order-(alpha - 1/2) wing cap at depth."""
    sm = moderate_fmls_smile()
    lee = lee_bound_check(sm, 2.0, np.linspace(-15.0, -2.0, 131))
    slacks = []
    for x in (-10.0, -15.0):
        cap = iv_wing_bound(x, 1.0)
        slacks.append(cap - float(sm(x)))
    passed = not lee and all(s > 0.0 for s in slacks)
    margin = min(slacks) if not lee else -1.0
    detail = (f"{len(lee)} boundary breaches on 131 points; wing-cap slack "
              f"{slacks[0]:.4f} at x=-10, {slacks[1]:.4f} at x=-15 "
              f"(margin = smallest slack)")
    return passed, margin, detail


@_check("wing-estimator")
def check_wing_estimator(cfg: RunConfig,
                         tol: float | None = None) -> _Outcome:
    """estimate_q is exact on curves of the closed wing form, and the tail
    statistic orders pure-jump smiles by their stability index."""
    tol = 1e-4 if tol is None else tol
    worst = 0.0
    for q in (0.5, 1.5, 3.0):
        xs = np.sort(-np.geomspace(1e2, 1e6, 25))
        sm = SmileCurve(xs, WingForm(q, 0.0).vol(xs), interpolation="linear")
        rep = estimate_q(sm, xs.tolist(), method="min-statistic",
                         q_ceiling=cfg.q_ceiling)
        worst = max(worst, abs(rep.q_hat - q))
    stats = [log_moment_statistic(-15.0, fmls_smile_for(a))
             for a in (1.2, 1.5, 1.8)]
    gaps = [b - a for a, b in zip(stats, stats[1:])]
    ordered = all(g > 0.0 for g in gaps)
    passed = worst < tol and ordered
    margin = (tol - worst) / tol if ordered else -1.0
    detail = (f"max |q_hat - q| = {worst:.2e} over q in {{0.5, 1.5, 3}} "
              f"(tol {tol:.1e}; margin = unused fraction); statistic at "
              f"x=-15: " + ", ".join(f"{s:.6f}" for s in stats) +
              f" for alpha 1.2/1.5/1.8, strictly increasing = {ordered}")
    return passed, margin, detail


def _psi_square() -> PayoffSpec:
    return PayoffSpec(psi=lambda x: x * x, psi_prime=lambda x: 2.0 * x,
                      growth_order_q=2.0, smoothness="twice-differentiable",
                      psi_double_prime=lambda x: 2.0)


def _psi_identity() -> PayoffSpec:
    return PayoffSpec(psi=lambda x: x, psi_prime=lambda x: 1.0,
                      growth_order_q=1.0, smoothness="twice-differentiable",
                      psi_double_prime=lambda x: 0.0)


def _psi_hinge() -> PayoffSpec:
    return PayoffSpec(psi=lambda x: max(x + 0.5, 0.0),
                      psi_prime=lambda x: 1.0 if x > -0.5 else 0.0,
                      growth_order_q=1.0, smoothness="absolutely-continuous",
                      kinks=(-0.5,))


@_check("gf-payoff-routes")
def check_gf_payoff_routes(cfg: RunConfig,
                           tol: float | None = None) -> _Outcome:
    """Transform-route payoff pricing: the squared-log value on a flat
    smile, agreement of the C^2 and absolutely-continuous routes, and a
    kinked payoff against a direct Gaussian quadrature."""
    flat = transform_of(flat_smile(0.2))
    jump = transform_of(moderate_fmls_smile())
    parts: list[tuple[str, float, float]] = []  # (label, err, tol)

    v_sq = price_psi_c2(_psi_square(), flat, tol=1e-9)
    target = 0.04 + 0.04 * 0.04 / 4.0
    parts.append(("x^2 flat", abs(v_sq - target), 1e-8 if tol is None else tol))

    ident = _psi_identity()
    for label, ts in (("flat", flat), ("fmls", jump)):
        c2 = price_psi_c2(ident, ts, tol=1e-9)
        ac = price_psi_ac(ident, ts, tol=1e-9)
        parts.append((f"route gap {label}", abs(ac - c2),
                      1e-8 if tol is None else tol))

    sigma, m = 0.2, -0.02
    zk = -(m + 0.5) / sigma
    oracle = integrate(
        lambda z: (m + sigma * z + 0.5) * math.exp(-0.5 * z * z) / _SQRT_2PI,
        zk, math.inf, tol=1e-10).value
    v_hinge = price_psi_ac(_psi_hinge(), flat, tol=1e-9)
    parts.append(("hinge vs quadrature", abs(v_hinge - oracle),
                  1e-6 if tol is None else tol))

    margin = min((t - e) / t for _, e, t in parts)
    passed = all(e < t for _, e, t in parts)
    detail = ("; ".join(f"{lbl}: err {e:.2e} (tol {t:.0e})"
                        for lbl, e, t in parts) +
              " (margin = smallest unused tolerance fraction)")
    return passed, margin, detail


@_check("strike-derivative")
def check_strike_derivative(cfg: RunConfig,
                            tol: float | None = None) -> _Outcome:
    """Finite-difference strike derivative of smile puts matches
    Phi(-delta) + phi(delta) I'(x), and the slope condition f I' < 1 holds
    at every probe."""
    tol = 1e-5 if tol is None else tol
    sm = moderate_fmls_smile()
    xs = np.linspace(-14.0, 0.5, 50)

    def put_at_strike(k: float) -> float:
        x = math.log(k)
        return put_price(x, float(sm(x))).p

    worst = 0.0
    slope_max = -math.inf
    for x in xs:
        x = float(x)
        k = math.exp(x)
        h = 1e-6 * k
        fd = (put_at_strike(k + h) - put_at_strike(k - h)) / (2.0 * h)
        iv = float(sm(x))
        ivp = sm.derivative(x)
        delta = d_minus(x, iv)
        analytic = (0.5 * math.erfc(delta / math.sqrt(2.0))
                    + math.exp(-0.5 * delta * delta) / _SQRT_2PI * ivp)
        worst = max(worst, abs(fd - analytic))
        slope_max = max(slope_max, f_transform(x, sm) * ivp)
    passed = worst < tol and slope_max < 1.0
    margin = (tol - worst) / tol if slope_max < 1.0 else -1.0
    detail = (f"max |FD - analytic| = {worst:.2e} over 50 strikes (tol "
              f"{tol:.0e}; margin = unused fraction); max f*I' = "
              f"{slope_max:.6f} < 1")
    return passed, margin, detail


@_check("mc-varswap")
def check_mc_varswap(cfg: RunConfig, tol: float | None = None) -> _Outcome:
    """Simulated daily realized variance agrees with the discrete expectation
    sigma^2 (1 + sigma^2/(4n)) within three standard errors."""
    sigma, n_steps, n_paths = 0.2, 252, 100_000
    vals = np.empty(n_paths)
    chunk = 10_000
    model = Lognormal(sigma)
    i = 0
    for c in range(n_paths // chunk):
        for path in sample_paths(model, n_steps, chunk, seed=cfg.seed,
                                 path_offset=c * chunk):
            vals[i] = discrete_varswap_payoff(path)
            i += 1
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1)) / math.sqrt(n_paths)
    expected = sigma ** 2 * (1.0 + sigma ** 2 / (4.0 * n_steps))
    err = abs(mean - expected)
    passed = err < 3.0 * stderr
    detail = (f"mean {mean:.8f} vs discrete expectation {expected:.8f}: "
              f"|diff| = {err:.2e}, 3*stderr = {3.0 * stderr:.2e} over "
              f"{n_paths} paths, seed {cfg.seed} (margin = 3*stderr - |diff|)")
    return passed, 3.0 * stderr - err, detail


@_check("special-functions")
def check_special_functions(cfg: RunConfig,
                            tol: float | None = None) -> _Outcome:
    """Lambert branch residuals, the Mills-ratio approach to 1/z, and the
    sharp-over-loose bound ratio marching to 1."""
    tol = 1e-12 if tol is None else tol
    zs = -np.geomspace(1e-300, math.exp(-1.0) * (1.0 - 1e-12), 1000)
    resid = 0.0
    for z in zs:
        z = float(z)
        w = lambert_w_m1(z)
        resid = max(resid, abs(w * math.exp(w) / z - 1.0))

    mills_err = [abs(z * mills_ratio(z) - 1.0) for z in (5.0, 10.0, 20.0, 38.0)]
    mills_ok = (all(b < a for a, b in zip(mills_err, mills_err[1:]))
                and mills_err[0] < 0.05)

    q = 1.0
    ratios = []
    for lk in (-10.0, -50.0, -200.0):
        bound = put_upper_bound(lk, q, 1.0)
        ratios.append(bound.tight / bound.loose)
    ratio_err = [abs(1.0 - r) for r in ratios]
    ratio_ok = all(b < a for a, b in zip(ratio_err, ratio_err[1:]))

    passed = resid < tol and mills_ok and ratio_ok
    margin = (tol - resid) / tol if (mills_ok and ratio_ok) else -1.0
    detail = (f"max Lambert residual {resid:.2e} over 1000 branch points "
              f"(tol {tol:.0e}; margin = unused fraction); Mills errors "
              + ", ".join(f"{e:.3e}" for e in mills_err)
              + f" decreasing = {mills_ok}; bound ratios "
              + ", ".join(f"{r:.9f}" for r in ratios)
              + f" approaching 1 = {ratio_ok}")
    return passed, margin, detail


def run_checks(cfg: RunConfig, only: Iterable[str] | None = None,
               tol: float | None = None) -> list[CheckResult]:
    """Run the named checks in registry order.

    ``only`` filters by substring (any token matching anywhere in the name
    keeps the check); an empty selection is a caller error.  ``tol``
    overrides the pass tolerance of every tolerance-type check; inequality
    checks ignore it.
    """
    names = list(CHECKS)
    if only is not None:
        tokens = [t for t in only if t]
        names = [n for n in names if any(t in n for t in tokens)]
        if not names:
            raise DomainError(
                f"no checks match {sorted(set(tokens))!r}; "
                f"available: {', '.join(CHECKS)}")
    return [CHECKS[n](cfg, tol) for n in names]
