"""Exponential-Levy oracles: pure-jump stable pricing, log-moment oracles,
the log-mixture, and the deterministic path sampler.

The stable-law reference values below were cross-checked three ways when
frozen: the damped-Fourier transform, the lattice-cell mid wing's integral
of the cdf, and direct density quadrature all agree on the shared digits.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import invgamma, levy_stable

from smilewings.blackscholes import implied_vol, put_price
from smilewings.errors import DomainError, ToleranceNotReached, Unsupported
from smilewings.models import (
    FMLS,
    Brownian,
    LogMixture,
    Lognormal,
    _abs_normal_moment,
    _fmls_call_cm,
    _fmls_calls_right,
    _fmls_dist,
    _fmls_drift,
    _fmls_log_put_deep,
    _fmls_log_put_mid,
    _invgamma_pdf,
    _mixture_kappa,
    _tail_cdf,
    _tail_coeffs,
    certified_q,
    log_moment_oracle,
    model_put,
    model_smile,
    sample_paths,
)

ALPHA, SCALE = 1.5, 0.25
JUMP = FMLS(ALPHA, SCALE)


def test_model_validation():
    with pytest.raises(DomainError):
        Lognormal(0.0)
    with pytest.raises(DomainError):
        FMLS(2.0, 0.25)
    with pytest.raises(DomainError):
        FMLS(1.0, 0.25)
    with pytest.raises(DomainError):
        FMLS(1.5, -0.1)
    with pytest.raises(DomainError):
        LogMixture(Brownian(0.2), 0.0, 1.0)
    with pytest.raises(DomainError):
        LogMixture(Lognormal(0.2), 2.0, 1.0)  # x_part must be Brownian


def test_certified_moment_orders():
    assert certified_q(Lognormal(0.2)).q_true == math.inf
    assert certified_q(JUMP).q_true == ALPHA
    assert certified_q(LogMixture(Brownian(0.2), 3.0, 2.0)).q_true == 3.0


# ---------------------------------------------------------------------------
# the FMLS exponent


def test_exponential_moments_match_fmls_exponent():
    """E[S^p] = exp(c(p - p^alpha)) against direct density quadrature.

    p = 1 is the martingale normalization E[S_T] = 1.  The integrand
    e^{pt} f(t) peaks in a narrow window on the right flank; the peak
    location is declared to the quadrature.
    """
    c = _fmls_drift(ALPHA, SCALE)
    dist = _fmls_dist(ALPHA, SCALE)
    for p in (1.0, 2.0, 5.0):
        ts = np.linspace(-5.0, 25.0, 121)
        dens = dist.pdf(ts)
        with np.errstate(divide="ignore"):
            peak = float(ts[np.argmax(p * ts + np.log(dens))])
        val = quad(lambda t: math.exp(p * t) * dist.pdf(t),
                   -300.0, peak + 20.0, epsabs=1e-13, epsrel=1e-12,
                   limit=400, points=[0.0, peak])[0]
        target = math.exp(c * (p - p ** ALPHA))
        assert abs(val / target - 1.0) < 1e-10, p


def test_tail_series_against_reference_out_of_window():
    # The B_2/B_3 fit used standardized depths 80..450; it must keep at
    # least nine digits well outside that window, where the reference cdf
    # is still trustworthy.
    mu = _fmls_drift(ALPHA, SCALE)
    levy_stable.parameterization = "S1"
    for lam_std in (500.0, 600.0, 650.0):
        lam = SCALE * lam_std
        ref = float(levy_stable.cdf(mu - lam, ALPHA, -1.0, loc=mu, scale=SCALE))
        fit = float(_tail_cdf(np.array([lam]), ALPHA, SCALE)[0])
        assert abs(fit / ref - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# put pricing across the regimes


# Frozen reference log-puts for FMLS(1.5, 0.25); the x = 0 and x = -1 rows
# come from the Fourier route, deeper rows from the lattice-cell mid wing.
_LOG_PUT_PINS = [
    (0.0, -1.8526605702915173),
    (-1.0, -4.561184759718159),
    (-2.0, -6.398990342754116),
    (-5.0, -10.598819958167658),
    (-8.0, -14.24471115081602),
    (-12.0, -18.815434038262328),
    (-30.0, -38.13894161815761),
    (-60.0, -69.1598491406433),
    (-100.0, -109.91825285095364),
]


@pytest.mark.parametrize("x, expected", _LOG_PUT_PINS)
def test_log_put_pins(x, expected):
    assert math.isclose(model_put(JUMP, x).log_p, expected, rel_tol=1e-11)


_CALL_PINS = [
    (0.3, 0.040908704823478644),
    (0.5, 0.009205292285237202),
    (0.8, 0.0002451588636585178),
]


@pytest.mark.parametrize("x, expected", _CALL_PINS)
def test_right_wing_call_pins(x, expected):
    p = model_put(JUMP, x)
    call = math.exp(p.log_time_value)
    assert math.isclose(call, expected, rel_tol=1e-9)


def test_pricing_tiers_agree_at_their_seams():
    # mid wing versus deep series across the x = -120 handover
    for x in (-100.0, -119.0):
        lm = float(_fmls_log_put_mid(np.array([x]), ALPHA, SCALE)[0])
        ld = float(_fmls_log_put_deep(np.array([x]), ALPHA, SCALE)[0])
        assert abs(lm - ld) < 1e-7
    # mid wing versus damped Fourier across the x = -2 handover
    for x in (-2.0, -2.1):
        p_mid = math.exp(float(_fmls_log_put_mid(np.array([x]), ALPHA, SCALE)[0]))
        p_cm = _fmls_call_cm(x, ALPHA, SCALE, 1e-10) - 1.0 + math.exp(x)
        assert abs(p_cm / p_mid - 1.0) < 1e-9
    # damped Fourier versus the right wing's lattice sweep across x = 0.5
    xs = np.array([0.4, 0.5])
    for x, c2 in zip(xs.tolist(), _fmls_calls_right(xs, ALPHA, SCALE)):
        c1 = _fmls_call_cm(x, ALPHA, SCALE, 1e-10)
        assert abs(c1 / c2 - 1.0) < 1e-9


def _call_by_quad(x, alpha, scale):
    """The call C(x) = int_x^hi (e^l - e^x) f(l) dl as one adaptive
    quadrature of the density per strike, on the sweep's window."""
    dist = _fmls_dist(alpha, scale)
    hi = max(_fmls_drift(alpha, scale) + 60.0 * scale, x + 5.0)
    ex = math.exp(x)

    def leg(ell):
        f = float(dist.pdf(ell))
        return (math.exp(ell) - ex) * f if f > 0.0 else 0.0

    return quad(leg, x, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.8, 1.95])
def test_right_wing_sweep_matches_per_strike_quadrature(alpha):
    # The lattice sweep against adaptive quadrature of the same integral:
    # the same strikes refused under the 1e-13 noise floor, and the kept
    # calls within 1e-11 relative.  Near alpha = 1 the density's right
    # tail is steepest, which is what sets the cell width.
    xs = np.array([0.51, 0.8, 1.0, 1.6, 2.2])
    swept = _fmls_calls_right(xs, alpha, SCALE)
    for x, got in zip(xs.tolist(), swept.tolist()):
        want = _call_by_quad(x, alpha, SCALE)
        assert (got < 1e-13) == (want < 1e-13), (x, got, want)
        if want >= 1e-13:
            assert abs(got / want - 1.0) < 1e-11, (x, got, want)


def test_right_wing_price_does_not_depend_on_the_grid():
    # Off-lattice strikes, priced alone and as one swept grid, for a model
    # that keeps them all and for one that refuses 1.61.
    grid = np.array([0.51, 0.77, 1.3, 1.61])
    for model in (FMLS(1.8, SCALE), JUMP):
        kept_x, kept_v = [], []
        for x in grid.tolist():
            try:
                kept_v.append(implied_vol(x, model_put(model, x)))
            except ToleranceNotReached:
                continue
            kept_x.append(x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sm = model_smile(model, grid)
        assert sm.x.tolist() == kept_x
        assert sm.vol.tolist() == kept_v
    assert kept_x == [0.51, 0.77, 1.3]


def test_right_wing_window_past_float_range_is_unsupported():
    # The window end x + 5 passes ln(DBL_MAX) although x itself does not.
    with pytest.raises(Unsupported, match="density window"):
        model_put(JUMP, 705.0)
    with pytest.raises(Unsupported, match="density window"):
        model_smile(JUMP, [0.0, 0.8, 705.0])


def test_mid_and_deep_agree_where_the_reference_cdf_reads_zero():
    # For alpha near 2 scipy's cdf reads hard zero on a band above the
    # standardized -450 switch (from about -367 at alpha = 1.797); the tail
    # fit and the mid wing's cells must both route round it.
    alpha, scale = 1.797, 0.3
    assert abs(_tail_coeffs(alpha, scale)[2]) < 1.0
    x = np.array([-119.0])
    lm = float(_fmls_log_put_mid(x, alpha, scale)[0])
    ld = float(_fmls_log_put_deep(x, alpha, scale)[0])
    assert abs(lm - ld) < 1e-7


def test_put_prices_monotone_in_x():
    xs = [-150.0, -119.0, -60.0, -12.0, -3.0, -1.0, 0.0, 0.7]
    logs = [model_put(JUMP, x).log_p for x in xs]
    assert all(b > a for a, b in zip(logs, logs[1:]))


def test_right_tail_noise_floor_is_refused():
    # Calls beyond x ~ 1.6 sink under the stable-density noise floor; a
    # loud refusal beats a noise-level quote.
    with pytest.raises(ToleranceNotReached):
        model_put(JUMP, 2.5)


def test_moment_dichotomy_proxy():
    """e^{-x} P(x) |x|^q marches to zero below the stability index and to
    infinity above it -- the sharp moment dichotomy, probed along a
    geometric depth ladder through the series tier."""
    for q, increasing in ((ALPHA - 0.2, False), (ALPHA + 0.2, True)):
        t = [model_put(JUMP, -lam).log_p + lam + q * math.log(lam)
             for lam in (1e2, 1e4, 1e6)]
        gaps = [b - a for a, b in zip(t, t[1:])]
        assert all((g > 0.0) == increasing for g in gaps), (q, t)


def test_model_smile_matches_per_point_pricing():
    # Several strikes in each FMLS regime (deep series, lattice-cell mid
    # wing, Carr-Madan, right-wing sweep) and x = 2.5, which sits below the
    # density noise floor.
    grid = np.array([-1000.0, -150.0, -120.0, -119.0, -12.0, -5.0, -2.5,
                     -2.0, -1.0, 0.0, 0.5, 0.8, 2.5])
    kept_x, kept_v = [], []
    for x in grid.tolist():
        try:
            price = model_put(JUMP, x)
        except ToleranceNotReached:
            continue
        kept_x.append(x)
        kept_v.append(implied_vol(x, price))
    assert kept_x == grid.tolist()[:-1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sm = model_smile(JUMP, grid)
    assert sm.x.tolist() == kept_x
    assert sm.vol.tolist() == kept_v
    assert [str(w.message) for w in caught] == [
        "dropping x = 2.5: call at x = 2.5 is below the density noise floor"]
    assert caught[0].filename == __file__


def test_pricing_leaves_scipy_levy_stable_alone():
    xs = (-150.0, -5.0, 0.0, 0.8)  # one strike per FMLS regime
    saved = levy_stable.parameterization
    levy_stable.parameterization = "S1"
    try:
        _tail_coeffs.cache_clear()
        ref = [model_put(JUMP, x) for x in xs] + [log_moment_oracle(JUMP, 1.0)]
        levy_stable.parameterization = "S0"
        _tail_coeffs.cache_clear()
        got = [model_put(JUMP, x) for x in xs] + [log_moment_oracle(JUMP, 1.0)]
        assert levy_stable.parameterization == "S0"
    finally:
        levy_stable.parameterization = saved
    assert got == ref


def test_model_put_dispatch():
    assert math.isclose(model_put(Lognormal(0.2), -1.0).p,
                        put_price(-1.0, 0.2).p, rel_tol=1e-15)
    with pytest.raises(DomainError):
        model_put(JUMP, math.inf)
    with pytest.raises(Unsupported):
        model_put("not a model", 0.0)


# ---------------------------------------------------------------------------
# model_smile


def test_model_smile_flat_for_lognormal():
    sm = model_smile(Lognormal(0.3), np.linspace(-4.0, 1.0, 11))
    assert np.allclose(sm.vol, 0.3, rtol=1e-9)
    assert sm.certified_q == math.inf


def test_model_smile_drops_unresolvable_points_with_warning():
    grid = np.array([-2.0, 0.0, 2.5])   # 2.5 is past the noise floor
    with pytest.warns(UserWarning, match="dropping x = 2.5"):
        sm = model_smile(JUMP, grid)
    assert sm.x.tolist() == [-2.0, 0.0]
    assert sm.certified_q == ALPHA


def test_model_smile_grid_validation():
    with pytest.raises(DomainError):
        model_smile(Lognormal(0.2), [])
    with pytest.raises(DomainError):
        model_smile(Lognormal(0.2), [0.0, 0.0])
    with pytest.raises(DomainError):
        model_smile(Lognormal(0.2), [0.0, math.inf])


# ---------------------------------------------------------------------------
# log-moment oracles


def test_lognormal_moment_pins():
    ln = Lognormal(0.2)
    assert math.isclose(log_moment_oracle(ln, 0.5), 0.36860768457766274,
                        rel_tol=1e-12)
    assert math.isclose(log_moment_oracle(ln, 1.4), 0.08903044021193765,
                        rel_tol=1e-12)
    # q = 2 is exact: m^2 + s^2 with m = -s^2/2
    assert math.isclose(log_moment_oracle(ln, 2.0), 0.0404, rel_tol=1e-13)


def test_lognormal_first_moment_closed_form():
    # folded-normal mean: s sqrt(2/pi) e^{-r^2/2} + m (1 - 2 Phi(-r)), r = m/s
    from scipy.special import ndtr
    m, s = -0.02, 0.2
    r = m / s
    expected = s * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * r * r) \
        + m * (1.0 - 2.0 * float(ndtr(-r)))
    assert math.isclose(log_moment_oracle(Lognormal(0.2), 1.0), expected,
                        rel_tol=1e-12)


def test_moment_order_zero_is_one():
    # E|log S|^0 = 1.  The lognormal route is closed-form and exact; the
    # density routes integrate, and the gamma mixture in particular cannot
    # certify 1e-10 on this integrand, hence the looser tol and check.
    assert log_moment_oracle(Lognormal(0.2), 0.0) == 1.0
    assert math.isclose(log_moment_oracle(JUMP, 0.0), 1.0, rel_tol=1e-12)
    mix = LogMixture(Brownian(0.2), 3.0, 2.0)
    assert math.isclose(log_moment_oracle(mix, 0.0, tol=1e-7), 1.0,
                        rel_tol=1e-9)


def test_divergent_moments_return_inf():
    assert log_moment_oracle(JUMP, ALPHA) == math.inf
    assert log_moment_oracle(JUMP, 2.0) == math.inf
    mix = LogMixture(Brownian(0.2), 3.0, 2.0)
    assert log_moment_oracle(mix, 3.0) == math.inf
    # just below the divergence the moment is finite but the integrand is
    # slowly decaying; the default 1e-10 estimate is out of reach there
    assert math.isfinite(log_moment_oracle(mix, 2.9, tol=1e-7))
    with pytest.raises(DomainError):
        log_moment_oracle(JUMP, -1.0)


def test_fmls_moment_pin():
    assert math.isclose(log_moment_oracle(JUMP, 1.4), 0.9596271411490278,
                        rel_tol=1e-9)


def test_mixture_put_behaves():
    mix = LogMixture(Brownian(0.3), 3.0, 2.0)
    ps = [model_put(mix, x).p for x in (-3.0, -1.0, 0.0)]
    assert all(0.0 < p for p in ps)
    assert ps[0] < ps[1] < ps[2]
    assert ps[2] < 1.0


def test_mixture_martingale_by_simulation():
    # E[e^{sigma Z - Y - kappa}] = 1 by the kappa normalization; checked to
    # three standard errors on a fixed seed.
    mix = LogMixture(Brownian(0.3), 3.0, 2.0)
    vals = np.array([p.values[-1]
                     for p in sample_paths(mix, 1, 20_000, seed=11)])
    stderr = float(vals.std(ddof=1)) / math.sqrt(vals.size)
    assert abs(float(vals.mean()) - 1.0) < 3.0 * stderr


# The (y_shape, y_scale) pairs of the benchmark's mixture catalogue, and the
# mixture the other tests here price.
MIXTURE_PAIRS = [(1.99, 0.1), (2.0, 0.1), (2.01, 0.1),
                 (2.99, 0.05), (3.0, 0.05), (3.01, 0.05), (3.0, 2.0)]


@pytest.mark.parametrize("a, b", MIXTURE_PAIRS)
def test_invgamma_pdf_is_scipys_bit_for_bit(a, b):
    # The smiles' near-intrinsic right-wing vols read the last ulps of the
    # put, so the density must round exactly as scipy's does at every node.
    pdf = _invgamma_pdf(a, b)
    ref = invgamma(a, scale=b)
    below = [-math.inf, -1.0, -0.0, 0.0]
    ys = np.concatenate([below, [5e-324], np.geomspace(1e-300, 1e-4, 300),
                         np.geomspace(1e-4, 1e6, 25_001), [1e308, math.inf]])
    got = np.array([pdf(float(y)) for y in ys])
    with np.errstate(all="ignore"):
        want = np.array([ref.pdf(float(y)) for y in ys])
    assert np.array_equal(got, want)
    assert np.all(got[:len(below)] == 0.0)
    # nodes inside the support whose density underflows to 0
    assert np.count_nonzero(got[len(below):-1] == 0.0) > 0


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_mixture_moment_matches_the_frozen_scipy_leg(q):
    mix = LogMixture(Brownian(0.3), 3.0, 2.0)
    kappa = _mixture_kappa(0.3, 3.0, 2.0)
    frozen = invgamma(3.0, scale=2.0)

    def leg(y):
        f = frozen.pdf(y)
        return f * _abs_normal_moment(-y - kappa, 0.3, q) if f > 0.0 else 0.0

    want = quad(leg, 0.0, math.inf, epsabs=1e-10, epsrel=1.49e-10,
                limit=200)[0]
    assert log_moment_oracle(mix, q) == want


# ---------------------------------------------------------------------------
# path sampling


def test_sample_paths_deterministic():
    a = sample_paths(Lognormal(0.2), 10, 3, seed=42)
    b = sample_paths(Lognormal(0.2), 10, 3, seed=42)
    # numpy integers are integers: the same key gives the same paths
    n = sample_paths(Lognormal(0.2), np.int64(10), np.int64(3),
                     seed=np.int64(42), path_offset=np.int64(0))
    for pa, pb, pn in zip(a, b, n, strict=True):
        assert np.array_equal(pa.values, pb.values)
        assert np.array_equal(pa.values, pn.values)
    c = sample_paths(Lognormal(0.2), 10, 3, seed=43)
    assert not np.array_equal(a[0].values, c[0].values)


def test_sample_paths_offset_is_path_identity():
    # Path i of a chunk at offset k is path 0 of a chunk at offset k + i:
    # chunked draws tile the same stream.
    whole = sample_paths(Lognormal(0.2), 5, 4, seed=7)
    for i in range(4):
        part = sample_paths(Lognormal(0.2), 5, 1, seed=7, path_offset=i)
        assert np.array_equal(whole[i].values, part[0].values)


def test_sample_paths_shape_and_start():
    paths = sample_paths(Lognormal(0.2), 12, 2, seed=1)
    assert len(paths) == 2
    for p in paths:
        assert p.values.size == 13
        assert p.values[0] == 1.0
        assert p.times[0] == 0.0 and p.times[-1] == 1.0


def test_sample_paths_edge_cases():
    assert sample_paths(Lognormal(0.2), 5, 0, seed=1) == []
    with pytest.raises(DomainError):
        sample_paths(Lognormal(0.2), 0, 5, seed=1)
    with pytest.raises(DomainError):
        sample_paths(Lognormal(0.2), 5, -1, seed=1)
    with pytest.raises(Unsupported):
        sample_paths(JUMP, 5, 1, seed=1)
    with pytest.raises(Unsupported):
        sample_paths(LogMixture(Brownian(0.2), 3.0, 2.0), 2, 1, seed=1)


@pytest.mark.parametrize("seed, n_paths, path_offset", [
    (-1, 1, 0),
    (0, 1, -1),
    (2**63, 1, 0),
    (2**64, 1, 0),
    (0, 2, 2**63 - 1),
])
def test_sample_paths_rejects_keys_outside_63_bits(seed, n_paths, path_offset):
    # Both Philox key words must lie in [0, 2**63), as RunConfig's seed does;
    # numpy would silently wrap a negative word to 2**64 - 1.
    with pytest.raises(DomainError):
        sample_paths(Lognormal(0.2), 3, n_paths, seed=seed,
                     path_offset=path_offset)


@pytest.mark.parametrize("argument", ["n_steps", "n_paths", "seed",
                                      "path_offset"])
def test_sample_paths_rejects_non_integers(argument):
    # seed=1.5 used to sample the paths of seed=1, since numpy truncates a
    # fractional key word; a fractional count ended in a raw TypeError.
    args = {"n_steps": 3, "n_paths": 2, "seed": 1, "path_offset": 0}
    args[argument] += 0.5
    with pytest.raises(DomainError, match=argument):
        sample_paths(Lognormal(0.2), **args)


def _paths_by_fresh_generators(model, n_steps, n_paths, seed, path_offset):
    """The per-path sampler: a new Generator(Philox) for every path."""
    out = []
    for i in range(n_paths):
        gen = np.random.Generator(
            np.random.Philox(key=[seed, path_offset + i]))
        if isinstance(model, Lognormal):
            s = model.sigma
            dt = 1.0 / n_steps
            drift = -0.5 * s * s * dt
            step = s * math.sqrt(dt)
            log_vals = np.empty(n_steps + 1)
            log_vals[0] = 0.0
            z = gen.standard_normal(n_steps)
            np.cumsum(drift + step * z, out=log_vals[1:])
            out.append((np.linspace(0.0, 1.0, n_steps + 1), np.exp(log_vals)))
        else:
            s = model.x_part.sigma
            kappa = _mixture_kappa(s, model.y_shape, model.y_scale)
            z = gen.standard_normal()
            y = model.y_scale / gen.gamma(model.y_shape)
            out.append((np.array([0.0, 1.0]),
                        np.array([1.0, math.exp(s * z - y - kappa)])))
    return out


@settings(max_examples=150)
@given(mixture=st.booleans(),
       sigma=st.floats(min_value=0.01, max_value=2.0),
       n_steps=st.integers(min_value=1, max_value=300),
       n_paths=st.integers(min_value=0, max_value=40),
       seed=st.integers(min_value=0, max_value=2**63 - 1),
       path_offset=st.integers(min_value=0, max_value=2**63 - 41))
@example(mixture=False, sigma=0.2, n_steps=252, n_paths=1, seed=42,
         path_offset=0)
@example(mixture=True, sigma=0.2, n_steps=1, n_paths=1, seed=42,
         path_offset=0)
@example(mixture=False, sigma=0.3, n_steps=5, n_paths=7, seed=7,
         path_offset=2**40 + 3)
@example(mixture=True, sigma=0.3, n_steps=1, n_paths=7, seed=7,
         path_offset=9000)
def test_sample_paths_match_fresh_generator_per_path(
        mixture, sigma, n_steps, n_paths, seed, path_offset):
    # Re-keying one Philox per path must reproduce a fresh generator's draws
    # bit for bit, in both models and at any key.
    if mixture:
        model = LogMixture(Brownian(sigma), 3.0, 0.1)
        n_steps = 1
    else:
        model = Lognormal(sigma)
    got = sample_paths(model, n_steps, n_paths, seed=seed,
                       path_offset=path_offset)
    want = _paths_by_fresh_generators(model, n_steps, n_paths, seed,
                                      path_offset)
    assert len(got) == len(want)
    for path, (times, values) in zip(got, want):
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.values, values)


def test_lognormal_paths_have_martingale_mean():
    vals = np.array([p.values[-1]
                     for p in sample_paths(Lognormal(0.4), 8, 20_000, seed=3)])
    stderr = float(vals.std(ddof=1)) / math.sqrt(vals.size)
    assert abs(float(vals.mean()) - 1.0) < 3.0 * stderr
