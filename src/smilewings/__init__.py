"""Model-free implied-volatility tools: wing asymptotics, variance-swap
replication, and transform-based pricing of log-payoffs, with exponential-
Levy reference models for verification."""

from __future__ import annotations

from .blackscholes import NormalizedPutPrice, SmileCurve, WingForm, \
    call_price, d_minus, f_transform, implied_vol, put_price, vega
from .config import RunConfig, resolve_config
from .errors import DivergentWing, DomainError, EmptyTail, FileFormatError, \
    GrowthViolation, MaxIterations, NonPositiveVol, NotMonotone, \
    PriceAtOrAboveCap, PriceBelowIntrinsic, SmileWingsError, \
    ToleranceNotReached, Unsupported
from .gf import PayoffSpec, TransformedSmile, build_transform, gf_varswap, \
    price_psi_ac, price_psi_c2
from .models import FMLS, Brownian, CertifiedQ, LogMixture, Lognormal, \
    certified_q, log_moment_oracle, model_put, model_smile, sample_paths
from .replication import PricePath, discrete_varswap_payoff, \
    log_contract_strip, varswap_strip
from .wings import WingExpansion, WingReport, estimate_q, iv_wing_bound, \
    lee_bound_check, log_moment_statistic, put_upper_bound, v_q, \
    wing_expansion

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # curves and prices
    "NormalizedPutPrice", "SmileCurve", "WingForm", "put_price", "call_price",
    "vega", "implied_vol", "d_minus", "f_transform",
    # wings
    "lee_bound_check", "v_q", "put_upper_bound", "iv_wing_bound",
    "log_moment_statistic", "wing_expansion", "WingExpansion", "estimate_q",
    "WingReport",
    # replication
    "PricePath", "log_contract_strip", "varswap_strip",
    "discrete_varswap_payoff",
    # transform pricing
    "PayoffSpec", "TransformedSmile", "build_transform", "gf_varswap",
    "price_psi_c2", "price_psi_ac",
    # reference models
    "Lognormal", "Brownian", "FMLS", "LogMixture", "CertifiedQ",
    "certified_q", "model_put", "model_smile", "log_moment_oracle",
    "sample_paths",
    # configuration
    "RunConfig", "resolve_config",
    # errors
    "SmileWingsError", "DomainError", "MaxIterations",
    "ToleranceNotReached", "PriceBelowIntrinsic", "PriceAtOrAboveCap",
    "EmptyTail", "NonPositiveVol", "DivergentWing", "NotMonotone",
    "GrowthViolation", "Unsupported", "FileFormatError",
]
