#!/usr/bin/env python3
"""Variance-swap truncation study on a pure-jump smile.

For each grid depth the model smile is rebuilt from scratch, both pricing
routes run, and the error against the model's own -2 E[log S_T] recorded.
The strike-strip route sees truncation directly -- whatever sits beyond
the deepest knot must come from the smile's wing extrapolation -- while
the transform route feels it through the fitted wing of the transform.
With the clamp wing both routes stall at the truncation error; with the
corollary wing (and the right q) they keep converging.

Typical run:

    python3 scripts/varswap_route_comparison.py --depths 8 16 32 64 \
        --wing corollary_expansion --output routes.json
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

import numpy as np

from smilewings.config import resolve_config
from smilewings.fileio import to_canonical_json
from smilewings.gf import build_transform, gf_varswap
from smilewings.models import FMLS, fmls_mean_log_oracle, model_smile
from smilewings.replication import varswap_strip


def one_depth(depth: float, args, cfg) -> dict:
    grid = np.arange(-depth, args.x_max + 1e-9, args.step)
    kwargs: dict = {}
    if args.wing == "corollary_expansion":
        kwargs = {"left_wing": "corollary_expansion",
                  "left_wing_q": args.alpha}
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # dropped right-wing knots are fine
        sm = model_smile(FMLS(args.alpha, args.scale), grid,
                         tol=cfg.tol, **kwargs)
    build_s = time.perf_counter() - t0

    # deep-smile integrands cannot certify much below 1e-7; the model
    # build keeps the tighter cfg.tol
    pricing_tol = max(cfg.tol, 1e-7)
    t0 = time.perf_counter()
    strip = varswap_strip(sm, tol=pricing_tol)
    strip_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    gf = gf_varswap(build_transform(sm, tol=pricing_tol),
                    tol=pricing_tol, z_range=cfg.z_range)
    gf_s = time.perf_counter() - t0
    return {"depth": depth, "knots": int(sm.x.size), "strip": strip,
            "gf": gf, "build_s": build_s, "strip_s": strip_s, "gf_s": gf_s}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--scale", type=float, default=0.25)
    ap.add_argument("--depths", type=float, nargs="+",
                    default=[8.0, 16.0, 32.0, 64.0])
    ap.add_argument("--step", type=float, default=0.5)
    ap.add_argument("--x-max", type=float, default=1.5, dest="x_max")
    ap.add_argument("--wing", choices=("clamp", "corollary_expansion"),
                    default="corollary_expansion")
    ap.add_argument("--config", default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--z-range", type=float, default=None, dest="z_range")
    ap.add_argument("--output", default=None, help="write a json report here")
    args = ap.parse_args(argv)
    cfg = resolve_config(args.config, tol=args.tol, z_range=args.z_range)

    oracle = -2.0 * fmls_mean_log_oracle(args.alpha, args.scale)
    print(f"alpha={args.alpha:g} scale={args.scale:g} wing={args.wing}; "
          f"-2 E[log S] = {oracle:.10f}")
    print(f"{'depth':>6}{'knots':>7}{'strip':>14}{'gf':>14}"
          f"{'strip err':>12}{'gf err':>12}{'secs':>8}")
    rows = []
    for depth in args.depths:
        row = one_depth(depth, args, cfg)
        row["strip_err"] = abs(row["strip"] - oracle)
        row["gf_err"] = abs(row["gf"] - oracle)
        rows.append(row)
        total = row["build_s"] + row["strip_s"] + row["gf_s"]
        print(f"{depth:>6g}{row['knots']:>7}{row['strip']:>14.8f}"
              f"{row['gf']:>14.8f}{row['strip_err']:>12.2e}"
              f"{row['gf_err']:>12.2e}{total:>8.2f}")

    if args.output:
        report = {"alpha": args.alpha, "scale": args.scale,
                  "wing": args.wing, "oracle": oracle, "rows": rows}
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(to_canonical_json(report))
        print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
