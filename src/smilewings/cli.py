"""Command-line front door.

Subcommands compose the library into reproducible analyses:

    iv         chain file -> smile file (per-row inversion)
    wing-fit   smile file -> tail-index report (json)
    varswap    smile file -> variance-swap value(s) (json or csv)
    smile-gen  model parameters -> smile file with metadata
    verify     run the named end-to-end checks (json report)

Exit codes: 0 success, 1 environment/parse trouble (unreadable files, bad
flags, bad model parameters), 2 domain/validation trouble (malformed rows,
empty tail windows, non-monotone transforms).  Output is deterministic:
fixed field order, floats at 17 significant digits, non-finite values as
tagged strings.  ``iv`` inverts its rows in input order.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from contextlib import nullcontext
from typing import NoReturn

import numpy as np

from .acceptance import run_checks
from .blackscholes import implied_vol
from .config import RunConfig, resolve_config
from .errors import DomainError, EmptyTail, FileFormatError, SmileWingsError
from .fileio import SMILE_HEADER, format_float, read_chain_csv, \
    read_smile_csv, to_canonical_json, write_smile_csv
from .gf import build_transform, gf_varswap
from .models import FMLS, Brownian, LogMixture, Lognormal, model_smile
from .replication import varswap_strip
from .wings import estimate_q


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; this tool reserves 2 for domain
    problems, so parse failures are remapped to 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _open_in(path: str):
    return nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8")


def _open_out(path: str):
    return nullcontext(sys.stdout) if path == "-" else open(
        path, "w", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_iv(args, cfg: RunConfig) -> int:
    with _open_in(args.input) as fh:
        rows, bad = read_chain_csv(fh)
    problems: list[tuple[int, str]] = list(bad)
    inverted: list[tuple[float, float]] = []
    for lineno, row in rows:
        try:
            if row.value_kind == "implied_vol":
                iv = float(row.value)
                if math.isnan(iv) or math.isinf(iv) or iv < 0.0:
                    raise DomainError(
                        f"implied_vol must be finite and >= 0, got {iv}")
            else:
                iv = implied_vol(row.log_moneyness, row.value)
        except SmileWingsError as exc:
            problems.append((lineno, str(exc)))
        else:
            inverted.append((row.log_moneyness, iv))
    with _open_out(args.output) as fh:
        fh.write(SMILE_HEADER + "\n")
        for x, iv in inverted:
            fh.write(f"{format_float(x)},{format_float(iv)}\n")
    for lineno, msg in sorted(problems):
        print(f"line {lineno}: {msg}", file=sys.stderr)
    return 2 if problems else 0


def cmd_wing_fit(args, cfg: RunConfig) -> int:
    if not args.x_min <= args.x_max:
        raise DomainError(
            f"--x-min must not exceed --x-max, got [{args.x_min}, {args.x_max}]")
    with _open_in(args.input) as fh:
        smile, _ = read_smile_csv(fh)
    xs = [float(v) for v in smile.x if args.x_min <= v <= args.x_max]
    if not xs:
        raise EmptyTail(
            f"no smile knots inside [{args.x_min}, {args.x_max}]")
    report = estimate_q(smile, xs, method=args.method,
                        q_ceiling=cfg.q_ceiling)
    doc = {
        "q_hat": report.q_hat,
        "method": report.method,
        "residual": report.residual,
        "statistic_samples": [
            {"x": x, "statistic": s} for x, s in report.statistic_samples],
        "bound_violations": [
            {"x": x, "message": m} for x, m in report.bound_violations],
        "notes": list(report.notes),
    }
    with _open_out(args.output) as fh:
        fh.write(to_canonical_json(doc))
    return 0


def cmd_varswap(args, cfg: RunConfig) -> int:
    with _open_in(args.input) as fh:
        smile, _ = read_smile_csv(fh)
    doc: dict[str, object] = {"method": args.method}
    if args.method in ("strip", "both"):
        doc["strip"] = varswap_strip(smile, tol=cfg.tol)
    if args.method in ("gf", "both"):
        ts = build_transform(smile, tol=cfg.tol)
        doc["gf"] = gf_varswap(ts, tol=cfg.tol, z_range=cfg.z_range)
    if args.method == "both":
        doc["discrepancy"] = abs(doc["strip"] - doc["gf"])  # type: ignore[operator]
    with _open_out(args.output) as fh:
        if cfg.output_format == "csv":
            fh.write("field,value\n")
            for k, v in doc.items():
                val = format_float(v) if isinstance(v, float) else str(v)
                fh.write(f"{k},{val}\n")
        else:
            fh.write(to_canonical_json(doc))
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"--x-grid wants START:STOP:COUNT, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"bad --x-grid {spec!r}: {exc}") from exc
    if n < 1:
        raise DomainError(f"--x-grid count must be >= 1, got {n}")
    if not lo <= hi:
        raise DomainError(f"--x-grid needs START <= STOP, got {spec!r}")
    with np.errstate(all="ignore"):
        # Ends that are not finite, or too far apart, give non-finite
        # points, which model_smile rejects.
        return np.linspace(lo, hi, n)


def _require(args, flag: str, model: str) -> float:
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise DomainError(f"{flag} is required for --model {model}")
    return value


def cmd_smile_gen(args, cfg: RunConfig) -> int:
    try:
        meta: dict[str, object] = {"model": args.model}
        if args.model == "lognormal":
            sigma = _require(args, "--sigma", "lognormal")
            model = Lognormal(sigma)
            meta["sigma"] = sigma
        elif args.model == "fmls":
            alpha = _require(args, "--alpha", "fmls")
            model = FMLS(alpha, args.scale)
            meta["alpha"], meta["scale"] = alpha, args.scale
        else:
            sigma = _require(args, "--sigma", "mixture")
            y_shape = _require(args, "--y-shape", "mixture")
            y_scale = _require(args, "--y-scale", "mixture")
            model = LogMixture(Brownian(sigma), y_shape, y_scale)
            meta["sigma"], meta["y_shape"], meta["y_scale"] = \
                sigma, y_shape, y_scale
        meta["tol"] = cfg.tol
        grid = _parse_grid(args.x_grid)
        smile_kwargs: dict[str, object] = {}
        if args.left_wing is not None:
            smile_kwargs["left_wing"] = args.left_wing
        if args.left_wing_q is not None:
            smile_kwargs["left_wing_q"] = args.left_wing_q
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            smile = model_smile(model, grid, tol=cfg.tol, **smile_kwargs)
    except DomainError as exc:
        # For this command parameter validation is an exit-1 affair,
        # unlike row-level domain problems elsewhere.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    with _open_out(args.output) as fh:
        write_smile_csv(fh, smile, metadata=meta)
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    only = [t.strip() for t in args.only.split(",")] if args.only else None
    results = run_checks(cfg, only=only, tol=args.tol)
    doc = {
        "checks": [
            {"name": r.name, "passed": r.passed, "margin": r.margin,
             "detail": r.detail}
            for r in results],
        "all_passed": all(r.passed for r in results),
    }
    with _open_out(args.output) as fh:
        fh.write(to_canonical_json(doc))
    return 0 if doc["all_passed"] else 1


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key=value config file (flags win over it)")
    common.add_argument("--tol", type=float, help="numerical tolerance")
    common.add_argument("--seed", type=int, help="simulation seed")
    common.add_argument("--q-ceiling", type=float, dest="q_ceiling",
                        help="cap for tail-index estimates")
    common.add_argument("--z-range", type=float, dest="z_range",
                        help="half-width of the transform-space window")
    common.add_argument("--output", default="-", metavar="PATH",
                        help="output path ('-' = stdout)")

    parser = _Parser(prog="smilewings",
                     description="Model-free implied-volatility toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("iv", parents=[common],
                       help="invert a chain file into a smile file")
    p.add_argument("--input", default="-", metavar="PATH",
                   help="chain csv ('-' = stdin)")
    p.set_defaults(func=cmd_iv)

    p = sub.add_parser("wing-fit", parents=[common],
                       help="estimate the tail index from a smile file")
    p.add_argument("--input", default="-", metavar="PATH")
    p.add_argument("--x-min", type=float, required=True, dest="x_min")
    p.add_argument("--x-max", type=float, required=True, dest="x_max")
    p.add_argument("--method", choices=("min-statistic", "least-squares"),
                   default="min-statistic")
    p.set_defaults(func=cmd_wing_fit)

    p = sub.add_parser("varswap", parents=[common],
                       help="price a variance swap from a smile file")
    p.add_argument("--input", default="-", metavar="PATH")
    p.add_argument("--method", choices=("strip", "gf", "both"),
                   default="both")
    p.add_argument("--output-format", choices=("json", "csv"),
                   dest="output_format", help="report format")
    p.set_defaults(func=cmd_varswap)

    p = sub.add_parser("smile-gen", parents=[common],
                       help="generate a model smile file")
    p.add_argument("--model", choices=("lognormal", "fmls", "mixture"),
                   required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--y-shape", type=float, dest="y_shape")
    p.add_argument("--y-scale", type=float, dest="y_scale")
    p.add_argument("--x-grid", default="-16:3:96", dest="x_grid",
                   metavar="START:STOP:COUNT",
                   help="log-moneyness grid (use --x-grid=-16:3:96 form)")
    p.add_argument("--left-wing", choices=("clamp", "corollary_expansion"),
                   dest="left_wing")
    p.add_argument("--left-wing-q", type=float, dest="left_wing_q")
    p.set_defaults(func=cmd_smile_gen)

    p = sub.add_parser("verify", parents=[common],
                       help="run the end-to-end verification checks")
    p.add_argument("--only", metavar="TOKENS",
                   help="comma-separated name substrings to keep")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = resolve_config(args.config, tol=args.tol, seed=args.seed,
                             q_ceiling=args.q_ceiling, z_range=args.z_range,
                             output_format=getattr(args, "output_format", None))
        return args.func(args, cfg)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SmileWingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
