"""Inputs, items and correctness gates of the three workloads.

Every input is drawn from the workload seed.  The library sees only those
inputs: through ``smilewings.cli.main([...])`` in-process where the CLI can
express them, and through public library functions otherwise.  Each
workload is a fixed list of items; the runner repeats that list in passes
and checks the outputs of every pass after it is timed.

Items within a workload are stratified (one per alpha bin, one per strike
ladder, ...), so that the cost of a pass moves little from seed to seed
while every seed still gives different inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from smilewings import blackscholes, cli, fileio, models, replication
from smilewings.blackscholes import SmileCurve
from smilewings.errors import SmileWingsError

REFERENCE = Path(__file__).resolve().parent / "reference" / "smile-gen.json"

# Agreement asked of a regenerated smile against the recorded reference,
# and of an inverted chain against the vols that priced it.
VOL_RTOL = 1e-9
ROUNDTRIP_TOL = 1e-9
PRICE_ULPS = 8
# The bound of the levy-varswap-routes and wing-estimator acceptance checks.
ROUTE_GAP_TOL = 1e-4
Q_TOL = 1e-4


@dataclass(frozen=True)
class Verdict:
    """``failed``: the item raised, a CLI call exited non-zero, or its gate
    rejected the output.  ``wrong``: the item completed and its output
    disagrees with what the gate expects."""

    failed: bool = False
    wrong: bool = False
    reason: str = ""


OK = Verdict()


def _fail(reason: str) -> Verdict:
    return Verdict(failed=True, reason=reason)


def _wrong(reason: str) -> Verdict:
    return Verdict(failed=True, wrong=True, reason=reason)


def raised(exc: Exception) -> Verdict:
    return _fail(f"raised {type(exc).__name__}: {exc}")


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    group: str = ""


@dataclass
class Context:
    """Run state shared by a workload's items.  ``tracer`` is set by the
    runner for traced passes only."""

    workdir: Path
    tracer: object | None = None


@dataclass
class Workload:
    items: list[Item]
    # Gates over a whole pass (the Monte-Carlo means); maps item index to a
    # verdict that overrides the item's own.
    pass_check: Callable[[list[object]], dict[int, Verdict]] = \
        field(default=lambda outputs: {})


# ---------------------------------------------------------------------------
# running the CLI in-process


@dataclass(frozen=True)
class CliRun:
    rc: int
    stderr: str


def run_cli(ctx: Context, argv: list[str], inputs=(), outputs=()) -> CliRun:
    """``smilewings.cli.main(argv)`` with stderr captured; a flag error's
    SystemExit becomes its exit code, as it would for a shell user."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    if ctx.tracer is not None:
        for path in inputs:
            ctx.tracer.count("fileio.bytes_read", os.path.getsize(path))
        for path in outputs:
            if os.path.exists(path):
                ctx.tracer.count("fileio.bytes_written", os.path.getsize(path))
    return CliRun(rc, err.getvalue())


def _first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else ""


def _cli_failure(step: str, res: CliRun) -> Verdict | None:
    if res.rc == 0:
        return None
    return _fail(f"{step} exit {res.rc}: {_first_line(res.stderr)}")


def read_knots(path: Path) -> tuple[list[float], list[float]]:
    """The knot rows of a smile file, parsed without the library."""
    xs: list[float] = []
    vols: list[float] = []
    with open(path, encoding="utf-8") as fh:
        rows = [ln.strip() for ln in fh if ln.strip()
                and not ln.startswith("#")]
    for row in rows[1:]:
        x, v = row.split(",")
        xs.append(float(x))
        vols.append(float(v))
    return xs, vols


def _vols_close(got, want, rtol: float) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rtol * np.abs(want)))


# ---------------------------------------------------------------------------
# smile-gen


FMLS_BINS = 4        # alpha bins over (1.1, 1.9) for the CLI grids
GRADED_BINS = 2      # alpha bins for the graded grids
LATTICE = 4          # alphas per bin, ALPHA_STEP apart round its centre
ALPHA_STEP = 0.002
SCALE_CENTRES = (0.2, 0.3)       # alternating over the alpha bins
SCALE_OFFSETS = (-0.001, 0.0, 0.001)
CLI_GRID = "-16:3:20"
MIX_GRID = "-16:3:64"
# (sigma, y_shape, y_scale) design points of the two mixture smiles; the
# seed moves sigma and y_shape round them on a small lattice.
MIX_DESIGN = ((0.15, 2.0, 0.1), (0.25, 3.0, 0.05))
MIX_SIGMA_OFFSETS = (-0.002, 0.0, 0.002)
MIX_SHAPE_OFFSETS = (-0.01, 0.0, 0.01)
LOGNORMAL_SIGMAS = (0.1, 0.2, 0.3, 0.4, 0.5)
SMILE_TOL = 1e-8     # the CLI's default tolerance, used for graded grids too


def lattice_alpha(bins: int, b: int, j: int) -> float:
    centre = 1.1 + 0.8 / bins * (b + 0.5)
    return round(centre + ALPHA_STEP * (j - (LATTICE - 1) / 2), 4)


def lattice_scale(b: int, k: int) -> float:
    return round(SCALE_CENTRES[b % len(SCALE_CENTRES)] + SCALE_OFFSETS[k], 4)


def graded_grid() -> np.ndarray:
    """Reaches the deep-series regime (x <= -120) through a geometric mid
    wing and a uniform body, like the library's own deep smile."""
    deep = -np.geomspace(120.0, 1e4, 32)
    mid = -np.geomspace(8.0, 120.0, 16)
    body = np.linspace(-8.0, 0.5, 24)
    return np.unique(np.concatenate([deep, mid, body]))


@dataclass(frozen=True)
class SmileSpec:
    kind: str                 # fmls-cli, fmls-graded, mixture-cli, lognormal-cli
    params: tuple[tuple[str, float], ...]

    @property
    def key(self) -> str:
        return self.kind + "|" + ",".join(f"{k}={v!r}" for k, v in self.params)

    def get(self, name: str) -> float:
        return dict(self.params)[name]


def _fmls_spec(kind: str, bins: int, b: int, j: int, k: int) -> SmileSpec:
    return SmileSpec(kind, (("alpha", lattice_alpha(bins, b, j)),
                            ("scale", lattice_scale(b, k))))


def _mixture_spec(d: int, i: int, j: int) -> SmileSpec:
    sigma, shape, scale = MIX_DESIGN[d]
    return SmileSpec("mixture-cli", (
        ("sigma", round(sigma + MIX_SIGMA_OFFSETS[i], 4)),
        ("y_shape", round(shape + MIX_SHAPE_OFFSETS[j], 4)),
        ("y_scale", scale)))


def smile_catalogue() -> list[SmileSpec]:
    """Every smile a seed can pick; the reference file covers all of them."""
    out = []
    for kind, bins in (("fmls-cli", FMLS_BINS), ("fmls-graded", GRADED_BINS)):
        for b in range(bins):
            for j in range(LATTICE):
                for k in range(len(SCALE_OFFSETS)):
                    out.append(_fmls_spec(kind, bins, b, j, k))
    for d in range(len(MIX_DESIGN)):
        for i in range(len(MIX_SIGMA_OFFSETS)):
            for j in range(len(MIX_SHAPE_OFFSETS)):
                out.append(_mixture_spec(d, i, j))
    return out


def smile_specs(seed: int, tiny: bool = False) -> list[SmileSpec]:
    """One smile per alpha bin, the seed picking alpha and scale from the
    bin's lattice: every pass holds the same mix, so its cost moves little
    with the seed."""
    rng = np.random.default_rng([seed, 1])

    def pick(values):
        return values[int(rng.integers(len(values)))]

    specs = []
    for kind, bins in (("fmls-cli", FMLS_BINS), ("fmls-graded", GRADED_BINS)):
        for b in range(bins):
            specs.append(_fmls_spec(kind, bins, b, int(rng.integers(LATTICE)),
                                    int(rng.integers(len(SCALE_OFFSETS)))))
    for d in range(len(MIX_DESIGN)):
        i = int(rng.integers(len(MIX_SIGMA_OFFSETS)))
        j = int(rng.integers(len(MIX_SHAPE_OFFSETS)))
        specs.append(_mixture_spec(d, i, j))
    specs.append(SmileSpec("lognormal-cli", (
        ("sigma", pick(LOGNORMAL_SIGMAS)),)))
    if tiny:
        # The cheapest item of each route: one CLI model smile, one graded
        # library smile, and the closed-form lognormal.
        specs = [s for s in specs if s.kind == "mixture-cli"][:1] + \
            [s for s in specs if s.kind == "fmls-graded"][:1] + \
            [s for s in specs if s.kind == "lognormal-cli"]
    return specs


def smile_argv(spec: SmileSpec, output: str) -> list[str]:
    if spec.kind == "fmls-cli":
        a = spec.get("alpha")
        return ["smile-gen", "--model", "fmls", "--alpha", repr(a),
                "--scale", repr(spec.get("scale")), f"--x-grid={CLI_GRID}",
                "--left-wing", "corollary_expansion", "--left-wing-q", repr(a),
                "--output", output]
    if spec.kind == "mixture-cli":
        return ["smile-gen", "--model", "mixture",
                "--sigma", repr(spec.get("sigma")),
                "--y-shape", repr(spec.get("y_shape")),
                "--y-scale", repr(spec.get("y_scale")),
                f"--x-grid={MIX_GRID}", "--output", output]
    if spec.kind == "lognormal-cli":
        return ["smile-gen", "--model", "lognormal",
                "--sigma", repr(spec.get("sigma")), "--output", output]
    raise ValueError(f"{spec.kind} is not a CLI smile")


def graded_smile(spec: SmileSpec) -> SmileCurve:
    a = spec.get("alpha")
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        return models.model_smile(
            models.FMLS(a, spec.get("scale")), graded_grid(), tol=SMILE_TOL,
            left_wing="corollary_expansion", left_wing_q=a)


def produce_smile(ctx: Context, spec: SmileSpec, path: Path):
    """Runs one smile item: the graded SmileCurve, or the CLI call that
    wrote ``path``."""
    if spec.kind == "fmls-graded":
        return graded_smile(spec)
    return run_cli(ctx, smile_argv(spec, str(path)), outputs=[path])


def smile_knots(out, path: Path) -> tuple[list[float], list[float]]:
    """The (x, vol) knots an item produced; ``out`` must not be a failed
    CLI call."""
    if isinstance(out, SmileCurve):
        return out.x.tolist(), out.vol.tolist()
    return read_knots(path)


def load_reference() -> dict[str, dict[str, list[float]]]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["smiles"]


def _smile_check(spec: SmileSpec, ref: dict | None, path: Path):
    def check(out) -> Verdict:
        if isinstance(out, CliRun) and out.rc != 0:
            return _cli_failure("smile-gen", out)
        xs, vols = smile_knots(out, path)
        if spec.kind == "lognormal-cli":
            sigma = spec.get("sigma")
            if len(xs) != 96:
                return _wrong(f"lognormal smile kept {len(xs)} of 96 knots")
            if not _vols_close(vols, [sigma] * len(vols), VOL_RTOL):
                return _wrong("lognormal vols differ from sigma")
            return OK
        if ref is None:
            return _wrong(f"no reference smile for {spec.key}")
        if xs != ref["x"]:
            return _wrong(f"kept knots differ from the reference "
                          f"({len(xs)} vs {len(ref['x'])})")
        if not _vols_close(vols, ref["vol"], VOL_RTOL):
            return _wrong("vols differ from the reference")
        return OK
    return check


def build_smile_gen(ctx: Context, seed: int, tiny: bool = False) -> Workload:
    reference = load_reference()
    items = []
    for i, spec in enumerate(smile_specs(seed, tiny)):
        path = ctx.workdir / f"smile-{i}.csv"
        items.append(Item(
            label=spec.key,
            run=lambda spec=spec, path=path: produce_smile(ctx, spec, path),
            check=_smile_check(spec, reference.get(spec.key), path)))
    return Workload(items)


# ---------------------------------------------------------------------------
# chain-analytics


LADDER_STEPS = (0.005, 0.01, 0.02, 0.05)
CHAINS_PER_LADDER = 12
K_LO, K_HI = 0.05, 4.0
# SVI total variance w(k) = a + b (rho (k - m) + sqrt((k - m)^2 + s^2)).
SVI_RANGES = (("a", 0.0, 0.05), ("b", 0.02, 0.3), ("rho", -0.9, 0.0),
              ("m", -0.2, 0.2), ("s", 0.05, 0.5))
SVI_JITTER = 0.005


def _latin_hypercube(n: int, dims: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([(rng.permutation(n) + rng.uniform(size=n)) / n
                            for _ in range(dims)])


# One stratum of each SVI parameter per chain, drawn once.  The seed only
# jitters these points, so every seed prices different chains while the
# cost of a pass, which swings widely with the smile's shape, stays put.
SVI_DESIGN = _latin_hypercube(len(LADDER_STEPS) * CHAINS_PER_LADDER,
                              len(SVI_RANGES), seed=0)
WING_WINDOW = ("--x-min=-3", "--x-max=-1.1")
DEEP_Q_CENTRES = (1.25, 2.25)              # exact-form tail indices
DEEP_Q_JITTER = 0.01
DEEP_KNOTS = 680                           # about 2% spacing out to -1e6
DEEP_TOL = "1e-7"                          # as in levy-varswap-routes


@dataclass(frozen=True)
class ChainSpec:
    step: float
    svi: tuple[float, ...]

    def strikes(self) -> np.ndarray:
        n = int(math.ceil((K_HI - K_LO) / self.step - 1e-9))
        return K_LO + self.step * np.arange(n)

    def vols(self, x: np.ndarray) -> np.ndarray:
        a, b, rho, m, s = self.svi
        return np.sqrt(a + b * (rho * (x - m) + np.sqrt((x - m) ** 2 + s * s)))


def chain_specs(seed: int, tiny: bool = False) -> list[ChainSpec]:
    """The fixed design, each parameter moved by the seed within
    +-SVI_JITTER of its range, with the ladders assigned round-robin."""
    rng = np.random.default_rng([seed, 2])
    specs = []
    for i, point in enumerate(SVI_DESIGN):
        svi = tuple(
            float(np.clip(u + SVI_JITTER * rng.uniform(-1.0, 1.0), 0.0, 1.0)
                  * (hi - lo) + lo)
            for u, (_, lo, hi) in zip(point, SVI_RANGES))
        specs.append(ChainSpec(LADDER_STEPS[i % len(LADDER_STEPS)], svi))
    return [s for s in specs if s.step == LADDER_STEPS[-1]][:1] if tiny \
        else specs


def deep_qs(seed: int) -> list[float]:
    rng = np.random.default_rng([seed, 3])
    return [round(q + rng.uniform(-DEEP_Q_JITTER, DEEP_Q_JITTER), 6)
            for q in DEEP_Q_CENTRES]


def exact_wing_form(x: np.ndarray, q: float) -> np.ndarray:
    """sqrt(2q log|x| - 2x) - sqrt(2q log|x|), the corollary wing."""
    s = 2.0 * q * np.log(-x)
    return np.sqrt(s - 2.0 * x) - np.sqrt(s)


@dataclass
class ChainInput:
    x: np.ndarray
    sigma: np.ndarray
    price: np.ndarray


def write_chain(path: Path, spec: ChainSpec) -> ChainInput:
    x = np.log(spec.strikes())
    sigma = spec.vols(x)
    price = np.array([blackscholes.put_price(float(xi), float(si)).p
                      for xi, si in zip(x, sigma)])
    rows = [fileio.ChainFileRow(float(xi), float(p), "put_price")
            for xi, p in zip(x, price)]
    with open(path, "w", encoding="utf-8") as fh:
        fileio.write_chain_csv(fh, rows)
    return ChainInput(x, sigma, price)


def write_deep_smile(path: Path, q: float) -> None:
    x = np.sort(-np.geomspace(1.5, 1e6, DEEP_KNOTS))
    sm = SmileCurve(x, exact_wing_form(x, q), left_wing="corollary_expansion",
                    left_wing_q=q)
    with open(path, "w", encoding="utf-8") as fh:
        fileio.write_smile_csv(fh, sm, metadata={"source": "exact-wing-form",
                                                 "q": q})


def _run_chain(ctx: Context, chain: Path, smile: Path, wf: Path, vs: Path):
    return (
        run_cli(ctx, ["iv", "--input", str(chain), "--output", str(smile)],
                inputs=[chain], outputs=[smile]),
        run_cli(ctx, ["wing-fit", "--input", str(smile), *WING_WINDOW,
                      "--output", str(wf)], inputs=[smile], outputs=[wf]),
        run_cli(ctx, ["varswap", "--method", "both", "--input", str(smile),
                      "--output", str(vs)], inputs=[smile], outputs=[vs]),
    )


def roundtrips(x: float, sigma: float, price: float, vol: float) -> bool:
    """The inverted vol is within 1e-9 of the vol that priced the row, or,
    where the quoted price cannot pin the vol down that far (deep in the
    money the time value is a sliver of the price), it reprices the quote
    to within a few ulps."""
    if abs(vol - sigma) <= ROUNDTRIP_TOL * max(1.0, sigma):
        return True
    repriced = blackscholes.put_price(x, vol).p
    return abs(repriced - price) <= PRICE_ULPS * math.ulp(price)


def _chain_check(inp: ChainInput, outputs: tuple[Path, ...]):
    smile, _, vs = outputs

    def check(out) -> Verdict:
        try:
            return _chain_verdict(inp, smile, vs, out)
        finally:
            # A later pass must not see this pass's files.
            for path in outputs:
                path.unlink(missing_ok=True)
    return check


def _chain_verdict(inp: ChainInput, smile: Path, vs: Path, out) -> Verdict:
    if smile.exists():
        # iv writes every row it could invert, even when it exits 2.
        by_x = dict(zip(inp.x.tolist(), zip(inp.sigma.tolist(),
                                            inp.price.tolist())))
        for x, v in zip(*read_knots(smile)):
            if x not in by_x:
                return _wrong(f"iv wrote an unknown strike x = {x!r}")
            sigma, price = by_x[x]
            if not roundtrips(x, sigma, price, v):
                return _wrong(f"iv round-trip off by {abs(v - sigma):.3g} "
                              f"at x = {x:.6g}")
    for step, res in zip(("iv", "wing-fit", "varswap"), out):
        bad = _cli_failure(step, res)
        if bad:
            return bad
    try:
        with open(smile, encoding="utf-8") as fh:
            fileio.read_smile_csv(fh)
    except SmileWingsError as exc:
        return _fail(f"smile file does not read back: {exc}")
    with open(vs, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not all(isinstance(doc.get(k), float) and math.isfinite(doc[k])
               for k in ("strip", "gf")):
        return _wrong("varswap report lacks finite strip and gf values")
    return OK


def _run_deep(ctx: Context, smile: Path, wf: Path, vs: Path):
    return (
        run_cli(ctx, ["wing-fit", "--input", str(smile), "--x-min=-1e6",
                      "--x-max=-100", "--output", str(wf)],
                inputs=[smile], outputs=[wf]),
        run_cli(ctx, ["varswap", "--method", "both", "--tol", DEEP_TOL,
                      "--input", str(smile), "--output", str(vs)],
                inputs=[smile], outputs=[vs]),
    )


def _deep_check(q: float, wf: Path, vs: Path):
    def check(out) -> Verdict:
        for step, res in zip(("wing-fit", "varswap"), out):
            bad = _cli_failure(step, res)
            if bad:
                return bad
        with open(wf, encoding="utf-8") as fh:
            q_hat = json.load(fh)["q_hat"]
        with open(vs, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not abs(q_hat - q) < Q_TOL:
            return _wrong(f"wing-fit q_hat {q_hat!r} for q = {q}")
        if not abs(doc["strip"] - doc["gf"]) < ROUTE_GAP_TOL:
            return _wrong(f"strip-gf gap {abs(doc['strip'] - doc['gf']):.3g}")
        return OK
    return check


def build_chain_analytics(ctx: Context, seed: int,
                          tiny: bool = False) -> Workload:
    items = []
    for i, spec in enumerate(chain_specs(seed, tiny)):
        chain = ctx.workdir / f"chain-{i}.csv"
        smile = ctx.workdir / f"chain-{i}-smile.csv"
        wf = ctx.workdir / f"chain-{i}-wing.json"
        vs = ctx.workdir / f"chain-{i}-varswap.json"
        inp = write_chain(chain, spec)
        items.append(Item(
            label=f"chain step={spec.step} n={inp.x.size}",
            run=lambda a=(chain, smile, wf, vs): _run_chain(ctx, *a),
            check=_chain_check(inp, (smile, wf, vs))))
    for i, q in enumerate(deep_qs(seed)[:1] if tiny else deep_qs(seed)):
        smile = ctx.workdir / f"deep-{i}.csv"
        wf = ctx.workdir / f"deep-{i}-wing.json"
        vs = ctx.workdir / f"deep-{i}-varswap.json"
        write_deep_smile(smile, q)
        items.append(Item(
            label=f"exact-wing q={q}",
            run=lambda a=(smile, wf, vs): _run_deep(ctx, *a),
            check=_deep_check(q, wf, vs)))
    return Workload(items)


# ---------------------------------------------------------------------------
# mc-paths


LOGNORMAL_STEPS = 252
LOGNORMAL_CHUNK = 3000
MIXTURE_CHUNK = 4500  # about the cost of a lognormal chunk
CHUNKS_PER_MODEL = 3
# A pass mean beyond 3 standard errors fails its items, as in the
# mc-varswap acceptance check.  A correct sampler does that on about 0.3%
# of seeds per model, so only a mean beyond 5 standard errors, which a
# correct sampler reaches about once in two million seeds, marks the output
# wrong.
SE_FAIL = 3.0
SE_WRONG = 5.0


@dataclass(frozen=True)
class McSpec:
    sigma: float
    mix_sigma: float
    mix_shape: float
    mix_scale: float


def mc_spec(seed: int) -> McSpec:
    rng = np.random.default_rng([seed, 4])
    return McSpec(sigma=round(float(rng.uniform(0.1, 0.5)), 6),
                  mix_sigma=round(float(rng.uniform(0.1, 0.3)), 6),
                  mix_shape=round(float(rng.uniform(2.5, 4.0)), 6),
                  mix_scale=round(float(rng.uniform(0.05, 0.2)), 6))


def _lognormal_chunk(model, n: int, seed: int, offset: int):
    paths = models.sample_paths(model, LOGNORMAL_STEPS, n, seed=seed,
                                path_offset=offset)
    return np.array([replication.discrete_varswap_payoff(p) for p in paths])


def _mixture_chunk(model, n: int, seed: int, offset: int):
    paths = models.sample_paths(model, 1, n, seed=seed, path_offset=offset)
    payoff = np.array([replication.discrete_varswap_payoff(p, horizon_T=1.0)
                       for p in paths])
    terminal = np.array([p.values[-1] for p in paths])
    return payoff, terminal


def _chunk_check(n: int):
    def check(out) -> Verdict:
        arrays = out if isinstance(out, tuple) else (out,)
        for arr in arrays:
            if arr.shape != (n,) or not np.all(np.isfinite(arr)) \
                    or np.any(arr < 0.0):
                return _wrong("chunk values not finite and >= 0")
        return OK
    return check


def _mean_gate(values: np.ndarray, target: float) -> Verdict:
    mean = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    off = abs(mean - target) / se
    detail = (f"mean {mean:.8g} vs {target:.8g}: {off:.2f} standard errors "
              f"over {values.size}")
    if off >= SE_WRONG:
        return _wrong(detail)
    return _fail(detail) if off >= SE_FAIL else OK


def build_mc_paths(ctx: Context, seed: int, tiny: bool = False) -> Workload:
    spec = mc_spec(seed)
    ln_model = models.Lognormal(spec.sigma)
    mix_model = models.LogMixture(models.Brownian(spec.mix_sigma),
                                  spec.mix_shape, spec.mix_scale)
    ln_n = 200 if tiny else LOGNORMAL_CHUNK
    mix_n = 400 if tiny else MIXTURE_CHUNK
    items = []
    for c in range(CHUNKS_PER_MODEL):
        items.append(Item(
            label=f"lognormal chunk {c}",
            run=lambda c=c: _lognormal_chunk(ln_model, ln_n, seed, c * ln_n),
            check=_chunk_check(ln_n), group="lognormal"))
        items.append(Item(
            label=f"mixture chunk {c}",
            run=lambda c=c: _mixture_chunk(mix_model, mix_n, seed, c * mix_n),
            check=_chunk_check(mix_n), group="mixture"))
    expected = spec.sigma ** 2 * (1.0 + spec.sigma ** 2 / (4.0 * LOGNORMAL_STEPS))

    def pass_check(outputs: list[object]) -> dict[int, Verdict]:
        # outputs are None for items that raised
        verdicts: dict[int, Verdict] = {}
        for group, target, pick in (
                ("lognormal", expected, lambda o: o),
                ("mixture", 1.0, lambda o: o[1])):
            idx = [i for i, it in enumerate(items) if it.group == group
                   and outputs[i] is not None]
            if not idx:
                continue
            gate = _mean_gate(np.concatenate(
                [pick(outputs[i]) for i in idx]), target)
            if gate.failed:
                for i in idx:
                    verdicts[i] = Verdict(True, gate.wrong,
                                          f"{group} {gate.reason}")
        return verdicts

    return Workload(items, pass_check)


SET_UP = {
    "smile-gen": build_smile_gen,
    "chain-analytics": build_chain_analytics,
    "mc-paths": build_mc_paths,
}
