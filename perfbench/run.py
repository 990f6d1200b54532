"""smilewings benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload smile-gen --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory.  Set-up (importing the library,
generating the seeded inputs and writing the input files) is timed on its
own; then the workload's items run in passes until ``--seconds`` have
passed, each pass is checked, and the metrics are printed one per line,
followed by the result as a single JSON line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same inputs and reports the per-layer
metrics from the traced ones (per pass), each layer's share of the traced
wall time, and the tracing overhead.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

WORKLOADS = ("smile-gen", "chain-analytics", "mc-paths")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
MIN_ITEMS_FOR_P90 = 100

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Layers whose spans are reported with calls / busy_s (and failed where the
# layer can refuse work).  put_price is the benchmark's own set-up pricing.
_LAYER_FIELDS = [
    ("models.model_smile", ("calls", "busy_s", "self_s")),
    ("models.model_put.deep", ("calls", "busy_s", "refused")),
    ("models.model_put.laguerre", ("calls", "busy_s", "refused")),
    ("models.model_put.carr_madan", ("calls", "busy_s", "refused")),
    ("models.model_put.density", ("calls", "busy_s", "refused")),
    ("models.sample_paths", ("calls", "busy_s")),
    ("replication.PricePath.init", ("calls", "busy_s")),
    ("replication.discrete_varswap_payoff", ("calls", "busy_s")),
    ("blackscholes.implied_vol", ("calls", "busy_s", "failed")),
    ("cli.iv", ("calls", "busy_s", "self_s", "failed")),
    ("numerics.integrate", ("calls", "busy_s", "failed")),
    ("blackscholes.SmileCurve.eval", ("calls", "busy_s")),
    ("replication.varswap_strip", ("calls", "busy_s", "failed")),
    ("gf.build_transform", ("calls", "busy_s", "failed")),
    ("gf.gf_varswap", ("calls", "busy_s", "failed")),
    ("fileio.read_chain_csv", ("busy_s",)),
    ("fileio.read_smile_csv", ("busy_s",)),
    ("fileio.write_smile_csv", ("busy_s",)),
    ("wings.estimate_q", ("calls", "busy_s")),
    ("cli.wing-fit", ("calls", "busy_s", "self_s", "failed")),
    ("cli.varswap", ("calls", "busy_s", "self_s", "failed")),
    ("cli.smile-gen", ("calls", "busy_s", "self_s", "failed")),
]
_SETUP_LAYERS = [("blackscholes.put_price", ("calls", "busy_s"))]
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "failed": "count",
          "refused": "count"}
SHARE_LAYERS = [name for name, _ in _LAYER_FIELDS]

PER_LAYER = (
    [(f"{layer}.{f}", _UNITS[f]) for layer, fields in _LAYER_FIELDS
     for f in fields]
    + [("models.refused_s", "s"), ("models.useful_ratio", "ratio"),
       ("models.sample_paths.paths", "count"),
       ("numerics.integrate.evals", "count"),
       ("fileio.bytes_read", "B"), ("fileio.bytes_written", "B")]
    + [(f"{layer}.{f}", _UNITS[f]) for layer, fields in _SETUP_LAYERS
       for f in fields]
    + [(f"share.{layer}", "ratio") for layer in SHARE_LAYERS]
    + [("trace.overhead_s", "s")]
)


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    from smilewings.config import thread_count

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_count": thread_count(),
        "SMILE_WINGS_THREADS": os.environ.get("SMILE_WINGS_THREADS"),
        "git_commit": _git_commit(),
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, out=sys.stdout) -> dict:
    """Set up, run and check one workload; print the report and return the
    result object (the last line printed)."""
    import smilewings  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - PROCESS_T0
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        tracer = spans.Tracer() if trace else None
        ctx = workloads.Context(workdir)
        gen_times = []
        for rep in range(SETUP_REPEATS):
            traced_setup = trace and rep == 0
            t0 = time.perf_counter()
            with spans.instrument(tracer) if traced_setup else nullcontext():
                wl = workloads.SET_UP[name](ctx, seed, tiny)
            gen_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen_times)
        passes = _run_passes(wl, ctx, tracer, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK_ROOT.rmdir()

    env = environment()
    verdicts = [v for p in passes for v in p.verdicts]
    attempted = len(verdicts)
    failed = sum(v.failed for v in verdicts)
    correct = not any(v.wrong for v in verdicts)
    print(f"# perfbench {name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}", file=out)
    print("# env " + json.dumps(env, sort_keys=True), file=out)
    print(f"# setting iv_workers={env['thread_count']}", file=out)
    reasons = Counter(f"{it.label}: {v.reason}" for p in passes
                      for it, v in zip(wl.items, p.verdicts) if v.failed)
    for reason, n in sorted(reasons.items()):
        print(f"# failed x{n} {reason}", file=out)
    print(f"# passes={len(passes)} items/pass={len(wl.items)} "
          f"attempted={attempted} failed={failed}", file=out)

    if trace:
        metrics = _layer_metrics(tracer, passes)
    else:
        metrics = _end_to_end(passes, setup_s, out)
    for key, m in metrics.items():
        print(f"{key} {m['value']!r} {m['unit']}", file=out)
    # Carried in the result as failed / attempted rather than as a metric:
    # it is 0 on workloads where nothing fails.
    print(f"fail_ratio {failed / attempted!r} ratio", file=out)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), file=out)
    return result


@dataclass
class Pass:
    traced: bool
    first_item: int             # item id of the pass's first item
    seconds: float
    item_seconds: list[float]
    verdicts: list


def _run_passes(wl, ctx, tracer, seconds: float) -> list[Pass]:
    """Repeat the item list until ``seconds`` have passed.  With a tracer,
    even passes run bare and odd passes traced, so both are measured in
    the same process."""
    import workloads

    passes: list[Pass] = []
    t_phase = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        first_item = len(passes) * len(wl.items)
        ctx.tracer = tracer if traced else None
        outputs, errors, times = [], [], []
        with spans.instrument(tracer) if traced else nullcontext():
            t_pass = time.perf_counter()
            for i, item in enumerate(wl.items):
                if traced:
                    tracer.item_id = first_item + i
                t0 = time.perf_counter()
                try:
                    value, error = item.run(), None
                except Exception as exc:  # noqa: BLE001 - an item failure
                    value, error = None, exc
                times.append(time.perf_counter() - t0)
                outputs.append(value)
                errors.append(error)
            pass_s = time.perf_counter() - t_pass
        ctx.tracer = None
        verdicts = [workloads.raised(error) if error is not None
                    else item.check(value)
                    for item, value, error in zip(wl.items, outputs, errors)]
        for i, v in wl.pass_check(outputs).items():
            verdicts[i] = v
        passes.append(Pass(traced, first_item, pass_s, times, verdicts))
        elapsed = time.perf_counter() - t_phase
        if elapsed >= seconds and (tracer is None or len(passes) >= 2):
            return passes


def _end_to_end(passes: list[Pass], setup_s: float, out) -> dict:
    times = [t for p in passes for t in p.item_seconds]
    print(f"# item_count={len(times)} (p90 backed by >= 10 samples beyond "
          f"it: {len(times) >= MIN_ITEMS_FOR_P90})", file=out)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.seconds for p in passes),
        "item_p50_ms": 1e3 * statistics.median(times),
        "item_p90_ms": 1e3 * _percentile(times, 90),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}


def _layer_metrics(tracer, passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    bare = [p for p in passes if not p.traced]
    traced_items = np.array([p.first_item + i for p in traced
                             for i in range(len(p.item_seconds))])
    n = len(traced)
    timed = spans.Summary(tracer, lambda item: np.isin(item, traced_items))
    setup = spans.Summary(tracer, lambda item: item == spans.SETUP_ITEM)
    traced_wall = sum(p.seconds for p in traced)
    values: dict[str, float] = {}
    for layer, fields in _LAYER_FIELDS:
        for f in fields:
            values[f"{layer}.{f}"] = _field(timed, layer, f) / n
    puts = [layer for layer, _ in _LAYER_FIELDS
            if layer.startswith("models.model_put.")]
    values["models.refused_s"] = sum(
        timed.failed_busy(layer) for layer in puts) / n
    priced = tracer.counters.get("models.priced", 0.0)
    values["models.useful_ratio"] = \
        tracer.counters.get("models.kept", 0.0) / priced if priced else 0.0
    for key in ("models.sample_paths.paths", "numerics.integrate.evals",
                "fileio.bytes_read", "fileio.bytes_written"):
        values[key] = tracer.counters.get(key, 0.0) / n
    for layer, fields in _SETUP_LAYERS:
        for f in fields:
            values[f"{layer}.{f}"] = _field(setup, layer, f)
    for layer in SHARE_LAYERS:
        values[f"share.{layer}"] = timed.covered(layer) / traced_wall
    values["trace.overhead_s"] = (
        statistics.median(p.seconds for p in traced)
        - statistics.median(p.seconds for p in bare))
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}


def _field(summary, layer: str, f: str) -> float:
    if f == "calls":
        return summary.calls(layer)
    if f == "busy_s":
        return summary.busy(layer)
    if f == "self_s":
        return summary.self_s(layer)
    return summary.failed(layer)  # failed / refused


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "smilewings" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from the root of a "
              "smilewings checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
