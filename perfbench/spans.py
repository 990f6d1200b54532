"""In-memory span recorder, and the import-site patches that feed it.

Spans are recorded from outside the library.  :func:`instrument` swaps each
public function listed in ``SITES`` for a wrapper at the module attribute
the library itself calls through (``smilewings.cli.implied_vol``,
``smilewings.models.integrate``, ...), and puts the originals back on exit.
No file under ``src/`` changes, and with no instrumentation active the
library runs its own, unwrapped functions.

A span holds its name, start, end, parent span, item id and whether the
call failed.  Spans live in flat arrays so that a traced pass of a million
calls stays a few tens of megabytes; they are summarised after the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

SETUP_ITEM = -1


class Tracer:
    """Records spans and plain counters for one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counters: dict[str, float] = defaultdict(float)
        self.item_id = SETUP_ITEM
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            # A worker thread's outermost span was caused by whatever the
            # main thread has open (cli.iv around its thread pool).
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.item.append(self.item_id)
            self.failed.append(0)
            self.end.append(math.nan)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        if failed:
            self.failed[idx] = 1
        self._stack().pop()

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, fn: Callable, name, after=None,
          result_failed=None) -> Callable:
    """``name`` is a string, or a function of the call's arguments for
    spans whose name depends on the input (the FMLS pricing regime)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(*args, **kwargs)
        idx = tracer.open(label)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, failed=True)
            raise
        tracer.close(idx, failed=bool(result_failed and result_failed(out)))
        if after is not None:
            after(tracer, out, *args, **kwargs)
        return out

    return wrapper


# FMLS regime thresholds as documented in smilewings.models: deep series at
# x <= -120, Laguerre mid wing below -2, Carr-Madan up to 0.5, density call
# beyond.
def fmls_regime(x: float) -> str:
    if x <= -120.0:
        return "deep"
    if x < -2.0:
        return "laguerre"
    if x <= 0.5:
        return "carr_madan"
    return "density"


def _model_put_name(model, x, *args, **kwargs) -> str:
    from smilewings.models import FMLS

    if isinstance(model, FMLS):
        return "models.model_put." + fmls_regime(float(x))
    return "models.model_put.other"


def _after_model_smile(tracer, smile, model, x_grid, *args, **kwargs):
    tracer.count("models.priced", np.size(x_grid))
    tracer.count("models.kept", smile.x.size)


def _after_sample_paths(tracer, paths, *args, **kwargs):
    tracer.count("models.sample_paths.paths", len(paths))


def _after_integrate(tracer, result, *args, **kwargs):
    tracer.count("numerics.integrate.evals", result.evaluations)


def _cli_failed(rc) -> bool:
    return rc != 0


# (span name or a function of the call's arguments, import sites,
#  counter hook run on the result, check that marks a returned result failed)
SITES = [
    ("cli.iv", [("smilewings.cli", "cmd_iv")], None, _cli_failed),
    ("cli.wing-fit", [("smilewings.cli", "cmd_wing_fit")], None, _cli_failed),
    ("cli.varswap", [("smilewings.cli", "cmd_varswap")], None, _cli_failed),
    ("cli.smile-gen", [("smilewings.cli", "cmd_smile_gen")], None, _cli_failed),
    ("models.model_smile", [("smilewings.cli", "model_smile"),
                            ("smilewings.models", "model_smile")],
     _after_model_smile, None),
    (_model_put_name, [("smilewings.models", "model_put")], None, None),
    ("models.sample_paths", [("smilewings.models", "sample_paths")],
     _after_sample_paths, None),
    ("replication.discrete_varswap_payoff",
     [("smilewings.replication", "discrete_varswap_payoff")], None, None),
    ("blackscholes.implied_vol", [("smilewings.cli", "implied_vol"),
                                  ("smilewings.models", "implied_vol")],
     None, None),
    ("numerics.integrate", [("smilewings.models", "integrate"),
                            ("smilewings.replication", "integrate"),
                            ("smilewings.gf", "integrate")],
     _after_integrate, None),
    ("replication.varswap_strip", [("smilewings.cli", "varswap_strip")],
     None, None),
    ("gf.build_transform", [("smilewings.cli", "build_transform")], None, None),
    ("gf.gf_varswap", [("smilewings.cli", "gf_varswap")], None, None),
    ("fileio.read_chain_csv", [("smilewings.cli", "read_chain_csv")],
     None, None),
    ("fileio.read_smile_csv", [("smilewings.cli", "read_smile_csv")],
     None, None),
    ("fileio.write_smile_csv", [("smilewings.cli", "write_smile_csv")],
     None, None),
    ("wings.estimate_q", [("smilewings.cli", "estimate_q")], None, None),
    # The benchmark's own set-up prices its chains through this attribute.
    ("blackscholes.put_price", [("smilewings.blackscholes", "put_price")],
     None, None),
]

# (span name, class path, method names)
METHOD_SITES = [
    ("blackscholes.SmileCurve.eval",
     ("smilewings.blackscholes", "SmileCurve"), ("__call__", "derivative")),
    ("replication.PricePath.init",
     ("smilewings.replication", "PricePath"), ("__init__",)),
]


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every site for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    try:
        for name, sites, after, result_failed in SITES:
            for mod_name, attr in sites:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, _wrap(tracer, orig, name, after,
                                         result_failed))
        for name, (mod_name, cls_name), methods in METHOD_SITES:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                saved.append((cls, meth, orig))
                setattr(cls, meth, _wrap(tracer, orig, name))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# summaries


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of the union of intervals (they may overlap across threads)."""
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    total = 0.0
    cur_lo, cur_hi = starts[order[0]], ends[order[0]]
    for i in order[1:]:
        lo, hi = starts[i], ends[i]
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    return float(total + cur_hi - cur_lo)


class Summary:
    """Per-name aggregates over the spans whose item id passes ``keep``."""

    def __init__(self, tracer: Tracer, keep: Callable[[np.ndarray], np.ndarray]):
        name = np.frombuffer(tracer.name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        item = np.frombuffer(tracer.item, dtype=np.int32)
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        failed = np.frombuffer(tracer.failed, dtype=np.int8)
        mask = keep(item)
        dur = end - start
        # Self time: a span's duration minus the union of its children's
        # intervals, so overlapping worker-thread children are not counted
        # twice.
        child_cover = np.zeros(name.size)
        has_parent = mask & (parent >= 0)
        kids = np.nonzero(has_parent)[0]
        if kids.size:
            order = kids[np.argsort(parent[kids], kind="stable")]
            bounds = np.flatnonzero(np.diff(parent[order])) + 1
            for group in np.split(order, bounds):
                child_cover[parent[group[0]]] = _union_length(
                    start[group], end[group])
        self_time = dur - child_cover
        self._by_name: dict[str, np.ndarray] = {}
        for nid, nm in enumerate(tracer.names):
            self._by_name[nm] = np.nonzero(mask & (name == nid))[0]
        self._start, self._end, self._dur = start, end, dur
        self._self, self._failed = self_time, failed

    def _idx(self, name: str) -> np.ndarray:
        return self._by_name.get(name, np.zeros(0, dtype=np.intp))

    def calls(self, name: str) -> int:
        return int(self._idx(name).size)

    def busy(self, name: str) -> float:
        return float(self._dur[self._idx(name)].sum())

    def self_s(self, name: str) -> float:
        return float(self._self[self._idx(name)].sum())

    def failed(self, name: str) -> int:
        return int(self._failed[self._idx(name)].sum())

    def failed_busy(self, name: str) -> float:
        idx = self._idx(name)
        return float(self._dur[idx[self._failed[idx] == 1]].sum())

    def covered(self, name: str) -> float:
        idx = self._idx(name)
        return _union_length(self._start[idx], self._end[idx])
