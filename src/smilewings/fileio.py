"""File formats: smile CSV, option-chain CSV, canonical JSON.

Output is deterministic byte-for-byte: fixed field order, floats at 17
significant digits, non-finite values as the tagged strings "inf",
"-inf", "nan" (JSON has no literals for them).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Literal, Mapping

import numpy as np

from .blackscholes import SmileCurve
from .errors import DomainError, FileFormatError

__all__ = [
    "ChainFileRow",
    "format_float",
    "parse_float",
    "numbered_lines",
    "to_canonical_json",
    "write_smile_csv",
    "read_smile_csv",
    "write_chain_csv",
    "read_chain_csv",
]

SMILE_HEADER = "log_moneyness,implied_vol"
CHAIN_HEADER = "log_moneyness,value,value_kind"


def format_float(v: float) -> str:
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def parse_float(s: str) -> float:
    # float() already accepts the tagged spellings "inf"/"-inf"/"nan".
    return float(s.strip())


def numbered_lines(fh: IO[str]) -> Iterator[tuple[int, str]]:
    """The lines of a text stream with 1-based numbers.  A byte the stream
    cannot decode raises FileFormatError naming the line it sits on."""
    lineno = 0
    try:
        for raw in fh:
            lineno += 1
            yield lineno, raw
    except UnicodeDecodeError as exc:
        # The chunk that failed to decode starts inside the line after the
        # last one read; count the line breaks in it up to the bad byte.
        bad = lineno + 1 + exc.object.count(b"\n", 0, exc.start)
        raise FileFormatError(
            f"line {bad}: not valid {exc.encoding} ({exc.reason})") from exc


def _emit(obj, out: list, depth: int) -> None:
    pad = "  " * depth
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isfinite(v):
            out.append(format_float(v))
        else:
            out.append(json.dumps(format_float(v)))
    elif isinstance(obj, Mapping):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            if not isinstance(k, str):
                raise DomainError(f"json keys must be strings, got {k!r}")
            out.append(pad + "  " + json.dumps(k) + ": ")
            _emit(v, out, depth + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _emit(v, out, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} to json")


def to_canonical_json(obj) -> str:
    """Serialize with insertion-ordered keys and 17-digit floats; the same
    in-memory value always yields the same bytes."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# smile files


def write_smile_csv(fh: IO[str], smile: SmileCurve,
                    metadata: Mapping[str, object] | None = None) -> None:
    """`# key=value` metadata lines, the fixed header, then knot rows."""
    meta: dict[str, object] = {}
    if metadata:
        meta.update(metadata)
    meta.setdefault("interpolation", smile.interpolation)
    meta.setdefault("left_wing", smile.left_wing)
    if smile.left_wing_q is not None:
        meta.setdefault("left_wing_q", smile.left_wing_q)
    if smile.certified_q is not None:
        meta.setdefault("certified_q", smile.certified_q)
    for k, v in meta.items():
        val = format_float(v) if isinstance(v, float) else str(v)
        fh.write(f"# {k}={val}\n")
    fh.write(SMILE_HEADER + "\n")
    for x, v in zip(smile.x, smile.vol):
        fh.write(f"{format_float(float(x))},{format_float(float(v))}\n")


def read_smile_csv(fh: IO[str]) -> tuple[SmileCurve, dict[str, str]]:
    """Inverse of :func:`write_smile_csv`.  Structural problems raise
    FileFormatError; value-domain problems surface as DomainError from the
    curve's own validation."""
    meta: dict[str, str] = {}
    header_seen = False
    xs: list[float] = []
    vols: list[float] = []
    for lineno, raw in numbered_lines(fh):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, _, v = body.partition("=")
                meta[k.strip()] = v.strip()
            continue
        if not header_seen:
            if line != SMILE_HEADER:
                raise FileFormatError(
                    f"line {lineno}: expected header {SMILE_HEADER!r}, got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FileFormatError(f"line {lineno}: expected 2 columns, got {len(parts)}")
        try:
            xs.append(parse_float(parts[0]))
            vols.append(parse_float(parts[1]))
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
    if not header_seen:
        raise FileFormatError(f"missing header {SMILE_HEADER!r}")
    if not xs:
        raise FileFormatError("smile file has no knot rows")
    kwargs: dict = {}
    if "interpolation" in meta:
        kwargs["interpolation"] = meta["interpolation"]
    if "left_wing" in meta:
        kwargs["left_wing"] = meta["left_wing"]
    if "left_wing_q" in meta:
        try:
            kwargs["left_wing_q"] = parse_float(meta["left_wing_q"])
        except ValueError as exc:
            raise FileFormatError(f"bad left_wing_q metadata: {meta['left_wing_q']!r}") from exc
    if "certified_q" in meta:
        try:
            kwargs["certified_q"] = parse_float(meta["certified_q"])
        except ValueError as exc:
            raise FileFormatError(f"bad certified_q metadata: {meta['certified_q']!r}") from exc
    return SmileCurve(np.array(xs), np.array(vols), **kwargs), meta


# ---------------------------------------------------------------------------
# chain files


@dataclass(frozen=True)
class ChainFileRow:
    """One strike of an input chain: a put price or an implied vol."""

    log_moneyness: float
    value: float
    value_kind: Literal["put_price", "implied_vol"]

    def __post_init__(self) -> None:
        if self.value_kind not in ("put_price", "implied_vol"):
            raise DomainError(f"unknown value_kind {self.value_kind!r}")
        if math.isnan(self.log_moneyness) or math.isinf(self.log_moneyness):
            raise DomainError(f"log_moneyness must be finite, got {self.log_moneyness}")


def write_chain_csv(fh: IO[str], rows: Iterable[ChainFileRow]) -> None:
    fh.write(CHAIN_HEADER + "\n")
    for r in rows:
        fh.write(f"{format_float(r.log_moneyness)},{format_float(r.value)},{r.value_kind}\n")


def read_chain_csv(fh: IO[str]) -> tuple[list[tuple[int, ChainFileRow]],
                                         list[tuple[int, str]]]:
    """Parse a chain file.  Returns (rows, row_errors), each tagged with the
    1-based line number; a bad header raises FileFormatError, while malformed
    rows are collected so the good ones can still be processed."""
    rows: list[tuple[int, ChainFileRow]] = []
    bad: list[tuple[int, str]] = []
    header_seen = False
    for lineno, raw in numbered_lines(fh):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CHAIN_HEADER:
                raise FileFormatError(
                    f"line {lineno}: expected header {CHAIN_HEADER!r}, got {line!r}")
            header_seen = True
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            bad.append((lineno, f"expected 3 columns, got {len(parts)}"))
            continue
        try:
            row = ChainFileRow(parse_float(parts[0]), parse_float(parts[1]), parts[2])
        except (ValueError, DomainError) as exc:
            bad.append((lineno, str(exc)))
            continue
        rows.append((lineno, row))
    if not header_seen:
        raise FileFormatError(f"missing header {CHAIN_HEADER!r}")
    return rows, bad
