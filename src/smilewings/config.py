"""Run configuration: defaults and config-file overrides."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Literal

from .errors import DomainError, FileFormatError
from .fileio import numbered_lines

__all__ = ["RunConfig", "load_config_file", "resolve_config", "thread_count"]


@dataclass(frozen=True)
class RunConfig:
    tol: float = 1e-8
    q_ceiling: float = 1e3
    seed: int = 42
    output_format: Literal["json", "csv"] = "json"

    def __post_init__(self) -> None:
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise DomainError(f"tol must be a finite positive real, got {self.tol}")
        if not (self.q_ceiling > 0.0 and math.isfinite(self.q_ceiling)):
            raise DomainError(
                f"q_ceiling must be a finite positive real, got {self.q_ceiling}")
        if not 0 <= self.seed < 2**63:
            # The seed is a Philox key word; numpy reads it as a 64-bit int.
            raise DomainError(f"seed must lie in [0, 2**63), got {self.seed}")
        if self.output_format not in ("json", "csv"):
            raise DomainError(f"output_format must be json or csv, got {self.output_format!r}")

    def replaced(self, **overrides) -> "RunConfig":
        """A copy with the non-None overrides applied."""
        clean = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **clean) if clean else self


_PARSERS = {
    "tol": float,
    "q_ceiling": float,
    "seed": int,
    "output_format": str,
}


def load_config_file(path: str) -> dict:
    """Parse a simple `key=value` config file ('#' comments, blank lines ok)."""
    overrides: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(numbered_lines(fh))
    except OSError as exc:
        raise FileFormatError(f"cannot read config file {path}: {exc}") from exc
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise FileFormatError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = parser(val)
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return overrides


def resolve_config(config_path: str | None = None, **flag_overrides) -> RunConfig:
    """Defaults, then the config file, then explicit flags (flags win)."""
    cfg = RunConfig()
    if config_path is not None:
        cfg = cfg.replaced(**load_config_file(config_path))
    return cfg.replaced(**flag_overrides)


def thread_count() -> int:
    """Always 1: every command runs on one thread.  Kept because the
    benchmark's environment stamp (``perfbench/run.py``) records it."""
    return 1
