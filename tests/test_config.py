from __future__ import annotations

import math

import pytest

from smilewings.config import RunConfig, load_config_file, resolve_config, thread_count
from smilewings.errors import DomainError, FileFormatError


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.tol == 1e-8
        assert cfg.q_ceiling == 1e3
        assert cfg.seed == 42
        assert cfg.output_format == "json"

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0},
        {"tol": -1e-9},
        {"tol": math.nan},
        {"q_ceiling": 0.0},
        {"seed": -1},
        {"output_format": "yaml"},
        {"q_ceiling": math.inf},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            RunConfig(**kwargs)

    def test_replaced_skips_none(self):
        cfg = RunConfig().replaced(tol=1e-6, seed=None)
        assert cfg.tol == 1e-6
        assert cfg.seed == 42

    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().tol = 1e-3   # type: ignore[misc]


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# run settings\ntol = 1e-6\n\nseed=7\n")
        assert load_config_file(p) == {"tol": 1e-6, "seed": 7}

    @pytest.mark.parametrize("body", [
        "tol\n",                 # missing '='
        "volatility = 0.2\n",    # unknown key
        "z_range = 12\n",        # a retired key
        "seed = few\n",          # unparsable value
    ])
    def test_bad_files_report_path_and_line(self, tmp_path, body):
        p = tmp_path / "run.cfg"
        p.write_text(body)
        with pytest.raises(FileFormatError, match="run.cfg"):
            load_config_file(p)

    def test_undecodable_byte_reports_path_and_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"tol = 1e-6\nseed = 7\xff\n")
        with pytest.raises(FileFormatError, match="run.cfg: line 2"):
            load_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_config_file(tmp_path / "absent.cfg")

    def test_field_validation_happens_at_resolve(self, tmp_path):
        # file parsing is syntactic; a well-formed but out-of-range value
        # only fails when the RunConfig is actually built
        p = tmp_path / "run.cfg"
        p.write_text("tol = -1\n")
        assert load_config_file(p) == {"tol": -1.0}
        with pytest.raises(DomainError):
            resolve_config(p)


class TestResolveConfig:
    def test_flag_beats_file_beats_default(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("tol = 1e-5\nseed = 9\n")
        cfg = resolve_config(p, tol=1e-3)
        assert cfg.tol == 1e-3       # flag wins
        assert cfg.seed == 9         # file beats default
        assert cfg.q_ceiling == 1e3  # default survives

    def test_no_file(self):
        cfg = resolve_config(None, q_ceiling=8.0)
        assert cfg.q_ceiling == 8.0
        assert cfg.tol == 1e-8


def test_thread_count_is_one():
    # Every command runs on one thread; the benchmark stamp still reads this.
    assert thread_count() == 1
