"""CSV and canonical-JSON serialization round trips and format policing."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smilewings.blackscholes import SmileCurve
from smilewings.errors import DomainError, FileFormatError
from smilewings.fileio import (
    CHAIN_HEADER,
    SMILE_HEADER,
    ChainFileRow,
    format_float,
    parse_float,
    read_chain_csv,
    read_smile_csv,
    to_canonical_json,
    write_chain_csv,
    write_smile_csv,
)


class TestFloatFormat:
    def test_17_digit_round_trip(self):
        for v in (0.1, 1.0 / 3.0, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -0.0, 123456.78901234567, 5e-324):
            assert float(format_float(v)) == v

    def test_non_finite_spellings(self):
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"
        assert format_float(math.nan) == "nan"

    def test_parse_accepts_whitespace(self):
        assert parse_float(" 1.5 ") == 1.5
        assert parse_float("inf") == math.inf

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, v):
        assert float(format_float(v)) == v


class TestCanonicalJson:
    def test_field_order_is_insertion_order(self):
        doc = {"b": 1, "a": 2}
        out = to_canonical_json(doc)
        assert out.index('"b"') < out.index('"a"')
        assert out.endswith("\n")

    def test_byte_identical_reruns(self):
        doc = {"x": 0.1, "nested": {"v": [1.0, 2.0]}, "flag": True}
        assert to_canonical_json(doc) == to_canonical_json(doc)

    def test_bool_before_int_dispatch(self):
        # bool subclasses int; the emitter must not print True as 1
        assert '"f": true' in to_canonical_json({"f": True})
        assert '"n": 1' in to_canonical_json({"n": 1})

    def test_non_finite_as_tagged_strings(self):
        out = to_canonical_json({"a": math.inf, "b": math.nan, "c": -math.inf})
        doc = json.loads(out)   # stays valid JSON precisely because of tags
        assert doc == {"a": "inf", "b": "nan", "c": "-inf"}

    def test_floats_at_full_precision(self):
        out = to_canonical_json({"v": 1.0 / 3.0})
        assert json.loads(out)["v"] == 1.0 / 3.0

    def test_rejects_non_string_keys_and_unknown_types(self):
        with pytest.raises(DomainError):
            to_canonical_json({1: "x"})
        with pytest.raises(DomainError):
            to_canonical_json({"x": {3.5}})


class TestSmileFiles:
    def _curve(self) -> SmileCurve:
        return SmileCurve(np.array([-5.0, -2.0, 0.0]),
                          np.array([0.31, 0.27, 0.22]),
                          left_wing="corollary_expansion", left_wing_q=1.5,
                          certified_q=1.5)

    def test_round_trip_exact(self):
        buf = io.StringIO()
        write_smile_csv(buf, self._curve(), metadata={"note": "demo"})
        buf.seek(0)
        sm, meta = read_smile_csv(buf)
        assert sm.x.tolist() == [-5.0, -2.0, 0.0]
        assert sm.vol.tolist() == [0.31, 0.27, 0.22]
        assert sm.left_wing == "corollary_expansion"
        assert sm.left_wing_q == 1.5
        assert sm.certified_q == 1.5
        assert meta["note"] == "demo"
        assert meta["interpolation"] == "monotone-cubic"

    def test_defaults_written_into_metadata(self):
        buf = io.StringIO()
        write_smile_csv(buf, SmileCurve.flat(0.2))
        text = buf.getvalue()
        assert "# interpolation=monotone-cubic" in text
        assert "# left_wing=clamp" in text
        assert SMILE_HEADER in text

    def test_wrong_header_reports_line(self):
        buf = io.StringIO("# left_wing=clamp\nstrike,vol\n1,0.2\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_smile_csv(buf)

    def test_missing_header(self):
        with pytest.raises(FileFormatError):
            read_smile_csv(io.StringIO(""))

    def test_no_data_rows(self):
        with pytest.raises(FileFormatError):
            read_smile_csv(io.StringIO(SMILE_HEADER + "\n"))

    def test_bad_column_count(self):
        buf = io.StringIO(SMILE_HEADER + "\n-1.0,0.2,9\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_smile_csv(buf)

    def test_unparsable_value(self):
        buf = io.StringIO(SMILE_HEADER + "\n-1.0,smallish\n")
        with pytest.raises(FileFormatError):
            read_smile_csv(buf)

    def test_bad_metadata_value(self):
        buf = io.StringIO("# left_wing_q=wide\n" + SMILE_HEADER + "\n-1.0,0.2\n")
        with pytest.raises(FileFormatError):
            read_smile_csv(buf)

    def test_undecodable_byte_reports_line(self):
        data = (SMILE_HEADER + "\n-2.0,0.3\n").encode() + b"-1.0,0.2\xff\n"
        buf = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        with pytest.raises(FileFormatError, match="line 3: not valid utf-8"):
            read_smile_csv(buf)


class TestChainFiles:
    def test_row_validation(self):
        ChainFileRow(-1.0, 0.05, "put_price")
        ChainFileRow(-1.0, 0.2, "implied_vol")
        with pytest.raises(DomainError):
            ChainFileRow(-1.0, 0.05, "premium")
        with pytest.raises(DomainError):
            ChainFileRow(math.inf, 0.05, "put_price")

    def test_round_trip(self):
        rows = [ChainFileRow(-2.0, 0.01, "put_price"),
                ChainFileRow(0.0, 0.2, "implied_vol")]
        buf = io.StringIO()
        write_chain_csv(buf, rows)
        buf.seek(0)
        parsed, bad = read_chain_csv(buf)
        assert bad == []
        assert [r for _, r in parsed] == rows
        # line numbers: header on 1, rows follow
        assert [ln for ln, _ in parsed] == [2, 3]

    def test_malformed_rows_collected_not_fatal(self):
        text = (CHAIN_HEADER + "\n"
                "-1.0,0.05,put_price\n"
                "-2.0,oops,put_price\n"
                "bad line\n"
                "0.0,0.2,implied_vol\n")
        rows, bad = read_chain_csv(io.StringIO(text))
        assert len(rows) == 2
        assert sorted(ln for ln, _ in bad) == [3, 4]

    def test_bad_header_is_fatal(self):
        with pytest.raises(FileFormatError):
            read_chain_csv(io.StringIO("a,b,c\n1,2,put_price\n"))

    def test_undecodable_byte_reports_line(self):
        # the bad byte sits past the first 8 KiB the text layer decodes
        rows = "".join("-1.0,0.2,implied_vol\n" for _ in range(600))
        data = (CHAIN_HEADER + "\n" + rows).encode() + b"\xff,0.2,put_price\n"
        buf = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        with pytest.raises(FileFormatError, match="line 602: not valid utf-8"):
            read_chain_csv(buf)
