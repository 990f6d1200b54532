"""The benchmark's own tests: deterministic inputs, names that match
BENCHMARK.json, a tiny smoke run of every workload with tracing on and off,
the span summaries, and the known library defects the workloads hit.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from smilewings import cli, fileio
from smilewings.blackscholes import SmileCurve, put_price
from smilewings.errors import NonPositiveVol, ToleranceNotReached
from smilewings.gf import build_transform, gf_varswap
from smilewings.replication import varswap_strip

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"


def _input_files(tmp_path: Path, name: str, seed: int) -> dict[str, bytes]:
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir()
    workloads.SET_UP[name](workloads.Context(workdir), seed)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


class TestGeneration:
    @pytest.mark.parametrize("specs", [
        workloads.smile_specs, workloads.chain_specs, workloads.deep_qs,
        workloads.mc_spec])
    def test_same_seed_same_inputs_other_seed_other_inputs(self, specs):
        assert specs(11) == specs(11)
        assert specs(11) != specs(12)

    def test_written_inputs_follow_the_seed(self, tmp_path):
        first = _input_files(tmp_path, "chain-analytics", 5)
        again = _input_files(tmp_path, "chain-analytics", 6)
        assert first and first.keys() == again.keys()
        assert first != again
        (tmp_path / "repeat").mkdir()
        assert _input_files(tmp_path / "repeat", "chain-analytics", 5) == first

    def test_every_pickable_smile_has_a_reference(self):
        reference = workloads.load_reference()
        keys = {s.key for s in workloads.smile_catalogue()}
        assert keys == set(reference)
        for seed in range(20):
            for spec in workloads.smile_specs(seed):
                assert spec.kind == "lognormal-cli" or spec.key in keys

    def test_chains_cover_every_ladder(self):
        steps = [s.step for s in workloads.chain_specs(3)]
        assert sorted(set(steps)) == sorted(workloads.LADDER_STEPS)
        for spec in workloads.chain_specs(3):
            k = spec.strikes()
            assert k[0] == workloads.K_LO and k[-1] < workloads.K_HI


class TestNames:
    def test_match_benchmark_json(self):
        doc = json.loads(BENCHMARK_JSON.read_text())
        assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
        assert set(workloads.SET_UP) == set(run.WORKLOADS)
        assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
            run.END_TO_END
        assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
            run.PER_LAYER
        assert doc["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_smoke_run(name, trace):
    out = io.StringIO()
    result = run.run_workload(name, seed=3, seconds=0.0, trace=trace,
                              tiny=True, out=out)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert last == json.loads(json.dumps(result))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in last["metrics"].items()] == want
    assert all(math.isfinite(m["value"]) for m in last["metrics"].values())
    assert not any(Path(run.WORK_ROOT).glob(f"{name}-3-*"))


def test_bare_directory_refuses(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mc-paths", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


class TestSpans:
    def test_self_time_subtracts_children(self):
        tracer = spans.Tracer()
        tracer.item_id = 0
        outer = tracer.open("outer")
        time.sleep(0.02)
        inner = tracer.open("inner")
        time.sleep(0.03)
        tracer.close(inner)
        tracer.close(outer)
        summary = spans.Summary(tracer, lambda item: item == 0)
        assert summary.calls("outer") == summary.calls("inner") == 1
        assert summary.busy("outer") >= 0.05
        assert summary.self_s("outer") == pytest.approx(
            summary.busy("outer") - summary.busy("inner"))
        assert summary.self_s("inner") == summary.busy("inner")

    def test_worker_thread_children_count_once(self):
        tracer = spans.Tracer()

        def work():
            idx = tracer.open("child")
            time.sleep(0.05)
            tracer.close(idx)

        pool = tracer.open("pool")
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        tracer.close(pool)
        assert not any(t.is_alive() for t in threads)
        summary = spans.Summary(tracer, lambda item: item == spans.SETUP_ITEM)
        assert summary.calls("child") == 2
        # both children hang under the pool span, and overlap in time
        assert summary.busy("child") > summary.covered("child")
        assert summary.self_s("pool") == pytest.approx(
            summary.busy("pool") - summary.covered("child"))

    def test_failed_calls_are_marked_and_sites_restored(self):
        original = cli.implied_vol
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            assert cli.implied_vol is not original
            with pytest.raises(Exception):
                cli.implied_vol(-1.0, 2.0)   # above the e^x cap
            cli.implied_vol(-1.0, put_price(-1.0, 0.3))
        assert cli.implied_vol is original
        summary = spans.Summary(tracer, lambda item: item == spans.SETUP_ITEM)
        assert summary.calls("blackscholes.implied_vol") == 2
        assert summary.failed("blackscholes.implied_vol") == 1

    @pytest.mark.parametrize("x, regime", [
        (-500.0, "deep"), (-120.0, "deep"), (-50.0, "laguerre"),
        (-2.0, "carr_madan"), (0.5, "carr_madan"), (0.51, "density")])
    def test_fmls_regimes(self, x, regime):
        assert spans.fmls_regime(x) == regime


class TestGates:
    def test_roundtrip_allows_only_the_price_rounding(self):
        x, sigma = 1.2, 0.15     # deep in the money: time value ~1e-15
        price = put_price(x, sigma).p
        assert workloads.roundtrips(x, sigma, price, sigma)
        assert workloads.roundtrips(x, sigma, price, sigma * 0.5)
        assert not workloads.roundtrips(-1.0, 0.3, put_price(-1.0, 0.3).p,
                                        0.3 + 1e-7)

    def test_exact_wing_form_recovers_q(self, tmp_path):
        path = tmp_path / "deep.csv"
        workloads.write_deep_smile(path, 1.7)
        with open(path, encoding="utf-8") as fh:
            smile, meta = fileio.read_smile_csv(fh)
        assert smile.left_wing == "corollary_expansion"
        x = smile.x[smile.x < -100.0]
        d = -x / smile.vol[smile.x < -100.0] - smile.vol[smile.x < -100.0] / 2
        assert np.allclose(d * d / (2.0 * np.log(-x)), 1.7, rtol=1e-9)


# ---------------------------------------------------------------------------
# Known library defects the chain workload runs into.  Each is a strict
# expected failure: a library fix makes it pass, and then this marker must go.


def _svi_ladder_smile(a, b, rho, m, s) -> SmileCurve:
    x = np.log(0.05 + 0.01 * np.arange(395))
    return SmileCurve(x, np.sqrt(a + b * (rho * (x - m)
                                          + np.sqrt((x - m) ** 2 + s * s))))


@pytest.mark.xfail(strict=True, raises=ToleranceNotReached,
                   reason="gf quadrature misses the default tol on a smooth "
                          "395-knot SVI ladder")
def test_gf_varswap_on_smooth_svi_ladder():
    sm = _svi_ladder_smile(0.022, 0.244, -0.688, -0.072, 0.41)
    assert math.isfinite(varswap_strip(sm, tol=1e-8))
    gf_varswap(build_transform(sm, tol=1e-8), tol=1e-8)


@pytest.mark.xfail(strict=True, raises=ToleranceNotReached,
                   reason="strip quadrature misses the default tol on a "
                          "smooth 395-knot SVI ladder")
def test_varswap_strip_on_smooth_svi_ladder():
    varswap_strip(_svi_ladder_smile(0.047, 0.298, -0.249, 0.124, 0.119),
                  tol=1e-8)


@pytest.mark.xfail(strict=True, raises=NonPositiveVol,
                   reason="iv writes sigma = 0 for a zero-priced row, and "
                          "read_smile_csv rejects the file")
def test_iv_output_with_zero_priced_row_reads_back(tmp_path):
    chain, smile = tmp_path / "chain.csv", tmp_path / "smile.csv"
    chain.write_text("log_moneyness,value,value_kind\n"
                     "-3,0,put_price\n-1,0.05,put_price\n0,0.1,put_price\n")
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["iv", "--input", str(chain),
                         "--output", str(smile)]) == 0
    with open(smile, encoding="utf-8") as fh:
        fileio.read_smile_csv(fh)
