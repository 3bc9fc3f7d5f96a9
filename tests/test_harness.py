"""Tests for the harness: config hashing, caching, runner, reports."""

import pytest

from repro.api import default_session
from repro.core.params import CoreParams, baseline_params
from repro.harness.cachefile import ResultCache
from repro.harness.config import SimConfig
from repro.harness.report import format_cell, render_table, size_label
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp


def stats_of(config):
    return default_session().run(config, use_cache=False).stats


def quick_config(workload="compute_int", **kwargs):
    return SimConfig(workload=workload, core=baseline_params(),
                     ltp=no_ltp(), warmup=300, measure=300, **kwargs)


# ---------------------------------------------------------------- keys
def test_key_is_stable():
    assert quick_config().key() == quick_config().key()


def test_key_differs_by_workload():
    assert quick_config("compute_int").key() != \
        quick_config("stream_triad").key()


def test_key_differs_by_core_params():
    a = quick_config()
    b = quick_config()
    b.core = baseline_params().but(iq_size=16)
    assert a.key() != b.key()


def test_key_differs_by_ltp():
    a = quick_config()
    b = quick_config()
    b.ltp = proposed_ltp()
    assert a.key() != b.key()


def test_config_validation():
    config = quick_config()
    config.measure = 0
    with pytest.raises(ValueError):
        config.validate()


# --------------------------------------------------------------- cache
def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(directory=str(tmp_path))
    assert cache.get("missing") is None
    cache.put("k1", {"cpi": 1.5})
    assert cache.get("k1") == {"cpi": 1.5}
    # a fresh instance reads the disk copy
    cache2 = ResultCache(directory=str(tmp_path))
    assert cache2.get("k1") == {"cpi": 1.5}


def test_result_cache_corrupt_file(tmp_path):
    cache = ResultCache(directory=str(tmp_path))
    (tmp_path / "bad.json").write_text("{not json")
    assert cache.get("bad") is None


# -------------------------------------------------------------- runner
def test_run_sim_produces_metrics():
    result = stats_of(quick_config())
    assert result["committed"] == 300
    assert result["cpi"] > 0
    assert result["workload"] == "compute_int"
    assert result["category"] == "mlp_insensitive"
    assert "avg_outstanding" in result


def test_run_sim_deterministic():
    a = stats_of(quick_config())
    b = stats_of(quick_config())
    assert a == b


def test_run_sim_with_ltp():
    config = SimConfig(workload="sparse_gather",
                       core=CoreParams(iq_size=16),
                       ltp=limit_ltp("nu"), warmup=600, measure=400)
    result = stats_of(config)
    assert result["committed"] == 400
    assert result["ltp_parked"] > 0


def test_run_sim_warmup_affects_results():
    cold = SimConfig(workload="stream_triad", core=baseline_params(),
                     ltp=no_ltp(), warmup=0, measure=400)
    warm = SimConfig(workload="stream_triad", core=baseline_params(),
                     ltp=no_ltp(), warmup=2000, measure=400)
    cycles_cold = stats_of(cold)["cycles"]
    cycles_warm = stats_of(warm)["cycles"]
    assert cycles_warm < cycles_cold


def test_get_trace_memoises_and_slices():
    long_trace = default_session().get_trace("compute_int", 500)
    short_trace = default_session().get_trace("compute_int", 200)
    assert len(long_trace) == 500
    assert len(short_trace) == 200
    assert short_trace[0].pc == long_trace[0].pc


# -------------------------------------------------------------- report
def test_render_table_alignment():
    text = render_table(["name", "value"], [["a", 1.234], ["bb", 10]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.23" in text
    assert "bb" in text


def test_render_table_row_width_mismatch():
    with pytest.raises(ValueError):
        render_table(["a"], [["x", "y"]])


def test_format_cell():
    assert format_cell(None) == "-"
    assert format_cell(True) == "yes"
    assert format_cell(1.5, precision=1) == "1.5"
    assert format_cell("t") == "t"


def test_size_label():
    assert size_label(None) == "inf"
    assert size_label(64) == "64"
