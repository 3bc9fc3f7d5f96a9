"""Unit tests for the online sweep inspector: stat invariants,
outlier baselines, operational alarms under a fake clock, anomaly
sinks, and the ``inspect=`` argument normalisation."""

import pytest

from repro.api import (ResultStore, Session, SimConfig, SimResult,
                       SweepInspector, SweepSpec, stat_invariants)
from repro.api.exec import (EVENT_ANOMALY, EVENT_FINISHED,
                            EVENT_RETRIED, EVENT_STARTED,
                            EVENT_SUBMITTED, ExecEvent)
from repro.api.inspect import as_inspector
from repro.core.params import baseline_params
from repro.ltp.config import no_ltp
from tests.mock_executor import MockExecutor


def make_result(workload="compute_int", measure=100, cpi=2.0,
                **extra_stats):
    config = SimConfig(workload=workload, core=baseline_params(),
                       ltp=no_ltp(), warmup=50, measure=measure)
    cycles = int(cpi * measure)
    stats = {"cpi": measure and cycles / measure, "ipc": measure / cycles,
             "cycles": cycles, "committed": measure,
             "workload": workload}
    stats.update(extra_stats)
    return SimResult(config=config, stats=stats, key=config.key())


def event(kind, key="k0", workload="compute_int", index=0, **kwargs):
    return ExecEvent(kind=kind, key=key, workload=workload,
                     index=index, **kwargs)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


# ----------------------------------------------------- stat invariants
def test_invariants_accept_a_clean_result():
    assert stat_invariants(make_result()) == []


@pytest.mark.parametrize("tamper, fragment", [
    ({"committed": 107}, "exceeds the measure window"),
    ({"committed": 0}, "committed=0"),
    ({"cycles": 0}, "cycles=0 < 1"),
    ({"renamed": 93}, "renamed=93 != committed"),
    ({"ipc": 3.5}, "ipc=3.5 inconsistent"),
    ({"cpi": 0.01}, "cpi=0.01 inconsistent"),
    ({"ltp_parked": 5, "ltp_released": 3},
     "ltp_parked=5 != ltp_released=3"),
    ({"mispredicts": -1}, "negative counter mispredicts"),
])
def test_invariants_flag_broken_accounting(tamper, fragment):
    result = make_result()
    result.stats.update(tamper)
    problems = stat_invariants(result)
    assert any(fragment in problem for problem in problems)


def test_invariants_flag_occupancy_over_capacity():
    result = make_result()
    result.stats["peak_rob"] = result.config.core.rob_size + 1
    problems = stat_invariants(result)
    assert any("peak_rob" in problem and "exceeds size" in problem
               for problem in problems)


def test_invariants_tolerate_sparse_stats():
    """Fabricated/historical rows without the optional counters pass."""
    result = make_result()
    result.stats.pop("cycles")
    result.stats.pop("ipc")
    result.stats.pop("cpi")
    assert stat_invariants(result) == []


# --------------------------------------------------------- observation
def test_observe_quarantines_invariant_violations(tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")
    inspector = SweepInspector(store=store)
    raised = inspector.observe(make_result(committed=107), index=3)
    assert [a.check for a in raised] == ["invariant"]
    assert raised[0].quarantine
    assert raised[0].index == 3
    assert inspector.quarantined == [raised[0].key]
    # the verdict is durable: the store holds the annotation row
    assert store.quarantined(raised[0].key)
    store.close()


def test_observe_flags_consistent_outliers_after_baseline():
    inspector = SweepInspector()
    for _ in range(5):
        assert inspector.observe(make_result(cpi=2.0)) == []
    # a *consistent* point (no invariant trips) far off the baseline
    raised = inspector.observe(make_result(cpi=1.0))
    assert [a.check for a in raised] == ["outlier"]
    assert raised[0].quarantine
    assert "ipc" in raised[0].values
    # the outlier never joins the baseline: the next clean point passes
    assert inspector.observe(make_result(cpi=2.0)) == []


def test_outliers_need_a_minimum_baseline():
    inspector = SweepInspector()
    for _ in range(4):  # one short of baseline_min
        inspector.observe(make_result(cpi=2.0))
    assert inspector.observe(make_result(cpi=1.0)) == []


def test_baselines_are_per_workload():
    inspector = SweepInspector()
    for _ in range(5):
        inspector.observe(make_result("compute_int", cpi=2.0))
    # a different workload starts its own baseline: nothing to flag
    assert inspector.observe(make_result("stream_triad", cpi=1.0)) == []


class _DeterministicOutlier(MockExecutor):
    """Fabricates a 2x-IPC point for one key on every simulation."""

    def __init__(self, key):
        super().__init__()
        self.key = key
        self.simulated = []

    def _fabricate(self, point):
        self.simulated.append(point.key)
        stats = super()._fabricate(point)
        if point.key == self.key:
            stats["cycles"] //= 2
            stats["cpi"], stats["ipc"] = 0.5, 2.0
        return stats


def test_resumes_converge_on_a_deterministic_outlier(tmp_path):
    """A point that re-simulates to the outlier its annotation recorded
    is quarantined once, re-simulated once, and then left alone."""
    spec = SweepSpec(workloads=["compute_int"], warmup=50, measure=100,
                     axes={"core.iq_size": [16, 24, 32, 40, 48, 56]})
    outlier = spec.expand()[-1].key()  # after a full baseline
    path = tmp_path / "store.jsonl"

    def resume():
        executor = _DeterministicOutlier(outlier)
        with Session(cache_dir=tmp_path / "cache") as session, \
                ResultStore(path) as store:
            session.sweep(spec, backend=executor, store=store,
                          inspect=True, use_cache=False)
        return executor.simulated, ResultStore(path)

    dispatched, store = resume()
    assert len(dispatched) == 6
    assert store.quarantined_keys() == [outlier]

    dispatched, store = resume()
    assert dispatched == [outlier]  # the quarantined point alone
    assert store.quarantined_keys() == []
    annotation = store.annotation(outlier)
    assert annotation.check == "outlier" and not annotation.quarantine
    rows = path.read_text()

    dispatched, store = resume()
    assert dispatched == []
    assert path.read_text() == rows  # no row written


# --------------------------------------------------- operational alarms
def test_straggler_alarm_flags_latency_outliers():
    clock = FakeClock()
    inspector = SweepInspector(clock=clock)
    for i in range(6):
        inspector(event(EVENT_STARTED, key=f"k{i}", index=i))
        clock.now += 0.1
        inspector(event(EVENT_FINISHED, key=f"k{i}", index=i))
    inspector(event(EVENT_STARTED, key="slow", index=6))
    clock.now += 30.0
    inspector(event(EVENT_FINISHED, key="slow", index=6))
    checks = [a.check for a in inspector.anomalies]
    assert checks == ["straggler"]
    straggler = inspector.anomalies[0]
    assert straggler.key == "slow"
    assert not straggler.quarantine  # the data is fine, the host is not


def test_retry_rate_alarm_latches_once():
    inspector = SweepInspector(clock=FakeClock())
    for i in range(2):
        inspector(event(EVENT_STARTED, key=f"k{i}", index=i))
    for _ in range(6):
        inspector(event(EVENT_RETRIED, key="k0", error="boom"))
    flagged = [a for a in inspector.anomalies
               if a.check == "retry-rate"]
    assert len(flagged) == 1
    assert not flagged[0].quarantine


# --------------------------------------------------------------- sinks
def test_anomalies_reach_sinks_as_synthetic_events():
    inspector = SweepInspector()
    seen = []
    inspector.add_sink(seen.append)
    inspector.add_sink(seen.append)  # deduped: delivered once
    inspector.observe(make_result(committed=107))
    assert len(seen) == 1
    assert seen[0].kind == EVENT_ANOMALY
    assert seen[0].error.startswith("invariant:")
    inspector.remove_sink(seen.append)
    inspector.observe(make_result(committed=108))
    assert len(seen) == 1


def test_broken_sink_does_not_fail_the_sweep():
    inspector = SweepInspector()

    def explode(_event):
        raise RuntimeError("broken renderer")

    inspector.add_sink(explode)
    raised = inspector.observe(make_result(committed=107))
    assert len(raised) == 1  # the verdict still lands


# ------------------------------------------------------------ reporting
def test_summary_counts_events_and_anomalies():
    clock = FakeClock()
    inspector = SweepInspector(clock=clock)
    inspector(event(EVENT_SUBMITTED, key="k0"))
    inspector(event(EVENT_STARTED, key="k0"))
    clock.now += 2.0
    inspector(event(EVENT_FINISHED, key="k0"))
    inspector.observe(make_result())
    inspector.observe(make_result(committed=107))
    summary = inspector.summary()
    assert summary["observed"] == 2
    assert summary["finished"] == 1
    assert summary["elapsed_s"] == 2.0
    assert len(summary["anomalies"]) == 1
    assert len(summary["quarantined"]) == 1


# ------------------------------------------------------- normalisation
def test_as_inspector_normalises_the_inspect_argument(tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")
    assert as_inspector(None) is None
    assert as_inspector(False) is None
    built = as_inspector(True, store)
    assert isinstance(built, SweepInspector)
    assert built.store is store
    existing = SweepInspector()
    assert as_inspector(existing, store) is existing
    assert existing.store is store  # adopted the drive's store
    bound = SweepInspector(store=store)
    other = ResultStore(tmp_path / "other.jsonl")
    assert as_inspector(bound, other).store is store  # never rebinds
    with pytest.raises(TypeError):
        as_inspector("yes")
    store.close()
    other.close()
