"""One function per paper table/figure; each returns data and renders text.

Every function sweeps configurations through the default session's
:meth:`~repro.api.session.Session.run` (cached) and returns a plain
dict; the matching ``render_*`` function prints the rows or series the
paper's figure plots.  README "Parallel sweeps" shows how to run
them and ``docs/architecture.md`` where they sit among the layers.

Sweeps parallelise via a plan/execute split: :func:`plan_configs` runs
an experiment function in *planning mode* — :func:`_run` records every
:class:`SimConfig` it would simulate and returns placeholder statistics
so the sweep's control flow completes without simulating anything —
then :func:`run_parallel` executes the recorded configurations across a
``multiprocessing`` pool (:meth:`~repro.api.session.Session.run_many`)
and re-runs the experiment for real, where every point is a cache hit.

Each experiment/renderer pair self-registers with the
:mod:`repro.api.registry` via the ``@experiment(name)`` /
``@renderer(name)`` decorators; the CLI and any other consumer resolve
scenarios through :func:`repro.api.get_experiment` instead of a
hard-coded table, so new scenarios only need a decorated function.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.aggregate import arithmetic_mean, mean_relative_performance
from repro.analysis.mlp_class import SensitivityInputs, classify
from repro.api.exec import PoolExecutor
from repro.api.registry import experiment, renderer
from repro.api.session import default_session
from repro.api.spec import SweepSpec
from repro.core.params import CoreParams, baseline_params, ltp_params
from repro.energy.model import compute_energy, relative_ed2p
from repro.harness.config import SimConfig
from repro.harness.report import render_table, size_label
from repro.ltp.config import LTPConfig, limit_ltp, no_ltp, proposed_ltp
from repro.ltp.oracle import annotate_trace
from repro.policies import DEFAULT_POLICY, policy_names
from repro.util import first_doc_line
from repro.workloads import (MLP_INSENSITIVE, MLP_SENSITIVE, get_workload,
                             suite_names)

ASTAR = "ptrchase_astar"
MILC = "lattice_milc"

#: the four columns of Figure 6 (and rows of several other figures)
GROUPS = (ASTAR, MILC, MLP_SENSITIVE, MLP_INSENSITIVE)
GROUP_LABELS = {
    ASTAR: "astar/rivers-like",
    MILC: "milc-like",
    MLP_SENSITIVE: "mlp sensitive",
    MLP_INSENSITIVE: "mlp insensitive",
}


def _full_suite_names() -> List[str]:
    return suite_names(MLP_SENSITIVE) + suite_names(MLP_INSENSITIVE)


def _group_members(group: str) -> List[str]:
    if group in (MLP_SENSITIVE, MLP_INSENSITIVE):
        return suite_names(group)
    return [group]


class _PlanStats(dict):
    """Placeholder result used while planning a sweep.

    Returns a neutral ``1`` for any statistic so the aggregation code an
    experiment runs over its results (means, ratios, energy) completes
    without touching the simulator.  The values are discarded — planning
    only exists to record which configurations the sweep needs.
    """

    def __missing__(self, key: str) -> int:
        return 1


#: when not None, _run records configs here instead of simulating
_plan_sink: Optional[List[SimConfig]] = None


def _run(workload: str, core: CoreParams, ltp: LTPConfig,
         warmup: Optional[int], measure: Optional[int],
         policy: str = DEFAULT_POLICY) -> dict:
    config = SimConfig(workload=workload, core=core, ltp=ltp,
                       policy=policy)
    if warmup is not None:
        config.warmup = warmup
    if measure is not None:
        config.measure = measure
    if _plan_sink is not None:
        _plan_sink.append(config)
        return _PlanStats()
    return default_session().run(config).stats


def plan_configs(experiment: Callable, *args, **kwargs) -> List[SimConfig]:
    """Enumerate the configurations *experiment* would simulate.

    Runs the experiment with :func:`_run` in recording mode; duplicate
    configurations are dropped (first occurrence kept), preserving the
    sweep's deterministic order.
    """
    global _plan_sink
    if _plan_sink is not None:
        raise RuntimeError("planning is not reentrant")
    sink: List[SimConfig] = []
    _plan_sink = sink
    try:
        experiment(*args, **kwargs)
    finally:
        _plan_sink = None
    seen: Dict[str, None] = {}
    unique: List[SimConfig] = []
    for config in sink:
        key = config.key()
        if key not in seen:
            seen[key] = None
            unique.append(config)
    return unique


def run_parallel(experiment: Callable, *args,
                 jobs: Optional[int] = None, **kwargs):
    """Run *experiment*, executing its sweep points across processes.

    Equivalent to calling the experiment directly (identical return
    value) but wall-clock time scales with cores: the sweep is planned,
    executed on the default session by a
    :class:`~repro.api.exec.PoolExecutor` of *jobs* workers, and the
    final in-process pass aggregates from the populated cache.
    """
    configs = plan_configs(experiment, *args, **kwargs)
    default_session().run_many(configs, backend=PoolExecutor(jobs=jobs))
    return experiment(*args, **kwargs)


def _baselines(names: Sequence[str], core: CoreParams,
               warmup: Optional[int], measure: Optional[int]
               ) -> Dict[str, dict]:
    """Each of *names*' no-LTP run on *core*: what a figure normalises to."""
    return {n: _run(n, core, no_ltp(), warmup, measure) for n in names}


def _compare(group: str, core: CoreParams, ltp: LTPConfig,
             base: Dict[str, dict], warmup: Optional[int],
             measure: Optional[int], policy: str = DEFAULT_POLICY,
             base_core: Optional[CoreParams] = None,
             ) -> Tuple[List[dict], float, Optional[float]]:
    """*group*'s runs on *core*/*ltp* under *policy*, against *base*.

    Returns the runs, their mean relative performance and, given the
    core *base* ran on, their mean IQ/RF ED2P delta (both in %); each
    workload is normalised to its own baseline first.
    """
    names = _group_members(group)
    runs = [_run(n, core, ltp, warmup, measure, policy) for n in names]
    perf = mean_relative_performance([int(r["cycles"]) for r in runs],
                                     [int(base[n]["cycles"]) for n in names])
    if base_core is None:
        return runs, perf, None
    ed2p = arithmetic_mean([
        relative_ed2p(compute_energy(core, ltp, run, policy=policy),
                      compute_energy(base_core, no_ltp(), base[name]))
        for name, run in zip(names, runs)])
    return runs, perf, ed2p


def _group_perf(group: str, core: CoreParams, ltp: LTPConfig,
                base: Dict[str, dict],
                warmup: Optional[int], measure: Optional[int]) -> float:
    """Mean relative performance of *group* vs. per-workload baselines."""
    return _compare(group, core, ltp, base, warmup, measure)[1]


def _suites(warmup: Optional[int], measure: Optional[int]
            ) -> Iterator[Tuple[str, Dict[str, dict]]]:
    """Each suite with its IQ64/RF128 no-LTP runs, the base of every
    figure that shrinks the core to IQ32/RF96."""
    for category in (MLP_SENSITIVE, MLP_INSENSITIVE):
        yield category, _baselines(suite_names(category), baseline_params(),
                                   warmup, measure)


# ======================================================================
# Table 1
# ======================================================================
@experiment("table1")
def table1_config() -> dict:
    """The baseline configuration, plus the proposal's deltas."""
    base = baseline_params()
    return {
        "baseline": base.describe(),
        "proposal": ("LTP proposal: IQ 64->32, available registers "
                     "128->96, plus a 128-entry 4-port queue-based LTP "
                     "and a 256-entry UIT"),
    }


@renderer("table1")
def render_table1(result: dict) -> str:
    return (f"Table 1: baseline processor configuration\n"
            f"{result['baseline']}\n\n{result['proposal']}")


# ======================================================================
# Figure 1 — motivation
# ======================================================================
@experiment("fig1")
def fig1_motivation(warmup: Optional[int] = None,
                    measure: Optional[int] = None) -> dict:
    """CPI / outstanding requests / resource usage, IQ 32 vs 32+LTP vs 256.

    Matches the paper's setup: infinite RF, LQ, SQ and MSHRs, prefetcher
    enabled, so the IQ is the only limiter.
    """
    configs = [
        ("IQ:32", _limit_core("iq", 32), no_ltp()),
        ("IQ:32+LTP", _limit_core("iq", 32), limit_ltp("nr+nu")),
        ("IQ:256", _limit_core("iq", 256), no_ltp()),
    ]
    out: Dict[str, dict] = {"configs": [c[0] for c in configs]}
    for category in (MLP_SENSITIVE, MLP_INSENSITIVE):
        names = suite_names(category)
        per_config = {}
        for label, params, ltp in configs:
            results = [_run(n, params, ltp, warmup, measure) for n in names]
            per_config[label] = {
                "cpi": arithmetic_mean([r["cpi"] for r in results]),
                "outstanding": arithmetic_mean(
                    [r["avg_outstanding"] for r in results]),
                "avg_iq": arithmetic_mean([r["avg_iq"] for r in results]),
                "avg_rf": arithmetic_mean(
                    [r["avg_rf_int"] + r["avg_rf_fp"] for r in results]),
                "avg_lq": arithmetic_mean([r["avg_lq"] for r in results]),
                "avg_sq": arithmetic_mean([r["avg_sq"] for r in results]),
            }
        out[category] = per_config
    return out


@renderer("fig1")
def render_fig1(result: dict) -> str:
    parts = []
    rows = []
    for category in (MLP_SENSITIVE, MLP_INSENSITIVE):
        for label in result["configs"]:
            data = result[category][label]
            rows.append([GROUP_LABELS[category], label, data["cpi"],
                         data["outstanding"]])
    parts.append(render_table(
        ["suite", "config", "CPI", "avg outstanding reqs"], rows,
        title="Figure 1a/1b: CPI and MLP vs IQ configuration"))
    rows = []
    for category in (MLP_SENSITIVE, MLP_INSENSITIVE):
        data = result[category]["IQ:256"]
        rows.append([GROUP_LABELS[category], data["avg_rf"], data["avg_iq"],
                     data["avg_lq"], data["avg_sq"]])
    parts.append(render_table(
        ["suite", "RF", "IQ", "LQ", "SQ"], rows,
        title="Figure 1c: avg resources in use per cycle (IQ:256)"))
    return "\n\n".join(parts)


# ======================================================================
# Figure 2 — classification of the example loop
# ======================================================================
@experiment("fig2")
def fig2_classification(measure: int = 4000) -> dict:
    """Oracle classification of the Figure 2 kernel, per static PC."""
    workload = get_workload("indirect_fig2")
    trace = workload.trace(measure)
    oracle = annotate_trace(trace)
    return {"rows": [
        {"pc": pc, "text": workload.program[pc].render(), "class": label}
        for pc, (label, _) in oracle.pc_classes(trace).items()]}


@renderer("fig2")
def render_fig2(result: dict) -> str:
    rows = [[r["pc"], r["text"], r["class"]] for r in result["rows"]]
    return render_table(["pc", "instruction", "class"], rows,
                        title="Figure 2: LTP classification of the "
                              "B[A[j]] example loop")


# ======================================================================
# Figure 5 — resource lifetimes
# ======================================================================
@experiment("fig5")
def fig5_lifetimes(workload: str = MILC,
                   warmup: Optional[int] = None,
                   measure: Optional[int] = None) -> dict:
    """Average cycles each instruction holds an IQ entry / register.

    LTP shortens both: instructions enter the IQ ready (shorter IQ
    residency) and allocate their register at LTP exit (shorter RF
    lifetime) — the effect Figure 5's timelines illustrate.
    """
    rows = []
    for label, core, ltp in [
            ("baseline IQ:64 RF:128", baseline_params(), no_ltp()),
            ("LTP IQ:32 RF:96", ltp_params(), limit_ltp("nu"))]:
        result = _run(workload, core, ltp, warmup, measure)
        committed = max(1, result["committed"])
        rows.append({
            "config": label,
            "iq_cycles_per_inst":
                result["avg_iq"] * result["cycles"] / committed,
            "rf_cycles_per_inst":
                (result["avg_rf_int"] + result["avg_rf_fp"])
                * result["cycles"] / committed,
            "cpi": result["cpi"],
        })
    return {"workload": workload, "rows": rows}


@renderer("fig5")
def render_fig5(result: dict) -> str:
    rows = [[r["config"], r["iq_cycles_per_inst"], r["rf_cycles_per_inst"],
             r["cpi"]] for r in result["rows"]]
    return render_table(
        ["config", "IQ cycles/inst", "RF cycles/inst", "CPI"], rows,
        title=f"Figure 5: resource lifetimes ({result['workload']})")


# ======================================================================
# Figure 6 — limit study
# ======================================================================
SWEEP_SIZES = {
    "iq": [None, 128, 64, 32, 16],
    "rf": [None, 128, 96, 64, 32],
    "lq": [None, 64, 32, 16, 8],
    "sq": [None, 64, 32, 16, 8],
}
SWEEP_BASELINE = {"iq": 64, "rf": 128, "lq": 64, "sq": 32}
LTP_VARIANTS = [
    ("no-ltp", None),
    ("ltp-nr", "nr"),
    ("ltp-nu", "nu"),
    ("ltp-nr+nu", "nr+nu"),
]


def _limit_core(resource: str, size: Optional[int]) -> CoreParams:
    """All-but-one unlimited, per the limit-study methodology."""
    params = CoreParams(iq_size=None, int_regs=None, fp_regs=None,
                        lq_size=None, sq_size=None)
    params.mem.mshrs = None
    if resource == "iq":
        params.iq_size = size
    elif resource == "rf":
        params.int_regs = size
        params.fp_regs = size
    elif resource == "lq":
        params.lq_size = size
    elif resource == "sq":
        params.sq_size = size
    else:
        raise ValueError(f"unknown resource {resource!r}")
    return params


@experiment("fig6")
def fig6_limit_study(resources: Sequence[str] = ("iq", "rf", "lq", "sq"),
                     groups: Sequence[str] = GROUPS,
                     warmup: Optional[int] = None,
                     measure: Optional[int] = None) -> dict:
    """The Section 4 limit study: performance vs. structure size."""
    out: Dict[str, dict] = {}
    for resource in resources:
        sizes = SWEEP_SIZES[resource]
        base = _baselines([n for g in groups for n in _group_members(g)],
                          _limit_core(resource, SWEEP_BASELINE[resource]),
                          warmup, measure)
        table: Dict[str, dict] = {}
        for group in groups:
            series: Dict[str, List[float]] = {}
            for label, mode in LTP_VARIANTS:
                ltp = no_ltp() if mode is None else limit_ltp(mode)
                series[label] = [
                    _group_perf(group, _limit_core(resource, size), ltp,
                                base, warmup, measure)
                    for size in sizes
                ]
            table[group] = series
        out[resource] = {"sizes": sizes, "groups": table}
    return out


@renderer("fig6")
def render_fig6(result: dict) -> str:
    parts = []
    for resource, data in result.items():
        sizes = data["sizes"]
        headers = ["group", "config"] + [size_label(s) for s in sizes]
        rows = []
        for group, series in data["groups"].items():
            for label, values in series.items():
                rows.append([GROUP_LABELS.get(group, group), label]
                            + list(values))
        parts.append(render_table(
            headers, rows, precision=1,
            title=(f"Figure 6 ({resource.upper()} sweep): performance "
                   f"vs base {resource.upper()}:"
                   f"{SWEEP_BASELINE[resource]} (%)")))
    return "\n\n".join(parts)


# ======================================================================
# Figure 7 — LTP utilization
# ======================================================================
@experiment("fig7")
def fig7_utilization(warmup: Optional[int] = None,
                     measure: Optional[int] = None) -> dict:
    """Average LTP contents and enabled time for the IQ32/RF96 core."""
    core = ltp_params()
    out: Dict[str, dict] = {}
    for label, mode in [("nr", "nr"), ("nu", "nu"), ("nr+nu", "nr+nu")]:
        ltp = limit_ltp(mode).but(park_loads=False, park_stores=False,
                                  monitor="auto")
        per_group = {}
        for group in GROUPS:
            names = _group_members(group)
            results = [_run(n, core, ltp, warmup, measure) for n in names]
            per_group[group] = {
                "insts": arithmetic_mean([r["avg_ltp"] for r in results]),
                "regs": arithmetic_mean(
                    [r["avg_ltp_regs"] for r in results]),
                "loads": arithmetic_mean(
                    [r["avg_ltp_loads"] for r in results]),
                "stores": arithmetic_mean(
                    [r["avg_ltp_stores"] for r in results]),
                "enabled_pct": 100 * arithmetic_mean(
                    [r["ltp_enabled_fraction"] for r in results]),
            }
        out[label] = per_group
    return out


@renderer("fig7")
def render_fig7(result: dict) -> str:
    rows = []
    for mode, per_group in result.items():
        for group, data in per_group.items():
            rows.append([GROUP_LABELS.get(group, group), mode,
                         data["insts"], data["regs"], data["loads"],
                         data["stores"], data["enabled_pct"]])
    return render_table(
        ["group", "mode", "insts", "regs", "loads", "stores", "enabled %"],
        rows, precision=1,
        title="Figure 7: LTP utilization and enabled time (IQ:32 RF:96)")


# ======================================================================
# Figure 10 — implementation tradeoffs (entries x ports, ED2P)
# ======================================================================
FIG10_ENTRIES = [None, 128, 64, 32, 16]
FIG10_PORTS = [1, 2, 4, 8]


@experiment("fig10")
def fig10_impl_tradeoffs(warmup: Optional[int] = None,
                         measure: Optional[int] = None) -> dict:
    """Performance and IQ/RF ED2P vs LTP entries and ports.

    Baseline: IQ 64 / RF 128, no LTP.  Red line: IQ 32 / RF 96 without
    LTP.  The LTP design is the practical one: online UIT-256
    classification, NU-only, DRAM-timer monitor.
    """
    small_core = ltp_params()
    out: Dict[str, dict] = {}
    for category, base in _suites(warmup, measure):
        def point(ltp: LTPConfig) -> dict:
            _, perf, ed2p = _compare(category, small_core, ltp, base, warmup,
                                     measure, base_core=baseline_params())
            return {"perf": perf, "ed2p": ed2p}

        series = {f"{ports}p": [
            {"entries": entries,
             **point(proposed_ltp().but(entries=entries, ports=ports))}
            for entries in FIG10_ENTRIES] for ports in FIG10_PORTS}
        out[category] = {"series": series, "no_ltp": point(no_ltp())}
    return {"entries": FIG10_ENTRIES, "by_category": out}


@renderer("fig10")
def render_fig10(result: dict) -> str:
    parts = []
    entries = result["entries"]
    for category, data in result["by_category"].items():
        for metric in ("perf", "ed2p"):
            headers = ["ports"] + [size_label(e) for e in entries]
            rows = []
            for ports, row in data["series"].items():
                rows.append([ports] + [point[metric] for point in row])
            rows.append(["no-LTP"]
                        + [data["no_ltp"][metric]] * len(entries))
            title = (f"Figure 10 ({GROUP_LABELS[category]}): "
                     f"{'performance' if metric == 'perf' else 'IQ/RF ED2P'}"
                     f" vs base IQ:64 RF:128 (%), by LTP entries")
            parts.append(render_table(headers, rows, precision=1,
                                      title=title))
    return "\n\n".join(parts)


# ======================================================================
# Figure 11 — ticket sweep
# ======================================================================
FIG11_TICKETS = [128, 64, 32, 16, 8, 4]


@experiment("fig11")
def fig11_tickets(warmup: Optional[int] = None,
                  measure: Optional[int] = None) -> dict:
    """Performance vs number of tickets for the NR+NU design."""
    small_core = ltp_params()
    out: Dict[str, dict] = {}
    for category, base in _suites(warmup, measure):
        def perf(ltp: LTPConfig) -> float:
            return _group_perf(category, small_core, ltp, base, warmup,
                               measure)

        out[category] = {
            "nr+nu": [perf(limit_ltp("nr+nu").but(
                entries=128, ports=4, tickets=tickets, park_loads=False,
                park_stores=False, monitor="auto"))
                for tickets in FIG11_TICKETS],
            "nu": perf(limit_ltp("nu").but(
                entries=128, ports=4, park_loads=False, park_stores=False,
                monitor="auto")),
            "no_ltp": perf(no_ltp())}
    return {"tickets": FIG11_TICKETS, "by_category": out}


@renderer("fig11")
def render_fig11(result: dict) -> str:
    headers = ["suite", "config"] + [str(t) for t in result["tickets"]]
    rows = []
    n = len(result["tickets"])
    for category, data in result["by_category"].items():
        label = GROUP_LABELS[category]
        rows.append([label, "LTP (NR+NU)"] + data["nr+nu"])
        rows.append([label, "LTP (NU)"] + [data["nu"]] * n)
        rows.append([label, "No LTP"] + [data["no_ltp"]] * n)
    return render_table(headers, rows, precision=1,
                        title="Figure 11: performance vs #tickets, "
                              "vs base IQ:64 RF:128 (%)")


# ======================================================================
# Section 5.6 — UIT size ablation
# ======================================================================
UIT_SIZES = [None, 512, 256, 128, 64]


@experiment("uit")
def uit_ablation(warmup: Optional[int] = None,
                 measure: Optional[int] = None) -> dict:
    """Performance vs UIT size for the practical NU-only design."""
    small_core = ltp_params()
    out = {category: [_group_perf(category, small_core,
                                  proposed_ltp().but(uit_size=uit_size),
                                  base, warmup, measure)
                      for uit_size in UIT_SIZES]
           for category, base in _suites(warmup, measure)}
    return {"sizes": UIT_SIZES, "by_category": out}


@renderer("uit")
def render_uit_ablation(result: dict) -> str:
    headers = ["suite"] + [size_label(s) for s in result["sizes"]]
    rows = [[GROUP_LABELS[c]] + series
            for c, series in result["by_category"].items()]
    return render_table(headers, rows, precision=1,
                        title="Section 5.6: performance vs UIT size, "
                              "vs base IQ:64 RF:128 (%)")


# ======================================================================
# Appendix — oracle vs two-level hit/miss predictor
# ======================================================================
@experiment("predictor")
def predictor_ablation(warmup: Optional[int] = None,
                       measure: Optional[int] = None) -> dict:
    """Oracle vs two-level long-latency prediction (paper: <2 points)."""
    small_core = ltp_params()
    out = {}
    for category, base in _suites(warmup, measure):
        out[category] = {
            predictor: _group_perf(
                category, small_core, limit_ltp("nr+nu").but(
                    entries=128, ports=4, tickets=128,
                    ll_predictor=predictor, park_loads=False,
                    park_stores=False, monitor="auto"),
                base, warmup, measure)
            for predictor in ("oracle", "twolevel")}
    return out


@renderer("predictor")
def render_predictor_ablation(result: dict) -> str:
    rows = [[GROUP_LABELS[c], v["oracle"], v["twolevel"],
             v["oracle"] - v["twolevel"]]
            for c, v in result.items()]
    return render_table(
        ["suite", "oracle", "two-level", "delta (pts)"], rows, precision=1,
        title="Appendix: LL-predictor ablation, perf vs base (%)")


# ======================================================================
# Section 4.1 — MLP sensitivity classification
# ======================================================================
@experiment("sensitivity")
def sensitivity_report(warmup: Optional[int] = None,
                       measure: Optional[int] = None) -> dict:
    """Apply the Section 4.1 rule to every workload."""
    rows = []
    for category in (MLP_SENSITIVE, MLP_INSENSITIVE):
        for name in suite_names(category):
            small = _run(name, _limit_core("iq", 32), no_ltp(), warmup,
                         measure)
            large = _run(name, _limit_core("iq", 256), no_ltp(), warmup,
                         measure)
            verdict = classify(SensitivityInputs(
                cycles_small_iq=int(small["cycles"]),
                cycles_large_iq=int(large["cycles"]),
                outstanding_small_iq=small["avg_outstanding"],
                outstanding_large_iq=large["avg_outstanding"],
                avg_load_latency=small["avg_load_latency"],
            ))
            rows.append({
                "workload": name,
                "designed_as": category,
                "classified_sensitive": verdict.sensitive,
                "speedup_pct": verdict.speedup_pct,
                "outstanding_growth_pct": verdict.outstanding_growth_pct,
                "beyond_l2": verdict.latency_beyond_l2,
            })
    return {"rows": rows}


@renderer("sensitivity")
def render_sensitivity(result: dict) -> str:
    rows = [[r["workload"], r["designed_as"], r["classified_sensitive"],
             r["speedup_pct"], r["outstanding_growth_pct"], r["beyond_l2"]]
            for r in result["rows"]]
    return render_table(
        ["workload", "designed as", "sensitive?", "speedup %",
         "outst. growth %", ">L2 lat"],
        rows, precision=1,
        title="Section 4.1: MLP-sensitivity classification (IQ 32 vs 256)")


# ======================================================================
# Section 6 — alternatives: WIB-style slice buffer vs LTP
# ======================================================================
@experiment("alternatives")
def alternatives_comparison(warmup: Optional[int] = None,
                            measure: Optional[int] = None) -> dict:
    """LTP vs a WIB-style slice buffer on the IQ and RF axes.

    The paper's related-work contrast (Lebeck et al. [1]): a WIB drains
    miss-dependent instructions out of the IQ but their registers were
    already allocated at rename, so it only relieves IQ pressure.  LTP
    parks before allocation and relieves both.
    """
    from repro.ltp.config import wib_ltp

    out: Dict[str, dict] = {}
    for resource, size in (("iq", 16), ("iq", 32), ("rf", 64), ("rf", 48)):
        base = _baselines(suite_names(MLP_SENSITIVE),
                          _limit_core(resource, SWEEP_BASELINE[resource]),
                          warmup, measure)
        swept_core = _limit_core(resource, size)
        out[f"{resource}:{size}"] = {
            label: _group_perf(MLP_SENSITIVE, swept_core, ltp, base, warmup,
                               measure)
            for label, ltp in (("no-ltp", no_ltp()), ("wib", wib_ltp()),
                               ("ltp-nr+nu", limit_ltp("nr+nu")))}
    return out


@renderer("alternatives")
def render_alternatives(result: dict) -> str:
    labels = ["no-ltp", "wib", "ltp-nr+nu"]
    rows = [[point] + [values[label] for label in labels]
            for point, values in result.items()]
    return render_table(
        ["sweep point"] + labels, rows, precision=1,
        title="Section 6: WIB-style slice buffer vs LTP, "
              "perf vs per-resource baseline (%), sensitive suite")


# ======================================================================
# Section 3.2 — wakeup-policy ablation (ROB position vs eager)
# ======================================================================
@experiment("wakeup")
def wakeup_policy_ablation(warmup: Optional[int] = None,
                           measure: Optional[int] = None) -> dict:
    """Late (ROB-position) vs eager Non-Urgent wakeup.

    Waking Non-Urgent instructions eagerly re-allocates registers long
    before commit, wasting them (Section 3.2's argument for the
    ROB-position rule); the effect shows at small register files.
    """
    out: Dict[str, dict] = {}
    for rf_size in (96, 64, 48):
        core = _limit_core("rf", rf_size)
        base = _baselines(suite_names(MLP_SENSITIVE),
                          _limit_core("rf", SWEEP_BASELINE["rf"]),
                          warmup, measure)
        out[f"rf:{rf_size}"] = {
            policy: _group_perf(
                MLP_SENSITIVE, core, limit_ltp("nu").but(
                    wakeup_policy=policy, park_loads=False,
                    park_stores=False, monitor="on"),
                base, warmup, measure)
            for policy in ("rob-position", "eager")}
    return out


@renderer("wakeup")
def render_wakeup_policy(result: dict) -> str:
    rows = [[point, values["rob-position"], values["eager"],
             values["rob-position"] - values["eager"]]
            for point, values in result.items()]
    return render_table(
        ["sweep point", "rob-position", "eager", "late-wakeup gain"],
        rows, precision=1,
        title="Section 3.2: Non-Urgent wakeup policy ablation, "
              "perf vs RF:128 baseline (%), sensitive suite")


# ======================================================================
# Headline summary (Section 5.7 / conclusions)
# ======================================================================
@experiment("headline")
def headline_summary(warmup: Optional[int] = None,
                     measure: Optional[int] = None) -> dict:
    """The paper's bottom line, per suite.

    Baseline IQ64/RF128 vs the shrunken IQ32/RF96 core with and without
    the proposed LTP: performance and IQ/RF ED2P deltas.
    """
    small_core = ltp_params()
    out: Dict[str, dict] = {}
    for category, base in _suites(warmup, measure):
        out[category] = {}
        for label, ltp in (("no_ltp", no_ltp()),
                           ("proposed", proposed_ltp())):
            runs, perf, ed2p = _compare(category, small_core, ltp, base,
                                        warmup, measure,
                                        base_core=baseline_params())
            out[category][label] = {
                "perf_pct": perf, "ed2p_pct": ed2p,
                "enabled_pct": 100.0 * arithmetic_mean(
                    [r["ltp_enabled_fraction"] for r in runs])}
    return out


@renderer("headline")
def render_headline(result: dict) -> str:
    rows = []
    for category, data in result.items():
        for label in ("no_ltp", "proposed"):
            entry = data[label]
            rows.append([GROUP_LABELS[category], label,
                         entry["perf_pct"], entry["ed2p_pct"],
                         entry["enabled_pct"]])
    return render_table(
        ["suite", "IQ32/RF96 config", "perf vs base (%)",
         "IQ/RF ED2P vs base (%)", "LTP enabled (%)"],
        rows, precision=1,
        title="Headline: shrinking IQ 64->32 and RF 128->96, "
              "with and without the proposed LTP")


# ======================================================================
# Allocation-policy comparison (the repro.policies scenario space)
# ======================================================================
@experiment("policies")
def policy_comparison(warmup: Optional[int] = None,
                      measure: Optional[int] = None,
                      policies: Optional[Sequence[str]] = None) -> dict:
    """Compare every registered allocation policy on the small core.

    The scenario space the policy seam opens: per suite, mean relative
    performance of each :mod:`repro.policies` policy (on the IQ32/RF96
    core with the proposed LTP structure sizes) against the IQ64/RF128
    no-LTP baseline, alongside how much each policy parks and its
    policy-aware IQ/RF/queue ED2P delta
    (:func:`repro.energy.model.compute_energy` charges only the window
    structures the policy's registry metadata says it clocks).
    Criticality-aware policies (``ltp``, ``oracle-park``) should
    recover the big core's performance; the criticality-blind strawmen
    (``random-park``) should not — the paper's central claim, now one
    sweep axis.
    """
    chosen = list(policies) if policies is not None else policy_names()
    small_core = ltp_params()
    ltp = proposed_ltp()
    out: Dict[str, dict] = {}
    for category, base in _suites(warmup, measure):
        out[category] = {}
        for policy in chosen:
            runs, perf, ed2p = _compare(category, small_core, ltp, base,
                                        warmup, measure, policy,
                                        baseline_params())
            out[category][policy] = {
                "perf_pct": perf,
                "parked_frac": arithmetic_mean(
                    [r["ltp_parked"] / max(1, int(r["committed"]))
                     for r in runs]),
                "ed2p_pct": ed2p}
    return {"policies": chosen, "by_category": out}


@renderer("policies")
def render_policy_comparison(result: dict) -> str:
    rows = []
    for category, per_policy in result["by_category"].items():
        for policy in result["policies"]:
            data = per_policy[policy]
            rows.append([GROUP_LABELS.get(category, category), policy,
                         data["perf_pct"], 100.0 * data["parked_frac"],
                         data.get("ed2p_pct")])
    return render_table(
        ["suite", "policy", "perf vs base (%)", "parked (%)",
         "ED2P vs base (%)"],
        rows, precision=1,
        title="Allocation policies on IQ:32 RF:96, "
              "perf vs IQ:64 RF:128 no-LTP baseline")


# ======================================================================
# named sweep presets (``repro sweep NAME`` / scripts/ci_sweep.py)
# ======================================================================
def _preset(workloads: Optional[Sequence[str]], ltp: LTPConfig,
            axes: Dict[str, list], warmup: Optional[int],
            measure: Optional[int]) -> SweepSpec:
    """A sweep of *axes* on the IQ32/RF96 core over *workloads* (the
    full kernel suite when ``None``)."""
    return SweepSpec(
        workloads=(list(workloads) if workloads is not None
                   else _full_suite_names()),
        core=ltp_params(), ltp=ltp, warmup=warmup, measure=measure,
        axes=axes)


def ltp_queue_sweep(workloads: Optional[Sequence[str]] = None,
                    warmup: Optional[int] = None,
                    measure: Optional[int] = None) -> SweepSpec:
    """The Figure-style headline sweep: LTP on/off x queue sizes.

    Sweeps the proposed LTP design against the no-LTP baseline across
    issue-queue sizes for the full MLP-sensitive + MLP-insensitive
    kernel suite — the axis product behind the paper's headline
    figures, and the sweep CI shards four ways.
    """
    return _preset(workloads, proposed_ltp().but(enabled=False),
                   {"core.iq_size": [16, 32, 64],
                    "ltp.enabled": [False, True]}, warmup, measure)


def policy_compare_sweep(workloads: Optional[Sequence[str]] = None,
                         warmup: Optional[int] = None,
                         measure: Optional[int] = None,
                         policies: Optional[Sequence[str]] = None,
                         ) -> SweepSpec:
    """Every allocation policy x the full kernel suite.

    The sweep the policy seam exists for: one ``policy`` axis puts the
    paper's LTP, the stalling baseline and the scenario policies
    (oracle / random / depth parking) on identical cores and budgets,
    shardable and resumable like any other sweep.
    """
    return _preset(workloads, proposed_ltp(),
                   {"policy": (list(policies) if policies is not None
                               else policy_names())}, warmup, measure)


#: the ``learned-compare`` contenders: both reference points (perfect
#: labels, the paper's online tables) against the learned subsystem
LEARNED_COMPARE_POLICIES = ("oracle-park", "ltp", "model-park",
                            "confidence-park", "loadpred-park")


def learned_compare_sweep(workloads: Optional[Sequence[str]] = None,
                          warmup: Optional[int] = None,
                          measure: Optional[int] = None,
                          policies: Optional[Sequence[str]] = None,
                          ) -> SweepSpec:
    """Oracle vs LTP vs the learned policies x the kernel suite.

    The headline question of :mod:`repro.policies.learned`: how close
    do the trained/adaptive parkers (``model-park``,
    ``confidence-park``, ``loadpred-park``) get to the oracle's perfect
    labels, with the paper's online LTP tables as the reference point
    in between.  Identical cores and budgets; ``summarize()`` breaks
    the result down per policy with ED2P deltas against ``ltp``.
    """
    return _preset(workloads, proposed_ltp(),
                   {"policy": list(policies if policies is not None
                                   else LEARNED_COMPARE_POLICIES)},
                   warmup, measure)


#: name -> zero-config SweepSpec factory; ``repro sweep <name>`` and the
#: CI driver resolve sweeps here when the argument is not a JSON file
SWEEP_PRESETS: Dict[str, Callable[..., SweepSpec]] = {
    "learned-compare": learned_compare_sweep,
    "ltp-queues": ltp_queue_sweep,
    "policy-compare": policy_compare_sweep,
}


def sweep_preset_descriptions() -> Dict[str, str]:
    """Name -> one-line description for every registered sweep preset."""
    return {name: first_doc_line(SWEEP_PRESETS[name].__doc__)
            for name in sorted(SWEEP_PRESETS)}


def sweep_preset(name: str, **kwargs) -> SweepSpec:
    """Build a registered sweep preset by name."""
    try:
        factory = SWEEP_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(SWEEP_PRESETS)) or "none"
        raise KeyError(
            f"unknown sweep preset {name!r} (registered: {known})") \
            from None
    return factory(**kwargs)


def sweep_preset_names() -> List[str]:
    """Sorted names of the registered sweep presets."""
    return sorted(SWEEP_PRESETS)


def resolve_sweep_spec(text: str, warmup: Optional[int] = None,
                       measure: Optional[int] = None,
                       engine: Optional[str] = None) -> SweepSpec:
    """Resolve a sweep argument: a SweepSpec JSON file, else a preset.

    The one place ``repro sweep`` and ``scripts/ci_sweep.py`` share, so
    spec-format and preset changes land once.  Budget and engine
    overrides apply to both forms (``None`` keeps the file's or
    factory's value; an ``"engine"`` axis still wins per point).  The
    spec is validated after the overrides apply, so a bad file, preset
    or flag value raises ``ValueError`` before any point runs.
    """
    path = Path(text)
    if path.is_file():
        with open(path) as handle:
            spec = SweepSpec.from_dict(json.load(handle))
    else:
        try:
            spec = sweep_preset(text)
        except KeyError:
            presets = ", ".join(sweep_preset_names()) or "none"
            raise ValueError(
                f"sweep spec {text!r} is neither a JSON file nor a "
                f"registered preset (presets: {presets})") from None
    for name, value in (("warmup", warmup), ("measure", measure),
                        ("engine", engine)):
        if value is not None:
            setattr(spec, name, value)
    return spec.validate()
