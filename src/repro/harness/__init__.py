"""Experiment harness: configs, caching, reports, per-figure sweeps.

The mutable simulation state lives in :class:`repro.api.session.Session`
objects; this package keeps the configuration/result plumbing.
"""

from repro.harness.config import DEFAULT_MEASURE, DEFAULT_WARMUP, SimConfig
from repro.harness.report import render_json, render_table, size_label

__all__ = [
    "DEFAULT_MEASURE",
    "DEFAULT_WARMUP",
    "SimConfig",
    "render_json",
    "render_table",
    "size_label",
]
