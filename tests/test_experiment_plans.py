"""Every experiment's plan and aggregation, pinned without simulating.

The plan pin records every configuration an experiment hands to
``_run`` (duplicates and call order kept) and checks the count and a
digest of the keys: the call order decides which traces the session's
LRU holds, so a refactor of an experiment must keep it as well as the
set of points.  The aggregation pin renders every experiment over
synthetic statistics derived from each point's key, so the arithmetic
that turns runs into rows is checked in well under a second.
"""

import hashlib

import pytest

from repro.api import Session, experiment_names, get_experiment
from repro.api import session as session_mod
from repro.api.result import SimResult
from repro.harness import experiments
from repro.harness.experiments import resolve_sweep_spec

#: name -> (planned points, sha256 of the newline-joined keys)[:16]
PLANS = {
    "alternatives": (112, "8ea47443d071dcc0"),
    "fig1": (45, "6155b914d1629bc3"),
    "fig10": (330, "f649acf92682500c"),
    "fig11": (135, "0c97534f7c42d8a6"),
    "fig5": (2, "e9a4e2a6afaa0433"),
    "fig6": (1428, "bb29d5d5fddc86ae"),
    "fig7": (51, "4ce36604aca01673"),
    "headline": (45, "b3a67617d972ca4e"),
    "policies": (135, "38655f8274a03dc2"),
    "predictor": (45, "c875ae769e1669ad"),
    "sensitivity": (30, "acd01f3afb6d84be"),
    "uit": (90, "552c8f2d05f5e1e4"),
    "wakeup": (63, "878eba2711d592e7"),
}

#: name -> sha256 of the text rendered from synthetic statistics[:16]
RENDERS = {
    "alternatives": "a8abeba5e894be22",
    "fig1": "f201070f5438a691",
    "fig10": "fdee2eca3e73b155",
    "fig11": "0703a55fb92b5b35",
    "fig5": "56d46ff43a5a2f5c",
    "fig6": "b11a4f9202a4ada6",
    "fig7": "225b91ea9efef317",
    "headline": "fe732d6adbe30cc9",
    "policies": "9340b7dccfc17a5d",
    "predictor": "3cdba610a01614d3",
    "sensitivity": "65c8efbe391d16c2",
    "uit": "af424a85bae8f99d",
    "wakeup": "2904b800981dc62f",
}

BUDGET = {"warmup": 200, "measure": 150}

#: sweep preset -> its sweep id at the default budget and engine
PRESET_SWEEP_IDS = {
    "learned-compare": "48f5c8a7cafc7cb4",
    "ltp-queues": "cf2b2d00f1e14d14",
    "policy-compare": "5b8e5849f13be098",
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_budgeted_experiment_is_pinned():
    budgeted = {name for name in experiment_names()
                if name not in ("table1", "fig2")}
    assert budgeted == set(PLANS)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_is_pinned(name, monkeypatch):
    sink = []
    monkeypatch.setattr(experiments, "_plan_sink", sink)
    get_experiment(name).runner(**BUDGET)
    keys = [config.key() for config in sink]
    assert (len(keys), digest("\n".join(keys))) == PLANS[name]


@pytest.mark.parametrize("name", sorted(PRESET_SWEEP_IDS))
def test_preset_sweep_id_is_pinned(name):
    assert resolve_sweep_spec(name).sweep_id() == PRESET_SWEEP_IDS[name]


class SyntheticStats(dict):
    """Statistics of one point, each a function of its key and name."""

    COUNTS = ("cycles", "committed", "ltp_parked")

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, stat):
        word = int.from_bytes(
            hashlib.sha256((self.key + stat).encode()).digest()[:4], "big")
        value = 1 + word % 100_000 if stat in self.COUNTS else word / 2**32
        self[stat] = value
        return value


class SyntheticSession(Session):
    """A session whose every point is synthetic: nothing simulates."""

    def run(self, config, use_cache=True):
        config.validate()
        key = config.key()
        return SimResult(config=config, stats=SyntheticStats(key), key=key)


@pytest.fixture
def synthetic(tmp_path):
    previous = session_mod.set_default_session(
        SyntheticSession(cache_dir=str(tmp_path)))
    try:
        yield
    finally:
        session_mod.set_default_session(previous)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_rendered_aggregation_is_pinned(name, synthetic):
    exp = get_experiment(name)
    assert digest(exp.render(exp.runner(**BUDGET))) == RENDERS[name]
