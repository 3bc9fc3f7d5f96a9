"""Tests for the experiment registry and the shared LTP preset table."""

import pytest

from repro.api import (Experiment, experiment, experiment_names,
                       get_experiment, ltp_preset, ltp_preset_names,
                       renderer)
from repro.api import registry as registry_mod
from repro.ltp.config import LTP_PRESETS, proposed_ltp

BUILTINS = {"table1", "fig1", "fig2", "fig5", "fig6", "fig7", "fig10",
            "fig11", "uit", "predictor", "sensitivity", "alternatives",
            "wakeup", "headline"}


def test_builtin_experiments_registered():
    assert BUILTINS <= set(experiment_names())


def test_get_experiment_resolves_runner_and_renderer():
    exp = get_experiment("table1")
    assert isinstance(exp, Experiment)
    assert exp.renderer is not None
    assert exp.description  # first docstring line
    result = exp.run(jobs=1)
    assert "3.4 GHz" in exp.render(result)


def test_get_experiment_unknown_name():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("fig99")


def test_decorators_register_and_protect():
    @experiment("_test_dummy", description="a dummy")
    def dummy_runner():
        return {"answer": 42}

    try:
        assert "_test_dummy" in experiment_names()
        exp = get_experiment("_test_dummy")
        assert exp.description == "a dummy"
        assert exp.run(jobs=1) == {"answer": 42}
        # no renderer yet: render falls back to repr
        assert exp.render({"answer": 42}) == repr({"answer": 42})

        @renderer("_test_dummy")
        def dummy_render(result):
            return f"answer={result['answer']}"

        assert exp.render({"answer": 42}) == "answer=42"

        with pytest.raises(ValueError, match="already registered"):
            experiment("_test_dummy")(dummy_runner)
        with pytest.raises(ValueError, match="already has a renderer"):
            renderer("_test_dummy")(dummy_render)
    finally:
        registry_mod._REGISTRY.pop("_test_dummy", None)


def test_renderer_requires_runner_first():
    with pytest.raises(ValueError, match="register the runner first"):
        renderer("_test_orphan")(lambda result: "")


# ------------------------------------------------------------- presets
def test_ltp_presets_are_the_single_registry():
    assert set(ltp_preset_names()) == set(LTP_PRESETS)


def test_ltp_preset_instantiates_fresh_configs():
    a = ltp_preset("proposed")
    b = ltp_preset("proposed")
    assert a == proposed_ltp() == b
    assert a is not b  # fresh instance per call; safe to mutate
    assert ltp_preset("limit-nrnu").mode == "nr+nu"
    assert ltp_preset("none").enabled is False
    assert ltp_preset("wib").defer_registers is False


def test_ltp_preset_unknown_name():
    with pytest.raises(KeyError, match="unknown LTP preset"):
        ltp_preset("turbo")


def test_experiment_jobs_other_than_one_run_on_a_pool(monkeypatch):
    # jobs=0 means one worker per CPU, as everywhere else
    import repro.harness.experiments as experiments_mod
    pooled = []
    monkeypatch.setattr(experiments_mod, "run_parallel",
                        lambda runner, jobs: pooled.append(jobs) or {})
    exp = Experiment(name="_inline", runner=lambda: {"inline": True})
    assert exp.run(jobs=1) == {"inline": True}
    for jobs in (0, None, 2):
        exp.run(jobs=jobs)
    assert pooled == [0, None, 2]
