"""The legacy runner cache shims must warn — and the suite must not
trip the warning itself.

``runner._trace_cache`` / ``_result_cache`` resolve
through module ``__getattr__`` for backward compatibility; every such
read now emits a ``DeprecationWarning`` pointing at :mod:`repro.api`.
The suite-wide pytest filter (``pyproject.toml``) escalates exactly
that warning to an error, so the tier-1 suite itself triggering one
anywhere fails the run; the tests here additionally pin the message
and the filter's presence.
"""

from pathlib import Path

import pytest

from repro.harness import runner as runner_mod

LEGACY_ATTRS = ("_trace_cache", "_result_cache")


def _without_real_global(name):
    """Remove a test-installed module global so __getattr__ fires."""
    return runner_mod.__dict__.pop(name, None)


@pytest.mark.parametrize("name", LEGACY_ATTRS)
def test_legacy_cache_attribute_warns_and_points_at_api(name):
    saved = _without_real_global(name)
    try:
        with pytest.warns(DeprecationWarning,
                          match=rf"runner\.{name} is deprecated.*repro\.api"):
            value = getattr(runner_mod, name)
        assert value is not None
    finally:
        if saved is not None:
            runner_mod.__dict__[name] = saved


def test_legacy_attributes_still_resolve_to_session_state():
    from repro.api import default_session
    session = default_session()
    saved = _without_real_global("_result_cache")
    try:
        with pytest.warns(DeprecationWarning):
            assert runner_mod._result_cache is session.results
    finally:
        if saved is not None:
            runner_mod.__dict__["_result_cache"] = saved


def test_unknown_attribute_still_raises_attribute_error():
    with pytest.raises(AttributeError):
        runner_mod.definitely_not_an_attribute


def test_suite_escalates_the_shim_warning_to_an_error():
    """The tier-1 suite proves itself shim-free: the pytest config
    turns the runner deprecation warning into a hard error, so this
    whole test run passing means no unguarded legacy access exists."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text()
    assert 'error:runner\\\\._:DeprecationWarning' in text or \
        'error:runner\\._:DeprecationWarning' in text
