"""Decorator-based experiment registry.

Experiments self-register instead of being listed in a hand-maintained
table::

    from repro.api import experiment, renderer

    @experiment("fig6")
    def fig6_limit_study(...):
        ...

    @renderer("fig6")
    def render_fig6(result):
        ...

``repro experiment NAME`` (and anything else consuming
:func:`experiment_names` / :func:`get_experiment`) picks new scenarios
up automatically.  The built-in experiments live in
:mod:`repro.harness.experiments`, which is imported lazily the first
time the registry is queried so module import order never matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.util import first_doc_line


@dataclass
class Experiment:
    """A registered experiment: a sweep function plus its renderer."""

    name: str
    runner: Callable[..., dict]
    renderer: Optional[Callable[[dict], str]] = None
    description: str = ""

    def run(self, *args, jobs: Optional[int] = 1, **kwargs) -> dict:
        """Run the experiment; any ``jobs`` but 1 (``0`` or ``None`` =
        one worker per CPU) executes the sweep across a process pool."""
        if jobs == 1:
            return self.runner(*args, **kwargs)
        from repro.harness.experiments import run_parallel
        return run_parallel(self.runner, *args, jobs=jobs, **kwargs)

    def render(self, result: dict) -> str:
        """Render a result for humans (repr when no renderer exists)."""
        if self.renderer is None:
            return repr(result)
        return self.renderer(result)


_REGISTRY: Dict[str, Experiment] = {}


def experiment(name: str, description: Optional[str] = None) -> Callable:
    """Class-method-style decorator registering an experiment runner."""

    def decorate(func: Callable[..., dict]) -> Callable[..., dict]:
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} is already registered")
        doc = description
        if doc is None:
            doc = first_doc_line(func.__doc__)
        _REGISTRY[name] = Experiment(name=name, runner=func,
                                     description=doc)
        return func

    return decorate


def renderer(name: str) -> Callable:
    """Decorator attaching a render function to a registered experiment."""

    def decorate(func: Callable[[dict], str]) -> Callable[[dict], str]:
        entry = _REGISTRY.get(name)
        if entry is None:
            raise ValueError(
                f"no experiment {name!r}; register the runner first")
        if entry.renderer is not None:
            raise ValueError(
                f"experiment {name!r} already has a renderer")
        entry.renderer = func
        return func

    return decorate


def _ensure_builtins() -> None:
    """Import the built-in experiment definitions (registers them)."""
    import repro.harness.experiments  # noqa: F401  (import side effect)


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise KeyError(
            f"unknown experiment {name!r} (registered: {known})") from None


def experiment_names() -> List[str]:
    """Sorted names of every registered experiment."""
    _ensure_builtins()
    return sorted(_REGISTRY)
