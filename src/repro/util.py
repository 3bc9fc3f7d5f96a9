"""Small dependency-free helpers shared across layers.

This module imports nothing from :mod:`repro`, so any layer (policies,
api, harness, cli) can use it at module scope without creating import
cycles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields
from typing import Any, Callable, Dict, Optional

__all__ = ["ConfigError", "check_fields", "first_doc_line"]


def first_doc_line(doc: Optional[str]) -> str:
    """First non-empty line of a docstring; ``""`` when absent/blank.

    The one implementation behind every registry's default-description
    extraction (allocation policies, experiments, sweep presets).
    """
    if not doc:
        return ""
    stripped = doc.strip()
    return stripped.splitlines()[0] if stripped else ""


class ConfigError(ValueError, KeyError):
    """A config value that breaks its field's rule: a ``ValueError``,
    and a ``KeyError`` like a failed registry lookup."""

    __str__ = ValueError.__str__  # KeyError's would quote the message


def check_fields(obj: Any, prefix: str) -> None:
    """Check each field of dataclass *obj* by its declared type and its
    rule in ``type(obj)._RULES`` (else the type's default, ``_KINDS``):
    an ``int``'s least value, the bound a ``float`` must exceed, a
    ``str``'s choices, a section's class.  ``Optional`` also takes
    ``None``.  A failure raises :class:`ConfigError` naming the field
    as ``prefix + name``."""
    _checker(type(obj))(obj, prefix)


#: per declared type: its default rule, its test of a value ``v``
#: against the rule ``{r}`` and the rule in words
_KINDS = {
    "int": (1, "type(v) is int and v >= {r}", "an integer >= {}"),
    "float": (0, "type(v) in (int, float) and {r} < v < math.inf",
              "a number > {}"),
    "str": (None, "type(v) is str and v in {r}", "a string in {}"),
    "bool": (None, "type(v) is bool", "true or false"),
    "Dict[str, int]": (1, "isinstance(v, dict) and _counts(v, {r})",
                       "an object mapping names to integers >= {}"),
    "Dict[str, Any]": (None, "isinstance(v, dict)", "an object"),
}
#: a nested section: its rule is its class, whose ``validate()`` runs
_SECTION = (None, "isinstance(v, {r})", "a {0.__name__}")


def _counts(value: dict, least: int) -> bool:
    for key, count in value.items():
        if type(key) is not str or type(count) is not int or count < least:
            return False
    return True


def _reject(path: str, expected: str, value: Any) -> ConfigError:
    return ConfigError(f"'{path}' must be {expected}, got {value!r}")


@functools.cache
def _checker(cls: type) -> Callable[[Any, str], None]:
    """*cls*'s rules compiled into one function, one test per field (as
    ``dataclasses`` compiles ``__init__``): validation runs once per
    simulated point, and a loop over the rules costs four times as
    much."""
    env: Dict[str, Any] = {"math": math, "_counts": _counts,
                           "_reject": _reject}
    lines = ["def check(obj, prefix):"]
    for index, f in enumerate(fields(cls)):
        optional = f.type.startswith("Optional[")
        kind = f.type[len("Optional["):-1] if optional else f.type
        default, test, words = _KINDS.get(kind, _SECTION)
        rule = cls._RULES.get(f.name, default)
        if kind == "str" and rule is None:  # any string
            test, words = "type(v) is str", "a string"
        expected = words.format(rule)
        if optional:
            test, expected = f"v is None or {test}", expected + " or null"
        env[f"r{index}"], env[f"e{index}"] = rule, expected
        # a literal rule compiles to a constant, faster than a lookup
        literal = repr(rule) if not isinstance(rule, type) else f"r{index}"
        lines += [f"    v = obj.{f.name}",
                  f"    if not ({test.format(r=literal)}):",
                  f"        raise _reject(prefix + {f.name!r}, e{index}, v)"]
        if kind not in _KINDS:
            lines.append("    v.validate()")
    exec("\n".join(lines), env)
    return env["check"]
