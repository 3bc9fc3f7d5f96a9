#!/usr/bin/env python
"""Lint the repository's markdown docs: links and anchors must resolve.

Usage (from the repo root)::

    python scripts/check_docs.py            # checks README.md + docs/ + *.md
    python scripts/check_docs.py FILE...    # check specific files

Checks, for every markdown file:

* relative links ``[text](path)`` point at files that exist,
* in-document anchors ``[text](#anchor)`` match a heading's GitHub
  slug, and
* cross-document anchors ``[text](path#anchor)`` match a heading slug
  in the target markdown file.

In README.md and ``docs/`` it also resolves, by import, every dotted
name starting with ``repro.`` inside an inline code span, so a doc that
names a module or attribute that is gone fails the check.

External links (``http(s)://``, ``mailto:``) are not fetched — this is
an offline structural check, wired into the CI lint job next to ruff.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from typing import List, Set

REPO_ROOT = Path(__file__).resolve().parents[1]
#: where ``repro`` imports from when the docs' names are resolved
SRC = str(REPO_ROOT / "src")

#: markdown sources checked by default
DEFAULT_TARGETS = ("README.md", "ROADMAP.md", "CHANGES.md", "docs")
#: the current-state docs whose ``repro.`` names must resolve (ROADMAP
#: and CHANGES also record names that are gone)
NAME_TARGETS = ("README.md", "docs")

_LINK = re.compile(r"(?<!!)\[[^\]^]*\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_REPRO_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_HEADING = re.compile(r"^(#{1,6})\s+(.*)$")
_CODE_FENCE = re.compile(r"^(```|~~~)")


def heading_slug(text: str) -> str:
    """GitHub's anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", text)          # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # strip links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> Set[str]:
    slugs: Set[str] = set()
    seen: dict = {}
    in_fence = False
    for line in path.read_text().splitlines():
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if not match:
            continue
        slug = heading_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        slugs.add(slug if count == 0 else f"{slug}-{count}")
    return slugs


def markdown_files(arguments: List[str]) -> List[Path]:
    if arguments:
        return [Path(arg).resolve() for arg in arguments]
    files: List[Path] = []
    for target in DEFAULT_TARGETS:
        path = REPO_ROOT / target
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.is_file():
            files.append(path)
    return files


def resolves(name: str) -> bool:
    """Does the dotted *name* import: its longest importable module
    prefix, then attribute lookups for the rest?"""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def checks_names(path: Path) -> bool:
    return any(path == REPO_ROOT / target
               or (REPO_ROOT / target) in path.parents
               for target in NAME_TARGETS)


def check_file(path: Path) -> List[str]:
    errors: List[str] = []
    text = path.read_text()
    in_fence = False
    names = checks_names(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        if names:
            for span in _CODE_SPAN.finditer(line):
                for name in _REPRO_NAME.findall(span.group(1)):
                    if not resolves(name):
                        errors.append(
                            f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                            f"{name!r} does not resolve")
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, anchor = target.partition("#")
            if base:
                resolved = (path.parent / base).resolve()
                try:
                    resolved.relative_to(REPO_ROOT)
                except ValueError:
                    # escapes the repository (e.g. the GitHub-web
                    # "../../actions/..." badge path) — not a repo file
                    continue
                if not resolved.exists():
                    errors.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                                  f"broken link target {target!r}")
                    continue
            else:
                resolved = path
            if anchor:
                if resolved.suffix.lower() != ".md":
                    continue
                if anchor.lower() not in heading_slugs(resolved):
                    errors.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                                  f"anchor #{anchor} not found in "
                                  f"{resolved.name}")
    return errors


def main(argv: List[str]) -> int:
    files = markdown_files(argv)
    if not files:
        print("no markdown files to check")
        return 1
    errors: List[str] = []
    for path in files:
        errors.extend(check_file(path))
    for error in errors:
        print(error)
    checked = ", ".join(str(p.relative_to(REPO_ROOT)) for p in files)
    if errors:
        print(f"\n{len(errors)} broken link(s)/anchor(s)/name(s) in: "
              f"{checked}")
        return 1
    print(f"docs OK: {len(files)} file(s) checked ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
