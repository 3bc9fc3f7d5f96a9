"""Tiny JSON result cache so repeated sweeps don't recompute runs."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple


class ResultCache:
    """Disk + memory cache of simulation statistics keyed by config hash."""

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is None:
            directory = os.environ.get(
                "REPRO_CACHE_DIR",
                str(Path(__file__).resolve().parents[3] / ".simcache"))
        self.directory = Path(directory)
        self._prefix = os.path.join(str(self.directory), "")
        self._memory: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return f"{self._prefix}{key}.json"

    def lookup(self, key: str) -> Optional[Tuple[dict, str]]:
        """Resolve *key* (a ``SimConfig.key()``, whose ``core``/``ltp``
        text is reused by ``repr``) to ``(value, source)``; source is
        "memory" or "disk" (the first disk hit promotes it to memory).

        A disk entry that is unreadable, not UTF-8 or not a JSON object
        is a miss, like an absent one; the next ``put`` overwrites it.
        Disk reads are one unbuffered read (no ``Path``, no stream)."""
        if key in self._memory:
            self.hits += 1
            return self._memory[key], "memory"
        try:
            with open(self._path(key), "rb", buffering=0) as handle:
                value = json.loads(handle.read().decode())
        except (OSError, ValueError):
            value = None
        if isinstance(value, dict):
            self._memory[key] = value
            self.hits += 1
            return value, "disk"
        self.misses += 1
        return None

    def get(self, key: str) -> Optional[dict]:
        found = self.lookup(key)
        return None if found is None else found[0]

    def put(self, key: str, value: dict) -> None:
        """Keep *value* under *key* in memory and on disk; a value JSON
        cannot encode raises first, and a failed write leaves no file."""
        data = json.dumps(value).encode()
        self._memory[key] = value
        tmp = None
        try:
            try:
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            except FileNotFoundError:
                self.directory.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, self._path(key))
        except OSError:
            # disk cache is best-effort; memory cache still holds it
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
