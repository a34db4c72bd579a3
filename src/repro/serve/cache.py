"""Result cache: identical requests are free.

Keyed on the canonical ``(encoded params, seeds, steps)`` tuple
(:func:`repro.serve.jobs.result_cache_key`), the cache is *correct by
construction*: the engine's bitwise-determinism guarantee means every
backend produces the identical stats series for the same key, so a
cached entry is indistinguishable from a re-run — not a lossy
approximation of one.

Storage is two-tier:

- an in-memory dict (the hot path — a hit is a dict lookup);
- an optional on-disk mirror, one **subdirectory per key** with the
  repo-wide atomic write discipline (tmp file + ``os.replace``), so
  concurrent jobs finishing at the same moment never interleave bytes or
  clobber each other's entries — the same collision-safety rule the
  per-job checkpoint directories follow (DESIGN.md §4e).
"""

from __future__ import annotations

import json
import os
import threading


class ResultCache:
    """Two-tier (memory + optional disk) result store.

    Thread-safe: the scheduler reads from the asyncio loop thread while
    worker threads publish finished results.
    """

    def __init__(self, directory: str | None = None, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.directory = directory
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._memory: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # -- lookup --------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The cached result payload, or None.  Falls through to disk
        (and repopulates memory) when a restarted server lost its dict."""
        with self._lock:
            payload = self._memory.get(key)
        if payload is None and self.directory is not None:
            payload = self._read_disk(key)
            if payload is not None:
                with self._lock:
                    self._memory.setdefault(key, payload)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    # -- insertion -----------------------------------------------------------

    def put(self, key: str, payload: dict) -> None:
        """Publish a finished run's result under its canonical key.

        Bounded: when full, an arbitrary old entry is evicted from
        memory (insertion order — dicts preserve it); the disk mirror is
        append-only within a serve session.
        """
        with self._lock:
            while len(self._memory) >= self.capacity:
                self._memory.pop(next(iter(self._memory)))
            self._memory[key] = payload
        if self.directory is not None:
            self._write_disk(key, payload)

    # -- disk mirror ---------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        # One subdirectory per key: writers for different keys never
        # share a path, and the atomic replace below makes same-key
        # writers idempotent (last writer wins with identical bytes).
        return os.path.join(self.directory, key[:2], key, "result.json")

    def _write_disk(self, key: str, payload: dict) -> None:
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
        try:
            with open(tmp, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _read_disk(self, key: str) -> dict | None:
        try:
            with open(self._entry_path(key)) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            return None  # a torn entry is a miss, never a crash
