"""Shared-memory arenas for the distributed runtime.

Each rank's :class:`~repro.core.state.VoxelBlock` fields — its owned
voxels and its ghost band — live in one ``multiprocessing.shared_memory``
segment, so a neighbor rank's band pull is a *zero-copy read* of the
owner's arrays — the distributed analog of UPC++ global pointers / GPU
peer access.

A segment is described by a layout (ordered ``(name, shape, dtype)``
triples); :class:`ShmSegment` creates or attaches it and exposes named
ndarray views at computed offsets.  Creation and teardown are tracked in
a module-level registry wired to ``atexit``, so an interrupted run (test
failure, Ctrl-C) never leaks ``/dev/shm`` segments; the leak-check
fixture in ``tests/conftest.py`` asserts that stays true.
"""

from __future__ import annotations

import atexit
import os
from multiprocessing import shared_memory

import numpy as np

#: Prefix of every segment this package creates; the leak checker scans
#: /dev/shm for it.
SEGMENT_PREFIX = "repro_dist"

#: Segments created (and therefore owned + unlinked) by this process.
_OWNED: dict[str, shared_memory.SharedMemory] = {}
#: Segments attached (closed but never unlinked) by this process.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}

_ALIGN = 16


def make_segment_name(tag: str) -> str:
    """A unique, identifiable segment name: prefix + pid + random tag."""
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{tag}"


def block_layout(padded_shape: tuple[int, ...]) -> list[tuple[str, tuple[int, ...], np.dtype]]:
    """Layout of one rank's data segment: every VoxelBlock field at the
    padded block shape.  Geometry arrays (gid / in_domain) are derived
    per process, and intents are private to the rank: neither is shared."""
    from repro.core.state import VoxelBlock

    return [
        (name, padded_shape, np.dtype(dt))
        for name, dt in VoxelBlock.FIELD_DTYPES.items()
    ]


def layout_nbytes(layout) -> int:
    total = 0
    for _name, shape, dtype in layout:
        total = _round_up(total) + int(np.prod(shape)) * dtype.itemsize
    return max(1, _round_up(total))


def _round_up(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ShmSegment:
    """One shared-memory segment + named ndarray views into it."""

    def __init__(self, shm: shared_memory.SharedMemory, layout, owner: bool):
        self.shm = shm
        self.name = shm.name
        self.owner = owner
        self.arrays: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape, dtype in layout:
            offset = _round_up(offset)
            nbytes = int(np.prod(shape)) * dtype.itemsize
            self.arrays[name] = np.ndarray(
                shape, dtype=dtype, buffer=shm.buf, offset=offset
            )
            offset += nbytes

    @classmethod
    def create(cls, name: str, layout) -> "ShmSegment":
        """Allocate a segment sized for ``layout``: zero-filled, as a new
        POSIX object (``shm_open`` + ``ftruncate``) always reads."""
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=layout_nbytes(layout)
        )
        _OWNED[name] = shm
        return cls(shm, layout, owner=True)

    @classmethod
    def attach(cls, name: str, layout) -> "ShmSegment":
        """Attach an existing segment (worker side).

        Workers are always ``multiprocessing`` children of the creator,
        so they share its resource-tracker process: the attach-side
        registration is a set-add no-op there, and unregistering it
        (tempting, to stop attachers from unlinking) would actually
        remove the *creator's* registration.  Leave tracking alone.
        """
        shm = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = shm
        return cls(shm, layout, owner=False)

    def close(self) -> None:
        """Drop this process's mapping; the owner also unlinks the file.

        Idempotent — teardown paths (context manager, atexit, the
        conftest leak sweeper) may all reach the same segment.
        """
        # ndarray views keep shm.buf alive; drop them before close() or
        # BufferError("cannot close exported pointers exist") is raised.
        self.arrays.clear()
        registry = _OWNED if self.owner else _ATTACHED
        if registry.pop(self.name, None) is None:
            return
        try:
            self.shm.close()
        except Exception:
            pass
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass


def release_all() -> None:
    """Close every segment this process still tracks (atexit safety net)."""
    for registry, owner in ((_OWNED, True), (_ATTACHED, False)):
        for name, shm in list(registry.items()):
            registry.pop(name, None)
            try:
                shm.close()
            except Exception:
                pass
            if owner:
                try:
                    shm.unlink()
                except Exception:
                    pass


def live_segment_names() -> set[str]:
    """Names of repro-dist segments currently present in /dev/shm.

    Empty on platforms without a /dev/shm directory (the leak checker
    degrades to a no-op there).
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {e for e in entries if e.startswith(SEGMENT_PREFIX)}


atexit.register(release_all)
