"""Repo-wide fixtures.

The shared-memory leak check runs around *every* test: any segment the
distributed runtime creates must be gone from ``/dev/shm`` by teardown,
even when the test failed mid-run.  The check is one directory listing,
so non-dist tests pay essentially nothing.
"""

import os

import pytest

from repro.dist import shm
from repro.testing import use_tier


def _parent_pid(pid: int) -> int:
    """Parent of a live process, 0 if it is gone (or has no ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            # "pid (comm) state ppid ..."; comm may itself hold ") ".
            return int(f.read().rsplit(")", 1)[1].split()[1])
    except (OSError, ValueError, IndexError):
        return 0


def own_segment_names() -> set[str]:
    """The live segments this process or a live descendant of it created.

    ``/dev/shm`` is host-global and a segment's name embeds its creator's
    pid (:func:`repro.dist.shm.make_segment_name`), so segments of any
    other ``repro.dist`` user on the host — a benchmark running beside the
    suite — are none of a test's business.
    """
    me, own = os.getpid(), set()
    for name in shm.live_segment_names():
        pid = name[len(shm.SEGMENT_PREFIX) + 1:].split("_", 1)[0]
        pid = int(pid) if pid.isdigit() else 0
        while pid > 1 and pid != me:
            pid = _parent_pid(pid)
        if pid == me:
            own.add(name)
    return own


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    before = own_segment_names()
    yield
    # Defensive sweep first: a test that failed mid-run may still track
    # open segments; close (and, for owned ones, unlink) them so one
    # failure doesn't cascade leak-assertions through the whole session.
    shm.release_all()
    leaked = own_segment_names() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture(params=["numpy", "native"])
def tier(request, monkeypatch):
    """Run the test once on each tier of the per-voxel kernels and the
    counter hash (:func:`repro.testing.use_tier`)."""
    use_tier(request.param, monkeypatch)
    return request.param
