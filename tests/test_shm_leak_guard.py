"""The leak guard in ``tests/conftest.py`` looks only at its own segments.

``/dev/shm`` is shared by the whole host: the guard used to diff raw
listings, so a ``repro.dist`` run in any other process (a benchmark beside
the suite) failed whichever test happened to be running.
"""

import os
import subprocess
import sys

import pytest

from repro.dist import shm
from tests.conftest import own_segment_names

SHM = "/dev/shm"
pytestmark = pytest.mark.skipif(
    not os.path.isdir(f"/proc/{os.getpid()}") or not os.access(SHM, os.W_OK),
    reason="needs /proc and a writable /dev/shm",
)


def _touch(pid: int, tag: str) -> str:
    name = f"{shm.SEGMENT_PREFIX}_{pid}_{tag}"
    open(os.path.join(SHM, name), "wb").close()
    return name


@pytest.fixture(scope="module")
def foreign_name():
    """A name under pid 1 — alive, and nobody's descendant.  Module scope:
    removed only after the function-scoped guard of the test below ran."""
    name = f"{shm.SEGMENT_PREFIX}_1_guardtest{os.getpid()}"
    yield name
    os.unlink(os.path.join(SHM, name))


def test_foreign_segment_appearing_mid_test_is_ignored(foreign_name):
    # Still there when this test's own `_no_shm_leaks` teardown runs: the
    # test passing *is* the assertion.
    open(os.path.join(SHM, foreign_name), "wb").close()
    assert foreign_name in shm.live_segment_names()
    assert foreign_name not in own_segment_names()


def test_own_and_child_segments_are_reported():
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.stdin.read()"],
        stdin=subprocess.PIPE,
    )
    names = [_touch(os.getpid(), "guardtest"), _touch(child.pid, "guardtest")]
    try:
        assert set(names) <= own_segment_names()
    finally:
        for name in names:
            os.unlink(os.path.join(SHM, name))
        child.communicate()
    assert not set(names) & own_segment_names()
