"""Helpers shared by the test and benchmark harnesses.

The repo is run from a clean checkout without installation: harness code
that launches subprocesses (example smoke tests, the benchmark entry
point) must propagate ``src/`` on ``PYTHONPATH`` so the child can import
:mod:`repro` from any cwd.  That logic lives here once, used by
``tests/integration/test_examples.py`` and ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import os
import pathlib


def repo_root() -> pathlib.Path:
    """The repository checkout root (parent of ``src/``)."""
    return pathlib.Path(__file__).resolve().parents[2]


def src_dir() -> pathlib.Path:
    """The importable source directory (``<repo>/src``)."""
    return repo_root() / "src"


def subprocess_env(base: dict[str, str] | None = None) -> dict[str, str]:
    """A copy of the environment with ``src/`` prepended to ``PYTHONPATH``.

    Pass the result as ``env=`` to :func:`subprocess.run` so the child
    interpreter can ``import repro`` from a clean checkout, regardless of
    its working directory.  An existing ``PYTHONPATH`` is preserved after
    ``src/``.
    """
    env = dict(os.environ if base is None else base)
    src = str(src_dir())
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([src, existing] if existing else [src])
    return env


def use_tier(name: str, monkeypatch) -> None:
    """Pin the running test to one tier of the per-voxel kernels and the
    counter hash: ``"numpy"`` patches ``native.tier`` to return None so
    that the numpy bodies run; ``"native"`` leaves the compiled tier in
    place and skips the test, with the loader's reason, where there is
    none."""
    import pytest

    from repro.core import native

    if name == "numpy":
        monkeypatch.setattr(native, "tier", lambda: None)
    elif native.tier() is None:
        pytest.skip(f"no compiled tier: {native.status()['reason']}")
