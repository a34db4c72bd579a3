"""Run metadata: who/where/what produced an artifact.

Every JSONL trace and every benchmark suite file gets a stamp from
:func:`run_metadata` — host, CPU count, Python version, git SHA, config
name — so downstream consumers (``trace report``,
``benchmarks/e2e/compare.py``) can tell *which machine and code state*
produced the numbers.  ``compare.py`` uses :func:`compatible` to refuse
cross-host comparisons: a 30% "regression" that is really a laptop-vs-CI
delta is worse than no check at all.

The git SHA comes from one cached subprocess call and degrades to
``None`` outside a checkout (pip-installed trees, tarballs) — metadata
must never be the thing that crashes a run.
"""

from __future__ import annotations

import datetime
import os
import platform
import socket
import subprocess

__all__ = ["run_metadata", "git_sha", "compatible", "format_meta"]

_git_sha_cache: list = []  # [sha-or-None] once resolved


def git_sha(cwd=None) -> str | None:
    """Short SHA of HEAD, or None when git/the checkout is unavailable."""
    if not _git_sha_cache:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5,
                cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            )
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _git_sha_cache.append(sha or None)
    return _git_sha_cache[0]


def run_metadata(config: str | None = None, **extra) -> dict:
    """The standard stamp.  ``extra`` keys ride along verbatim."""
    meta = {
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    if config is not None:
        meta["config"] = config
    meta.update(extra)
    return meta


#: Keys that must match for two runs' numbers to be comparable.
_COMPARABLE_KEYS = ("host", "cpu_count")


def compatible(a: dict | None, b: dict | None) -> str | None:
    """None when two metadata stamps are comparable; else the reason
    they are not.  Missing metadata (pre-stamping artifacts) is treated
    as comparable-with-a-shrug — the caller decides whether to warn."""
    if not a or not b:
        return None
    for key in _COMPARABLE_KEYS:
        va, vb = a.get(key), b.get(key)
        if va is not None and vb is not None and va != vb:
            return f"{key} differs: {va!r} vs {vb!r}"
    return None


def format_meta(meta: dict | None) -> str:
    """One-line human rendering for report headers."""
    if not meta:
        return "(no run metadata)"
    bits = []
    if meta.get("host"):
        bits.append(f"host={meta['host']}")
    if meta.get("cpu_count") is not None:
        bits.append(f"cpus={meta['cpu_count']}")
    if meta.get("python"):
        bits.append(f"py={meta['python']}")
    if meta.get("git_sha"):
        bits.append(f"git={meta['git_sha']}")
    if meta.get("config"):
        bits.append(f"config={meta['config']}")
    if meta.get("recorded_at"):
        bits.append(f"at={meta['recorded_at']}")
    return " ".join(bits) if bits else "(no run metadata)"
