"""Import hygiene: what every driver pays before its first step.

`scipy.stats` (0.75 s, ~45 MB) and `networkx` (0.12 s) were once pulled in
by `rng.distributions` and `grid.decomposition` at import time, i.e. by
every workload's set-up.  The Poisson sampler needs `scipy.special` only,
and `networkx` has one user (`Decomposition.neighbor_graph`), which imports
it when called.
"""

import subprocess
import sys

from repro.testing import src_dir, subprocess_env

PROBE = """
import sys
import repro.core.model, repro.engine.ensemble, repro.dist, repro.serve
heavy = [m for m in ("scipy.stats", "networkx") if m in sys.modules]
print(",".join(heavy))
"""


def test_drivers_import_neither_scipy_stats_nor_networkx():
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=subprocess_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", f"imported at start-up: {done.stdout}"


def test_src_never_names_scipy_stats():
    offenders = [
        str(path.relative_to(src_dir()))
        for path in src_dir().rglob("*.py")
        for text in [path.read_text()]
        if "scipy.stats" in text or "from scipy import stats" in text
    ]
    assert offenders == []
