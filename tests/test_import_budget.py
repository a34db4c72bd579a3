"""Import hygiene: what every driver pays before its first step.

`scipy.stats` (0.75 s, ~45 MB) and `networkx` (0.12 s) were once pulled in
by `rng.distributions` and `grid.decomposition` at import time, i.e. by
every workload's set-up.  The Poisson sampler needs `scipy.special` only,
and `networkx` has one user (`Decomposition.neighbor_graph`), which imports
it when called.  The compiled tier (`repro.core.native`) is built and
loaded at the first native call: importing the drivers must neither map the
library nor start a compiler, and neither may constructing one.  Counted
work (`repro.perf`, its stream model included) is priced after a run,
never during one: no driver's set-up imports it, nor any package the
executing PGAS / GPU substrates or the stream model once lived in.
"""

import os
import subprocess
import sys

import pytest

from repro.testing import src_dir, subprocess_env

PROBE = """
import sys
import repro.core.model, repro.engine, repro.engine.ensemble, repro.dist, repro.serve
heavy = [m for m in ("scipy.stats", "networkx") if m in sys.modules]
priced_later = ("perf", "gpusim", "pgas", "simcov_cpu", "simcov_gpu")
heavy += sorted(
    m for m in sys.modules
    if m.startswith("repro.") and m.split(".")[1] in priced_later
)
print(",".join(heavy))
"""

NATIVE_PROBE = """
import os, subprocess, sys
spawned = []
launch = subprocess.Popen.__init__
subprocess.Popen.__init__ = lambda self, *a, **k: (spawned.append(a), launch(self, *a, **k))[1]
import repro.core.model, repro.engine.ensemble, repro.dist, repro.serve
found = [f"a child process {a}" for a in spawned]
native = sys.modules.get("repro.core.native")
if native is not None and native._resolved is not None:
    found.append("the compiled tier, resolved")
if os.path.exists("/proc/self/maps") and "repro-native-" in open("/proc/self/maps").read():
    found.append("the compiled library, mapped")
print(",".join(found))
"""


#: Set-up (the metric a workload's ``setup_s`` counts) is construction: a
#: driver of every backend built on a small world, nothing stepped.
CONSTRUCT_PROBE = """
import os, sys
from repro.core.params import SimCovParams
from repro.engine.driver import DRIVERS, build_driver
params = SimCovParams.fast_test(dim=(24, 24), num_infections=2, num_steps=3)
found = []
for name in DRIVERS:
    seed = {"seeds": [3, 4]} if name == "ensemble" else {"seed": 3}
    sim = build_driver(name, params, nranks=2, **seed)
    try:
        native = sys.modules.get("repro.core.native")
        if native is not None and native._resolved is not None:
            found.append(f"{name}: the compiled tier, resolved")
        if "repro-native-" in open(f"/proc/{os.getpid()}/maps").read():
            found.append(f"{name}: the compiled library, mapped")
    finally:
        getattr(sim, "close", lambda: None)()
print(",".join(found))
"""


def run_probe(probe: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_drivers_import_neither_scipy_stats_nor_networkx():
    """Nor counted work, nor a package of the deleted substrates."""
    heavy = run_probe(PROBE)
    assert heavy == "", f"imported at start-up: {heavy}"


def test_drivers_import_neither_loads_the_compiled_tier_nor_starts_a_compiler():
    found = run_probe(NATIVE_PROBE)
    assert found == "", f"at import: {found}"


def test_constructing_every_driver_leaves_the_compiled_tier_unresolved():
    """No compile, load or probe before the first step: the first kernel
    call resolves the tier, and a constructor makes none."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc")
    found = run_probe(CONSTRUCT_PROBE)
    assert found == "", f"at construction: {found}"


def test_src_never_names_scipy_stats():
    offenders = [
        str(path.relative_to(src_dir()))
        for path in src_dir().rglob("*.py")
        for text in [path.read_text()]
        if "scipy.stats" in text or "from scipy import stats" in text
    ]
    assert offenders == []
