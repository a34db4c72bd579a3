"""Memory at paper scale: a one-focus run pays for its region, not its domain.

A 1024 x 1024 run with one focus keeps its activity in a few percent of the
domain, and every kernel writes only inside the gate's region.  So the pages
of the fields and the diffusion scratch outside it are never written: the
scratch is ``np.zeros`` (fresh pages, not the 16 MB ``np.zeros_like``
writes), and the no-flux mirror writes only the ghost faces a region
reaches (none here: the focus is in the middle).  The block itself is about
15 MB resident once built (the gid array, the healthy tissue), the steps
about 10 MB more; writing the two scratch fields and the mirror's edge
columns once took the growth to 50 MB.  Measured in a fresh interpreter,
``VmRSS`` after the tier is resolved against ``VmRSS`` after 60 steps.
"""

import os
import subprocess
import sys

import pytest

from repro.testing import subprocess_env

#: ``VmRSS`` growth bound, MB: 25-26 measured on a 2-vCPU x86-64 host
#: (Python 3.11, numpy 2.4), 48-50 before the scratch and mirror changes.
GROWTH_MB = 38

PROBE = """
from repro.core import native
from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams

def rss_mb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmRSS:")) / 1024

native.tier()
params = SimCovParams.fast_test(dim=(1024, 1024), num_infections=1, num_steps=60)
before = rss_mb()
sim = SequentialSimCov(params, seed=11)
for _ in range(60):
    sim.step()
print(rss_mb() - before)
"""


def test_a_one_focus_run_at_1024_squared_stays_small():
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc")
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=subprocess_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    growth = float(done.stdout)
    assert growth <= GROWTH_MB, f"VmRSS grew {growth:.1f} MB over 60 steps"
