"""Counter-based pseudo-random number generation.

SIMCoV's behaviour is driven by PRNGs (§4.1 of the paper).  The reproduction
uses a *counter-based* generator (in the spirit of Philox/Random123): a
stateless avalanche hash of ``(seed, stream, step, key)``.  Keying draws by
**global voxel id** makes the random sequence a pure function of the
simulation coordinates — identical regardless of how the domain is
decomposed across ranks or devices.  This is what allows the sequential
reference, SIMCoV-CPU and SIMCoV-GPU implementations in this package to be
bitwise equivalent (a stronger property than the statistical agreement the
paper demonstrates, which we also evaluate).
"""

from repro.rng.philox import counter_hash, PHI64
from repro.rng.streams import Stream, VoxelRNG
from repro.rng.distributions import (
    uniform01,
    randint_below,
    poisson,
    exponential,
)

__all__ = [
    "counter_hash",
    "PHI64",
    "Stream",
    "VoxelRNG",
    "uniform01",
    "randint_below",
    "poisson",
    "exponential",
]
