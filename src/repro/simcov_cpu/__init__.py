"""SIMCoV-CPU: the paper's baseline implementation (§2.2).

The domain is decomposed over CPU ranks on the UPC++-like PGAS runtime
(:mod:`repro.pgas`).  Each rank keeps an *active region* (the CPU analog of
the active-list, §3.2) and performs local updates; cross-boundary
interactions ride RPCs:

- boundary-state RPCs replicate each rank's border strips into neighbor
  ghost halos (batched per neighbor, as a tuned UPC++ application would);
- the T-cell tiebreak is the **two-wave** RPC protocol the paper contrasts
  with the GPU's single-exchange scheme: (1) intents — boundary-crossing
  move/bind bids are shipped to the target's owner, which resolves all
  competition locally; (2) results — owners notify sources which of their
  cells won, so sources erase movers / hold binders.

Semantics are staged exactly as the paper's modified SIMCoV-CPU (§4.1), so
this implementation is bitwise identical to the sequential reference — and
to SIMCoV-GPU.
"""

from repro.simcov_cpu.simulation import SimCovCPU

__all__ = ["SimCovCPU"]
