"""Performance modeling: counted work -> modeled wall-clock seconds.

This reproduction has no Perlmutter, so runtimes are *modeled*, never
guessed: counted work is exactly what a native implementation would issue
(kernel launches, voxels touched, atomics + conflicts, reduction traffic,
halo bytes by locality, RPCs), and a calibrated
:class:`~repro.perf.machine.MachineModel` converts counts into seconds.

Counted work is a pure function of one real run: a
:class:`~repro.perf.workload.WorkloadTrace` observes the single-block
stepper at phase boundaries, and :mod:`repro.perf.work` derives any
decomposition's per-step ledger from it.  Two evaluation paths:

- :mod:`repro.perf.costs` prices those per-step ledgers (tests, the Fig 4
  profiling bench, the ablations);
- :mod:`repro.perf.projector` evaluates arbitrary (implementation,
  resource) points of the scaling experiments from a trace's supercell
  counts or a synthesized activity map.  Load imbalance, active-fraction
  growth, halo volume and collective depth all emerge from the activity
  and the decomposition geometry rather than being curve-fit.

:mod:`repro.perf.stream` models when a step's copies and kernels may
overlap on CUDA-style streams (the latency-hiding ablation).

Calibration (see ``machine.PERLMUTTER``) pins the model to the paper's
base configuration; every scaling *shape* then follows from counted work.
"""

from repro.perf.machine import MachineModel, PERLMUTTER
from repro.perf.costs import cpu_step_seconds, gpu_step_seconds, GpuStepCost
from repro.perf.ledger import GpuVariant, KernelCategory, WorkLedger
from repro.perf.workload import WorkloadTrace
from repro.perf.work import cpu_step_work, gpu_step_work
from repro.perf.projector import project_cpu_runtime, project_gpu_runtime

__all__ = [
    "MachineModel",
    "PERLMUTTER",
    "cpu_step_seconds",
    "gpu_step_seconds",
    "GpuStepCost",
    "GpuVariant",
    "KernelCategory",
    "WorkLedger",
    "WorkloadTrace",
    "cpu_step_work",
    "gpu_step_work",
    "project_cpu_runtime",
    "project_gpu_runtime",
]
