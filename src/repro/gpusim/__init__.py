"""CUDA-stream modeling for SIMCoV-GPU's step schedule.

SIMCoV-GPU's counted work — launches, active-tile voxels, atomics, halo
copies — is a pure function of one single-block trace
(:mod:`repro.perf.work`).  What is left here is the one thing a trace does
not give: when copies and kernels may *overlap*.
:class:`~repro.gpusim.stream.StreamSchedule` is a deterministic
discrete-event model of per-device streams on compute and copy engines,
used by the latency-hiding ablation.
"""

from repro.gpusim.stream import Engine, Event, Stream, StreamSchedule

__all__ = [
    "Engine",
    "Event",
    "Stream",
    "StreamSchedule",
]
