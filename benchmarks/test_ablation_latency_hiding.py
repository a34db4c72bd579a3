"""Ablation (related work §5 / future work §6.1): latency hiding.

Aaby et al. [3] investigated latency hiding for multi-GPU ABMs;
SIMCoV-GPU's Fig 2 schedule is serialized (kernels, then copies, then
kernels).  Using real per-step costs from an executed run and the stream
overlap model, this bench bounds what an overlapped schedule — interior
kernels concurrent with halo copies, boundary kernels after both — could
save per step at each device count.
"""

import pytest

from repro.core.params import SimCovParams
from repro.perf.activity import DiskActivityModel
from repro.perf.machine import PAPER_SCALE_GROWTH_SPEED, PERLMUTTER
from repro.perf.projector import project_gpu_runtime
from repro.perf.stream import StreamSchedule


def step_components(num_devices: int):
    """Per-step (compute, comm, coord) seconds for the paper's base case."""
    p = SimCovParams.default_covid()
    model = DiskActivityModel(
        p, seed=1, speed=PAPER_SCALE_GROWTH_SPEED, supergrid=48, samples=16
    )
    r = project_gpu_runtime(PERLMUTTER, model, num_devices)
    steps = p.num_steps
    compute = (
        r.compute_seconds + r.reduce_seconds + r.sweep_seconds
        + r.launch_seconds
    ) / steps
    return compute, r.comm_seconds / steps, r.coord_seconds / steps


def make_schedules(compute: float, comm: float, coord: float,
                   boundary_fraction: float = 0.15):
    """Serial (today's Fig 2) vs overlapped step schedules."""
    serial = StreamSchedule()
    s = serial.stream()
    s.copy(comm, label="halo")
    s.compute(compute, label="kernels")
    s.host(coord, label="coordination")

    overlap = StreamSchedule()
    k, x, h = overlap.stream(), overlap.stream(), overlap.stream()
    ev = x.copy(comm, label="halo")
    interior = compute * (1 - boundary_fraction)
    k.compute(interior, label="interior kernels")
    k.wait(ev)
    k.compute(compute - interior, label="boundary kernels")
    done = k.compute(0.0, label="fence")
    h.wait(done)
    h.host(coord, label="coordination")
    return serial, overlap


def test_latency_hiding_bench(benchmark):
    compute, comm, coord = step_components(16)
    out = benchmark(
        lambda: make_schedules(compute, comm, coord)[1].makespan()
    )
    assert out > 0


@pytest.mark.parametrize("devices", [4, 16, 64])
def test_overlap_saves_more_at_scale(devices):
    compute, comm, coord = step_components(devices)
    serial, overlap = make_schedules(compute, comm, coord)
    saving = 1 - overlap.makespan() / serial.makespan()
    print(f"\n{devices} GPUs: serial {serial.makespan() * 1e3:.2f} ms/step, "
          f"overlapped {overlap.makespan() * 1e3:.2f} ms/step "
          f"({saving:.0%} saved)")
    assert 0.0 <= saving < 1.0
    if devices >= 16:
        # At scale, comm is a large share of the step: hiding it matters.
        assert saving > 0.05


def test_saving_bounded_by_comm_share():
    """Overlap can hide at most the halo-copy time."""
    compute, comm, coord = step_components(64)
    serial, overlap = make_schedules(compute, comm, coord)
    saved = serial.makespan() - overlap.makespan()
    assert saved <= comm + 1e-12
