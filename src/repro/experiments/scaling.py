"""Figs 6-8: strong, weak, and FOI scaling (§4.2-4.4).

These experiments are paper-scale (up to 40,000^2 voxels, 33,120 steps, 64
GPUs / 2048 cores) — beyond direct execution here.  They are evaluated
with the projector over synthesized paper-scale activity (DESIGN.md §2):
FOI positions come from the real seeding code, the disk-growth dynamics
from the calibrated activity model, and runtimes from counted work priced
by the machine model.  Shape targets (the paper's findings):

- Fig 6: GPU wins ~5x at 4 GPUs, deviates from ideal past 16 GPUs, CPU
  scales near-ideally; the speedup falls below 1 at 64 GPUs.
- Fig 7: GPU runtime rises 4 -> 16 GPUs (parallelism cost) then holds
  nearly constant; CPU degrades; the advantage settles around 4x.
- Fig 8: GPU runtime grows sublinearly in FOI, CPU ~linearly until
  saturation; the speedup reaches ~12x at high FOI (ideal: 15.6x).

``validate_direct`` cross-checks the projector against the counted work
of a small traced run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import SimCovParams
from repro.experiments.configs import TABLE1
from repro.perf.activity import DiskActivityModel
from repro.perf.machine import MachineModel, PAPER_SCALE_GROWTH_SPEED, PERLMUTTER
from repro.perf.projector import project_cpu_runtime, project_gpu_runtime

#: Paper speedups, reported next to ours.
PAPER_SPEEDUPS = {
    "strong": [4.98, 3.38, 2.59, 1.38, 0.85],
    "weak": [4.91, 4.38, 3.53, 3.48, 3.82],
    "foi": [3.53, 5.16, 7.68, 11.97, None],
}


@dataclass
class ScalingRow:
    """One x-axis point of a scaling figure."""

    label: str
    gpus: int
    cores: int
    dim: tuple[int, int]
    foi: int
    cpu_seconds: float
    gpu_seconds: float
    paper_speedup: float | None

    @property
    def speedup(self) -> float:
        return self.cpu_seconds / self.gpu_seconds


def _evaluate(
    dim: tuple[int, int],
    foi: int,
    cores: int,
    gpus: int,
    machine: MachineModel,
    num_steps: int,
    seed: int,
    samples: int,
) -> tuple[float, float]:
    params = SimCovParams.default_covid(
        dim=dim, num_infections=foi, num_steps=num_steps
    )
    model = DiskActivityModel(
        params, seed=seed, speed=PAPER_SCALE_GROWTH_SPEED,
        supergrid=64, samples=samples,
    )
    cpu = project_cpu_runtime(machine, model, cores).total_seconds
    gpu = project_gpu_runtime(machine, model, gpus).total_seconds
    return cpu, gpu


def run_strong_scaling(
    machine: MachineModel = PERLMUTTER,
    num_steps: int = 33_120,
    seed: int = 1,
    samples: int = 48,
) -> list[ScalingRow]:
    """Fig 6: fixed 10,000^2 / 16 FOI problem, resources doubling."""
    cfg = TABLE1["strong"]
    rows = []
    for (gpus, cores), paper in zip(
        cfg.units_sequence(), PAPER_SPEEDUPS["strong"]
    ):
        cpu, gpu = _evaluate(
            cfg.min_dim[:2], cfg.min_foi, cores, gpus, machine,
            num_steps, seed, samples,
        )
        rows.append(
            ScalingRow(
                f"{{{gpus},{cores}}}", gpus, cores, cfg.min_dim[:2],
                cfg.min_foi, cpu, gpu, paper,
            )
        )
    return rows


def run_weak_scaling(
    machine: MachineModel = PERLMUTTER,
    num_steps: int = 33_120,
    seed: int = 1,
    samples: int = 48,
) -> list[ScalingRow]:
    """Fig 7: problem size, FOI and resources double together."""
    cfg = TABLE1["weak"]
    dims = cfg.dims_sequence()
    fois = cfg.foi_sequence()
    units = cfg.units_sequence()
    rows = []
    for dim, foi, (gpus, cores), paper in zip(
        dims, fois, units, PAPER_SPEEDUPS["weak"]
    ):
        cpu, gpu = _evaluate(
            dim, foi, cores, gpus, machine, num_steps, seed, samples
        )
        rows.append(
            ScalingRow(f"{{{gpus},{cores}}}", gpus, cores, dim, foi,
                       cpu, gpu, paper)
        )
    return rows


def run_foi_scaling(
    machine: MachineModel = PERLMUTTER,
    num_steps: int = 33_120,
    seed: int = 1,
    samples: int = 48,
) -> list[ScalingRow]:
    """Fig 8: 20,000^2 on {16 GPUs, 512 cores}, FOI doubling 64 -> 1024.

    The paper could not run the 1024-FOI CPU trial; the projector
    evaluates it (flagged as an extrapolation in EXPERIMENTS.md)."""
    cfg = TABLE1["foi"]
    gpus, cores = cfg.min_units
    rows = []
    for foi, paper in zip(cfg.foi_sequence(), PAPER_SPEEDUPS["foi"]):
        cpu, gpu = _evaluate(
            cfg.min_dim[:2], foi, cores, gpus, machine, num_steps, seed,
            samples,
        )
        rows.append(
            ScalingRow(f"FOI={foi}", gpus, cores, cfg.min_dim[:2], foi,
                       cpu, gpu, paper)
        )
    return rows


def format_scaling(rows: list[ScalingRow], title: str) -> str:
    lines = [
        title,
        f"{'Config':<14}{'dim':<14}{'FOI':>6}{'CPU (s)':>12}{'GPU (s)':>12}"
        f"{'Speedup':>10}{'Paper':>8}",
    ]
    for r in rows:
        paper = f"{r.paper_speedup:.2f}" if r.paper_speedup else "n/a"
        lines.append(
            f"{r.label:<14}{str(r.dim[0]) + 'x' + str(r.dim[1]):<14}"
            f"{r.foi:>6}{r.cpu_seconds:>12.0f}{r.gpu_seconds:>12.0f}"
            f"{r.speedup:>10.2f}{paper:>8}"
        )
    return "\n".join(lines)


def validate_direct(
    dim=(48, 48),
    num_infections=4,
    num_steps=120,
    seed=3,
) -> dict:
    """Cross-check: counted work vs projection at the same small scale.

    Traces one real run, prices SIMCoV-CPU's and SIMCoV-GPU's per-step
    counted work on 4 ranks / devices with the cost functions, and
    compares against the projector driven by the same trace's supercell
    counts.  Returns the ratios (tested to be O(1))."""
    from repro.grid.decomposition import Decomposition
    from repro.grid.spec import GridSpec
    from repro.perf.costs import cpu_step_seconds, gpu_step_seconds
    from repro.perf.work import cpu_step_work, gpu_step_work
    from repro.perf.workload import WorkloadTrace

    params = SimCovParams.fast_test(
        dim=dim, num_infections=num_infections, num_steps=num_steps
    )
    trace = WorkloadTrace.record(params, seed=seed, supergrid=16, stride=4)
    decomp = Decomposition.blocks(GridSpec(params.dim), 4)
    direct_cpu = sum(
        cpu_step_seconds(PERLMUTTER, w["active_per_rank"], w["comm"], 4)
        for w in cpu_step_work(trace, decomp)
    )
    direct_gpu = sum(
        gpu_step_seconds(
            PERLMUTTER, w["ledger"], w["active_per_device"], 4, True
        ).total_seconds
        for w in gpu_step_work(trace, decomp)
    )
    proj_cpu = project_cpu_runtime(PERLMUTTER, trace, 4).total_seconds
    proj_gpu = project_gpu_runtime(PERLMUTTER, trace, 4).total_seconds
    return {
        "direct_cpu": direct_cpu,
        "proj_cpu": proj_cpu,
        "cpu_ratio": proj_cpu / direct_cpu,
        "direct_gpu": direct_gpu,
        "proj_gpu": proj_gpu,
        "gpu_ratio": proj_gpu / direct_gpu,
    }
